//! `ledger --pin`: recompute every known answer and print `expected.rs`.
//! Run it when a change legitimately moves a pinned count (or adds an
//! input), review the difference, and paste the output over the file. A
//! changed *verdict* in that difference is a soundness bug, not a pin to
//! refresh.

use crate::drive::Verdict;
use crate::expected::FUZZ_SEED;
use crate::span::Tracer;
use crate::workloads::{self, Inputs};
use std::fmt::Write as _;
use std::path::Path;

fn pin_line(out: &mut String, input: &str, verdict: &str, states: usize, transitions: usize) {
    let _ = writeln!(
        out,
        "    Pin {{\n        input: {input:?},\n        verdict: {verdict:?},\n        \
         states: {states},\n        transitions: {transitions},\n    }},"
    );
}

/// The text of `expected.rs` below its header comment.
pub fn generate(scratch: &Path) -> String {
    let mut tr = Tracer::off();
    let (mut switch, mut corpus, mut fuzz) = (String::new(), String::new(), String::new());
    for w in &workloads::ALL {
        eprintln!("pinning {} ...", w.name);
        let prep = workloads::prepare(w, FUZZ_SEED, &scratch.join(w.name), &mut tr);
        let pass = workloads::run_pass(w, &prep, w.jobs(), 0);
        let _ = std::fs::remove_dir_all(&prep.scratch);
        // Every pinned answer is the reference engine's, or — for the
        // `fuzz_sweep` digest — the timed engine's after the reference
        // engine has agreed with it.
        let mut reference = Vec::with_capacity(prep.inputs.len());
        for (i, o) in prep.inputs.iter().zip(&pass.outcomes) {
            let known = workloads::reference(w, &i.src);
            if workloads::agrees(w, o, &known) != Some(true) {
                eprintln!(
                    "WARNING {}/{}: timed engine says `{}` ({} transitions), the reference \
                     engine does not agree — do not pin this",
                    w.name,
                    i.name,
                    o.text(),
                    o.transitions
                );
            }
            reference.push(Verdict::text_of(&known.verdict));
        }
        match w.inputs {
            Inputs::Switch { .. } => {
                let o = &pass.outcomes[0];
                pin_line(&mut switch, w.name, &reference[0], o.states, o.transitions);
            }
            Inputs::Corpus => {
                for ((i, o), v) in prep.inputs.iter().zip(&pass.outcomes).zip(&reference) {
                    pin_line(&mut corpus, &i.name, v, o.states, o.transitions);
                }
            }
            Inputs::Fuzz => {
                let _ = writeln!(
                    fuzz,
                    "pub const FUZZ_SEED: u64 = {FUZZ_SEED};\n\
                     pub const FUZZ_DIGEST: u64 = {:#018x};\n\
                     pub const FUZZ_STATES: usize = {};\n\
                     pub const FUZZ_TRANSITIONS: usize = {};",
                    workloads::pass_digest(&prep, &pass),
                    pass.counts.states,
                    pass.counts.transitions
                );
            }
        }
    }
    format!(
        "{fuzz}\npub const SWITCH: &[Pin] = &[\n{switch}];\n\npub const CORPUS: &[Pin] = &[\n{corpus}];\n"
    )
}
