//! Stable content hashes over the IR: *what a program is*, not where it
//! sits in a source file.
//!
//! Three clients read them: the explorer's checkpoints, which record the
//! program they belong to and refuse to resume any other one;
//! `switchsim::progen::Dedupe`, which drops generated programs that
//! differ only in layout; and the ledger benchmark. The hashes cover
//! names, variable tables, node kinds, and arcs — and deliberately
//! exclude [`crate::ir::Node::span`], so reformatting the source leaves
//! them unchanged.
//!
//! Built on [`stablehash::StableHasher`], so hashes are identical across
//! platforms, toolchains, and runs.

use std::hash::{Hash, Hasher};

use stablehash::StableHasher;

use crate::ir::{CfgProc, CfgProgram};

/// Span-excluding content hash of one procedure: name, id, parameters,
/// variable table, node kinds, arcs, and start node.
pub fn proc_content_hash(proc: &CfgProc) -> u64 {
    let mut h = StableHasher::new();
    hash_proc(proc, &mut h);
    h.finish()
}

/// Span-excluding content hash of a whole program: objects, globals,
/// inputs, process specs, and every procedure's content hash.
pub fn program_content_hash(prog: &CfgProgram) -> u64 {
    let mut h = StableHasher::new();
    prog.objects.hash(&mut h);
    prog.globals.hash(&mut h);
    prog.inputs.hash(&mut h);
    prog.procs.len().hash(&mut h);
    for p in &prog.procs {
        hash_proc(p, &mut h);
    }
    prog.processes.len().hash(&mut h);
    for spec in &prog.processes {
        spec.name.hash(&mut h);
        spec.proc.hash(&mut h);
        spec.args.hash(&mut h);
        spec.daemon.hash(&mut h);
    }
    h.finish()
}

fn hash_proc(proc: &CfgProc, h: &mut StableHasher) {
    proc.name.hash(h);
    proc.id.hash(h);
    proc.params.hash(h);
    proc.vars.hash(h);
    proc.nodes.len().hash(h);
    for n in &proc.nodes {
        // Node kinds only: spans are presentation metadata.
        n.kind.hash(h);
    }
    proc.succs.hash(h);
    proc.start.hash(h);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const BASE: &str = r#"
        chan link[1];
        proc ping() { send(link, 1); }
        proc pong() { int v = recv(link); VS_assert(v == 1); }
        process ping();
        process pong();
    "#;

    #[test]
    fn spans_do_not_affect_hashes() {
        // Same program with extra whitespace: every span shifts, but the
        // content hashes must be identical.
        let shifted = BASE.replace("chan link[1];", "chan   link[1];\n\n\n");
        let a = compile(BASE).unwrap();
        let b = compile(&shifted).unwrap();
        assert_eq!(program_content_hash(&a), program_content_hash(&b));
        for (pa, pb) in a.procs.iter().zip(&b.procs) {
            assert_eq!(proc_content_hash(pa), proc_content_hash(pb));
        }
    }

    #[test]
    fn editing_one_proc_changes_only_its_hash() {
        let edited = BASE.replace("send(link, 1)", "send(link, 2)");
        let a = compile(BASE).unwrap();
        let b = compile(&edited).unwrap();
        assert_ne!(program_content_hash(&a), program_content_hash(&b));
        let ha: Vec<u64> = a.procs.iter().map(proc_content_hash).collect();
        let hb: Vec<u64> = b.procs.iter().map(proc_content_hash).collect();
        assert_ne!(ha[0], hb[0], "edited proc must re-key");
        assert_eq!(ha[1], hb[1], "untouched proc must keep its key");
    }

    #[test]
    fn distinct_procs_get_distinct_hashes() {
        let prog = compile(BASE).unwrap();
        assert_ne!(
            proc_content_hash(&prog.procs[0]),
            proc_content_hash(&prog.procs[1])
        );
    }
}
