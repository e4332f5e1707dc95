//! Differential soundness oracle for persistent-set partial-order
//! reduction in the stateful engines.
//!
//! POR prunes *interleavings*, never *verdicts*: for every program, an
//! exploration with reduction on must report exactly the same set of
//! property violations as the exhaustive exploration with reduction off.
//! Individual reproducing traces may differ (the reduced search takes
//! different representatives of each Mazurkiewicz trace), and so may the
//! *number* of duplicate reports of one underlying defect — so the
//! oracle compares the set of distinct `(kind, process)` verdicts, plus
//! the clean/violating judgment itself: the `POR` slice of
//! `switchsim::oracle`, whose legs also hold each engine jobs-invariant.
//!
//! Three layers: the hand-written corpus, randomized sweeps over
//! generated programs (fixed seeds — failures print the seed and the
//! full source), and the cyclic ring program whose violation would be
//! missed without the ignoring proviso.

use reclose::prelude::*;
use switchsim::oracle::{assert_agrees, read_closed_corpus, OracleLimits, Runs, POR, VERDICTS};
use switchsim::progen;

/// `prog` through `slice`. The `POR` slice is both stateful engines, POR
/// on vs off, and the frontier across worker counts with and without
/// reduction.
fn agree(name: &str, prog: &cfgir::CfgProgram, slice: u16) -> Runs {
    let limits = OracleLimits {
        max_depth: 300,
        max_transitions: 2_000_000,
        ..OracleLimits::default()
    };
    assert_agrees(name, prog, None, &limits, slice)
}

#[test]
fn por_preserves_verdicts_on_corpus() {
    // Both stateful engines with POR on report the verdicts of the
    // exhaustive frontier (the `VERDICTS` slice); the frontier's jobs
    // legs are `Same` as its one-worker run in
    // `tests/parallel_determinism.rs`.
    for (name, prog) in read_closed_corpus("corpus") {
        let runs = agree(&name, &prog, VERDICTS);
        assert_eq!(runs.legs.len(), 4, "{name}: both engines, POR on and off");
    }
}

#[test]
fn por_preserves_verdicts_on_generated_programs() {
    // ~50 fixed seeds through the closed-program generator: independent
    // work, channel contention, schedule-dependent assertions, natural
    // deadlocks, and (on some seeds) cyclic self-relay tails. A failure
    // prints the seed and the full program for offline reduction.
    for seed in 0..50u64 {
        let procs = 2 + (seed % 3) as usize; // 2..=4 processes
        let stmts = 3 + (seed % 4) as usize; // 3..=6 statements per loop
        let src = progen::generate_closed(procs, stmts, seed);
        let prog = cfgir::compile(&src)
            .unwrap_or_else(|d| panic!("seed {seed}: generated program invalid:\n{d}\n{src}"));
        agree(
            &format!("generated seed={seed} procs={procs} stmts={stmts}\n{src}"),
            &prog,
            POR,
        );
    }
}

#[test]
fn por_preserves_verdicts_on_corpus_engine_programs() {
    // Fixed seeds through the *adversarial* corpus engine
    // (`switchsim::corpus`): open programs mixing arrays, `chan_len`,
    // dynamic `spawn`, extern channels, and deliberately failing
    // assertions — the generator family that exposed the POR
    // violation-masking bug (see `corpus/regressions/`). Each program
    // is closed through the full pipeline first, then put through the
    // same slice as the generated closed programs.
    for seed in 0..30u64 {
        let src = switchsim::corpus::generate(seed);
        let open = cfgir::compile(&src)
            .unwrap_or_else(|d| panic!("seed {seed}: generated program invalid:\n{d}\n{src}"));
        let closed = closer::close(&open, &analyze(&open)).program;
        agree(&format!("corpus-engine seed={seed}\n{src}"), &closed, POR);
    }
}

#[test]
fn ignoring_proviso_catches_the_ring_prober() {
    // The cyclic token ring: the prober's assertion violation is only
    // reachable through states a pure persistent-set search would never
    // fully expand (every singleton set is a ring station). The proviso
    // must force full expansion when the ring closes its lap, so POR-on
    // still reports the violation — with fallbacks actually recorded.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/cyclic/ring.mc");
    let prog = compile(&std::fs::read_to_string(path).unwrap()).unwrap();
    let runs = agree("cyclic/ring.mc", &prog, POR);
    for leg in ["dfs", "frontier"] {
        let reduced = runs.get(leg).unwrap();
        assert_eq!(
            reduced.count(|k| *k == verisoft::ViolationKind::AssertionViolation),
            1,
            "{leg}: the prober's violation must be found under POR: {reduced}"
        );
        assert!(
            reduced.por_proviso_fallbacks > 0,
            "{leg}: the ring must trigger the proviso"
        );
        assert!(
            reduced.por_skipped_procs > 0,
            "{leg}: the prober must be skipped on non-lap states"
        );
    }
}

#[test]
fn por_actually_reduces_on_independent_corpus_programs() {
    // The acceptance check: on at least three corpus programs the
    // reduced exploration visits strictly fewer states (this is what the
    // BENCH_por.json ablation measures as wall time).
    let mut reduced_on = Vec::new();
    for (name, prog) in read_closed_corpus("corpus") {
        let run = |por| {
            explore(
                &prog,
                &Config {
                    engine: Engine::StatefulParallel,
                    por,
                    max_depth: 300,
                    max_violations: usize::MAX,
                    ..Config::default()
                },
            )
        };
        let (full, red) = (run(false), run(true));
        assert!(
            red.states <= full.states,
            "{name}: POR may never add states"
        );
        if red.states < full.states {
            assert!(red.por_skipped_procs > 0, "{name}: reduction not counted");
            reduced_on.push(name);
        }
    }
    assert!(
        reduced_on.len() >= 3,
        "POR must measurably reduce >= 3 corpus programs, got {reduced_on:?}"
    );
}
