//! Differential testing of counterexample-guided toss refinement.
//!
//! `closer::refine_cex` promises that pruning infeasible toss outcomes
//! never changes what the model checker can conclude: the refined
//! program's verdict set (the set of violation kinds) is identical to
//! the plain closed program's, under every engine, POR setting, and
//! worker count. The `refined` legs of `switchsim::oracle` check that
//! promise across the whole corpus and a sweep of fuzz-generated
//! programs; this file also pins the precision *gains* on the programs
//! written to exhibit them.

use reclose::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use switchsim::oracle::{assert_agrees, cross_check, read_corpus, CheckOutcome, OracleLimits};
use switchsim::oracle::{POR, REFINE};

#[test]
fn refinement_preserves_verdicts_across_the_corpus() {
    // Every stock program whose refinement changes it, through the
    // `REFINE` slice: each refined leg keeps the violation kinds of its
    // closed twin under every engine and POR setting. One thread a
    // program: refining histogram and watchdog dominates.
    let refined: Vec<String> = std::thread::scope(|s| {
        let checks: Vec<_> = read_corpus("corpus")
            .into_iter()
            .map(|(name, src)| s.spawn(move || refine_and_check(&name, &src).then_some(name)))
            .collect();
        checks
            .into_iter()
            .filter_map(|c| c.join().unwrap())
            .collect()
    });
    // Ten programs refine to themselves, so their refinement legs would
    // compare a program with itself; these four must still run them.
    assert_eq!(refined, ["clamp.mc", "gate.mc", "histogram.mc", "pair.mc"]);
}

/// Refine one stock program and, when that changed it, check it through
/// the `REFINE` slice; returns whether it did. A tighter refinement
/// budget than the CLI default keeps the debug run inside tier-1 time;
/// a program whose open exploration does not complete under it refines
/// to the identity.
fn refine_and_check(name: &str, src: &str) -> bool {
    let opts = closer::CexOptions {
        max_transitions: 400_000,
        ..closer::CexOptions::default()
    };
    let open = compile(src).unwrap_or_else(|d| panic!("{name}: {d:?}"));
    let closed = closer::close(&open, &analyze(&open));
    // `rep.reverted` is fine here: reverting a batch whose prune would
    // have dropped a (spurious) verdict is exactly how the equality is
    // maintained.
    let (refined, _rep) = closer::refine_cex(&open, &closed, &opts);
    if refined == closed.program {
        return false;
    }
    let limits = OracleLimits {
        max_depth: 300,
        max_transitions: 2_000_000,
        stateless_max_transitions: 150_000,
        ..OracleLimits::default()
    };
    let runs = assert_agrees(name, &closed.program, Some(&refined), &limits, REFINE);
    let compared = runs
        .legs
        .iter()
        .filter(|(leg, r)| leg.starts_with("refined ") && !r.truncated)
        .count();
    assert!(
        compared >= 5,
        "{name}: too few refined legs completed ({compared})"
    );
    true
}

#[test]
fn refinement_preserves_verdicts_on_fuzz_seeds() {
    // 120 corpus-engine seeds — open programs mixing arrays, `chan_len`,
    // dynamic `spawn`, extern channels and deliberately failing
    // assertions, the family that exposed the POR violation-masking bug
    // (see `corpus/regressions/`) — each closed, refined, and put
    // through the `POR` slice of `switchsim::oracle`: POR on and off on
    // both stateful engines, and the refined program beside the closed
    // one wherever refinement changed it.
    let limits = OracleLimits {
        max_depth: 300,
        max_transitions: 2_000_000,
        ..OracleLimits::default()
    };
    let check = |seed: u64| {
        let src = switchsim::corpus::generate(seed);
        let name = format!("seed {seed}\n{src}");
        let prog = compile(&src).unwrap_or_else(|d| panic!("{name}: {d:?}"));
        let closed = closer::close(&prog, &analyze(&prog));
        let (refined, _) = closer::refine_cex(&prog, &closed, &closer::CexOptions::default());
        let refined = (refined != closed.program).then_some(refined);
        match cross_check(&closed.program, refined.as_ref(), &limits, POR) {
            Ok(CheckOutcome::Agreement(runs)) => runs.get("refined frontier").is_some(),
            Ok(CheckOutcome::TooBig) => false,
            Err(detail) => panic!("{name}: {detail}"),
        }
    };
    // Two threads take the next seed in turn: refining dominates.
    let next = AtomicU64::new(0);
    let worker = || {
        let seeds = std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)));
        seeds.take_while(|&n| n < 120).filter(|&n| check(n)).count()
    };
    let refined_any: usize = std::thread::scope(|s| {
        let workers = [s.spawn(worker), s.spawn(worker)];
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    // Most generated programs have only feasible toss outcomes, so the
    // refinement is usually the identity. At least one seed must refine
    // for the non-identity path to be exercised at all.
    assert!(
        refined_any >= 1,
        "refinement changed only {refined_any} of 120 fuzz programs"
    );
}

#[test]
fn refinement_measurably_shrinks_the_precision_gap_programs() {
    // The three corpus programs written for this purpose must each shed
    // at least 20% of their closed-program state space.
    let mut shrunk = Vec::new();
    for name in ["gate.mc", "clamp.mc", "pair.mc"] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join(name);
        let src = std::fs::read_to_string(&path).unwrap();
        let prog = compile(&src).unwrap();
        let closed = closer::close(&prog, &analyze(&prog));
        let (refined, rep) = closer::refine_cex(&prog, &closed, &closer::CexOptions::default());
        assert!(rep.outcomes_pruned >= 1, "{name}: nothing pruned");
        assert!(!rep.reverted, "{name}: refinement reverted");
        assert!(
            rep.states_after * 5 <= rep.states_before * 4,
            "{name}: states {} -> {} is under a 20% reduction",
            rep.states_before,
            rep.states_after
        );
        assert_ne!(refined, closed.program, "{name}: program unchanged");
        shrunk.push((name, rep.states_before, rep.states_after));
    }
    assert!(shrunk.len() >= 3);
}
