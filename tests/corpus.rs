//! Run the full pipeline over every sample program in `corpus/`.

use reclose::prelude::*;
use switchsim::oracle::{read_corpus, verdicts, CheckOutcome, OracleLimits};
use verisoft::ViolationKind;

#[test]
fn corpus_regressions_agree_across_the_oracle_matrix() {
    // `corpus/regressions/` holds pinned reproducers for divergences
    // found by `reclose fuzz`. Unlike the main corpus these programs may
    // contain failing assertions: what they pin is cross-engine
    // agreement, not cleanness.
    let regressions = read_corpus("corpus/regressions");
    assert!(regressions.len() >= 4, "regressions populated");
    for (name, src) in regressions {
        match switchsim::corpus::close_and_check(&src, &OracleLimits::default()) {
            Ok(CheckOutcome::Agreement(runs)) => {
                // The twin reproducers pin the POR violation-masking
                // fix: the buggy schedulers reported only one of the
                // two simultaneous per-process verdicts.
                if name.contains("twin") {
                    let verdicts = verdicts(&runs.legs[0].1);
                    assert!(
                        verdicts.len() >= 2,
                        "{name}: expected both per-process verdicts, got {verdicts:?}"
                    );
                }
            }
            Ok(CheckOutcome::TooBig) => panic!("{name}: regression too big for the oracle"),
            Err(detail) => panic!("{name}: {detail}"),
        }
    }
}

#[test]
fn corpus_compiles_and_closes() {
    for (name, src) in read_corpus("corpus") {
        let open = compile(&src).unwrap_or_else(|d| panic!("{name}: {d}"));
        cfgir::validate(&open).unwrap_or_else(|e| panic!("{name}: {e}"));
        let closed = closer::close(&open, &dataflow::analyze(&open));
        assert!(closed.program.is_closed(), "{name}");
        cfgir::validate(&closed.program).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn corpus_closed_explorations_are_wholesome() {
    // No runtime errors, divergences, or deadlocks in any closed corpus
    // program (assertion violations may legitimately appear as
    // over-approximations, checked against ground truth below).
    for (name, src) in read_corpus("corpus") {
        let open = compile(&src).unwrap();
        let closed = closer::close(&open, &dataflow::analyze(&open));
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 300,
                max_transitions: 2_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert!(!r.truncated, "{name}: {r}");
        assert_eq!(
            r.count(|k| matches!(k, ViolationKind::RuntimeError(_))),
            0,
            "{name}: {r}"
        );
        assert_eq!(r.count(|k| *k == ViolationKind::Deadlock), 0, "{name}: {r}");
        assert_eq!(
            r.count(|k| *k == ViolationKind::Divergence),
            0,
            "{name}: {r}"
        );
    }
}

#[test]
fn corpus_ground_truth_verdicts_preserved() {
    for (name, src) in read_corpus("corpus") {
        let open = compile(&src).unwrap();
        let ground = explore(
            &open,
            &Config {
                env_mode: EnvMode::Enumerate,
                max_depth: 300,
                max_transitions: 3_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert!(!ground.truncated, "{name} ground truth incomplete");
        // All corpus programs are defect-free under their real
        // environment semantics.
        assert!(ground.clean(), "{name}: {ground}");
    }
}
