//! Differential testing of counterexample-guided toss refinement.
//!
//! `closer::refine_cex` promises that pruning infeasible toss outcomes
//! never changes what the model checker can conclude: the refined
//! program's verdict set (the set of violation kinds) is identical to
//! the plain closed program's, under every engine, POR setting, and
//! worker count. These tests check that promise across the whole
//! corpus and a sweep of fuzz-generated programs, and pin the
//! precision *gains* on the programs written to exhibit them.

use reclose::prelude::*;

/// The engine matrix a (closed, refined) pair is compared under.
/// Every engine runs at `jobs = 1`; the frontier engine additionally
/// runs at 2 and 8 workers.
fn matrix() -> Vec<(Engine, bool, usize)> {
    let mut m = Vec::new();
    for por in [true, false] {
        for eng in [
            Engine::Stateless,
            Engine::Stateful,
            Engine::StatefulParallel,
        ] {
            m.push((eng, por, 1));
        }
        for jobs in [2, 8] {
            m.push((Engine::StatefulParallel, por, jobs));
        }
    }
    m
}

fn config(engine: Engine, por: bool, jobs: usize) -> Config {
    // The tree engine gets a smaller budget: where its unfolding
    // exceeds it the run is skipped anyway, and a cheap truncation beats
    // burning the full graph-engine budget to find that out.
    let stateless = engine == Engine::Stateless;
    Config {
        engine,
        por,
        sleep_sets: por,
        jobs,
        max_depth: 300,
        max_transitions: if stateless { 150_000 } else { 2_000_000 },
        max_violations: usize::MAX,
        ..Config::default()
    }
}

fn corpus_files() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus dir exists") {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "mc").unwrap_or(false) {
            out.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&path).unwrap(),
            ));
        }
    }
    out.sort();
    out
}

/// Compare the closed and refined programs under one configuration.
/// Skipped (returns `false`) when either run truncates: a cut-off
/// search has no meaningful verdict set. The stateless tree engines
/// are the usual culprits on concurrent programs.
fn agree_under(
    name: &str,
    closed: &CfgProgram,
    refined: &CfgProgram,
    engine: Engine,
    por: bool,
    jobs: usize,
) -> bool {
    let cfg = config(engine, por, jobs);
    let a = explore(closed, &cfg);
    if a.truncated {
        return false;
    }
    let b = explore(refined, &cfg);
    if b.truncated {
        return false;
    }
    assert_eq!(
        closer::verdict_set(&a),
        closer::verdict_set(&b),
        "{name}: verdicts diverged under {engine:?} por={por} jobs={jobs}"
    );
    true
}

#[test]
fn refinement_preserves_verdicts_across_the_corpus() {
    // A tighter coverage budget than the CLI default keeps the debug
    // run inside tier-1 time; programs whose open exploration does not
    // complete under it simply refine to the identity, which the matrix
    // still cross-checks.
    let opts = closer::CexOptions {
        max_transitions: 400_000,
        ..closer::CexOptions::default()
    };
    for (name, src) in corpus_files() {
        let prog = compile(&src).unwrap_or_else(|d| panic!("{name}: {d:?}"));
        let closed = closer::close(&prog, &analyze(&prog));
        // `rep.reverted` is fine here: reverting a batch whose prune
        // would have dropped a (spurious) verdict is exactly how the
        // equality below is maintained.
        let (refined, _rep) = closer::refine_cex(&prog, &closed, &opts);
        // The stateless tree engines blow up combinatorially on the
        // concurrent corpus programs: they would spend the entire
        // transition budget only to be skipped as truncated. Gate them
        // on the graph-search state count, like the fuzz oracle does,
        // and drop the redundant single-worker graph engines too so the
        // big programs keep the full POR x jobs sweep without the
        // engine axis doubling it.
        let base = explore(&closed.program, &config(Engine::Stateful, false, 1));
        assert!(!base.truncated, "{name}: baseline truncated");
        let small = base.states <= 1_200;
        let mut compared = 0usize;
        for (engine, por, jobs) in matrix() {
            let keep = small
                || matches!(engine, Engine::StatefulParallel)
                || (engine == Engine::Stateful && por);
            if !keep {
                continue;
            }
            if agree_under(&name, &closed.program, &refined, engine, por, jobs) {
                compared += 1;
            }
        }
        assert!(
            compared >= if small { matrix().len() / 2 } else { 5 },
            "{name}: too few configurations completed ({compared})"
        );
    }
}

#[test]
fn refinement_preserves_verdicts_on_fuzz_seeds() {
    // 120 generator seeds, each checked refinement-on vs refinement-off
    // under the exhaustive baseline plus one rotating configuration from
    // the engine matrix, so the sweep covers every engine x POR x jobs
    // combination many times over without a 100x matrix blow-up.
    let opts = closer::CexOptions::default();
    let m = matrix();
    let mut refined_any = 0usize;
    for seed in 0..120u64 {
        let src = switchsim::corpus::generate(seed);
        let name = format!("seed {seed}");
        let prog = compile(&src).unwrap_or_else(|d| panic!("{name}: {d:?}"));
        let closed = closer::close(&prog, &analyze(&prog));
        let (refined, rep) = closer::refine_cex(&prog, &closed, &opts);
        if refined != closed.program {
            refined_any += 1;
        }
        let _ = rep;
        let base = explore(&closed.program, &config(Engine::Stateful, false, 1));
        if base.truncated {
            continue;
        }
        assert_eq!(
            closer::verdict_set(&base),
            closer::verdict_set(&explore(&refined, &config(Engine::Stateful, false, 1))),
            "{name}: exhaustive verdicts diverged"
        );
        let (engine, por, jobs) = m[seed as usize % m.len()];
        if engine == Engine::Stateless && base.states > 1_200 {
            continue;
        }
        agree_under(&name, &closed.program, &refined, engine, por, jobs);
    }
    // Most generated programs have only feasible toss outcomes, so the
    // refinement is usually the identity; the sweep still checks that
    // it never silently degrades those. At least one seed must refine
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
