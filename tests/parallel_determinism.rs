//! The frontier engine's contract: the report is byte-identical for any
//! `--jobs` value, on every corpus program, in every relevant mode. The
//! sweeps are input sets run over slices of `switchsim::oracle`'s
//! table; the rest are the programs and properties a sweep does not
//! reach.

use reclose::prelude::*;
use switchsim::oracle::{assert_agrees, read_closed_corpus, read_corpus, OracleLimits};
use switchsim::oracle::{COMPRESSION, JOBS, MEMO, STATELESS, UNREDUCED, WALKS};

/// Limits under which the stateless legs run ungated, every run capped
/// at `cap`: a run may truncate, so only `Same` relations are checked.
fn capped(cap: usize) -> OracleLimits {
    OracleLimits {
        max_transitions: cap,
        stateless_max_transitions: cap,
        stateless_state_cap: usize::MAX,
        judge_verdicts: false,
        ..OracleLimits::default()
    }
}

#[test]
fn stateless_violation_schedules_replay_on_corpus() {
    // Open corpus programs explored under domain enumeration produce
    // violations; every schedule the stateless search reports must
    // replay to a violation.
    for (name, src) in read_corpus("corpus") {
        let prog = compile(&src).unwrap();
        let config = Config {
            env_mode: EnvMode::Enumerate,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: usize::MAX,
            ..Config::default()
        };
        for v in &explore(&prog, &config).violations {
            assert!(
                verisoft::replay(&prog, &v.trace, config.env_mode).is_err(),
                "{name}: schedule must replay into the violation: {v}"
            );
        }
    }
}

/// Limits under which every frontier leg must complete and coverage
/// maps are compared.
fn complete() -> OracleLimits {
    OracleLimits {
        max_depth: 300,
        max_transitions: 2_000_000,
        track_coverage: true,
        ..OracleLimits::default()
    }
}

#[test]
fn stateful_parallel_is_jobs_invariant_on_corpus() {
    // The shared-visited-store frontier engine: byte-identical reports,
    // batched-commit counters included, for every worker count on
    // cap-free runs (the `JOBS` slice). The switch model's thousands of
    // states span chunks that a corpus program's few never fill.
    let switch = switchsim::generate(&switchsim::SwitchConfig {
        lines: 2,
        events_per_line: 1,
        ..switchsim::SwitchConfig::default()
    });
    let open = compile(&switch).unwrap();
    let mut programs = read_closed_corpus("corpus");
    programs.push((
        "switchgen --lines 2 --events 1".into(),
        closer::close(&open, &analyze(&open)).program,
    ));
    for (name, prog) in programs {
        let runs = assert_agrees(&name, &prog, None, &complete(), JOBS);
        assert_eq!(runs.legs.len(), 3, "{name}: jobs 1, 2 and 8 ran");
        for (leg, r) in &runs.legs {
            assert!(
                !r.truncated,
                "{name}: {leg}: caps must not mask the comparison"
            );
        }
    }
}

#[test]
fn stateful_por_reports_are_byte_identical_across_jobs() {
    // POR selection and the ignoring proviso must be pure functions of
    // the state (never of worker timing): with reduction on — and off —
    // the rendered report bytes and the rest of the deterministic
    // surface must match for jobs 1, 2 and 8 (the `UNREDUCED` and `JOBS`
    // slices). The cyclic ring program rides along to pin the proviso
    // path itself.
    let mut programs = read_closed_corpus("corpus");
    let ring = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/cyclic/ring.mc");
    programs.push((
        "cyclic/ring.mc".into(),
        compile(&std::fs::read_to_string(ring).unwrap()).unwrap(),
    ));
    for (name, prog) in programs {
        let runs = assert_agrees(&name, &prog, None, &complete(), UNREDUCED | JOBS);
        assert_eq!(runs.legs.len(), 6, "{name}: POR on and off, jobs 1, 2, 8");
    }
}

#[test]
fn compression_modes_produce_byte_identical_reports() {
    // Collapse compression (`no_compress: false`, the default) changes
    // only the stored representation of visited states — and whether a
    // transition is interpreted or looked up in the memo. Neither may
    // show, on the DFS or on the frontier at any worker count, with or
    // without a budget small enough to spill and spool (the
    // `COMPRESSION` slice; the driver checks that each mode really was
    // on or off). `spawn_pool.mc` is the memo's spawn bypass: `main`'s
    // first transition reads the process count, so it is interpreted
    // every time.
    for (name, prog) in read_closed_corpus("corpus") {
        let runs = assert_agrees(&name, &prog, None, &complete(), COMPRESSION);
        assert_eq!(runs.legs.len(), 14, "{name}: every twin ran");
        for (leg, r) in &runs.legs {
            let tag = format!("{name}: {leg}");
            assert!(!r.truncated, "{tag}: caps must not mask the comparison");
            assert_eq!(r.memo.bypass_budget, 0, "{tag}: the budget was never near");
            if !leg.contains("nc") {
                assert_eq!(
                    r.memo.bypass_spawn > 0,
                    name == "spawn_pool.mc",
                    "{tag}: only spawn_pool spawns"
                );
                assert!(
                    r.store_stored_bytes <= r.visited_bytes,
                    "{tag}: tuples are never larger than raw encodings here"
                );
            }
        }
    }
}

#[test]
fn stateless_compression_modes_produce_byte_identical_reports() {
    // The stateless walk schedules from the facts table and steps from
    // the memo in ID space; `--no-compress` builds every node and
    // interprets every transition. Neither may show, with or without
    // reduction, trace collection or a cap (the `WALKS` slice, whose
    // verdicts are also held to the frontier's).
    let limits = OracleLimits {
        stateless_max_transitions: 10_000,
        stateless_state_cap: usize::MAX,
        ..complete()
    };
    for (name, prog) in read_closed_corpus("corpus") {
        let runs = assert_agrees(&name, &prog, None, &limits, WALKS);
        assert_eq!(runs.legs.len(), 9, "{name}: every walk and its twin ran");
        for (leg, r) in runs.legs.iter().filter(|l| l.0.contains("stateless")) {
            let tag = format!("{name}: {leg}");
            assert_eq!(r.memo.bypass_cold, 0, "{tag}: the corpus repeats");
            if leg.contains("traces") && !r.truncated {
                assert!(!r.traces.is_empty(), "{tag}: traces were collected");
            }
        }
    }
}

#[test]
fn the_stateless_walk_turns_cold_where_the_tree_does_not_repeat() {
    // `acc` folds every toss into `h`, so each node below the root holds
    // a component no other node has and every lookup misses. The walk
    // must stop recording once its first window is all misses and
    // interpret the rest, ID-tuple ancestors above built-state
    // descendants, and still print what the interpreter prints.
    let prog = compile(
        "chan c[1]; \
         proc acc() { int h = 0; int i = 0; \
           while (i < 9) { int v = VS_toss(2); h = h * 3 + v; send(c, h); int x = recv(c); i = i + 1; } } \
         process acc();",
    )
    .unwrap();
    let limits = OracleLimits {
        max_depth: 300,
        track_coverage: true,
        ..capped(30_000)
    };
    let runs = assert_agrees("acc", &prog, None, &limits, STATELESS);
    for (leg, on) in &runs.legs {
        if leg.contains("nc") {
            continue;
        }
        let memo = on.memo;
        assert!(memo.bypass_cold > 0, "{leg}: {memo:?}");
        assert_eq!((memo.hits, memo.misses), (0, 1 << 12), "{leg}: {memo:?}");
    }
}

/// The exact `(states, transitions, truncated)` the interpreting walk
/// reported for two stateless runs whose process count changes what a
/// process set must hold: 73 processes (`switchgen --lines 70 --events
/// 1`, capped), and `spawn_pool.mc`, whose `main` spawns mid-walk. Sleep
/// and done sets are bitsets of more than one word there.
///
/// The walk recurses once per tree level and the switch's first path is
/// 1,403 transitions deep, more than a test thread's default stack
/// holds in a debug build (the interpreting walk before it overflowed
/// there too), so the comparison runs on a thread of its own.
#[test]
fn stateless_counts_hold_past_64_processes_and_across_spawns() {
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(stateless_counts_past_64_processes)
        .unwrap()
        .join()
        .unwrap();
}

fn stateless_counts_past_64_processes() {
    let switch = switchsim::generate(&switchsim::SwitchConfig {
        lines: 70,
        events_per_line: 1,
        ..switchsim::SwitchConfig::default()
    });
    let spawn_pool = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/spawn_pool.mc"),
    )
    .unwrap();
    for (name, src, max_transitions, want) in [
        ("switch70x1", switch, 2_000, (1_651, 2_000, true)),
        ("spawn_pool.mc", spawn_pool, 5_000_000, (36, 35, false)),
    ] {
        let open = compile(&src).unwrap_or_else(|d| panic!("{name}: {d}"));
        let prog = closer::close(&open, &analyze(&open)).program;
        let limits = OracleLimits {
            max_depth: 2_000,
            max_violations: 1,
            ..capped(max_transitions)
        };
        let runs = assert_agrees(name, &prog, None, &limits, STATELESS);
        let on = runs.get("stateless").unwrap();
        assert_eq!((on.states, on.transitions, on.truncated), want, "{name}");
    }
}

#[test]
fn a_budget_that_ends_inside_a_memoised_toss_truncates_where_the_interpreter_does() {
    // Each process's first transition is a send followed by a four-way
    // toss: five interpreter executions, recorded at level 0 and met
    // again — same process component, same channel component — at level
    // 1 after the *other* process has moved. Sweeping the cap over every
    // value up to the full search puts the level-start remainder below
    // five with the entry already in the memo, where a hit would have
    // charged all five and left `truncated` unset. Every engine runs
    // without reduction (the `MEMO` slice), the frontier at each worker
    // count and budget, beside its `--no-compress` twin at each cap.
    let tosser = compile(
        "chan a[8]; chan b[8]; \
         proc p() { send(a, 0); int x = VS_toss(3); send(a, x); } \
         proc q() { send(b, 0); int y = VS_toss(3); send(b, y); } \
         process p(); process q();",
    )
    .unwrap();
    let full = assert_agrees("uncapped", &tosser, None, &capped(usize::MAX), MEMO);
    let full_search = full.get("frontier -por").unwrap().transitions;
    for (leg, r) in &full.legs {
        assert!(!r.truncated && r.tosses_taken > 0, "{leg}");
    }
    let mut budget_bypasses = 0;
    for cap in 1..=full_search + 1 {
        let runs = assert_agrees(&format!("cap={cap}"), &tosser, None, &capped(cap), MEMO);
        for ((leg, r), (_, whole)) in runs.legs.iter().zip(&full.legs) {
            assert!(r.truncated || cap >= whole.transitions, "cap={cap}: {leg}");
            budget_bypasses += r.memo.bypass_budget;
        }
    }
    assert!(budget_bypasses > 0, "no cap landed inside a memoised toss");
}

/// A deliberately skewed decision tree: a long unary spine of sends,
/// then a bushy crown of toss branches.
const SKEWED: &str = r#"
    chan out[64];
    proc skew() {
        int i = 0;
        while (i < 16) { send(out, i); i = i + 1; }
        int a = VS_toss(2);
        int b = VS_toss(2);
        int c = VS_toss(2);
        send(out, a + b + c);
        VS_assert(a + b + c < 6);
    }
    process skew();
"#;

#[test]
fn skewed_tree_stateful_sweep_is_jobs_invariant() {
    assert_agrees("skewed", &compile(SKEWED).unwrap(), None, &complete(), JOBS);
}

#[test]
fn stateful_parallel_first_violation_is_jobs_invariant() {
    // With max_violations: 1 the ordered commit must cut at the same
    // discovery rank for every worker count.
    for (name, src) in read_corpus("corpus") {
        let prog = compile(&src).unwrap();
        let base = Config {
            engine: Engine::StatefulParallel,
            env_mode: EnvMode::Enumerate,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: 1,
            ..Config::default()
        };
        let runs: Vec<Report> = [1, 2, 8]
            .iter()
            .map(|&jobs| {
                explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                )
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(runs[0].violations, r.violations, "{name}");
        }
        for v in &runs[0].violations {
            assert!(
                verisoft::replay(&prog, &v.trace, base.env_mode).is_err(),
                "{name}: schedule must replay into the violation: {v}"
            );
        }
    }
}

/// Breadth-first sweep over a program's reachable states (deduplicated
/// by canonical encoding), capped at `cap` distinct states.
fn reachable_states(prog: &cfgir::CfgProgram, cap: usize) -> Vec<verisoft::GlobalState> {
    let config = Config::default();
    let exec = verisoft::Executor::new(prog, &config);
    let mut cx = verisoft::ExecCtx::new(&exec, usize::MAX);
    let mut seen = std::collections::HashSet::new();
    let mut states = vec![exec.initial()];
    seen.insert(verisoft::encode_state(&states[0]));
    let mut i = 0;
    while i < states.len() && states.len() < cap {
        let state = states[i].clone();
        i += 1;
        let pids = match exec.schedule(&state) {
            verisoft::Scheduled::Init(pid) => vec![pid],
            verisoft::Scheduled::Procs(procs) => procs,
            verisoft::Scheduled::DeadEnd { .. } => continue,
        };
        for pid in pids {
            for (_, outcome) in exec.successors(&mut cx, &state, pid) {
                if let verisoft::SuccOutcome::State(s, _) = outcome {
                    if seen.insert(verisoft::encode_state(&s)) && states.len() < cap {
                        states.push(*s);
                    }
                }
            }
        }
    }
    states
}

#[test]
fn cow_successors_match_the_eager_clone_oracle_on_corpus() {
    // Every successor produced through the CoW mutation funnel
    // (`CowArc::make_mut`) must be value-equal — and fingerprint-equal —
    // to its *eager clone*: the decode of its canonical encoding, which
    // shares no allocation with the CoW state. A divergence here means a
    // mutation slipped past the funnel or a cached sub-hash went stale.
    for (name, prog) in read_closed_corpus("corpus") {
        let config = Config::default();
        let exec = verisoft::Executor::new(&prog, &config);
        let mut cx = verisoft::ExecCtx::new(&exec, usize::MAX);
        let mut seen = std::collections::HashSet::new();
        let mut queue = vec![exec.initial()];
        seen.insert(verisoft::encode_state(&queue[0]));
        let mut i = 0;
        let mut checked = 0usize;
        while i < queue.len() && checked < 2_000 {
            let state = queue[i].clone();
            i += 1;
            let pids = match exec.schedule(&state) {
                verisoft::Scheduled::Init(pid) => vec![pid],
                verisoft::Scheduled::Procs(procs) => procs,
                verisoft::Scheduled::DeadEnd { .. } => continue,
            };
            for pid in pids {
                for (_, outcome) in exec.successors(&mut cx, &state, pid) {
                    if let verisoft::SuccOutcome::State(s, _) = outcome {
                        let enc = verisoft::encode_state(&s);
                        let oracle = verisoft::decode_state(&enc)
                            .unwrap_or_else(|| panic!("{name}: canonical encoding decodes"));
                        assert_eq!(*s, oracle, "{name}: CoW successor != eager clone");
                        assert_eq!(
                            s.fingerprint(),
                            oracle.fingerprint(),
                            "{name}: cached sub-hashes drifted from the eager clone"
                        );
                        checked += 1;
                        if seen.insert(enc) {
                            queue.push(*s);
                        }
                    }
                }
            }
        }
        assert!(checked > 0, "{name}: sweep produced successors");
    }
}

#[test]
fn every_reachable_corpus_state_roundtrips_through_the_encoder() {
    // decode(encode(s)) == s, and re-encoding the decode reproduces the
    // byte string — over the reachable fragment of every closed corpus
    // program, not just hand-built states.
    for (name, prog) in read_closed_corpus("corpus") {
        let states = reachable_states(&prog, 2_000);
        assert!(states.len() > 1, "{name}: sweep reached states");
        for s in &states {
            let enc = verisoft::encode_state(s);
            let back = verisoft::decode_state(&enc)
                .unwrap_or_else(|| panic!("{name}: reachable state decodes"));
            assert_eq!(*s, back, "{name}: roundtrip changed the state");
            assert_eq!(
                enc,
                verisoft::encode_state(&back),
                "{name}: re-encoding is not stable"
            );
        }
    }
}
