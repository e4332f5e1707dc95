//! The frontier engine's contract: the report is byte-identical for any
//! `--jobs` value, on every corpus program, in every relevant mode.

use reclose::prelude::*;
use verisoft::Violation;

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
    assert!(out.len() >= 6, "corpus populated");
    out
}

/// Everything observable about a report: (states, transitions, max depth,
/// truncated, violations, trace count, coverage totals, POR counters).
type ReportKey = (
    usize,
    usize,
    usize,
    bool,
    Vec<Violation>,
    usize,
    Option<(usize, usize)>,
    (usize, usize),
);

fn key(r: &Report) -> ReportKey {
    (
        r.states,
        r.transitions,
        r.max_depth_seen,
        r.truncated,
        r.violations.clone(),
        r.traces.len(),
        r.coverage.as_ref().map(|c| c.totals()),
        (r.por_skipped_procs, r.por_proviso_fallbacks),
    )
}

fn closed_corpus() -> Vec<(String, cfgir::CfgProgram)> {
    corpus_files()
        .into_iter()
        .map(|(name, src)| {
            let open = compile(&src).unwrap_or_else(|d| panic!("{name}: {d}"));
            (
                name,
                closer::close(&open, &dataflow::analyze(&open)).program,
            )
        })
        .collect()
}

#[test]
fn stateless_violation_schedules_replay_on_corpus() {
    // Open corpus programs explored under domain enumeration produce
    // violations; every schedule the stateless search reports must
    // replay to a violation.
    for (name, src) in corpus_files() {
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
                verisoft::replay(&prog, &v.trace, config.env_mode, &config.limits).is_err(),
                "{name}: schedule must replay into the violation: {v}"
            );
        }
    }
}

#[test]
fn stateful_parallel_is_jobs_invariant_on_corpus() {
    // The shared-visited-store frontier engine: byte-identical reports
    // for every worker count on cap-free runs.
    for (name, prog) in closed_corpus() {
        let base = Config {
            engine: Engine::StatefulParallel,
            max_depth: 300,
            max_transitions: 2_000_000,
            max_violations: usize::MAX,
            track_coverage: true,
            ..Config::default()
        };
        let one = explore(&prog, &base);
        assert!(!one.truncated, "{name}: caps must not mask the comparison");
        for jobs in [2, 4, 8] {
            let r = explore(
                &prog,
                &Config {
                    jobs,
                    ..base.clone()
                },
            );
            assert_eq!(key(&one), key(&r), "{name}: jobs={jobs} must equal jobs=1");
        }
    }
}

#[test]
fn stateful_por_reports_are_byte_identical_across_jobs() {
    // POR selection and the ignoring proviso must be pure functions of
    // the state (never of worker timing): with reduction on — and off —
    // the *rendered report bytes* and the full report key must match for
    // jobs 1, 2 and 8. The cyclic ring program rides along to pin the
    // proviso path itself.
    let mut programs = closed_corpus();
    let ring = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus/cyclic/ring.mc");
    programs.push((
        "cyclic/ring.mc".into(),
        compile(&std::fs::read_to_string(ring).unwrap()).unwrap(),
    ));
    for (name, prog) in programs {
        for por in [true, false] {
            let base = Config {
                engine: Engine::StatefulParallel,
                por,
                sleep_sets: por,
                max_depth: 300,
                max_transitions: 2_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            };
            let one = explore(&prog, &base);
            for jobs in [2, 8] {
                let r = explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                );
                assert_eq!(key(&one), key(&r), "{name}: por={por} jobs={jobs}");
                assert_eq!(
                    format!("{one}").into_bytes(),
                    format!("{r}").into_bytes(),
                    "{name}: por={por} jobs={jobs}: rendered bytes differ"
                );
            }
        }
    }
}

#[test]
fn stateful_parallel_first_violation_is_jobs_invariant() {
    // With max_violations: 1 the ordered commit must cut at the same
    // discovery rank for every worker count.
    for (name, src) in corpus_files() {
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
                verisoft::replay(&prog, &v.trace, base.env_mode, &base.limits).is_err(),
                "{name}: schedule must replay into the violation: {v}"
            );
        }
    }
}

/// One configuration with collapse compression on and off: the report —
/// the full key, the rendered bytes, the *logical* visited-store totals
/// (which always count raw canonical encodings), the sharing counters
/// and the coverage **map** — must be identical. `--no-compress` has no
/// interner and therefore no transition memo (DESIGN §15): it interprets
/// every transition, so this also holds the memo against the interpreter
/// through every stateful engine's public surface. Returns the
/// compressed run's report.
fn assert_compression_invisible(tag: &str, prog: &cfgir::CfgProgram, config: &Config) -> Report {
    let run = |no_compress| {
        explore(
            prog,
            &Config {
                no_compress,
                ..config.clone()
            },
        )
    };
    let (on, off) = (run(false), run(true));
    assert_eq!(key(&on), key(&off), "{tag}");
    assert_eq!(
        format!("{on}").into_bytes(),
        format!("{off}").into_bytes(),
        "{tag}: rendered bytes differ"
    );
    assert_eq!(
        (on.visited_states, on.visited_bytes),
        (off.visited_states, off.visited_bytes),
        "{tag}: logical store totals must not see compression"
    );
    assert_eq!(
        (on.tosses_taken, on.shared_components, on.total_components),
        (
            off.tosses_taken,
            off.shared_components,
            off.total_components
        ),
        "{tag}: toss and sharing counters"
    );
    // A memo hit marks no node — the miss that made its entry already
    // did — so the run's map must equal the one the interpreter marks
    // transition by transition.
    assert_eq!(on.coverage, off.coverage, "{tag}: coverage maps");
    assert_eq!(off.memo.lookups(), 0, "{tag}: no interner, no memo");
    // And the `off` run really ran without compression.
    assert_eq!(off.interner_entries, 0, "{tag}: compression was off");
    assert_eq!(
        off.store_stored_bytes, off.visited_bytes,
        "{tag}: uncompressed stored == raw"
    );
    assert_eq!(
        on.memo.lookups() > 0,
        on.transitions > 0,
        "{tag}: the memo serves every stateful engine"
    );
    on
}

/// Every stateful engine and worker count, and the frontier engine
/// also under a budget small enough to spill and spool.
fn compression_matrix() -> Vec<(Engine, usize, usize)> {
    let mut matrix = vec![(Engine::Stateful, 1, usize::MAX)];
    for jobs in [1, 2, 8] {
        for mem_limit in [usize::MAX, 512] {
            matrix.push((Engine::StatefulParallel, jobs, mem_limit));
        }
    }
    matrix
}

#[test]
fn compression_modes_produce_byte_identical_reports() {
    // Collapse compression (`no_compress: false`, the default) changes
    // only the stored representation of visited states — and whether a
    // transition is interpreted or looked up in the memo. Neither may
    // show. `spawn_pool.mc` is the
    // memo's spawn bypass: `main`'s first transition reads the process
    // count, so it is interpreted every time.
    for (name, prog) in closed_corpus() {
        for (engine, jobs, mem_limit) in compression_matrix() {
            let tag = format!("{name}: {engine:?} jobs={jobs} mem_limit={mem_limit}");
            let config = Config {
                engine,
                jobs,
                mem_limit,
                max_depth: 300,
                max_transitions: 2_000_000,
                max_violations: usize::MAX,
                track_coverage: true,
                ..Config::default()
            };
            let on = assert_compression_invisible(&tag, &prog, &config);
            assert!(!on.truncated, "{tag}: caps must not mask the comparison");
            // And the modes really were different under the hood.
            assert!(on.interner_entries > 0, "{tag}: compression was on");
            assert!(
                on.store_stored_bytes <= on.visited_bytes,
                "{tag}: tuples are never larger than raw encodings here"
            );
            assert_eq!(
                on.memo.bypass_spawn > 0,
                name == "spawn_pool.mc",
                "{tag}: only spawn_pool spawns"
            );
            assert_eq!(on.memo.bypass_budget, 0, "{tag}: the budget was never near");
        }
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
    // charged all five and left `truncated` unset.
    let tosser = compile(
        "chan a[8]; chan b[8]; \
         proc p() { send(a, 0); int x = VS_toss(3); send(a, x); } \
         proc q() { send(b, 0); int y = VS_toss(3); send(b, y); } \
         process p(); process q();",
    )
    .unwrap();
    let base = Config {
        engine: Engine::StatefulParallel,
        por: false,
        max_violations: usize::MAX,
        ..Config::default()
    };
    let full = explore(&tosser, &base);
    assert!(!full.truncated && full.tosses_taken > 0);
    let mut budget_bypasses = 0;
    for max_transitions in 1..=full.transitions + 1 {
        for (engine, jobs, mem_limit) in compression_matrix() {
            let tag = format!("cap={max_transitions}: {engine:?} jobs={jobs} mem={mem_limit}");
            let config = Config {
                engine,
                jobs,
                mem_limit,
                max_transitions,
                ..base.clone()
            };
            let on = assert_compression_invisible(&tag, &tosser, &config);
            assert!(on.truncated || max_transitions >= full.transitions, "{tag}");
            budget_bypasses += on.memo.bypass_budget;
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
    let prog = compile(SKEWED).unwrap();
    let base = Config {
        engine: Engine::StatefulParallel,
        max_violations: usize::MAX,
        track_coverage: true,
        ..Config::default()
    };
    let one = explore(&prog, &base);
    for jobs in [2, 4, 8] {
        let par = explore(
            &prog,
            &Config {
                jobs,
                ..base.clone()
            },
        );
        assert_eq!(key(&one), key(&par), "jobs={jobs}");
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
    for (name, prog) in closed_corpus() {
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
    for (name, prog) in closed_corpus() {
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
