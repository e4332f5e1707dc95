//! Micro-benchmark of the state-layer primitives behind both stateful
//! engines: cloning a state and producing a successor (the per-transition
//! cost), fingerprinting (cached-combine vs the former whole-state
//! traversal), inserting canonical encodings into the visited store, and
//! the encode→decode roundtrip. The element counts are reachable states
//! of the auto-closed `switchgen --lines 2` application, gathered by a
//! breadth-first sweep, so every operation runs over realistic (not
//! synthetic) state shapes. Writes `BENCH_state_ops.json` (see
//! `harness::Criterion::emit_json`); `ci.sh` checks the file's schema.

use reclose_bench::close;
use reclose_bench::harness::{BenchmarkId, Criterion, Throughput};
use reclose_bench::{criterion_group, criterion_main};
use std::collections::HashSet;
use std::hint::black_box;
use switchsim::SwitchConfig;
use verisoft::search::store::Store;
use verisoft::state::{decode_state, encode_state};
use verisoft::{ComponentInterner, Config, ExecCtx, Executor, GlobalState, Scheduled, SuccOutcome};

/// How many distinct reachable states to collect for the sweep.
const SAMPLE: usize = 2_000;

fn switch_lines2() -> cfgir::CfgProgram {
    let cfg = SwitchConfig {
        lines: 2,
        events_per_line: 1,
        ..SwitchConfig::default()
    };
    let open = cfgir::compile(&switchsim::generate(&cfg)).unwrap();
    close(&open).program
}

/// Breadth-first sweep collecting up to [`SAMPLE`] distinct reachable
/// states (deduplicated by canonical encoding).
fn reachable_states(exec: &Executor<'_>) -> Vec<GlobalState> {
    let mut cx = ExecCtx::new(exec, usize::MAX);
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut states = vec![exec.initial()];
    seen.insert(encode_state(&states[0]));
    let mut i = 0;
    while i < states.len() && states.len() < SAMPLE {
        let state = states[i].clone();
        i += 1;
        let pids = match exec.schedule(&state) {
            Scheduled::Init(pid) => vec![pid],
            Scheduled::Procs(procs) => procs,
            Scheduled::DeadEnd { .. } => continue,
        };
        for pid in pids {
            for (_, outcome) in exec.successors(&mut cx, &state, pid) {
                if let SuccOutcome::State(s, _) = outcome {
                    if seen.insert(encode_state(&s)) {
                        states.push(*s);
                    }
                }
                if states.len() >= SAMPLE {
                    return states;
                }
            }
        }
    }
    states
}

fn bench(c: &mut Criterion) {
    let prog = switch_lines2();
    let config = Config::default();
    let exec = Executor::new(&prog, &config);
    let states = reachable_states(&exec);
    let encs: Vec<(u64, Vec<u8>)> = states
        .iter()
        .map(|s| (s.fingerprint(), encode_state(s)))
        .collect();
    let bytes: usize = encs.iter().map(|(_, e)| e.len()).sum();
    println!(
        "workload: switchgen --lines 2 (auto-closed), {} reachable states, \
         {:.1} bytes/state encoded",
        states.len(),
        bytes as f64 / states.len() as f64
    );

    let n = states.len() as u64;
    let mut g = c.benchmark_group("state_ops");
    g.throughput(Throughput::Elements(n));

    // Per-successor cost of the CoW representation: clone the snapshot
    // and mutate one component through the make_mut funnel (copying
    // exactly that component).
    g.bench_with_input(BenchmarkId::new("clone_successor", n), &states, |b, ss| {
        b.iter(|| {
            for s in ss {
                let mut succ = s.clone();
                black_box(succ.proc_mut(0));
                black_box(&succ);
            }
        })
    });

    // Fingerprint via memoized sub-hashes (after the first pass every
    // unchanged component contributes one cached 64-bit word).
    g.bench_with_input(BenchmarkId::new("fingerprint", n), &states, |b, ss| {
        b.iter(|| ss.iter().fold(0u64, |acc, s| acc ^ s.fingerprint()))
    });

    // Fused fingerprint + collapse-style tuple production: after the
    // first pass every unchanged component contributes one memoized
    // (sub-hash, id, len) triple, so the tuple is a few u32 writes on
    // top of the cached-combine fingerprint.
    let interner = ComponentInterner::new();
    g.bench_with_input(
        BenchmarkId::new("fingerprint_and_intern", n),
        &states,
        |b, ss| {
            b.iter(|| {
                ss.iter()
                    .fold(0u64, |acc, s| acc ^ s.fingerprint_and_intern(&interner).0)
            })
        },
    );

    // Visited-store insertion of canonical encodings, one `insert` per
    // state.
    g.bench_with_input(BenchmarkId::new("visited_insert", n), &encs, |b, encs| {
        b.iter(|| {
            let mut store = Store::new(usize::MAX, None);
            for (h, e) in encs {
                store.insert(*h, e, 1);
            }
            black_box(store.len())
        })
    });

    // The same insertions through the commit pass the frontier engine
    // issues per chunk: one `commit` in commit order, flags returned.
    g.bench_with_input(
        BenchmarkId::new("visited_insert_batch", n),
        &encs,
        |b, encs| {
            b.iter(|| {
                let mut store = Store::new(usize::MAX, None);
                let items: Vec<(u64, &[u8])> =
                    encs.iter().map(|(h, e)| (*h, e.as_slice())).collect();
                black_box(store.commit(&items, 1).unwrap());
                black_box(store.len())
            })
        },
    );

    // Canonical encode→decode roundtrip (decode doubles as the
    // eager-clone oracle used by the tests).
    g.bench_with_input(BenchmarkId::new("encode_roundtrip", n), &states, |b, ss| {
        b.iter(|| {
            for s in ss {
                let e = encode_state(s);
                black_box(decode_state(&e).expect("canonical encodings decode"));
            }
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(3)
        .emit_json("state_ops");
    targets = bench
}
criterion_main!(benches);
