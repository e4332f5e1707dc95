//! Micro-benchmark of the tiered visited store behind the out-of-core
//! frontier engines: inserting sealed states into the in-memory tier,
//! membership probes against both tiers (an on-disk hit pays one
//! positional read to confirm the encoding; a miss stays an O(1) index
//! lookup), and the sealed-drain → log-append spill cycle. The
//! element set is reachable states of the auto-closed
//! `switchgen --lines 2` application, as in `state_ops`. Writes
//! `BENCH_visited_store.json`; `ci.sh` checks the file's schema.

use reclose_bench::close;
use reclose_bench::harness::{BenchmarkId, Criterion, Throughput};
use reclose_bench::{criterion_group, criterion_main};
use std::collections::HashSet;
use std::hint::black_box;
use switchsim::SwitchConfig;
use verisoft::search::store::{SpillDir, Store};
use verisoft::state::encode_state;
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

/// A store with every encoding sealed (epoch 1), either unbounded in
/// memory or fully spilled to the tier-1 log.
fn sealed_store(encs: &[(u64, Vec<u8>)], spill: bool) -> Store {
    let dir = spill.then(|| SpillDir::temp().expect("temp spill dir"));
    let mut store = Store::new(if spill { 0 } else { usize::MAX }, dir);
    for (h, e) in encs {
        store.insert(*h, e, 1);
    }
    if spill {
        store.end_of_level().expect("spill to the log");
        assert_eq!(store.spill_count(), 1);
    }
    store
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
    // Present/absent halves for hit/miss probes.
    let (present, absent) = encs.split_at(encs.len() / 2);
    let bytes: usize = encs.iter().map(|(_, e)| e.len()).sum();
    println!(
        "workload: switchgen --lines 2 (auto-closed), {} reachable states, \
         {:.1} bytes/state encoded",
        states.len(),
        bytes as f64 / states.len() as f64
    );

    let n = encs.len() as u64;
    let mut g = c.benchmark_group("visited_store");
    g.throughput(Throughput::Elements(n));

    // Sealed insertion into the memory tier, one call per state.
    g.bench_with_input(BenchmarkId::new("insert", n), &encs, |b, encs| {
        b.iter(|| {
            let mut store = Store::new(usize::MAX, None);
            for (h, e) in encs {
                store.insert(*h, e, 1);
            }
            black_box(store.len())
        })
    });

    // The frontier's write path: the one `commit` it issues per chunk,
    // in commit order, flags returned.
    g.bench_with_input(BenchmarkId::new("insert_batch", n), &encs, |b, encs| {
        b.iter(|| {
            let mut store = Store::new(usize::MAX, None);
            let items: Vec<(u64, &[u8])> = encs.iter().map(|(h, e)| (*h, e.as_slice())).collect();
            black_box(store.commit(&items, 1).unwrap());
            black_box(store.len())
        })
    });

    // The POR-proviso probe against memory-resident sealed states.
    let mem = sealed_store(&encs, false);
    g.bench_with_input(BenchmarkId::new("probe_hit_mem", n), &encs, |b, encs| {
        b.iter(|| {
            encs.iter()
                .filter(|(h, e)| mem.contains_sealed_before(*h, e, 2))
                .count()
        })
    });

    // The same probe when every sealed state lives on disk: the index
    // nominates in memory, one positional read confirms the bytes.
    let spilled = sealed_store(&encs, true);
    g.bench_with_input(BenchmarkId::new("probe_hit_disk", n), &encs, |b, encs| {
        b.iter(|| {
            encs.iter()
                .filter(|(h, e)| spilled.contains_sealed_before(*h, e, 2))
                .count()
        })
    });

    // The same probe over collapse-compressed tuples: the positional
    // confirm reads and memcmps the compact component-ID tuple
    // instead of the full canonical encoding.
    let interner = ComponentInterner::new();
    let cencs: Vec<(u64, Vec<u8>)> = states
        .iter()
        .map(|s| s.fingerprint_and_intern(&interner))
        .collect();
    let spilled_compressed = {
        let dir = SpillDir::temp().expect("temp spill dir");
        let mut store = Store::new_with(0, Some(dir), true);
        for (h, e) in &cencs {
            store.insert(*h, e, 1);
        }
        store.end_of_level().expect("spill to the log");
        store
    };
    g.bench_with_input(
        BenchmarkId::new("probe_hit_disk_compressed", n),
        &cencs,
        |b, cencs| {
            b.iter(|| {
                cencs
                    .iter()
                    .filter(|(h, e)| spilled_compressed.contains_sealed_before(*h, e, 2))
                    .count()
            })
        },
    );

    // Misses against the spilled store never touch disk: the
    // fingerprint index answers in memory.
    let half = sealed_store(present, true);
    g.throughput(Throughput::Elements(absent.len() as u64));
    g.bench_with_input(BenchmarkId::new("probe_miss", n), &absent, |b, absent| {
        b.iter(|| {
            absent
                .iter()
                .filter(|(h, e)| half.contains_sealed_before(*h, e, 2))
                .count()
        })
    });

    // The full spill cycle: seal everything, then drain tier 0 into
    // the synced log and index it.
    g.throughput(Throughput::Elements(n));
    g.bench_with_input(BenchmarkId::new("spill", n), &encs, |b, encs| {
        b.iter(|| {
            let store = sealed_store(encs, true);
            black_box(store.spilled_entries())
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(3)
        .emit_json("visited_store");
    targets = bench
}
criterion_main!(benches);
