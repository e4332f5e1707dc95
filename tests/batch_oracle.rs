//! Differential oracle for the batched commit path: the frontier
//! engine's default path (batched store admission, batched winner seals)
//! must produce reports byte-identical to the scalar reference path
//! ([`Config::scalar_commit`]) for every worker count, memory budget,
//! and compression mode — the batched path is an optimization of the
//! commit *mechanics*, never of the result.

use reclose::prelude::*;

fn workers_src() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus/workers.mc"))
        .expect("corpus/workers.mc")
}

/// Two processes cycling values through a *shared* channel, so an
/// unlucky interleaving hands `a` one of `b`'s values and trips the
/// assertion — exercises the violation path and the `--all` accumulation
/// through the batched commit.
const RACY_SRC: &str = r#"
    chan q[2];
    proc a() {
        int i = 0;
        while (i < 4) {
            send(q, i);
            int x = recv(q);
            VS_assert(x < 4);
            i = i + 1;
        }
    }
    proc b() {
        int j = 0;
        while (j < 3) {
            send(q, 7);
            int y = recv(q);
            j = j + 1;
        }
    }
    process a();
    process b();
"#;

/// A two-process cyclic wait: both block on their first receive, so the
/// very first level dead-ends — exercises the deadlock branch and the
/// max-violations stop cut mid-chunk.
const DEADLOCK_SRC: &str = r#"
    chan c1[1];
    chan c2[1];
    proc p() {
        int x = recv(c1);
        send(c2, x);
    }
    proc r() {
        int y = recv(c2);
        send(c1, y);
    }
    process p();
    process r();
"#;

/// The deterministic surface of a report: everything except the
/// operational counters (batch sizes, peak bytes),
/// which legitimately differ between the scalar and batched mechanics.
fn surface(r: &Report) -> (String, usize, usize, usize, usize, usize, usize) {
    (
        r.to_string(),
        r.visited_bytes,
        r.visited_states,
        r.shared_components,
        r.total_components,
        r.por_skipped_procs,
        r.por_proviso_fallbacks,
    )
}

#[test]
fn batched_commit_path_matches_the_scalar_reference() {
    let models = [
        ("workers", workers_src(), false),
        ("racy", RACY_SRC.to_string(), true),
        // First violation only: under the small budget the stop cut
        // falls inside a multi-chunk level, and the chunks after it must
        // leave no trace in either path's store.
        ("racy-first", RACY_SRC.to_string(), false),
        ("deadlock", DEADLOCK_SRC.to_string(), true),
    ];
    for (name, src, all) in &models {
        let prog = compile(src).unwrap();
        for jobs in [1usize, 2, 8] {
            for mem_limit in [usize::MAX, 256] {
                for no_compress in [false, true] {
                    let base = Config {
                        engine: Engine::StatefulParallel,
                        jobs,
                        mem_limit,
                        no_compress,
                        max_violations: if *all { usize::MAX } else { 1 },
                        ..Config::default()
                    };
                    let scalar = explore(
                        &prog,
                        &Config {
                            scalar_commit: true,
                            ..base.clone()
                        },
                    );
                    let batched = explore(&prog, &base);
                    assert_eq!(
                        surface(&scalar),
                        surface(&batched),
                        "{name} jobs={jobs} mem_limit={mem_limit} no_compress={no_compress}"
                    );
                    // The batched run actually took the batched path.
                    assert!(batched.store_batch_ops > 0, "{name}: no batches issued");
                    // A budget this small cuts levels into several
                    // chunks, so the chunked commit is what was diffed.
                    if *name == "racy" && mem_limit == 256 {
                        assert!(
                            batched.pipeline_chunks > batched.max_depth_seen + 1,
                            "racy: {} chunk(s) over {} level(s)",
                            batched.pipeline_chunks,
                            batched.max_depth_seen + 1
                        );
                    }
                    for r in [&scalar, &batched] {
                        assert_eq!(r.pipeline_overlapped_chunks, 0, "{name}");
                    }
                }
            }
        }
    }
    let racy = explore(
        &compile(RACY_SRC).unwrap(),
        &Config {
            engine: Engine::StatefulParallel,
            max_violations: usize::MAX,
            ..Config::default()
        },
    );
    assert!(!racy.clean(), "the racy model really violates");
}
