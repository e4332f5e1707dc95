//! Differential oracle for the batched commit path: the frontier
//! engine's default path (batched store admission, batched winner seals)
//! must produce reports byte-identical to the scalar reference path
//! ([`Config::scalar_commit`]) for every worker count, memory budget,
//! and compression mode — the batched path is an optimization of the
//! commit *mechanics*, never of the result. The models run through the
//! `BATCH` slice of `switchsim::oracle`.

use reclose::prelude::*;
use switchsim::oracle::{assert_agrees, OracleLimits, BATCH};

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

#[test]
fn batched_commit_path_matches_the_scalar_reference() {
    let models = [
        ("workers", include_str!("../corpus/workers.mc"), usize::MAX),
        ("racy", RACY_SRC, usize::MAX),
        // First violation only: under the small budget the stop cut
        // falls inside a multi-chunk level, and the chunks after it must
        // leave no trace in either path's store.
        ("racy-first", RACY_SRC, 1),
        ("deadlock", DEADLOCK_SRC, usize::MAX),
    ];
    for (name, src, max_violations) in models {
        let limits = OracleLimits {
            max_depth: 2_000,
            max_transitions: 5_000_000,
            max_violations,
            ..OracleLimits::default()
        };
        let runs = assert_agrees(name, &compile(src).unwrap(), None, &limits, BATCH);
        // A budget this small cuts levels into several chunks, so the
        // chunked commit is what was diffed.
        for (leg, r) in &runs.legs {
            if name == "racy" && leg.contains("spill") {
                let (chunks, levels) = (r.pipeline_chunks, r.max_depth_seen + 1);
                assert!(
                    chunks > levels,
                    "{name}: {leg}: {chunks} chunk(s), {levels} level(s)"
                );
            }
        }
        assert_eq!(runs.get("frontier").unwrap().clean(), name == "workers");
    }
}
