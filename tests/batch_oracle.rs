//! The frontier engine's commit, pinned: each model's report must be
//! byte-identical for every worker count, memory budget, and
//! compression mode (the `BATCH` slice of `switchsim::oracle`), and the
//! one at the slice's baseline must hash to the digest pinned below.
//! The digests were taken from the rank-based commit this one replaced
//! (the minimum `(frontier index, successor index)` rank won), so which
//! occurrence of a state the commit lets win is checked against an
//! independent implementation, not against itself.

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

/// Per model: its `max_violations`, then the `frontier` leg's report —
/// its first line and the `stable_hash_bytes` of its whole `Display`
/// text.
const PINS: [(&str, &str, usize, &str, u64); 4] = [
    (
        "workers",
        include_str!("../corpus/workers.mc"),
        usize::MAX,
        "states: 31, transitions: 30, max depth: 30",
        0xf662_2ad5_26da_6c66,
    ),
    (
        "racy",
        RACY_SRC,
        usize::MAX,
        "states: 173, transitions: 292, max depth: 20",
        0x0192_e0e7_6e69_6151,
    ),
    // First violation only: under the small budget the stop cut falls
    // inside a multi-chunk level, and the chunks after it must leave no
    // trace in the report.
    (
        "racy-first",
        RACY_SRC,
        1,
        "states: 19, transitions: 22, max depth: 6",
        0x1a50_7f36_aaff_5a8d,
    ),
    (
        "deadlock",
        DEADLOCK_SRC,
        usize::MAX,
        "states: 3, transitions: 2, max depth: 2",
        0xf91f_0497_647f_65cd,
    ),
];

#[test]
fn batched_commit_path_matches_the_scalar_reference() {
    for (name, src, max_violations, first_line, digest) in PINS {
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
        let frontier = runs.get("frontier").unwrap();
        assert_eq!(frontier.clean(), name == "workers");
        let text = frontier.to_string();
        assert_eq!(text.lines().next(), Some(first_line), "{name}");
        assert_eq!(
            verisoft::stable_hash_bytes(text.as_bytes()),
            digest,
            "{name}: the frontier report moved:\n{text}"
        );
    }
}
