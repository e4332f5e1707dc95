//! The frontier engine's heap footprint per explored state.
//!
//! A frontier entry is the state's store key — a few dozen bytes — and a
//! `GlobalState` exists only while a worker expands it (DESIGN §14). When
//! every entry, and every child of the level being committed, held a live
//! state (a vector of shared components per state, plus whatever each
//! transition copied), the same exploration needed a fifth more live heap
//! and half as much again in resident memory (EXPERIMENTS E16). This test
//! pins the first figure so that representation cannot come back
//! unnoticed: it counts the bytes live in the allocator, which — unlike
//! peak RSS — repeat to within a byte per state at one worker or two.

use reclose::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(now, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from `alloc`/`realloc` above with this layout.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap of `explore`, over what was live when it started, per
/// state it reports.
fn peak_bytes_per_state(prog: &CfgProgram, jobs: usize) -> (usize, Report) {
    let config = Config {
        engine: Engine::StatefulParallel,
        jobs,
        max_violations: usize::MAX,
        ..Config::default()
    };
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = explore(prog, &config);
    let peak = PEAK.load(Relaxed).saturating_sub(before);
    (peak / report.states, report)
}

/// One test function: the allocator's counters are process-wide, and
/// tests of one file run on parallel threads.
#[test]
fn frontier_heap_per_state_stays_under_the_pinned_ceiling() {
    let src = switchsim::generate(&switchsim::SwitchConfig {
        lines: 2,
        events_per_line: 2,
        ..switchsim::SwitchConfig::default()
    });
    let closed = close_source(&src).expect("the generated switch closes");
    // Measured 220–221 B/state at either worker count, run after run; the
    // same exploration with live states in the frontier and in the
    // expansion records (the parent of the change that added this test)
    // took 262. Most of either figure is the visited store and the
    // reproducing paths, which every state pays for and this test does
    // not separate out. The ceiling is the measurement plus 15 %.
    const CEILING: usize = 254;
    for jobs in [1, 2] {
        let (per_state, report) = peak_bytes_per_state(&closed.program, jobs);
        assert!(report.clean() && !report.truncated, "jobs={jobs}: {report}");
        assert_eq!(
            report.states, 134_506,
            "jobs={jobs}: the pinned input changed"
        );
        assert!(
            per_state <= CEILING,
            "jobs={jobs}: {per_state} B of peak heap per state, ceiling {CEILING} — \
             is the frontier holding live states again?"
        );
        eprintln!("frontier footprint, jobs={jobs}: {per_state} B/state");
    }
}
