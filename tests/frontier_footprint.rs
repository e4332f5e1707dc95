//! The stateful engines' heap footprint per explored state.
//!
//! A frontier entry is the state's store key — a few dozen bytes — and a
//! `GlobalState` exists only while a worker expands it (DESIGN §14). When
//! every entry, and every child of the level being committed, held a live
//! state (a vector of shared components per state, plus whatever each
//! transition copied), the same exploration needed a fifth more live heap
//! and half as much again in resident memory (EXPERIMENTS E16). A stored
//! state is its key's bytes in a byte arena plus one table slot, in the
//! frontier's visited store and in the depth-first search's visited set
//! alike; a `Vec` bucket and a boxed key per state took twice the heap
//! (EXPERIMENTS E26). This test pins both figures so that neither
//! representation can come back unnoticed: it counts the bytes live in
//! the allocator, which — unlike peak RSS — repeat to within a byte per
//! state at one worker or two.

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
fn peak_bytes_per_state(prog: &CfgProgram, engine: Engine, jobs: usize) -> (usize, Report) {
    let config = Config {
        engine,
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
    // Each figure is the whole run's peak heap over its states: the
    // visited store (each state's key bytes in a partition's arena plus one
    // table slot), the frontier or stack of keys, the reproducing paths,
    // and the interner and transition memo. Measured 103 B/state for the
    // frontier at one worker and 105–106 at two, and 62 for the
    // depth-first search (which explores 2.7 times as many states). The
    // frontier's paths are a log of a few bytes per queued state; an
    // `Arc` node of 64 B per queued state, live while a descendant was,
    // read the same here, and a path log grown by doubling read 106.
    // While tier 0 kept a discovery rank beside each seal epoch (a
    // 32-byte table entry where it is 24 now) the frontier took 112–114;
    // with a bucket map — a `Vec` bucket and a boxed key per state — the
    // same runs took 220–222 and 130; with live states in the frontier and
    // in the expansion records, the frontier took 262. Each ceiling is
    // the measurement plus 15 %.
    let legs = [
        (Engine::StatefulParallel, 1, 134_506, 113),
        (Engine::StatefulParallel, 2, 134_506, 113),
        (Engine::Stateful, 1, 365_415, 70),
    ];
    for (engine, jobs, states, ceiling) in legs {
        let (per_state, report) = peak_bytes_per_state(&closed.program, engine, jobs);
        assert!(
            report.clean() && !report.truncated,
            "{engine:?} jobs={jobs}: {report}"
        );
        assert_eq!(
            report.states, states,
            "{engine:?} jobs={jobs}: the pinned input changed"
        );
        assert!(
            per_state <= ceiling,
            "{engine:?} jobs={jobs}: {per_state} B of peak heap per state, ceiling \
             {ceiling} — is the visited store allocating per state, or the frontier \
             holding live states again?"
        );
        eprintln!("heap footprint, {engine:?} jobs={jobs}: {per_state} B/state");
    }
}
