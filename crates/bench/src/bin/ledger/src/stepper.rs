//! The searches re-stated in the benchmark, over `verisoft::Executor`'s
//! public API, so that each call into a layer can carry a span. This
//! change may not add timers inside the product; until it grows its own
//! (ROADMAP item 2), this is where the per-layer exploration numbers come
//! from.
//!
//! [`frontier`] is the level-synchronous BFS of
//! `verisoft::search::stateful::frontier_search` on one thread: per
//! frontier state `schedule_por` → `successors` per scheduled process →
//! `ExecCtx::state_key_into` per successor → the ignoring-proviso probe,
//! then per level `TieredStore::insert_batch` / `seal_batch` and
//! `end_of_level`. It applies both documented fallbacks to full
//! expansion (a reduced successor already sealed in an earlier level, or
//! a violating outcome). [`stateless`] is VeriSoft's DFS over
//! `Executor::expand_children`.
//!
//! The proof that a stepper does the engine's work is that it
//! reproduces `explore`'s `states` and `transitions` exactly; callers
//! check that on every run. What it leaves out is the engine's *driver*:
//! discovery ranks across chunks, the `Trace` cons-lists behind
//! reproducing schedules, the frontier spool, checkpoints, segment
//! compaction and worker threads. Their cost is
//! `verisoft.search.driver_residual_s`.

use crate::span::{Layer, Tracer};
use std::collections::BTreeSet;
use std::sync::Arc;
use verisoft::executor::NodeExpansion;
use verisoft::search::store::{rank, SpillDir};
use verisoft::{
    ComponentInterner, ExecCtx, Executor, GlobalState, Scheduled, StateStore, SuccOutcome,
    TieredStore, ViolationKind,
};

/// What a stepper counted. The first block must equal the engine's
/// `Report`; the rest is measured where the work happens.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stepped {
    pub states: usize,
    pub transitions: usize,
    pub max_depth: usize,
    pub truncated: bool,
    pub violations: Vec<ViolationKind>,

    /// `schedule_por` calls, the processes it scheduled, and the enabled
    /// processes it chose among (scheduled + skipped).
    pub por_calls: usize,
    pub por_scheduled: usize,
    pub por_enabled: usize,
    /// Successor states keyed and offered to the store.
    pub keys: usize,
    /// Largest frontier level, in states.
    pub frontier_peak: usize,
}

/// One successor produced while expanding a level.
struct Child {
    /// A successor state, or the violation the transition ended in.
    outcome: Result<Box<GlobalState>, ViolationKind>,
    fingerprint: u64,
    /// Span of the key's encoding in the level's arena (empty for a
    /// violation).
    enc: (usize, usize),
}

/// The successors of one frontier level, with their store keys
/// flattened into one byte arena.
#[derive(Default)]
struct Level {
    arena: Vec<u8>,
    children: Vec<Child>,
}

impl Level {
    fn key(&self, c: &Child) -> &[u8] {
        &self.arena[c.enc.0..c.enc.1]
    }
}

/// One expanded frontier state, committed in frontier order.
struct Expanded {
    transitions: usize,
    truncated: bool,
    deadlock: bool,
    /// Range into the level's `children`.
    children: (usize, usize),
}

/// The frontier engine, stepped. `spill` is the directory sealed states
/// drain to when `exec.config().mem_limit` is finite.
pub fn frontier(exec: &Executor<'_>, spill: Option<Arc<SpillDir>>, tr: &mut Tracer) -> Stepped {
    let cfg = exec.config();
    let mut out = Stepped::default();
    tr.set_level(0);
    tr.enter(Layer::Stepper);

    // What the engine builds before its first level: the run's component
    // interner, the tiered store (half of a finite budget is its share)
    // and the sealed initial state.
    tr.enter(Layer::StoreSetup);
    let interner = (!cfg.no_compress).then(|| Arc::new(ComponentInterner::new()));
    let store_budget = if cfg.mem_limit == usize::MAX {
        usize::MAX
    } else {
        (cfg.mem_limit / 2).max(1)
    };
    let store = TieredStore::new_with(store_budget, spill, interner.is_some());
    let init = exec.initial();
    let mut key_cx = ExecCtx::with_coverage(0, None);
    key_cx.interner = interner.clone();
    let (h0, enc0) = key_cx.state_key(&init);
    store.admit(h0, &enc0, rank(0, 0));
    store.seal(h0, &enc0, 0);
    tr.exit(Layer::StoreSetup);
    out.states = 1;
    let mut frontier: Vec<(GlobalState, usize)> = Vec::new();
    if cfg.max_depth == 0 {
        out.truncated = true;
    } else {
        frontier.push((init, 0));
    }

    let mut level = 0usize;
    let mut stop = false;
    while !frontier.is_empty() && !stop {
        let remaining = cfg.max_transitions.saturating_sub(out.transitions);
        if remaining == 0 {
            out.truncated = true;
            break;
        }
        tr.set_level(level);
        out.frontier_peak = out.frontier_peak.max(frontier.len());
        let epoch = (level + 1) as u32;

        // Expansion: every item of the level, no store writes.
        let mut buf = Level::default();
        let mut expanded: Vec<Expanded> = Vec::with_capacity(frontier.len());
        for (state, _) in &frontier {
            // The per-item budget is the level-start remainder, as in the
            // engine, so an item's expansion never depends on its siblings.
            let mut cx = ExecCtx::with_coverage(remaining, None);
            cx.interner = interner.clone();
            let first = buf.children.len();
            let deadlock = expand_stateful(
                exec,
                &mut cx,
                state,
                (&store, epoch),
                &mut buf,
                &mut out,
                tr,
            );
            expanded.push(Expanded {
                transitions: cx.transitions,
                truncated: cx.truncated,
                deadlock,
                children: (first, buf.children.len()),
            });
        }

        // Admission and winner flags for the whole level: two batched
        // store calls, ranks `(frontier index, successor index)`.
        let mut admits: Vec<(u64, u64, &[u8])> = Vec::with_capacity(buf.children.len());
        for (i, e) in expanded.iter().enumerate() {
            for (j, c) in buf.children[e.children.0..e.children.1].iter().enumerate() {
                if c.outcome.is_ok() {
                    admits.push((c.fingerprint, rank(i, j), buf.key(c)));
                }
            }
        }
        // `insert_batch` drops disk-resident states from its argument;
        // the seal probes are the full list.
        let probes = admits.clone();
        tr.span(Layer::StoreInsert, || store.insert_batch(&mut admits));
        let flags = tr.span(Layer::StoreSeal, || store.seal_batch(&probes, epoch));
        drop((admits, probes));

        // Ordered commit: winners join the next level; the rest are kept
        // aside so that freeing them is timed as state work, not as the
        // stepper's own.
        let mut next: Vec<(GlobalState, usize)> = Vec::new();
        let mut losers: Vec<Box<GlobalState>> = Vec::new();
        let mut flag = flags.into_iter();
        let mut all = buf.children.into_iter();
        for (e, (_, depth)) in expanded.iter().zip(&frontier) {
            if stop {
                break;
            }
            out.transitions += e.transitions;
            out.truncated |= e.truncated;
            if e.deadlock {
                out.violations.push(ViolationKind::Deadlock);
                stop |= out.violations.len() >= cfg.max_violations;
            }
            for c in all.by_ref().take(e.children.1 - e.children.0) {
                match c.outcome {
                    Ok(s) => {
                        // Consumed even past a stop cut, so flags stay
                        // aligned with the state children.
                        let won = flag.next().expect("one flag per state child");
                        if won && !stop {
                            out.states += 1;
                            out.max_depth = out.max_depth.max(depth + 1);
                            if depth + 1 >= cfg.max_depth {
                                out.truncated = true;
                            } else {
                                next.push((*s, depth + 1));
                                continue;
                            }
                        }
                        losers.push(s);
                    }
                    Err(kind) => {
                        if !stop {
                            out.violations.push(kind);
                            stop |= out.violations.len() >= cfg.max_violations;
                        }
                    }
                }
            }
        }
        let expanded_level = std::mem::replace(&mut frontier, next);
        tr.span(Layer::StateDrop, || drop((expanded_level, losers)));
        level += 1;
        tr.span(Layer::StoreSpill, || {
            store.end_of_level().expect("spill visited store")
        });
    }
    tr.exit(Layer::Stepper);
    tr.set_level(0);
    out
}

/// One process's transitions from `state`, keyed and appended to `buf`.
fn expand_proc(
    exec: &Executor<'_>,
    cx: &mut ExecCtx,
    state: &GlobalState,
    pid: usize,
    buf: &mut Level,
    out: &mut Stepped,
    tr: &mut Tracer,
) {
    let succs = tr.span(Layer::Interp, || exec.successors(cx, state, pid));
    for (_choices, outcome) in succs {
        let start = buf.arena.len();
        let (outcome, fingerprint) = match outcome {
            SuccOutcome::State(s, _) => {
                out.keys += 1;
                let fp = tr.span(Layer::StateKey, || cx.state_key_into(&s, &mut buf.arena));
                (Ok(s), fp)
            }
            SuccOutcome::Violation(kind, _) => (Err(kind), 0),
        };
        buf.children.push(Child {
            outcome,
            fingerprint,
            enc: (start, buf.arena.len()),
        });
    }
}

/// `Executor::expand_stateful`, one public call at a time. Appends the
/// state's children to `buf` and returns whether the state is a
/// deadlocked dead end. `sealed` is the store and the epoch bound of the
/// ignoring-proviso probe.
fn expand_stateful(
    exec: &Executor<'_>,
    cx: &mut ExecCtx,
    state: &GlobalState,
    sealed: (&TieredStore, u32),
    buf: &mut Level,
    out: &mut Stepped,
    tr: &mut Tracer,
) -> bool {
    let first = buf.children.len();
    let (sched, skipped) = tr.span(Layer::Por, || exec.schedule_por(state));
    out.por_calls += 1;
    match sched {
        Scheduled::DeadEnd { deadlock } => return deadlock,
        Scheduled::Init(pid) => expand_proc(exec, cx, state, pid, buf, out, tr),
        Scheduled::Procs(procs) => {
            out.por_scheduled += procs.len();
            out.por_enabled += procs.len() + skipped.len();
            for &t in &procs {
                if cx.truncated {
                    break;
                }
                expand_proc(exec, cx, state, t, buf, out, tr);
            }
            if !skipped.is_empty() && !cx.truncated {
                // Fallback (1): a violating outcome cuts its path, which
                // voids the persistent-set argument. Fallback (2), the
                // ignoring proviso: a reduced successor sealed in an
                // earlier level may close a cycle.
                let reduced = &buf.children[first..];
                let cuts_path = reduced.iter().any(|c| c.outcome.is_err());
                let closes_cycle = || {
                    let (store, epoch) = sealed;
                    reduced.iter().any(|c| {
                        c.outcome.is_ok()
                            && store.contains_sealed_before(c.fingerprint, buf.key(c), epoch)
                    })
                };
                if cuts_path || tr.span(Layer::StoreProbe, closes_cycle) {
                    for &t in &skipped {
                        if cx.truncated {
                            break;
                        }
                        expand_proc(exec, cx, state, t, buf, out, tr);
                    }
                }
            }
        }
    }
    false
}

/// VeriSoft's stateless search, stepped: a depth-first walk over
/// `Executor::expand_children` with the sleep sets it hands each child.
/// One fused span per expansion — scheduling, interpretation and sleep-set
/// bookkeeping are not separable through this call.
pub fn stateless(exec: &Executor<'_>, tr: &mut Tracer) -> Stepped {
    let cfg = exec.config();
    let mut out = Stepped::default();
    tr.set_level(0);
    tr.enter(Layer::Stepper);
    let mut cx = ExecCtx::new(exec, cfg.max_transitions);
    let mut stack: Vec<(GlobalState, usize, BTreeSet<usize>)> =
        vec![(exec.initial(), 0, BTreeSet::new())];
    while let Some((state, depth, sleep)) = stack.pop() {
        out.states += 1;
        out.max_depth = out.max_depth.max(depth);
        if depth >= cfg.max_depth {
            out.truncated = true;
            continue;
        }
        let expansion = tr.span(Layer::ExecutorExpand, || {
            exec.expand_children(&mut cx, &state, Some(&sleep))
        });
        match expansion {
            NodeExpansion::DeadEnd { deadlock } => {
                if deadlock {
                    out.violations.push(ViolationKind::Deadlock);
                }
            }
            NodeExpansion::Children(cs) => {
                // Reversed, so the first child is walked first.
                for c in cs.into_iter().rev() {
                    match c.outcome {
                        SuccOutcome::State(s, _) => stack.push((*s, depth + 1, c.sleep)),
                        SuccOutcome::Violation(kind, _) => out.violations.push(kind),
                    }
                }
            }
        }
        if cx.truncated || out.violations.len() >= cfg.max_violations {
            break;
        }
    }
    out.transitions = cx.transitions;
    out.truncated |= cx.truncated;
    tr.exit(Layer::Stepper);
    out
}

/// `Executor::new` (validation and the static POR footprint analysis)
/// plus the initial state: the fixed cost every `explore` pays before its
/// first transition.
pub fn executor<'a>(
    prog: &'a cfgir::CfgProgram,
    cfg: &verisoft::Config,
    tr: &mut Tracer,
) -> Executor<'a> {
    tr.span(Layer::ExecutorSetup, || {
        let exec = Executor::new(prog, cfg);
        std::hint::black_box(exec.initial());
        exec
    })
}

/// A spill directory the caller owns (and removes).
pub fn spill_dir(path: &std::path::Path) -> Arc<SpillDir> {
    SpillDir::at(path).expect("create spill directory")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive;

    /// Stepper and engine on one closed program, spans on.
    fn agree(src: &str, cfg: &verisoft::Config) {
        let closed = drive::close(src, false).expect("valid input").closed;
        let report = drive::explore(&closed, cfg);
        let mut tr = Tracer::new(true, "test");
        let exec = executor(&closed, cfg, &mut tr);
        let stepped = match cfg.engine {
            verisoft::Engine::Stateless => stateless(&exec, &mut tr),
            _ => frontier(&exec, None, &mut tr),
        };
        assert_eq!(
            (stepped.states, stepped.transitions, stepped.max_depth),
            (report.states, report.transitions, report.max_depth_seen),
            "por={} engine={:?}",
            cfg.por,
            cfg.engine
        );
        assert_eq!(stepped.truncated, report.truncated);
        let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind.clone()).collect();
        assert_eq!(
            drive::Verdict::new(&stepped.violations, stepped.truncated),
            drive::Verdict::new(&kinds, report.truncated)
        );
        assert!(tr.calls(Layer::ExecutorSetup) == 1 && tr.calls(Layer::Stepper) == 1);
    }

    fn switch2x1() -> String {
        drive::gen_switch(&drive::SwitchConfig {
            lines: 2,
            events_per_line: 1,
            ..drive::SwitchConfig::default()
        })
    }

    #[test]
    fn frontier_stepper_matches_explore_with_por_on_and_off() {
        let src = switch2x1();
        let mut cfg = drive::frontier_config(1, 400, 5_000_000);
        agree(&src, &cfg);
        cfg.por = false;
        agree(&src, &cfg);
    }

    #[test]
    fn frontier_stepper_applies_the_cycle_proviso() {
        // `ring.mc` has a cyclic state space: without the proviso
        // fallback the reduced search ignores a process and the counts
        // come out smaller than the engine's.
        let src = include_str!("../inputs/ring.mc");
        let cfg = drive::frontier_config(1, 2_000, 5_000_000);
        agree(src, &cfg);
        let closed = drive::close(src, false).unwrap().closed;
        let report = drive::explore(&closed, &cfg);
        assert!(
            report.por_proviso_fallbacks > 0,
            "input no longer exercises the proviso"
        );
    }

    #[test]
    fn frontier_stepper_matches_under_a_memory_budget() {
        let dir = std::env::temp_dir().join(format!("ledger-stepper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let closed = drive::close(&switch2x1(), false).unwrap().closed;
        let mut cfg = drive::out_of_core(drive::frontier_config(1, 400, 5_000_000), &dir.join("e"));
        // The workload's 1 MiB would hold this small state space.
        cfg.mem_limit = 4096;
        let report = drive::explore(&closed, &cfg);
        assert!(report.store_spilled_entries > 0, "budget never spilled");
        let mut tr = Tracer::off();
        let exec = executor(&closed, &cfg, &mut tr);
        let stepped = frontier(&exec, Some(spill_dir(&dir.join("s"))), &mut tr);
        assert_eq!(
            (stepped.states, stepped.transitions),
            (report.states, report.transitions)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stateless_stepper_matches_explore() {
        agree(&switch2x1(), &drive::stateless_config(50_000_000));
    }

    #[test]
    fn steppers_stop_at_the_transition_budget_like_the_engine() {
        let src = switch2x1();
        agree(&src, &drive::frontier_config(1, 400, 500));
    }
}
