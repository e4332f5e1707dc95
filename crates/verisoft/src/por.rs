//! Partial-order reduction: persistent sets and sleep sets.
//!
//! VeriSoft's tractability rests on partial-order methods (\[God96\]; the
//! paper: "the key to make this approach tractable is to use a new search
//! algorithm built upon existing state-space pruning techniques known as
//! partial-order methods"). This module implements:
//!
//! - **persistent sets** via a static conflict closure: operations on the
//!   same communication object are dependent, operations on different
//!   objects are independent, and an operation's enabledness can only be
//!   changed by operations on the same object (§2's enabledness
//!   assumption). Starting from a seed process, the closure adds every
//!   process whose *future* operations (a static over-approximation: all
//!   objects its current call stack can ever touch) intersect the next
//!   operations of the set. Processes outside the closure can then never
//!   interact with the set's next operations, making the enabled members a
//!   persistent set;
//! - **sleep sets**, the standard complementary technique, used by the
//!   stateless engine.
//!
//! The rules read a state only through `ProcView`: per process, whether
//! its initialization is pending, whether it has terminated or is a
//! daemon, the object of its next visible operation, its footprint mask
//! row, and whether it is enabled. A live state answers through `Live`;
//! the stateless walk answers from its cached `ProcFacts` without
//! building the state (DESIGN §15). Both run the one `schedule` and the
//! one conflict closure.
//!
//! Completeness guarantees (deadlocks / assertion violations) hold for
//! acyclic state spaces, matching the guarantee VeriSoft itself gives.

use crate::interp::{enabled, next_op_object};
use crate::state::{spec_daemon, GlobalState, Status};
use cfgir::{CfgProgram, NodeKind, ObjId};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// Per-thread scratch for the conflict closure, reused across calls so
/// the per-state hot path allocates nothing: per process its footprint
/// row (`words` each) and next-op object, closure membership and the
/// best closure's membership; the members' next-object mask; and the
/// skipped processes while the output is partitioned.
struct Scratch {
    fut: Vec<u64>,
    next_obj: Vec<Option<ObjId>>,
    in_c: Vec<bool>,
    best: Vec<bool>,
    next_objs: Vec<u64>,
    skipped: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            fut: Vec::new(),
            next_obj: Vec::new(),
            in_c: Vec::new(),
            best: Vec::new(),
            next_objs: Vec::new(),
            skipped: Vec::new(),
        })
    };
}

/// Static per-procedure information used by the reduction.
#[derive(Debug, Clone)]
pub struct StaticInfo {
    /// For each procedure: every communication object it (or a transitive
    /// callee) may operate on.
    pub proc_objects: Vec<BTreeSet<ObjId>>,
    /// `proc_objects` as bitmasks — one row of `words` u64 words per
    /// procedure, row-major. The conflict closure runs over these
    /// (word-wise AND/OR) instead of allocating `BTreeSet`s in the
    /// per-state hot path.
    masks: Vec<u64>,
    /// Words per mask row: `ceil(object count / 64)`, at least 1.
    words: usize,
}

impl StaticInfo {
    /// Precompute object footprints for every procedure of `prog`.
    pub fn build(prog: &CfgProgram) -> StaticInfo {
        let n = prog.procs.len();
        let mut proc_objects: Vec<BTreeSet<ObjId>> = vec![BTreeSet::new(); n];
        // Direct uses.
        for p in &prog.procs {
            for nid in p.node_ids() {
                if let NodeKind::Visible { op, .. } = &p.node(nid).kind {
                    if let Some(o) = op.object() {
                        proc_objects[p.id.index()].insert(o);
                    }
                }
            }
        }
        // Transitive closure over calls and spawns (a spawner's future
        // includes everything its children may touch, which is what keeps
        // the persistent-set condition sound for processes that create
        // processes). Caller and callee footprints
        // live in the same vector, so borrow the two entries disjointly
        // via `split_at_mut` — no per-iteration clone of the callee set,
        // and nothing is touched at all once the caller already covers
        // the callee (the common case after the first sweep).
        let mut changed = true;
        while changed {
            changed = false;
            for p in &prog.procs {
                for nid in p.node_ids() {
                    if let NodeKind::Call { callee, .. } | NodeKind::Spawn { callee, .. } =
                        &p.node(nid).kind
                    {
                        let (ci, pi) = (callee.index(), p.id.index());
                        if ci == pi {
                            continue;
                        }
                        let (callee_objs, caller_objs) = if ci < pi {
                            let (lo, hi) = proc_objects.split_at_mut(pi);
                            (&lo[ci], &mut hi[0])
                        } else {
                            let (lo, hi) = proc_objects.split_at_mut(ci);
                            (&hi[0], &mut lo[pi])
                        };
                        if !callee_objs.is_subset(caller_objs) {
                            caller_objs.extend(callee_objs.iter().copied());
                            changed = true;
                        }
                    }
                }
            }
        }
        let words = (prog.objects.len() / 64) + 1;
        let mut masks = vec![0u64; n * words];
        for (p, objs) in proc_objects.iter().enumerate() {
            for o in objs {
                masks[p * words + o.index() / 64] |= 1u64 << (o.index() % 64);
            }
        }
        StaticInfo {
            proc_objects,
            masks,
            words,
        }
    }

    /// All objects the given process might still touch: the union of the
    /// footprints of every procedure on its call stack.
    pub fn future_objects(&self, state: &GlobalState, pid: usize) -> BTreeSet<ObjId> {
        let mut out = BTreeSet::new();
        if state.procs[pid].status == Status::Terminated {
            return out;
        }
        for f in &state.procs[pid].frames {
            out.extend(self.proc_objects[f.proc.index()].iter().copied());
        }
        out
    }

    /// OR procedure `p`'s footprint mask into `dst` (`words` words).
    #[inline]
    fn or_footprint(&self, p: usize, dst: &mut [u64]) {
        for (d, s) in dst.iter_mut().zip(&self.masks[p * self.words..]) {
            *d |= s;
        }
    }
}

/// What the schedule rules read of a state, process by process.
pub(crate) trait ProcView {
    /// Number of processes.
    fn len(&self) -> usize;
    /// Process `q` sits at an invisible node: its initialization
    /// transition is pending.
    fn pending_init(&self, q: usize) -> bool;
    /// Process `q` has terminated.
    fn terminated(&self, q: usize) -> bool;
    /// Process `q` is a daemon (an environment feeder).
    fn daemon(&self, q: usize) -> bool;
    /// The object of process `q`'s next visible operation.
    fn next_object(&self, q: usize) -> Option<ObjId>;
    /// OR process `q`'s footprint row (the union over its call stack;
    /// nothing once terminated) into `dst`.
    fn or_footprint(&self, q: usize, dst: &mut [u64]);
    /// Process `q`'s next operation is enabled.
    fn enabled(&self, q: usize) -> bool;
}

/// A live state as a [`ProcView`].
pub(crate) struct Live<'a> {
    pub prog: &'a CfgProgram,
    pub info: &'a StaticInfo,
    pub state: &'a GlobalState,
}

impl ProcView for Live<'_> {
    fn len(&self) -> usize {
        self.state.procs.len()
    }

    fn pending_init(&self, q: usize) -> bool {
        let ps = &self.state.procs[q];
        match ps.status {
            Status::AtNode(n) => !matches!(
                self.prog.proc(ps.top().proc).node(n).kind,
                NodeKind::Visible { .. }
            ),
            Status::Terminated => false,
        }
    }

    fn terminated(&self, q: usize) -> bool {
        self.state.procs[q].status == Status::Terminated
    }

    fn daemon(&self, q: usize) -> bool {
        spec_daemon(self.prog, self.state.procs[q].spec)
    }

    fn next_object(&self, q: usize) -> Option<ObjId> {
        next_op_object(self.prog, self.state, q)
    }

    fn or_footprint(&self, q: usize, dst: &mut [u64]) {
        if self.terminated(q) {
            return;
        }
        for f in &self.state.procs[q].frames {
            self.info.or_footprint(f.proc.index(), dst);
        }
        debug_assert!(
            self.info
                .future_objects(self.state, q)
                .iter()
                .all(|o| dst[o.index() / 64] & (1 << (o.index() % 64)) != 0),
            "mask rows must agree with the set-based footprints"
        );
    }

    fn enabled(&self, q: usize) -> bool {
        enabled(self.prog, self.state, q)
    }
}

/// One process's scheduling facts: everything [`ProcView`] asks of it
/// except enabledness. Each is a function of the process component alone
/// (its position, call stack and spec), which is what lets the stateless
/// walk cache them under the component's interner ID (DESIGN §15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ProcFacts {
    pub pending_init: bool,
    pub terminated: bool,
    pub daemon: bool,
    pub next_object: Option<ObjId>,
    pub footprint: Box<[u64]>,
}

impl ProcFacts {
    /// Process `q`'s facts as `v` has them.
    pub(crate) fn of(info: &StaticInfo, v: &impl ProcView, q: usize) -> ProcFacts {
        let mut footprint = vec![0; info.words].into_boxed_slice();
        v.or_footprint(q, &mut footprint);
        ProcFacts {
            pending_init: v.pending_init(q),
            terminated: v.terminated(q),
            daemon: v.daemon(q),
            next_object: v.next_object(q),
            footprint,
        }
    }
}

/// What [`schedule`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Run this process's initialization transition first.
    Init(usize),
    /// The output list holds this many scheduled processes, then the
    /// enabled processes POR skipped.
    Procs { scheduled: usize },
    /// No enabled transition; whether that is a system deadlock.
    DeadEnd { deadlock: bool },
}

/// The schedule rules, over any [`ProcView`]:
///
/// - *init*: processes still positioned at an invisible node run first,
///   lowest index first — the system reaches its initial global state
///   s0 before any scheduling choice is made (§2);
/// - *deadlock*: with nothing enabled, the dead end is a deadlock iff
///   [`deadlock`] says so;
/// - *persistent set*: with `por`, the enabled processes are narrowed to
///   the smallest closure ([`reduce`]).
///
/// For [`Schedule::Procs`] it appends to `out` the scheduled processes
/// (ascending), then the POR-skipped ones (ascending, none without POR).
pub(crate) fn schedule(
    info: &StaticInfo,
    por: bool,
    v: &impl ProcView,
    out: &mut Vec<usize>,
) -> Schedule {
    let n = v.len();
    if let Some(pid) = (0..n).find(|&q| v.pending_init(q)) {
        return Schedule::Init(pid);
    }
    let base = out.len();
    out.extend((0..n).filter(|&q| v.enabled(q)));
    let enabled = out.len() - base;
    if enabled == 0 {
        return Schedule::DeadEnd {
            deadlock: deadlock(v),
        };
    }
    let scheduled = if por {
        reduce(info, v, &mut out[base..])
    } else {
        enabled
    };
    Schedule::Procs { scheduled }
}

/// Whether a dead end counts as a system deadlock: iff some *non-daemon*
/// process is stuck short of termination. Daemons (synthesized
/// environment feeders) never make a dead end a deadlock (DESIGN §7).
pub(crate) fn deadlock(v: &impl ProcView) -> bool {
    (0..v.len()).any(|q| !v.daemon(q) && !v.terminated(q))
}

/// The conflict closure: reorder `enabled` (ascending) into the smallest
/// seed's closure members followed by the rest, both ascending, and
/// return the member count — nonzero whenever `enabled` is nonempty.
fn reduce(info: &StaticInfo, v: &impl ProcView, enabled: &mut [usize]) -> usize {
    if enabled.len() <= 1 {
        return enabled.len();
    }
    let nprocs = v.len();
    let w = info.words;
    SCRATCH.with(|scratch| {
        let Scratch {
            fut,
            next_obj,
            in_c,
            best,
            next_objs,
            skipped,
        } = &mut *scratch.borrow_mut();
        // Per-state tables, computed once and shared by every seed's
        // closure: each live process's future-footprint row and the
        // object of its next visible operation.
        fut.clear();
        fut.resize(nprocs * w, 0);
        next_obj.clear();
        for q in 0..nprocs {
            next_obj.push(v.next_object(q));
            v.or_footprint(q, &mut fut[q * w..(q + 1) * w]);
        }
        let set_bit = |mask: &mut [u64], o: ObjId| mask[o.index() / 64] |= 1u64 << (o.index() % 64);
        in_c.clear();
        in_c.resize(nprocs, false);
        next_objs.clear();
        next_objs.resize(w, 0);
        let mut best_len = usize::MAX;
        for &seed in enabled.iter() {
            in_c.fill(false);
            in_c[seed] = true;
            // Objects of next visible operations of members.
            next_objs.fill(0);
            if let Some(o) = next_obj[seed] {
                set_bit(next_objs, o);
            }
            let mut changed = true;
            while changed {
                changed = false;
                for q in 0..nprocs {
                    if in_c[q] || v.terminated(q) {
                        continue;
                    }
                    let row = &fut[q * w..(q + 1) * w];
                    if row.iter().zip(next_objs.iter()).any(|(a, b)| a & b != 0) {
                        in_c[q] = true;
                        if let Some(o) = next_obj[q] {
                            set_bit(next_objs, o);
                        }
                        changed = true;
                    }
                }
            }
            let members = enabled.iter().filter(|&&p| in_c[p]).count();
            debug_assert!(members > 0, "seed is enabled and in its own set");
            if members < best_len {
                best_len = members;
                std::mem::swap(best, in_c);
                in_c.resize(nprocs, false);
            }
            if best_len == 1 {
                break; // cannot do better
            }
        }
        // Stable partition: members first, then the skipped processes.
        skipped.clear();
        let mut kept = 0;
        for i in 0..enabled.len() {
            let p = enabled[i];
            if best[p] {
                enabled[kept] = p;
                kept += 1;
            } else {
                skipped.push(p);
            }
        }
        enabled[kept..].copy_from_slice(skipped);
        kept
    })
}

/// True when next operations on these objects are independent: they
/// touch different objects (or at least one touches none — local
/// assertions commute with everything). The sleep-set rule.
pub(crate) fn independent_objects(a: Option<ObjId>, b: Option<ObjId>) -> bool {
    match (a, b) {
        (Some(oa), Some(ob)) => oa != ob,
        _ => true,
    }
}

/// True when the next operations of the two processes are independent
/// ([`independent_objects`] of their next objects).
pub fn independent(prog: &CfgProgram, state: &GlobalState, a: usize, b: usize) -> bool {
    independent_objects(
        next_op_object(prog, state, a),
        next_op_object(prog, state, b),
    )
}

/// Enabled process indices at `state`.
pub fn enabled_processes(prog: &CfgProgram, state: &GlobalState) -> Vec<usize> {
    (0..state.procs.len())
        .filter(|p| enabled(prog, state, *p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_transition, EnvMode, TransitionResult};
    use cfgir::compile;

    /// The persistent set [`schedule`] picks at `state`, with POR on.
    fn persistent_set(prog: &CfgProgram, info: &StaticInfo, state: &GlobalState) -> Vec<usize> {
        let mut out = Vec::new();
        match schedule(info, true, &Live { prog, info, state }, &mut out) {
            Schedule::Procs { scheduled } => {
                out.truncate(scheduled);
                out
            }
            other => panic!("not a branching state: {other:?}"),
        }
    }

    /// Run initialization (invisible prefixes) so every process sits at a
    /// visible op or has terminated.
    fn init(prog: &CfgProgram) -> GlobalState {
        let mut s = GlobalState::initial(prog);
        for pid in 0..s.procs.len() {
            let r = execute_transition(prog, &mut s, pid, &[], EnvMode::Closed);
            assert!(matches!(r, TransitionResult::Completed { .. }), "{r:?}");
        }
        s
    }

    #[test]
    fn disjoint_objects_give_singleton_persistent_sets() {
        let prog = compile(
            r#"
            chan a[1]; chan b[1];
            proc pa() { send(a, 1); }
            proc pb() { send(b, 1); }
            process pa();
            process pb();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        let s = init(&prog);
        assert_eq!(enabled_processes(&prog, &s), vec![0, 1]);
        let ps = persistent_set(&prog, &info, &s);
        assert_eq!(ps.len(), 1, "independent sends need not interleave");
        assert!(independent(&prog, &s, 0, 1));
    }

    #[test]
    fn same_object_forces_full_set() {
        let prog = compile(
            r#"
            chan a[2];
            proc pa() { send(a, 1); }
            proc pb() { send(a, 2); }
            process pa();
            process pb();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        let s = init(&prog);
        let ps = persistent_set(&prog, &info, &s);
        assert_eq!(ps.len(), 2, "competing senders must both be explored");
        assert!(!independent(&prog, &s, 0, 1));
    }

    #[test]
    fn future_conflict_accounted_for() {
        // pa's next op is on `a`; pb's next is on `b` but pb *later*
        // touches `a`. Seeding from pa must therefore pull in pb (its
        // future conflicts), making that candidate {pa, pb}. Seeding from
        // pb yields the singleton {pb} — valid, since nothing else ever
        // touches `b` — and the smaller candidate wins.
        let prog = compile(
            r#"
            chan a[2]; chan b[2];
            proc pa() { send(a, 1); }
            proc pb() { send(b, 1); send(a, 2); }
            process pa();
            process pb();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        let s = init(&prog);
        let ps = persistent_set(&prog, &info, &s);
        assert_eq!(ps, vec![1], "the {{pb}} singleton is chosen");
        // And the pa-seeded candidate indeed needs both processes: check
        // via the future-objects footprint.
        assert!(info.future_objects(&s, 1).contains(&cfgir::ObjId(0)));
    }

    #[test]
    fn footprints_cross_calls() {
        let prog = compile(
            r#"
            chan a[1];
            proc inner() { send(a, 1); }
            proc outer() { inner(); }
            process outer();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        let outer = prog.proc_by_name("outer").unwrap();
        assert_eq!(info.proc_objects[outer.id.index()].len(), 1);
    }

    #[test]
    fn footprints_converge_on_mutual_recursion() {
        // `ping` and `pong` call each other; the fixpoint must terminate
        // and give both procedures the *union* footprint {a, b} — each
        // reaches the other's object through the call cycle. The
        // entry-point inherits it transitively.
        let prog = compile(
            r#"
            chan a[1]; chan b[1];
            proc ping(int n) { send(a, n); if (n > 0) { pong(n - 1); } }
            proc pong(int n) { send(b, n); if (n > 0) { ping(n - 1); } }
            proc main() { ping(2); }
            process main();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        for name in ["ping", "pong", "main"] {
            let p = prog.proc_by_name(name).unwrap();
            assert_eq!(
                info.proc_objects[p.id.index()].len(),
                2,
                "{name} must see both objects through the call cycle"
            );
        }
    }

    #[test]
    fn assert_only_process_is_independent_of_all() {
        let prog = compile(
            r#"
            chan a[1];
            proc pa() { send(a, 1); }
            proc pb() { int x = 1; VS_assert(x); }
            process pa();
            process pb();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        let s = init(&prog);
        let ps = persistent_set(&prog, &info, &s);
        assert_eq!(ps.len(), 1);
        assert!(independent(&prog, &s, 0, 1));
    }

    #[test]
    fn terminated_processes_have_empty_future() {
        let prog = compile(
            r#"
            chan a[1];
            proc pa() { send(a, 1); }
            proc pb() { int x = 0; }
            process pa();
            process pb();
            "#,
        )
        .unwrap();
        let info = StaticInfo::build(&prog);
        let s = init(&prog);
        assert_eq!(s.procs[1].status, Status::Terminated);
        assert!(info.future_objects(&s, 1).is_empty());
        let en = enabled_processes(&prog, &s);
        assert_eq!(en, vec![0]);
    }
}
