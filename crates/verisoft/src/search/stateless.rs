//! VeriSoft's stateless depth-first search, in ID space while the tree
//! repeats.
//!
//! The walk pays off when the tree is built from far fewer distinct
//! components and `(process, object)` answers than it has nodes — true of
//! the switch programs (12.2 M nodes of `switchgen --lines 2 --events 2`
//! use 240 components and 635 answers), false of a program whose data
//! tells every path apart, where each node brings a component never seen
//! before. While it pays, the walk carries each node as its component-ID
//! tuple, takes the schedule from the facts table and the children from
//! the transition memo (DESIGN §15), and writes each child as its
//! parent's IDs with one or two replaced: no state is built, keyed or
//! freed on that path. A node is built (materialised through the
//! component cache) only when a lookup misses — a component or key the
//! table has not seen, a spawning transition, a budget too short for the
//! recorded answer — and then the live state schedules it, teaches the
//! facts table, and steps through `Executor::step`.
//!
//! Every miss interns and records what it saw, for the rest of the run.
//! So the walk watches its running miss share, and once it has missed
//! [`COLD_MISSES`] times with more than one lookup in [`COLD_SHARE`]
//! missing over the last [`COLD_MISSES`] lookups, it turns **cold**: it
//! records nothing more, and every later miss is interpreted — the
//! children are built states, stepped by `Executor::successors`, and so
//! are all their descendants, each node holding its state for as long as
//! it is on the path. Recorded answers still serve the ID-tuple nodes
//! left on the path. What the memo, interner and cache hold therefore
//! stays within a few thousand misses' worth when the tree does not
//! repeat, and within one in [`COLD_SHARE`] lookups' worth when it does.
//!
//! `--no-compress` runs the same walk cold from the root: no interner,
//! every node a built state, every transition interpreted — the
//! reference the memoised walk is diffed against.

use crate::executor::{ExecCtx, Executor, KeyArena, LeanChild, SuccOutcome};
use crate::interp::{next_op_object, VisibleEvent};
use crate::por::{independent_objects, ProcFacts, ProcView, Schedule};
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::intern::{read_tuple, MemoOutcome};
use crate::state::{ComponentCache, ComponentInterner, GlobalState, TransitionMemo};
use cfgir::ObjId;
use std::sync::Arc;

/// Misses the walk records before it may turn cold, and the length (in
/// lookups) of the window its miss share is read over.
const COLD_MISSES: usize = 1 << 12;

/// The walk turns cold when more than one lookup in `COLD_SHARE` missed
/// over the last window.
const COLD_SHARE: usize = 16;

/// Depth-bounded stateless DFS with persistent sets and sleep sets; no
/// state is ever stored ([`Engine::Stateless`](super::Engine::Stateless)).
pub(super) fn dfs(exec: &Executor<'_>) -> Report {
    let cfg = exec.config();
    let interner = (!cfg.no_compress).then(|| Arc::new(ComponentInterner::new()));
    let mut cx = ExecCtx::new(exec, cfg.max_transitions);
    cx.interner = interner.clone();
    let mut memo = TransitionMemo::default();
    if let Some(i) = &interner {
        memo.adopt(i.token());
    }
    let mut w = Walk {
        exec,
        cx,
        cold: interner.is_none(),
        window: (0, 0),
        interner,
        cache: ComponentCache::default(),
        memo,
        report: Report::default(),
        stop: false,
        path: Vec::new(),
        events: Vec::new(),
        ids: Vec::new(),
        bits: Vec::new(),
        queue: Vec::new(),
        enabled: Vec::new(),
    };
    let root = if w.interner.is_some() {
        let (_, key) = w.cx.state_key(&exec.initial());
        Node::Ids(w.push_key(&key))
    } else {
        Node::Live(exec.initial())
    };
    w.visit(root, 0, Bits::EMPTY);
    let Walk {
        cx,
        interner,
        memo,
        mut report,
        ..
    } = w;
    report.transitions = cx.transitions;
    report.truncated |= cx.truncated;
    report.shared_components = cx.shared_components;
    report.total_components = cx.total_components;
    report.tosses_taken = cx.tosses_taken;
    report.coverage = cx.coverage;
    if interner.is_some() {
        report.memo = memo.stats;
    }
    report
}

/// A tree node: its component-ID tuple on the walk's ID stack, or a built
/// state once the walk is cold.
enum Node {
    Ids(Ids),
    Live(GlobalState),
}

/// A component-ID tuple `ids[start..end]`: `nprocs` process IDs, then
/// the object IDs.
#[derive(Debug, Clone, Copy)]
struct Ids {
    start: usize,
    end: usize,
    nprocs: usize,
}

/// A process set — a sleep set or a done set — as `len` words of the
/// walk's bit stack from `start`; bits past the end are clear, so a set
/// taken before a spawn reads correctly after it.
#[derive(Debug, Clone, Copy)]
struct Bits {
    start: usize,
    len: usize,
}

impl Bits {
    const EMPTY: Bits = Bits { start: 0, len: 0 };

    fn word(self, bits: &[u64], k: usize) -> u64 {
        if k < self.len {
            bits[self.start + k]
        } else {
            0
        }
    }

    fn contains(self, bits: &[u64], q: usize) -> bool {
        self.word(bits, q / 64) & (1 << (q % 64)) != 0
    }
}

/// One decision on the path from the root: an outcome of a memo entry,
/// or a decision the interpreter produced. Resolved into [`Decision`]s
/// only when a violation is recorded.
enum Step {
    Memo {
        process: usize,
        entry: u32,
        outcome: usize,
    },
    Taken(Decision),
}

/// The walk's state. Every per-node buffer is a stack that a node grows
/// on entry and its parent truncates after it: the ID tuples, the sleep
/// and done sets, and the scheduled processes.
struct Walk<'e, 'a> {
    exec: &'e Executor<'a>,
    cx: ExecCtx,
    /// The run's interner; `None` under `--no-compress`.
    interner: Option<Arc<ComponentInterner>>,
    /// Nothing more is interned, learned or recorded; misses are
    /// interpreted into built states.
    cold: bool,
    /// The memo's `(lookups, misses)` when the current window opened.
    window: (usize, usize),
    cache: ComponentCache,
    memo: TransitionMemo,
    report: Report,
    stop: bool,
    path: Vec<Step>,
    /// Visible events from the root (kept only when collecting traces).
    events: Vec<VisibleEvent>,
    ids: Vec<u32>,
    bits: Vec<u64>,
    queue: Vec<usize>,
    /// Per process of the node being scheduled: its enabledness, read
    /// from the facts table.
    enabled: Vec<bool>,
}

/// A node as the schedule rules read it from the facts table.
struct Known<'w> {
    memo: &'w TransitionMemo,
    ids: &'w [u32],
    enabled: &'w [bool],
}

impl Known<'_> {
    fn facts(&self, q: usize) -> &ProcFacts {
        self.memo
            .facts(self.ids[q])
            .expect("resolved before scheduling")
    }
}

impl ProcView for Known<'_> {
    fn len(&self) -> usize {
        self.enabled.len()
    }

    fn pending_init(&self, q: usize) -> bool {
        self.facts(q).pending_init
    }

    fn terminated(&self, q: usize) -> bool {
        self.facts(q).terminated
    }

    fn daemon(&self, q: usize) -> bool {
        self.facts(q).daemon
    }

    fn next_object(&self, q: usize) -> Option<ObjId> {
        self.facts(q).next_object
    }

    fn or_footprint(&self, q: usize, dst: &mut [u64]) {
        for (d, s) in dst.iter_mut().zip(self.facts(q).footprint.iter()) {
            *d |= s;
        }
    }

    fn enabled(&self, q: usize) -> bool {
        self.enabled[q]
    }
}

impl Walk<'_, '_> {
    /// Push the ID tuple a compressed store key denotes.
    fn push_key(&mut self, key: &[u8]) -> Ids {
        let start = self.ids.len();
        let nprocs = read_tuple(key, &mut self.ids).expect("the walk's own key");
        Ids {
            start,
            end: self.ids.len(),
            nprocs,
        }
    }

    /// The state `node` denotes.
    fn materialize(&mut self, node: Ids) -> GlobalState {
        self.interner
            .as_ref()
            .expect("ID tuples exist only under an interner")
            .materialize_ids(
                &mut self.cache,
                node.nprocs,
                &self.ids[node.start..node.end],
            )
            .expect("the walk's own node")
    }

    /// Teach the facts table what the live `state` of `node` shows: each
    /// process component's facts and, under its memo key, enabledness.
    fn learn(&mut self, node: Ids, state: &GlobalState) {
        if self.cold {
            return;
        }
        let live = self.exec.live(state);
        let ids = &self.ids[node.start..node.end];
        for (q, &id) in ids[..node.nprocs].iter().enumerate() {
            if self.memo.facts(id).is_none() {
                self.memo
                    .record_facts(id, ProcFacts::of(self.exec.info(), &live, q));
            }
            let key = (
                id,
                live.next_object(q).map(|o| ids[node.nprocs + o.index()]),
            );
            if self.memo.enabled(key).is_none() {
                self.memo.record_enabled(key, live.enabled(q));
            }
        }
    }

    /// After a lookup that went through the memo: close the window once
    /// it spans [`COLD_MISSES`] lookups, turning the walk cold when the
    /// run has missed that often and the window's miss share is over
    /// one in [`COLD_SHARE`].
    fn watch_miss_share(&mut self) {
        let s = self.memo.stats;
        let (lookups, misses) = (s.hits + s.misses, s.misses);
        let (opened, missed) = self.window;
        if lookups - opened < COLD_MISSES {
            return;
        }
        if misses >= COLD_MISSES && (misses - missed) * COLD_SHARE > lookups - opened {
            self.cold = true;
        }
        self.window = (lookups, misses);
    }

    /// The schedule of `node` from the facts table alone, appended to
    /// `queue`; `None` when a fact is missing.
    fn schedule_known(&mut self, node: Ids) -> Option<Schedule> {
        let ids = &self.ids[node.start..node.end];
        let memo = &self.memo;
        self.enabled.clear();
        for &id in &ids[..node.nprocs] {
            let f = memo.facts(id)?;
            // Enabledness is read only once no initialization is
            // pending, so it need not be known before then.
            let e = f.pending_init
                || memo.enabled((id, f.next_object.map(|o| ids[node.nprocs + o.index()])))?;
            self.enabled.push(e);
        }
        let known = Known {
            memo,
            ids,
            enabled: &self.enabled,
        };
        Some(self.exec.schedule_view(&known, &mut self.queue))
    }

    /// The object of process `q`'s next operation at `node`: from the
    /// built state when there is one, from the facts table otherwise.
    fn next_object(
        &self,
        node: Option<Ids>,
        state: Option<&GlobalState>,
        q: usize,
    ) -> Option<ObjId> {
        match (state, node) {
            (Some(s), _) => next_op_object(self.exec.program(), s, q),
            (None, Some(node)) => {
                let id = self.ids[node.start + q];
                self.memo
                    .facts(id)
                    .expect("scheduled from facts")
                    .next_object
            }
            (None, None) => unreachable!("a node is its IDs or a built state"),
        }
    }

    /// Word `k` of the sleep set a child through process `t` starts
    /// with: the processes of `sleep ∪ done` whose next operation is
    /// independent of `t`'s, as `object` reports next objects.
    fn sleep_word(
        &self,
        (sleep, done, k): (Bits, Bits, usize),
        t: usize,
        object: impl Fn(usize) -> Option<ObjId>,
    ) -> u64 {
        let mut word = sleep.word(&self.bits, k) | done.word(&self.bits, k);
        let ot = object(t);
        if ot.is_some() {
            let mut rest = word;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if !independent_objects(object(64 * k + b), ot) {
                    word &= !(1 << b);
                }
            }
        }
        word
    }

    /// Push the sleep set of `node`'s children through `t`.
    fn push_child_sleep(
        &mut self,
        node: Option<Ids>,
        (state, oracle): (Option<&GlobalState>, Option<&GlobalState>),
        (sleep, done): (Bits, Bits),
        t: usize,
    ) -> Bits {
        let child = Bits {
            start: self.bits.len(),
            len: done.len,
        };
        for k in 0..done.len {
            let word = self.sleep_word((sleep, done, k), t, |q| self.next_object(node, state, q));
            if let Some(o) = oracle {
                let live = self.sleep_word((sleep, done, k), t, |q| {
                    next_op_object(self.exec.program(), o, q)
                });
                assert_eq!(word, live, "sleep set from facts, word {k}");
            }
            self.bits.push(word);
        }
        child
    }

    fn record_violation(&mut self, kind: ViolationKind, process: Option<usize>) {
        let memo = &self.memo;
        let trace = self
            .path
            .iter()
            .map(|s| match s {
                Step::Memo {
                    process,
                    entry,
                    outcome,
                } => Decision {
                    process: *process,
                    choices: memo.entry(*entry).outcomes[*outcome].0.clone(),
                },
                Step::Taken(d) => d.clone(),
            })
            .collect();
        self.report.violations.push(Violation {
            kind,
            process,
            trace,
        });
        if self.report.violations.len() >= self.exec.config().max_violations {
            self.stop = true;
        }
    }

    fn record_trace_end(&mut self) {
        if self.exec.config().collect_traces {
            self.report.traces.insert(self.events.clone());
        }
    }

    fn visit(&mut self, node: Node, depth: usize, sleep: Bits) {
        if self.stop {
            return;
        }
        let cfg = self.exec.config();
        self.report.states += 1;
        self.report.max_depth_seen = self.report.max_depth_seen.max(depth);
        if depth >= cfg.max_depth {
            self.report.truncated = true;
            self.record_trace_end();
            return;
        }
        let q0 = self.queue.len();
        // `state` is the node as a built state, when it is one or a miss
        // built it; `oracle` the node built only so debug builds can
        // check what the facts table said.
        let (ids, mut state) = match node {
            Node::Ids(ids) => (Some(ids), None),
            Node::Live(s) => (None, Some(s)),
        };
        let mut oracle = None;
        let sched = match ids.and_then(|node| self.schedule_known(node)) {
            Some(sched) => {
                if cfg!(debug_assertions) {
                    let o = self.materialize(ids.expect("scheduled from facts"));
                    let mut want = Vec::new();
                    let live = self.exec.schedule_view(&self.exec.live(&o), &mut want);
                    assert_eq!(sched, live, "schedule from facts");
                    assert_eq!(self.queue[q0..], want[..], "scheduled processes from facts");
                    oracle = Some(o);
                }
                sched
            }
            None => {
                if state.is_none() {
                    let node = ids.expect("a node is its IDs or a built state");
                    let s = self.materialize(node);
                    self.learn(node, &s);
                    state = Some(s);
                }
                let s = state.as_ref().expect("built above");
                self.exec.schedule_view(&self.exec.live(s), &mut self.queue)
            }
        };
        match sched {
            Schedule::DeadEnd { deadlock } => {
                self.record_trace_end();
                if deadlock {
                    self.record_violation(ViolationKind::Deadlock, None);
                }
            }
            Schedule::Init(pid) => {
                self.step(ids, (&mut state, oracle.as_ref()), depth, pid, sleep);
            }
            Schedule::Procs { scheduled } => {
                let nprocs = match (&state, ids) {
                    (Some(s), _) => s.procs.len(),
                    (None, Some(node)) => node.nprocs,
                    (None, None) => unreachable!("a node is its IDs or a built state"),
                };
                let d0 = self.bits.len();
                let done = Bits {
                    start: d0,
                    len: nprocs.div_ceil(64),
                };
                self.bits.resize(d0 + done.len, 0);
                let skipped = self.queue.len() - q0 - scheduled;
                let (mut i, mut end) = (q0, q0 + scheduled);
                let mut saw_violation = false;
                let mut fell_back = false;
                while i < end {
                    let t = self.queue[i];
                    i += 1;
                    if self.stop || self.cx.truncated {
                        self.stop = true;
                        break;
                    }
                    if !(cfg.sleep_sets && sleep.contains(&self.bits, t)) {
                        let child_sleep = if cfg.sleep_sets {
                            let built = (state.as_ref(), oracle.as_ref());
                            self.push_child_sleep(ids, built, (sleep, done), t)
                        } else {
                            Bits::EMPTY
                        };
                        let violated =
                            self.step(ids, (&mut state, oracle.as_ref()), depth, t, child_sleep);
                        self.bits.truncate(d0 + done.len);
                        if self.stop {
                            break;
                        }
                        saw_violation |= violated;
                        // Sleep sets may treat `t` as "explored here"
                        // only if its whole subtree really was: a
                        // violation cut the branch, so `t` must keep
                        // appearing in the siblings' subtrees.
                        if !violated {
                            self.bits[d0 + t / 64] |= 1 << (t % 64);
                        }
                    }
                    // A violation transition has no successor state, so
                    // persistent-set reasoning (which assumes exploration
                    // continues past every selected transition) cannot
                    // justify dropping the skipped processes: a distinct
                    // violation simultaneously enabled in another process
                    // would be masked forever. Fall back to the full
                    // enabled set, mirroring the stateful drivers.
                    if !fell_back && i == end && saw_violation && skipped > 0 {
                        fell_back = true;
                        end += skipped;
                    }
                }
                self.bits.truncate(d0);
                // When everything was pruned by sleep sets the path ends
                // here but is covered elsewhere; not a trace end.
            }
        }
        self.queue.truncate(q0);
    }

    /// Step process `t` at the node and visit each child under
    /// `child_sleep`, in outcome order; returns whether an outcome was a
    /// violation. Taken from the memo in ID space when the node has not
    /// been built and the memo holds an answer the budget covers;
    /// otherwise the node is built (once) and stepped through the memo
    /// while the walk records, through the interpreter once it is cold.
    fn step(
        &mut self,
        ids: Option<Ids>,
        (state, oracle): (&mut Option<GlobalState>, Option<&GlobalState>),
        depth: usize,
        t: usize,
        child_sleep: Bits,
    ) -> bool {
        if state.is_none() {
            let node = ids.expect("a node is its IDs or a built state");
            if let Some(entry) = self.hit(node, t) {
                return self.visit_hit(node, oracle, depth, (t, entry), child_sleep);
            }
            *state = Some(self.materialize(node));
        }
        let state = state.as_ref().expect("built above");
        if self.cold {
            self.visit_interpreted(state, depth, t, child_sleep)
        } else {
            self.visit_stepped(state, depth, t, child_sleep)
        }
    }

    /// The memo entry of process `t`'s next transition at `node`, when
    /// the budget left covers its recorded executions.
    fn hit(&self, node: Ids, t: usize) -> Option<u32> {
        let ids = &self.ids[node.start..node.end];
        let facts = self.memo.facts(ids[t])?;
        let object = facts.next_object.map(|o| ids[node.nprocs + o.index()]);
        let entry = self.memo.find((ids[t], object))?;
        let left = self.cx.budget.saturating_sub(self.cx.transitions);
        (self.memo.entry(entry).executions <= left).then_some(entry)
    }

    /// [`Walk::step`] on a memo hit: charge what the interpreter would
    /// have, then visit each child as the parent's IDs with the process
    /// and (when written) the object replaced.
    fn visit_hit(
        &mut self,
        node: Ids,
        oracle: Option<&GlobalState>,
        depth: usize,
        (t, entry): (usize, u32),
        child_sleep: Bits,
    ) -> bool {
        let collect = self.exec.config().collect_traces;
        let e = self.memo.entry(entry);
        let completed = e
            .outcomes
            .iter()
            .filter(|(_, o)| matches!(o, MemoOutcome::State { .. }))
            .count();
        let total = completed * (node.end - node.start);
        let charged = [e.executions, e.tosses_taken, total - e.unshared, total];
        let outcomes = e.outcomes.len();
        let mut interpreted = oracle.map(|o| self.assert_hit(o, (t, entry), charged).into_iter());
        self.cx.transitions += charged[0];
        self.cx.tosses_taken += charged[1];
        self.cx.shared_components += charged[2];
        self.cx.total_components += charged[3];
        self.memo.stats.hits += 1;
        let object = self
            .memo
            .facts(self.ids[node.start + t])
            .expect("scheduled from facts")
            .next_object
            .map(|o| node.nprocs + o.index());
        let mut violated = false;
        for j in 0..outcomes {
            if self.stop || self.cx.truncated {
                self.stop = true;
                return violated;
            }
            self.path.push(Step::Memo {
                process: t,
                entry,
                outcome: j,
            });
            match &self.memo.entry(entry).outcomes[j].1 {
                MemoOutcome::State {
                    proc,
                    object: wrote,
                    event,
                } => {
                    let (proc, wrote) = (proc.id, wrote.map(|c| c.id));
                    let event = event.as_ref().filter(|_| collect).map(|op| VisibleEvent {
                        process: t,
                        op: op.clone(),
                    });
                    let start = self.ids.len();
                    self.ids.extend_from_within(node.start..node.end);
                    self.ids[start + t] = proc;
                    if let (Some(o), Some(id)) = (object, wrote) {
                        self.ids[start + o] = id;
                    }
                    let child = Ids {
                        start,
                        end: self.ids.len(),
                        nprocs: node.nprocs,
                    };
                    if let Some(want) = interpreted.as_mut().and_then(Iterator::next) {
                        let got = self.materialize(child);
                        assert!(got == want, "child {j} of process {t} from its IDs");
                    }
                    self.visit_child(Node::Ids(child), depth, event, child_sleep);
                }
                MemoOutcome::Violation(kind) => {
                    violated = true;
                    self.record_violation(kind.clone(), Some(t));
                }
            }
            self.path.pop();
        }
        violated
    }

    /// [`Walk::step`] on the built `state` while the walk records:
    /// through the memo, recording what it learns, each child an ID
    /// tuple.
    fn visit_stepped(
        &mut self,
        state: &GlobalState,
        depth: usize,
        t: usize,
        child_sleep: Bits,
    ) -> bool {
        let (mut children, mut keys, mut events) = (Vec::new(), KeyArena::default(), Vec::new());
        let interner = self
            .interner
            .as_ref()
            .expect("a recording walk has an interner");
        self.memo.view(interner, state);
        let collect = self.exec.config().collect_traces;
        self.exec.step(
            &mut self.cx,
            &mut (&mut self.cache, &mut self.memo),
            state,
            t,
            (&mut children, &mut keys),
            collect.then_some(&mut events),
        );
        self.watch_miss_share();
        let mut events = events.into_iter();
        let mut violated = false;
        for (
            j,
            LeanChild {
                decision,
                violation,
            },
        ) in children.into_iter().enumerate()
        {
            if self.stop || self.cx.truncated {
                self.stop = true;
                return violated;
            }
            self.path.push(Step::Taken(decision));
            match violation {
                None => {
                    let child = self.push_key(keys.get(j).1);
                    let event = events.next().flatten();
                    self.visit_child(Node::Ids(child), depth, event, child_sleep);
                }
                Some((kind, process)) => {
                    violated = true;
                    self.record_violation(kind, process);
                }
            }
            self.path.pop();
        }
        violated
    }

    /// [`Walk::step`] on the built `state` once the walk is cold: through
    /// the interpreter, each child a built state.
    fn visit_interpreted(
        &mut self,
        state: &GlobalState,
        depth: usize,
        t: usize,
        child_sleep: Bits,
    ) -> bool {
        if self.interner.is_some() {
            self.memo.stats.bypass_cold += 1;
        }
        let collect = self.exec.config().collect_traces;
        let mut violated = false;
        for (choices, outcome) in self.exec.successors(&mut self.cx, state, t) {
            if self.stop || self.cx.truncated {
                self.stop = true;
                return violated;
            }
            self.path.push(Step::Taken(Decision {
                process: t,
                choices,
            }));
            match outcome {
                SuccOutcome::State(s, ev) => {
                    let event = ev.filter(|_| collect);
                    self.visit_child(Node::Live(*s), depth, event, child_sleep);
                }
                SuccOutcome::Violation(kind, process) => {
                    violated = true;
                    self.record_violation(kind, process);
                }
            }
            self.path.pop();
        }
        violated
    }

    /// Visit a child one level down with its event on the trace, then
    /// drop it (an ID tuple's IDs with it).
    fn visit_child(&mut self, child: Node, depth: usize, event: Option<VisibleEvent>, sleep: Bits) {
        let top = match &child {
            Node::Ids(ids) => ids.start,
            Node::Live(_) => self.ids.len(),
        };
        let pushed = event.is_some();
        if let Some(ev) = event {
            self.events.push(ev);
        }
        self.visit(child, depth + 1, sleep);
        if pushed {
            self.events.pop();
        }
        self.ids.truncate(top);
    }

    /// The debug-build oracle of a hit taken in ID space: interpret
    /// process `t` at the built node `o` under the budget the hit saw,
    /// with no coverage sink (a hit marks nothing), and require the
    /// entry's choices, violations, visible events and charges. Returns
    /// the interpreted successor states, which the caller holds each
    /// child's ID tuple against.
    fn assert_hit(
        &self,
        o: &GlobalState,
        (t, entry): (usize, u32),
        charged: [usize; 4],
    ) -> Vec<GlobalState> {
        let mut cx = ExecCtx::with_coverage(self.cx.budget - self.cx.transitions, None);
        let succs = self.exec.successors(&mut cx, o, t);
        assert!(!cx.truncated, "a hit was taken past the budget");
        let interpreted = [
            cx.transitions,
            cx.tosses_taken,
            cx.shared_components,
            cx.total_components,
        ];
        assert_eq!(charged, interpreted, "memoised charges of process {t}");
        let outcomes = &self.memo.entry(entry).outcomes;
        assert_eq!(
            outcomes.len(),
            succs.len(),
            "memoised outcomes of process {t}"
        );
        let mut states = Vec::new();
        for ((choices, outcome), (want_choices, want)) in outcomes.iter().zip(succs) {
            assert_eq!(*choices, want_choices, "memoised choices of process {t}");
            match (outcome, want) {
                (MemoOutcome::State { event, .. }, SuccOutcome::State(s, ev)) => {
                    assert_eq!(*event, ev.map(|e| e.op), "memoised event of process {t}");
                    states.push(*s);
                }
                (MemoOutcome::Violation(kind), SuccOutcome::Violation(want, p)) => {
                    assert_eq!(
                        (kind, p),
                        (&want, Some(t)),
                        "memoised violation of process {t}"
                    );
                }
                _ => panic!("memoised outcome kind of process {t}"),
            }
        }
        states
    }
}
