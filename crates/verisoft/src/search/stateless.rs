//! VeriSoft's stateless depth-first search, in ID space while the tree
//! repeats.
//!
//! The walk pays off when the tree is built from far fewer distinct
//! components and `(process, object)` answers than it has nodes — true of
//! the switch programs (12.2 M nodes of `switchgen --lines 2 --events 2`
//! use 240 components and 635 answers), false of a program whose data
//! tells every path apart, where each node brings a component never seen
//! before. While it pays, the walk carries each node as its component-ID
//! tuple and takes the ID-space step the stateful engines take too
//! (DESIGN §15): the schedule from the facts table
//! (`Executor::schedule_node`), the children from the transition memo
//! (`Executor::hit`, `Executor::take_hit`, with the one debug oracle),
//! each child written as its parent's IDs with one or two replaced: no
//! state is built, keyed or freed on that path. A node is built
//! (`Executor::build`, through the component cache) only when a lookup
//! misses — a component or key the table has not seen, a spawning
//! transition, a budget too short for the recorded answer — and then the
//! live state schedules it, teaches the facts table, and steps through
//! `Executor::step`. What is the walk's own is its recursion, its sleep
//! sets, its path of memo references (`Step::Memo`), the children it
//! writes on its ID stack, and the cold switch below.
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

use crate::executor::{
    expands_skipped, ExecCtx, Executor, Ids, KeyArena, LeanChild, Node, SuccOutcome,
};
use crate::interp::{next_op_object, VisibleEvent};
use crate::por::{independent_objects, Schedule};
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
        cache: ComponentCache::default(),
        memo,
        report: Report::default(),
        stop: false,
        path: Vec::new(),
        events: Vec::new(),
        ids: Vec::new(),
        bits: Vec::new(),
        queue: Vec::new(),
    };
    let root = if interner.is_some() {
        let (_, key) = w.cx.state_key(&exec.initial());
        Node::ids(w.push_key(&key))
    } else {
        Node::built(Box::new(exec.initial()))
    };
    w.visit(root, 0, Bits::EMPTY);
    let Walk {
        cx,
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
    /// With the run's interner, `None` under `--no-compress`.
    cx: ExecCtx,
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

    /// The object of process `q`'s next operation at `node`: from the
    /// built state when there is one, from the facts table otherwise.
    fn next_object(&self, node: &Node, q: usize) -> Option<ObjId> {
        match (&node.state, node.ids) {
            (Some(s), _) => next_op_object(self.exec.program(), s, q),
            (None, Some(ids)) => {
                let id = self.ids[ids.start + q];
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
    fn push_child_sleep(&mut self, node: &Node, (sleep, done): (Bits, Bits), t: usize) -> Bits {
        let child = Bits {
            start: self.bits.len(),
            len: done.len,
        };
        for k in 0..done.len {
            let word = self.sleep_word((sleep, done, k), t, |q| self.next_object(node, q));
            if let Some(o) = &node.oracle {
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

    fn visit(&mut self, mut node: Node, depth: usize, sleep: Bits) {
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
        let exec = self.exec;
        let lent = &mut (&mut self.cache, &mut self.memo);
        let learn = !self.cold;
        let sched =
            exec.schedule_node(&self.cx, lent, &self.ids, &mut node, learn, &mut self.queue);
        match sched {
            Schedule::DeadEnd { deadlock } => {
                self.record_trace_end();
                if deadlock {
                    self.record_violation(ViolationKind::Deadlock, None);
                }
            }
            Schedule::Init(pid) => {
                self.step(&mut node, depth, pid, sleep);
            }
            Schedule::Procs { scheduled } => {
                let nprocs = match (&node.state, node.ids) {
                    (Some(s), _) => s.procs.len(),
                    (None, Some(ids)) => ids.nprocs,
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
                            self.push_child_sleep(&node, (sleep, done), t)
                        } else {
                            Bits::EMPTY
                        };
                        let violated = self.step(&mut node, depth, t, child_sleep);
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
                    // A violation brings in the skipped processes, as in
                    // every engine; the walk stores nothing, so no cycle
                    // proviso.
                    if !fell_back && i == end && expands_skipped(skipped, saw_violation, || false) {
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
    fn step(&mut self, node: &mut Node, depth: usize, t: usize, child_sleep: Bits) -> bool {
        let exec = self.exec;
        if let Some(hit) = exec.hit(&self.cx, &self.memo, &self.ids, node, t) {
            return self.visit_hit(node, depth, (t, hit), child_sleep);
        }
        let lent = &mut (&mut self.cache, &mut self.memo);
        let state = exec.build(&self.cx, lent, &self.ids, node, !self.cold);
        if self.cold {
            self.visit_interpreted(state, depth, t, child_sleep)
        } else {
            self.visit_stepped(state, depth, t, child_sleep)
        }
    }

    /// [`Walk::step`] on a memo hit, taken through `Executor::take_hit`:
    /// visit each child as the parent's IDs with the process and (when
    /// written) the object replaced — in debug builds each held against
    /// the successor the hit's oracle interpreted.
    fn visit_hit(
        &mut self,
        node: &Node,
        depth: usize,
        (t, (entry, object)): (usize, (u32, Option<usize>)),
        child_sleep: Bits,
    ) -> bool {
        let ids = node.ids.expect("a hit is taken in ID space");
        let collect = self.exec.config().collect_traces;
        let hit = (t, (entry, object));
        let components = ids.end - ids.start;
        let oracle = node.oracle.as_deref();
        let exec = self.exec;
        let interpreted = exec.take_hit(&mut self.cx, &mut self.memo, hit, components, oracle);
        let mut interpreted = interpreted.into_iter();
        let outcomes = self.memo.entry(entry).outcomes.len();
        let object = object.map(|o| ids.nprocs + o);
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
                    self.ids.extend_from_within(ids.start..ids.end);
                    self.ids[start + t] = proc;
                    if let (Some(o), Some(id)) = (object, wrote) {
                        self.ids[start + o] = id;
                    }
                    let child = Ids {
                        start,
                        end: self.ids.len(),
                        nprocs: ids.nprocs,
                    };
                    if let Some(want) = interpreted.next() {
                        let got = exec.materialize(&self.cx, &mut self.cache, child.of(&self.ids));
                        assert!(got == want, "child {j} of P{t} from its IDs");
                    }
                    self.visit_child(Node::ids(child), depth, event, child_sleep);
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
        let interner = self.cx.interner.as_deref();
        self.memo
            .view(interner.expect("a recording walk interns"), state);
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
                    self.visit_child(Node::ids(child), depth, event, child_sleep);
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
        if self.cx.interner.is_some() {
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
                    self.visit_child(Node::built(s), depth, event, child_sleep);
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
        let top = child.ids.map_or(self.ids.len(), |ids| ids.start);
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
}
