//! The executor layer: a pure transition-system view of a program.
//!
//! [`Executor`] packages a validated program, its static analysis
//! ([`StaticInfo`]), and the exploration [`Config`] behind a small API —
//! [`Executor::schedule`], [`Executor::successors`], [`Executor::replay`]
//! — with **no search policy** in it. Search order, pruning bookkeeping,
//! visited sets, and result accumulation all live in the drivers
//! ([`crate::search`]); the executor only answers "what can happen next
//! from this state".
//!
//! The executor is freely shareable across threads (`&Executor` is all a
//! worker needs); per-driver mutable scratch — the transition budget and
//! optional coverage map — travels separately in [`ExecCtx`], so parallel
//! drivers can give every worker its own context and merge afterwards.
//!
//! Every engine expands through `Executor::step` (the stateful engines
//! via `Executor::expand`): the transition memo, or the interpreter on a
//! miss. [`Executor::expand_children`] (with [`NodeExpansion`] and
//! [`ChildSucc`]) and [`Executor::independent`] have only the ledger
//! benchmark's stepper as callers; [`Executor::successors`] also has
//! `closer::refine_cex`'s trace classifiers.

use crate::coverage::Coverage;
use crate::interp::{
    execute_transition_noting_spawn, execute_transition_with, next_op_object, TransitionResult,
    VisibleEvent,
};
use crate::por::{deadlock, independent, schedule, Live, ProcView, Schedule, StaticInfo};
use crate::report::{Decision, ViolationKind};
use crate::search::Config;
use crate::state::intern::{MemoEntry, MemoOutcome};
use crate::state::{ComponentCache, GlobalState, TransitionMemo};
use cfgir::CfgProgram;
use std::collections::BTreeSet;

/// What the executor offers a driver at a given state.
pub enum Scheduled {
    /// Initialization: run this process's invisible prefix (deterministic
    /// choice of process — toss branching may still occur inside).
    Init(usize),
    /// Explore these processes' transitions (the persistent set when POR
    /// is on, every enabled process otherwise).
    Procs(Vec<usize>),
    /// No enabled transitions.
    DeadEnd {
        /// Whether this dead end counts as a system deadlock (see
        /// [`Executor::deadend_is_deadlock`]).
        deadlock: bool,
    },
}

/// One outcome of executing a process's next transition.
pub enum SuccOutcome {
    /// The transition completed, yielding a successor state and possibly
    /// a visible event.
    State(Box<GlobalState>, Option<VisibleEvent>),
    /// The transition hit a property violation.
    Violation(ViolationKind, Option<usize>),
}

/// One child of a node expansion: the decision that reaches it, its
/// outcome, and the sleep set the child inherits under the sequential
/// stateless-DFS rules.
pub struct ChildSucc {
    /// Process whose transition produced this child.
    pub process: usize,
    /// Nondeterministic choices consumed within the transition.
    pub choices: Vec<u32>,
    /// Resulting state or violation.
    pub outcome: SuccOutcome,
    /// Sleep set the child subtree starts with, when
    /// [`Executor::expand_children`] was given one (empty otherwise); its
    /// one reader is the ledger benchmark's stepper — see
    /// `expand_children`.
    pub sleep: BTreeSet<usize>,
}

/// Arena-backed visited-store keys for one expansion: every child's
/// `(fingerprint, encoding)` pair lives as a span of one shared byte
/// buffer instead of a `Vec<u8>` of its own. The stateful engines
/// compute ~one key per transition, so the flattening removes a heap
/// allocation from the hottest per-successor path; all consumers read
/// keys by reference, and violation children hold `(0, empty)` spans
/// exactly as the per-key vectors did.
#[derive(Debug, Default)]
pub struct KeyArena {
    /// Per child: fingerprint + `(start, end)` span into `bytes`.
    index: Vec<(u64, u32, u32)>,
    /// The shared encoding arena.
    bytes: Vec<u8>,
}

impl KeyArena {
    /// Number of keys (one per child, in child order).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no child has been keyed yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The `j`-th child's key; the encoding slice is empty for
    /// violation children.
    pub fn get(&self, j: usize) -> (u64, &[u8]) {
        let (h, s, e) = self.index[j];
        (h, &self.bytes[s as usize..e as usize])
    }

    /// All keys in child order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.index
            .iter()
            .map(|&(h, s, e)| (h, &self.bytes[s as usize..e as usize]))
    }

    /// Append a key whose encoding `f` writes onto the arena, returning
    /// the fingerprint.
    pub fn push_with(&mut self, f: impl FnOnce(&mut Vec<u8>) -> u64) {
        let start = self.bytes.len() as u32;
        let h = f(&mut self.bytes);
        self.index.push((h, start, self.bytes.len() as u32));
    }

    /// Append the `(0, empty)` placeholder a violation child carries.
    pub fn push_violation(&mut self) {
        let end = self.bytes.len() as u32;
        self.index.push((0, end, end));
    }
}

/// One child of an [`Expansion`], as the stateful engines read it: the
/// decision that reaches it and, for a violating transition, what it
/// violated. There is no successor *state* here: the expansion keyed it
/// (or took its key from the transition memo without ever building it)
/// and the key is all a visited store needs.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LeanChild {
    pub decision: Decision,
    /// `None` for a successor state.
    pub violation: Option<(ViolationKind, Option<usize>)>,
}

/// One level of POR-aware expansion for the stateful engines
/// ([`Executor::expand`]): the children, their visited-store keys, and
/// the partial-order-reduction bookkeeping the drivers fold into the
/// [`crate::Report`].
pub(crate) struct Expansion {
    /// `Some(deadlock)` when the state has no enabled transition.
    pub dead_end: Option<bool>,
    /// The children in deterministic order (none at a dead end): the
    /// persistent set's successors first (each process ascending), then
    /// — only when a fallback fired — the successors of the POR-skipped
    /// processes.
    pub children: Vec<LeanChild>,
    /// Per child, aligned with `children`: the successor state's stable
    /// fingerprint and store key (`(0, empty)` for violation outcomes),
    /// so drivers admit/dedup by comparing bytes without re-encoding.
    pub keys: KeyArena,
    /// Enabled processes whose expansion POR skipped at this state
    /// (after any fallback; 0 when the fallback fired).
    pub por_skipped: usize,
    /// Whether a fallback forced full expansion here.
    pub por_fallback: bool,
}

/// Everything below one node of the decision tree, expanded one level:
/// what [`Executor::expand_children`] returns.
pub enum NodeExpansion {
    /// No enabled transitions.
    DeadEnd {
        /// Whether this dead end is a system deadlock.
        deadlock: bool,
    },
    /// The node's children, in exact sequential-DFS visit order.
    Children(Vec<ChildSucc>),
}

/// Where a step sends its successors' visible events, when its caller
/// collects traces: one per successor state, in child order.
pub(crate) type Events<'s> = Option<&'s mut Vec<Option<VisibleEvent>>>;

/// Per-driver (or per-worker) mutable execution scratch: the transition
/// budget and optional coverage accumulator. Drivers fold the fields into
/// their [`crate::Report`] when done.
#[derive(Debug)]
pub struct ExecCtx {
    /// Transitions executed so far through this context (including
    /// re-executions for choice enumeration).
    pub transitions: usize,
    /// Budget: once `transitions` reaches this, [`Executor::successors`]
    /// stops and sets `truncated`.
    pub budget: usize,
    /// Set when the budget cut enumeration short.
    pub truncated: bool,
    /// Nondeterministic choices consumed by completed successor
    /// transitions — toss outcomes plus (under enumeration) environment
    /// values. `explore --stats` reports the fold as "tosses taken".
    pub tosses_taken: usize,
    /// Over completed successor transitions, components the successor
    /// still shares with its parent (see
    /// [`GlobalState::sharing_with`]). Deterministic: during
    /// [`Executor::successors`] the parent is borrowed, so every
    /// component is shared (refcount ≥ 2) and `make_mut` copies exactly
    /// the components the transition touches, independent of worker
    /// count or timing.
    pub shared_components: usize,
    /// Denominator of the sharing ratio: total components over the same
    /// transitions.
    pub total_components: usize,
    /// Executed-node coverage, when tracking is on.
    pub coverage: Option<Coverage>,
    /// The run's component interner, when the stateful engines store
    /// compressed ID tuples; `None` keeps [`ExecCtx::state_key`] on the
    /// raw canonical encoding (`--no-compress`). The fingerprint half of
    /// the key is bit-identical either way, so POR, ranks, and reports
    /// cannot observe the choice.
    pub interner: Option<std::sync::Arc<crate::state::ComponentInterner>>,
}

impl ExecCtx {
    /// A fresh context with the given transition budget, tracking
    /// coverage iff the config asks for it.
    pub fn new(exec: &Executor<'_>, budget: usize) -> Self {
        ExecCtx {
            transitions: 0,
            budget,
            truncated: false,
            tosses_taken: 0,
            shared_components: 0,
            total_components: 0,
            coverage: if exec.config().track_coverage {
                Some(Coverage::new(exec.program()))
            } else {
                None
            },
            interner: None,
        }
    }

    /// A fresh context with the given budget and an explicit (possibly
    /// reused) coverage accumulator — parallel workers thread one
    /// accumulator through many per-item contexts instead of allocating
    /// a map per item.
    pub fn with_coverage(budget: usize, coverage: Option<Coverage>) -> Self {
        ExecCtx {
            transitions: 0,
            budget,
            truncated: false,
            tosses_taken: 0,
            shared_components: 0,
            total_components: 0,
            coverage,
            interner: None,
        }
    }

    /// The visited-store key for `state`: its fingerprint plus either
    /// the compressed ID tuple ([`GlobalState::fingerprint_and_intern`])
    /// or the raw canonical encoding, depending on whether a run
    /// interner is installed.
    pub fn state_key(&self, state: &GlobalState) -> (u64, Vec<u8>) {
        match &self.interner {
            Some(i) => state.fingerprint_and_intern(i),
            None => state.fingerprint_and_encode(),
        }
    }

    /// [`ExecCtx::state_key`] appending the encoding to a shared arena
    /// (see [`KeyArena`]) instead of allocating a vector; returns the
    /// fingerprint.
    pub fn state_key_into(&self, state: &GlobalState, out: &mut Vec<u8>) -> u64 {
        match &self.interner {
            Some(i) => state.fingerprint_and_intern_into(i, out),
            None => state.fingerprint_and_encode_into(out),
        }
    }
}

/// A program plus its static analysis and exploration config, exposing
/// the pure transition-system API every search driver runs against.
pub struct Executor<'a> {
    prog: &'a CfgProgram,
    cfg: Config,
    info: StaticInfo,
}

impl<'a> Executor<'a> {
    /// Build an executor for a validated program.
    ///
    /// # Panics
    ///
    /// Panics when `prog` fails [`cfgir::validate()`] (malformed graphs).
    pub fn new(prog: &'a CfgProgram, config: &Config) -> Self {
        cfgir::validate(prog).expect("Executor requires a validated program");
        Executor {
            prog,
            cfg: config.clone(),
            info: StaticInfo::build(prog),
        }
    }

    /// The program under exploration.
    pub fn program(&self) -> &'a CfgProgram {
        self.prog
    }

    /// The exploration configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The initial global state.
    pub fn initial(&self) -> GlobalState {
        GlobalState::initial(self.prog)
    }

    /// What a driver should do at `state`: finish initialization, branch
    /// over a set of processes, or stop at a dead end.
    pub fn schedule(&self, state: &GlobalState) -> Scheduled {
        self.schedule_por(state).0
    }

    /// [`Executor::schedule`] plus the enabled processes POR dropped
    /// (ascending; empty when POR is off, when no reduction happened, or
    /// for init/dead-end states). The stateful engines need the skipped
    /// set to implement the ignoring-proviso fallback; both outputs are
    /// pure functions of `state`, which is what keeps every engine's
    /// report jobs-invariant.
    pub fn schedule_por(&self, state: &GlobalState) -> (Scheduled, Vec<usize>) {
        let mut procs = Vec::new();
        match self.schedule_view(&self.live(state), &mut procs) {
            Schedule::Init(pid) => (Scheduled::Init(pid), Vec::new()),
            Schedule::DeadEnd { deadlock } => (Scheduled::DeadEnd { deadlock }, Vec::new()),
            Schedule::Procs { scheduled } => {
                let skipped = procs.split_off(scheduled);
                (Scheduled::Procs(procs), skipped)
            }
        }
    }

    /// `state` as the schedule rules read it.
    pub(crate) fn live<'s>(&'s self, state: &'s GlobalState) -> Live<'s> {
        Live {
            prog: self.prog,
            info: &self.info,
            state,
        }
    }

    /// The program's static footprints.
    pub(crate) fn info(&self) -> &StaticInfo {
        &self.info
    }

    /// [`Executor::schedule_por`] over any [`ProcView`], appending the
    /// scheduled and then the skipped processes to `out` (see
    /// [`crate::por::schedule`]): the one set of rules behind the live
    /// schedule and the stateless walk's ID-space one.
    pub(crate) fn schedule_view(&self, v: &impl ProcView, out: &mut Vec<usize>) -> Schedule {
        schedule(&self.info, self.cfg.por, v, out)
    }

    /// Whether a dead end at `state` counts as a system deadlock.
    ///
    /// This is the single daemon-flag rule every driver shares (DESIGN
    /// §7): synthesized environment feeders are marked `daemon` and never
    /// make a dead end a deadlock. A dead end is a deadlock iff some
    /// *non-daemon* process is stuck short of termination; a system whose
    /// every process terminated is not deadlocked.
    pub fn deadend_is_deadlock(&self, state: &GlobalState) -> bool {
        deadlock(&self.live(state))
    }

    /// Whether `u`'s and `t`'s next transitions from `state` are
    /// independent (the sleep-set hook; delegates to [`crate::por`]).
    /// Its one caller is [`Executor::expand_children`]; the stateless
    /// walk reads next objects from its facts table instead.
    pub fn independent(&self, state: &GlobalState, u: usize, t: usize) -> bool {
        independent(self.prog, state, u, t)
    }

    /// Enumerate every outcome of process `pid`'s next transition from
    /// `state` (branching over toss / environment choices), charging the
    /// executed transitions to `cx`. Every engine reaches it on a memo
    /// miss (`Executor::step`); its direct callers are the stateless walk
    /// once it has stopped recording (and its debug oracle),
    /// `closer::refine_cex`'s trace classifiers and the ledger benchmark's
    /// stepper.
    pub fn successors(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        pid: usize,
    ) -> Vec<(Vec<u32>, SuccOutcome)> {
        self.successors_noting_spawn(cx, state, pid, &mut false)
    }

    /// [`Executor::successors`], setting `spawned` when any execution of
    /// the enumeration reached a `Spawn` node (see
    /// [`execute_transition_noting_spawn`]).
    fn successors_noting_spawn(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        pid: usize,
        spawned: &mut bool,
    ) -> Vec<(Vec<u32>, SuccOutcome)> {
        let mut out = Vec::new();
        let mut pending: Vec<Vec<u32>> = vec![Vec::new()];
        while let Some(choices) = pending.pop() {
            if cx.transitions >= cx.budget {
                cx.truncated = true;
                break;
            }
            let mut s = state.clone();
            cx.transitions += 1;
            let (result, spawns) = execute_transition_noting_spawn(
                self.prog,
                &mut s,
                pid,
                &choices,
                self.cfg.env_mode,
                cx.coverage.as_mut(),
            );
            *spawned |= spawns;
            match result {
                TransitionResult::Completed { event } => {
                    let (shared, total) = s.sharing_with(state);
                    cx.shared_components += shared;
                    cx.total_components += total;
                    cx.tosses_taken += choices.len();
                    out.push((choices, SuccOutcome::State(Box::new(s), event)));
                }
                TransitionResult::NeedChoice { bound } => {
                    // Push in reverse so choice 0 is explored first.
                    for c in (0..=bound).rev() {
                        let mut cs = choices.clone();
                        cs.push(c);
                        pending.push(cs);
                    }
                }
                TransitionResult::AssertViolation => {
                    out.push((
                        choices,
                        SuccOutcome::Violation(ViolationKind::AssertionViolation, Some(pid)),
                    ));
                }
                TransitionResult::RuntimeError(e) => {
                    out.push((
                        choices,
                        SuccOutcome::Violation(ViolationKind::RuntimeError(e), Some(pid)),
                    ));
                }
                TransitionResult::Diverged => {
                    out.push((
                        choices,
                        SuccOutcome::Violation(ViolationKind::Divergence, Some(pid)),
                    ));
                }
            }
        }
        out
    }

    /// Expand one node of the decision tree a single level, in exact
    /// sequential visit order: initialization first (lowest pid), then
    /// each scheduled process's outcomes.
    ///
    /// With `sleep: Some(..)` the stateless-DFS sleep-set rules apply —
    /// sleeping processes are skipped and per-child sleep sets are
    /// computed from the done-list, exactly as
    /// [`Engine::Stateless`](crate::Engine::Stateless) visits them. With `None` (the
    /// explicit-state engines, which prune by visited states instead)
    /// no sleep bookkeeping is done and children carry empty sets.
    ///
    /// Enumeration charges `cx` and stops early when the budget runs
    /// out (`cx.truncated`), leaving the child list a prefix of the
    /// full one — callers treat that as a truncated run.
    ///
    /// No engine in this crate calls this: [`crate::search`]'s stateless
    /// walk interleaves the same rules with its recursion, in ID space.
    /// It stays because the ledger benchmark's stepper
    /// (`crates/bench/src/bin/ledger`, whose sources a product change may
    /// not edit) re-states the stateless search over it; that package's
    /// `stepper` tests hold its counts equal to `Engine::Stateless`'s,
    /// which is this method's check. ROADMAP 3a(ii) deletes the stepper
    /// and this method together.
    pub fn expand_children(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        sleep: Option<&BTreeSet<usize>>,
    ) -> NodeExpansion {
        let mut children = Vec::new();
        let (sched, skipped) = self.schedule_por(state);
        match sched {
            Scheduled::DeadEnd { deadlock } => return NodeExpansion::DeadEnd { deadlock },
            Scheduled::Init(pid) => {
                for (choices, outcome) in self.successors(cx, state, pid) {
                    children.push(ChildSucc {
                        process: pid,
                        choices,
                        outcome,
                        sleep: sleep.cloned().unwrap_or_default(),
                    });
                }
            }
            Scheduled::Procs(procs) => {
                let use_sleep = self.cfg.sleep_sets && sleep.is_some();
                let empty = BTreeSet::new();
                let sleep = sleep.unwrap_or(&empty);
                let mut done: Vec<usize> = Vec::new();
                let mut queue = procs;
                let mut fell_back = false;
                let mut i = 0;
                while i < queue.len() {
                    let t = queue[i];
                    i += 1;
                    if cx.truncated {
                        break;
                    }
                    if use_sleep && sleep.contains(&t) {
                        continue;
                    }
                    let child_sleep: BTreeSet<usize> = if use_sleep {
                        sleep
                            .iter()
                            .chain(done.iter())
                            .copied()
                            .filter(|u| self.independent(state, *u, t))
                            .collect()
                    } else {
                        BTreeSet::new()
                    };
                    let before = children.len();
                    for (choices, outcome) in self.successors(cx, state, t) {
                        children.push(ChildSucc {
                            process: t,
                            choices,
                            outcome,
                            sleep: child_sleep.clone(),
                        });
                    }
                    // Sleep sets may treat `t` as "explored here" only if
                    // its whole subtree really was: a Violation outcome
                    // cuts the branch, so `t` must keep appearing in the
                    // siblings' subtrees.
                    if !children[before..]
                        .iter()
                        .any(|c| matches!(c.outcome, SuccOutcome::Violation(..)))
                    {
                        done.push(t);
                    }
                    // A Violation child cuts its path short, voiding the
                    // persistent-set assumption that the search keeps
                    // running past every selected transition — expand the
                    // skipped processes too (see `Executor::expand`).
                    if !fell_back
                        && i == queue.len()
                        && !skipped.is_empty()
                        && children
                            .iter()
                            .any(|c| matches!(c.outcome, SuccOutcome::Violation(..)))
                    {
                        fell_back = true;
                        queue.extend(skipped.iter().copied());
                    }
                }
            }
        }
        NodeExpansion::Children(children)
    }

    /// Expand one node for the stateful engines: POR-reduced through
    /// [`Executor::schedule_por`], with the **ignoring/cycle proviso**
    /// applied — when the persistent set's expansion produces a
    /// successor for which `closes_cycle(fingerprint, key)` holds (the
    /// driver's visited store already contains it, so the edge may close
    /// a cycle in the explored graph), the skipped processes are expanded
    /// too, restoring full expansion at this state.
    ///
    /// Persistent sets alone preserve every deadlock of a finite state
    /// space, but on cyclic graphs a process whose transitions are
    /// independent of the cycle can be *ignored* forever, hiding its
    /// assertion violations. The proviso closes that hole: every cycle
    /// of the reduced graph contains, at the last of its states to be
    /// expanded, an edge to an already-visited state — so that state is
    /// fully expanded and nothing is ignored around the cycle. The test
    /// is conservative (confluent diamonds trigger it too), trading some
    /// reduction for soundness, and it holds for any exploration order:
    /// depth-first or level by level.
    ///
    /// Both the selection and the fallback are pure functions of
    /// `(state, closes_cycle)`; drivers keep the predicate
    /// timing-independent (the DFS consults its visited set, the frontier
    /// engine only *sealed* entries, fixed for a whole round), so reports
    /// stay byte-identical for any worker count.
    ///
    /// When `cx` carries the run's interner, each process's outcomes go
    /// through the lent component cache and transition memo (DESIGN §15):
    /// they are looked up under `(its component ID, the ID of its leading
    /// visible operation's object)` and, on a hit, each child's key is the
    /// parent's tuple with one or two IDs replaced — no successor state
    /// exists on that path. Without an interner (`--no-compress`) `lent`
    /// goes unused and every transition goes through the interpreter,
    /// which is what makes that mode the memo's reference.
    pub(crate) fn expand(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        mut lent: (&mut ComponentCache, &mut TransitionMemo),
        closes_cycle: impl Fn(u64, &[u8]) -> bool,
    ) -> Expansion {
        if let Some(interner) = &cx.interner {
            lent.1.view(interner, state);
        }
        let mut step = |cx: &mut ExecCtx, e: &mut Expansion, pid| {
            self.step(
                cx,
                &mut lent,
                state,
                pid,
                (&mut e.children, &mut e.keys),
                None,
            );
        };
        let (sched, skipped) = self.schedule_por(state);
        let mut e = Expansion {
            dead_end: None,
            children: Vec::new(),
            keys: KeyArena::default(),
            por_skipped: 0,
            por_fallback: false,
        };
        match sched {
            Scheduled::DeadEnd { deadlock } => e.dead_end = Some(deadlock),
            Scheduled::Init(pid) => step(cx, &mut e, pid),
            Scheduled::Procs(procs) => {
                for &t in &procs {
                    if cx.truncated {
                        break;
                    }
                    step(cx, &mut e, t);
                }
                e.por_skipped = skipped.len();
                // Two fallbacks to full expansion. (1) The proviso: a
                // State child (nonempty key) already known to the
                // driver's store may close a cycle — expand everything so
                // nothing is ignored around it. (2) A Violation child
                // (empty key): the persistent-set argument assumes
                // every selected transition leads to a successor the
                // search keeps exploring, but a violating transition
                // *cuts* its path — a skipped process whose own violation
                // was simultaneously enabled (e.g. two processes both at
                // failing assertions) would be masked for good. Violating
                // states are rare, so expanding them fully costs almost
                // nothing and restores verdict-set completeness.
                if !skipped.is_empty()
                    && !cx.truncated
                    && (e.keys.iter().any(|(_, key)| key.is_empty())
                        || e.keys.iter().any(|(h, key)| closes_cycle(h, key)))
                {
                    e.por_fallback = true;
                    e.por_skipped = 0;
                    for &t in &skipped {
                        if cx.truncated {
                            break;
                        }
                        step(cx, &mut e, t);
                    }
                }
            }
        }
        e
    }

    /// Process `pid`'s outcomes from `state`, appended to `children` and
    /// `keys` (and each outcome's visible event to `events`, when given):
    /// through the lent cache and memo when `cx` carries the run's
    /// interner — the memo must then view `state` — and through the
    /// interpreter otherwise (`--no-compress`), which is what makes that
    /// mode the memo's reference.
    pub(crate) fn step(
        &self,
        cx: &mut ExecCtx,
        lent: &mut (&mut ComponentCache, &mut TransitionMemo),
        state: &GlobalState,
        pid: usize,
        out: (&mut Vec<LeanChild>, &mut KeyArena),
        mut events: Events<'_>,
    ) {
        if cx.interner.is_some() {
            self.step_through_memo(cx, lent, state, pid, out, events);
        } else {
            let (children, keys) = out;
            self.step_interpreted(cx, state, pid, children, keys, |_, outcome| {
                if let (Some(events), SuccOutcome::State(_, ev)) = (events.as_deref_mut(), outcome)
                {
                    events.push(ev.clone());
                }
            });
        }
    }

    /// Process `pid`'s outcomes from `state` through the interpreter,
    /// each keyed and appended as a [`LeanChild`]; `each` sees every
    /// outcome once it is keyed (so a successor's intern memos are warm).
    /// Returns whether a `Spawn` node was executed.
    fn step_interpreted(
        &self,
        cx: &mut ExecCtx,
        state: &GlobalState,
        pid: usize,
        children: &mut Vec<LeanChild>,
        keys: &mut KeyArena,
        mut each: impl FnMut(&[u32], &SuccOutcome),
    ) -> bool {
        let mut spawned = false;
        for (choices, outcome) in self.successors_noting_spawn(cx, state, pid, &mut spawned) {
            match &outcome {
                SuccOutcome::State(s, _) => keys.push_with(|out| cx.state_key_into(s, out)),
                SuccOutcome::Violation(..) => keys.push_violation(),
            }
            each(&choices, &outcome);
            children.push(LeanChild {
                decision: Decision {
                    process: pid,
                    choices,
                },
                violation: match outcome {
                    SuccOutcome::State(..) => None,
                    SuccOutcome::Violation(kind, process) => Some((kind, process)),
                },
            });
        }
        spawned
    }

    /// Process `pid`'s outcomes from the state `memo` views: from the
    /// memo when it has them and the item's budget covers them, through
    /// the interpreter otherwise — recording the answer unless the
    /// transition spawned or the budget cut the enumeration short.
    fn step_through_memo(
        &self,
        cx: &mut ExecCtx,
        (cache, memo): &mut (&mut ComponentCache, &mut TransitionMemo),
        state: &GlobalState,
        pid: usize,
        (children, keys): (&mut Vec<LeanChild>, &mut KeyArena),
        mut events: Events<'_>,
    ) {
        let object = next_op_object(self.prog, state, pid).map(|o| o.index());
        let key = memo.key(pid, object);
        let left = cx.budget.saturating_sub(cx.transitions);
        match memo.get(key) {
            Some(entry) if entry.executions <= left => {
                let first = children.len();
                let mut completed = 0;
                for (choices, outcome) in &entry.outcomes {
                    let violation = match outcome {
                        MemoOutcome::State {
                            proc,
                            object: wrote,
                            event,
                        } => {
                            completed += 1;
                            let wrote = object.zip(wrote.as_ref());
                            keys.push_with(|out| memo.child_key(pid, proc, wrote, out));
                            if let Some(events) = events.as_deref_mut() {
                                events.push(
                                    event.clone().map(|op| VisibleEvent { process: pid, op }),
                                );
                            }
                            None
                        }
                        MemoOutcome::Violation(kind) => {
                            keys.push_violation();
                            Some((kind.clone(), Some(pid)))
                        }
                    };
                    children.push(LeanChild {
                        decision: Decision {
                            process: pid,
                            choices: choices.clone(),
                        },
                        violation,
                    });
                }
                let total = completed * memo.components();
                let charged = [
                    entry.executions,
                    entry.tosses_taken,
                    total - entry.unshared,
                    total,
                ];
                if cfg!(debug_assertions) {
                    let events = events.as_deref().map(|e| &e[e.len() - completed..]);
                    self.assert_hit_is_what_the_interpreter_does(
                        cx,
                        state,
                        pid,
                        (&children[first..], keys, charged),
                        events,
                    );
                }
                cx.transitions += charged[0];
                cx.tosses_taken += charged[1];
                cx.shared_components += charged[2];
                cx.total_components += charged[3];
                memo.stats.hits += 1;
            }
            _ => {
                let before = (cx.transitions, cx.tosses_taken);
                let mut entry = MemoEntry::default();
                let spawned =
                    self.step_interpreted(cx, state, pid, children, keys, |choices, outcome| {
                        let outcome = match outcome {
                            SuccOutcome::State(s, ev) => {
                                let (proc, wrote, unshared) =
                                    memo.observe(cache, state, s, pid, object);
                                entry.unshared += unshared;
                                if let Some(events) = events.as_deref_mut() {
                                    events.push(ev.clone());
                                }
                                MemoOutcome::State {
                                    proc,
                                    object: wrote,
                                    event: ev.as_ref().map(|e| e.op.clone()),
                                }
                            }
                            SuccOutcome::Violation(kind, _) => MemoOutcome::Violation(kind.clone()),
                        };
                        entry.outcomes.push((choices.to_vec(), outcome));
                    });
                if spawned {
                    memo.stats.bypass_spawn += 1;
                } else if cx.truncated {
                    memo.stats.bypass_budget += 1;
                } else {
                    entry.executions = cx.transitions - before.0;
                    entry.tosses_taken = cx.tosses_taken - before.1;
                    memo.record(key, entry);
                    memo.stats.misses += 1;
                }
            }
        }
    }

    /// The debug-build oracle of a memo hit: run the interpreter on the
    /// same process of the same state, under the budget the hit saw and
    /// with no coverage sink (a hit marks nothing), and require the same
    /// children, the same keys and fingerprints, the same charges to
    /// `cx`, and — when the hit produced them — the same visible events of
    /// the successor states. This is what makes `cargo test` a
    /// differential run of the memo against the interpreter.
    fn assert_hit_is_what_the_interpreter_does(
        &self,
        cx: &ExecCtx,
        state: &GlobalState,
        pid: usize,
        (children, keys, charged): (&[LeanChild], &KeyArena, [usize; 4]),
        events: Option<&[Option<VisibleEvent>]>,
    ) {
        let mut oracle = ExecCtx::with_coverage(cx.budget - cx.transitions, None);
        oracle.interner = cx.interner.clone();
        let (mut want, mut want_keys, mut want_events) =
            (Vec::new(), KeyArena::default(), Vec::new());
        let spawned = self.step_interpreted(
            &mut oracle,
            state,
            pid,
            &mut want,
            &mut want_keys,
            |_, outcome| {
                if let SuccOutcome::State(_, ev) = outcome {
                    want_events.push(ev.clone());
                }
            },
        );
        if let Some(events) = events {
            assert_eq!(events, want_events, "memoised events of process {pid}");
        }
        assert!(!spawned, "a spawning transition was memoised");
        assert!(!oracle.truncated, "a hit was taken past the item's budget");
        assert_eq!(children, want, "memoised outcomes of process {pid}");
        let first = keys.len() - children.len();
        for j in 0..want.len() {
            assert_eq!(keys.get(first + j), want_keys.get(j), "memoised key {j}");
        }
        let interpreted = [
            oracle.transitions,
            oracle.tosses_taken,
            oracle.shared_components,
            oracle.total_components,
        ];
        assert_eq!(charged, interpreted, "memoised charges of process {pid}");
    }

    /// Replay a decision sequence from the initial state, returning the
    /// final state (VeriSoft's deterministic replay feature).
    ///
    /// # Errors
    ///
    /// Returns the failing [`TransitionResult`] when the trace does not
    /// replay cleanly (e.g. it ends in the recorded violation).
    pub fn replay(&self, trace: &[Decision]) -> Result<GlobalState, TransitionResult> {
        let mut state = self.initial();
        for d in trace {
            let r = execute_transition_with(
                self.prog,
                &mut state,
                d.process,
                &d.choices,
                self.cfg.env_mode,
                None,
            );
            match r {
                TransitionResult::Completed { .. } => {}
                other => return Err(other),
            }
        }
        Ok(state)
    }
}
