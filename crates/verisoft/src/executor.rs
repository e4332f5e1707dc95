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
//! Every engine takes one ID-space step (DESIGN §15): a node is its
//! component IDs, scheduled from the facts table
//! (`Executor::schedule_node`), its outcomes taken from the transition
//! memo (`Executor::hit`, `Executor::take_hit`, with one debug oracle),
//! and it is built (`Executor::build`) only when a lookup misses; a built
//! node steps through `Executor::step` — the transition memo, or the
//! interpreter on a miss. The stateful engines drive that step through
//! `Executor::expand`, the stateless walk through its recursion.
//! [`Executor::expand_children`] (with [`NodeExpansion`] and
//! [`ChildSucc`]) and [`Executor::independent`] have only the ledger
//! benchmark's stepper as callers; [`Executor::successors`] also has
//! `closer::refine_cex`'s trace classifiers.

use crate::coverage::Coverage;
use crate::interp::{
    execute_transition_noting_spawn, execute_transition_with, next_op_object, TransitionResult,
    VisibleEvent,
};
use crate::por::{independent, schedule, Live, ProcView, Schedule, StaticInfo};
use crate::report::{Decision, ViolationKind};
use crate::search::stateful::UNDECODABLE;
use crate::search::Config;
use crate::state::intern::{raw_len_of, read_tuple, MemoEntry, MemoOutcome};
use crate::state::{decode_state, ComponentCache, GlobalState, TransitionMemo};
use cfgir::CfgProgram;
use std::collections::BTreeSet;
use std::ops::Range;

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
        /// Whether this dead end counts as a system deadlock: the
        /// schedule's deadlock rule, one for every engine (DESIGN §7),
        /// makes it one iff some non-daemon process is stuck short of
        /// termination.
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

    /// The keys from the `first`-th on, in child order.
    pub fn iter_from(&self, first: usize) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.index[first..]
            .iter()
            .map(|&(h, s, e)| (h, &self.bytes[s as usize..e as usize]))
    }

    /// Append a key whose encoding `f` writes onto the arena, returning
    /// the fingerprint.
    pub fn push_with(&mut self, f: impl FnOnce(&mut Vec<u8>) -> u64) {
        let start = self.end();
        let h = f(&mut self.bytes);
        let end = self.end();
        self.index.push((h, start, end));
    }

    /// Append the `(0, empty)` placeholder a violation child carries.
    pub fn push_violation(&mut self) {
        let end = self.end();
        self.index.push((0, end, end));
    }

    /// Drop every key, keeping the buffers for the next ones.
    pub fn clear(&mut self) {
        self.index.clear();
        self.bytes.clear();
    }

    fn end(&self) -> u32 {
        u32::try_from(self.bytes.len()).expect("a key arena holds under 4 GiB")
    }
}

/// One child of an [`Expansion`], as the stateful engines read it: the
/// decision that reaches it and, for a violating transition, what it
/// violated. There is no successor *state* here: the expansion keyed it
/// (or took its key from the transition memo without ever building it)
/// and the key is all a visited store needs.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct LeanChild {
    pub decision: Decision,
    /// `None` for a successor state.
    pub violation: Option<(ViolationKind, Option<usize>)>,
}

/// Where the stateful engines' expansions put their children: one per
/// worker, appended to item after item and cleared once the items'
/// children are consumed (a frontier chunk committed, a DFS item pushed),
/// so an expanded item allocates no vector of its own.
#[derive(Debug, Default)]
pub(crate) struct ExpandArena {
    /// The children of every expansion since the last clear.
    pub children: Vec<LeanChild>,
    /// Per child, aligned with `children`: the successor state's stable
    /// fingerprint and store key (`(0, empty)` for violation outcomes),
    /// so drivers admit/dedup by comparing bytes without re-encoding.
    pub keys: KeyArena,
    /// The processes of the item being expanded: scheduled (or the one
    /// initialising), then skipped.
    procs: Vec<usize>,
    /// The component IDs of the item being expanded, under an interner.
    ids: Vec<u32>,
}

impl ExpandArena {
    /// Drop every child, keeping the buffers for the next ones.
    pub fn clear(&mut self) {
        self.children.clear();
        self.keys.clear();
    }
}

/// One level of POR-aware expansion for the stateful engines
/// ([`Executor::expand`]): where its children are in the worker's
/// [`ExpandArena`], and the partial-order-reduction bookkeeping the
/// drivers fold into the [`crate::Report`].
pub(crate) struct Expansion {
    /// `Some(deadlock)` when the state has no enabled transition.
    pub dead_end: Option<bool>,
    /// The children's indices in the arena, in deterministic order (none
    /// at a dead end): the persistent set's successors first (each
    /// process ascending), then — only when a fallback fired — the
    /// successors of the POR-skipped processes.
    pub children: Range<usize>,
    /// Enabled processes whose expansion POR skipped at this state
    /// (after any fallback; 0 when the fallback fired).
    pub por_skipped: usize,
    /// Whether a fallback forced full expansion here.
    pub por_fallback: bool,
}

/// A worker's component cache and transition memo, lent to the step.
pub(crate) type Lent<'l> = (&'l mut ComponentCache, &'l mut TransitionMemo);

/// Where a node's component IDs are in its engine's ID buffer:
/// `start..end`, `nprocs` process IDs and then the object IDs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ids {
    pub start: usize,
    pub end: usize,
    pub nprocs: usize,
}

impl Ids {
    /// The IDs in `buf`, and the process count.
    pub fn of(self, buf: &[u32]) -> (&[u32], usize) {
        (&buf[self.start..self.end], self.nprocs)
    }
}

/// A node of the decision tree as the ID-space step reads it (DESIGN
/// §15): its component IDs while the run interns, the state built from
/// them once a lookup missed (or the node's only form, without IDs), and
/// in debug builds the state built only to check what ID space said.
/// The states are boxed: a node is moved down the walk's recursion, and
/// a boxed state costs it one word.
pub(crate) struct Node {
    pub ids: Option<Ids>,
    pub state: Option<Box<GlobalState>>,
    pub oracle: Option<Box<GlobalState>>,
}

impl Node {
    /// A node known by its IDs alone.
    pub fn ids(ids: Ids) -> Node {
        Node {
            ids: Some(ids),
            state: None,
            oracle: None,
        }
    }

    /// A node that is a built state, with no IDs.
    pub fn built(state: Box<GlobalState>) -> Node {
        Node {
            ids: None,
            state: Some(state),
            oracle: None,
        }
    }
}

/// Whether a node whose scheduled processes are all stepped must step
/// the `skipped` ones POR left out too. A violation child (`violated`)
/// cuts its path short, voiding the persistent-set assumption that the
/// search keeps running past every selected transition: a skipped
/// process whose own violation was enabled beside it would be masked for
/// good. Violating states are rare, so expanding them fully costs almost
/// nothing and restores verdict-set completeness. The stateful engines
/// add the cycle proviso (see [`Executor::expand`]); the stateless walk,
/// which stores nothing, has none.
pub(crate) fn expands_skipped(
    skipped: usize,
    violated: bool,
    proviso: impl FnOnce() -> bool,
) -> bool {
    skipped > 0 && (violated || proviso())
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
    /// miss (`Executor::step`) and, in debug builds, through the one memo
    /// hit oracle; its direct callers are the stateless walk once it has
    /// stopped recording, `closer::refine_cex`'s trace classifiers and the
    /// ledger benchmark's stepper.
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

    /// Expand the state whose store key is `key` one level for the
    /// stateful engines, appending its children and their keys to
    /// `arena`: POR-reduced, with the **ignoring/cycle proviso** applied —
    /// when the persistent set's expansion produces a successor for which
    /// `closes_cycle(fingerprint, key)` holds (the driver's visited store
    /// already contains it, so the edge may close a cycle in the explored
    /// graph), the skipped processes are expanded too, restoring full
    /// expansion at this state. So does a violation child, as in every
    /// engine ([`expands_skipped`]).
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
    /// When `cx` carries the run's interner the state is expanded **in
    /// ID space** while it can be, by the step the stateless walk takes
    /// too (DESIGN §14, §15): the key's IDs are the [`Node`], the lent
    /// memo views them through the lent cache (so each child's key is the
    /// parent's tuple with one or two IDs replaced), the schedule comes
    /// from the facts table ([`Executor::schedule_node`]) and each
    /// process's outcomes from the memo ([`Executor::hit`]). The state is
    /// built — once, through the cache ([`Executor::build`]) — only on
    /// the first miss: a component this worker has not cached, a fact or
    /// an enabledness not recorded, a memo miss, a spawn, or a budget too
    /// short for the recorded answer; the rest of the item then goes
    /// through `Executor::step` on it. Without an interner
    /// (`--no-compress`) the key is decoded, `lent` goes unused and every
    /// transition goes through the interpreter, which is what makes that
    /// mode the memo's reference.
    pub(crate) fn expand(
        &self,
        cx: &mut ExecCtx,
        key: &[u8],
        mut lent: Lent<'_>,
        arena: &mut ExpandArena,
        closes_cycle: impl Fn(u64, &[u8]) -> bool,
    ) -> Expansion {
        let ExpandArena {
            children,
            keys,
            procs,
            ids,
        } = arena;
        let first = children.len();
        procs.clear();
        let mut node = match cx.interner.as_deref() {
            Some(interner) => {
                ids.clear();
                let nprocs = read_tuple(key, ids).expect(UNDECODABLE);
                let raw = raw_len_of(key).expect(UNDECODABLE);
                let mut node = Node::ids(Ids {
                    start: 0,
                    end: ids.len(),
                    nprocs,
                });
                let (cache, memo) = &mut lent;
                if !memo.view_ids(interner, cache, (ids, nprocs), raw) {
                    let state = self.build(cx, &mut lent, ids, &mut node, true);
                    lent.1.view(interner, state);
                }
                node
            }
            None => Node::built(Box::new(decode_state(key).expect(UNDECODABLE))),
        };
        let mut dead_end = None;
        let scheduled = match self.schedule_node(cx, &mut lent, ids, &mut node, true, procs) {
            Schedule::DeadEnd { deadlock } => {
                dead_end = Some(deadlock);
                0
            }
            Schedule::Init(pid) => {
                procs.push(pid);
                1
            }
            Schedule::Procs { scheduled } => scheduled,
        };
        let (mut i, mut end, mut fell_back) = (0, scheduled, false);
        while i < end && !cx.truncated {
            let (t, out) = (procs[i], (&mut *children, &mut *keys));
            match self.hit(cx, lent.1, ids, &node, t) {
                Some(hit) => {
                    let oracle = node.oracle.as_deref();
                    self.hit_children(cx, lent.1, (t, hit), out, None, oracle);
                }
                None => {
                    let state = self.build(cx, &mut lent, ids, &mut node, true);
                    self.step(cx, &mut lent, state, t, out, None);
                }
            }
            i += 1;
            // A violation child has an empty key; the proviso asks
            // whether a State child's is in the store already.
            if i == scheduled
                && !cx.truncated
                && expands_skipped(
                    procs.len() - scheduled,
                    keys.iter_from(first).any(|(_, key)| key.is_empty()),
                    || keys.iter_from(first).any(|(h, key)| closes_cycle(h, key)),
                )
            {
                fell_back = true;
                end = procs.len();
            }
        }
        Expansion {
            dead_end,
            children: first..children.len(),
            por_skipped: if fell_back {
                0
            } else {
                procs.len() - scheduled
            },
            por_fallback: fell_back,
        }
    }

    /// Schedule `node`, appending its processes to `out` as
    /// [`crate::por::schedule`] does — the one place every engine
    /// schedules a node. While the node is known by its IDs alone the
    /// facts table answers, and debug builds check the answer against the
    /// state built for the purpose, kept as the node's oracle; when the
    /// table misses, the node's state is built ([`Executor::build`],
    /// teaching the table with `learn`) and schedules live.
    #[inline]
    pub(crate) fn schedule_node(
        &self,
        cx: &ExecCtx,
        lent: &mut Lent<'_>,
        buf: &[u32],
        node: &mut Node,
        learn: bool,
        out: &mut Vec<usize>,
    ) -> Schedule {
        if let (Some(ids), None) = (node.ids, &node.state) {
            let (start, ids) = (out.len(), ids.of(buf));
            if let Some(sched) = lent.1.schedule_known(self, ids, out) {
                if cfg!(debug_assertions) {
                    let o = self.materialize(cx, lent.0, ids);
                    let mut want = Vec::new();
                    let live = self.schedule_view(&self.live(&o), &mut want);
                    assert_eq!(sched, live, "schedule from facts");
                    assert_eq!(out[start..], want[..], "scheduled processes from facts");
                    node.oracle = Some(Box::new(o));
                }
                return sched;
            }
        }
        let state = self.build(cx, lent, buf, node, learn);
        self.schedule_view(&self.live(state), out)
    }

    /// The state of the component IDs `(ids, nprocs)`, through `cache`.
    pub(crate) fn materialize(
        &self,
        cx: &ExecCtx,
        cache: &mut ComponentCache,
        (ids, nprocs): (&[u32], usize),
    ) -> GlobalState {
        let interner = cx
            .interner
            .as_deref()
            .expect("IDs exist only under an interner");
        (interner.materialize_ids(cache, nprocs, ids)).expect("a node's IDs are interned")
    }

    /// `node`'s state, built from its IDs through the lent cache if it was
    /// not — because ID space could not answer for it: the build is
    /// counted in the memo's stats and, with `learn`, the facts table
    /// learns what the state shows.
    pub(crate) fn build<'n>(
        &self,
        cx: &ExecCtx,
        (cache, memo): &mut Lent<'_>,
        buf: &[u32],
        node: &'n mut Node,
        learn: bool,
    ) -> &'n GlobalState {
        let Node { ids, state, .. } = node;
        state.get_or_insert_with(|| {
            let ids = ids.expect("a node is its IDs or a built state").of(buf);
            let state = self.materialize(cx, cache, ids);
            memo.stats.materialised += 1;
            if learn {
                memo.learn(self, ids, &state);
            }
            Box::new(state)
        })
    }

    /// The memo entry of process `t`'s next transition at `node` in ID
    /// space — while the node is not built and the budget left covers the
    /// entry's recorded executions — with the index of the object of
    /// `t`'s leading visible operation.
    #[inline]
    pub(crate) fn hit(
        &self,
        cx: &ExecCtx,
        memo: &TransitionMemo,
        buf: &[u32],
        node: &Node,
        t: usize,
    ) -> Option<(u32, Option<usize>)> {
        if node.state.is_some() {
            return None;
        }
        let left = cx.budget.saturating_sub(cx.transitions);
        memo.hit(node.ids?.of(buf), t, left)
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
        lent: &mut Lent<'_>,
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
        (cache, memo): &mut Lent<'_>,
        state: &GlobalState,
        pid: usize,
        (children, keys): (&mut Vec<LeanChild>, &mut KeyArena),
        mut events: Events<'_>,
    ) {
        let object = next_op_object(self.prog, state, pid).map(|o| o.index());
        let key = memo.key(pid, object);
        let left = cx.budget.saturating_sub(cx.transitions);
        match memo.covered(key, left) {
            Some(entry) => {
                let oracle = cfg!(debug_assertions).then_some(state);
                let hit = (pid, (entry, object));
                self.hit_children(cx, memo, hit, (children, keys), events, oracle);
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

    /// Process `pid`'s children from memo entry `entry`, taken through
    /// [`Executor::take_hit`], `object` being the index of its leading
    /// visible operation's object: each appended to `children` and keyed
    /// from the viewed state's IDs (and its visible event appended to
    /// `events`, when given). With `oracle`, each key is held against the
    /// interpreted successor's.
    fn hit_children(
        &self,
        cx: &mut ExecCtx,
        memo: &mut TransitionMemo,
        (pid, (entry, object)): (usize, (u32, Option<usize>)),
        (children, keys): (&mut Vec<LeanChild>, &mut KeyArena),
        mut events: Events<'_>,
        oracle: Option<&GlobalState>,
    ) {
        let components = memo.components();
        let interpreted = self.take_hit(cx, memo, (pid, (entry, object)), components, oracle);
        let mut interpreted = interpreted.iter();
        for (choices, outcome) in &memo.entry(entry).outcomes {
            let violation = match outcome {
                MemoOutcome::State {
                    proc,
                    object: wrote,
                    event,
                } => {
                    let wrote = object.zip(wrote.as_ref());
                    keys.push_with(|out| memo.child_key(pid, proc, wrote, out));
                    if let Some(want) = interpreted.next() {
                        let (h, key) = cx.state_key(want);
                        let got = keys.get(keys.len() - 1);
                        assert_eq!(got, (h, &key[..]), "memoised key of P{pid}");
                    }
                    if let Some(events) = events.as_deref_mut() {
                        events.push(event.clone().map(|op| VisibleEvent { process: pid, op }));
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
    }

    /// Every engine's one memo-hit path: take entry `entry` for process
    /// `pid` at a node of `components` components (`object` indexing its
    /// leading visible operation's object), charging `cx` what the
    /// interpreter would have and counting the hit. With `oracle` (the
    /// node, built in debug builds) the entry is first held against the
    /// interpreter ([`Executor::assert_hit`]), whose successor states are
    /// returned for the caller to hold its own children against; the
    /// vector is empty, and allocates nothing, otherwise.
    #[inline]
    pub(crate) fn take_hit(
        &self,
        cx: &mut ExecCtx,
        memo: &mut TransitionMemo,
        (pid, (entry, object)): (usize, (u32, Option<usize>)),
        components: usize,
        oracle: Option<&GlobalState>,
    ) -> Vec<GlobalState> {
        let e = memo.entry(entry);
        let completed = (e.outcomes.iter())
            .filter(|(_, o)| matches!(o, MemoOutcome::State { .. }))
            .count();
        let total = completed * components;
        let charged = [e.executions, e.tosses_taken, total - e.unshared, total];
        let interpreted = match oracle {
            Some(state) => self.assert_hit(cx, state, (pid, object), e, charged),
            None => Vec::new(),
        };
        cx.transitions += charged[0];
        cx.tosses_taken += charged[1];
        cx.shared_components += charged[2];
        cx.total_components += charged[3];
        memo.stats.hits += 1;
        interpreted
    }

    /// The debug-build oracle of a memo hit, the one every engine runs:
    /// interpret process `pid` of `state` under the budget the hit saw and
    /// with no coverage sink (a hit marks nothing), and require the
    /// entry's choices, violations, visible events and `charged`, and each
    /// successor to be `state` with the process — and, when the entry says
    /// the transition wrote it, the object `object` — replaced by the
    /// component the entry names. Returns the interpreted successor
    /// states. This is what makes `cargo test` a differential run of the
    /// memo against the interpreter.
    fn assert_hit(
        &self,
        cx: &ExecCtx,
        state: &GlobalState,
        (pid, object): (usize, Option<usize>),
        entry: &MemoEntry,
        charged: [usize; 4],
    ) -> Vec<GlobalState> {
        let interner = cx.interner.as_deref().expect("hits need an interner");
        let mut oracle = ExecCtx::with_coverage(cx.budget.saturating_sub(cx.transitions), None);
        let mut spawned = false;
        let succs = self.successors_noting_spawn(&mut oracle, state, pid, &mut spawned);
        assert!(!spawned, "a spawning transition was memoised");
        assert!(!oracle.truncated, "a hit was taken past the budget");
        let interpreted = [
            oracle.transitions,
            oracle.tosses_taken,
            oracle.shared_components,
            oracle.total_components,
        ];
        assert_eq!(charged, interpreted, "memoised charges of P{pid}");
        let outcomes = &entry.outcomes;
        assert_eq!(outcomes.len(), succs.len(), "memoised outcomes of P{pid}");
        let mut states = Vec::new();
        for ((choices, outcome), (want_choices, want)) in outcomes.iter().zip(succs) {
            assert_eq!(*choices, want_choices, "memoised choices of P{pid}");
            match (outcome, want) {
                (
                    MemoOutcome::State {
                        proc,
                        object: wrote,
                        event,
                    },
                    SuccOutcome::State(s, ev),
                ) => {
                    assert_eq!(*event, ev.map(|e| e.op), "memoised event of P{pid}");
                    assert!(
                        proc.denotes(interner, &*s.procs[pid]),
                        "memoised process of P{pid}"
                    );
                    if let Some(o) = object {
                        let replaced = match wrote {
                            Some(c) => c.denotes(interner, &*s.objects[o]),
                            None => s.objects[o] == state.objects[o],
                        };
                        assert!(replaced, "memoised object {o} of P{pid}");
                    }
                    states.push(*s);
                }
                (MemoOutcome::Violation(kind), SuccOutcome::Violation(want, p)) => {
                    assert_eq!(
                        (kind, p),
                        (&want, Some(pid)),
                        "memoised violation of P{pid}"
                    );
                }
                _ => panic!("memoised outcome kind of P{pid}"),
            }
        }
        states
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ComponentInterner;
    use std::sync::Arc;

    /// Process 0's first transition sends on `c` — writing the channel,
    /// the object of its visible operation — and then tosses, so its memo
    /// entry has two outcomes with choices `[0]` and `[1]`, each replacing
    /// the process and the channel.
    const SEND_THEN_TOSS: &str = "chan c[2]; \
         proc m() { send(c, 1); int x = VS_toss(1); send(c, x); } \
         process m();";

    /// Record process 0's entry at the first `send` of
    /// [`SEND_THEN_TOSS`] through a miss, replace it by the entry
    /// `fault` makes of it, and take the result as a hit with the oracle
    /// on: the one hit path and oracle every engine goes through.
    fn take_faulty_hit(fault: impl FnOnce(&mut MemoEntry)) {
        let prog = cfgir::compile(SEND_THEN_TOSS).unwrap();
        let exec = Executor::new(&prog, &Config::default());
        let interner = Arc::new(ComponentInterner::new());
        let mut cx = ExecCtx::new(&exec, usize::MAX);
        cx.interner = Some(interner.clone());
        let (mut cache, mut memo) = (ComponentCache::default(), TransitionMemo::default());
        // Past the process's invisible prefix, at its first `send`.
        let mut state = exec.initial();
        while let Scheduled::Init(pid) = exec.schedule(&state) {
            let (_, outcome) = exec.successors(&mut cx, &state, pid).remove(0);
            let SuccOutcome::State(s, _) = outcome else {
                panic!("the prefix completes")
            };
            state = *s;
        }
        memo.view(&interner, &state);
        let (mut children, mut keys) = (Vec::new(), KeyArena::default());
        let lent = &mut (&mut cache, &mut memo);
        exec.step(&mut cx, lent, &state, 0, (&mut children, &mut keys), None);
        let object = next_op_object(&prog, &state, 0).map(|o| o.index());
        let key = memo.key(0, object);
        let index = memo.find(key).expect("the miss recorded an entry");
        let e = memo.entry(index);
        let written = |(_, o): &(Vec<u32>, MemoOutcome)| {
            matches!(
                o,
                MemoOutcome::State {
                    object: Some(_),
                    ..
                }
            )
        };
        assert!(object.is_some() && e.outcomes.len() == 2 && e.outcomes.iter().all(written));
        let mut entry = MemoEntry {
            outcomes: e.outcomes.clone(),
            executions: e.executions,
            tosses_taken: e.tosses_taken,
            unshared: e.unshared,
        };
        fault(&mut entry);
        memo.record(key, entry);
        let components = memo.components();
        let hit = (0, (index, object));
        let interpreted = exec.take_hit(&mut cx, &mut memo, hit, components, Some(&state));
        assert_eq!(interpreted.len(), 2, "the interpreted successors");
    }

    #[test]
    fn the_hit_oracle_passes_a_faithful_entry() {
        take_faulty_hit(|_| {});
    }

    #[test]
    #[should_panic(expected = "memoised choices of P0")]
    fn the_hit_oracle_refuses_a_wrong_choice_vector() {
        take_faulty_hit(|e| e.outcomes[0].0 = vec![1]);
    }

    #[test]
    #[should_panic(expected = "memoised charges of P0")]
    fn the_hit_oracle_refuses_a_wrong_executions_charge() {
        take_faulty_hit(|e| e.executions += 1);
    }

    #[test]
    #[should_panic(expected = "memoised object 0 of P0")]
    fn the_hit_oracle_refuses_a_child_whose_written_object_is_not_replaced() {
        take_faulty_hit(|e| {
            if let MemoOutcome::State { object, .. } = &mut e.outcomes[1].1 {
                *object = None;
            }
        });
    }
}
