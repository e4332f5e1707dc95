//! Deterministic sharded parallel stateless search with work stealing.
//!
//! The decision-prefix tree is split in two passes:
//!
//! 1. **Sharding** (sequential, deterministic): the tree is expanded in
//!    exact [`Engine::Stateless`](super::Engine::Stateless) order — same child
//!    ordering, same sleep sets — until roughly
//!    [`Config::shard_target`](super::Config::shard_target) open
//!    subtrees exist. Outcomes fully resolved during sharding
//!    (violations, dead ends, depth cutoffs) become *terminal* items
//!    pinned at their tree position; unresolved subtrees become
//!    *shards*, each carrying its root state, depth, sleep set, and the
//!    decision/event prefix that reaches it.
//! 2. **Workers**: `jobs` threads pull work entries from a shared pool
//!    and run an iterative stateless DFS per entry, seeded with the
//!    entry's prefix so every violation trace and collected trace starts
//!    at the true initial state and replays exactly like a sequential
//!    trace. When some worker goes *hungry* (the pool runs dry while
//!    entries are still being walked), a busy walk **donates** the
//!    tree-last remaining subtree of its entry — the back child of its
//!    outermost unfinished frame — as a fresh pool entry. Donation
//!    always strips from the tree's end, so the donor's own region stays
//!    a contiguous tree-prefix of the entry and the fragments reassemble
//!    by position.
//!
//! ## Why stealing cannot perturb the report
//!
//! Stealing is timing-dependent — which subtrees split off, and where,
//! differs run to run. Determinism survives because the *committed*
//! result of each top-level item is **defined** to be the sequential
//! per-shard walk: `StatelessWalk(shard, shard_budget, max_violations)`.
//! The fragments of an item (keyed by their child-index tree path and
//! folded in [`BTreeMap`] order, which is exactly tree preorder) equal
//! that walk *provably* whenever the item is **clean**:
//!
//! - no fragment was truncated (budget or depth cutoff),
//! - the folded violation count is below `max_violations`, and
//! - the folded transition count is below the per-shard budget.
//!
//! Clean means every fragment fully explored its disjoint subtree, so
//! the fold *is* the complete traversal — and the sequential walk, whose
//! caps also would not have bound, produces the identical report. When
//! any cap could have bound, the commit discards the fragments and
//! **recomputes** the item sequentially, reproducing the sequential
//! walk's exact cutoff behavior (which is *not* split-invariant — hence
//! the fallback). Either way the committed item result is a pure
//! function of the shard, never of steal timing or worker count.
//!
//! Determinism for any `jobs` value then falls out of three choices:
//!
//! - the shard *set* depends only on the config (`shard_target` is fixed,
//!   never derived from `jobs`);
//! - each committed item result depends only on its shard (per-shard
//!   transition budget, per-shard violation cap, recompute fallback);
//! - the merge folds item results **in tree order** and stops at
//!   [`Config::max_violations`](super::Config::max_violations), so
//!   whatever extra work racing workers did past the cap is discarded
//!   identically everywhere. Workers additionally skip items that the
//!   merge provably cannot reach — an optimization invisible in the
//!   report, because the merge lazily recomputes any skipped item it
//!   does reach.

use super::stateless::StatelessWalk;
use crate::executor::{ExecCtx, Executor, NodeExpansion, SuccOutcome};
use crate::interp::VisibleEvent;
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::GlobalState;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// An unexplored subtree: everything a worker needs to continue the DFS
/// exactly where the sharding pass (or a donating walk) stopped.
#[derive(Clone)]
struct Shard {
    state: GlobalState,
    depth: usize,
    sleep: BTreeSet<usize>,
    path: Vec<Decision>,
    events: Vec<VisibleEvent>,
}

/// One slot of the sharded tree, in DFS order.
enum Item {
    /// Resolved during sharding; the fragment is merged as-is. Boxed:
    /// a `Report` is several times a [`Shard`].
    Terminal(Box<Report>),
    /// Waiting for a worker.
    Open(Shard),
}

/// The sharding pass: expand the tree in DFS order until at least
/// `target` open subtrees exist (or the tree is exhausted). Returns the
/// ordered item list and the root report fragment (sharding-pass counts).
struct Sharder<'e, 'a> {
    exec: &'e Executor<'a>,
    cx: ExecCtx,
    root: Report,
    /// Nodes expanded into children so far (adaptive-target statistic).
    expansions: usize,
    /// Children those expansions produced.
    children_seen: usize,
}

impl<'e, 'a> Sharder<'e, 'a> {
    /// The adaptive shard target: eight waves of the observed average
    /// branching factor, clamped to `[16, 512]`. Narrow trees (token
    /// rings, pipelines) get a small shard set with little sharding
    /// overhead; wide trees (many enabled processes or tosses) get
    /// enough shards that the pool outlives stragglers. Derived only
    /// from the sequential sharding pass itself, so it is identical for
    /// any worker count.
    fn adaptive_target(&self) -> usize {
        let avg = if self.expansions == 0 {
            2
        } else {
            self.children_seen.div_ceil(self.expansions)
        };
        (avg * 8).clamp(16, 512)
    }

    /// `target = 0` selects [`Self::adaptive_target`].
    fn shard(exec: &'e Executor<'a>, target: usize) -> (Vec<Item>, Report) {
        let mut s = Sharder {
            cx: ExecCtx::new(exec, exec.config().max_transitions),
            exec,
            root: Report::default(),
            expansions: 0,
            children_seen: 0,
        };
        let mut items = vec![Item::Open(Shard {
            state: exec.initial(),
            depth: 0,
            sleep: BTreeSet::new(),
            path: Vec::new(),
            events: Vec::new(),
        })];
        // Repeatedly expand the first open item of minimal depth,
        // splicing its children in place: the list stays in DFS order
        // while no subtree races ahead of the others.
        loop {
            if s.cx.truncated {
                break;
            }
            let open: Vec<(usize, usize)> = items
                .iter()
                .enumerate()
                .filter_map(|(i, it)| match it {
                    Item::Open(sh) => Some((i, sh.depth)),
                    Item::Terminal(_) => None,
                })
                .collect();
            let target_now = if target == 0 {
                s.adaptive_target()
            } else {
                target
            };
            if open.len() >= target_now || open.is_empty() {
                break;
            }
            let min_depth = open.iter().map(|&(_, d)| d).min().unwrap();
            let (idx, _) = *open.iter().find(|&&(_, d)| d == min_depth).unwrap();
            let Item::Open(sh) = items.remove(idx) else {
                unreachable!()
            };
            let children = s.expand(sh);
            items.splice(idx..idx, children);
        }
        s.root.transitions = s.cx.transitions;
        s.root.truncated |= s.cx.truncated;
        s.root.shared_components = s.cx.shared_components;
        s.root.total_components = s.cx.total_components;
        s.root.tosses_taken = s.cx.tosses_taken;
        s.root.coverage = s.cx.coverage;
        (items, s.root)
    }

    /// Visit one shard root through the shared shard-split hook
    /// ([`Executor::expand_children`], the exact sequential child order)
    /// and return its children as items in DFS order.
    fn expand(&mut self, sh: Shard) -> Vec<Item> {
        let cfg = self.exec.config();
        self.root.states += 1;
        self.root.max_depth_seen = self.root.max_depth_seen.max(sh.depth);
        let mut out = Vec::new();
        if sh.depth >= cfg.max_depth {
            self.root.truncated = true;
            out.push(Item::Terminal(Box::new(trace_end(
                cfg.collect_traces,
                &sh.events,
            ))));
            return out;
        }
        match self
            .exec
            .expand_children(&mut self.cx, &sh.state, Some(&sh.sleep))
        {
            NodeExpansion::DeadEnd { deadlock } => {
                let mut frag = trace_end(cfg.collect_traces, &sh.events);
                if deadlock {
                    frag.violations.push(Violation {
                        kind: ViolationKind::Deadlock,
                        process: None,
                        trace: sh.path.clone(),
                    });
                }
                out.push(Item::Terminal(Box::new(frag)));
            }
            NodeExpansion::Children(cs) => {
                self.expansions += 1;
                self.children_seen += cs.len();
                for c in cs {
                    let mut path = sh.path.clone();
                    path.push(Decision {
                        process: c.process,
                        choices: c.choices,
                    });
                    let mut events = sh.events.clone();
                    if let SuccOutcome::State(_, Some(ev)) = &c.outcome {
                        events.push(ev.clone());
                    }
                    out.push(child_item(c.outcome, path, events, sh.depth + 1, c.sleep));
                }
            }
        }
        out
    }
}

/// A report fragment holding (at most) one maximal-trace end.
fn trace_end(collect: bool, events: &[VisibleEvent]) -> Report {
    let mut frag = Report::default();
    if collect {
        frag.traces.insert(events.to_vec());
    }
    frag
}

/// Wrap one successor outcome as a tree item.
fn child_item(
    outcome: SuccOutcome,
    path: Vec<Decision>,
    events: Vec<VisibleEvent>,
    depth: usize,
    sleep: BTreeSet<usize>,
) -> Item {
    match outcome {
        SuccOutcome::State(s, _) => Item::Open(Shard {
            state: *s,
            depth,
            sleep,
            path,
            events,
        }),
        SuccOutcome::Violation(kind, process) => {
            let mut frag = Report::default();
            frag.violations.push(Violation {
                kind,
                process,
                trace: path,
            });
            Item::Terminal(Box::new(frag))
        }
    }
}

/// One pool work unit: a subtree plus the tree-position key its result
/// fragment files under. `key[0]` is the top-level item index;
/// subsequent elements are child indices from the shard root down to
/// the donated node, so lexicographic key order is tree preorder.
struct Entry {
    key: Vec<u32>,
    shard: Shard,
}

/// Per-item fragment accumulator.
struct ItemSlot {
    /// Result fragments keyed by tree position; [`BTreeMap`] iteration
    /// folds them back in tree preorder.
    fragments: BTreeMap<Vec<u32>, Report>,
    /// Walks (owner + donated) still running for this item.
    outstanding: usize,
    /// Some walk was abandoned; the fragments are incomplete and the
    /// merge must recompute the item if it reaches it.
    skipped: bool,
}

/// Shared progress book: per-item fragments plus the contiguous
/// completed prefix, used for the provably-safe skip of items the merge
/// cannot reach.
struct Book {
    /// One slot per item, in tree order.
    slots: Vec<ItemSlot>,
    /// Items `0..prefix_done` are complete.
    prefix_done: usize,
    /// Violations the merge is guaranteed to accumulate over that
    /// completed prefix (a lower bound; exact for clean items).
    prefix_violations: usize,
}

impl Book {
    /// Advance the completed prefix and, once it provably carries
    /// `cap` violations, publish the first discarded index: the merge
    /// stops inside the prefix, so later items can never be observed.
    fn advance(&mut self, cap: usize, budget: usize, discard: &AtomicUsize) {
        while self.prefix_done < self.slots.len() {
            let slot = &self.slots[self.prefix_done];
            if slot.outstanding != 0 || slot.skipped {
                break;
            }
            let v: usize = slot.fragments.values().map(|r| r.violations.len()).sum();
            let trunc = slot.fragments.values().any(|r| r.truncated);
            let tx: usize = slot.fragments.values().map(|r| r.transitions).sum();
            let eff = if v >= cap {
                // The fold already carries the cap; the merge stops at
                // (or before) this item whatever the recompute yields.
                cap
            } else if trunc || tx >= budget {
                // Unclean: the commit recomputes this item and its
                // violation count is unknown here — stop advancing.
                break;
            } else {
                v
            };
            self.prefix_violations += eff;
            self.prefix_done += 1;
            if self.prefix_violations >= cap {
                discard.fetch_min(self.prefix_done, Ordering::SeqCst);
                break;
            }
        }
    }
}

/// The shared worker pool: the entry queue, the fragment book, and the
/// steal/skip signals.
struct Pool {
    inner: Mutex<PoolInner>,
    cv: Condvar,
    /// Workers currently blocked waiting for an entry — the donation
    /// signal busy walks poll.
    hungry: AtomicUsize,
    /// First item index the merge provably discards (`usize::MAX` until
    /// the completed prefix reaches the violation cap).
    discard: AtomicUsize,
    book: Mutex<Book>,
    cap: usize,
    budget: usize,
}

struct PoolInner {
    queue: VecDeque<Entry>,
    /// Entries claimed but not yet delivered (their walks may still
    /// donate more entries).
    active: usize,
}

impl Pool {
    /// Claim the next entry, blocking while busy walks might still
    /// donate; `None` once the pool has permanently drained.
    fn claim(&self) -> Option<Entry> {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(e) = inner.queue.pop_front() {
                inner.active += 1;
                return Some(e);
            }
            if inner.active == 0 {
                self.cv.notify_all();
                return None;
            }
            self.hungry.fetch_add(1, Ordering::SeqCst);
            inner = self.cv.wait(inner).unwrap();
            self.hungry.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Mark a claimed entry's walk finished (after delivery).
    fn finish_one(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.active -= 1;
        if inner.active == 0 && inner.queue.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Donate a subtree split off a running walk. The slot's
    /// outstanding count rises *before* the entry becomes claimable, so
    /// the item can never look complete while donated work is pending.
    fn donate(&self, entry: Entry) {
        {
            let mut b = self.book.lock().unwrap();
            b.slots[entry.key[0] as usize].outstanding += 1;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.queue.push_back(entry);
        self.cv.notify_one();
    }

    /// File a pre-resolved fragment (a violation child popped during
    /// donation) without touching the outstanding count — the donating
    /// walk still holds the slot open.
    fn publish_terminal(&self, item: usize, key: Vec<u32>, frag: Report) {
        let mut b = self.book.lock().unwrap();
        b.slots[item].fragments.insert(key, frag);
    }

    /// Deliver a finished walk's fragment.
    fn deliver(&self, key: Vec<u32>, frag: Report) {
        let mut b = self.book.lock().unwrap();
        let slot = &mut b.slots[key[0] as usize];
        slot.fragments.insert(key, frag);
        slot.outstanding -= 1;
        b.advance(self.cap, self.budget, &self.discard);
    }

    /// Record an abandoned walk: the item's fragments are incomplete.
    fn deliver_skip(&self, item: usize) {
        let mut b = self.book.lock().unwrap();
        let slot = &mut b.slots[item];
        slot.skipped = true;
        slot.outstanding -= 1;
    }
}

/// Worker loop: claim entries until the pool drains, skipping items the
/// merge provably discards.
fn worker(exec: &Executor<'_>, pool: &Pool) {
    while let Some(entry) = pool.claim() {
        let item = entry.key[0] as usize;
        if pool.discard.load(Ordering::SeqCst) <= item {
            pool.deliver_skip(item);
        } else {
            let key = entry.key.clone();
            match StealWalk::run(exec, pool, entry) {
                Some(frag) => pool.deliver(key, frag),
                None => pool.deliver_skip(item),
            }
        }
        pool.finish_one();
    }
}

/// One child of an expanded node, held on the explicit DFS stack.
struct ChildNode {
    /// Index in the node's full child list (the key component).
    idx: u32,
    decision: Decision,
    kind: ChildKind,
}

enum ChildKind {
    State {
        state: Box<GlobalState>,
        event: Option<VisibleEvent>,
        sleep: BTreeSet<usize>,
    },
    Violation(ViolationKind, Option<usize>),
}

/// One frame of the explicit DFS stack: a node's remaining children
/// plus what is needed to restore the path/event stacks and to key and
/// re-root donated subtrees.
struct Frame {
    /// Remaining children; the walk consumes the front, donation strips
    /// the back.
    children: VecDeque<ChildNode>,
    /// `path`/`events` length *at this node* (including the decision
    /// and event that reached it) — donated children re-root here.
    node_path_len: usize,
    node_events_len: usize,
    /// Lengths to restore when the frame pops.
    path_restore: usize,
    events_restore: usize,
    /// Child-index path from the entry's shard root to this node.
    key_path: Vec<u32>,
    /// Depth of this node (children sit at `depth + 1`).
    depth: usize,
}

/// An iterative stateless DFS over one pool entry that can donate the
/// tree-last remaining subtree whenever some worker is hungry.
///
/// The walk mirrors [`StatelessWalk`] node for node *except* that it
/// expands each node's children fully before descending (via
/// [`Executor::expand_children`]) — a difference only observable when a
/// budget or violation cap cuts the walk short, which is exactly when
/// the commit falls back to recomputing with the real [`StatelessWalk`].
struct StealWalk<'e, 'a, 'p> {
    exec: &'e Executor<'a>,
    pool: &'p Pool,
    entry_key: Vec<u32>,
    item: usize,
    cx: ExecCtx,
    fragment: Report,
    path: Vec<Decision>,
    events: Vec<VisibleEvent>,
    frames: Vec<Frame>,
    stop: bool,
    /// Steps left before this walk looks at the hungry signal again.
    /// Donating has a real cost (splitting a frame, re-queuing, waking
    /// a worker), and a freshly woken worker takes a few steps to stop
    /// being hungry — without a cooldown, a busy walk can donate its
    /// tree away one sliver at a time to the same still-waking peer.
    donate_cooldown: usize,
}

/// Busy-walk steps between donations (see
/// [`StealWalk::donate_cooldown`]).
const DONATE_COOLDOWN: usize = 32;

impl<'e, 'a, 'p> StealWalk<'e, 'a, 'p> {
    /// Walk `entry`, returning its fragment — or `None` when the walk
    /// was abandoned because the merge provably discards the item.
    fn run(exec: &'e Executor<'a>, pool: &'p Pool, entry: Entry) -> Option<Report> {
        let Entry { key, shard } = entry;
        let mut w = StealWalk {
            cx: ExecCtx::new(exec, pool.budget),
            exec,
            pool,
            item: key[0] as usize,
            entry_key: key,
            fragment: Report::default(),
            path: shard.path,
            events: shard.events,
            frames: Vec::new(),
            stop: false,
            donate_cooldown: 0,
        };
        let (pr, er) = (w.path.len(), w.events.len());
        w.visit(&shard.state, shard.depth, &shard.sleep, Vec::new(), pr, er);
        while !w.stop && !w.cx.truncated && !w.frames.is_empty() {
            if w.pool.discard.load(Ordering::Relaxed) <= w.item {
                return None; // abandoned: the merge cannot reach this item
            }
            if w.donate_cooldown > 0 {
                w.donate_cooldown -= 1;
            } else if w.pool.hungry.load(Ordering::Relaxed) > 0 {
                w.donate_one();
                w.donate_cooldown = DONATE_COOLDOWN;
            }
            w.step();
        }
        w.fragment.transitions = w.cx.transitions;
        w.fragment.truncated |= w.cx.truncated;
        w.fragment.shared_components = w.cx.shared_components;
        w.fragment.total_components = w.cx.total_components;
        w.fragment.tosses_taken = w.cx.tosses_taken;
        w.fragment.coverage = w.cx.coverage.take();
        Some(w.fragment)
    }

    /// Consume the next child of the innermost frame (or pop it).
    fn step(&mut self) {
        let top = self.frames.last_mut().unwrap();
        let Some(c) = top.children.pop_front() else {
            let f = self.frames.pop().unwrap();
            self.path.truncate(f.path_restore);
            self.events.truncate(f.events_restore);
            return;
        };
        let depth = top.depth;
        let mut key_path = top.key_path.clone();
        key_path.push(c.idx);
        match c.kind {
            ChildKind::Violation(kind, process) => {
                let mut trace = self.path.clone();
                trace.push(c.decision);
                self.record_violation(kind, process, trace);
            }
            ChildKind::State {
                state,
                event,
                sleep,
            } => {
                let (path_restore, events_restore) = (self.path.len(), self.events.len());
                self.path.push(c.decision);
                if let Some(ev) = event {
                    self.events.push(ev);
                }
                let pushed = self.visit(
                    &state,
                    depth + 1,
                    &sleep,
                    key_path,
                    path_restore,
                    events_restore,
                );
                if !pushed {
                    self.path.truncate(path_restore);
                    self.events.truncate(events_restore);
                }
            }
        }
    }

    /// Visit a node: resolve leaves inline, push a frame otherwise.
    /// Returns whether a frame was pushed.
    fn visit(
        &mut self,
        state: &GlobalState,
        depth: usize,
        sleep: &BTreeSet<usize>,
        key_path: Vec<u32>,
        path_restore: usize,
        events_restore: usize,
    ) -> bool {
        let cfg = self.exec.config();
        self.fragment.states += 1;
        self.fragment.max_depth_seen = self.fragment.max_depth_seen.max(depth);
        if depth >= cfg.max_depth {
            self.fragment.truncated = true;
            self.record_trace_end();
            return false;
        }
        match self.exec.expand_children(&mut self.cx, state, Some(sleep)) {
            NodeExpansion::DeadEnd { deadlock } => {
                self.record_trace_end();
                if deadlock {
                    self.record_violation(ViolationKind::Deadlock, None, self.path.clone());
                }
                false
            }
            NodeExpansion::Children(cs) => {
                self.frames.push(Frame {
                    children: cs
                        .into_iter()
                        .enumerate()
                        .map(|(i, c)| ChildNode {
                            idx: i as u32,
                            decision: Decision {
                                process: c.process,
                                choices: c.choices,
                            },
                            kind: match c.outcome {
                                SuccOutcome::State(s, ev) => ChildKind::State {
                                    state: s,
                                    event: ev,
                                    sleep: c.sleep,
                                },
                                SuccOutcome::Violation(k, p) => ChildKind::Violation(k, p),
                            },
                        })
                        .collect(),
                    node_path_len: self.path.len(),
                    node_events_len: self.events.len(),
                    path_restore,
                    events_restore,
                    key_path,
                    depth,
                });
                true
            }
        }
    }

    /// Donate the tree-last remaining subtree: the back child of the
    /// outermost frame with children left. Violation children popped on
    /// the way are published as pre-resolved fragments at their tree
    /// position. Stripping always from the tree's end keeps the donor's
    /// own region a contiguous tree-prefix of the entry.
    fn donate_one(&mut self) {
        for fi in 0..self.frames.len() {
            while let Some(c) = self.frames[fi].children.pop_back() {
                let f = &self.frames[fi];
                let mut key = self.entry_key.clone();
                key.extend_from_slice(&f.key_path);
                key.push(c.idx);
                let mut path = self.path[..f.node_path_len].to_vec();
                path.push(c.decision);
                match c.kind {
                    ChildKind::Violation(kind, process) => {
                        let mut frag = Report::default();
                        frag.violations.push(Violation {
                            kind,
                            process,
                            trace: path,
                        });
                        self.pool.publish_terminal(self.item, key, frag);
                    }
                    ChildKind::State {
                        state,
                        event,
                        sleep,
                    } => {
                        let mut events = self.events[..f.node_events_len].to_vec();
                        if let Some(ev) = event {
                            events.push(ev);
                        }
                        self.pool.donate(Entry {
                            key,
                            shard: Shard {
                                state: *state,
                                depth: f.depth + 1,
                                sleep,
                                path,
                                events,
                            },
                        });
                        return;
                    }
                }
            }
        }
    }

    fn record_violation(
        &mut self,
        kind: ViolationKind,
        process: Option<usize>,
        trace: Vec<Decision>,
    ) {
        self.fragment.violations.push(Violation {
            kind,
            process,
            trace,
        });
        if self.fragment.violations.len() >= self.exec.config().max_violations {
            self.stop = true;
        }
    }

    fn record_trace_end(&mut self) {
        if self.exec.config().collect_traces {
            self.fragment.traces.insert(self.events.clone());
        }
    }
}

/// Commit one item: the result is *defined* as the sequential per-shard
/// walk, so fold the fragments only when that provably equals it and
/// recompute otherwise (see the module docs).
fn commit_item(
    exec: &Executor<'_>,
    slot: ItemSlot,
    shard: Option<&Shard>,
    budget: usize,
    cap: usize,
) -> Report {
    let Some(sh) = shard else {
        // Terminal item: a single pre-resolved fragment, merged as-is.
        return slot.fragments.into_values().next().unwrap_or_default();
    };
    if !slot.skipped && slot.outstanding == 0 {
        let clean = !slot.fragments.values().any(|r| r.truncated)
            && slot
                .fragments
                .values()
                .map(|r| r.violations.len())
                .sum::<usize>()
                < cap
            && slot
                .fragments
                .values()
                .map(|r| r.transitions)
                .sum::<usize>()
                < budget;
        if clean {
            let mut out = Report::default();
            for (_, frag) in slot.fragments {
                out.merge(frag);
            }
            return out;
        }
    }
    let mut w = StatelessWalk::with_prefix(exec, budget, sh.path.clone(), sh.events.clone());
    w.walk(sh.state.clone(), sh.depth, sh.sleep.clone());
    w.finish()
}

/// Deterministic sharded stateless search across
/// [`Config::jobs`](super::Config::jobs) worker threads, with idle
/// workers stealing prefix-splits of pending subtrees
/// ([`Engine::Parallel`](super::Engine::Parallel)).
pub(super) fn sharded(exec: &Executor<'_>) -> Report {
    let cfg = exec.config();
    // 0 selects the adaptive target inside the sharding pass.
    let (mut items, root) = Sharder::shard(exec, cfg.shard_target);

    let mut slots = Vec::with_capacity(items.len());
    let mut entries: VecDeque<Entry> = VecDeque::new();
    let mut top_shards: Vec<Option<Shard>> = Vec::with_capacity(items.len());
    for (i, item) in items.drain(..).enumerate() {
        match item {
            Item::Terminal(frag) => {
                slots.push(ItemSlot {
                    fragments: [(vec![i as u32], *frag)].into(),
                    outstanding: 0,
                    skipped: false,
                });
                top_shards.push(None);
            }
            Item::Open(sh) => {
                slots.push(ItemSlot {
                    fragments: BTreeMap::new(),
                    outstanding: 1,
                    skipped: false,
                });
                entries.push_back(Entry {
                    key: vec![i as u32],
                    shard: sh.clone(),
                });
                top_shards.push(Some(sh));
            }
        }
    }
    let open_count = entries.len();
    // Split the transition cap across shards so the aggregate stays
    // close to the configured cap, like the sequential engines. The
    // shard count is jobs-invariant, so the split is too.
    let shard_budget = (cfg.max_transitions / open_count.max(1)).max(1);
    let pool = Pool {
        inner: Mutex::new(PoolInner {
            queue: entries,
            active: 0,
        }),
        cv: Condvar::new(),
        hungry: AtomicUsize::new(0),
        discard: AtomicUsize::new(usize::MAX),
        book: Mutex::new(Book {
            slots,
            prefix_done: 0,
            prefix_violations: 0,
        }),
        cap: cfg.max_violations,
        budget: shard_budget,
    };
    pool.book
        .lock()
        .unwrap()
        .advance(pool.cap, pool.budget, &pool.discard);

    if open_count > 0 {
        // More workers than shards is useful here: the extras go
        // hungry immediately, which is precisely the steal signal.
        // But never more than the host can actually run — threads
        // past `available_parallelism` only add scheduling noise
        // and donation churn. The clamp cannot affect the report:
        // worker count never influences results (the fragment book
        // and ordered commit are jobs-invariant), only wall clock.
        let hw = std::thread::available_parallelism().map_or(usize::MAX, |n| n.get());
        let jobs = cfg.jobs.max(1).min(hw);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| worker(exec, &pool));
            }
        });
    }

    // Ordered commit: fold item results in tree order on top of the
    // sharding-pass fragment, stopping at the violation cap.
    let Pool {
        book, cap, budget, ..
    } = pool;
    let book = book.into_inner().unwrap();
    let mut final_report = root;
    for (slot, sh) in book.slots.into_iter().zip(&top_shards) {
        if final_report.violations.len() >= cap {
            break;
        }
        final_report.merge(commit_item(exec, slot, sh.as_ref(), budget, cap));
    }
    final_report.violations.truncate(cap);
    final_report
}

#[cfg(test)]
mod tests {
    use super::super::{explore, Config, Engine};
    use crate::report::Report;

    const RACY: &str = r#"
        chan a[1];
        chan b[1];
        proc left() { send(a, 1); int v = recv(b); VS_assert(v < 2); }
        proc right() { send(b, 2); int w = recv(a); }
        process left();
        process right();
    "#;

    fn key(r: &Report) -> (usize, usize, usize, bool, Vec<String>, usize) {
        (
            r.states,
            r.transitions,
            r.max_depth_seen,
            r.truncated,
            r.violations.iter().map(|v| v.to_string()).collect(),
            r.traces.len(),
        )
    }

    #[test]
    fn parallel_report_is_jobs_invariant() {
        let prog = cfgir::compile(RACY).unwrap();
        let base = Config {
            engine: Engine::Parallel,
            max_violations: usize::MAX,
            collect_traces: true,
            por: false,
            sleep_sets: false,
            ..Config::default()
        };
        let runs: Vec<_> = [1, 2, 4, 7]
            .iter()
            .map(|&jobs| {
                explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                )
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(key(&runs[0]), key(r));
        }
    }

    #[test]
    fn parallel_matches_stateless_verdicts_and_traces() {
        let prog = cfgir::compile(RACY).unwrap();
        let cfg = Config {
            max_violations: usize::MAX,
            collect_traces: true,
            por: false,
            sleep_sets: false,
            ..Config::default()
        };
        let seq = explore(&prog, &cfg);
        let par = explore(
            &prog,
            &Config {
                engine: Engine::Parallel,
                jobs: 4,
                ..cfg
            },
        );
        // Run to completion (no caps hit): same violation multiset in the
        // same DFS order, identical maximal-trace sets, same tree size.
        assert_eq!(
            seq.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
            par.violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>(),
        );
        assert_eq!(seq.traces, par.traces);
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.transitions, par.transitions);
    }

    #[test]
    fn parallel_violation_traces_replay() {
        let prog = cfgir::compile(RACY).unwrap();
        let cfg = Config {
            engine: Engine::Parallel,
            jobs: 3,
            max_violations: usize::MAX,
            ..Config::default()
        };
        let r = explore(&prog, &cfg);
        assert!(!r.violations.is_empty());
        for v in &r.violations {
            let err = super::super::replay(&prog, &v.trace, cfg.env_mode, &cfg.limits);
            assert!(err.is_err(), "trace must end in the recorded violation");
        }
    }

    #[test]
    fn parallel_respects_violation_cap_deterministically() {
        let prog = cfgir::compile(RACY).unwrap();
        let base = Config {
            engine: Engine::Parallel,
            max_violations: 1,
            por: false,
            sleep_sets: false,
            ..Config::default()
        };
        let a = explore(
            &prog,
            &Config {
                jobs: 1,
                ..base.clone()
            },
        );
        let b = explore(
            &prog,
            &Config {
                jobs: 4,
                ..base.clone()
            },
        );
        assert_eq!(a.violations.len(), 1);
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn tiny_tree_needs_no_workers() {
        // Fewer reachable states than the shard target: everything is
        // resolved in the sharding pass.
        let prog = cfgir::compile("chan c[1]; proc p() { send(c, 1); } process p();").unwrap();
        let cfg = Config {
            engine: Engine::Parallel,
            jobs: 8,
            max_violations: usize::MAX,
            ..Config::default()
        };
        let r = explore(&prog, &cfg);
        assert!(r.clean());
        assert!(r.states > 0);
    }

    #[test]
    fn single_shard_forces_stealing_and_matches_sequential() {
        // shard_target 1 leaves the whole tree as one entry; with four
        // workers, three go hungry immediately and the owner must
        // donate subtrees. The merged report must still equal the
        // sequential stateless walk byte for byte.
        let prog = cfgir::compile(RACY).unwrap();
        let seq_cfg = Config {
            max_violations: usize::MAX,
            collect_traces: true,
            por: false,
            sleep_sets: false,
            ..Config::default()
        };
        let seq = explore(&prog, &seq_cfg);
        for jobs in [1, 2, 4, 8] {
            let par = explore(
                &prog,
                &Config {
                    engine: Engine::Parallel,
                    jobs,
                    shard_target: 1,
                    ..seq_cfg.clone()
                },
            );
            assert_eq!(key(&seq), key(&par), "jobs={jobs}");
        }
    }

    #[test]
    fn stealing_respects_caps_deterministically() {
        // With a violation cap and a single shard, stolen fragments may
        // race past the cap; the recompute fallback must reproduce the
        // sequential cutoff for every worker count.
        let prog = cfgir::compile(RACY).unwrap();
        let base = Config {
            engine: Engine::Parallel,
            shard_target: 1,
            max_violations: 2,
            por: false,
            sleep_sets: false,
            ..Config::default()
        };
        let runs: Vec<_> = [1, 3, 6]
            .iter()
            .map(|&jobs| {
                explore(
                    &prog,
                    &Config {
                        jobs,
                        ..base.clone()
                    },
                )
            })
            .collect();
        assert_eq!(runs[0].violations.len(), 2);
        for r in &runs[1..] {
            assert_eq!(key(&runs[0]), key(r));
        }
    }

    #[test]
    fn stealing_with_sleep_sets_matches_sequential() {
        // Donated shards carry their sleep sets; reductions stay exact.
        let prog = cfgir::compile(RACY).unwrap();
        let seq_cfg = Config {
            max_violations: usize::MAX,
            ..Config::default()
        };
        let seq = explore(&prog, &seq_cfg);
        let par = explore(
            &prog,
            &Config {
                engine: Engine::Parallel,
                jobs: 4,
                shard_target: 2,
                ..seq_cfg.clone()
            },
        );
        assert_eq!(key(&seq), key(&par));
    }
}
