//! Explicit-state searches: DFS over stored visited states
//! ([`Engine::Stateful`](super::Engine::Stateful)) and the deterministic
//! level-synchronous frontier search
//! ([`Engine::StatefulParallel`](super::Engine::StatefulParallel)) backed
//! by the tiered spillable [`Store`].
//!
//! Both hold states as store keys (`FrontierItem`, `DfsEntry`) and expand
//! each key through `Executor::expand`, by the ID-space step the stateless
//! walk takes too: the schedule from the facts table, the children from
//! the transition memo, their keys written into the worker's
//! [`ExpandArena`]. A state is built (`Executor::build`, through the
//! worker's [`ComponentCache`]) only when a lookup misses, a few hundred
//! times on a state space of hundreds of thousands. Expansion is
//! persistent-set partial-order
//! reduction with the ignoring/cycle proviso — a state is expanded over
//! its persistent set only, unless one of the reduced successors is
//! already in the search's visited store (an edge that may close a
//! cycle), in which case it is fully expanded so no process is ignored
//! around the cycle (docs/EXPLORER.md §5). The proviso predicate is a
//! pure function of the state and a timing-independent store snapshot,
//! so every report stays byte-identical for any worker count.
//!
//! Neither keeps a path per entry. A frontier entry points into the
//! run's append-only [`TraceLog`], one `(parent, decision)` record per
//! queued state; the DFS keeps the one path to the entry it expands, a
//! decision per depth. A path is copied out only into a violation.
//!
//! The frontier search additionally runs **out of core** when
//! [`Config::mem_limit`](super::Config::mem_limit) is finite: sealed
//! states spill to the tier-1 log, the frontier spools to disk past its
//! RAM budget, the path log is a file in the spill directory, and each
//! level is processed in bounded-memory *chunks*.
//! Chunked processing is byte-identical to unbounded processing by
//! construction — see the commit-order argument at
//! [`FrontierRun::run_level`] — and with a
//! [`Config::checkpoint_dir`](super::Config::checkpoint_dir) the search
//! checkpoints at level boundaries so a killed run can `--resume` and
//! complete with the identical report.

use super::store::keyset::KeySet;
use super::store::trace::{TraceLog, TraceRef};
use super::store::{checkpoint, FrontierSpool, SpillDir, Spoolable, Store};
use crate::coverage::Coverage;
use crate::executor::{ExecCtx, Executor, ExpandArena, Expansion};
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::encode::{put_u64, ByteReader};
use crate::state::intern::raw_len_of;
use crate::state::{ComponentCache, ComponentInterner, TransitionMemo};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// One frontier entry: a state awaiting expansion, held as its **store
/// key** — the compressed component-ID tuple the expansion already has
/// in hand for every child (the raw canonical encoding under
/// `--no-compress`) — not as a live state, and its reproducing path as a
/// reference into the run's [`TraceLog`]. The entry is expanded from its
/// key; a [`GlobalState`](crate::state::GlobalState) exists only while
/// an entry ID space could not answer for is expanded
/// (`Executor::build`, DESIGN §14). Its depth is the level it waits in.
struct FrontierItem {
    key: Box<[u8]>,
    trace: TraceRef,
}

impl Spoolable for FrontierItem {
    /// `trace ‖ key`; the key takes the remaining bytes, so the record
    /// needs no interner to write or to read back.
    fn spool_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.trace.0);
        out.extend_from_slice(&self.key);
    }

    fn spool_decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let trace = TraceRef(r.u64()?);
        let key = Box::from(&bytes[r.pos()..]);
        Some(FrontierItem { key, trace })
    }

    /// Rule of the spool's chunking contract: the key length.
    fn cost(&self) -> usize {
        self.key.len()
    }
}

/// Why a store key failed to decode. Keys are the run's own, so its
/// bytes were damaged on disk (a frontier spool or checkpoint file); the
/// DFS's keys never leave memory.
pub(crate) const UNDECODABLE: &str =
    "frontier key does not decode (damaged spool or checkpoint file?)";

/// A worker's expansion of one frontier item, reduced to what the
/// ordered commit reads. An in-memory level is a single chunk, so the
/// children of *every* item of the widest level exist at once
/// (duplicates included), in the workers' arenas: they hold no state, no
/// sleep set and no visible event.
struct Expanded {
    /// The item had no enabled transition and that is a deadlock.
    deadlock: bool,
    /// The worker whose arena holds the item's children and their keys.
    worker: usize,
    /// The children's indices in that arena, in expansion order (none at
    /// a dead end). Their keys were computed worker-side so the
    /// sequential commit only compares bytes.
    children: std::ops::Range<usize>,
    transitions: usize,
    truncated: bool,
    /// CoW sharing counters folded from the item's [`ExecCtx`].
    shared_components: usize,
    total_components: usize,
    tosses_taken: usize,
    /// POR reduction counters from the item's expansion.
    por_skipped: usize,
    por_fallback: bool,
}

impl Expanded {
    /// An item's commit record: its expansion plus the item's counters,
    /// moved out of `cx` (left zeroed for the worker's next item).
    fn new(fe: Expansion, worker: usize, cx: &mut ExecCtx) -> Expanded {
        Expanded {
            deadlock: fe.dead_end == Some(true),
            worker,
            children: fe.children,
            transitions: std::mem::take(&mut cx.transitions),
            truncated: std::mem::take(&mut cx.truncated),
            shared_components: std::mem::take(&mut cx.shared_components),
            total_components: std::mem::take(&mut cx.total_components),
            tosses_taken: std::mem::take(&mut cx.tosses_taken),
            por_skipped: fe.por_skipped,
            por_fallback: fe.por_fallback,
        }
    }
}

/// The deterministic level-synchronous frontier search over
/// [`Config::jobs`](super::Config::jobs) worker threads
/// ([`Engine::StatefulParallel`](super::Engine::StatefulParallel)).
/// Breadth-first, so the first violation reported has a *shortest*
/// reproducing trace.
///
/// Each level, workers expand the frontier's states concurrently
/// (claiming items through an atomic cursor), sharing the [`Store`]
/// read-only. The level then commits on one thread in commit
/// order, `(frontier index, successor index)`: a successor joins the
/// next frontier iff it is the first occurrence of its state, so the
/// explored set, the violation order, every reproducing trace, and all
/// counters are byte-identical for any worker count. The POR proviso's
/// predicate (successor already *sealed*, i.e. committed in an earlier
/// level) depends only on the frontier level, never on intra-level
/// processing order.
///
/// Every I/O failure on the driving thread — a spill or checkpoint
/// directory that cannot be created, a damaged checkpoint being resumed,
/// a full disk — ends the search as an error naming the file.
pub(super) fn frontier(exec: &Executor<'_>) -> io::Result<Report> {
    let mut run = FrontierRun::new(exec)?;
    if exec.config().resume {
        run.resume()?;
    } else {
        run.start()?;
    }
    while run.run_level()? {}
    Ok(run.finish())
}

/// Everything one frontier search owns between levels.
struct FrontierRun<'e, 'p> {
    exec: &'e Executor<'p>,
    /// The host's hardware threads. Asked at most once, and only when a
    /// chunk could use a second worker: the query consults the cgroup CPU
    /// quota, ≈ 60 µs per explore on a 2-vCPU Linux guest (EXPERIMENTS.md
    /// E17), more than a five-state exploration costs without it.
    hw: Option<usize>,
    dir: Option<Arc<SpillDir>>,
    spool_budget: usize,
    chunk_budget: usize,
    /// The per-run component interner behind collapse compression: every
    /// store/spool/checkpoint record becomes a compact varint tuple of
    /// dense component IDs. IDs are assignment-order-dependent (and so
    /// may vary with worker timing), which is harmless — they never
    /// appear in a report, and checkpoints persist the assignment so
    /// resumed tuples keep meaning the same states.
    interner: Option<Arc<ComponentInterner>>,
    /// The interner's table as the last checkpoint wrote it.
    table: Option<checkpoint::InternTable>,
    store: Store,
    /// `(program hash, config digest)` when the run checkpoints.
    identity: Option<(u64, u64)>,
    /// The sealed states awaiting expansion at `level`.
    frontier: FrontierSpool<FrontierItem>,
    /// The reproducing paths the frontier's entries point into: in
    /// memory, or `trace.bin` in the spill dir.
    trace: TraceLog,
    level: usize,
    resumed_level: Option<usize>,
    /// One [`Lease`] per worker. Grown on demand (most explorations are
    /// tiny and single-worker).
    leases: Vec<Lease>,
    coverage: Option<Coverage>,
    report: Report,
    /// The violation cap was reached: nothing further commits.
    stop: bool,
}

/// What one frontier worker keeps for the whole run, lent to whichever
/// thread runs that worker for a chunk: a component cache and a
/// transition memo — an out-of-core run has hundreds of chunks, and none
/// of them should decode a component, or interpret a transition, its
/// worker has already seen; the cache is bounded by the interner's
/// table, the memo by its distinct (process, object) pairs — and the
/// arena the worker's expansions of a chunk write their children to,
/// cleared once the chunk commits.
#[derive(Default)]
struct Lease {
    cache: ComponentCache,
    memo: TransitionMemo,
    arena: ExpandArena,
}

/// What is fixed for every chunk of one level, plus the cursor over it.
struct Level {
    /// The per-item transition budget: the *level-start* remainder.
    remaining: usize,
    /// Successors seal into the next level.
    epoch: u32,
    next: FrontierSpool<FrontierItem>,
}

impl<'e, 'p> FrontierRun<'e, 'p> {
    /// A run with its store, interner and budgets set up and an empty
    /// frontier; [`FrontierRun::start`] or [`FrontierRun::resume`]
    /// fills it.
    fn new(exec: &'e Executor<'p>) -> io::Result<Self> {
        let cfg = exec.config();
        let checkpointing = cfg.checkpoint_dir.is_some();
        assert!(
            !(checkpointing && cfg.track_coverage),
            "coverage maps are not checkpointed; disable --coverage to checkpoint"
        );
        assert!(
            !checkpointing || cfg.checkpoint_every >= 1,
            "the checkpoint period is at least one level"
        );
        assert!(cfg.jobs >= 1, "a frontier search has at least one worker");
        // A resumed directory is taken as it stands: resume reads its
        // manifest first, and creates nothing where there is none.
        let dir: Option<Arc<SpillDir>> = match (&cfg.checkpoint_dir, cfg.mem_limit) {
            (Some(d), _) if cfg.resume => Some(SpillDir::existing(d)),
            (Some(d), _) => Some(SpillDir::at(d)?),
            (None, usize::MAX) => None,
            (None, _) => Some(SpillDir::temp()?),
        };
        // Budget split: half for the visited store's resident tier, a
        // quarter for the frontier spool's memory head, a quarter for the
        // in-flight chunk. Unbounded runs never touch the filesystem.
        let (store_budget, spool_budget, chunk_budget) = if cfg.mem_limit == usize::MAX {
            (usize::MAX, usize::MAX, usize::MAX)
        } else {
            let m = cfg.mem_limit;
            ((m / 2).max(1), (m / 4).max(1), (m / 4).max(1))
        };
        let interner = (!cfg.no_compress).then(|| Arc::new(ComponentInterner::new()));
        Ok(FrontierRun {
            exec,
            hw: None,
            store: Store::new_with(store_budget, dir.clone(), interner.is_some()),
            identity: checkpointing.then(|| {
                (
                    cfgir::program_content_hash(exec.program()),
                    checkpoint::config_digest(cfg),
                )
            }),
            frontier: FrontierSpool::new(spool_budget, dir.clone(), 0),
            trace: TraceLog::in_memory(),
            dir,
            spool_budget,
            chunk_budget,
            interner,
            table: None,
            level: 0,
            resumed_level: None,
            leases: Vec::new(),
            coverage: cfg.track_coverage.then(|| Coverage::new(exec.program())),
            report: Report::default(),
            stop: false,
        })
    }

    /// An empty spool for the frontier of `level`.
    fn spool(&self, level: usize) -> FrontierSpool<FrontierItem> {
        FrontierSpool::new(self.spool_budget, self.dir.clone(), level as u64)
    }

    /// Seal the initial state and make it level 0's frontier.
    fn start(&mut self) -> io::Result<()> {
        if let Some(dir) = &self.dir {
            self.trace = TraceLog::create(dir.path())?;
        }
        let init = self.exec.initial();
        let (h0, enc0) = match &self.interner {
            Some(i) => init.fingerprint_and_intern(i),
            None => init.fingerprint_and_encode(),
        };
        self.store.insert(h0, &enc0, 0);
        self.report.states = 1;
        if self.exec.config().max_depth == 0 {
            self.report.truncated = true;
        } else {
            let item = FrontierItem {
                key: enc0.into(),
                trace: TraceRef::EMPTY,
            };
            self.frontier.push(item)?;
        }
        self.report.frontier_spilled_entries += self.frontier.spooled();
        Ok(())
    }

    /// Reload store, interner, report and frontier from the checkpoint in
    /// [`Config::checkpoint_dir`](super::Config::checkpoint_dir).
    fn resume(&mut self) -> io::Result<()> {
        let dirp = self
            .exec
            .config()
            .checkpoint_dir
            .as_deref()
            .expect("--resume requires a checkpoint directory");
        let (program_hash, config_digest) = self.identity.expect("resuming implies checkpointing");
        let r = checkpoint::resume::<FrontierItem>(
            dirp,
            program_hash,
            config_digest,
            &mut self.store,
            self.interner.as_deref(),
        )?;
        self.level = r.level;
        self.resumed_level = Some(r.level);
        self.report = r.report;
        self.report.checkpoints_written = r.checkpoints_written;
        self.frontier = self.spool(r.level);
        self.trace = r.trace;
        self.table = r.table;
        for item in r.frontier {
            self.frontier.push(item)?;
        }
        self.report.frontier_spilled_entries += self.frontier.spooled();
        Ok(())
    }

    /// Expand and commit the current frontier, leaving its winners as the
    /// next one. Returns `false` once the search is over.
    ///
    /// ## Why chunking (and therefore spilling) cannot change the report
    ///
    /// Under a finite memory budget a level is consumed in FIFO *chunks*
    /// ([`FrontierSpool::next_chunk`]); each chunk is expanded and
    /// committed before the next is read. This is byte-identical to
    /// processing the whole level at once because:
    ///
    /// 1. **Commit order is global to the level.** Chunks are consecutive
    ///    slices of the frontier, committed one after another, each in
    ///    `(frontier index, successor index)` order — so the chunks
    ///    together commit the level's successors in exactly the order a
    ///    single-chunk run does, and the first occurrence of any state,
    ///    the one [`Store::commit`] lets win, is the same
    ///    occurrence the unbounded commit picks.
    /// 2. **The proviso is epoch-bounded.** Workers probe
    ///    `contains_sealed_before(h, e, level+1)`: entries sealed by
    ///    *earlier chunks of the same level* carry epoch `level+1` and are
    ///    invisible, so every chunk sees exactly the sealed set a
    ///    single-chunk run's phase sees — the states committed by earlier
    ///    levels, a set neither workers nor earlier chunks of this level
    ///    can grow.
    /// 3. **Budgets are level-fixed.** The per-item transition budget is
    ///    the level-start remainder for every chunk — a value fixed before
    ///    any worker or chunk runs, so the expansion of an item is a pure
    ///    function of the item, never of sibling timing — and the
    ///    violation cap cuts at a rank; both are independent of chunk
    ///    boundaries.
    ///
    /// Chunk boundaries themselves depend only on entry byte sizes against
    /// a fixed budget, never on timing, so the whole argument also holds
    /// for any worker count.
    fn run_level(&mut self) -> io::Result<bool> {
        if self.frontier.is_empty() || self.stop || !self.checkpoint_if_due()? {
            return Ok(false);
        }
        let cfg = self.exec.config();
        let remaining = cfg.max_transitions.saturating_sub(self.report.transitions);
        if remaining == 0 {
            self.report.truncated = true;
            return Ok(false);
        }
        let mut lvl = Level {
            remaining,
            epoch: (self.level + 1) as u32,
            next: self.spool(self.level + 1),
        };
        while !self.stop {
            let Some(chunk) = self.frontier.next_chunk(self.chunk_budget)? else {
                break;
            };
            let slots = self.expand_chunk(&chunk, &lvl);
            self.commit_chunk(&chunk, slots, &mut lvl)?;
        }
        self.report.frontier_spilled_entries += lvl.next.spooled();
        self.frontier = lvl.next;
        self.level += 1;
        self.store.end_of_level()?;
        Ok(true)
    }

    /// Checkpoint at the level boundary — the only instant where the run
    /// is exactly (sealed store, next frontier, report, level). Skipped on
    /// the boundary just resumed at: that checkpoint already exists.
    /// Returns `false` when the
    /// [`abort_after_checkpoints`](super::Config::abort_after_checkpoints)
    /// hook ends the run here.
    fn checkpoint_if_due(&mut self) -> io::Result<bool> {
        let cfg = self.exec.config();
        let Some(identity) = self.identity else {
            return Ok(true);
        };
        let level = self.level;
        if level == 0
            || !level.is_multiple_of(cfg.checkpoint_every)
            || self.resumed_level == Some(level)
        {
            return Ok(true);
        }
        let dirp = self
            .dir
            .as_ref()
            .expect("checkpointing implies a spill dir");
        checkpoint::write(
            dirp.path(),
            level,
            &self.report,
            self.report.checkpoints_written + 1,
            identity,
            (&mut self.store, self.interner.as_deref(), &mut self.table),
            (&mut self.frontier, &mut self.trace),
        )?;
        self.report.checkpoints_written += 1;
        if cfg
            .abort_after_checkpoints
            .is_some_and(|n| self.report.checkpoints_written >= n)
        {
            // A simulated kill at the first instant the checkpoint is
            // durable. The partial report is marked truncated; a
            // `--resume` run completes it.
            self.report.truncated = true;
            return Ok(false);
        }
        Ok(true)
    }

    /// How many workers a chunk of `n` items gets. Never more than the
    /// host can run: oversubscribed `--jobs` would create idle threads
    /// that only add scheduling noise. The clamp is invisible in the
    /// report — worker count never influences results.
    fn workers_for(&mut self, n: usize) -> usize {
        match self.exec.config().jobs.min(n) {
            0 | 1 => 1,
            wanted => wanted.min(*self.hw.get_or_insert_with(|| {
                std::thread::available_parallelism().map_or(usize::MAX, |n| n.get())
            })),
        }
    }

    /// One chunk's parallel expansion: each worker claims items through
    /// the cursor, expands each from its key into the worker's arena, and
    /// leaves only the lean commit record in the item's slot — any state
    /// built on a miss, and every successor, dies on the thread that
    /// built it.
    ///
    /// This makes **no store writes**, and the borrow checker says so: the
    /// workers hold the store as `&`. Successors are committed by
    /// [`FrontierRun::commit_chunk`], in one pass.
    fn expand_chunk(&mut self, chunk: &[FrontierItem], lvl: &Level) -> Vec<OnceLock<Expanded>> {
        let n = chunk.len();
        let workers = self.workers_for(n);
        if self.leases.len() < workers {
            self.leases.resize_with(workers, Default::default);
        }
        let exec = self.exec;
        let cfg = exec.config();
        let (store, interner) = (&self.store, &self.interner);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Expanded>> = (0..n).map(|_| OnceLock::new()).collect();
        // One worker's share of the chunk; returns the worker's coverage.
        let run = |w: usize, lease: &mut Lease| {
            let Lease { cache, memo, arena } = lease;
            let cov = cfg.track_coverage.then(|| Coverage::new(exec.program()));
            let mut cx = ExecCtx::with_coverage(lvl.remaining, cov);
            cx.interner = interner.clone();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let lent = (&mut *cache, &mut *memo);
                let fe = exec.expand(&mut cx, &chunk[i].key, lent, arena, |h, e| {
                    store.contains_sealed_before(h, e, lvl.epoch)
                });
                let claimed_once = slots[i].set(Expanded::new(fe, w, &mut cx)).is_ok();
                assert!(claimed_once, "the cursor hands out each item once");
            }
            cx.coverage
        };
        let per_worker: Vec<Option<Coverage>> = std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = self.leases[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, lease)| scope.spawn(move || run(w, lease)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("frontier worker panicked"))
                .collect()
        });
        if let Some(mine) = &mut self.coverage {
            for theirs in per_worker.into_iter().flatten() {
                mine.merge(&theirs);
            }
        }
        slots
    }

    /// The sequential ordered commit of one expanded chunk. One
    /// [`Store::commit`] over every successor *state* of the chunk
    /// (violation children carry the empty key and are left out), in
    /// commit order, flags the first occurrences; then the items fold in
    /// the same order: only flagged successors enter the next frontier,
    /// each with its path appended to the trace log, and the violation
    /// cap cuts at the same child for every worker count. Flags past a
    /// stop cut are never read; the states they stored are
    /// report-invisible (they only gate spill contents and later-level
    /// probes, and the run is stopping). The workers' arenas are cleared
    /// at the end.
    fn commit_chunk(
        &mut self,
        chunk: &[FrontierItem],
        slots: Vec<OnceLock<Expanded>>,
        lvl: &mut Level,
    ) -> io::Result<()> {
        let cfg = self.exec.config();
        let n = self.leases.iter().map(|l| l.arena.keys.len()).sum();
        let mut keys: Vec<(u64, &[u8])> = Vec::with_capacity(n);
        for slot in &slots {
            let e = slot.get().expect("every frontier item is expanded");
            let arena = &self.leases[e.worker].arena.keys;
            keys.extend(
                e.children
                    .clone()
                    .map(|j| arena.get(j))
                    .filter(|(_, enc)| !enc.is_empty()),
            );
        }
        let mut flags = self.store.commit(&keys, lvl.epoch)?.into_iter();
        drop(keys);
        let report = &mut self.report;
        report.pipeline_chunks += 1;
        let depth = self.level + 1;
        for (i, slot) in slots.into_iter().enumerate() {
            if self.stop {
                break;
            }
            let item = &chunk[i];
            let e = slot.into_inner().expect("every frontier item is expanded");
            report.transitions += e.transitions;
            report.truncated |= e.truncated;
            report.shared_components += e.shared_components;
            report.total_components += e.total_components;
            report.tosses_taken += e.tosses_taken;
            report.por_skipped_procs += e.por_skipped;
            report.por_proviso_fallbacks += e.por_fallback as usize;
            if e.deadlock {
                report.violations.push(Violation {
                    kind: ViolationKind::Deadlock,
                    process: None,
                    trace: self.trace.path(item.trace)?,
                });
                self.stop |= report.violations.len() >= cfg.max_violations;
            }
            let ExpandArena { children, keys, .. } = &mut self.leases[e.worker].arena;
            for j in e.children {
                if self.stop {
                    break;
                }
                let c = std::mem::take(&mut children[j]);
                match c.violation {
                    None => {
                        let enc = keys.get(j).1;
                        if flags.next().expect("one flag per successor state") {
                            report.states += 1;
                            report.max_depth_seen = report.max_depth_seen.max(depth);
                            if depth >= cfg.max_depth {
                                report.truncated = true;
                            } else {
                                let trace = self.trace.push(item.trace, &c.decision)?;
                                let fi = FrontierItem {
                                    key: enc.into(),
                                    trace,
                                };
                                lvl.next.push(fi)?;
                            }
                        }
                    }
                    Some((kind, process)) => {
                        let mut trace = self.trace.path(item.trace)?;
                        trace.push(c.decision);
                        report.violations.push(Violation {
                            kind,
                            process,
                            trace,
                        });
                        self.stop |= report.violations.len() >= cfg.max_violations;
                    }
                }
            }
        }
        for lease in &mut self.leases {
            lease.arena.clear();
        }
        Ok(())
    }

    /// Fold the store's and the workers' totals into the report.
    fn finish(self) -> Report {
        let FrontierRun {
            store,
            interner,
            leases,
            coverage,
            mut report,
            ..
        } = self;
        report.visited_bytes = store.bytes();
        report.visited_states = store.len();
        report.coverage = coverage;
        // Operational (non-deterministic-surface) IO counters.
        report.store_peak_mem_bytes = report.store_peak_mem_bytes.max(store.peak_mem_bytes());
        report.store_spilled_entries = store.spilled_entries();
        report.store_segments = store.spill_count();
        report.store_stored_bytes = store.stored_bytes();
        report.interner_entries = interner.as_ref().map_or(0, |i| i.len());
        report.interner_bytes = interner.as_ref().map_or(0, |i| i.bytes());
        // Commit observability (also operational).
        (report.store_batch_ops, report.store_batch_items) = store.batch_stats();
        for lease in &leases {
            report.memo += lease.memo.stats;
        }
        report
    }
}

/// One entry of the depth-first search's stack: a state's store key under
/// its fingerprint, its depth, and the decision that reached it from its
/// parent (the root's is never read).
struct DfsEntry {
    fp: u64,
    key: Box<[u8]>,
    depth: usize,
    decision: Decision,
}

/// Explicit-state depth-first search ([`Engine::Stateful`](super::Engine::Stateful))
/// storing full visited states (not hashes, so no collision
/// unsoundness); terminates on cyclic state spaces. Its stack holds
/// [`DfsEntry`]s, children pushed in expansion order and popped last-in
/// first-out; a popped entry not yet visited is expanded from its key
/// through the run's one component cache, transition memo and arena. The
/// path to the entry being expanded is one `Vec<Decision>`, a decision
/// per depth: an entry at depth `d` replaces the path from depth `d` on
/// with its own decision. That is exact because an item's children are
/// pushed together, so every entry expanded between a parent and its
/// child lies deeper than the child and leaves the parent's path intact.
/// The POR proviso probes the visited set at expansion time: the last
/// state of any reduced-graph cycle to be expanded necessarily sees its
/// cycle successor already visited, so it is fully expanded and no
/// enabled process is ignored forever (see [`Executor::expand`]).
pub(super) fn dfs(exec: &Executor<'_>) -> Report {
    let cfg = exec.config();
    let interner: Option<Arc<ComponentInterner>> =
        (!cfg.no_compress).then(|| Arc::new(ComponentInterner::new()));
    let mut cx = ExecCtx::new(exec, cfg.max_transitions);
    cx.interner = interner.clone();
    let (mut cache, mut memo) = (ComponentCache::default(), TransitionMemo::default());
    let mut arena = ExpandArena::default();
    let mut report = Report::default();
    let mut stop = false;
    // Records a violation; true once the cap is reached.
    let record = |report: &mut Report, kind, process, trace| {
        report.violations.push(Violation {
            kind,
            process,
            trace,
        });
        report.violations.len() >= cfg.max_violations
    };
    // The visited set: store keys under the (cheap, incrementally
    // combined) fingerprint; membership compares bytes, per the
    // collision-safety rule in [`crate::state::encode`].
    let mut visited = KeySet::<()>::default();
    let (h0, key0) = cx.state_key(&exec.initial());
    let mut stack = vec![DfsEntry {
        fp: h0,
        key: key0.into(),
        depth: 0,
        decision: Decision::default(),
    }];
    let mut path: Vec<Decision> = Vec::new();
    let mut stored_bytes = 0usize;
    while let Some(item) = stack.pop() {
        if stop || cx.truncated {
            break;
        }
        if !visited.insert(item.fp, &item.key) {
            continue;
        }
        // `visited_bytes` is the *raw* logical total either way — a
        // compressed entry carries its raw length in the tuple prefix —
        // so the report is byte-identical across compression modes.
        report.visited_bytes += match &interner {
            Some(_) => raw_len_of(&item.key).expect("compressed tuple prefix"),
            None => item.key.len(),
        };
        stored_bytes += item.key.len();
        report.visited_states += 1;
        report.states += 1;
        report.max_depth_seen = report.max_depth_seen.max(item.depth);
        if item.depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }
        if item.depth > 0 {
            path.truncate(item.depth - 1);
            path.push(item.decision);
        }
        let lent = (&mut cache, &mut memo);
        let e = exec.expand(&mut cx, &item.key, lent, &mut arena, |h, k| {
            visited.contains(h, k)
        });
        report.por_skipped_procs += e.por_skipped;
        report.por_proviso_fallbacks += e.por_fallback as usize;
        if e.dead_end == Some(true) {
            stop |= record(&mut report, ViolationKind::Deadlock, None, path.clone());
        }
        let keys = &arena.keys;
        for (c, j) in arena.children.drain(e.children.clone()).zip(e.children) {
            if stop {
                break;
            }
            match c.violation {
                None => {
                    let (fp, key) = keys.get(j);
                    stack.push(DfsEntry {
                        fp,
                        key: key.into(),
                        depth: item.depth + 1,
                        decision: c.decision,
                    });
                }
                Some((kind, process)) => {
                    let mut trace = path.clone();
                    trace.push(c.decision);
                    stop |= record(&mut report, kind, process, trace);
                }
            }
        }
        arena.clear();
    }
    report.transitions = cx.transitions;
    report.truncated |= cx.truncated;
    report.shared_components = cx.shared_components;
    report.total_components = cx.total_components;
    report.tosses_taken = cx.tosses_taken;
    report.coverage = cx.coverage;
    report.store_stored_bytes = stored_bytes;
    report.interner_entries = interner.as_ref().map_or(0, |i| i.len());
    report.interner_bytes = interner.as_ref().map_or(0, |i| i.bytes());
    report.memo = memo.stats;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{decode_state, GlobalState};

    /// The spool and checkpoint record of a frontier item is
    /// `trace ‖ key`: the item's offset in the trace log, then the key.
    #[test]
    fn spool_record_is_trace_key() {
        let item = FrontierItem {
            key: Box::from([165u8, 1, 2, 0, 7, 1, 3]),
            trace: TraceRef(300),
        };
        let mut out = Vec::new();
        item.spool_encode(&mut out);
        #[rustfmt::skip]
        let golden = [
            0xAC, 0x02,             // trace 300
            165, 1, 2, 0, 7, 1, 3,  // the key takes the rest
        ];
        assert_eq!(out, golden);
        assert_eq!(item.cost(), 7, "an entry costs its key");
    }

    #[test]
    fn spool_roundtrip_is_the_identity_for_both_key_kinds() {
        let prog = cfgir::compile(
            "chan c[1]; sem s = 1; proc m() { sem_wait(s); send(c, 1); } process m(); process m();",
        )
        .unwrap();
        let state = GlobalState::initial(&prog);
        let interner = ComponentInterner::new();
        let compressed = state.fingerprint_and_intern(&interner).1;
        let raw = state.fingerprint_and_encode().1;
        assert_ne!(compressed, raw);
        for key in [&compressed, &raw] {
            let item = FrontierItem {
                key: key.as_slice().into(),
                trace: TraceRef(1 << 20),
            };
            let mut out = Vec::new();
            item.spool_encode(&mut out);
            let back = FrontierItem::spool_decode(&out).expect("own record decodes");
            assert_eq!(back.key, item.key);
            assert_eq!(back.trace, item.trace);
            // A record cut inside its trace reference is rejected, not
            // guessed at.
            assert!(FrontierItem::spool_decode(&out[..2]).is_none());
        }
        // Either kind of key rebuilds the state it was taken from.
        let mut cache = ComponentCache::default();
        assert_eq!(
            interner.materialize(&mut cache, &compressed),
            Some(state.clone())
        );
        assert_eq!(decode_state(&raw), Some(state));
    }
}
