//! Explicit-state drivers: DFS over stored visited states, the
//! level-synchronous frontier BFS ([`BfsDriver`]), and the deterministic
//! parallel frontier engine ([`StatefulParallel`]) backed by the tiered
//! spillable [`TieredStore`](super::store).
//!
//! All three apply persistent-set partial-order reduction with the
//! ignoring/cycle proviso through
//! [`Executor::expand_stateful`](crate::executor::Executor::expand_stateful):
//! a state is expanded over its persistent set only, unless one of the
//! reduced successors is already in the driver's visited store — an edge
//! that may close a cycle — in which case the state is fully expanded so
//! no process is ignored around the cycle (docs/EXPLORER.md §5). The
//! proviso predicate is a pure function of the state and a
//! timing-independent store snapshot, so every report stays
//! byte-identical for any worker count.
//!
//! The frontier engines additionally run **out of core** when
//! [`Config::mem_limit`](super::Config::mem_limit) is finite: sealed
//! states spill to disk segments, the frontier spools to disk past its
//! RAM budget, and each level is processed in bounded-memory *chunks*.
//! Chunked processing is byte-identical to unbounded processing by
//! construction — see the commit-order argument at [`frontier_search`]
//! — and with a [`Config::checkpoint_dir`](super::Config::checkpoint_dir)
//! the engine checkpoints at level boundaries so a killed run can
//! `--resume` and complete with the identical report.

use super::store::{checkpoint, rank, FrontierSpool, SpillDir, Spoolable, StateStore, TieredStore};
use crate::coverage::Coverage;
use crate::executor::{
    ExecCtx, Executor, FrontierExpansion, KeyArena, LeanChild, NodeExpansion, SuccOutcome,
};
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::encode::{put_u64, ByteReader};
use crate::state::{decode_state, ComponentCache, ComponentInterner, GlobalState, TransitionMemo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A persistent reproducing path: a parent-pointer list whose nodes are
/// shared between all successors of a state, so queuing a successor
/// costs one `Arc` allocation instead of a deep `Vec<Decision>` clone
/// per child (which is O(depth) and dominated the commit loops). Paths
/// are materialized root-first only when a violation (or deadlock) is
/// actually recorded, producing exactly the `Vec<Decision>` the eager
/// representation would have built.
#[derive(Clone, Default)]
struct Trace(Option<Arc<TraceNode>>);

struct TraceNode {
    decision: Decision,
    parent: Trace,
}

impl Trace {
    /// The path extended by one decision (O(1), shares the prefix).
    fn push(&self, decision: Decision) -> Trace {
        Trace(Some(Arc::new(TraceNode {
            decision,
            parent: self.clone(),
        })))
    }

    /// Materialize into the root-first decision sequence recorded in
    /// violation reports.
    fn to_vec(&self) -> Vec<Decision> {
        let mut out = Vec::new();
        let mut cur = &self.0;
        while let Some(n) = cur {
            out.push(n.decision.clone());
            cur = &n.parent.0;
        }
        out.reverse();
        out
    }

    /// [`Trace::to_vec`] with one more trailing decision, without
    /// allocating a list node for it.
    fn pushed_vec(&self, decision: Decision) -> Vec<Decision> {
        let mut out = self.to_vec();
        out.push(decision);
        out
    }
}

/// Explicit-state depth-first search storing full visited states (not
/// hashes, so no collision unsoundness); terminates on cyclic state
/// spaces. The POR proviso consults the visited set as of each
/// expansion, which is sound for any exploration order (see
/// `expand_stateful`'s cycle argument).
pub struct StatefulDfs;

impl super::SearchDriver for StatefulDfs {
    fn run(&mut self, exec: &Executor<'_>) -> Report {
        stateful_dfs(exec)
    }
}

/// Explicit-state breadth-first search: the first violation reported has
/// a *shortest* reproducing trace (best for debugging).
///
/// Runs the same level-synchronous frontier algorithm as
/// [`StatefulParallel`] on a single worker, so the two are equal by
/// construction — including the POR proviso, whose predicate (successor
/// already *sealed*, i.e. committed in an earlier level) depends only on
/// the frontier level, never on intra-level processing order.
pub struct BfsDriver;

impl super::SearchDriver for BfsDriver {
    fn run(&mut self, exec: &Executor<'_>) -> Report {
        frontier_search(exec, 1)
    }
}

/// Deterministic parallel explicit-state search over
/// [`Config::jobs`](super::Config::jobs) worker threads.
///
/// The engine is level-synchronous breadth-first: each round, workers
/// expand the frontier's states concurrently (claiming items through an
/// atomic cursor) and *admit* every successor to the shared
/// [`VisitedStore`] tagged with its shard-lexicographic discovery rank
/// `(frontier index, successor index)`. The round then commits
/// sequentially in rank order: a successor joins the next frontier iff
/// its rank is the store's winning (minimal) occurrence of that state,
/// so the explored set, the violation order, every reproducing trace,
/// and all counters are byte-identical for any worker count — and
/// identical to the sequential [`BfsDriver`], which is this engine on
/// one worker.
pub struct StatefulParallel;

impl super::SearchDriver for StatefulParallel {
    fn run(&mut self, exec: &Executor<'_>) -> Report {
        frontier_search(exec, exec.config().jobs.max(1))
    }
}

/// One frontier entry: a committed (sealed) state awaiting expansion,
/// held as its **store key** — the compressed component-ID tuple the
/// commit already has in hand for every winner (the raw canonical
/// encoding under `--no-compress`) — not as a live state. A
/// [`GlobalState`] exists only while a worker expands the entry
/// ([`rebuild`], DESIGN §14), so a frontier level costs a few dozen
/// bytes per entry instead of a private heap graph each.
struct FrontierItem {
    key: Box<[u8]>,
    depth: usize,
    path: Trace,
}

impl Spoolable for FrontierItem {
    /// `depth ‖ path ‖ key`; the key takes the remaining bytes, so the
    /// record needs no interner to write or to read back.
    fn spool_encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.depth as u64);
        let path = self.path.to_vec();
        put_u64(out, path.len() as u64);
        for d in &path {
            checkpoint::put_decision(out, d);
        }
        out.extend_from_slice(&self.key);
    }

    fn spool_decode(bytes: &[u8]) -> Option<Self> {
        let mut r = ByteReader::new(bytes);
        let depth = usize::try_from(r.u64()?).ok()?;
        let n = usize::try_from(r.u64()?).ok()?;
        // The persistent trace is rebuilt by folding `push`; prefix
        // sharing with sibling items is lost (each spooled item owns its
        // path), which is the documented cost of spooling an entry.
        let mut path = Trace::default();
        for _ in 0..n {
            path = path.push(checkpoint::read_decision(&mut r)?);
        }
        let key = Box::from(&bytes[r.pos()..]);
        Some(FrontierItem { key, depth, path })
    }
}

/// The state a frontier key denotes, built for the moment it is
/// expanded: through the worker's component cache when the run
/// compresses, by decoding the raw encoding otherwise.
///
/// # Panics
///
/// Panics when `key` does not decode. Keys are this run's own store
/// keys, so that means a spool or checkpoint file was damaged on disk.
fn rebuild(
    interner: Option<&ComponentInterner>,
    cache: &mut ComponentCache,
    key: &[u8],
) -> GlobalState {
    match interner {
        Some(i) => i.materialize(cache, key),
        None => decode_state(key),
    }
    .expect("frontier key does not decode (damaged spool or checkpoint file?)")
}

/// A worker's expansion of one frontier item, reduced to what the
/// ordered commit reads. An in-memory level is a single chunk, so these
/// records exist for *every* child of the widest level at once
/// (duplicates included): they hold no state, no sleep set and no
/// visible event.
struct Expanded {
    /// The item had no enabled transition and that is a deadlock.
    deadlock: bool,
    /// The children in expansion order (none at a dead end).
    children: Vec<LeanChild>,
    /// Per child, aligned with `children`: the state's stable
    /// fingerprint and store key (`(0, empty)` for violation outcomes),
    /// arena-flattened. Computed worker-side so the sequential commit
    /// only compares bytes.
    keys: KeyArena,
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
    fn new(fe: FrontierExpansion, cx: &mut ExecCtx) -> Expanded {
        Expanded {
            deadlock: fe.dead_end == Some(true),
            children: fe.children,
            keys: fe.keys,
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

/// The level-synchronous frontier search (`jobs == 1`: the sequential
/// BFS driver; `jobs > 1`: the parallel engine — same report either way).
///
/// ## Why chunking (and therefore spilling) cannot change the report
///
/// Under a finite memory budget a level is consumed in FIFO *chunks*
/// ([`FrontierSpool::next_chunk`]); each chunk is expanded and committed
/// before the next is read. This is byte-identical to processing the
/// whole level at once because:
///
/// 1. **Ranks are global to the level.** Chunk `c` starting at frontier
///    offset `base` commits with ranks `rank(base + i, j)` — the exact
///    ranks a single-chunk run assigns — and chunk bases are strictly
///    increasing, so the level-minimal rank of any state appears in the
///    earliest chunk that discovers it, where `seal_if_winner` crowns
///    the same winner the unbounded commit would.
/// 2. **The proviso is epoch-bounded.** Workers probe
///    `contains_sealed_before(h, e, level+1)`: entries sealed by
///    *earlier chunks of the same level* carry epoch `level+1` and are
///    invisible, so every chunk sees exactly the sealed set a
///    single-chunk run's phase sees.
/// 3. **Budgets are level-fixed.** The per-item transition budget is the
///    level-start remainder for every chunk, and the violation cap cuts
///    at a rank — both independent of chunk boundaries.
///
/// Chunk boundaries themselves depend only on entry byte sizes against
/// a fixed budget, never on timing, so the whole argument also holds
/// for any worker count.
fn frontier_search(exec: &Executor<'_>, jobs: usize) -> Report {
    let cfg = exec.config();
    let jobs = jobs.max(1);
    // Never spawn more workers than the host can run: oversubscribed
    // `--jobs` used to create idle threads that only added scheduling
    // noise. The clamp is invisible in the report — worker count never
    // influences results (the determinism argument above). Asked at most
    // once, and only when a second thread could be used: the query is
    // 10 µs of a five-state exploration.
    let hw = OnceLock::new();
    let hw =
        || *hw.get_or_init(|| std::thread::available_parallelism().map_or(usize::MAX, |n| n.get()));
    // Commit-path selection. `scalar_commit` forces the historical
    // reference path (per-successor admits in the workers, per-child
    // seals in the commit loop); the batched path is the default and is
    // result-identical by construction — the differential oracle tests
    // flip this switch to check exactly that. Pipelining (expanding
    // chunk c+1 while chunk c commits) requires the batched path: only
    // deferred admits make a discarded prefetch side-effect-free.
    let scalar_commit = cfg.scalar_commit;
    let pipeline_forced = match std::env::var("RECLOSE_PIPELINE").ok().as_deref() {
        Some("0") => Some(false),
        Some("1") => Some(true),
        _ => None,
    };
    let pipeline = || pipeline_forced.unwrap_or_else(|| !scalar_commit && hw() >= 2);
    let mut chunks_committed = 0usize;
    let mut chunks_overlapped = 0usize;
    let checkpointing = cfg.checkpoint_dir.is_some();
    assert!(
        !(checkpointing && cfg.track_coverage),
        "coverage maps are not checkpointed; disable --coverage to checkpoint"
    );
    let dir: Option<Arc<SpillDir>> = match (&cfg.checkpoint_dir, cfg.mem_limit) {
        (Some(d), _) => Some(SpillDir::at(d).expect("create checkpoint directory")),
        (None, usize::MAX) => None,
        (None, _) => Some(SpillDir::temp().expect("create spill temp directory")),
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
    // The per-run component interner behind collapse compression: every
    // store/spool/checkpoint record becomes a compact varint tuple of dense
    // component IDs. IDs are assignment-order-dependent (and so may vary
    // with worker timing), which is harmless — they never appear in a
    // report, and checkpoints persist the assignment so resumed tuples
    // keep meaning the same states.
    let interner: Option<Arc<ComponentInterner>> =
        (!cfg.no_compress).then(|| Arc::new(ComponentInterner::new()));
    let store = TieredStore::new_with(store_budget, dir.clone(), interner.is_some());
    let every = if cfg.checkpoint_every == 0 {
        32
    } else {
        cfg.checkpoint_every
    };
    let (program_hash, config_digest) = if checkpointing {
        (
            cfgir::program_content_hash(exec.program()),
            checkpoint::config_digest(cfg),
        )
    } else {
        (0, 0)
    };

    let mut report = Report::default();
    let mut coverage = cfg.track_coverage.then(|| Coverage::new(exec.program()));
    let mut level: usize = 0;
    let mut checkpoints = 0usize;
    let mut resumed_level = None;
    let mut frontier;
    if cfg.resume {
        let dirp = cfg
            .checkpoint_dir
            .as_deref()
            .expect("--resume requires a checkpoint directory");
        let r = checkpoint::resume::<FrontierItem>(
            dirp,
            program_hash,
            config_digest,
            &store,
            interner.as_deref(),
        )
        .unwrap_or_else(|e| panic!("resume failed: {e}"));
        level = r.level;
        checkpoints = r.checkpoints_written;
        report = r.report;
        resumed_level = Some(level);
        frontier = FrontierSpool::new(spool_budget, dir.clone(), level as u64);
        for (item, cost) in r.frontier {
            frontier.push(item, cost).expect("respool resumed frontier");
        }
    } else {
        frontier = FrontierSpool::new(spool_budget, dir.clone(), 0);
        let init = exec.initial();
        let (h0, enc0) = match &interner {
            Some(i) => init.fingerprint_and_intern(i),
            None => init.fingerprint_and_encode(),
        };
        store.admit(h0, &enc0, rank(0, 0));
        store.seal(h0, &enc0, 0);
        report.states = 1;
        if cfg.max_depth == 0 {
            report.truncated = true;
        } else {
            let cost = enc0.len();
            let item = FrontierItem {
                key: enc0.into(),
                depth: 0,
                path: Trace::default(),
            };
            frontier.push(item, cost).expect("spool initial frontier");
        }
    }
    report.frontier_spilled_entries += frontier.spooled();

    // One component cache and one transition memo per worker, kept for
    // the whole run and lent to whichever thread runs that worker for a
    // chunk: an out-of-core run has hundreds of chunks, and none of them
    // should decode a component, or interpret a transition, its worker
    // has already seen. Grown on demand (most explorations are tiny and
    // single-worker); the cache is bounded by the interner's table, the
    // memo by its distinct (process, object) pairs.
    let mut caches: Vec<(ComponentCache, TransitionMemo)> = Vec::new();
    let mut stop = false;
    while !frontier.is_empty() && !stop {
        // Checkpoint at the level boundary — the only instant where the
        // loop state is exactly (sealed store, next frontier, report,
        // level). Skipped on the boundary we just resumed at: that
        // checkpoint already exists.
        if checkpointing && level > 0 && level.is_multiple_of(every) && resumed_level != Some(level)
        {
            let dirp = dir.as_ref().expect("checkpointing implies a spill dir");
            checkpoint::write(
                dirp.path(),
                level,
                &report,
                checkpoints + 1,
                (program_hash, config_digest),
                (&store, interner.as_deref()),
                &mut frontier,
            )
            .expect("write checkpoint");
            checkpoints += 1;
            if cfg
                .abort_after_checkpoints
                .is_some_and(|n| checkpoints >= n)
            {
                // Test hook: a simulated kill at the first instant the
                // checkpoint is durable. The partial report is marked
                // truncated; a `--resume` run completes it.
                report.truncated = true;
                break;
            }
        }

        // The per-item budget is the *level-start* remainder — a value
        // fixed before any worker or chunk runs, so the expansion of an
        // item is a pure function of the item, never of sibling timing
        // or chunk boundaries. The same holds for the POR proviso:
        // `contains_sealed_before` bounded by this level's epoch sees
        // exactly the states committed by earlier levels, a set neither
        // workers nor earlier chunks of this level can grow.
        let remaining = cfg.max_transitions.saturating_sub(report.transitions);
        if remaining == 0 {
            report.truncated = true;
            break;
        }
        let epoch = (level + 1) as u32; // successors seal into the next level
        let mut next = FrontierSpool::new(spool_budget, dir.clone(), (level + 1) as u64);
        let mut base = 0usize; // frontier offset of the current chunk

        // One chunk's parallel expansion. On the batched path this has
        // **no store writes at all**: successors are only admitted by
        // the sequential phase below, after the previous chunk's commit
        // completed without a stop cut. That deferral is what makes
        // pipelining safe — a chunk expanded ahead of time and then
        // discarded leaves zero trace in the store (interner ID
        // assignments aside, which are documented timing-dependent and
        // report-invisible). Scalar mode keeps the historical inline
        // admits for the differential oracle.
        let expand_chunk =
            |chunk: &[FrontierItem],
             chunk_base: usize,
             caches: &mut Vec<(ComponentCache, TransitionMemo)>| {
                let n = chunk.len();
                let cursor = AtomicUsize::new(0);
                let workers = match jobs.min(n) {
                    0 | 1 => 1,
                    wanted => wanted.min(hw()),
                };
                if caches.len() < workers {
                    caches.resize_with(workers, Default::default);
                }
                let slots: Vec<OnceLock<Expanded>> = (0..n).map(|_| OnceLock::new()).collect();
                // One worker's share of the chunk: claim items through the
                // cursor, rebuild each from its key, expand it, and leave
                // only the lean commit record in the item's slot — the
                // item's state and all its successors die here, on the
                // thread that built them. Returns the worker's coverage.
                let run = |(cache, memo): &mut (ComponentCache, TransitionMemo)| {
                    let cov = cfg.track_coverage.then(|| Coverage::new(exec.program()));
                    let mut cx = ExecCtx::with_coverage(remaining, cov);
                    cx.interner = interner.clone();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let state = rebuild(interner.as_deref(), cache, &chunk[i].key);
                        let fe = exec.expand_frontier(
                            &mut cx,
                            &state,
                            (&mut *cache, &mut *memo),
                            |h, e| store.contains_sealed_before(h, e, epoch),
                        );
                        if scalar_commit {
                            for (j, (h, enc)) in fe.keys.iter().enumerate() {
                                if !enc.is_empty() {
                                    store.admit(h, enc, rank(chunk_base + i, j));
                                }
                            }
                        }
                        let claimed_once = slots[i].set(Expanded::new(fe, &mut cx)).is_ok();
                        assert!(claimed_once, "the cursor hands out each item once");
                    }
                    cx.coverage
                };
                let per_worker: Vec<Option<Coverage>> = std::thread::scope(|scope| {
                    let run = &run;
                    let handles: Vec<_> = caches[..workers]
                        .iter_mut()
                        .map(|lent| scope.spawn(move || run(lent)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("frontier worker panicked"))
                        .collect()
                });
                let mut chunk_cov: Option<Coverage> = None;
                for theirs in per_worker.into_iter().flatten() {
                    match &mut chunk_cov {
                        Some(mine) => mine.merge(&theirs),
                        None => chunk_cov = Some(theirs),
                    }
                }
                (slots, chunk_cov)
            };

        // The chunk loop, double-buffered: while the main thread commits
        // chunk c, the workers may already be expanding chunk c+1
        // (`pending`). Determinism is untouched because everything an
        // expansion reads is frozen for the whole level — the per-item
        // budget is the level-start remainder, and the proviso probe is
        // bounded by this level's epoch, a set this level's own seals
        // can never enter. Pipelining stays within the level: the next
        // chunk only exists once this level's spool has it.
        type PendingChunk = (Vec<FrontierItem>, Vec<OnceLock<Expanded>>, Option<Coverage>);
        let mut pending: Option<PendingChunk> = None;
        loop {
            let (chunk, slots, chunk_cov) = match pending.take() {
                Some(p) => p,
                None => {
                    let Some(chunk) = frontier
                        .next_chunk(chunk_budget)
                        .expect("read frontier spool")
                    else {
                        break;
                    };
                    let (slots, cov) = expand_chunk(&chunk, base, &mut caches);
                    (chunk, slots, cov)
                }
            };
            if stop {
                // A prefetched chunk is discarded here with zero store
                // side effects: its admits never happened.
                break;
            }
            let n = chunk.len();
            chunks_committed += 1;

            // Sequential batched admission (the scalar path admitted
            // inline in the workers): every successor of the chunk in
            // one store call, grouped by stripe. Arrival order within
            // the batch is immaterial — admission keeps the minimum
            // rank — so this equals the scalar admits exactly.
            if !scalar_commit {
                let cap: usize = slots
                    .iter()
                    .map(|s| s.get().map_or(0, |e| e.keys.len()))
                    .sum();
                let mut admits: Vec<(u64, u64, &[u8])> = Vec::with_capacity(cap);
                for (i, slot) in slots.iter().enumerate() {
                    let e = slot.get().expect("every frontier item is expanded");
                    for (j, (h, enc)) in e.keys.iter().enumerate() {
                        if !enc.is_empty() {
                            admits.push((h, rank(base + i, j), enc));
                        }
                    }
                }
                store.insert_batch(&mut admits);
            }
            if let (Some(mine), Some(theirs)) = (&mut coverage, chunk_cov.as_ref()) {
                mine.merge(theirs);
            }

            // Winner flags for the whole chunk in one batched pre-pass.
            // Valid because winners are final once the chunk's admits
            // are in: every rank that could beat a stored one was
            // admitted by this or an earlier chunk (later chunks only
            // carry larger ranks), and at most one probe per state holds
            // the stored minimum, so per-stripe batching cannot change
            // any verdict. Flags past a stop cut are simply never read;
            // the extra seals they performed are report-invisible (seals
            // only gate spill contents and later-level probes, and the
            // run is stopping). Scalar mode seals per child instead.
            let flags: Vec<bool> = if scalar_commit {
                Vec::new()
            } else {
                let cap: usize = slots
                    .iter()
                    .map(|s| s.get().map_or(0, |e| e.keys.len()))
                    .sum();
                let mut probes: Vec<(u64, u64, &[u8])> = Vec::with_capacity(cap);
                for (i, slot) in slots.iter().enumerate() {
                    let e = slot.get().expect("every frontier item is expanded");
                    for (j, c) in e.children.iter().enumerate() {
                        if c.violation.is_none() {
                            let (h, enc) = e.keys.get(j);
                            probes.push((h, rank(base + i, j), enc));
                        }
                    }
                }
                store.seal_batch(&probes, epoch)
            };

            // Commit this chunk — overlapped with the next chunk's
            // expansion when pipelining is on and the level has one.
            let next_chunk = if !frontier.is_empty() && pipeline() {
                frontier
                    .next_chunk(chunk_budget)
                    .expect("read frontier spool")
            } else {
                None
            };
            match next_chunk {
                Some(nc) => {
                    let prefetched = std::thread::scope(|scope| {
                        let handle = scope.spawn(|| expand_chunk(&nc, base + n, &mut caches));
                        commit_chunk(
                            &chunk,
                            slots,
                            &flags,
                            base,
                            epoch,
                            scalar_commit,
                            cfg,
                            &store,
                            &mut report,
                            &mut next,
                            &mut stop,
                        );
                        handle.join().expect("prefetching worker panicked")
                    });
                    chunks_overlapped += 1;
                    pending = Some((nc, prefetched.0, prefetched.1));
                }
                None => {
                    commit_chunk(
                        &chunk,
                        slots,
                        &flags,
                        base,
                        epoch,
                        scalar_commit,
                        cfg,
                        &store,
                        &mut report,
                        &mut next,
                        &mut stop,
                    );
                }
            }
            base += n;
        }
        report.frontier_spilled_entries += next.spooled();
        frontier = next;
        level += 1;
        store.end_of_level().expect("spill visited store");
    }
    report.visited_bytes = store.bytes();
    report.visited_states = store.len();
    report.coverage = coverage;
    // Operational (non-deterministic-surface) IO counters.
    report.store_peak_mem_bytes = report.store_peak_mem_bytes.max(store.peak_mem_bytes());
    report.store_spilled_entries = store.spilled_entries();
    report.store_segments = store.segment_count();
    report.checkpoints_written = checkpoints;
    report.store_stored_bytes = store.stored_bytes();
    report.store_segments_compacted = store.segments_compacted();
    report.interner_entries = interner.as_ref().map_or(0, |i| i.len());
    report.interner_bytes = interner.as_ref().map_or(0, |i| i.bytes());
    // Batched-commit-path observability (also operational): how much the
    // batch grouping and the tier-1 prefilter actually saved, and how
    // often the pipeline found a chunk to overlap.
    let (m_ops, m_items, m_avoided) = store.batch_stats();
    let (i_ops, i_items, i_avoided) = interner.as_ref().map_or((0, 0, 0), |i| i.batch_stats());
    report.store_batch_ops = m_ops + i_ops;
    report.store_batch_items = m_items + i_items;
    report.store_lock_acquisitions_avoided = m_avoided + i_avoided;
    let (pf_probes, pf_hits, pf_rebuilds) = store.prefilter_stats();
    report.prefilter_probes = pf_probes;
    report.prefilter_hits = pf_hits;
    report.prefilter_rebuilds = pf_rebuilds;
    report.pipeline_chunks = chunks_committed;
    report.pipeline_overlapped_chunks = chunks_overlapped;
    for (_, memo) in &caches {
        report.memo += memo.stats;
    }
    report
}

/// The sequential ordered commit of one expanded chunk: fold items in
/// rank order; only winning occurrences enter the next frontier, and the
/// violation cap cuts at the same rank for every worker count. On the
/// batched path the winner verdicts were precomputed by
/// [`TieredStore::seal_batch`] into `flags`, consumed here in the same
/// child order they were built in (`flags` is empty — and unread — in
/// scalar mode, which seals per child instead). Extracted from
/// [`frontier_search`] so the pipeline can run it on the main thread
/// while a scoped worker expands the next chunk.
#[allow(clippy::too_many_arguments)]
fn commit_chunk(
    chunk: &[FrontierItem],
    slots: Vec<OnceLock<Expanded>>,
    flags: &[bool],
    base: usize,
    epoch: u32,
    scalar_commit: bool,
    cfg: &super::Config,
    store: &TieredStore,
    report: &mut Report,
    next: &mut FrontierSpool<FrontierItem>,
    stop: &mut bool,
) {
    let mut fx = 0usize; // running index into `flags`, one per State child
    for (i, slot) in slots.into_iter().enumerate() {
        if *stop {
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
                trace: item.path.to_vec(),
            });
            *stop |= report.violations.len() >= cfg.max_violations;
        }
        for (j, c) in e.children.into_iter().enumerate() {
            if *stop {
                break;
            }
            match c.violation {
                None => {
                    let (h, enc) = e.keys.get(j);
                    let won = if scalar_commit {
                        store.seal_if_winner(h, enc, rank(base + i, j), epoch)
                    } else {
                        let f = flags[fx];
                        fx += 1;
                        f
                    };
                    if won {
                        report.states += 1;
                        report.max_depth_seen = report.max_depth_seen.max(item.depth + 1);
                        if item.depth + 1 >= cfg.max_depth {
                            report.truncated = true;
                        } else {
                            // Cost rule 1 of the spool's chunking
                            // contract: the key length.
                            let fi = FrontierItem {
                                key: enc.into(),
                                depth: item.depth + 1,
                                path: item.path.push(c.decision),
                            };
                            next.push(fi, enc.len()).expect("spool next frontier");
                        }
                    }
                }
                Some((kind, process)) => {
                    report.violations.push(Violation {
                        kind,
                        process,
                        trace: item.path.pushed_vec(c.decision),
                    });
                    *stop |= report.violations.len() >= cfg.max_violations;
                }
            }
        }
    }
}

/// Explicit-state depth-first search. The POR proviso probes the visited
/// set at expansion time: the last state of any reduced-graph cycle to
/// be expanded necessarily sees its cycle successor already visited, so
/// it is fully expanded and no enabled process is ignored forever.
fn stateful_dfs(exec: &Executor<'_>) -> Report {
    let cfg = exec.config();
    let interner: Option<Arc<ComponentInterner>> =
        (!cfg.no_compress).then(|| Arc::new(ComponentInterner::new()));
    let mut cx = ExecCtx::new(exec, cfg.max_transitions);
    cx.interner = interner.clone();
    let mut report = Report::default();
    let mut stop = false;
    let record = |report: &mut Report,
                  stop: &mut bool,
                  kind: ViolationKind,
                  process: Option<usize>,
                  trace: Vec<Decision>| {
        report.violations.push(Violation {
            kind,
            process,
            trace,
        });
        if report.violations.len() >= cfg.max_violations {
            *stop = true;
        }
    };
    // The visited set: canonical encodings bucketed by the (cheap,
    // incrementally combined) fingerprint; membership compares bytes,
    // per the collision-safety rule in [`crate::state::encode`]. Keyed
    // by an already-mixed fingerprint, so the pass-through hasher
    // applies here too.
    let mut visited: HashMap<u64, Vec<Box<[u8]>>, crate::hash::FpBuildHasher> = HashMap::default();
    // Work items carry their depth, (persistent) reproducing path, and
    // the state's fingerprint + canonical encoding — computed once at
    // discovery (`expand_stateful` needs them for the proviso anyway)
    // and reused for the pop-time dedup instead of re-encoding.
    type DfsItem = (GlobalState, usize, Trace, u64, Box<[u8]>);
    let init = exec.initial();
    let (h0, e0) = cx.state_key(&init);
    let mut stack: Vec<DfsItem> = vec![(init, 0, Trace::default(), h0, e0.into_boxed_slice())];
    let mut stored_bytes = 0usize;
    while let Some((state, depth, path, fp, enc)) = stack.pop() {
        if stop || cx.truncated {
            break;
        }
        let bucket = visited.entry(fp).or_default();
        if bucket.iter().any(|e| **e == *enc) {
            continue;
        }
        // `visited_bytes` is the *raw* logical total either way — a
        // compressed entry carries its raw length in the tuple prefix —
        // so the report is byte-identical across compression modes.
        report.visited_bytes += match &interner {
            Some(_) => crate::state::intern::raw_len_of(&enc).expect("compressed tuple prefix"),
            None => enc.len(),
        };
        stored_bytes += enc.len();
        report.visited_states += 1;
        bucket.push(enc);
        report.states += 1;
        report.max_depth_seen = report.max_depth_seen.max(depth);
        if depth >= cfg.max_depth {
            report.truncated = true;
            continue;
        }
        let se = exec.expand_stateful(&mut cx, &state, |h, e| {
            visited.get(&h).is_some_and(|b| b.iter().any(|x| **x == *e))
        });
        report.por_skipped_procs += se.por_skipped;
        report.por_proviso_fallbacks += se.por_fallback as usize;
        match se.expansion {
            NodeExpansion::DeadEnd { deadlock } => {
                if deadlock {
                    record(
                        &mut report,
                        &mut stop,
                        ViolationKind::Deadlock,
                        None,
                        path.to_vec(),
                    );
                }
            }
            NodeExpansion::Children(cs) => {
                for (c, (h, e)) in cs.into_iter().zip(se.keys.iter()) {
                    if stop {
                        break;
                    }
                    let d = Decision {
                        process: c.process,
                        choices: c.choices,
                    };
                    match c.outcome {
                        SuccOutcome::State(s, _) => {
                            stack.push((*s, depth + 1, path.push(d), h, Box::from(e)))
                        }
                        SuccOutcome::Violation(k, pr) => {
                            record(&mut report, &mut stop, k, pr, path.pushed_vec(d));
                        }
                    }
                }
            }
        }
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
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> Trace {
        let first = Decision {
            process: 1,
            choices: vec![2, 0],
        };
        let second = Decision {
            process: 0,
            choices: vec![],
        };
        Trace::default().push(first).push(second)
    }

    /// The spool and checkpoint record of a frontier item is
    /// `depth ‖ path ‖ key`, byte for byte what it was when the item
    /// held a live state and the record its encoding: files written
    /// before and after mean the same.
    #[test]
    fn spool_record_is_depth_path_key() {
        let item = FrontierItem {
            key: Box::from([165u8, 1, 2, 0, 7, 1, 3]),
            depth: 300,
            path: path(),
        };
        let mut out = Vec::new();
        item.spool_encode(&mut out);
        #[rustfmt::skip]
        let golden = [
            0xAC, 0x02,             // depth 300
            2,                      // two decisions
            1, 2, 2, 0,             // P1[2,0]
            0, 0,                   // P0
            165, 1, 2, 0, 7, 1, 3,  // the key takes the rest
        ];
        assert_eq!(out, golden);
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
                depth: 17,
                path: path(),
            };
            let mut out = Vec::new();
            item.spool_encode(&mut out);
            let back = FrontierItem::spool_decode(&out).expect("own record decodes");
            assert_eq!(back.key, item.key);
            assert_eq!(back.depth, item.depth);
            assert_eq!(back.path.to_vec(), item.path.to_vec());
            // A record cut inside its header is rejected, not guessed at.
            assert!(FrontierItem::spool_decode(&out[..3]).is_none());
        }
        // Either kind of key rebuilds the state it was taken from.
        let mut cache = ComponentCache::default();
        assert_eq!(rebuild(Some(&interner), &mut cache, &compressed), state);
        assert_eq!(rebuild(None, &mut cache, &raw), state);
    }
}
