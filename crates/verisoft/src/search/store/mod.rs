//! Tiered, spillable, checkpointable visited/frontier storage for the
//! explicit-state frontier engines.
//!
//! The module tree splits the storage subsystem by concern:
//!
//! - [`mem`] — tier 0: the lock-striped in-memory [`VisitedStore`] with
//!   the jobs-invariant rank admission protocol (previously
//!   `search::visited`), now tracking the *epoch* (frontier level) each
//!   entry was sealed in.
//! - [`disk`] — tier 1: one append-only log file of canonical state
//!   encodings; every spill appends to it, and records are only read
//!   back for full-state collision confirmation.
//! - [`index`] — the per-stripe in-memory fingerprint index over tier 1:
//!   membership probes stay O(1) hash lookups; a disk read happens only
//!   when a fingerprint actually matches.
//! - `keyset` — the one fingerprint-keyed key set behind tier 0, the
//!   index and the depth-first search's visited set: keys in a byte
//!   arena, one inline slot per fingerprint, collisions on a side list.
//! - [`spool`] — bounded-memory FIFO spooling of the level-synchronous
//!   frontier: excess entries spill to disk in rank order and are
//!   re-admitted deterministically.
//! - [`checkpoint`] — periodic level-boundary checkpoints (the tier-1
//!   log's committed length + tier-0 snapshot + frontier spool + report
//!   counters behind a versioned manifest) and the resume path.
//!
//! [`TieredStore`] composes tiers 0 and 1 behind the same admission
//! protocol the in-memory store exposes, so the frontier search in
//! [`super::stateful`] is oblivious to where a sealed state resides.
//!
//! ## Why spilling cannot change a report
//!
//! Only **sealed** entries ever move to disk. Unsealed candidates stay
//! in tier 0 because their rank is still mutable (a smaller rank may
//! override them mid-round); a sealed entry's only observable property
//! is *membership* (plus its seal epoch), which both tiers answer
//! identically. `len()`/`bytes()` report logical totals across tiers,
//! so even `Report::visited_bytes`/`visited_states` match the unbounded
//! run byte for byte.

pub mod checkpoint;
pub mod disk;
pub mod index;
pub(crate) mod keyset;
pub mod mem;
pub mod spool;

pub use mem::{VisitedStore, STRIPES};
pub use spool::{FrontierSpool, Spoolable};

use disk::{DiskRef, SpillLog};
use index::FpIndex;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A shard-lexicographic discovery rank: `(frontier item, successor)`
/// packed so that `u64` ordering is the lexicographic order the
/// sequential search discovers successors in.
pub type Rank = u64;

/// Pack a discovery rank.
#[inline]
pub fn rank(item: usize, succ: usize) -> Rank {
    debug_assert!(item < (1 << 32) && succ < (1 << 32));
    ((item as u64) << 32) | succ as u64
}

/// The storage protocol the frontier engines run against: concurrent
/// rank-tagged admission, sequential epoch-tagged sealing, and the
/// POR-proviso membership probe. Implemented by the in-memory tier
/// ([`VisitedStore`]) and the tiered store ([`TieredStore`]) — the
/// engine's determinism argument only uses this interface, so it holds
/// for any implementation that keeps the protocol.
pub trait StateStore: Sync {
    /// Offer a candidate discovery of the state encoded as `enc` at
    /// `rank`. Keeps the smallest rank per state; sealed entries
    /// (whatever tier they live in) always win. Concurrency-safe: the
    /// outcome is independent of arrival order.
    fn admit(&self, hash: u64, enc: &[u8], rank: Rank);

    /// Seal and return `true` iff `(enc, rank)` is the committed winner
    /// of the round, stamping it with the frontier `epoch` it was
    /// sealed in. Call from the sequential ordered commit only.
    fn seal_if_winner(&self, hash: u64, enc: &[u8], rank: Rank, epoch: u32) -> bool;

    /// Whether the state is sealed with an epoch `< epoch_bound` — the
    /// ignoring-proviso probe. Bounding by epoch (not "any sealed")
    /// lets a level be processed in memory-bounded chunks: entries
    /// sealed by earlier chunks of the *same* level are invisible, so
    /// the probe sees exactly the set a single-chunk (unbounded) run
    /// would — the report stays byte-identical for any memory limit.
    fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool;

    /// Number of states stored across all tiers (sealed or candidate).
    fn len(&self) -> usize;

    /// True when no state was ever admitted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes across all tiers (the encodings themselves).
    fn bytes(&self) -> usize;
}

/// A directory used for the tier-1 log, frontier spool files, and
/// checkpoints. Temp-created directories (`SpillDir::temp`) are removed
/// on drop; user-supplied checkpoint directories are left alone.
pub struct SpillDir {
    path: PathBuf,
    owned: bool,
}

static TEMP_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillDir {
    /// Use (and create if missing) a caller-owned directory — not
    /// removed on drop.
    pub fn at(path: &Path) -> io::Result<Arc<SpillDir>> {
        std::fs::create_dir_all(path)?;
        Ok(Arc::new(SpillDir {
            path: path.to_path_buf(),
            owned: false,
        }))
    }

    /// Create a fresh process-unique temp directory, removed on drop.
    pub fn temp() -> io::Result<Arc<SpillDir>> {
        let path = std::env::temp_dir().join(format!(
            "reclose-spill-{}-{}",
            std::process::id(),
            TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Arc::new(SpillDir { path, owned: true }))
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// Tier 1: the log file plus the fingerprint index over it.
struct Tier1 {
    log: SpillLog,
    index: FpIndex,
}

/// The two-tier visited store: tier 0 is the lock-striped in-memory
/// [`VisitedStore`]; tier 1 is one append-only log file behind an
/// in-memory fingerprint index. When tier 0's payload exceeds the
/// budget at a level boundary, all sealed entries are appended to the
/// log ([`TieredStore::end_of_level`]); candidates stay resident
/// because their ranks are still mutable. Unbounded stores (budget
/// `usize::MAX`, no spill dir) never touch the filesystem.
pub struct TieredStore {
    mem: VisitedStore,
    budget: usize,
    tier1: Option<Tier1>,
    peak_mem: AtomicUsize,
    spilled: AtomicUsize,
}

impl TieredStore {
    /// A store holding at most ~`budget` payload bytes in memory,
    /// spilling sealed entries into the log under `dir`. With no
    /// `dir`, the budget is ignored and the store is purely in-memory.
    pub fn new(budget: usize, dir: Option<Arc<SpillDir>>) -> Self {
        TieredStore::new_with(budget, dir, false)
    }

    /// Like [`TieredStore::new`], but when `compressed` is set the
    /// entries handed to the store are collapse-compressed component-ID
    /// tuples (see [`crate::state::intern`]): byte accounting then
    /// splits into logical raw totals ([`StateStore::bytes`]) and the
    /// resident footprint ([`TieredStore::stored_bytes`]), and the spill
    /// budget bounds the latter. Membership logic is untouched — tuple
    /// equality is state equality under a fixed interner.
    pub fn new_with(budget: usize, dir: Option<Arc<SpillDir>>, compressed: bool) -> Self {
        TieredStore {
            mem: VisitedStore::new_with(STRIPES, compressed),
            budget,
            tier1: dir.map(|d| Tier1 {
                log: SpillLog::new(d, compressed),
                index: FpIndex::new(STRIPES),
            }),
            peak_mem: AtomicUsize::new(0),
            spilled: AtomicUsize::new(0),
        }
    }

    /// Whether `enc` is present on disk, optionally only when sealed
    /// before `epoch_bound`. The index keeps probes O(1): disk is read
    /// only to confirm a fingerprint match against the full encoding.
    fn on_disk(&self, hash: u64, enc: &[u8], epoch_bound: Option<u32>) -> bool {
        let Some(t1) = &self.tier1 else { return false };
        t1.index.candidates(hash, |r: &DiskRef| {
            epoch_bound.is_none_or(|b| r.epoch < b)
                && r.len as usize == enc.len()
                && t1.log.confirm(r, enc).expect("tier-1 log read")
        })
    }

    /// Seal the state unconditionally (the initial state's admission).
    pub fn seal(&self, hash: u64, enc: &[u8], epoch: u32) {
        self.mem.seal(hash, enc, epoch);
    }

    /// Level-boundary maintenance: record the tier-0 peak and, when the
    /// in-memory footprint exceeds the budget, append every sealed entry
    /// to the tier-1 log. The budget bounds *resident* bytes
    /// ([`VisitedStore::stored_bytes`]) — compression therefore defers
    /// spilling, which is report-invisible by the same argument that
    /// makes the budget itself report-invisible.
    pub fn end_of_level(&self) -> io::Result<()> {
        self.peak_mem
            .fetch_max(self.mem.stored_bytes(), Ordering::Relaxed);
        if self.mem.stored_bytes() <= self.budget {
            return Ok(());
        }
        self.spill_sealed()
    }

    /// Append all sealed tier-0 entries to the log (no-op when nothing
    /// is sealed or there is no spill directory).
    pub fn spill_sealed(&self) -> io::Result<()> {
        let Some(t1) = &self.tier1 else { return Ok(()) };
        let records = self.mem.drain_sealed();
        if records.is_empty() {
            return Ok(());
        }
        for (fp, r) in t1.log.append(&records)? {
            t1.index.insert(fp, r);
        }
        self.spilled.fetch_add(records.len(), Ordering::Relaxed);
        Ok(())
    }

    /// Reopen the log a manifest committed at `byte_len` bytes (resume
    /// path): truncate what lies past it and index every record.
    pub(crate) fn load_log(&self, byte_len: u64) -> io::Result<usize> {
        let t1 = self
            .tier1
            .as_ref()
            .expect("resume requires a spill directory");
        let refs = t1.log.reopen(byte_len)?;
        let n = refs.len();
        for (fp, r) in refs {
            t1.index.insert(fp, r);
        }
        self.spilled.fetch_add(n, Ordering::Relaxed);
        Ok(n)
    }

    /// Insert an already-sealed entry into tier 0 (resume path).
    pub(crate) fn load_sealed(&self, hash: u64, enc: &[u8], epoch: u32) {
        self.mem.insert_sealed(hash, enc, epoch);
    }

    /// A sorted, non-destructive snapshot of every sealed tier-0 entry
    /// — what a checkpoint persists alongside the tier-1 log.
    pub(crate) fn sealed_mem_snapshot(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        self.mem.sealed_snapshot()
    }

    /// The tier-1 log's `(byte_len, entries)` for the checkpoint
    /// manifest.
    pub(crate) fn log_extent(&self) -> (u64, u64) {
        self.tier1.as_ref().map_or((0, 0), |t| t.log.extent())
    }

    /// Tier-0 resident payload bytes right now.
    pub fn mem_bytes(&self) -> usize {
        self.mem.stored_bytes()
    }

    /// Largest tier-0 resident payload observed at any level boundary.
    pub fn peak_mem_bytes(&self) -> usize {
        self.peak_mem
            .fetch_max(self.mem.stored_bytes(), Ordering::Relaxed);
        self.peak_mem.load(Ordering::Relaxed)
    }

    /// Entries moved to (or reloaded from) tier 1 over the store's life.
    pub fn spilled_entries(&self) -> usize {
        self.spilled.load(Ordering::Relaxed)
    }

    /// Spills this store appended to the tier-1 log.
    pub fn spill_count(&self) -> usize {
        self.tier1.as_ref().map_or(0, |t| t.log.spills())
    }

    /// Bytes the store actually holds across tiers — equal to
    /// [`StateStore::bytes`] when uncompressed, the compressed footprint
    /// otherwise (the numerator of the `--stats` dedup ratio).
    pub fn stored_bytes(&self) -> usize {
        self.mem.stored_bytes() + self.tier1.as_ref().map_or(0, |t| t.index.stored_bytes())
    }

    /// Flags, aligned with `items`, for the items already sealed on
    /// disk (a spilled state is sealed by definition); empty when
    /// nothing is spilled. The disk confirms are read in log-offset
    /// order — sequential positional reads instead of a random walk.
    fn on_disk_batch(&self, items: &[(u64, Rank, &[u8])]) -> Vec<bool> {
        let Some(t1) = &self.tier1 else {
            return Vec::new();
        };
        let mut cands: Vec<(u32, DiskRef)> = Vec::new();
        let mut refs = Vec::new();
        for (ix, &(h, _, e)) in items.iter().enumerate() {
            refs.clear();
            t1.index.collect_refs(h, &mut refs);
            cands.extend(
                refs.iter()
                    .filter(|r| r.len as usize == e.len())
                    .map(|&r| (ix as u32, r)),
            );
        }
        if cands.is_empty() {
            return Vec::new();
        }
        cands.sort_unstable_by_key(|&(_, r)| r.off);
        let mut dead = vec![false; items.len()];
        for (ix, r) in cands {
            let ix = ix as usize;
            if !dead[ix] && t1.log.confirm(&r, items[ix].2).expect("tier-1 log read") {
                dead[ix] = true;
            }
        }
        dead
    }

    /// Batch [`StateStore::admit`] over one worker batch's successors.
    /// Disk-resident states are filtered exactly like scalar `admit` and
    /// dropped from `items`; the survivors go through
    /// [`VisitedStore::insert_batch`], which groups them by stripe so
    /// each stripe lock is taken once per run instead of once per
    /// successor. Result-equivalent to scalar admission in any order
    /// because admission keeps the *minimum* rank per state.
    pub fn insert_batch(&self, items: &mut Vec<(u64, Rank, &[u8])>) {
        let dead = self.on_disk_batch(items);
        if !dead.is_empty() {
            let mut ix = 0;
            items.retain(|_| {
                ix += 1;
                !dead[ix - 1]
            });
        }
        self.mem.insert_batch(items);
    }

    /// Batch [`StateStore::seal_if_winner`] over one chunk's commit
    /// probes, preserving commit order per stripe. Winners are always
    /// tier-0 residents (disk-sealed states are filtered at admission),
    /// so this delegates to [`VisitedStore::seal_batch`].
    pub fn seal_batch(&self, probes: &[(u64, Rank, &[u8])], epoch: u32) -> Vec<bool> {
        self.mem.seal_batch(probes, epoch)
    }

    /// [`TieredStore::insert_batch`] then [`TieredStore::seal_batch`]
    /// over one list — a chunk's successors in commit order — grouped by
    /// stripe once for both passes. Returns the per-item winner flags.
    pub(crate) fn admit_and_seal(&self, items: &[(u64, Rank, &[u8])], epoch: u32) -> Vec<bool> {
        let order = self.mem.stripe_order(items);
        self.mem
            .admit_ordered(items, &order, &self.on_disk_batch(items));
        self.mem.seal_ordered(items, &order, epoch)
    }

    /// Tier-0 batch-path observability counters:
    /// `(batch calls, items batched, lock acquisitions avoided)`.
    pub fn batch_stats(&self) -> (usize, usize, usize) {
        self.mem.batch_stats()
    }
}

impl StateStore for TieredStore {
    fn admit(&self, hash: u64, enc: &[u8], rank: Rank) {
        // A state on disk is sealed by definition: the candidate loses
        // regardless of rank, so tier 0 never re-admits it.
        if self.on_disk(hash, enc, None) {
            return;
        }
        self.mem.admit(hash, enc, rank);
    }

    fn seal_if_winner(&self, hash: u64, enc: &[u8], rank: Rank, epoch: u32) -> bool {
        // Winners are always tier-0 residents: disk-sealed states are
        // filtered at admission, so no lookup on disk is needed.
        self.mem.seal_if_winner(hash, enc, rank, epoch)
    }

    fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        self.mem.contains_sealed_before(hash, enc, epoch_bound)
            || self.on_disk(hash, enc, Some(epoch_bound))
    }

    fn len(&self) -> usize {
        self.mem.len() + self.tier1.as_ref().map_or(0, |t| t.index.len())
    }

    fn bytes(&self) -> usize {
        self.mem.bytes() + self.tier1.as_ref().map_or(0, |t| t.index.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{encode_state, GlobalState};

    fn states(n: usize) -> Vec<(u64, Vec<u8>)> {
        // Distinct encodings via distinct channel contents.
        let prog = cfgir::compile("chan c[9]; proc p() { send(c, 1); } process p();").unwrap();
        let base = GlobalState::initial(&prog);
        (0..n)
            .map(|i| {
                let mut s = base.clone();
                *s.object_mut(0) = crate::state::ObjState::Chan {
                    queue: (0..3)
                        .map(|j| crate::value::Value::Int((i * 3 + j) as i64))
                        .collect(),
                    cap: Some(9),
                };
                let enc = encode_state(&s);
                (crate::hash::stable_hash_bytes(&enc), enc)
            })
            .collect()
    }

    #[test]
    fn tiered_batches_filter_disk_residents_like_scalar_admission() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(8);
        // Seal and spill the first half, so the batch mixes disk
        // residents (must be filtered) with genuinely new states.
        for (i, (h, e)) in ss[..4].iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            store.seal_if_winner(*h, e, rank(i, 0), 1);
        }
        store.end_of_level().unwrap();
        assert_eq!(store.spilled_entries(), 4);
        let mut batch: Vec<(u64, Rank, &[u8])> = ss
            .iter()
            .enumerate()
            .map(|(i, (h, e))| (*h, rank(10 + i, 0), e.as_slice()))
            .collect();
        store.insert_batch(&mut batch);
        assert_eq!(store.len(), 8, "disk residents not re-admitted");
        assert_eq!(store.mem.len(), 4, "only the new states are tier-0");
        let probes: Vec<(u64, Rank, &[u8])> = ss[4..]
            .iter()
            .enumerate()
            .map(|(i, (h, e))| (*h, rank(14 + i, 0), e.as_slice()))
            .collect();
        let flags = store.seal_batch(&probes, 2);
        assert_eq!(flags, vec![true; 4], "stored ranks all win");
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 3));
        }
        let (ops, items, _) = store.batch_stats();
        assert_eq!((ops, items), (2, 8), "4 admits + 4 seals batched");
    }

    #[test]
    fn admit_and_seal_matches_the_two_batch_calls() {
        // Half the states spilled, then one list carrying every state
        // twice, the second time at a smaller rank: the fused call must
        // give the flags, totals and batch counters of the two calls.
        let ss = states(8);
        let list: Vec<(u64, Rank, &[u8])> = (0..2)
            .flat_map(|round| {
                ss.iter()
                    .enumerate()
                    .map(move |(i, (h, e))| (*h, rank(10 - round, i), e.as_slice()))
            })
            .collect();
        let run = |fused: bool| {
            let store = TieredStore::new(0, Some(SpillDir::temp().unwrap()));
            for (i, (h, e)) in ss[..4].iter().enumerate() {
                store.admit(*h, e, rank(i, 0));
                store.seal_if_winner(*h, e, rank(i, 0), 1);
            }
            store.end_of_level().unwrap();
            let flags = if fused {
                store.admit_and_seal(&list, 2)
            } else {
                store.insert_batch(&mut list.clone());
                store.seal_batch(&list, 2)
            };
            (flags, store.len(), store.mem.len(), store.batch_stats())
        };
        let want = run(false);
        assert_eq!(run(true), want);
        let winners: Vec<bool> = (0..16).map(|k| k >= 12).collect();
        assert_eq!(
            want.0, winners,
            "new states win at their second, smaller rank"
        );
        assert_eq!((want.1, want.2), (8, 4));
    }

    #[test]
    fn spill_preserves_membership_and_totals() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir)); // budget 0: always spill
        let ss = states(20);
        for (i, (h, e)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            assert!(store.seal_if_winner(*h, e, rank(i, 0), 1));
        }
        let total_bytes: usize = ss.iter().map(|(_, e)| e.len()).sum();
        assert_eq!(store.len(), 20);
        assert_eq!(store.bytes(), total_bytes);
        store.end_of_level().unwrap();
        assert_eq!(store.mem_bytes(), 0, "all sealed entries spilled");
        assert_eq!(store.spill_count(), 1);
        assert_eq!(store.spilled_entries(), 20);
        // Logical totals are unchanged by the spill...
        assert_eq!(store.len(), 20);
        assert_eq!(store.bytes(), total_bytes);
        // ...and so are membership answers.
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 2));
            assert!(!store.contains_sealed_before(*h, e, 1), "epoch bound");
            // Re-admission of a disk-sealed state is a no-op: it can
            // never win a later round.
            store.admit(*h, e, rank(0, 0));
            assert!(!store.seal_if_winner(*h, e, rank(0, 0), 2));
        }
        assert_eq!(store.mem_bytes(), 0, "re-admissions filtered by tier 1");
    }

    #[test]
    fn unsealed_candidates_never_spill() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(4);
        for (i, (h, e)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
        }
        store.end_of_level().unwrap();
        assert_eq!(store.spill_count(), 0);
        assert_eq!(store.len(), 4, "candidates stay in tier 0");
        // Their ranks are still mutable after the (empty) spill.
        let (h, e) = &ss[0];
        store.admit(*h, e, rank(0, 0));
        assert!(store.seal_if_winner(*h, e, rank(0, 0), 1));
    }

    #[test]
    fn colliding_fingerprints_confirm_against_disk_bytes() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(2);
        let (a, b) = (&ss[0].1, &ss[1].1);
        let fake = 7u64; // same fingerprint for two distinct states
        store.admit(fake, a, rank(0, 0));
        assert!(store.seal_if_winner(fake, a, rank(0, 0), 1));
        store.end_of_level().unwrap(); // `a` now lives on disk
        assert!(store.contains_sealed_before(fake, a, 2));
        assert!(
            !store.contains_sealed_before(fake, b, 2),
            "index hit, disk confirmation miss"
        );
        // `b` is admissible and sealable despite the index collision.
        store.admit(fake, b, rank(1, 0));
        assert!(store.seal_if_winner(fake, b, rank(1, 0), 2));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compressed_store_spills_tuples_and_keeps_raw_totals() {
        let prog = cfgir::compile("chan c[9]; proc p() { send(c, 1); } process p();").unwrap();
        let base = GlobalState::initial(&prog);
        let interner = crate::state::ComponentInterner::new();
        let ss: Vec<(u64, Vec<u8>, usize)> = (0..12)
            .map(|i| {
                let mut s = base.clone();
                *s.object_mut(0) = crate::state::ObjState::Chan {
                    queue: [crate::value::Value::Int(i as i64)].into(),
                    cap: Some(9),
                };
                let (h, cenc) = s.fingerprint_and_intern(&interner);
                let raw = encode_state(&s).len();
                (h, cenc, raw)
            })
            .collect();
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new_with(0, Some(dir), true);
        for (i, (h, e, _)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            assert!(store.seal_if_winner(*h, e, rank(i, 0), 1));
        }
        let raw_total: usize = ss.iter().map(|(_, _, r)| r).sum();
        let stored_total: usize = ss.iter().map(|(_, e, _)| e.len()).sum();
        assert!(stored_total < raw_total, "tuples are smaller than raw");
        assert_eq!(store.bytes(), raw_total);
        assert_eq!(store.stored_bytes(), stored_total);
        store.end_of_level().unwrap();
        assert_eq!(store.mem_bytes(), 0);
        // Spilling changes neither total nor membership.
        assert_eq!(store.bytes(), raw_total);
        assert_eq!(store.stored_bytes(), stored_total);
        for (h, e, _) in &ss {
            assert!(store.contains_sealed_before(*h, e, 2));
            store.admit(*h, e, rank(0, 0));
            assert!(!store.seal_if_winner(*h, e, rank(0, 0), 2));
        }
    }

    #[test]
    fn unbounded_store_never_creates_files() {
        let store = TieredStore::new(usize::MAX, None);
        let ss = states(8);
        for (i, (h, e)) in ss.iter().enumerate() {
            store.admit(*h, e, rank(i, 0));
            store.seal_if_winner(*h, e, rank(i, 0), 1);
        }
        store.end_of_level().unwrap();
        assert_eq!(store.spill_count(), 0);
        assert_eq!(store.spilled_entries(), 0);
        assert_eq!(store.len(), 8);
        assert!(store.peak_mem_bytes() > 0);
    }
}
