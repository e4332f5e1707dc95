//! Tiered, spillable, checkpointable visited/frontier storage for the
//! explicit-state frontier engines.
//!
//! The module tree splits the storage subsystem by concern:
//!
//! - [`mem`] — tier 0: the lock-striped in-memory [`VisitedStore`] and
//!   its commit pass, where the first occurrence of a state in commit
//!   order wins; each entry keeps the *epoch* (frontier level) it was
//!   sealed in.
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
//!   frontier: excess entries spill to disk in commit order and are
//!   re-admitted deterministically.
//! - [`checkpoint`] — periodic level-boundary checkpoints (the tier-1
//!   log's committed length + tier-0 snapshot + frontier spool + report
//!   counters behind a versioned manifest) and the resume path.
//!
//! [`TieredStore`] composes tiers 0 and 1 behind the same commit pass
//! the in-memory store exposes, so the frontier search in
//! [`super::stateful`] is oblivious to where a sealed state resides.
//!
//! ## Why spilling cannot change a report
//!
//! Every stored entry is sealed: it entered the store as the winning
//! occurrence of a commit. Its only observable property is
//! *membership* (plus its seal epoch), which both tiers answer
//! identically, so any entry may move to disk at a level boundary.
//! `len()`/`bytes()` report logical totals across tiers, so even
//! `Report::visited_bytes`/`visited_states` match the unbounded run
//! byte for byte.

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

/// The read side the frontier engine's workers run against while a
/// level expands: the POR-proviso membership probe and the logical
/// totals. Implemented by the in-memory tier ([`VisitedStore`]) and the
/// tiered store ([`TieredStore`]); writes happen only in the serial
/// commit ([`TieredStore::commit`]).
pub trait StateStore: Sync {
    /// Whether the state is sealed with an epoch `< epoch_bound` — the
    /// ignoring-proviso probe. Bounding by epoch (not "any sealed")
    /// lets a level be processed in memory-bounded chunks: entries
    /// sealed by earlier chunks of the *same* level are invisible, so
    /// the probe sees exactly the set a single-chunk (unbounded) run
    /// would — the report stays byte-identical for any memory limit.
    fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool;

    /// Number of states stored across all tiers.
    fn len(&self) -> usize;

    /// True when no state was ever stored.
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
/// budget at a level boundary, all its entries are appended to the
/// log ([`TieredStore::end_of_level`]). Unbounded stores (budget
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

    /// Whether `enc` is on disk, sealed before `epoch_bound`. The index
    /// keeps probes O(1): disk is read only to confirm a fingerprint
    /// match against the full encoding.
    fn on_disk(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        let Some(t1) = &self.tier1 else { return false };
        t1.index.candidates(hash, |r: &DiskRef| {
            r.epoch < epoch_bound
                && r.len as usize == enc.len()
                && t1.log.confirm(r, enc).expect("tier-1 log read")
        })
    }

    /// Store the state in tier 0, sealed at `epoch`, unless tier 0
    /// holds it; true when it was absent. Tier 1 is not consulted: this
    /// is for the initial state and for resume's reload of tier 0, whose
    /// entries are never on disk.
    pub fn insert(&self, hash: u64, enc: &[u8], epoch: u32) -> bool {
        self.mem.insert(hash, enc, epoch)
    }

    /// One chunk's commit: `items` are the chunk's successors in commit
    /// order, `(frontier index, successor index)`. Skips the states
    /// tier 1 holds, inserts the rest into tier 0 sealed at `epoch`, and
    /// returns flags aligned with `items`: an item wins iff its state
    /// was absent, so of several occurrences the first wins. See
    /// [`VisitedStore::commit`].
    pub fn commit(&self, items: &[(u64, &[u8])], epoch: u32) -> Vec<bool> {
        self.mem
            .commit_skipping(items, &self.on_disk_batch(items), epoch)
    }

    /// Level-boundary maintenance: record the tier-0 peak and, when the
    /// in-memory footprint exceeds the budget, append every tier-0 entry
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

    /// Append all tier-0 entries to the log (no-op when tier 0 is empty
    /// or there is no spill directory).
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

    /// A sorted, non-destructive snapshot of every tier-0 entry
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
    fn on_disk_batch(&self, items: &[(u64, &[u8])]) -> Vec<bool> {
        let Some(t1) = &self.tier1 else {
            return Vec::new();
        };
        let mut cands: Vec<(u32, DiskRef)> = Vec::new();
        let mut refs = Vec::new();
        for (ix, &(h, e)) in items.iter().enumerate() {
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
            if !dead[ix] && t1.log.confirm(&r, items[ix].1).expect("tier-1 log read") {
                dead[ix] = true;
            }
        }
        dead
    }

    /// Tier-0 commit observability counters:
    /// `(commit calls, items committed, lock acquisitions avoided)`.
    pub fn batch_stats(&self) -> (usize, usize, usize) {
        self.mem.batch_stats()
    }
}

impl StateStore for TieredStore {
    fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        self.mem.contains_sealed_before(hash, enc, epoch_bound)
            || self.on_disk(hash, enc, epoch_bound)
    }

    fn len(&self) -> usize {
        self.mem.len() + self.tier1.as_ref().map_or(0, |t| t.index.len())
    }

    fn bytes(&self) -> usize {
        self.mem.bytes() + self.tier1.as_ref().map_or(0, |t| t.index.bytes())
    }
}

/// Shims for the benchmark ledger's frozen stepper
/// (`crates/bench/src/bin/ledger/src/stepper.rs`), which still speaks the
/// rank protocol this store replaced with [`TieredStore::commit`]. Each
/// restates one of its calls in terms of the commit pass; nothing else
/// calls them. ROADMAP item 3a(ii) deletes the stepper, and this block
/// with it.
mod ledger_shims {
    use super::TieredStore;

    /// The stepper's discovery rank, `(frontier item, successor)` packed
    /// into a `u64`. The store ignores it: commit order is list order.
    #[doc(hidden)]
    pub fn rank(item: usize, succ: usize) -> u64 {
        ((item as u64) << 32) | succ as u64
    }

    /// The `(hash, key)` items of rank-tagged ones.
    fn keys<'a>(items: &[(u64, u64, &'a [u8])]) -> Vec<(u64, &'a [u8])> {
        items.iter().map(|&(h, _, e)| (h, e)).collect()
    }

    impl TieredStore {
        /// Stores nothing: [`TieredStore::seal`] stores.
        #[doc(hidden)]
        pub fn admit(&self, _hash: u64, _enc: &[u8], _rank: u64) {}

        /// [`TieredStore::insert`].
        #[doc(hidden)]
        pub fn seal(&self, hash: u64, enc: &[u8], epoch: u32) {
            self.insert(hash, enc, epoch);
        }

        /// Drops the states tier 1 holds from `items`; stores nothing.
        #[doc(hidden)]
        pub fn insert_batch(&self, items: &mut Vec<(u64, u64, &[u8])>) {
            let dead = self.on_disk_batch(&keys(items));
            if !dead.is_empty() {
                let mut ix = 0;
                items.retain(|_| {
                    ix += 1;
                    !dead[ix - 1]
                });
            }
        }

        /// [`TieredStore::commit`], the ranks ignored.
        #[doc(hidden)]
        pub fn seal_batch(&self, probes: &[(u64, u64, &[u8])], epoch: u32) -> Vec<bool> {
            self.commit(&keys(probes), epoch)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::tests::{items, states};
        use super::super::{SpillDir, StateStore, TieredStore};
        use super::{keys, rank};

        #[test]
        fn the_ledger_shims_restate_commit() {
            // Half the states spilled, then one list carrying every state
            // twice: the shims the ledger's stepper calls must give the
            // flags, totals and batch counters of one commit.
            let ss = states(8);
            let list: Vec<(u64, u64, &[u8])> = (0..2)
                .flat_map(|round| {
                    ss.iter()
                        .enumerate()
                        .map(move |(i, (h, e))| (*h, rank(round, i), e.as_slice()))
                })
                .collect();
            let run = |shims: bool| {
                let store = TieredStore::new(0, Some(SpillDir::temp().unwrap()));
                let (h0, e0) = &ss[0];
                if shims {
                    store.admit(*h0, e0, rank(0, 0));
                    store.seal(*h0, e0, 0);
                } else {
                    store.insert(*h0, e0, 0);
                }
                store.commit(&items(&ss[1..4]), 1);
                store.end_of_level().unwrap();
                let flags = if shims {
                    let mut admits = list.clone();
                    store.insert_batch(&mut admits);
                    assert_eq!(admits.len(), 8, "the 4 spilled states dropped, twice");
                    store.seal_batch(&list, 2)
                } else {
                    store.commit(&keys(&list), 2)
                };
                (flags, store.len(), store.mem.len(), store.batch_stats())
            };
            let want = run(false);
            assert_eq!(run(true), want);
            let winners: Vec<bool> = (0..16).map(|k| (4..8).contains(&k)).collect();
            assert_eq!(want.0, winners, "new states win at their first occurrence");
            assert_eq!((want.1, want.2), (8, 4));
        }
    }
}

#[doc(hidden)]
pub use ledger_shims::rank;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{encode_state, GlobalState};

    pub(super) fn states(n: usize) -> Vec<(u64, Vec<u8>)> {
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

    /// The `(hash, key)` commit items of `ss`.
    pub(super) fn items(ss: &[(u64, Vec<u8>)]) -> Vec<(u64, &[u8])> {
        ss.iter().map(|(h, e)| (*h, e.as_slice())).collect()
    }

    #[test]
    fn commit_flags_the_first_occurrence_in_commit_order() {
        let store = TieredStore::new(0, Some(SpillDir::temp().unwrap()));
        let ss = states(6);
        let key = |i: usize| (ss[i].0, ss[i].1.as_slice());
        // State 0 lives in tier 1; state 1 was sealed at an earlier
        // epoch and stays in tier 0.
        store.commit(&[key(0)], 1);
        store.end_of_level().unwrap();
        store.commit(&[key(1)], 2);
        // States 2 and 3 share one fingerprint.
        let fp = 0x5EED_0000_0000_0042;
        let list = [
            key(4),
            key(0),
            (fp, key(2).1),
            key(1),
            key(4),
            (fp, key(3).1),
            (fp, key(2).1),
            key(5),
        ];
        let flags = store.commit(&list, 3);
        assert_eq!(flags, [true, false, true, false, false, true, false, true]);
        assert_eq!((store.len(), store.mem.len()), (6, 5));
        for (h, e) in [key(4), (fp, key(2).1), (fp, key(3).1), key(5)] {
            assert!(!store.contains_sealed_before(h, e, 3), "sealed at 3");
            assert!(store.contains_sealed_before(h, e, 4));
        }
        assert!(
            store.contains_sealed_before(ss[1].0, &ss[1].1, 3),
            "kept epoch 2"
        );
        assert_eq!(store.batch_stats().0, 3, "one batch per commit");
    }

    #[test]
    fn commit_skips_disk_residents() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(8);
        // Seal and spill the first half, so the commit mixes disk
        // residents (must lose) with genuinely new states.
        store.commit(&items(&ss[..4]), 1);
        store.end_of_level().unwrap();
        assert_eq!(store.spilled_entries(), 4);
        let flags = store.commit(&items(&ss), 2);
        let want: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        assert_eq!(flags, want);
        assert_eq!(store.len(), 8, "disk residents not re-stored");
        assert_eq!(store.mem.len(), 4, "only the new states are tier-0");
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 3));
        }
        let (ops, items, _) = store.batch_stats();
        assert_eq!((ops, items), (2, 12));
    }

    #[test]
    fn spill_preserves_membership_and_totals() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir)); // budget 0: always spill
        let ss = states(20);
        assert_eq!(store.commit(&items(&ss), 1), vec![true; 20]);
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
        }
        // A disk-sealed state never wins a later round.
        assert_eq!(store.commit(&items(&ss), 2), vec![false; 20]);
        assert_eq!(store.mem_bytes(), 0, "re-commits filtered by tier 1");
    }

    #[test]
    fn colliding_fingerprints_confirm_against_disk_bytes() {
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new(0, Some(dir));
        let ss = states(2);
        let (a, b) = (ss[0].1.as_slice(), ss[1].1.as_slice());
        let fake = 7u64; // same fingerprint for two distinct states
        assert_eq!(store.commit(&[(fake, a)], 1), [true]);
        store.end_of_level().unwrap(); // `a` now lives on disk
        assert!(store.contains_sealed_before(fake, a, 2));
        assert!(
            !store.contains_sealed_before(fake, b, 2),
            "index hit, disk confirmation miss"
        );
        // `b` wins despite the index collision.
        assert_eq!(store.commit(&[(fake, a), (fake, b)], 2), [false, true]);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compressed_store_spills_tuples_and_keeps_raw_totals() {
        let prog = cfgir::compile("chan c[9]; proc p() { send(c, 1); } process p();").unwrap();
        let base = GlobalState::initial(&prog);
        let interner = crate::state::ComponentInterner::new();
        let (ss, raws): (Vec<(u64, Vec<u8>)>, Vec<usize>) = (0..12)
            .map(|i| {
                let mut s = base.clone();
                *s.object_mut(0) = crate::state::ObjState::Chan {
                    queue: [crate::value::Value::Int(i as i64)].into(),
                    cap: Some(9),
                };
                (s.fingerprint_and_intern(&interner), encode_state(&s).len())
            })
            .unzip();
        let dir = SpillDir::temp().unwrap();
        let store = TieredStore::new_with(0, Some(dir), true);
        assert_eq!(store.commit(&items(&ss), 1), vec![true; 12]);
        let raw_total: usize = raws.iter().sum();
        let stored_total: usize = ss.iter().map(|(_, e)| e.len()).sum();
        assert!(stored_total < raw_total, "tuples are smaller than raw");
        assert_eq!(store.bytes(), raw_total);
        assert_eq!(store.stored_bytes(), stored_total);
        store.end_of_level().unwrap();
        assert_eq!(store.mem_bytes(), 0);
        // Spilling changes neither total nor membership.
        assert_eq!(store.bytes(), raw_total);
        assert_eq!(store.stored_bytes(), stored_total);
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 2));
        }
        assert_eq!(store.commit(&items(&ss), 2), vec![false; 12]);
    }

    #[test]
    fn unbounded_store_never_creates_files() {
        let store = TieredStore::new(usize::MAX, None);
        let ss = states(8);
        store.commit(&items(&ss), 1);
        store.end_of_level().unwrap();
        assert_eq!(store.spill_count(), 0);
        assert_eq!(store.spilled_entries(), 0);
        assert_eq!(store.len(), 8);
        assert!(store.peak_mem_bytes() > 0);
    }
}
