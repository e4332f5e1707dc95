//! Tiered, spillable, checkpointable visited/frontier storage for the
//! explicit-state frontier engines.
//!
//! The module tree splits the storage subsystem by concern:
//!
//! - [`mem`] — tier 0: the partitioned in-memory [`VisitedStore`] and
//!   its commit pass, where the first occurrence of a state in commit
//!   order wins; each entry keeps the *epoch* (frontier level) it was
//!   sealed in.
//! - [`disk`] — tier 1: one append-only log file of canonical state
//!   encodings; every spill appends to it, and records are only read
//!   back for full-state collision confirmation.
//! - [`index`] — the partitioned in-memory fingerprint index over tier 1:
//!   membership probes stay O(1) hash lookups; a disk read happens only
//!   when a fingerprint actually matches.
//! - `keyset` — the one fingerprint-keyed key set behind tier 0, the
//!   index, the depth-first search's visited set and the schedule memo:
//!   keys in a byte arena, one inline slot per fingerprint, collisions
//!   on a side list.
//! - [`spool`] — bounded-memory FIFO spooling of the level-synchronous
//!   frontier: excess entries spill to disk in commit order and are
//!   re-admitted deterministically.
//! - `trace` — the frontier search's reproducing paths: one append-only
//!   log of `(parent, decision)` records, which a frontier entry points
//!   into.
//! - `log` — the file layer every file above goes through: headers,
//!   buffered appends, syncs, and reopening at a committed length.
//! - [`checkpoint`] — periodic level-boundary checkpoints (the tier-1
//!   log's and the path log's committed lengths + tier-0 snapshot +
//!   frontier spool + report counters behind a versioned manifest) and
//!   the resume path.
//!
//! [`Store`] composes tiers 0 and 1 behind the same commit pass the
//! in-memory tier exposes, so the frontier search in
//! [`super::stateful`] is oblivious to where a sealed state resides.
//! The search takes no lock on it: it writes the store through `&mut`
//! on its driving thread, and its workers share `&` for the proviso
//! probe while a level expands (see [`Store`]).
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
mod log;
pub mod mem;
pub mod spool;
pub(crate) mod trace;

pub use ledger_shims::{rank, StateStore, TieredStore};
pub use mem::{VisitedStore, PARTITIONS};
pub use spool::{FrontierSpool, Spoolable};

use disk::{DiskRef, SpillLog};
use index::FpIndex;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A directory used for the tier-1 log, the path log, frontier spool
/// files, and checkpoints. Temp-created directories (`SpillDir::temp`) are removed
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
        std::fs::create_dir_all(path).map_err(log::at(path))?;
        Ok(SpillDir::existing(path))
    }

    /// A caller-owned directory as it stands, created by no one: the
    /// checkpoint a resume reads, whose manifest must already be there.
    pub(crate) fn existing(path: &Path) -> Arc<SpillDir> {
        Arc::new(SpillDir {
            path: path.to_path_buf(),
            owned: false,
        })
    }

    /// Create a fresh process-unique temp directory, removed on drop.
    pub fn temp() -> io::Result<Arc<SpillDir>> {
        let path = std::env::temp_dir().join(format!(
            "reclose-spill-{}-{}",
            std::process::id(),
            TEMP_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(log::at(&path))?;
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

/// The two-tier visited store: tier 0 is the partitioned in-memory
/// [`VisitedStore`]; tier 1 is one append-only log file behind an
/// in-memory fingerprint index. When tier 0's payload exceeds the
/// budget at a level boundary, all its entries are appended to the
/// log ([`Store::end_of_level`]). Unbounded stores (budget
/// `usize::MAX`, no spill dir) never touch the filesystem.
///
/// It holds no lock. Every write — [`Store::insert`], [`Store::commit`],
/// [`Store::end_of_level`], a checkpoint's sync and resume's reload —
/// takes `&mut self` on the frontier search's driving thread, after a
/// chunk's workers have joined; the workers share `&self` for the
/// proviso probe ([`Store::contains_sealed_before`]) and nothing else.
pub struct Store {
    mem: VisitedStore,
    budget: usize,
    tier1: Option<Tier1>,
    peak_mem: usize,
    /// Appends this store made to the log.
    spills: usize,
}

impl Store {
    /// A store holding at most ~`budget` payload bytes in memory,
    /// spilling sealed entries into the log under `dir`. With no
    /// `dir`, the budget is ignored and the store is purely in-memory.
    pub fn new(budget: usize, dir: Option<Arc<SpillDir>>) -> Self {
        Store::new_with(budget, dir, false)
    }

    /// Like [`Store::new`], but when `compressed` is set the entries
    /// handed to the store are collapse-compressed component-ID tuples
    /// (see [`crate::state::intern`]): byte accounting then splits into
    /// logical raw totals ([`Store::bytes`]) and the resident footprint
    /// ([`Store::stored_bytes`]), and the spill budget bounds the latter.
    /// Membership logic is untouched — tuple equality is state equality
    /// under a fixed interner.
    pub fn new_with(budget: usize, dir: Option<Arc<SpillDir>>, compressed: bool) -> Self {
        Store {
            mem: VisitedStore::new_with(PARTITIONS, compressed),
            budget,
            tier1: dir.map(|d| Tier1 {
                log: SpillLog::new(d, compressed),
                index: FpIndex::new(PARTITIONS),
            }),
            peak_mem: 0,
            spills: 0,
        }
    }

    /// Whether the state is sealed with an epoch `< epoch_bound` — the
    /// ignoring-proviso probe. Bounding by epoch (not "any sealed")
    /// lets a level be processed in memory-bounded chunks: entries
    /// sealed by earlier chunks of the *same* level are invisible, so
    /// the probe sees exactly the set a single-chunk (unbounded) run
    /// would — the report stays byte-identical for any memory limit.
    /// On disk, the index keeps probes O(1): the log is read only to
    /// confirm a fingerprint match against the full encoding.
    pub fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
        self.mem.contains_sealed_before(hash, enc, epoch_bound)
            || self.tier1.as_ref().is_some_and(|t1| {
                t1.index.refs(hash).any(|r| {
                    r.epoch < epoch_bound
                        && r.len as usize == enc.len()
                        && t1.log.confirm(r, enc).expect("tier-1 log read")
                })
            })
    }

    /// Store the state in tier 0, sealed at `epoch`, unless tier 0
    /// holds it; true when it was absent. Tier 1 is not consulted: this
    /// is for the initial state and for resume's reload of tier 0, whose
    /// entries are never on disk.
    pub fn insert(&mut self, hash: u64, enc: &[u8], epoch: u32) -> bool {
        self.mem.insert(hash, enc, epoch)
    }

    /// One chunk's commit: `items` are the chunk's successors in commit
    /// order, `(frontier index, successor index)`. Skips the states
    /// tier 1 holds, inserts the rest into tier 0 sealed at `epoch`, and
    /// returns flags aligned with `items`: an item wins iff its state
    /// was absent, so of several occurrences the first wins. See
    /// [`VisitedStore::commit`].
    ///
    /// # Errors
    ///
    /// Fails when a tier-1 record cannot be read back to confirm a
    /// fingerprint match.
    pub fn commit(&mut self, items: &[(u64, &[u8])], epoch: u32) -> io::Result<Vec<bool>> {
        let skip = self.on_disk_batch(items)?;
        Ok(self.mem.commit(items, &skip, epoch))
    }

    /// Level-boundary maintenance: record the tier-0 peak and, when the
    /// in-memory footprint exceeds the budget, append every tier-0 entry
    /// to the tier-1 log. The budget bounds *resident* bytes
    /// ([`VisitedStore::stored_bytes`]) — compression therefore defers
    /// spilling, which is report-invisible by the same argument that
    /// makes the budget itself report-invisible.
    pub fn end_of_level(&mut self) -> io::Result<()> {
        self.peak_mem = self.peak_mem_bytes();
        if self.mem.stored_bytes() <= self.budget {
            return Ok(());
        }
        let Some(t1) = &mut self.tier1 else {
            return Ok(());
        };
        let records = self.mem.drain_sealed();
        if records.is_empty() {
            return Ok(());
        }
        for (fp, r) in t1.log.append(&records)? {
            t1.index.insert(fp, r);
        }
        self.spills += 1;
        Ok(())
    }

    /// Reopen the log a manifest committed at `(bytes, entries)` (resume
    /// path): truncate what lies past it and index every record.
    pub(crate) fn load_log(&mut self, committed: (u64, u64)) -> io::Result<()> {
        let t1 = self
            .tier1
            .as_mut()
            .expect("resume requires a spill directory");
        for (fp, r) in t1.log.reopen(committed)? {
            t1.index.insert(fp, r);
        }
        Ok(())
    }

    /// A sorted, non-destructive snapshot of every tier-0 entry
    /// — what a checkpoint persists alongside the tier-1 log.
    pub(crate) fn sealed_mem_snapshot(&self) -> Vec<(u64, u32, Box<[u8]>)> {
        self.mem.sealed_snapshot()
    }

    /// Sync the tier-1 log and return its `(bytes, entries)` for the
    /// checkpoint manifest; `(0, 0)` before the first spill.
    pub(crate) fn sync_log(&mut self) -> io::Result<(u64, u64)> {
        let bytes = self.tier1.as_mut().map_or(Ok(0), |t| t.log.sync())?;
        Ok((bytes, self.spilled_entries() as u64))
    }

    /// Number of states stored across both tiers.
    pub fn len(&self) -> usize {
        self.mem.len() + self.tier1.as_ref().map_or(0, |t| t.index.len())
    }

    /// True when no state was ever stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total raw payload bytes across both tiers (the encodings the
    /// entries stand for).
    pub fn bytes(&self) -> usize {
        self.mem.bytes() + self.tier1.as_ref().map_or(0, |t| t.index.bytes())
    }

    /// Tier-0 resident payload bytes right now.
    pub fn mem_bytes(&self) -> usize {
        self.mem.stored_bytes()
    }

    /// Largest tier-0 resident payload observed at any level boundary,
    /// or now.
    pub fn peak_mem_bytes(&self) -> usize {
        self.peak_mem.max(self.mem.stored_bytes())
    }

    /// Entries moved to (or reloaded from) tier 1 over the store's life:
    /// the log's records.
    pub fn spilled_entries(&self) -> usize {
        self.tier1.as_ref().map_or(0, |t| t.index.len())
    }

    /// Spills this store appended to the tier-1 log.
    pub fn spill_count(&self) -> usize {
        self.spills
    }

    /// Bytes the store actually holds across tiers — equal to
    /// [`Store::bytes`] when uncompressed, the compressed footprint
    /// otherwise (the numerator of the `--stats` dedup ratio).
    pub fn stored_bytes(&self) -> usize {
        self.mem.stored_bytes() + self.tier1.as_ref().map_or(0, |t| t.index.stored_bytes())
    }

    /// Flags, aligned with `items`, for the items already sealed on
    /// disk (a spilled state is sealed by definition); empty when
    /// nothing is spilled. The disk confirms are read in log-offset
    /// order — sequential positional reads instead of a random walk.
    fn on_disk_batch(&self, items: &[(u64, &[u8])]) -> io::Result<Vec<bool>> {
        let Some(t1) = &self.tier1 else {
            return Ok(Vec::new());
        };
        let mut cands: Vec<(u32, DiskRef)> = Vec::new();
        for (ix, &(h, e)) in items.iter().enumerate() {
            cands.extend(
                t1.index
                    .refs(h)
                    .filter(|r| r.len as usize == e.len())
                    .map(|&r| (ix as u32, r)),
            );
        }
        if cands.is_empty() {
            return Ok(Vec::new());
        }
        cands.sort_unstable_by_key(|&(_, r)| r.off);
        let mut dead = vec![false; items.len()];
        for (ix, r) in cands {
            let ix = ix as usize;
            if !dead[ix] && t1.log.confirm(&r, items[ix].1)? {
                dead[ix] = true;
            }
        }
        Ok(dead)
    }

    /// Tier-0 commit observability counters:
    /// `(commit calls, items committed)`.
    pub fn batch_stats(&self) -> (usize, usize) {
        self.mem.batch_stats()
    }
}

/// What the benchmark ledger's frozen stepper
/// (`crates/bench/src/bin/ledger/src/stepper.rs`) compiles against: a
/// `&self` view of a [`Store`], and the rank protocol [`Store::commit`]
/// replaced. Each call restates one of the stepper's in terms of the
/// store; nothing else calls them, and the engine never takes the lock.
/// ROADMAP item 3a(ii) deletes the stepper, and this block with it.
mod ledger_shims {
    use super::{SpillDir, Store};
    use std::io;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The proviso probe the stepper runs through `&TieredStore`.
    pub trait StateStore {
        /// [`Store::contains_sealed_before`].
        fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool;
    }

    /// A [`Store`] behind the one lock its `&self` calls need.
    pub struct TieredStore(Mutex<Store>);

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
        /// [`Store::new_with`].
        pub fn new_with(budget: usize, dir: Option<Arc<SpillDir>>, compressed: bool) -> Self {
            TieredStore(Mutex::new(Store::new_with(budget, dir, compressed)))
        }

        fn store(&self) -> MutexGuard<'_, Store> {
            self.0
                .lock()
                .expect("store lock poisoned by a panicked thread")
        }

        /// Stores nothing: [`TieredStore::seal`] stores.
        #[doc(hidden)]
        pub fn admit(&self, _hash: u64, _enc: &[u8], _rank: u64) {}

        /// [`Store::insert`].
        #[doc(hidden)]
        pub fn seal(&self, hash: u64, enc: &[u8], epoch: u32) {
            self.store().insert(hash, enc, epoch);
        }

        /// Drops the states tier 1 holds from `items`; stores nothing.
        #[doc(hidden)]
        pub fn insert_batch(&self, items: &mut Vec<(u64, u64, &[u8])>) {
            let dead = self
                .store()
                .on_disk_batch(&keys(items))
                .expect("tier-1 log read");
            if !dead.is_empty() {
                let mut ix = 0;
                items.retain(|_| {
                    ix += 1;
                    !dead[ix - 1]
                });
            }
        }

        /// [`Store::commit`], the ranks ignored.
        #[doc(hidden)]
        pub fn seal_batch(&self, probes: &[(u64, u64, &[u8])], epoch: u32) -> Vec<bool> {
            self.store()
                .commit(&keys(probes), epoch)
                .expect("tier-1 log read")
        }

        /// [`Store::end_of_level`].
        pub fn end_of_level(&self) -> io::Result<()> {
            self.store().end_of_level()
        }
    }

    impl StateStore for TieredStore {
        fn contains_sealed_before(&self, hash: u64, enc: &[u8], epoch_bound: u32) -> bool {
            self.store().contains_sealed_before(hash, enc, epoch_bound)
        }
    }

    #[cfg(test)]
    mod tests {
        use super::super::tests::{items, states};
        use super::super::{SpillDir, Store};
        use super::{keys, rank, StateStore, TieredStore};

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
            let (h0, e0) = &ss[0];
            let mut store = Store::new(0, Some(SpillDir::temp().unwrap()));
            store.insert(*h0, e0, 0);
            store.commit(&items(&ss[1..4]), 1).unwrap();
            store.end_of_level().unwrap();
            let want = store.commit(&keys(&list), 2).unwrap();

            let shims = TieredStore::new_with(0, Some(SpillDir::temp().unwrap()), false);
            shims.admit(*h0, e0, rank(0, 0));
            shims.seal(*h0, e0, 0);
            shims.seal_batch(&list[1..4], 1);
            shims.end_of_level().unwrap();
            let mut admits = list.clone();
            shims.insert_batch(&mut admits);
            assert_eq!(admits.len(), 8, "the 4 spilled states dropped, twice");
            assert_eq!(shims.seal_batch(&list, 2), want);
            for (h, e) in &ss {
                assert!(shims.contains_sealed_before(*h, e, 3));
            }
            let shim_store = shims.store();
            let totals = |s: &Store| (s.len(), s.mem.len(), s.batch_stats());
            assert_eq!(totals(&shim_store), totals(&store));
            let winners: Vec<bool> = (0..16).map(|k| (4..8).contains(&k)).collect();
            assert_eq!(want, winners, "new states win at their first occurrence");
            assert_eq!((store.len(), store.mem.len()), (8, 4));
        }
    }
}

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
        let mut store = Store::new(0, Some(SpillDir::temp().unwrap()));
        let ss = states(6);
        let key = |i: usize| (ss[i].0, ss[i].1.as_slice());
        // State 0 lives in tier 1; state 1 was sealed at an earlier
        // epoch and stays in tier 0.
        store.commit(&[key(0)], 1).unwrap();
        store.end_of_level().unwrap();
        store.commit(&[key(1)], 2).unwrap();
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
        let flags = store.commit(&list, 3).unwrap();
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
        let mut store = Store::new(0, Some(dir));
        let ss = states(8);
        // Seal and spill the first half, so the commit mixes disk
        // residents (must lose) with genuinely new states.
        store.commit(&items(&ss[..4]), 1).unwrap();
        store.end_of_level().unwrap();
        assert_eq!(store.spilled_entries(), 4);
        let flags = store.commit(&items(&ss), 2).unwrap();
        let want: Vec<bool> = (0..8).map(|i| i >= 4).collect();
        assert_eq!(flags, want);
        assert_eq!(store.len(), 8, "disk residents not re-stored");
        assert_eq!(store.mem.len(), 4, "only the new states are tier-0");
        for (h, e) in &ss {
            assert!(store.contains_sealed_before(*h, e, 3));
        }
        assert_eq!(store.batch_stats(), (2, 12));
    }

    #[test]
    fn spill_preserves_membership_and_totals() {
        let dir = SpillDir::temp().unwrap();
        let mut store = Store::new(0, Some(dir)); // budget 0: always spill
        let ss = states(20);
        assert_eq!(store.commit(&items(&ss), 1).unwrap(), vec![true; 20]);
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
        assert_eq!(store.commit(&items(&ss), 2).unwrap(), vec![false; 20]);
        assert_eq!(store.mem_bytes(), 0, "re-commits filtered by tier 1");
    }

    #[test]
    fn colliding_fingerprints_confirm_against_disk_bytes() {
        let dir = SpillDir::temp().unwrap();
        let mut store = Store::new(0, Some(dir));
        let ss = states(2);
        let (a, b) = (ss[0].1.as_slice(), ss[1].1.as_slice());
        let fake = 7u64; // same fingerprint for two distinct states
        assert_eq!(store.commit(&[(fake, a)], 1).unwrap(), [true]);
        store.end_of_level().unwrap(); // `a` now lives on disk
        assert!(store.contains_sealed_before(fake, a, 2));
        assert!(
            !store.contains_sealed_before(fake, b, 2),
            "index hit, disk confirmation miss"
        );
        // `b` wins despite the index collision.
        assert_eq!(
            store.commit(&[(fake, a), (fake, b)], 2).unwrap(),
            [false, true]
        );
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
        let mut store = Store::new_with(0, Some(dir), true);
        assert_eq!(store.commit(&items(&ss), 1).unwrap(), vec![true; 12]);
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
        assert_eq!(store.commit(&items(&ss), 2).unwrap(), vec![false; 12]);
    }

    #[test]
    fn unbounded_store_never_creates_files() {
        let mut store = Store::new(usize::MAX, None);
        let ss = states(8);
        store.commit(&items(&ss), 1).unwrap();
        store.end_of_level().unwrap();
        assert_eq!(store.spill_count(), 0);
        assert_eq!(store.spilled_entries(), 0);
        assert_eq!(store.len(), 8);
        assert!(store.peak_mem_bytes() > 0);
    }
}
