//! The per-stripe in-memory fingerprint index over the tier-1 log.
//!
//! Spilling must not turn every membership probe into disk IO: the
//! index keeps one `fingerprint -> [DiskRef]` map per lock stripe
//! (striped exactly like tier 0, by the fingerprint's high bits), so a
//! probe is an O(1) hash lookup that *misses* without touching disk.
//! Only an actual fingerprint match pays for a positional read, and
//! only to confirm the full encoding — the collision-safety rule of
//! [`crate::state::encode`] carried over to disk: the index nominates,
//! the stored bytes decide.
//!
//! Memory cost is ~40 bytes per spilled state (fingerprint + ref),
//! which is what makes the tiered store "1000x beyond RAM"-shaped: the
//! full encodings (hundreds of bytes each) live on disk, the index
//! keeps only fixed-size handles.

use super::disk::DiskRef;
use crate::hash::FpBuildHasher;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fingerprint-keyed, so the pass-through hasher applies (see
/// [`super::mem`]'s stripe maps).
type IndexStripe = HashMap<u64, Vec<DiskRef>, FpBuildHasher>;

/// The striped fingerprint index. Concurrency mirrors tier 0: workers
/// probe concurrently during the frontier phase; inserts happen only in
/// the sequential spill/resume paths but take the same locks for
/// simplicity.
pub(crate) struct FpIndex {
    stripes: Vec<Mutex<IndexStripe>>,
    entries: AtomicUsize,
    /// Raw canonical-encoding bytes the indexed records stand for (the
    /// logical total behind `Report::visited_bytes`).
    payload_raw: AtomicUsize,
    /// Bytes the records actually occupy on disk (== raw when the
    /// store is uncompressed).
    payload_stored: AtomicUsize,
}

impl FpIndex {
    pub(crate) fn new(stripes: usize) -> Self {
        FpIndex {
            stripes: (0..stripes.max(1))
                .map(|_| Mutex::new(IndexStripe::default()))
                .collect(),
            entries: AtomicUsize::new(0),
            payload_raw: AtomicUsize::new(0),
            payload_stored: AtomicUsize::new(0),
        }
    }

    #[inline]
    fn stripe(&self, fp: u64) -> &Mutex<IndexStripe> {
        &self.stripes[(fp >> 32) as usize % self.stripes.len()]
    }

    /// Publish a spilled record.
    pub(crate) fn insert(&self, fp: u64, r: DiskRef) {
        self.stripe(fp)
            .lock()
            .unwrap()
            .entry(fp)
            .or_default()
            .push(r);
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.payload_raw
            .fetch_add(r.raw as usize, Ordering::Relaxed);
        self.payload_stored
            .fetch_add(r.len as usize, Ordering::Relaxed);
    }

    /// Whether any record under `fp` satisfies `pred` (which typically
    /// confirms the encoding against disk). The bucket is visited under
    /// the stripe lock; buckets hold one ref in all but colliding
    /// fingerprints, so `pred` runs at most once in the common case.
    pub(crate) fn candidates(&self, fp: u64, mut pred: impl FnMut(&DiskRef) -> bool) -> bool {
        let stripe = self.stripe(fp).lock().unwrap();
        stripe.get(&fp).is_some_and(|b| b.iter().any(&mut pred))
    }

    /// Append `fp`'s candidate refs to `out` (copied out under the
    /// stripe lock, so the caller can confirm against disk without
    /// holding it — the batch path sorts confirms by position first).
    pub(crate) fn collect_refs(&self, fp: u64, out: &mut Vec<DiskRef>) {
        let stripe = self.stripe(fp).lock().unwrap();
        if let Some(b) = stripe.get(&fp) {
            out.extend_from_slice(b);
        }
    }

    /// Total records indexed (== states resident on disk).
    pub(crate) fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Total *raw* payload bytes the indexed records stand for.
    pub(crate) fn bytes(&self) -> usize {
        self.payload_raw.load(Ordering::Relaxed)
    }

    /// Total bytes the indexed records occupy on disk.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.payload_stored.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dref(off: u64, len: u32, epoch: u32) -> DiskRef {
        DiskRef {
            off,
            len,
            raw: len * 3, // distinct from len, like a compressed record
            epoch,
        }
    }

    #[test]
    fn insert_probe_and_counters() {
        let idx = FpIndex::new(4);
        assert!(!idx.candidates(9, |_| true), "empty");
        idx.insert(9, dref(10, 100, 1));
        idx.insert(9, dref(110, 50, 2)); // fingerprint collision
        idx.insert(u64::MAX, dref(160, 7, 1));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.bytes(), 3 * 157, "logical total counts raw bytes");
        assert_eq!(idx.stored_bytes(), 157);
        assert!(idx.candidates(9, |r| r.epoch == 2));
        assert!(!idx.candidates(9, |r| r.epoch == 3));
        assert!(!idx.candidates(8, |_| true), "no bucket, pred not run");
        let mut probes = 0;
        idx.candidates(9, |_| {
            probes += 1;
            false
        });
        assert_eq!(probes, 2, "colliding refs each get confirmed");
    }
}
