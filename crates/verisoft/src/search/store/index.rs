//! The partitioned in-memory fingerprint index over the tier-1 log.
//!
//! Spilling must not turn every membership probe into disk IO: the
//! index keeps one `KeySet` of `fingerprint -> DiskRef` per partition
//! (partitioned exactly like tier 0, by the fingerprint's high bits),
//! so a probe is an O(1) hash lookup that *misses* without touching
//! disk. Only an actual fingerprint match pays for a positional read,
//! and only to confirm the full encoding — the collision-safety rule of
//! [`crate::state::encode`] carried over to disk: the index nominates,
//! the stored bytes decide. The keys themselves are on disk, so the
//! index stores empty keys and its arenas stay empty; refs sharing a
//! fingerprint come back in insertion order. Like tier 0 it holds no
//! lock: records are published through `&mut self` at a level boundary
//! or on resume, and the workers' probes share `&self`.
//!
//! Memory cost is one table slot per spilled state (fingerprint + ref),
//! which is what makes the tiered store "1000x beyond RAM"-shaped: the
//! full encodings (hundreds of bytes each) live on disk, the index
//! keeps only fixed-size handles.

use super::disk::DiskRef;
use super::keyset::KeySet;

/// The partitioned fingerprint index.
pub(crate) struct FpIndex {
    parts: Vec<KeySet<DiskRef>>,
    entries: usize,
    /// Raw canonical-encoding bytes the indexed records stand for (the
    /// logical total behind `Report::visited_bytes`).
    payload_raw: usize,
    /// Bytes the records actually occupy on disk (== raw when the
    /// store is uncompressed).
    payload_stored: usize,
}

impl FpIndex {
    pub(crate) fn new(parts: usize) -> Self {
        FpIndex {
            parts: (0..parts.max(1)).map(|_| KeySet::default()).collect(),
            entries: 0,
            payload_raw: 0,
            payload_stored: 0,
        }
    }

    #[inline]
    fn part(&self, fp: u64) -> usize {
        (fp >> 32) as usize % self.parts.len()
    }

    /// Publish a spilled record.
    pub(crate) fn insert(&mut self, fp: u64, r: DiskRef) {
        let p = self.part(fp);
        self.parts[p].push(fp, &[], r);
        self.entries += 1;
        self.payload_raw += r.raw as usize;
        self.payload_stored += r.len as usize;
    }

    /// The records under `fp`, in insertion order. All but colliding
    /// fingerprints hold one, so a caller confirming each against disk
    /// reads once in the common case.
    pub(crate) fn refs(&self, fp: u64) -> impl Iterator<Item = &DiskRef> {
        self.parts[self.part(fp)].values(fp)
    }

    /// Total records indexed (== states resident on disk).
    pub(crate) fn len(&self) -> usize {
        self.entries
    }

    /// Total *raw* payload bytes the indexed records stand for.
    pub(crate) fn bytes(&self) -> usize {
        self.payload_raw
    }

    /// Total bytes the indexed records occupy on disk.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.payload_stored
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
        let mut idx = FpIndex::new(4);
        assert_eq!(idx.refs(9).count(), 0, "empty");
        idx.insert(9, dref(10, 100, 1));
        idx.insert(9, dref(110, 50, 2)); // fingerprint collision
        idx.insert(u64::MAX, dref(160, 7, 1));
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.bytes(), 3 * 157, "logical total counts raw bytes");
        assert_eq!(idx.stored_bytes(), 157);
        assert!(idx.refs(9).any(|r| r.epoch == 2));
        assert!(!idx.refs(9).any(|r| r.epoch == 3));
        assert_eq!(idx.refs(8).count(), 0, "no entry");
        assert_eq!(idx.refs(9).count(), 2, "colliding refs each get confirmed");
    }

    #[test]
    fn colliding_refs_come_back_in_insertion_order() {
        let mut idx = FpIndex::new(2);
        let fp = 0x5EED_0000_0000_0042;
        for off in [30, 10, 20] {
            idx.insert(fp, dref(off, 5, 1));
        }
        idx.insert(fp ^ 1, dref(0, 5, 1)); // same partition, other fingerprint
        let offs: Vec<u64> = idx.refs(fp).map(|r| r.off).collect();
        assert_eq!(offs, [30, 10, 20]);
    }
}
