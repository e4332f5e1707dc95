//! Bounded-memory FIFO spooling of the level-synchronous frontier.
//!
//! A frontier level can be far larger than the visited set's resident
//! slice (breadth-first peaks mid-search), so the next level's winners
//! are pushed into a [`FrontierSpool`]: the first entries — in commit
//! order, exactly as the ordered commit produces them — stay in memory
//! up to a byte budget; every entry after that is serialized to an
//! append-only spool file. Consumption is strictly FIFO
//! ([`FrontierSpool::next_chunk`]), so entries re-enter the search in
//! the same commit order an unbounded run processes them in — spooling
//! changes *where* an entry waits, never *when* it runs.
//!
//! Chunk boundaries are derived from entry byte *costs* against a fixed
//! budget — a deterministic function of the entry sequence alone, so
//! chunking is identical for any worker count (and the report identical
//! for any memory limit; see `search::stateful`'s commit argument).
//!
//! ## The chunking contract: one cost rule
//!
//! An entry costs [`Spoolable::cost`] — for a frontier item, the length
//! of the state's store key — wherever it waited: in the memory head,
//! in the disk tail, or in a checkpoint's frontier snapshot. A decoded
//! entry holds exactly what the pushed one held (a frontier item's path
//! is a reference into the path log, not a copy), so nothing makes an
//! entry read back from disk any bigger. The cost is a pure function of
//! the entry, so chunking stays deterministic; the operational counters
//! (`frontier_spilled_entries`, `pipeline_chunks`, checkpoint and spill
//! counts) depend on where the chunk boundaries fall, so a change to the
//! rule changes them, and never the report.
//!
//! Spool files (`spool-<level>.bin`) are written through the store's
//! file layer (`store::log`), hold length-prefixed records, and are
//! deleted when the spool drops; a checkpoint serializes the *remaining*
//! entries via [`FrontierSpool::snapshot`] without consuming them.

use super::log::Log;
use super::SpillDir;
use crate::state::encode::{put_u64, ByteReader, SPOOL_MAGIC};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::sync::Arc;

/// An entry that can round-trip through a spool file. Decoded entries
/// must be observationally equal to the originals for search purposes.
pub trait Spoolable: Sized {
    /// Append the entry's spool encoding to `out`.
    fn spool_encode(&self, out: &mut Vec<u8>);
    /// Decode one entry from its spool encoding.
    fn spool_decode(bytes: &[u8]) -> Option<Self>;
    /// The entry's byte cost against the memory and chunk budgets (the
    /// module docs' chunking contract).
    fn cost(&self) -> usize;
}

struct DiskPart {
    log: Log,
    /// Records written and not yet read back.
    pending: usize,
    reader: Option<BufReader<File>>,
}

/// A FIFO of search-frontier entries with a bounded in-memory head and
/// a disk tail. Every entry's [`Spoolable::cost`] drives both the memory
/// budget and chunk boundaries.
pub struct FrontierSpool<T: Spoolable> {
    ram: VecDeque<T>,
    ram_bytes: usize,
    budget: usize,
    disk: Option<DiskPart>,
    dir: Option<Arc<SpillDir>>,
    tag: u64,
    spooled: usize,
    scratch: Vec<u8>,
}

impl<T: Spoolable> FrontierSpool<T> {
    /// An empty spool keeping at most ~`budget` bytes of entries in
    /// memory; the overflow goes to `spool-<tag>.bin` under `dir`.
    /// With no `dir`, the budget is ignored (fully in-memory).
    pub fn new(budget: usize, dir: Option<Arc<SpillDir>>, tag: u64) -> Self {
        FrontierSpool {
            ram: VecDeque::new(),
            ram_bytes: 0,
            budget,
            disk: None,
            dir,
            tag,
            spooled: 0,
            scratch: Vec::new(),
        }
    }

    /// Entries currently held (memory + disk).
    pub fn len(&self) -> usize {
        self.ram.len() + self.disk.as_ref().map_or(0, |d| d.pending)
    }

    /// True when no entry remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries that went through the disk tail over the spool's life.
    pub fn spooled(&self) -> usize {
        self.spooled
    }

    /// Append an entry (callers push in commit order). Once an entry has
    /// spilled, all later entries spill too — the memory head is always a
    /// FIFO *prefix*.
    pub fn push(&mut self, item: T) -> io::Result<()> {
        let spilling = self.disk.as_ref().is_some_and(|d| d.pending > 0);
        let cost = item.cost();
        if self.dir.is_none() || (!spilling && self.ram_bytes + cost <= self.budget) {
            self.ram_bytes += cost;
            self.ram.push_back(item);
            return Ok(());
        }
        self.scratch.clear();
        item.spool_encode(&mut self.scratch);
        let d = match &mut self.disk {
            Some(d) => d,
            None => {
                let dir = self.dir.as_ref().expect("spill requires a dir");
                let path = dir.path().join(format!("spool-{}.bin", self.tag));
                self.disk.insert(DiskPart {
                    log: Log::create(path, SPOOL_MAGIC)?,
                    pending: 0,
                    reader: None,
                })
            }
        };
        write_framed(&mut d.log, &mut self.scratch)?;
        d.pending += 1;
        self.spooled += 1;
        Ok(())
    }

    /// Pop the next FIFO chunk: entries until their summed cost exceeds
    /// `chunk_budget` (always at least one). Returns `None` when empty.
    /// The boundary depends only on the entry sequence and the budget —
    /// never on timing — so chunking is deterministic.
    pub fn next_chunk(&mut self, chunk_budget: usize) -> io::Result<Option<Vec<T>>> {
        if self.is_empty() {
            return Ok(None);
        }
        let mut chunk = Vec::new();
        let mut used = 0usize;
        while used <= chunk_budget {
            let item = match self.ram.pop_front() {
                Some(item) => {
                    self.ram_bytes -= item.cost();
                    item
                }
                None => match self.read_one()? {
                    Some(item) => item,
                    None => break,
                },
            };
            used += item.cost();
            chunk.push(item);
        }
        Ok(if chunk.is_empty() { None } else { Some(chunk) })
    }

    /// Read one record off the disk tail (FIFO order).
    fn read_one(&mut self) -> io::Result<Option<T>> {
        let Some(d) = &mut self.disk else {
            return Ok(None);
        };
        if d.pending == 0 {
            return Ok(None);
        }
        // Levels never interleave pushes with pops, so by the first read
        // the writer is done.
        let reader = match &mut d.reader {
            Some(r) => r,
            None => d.reader.insert(d.log.reader()?),
        };
        let len = read_varint(reader)? as usize;
        self.scratch.resize(len, 0);
        reader.read_exact(&mut self.scratch)?;
        d.pending -= 1;
        let item = T::spool_decode(&self.scratch)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "torn spool record"))?;
        Ok(Some(item))
    }

    /// Serialize every *remaining* entry (memory head first, then the
    /// unread disk tail) as length-prefixed records, without consuming
    /// them — the checkpoint writer's frontier snapshot. Returns the
    /// entry count.
    pub fn snapshot(&mut self, out: &mut impl Write) -> io::Result<usize> {
        let mut n = 0usize;
        for item in &self.ram {
            self.scratch.clear();
            item.spool_encode(&mut self.scratch);
            write_framed(out, &mut self.scratch)?;
            n += 1;
        }
        if let Some(d) = &mut self.disk {
            if d.pending > 0 {
                assert!(
                    d.reader.is_none(),
                    "checkpoints snapshot level-start spools only"
                );
                // Raw copy: records are already length-prefixed.
                io::copy(&mut d.log.reader()?, out)?;
                n += d.pending;
            }
        }
        Ok(n)
    }

    /// Decode the `count` length-prefixed records `r` holds (a snapshot
    /// written by [`FrontierSpool::snapshot`]), yielding the entries to
    /// re-push into a fresh spool.
    pub fn decode_snapshot(mut r: ByteReader<'_>, count: usize) -> Option<Vec<T>> {
        let mut out = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let len = usize::try_from(r.u64()?).ok()?;
            let rec = r.take(len)?;
            out.push(T::spool_decode(rec)?);
        }
        (r.remaining() == 0).then_some(out)
    }
}

/// Write `record` behind its length prefix. The prefix is appended to
/// `record` itself and the two halves written in swapped order, so
/// framing an entry allocates nothing (`record` is left holding both).
fn write_framed(out: &mut impl Write, record: &mut Vec<u8>) -> io::Result<()> {
    let len = record.len();
    put_u64(record, len as u64);
    let (body, prefix) = record.split_at(len);
    out.write_all(prefix)?;
    out.write_all(body)
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "oversized varint",
            ));
        }
        v |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

impl<T: Spoolable> Drop for FrontierSpool<T> {
    fn drop(&mut self) {
        if let Some(d) = &self.disk {
            let _ = std::fs::remove_file(d.log.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone)]
    struct Item(Vec<u8>);

    impl Spoolable for Item {
        fn spool_encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn spool_decode(bytes: &[u8]) -> Option<Self> {
            Some(Item(bytes.to_vec()))
        }
        fn cost(&self) -> usize {
            self.0.len()
        }
    }

    fn items(n: usize) -> Vec<Item> {
        (0..n).map(|i| Item(vec![i as u8; (i % 5) + 1])).collect()
    }

    #[test]
    fn fifo_order_survives_spilling() {
        let dir = SpillDir::temp().unwrap();
        let all = items(40);
        // Budget fits only the first few entries; the rest hit disk.
        let mut spool = FrontierSpool::new(6, Some(dir), 3);
        for it in &all {
            spool.push(it.clone()).unwrap();
        }
        assert_eq!(spool.len(), 40);
        assert!(spool.spooled() > 0, "spilling actually happened");
        let mut back = Vec::new();
        while let Some(chunk) = spool.next_chunk(7).unwrap() {
            assert!(!chunk.is_empty());
            back.extend(chunk);
        }
        assert_eq!(back, all, "re-admission order == push (commit) order");
        assert_eq!(spool.len(), 0);
    }

    #[test]
    fn unbounded_spool_stays_in_memory() {
        let mut spool: FrontierSpool<Item> = FrontierSpool::new(usize::MAX, None, 0);
        for it in items(10) {
            spool.push(it).unwrap();
        }
        assert_eq!(spool.spooled(), 0);
        // One chunk drains everything under a huge budget.
        let chunk = spool.next_chunk(usize::MAX).unwrap().unwrap();
        assert_eq!(chunk.len(), 10);
        assert!(spool.next_chunk(usize::MAX).unwrap().is_none());
    }

    #[test]
    fn chunk_boundaries_are_cost_driven_and_nonempty() {
        let mut spool: FrontierSpool<Item> = FrontierSpool::new(usize::MAX, None, 0);
        for it in items(9) {
            spool.push(it).unwrap();
        }
        // A zero budget still makes progress: one entry per chunk.
        let mut chunks = 0;
        while let Some(c) = spool.next_chunk(0).unwrap() {
            assert_eq!(c.len(), 1);
            chunks += 1;
        }
        assert_eq!(chunks, 9);
    }

    #[test]
    fn snapshot_roundtrips_without_consuming() {
        let dir = SpillDir::temp().unwrap();
        let all = items(25);
        let mut spool = FrontierSpool::new(4, Some(dir), 7);
        for it in &all {
            spool.push(it.clone()).unwrap();
        }
        let mut snap = Vec::new();
        let n = spool.snapshot(&mut snap).unwrap();
        assert_eq!(n, 25);
        assert_eq!(spool.len(), 25, "snapshot consumes nothing");
        let decoded = FrontierSpool::<Item>::decode_snapshot(ByteReader::new(&snap), n).unwrap();
        assert_eq!(decoded, all);
        // And the spool still drains in order afterwards.
        let mut back = Vec::new();
        while let Some(chunk) = spool.next_chunk(16).unwrap() {
            back.extend(chunk);
        }
        assert_eq!(back, all);
    }
}
