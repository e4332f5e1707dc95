//! The frontier search's reproducing paths, as one append-only log.
//!
//! Every state the frontier search queues gets one record: the
//! [`TraceRef`] of its parent and the [`Decision`] that led from the
//! parent to it. A frontier entry carries only its own `TraceRef`, the
//! record's byte offset, so queuing a successor appends a few bytes and
//! allocates nothing, spooling an entry writes one varint, and a path is
//! built only when a violation is recorded, by walking parents back to
//! [`TraceRef::EMPTY`]. That is offset 0, the header's, which no record
//! has: the root's empty path.
//!
//! ```text
//! RTRC <version>                                (header, put_header; once)
//! [parent ref][process][#choices][choice]...    (per record)
//! ```
//!
//! Records are appended by the ordered commit, in commit order, so every
//! offset is the same for any worker count and memory budget. Without a
//! spill directory the log is a list of fixed-size byte blocks. With one
//! it is `trace.bin`,
//! appended through a buffered writer, so at most the writer's buffer is
//! resident; building a path flushes the writer and reads the records
//! back. Either way a walk back stops at the first record on the last
//! path built and takes the rest from it, so sibling violations read
//! their own records only. A checkpoint syncs the file and commits its
//! length ([`TraceLog::persist`]); resume truncates anything past that
//! length ([`TraceLog::reopen`]), as it does for the tier-1 log and the
//! interner table.

use super::checkpoint::{put_decision, read_decision};
use crate::report::Decision;
use crate::state::encode::{check_header, put_header, put_u64, ByteReader, TRACE_MAGIC};
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The path log's file name inside the spill directory.
pub(crate) const TRACE_FILE: &str = "trace.bin";

/// A reproducing path: the byte offset of its last decision's record in
/// the [`TraceLog`], or [`TraceRef::EMPTY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct TraceRef(pub(crate) u64);

impl TraceRef {
    /// The empty path, the root's.
    pub(crate) const EMPTY: TraceRef = TraceRef(0);
}

/// Bytes per block of an in-memory log. Blocks are filled end to end, so
/// a log of any length holds at most one block it does not use, growing
/// it copies at most the block being filled, and a tiny exploration's log
/// is a few bytes.
const BLOCK: usize = 1 << 16;

enum Sink {
    /// Full blocks, then the one being filled; a record may straddle two.
    Mem(Vec<Vec<u8>>),
    File(BufWriter<File>),
}

/// The append-only path log. See the module docs.
pub(crate) struct TraceLog {
    sink: Sink,
    /// Bytes appended, header included: the next record's offset.
    len: u64,
    scratch: Vec<u8>,
    /// The records of the last path built, root first. Records never
    /// change once appended, so a later walk that meets one of them has
    /// the rest of its path here.
    last: Vec<(TraceRef, Decision)>,
}

/// The header every log starts with.
fn header() -> Vec<u8> {
    let mut h = Vec::new();
    put_header(&mut h, TRACE_MAGIC);
    h
}

fn corrupt(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl TraceLog {
    /// An empty log in memory.
    pub(crate) fn in_memory() -> TraceLog {
        let mut log = TraceLog {
            sink: Sink::Mem(Vec::new()),
            len: 0,
            scratch: header(),
            last: Vec::new(),
        };
        log.append_scratch().expect("memory appends cannot fail");
        log
    }

    /// An empty log in `trace.bin` under `dir`, created afresh (a stale
    /// file no manifest of this run commits is truncated away).
    pub(crate) fn create(dir: &Path) -> io::Result<TraceLog> {
        // Read+write: building a path reads records back through the
        // same handle.
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(dir.join(TRACE_FILE))?;
        let mut log = TraceLog {
            sink: Sink::File(BufWriter::new(file)),
            len: 0,
            scratch: header(),
            last: Vec::new(),
        };
        log.append_scratch()?;
        Ok(log)
    }

    /// The `trace.bin` under `dir` that a checkpoint committed at
    /// `byte_len` bytes, reopened for appending: anything past that
    /// length (records of levels after the checkpoint, or a torn append)
    /// is truncated away.
    pub(crate) fn reopen(dir: &Path, byte_len: u64) -> io::Result<TraceLog> {
        let mut file = File::options()
            .read(true)
            .write(true)
            .open(dir.join(TRACE_FILE))?;
        let actual = file.metadata()?.len();
        if actual < byte_len {
            return Err(corrupt(format!(
                "{actual} bytes on disk, manifest says {byte_len}"
            )));
        }
        file.set_len(byte_len)?;
        let mut head = vec![0u8; header().len()];
        file.read_exact(&mut head)?;
        if !check_header(&mut ByteReader::new(&head), TRACE_MAGIC) {
            return Err(corrupt(
                "not a trace log (or written by an incompatible store format version)".into(),
            ));
        }
        file.seek(SeekFrom::End(0))?;
        Ok(TraceLog {
            sink: Sink::File(BufWriter::new(file)),
            len: byte_len,
            scratch: Vec::new(),
            last: Vec::new(),
        })
    }

    /// Append the path `parent` extended by `decision`, and return it.
    pub(crate) fn push(&mut self, parent: TraceRef, decision: &Decision) -> io::Result<TraceRef> {
        let at = TraceRef(self.len);
        self.scratch.clear();
        put_u64(&mut self.scratch, parent.0);
        put_decision(&mut self.scratch, decision);
        self.append_scratch()?;
        Ok(at)
    }

    /// Append the bytes in `scratch`.
    fn append_scratch(&mut self) -> io::Result<()> {
        self.len += self.scratch.len() as u64;
        let blocks = match &mut self.sink {
            Sink::File(w) => return w.write_all(&self.scratch),
            Sink::Mem(blocks) => blocks,
        };
        let mut rest = &self.scratch[..];
        while !rest.is_empty() {
            if blocks.last().is_none_or(|b| b.len() == BLOCK) {
                blocks.push(Vec::new());
            }
            let block = blocks.last_mut().expect("pushed above");
            let n = rest.len().min(BLOCK - block.len());
            block.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        }
        Ok(())
    }

    /// The decisions of `path`, root first. The walk back reads records
    /// only until it meets one on the last path built: violations found
    /// side by side share all but their last few records, and a file
    /// read per record is what a walk costs out of core.
    pub(crate) fn path(&mut self, mut path: TraceRef) -> io::Result<Vec<Decision>> {
        let mut fresh = Vec::new();
        // A record's parent precedes it, so `last`'s offsets ascend.
        let shared = loop {
            if path == TraceRef::EMPTY {
                break 0;
            }
            if let Ok(i) = self.last.binary_search_by_key(&path.0, |(r, _)| r.0) {
                break i + 1;
            }
            let (parent, decision) = self.record(path)?;
            fresh.push((path, decision));
            path = parent;
        };
        self.last.truncate(shared);
        self.last.extend(fresh.into_iter().rev());
        // Room for the violating decision an assertion's path ends in.
        let mut out = Vec::with_capacity(self.last.len() + 1);
        out.extend(self.last.iter().map(|(_, d)| d.clone()));
        Ok(out)
    }

    /// The record at `at`: its parent and its decision.
    fn record(&mut self, at: TraceRef) -> io::Result<(TraceRef, Decision)> {
        if at.0 >= self.len {
            return Err(corrupt(format!(
                "trace record at byte {} past the log's {} bytes",
                at.0, self.len
            )));
        }
        // A record is a handful of varints: read a small window, and a
        // wider one only for a decision with many choices.
        let left = self.len - at.0;
        let mut window = 64u64;
        loop {
            let n = window.min(left) as usize;
            self.read_scratch(at.0, n)?;
            match decode(&self.scratch, at) {
                Err(_) if (n as u64) < left => window *= 4,
                rec => return rec,
            }
        }
    }

    /// Fill `scratch` with the `n` bytes at `off`.
    fn read_scratch(&mut self, off: u64, n: usize) -> io::Result<()> {
        self.scratch.clear();
        match &mut self.sink {
            Sink::File(w) => {
                self.scratch.resize(n, 0);
                w.flush()?;
                read_at(w.get_mut(), &mut self.scratch, off)?;
            }
            Sink::Mem(blocks) => {
                let mut off = off as usize;
                while self.scratch.len() < n {
                    let block = &blocks[off / BLOCK][off % BLOCK..];
                    let take = block.len().min(n - self.scratch.len());
                    self.scratch.extend_from_slice(&block[..take]);
                    off += take;
                }
            }
        }
        Ok(())
    }

    /// Sync the log and return its length — what a checkpoint manifest
    /// commits. An in-memory log has nothing to sync.
    pub(crate) fn persist(&mut self) -> io::Result<u64> {
        if let Sink::File(w) = &mut self.sink {
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        Ok(self.len)
    }
}

/// Fill `buf` from `f` at offset `off`, leaving the write position at
/// the end of the file: one positional read where the platform has one.
#[cfg(unix)]
fn read_at(f: &mut File, buf: &mut [u8], off: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(f, buf, off)
}

#[cfg(not(unix))]
fn read_at(f: &mut File, buf: &mut [u8], off: u64) -> io::Result<()> {
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(buf)?;
    f.seek(SeekFrom::End(0)).map(drop)
}

/// Decode the record at the front of `bytes`, which sits at offset `at`.
/// A record's parent precedes it, so a damaged log cannot send a walk
/// round a cycle.
fn decode(bytes: &[u8], at: TraceRef) -> io::Result<(TraceRef, Decision)> {
    let mut r = ByteReader::new(bytes);
    let rec = r
        .u64()
        .filter(|&parent| parent < at.0)
        .and_then(|parent| Some((TraceRef(parent), read_decision(&mut r)?)));
    rec.ok_or_else(|| corrupt(format!("torn trace record at byte {}", at.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::store::SpillDir;

    fn decision(process: usize, choices: Vec<u32>) -> Decision {
        Decision { process, choices }
    }

    /// Two siblings below a common parent, one with a decision too long
    /// for the file reader's first window; every path reads back root
    /// first, from memory and from a file alike.
    #[test]
    fn paths_walk_back_to_the_root_in_memory_and_on_disk() {
        let dir = SpillDir::temp().unwrap();
        for on_disk in [false, true] {
            let mut log = if on_disk {
                TraceLog::create(dir.path()).unwrap()
            } else {
                TraceLog::in_memory()
            };
            let a = decision(1, vec![2, 0]);
            let b = decision(0, vec![]);
            let long = decision(2, (0..100).map(|c| c << 20).collect());
            let pa = log.push(TraceRef::EMPTY, &a).unwrap();
            let pb = log.push(pa, &b).unwrap();
            let pl = log.push(pa, &long).unwrap();
            assert_eq!(log.path(TraceRef::EMPTY).unwrap(), []);
            assert_eq!(log.path(pb).unwrap(), [a.clone(), b.clone()]);
            assert_eq!(log.path(pl).unwrap(), [a.clone(), long.clone()]);
            // Appending after a read lands at the end, not at the read.
            let pc = log.push(pb, &a).unwrap();
            assert_eq!(log.path(pc).unwrap(), [a.clone(), b, a]);
            assert!(log.path(TraceRef(log.len)).is_err(), "past the end");
            // A chain long enough that records straddle memory blocks.
            let chain: Vec<Decision> = (0..30_000u32)
                .map(|i| decision(i as usize % 7, vec![i, i << 9]))
                .collect();
            let mut last = TraceRef::EMPTY;
            for d in &chain {
                last = log.push(last, d).unwrap();
            }
            assert!(log.len > 2 * BLOCK as u64);
            assert_eq!(log.path(last).unwrap(), chain);
        }
    }

    /// A tree of paths — siblings, cousins, a path and its own prefix —
    /// walked in shuffled orders reads back exactly as each path was
    /// pushed, and as a cold walk (nothing kept from an earlier one)
    /// reads it, from memory and from a file alike.
    #[test]
    fn walks_in_any_order_equal_cold_walks() {
        let dir = SpillDir::temp().unwrap();
        for on_disk in [false, true] {
            let mut log = if on_disk {
                TraceLog::create(dir.path()).unwrap()
            } else {
                TraceLog::in_memory()
            };
            // Node `k`'s parent is an earlier node (or the root), so the
            // tree is 200 nodes deep at most and mostly bushy.
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move |n: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % n
            };
            let mut nodes: Vec<(TraceRef, Vec<Decision>)> = Vec::new();
            for k in 0..200u32 {
                let at = next(u64::from(k) + 1) as usize;
                let (parent, mut path) = match at.checked_sub(1) {
                    Some(p) => nodes[p].clone(),
                    None => (TraceRef::EMPTY, Vec::new()),
                };
                let d = decision(k as usize % 5, (0..k % 3).collect());
                let r = log.push(parent, &d).unwrap();
                path.push(d);
                nodes.push((r, path));
            }
            for _ in 0..4 {
                let mut order: Vec<usize> = (0..nodes.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, next(i as u64 + 1) as usize);
                }
                for &k in &order {
                    let (r, want) = &nodes[k];
                    assert_eq!(log.path(*r).unwrap(), *want, "node {k}");
                    log.last.clear();
                    assert_eq!(log.path(*r).unwrap(), *want, "node {k}, cold");
                }
            }
        }
    }

    /// The record layout is pinned: the header, then per record the
    /// parent's offset and the decision in the checkpoint's encoding.
    #[test]
    fn records_are_parent_then_decision() {
        let dir = SpillDir::temp().unwrap();
        let mut log = TraceLog::create(dir.path()).unwrap();
        let p = log.push(TraceRef::EMPTY, &decision(1, vec![2, 0])).unwrap();
        log.push(p, &decision(0, vec![])).unwrap();
        let len = log.persist().unwrap();
        let bytes = std::fs::read(dir.path().join(TRACE_FILE)).unwrap();
        #[rustfmt::skip]
        let golden = [
            b'R', b'T', b'R', b'C', 5,  // header
            0, 1, 2, 2, 0,              // root's child: P1[2,0]
            5, 0, 0,                    // its child: P0
        ];
        assert_eq!(bytes, golden);
        assert_eq!((p, len), (TraceRef(5), golden.len() as u64));
    }

    #[test]
    fn reopen_truncates_past_the_committed_length() {
        let dir = SpillDir::temp().unwrap();
        let mut log = TraceLog::create(dir.path()).unwrap();
        let a = decision(3, vec![1]);
        let pa = log.push(TraceRef::EMPTY, &a).unwrap();
        let committed = log.persist().unwrap();
        log.push(pa, &decision(4, vec![])).unwrap();
        log.persist().unwrap();
        drop(log);
        let path = dir.path().join(TRACE_FILE);
        let mut f = File::options().append(true).open(&path).unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x7F]).unwrap();
        drop(f);
        let mut log = TraceLog::reopen(dir.path(), committed).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
        let b = decision(5, vec![]);
        let pb = log.push(pa, &b).unwrap();
        assert_eq!(
            pb,
            TraceRef(committed),
            "appends resume at the committed end"
        );
        assert_eq!(log.path(pb).unwrap(), [a, b]);
        // A length past the file, or a file that is not a trace log, is
        // refused.
        assert!(TraceLog::reopen(dir.path(), committed + 100).is_err());
        std::fs::write(&path, b"not a trace log").unwrap();
        assert!(TraceLog::reopen(dir.path(), 10).is_err());
    }
}
