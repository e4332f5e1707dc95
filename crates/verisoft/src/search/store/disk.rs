//! Tier 1: one append-only log file of canonical state encodings.
//!
//! Every spill — the tiered store draining its sealed entries past the
//! memory budget — appends its records to the same file, `tier1.bin`;
//! a record is immutable once written, and the only later access is a
//! positional read of a single record's payload to *confirm* a
//! fingerprint match against the full encoding (see [`super::index`]).
//! Records use the shared framing of [`crate::state::encode`]:
//!
//! ```text
//! RSEG <version>                        (header, once)
//! [fingerprint][epoch][len][enc bytes]  (per record, put_record)
//! ...
//! ```
//!
//! The file is created by the first spill and written through the
//! store's file layer (`store::log`), whose durability rule it follows.
//! One file means one open handle however many levels spill.

use super::log::{self, Log};
use super::SpillDir;
use crate::state::encode::{put_record, read_record, ByteReader, SEGMENT_MAGIC};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The tier-1 log's file name inside the spill directory.
pub(crate) const LOG_FILE: &str = "tier1.bin";

/// Where one state encoding lives in the log: absolute payload offset,
/// payload length, and the epoch it was sealed in. Entries of the
/// in-memory fingerprint index.
#[derive(Clone, Copy, Debug)]
pub struct DiskRef {
    /// Byte offset of the encoding within the log file.
    pub off: u64,
    /// Stored record length in bytes (the compressed tuple's length
    /// when the store compresses).
    pub len: u32,
    /// The state's *raw* canonical-encoding length — equal to `len`
    /// when the store is uncompressed; decoded from the tuple's prefix
    /// otherwise. Keeps `Report::visited_bytes` a logical total
    /// independent of the stored representation.
    pub raw: u32,
    /// Frontier level the state was sealed in.
    pub epoch: u32,
}

/// The index entry of the record `enc` at payload offset `off`: a
/// compressed record's raw length is its tuple's prefix.
fn disk_ref(compressed: bool, off: u64, enc: &[u8], epoch: u32) -> DiskRef {
    let raw = if compressed {
        crate::state::intern::raw_len_of(enc).expect("compressed tuple prefix")
    } else {
        enc.len()
    };
    DiskRef {
        off,
        len: enc.len() as u32,
        raw: raw as u32,
        epoch,
    }
}

/// Hand each state record `r` holds to `record`, in file order, and
/// refuse the file at `path` unless they are whole and number `count`:
/// the one reader of a record file, the tier-1 log's and a checkpoint's
/// tier-0 snapshot's alike.
pub(crate) fn records<'a>(
    path: &Path,
    mut r: ByteReader<'a>,
    count: u64,
    mut record: impl FnMut(u64, u32, usize, &'a [u8]),
) -> io::Result<()> {
    let mut n = 0u64;
    while r.remaining() > 0 {
        let at = r.pos();
        let (fp, epoch, off, enc) = read_record(&mut r)
            .ok_or_else(|| log::invalid(path, format!("torn record at byte {at}")))?;
        record(fp, epoch, off, enc);
        n += 1;
    }
    if n != count {
        return Err(log::invalid(
            path,
            format!("holds {n} records, manifest says {count}"),
        ));
    }
    Ok(())
}

/// The tier-1 log under one spill dir.
pub(crate) struct SpillLog {
    dir: Arc<SpillDir>,
    /// Whether records are compressed ID tuples (decides how a record's
    /// raw length is derived).
    compressed: bool,
    /// `None` until the first spill (or a resumed non-empty log) creates
    /// the file. Appends take `&mut self` at a level boundary; the
    /// workers' confirms share `&self`.
    log: Option<Log>,
}

impl SpillLog {
    pub(crate) fn new(dir: Arc<SpillDir>, compressed: bool) -> Self {
        SpillLog {
            dir,
            compressed,
            log: None,
        }
    }

    fn path(&self) -> PathBuf {
        self.dir.path().join(LOG_FILE)
    }

    /// Append `records` (`(fingerprint, epoch, enc)` triples, already in
    /// deterministic order) to the log, returning the index entries to
    /// publish. The records reach the file before they become visible,
    /// because workers confirm against it.
    pub(crate) fn append(
        &mut self,
        records: &[(u64, u32, Box<[u8]>)],
    ) -> io::Result<Vec<(u64, DiskRef)>> {
        if self.log.is_none() {
            self.log = Some(Log::create(self.path(), SEGMENT_MAGIC)?);
        }
        let log = self.log.as_mut().expect("log opened above");
        let mut buf = Vec::new();
        let mut refs = Vec::with_capacity(records.len());
        for (fp, epoch, enc) in records {
            put_record(&mut buf, *fp, *epoch, enc);
            let off = log.len() + (buf.len() - enc.len()) as u64;
            refs.push((*fp, disk_ref(self.compressed, off, enc, *epoch)));
        }
        log.write_all(&buf)?;
        log.flush()?;
        Ok(refs)
    }

    /// Reopen and scan the log a manifest committed at `(bytes,
    /// entries)` (resume path), returning the index entries of every
    /// committed record. `(0, 0)` means no spill was committed; the next
    /// [`SpillLog::append`] then starts the file afresh.
    pub(crate) fn reopen(
        &mut self,
        (bytes, entries): (u64, u64),
    ) -> io::Result<Vec<(u64, DiskRef)>> {
        let mut refs = Vec::new();
        if (bytes, entries) == (0, 0) {
            return Ok(refs);
        }
        let mut log = Log::reopen(self.path(), SEGMENT_MAGIC, bytes)?;
        let buf = log.read_all()?;
        records(
            log.path(),
            log::body(&buf),
            entries,
            |fp, epoch, off, enc| {
                refs.push((fp, disk_ref(self.compressed, off as u64, enc, epoch)));
            },
        )?;
        self.log = Some(log);
        Ok(refs)
    }

    /// Confirm that the record at `r` stores exactly `enc` — the
    /// collision check behind every index hit. Lengths are compared by
    /// the caller via [`DiskRef::len`] before paying for the read.
    pub(crate) fn confirm(&self, r: &DiskRef, enc: &[u8]) -> io::Result<bool> {
        debug_assert_eq!(r.len as usize, enc.len());
        let log = self.log.as_ref().expect("an index ref implies an open log");
        let mut buf = vec![0u8; r.len as usize];
        log.read_at(&mut buf, r.off)?;
        Ok(buf == enc)
    }

    /// Sync the log and return its byte length — what a checkpoint
    /// manifest commits; 0 before the first spill.
    pub(crate) fn sync(&mut self) -> io::Result<u64> {
        match self.log.as_mut() {
            Some(log) => log.sync(),
            None => Ok(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<(u64, u32, Box<[u8]>)> {
        (0..n)
            .map(|i| {
                let enc: Vec<u8> = (0..=i as u8).collect();
                (i as u64 * 17, (i % 3) as u32, enc.into_boxed_slice())
            })
            .collect()
    }

    #[test]
    fn appends_share_one_file_and_confirm() {
        let dir = SpillDir::temp().unwrap();
        let mut log = SpillLog::new(dir.clone(), false);
        assert_eq!(log.sync().unwrap(), 0);
        let rs = records(5);
        let mut refs = log.append(&rs[..2]).unwrap();
        refs.extend(log.append(&rs[2..]).unwrap());
        assert_eq!(refs.len(), 5);
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            1,
            "one file"
        );
        for ((fp, epoch, enc), (ifp, r)) in rs.iter().zip(&refs) {
            assert_eq!(fp, ifp);
            assert_eq!(*epoch, r.epoch);
            assert_eq!(r.raw, r.len, "uncompressed: raw == stored");
            assert!(log.confirm(r, enc).unwrap());
            let mut other = enc.to_vec();
            other[0] ^= 0xff;
            assert!(!log.confirm(r, &other).unwrap());
        }
    }

    #[test]
    fn reopen_rebuilds_refs_and_truncates_torn_tails() {
        let dir = SpillDir::temp().unwrap();
        let path = dir.path().join(LOG_FILE);
        let (byte_len, rs) = {
            let mut log = SpillLog::new(dir.clone(), false);
            let rs = records(4);
            log.append(&rs[..3]).unwrap();
            let committed = log.sync().unwrap();
            // A spill that lands after the manifest committed the
            // first three records, then a torn append past it.
            log.append(&rs[3..]).unwrap();
            (committed, rs)
        };
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&[0xab; 7])
            .unwrap();
        let mut log = SpillLog::new(dir.clone(), false);
        let refs = log.reopen((byte_len, 3)).unwrap();
        assert_eq!(refs.len(), 3);
        for ((_, _, enc), (_, r)) in rs.iter().zip(&refs) {
            assert!(log.confirm(r, enc).unwrap());
        }
        // Appends continue at the committed length.
        let (_, r) = log.append(&rs[3..]).unwrap()[0];
        assert!(log.confirm(&r, &rs[3].2).unwrap());
        assert_eq!(r.off, byte_len + 3, "after the committed length");
        // A record count off the manifest's is refused.
        drop(log);
        let e = SpillLog::new(dir, false).reopen((byte_len, 4)).unwrap_err();
        assert!(
            e.to_string().contains("holds 3 records, manifest says 4"),
            "{e}"
        );
    }
}
