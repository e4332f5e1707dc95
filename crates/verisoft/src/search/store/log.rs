//! The one file layer under every store file: the tier-1 log, the path
//! log, the interner table, the spool's disk tail, and a checkpoint's
//! snapshots and manifest. Each file is a header (four magic bytes, then
//! [`STORE_FORMAT_VERSION`]) and records only its owner reads; this
//! module owns the rest: creating a file under its header, buffered
//! appends, syncing, reopening at a committed length, and reading back.
//!
//! **Durability.** A log is synced by the checkpoint that commits its
//! length ([`Log::sync`] returns it), before the manifest is renamed into
//! place, and never on its own. Resume reopens each log at the committed
//! length ([`Log::reopen`]) and truncates whatever lies past it — records
//! appended after the checkpoint, or a torn append — so nothing unsynced
//! is read back after a crash. A spill directory no checkpoint commits
//! is temporary, deleted with the run.

use crate::state::encode::{
    ByteReader, CHECKPOINT_MAGIC, INTERN_MAGIC, SEGMENT_MAGIC, SPOOL_MAGIC, STORE_FORMAT_VERSION,
    TRACE_MAGIC,
};
use std::fs::File;
use std::io::ErrorKind::InvalidData;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of a header: the magic, then the version as a one-byte varint.
pub(crate) const HEADER_LEN: usize = 5;
const _: () = assert!(STORE_FORMAT_VERSION < 0x80);

/// The header of a file of format `magic`.
pub(crate) fn header(magic: [u8; 4]) -> [u8; HEADER_LEN] {
    let [a, b, c, d] = magic;
    [a, b, c, d, STORE_FORMAT_VERSION as u8]
}

/// What a file of format `magic` is, for diagnostics.
fn kind(magic: [u8; 4]) -> &'static str {
    match magic {
        SEGMENT_MAGIC => "state record file",
        SPOOL_MAGIC => "frontier spool",
        CHECKPOINT_MAGIC => "checkpoint manifest",
        INTERN_MAGIC => "interner table",
        TRACE_MAGIC => "trace log",
        _ => "store file",
    }
}

/// An `InvalidData` error about the file at `path`.
pub(crate) fn invalid(path: &Path, msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(InvalidData, format!("{}: {msg}", path.display()))
}

/// `e`, prefixed with the file it happened to.
pub(crate) fn at(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Open the file at `path`, refusing it unless it starts with `magic`'s
/// header and holds at least `len` bytes (when given). The handle is
/// left just past the header.
fn open(path: &Path, magic: [u8; 4], len: Option<u64>, write: bool) -> io::Result<File> {
    let file = File::options().read(true).write(write).open(path);
    let mut file = file.map_err(at(path))?;
    let actual = file.metadata()?.len();
    if let Some(len) = len.filter(|&len| actual < len || len < HEADER_LEN as u64) {
        let msg = format!("{actual} bytes on disk, manifest says {len}");
        return Err(invalid(path, msg));
    }
    let mut head = [0u8; HEADER_LEN];
    if actual < HEADER_LEN as u64 || file.read_exact(&mut head).is_err() || head != header(magic) {
        let kind = kind(magic);
        let msg = format!("not a {kind} (or written by an incompatible store format version)");
        return Err(invalid(path, msg));
    }
    Ok(file)
}

/// The file at `path`, header included and checked: with a committed
/// `len`, refused as [`Log::reopen`] would refuse it and read up to
/// `len` (the file is left as it is); otherwise read whole.
pub(crate) fn read(path: &Path, magic: [u8; 4], len: Option<u64>) -> io::Result<Vec<u8>> {
    let file = open(path, magic, len, false)?;
    let mut bytes = header(magic).to_vec();
    let body = len.map_or(u64::MAX, |len| len - HEADER_LEN as u64);
    file.take(body).read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Write `records` to a fresh file at `path` under `magic`, and sync it.
pub(crate) fn write(path: PathBuf, magic: [u8; 4], records: &[u8]) -> io::Result<()> {
    let mut log = Log::create(path, magic)?;
    log.write_all(records)?;
    log.sync().map(drop)
}

/// A reader over a whole file's records: its positions are file offsets.
pub(crate) fn body(bytes: &[u8]) -> ByteReader<'_> {
    let mut r = ByteReader::new(bytes);
    r.take(HEADER_LEN);
    r
}

/// One append-only store file. Appends land in a buffer; flushing hands
/// them to the file, where positional reads see them.
pub(crate) struct Log {
    path: PathBuf,
    out: BufWriter<File>,
    /// Bytes appended, header included: the next append's offset.
    len: u64,
}

impl Log {
    /// A file at `path` holding only `magic`'s header; a stale file there
    /// is truncated away.
    pub(crate) fn create(path: PathBuf, magic: [u8; 4]) -> io::Result<Log> {
        // Read+write: the same handle serves positional reads.
        let file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(at(&path))?;
        let mut log = Log {
            path,
            out: BufWriter::new(file),
            len: 0,
        };
        log.write_all(&header(magic))?;
        Ok(log)
    }

    /// The file at `path` a checkpoint committed at `len` bytes, reopened
    /// for appending: refused if missing, shorter than `len` or headed for
    /// another format, and truncated past `len`.
    pub(crate) fn reopen(path: PathBuf, magic: [u8; 4], len: u64) -> io::Result<Log> {
        let mut file = open(&path, magic, Some(len), true)?;
        file.set_len(len)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Log {
            path,
            out: BufWriter::new(file),
            len,
        })
    }

    /// Bytes appended, header included.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Where the file lives.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Flush and fsync the file, and return its length.
    pub(crate) fn sync(&mut self) -> io::Result<u64> {
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(self.len)
    }

    /// The whole file, header included: after [`Log::reopen`], exactly
    /// the committed prefix. Refused if the file holds anything else.
    pub(crate) fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.out.flush()?;
        let bytes = std::fs::read(&self.path)?;
        if bytes.len() as u64 != self.len {
            let msg = format!("{} bytes on disk, log holds {}", bytes.len(), self.len);
            return Err(invalid(&self.path, msg));
        }
        Ok(bytes)
    }

    /// A sequential reader over the records, on a handle of its own.
    pub(crate) fn reader(&mut self) -> io::Result<BufReader<File>> {
        self.out.flush()?;
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(HEADER_LEN as u64))?;
        Ok(BufReader::new(file))
    }

    /// Fill `buf` from offset `off`. Reads only what was flushed.
    #[cfg(unix)]
    pub(crate) fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self.out.get_ref(), buf, off)
    }

    /// Fill `buf` from offset `off`. Reads only what was flushed.
    #[cfg(not(unix))]
    pub(crate) fn read_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        // No positional read: seek, read and seek back to the end, where
        // appends continue, under one lock for every log.
        static SEEK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = SEEK.lock().unwrap_or_else(|e| e.into_inner());
        let mut file = self.out.get_ref();
        file.seek(SeekFrom::Start(off))?;
        file.read_exact(buf)?;
        file.seek(SeekFrom::End(0)).map(drop)
    }
}

impl Write for Log {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let n = self.out.write(bytes)?;
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::store::SpillDir;

    /// For each append-only log's format: appends and a sync commit a
    /// length, a reopen there truncates a torn tail and appends after
    /// it, and a missing, short or wrongly headed file is refused.
    #[test]
    fn every_log_format_commits_reopens_and_refuses_alike() {
        let dir = SpillDir::temp().unwrap();
        for (name, magic) in [
            ("tier1.bin", SEGMENT_MAGIC),
            ("trace.bin", TRACE_MAGIC),
            ("intern.bin", INTERN_MAGIC),
        ] {
            let path = dir.path().join(name);
            let mut log = Log::create(path.clone(), magic).unwrap();
            assert_eq!(log.len(), HEADER_LEN as u64);
            log.write_all(b"first").unwrap();
            let committed = log.sync().unwrap();
            assert_eq!(committed, (HEADER_LEN + 5) as u64);
            log.write_all(b"after the checkpoint").unwrap();
            log.flush().unwrap();
            let mut back = [0u8; 5];
            log.read_at(&mut back, HEADER_LEN as u64).unwrap();
            assert_eq!(&back, b"first", "{name}: positional read");
            drop(log);
            // A torn append past everything.
            let mut torn = File::options().append(true).open(&path).unwrap();
            torn.write_all(&[0xDE, 0xAD]).unwrap();
            drop(torn);

            let read_back = read(&path, magic, Some(committed)).unwrap();
            assert_eq!(
                read_back[HEADER_LEN..],
                *b"first",
                "{name}: up to the length"
            );
            let mut log = Log::reopen(path.clone(), magic, committed).unwrap();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), committed);
            let bytes = log.read_all().unwrap();
            assert_eq!(&bytes[..HEADER_LEN], header(magic));
            assert_eq!(body(&bytes).take(5), Some(&b"first"[..]));
            log.write_all(b"next").unwrap();
            assert_eq!(log.sync().unwrap(), committed + 4, "{name}");
            assert_eq!(std::fs::read(&path).unwrap()[HEADER_LEN..], *b"firstnext");
            drop(log);

            let refused = |path: &Path, len: u64, why: &str| {
                let e = Log::reopen(path.to_path_buf(), magic, len).err().unwrap();
                let e = e.to_string();
                assert!(e.starts_with(&path.display().to_string()), "{e}");
                assert!(e.contains(why), "{name}: {e}");
                let e = read(path, magic, Some(len)).unwrap_err().to_string();
                assert!(e.contains(why), "{name}: {e}");
            };
            refused(&path, committed + 5, "manifest says");
            refused(&dir.path().join("missing.bin"), committed, "No such file");
            std::fs::write(&path, b"RX").unwrap();
            refused(&path, 2, "manifest says");
            refused(&path, 0, "manifest says");
            std::fs::write(&path, b"RXXX\x05 and more").unwrap();
            refused(&path, 10, "not a");
            std::fs::write(&path, [&magic[..], &[4], b"old"].concat()).unwrap();
            refused(&path, 8, "incompatible store format version");
            assert!(read(&path, magic, None).is_err());
        }
    }
}
