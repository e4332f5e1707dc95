//! Level-boundary checkpoints and the resume path.
//!
//! The frontier search's entire loop state at a level boundary is
//! `(sealed visited set with epochs, next frontier in commit order, the
//! paths its entries point into, report-so-far, level number)` — nothing
//! else survives a round. A checkpoint therefore persists exactly those
//! five things:
//!
//! - **The tier-1 log** (`tier1.bin`) is append-only and synced per
//!   spill, so it is referenced by its committed byte length and record
//!   count.
//! - **Tier-0 sealed entries** are snapshotted (non-destructively) to
//!   `mem-<level>.bin` in the log's record format.
//! - **The frontier spool** is snapshotted to `frontier-<level>.bin`
//!   without being consumed; each record is `trace ‖ key`.
//! - **The path log** (`trace.bin`) is append-only like the tier-1 log;
//!   it is synced here and referenced by its committed byte length.
//!   So is the component interner's table (`intern.bin`).
//! - **The report and counters** go into the manifest itself.
//!
//! The manifest (`checkpoint.bin`) is written to a temp file, synced,
//! and atomically renamed over the previous manifest — a SIGKILL at any
//! instant leaves either the old or the new checkpoint fully valid,
//! never a torn one. Side files are written and synced *before* the
//! rename and garbage-collected only *after* it, so whatever manifest
//! survives only ever references complete files; a spill appended to
//! the log after the rename lies past the committed length, which
//! resume truncates.
//!
//! **Not stored**: coverage maps (`--coverage` is rejected when
//! checkpointing), collected visible-event trace sets (the frontier
//! engines never produce them), and anything derivable (`visited_bytes`
//! etc. are recomputed from the store at the end of the run). The
//! manifest embeds the program's content hash and a digest of the
//! semantics-relevant configuration; `jobs` and `mem_limit` are
//! deliberately excluded from the digest — both are
//! determinism-invariant, so a run checkpointed at `--jobs 8` may be
//! resumed at `--jobs 1` with a tiny memory budget and still produce
//! the byte-identical report.

use super::spool::{FrontierSpool, Spoolable};
use super::trace::TraceLog;
use super::TieredStore;
use crate::interp::{INVISIBLE_STEP_BOUND, MAX_PROCS, MAX_STACK_DEPTH};
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::encode::{
    check_header, put_header, put_record, put_u64, read_record, ByteReader, CHECKPOINT_MAGIC,
    SEGMENT_MAGIC, SPOOL_MAGIC,
};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// The manifest file name inside a checkpoint directory.
pub const MANIFEST: &str = "checkpoint.bin";

/// Digest of the configuration knobs that shape the explored state
/// space. The destructuring is exhaustive, so a new [`Config`] field does
/// not compile until it is hashed or named here as report-invariant:
/// `jobs`, `mem_limit` and the checkpoint knobs themselves are
/// determinism-invariant by construction, so resuming under different
/// values is sound; only the frontier engine checkpoints, and only the
/// stateless engine reads `sleep_sets`. `no_compress` is *included* even
/// though it is report-invariant too — it changes the on-disk record
/// format (ID tuples vs raw encodings), so a checkpoint must not be
/// resumed across compression modes.
///
/// [`Config`]: crate::search::Config
pub(crate) fn config_digest(cfg: &crate::search::Config) -> u64 {
    let crate::search::Config {
        env_mode,
        max_depth,
        max_transitions,
        por,
        max_violations,
        collect_traces,
        track_coverage,
        no_compress,
        engine: _,
        sleep_sets: _,
        jobs: _,
        mem_limit: _,
        checkpoint_dir: _,
        checkpoint_every: _,
        resume: _,
        abort_after_checkpoints: _,
    } = cfg;
    // The interpreter bounds and a strict-termination flag were once
    // `Config` fields hashed in the second and seventh slots. The slots
    // keep their old rendering of the values every run now has, so a
    // checkpoint written before they became constants still resumes.
    let s = format!(
        "{env_mode:?}|ExecLimits {{ invisible_step_bound: {INVISIBLE_STEP_BOUND}, \
         max_stack_depth: {MAX_STACK_DEPTH}, max_procs: {MAX_PROCS} }}|{max_depth}|\
         {max_transitions}|{por}|{max_violations}|false|{collect_traces}|{track_coverage}|\
         {no_compress}"
    );
    crate::hash::stable_hash_bytes(s.as_bytes())
}

pub(crate) fn put_decision(out: &mut Vec<u8>, d: &Decision) {
    put_u64(out, d.process as u64);
    put_u64(out, d.choices.len() as u64);
    for c in &d.choices {
        put_u64(out, *c as u64);
    }
}

pub(crate) fn read_decision(r: &mut ByteReader<'_>) -> Option<Decision> {
    let process = usize::try_from(r.u64()?).ok()?;
    let n = usize::try_from(r.u64()?).ok()?;
    let mut choices = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        choices.push(u32::try_from(r.u64()?).ok()?);
    }
    Some(Decision { process, choices })
}

fn rt_error_tag(e: &crate::interp::RtError) -> u64 {
    use crate::interp::RtError::*;
    match e {
        DivByZero => 0,
        DerefNonPointer => 1,
        DanglingPointer => 2,
        ArithOnAddr => 3,
        BranchOnOpaque => 4,
        BadTossBound => 5,
        EnvReadInClosedMode => 6,
        DomainTooLarge => 7,
        StackOverflow => 8,
        AssertOnNonInt => 9,
        TooManyProcesses => 10,
    }
}

fn rt_error_from_tag(t: u64) -> Option<crate::interp::RtError> {
    use crate::interp::RtError::*;
    Some(match t {
        0 => DivByZero,
        1 => DerefNonPointer,
        2 => DanglingPointer,
        3 => ArithOnAddr,
        4 => BranchOnOpaque,
        5 => BadTossBound,
        6 => EnvReadInClosedMode,
        7 => DomainTooLarge,
        8 => StackOverflow,
        9 => AssertOnNonInt,
        10 => TooManyProcesses,
        _ => return None,
    })
}

fn put_violation(out: &mut Vec<u8>, v: &Violation) {
    match &v.kind {
        ViolationKind::Deadlock => put_u64(out, 0),
        ViolationKind::AssertionViolation => put_u64(out, 1),
        ViolationKind::Divergence => put_u64(out, 2),
        ViolationKind::RuntimeError(e) => {
            put_u64(out, 3);
            put_u64(out, rt_error_tag(e));
        }
    }
    match v.process {
        None => put_u64(out, 0),
        Some(p) => {
            put_u64(out, 1);
            put_u64(out, p as u64);
        }
    }
    put_u64(out, v.trace.len() as u64);
    for d in &v.trace {
        put_decision(out, d);
    }
}

fn read_violation(r: &mut ByteReader<'_>) -> Option<Violation> {
    let kind = match r.u64()? {
        0 => ViolationKind::Deadlock,
        1 => ViolationKind::AssertionViolation,
        2 => ViolationKind::Divergence,
        3 => ViolationKind::RuntimeError(rt_error_from_tag(r.u64()?)?),
        _ => return None,
    };
    let process = match r.u64()? {
        0 => None,
        1 => Some(usize::try_from(r.u64()?).ok()?),
        _ => return None,
    };
    let n = usize::try_from(r.u64()?).ok()?;
    let mut trace = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        trace.push(read_decision(r)?);
    }
    Some(Violation {
        kind,
        process,
        trace,
    })
}

fn put_report(out: &mut Vec<u8>, rep: &Report) {
    debug_assert!(rep.traces.is_empty(), "frontier engines collect no traces");
    debug_assert!(rep.coverage.is_none(), "coverage is never checkpointed");
    put_u64(out, rep.states as u64);
    put_u64(out, rep.transitions as u64);
    put_u64(out, rep.max_depth_seen as u64);
    put_u64(out, rep.truncated as u64);
    put_u64(out, rep.shared_components as u64);
    put_u64(out, rep.total_components as u64);
    put_u64(out, rep.tosses_taken as u64);
    put_u64(out, rep.por_skipped_procs as u64);
    put_u64(out, rep.por_proviso_fallbacks as u64);
    put_u64(out, rep.violations.len() as u64);
    for v in &rep.violations {
        put_violation(out, v);
    }
}

fn read_report(r: &mut ByteReader<'_>) -> Option<Report> {
    let mut rep = Report {
        states: usize::try_from(r.u64()?).ok()?,
        transitions: usize::try_from(r.u64()?).ok()?,
        max_depth_seen: usize::try_from(r.u64()?).ok()?,
        ..Report::default()
    };
    rep.truncated = r.u64()? != 0;
    rep.shared_components = usize::try_from(r.u64()?).ok()?;
    rep.total_components = usize::try_from(r.u64()?).ok()?;
    rep.tosses_taken = usize::try_from(r.u64()?).ok()?;
    rep.por_skipped_procs = usize::try_from(r.u64()?).ok()?;
    rep.por_proviso_fallbacks = usize::try_from(r.u64()?).ok()?;
    let n = usize::try_from(r.u64()?).ok()?;
    for _ in 0..n {
        rep.violations.push(read_violation(r)?);
    }
    Some(rep)
}

fn write_sync(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// The interner table file name inside a checkpoint directory.
pub(crate) const INTERN_FILE: &str = "intern.bin";

/// Write one checkpoint for the level boundary `level`. See the module
/// docs for the crash-safety argument.
pub(crate) fn write<T: Spoolable>(
    dir: &Path,
    level: usize,
    report: &Report,
    checkpoints_written: usize,
    (program_hash, config_digest): (u64, u64),
    (store, interner): (&TieredStore, Option<&crate::state::ComponentInterner>),
    (frontier, trace): (&mut FrontierSpool<T>, &mut TraceLog),
) -> io::Result<()> {
    // 1. Tier-0 sealed entries, in the log's record format.
    let mem = store.sealed_mem_snapshot();
    let mut buf = Vec::new();
    put_header(&mut buf, SEGMENT_MAGIC);
    for (fp, epoch, enc) in &mem {
        put_record(&mut buf, *fp, *epoch, enc);
    }
    write_sync(&dir.join(format!("mem-{level}.bin")), &buf)?;

    // 2. The remaining frontier, without consuming it.
    buf.clear();
    put_header(&mut buf, SPOOL_MAGIC);
    let mut fsnap = Vec::new();
    let fcount = frontier.snapshot(&mut fsnap)?;
    buf.extend_from_slice(&fsnap);
    write_sync(&dir.join(format!("frontier-{level}.bin")), &buf)?;

    // 2b. The component interner table the compressed records refer
    // into — appended incrementally and synced before the manifest
    // records its committed length, so resume reconstructs exactly the
    // per-run ID assignment the stored tuples were built under.
    let (ientries, ibytes) = match interner {
        Some(i) => i.persist(&dir.join(INTERN_FILE))?,
        None => (0, 0),
    };

    // 2c. The path log the frontier's records point into, synced for the
    // same reason.
    let trace_bytes = trace.persist()?;

    // 3. The manifest, atomically renamed into place. The log was
    // synced by every spill, so its current extent is durable.
    let (log_bytes, log_entries) = store.log_extent();
    buf.clear();
    put_header(&mut buf, CHECKPOINT_MAGIC);
    put_u64(&mut buf, program_hash);
    put_u64(&mut buf, config_digest);
    put_u64(&mut buf, level as u64);
    put_u64(&mut buf, checkpoints_written as u64);
    put_report(&mut buf, report);
    put_u64(&mut buf, log_bytes);
    put_u64(&mut buf, log_entries);
    put_u64(&mut buf, mem.len() as u64);
    put_u64(&mut buf, fcount as u64);
    put_u64(&mut buf, ientries);
    put_u64(&mut buf, ibytes);
    put_u64(&mut buf, trace_bytes);
    let tmp = dir.join("checkpoint.tmp");
    write_sync(&tmp, &buf)?;
    std::fs::rename(&tmp, dir.join(MANIFEST))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // persist the rename itself
    }

    // 4. GC side files of older checkpoints (safe: the manifest no
    // longer references them).
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy();
            for prefix in ["mem-", "frontier-"] {
                if let Some(rest) = name.strip_prefix(prefix) {
                    if rest != format!("{level}.bin") && rest.ends_with(".bin") {
                        let _ = std::fs::remove_file(e.path());
                    }
                }
            }
        }
    }
    Ok(())
}

/// Everything [`resume`] reconstructs besides the store contents.
pub(crate) struct Resumed<T> {
    pub level: usize,
    pub checkpoints_written: usize,
    pub report: Report,
    /// The frontier at the checkpointed level boundary, in commit order,
    /// to re-push into a fresh spool.
    pub frontier: Vec<T>,
    /// The path log, reopened at its committed length.
    pub trace: TraceLog,
}

fn read_file(path: &Path) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(buf)
}

/// Validate a checkpoint directory against the program and
/// configuration about to resume it. Cheap (reads only the manifest
/// prologue); the CLI calls this before starting the engine so
/// mismatches surface as clean errors.
pub fn validate(dir: &Path, program_hash: u64, digest: u64) -> Result<(), String> {
    let buf = read_file(&dir.join(MANIFEST))?;
    let mut r = ByteReader::new(&buf);
    if !check_header(&mut r, CHECKPOINT_MAGIC) {
        return Err(format!(
            "{}: not a checkpoint manifest (or written by an \
             incompatible store format version)",
            dir.display()
        ));
    }
    let (ph, cd) = (r.u64(), r.u64());
    if ph != Some(program_hash) {
        return Err(format!(
            "{}: checkpoint was written for a different program \
             (content hash mismatch)",
            dir.display()
        ));
    }
    if cd != Some(digest) {
        return Err(format!(
            "{}: checkpoint was written under a different exploration \
             configuration (depth/transition caps, POR, or mode differ)",
            dir.display()
        ));
    }
    Ok(())
}

/// Load a checkpoint: rebuild the store's tiers (and the component
/// interner, when compression is on) and return the level, report, and
/// frontier to continue from. `interner` must be the one the engine
/// goes on to run with: the frontier comes back as the ID tuples that
/// were written, and only the reloaded table gives them their meaning.
pub(crate) fn resume<T: Spoolable>(
    dir: &Path,
    program_hash: u64,
    digest: u64,
    store: &TieredStore,
    interner: Option<&crate::state::ComponentInterner>,
) -> Result<Resumed<T>, String> {
    validate(dir, program_hash, digest)?;
    let buf = read_file(&dir.join(MANIFEST))?;
    let mut r = ByteReader::new(&buf);
    let bad = || format!("{}: torn checkpoint manifest", dir.display());
    if !check_header(&mut r, CHECKPOINT_MAGIC) {
        return Err(bad());
    }
    let _hashes = (r.u64().ok_or_else(bad)?, r.u64().ok_or_else(bad)?);
    let level = r.u64().ok_or_else(bad)? as usize;
    let checkpoints_written = r.u64().ok_or_else(bad)? as usize;
    let report = read_report(&mut r).ok_or_else(bad)?;
    let log_bytes = r.u64().ok_or_else(bad)?;
    let log_entries = r.u64().ok_or_else(bad)?;
    let mem_count = r.u64().ok_or_else(bad)? as usize;
    let fcount = r.u64().ok_or_else(bad)? as usize;
    let ientries = r.u64().ok_or_else(bad)?;
    let ibytes = r.u64().ok_or_else(bad)?;
    let trace_bytes = r.u64().ok_or_else(bad)?;
    if r.remaining() != 0 {
        return Err(bad());
    }

    // The interner table first: the stored records are ID tuples into
    // it, and re-interning it in record order reproduces the exact
    // per-run assignment they were written under.
    match interner {
        Some(i) => i
            .load(&dir.join(INTERN_FILE), ientries, ibytes)
            .map_err(|e| format!("{}: {e}", dir.join(INTERN_FILE).display()))?,
        None => {
            // The config digest already pins the compression mode; a
            // nonzero table here means a hand-edited manifest.
            if ientries != 0 {
                return Err(format!(
                    "{}: manifest references an interner table but \
                     compression is off",
                    dir.display()
                ));
            }
        }
    }

    // The tier-1 log: truncate past the committed length, scan, index.
    let log_path = dir.join(super::disk::LOG_FILE);
    let n = store
        .load_log(log_bytes)
        .map_err(|e| format!("{}: {e}", log_path.display()))?;
    if n as u64 != log_entries {
        return Err(format!(
            "{}: holds {n} records, manifest says {log_entries}",
            log_path.display()
        ));
    }

    // Tier-0 sealed entries.
    let mem_path = dir.join(format!("mem-{level}.bin"));
    let mbuf = read_file(&mem_path)?;
    let mut mr = ByteReader::new(&mbuf);
    if !check_header(&mut mr, SEGMENT_MAGIC) {
        return Err(format!("{}: bad header", mem_path.display()));
    }
    let mut loaded = 0usize;
    while mr.remaining() > 0 {
        let (fp, epoch, _, enc) =
            read_record(&mut mr).ok_or_else(|| format!("{}: torn record", mem_path.display()))?;
        store.insert(fp, enc, epoch);
        loaded += 1;
    }
    if loaded != mem_count {
        return Err(format!(
            "{}: holds {loaded} records, manifest says {mem_count}",
            mem_path.display()
        ));
    }

    // The frontier.
    let f_path = dir.join(format!("frontier-{level}.bin"));
    let fbuf = read_file(&f_path)?;
    let mut fr = ByteReader::new(&fbuf);
    if !check_header(&mut fr, SPOOL_MAGIC) {
        return Err(format!("{}: bad header", f_path.display()));
    }
    let rest = &fbuf[fr.pos()..];
    let frontier = FrontierSpool::<T>::decode_snapshot(rest, fcount)
        .ok_or_else(|| format!("{}: torn frontier snapshot", f_path.display()))?;

    // The path log: truncate past the committed length, append from there.
    let trace = TraceLog::reopen(dir, trace_bytes)
        .map_err(|e| format!("{}: {e}", dir.join(super::trace::TRACE_FILE).display()))?;

    Ok(Resumed {
        level,
        checkpoints_written,
        report,
        frontier,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{EnvMode, RtError};
    use crate::search::{Config, Engine};

    /// The digest is stored in every checkpoint manifest: its bytes must
    /// not move, and the report-invariant knobs must not reach it.
    #[test]
    fn config_digest_is_pinned() {
        assert_eq!(config_digest(&Config::default()), 0x4a39e913fbf7f257);
        let invariant = Config {
            engine: Engine::Stateful,
            sleep_sets: false,
            jobs: 8,
            mem_limit: 1 << 10,
            checkpoint_dir: Some("x".into()),
            checkpoint_every: 3,
            resume: true,
            abort_after_checkpoints: Some(1),
            ..Config::default()
        };
        assert_eq!(config_digest(&invariant), 0x4a39e913fbf7f257);
        let semantic = Config {
            env_mode: EnvMode::Enumerate,
            max_depth: 300,
            max_transitions: 123_456,
            por: false,
            max_violations: usize::MAX,
            collect_traces: true,
            track_coverage: true,
            no_compress: true,
            ..invariant
        };
        assert_eq!(config_digest(&semantic), 0xf11632e574195b46);
    }

    #[test]
    fn report_serialization_roundtrips() {
        let rep = Report {
            states: 41,
            transitions: 97,
            max_depth_seen: 12,
            truncated: true,
            shared_components: 5,
            total_components: 9,
            tosses_taken: 7,
            por_skipped_procs: 3,
            por_proviso_fallbacks: 1,
            violations: vec![
                Violation {
                    kind: ViolationKind::Deadlock,
                    process: None,
                    trace: vec![Decision {
                        process: 0,
                        choices: vec![],
                    }],
                },
                Violation {
                    kind: ViolationKind::RuntimeError(RtError::StackOverflow),
                    process: Some(2),
                    trace: vec![Decision {
                        process: 1,
                        choices: vec![3, 0],
                    }],
                },
            ],
            ..Report::default()
        };
        let mut buf = Vec::new();
        put_report(&mut buf, &rep);
        let mut r = ByteReader::new(&buf);
        let back = read_report(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.violations, rep.violations);
        assert_eq!(
            (
                back.states,
                back.transitions,
                back.max_depth_seen,
                back.truncated
            ),
            (
                rep.states,
                rep.transitions,
                rep.max_depth_seen,
                rep.truncated
            )
        );
        assert_eq!(
            (back.por_skipped_procs, back.por_proviso_fallbacks),
            (rep.por_skipped_procs, rep.por_proviso_fallbacks)
        );
        assert_eq!(back.tosses_taken, rep.tosses_taken);
        // Every RtError variant has a stable tag.
        for tag in 0..11 {
            let e = rt_error_from_tag(tag).unwrap();
            assert_eq!(rt_error_tag(&e), tag);
        }
        assert!(rt_error_from_tag(11).is_none());
    }

    #[test]
    fn validate_rejects_mismatches() {
        let dir = super::super::SpillDir::temp().unwrap();
        assert!(validate(dir.path(), 1, 2).is_err(), "no manifest");
        let mut buf = Vec::new();
        put_header(&mut buf, CHECKPOINT_MAGIC);
        put_u64(&mut buf, 11); // program hash
        put_u64(&mut buf, 22); // config digest
        std::fs::write(dir.path().join(MANIFEST), &buf).unwrap();
        assert!(validate(dir.path(), 11, 22).is_ok());
        let e = validate(dir.path(), 99, 22).unwrap_err();
        assert!(e.contains("different program"), "{e}");
        let e = validate(dir.path(), 11, 99).unwrap_err();
        assert!(e.contains("different exploration configuration"), "{e}");
        std::fs::write(dir.path().join(MANIFEST), b"RXXX....").unwrap();
        let e = validate(dir.path(), 11, 22).unwrap_err();
        assert!(e.contains("not a checkpoint manifest"), "{e}");
        // A manifest of the v3 layout (a segment list, not one log) is
        // refused by its header before anything else is read.
        buf.clear();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u64(&mut buf, 3);
        put_u64(&mut buf, 11);
        put_u64(&mut buf, 22);
        std::fs::write(dir.path().join(MANIFEST), &buf).unwrap();
        let e = validate(dir.path(), 11, 22).unwrap_err();
        assert!(e.contains("incompatible store format version"), "{e}");
    }
}
