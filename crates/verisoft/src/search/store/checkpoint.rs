//! Level-boundary checkpoints and the resume path.
//!
//! The frontier search's entire loop state at a level boundary is
//! `(sealed visited set with epochs, next frontier in commit order, the
//! paths its entries point into, report-so-far, level number)` — nothing
//! else survives a round. A checkpoint therefore persists exactly those
//! five things:
//!
//! - **The tier-1 log** (`tier1.bin`), by its committed byte length and
//!   record count.
//! - **Tier-0 sealed entries**, snapshotted (non-destructively) to
//!   `mem-<level>.bin` in the log's record format.
//! - **The frontier spool**, snapshotted to `frontier-<level>.bin`
//!   without being consumed; each record is `trace ‖ key`.
//! - **The path log** (`trace.bin`) and the component interner's table
//!   (`intern.bin`, `InternTable`), by their committed lengths.
//! - **The report and counters**, in the manifest itself.
//!
//! Every file goes through the store's file layer (`store::log`), whose
//! durability rule is half the crash-safety argument. The manifest
//! (`checkpoint.bin`) is the other half: written to a temp file, synced,
//! and atomically renamed over the previous one, after every file it
//! names is synced and before older side files are garbage-collected —
//! so a SIGKILL at any instant leaves either the old or the new
//! checkpoint fully valid.
//!
//! `resume` is the only reader of a checkpoint, and reads each file
//! once: the manifest, then every file it names, each checked while it
//! loads (header, committed length, whole records, the manifest's
//! record count, no component interned twice). A missing, short, foreign
//! or torn file is an `io::Error` naming it, which the CLI prints as
//! `error: <path>: …`. A bit flip that keeps a record's framing is not
//! caught (ROADMAP item 20).
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

use super::disk;
use super::log::{self, Log};
use super::spool::{FrontierSpool, Spoolable};
use super::trace::TraceLog;
use super::Store;
use crate::interp::{INVISIBLE_STEP_BOUND, MAX_PROCS, MAX_STACK_DEPTH};
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::encode::{
    put_record, put_u64, ByteReader, CHECKPOINT_MAGIC, INTERN_MAGIC, SEGMENT_MAGIC, SPOOL_MAGIC,
};
use crate::state::ComponentInterner;
use std::fs::File;
use std::io::{self, Write};
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

/// The interner table file name inside a checkpoint directory.
pub(crate) const INTERN_FILE: &str = "intern.bin";

fn mem_file(level: usize) -> String {
    format!("mem-{level}.bin")
}

fn frontier_file(level: usize) -> String {
    format!("frontier-{level}.bin")
}

/// The component interner's table as `intern.bin`: one `[len][bytes]`
/// record per component, appended in ID order, so re-interning the
/// records in order reproduces the run's exact ID assignment — the one
/// the stored tuples were built under.
pub(crate) struct InternTable {
    log: Log,
    /// Components on file: appends continue from this ID.
    entries: u64,
}

impl InternTable {
    /// Append the components `interner` assigned since the last
    /// checkpoint to `table` (created at the first), sync it, and return
    /// its `(bytes, entries)` for the manifest.
    fn sync(
        table: &mut Option<InternTable>,
        dir: &Path,
        interner: &ComponentInterner,
    ) -> io::Result<(u64, u64)> {
        if table.is_none() {
            let log = Log::create(dir.join(INTERN_FILE), INTERN_MAGIC)?;
            *table = Some(InternTable { log, entries: 0 });
        }
        let t = table.as_mut().expect("created above");
        let mut buf = Vec::new();
        for id in t.entries..interner.len() as u64 {
            let enc = interner.get(id as u32).expect("IDs are dense");
            put_u64(&mut buf, enc.len() as u64);
            buf.extend_from_slice(&enc);
        }
        t.log.write_all(&buf)?;
        t.entries = interner.len() as u64;
        Ok((t.log.sync()?, t.entries))
    }

    /// Reopen the table a manifest committed at `(bytes, entries)` and
    /// re-intern its records into the fresh `interner`.
    fn load(
        dir: &Path,
        interner: &ComponentInterner,
        (bytes, entries): (u64, u64),
    ) -> io::Result<InternTable> {
        let mut log = Log::reopen(dir.join(INTERN_FILE), INTERN_MAGIC, bytes)?;
        let buf = log.read_all()?;
        let mut r = log::body(&buf);
        let torn = || log::invalid(log.path(), "torn interner record");
        for id in 0..entries {
            let len = r.u64().and_then(|len| usize::try_from(len).ok());
            let enc = len.and_then(|len| r.take(len)).ok_or_else(torn)?;
            if u64::from(interner.intern(enc)) != id {
                let msg = format!("record {id} is a repeated component");
                return Err(log::invalid(log.path(), msg));
            }
        }
        if r.remaining() != 0 {
            return Err(torn());
        }
        Ok(InternTable { log, entries })
    }
}

/// Write one checkpoint for the level boundary `level`. See the module
/// docs for the crash-safety argument.
pub(crate) fn write<T: Spoolable>(
    dir: &Path,
    level: usize,
    report: &Report,
    checkpoints_written: usize,
    (program_hash, config_digest): (u64, u64),
    (store, interner, table): (
        &mut Store,
        Option<&ComponentInterner>,
        &mut Option<InternTable>,
    ),
    (frontier, trace): (&mut FrontierSpool<T>, &mut TraceLog),
) -> io::Result<()> {
    // 1. Tier-0 sealed entries, in the log's record format.
    let mem = store.sealed_mem_snapshot();
    let mut buf = Vec::new();
    for (fp, epoch, enc) in &mem {
        put_record(&mut buf, *fp, *epoch, enc);
    }
    log::write(dir.join(mem_file(level)), SEGMENT_MAGIC, &buf)?;

    // 2. The remaining frontier, without consuming it.
    let mut snap = Log::create(dir.join(frontier_file(level)), SPOOL_MAGIC)?;
    let fcount = frontier.snapshot(&mut snap)?;
    snap.sync()?;

    // 3. The logs, synced at the lengths the manifest commits: the
    // interner table the compressed records refer into, the path log
    // the frontier's records point into, and tier 1.
    let (ibytes, ientries) = match interner {
        Some(i) => InternTable::sync(table, dir, i)?,
        None => (0, 0),
    };
    let trace_bytes = trace.sync()?;
    let (log_bytes, log_entries) = store.sync_log()?;

    // 4. The manifest, atomically renamed into place.
    buf.clear();
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
    log::write(tmp.clone(), CHECKPOINT_MAGIC, &buf)?;
    std::fs::rename(&tmp, dir.join(MANIFEST))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // persist the rename itself
    }

    // 5. GC side files of older checkpoints (safe: the manifest no
    // longer references them).
    let keep = [mem_file(level), frontier_file(level)];
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let side = name.starts_with("mem-") || name.starts_with("frontier-");
        if side && name.ends_with(".bin") && !keep.contains(&name) {
            let _ = std::fs::remove_file(e.path());
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
    /// The interner table, reopened at its committed length (`None`
    /// without compression).
    pub table: Option<InternTable>,
}

/// What a manifest records besides the run's identity.
pub(crate) struct Manifest {
    level: usize,
    checkpoints_written: usize,
    report: Report,
    /// The tier-1 log's committed `(bytes, entries)`.
    log: (u64, u64),
    mem_count: u64,
    frontier_count: usize,
    /// The interner table's committed `(bytes, entries)`.
    intern: (u64, u64),
    trace_bytes: u64,
}

/// Read the manifest of the checkpoint in `dir`, refusing it unless it
/// was written for this program and configuration: the head of
/// [`resume`]'s one pass.
fn read_manifest(dir: &Path, program_hash: u64, digest: u64) -> io::Result<Manifest> {
    let buf = log::read(&dir.join(MANIFEST), CHECKPOINT_MAGIC, None)?;
    let mut r = log::body(&buf);
    if r.u64() != Some(program_hash) {
        let msg = "checkpoint was written for a different program (content hash mismatch)";
        return Err(log::invalid(dir, msg));
    }
    if r.u64() != Some(digest) {
        let msg = "checkpoint was written under a different exploration configuration \
                   (depth/transition caps, POR, or mode differ)";
        return Err(log::invalid(dir, msg));
    }
    let bad = || log::invalid(dir, "torn checkpoint manifest");
    let mut next = || r.u64().ok_or_else(bad);
    let (level, checkpoints_written) = (next()? as usize, next()? as usize);
    let report = read_report(&mut r).ok_or_else(bad)?;
    let mut next = || r.u64().ok_or_else(bad);
    let m = Manifest {
        level,
        checkpoints_written,
        report,
        log: (next()?, next()?),
        mem_count: next()?,
        frontier_count: next()? as usize,
        intern: {
            let entries = next()?;
            (next()?, entries)
        },
        trace_bytes: next()?,
    };
    if r.remaining() != 0 {
        return Err(bad());
    }
    Ok(m)
}

/// Load a checkpoint in one pass, the only reader of its files: the
/// manifest, checked against `program_hash` and `digest`, then each
/// file it names read once and checked while it loads — its header, its
/// committed length, whole records, and the record count the manifest
/// commits; an interner table may name no component twice. The path
/// log is reopened, not read. A refusal is an error naming the file,
/// and truncates no log below its committed length. Rebuilds the
/// store's tiers (and the component interner, when compression is on)
/// and returns the level, report, and frontier to continue from.
/// `interner` must be the one the engine goes on to run with: the
/// frontier comes back as the ID tuples that were written, and only the
/// reloaded table gives them their meaning.
pub(crate) fn resume<T: Spoolable>(
    dir: &Path,
    program_hash: u64,
    digest: u64,
    store: &mut Store,
    interner: Option<&ComponentInterner>,
) -> io::Result<Resumed<T>> {
    let m = read_manifest(dir, program_hash, digest)?;

    // The interner table first: the stored records are ID tuples into
    // it.
    let table = match interner {
        Some(i) => Some(InternTable::load(dir, i, m.intern)?),
        // The config digest already pins the compression mode; a
        // nonzero table here means a hand-edited manifest.
        None if m.intern.1 != 0 => {
            let msg = "manifest references an interner table but compression is off";
            return Err(log::invalid(dir, msg));
        }
        None => None,
    };

    // The tier-1 log: truncate past the committed length, scan, index.
    store.load_log(m.log)?;

    // Tier-0 sealed entries.
    let path = dir.join(mem_file(m.level));
    let buf = log::read(&path, SEGMENT_MAGIC, None)?;
    disk::records(&path, log::body(&buf), m.mem_count, |fp, epoch, _, enc| {
        store.insert(fp, enc, epoch);
    })?;

    // The frontier.
    let path = dir.join(frontier_file(m.level));
    let buf = log::read(&path, SPOOL_MAGIC, None)?;
    let frontier = FrontierSpool::<T>::decode_snapshot(log::body(&buf), m.frontier_count)
        .ok_or_else(|| log::invalid(&path, "torn frontier snapshot"))?;

    // The path log: truncate past the committed length, append from there.
    let trace = TraceLog::reopen(dir, m.trace_bytes)?;

    Ok(Resumed {
        level: m.level,
        checkpoints_written: m.checkpoints_written,
        report: m.report,
        frontier,
        trace,
        table,
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
    fn read_manifest_rejects_mismatches() {
        let dir = super::super::SpillDir::temp().unwrap();
        let manifest = dir.path().join(MANIFEST);
        let refused = |hash, digest| {
            let e = read_manifest(dir.path(), hash, digest).err().unwrap();
            e.to_string()
        };
        assert!(refused(1, 2).contains("No such file"), "no manifest");
        let mut buf = Vec::new();
        put_u64(&mut buf, 11); // program hash
        put_u64(&mut buf, 22); // config digest
        log::write(manifest.clone(), CHECKPOINT_MAGIC, &buf).unwrap();
        let e = refused(99, 22);
        assert!(e.contains("different program"), "{e}");
        let e = refused(11, 99);
        assert!(e.contains("different exploration configuration"), "{e}");
        // The identity alone is no checkpoint.
        let e = refused(11, 22);
        assert!(e.contains("torn checkpoint manifest"), "{e}");
        std::fs::write(&manifest, b"RXXX....").unwrap();
        let e = refused(11, 22);
        assert!(e.contains("not a checkpoint manifest"), "{e}");
        // A manifest of the v3 layout (a segment list, not one log) is
        // refused by its header before anything else is read.
        buf.clear();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u64(&mut buf, 3);
        put_u64(&mut buf, 11);
        put_u64(&mut buf, 22);
        std::fs::write(&manifest, &buf).unwrap();
        let e = refused(11, 22);
        assert!(e.contains("incompatible store format version"), "{e}");
    }

    #[test]
    fn intern_table_appends_per_checkpoint_and_reloads_the_assignment() {
        let dir = super::super::SpillDir::temp().unwrap();
        let i = ComponentInterner::new();
        let encs: Vec<Vec<u8>> = (0..5u8).map(|n| vec![n; n as usize + 1]).collect();
        for e in &encs[..3] {
            i.intern(e);
        }
        let mut table = None;
        let (b1, n1) = InternTable::sync(&mut table, dir.path(), &i).unwrap();
        assert_eq!(n1, 3);
        for e in &encs[3..] {
            i.intern(e);
        }
        // An incremental append, then a sync with nothing new.
        let (b2, n2) = InternTable::sync(&mut table, dir.path(), &i).unwrap();
        assert_eq!((n2, b2 > b1), (5, true));
        assert_eq!(
            InternTable::sync(&mut table, dir.path(), &i).unwrap(),
            (b2, 5)
        );
        drop(table);
        let j = ComponentInterner::new();
        InternTable::load(dir.path(), &j, (b2, n2)).unwrap();
        assert_eq!(j.len(), 5);
        for (want, e) in encs.iter().enumerate() {
            assert_eq!(j.intern(e) as usize, want, "assignment reproduced");
        }
        // A committed count past the records is a torn table.
        let e = InternTable::load(dir.path(), &ComponentInterner::new(), (b2, 6));
        assert!(e
            .err()
            .unwrap()
            .to_string()
            .contains("torn interner record"));
    }
}
