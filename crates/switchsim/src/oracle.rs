//! The differential oracle: every engine configuration the repository
//! cross-checks, declared once as a table of **legs**, and one driver
//! that runs a program through a slice of it.
//!
//! A leg's name is its configuration: an engine (`frontier`, `dfs`,
//! `stateless`) followed by the knobs that differ from the engines'
//! defaults — `-por` (no reduction), `jN` (N workers), `spill` (a
//! 256-byte budget: the frontier spills and spools, and a first-violation
//! stop cut falls inside a multi-chunk level), `nc` (`--no-compress`),
//! `traces` (trace collection), `cut` (a 300-transition cap) — and, as a
//! prefix, `refined` (explore the program `closer::refine_cex` refined
//! instead of the closed one).
//! Each leg names an earlier leg and the relation its report must hold
//! to that leg's ([`Against`]); each says which input sets run it
//! ([`FUZZ`], [`VERDICTS`], [`UNREDUCED`], [`JOBS`], [`BATCH`], [`MEMO`],
//! [`STATELESS`], [`COMPRESSION`], [`WALKS`], [`REFINE`]; [`POR`] is
//! three of them).
//!
//! [`cross_check`] explores each leg of a slice at most once per
//! program, in table order, and checks every relation whose two legs
//! are both in the slice, plus the postconditions a leg's knobs imply
//! (compression on or off, batches issued). docs/FUZZING.md prints the
//! table and maps each differential loop this replaced to its rows.

use cfgir::CfgProgram;
use std::collections::BTreeSet;
use std::path::Path;
use verisoft::{explore, Config, Engine, Report};

/// How a leg's report must relate to the report of the leg it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Against {
    /// Checked only through the legs that name it.
    Nothing,
    /// The deterministic surface, byte for byte: the `Display` text,
    /// the logical store totals, the toss, sharing and POR counters,
    /// the coverage map and the trace set — plus the batch counters
    /// when both legs chunk the frontier alike. (A budget chunks a level
    /// by stored bytes, so under one the compression mode changes the
    /// chunking; then a run that stops at its violation cap may also
    /// have committed other states.)
    Same(&'static str),
    /// The same distinct `(kind, process)` verdicts, hence the same
    /// clean judgment, and neither run truncated.
    Verdicts(&'static str),
    /// The same set of violation kinds: what refinement preserves.
    Kinds(&'static str),
}

impl Against {
    fn reference(self) -> Option<&'static str> {
        match self {
            Against::Nothing => None,
            Against::Same(r) | Against::Verdicts(r) | Against::Kinds(r) => Some(r),
        }
    }
}

/// The fuzz matrix: generated programs and `corpus/regressions/`.
pub const FUZZ: u16 = 1;
/// POR and refinement preserve the verdicts of both stateful engines:
/// the stock corpus.
pub const VERDICTS: u16 = 1 << 1;
/// The frontier without reduction is jobs-invariant: the stock corpus
/// and the cyclic ring.
pub const UNREDUCED: u16 = 1 << 2;
/// The frontier with reduction is jobs-invariant, batch counters
/// included: the stock corpus, the switch model, the skewed tree, the
/// cyclic ring.
pub const JOBS: u16 = 1 << 3;
/// The frontier's commit across worker counts, budgets and compression
/// modes, on models whose reports are pinned.
pub const BATCH: u16 = 1 << 4;
/// Every engine without reduction beside its compression twin, the
/// frontier at each worker count and budget: sweeps of tiny transition
/// caps.
pub const MEMO: u16 = 1 << 5;
/// The stateless walk's compression twins.
pub const STATELESS: u16 = 1 << 6;
/// Both stateful engines' compression twins, under a budget and across
/// jobs: the stock corpus.
pub const COMPRESSION: u16 = 1 << 7;
/// Every stateless configuration with its compression twin, its
/// verdicts held to the frontier's: the stock corpus.
pub const WALKS: u16 = 1 << 8;
/// Each refined leg beside the closed leg it must keep the violation
/// kinds of, under every engine: the stock corpus.
pub const REFINE: u16 = 1 << 9;
/// Verdict preservation under POR and refinement, and jobs invariance
/// with and without reduction: generated closed programs and seeds, the
/// cyclic ring.
pub const POR: u16 = VERDICTS | UNREDUCED | JOBS;

use Against::{Kinds, Nothing, Same, Verdicts};

/// The table: `(leg, relation, the input sets that run it)`. A relation
/// always names an earlier leg.
#[rustfmt::skip]
pub const LEGS: &[(&str, Against, u16)] = &[
    // The frontier without reduction: the exhaustive baseline.
    ("frontier -por",                Nothing,                            FUZZ | VERDICTS | UNREDUCED | MEMO | WALKS | REFINE),
    ("frontier -por j2",             Same("frontier -por"),              FUZZ | UNREDUCED | MEMO),
    ("frontier -por j8",             Same("frontier -por j2"),           UNREDUCED | MEMO),
    ("frontier -por nc",             Same("frontier -por"),              FUZZ | MEMO),
    ("frontier -por j2 nc",          Same("frontier -por nc"),           FUZZ | MEMO),
    ("frontier -por j8 nc",          Same("frontier -por j2 nc"),        MEMO),
    ("frontier -por spill",          Same("frontier -por"),              MEMO),
    ("frontier -por j2 spill",       Same("frontier -por spill"),        MEMO),
    ("frontier -por j8 spill",       Same("frontier -por j2 spill"),     MEMO),
    ("frontier -por spill nc",       Same("frontier -por spill"),        MEMO),
    ("frontier -por j2 spill nc",    Same("frontier -por spill nc"),     MEMO),
    ("frontier -por j8 spill nc",    Same("frontier -por j2 spill nc"),  MEMO),
    ("dfs -por",                     Verdicts("frontier -por"),          FUZZ | VERDICTS | MEMO | REFINE),
    ("dfs -por nc",                  Same("dfs -por"),                   MEMO),
    ("dfs",                          Verdicts("frontier -por"),          FUZZ | VERDICTS | COMPRESSION | REFINE),
    ("dfs nc",                       Same("dfs"),                        FUZZ | COMPRESSION),
    // The frontier with reduction: one class over jobs x budget x
    // compression.
    ("frontier",                     Verdicts("frontier -por"),          FUZZ | VERDICTS | JOBS | BATCH | COMPRESSION | REFINE),
    ("frontier j2",                  Same("frontier"),                   FUZZ | JOBS | BATCH | COMPRESSION),
    ("frontier j8",                  Same("frontier j2"),                FUZZ | JOBS | BATCH | COMPRESSION),
    ("frontier spill",               Same("frontier"),                   BATCH | COMPRESSION),
    ("frontier j2 spill",            Same("frontier spill"),             BATCH | COMPRESSION),
    ("frontier j8 spill",            Same("frontier j2 spill"),          BATCH | COMPRESSION),
    ("frontier nc",                  Same("frontier"),                   BATCH | COMPRESSION),
    ("frontier j2 nc",               Same("frontier nc"),                BATCH | COMPRESSION),
    ("frontier j8 nc",               Same("frontier j2 nc"),             BATCH | COMPRESSION),
    ("frontier spill nc",            Same("frontier spill"),             BATCH | COMPRESSION),
    ("frontier j2 spill nc",         Same("frontier spill nc"),          BATCH | COMPRESSION),
    ("frontier j8 spill nc",         Same("frontier j2 spill nc"),       BATCH | COMPRESSION),
    // The stateless walk, under its own cap and gate.
    ("stateless",                    Verdicts("frontier -por"),          FUZZ | STATELESS | WALKS | REFINE),
    ("stateless nc",                 Same("stateless"),                  FUZZ | STATELESS | WALKS),
    ("stateless -por",               Verdicts("frontier -por"),          MEMO | WALKS | REFINE),
    ("stateless -por nc",            Same("stateless -por"),             MEMO | WALKS),
    ("stateless -por traces",        Verdicts("frontier -por"),          STATELESS | WALKS),
    ("stateless -por traces nc",     Same("stateless -por traces"),      STATELESS | WALKS),
    ("stateless cut",                Nothing,                            WALKS),
    ("stateless cut nc",             Same("stateless cut"),              WALKS),
    // Counterexample-guided refinement keeps the violation kinds.
    ("refined frontier -por",        Kinds("frontier -por"),             FUZZ | VERDICTS | REFINE),
    ("refined dfs -por",             Kinds("dfs -por"),                  VERDICTS | REFINE),
    ("refined dfs",                  Kinds("dfs"),                       VERDICTS | REFINE),
    ("refined frontier",             Kinds("frontier"),                  VERDICTS | REFINE),
    ("refined frontier j8",          Same("refined frontier"),           VERDICTS | REFINE),
    ("refined stateless",            Kinds("stateless"),                 REFINE),
    ("refined stateless -por",       Kinds("stateless -por"),            REFINE),
];

/// The configuration the leg `name` spells, over `limits`. Panics on a
/// word the module doc does not list.
fn config(name: &str, limits: &OracleLimits) -> Config {
    let mut c = Config {
        max_depth: limits.max_depth,
        max_transitions: limits.max_transitions,
        max_violations: limits.max_violations,
        track_coverage: limits.track_coverage,
        ..Config::default()
    };
    for word in name.split(' ') {
        match word {
            "refined" => {}
            "frontier" => c.engine = Engine::StatefulParallel,
            "dfs" => c.engine = Engine::Stateful,
            "stateless" => {
                c.engine = Engine::Stateless;
                c.max_transitions = limits.stateless_max_transitions;
            }
            "-por" => (c.por, c.sleep_sets) = (false, false),
            "spill" => c.mem_limit = 256,
            "nc" => c.no_compress = true,
            "traces" => c.collect_traces = true,
            "cut" => c.max_transitions = 300,
            _ => match word.strip_prefix('j').and_then(|n| n.parse().ok()) {
                Some(jobs) => c.jobs = jobs,
                None => panic!("leg `{name}`: unknown word `{word}`"),
            },
        }
    }
    c
}

/// Exploration bounds and settings shared by every leg of one check.
#[derive(Debug, Clone, Copy)]
pub struct OracleLimits {
    /// Depth cap for every run.
    pub max_depth: usize,
    /// Transition cap for the stateful runs.
    pub max_transitions: usize,
    /// Transition cap for the (tree-shaped) stateless runs.
    pub stateless_max_transitions: usize,
    /// Skip the stateless legs when the baseline's state count exceeds
    /// this (the tree blows up combinatorially on concurrent programs).
    pub stateless_state_cap: usize,
    /// Violations each run stops after.
    pub max_violations: usize,
    /// Record coverage maps, which `Same` then compares.
    pub track_coverage: bool,
    /// Hold legs to their `Verdicts` and `Kinds` relations, and give up
    /// on a slice whose baseline truncated. A sweep of tiny transition
    /// caps, where most runs truncate, turns this off: it checks the
    /// `Same` relations only.
    pub judge_verdicts: bool,
}

impl Default for OracleLimits {
    fn default() -> Self {
        OracleLimits {
            max_depth: 600,
            max_transitions: 400_000,
            stateless_max_transitions: 2_000_000,
            stateless_state_cap: 1200,
            max_violations: usize::MAX,
            track_coverage: false,
            judge_verdicts: true,
        }
    }
}

/// The distinct `(kind, process)` verdicts of a report.
pub fn verdicts(r: &Report) -> BTreeSet<(String, Option<usize>)> {
    r.violations
        .iter()
        .map(|v| (v.kind.to_string(), v.process))
        .collect()
}

/// The legs of one program's check that ran, with their reports.
#[derive(Debug, Default)]
pub struct Runs {
    /// In table order; the first is the slice's baseline.
    pub legs: Vec<(&'static str, Report)>,
    /// A stateless leg did not run (gated) or could not be compared
    /// (truncated under its own cap).
    pub stateless_skipped: bool,
}

impl Runs {
    /// The report of the leg `name`, if it ran.
    pub fn get(&self, name: &str) -> Option<&Report> {
        self.legs.iter().find(|l| l.0 == name).map(|l| &l.1)
    }
}

/// The outcome of one program's trip through a slice.
#[derive(Debug)]
pub enum CheckOutcome {
    /// Every relation and postcondition held.
    Agreement(Runs),
    /// The baseline truncated where the slice compares verdicts: the
    /// state space is too large to judge.
    TooBig,
}

/// Run `closed` (and `refined`, when refinement changed it) through the
/// legs of `slice`.
///
/// A leg does not run when the leg it is compared with is in the slice
/// but did not run, when it compares verdicts with a run that
/// truncated, or when it is a stateless leg over the state gate.
/// `Err(detail)` is a divergence: it names both legs and embeds both
/// reports.
pub fn cross_check(
    closed: &CfgProgram,
    refined: Option<&CfgProgram>,
    limits: &OracleLimits,
    slice: u16,
) -> Result<CheckOutcome, String> {
    let in_slice = |leg: &str| LEGS.iter().any(|l| l.0 == leg && l.2 & slice != 0);
    // A relation counts only when both of its legs are in the slice.
    let legs: Vec<(&str, Against)> = LEGS
        .iter()
        .filter(|l| in_slice(l.0))
        .map(|&(leg, rel, _)| match rel.reference() {
            Some(r) if !in_slice(r) => (leg, Nothing),
            Some(_) if !limits.judge_verdicts && !matches!(rel, Same(_)) => (leg, Nothing),
            _ => (leg, rel),
        })
        .collect();
    let judges_verdicts = legs.iter().any(|l| matches!(l.1, Verdicts(_) | Kinds(_)));
    let mut runs = Runs::default();
    for (leg, rel) in legs {
        let stateless = leg.contains("stateless");
        let prog = match (leg.starts_with("refined "), refined) {
            (false, _) => closed,
            (true, Some(p)) => p,
            (true, None) => continue,
        };
        let reference = match rel.reference() {
            Some(r) => match runs.get(r) {
                Some(report) => Some((r, report)),
                None => continue,
            },
            None => None,
        };
        let comparable =
            matches!(rel, Same(_) | Nothing) || reference.is_some_and(|(_, r)| !r.truncated);
        let gated = stateless
            && (runs.legs.first()).is_some_and(|(_, r)| r.states > limits.stateless_state_cap);
        if !comparable || gated {
            runs.stateless_skipped |= stateless;
            continue;
        }
        let c = config(leg, limits);
        let r = explore(prog, &c);
        postconditions(&c, &r).map_err(|what| format!("{leg}: {what}\n{r}"))?;
        if runs.legs.is_empty() && r.truncated && judges_verdicts {
            return Ok(CheckOutcome::TooBig);
        }
        if let Some((name, want)) = reference {
            let diverged =
                |what: &str| Err(format!("{leg}: {what} {name}\n{leg}: {r}\n{name}: {want}"));
            match rel {
                Same(_) => {
                    if let Some(what) = surface_diff((&c, &r), (&config(name, limits), want)) {
                        return diverged(&format!("{what} differs from"));
                    }
                }
                _ if r.truncated && stateless => runs.stateless_skipped = true,
                _ if r.truncated => return diverged("truncated where it completed:"),
                Verdicts(_) if verdicts(&r) != verdicts(want) => {
                    return diverged("verdict set differs from");
                }
                Kinds(_) if kinds(&r) != kinds(want) => {
                    return diverged("violation kinds differ from");
                }
                _ => {}
            }
        }
        runs.legs.push((leg, r));
    }
    Ok(CheckOutcome::Agreement(runs))
}

/// [`cross_check`] for a test: the runs, or a panic naming `tag` on a
/// divergence or a truncated baseline.
pub fn assert_agrees(
    tag: &str,
    closed: &CfgProgram,
    refined: Option<&CfgProgram>,
    limits: &OracleLimits,
    slice: u16,
) -> Runs {
    match cross_check(closed, refined, limits, slice) {
        Ok(CheckOutcome::Agreement(runs)) => runs,
        Ok(CheckOutcome::TooBig) => panic!("{tag}: the baseline truncated"),
        Err(detail) => panic!("{tag}: {detail}"),
    }
}

fn kinds(r: &Report) -> BTreeSet<String> {
    verdicts(r).into_iter().map(|(k, _)| k).collect()
}

/// The first part of the deterministic surface on which two runs
/// differ.
fn surface_diff(a: (&Config, &Report), b: (&Config, &Report)) -> Option<&'static str> {
    let ((ca, a), (cb, b)) = (a, b);
    // Under a budget the frontier chunks a level by stored bytes, so the
    // chunking follows the budget and the compression mode. It decides
    // the batch counters and, where a run stops at its violation cap,
    // which of the level's states the store committed.
    let chunks = |c: &Config| (c.mem_limit, c.mem_limit != usize::MAX && c.no_compress);
    let same_chunks = chunks(ca) == chunks(cb);
    let totals = same_chunks || a.violations.len() < ca.max_violations;
    let batch = |r: &Report| {
        (
            r.store_batch_ops,
            r.store_batch_items,
            r.store_lock_acquisitions_avoided,
        )
    };
    let store = |r: &Report| (r.visited_states, r.visited_bytes);
    let sharing = |r: &Report| (r.shared_components, r.total_components);
    let por = |r: &Report| (r.por_skipped_procs, r.por_proviso_fallbacks);
    [
        ("report text", a.to_string() == b.to_string()),
        ("logical store totals", !totals || store(a) == store(b)),
        ("toss counter", a.tosses_taken == b.tosses_taken),
        ("sharing counters", sharing(a) == sharing(b)),
        ("POR counters", por(a) == por(b)),
        ("coverage map", a.coverage == b.coverage),
        ("trace set", a.traces == b.traces),
        ("batch counters", !same_chunks || batch(a) == batch(b)),
    ]
    .into_iter()
    .find(|(_, same)| !same)
    .map(|(what, _)| what)
}

/// What a run's own configuration promises about its counters.
fn postconditions(c: &Config, r: &Report) -> Result<(), &'static str> {
    if c.no_compress && (r.interner_entries > 0 || r.memo.lookups() > 0) {
        return Err("compression was off: no interner, no memo");
    }
    if c.no_compress && r.store_stored_bytes != r.visited_bytes {
        return Err("compression was off: stored bytes are the raw encodings");
    }
    if !c.no_compress && (r.memo.lookups() > 0) != (r.transitions > 0) {
        return Err("the memo serves every engine");
    }
    if !c.no_compress && (r.interner_entries > 0) != (c.engine != Engine::Stateless) {
        return Err("compression was on, for a store only");
    }
    if c.engine == Engine::StatefulParallel && r.store_batch_ops == 0 {
        return Err("no batches issued");
    }
    Ok(())
}

/// Every `.mc` file directly in `dir`, a path relative to the
/// repository root (`"corpus"`, `"corpus/regressions"`), as `(file
/// name, source)`, sorted by name. Panics when `dir` cannot be read or
/// holds no `.mc` file.
pub fn read_corpus(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(dir);
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "mc"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            (
                name.into_owned(),
                std::fs::read_to_string(&path).expect("readable"),
            )
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "{}: no .mc files", dir.display());
    out
}

/// [`read_corpus`], each program compiled and closed. Panics on a
/// program that does not compile.
pub fn read_closed_corpus(dir: &str) -> Vec<(String, CfgProgram)> {
    read_corpus(dir)
        .into_iter()
        .map(|(name, src)| {
            let open = cfgir::compile(&src).unwrap_or_else(|d| panic!("{name}: {d}"));
            let closed = closer::close(&open, &dataflow::analyze(&open)).program;
            (name, closed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_leg_is_a_distinct_configuration_compared_with_an_earlier_one() {
        let mut configs = BTreeSet::new();
        for (i, &(leg, rel, _)) in LEGS.iter().enumerate() {
            let c = format!("{:?}", config(leg, &OracleLimits::default()));
            let fresh = configs.insert((leg.starts_with("refined "), c));
            assert!(fresh, "{leg}: a configuration twice");
            let earlier = |r| LEGS[..i].iter().any(|l| l.0 == r);
            assert!(
                rel.reference().is_none_or(earlier),
                "{leg}: not an earlier leg"
            );
        }
    }

    #[test]
    fn every_leg_of_a_slice_takes_part_in_a_comparison() {
        let slices = [FUZZ, VERDICTS, UNREDUCED, JOBS, BATCH, MEMO, STATELESS];
        for slice in slices.into_iter().chain([COMPRESSION, WALKS, REFINE, POR]) {
            let legs: Vec<_> = LEGS.iter().filter(|l| l.2 & slice != 0).collect();
            for (i, &&(leg, rel, _)) in legs.iter().enumerate().skip(1) {
                let names = |r| legs.iter().any(|l| l.0 == r);
                let named = legs[i..].iter().any(|l| l.1.reference() == Some(leg));
                assert!(
                    rel.reference().is_some_and(names) || named,
                    "{slice}: {leg}"
                );
            }
        }
        // `reclose fuzz` explores at most 13 configurations a program.
        assert_eq!(LEGS.iter().filter(|l| l.2 & FUZZ != 0).count(), 13);
    }
}
