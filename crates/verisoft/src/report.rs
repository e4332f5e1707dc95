//! Search results: violations, decisions, traces, statistics.

use crate::interp::{RtError, VisibleEvent};
use std::collections::BTreeSet;

/// One scheduling decision: which process ran, with which nondeterministic
/// choices (toss values and — under enumeration — environment values).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Decision {
    /// Process index.
    pub process: usize,
    /// Choices consumed within the transition, in order.
    pub choices: Vec<u32>,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.choices.is_empty() {
            write!(f, "P{}", self.process)
        } else {
            let cs: Vec<String> = self.choices.iter().map(|c| c.to_string()).collect();
            write!(f, "P{}[{}]", self.process, cs.join(","))
        }
    }
}

/// What kind of property was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A reachable global state where every process is blocked (and not
    /// all merely terminated, unless strict termination semantics are on).
    Deadlock,
    /// A `VS_assert` evaluated to zero.
    AssertionViolation,
    /// A process exceeded the invisible-step bound within one transition.
    Divergence,
    /// A runtime error (division by zero, bad dereference, …).
    RuntimeError(RtError),
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::Deadlock => write!(f, "deadlock"),
            ViolationKind::AssertionViolation => write!(f, "assertion violation"),
            ViolationKind::Divergence => write!(f, "divergence"),
            ViolationKind::RuntimeError(e) => write!(f, "runtime error: {e}"),
        }
    }
}

/// A property violation with its reproducing schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The process at fault (`None` for deadlocks).
    pub process: Option<usize>,
    /// The decision sequence from the initial state that reproduces the
    /// violation (replayable: VeriSoft-style deterministic replay).
    pub trace: Vec<Decision>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(p) = self.process {
            write!(f, " in P{p}")?;
        }
        let t: Vec<String> = self.trace.iter().map(|d| d.to_string()).collect();
        write!(f, " after [{}]", t.join(" "))
    }
}

/// Hit, miss and bypass counts of one transition memo (DESIGN §15), or
/// of all of a run's memos added up ([`Report::memo`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Per-process successor lookups answered from the memo instead of
    /// interpreting.
    pub hits: usize,
    /// Lookups that ran the interpreter and recorded the answer.
    pub misses: usize,
    /// Interpreter runs left unrecorded because the transition executed
    /// a `Spawn` node.
    pub bypass_spawn: usize,
    /// Interpreter runs left unrecorded because the item's transition
    /// budget ended inside the enumeration.
    pub bypass_budget: usize,
    /// Interpreter runs left unrecorded because the stateless walk had
    /// stopped recording: its running miss share said the tree does not
    /// repeat (DESIGN §15).
    pub bypass_cold: usize,
    /// States built from their component IDs for expansion because the
    /// facts table or the memo could not answer for them in ID space
    /// (DESIGN §14): about the misses, not the states.
    pub materialised: usize,
}

impl MemoStats {
    /// Every lookup: hits, misses and every kind of bypass.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses + self.bypassed()
    }

    /// Interpreter runs left unrecorded, for any reason.
    pub fn bypassed(&self) -> usize {
        self.bypass_spawn + self.bypass_budget + self.bypass_cold
    }
}

impl std::ops::AddAssign for MemoStats {
    fn add_assign(&mut self, other: Self) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypass_spawn += other.bypass_spawn;
        self.bypass_budget += other.bypass_budget;
        self.bypass_cold += other.bypass_cold;
        self.materialised += other.materialised;
    }
}

/// Aggregate results of one state-space exploration.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Distinct global states visited (stateful engine) or search-tree
    /// nodes expanded (stateless engine).
    pub states: usize,
    /// Transitions executed (including re-executions for choice
    /// enumeration).
    pub transitions: usize,
    /// Deepest path reached, in transitions.
    pub max_depth_seen: usize,
    /// True when a depth/state cap cut the exploration short — results
    /// are then a lower bound ("complete coverage of the state space up to
    /// some depth", as the paper puts it).
    pub truncated: bool,
    /// All violations found (up to the configured maximum).
    pub violations: Vec<Violation>,
    /// The set of maximal visible-event traces, when trace collection is
    /// on (used for the Figure 3 optimality experiment).
    pub traces: BTreeSet<Vec<VisibleEvent>>,
    /// Payload bytes held by the visited store at the end of the run
    /// (stateful engines; 0 for stateless). With [`Report::visited_states`]
    /// this gives bytes-per-visited-state, surfaced by `explore --stats`.
    pub visited_bytes: usize,
    /// States held by the visited store at the end of the run (stateful
    /// engines; 0 for stateless). Can exceed [`Report::states`] when the
    /// run truncates: admitted-but-never-expanded candidates count too.
    pub visited_states: usize,
    /// Across all completed successor transitions, how many state
    /// components (processes + objects) the successor still *shares*
    /// with its parent (same allocation). `shared / total` is the
    /// CoW sharing ratio; see [`crate::state`].
    pub shared_components: usize,
    /// The denominator of the sharing ratio: total components over the
    /// same successor transitions.
    pub total_components: usize,
    /// Nondeterministic choices consumed by completed transitions over
    /// the run — `VS_toss` outcomes plus (under enumeration) environment
    /// values. A precision lens on the closed program: fewer toss sites
    /// (or fewer surviving outcomes per site) mean fewer choices taken
    /// for the same coverage. Surfaced by `explore --stats`.
    pub tosses_taken: usize,
    /// Enabled-process expansions the stateful engines skipped under
    /// persistent-set partial-order reduction, summed over expanded
    /// states (after proviso fallbacks; 0 for the stateless engines,
    /// which prune through sleep sets instead of counting).
    pub por_skipped_procs: usize,
    /// States where the ignoring/cycle proviso (or a violating child)
    /// forced full expansion (see `Executor::expand`).
    pub por_proviso_fallbacks: usize,
    /// Executed-node coverage, when [`crate::Config::track_coverage`] is
    /// on.
    pub coverage: Option<crate::coverage::Coverage>,
    /// Peak resident bytes of the tiered store's in-memory tier over the
    /// run (frontier engines; 0 otherwise). An *operational* metric, not
    /// part of the deterministic report surface: an interrupted-and-
    /// resumed run may legitimately peak differently than an
    /// uninterrupted one.
    pub store_peak_mem_bytes: usize,
    /// States spilled from the in-memory tier to the tier-1 log
    /// (operational, like [`Report::store_peak_mem_bytes`]).
    pub store_spilled_entries: usize,
    /// Spills this run appended to the tier-1 log (operational; a
    /// resumed run counts only its own).
    pub store_segments: usize,
    /// Frontier entries that overflowed the spool's RAM budget to disk
    /// (operational).
    pub frontier_spilled_entries: usize,
    /// Checkpoints written during the run (operational).
    pub checkpoints_written: usize,
    /// Bytes the visited store *actually* holds across tiers at the end
    /// of the run — the compressed footprint when collapse compression
    /// is on, equal to [`Report::visited_bytes`] when it is off
    /// (operational; compare the two for the dedup ratio `--stats`
    /// prints).
    pub store_stored_bytes: usize,
    /// Distinct state components interned over the run (0 with
    /// compression off; operational).
    pub interner_entries: usize,
    /// Bytes of canonical component encodings the interner table holds
    /// (operational) — the one-copy-per-distinct-component cost that
    /// [`Report::store_stored_bytes`] amortises over every state.
    pub interner_bytes: usize,
    /// Always 0: tier 1 is one log, so nothing is compacted
    /// (EXPERIMENTS.md E22). Kept because the frozen ledger benchmark
    /// reads it by name; goes with the next benchmark-only PR.
    pub store_segments_compacted: usize,
    /// Store commits the frontier engine issued, one per chunk
    /// (operational, like [`Report::store_peak_mem_bytes`]: batch
    /// boundaries follow chunking and so may differ across resumed
    /// runs).
    pub store_batch_ops: usize,
    /// Items carried by those commits (operational).
    pub store_batch_items: usize,
    /// Always 0: the commit holds the store as `&mut` and takes no lock.
    /// Kept because the frozen ledger benchmark reads it by name; goes
    /// with the next benchmark-only PR.
    pub store_lock_acquisitions_avoided: usize,
    /// Always 0: no filter sits in front of the tier-1 index
    /// (EXPERIMENTS.md E22). Kept because the frozen ledger benchmark
    /// reads it by name; goes with the next benchmark-only PR.
    pub prefilter_probes: usize,
    /// Always 0, like [`Report::prefilter_probes`] and for the same
    /// reason.
    pub prefilter_hits: usize,
    /// Frontier chunks committed by the frontier engine (operational).
    pub pipeline_chunks: usize,
    /// Always 0: nothing overlaps a chunk's commit (EXPERIMENTS.md E18).
    /// Kept because the frozen ledger benchmark reads it by name; goes
    /// with the next benchmark-only PR.
    pub pipeline_overlapped_chunks: usize,
    /// What the stateful engines' transition memos (DESIGN §15) did: the
    /// DFS's one memo, or the frontier workers' summed. Operational like
    /// the batch counters above, and more so: every frontier worker has a
    /// memo of its own and claims items
    /// through a shared cursor, so at `jobs > 1` which lookups hit
    /// depends on thread timing; a resumed run starts with empty memos;
    /// and `--no-compress` has none. These counts are therefore in no
    /// determinism key, no checkpoint and no golden — `--stats` prints
    /// them and that is all.
    pub memo: MemoStats,
}

impl Report {
    /// The first deadlock found, if any.
    pub fn first_deadlock(&self) -> Option<&Violation> {
        self.violations
            .iter()
            .find(|v| v.kind == ViolationKind::Deadlock)
    }

    /// The first assertion violation found, if any.
    pub fn first_assert(&self) -> Option<&Violation> {
        self.violations
            .iter()
            .find(|v| v.kind == ViolationKind::AssertionViolation)
    }

    /// True when no violations were found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Count violations of a given kind.
    pub fn count(&self, pred: impl Fn(&ViolationKind) -> bool) -> usize {
        self.violations.iter().filter(|v| pred(&v.kind)).count()
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "states: {}, transitions: {}, max depth: {}{}",
            self.states,
            self.transitions,
            self.max_depth_seen,
            if self.truncated { " (truncated)" } else { "" }
        )?;
        if self.violations.is_empty() {
            write!(f, "no violations")?;
        } else {
            write!(f, "{} violation(s):", self.violations.len())?;
            for v in &self.violations {
                write!(f, "\n  {v}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_display() {
        let d = Decision {
            process: 2,
            choices: vec![],
        };
        assert_eq!(d.to_string(), "P2");
        let d = Decision {
            process: 0,
            choices: vec![1, 0],
        };
        assert_eq!(d.to_string(), "P0[1,0]");
    }

    #[test]
    fn report_queries() {
        let mut r = Report::default();
        assert!(r.clean());
        r.violations.push(Violation {
            kind: ViolationKind::Deadlock,
            process: None,
            trace: vec![],
        });
        r.violations.push(Violation {
            kind: ViolationKind::AssertionViolation,
            process: Some(1),
            trace: vec![],
        });
        assert!(!r.clean());
        assert!(r.first_deadlock().is_some());
        assert_eq!(r.first_assert().unwrap().process, Some(1));
        assert_eq!(r.count(|k| *k == ViolationKind::Deadlock), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let r = Report::default();
        assert!(r.to_string().contains("no violations"));
        let v = Violation {
            kind: ViolationKind::RuntimeError(RtError::DivByZero),
            process: Some(0),
            trace: vec![Decision {
                process: 0,
                choices: vec![3],
            }],
        };
        assert!(v.to_string().contains("division by zero"));
        assert!(v.to_string().contains("P0[3]"));
    }
}
