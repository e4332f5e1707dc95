//! Systematic state-space exploration: searches over the
//! [`Executor`](crate::executor::Executor) transition-system API.
//!
//! The engines share one transition semantics (the executor layer) and
//! differ only in search policy; [`try_explore`] dispatches on
//! [`Config::engine`]:
//!
//! - [`Engine::Stateless`] — the faithful VeriSoft search: no visited
//!   state is ever stored; the depth-bounded tree of decision sequences
//!   is explored with persistent sets and sleep sets pruning it.
//!   Completeness for deadlocks and assertion violations holds on
//!   acyclic state spaces (and "complete coverage up to some depth" in
//!   general), exactly the guarantee \[God97\] gives. While the tree
//!   repeats, its nodes are tuples of interned component IDs, scheduled
//!   from a facts table and stepped from the transition memo, and a node
//!   is built as a state only when a lookup misses; where it stops
//!   repeating the walk interprets ([`stateless`]).
//! - [`Engine::Stateful`] — a conventional explicit-state DFS that
//!   stores full visited states (not hashes, so no collision
//!   unsoundness), used when the state space has cycles or when
//!   benchmarks need exhaustive state counts. Like the frontier search
//!   below it expands a stored state from its key, in ID space, and
//!   builds the state only when a lookup misses ([`stateful`]).
//! - [`Engine::StatefulParallel`] — deterministic explicit-state
//!   breadth-first frontier search (the first violation reported has a
//!   *shortest* reproducing trace) over a tiered, spillable
//!   [`Store`] with a jobs-invariant admission order (see
//!   [`store`]); byte-identical reports for any worker count, any
//!   memory budget, and across checkpoint/resume.
//!
//! All engines treat a `VS_toss` inside a transition as a branch point,
//! observed and controlled by the scheduler exactly as VeriSoft observes
//! toss operations.

use crate::executor::Executor;
use crate::interp::EnvMode;
use crate::report::Report;
use cfgir::CfgProgram;
use std::io;

pub mod stateful;
pub mod stateless;
pub mod store;

pub use store::{StateStore, Store, TieredStore};

/// Which exploration engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Depth-bounded stateless search with deterministic replayable traces
    /// (VeriSoft's approach). No visited state is stored; the walk's
    /// components are interned, and each tree node is held as its
    /// component-ID tuple and built only when the facts table or the
    /// transition memo misses — until the running miss share says the
    /// tree does not repeat, after which misses are interpreted and
    /// nothing more is interned (DESIGN §15).
    #[default]
    Stateless,
    /// Explicit-state DFS storing visited states.
    Stateful,
    /// Explicit-state breadth-first frontier search across
    /// [`Config::jobs`] worker threads, which share the visited store
    /// read-only while a level expands; one thread then commits to it in
    /// a jobs-invariant order, so the store takes no lock. Deterministic
    /// — same report for any job count. The first
    /// violation reported has a *shortest* reproducing trace (best for
    /// debugging); the CLI's `--bfs` is this engine at `jobs = 1`.
    StatefulParallel,
}

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Engine selection.
    pub engine: Engine,
    /// Open-interface runtime behavior.
    pub env_mode: EnvMode,
    /// Maximum path length in transitions.
    pub max_depth: usize,
    /// Hard cap on transitions executed; exceeded ⇒ `truncated`.
    pub max_transitions: usize,
    /// Use persistent-set partial-order reduction. The stateful engines
    /// additionally apply the ignoring/cycle proviso (full expansion when
    /// a reduced successor is already visited), preserving deadlocks
    /// *and* assertion violations on cyclic state spaces — see
    /// docs/EXPLORER.md §5.
    pub por: bool,
    /// Use sleep sets (stateless engine only).
    pub sleep_sets: bool,
    /// Stop after this many violations.
    pub max_violations: usize,
    /// Collect the set of maximal visible-event traces (stateless
    /// engine; disable reductions for exact trace sets).
    pub collect_traces: bool,
    /// Record which CFG nodes were executed ([`Report::coverage`]).
    pub track_coverage: bool,
    /// Worker threads for [`Engine::StatefulParallel`], at least 1
    /// (ignored by the two sequential engines). Never changes a report.
    pub jobs: usize,
    /// Soft byte budget for the frontier engines' resident search state
    /// (visited store + frontier). `usize::MAX` (the default) means
    /// unbounded: everything stays in memory and no disk is ever
    /// touched. A finite budget makes the [`Store`] spill sealed
    /// states to the tier-1 log and the frontier spool excess entries —
    /// the report is byte-identical either way (see [`store`]).
    pub mem_limit: usize,
    /// Directory for the tier-1 log and periodic checkpoints (frontier
    /// engines). `None` with a finite [`Config::mem_limit`] spills into
    /// a self-cleaning temp dir; `Some` additionally enables
    /// checkpointing every [`Config::checkpoint_every`] frontier levels.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Checkpoint period in frontier levels, at least 1 (when
    /// [`Config::checkpoint_dir`] is set).
    pub checkpoint_every: usize,
    /// Resume from the checkpoint in [`Config::checkpoint_dir`] instead
    /// of starting fresh. The resumed run completes with a report
    /// byte-identical to an uninterrupted one, for any `jobs` and any
    /// `mem_limit` (both are excluded from the checkpoint's config
    /// digest because they are determinism-invariant).
    pub resume: bool,
    /// Test hook: abort the search (returning a truncated partial
    /// report) immediately after the Nth checkpoint is written. Lets
    /// kill/resume tests exercise the crash path in-process,
    /// deterministically, at an instant where the checkpoint on disk is
    /// complete.
    pub abort_after_checkpoints: Option<usize>,
    /// Disable component interning in every engine (escape hatch;
    /// interning is on by default). With it the stateful engines' stores
    /// hold compact component-ID tuples interned by a per-run
    /// [`crate::state::ComponentInterner`] instead of full canonical
    /// encodings, and every engine answers repeated transitions from the
    /// transition memo and their schedules from its facts table. Without
    /// it every transition is interpreted and every
    /// state built, which makes this mode the memo's oracle; reports are
    /// byte-identical either way.
    /// Unlike `jobs`/`mem_limit`, this flag **is** part of the
    /// checkpoint config digest — it changes the on-disk record format,
    /// so resuming a checkpoint across compression modes is rejected.
    pub no_compress: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            engine: Engine::Stateless,
            env_mode: EnvMode::Closed,
            max_depth: 2_000,
            max_transitions: 5_000_000,
            por: true,
            sleep_sets: true,
            max_violations: 1,
            collect_traces: false,
            track_coverage: false,
            jobs: 1,
            mem_limit: usize::MAX,
            checkpoint_dir: None,
            checkpoint_every: 32,
            resume: false,
            abort_after_checkpoints: None,
            no_compress: false,
        }
    }
}

impl Config {
    /// A configuration with every reduction disabled — full interleaving
    /// semantics, exact trace sets.
    pub fn exhaustive() -> Self {
        Config {
            por: false,
            sleep_sets: false,
            max_violations: usize::MAX,
            ..Config::default()
        }
    }
}

/// Explore the state space of `prog` under `config`.
///
/// # Errors
///
/// Returns the I/O error that ended a frontier search using the disk
/// ([`Config::mem_limit`], [`Config::checkpoint_dir`]), naming the file:
/// a spill or checkpoint directory that cannot be created or written, or
/// a checkpoint resumed from ([`Config::resume`]) that is missing, was
/// written for another program or configuration, or is damaged. The
/// stateless and depth-first engines touch no file and always return
/// `Ok`.
///
/// # Panics
///
/// Panics when `prog` fails [`cfgir::validate()`] (malformed graphs).
pub fn try_explore(prog: &CfgProgram, config: &Config) -> io::Result<Report> {
    let exec = Executor::new(prog, config);
    match config.engine {
        Engine::Stateless => Ok(stateless::dfs(&exec)),
        Engine::Stateful => Ok(stateful::dfs(&exec)),
        Engine::StatefulParallel => stateful::frontier(&exec),
    }
}

/// [`try_explore`], panicking on its error. It stays because the
/// benchmark ledger's frozen driver returns its `Report`; ROADMAP item
/// 3a(ii), which retires the frozen stepper, removes it.
///
/// # Panics
///
/// Panics when [`try_explore`] fails or panics.
pub fn explore(prog: &CfgProgram, config: &Config) -> Report {
    try_explore(prog, config).unwrap_or_else(|e| panic!("explore: {e}"))
}

/// Replay a decision sequence from the initial state, returning the final
/// state (used to reproduce reported violations, VeriSoft's replay
/// feature).
///
/// # Errors
///
/// Returns the failing [`crate::TransitionResult`] when the trace does
/// not replay cleanly (e.g. it ends in the recorded violation).
pub fn replay(
    prog: &CfgProgram,
    trace: &[crate::report::Decision],
    env_mode: EnvMode,
) -> Result<crate::state::GlobalState, crate::interp::TransitionResult> {
    let config = Config {
        env_mode,
        ..Config::default()
    };
    Executor::new(prog, &config).replay(trace)
}
