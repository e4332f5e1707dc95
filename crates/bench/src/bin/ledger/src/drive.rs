//! Every call into the product crates, except the exploration steppers
//! (`stepper.rs`, which is written over `verisoft::Executor`'s public
//! API and is the only other file that names a product type). An API
//! rename in `minic` … `closer`, `envgen` or `switchsim` touches this
//! file alone.

use crate::span::{Layer, Tracer};
use cfgir::CfgProgram;
use closer::{CexReport, Pipeline, PipelineOptions};
use std::collections::BTreeSet;
use verisoft::{Config, Engine, Report};

pub use switchsim::SwitchConfig;

/// Source text of the §6 call-processing application.
pub fn gen_switch(cfg: &SwitchConfig) -> String {
    switchsim::generate(cfg)
}

/// Source text of one seeded open program from the fuzz corpus
/// generator.
pub fn gen_fuzz(seed: u64) -> String {
    switchsim::corpus::generate(seed)
}

/// A program taken through the closing front end.
pub struct Closed {
    /// The program as written (what `refine_cex` and `envgen` read).
    pub open: CfgProgram,
    /// The closed program the explorer runs.
    pub closed: CfgProgram,
    /// `VS_toss` sites the transformation inserted.
    pub toss_sites: usize,
    /// CFG nodes before and after the transformation.
    pub nodes_before: usize,
    pub nodes_kept: usize,
    /// What counterexample-guided refinement did, when it ran.
    pub cex: Option<CexReport>,
    /// Sum of the pipeline's own per-pass timers (0 for the traced
    /// passes, which are not the pipeline).
    pub own_timers_s: f64,
}

impl Closed {
    fn new(
        open: CfgProgram,
        closed: closer::Closed,
        cex: Option<CexReport>,
        own_timers_s: f64,
    ) -> Closed {
        let r = &closed.reports;
        Closed {
            toss_sites: r.iter().map(|p| p.toss_nodes_inserted).sum(),
            nodes_before: r.iter().map(|p| p.nodes_before).sum(),
            nodes_kept: r.iter().map(|p| p.nodes_kept).sum(),
            open,
            closed: closed.program,
            cex,
            own_timers_s,
        }
    }
}

/// The product's own closing path on a cold artifact store, as `reclose
/// close` runs it: `close_source_jobs`, or a fresh `Pipeline` with
/// `refine_cex` on.
///
/// # Errors
///
/// The front end's diagnostics as text. Every benchmark input is valid,
/// so the caller counts an error as a wrong verdict.
pub fn close(src: &str, refine_cex: bool) -> Result<Closed, String> {
    let run = if refine_cex {
        Pipeline::new(PipelineOptions {
            refine_cex: true,
            ..PipelineOptions::default()
        })
        .close(src)
    } else {
        closer::close_source_jobs(src, 1)
    };
    run.map(|run| {
        let own_timers_s = run.passes.iter().map(|p| p.wall.as_secs_f64()).sum();
        Closed::new(run.program, run.closed, run.cex_report, own_timers_s)
    })
    .map_err(|d| d.to_string())
}

/// Sizes the traced front end reads off its intermediate results.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontFacts {
    pub src_bytes: usize,
    pub cfg_nodes: usize,
    pub tainted_nodes: usize,
}

/// The same passes `Pipeline::close` runs, in its order, called one by
/// one with a span around each. Memoisation keys and the artifact store
/// are the pipeline's own work and appear only as the difference between
/// this and [`close`] (`closer.pipeline.attributed_share`).
///
/// # Errors
///
/// As [`close`].
pub fn close_traced(
    src: &str,
    refine_cex: bool,
    tr: &mut Tracer,
) -> Result<(Closed, FrontFacts), String> {
    tr.enter(Layer::FrontEnd);
    let out = close_passes(src, refine_cex, tr);
    tr.exit(Layer::FrontEnd);
    out
}

fn close_passes(
    src: &str,
    refine_cex: bool,
    tr: &mut Tracer,
) -> Result<(Closed, FrontFacts), String> {
    let ast = tr
        .span(Layer::Parse, || minic::parse(src))
        .map_err(|d| d.to_string())?;
    let table = tr
        .span(Layer::Sema, || minic::sema::check(&ast))
        .map_err(|d| d.to_string())?;
    let norm = tr.span(Layer::Normalize, || minic::normalize::normalize(&ast));
    let prog = tr.span(Layer::CfgBuild, || cfgir::build(&norm, &table));
    tr.span(Layer::CfgHash, || {
        let per_proc: Vec<u64> = prog.procs.iter().map(cfgir::proc_content_hash).collect();
        std::hint::black_box((per_proc, cfgir::program_content_hash(&prog)))
    });
    let pts = tr.span(Layer::PointsTo, || dataflow::pointsto::analyze(&prog));
    let modref = tr.span(Layer::ModRef, || dataflow::modref::analyze(&prog, &pts));
    let defuse: Vec<dataflow::DefUse> = tr.span(Layer::DefUse, || {
        prog.procs
            .iter()
            .map(|p| dataflow::defuse::analyze(&prog, p, &pts, &modref))
            .collect()
    });
    let taint = tr.span(Layer::Taint, || {
        dataflow::taint::analyze_jobs(&prog, &defuse, &pts, 1)
    });
    let facts = FrontFacts {
        src_bytes: src.len(),
        cfg_nodes: prog.procs.iter().map(|p| p.nodes.len()).sum(),
        tainted_nodes: taint.per_proc.iter().map(|pt| pt.n_i.count()).sum(),
    };
    let analysis = dataflow::Analysis {
        pts,
        modref,
        defuse,
        taint,
    };
    let mut closed = tr.span(Layer::Transform, || closer::close(&prog, &analysis));
    let cex = refine_cex.then(|| {
        let (refined, rep) = tr.span(Layer::RefineCex, || {
            closer::refine_cex(&prog, &closed, &closer::CexOptions::default())
        });
        closed.program = refined;
        rep
    });
    Ok((Closed::new(prog, closed, cex, 0.0), facts))
}

/// Span-free content hash of a program: equal hashes are the check
/// that the traced passes did the pipeline's work.
pub fn program_hash(prog: &CfgProgram) -> u64 {
    cfgir::program_content_hash(prog)
}

/// `envgen::synthesize` on an open program, timed as its own layer.
/// `refine_cex` composes the same environment internally; this
/// standalone call prices it (informational, never subtracted). Returns
/// whether the explicit `S × E_S` construction exists for the program.
pub fn synthesize_env(open: &CfgProgram, tr: &mut Tracer) -> bool {
    tr.span(Layer::EnvgenSynthesize, || envgen::synthesize(open).is_ok())
}

/// The product's exploration entry point.
pub fn explore(prog: &CfgProgram, cfg: &Config) -> Report {
    verisoft::explore(prog, cfg)
}

/// The frontier engine as the workloads configure it.
pub fn frontier_config(jobs: usize, max_depth: usize, max_transitions: usize) -> Config {
    Config {
        engine: Engine::StatefulParallel,
        jobs,
        por: true,
        max_violations: usize::MAX,
        max_depth,
        max_transitions,
        ..Config::default()
    }
}

/// VeriSoft's own search: stateless, persistent sets and sleep sets.
pub fn stateless_config(max_transitions: usize) -> Config {
    Config {
        engine: Engine::Stateless,
        max_transitions,
        ..Config::default()
    }
}

/// The out-of-core variant of a frontier configuration.
pub fn out_of_core(mut cfg: Config, dir: &std::path::Path) -> Config {
    cfg.mem_limit = 1 << 20;
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = 8;
    cfg
}

/// The engine known answers come from: sequential explicit-state DFS
/// with every reduction off. It shares the interpreter with the engines
/// being timed but none of POR, sleep sets, the frontier driver, the
/// tiered store or the batched commit.
pub fn reference_config(max_depth: usize, max_transitions: usize) -> Config {
    Config {
        engine: Engine::Stateful,
        por: false,
        sleep_sets: false,
        max_violations: usize::MAX,
        max_depth,
        max_transitions,
        ..Config::default()
    }
}

/// A verdict as the ledger compares it: the set of violation kinds
/// found, and whether a cap cut the search short — in which case the set
/// is only a lower bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub kinds: BTreeSet<String>,
    pub truncated: bool,
}

impl Verdict {
    #[cfg(test)]
    pub fn new(kinds: &[verisoft::ViolationKind], truncated: bool) -> Verdict {
        Verdict {
            kinds: kinds.iter().map(ToString::to_string).collect(),
            truncated,
        }
    }

    pub fn of(r: &Report) -> Verdict {
        Verdict {
            kinds: r.violations.iter().map(|v| v.kind.to_string()).collect(),
            truncated: r.truncated,
        }
    }

    /// The text of a verdict or of the error that stood in its place, as
    /// compared, pinned and digested.
    pub fn text_of(verdict: &Result<Verdict, String>) -> String {
        match verdict {
            Ok(v) => v.text(),
            Err(e) => format!("error: {e}"),
        }
    }

    /// `clean`, or the kinds joined with `+`; a truncated search has no
    /// verdict, only `(truncated)`.
    pub fn text(&self) -> String {
        if self.truncated {
            "(truncated)".to_owned()
        } else if self.kinds.is_empty() {
            "clean".to_owned()
        } else {
            self.kinds.iter().cloned().collect::<Vec<_>>().join("+")
        }
    }
}

/// The operational counters of `verisoft::Report` the ledger publishes
/// as *report* metrics, summed over a workload's programs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub programs: usize,
    pub states: usize,
    pub transitions: usize,
    pub max_depth: usize,
    pub truncated_programs: usize,
    pub tosses_taken: usize,
    pub shared_components: usize,
    pub total_components: usize,
    pub por_skipped_procs: usize,
    pub por_proviso_fallbacks: usize,
    pub visited_bytes: usize,
    pub visited_states: usize,
    pub stored_bytes: usize,
    pub interner_entries: usize,
    pub batch_ops: usize,
    pub batch_items: usize,
    pub lock_acquisitions_avoided: usize,
    pub spilled_entries: usize,
    pub segments: usize,
    pub segments_compacted: usize,
    pub prefilter_probes: usize,
    pub prefilter_hits: usize,
    pub spooled_entries: usize,
    pub checkpoints_written: usize,
    pub pipeline_chunks: usize,
    pub pipeline_overlapped_chunks: usize,
}

impl Counts {
    pub fn add(&mut self, r: &Report) {
        self.programs += 1;
        self.states += r.states;
        self.transitions += r.transitions;
        self.max_depth = self.max_depth.max(r.max_depth_seen);
        self.truncated_programs += usize::from(r.truncated);
        self.tosses_taken += r.tosses_taken;
        self.shared_components += r.shared_components;
        self.total_components += r.total_components;
        self.por_skipped_procs += r.por_skipped_procs;
        self.por_proviso_fallbacks += r.por_proviso_fallbacks;
        self.visited_bytes += r.visited_bytes;
        self.visited_states += r.visited_states;
        self.stored_bytes += r.store_stored_bytes;
        self.interner_entries += r.interner_entries;
        self.batch_ops += r.store_batch_ops;
        self.batch_items += r.store_batch_items;
        self.lock_acquisitions_avoided += r.store_lock_acquisitions_avoided;
        self.spilled_entries += r.store_spilled_entries;
        self.segments += r.store_segments;
        self.segments_compacted += r.store_segments_compacted;
        self.prefilter_probes += r.prefilter_probes;
        self.prefilter_hits += r.prefilter_hits;
        self.spooled_entries += r.frontier_spilled_entries;
        self.checkpoints_written += r.checkpoints_written;
        self.pipeline_chunks += r.pipeline_chunks;
        self.pipeline_overlapped_chunks += r.pipeline_overlapped_chunks;
    }
}

/// The environment switches the frontier engine reads. A run removes
/// them so a stray setting in the caller's shell cannot select the
/// scalar commit path or turn the chunk pipeline off.
pub const PRODUCT_ENV_SWITCHES: [&str; 3] = [
    "RECLOSE_SCALAR_COMMIT",
    "RECLOSE_PIPELINE",
    "RECLOSE_BENCH_DIR",
];
