//! Pass-manager pipeline for the closing front-end.
//!
//! The closing transformation is a straight-line chain of passes:
//!
//! ```text
//! parse → sema → normalize → cfg-build → [refine]
//!       → points-to → mod-ref → defuse → taint → transform → [refine-cex]
//! ```
//!
//! [`Pipeline::close`] runs that chain once per call, on the calling
//! thread: each pass is one timed call whose output moves into the next,
//! the per-procedure passes (defuse, transform) visit procedures in
//! [`cfgir::ProcId`] order, and nothing is kept between calls.
//!
//! Every pass records [`PassMetrics`] — runs, fact counts, wall time —
//! surfaced by `reclose close --stats` and the ledger benchmark's
//! `closer.pipeline.*` layers. See `docs/PIPELINE.md` for the design
//! notes.

use crate::partition::{refine, RefineReport};
use crate::refine_cex::{refine_cex, CexOptions, CexReport};
use crate::semantic::refine_semantic;
use crate::transform::{assemble, close_proc, Closed};
use cfgir::CfgProgram;
use dataflow::DefUse;
use minic::Diagnostics;
use std::time::{Duration, Instant};

/// The pass names, in execution order. `--stats` and the benchmark emit
/// one metrics row per name, in this order, for every run.
pub const PASSES: [&str; 11] = [
    "parse",
    "sema",
    "normalize",
    "cfg-build",
    "refine",
    "points-to",
    "mod-ref",
    "defuse",
    "taint",
    "transform",
    "refine-cex",
];

/// Options controlling a [`Pipeline`].
#[derive(Debug, Clone, Default)]
pub struct PipelineOptions {
    /// Run the §7 refinement passes (interface simplification) before
    /// closing.
    pub refine: bool,
    /// Run counterexample-guided toss refinement
    /// ([`crate::refine_cex()`]) on the closed program. The refined
    /// program replaces [`Closed::program`] in the run result; the
    /// per-procedure [`ProcReport`](crate::ProcReport)s keep describing
    /// the raw transform.
    pub refine_cex: bool,
}

/// Metrics for one named pass over one [`Pipeline::close`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassMetrics {
    /// Pass name (one of [`PASSES`]).
    pub name: &'static str,
    /// Times the pass ran this call: one for a whole-program pass, one
    /// per procedure for defuse and transform, zero for an optional pass
    /// that is switched off.
    pub invocations: usize,
    /// Size of the pass output (AST items, CFG nodes, solver visits,
    /// define-use arcs, kept nodes — whatever "facts" means for the
    /// pass).
    pub facts: u64,
    /// Wall time spent in the pass.
    pub wall: Duration,
}

/// The result of one [`Pipeline::close`] call.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The closed program and its per-procedure reports.
    pub closed: Closed,
    /// The program that was closed — post-refinement when
    /// [`PipelineOptions::refine`] is set, so it is the right baseline
    /// for [`crate::compare`].
    pub program: CfgProgram,
    /// Refinement reports (empty unless `refine` is set).
    pub refine_reports: Vec<RefineReport>,
    /// Counterexample-refinement report (`None` unless
    /// [`PipelineOptions::refine_cex`] is set).
    pub cex_report: Option<CexReport>,
    /// One row per pass, in [`PASSES`] order.
    pub passes: Vec<PassMetrics>,
}

/// The pass manager for the closing front-end: its options, and a
/// [`close`](Pipeline::close) that runs the chain cold on every call.
pub struct Pipeline {
    opts: PipelineOptions,
}

/// Per-run metrics accumulator: a fixed row per pass, in order, and the
/// instant the previous pass ended (each pass starts where the one
/// before it stopped, so one clock read per pass times the chain).
struct Metrics {
    rows: Vec<PassMetrics>,
    last: Instant,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            rows: PASSES
                .iter()
                .map(|name| PassMetrics {
                    name,
                    invocations: 0,
                    facts: 0,
                    wall: Duration::ZERO,
                })
                .collect(),
            last: Instant::now(),
        }
    }

    /// Record that pass `name` just ended.
    fn add(&mut self, name: &str, invocations: usize, facts: u64) {
        let now = Instant::now();
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.name == name)
            .expect("unknown pass name");
        row.invocations = invocations;
        row.facts = facts;
        row.wall = now - self.last;
        self.last = now;
    }
}

impl Pipeline {
    /// Create a pipeline.
    pub fn new(opts: PipelineOptions) -> Self {
        Pipeline { opts }
    }

    /// Close `src`, running every enabled pass once.
    ///
    /// # Errors
    ///
    /// Returns front-end diagnostics.
    pub fn close(&self, src: &str) -> Result<PipelineRun, Diagnostics> {
        let mut m = Metrics::new();

        // --- parse → sema → normalize → cfg-build ---------------------
        let ast = minic::parse(src).map_err(|d| {
            let mut ds = Diagnostics::new();
            ds.push(d);
            ds
        })?;
        m.add("parse", 1, ast.items.len() as u64);

        let table = minic::sema::check(&ast)?;
        let sema_facts = table.objects.len()
            + table.globals.len()
            + table.inputs.len()
            + table.procs.len()
            + table.processes.len();
        m.add("sema", 1, sema_facts as u64);

        let norm = minic::normalize::normalize(&ast);
        debug_assert!(minic::normalize::verify(&norm).is_ok());
        m.add("normalize", 1, norm.items.len() as u64);

        let prog = cfgir::build(&norm, &table);
        debug_assert!(cfgir::validate(&prog).is_ok());
        m.add("cfg-build", 1, prog.node_count() as u64);

        // --- refine (optional) ---------------------------------------
        let (prog, refine_reports) = if self.opts.refine {
            let (p1, mut reports) = refine(&prog);
            let (p2, more) = refine_semantic(&p1);
            reports.extend(more);
            m.add("refine", 1, reports.len() as u64);
            (p2, reports)
        } else {
            (prog, Vec::new())
        };
        let nprocs = prog.procs.len();

        // --- points-to → mod-ref --------------------------------------
        let pts = dataflow::pointsto::analyze(&prog);
        m.add("points-to", 1, pts.stats().visits);

        let mr = dataflow::modref::analyze(&prog, &pts);
        let mr_facts: usize = prog
            .procs
            .iter()
            .map(|p| mr.mod_of(p.id).len() + mr.ref_of(p.id).len())
            .sum();
        m.add("mod-ref", 1, mr_facts as u64);

        // --- defuse (per procedure) → taint ---------------------------
        let dus: Vec<DefUse> = prog
            .procs
            .iter()
            .map(|p| dataflow::defuse::analyze(&prog, p, &pts, &mr))
            .collect();
        let du_facts: usize = dus.iter().map(DefUse::arc_count).sum();
        m.add("defuse", nprocs, du_facts as u64);

        let taint = dataflow::taint::analyze(&prog, &dus, &pts);
        m.add("taint", 1, taint.stats.visits);

        // --- transform (per procedure) --------------------------------
        let pairs = prog
            .procs
            .iter()
            .map(|p| close_proc(&prog, p, &taint))
            .collect();
        let mut closed = assemble(&prog, &taint, pairs);
        let tr_facts: usize = closed
            .reports
            .iter()
            .map(|r| r.nodes_kept + r.toss_nodes_inserted)
            .sum();
        m.add("transform", nprocs, tr_facts as u64);

        // --- refine-cex (optional) ------------------------------------
        let cex_report = if self.opts.refine_cex {
            let (refined, rep) = refine_cex(&prog, &closed, &CexOptions::default());
            m.add("refine-cex", 1, rep.outcomes_pruned as u64);
            closed.program = refined;
            Some(rep)
        } else {
            None
        };

        Ok(PipelineRun {
            closed,
            program: prog,
            refine_reports,
            cex_report,
            passes: m.rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close;
    use crate::partition::{close_with_refinement, RESOURCE_MANAGER};
    use std::path::{Path, PathBuf};

    const SRC: &str = r#"
        extern chan evens;
        extern chan odds;
        chan link[2];
        input x : 0..1023;
        proc helper(int n) { send(link, n); }
        proc p(int x) {
            int y = x % 2;
            int cnt = 0;
            while (cnt < 10) {
                if (y == 0) send(evens, cnt);
                else send(odds, cnt + 1);
                cnt = cnt + 1;
            }
            helper(cnt);
        }
        proc drain() { int v = recv(link); }
        process p(x);
        process drain();
    "#;

    fn listings(prog: &CfgProgram) -> Vec<String> {
        prog.procs.iter().map(cfgir::proc_to_listing).collect()
    }

    /// Every row's run and fact counts: the deterministic part of
    /// [`PipelineRun::passes`].
    fn counts(run: &PipelineRun) -> Vec<(&'static str, usize, u64)> {
        run.passes
            .iter()
            .map(|r| (r.name, r.invocations, r.facts))
            .collect()
    }

    /// Every `.mc` program under `corpus/`, recursively, sorted by path.
    fn corpus() -> Vec<(PathBuf, String)> {
        fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(&path, out);
                } else if path.extension().is_some_and(|x| x == "mc") {
                    out.push(path);
                }
            }
        }
        let mut paths = Vec::new();
        walk(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus"),
            &mut paths,
        );
        paths.sort();
        assert!(!paths.is_empty(), "no corpus programs found");
        paths
            .into_iter()
            .map(|p| {
                let src = std::fs::read_to_string(&p).unwrap();
                (p, src)
            })
            .collect()
    }

    fn default_close(src: &str) -> PipelineRun {
        Pipeline::new(PipelineOptions::default())
            .close(src)
            .unwrap()
    }

    #[test]
    fn matches_the_monolithic_closer() {
        let run = default_close(SRC);
        let direct = crate::close_source(SRC).unwrap();
        assert_eq!(listings(&run.closed.program), listings(&direct.program));
        assert_eq!(run.closed.reports, direct.reports);
    }

    #[test]
    fn a_pipeline_keeps_no_state_between_closes() {
        // `helper` sends a different constant: a one-procedure edit.
        let edited = SRC.replace("send(link, n);", "send(link, n + 1);");
        assert_ne!(edited, SRC);
        let pl = Pipeline::new(PipelineOptions::default());
        for src in [SRC, SRC, edited.as_str()] {
            let reused = pl.close(src).unwrap();
            let fresh = default_close(src);
            assert_eq!(counts(&reused), counts(&fresh));
            assert_eq!(
                listings(&reused.closed.program),
                listings(&fresh.closed.program)
            );
        }
    }

    /// The pipeline's `refine` pass against [`close_with_refinement`],
    /// the other way to refine and then close. Returns whether any
    /// refinement fired.
    fn assert_refine_matches(name: &str, src: &str) -> bool {
        let run = Pipeline::new(PipelineOptions {
            refine: true,
            ..PipelineOptions::default()
        })
        .close(src)
        .unwrap();
        let (direct, reports) = close_with_refinement(src).unwrap();
        assert_eq!(run.refine_reports, reports, "{name}: refine reports");
        assert_eq!(
            listings(&run.closed.program),
            listings(&direct.program),
            "{name}: closed listings"
        );
        assert_eq!(run.closed.reports, direct.reports, "{name}: close reports");
        let row = run.passes.iter().find(|r| r.name == "refine").unwrap();
        assert_eq!(
            (row.invocations, row.facts),
            (1, reports.len() as u64),
            "{name}"
        );
        !reports.is_empty()
    }

    #[test]
    fn refine_pass_matches_close_with_refinement() {
        assert!(assert_refine_matches("RESOURCE_MANAGER", RESOURCE_MANAGER));
        let fired = corpus()
            .iter()
            .filter(|(path, src)| assert_refine_matches(&path.display().to_string(), src))
            .count();
        assert!(fired > 0, "refinement fired on no corpus program");
    }

    #[test]
    fn refine_cex_pass_matches_refine_cex_on_the_corpus() {
        let pl = Pipeline::new(PipelineOptions {
            refine_cex: true,
            ..PipelineOptions::default()
        });
        let mut pruned = 0;
        for (path, src) in corpus() {
            let name = path.display();
            let run = pl.close(&src).unwrap();
            let open = cfgir::compile(&src).unwrap();
            let closed = close(&open, &dataflow::analyze(&open));
            let (refined, rep) = refine_cex(&open, &closed, &CexOptions::default());
            assert_eq!(
                listings(&run.closed.program),
                listings(&refined),
                "{name}: refined listings"
            );
            assert_eq!(run.closed.reports, closed.reports, "{name}: close reports");
            assert_eq!(run.cex_report.as_ref(), Some(&rep), "{name}: CexReport");
            let row = run.passes.iter().find(|r| r.name == "refine-cex").unwrap();
            assert_eq!(
                (row.invocations, row.facts),
                (1, rep.outcomes_pruned as u64),
                "{name}"
            );
            pruned += rep.outcomes_pruned;
        }
        assert!(pruned > 0, "refine-cex pruned nothing on the corpus");
    }

    #[test]
    fn metrics_rows_follow_pass_order() {
        let run = default_close("proc m() { } process m();");
        let names: Vec<&str> = run.passes.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            [
                "parse",
                "sema",
                "normalize",
                "cfg-build",
                "refine",
                "points-to",
                "mod-ref",
                "defuse",
                "taint",
                "transform",
                "refine-cex",
            ]
        );
    }
}
