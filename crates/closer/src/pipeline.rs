//! Pass-manager pipeline for the closing front-end.
//!
//! The closing transformation is a straight-line chain of passes:
//!
//! ```text
//! parse → sema → normalize → cfg-build → canon → [refine]
//!       → points-to → mod-ref → defuse → taint → transform
//! ```
//!
//! [`Pipeline`] runs that chain over a **content-hash-keyed artifact
//! store**: every pass output is memoized under a [`stablehash`] key
//! derived from exactly the inputs the pass reads. Whole-program passes
//! (points-to, mod-ref, taint) are keyed by the program's span-free
//! content hash; the per-procedure passes (defuse, transform) are keyed
//! by the *procedure's* content hash combined with a key of the
//! upstream *solution* (not the upstream program). Editing one
//! procedure therefore re-runs the whole-program passes but — as long
//! as their solutions are unchanged — recomputes the per-procedure
//! chain only for the touched procedure; every other procedure's
//! define-use graph and closed body come out of the store.
//!
//! Per-procedure solves on a cold store run on up to
//! [`PipelineOptions::jobs`] worker threads via [`dataflow::par_map`];
//! results are merged in [`cfgir::ProcId`] order, so the closed program
//! and every [`ProcReport`] are byte-identical for any `jobs`.
//!
//! Every pass records [`PassMetrics`] — invocations, cache hits, fact
//! counts, wall time — surfaced by `reclose close --stats` and the
//! ledger benchmark's `closer.pipeline.*` layers. See
//! `docs/PIPELINE.md` for the design notes.

use crate::partition::{refine, RefineOptions, RefineReport};
use crate::refine_cex::{refine_cex, CexOptions, CexReport};
use crate::semantic::{refine_semantic, SemanticOptions};
use crate::transform::{assemble, close_proc, Closed, ProcReport};
use cfgir::{proc_content_hash, program_content_hash, CfgProc, CfgProgram};
use dataflow::{par_map, DefUse, Loc, ModRef, PointsTo, Taint};
use minic::Diagnostics;
use stablehash::{stable_hash, stable_hash_bytes};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pass names, in execution order. `--stats` and the benchmark emit
/// one metrics row per name, in this order, for every run.
pub const PASSES: [&str; 12] = [
    "parse",
    "sema",
    "normalize",
    "cfg-build",
    "canon",
    "refine",
    "points-to",
    "mod-ref",
    "defuse",
    "taint",
    "transform",
    "refine-cex",
];

/// The front-half passes share one artifact (see [`Frontend`]).
const FRONT: [&str; 5] = ["parse", "sema", "normalize", "cfg-build", "canon"];

/// Options controlling a [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads for the per-procedure solves. `0` and `1` both
    /// mean inline execution; the output is identical for any value.
    pub jobs: usize,
    /// Run the §7 refinement passes (interface simplification) before
    /// closing.
    pub refine: bool,
    /// Options for the syntactic refinement (when `refine` is set).
    pub refine_options: RefineOptions,
    /// Options for the semantic refinement (when `refine` is set).
    pub semantic_options: SemanticOptions,
    /// Run counterexample-guided toss refinement
    /// ([`crate::refine_cex`]) on the closed program. The refined
    /// program replaces [`Closed::program`] in the run result; the
    /// per-procedure [`ProcReport`]s keep describing the raw transform.
    pub refine_cex: bool,
    /// Budgets for the counterexample refinement (when `refine_cex` is
    /// set).
    pub cex_options: CexOptions,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            jobs: 1,
            refine: false,
            refine_options: RefineOptions::default(),
            semantic_options: SemanticOptions::default(),
            refine_cex: false,
            cex_options: CexOptions::default(),
        }
    }
}

/// Metrics for one named pass over one [`Pipeline::close`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassMetrics {
    /// Pass name (one of [`PASSES`]).
    pub name: &'static str,
    /// Times the pass actually computed an artifact this run. For the
    /// per-procedure passes this counts procedures computed.
    pub invocations: usize,
    /// Artifacts served from the store instead of being recomputed.
    pub cache_hits: usize,
    /// Size of the pass output used this run (AST items, CFG nodes,
    /// solver visits, define-use arcs, kept nodes — whatever "facts"
    /// means for the pass), including cached artifacts.
    pub facts: u64,
    /// Wall time spent computing (zero on a full cache hit).
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

/// Artifact of the front half: everything from source text to hashed
/// CFG. Cached under a hash of the source bytes.
struct Frontend {
    prog: CfgProgram,
    proc_hashes: Vec<u64>,
    prog_hash: u64,
    /// Fact counts for the five front passes, in [`FRONT`] order.
    facts: [u64; 5],
}

/// Artifact of the refinement passes, cached under the pre-refinement
/// program hash.
struct Refined {
    prog: CfgProgram,
    reports: Vec<RefineReport>,
    proc_hashes: Vec<u64>,
    prog_hash: u64,
}

/// Points-to artifact (cached under the program content hash).
struct PtsArt {
    pts: PointsTo,
    facts: u64,
}

/// MOD/REF artifact (cached under the program content hash).
struct ModRefArt {
    mr: ModRef,
    facts: u64,
}

/// A memoizing pass manager for the closing front-end. Keep one value
/// alive across [`close`](Pipeline::close) calls to get warm-cache
/// incremental re-closing.
pub struct Pipeline {
    opts: PipelineOptions,
    frontend: HashMap<u64, Arc<Frontend>>,
    refined: HashMap<u64, Arc<Refined>>,
    pts: HashMap<u64, Arc<PtsArt>>,
    modref: HashMap<u64, Arc<ModRefArt>>,
    taint: HashMap<u64, Arc<Taint>>,
    defuse: HashMap<u64, Arc<DefUse>>,
    transform: HashMap<u64, Arc<(CfgProc, ProcReport)>>,
    refinecex: HashMap<u64, Arc<(CfgProgram, CexReport)>>,
}

/// Per-run metrics accumulator: a fixed row per pass, in order.
struct Metrics {
    rows: Vec<PassMetrics>,
}

impl Metrics {
    fn new() -> Self {
        Metrics {
            rows: PASSES
                .iter()
                .map(|name| PassMetrics {
                    name,
                    invocations: 0,
                    cache_hits: 0,
                    facts: 0,
                    wall: Duration::ZERO,
                })
                .collect(),
        }
    }

    fn add(
        &mut self,
        name: &str,
        invocations: usize,
        cache_hits: usize,
        facts: u64,
        wall: Duration,
    ) {
        let row = self
            .rows
            .iter_mut()
            .find(|r| r.name == name)
            .expect("unknown pass name");
        row.invocations += invocations;
        row.cache_hits += cache_hits;
        row.facts += facts;
        row.wall += wall;
    }
}

/// The distinct procedures `proc` calls directly, in id order.
fn direct_callees(proc: &CfgProc) -> Vec<cfgir::ProcId> {
    let mut cs: Vec<cfgir::ProcId> = proc
        .node_ids()
        .filter_map(|n| match &proc.node(n).kind {
            cfgir::NodeKind::Call { callee, .. } => Some(*callee),
            _ => None,
        })
        .collect();
    cs.sort_unstable();
    cs.dedup();
    cs
}

/// A stable key of the slice of the points-to solution `proc`'s
/// define-use graph reads: the sets of its *own* pointer variables
/// (loads and deref stores only ever dereference locals — MiniC has no
/// pointer globals). An aliasing change anywhere else in the program
/// leaves this key, and so the cached artifact, intact.
fn pts_slice_key(proc: &CfgProc, pts: &PointsTo) -> u64 {
    let entries: Vec<(u32, BTreeSet<Loc>)> = (0..proc.vars.len())
        .filter_map(|vi| {
            let v = cfgir::VarId(vi as u32);
            let s = pts.of_loc(dataflow::loc_of(proc, v));
            (!s.is_empty()).then_some((vi as u32, s))
        })
        .collect();
    // The "-v2" tag invalidates artifacts computed from the
    // flow-insensitive points-to domain that predates
    // [`dataflow::flowpts`].
    stable_hash(&("pts-slice-v2", entries))
}

/// A stable key of the slice of the MOD/REF solution `proc`'s
/// define-use graph reads: for each direct callee, which of the
/// *caller's* variables the call may clobber (reaching definitions asks
/// exactly `may_mod(callee, loc_of(proc, v))`). A callee gaining a
/// private temporary changes its global summary but not this slice.
fn modref_slice_key(proc: &CfgProc, mr: &ModRef) -> u64 {
    let per: Vec<(u32, Vec<u32>)> = direct_callees(proc)
        .into_iter()
        .map(|c| {
            let clobbered: Vec<u32> = (0..proc.vars.len() as u32)
                .filter(|&vi| mr.may_mod(c, dataflow::loc_of(proc, cfgir::VarId(vi))))
                .collect();
            (c.0, clobbered)
        })
        .collect();
    stable_hash(&("mod-ref-slice", per))
}

/// A stable key of the slice of the taint solution the transform of
/// `proc` reads: its own per-procedure facts and removed parameters,
/// each direct callee's summary (removed parameters, tainted return),
/// and the tainted-object set.
fn taint_slice_key(proc: &CfgProc, taint: &Taint) -> u64 {
    let pt = &taint.per_proc[proc.id.index()];
    let callees: Vec<(u32, BTreeSet<usize>, bool)> = direct_callees(proc)
        .into_iter()
        .map(|c| {
            (
                c.0,
                taint.tainted_params[c.index()].clone(),
                taint.ret_tainted[c.index()],
            )
        })
        .collect();
    // "-v2": the flow-sensitive taint rewrite changed what the facts
    // mean; stale flow-insensitive artifacts must not be served.
    stable_hash(&(
        "taint-slice-v2",
        &pt.n_i,
        &pt.v_i,
        &pt.reads_env_mem,
        &taint.tainted_params[proc.id.index()],
        callees,
        &taint.tainted_objects,
    ))
}

impl Pipeline {
    /// Create a pipeline with an empty artifact store.
    pub fn new(opts: PipelineOptions) -> Self {
        Pipeline {
            opts,
            frontend: HashMap::new(),
            refined: HashMap::new(),
            pts: HashMap::new(),
            modref: HashMap::new(),
            taint: HashMap::new(),
            defuse: HashMap::new(),
            transform: HashMap::new(),
            refinecex: HashMap::new(),
        }
    }

    /// Shorthand: default options with `jobs` workers.
    pub fn with_jobs(jobs: usize) -> Self {
        Pipeline::new(PipelineOptions {
            jobs,
            ..PipelineOptions::default()
        })
    }

    /// The options this pipeline was built with.
    pub fn options(&self) -> &PipelineOptions {
        &self.opts
    }

    /// Close `src`, reusing every artifact whose key matches a previous
    /// run.
    ///
    /// # Errors
    ///
    /// Returns front-end diagnostics.
    pub fn close(&mut self, src: &str) -> Result<PipelineRun, Diagnostics> {
        let jobs = self.opts.jobs.max(1);
        let mut m = Metrics::new();

        // --- parse → sema → normalize → cfg-build → canon -------------
        let src_key = stable_hash(&("frontend", stable_hash_bytes(src.as_bytes())));
        let fe = match self.frontend.get(&src_key) {
            Some(fe) => {
                let fe = fe.clone();
                for (i, name) in FRONT.iter().enumerate() {
                    m.add(name, 0, 1, fe.facts[i], Duration::ZERO);
                }
                fe
            }
            None => {
                let t = Instant::now();
                let ast = minic::parse(src).map_err(|d| {
                    let mut ds = Diagnostics::new();
                    ds.push(d);
                    ds
                })?;
                let parse_facts = ast.items.len() as u64;
                m.add("parse", 1, 0, parse_facts, t.elapsed());

                let t = Instant::now();
                let table = minic::sema::check(&ast)?;
                let sema_facts = (table.objects.len()
                    + table.globals.len()
                    + table.inputs.len()
                    + table.procs.len()
                    + table.processes.len()) as u64;
                m.add("sema", 1, 0, sema_facts, t.elapsed());

                let t = Instant::now();
                let norm = minic::normalize::normalize(&ast);
                debug_assert!(minic::normalize::verify(&norm).is_ok());
                let norm_facts = norm.items.len() as u64;
                m.add("normalize", 1, 0, norm_facts, t.elapsed());

                let t = Instant::now();
                let prog = cfgir::build(&norm, &table);
                debug_assert!(cfgir::validate(&prog).is_ok());
                let build_facts = prog.procs.iter().map(|p| p.nodes.len() as u64).sum();
                m.add("cfg-build", 1, 0, build_facts, t.elapsed());

                let t = Instant::now();
                let proc_hashes: Vec<u64> = prog.procs.iter().map(proc_content_hash).collect();
                let prog_hash = program_content_hash(&prog);
                let canon_facts = proc_hashes.len() as u64;
                m.add("canon", 1, 0, canon_facts, t.elapsed());

                let fe = Arc::new(Frontend {
                    prog,
                    proc_hashes,
                    prog_hash,
                    facts: [
                        parse_facts,
                        sema_facts,
                        norm_facts,
                        build_facts,
                        canon_facts,
                    ],
                });
                self.frontend.insert(src_key, fe.clone());
                fe
            }
        };

        // --- refine (optional) ---------------------------------------
        let refined_art: Option<Arc<Refined>> = if self.opts.refine {
            let key = stable_hash(&("refine", fe.prog_hash));
            let art = match self.refined.get(&key) {
                Some(a) => {
                    m.add("refine", 0, 1, a.reports.len() as u64, Duration::ZERO);
                    a.clone()
                }
                None => {
                    let t = Instant::now();
                    let (p1, mut reports) = refine(&fe.prog, &self.opts.refine_options);
                    let (p2, more) = refine_semantic(&p1, &self.opts.semantic_options);
                    reports.extend(more);
                    let proc_hashes: Vec<u64> = p2.procs.iter().map(proc_content_hash).collect();
                    let prog_hash = program_content_hash(&p2);
                    m.add("refine", 1, 0, reports.len() as u64, t.elapsed());
                    let a = Arc::new(Refined {
                        prog: p2,
                        reports,
                        proc_hashes,
                        prog_hash,
                    });
                    self.refined.insert(key, a.clone());
                    a
                }
            };
            Some(art)
        } else {
            None
        };
        let (prog, proc_hashes, prog_hash): (&CfgProgram, &[u64], u64) = match &refined_art {
            Some(a) => (&a.prog, &a.proc_hashes, a.prog_hash),
            None => (&fe.prog, &fe.proc_hashes, fe.prog_hash),
        };
        let nprocs = prog.procs.len();

        // --- points-to ------------------------------------------------
        let pts_art = {
            let key = stable_hash(&("points-to", prog_hash));
            match self.pts.get(&key) {
                Some(a) => {
                    m.add("points-to", 0, 1, a.facts, Duration::ZERO);
                    a.clone()
                }
                None => {
                    let t = Instant::now();
                    let pts = dataflow::pointsto::analyze(prog);
                    let facts = pts.stats().visits;
                    m.add("points-to", 1, 0, facts, t.elapsed());
                    let a = Arc::new(PtsArt { pts, facts });
                    self.pts.insert(key, a.clone());
                    a
                }
            }
        };
        let pts = &pts_art.pts;

        // --- mod-ref --------------------------------------------------
        let mr_art = {
            let key = stable_hash(&("mod-ref", prog_hash));
            match self.modref.get(&key) {
                Some(a) => {
                    m.add("mod-ref", 0, 1, a.facts, Duration::ZERO);
                    a.clone()
                }
                None => {
                    let t = Instant::now();
                    let mr = dataflow::modref::analyze(prog, pts);
                    let facts = prog
                        .procs
                        .iter()
                        .map(|p| (mr.mod_of(p.id).len() + mr.ref_of(p.id).len()) as u64)
                        .sum();
                    m.add("mod-ref", 1, 0, facts, t.elapsed());
                    let a = Arc::new(ModRefArt { mr, facts });
                    self.modref.insert(key, a.clone());
                    a
                }
            }
        };
        let mr = &mr_art.mr;

        // --- defuse (per procedure, parallel over cold entries) -------
        let t = Instant::now();
        let du_keys: Vec<u64> = proc_hashes
            .iter()
            .zip(&prog.procs)
            .map(|(&h, p)| {
                stable_hash(&("defuse", h, pts_slice_key(p, pts), modref_slice_key(p, mr)))
            })
            .collect();
        let missing: Vec<usize> = (0..nprocs)
            .filter(|i| !self.defuse.contains_key(&du_keys[*i]))
            .collect();
        let computed = par_map(jobs, &missing, |_, &i| {
            dataflow::defuse::analyze(prog, &prog.procs[i], pts, mr)
        });
        for (&i, du) in missing.iter().zip(computed) {
            self.defuse.insert(du_keys[i], Arc::new(du));
        }
        let dus: Vec<Arc<DefUse>> = du_keys
            .iter()
            .map(|k| self.defuse.get(k).expect("just inserted").clone())
            .collect();
        let du_facts: u64 = dus.iter().map(|d| d.arc_count() as u64).sum();
        m.add(
            "defuse",
            missing.len(),
            nprocs - missing.len(),
            du_facts,
            t.elapsed(),
        );

        // --- taint ----------------------------------------------------
        let taint_art = {
            let key = stable_hash(&("taint", prog_hash));
            match self.taint.get(&key) {
                Some(a) => {
                    m.add("taint", 0, 1, a.stats.visits, Duration::ZERO);
                    a.clone()
                }
                None => {
                    let t = Instant::now();
                    let taint = dataflow::taint::analyze_jobs(prog, &dus, pts, jobs);
                    m.add("taint", 1, 0, taint.stats.visits, t.elapsed());
                    let a = Arc::new(taint);
                    self.taint.insert(key, a.clone());
                    a
                }
            }
        };
        let taint = &*taint_art;

        // --- transform (per procedure, parallel over cold entries) ----
        let t = Instant::now();
        let tr_keys: Vec<u64> = (0..nprocs)
            .map(|i| {
                stable_hash(&(
                    "transform",
                    proc_hashes[i],
                    taint_slice_key(&prog.procs[i], taint),
                ))
            })
            .collect();
        let missing: Vec<usize> = (0..nprocs)
            .filter(|i| !self.transform.contains_key(&tr_keys[*i]))
            .collect();
        let computed = par_map(jobs, &missing, |_, &i| {
            close_proc(prog, &prog.procs[i], taint)
        });
        for (&i, pair) in missing.iter().zip(computed) {
            self.transform.insert(tr_keys[i], Arc::new(pair));
        }
        let pairs: Vec<(CfgProc, ProcReport)> = tr_keys
            .iter()
            .map(|k| (**self.transform.get(k).expect("just inserted")).clone())
            .collect();
        let mut closed = assemble(prog, taint, pairs);
        let tr_facts: u64 = closed
            .reports
            .iter()
            .map(|r| (r.nodes_kept + r.toss_nodes_inserted) as u64)
            .sum();
        m.add(
            "transform",
            missing.len(),
            nprocs - missing.len(),
            tr_facts,
            t.elapsed(),
        );

        // --- refine-cex (optional) ------------------------------------
        let cex_report = if self.opts.refine_cex {
            let key = stable_hash(&(
                "refine-cex",
                prog_hash,
                program_content_hash(&closed.program),
            ));
            let art = match self.refinecex.get(&key) {
                Some(a) => {
                    m.add(
                        "refine-cex",
                        0,
                        1,
                        a.1.outcomes_pruned as u64,
                        Duration::ZERO,
                    );
                    a.clone()
                }
                None => {
                    let t = Instant::now();
                    let (refined, rep) = refine_cex(prog, &closed, &self.opts.cex_options);
                    m.add("refine-cex", 1, 0, rep.outcomes_pruned as u64, t.elapsed());
                    let a = Arc::new((refined, rep));
                    self.refinecex.insert(key, a.clone());
                    a
                }
            };
            closed.program = art.0.clone();
            Some(art.1.clone())
        } else {
            None
        };

        Ok(PipelineRun {
            closed,
            program: prog.clone(),
            refine_reports: refined_art
                .as_ref()
                .map(|a| a.reports.clone())
                .unwrap_or_default(),
            cex_report,
            passes: m.rows,
        })
    }
}

/// Close `src` through a fresh single-use pipeline with `jobs` workers.
///
/// # Errors
///
/// Returns front-end diagnostics.
pub fn close_source_jobs(src: &str, jobs: usize) -> Result<PipelineRun, Diagnostics> {
    Pipeline::with_jobs(jobs).close(src)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn row(run: &PipelineRun, name: &str) -> PassMetrics {
        *run.passes.iter().find(|r| r.name == name).unwrap()
    }

    #[test]
    fn matches_the_monolithic_closer() {
        let run = close_source_jobs(SRC, 1).unwrap();
        let direct = crate::close_source(SRC).unwrap();
        assert_eq!(listings(&run.closed.program), listings(&direct.program));
        assert_eq!(run.closed.reports, direct.reports);
    }

    #[test]
    fn output_is_identical_for_any_jobs() {
        let base = close_source_jobs(SRC, 1).unwrap();
        for jobs in [2, 3, 8] {
            let run = close_source_jobs(SRC, jobs).unwrap();
            assert_eq!(
                listings(&run.closed.program),
                listings(&base.closed.program),
                "jobs={jobs} changed the closed program"
            );
            assert_eq!(run.closed.reports, base.closed.reports);
            for (a, b) in run.passes.iter().zip(&base.passes) {
                assert_eq!(
                    (a.invocations, a.cache_hits, a.facts),
                    (b.invocations, b.cache_hits, b.facts),
                    "jobs={jobs} changed {} counters",
                    a.name
                );
            }
        }
    }

    #[test]
    fn identical_rerun_hits_every_pass() {
        let mut pl = Pipeline::with_jobs(1);
        let cold = pl.close(SRC).unwrap();
        let warm = pl.close(SRC).unwrap();
        assert_eq!(
            listings(&cold.closed.program),
            listings(&warm.closed.program)
        );
        for r in &warm.passes {
            if r.name == "refine" || r.name == "refine-cex" {
                continue; // disabled in default options
            }
            assert_eq!(r.invocations, 0, "{} recomputed on a clean rerun", r.name);
            assert!(r.cache_hits > 0, "{} did not hit the store", r.name);
        }
    }

    #[test]
    fn one_proc_edit_recomputes_only_that_chain() {
        // `helper` sends a different constant; `p` and `drain` are
        // untouched, and neither aliasing nor mod/ref nor taint
        // summaries change shape.
        let edited = SRC.replace("send(link, n);", "send(link, n + 1);");
        assert_ne!(edited, SRC);
        let mut pl = Pipeline::with_jobs(1);
        let cold = pl.close(SRC).unwrap();
        let nprocs = cold.program.procs.len();
        assert_eq!(row(&cold, "defuse").invocations, nprocs);
        assert_eq!(row(&cold, "transform").invocations, nprocs);

        let warm = pl.close(&edited).unwrap();
        // The whole-program passes rerun (the program changed) …
        assert_eq!(row(&warm, "points-to").invocations, 1);
        assert_eq!(row(&warm, "taint").invocations, 1);
        // … but the per-procedure chain recomputes only `helper`.
        assert_eq!(row(&warm, "defuse").invocations, 1);
        assert_eq!(row(&warm, "defuse").cache_hits, nprocs - 1);
        assert_eq!(row(&warm, "transform").invocations, 1);
        assert_eq!(row(&warm, "transform").cache_hits, nprocs - 1);
        assert!(warm.closed.program.is_closed());
    }

    #[test]
    fn refine_pass_runs_and_caches() {
        let src = r#"
            extern chan out;
            input x : 0..1023;
            proc p(int x) { if (x > 100) send(out, 1); else send(out, 2); }
            process p(x);
        "#;
        let mut pl = Pipeline::new(PipelineOptions {
            refine: true,
            ..PipelineOptions::default()
        });
        let cold = pl.close(src).unwrap();
        assert_eq!(row(&cold, "refine").invocations, 1);
        let warm = pl.close(src).unwrap();
        assert_eq!(row(&warm, "refine").invocations, 0);
        assert_eq!(row(&warm, "refine").cache_hits, 1);
        assert_eq!(cold.refine_reports, warm.refine_reports);
        assert_eq!(
            listings(&cold.closed.program),
            listings(&warm.closed.program)
        );
    }

    #[test]
    fn refine_cex_pass_runs_caches_and_prunes() {
        // `x > 10` is infeasible under the declared domain: the pass
        // bypasses the toss; a warm rerun serves the refined program
        // from the store.
        let src = r#"
            extern chan out;
            input x : 0..3;
            proc p(int x) { if (x > 10) send(out, 99); else send(out, 1); }
            process p(x);
        "#;
        let mut pl = Pipeline::new(PipelineOptions {
            refine_cex: true,
            ..PipelineOptions::default()
        });
        let cold = pl.close(src).unwrap();
        assert_eq!(row(&cold, "refine-cex").invocations, 1);
        let rep = cold.cex_report.as_ref().expect("report present");
        assert!(rep.outcomes_pruned >= 1, "{rep:?}");
        let plain = close_source_jobs(src, 1).unwrap();
        assert_ne!(
            listings(&cold.closed.program),
            listings(&plain.closed.program),
            "refinement changed the closed program"
        );
        let warm = pl.close(src).unwrap();
        assert_eq!(row(&warm, "refine-cex").invocations, 0);
        assert_eq!(row(&warm, "refine-cex").cache_hits, 1);
        assert_eq!(warm.cex_report, cold.cex_report);
        assert_eq!(
            listings(&warm.closed.program),
            listings(&cold.closed.program)
        );
    }

    #[test]
    fn metrics_rows_follow_pass_order() {
        let run = close_source_jobs("proc m() { } process m();", 1).unwrap();
        let names: Vec<&str> = run.passes.iter().map(|r| r.name).collect();
        assert_eq!(names, PASSES);
    }
}
