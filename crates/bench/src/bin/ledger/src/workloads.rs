//! The six workloads: what each one feeds the product, how one pass over
//! it is timed, how its verdicts are checked against known answers, and
//! how the traced pass turns spans and counters into per-layer metrics.

use crate::drive::{self, Counts, SwitchConfig, Verdict};
use crate::expected;
use crate::span::{Layer, Tracer};
use crate::stats;
use crate::stepper::{self, Stepped};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where a workload's programs come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inputs {
    /// `switchsim::generate` with this many lines and events per line.
    /// The generator has no randomness, so the workload is seedless.
    Switch { lines: usize, events_per_line: i64 },
    /// `FUZZ_PROGRAMS` programs of `switchsim::corpus::generate`, seeds
    /// `seed · 10⁶ ..`.
    Fuzz,
    /// The 14 stock `corpus/*.mc` programs (copies under `inputs/`).
    Corpus,
}

/// Which search explores the closed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// `Engine::StatefulParallel`, POR on, in memory.
    Frontier { jobs: usize },
    /// The same with a 1 MiB budget, a checkpoint directory and a
    /// checkpoint every 8 levels.
    OutOfCore,
    /// `Engine::Stateless`, persistent sets and sleep sets.
    Stateless,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the README has the long form.
    pub why: &'static str,
    pub inputs: Inputs,
    pub search: Search,
    /// Close with counterexample-guided toss refinement.
    pub refine_cex: bool,
    pub max_depth: usize,
    pub max_transitions: usize,
}

pub const FUZZ_PROGRAMS: usize = 30_000;
/// Other seeds than the pinned one re-check this share of `fuzz_sweep`
/// against the reference engine.
pub const FUZZ_SAMPLE_STRIDE: usize = 50;

const SWITCH3: Inputs = Inputs::Switch {
    lines: 3,
    events_per_line: 1,
};

pub const ALL: [Workload; 6] = [
    Workload {
        name: "switch3_frontier_j1",
        why: "paper's case study on the frontier engine, one worker: interp, POR, fingerprint+intern and store commit all do real work",
        inputs: SWITCH3,
        search: Search::Frontier { jobs: 1 },
        refine_cex: false,
        max_depth: 400,
        max_transitions: 5_000_000,
    },
    Workload {
        name: "switch3_frontier_j2",
        why: "same search with two workers on two CPUs: the only place thread scaling and lock contention show",
        inputs: SWITCH3,
        search: Search::Frontier { jobs: 2 },
        refine_cex: false,
        max_depth: 400,
        max_transitions: 5_000_000,
    },
    Workload {
        name: "switch3_outofcore",
        why: "same search under a 1 MiB budget: spill, Bloom prefilter, frontier spool, compaction and checkpoints write beside the reads",
        inputs: SWITCH3,
        search: Search::OutOfCore,
        refine_cex: false,
        max_depth: 400,
        max_transitions: 5_000_000,
    },
    Workload {
        name: "switch2x2_stateless",
        why: "VeriSoft's stateless search: interp and POR only, no fingerprint, intern or store, so a store optimisation predicts no change here",
        inputs: Inputs::Switch {
            lines: 2,
            events_per_line: 2,
        },
        search: Search::Stateless,
        refine_cex: false,
        max_depth: 2_000,
        max_transitions: 50_000_000,
    },
    Workload {
        name: "fuzz_sweep",
        why: "30000 tiny seeded programs, each closed cold and explored: front-end passes and the fixed cost of one explore dominate",
        inputs: Inputs::Fuzz,
        search: Search::Frontier { jobs: 1 },
        refine_cex: false,
        max_depth: 2_000,
        // Low on purpose: about one generated program in 40,000 has a
        // transition whose toss choices multiply into the hundreds of
        // thousands (155 MB and a truncated search at a cap of 200,000).
        // One such program would decide a seed's peak RSS.
        max_transitions: 2_000,
    },
    Workload {
        name: "corpus_refine_cex",
        why: "the 14 stock programs closed with counterexample-guided refinement: envgen composition and repeated verdict-guard explorations",
        inputs: Inputs::Corpus,
        search: Search::Frontier { jobs: 1 },
        refine_cex: true,
        max_depth: 2_000,
        max_transitions: 5_000_000,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn jobs(&self) -> usize {
        match self.search {
            Search::Frontier { jobs } => jobs,
            Search::OutOfCore | Search::Stateless => 1,
        }
    }

    pub fn seeded(&self) -> bool {
        self.inputs == Inputs::Fuzz
    }

    /// The exploration configuration; `dir` is the checkpoint directory
    /// of an out-of-core search.
    pub fn config(&self, jobs: usize, dir: &Path) -> verisoft::Config {
        match self.search {
            Search::Frontier { .. } => {
                drive::frontier_config(jobs, self.max_depth, self.max_transitions)
            }
            Search::OutOfCore => drive::out_of_core(
                drive::frontier_config(jobs, self.max_depth, self.max_transitions),
                dir,
            ),
            Search::Stateless => drive::stateless_config(self.max_transitions),
        }
    }

    /// The configuration in words, for the result file.
    pub fn describe(&self) -> String {
        let inputs = match self.inputs {
            Inputs::Switch {
                lines,
                events_per_line,
            } => format!("switchsim lines={lines} events_per_line={events_per_line} (seedless)"),
            Inputs::Fuzz => format!(
                "{FUZZ_PROGRAMS} programs of switchsim::corpus, seeds seed*10^6.. (cold close each)"
            ),
            Inputs::Corpus => "14 corpus/*.mc programs (seedless)".to_owned(),
        };
        let search = match self.search {
            Search::Frontier { jobs } => format!("frontier jobs={jobs} por=on in-memory"),
            Search::OutOfCore => {
                "frontier jobs=1 por=on mem_limit=1MiB checkpoint_every=8".to_owned()
            }
            Search::Stateless => "stateless por=on sleep_sets=on".to_owned(),
        };
        format!(
            "{inputs}; close refine_cex={}; {search} max_depth={} max_transitions={}; closed loop, 1 client",
            self.refine_cex, self.max_depth, self.max_transitions
        )
    }
}

const CORPUS: [(&str, &str); 14] = [
    ("bits", include_str!("../inputs/bits.mc")),
    ("clamp", include_str!("../inputs/clamp.mc")),
    ("gate", include_str!("../inputs/gate.mc")),
    ("histogram", include_str!("../inputs/histogram.mc")),
    ("login", include_str!("../inputs/login.mc")),
    ("meter", include_str!("../inputs/meter.mc")),
    ("pair", include_str!("../inputs/pair.mc")),
    ("parity", include_str!("../inputs/parity.mc")),
    ("relay", include_str!("../inputs/relay.mc")),
    (
        "resource_manager",
        include_str!("../inputs/resource_manager.mc"),
    ),
    ("spawn_pool", include_str!("../inputs/spawn_pool.mc")),
    ("traffic_light", include_str!("../inputs/traffic_light.mc")),
    ("watchdog", include_str!("../inputs/watchdog.mc")),
    ("workers", include_str!("../inputs/workers.mc")),
];

/// One program handed to the product: source text and nothing else.
pub struct Input {
    pub name: String,
    pub src: String,
}

/// Generate the workload's inputs from `seed` (the same seed gives the
/// same inputs), under a `switchsim.gen` span.
pub fn inputs(w: &Workload, seed: u64, tr: &mut Tracer) -> Vec<Input> {
    tr.span(Layer::SwitchsimGen, || match w.inputs {
        Inputs::Switch {
            lines,
            events_per_line,
        } => vec![Input {
            name: format!("switch{lines}x{events_per_line}"),
            src: drive::gen_switch(&SwitchConfig {
                lines,
                events_per_line,
                ..SwitchConfig::default()
            }),
        }],
        Inputs::Fuzz => (0..FUZZ_PROGRAMS as u64)
            .map(|i| {
                let s = seed.wrapping_mul(1_000_000).wrapping_add(i);
                Input {
                    name: s.to_string(),
                    src: drive::gen_fuzz(s),
                }
            })
            .collect(),
        Inputs::Corpus => CORPUS
            .iter()
            .map(|(name, src)| Input {
                name: (*name).to_owned(),
                src: (*src).to_owned(),
            })
            .collect(),
    })
}

/// Everything a run needs before its timed region.
pub struct Prepared {
    pub inputs: Vec<Input>,
    /// Scratch directory of this run (created only when the search
    /// writes to disk); the caller removes it.
    pub scratch: PathBuf,
}

/// Set-up: generate the inputs, create the scratch directory, and take
/// a small two-line switch through close and both searches, so that
/// code is paged in and lazy initialisation is done before the clock
/// starts. The warm-up program is large enough (a few thousand states)
/// that set-up time is tens of milliseconds of the product's own work
/// rather than a few milliseconds of process start.
pub fn prepare(w: &Workload, seed: u64, scratch: &Path, tr: &mut Tracer) -> Prepared {
    let inputs = inputs(w, seed, tr);
    if w.search == Search::OutOfCore {
        std::fs::create_dir_all(scratch).expect("create scratch directory");
    }
    let warm_up = drive::gen_switch(&SwitchConfig {
        lines: 2,
        events_per_line: 1,
        ..SwitchConfig::default()
    });
    let closed = drive::close(&warm_up, false).expect("warm-up program is valid");
    for cfg in [
        drive::frontier_config(1, 400, 1_000_000),
        drive::stateless_config(1_000_000),
    ] {
        std::hint::black_box(drive::explore(&closed.closed, &cfg));
    }
    Prepared {
        inputs,
        scratch: scratch.to_path_buf(),
    }
}

/// Sums of `closer::CexReport` over a workload.
#[derive(Debug, Default, Clone, Copy)]
pub struct CexTotals {
    pub iterations: usize,
    pub outcomes_pruned: usize,
    pub states_before: usize,
    pub states_after: usize,
    pub reverted_programs: usize,
}

/// One input's result within a pass.
pub struct Outcome {
    /// The verdict, or the first line of a diagnostic (or `panic …`).
    pub verdict: Result<Verdict, String>,
    pub states: usize,
    pub transitions: usize,
    /// Content hash of the closed program (0 on error).
    pub closed_hash: u64,
}

impl Outcome {
    /// The verdict as compared, pinned and digested.
    pub fn text(&self) -> String {
        Verdict::text_of(&self.verdict)
    }
}

/// A diagnostic (or panic message) cut to its first line.
fn first_line(e: &str) -> String {
    e.lines().next().unwrap_or("").to_owned()
}

/// One untraced pass over a workload: the product's own entry points,
/// timed from outside. This is both the timed region of an end-to-end
/// run and the reference the traced pass is compared with.
pub struct Pass {
    /// Source text in → every report in hand.
    pub wall_s: f64,
    pub close_s: f64,
    pub explore_s: f64,
    /// Sum of the pipeline's own per-pass timers (`PassMetrics::wall`).
    pub own_timers_s: f64,
    /// Per-program closing time in µs.
    pub close_us: Vec<f64>,
    pub outcomes: Vec<Outcome>,
    pub counts: Counts,
    pub cex: CexTotals,
    pub toss_sites: usize,
    pub nodes_before: usize,
    pub nodes_kept: usize,
    /// Size of the checkpoint directory when the search ended.
    pub dir_mb: f64,
}

/// Run one pass. `op` names the checkpoint directory of this pass, which
/// is measured and deleted once the clock has stopped.
pub fn run_pass(w: &Workload, prep: &Prepared, jobs: usize, op: usize) -> Pass {
    let dir = prep.scratch.join(format!("explore-{op}"));
    let cfg = w.config(jobs, &dir);
    let mut pass = Pass {
        wall_s: 0.0,
        close_s: 0.0,
        explore_s: 0.0,
        own_timers_s: 0.0,
        close_us: Vec::with_capacity(prep.inputs.len()),
        outcomes: Vec::with_capacity(prep.inputs.len()),
        counts: Counts::default(),
        cex: CexTotals::default(),
        toss_sites: 0,
        nodes_before: 0,
        nodes_kept: 0,
        dir_mb: 0.0,
    };
    let start = Instant::now();
    for input in &prep.inputs {
        let t0 = Instant::now();
        // A panic on a valid input is a wrong verdict, not a lost run.
        let closed = catch_unwind(|| drive::close(&input.src, w.refine_cex))
            .unwrap_or_else(|_| Err("panic while closing".to_owned()));
        let t1 = Instant::now();
        let explored = closed.and_then(|c| {
            catch_unwind(AssertUnwindSafe(|| drive::explore(&c.closed, &cfg)))
                .map(|r| (c, r))
                .map_err(|_| "panic while exploring".to_owned())
        });
        let t2 = Instant::now();
        pass.close_s += (t1 - t0).as_secs_f64();
        pass.explore_s += (t2 - t1).as_secs_f64();
        pass.close_us.push((t1 - t0).as_secs_f64() * 1e6);
        pass.outcomes.push(match explored {
            Ok((c, r)) => {
                pass.counts.add(&r);
                pass.own_timers_s += c.own_timers_s;
                pass.toss_sites += c.toss_sites;
                pass.nodes_before += c.nodes_before;
                pass.nodes_kept += c.nodes_kept;
                if let Some(x) = &c.cex {
                    pass.cex.iterations += x.iterations;
                    pass.cex.outcomes_pruned += x.outcomes_pruned;
                    pass.cex.states_before += x.states_before;
                    pass.cex.states_after += x.states_after;
                    pass.cex.reverted_programs += usize::from(x.reverted);
                }
                Outcome {
                    verdict: Ok(Verdict::of(&r)),
                    states: r.states,
                    transitions: r.transitions,
                    closed_hash: drive::program_hash(&c.closed),
                }
            }
            Err(e) => Outcome {
                verdict: Err(first_line(&e)),
                states: 0,
                transitions: 0,
                closed_hash: 0,
            },
        });
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    if w.search == Search::OutOfCore {
        pass.dir_mb = crate::sys::dir_bytes(&dir) as f64 / 1e6;
        let _ = std::fs::remove_dir_all(&dir);
    }
    pass
}

/// The verdict check of one pass.
#[derive(Debug, Default)]
pub struct Check {
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable findings (mismatches, count drift), for stderr.
    pub notes: Vec<String>,
}

impl Check {
    fn compare(&mut self, input: &str, got: &str, want: &str) {
        self.record(input, got == want, got, want);
    }

    fn record(&mut self, input: &str, ok: bool, got: &str, want: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(format!(
                    "verdict mismatch on {input}: got `{got}`, known answer `{want}`"
                ));
            }
        }
    }

    fn drift(&mut self, what: &str, got: (usize, usize), pinned: (usize, usize)) {
        if got != pinned {
            self.notes.push(format!(
                "count drift on {what}: states/transitions {}/{} (pinned {}/{}); \
                 legitimate for a sound POR or precision change, otherwise suspect",
                got.0, got.1, pinned.0, pinned.1
            ));
        }
    }
}

/// What the reference engine says about one input.
pub struct Reference {
    pub verdict: Result<Verdict, String>,
    /// Transitions the reduction-free search executed.
    pub transitions: usize,
}

/// Ask the reference engine: reduction-free sequential DFS over the
/// plainly closed program (no `refine_cex`, whose contract is to leave
/// this very verdict unchanged).
pub fn reference(w: &Workload, src: &str) -> Reference {
    // `fuzz_sweep` caps its own searches low; a reference that needs more
    // than this is "no known answer", not worth minutes of a check.
    let budget = match w.inputs {
        Inputs::Fuzz => 1_000_000,
        Inputs::Switch { .. } | Inputs::Corpus => 20_000_000,
    };
    match drive::close(src, false) {
        Ok(c) => {
            let r = drive::explore(&c.closed, &drive::reference_config(w.max_depth, budget));
            Reference {
                verdict: Ok(Verdict::of(&r)),
                transitions: r.transitions,
            }
        }
        Err(e) => Reference {
            verdict: Err(first_line(&e)),
            transitions: 0,
        },
    }
}

/// Whether a measured outcome agrees with the reference engine's answer;
/// `None` when the reference itself ran out of budget and there is no
/// known answer.
///
/// A search that completed must report exactly the reference's kinds. A
/// search cut short by the workload's transition cap has no verdict to
/// compare; it is *expected* only if the reduction-free search, which
/// executes at least as many transitions, is larger than the cap too, and
/// it may not have found a kind the reference does not know.
pub fn agrees(w: &Workload, got: &Outcome, want: &Reference) -> Option<bool> {
    let (Ok(got), Ok(known)) = (&got.verdict, &want.verdict) else {
        return Some(false);
    };
    if known.truncated {
        None
    } else if got.truncated {
        Some(want.transitions > w.max_transitions && got.kinds.is_subset(&known.kinds))
    } else {
        Some(got.kinds == known.kinds)
    }
}

/// FNV-1a over `name:verdict` lines: the stable digest `expected.rs`
/// pins for `fuzz_sweep`'s 30,000 (seed, verdict set) pairs.
pub fn digest<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, verdict) in pairs {
        eat(name.as_bytes());
        eat(b":");
        eat(verdict.as_bytes());
        eat(b"\n");
    }
    h
}

/// The digest of a pass: every input's name and verdict text.
pub fn pass_digest(prep: &Prepared, pass: &Pass) -> u64 {
    let texts: Vec<String> = pass.outcomes.iter().map(Outcome::text).collect();
    digest(
        prep.inputs
            .iter()
            .zip(&texts)
            .map(|(i, t)| (i.name.as_str(), t.as_str())),
    )
}

/// Check every verdict of `pass` against its known answer. Runs after
/// the clock has stopped.
pub fn check(w: &Workload, seed: u64, prep: &Prepared, pass: &Pass) -> Check {
    let mut c = Check::default();
    match w.inputs {
        Inputs::Switch { .. } => {
            let pin = expected::pin(expected::SWITCH, w.name);
            let o = &pass.outcomes[0];
            c.compare(&prep.inputs[0].name, &o.text(), pin.verdict);
            c.drift(
                w.name,
                (o.states, o.transitions),
                (pin.states, pin.transitions),
            );
        }
        Inputs::Corpus => {
            for (input, o) in prep.inputs.iter().zip(&pass.outcomes) {
                let pin = expected::pin(expected::CORPUS, &input.name);
                c.compare(&input.name, &o.text(), pin.verdict);
                c.drift(
                    &input.name,
                    (o.states, o.transitions),
                    (pin.states, pin.transitions),
                );
            }
        }
        Inputs::Fuzz if seed == expected::FUZZ_SEED => {
            if pass_digest(prep, pass) == expected::FUZZ_DIGEST {
                c.attempted = prep.inputs.len();
            } else {
                // Find out which programs differ by asking the reference
                // engine about every one of them.
                recheck(w, prep, pass, 1, &mut c);
                if c.failed == 0 {
                    c.failed = 1;
                    c.notes.push(
                        "fuzz_sweep digest differs from expected.rs although every verdict \
                         matches the reference engine: the pin is stale (run `ledger --pin`)"
                            .to_owned(),
                    );
                }
            }
            c.drift(
                w.name,
                (pass.counts.states, pass.counts.transitions),
                (expected::FUZZ_STATES, expected::FUZZ_TRANSITIONS),
            );
        }
        Inputs::Fuzz => {
            recheck(w, prep, pass, FUZZ_SAMPLE_STRIDE, &mut c);
            // The unsampled programs still count as attempted; an error
            // outcome among them is a failure without asking anyone.
            for (i, o) in pass.outcomes.iter().enumerate() {
                if i % FUZZ_SAMPLE_STRIDE != 0 {
                    c.attempted += 1;
                    c.failed += usize::from(o.verdict.is_err());
                }
            }
        }
    }
    c
}

/// Hold every `stride`-th outcome against the reference engine.
fn recheck(w: &Workload, prep: &Prepared, pass: &Pass, stride: usize, c: &mut Check) {
    for (input, o) in prep.inputs.iter().zip(&pass.outcomes).step_by(stride) {
        let known = reference(w, &input.src);
        match agrees(w, o, &known) {
            Some(ok) => {
                c.record(
                    &input.name,
                    ok,
                    &o.text(),
                    &Verdict::text_of(&known.verdict),
                );
            }
            None => c.notes.push(format!(
                "{}: the reference engine ran out of budget, verdict not checked",
                input.name
            )),
        }
    }
}

/// The result of the traced pass.
pub struct Traced {
    /// Per-layer metric values by name (see `metrics::PER_LAYER`).
    pub values: BTreeMap<&'static str, f64>,
    /// The spans-on recorder, for `trace-<workload>.jsonl`.
    pub tracer: Tracer,
    pub check: Check,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The layers whose self time makes up a stepped search.
const SEARCH_LAYERS: [Layer; 11] = [
    Layer::ExecutorSetup,
    Layer::ExecutorExpand,
    Layer::Por,
    Layer::Interp,
    Layer::StateKey,
    Layer::StateDrop,
    Layer::StoreSetup,
    Layer::StoreProbe,
    Layer::StoreInsert,
    Layer::StoreSeal,
    Layer::StoreSpill,
];

/// The passes `closer::Pipeline::close` chains.
const PIPELINE_LAYERS: [Layer; 11] = [
    Layer::Parse,
    Layer::Sema,
    Layer::Normalize,
    Layer::CfgBuild,
    Layer::CfgHash,
    Layer::PointsTo,
    Layer::ModRef,
    Layer::DefUse,
    Layer::Taint,
    Layer::Transform,
    Layer::RefineCex,
];

/// The traced pass of one workload, measured from outside the product:
///
/// 1. an untraced pass (the numbers marked *untraced* and *report*), and
///    for a multi-worker workload a second one on one worker and one CPU;
/// 2. per input, the front-end passes one by one under spans, then the
///    stepper twice — spans off, spans on — whose difference is the
///    tracing overhead and whose counts must equal the engine's.
pub fn trace(w: &Workload, seed: u64, scratch: &Path, run_id: &str) -> Traced {
    let mut on = Tracer::new(true, run_id);
    let mut off = Tracer::off();
    let prep = prepare(w, seed, scratch, &mut on);
    let hardware_threads = crate::sys::available_parallelism();
    let pass = run_pass(w, &prep, w.jobs(), 0);
    let mut check = check(w, seed, &prep, &pass);
    // The one-worker wall of a multi-worker workload is taken the way a
    // one-worker workload is run: on one CPU, where the engine sees one
    // hardware thread and leaves its chunk pipeline off. Everything
    // after it (the steppers) is single-threaded anyway.
    let one_worker_wall = if w.jobs() > 1 {
        crate::sys::pin_to_last(1).expect("narrowing the CPUs this run already holds");
        run_pass(w, &prep, 1, 1).wall_s
    } else {
        pass.wall_s
    };

    let mut facts = drive::FrontFacts::default();
    let mut composed = 0usize;
    let mut sum = Stepped::default();
    let mut mismatches = 0usize;
    let (mut wall_off, mut wall_on) = (0.0f64, 0.0f64);
    for (i, (input, known)) in prep.inputs.iter().zip(&pass.outcomes).enumerate() {
        let Ok((closed, f)) = drive::close_traced(&input.src, w.refine_cex, &mut on) else {
            // Already counted as a wrong verdict by the untraced pass.
            continue;
        };
        facts.src_bytes += f.src_bytes;
        facts.cfg_nodes += f.cfg_nodes;
        facts.tainted_nodes += f.tainted_nodes;
        if w.refine_cex {
            composed += usize::from(drive::synthesize_env(&closed.open, &mut on));
        }
        if drive::program_hash(&closed.closed) != known.closed_hash {
            mismatches += 1;
            check.notes.push(format!(
                "{}: the traced passes closed to a different program than the pipeline",
                input.name
            ));
            continue;
        }
        let step = |tr: &mut Tracer, tag: &str| {
            let dir = prep.scratch.join(format!("stepper-{tag}-{i}"));
            let cfg = w.config(1, &dir);
            let exec = stepper::executor(&closed.closed, &cfg, tr);
            let t = Instant::now();
            let stepped = match w.search {
                Search::Stateless => stepper::stateless(&exec, tr),
                Search::Frontier { .. } => stepper::frontier(&exec, None, tr),
                Search::OutOfCore => {
                    let s = stepper::frontier(&exec, Some(stepper::spill_dir(&dir)), tr);
                    let _ = std::fs::remove_dir_all(&dir);
                    s
                }
            };
            (stepped, t.elapsed().as_secs_f64())
        };
        // Whichever pass goes second finds the program's data in cache;
        // alternate, so that many small programs do not bias the
        // overhead either way.
        let ((quiet, t_off), (stepped, t_on)) = if i % 2 == 0 {
            let quiet = step(&mut off, "off");
            (quiet, step(&mut on, "on"))
        } else {
            let stepped = step(&mut on, "on");
            (step(&mut off, "off"), stepped)
        };
        wall_off += t_off;
        wall_on += t_on;
        for s in [&quiet, &stepped] {
            if (s.states, s.transitions) != (known.states, known.transitions) {
                mismatches += 1;
                check.notes.push(format!(
                    "{}: stepper counted {}/{} states/transitions, explore {}/{}",
                    input.name, s.states, s.transitions, known.states, known.transitions
                ));
            }
        }
        sum.states += stepped.states;
        sum.transitions += stepped.transitions;
        sum.por_calls += stepped.por_calls;
        sum.por_scheduled += stepped.por_scheduled;
        sum.por_enabled += stepped.por_enabled;
        sum.keys += stepped.keys;
        sum.frontier_peak = sum.frontier_peak.max(stepped.frontier_peak);
    }
    check.failed += mismatches;

    let n = pass.counts;
    let f = |x: usize| x as f64;
    let search_self: f64 = SEARCH_LAYERS.iter().map(|l| on.self_s(*l)).sum();
    let pipeline_self: f64 = PIPELINE_LAYERS.iter().map(|l| on.self_s(*l)).sum();
    let store_busy = on.self_s(Layer::StoreSetup)
        + on.self_s(Layer::StoreProbe)
        + on.self_s(Layer::StoreInsert)
        + on.self_s(Layer::StoreSeal);
    let explores = on.calls(Layer::ExecutorSetup) as f64;
    // Each program's initial state is sealed directly, never offered.
    let winners = f(n.states.saturating_sub(n.programs));
    let p99 = stats::percentile(&pass.close_us, 0.99).unwrap_or(0.0);

    let values = BTreeMap::from([
        ("switchsim.gen_busy_s", on.self_s(Layer::SwitchsimGen)),
        ("switchsim.src_kb", f(facts.src_bytes) / 1e3),
        ("minic.parse.busy_s", on.self_s(Layer::Parse)),
        ("minic.sema.busy_s", on.self_s(Layer::Sema)),
        ("minic.normalize.busy_s", on.self_s(Layer::Normalize)),
        (
            "minic.parse.mb_per_s",
            ratio(f(facts.src_bytes) / 1e6, on.self_s(Layer::Parse)),
        ),
        ("cfgir.build.busy_s", on.self_s(Layer::CfgBuild)),
        ("cfgir.hash.busy_s", on.self_s(Layer::CfgHash)),
        ("cfgir.nodes", f(facts.cfg_nodes)),
        ("dataflow.pointsto.busy_s", on.self_s(Layer::PointsTo)),
        ("dataflow.modref.busy_s", on.self_s(Layer::ModRef)),
        ("dataflow.defuse.busy_s", on.self_s(Layer::DefUse)),
        ("dataflow.taint.busy_s", on.self_s(Layer::Taint)),
        (
            "dataflow.tainted_node_share",
            ratio(f(facts.tainted_nodes), f(facts.cfg_nodes)),
        ),
        ("closer.transform.busy_s", on.self_s(Layer::Transform)),
        ("closer.toss_sites", f(pass.toss_sites)),
        (
            "closer.nodes_removed_share",
            1.0 - ratio(f(pass.nodes_kept), f(pass.nodes_before)),
        ),
        ("closer.pipeline.busy_s", pass.close_s),
        (
            "closer.pipeline.us_per_program_p50",
            stats::median(&pass.close_us),
        ),
        ("closer.pipeline.us_per_program_p99", p99),
        (
            "closer.pipeline.attributed_share",
            ratio(pipeline_self, pass.close_s),
        ),
        (
            "closer.pipeline.own_timers_share",
            ratio(pass.own_timers_s, pass.close_s),
        ),
        ("closer.refine_cex.busy_s", on.self_s(Layer::RefineCex)),
        ("closer.refine_cex.iterations", f(pass.cex.iterations)),
        (
            "closer.refine_cex.outcomes_pruned",
            f(pass.cex.outcomes_pruned),
        ),
        (
            "closer.refine_cex.state_reduction",
            if pass.cex.states_before == 0 {
                0.0
            } else {
                1.0 - ratio(f(pass.cex.states_after), f(pass.cex.states_before))
            },
        ),
        (
            "closer.refine_cex.reverted_programs",
            f(pass.cex.reverted_programs),
        ),
        (
            "envgen.synthesize.busy_s",
            on.self_s(Layer::EnvgenSynthesize),
        ),
        ("envgen.composed_programs", f(composed)),
        (
            "verisoft.executor.setup_us_per_explore",
            ratio(on.self_s(Layer::ExecutorSetup) * 1e6, explores),
        ),
        (
            "verisoft.executor.setup_busy_s",
            on.self_s(Layer::ExecutorSetup),
        ),
        (
            "verisoft.executor.expand_busy_s",
            on.self_s(Layer::ExecutorExpand),
        ),
        ("verisoft.por.busy_s", on.self_s(Layer::Por)),
        ("verisoft.por.calls", f(sum.por_calls)),
        (
            "verisoft.por.ns_per_call",
            ratio(on.self_s(Layer::Por) * 1e9, f(sum.por_calls)),
        ),
        (
            "verisoft.por.scheduled_share",
            ratio(f(sum.por_scheduled), f(sum.por_enabled)),
        ),
        ("verisoft.por.skipped_procs", f(n.por_skipped_procs)),
        ("verisoft.por.proviso_fallbacks", f(n.por_proviso_fallbacks)),
        ("verisoft.interp.busy_s", on.self_s(Layer::Interp)),
        ("verisoft.interp.transitions", f(sum.transitions)),
        (
            "verisoft.interp.ns_per_transition",
            ratio(on.self_s(Layer::Interp) * 1e9, f(sum.transitions)),
        ),
        ("verisoft.interp.tosses_taken", f(n.tosses_taken)),
        (
            "verisoft.interp.cow_shared_share",
            ratio(f(n.shared_components), f(n.total_components)),
        ),
        (
            "verisoft.state.busy_s",
            on.self_s(Layer::StateKey) + on.self_s(Layer::StateDrop),
        ),
        ("verisoft.state.drop_busy_s", on.self_s(Layer::StateDrop)),
        ("verisoft.state.keys", f(sum.keys)),
        (
            "verisoft.state.ns_per_key",
            ratio(on.self_s(Layer::StateKey) * 1e9, f(sum.keys)),
        ),
        (
            "verisoft.state.raw_bytes_per_state",
            ratio(f(n.visited_bytes), f(n.visited_states)),
        ),
        (
            "verisoft.state.stored_bytes_per_state",
            ratio(f(n.stored_bytes), f(n.visited_states)),
        ),
        ("verisoft.state.interner_entries", f(n.interner_entries)),
        ("verisoft.store.busy_s", store_busy),
        (
            "verisoft.store.setup_us_per_explore",
            ratio(on.self_s(Layer::StoreSetup) * 1e6, explores),
        ),
        (
            "verisoft.store.ns_per_key",
            ratio(store_busy * 1e9, f(sum.keys)),
        ),
        (
            "verisoft.store.duplicate_share",
            if sum.keys == 0 {
                0.0
            } else {
                1.0 - ratio(winners, f(sum.keys))
            },
        ),
        (
            "verisoft.store.items_per_batch",
            ratio(f(n.batch_items), f(n.batch_ops)),
        ),
        (
            "verisoft.store.lock_acquisitions_avoided",
            f(n.lock_acquisitions_avoided),
        ),
        (
            "verisoft.store.disk.spill_busy_s",
            on.self_s(Layer::StoreSpill),
        ),
        ("verisoft.store.disk.spilled_entries", f(n.spilled_entries)),
        ("verisoft.store.disk.segments", f(n.segments)),
        (
            "verisoft.store.disk.segments_compacted",
            f(n.segments_compacted),
        ),
        (
            "verisoft.store.disk.prefilter_screen_share",
            ratio(f(n.prefilter_hits), f(n.prefilter_probes)),
        ),
        ("verisoft.store.disk.dir_mb", pass.dir_mb),
        ("verisoft.store.spool.spooled_entries", f(n.spooled_entries)),
        (
            "verisoft.store.checkpoint.written",
            f(n.checkpoints_written),
        ),
        ("verisoft.search.busy_s", pass.explore_s),
        ("verisoft.search.states", f(n.states)),
        ("verisoft.search.transitions", f(n.transitions)),
        ("verisoft.search.max_depth", f(n.max_depth)),
        (
            "verisoft.search.states_per_s",
            ratio(f(n.states), pass.explore_s),
        ),
        (
            "verisoft.search.us_per_state",
            ratio(pass.explore_s * 1e6, f(n.states)),
        ),
        ("verisoft.search.frontier_peak_states", f(sum.frontier_peak)),
        (
            "verisoft.search.pipeline_overlap_share",
            ratio(f(n.pipeline_overlapped_chunks), f(n.pipeline_chunks)),
        ),
        (
            "verisoft.search.parallel_efficiency",
            ratio(one_worker_wall, f(w.jobs()) * pass.wall_s),
        ),
        (
            "verisoft.search.attributed_share",
            ratio(search_self, pass.explore_s),
        ),
        (
            "verisoft.search.driver_residual_s",
            pass.explore_s - search_self,
        ),
        ("verisoft.search.stepper_count_mismatches", f(mismatches)),
        (
            "ledger.trace_overhead_share",
            ratio(wall_on, wall_off) - 1.0,
        ),
        ("ledger.stepper_wall_s", wall_on),
        ("ledger.hardware_threads", f(hardware_threads)),
    ]);
    debug_assert!(values
        .keys()
        .all(|k| crate::metrics::per_layer(k).is_some()));
    Traced {
        values,
        tracer: on,
        check,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_move_with_it() {
        let w = by_name("fuzz_sweep").unwrap();
        let mut tr = Tracer::off();
        let a: Vec<String> = (0..3u64).map(|i| drive::gen_fuzz(7_000_000 + i)).collect();
        let b: Vec<String> = (0..3u64).map(|i| drive::gen_fuzz(7_000_000 + i)).collect();
        assert_eq!(a, b);
        assert_ne!(drive::gen_fuzz(7_000_000), drive::gen_fuzz(8_000_000));
        let corpus = inputs(by_name("corpus_refine_cex").unwrap(), 9, &mut tr);
        assert_eq!(corpus.len(), 14);
        assert!(w.seeded() && !by_name("switch3_frontier_j1").unwrap().seeded());
    }

    #[test]
    fn digest_depends_on_every_pair_and_their_order() {
        let d = |p: &[(&str, &str)]| digest(p.iter().copied());
        let base = d(&[("1", "clean"), ("2", "deadlock")]);
        assert_eq!(base, d(&[("1", "clean"), ("2", "deadlock")]));
        assert_ne!(base, d(&[("1", "clean"), ("2", "clean")]));
        assert_ne!(base, d(&[("2", "deadlock"), ("1", "clean")]));
        assert_ne!(d(&[("1", "2:x")]), d(&[("1:2", "x")]) ^ 1);
    }

    #[test]
    fn a_pass_over_the_first_fuzz_programs_checks_out() {
        // The untraced pass and the reference re-check end to end, on
        // few enough programs for a unit test.
        let w = by_name("fuzz_sweep").unwrap();
        let mut tr = Tracer::off();
        let mut prep = prepare(w, 1, Path::new("unused"), &mut tr);
        prep.inputs.truncate(40);
        let pass = run_pass(w, &prep, 1, 0);
        assert_eq!(pass.outcomes.len(), 40);
        assert!(pass.wall_s >= pass.close_s && pass.counts.programs == 40);
        assert!(pass.own_timers_s > 0.0 && pass.own_timers_s <= pass.close_s);
        let mut c = Check::default();
        recheck(w, &prep, &pass, 1, &mut c);
        assert_eq!((c.attempted, c.failed), (40, 0), "{:?}", c.notes);
    }

    #[test]
    fn a_truncated_search_is_expected_only_when_the_full_search_is_larger() {
        let w = by_name("fuzz_sweep").unwrap();
        let outcome = |kinds: &[&str], truncated: bool| Outcome {
            verdict: Ok(Verdict {
                kinds: kinds.iter().map(|k| (*k).to_owned()).collect(),
                truncated,
            }),
            states: 0,
            transitions: 0,
            closed_hash: 0,
        };
        let known = |kinds: &[&str], truncated: bool, transitions: usize| Reference {
            verdict: outcome(kinds, truncated).verdict,
            transitions,
        };
        let cap = w.max_transitions;
        // Completed searches compare kind sets exactly.
        assert_eq!(
            agrees(
                w,
                &outcome(&["deadlock"], false),
                &known(&["deadlock"], false, 9)
            ),
            Some(true)
        );
        assert_eq!(
            agrees(w, &outcome(&[], false), &known(&["deadlock"], false, 9)),
            Some(false)
        );
        // Cut short: fine when the reduction-free search exceeds the cap…
        assert_eq!(
            agrees(
                w,
                &outcome(&[], true),
                &known(&["deadlock"], false, cap + 1)
            ),
            Some(true)
        );
        // …a wrong verdict when that search fits under it…
        assert_eq!(
            agrees(w, &outcome(&[], true), &known(&[], false, cap)),
            Some(false)
        );
        // …or when the partial search invented a kind.
        assert_eq!(
            agrees(
                w,
                &outcome(&["deadlock"], true),
                &known(&[], false, cap + 1)
            ),
            Some(false)
        );
        // No known answer when the reference itself gave up.
        assert_eq!(
            agrees(w, &outcome(&[], false), &known(&[], true, 1_000_000)),
            None
        );
        // A diagnostic or a panic never agrees.
        let error = Outcome {
            verdict: Err("panic while exploring".to_owned()),
            ..outcome(&[], false)
        };
        assert_eq!(agrees(w, &error, &known(&[], false, 9)), Some(false));
        assert_eq!(error.text(), "error: panic while exploring");
        assert_eq!(outcome(&["b", "a"], false).text(), "a+b");
        assert_eq!(outcome(&["a"], true).text(), "(truncated)");
    }

    #[test]
    fn a_wrong_verdict_and_a_panic_count_as_failures() {
        let mut c = Check::default();
        c.compare("x", "clean", "clean");
        c.compare("y", "clean", "deadlock");
        c.compare("z", "error: panic while exploring", "clean");
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert_eq!(c.notes.len(), 2);
    }
}
