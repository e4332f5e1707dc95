//! `reclose` — the command-line front end of the toolchain.
//!
//! ```text
//! reclose check <file.mc>                      parse + semantic check
//! reclose close <file.mc> [options]            run the closing transformation
//! reclose explore <file.mc> [options]          state-space exploration
//! reclose run <file.mc> <schedule>             replay a decision schedule
//! reclose graph <file.mc>                      Graphviz DOT of the CFGs
//! reclose envgen <file.mc>                     explicit most-general-environment synthesis
//! reclose switchgen [--lines N] [...]          emit the synthetic switch source
//! reclose fuzz [--seeds N] [...]               differential fuzzing of the whole toolchain
//! ```

use reclose::prelude::*;
use std::process::ExitCode;

/// `print!` that ends the run, instead of panicking, when stdout fails:
/// quietly when the reader has gone (`reclose … | head -1`), with a
/// diagnostic otherwise (e.g. a full disk).
macro_rules! out {
    ($($arg:tt)*) => {
        stdout_written(std::io::Write::write_fmt(&mut std::io::stdout(), format_args!($($arg)*)))
    };
}

/// [`out!`] with a trailing newline, like `println!`.
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn stdout_written(r: std::io::Result<()>) {
    if let Err(e) = r {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "usage: reclose <check|close|explore|graph|envgen|switchgen|fuzz> [args]\n\
     \n\
     check <file>                 parse and semantically check a MiniC program\n\
     close <file> [options]       close the open interface (prints listings by default)\n\
         --dot                    print Graphviz DOT of the closed program\n\
         --stats                  per-procedure close reports plus per-pass\n\
                                  pipeline metrics (runs, facts, wall)\n\
         --refine                 partition input domains first (interface\n\
                                  simplification) where the analysis allows it\n\
         --refine-cex             counterexample-guided toss refinement: replay\n\
                                  closed-program violations against the open\n\
                                  program, prune toss outcomes no concrete\n\
                                  environment can realise, and keep the result\n\
                                  only if the verdict set is unchanged\n\
     explore <file> [options]     systematically explore the state space\n\
         --enumerate              run S x E_S by domain enumeration (open programs)\n\
         --close                  close the program first, then explore\n\
         --refine-cex             with --close: counterexample-guided toss\n\
                                  refinement before exploring (verdict set is\n\
                                  identical; the state space may be smaller)\n\
         --classify-violations    with --close: replay each violation against\n\
                                  the original open program and label it\n\
                                  real / spurious / unknown\n\
         --depth N                maximum path length (default 2000)\n\
         --max-transitions N      transition cap (default 5000000)\n\
         --all                    report all violations, not just the first\n\
         --stateful               use the explicit-state engine\n\
         --bfs                    explicit-state breadth-first (shortest\n\
                                  traces): the frontier engine, i.e.\n\
                                  --stateful --jobs 1\n\
         --jobs N|auto            with --stateful or --bfs: the frontier search\n\
                                  on N threads (`auto`: one per hardware\n\
                                  thread), deterministic: the report is\n\
                                  byte-identical for any N. The stateless\n\
                                  search is sequential and rejects --jobs\n\
         --mem-limit BYTES        frontier engines: soft budget for resident\n\
                                  search state (suffixes k/m/g); excess spills\n\
                                  to disk, the report is byte-identical to an\n\
                                  unbounded run\n\
         --checkpoint-dir D       frontier engines: spill into D and write a\n\
                                  resumable checkpoint at level boundaries\n\
         --checkpoint-every N     checkpoint period in frontier levels, at\n\
                                  least 1 (default 32)\n\
         --resume D               continue a checkpointed run from D; the\n\
                                  final report is byte-identical to an\n\
                                  uninterrupted run, for any --jobs and any\n\
                                  --mem-limit\n\
         --abort-after-checkpoints N\n\
                                  test hook: stop the run, reported as\n\
                                  truncated, right after its Nth checkpoint\n\
         --por / --no-por         enable (default) / disable partial-order\n\
                                  reduction. The stateful engines use\n\
                                  persistent sets with a cycle proviso; the\n\
                                  stateless engine adds sleep sets\n\
         --no-compress            every engine: no component interning, so no\n\
                                  transition memo and no facts table; every\n\
                                  transition is interpreted and every state\n\
                                  built (the stateful engines store full\n\
                                  canonical encodings instead of component-ID\n\
                                  tuples). The oracle the compressed path is\n\
                                  diffed against: the report is byte-identical\n\
                                  either way, but a checkpoint cannot be\n\
                                  resumed across modes\n\
         --stats                  print states/sec, toss choices taken,\n\
                                  visited-store bytes and\n\
                                  state count, the compression ratio and\n\
                                  interner size, the CoW sharing ratio, the\n\
                                  POR reduction counters, the transition\n\
                                  memo's hits and misses (every engine), and\n\
                                  (frontier engines) peak resident store\n\
                                  bytes, spilled entries, spill and\n\
                                  checkpoint counts, and the commit's\n\
                                  batches (one per chunk) and their items\n\
         --coverage               print covered/total CFG nodes, overall and\n\
                                  per procedure (not with --checkpoint-dir)\n\
         --explain                replay and pretty-print each violation\n\
     run <file> <schedule...>     replay a schedule and print its events;\n\
                                  a schedule is decisions like P0 P1[2,0] P0\n\
                                  (process index, bracketed toss choices);\n\
                                  add --enumerate for open programs\n\
     graph <file>                 print Graphviz DOT for every procedure\n\
     envgen <file>                synthesize the explicit most general environment\n\
     switchgen [--lines N] [--events N] [--trunks N]\n\
               [--seed-deadlock] [--seed-assert] [--stub] [--voicemail]\n\
                                  emit the synthetic switch application source\n\
     fuzz [options]               adversarial corpus engine: generate random open\n\
                                  programs, close them, and cross-check every\n\
                                  engine x POR x jobs configuration; exits\n\
                                  nonzero on any divergence, panic, or\n\
                                  generator-produced compile failure\n\
         --seeds N                seeds to try (default 200)\n\
         --seed-start N           first seed (default 0); a divergence at seed\n\
                                  K reproduces with --seed-start K --seeds 1\n\
         --budget SECS            wall-clock budget; stops cleanly at the next\n\
                                  seed boundary once exceeded\n\
         --out DIR                write each divergence's reproducer to\n\
                                  DIR/seed_<K>.mc (minimized when enabled)\n\
         --no-minimize            keep divergent programs unminimized"
        .to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "check" => one_path(args, check),
        "close" => close_cmd(&args[1..]),
        "explore" => explore_cmd(&args[1..]),
        "run" => run_schedule(&args[1..]),
        "graph" => one_path(args, graph),
        "envgen" => one_path(args, envgen_cmd),
        "switchgen" => switchgen(&args[1..]),
        "fuzz" => fuzz_cmd(&args[1..]),
        "--help" | "-h" | "help" => {
            outln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Fail closed on what subcommand `cmd` does not understand: every
/// argument must be one of its `switches`, or one of its value-taking
/// `options` followed by a value.
fn check_args(
    cmd: &str,
    args: &[String],
    switches: &[&str],
    options: &[&str],
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if options.contains(&a.as_str()) {
            if it.next().is_none_or(|v| v.starts_with("--")) {
                return Err(format!("{cmd}: {a} needs a value"));
            }
        } else if !switches.contains(&a.as_str()) {
            return Err(format!("{cmd}: unknown option `{a}`"));
        }
    }
    Ok(())
}

/// Run a subcommand that takes one path and nothing else.
fn one_path(args: &[String], cmd: fn(&str) -> Result<(), String>) -> Result<(), String> {
    let path = args.get(1).ok_or_else(usage)?;
    check_args(&args[0], &args[2..], &[], &[])?;
    cmd(path)
}

/// Parse a `--jobs` value: a thread count of at least 1, or `auto` for
/// one worker per hardware thread. Everything that takes `--jobs` is
/// deterministic in the worker count, so `auto` never changes any output,
/// only wall clock.
fn parse_jobs(v: &str) -> Result<usize, String> {
    if v == "auto" {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    }
    match v.parse::<usize>().map_err(|e| format!("--jobs: {e}"))? {
        0 => Err("explore: --jobs needs at least 1 worker".into()),
        n => Ok(n),
    }
}

/// Parse a byte count with optional `k`/`m`/`g` suffix (powers of 1024).
fn parse_bytes(v: &str) -> Result<usize, String> {
    let s = v.to_ascii_lowercase();
    let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) => (
            d,
            match s.as_bytes()[s.len() - 1] {
                b'k' => 1usize << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            },
        ),
        None => (s.as_str(), 1),
    };
    digits
        .parse::<usize>()
        .map_err(|e| format!("--mem-limit: {e}"))?
        .checked_mul(mult)
        .ok_or_else(|| "--mem-limit: overflows".to_string())
}

/// Read `path` and run `f` on its source, rendering any front-end
/// diagnostics against that source.
fn load_with<T>(
    path: &str,
    f: impl FnOnce(&str) -> Result<T, minic::Diagnostics>,
) -> Result<T, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    f(&src).map_err(|d| format!("{path}:\n{}", d.render(&src)))
}

fn load(path: &str) -> Result<CfgProgram, String> {
    load_with(path, compile)
}

fn check(path: &str) -> Result<(), String> {
    let prog = load(path)?;
    outln!(
        "ok: {} procedure(s), {} process(es), {} object(s), {} node(s){}",
        prog.procs.len(),
        prog.processes.len(),
        prog.objects.len(),
        prog.node_count(),
        if prog.has_open_interface() {
            " — open system"
        } else {
            " — closed system"
        }
    );
    Ok(())
}

fn close_cmd(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    check_args(
        "close",
        &args[1..],
        &["--dot", "--stats", "--refine", "--refine-cex"],
        &[],
    )?;
    let pipeline = closer::Pipeline::new(closer::PipelineOptions {
        refine: args.iter().any(|a| a == "--refine"),
        refine_cex: args.iter().any(|a| a == "--refine-cex"),
    });
    let run = load_with(path, |src| pipeline.close(src))?;
    for r in &run.refine_reports {
        eprintln!(
            "refined {}::{:?} ({:?}): {} classes over a domain of {} (representatives {:?})",
            r.proc,
            r.node,
            r.kind,
            r.representatives.len(),
            r.domain_size,
            r.representatives
        );
    }
    let closed = &run.closed;
    if args.iter().any(|a| a == "--dot") {
        outln!("{}", cfgir::program_to_dot(&closed.program));
        return Ok(());
    }
    if args.iter().any(|a| a == "--stats") {
        for (r, cmp) in closed
            .reports
            .iter()
            .zip(closer::compare(&run.program, &closed.program))
        {
            outln!(
                "{}: nodes {} -> {} (+{} toss over {} site(s)), params removed {}, branching {} -> {}",
                r.name,
                r.nodes_before,
                r.nodes_kept,
                r.toss_nodes_inserted,
                r.toss_sites.len(),
                r.params_removed,
                cmp.degree_before,
                cmp.degree_after
            );
        }
        if let Some(cex) = &run.cex_report {
            outln!(
                "refine-cex: {} iteration(s), {} trace(s) classified \
                 ({} real, {} spurious, {} unknown), {} outcome(s) pruned, \
                 {} site(s) bypassed, states {} -> {}{}",
                cex.iterations,
                cex.classified,
                cex.real,
                cex.spurious,
                cex.unknown,
                cex.outcomes_pruned,
                cex.sites_bypassed,
                cex.states_before,
                cex.states_after,
                if cex.reverted {
                    " (a batch prune was reverted)"
                } else {
                    ""
                }
            );
        }
        for p in &run.passes {
            outln!(
                "pass {}: {} run(s), {} fact(s), {:.3} ms",
                p.name,
                p.invocations,
                p.facts,
                p.wall.as_secs_f64() * 1e3
            );
        }
        return Ok(());
    }
    for p in &closed.program.procs {
        outln!("{}", cfgir::proc_to_listing(p));
    }
    Ok(())
}

fn explore_cmd(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    check_args(
        "explore",
        &args[1..],
        &[
            "--enumerate",
            "--close",
            "--refine-cex",
            "--classify-violations",
            "--all",
            "--stateful",
            "--bfs",
            "--por",
            "--no-por",
            "--no-compress",
            "--stats",
            "--coverage",
            "--explain",
        ],
        &[
            "--depth",
            "--max-transitions",
            "--jobs",
            "--mem-limit",
            "--checkpoint-dir",
            "--checkpoint-every",
            "--resume",
            "--abort-after-checkpoints",
        ],
    )?;
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let opt = |name: &str| {
        opt_val(name)
            .map(|v| v.parse::<usize>().map_err(|e| format!("{name}: {e}")))
            .transpose()
    };
    if opt("--checkpoint-every")? == Some(0) {
        return Err("explore: --checkpoint-every needs a period of at least 1 level".into());
    }
    // `--close` goes through the same pipeline as `reclose close`; the
    // open program it closed is kept so `--classify-violations` can
    // replay closed-program traces against the open semantics.
    let (prog, open_prog) = if flag("--close") {
        let pipeline = closer::Pipeline::new(closer::PipelineOptions {
            refine_cex: flag("--refine-cex"),
            ..closer::PipelineOptions::default()
        });
        let run = load_with(path, |src| pipeline.close(src))?;
        (run.closed.program, Some(run.program))
    } else {
        (load(path)?, None)
    };
    if flag("--refine-cex") && open_prog.is_none() {
        return Err("--refine-cex needs --close (it refines the closing transformation)".into());
    }
    if flag("--classify-violations") && open_prog.is_none() {
        return Err(
            "--classify-violations needs --close (it compares the closed \
                    program's violations against the open original)"
                .into(),
        );
    }
    let jobs_arg = opt_val("--jobs").map(|v| parse_jobs(v)).transpose()?;
    let resume_dir = opt_val("--resume").cloned();
    let checkpoint_dir = opt_val("--checkpoint-dir").cloned().or(resume_dir.clone());
    let config = Config {
        env_mode: if flag("--enumerate") {
            EnvMode::Enumerate
        } else {
            EnvMode::Closed
        },
        // `--bfs` is the frontier engine; alone it runs at `jobs = 1`.
        engine: match (flag("--bfs"), flag("--stateful"), jobs_arg.is_some()) {
            (true, _, _) | (_, true, true) => Engine::StatefulParallel,
            (false, true, false) => Engine::Stateful,
            (false, false, true) => {
                return Err(
                    "--jobs needs the frontier engine: pass --stateful --jobs N, \
                     or --bfs --jobs N (the stateless search is sequential)"
                        .into(),
                )
            }
            (false, false, false) => Engine::Stateless,
        },
        jobs: jobs_arg.unwrap_or(1),
        // `--por` is the (default-on) positive form; `--no-por` wins if
        // both are given, so scripts can append an override.
        por: !flag("--no-por"),
        sleep_sets: !flag("--no-por"),
        max_violations: if flag("--all") { usize::MAX } else { 1 },
        max_depth: opt("--depth")?.unwrap_or(2_000),
        max_transitions: opt("--max-transitions")?.unwrap_or(5_000_000),
        track_coverage: flag("--coverage"),
        mem_limit: opt_val("--mem-limit")
            .map(|v| parse_bytes(v))
            .transpose()?
            .unwrap_or(usize::MAX),
        checkpoint_dir: checkpoint_dir.map(std::path::PathBuf::from),
        checkpoint_every: opt("--checkpoint-every")?.unwrap_or(32),
        resume: resume_dir.is_some(),
        abort_after_checkpoints: opt("--abort-after-checkpoints")?,
        no_compress: flag("--no-compress"),
        ..Config::default()
    };
    if prog.has_env_reads() && config.env_mode == EnvMode::Closed {
        return Err(
            "program is open: pass --enumerate to compose with E_S, or --close to close it first"
                .into(),
        );
    }
    let out_of_core = config.mem_limit != usize::MAX || config.checkpoint_dir.is_some();
    if out_of_core && config.engine != Engine::StatefulParallel {
        return Err(
            "--mem-limit/--checkpoint-dir/--resume need the frontier engine: \
             pass --bfs, or --stateful with --jobs"
                .into(),
        );
    }
    if config.checkpoint_dir.is_some() && config.track_coverage {
        return Err(
            "--coverage cannot be combined with checkpointing (coverage maps are not \
             part of the checkpoint format)"
                .into(),
        );
    }
    let started = std::time::Instant::now();
    let report = try_explore(&prog, &config).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    outln!("{report}");
    if flag("--stats") {
        let rate = report.states as f64 / wall.as_secs_f64().max(1e-9);
        outln!(
            "stats: {:.1} states/sec over {:.3}s",
            rate,
            wall.as_secs_f64()
        );
        outln!("stats: tosses taken: {}", report.tosses_taken);
        if report.visited_states > 0 {
            outln!(
                "stats: visited store: {} states, {} bytes ({:.1} bytes/state)",
                report.visited_states,
                report.visited_bytes,
                report.visited_bytes as f64 / report.visited_states as f64
            );
        }
        if report.interner_entries > 0 {
            // Dedup ratio: raw canonical bytes per byte actually stored
            // (tuples + one copy of each distinct component).
            let stored = report.store_stored_bytes + report.interner_bytes;
            outln!(
                "stats: compression: {} stored + {} interner bytes \
                 ({:.1} stored bytes/state, {} component(s) interned, \
                 {:.2}x dedup)",
                report.store_stored_bytes,
                report.interner_bytes,
                report.store_stored_bytes as f64 / report.visited_states.max(1) as f64,
                report.interner_entries,
                report.visited_bytes as f64 / stored.max(1) as f64
            );
        }
        if report.total_components > 0 {
            outln!(
                "stats: CoW sharing: {}/{} successor components shared ({:.1}%)",
                report.shared_components,
                report.total_components,
                100.0 * report.shared_components as f64 / report.total_components as f64
            );
        }
        if config.por && report.visited_states > 0 {
            outln!(
                "stats: POR: skipped {} process expansions, {} proviso fallbacks",
                report.por_skipped_procs,
                report.por_proviso_fallbacks
            );
        }
        if report.store_peak_mem_bytes > 0 {
            outln!(
                "stats: store: peak resident {} bytes, {} spilled state(s), \
                 {} frontier entry(ies) spooled, {} spill(s) to the tier-1 \
                 log, {} checkpoint(s)",
                report.store_peak_mem_bytes,
                report.store_spilled_entries,
                report.frontier_spilled_entries,
                report.store_segments,
                report.checkpoints_written
            );
        }
        if report.store_batch_ops > 0 {
            outln!(
                "stats: batched commit: {} batch(es) carrying {} item(s) \
                 ({:.1} items/batch)",
                report.store_batch_ops,
                report.store_batch_items,
                report.store_batch_items as f64 / report.store_batch_ops as f64
            );
        }
        let memo = report.memo;
        if memo.lookups() > 0 {
            outln!(
                "stats: transition memo: {} hit(s), {} miss(es), {} bypassed \
                 (spawn {}, budget {}, cold {}), {} state(s) materialised",
                memo.hits,
                memo.misses,
                memo.bypassed(),
                memo.bypass_spawn,
                memo.bypass_budget,
                memo.bypass_cold,
                memo.materialised
            );
        }
    }
    if let Some(cov) = &report.coverage {
        let (covered, total) = cov.totals();
        outln!("coverage: {covered}/{total} nodes");
        for p in &prog.procs {
            let c = cov.covered_count(p.id);
            outln!("  {}: {}/{}", p.name, c, p.nodes.len());
        }
    }
    if flag("--explain") {
        for v in &report.violations {
            outln!(
                "\n{}",
                verisoft::explain_violation(&prog, v, config.env_mode)
            );
        }
    }
    if flag("--classify-violations") {
        let open = open_prog.as_ref().unwrap();
        for (i, v) in report.violations.iter().enumerate() {
            let label = match closer::classify_trace(open, v) {
                closer::TraceClass::Real => "real",
                closer::TraceClass::Spurious => "spurious",
                closer::TraceClass::Unknown => "unknown",
            };
            outln!("classify: violation {i} ({:?}): {label}", v.kind);
        }
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} violation(s) found", report.violations.len()))
    }
}

fn run_schedule(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let (flags, tokens): (Vec<String>, Vec<String>) =
        args[1..].iter().cloned().partition(|a| a.starts_with("--"));
    check_args("run", &flags, &["--enumerate"], &[])?;
    let prog = load(path)?;
    let env_mode = if flags.iter().any(|a| a == "--enumerate") {
        EnvMode::Enumerate
    } else {
        EnvMode::Closed
    };
    let mut trace = Vec::new();
    for tok in &tokens {
        trace.push(parse_decision(tok)?);
    }
    if trace.is_empty() {
        return Err("no schedule given (e.g. `reclose run prog.mc P0 P1[1] P0`)".into());
    }
    let (rendered, state) = verisoft::explain::render_schedule(&prog, &trace, env_mode);
    out!("{rendered}");
    match state {
        Some(s) => {
            let enabled = verisoft::enabled_processes(&prog, &s);
            if enabled.is_empty() {
                outln!("end: no enabled transitions");
            } else {
                let names: Vec<String> = enabled
                    .iter()
                    .map(|p| {
                        format!(
                            "P{p} ({})",
                            verisoft::spec_display_name(&prog, s.procs[*p].spec)
                        )
                    })
                    .collect();
                outln!("end: enabled next: {}", names.join(", "));
            }
            Ok(())
        }
        None => Err("schedule did not replay to completion".into()),
    }
}

/// Parse `P<idx>` or `P<idx>[c1,c2,...]`.
fn parse_decision(tok: &str) -> Result<verisoft::Decision, String> {
    let rest = tok
        .strip_prefix('P')
        .ok_or_else(|| format!("bad decision `{tok}` (expected P<n> or P<n>[c,...])"))?;
    let (idx, choices) = match rest.split_once('[') {
        None => (rest, Vec::new()),
        Some((idx, tail)) => {
            let inner = tail
                .strip_suffix(']')
                .ok_or_else(|| format!("bad decision `{tok}`: missing `]`"))?;
            let choices: Result<Vec<u32>, _> =
                inner.split(',').map(|c| c.trim().parse::<u32>()).collect();
            (
                idx,
                choices.map_err(|e| format!("bad choice in `{tok}`: {e}"))?,
            )
        }
    };
    Ok(verisoft::Decision {
        process: idx
            .parse::<usize>()
            .map_err(|e| format!("bad process in `{tok}`: {e}"))?,
        choices,
    })
}

fn graph(path: &str) -> Result<(), String> {
    let prog = load(path)?;
    outln!("{}", cfgir::program_to_dot(&prog));
    Ok(())
}

fn envgen_cmd(path: &str) -> Result<(), String> {
    let prog = load(path)?;
    let syn = synthesize(&prog).map_err(|e| e.to_string())?;
    outln!(
        "// E_S: {} environment process(es), {} channel(s), {} domain value(s)",
        syn.report.env_processes,
        syn.report.env_channels,
        syn.report.total_domain_values
    );
    for p in &syn.program.procs {
        outln!("{}", cfgir::proc_to_listing(p));
    }
    Ok(())
}

fn fuzz_cmd(args: &[String]) -> Result<(), String> {
    check_args(
        "fuzz",
        args,
        &["--no-minimize"],
        &["--seeds", "--seed-start", "--budget", "--out"],
    )?;
    let opt_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let num = |name: &str| {
        opt_val(name)
            .map(|v| v.parse::<u64>().map_err(|e| format!("{name}: {e}")))
            .transpose()
    };
    let opts = switchsim::corpus::FuzzOptions {
        seed_start: num("--seed-start")?.unwrap_or(0),
        seeds: num("--seeds")?.unwrap_or(200),
        budget: num("--budget")?.map(std::time::Duration::from_secs),
        minimize: !args.iter().any(|a| a == "--no-minimize"),
        limits: switchsim::oracle::OracleLimits::default(),
    };
    let summary = switchsim::corpus::fuzz(&opts);
    outln!("{summary}");
    let out_dir = opt_val("--out").map(std::path::PathBuf::from);
    if let Some(dir) = &out_dir {
        if !summary.divergences.is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("--out {}: {e}", dir.display()))?;
        }
    }
    for d in &summary.divergences {
        eprintln!(
            "\n== seed {}: {}",
            d.seed,
            d.detail.lines().next().unwrap_or("")
        );
        let repro = d.minimized.as_deref().unwrap_or(&d.source);
        match &out_dir {
            Some(dir) => {
                let path = dir.join(format!("seed_{}.mc", d.seed));
                std::fs::write(&path, repro).map_err(|e| format!("{}: {e}", path.display()))?;
                eprintln!("   reproducer: {}", path.display());
            }
            None => eprintln!("{repro}"),
        }
    }
    if summary.ok() {
        Ok(())
    } else {
        Err(format!(
            "{} divergence(s), {} panic(s), {} compile failure(s)",
            summary.divergences.len(),
            summary.panics,
            summary.compile_failures
        ))
    }
}

fn switchgen(args: &[String]) -> Result<(), String> {
    check_args(
        "switchgen",
        args,
        &["--seed-deadlock", "--seed-assert", "--stub", "--voicemail"],
        &["--lines", "--events", "--trunks"],
    )?;
    let opt = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse::<usize>().map_err(|e| format!("{name}: {e}")))
            .transpose()
            .map(|v| v.unwrap_or(default))
    };
    let cfg = switchsim::SwitchConfig {
        lines: opt("--lines", 2)?,
        trunks: opt("--trunks", 1)? as i64,
        events_per_line: opt("--events", 2)? as i64,
        seed_deadlock: args.iter().any(|a| a == "--seed-deadlock"),
        seed_assert: args.iter().any(|a| a == "--seed-assert"),
        manual_stub_line0: args.iter().any(|a| a == "--stub"),
        with_voicemail: args.iter().any(|a| a == "--voicemail"),
    };
    out!("{}", switchsim::generate(&cfg));
    Ok(())
}
