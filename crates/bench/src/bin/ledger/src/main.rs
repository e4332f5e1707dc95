//! `ledger` — the repository's benchmark: source → close → explore →
//! verdict on six workloads, end to end and layer by layer.
//!
//! ```text
//! ledger [--seed N] [--reps R] [--out FILE]                the whole ledger
//! ledger --workload W --seed N --seconds S --trace 0|1   one run (benchmark contract)
//! ledger --compare A.jsonl B.jsonl                       hold B against A
//! ledger --pin                                           print expected.rs
//! ```
//!
//! See `README.md` in the package directory for the workloads, the metric
//! glossary and how to read the output.

mod drive;
mod expected;
mod json;
mod metrics;
mod pin;
mod results;
mod span;
mod stats;
mod stepper;
mod sys;
mod workloads;

use json::{Line, Value};
use metrics::{END_TO_END, PER_LAYER};
use results::Row;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Workload;

/// Everything the ledger writes goes under here, relative to the
/// directory it is started in.
const OUT_DIR: &str = "target/ledger";
/// Set-up is repeated this often per run, each time in a fresh process,
/// and reported as the median.
const SETUP_PROBES: usize = 9;

fn main() -> ExitCode {
    // Before any thread exists: a stray switch in the caller's shell must
    // not select the scalar commit path or turn the chunk pipeline off.
    for var in drive::PRODUCT_ENV_SWITCHES {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Flags of the form `--name value`, plus the bare switches.
struct Flags(BTreeMap<String, String>);

const VALUE_FLAGS: [&str; 6] = [
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--reps",
    "--out",
];
const SWITCHES: [&str; 2] = ["--pin", "--setup-probe"];

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut m = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                m.insert(a.clone(), String::new());
            } else if VALUE_FLAGS.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                m.insert(a.clone(), v.clone());
            } else {
                return Err(format!("unknown argument `{a}` (see README.md)"));
            }
        }
        Ok(Flags(m))
    }

    fn has(&self, k: &str) -> bool {
        self.0.contains_key(k)
    }

    fn num<T: std::str::FromStr>(&self, k: &str, default: T) -> Result<T, String> {
        match self.0.get(k) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {k}")),
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, a, b] = args else {
            return Err("--compare takes two result files".to_owned());
        };
        return compare_files(Path::new(a), Path::new(b));
    }
    let flags = Flags::parse(args)?;
    if flags.has("--pin") {
        let scratch = scratch_dir("pin");
        print!("{}", pin::generate(&scratch));
        let _ = std::fs::remove_dir_all(&scratch);
        return Ok(ExitCode::SUCCESS);
    }
    let seed: u64 = flags.num("--seed", expected::FUZZ_SEED)?;
    match flags.0.get("--workload") {
        Some(name) => {
            let w = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; one of {}", names.join(", "))
            })?;
            let cpus = sys::pin_to_last(w.jobs()).map_err(|e| format!("{}: {e}", w.name))?;
            if flags.has("--setup-probe") {
                let scratch = scratch_dir(&format!("probe-{}", w.name));
                workloads::prepare(w, seed, &scratch, &mut span::Tracer::off());
                let _ = std::fs::remove_dir_all(&scratch);
                return Ok(ExitCode::SUCCESS);
            }
            let seconds: f64 = flags.num("--seconds", 0.0)?;
            let trace = match flags.num::<u8>("--trace", 0)? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace is 0 or 1, not {t}")),
            };
            eprintln!(
                "ledger: {} runs on CPU(s) {cpus:?} ({} hardware thread(s) as the engine sees it)",
                w.name,
                sys::available_parallelism()
            );
            one_run(w, seed, seconds, trace)
        }
        None => whole_ledger(
            seed,
            flags.num("--reps", 5usize)?,
            flags.0.get("--out").map(PathBuf::from),
        ),
    }
}

/// A workload that wants more workers than the machine has hardware
/// threads would measure oversubscription, not scaling. The whole ledger
/// refuses it before the first child starts — an error, never a silent
/// skip; a single run is refused by `sys::pin_to_last`.
fn require_threads(w: &Workload) -> Result<(), String> {
    let have = sys::allowed_cpus().len();
    if w.jobs() > have {
        return Err(format!(
            "{} needs {} hardware threads, this machine offers {have}",
            w.name,
            w.jobs()
        ));
    }
    Ok(())
}

/// A scratch directory private to this process.
fn scratch_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR)
        .join("tmp")
        .join(format!("{tag}-{}", std::process::id()))
}

/// Set-up time: wall of a fresh `--setup-probe` process from spawn to
/// exit — process start, input generation, scratch directory, warm-up —
/// so that one-time initialisation a later change adds shows every time.
fn measure_setup(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t = Instant::now();
        let status = Command::new(&exe)
            .args(["--setup-probe", "--workload", w.name, "--seed"])
            .arg(seed.to_string())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("start set-up probe: {e}"))?;
        samples.push(t.elapsed().as_secs_f64());
        if !status.success() {
            return Err(format!("set-up probe of {} failed: {status}", w.name));
        }
    }
    Ok(stats::median(&samples))
}

/// One run of the benchmark contract: measure, check, print one JSON
/// object as the last line of standard output.
fn one_run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<ExitCode, String> {
    let scratch = scratch_dir(w.name);
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    let check = if trace {
        let run_id = format!("{}-seed{seed}-pid{}", w.name, std::process::id());
        let traced = workloads::trace(w, seed, &scratch, &run_id);
        let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, traced.tracer.to_jsonl(w.name)))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        for p in &PER_LAYER {
            values.push((
                p.name,
                p.unit,
                traced.values.get(p.name).copied().unwrap_or(0.0),
            ));
        }
        traced.check
    } else {
        let setup_s = measure_setup(w, seed)?;
        let prep = workloads::prepare(w, seed, &scratch, &mut span::Tracer::off());
        sys::reset_peak_rss();
        // Closed loop, one client: the next pass starts when the last
        // one has its reports. At least one pass, then until `seconds`
        // of measuring have gone by.
        let mut passes = Vec::new();
        let mut measured = 0.0;
        while passes.is_empty() || measured < seconds {
            let pass = workloads::run_pass(w, &prep, w.jobs(), passes.len());
            measured += pass.wall_s;
            passes.push(pass);
        }
        let peak = sys::peak_rss_mb().ok_or("no /proc/self/status: peak RSS needs Linux")?;
        // The clock has stopped; now the verdicts.
        let mut check = workloads::Check::default();
        for pass in &passes {
            let c = workloads::check(w, seed, &prep, pass);
            check.attempted += c.attempted;
            check.failed += c.failed;
            check.notes.extend(c.notes);
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        values.push((metrics::WALL_S, "s", stats::median(&walls)));
        values.push((metrics::PEAK_RSS_MB, "MB", peak));
        values.push((metrics::SETUP_S, "s", setup_s));
        check
    };
    let _ = std::fs::remove_dir_all(&scratch);
    for note in &check.notes {
        eprintln!("ledger: {}: {note}", w.name);
    }
    if !w.seeded() {
        eprintln!(
            "ledger: {} is seedless: --seed does not change its input",
            w.name
        );
    }
    let mut metrics_json = String::from("{");
    for (i, (name, unit, value)) in values.iter().enumerate() {
        if i > 0 {
            metrics_json.push(',');
        }
        json::write_str(&mut metrics_json, name);
        metrics_json.push(':');
        metrics_json.push_str(&Line::new().num("value", *value).str("unit", unit).finish());
    }
    metrics_json.push('}');
    let correct = check.failed == 0;
    println!(
        "{}",
        Line::new()
            .bool("correct", correct)
            .num("attempted", check.attempted as f64)
            .num("failed", check.failed as f64)
            .raw("metrics", &metrics_json)
            .finish()
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// What a child run printed.
struct ChildResult {
    attempted: f64,
    failed: f64,
    /// name → (value, unit)
    metrics: Vec<(String, f64, String)>,
}

/// Re-execute this binary for one (workload, pass) and read its result
/// line. One child at a time: a second one would share the two cores.
fn child_run(w: &Workload, seed: u64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seconds", "0", "--trace"])
        .arg(if trace { "1" } else { "0" })
        .args(["--seed", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: child printed no result ({})", w.name, out.status))?;
    let v = json::parse(last).map_err(|e| format!("{}: child result: {e}", w.name))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{}: child result lacks `{k}`", w.name))
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{}: child result lacks `metrics`", w.name))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_owned())),
                _ => Err(format!("{}: metric `{name}` lacks value or unit", w.name)),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(ChildResult {
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
    })
}

/// The whole ledger: `reps` timed passes of every workload, round-robin,
/// each in a fresh process (cold allocator, its own `VmHWM`), then one
/// traced pass each; a result file, and every metric on standard output.
fn whole_ledger(seed: u64, reps: usize, out: Option<PathBuf>) -> Result<ExitCode, String> {
    if reps == 0 {
        return Err("--reps must be at least 1".to_owned());
    }
    for w in &workloads::ALL {
        require_threads(w)?;
    }
    std::fs::create_dir_all(Path::new(OUT_DIR).join("tmp"))
        .map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let out = out.unwrap_or_else(|| Path::new(OUT_DIR).join("results.jsonl"));

    let mut file = Line::new()
        .str("ledger", "header")
        .str("git_commit", &sys::git_commit())
        .str("rustc", &sys::rustc_version())
        .num("nproc", sys::nproc() as f64)
        .num("available_parallelism", sys::available_parallelism() as f64)
        .num("seed", seed as f64)
        .num("repetitions", reps as f64)
        .num("setup_probes", SETUP_PROBES as f64)
        .str(
            "cpus",
            "every run pins itself to `jobs` CPUs (sched_setaffinity) or fails; \
             ledger.hardware_threads is what each run then saw",
        )
        .str("scratch", &format!("{OUT_DIR}/tmp"))
        .str("scratch_fs", &sys::fs_type(&Path::new(OUT_DIR).join("tmp")))
        .finish();
    file.push('\n');
    for w in &workloads::ALL {
        file.push_str(
            &Line::new()
                .str("ledger", "config")
                .str("workload", w.name)
                .str("config", &w.describe())
                .finish(),
        );
        file.push('\n');
    }

    // samples[workload][metric] → values over repetitions.
    let mut samples: BTreeMap<&str, BTreeMap<String, (String, Vec<f64>)>> = BTreeMap::new();
    let mut wrong = 0.0;
    for rep in 1..=reps {
        for w in &workloads::ALL {
            eprintln!("ledger: pass {rep}/{reps} of {}", w.name);
            let r = child_run(w, seed, false)?;
            wrong += r.failed;
            let per = samples.entry(w.name).or_default();
            let mut record = |name: &str, unit: &str, value: f64| {
                per.entry(name.to_owned())
                    .or_insert_with(|| (unit.to_owned(), Vec::new()))
                    .1
                    .push(value);
            };
            for (name, value, unit) in &r.metrics {
                record(name, unit, *value);
            }
            record(
                metrics::VERDICT_MISMATCH_SHARE,
                "ratio",
                r.failed / r.attempted.max(1.0),
            );
        }
    }
    for w in &workloads::ALL {
        eprintln!("ledger: traced pass of {}", w.name);
        let r = child_run(w, seed, true)?;
        wrong += r.failed;
        let per = samples.entry(w.name).or_default();
        for (name, value, unit) in r.metrics {
            per.insert(name, (unit, vec![value]));
        }
    }

    let mut rows = Vec::new();
    for w in &workloads::ALL {
        let per = &samples[w.name];
        let names = END_TO_END
            .iter()
            .map(|e| e.name)
            .chain(PER_LAYER.iter().map(|p| p.name));
        for name in names {
            if let Some((unit, values)) = per.get(name) {
                rows.push(Row {
                    workload: w.name.to_owned(),
                    metric: name.to_owned(),
                    unit: unit.clone(),
                    summary: Summary::of(values),
                });
            }
        }
    }
    for r in &rows {
        file.push_str(&r.to_line());
        file.push('\n');
    }
    std::fs::write(&out, file).map_err(|e| format!("write {}: {e}", out.display()))?;

    print_tables(&rows);
    println!(
        "\nresults: {}   traces: {OUT_DIR}/trace-<workload>.jsonl   seed {seed}, {reps} repetition(s)",
        out.display()
    );
    if wrong > 0.0 {
        println!("FAILED: {wrong} wrong verdict(s) or stepper count mismatch(es), see above");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn print_tables(rows: &[Row]) {
    println!("end to end (median [min .. max] over n passes)");
    println!(
        "{:<22} {:<24} {:>6} {:>12} {:>12} {:>12} {:>3}",
        "workload", "metric", "unit", "median", "min", "max", "n"
    );
    for r in rows
        .iter()
        .filter(|r| metrics::end_to_end(&r.metric).is_some())
    {
        println!(
            "{:<22} {:<24} {:>6} {:>12} {:>12} {:>12} {:>3}",
            r.workload,
            r.metric,
            r.unit,
            results::fmt_num(r.summary.median),
            results::fmt_num(r.summary.min),
            results::fmt_num(r.summary.max),
            r.summary.n
        );
    }
    println!("\nper layer (traced pass, n = 1); columns in the order:");
    for (i, w) in workloads::ALL.iter().enumerate() {
        println!("  [{}] {}: {}", i + 1, w.name, w.why);
    }
    print!("{:<44} {:>6} {:>6}", "metric", "unit", "better");
    for i in 1..=workloads::ALL.len() {
        print!(" {:>12}", format!("[{i}]"));
    }
    println!("  should move");
    for p in &PER_LAYER {
        print!("{:<44} {:>6} {:>6}", p.name, p.unit, p.better.as_str());
        for w in &workloads::ALL {
            let cell = rows
                .iter()
                .find(|r| r.workload == w.name && r.metric == p.name)
                .map_or("-".to_owned(), |r| results::fmt_num(r.summary.median));
            print!(" {cell:>12}");
        }
        println!("  {}", p.moves);
    }
}

fn compare_files(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|t| results::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (fa, fb) = (read(a)?, read(b)?);
    let seed = |f: &results::ResultFile| f.header.get("seed").and_then(Value::as_f64);
    if seed(&fa) != seed(&fb) {
        return Err(format!(
            "the files were made with different seeds ({:?} and {:?}); \
             their inputs, and so their counts, are not comparable",
            seed(&fa),
            seed(&fb)
        ));
    }
    println!("A = {}\nB = {}", a.display(), b.display());
    for key in ["git_commit", "rustc", "available_parallelism", "scratch_fs"] {
        let of = |f: &results::ResultFile| match f.header.get(key) {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(n)) => n.to_string(),
            _ => "?".to_owned(),
        };
        println!("{key}: A {}  B {}", of(&fa), of(&fb));
    }
    let c = results::compare(&fa, &fb);
    print!("{}", c.text);
    Ok(if c.regressions > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
