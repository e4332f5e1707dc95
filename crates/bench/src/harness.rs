//! A minimal Criterion-style benchmark timer.
//!
//! The workspace builds with zero registry crates (see the workspace
//! `Cargo.toml`), so the bench targets cannot depend on `criterion`. This
//! module provides the small slice of its API the benches use —
//! [`Criterion::bench_function`], [`BenchmarkGroup::bench_with_input`],
//! [`BenchmarkId`], [`Throughput`], and the `criterion_group!` /
//! `criterion_main!` macros — backed by a plain wall-clock sampler:
//! warm up, run `sample_size` timed samples of an auto-calibrated number
//! of iterations each, report min/median/mean.
//!
//! The numbers are honest wall-clock medians, good for the repo's
//! relative comparisons (naive vs closed, POR on vs off, jobs sweeps);
//! they make no attempt at Criterion's outlier analysis.
//!
//! Benches that opt in via [`Criterion::emit_json`] additionally write a
//! machine-readable `BENCH_<name>.json` (into `$RECLOSE_BENCH_DIR`, the
//! workspace root by default) with per-benchmark wall times and — when a
//! [`Throughput`] was declared — derived rates such as states/sec, so CI
//! and scripts can track scaling without parsing the human table.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Target total measurement time per benchmark.
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(120);

/// Per-benchmark timing state handed to the closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Time `f`, running it enough times per sample to get a stable
    /// reading.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fit in the per-sample budget?
        let start = Instant::now();
        let mut calibration_iters = 0u64;
        while start.elapsed() < TARGET_SAMPLE_TIME / 4 {
            std::hint::black_box(f());
            calibration_iters += 1;
        }
        let iters = calibration_iters.max(1);
        self.samples.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            self.samples.push(t0.elapsed() / iters as u32);
        }
    }
}

fn render(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// One finished measurement, kept for the optional JSON report.
struct Record {
    name: String,
    min: Duration,
    median: Duration,
    mean: Duration,
    throughput: Option<(&'static str, u64)>,
    /// Extra numeric fields attached via [`Criterion::annotate`],
    /// emitted verbatim into the record's JSON object.
    annotations: Vec<(String, f64)>,
}

/// The top-level timer: a drop-in for the slice of `criterion::Criterion`
/// the benches use.
pub struct Criterion {
    sample_size: usize,
    records: Vec<Record>,
    json_path: Option<PathBuf>,
    /// Last declared throughput; attached to subsequent measurements.
    current_throughput: Option<(&'static str, u64)>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            records: Vec::new(),
            json_path: None,
            current_throughput: None,
        }
    }
}

/// Where `BENCH_*.json` files land: `$RECLOSE_BENCH_DIR` if set, else the
/// workspace root (two levels above the bench crate's manifest dir), else
/// the current directory.
fn bench_output_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RECLOSE_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let root = PathBuf::from(manifest);
        if let Some(ws) = root.parent().and_then(|p| p.parent()) {
            return ws.to_path_buf();
        }
    }
    PathBuf::from(".")
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Also write the results as `BENCH_<name>.json` (see
    /// [`bench_output_dir`]'s resolution rules) when the run finishes.
    pub fn emit_json(mut self, name: &str) -> Self {
        self.json_path = Some(bench_output_dir().join(format!("BENCH_{name}.json")));
        self
    }

    fn run_one(&mut self, name: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        if b.samples.is_empty() {
            println!("{name:<44} (no samples)");
            return;
        }
        b.samples.sort();
        let min = b.samples[0];
        let median = b.samples[b.samples.len() / 2];
        let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
        println!(
            "{name:<44} min {:>10}   median {:>10}   mean {:>10}",
            render(min),
            render(median),
            render(mean)
        );
        self.records.push(Record {
            name: name.to_string(),
            min,
            median,
            mean,
            throughput: self.current_throughput,
            annotations: Vec::new(),
        });
    }

    /// Attach a derived numeric field to an already-recorded benchmark
    /// (matched by its full `group/function/param` name); it is emitted
    /// as an extra `"key": value` pair in that record's JSON object.
    /// Lets benches report quantities computed outside the timed loop.
    /// Unknown names are ignored (the record may have been skipped).
    pub fn annotate(&mut self, name: &str, key: &str, value: f64) {
        if let Some(r) = self.records.iter_mut().rev().find(|r| r.name == name) {
            r.annotations.push((key.to_string(), value));
        }
    }

    /// Render the collected records as the `BENCH_*.json` document.
    fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"hardware_threads\": {},\n",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        ));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}",
                json_escape(&r.name),
                r.min.as_nanos(),
                r.median.as_nanos(),
                r.mean.as_nanos()
            ));
            if let Some((unit, amount)) = r.throughput {
                let per_sec = amount as f64 / r.median.as_secs_f64();
                out.push_str(&format!(
                    ", \"{unit}\": {amount}, \"{unit}_per_sec\": {per_sec:.1}"
                ));
            }
            for (key, value) in &r.annotations {
                out.push_str(&format!(", \"{}\": {value}", json_escape(key)));
            }
            out.push_str(if i + 1 < self.records.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    fn write_json(&self) {
        let Some(path) = &self.json_path else {
            return;
        };
        if self.records.is_empty() {
            return;
        }
        match std::fs::write(path, self.render_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }

    /// Time a single closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        self.run_one(name, &mut f);
        self
    }

    /// Open a named group of related measurements.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

impl Drop for Criterion {
    fn drop(&mut self) {
        self.write_json();
    }
}

/// A named parameterized benchmark id (mirrors `criterion::BenchmarkId`).
pub struct BenchmarkId {
    rendered: String,
}

impl BenchmarkId {
    /// `function_name/parameter` display form.
    pub fn new<P: std::fmt::Display>(function_name: &str, parameter: P) -> Self {
        BenchmarkId {
            rendered: format!("{function_name}/{parameter}"),
        }
    }
}

/// Throughput annotation: attached to subsequent measurements and turned
/// into a derived rate (e.g. states/sec) in the JSON report. The human
/// table still shows raw times only.
pub enum Throughput {
    /// Elements (for this repo: usually explored states) per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A group of related measurements sharing a name prefix.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Declare the per-iteration throughput for subsequent measurements.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.criterion.current_throughput = Some(match t {
            Throughput::Elements(n) => ("elements", n),
            Throughput::Bytes(n) => ("bytes", n),
        });
        self
    }

    /// Number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.criterion.sample_size = n.max(2);
        self
    }

    /// Time a closure over a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.rendered);
        self.criterion.run_one(&name, &mut |b| f(b, input));
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

impl Drop for BenchmarkGroup<'_> {
    fn drop(&mut self) {
        self.criterion.current_throughput = None;
    }
}

/// Declare a benchmark group: mirrors `criterion_group!` closely enough
/// that the bench targets only swap their `use` line.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $cfg;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declare the bench entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_produces_ordered_stats() {
        let mut c = Criterion::default().sample_size(3);
        // Just exercise the machinery; nothing to assert about wall time
        // beyond it completing.
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("sq", 4), &4u64, |b, n| b.iter(|| n * n));
        g.finish();
    }

    #[test]
    fn json_report_carries_times_and_rates() {
        let mut c = Criterion::default().sample_size(2);
        {
            let mut g = c.benchmark_group("grp");
            g.throughput(Throughput::Elements(1000));
            g.bench_with_input(BenchmarkId::new("jobs", 2), &2u64, |b, n| b.iter(|| n + 1));
            g.finish();
        }
        let json = c.render_json();
        assert!(json.contains("\"hardware_threads\""));
        assert!(json.contains("\"grp/jobs/2\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"elements\": 1000"));
        assert!(json.contains("\"elements_per_sec\""));
        // Avoid writing a file from the test.
        c.json_path = None;
    }

    #[test]
    fn annotations_reach_the_matching_record() {
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("grp/jobs/1", |b| b.iter(|| 1 + 1));
        c.bench_function("grp/jobs/2", |b| b.iter(|| 2 + 2));
        c.annotate("grp/jobs/2", "parallelism_efficiency", 0.5);
        c.annotate("grp/jobs/9", "ignored", 1.0); // unknown name: dropped
        let json = c.render_json();
        assert!(json.contains("\"parallelism_efficiency\": 0.5"), "{json}");
        assert!(!json.contains("ignored"));
        c.json_path = None;
    }

    #[test]
    fn json_escape_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn render_picks_sane_units() {
        assert!(render(Duration::from_nanos(12)).contains("ns"));
        assert!(render(Duration::from_micros(12)).contains("µs"));
        assert!(render(Duration::from_millis(12)).contains("ms"));
        assert!(render(Duration::from_secs(2)).contains('s'));
    }
}
