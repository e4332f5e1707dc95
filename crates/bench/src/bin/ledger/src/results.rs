//! Result files and their comparison.
//!
//! A result file is JSON lines: a header with the run's circumstances,
//! one `config` line per workload, then one line per (workload, metric)
//! with `unit`, `median`, `q1`, `q3`, `min`, `max` and `n`. `--compare A B`
//! reads two
//! of them back and holds B against A with each end-to-end metric's bound.

use crate::json::{self, Line, Value};
use crate::metrics::{self, Better, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads;
use std::fmt::Write as _;

/// One (workload, metric) line of a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
}

impl Row {
    pub fn to_line(&self) -> String {
        Line::new()
            .str("workload", &self.workload)
            .str("metric", &self.metric)
            .str("unit", &self.unit)
            .num("median", self.summary.median)
            .num("q1", self.summary.q1)
            .num("q3", self.summary.q3)
            .num("min", self.summary.min)
            .num("max", self.summary.max)
            .num("n", self.summary.n as f64)
            .finish()
    }
}

/// A result file read back: the header's fields and the metric rows.
pub struct ResultFile {
    pub header: Value,
    pub rows: Vec<Row>,
}

/// Scan a result file. Lines that carry no `metric` (header, config) are
/// kept out of `rows`; a malformed line is an error, not a skipped line.
pub fn parse(text: &str) -> Result<ResultFile, String> {
    let mut out = ResultFile {
        header: Value::Null,
        rows: Vec::new(),
    };
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        if v.get("ledger").and_then(Value::as_str) == Some("header") {
            out.header = v;
            continue;
        }
        if v.get("metric").is_none() {
            continue;
        }
        let text_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("line {}: missing string `{k}`", no + 1))
        };
        let num_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: missing number `{k}`", no + 1))
        };
        let n = num_of("n")?;
        if n < 1.0 || n.fract() != 0.0 || n > 1e9 {
            return Err(format!("line {}: bad sample count {n}", no + 1));
        }
        out.rows.push(Row {
            workload: text_of("workload")?,
            metric: text_of("metric")?,
            unit: text_of("unit")?,
            summary: Summary {
                median: num_of("median")?,
                q1: num_of("q1")?,
                q3: num_of("q3")?,
                min: num_of("min")?,
                max: num_of("max")?,
                n: n as usize,
            },
        });
    }
    Ok(out)
}

fn find<'a>(rows: &'a [Row], workload: &str, metric: &str) -> Option<&'a Row> {
    rows.iter()
        .find(|r| r.workload == workload && r.metric == metric)
}

/// Outcome of holding one metric of B against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// B is worse than A by more than the bound (and the floor).
    Regression,
    /// One side's own runs spread (quartile to quartile) by more than the
    /// bound, so "no change" cannot be told from a change of that size.
    Unresolved,
    /// One side has no such row.
    Missing,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regression => "REGRESSION",
            Status::Unresolved => "unresolved",
            Status::Missing => "MISSING",
        }
    }
}

/// Hold `b` against `a` for one end-to-end metric.
pub fn judge(e: &metrics::EndToEnd, a: &Summary, b: &Summary) -> Status {
    let worse = match e.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    let share = if a.median == 0.0 {
        if worse > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        worse / a.median.abs()
    };
    if worse > e.floor && share > e.bound {
        return Status::Regression;
    }
    let wide = |s: &Summary| s.q3 - s.q1 > e.floor && s.spread() > e.bound;
    if wide(a) || wide(b) {
        Status::Unresolved
    } else {
        Status::Ok
    }
}

/// The comparison table and how many rows failed.
pub struct Comparison {
    pub text: String,
    pub regressions: usize,
    pub unresolved: usize,
}

/// Compare B against A: one row per workload × end-to-end metric with
/// both medians, the ratio and its base, then every exact count that
/// differs.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Comparison {
    let mut c = Comparison {
        text: String::new(),
        regressions: 0,
        unresolved: 0,
    };
    let t = &mut c.text;
    let _ = writeln!(
        t,
        "{:<22} {:<22} {:>6} {:>12} {:>12} {:>8}  {:<18} status",
        "workload", "metric", "unit", "A median", "B median", "B/A", "base"
    );
    for w in &workloads::ALL {
        for e in &END_TO_END {
            let (ra, rb) = (find(&a.rows, w.name, e.name), find(&b.rows, w.name, e.name));
            let status = match (ra, rb) {
                (Some(ra), Some(rb)) => judge(e, &ra.summary, &rb.summary),
                (None, None) => continue,
                _ => Status::Missing,
            };
            match status {
                Status::Regression | Status::Missing => c.regressions += 1,
                Status::Unresolved => c.unresolved += 1,
                Status::Ok => {}
            }
            let med = |r: Option<&Row>| r.map_or("-".to_owned(), |r| fmt_num(r.summary.median));
            let ratio = match (ra, rb) {
                (Some(ra), Some(rb)) if ra.summary.median != 0.0 => {
                    format!("{:.3}", rb.summary.median / ra.summary.median)
                }
                _ => "-".to_owned(),
            };
            let base = ra.map_or("-".to_owned(), |r| {
                format!("A={} n={}", fmt_num(r.summary.median), r.summary.n)
            });
            let _ = writeln!(
                t,
                "{:<22} {:<22} {:>6} {:>12} {:>12} {:>8}  {:<18} {}",
                w.name,
                e.name,
                e.unit,
                med(ra),
                med(rb),
                ratio,
                base,
                status.as_str()
            );
        }
    }
    // Counts the program (or the stepper) makes must repeat exactly.
    for w in &workloads::ALL {
        for p in PER_LAYER.iter().filter(|p| p.source.is_exact()) {
            let (Some(ra), Some(rb)) =
                (find(&a.rows, w.name, p.name), find(&b.rows, w.name, p.name))
            else {
                continue;
            };
            if ra.summary.median != rb.summary.median {
                c.regressions += 1;
                let _ = writeln!(
                    t,
                    "{:<22} {:<44} A={} B={}  COUNT DIFFERS",
                    w.name,
                    p.name,
                    fmt_num(ra.summary.median),
                    fmt_num(rb.summary.median)
                );
            }
        }
    }
    let _ = writeln!(
        t,
        "{} regression(s), {} unresolved; bounds: {}",
        c.regressions,
        c.unresolved,
        END_TO_END
            .iter()
            .map(|e| format!(
                "{} {:.0}% (floor {} {}; BENCHMARK.json {:.0}%)",
                e.name,
                e.bound * 100.0,
                e.floor,
                e.unit,
                e.driver_bound * 100.0
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    c
}

/// A number for a table: counts without a fraction, the rest to four
/// significant places.
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        "0".to_owned()
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 1.0 {
        format!("{x:.3}")
    } else {
        format!("{x:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary whose quartiles sit at the given extremes.
    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            q1: min,
            q3: max,
            min,
            max,
            n: 5,
        }
    }

    fn row(workload: &str, metric: &str, unit: &str, x: Summary) -> Row {
        Row {
            workload: workload.to_owned(),
            metric: metric.to_owned(),
            unit: unit.to_owned(),
            summary: x,
        }
    }

    #[test]
    fn result_lines_round_trip_through_the_scanner() {
        let rows = vec![
            row("fuzz_sweep", "wall_s", "s", s(8.4012345678, 8.1, 0.1 + 0.2)),
            row(
                "a-b.c_d",
                "verisoft.search.states",
                "count",
                s(619543.0, 619543.0, 619543.0),
            ),
        ];
        let mut text = Line::new()
            .str("ledger", "header")
            .num("seed", 1.0)
            .finish();
        text.push('\n');
        text.push_str("{\"ledger\":\"config\",\"workload\":\"x\",\"config\":\"y\"}\n\n");
        for r in &rows {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        let back = parse(&text).unwrap();
        assert_eq!(back.rows, rows);
        assert_eq!(back.header.get("seed").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn scanner_rejects_broken_lines() {
        assert!(parse("{\"metric\":\"m\"}").is_err(), "missing fields");
        assert!(parse("not json").is_err());
        let zero_n = row(
            "w",
            "m",
            "s",
            Summary {
                n: 0,
                ..s(1.0, 1.0, 1.0)
            },
        )
        .to_line();
        assert!(parse(&zero_n).is_err());
    }

    #[test]
    fn judge_applies_bound_floor_and_spread() {
        let wall = metrics::end_to_end(metrics::WALL_S).unwrap();
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        assert_eq!(
            judge(wall, &tight(10.0), &tight(10.0 * (1.0 + wall.bound) - 0.01)),
            Status::Ok
        );
        assert_eq!(
            judge(wall, &tight(10.0), &tight(10.0 * (1.0 + wall.bound) + 0.5)),
            Status::Regression
        );
        // Better is never a regression, in either direction of the pair.
        assert_eq!(judge(wall, &tight(10.0), &tight(5.0)), Status::Ok);
        // A side that does not agree with itself cannot show "unchanged".
        let noisy = s(10.0, 8.0, 10.0 * (1.0 + wall.bound) + 1.0);
        assert_eq!(judge(wall, &noisy, &tight(10.0)), Status::Unresolved);
        assert_eq!(judge(wall, &tight(10.0), &noisy), Status::Unresolved);

        // Memory: +50 % of 3 MB is under the 2 MB floor.
        let rss = metrics::end_to_end(metrics::PEAK_RSS_MB).unwrap();
        assert_eq!(judge(rss, &tight(3.0), &tight(4.5)), Status::Ok);
        assert_eq!(
            judge(rss, &tight(200.0), &tight(200.0 * (1.0 + rss.bound) + 3.0)),
            Status::Regression
        );

        // Any increase of the mismatch share is a regression.
        let bad = metrics::end_to_end(metrics::VERDICT_MISMATCH_SHARE).unwrap();
        assert_eq!(judge(bad, &s(0.0, 0.0, 0.0), &s(0.0, 0.0, 0.0)), Status::Ok);
        assert_eq!(
            judge(bad, &s(0.0, 0.0, 0.0), &s(1.0 / 30000.0, 0.0, 0.001)),
            Status::Regression
        );
    }

    #[test]
    fn compare_reports_regressions_missing_rows_and_count_drift() {
        let w = workloads::ALL[0].name;
        let file = |wall: f64, states: f64| ResultFile {
            header: Value::Null,
            rows: vec![
                row(w, "wall_s", "s", s(wall, wall, wall)),
                row(
                    w,
                    "verisoft.search.states",
                    "count",
                    s(states, states, states),
                ),
            ],
        };
        let same = compare(&file(8.0, 100.0), &file(8.1, 100.0));
        assert_eq!((same.regressions, same.unresolved), (0, 0), "{}", same.text);
        let slower = compare(&file(8.0, 100.0), &file(12.0, 100.0));
        assert_eq!(slower.regressions, 1);
        assert!(slower.text.contains("REGRESSION") && slower.text.contains("A=8"));
        let drift = compare(&file(8.0, 100.0), &file(8.0, 101.0));
        assert_eq!(drift.regressions, 1);
        assert!(drift.text.contains("COUNT DIFFERS"));
        let mut lacking = file(8.0, 100.0);
        lacking.rows.remove(0);
        assert_eq!(compare(&file(8.0, 100.0), &lacking).regressions, 1);
    }
}
