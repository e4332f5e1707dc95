//! The metric glossary: every name the ledger prints, with its unit, its
//! direction, where it is measured and which end-to-end metric it should
//! move. `BENCHMARK.json` mirrors this table (a unit test compares them)
//! and `README.md` explains it.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of `reclose` feels, gated by `--compare`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse before
    /// `--compare` calls it a regression.
    pub bound: f64,
    /// Absolute worsening below which the bound is not applied: a
    /// millisecond-sized set-up or a near-empty heap moves by large
    /// shares without meaning anything.
    pub floor: f64,
    /// The `bound` of `BENCHMARK.json`: the share by which the benchmark
    /// driver lets one ten-run median be worse than another, taken
    /// minutes earlier, before it rejects a change outright.
    pub driver_bound: f64,
}

pub const WALL_S: &str = "wall_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";
pub const VERDICT_MISMATCH_SHARE: &str = "verdict_mismatch_share";

/// The gated set. `BENCHMARK.json` lists the first three;
/// `verdict_mismatch_share` is always 0 on an accepted run (the contract
/// wants metrics that are never 0), so the contract's result object
/// carries it as `failed / attempted` instead.
///
/// `bound` is the regression bound the issue fixed: 10 %. Runs that
/// spread wider than that compare as `unresolved`, never as `ok`.
/// `driver_bound` answers a different question — how far may two
/// ten-run medians of *unchanged* code, taken half an hour apart on this
/// shared 2-vCPU host, sit apart — and the contract sizes it at three
/// times the quartile spread the driver will itself see: up to 0.15 of
/// the median for `wall_s` (`switch3_frontier_j2`), 0.03 for
/// `peak_rss_mb` (README, "Noise"). Set-up gets the largest, as the
/// contract asks.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: WALL_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.0,
        driver_bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        floor: 2.0,
        driver_bound: 0.10,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        floor: 0.05,
        driver_bound: 0.25,
    },
    EndToEnd {
        name: VERDICT_MISMATCH_SHARE,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        floor: 0.0,
        driver_bound: 0.0,
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The traced pass: spans around calls into the layer.
    Traced,
    /// The untraced pass of the same child (the product's own entry
    /// points, timed from outside).
    Untraced,
    /// A counter copied from `verisoft::Report`, `closer::ProcReport` or
    /// `closer::CexReport`. It must repeat exactly; `--compare` requires
    /// both sides to agree.
    Report,
    /// A count made by the stepper where the work happens. Also exact.
    Count,
}

impl Source {
    pub fn is_exact(self) -> bool {
        matches!(self, Source::Report | Source::Count)
    }
}

/// A metric of one layer. It has no bound: it explains an end-to-end
/// movement, it is not gated itself.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// The end-to-end metric (and workloads) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher, Lower};
use Source::{Count, Report, Traced, Untraced};

const FRONT: &str = "wall_s on fuzz_sweep";
const EXPLORE: &str = "wall_s on switch3_*, switch2x2_stateless";
const STORE: &str = "wall_s on switch3_frontier_j1/_j2";
const DISK: &str = "wall_s, peak_rss_mb on switch3_outofcore";
const CEX: &str = "wall_s on corpus_refine_cex";
const FIXED: &str = "wall_s on fuzz_sweep, corpus_refine_cex";
const RSS: &str = "peak_rss_mb on switch3_*";
const INFO: &str = "none (informational)";

pub const PER_LAYER: [PerLayer; 79] = [
    m("switchsim.gen_busy_s", "s", Lower, Traced, "setup_s"),
    m("switchsim.src_kb", "KB", Lower, Count, INFO),
    m("minic.parse.busy_s", "s", Lower, Traced, FRONT),
    m("minic.sema.busy_s", "s", Lower, Traced, FRONT),
    m("minic.normalize.busy_s", "s", Lower, Traced, FRONT),
    m("minic.parse.mb_per_s", "MB/s", Higher, Traced, FRONT),
    m("cfgir.build.busy_s", "s", Lower, Traced, FRONT),
    m("cfgir.hash.busy_s", "s", Lower, Traced, FRONT),
    m("cfgir.nodes", "count", Lower, Count, INFO),
    m("dataflow.pointsto.busy_s", "s", Lower, Traced, FRONT),
    m("dataflow.modref.busy_s", "s", Lower, Traced, FRONT),
    m("dataflow.defuse.busy_s", "s", Lower, Traced, FRONT),
    m("dataflow.taint.busy_s", "s", Lower, Traced, FRONT),
    m("dataflow.tainted_node_share", "ratio", Lower, Count, INFO),
    m("closer.transform.busy_s", "s", Lower, Traced, FRONT),
    m("closer.toss_sites", "count", Lower, Report, EXPLORE),
    m("closer.nodes_removed_share", "ratio", Higher, Report, INFO),
    m("closer.pipeline.busy_s", "s", Lower, Untraced, FRONT),
    m(
        "closer.pipeline.us_per_program_p50",
        "us",
        Lower,
        Untraced,
        FRONT,
    ),
    m(
        "closer.pipeline.us_per_program_p99",
        "us",
        Lower,
        Untraced,
        FRONT,
    ),
    m(
        "closer.pipeline.attributed_share",
        "ratio",
        Higher,
        Traced,
        INFO,
    ),
    m(
        "closer.pipeline.own_timers_share",
        "ratio",
        Higher,
        Untraced,
        INFO,
    ),
    m("closer.refine_cex.busy_s", "s", Lower, Traced, CEX),
    m("closer.refine_cex.iterations", "count", Lower, Report, CEX),
    m(
        "closer.refine_cex.outcomes_pruned",
        "count",
        Higher,
        Report,
        CEX,
    ),
    m(
        "closer.refine_cex.state_reduction",
        "ratio",
        Higher,
        Report,
        CEX,
    ),
    m(
        "closer.refine_cex.reverted_programs",
        "count",
        Lower,
        Report,
        CEX,
    ),
    m("envgen.synthesize.busy_s", "s", Lower, Traced, CEX),
    m("envgen.composed_programs", "count", Higher, Count, INFO),
    m(
        "verisoft.executor.setup_us_per_explore",
        "us",
        Lower,
        Traced,
        FIXED,
    ),
    m("verisoft.executor.setup_busy_s", "s", Lower, Traced, FIXED),
    m(
        "verisoft.executor.expand_busy_s",
        "s",
        Lower,
        Traced,
        "wall_s on switch2x2_stateless",
    ),
    m("verisoft.por.busy_s", "s", Lower, Traced, EXPLORE),
    m("verisoft.por.calls", "count", Lower, Count, EXPLORE),
    m("verisoft.por.ns_per_call", "ns", Lower, Traced, EXPLORE),
    m(
        "verisoft.por.scheduled_share",
        "ratio",
        Lower,
        Count,
        EXPLORE,
    ),
    m(
        "verisoft.por.skipped_procs",
        "count",
        Higher,
        Report,
        EXPLORE,
    ),
    m(
        "verisoft.por.proviso_fallbacks",
        "count",
        Lower,
        Report,
        EXPLORE,
    ),
    m("verisoft.interp.busy_s", "s", Lower, Traced, EXPLORE),
    m(
        "verisoft.interp.transitions",
        "count",
        Lower,
        Count,
        EXPLORE,
    ),
    m(
        "verisoft.interp.ns_per_transition",
        "ns",
        Lower,
        Traced,
        EXPLORE,
    ),
    m(
        "verisoft.interp.tosses_taken",
        "count",
        Lower,
        Report,
        EXPLORE,
    ),
    m(
        "verisoft.interp.cow_shared_share",
        "ratio",
        Higher,
        Report,
        RSS,
    ),
    m("verisoft.state.busy_s", "s", Lower, Traced, STORE),
    m("verisoft.state.drop_busy_s", "s", Lower, Traced, STORE),
    m("verisoft.state.keys", "count", Lower, Count, STORE),
    m("verisoft.state.ns_per_key", "ns", Lower, Traced, STORE),
    m(
        "verisoft.state.raw_bytes_per_state",
        "B",
        Lower,
        Report,
        INFO,
    ),
    m(
        "verisoft.state.stored_bytes_per_state",
        "B",
        Lower,
        Report,
        RSS,
    ),
    m(
        "verisoft.state.interner_entries",
        "count",
        Lower,
        Report,
        RSS,
    ),
    m("verisoft.store.busy_s", "s", Lower, Traced, STORE),
    m(
        "verisoft.store.setup_us_per_explore",
        "us",
        Lower,
        Traced,
        FIXED,
    ),
    m("verisoft.store.ns_per_key", "ns", Lower, Traced, STORE),
    m(
        "verisoft.store.duplicate_share",
        "ratio",
        Lower,
        Count,
        STORE,
    ),
    m(
        "verisoft.store.items_per_batch",
        "count",
        Higher,
        Report,
        STORE,
    ),
    m(
        "verisoft.store.lock_acquisitions_avoided",
        "count",
        Higher,
        Report,
        STORE,
    ),
    m("verisoft.store.disk.spill_busy_s", "s", Lower, Traced, DISK),
    m(
        "verisoft.store.disk.spilled_entries",
        "count",
        Lower,
        Report,
        DISK,
    ),
    m("verisoft.store.disk.segments", "count", Lower, Report, DISK),
    m(
        "verisoft.store.disk.segments_compacted",
        "count",
        Higher,
        Report,
        DISK,
    ),
    m(
        "verisoft.store.disk.prefilter_screen_share",
        "ratio",
        Higher,
        Report,
        DISK,
    ),
    m("verisoft.store.disk.dir_mb", "MB", Lower, Untraced, DISK),
    m(
        "verisoft.store.spool.spooled_entries",
        "count",
        Lower,
        Report,
        DISK,
    ),
    m(
        "verisoft.store.checkpoint.written",
        "count",
        Lower,
        Report,
        DISK,
    ),
    m("verisoft.search.busy_s", "s", Lower, Untraced, EXPLORE),
    m("verisoft.search.states", "count", Lower, Report, EXPLORE),
    m(
        "verisoft.search.transitions",
        "count",
        Lower,
        Report,
        EXPLORE,
    ),
    m("verisoft.search.max_depth", "count", Lower, Report, INFO),
    m(
        "verisoft.search.states_per_s",
        "1/s",
        Higher,
        Untraced,
        EXPLORE,
    ),
    m(
        "verisoft.search.us_per_state",
        "us",
        Lower,
        Untraced,
        EXPLORE,
    ),
    m(
        "verisoft.search.frontier_peak_states",
        "count",
        Lower,
        Count,
        RSS,
    ),
    m(
        "verisoft.search.pipeline_overlap_share",
        "ratio",
        Higher,
        Report,
        "wall_s on switch3_frontier_j2",
    ),
    m(
        "verisoft.search.parallel_efficiency",
        "ratio",
        Higher,
        Untraced,
        "wall_s on switch3_frontier_j2",
    ),
    m(
        "verisoft.search.attributed_share",
        "ratio",
        Higher,
        Traced,
        INFO,
    ),
    m(
        "verisoft.search.driver_residual_s",
        "s",
        Lower,
        Traced,
        EXPLORE,
    ),
    m(
        "verisoft.search.stepper_count_mismatches",
        "count",
        Lower,
        Count,
        INFO,
    ),
    m("ledger.trace_overhead_share", "ratio", Lower, Traced, INFO),
    m("ledger.stepper_wall_s", "s", Lower, Traced, INFO),
    m(
        "ledger.hardware_threads",
        "count",
        Lower,
        Count,
        "none (the CPUs the run gave itself; two runs that differ here are not comparable)",
    ),
];

/// Names may hold letters, digits, `_`, `.` and `-`, start with a letter
/// or digit, and are at most 64 long (the benchmark contract).
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Units may hold letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16.
#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|e| (e.name, e.unit))
            .chain(PER_LAYER.iter().map(|p| (p.name, p.unit)))
            .chain(crate::workloads::ALL.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn bounds_stay_inside_the_contract() {
        for e in &END_TO_END {
            assert!((0.0..=0.25).contains(&e.driver_bound), "{}", e.name);
            assert!(e.bound <= e.driver_bound, "{}", e.name);
        }
        let largest = END_TO_END
            .iter()
            .map(|e| e.driver_bound)
            .fold(0.0, f64::max);
        assert_eq!(end_to_end(SETUP_S).unwrap().driver_bound, largest);
    }

    /// `BENCHMARK.json` at the repository root must say what this table
    /// says.
    #[test]
    fn benchmark_json_mirrors_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let field = |v: &json::Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_owned();
        let listed: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| {
                (
                    field(e, "name"),
                    field(e, "unit"),
                    field(e, "better"),
                    e.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|e| e.name != VERDICT_MISMATCH_SHARE)
            .map(|e| {
                (
                    e.name.to_owned(),
                    e.unit.to_owned(),
                    e.better.as_str().to_owned(),
                    e.driver_bound,
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|p| {
                (
                    p.name.to_owned(),
                    p.unit.to_owned(),
                    p.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(listed, ours);

        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::ALL
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(listed, ours);
        for (_, why) in &listed {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
