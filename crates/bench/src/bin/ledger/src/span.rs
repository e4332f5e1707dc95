//! Spans recorded from outside the product: the benchmark's own files
//! bracket each call into a layer's public function.
//!
//! A span carries name, start, end, the span that caused it and the run
//! id. One exploration makes millions of per-call spans, so they are
//! folded in memory as they close — one record per (span name, frontier
//! level) — and written as JSON lines when the child ends. A layer's
//! *self* time is its span's duration minus the part of that interval its
//! child spans cover; everything runs on one thread, so children never
//! overlap and that part is the sum of their durations.

use crate::json::Line;
use std::time::{Duration, Instant};

/// Every span name the ledger records. The front-end names follow
/// `closer::pipeline::PASSES`; the exploration names are the layers of
/// `verisoft` a stepper call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    SwitchsimGen,
    FrontEnd,
    Parse,
    Sema,
    Normalize,
    CfgBuild,
    CfgHash,
    PointsTo,
    ModRef,
    DefUse,
    Taint,
    Transform,
    RefineCex,
    EnvgenSynthesize,
    Stepper,
    ExecutorSetup,
    ExecutorExpand,
    Por,
    Interp,
    StateKey,
    StateDrop,
    StoreSetup,
    StoreProbe,
    StoreInsert,
    StoreSeal,
    StoreSpill,
}

impl Layer {
    pub const ALL: [Layer; 26] = [
        Layer::SwitchsimGen,
        Layer::FrontEnd,
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
        Layer::EnvgenSynthesize,
        Layer::Stepper,
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

    pub fn name(self) -> &'static str {
        match self {
            Layer::SwitchsimGen => "switchsim.gen",
            Layer::FrontEnd => "ledger.front_end",
            Layer::Parse => "minic.parse",
            Layer::Sema => "minic.sema",
            Layer::Normalize => "minic.normalize",
            Layer::CfgBuild => "cfgir.build",
            Layer::CfgHash => "cfgir.hash",
            Layer::PointsTo => "dataflow.pointsto",
            Layer::ModRef => "dataflow.modref",
            Layer::DefUse => "dataflow.defuse",
            Layer::Taint => "dataflow.taint",
            Layer::Transform => "closer.transform",
            Layer::RefineCex => "closer.refine_cex",
            Layer::EnvgenSynthesize => "envgen.synthesize",
            Layer::Stepper => "ledger.stepper",
            Layer::ExecutorSetup => "verisoft.executor.setup",
            Layer::ExecutorExpand => "verisoft.executor.expand",
            Layer::Por => "verisoft.por",
            Layer::Interp => "verisoft.interp",
            Layer::StateKey => "verisoft.state.key",
            Layer::StateDrop => "verisoft.state.drop",
            Layer::StoreSetup => "verisoft.store.setup",
            Layer::StoreProbe => "verisoft.store.probe",
            Layer::StoreInsert => "verisoft.store.insert_batch",
            Layer::StoreSeal => "verisoft.store.seal_batch",
            Layer::StoreSpill => "verisoft.store.disk.spill",
        }
    }
}

/// All closed spans of one name at one frontier level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    /// The span that was open when these were entered.
    pub parent: Option<Layer>,
    pub calls: u64,
    /// Sum of durations.
    pub total: Duration,
    /// Sum of durations minus the children's.
    pub self_time: Duration,
    /// Earliest start and latest end.
    pub first_start: Instant,
    pub last_end: Instant,
}

struct Open {
    layer: Layer,
    start: Instant,
    children: Duration,
}

/// The span recorder. With `on == false` every call returns at once, so
/// one stepper serves both the spans-off and the spans-on pass and their
/// difference is the tracing overhead.
pub struct Tracer {
    on: bool,
    run_id: String,
    epoch: Instant,
    level: u32,
    stack: Vec<Open>,
    /// `folds[layer][level]`, grown on demand: closing a span must cost
    /// far less than the calls being timed.
    folds: Vec<Vec<Option<Fold>>>,
}

impl Tracer {
    pub fn new(on: bool, run_id: &str) -> Tracer {
        Tracer {
            on,
            run_id: run_id.to_owned(),
            epoch: Instant::now(),
            level: 0,
            stack: Vec::new(),
            folds: vec![Vec::new(); Layer::ALL.len()],
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, "")
    }

    /// The frontier level later spans are filed under (0 outside a
    /// search).
    pub fn set_level(&mut self, level: usize) {
        self.level = u32::try_from(level).unwrap_or(u32::MAX);
    }

    #[inline]
    pub fn enter(&mut self, layer: Layer) {
        if self.on {
            self.stack.push(Open {
                layer,
                start: Instant::now(),
                children: Duration::ZERO,
            });
        }
    }

    #[inline]
    pub fn exit(&mut self, layer: Layer) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without enter");
        debug_assert_eq!(open.layer, layer, "spans must nest");
        self.close(open, end);
    }

    fn close(&mut self, open: Open, end: Instant) {
        let dur = end.duration_since(open.start);
        let parent = self.stack.last_mut().map(|p| {
            p.children += dur;
            p.layer
        });
        let levels = &mut self.folds[open.layer as usize];
        let level = self.level as usize;
        if levels.len() <= level {
            levels.resize(level + 1, None);
        }
        let f = levels[level].get_or_insert(Fold {
            parent,
            calls: 0,
            total: Duration::ZERO,
            self_time: Duration::ZERO,
            first_start: open.start,
            last_end: end,
        });
        f.calls += 1;
        f.total += dur;
        f.self_time += dur.saturating_sub(open.children);
        f.last_end = end;
    }

    /// Run `f` inside a span (for calls that need no nested spans).
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = f();
        self.exit(layer);
        out
    }

    fn folds_of(&self, layer: Layer) -> impl Iterator<Item = &Fold> {
        self.folds[layer as usize].iter().flatten()
    }

    /// Self time of `layer`, summed over every level, in seconds.
    pub fn self_s(&self, layer: Layer) -> f64 {
        self.folds_of(layer)
            .map(|f| f.self_time)
            .sum::<Duration>()
            .as_secs_f64()
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.folds_of(layer).map(|f| f.calls).sum()
    }

    /// The folded records as JSON lines, one per (span name, level).
    pub fn to_jsonl(&self, workload: &str) -> String {
        debug_assert!(self.stack.is_empty(), "spans left open");
        let mut out = String::new();
        let records = Layer::ALL.iter().flat_map(|layer| {
            self.folds[*layer as usize]
                .iter()
                .enumerate()
                .filter_map(move |(level, f)| Some((layer, level, f.as_ref()?)))
        });
        for (layer, level, f) in records {
            let line = Line::new()
                .str("run", &self.run_id)
                .str("workload", workload)
                .str("span", layer.name())
                .str("parent", f.parent.map_or("", Layer::name))
                .num("level", level as f64)
                .num("calls", f.calls as f64)
                .num("start_s", (f.first_start - self.epoch).as_secs_f64())
                .num("end_s", (f.last_end - self.epoch).as_secs_f64())
                .num("total_s", f.total.as_secs_f64())
                .num("self_s", f.self_time.as_secs_f64())
                .finish();
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    #[cfg(test)]
    fn fold(&self, layer: Layer, level: usize) -> Fold {
        self.folds[layer as usize][level].expect("no such span closed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Close a hand-built span tree with chosen instants, so the
    /// arithmetic is checked without sleeping.
    fn at(t: &Tracer, ms: u64) -> Instant {
        t.epoch + Duration::from_millis(ms)
    }

    fn open(t: &mut Tracer, layer: Layer, start_ms: u64) {
        let start = at(t, start_ms);
        t.stack.push(Open {
            layer,
            start,
            children: Duration::ZERO,
        });
    }

    fn shut(t: &mut Tracer, end_ms: u64) {
        let end = at(t, end_ms);
        let o = t.stack.pop().unwrap();
        t.close(o, end);
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut t = Tracer::new(true, "r");
        // stepper [0,100] { por [10,30] { probe [12,17] }, interp [30,70], interp [70,80] }
        open(&mut t, Layer::Stepper, 0);
        open(&mut t, Layer::Por, 10);
        open(&mut t, Layer::StoreProbe, 12);
        shut(&mut t, 17);
        shut(&mut t, 30);
        open(&mut t, Layer::Interp, 30);
        shut(&mut t, 70);
        open(&mut t, Layer::Interp, 70);
        shut(&mut t, 80);
        shut(&mut t, 100);

        let ms = Duration::from_millis;
        let stepper = t.fold(Layer::Stepper, 0);
        assert_eq!(stepper.total, ms(100));
        // Only direct children count: por (20) + interp (40 + 10); the
        // probe is por's child, not the stepper's.
        assert_eq!(stepper.self_time, ms(30));
        assert_eq!(stepper.parent, None);

        let por = t.fold(Layer::Por, 0);
        assert_eq!((por.total, por.self_time), (ms(20), ms(15)));
        assert_eq!(por.parent, Some(Layer::Stepper));

        let interp = t.fold(Layer::Interp, 0);
        assert_eq!(interp.calls, 2);
        assert_eq!((interp.total, interp.self_time), (ms(50), ms(50)));
        assert_eq!(interp.first_start, at(&t, 30));
        assert_eq!(interp.last_end, at(&t, 80));

        let probe = t.fold(Layer::StoreProbe, 0);
        assert_eq!(probe.parent, Some(Layer::Por));
        // Self times partition the root span.
        let sum: Duration = [Layer::Stepper, Layer::Por, Layer::Interp, Layer::StoreProbe]
            .iter()
            .map(|l| t.fold(*l, 0).self_time)
            .sum();
        assert_eq!(sum, ms(100));
        assert!((t.self_s(Layer::Interp) - 0.050).abs() < 1e-9);
    }

    #[test]
    fn spans_fold_per_level_and_off_records_nothing() {
        let mut t = Tracer::new(true, "r");
        t.span(Layer::Por, || ());
        t.set_level(3);
        t.span(Layer::Por, || ());
        t.span(Layer::Por, || ());
        assert_eq!(t.fold(Layer::Por, 0).calls, 1);
        assert_eq!(t.fold(Layer::Por, 3).calls, 2);
        assert_eq!(t.calls(Layer::Por), 3);
        let text = t.to_jsonl("w");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("span").unwrap().as_str(), Some("verisoft.por"));
            assert_eq!(v.get("run").unwrap().as_str(), Some("r"));
        }

        let mut off = Tracer::new(false, "r");
        off.span(Layer::Por, || ());
        off.enter(Layer::Interp);
        off.exit(Layer::Interp);
        assert_eq!(off.calls(Layer::Por), 0);
        assert!(off.to_jsonl("w").is_empty());
    }

    #[test]
    fn span_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, l) in Layer::ALL.into_iter().enumerate() {
            assert_eq!(
                l as usize, i,
                "ALL must list the layers in declaration order"
            );
            assert!(crate::metrics::valid_name(l.name()), "{}", l.name());
            assert!(seen.insert(l.name()), "duplicate span name {}", l.name());
        }
    }
}
