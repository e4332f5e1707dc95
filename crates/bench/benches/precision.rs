//! Experiment E7: the §5 precision micro-suite.
//!
//! Quantifies each imprecision source the paper catalogs:
//!
//! - **temporal independence** — Figure 2's closed `p'` performs one toss
//!   per iteration (2^10 behaviors) where `p × E_S` has 2;
//! - **dataflow composition** — `a = x + 1; b = a - x` taints `b` although
//!   `b` is semantically constant, so a dependent branch becomes a toss;
//! - **finite variance** — a node reached both with and without
//!   environment influence is removed wholesale.
//!
//! Alongside the human tables the run writes `BENCH_precision.json`
//! with the timed records (analysis and refinement-partition wall
//! times), so CI can track the closing front-end's cost like every
//! other bench.

use reclose_bench::harness::Criterion;
use reclose_bench::{close, compile, enumerate_config, trace_config, FIG2_P};
use reclose_bench::{criterion_group, criterion_main};
use std::hint::black_box;

fn count_traces(prog: &cfgir::CfgProgram, enumerate: bool) -> usize {
    let cfg = if enumerate {
        verisoft::Config {
            env_mode: verisoft::EnvMode::Enumerate,
            collect_traces: true,
            por: false,
            sleep_sets: false,
            ..enumerate_config(64)
        }
    } else {
        trace_config(64)
    };
    verisoft::explore(prog, &cfg).traces.len()
}

fn report() {
    println!("--- E7: precision micro-suite (behaviors: S x E_S vs closed S') ---");

    // Temporal independence.
    let open = compile(FIG2_P);
    let closed = close(&open);
    println!(
        "temporal independence (fig 2): {:>6} vs {:>6}  (10 per-iteration tosses vs 1 ideal choice)",
        count_traces(&open, true),
        count_traces(&closed.program, false)
    );

    // Dataflow composition: b = (x+1) - x is constant, but the analysis
    // taints it, so the branch on b becomes a toss.
    let comp = r#"
        extern chan out;
        input x : 0..255;
        proc m(int x) {
            int a = x + 1;
            int b = a - x;
            if (b == 1) send(out, 1);
            else send(out, 2);
        }
        process m(x);
    "#;
    let open = compile(comp);
    let closed = close(&open);
    println!(
        "dataflow composition:          {:>6} vs {:>6}  (branch on semantically-constant b)",
        count_traces(&open, true),
        count_traces(&closed.program, false)
    );

    // Finite variance: the same assignment runs once cleanly and once
    // tainted; the monovariant analysis removes it in both roles, folding
    // the downstream branch into a toss.
    let variance = r#"
        extern chan out;
        input x : 0..255;
        proc m(int x) {
            int v = 0;
            int round = 0;
            while (round < 2) {
                if (round == 1) { v = x; }
                v = v % 2;
                if (v == 0) send(out, round);
                else send(out, round + 10);
                round = round + 1;
            }
        }
        process m(x);
    "#;
    let open = compile(variance);
    let closed = close(&open);
    println!(
        "finite variance:               {:>6} vs {:>6}  (first iteration was environment-free)",
        count_traces(&open, true),
        count_traces(&closed.program, false)
    );
}

fn report_refinement() {
    // E8: the §7 improvement — input-domain partitioning recovers
    // exactness where elimination over-approximates, at a fraction of the
    // naive cost.
    println!("\n--- E8: §7 interface simplification (resource manager, domain 0..4095) ---");
    let src = r#"
        extern chan grant; extern chan deny; extern chan audit;
        input req : 0..4095;
        proc manager() {
            int t = env_input(req);
            if (t < 10) { send(grant, 1); }
            else {
                if (t < 1000) { send(grant, 2); }
                else { send(deny, 0); }
            }
            int tier = 0;
            if (t < 10) { tier = 1; }
            else {
                if (t < 1000) { tier = 2; }
                else { tier = 3; }
            }
            send(audit, tier);
        }
        process manager();
    "#;
    let open = compile(src);
    let ground = verisoft::explore(
        &open,
        &verisoft::Config {
            env_mode: verisoft::EnvMode::Enumerate,
            ..trace_config(64)
        },
    );
    let elim = close(&open);
    let e = verisoft::explore(&elim.program, &trace_config(64));
    let (refined, reports) = closer::close_with_refinement(src).unwrap();
    let r = verisoft::explore(&refined.program, &trace_config(64));
    println!("{:<18} {:>12} {:>10}", "method", "transitions", "behaviors");
    println!(
        "{:<18} {:>12} {:>10}",
        "naive E_S",
        ground.transitions,
        ground.traces.len()
    );
    println!(
        "{:<18} {:>12} {:>10}",
        "elimination",
        e.transitions,
        e.traces.len()
    );
    println!(
        "{:<18} {:>12} {:>10}  ({} classes, exact = {})",
        "refinement",
        r.transitions,
        r.traces.len(),
        reports[0].classes.len(),
        r.traces == ground.traces
    );
    assert_eq!(r.traces, ground.traces);
}

fn bench(c: &mut Criterion) {
    report();
    report_refinement();
    let open = compile(FIG2_P);
    c.bench_function("precision/analyze_fig2", |b| {
        b.iter(|| dataflow::analyze(black_box(&open)))
    });
    let mgr = r#"
        extern chan grant;
        input req : 0..1000000;
        proc manager() {
            int t = env_input(req);
            if (t < 1000) send(grant, 1);
            else send(grant, 2);
        }
        process manager();
    "#;
    let prog = compile(mgr);
    c.bench_function("precision/refine_partition", |b| {
        b.iter(|| closer::refine(black_box(&prog)))
    });

    // E9: counterexample-guided toss refinement over the precision-gap
    // corpus programs. Each record carries the refined program's residual
    // toss-site count and the explored-state counts before/after, so CI
    // can watch both the cost and the recovered precision.
    for name in ["gate", "clamp", "pair"] {
        let path = format!("{}/../../corpus/{}.mc", env!("CARGO_MANIFEST_DIR"), name);
        let src = std::fs::read_to_string(&path).expect("corpus program exists");
        let open = compile(&src);
        let closed = close(&open);
        let id = format!("precision/refine_cex/{name}");
        c.bench_function(&id, |b| {
            b.iter(|| {
                closer::refine_cex(
                    black_box(&open),
                    black_box(&closed),
                    &closer::CexOptions::default(),
                )
            })
        });
        let (refined, rep) = closer::refine_cex(&open, &closed, &closer::CexOptions::default());
        assert!(!rep.reverted, "{name}: refinement reverted");
        let tosses = refined
            .procs
            .iter()
            .flat_map(|p| p.nodes.iter())
            .filter(|n| matches!(n.kind, cfgir::NodeKind::TossCond { .. }))
            .count();
        c.annotate(&id, "toss_count", tosses as f64);
        c.annotate(&id, "explored_states", rep.states_after as f64);
        c.annotate(&id, "explored_states_unrefined", rep.states_before as f64);
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).emit_json("precision");
    targets = bench
}
criterion_main!(benches);
