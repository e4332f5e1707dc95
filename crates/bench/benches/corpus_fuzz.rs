//! Experiment E12: adversarial corpus engine throughput.
//!
//! `switchsim::corpus` drives the whole toolchain — generate an open
//! program, close it through `closer::Pipeline`, then cross-check every
//! engine × POR × jobs configuration against a full-interleaving
//! baseline. This bench times a fixed-seed sweep so CI can track
//! programs/sec through the complete generate→close→check loop, and
//! separately times the two halves (generation alone, close+check
//! alone) so a regression is attributable. Alongside the human table
//! the run writes `BENCH_corpus.json` with generated/closed/checked
//! rates (see `harness::Criterion::emit_json`); `ci.sh` checks the
//! file's schema.

use reclose_bench::harness::{Criterion, Throughput};
use reclose_bench::{criterion_group, criterion_main};
use std::hint::black_box;
use switchsim::corpus::{self, FuzzOptions};
use switchsim::oracle::OracleLimits;

const SEEDS: u64 = 48;

fn opts() -> FuzzOptions {
    FuzzOptions {
        seed_start: 0,
        seeds: SEEDS,
        budget: None,
        minimize: true,
        limits: OracleLimits::default(),
    }
}

fn bench(c: &mut Criterion) {
    // One reference sweep up front: asserts the fixed seed range is
    // divergence-free (a bench must not time a broken toolchain) and
    // supplies the per-stage rates annotated into the JSON.
    let summary = corpus::fuzz(&opts());
    assert!(
        summary.ok(),
        "fixed-seed bench sweep found divergences:\n{summary}"
    );
    println!("--- E12: reference sweep over {SEEDS} seeds ---");
    println!("{summary}");

    let mut g = c.benchmark_group("corpus");
    g.throughput(Throughput::Elements(SEEDS));
    g.bench_with_input(
        reclose_bench::harness::BenchmarkId::new("sweep", SEEDS),
        &(),
        |b, ()| b.iter(|| black_box(corpus::fuzz(&opts()))),
    );
    g.bench_with_input(
        reclose_bench::harness::BenchmarkId::new("generate", SEEDS),
        &(),
        |b, ()| {
            b.iter(|| {
                for seed in 0..SEEDS {
                    black_box(corpus::generate(seed));
                }
            })
        },
    );
    g.finish();

    let limits = OracleLimits::default();
    c.bench_function("corpus/close_and_check/1", |b| {
        let src = corpus::generate(0);
        b.iter(|| black_box(corpus::close_and_check(&src, &limits)))
    });

    let sweep = format!("corpus/sweep/{SEEDS}");
    c.annotate(&sweep, "generated_per_sec", summary.rate(summary.generated));
    c.annotate(&sweep, "closed_per_sec", summary.rate(summary.closed));
    c.annotate(&sweep, "checked_per_sec", summary.rate(summary.checked));
    c.annotate(&sweep, "explore_runs", summary.explore_runs as f64);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .emit_json("corpus");
    targets = bench
}
criterion_main!(benches);
