//! The paper's §7 "possible improvements" example, implemented.
//!
//! A resource manager receives large integers (time requests) whose
//! visible behavior depends only on which of a few ranges each request
//! falls into. Three ways to make it analyzable:
//!
//! 1. **naive `E_S`** — enumerate the whole domain (intractable as the
//!    domain grows);
//! 2. **elimination** (the paper's main algorithm) — tractable, but the
//!    request's *data* is erased, and repeated tests of the same request
//!    become independent tosses (spurious behaviors);
//! 3. **refinement** (§7, implemented in `closer::partition`) — the
//!    static analysis determines the input-domain partition and keeps one
//!    representative per range: tractable *and* exact.
//!
//! Run with: `cargo run --release --example resource_manager`

use reclose::prelude::*;
use verisoft::EnvMode;

fn manager(domain_hi: u64) -> String {
    format!(
        r#"
        extern chan grant; extern chan deny; extern chan audit;
        input req : 0..{domain_hi};
        proc manager() {{
            int t = env_input(req);
            if (t < 10) {{ send(grant, 1); }}
            else {{
                if (t < 1000) {{ send(grant, 2); }}
                else {{ send(deny, 0); }}
            }}
            int tier = 0;
            if (t < 10) {{ tier = 1; }}
            else {{
                if (t < 1000) {{ tier = 2; }}
                else {{ tier = 3; }}
            }}
            send(audit, tier);
        }}
        process manager();
        "#
    )
}

fn trace_cfg(env: EnvMode) -> Config {
    Config {
        env_mode: env,
        collect_traces: true,
        por: false,
        sleep_sets: false,
        max_violations: usize::MAX,
        max_depth: 64,
        ..Config::default()
    }
}

fn main() -> Result<(), minic::Diagnostics> {
    // Small domain first, so ground truth is computable.
    let src = manager(4095);
    let open = compile(&src)?;
    let ground = explore(&open, &trace_cfg(EnvMode::Enumerate));
    let eliminated = close_source(&src)?;
    let elim = explore(&eliminated.program, &trace_cfg(EnvMode::Closed));
    let (refined, reports) = closer::close_with_refinement(&src)?;
    let refd = explore(&refined.program, &trace_cfg(EnvMode::Closed));

    println!("domain 0..4095 (ground truth computable):");
    println!(
        "  {:<22} {:>12} {:>10}",
        "method", "transitions", "behaviors"
    );
    println!(
        "  {:<22} {:>12} {:>10}",
        "naive E_S",
        ground.transitions,
        ground.traces.len()
    );
    println!(
        "  {:<22} {:>12} {:>10}   (spurious mixed-tier runs!)",
        "elimination",
        elim.transitions,
        elim.traces.len()
    );
    println!(
        "  {:<22} {:>12} {:>10}   (exact)",
        "refinement (§7)",
        refd.transitions,
        refd.traces.len()
    );
    assert_eq!(ground.traces, refd.traces, "refinement is exact");
    assert!(
        elim.traces.len() > ground.traces.len(),
        "elimination over-approximates"
    );
    for r in &reports {
        println!(
            "  partition of {}: {:?} (representatives {:?})",
            r.proc, r.classes, r.representatives
        );
    }

    // Now the domain the paper imagines: 32-bit requests. Enumeration is
    // out of the question; refinement still produces 3 classes.
    let big = manager(u32::MAX as u64);
    let (refined_big, reports_big) = closer::close_with_refinement(&big)?;
    let r = explore(&refined_big.program, &trace_cfg(EnvMode::Closed));
    println!("\ndomain 0..2^32-1 (naive enumeration would need ~10^10 transitions):");
    println!(
        "  refinement: {} classes, {} transitions, {} behaviors",
        reports_big[0].classes.len(),
        r.transitions,
        r.traces.len()
    );
    Ok(())
}
