//! Property-based tests over the whole toolchain.
//!
//! Deterministic randomized testing: every property is checked against a
//! fixed-seed SplitMix64 stream ([`switchsim::rng`]), so failures
//! reproduce exactly and the suite needs no external crates. The default
//! sample counts keep tier-1 fast; `--features heavy-tests` multiplies
//! them for deeper sweeps.

use reclose::prelude::*;
use switchsim::rng::SplitMix64;

/// Sample-count knob: heavier sweeps behind `--features heavy-tests`.
fn cases(default: usize) -> usize {
    if cfg!(feature = "heavy-tests") {
        default * 4
    } else {
        default
    }
}

// ---------------------------------------------------------------------
// Expression pretty-print / parse roundtrip
// ---------------------------------------------------------------------

const BINOPS: &[&str] = &[
    "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "&", "|", "^", "<<",
    ">>",
];

/// A random expression over variables a, b, c and small constants,
/// fully parenthesized so precedence is not under test here.
fn gen_expr(rng: &mut SplitMix64, depth: usize) -> String {
    if depth == 0 || rng.chance(1, 4) {
        return if rng.coin() {
            rng.range(0, 1000).to_string()
        } else {
            ["a", "b", "c"][rng.below(3)].to_string()
        };
    }
    match rng.below(3) {
        0 => {
            let l = gen_expr(rng, depth - 1);
            let r = gen_expr(rng, depth - 1);
            let op = BINOPS[rng.below(BINOPS.len())];
            format!("({l} {op} {r})")
        }
        1 => format!("(-({}))", gen_expr(rng, depth - 1)),
        _ => format!("(!({}))", gen_expr(rng, depth - 1)),
    }
}

#[test]
fn expr_roundtrip_through_pretty_printer() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for _ in 0..cases(64) {
        let e = gen_expr(&mut rng, 4);
        let src = format!("proc m(int a, int b, int c) {{ int r = {e}; }} process m(0, 0, 0);");
        let ast = minic::parse(&src).expect("generated expression parses");
        let printed = minic::pretty::program_to_string(&ast);
        let again = minic::parse(&printed)
            .unwrap_or_else(|d| panic!("pretty output unparseable: {d}\n{printed}"));
        let printed2 = minic::pretty::program_to_string(&again);
        assert_eq!(printed, printed2, "expr: {e}");
    }
}

#[test]
fn expr_evaluation_stable_under_normalization() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for _ in 0..cases(64) {
        // The expression's *value* is unchanged by the pipeline: evaluate
        // it by asserting equality against itself routed through a
        // channel, exploring exhaustively (division by zero may occur —
        // runtime errors are allowed, assertion violations are not).
        let e = gen_expr(&mut rng, 4);
        let src2 = format!(
            "chan ch[1]; proc m(int a, int b, int c) {{\
                int r = {e};\
                send(ch, r);\
                int back = recv(ch);\
                VS_assert(back == r);\
            }} process m(3, 5, 7);"
        );
        let prog = compile(&src2).expect("generated program compiles");
        let r = explore(
            &prog,
            &Config {
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert_eq!(
            r.count(|k| *k == verisoft::ViolationKind::AssertionViolation),
            0,
            "self-equality violated for {e}: {r}"
        );
    }
}

// ---------------------------------------------------------------------
// Generated-program pipeline properties
// ---------------------------------------------------------------------

#[test]
fn progen_pipeline_properties() {
    use switchsim::progen::{self, Shape};
    let mut rng = SplitMix64::new(0x5eed_0003);
    for _ in 0..cases(24) {
        let shape = [Shape::Straight, Shape::Branchy, Shape::Loopy][rng.below(3)];
        let stmts = 4 + rng.below(92);
        let seed = rng.range(0, 1000);
        let open = progen::compile(shape, stmts, seed);
        cfgir::validate(&open).unwrap();
        let closed = closer::close(&open, &dataflow::analyze(&open));
        // 1. Closedness.
        assert!(closed.program.is_closed());
        cfgir::validate(&closed.program).unwrap();
        // 2. Branching bounds. The paper's informal claim that branching
        // is "preserved, or may even reduced" holds per eliminated-region
        // entry, but *total* static branching can grow when one eliminated
        // region is entered by several preserved arcs (its fan-out is then
        // duplicated per entry) — see the pinned
        // `branching_can_grow_with_shared_eliminated_regions` test and the
        // EXPERIMENTS.md discussion. What IS guaranteed: every toss node's
        // fan-out is bounded by the number of kept nodes.
        for p in &closed.program.procs {
            let kept = p.reachable().len();
            for n in p.node_ids() {
                if let cfgir::NodeKind::TossCond { bound } = p.node(n).kind {
                    assert!((bound as usize + 1) <= kept, "{shape:?}/{stmts}/{seed}");
                }
            }
        }
        // 3. Node count never grows by more than the inserted tosses.
        for (r, p) in closed.reports.iter().zip(closed.program.procs.iter()) {
            assert!(r.nodes_kept <= r.nodes_before);
            assert!(p.nodes.len() <= r.nodes_kept + r.toss_nodes_inserted + 1);
        }
        // 4. Idempotence.
        let twice = closer::close(&closed.program, &dataflow::analyze(&closed.program));
        for (a, b) in closed.program.procs.iter().zip(twice.program.procs.iter()) {
            assert!(cfgir::isomorphic(a, b), "{shape:?}/{stmts}/{seed}");
        }
    }
}

#[test]
fn progen_closed_programs_execute_cleanly() {
    use switchsim::progen::{self, Shape};
    let mut rng = SplitMix64::new(0x5eed_0004);
    for _ in 0..cases(24) {
        let stmts = 4 + rng.below(44);
        let seed = rng.range(0, 500);
        let open = progen::compile(Shape::Loopy, stmts, seed);
        let closed = closer::close(&open, &dataflow::analyze(&open));
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 200,
                max_transitions: 200_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        // Lemma 5 dynamically: no env reads, no branch-on-opaque, no
        // divergence in the closed program.
        assert_eq!(
            r.count(|k| matches!(k, verisoft::ViolationKind::RuntimeError(_))),
            0,
            "runtime error at Loopy/{stmts}/{seed}: {r}"
        );
    }
}

// ---------------------------------------------------------------------
// Toss semantics: the search tree covers exactly the product of bounds
// ---------------------------------------------------------------------

#[test]
fn toss_trace_count_is_product_of_bounds() {
    let mut rng = SplitMix64::new(0x5eed_0005);
    for _ in 0..cases(32) {
        let bounds: Vec<u32> = (0..1 + rng.below(3))
            .map(|_| rng.range(1, 4) as u32)
            .collect();
        let mut body = String::new();
        for (i, b) in bounds.iter().enumerate() {
            body.push_str(&format!("int v{i} = VS_toss({b}); send(out, v{i});\n"));
        }
        let src = format!("extern chan out;\nproc m() {{\n{body}}}\nprocess m();");
        let prog = compile(&src).unwrap();
        let r = explore(
            &prog,
            &Config {
                collect_traces: true,
                por: false,
                sleep_sets: false,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        let expected: u64 = bounds.iter().map(|b| *b as u64 + 1).product();
        assert_eq!(r.traces.len() as u64, expected, "bounds: {bounds:?}");
    }
}

#[test]
fn enumerate_equals_domain_product() {
    let mut rng = SplitMix64::new(0x5eed_0006);
    for _ in 0..cases(32) {
        let lo = rng.range_i64(-3, 3);
        let width = rng.range_i64(0, 5);
        let hi = lo + width;
        let src = format!(
            "extern chan out;\ninput x : {lo}..{hi};\n\
             proc m() {{ int v = env_input(x); send(out, v); }}\nprocess m();"
        );
        let prog = compile(&src).unwrap();
        let r = explore(
            &prog,
            &Config {
                env_mode: EnvMode::Enumerate,
                collect_traces: true,
                por: false,
                sleep_sets: false,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert_eq!(r.traces.len() as i64, width + 1, "{lo}..{hi}");
    }
}

// ---------------------------------------------------------------------
// Randomized Theorem 7 check on a template family
// ---------------------------------------------------------------------

#[test]
fn theorem7_on_random_branching_programs() {
    let mut rng = SplitMix64::new(0x5eed_0007);
    for _ in 0..cases(16) {
        // A producer whose charge depends on an environment comparison,
        // and an auditor asserting the total stays nonnegative. Whether
        // the assertion can fail depends on the generated constants.
        let dom = rng.range_i64(1, 6);
        let threshold = rng.range_i64(0, 6);
        let charge_a = rng.range_i64(1, 4);
        let charge_b = rng.range_i64(-2, 4);
        let src = format!(
            r#"
            input x : 0..{dom};
            chan c[1];
            proc m() {{
                int v = env_input(x);
                int amount = 0;
                if (v > {threshold}) {{ amount = {charge_a}; }} else {{ amount = {charge_b}; }}
                send(c, amount);
                int got = recv(c);
                VS_assert(got >= 0);
            }}
            process m();
            "#
        );
        let open = compile(&src).unwrap();
        let ground = explore(
            &open,
            &Config {
                env_mode: EnvMode::Enumerate,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        let closed = closer::close(&open, &dataflow::analyze(&open));
        let transformed = explore(
            &closed.program,
            &Config {
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        let g = ground.count(|k| *k == verisoft::ViolationKind::AssertionViolation) > 0;
        let t = transformed.count(|k| *k == verisoft::ViolationKind::AssertionViolation) > 0;
        if g {
            assert!(t, "violation lost by closing:\n{src}");
        }
    }
}

// ---------------------------------------------------------------------
// A pinned deviation from the paper's informal branching claim
// ---------------------------------------------------------------------

/// §1 of the paper says the transformation "preserves, or may even
/// reduce, the static degree of branching of the original code." That is
/// true for every example in the paper and for most programs (see the
/// `branching_degree` bench), but it is *not* a theorem of the Figure 1
/// algorithm: when an eliminated region with internal branching is
/// entered by several preserved arcs, Step 4 computes `succ(a)` per entry
/// arc and duplicates the region's fan-out. This test pins a concrete
/// such program so the deviation stays visible. (The pinned seed is for
/// the in-tree SplitMix64 stream; it was re-discovered when the generator
/// moved off the external `rand` crate.)
#[test]
fn branching_can_grow_with_shared_eliminated_regions() {
    use switchsim::progen::{self, Shape};
    let open = progen::compile(Shape::Branchy, PINNED_STMTS, PINNED_SEED);
    let closed = closer::close(&open, &dataflow::analyze(&open));
    let rep = &closer::compare(&open, &closed.program)[0];
    assert!(
        rep.degree_after > rep.degree_before,
        "expected the known counterexample to grow: {rep:?}"
    );
}

/// Pinned counterexample coordinates for the test above (Branchy shape;
/// grows static branching degree 9 → 11).
const PINNED_STMTS: usize = 12;
const PINNED_SEED: u64 = 8;

// ---------------------------------------------------------------------
// Engine agreement: all engines reach the same verdicts
// ---------------------------------------------------------------------

#[test]
fn engines_agree_on_closed_programs() {
    use switchsim::progen::{self, Shape};
    let mut rng = SplitMix64::new(0x5eed_0008);
    for _ in 0..cases(16) {
        let stmts = 4 + rng.below(36);
        let seed = rng.range(0, 300);
        let open = progen::compile(Shape::Loopy, stmts, seed);
        let closed = closer::close(&open, &dataflow::analyze(&open));
        let run = |engine| {
            explore(
                &closed.program,
                &Config {
                    engine,
                    jobs: 2,
                    max_depth: 150,
                    max_transitions: 300_000,
                    max_violations: usize::MAX,
                    ..Config::default()
                },
            )
        };
        let a = run(Engine::Stateless);
        let b = run(Engine::Stateful);
        let c = run(Engine::StatefulParallel);
        let kinds = |r: &Report| {
            let mut ks: Vec<String> = r.violations.iter().map(|v| v.kind.to_string()).collect();
            ks.sort();
            ks.dedup();
            ks
        };
        assert_eq!(kinds(&a), kinds(&b), "Loopy/{stmts}/{seed}");
        assert_eq!(kinds(&b), kinds(&c), "Loopy/{stmts}/{seed}");
    }
}

#[test]
fn refinement_exactness_on_random_range_programs() {
    let mut rng = SplitMix64::new(0x5eed_0009);
    for _ in 0..cases(16) {
        // Random two-test range program: refinement must be exactly
        // trace-equivalent to enumeration whenever it applies.
        let dom = rng.range_i64(4, 200);
        let c1 = rng.range_i64(1, 100);
        let c2 = rng.range_i64(1, 100);
        let src = format!(
            r#"
            extern chan out;
            input x : 0..{dom};
            proc m() {{
                int t = env_input(x);
                if (t < {c1}) {{ send(out, 1); }} else {{ send(out, 2); }}
                if (t >= {c2}) {{ send(out, 3); }} else {{ send(out, 4); }}
            }}
            process m();
            "#
        );
        let open = compile(&src).unwrap();
        let tcfg = Config {
            collect_traces: true,
            por: false,
            sleep_sets: false,
            max_violations: usize::MAX,
            max_depth: 64,
            ..Config::default()
        };
        let ground = explore(
            &open,
            &Config {
                env_mode: EnvMode::Enumerate,
                ..tcfg.clone()
            },
        )
        .traces;
        let (refined, reports) = closer::refine(&open, &closer::RefineOptions::default());
        assert_eq!(reports.len(), 1, "two const comparisons always qualify");
        let closed = closer::close(&refined, &dataflow::analyze(&refined));
        let rt = explore(&closed.program, &tcfg).traces;
        assert_eq!(ground, rt, "{dom}/{c1}/{c2}");
    }
}
