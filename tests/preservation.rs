//! Theorem 7 differential testing (experiment E4 in DESIGN.md).
//!
//! "All the deadlocks in A_{S×E_S} are in A_{S'}. Moreover, for all the
//! assertions … preserved in p'_j, if there exists a global state in
//! A_{S×E_S} where such an assertion is violated, then there exists a
//! global state in A_{S'} where the same assertion is violated."
//!
//! Each case explores the open system composed with its most general
//! environment (domain enumeration — ground truth on small domains) and
//! the automatically closed system, then checks that every deadlock /
//! assertion verdict of the former appears in the latter.

use reclose::prelude::*;
use verisoft::ViolationKind;

struct Verdicts {
    deadlock: bool,
    assertion: bool,
}

fn verdicts(prog: &cfgir::CfgProgram, env_mode: EnvMode) -> Verdicts {
    let r = explore(
        prog,
        &Config {
            env_mode,
            max_violations: usize::MAX,
            max_depth: 300,
            max_transitions: 3_000_000,
            ..Config::default()
        },
    );
    assert!(!r.truncated, "ground-truth exploration must be complete");
    Verdicts {
        deadlock: r.count(|k| *k == ViolationKind::Deadlock) > 0,
        assertion: r.count(|k| *k == ViolationKind::AssertionViolation) > 0,
    }
}

/// Check Theorem 7 on one program: everything found in S × E_S is found
/// in S'.
fn check_preservation(src: &str) {
    let open = compile(src).unwrap_or_else(|d| panic!("bad test program: {d}\n{src}"));
    let closed = closer::close(&open, &dataflow::analyze(&open));
    assert!(closed.program.is_closed());
    let ground = verdicts(&open, EnvMode::Enumerate);
    let transformed = verdicts(&closed.program, EnvMode::Closed);
    if ground.deadlock {
        assert!(
            transformed.deadlock,
            "deadlock in S x E_S lost by the transformation:\n{src}"
        );
    }
    if ground.assertion {
        assert!(
            transformed.assertion,
            "assertion violation in S x E_S lost by the transformation:\n{src}"
        );
    }
}

#[test]
fn deadlock_triggered_by_specific_input() {
    // Only input value 3 routes into the half-locked path.
    check_preservation(
        r#"
        input x : 0..7;
        sem l1 = 1; sem l2 = 1;
        proc a() {
            int v = env_input(x);
            if (v == 3) { sem_wait(l1); sem_wait(l2); sem_signal(l2); sem_signal(l1); }
            else { sem_wait(l2); sem_wait(l1); sem_signal(l1); sem_signal(l2); }
        }
        proc b() { sem_wait(l2); sem_wait(l1); sem_signal(l1); sem_signal(l2); }
        process a();
        process b();
        "#,
    );
}

#[test]
fn assertion_on_env_independent_counter() {
    // The counter value is environment-independent; which branch bumps it
    // twice is environment-controlled.
    check_preservation(
        r#"
        input x : 0..3;
        chan c[2];
        proc m() {
            int v = env_input(x);
            int n = 0;
            if (v > 1) { n = n + 2; } else { n = n + 1; }
            send(c, n);
            int got = recv(c);
            VS_assert(got != 2);
        }
        process m();
        "#,
    );
}

#[test]
fn deadlock_via_unbalanced_channel_protocol() {
    // On one env-selected path the producer needs three sends but the
    // consumer receives only once: the third send blocks forever.
    check_preservation(
        r#"
        input x : 0..1;
        chan c[1];
        proc prod() {
            int v = env_input(x);
            send(c, 1);
            if (v == 1) { send(c, 2); send(c, 3); }
        }
        proc cons() { int a = recv(c); }
        process prod();
        process cons();
        "#,
    );
}

#[test]
fn violation_reached_through_procedure_calls() {
    check_preservation(
        r#"
        input x : 0..3;
        chan c[1];
        proc charge(int amount) { send(c, amount); }
        proc audit() {
            int total = 0;
            int v = recv(c);
            total = total + v;
            VS_assert(total <= 2);
        }
        proc m() {
            int d = env_input(x);
            if (d % 2 == 0) { charge(2); } else { charge(3); }
        }
        process m();
        process audit();
        "#,
    );
}

#[test]
fn clean_system_stays_clean() {
    // No defects in S × E_S; the closed system may over-approximate, but
    // for this program every toss path is also clean.
    let src = r#"
        input x : 0..7;
        chan c[2];
        proc m() {
            int v = env_input(x);
            int n = 0;
            if (v > 3) { n = 1; } else { n = 2; }
            send(c, n);
            int got = recv(c);
            VS_assert(got >= 1 && got <= 2);
        }
        process m();
    "#;
    let open = compile(src).unwrap();
    let closed = closer::close(&open, &dataflow::analyze(&open));
    let ground = verdicts(&open, EnvMode::Enumerate);
    let transformed = verdicts(&closed.program, EnvMode::Closed);
    assert!(!ground.deadlock && !ground.assertion);
    assert!(!transformed.deadlock && !transformed.assertion);
}

#[test]
fn over_approximation_can_add_violations_but_never_lose_them() {
    // In S × E_S the two tests always agree (same input), so the assert
    // never fires; in S' each test is an independent toss, so it can.
    // Theorem 7 only promises one direction — this pins the other side.
    let src = r#"
        input x : 0..1;
        chan c[1];
        proc m() {
            int v = env_input(x);
            int a = 0;
            int b = 0;
            if (v == 1) { a = 1; }
            v = env_input(x);
            if (v == 1) { b = 1; }
            send(c, a + b);
            int got = recv(c);
            VS_assert(got != 1);
        }
        process m();
    "#;
    let open = compile(src).unwrap();
    let closed = closer::close(&open, &dataflow::analyze(&open));
    let ground = verdicts(&open, EnvMode::Enumerate);
    let transformed = verdicts(&closed.program, EnvMode::Closed);
    // E_S *can* supply different values to the two reads, so S × E_S also
    // violates here — and so must S'.
    assert!(ground.assertion);
    assert!(transformed.assertion);
}

#[test]
fn preservation_across_switchsim_variants() {
    use switchsim::SwitchConfig;
    for (seed_deadlock, seed_assert) in [(false, false), (true, false), (false, true)] {
        let cfg = SwitchConfig {
            lines: 1,
            trunks: 1,
            events_per_line: if seed_deadlock { 2 } else { 1 },
            seed_deadlock,
            seed_assert,
            manual_stub_line0: false,
            with_voicemail: false,
        };
        let src = switchsim::generate(&cfg);
        check_preservation(&src);
    }
}

#[test]
fn preserved_deadlock_trace_replays_in_closed_program() {
    let src = r#"
        input x : 0..1;
        chan c[1];
        proc prod() {
            int v = env_input(x);
            send(c, 1);
            if (v == 1) { send(c, 2); send(c, 3); }
        }
        proc cons() { int a = recv(c); }
        process prod();
        process cons();
    "#;
    let open = compile(src).unwrap();
    let closed = closer::close(&open, &dataflow::analyze(&open));
    let r = explore(&closed.program, &Config::default());
    let v = r.first_deadlock().expect("deadlock found");
    // Replaying the decision trace reaches a state with no enabled system
    // transition.
    let state =
        verisoft::replay(&closed.program, &v.trace, EnvMode::Closed).expect("trace replays");
    assert!(verisoft::enabled_processes(&closed.program, &state).is_empty());
}
