//! # switchsim — a synthetic telephone-switching application
//!
//! The paper's case study (§6) is a large multi-process call-processing
//! application inside Lucent's 5ESS switch: "about 10 main families of
//! concurrent reactive processes", driven by external events
//! (originations, terminations, location registration, hand over,
//! roaming, call forwarding), impossible to close by hand because that
//! "would require developing and maintaining code for simulating a
//! substantial portion of the entire 5ESS switch software".
//!
//! That code is proprietary, so this crate generates a synthetic
//! application with the same *shape*, in MiniC:
//!
//! - `lines` subscriber-line handler processes, each driven by an
//!   environment-facing event channel (`extern chan evN : 0..3` —
//!   on-hook, off-hook, digit, roam) whose payloads (dialed digits) are
//!   environment data;
//! - a **router** granting route requests over internal channels;
//! - a **biller** accumulating per-call charges, with an invariant
//!   assertion;
//! - a **registrar** tracking roaming registrations;
//! - a trunk pool modeled by a semaphore.
//!
//! [`SwitchConfig::seed_deadlock`] plants a trunk leak (a code path that
//! forgets `sem_signal`), [`SwitchConfig::seed_assert`] plants a negative
//! billing charge — both *environment-independent* defects that the
//! closing transformation must preserve (Theorem 7), reachable only under
//! particular environment behaviors.
//!
//! [`SwitchConfig::manual_stub_line0`] replaces line 0's external events
//! with a deterministic scenario stub, reproducing the paper's
//! methodology: "We manually developed software stubs for providing a
//! small number of inputs … The remainder of the system was closed
//! automatically using our tool."
//!
//! The [`progen`] module generates parameterized synthetic programs for
//! the transformation-scaling experiment.

#![warn(missing_docs)]

use std::fmt::Write as _;

pub mod corpus;
pub mod oracle;
pub mod progen;
pub mod rng;

/// Marker value lines send to the service processes when they finish.
pub const DONE: i64 = -100;

/// Configuration of the generated switch application.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Number of subscriber-line handler processes (≥ 1).
    pub lines: usize,
    /// Trunk pool size (semaphore initial count, ≥ 1).
    pub trunks: i64,
    /// External events each line processes before retiring (bounds the
    /// state space).
    pub events_per_line: i64,
    /// Plant a trunk leak: line 0 skips `sem_signal` when the dialed
    /// digit is 3 — with enough leaked trunks the system deadlocks.
    pub seed_deadlock: bool,
    /// Plant a billing bug: line 0 charges −5 on odd digits, eventually
    /// violating the biller's `total >= 0` assertion.
    pub seed_assert: bool,
    /// Drive line 0 with a deterministic manual stub instead of the open
    /// environment.
    pub manual_stub_line0: bool,
    /// Add a voicemail service: calls dialed with digit 0 are forwarded
    /// to voicemail instead of billed directly; voicemail batches the
    /// deposits and bills them, adding a fourth service family.
    pub with_voicemail: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            lines: 2,
            trunks: 1,
            events_per_line: 2,
            seed_deadlock: false,
            seed_assert: false,
            manual_stub_line0: false,
            with_voicemail: false,
        }
    }
}

impl SwitchConfig {
    /// The smallest interesting instance.
    pub fn tiny() -> Self {
        SwitchConfig {
            lines: 1,
            events_per_line: 1,
            ..SwitchConfig::default()
        }
    }
}

/// Generate the MiniC source of the switch application.
///
/// # Panics
///
/// Panics when `lines == 0`, `trunks < 1`, or `events_per_line < 1`.
pub fn generate(cfg: &SwitchConfig) -> String {
    assert!(cfg.lines >= 1, "need at least one line");
    assert!(cfg.trunks >= 1, "need at least one trunk");
    assert!(cfg.events_per_line >= 1, "need at least one event per line");
    let mut s = String::new();
    let n = cfg.lines;
    let maxe = cfg.events_per_line;

    let _ = writeln!(s, "// Synthetic call-processing application: {n} line(s),");
    let _ = writeln!(s, "// {} trunk(s), {} event(s) per line.", cfg.trunks, maxe);
    let _ = writeln!(s, "sem trunks = {};", cfg.trunks);
    let _ = writeln!(s, "chan route_req[2];");
    let _ = writeln!(s, "chan bill[2];");
    let _ = writeln!(s, "chan reg[2];");
    if cfg.with_voicemail {
        let _ = writeln!(s, "chan vm[2];");
    }
    for i in 0..n {
        if i == 0 && cfg.manual_stub_line0 {
            let _ = writeln!(s, "chan ev0[1];");
        } else {
            let _ = writeln!(s, "extern chan ev{i} : 0..3;");
        }
        let _ = writeln!(s, "chan rr{i}[1];");
    }
    s.push('\n');

    // Line handlers.
    for i in 0..n {
        let leak = cfg.seed_deadlock && i == 0;
        let bad_charge = cfg.seed_assert && i == 0;
        let odd_charge = if bad_charge { -5 } else { 3 };
        let _ = writeln!(s, "proc line{i}() {{");
        let _ = writeln!(s, "    int calls = 0;");
        let _ = writeln!(s, "    int holding = 0;");
        let _ = writeln!(s, "    while (calls < {maxe}) {{");
        let _ = writeln!(s, "        int e = recv(ev{i});");
        let _ = writeln!(s, "        if (e == 1) {{");
        let _ = writeln!(
            s,
            "            // off-hook: dial, allocate a trunk, route, bill"
        );
        let _ = writeln!(s, "            int d = recv(ev{i});");
        let _ = writeln!(s, "            sem_wait(trunks);");
        let _ = writeln!(s, "            holding = holding + 1;");
        let _ = writeln!(s, "            VS_assert(holding == 1);");
        let _ = writeln!(s, "            send(route_req, {i});");
        let _ = writeln!(s, "            int grant = recv(rr{i});");
        let _ = writeln!(s, "            VS_assert(grant == 1);");
        if cfg.with_voicemail {
            let _ = writeln!(s, "            if (d == 0) {{");
            let _ = writeln!(s, "                // busy route: forward to voicemail");
            let _ = writeln!(s, "                send(vm, {i});");
            let _ = writeln!(s, "            }} else {{");
            let _ = writeln!(s, "                if (d % 2 == 0) {{");
            let _ = writeln!(s, "                    send(bill, 2);");
            let _ = writeln!(s, "                }} else {{");
            let _ = writeln!(s, "                    send(bill, {odd_charge});");
            let _ = writeln!(s, "                }}");
            let _ = writeln!(s, "            }}");
        } else {
            let _ = writeln!(s, "            if (d % 2 == 0) {{");
            let _ = writeln!(s, "                send(bill, 2);");
            let _ = writeln!(s, "            }} else {{");
            let _ = writeln!(s, "                send(bill, {odd_charge});");
            let _ = writeln!(s, "            }}");
        }
        if leak {
            let _ = writeln!(s, "            if (d == 3) {{");
            let _ = writeln!(
                s,
                "                // BUG: trunk never released on this path"
            );
            let _ = writeln!(s, "                holding = holding - 1;");
            let _ = writeln!(s, "            }} else {{");
            let _ = writeln!(s, "                sem_signal(trunks);");
            let _ = writeln!(s, "                holding = holding - 1;");
            let _ = writeln!(s, "            }}");
        } else {
            let _ = writeln!(s, "            sem_signal(trunks);");
            let _ = writeln!(s, "            holding = holding - 1;");
        }
        let _ = writeln!(s, "        }} else {{");
        let _ = writeln!(s, "            if (e == 3) {{");
        let _ = writeln!(s, "                // roam: register the new location");
        let _ = writeln!(s, "                send(reg, {i});");
        let _ = writeln!(s, "            }}");
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "        calls = calls + 1;");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "    send(route_req, {DONE});");
        let _ = writeln!(s, "    send(bill, {DONE});");
        let _ = writeln!(s, "    send(reg, {DONE});");
        if cfg.with_voicemail {
            let _ = writeln!(s, "    send(vm, {DONE});");
        }
        let _ = writeln!(s, "}}");
        s.push('\n');
    }

    // Router.
    let _ = writeln!(s, "proc router() {{");
    let _ = writeln!(s, "    int done = 0;");
    let _ = writeln!(s, "    while (done < {n}) {{");
    let _ = writeln!(s, "        int id = recv(route_req);");
    let _ = writeln!(s, "        if (id == {DONE}) {{");
    let _ = writeln!(s, "            done = done + 1;");
    let _ = writeln!(s, "        }} else {{");
    let _ = writeln!(s, "            switch (id) {{");
    for i in 0..n {
        let _ = writeln!(s, "                case {i}: send(rr{i}, 1);");
    }
    let _ = writeln!(s, "                default: ;");
    let _ = writeln!(s, "            }}");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s.push('\n');

    // Biller.
    let _ = writeln!(s, "proc biller() {{");
    let _ = writeln!(s, "    int done = 0;");
    let _ = writeln!(s, "    int total = 0;");
    let _ = writeln!(s, "    while (done < {n}) {{");
    let _ = writeln!(s, "        int v = recv(bill);");
    let _ = writeln!(s, "        if (v == {DONE}) {{");
    let _ = writeln!(s, "            done = done + 1;");
    let _ = writeln!(s, "        }} else {{");
    let _ = writeln!(s, "            total = total + v;");
    let _ = writeln!(s, "            VS_assert(total >= 0);");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s.push('\n');

    // Registrar.
    let max_roams = n as i64 * maxe;
    let _ = writeln!(s, "proc registrar() {{");
    let _ = writeln!(s, "    int done = 0;");
    let _ = writeln!(s, "    int roams = 0;");
    let _ = writeln!(s, "    while (done < {n}) {{");
    let _ = writeln!(s, "        int id = recv(reg);");
    let _ = writeln!(s, "        if (id == {DONE}) {{");
    let _ = writeln!(s, "            done = done + 1;");
    let _ = writeln!(s, "        }} else {{");
    let _ = writeln!(s, "            roams = roams + 1;");
    let _ = writeln!(s, "            VS_assert(roams <= {max_roams});");
    let _ = writeln!(s, "        }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "}}");
    s.push('\n');

    // Voicemail: batches deposits and bills them in one charge each.
    if cfg.with_voicemail {
        let _ = writeln!(s, "proc voicemail() {{");
        let _ = writeln!(s, "    int done = 0;");
        let _ = writeln!(s, "    int stored = 0;");
        let _ = writeln!(s, "    while (done < {n}) {{");
        let _ = writeln!(s, "        int who = recv(vm);");
        let _ = writeln!(s, "        if (who == {DONE}) {{");
        let _ = writeln!(s, "            done = done + 1;");
        let _ = writeln!(s, "        }} else {{");
        let _ = writeln!(s, "            stored = stored + 1;");
        let _ = writeln!(s, "            VS_assert(stored <= {max_roams});");
        let _ = writeln!(s, "            send(bill, 1);");
        let _ = writeln!(s, "        }}");
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "}}");
        s.push('\n');
    }

    // Manual stub for line 0: a deterministic event scenario.
    if cfg.manual_stub_line0 {
        let _ = writeln!(s, "proc stub0() {{");
        let _ = writeln!(s, "    // manual stub: deterministic scenario for line 0");
        for k in 0..maxe {
            if k % 2 == 0 {
                let digit = k % 4;
                let _ = writeln!(s, "    send(ev0, 1);");
                let _ = writeln!(s, "    send(ev0, {digit});");
            } else {
                let _ = writeln!(s, "    send(ev0, 3);");
            }
        }
        let _ = writeln!(s, "}}");
        s.push('\n');
    }

    // Processes.
    for i in 0..n {
        let _ = writeln!(s, "process line{i}();");
    }
    let _ = writeln!(s, "process router();");
    let _ = writeln!(s, "process biller();");
    let _ = writeln!(s, "process registrar();");
    if cfg.with_voicemail {
        let _ = writeln!(s, "process voicemail();");
    }
    if cfg.manual_stub_line0 {
        let _ = writeln!(s, "process stub0();");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use verisoft::{explore, Config, EnvMode, ViolationKind};

    fn compile(cfg: &SwitchConfig) -> cfgir::CfgProgram {
        let src = generate(cfg);
        cfgir::compile(&src).unwrap_or_else(|d| panic!("switch source invalid:\n{d}\n{src}"))
    }

    #[test]
    fn generated_source_compiles_across_sizes() {
        for lines in [1, 2, 3, 5, 8] {
            let cfg = SwitchConfig {
                lines,
                ..SwitchConfig::default()
            };
            let prog = compile(&cfg);
            assert_eq!(prog.processes.len(), lines + 3);
            assert!(prog.has_open_interface(), "switch is an open system");
        }
    }

    #[test]
    fn all_variants_compile() {
        for (d, a, m) in [
            (true, false, false),
            (false, true, false),
            (false, false, true),
            (true, true, true),
        ] {
            let cfg = SwitchConfig {
                seed_deadlock: d,
                seed_assert: a,
                manual_stub_line0: m,
                ..SwitchConfig::default()
            };
            compile(&cfg);
        }
    }

    #[test]
    fn closed_switch_is_self_executable() {
        let cfg = SwitchConfig::tiny();
        let prog = compile(&cfg);
        let closed = closer::close(&prog, &dataflow::analyze(&prog));
        assert!(closed.program.is_closed());
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 200,
                max_transitions: 500_000,
                ..Config::default()
            },
        );
        assert!(r.clean(), "healthy tiny switch is violation-free: {r}");
        assert!(!r.truncated);
    }

    #[test]
    fn seeded_billing_bug_found_in_closed_switch() {
        let cfg = SwitchConfig {
            lines: 1,
            events_per_line: 1,
            seed_assert: true,
            ..SwitchConfig::default()
        };
        let prog = compile(&cfg);
        let closed = closer::close(&prog, &dataflow::analyze(&prog));
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 300,
                max_transitions: 1_000_000,
                ..Config::default()
            },
        );
        assert!(
            r.first_assert().is_some(),
            "closing preserves the billing violation: {r}"
        );
    }

    #[test]
    fn seeded_trunk_leak_deadlocks_closed_switch() {
        // One trunk, line 0 leaks it on digit 3, then tries a second call.
        let cfg = SwitchConfig {
            lines: 1,
            trunks: 1,
            events_per_line: 2,
            seed_deadlock: true,
            ..SwitchConfig::default()
        };
        let prog = compile(&cfg);
        let closed = closer::close(&prog, &dataflow::analyze(&prog));
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 400,
                max_transitions: 2_000_000,
                ..Config::default()
            },
        );
        assert!(
            r.first_deadlock().is_some(),
            "closing preserves the trunk-leak deadlock: {r}"
        );
    }

    #[test]
    fn bug_also_visible_under_enumerated_environment() {
        // Ground truth: the same billing bug is reachable in S × E_S.
        let cfg = SwitchConfig {
            lines: 1,
            events_per_line: 1,
            seed_assert: true,
            ..SwitchConfig::default()
        };
        let prog = compile(&cfg);
        let r = explore(
            &prog,
            &Config {
                env_mode: EnvMode::Enumerate,
                max_depth: 300,
                max_transitions: 2_000_000,
                ..Config::default()
            },
        );
        assert!(r.first_assert().is_some(), "{r}");
    }

    #[test]
    fn manual_stub_plus_autoclose_methodology() {
        // The paper's §6 workflow: stub some external events manually,
        // close the rest automatically.
        let cfg = SwitchConfig {
            lines: 2,
            manual_stub_line0: true,
            ..SwitchConfig::default()
        };
        let prog = compile(&cfg);
        // Line 1's events remain open; line 0 is driven by the stub.
        assert!(prog.has_open_interface());
        let closed = closer::close(&prog, &dataflow::analyze(&prog));
        assert!(closed.program.is_closed());
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 250,
                max_transitions: 2_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert_eq!(r.count(|k| *k == ViolationKind::Deadlock), 0, "{r}");
    }

    #[test]
    fn healthy_switch_has_no_violations_under_enumeration() {
        let cfg = SwitchConfig::tiny();
        let prog = compile(&cfg);
        let r = explore(
            &prog,
            &Config {
                env_mode: EnvMode::Enumerate,
                max_depth: 200,
                max_transitions: 1_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert!(r.clean(), "{r}");
    }
}

#[cfg(test)]
mod voicemail_tests {
    use super::*;
    use verisoft::{explore, Config};

    #[test]
    fn voicemail_variant_compiles_and_closes_cleanly() {
        let cfg = SwitchConfig {
            lines: 1,
            events_per_line: 1,
            with_voicemail: true,
            ..SwitchConfig::default()
        };
        let src = generate(&cfg);
        let prog = cfgir::compile(&src)
            .unwrap_or_else(|d| panic!("voicemail switch invalid:\n{d}\n{src}"));
        assert_eq!(prog.processes.len(), 5, "voicemail adds a fourth service");
        let closed = closer::close(&prog, &dataflow::analyze(&prog));
        let r = explore(
            &closed.program,
            &Config {
                max_depth: 300,
                max_transitions: 1_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert!(r.clean(), "{r}");
        assert!(!r.truncated);
    }

    #[test]
    fn voicemail_forwarding_reaches_voicemail_in_closed_program() {
        // In the closed program the digit choice is a toss, so some path
        // forwards to voicemail; verify the vm channel is exercised by
        // checking trace events mention the vm object.
        let cfg = SwitchConfig {
            lines: 1,
            events_per_line: 1,
            with_voicemail: true,
            ..SwitchConfig::default()
        };
        let prog = cfgir::compile(&generate(&cfg)).unwrap();
        let closed = closer::close(&prog, &dataflow::analyze(&prog));
        let vm = cfgir::ObjId(
            closed
                .program
                .objects
                .iter()
                .position(|o| o.name == "vm")
                .expect("vm channel exists") as u32,
        );
        let r = explore(
            &closed.program,
            &Config {
                collect_traces: true,
                por: false,
                sleep_sets: false,
                max_depth: 120,
                max_transitions: 2_000_000,
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        let vm_used = r.traces.iter().flatten().any(|e| match e.op {
            verisoft::EventOp::Send(o, _) | verisoft::EventOp::Recv(o, _) => o == vm,
            _ => false,
        });
        assert!(vm_used, "some toss path forwards to voicemail");
    }
}
