//! # envgen — the most general environment, synthesized explicitly
//!
//! The baseline the paper argues against (§3): "Given an open system S,
//! add a new component E_S to S whose behavior includes all possible
//! sequences of inputs and outputs of S. However, this naive approach
//! generates a closed system whose state space is typically so large that
//! it renders any analysis intractable."
//!
//! [`synthesize`] performs exactly that construction at the CFG level:
//!
//! - every `env_input(x)` read becomes a `recv` on a fresh internal
//!   channel fed by an environment process that loops
//!   `v = VS_toss(|dom|-1); send(chan, lo + v)` — nondeterministically
//!   providing *any* value of the input's domain, at any time;
//! - every environment-supplied spawn argument is routed through a wrapper
//!   procedure that receives the initial value from such a channel;
//! - every receive-only external channel becomes an internal channel with
//!   an environment feeder; every send-only external channel becomes an
//!   internal channel with an environment drain (E_S "can take any output
//!   o in O_S produced by the system").
//!
//! The result is a *closed* program whose state space contains `S × E_S`
//! — with per-read branching equal to the full domain size, which is what
//! the `naive_vs_closed` benchmark measures against the closing
//! transformation.
//!
//! For measurements that do not need explicit environment processes,
//! `verisoft::EnvMode::Enumerate` implements the same most-general
//! environment *semantically* (domain branching at each read without
//! extra processes); [`synthesize`] is the literal §3 construction.

#![warn(missing_docs)]

use cfgir::{
    CfgProc, CfgProgram, Guard, NodeId, NodeKind, ObjId, Operand, Place, ProcId, PureExpr, Rvalue,
    SpawnArg, VarId, VarInfo, VarKind, VisOp,
};
use minic::ast::{BinOp, Ty};
use minic::sema::{ObjectKind, ObjectSym};
use minic::span::Span;

/// Why synthesis failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvGenError {
    /// An external channel is both sent to and received from by the
    /// system; the explicit construction supports single-direction
    /// external channels only (use `verisoft::EnvMode::Enumerate` for
    /// mixed use).
    MixedDirectionExternChannel(String),
    /// An input or external-channel domain is too large to express as a
    /// `VS_toss` bound.
    DomainTooLarge(String),
}

impl std::fmt::Display for EnvGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnvGenError::MixedDirectionExternChannel(n) => write!(
                f,
                "external channel `{n}` is used in both directions; explicit E_S synthesis needs single-direction channels"
            ),
            EnvGenError::DomainTooLarge(n) => {
                write!(f, "domain of `{n}` is too large for a VS_toss bound")
            }
        }
    }
}

impl std::error::Error for EnvGenError {}

/// Statistics about the synthesized environment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EnvReport {
    /// Environment processes added.
    pub env_processes: usize,
    /// Channels added for input delivery.
    pub env_channels: usize,
    /// Sum over inputs of their domain sizes — the branching the explorer
    /// will face at every read.
    pub total_domain_values: u64,
}

/// The synthesized closed system `S × E_S`.
#[derive(Debug, Clone)]
pub struct Synthesized {
    /// The closed program containing the original processes plus `E_S`.
    pub program: CfgProgram,
    /// Environment statistics.
    pub report: EnvReport,
}

/// Compose `prog` with an explicit most general environment.
///
/// # Errors
///
/// See [`EnvGenError`].
pub fn synthesize(prog: &CfgProgram) -> Result<Synthesized, EnvGenError> {
    let mut out = prog.clone();
    let mut report = EnvReport::default();

    // ------------------------------------------------------------------
    // 1. env_input reads: one delivery channel + feeder per declared
    //    input actually read (or used as a spawn argument).
    // ------------------------------------------------------------------
    let mut input_chan: Vec<Option<ObjId>> = vec![None; prog.inputs.len()];
    let used_inputs: Vec<usize> = {
        let mut used = vec![false; prog.inputs.len()];
        for p in &prog.procs {
            for n in p.node_ids() {
                if let NodeKind::Assign {
                    src: Rvalue::EnvInput(i),
                    ..
                } = &p.node(n).kind
                {
                    used[i.index()] = true;
                }
            }
        }
        for ps in &prog.processes {
            for a in &ps.args {
                if let SpawnArg::Input(i) = a {
                    used[i.index()] = true;
                }
            }
        }
        (0..prog.inputs.len()).filter(|i| used[*i]).collect()
    };
    for &i in &used_inputs {
        let inp = &prog.inputs[i];
        let (lo, hi) = inp.domain;
        let span = hi
            .checked_sub(lo)
            .filter(|s| *s >= 0 && *s < u32::MAX as i64)
            .ok_or_else(|| EnvGenError::DomainTooLarge(inp.name.clone()))?;
        let chan = ObjId(out.objects.len() as u32);
        out.objects.push(ObjectSym {
            name: format!("__env_{}", inp.name),
            kind: ObjectKind::Chan,
            capacity: Some(1),
            domain: None,
            initial: 0,
        });
        input_chan[i] = Some(chan);
        let feeder = build_feeder(
            &mut out,
            &format!("__env_feed_{}", inp.name),
            chan,
            lo,
            span as u32,
        );
        out.processes.push(cfgir::ProcessSpec {
            name: format!("E_S/{}", inp.name),
            proc: feeder,
            args: vec![],
            daemon: true,
        });
        report.env_processes += 1;
        report.env_channels += 1;
        report.total_domain_values += span as u64 + 1;
    }

    // Rewrite env_input nodes into receives.
    for p in &mut out.procs {
        for n in 0..p.nodes.len() {
            let kind = &p.nodes[n].kind;
            if let NodeKind::Assign {
                dst: Place::Var(dst),
                src: Rvalue::EnvInput(i),
            } = kind
            {
                let chan = input_chan[i.index()].expect("used input has a channel");
                p.nodes[n].kind = NodeKind::Visible {
                    op: VisOp::Recv { chan },
                    dst: Some(*dst),
                };
            }
        }
    }

    // ------------------------------------------------------------------
    // 2. Spawn arguments naming inputs: a wrapper procedure receives the
    //    initial value before calling the original top-level procedure.
    // ------------------------------------------------------------------
    let processes = std::mem::take(&mut out.processes);
    for ps in processes {
        if ps.args.iter().all(|a| matches!(a, SpawnArg::Const(_))) {
            out.processes.push(ps);
            continue;
        }
        let wrapper = build_spawn_wrapper(&mut out, &ps, &input_chan);
        out.processes.push(cfgir::ProcessSpec {
            name: ps.name.clone(),
            proc: wrapper,
            args: vec![],
            daemon: ps.daemon,
        });
    }

    // ------------------------------------------------------------------
    // 3. External channels: feeders for receive-only, drains for
    //    send-only.
    // ------------------------------------------------------------------
    for oi in 0..out.objects.len() {
        if out.objects[oi].kind != ObjectKind::ExternChan {
            continue;
        }
        let obj = ObjId(oi as u32);
        let (mut sent, mut received) = (false, false);
        for p in &out.procs {
            for n in p.node_ids() {
                if let NodeKind::Visible { op, .. } = &p.node(n).kind {
                    match op {
                        VisOp::Send { chan, .. } if *chan == obj => sent = true,
                        VisOp::Recv { chan } if *chan == obj => received = true,
                        _ => {}
                    }
                }
            }
        }
        if sent && received {
            return Err(EnvGenError::MixedDirectionExternChannel(
                out.objects[oi].name.clone(),
            ));
        }
        let name = out.objects[oi].name.clone();
        if received {
            let (lo, hi) = out.objects[oi].domain.unwrap_or((0, 0));
            let span = hi
                .checked_sub(lo)
                .filter(|s| *s >= 0 && *s < u32::MAX as i64)
                .ok_or_else(|| EnvGenError::DomainTooLarge(name.clone()))?;
            out.objects[oi].kind = ObjectKind::Chan;
            out.objects[oi].capacity = Some(1);
            let feeder = build_feeder(
                &mut out,
                &format!("__env_feed_{name}"),
                obj,
                lo,
                span as u32,
            );
            out.processes.push(cfgir::ProcessSpec {
                name: format!("E_S/{name}"),
                proc: feeder,
                args: vec![],
                daemon: true,
            });
            report.env_processes += 1;
            report.total_domain_values += span as u64 + 1;
        } else if sent {
            out.objects[oi].kind = ObjectKind::Chan;
            out.objects[oi].capacity = Some(1);
            let drain = build_drain(&mut out, &format!("__env_drain_{name}"), obj);
            out.processes.push(cfgir::ProcessSpec {
                name: format!("E_S/{name}"),
                proc: drain,
                args: vec![],
                daemon: true,
            });
            report.env_processes += 1;
        } else {
            // Unused external channel: make it inert.
            out.objects[oi].kind = ObjectKind::Chan;
            out.objects[oi].capacity = Some(1);
        }
    }

    debug_assert!(out.is_closed());
    debug_assert!(cfgir::validate(&out).is_ok());
    Ok(Synthesized {
        program: out,
        report,
    })
}

/// `proc feeder() { while (1) { t = VS_toss(span); v = t + lo; send(chan, v); } }`
fn build_feeder(prog: &mut CfgProgram, name: &str, chan: ObjId, lo: i64, span: u32) -> ProcId {
    let id = ProcId(prog.procs.len() as u32);
    let mut p = CfgProc {
        name: name.to_owned(),
        id,
        params: vec![],
        vars: vec![],
        nodes: vec![],
        succs: vec![],
        start: NodeId(0),
    };
    let t = p.push_var(VarInfo {
        name: "t".into(),
        ty: Ty::Int,
        kind: VarKind::Local,
    });
    let v = p.push_var(VarInfo {
        name: "v".into(),
        ty: Ty::Int,
        kind: VarKind::Local,
    });
    let start = p.push_node(NodeKind::Start, Span::dummy());
    let toss = p.push_node(
        NodeKind::Assign {
            dst: Place::Var(t),
            src: Rvalue::Toss(Operand::Const(span as i64)),
        },
        Span::dummy(),
    );
    let add = p.push_node(
        NodeKind::Assign {
            dst: Place::Var(v),
            src: Rvalue::Pure(PureExpr::Binary {
                op: BinOp::Add,
                lhs: Box::new(PureExpr::var(t)),
                rhs: Box::new(PureExpr::constant(lo)),
            }),
        },
        Span::dummy(),
    );
    let send = p.push_node(
        NodeKind::Visible {
            op: VisOp::Send {
                chan,
                val: Some(Operand::Var(v)),
            },
            dst: None,
        },
        Span::dummy(),
    );
    p.add_arc(start, Guard::Always, toss);
    p.add_arc(toss, Guard::Always, add);
    p.add_arc(add, Guard::Always, send);
    p.add_arc(send, Guard::Always, toss);
    p.start = start;
    prog.procs.push(p);
    id
}

/// `proc drain() { while (1) { recv(chan); } }`
fn build_drain(prog: &mut CfgProgram, name: &str, chan: ObjId) -> ProcId {
    let id = ProcId(prog.procs.len() as u32);
    let mut p = CfgProc {
        name: name.to_owned(),
        id,
        params: vec![],
        vars: vec![],
        nodes: vec![],
        succs: vec![],
        start: NodeId(0),
    };
    let start = p.push_node(NodeKind::Start, Span::dummy());
    let recv = p.push_node(
        NodeKind::Visible {
            op: VisOp::Recv { chan },
            dst: None,
        },
        Span::dummy(),
    );
    p.add_arc(start, Guard::Always, recv);
    p.add_arc(recv, Guard::Always, recv);
    p.start = start;
    prog.procs.push(p);
    id
}

/// `proc wrapper() { a0 = recv(__env_x); ...; call orig(a0, c1, ...); }`
fn build_spawn_wrapper(
    prog: &mut CfgProgram,
    spec: &cfgir::ProcessSpec,
    input_chan: &[Option<ObjId>],
) -> ProcId {
    let id = ProcId(prog.procs.len() as u32);
    let target = spec.proc;
    let mut p = CfgProc {
        name: format!("__spawn_{}", spec.name.replace(['#', '/'], "_")),
        id,
        params: vec![],
        vars: vec![],
        nodes: vec![],
        succs: vec![],
        start: NodeId(0),
    };
    let mut arg_vars: Vec<VarId> = Vec::new();
    for (i, _) in spec.args.iter().enumerate() {
        arg_vars.push(p.push_var(VarInfo {
            name: format!("a{i}"),
            ty: Ty::Int,
            kind: VarKind::Local,
        }));
    }
    let start = p.push_node(NodeKind::Start, Span::dummy());
    let mut prev = (start, Guard::Always);
    for (i, a) in spec.args.iter().enumerate() {
        let node = match a {
            SpawnArg::Const(v) => p.push_node(
                NodeKind::Assign {
                    dst: Place::Var(arg_vars[i]),
                    src: Rvalue::Pure(PureExpr::constant(*v)),
                },
                Span::dummy(),
            ),
            SpawnArg::Input(inp) => {
                let chan = input_chan[inp.index()].expect("used input has a channel");
                p.push_node(
                    NodeKind::Visible {
                        op: VisOp::Recv { chan },
                        dst: Some(arg_vars[i]),
                    },
                    Span::dummy(),
                )
            }
        };
        p.add_arc(prev.0, prev.1, node);
        prev = (node, Guard::Always);
    }
    let call = p.push_node(
        NodeKind::Call {
            callee: target,
            args: arg_vars,
            dst: None,
        },
        Span::dummy(),
    );
    p.add_arc(prev.0, prev.1, call);
    let ret = p.push_node(NodeKind::Return { value: None }, Span::dummy());
    p.add_arc(call, Guard::Always, ret);
    p.start = start;
    prog.procs.push(p);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::compile;
    use verisoft::{explore, Config, EnvMode, ViolationKind};

    #[test]
    fn env_input_program_closes_and_explores() {
        let prog = compile(
            r#"
            input x : 0..7;
            proc m() { int v = env_input(x); VS_assert(v != 5); }
            process m();
            "#,
        )
        .unwrap();
        let syn = synthesize(&prog).unwrap();
        assert!(syn.program.is_closed());
        assert_eq!(syn.report.env_processes, 1);
        assert_eq!(syn.report.total_domain_values, 8);
        let r = explore(
            &syn.program,
            &Config {
                max_violations: usize::MAX,
                max_depth: 50,
                ..Config::default()
            },
        );
        // The explicit E_S keeps tossing future inputs while the system
        // asserts, so the single semantic violation shows up once per
        // redundant environment state — the blowup §3 warns about.
        assert!(
            r.count(|k| *k == ViolationKind::AssertionViolation) >= 1,
            "{r}"
        );
        assert_eq!(
            r.count(|k| *k != ViolationKind::AssertionViolation),
            0,
            "only the v == 5 read violates: {r}"
        );
    }

    #[test]
    fn blocked_feeders_are_not_deadlocks_in_any_engine() {
        // After `m` terminates, the E_S feeder blocks forever on the full
        // delivery channel. DESIGN §7: daemons never make a dead end a
        // deadlock — under every driver, including strict termination
        // semantics.
        let prog = compile(
            r#"
            input x : 0..3;
            proc m() { int v = env_input(x); }
            process m();
            "#,
        )
        .unwrap();
        let syn = synthesize(&prog).unwrap();
        for engine in [
            verisoft::Engine::Stateless,
            verisoft::Engine::Stateful,
            verisoft::Engine::StatefulParallel,
        ] {
            let r = explore(
                &syn.program,
                &Config {
                    engine,
                    jobs: 2,
                    max_violations: usize::MAX,
                    max_depth: 50,
                    ..Config::default()
                },
            );
            assert_eq!(
                r.count(|k| *k == ViolationKind::Deadlock),
                0,
                "{engine:?}: {r}"
            );
        }
    }

    #[test]
    fn spawn_input_gets_wrapper() {
        let prog = compile(
            r#"
            input x : 3..5;
            proc m(int a) { VS_assert(a != 4); }
            process m(x);
            "#,
        )
        .unwrap();
        let syn = synthesize(&prog).unwrap();
        assert!(syn.program.is_closed());
        assert!(syn
            .program
            .procs
            .iter()
            .any(|p| p.name.starts_with("__spawn_")));
        let r = explore(
            &syn.program,
            &Config {
                max_violations: usize::MAX,
                max_depth: 50,
                ..Config::default()
            },
        );
        assert!(r.first_assert().is_some(), "{r}");
    }

    #[test]
    fn recv_only_extern_channel_gets_feeder() {
        let prog = compile(
            r#"
            extern chan ev : 1..3;
            proc m() { int v = recv(ev); VS_assert(v >= 1 && v <= 3); }
            process m();
            "#,
        )
        .unwrap();
        let syn = synthesize(&prog).unwrap();
        assert!(syn.program.procs.iter().any(|p| p.name == "__env_feed_ev"));
        let r = explore(
            &syn.program,
            &Config {
                max_violations: usize::MAX,
                max_depth: 40,
                ..Config::default()
            },
        );
        assert!(r.first_assert().is_none(), "{r}");
    }

    #[test]
    fn send_only_extern_channel_gets_drain() {
        let prog = compile(
            r#"
            extern chan out;
            proc m() { int i = 0; while (i < 5) { send(out, i); i = i + 1; } }
            process m();
            "#,
        )
        .unwrap();
        let syn = synthesize(&prog).unwrap();
        assert!(syn
            .program
            .procs
            .iter()
            .any(|p| p.name == "__env_drain_out"));
        let r = explore(
            &syn.program,
            &Config {
                max_depth: 200,
                ..Config::default()
            },
        );
        assert!(r.clean(), "{r}");
    }

    #[test]
    fn mixed_direction_extern_channel_rejected() {
        let prog = compile(
            r#"
            extern chan duplex : 0..1;
            proc m() { send(duplex, 1); int v = recv(duplex); }
            process m();
            "#,
        )
        .unwrap();
        assert!(matches!(
            synthesize(&prog),
            Err(EnvGenError::MixedDirectionExternChannel(_))
        ));
    }

    #[test]
    fn naive_branching_equals_domain_size() {
        // The explicit E_S tosses over the whole domain at every send: the
        // number of initial feeder alternatives equals |dom|.
        let prog = compile(
            r#"
            input x : 0..15;
            proc m() { int v = env_input(x); }
            process m();
            "#,
        )
        .unwrap();
        let syn = synthesize(&prog).unwrap();
        let feeder = syn
            .program
            .procs
            .iter()
            .find(|p| p.name == "__env_feed_x")
            .unwrap();
        let toss_bound = feeder
            .node_ids()
            .find_map(|n| match &feeder.node(n).kind {
                NodeKind::Assign {
                    src: Rvalue::Toss(Operand::Const(b)),
                    ..
                } => Some(*b),
                _ => None,
            })
            .unwrap();
        assert_eq!(toss_bound, 15);
    }

    #[test]
    fn synthesized_matches_enumerate_mode_verdicts() {
        // The explicit construction and EnvMode::Enumerate agree on
        // whether the assertion can fail.
        let src = r#"
            input x : 0..4;
            proc m() { int v = env_input(x); VS_assert(v * v != 9); }
            process m();
        "#;
        let prog = compile(src).unwrap();
        let syn = synthesize(&prog).unwrap();
        let explicit = explore(
            &syn.program,
            &Config {
                max_depth: 60,
                ..Config::default()
            },
        );
        let semantic = explore(
            &prog,
            &Config {
                env_mode: EnvMode::Enumerate,
                ..Config::default()
            },
        );
        assert_eq!(
            explicit.first_assert().is_some(),
            semantic.first_assert().is_some()
        );
        assert!(explicit.first_assert().is_some());
    }

    #[test]
    fn closed_program_passes_through() {
        let prog =
            compile("chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();").unwrap();
        let syn = synthesize(&prog).unwrap();
        assert_eq!(syn.report.env_processes, 0);
        assert_eq!(syn.program.procs.len(), prog.procs.len());
    }
}
