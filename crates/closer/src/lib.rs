//! # closer — automatically closing open reactive programs
//!
//! The primary contribution of Colby, Godefroid & Jagadeesan (PLDI 1998):
//! a static transformation that turns an *open* concurrent reactive
//! program `S` — one whose inputs arrive from an unknown environment —
//! into a *closed*, self-executable nondeterministic program `S'` whose
//! visible behaviors include every visible behavior of `S` composed with
//! its most general environment `E_S`, without enumerating a single input
//! value.
//!
//! Instead of synthesizing `E_S` (which branches over entire input
//! domains), the algorithm **eliminates the interface**: every statement
//! that may use an environment-defined value (the set `N_I`, computed by
//! [`dataflow::taint`]) is deleted, and the control-flow choices those
//! statements governed are replaced by `VS_toss` nondeterministic
//! choices. Deadlocks and assertion violations over environment-
//! independent values are preserved (paper Theorems 6–7), and the static
//! branching degree never grows ([`metrics`]).
//!
//! ## Example
//!
//! The paper's Figure 2 procedure, closed:
//!
//! ```
//! let closed = closer::close_source(r#"
//!     extern chan evens;
//!     extern chan odds;
//!     input x : 0..1023;
//!     proc p(int x) {
//!         int y = x % 2;
//!         int cnt = 0;
//!         while (cnt < 10) {
//!             if (y == 0) send(evens, cnt);
//!             else send(odds, cnt + 1);
//!             cnt = cnt + 1;
//!         }
//!     }
//!     process p(x);
//! "#)?;
//! assert!(closed.program.is_closed());
//! let p = closed.program.proc_by_name("p").unwrap();
//! // The environment-dependent parameter is gone...
//! assert!(p.params.is_empty());
//! // ...and the branch on `y` became a VS_toss choice.
//! assert_eq!(closed.reports[0].toss_nodes_inserted, 1);
//! # Ok::<(), minic::Diagnostics>(())
//! ```

#![warn(missing_docs)]

pub mod metrics;
pub mod partition;
pub mod pipeline;
pub mod refine_cex;
pub mod semantic;
pub mod transform;

pub use metrics::{compare, totals, BranchingReport, Totals};
pub use partition::{close_with_refinement, reduce_tosses, refine, RefineReport, RefinedKind};
pub use pipeline::{PassMetrics, Pipeline, PipelineOptions, PipelineRun};
pub use refine_cex::{classify_trace, refine_cex, verdict_set, CexOptions, CexReport, TraceClass};
pub use semantic::refine_semantic;
pub use transform::{close, close_source, Closed, ProcReport, TossSite};

/// A default [`Pipeline`]'s [`close`](Pipeline::close), under the name the
/// frozen ledger benchmark still calls (with `jobs` 1). No product code
/// calls it, and `jobs` is ignored: the chain is single-threaded. Deleted
/// with the ledger's outside spans (ROADMAP item 3a(ii)).
///
/// # Errors
///
/// Returns front-end diagnostics.
pub fn close_source_jobs(src: &str, _jobs: usize) -> Result<PipelineRun, minic::Diagnostics> {
    Pipeline::new(PipelineOptions::default()).close(src)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfgir::{
        canonical_form, compile, isomorphic, Guard, NodeKind, Operand, Rvalue, SpawnArg, VisOp,
    };

    const FIG2_P: &str = r#"
        extern chan evens;
        extern chan odds;
        input x : 0..1023;
        proc p(int x) {
            int y = x % 2;
            int cnt = 0;
            while (cnt < 10) {
                if (y == 0) send(evens, cnt);
                else send(odds, cnt + 1);
                cnt = cnt + 1;
            }
        }
        process p(x);
    "#;

    const FIG3_Q: &str = r#"
        extern chan evens;
        extern chan odds;
        input x : 0..1023;
        proc q(int x) {
            int cnt = 0;
            while (cnt < 10) {
                int y = x % 2;
                if (y == 0) send(evens, cnt);
                else send(odds, cnt + 1);
                x = x / 2;
                cnt = cnt + 1;
            }
        }
        process q(x);
    "#;

    #[test]
    fn figure2_transformation_shape() {
        let closed = close_source(FIG2_P).unwrap();
        assert!(closed.program.is_closed());
        cfgir::validate(&closed.program).unwrap();
        let p = closed.program.proc_by_name("p").unwrap();
        // Parameter x removed.
        assert!(p.params.is_empty());
        assert_eq!(closed.reports[0].params_removed, 1);
        // Exactly one toss conditional, binary (two branch targets).
        let tosses: Vec<_> = p
            .node_ids()
            .filter(|n| matches!(p.node(*n).kind, NodeKind::TossCond { .. }))
            .collect();
        assert_eq!(tosses.len(), 1);
        let NodeKind::TossCond { bound } = p.node(tosses[0]).kind else {
            unreachable!()
        };
        assert_eq!(bound, 1);
        // The conditional on y is gone; the loop test on cnt stays.
        let conds: Vec<_> = p
            .node_ids()
            .filter(|n| matches!(p.node(*n).kind, NodeKind::Cond { .. }))
            .collect();
        assert_eq!(conds.len(), 1, "only while (cnt < 10) remains");
        // Both sends survive with their (untainted) payloads.
        let sends: Vec<_> = p
            .node_ids()
            .filter(|n| {
                matches!(
                    p.node(*n).kind,
                    NodeKind::Visible {
                        op: VisOp::Send { val: Some(_), .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(sends.len(), 2);
    }

    #[test]
    fn figure3_q_closes_to_same_program_as_p() {
        // The paper's headline observation: "although p and q are
        // functionally distinct, the algorithm transforms each of them to
        // the same closed program."
        let cp = close_source(FIG2_P).unwrap();
        let cq = close_source(FIG3_Q).unwrap();
        let p = cp.program.proc_by_name("p").unwrap();
        let q = cq.program.proc_by_name("q").unwrap();
        assert!(
            isomorphic(p, q),
            "G'_p and G'_q differ:\n--- p ---\n{}\n--- q ---\n{}",
            canonical_form(p),
            canonical_form(q)
        );
    }

    #[test]
    fn originals_are_not_isomorphic() {
        let p = compile(FIG2_P).unwrap();
        let q = compile(FIG3_Q).unwrap();
        assert!(!isomorphic(
            p.proc_by_name("p").unwrap(),
            q.proc_by_name("q").unwrap()
        ));
    }

    #[test]
    fn branching_degree_preserved_on_figures() {
        for src in [FIG2_P, FIG3_Q] {
            let orig = compile(src).unwrap();
            let closed = close_source(src).unwrap();
            for r in compare(&orig, &closed.program) {
                assert!(
                    r.branching_preserved_or_reduced(),
                    "branching grew for {}: {} -> {}",
                    r.name,
                    r.degree_before,
                    r.degree_after
                );
            }
        }
    }

    #[test]
    fn closing_a_closed_program_is_identity() {
        let src = r#"
            chan c[2];
            proc a() { int i = 0; while (i < 3) { send(c, i); i = i + 1; } }
            proc b() { int j = 0; while (j < 3) { j = recv(c); } }
            process a();
            process b();
        "#;
        let orig = compile(src).unwrap();
        let closed = close_source(src).unwrap();
        for (o, c) in orig.procs.iter().zip(closed.program.procs.iter()) {
            assert!(isomorphic(o, c), "closing changed closed proc {}", o.name);
        }
        assert_eq!(orig.processes, closed.program.processes);
    }

    #[test]
    fn closing_is_idempotent() {
        let once = close_source(FIG2_P).unwrap();
        let analysis = dataflow::analyze(&once.program);
        assert!(analysis.taint.tainted_params.iter().all(|s| s.is_empty()));
        let twice = close(&once.program, &analysis);
        for (a, b) in once.program.procs.iter().zip(twice.program.procs.iter()) {
            assert!(isomorphic(a, b), "second closing changed {}", a.name);
        }
    }

    #[test]
    fn tainted_assert_becomes_vacuous() {
        let closed = close_source(
            r#"
            input q : 0..7;
            proc m() {
                int v = env_input(q);
                VS_assert(v);
                int ok = 1;
                VS_assert(ok);
            }
            process m();
            "#,
        )
        .unwrap();
        let m = closed.program.proc_by_name("m").unwrap();
        let asserts: Vec<_> = m
            .node_ids()
            .filter_map(|n| match &m.node(n).kind {
                NodeKind::Visible {
                    op: VisOp::Assert { cond },
                    ..
                } => Some(*cond),
                _ => None,
            })
            .collect();
        assert_eq!(asserts.len(), 2);
        assert!(asserts.contains(&None), "tainted assert is vacuous");
        assert!(
            asserts.iter().any(|c| c.is_some()),
            "untainted assert preserved"
        );
    }

    #[test]
    fn tainted_send_payload_becomes_opaque() {
        let closed = close_source(
            r#"
            input q : 0..7;
            chan c[1];
            proc m() { int v = env_input(q); send(c, v); send(c, 3); int w = recv(c); }
            process m();
            "#,
        )
        .unwrap();
        let m = closed.program.proc_by_name("m").unwrap();
        let sends: Vec<Option<Operand>> = m
            .node_ids()
            .filter_map(|n| match &m.node(n).kind {
                NodeKind::Visible {
                    op: VisOp::Send { val, .. },
                    ..
                } => Some(*val),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 2);
        assert!(sends.contains(&None), "tainted payload erased");
        assert!(sends.contains(&Some(Operand::Const(3))), "constant kept");
        // c became a tainted channel, so the recv's dst is dropped.
        let recv_dst = m
            .node_ids()
            .find_map(|n| match &m.node(n).kind {
                NodeKind::Visible {
                    op: VisOp::Recv { .. },
                    dst,
                } => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert_eq!(recv_dst, None);
    }

    #[test]
    fn call_sites_lose_tainted_arguments() {
        let closed = close_source(
            r#"
            input q : 0..7;
            chan c[1];
            proc helper(int keep, int drop) { send(c, keep); }
            proc m() {
                int v = env_input(q);
                helper(3, v);
            }
            process m();
            "#,
        )
        .unwrap();
        let helper = closed.program.proc_by_name("helper").unwrap();
        assert_eq!(helper.params.len(), 1, "tainted param removed");
        let m = closed.program.proc_by_name("m").unwrap();
        let call_args = m
            .node_ids()
            .find_map(|n| match &m.node(n).kind {
                NodeKind::Call { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(call_args.len(), 1, "call site drops the tainted arg");
        // The surviving arg is the temp holding 3.
        assert_eq!(m.var(call_args[0]).name, "__t0");
    }

    #[test]
    fn ret_tainted_call_dst_dropped() {
        let closed = close_source(
            r#"
            input q : 0..7;
            proc get() { int v = env_input(q); return v; }
            proc m() { int r = get(); int s = r + 1; }
            process m();
            "#,
        )
        .unwrap();
        let m = closed.program.proc_by_name("m").unwrap();
        let dst = m
            .node_ids()
            .find_map(|n| match &m.node(n).kind {
                NodeKind::Call { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert_eq!(dst, None);
        // s = r + 1 was tainted and removed.
        let assigns = m
            .node_ids()
            .filter(|n| matches!(m.node(*n).kind, NodeKind::Assign { .. }))
            .count();
        assert_eq!(assigns, 0);
        // get's return value is erased.
        let get = closed.program.proc_by_name("get").unwrap();
        for n in get.node_ids() {
            if let NodeKind::Return { value } = &get.node(n).kind {
                assert!(value.is_none());
            }
        }
    }

    #[test]
    fn spawn_args_drop_env_inputs() {
        let closed = close_source(
            r#"
            input x : 0..3;
            proc m(int a, int b) { int c = b + 1; }
            process m(x, 9);
            "#,
        )
        .unwrap();
        assert_eq!(closed.program.processes[0].args, vec![SpawnArg::Const(9)]);
        let m = closed.program.proc_by_name("m").unwrap();
        assert_eq!(m.params.len(), 1);
        // b survives as a parameter and c = b + 1 is kept.
        assert_eq!(
            m.node_ids()
                .filter(|n| matches!(m.node(*n).kind, NodeKind::Assign { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn tainted_switch_becomes_toss() {
        let closed = close_source(
            r#"
            extern chan out;
            input q : 0..7;
            proc m() {
                int v = env_input(q);
                switch (v) {
                    case 0: send(out, 10);
                    case 1: send(out, 11);
                    default: send(out, 12);
                }
            }
            process m();
            "#,
        )
        .unwrap();
        let m = closed.program.proc_by_name("m").unwrap();
        let toss = m
            .node_ids()
            .find_map(|n| match m.node(n).kind {
                NodeKind::TossCond { bound } => Some(bound),
                _ => None,
            })
            .unwrap();
        assert_eq!(toss, 2, "three-way switch becomes VS_toss(2)");
        assert!(m
            .node_ids()
            .all(|n| !matches!(m.node(n).kind, NodeKind::Switch { .. })));
    }

    #[test]
    fn temporal_independence_imprecision_reproduced() {
        // Paper §5 "Temporal independence": the closed p performs one toss
        // per loop iteration rather than one per call, so runs mixing even
        // and odd sends exist in S' although p × E_S has none. Statically,
        // the toss node sits inside the loop (reachable from itself).
        let closed = close_source(FIG2_P).unwrap();
        let p = closed.program.proc_by_name("p").unwrap();
        let toss = p
            .node_ids()
            .find(|n| matches!(p.node(*n).kind, NodeKind::TossCond { .. }))
            .unwrap();
        // The toss is on a cycle: it reaches itself.
        let mut seen = std::collections::HashSet::new();
        let mut stack: Vec<_> = p.arcs(toss).iter().map(|a| a.target).collect();
        let mut cyclic = false;
        while let Some(t) = stack.pop() {
            if t == toss {
                cyclic = true;
                break;
            }
            if seen.insert(t) {
                stack.extend(p.arcs(t).iter().map(|a| a.target));
            }
        }
        assert!(cyclic, "the toss is performed once per iteration");
    }

    #[test]
    fn divergence_through_eliminated_cycle_not_preserved() {
        // Hand-built graph: start -> A where A: x = x + 1 loops on itself
        // and x is environment-defined. succ(start's arc) = {} and the arc
        // is redirected to a synthesized return.
        use cfgir::{CfgProc, CfgProgram, NodeId, Place, ProcId, PureExpr, VarInfo, VarKind};
        use minic::ast::{BinOp, Ty};
        use minic::span::Span;

        let mut p = CfgProc {
            name: "d".into(),
            id: ProcId(0),
            params: vec![],
            vars: vec![],
            nodes: vec![],
            succs: vec![],
            start: NodeId(0),
        };
        let x = p.push_var(VarInfo {
            name: "x".into(),
            ty: Ty::Int,
            kind: VarKind::Param(0),
        });
        p.params.push(x);
        let start = p.push_node(NodeKind::Start, Span::dummy());
        let a = p.push_node(
            NodeKind::Assign {
                dst: Place::Var(x),
                src: Rvalue::Pure(PureExpr::Binary {
                    op: BinOp::Add,
                    lhs: Box::new(PureExpr::var(x)),
                    rhs: Box::new(PureExpr::constant(1)),
                }),
            },
            Span::dummy(),
        );
        p.add_arc(start, Guard::Always, a);
        p.add_arc(a, Guard::Always, a);
        p.start = start;
        let prog = CfgProgram {
            objects: vec![],
            globals: vec![],
            inputs: vec![minic::sema::InputSym {
                name: "i".into(),
                domain: (0, 1),
            }],
            procs: vec![p],
            processes: vec![cfgir::ProcessSpec {
                name: "d".into(),
                proc: ProcId(0),
                args: vec![SpawnArg::Input(cfgir::InputId(0))],
                daemon: false,
            }],
        };
        cfgir::validate(&prog).unwrap();
        let analysis = dataflow::analyze(&prog);
        let closed = close(&prog, &analysis);
        assert_eq!(closed.reports[0].divergent_arcs, 1);
        let d = closed.program.proc_by_name("d").unwrap();
        // start -> synthesized return; the self-loop is gone.
        assert_eq!(d.reachable().len(), 2);
        assert!(matches!(
            d.node(d.arcs(d.start)[0].target).kind,
            NodeKind::Return { value: None }
        ));
    }

    #[test]
    fn untainted_data_values_preserved_exactly() {
        // Theorem 6 property 3 (static view): assignments to variables
        // that never depend on E_S survive with identical expressions.
        let src = r#"
            extern chan out;
            input q : 0..7;
            proc m() {
                int v = env_input(q);
                int a = 10;
                int b = a * 2 + 1;
                if (v > 3) send(out, b);
                else send(out, b);
            }
            process m();
        "#;
        let orig = compile(src).unwrap();
        let closed = close_source(src).unwrap();
        let count_assigns = |p: &cfgir::CfgProc| {
            p.node_ids()
                .filter(|n| {
                    matches!(
                        p.node(*n).kind,
                        NodeKind::Assign {
                            src: Rvalue::Pure(_),
                            ..
                        }
                    )
                })
                .count()
        };
        // a and b pure assignments survive (the env read is an
        // Rvalue::EnvInput, not counted here, and is eliminated).
        assert_eq!(count_assigns(orig.proc_by_name("m").unwrap()), 2);
        assert_eq!(count_assigns(closed.program.proc_by_name("m").unwrap()), 2);
    }

    #[test]
    fn reports_account_for_nodes() {
        let closed = close_source(FIG2_P).unwrap();
        let r = &closed.reports[0];
        assert_eq!(r.name, "p");
        assert!(r.nodes_kept < r.nodes_before);
        assert_eq!(r.toss_nodes_inserted, 1);
        assert_eq!(r.divergent_arcs, 0);
        let p = closed.program.proc_by_name("p").unwrap();
        assert_eq!(p.nodes.len(), r.nodes_kept + r.toss_nodes_inserted);
    }

    #[test]
    fn metrics_totals_add_up() {
        let orig = compile(FIG2_P).unwrap();
        let closed = close_source(FIG2_P).unwrap();
        let reports = compare(&orig, &closed.program);
        let t = totals(&reports);
        assert_eq!(
            t.degree_before,
            reports.iter().map(|r| r.degree_before).sum()
        );
        assert!(t.nodes_after <= t.nodes_before);
    }
}
