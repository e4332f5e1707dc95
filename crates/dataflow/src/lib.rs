//! # dataflow — static analyses for the closing transformation
//!
//! The analyses the PLDI 1998 closing algorithm consumes, over `cfgir`
//! programs:
//!
//! - [`pointsto`] — Andersen-style may-points-to (the "(conservative)
//!   solution to the aliasing problem" the paper requires);
//! - [`modref`] — interprocedural MOD/REF side-effect summaries;
//! - [`reachdefs`] — per-procedure reaching definitions, with weak updates
//!   for pointer stores and call effects;
//! - [`defuse`] — the define-use graphs `G̃_j` of Figure 1;
//! - [`taint`] — Step 2 of the algorithm: `N_I` and `V_I(n)` per node, plus
//!   the interprocedural summary fixpoint (tainted parameters, tainted
//!   returns, tainted communication objects and locations).
//!
//! [`analyze`] runs the full stack and returns an [`Analysis`].
//!
//! ## Example
//!
//! ```
//! let prog = cfgir::compile(r#"
//!     extern chan out;
//!     input x : 0..255;
//!     proc p(int x) {
//!         int y = x % 2;      // y depends on the environment
//!         int cnt = 0;        // cnt does not
//!         if (y == 0) send(out, cnt);
//!     }
//!     process p(x);
//! "#)?;
//! let analysis = dataflow::analyze(&prog);
//! // The program reads the environment, so taint is present.
//! assert!(!analysis.taint.is_clean());
//! # Ok::<(), minic::Diagnostics>(())
//! ```

#![warn(missing_docs)]

pub mod bitset;
pub mod defuse;
pub mod flowpts;
pub mod framework;
pub mod loc;
pub mod modref;
pub mod pointsto;
pub mod reachdefs;
pub mod taint;

pub use bitset::BitSet;
pub use defuse::DefUse;
pub use flowpts::ProcFlowPts;
// `framework::Analysis` (the solver trait) is deliberately not
// re-exported at the root: the name is taken by the result bundle below.
pub use framework::{Direction, Solution, SolveStats, Worklist};
pub use loc::{loc_of, Loc, LocTable};
pub use modref::ModRef;
pub use pointsto::PointsTo;
pub use reachdefs::ReachingDefs;
pub use taint::{ProcTaint, Taint};

use cfgir::CfgProgram;

/// The complete analysis stack for one program.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// May-points-to sets.
    pub pts: PointsTo,
    /// MOD/REF summaries.
    pub modref: ModRef,
    /// Define-use graphs, indexed by [`cfgir::ProcId`].
    pub defuse: Vec<DefUse>,
    /// Environment-taint results.
    pub taint: Taint,
}

/// Run every analysis the closing transformation needs.
pub fn analyze(prog: &CfgProgram) -> Analysis {
    let pts = pointsto::analyze(prog);
    let modref = modref::analyze(prog, &pts);
    let defuse: Vec<DefUse> = prog
        .procs
        .iter()
        .map(|p| defuse::analyze(prog, p, &pts, &modref))
        .collect();
    let taint = taint::analyze(prog, &defuse, &pts);
    Analysis {
        pts,
        modref,
        defuse,
        taint,
    }
}

#[cfg(test)]
mod taint_tests {
    use super::*;
    use cfgir::{compile, NodeKind, Rvalue, VarId, VisOp};

    fn setup(src: &str) -> (CfgProgram, Analysis) {
        let prog = compile(src).unwrap();
        let a = analyze(&prog);
        (prog, a)
    }

    fn var(prog: &CfgProgram, proc: &str, name: &str) -> VarId {
        let p = prog.proc_by_name(proc).unwrap();
        VarId(p.vars.iter().position(|v| v.name == name).unwrap() as u32)
    }

    #[test]
    fn closed_program_is_clean() {
        let (_, a) = setup("chan c[1]; proc m() { send(c, 1); int x = recv(c); } process m();");
        assert!(a.taint.is_clean());
    }

    #[test]
    fn figure2_taint_shape() {
        // The paper's procedure p: y and the test on y are tainted; cnt,
        // the loop test, and the sends are not.
        let (prog, a) = setup(
            r#"
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
            "#,
        );
        let p = prog.proc_by_name("p").unwrap();
        let t = a.taint.proc(p.id);
        let y = var(&prog, "p", "y");
        let cnt = var(&prog, "p", "cnt");
        for n in p.node_ids() {
            match &p.node(n).kind {
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(y) => {
                    assert!(t.in_n_i(n), "y = x %% 2 uses the tainted param");
                }
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(cnt) => {
                    assert!(!t.in_n_i(n), "cnt assignments are untainted");
                }
                NodeKind::Cond { expr } => {
                    let vars = expr.vars();
                    if vars.contains(&y) {
                        assert!(t.in_n_i(n), "if (y == 0) is tainted");
                        assert!(t.v_i(n).contains(&y));
                    } else {
                        assert!(!t.in_n_i(n), "while (cnt < 10) is untainted");
                    }
                }
                NodeKind::Visible { .. } => {
                    assert!(!t.in_n_i(n), "sends of cnt are untainted");
                }
                _ => {}
            }
        }
        // Parameter x of p is tainted (spawned from an input).
        assert_eq!(a.taint.tainted_params[p.id.index()], [0usize].into());
    }

    #[test]
    fn env_input_taints_uses() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc m() {
                int v = env_input(q);
                int w = v + 1;
                int u = 2;
            }
            process m();
            "#,
        );
        let p = prog.proc_by_name("m").unwrap();
        let t = a.taint.proc(p.id);
        let w = var(&prog, "m", "w");
        let u = var(&prog, "m", "u");
        for n in p.node_ids() {
            match &p.node(n).kind {
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(w) => {
                    assert!(t.in_n_i(n));
                }
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(u) => {
                    assert!(!t.in_n_i(n));
                }
                _ => {}
            }
        }
    }

    #[test]
    fn taint_flows_through_channels_between_processes() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            chan link[1];
            proc producer() { int v = env_input(q); send(link, v); }
            proc consumer() { int w = recv(link); int z = w * 2; }
            process producer();
            process consumer();
            "#,
        );
        let link = cfgir::ObjId(prog.objects.iter().position(|o| o.name == "link").unwrap() as u32);
        assert!(a.taint.tainted_objects.contains(&link));
        let cons = prog.proc_by_name("consumer").unwrap();
        let t = a.taint.proc(cons.id);
        let z = var(&prog, "consumer", "z");
        let z_node = cons
            .node_ids()
            .find(|n| matches!(&cons.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(z)))
            .unwrap();
        assert!(t.in_n_i(z_node), "w*2 depends on the channel payload");
    }

    #[test]
    fn untainted_channel_payloads_stay_clean() {
        let (_, a) = setup(
            r#"
            chan link[1];
            proc producer() { send(link, 7); }
            proc consumer() { int w = recv(link); int z = w * 2; }
            process producer();
            process consumer();
            "#,
        );
        assert!(a.taint.is_clean());
    }

    #[test]
    fn taint_through_procedure_parameters() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc helper(int a) { int b = a + 1; }
            proc m() { int v = env_input(q); helper(v); helper(3); }
            process m();
            "#,
        );
        let helper = prog.proc_by_name("helper").unwrap();
        // Parameter a is tainted because ONE call site passes a tainted
        // value (paper: "the existence of a single node ... is sufficient").
        assert_eq!(a.taint.tainted_params[helper.id.index()], [0usize].into());
        let b_node = helper
            .node_ids()
            .find(|n| matches!(helper.node(*n).kind, NodeKind::Assign { .. }))
            .unwrap();
        assert!(a.taint.proc(helper.id).in_n_i(b_node));
    }

    #[test]
    fn taint_through_return_values() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc get() { int v = env_input(q); return v; }
            proc m() { int r = get(); int s = r + 1; }
            process m();
            "#,
        );
        let get = prog.proc_by_name("get").unwrap();
        assert!(a.taint.ret_tainted[get.id.index()]);
        let m = prog.proc_by_name("m").unwrap();
        let s = var(&prog, "m", "s");
        let s_node = m
            .node_ids()
            .find(|n| matches!(&m.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(s)))
            .unwrap();
        assert!(a.taint.proc(m.id).in_n_i(s_node));
    }

    #[test]
    fn taint_through_globals_across_calls() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            int g = 0;
            proc writer() { g = env_input(q); }
            proc m() { writer(); int s = g + 1; }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let s = var(&prog, "m", "s");
        let s_node = m
            .node_ids()
            .find(|n| matches!(&m.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(s)))
            .unwrap();
        assert!(
            a.taint.proc(m.id).in_n_i(s_node),
            "g is tainted by writer() and read afterwards"
        );
    }

    #[test]
    fn taint_through_pointers() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc fill(int *slot) { *slot = env_input(q); }
            proc m() {
                int buf = 0;
                int *pb = &buf;
                fill(pb);
                int s = buf + 1;
            }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let s = var(&prog, "m", "s");
        let s_node = m
            .node_ids()
            .find(|n| matches!(&m.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(s)))
            .unwrap();
        assert!(
            a.taint.proc(m.id).in_n_i(s_node),
            "buf is tainted through the escaped pointer"
        );
    }

    #[test]
    fn load_of_tainted_location_is_tainted() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc m() {
                int x = env_input(q);
                int *p = &x;
                int y = *p;
            }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let t = a.taint.proc(m.id);
        let load = m
            .node_ids()
            .find(|n| {
                matches!(
                    m.node(*n).kind,
                    NodeKind::Assign {
                        src: Rvalue::Load(_),
                        ..
                    }
                )
            })
            .unwrap();
        assert!(t.in_n_i(load));
    }

    #[test]
    fn paper_second_example_assignments_stay_clean() {
        // proc p(x): a=0; if (x) b=a-1 else b=a+1; c=b — the paper notes
        // none of a, b, c are *functionally* dependent on x. Our define-use
        // V_I marks only the conditional (which uses x) and leaves the
        // assignments clean (they use only a / b).
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc p(int x) {
                int a = 0;
                int b = 0;
                if (x > 0) { b = a - 1; } else { b = a + 1; }
                int c = b;
            }
            process p(q);
            "#,
        );
        let p = prog.proc_by_name("p").unwrap();
        let t = a.taint.proc(p.id);
        for n in p.node_ids() {
            match &p.node(n).kind {
                NodeKind::Cond { .. } => assert!(t.in_n_i(n), "the test uses x"),
                NodeKind::Assign { .. } => {
                    assert!(!t.in_n_i(n), "assignments do not use x: {:?}", p.node(n))
                }
                _ => {}
            }
        }
    }

    #[test]
    fn dataflow_composition_imprecision_documented() {
        // a = x + 1; b = a - x — semantically b is constant, but the
        // analysis reports it tainted (paper §5 "Dataflow analysis"
        // imprecision). This test pins that behavior.
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc p(int x) {
                int a = x + 1;
                int b = a - x;
            }
            process p(q);
            "#,
        );
        let p = prog.proc_by_name("p").unwrap();
        let t = a.taint.proc(p.id);
        let b = var(&prog, "p", "b");
        let b_node = p
            .node_ids()
            .find(|n| matches!(&p.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(b)))
            .unwrap();
        assert!(t.in_n_i(b_node));
    }

    #[test]
    fn extern_channel_recv_taints_dst_uses() {
        let (prog, a) = setup(
            r#"
            extern chan ev : 0..3;
            proc m() {
                int e = recv(ev);
                int f = e + 1;
            }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let f = var(&prog, "m", "f");
        let f_node = m
            .node_ids()
            .find(|n| matches!(&m.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(f)))
            .unwrap();
        assert!(a.taint.proc(m.id).in_n_i(f_node));
    }

    #[test]
    fn shared_variable_taint_flows() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            shared cell = 0;
            proc w() { int v = env_input(q); sh_write(cell, v); }
            proc r() { int x = sh_read(cell); int y = x + 1; }
            process w();
            process r();
            "#,
        );
        let r = prog.proc_by_name("r").unwrap();
        let y = var(&prog, "r", "y");
        let y_node = r
            .node_ids()
            .find(|n| matches!(&r.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(y)))
            .unwrap();
        assert!(a.taint.proc(r.id).in_n_i(y_node));
    }

    #[test]
    fn kill_stops_taint() {
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc m() {
                int v = env_input(q);
                v = 3;
                int w = v + 1;
            }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let w = var(&prog, "m", "w");
        let w_node = m
            .node_ids()
            .find(|n| matches!(&m.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(w)))
            .unwrap();
        assert!(
            !a.taint.proc(m.id).in_n_i(w_node),
            "v = 3 kills the environment definition"
        );
    }

    #[test]
    fn assert_argument_taint_visible_in_v_i() {
        let (prog, a) = setup(
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
        );
        let m = prog.proc_by_name("m").unwrap();
        let t = a.taint.proc(m.id);
        let asserts: Vec<cfgir::NodeId> = m
            .node_ids()
            .filter(|n| {
                matches!(
                    m.node(*n).kind,
                    NodeKind::Visible {
                        op: VisOp::Assert { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(asserts.len(), 2);
        let v = var(&prog, "m", "v");
        let ok = var(&prog, "m", "ok");
        // Order of the assert nodes follows source order (BFS ids).
        let (first, second) = (asserts[0].min(asserts[1]), asserts[0].max(asserts[1]));
        assert!(t.v_i(first).contains(&v));
        assert!(!t.v_i(second).contains(&ok));
    }

    #[test]
    fn toss_result_is_not_env_tainted() {
        // Nondeterminism is not environment dependence: VS_toss results are
        // preserved by the transformation.
        let (_, a) = setup("chan c[1]; proc m() { int v = VS_toss(3); send(c, v); } process m();");
        assert!(a.taint.is_clean());
    }

    #[test]
    fn flow_sensitive_load_after_strong_kill_is_clean() {
        // The tainted value in x is overwritten before the load; the old
        // flow-insensitive tainted_locs lattice reported the load tainted.
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            proc m() {
                int x = env_input(q);
                x = 3;
                int *p = &x;
                int y = *p;
            }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let t = a.taint.proc(m.id);
        let load = m
            .node_ids()
            .find(|n| {
                matches!(
                    m.node(*n).kind,
                    NodeKind::Assign {
                        src: Rvalue::Load(_),
                        ..
                    }
                )
            })
            .unwrap();
        assert!(
            !t.in_n_i(load),
            "x = 3 strongly kills the memory taint before the load"
        );
    }

    #[test]
    fn flow_sensitive_global_read_before_taint_is_clean() {
        // g is read before writer() can taint it; flow-insensitively both
        // reads were tainted, flow-sensitively only the second is.
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            chan c[1];
            int g = 0;
            proc writer() { g = env_input(q); }
            proc m() {
                int a = g + 1;
                writer();
                int b = g + 1;
                send(c, a);
            }
            process m();
            "#,
        );
        let m = prog.proc_by_name("m").unwrap();
        let t = a.taint.proc(m.id);
        let a_var = var(&prog, "m", "a");
        let b_var = var(&prog, "m", "b");
        for n in m.node_ids() {
            match &m.node(n).kind {
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(a_var) => {
                    assert!(!t.in_n_i(n), "read of g before the tainting call is clean");
                }
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(b_var) => {
                    assert!(t.in_n_i(n), "read of g after writer() is tainted");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn store_effect_is_per_callee() {
        // reset() never taints anything, so its call clobber of g must not
        // resurrect taint the way the global tainted_locs lattice did.
        let (prog, a) = setup(
            r#"
            input q : 0..7;
            chan c[1];
            int g = 0;
            proc evil() { g = env_input(q); }
            proc clean_reader() { int t = g + 1; send(c, t); }
            proc m() { evil(); }
            process m();
            process clean_reader();
            "#,
        );
        // clean_reader runs as its own process with fresh globals: its
        // entry memory is pristine even though evil() taints g in m's
        // process.
        let r = prog.proc_by_name("clean_reader").unwrap();
        let t_var = var(&prog, "clean_reader", "t");
        let t_node = r
            .node_ids()
            .find(|n| matches!(&r.node(*n).kind, NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(t_var)))
            .unwrap();
        assert!(
            !a.taint.proc(r.id).in_n_i(t_node),
            "per-process globals: taint in m's process does not leak"
        );
        // And the summaries are per-procedure.
        let evil = prog.proc_by_name("evil").unwrap();
        assert!(!a.taint.store_effect[evil.id.index()].is_empty());
        assert!(a.taint.store_effect[r.id.index()].is_empty());
    }

    #[test]
    fn figure3_q_taint_shape() {
        let (prog, a) = setup(
            r#"
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
            "#,
        );
        let q = prog.proc_by_name("q").unwrap();
        let t = a.taint.proc(q.id);
        let x = var(&prog, "q", "x");
        let cnt = var(&prog, "q", "cnt");
        for n in q.node_ids() {
            match &q.node(n).kind {
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(x) => {
                    assert!(t.in_n_i(n), "x = x / 2 is tainted");
                }
                NodeKind::Assign { dst, .. } if *dst == cfgir::Place::Var(cnt) => {
                    assert!(!t.in_n_i(n));
                }
                NodeKind::Cond { expr } => {
                    if expr.vars().contains(&cnt) {
                        assert!(!t.in_n_i(n));
                    } else {
                        assert!(t.in_n_i(n));
                    }
                }
                _ => {}
            }
        }
    }
}
