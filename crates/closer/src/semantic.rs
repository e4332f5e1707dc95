//! Semantic input-domain partitioning — eliminating the §5 *temporal
//! independence* imprecision.
//!
//! The paper, discussing the closed Figure 2 program's ten per-iteration
//! tosses:
//!
//! > "In this case, hoisting the conditional test y=0 outside the loop in
//! > p would have eliminated this imprecision."
//!
//! This module achieves that hoisting *semantically*. Where
//! [`crate::partition`] requires the environment value to be used only in
//! constant comparisons, semantic refinement handles **derived** values:
//! chains of single-shot pure assignments (`y = x % 2`) computed from one
//! environment read. For every value of the (finite) declared domain it
//! evaluates the whole derivation chain; inputs with identical derived
//! values are *behaviorally indistinguishable* — branches, assertions,
//! and even sent payloads computed from them coincide — so one
//! representative per signature class suffices.
//!
//! On the paper's procedure `p`: `y = x % 2` has signature classes
//! {even, odd}; the read becomes one binary choice **before** the loop,
//! `y = x % 2` and `if (y == 0)` are *preserved*, and the closed program
//! is exactly trace-equivalent to `p × E_S` — two behaviors, not 2^10.
//!
//! Applicability (each conservatively checked):
//!
//! - the read and every derived definition execute at most once per run
//!   (their nodes are not on any control-flow cycle);
//! - every derived variable has exactly one definition, a pure expression
//!   over the read result / other derived variables / constants;
//! - derived values never escape the procedure through calls, returns,
//!   stores, loads, or toss bounds, and no derived variable's address is
//!   taken (uses in conditionals, switches, assertion arguments, and
//!   send / shared-write payloads are all fine — equal derived values
//!   imply identical behavior for those);
//! - the domain is small enough to enumerate (`DOMAIN_LIMIT`) and the
//!   signature partition is small enough to keep (`MAX_CLASSES`).

use crate::partition::{RefineReport, RefinedKind};
use cfgir::{
    CfgProc, CfgProgram, Guard, NodeId, NodeKind, Operand, Place, PureExpr, Rvalue, VarId,
};
use minic::ast::{BinOp, UnOp};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Maximum enumerable domain size.
const DOMAIN_LIMIT: u64 = 65_536;

/// Maximum number of signature classes to keep.
const MAX_CLASSES: usize = 64;

/// Refine every `env_input` read whose derivation chain qualifies.
/// Returns the rewritten program and one report per refined read
/// (`kind` = [`RefinedKind::EnvInputSemantic`]).
pub fn refine_semantic(prog: &CfgProgram) -> (CfgProgram, Vec<RefineReport>) {
    let analysis = dataflow::analyze(prog);
    let mut out = prog.clone();
    let mut reports = Vec::new();
    for pi in 0..prog.procs.len() {
        let proc = &prog.procs[pi];
        let on_cycle = nodes_on_cycles(proc);
        let du = &analysis.defuse[pi];
        for n in proc.node_ids() {
            let NodeKind::Assign {
                dst: Place::Var(v),
                src: Rvalue::EnvInput(i),
            } = &proc.node(n).kind
            else {
                continue;
            };
            let (lo, hi) = prog.inputs[i.index()].domain;
            let size = (hi - lo) as u64 + 1;
            if size > DOMAIN_LIMIT {
                continue;
            }
            let Some((chain, v_observed)) = derivation_chain(proc, du, &on_cycle, n, *v) else {
                continue;
            };
            // A directly-observed read has its exact value in the
            // signature, so every domain value is its own class: nothing
            // to save, leave it for the other strategies.
            if v_observed {
                continue;
            }
            let Some(classes) = signature_classes(&chain, *v, lo, hi) else {
                continue;
            };
            if classes.len() as u64 >= size {
                continue; // nothing saved
            }
            apply(&mut out.procs[pi], n, *v, &classes);
            reports.push(RefineReport {
                proc: proc.name.clone(),
                node: n,
                kind: RefinedKind::EnvInputSemantic,
                representatives: classes.iter().map(|c| c.0).collect(),
                classes: classes.iter().map(|c| (c.0, c.0)).collect(),
                domain_size: size,
            });
        }
    }
    debug_assert!(cfgir::validate(&out).is_ok());
    (out, reports)
}

/// Nodes that lie on a control-flow cycle (can reach themselves).
fn nodes_on_cycles(proc: &CfgProc) -> Vec<bool> {
    let n = proc.nodes.len();
    let mut on = vec![false; n];
    for start in proc.node_ids() {
        // DFS from each successor of `start`, looking for `start`.
        let mut seen = vec![false; n];
        let mut stack: Vec<NodeId> = proc.arcs(start).iter().map(|a| a.target).collect();
        while let Some(t) = stack.pop() {
            if t == start {
                on[start.index()] = true;
                break;
            }
            if seen[t.index()] {
                continue;
            }
            seen[t.index()] = true;
            stack.extend(proc.arcs(t).iter().map(|a| a.target));
        }
    }
    on
}

/// The derivation chain of a read: for each derived variable, its single
/// defining pure expression, plus whether the read result itself is
/// *directly observed* (used at a branch/assert/payload rather than only
/// feeding derivations) — in that case the signature must include the raw
/// value. `None` = disqualified.
fn derivation_chain(
    proc: &CfgProc,
    du: &dataflow::DefUse,
    on_cycle: &[bool],
    read_node: NodeId,
    v: VarId,
) -> Option<(BTreeMap<VarId, PureExpr>, bool)> {
    if on_cycle[read_node.index()] {
        return None;
    }
    // No address-taking of any variable we track (checked as we go).
    let addr_taken: BTreeSet<VarId> = proc
        .node_ids()
        .filter_map(|m| match proc.node(m).kind {
            NodeKind::Assign {
                src: Rvalue::AddrOf(a),
                ..
            } => Some(a),
            _ => None,
        })
        .collect();
    if addr_taken.contains(&v) {
        return None;
    }

    let mut chain: BTreeMap<VarId, PureExpr> = BTreeMap::new();
    let mut derived: BTreeSet<VarId> = [v].into();
    let mut v_observed = false;
    // Def sites queued for use-walking: (def id).
    let read_def = du.rd.defs_of_node[read_node.index()]
        .iter()
        .copied()
        .find(|d| du.rd.defs[*d].var == v)?;
    let mut queue = vec![read_def];
    let mut walked: BTreeSet<usize> = BTreeSet::new();
    while let Some(d) = queue.pop() {
        if !walked.insert(d) {
            continue;
        }
        for &(use_node, var) in &du.uses_of_def[d] {
            if !derived.contains(&var) {
                continue;
            }
            match &proc.node(use_node).kind {
                // Branches, assertion arguments, and outgoing payloads are
                // behavior-equal under equal derived values. A direct
                // observation of the raw read result makes its exact value
                // part of the behavioral signature.
                NodeKind::Cond { .. } | NodeKind::Switch { .. } => {
                    if var == v {
                        v_observed = true;
                    }
                }
                NodeKind::Visible {
                    op:
                        cfgir::VisOp::Assert { .. }
                        | cfgir::VisOp::Send { .. }
                        | cfgir::VisOp::ShWrite { .. },
                    ..
                } => {
                    if var == v {
                        v_observed = true;
                    }
                }
                NodeKind::Visible { .. } => return None,
                // A further pure derivation.
                NodeKind::Assign {
                    dst: Place::Var(w),
                    src: Rvalue::Pure(e),
                } => {
                    if on_cycle[use_node.index()] || addr_taken.contains(w) {
                        return None;
                    }
                    // w must have exactly this one definition, and no
                    // entry definition (not a parameter/global).
                    let defs_of_w = all_defs_of(du, *w);
                    if defs_of_w.len() != 1 {
                        return None;
                    }
                    // The expression may only read derived variables and
                    // constants (an untainted operand could vary between
                    // runs in ways our enumeration cannot see... it cannot
                    // — untainted state evolves identically — but it can
                    // vary *along the run*; single-shot defs plus derived-
                    // only operands keep the evaluation closed).
                    let mut ok = true;
                    e.for_each_var(&mut |u| {
                        if !derived.contains(&u) {
                            ok = false;
                        }
                    });
                    if !ok {
                        return None;
                    }
                    if derived.insert(*w) {
                        chain.insert(*w, e.clone());
                        queue.extend(du.rd.defs_of_node[use_node.index()].iter().copied());
                    }
                }
                // Anything else lets the value escape the evaluable world.
                _ => return None,
            }
        }
    }
    Some((chain, v_observed))
}

fn all_defs_of(du: &dataflow::DefUse, w: VarId) -> Vec<usize> {
    (0..du.rd.defs.len())
        .filter(|d| du.rd.defs[*d].var == w)
        .collect()
}

/// Evaluate the chain for every domain value and group by signature.
/// Returns `(representative, class_size)` per class, or `None` when
/// evaluation fails (e.g. division by zero) or there are too many classes.
fn signature_classes(
    chain: &BTreeMap<VarId, PureExpr>,
    v: VarId,
    lo: i64,
    hi: i64,
) -> Option<Vec<(i64, u64)>> {
    let mut classes: HashMap<Vec<i64>, (i64, u64)> = HashMap::new();
    let mut order: Vec<Vec<i64>> = Vec::new();
    for x in lo..=hi {
        let mut memo: HashMap<VarId, i64> = HashMap::new();
        memo.insert(v, x);
        let mut sig = Vec::with_capacity(chain.len());
        for (w, _) in chain.iter() {
            sig.push(eval_var(chain, &mut memo, *w)?);
        }
        match classes.get_mut(&sig) {
            Some((_, count)) => *count += 1,
            None => {
                if classes.len() >= MAX_CLASSES {
                    return None;
                }
                classes.insert(sig.clone(), (x, 1));
                order.push(sig);
            }
        }
    }
    Some(order.into_iter().map(|s| classes[&s]).collect())
}

fn eval_var(
    chain: &BTreeMap<VarId, PureExpr>,
    memo: &mut HashMap<VarId, i64>,
    w: VarId,
) -> Option<i64> {
    if let Some(val) = memo.get(&w) {
        return Some(*val);
    }
    let e = chain.get(&w)?.clone();
    let val = eval_expr(chain, memo, &e)?;
    memo.insert(w, val);
    Some(val)
}

fn eval_expr(
    chain: &BTreeMap<VarId, PureExpr>,
    memo: &mut HashMap<VarId, i64>,
    e: &PureExpr,
) -> Option<i64> {
    Some(match e {
        PureExpr::Atom(Operand::Const(c)) => *c,
        PureExpr::Atom(Operand::Var(w)) => eval_var(chain, memo, *w)?,
        PureExpr::Unary { op, expr } => {
            let x = eval_expr(chain, memo, expr)?;
            match op {
                UnOp::Neg => x.wrapping_neg(),
                UnOp::Not => (x == 0) as i64,
            }
        }
        PureExpr::Binary { op, lhs, rhs } => {
            let l = eval_expr(chain, memo, lhs)?;
            let r = eval_expr(chain, memo, rhs)?;
            const_bin_op(*op, l, r)?
        }
    })
}

/// C-on-`i64` constant evaluation, mirroring the interpreter's semantics
/// (wrapping arithmetic, masked shifts; `None` on division by zero).
fn const_bin_op(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Shr => a.wrapping_shr(b as u32 & 63),
    })
}

/// Rewrite the read into a choice over the class representatives.
fn apply(proc: &mut CfgProc, n: NodeId, dst: VarId, classes: &[(i64, u64)]) {
    let succ = proc.arcs(n)[0].target;
    let span = proc.node(n).span;
    proc.nodes[n.index()].kind = NodeKind::TossCond {
        bound: (classes.len() - 1) as u32,
    };
    proc.succs[n.index()].clear();
    for (i, (rep, _)) in classes.iter().enumerate() {
        let assign = proc.push_node(
            NodeKind::Assign {
                dst: Place::Var(dst),
                src: Rvalue::Pure(PureExpr::constant(*rep)),
            },
            span,
        );
        proc.add_arc(n, Guard::TossEq(i as u32), assign);
        proc.add_arc(assign, Guard::Always, succ);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use verisoft::{explore, Config, EnvMode};

    /// Figure 2's p, written with env_input so the read sits in the
    /// procedure body (the paper's parameter-passing variant is tested
    /// via the spawn path elsewhere).
    const FIG2_P_READ: &str = r#"
        extern chan evens;
        extern chan odds;
        input x : 0..1023;
        proc p() {
            int x = env_input(x);
            int y = x % 2;
            int cnt = 0;
            while (cnt < 10) {
                if (y == 0) send(evens, cnt);
                else send(odds, cnt + 1);
                cnt = cnt + 1;
            }
        }
        process p();
    "#;

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

    #[test]
    fn figure2_becomes_optimal_with_semantic_refinement() {
        // The paper's §5 observation, realized: "hoisting the conditional
        // test y=0 outside the loop in p would have eliminated this
        // imprecision." One binary choice before the loop; exactly the 2
        // behaviors of p × E_S instead of 2^10.
        let open = cfgir::compile(FIG2_P_READ).unwrap();
        let ground = explore(&open, &trace_cfg(EnvMode::Enumerate)).traces;
        assert_eq!(ground.len(), 2);

        let (refined, reports) = refine_semantic(&open);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RefinedKind::EnvInputSemantic);
        assert_eq!(reports[0].representatives, vec![0, 1], "even/odd classes");
        assert_eq!(reports[0].domain_size, 1024);

        let closed = crate::close(&refined, &dataflow::analyze(&refined));
        assert!(closed.program.is_closed());
        let traces = explore(&closed.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(traces, ground, "semantically refined p is optimal");

        // Without semantic refinement, plain elimination gives 2^10.
        let eliminated = crate::close(&open, &dataflow::analyze(&open));
        let e = explore(&eliminated.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(e.len(), 1024);
    }

    #[test]
    fn loop_carried_derivation_disqualifies() {
        // Figure 3's q recomputes y = x % 2 and mutates x inside the loop:
        // the derivation is not single-shot, so semantic refinement must
        // not apply (all 1024 behaviors are real).
        let src = r#"
            extern chan evens;
            extern chan odds;
            input xin : 0..1023;
            proc q() {
                int x = env_input(xin);
                int cnt = 0;
                while (cnt < 10) {
                    int y = x % 2;
                    if (y == 0) send(evens, cnt);
                    else send(odds, cnt + 1);
                    x = x / 2;
                    cnt = cnt + 1;
                }
            }
            process q();
        "#;
        let open = cfgir::compile(src).unwrap();
        let (_, reports) = refine_semantic(&open);
        assert!(reports.is_empty(), "q's chain is loop-carried: {reports:?}");
    }

    #[test]
    fn derived_payload_is_preserved() {
        // The sent value is derived (x % 3 + 10): refinement keeps real
        // payloads — one per class — and matches enumeration exactly.
        let src = r#"
            extern chan out;
            input xin : 0..299;
            proc m() {
                int x = env_input(xin);
                int bucket = x % 3;
                int payload = bucket + 10;
                send(out, payload);
            }
            process m();
        "#;
        let open = cfgir::compile(src).unwrap();
        let ground = explore(&open, &trace_cfg(EnvMode::Enumerate)).traces;
        assert_eq!(ground.len(), 3);
        let (refined, reports) = refine_semantic(&open);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].representatives.len(), 3);
        let closed = crate::close(&refined, &dataflow::analyze(&refined));
        let traces = explore(&closed.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(traces, ground);
    }

    #[test]
    fn escape_through_call_disqualifies() {
        let src = r#"
            extern chan out;
            input xin : 0..63;
            proc helper(int a) { send(out, a); }
            proc m() {
                int x = env_input(xin);
                int y = x % 2;
                helper(y);
            }
            process m();
        "#;
        let open = cfgir::compile(src).unwrap();
        let (_, reports) = refine_semantic(&open);
        assert!(reports.is_empty());
    }

    #[test]
    fn mixing_untainted_operand_disqualifies() {
        // y = x + cnt mixes an untainted variable into the derivation:
        // our enumeration cannot evaluate it, so the read is left alone.
        let src = r#"
            extern chan out;
            input xin : 0..63;
            proc m() {
                int cnt = 3;
                int x = env_input(xin);
                int y = x + cnt;
                if (y > 40) send(out, 1);
                else send(out, 0);
            }
            process m();
        "#;
        let open = cfgir::compile(src).unwrap();
        let (_, reports) = refine_semantic(&open);
        assert!(reports.is_empty());
    }

    #[test]
    fn domain_limit_respected() {
        let refined = |hi: u64| {
            let src = format!(
                "extern chan out;
                input xin : 0..{hi};
                proc m() {{
                    int x = env_input(xin);
                    int y = x % 2;
                    if (y == 0) send(out, 0); else send(out, 1);
                }}
                process m();"
            );
            refine_semantic(&cfgir::compile(&src).unwrap()).1.len()
        };
        assert_eq!(
            refined(DOMAIN_LIMIT - 1),
            1,
            "a domain of DOMAIN_LIMIT values"
        );
        assert_eq!(refined(DOMAIN_LIMIT), 0, "one value past DOMAIN_LIMIT");
    }

    #[test]
    fn too_many_classes_disqualifies() {
        // y = x has |dom| classes: pointless, left for elimination.
        let src = r#"
            extern chan out;
            input xin : 0..200;
            proc m() {
                int x = env_input(xin);
                int y = x * 2;
                if (y > 100) send(out, 1); else send(out, 0);
            }
            process m();
        "#;
        let open = cfgir::compile(src).unwrap();
        let (_, reports) = refine_semantic(&open);
        assert!(reports.is_empty(), "201 distinct y values > 64 classes");
    }

    #[test]
    fn derived_assert_outcomes_preserved() {
        // An assertion over a derived value fails for exactly one class;
        // semantic refinement must keep the violation reachable.
        let src = r#"
            input xin : 0..15;
            chan c[1];
            proc m() {
                int x = env_input(xin);
                int y = x % 4;
                send(c, 1);
                int z = recv(c);
                VS_assert(y != 2);
            }
            process m();
        "#;
        let open = cfgir::compile(src).unwrap();
        let (refined, reports) = refine_semantic(&open);
        assert_eq!(reports.len(), 1);
        let closed = crate::close(&refined, &dataflow::analyze(&refined));
        let r = explore(
            &closed.program,
            &Config {
                max_violations: usize::MAX,
                ..Config::default()
            },
        );
        assert!(r.first_assert().is_some(), "{r}");
    }
}

#[cfg(test)]
mod soundness_regression {
    use super::*;
    use verisoft::{explore, Config, EnvMode};

    #[test]
    fn directly_observed_read_is_not_refined() {
        // Regression: x itself is branched on (x > 5) in addition to the
        // derived y; grouping by y alone would lose the x > 5 behaviors.
        let src = r#"
            extern chan a; extern chan b; extern chan out;
            input xin : 0..9;
            proc m() {
                int x = env_input(xin);
                int y = x % 2;
                if (x > 5) send(a, 1);
                else send(b, 1);
                if (y == 0) send(out, 0);
                else send(out, 1);
            }
            process m();
        "#;
        let open = cfgir::compile(src).unwrap();
        let (_, reports) = refine_semantic(&open);
        assert!(
            reports.is_empty(),
            "direct observation of x must disqualify semantic refinement"
        );
        // And the full pipeline (syntactic first, then semantic) must not
        // lose any of the 4 joint behaviors either.
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
        let (closed, _) = crate::close_with_refinement(src).unwrap();
        let got = explore(&closed.program, &tcfg).traces;
        for t in &ground {
            assert!(got.contains(t), "behavior lost: {t:?}");
        }
    }
}
