//! Input-domain partitioning — the paper's §7 "possible improvements",
//! implemented.
//!
//! > "Consider, for instance, a resource-management system that receives
//! > (via its open interface) 32-bit integers representing amounts of
//! > time requested from the resource, but whose visible behavior only
//! > depends on which of a small set of ranges each request falls into.
//! > Our transformation would completely eliminate the open interface …
//! > However, one could hope for a static analysis that would determine
//! > the appropriate partitioning of the input domain, and, if it is
//! > small enough, **simplify the interface instead of eliminating it**."
//!
//! [`refine`] is that analysis. An `env_input` read qualifies when every
//! use reached by its definition is a conditional in which the value is
//! only ever compared against constants (and its address is never taken).
//! The comparison constants cut the declared domain into intervals within
//! which every value behaves identically; the read is replaced by a
//! `VS_toss` over one *representative per interval*:
//!
//! ```text
//! v = env_input(x);            v = toss-choice over {rep_0, …, rep_{k-1}}
//! if (v > 100) …          ⇒    if (v > 100) …        (data preserved!)
//! ```
//!
//! Unlike elimination, refinement is **exact**: the refined system is
//! trace-equivalent to `S × E_S` (each domain value behaves like its
//! interval's representative), while branching drops from `|domain|` to
//! `k`.
//!
//! The same machinery applied to `VS_toss` reads implements the §5
//! closing remark that "sequences of VS_toss that result in the same
//! sequences of marked nodes are redundant, and could thus be
//! eliminated": [`reduce_tosses`] shrinks a toss whose result is only
//! compared against constants down to one choice per equivalence class.

use cfgir::{
    CfgProc, CfgProgram, Guard, NodeId, NodeKind, Operand, Place, PureExpr, Rvalue, VarId,
};
use dataflow::Analysis;
use minic::ast::BinOp;
use std::collections::BTreeSet;

/// Options for domain partitioning.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Refinement applies only when the partition has at most this many
    /// classes; larger interfaces are left for elimination.
    pub max_classes: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions { max_classes: 16 }
    }
}

/// One successful refinement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefineReport {
    /// Procedure containing the read.
    pub proc: String,
    /// The rewritten node (now a `TossCond`).
    pub node: NodeId,
    /// Kind of read refined.
    pub kind: RefinedKind,
    /// The inclusive intervals of the partition.
    pub classes: Vec<(i64, i64)>,
    /// One representative per interval (its lower bound).
    pub representatives: Vec<i64>,
    /// Original domain size (for the branching-saved accounting).
    pub domain_size: u64,
}

/// What kind of nondeterministic read was refined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinedKind {
    /// An `env_input` read (interface simplification, §7), via the
    /// syntactic constant-comparison analysis.
    EnvInput,
    /// An `env_input` read refined by domain enumeration over a pure
    /// derivation chain ([`crate::semantic`]).
    EnvInputSemantic,
    /// A `VS_toss` read (redundant-branching reduction, §5).
    Toss,
}

/// Refine every qualifying `env_input` read of `prog`. Returns the
/// partially-refined program (refined reads no longer touch the
/// environment; non-qualifying reads are untouched — run
/// [`crate::close`] afterwards to eliminate those) and a report per
/// refinement.
pub fn refine(prog: &CfgProgram, options: &RefineOptions) -> (CfgProgram, Vec<RefineReport>) {
    rewrite(prog, options, RefinedKind::EnvInput)
}

/// Shrink every qualifying `VS_toss` read to one choice per behavioral
/// equivalence class.
pub fn reduce_tosses(
    prog: &CfgProgram,
    options: &RefineOptions,
) -> (CfgProgram, Vec<RefineReport>) {
    rewrite(prog, options, RefinedKind::Toss)
}

/// Close `src` with interface *simplification* where possible and
/// elimination elsewhere: the §7 pipeline.
///
/// # Errors
///
/// Returns front-end diagnostics.
///
/// # Examples
///
/// ```
/// // The paper's §7 resource manager: a huge request domain whose
/// // behavior depends only on coarse ranges.
/// let (closed, refinements) = closer::close_with_refinement(r#"
///     extern chan grant; extern chan deny;
///     input req : 0..1000000;
///     proc manager() {
///         int t = env_input(req);
///         if (t < 10) send(grant, 1);
///         else if (t < 1000) send(grant, 2);
///         else send(deny, 0);
///     }
///     process manager();
/// "#, &closer::RefineOptions::default())?;
/// assert!(closed.program.is_closed());
/// assert_eq!(refinements.len(), 1);
/// assert_eq!(refinements[0].classes.len(), 3); // [0,9] [10,999] [1000,1000000]
/// # Ok::<(), minic::Diagnostics>(())
/// ```
pub fn close_with_refinement(
    src: &str,
    options: &RefineOptions,
) -> Result<(crate::Closed, Vec<RefineReport>), minic::Diagnostics> {
    let prog = cfgir::compile(src)?;
    // Syntactic interval refinement first, then semantic enumeration for
    // the derived-chain reads the intervals cannot handle, then plain
    // elimination for the rest.
    let (refined, mut reports) = refine(&prog, options);
    let (refined, semantic_reports) =
        crate::semantic::refine_semantic(&refined, &crate::semantic::SemanticOptions::default());
    reports.extend(semantic_reports);
    let analysis = dataflow::analyze(&refined);
    Ok((crate::close(&refined, &analysis), reports))
}

fn rewrite(
    prog: &CfgProgram,
    options: &RefineOptions,
    want: RefinedKind,
) -> (CfgProgram, Vec<RefineReport>) {
    let analysis = dataflow::analyze(prog);
    let mut out = prog.clone();
    let mut reports = Vec::new();
    for pi in 0..prog.procs.len() {
        let proc = &prog.procs[pi];
        let du = &analysis.defuse[pi];
        for n in proc.node_ids() {
            let Some((dst, domain, kind)) = read_at(prog, proc, n) else {
                continue;
            };
            if kind != want {
                continue;
            }
            let Some(cuts) = classify_uses(proc, du, &analysis, n, dst) else {
                continue;
            };
            let classes = intervals(domain, &cuts);
            if classes.is_empty() || classes.len() > options.max_classes {
                continue;
            }
            if want == RefinedKind::Toss && classes.len() as u64 >= domain_size(domain) {
                continue; // no branching saved
            }
            apply(&mut out.procs[pi], n, dst, &classes);
            reports.push(RefineReport {
                proc: proc.name.clone(),
                node: n,
                kind,
                representatives: classes.iter().map(|c| c.0).collect(),
                classes,
                domain_size: domain_size(domain),
            });
        }
    }
    debug_assert!(cfgir::validate(&out).is_ok());
    (out, reports)
}

fn domain_size((lo, hi): (i64, i64)) -> u64 {
    (hi - lo) as u64 + 1
}

/// A refinable read at node `n`: its destination variable, value domain,
/// and kind.
fn read_at(
    prog: &CfgProgram,
    proc: &CfgProc,
    n: NodeId,
) -> Option<(VarId, (i64, i64), RefinedKind)> {
    match &proc.node(n).kind {
        NodeKind::Assign {
            dst: Place::Var(v),
            src: Rvalue::EnvInput(i),
        } => Some((*v, prog.inputs[i.index()].domain, RefinedKind::EnvInput)),
        NodeKind::Assign {
            dst: Place::Var(v),
            src: Rvalue::Toss(Operand::Const(b)),
        } if *b >= 0 => Some((*v, (0, *b), RefinedKind::Toss)),
        _ => None,
    }
}

/// Check that every use reached by the definition at `n` observes only
/// which constant-comparison class the value falls in; collect the cut
/// points. `None` = not refinable.
fn classify_uses(
    proc: &CfgProc,
    du: &dataflow::DefUse,
    analysis: &Analysis,
    n: NodeId,
    v: VarId,
) -> Option<BTreeSet<i64>> {
    // The address of v must never be taken (a load could observe the
    // representative value exactly).
    let v_loc = dataflow::loc_of(proc, v);
    let addr_taken = proc.node_ids().any(|m| {
        matches!(
            proc.node(m).kind,
            NodeKind::Assign {
                src: Rvalue::AddrOf(a),
                ..
            } if a == v
        )
    });
    if addr_taken {
        return None;
    }
    let _ = (analysis, v_loc);
    // Find this node's definition site of v.
    let def = du.rd.defs_of_node[n.index()]
        .iter()
        .copied()
        .find(|d| du.rd.defs[*d].var == v)?;
    let mut cuts = BTreeSet::new();
    for &(use_node, var) in &du.uses_of_def[def] {
        if var != v {
            continue;
        }
        match &proc.node(use_node).kind {
            NodeKind::Cond { expr } => {
                if !collect_cuts(expr, v, &mut cuts) {
                    return None;
                }
            }
            NodeKind::Switch { expr } => {
                // switch (v): each case label c cuts at c and c+1.
                if *expr != PureExpr::var(v) {
                    return None;
                }
                for a in proc.arcs(use_node) {
                    if let Guard::CaseEq(c) = a.guard {
                        cuts.insert(c);
                        cuts.insert(c.saturating_add(1));
                    }
                }
            }
            _ => return None, // any other observation is too precise
        }
    }
    Some(cuts)
}

/// Walk a conditional expression; every occurrence of `v` must be a
/// direct operand of a comparison against a constant. Records the cut
/// points; false = disqualified.
fn collect_cuts(e: &PureExpr, v: VarId, cuts: &mut BTreeSet<i64>) -> bool {
    match e {
        // A bare use of v (e.g. `if (v)`) is conservatively rejected —
        // it could be handled as `v != 0`, but the simple rule keeps the
        // analysis obviously sound.
        PureExpr::Atom(Operand::Var(u)) => *u != v,
        PureExpr::Atom(_) => true,
        PureExpr::Unary { expr, .. } => collect_cuts(expr, v, cuts),
        PureExpr::Binary { op, lhs, rhs } => {
            let lv = **lhs == PureExpr::var(v);
            let rv = **rhs == PureExpr::var(v);
            match (lv, rv) {
                (true, _) | (_, true) => {
                    let other = if lv { rhs } else { lhs };
                    let PureExpr::Atom(Operand::Const(c)) = **other else {
                        return false;
                    };
                    if !op.is_comparison() {
                        return false;
                    }
                    // Normalize to cut points for `v OP c` (mirrored ops
                    // produce the same cuts).
                    match op {
                        BinOp::Eq | BinOp::Ne => {
                            cuts.insert(c);
                            cuts.insert(c.saturating_add(1));
                        }
                        BinOp::Lt | BinOp::Ge => {
                            // v < c / v >= c split below/at c.
                            if lv {
                                cuts.insert(c);
                            } else {
                                // c < v  ≡  v > c
                                cuts.insert(c.saturating_add(1));
                            }
                        }
                        BinOp::Le | BinOp::Gt => {
                            if lv {
                                cuts.insert(c.saturating_add(1));
                            } else {
                                // c <= v ≡ v >= c
                                cuts.insert(c);
                            }
                        }
                        _ => return false,
                    }
                    true
                }
                _ => collect_cuts(lhs, v, cuts) && collect_cuts(rhs, v, cuts),
            }
        }
    }
}

/// Split `[lo, hi]` at the cut points into inclusive intervals.
fn intervals((lo, hi): (i64, i64), cuts: &BTreeSet<i64>) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    let mut start = lo;
    for &c in cuts {
        if c > lo && c <= hi {
            out.push((start, c - 1));
            start = c;
        }
    }
    if start <= hi {
        out.push((start, hi));
    }
    out
}

/// Rewrite the read node into `TossCond{k-1}` with `k` representative
/// assignments joining at the read's original successor.
fn apply(proc: &mut CfgProc, n: NodeId, dst: VarId, classes: &[(i64, i64)]) {
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

/// The §7 resource manager: one environment read whose three-way branch
/// refines into three input classes.
#[cfg(test)]
pub(crate) const RESOURCE_MANAGER: &str = r#"
    extern chan grant; extern chan deny;
    input req : 0..255;
    proc manager() {
        int t = env_input(req);
        if (t < 10) send(grant, 1);
        else if (t < 100) send(grant, 2);
        else send(deny, 0);
    }
    process manager();
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use verisoft::{explore, Config, EnvMode};

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
    fn resource_manager_partitions_into_ranges() {
        let (closed, reports) =
            close_with_refinement(RESOURCE_MANAGER, &RefineOptions::default()).unwrap();
        assert!(closed.program.is_closed());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].classes, vec![(0, 9), (10, 99), (100, 255)]);
        assert_eq!(reports[0].representatives, vec![0, 10, 100]);
        assert_eq!(reports[0].domain_size, 256);
    }

    #[test]
    fn refinement_is_exact_unlike_elimination() {
        let open = cfgir::compile(RESOURCE_MANAGER).unwrap();
        // Ground truth: all 256 inputs enumerated.
        let ground = explore(&open, &trace_cfg(EnvMode::Enumerate)).traces;
        // Refined: 3 representatives.
        let (refined_closed, _) =
            close_with_refinement(RESOURCE_MANAGER, &RefineOptions::default()).unwrap();
        let refined = explore(&refined_closed.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(ground, refined, "refinement preserves exact trace set");
        // Plain elimination over-approximates: the data payloads sent are
        // still exact here (constants), so the trace set is the same size,
        // but elimination cannot carry the input value into data. Pin the
        // branching instead: refined program tosses over 3, eliminated
        // program also tosses over 3 control targets — the difference
        // shows when the value itself flows onward (next test).
        assert_eq!(ground.len(), 3);
    }

    #[test]
    fn refinement_preserves_data_flow_where_elimination_cannot() {
        // The observed payload *is* the input-derived value: elimination
        // erases it (opaque), refinement keeps a concrete representative.
        let src = r#"
            extern chan out;
            input req : 0..255;
            proc m() {
                int t = env_input(req);
                if (t < 100) { send(out, 1); } else { send(out, 2); }
                int grade = 0;
                if (t < 100) { grade = 10; } else { grade = 20; }
                send(out, grade);
            }
            process m();
        "#;
        // Eliminated: the two `t < 100` tests become *independent* tosses
        // — 4 behaviors, including impossible mixed ones.
        let eliminated = crate::close_source(src).unwrap();
        let e_traces = explore(&eliminated.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(e_traces.len(), 4);
        // Refined: one choice of class, both tests agree — exactly the 2
        // real behaviors.
        let (refined, reports) = close_with_refinement(src, &RefineOptions::default()).unwrap();
        assert_eq!(reports.len(), 1);
        let r_traces = explore(&refined.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(
            r_traces.len(),
            2,
            "refinement fixes temporal independence here"
        );
        // And equals ground truth.
        let open = cfgir::compile(src).unwrap();
        let ground = explore(&open, &trace_cfg(EnvMode::Enumerate)).traces;
        assert_eq!(ground, r_traces);
    }

    #[test]
    fn value_escaping_disqualifies() {
        // t is sent onward: its exact value is observable, so refinement
        // must not apply.
        let src = r#"
            extern chan out;
            input req : 0..255;
            proc m() {
                int t = env_input(req);
                if (t < 100) { send(out, t); } else { send(out, 0); }
            }
            process m();
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (_, reports) = refine(&prog, &RefineOptions::default());
        assert!(reports.is_empty(), "escaping value must not be refined");
    }

    #[test]
    fn arithmetic_use_disqualifies() {
        let src = r#"
            extern chan out;
            input req : 0..255;
            proc m() {
                int t = env_input(req);
                int u = t + 1;
                if (u < 100) send(out, 1);
            }
            process m();
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (_, reports) = refine(&prog, &RefineOptions::default());
        assert!(reports.is_empty());
    }

    #[test]
    fn address_taken_disqualifies() {
        let src = r#"
            extern chan out;
            input req : 0..255;
            proc m() {
                int t = env_input(req);
                int *p = &t;
                int u = *p;
                if (t < 100) send(out, 1);
            }
            process m();
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (_, reports) = refine(&prog, &RefineOptions::default());
        assert!(reports.is_empty());
    }

    #[test]
    fn comparison_against_variable_disqualifies() {
        let src = r#"
            extern chan out;
            input req : 0..255;
            proc m(int limit) {
                int t = env_input(req);
                if (t < limit) send(out, 1);
            }
            process m(7);
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (_, reports) = refine(&prog, &RefineOptions::default());
        assert!(reports.is_empty());
    }

    #[test]
    fn too_many_classes_falls_back_to_elimination() {
        let mut conds = String::new();
        for i in 0..40 {
            conds.push_str(&format!("if (t == {i}) send(out, {i});\n"));
        }
        let src = format!(
            "extern chan out;\ninput req : 0..255;\nproc m() {{ int t = env_input(req);\n{conds} }}\nprocess m();"
        );
        let prog = cfgir::compile(&src).unwrap();
        let (_, reports) = refine(&prog, &RefineOptions::default());
        assert!(reports.is_empty(), "81 classes > max 16");
        let (_, reports) = refine(&prog, &RefineOptions { max_classes: 100 });
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].classes.len(), 41);
    }

    #[test]
    fn switch_scrutinee_partitions_per_label() {
        let src = r#"
            extern chan out;
            input req : 0..9;
            proc m() {
                int t = env_input(req);
                switch (t) {
                    case 2: send(out, 2);
                    case 5: send(out, 5);
                    default: send(out, 0);
                }
            }
            process m();
        "#;
        let (closed, reports) = close_with_refinement(src, &RefineOptions::default()).unwrap();
        assert_eq!(reports.len(), 1);
        // Cuts at 2,3,5,6: [0,1] [2,2] [3,4] [5,5] [6,9].
        assert_eq!(reports[0].classes.len(), 5);
        let open = cfgir::compile(src).unwrap();
        let ground = explore(&open, &trace_cfg(EnvMode::Enumerate)).traces;
        let refined = explore(&closed.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(ground, refined);
    }

    #[test]
    fn toss_reduction_shrinks_redundant_branching() {
        // VS_toss(99) observed only as ">= 50": two classes suffice.
        let src = r#"
            extern chan out;
            proc m() {
                int t = VS_toss(99);
                if (t >= 50) send(out, 1);
                else send(out, 0);
            }
            process m();
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (reduced, reports) = reduce_tosses(&prog, &RefineOptions::default());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RefinedKind::Toss);
        assert_eq!(reports[0].classes, vec![(0, 49), (50, 99)]);
        // Trace sets agree; work shrinks 50x.
        let before = explore(&prog, &trace_cfg(EnvMode::Closed));
        let after = explore(&reduced, &trace_cfg(EnvMode::Closed));
        assert_eq!(before.traces, after.traces);
        assert!(after.transitions * 10 < before.transitions);
    }

    #[test]
    fn useful_toss_left_alone() {
        // The toss value is sent: every value matters.
        let src = r#"
            extern chan out;
            proc m() { int t = VS_toss(9); send(out, t); }
            process m();
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (_, reports) = reduce_tosses(&prog, &RefineOptions::default());
        assert!(reports.is_empty());
    }

    #[test]
    fn bare_truthiness_test_counts_as_comparison() {
        // `if (v)` observes v != 0 — wait: a bare use is rejected by
        // collect_cuts. Pin that behavior: conservative rejection.
        let src = r#"
            extern chan out;
            input req : 0..3;
            proc m() {
                int t = env_input(req);
                if (t) send(out, 1);
                else send(out, 0);
            }
            process m();
        "#;
        let prog = cfgir::compile(src).unwrap();
        let (_, reports) = refine(&prog, &RefineOptions::default());
        assert!(
            reports.is_empty(),
            "bare truthiness is conservatively rejected"
        );
    }

    #[test]
    fn multiple_reads_refined_independently() {
        let src = r#"
            extern chan out;
            input a : 0..100;
            input b : 0..100;
            proc m() {
                int x = env_input(a);
                int y = env_input(b);
                if (x < 50) send(out, 1); else send(out, 2);
                if (y < 10) send(out, 3); else send(out, 4);
            }
            process m();
        "#;
        let (closed, reports) = close_with_refinement(src, &RefineOptions::default()).unwrap();
        assert_eq!(reports.len(), 2);
        let open = cfgir::compile(src).unwrap();
        let ground = explore(&open, &trace_cfg(EnvMode::Enumerate)).traces;
        let refined = explore(&closed.program, &trace_cfg(EnvMode::Closed)).traces;
        assert_eq!(ground, refined);
    }
}
