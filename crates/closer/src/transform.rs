//! The closing transformation — Figure 1 of the paper.
//!
//! Given the control-flow graphs `G_j` and define-use analysis results
//! (`N_I`, `V_I(n)` from [`dataflow::taint`]), each procedure is
//! transformed as follows:
//!
//! - **Step 3 (marking):** keep the start node, termination statements,
//!   and every procedure call / visible operation; keep assignment and
//!   conditional statements only when they are *not* in `N_I`. (Reads of
//!   `env_input` are additionally unmarked: they are the interface being
//!   eliminated.)
//! - **Step 4 (arc rewiring):** for each marked node `n` and out-arc `a`,
//!   compute `succ(a)` — the marked nodes reachable from `n` through
//!   unmarked nodes only, starting with `a`. One successor: a direct arc.
//!   Several: a fresh conditional on `VS_toss(|succ(a)|-1)`. None (the arc
//!   enters a cycle of eliminated nodes): the paper "does nothing" — such
//!   divergences are not preserved; to keep the graph executable the arc
//!   targets a synthesized `return` instead.
//! - **Step 5 (interface removal):** environment-defined parameters are
//!   removed from signatures, call sites, and spawn specs; call
//!   destinations of environment-tainted returns, tainted `send`/`sh_write`
//!   payloads (sent as the *opaque* value), tainted `VS_assert` arguments
//!   (made vacuous), and `recv`/`sh_read` destinations on tainted objects
//!   are all erased.
//!
//! The output is a *closed* program: no `env_input` nodes and no
//! environment-supplied spawn arguments remain
//! ([`cfgir::CfgProgram::is_closed`]), and by the analog of the paper's
//! Lemma 5, `V_I(n') = ∅` for every node of the result.

use cfgir::{
    Arc, CfgProc, CfgProgram, Guard, NodeId, NodeKind, ProcessSpec, Rvalue, VarId, VarKind, VisOp,
};
use dataflow::{Analysis, Taint};
use minic::span::Span;
use std::collections::BTreeSet;

/// Provenance for one `VS_toss` conditional inserted by Step 4: which
/// marked node and out-arc of the *open* procedure it abstracts, and the
/// open-program node each toss outcome resumes at. The
/// counterexample-guided refinement pass ([`crate::refine_cex()`]) uses
/// this to ask, per outcome, whether the open program can actually reach
/// that resume point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TossSite {
    /// The toss node in the closed procedure.
    pub closed_node: NodeId,
    /// The marked open-program node whose out-arc was rewired.
    pub orig_node: NodeId,
    /// Index of that out-arc in the open procedure's arc list.
    pub orig_arc: usize,
    /// `succ(a)` — open-program resume node of outcome `i` is
    /// `targets[i]`, matching the `Guard::TossEq(i)` arc order.
    pub targets: Vec<NodeId>,
}

/// Statistics about one procedure's transformation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProcReport {
    /// Procedure name.
    pub name: String,
    /// Nodes in the original graph.
    pub nodes_before: usize,
    /// Nodes kept (marked) from the original graph.
    pub nodes_kept: usize,
    /// Fresh `VS_toss` conditionals inserted by Step 4.
    pub toss_nodes_inserted: usize,
    /// Parameters removed by Step 5.
    pub params_removed: usize,
    /// Arcs that entered eliminated-only cycles (divergences not
    /// preserved).
    pub divergent_arcs: usize,
    /// Provenance for each inserted toss, in insertion order.
    pub toss_sites: Vec<TossSite>,
}

/// The result of closing a program.
#[derive(Debug, Clone)]
pub struct Closed {
    /// The closed program.
    pub program: CfgProgram,
    /// Per-procedure transformation statistics.
    pub reports: Vec<ProcReport>,
}

/// Close `prog` using precomputed analysis results.
pub fn close(prog: &CfgProgram, analysis: &Analysis) -> Closed {
    let pairs: Vec<(CfgProc, ProcReport)> = prog
        .procs
        .iter()
        .map(|p| close_proc(prog, p, &analysis.taint))
        .collect();
    assemble(prog, &analysis.taint, pairs)
}

/// Assemble closed procedures into a closed program: Step 5 for spawn
/// specs (drop arguments whose parameter was removed) plus final sanity
/// checks. `pairs` must be in [`cfgir::ProcId`] order — the pipeline
/// produces them per procedure, possibly on parallel workers, and merges
/// here deterministically.
pub(crate) fn assemble(
    prog: &CfgProgram,
    taint: &Taint,
    pairs: Vec<(CfgProc, ProcReport)>,
) -> Closed {
    let (procs, reports): (Vec<CfgProc>, Vec<ProcReport>) = pairs.into_iter().unzip();
    let processes = prog
        .processes
        .iter()
        .map(|ps| {
            let removed = &taint.tainted_params[ps.proc.index()];
            ProcessSpec {
                name: ps.name.clone(),
                proc: ps.proc,
                args: ps
                    .args
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !removed.contains(i))
                    .map(|(_, a)| *a)
                    .collect(),
                daemon: ps.daemon,
            }
        })
        .collect();
    let program = CfgProgram {
        objects: prog.objects.clone(),
        globals: prog.globals.clone(),
        inputs: prog.inputs.clone(),
        procs,
        processes,
    };
    debug_assert!(
        program.is_closed(),
        "transformation output still reads the environment"
    );
    debug_assert!(cfgir::validate(&program).is_ok());
    Closed { program, reports }
}

/// Close a source program end to end (`compile` → `analyze` → `close`).
///
/// # Errors
///
/// Returns front-end diagnostics.
///
/// # Examples
///
/// ```
/// let closed = closer::close_source(r#"
///     extern chan out;
///     input x : 0..255;
///     proc p(int x) { if (x > 0) send(out, 1); }
///     process p(x);
/// "#)?;
/// assert!(closed.program.is_closed());
/// # Ok::<(), minic::Diagnostics>(())
/// ```
pub fn close_source(src: &str) -> Result<Closed, minic::Diagnostics> {
    let prog = cfgir::compile(src)?;
    let analysis = dataflow::analyze(&prog);
    Ok(close(&prog, &analysis))
}

/// Step 3: is this node preserved?
fn is_marked(proc: &CfgProc, taint: &Taint, n: NodeId) -> bool {
    let taint = taint.proc(proc.id);
    match &proc.node(n).kind {
        // Start nodes, termination statements, procedure calls, spawns,
        // and visible operations are always preserved.
        NodeKind::Start
        | NodeKind::Return { .. }
        | NodeKind::Call { .. }
        | NodeKind::Spawn { .. }
        | NodeKind::Visible { .. } => true,
        // Reading the environment is the interface being eliminated.
        NodeKind::Assign {
            src: Rvalue::EnvInput(_),
            ..
        } => false,
        // Assignments and conditionals survive iff they are not in N_I.
        NodeKind::Assign { .. }
        | NodeKind::Cond { .. }
        | NodeKind::Switch { .. }
        | NodeKind::TossCond { .. } => !taint.in_n_i(n),
    }
}

/// Steps 3–5 for one procedure. Depends only on the procedure and the
/// taint results, so the pipeline may close procedures on any worker.
pub(crate) fn close_proc(
    prog: &CfgProgram,
    proc: &CfgProc,
    taint: &Taint,
) -> (CfgProc, ProcReport) {
    let pt = taint.proc(proc.id);
    let marked: Vec<bool> = proc.node_ids().map(|n| is_marked(proc, taint, n)).collect();

    // --- Variable table: remove environment-defined parameters. --------
    let removed_params = &taint.tainted_params[proc.id.index()];
    let mut vars = proc.vars.clone();
    let mut new_params = Vec::new();
    let mut next_index = 0usize;
    for (i, pv) in proc.params.iter().enumerate() {
        if removed_params.contains(&i) {
            // The slot stays in the table (it is never read in the closed
            // program) but is no longer a parameter.
            vars[pv.index()].kind = VarKind::Local;
        } else {
            vars[pv.index()].kind = VarKind::Param(next_index);
            next_index += 1;
            new_params.push(*pv);
        }
    }

    let mut out = CfgProc {
        name: proc.name.clone(),
        id: proc.id,
        params: new_params,
        vars,
        nodes: Vec::new(),
        succs: Vec::new(),
        start: NodeId(0),
    };

    // --- Copy marked nodes (Step 5 rewrites applied per kind). ---------
    let mut map: Vec<Option<NodeId>> = vec![None; proc.nodes.len()];
    for n in proc.node_ids() {
        if !marked[n.index()] {
            continue;
        }
        let node = proc.node(n);
        let kind = rewrite_kind(&node.kind, proc, n, taint);
        let new_id = out.push_node(kind, node.span);
        map[n.index()] = Some(new_id);
        if n == proc.start {
            out.start = new_id;
        }
    }

    // Shared synthesized return for arcs whose every continuation was
    // eliminated (divergences through deleted cycles are not preserved).
    let mut divergence_sink: Option<NodeId> = None;

    let mut report = ProcReport {
        name: proc.name.clone(),
        nodes_before: proc.nodes.len(),
        nodes_kept: map.iter().flatten().count(),
        toss_nodes_inserted: 0,
        params_removed: removed_params.len(),
        divergent_arcs: 0,
        toss_sites: Vec::new(),
    };

    // --- Step 4: rewire arcs through eliminated regions. ---------------
    for n in proc.node_ids() {
        if !marked[n.index()] {
            continue;
        }
        let new_n = map[n.index()].expect("marked nodes are mapped");
        for (ai, arc) in proc.arcs(n).iter().enumerate() {
            let succs = succ_set(proc, &marked, *arc);
            match succs.len() {
                0 => {
                    report.divergent_arcs += 1;
                    let sink = *divergence_sink.get_or_insert_with(|| {
                        out.push_node(NodeKind::Return { value: None }, Span::dummy())
                    });
                    out.add_arc(new_n, arc.guard, sink);
                }
                1 => {
                    let t = succs.first().expect("len checked");
                    out.add_arc(new_n, arc.guard, map[t.index()].expect("marked"));
                }
                k => {
                    // A fresh conditional on VS_toss(k - 1).
                    let toss = out.push_node(
                        NodeKind::TossCond {
                            bound: (k - 1) as u32,
                        },
                        proc.node(n).span,
                    );
                    report.toss_nodes_inserted += 1;
                    report.toss_sites.push(TossSite {
                        closed_node: toss,
                        orig_node: n,
                        orig_arc: ai,
                        targets: succs.clone(),
                    });
                    out.add_arc(new_n, arc.guard, toss);
                    for (i, t) in succs.iter().enumerate() {
                        out.add_arc(
                            toss,
                            Guard::TossEq(i as u32),
                            map[t.index()].expect("marked"),
                        );
                    }
                }
            }
        }
    }

    // Sanity: the analog of the paper's Lemma 5 — no node of the result
    // may still read an environment-dependent value.
    debug_assert!(
        lemma5_holds(&out, proc, &marked, pt),
        "V_I(n') != 0 in output"
    );
    let _ = (prog, pt);
    (out, report)
}

/// `succ(a)`: marked nodes reachable from `a` through unmarked nodes only,
/// ordered by original node id (deterministic).
fn succ_set(proc: &CfgProc, marked: &[bool], arc: Arc) -> Vec<NodeId> {
    let mut found = BTreeSet::new();
    let mut visited = vec![false; proc.nodes.len()];
    let mut stack = vec![arc.target];
    while let Some(t) = stack.pop() {
        if marked[t.index()] {
            found.insert(t);
            continue;
        }
        if visited[t.index()] {
            continue;
        }
        visited[t.index()] = true;
        for a in proc.arcs(t) {
            stack.push(a.target);
        }
    }
    found.into_iter().collect()
}

/// Step 5 rewrites for a marked node.
fn rewrite_kind(kind: &NodeKind, proc: &CfgProc, n: NodeId, taint: &Taint) -> NodeKind {
    let v_i = taint.proc(proc.id).v_i(n);
    let tainted_var = |v: &VarId| v_i.contains(v);
    match kind {
        NodeKind::Call { callee, args, dst } => {
            let removed = &taint.tainted_params[callee.index()];
            let args: Vec<VarId> = args
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, a)| *a)
                .collect();
            let dst = if taint.ret_tainted[callee.index()] {
                None
            } else {
                *dst
            };
            NodeKind::Call {
                callee: *callee,
                args,
                dst,
            }
        }
        NodeKind::Spawn { callee, args } => {
            // Environment-defined parameters are removed from the spawned
            // procedure's signature, so drop the matching arguments.
            let removed = &taint.tainted_params[callee.index()];
            let args: Vec<VarId> = args
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, a)| *a)
                .collect();
            NodeKind::Spawn {
                callee: *callee,
                args,
            }
        }
        NodeKind::Visible { op, dst } => {
            let op = match op {
                VisOp::Send { chan, val } => VisOp::Send {
                    chan: *chan,
                    val: val.filter(|o| o.as_var().map(|v| !tainted_var(&v)).unwrap_or(true)),
                },
                VisOp::ShWrite { var, val } => VisOp::ShWrite {
                    var: *var,
                    val: val.filter(|o| o.as_var().map(|v| !tainted_var(&v)).unwrap_or(true)),
                },
                VisOp::Assert { cond } => VisOp::Assert {
                    cond: cond.filter(|o| o.as_var().map(|v| !tainted_var(&v)).unwrap_or(true)),
                },
                other => other.clone(),
            };
            // Values read from tainted objects are environment-defined:
            // drop the destination.
            let dst = match &op {
                VisOp::Recv { chan } if taint.tainted_objects.contains(chan) => None,
                VisOp::ShRead(var) if taint.tainted_objects.contains(var) => None,
                VisOp::ChanLen(chan) if taint.tainted_objects.contains(chan) => None,
                _ => *dst,
            };
            NodeKind::Visible { op, dst }
        }
        NodeKind::Return { value } => {
            // A tainted return value is never consumed (all call dsts were
            // dropped); erase it.
            let tainted = value
                .as_ref()
                .map(|e| e.vars().iter().any(tainted_var))
                .unwrap_or(false);
            NodeKind::Return {
                value: if tainted { None } else { value.clone() },
            }
        }
        other => other.clone(),
    }
}

/// Debug check (Lemma 5): every kept node's used variables are untainted
/// and every kept node is outside `N_I`.
fn lemma5_holds(out: &CfgProc, orig: &CfgProc, marked: &[bool], pt: &dataflow::ProcTaint) -> bool {
    let _ = out;
    for n in orig.node_ids() {
        if !marked[n.index()] {
            continue;
        }
        match &orig.node(n).kind {
            // Calls, spawns, and visible ops may have had tainted
            // operands — those were erased by rewrite_kind.
            NodeKind::Call { .. }
            | NodeKind::Spawn { .. }
            | NodeKind::Visible { .. }
            | NodeKind::Return { .. } => {}
            kind => {
                if pt.in_n_i(n) {
                    return false;
                }
                if kind.uses().iter().any(|v| pt.v_i(n).contains(v)) {
                    return false;
                }
            }
        }
    }
    true
}
