//! Node and arc coverage of an exploration.
//!
//! Records, per procedure, which CFG nodes the interpreter actually
//! executed — and, for guarded branch nodes, which out-arcs it actually
//! took. Useful for three things:
//!
//! - **exploration quality** — how much of the program a bounded search
//!   reached;
//! - **transformation quality** — a node of a closed program that no
//!   exhaustive exploration can reach is dead weight the closing
//!   transformation could have removed (the tests use this to confirm
//!   the paper's examples close with no dead code);
//! - **refinement evidence** — an out-arc of a branch that a *complete*
//!   exploration of the open program never takes is an infeasible
//!   behavior; [`closer`'s] counterexample refinement uses exactly this
//!   to prune the matching `VS_toss` outcomes of the closed program.
//!
//! [`closer`'s]: crate::Executor::replay

use cfgir::{CfgProgram, NodeId, ProcId};

/// Per-procedure sets of executed nodes and taken arcs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    visited: Vec<Vec<bool>>,
    /// `arcs[proc][node][i]`: out-arc `i` of the node was taken. Only
    /// guard-dispatched nodes (`Cond`/`Switch`/`TossCond`) are recorded;
    /// single-`Always`-arc fallthroughs are skipped on the hot path.
    arcs: Vec<Vec<Vec<bool>>>,
}

impl Coverage {
    /// Empty coverage for `prog`.
    pub fn new(prog: &CfgProgram) -> Self {
        Coverage {
            visited: prog
                .procs
                .iter()
                .map(|p| vec![false; p.nodes.len()])
                .collect(),
            arcs: prog
                .procs
                .iter()
                .map(|p| p.node_ids().map(|n| vec![false; p.arcs(n).len()]).collect())
                .collect(),
        }
    }

    /// Record execution of `node` in `proc`.
    pub fn visit(&mut self, proc: ProcId, node: NodeId) {
        self.visited[proc.index()][node.index()] = true;
    }

    /// Record traversal of out-arc `arc` (by position) of `node`.
    pub fn visit_arc(&mut self, proc: ProcId, node: NodeId, arc: usize) {
        self.arcs[proc.index()][node.index()][arc] = true;
    }

    /// True when out-arc `arc` of `node` was taken at least once.
    pub fn arc_covered(&self, proc: ProcId, node: NodeId, arc: usize) -> bool {
        self.arcs[proc.index()][node.index()][arc]
    }

    /// True when the node was executed at least once.
    pub fn covered(&self, proc: ProcId, node: NodeId) -> bool {
        self.visited[proc.index()][node.index()]
    }

    /// Executed-node count for one procedure.
    pub fn covered_count(&self, proc: ProcId) -> usize {
        self.visited[proc.index()].iter().filter(|b| **b).count()
    }

    /// `(covered, total)` over all procedures.
    pub fn totals(&self) -> (usize, usize) {
        let covered = self
            .visited
            .iter()
            .map(|v| v.iter().filter(|b| **b).count())
            .sum();
        let total = self.visited.iter().map(|v| v.len()).sum();
        (covered, total)
    }

    /// Nodes of `proc` never executed.
    pub fn uncovered(&self, proc: ProcId) -> Vec<NodeId> {
        self.visited[proc.index()]
            .iter()
            .enumerate()
            .filter(|(_, b)| !**b)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Merge another coverage map (same program) into this one.
    pub fn merge(&mut self, other: &Coverage) {
        for (a, b) in self.visited.iter_mut().zip(other.visited.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x |= *y;
            }
        }
        for (a, b) in self.arcs.iter_mut().zip(other.arcs.iter()) {
            for (na, nb) in a.iter_mut().zip(b.iter()) {
                for (x, y) in na.iter_mut().zip(nb.iter()) {
                    *x |= *y;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{execute_transition_with, EnvMode, TransitionResult};
    use crate::state::GlobalState;
    use cfgir::compile;

    #[test]
    fn straight_line_covers_everything_executed() {
        let prog = compile("chan c[1]; proc m() { int a = 1; send(c, a); } process m();").unwrap();
        let mut cov = Coverage::new(&prog);
        let mut s = GlobalState::initial(&prog);
        // Init transition + send transition.
        for _ in 0..2 {
            let r = execute_transition_with(&prog, &mut s, 0, &[], EnvMode::Closed, Some(&mut cov));
            assert!(matches!(r, TransitionResult::Completed { .. }));
        }
        let m = prog.proc_by_name("m").unwrap();
        let (covered, total) = cov.totals();
        assert_eq!(covered, total, "uncovered: {:?}", cov.uncovered(m.id));
    }

    #[test]
    fn untaken_branch_stays_uncovered() {
        let prog = compile(
            "chan c[1]; proc m() { int a = 1; if (a > 0) send(c, 1); else send(c, 2); } process m();",
        )
        .unwrap();
        let mut cov = Coverage::new(&prog);
        let mut s = GlobalState::initial(&prog);
        for _ in 0..2 {
            execute_transition_with(&prog, &mut s, 0, &[], EnvMode::Closed, Some(&mut cov));
        }
        let m = prog.proc_by_name("m").unwrap();
        assert_eq!(cov.uncovered(m.id).len(), 1, "the else-send never ran");
        let (covered, total) = cov.totals();
        assert_eq!(covered + 1, total);
    }

    #[test]
    fn merge_unions() {
        let prog = compile("proc m() { int a = 1; } process m();").unwrap();
        let m = prog.proc_by_name("m").unwrap();
        let mut a = Coverage::new(&prog);
        let mut b = Coverage::new(&prog);
        a.visit(m.id, cfgir::NodeId(0));
        b.visit(m.id, cfgir::NodeId(1));
        a.merge(&b);
        assert!(a.covered(m.id, cfgir::NodeId(0)));
        assert!(a.covered(m.id, cfgir::NodeId(1)));
        assert_eq!(a.covered_count(m.id), 2);
    }
}
