//! Environment-taint analysis — Step 2 of the paper's Figure 1, extended
//! interprocedurally and made flow-sensitive.
//!
//! For every node `n` of every procedure the analysis computes:
//!
//! - membership in `N_I` — the nodes reachable from `N_ES` (nodes using an
//!   environment-defined value) by define-use arcs, and
//! - `V_I(n)` — the used variables that are environment-defined at `n`, or
//!   label a define-use arc from an `N_I` node (Lemma 1's
//!   over-approximation of functional dependence on the environment).
//!
//! Environment-defined values enter through:
//!
//! - `process p(x)` spawn arguments naming an `input` (tainted parameters);
//! - `env_input(x)` reads;
//! - `recv` on an external channel, or on any channel some `send` may have
//!   given an environment-dependent payload (taint flows through
//!   communication objects — values "passed through the object" never
//!   affect enabledness, but they do flow to the receiver);
//! - `sh_read` of a shared variable some `sh_write` may have tainted;
//! - calls to procedures whose return value may be environment-dependent;
//! - loads through pointers whose target location may hold an
//!   environment-dependent value *at that program point*.
//!
//! Memory-carried taint is tracked **flow-sensitively**: a per-procedure
//! forward instance of the [`framework`](crate::framework) solver
//! ([`MemTaint`](self) below) computes, at every node, the set of
//! locations that may hold an environment-dependent value on entry —
//! with strong kills at untainted direct assignments — using the
//! flow-sensitive pointer facts of [`flowpts`](crate::flowpts). Two
//! per-procedure summaries replace the old whole-program
//! flow-insensitive `tainted_locs` consultations:
//!
//! - [`Taint::entry_mem`] — the locations that may already be tainted
//!   when the procedure is entered (the join of the callers' memory
//!   facts at its call sites; process roots start with pristine
//!   per-process globals, and spawned procedures cannot receive
//!   pointers, so both start empty);
//! - [`Taint::store_effect`] — the locations a call to the procedure may
//!   taint, transitively through its callees.
//!
//! The paper's §5 "Interprocedural issues" allows either a manual
//! specification or "an interprocedural analysis on top of our
//! intraprocedural analysis" — this module is that analysis: a whole-program
//! Jacobi fixpoint over per-procedure summaries (tainted parameters,
//! tainted returns, tainted objects, entry/effect memory summaries).

use crate::bitset::BitSet;
use crate::defuse::DefUse;
use crate::flowpts::{self, ProcFlowPts};
use crate::framework::{self, SolveStats};
use crate::loc::{loc_of, Loc, LocTable};
use crate::par::par_map;
use cfgir::{
    CfgProc, CfgProgram, NodeId, NodeKind, ObjId, Place, ProcId, Rvalue, SpawnArg, VarId, VarKind,
    VisOp,
};
use minic::sema::ObjectKind;
use std::collections::BTreeSet;

/// Per-procedure taint facts.
#[derive(Debug, Clone)]
pub struct ProcTaint {
    /// Nodes in `N_I` (use an environment-dependent value, directly or
    /// transitively).
    pub n_i: BitSet,
    /// Per node: `V_I(n)` — the environment-dependent used variables.
    pub v_i: Vec<BTreeSet<VarId>>,
    /// Nodes that read environment-dependent values *through memory*
    /// (loads whose pointee location is tainted at that point); such
    /// nodes are in `N_I` even when `V_I` over named variables is empty.
    pub reads_env_mem: BitSet,
}

impl ProcTaint {
    /// True when node `n` is in `N_I`.
    pub fn in_n_i(&self, n: NodeId) -> bool {
        self.n_i.contains(n.index())
    }

    /// `V_I(n)`.
    pub fn v_i(&self, n: NodeId) -> &BTreeSet<VarId> {
        &self.v_i[n.index()]
    }
}

/// Whole-program taint results.
#[derive(Debug, Clone)]
pub struct Taint {
    /// Per procedure (indexed by [`ProcId`]): node-level facts.
    pub per_proc: Vec<ProcTaint>,
    /// Per procedure: indices of parameters that may receive
    /// environment-dependent values at some call or spawn site. Step 5 of
    /// the algorithm removes exactly these.
    pub tainted_params: Vec<BTreeSet<usize>>,
    /// Per procedure: whether its return value may be
    /// environment-dependent.
    pub ret_tainted: Vec<bool>,
    /// Channels and shared variables whose payloads may be
    /// environment-dependent (external channels always are).
    pub tainted_objects: BTreeSet<ObjId>,
    /// Per procedure: locations that may hold environment-dependent
    /// values when the procedure is entered (join over call sites).
    pub entry_mem: Vec<BTreeSet<Loc>>,
    /// Per procedure: locations a call to it may taint, transitively.
    pub store_effect: Vec<BTreeSet<Loc>>,
    /// Locations that may hold environment-dependent values at some point
    /// (the flow-insensitive union of every procedure's memory effects;
    /// kept for reporting — the analysis itself consults the
    /// flow-sensitive facts).
    pub tainted_locs: BTreeSet<Loc>,
    /// Aggregated worklist counters over every intraprocedural solve in
    /// every interprocedural round.
    pub stats: SolveStats,
}

impl Taint {
    /// Facts for one procedure.
    pub fn proc(&self, p: ProcId) -> &ProcTaint {
        &self.per_proc[p.index()]
    }

    /// True when nothing in the program depends on the environment.
    pub fn is_clean(&self) -> bool {
        self.per_proc.iter().all(|pt| pt.n_i.is_empty())
            && self.tainted_params.iter().all(|s| s.is_empty())
            && self.tainted_objects.is_empty()
    }
}

/// Run the analysis. `defuse` must be indexed by [`ProcId`].
pub fn analyze(prog: &CfgProgram, defuse: &[DefUse], pts: &crate::pointsto::PointsTo) -> Taint {
    analyze_jobs(prog, defuse, pts, 1)
}

/// Run the analysis with the intraprocedural sweeps of each round spread
/// over up to `jobs` worker threads.
///
/// The interprocedural fixpoint is a Jacobi iteration: every round runs
/// all procedures against the *same* frozen summary state, then absorbs
/// their contributions in procedure order. Each round is therefore a pure
/// function of the previous state, the result is byte-identical for any
/// `jobs`, and the least fixpoint is the same one the sequential
/// Gauss-Seidel schedule reaches (everything grows monotonically).
/// `defuse` must be indexed by [`ProcId`].
pub fn analyze_jobs(
    prog: &CfgProgram,
    defuse: &[DefUse],
    pts: &crate::pointsto::PointsTo,
    jobs: usize,
) -> Taint {
    let nprocs = prog.procs.len();
    let mut st = State {
        tainted_params: vec![BTreeSet::new(); nprocs],
        ret_tainted: vec![false; nprocs],
        tainted_objects: BTreeSet::new(),
        entry_mem: vec![BTreeSet::new(); nprocs],
        store_effect: vec![BTreeSet::new(); nprocs],
        tainted_locs: BTreeSet::new(),
    };

    // Seeds: external channels and environment-supplied spawn arguments.
    for (oi, o) in prog.objects.iter().enumerate() {
        if o.kind == ObjectKind::ExternChan {
            st.tainted_objects.insert(ObjId(oi as u32));
        }
    }
    for ps in &prog.processes {
        for (i, a) in ps.args.iter().enumerate() {
            if matches!(a, SpawnArg::Input(_)) {
                st.tainted_params[ps.proc.index()].insert(i);
            }
        }
    }

    // Flow-sensitive pointer facts are taint-independent: solve them once
    // per procedure, outside the summary fixpoint.
    let mut stats = SolveStats::default();
    let fps: Vec<ProcFlowPts> = par_map(jobs, &prog.procs, |_, p| flowpts::analyze(p, pts));
    for fp in &fps {
        stats.absorb(fp.stats);
    }

    // Global fixpoint: rerun the intraprocedural pass until summaries
    // stabilize. Everything grows monotonically, so this terminates.
    let mut per_proc;
    loop {
        let round = par_map(jobs, &prog.procs, |i, proc| {
            intraproc(proc, &defuse[i], &fps[i], pts, &st)
        });
        let mut changed = false;
        per_proc = Vec::with_capacity(nprocs);
        for (pt, contrib, s) in round {
            stats.absorb(s);
            changed |= st.absorb(contrib);
            per_proc.push(pt);
        }
        if !changed {
            break;
        }
    }

    Taint {
        per_proc,
        tainted_params: st.tainted_params,
        ret_tainted: st.ret_tainted,
        tainted_objects: st.tainted_objects,
        entry_mem: st.entry_mem,
        store_effect: st.store_effect,
        tainted_locs: st.tainted_locs,
        stats,
    }
}

struct State {
    tainted_params: Vec<BTreeSet<usize>>,
    ret_tainted: Vec<bool>,
    tainted_objects: BTreeSet<ObjId>,
    entry_mem: Vec<BTreeSet<Loc>>,
    store_effect: Vec<BTreeSet<Loc>>,
    tainted_locs: BTreeSet<Loc>,
}

impl State {
    fn absorb(&mut self, c: Contrib) -> bool {
        let mut changed = false;
        for (p, i) in c.tainted_params {
            changed |= self.tainted_params[p.index()].insert(i);
        }
        for p in c.ret_tainted {
            if !self.ret_tainted[p.index()] {
                self.ret_tainted[p.index()] = true;
                changed = true;
            }
        }
        for o in c.tainted_objects {
            changed |= self.tainted_objects.insert(o);
        }
        for (p, l) in c.entry_mem {
            changed |= self.entry_mem[p.index()].insert(l);
        }
        for (p, l) in c.store_effect {
            changed |= self.store_effect[p.index()].insert(l);
        }
        for l in c.tainted_locs {
            changed |= self.tainted_locs.insert(l);
        }
        changed
    }
}

#[derive(Default)]
struct Contrib {
    tainted_params: Vec<(ProcId, usize)>,
    ret_tainted: Vec<ProcId>,
    tainted_objects: Vec<ObjId>,
    entry_mem: Vec<(ProcId, Loc)>,
    store_effect: Vec<(ProcId, Loc)>,
    tainted_locs: Vec<Loc>,
}

/// The define-use taint closure over *definition* indices: an environment
/// definition flows to every definition made by an assignment-class node
/// that uses it (calls and visible ops are governed by summaries and
/// object taint instead). Fact = "is environment-defined".
struct EnvDef<'a> {
    seeds: &'a BitSet,
}
impl framework::Analysis for EnvDef<'_> {
    type Fact = bool;
    fn init(&self, node: usize) -> bool {
        self.seeds.contains(node)
    }
    fn transfer(&self, _node: usize, fact: &bool) -> bool {
        *fact
    }
    fn join(&self, into: &mut bool, from: &bool) -> bool {
        if *from && !*into {
            *into = true;
            true
        } else {
            false
        }
    }
}

/// The flow-sensitive memory-taint instance: the fact at a node is the
/// set of locations (dense [`LocTable`] indices) that may hold an
/// environment-dependent value on entry to the node.
struct MemTaint<'a> {
    proc: &'a CfgProc,
    fp: &'a ProcFlowPts,
    env_defs: &'a BitSet,
    n_i: &'a BitSet,
    du: &'a DefUse,
    st: &'a State,
    table: &'a LocTable,
    entry: BitSet,
    nlocs: usize,
}

impl MemTaint<'_> {
    fn loc_bit(&self, v: VarId) -> usize {
        self.table.idx(loc_of(self.proc, v))
    }
}

impl framework::Analysis for MemTaint<'_> {
    type Fact = BitSet;

    fn init(&self, node: usize) -> BitSet {
        if node == self.proc.start.index() {
            self.entry.clone()
        } else {
            BitSet::new(self.nlocs)
        }
    }

    fn transfer(&self, node: usize, fact: &BitSet) -> BitSet {
        let nid = NodeId(node as u32);
        let mut out = fact.clone();
        match &self.proc.node(nid).kind {
            NodeKind::Assign {
                dst: Place::Var(d), ..
            } => {
                // Direct assignments are strong: an untainted definition
                // cleanses the slot, a tainted one poisons it.
                let tainted = self.du.rd.defs_of_node[node]
                    .iter()
                    .any(|d| self.env_defs.contains(*d));
                let bit = self.loc_bit(*d);
                if tainted {
                    out.insert(bit);
                } else {
                    out.remove(bit);
                }
            }
            // A store of (or to) an environment-dependent value
            // through a pointer taints the may-targets; untainted
            // stores cannot kill (the target set is a may-set).
            NodeKind::Assign {
                dst: Place::Deref(p),
                ..
            } if self.n_i.contains(node) => {
                out.union_with(self.fp.targets(nid, *p));
            }
            NodeKind::Call { callee, dst, .. } => {
                for l in &self.st.store_effect[callee.index()] {
                    out.insert(self.table.idx(*l));
                }
                if let Some(d) = dst {
                    let bit = self.loc_bit(*d);
                    if self.st.ret_tainted[callee.index()] {
                        out.insert(bit);
                    } else {
                        // The destination is written after the callee's
                        // side effects: a clean return strongly kills.
                        out.remove(bit);
                    }
                }
            }
            NodeKind::Visible { op, dst: Some(d) } => {
                let obj_tainted = match op {
                    VisOp::Recv { chan } => Some(self.st.tainted_objects.contains(chan)),
                    VisOp::ShRead(var) => Some(self.st.tainted_objects.contains(var)),
                    VisOp::ChanLen(chan) => Some(self.st.tainted_objects.contains(chan)),
                    _ => None,
                };
                if let Some(t) = obj_tainted {
                    let bit = self.loc_bit(*d);
                    if t {
                        out.insert(bit);
                    } else {
                        out.remove(bit);
                    }
                }
            }
            // Spawned processes get fresh per-process globals and cannot
            // receive pointers: no effect on this process's memory.
            _ => {}
        }
        out
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }
}

/// One intraprocedural pass under the current interprocedural assumptions.
fn intraproc(
    proc: &CfgProc,
    du: &DefUse,
    fp: &ProcFlowPts,
    pts: &crate::pointsto::PointsTo,
    st: &State,
) -> (ProcTaint, Contrib, SolveStats) {
    let table = pts.loc_table();
    let nlocs = table.len();
    let nnodes = proc.nodes.len();
    let ndefs = du.rd.defs.len();
    let mut stats = SolveStats::default();

    // --- Base environment definitions (memory-independent) -------------
    let mut base_seeds = BitSet::new(ndefs);
    // Entry pseudo-definitions of tainted parameters and of globals
    // tainted on entry (per the callers' flow-sensitive facts).
    for &d in &du.rd.entry_defs {
        let var = du.rd.defs[d].var;
        let env = match proc.var(var).kind {
            VarKind::Param(i) => st.tainted_params[proc.id.index()].contains(&i),
            VarKind::Global(_) => st.entry_mem[proc.id.index()].contains(&loc_of(proc, var)),
            _ => false,
        };
        if env {
            base_seeds.insert(d);
        }
    }
    // Node-level environment definitions.
    for nid in proc.node_ids() {
        let node_env_defines: bool = match &proc.node(nid).kind {
            NodeKind::Assign {
                src: Rvalue::EnvInput(_),
                ..
            } => true,
            NodeKind::Visible {
                op: VisOp::Recv { chan },
                dst: Some(_),
            } => st.tainted_objects.contains(chan),
            NodeKind::Visible {
                op: VisOp::ShRead(var),
                dst: Some(_),
            } => st.tainted_objects.contains(var),
            // Queue lengths on tainted channels are conservatively treated
            // as environment-dependent (the environment may influence how
            // many payloads are in flight).
            NodeKind::Visible {
                op: VisOp::ChanLen(chan),
                dst: Some(_),
            } => st.tainted_objects.contains(chan),
            NodeKind::Call { callee, dst, .. } => {
                // The returned value may be environment-dependent, and the
                // callee's side effects may taint weakly-defined variables
                // (exactly the locations in its store-effect summary).
                let ret = dst.is_some() && st.ret_tainted[callee.index()];
                for &d in &du.rd.defs_of_node[nid.index()] {
                    let ds = du.rd.defs[d];
                    let is_dst = Some(ds.var) == *dst;
                    if (is_dst && ret)
                        || (!is_dst
                            && st.store_effect[callee.index()].contains(&loc_of(proc, ds.var)))
                    {
                        base_seeds.insert(d);
                    }
                }
                false // handled per-def above
            }
            _ => false,
        };
        if node_env_defines {
            for &d in &du.rd.defs_of_node[nid.index()] {
                base_seeds.insert(d);
            }
        }
    }

    // Define-use arcs between definitions, for the closure.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); ndefs];
    for (d, uses) in du.uses_of_def.iter().enumerate() {
        for &(use_node, _var) in uses {
            if matches!(proc.node(use_node).kind, NodeKind::Assign { .. }) {
                edges[d].extend(du.rd.defs_of_node[use_node.index()].iter().copied());
            }
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }

    let cfg_edges: Vec<Vec<usize>> = proc
        .node_ids()
        .map(|n| proc.arcs(n).iter().map(|a| a.target.index()).collect())
        .collect();
    let mut entry = BitSet::new(nlocs);
    for l in &st.entry_mem[proc.id.index()] {
        entry.insert(table.idx(*l));
    }
    // A tainted parameter's slot holds an environment value from the
    // first instruction on (visible to loads through its address).
    for &i in &st.tainted_params[proc.id.index()] {
        if let Some(pv) = proc.params.get(i) {
            entry.insert(table.idx(loc_of(proc, *pv)));
        }
    }

    // --- Inner fixpoint: define-use closure ⇄ memory taint -------------
    // Loads seed the closure only when their pointee is tainted *at the
    // load*, which the memory-taint facts decide — and those in turn
    // depend on which definitions are environment-dependent. Both sides
    // only ever grow, so alternate to a (small) fixpoint.
    let mut load_env = BitSet::new(nnodes);
    let (env_defs, n_i, v_i, mem) = loop {
        let mut seeds = base_seeds.clone();
        for n in load_env.iter() {
            for &d in &du.rd.defs_of_node[n] {
                seeds.insert(d);
            }
        }
        let sol = framework::solve(&EnvDef { seeds: &seeds }, &edges, seeds.iter());
        stats.absorb(sol.stats);
        let mut env_defs = BitSet::new(ndefs);
        for (d, env) in sol.facts.iter().enumerate() {
            if *env {
                env_defs.insert(d);
            }
        }

        // Mark N_I and V_I from the closed environment definitions.
        let mut n_i = BitSet::new(nnodes);
        let mut v_i: Vec<BTreeSet<VarId>> = vec![BTreeSet::new(); nnodes];
        for d in env_defs.iter() {
            for &(use_node, var) in &du.uses_of_def[d] {
                v_i[use_node.index()].insert(var);
                n_i.insert(use_node.index());
            }
        }
        n_i.union_with(&load_env);

        let mt = MemTaint {
            proc,
            fp,
            env_defs: &env_defs,
            n_i: &n_i,
            du,
            st,
            table,
            entry: entry.clone(),
            nlocs,
        };
        let msol = framework::solve(&mt, &cfg_edges, 0..nnodes);
        stats.absorb(msol.stats);

        let mut next_load_env = BitSet::new(nnodes);
        for nid in proc.node_ids() {
            if let NodeKind::Assign {
                src: Rvalue::Load(p),
                ..
            } = &proc.node(nid).kind
            {
                let targets = fp.targets(nid, *p);
                if targets.iter().any(|l| msol.facts[nid.index()].contains(l)) {
                    next_load_env.insert(nid.index());
                }
            }
        }
        if next_load_env == load_env {
            break (env_defs, n_i, v_i, msol.facts);
        }
        load_env = next_load_env;
    };
    let reads_env_mem = load_env;

    // --- Collect interprocedural contributions -------------------------
    let mut contrib = Contrib::default();
    for nid in proc.node_ids() {
        match &proc.node(nid).kind {
            NodeKind::Call { callee, args, .. } => {
                for (i, a) in args.iter().enumerate() {
                    if v_i[nid.index()].contains(a) {
                        contrib.tainted_params.push((*callee, i));
                    }
                    // A pointer argument whose pointees are tainted exposes
                    // the taint to the callee via the entry-memory summary
                    // below — nothing to add here.
                }
                // The callee inherits this point's memory facts.
                for l in mem[nid.index()].iter() {
                    contrib.entry_mem.push((*callee, table.loc(l)));
                }
                // The callee's transitive effects are ours too.
                for l in &st.store_effect[callee.index()] {
                    contrib.store_effect.push((proc.id, *l));
                }
            }
            NodeKind::Spawn { callee, args } => {
                // Spawn arguments bind the callee's parameters exactly like
                // call arguments do; memory does not flow (the child gets
                // fresh per-process globals and cannot receive pointers).
                for (i, a) in args.iter().enumerate() {
                    if v_i[nid.index()].contains(a) {
                        contrib.tainted_params.push((*callee, i));
                    }
                }
            }
            NodeKind::Return { value: Some(e) }
                if e.vars().iter().any(|v| v_i[nid.index()].contains(v)) =>
            {
                contrib.ret_tainted.push(proc.id);
            }
            NodeKind::Visible {
                op: VisOp::Send { chan, val },
                ..
            } => {
                if let Some(v) = val.and_then(|o| o.as_var()) {
                    if v_i[nid.index()].contains(&v) {
                        contrib.tainted_objects.push(*chan);
                    }
                }
            }
            NodeKind::Visible {
                op: VisOp::ShWrite { var, val },
                ..
            } => {
                if let Some(v) = val.and_then(|o| o.as_var()) {
                    if v_i[nid.index()].contains(&v) {
                        contrib.tainted_objects.push(*var);
                    }
                }
            }
            _ => {}
        }
    }
    // Every environment definition taints its location; callers see the
    // subset that outlives the activation (globals and pointer-reachable
    // slots of other frames) through the store-effect summary.
    for d in env_defs.iter() {
        let var = du.rd.defs[d].var;
        let l = loc_of(proc, var);
        contrib.tainted_locs.push(l);
        // Only definitions the procedure itself makes, of storage a
        // caller can observe (per-process globals; locals never escape
        // upward), enter the store-effect summary.
        if du.rd.defs[d].node.is_some() && matches!(l, Loc::Global(_)) {
            contrib.store_effect.push((proc.id, l));
        }
    }
    // A store through a pointer at an N_I node taints the pointees.
    for nid in proc.node_ids() {
        if !n_i.contains(nid.index()) {
            continue;
        }
        if let NodeKind::Assign {
            dst: Place::Deref(p),
            ..
        } = &proc.node(nid).kind
        {
            for l in fp.targets(nid, *p).iter() {
                let l = table.loc(l);
                contrib.tainted_locs.push(l);
                contrib.store_effect.push((proc.id, l));
            }
        }
    }

    (
        ProcTaint {
            n_i,
            v_i,
            reads_env_mem,
        },
        contrib,
        stats,
    )
}
