//! Counterexample-guided toss refinement.
//!
//! The closing transformation (Steps 3–5, [`crate::transform`]) replaces
//! every environment-dependent branch with a `VS_toss` over the possible
//! continuations. That over-approximation is sound — every real behavior
//! of the open program survives — but not tight: a toss outcome whose
//! branch the environment can never actually drive the program into is
//! pure state-space waste, and any violation found down such an outcome
//! is *spurious* (it has no counterpart in the open program's real
//! semantics).
//!
//! The pass has one semantics of the open program `S` under its most
//! general environment `E_S`: [`EnvMode::Enumerate`], which branches over
//! every value of an input's declared domain at the read itself — the
//! semantics `reclose explore --enumerate` runs. It closes the loop:
//!
//! 1. **Explore** the closed program `S'` and collect its violating
//!    traces and verdict set.
//! 2. **Classify** each violating trace as *real* or *spurious*: a
//!    directed search follows the trace's process schedule through
//!    `S × E_S`, branching over every toss and environment choice, and
//!    any witness found is confirmed with
//!    [`verisoft::Executor::replay`]. A search that runs out of budget,
//!    or meets an input too wide to enumerate, answers *unknown*.
//! 3. **Refine**: a *complete* (untruncated, reduction-free)
//!    exploration of `S × E_S` yields arc coverage of the open graphs.
//!    For each toss site recorded by Step 4 (provenance in
//!    [`TossSite`]), an outcome is *feasible* only if its resume node is
//!    reachable from the rewired arc inside the covered subgraph.
//!    Infeasible outcomes are pruned — a toss left with a single
//!    outcome is bypassed entirely — and the loop iterates to a
//!    budgeted fixpoint.
//!
//! Soundness: the coverage exploration is complete, so every node and
//! arc any real execution traverses is covered; a toss outcome whose
//! resume node is unreachable through the covered subgraph therefore
//! abstracts no real behavior, and removing it removes no real behavior
//! from `S'`. An exploration that is truncated, or that an input too
//! wide to enumerate cut short, is not complete, and the pass then
//! prunes nothing; unreachable sites are left alone. Both only lose
//! precision, never soundness.
//!
//! Verdict preservation holds *by construction*: every candidate prune
//! is re-explored and accepted only if the verdict set (the set of
//! violation kinds) is identical to the unrefined baseline; otherwise it
//! is rejected and the previous program kept ([`CexReport::reverted`]).

use crate::transform::{Closed, TossSite};
use cfgir::{CfgProc, CfgProgram, Guard, NodeId, NodeKind};
use std::collections::{BTreeMap, BTreeSet};
use verisoft::{
    enabled, explore, Config, Coverage, Decision, Engine, EnvMode, ExecCtx, Executor, GlobalState,
    Report, RtError, Scheduled, SuccOutcome, Violation, ViolationKind,
};

/// Maximum refine iterations (each costs one verdict-guard exploration,
/// plus one per singleton retried after a rejected batch).
const MAX_ITERS: usize = 4;

/// Transition budget for one trace classification search.
const CLASSIFY_BUDGET: usize = 200_000;

/// Classify at most this many violating traces.
const MAX_CLASSIFIED: usize = 64;

/// Exploration bounds for the refinement loop.
#[derive(Debug, Clone)]
pub struct CexOptions {
    /// Depth bound for every exploration the pass runs.
    pub max_depth: usize,
    /// Transition budget for every exploration the pass runs.
    pub max_transitions: usize,
}

impl Default for CexOptions {
    fn default() -> Self {
        CexOptions {
            max_depth: 300,
            max_transitions: 2_000_000,
        }
    }
}

/// What the refinement loop did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CexReport {
    /// Refine iterations that produced a candidate prune.
    pub iterations: usize,
    /// Violating traces classified.
    pub classified: usize,
    /// Traces with a confirmed open-program counterpart.
    pub real: usize,
    /// Traces with no counterpart within the search budget.
    pub spurious: usize,
    /// Traces whose classification ran out of budget.
    pub unknown: usize,
    /// Toss outcomes removed.
    pub outcomes_pruned: usize,
    /// Toss nodes bypassed entirely (single feasible outcome).
    pub sites_bypassed: usize,
    /// The open-program coverage exploration completed (no pruning
    /// happens otherwise).
    pub open_exploration_complete: bool,
    /// At least one candidate prune was rejected by the verdict guard.
    pub reverted: bool,
    /// Explored states of the closed program before refinement.
    pub states_before: usize,
    /// Explored states after refinement (equals `states_before` when
    /// nothing was pruned).
    pub states_after: usize,
}

/// How a violating trace of `S'` relates to the open program `S`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// A matching real execution of `S` was found and replayed.
    Real,
    /// No matching execution exists along the trace's schedule.
    Spurious,
    /// The classification search ran out of budget.
    Unknown,
}

/// Refine the closed program `closed` against its open original,
/// returning the refined program and a report. The returned program has
/// a verdict set identical to `closed.program`'s (guaranteed by the
/// verdict guard), never more states, and validates.
pub fn refine_cex(
    open: &CfgProgram,
    closed: &Closed,
    opts: &CexOptions,
) -> (CfgProgram, CexReport) {
    let mut rep = CexReport::default();
    let ccfg = exhaustive_config(EnvMode::Closed, opts);

    let base = explore(&closed.program, &ccfg);
    rep.states_before = base.states;
    rep.states_after = base.states;
    let base_verdicts = verdict_set(&base);

    classify_all(open, &base, &mut rep);

    let Some(cov) = open_coverage(open, opts) else {
        return (closed.program.clone(), rep);
    };
    rep.open_exploration_complete = true;

    let mut program = closed.program.clone();
    let mut sites: Vec<Vec<TossSite>> = closed
        .reports
        .iter()
        .map(|r| r.toss_sites.clone())
        .collect();
    // Sites the verdict guard rejected as singletons, keyed by stable
    // open-program provenance so they survive node renumbering.
    let mut rejected: BTreeSet<(usize, NodeId, usize)> = BTreeSet::new();

    for _ in 0..MAX_ITERS {
        let candidates = collect_prunes(open, &cov, &program, &sites, &rejected);
        if candidates.is_empty() {
            break;
        }
        rep.iterations += 1;
        let batch = apply_prunes(&program, &sites, &candidates);
        if verdicts_match(&batch.program, &ccfg, &base_verdicts, &mut rep) {
            accept(&mut program, &mut sites, batch, &mut rep);
            continue;
        }
        rep.reverted = true;
        // The batch changed the verdict set (it removed a spurious
        // verdict outright): retry each site alone and keep the first
        // that preserves verdicts; sites that fail alone are never
        // retried.
        let mut accepted_one = false;
        for single in split_singletons(&candidates) {
            let cand = apply_prunes(&program, &sites, &single);
            if verdicts_match(&cand.program, &ccfg, &base_verdicts, &mut rep) {
                accept(&mut program, &mut sites, cand, &mut rep);
                accepted_one = true;
                break;
            }
            let (pi, prune) = sole_entry(&single);
            rejected.insert(site_key(pi, &sites[pi], prune));
        }
        if !accepted_one {
            break;
        }
    }
    (program, rep)
}

/// The verdict set: the multiset-free set of violation kinds, as their
/// debug renderings ([`ViolationKind`] is not `Ord`).
pub fn verdict_set(report: &Report) -> BTreeSet<String> {
    report
        .violations
        .iter()
        .map(|v| format!("{:?}", v.kind))
        .collect()
}

fn exhaustive_config(env_mode: EnvMode, opts: &CexOptions) -> Config {
    // Reduction-free: POR preserves verdicts but not arc coverage, and
    // the refined/unrefined state counts must be comparable.
    Config {
        engine: Engine::Stateful,
        env_mode,
        por: false,
        sleep_sets: false,
        max_violations: usize::MAX,
        max_depth: opts.max_depth,
        max_transitions: opts.max_transitions,
        ..Config::default()
    }
}

fn verdicts_match(
    candidate: &CfgProgram,
    ccfg: &Config,
    base: &BTreeSet<String>,
    rep: &mut CexReport,
) -> bool {
    if cfgir::validate(candidate).is_err() {
        debug_assert!(false, "refined program failed validation");
        return false;
    }
    let r = explore(candidate, ccfg);
    if verdict_set(&r) == *base {
        rep.states_after = r.states;
        true
    } else {
        false
    }
}

// ---------------------------------------------------------------------
// Coverage of the open program under its most general environment.
// ---------------------------------------------------------------------

/// A complete, reduction-free exploration of the open program under
/// [`EnvMode::Enumerate`]. `None` when it is not complete — truncated,
/// or cut short at an input whose domain is too wide to enumerate
/// ([`RtError::DomainTooLarge`] ends that path, uncovered) — and the
/// caller must then not prune at all.
fn open_coverage(open: &CfgProgram, opts: &CexOptions) -> Option<Coverage> {
    let mut cfg = exhaustive_config(EnvMode::Enumerate, opts);
    cfg.track_coverage = true;
    let r = explore(open, &cfg);
    if r.truncated || r.violations.iter().any(|v| v.kind == DOMAIN_TOO_LARGE) {
        return None;
    }
    r.coverage
}

/// The verdict of a read that [`EnvMode::Enumerate`] cannot branch over.
const DOMAIN_TOO_LARGE: ViolationKind = ViolationKind::RuntimeError(RtError::DomainTooLarge);

// ---------------------------------------------------------------------
// Feasibility and pruning.
// ---------------------------------------------------------------------

fn is_branch(kind: &NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::Cond { .. } | NodeKind::Switch { .. } | NodeKind::TossCond { .. }
    )
}

/// Indices of `site.targets` reachable from the site's rewired arc
/// through the covered subgraph of the open procedure. `None` when the
/// arc itself was never taken (the site is unreachable in real behavior
/// and conservatively left alone).
fn feasible_outcomes(proc: &CfgProc, cov: &Coverage, site: &TossSite) -> Option<BTreeSet<usize>> {
    let arcs = proc.arcs(site.orig_node);
    let arc = arcs.get(site.orig_arc)?;
    if is_branch(&proc.node(site.orig_node).kind) {
        if !cov.arc_covered(proc.id, site.orig_node, site.orig_arc) {
            return None;
        }
    } else if !cov.covered(proc.id, site.orig_node) {
        return None;
    }
    let target_idx: BTreeMap<NodeId, usize> = site
        .targets
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, i))
        .collect();
    let mut feasible = BTreeSet::new();
    let mut visited = vec![false; proc.nodes.len()];
    let mut stack = vec![arc.target];
    while let Some(t) = stack.pop() {
        if let Some(&i) = target_idx.get(&t) {
            // Region boundary: succ(a) terminates at marked nodes, and
            // every marked node reachable through the unmarked region is
            // in `targets`.
            if cov.covered(proc.id, t) {
                feasible.insert(i);
            }
            continue;
        }
        if visited[t.index()] {
            continue;
        }
        visited[t.index()] = true;
        if !cov.covered(proc.id, t) {
            continue;
        }
        let branch = is_branch(&proc.node(t).kind);
        for (ai, a) in proc.arcs(t).iter().enumerate() {
            if branch && !cov.arc_covered(proc.id, t, ai) {
                continue;
            }
            stack.push(a.target);
        }
    }
    Some(feasible)
}

/// Per-procedure maps from toss node to its feasible-outcome set, for
/// every site where that set is a proper nonempty subset.
type PruneMap = BTreeMap<usize, BTreeMap<NodeId, BTreeSet<usize>>>;

fn collect_prunes(
    open: &CfgProgram,
    cov: &Coverage,
    program: &CfgProgram,
    sites: &[Vec<TossSite>],
    rejected: &BTreeSet<(usize, NodeId, usize)>,
) -> PruneMap {
    let mut out = PruneMap::new();
    for (pi, proc_sites) in sites.iter().enumerate() {
        for site in proc_sites {
            if rejected.contains(&(pi, site.orig_node, site.orig_arc)) {
                continue;
            }
            debug_assert!(matches!(
                program.procs[pi].node(site.closed_node).kind,
                NodeKind::TossCond { .. }
            ));
            let Some(f) = feasible_outcomes(&open.procs[pi], cov, site) else {
                continue;
            };
            // Never prune to zero outcomes; a full set prunes nothing.
            if !f.is_empty() && f.len() < site.targets.len() {
                out.entry(pi).or_default().insert(site.closed_node, f);
            }
        }
    }
    out
}

fn split_singletons(prunes: &PruneMap) -> Vec<PruneMap> {
    let mut out = Vec::new();
    for (pi, m) in prunes {
        for (n, f) in m {
            let mut single = PruneMap::new();
            single.entry(*pi).or_default().insert(*n, f.clone());
            out.push(single);
        }
    }
    out
}

fn sole_entry(single: &PruneMap) -> (usize, (&NodeId, &BTreeSet<usize>)) {
    let (pi, m) = single.iter().next().expect("singleton prune");
    (*pi, m.iter().next().expect("singleton prune"))
}

fn site_key(
    pi: usize,
    sites: &[TossSite],
    (node, _): (&NodeId, &BTreeSet<usize>),
) -> (usize, NodeId, usize) {
    let site = sites
        .iter()
        .find(|s| s.closed_node == *node)
        .expect("prune targets a known site");
    (pi, site.orig_node, site.orig_arc)
}

struct Pruned {
    program: CfgProgram,
    sites: Vec<Vec<TossSite>>,
    outcomes_pruned: usize,
    sites_bypassed: usize,
}

fn accept(
    program: &mut CfgProgram,
    sites: &mut Vec<Vec<TossSite>>,
    cand: Pruned,
    rep: &mut CexReport,
) {
    *program = cand.program;
    *sites = cand.sites;
    rep.outcomes_pruned += cand.outcomes_pruned;
    rep.sites_bypassed += cand.sites_bypassed;
}

fn apply_prunes(program: &CfgProgram, sites: &[Vec<TossSite>], prunes: &PruneMap) -> Pruned {
    let mut out = Pruned {
        program: program.clone(),
        sites: sites.to_vec(),
        outcomes_pruned: 0,
        sites_bypassed: 0,
    };
    for (pi, m) in prunes {
        let (proc, new_sites, removed, bypassed) = prune_proc(&program.procs[*pi], &sites[*pi], m);
        out.program.procs[*pi] = proc;
        out.sites[*pi] = new_sites;
        out.outcomes_pruned += removed;
        out.sites_bypassed += bypassed;
    }
    out
}

/// Rebuild one closed procedure with the given toss prunes applied:
/// tosses left a single feasible outcome are bypassed (their incoming
/// arc redirected to the sole target; toss arcs never target other
/// tosses, so chains cannot form), the rest keep only the feasible
/// arcs, renumbered densely so `TossCond { bound }` stays exact.
fn prune_proc(
    proc: &CfgProc,
    sites: &[TossSite],
    prunes: &BTreeMap<NodeId, BTreeSet<usize>>,
) -> (CfgProc, Vec<TossSite>, usize, usize) {
    let redirect: BTreeMap<NodeId, NodeId> = prunes
        .iter()
        .filter(|(_, f)| f.len() == 1)
        .map(|(n, f)| {
            let sole = *f.iter().next().expect("nonempty");
            (*n, proc.arcs(*n)[sole].target)
        })
        .collect();
    let resolve = |mut t: NodeId| {
        let mut fuel = redirect.len() + 1;
        while let Some(&r) = redirect.get(&t) {
            t = r;
            fuel -= 1;
            if fuel == 0 {
                break;
            }
        }
        t
    };

    let mut out = CfgProc {
        name: proc.name.clone(),
        id: proc.id,
        params: proc.params.clone(),
        vars: proc.vars.clone(),
        nodes: Vec::new(),
        succs: Vec::new(),
        start: NodeId(0),
    };
    let mut map: Vec<Option<NodeId>> = vec![None; proc.nodes.len()];
    for n in proc.node_ids() {
        if redirect.contains_key(&n) {
            continue;
        }
        let node = proc.node(n);
        let kind = match (&node.kind, prunes.get(&n)) {
            (NodeKind::TossCond { .. }, Some(f)) => NodeKind::TossCond {
                bound: (f.len() - 1) as u32,
            },
            (k, _) => k.clone(),
        };
        map[n.index()] = Some(out.push_node(kind, node.span));
    }
    out.start = map[proc.start.index()].expect("start is never a toss");

    for n in proc.node_ids() {
        let Some(new_n) = map[n.index()] else {
            continue;
        };
        match prunes.get(&n) {
            Some(f) => {
                for (j, i) in f.iter().enumerate() {
                    let t = resolve(proc.arcs(n)[*i].target);
                    out.add_arc(
                        new_n,
                        Guard::TossEq(j as u32),
                        map[t.index()].expect("kept"),
                    );
                }
            }
            None => {
                for a in proc.arcs(n) {
                    let t = resolve(a.target);
                    out.add_arc(new_n, a.guard, map[t.index()].expect("kept"));
                }
            }
        }
    }

    let mut removed = 0;
    let mut bypassed = 0;
    let mut new_sites = Vec::new();
    for s in sites {
        match prunes.get(&s.closed_node) {
            Some(f) if f.len() == 1 => {
                removed += s.targets.len() - 1;
                bypassed += 1;
            }
            Some(f) => {
                removed += s.targets.len() - f.len();
                new_sites.push(TossSite {
                    closed_node: map[s.closed_node.index()].expect("kept"),
                    orig_node: s.orig_node,
                    orig_arc: s.orig_arc,
                    targets: f.iter().map(|i| s.targets[*i]).collect(),
                });
            }
            None => new_sites.push(TossSite {
                closed_node: map[s.closed_node.index()].expect("kept"),
                ..s.clone()
            }),
        }
    }
    (out, new_sites, removed, bypassed)
}

// ---------------------------------------------------------------------
// Trace classification.
// ---------------------------------------------------------------------

/// Classify one violating trace of the closed program against the open
/// program's real semantics. Visible operations are preserved
/// one-to-one by the transformation, so a closed trace's per-process
/// decision schedule maps directly onto `S` under
/// [`EnvMode::Enumerate`]: the search follows the same schedule,
/// branches over every toss and environment choice, and requires a
/// violation of the same kind at the final step (a deadlock: a dead end
/// after it). Any witness is confirmed with [`Executor::replay`].
pub fn classify_trace(open: &CfgProgram, v: &Violation) -> TraceClass {
    let cfg = Config {
        env_mode: EnvMode::Enumerate,
        max_violations: usize::MAX,
        ..Config::default()
    };
    let exec = Executor::new(open, &cfg);
    let mut cx = ExecCtx::new(&exec, CLASSIFY_BUDGET);
    let mut path = Vec::new();
    let found = dfs_exact(
        &exec,
        &mut cx,
        exec.initial(),
        &v.trace,
        0,
        &v.kind,
        &mut path,
    );
    finish_classification(&exec, &cx, found, &path, &v.kind)
}

fn classify_all(open: &CfgProgram, base: &Report, rep: &mut CexReport) {
    for v in base.violations.iter().take(MAX_CLASSIFIED) {
        rep.classified += 1;
        match classify_trace(open, v) {
            TraceClass::Real => rep.real += 1,
            TraceClass::Spurious => rep.spurious += 1,
            TraceClass::Unknown => rep.unknown += 1,
        }
    }
}

fn dfs_exact(
    exec: &Executor<'_>,
    cx: &mut ExecCtx,
    state: GlobalState,
    trace: &[Decision],
    d: usize,
    kind: &ViolationKind,
    path: &mut Vec<Decision>,
) -> bool {
    if cx.truncated {
        return false;
    }
    if d >= trace.len() {
        // A deadlock trace replays to the stuck state itself: match it
        // by checking the dead end here rather than a final violating
        // transition.
        return *kind == ViolationKind::Deadlock
            && matches!(exec.schedule(&state), Scheduled::DeadEnd { deadlock: true });
    }
    let pid = trace[d].process;
    if pid >= state.procs.len() || !enabled(exec.program(), &state, pid) {
        return false;
    }
    for (choices, outcome) in exec.successors(cx, &state, pid) {
        if cx.truncated {
            return false;
        }
        path.push(Decision {
            process: pid,
            choices,
        });
        match outcome {
            SuccOutcome::State(s, _) => {
                if dfs_exact(exec, cx, *s, trace, d + 1, kind, path) {
                    return true;
                }
            }
            // No branch over this read: the search cannot be completed,
            // so it ends undecided, as if out of budget.
            SuccOutcome::Violation(k, _) if k == DOMAIN_TOO_LARGE => {
                cx.truncated = true;
                return false;
            }
            SuccOutcome::Violation(k, _) => {
                if d == trace.len() - 1 && k == *kind {
                    return true;
                }
            }
        }
        path.pop();
    }
    false
}

fn finish_classification(
    exec: &Executor<'_>,
    cx: &ExecCtx,
    found: bool,
    path: &[Decision],
    kind: &ViolationKind,
) -> TraceClass {
    if found {
        // Confirm the witness end-to-end with the replay facility: the
        // trace must fail at its final decision with the same verdict.
        return match exec.replay(path) {
            Err(res) => {
                let replayed: ViolationKind = match res {
                    verisoft::TransitionResult::AssertViolation => {
                        ViolationKind::AssertionViolation
                    }
                    verisoft::TransitionResult::Diverged => ViolationKind::Divergence,
                    verisoft::TransitionResult::RuntimeError(e) => ViolationKind::RuntimeError(e),
                    _ => return TraceClass::Unknown,
                };
                if replayed == *kind {
                    TraceClass::Real
                } else {
                    TraceClass::Unknown
                }
            }
            Ok(_) => {
                // Deadlocks have no failing final transition: the trace
                // replays cleanly into the stuck state.
                if *kind == ViolationKind::Deadlock {
                    TraceClass::Real
                } else {
                    TraceClass::Unknown
                }
            }
        };
    }
    if cx.truncated {
        TraceClass::Unknown
    } else {
        TraceClass::Spurious
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::close_source;

    fn refine_source(src: &str) -> (CfgProgram, CfgProgram, CexReport) {
        let open = cfgir::compile(src).unwrap();
        let closed = close_source(src).unwrap();
        let (refined, rep) = refine_cex(&open, &closed, &CexOptions::default());
        cfgir::validate(&refined).unwrap();
        (closed.program, refined, rep)
    }

    /// The declared domain keeps `x > 10` forever false; taint analysis
    /// cannot see that, coverage can.
    const GATE: &str = r#"
        extern chan out;
        input x : 0..3;
        proc gate(int x) {
            if (x > 10) {
                int i = 0;
                while (i < 8) { send(out, i); i = i + 1; }
            } else {
                send(out, x);
            }
        }
        process gate(x);
    "#;

    #[test]
    fn infeasible_branch_outcome_is_pruned() {
        let (closed, refined, rep) = refine_source(GATE);
        assert!(rep.open_exploration_complete);
        assert!(rep.outcomes_pruned >= 1, "{rep:?}");
        assert_eq!(rep.sites_bypassed, 1, "{rep:?}");
        assert!(!rep.reverted, "{rep:?}");
        assert!(
            rep.states_after < rep.states_before,
            "{} !< {}",
            rep.states_after,
            rep.states_before
        );
        // The toss vanished: the refined program is strictly smaller.
        let n_closed: usize = closed.procs.iter().map(|p| p.nodes.len()).sum();
        let n_refined: usize = refined.procs.iter().map(|p| p.nodes.len()).sum();
        assert!(n_refined < n_closed);
    }

    #[test]
    fn verdict_set_is_preserved() {
        let (closed, refined, _) = refine_source(GATE);
        let opts = CexOptions::default();
        let cfg = exhaustive_config(EnvMode::Closed, &opts);
        assert_eq!(
            verdict_set(&explore(&closed, &cfg)),
            verdict_set(&explore(&refined, &cfg))
        );
    }

    /// Both parities really happen: nothing to prune in Figure 2.
    #[test]
    fn figure2_is_a_fixpoint() {
        let (closed, refined, rep) = refine_source(
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
        assert_eq!(rep.outcomes_pruned, 0, "{rep:?}");
        assert_eq!(refined, closed);
    }

    /// A spurious assertion violation (the toss reaches an assert the
    /// real environment cannot): pruning it would shrink the verdict
    /// set, so the guard must revert.
    #[test]
    fn verdict_guard_reverts_spurious_verdict_removal() {
        let src = r#"
            extern chan out;
            input x : 0..3;
            proc p(int x) {
                if (x > 10) { VS_assert(0); }
                send(out, 1);
            }
            process p(x);
        "#;
        let (closed, refined, rep) = refine_source(src);
        assert!(rep.reverted, "{rep:?}");
        assert_eq!(rep.outcomes_pruned, 0, "{rep:?}");
        assert_eq!(refined, closed);
    }

    #[test]
    fn classification_separates_real_from_spurious() {
        // The closed program violates the assert down both toss
        // outcomes, but only `x == 3` is real.
        let src = r#"
            extern chan out;
            input x : 0..3;
            proc p(int x) {
                send(out, 1);
                if (x == 3) { VS_assert(0); }
                else { VS_assert(0); }
            }
            process p(x);
        "#;
        let open = cfgir::compile(src).unwrap();
        let closed = close_source(src).unwrap();
        let opts = CexOptions::default();
        let base = explore(&closed.program, &exhaustive_config(EnvMode::Closed, &opts));
        assert!(!base.violations.is_empty());
        let classes: Vec<TraceClass> = base
            .violations
            .iter()
            .map(|v| classify_trace(&open, v))
            .collect();
        assert!(classes.contains(&TraceClass::Real), "{classes:?}");
    }

    /// `big`'s span does not fit a toss bound, so enumeration ends the
    /// `x == 0` path at the read, uncovered. The coverage run is then not
    /// complete, and the real `send(out, 1)` outcome must survive.
    #[test]
    fn coverage_cut_short_by_a_wide_domain_prunes_nothing() {
        let (closed, refined, rep) = refine_source(
            r#"
            extern chan out;
            input a : 0..1;
            input big : 0..4294967295;
            proc p() {
                int x = env_input(a);
                if (x == 0) { int b = env_input(big); send(out, 1); }
                else { send(out, 2); }
            }
            process p();
            "#,
        );
        assert!(!rep.open_exploration_complete, "{rep:?}");
        assert_eq!(rep.outcomes_pruned, 0, "{rep:?}");
        assert_eq!(refined, closed);
    }

    /// The assertion fails for every input, but the search cannot branch
    /// over `big`: it must not call the violation spurious.
    #[test]
    fn classification_past_a_wide_domain_is_unknown() {
        let (_, _, rep) = refine_source(
            r#"
            extern chan out;
            input big : 0..4294967295;
            proc p() {
                int b = env_input(big);
                send(out, 1);
                VS_assert(0);
            }
            process p();
            "#,
        );
        assert_eq!((rep.classified, rep.unknown), (1, 1), "{rep:?}");
    }

    /// Spawned pids match between `S'` and `S × E_S`, so every violation
    /// the closed program reports replays in the open one.
    #[test]
    fn fuzz_seed_56_violations_are_all_real() {
        let (_, _, rep) =
            refine_source(include_str!("../../../corpus/regressions/fuzz_seed_56.mc"));
        assert_eq!((rep.classified, rep.real), (4, 4), "{rep:?}");
    }
}
