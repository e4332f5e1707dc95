//! The adversarial corpus engine: mass differential fuzzing of the
//! closing pipeline and every exploration engine.
//!
//! Where [`crate::progen`] generates programs of controlled *size* for
//! scaling experiments, this module generates programs of controlled
//! *shape diversity* — arrays (constant and environment-tainted
//! indices), internal channels with `send`/`recv`/`chan_len`, dynamic
//! `spawn`, external event channels, and environment inputs — then
//! [`close_and_check`] runs each one through the [`FUZZ`] slice of the
//! differential oracle ([`crate::oracle`]):
//!
//! 1. **close** the open program via [`closer::Pipeline`], and refine
//!    it with `closer::refine_cex`;
//! 2. **explore** it under the slice's legs — the frontier search with
//!    POR on and off across `jobs` and `--no-compress`, the sequential
//!    DFS and the stateless walk each with its `--no-compress` twin, and the refined program where
//!    refinement changed it;
//! 3. **compare** each leg with the leg the table names: byte for byte
//!    where the report is a determinism contract, on the distinct
//!    `(kind, process)` verdicts across engines and reduction modes,
//!    on the violation kinds across refinement.
//!
//! Any disagreement or panic is a [`Divergence`]; [`minimize`] shrinks
//! the generating [`ProgSpec`] against the same oracle until no single
//! statement, branch, procedure, or declaration can be removed, and the
//! result renders as a self-contained `.mc` reproducer.
//!
//! Everything is seeded ([`crate::rng::SplitMix64`]): the same seed
//! range reproduces the same corpus, byte for byte, on every platform.

use crate::oracle::{cross_check, CheckOutcome, OracleLimits, FUZZ};
use crate::progen::Dedupe;
use crate::rng::SplitMix64;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Program specifications
// ---------------------------------------------------------------------

/// A reference to a declared channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chan {
    /// Internal channel `c<id>`.
    Int(usize),
    /// External event channel `e<id>` (receive side of the environment).
    Ext(usize),
    /// The unranged external sink `out` (send-only).
    Out,
}

/// An operand: a small constant, a local, or a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Val {
    /// Literal constant.
    Const(i64),
    /// Local variable `v<i>`.
    Var(usize),
    /// Procedure parameter `k<i>`.
    Param(usize),
}

/// An array index: constant (possibly out of bounds) or variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Idx {
    /// Constant index.
    Const(i64),
    /// Variable index `v<i>` — tainted variables here exercise the
    /// closing transformation's toss-over-elements expansion.
    Var(usize),
}

/// A comparison operator for assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `>=`
    Ge,
}

impl Cmp {
    fn render(self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
            Cmp::Ge => ">=",
        }
    }
}

/// One statement in a generated procedure body. The tree structure is
/// what the minimizer operates on: every node can be removed (or, for
/// [`St::If`], hoisted) independently, with the sema checker rejecting
/// inconsistent candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum St {
    /// `v<i> = val;`
    Set(usize, Val),
    /// `v<i> = v<i> + val;`
    Add(usize, Val),
    /// `a<id>[idx] = val;`
    ArrStore(usize, Idx, Val),
    /// `v<i> = a<id>[idx];`
    ArrLoad(usize, usize, Idx),
    /// `send(chan, val);`
    Send(Chan, Val),
    /// `v<i> = recv(chan);`
    Recv(usize, Chan),
    /// `v<i> = chan_len(c<id>);` (internal channels only)
    ChanLen(usize, usize),
    /// `VS_assert(v<i> cmp k);`
    Assert(usize, Cmp, i64),
    /// `if (v<i> % m == k) { then } else { els }`
    If(usize, i64, i64, Vec<St>, Vec<St>),
    /// A counted loop with a dedicated counter `l<id>` (never written by
    /// the body, so generated loops always terminate):
    /// `int l<id> = 0; while (l<id> < n) { body; l<id> = l<id> + 1; }`
    Loop(usize, i64, Vec<St>),
    /// `spawn p<id>(args);`
    Spawn(usize, Vec<Val>),
}

/// A generated procedure. Names are derived from the *stable* `id`
/// (not the vector position), so the minimizer can drop procedures and
/// declarations without renumbering cross-references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcSpec {
    /// Stable id: renders as `p<id>`.
    pub id: usize,
    /// Number of `int` parameters `k0..`.
    pub params: usize,
    /// Initial values of the locals `v0..`; one entry per local.
    pub vars: Vec<i64>,
    /// Arrays `(id, len)`: renders as `int a<id>[len];`.
    pub arrays: Vec<(usize, i64)>,
    /// The body statement tree.
    pub body: Vec<St>,
}

/// A top-level `process p<id>(x<input>, ...);` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Start {
    /// Stable id of the started procedure.
    pub proc: usize,
    /// Input ids passed as arguments (`x<id>` each).
    pub args: Vec<usize>,
}

/// A complete generated program, structured for minimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgSpec {
    /// Internal channels `(id, capacity)`.
    pub chans: Vec<(usize, i64)>,
    /// External event channels `(id, hi)`: `extern chan e<id> : 0..hi;`.
    pub exts: Vec<(usize, i64)>,
    /// Whether the send-only `extern chan out;` sink is declared.
    pub sink: bool,
    /// Environment inputs `(id, hi)`: `input x<id> : 0..hi;`.
    pub inputs: Vec<(usize, i64)>,
    /// Procedures, spawn targets first.
    pub procs: Vec<ProcSpec>,
    /// Top-level process instantiations.
    pub starts: Vec<Start>,
}

/// Count the statements in a spec (every [`St`] node, at any depth).
pub fn stmt_count(spec: &ProgSpec) -> usize {
    fn count(body: &[St]) -> usize {
        body.iter()
            .map(|s| match s {
                St::If(_, _, _, t, e) => 1 + count(t) + count(e),
                St::Loop(_, _, b) => 1 + count(b),
                _ => 1,
            })
            .sum()
    }
    spec.procs.iter().map(|p| count(&p.body)).sum()
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn render_val(v: Val) -> String {
    match v {
        Val::Const(c) => c.to_string(),
        Val::Var(i) => format!("v{i}"),
        Val::Param(i) => format!("k{i}"),
    }
}

fn render_idx(i: Idx) -> String {
    match i {
        Idx::Const(c) => c.to_string(),
        Idx::Var(v) => format!("v{v}"),
    }
}

fn render_chan(c: Chan) -> String {
    match c {
        Chan::Int(i) => format!("c{i}"),
        Chan::Ext(i) => format!("e{i}"),
        Chan::Out => "out".into(),
    }
}

fn render_body(out: &mut String, body: &[St], depth: usize) {
    let pad = "    ".repeat(depth);
    for st in body {
        match st {
            St::Set(v, val) => {
                let _ = writeln!(out, "{pad}v{v} = {};", render_val(*val));
            }
            St::Add(v, val) => {
                let _ = writeln!(out, "{pad}v{v} = v{v} + {};", render_val(*val));
            }
            St::ArrStore(a, idx, val) => {
                let _ = writeln!(
                    out,
                    "{pad}a{a}[{}] = {};",
                    render_idx(*idx),
                    render_val(*val)
                );
            }
            St::ArrLoad(v, a, idx) => {
                let _ = writeln!(out, "{pad}v{v} = a{a}[{}];", render_idx(*idx));
            }
            St::Send(c, val) => {
                let _ = writeln!(out, "{pad}send({}, {});", render_chan(*c), render_val(*val));
            }
            St::Recv(v, c) => {
                let _ = writeln!(out, "{pad}v{v} = recv({});", render_chan(*c));
            }
            St::ChanLen(v, c) => {
                let _ = writeln!(out, "{pad}v{v} = chan_len(c{c});");
            }
            St::Assert(v, cmp, k) => {
                let _ = writeln!(out, "{pad}VS_assert(v{v} {} {k});", cmp.render());
            }
            St::If(v, m, k, t, e) => {
                let _ = writeln!(out, "{pad}if (v{v} % {m} == {k}) {{");
                render_body(out, t, depth + 1);
                if e.is_empty() {
                    let _ = writeln!(out, "{pad}}}");
                } else {
                    let _ = writeln!(out, "{pad}}} else {{");
                    render_body(out, e, depth + 1);
                    let _ = writeln!(out, "{pad}}}");
                }
            }
            St::Loop(cid, n, b) => {
                let _ = writeln!(out, "{pad}int l{cid} = 0;");
                let _ = writeln!(out, "{pad}while (l{cid} < {n}) {{");
                render_body(out, b, depth + 1);
                let _ = writeln!(out, "{pad}    l{cid} = l{cid} + 1;");
                let _ = writeln!(out, "{pad}}}");
            }
            St::Spawn(p, args) => {
                let a: Vec<String> = args.iter().map(|v| render_val(*v)).collect();
                let _ = writeln!(out, "{pad}spawn p{p}({});", a.join(", "));
            }
        }
    }
}

/// Render a spec as MiniC source.
pub fn render(spec: &ProgSpec) -> String {
    let mut s = String::new();
    for (id, cap) in &spec.chans {
        let _ = writeln!(s, "chan c{id}[{cap}];");
    }
    for (id, hi) in &spec.exts {
        let _ = writeln!(s, "extern chan e{id} : 0..{hi};");
    }
    if spec.sink {
        let _ = writeln!(s, "extern chan out;");
    }
    for (id, hi) in &spec.inputs {
        let _ = writeln!(s, "input x{id} : 0..{hi};");
    }
    for p in &spec.procs {
        let params: Vec<String> = (0..p.params).map(|i| format!("int k{i}")).collect();
        let _ = writeln!(s, "\nproc p{}({}) {{", p.id, params.join(", "));
        for (i, init) in p.vars.iter().enumerate() {
            let _ = writeln!(s, "    int v{i} = {init};");
        }
        for (id, len) in &p.arrays {
            let _ = writeln!(s, "    int a{id}[{len}];");
        }
        render_body(&mut s, &p.body, 1);
        let _ = writeln!(s, "}}");
    }
    s.push('\n');
    for st in &spec.starts {
        let args: Vec<String> = st.args.iter().map(|i| format!("x{i}")).collect();
        let _ = writeln!(s, "process p{}({});", st.proc, args.join(", "));
    }
    s
}

// ---------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------

/// Everything the statement generator may reference in one procedure.
struct Scope {
    vars: usize,
    params: usize,
    chans: Vec<usize>,
    exts: Vec<usize>,
    sink: bool,
    arrays: Vec<(usize, i64)>,
    /// `(id, params)` of procedures this one may spawn.
    spawnable: Vec<(usize, usize)>,
    /// Fresh loop-counter ids.
    next_loop: usize,
    /// Remaining spawn-statement budget (global per program).
    spawns_left: usize,
}

impl Scope {
    fn val(&self, rng: &mut SplitMix64) -> Val {
        match rng.below(4) {
            0 if self.params > 0 => Val::Param(rng.below(self.params)),
            1 => Val::Const(rng.range_i64(0, 7)),
            _ => Val::Var(rng.below(self.vars)),
        }
    }
}

fn gen_stmt(rng: &mut SplitMix64, sc: &mut Scope, depth: usize, budget: &mut usize) -> Option<St> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    let v = rng.below(sc.vars);
    // Weighted construct choice; structural constructs only above a
    // remaining budget so bodies stay small.
    let roll = rng.below(16);
    Some(match roll {
        0 | 1 => St::Set(v, sc.val(rng)),
        2 | 3 => St::Add(v, sc.val(rng)),
        4 if !sc.arrays.is_empty() => {
            let (a, len) = sc.arrays[rng.below(sc.arrays.len())];
            let idx = if rng.coin() {
                Idx::Const(rng.range_i64(0, len))
            } else {
                Idx::Var(rng.below(sc.vars))
            };
            St::ArrStore(a, idx, sc.val(rng))
        }
        5 if !sc.arrays.is_empty() => {
            let (a, len) = sc.arrays[rng.below(sc.arrays.len())];
            let idx = if rng.coin() {
                Idx::Const(rng.range_i64(0, len))
            } else {
                Idx::Var(rng.below(sc.vars))
            };
            St::ArrLoad(v, a, idx)
        }
        6 | 7 if !sc.chans.is_empty() => {
            let c = sc.chans[rng.below(sc.chans.len())];
            if rng.coin() {
                St::Send(Chan::Int(c), sc.val(rng))
            } else {
                St::Recv(v, Chan::Int(c))
            }
        }
        8 if !sc.exts.is_empty() => {
            // Environment data enters here: `v` is tainted from now on.
            St::Recv(v, Chan::Ext(sc.exts[rng.below(sc.exts.len())]))
        }
        9 if sc.sink => St::Send(Chan::Out, sc.val(rng)),
        10 if !sc.chans.is_empty() => St::ChanLen(v, sc.chans[rng.below(sc.chans.len())]),
        11 => St::Assert(
            v,
            [Cmp::Lt, Cmp::Le, Cmp::Eq, Cmp::Ne, Cmp::Ge][rng.below(5)],
            rng.range_i64(-1, 8),
        ),
        12 | 13 if depth < 2 && *budget >= 2 => {
            let m = rng.range_i64(2, 5);
            let k = rng.range_i64(0, m);
            let tn = rng.below(3) + 1;
            let en = rng.below(2);
            let mut t = Vec::new();
            for _ in 0..tn {
                if let Some(s) = gen_stmt(rng, sc, depth + 1, budget) {
                    t.push(s);
                }
            }
            let mut e = Vec::new();
            for _ in 0..en {
                if let Some(s) = gen_stmt(rng, sc, depth + 1, budget) {
                    e.push(s);
                }
            }
            St::If(v, m, k, t, e)
        }
        14 if depth < 2 && *budget >= 2 => {
            let cid = sc.next_loop;
            sc.next_loop += 1;
            let n = rng.range_i64(1, 4);
            let bn = rng.below(2) + 1;
            let mut b = Vec::new();
            for _ in 0..bn {
                if let Some(s) = gen_stmt(rng, sc, depth + 1, budget) {
                    b.push(s);
                }
            }
            St::Loop(cid, n, b)
        }
        15 if !sc.spawnable.is_empty() && sc.spawns_left > 0 && depth == 0 => {
            sc.spawns_left -= 1;
            let (p, params) = sc.spawnable[rng.below(sc.spawnable.len())];
            let args = (0..params).map(|_| sc.val(rng)).collect();
            St::Spawn(p, args)
        }
        _ => St::Set(v, sc.val(rng)),
    })
}

/// Generate the spec for one seed. Deterministic; every seed yields a
/// sema-valid program (validated by the generator tests across a wide
/// seed range).
pub fn gen_spec(seed: u64) -> ProgSpec {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0x00C0_FFEE));
    let n_chans = rng.range(1, 3) as usize;
    let chans: Vec<(usize, i64)> = (0..n_chans).map(|i| (i, rng.range_i64(1, 3))).collect();
    let n_exts = rng.range(0, 3) as usize;
    let exts: Vec<(usize, i64)> = (0..n_exts).map(|i| (i, rng.range_i64(1, 4))).collect();
    let sink = rng.coin();
    let n_inputs = rng.range(0, 2) as usize;
    let inputs: Vec<(usize, i64)> = (0..n_inputs).map(|i| (i, rng.range_i64(1, 4))).collect();

    let chan_ids: Vec<usize> = chans.iter().map(|c| c.0).collect();
    let ext_ids: Vec<usize> = exts.iter().map(|e| e.0).collect();

    let mut procs = Vec::new();
    // Helper procedures: spawn targets and/or started services. Small
    // bodies, no further spawning (bounds the process tree).
    let n_helpers = rng.range(0, 3) as usize;
    for id in 0..n_helpers {
        let params = rng.range(0, 2) as usize;
        let vars = vec![0, rng.range_i64(0, 3)];
        let mut sc = Scope {
            vars: vars.len(),
            params,
            chans: chan_ids.clone(),
            exts: Vec::new(), // helpers stay environment-free
            sink,
            arrays: Vec::new(),
            spawnable: Vec::new(),
            next_loop: 0,
            spawns_left: 0,
        };
        let mut budget = rng.range(2, 5) as usize;
        let mut body = Vec::new();
        while let Some(s) = gen_stmt(&mut rng, &mut sc, 0, &mut budget) {
            body.push(s);
        }
        procs.push(ProcSpec {
            id,
            params,
            vars,
            arrays: Vec::new(),
            body,
        });
    }

    // The main procedure: owns the arrays and the environment interface,
    // and is the only spawner.
    let main_id = n_helpers;
    let params = inputs.len().min(2);
    let vars = vec![0, 1, rng.range_i64(0, 4)];
    let n_arrays = rng.range(0, 2) as usize;
    let arrays: Vec<(usize, i64)> = (0..n_arrays).map(|i| (i, rng.range_i64(2, 5))).collect();
    let spawnable: Vec<(usize, usize)> = procs.iter().map(|p| (p.id, p.params)).collect();
    let mut sc = Scope {
        vars: vars.len(),
        params,
        chans: chan_ids,
        exts: ext_ids,
        sink,
        arrays: arrays.clone(),
        spawnable,
        next_loop: 0,
        spawns_left: 2,
    };
    let mut budget = rng.range(5, 12) as usize;
    let mut body = Vec::new();
    while let Some(s) = gen_stmt(&mut rng, &mut sc, 0, &mut budget) {
        body.push(s);
    }
    procs.push(ProcSpec {
        id: main_id,
        params,
        vars,
        arrays,
        body,
    });

    // Start main (with its inputs) and, coin-flip each, the helpers that
    // take no parameters.
    let mut starts = vec![Start {
        proc: main_id,
        args: inputs.iter().take(params).map(|i| i.0).collect(),
    }];
    for p in &procs[..n_helpers] {
        if p.params == 0 && rng.coin() {
            starts.push(Start {
                proc: p.id,
                args: Vec::new(),
            });
        }
    }

    ProgSpec {
        chans,
        exts,
        sink,
        inputs,
        procs,
        starts,
    }
}

/// Generate the MiniC source for one seed.
pub fn generate(seed: u64) -> String {
    render(&gen_spec(seed))
}

/// Close `src`, refine it with `closer::refine_cex`, and run the
/// [`FUZZ`](crate::oracle::FUZZ) slice of the oracle over both, folding
/// compile/close failures and engine panics into the divergence report.
/// This is the per-seed oracle and also the minimizer's default
/// interestingness test.
pub fn close_and_check(src: &str, limits: &OracleLimits) -> Result<CheckOutcome, String> {
    let src_owned = src.to_string();
    let limits = *limits;
    let result = catch_unwind(AssertUnwindSafe(move || {
        let run = closer::Pipeline::new(closer::PipelineOptions::default())
            .close(&src_owned)
            .map_err(|d| format!("compile/close failed:\n{d}"))?;
        if !run.closed.program.is_closed() {
            return Err("closing left an open interface".to_string());
        }
        let opts = closer::CexOptions {
            max_depth: limits.max_depth,
            max_transitions: limits.max_transitions,
            ..closer::CexOptions::default()
        };
        let (refined, _) = closer::refine_cex(&run.program, &run.closed, &opts);
        let refined = (refined != run.closed.program).then_some(&refined);
        cross_check(&run.closed.program, refined, &limits, FUZZ)
    }));
    match result {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(format!("panic during close/explore: {msg}"))
        }
    }
}

// ---------------------------------------------------------------------
// Divergence minimization
// ---------------------------------------------------------------------

fn remove_in(body: &mut Vec<St>, n: &mut usize) -> bool {
    let mut i = 0;
    while i < body.len() {
        if *n == 0 {
            body.remove(i);
            return true;
        }
        *n -= 1;
        let hit = match &mut body[i] {
            St::If(_, _, _, t, e) => remove_in(t, n) || remove_in(e, n),
            St::Loop(_, _, b) => remove_in(b, n),
            _ => false,
        };
        if hit {
            return true;
        }
        i += 1;
    }
    false
}

/// Remove the `n`th statement (pre-order across all procedures).
fn remove_stmt(spec: &mut ProgSpec, mut n: usize) -> bool {
    for p in &mut spec.procs {
        if remove_in(&mut p.body, &mut n) {
            return true;
        }
    }
    false
}

fn hoist_in(body: &mut Vec<St>, n: &mut usize, take_else: bool) -> bool {
    let mut i = 0;
    while i < body.len() {
        if *n == 0 {
            if let St::If(_, _, _, t, e) = &body[i] {
                let repl = if take_else { e.clone() } else { t.clone() };
                body.splice(i..=i, repl);
                return true;
            }
            return false;
        }
        *n -= 1;
        let hit = match &mut body[i] {
            St::If(_, _, _, t, e) => hoist_in(t, n, take_else) || hoist_in(e, n, take_else),
            St::Loop(_, _, b) => hoist_in(b, n, take_else),
            _ => false,
        };
        if hit {
            return true;
        }
        i += 1;
    }
    false
}

/// Replace the `n`th statement — when it is an `if` — by one of its
/// branches.
fn hoist_stmt(spec: &mut ProgSpec, mut n: usize, take_else: bool) -> bool {
    for p in &mut spec.procs {
        if hoist_in(&mut p.body, &mut n, take_else) {
            return true;
        }
    }
    false
}

/// Shrink `spec` while `interesting(rendered candidate)` stays true.
///
/// Removal granularity: whole procedures (with their `process` lines),
/// `process` lines, statement subtrees, `if` hoisting, and declarations
/// (channels, extern channels, the sink, inputs, arrays). Candidates
/// that dangle a reference simply fail to compile, which the oracle
/// reports as uninteresting — classic delta debugging, no bookkeeping.
/// Runs to a fixpoint; the caller guarantees `interesting` holds for
/// the initial spec.
pub fn minimize(spec: &ProgSpec, interesting: &mut dyn FnMut(&str) -> bool) -> ProgSpec {
    let mut cur = spec.clone();
    loop {
        let mut progressed = false;

        // Whole procedures (and their start lines), last first.
        let mut i = cur.procs.len();
        while i > 0 {
            i -= 1;
            if cur.procs.len() == 1 {
                break;
            }
            let mut cand = cur.clone();
            let id = cand.procs[i].id;
            cand.procs.remove(i);
            cand.starts.retain(|s| s.proc != id);
            if !cand.starts.is_empty() && interesting(&render(&cand)) {
                cur = cand;
                progressed = true;
            }
        }

        // Individual start lines.
        let mut i = cur.starts.len();
        while i > 0 {
            i -= 1;
            if cur.starts.len() == 1 {
                break;
            }
            let mut cand = cur.clone();
            cand.starts.remove(i);
            if interesting(&render(&cand)) {
                cur = cand;
                progressed = true;
            }
        }

        // Statement subtrees, last ordinal first (biases toward keeping
        // the earliest statements, where taint usually enters).
        let mut n = stmt_count(&cur);
        while n > 0 {
            n -= 1;
            let mut cand = cur.clone();
            if remove_stmt(&mut cand, n) && interesting(&render(&cand)) {
                cur = cand;
                progressed = true;
            }
        }

        // If-hoisting: replace a conditional by either branch.
        let mut n = stmt_count(&cur);
        while n > 0 {
            n -= 1;
            for take_else in [false, true] {
                let mut cand = cur.clone();
                if hoist_stmt(&mut cand, n, take_else) && cand != cur && interesting(&render(&cand))
                {
                    cur = cand;
                    progressed = true;
                    break;
                }
            }
        }

        // Declarations.
        macro_rules! drop_each {
            ($field:ident) => {
                let mut i = cur.$field.len();
                while i > 0 {
                    i -= 1;
                    let mut cand = cur.clone();
                    cand.$field.remove(i);
                    if interesting(&render(&cand)) {
                        cur = cand;
                        progressed = true;
                    }
                }
            };
        }
        drop_each!(chans);
        drop_each!(exts);
        drop_each!(inputs);
        if cur.sink {
            let mut cand = cur.clone();
            cand.sink = false;
            if interesting(&render(&cand)) {
                cur = cand;
                progressed = true;
            }
        }
        for pi in 0..cur.procs.len() {
            let mut i = cur.procs[pi].arrays.len();
            while i > 0 {
                i -= 1;
                let mut cand = cur.clone();
                cand.procs[pi].arrays.remove(i);
                if interesting(&render(&cand)) {
                    cur = cand;
                    progressed = true;
                }
            }
        }

        if !progressed {
            return cur;
        }
    }
}

// ---------------------------------------------------------------------
// The fuzz driver
// ---------------------------------------------------------------------

/// Options for one [`fuzz`] run.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Number of seeds to try.
    pub seeds: u64,
    /// Wall-clock budget; generation stops at the first seed boundary
    /// past it.
    pub budget: Option<Duration>,
    /// Delta-minimize each divergence against the same oracle.
    pub minimize: bool,
    /// Oracle exploration bounds.
    pub limits: OracleLimits,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed_start: 0,
            seeds: 200,
            budget: None,
            minimize: true,
            limits: OracleLimits::default(),
        }
    }
}

/// One confirmed disagreement, with its reproducer.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Generator seed that produced it.
    pub seed: u64,
    /// What disagreed (configurations and reports, or the panic).
    pub detail: String,
    /// The full generated source.
    pub source: String,
    /// The minimized reproducer (when minimization ran), with a header
    /// comment naming the seed and the divergence.
    pub minimized: Option<String>,
}

/// Aggregate results of one [`fuzz`] run.
#[derive(Debug, Clone, Default)]
pub struct FuzzSummary {
    /// Seeds actually consumed (≤ `FuzzOptions::seeds` under a budget).
    pub seeds_run: u64,
    /// Programs generated and compiled.
    pub generated: usize,
    /// Generated programs skipped as content-hash duplicates.
    pub duplicates: usize,
    /// Generated programs the front end rejected (generator bugs).
    pub compile_failures: usize,
    /// Programs successfully closed.
    pub closed: usize,
    /// Programs that completed the fuzz slice of the oracle.
    pub checked: usize,
    /// Programs skipped because the baseline exploration truncated.
    pub too_big: usize,
    /// Programs whose stateless run was skipped.
    pub stateless_skipped: usize,
    /// Total exploration runs across all checked programs.
    pub explore_runs: usize,
    /// Engine/pipeline panics (also recorded as divergences).
    pub panics: usize,
    /// All divergences found (minimized when enabled).
    pub divergences: Vec<Divergence>,
    /// Wall time of the whole run.
    pub elapsed: Duration,
}

impl FuzzSummary {
    /// True when the run found nothing wrong.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty() && self.compile_failures == 0 && self.panics == 0
    }

    /// Events per second over the run's wall time.
    pub fn rate(&self, count: usize) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            count as f64 / secs
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for FuzzSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "seeds: {}, generated: {} ({} duplicate(s) skipped), closed: {}, checked: {}",
            self.seeds_run, self.generated, self.duplicates, self.closed, self.checked
        )?;
        writeln!(
            f,
            "explore runs: {}, too big: {}, stateless skipped: {}, elapsed: {:.2}s",
            self.explore_runs,
            self.too_big,
            self.stateless_skipped,
            self.elapsed.as_secs_f64()
        )?;
        writeln!(
            f,
            "rates: {:.1} generated/s, {:.1} closed/s, {:.1} checked/s",
            self.rate(self.generated),
            self.rate(self.closed),
            self.rate(self.checked)
        )?;
        if self.ok() {
            write!(f, "no divergences")
        } else {
            write!(
                f,
                "{} divergence(s), {} panic(s), {} compile failure(s)",
                self.divergences.len(),
                self.panics,
                self.compile_failures
            )
        }
    }
}

/// Run the corpus engine over `[seed_start, seed_start + seeds)`.
pub fn fuzz(opts: &FuzzOptions) -> FuzzSummary {
    let start = Instant::now();
    let mut summary = FuzzSummary::default();
    let mut dedupe = Dedupe::new();

    for seed in opts.seed_start..opts.seed_start.saturating_add(opts.seeds) {
        if let Some(budget) = opts.budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        summary.seeds_run += 1;
        let spec = gen_spec(seed);
        let src = render(&spec);

        let open = match cfgir::compile(&src) {
            Ok(p) => p,
            Err(d) => {
                summary.compile_failures += 1;
                summary.divergences.push(Divergence {
                    seed,
                    detail: format!("generated source does not compile:\n{d}"),
                    source: src,
                    minimized: None,
                });
                continue;
            }
        };
        summary.generated += 1;
        if !dedupe.admit(&open) {
            continue;
        }

        match close_and_check(&src, &opts.limits) {
            Ok(CheckOutcome::Agreement(runs)) => {
                summary.closed += 1;
                summary.checked += 1;
                summary.explore_runs += runs.legs.len();
                if runs.stateless_skipped {
                    summary.stateless_skipped += 1;
                }
            }
            Ok(CheckOutcome::TooBig) => {
                summary.closed += 1;
                summary.too_big += 1;
            }
            Err(detail) => {
                if detail.starts_with("panic during") {
                    summary.panics += 1;
                }
                let minimized = if opts.minimize {
                    let limits = opts.limits;
                    // Interesting = still a *toolchain* failure. A
                    // candidate the front end rejects (the minimizer
                    // freely drops declarations out from under uses) is
                    // not a smaller reproducer of anything.
                    let mut oracle = |s: &str| {
                        matches!(close_and_check(s, &limits),
                                 Err(d) if !d.starts_with("compile/close failed"))
                    };
                    let small = minimize(&spec, &mut oracle);
                    let first_line = detail.lines().next().unwrap_or("divergence");
                    Some(format!(
                        "// reclose fuzz reproducer (seed {seed})\n// {first_line}\n{}",
                        render(&small)
                    ))
                } else {
                    None
                };
                summary.divergences.push(Divergence {
                    seed,
                    detail,
                    source: src,
                    minimized,
                });
            }
        }
    }
    summary.duplicates = dedupe.duplicates;
    summary.elapsed = start.elapsed();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 7, 99] {
            assert_eq!(generate(seed), generate(seed));
        }
        assert_ne!(generate(3), generate(4));
    }

    #[test]
    fn generated_programs_compile_and_close_across_many_seeds() {
        let mut open_count = 0usize;
        for seed in 0..120u64 {
            let src = generate(seed);
            let prog = cfgir::compile(&src)
                .unwrap_or_else(|d| panic!("seed {seed}: invalid source:\n{d}\n{src}"));
            cfgir::validate(&prog).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            if prog.has_open_interface() {
                open_count += 1;
            }
            let closed = closer::close(&prog, &dataflow::analyze(&prog));
            assert!(closed.program.is_closed(), "seed {seed}");
            cfgir::validate(&closed.program)
                .unwrap_or_else(|e| panic!("seed {seed} closed: {e}\n{src}"));
        }
        // The corpus engine exists to exercise the *closing* pipeline:
        // most seeds must actually have an environment to close.
        assert!(open_count > 60, "only {open_count}/120 seeds were open");
    }

    #[test]
    fn generated_corpus_exercises_the_new_constructs() {
        let all: String = (0..120u64).map(generate).collect();
        for needle in ["spawn p", "chan_len(", "] = ", "extern chan", "VS_assert"] {
            assert!(all.contains(needle), "corpus never generates `{needle}`");
        }
    }

    #[test]
    fn stmt_count_counts_nested_statements() {
        let spec = ProgSpec {
            chans: vec![],
            exts: vec![],
            sink: false,
            inputs: vec![],
            procs: vec![ProcSpec {
                id: 0,
                params: 0,
                vars: vec![0],
                arrays: vec![],
                body: vec![
                    St::Set(0, Val::Const(1)),
                    St::If(
                        0,
                        2,
                        0,
                        vec![St::Add(0, Val::Const(1))],
                        vec![St::Loop(0, 2, vec![St::Assert(0, Cmp::Ge, 0)])],
                    ),
                ],
            }],
            starts: vec![Start {
                proc: 0,
                args: vec![],
            }],
        };
        assert_eq!(stmt_count(&spec), 5);
    }

    #[test]
    fn minimizer_reaches_small_reproducers_with_injected_fault() {
        // A deliberately broken oracle: "interesting" means the program
        // still sends on c0 somewhere after closing. The minimizer must
        // shrink arbitrary seeds to tiny witnesses (the acceptance bar
        // is <= 20 statements; these land far below it).
        let mut found = 0usize;
        for seed in 0..40u64 {
            let spec = gen_spec(seed);
            let mut oracle = |src: &str| {
                let Ok(p) = cfgir::compile(src) else {
                    return false;
                };
                let closed = closer::close(&p, &dataflow::analyze(&p));
                closed.program.procs.iter().any(|pr| {
                    pr.nodes.iter().any(|n| {
                        matches!(
                            &n.kind,
                            cfgir::NodeKind::Visible {
                                op: cfgir::VisOp::Send { chan, .. },
                                ..
                            } if closed.program.objects[chan.index()].name == "c0"
                        )
                    })
                })
            };
            if !oracle(&render(&spec)) {
                continue;
            }
            found += 1;
            let small = minimize(&spec, &mut oracle);
            assert!(
                oracle(&render(&small)),
                "seed {seed}: minimization lost the fault"
            );
            assert!(
                stmt_count(&small) <= 20,
                "seed {seed}: minimized to {} statements:\n{}",
                stmt_count(&small),
                render(&small)
            );
        }
        assert!(found >= 5, "only {found} seeds sent on c0");
    }

    #[test]
    fn fuzz_sweep_agrees_and_accounts_for_every_seed() {
        // A slice of the real matrix as a unit test; ci.sh runs the
        // larger deterministic sweep through `reclose fuzz`. Every seed
        // is generated or a compile failure, and every generated program
        // is checked, too big or a content-hash duplicate.
        let opts = FuzzOptions {
            seeds: 150,
            minimize: false,
            ..FuzzOptions::default()
        };
        let summary = fuzz(&opts);
        assert!(summary.ok() && summary.checked > 0, "{summary:#?}");
        assert_eq!(
            summary.generated + summary.compile_failures,
            summary.seeds_run as usize
        );
        assert_eq!(
            summary.checked + summary.too_big + summary.duplicates,
            summary.generated
        );
    }

    #[test]
    fn fuzz_budget_stops_early() {
        let opts = FuzzOptions {
            seeds: u64::MAX,
            budget: Some(Duration::from_millis(300)),
            ..FuzzOptions::default()
        };
        let summary = fuzz(&opts);
        assert!(summary.seeds_run < u64::MAX);
        assert!(summary.elapsed >= Duration::from_millis(300));
    }
}
