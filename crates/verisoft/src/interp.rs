//! Transition execution.
//!
//! Per §2 of the paper, a *transition* is "one visible operation followed
//! by a finite sequence of invisible operations performed by a single
//! process and ending just before a visible operation". The interpreter
//! executes one transition of one process against a [`GlobalState`],
//! consuming a vector of nondeterministic choices (for `VS_toss` and — in
//! [`EnvMode::Enumerate`] — environment reads). When execution hits a
//! nondeterministic point beyond the supplied choices it reports
//! [`TransitionResult::NeedChoice`]; the search re-runs the transition
//! with each possible extension, which is exactly how a VeriSoft-style
//! scheduler observes and controls `VS_toss` operations.

use crate::coverage::Coverage;
use crate::state::{CowArc, Frame, GlobalState, ObjState, ProcState, Status};
use crate::value::{bin_op, un_op, EvalError, Value};
use cfgir::{
    CfgProgram, Guard, NodeId, NodeKind, ObjId, Operand, ProcId, PureExpr, Rvalue, SpawnArg, VisOp,
};
use std::sync::Arc;

/// How the open interface behaves at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnvMode {
    /// Execute a *closed* program: `recv` on an external channel yields
    /// the opaque value; `env_input` and environment-supplied spawn
    /// arguments are runtime errors. This is the mode for programs
    /// produced by the closing transformation.
    #[default]
    Closed,
    /// Compose the program with its most general environment `E_S` by
    /// *enumerating* declared input domains at every environment read —
    /// the naive closing of §3 of the paper. Every `env_input(x)`,
    /// external-channel `recv`, and input-valued spawn argument becomes a
    /// branch over the whole domain.
    Enumerate,
}

/// Interpreter limits.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Maximum invisible operations per transition before reporting
    /// divergence (paper footnote 1: VeriSoft reports a divergence when a
    /// process does not attempt a visible operation within a bound).
    pub invisible_step_bound: usize,
    /// Maximum call-stack depth.
    pub max_stack_depth: usize,
    /// Maximum live processes (static plus dynamically spawned); a
    /// `spawn` past this bound is a runtime error, which keeps state
    /// spaces of spawn-in-a-loop programs finite.
    pub max_procs: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            invisible_step_bound: 10_000,
            max_stack_depth: 256,
            max_procs: 64,
        }
    }
}

/// Runtime errors. In open-program runs these flag genuine defects; the
/// closing transformation may freely *remove* statements whose C behavior
/// is undefined (paper §5 discussion of run-time errors), so a closed
/// program can have fewer of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtError {
    /// Division or remainder by zero.
    DivByZero,
    /// `*p` where `p` does not hold an address.
    DerefNonPointer,
    /// `*p` where `p` holds an address into a popped frame.
    DanglingPointer,
    /// Arithmetic on an address value.
    ArithOnAddr,
    /// Branching on an opaque (or address) value — cannot happen in
    /// programs produced by the closing transformation (Lemma 5).
    BranchOnOpaque,
    /// `VS_toss` with a negative or non-integer bound.
    BadTossBound,
    /// `env_input` (or an input-valued spawn argument) reached in
    /// [`EnvMode::Closed`]: the program is still open.
    EnvReadInClosedMode,
    /// An input domain too large to enumerate as a choice bound.
    DomainTooLarge,
    /// Call-stack depth limit exceeded.
    StackOverflow,
    /// `VS_assert` applied to a non-integer value.
    AssertOnNonInt,
    /// `spawn` would exceed [`ExecLimits::max_procs`].
    TooManyProcesses,
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RtError::DivByZero => "division by zero",
            RtError::DerefNonPointer => "dereference of a non-pointer value",
            RtError::DanglingPointer => "dereference of a dangling pointer",
            RtError::ArithOnAddr => "arithmetic on an address",
            RtError::BranchOnOpaque => "branch on an opaque value",
            RtError::BadTossBound => "invalid VS_toss bound",
            RtError::EnvReadInClosedMode => {
                "environment read in closed mode (program is still open)"
            }
            RtError::DomainTooLarge => "input domain too large to enumerate",
            RtError::StackOverflow => "call stack overflow",
            RtError::AssertOnNonInt => "VS_assert on a non-integer value",
            RtError::TooManyProcesses => "process limit exceeded by spawn",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RtError {}

impl From<EvalError> for RtError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::DivByZero => RtError::DivByZero,
            EvalError::BranchOnNonInt(_) => RtError::BranchOnOpaque,
            EvalError::ArithOnAddr => RtError::ArithOnAddr,
        }
    }
}

/// A visible operation as observed by the scheduler (and recorded in
/// traces).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventOp {
    /// A value sent to a channel.
    Send(ObjId, Value),
    /// A value received from a channel.
    Recv(ObjId, Value),
    /// Semaphore decrement.
    SemWait(ObjId),
    /// Semaphore increment.
    SemSignal(ObjId),
    /// Shared-variable write.
    ShWrite(ObjId, Value),
    /// Shared-variable read.
    ShRead(ObjId, Value),
    /// A channel-length query.
    ChanLen(ObjId, Value),
    /// A passing assertion.
    AssertPass,
}

/// A visible event: which process performed which operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VisibleEvent {
    /// Index into [`CfgProgram::processes`].
    pub process: usize,
    /// The operation.
    pub op: EventOp,
}

/// Outcome of executing one transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitionResult {
    /// The transition completed; the process stopped before its next
    /// visible operation or terminated. `event` is `None` only for
    /// initialization transitions (the invisible prefix before the first
    /// visible operation).
    Completed {
        /// The visible operation performed, if any.
        event: Option<VisibleEvent>,
    },
    /// Execution hit a nondeterministic point with `bound` alternatives
    /// (`0..=bound`) beyond the supplied choices. The state is unspecified;
    /// re-run from a fresh clone with an extended choice vector.
    NeedChoice {
        /// Inclusive upper bound of the pending choice.
        bound: u32,
    },
    /// The transition's visible operation was a violated assertion.
    AssertViolation,
    /// A runtime error occurred.
    RuntimeError(RtError),
    /// The invisible-step bound was exceeded (livelock inside a
    /// transition).
    Diverged,
}

/// True when process `pid`'s next operation is enabled in `state`.
///
/// Enabledness depends only on the per-object operation history (§2), so
/// this inspects object state alone: internal `send` blocks on a full
/// queue, internal `recv` on an empty one, `sem_wait` on a zero count;
/// everything else — including every external-channel operation — is
/// always enabled. Processes positioned at invisible nodes
/// (initialization) are enabled; terminated processes are not.
pub fn enabled(prog: &CfgProgram, state: &GlobalState, pid: usize) -> bool {
    let ps = &state.procs[pid];
    let Status::AtNode(n) = ps.status else {
        return false;
    };
    let proc = prog.proc(ps.top().proc);
    match &proc.node(n).kind {
        NodeKind::Visible { op, .. } => match op {
            VisOp::Send { chan, .. } => match state.object(*chan) {
                ObjState::Chan { queue, cap } => {
                    cap.map(|c| queue.len() < c as usize).unwrap_or(true)
                }
                _ => unreachable!("send targets a channel"),
            },
            VisOp::Recv { chan } => match state.object(*chan) {
                ObjState::Chan { queue, cap } => cap.is_none() || !queue.is_empty(),
                _ => unreachable!("recv targets a channel"),
            },
            VisOp::SemWait(s) => match state.object(*s) {
                ObjState::Sem(c) => *c > 0,
                _ => unreachable!("sem_wait targets a semaphore"),
            },
            _ => true,
        },
        _ => true, // invisible position: initialization transition
    }
}

/// The communication object process `pid`'s next visible operation
/// touches, if any (used by partial-order reduction).
pub fn next_op_object(prog: &CfgProgram, state: &GlobalState, pid: usize) -> Option<ObjId> {
    let ps = &state.procs[pid];
    let Status::AtNode(n) = ps.status else {
        return None;
    };
    let proc = prog.proc(ps.top().proc);
    match &proc.node(n).kind {
        NodeKind::Visible { op, .. } => op.object(),
        _ => None,
    }
}

/// Execute one transition of process `pid`, mutating `state` in place.
///
/// `choices` scripts the nondeterministic points encountered, in order.
/// On [`TransitionResult::NeedChoice`] the state is garbage — re-run from
/// a fresh clone.
pub fn execute_transition(
    prog: &CfgProgram,
    state: &mut GlobalState,
    pid: usize,
    choices: &[u32],
    env_mode: EnvMode,
    limits: &ExecLimits,
) -> TransitionResult {
    execute_transition_with(prog, state, pid, choices, env_mode, limits, None)
}

/// [`execute_transition`] with an optional node-coverage sink: every node
/// executed (visible or invisible) is recorded per procedure.
#[allow(clippy::too_many_arguments)]
pub fn execute_transition_with(
    prog: &CfgProgram,
    state: &mut GlobalState,
    pid: usize,
    choices: &[u32],
    env_mode: EnvMode,
    limits: &ExecLimits,
    coverage: Option<&mut Coverage>,
) -> TransitionResult {
    execute_transition_noting_spawn(prog, state, pid, choices, env_mode, limits, coverage).0
}

/// [`execute_transition_with`], also saying whether the transition
/// reached a `Spawn` node. A spawn reads `procs.len()` against
/// [`ExecLimits::max_procs`] and appends a process, so it is the one
/// operation whose result is not a function of the running process and
/// the object of its leading visible operation alone — the frontier
/// engine's transition memo (DESIGN §15) must not record such a
/// transition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_transition_noting_spawn(
    prog: &CfgProgram,
    state: &mut GlobalState,
    pid: usize,
    choices: &[u32],
    env_mode: EnvMode,
    limits: &ExecLimits,
    coverage: Option<&mut Coverage>,
) -> (TransitionResult, bool) {
    let mut cx = Exec {
        prog,
        state,
        pid,
        choices,
        cursor: 0,
        env_mode,
        limits,
        coverage,
        spawned: false,
    };
    let result = cx.run();
    (result, cx.spawned)
}

struct Exec<'a> {
    prog: &'a CfgProgram,
    state: &'a mut GlobalState,
    pid: usize,
    choices: &'a [u32],
    cursor: usize,
    env_mode: EnvMode,
    limits: &'a ExecLimits,
    coverage: Option<&'a mut Coverage>,
    /// Set when a `Spawn` node is reached, whether or not it succeeds.
    spawned: bool,
}

enum Flow {
    Continue(NodeId),
    StopAtVisible(NodeId),
    Terminated,
}

type Exec1 = Result<Flow, TransitionResult>;

impl<'a> Exec<'a> {
    /// The running process, through the CoW mutation funnel: the
    /// component is copied here iff it is still shared with the parent
    /// snapshot.
    fn ps(&mut self) -> &mut ProcState {
        self.state.proc_mut(self.pid)
    }

    fn cover(&mut self, proc: ProcId, node: NodeId) {
        if let Some(c) = self.coverage.as_deref_mut() {
            c.visit(proc, node);
        }
    }

    fn cover_arc(&mut self, proc: ProcId, node: NodeId, arc: usize) {
        if let Some(c) = self.coverage.as_deref_mut() {
            c.visit_arc(proc, node, arc);
        }
    }

    fn run(&mut self) -> TransitionResult {
        // Bind environment-supplied spawn parameters on first activation.
        if let Err(r) = self.bind_pending_inputs() {
            return r;
        }
        let Status::AtNode(start) = self.state.procs[self.pid].status else {
            unreachable!("scheduler never runs a terminated process");
        };
        // Copy the program reference out of `self` so borrowing a node's
        // kind does not freeze `self`: kinds hold boxed expression trees,
        // and cloning one per step is the interpreter's largest cost.
        let prog = self.prog;
        let proc = prog.proc(self.state.procs[self.pid].top().proc);
        let mut event = None;
        let mut node = start;
        self.cover(proc.id, node);
        // Perform the leading visible operation, if we are stopped at one.
        if let NodeKind::Visible { op, dst } = &proc.node(node).kind {
            debug_assert!(enabled(self.prog, self.state, self.pid), "scheduler bug");
            match self.perform_visible(op, *dst) {
                Ok(ev) => event = Some(ev),
                Err(r) => return r,
            }
            node = match self.advance(proc.id, node) {
                Ok(n) => n,
                Err(r) => return r,
            };
        }
        // Invisible suffix.
        let mut steps = 0usize;
        loop {
            let proc_id = self.state.procs[self.pid].top().proc;
            let proc = prog.proc(proc_id);
            if matches!(proc.node(node).kind, NodeKind::Visible { .. }) {
                self.ps().status = Status::AtNode(node);
                return TransitionResult::Completed { event };
            }
            steps += 1;
            if steps > self.limits.invisible_step_bound {
                return TransitionResult::Diverged;
            }
            match self.step_invisible(proc_id, node) {
                Ok(Flow::Continue(n)) => node = n,
                Ok(Flow::StopAtVisible(n)) => {
                    self.ps().status = Status::AtNode(n);
                    return TransitionResult::Completed { event };
                }
                Ok(Flow::Terminated) => {
                    self.ps().status = Status::Terminated;
                    self.ps().frames.clear();
                    return TransitionResult::Completed { event };
                }
                Err(r) => return r,
            }
        }
    }

    fn bind_pending_inputs(&mut self) -> Result<(), TransitionResult> {
        let spec_idx = self.state.procs[self.pid].spec;
        // Borrow the spec through a copied-out program reference so the
        // binding loop below can mutate `self` while reading the args.
        let prog = self.prog;
        // Dynamically spawned processes have no static spec: their
        // arguments were bound at the spawn site.
        let Some(spec) = prog.processes.get(spec_idx) else {
            return Ok(());
        };
        // Already bound? Detect via a bound marker: the first transition is
        // the only one starting at the Start node with frames.len() == 1.
        let proc = prog.proc(spec.proc);
        let at_start = matches!(
            self.state.procs[self.pid].status,
            Status::AtNode(n) if n == proc.start
        ) && self.state.procs[self.pid].frames.len() == 1;
        if !at_start {
            return Ok(());
        }
        for (i, arg) in spec.args.iter().enumerate() {
            let param = proc.params[i];
            let value = match arg {
                SpawnArg::Const(v) => Value::Int(*v),
                SpawnArg::Input(inp) => match self.env_mode {
                    EnvMode::Closed => {
                        return Err(TransitionResult::RuntimeError(RtError::EnvReadInClosedMode))
                    }
                    EnvMode::Enumerate => {
                        let (lo, hi) = self.prog.inputs[inp.index()].domain;
                        Value::Int(self.domain_choice(lo, hi)?)
                    }
                },
            };
            Arc::make_mut(&mut self.ps().frames[0]).locals[param.index()] = value;
        }
        Ok(())
    }

    fn take_choice(&mut self, bound: u32) -> Result<u32, TransitionResult> {
        match self.choices.get(self.cursor) {
            Some(c) => {
                debug_assert!(*c <= bound, "scripted choice out of range");
                self.cursor += 1;
                Ok(*c)
            }
            None => Err(TransitionResult::NeedChoice { bound }),
        }
    }

    fn domain_choice(&mut self, lo: i64, hi: i64) -> Result<i64, TransitionResult> {
        let span = hi
            .checked_sub(lo)
            .filter(|s| *s >= 0 && *s < u32::MAX as i64);
        let Some(span) = span else {
            return Err(TransitionResult::RuntimeError(RtError::DomainTooLarge));
        };
        let c = self.take_choice(span as u32)?;
        Ok(lo + c as i64)
    }

    fn advance(&mut self, proc: ProcId, node: NodeId) -> Result<NodeId, TransitionResult> {
        let arcs = self.prog.proc(proc).arcs(node);
        debug_assert_eq!(arcs.len(), 1, "advance expects a single Always arc");
        Ok(arcs[0].target)
    }

    fn pick_arc(&mut self, proc: ProcId, node: NodeId, guard: Guard) -> NodeId {
        let i = self
            .prog
            .proc(proc)
            .arcs(node)
            .iter()
            .position(|a| a.guard == guard)
            .unwrap_or_else(|| panic!("validated graphs cover guard {guard}"));
        self.cover_arc(proc, node, i);
        self.prog.proc(proc).arcs(node)[i].target
    }

    fn eval_operand(&mut self, op: &Operand) -> Value {
        match op {
            Operand::Const(v) => Value::Int(*v),
            Operand::Var(v) => self.state.procs[self.pid].read(self.prog, *v),
        }
    }

    fn eval_pure(&mut self, e: &PureExpr) -> Result<Value, TransitionResult> {
        match e {
            PureExpr::Atom(op) => Ok(self.eval_operand(op)),
            PureExpr::Unary { op, expr } => {
                let v = self.eval_pure(expr)?;
                un_op(*op, v).map_err(|e| TransitionResult::RuntimeError(e.into()))
            }
            PureExpr::Binary { op, lhs, rhs } => {
                let l = self.eval_pure(lhs)?;
                let r = self.eval_pure(rhs)?;
                bin_op(*op, l, r).map_err(|e| TransitionResult::RuntimeError(e.into()))
            }
        }
    }

    fn write_place(&mut self, place: cfgir::Place, value: Value) -> Result<(), TransitionResult> {
        match place {
            cfgir::Place::Var(v) => {
                let prog = self.prog;
                self.ps().write(prog, v, value);
                Ok(())
            }
            cfgir::Place::Deref(p) => {
                let pv = self.state.procs[self.pid].read(self.prog, p);
                let Value::Addr(a) = pv else {
                    return Err(TransitionResult::RuntimeError(RtError::DerefNonPointer));
                };
                if self.ps().write_addr(a, value) {
                    Ok(())
                } else {
                    Err(TransitionResult::RuntimeError(RtError::DanglingPointer))
                }
            }
        }
    }

    fn step_invisible(&mut self, proc_id: ProcId, node: NodeId) -> Exec1 {
        self.cover(proc_id, node);
        // Borrow the node's kind through a copied-out program reference
        // (not through `self`), so the match below can call `&mut self`
        // helpers without cloning the kind — Assign/Cond/Switch/Return
        // kinds hold boxed expression trees, and a clone per invisible
        // step allocates in the hottest loop of every engine.
        let prog = self.prog;
        let proc = prog.proc(proc_id);
        match &proc.node(node).kind {
            NodeKind::Start => Ok(Flow::Continue(self.advance(proc_id, node)?)),
            NodeKind::Assign { dst, src } => {
                let value = match src {
                    Rvalue::Pure(e) => self.eval_pure(e)?,
                    Rvalue::Load(p) => {
                        let pv = self.state.procs[self.pid].read(self.prog, *p);
                        let Value::Addr(a) = pv else {
                            return Err(TransitionResult::RuntimeError(RtError::DerefNonPointer));
                        };
                        self.state.procs[self.pid]
                            .read_addr(a)
                            .ok_or(TransitionResult::RuntimeError(RtError::DanglingPointer))?
                    }
                    Rvalue::AddrOf(v) => {
                        Value::Addr(self.state.procs[self.pid].addr_of(self.prog, *v))
                    }
                    Rvalue::Toss(bound_op) => {
                        let b = self.eval_operand(bound_op);
                        let Some(b) = b.as_int().filter(|b| *b >= 0 && *b <= u32::MAX as i64)
                        else {
                            return Err(TransitionResult::RuntimeError(RtError::BadTossBound));
                        };
                        let c = self.take_choice(b as u32)?;
                        Value::Int(c as i64)
                    }
                    Rvalue::EnvInput(inp) => match self.env_mode {
                        EnvMode::Closed => {
                            return Err(TransitionResult::RuntimeError(
                                RtError::EnvReadInClosedMode,
                            ))
                        }
                        EnvMode::Enumerate => {
                            let (lo, hi) = self.prog.inputs[inp.index()].domain;
                            Value::Int(self.domain_choice(lo, hi)?)
                        }
                    },
                };
                self.write_place(*dst, value)?;
                Ok(Flow::Continue(self.advance(proc_id, node)?))
            }
            NodeKind::Cond { expr } => {
                let v = self.eval_pure(expr)?;
                let Some(b) = v.truthy() else {
                    return Err(TransitionResult::RuntimeError(RtError::BranchOnOpaque));
                };
                Ok(Flow::Continue(self.pick_arc(
                    proc_id,
                    node,
                    Guard::BoolEq(b),
                )))
            }
            NodeKind::Switch { expr } => {
                let v = self.eval_pure(expr)?;
                let Some(v) = v.as_int() else {
                    return Err(TransitionResult::RuntimeError(RtError::BranchOnOpaque));
                };
                let arcs = proc.arcs(node);
                let i = arcs
                    .iter()
                    .position(|a| a.guard == Guard::CaseEq(v))
                    .or_else(|| arcs.iter().position(|a| a.guard == Guard::CaseElse))
                    .expect("validated switches have an else arc");
                self.cover_arc(proc_id, node, i);
                Ok(Flow::Continue(arcs[i].target))
            }
            NodeKind::TossCond { bound } => {
                let c = self.take_choice(*bound)?;
                Ok(Flow::Continue(self.pick_arc(
                    proc_id,
                    node,
                    Guard::TossEq(c),
                )))
            }
            NodeKind::Call { callee, args, dst } => {
                if self.state.procs[self.pid].frames.len() >= self.limits.max_stack_depth {
                    return Err(TransitionResult::RuntimeError(RtError::StackOverflow));
                }
                let target = prog.proc(*callee);
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| self.state.procs[self.pid].read(self.prog, *a))
                    .collect();
                let cont = self.advance(proc_id, node)?;
                let mut locals = vec![Value::default(); target.vars.len()];
                for (pv, v) in target.params.iter().zip(arg_values) {
                    locals[pv.index()] = v;
                }
                self.ps().frames.push(Arc::new(Frame {
                    proc: *callee,
                    locals,
                    ret_dst: *dst,
                    cont: Some(cont),
                }));
                Ok(Flow::Continue(target.start))
            }
            NodeKind::Return { value } => {
                let v = match value {
                    Some(e) => Some(self.eval_pure(e)?),
                    None => None,
                };
                let frame = self.ps().frames.pop().expect("running process has a frame");
                match frame.cont {
                    None => Ok(Flow::Terminated),
                    Some(cont) => {
                        if let Some(dst) = frame.ret_dst {
                            // A valueless return consumed as a value reads
                            // as 0 (C garbage made deterministic).
                            let v = v.unwrap_or(Value::Int(0));
                            let prog = self.prog;
                            self.ps().write(prog, dst, v);
                        }
                        Ok(Flow::Continue(cont))
                    }
                }
            }
            NodeKind::Spawn { callee, args } => {
                self.spawned = true;
                if self.state.procs.len() >= self.limits.max_procs {
                    return Err(TransitionResult::RuntimeError(RtError::TooManyProcesses));
                }
                let target = prog.proc(*callee);
                let arg_values: Vec<Value> = args
                    .iter()
                    .map(|a| self.state.procs[self.pid].read(self.prog, *a))
                    .collect();
                let mut locals = vec![Value::default(); target.vars.len()];
                for (pv, v) in target.params.iter().zip(arg_values) {
                    locals[pv.index()] = v;
                }
                // The child gets its own per-process globals at their
                // initial values, like every statically declared process.
                let globals: Arc<Vec<Value>> =
                    Arc::new(prog.globals.iter().map(|g| Value::Int(g.initial)).collect());
                self.state.procs.push(CowArc::new(ProcState {
                    spec: crate::state::dynamic_spec(prog, *callee),
                    globals,
                    frames: vec![Arc::new(Frame {
                        proc: *callee,
                        locals,
                        ret_dst: None,
                        cont: None,
                    })],
                    status: Status::AtNode(target.start),
                }));
                Ok(Flow::Continue(self.advance(proc_id, node)?))
            }
            NodeKind::Visible { .. } => Ok(Flow::StopAtVisible(node)),
        }
    }

    fn perform_visible(
        &mut self,
        op: &VisOp,
        dst: Option<cfgir::VarId>,
    ) -> Result<VisibleEvent, TransitionResult> {
        let pid = self.pid;
        let ev = match *op {
            VisOp::Send { chan, val } => {
                let v = val.map(|o| self.eval_operand(&o)).unwrap_or(Value::Opaque);
                // External (capacity-less) channels absorb outputs — the
                // most general environment accepts anything — so they are
                // never mutated (and never copied out of sharing).
                match self.state.object(chan) {
                    ObjState::Chan { cap: Some(_), .. } => {
                        match self.state.object_mut(chan.index()) {
                            ObjState::Chan {
                                queue,
                                cap: Some(c),
                            } => {
                                debug_assert!(queue.len() < *c as usize, "send enabled");
                                queue.push_back(v);
                            }
                            _ => unreachable!("object kinds are immutable"),
                        }
                    }
                    ObjState::Chan { cap: None, .. } => {}
                    _ => unreachable!("send targets a channel"),
                }
                EventOp::Send(chan, v)
            }
            VisOp::Recv { chan } => {
                let is_external =
                    matches!(self.state.object(chan), ObjState::Chan { cap: None, .. });
                let v = if is_external {
                    match self.env_mode {
                        EnvMode::Closed => Value::Opaque,
                        EnvMode::Enumerate => {
                            let (lo, hi) = self.prog.objects[chan.index()].domain.unwrap_or((0, 0));
                            Value::Int(self.domain_choice(lo, hi)?)
                        }
                    }
                } else {
                    match self.state.object_mut(chan.index()) {
                        ObjState::Chan { queue, .. } => queue.pop_front().expect("recv enabled"),
                        _ => unreachable!("recv targets a channel"),
                    }
                };
                if let Some(d) = dst {
                    let prog = self.prog;
                    self.ps().write(prog, d, v);
                }
                EventOp::Recv(chan, v)
            }
            VisOp::SemWait(s) => {
                match self.state.object_mut(s.index()) {
                    ObjState::Sem(c) => {
                        debug_assert!(*c > 0, "sem_wait enabled");
                        *c -= 1;
                    }
                    _ => unreachable!("sem_wait targets a semaphore"),
                }
                EventOp::SemWait(s)
            }
            VisOp::SemSignal(s) => {
                match self.state.object_mut(s.index()) {
                    ObjState::Sem(c) => *c += 1,
                    _ => unreachable!("sem_signal targets a semaphore"),
                }
                EventOp::SemSignal(s)
            }
            VisOp::ShWrite { var, val } => {
                let v = val.map(|o| self.eval_operand(&o)).unwrap_or(Value::Opaque);
                match self.state.object_mut(var.index()) {
                    ObjState::Shared(slot) => *slot = v,
                    _ => unreachable!("sh_write targets a shared variable"),
                }
                EventOp::ShWrite(var, v)
            }
            VisOp::ShRead(var) => {
                let v = match self.state.object(var) {
                    ObjState::Shared(slot) => *slot,
                    _ => unreachable!("sh_read targets a shared variable"),
                };
                if let Some(d) = dst {
                    let prog = self.prog;
                    self.ps().write(prog, d, v);
                }
                EventOp::ShRead(var, v)
            }
            VisOp::ChanLen(chan) => {
                let v = match self.state.object(chan) {
                    ObjState::Chan { queue, .. } => Value::Int(queue.len() as i64),
                    _ => unreachable!("chan_len targets a channel"),
                };
                if let Some(d) = dst {
                    let prog = self.prog;
                    self.ps().write(prog, d, v);
                }
                EventOp::ChanLen(chan, v)
            }
            VisOp::Assert { cond } => {
                match cond {
                    // A vacuous assertion (argument eliminated by the
                    // transformation) never fires.
                    None => EventOp::AssertPass,
                    Some(o) => {
                        let v = self.eval_operand(&o);
                        match v {
                            Value::Int(0) => return Err(TransitionResult::AssertViolation),
                            Value::Int(_) => EventOp::AssertPass,
                            _ => {
                                return Err(TransitionResult::RuntimeError(RtError::AssertOnNonInt))
                            }
                        }
                    }
                }
            }
        };
        Ok(VisibleEvent {
            process: pid,
            op: ev,
        })
    }
}
