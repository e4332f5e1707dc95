//! Human-readable rendering of violation traces.
//!
//! VeriSoft pairs state-space exploration with deterministic *replay* so a
//! developer can step through a reported scenario. [`explain_violation`]
//! replays a [`Violation`]'s decision trace and renders each transition —
//! process name, visible operation with object names, toss choices — ending
//! with the violation itself.

use crate::interp::{execute_transition, EnvMode, EventOp, TransitionResult};
use crate::report::Violation;
use crate::state::GlobalState;
use crate::value::Value;
use cfgir::{CfgProgram, ObjId};
use std::fmt::Write as _;

fn obj_name(prog: &CfgProgram, o: ObjId) -> &str {
    &prog.objects[o.index()].name
}

fn render_value(v: Value) -> String {
    v.to_string()
}

fn render_op(prog: &CfgProgram, op: &EventOp) -> String {
    match op {
        EventOp::Send(o, v) => format!("send({}, {})", obj_name(prog, *o), render_value(*v)),
        EventOp::Recv(o, v) => format!("recv({}) = {}", obj_name(prog, *o), render_value(*v)),
        EventOp::SemWait(o) => format!("sem_wait({})", obj_name(prog, *o)),
        EventOp::SemSignal(o) => format!("sem_signal({})", obj_name(prog, *o)),
        EventOp::ShWrite(o, v) => {
            format!("sh_write({}, {})", obj_name(prog, *o), render_value(*v))
        }
        EventOp::ShRead(o, v) => {
            format!("sh_read({}) = {}", obj_name(prog, *o), render_value(*v))
        }
        EventOp::ChanLen(o, v) => {
            format!("chan_len({}) = {}", obj_name(prog, *o), render_value(*v))
        }
        EventOp::AssertPass => "VS_assert(...) passed".to_string(),
    }
}

/// Replay `violation`'s trace against `prog` and render a step-by-step
/// scenario. Robust against stale traces: replay mismatches are reported
/// in the output rather than panicking.
pub fn explain_violation(prog: &CfgProgram, violation: &Violation, env_mode: EnvMode) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "violation: {}", violation.kind);
    let (body, state) = render_schedule(prog, &violation.trace, env_mode);
    out.push_str(&body);
    // Final-state summary for deadlocks.
    if violation.kind == crate::report::ViolationKind::Deadlock {
        if let Some(state) = state {
            let _ = writeln!(out, "  final state: all processes blocked:");
            for (pid, ps) in state.procs.iter().enumerate() {
                let pname = crate::state::spec_display_name(prog, ps.spec);
                let status = match ps.status {
                    crate::state::Status::Terminated => "terminated".to_string(),
                    crate::state::Status::AtNode(n) => {
                        let proc = prog.proc(ps.top().proc);
                        format!(
                            "blocked at {}",
                            cfgir::canon::render_kind_public(&proc.node(n).kind, &|v| proc
                                .var(v)
                                .name
                                .clone())
                        )
                    }
                };
                let _ = writeln!(out, "    P{pid} {pname}: {status}");
            }
        }
    }
    out
}

/// Replay an arbitrary decision schedule and render each transition.
/// Returns the rendering and — when the whole schedule replayed to
/// completed transitions — the final state.
pub fn render_schedule(
    prog: &CfgProgram,
    trace: &[crate::report::Decision],
    env_mode: EnvMode,
) -> (String, Option<GlobalState>) {
    let mut out = String::new();
    let mut state = GlobalState::initial(prog);
    for (i, d) in trace.iter().enumerate() {
        // Name via the process's spec in the *current* state, so
        // dynamically spawned instances render as `proc*`.
        let pname = state
            .procs
            .get(d.process)
            .map(|p| crate::state::spec_display_name(prog, p.spec))
            .unwrap_or_else(|| "?".to_string());
        let choices = if d.choices.is_empty() {
            String::new()
        } else {
            format!(
                " (choices: {})",
                d.choices
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        if d.process >= state.procs.len() {
            let _ = writeln!(out, "  {:>3}. <no such process P{}>", i + 1, d.process);
            return (out, None);
        }
        match execute_transition(prog, &mut state, d.process, &d.choices, env_mode) {
            TransitionResult::Completed { event } => {
                let what = event
                    .map(|e| render_op(prog, &e.op))
                    .unwrap_or_else(|| "(initialization)".into());
                let _ = writeln!(out, "  {:>3}. {pname}: {what}{choices}", i + 1);
            }
            TransitionResult::AssertViolation => {
                let _ = writeln!(out, "  {:>3}. {pname}: VS_assert VIOLATED{choices}", i + 1);
                return (out, None);
            }
            TransitionResult::RuntimeError(e) => {
                let _ = writeln!(out, "  {:>3}. {pname}: runtime error: {e}{choices}", i + 1);
                return (out, None);
            }
            TransitionResult::Diverged => {
                let _ = writeln!(out, "  {:>3}. {pname}: DIVERGES{choices}", i + 1);
                return (out, None);
            }
            TransitionResult::NeedChoice { bound } => {
                let _ = writeln!(
                    out,
                    "  {:>3}. {pname}: <needs a choice 0..={bound} here>{choices}",
                    i + 1
                );
                return (out, None);
            }
        }
    }
    (out, Some(state))
}
