//! The stateless depth-first driver (VeriSoft's search).

use crate::executor::{ExecCtx, Executor, Scheduled, SuccOutcome};
use crate::interp::VisibleEvent;
use crate::report::{Decision, Report, Violation, ViolationKind};
use crate::state::GlobalState;
use std::collections::BTreeSet;

/// Depth-bounded stateless DFS with persistent sets and sleep sets; no
/// state is ever stored ([`Engine::Stateless`](super::Engine::Stateless)).
pub(super) fn dfs(exec: &Executor<'_>) -> Report {
    let mut w = StatelessWalk {
        cx: ExecCtx::new(exec, exec.config().max_transitions),
        exec,
        report: Report::default(),
        stop: false,
        path: Vec::new(),
        events: Vec::new(),
    };
    w.walk(exec.initial(), 0, BTreeSet::new());
    let StatelessWalk { cx, mut report, .. } = w;
    report.transitions = cx.transitions;
    report.truncated |= cx.truncated;
    report.shared_components = cx.shared_components;
    report.total_components = cx.total_components;
    report.tosses_taken = cx.tosses_taken;
    report.coverage = cx.coverage;
    report
}

/// The walk's state: the decision path and visible events from the
/// initial state to the node being visited, and the report so far.
struct StatelessWalk<'e, 'a> {
    exec: &'e Executor<'a>,
    cx: ExecCtx,
    report: Report,
    stop: bool,
    path: Vec<Decision>,
    events: Vec<VisibleEvent>,
}

impl StatelessWalk<'_, '_> {
    fn record_violation(&mut self, kind: ViolationKind, process: Option<usize>) {
        self.report.violations.push(Violation {
            kind,
            process,
            trace: self.path.clone(),
        });
        if self.report.violations.len() >= self.exec.config().max_violations {
            self.stop = true;
        }
    }

    fn record_trace_end(&mut self) {
        if self.exec.config().collect_traces {
            self.report.traces.insert(self.events.clone());
        }
    }

    fn walk(&mut self, state: GlobalState, depth: usize, sleep: BTreeSet<usize>) {
        if self.stop {
            return;
        }
        let cfg = self.exec.config();
        self.report.states += 1;
        self.report.max_depth_seen = self.report.max_depth_seen.max(depth);
        if depth >= cfg.max_depth {
            self.report.truncated = true;
            self.record_trace_end();
            return;
        }
        let (sched, skipped) = self.exec.schedule_por(&state);
        match sched {
            Scheduled::DeadEnd { deadlock } => {
                self.record_trace_end();
                if deadlock {
                    self.record_violation(ViolationKind::Deadlock, None);
                }
            }
            Scheduled::Init(pid) => {
                for (choices, outcome) in self.exec.successors(&mut self.cx, &state, pid) {
                    if self.stop || self.cx.truncated {
                        self.stop = true;
                        return;
                    }
                    self.path.push(Decision {
                        process: pid,
                        choices,
                    });
                    match outcome {
                        SuccOutcome::State(s, ev) => {
                            debug_assert!(ev.is_none(), "init transitions are invisible");
                            self.walk(*s, depth + 1, sleep.clone());
                        }
                        SuccOutcome::Violation(k, p) => self.record_violation(k, p),
                    }
                    self.path.pop();
                }
            }
            Scheduled::Procs(procs) => {
                let mut queue = procs;
                let mut done: Vec<usize> = Vec::new();
                let mut saw_violation = false;
                let mut fell_back = false;
                let mut i = 0;
                while i < queue.len() {
                    let t = queue[i];
                    i += 1;
                    if self.stop || self.cx.truncated {
                        self.stop = true;
                        return;
                    }
                    if !(cfg.sleep_sets && sleep.contains(&t)) {
                        let child_sleep: BTreeSet<usize> = if cfg.sleep_sets {
                            sleep
                                .iter()
                                .chain(done.iter())
                                .copied()
                                .filter(|u| self.exec.independent(&state, *u, t))
                                .collect()
                        } else {
                            BTreeSet::new()
                        };
                        let mut t_violated = false;
                        for (choices, outcome) in self.exec.successors(&mut self.cx, &state, t) {
                            if self.stop || self.cx.truncated {
                                self.stop = true;
                                return;
                            }
                            self.path.push(Decision {
                                process: t,
                                choices,
                            });
                            match outcome {
                                SuccOutcome::State(s, ev) => {
                                    let pushed = ev.is_some();
                                    if let Some(ev) = ev {
                                        self.events.push(ev);
                                    }
                                    self.walk(*s, depth + 1, child_sleep.clone());
                                    if pushed {
                                        self.events.pop();
                                    }
                                }
                                SuccOutcome::Violation(k, p) => {
                                    saw_violation = true;
                                    t_violated = true;
                                    self.record_violation(k, p);
                                }
                            }
                            self.path.pop();
                        }
                        // Sleep sets may treat `t` as "explored here"
                        // only if its whole subtree really was: a
                        // violation cut the branch, so `t` must keep
                        // appearing in the siblings' subtrees.
                        if !t_violated {
                            done.push(t);
                        }
                    }
                    // A violation transition has no successor state, so
                    // persistent-set reasoning (which assumes exploration
                    // continues past every selected transition) cannot
                    // justify dropping the skipped processes: a distinct
                    // violation simultaneously enabled in another process
                    // would be masked forever. Fall back to the full
                    // enabled set, mirroring the stateful drivers.
                    if !fell_back && i == queue.len() && saw_violation && !skipped.is_empty() {
                        fell_back = true;
                        queue.extend(skipped.iter().copied());
                    }
                }
                // When everything was pruned by sleep sets the path ends
                // here but is covered elsewhere; not a trace end.
            }
        }
    }
}
