//! Execution histories and the well-formedness checker.
//!
//! A history is the paper's `t0 -s0-> t1 -s1-> …` sequence: the
//! [`ObsEvent::Stmt`] events of a run's observability [`Trace`] (plus its
//! release, crash and recover events), under a header of the kernel's
//! process table. The [`check_well_formed`] oracle revalidates,
//! independently of the kernel's scheduling logic, that a history satisfies
//! the paper's well-formedness condition (Sec. 2):
//!
//! * **Axiom 1** — no statement executes while a higher-priority process on
//!   the same processor is ready, and
//! * **Axiom 2** — whenever a process is preempted by an equal-priority
//!   process, it had either executed at least `Q` statements in its current
//!   window, completed its object invocation, or was in its arbitrary-
//!   alignment *first* window.

use std::collections::BTreeMap;

use crate::ids::{ProcessId, ProcessorId, Priority};
use crate::obs::{ObsEvent, Trace};

/// What a recorded statement did to its process's invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StmtEffect {
    /// The invocation continues.
    Continue,
    /// The statement completed an object invocation; the process remains.
    InvocationEnd,
    /// The statement completed the process's final invocation.
    Finished,
}

/// Static description of one process, recorded in the history header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProcInfo {
    /// The process id.
    pub pid: ProcessId,
    /// The processor it is pinned to.
    pub cpu: ProcessorId,
    /// Its (static) priority.
    pub prio: Priority,
    /// Whether it starts held (ineligible until released).
    pub held: bool,
}

/// An execution history: a header describing the system plus the run's
/// observability [`Trace`], whose [`ObsEvent::Stmt`],
/// [`ObsEvent::Release`], [`ObsEvent::Crash`] and [`ObsEvent::Recover`]
/// events are the statement sequence (see
/// [`Kernel::history`](crate::kernel::Kernel::history)).
///
/// Histories compare with `==`, which resolves statement labels through
/// each side's symbol table (see [`Trace`]'s `==`), so histories of
/// separately recorded runs compare safely.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History {
    /// The scheduling quantum `Q` the run was configured with.
    pub quantum: u32,
    /// Static process table.
    pub procs: Vec<ProcInfo>,
    /// The recorded events, in execution order.
    pub trace: Trace,
}

/// A violation of the well-formedness condition found by
/// [`check_well_formed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A statement executed while a higher-priority process on the same
    /// processor was ready (violates Axiom 1).
    PriorityInversion {
        /// Time of the offending statement.
        t: u64,
        /// The process that executed it.
        running: ProcessId,
        /// The ready higher-priority process that should have run.
        ready_higher: ProcessId,
    },
    /// A process was preempted by an equal-priority process before
    /// exhausting its quantum window, mid-invocation, outside its first
    /// window (violates Axiom 2).
    QuantumViolation {
        /// Time of the statement by the preempting process.
        t: u64,
        /// The process that was unlawfully preempted.
        victim: ProcessId,
        /// The equal-priority process that ran too early.
        preemptor: ProcessId,
        /// Statements the victim had executed in its window.
        executed: u64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::PriorityInversion { t, running, ready_higher } => write!(
                f,
                "t={t}: {running} executed while higher-priority {ready_higher} was ready"
            ),
            Violation::QuantumViolation { t, victim, preemptor, executed } => write!(
                f,
                "t={t}: {victim} quantum-preempted by {preemptor} after only {executed} statements"
            ),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum PStatus {
    Held,
    Ready,
    Finished,
    Crashed,
}

/// Replays `h` and returns the first well-formedness violation, if any.
///
/// This checker is deliberately independent of the kernel's dispatch code:
/// it reconstructs ready sets and quantum windows purely from the header
/// and the statement, release, crash and recover events, so it doubles as
/// a regression oracle for the scheduler itself.
///
/// # Errors
///
/// Returns the first [`Violation`] encountered, in event order.
pub fn check_well_formed(h: &History) -> Result<(), Violation> {
    let by_pid: BTreeMap<ProcessId, ProcInfo> =
        h.procs.iter().map(|p| (p.pid, *p)).collect();
    let mut status: BTreeMap<ProcessId, PStatus> = h
        .procs
        .iter()
        .map(|p| (p.pid, if p.held { PStatus::Held } else { PStatus::Ready }))
        .collect();
    // Process p is "mid-invocation" once it has executed a statement whose
    // effect was Continue, until an invocation boundary.
    let mut mid_invocation: BTreeMap<ProcessId, bool> = Default::default();
    // Per (cpu, prio) quantum window: holder, own statements, and whether
    // this is the holder's first window ever.
    struct Window {
        holder: ProcessId,
        count: u64,
        first: bool,
        open: bool,
    }
    let mut windows: BTreeMap<(ProcessorId, Priority), Window> = Default::default();
    let mut ever_dispatched: BTreeMap<ProcessId, bool> = Default::default();

    // Decision, window and preemption events are the kernel's own account
    // of its dispatch, so they are not read.
    for ev in &h.trace.events {
        match *ev {
            ObsEvent::Release { pid, .. } | ObsEvent::Recover { pid, .. } => {
                status.insert(pid, PStatus::Ready);
            }
            ObsEvent::Crash { pid, .. } => {
                // A crashed process is not ready (Axiom 1 no longer obliges
                // its processor to run it), its partial invocation is
                // discarded, and any window it holds ends.
                status.insert(pid, PStatus::Crashed);
                mid_invocation.insert(pid, false);
                let p = &by_pid[&pid];
                if let Some(w) = windows.get_mut(&(p.cpu, p.prio)) {
                    if w.holder == pid {
                        w.open = false;
                    }
                }
            }
            ObsEvent::Stmt { t, pid, cpu, prio, effect, .. } => {
                // Axiom 1: no ready higher-priority process on this cpu.
                for (qid, info) in &by_pid {
                    if info.cpu == cpu
                        && info.prio > prio
                        && status.get(qid) == Some(&PStatus::Ready)
                    {
                        return Err(Violation::PriorityInversion {
                            t,
                            running: pid,
                            ready_higher: *qid,
                        });
                    }
                }
                // Axiom 2: window accounting at (cpu, prio).
                let key = (cpu, prio);
                let first = !ever_dispatched.get(&pid).copied().unwrap_or(false);
                ever_dispatched.insert(pid, true);
                match windows.get_mut(&key) {
                    Some(w) if w.open && w.holder == pid => {
                        w.count += 1;
                    }
                    Some(w) if w.open => {
                        // Same-priority switch: lawful only if the previous
                        // holder exhausted a full quantum, completed its
                        // invocation (window would be closed then), was in
                        // its first window, or is gone.
                        let victim_mid = mid_invocation.get(&w.holder).copied().unwrap_or(false)
                            && status.get(&w.holder) == Some(&PStatus::Ready);
                        if victim_mid && !w.first && w.count < u64::from(h.quantum) {
                            return Err(Violation::QuantumViolation {
                                t,
                                victim: w.holder,
                                preemptor: pid,
                                executed: w.count,
                            });
                        }
                        *w = Window { holder: pid, count: 1, first, open: true };
                    }
                    _ => {
                        windows.insert(key, Window { holder: pid, count: 1, first, open: true });
                    }
                }
                match effect {
                    StmtEffect::Continue => {
                        mid_invocation.insert(pid, true);
                    }
                    StmtEffect::InvocationEnd => {
                        mid_invocation.insert(pid, false);
                        if let Some(w) = windows.get_mut(&key) {
                            if w.holder == pid {
                                w.open = false;
                            }
                        }
                    }
                    StmtEffect::Finished => {
                        mid_invocation.insert(pid, false);
                        status.insert(pid, PStatus::Finished);
                        if let Some(w) = windows.get_mut(&key) {
                            if w.holder == pid {
                                w.open = false;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;

    fn info(pid: u32, cpu: u32, prio: u32) -> ProcInfo {
        ProcInfo {
            pid: ProcessId(pid),
            cpu: ProcessorId(cpu),
            prio: Priority(prio),
            held: false,
        }
    }

    fn stmt(t: u64, pid: u32, cpu: u32, prio: u32, effect: StmtEffect) -> ObsEvent {
        ObsEvent::Stmt {
            t,
            pid: ProcessId(pid),
            cpu: ProcessorId(cpu),
            prio: Priority(prio),
            effect,
            label: Sym::EMPTY,
        }
    }

    fn hist(quantum: u32, procs: Vec<ProcInfo>, events: Vec<ObsEvent>) -> History {
        History { quantum, procs, trace: Trace { events, ..Trace::default() } }
    }

    #[test]
    fn empty_history_is_well_formed() {
        let h = hist(4, vec![], vec![]);
        assert_eq!(check_well_formed(&h), Ok(()));
    }

    #[test]
    fn detects_priority_inversion() {
        // p1 has priority 2 and is ready, yet p0 (priority 1) executes.
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 2)], vec![stmt(0, 0, 0, 1, StmtEffect::Continue)]);
        match check_well_formed(&h) {
            Err(Violation::PriorityInversion { running, ready_higher, .. }) => {
                assert_eq!(running, ProcessId(0));
                assert_eq!(ready_higher, ProcessId(1));
            }
            other => panic!("expected priority inversion, got {other:?}"),
        }
    }

    #[test]
    fn held_higher_priority_process_is_not_ready() {
        let mut hi = info(1, 0, 2);
        hi.held = true;
        let h = hist(4, vec![info(0, 0, 1), hi], vec![stmt(0, 0, 0, 1, StmtEffect::Continue)]);
        assert_eq!(check_well_formed(&h), Ok(()));
    }

    #[test]
    fn release_makes_higher_priority_ready() {
        let mut hi = info(1, 0, 2);
        hi.held = true;
        let h = hist(4, vec![info(0, 0, 1), hi], vec![
                ObsEvent::Release { t: 0, pid: ProcessId(1) },
                stmt(1, 0, 0, 1, StmtEffect::Continue),
            ]);
        assert!(matches!(
            check_well_formed(&h),
            Err(Violation::PriorityInversion { .. })
        ));
    }

    #[test]
    fn first_window_preemption_is_lawful() {
        // p0 runs one statement (first window), then p1 runs: fine.
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 1)], vec![
                stmt(0, 0, 0, 1, StmtEffect::Continue),
                stmt(1, 1, 0, 1, StmtEffect::Continue),
            ]);
        assert_eq!(check_well_formed(&h), Ok(()));
    }

    #[test]
    fn second_window_preemption_before_quantum_is_violation() {
        // p0: 1 stmt (first window, preempted), p1: 4 stmts (full quantum),
        // p0: 2 stmts (second window), p1 preempts early -> violation.
        let mut events = vec![stmt(0, 0, 0, 1, StmtEffect::Continue)];
        for t in 1..5 {
            events.push(stmt(t, 1, 0, 1, StmtEffect::Continue));
        }
        events.push(stmt(5, 0, 0, 1, StmtEffect::Continue));
        events.push(stmt(6, 0, 0, 1, StmtEffect::Continue));
        events.push(stmt(7, 1, 0, 1, StmtEffect::Continue)); // too early
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 1)], events);
        match check_well_formed(&h) {
            Err(Violation::QuantumViolation { victim, executed, .. }) => {
                assert_eq!(victim, ProcessId(0));
                assert_eq!(executed, 2);
            }
            other => panic!("expected quantum violation, got {other:?}"),
        }
    }

    #[test]
    fn switch_after_full_quantum_is_lawful() {
        let mut events = Vec::new();
        for t in 0..4 {
            events.push(stmt(t, 0, 0, 1, StmtEffect::Continue));
        }
        events.push(stmt(4, 1, 0, 1, StmtEffect::Continue));
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 1)], events);
        assert_eq!(check_well_formed(&h), Ok(()));
    }

    #[test]
    fn switch_at_invocation_end_is_lawful() {
        let events = vec![
            stmt(0, 0, 0, 1, StmtEffect::Continue),
            stmt(1, 0, 0, 1, StmtEffect::InvocationEnd),
            stmt(2, 1, 0, 1, StmtEffect::Continue),
        ];
        let h = hist(8, vec![info(0, 0, 1), info(1, 0, 1)], events);
        assert_eq!(check_well_formed(&h), Ok(()));
    }

    #[test]
    fn higher_priority_interleaving_does_not_reset_protection() {
        // p0 (prio 1) runs 1 stmt in its SECOND window, p2 (prio 2, other
        // level) interleaves, then p1 (prio 1) preempts p0 -> violation:
        // higher-priority preemption must not enable a same-priority switch.
        let mut events = vec![
            // first window of p0: 1 stmt, preempted by p1 lawfully
            stmt(0, 0, 0, 1, StmtEffect::Continue),
            stmt(1, 1, 0, 1, StmtEffect::Continue),
        ];
        // p1 completes quantum so switching back to p0 is lawful
        for t in 2..5 {
            events.push(stmt(t, 1, 0, 1, StmtEffect::Continue));
        }
        events.push(stmt(5, 0, 0, 1, StmtEffect::Continue)); // p0 second window
        // p2 at higher priority becomes ready via release and runs
        events.push(ObsEvent::Release { t: 6, pid: ProcessId(2) });
        events.push(stmt(6, 2, 0, 2, StmtEffect::Finished));
        events.push(stmt(7, 1, 0, 1, StmtEffect::Continue)); // unlawful
        let mut p2 = info(2, 0, 2);
        p2.held = true;
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 1), p2], events);
        assert!(matches!(check_well_formed(&h), Err(Violation::QuantumViolation { .. })));
    }

    #[test]
    fn crashed_higher_priority_process_is_not_ready() {
        let p1 = ProcessId(1);
        // A crashed higher-priority process does not oblige its processor.
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 2)], vec![
            ObsEvent::Crash { t: 0, pid: p1 },
            stmt(0, 0, 0, 1, StmtEffect::Continue),
        ]);
        assert_eq!(check_well_formed(&h), Ok(()));
        // After recovery it is ready again, so Axiom 1 applies.
        let h2 = hist(4, vec![info(0, 0, 1), info(1, 0, 2)], vec![
            ObsEvent::Crash { t: 0, pid: p1 },
            ObsEvent::Recover { t: 1, pid: p1 },
            stmt(1, 0, 0, 1, StmtEffect::Continue),
        ]);
        assert!(matches!(
            check_well_formed(&h2),
            Err(Violation::PriorityInversion { .. })
        ));
    }

    #[test]
    fn crash_closes_the_victims_window() {
        // p0 crashes 2 statements into its window; p1 stepping next is a
        // lawful switch, not a quantum violation.
        let mut events = vec![
            // p0 exhausts a first window lawfully, p1 a full quantum, then
            // p0's SECOND window is cut short by a crash.
            stmt(0, 0, 0, 1, StmtEffect::Continue),
        ];
        for t in 1..5 {
            events.push(stmt(t, 1, 0, 1, StmtEffect::Continue));
        }
        events.push(stmt(5, 0, 0, 1, StmtEffect::Continue));
        events.push(stmt(6, 0, 0, 1, StmtEffect::Continue));
        events.push(ObsEvent::Crash { t: 7, pid: ProcessId(0) });
        events.push(stmt(7, 1, 0, 1, StmtEffect::Continue));
        let h = hist(4, vec![info(0, 0, 1), info(1, 0, 1)], events);
        assert_eq!(check_well_formed(&h), Ok(()));
    }
}
