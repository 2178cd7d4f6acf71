//! Interleaving-diagram rendering, in the style of the paper's Figs. 1–2.
//!
//! Figure 1 of the paper depicts "accesses to a common object by three
//! processes running on the same processor", with object invocations shown
//! between brackets `[` and `]` and time running left to right. Figure 2 is
//! "a closer look" at the same interleaving with quantum boundaries made
//! visible. [`render`] produces the same picture from a recorded
//! [`History`]:
//!
//! ```text
//! p2      [--]
//! p1    [-...----]
//! p0  [-....-------]
//!     |     Q     |     Q
//! ```
//!
//! Legend: `[` first statement of an invocation, `]` last, `-` statement
//! execution, `.` preempted mid-invocation, space = thinking / not started.

use std::collections::BTreeMap;

use crate::history::{History, StmtEffect};
use crate::ids::ProcessId;
use crate::obs::ObsEvent;

/// Rendering options for [`render`].
#[derive(Clone, Copy, Debug)]
pub struct TraceStyle {
    /// Draw a bottom ruler marking every `quantum`-statement boundary
    /// (the paper's Fig. 2 view). When `false` the abstract Fig. 1 view is
    /// produced.
    pub quantum_ruler: bool,
    /// Column width cap; longer histories are truncated with `…`.
    pub max_cols: usize,
}

impl Default for TraceStyle {
    fn default() -> Self {
        TraceStyle { quantum_ruler: false, max_cols: 240 }
    }
}

/// Renders `history` as a multi-line interleaving diagram.
///
/// One row per process (highest pid on top, matching the paper's figures
/// where the highest-priority process `r` is drawn on top), one column per
/// global statement.
pub fn render(history: &History, style: TraceStyle) -> String {
    let events = &history.trace.events;
    let n_cols =
        events.iter().filter(|e| matches!(e, ObsEvent::Stmt { .. })).count().min(style.max_cols);
    // Per process per column: what happened.
    #[derive(Clone, Copy, PartialEq)]
    enum Cell {
        Blank,
        Exec,
        Begin,
        End,
        BeginEnd,
        Waiting,
    }
    let mut rows: BTreeMap<ProcessId, Vec<Cell>> = history
        .procs
        .iter()
        .map(|p| (p.pid, vec![Cell::Blank; n_cols]))
        .collect();
    let mut mid: BTreeMap<ProcessId, bool> = Default::default();

    let mut col = 0usize;
    for ev in events {
        let &ObsEvent::Stmt { pid: stepper, effect, .. } = ev else { continue };
        if col >= n_cols {
            break;
        }
        // Mark mid-invocation processes as waiting in this column.
        for (pid, is_mid) in &mid {
            if *is_mid && *pid != stepper {
                rows.get_mut(pid).expect("known pid")[col] = Cell::Waiting;
            }
        }
        let was_mid = mid.get(&stepper).copied().unwrap_or(false);
        let ends = !matches!(effect, StmtEffect::Continue);
        let cell = match (was_mid, ends) {
            (false, false) => Cell::Begin,
            (false, true) => Cell::BeginEnd,
            (true, false) => Cell::Exec,
            (true, true) => Cell::End,
        };
        rows.get_mut(&stepper).expect("known pid")[col] = cell;
        mid.insert(stepper, !ends);
        col += 1;
    }

    let mut out = String::new();
    for p in history.procs.iter().rev() {
        let row = &rows[&p.pid];
        out.push_str(&format!("{:>4} ({}, {}) ", p.pid.to_string(), p.cpu, p.prio));
        for c in row {
            out.push(match c {
                Cell::Blank => ' ',
                Cell::Exec => '-',
                Cell::Begin => '[',
                Cell::End => ']',
                Cell::BeginEnd => '*',
                Cell::Waiting => '.',
            });
        }
        while out.ends_with(' ') {
            out.pop();
        }
        if col >= style.max_cols {
            out.push('…');
        }
        out.push('\n');
    }
    if style.quantum_ruler && history.quantum > 0 {
        out.push_str(&" ".repeat(16));
        for i in 0..n_cols {
            out.push(if (i + 1) % history.quantum as usize == 0 { '|' } else { ' ' });
        }
        out.push_str("  (| = quantum boundary)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::ProcInfo;
    use crate::ids::{ProcessorId, Priority};
    use crate::obs::Trace;

    fn stmt(t: u64, pid: u32, effect: StmtEffect) -> ObsEvent {
        ObsEvent::Stmt {
            t,
            pid: ProcessId(pid),
            cpu: ProcessorId(0),
            prio: Priority(1),
            effect,
            label: crate::sym::Sym::EMPTY,
        }
    }

    fn two_proc_history() -> History {
        History {
            quantum: 2,
            procs: vec![
                ProcInfo {
                    pid: ProcessId(0),
                    cpu: ProcessorId(0),
                    prio: Priority(1),
                    held: false,
                },
                ProcInfo {
                    pid: ProcessId(1),
                    cpu: ProcessorId(0),
                    prio: Priority(1),
                    held: false,
                },
            ],
            trace: Trace {
                events: vec![
                    stmt(0, 0, StmtEffect::Continue),
                    stmt(1, 0, StmtEffect::Continue),
                    stmt(2, 1, StmtEffect::Continue),
                    stmt(3, 1, StmtEffect::Finished),
                    stmt(4, 0, StmtEffect::Finished),
                ],
                ..Trace::default()
            },
        }
    }

    #[test]
    fn renders_brackets_and_preemption_dots() {
        let s = render(&two_proc_history(), TraceStyle::default());
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        // p1 on top: begins at col 2, ends col 3.
        assert!(lines[0].contains("p1"));
        assert!(lines[0].ends_with("  []"), "got {:?}", lines[0]);
        // p0: two statements, then preempted (..), then final statement.
        assert!(lines[1].ends_with("[-..]"), "got {:?}", lines[1]);
    }

    #[test]
    fn quantum_ruler_marks_boundaries() {
        let s = render(
            &two_proc_history(),
            TraceStyle { quantum_ruler: true, max_cols: 240 },
        );
        let ruler = s.lines().last().unwrap();
        assert!(ruler.contains('|'));
        assert!(ruler.contains("quantum boundary"));
    }

    #[test]
    fn truncates_long_histories() {
        let mut h = two_proc_history();
        h.trace.events = (0..500).map(|t| stmt(t, 0, StmtEffect::Continue)).collect();
        let s = render(&h, TraceStyle { quantum_ruler: false, max_cols: 10 });
        assert!(s.lines().next().unwrap().ends_with('…'));
    }
}
