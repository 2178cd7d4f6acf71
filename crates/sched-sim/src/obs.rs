//! Schedule observability: structured event capture, per-run counters,
//! and deterministic replay.
//!
//! The paper's claims are statements about *schedules* — Axiom 2 quantum
//! windows, same- vs higher-priority preemptions, adversarially staggered
//! quantum boundaries — so validating (or debugging) an algorithm requires
//! seeing which interleaving actually occurred. This module provides three
//! layers, all driven by [`crate::kernel::Kernel`]:
//!
//! 1. **Event capture** — attach a [`Trace`] with
//!    [`Kernel::attach_obs`](crate::kernel::Kernel::attach_obs) and the
//!    kernel emits one [`ObsEvent`] per dispatch, statement, quantum-window
//!    transition, preemption, invocation boundary, and scheduling decision.
//!    With no trace attached the kernel skips all event construction — the
//!    only always-on cost is the [`ObsCounters`] integer increments.
//! 2. **Line-oriented serialization** — [`Trace::to_text`] /
//!    [`Trace::from_text`] round-trip a capture through a plain-text
//!    artifact (one event per line), so a failing stress test can dump its
//!    schedule to disk and a human or a regression test can reload it.
//! 3. **Deterministic replay** — every bit of scheduling nondeterminism in
//!    the kernel flows through [`crate::decision::Decider::choose`], and the
//!    trace records each consulted decision. [`Trace::scripted`] therefore
//!    converts a capture into a strict [`Scripted`] decider that re-executes
//!    the recorded run *bit-identically* against a freshly constructed,
//!    identical kernel (same memory, machines, spec, and process order).
//!
//! # Capture → replay
//!
//! ```
//! use sched_sim::decision::SeededRandom;
//! use sched_sim::ids::{ProcessorId, Priority};
//! use sched_sim::kernel::{Kernel, SystemSpec};
//! use sched_sim::machine::{FnMachine, StepOutcome};
//!
//! let build = || {
//!     let mut k = Kernel::new(0u64, SystemSpec::hybrid(2));
//!     k.attach_obs();
//!     for _ in 0..2 {
//!         k.add_process(ProcessorId(0), Priority(1), Box::new(FnMachine::new(
//!             |mem: &mut u64, calls| {
//!                 *mem += 1;
//!                 if calls == 3 { (StepOutcome::Finished, None) }
//!                 else { (StepOutcome::Continue, None) }
//!             })));
//!     }
//!     k
//! };
//! // Capture a seeded-random run.
//! let mut k = build();
//! k.run(&mut SeededRandom::new(7), 100);
//! let trace = k.take_obs().unwrap();
//!
//! // Serialize, reload, replay: the replay's trace is bit-identical.
//! let reloaded = sched_sim::obs::Trace::from_text(&trace.to_text()).unwrap();
//! let mut r = build();
//! r.run(&mut reloaded.scripted(), 100);
//! assert_eq!(r.obs(), Some(&trace));
//! assert_eq!(r.mem, k.mem);
//! ```

use crate::decision::Scripted;
use crate::history::StmtEffect;
use crate::ids::{ProcessId, ProcessorId, Priority};
use crate::sym::{Interner, Sym};

/// Which kind of scheduling decision was consulted (see
/// [`crate::decision::Choice`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionKind {
    /// Which processor executes the next statement.
    Cpu,
    /// Which equal-priority process receives the opening quantum window.
    Holder,
    /// How many statements a first quantum window holds.
    FirstCredit,
}

impl DecisionKind {
    /// The serialization tag (matches [`crate::decision::Choice::kind`]).
    pub fn tag(self) -> &'static str {
        match self {
            DecisionKind::Cpu => "cpu",
            DecisionKind::Holder => "holder",
            DecisionKind::FirstCredit => "first-credit",
        }
    }

    fn from_tag(s: &str) -> Option<Self> {
        match s {
            "cpu" => Some(DecisionKind::Cpu),
            "holder" => Some(DecisionKind::Holder),
            "first-credit" => Some(DecisionKind::FirstCredit),
            _ => None,
        }
    }
}

/// Why a quantum window stopped admitting its holder's statements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowCloseReason {
    /// The holder completed an object invocation (Axiom 2's "terminates").
    InvocationEnd,
    /// The holder finished its final invocation.
    Finished,
    /// The holder exhausted its credit mid-invocation — the next
    /// equal-priority dispatch is a *quantum preemption*.
    Expired,
    /// The holder crashed while the window was open.
    Crashed,
}

impl WindowCloseReason {
    fn tag(self) -> &'static str {
        match self {
            WindowCloseReason::InvocationEnd => "inv-end",
            WindowCloseReason::Finished => "finished",
            WindowCloseReason::Expired => "expired",
            WindowCloseReason::Crashed => "crashed",
        }
    }

    fn from_tag(s: &str) -> Option<Self> {
        match s {
            "inv-end" => Some(WindowCloseReason::InvocationEnd),
            "finished" => Some(WindowCloseReason::Finished),
            "expired" => Some(WindowCloseReason::Expired),
            "crashed" => Some(WindowCloseReason::Crashed),
            _ => None,
        }
    }
}

/// One observed scheduling event.
///
/// Events are emitted in execution order; within a single kernel step the
/// order is: decisions, same-priority preemption, window open, dispatch,
/// higher-priority-preemption resume, invocation start, the statement
/// itself, invocation end, window close.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsEvent {
    /// A scheduling decision was consulted (only decision points with at
    /// least two options are consulted, hence recorded). The recorded
    /// `chosen` sequence is exactly what [`Trace::scripted`] replays.
    Decision {
        /// The decision's kind.
        kind: DecisionKind,
        /// How many options were available.
        arity: usize,
        /// The index the decider chose.
        chosen: usize,
    },
    /// A processor switched to executing `pid` (it was not the last process
    /// to execute on that cpu).
    Dispatch {
        /// Global statement time.
        t: u64,
        /// The process now executing.
        pid: ProcessId,
        /// Its processor.
        cpu: ProcessorId,
        /// Its priority.
        prio: Priority,
    },
    /// A quantum window opened at (`cpu`, `prio`) for `holder`.
    WindowOpen {
        /// Global statement time.
        t: u64,
        /// The processor.
        cpu: ProcessorId,
        /// The priority level of the window.
        prio: Priority,
        /// The process granted the window.
        holder: ProcessId,
        /// The window's size in own-statements (`Q`, or less for an
        /// adversarially aligned first window).
        credit: u32,
    },
    /// A quantum window stopped admitting statements.
    WindowClose {
        /// Global statement time (of the holder's last statement in it).
        t: u64,
        /// The processor.
        cpu: ProcessorId,
        /// The priority level.
        prio: Priority,
        /// The window's holder.
        holder: ProcessId,
        /// Why it closed.
        reason: WindowCloseReason,
    },
    /// `victim` was preempted mid-invocation by the equal-priority process
    /// `by` (a quantum preemption; emitted when the new window displaces
    /// the exhausted holder).
    PreemptSame {
        /// Global statement time of the displacement.
        t: u64,
        /// The preempted process.
        victim: ProcessId,
        /// The equal-priority process taking over.
        by: ProcessId,
    },
    /// `victim` resumed after being interleaved mid-invocation by
    /// higher-priority processes only (a priority preemption episode,
    /// accounted at resume like [`crate::kernel::ProcStats`]).
    PreemptHigher {
        /// Global statement time of the resume.
        t: u64,
        /// The process that had been preempted.
        victim: ProcessId,
    },
    /// `pid` began a new object invocation.
    InvStart {
        /// Global statement time of the invocation's first statement.
        t: u64,
        /// The invoking process.
        pid: ProcessId,
        /// Zero-based invocation index within the process.
        inv_index: u32,
    },
    /// `pid` completed an object invocation.
    InvEnd {
        /// Global statement time of the completing statement.
        t: u64,
        /// The invoking process.
        pid: ProcessId,
        /// Zero-based invocation index within the process.
        inv_index: u32,
        /// The invocation's output, if any.
        output: Option<u64>,
    },
    /// An atomic statement executed.
    Stmt {
        /// Global statement time.
        t: u64,
        /// The executing process.
        pid: ProcessId,
        /// Its processor.
        cpu: ProcessorId,
        /// Its priority.
        prio: Priority,
        /// Effect on the invocation.
        effect: StmtEffect,
        /// The statement's display label (may be empty), interned in the
        /// owning trace's [`Trace::syms`] table. The derived `==` on events
        /// compares the raw id, meaningful only within one trace; whole-
        /// trace `==` resolves labels and is safe across traces.
        label: Sym,
    },
    /// A held process was released (became ready).
    Release {
        /// Global statement time.
        t: u64,
        /// The released process.
        pid: ProcessId,
    },
    /// A process crashed: its partial invocation was discarded and it is
    /// invisible to its scheduler until it recovers.
    Crash {
        /// Global statement time.
        t: u64,
        /// The crashed process.
        pid: ProcessId,
    },
    /// A crashed process recovered (became ready again); its next dispatch
    /// re-runs the interrupted invocation from its first statement.
    Recover {
        /// Global statement time.
        t: u64,
        /// The recovered process.
        pid: ProcessId,
    },
}

fn effect_tag(e: StmtEffect) -> &'static str {
    match e {
        StmtEffect::Continue => "continue",
        StmtEffect::InvocationEnd => "inv-end",
        StmtEffect::Finished => "finished",
    }
}

fn effect_from_tag(s: &str) -> Option<StmtEffect> {
    match s {
        "continue" => Some(StmtEffect::Continue),
        "inv-end" => Some(StmtEffect::InvocationEnd),
        "finished" => Some(StmtEffect::Finished),
        _ => None,
    }
}

/// Escapes a statement label for the single-line text format.
fn escape(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A captured event stream: the kernel's observability sink.
///
/// Attach with [`Kernel::attach_obs`](crate::kernel::Kernel::attach_obs),
/// retrieve with [`Kernel::take_obs`](crate::kernel::Kernel::take_obs) (or
/// borrow via [`Kernel::obs`](crate::kernel::Kernel::obs)). See the
/// [module docs](self) for the capture → serialize → replay workflow.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The captured events, in execution order.
    pub events: Vec<ObsEvent>,
    /// Symbol table resolving the [`Sym`] labels of statement events. The
    /// kernel interns labels straight into it, so a detached trace is
    /// always self-contained.
    pub syms: Interner,
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.events.len() == other.events.len()
            && self.events.iter().zip(&other.events).all(|(a, b)| match (a, b) {
                (
                    ObsEvent::Stmt { t, pid, cpu, prio, effect, label },
                    ObsEvent::Stmt {
                        t: t2,
                        pid: p2,
                        cpu: c2,
                        prio: pr2,
                        effect: e2,
                        label: l2,
                    },
                ) => {
                    (t, pid, cpu, prio, effect) == (t2, p2, c2, pr2, e2)
                        && self.syms.resolve(*label) == other.syms.resolve(*l2)
                }
                _ => a == b,
            })
    }
}

impl Eq for Trace {}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends an event (called by the kernel).
    pub fn record(&mut self, ev: ObsEvent) {
        self.events.push(ev);
    }

    /// The chosen indices of all recorded scheduling decisions, in order —
    /// the complete schedule of the captured run.
    pub fn decisions(&self) -> Vec<usize> {
        self.events
            .iter()
            .filter_map(|e| match e {
                ObsEvent::Decision { chosen, .. } => Some(*chosen),
                _ => None,
            })
            .collect()
    }

    /// Converts the capture into a strict [`Scripted`] decider that replays
    /// the recorded schedule. Driving an *identically constructed* kernel
    /// with it re-executes the run bit-identically (same trace, same
    /// final memory, same outputs); the strict decider panics if the replay
    /// ever diverges (a decision point the capture never saw).
    pub fn scripted(&self) -> Scripted {
        Scripted::strict(self.decisions())
    }

    /// Serializes the trace as line-oriented text: one event per line,
    /// space-separated fields, statement labels escaped and last. Lines
    /// starting with `#` are comments.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# sched-sim trace v1\n");
        for ev in &self.events {
            match ev {
                ObsEvent::Decision { kind, arity, chosen } => {
                    out.push_str(&format!("decision {} {arity} {chosen}\n", kind.tag()));
                }
                ObsEvent::Dispatch { t, pid, cpu, prio } => {
                    out.push_str(&format!("dispatch {t} {} {} {}\n", pid.0, cpu.0, prio.0));
                }
                ObsEvent::WindowOpen { t, cpu, prio, holder, credit } => {
                    out.push_str(&format!(
                        "window-open {t} {} {} {} {credit}\n",
                        cpu.0, prio.0, holder.0
                    ));
                }
                ObsEvent::WindowClose { t, cpu, prio, holder, reason } => {
                    out.push_str(&format!(
                        "window-close {t} {} {} {} {}\n",
                        cpu.0,
                        prio.0,
                        holder.0,
                        reason.tag()
                    ));
                }
                ObsEvent::PreemptSame { t, victim, by } => {
                    out.push_str(&format!("preempt-same {t} {} {}\n", victim.0, by.0));
                }
                ObsEvent::PreemptHigher { t, victim } => {
                    out.push_str(&format!("preempt-higher {t} {}\n", victim.0));
                }
                ObsEvent::InvStart { t, pid, inv_index } => {
                    out.push_str(&format!("inv-start {t} {} {inv_index}\n", pid.0));
                }
                ObsEvent::InvEnd { t, pid, inv_index, output } => {
                    let o = output.map_or("-".to_string(), |v| v.to_string());
                    out.push_str(&format!("inv-end {t} {} {inv_index} {o}\n", pid.0));
                }
                ObsEvent::Stmt { t, pid, cpu, prio, effect, label } => {
                    out.push_str(&format!(
                        "stmt {t} {} {} {} {} {}\n",
                        pid.0,
                        cpu.0,
                        prio.0,
                        effect_tag(*effect),
                        escape(self.syms.resolve(*label))
                    ));
                }
                ObsEvent::Release { t, pid } => {
                    out.push_str(&format!("release {t} {}\n", pid.0));
                }
                ObsEvent::Crash { t, pid } => {
                    out.push_str(&format!("crash {t} {}\n", pid.0));
                }
                ObsEvent::Recover { t, pid } => {
                    out.push_str(&format!("recover {t} {}\n", pid.0));
                }
            }
        }
        out
    }

    /// Parses text produced by [`Trace::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn from_text(text: &str) -> Result<Trace, String> {
        let mut events = Vec::new();
        let mut syms = Interner::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            let mut f = line.split(' ');
            let tag = f.next().unwrap_or_default();
            // Numeric field helpers over the iterator.
            macro_rules! num {
                ($ty:ty) => {
                    f.next()
                        .and_then(|s| s.parse::<$ty>().ok())
                        .ok_or_else(|| err("bad or missing numeric field"))?
                };
            }
            let ev = match tag {
                "decision" => {
                    let kind = f
                        .next()
                        .and_then(DecisionKind::from_tag)
                        .ok_or_else(|| err("bad decision kind"))?;
                    ObsEvent::Decision { kind, arity: num!(usize), chosen: num!(usize) }
                }
                "dispatch" => ObsEvent::Dispatch {
                    t: num!(u64),
                    pid: ProcessId(num!(u32)),
                    cpu: ProcessorId(num!(u32)),
                    prio: Priority(num!(u32)),
                },
                "window-open" => ObsEvent::WindowOpen {
                    t: num!(u64),
                    cpu: ProcessorId(num!(u32)),
                    prio: Priority(num!(u32)),
                    holder: ProcessId(num!(u32)),
                    credit: num!(u32),
                },
                "window-close" => ObsEvent::WindowClose {
                    t: num!(u64),
                    cpu: ProcessorId(num!(u32)),
                    prio: Priority(num!(u32)),
                    holder: ProcessId(num!(u32)),
                    reason: f
                        .next()
                        .and_then(WindowCloseReason::from_tag)
                        .ok_or_else(|| err("bad close reason"))?,
                },
                "preempt-same" => ObsEvent::PreemptSame {
                    t: num!(u64),
                    victim: ProcessId(num!(u32)),
                    by: ProcessId(num!(u32)),
                },
                "preempt-higher" => {
                    ObsEvent::PreemptHigher { t: num!(u64), victim: ProcessId(num!(u32)) }
                }
                "inv-start" => ObsEvent::InvStart {
                    t: num!(u64),
                    pid: ProcessId(num!(u32)),
                    inv_index: num!(u32),
                },
                "inv-end" => {
                    let (t, pid, inv_index) = (num!(u64), ProcessId(num!(u32)), num!(u32));
                    let o = f.next().ok_or_else(|| err("missing output field"))?;
                    let output = if o == "-" {
                        None
                    } else {
                        Some(o.parse::<u64>().map_err(|_| err("bad output"))?)
                    };
                    ObsEvent::InvEnd { t, pid, inv_index, output }
                }
                "stmt" => {
                    let t = num!(u64);
                    let pid = ProcessId(num!(u32));
                    let cpu = ProcessorId(num!(u32));
                    let prio = Priority(num!(u32));
                    let effect = f
                        .next()
                        .and_then(effect_from_tag)
                        .ok_or_else(|| err("bad effect"))?;
                    let label = syms.intern(&unescape(&f.collect::<Vec<_>>().join(" ")));
                    ObsEvent::Stmt { t, pid, cpu, prio, effect, label }
                }
                "release" => {
                    ObsEvent::Release { t: num!(u64), pid: ProcessId(num!(u32)) }
                }
                "crash" => ObsEvent::Crash { t: num!(u64), pid: ProcessId(num!(u32)) },
                "recover" => ObsEvent::Recover { t: num!(u64), pid: ProcessId(num!(u32)) },
                _ => return Err(err("unknown event tag")),
            };
            events.push(ev);
        }
        Ok(Trace { events, syms })
    }
}

/// Always-on per-run scheduler counters, maintained by every kernel
/// regardless of whether a [`Trace`] is attached (plain integer
/// increments; read with
/// [`Kernel::counters`](crate::kernel::Kernel::counters)).
///
/// These are the run-level aggregates of the paper's schedule vocabulary;
/// per-process breakdowns live in [`crate::kernel::ProcStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// Atomic statements executed.
    pub statements: u64,
    /// Scheduling decisions consulted (decision points with ≥ 2 options).
    pub decisions: u64,
    /// Quantum windows opened (Axiom 2 allocations).
    pub windows_opened: u64,
    /// Same-priority (quantum) preemptions: a mid-invocation holder was
    /// displaced by an equal-priority process.
    pub same_prio_preemptions: u64,
    /// Higher-priority preemption episodes: a process resumed after being
    /// interleaved mid-invocation by higher-priority processes only.
    pub higher_prio_preemptions: u64,
    /// Quantum boundaries crossed mid-invocation: a window's credit ran
    /// out while its holder was inside an object invocation.
    pub quantum_expiries_mid_invocation: u64,
    /// Object invocations completed.
    pub invocations_completed: u64,
    /// Held processes released.
    pub releases: u64,
    /// Processes crashed (partial invocations discarded).
    pub crashes: u64,
    /// Crashed processes recovered.
    pub recoveries: u64,
}

impl ObsCounters {
    /// Mean statements per completed operation, or `None` before any
    /// operation completes.
    pub fn statements_per_op(&self) -> Option<f64> {
        (self.invocations_completed > 0)
            .then(|| self.statements as f64 / self.invocations_completed as f64)
    }
}

impl std::fmt::Display for ObsCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "statements executed        {}", self.statements)?;
        writeln!(f, "decisions consulted        {}", self.decisions)?;
        writeln!(f, "quantum windows opened     {}", self.windows_opened)?;
        writeln!(f, "same-prio preemptions      {}", self.same_prio_preemptions)?;
        writeln!(f, "higher-prio preemptions    {}", self.higher_prio_preemptions)?;
        writeln!(
            f,
            "quantum expiries mid-inv   {}",
            self.quantum_expiries_mid_invocation
        )?;
        writeln!(f, "invocations completed      {}", self.invocations_completed)?;
        if self.crashes > 0 || self.recoveries > 0 {
            writeln!(f, "crashes                    {}", self.crashes)?;
            writeln!(f, "recoveries                 {}", self.recoveries)?;
        }
        match self.statements_per_op() {
            Some(s) => writeln!(f, "statements per operation   {s:.2}"),
            None => writeln!(f, "statements per operation   n/a"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut syms = Interner::new();
        let weird = syms.intern("3: w := P[i]  \\ weird \\ label");
        Trace {
            syms,
            events: vec![
                ObsEvent::Decision { kind: DecisionKind::Cpu, arity: 2, chosen: 1 },
                ObsEvent::Decision { kind: DecisionKind::Holder, arity: 3, chosen: 0 },
                ObsEvent::Decision { kind: DecisionKind::FirstCredit, arity: 4, chosen: 2 },
                ObsEvent::WindowOpen {
                    t: 0,
                    cpu: ProcessorId(1),
                    prio: Priority(2),
                    holder: ProcessId(3),
                    credit: 3,
                },
                ObsEvent::Dispatch {
                    t: 0,
                    pid: ProcessId(3),
                    cpu: ProcessorId(1),
                    prio: Priority(2),
                },
                ObsEvent::InvStart { t: 0, pid: ProcessId(3), inv_index: 0 },
                ObsEvent::Stmt {
                    t: 0,
                    pid: ProcessId(3),
                    cpu: ProcessorId(1),
                    prio: Priority(2),
                    effect: StmtEffect::Continue,
                    label: weird,
                },
                ObsEvent::PreemptSame { t: 4, victim: ProcessId(3), by: ProcessId(5) },
                ObsEvent::PreemptHigher { t: 6, victim: ProcessId(3) },
                ObsEvent::InvEnd { t: 9, pid: ProcessId(3), inv_index: 0, output: Some(7) },
                ObsEvent::InvEnd { t: 11, pid: ProcessId(5), inv_index: 0, output: None },
                ObsEvent::WindowClose {
                    t: 11,
                    cpu: ProcessorId(1),
                    prio: Priority(2),
                    holder: ProcessId(3),
                    reason: WindowCloseReason::Expired,
                },
                ObsEvent::Release { t: 12, pid: ProcessId(9) },
                ObsEvent::Crash { t: 13, pid: ProcessId(3) },
                ObsEvent::WindowClose {
                    t: 13,
                    cpu: ProcessorId(1),
                    prio: Priority(2),
                    holder: ProcessId(3),
                    reason: WindowCloseReason::Crashed,
                },
                ObsEvent::Recover { t: 15, pid: ProcessId(3) },
            ],
        }
    }

    #[test]
    fn text_round_trip_is_identity() {
        let t = sample();
        let text = t.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back, t);
        // And stable: serializing again yields the same text.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn labels_with_newlines_survive() {
        let mut syms = Interner::new();
        let label = syms.intern("line1\nline2 \\ tail");
        let t = Trace {
            syms,
            events: vec![ObsEvent::Stmt {
                t: 0,
                pid: ProcessId(0),
                cpu: ProcessorId(0),
                prio: Priority(1),
                effect: StmtEffect::Finished,
                label,
            }],
        };
        assert_eq!(Trace::from_text(&t.to_text()).unwrap(), t);
    }

    #[test]
    fn traces_with_different_tables_compare_by_resolved_label() {
        // Same event stream, but one table has extra entries interned
        // before the label — raw Sym ids differ, resolved labels match.
        let mk = |prefix: &[&str], label: &str| {
            let mut syms = Interner::new();
            for p in prefix {
                syms.intern(p);
            }
            let label = syms.intern(label);
            Trace {
                syms,
                events: vec![ObsEvent::Stmt {
                    t: 0,
                    pid: ProcessId(0),
                    cpu: ProcessorId(0),
                    prio: Priority(1),
                    effect: StmtEffect::Continue,
                    label,
                }],
            }
        };
        assert_eq!(mk(&["a", "b"], "x"), mk(&[], "x"));
        assert_ne!(mk(&[], "x"), mk(&[], "y"));
    }

    #[test]
    fn decisions_extracts_schedule_in_order() {
        assert_eq!(sample().decisions(), vec![1, 0, 2]);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = Trace::from_text("decision cpu 2 1\nnonsense here\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = Trace::from_text("decision warp 2 1\n").unwrap_err();
        assert!(err.contains("decision kind"), "{err}");
    }

    #[test]
    fn counters_statements_per_op() {
        let mut c = ObsCounters::default();
        assert_eq!(c.statements_per_op(), None);
        c.statements = 24;
        c.invocations_completed = 3;
        assert_eq!(c.statements_per_op(), Some(8.0));
        // Display renders every field without panicking.
        let s = c.to_string();
        assert!(s.contains("statements per operation   8.00"));
    }
}
