//! Deterministic statement-level simulation of multiprogrammed systems
//! with hybrid (priority + quantum) schedulers.
//!
//! This crate is the execution-model substrate for the `hybrid-wf`
//! workspace, which reproduces Anderson & Moir, *"Wait-Free Synchronization
//! in Multiprogrammed Systems: Integrating Priority-Based and Quantum-Based
//! Scheduling"* (PODC 1999). The paper models computation as interleavings
//! of *atomic statements*, with a scheduling quantum measured as a
//! statement count; this crate implements that model directly:
//!
//! * [`machine::StepMachine`] — a process; one `step` = one atomic
//!   statement. Most algorithms are written in the [`program`] DSL, which
//!   transcribes the paper's numbered listings line for line.
//! * [`kernel::Kernel`] — a system of processors, each with a hybrid
//!   scheduler enforcing the paper's Axiom 1 (priority) and Axiom 2
//!   (quantum windows that survive higher-priority preemption).
//! * [`decision::Decider`] — all scheduling nondeterminism in one trait:
//!   fair round-robin, seeded random, scripted, and (elsewhere) the
//!   adversaries of the lower-bound proofs.
//! * [`history`] — histories (a view of the [`obs`] trace) plus an
//!   independent well-formedness checker for the two axioms.
//! * [`trace`] — interleaving diagrams in the style of the paper's
//!   Figs. 1–2.
//! * [`explore`] — exhaustive schedule enumeration (bounded model
//!   checking) for small configurations.
//! * [`scenario`] — the front door: a reusable description of a system
//!   (spec, processes, memory, budget) that can be run to completion many
//!   times, yielding a [`scenario::RunResult`].
//! * [`sweep`] — fans independent runs over a pool of worker threads with
//!   bit-identical parallel/serial output; [`report`] publishes sweep
//!   results as line-oriented JSON.
//! * [`fuzz`] — hostile deciders (preemption storms, the Appendix A
//!   staggering adversary, fail-stop injection) plus a recording wrapper;
//!   [`shrink`] delta-debugs a failing decision script to a minimal
//!   replayable counterexample.
//! * [`prof`] — streaming schedule profiler over the [`obs`] event
//!   stream (window utilization, preemption/retry counts, log-bucketed
//!   histograms) and a Chrome-trace/Perfetto timeline exporter.
//! * [`service`] — the request-serving front door: long-lived workloads
//!   (thousands of clients, sharded objects, open/closed-loop arrivals)
//!   built from per-shard [`scenario::Scenario`]s, with per-shard and
//!   per-priority latency percentiles in a [`service::ServiceReport`].
//! * [`prelude`] — one-import access to the whole front-door surface.
//!
//! # Quick example
//!
//! Two equal-priority processes sharing one processor with quantum 2:
//!
//! ```
//! use sched_sim::ids::{ProcessorId, Priority};
//! use sched_sim::kernel::SystemSpec;
//! use sched_sim::machine::{FnMachine, StepOutcome};
//! use sched_sim::scenario::Scenario;
//!
//! let mut s = Scenario::new(Vec::<u64>::new(), SystemSpec::hybrid(2));
//! for tag in [1u64, 2] {
//!     s.add_process(ProcessorId(0), Priority(1), Box::new(FnMachine::new(
//!         move |mem: &mut Vec<u64>, calls| {
//!             mem.push(tag);
//!             if calls == 3 { (StepOutcome::Finished, None) }
//!             else { (StepOutcome::Continue, None) }
//!         })));
//! }
//! let r = s.run_fair();
//! // Quantum windows of exactly two statements alternate:
//! assert_eq!(*r.mem(), vec![1, 1, 2, 2, 1, 1, 2, 2]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decision;
pub mod explore;
pub mod fuzz;
pub mod history;
pub mod ids;
pub mod kernel;
pub mod machine;
pub mod obs;
pub mod prelude;
pub mod prof;
pub mod program;
pub mod report;
pub mod rng;
pub mod scenario;
pub mod service;
pub mod shrink;
mod smallvec;
mod statehash;
mod visited;
pub mod sweep;
pub mod sym;
pub mod trace;

pub use decision::{Decider, RoundRobin, Scripted, SeededRandom};
pub use fuzz::Recording;
pub use ids::{ProcessId, ProcessorId, Priority};
pub use kernel::{Kernel, SystemSpec};
pub use machine::{StepCtx, StepMachine, StepOutcome};
pub use prof::{Hist, Profile};
pub use sym::{Interner, Sym};
pub use scenario::{RunResult, Scenario};
pub use service::{Arrival, Service, ServiceReport, ServiceSpec, ShardPlan, ShardReport};
pub use sweep::{cross, default_jobs, run_cells};
