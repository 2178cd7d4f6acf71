//! The [`Scenario`] builder: the front door for setting up and running
//! simulations.
//!
//! Every experiment in this workspace used to hand-roll the same wiring —
//! construct a [`Kernel`], loop over processes adding priorities and
//! processors, optionally attach an observability trace, run to completion
//! under a step budget, then pick outputs, counters, and statistics back
//! out of the kernel. A `Scenario` captures that wiring once, declaratively:
//!
//! * the [`SystemSpec`] (quantum, first-window policy),
//! * the shared memory's initial state,
//! * the process table (processor, priority, machine, held/ready),
//! * whether to capture an observability [`Trace`] (which also carries the
//!   run's [`History`]),
//! * the run-to-completion step budget.
//!
//! Because a scenario owns its *initial* state rather than a live kernel,
//! it can be **run many times** — each [`Scenario::run`] builds a fresh,
//! identical kernel, which is exactly the contract deterministic replay
//! and seed sweeps need (see [`crate::sweep`] for fanning runs of one
//! scenario grid out over worker threads). Runs yield a [`RunResult`]:
//! outputs, scheduler counters, per-process statistics, completed
//! operations, wall time, and the final memory (from which algorithm-level
//! counters can be read).
//!
//! # Example
//!
//! ```
//! use sched_sim::scenario::Scenario;
//! use sched_sim::machine::{FnMachine, StepOutcome};
//! use sched_sim::ids::{ProcessorId, Priority};
//! use sched_sim::kernel::SystemSpec;
//!
//! let mut s = Scenario::new(0u64, SystemSpec::hybrid(4));
//! for _ in 0..2 {
//!     s.add_process(ProcessorId(0), Priority(1), Box::new(FnMachine::new(
//!         |mem: &mut u64, calls| {
//!             *mem += 1;
//!             if calls == 2 { (StepOutcome::Finished, Some(*mem)) }
//!             else { (StepOutcome::Continue, None) }
//!         })));
//! }
//! let a = s.run_seeded(7);
//! let b = s.run_seeded(7);          // same seed → bit-identical rerun
//! assert!(a.all_finished);
//! assert_eq!(a.mem(), &6);
//! assert_eq!(a.outputs, b.outputs);
//! assert_eq!(a.counters, b.counters);
//! ```

use std::time::{Duration, Instant};

use crate::decision::{Decider, RoundRobin, SeededRandom};
use crate::history::History;
use crate::ids::{ProcessId, ProcessorId, Priority};
use crate::kernel::{Kernel, OpRecord, ProcStats, SystemSpec};
use crate::machine::StepMachine;
use crate::obs::{ObsCounters, Trace};
use crate::prof::Profile;

/// Default run-to-completion step budget: generous enough for every
/// workload in this workspace (the largest adversarial Fig. 7 grids finish
/// well under it), small enough that a livelocked run fails fast.
pub const DEFAULT_STEP_BUDGET: u64 = 50_000_000;

/// One process in a scenario's process table.
struct ProcSpec<M> {
    cpu: ProcessorId,
    prio: Priority,
    machine: Box<dyn StepMachine<M>>,
    held: bool,
}

impl<M> Clone for ProcSpec<M> {
    fn clone(&self) -> Self {
        ProcSpec {
            cpu: self.cpu,
            prio: self.prio,
            machine: self.machine.box_clone(),
            held: self.held,
        }
    }
}

/// A reusable, declarative simulation setup. See the [module docs](self).
pub struct Scenario<M> {
    spec: SystemSpec,
    mem: M,
    procs: Vec<ProcSpec<M>>,
    obs: bool,
    prof: bool,
    budget: u64,
    crashes: Vec<(u64, ProcessId)>,
    recovers: Vec<(u64, ProcessId)>,
}

impl<M: Clone> Clone for Scenario<M> {
    fn clone(&self) -> Self {
        Scenario {
            spec: self.spec,
            mem: self.mem.clone(),
            procs: self.procs.clone(),
            obs: self.obs,
            prof: self.prof,
            budget: self.budget,
            crashes: self.crashes.clone(),
            recovers: self.recovers.clone(),
        }
    }
}

impl<M> Scenario<M> {
    /// A scenario over initial shared memory `mem` with the given spec and
    /// the [`DEFAULT_STEP_BUDGET`].
    pub fn new(mem: M, spec: SystemSpec) -> Self {
        Scenario {
            spec,
            mem,
            procs: Vec::new(),
            obs: false,
            prof: false,
            budget: DEFAULT_STEP_BUDGET,
            crashes: Vec::new(),
            recovers: Vec::new(),
        }
    }

    /// Adds a ready process pinned to `cpu` at priority `prio`; returns its
    /// [`ProcessId`] (assigned densely from 0, in insertion order —
    /// identical to [`Kernel::add_process`]).
    pub fn add_process(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(ProcSpec { cpu, prio, machine, held: false });
        pid
    }

    /// Adds a *held* process (ineligible until
    /// [`Kernel::release`] is called on the built kernel).
    pub fn add_held_process(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(ProcSpec { cpu, prio, machine, held: true });
        pid
    }

    /// Chainable [`Scenario::add_process`].
    pub fn process(
        mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> Self {
        self.add_process(cpu, prio, machine);
        self
    }

    /// Captures an observability [`Trace`] on every run (the kernel is
    /// built with [`Kernel::attach_obs`]; the capture lands in
    /// [`RunResult::take_trace`]).
    pub fn with_obs(mut self) -> Self {
        self.obs = true;
        self
    }

    /// Streams every run through a [`Profile`] (the kernel is built with
    /// [`Kernel::attach_prof`]; the derived metrics land in
    /// [`RunResult::take_profile`]). Independent of [`Scenario::with_obs`]
    /// — profiling alone retains no event log.
    pub fn with_prof(mut self) -> Self {
        self.prof = true;
        self
    }

    /// Overrides the run-to-completion step budget.
    pub fn step_budget(mut self, max_steps: u64) -> Self {
        self.budget = max_steps;
        self
    }

    /// Schedules a crash of `pid` at clock instant `t` on every run (the
    /// kernel is built with [`Kernel::schedule_crash`], which also enables
    /// invocation snapshotting). Crash instants are scenario *data*, not
    /// decider choices, so seeded/parallel runs stay deterministic.
    pub fn crash_at(mut self, t: u64, pid: ProcessId) -> Self {
        self.crashes.push((t, pid));
        self
    }

    /// Schedules a recovery of `pid` at clock instant `t` on every run
    /// (the restarted process re-runs its interrupted invocation from the
    /// start — for the paper's algorithms, the copy-chain re-read).
    pub fn recover_at(mut self, t: u64, pid: ProcessId) -> Self {
        self.recovers.push((t, pid));
        self
    }

    /// The configured step budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The configured system spec.
    pub fn spec(&self) -> SystemSpec {
        self.spec
    }

    /// Number of processes in the table.
    pub fn n_processes(&self) -> usize {
        self.procs.len()
    }

    /// Consumes the scenario into a fresh kernel (for callers that need
    /// mid-run choreography — releases, manual stepping, the exhaustive
    /// explorer — or a non-`Clone` memory type).
    pub fn into_kernel(self) -> Kernel<M> {
        let mut k = Kernel::new(self.mem, self.spec);
        for p in self.procs {
            if p.held {
                k.add_held_process(p.cpu, p.prio, p.machine);
            } else {
                k.add_process(p.cpu, p.prio, p.machine);
            }
        }
        for &(t, pid) in &self.crashes {
            k.schedule_crash(t, pid);
        }
        for &(t, pid) in &self.recovers {
            k.schedule_recover(t, pid);
        }
        if self.obs {
            k.attach_obs();
        }
        if self.prof {
            k.attach_prof();
        }
        k
    }
}

impl<M: Clone> Scenario<M> {
    /// Builds a fresh kernel from the scenario's initial state. Every call
    /// yields an identically constructed kernel (same memory, machines,
    /// spec, and process order) — the precondition for deterministic
    /// replay ([`Trace::scripted`]).
    pub fn kernel(&self) -> Kernel<M> {
        self.clone().into_kernel()
    }

    /// Builds a fresh kernel and runs it to quiescence (or the step
    /// budget) under `decider`.
    pub fn run(&self, decider: &mut dyn Decider) -> RunResult<M> {
        let mut k = self.kernel();
        let t0 = Instant::now();
        let steps = k.run(decider, self.budget);
        RunResult::from_kernel(k, steps, t0.elapsed())
    }

    /// Runs under the fair [`RoundRobin`] decider.
    pub fn run_fair(&self) -> RunResult<M> {
        self.run(&mut RoundRobin::new())
    }

    /// Runs under [`SeededRandom`] with the given seed.
    pub fn run_seeded(&self, seed: u64) -> RunResult<M> {
        self.run(&mut SeededRandom::new(seed))
    }
}

/// The outcome of running a [`Scenario`] (or any kernel — see
/// [`RunResult::from_kernel`]) to quiescence.
///
/// Owns the finished kernel, so everything a caller might want is
/// available without copying: outputs and scheduler counters as plain
/// fields, and the final memory (algorithm counters live there), history,
/// op records, and per-process statistics through accessors. Wall time is
/// metadata — it is *not* part of any determinism comparison.
pub struct RunResult<M> {
    kernel: Kernel<M>,
    /// Atomic statements executed.
    pub steps: u64,
    /// Wall-clock time of the run (metadata; never compare for equality).
    pub wall: Duration,
    /// Per-process final outputs, indexed by [`ProcessId`].
    pub outputs: Vec<Option<u64>>,
    /// The run's aggregate scheduler counters.
    pub counters: ObsCounters,
    /// Whether every process finished within the step budget.
    pub all_finished: bool,
}

impl<M> RunResult<M> {
    /// Collects a result from a kernel that has been driven to completion
    /// by other means (`steps` statements in `wall` time). This is the
    /// escape hatch for runs with mid-run choreography (releases, manual
    /// stepping) that still want the uniform result surface.
    pub fn from_kernel(kernel: Kernel<M>, steps: u64, wall: Duration) -> Self {
        let outputs =
            (0..kernel.n_processes() as u32).map(|p| kernel.output(ProcessId(p))).collect();
        RunResult {
            steps,
            wall,
            outputs,
            counters: kernel.counters(),
            all_finished: kernel.all_finished(),
            kernel,
        }
    }

    /// The final shared memory (algorithm-level counters, e.g.
    /// `hybrid_wf::counters::AlgCounters`, are read from here).
    pub fn mem(&self) -> &M {
        &self.kernel.mem
    }

    /// The finished kernel.
    pub fn kernel(&self) -> &Kernel<M> {
        &self.kernel
    }

    /// Consumes the result, returning the finished kernel.
    pub fn into_kernel(self) -> Kernel<M> {
        self.kernel
    }

    /// The run's history (see [`Kernel::history`]): no events unless the
    /// scenario ran [`Scenario::with_obs`] and the trace is still attached.
    pub fn history(&self) -> History {
        self.kernel.history()
    }

    /// Completed invocations, in completion order.
    pub fn ops(&self) -> &[OpRecord] {
        self.kernel.ops()
    }

    /// Statistics for one process.
    pub fn stats(&self, pid: ProcessId) -> ProcStats {
        self.kernel.stats(pid)
    }

    /// Statistics for every process, indexed by [`ProcessId`].
    pub fn all_stats(&self) -> Vec<ProcStats> {
        (0..self.kernel.n_processes() as u32)
            .map(|p| self.kernel.stats(ProcessId(p)))
            .collect()
    }

    /// The largest own-statement count over all processes (the wait-freedom
    /// metric of Theorems 1/2/4), or 0 with no processes.
    pub fn max_own_steps(&self) -> u64 {
        self.all_stats().iter().map(|s| s.own_steps).max().unwrap_or(0)
    }

    /// The common decided value, if **all** processes finished with the
    /// same `Some` output (the agreement oracle of the consensus
    /// experiments); `None` on any disagreement, `⊥` output, or unfinished
    /// process.
    pub fn agreed_output(&self) -> Option<u64> {
        if !self.all_finished {
            return None;
        }
        let first = *self.outputs.first()?;
        self.outputs.iter().all(|&o| o == first && o.is_some()).then_some(first)?
    }

    /// Mean statements per completed operation.
    pub fn statements_per_op(&self) -> Option<f64> {
        self.counters.statements_per_op()
    }

    /// Borrows the captured observability trace, if the scenario ran
    /// [`Scenario::with_obs`].
    pub fn trace(&self) -> Option<&Trace> {
        self.kernel.obs()
    }

    /// Detaches and returns the captured observability trace, if any.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.kernel.take_obs()
    }

    /// Borrows the streamed profile, if the scenario ran
    /// [`Scenario::with_prof`].
    pub fn profile(&self) -> Option<&Profile> {
        self.kernel.prof()
    }

    /// Detaches and returns the streamed profile, if any.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.kernel.take_prof()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{FnMachine, StepOutcome};

    fn logger(tag: u64, len: u32, invs: u32) -> Box<dyn StepMachine<Vec<u64>>> {
        Box::new(FnMachine::new(move |mem: &mut Vec<u64>, calls| {
            mem.push(tag);
            let done_in_inv = (calls + 1) % len == 0;
            if done_in_inv && (calls + 1) / len >= invs {
                (StepOutcome::Finished, Some(u64::from(calls + 1)))
            } else if done_in_inv {
                (StepOutcome::InvocationEnd, Some(u64::from(calls + 1)))
            } else {
                (StepOutcome::Continue, None)
            }
        }))
    }

    fn two_logger_scenario(q: u32) -> Scenario<Vec<u64>> {
        Scenario::new(Vec::new(), SystemSpec::hybrid(q))
            .process(ProcessorId(0), Priority(1), logger(1, 4, 1))
            .process(ProcessorId(0), Priority(1), logger(2, 4, 1))
    }

    #[test]
    fn scenario_matches_hand_built_kernel() {
        // The builder must produce exactly the kernel the call sites used
        // to build by hand: same memory, same schedule, same counters.
        let s = two_logger_scenario(2);
        let r = s.run_fair();

        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(2));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        let steps = k.run(&mut RoundRobin::new(), DEFAULT_STEP_BUDGET);

        assert_eq!(r.steps, steps);
        assert_eq!(r.mem(), &k.mem);
        assert_eq!(r.counters, k.counters());
        assert_eq!(r.outputs, vec![Some(4), Some(4)]);
        assert!(r.all_finished);
    }

    #[test]
    fn scenario_is_reusable_and_deterministic() {
        let s = two_logger_scenario(3);
        let a = s.run_seeded(11);
        let b = s.run_seeded(11);
        let c = s.run_seeded(12);
        assert_eq!(a.mem(), b.mem());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.steps, b.steps);
        // A different seed is allowed to (and here does) interleave
        // differently, but the run still completes.
        assert!(c.all_finished);
    }

    #[test]
    fn held_processes_and_from_kernel_roundtrip() {
        let mut s = Scenario::new(Vec::new(), SystemSpec::hybrid(10));
        s.add_process(ProcessorId(0), Priority(1), logger(1, 6, 1));
        let hi = s.add_held_process(ProcessorId(0), Priority(2), logger(2, 2, 1));

        let mut k = s.kernel();
        let mut d = RoundRobin::new();
        let t0 = std::time::Instant::now();
        let mut steps = k.run(&mut d, 2);
        k.release(hi);
        steps += k.run(&mut d, 1_000);
        let r = RunResult::from_kernel(k, steps, t0.elapsed());
        assert_eq!(r.mem(), &vec![1, 1, 2, 2, 1, 1, 1, 1]);
        assert_eq!(r.stats(ProcessId(0)).priority_preemptions, 1);
        assert_eq!(r.max_own_steps(), 6);
    }

    #[test]
    fn step_budget_truncates() {
        let r = two_logger_scenario(2).step_budget(3).run_fair();
        assert_eq!(r.steps, 3);
        assert!(!r.all_finished);
        assert_eq!(r.agreed_output(), None);
    }

    #[test]
    fn agreed_output_oracle() {
        // Equal outputs → agreement; the loggers both return 4.
        let r = two_logger_scenario(2).run_fair();
        assert_eq!(r.agreed_output(), Some(4));
        // Differing outputs → None.
        let s = Scenario::new(Vec::new(), SystemSpec::hybrid(2))
            .process(ProcessorId(0), Priority(1), logger(1, 4, 1))
            .process(ProcessorId(0), Priority(1), logger(2, 6, 1));
        assert_eq!(s.run_fair().agreed_output(), None);
    }

    #[test]
    fn with_obs_captures_replayable_trace() {
        let s = two_logger_scenario(3).with_obs();
        let mut r = s.run_seeded(5);
        let trace = r.take_trace().expect("obs attached");
        // Replaying the capture against a fresh kernel from the same
        // scenario reproduces the run bit-identically.
        let mut k = s.kernel();
        k.run(&mut trace.scripted(), DEFAULT_STEP_BUDGET);
        assert_eq!(&k.mem, r.mem());
        assert_eq!(k.counters(), r.counters);
    }
}
