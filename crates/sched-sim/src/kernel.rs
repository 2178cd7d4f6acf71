//! The simulation kernel: a multiprogrammed system of processors, each with
//! a hybrid (priority + quantum) scheduler, executing step machines one
//! atomic statement at a time.
//!
//! The kernel implements the paper's execution model (Sec. 2) exactly:
//!
//! * Each process is pinned to one processor and has a static priority.
//! * **Axiom 1**: a processor always executes a maximal-priority ready
//!   process; a higher-priority process that becomes ready preempts
//!   immediately (i.e., it takes the processor's next statement).
//! * **Axiom 2**: processor time among equal-priority processes is
//!   allocated in quantum *windows*. While a window is open, only its
//!   holder may execute at that priority level; the window closes when the
//!   holder has executed `Q` of its own statements (higher-priority
//!   interleavings do not count against it), when the holder's object
//!   invocation terminates, or when the holder finishes. A process's very
//!   first window may be shorter than `Q` — its execution "may arbitrarily
//!   align with the next quantum boundary".
//! * Quantum allocation may be unfair: a ready process may be starved
//!   forever, modeling halting failures. Fairness is a property of the
//!   [`Decider`], not the kernel.
//! * Cross-processor interleaving is fully asynchronous (chosen by the
//!   decider), so consensus numbers retain their usual meaning across
//!   processors.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::decision::{Choice, Decider};
use crate::history::{History, ProcInfo, StmtEffect};
use crate::ids::{ProcessId, ProcessorId, Priority};
use crate::machine::{Footprint, StepCtx, StepMachine, StepOutcome};
use crate::obs::{DecisionKind, ObsCounters, ObsEvent, Trace, WindowCloseReason};
use crate::prof::Profile;
use crate::smallvec::SmallVec;
use crate::statehash::StateHasher;
use crate::sym::Sym;

/// How a process's first quantum window is sized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FirstCreditMode {
    /// First windows are always full (`Q`): dispatches align with quantum
    /// boundaries. The benign default.
    #[default]
    Aligned,
    /// The decider chooses the first window size in `1..=Q`, modeling the
    /// paper's "first quantum preemption at any time". Required by the
    /// adversaries of the lower-bound experiments and used by randomized
    /// stress tests.
    Adversarial,
}

/// Static configuration of a simulated system.
#[derive(Clone, Copy, Debug)]
pub struct SystemSpec {
    /// The scheduling quantum `Q`, in atomic statements. `0` models a pure
    /// priority-scheduled system degenerately (every window closes
    /// immediately, so equal-priority processes interleave freely —
    /// see [`SystemSpec::pure_priority`]).
    pub quantum: u32,
    /// First-window sizing policy.
    pub first_credit: FirstCreditMode,
}

impl SystemSpec {
    /// A hybrid-scheduled system with quantum `q` and benign alignment.
    pub fn hybrid(q: u32) -> Self {
        SystemSpec { quantum: q, first_credit: FirstCreditMode::Aligned }
    }

    /// A *pure priority-scheduled* system: the quantum is zero, so
    /// equal-priority processes may interleave at every statement. Any
    /// algorithm correct for hybrid scheduling with quantum `Q` must also
    /// be correct here when every priority level holds at most one process
    /// (the classical priority-scheduled model of Ramamurthy et al.).
    pub fn pure_priority() -> Self {
        SystemSpec { quantum: 0, first_credit: FirstCreditMode::Aligned }
    }

    /// A *pure quantum-scheduled* system with quantum `q`: hybrid
    /// scheduling where every process is given the same priority (the
    /// caller is responsible for assigning equal priorities).
    pub fn pure_quantum(q: u32) -> Self {
        Self::hybrid(q)
    }

    /// Enables adversarial first-window sizing.
    pub fn with_adversarial_alignment(mut self) -> Self {
        self.first_credit = FirstCreditMode::Adversarial;
        self
    }
}

/// Per-process runtime status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    /// Not yet eligible: invisible to its scheduler until released.
    Held,
    /// Eligible to execute.
    Ready,
    /// All invocations complete.
    Finished,
    /// Crashed: invisible to its scheduler until recovered. A crash
    /// discards any partial invocation (the machine is restored to the
    /// invocation's first statement), so recovery re-runs it from the
    /// copy-chain re-read.
    Crashed,
}

impl Status {
    /// Stable discriminant for the state-hash fold.
    fn rank(self) -> u8 {
        match self {
            Status::Held => 0,
            Status::Ready => 1,
            Status::Finished => 2,
            Status::Crashed => 3,
        }
    }
}

/// What a scheduled lifecycle event does to its process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LifecycleKind {
    Crash,
    Recover,
}

/// A clock-scheduled crash or recovery. Lifecycle instants are plain
/// *data* (not decider choices), so runs with a lifecycle plan replay and
/// parallelize bit-identically: the plan fires as a function of the global
/// statement clock alone.
#[derive(Clone, Copy, Debug)]
struct LifecycleEvent {
    t: u64,
    pid: ProcessId,
    kind: LifecycleKind,
}

/// Per-process statistics, maintained by the kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Atomic statements this process has executed.
    pub own_steps: u64,
    /// Times it was preempted mid-invocation by an equal-priority process
    /// (a *quantum preemption*).
    pub quantum_preemptions: u64,
    /// Times it was preempted mid-invocation by higher-priority processes
    /// only.
    pub priority_preemptions: u64,
    /// Object invocations completed.
    pub completed: u64,
}

/// A process's machine: owned outright, or shared copy-on-write among
/// kernel forks.
///
/// A kernel that tracks its state hash is being explored and is forked
/// at every branch, so it holds its machines [`Slot::Shared`]: a fork
/// bumps one reference count per machine instead of cloning it, and a
/// step copies only the machine it runs, and only while a fork still
/// shares it. Every other kernel owns its machines, so a step is a plain
/// call with no uniqueness check.
enum Slot<M> {
    Owned(Box<dyn StepMachine<M>>),
    Shared(Arc<dyn StepMachine<M>>),
}

impl<M> Slot<M> {
    /// The machine, for mutation: a shared one is first copied unless
    /// this slot is its only holder.
    fn make_mut(&mut self) -> &mut dyn StepMachine<M> {
        match self {
            Slot::Owned(b) => &mut **b,
            Slot::Shared(a) => {
                if Arc::get_mut(a).is_none() {
                    *a = a.arc_clone();
                }
                Arc::get_mut(a).expect("a fresh copy has one holder")
            }
        }
    }

    /// Switches an owned machine to copy-on-write sharing.
    fn share(&mut self) {
        if let Slot::Owned(b) = self {
            *self = Slot::Shared(b.arc_clone());
        }
    }

    /// Replaces the machine with a copy that shares nothing with it (see
    /// [`StepMachine::box_clone_unshared`]).
    fn unshare(&mut self) {
        match self {
            Slot::Owned(b) => *b = b.box_clone_unshared(),
            Slot::Shared(a) => *a = Arc::from(a.box_clone_unshared()),
        }
    }
}

impl<M> Clone for Slot<M> {
    fn clone(&self) -> Self {
        match self {
            Slot::Owned(b) => Slot::Owned(b.box_clone()),
            Slot::Shared(a) => Slot::Shared(Arc::clone(a)),
        }
    }
}

impl<M> std::ops::Deref for Slot<M> {
    type Target = dyn StepMachine<M>;

    fn deref(&self) -> &Self::Target {
        match self {
            Slot::Owned(b) => &**b,
            Slot::Shared(a) => &**a,
        }
    }
}

#[derive(Clone)]
struct ProcEntry<M> {
    pid: ProcessId,
    cpu: ProcessorId,
    prio: Priority,
    /// Added held (the [`History`] header's `held`).
    held: bool,
    machine: Slot<M>,
    status: Status,
    /// Mid-invocation: executed a `Continue` statement more recently than
    /// an invocation boundary.
    mid_invocation: bool,
    /// Dispatched at least once (first-window allowance consumed).
    ever_dispatched: bool,
    /// Set when another process on this cpu executed since this process's
    /// last statement while it was mid-invocation.
    interleaved_same: bool,
    interleaved_higher: bool,
    /// Global time of the current invocation's first statement.
    inv_start: u64,
    /// The original `inv_start` of an invocation aborted by a crash: the
    /// restarted attempt is the *same* operation, so its [`OpRecord`]
    /// keeps the first attempt's invocation time — an op whose pre-crash
    /// shared writes took effect (e.g. it was helped to completion) is
    /// still linearizable inside its recorded interval. Earliest attempt
    /// wins across repeated crashes of one invocation.
    aborted_inv_start: Option<u64>,
    /// Machine state as of the current invocation's first statement,
    /// captured only while the kernel is crashable: a crash restores the
    /// machine from here so the recovered process re-runs the invocation
    /// from scratch.
    inv_snapshot: Option<Slot<M>>,
    stats: ProcStats,
    /// State-hash bookkeeping, maintained while the kernel tracks its
    /// hash: the process's index-free key (machine state and status flags)
    /// and its term in its processor's sum.
    hash_key: u128,
    hash_term: u128,
}

/// One processor's scheduler state.
#[derive(Clone, Debug, Default)]
struct Cpu {
    /// Quantum windows, at most one per priority level; inline for the
    /// usual one or two levels, so a fork allocates nothing for them.
    windows: SmallVec<Window, 2>,
    /// Last process to execute here, for dispatch events.
    last: Option<ProcessId>,
    /// State-hash bookkeeping: the sum of this processor's process terms,
    /// and this processor's term in the kernel's accumulator.
    proc_sum: u128,
    term: u128,
    /// Dispatch state, so a statement scans only its own processor: the
    /// pids pinned here in ascending order (fixed once added, since
    /// processes never migrate; inline up to eight, so a fork allocates
    /// nothing for them), how many of them are ready, and the top ready
    /// priority. Derived from statuses, never hashed; refreshed by
    /// [`Kernel::refresh_dispatch`] at every status transition.
    members: SmallVec<u32, 8>,
    ready: u32,
    top: Option<Priority>,
}

#[derive(Clone, Copy, Debug)]
struct Window {
    holder: ProcessId,
    prio: Priority,
    /// Holder's own statements executed in this window.
    count: u32,
    /// Window size (usually `Q`; possibly smaller for a first window).
    credit: u32,
    open: bool,
}

/// The filler of unused inline window slots; never observed.
impl Default for Window {
    fn default() -> Self {
        Window { holder: ProcessId(0), prio: Priority(0), count: 0, credit: 0, open: false }
    }
}

/// A completed object invocation, recorded for linearizability oracles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord {
    /// Global statement time of the invocation's first statement.
    pub start: u64,
    /// Global statement time of completion (its last statement).
    pub t: u64,
    /// The invoking process.
    pub pid: ProcessId,
    /// Zero-based invocation index within that process.
    pub inv_index: u32,
    /// The invocation's output, as reported by the machine.
    pub output: Option<u64>,
}

/// Report of one executed statement.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Global statement time (before this statement).
    pub t: u64,
    /// The process that executed.
    pub pid: ProcessId,
    /// Its processor.
    pub cpu: ProcessorId,
    /// Its priority.
    pub prio: Priority,
    /// The statement's outcome.
    pub outcome: StepOutcome,
}

/// Result of attempting one kernel step with a (possibly partial) choice
/// script. See [`Kernel::step_scripted`].
#[derive(Clone, Debug)]
pub enum StepAttempt {
    /// The statement executed.
    Stepped(StepReport),
    /// No process is ready anywhere; the system is quiescent.
    Quiescent,
    /// The script ran out at a decision with `arity` options; the kernel
    /// state was **not** modified.
    NeedChoice {
        /// Number of available options at the pending decision.
        arity: usize,
        /// The pending decision's kind tag (`"cpu"`, `"holder"`,
        /// `"first-credit"`).
        kind: &'static str,
    },
}

/// A multiprogrammed system simulation.
///
/// `M` is the shared memory type. The usual front door is a
/// [`crate::scenario::Scenario`], which captures the setup declaratively
/// and builds kernels on demand; construct a `Kernel` directly (with
/// [`Kernel::new`] + [`Kernel::add_process`], then [`Kernel::step`] /
/// [`Kernel::run`]) when you need mid-run choreography — releases, manual
/// stepping, the exhaustive explorer.
///
/// # Examples
///
/// ```
/// use sched_sim::kernel::SystemSpec;
/// use sched_sim::machine::{FnMachine, StepOutcome};
/// use sched_sim::ids::{ProcessorId, Priority};
/// use sched_sim::scenario::Scenario;
///
/// let s = Scenario::new(0u64, SystemSpec::hybrid(4))
///     .process(ProcessorId(0), Priority(1), Box::new(FnMachine::new(
///         |mem: &mut u64, calls| {
///             *mem += 1;
///             if calls == 2 { (StepOutcome::Finished, Some(*mem)) }
///             else { (StepOutcome::Continue, None) }
///         })));
/// // Declarative: run the scenario…
/// let r = s.run_fair();
/// assert_eq!((r.steps, *r.mem()), (3, 3));
/// // …or take the underlying kernel and drive it by hand.
/// let mut k = s.into_kernel();
/// let steps = k.run(&mut sched_sim::RoundRobin::new(), 100);
/// assert_eq!((steps, k.mem), (3, 3));
/// ```
pub struct Kernel<M> {
    /// Completed invocations, Arc-backed so cloning a kernel (the
    /// explorer's fork) shares them: a fork copies the records only when a
    /// branch completes another invocation, and then only O(completed) of
    /// them. Declared first so that a dropped kernel frees the log and its
    /// small `Arc` header before everything else: freed last, the header
    /// sits between a service shard's big blocks and keeps glibc's heap
    /// from returning them to the OS (glibc 2.36, x86-64: the service
    /// benchmark's peak RSS rose from 110 to 176 MiB).
    ops: Arc<Vec<OpRecord>>,
    /// The shared memory, openly accessible to oracles and constructors.
    pub mem: M,
    quantum: u32,
    first_credit: FirstCreditMode,
    procs: Vec<ProcEntry<M>>,
    /// Scheduler state per processor, indexed by cpu; each holds at most
    /// one window per priority level, searched by priority (few levels in
    /// practice).
    cpus: Vec<Cpu>,
    clock: u64,
    /// Attached observability trace ([`crate::obs`]), the kernel's only
    /// event log; `None` means no event is ever constructed.
    obs: Option<Trace>,
    /// Attached streaming profiler ([`crate::prof`]); like `obs`, `None`
    /// means the step loop constructs no events on its account.
    prof: Option<Profile>,
    /// Always-on aggregate scheduler counters. `statements`,
    /// `invocations_completed` and the two preemption counts stay 0 here:
    /// [`Kernel::counters`] sums them from the [`ProcStats`] table.
    counters: ObsCounters,
    /// The lifecycle plan: scheduled crash/recover events sorted by firing
    /// time, consumed left to right by `lifecycle_cursor`.
    lifecycle: Vec<LifecycleEvent>,
    lifecycle_cursor: usize,
    /// Whether invocation-start snapshots are captured (the cost of being
    /// crashable); enabled by [`Kernel::enable_crashes`] and by scheduling
    /// any crash.
    crashable: bool,
    /// Reusable buffers for the per-step ready-cpu / candidate-holder
    /// scans, so the hot step path performs no allocation. Inline up to
    /// eight entries, so a fork starts with them at no cost.
    scratch_cpus: SmallVec<ProcessorId, 8>,
    scratch_cands: SmallVec<ProcessId, 8>,
    /// Incremental state-hash bookkeeping: each process caches a key and a
    /// term, each processor the sum of its process terms and a term of its
    /// own (folding in its windows), and `hash_acc` is the sum of the
    /// processor terms. Sums commute, so the same fold serves the exact and
    /// the symmetry-canonical hash. A step touches one process and one
    /// processor, so [`Kernel::state_hash`] is O(|mem|) instead of
    /// O(processes + windows). Maintained only while `track_hash` is set
    /// (see [`Kernel::track_state_hash`]) so decider-driven runs that
    /// never hash pay nothing.
    track_hash: bool,
    hash_cfg: HashCfg,
    hash_acc: u128,
}

/// Configuration for [`Kernel::track_state_hash_cfg`].
///
/// `symmetric` switches [`Kernel::state_hash`] to a *canonical* hash,
/// invariant under priority-preserving permutations of processes within a
/// processor and under permutations of whole processors: two states that
/// differ only by such a relabeling hash identically, so the explorer
/// visits one representative per orbit. **Soundness is the caller's
/// obligation**: the shared memory must contain no per-process data (the
/// canonicalization permutes machines, not memory) and machine behavior
/// must not depend on [`StepCtx::pid`]. Fig. 3's value-cell memory
/// qualifies; the universal construction's pid-indexed arrays do not.
///
/// `wide` makes [`Kernel::state_hash_wide`] return the full 128-bit key
/// (the state hasher's two independent lanes) instead of its low 64
/// bits. Both lanes are computed in one pass either way, so it costs
/// nothing but visited-set memory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HashCfg {
    /// Canonicalize under process/processor symmetry (see above).
    pub symmetric: bool,
    /// Key states by both 64-bit lanes (128-bit dedup keys).
    pub wide: bool,
}

/// Domain-separation seeds of the state-hash terms.
const TAG_KEY: u64 = 0xA5;
const TAG_PROC: u64 = 0xC3;
const TAG_WIN: u64 = 0x5A;
const TAG_CPU: u64 = 0x3C;
const TAG_STATE: u64 = 0x96;
/// Stands in for a pid or cpu index in the symmetric hash, which must not
/// depend on either (no real pid or index reaches it).
const NO_ID: u32 = u32::MAX;

/// The two 64-bit halves of a 128-bit term, for [`StateHasher::mix`].
fn halves(x: u128) -> [u64; 2] {
    [x as u64, (x >> 64) as u64]
}

impl<M: Clone> Clone for Kernel<M> {
    fn clone(&self) -> Self {
        Kernel {
            mem: self.mem.clone(),
            quantum: self.quantum,
            first_credit: self.first_credit,
            procs: self.procs.clone(),
            cpus: self.cpus.clone(),
            clock: self.clock,
            ops: Arc::clone(&self.ops),
            obs: self.obs.clone(),
            prof: self.prof.clone(),
            counters: self.counters,
            lifecycle: self.lifecycle.clone(),
            lifecycle_cursor: self.lifecycle_cursor,
            crashable: self.crashable,
            scratch_cpus: SmallVec::new(),
            scratch_cands: SmallVec::new(),
            track_hash: self.track_hash,
            hash_cfg: self.hash_cfg,
            hash_acc: self.hash_acc,
        }
    }
}

impl<M> Kernel<M> {
    /// Creates a kernel over shared memory `mem` with the given spec.
    pub fn new(mem: M, spec: SystemSpec) -> Self {
        Kernel {
            mem,
            quantum: spec.quantum,
            first_credit: spec.first_credit,
            procs: Vec::new(),
            cpus: Vec::new(),
            clock: 0,
            ops: Arc::new(Vec::new()),
            obs: None,
            prof: None,
            counters: ObsCounters::default(),
            lifecycle: Vec::new(),
            lifecycle_cursor: 0,
            crashable: false,
            scratch_cpus: SmallVec::new(),
            scratch_cands: SmallVec::new(),
            track_hash: false,
            hash_cfg: HashCfg::default(),
            hash_acc: 0,
        }
    }

    /// Adds a ready process pinned to `cpu` with priority `prio`.
    /// Returns its [`ProcessId`] (assigned densely from 0).
    pub fn add_process(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        self.add(cpu, prio, machine, false)
    }

    /// Adds a *held* process: ineligible (invisible to its scheduler) until
    /// [`Kernel::release`] is called. Models delayed arrivals and the
    /// lower-bound proofs' eligibility control.
    pub fn add_held_process(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        self.add(cpu, prio, machine, true)
    }

    fn add(
        &mut self,
        cpu: ProcessorId,
        prio: Priority,
        machine: Box<dyn StepMachine<M>>,
        held: bool,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        self.procs.push(ProcEntry {
            pid,
            cpu,
            prio,
            held,
            machine: if self.track_hash {
                Slot::Shared(Arc::from(machine))
            } else {
                Slot::Owned(machine)
            },
            status: if held { Status::Held } else { Status::Ready },
            mid_invocation: false,
            ever_dispatched: false,
            interleaved_same: false,
            interleaved_higher: false,
            inv_start: 0,
            aborted_inv_start: None,
            inv_snapshot: None,
            stats: ProcStats::default(),
            hash_key: 0,
            hash_term: 0,
        });
        if self.cpus.len() <= cpu.index() {
            self.cpus.resize_with(cpu.index() + 1, Cpu::default);
        }
        self.cpus[cpu.index()].members.push(pid.0);
        self.refresh_dispatch(cpu.index());
        if self.track_hash {
            self.rebuild_hash();
        }
        pid
    }

    /// Releases a held process, making it ready. Under Axiom 1 it will
    /// preempt any lower-priority process on its cpu at the very next
    /// statement there.
    ///
    /// # Panics
    ///
    /// Panics if the process is not held.
    pub fn release(&mut self, pid: ProcessId) {
        let p = &mut self.procs[pid.index()];
        assert_eq!(p.status, Status::Held, "release of a non-held process");
        p.status = Status::Ready;
        let cpu = p.cpu.index();
        self.refresh_dispatch(cpu);
        if self.track_hash {
            self.refresh_hash(pid.index());
        }
        self.counters.releases += 1;
        if self.observing() {
            self.emit(ObsEvent::Release { t: self.clock, pid });
        }
    }

    /// Turns on invocation-start snapshots, making processes crashable:
    /// from the next invocation boundary on, [`Kernel::crash`] can restore
    /// a mid-invocation machine to its invocation's first statement.
    /// Scheduling a crash enables this automatically; call it directly
    /// only for manual [`Kernel::crash`] choreography. The flag must be
    /// set before the run starts, so every invocation has a snapshot.
    pub fn enable_crashes(&mut self) {
        self.crashable = true;
    }

    /// Schedules `pid` to crash just before the statement at global clock
    /// `t` (or at the next lifecycle opportunity if the system quiesces
    /// first). Lifecycle instants are deterministic data, so scheduled
    /// runs replay and parallelize bit-identically. Implies
    /// [`Kernel::enable_crashes`].
    pub fn schedule_crash(&mut self, t: u64, pid: ProcessId) {
        self.enable_crashes();
        self.schedule_lifecycle(LifecycleEvent { t, pid, kind: LifecycleKind::Crash });
    }

    /// Schedules `pid` to recover (crashed → ready) just before the
    /// statement at global clock `t`. See [`Kernel::schedule_crash`].
    pub fn schedule_recover(&mut self, t: u64, pid: ProcessId) {
        self.schedule_lifecycle(LifecycleEvent { t, pid, kind: LifecycleKind::Recover });
    }

    fn schedule_lifecycle(&mut self, ev: LifecycleEvent) {
        self.lifecycle.push(ev);
        // Stable sort keeps insertion order among equal instants, so a
        // crash and its same-instant recovery fire in schedule order.
        self.lifecycle[self.lifecycle_cursor..].sort_by_key(|e| e.t);
    }

    /// Crashes a ready process: any partial invocation is discarded (the
    /// machine is restored to the snapshot captured at the invocation's
    /// first statement, so shared-memory effects of the partial run remain
    /// but local state rewinds), its open window closes with
    /// [`WindowCloseReason::Crashed`], and the process becomes invisible
    /// to its scheduler until [`Kernel::recover`]. Lenient: crashing a
    /// held, finished, or already-crashed process is a no-op, which lets
    /// cyclic churn plans name victims without tracking their state.
    pub fn crash(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if self.procs[idx].status != Status::Ready {
            return;
        }
        let t = self.clock;
        let (cpu, prio) = (self.procs[idx].cpu, self.procs[idx].prio);
        {
            let p = &mut self.procs[idx];
            if p.mid_invocation {
                let snap = p
                    .inv_snapshot
                    .as_ref()
                    .expect("crashable kernels snapshot every invocation start");
                p.machine = snap.clone();
                p.mid_invocation = false;
                // The restart re-runs this same operation: keep the first
                // attempt's invocation time for its completion record.
                p.aborted_inv_start.get_or_insert(p.inv_start);
            }
            p.interleaved_same = false;
            p.interleaved_higher = false;
            p.status = Status::Crashed;
        }
        self.refresh_dispatch(cpu.index());
        // Remove the victim's window so the slot is free on recovery; an
        // open one is reported closed for the observability layer.
        let c = &mut self.cpus[cpu.index()];
        let was_open = c.windows.iter().any(|w| w.prio == prio && w.holder == pid && w.open);
        c.windows.retain(|w| !(w.prio == prio && w.holder == pid));
        if c.last == Some(pid) {
            // Force a fresh Dispatch event when the victim resumes.
            c.last = None;
        }
        self.counters.crashes += 1;
        if self.observing() {
            self.emit(ObsEvent::Crash { t, pid });
            if was_open {
                self.emit(ObsEvent::WindowClose {
                    t,
                    cpu,
                    prio,
                    holder: pid,
                    reason: WindowCloseReason::Crashed,
                });
            }
        }
        if self.track_hash {
            self.refresh_hash(idx);
        }
    }

    /// Recovers a crashed process, making it ready again: under Axiom 1 it
    /// preempts lower-priority processes at its cpu's next statement, and
    /// its next dispatch re-runs the interrupted invocation from its first
    /// statement. Lenient: recovering a non-crashed process is a no-op.
    pub fn recover(&mut self, pid: ProcessId) {
        let idx = pid.index();
        if self.procs[idx].status != Status::Crashed {
            return;
        }
        self.procs[idx].status = Status::Ready;
        self.refresh_dispatch(self.procs[idx].cpu.index());
        self.counters.recoveries += 1;
        if self.observing() {
            self.emit(ObsEvent::Recover { t: self.clock, pid });
        }
        if self.track_hash {
            self.refresh_hash(idx);
        }
    }

    /// Fires every lifecycle event due at the current clock.
    fn fire_due_lifecycle(&mut self) {
        while let Some(&ev) = self.lifecycle.get(self.lifecycle_cursor) {
            if ev.t > self.clock {
                break;
            }
            self.lifecycle_cursor += 1;
            self.apply_lifecycle(ev);
        }
    }

    /// Early-fires the next group of same-instant lifecycle events, used
    /// when the system quiesces before their scheduled time (the clock
    /// only advances on statements, so a recovery scheduled past the last
    /// executable statement would otherwise never fire). Returns whether
    /// anything fired.
    fn fire_next_lifecycle_group(&mut self) -> bool {
        let Some(&first) = self.lifecycle.get(self.lifecycle_cursor) else {
            return false;
        };
        while let Some(&ev) = self.lifecycle.get(self.lifecycle_cursor) {
            if ev.t != first.t {
                break;
            }
            self.lifecycle_cursor += 1;
            self.apply_lifecycle(ev);
        }
        true
    }

    fn apply_lifecycle(&mut self, ev: LifecycleEvent) {
        match ev.kind {
            LifecycleKind::Crash => self.crash(ev.pid),
            LifecycleKind::Recover => self.recover(ev.pid),
        }
    }

    /// The configured quantum `Q`.
    pub fn quantum(&self) -> u32 {
        self.quantum
    }

    /// The global statement count so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Number of processes.
    pub fn n_processes(&self) -> usize {
        self.procs.len()
    }

    /// The output of `pid`'s most recently completed invocation.
    pub fn output(&self, pid: ProcessId) -> Option<u64> {
        self.procs[pid.index()].machine.output()
    }

    /// Whether `pid` has finished all invocations.
    pub fn is_finished(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].status == Status::Finished
    }

    /// Whether every process has finished.
    pub fn all_finished(&self) -> bool {
        self.procs.iter().all(|p| p.status == Status::Finished)
    }

    /// Statistics for `pid`.
    pub fn stats(&self, pid: ProcessId) -> ProcStats {
        self.procs[pid.index()].stats
    }

    /// The run's [`History`]: the process table plus the attached
    /// trace's events (none unless a trace was attached with
    /// [`Kernel::attach_obs`] before the run).
    pub fn history(&self) -> History {
        History {
            quantum: self.quantum,
            procs: self
                .procs
                .iter()
                .map(|p| ProcInfo { pid: p.pid, cpu: p.cpu, prio: p.prio, held: p.held })
                .collect(),
            trace: self.obs.clone().unwrap_or_default(),
        }
    }

    /// Attaches a fresh observability [`Trace`]: subsequent steps emit
    /// structured [`ObsEvent`]s into it (see [`crate::obs`]). Replaces any
    /// previously attached trace. With no trace attached, the kernel
    /// constructs no events at all.
    pub fn attach_obs(&mut self) {
        self.obs = Some(Trace::new());
    }

    /// The attached observability trace, if any.
    pub fn obs(&self) -> Option<&Trace> {
        self.obs.as_ref()
    }

    /// Detaches and returns the observability trace, if one was attached.
    pub fn take_obs(&mut self) -> Option<Trace> {
        self.obs.take()
    }

    /// Attaches a fresh streaming [`Profile`]: subsequent steps fold every
    /// emitted event into derived metrics (see [`crate::prof`]). Unlike
    /// [`Kernel::attach_obs`] no event log is retained, so memory stays
    /// O(processes) regardless of run length. Replaces any previously
    /// attached profile; with neither a trace nor a profile attached, the
    /// kernel constructs no events at all.
    pub fn attach_prof(&mut self) {
        self.prof = Some(Profile::new());
    }

    /// The attached profile, if any.
    pub fn prof(&self) -> Option<&Profile> {
        self.prof.as_ref()
    }

    /// Detaches and returns the profile, if one was attached.
    pub fn take_prof(&mut self) -> Option<Profile> {
        self.prof.take()
    }

    /// Whether any event consumer (trace or profiler) is attached. The
    /// step loop constructs [`ObsEvent`]s only when this holds, which is
    /// what keeps the detached hot path allocation-free.
    #[inline]
    fn observing(&self) -> bool {
        self.obs.is_some() || self.prof.is_some()
    }

    /// Routes one event to every attached consumer: the profiler folds it
    /// by reference, then the trace stores it.
    fn emit(&mut self, ev: ObsEvent) {
        if let Some(p) = self.prof.as_mut() {
            p.observe(&ev);
        }
        if let Some(tr) = self.obs.as_mut() {
            tr.record(ev);
        }
    }

    /// The run's aggregate scheduler counters (always maintained).
    pub fn counters(&self) -> ObsCounters {
        let sum = |f: fn(&ProcStats) -> u64| self.procs.iter().map(|p| f(&p.stats)).sum();
        ObsCounters {
            statements: sum(|s| s.own_steps),
            same_prio_preemptions: sum(|s| s.quantum_preemptions),
            higher_prio_preemptions: sum(|s| s.priority_preemptions),
            invocations_completed: sum(|s| s.completed),
            ..self.counters
        }
    }

    /// Completed invocations, in completion order.
    pub fn ops(&self) -> &[OpRecord] {
        &self.ops
    }

    /// Pre-reserves capacity for `additional` further completed-invocation
    /// records, so a long-lived run whose invocation count is known up
    /// front (the service engine's case) never grows the op log mid-run —
    /// the record push stays allocation-free on the steady-state step path.
    pub fn reserve_ops(&mut self, additional: usize) {
        Arc::make_mut(&mut self.ops).reserve(additional);
    }

    /// Gives this kernel private copies of everything it shares with the
    /// kernel it was forked from: the op records, every
    /// machine and crash snapshot, and (through
    /// [`StepMachine::box_clone_unshared`]) what machines share with
    /// their clones. Afterwards forking, stepping and dropping it and its
    /// own forks touch no reference count its source's forks touch. The
    /// parallel explorer calls this on every subtree root a worker adopts
    /// from another worker; the state is unchanged.
    pub(crate) fn unshare(&mut self) {
        self.ops = Arc::new(Vec::clone(&self.ops));
        for p in &mut self.procs {
            p.machine.unshare();
            if let Some(s) = p.inv_snapshot.as_mut() {
                s.unshare();
            }
        }
    }

    /// Processor `c`'s ready count and top ready priority, recomputed
    /// from its members' statuses.
    fn scan_dispatch(&self, c: usize) -> (u32, Option<Priority>) {
        self.cpus[c]
            .members
            .iter()
            .map(|&m| &self.procs[m as usize])
            .filter(|p| p.status == Status::Ready)
            .fold((0, None), |(n, top), p| (n + 1, top.max(Some(p.prio))))
    }

    /// Refreshes processor `c`'s cached dispatch state after a status
    /// transition of one of its processes (`add`, `release`, `crash`,
    /// `recover`, or a process finishing in [`Kernel::step_core`]).
    fn refresh_dispatch(&mut self, c: usize) {
        let (ready, top) = self.scan_dispatch(c);
        let cpu = &mut self.cpus[c];
        (cpu.ready, cpu.top) = (ready, top);
    }

    /// Whether every processor's cached dispatch state equals a
    /// recomputation: each process is a member of its own processor and
    /// of no other, members ascend, and each ready count and top priority
    /// match the members' statuses. Checked by a debug assertion at every
    /// statement.
    fn dispatch_consistent(&self) -> bool {
        let mut members = 0;
        let cpus_agree = self.cpus.iter().enumerate().all(|(c, cpu)| {
            members += cpu.members.len();
            cpu.members.windows(2).all(|w| w[0] < w[1])
                && cpu.members.iter().all(|&m| self.procs[m as usize].cpu.index() == c)
                && (cpu.ready, cpu.top) == self.scan_dispatch(c)
        });
        cpus_agree && members == self.procs.len()
    }

    /// Core dispatch-and-execute, parametric in a fallible choice source.
    /// **No state is mutated until every needed choice has been supplied**,
    /// so a `None` from the source aborts the step cleanly.
    fn step_core(
        &mut self,
        choose: &mut dyn FnMut(Choice<'_>, usize) -> Option<usize>,
    ) -> StepAttempt {
        // Decisions resolved this step (at most cpu + holder + first-credit),
        // buffered so an aborted step (NeedChoice) records nothing.
        let mut taken = [(DecisionKind::Cpu, 0usize, 0usize); 3];
        let mut n_taken = 0usize;
        debug_assert!(
            self.dispatch_consistent(),
            "cached per-processor dispatch state diverged from a full recomputation"
        );
        // --- read-only phase: resolve all decisions ---
        // Ready-cpu options into a reusable buffer (no per-step
        // allocation), ascending because processors are walked in order.
        let cpus = &mut self.scratch_cpus;
        cpus.clear();
        cpus.extend(
            self.cpus
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ready > 0)
                .map(|(i, _)| ProcessorId(i as u32)),
        );
        if cpus.is_empty() {
            return StepAttempt::Quiescent;
        }
        let cpu = if cpus.len() == 1 {
            cpus[0]
        } else {
            match choose(Choice::Cpu { options: &cpus[..] }, cpus.len()) {
                Some(i) => {
                    assert!(i < cpus.len(), "cpu choice out of range");
                    taken[n_taken] = (DecisionKind::Cpu, cpus.len(), i);
                    n_taken += 1;
                    cpus[i]
                }
                None => return StepAttempt::NeedChoice { arity: cpus.len(), kind: "cpu" },
            }
        };
        let prio = self.cpus[cpu.index()].top.expect("runnable cpu has a top priority");
        // Is there an open window at (cpu, prio) whose holder must continue?
        let win = self.cpus[cpu.index()]
            .windows
            .iter()
            .find(|w| w.prio == prio && w.open)
            .copied();
        let must_continue = win.and_then(|w| {
            let h = &self.procs[w.holder.index()];
            (h.status == Status::Ready && w.count < w.credit).then_some(w.holder)
        });
        let (pid, new_window_credit) = match must_continue {
            Some(h) => (h, None),
            None => {
                // Candidate-holder scan over this cpu's members (ascending
                // pids), same reusable-buffer pattern.
                let cands = &mut self.scratch_cands;
                cands.clear();
                cands.extend(
                    self.cpus[cpu.index()]
                        .members
                        .iter()
                        .map(|&m| &self.procs[m as usize])
                        .filter(|p| p.status == Status::Ready && p.prio == prio)
                        .map(|p| p.pid),
                );
                debug_assert!(!cands.is_empty());
                let chosen = if cands.len() == 1 {
                    cands[0]
                } else {
                    match choose(
                        Choice::Holder { cpu, prio, options: &cands[..] },
                        cands.len(),
                    ) {
                        Some(i) => {
                            assert!(i < cands.len(), "holder choice out of range");
                            taken[n_taken] = (DecisionKind::Holder, cands.len(), i);
                            n_taken += 1;
                            cands[i]
                        }
                        None => {
                            return StepAttempt::NeedChoice { arity: cands.len(), kind: "holder" };
                        }
                    }
                };
                let q = self.quantum.max(1);
                let credit = if !self.procs[chosen.index()].ever_dispatched
                    && self.first_credit == FirstCreditMode::Adversarial
                    && q > 1
                {
                    match choose(Choice::FirstCredit { pid: chosen, quantum: q }, q as usize) {
                        Some(i) => {
                            assert!(i < q as usize, "first-credit choice out of range");
                            taken[n_taken] = (DecisionKind::FirstCredit, q as usize, i);
                            n_taken += 1;
                            i as u32 + 1
                        }
                        None => {
                            return StepAttempt::NeedChoice {
                                arity: q as usize,
                                kind: "first-credit",
                            }
                        }
                    }
                } else {
                    q
                };
                (chosen, Some(credit))
            }
        };

        // --- mutation phase ---
        self.counters.decisions += n_taken as u64;
        if self.observing() {
            for &(kind, arity, chosen) in &taken[..n_taken] {
                self.emit(ObsEvent::Decision { kind, arity, chosen });
            }
        }
        if let Some(credit) = new_window_credit {
            // Opening a fresh window. If the previous window's holder is
            // still ready mid-invocation and is being displaced, that is a
            // quantum preemption (lawful: its window was exhausted or
            // closed).
            if let Some(w) = win {
                if w.holder != pid {
                    let victim = &mut self.procs[w.holder.index()];
                    if victim.status == Status::Ready && victim.mid_invocation {
                        victim.stats.quantum_preemptions += 1;
                        if self.observing() {
                            self.emit(ObsEvent::PreemptSame {
                                t: self.clock,
                                victim: w.holder,
                                by: pid,
                            });
                        }
                    }
                }
            }
            let windows = &mut self.cpus[cpu.index()].windows;
            windows.retain(|w| w.prio != prio);
            windows.push(Window {
                holder: pid,
                prio,
                count: 0,
                credit,
                open: true,
            });
            self.counters.windows_opened += 1;
            if self.observing() {
                self.emit(ObsEvent::WindowOpen { t: self.clock, cpu, prio, holder: pid, credit });
            }
        }

        let t = self.clock;
        let idx = pid.index();
        if self.cpus[cpu.index()].last != Some(pid) {
            self.cpus[cpu.index()].last = Some(pid);
            if self.observing() {
                self.emit(ObsEvent::Dispatch { t, pid, cpu, prio });
            }
        }
        // Interleaving bookkeeping: mark every other mid-invocation process
        // on this cpu as interleaved, and account a preemption episode for
        // this process if it was interleaved since its last statement.
        let stepper_prio = prio;
        for &m in self.cpus[cpu.index()].members.iter() {
            let p = &mut self.procs[m as usize];
            if p.pid != pid && p.mid_invocation && p.status == Status::Ready {
                if p.prio == stepper_prio {
                    p.interleaved_same = true;
                } else if p.prio < stepper_prio {
                    p.interleaved_higher = true;
                }
            }
        }
        {
            let mut higher_resume = false;
            let p = &mut self.procs[idx];
            if p.interleaved_same {
                // already counted as quantum preemption at displacement time
            } else if p.interleaved_higher {
                p.stats.priority_preemptions += 1;
                higher_resume = true;
            }
            p.interleaved_same = false;
            p.interleaved_higher = false;
            p.ever_dispatched = true;
            if higher_resume && self.observing() {
                self.emit(ObsEvent::PreemptHigher { t, victim: pid });
            }
        }

        if !self.procs[idx].mid_invocation {
            // First statement of a new invocation — or the restart of one
            // aborted by a crash, which keeps the aborted attempt's
            // invocation time (it is the same operation).
            self.procs[idx].inv_start =
                self.procs[idx].aborted_inv_start.take().unwrap_or(t);
            if self.crashable {
                // Machines stage the next invocation eagerly at the
                // previous boundary, so this snapshot already carries the
                // staged operation: a crash-restore re-runs *this*
                // invocation, not a stale one.
                self.procs[idx].inv_snapshot = Some(self.procs[idx].machine.clone());
            }
            if self.observing() {
                let inv_index = self.procs[idx].stats.completed as u32;
                self.emit(ObsEvent::InvStart { t, pid, inv_index });
            }
        }
        // Labels are interned into the attached trace's symbol table;
        // without a trace the discarding context makes the whole label
        // path a no-op (and allocation-free).
        let (outcome, label) = if let Some(tr) = self.obs.as_mut() {
            let mut ctx = StepCtx::recording(pid, &mut tr.syms);
            // Split borrow: machine vs memory.
            let outcome = self.procs[idx].machine.make_mut().step(&mut self.mem, &mut ctx);
            (outcome, ctx.take_label().unwrap_or(Sym::EMPTY))
        } else {
            let mut ctx = StepCtx::discarding(pid);
            let outcome = self.procs[idx].machine.make_mut().step(&mut self.mem, &mut ctx);
            (outcome, Sym::EMPTY)
        };
        self.clock += 1;

        // Window and status updates.
        let w = self.cpus[cpu.index()]
            .windows
            .iter_mut()
            .find(|w| w.prio == prio && w.open)
            .expect("window opened above");
        debug_assert_eq!(w.holder, pid);
        w.count += 1;
        let (effect, finished) = match outcome {
            StepOutcome::Continue => (StmtEffect::Continue, false),
            StepOutcome::InvocationEnd => (StmtEffect::InvocationEnd, false),
            StepOutcome::Finished => (StmtEffect::Finished, true),
        };
        // The window closes at invocation boundaries. On quantum expiry it
        // stays open-but-exhausted so that the next dispatch can observe the
        // displaced holder and account the quantum preemption.
        if effect != StmtEffect::Continue {
            w.open = false;
        }
        // Axiom 2 window lifecycle, for the observability layer: the window
        // ends at an invocation boundary or when its credit runs out.
        let close_reason = match effect {
            StmtEffect::InvocationEnd => Some(WindowCloseReason::InvocationEnd),
            StmtEffect::Finished => Some(WindowCloseReason::Finished),
            StmtEffect::Continue if w.count >= w.credit => Some(WindowCloseReason::Expired),
            StmtEffect::Continue => None,
        };
        if close_reason == Some(WindowCloseReason::Expired) {
            // A quantum boundary crossed while the holder is inside an
            // object invocation — the schedule pressure Lemmas 2/3 bound.
            self.counters.quantum_expiries_mid_invocation += 1;
        }
        let output = {
            let p = &mut self.procs[idx];
            p.mid_invocation = effect == StmtEffect::Continue;
            p.stats.own_steps += 1;
            if finished {
                p.status = Status::Finished;
            }
            if effect != StmtEffect::Continue {
                p.stats.completed += 1;
                p.machine.output()
            } else {
                None
            }
        };
        if finished {
            self.refresh_dispatch(cpu.index());
        }
        if effect != StmtEffect::Continue {
            let rec = OpRecord {
                start: self.procs[idx].inv_start,
                t,
                pid,
                inv_index: self.procs[idx].machine_inv_index(),
                output,
            };
            match Arc::get_mut(&mut self.ops) {
                Some(ops) => ops.push(rec),
                None => {
                    // Shared with a fork: copy once, with room for `rec`
                    // (`Arc::make_mut` would copy at exact length, then
                    // regrow for the push).
                    let mut ops = Vec::with_capacity(self.ops.len() + 1);
                    ops.extend_from_slice(&self.ops);
                    ops.push(rec);
                    self.ops = Arc::new(ops);
                }
            }
        }
        if self.observing() {
            let inv_index =
                if effect != StmtEffect::Continue { self.procs[idx].machine_inv_index() } else { 0 };
            self.emit(ObsEvent::Stmt { t, pid, cpu, prio, effect, label });
            if effect != StmtEffect::Continue {
                self.emit(ObsEvent::InvEnd { t, pid, inv_index, output });
            }
            if let Some(reason) = close_reason {
                self.emit(ObsEvent::WindowClose { t, cpu, prio, holder: pid, reason });
            }
        }
        if self.track_hash {
            // Only the stepping process and its cpu's windows changed.
            self.refresh_hash(idx);
        }
        StepAttempt::Stepped(StepReport { t, pid, cpu, prio, outcome })
    }

    /// Executes one atomic statement, resolving decisions via `decider`.
    /// Scheduled lifecycle events due at the current clock fire first; if
    /// the system is quiescent but lifecycle events remain (e.g. everyone
    /// ready has crashed and a recovery is pending), the next group is
    /// early-fired and the step retried.
    ///
    /// Returns `None` when the system is quiescent (no ready process).
    pub fn step(&mut self, decider: &mut dyn Decider) -> Option<StepReport> {
        // Keep the common no-lifecycle hot path free of the firing loop:
        // one integer compare when no plan is pending.
        if self.lifecycle_cursor < self.lifecycle.len() {
            return self.step_with_lifecycle(decider);
        }
        match self.step_core(&mut |c, n| Some(decider.choose(c, n))) {
            StepAttempt::Stepped(r) => Some(r),
            StepAttempt::Quiescent => None,
            StepAttempt::NeedChoice { .. } => unreachable!("decider always answers"),
        }
    }

    /// [`Kernel::step`] with lifecycle events still pending: due events
    /// fire first, and a quiescent system early-fires the next group and
    /// retries (the clock only advances on statements, so a recovery
    /// scheduled past the last executable statement would otherwise never
    /// fire).
    #[cold]
    fn step_with_lifecycle(&mut self, decider: &mut dyn Decider) -> Option<StepReport> {
        self.fire_due_lifecycle();
        loop {
            match self.step_core(&mut |c, n| Some(decider.choose(c, n))) {
                StepAttempt::Stepped(r) => return Some(r),
                StepAttempt::Quiescent => {
                    if !self.fire_next_lifecycle_group() {
                        return None;
                    }
                }
                StepAttempt::NeedChoice { .. } => unreachable!("decider always answers"),
            }
        }
    }

    /// Attempts one statement using only the choices in `script` (consumed
    /// left to right). If the script runs out at a decision point, returns
    /// [`StepAttempt::NeedChoice`] **without modifying any state** — the
    /// exhaustive explorer forks here.
    pub fn step_scripted(&mut self, script: &[usize]) -> StepAttempt {
        let mut i = 0;
        self.step_core(&mut |_c, _n| {
            if i < script.len() {
                let v = script[i];
                i += 1;
                Some(v)
            } else {
                None
            }
        })
    }

    /// Runs until quiescent or `max_steps` statements, whichever first.
    /// Returns the number of statements executed.
    pub fn run(&mut self, decider: &mut dyn Decider, max_steps: u64) -> u64 {
        let mut n = 0;
        while n < max_steps {
            if self.step(decider).is_none() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Index-free key of one process's scheduling-relevant state: its
    /// machine's [`StepMachine::state_key`] and its status flags. Two
    /// processes with equal keys are interchangeable under symmetry.
    fn proc_key(p: &ProcEntry<M>) -> u128 {
        let mut h = StateHasher::new(TAG_KEY);
        p.machine.state_key(&mut h);
        let flags = (u64::from(p.status.rank()) << 2)
            | (u64::from(p.mid_invocation) << 1)
            | u64::from(p.ever_dispatched);
        h.write_u64(flags);
        // Only ever hashed further or compared, never summed: no finalizer.
        h.lanes()
    }

    /// A process's term in its processor's sum: its key and priority, plus
    /// its pid unless the hash is symmetric.
    fn proc_term(&self, p: &ProcEntry<M>, key: u128) -> u128 {
        let id = if self.hash_cfg.symmetric { NO_ID } else { p.pid.0 };
        let [k0, k1] = halves(key);
        StateHasher::mix(TAG_PROC, &[k0, k1, (u64::from(p.prio.0) << 32) | u64::from(id)])
    }

    /// Processor `c`'s term in the accumulator, from its process sum and
    /// its open windows, plus its index unless the hash is symmetric. A
    /// window's holder enters by pid, or under symmetry by its key (looked
    /// up through `key_of`). The open windows are summed, not listed:
    /// there is at most one per priority level, so their order carries no
    /// state.
    fn cpu_term(&self, c: usize, proc_sum: u128, key_of: impl Fn(usize) -> u128) -> u128 {
        let sym = self.hash_cfg.symmetric;
        let mut wins = 0u128;
        for w in self.cpus[c].windows.iter().filter(|w| w.open) {
            let holder = if sym { key_of(w.holder.index()) } else { u128::from(w.holder.0) };
            let [h0, h1] = halves(holder);
            let words =
                [(u64::from(w.prio.0) << 32) | u64::from(w.count), u64::from(w.credit), h0, h1];
            wins = wins.wrapping_add(StateHasher::mix(TAG_WIN, &words));
        }
        let id = if sym { NO_ID } else { c as u32 };
        let [s0, s1] = halves(proc_sum);
        let [w0, w1] = halves(wins);
        StateHasher::mix(TAG_CPU, &[s0, s1, w0, w1, u64::from(id)])
    }

    /// Rebuilds every cached key, term and sum from scratch.
    fn rebuild_hash(&mut self) {
        for i in 0..self.procs.len() {
            let key = Self::proc_key(&self.procs[i]);
            let term = self.proc_term(&self.procs[i], key);
            let p = &mut self.procs[i];
            (p.hash_key, p.hash_term) = (key, term);
        }
        for c in &mut self.cpus {
            c.proc_sum = 0;
        }
        for p in &self.procs {
            let c = &mut self.cpus[p.cpu.index()];
            c.proc_sum = c.proc_sum.wrapping_add(p.hash_term);
        }
        self.hash_acc = 0;
        for c in 0..self.cpus.len() {
            let term = self.cpu_term(c, self.cpus[c].proc_sum, |i| self.procs[i].hash_key);
            self.cpus[c].term = term;
            self.hash_acc = self.hash_acc.wrapping_add(term);
        }
    }

    /// Turns on incremental [`Kernel::state_hash`] maintenance: after this,
    /// each step refreshes only the stepping process's and cpu's hash
    /// terms, making repeated `state_hash` calls O(|mem|). The explorer
    /// enables this on its root clone; decider-driven runs that never hash
    /// skip the bookkeeping entirely. Clones inherit the flag.
    pub fn track_state_hash(&mut self) {
        self.track_state_hash_cfg(HashCfg::default());
    }

    /// Like [`Kernel::track_state_hash`], with an explicit [`HashCfg`].
    ///
    /// The exact and the symmetric hash are both maintained incrementally:
    /// terms are combined by wrapping addition, which commutes, so a
    /// canonical fold over permuted processes and processors needs no sort
    /// and no scratch buffer.
    ///
    /// A tracked kernel is one being explored, so it also switches its
    /// machines to copy-on-write sharing: forks of it bump reference
    /// counts instead of cloning machines.
    pub fn track_state_hash_cfg(&mut self, cfg: HashCfg) {
        self.hash_cfg = cfg;
        self.track_hash = true;
        for p in &mut self.procs {
            p.machine.share();
            if let Some(s) = p.inv_snapshot.as_mut() {
                s.share();
            }
        }
        self.rebuild_hash();
    }

    /// Re-keys process `idx` and re-terms its processor after a change to
    /// either (a statement, a status change, a window opening or closing).
    fn refresh_hash(&mut self, idx: usize) {
        let key = Self::proc_key(&self.procs[idx]);
        let c = self.procs[idx].cpu.index();
        if key != self.procs[idx].hash_key {
            let term = self.proc_term(&self.procs[idx], key);
            let p = &mut self.procs[idx];
            let cpu = &mut self.cpus[c];
            cpu.proc_sum = cpu.proc_sum.wrapping_sub(p.hash_term).wrapping_add(term);
            (p.hash_key, p.hash_term) = (key, term);
        }
        let term = self.cpu_term(c, self.cpus[c].proc_sum, |i| self.procs[i].hash_key);
        self.hash_acc = self.hash_acc.wrapping_sub(self.cpus[c].term).wrapping_add(term);
        self.cpus[c].term = term;
    }

    /// The accumulator recomputed from scratch, without touching the
    /// caches; the incremental `hash_acc` must always equal this (checked
    /// by a debug assertion in [`Kernel::state_hash`]).
    fn compute_hash_acc(&self) -> u128 {
        let key_of = |i: usize| Self::proc_key(&self.procs[i]);
        (0..self.cpus.len()).fold(0u128, |acc, c| {
            let proc_sum = self
                .procs
                .iter()
                .filter(|p| p.cpu.index() == c)
                .fold(0u128, |s, p| s.wrapping_add(self.proc_term(p, Self::proc_key(p))));
            acc.wrapping_add(self.cpu_term(c, proc_sum, key_of))
        })
    }

    /// The full 128-bit state key: memory plus the scheduler accumulator,
    /// honoring the symmetric mode of the active [`HashCfg`].
    fn state_key(&self) -> u128
    where
        M: Hash,
    {
        let acc = if self.track_hash {
            debug_assert_eq!(
                self.hash_acc,
                self.compute_hash_acc(),
                "incremental state-hash accumulator diverged from a full recomputation"
            );
            self.hash_acc
        } else {
            self.compute_hash_acc()
        };
        let mut h = StateHasher::new(TAG_STATE);
        self.mem.hash(&mut h);
        h.write_u128(acc);
        h.finish128()
    }

    /// Hashes the complete scheduling-relevant state (memory, machines,
    /// statuses, windows) for visited-state deduplication. Requires
    /// `M: Hash`.
    ///
    /// While [`Kernel::track_state_hash_cfg`] is on, the process and
    /// window contributions — exact or symmetry-canonical — are maintained
    /// incrementally (each step refreshes only the stepping process's and
    /// cpu's terms), so this costs one hashing pass over the memory per
    /// call and allocates nothing.
    pub fn state_hash(&self) -> u64
    where
        M: Hash,
    {
        self.state_key() as u64
    }

    /// The 128-bit state-hash key: low 64 bits are [`Kernel::state_hash`];
    /// with [`HashCfg::wide`] the high 64 bits are the state hasher's
    /// second, independent lane over the same state, otherwise zero. Used
    /// by the explorer to shrink the false-prune (dedup-collision)
    /// probability.
    pub fn state_hash_wide(&self) -> u128
    where
        M: Hash,
    {
        let key = self.state_key();
        if self.hash_cfg.wide {
            key
        } else {
            u128::from(key as u64)
        }
    }

    /// Partial-order-reduction metadata for the *pending* cpu decision
    /// (the state where [`Kernel::step_scripted`] with an empty script
    /// reports `NeedChoice { kind: "cpu", .. }`).
    ///
    /// Returns `Some(i)` — an index into the runnable-cpu options, in the
    /// same ascending order the decision exposes — when restricting the
    /// search to choice `i` is sound: every statement that could execute
    /// next on that cpu has a declared [`Footprint`] independent of the
    /// may-footprint of every ready process on every other cpu. Scheduler
    /// state (windows, candidate sets, credits) is per-processor by
    /// construction and a step mutates only its own cpu's share, so shared
    /// memory is the only channel coupling processors: with disjoint
    /// footprints each deferred cross-cpu step commutes with the chosen
    /// one, the chosen cpu's options form a singleton persistent set (per
    /// processor — its holder/first-credit sub-choices are still explored
    /// in full), and every quiescent state of the full schedule tree
    /// remains reachable in the reduced tree.
    ///
    /// Returns `None` when fewer than two cpus are runnable or no cpu
    /// qualifies. Held processes are ignored: nothing releases them during
    /// an exploration.
    pub fn ample_cpu_choice(&self) -> Option<usize> {
        // The runnable cpus in ascending order, read off the cached
        // dispatch state rather than collected: this runs at every
        // explored cpu decision.
        let cpus = || {
            (0..self.cpus.len()).filter(|&c| self.cpus[c].ready > 0).map(|c| ProcessorId(c as u32))
        };
        cpus().nth(1)?;
        for (i, cpu) in cpus().enumerate() {
            let fp = self.pending_step_footprint(cpu);
            if fp == Footprint::Unknown {
                continue;
            }
            let mut others = Footprint::LOCAL;
            for p in &self.procs {
                if p.cpu != cpu && p.status == Status::Ready {
                    others = others.union(p.machine.may_footprint());
                }
            }
            if fp.independent(others) {
                return Some(i);
            }
        }
        None
    }

    /// Union footprint of the statement(s) that could execute next on
    /// `cpu`: the continuing window holder's next statement if the open
    /// window forces continuation, otherwise the next statements of every
    /// candidate holder at the top ready priority.
    fn pending_step_footprint(&self, cpu: ProcessorId) -> Footprint {
        let c = &self.cpus[cpu.index()];
        let Some(prio) = c.top else {
            return Footprint::Unknown;
        };
        let win = c.windows.iter().find(|w| w.prio == prio && w.open);
        if let Some(w) = win {
            let h = &self.procs[w.holder.index()];
            if h.status == Status::Ready && w.count < w.credit {
                return h.machine.next_footprint();
            }
        }
        c.members
            .iter()
            .map(|&m| &self.procs[m as usize])
            .filter(|p| p.status == Status::Ready && p.prio == prio)
            .fold(Footprint::LOCAL, |acc, p| acc.union(p.machine.next_footprint()))
    }
}

impl<M> ProcEntry<M> {
    fn machine_inv_index(&self) -> u32 {
        // Completed invocations = stats.completed; the op being recorded is
        // the one that just completed.
        (self.stats.completed - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{RoundRobin, Scripted, SeededRandom};
    use crate::history::check_well_formed;
    use crate::machine::FnMachine;
    use crate::rng::SplitMix64;

    /// A machine that appends its tag to a shared log, `len` statements per
    /// invocation, `invs` invocations.
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

    #[test]
    fn single_process_runs_to_completion() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        let p = k.add_process(ProcessorId(0), Priority(1), logger(7, 3, 1));
        let mut d = RoundRobin::new();
        assert_eq!(k.run(&mut d, 100), 3);
        assert!(k.is_finished(p));
        assert_eq!(k.mem, vec![7, 7, 7]);
        assert_eq!(k.output(p), Some(3));
    }

    #[test]
    fn axiom1_higher_priority_runs_first() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        let _lo = k.add_process(ProcessorId(0), Priority(1), logger(1, 3, 1));
        let _hi = k.add_process(ProcessorId(0), Priority(2), logger(2, 3, 1));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![2, 2, 2, 1, 1, 1]);
    }

    #[test]
    fn axiom1_release_preempts_immediately() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(10));
        let _lo = k.add_process(ProcessorId(0), Priority(1), logger(1, 6, 1));
        let hi = k.add_held_process(ProcessorId(0), Priority(2), logger(2, 2, 1));
        let mut d = RoundRobin::new();
        // run two statements of lo, then release hi
        k.step(&mut d);
        k.step(&mut d);
        k.release(hi);
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 2, 2, 1, 1, 1, 1]);
        // lo was preempted once by a higher-priority process
        assert_eq!(k.stats(ProcessId(0)).priority_preemptions, 1);
    }

    #[test]
    fn axiom2_quantum_windows_round_robin() {
        // Two equal-priority processes, quantum 2, invocation length 4:
        // fair round-robin alternates windows of exactly 2 statements.
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(2));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 2, 2, 1, 1, 2, 2]);
        assert_eq!(k.stats(ProcessId(0)).quantum_preemptions, 1);
        assert_eq!(k.stats(ProcessId(1)).quantum_preemptions, 1);
    }

    #[test]
    fn window_survives_higher_priority_preemption() {
        // Axiom 2: hi's arrival must not let the other equal-priority
        // process slip in before lo finishes its quantum.
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.attach_obs();
        let _a = k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        let _b = k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        let hi = k.add_held_process(ProcessorId(0), Priority(2), logger(9, 2, 1));
        let mut d = RoundRobin::new();
        k.step(&mut d); // a: 1 stmt into its window
        k.release(hi);
        k.run(&mut d, 100);
        // hi runs, then a RESUMES its window (3 more stmts) before b.
        assert_eq!(k.mem, vec![1, 9, 9, 1, 1, 1, 2, 2, 2, 2]);
        assert_eq!(check_well_formed(&k.history()), Ok(()));
    }

    #[test]
    fn invocation_end_closes_window() {
        // Quantum 10 but invocations of length 2: windows close at
        // invocation boundaries, so processes alternate every 2 statements.
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(10));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 2));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 2, 2));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 2, 2, 1, 1, 2, 2]);
        // No quantum preemptions: all switches at invocation boundaries.
        assert_eq!(k.stats(ProcessId(0)).quantum_preemptions, 0);
        assert_eq!(k.stats(ProcessId(1)).quantum_preemptions, 0);
    }

    #[test]
    fn multiprocessor_interleaving_is_decider_controlled() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 1));
        k.add_process(ProcessorId(1), Priority(1), logger(2, 2, 1));
        // Script: cpu1, cpu0, cpu1, cpu0 (choices index into runnable list)
        let mut d = Scripted::new(vec![1, 0, 1, 0]);
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![2, 1, 2, 1]);
    }

    #[test]
    fn scripted_step_aborts_without_mutation() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 1));
        k.add_process(ProcessorId(1), Priority(1), logger(2, 2, 1));
        let before = k.clock();
        match k.step_scripted(&[]) {
            StepAttempt::NeedChoice { arity, kind } => {
                assert_eq!(arity, 2);
                assert_eq!(kind, "cpu");
            }
            other => panic!("expected NeedChoice, got {other:?}"),
        }
        assert_eq!(k.clock(), before);
        assert!(k.mem.is_empty());
        // With a complete script the same step succeeds.
        assert!(matches!(k.step_scripted(&[0]), StepAttempt::Stepped(_)));
        assert_eq!(k.mem, vec![1]);
    }

    #[test]
    fn adversarial_first_credit_allows_early_preemption() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4).with_adversarial_alignment());
        k.attach_obs();
        k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 4, 1));
        // holder choice 0 (p0), first-credit choice 0 (credit 1), then
        // holder p1 with full credit.
        let mut d = Scripted::new(vec![0, 0, 1, 3]);
        k.run(&mut d, 100);
        assert_eq!(&k.mem[..5], &[1, 2, 2, 2, 2]);
        // The short first window is lawful per the model.
        assert_eq!(check_well_formed(&k.history()), Ok(()));
    }

    #[test]
    fn histories_from_random_runs_are_well_formed() {
        for seed in 0..30 {
            let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(3).with_adversarial_alignment());
            k.attach_obs();
            k.add_process(ProcessorId(0), Priority(1), logger(1, 5, 2));
            k.add_process(ProcessorId(0), Priority(1), logger(2, 5, 2));
            k.add_process(ProcessorId(0), Priority(2), logger(3, 4, 1));
            k.add_process(ProcessorId(1), Priority(1), logger(4, 5, 1));
            let mut d = SeededRandom::new(seed);
            k.run(&mut d, 10_000);
            assert!(k.all_finished());
            check_well_formed(&k.history()).unwrap_or_else(|v| {
                panic!("seed {seed}: ill-formed history: {v}");
            });
        }
    }

    #[test]
    fn ops_record_completions_in_order() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(8));
        let p = k.add_process(ProcessorId(0), Priority(1), logger(1, 2, 3));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        let ops = k.ops();
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].pid, p);
        assert_eq!(ops[0].inv_index, 0);
        assert_eq!(ops[2].inv_index, 2);
    }

    #[test]
    fn state_hash_changes_with_progress() {
        let mut k = Kernel::new(0u64, SystemSpec::hybrid(4));
        k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(FnMachine::new(|mem: &mut u64, calls| {
                *mem += 1;
                if calls == 1 {
                    (StepOutcome::Finished, None)
                } else {
                    (StepOutcome::Continue, None)
                }
            })),
        );
        let h0 = k.state_hash();
        let mut d = RoundRobin::new();
        k.step(&mut d);
        assert_ne!(h0, k.state_hash());
    }

    /// A machine that adds one to the memory per statement and finishes
    /// after `len` statements, with no per-process identity.
    fn adder(len: u32) -> Box<dyn StepMachine<u64>> {
        Box::new(FnMachine::new(move |mem: &mut u64, calls| {
            *mem += 1;
            if calls + 1 == len {
                (StepOutcome::Finished, None)
            } else {
                (StepOutcome::Continue, None)
            }
        }))
    }

    #[test]
    fn symmetric_hash_ignores_process_and_cpu_labels() {
        // Two identical processes on each of two cpus, all at equal
        // priority. Stepping cpu 0 or cpu 1 first, and opening the window
        // of either holder, reach states that differ only by labels.
        let first_step = |cfg: HashCfg, script: &[usize]| {
            let mut k = Kernel::new(0u64, SystemSpec::hybrid(4));
            for cpu in [0, 0, 1, 1] {
                k.add_process(ProcessorId(cpu), Priority(1), adder(3));
            }
            k.track_state_hash_cfg(cfg);
            assert!(matches!(k.step_scripted(script), StepAttempt::Stepped(_)));
            k.state_hash_wide()
        };
        let sym = HashCfg { symmetric: true, wide: true };
        let exact = HashCfg { symmetric: false, wide: true };
        let scripts: [&[usize]; 4] = [&[0, 0], &[0, 1], &[1, 0], &[1, 1]];
        let sym_keys: Vec<u128> = scripts.iter().map(|s| first_step(sym, s)).collect();
        assert!(sym_keys.iter().all(|&h| h == sym_keys[0]), "one orbit, one key");
        let mut exact_keys: Vec<u128> = scripts.iter().map(|s| first_step(exact, s)).collect();
        exact_keys.sort_unstable();
        exact_keys.dedup();
        assert_eq!(exact_keys.len(), 4, "the exact hash tells every label apart");
    }

    #[test]
    fn incremental_hash_tracks_lifecycle_events() {
        // Every mutation path (steps, releases, crashes, recoveries)
        // refreshes the cached terms: with tracking on, each state_hash
        // call debug-asserts the accumulator against a full recomputation,
        // and equal states reached by different paths hash equal.
        for cfg in [HashCfg::default(), HashCfg { symmetric: true, wide: true }] {
            let build = || {
                let mut k = Kernel::new(0u64, SystemSpec::hybrid(2));
                k.add_process(ProcessorId(0), Priority(1), adder(4));
                k.add_process(ProcessorId(0), Priority(1), adder(4));
                k.add_held_process(ProcessorId(1), Priority(2), adder(2));
                k.enable_crashes();
                k.track_state_hash_cfg(cfg);
                k
            };
            let mut k = build();
            let mut d = RoundRobin::new();
            k.step(&mut d);
            k.release(ProcessId(2));
            k.crash(ProcessId(0));
            let h_crashed = k.state_hash_wide();
            k.recover(ProcessId(0));
            while k.step(&mut d).is_some() {
                k.state_hash_wide();
            }
            assert!(k.all_finished());
            assert_ne!(h_crashed, k.state_hash_wide());
            // Tracking switched on late rebuilds the same key.
            let mut late = build();
            late.track_state_hash();
            late.track_state_hash_cfg(cfg);
            assert_eq!(late.state_hash_wide(), build().state_hash_wide());
        }
    }

    #[test]
    fn clone_forks_independent_executions() {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 3, 1));
        let mut d = RoundRobin::new();
        k.step(&mut d);
        let mut k2 = k.clone();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 1, 1]);
        assert_eq!(k2.mem, vec![1]);
        let mut d2 = RoundRobin::new();
        k2.run(&mut d2, 100);
        assert_eq!(k2.mem, vec![1, 1, 1]);
    }

    /// A read-then-write increment of `mem` by `tag`, three invocations,
    /// as a [`ProgMachine`] (whose clones share a reference count).
    fn incrementer(tag: u64) -> Box<dyn StepMachine<u64>> {
        use crate::program::{Flow, ProgMachine, ProgramBuilder};
        let mut b = ProgramBuilder::<u64, u64>::new();
        let inc = b.proc("inc");
        b.stmt(inc, "read", |l, m| {
            *l = *m;
            Flow::Next
        });
        b.stmt(inc, "write", move |l, m| {
            *l += tag;
            *m = *l;
            Flow::Return
        });
        let prog = b.build();
        let plan: crate::program::InvocationPlan<u64> =
            Arc::new(move |_, i| (i < 3).then_some(inc));
        Box::new(ProgMachine::with_plan(&prog, 0, plan).with_output(|l| Some(*l)))
    }

    #[test]
    fn unshared_fork_runs_like_its_source() {
        let mut k = Kernel::new(0u64, SystemSpec::hybrid(2));
        k.add_process(ProcessorId(0), Priority(1), incrementer(1));
        k.add_process(ProcessorId(0), Priority(1), incrementer(10));
        k.add_process(
            ProcessorId(1),
            Priority(2),
            Box::new(FnMachine::new(|mem: &mut u64, calls| {
                *mem += 100;
                if calls == 1 {
                    (StepOutcome::Finished, Some(*mem))
                } else {
                    (StepOutcome::Continue, None)
                }
            })),
        );
        k.enable_crashes();
        k.track_state_hash_cfg(HashCfg { symmetric: false, wide: true });
        let mut d = SeededRandom::new(7);
        for _ in 0..5 {
            k.step(&mut d);
        }
        assert!(!k.ops.is_empty(), "the fork point follows a completed invocation");

        let mut u = k.clone();
        u.unshare();
        assert_eq!(Arc::strong_count(&u.ops), 1);
        for p in &u.procs {
            for slot in std::iter::once(&p.machine).chain(p.inv_snapshot.as_ref()) {
                match slot {
                    Slot::Shared(a) => assert_eq!(Arc::strong_count(a), 1),
                    Slot::Owned(_) => panic!("a tracked kernel shares its machines"),
                }
            }
        }

        let (mut dk, mut du) = (SeededRandom::new(11), SeededRandom::new(11));
        loop {
            assert_eq!(u.state_hash_wide(), k.state_hash_wide());
            assert_eq!(u.ops(), k.ops());
            assert_eq!(u.mem, k.mem);
            let (a, b) = (k.step(&mut dk), u.step(&mut du));
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            if a.is_none() {
                break;
            }
        }
        assert_eq!(u.ops().len(), 7, "three invocations each, and one more");
    }

    /// One processor's dispatch state recomputed over every process,
    /// independently of the cached membership: (members, ready count, top
    /// ready priority).
    fn full_scan_dispatch<M>(k: &Kernel<M>, c: usize) -> (Vec<u32>, u32, Option<Priority>) {
        let on_cpu = || k.procs.iter().filter(move |p| p.cpu.index() == c);
        let ready = || on_cpu().filter(|p| p.status == Status::Ready);
        (on_cpu().map(|p| p.pid.0).collect(), ready().count() as u32, ready().map(|p| p.prio).max())
    }

    fn assert_dispatch_matches_full_scan<M>(k: &Kernel<M>, what: &str) {
        for (c, cpu) in k.cpus.iter().enumerate() {
            let cached = (cpu.members.to_vec(), cpu.ready, cpu.top);
            assert_eq!(cached, full_scan_dispatch(k, c), "{what}: cpu {c}");
        }
        assert!(k.dispatch_consistent(), "{what}");
    }

    /// Records the options of every decision it answers, choosing at
    /// random.
    struct OptionRecorder {
        rng: SplitMix64,
        cpus: Vec<Vec<ProcessorId>>,
        holders: Vec<(ProcessorId, Priority, Vec<ProcessId>)>,
    }

    impl Decider for OptionRecorder {
        fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
            match choice {
                Choice::Cpu { options } => self.cpus.push(options.to_vec()),
                Choice::Holder { cpu, prio, options } => {
                    self.holders.push((cpu, prio, options.to_vec()))
                }
                Choice::FirstCredit { .. } => {}
            }
            self.rng.index(n)
        }
    }

    /// Steps `k` once under `d` and checks each decision's options
    /// against the full-scan derivation: every cpu with a ready process,
    /// sorted and deduplicated, then the cpu's ready pids at its top
    /// priority, ascending.
    fn step_and_check_options(k: &mut Kernel<Vec<u64>>, d: &mut OptionRecorder) -> bool {
        let mut cpu_opts: Vec<ProcessorId> =
            k.procs.iter().filter(|p| p.status == Status::Ready).map(|p| p.cpu).collect();
        cpu_opts.sort_unstable();
        cpu_opts.dedup();
        let holder_opts = |cpu: ProcessorId| {
            let top = full_scan_dispatch(k, cpu.index()).2;
            let at_top = |p: &&ProcEntry<Vec<u64>>| {
                p.status == Status::Ready && p.cpu == cpu && Some(p.prio) == top
            };
            (top, k.procs.iter().filter(at_top).map(|p| p.pid).collect::<Vec<_>>())
        };
        let expected_holders: Vec<_> =
            (0..k.cpus.len() as u32).map(|c| holder_opts(ProcessorId(c))).collect();
        d.cpus.clear();
        d.holders.clear();
        let stepped = k.step(d).is_some();
        assert_eq!(stepped, !cpu_opts.is_empty());
        for opts in &d.cpus {
            assert_eq!(opts, &cpu_opts, "cpu options");
        }
        for (cpu, prio, opts) in &d.holders {
            let (top, expected) = &expected_holders[cpu.index()];
            assert_eq!((Some(*prio), opts), (*top, expected), "holder options on {cpu:?}");
        }
        stepped
    }

    #[test]
    fn cached_dispatch_state_matches_a_full_scan() {
        // Random add / add_held / release / crash / recover / step
        // sequences on multi-processor, multi-priority kernels: after every
        // operation, and on a fork, each processor's cached dispatch state
        // equals a recomputation over every process, and every decision
        // offers exactly the options the full scans would.
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let n_cpus = rng.range_u32(1, 4);
            let spec = SystemSpec::hybrid(rng.range_u32(0, 4)).with_adversarial_alignment();
            let mut k = Kernel::new(Vec::new(), spec);
            k.enable_crashes();
            let rng_d = SplitMix64::new(!seed);
            let mut d = OptionRecorder { rng: rng_d, cpus: Vec::new(), holders: Vec::new() };
            for op in 0..80u32 {
                let pick = |rng: &mut SplitMix64, k: &Kernel<Vec<u64>>| {
                    ProcessId(rng.index(k.n_processes().max(1)) as u32)
                };
                match rng.index(8) {
                    0 | 1 if k.n_processes() < 20 => {
                        let (cpu, prio) = (rng.range_u32(0, n_cpus), rng.range_u32(1, 4));
                        let m = logger(u64::from(op), rng.range_u32(1, 4), rng.range_u32(1, 3));
                        if rng.coin() {
                            k.add_process(ProcessorId(cpu), Priority(prio), m);
                        } else {
                            k.add_held_process(ProcessorId(cpu), Priority(prio), m);
                        }
                    }
                    2 => {
                        let held = k.procs.iter().find(|p| p.status == Status::Held).map(|p| p.pid);
                        if let Some(pid) = held {
                            k.release(pid);
                        }
                    }
                    3 if k.n_processes() > 0 => k.crash(pick(&mut rng, &k)),
                    4 if k.n_processes() > 0 => k.recover(pick(&mut rng, &k)),
                    5 => while step_and_check_options(&mut k, &mut d) {},
                    _ => {
                        for _ in 0..rng.range_u32(1, 6) {
                            step_and_check_options(&mut k, &mut d);
                        }
                    }
                }
                assert_dispatch_matches_full_scan(&k, &format!("seed {seed} op {op}"));
            }
            assert_dispatch_matches_full_scan(&k.clone(), &format!("seed {seed} fork"));
        }
    }

    #[test]
    fn quantum_zero_means_free_interleaving() {
        // Pure priority-scheduled degeneration: equal-priority processes
        // may alternate at every statement.
        let mut k = Kernel::new(Vec::new(), SystemSpec::pure_priority());
        k.add_process(ProcessorId(0), Priority(1), logger(1, 3, 1));
        k.add_process(ProcessorId(0), Priority(1), logger(2, 3, 1));
        let mut d = RoundRobin::new();
        k.run(&mut d, 100);
        assert_eq!(k.mem, vec![1, 2, 1, 2, 1, 2]);
    }
}
