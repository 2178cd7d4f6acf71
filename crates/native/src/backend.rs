//! The native [`MemBackend`]: real OS threads over atomic cells
//! ([`NativeReg`], [`NativeCas`], [`NativeCons`]), each one `AtomicU64` on
//! a cache line of its own, in two pacing modes.
//!
//! The cells are bare words: the backend takes the step
//! ([`MemBackend::step`]) before each counted access, so a cell is 64
//! bytes and holds no handle to its backend.
//!
//! * **Free** ([`NativeBackend::free`]) — the step hook only counts
//!   accesses, into a [`StripedCounter`] lane the thread owns, so after
//!   its first count it executes no locked instruction. Threads
//!   interleave however the hardware and the commodity scheduler let
//!   them. This is the throughput backend, and the one where the paper's
//!   quantum axiom does **not** hold: Fig. 3 may disagree here, and that
//!   disagreement is a *measurement* (see EXPERIMENTS.md, "Native
//!   execution").
//! * **Lockstep** ([`NativeBackend::lockstep`]) — the simulator's hybrid
//!   scheduler paces the threads: [`NativeBackend::pace`] runs a
//!   `sched_sim` [`Kernel`] (`SystemSpec::hybrid(Q)`, one processor, a
//!   [`SeededRandom`] decider) whose process `p` stands in for thread `p`.
//!   Each kernel statement grants the thread one statement and returns its
//!   report at its next sync point: its next step (`Continue`), an
//!   invocation end (`InvocationEnd`) or [`finish`](NativeBackend::finish)
//!   (`Finished`). So Axioms 1 and 2 and the records ([`Kernel::ops`]) are
//!   the kernel's, and it decides while every thread waits: same seed,
//!   same schedule. A statement costs two mutex/condvar handoffs.

use std::cell::RefCell;
use std::hash::Hasher;
use std::panic;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use sched_sim::decision::SeededRandom;
use sched_sim::ids::{Priority, ProcessorId};
use sched_sim::kernel::{Kernel, SystemSpec};
use sched_sim::machine::{StepCtx, StepMachine, StepOutcome};
use wfmem::backend::{CasCell, ConsCell, MemBackend, RegCell};
use wfmem::{OptVal, Val};

use crate::cells::{Padded, StripedCounter, EMPTY};

/// Owned lanes in the access counter: one per thread for the thread
/// counts the harness drives. With the shared lane the counter is 16
/// cache lines; beyond 15 threads the rest share that lane, contended but
/// still exact.
const COUNTER_LANES: usize = 15;

thread_local! {
    // The current thread's lockstep registration.
    static REGISTRATION: RefCell<Option<Registration>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------------
// Lockstep pacing: the handoff between the kernel and the threads
// ---------------------------------------------------------------------------

/// One thread's side of the handoff.
#[derive(Default)]
struct Slot {
    /// Granted a statement it has not started.
    granted: bool,
    /// Running a statement it has not reported.
    running: bool,
    /// Reported `Finished`, or returned from its workload.
    done: bool,
    /// The last statement's outcome and output, until the kernel takes it.
    report: Option<(StepOutcome, Option<Val>)>,
}

struct Handoff {
    slots: Vec<Slot>,
    /// A process ended without reporting `Finished`: every wait gives up.
    aborted: bool,
}

/// The unwind payload of a thread released by an aborted run.
struct Aborted;

/// A lockstep backend's parameters and handoff, with a condvar for the pacer and one per thread.
struct Lockstep {
    prio: Vec<u32>,
    quantum: u32,
    seed: u64,
    handoff: Mutex<Handoff>,
    pacer: Condvar,
    threads: Vec<Condvar>,
}

impl Lockstep {
    /// Locks the handoff, ignoring poison: the abort after a panic must.
    fn lock(&self) -> MutexGuard<'_, Handoff> {
        self.handoff.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ends the run: every waiting thread gives up.
    fn abort(&self) {
        self.lock().aborted = true;
        self.pacer.notify_one();
        self.threads.iter().for_each(Condvar::notify_one);
    }

    /// Kernel side: grants process `pid` its next statement and returns
    /// the thread's report, or `None` if the run aborted.
    fn grant(&self, pid: usize) -> Option<(StepOutcome, Option<Val>)> {
        let mut h = self.lock();
        h.slots[pid].granted = true;
        self.threads[pid].notify_one();
        loop {
            if let Some(report) = h.slots[pid].report.take() {
                return Some(report);
            }
            if h.aborted || h.slots[pid].done {
                drop(h);
                self.abort();
                return None;
            }
            h = self.pacer.wait(h).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Thread side of a step: reports the statement `pid` was running, if
    /// any, as `Continue`, and waits for the next grant.
    fn park(&self, pid: usize) {
        let mut h = self.lock();
        let slot = &mut h.slots[pid];
        assert!(!slot.done, "lockstep process {pid} stepped after its last statement");
        if std::mem::take(&mut slot.running) {
            slot.report = Some((StepOutcome::Continue, None));
            self.pacer.notify_one();
        }
        while !h.slots[pid].granted {
            if h.aborted {
                panic::resume_unwind(Box::new(Aborted));
            }
            h = self.threads[pid].wait(h).unwrap_or_else(PoisonError::into_inner);
        }
        (h.slots[pid].granted, h.slots[pid].running) = (false, true);
    }

    /// Thread side of an invocation end (`output` is `Some`) or of
    /// `finish`: reports the statement `pid` was running as `outcome`.
    fn report(&self, pid: usize, outcome: StepOutcome, output: Option<Val>) {
        let mut h = self.lock();
        let slot = &mut h.slots[pid];
        let running = std::mem::take(&mut slot.running);
        assert!(running || output.is_none(), "lockstep process {pid}: statement-free invocation");
        slot.done = outcome == StepOutcome::Finished;
        if running {
            slot.report = Some((outcome, output));
        }
        self.pacer.notify_one();
    }
}

/// A lockstep thread's process, dropped when the thread exits: a process
/// not finished by then (a panic) ends the run, so no thread waits forever.
struct Registration(NativeBackend, usize);

impl Drop for Registration {
    fn drop(&mut self) {
        let ls = self.0.inner.lockstep.as_ref();
        if let Some(ls) = ls.filter(|ls| ls.lock().slots.get(self.1).is_some_and(|s| !s.done)) {
            ls.abort();
        }
    }
}

/// The pacing kernel's stand-in for thread `pid`: each of its statements
/// is one granted to the thread, with the outcome the thread reports.
#[derive(Clone)]
struct StandIn {
    backend: NativeBackend,
    pid: usize,
    output: Option<Val>,
}

impl StepMachine<()> for StandIn {
    fn step(&mut self, _mem: &mut (), _ctx: &mut StepCtx<'_>) -> StepOutcome {
        let ls = self.backend.inner.lockstep.as_ref().expect("a stand-in paces a lockstep backend");
        // An aborted run finishes the stand-in, and the pacing loop stops.
        let (outcome, output) = ls.grant(self.pid).unwrap_or((StepOutcome::Finished, None));
        self.output = output;
        outcome
    }

    fn output(&self) -> Option<u64> {
        self.output
    }

    fn box_clone(&self) -> Box<dyn StepMachine<()>> {
        Box::new(self.clone())
    }

    fn state_key(&self, h: &mut dyn Hasher) {
        h.write_usize(self.pid);
    }
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

struct NbInner {
    accesses: StripedCounter<COUNTER_LANES>,
    lockstep: Option<Lockstep>,
}

/// The native memory backend (see the [module docs](self) for the two
/// pacing modes).
///
/// Cheap to clone (an [`Arc`] handle). Every counted access goes through
/// it — its [`MemBackend`] accessors report the access and wait for a
/// grant, then touch the cell — so the cells hold no handle.
///
/// # Examples
///
/// ```
/// use native::backend::NativeBackend;
/// use wfmem::backend::{MemBackend, RegCell};
///
/// let b = NativeBackend::free();
/// let r = b.reg();
/// b.write(&r, 7);
/// assert_eq!(b.read(&r), Some(7));
/// assert_eq!(b.accesses(), 2);
/// assert_eq!(r.read(), Some(7)); // the cell's own read takes no step
/// assert_eq!(b.accesses(), 2);
/// ```
#[derive(Clone)]
pub struct NativeBackend {
    inner: Arc<NbInner>,
}

impl NativeBackend {
    /// A freely-scheduled backend: no statement scheduler, accesses
    /// counted.
    pub fn free() -> Self {
        NativeBackend {
            inner: Arc::new(NbInner {
                accesses: StripedCounter::new(),
                lockstep: None,
            }),
        }
    }

    /// A lockstep backend pacing one process per entry of `prio`, its
    /// static priority (larger = higher, matching `sched_sim::Priority`),
    /// with quantum `quantum` (statements) and decider seed `seed`. Panics
    /// if `quantum == 0`.
    pub fn lockstep(prio: &[u32], quantum: u32, seed: u64) -> Self {
        assert!(quantum > 0, "quantum must be at least 1 statement");
        let slots = prio.iter().map(|_| Slot::default()).collect();
        NativeBackend {
            inner: Arc::new(NbInner {
                accesses: StripedCounter::new(),
                lockstep: Some(Lockstep {
                    prio: prio.to_vec(),
                    quantum,
                    seed,
                    handoff: Mutex::new(Handoff { slots, aborted: false }),
                    pacer: Condvar::new(),
                    threads: prio.iter().map(|_| Condvar::new()).collect(),
                }),
            }),
        }
    }

    /// Binds the calling thread to process `pid` (required before any
    /// cell access on a lockstep backend, whose run ends if the thread
    /// exits before `pid` finishes; harmless in free mode).
    pub fn register(&self, pid: u32) {
        if self.inner.lockstep.is_some() {
            REGISTRATION.set(Some(Registration(self.clone(), pid as usize)));
        }
    }

    /// Lockstep: reports the statement process `pid` was running as its
    /// invocation's end, with `output` (as `Finished` if `last`).
    pub(crate) fn end_invocation(&self, pid: u32, output: Val, last: bool) {
        if let Some(ls) = &self.inner.lockstep {
            let outcome = if last { StepOutcome::Finished } else { StepOutcome::InvocationEnd };
            ls.report(pid as usize, outcome, Some(output));
        }
    }

    /// Marks process `pid` finished (lockstep: reports the statement it was
    /// running, if any, as `Finished`) when its workload returns.
    pub fn finish(&self, pid: u32) {
        if let Some(ls) = &self.inner.lockstep {
            ls.report(pid as usize, StepOutcome::Finished, None);
        }
    }

    /// Runs the pacing kernel on this thread until every process has
    /// finished and returns it, its [`ops`](Kernel::ops) the run's records
    /// (`None` in free mode). Call it after spawning one registered thread
    /// per process, then [`join`](Self::join) them.
    pub fn pace(&self) -> Option<Kernel<()>> {
        let ls = self.inner.lockstep.as_ref()?;
        let mut kernel = Kernel::new((), SystemSpec::hybrid(ls.quantum));
        for (pid, &prio) in ls.prio.iter().enumerate() {
            let stand_in = StandIn { backend: self.clone(), pid, output: None };
            kernel.add_process(ProcessorId(0), Priority(prio), Box::new(stand_in));
        }
        let mut decider = SeededRandom::new(ls.seed);
        while kernel.step(&mut decider).is_some() && !ls.lock().aborted {}
        Some(kernel)
    }

    /// Joins a run's threads and returns their results in order, then
    /// readies a lockstep backend for its next run. Resumes the panic that
    /// ended the run, or panics if a lockstep process ended without
    /// reporting `Finished`.
    pub fn join<T>(&self, handles: Vec<JoinHandle<T>>) -> Vec<T> {
        let mut results = Vec::with_capacity(handles.len());
        for h in handles {
            match h.join() {
                Ok(out) => results.push(out),
                // Released by the abort of a run another thread ended.
                Err(p) if p.is::<Aborted>() => {}
                Err(p) => panic::resume_unwind(p),
            }
        }
        if let Some(ls) = &self.inner.lockstep {
            let mut h = ls.lock();
            assert!(!h.aborted, "a lockstep process ended without reporting Finished");
            h.slots.iter_mut().for_each(|s| *s = Slot::default());
        }
        results
    }

    /// Total counted statements (stepped cell accesses + direct
    /// [`step`](MemBackend::step)s) so far.
    pub fn accesses(&self) -> u64 {
        self.inner.accesses.sum()
    }
}

/// The native atomic register cell: one `AtomicU64` on its own cache
/// line, `⊥` as [`EMPTY`].
///
/// All accesses are `SeqCst`: the read/write consensus algorithms (Fig. 3,
/// the universal construction's announce/publish protocol) are argued
/// under sequentially consistent registers, and a relaxed register here
/// would make any observed disagreement ambiguous between "scheduler
/// admitted it" (the interesting measurement) and "store buffer reordered
/// it" (an artifact). See `BACKENDS.md` for the full argument.
///
/// # Panics
///
/// [`write`](RegCell::write) panics on `u64::MAX`, the `⊥` sentinel.
pub struct NativeReg {
    word: Padded<AtomicU64>,
}

impl RegCell for NativeReg {
    fn read(&self) -> OptVal {
        match self.word.get().load(Ordering::SeqCst) {
            EMPTY => None,
            v => Some(v),
        }
    }

    fn write(&self, v: Val) {
        assert_ne!(v, EMPTY, "u64::MAX is the ⊥ sentinel");
        self.word.get().store(v, Ordering::SeqCst);
    }
}

/// The native compare-and-swap cell: one `AtomicU64` on its own cache
/// line.
///
/// `compare_exchange(old, new, AcqRel, Acquire)` + `load(Acquire)`: every
/// value written is released by the successful CAS and acquired by the
/// load or CAS that observes it, so data published before a CAS is
/// visible to whoever reads its value — the only ordering the C&S object
/// interface promises.
pub struct NativeCas {
    word: Padded<AtomicU64>,
}

impl CasCell for NativeCas {
    fn cas(&self, old: Val, new: Val) -> bool {
        self.word.get().compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    fn read(&self) -> Val {
        self.word.get().load(Ordering::Acquire)
    }
}

/// The native first-wins consensus cell: one `AtomicU64` on its own cache
/// line, decided by a single `compare_exchange` from `⊥`.
///
/// Hardware C&S has consensus number ∞, so — unlike the simulator's
/// [`wfmem::LocalConsensus`], which Theorem 1 has to *justify* on a
/// hybrid uniprocessor — the unbounded first-wins semantics holds
/// unconditionally on any multiprocessor. [`decide`](ConsCell::decide)
/// loads the cell first and returns a decided value from that load, so
/// replaying a decided slot executes no locked instruction; only a cell
/// that reads `⊥` is CASed. Load and failure ordering `Acquire`, success
/// `AcqRel`: whoever learns the decided value also sees everything the
/// winner published before proposing (the universal construction's
/// replay depends on exactly this edge).
///
/// # Panics
///
/// [`decide`](ConsCell::decide) panics on `u64::MAX`, the `⊥` sentinel.
pub struct NativeCons {
    word: Padded<AtomicU64>,
}

impl ConsCell for NativeCons {
    fn decide(&self, v: Val) -> Val {
        assert_ne!(v, EMPTY, "u64::MAX is the ⊥ sentinel");
        let word = self.word.get();
        match word.load(Ordering::Acquire) {
            EMPTY => match word.compare_exchange(EMPTY, v, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => v,
                Err(current) => current,
            },
            decided => decided,
        }
    }

    fn read(&self) -> OptVal {
        match self.word.get().load(Ordering::Acquire) {
            EMPTY => None,
            v => Some(v),
        }
    }
}

impl MemBackend for NativeBackend {
    type Reg = NativeReg;
    type Cas = NativeCas;
    type Cons = NativeCons;

    fn reg(&self) -> NativeReg {
        NativeReg { word: Padded::new(AtomicU64::new(EMPTY)) }
    }

    fn cas(&self, init: Val) -> NativeCas {
        NativeCas { word: Padded::new(AtomicU64::new(init)) }
    }

    fn cons(&self) -> NativeCons {
        NativeCons { word: Padded::new(AtomicU64::new(EMPTY)) }
    }

    /// The step hook: one call = one counted atomic statement of the
    /// calling process. Counts the statement in the calling thread's own
    /// [`StripedCounter`] lane (a plain load and store once the thread has
    /// claimed it, so in free mode the hook executes no locked
    /// instruction) and, on a lockstep backend,
    /// reports the statement the process was running as `Continue` and
    /// parks the thread until the pacing kernel grants it the next one.
    /// Every accessor calls it before its cell operation; the harness
    /// calls it directly once before each statement of a statement-level
    /// program (Fig. 3's `decide`), whose register accesses are the cells'
    /// own un-stepped operations.
    fn step(&self) {
        self.inner.accesses.add(1);
        if let Some(ls) = &self.inner.lockstep {
            let pid = REGISTRATION.with_borrow(|r| r.as_ref().map(|r| r.1));
            ls.park(pid.expect("lockstep threads must call NativeBackend::register first"));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::thread;
    use wfmem::SimBackend;

    // The cell contract every backend keeps, one clause per function. A
    // clause takes a fresh backend (or a way to make one) and `count`,
    // which reads that backend's statement audit (`SimBackend::steps`,
    // `NativeBackend::accesses`). Every clause runs on both backends: the
    // `SimBackend` runs and the counting clauses are below, the native
    // register, C&S and consensus runs are in `cells::tests`. Each access
    // goes through the backend's stepped accessors and is counted there.

    /// A register starts at ⊥ and reads back what was written.
    pub(crate) fn reg_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let r = b.reg();
        assert_eq!(b.read(&r), None, "a register starts at ⊥");
        b.write(&r, 3);
        assert_eq!(b.read(&r), Some(3));
        assert_eq!(count(&b), 3, "one statement per access");
    }

    /// A failed C&S leaves the value and a successful one installs it.
    pub(crate) fn cas_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let w = b.cas(2);
        assert!(!b.compare_swap(&w, 0, 1), "a C&S with a stale `old` fails");
        assert_eq!(b.read_word(&w), 2, "and leaves the value");
        assert!(b.compare_swap(&w, 2, 7));
        assert_eq!(b.read_word(&w), 7);
        assert_eq!(count(&b), 4, "one statement per access");
    }

    /// A consensus cell reads ⊥, the first proposal wins, and a read
    /// returns the winner.
    pub(crate) fn cons_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let c = b.cons();
        assert_eq!(b.read_decided(&c), None, "a consensus cell starts undecided");
        assert_eq!(b.decide(&c, 4), 4);
        assert_eq!(b.decide(&c, 6), 4, "the first proposal wins");
        assert_eq!(b.read_decided(&c), Some(4));
        assert_eq!(count(&b), 4, "one statement per access");
    }

    /// Each stepped access counts exactly one statement, and a cell's own
    /// operations count none.
    fn counting_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let (r, w, c) = (b.reg(), b.cas(0), b.cons());
        b.write(&r, 1);
        b.read(&r);
        b.compare_swap(&w, 0, 5);
        b.read_word(&w);
        b.decide(&c, 9);
        b.read_decided(&c);
        assert_eq!(count(&b), 6, "one statement per access");
        r.write(2);
        assert_eq!((r.read(), w.read(), c.read()), (Some(2), 5, Some(9)));
        assert_eq!(count(&b), 6, "un-stepped cell operations count nothing");
    }

    /// Two backends of one kind count separately, and an access counts on
    /// the backend it goes through, whichever backend made the cell.
    fn separation_clause<B: MemBackend>(new: impl Fn() -> B, count: impl Fn(&B) -> u64) {
        let (a, b) = (new(), new());
        a.write(&a.reg(), 1);
        b.write(&b.reg(), 1);
        b.read(&b.reg());
        assert_eq!((count(&a), count(&b)), (1, 2), "backends count separately");
        b.read(&a.reg());
        assert_eq!((count(&a), count(&b)), (1, 3), "the accessing backend counts");
    }

    #[test]
    fn reg_initially_bottom() {
        reg_clause(SimBackend::new(), SimBackend::steps);
    }

    #[test]
    fn cas_cell_matches_modeled_semantics() {
        cas_clause(SimBackend::new(), SimBackend::steps);
    }

    #[test]
    fn cons_cell_first_wins() {
        cons_clause(SimBackend::new(), SimBackend::steps);
    }

    #[test]
    fn every_access_counts_one_step() {
        counting_clause(SimBackend::new(), SimBackend::steps);
    }

    #[test]
    fn free_backend_counts_accesses() {
        counting_clause(NativeBackend::free(), NativeBackend::accesses);
    }

    #[test]
    fn step_hook_counts_one_statement() {
        let b = NativeBackend::free();
        b.step();
        assert_eq!(b.accesses(), 1, "one statement per direct step");
        let r = b.reg();
        r.write(5);
        assert_eq!(r.read(), Some(5));
        assert_eq!(b.accesses(), 1, "hook-free register accesses count nothing");
    }

    #[test]
    fn access_counter_spans_sixteen_lines() {
        // 15 owned lanes and the shared one: the backend's allocation
        // keeps the size it had with 16 `fetch_add` lanes.
        assert_eq!(std::mem::size_of::<StripedCounter<COUNTER_LANES>>(), 16 * 64);
    }

    #[test]
    fn cells_share_one_counter_per_backend() {
        separation_clause(SimBackend::new, SimBackend::steps);
        separation_clause(NativeBackend::free, NativeBackend::accesses);
    }

    /// Runs `work(b, pid)` on one registered thread per process of
    /// lockstep backend `b`, paced by its kernel, and returns the kernel.
    fn run(
        b: &NativeBackend,
        n: u32,
        work: impl Fn(&NativeBackend, u32) + Send + Sync + 'static,
    ) -> Kernel<()> {
        let work = Arc::new(work);
        let handles: Vec<_> = (0..n)
            .map(|pid| {
                let (b, work) = (b.clone(), Arc::clone(&work));
                thread::spawn(move || {
                    b.register(pid);
                    work(&b, pid);
                    b.finish(pid);
                })
            })
            .collect();
        let kernel = b.pace().expect("a lockstep backend");
        b.join(handles);
        kernel
    }

    /// Runs `n` processes on lockstep backend `b`, each performing
    /// `invocations` invocations of `len` counted statements; every
    /// statement appends the process id to a shared trace through plain
    /// (uncounted) atomics, so the returned slot trace is exactly the
    /// statement interleaving the kernel granted. Two processes running in
    /// one statement slot would claim the same slot and leave a 0 hole at
    /// the end of the trace.
    fn lockstep_trace(b: NativeBackend, n: u32, invocations: usize, len: usize) -> Vec<u64> {
        let total = n as usize * invocations * len;
        let slots: Arc<Vec<AtomicU64>> = Arc::new((0..total).map(|_| AtomicU64::new(0)).collect());
        let (trace, cursor) = (Arc::clone(&slots), AtomicU64::new(0));
        run(&b, n, move |b, pid| {
            for inv in 0..invocations {
                for _ in 0..len {
                    // One counted statement; the claim-then-write runs
                    // while this process holds the statement grant, so it
                    // cannot race.
                    b.step();
                    let k = cursor.load(Ordering::SeqCst);
                    let _ = cursor.compare_exchange(k, k + 1, Ordering::SeqCst, Ordering::SeqCst);
                    trace[k as usize].store(u64::from(pid) + 1, Ordering::SeqCst);
                }
                b.end_invocation(pid, 0, inv + 1 == invocations);
            }
        });
        slots.iter().map(|s| s.load(Ordering::SeqCst)).collect()
    }

    /// The maximal runs of one process in `trace`, as (process, length).
    fn runs(trace: &[u64]) -> Vec<(u64, usize)> {
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for &v in trace {
            match runs.last_mut() {
                Some((w, len)) if *w == v => *len += 1,
                _ => runs.push((v, 1)),
            }
        }
        runs
    }

    #[test]
    fn lockstep_schedule_is_deterministic_across_runs() {
        let a = lockstep_trace(NativeBackend::lockstep(&[1; 3], 4, 42), 3, 1, 6);
        let b = lockstep_trace(NativeBackend::lockstep(&[1; 3], 4, 42), 3, 1, 6);
        assert_eq!(a, b, "same seed must give bit-identical interleaving");
        let c = lockstep_trace(NativeBackend::lockstep(&[1; 3], 4, 43), 3, 1, 6);
        // Different seeds *may* coincide for tiny traces, but across 18
        // slots the rotation order virtually always differs; assert only
        // that all three are complete (every slot written).
        assert!(c.iter().all(|&v| v != 0));
        assert!(a.iter().all(|&v| v != 0));
    }

    #[test]
    fn lockstep_respects_quantum_windows() {
        // Q = 4, 2 processes, one invocation of 8 statements each: every
        // process's work is a whole number of quantum windows, so the
        // writer trace must consist of runs whose lengths are multiples
        // of 4 (consecutive windows may land on the same process, merging
        // runs, but a window can never be cut short — Axiom 2).
        let trace = lockstep_trace(NativeBackend::lockstep(&[1; 2], 4, 7), 2, 1, 8);
        assert!(trace.iter().all(|&v| v != 0), "incomplete trace {trace:?}");
        let runs = runs(&trace);
        for &(_, len) in &runs {
            assert_eq!(len % 4, 0, "mid-window preemption in {runs:?}");
        }
        assert!(runs.len() >= 2, "two processes must both appear: {runs:?}");
    }

    #[test]
    fn lockstep_window_closes_at_invocation_end() {
        // Q = 4, 2 processes, 4 invocations of 3 statements each. The
        // kernel's reading of Axiom 2: a window closes when its holder's
        // invocation ends, and the next invocation opens a fresh one. So
        // no window spans an invocation end, and every maximal run is a
        // whole number of invocations.
        for seed in 0..16 {
            let trace = lockstep_trace(NativeBackend::lockstep(&[1; 2], 4, seed), 2, 4, 3);
            assert!(trace.iter().all(|&v| v != 0), "seed {seed}: incomplete trace {trace:?}");
            let runs = runs(&trace);
            for &(_, len) in &runs {
                assert_eq!(len % 3, 0, "seed {seed}: a window spans an invocation end: {runs:?}");
            }
        }
    }

    #[test]
    fn lockstep_priorities_run_to_completion_first() {
        // Priorities 2,1: the high-priority process must own a full prefix
        // of the statement trace (Axiom 1), regardless of seed.
        for seed in 0..4 {
            let trace = lockstep_trace(NativeBackend::lockstep(&[2, 1], 4, seed), 2, 1, 4);
            assert!(trace.iter().all(|&v| v != 0), "incomplete trace {trace:?}");
            assert_eq!(trace, vec![1, 1, 1, 1, 2, 2, 2, 2], "Axiom 1 violated: {trace:?}");
        }
    }

    #[test]
    fn lockstep_statements_accounted() {
        // Direct steps only: each process's last statement is reported as
        // `Finished` by `finish`, so each completes one invocation.
        let b = NativeBackend::lockstep(&[1; 2], 8, 1);
        let counters = run(&b, 2, |b, _| (0..5).for_each(|_| b.step())).counters();
        assert_eq!((counters.statements, counters.invocations_completed), (10, 2));
        assert_eq!(b.accesses(), 10);
    }

    #[test]
    #[should_panic(expected = "ended without reporting Finished")]
    fn lockstep_process_without_a_statement_ends_the_run() {
        // Process 1 returns without a statement, so no statement of its
        // reports `Finished`: the kernel cannot run it, and instead of
        // waiting for it the run ends and `join` says why.
        run(&NativeBackend::lockstep(&[1; 2], 4, 0), 2, |b, pid| {
            if pid == 0 {
                (0..3).for_each(|_| b.step());
            }
        });
    }

    #[test]
    #[should_panic(expected = "worker 1 failed")]
    fn panicking_lockstep_worker_panics_the_run() {
        // Worker 1 panics mid-run while worker 0 is parked for a grant:
        // the run ends, worker 0 is released, and the panic reaches the
        // caller instead of leaving the run waiting for a report.
        run(&NativeBackend::lockstep(&[1; 2], 1, 0), 2, |b, pid| {
            for i in 0..10 {
                b.step();
                assert!(pid != 1 || i < 3, "worker 1 failed");
            }
        });
    }
}
