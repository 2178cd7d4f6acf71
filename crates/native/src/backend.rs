//! The native [`MemBackend`]: real OS threads over cache-line-padded
//! atomic cells ([`NativeReg`], [`NativeCas`], [`NativeCons`]), in two
//! pacing modes.
//!
//! * **Free** ([`NativeBackend::free`]) — the step hook only counts
//!   accesses (into a [`StripedCounter`], so the accounting itself is
//!   contention-free). Threads interleave however the hardware and the
//!   commodity scheduler let them. This is the throughput backend, and the
//!   one where the paper's quantum axiom does **not** hold: Fig. 3 may
//!   disagree here, and that disagreement is a *measurement* (see
//!   EXPERIMENTS.md, "Native execution").
//! * **Lockstep** ([`NativeBackend::lockstep`]) — the step hook parks the
//!   calling thread until a deterministic token-passing scheduler grants
//!   it the next atomic statement. The scheduler enforces the paper's
//!   hybrid axioms at statement granularity — always run a
//!   maximal-priority parked process (Axiom 1), switch between
//!   equal-priority processes only at quantum boundaries of `Q` counted
//!   statements (Axiom 2) — with ties broken by a seeded in-tree
//!   [`SplitMix64`]. Same seed, same configuration ⇒ bit-identical
//!   schedule and outcome, on any platform: the scheduler only decides
//!   when **no** thread is running (all live threads are parked at their
//!   step hooks), so OS timing can change *nothing* about the
//!   interleaving. This is how the generic algorithms are run under the
//!   paper's model on real threads — `Q ≥ 8` must make Fig. 3 agree
//!   (Theorem 1), `Q = 1` admits the same disagreements the simulator's
//!   explorer finds.
//!
//! The lockstep rendezvous costs a mutex/condvar handoff per statement —
//! it is a *model checker on real threads*, not a benchmark mode; free
//! mode is the one that measures hardware speed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sched_sim::rng::SplitMix64;
use wfmem::backend::{CasCell, ConsCell, MemBackend, RegCell};
use wfmem::{OptVal, Val};

use crate::cells::{Padded, StripedCounter, EMPTY};

/// Lanes in the access counter: enough for the thread counts the harness
/// drives (beyond this, counting is contended but still exact).
const COUNTER_LANES: usize = 16;

thread_local! {
    // The registered process id of the current thread (lockstep mode), and
    // a cheap per-thread lane for the striped access counter (free mode).
    static CURRENT_PID: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
    static COUNTER_LANE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    // Lockstep: the (first, last) global statement indices granted to the
    // current thread since the last `take_grant_span` (or `register`).
    static GRANT_SPAN: std::cell::Cell<Option<(u64, u64)>> = const { std::cell::Cell::new(None) };
}

static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);

fn my_lane() -> usize {
    COUNTER_LANE.with(|l| {
        let v = l.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        l.set(v);
        v
    })
}

// ---------------------------------------------------------------------------
// The lockstep scheduler
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PState {
    /// Registered but not yet parked at its first statement.
    NotStarted,
    /// Parked at its step hook, waiting for a grant.
    Parked,
    /// Granted a statement and executing it (at most one process at a
    /// time).
    Running,
    /// Finished its workload.
    Done,
}

struct LsState {
    status: Vec<PState>,
    prio: Vec<u32>,
    /// Pending grant: the process allowed to take its next statement.
    grant: Option<u32>,
    /// The most recently granted process (quantum continuity).
    last: Option<u32>,
    /// Statements left in the current quantum window.
    ticks_left: u32,
    quantum: u32,
    rng: SplitMix64,
    /// Processes that have parked at least once; scheduling starts only
    /// when all of them have (so thread spawn order cannot leak into the
    /// schedule).
    started: usize,
    /// Total granted statements.
    statements: u64,
    /// Equal-priority preemptions taken at quantum expiry.
    preemptions: u64,
}

impl LsState {
    /// Picks the next process to grant among the parked ones, enforcing
    /// Axiom 1 (maximal priority) and Axiom 2 (continue the current
    /// process until its quantum of `Q` statements is exhausted, then
    /// rotate — seeded-randomly — among its equal-priority peers).
    fn schedule(&mut self) -> Option<u32> {
        let parked: Vec<u32> = (0..self.status.len() as u32)
            .filter(|&p| self.status[p as usize] == PState::Parked)
            .collect();
        if parked.is_empty() {
            return None;
        }
        let top = parked.iter().map(|&p| self.prio[p as usize]).max().unwrap();
        let eligible: Vec<u32> =
            parked.into_iter().filter(|&p| self.prio[p as usize] == top).collect();
        let continuing = self.last.filter(|&l| {
            self.status[l as usize] == PState::Parked && self.prio[l as usize] == top
        });
        if let Some(last) = continuing {
            if self.ticks_left > 0 {
                self.ticks_left -= 1;
                return Some(last);
            }
        }
        // Fresh quantum window for a (possibly) different process.
        let pick = eligible[self.rng.index(eligible.len())];
        if continuing.is_some_and(|l| l != pick) {
            self.preemptions += 1;
        }
        self.ticks_left = self.quantum - 1;
        Some(pick)
    }
}

struct Lockstep {
    m: Mutex<LsState>,
    cv: Condvar,
    n: usize,
}

impl Lockstep {
    /// Parks `pid` until the scheduler grants it one statement.
    fn step(&self, pid: u32) {
        let mut st = self.m.lock().unwrap();
        if st.status[pid as usize] == PState::NotStarted {
            st.started += 1;
        }
        st.status[pid as usize] = PState::Parked;
        self.cv.notify_all();
        loop {
            if st.grant == Some(pid) {
                st.grant = None;
                st.status[pid as usize] = PState::Running;
                st.last = Some(pid);
                let index = st.statements;
                st.statements += 1;
                GRANT_SPAN.with(|s| {
                    let first = s.get().map_or(index, |(first, _)| first);
                    s.set(Some((first, index)));
                });
                return;
            }
            let idle = st.grant.is_none()
                && st.started == self.n
                && !st.status.contains(&PState::Running);
            if idle {
                // The caller itself is parked, so the candidate set is
                // never empty here.
                let next = st.schedule().expect("a parked process exists");
                st.grant = Some(next);
                self.cv.notify_all();
                continue;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Marks `pid` finished and lets the scheduler move on.
    fn finish(&self, pid: u32) {
        let mut st = self.m.lock().unwrap();
        if st.status[pid as usize] == PState::NotStarted {
            st.started += 1; // a process may finish without ever stepping
        }
        st.status[pid as usize] = PState::Done;
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------------

struct NbInner {
    accesses: StripedCounter<COUNTER_LANES>,
    lockstep: Option<Lockstep>,
}

impl NbInner {
    fn step(&self) {
        self.accesses.add(my_lane(), 1);
        if let Some(ls) = &self.lockstep {
            let pid = CURRENT_PID
                .with(|p| p.get())
                .expect("lockstep threads must call NativeBackend::register first");
            ls.step(pid);
        }
    }
}

/// The native memory backend (see the [module docs](self) for the two
/// pacing modes).
///
/// Cheap to clone (an [`Arc`] handle); cells hold their own handle so they
/// can report accesses and park at the scheduler.
///
/// # Examples
///
/// ```
/// use native::backend::NativeBackend;
/// use wfmem::backend::{MemBackend, RegCell};
///
/// let b = NativeBackend::free();
/// let r = b.reg();
/// r.write(7);
/// assert_eq!(r.read(), Some(7));
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

    /// A lockstep backend scheduling `n` processes with the given static
    /// priorities (larger = higher, matching `sched_sim::Priority`),
    /// quantum `quantum` (statements), and tie-breaking seed `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum == 0` or `prio.len() != n`.
    pub fn lockstep(n: usize, prio: &[u32], quantum: u32, seed: u64) -> Self {
        assert!(quantum > 0, "quantum must be at least 1 statement");
        assert_eq!(prio.len(), n, "one priority per process");
        NativeBackend {
            inner: Arc::new(NbInner {
                accesses: StripedCounter::new(),
                lockstep: Some(Lockstep {
                    m: Mutex::new(LsState {
                        status: vec![PState::NotStarted; n],
                        prio: prio.to_vec(),
                        grant: None,
                        last: None,
                        ticks_left: 0,
                        quantum,
                        rng: SplitMix64::new(seed),
                        started: 0,
                        statements: 0,
                        preemptions: 0,
                    }),
                    cv: Condvar::new(),
                    n,
                }),
            }),
        }
    }

    /// Lockstep with all `n` processes at equal priority — the pure
    /// quantum-scheduling regime Lemma 1 and Theorem 1 address.
    pub fn lockstep_equal(n: usize, quantum: u32, seed: u64) -> Self {
        Self::lockstep(n, &vec![1; n], quantum, seed)
    }

    /// Binds the calling thread to process `pid` (required before any
    /// cell access on a lockstep backend; harmless in free mode). Clears
    /// any grant span an earlier run left on this thread.
    pub fn register(&self, pid: u32) {
        CURRENT_PID.with(|p| p.set(Some(pid)));
        GRANT_SPAN.with(|s| s.set(None));
    }

    /// Whether this backend paces statements through the lockstep
    /// scheduler.
    pub(crate) fn is_lockstep(&self) -> bool {
        self.inner.lockstep.is_some()
    }

    /// Lockstep only: the global indices of the first and last statements
    /// granted to the calling thread since the previous call (or since
    /// [`register`](Self::register)), then resets the span. `None` if no
    /// statement was granted in between. Grant indices are a pure function
    /// of the seed and configuration, so stamps taken from them are too.
    pub(crate) fn take_grant_span(&self) -> Option<(u64, u64)> {
        GRANT_SPAN.with(|s| s.take())
    }

    /// Marks process `pid` finished (lockstep: releases its scheduler
    /// slot; must be called by each registered thread when its workload
    /// returns).
    pub fn finish(&self, pid: u32) {
        if let Some(ls) = &self.inner.lockstep {
            ls.finish(pid);
        }
    }

    /// Total counted statements (cell accesses + explicit `step`s) so far.
    pub fn accesses(&self) -> u64 {
        self.inner.accesses.sum()
    }

    /// Lockstep only: `(granted statements, equal-priority preemptions)`.
    pub fn lockstep_stats(&self) -> Option<(u64, u64)> {
        self.inner.lockstep.as_ref().map(|ls| {
            let st = ls.m.lock().unwrap();
            (st.statements, st.preemptions)
        })
    }
}

/// The native atomic register cell: one padded `AtomicU64`, `⊥` as
/// [`EMPTY`], bound to its backend's step hook.
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
    hook: Arc<NbInner>,
    word: Padded<AtomicU64>,
}

impl RegCell for NativeReg {
    fn read(&self) -> OptVal {
        self.hook.step();
        match self.word.get().load(Ordering::SeqCst) {
            EMPTY => None,
            v => Some(v),
        }
    }

    fn write(&self, v: Val) {
        self.hook.step();
        assert_ne!(v, EMPTY, "u64::MAX is the ⊥ sentinel");
        self.word.get().store(v, Ordering::SeqCst);
    }
}

/// The native compare-and-swap cell: one padded `AtomicU64`, bound to its
/// backend's step hook.
///
/// `compare_exchange(old, new, AcqRel, Acquire)` + `load(Acquire)`: every
/// value written is released by the successful CAS and acquired by the
/// load or CAS that observes it, so data published before a CAS is
/// visible to whoever reads its value — the only ordering the C&S object
/// interface promises.
pub struct NativeCas {
    hook: Arc<NbInner>,
    word: Padded<AtomicU64>,
}

impl CasCell for NativeCas {
    fn cas(&self, old: Val, new: Val) -> bool {
        self.hook.step();
        self.word.get().compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    fn read(&self) -> Val {
        self.hook.step();
        self.word.get().load(Ordering::Acquire)
    }
}

/// The native first-wins consensus cell: a padded `AtomicU64` decided by
/// a single `compare_exchange` from `⊥`, bound to its backend's step hook.
///
/// Hardware C&S has consensus number ∞, so — unlike the simulator's
/// [`wfmem::LocalConsensus`], which Theorem 1 has to *justify* on a
/// hybrid uniprocessor — the unbounded first-wins semantics holds
/// unconditionally on any multiprocessor. Success ordering `AcqRel`,
/// failure/read `Acquire`: whoever learns the decided value also sees
/// everything the winner published before proposing (the universal
/// construction's replay depends on exactly this edge).
///
/// # Panics
///
/// [`decide`](ConsCell::decide) panics on `u64::MAX`, the `⊥` sentinel.
pub struct NativeCons {
    hook: Arc<NbInner>,
    word: Padded<AtomicU64>,
}

impl ConsCell for NativeCons {
    fn decide(&self, v: Val) -> Val {
        self.hook.step();
        assert_ne!(v, EMPTY, "u64::MAX is the ⊥ sentinel");
        match self.word.get().compare_exchange(EMPTY, v, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => v,
            Err(current) => current,
        }
    }

    fn read(&self) -> OptVal {
        self.hook.step();
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
        NativeReg { hook: self.inner.clone(), word: Padded::new(AtomicU64::new(EMPTY)) }
    }

    fn cas(&self, init: Val) -> NativeCas {
        NativeCas { hook: self.inner.clone(), word: Padded::new(AtomicU64::new(init)) }
    }

    fn cons(&self) -> NativeCons {
        NativeCons { hook: self.inner.clone(), word: Padded::new(AtomicU64::new(EMPTY)) }
    }

    fn step(&self) {
        self.inner.step();
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
    // register, C&S and consensus runs are in `cells::tests`.

    /// A register starts at ⊥ and reads back what was written.
    pub(crate) fn reg_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let r = b.reg();
        assert_eq!(r.read(), None, "a register starts at ⊥");
        r.write(3);
        assert_eq!(r.read(), Some(3));
        assert_eq!(count(&b), 3, "one statement per access");
    }

    /// A failed C&S leaves the value and a successful one installs it.
    pub(crate) fn cas_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let w = b.cas(2);
        assert!(!w.cas(0, 1), "a C&S with a stale `old` fails");
        assert_eq!(w.read(), 2, "and leaves the value");
        assert!(w.cas(2, 7));
        assert_eq!(w.read(), 7);
        assert_eq!(count(&b), 4, "one statement per access");
    }

    /// A consensus cell reads ⊥, the first proposal wins, and a read
    /// returns the winner.
    pub(crate) fn cons_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let c = b.cons();
        assert_eq!(c.read(), None, "a consensus cell starts undecided");
        assert_eq!(c.decide(4), 4);
        assert_eq!(c.decide(6), 4, "the first proposal wins");
        assert_eq!(c.read(), Some(4));
        assert_eq!(count(&b), 4, "one statement per access");
    }

    /// Each access and each explicit `step()` counts exactly one statement.
    fn counting_clause<B: MemBackend>(b: B, count: impl Fn(&B) -> u64) {
        let (r, w, c) = (b.reg(), b.cas(0), b.cons());
        r.write(1);
        r.read();
        w.cas(0, 5);
        w.read();
        c.decide(9);
        c.read();
        assert_eq!(count(&b), 6, "one statement per access");
        b.step();
        assert_eq!(count(&b), 7, "one statement per explicit step");
    }

    /// Two backends of one kind count separately.
    fn separation_clause<B: MemBackend>(new: impl Fn() -> B, count: impl Fn(&B) -> u64) {
        let (a, b) = (new(), new());
        a.reg().write(1);
        b.reg().write(1);
        b.reg().read();
        assert_eq!((count(&a), count(&b)), (1, 2), "backends count separately");
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
    fn cells_share_one_counter_per_backend() {
        separation_clause(SimBackend::new, SimBackend::steps);
        separation_clause(NativeBackend::free, NativeBackend::accesses);
    }

    /// Runs `n` threads on lockstep backend `b`, each performing `per`
    /// counted statements; every statement appends the process id to a
    /// shared trace through plain (uncounted) atomics, so the returned
    /// slot trace is exactly the statement interleaving the scheduler
    /// granted. Two processes running in one statement slot would claim
    /// the same slot and leave a 0 hole at the end of the trace.
    fn lockstep_trace(b: NativeBackend, n: usize, per: usize) -> Vec<u64> {
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..n * per).map(|_| AtomicU64::new(0)).collect());
        let cursor = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n as u32)
            .map(|pid| {
                let b = b.clone();
                let slots = Arc::clone(&slots);
                let cursor = Arc::clone(&cursor);
                thread::spawn(move || {
                    b.register(pid);
                    for _ in 0..per {
                        // One counted statement; the claim-then-write runs
                        // while this process holds the statement grant, so
                        // it cannot race.
                        b.step();
                        let k = cursor.load(Ordering::SeqCst);
                        let _ =
                            cursor.compare_exchange(k, k + 1, Ordering::SeqCst, Ordering::SeqCst);
                        slots[k as usize].store(u64::from(pid) + 1, Ordering::SeqCst);
                    }
                    b.finish(pid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        slots.iter().map(|s| s.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn lockstep_schedule_is_deterministic_across_runs() {
        let a = lockstep_trace(NativeBackend::lockstep_equal(3, 4, 42), 3, 6);
        let b = lockstep_trace(NativeBackend::lockstep_equal(3, 4, 42), 3, 6);
        assert_eq!(a, b, "same seed must give bit-identical interleaving");
        let c = lockstep_trace(NativeBackend::lockstep_equal(3, 4, 43), 3, 6);
        // Different seeds *may* coincide for tiny traces, but across 18
        // slots the rotation order virtually always differs; assert only
        // that all three are complete (every slot written).
        assert!(c.iter().all(|&v| v != 0));
        assert!(a.iter().all(|&v| v != 0));
    }

    #[test]
    fn lockstep_respects_quantum_windows() {
        // Q = 4, 2 processes, 8 single-statement iterations each: every
        // process's work is a whole number of quantum windows, so the
        // writer trace must consist of runs whose lengths are multiples
        // of 4 (consecutive windows may land on the same process, merging
        // runs, but a window can never be cut short — Axiom 2).
        let trace = lockstep_trace(NativeBackend::lockstep_equal(2, 4, 7), 2, 8);
        assert!(trace.iter().all(|&v| v != 0), "incomplete trace {trace:?}");
        let mut runs: Vec<(u64, usize)> = Vec::new();
        for &v in &trace {
            match runs.last_mut() {
                Some((w, len)) if *w == v => *len += 1,
                _ => runs.push((v, 1)),
            }
        }
        for &(_, len) in &runs {
            assert_eq!(len % 4, 0, "mid-window preemption in {runs:?}");
        }
        assert!(runs.len() >= 2, "two processes must both appear: {runs:?}");
    }

    #[test]
    fn lockstep_priorities_run_to_completion_first() {
        // Priorities 2,1: the high-priority process must own a full prefix
        // of the statement trace (Axiom 1), regardless of seed.
        for seed in 0..4 {
            let trace = lockstep_trace(NativeBackend::lockstep(2, &[2, 1], 4, seed), 2, 4);
            assert!(trace.iter().all(|&v| v != 0), "incomplete trace {trace:?}");
            assert_eq!(trace, vec![1, 1, 1, 1, 2, 2, 2, 2], "Axiom 1 violated: {trace:?}");
        }
    }

    #[test]
    fn lockstep_statements_accounted() {
        let b = NativeBackend::lockstep_equal(2, 8, 1);
        let handles: Vec<_> = (0..2u32)
            .map(|pid| {
                let b = b.clone();
                thread::spawn(move || {
                    b.register(pid);
                    for _ in 0..5 {
                        b.step();
                    }
                    b.finish(pid);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (stmts, _) = b.lockstep_stats().unwrap();
        assert_eq!(stmts, 10);
        assert_eq!(b.accesses(), 10);
    }
}
