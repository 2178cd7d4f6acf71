//! The native run harness: executes Fig. 3's statement-level program and
//! the backend-generic algorithms on OS threads and records per-operation
//! outcomes in the simulator's own [`OpRecord`] format, so native runs
//! are checked by the **same** linearizability/agreement oracles
//! (`hybrid_wf::oracle`) the fuzzer uses.
//!
//! Free-mode timestamps come from one global ticket clock (an
//! `AtomicU64` bumped with `SeqCst` `fetch_add` at every operation start
//! and end): if operation `a` completes before operation `b` begins in
//! real time, then `a`'s end ticket precedes `b`'s start ticket, which is
//! exactly the partial order [`hybrid_wf::oracle::check_linearizable`]
//! requires — `oracle::timed_ops` consumes these records unchanged.
//!
//! In lockstep mode the records are stamped from the lockstep scheduler
//! instead: an operation starts at its first granted statement and ends
//! at its last, in the scheduler's global statement order. Grants are a
//! pure function of the seed, so lockstep records are too — the global
//! clock would instead leak thread start-up timing into `start`. The
//! real-time order the oracle needs still holds: an operation that
//! completed before another began holds a strictly earlier grant.
//!
//! Every workload runs **one OS thread per process**. In free mode that
//! makes the process count the thread count (the contention knob); in
//! lockstep mode the threads take turns one statement at a time under the
//! deterministic scheduler, so "thread count" means "process count on one
//! emulated hybrid processor".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hybrid_wf::generic::{CasObject, Universal, WordOp};
use hybrid_wf::oracle::{CasRegOp, CasRegisterSpec, QueueOp, QueueSpec};
use hybrid_wf::uni::consensus::{
    decide_program, ConsensusRegs, DecideScratch, UniConsensusLocals,
};
use hybrid_wf::universal::CounterSpec;
use sched_sim::ids::ProcessId;
use sched_sim::kernel::OpRecord;
use sched_sim::machine::{StepCtx, StepMachine, StepOutcome};
use sched_sim::program::ProgMachine;
use sched_sim::rng::SplitMix64;
use wfmem::backend::{MemBackend, RegCell};
use wfmem::Val;

use crate::backend::{NativeBackend, NativeReg};

/// How the backend paces statements (see [`crate::backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Real races: no statement scheduler.
    Free,
    /// Deterministic token-passing hybrid scheduler.
    Lockstep {
        /// Tie-breaking seed.
        seed: u64,
        /// Quantum in counted statements (the paper's `Q`).
        quantum: u32,
    },
}

impl Pacing {
    fn backend(self, n: usize) -> NativeBackend {
        match self {
            Pacing::Free => NativeBackend::free(),
            Pacing::Lockstep { seed, quantum } => {
                NativeBackend::lockstep_equal(n, quantum, seed)
            }
        }
    }
}

/// The outcome of one native workload run over `n` processes.
pub struct FamilyRun<O> {
    /// Per-operation records in the simulator's format, ready for
    /// `oracle::timed_ops`.
    pub records: Vec<OpRecord>,
    /// The per-process operation plans (`plans[pid][inv]` is the op behind
    /// the record with that `pid`/`inv_index`).
    pub plans: Vec<Vec<O>>,
    /// Counted statements (cell accesses + direct steps) across the run.
    pub accesses: u64,
    /// Workload-specific retries: failed C&S attempts, or universal-log
    /// duplicate slots skipped during replay.
    pub retries: u64,
    /// Wall-clock duration of the threaded section.
    pub wall: Duration,
}

impl<O> FamilyRun<O> {
    /// The completed operations' outputs, in record order.
    pub fn outputs(&self) -> Vec<Val> {
        self.records.iter().filter_map(|r| r.output).collect()
    }
}

/// Spawns one thread per plan, runs `work` on each, and collects the
/// per-operation records, stamped through the shared ticket clock (free)
/// or from the lockstep grants (lockstep). Each worker sizes its record
/// buffer to its plan before its first operation, and the merged buffer
/// is sized to the total, so no buffer grows while operations run.
fn run_threads<O, F>(backend: &NativeBackend, plans: Vec<Vec<O>>, work: F) -> FamilyRun<O>
where
    O: Clone + Send + Sync + 'static,
    F: Fn(&NativeBackend, u32, &O) -> (Val, u64) + Send + Sync + 'static,
{
    let n = plans.len();
    let total = plans.iter().map(Vec::len).sum();
    let lockstep = backend.is_lockstep();
    let clock = Arc::new(AtomicU64::new(0));
    let work = Arc::new(work);
    let shared_plans = Arc::new(plans);
    let start = Instant::now();
    let handles: Vec<_> = (0..n as u32)
        .map(|pid| {
            let backend = backend.clone();
            let clock = Arc::clone(&clock);
            let work = Arc::clone(&work);
            let plans = Arc::clone(&shared_plans);
            thread::spawn(move || {
                backend.register(pid);
                let mut records = Vec::with_capacity(plans[pid as usize].len());
                let mut retries = 0;
                for (inv, op) in plans[pid as usize].iter().enumerate() {
                    let (t0, t1, (out, r)) = if lockstep {
                        let done = work(&backend, pid, op);
                        let (t0, t1) = backend
                            .take_grant_span()
                            .expect("every workload operation accesses a cell");
                        (t0, t1, done)
                    } else {
                        let t0 = clock.fetch_add(1, Ordering::SeqCst);
                        let done = work(&backend, pid, op);
                        (t0, clock.fetch_add(1, Ordering::SeqCst), done)
                    };
                    retries += r;
                    records.push(OpRecord {
                        start: t0,
                        t: t1,
                        pid: ProcessId(pid),
                        inv_index: inv as u32,
                        output: Some(out),
                    });
                }
                backend.finish(pid);
                (records, retries)
            })
        })
        .collect();
    let mut records = Vec::with_capacity(total);
    let mut retries = 0;
    for h in handles {
        let (r, rt) = h.join().expect("native worker thread panicked");
        records.extend(r);
        retries += rt;
    }
    let wall = start.elapsed();
    records.sort_by_key(|r| (r.start, r.pid.0));
    let plans = Arc::try_unwrap(shared_plans).unwrap_or_else(|a| (*a).clone());
    FamilyRun { records, plans, accesses: backend.accesses(), retries, wall }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Fig. 3's `P[1..3]` as three native registers: the memory each thread
/// hands the `uni::consensus` program. It uses the registers' own
/// un-stepped operations, because [`run_fig3`] takes the one grant per
/// statement itself.
#[derive(Clone)]
struct NativeP(Arc<[NativeReg; 3]>);

impl ConsensusRegs for NativeP {
    fn read(&self, i: usize) -> Option<Val> {
        self.0[i].read()
    }

    fn write(&mut self, i: usize, v: Val) {
        self.0[i].write(v);
    }
}

/// Fig. 3 consensus: `inputs.len()` processes, one `decide(input)` each.
///
/// Each thread runs the statement-level program the explorer verifies
/// ([`decide_program`]) over shared native registers, calling the
/// backend's step hook once before every statement: eight grants per
/// decide, one per counted statement. Agreement holds by Theorem 1 under
/// `Pacing::Lockstep` with `quantum >= MIN_QUANTUM`; under `Pacing::Free`
/// (or sub-threshold quanta) disagreement is possible and reported by
/// [`fig3_agreement`].
pub fn run_fig3(inputs: &[Val], pacing: Pacing) -> FamilyRun<Val> {
    let n = inputs.len();
    let backend = pacing.backend(n);
    let p = NativeP(Arc::new([backend.reg(), backend.reg(), backend.reg()]));
    let (prog, entry) = decide_program::<NativeP>();
    let plans: Vec<Vec<Val>> = inputs.iter().map(|&v| vec![v]).collect();
    run_threads(&backend, plans, move |b, pid, &val| {
        let locals = UniConsensusLocals { val, s: DecideScratch::default() };
        let mut machine = ProgMachine::single_shot(&prog, locals, entry);
        let (mut mem, mut ctx) = (p.clone(), StepCtx::new(ProcessId(pid)));
        loop {
            b.step();
            if machine.step(&mut mem, &mut ctx) == StepOutcome::Finished {
                break;
            }
        }
        (machine.locals().s.ret.expect("statement 7 returns P[3]"), 0)
    })
}

/// Checks agreement + validity of a Fig. 3 run: `Ok(decision)` when every
/// process decided the same proposed value, `Err(outputs)` otherwise.
pub fn fig3_agreement(run: &FamilyRun<Val>) -> Result<Val, Vec<Val>> {
    let outputs = run.outputs();
    let inputs: Vec<Val> = run.plans.iter().flatten().copied().collect();
    let Some(&first) = outputs.first() else {
        return Err(outputs);
    };
    if outputs.iter().all(|&o| o == first) && inputs.contains(&first) {
        Ok(first)
    } else {
        Err(outputs)
    }
}

/// The universal construction applied to spec `S`: `plans[pid]` is the
/// operation sequence of process `pid`. Retries count duplicate log slots
/// (the helping overhead of the simulator's `AlgCounters`).
pub fn run_universal<S>(spec: S, plans: Vec<Vec<S::Op>>, pacing: Pacing) -> FamilyRun<S::Op>
where
    S: WordOp + Clone + Send + Sync + 'static,
    S::Op: Clone + Send + Sync + 'static,
    S::State: Send + 'static,
{
    let n = plans.len();
    let per = plans.iter().map(Vec::len).max().unwrap_or(0) as u32;
    let backend = pacing.backend(n);
    let obj = Arc::new(Universal::<NativeBackend, S>::new(&backend, spec, n as u32, per));
    let sessions: Vec<_> = (0..n as u32)
        .map(|p| std::sync::Mutex::new(obj.session(p)))
        .collect();
    let sessions = Arc::new(sessions);
    run_threads(&backend, plans, move |_b, pid, op| {
        // Each session is only ever touched by its own thread; the mutex
        // is uncontended and exists to keep the closure `Fn`.
        let mut s = sessions[pid as usize].lock().unwrap();
        let before = s.duplicate_retries;
        let out = obj.apply(&mut s, op);
        (out, s.duplicate_retries - before)
    })
}

/// A counter workload for [`run_universal`]: every process performs `per`
/// fetch-and-adds of distinct addends (seeded), so the final total is
/// checkable and every intermediate result distinct.
pub fn counter_plans(n: usize, per: usize, seed: u64) -> Vec<Vec<Val>> {
    let mut rng = SplitMix64::new(seed ^ 0xc0ffee);
    (0..n).map(|_| (0..per).map(|_| 1 + rng.next_u64() % 9).collect()).collect()
}

/// A queue workload: even pids enqueue distinct values, odd pids dequeue.
pub fn queue_plans(n: usize, per: usize) -> Vec<Vec<QueueOp>> {
    (0..n)
        .map(|p| {
            if p % 2 == 0 {
                (0..per).map(|i| QueueOp::Enq((100 * (p as u64 + 1)) + i as u64)).collect()
            } else {
                vec![QueueOp::Deq; per]
            }
        })
        .collect()
}

/// The Fig. 5 object interface (C&S + Read) hammered directly on the
/// backend C&S cell: each process alternates `Read` with a seeded `C&S`
/// against a value it previously observed. Retries count failed C&S.
pub fn run_cas(n: usize, per: usize, seed: u64, pacing: Pacing) -> FamilyRun<CasRegOp> {
    let backend = pacing.backend(n);
    let obj = Arc::new(CasObject::<NativeBackend>::new(&backend, 0));
    // Plans carry only the op *kind*; C&S operands are chosen live from
    // observed values (old = last read), which keeps success rates high
    // enough to be interesting. The record stores the resolved op.
    let plans: Vec<Vec<CasRegOp>> = (0..n)
        .map(|p| {
            let mut rng = SplitMix64::new(seed.wrapping_add(p as u64 * 0x9e37));
            (0..per)
                .map(|i| {
                    if i % 2 == 0 {
                        CasRegOp::Read
                    } else {
                        // Placeholder `old`; resolved against the last
                        // read at run time, then patched into the plan.
                        CasRegOp::Cas { old: 0, new: 1 + rng.next_u64() % ((1 << 31) - 2) }
                    }
                })
                .collect()
        })
        .collect();
    let last_read: Vec<std::sync::Mutex<Val>> =
        (0..n).map(|_| std::sync::Mutex::new(0)).collect();
    let resolved: Vec<std::sync::Mutex<Vec<CasRegOp>>> =
        (0..n).map(|_| std::sync::Mutex::new(Vec::new())).collect();
    let last_read = Arc::new(last_read);
    let resolved = Arc::new(resolved);
    let obj2 = Arc::clone(&obj);
    let (lr, rs) = (Arc::clone(&last_read), Arc::clone(&resolved));
    let mut run = run_threads(&backend, plans, move |_b, pid, op| {
        let op = match *op {
            CasRegOp::Read => CasRegOp::Read,
            CasRegOp::Cas { new, .. } => {
                CasRegOp::Cas { old: *lr[pid as usize].lock().unwrap(), new }
            }
        };
        let out = obj2.apply(&op);
        if let CasRegOp::Read = op {
            *lr[pid as usize].lock().unwrap() = out;
        }
        rs[pid as usize].lock().unwrap().push(op);
        let retry = matches!(op, CasRegOp::Cas { .. }) && out == 0;
        (out, u64::from(retry))
    });
    // Replace the placeholder plans with the operands actually used, so
    // the linearizability oracle sees the real history.
    run.plans = resolved.iter().map(|m| m.lock().unwrap().clone()).collect();
    run
}

// ---------------------------------------------------------------------------
// Oracle bridges
// ---------------------------------------------------------------------------

/// Runs the linearizability oracle over a [`FamilyRun`] whose op type
/// matches spec `S` (at most 63 operations — the oracle's DFS bound).
pub fn check_run_linearizable<S>(spec: &S, run: &FamilyRun<S::Op>) -> Result<(), String>
where
    S: hybrid_wf::oracle::SeqSpec,
{
    let ops = hybrid_wf::oracle::timed_ops(&run.records, |pid, inv| {
        run.plans[pid as usize][inv as usize].clone()
    });
    hybrid_wf::oracle::check_linearizable(spec, &ops)
}

/// Convenience: a small universal-queue run checked for linearizability.
pub fn queue_run_ok(n: usize, per: usize, pacing: Pacing) -> Result<(), String> {
    let run = run_universal(QueueSpec, queue_plans(n, per), pacing);
    check_run_linearizable(&QueueSpec, &run)
}

/// Convenience: a small universal-counter run checked for linearizability.
pub fn counter_run_ok(n: usize, per: usize, seed: u64, pacing: Pacing) -> Result<(), String> {
    let run = run_universal(CounterSpec, counter_plans(n, per, seed), pacing);
    check_run_linearizable(&CounterSpec, &run)
}

/// Convenience: a small C&S-object run checked for linearizability against
/// [`CasRegisterSpec`].
pub fn cas_run_ok(n: usize, per: usize, seed: u64, pacing: Pacing) -> Result<(), String> {
    let run = run_cas(n, per, seed, pacing);
    check_run_linearizable(&CasRegisterSpec { init: 0 }, &run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_wf::uni::consensus::MIN_QUANTUM;

    #[test]
    fn fig3_lockstep_legal_quantum_agrees() {
        for seed in 0..8 {
            let run = run_fig3(
                &[10, 20, 30],
                Pacing::Lockstep { seed, quantum: MIN_QUANTUM },
            );
            fig3_agreement(&run).unwrap_or_else(|o| panic!("seed {seed}: split {o:?}"));
        }
    }

    #[test]
    fn fig3_free_runs_complete_and_are_valid() {
        // Free mode guarantees wait-freedom and validity; agreement is a
        // measurement, not an assertion, here (see EXPERIMENTS.md).
        let run = run_fig3(&[7, 8, 9, 10], Pacing::Free);
        assert_eq!(run.records.len(), 4);
        let inputs = [7, 8, 9, 10];
        for out in run.outputs() {
            assert!(inputs.contains(&out), "decided a never-proposed value");
        }
    }

    #[test]
    fn universal_counter_linearizable_both_pacings() {
        counter_run_ok(3, 2, 5, Pacing::Free).unwrap();
        counter_run_ok(3, 2, 5, Pacing::Lockstep { seed: 1, quantum: 8 }).unwrap();
    }

    #[test]
    fn universal_queue_linearizable_free() {
        queue_run_ok(4, 2, Pacing::Free).unwrap();
    }

    #[test]
    fn cas_object_linearizable_free() {
        cas_run_ok(4, 4, 11, Pacing::Free).unwrap();
    }

    #[test]
    fn ticket_clock_orders_records() {
        let run = run_fig3(&[1, 2], Pacing::Free);
        for r in &run.records {
            assert!(r.start < r.t, "start ticket must precede end ticket");
        }
    }
}
