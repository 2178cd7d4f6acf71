//! Universality: wait-free objects of arbitrary type built from consensus.
//!
//! The paper's headline is that an object with consensus number `P` is
//! *universal* on `P` processors: consensus for any number of processes
//! (Theorems 1 and 4) plus Herlihy's universal construction yields a
//! wait-free implementation of **any** object. This module provides that
//! last step: a log-based Herlihy universal construction over the
//! uniprocessor consensus objects the paper implements from reads and
//! writes (Theorem 1 justifies modeling each `decide` as one atomic
//! statement on a hybrid-scheduled uniprocessor; `uni::consensus` is the
//! statement-level implementation).
//!
//! The construction: operations are agreed into a shared **log**, one
//! consensus object per log slot. Each process replays the decided prefix
//! against its private replica of the sequential object to compute its
//! results — no process ever waits on another. *Helping* makes it
//! wait-free rather than merely lock-free: every process announces its
//! pending operation, and slot `k`'s proposal is preferentially the
//! announced operation of process `k mod N`, so an operation is decided
//! within `N` slots of its announcement (the classical round-robin
//! helping discipline).
//!
//! The statements themselves live in one place, [`SessionMachine`];
//! [`op_machine`] runs a fixed op list through it.
//!
//! The objects provided — FIFO queue, counter, CAS register — are the
//! workloads the motivation section's real-time systems (QNX, IRIX REACT,
//! VxWorks) share between mixed-priority tasks.

use std::sync::Arc;

use wfmem::{LocalConsensus, Val};

use crate::counters::AlgCounters;
use crate::oracle::{QueueOp, SeqSpec};
use crate::service::{OpGen, SessionMachine};
#[cfg(test)]
use crate::oracle::EMPTY;

/// An operation descriptor in the announce array: `(pid, seq)` identifies
/// the `seq`-th operation of process `pid`.
pub(crate) fn op_token(pid: u32, seq: u32) -> Val {
    (u64::from(pid) << 32) | u64::from(seq)
}

pub(crate) fn token_pid(tok: Val) -> u32 {
    (tok >> 32) as u32
}

pub(crate) fn token_seq(tok: Val) -> u32 {
    (tok & 0xffff_ffff) as u32
}

/// Shared memory of a universal object for `n` processes.
///
/// `S::Op` descriptors are announced in `announce[pid]`; the log of
/// consensus objects (`log[k]`) decides which announced operation occupies
/// slot `k`. The sequential state itself is **not** shared: every process
/// replays the log privately.
///
/// The log is reserved up front but grows on first proposal: a slot is
/// pushed by the statement that first proposes to it, which also decides
/// it, so `log` is always the decided prefix. An object that only ever
/// uses a quarter of its bound touches only a quarter of the memory.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct UniversalMem<S: SeqSpec>
where
    S::Op: std::hash::Hash + Eq,
{
    /// Number of processes.
    pub n: u32,
    /// Announced pending operation of each process: `(token, op)`.
    pub announce: Vec<Option<(Val, S::Op)>>,
    /// The log: slot `k`'s consensus object decides an operation token.
    /// Holds every slot proposed to so far, all of them decided.
    pub log: Vec<LocalConsensus>,
    /// The most slots the log may grow to.
    cap: usize,
    /// Every operation ever announced, by `(pid, seq)` — write-once, so
    /// replays never race with announce-array clearing.
    pub ops: Vec<Vec<S::Op>>,
    /// Helping/retry telemetry (ignored by `==` and hashing; see
    /// [`crate::counters`]).
    pub counters: AlgCounters,
}

impl<S: SeqSpec> UniversalMem<S>
where
    S::Op: std::hash::Hash + Eq,
{
    /// Creates shared memory for `n` processes with room for `capacity`
    /// log slots (one per operation that will ever be applied). The log
    /// is reserved, not written: its pages are touched only as slots are
    /// first proposed to.
    pub fn new(n: u32, capacity: usize) -> Self {
        UniversalMem {
            n,
            announce: vec![None; n as usize],
            log: Vec::with_capacity(capacity),
            cap: capacity,
            ops: vec![Vec::new(); n as usize],
            counters: AlgCounters::default(),
        }
    }

    /// The most slots the log may grow to: the `capacity` it was created
    /// with.
    pub fn log_bound(&self) -> usize {
        self.cap
    }

    /// Proposes `proposal` to log slot `slot` and returns the slot's
    /// decision. The first proposal to the slot one past the log's end
    /// pushes it; a proposer's next slot is never further out, since it
    /// has proposed to every slot below it.
    ///
    /// # Panics
    ///
    /// If `slot` is not below [`log_bound`](Self::log_bound).
    pub(crate) fn decide(&mut self, slot: usize, proposal: Val) -> Val {
        assert!(slot < self.cap, "universal log capacity exceeded");
        if slot == self.log.len() {
            self.log.push(LocalConsensus::new());
        }
        self.log[slot].decide(proposal)
    }

    /// The decided log prefix as operation tokens (oracle use).
    pub fn decided_log(&self) -> Vec<Val> {
        self.log.iter().map_while(|c| c.read()).collect()
    }
}

/// Builds a machine performing `ops` in sequence against the universal
/// object: a [`SessionMachine`] serving one client with no think phase,
/// so its `j`-th request is `ops[j]`. Per-invocation output is the
/// operation's result.
///
/// # Panics
///
/// If `ops` is empty (a session serves at least one request).
pub fn op_machine<S>(spec: S, me: u32, n: u32, ops: Vec<S::Op>) -> SessionMachine<S>
where
    S: SeqSpec + Clone,
    S::Op: std::hash::Hash + Eq + Send + Sync + 'static,
{
    let requests = ops.len() as u64;
    let gen: OpGen<S> = Arc::new(move |_, s| ops[s as usize].clone());
    SessionMachine::new(spec, me, n, requests, 0, (0, 1), gen)
}

/// A convenience sequential replay: folds the decided log (with duplicate
/// filtering, as every replica does) through the spec — the "ground truth"
/// final state for oracles.
pub fn replay_final_state<S>(spec: &S, m: &UniversalMem<S>) -> S::State
where
    S: SeqSpec,
    S::Op: std::hash::Hash + Eq + Clone,
{
    let mut st = spec.init();
    let mut applied = vec![0u32; m.n as usize];
    for tok in m.decided_log() {
        let (w, ws) = (token_pid(tok), token_seq(tok));
        if ws != applied[w as usize] {
            continue;
        }
        applied[w as usize] += 1;
        let op = m.ops[w as usize][ws as usize].clone();
        st = spec.apply(&st, &op).0;
    }
    st
}

/// Sequential specification of a fetch-and-add counter (op = addend;
/// result = value before the add).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CounterSpec;

impl SeqSpec for CounterSpec {
    type Op = Val;
    type State = Val;

    fn init(&self) -> Val {
        0
    }

    fn apply(&self, state: &Val, op: &Val) -> (Val, Val) {
        (state + op, *state)
    }
}

/// Re-export of the FIFO queue spec for universal-queue construction.
pub use crate::oracle::QueueSpec;

/// Builds the op list for a queue producer (enqueues `vals`).
pub fn producer_ops(vals: &[Val]) -> Vec<QueueOp> {
    vals.iter().map(|&v| QueueOp::Enq(v)).collect()
}

/// Builds the op list for a queue consumer (`n` dequeues).
pub fn consumer_ops(n: usize) -> Vec<QueueOp> {
    vec![QueueOp::Deq; n]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{check_linearizable, TimedOp};
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    fn queue_kernel(
        spec: SystemSpec,
        plans: &[(u32, Vec<QueueOp>)],
    ) -> Kernel<UniversalMem<QueueSpec>> {
        let n = plans.len() as u32;
        let cap = 4 * plans.iter().map(|(_, o)| o.len()).sum::<usize>() + 4;
        let mut k = Kernel::new(UniversalMem::new(n, cap), spec);
        for (pid, (prio, ops)) in plans.iter().enumerate() {
            k.add_process(
                ProcessorId(0),
                Priority(*prio),
                Box::new(op_machine(QueueSpec, pid as u32, n, ops.clone())),
            );
        }
        k
    }

    fn check_queue_linearizable(
        k: &Kernel<UniversalMem<QueueSpec>>,
        plans: &[(u32, Vec<QueueOp>)],
    ) {
        assert!(k.all_finished());
        let ops: Vec<TimedOp<QueueOp>> = k
            .ops()
            .iter()
            .map(|r| TimedOp {
                start: r.start,
                end: r.t,
                op: plans[r.pid.index()].1[r.inv_index as usize],
                result: r.output.expect("op completed"),
            })
            .collect();
        check_linearizable(&QueueSpec, &ops).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn queue_spsc_fifo() {
        let plans = vec![
            (1, producer_ops(&[1, 2, 3, 4])),
            (1, consumer_ops(4)),
        ];
        let mut k = queue_kernel(SystemSpec::hybrid(8), &plans);
        k.run(&mut RoundRobin::new(), 1_000_000);
        check_queue_linearizable(&k, &plans);
    }

    #[test]
    fn queue_mpmc_random_schedules() {
        for seed in 0..60 {
            let plans = vec![
                (1, producer_ops(&[1, 2])),
                (1, producer_ops(&[10, 20])),
                (2, consumer_ops(3)),
                (2, consumer_ops(2)),
            ];
            let mut k = queue_kernel(
                SystemSpec::hybrid(8).with_adversarial_alignment(),
                &plans,
            );
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed}");
            check_queue_linearizable(&k, &plans);
        }
    }

    #[test]
    fn queue_empty_returns_sentinel() {
        let plans = vec![(1, consumer_ops(1))];
        let mut k = queue_kernel(SystemSpec::hybrid(8), &plans);
        k.run(&mut RoundRobin::new(), 1_000);
        assert_eq!(k.ops()[0].output, Some(EMPTY));
    }

    #[test]
    fn counter_sums_exactly_once_per_op() {
        for seed in 0..40 {
            let n = 4u32;
            let per = 5u32;
            let mut k = Kernel::new(
                UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
                SystemSpec::hybrid(8).with_adversarial_alignment(),
            );
            let mut total = 0;
            for pid in 0..n {
                let ops: Vec<Val> = (0..per).map(|i| u64::from(pid * 100 + i + 1)).collect();
                total += ops.iter().sum::<Val>();
                k.add_process(
                    ProcessorId(0),
                    Priority(1 + pid % 2),
                    Box::new(op_machine(CounterSpec, pid, n, ops)),
                );
            }
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed}");
            // Every op applied exactly once (duplicates filtered): the
            // replayed final state is the exact sum of all addends.
            assert_eq!(
                replay_final_state(&CounterSpec, &k.mem),
                total,
                "seed {seed}"
            );
            // And all n·per distinct tokens were decided somewhere.
            let mut uniq = k.mem.decided_log();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), (n * per) as usize, "seed {seed}");
        }
    }

    /// Wait-freedom with helping: an operation completes within N log
    /// slots of its announcement, so per-op own-steps are bounded.
    #[test]
    fn helping_bounds_op_latency() {
        for seed in 0..40 {
            let n = 5u32;
            let mut k = Kernel::new(
                UniversalMem::<CounterSpec>::new(n, 100),
                SystemSpec::hybrid(8).with_adversarial_alignment(),
            );
            for pid in 0..n {
                k.add_process(
                    ProcessorId(0),
                    Priority(1),
                    Box::new(op_machine(CounterSpec, pid, n, vec![1, 1, 1])),
                );
            }
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished());
            for pid in 0..n {
                let steps = k.stats(ProcessId(pid)).own_steps;
                // 3 ops; each decided within N slots of announcement, plus
                // duplicate slots: a generous fixed cap.
                assert!(steps <= 200, "seed {seed}: {steps} steps");
            }
        }
    }

    #[test]
    fn mixed_priority_queue_under_preemption() {
        // The RTOS motivation: a high-priority task preempts mid-operation;
        // the queue stays consistent.
        let plans = vec![
            (1, producer_ops(&[1, 2, 3])),
            (3, consumer_ops(2)),
            (2, producer_ops(&[9])),
        ];
        let mut k = queue_kernel(SystemSpec::hybrid(8), &plans);
        k.run(&mut RoundRobin::new(), 1_000_000);
        check_queue_linearizable(&k, &plans);
    }

    /// The observability counters tell the universal construction's story:
    /// every planned operation completes (kernel counters), the round-robin
    /// helping discipline proposes other processes' announced operations,
    /// and duplicate log slots really occur and are retried (object
    /// counters) — the mechanism that makes the construction wait-free
    /// rather than merely lock-free.
    #[test]
    fn obs_counters_track_universal_helping() {
        let mut helped_total = 0u64;
        let mut dup_total = 0u64;
        for seed in 0..20 {
            let n = 4u32;
            let per = 3u32;
            let mut k = Kernel::new(
                UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
                SystemSpec::hybrid(8).with_adversarial_alignment(),
            );
            for pid in 0..n {
                k.add_process(
                    ProcessorId(0),
                    Priority(1 + pid % 2),
                    Box::new(op_machine(CounterSpec, pid, n, vec![1; per as usize])),
                );
            }
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed}");

            let c = k.counters();
            assert_eq!(c.invocations_completed, u64::from(n * per), "seed {seed}");
            let own: u64 = (0..n).map(|p| k.stats(ProcessId(p)).own_steps).sum();
            assert_eq!(c.statements, own, "seed {seed}");

            // Each a2 execution makes exactly one proposal; the split into
            // helped/own must account for all of them.
            let a = k.mem.counters;
            assert!(a.proposals() > 0, "seed {seed}");
            helped_total += a.helped_proposals;
            dup_total += a.duplicate_retries;
        }
        assert!(helped_total > 0, "helping never fired across 20 seeds");
        assert!(dup_total > 0, "no duplicate slot across 20 seeds");
    }

    #[test]
    fn token_encoding_roundtrip() {
        assert_eq!(token_pid(op_token(7, 9)), 7);
        assert_ne!(op_token(1, 2), op_token(2, 1));
    }
}
