//! Lock-based baseline objects — what the paper's wait-free constructions
//! replace, and why.
//!
//! The introduction's motivation is real-time systems (QNX, IRIX REACT,
//! VxWorks) where mixed-priority tasks share objects. The classical
//! alternative to wait-freedom is a lock, and under hybrid scheduling a
//! naive test-and-set lock exhibits exactly the pathologies the paper's
//! algorithms avoid:
//!
//! * **Priority inversion / deadlock**: if a low-priority process is
//!   preempted while holding the lock by a higher-priority process that
//!   then spins on the same lock, Axiom 1 keeps the holder off the
//!   processor forever — the system livelocks.
//! * **Unbounded blocking**: even without inversion, a process's own-step
//!   count to complete one operation is unbounded (it depends on every
//!   other process's scheduling), i.e. the lock-based object is not
//!   wait-free.
//!
//! The benches use this module to quantify blocking versus the universal
//! construction; the `rtos_tasks` example demonstrates the inversion
//! livelock and its absence under the wait-free queue.

use std::sync::{Arc, OnceLock};

use sched_sim::program::{Flow, InvocationPlan, ProcRef, ProgMachine, Program, ProgramBuilder};
use wfmem::Val;

/// Shared memory: a test-and-set lock guarding a counter.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct LockMem {
    /// The lock word: `None` = free, `Some(pid)` = held.
    pub lock: Option<u32>,
    /// The protected counter.
    pub counter: Val,
    /// Times any process found the lock taken (contention metric).
    pub spins: u64,
}

/// Locals for a lock-based increment.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct LockLocals {
    /// Process id.
    pub me: u32,
    /// Result of the completed increment (value before the add).
    pub ret: Option<Val>,
    /// Work statements to execute inside the critical section.
    pub hold: u32,
    /// Remaining critical-section work.
    pub left: u32,
}

/// Builds a fetch-and-increment over a test-and-set spin lock. The
/// critical section executes `hold` extra statements, widening the window
/// in which preemption causes inversion.
pub fn build_program() -> (Arc<Program<LockLocals, LockMem>>, ProcRef) {
    let mut b = ProgramBuilder::<LockLocals, LockMem>::new();
    let inc = b.proc("lock-inc");

    let acquire = b.here(inc);
    b.stmt(inc, "acquire: test-and-set", move |l, m| {
        match m.lock {
            None => {
                m.lock = Some(l.me);
                l.left = l.hold;
                Flow::Next
            }
            Some(_) => {
                m.spins += 1;
                Flow::Goto(acquire)
            }
        }
    });
    let work = b.here(inc);
    b.stmt(inc, "critical section work", move |l, _m| {
        if l.left > 0 {
            l.left -= 1;
            Flow::Goto(work)
        } else {
            Flow::Next
        }
    });
    b.stmt(inc, "increment", |l, m| {
        l.ret = Some(m.counter);
        m.counter += 1;
        Flow::Next
    });
    b.stmt(inc, "release", |_l, m| {
        m.lock = None;
        Flow::Return
    });

    (b.build(), inc)
}

/// A machine performing `ops` lock-based increments, holding the lock for
/// `hold` extra statements each time.
pub fn inc_machine(me: u32, ops: u32, hold: u32) -> ProgMachine<LockLocals, LockMem> {
    // Every lock machine runs the same immutable program, built once per
    // process.
    static INC: OnceLock<(Arc<Program<LockLocals, LockMem>>, ProcRef)> = OnceLock::new();
    let (prog, entry) = INC.get_or_init(build_program);
    let entry = *entry;
    let plan: InvocationPlan<LockLocals> = Arc::new(move |l, k| {
        if k < ops {
            l.ret = None;
            l.hold = hold;
            Some(entry)
        } else {
            None
        }
    });
    ProgMachine::with_plan(prog, LockLocals { me, ..LockLocals::default() }, plan)
        .with_output(|l| l.ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    #[test]
    fn uncontended_increments_work() {
        let mut k = Kernel::new(LockMem::default(), SystemSpec::hybrid(8));
        k.add_process(ProcessorId(0), Priority(1), Box::new(inc_machine(0, 5, 0)));
        k.run(&mut RoundRobin::new(), 10_000);
        assert!(k.all_finished());
        assert_eq!(k.mem.counter, 5);
        assert_eq!(k.mem.spins, 0);
    }

    #[test]
    fn equal_priority_contention_is_safe_but_slow() {
        for seed in 0..20 {
            let mut k = Kernel::new(
                LockMem::default(),
                SystemSpec::hybrid(4).with_adversarial_alignment(),
            );
            for pid in 0..3 {
                k.add_process(ProcessorId(0), Priority(1), Box::new(inc_machine(pid, 4, 2)));
            }
            k.run(&mut SeededRandom::new(seed), 1_000_000);
            assert!(k.all_finished(), "seed {seed}");
            assert_eq!(k.mem.counter, 12, "seed {seed}: lost update");
        }
    }

    /// The inversion livelock: a high-priority spinner starves the
    /// lock-holding low-priority process forever under Axiom 1.
    #[test]
    fn priority_inversion_livelocks() {
        let mut k = Kernel::new(LockMem::default(), SystemSpec::hybrid(8));
        let lo = k.add_process(ProcessorId(0), Priority(1), Box::new(inc_machine(0, 1, 10)));
        let hi = k.add_held_process(ProcessorId(0), Priority(2), Box::new(inc_machine(1, 1, 0)));
        let mut d = RoundRobin::new();
        // Let the low-priority process take the lock…
        k.step(&mut d);
        k.step(&mut d);
        // …then release the high-priority process: it spins forever.
        k.release(hi);
        let executed = k.run(&mut d, 50_000);
        assert_eq!(executed, 50_000, "expected a livelock consuming the step budget");
        assert!(!k.is_finished(lo));
        assert!(!k.is_finished(hi));
        assert!(k.mem.spins > 10_000);
    }

    /// Contrast: lock-based blocking is unbounded in own-steps, unlike the
    /// wait-free constructions whose tests assert fixed step caps.
    #[test]
    fn own_steps_grow_with_contention() {
        let steps_with = |others: u32| {
            let mut k = Kernel::new(LockMem::default(), SystemSpec::hybrid(4));
            for pid in 0..=others {
                k.add_process(ProcessorId(0), Priority(1), Box::new(inc_machine(pid, 2, 4)));
            }
            k.run(&mut RoundRobin::new(), 1_000_000);
            assert!(k.all_finished());
            (0..=others)
                .map(|p| k.stats(ProcessId(p)).own_steps)
                .max()
                .unwrap()
        };
        assert!(steps_with(5) > steps_with(0));
    }
}
