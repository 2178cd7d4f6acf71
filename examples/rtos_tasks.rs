//! The paper's motivation, end to end: mixed-priority real-time tasks
//! (QNX/IRIX-REACT/VxWorks-style hybrid scheduling) sharing a queue.
//!
//! A lock-based queue livelocks under priority inversion; the wait-free
//! universal-construction queue — built from the consensus objects the
//! paper implements from reads and writes — keeps every task running.
//!
//! ```sh
//! cargo run -p examples --bin rtos_tasks
//! ```

use hybrid_wf::baseline::locks::{inc_machine, LockMem};
use hybrid_wf::oracle::QueueOp;
use hybrid_wf::universal::{consumer_ops, op_machine, producer_ops, QueueSpec, UniversalMem};
use sched_sim::prelude::{Kernel, ProcessId, ProcessorId, Priority, RoundRobin, SystemSpec};

fn main() {
    println!("Scenario: a sensor task (prio 1) feeds a control task (prio 3)");
    println!("through a shared queue; a watchdog (prio 2) also enqueues.\n");

    // ---- Attempt 1: a lock-based shared object -------------------------
    println!("1) lock-based object under hybrid scheduling:");
    let mut k = Kernel::new(LockMem::default(), SystemSpec::hybrid(8));
    let sensor = k.add_process(ProcessorId(0), Priority(1), Box::new(inc_machine(0, 1, 12)));
    let control = k.add_held_process(ProcessorId(0), Priority(3), Box::new(inc_machine(1, 1, 0)));
    let mut d = RoundRobin::new();
    k.step(&mut d); // sensor acquires the lock…
    k.step(&mut d);
    k.release(control); // …and the control task preempts and spins.
    let steps = k.run(&mut d, 30_000);
    println!(
        "   after {steps} statements: sensor finished = {}, control finished = {} — \
         PRIORITY-INVERSION LIVELOCK ({} failed lock acquisitions)\n",
        k.is_finished(sensor),
        k.is_finished(control),
        k.mem.spins
    );
    assert!(!k.is_finished(control));

    // ---- Attempt 2: the wait-free queue --------------------------------
    println!("2) wait-free queue (universal construction over consensus):");
    let n = 3u32;
    let plans: Vec<(u32, Vec<QueueOp>)> = vec![
        (1, producer_ops(&[101, 102, 103, 104])), // sensor readings
        (2, producer_ops(&[900])),                // watchdog event
        (3, consumer_ops(5)),                     // control loop
    ];
    let mut k = Kernel::new(UniversalMem::<QueueSpec>::new(n, 64), SystemSpec::hybrid(8));
    for (pid, (prio, ops)) in plans.iter().enumerate() {
        k.add_process(
            ProcessorId(0),
            Priority(*prio),
            Box::new(op_machine(QueueSpec, pid as u32, n, ops.clone())),
        );
    }
    let steps = k.run(&mut RoundRobin::new(), 100_000);
    println!("   all tasks complete after {steps} statements:");
    for r in k.ops() {
        let (prio, ops) = &plans[r.pid.index()];
        let desc = match ops[r.inv_index as usize] {
            QueueOp::Enq(v) => format!("enq({v})"),
            QueueOp::Deq => format!("deq() → {}", fmt_deq(r.output.unwrap())),
        };
        println!("     t={:>4}  p{} (prio {prio}): {desc}", r.t, r.pid.index());
    }
    for pid in 0..n {
        assert!(k.is_finished(ProcessId(pid)));
        let own = k.stats(ProcessId(pid)).own_steps;
        println!("   p{pid}: {own} own-statements total (bounded — wait-free)");
    }
    println!("\nEvery task met its deadline: no lock, no inversion, no starvation.");
}

fn fmt_deq(v: u64) -> String {
    if v == hybrid_wf::oracle::EMPTY {
        "EMPTY".into()
    } else {
        v.to_string()
    }
}
