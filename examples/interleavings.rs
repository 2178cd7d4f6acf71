//! Figs. 1 and 2 of the paper: how quantum-based and priority-based
//! schedulers interleave object invocations on one processor.
//!
//! Fig. 1(a): three *equal-priority* processes under quantum scheduling —
//! invocations are chopped at quantum boundaries, and a preempting process
//! need not finish its own invocation before the preempted one resumes.
//!
//! Fig. 1(b): three *distinct-priority* processes — a preemptor always
//! completes its invocation before the preempted process resumes, which is
//! the insight behind priority-based wait-free constructions.
//!
//! ```sh
//! cargo run -p examples --bin interleavings
//! ```

use sched_sim::prelude::{
    FnMachine, Kernel, ProcessorId, Priority, RoundRobin, StepOutcome, SystemSpec,
};
use sched_sim::trace::{render, TraceStyle};

/// A process performing `invocations` object invocations of `len`
/// statements each.
fn worker(len: u32, invocations: u32) -> Box<dyn sched_sim::StepMachine<()>> {
    Box::new(FnMachine::new(move |_mem: &mut (), calls| {
        let done_in_inv = (calls + 1) % len == 0;
        if done_in_inv && (calls + 1) / len >= invocations {
            (StepOutcome::Finished, None)
        } else if done_in_inv {
            (StepOutcome::InvocationEnd, None)
        } else {
            (StepOutcome::Continue, None)
        }
    }))
}

fn main() {
    println!("Fig. 1(a) — quantum-based: three equal-priority processes, Q = 3");
    println!("(invocations in brackets; '.' = preempted mid-invocation)\n");
    let mut k = Kernel::new((), SystemSpec::pure_quantum(3));
    k.attach_obs();
    for _ in 0..3 {
        k.add_process(ProcessorId(0), Priority(1), worker(5, 2));
    }
    k.run(&mut RoundRobin::new(), 1_000);
    let h = k.history();
    print!("{}", render(&h, TraceStyle { quantum_ruler: false, max_cols: 120 }));

    println!("\nFig. 2 — the same run with quantum boundaries made visible:\n");
    print!("{}", render(&h, TraceStyle { quantum_ruler: true, max_cols: 120 }));

    println!("\nFig. 1(b) — priority-based: r > q > p; a preemptor runs to completion");
    println!("before the preempted process resumes:\n");
    let mut k = Kernel::new((), SystemSpec::pure_priority());
    k.attach_obs();
    let _p = k.add_process(ProcessorId(0), Priority(1), worker(6, 2));
    let q = k.add_held_process(ProcessorId(0), Priority(2), worker(4, 2));
    let r = k.add_held_process(ProcessorId(0), Priority(3), worker(3, 1));
    let mut d = RoundRobin::new();
    // p starts; q arrives mid-invocation; r arrives during q's invocation.
    for _ in 0..2 {
        k.step(&mut d);
    }
    k.release(q);
    for _ in 0..2 {
        k.step(&mut d);
    }
    k.release(r);
    k.run(&mut d, 1_000);
    print!("{}", render(&k.history(), TraceStyle::default()));
    println!(
        "\nIn (b), when p resumes, every invocation of the higher-priority q and r\n\
         has completed — their operations appear atomic to p 'for free'."
    );
}
