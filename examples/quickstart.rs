//! Quickstart: wait-free consensus from reads and writes on a
//! hybrid-scheduled uniprocessor (Fig. 3 / Theorem 1 of Anderson & Moir,
//! PODC 1999), set up through the [`Scenario`] front door.
//!
//! ```sh
//! cargo run -p examples --bin quickstart
//! ```

use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
use sched_sim::history::check_well_formed;
use sched_sim::prelude::{ProcessorId, Priority, Scenario, SystemSpec};

fn main() {
    // A hybrid-scheduled uniprocessor with quantum Q = 8 statements.
    // The observability trace records the history checked below.
    let spec = SystemSpec::hybrid(MIN_QUANTUM);
    let mut scenario =
        Scenario::new(UniConsensusMem::default(), spec).with_obs().step_budget(10_000);

    // Five processes at three priority levels, each proposing a value.
    let proposals = [(10u64, 1u32), (20, 1), (30, 2), (40, 2), (50, 3)];
    for &(value, priority) in &proposals {
        scenario.add_process(
            ProcessorId(0),
            Priority(priority),
            Box::new(decide_machine(value)),
        );
    }

    // Run under the fair round-robin scheduler until everyone decides.
    // (The scenario is reusable: `run_fair()` again — or `run_seeded(s)`
    // for a randomized schedule — replays from the same initial state.)
    let result = scenario.run_fair();
    println!("system quiescent after {} atomic statements\n", result.steps);

    for (pid, &(value, priority)) in proposals.iter().enumerate() {
        let out = result.outputs[pid].expect("decided");
        println!("  p{pid} (prio {priority}) proposed {value:>2} → decided {out}");
    }

    let decision = result.agreed_output().expect("agreement");
    assert!(proposals.iter().any(|&(v, _)| v == decision), "validity");
    check_well_formed(&result.history()).expect("history satisfies Axioms 1 and 2");
    println!("\nagreement ✓  validity ✓  wait-free ({} own-statements max) ✓", result.max_own_steps());
    println!("history is well-formed w.r.t. the paper's Axiom 1 (priority) and Axiom 2 (quantum)");
}
