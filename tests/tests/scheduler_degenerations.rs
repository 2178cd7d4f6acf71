//! The paper's unification claim, tested across crates: "any wait-free
//! algorithm that is correct in a system with hybrid scheduling is also
//! correct in a system that is either purely priority-based or purely
//! quantum-based." Every core algorithm is run under all three scheduler
//! degenerations with well-formedness checked on the recorded histories.

use hybrid_wf::oracle::{check_linearizable, CasRegOp, CasRegisterSpec, TimedOp};
use hybrid_wf::uni::cas::{op_machine, CasMem, CasOp};
use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem};
use sched_sim::history::check_well_formed;
use sched_sim::{ProcessorId, Priority, Scenario, SystemSpec};

const INIT: u64 = 100;

fn scheduler_matrix() -> Vec<(&'static str, SystemSpec, Vec<u32>)> {
    vec![
        // (label, spec, priorities for 4 processes)
        ("hybrid", SystemSpec::hybrid(128), vec![1, 1, 2, 2]),
        ("pure-quantum", SystemSpec::pure_quantum(128), vec![1, 1, 1, 1]),
        ("pure-priority", SystemSpec::pure_priority(), vec![1, 2, 3, 4]),
    ]
}

#[test]
fn fig3_consensus_correct_under_all_schedulers() {
    for (label, spec, prios) in scheduler_matrix() {
        let mut s =
            Scenario::new(UniConsensusMem::default(), spec).with_obs().step_budget(100_000);
        for (i, &pr) in prios.iter().enumerate() {
            s.add_process(
                ProcessorId(0),
                Priority(pr),
                Box::new(decide_machine(i as u64 + 1)),
            );
        }
        for seed in 0..25 {
            let r = s.run_seeded(seed);
            assert!(r.all_finished, "{label} seed {seed}");
            let first = r.outputs[0].unwrap();
            for (p, out) in r.outputs.iter().enumerate() {
                assert_eq!(*out, Some(first), "{label} seed {seed} p{p}");
            }
            assert!((1..=4).contains(&first), "{label}: invalid {first}");
            check_well_formed(&r.history())
                .unwrap_or_else(|v| panic!("{label} seed {seed}: {v}"));
        }
    }
}

#[test]
fn fig5_cas_linearizable_under_all_schedulers() {
    let plans: Vec<Vec<CasOp>> = vec![
        vec![CasOp::Cas { old: INIT, new: 1 }, CasOp::Read],
        vec![CasOp::Cas { old: INIT, new: 2 }],
        vec![CasOp::Read, CasOp::Cas { old: 1, new: 3 }],
        vec![CasOp::Read],
    ];
    for (label, spec, prios) in scheduler_matrix() {
        let v = *prios.iter().max().unwrap();
        let n = prios.len() as u32;
        let mut s = Scenario::new(CasMem::new(v, &prios, INIT), spec)
            .with_obs()
            .step_budget(1_000_000);
        for (pid, ops) in plans.iter().enumerate() {
            s.add_process(
                ProcessorId(0),
                Priority(prios[pid]),
                Box::new(op_machine(pid as u32, prios[pid], n, v, ops.clone())),
            );
        }
        for seed in 0..20 {
            let r = s.run_seeded(seed);
            assert!(r.all_finished, "{label} seed {seed}");
            let timed: Vec<TimedOp<CasRegOp>> = r
                .ops()
                .iter()
                .map(|rec| TimedOp {
                    start: rec.start,
                    end: rec.t,
                    op: match plans[rec.pid.index()][rec.inv_index as usize] {
                        CasOp::Cas { old, new } => CasRegOp::Cas { old, new },
                        CasOp::Read => CasRegOp::Read,
                    },
                    result: rec.output.unwrap(),
                })
                .collect();
            check_linearizable(&CasRegisterSpec { init: INIT }, &timed)
                .unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
            check_well_formed(&r.history())
                .unwrap_or_else(|v| panic!("{label} seed {seed}: {v}"));
        }
    }
}
