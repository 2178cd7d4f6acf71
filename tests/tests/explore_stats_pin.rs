//! Pinned exploration statistics for the paper's canonical workloads.
//!
//! The explorer's fork/dedup machinery was restructured in PR 3 (in-place
//! stepping, fixed-array scripts, identity-hashed visited set, tracked
//! incremental state hashes). These pins assert that none of it changed
//! *what* is explored: terminals, total steps and dedup hits for the
//! Fig. 3 consensus exploration, and the bivalent-chain depths of the
//! Fig. 10 valency probe, must stay bit-identical to the pre-optimisation
//! values captured at the parent commit. The universal construction's
//! counter kernels are pinned the same way, from before its log stopped
//! being written out in full when the memory is built.

use hybrid_wf::service::session_mem;
use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
use hybrid_wf::universal::{op_machine, replay_final_state, CounterSpec, UniversalMem};
use lowerbound::valency::bivalent_chain_depth;
use sched_sim::explore::{
    explore, explore_parallel, ExploreBounds, ExploreStats, Truncation, Verdict,
};
use sched_sim::{Kernel, ProcessId, ProcessorId, Priority, Scenario, SystemSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// The Fig. 3 configuration used throughout the experiments: all processes
/// on one processor, adversarial quantum alignment.
fn fig3_kernel(q: u32, inputs: &[(u64, u32)]) -> Kernel<UniConsensusMem> {
    let mut s = Scenario::new(
        UniConsensusMem::default(),
        SystemSpec::hybrid(q).with_adversarial_alignment(),
    );
    for &(v, pr) in inputs {
        s.add_process(ProcessorId(0), Priority(pr), Box::new(decide_machine(v)));
    }
    s.into_kernel()
}

fn stats_of(q: u32, inputs: &[(u64, u32)]) -> ExploreStats {
    explore(&fig3_kernel(q, inputs), ExploreBounds::default(), |_| Verdict::KeepGoing)
}

/// Fig. 3, Q = 8, two equal-priority processes: the workload behind the
/// `fig3_q8_2p` throughput cell.
#[test]
fn fig3_q8_two_procs_stats_pinned() {
    assert_eq!(
        stats_of(MIN_QUANTUM, &[(1, 1), (2, 1)]),
        ExploreStats {
            terminals: 14,
            steps: 1514,
            deduped: 226,
            por_pruned: 0,
            peak_visited: 1289, // 1 + steps - deduped
            truncation: Truncation::None,
        }
    );
}

/// Fig. 3, Q = 8, three processes with a higher-priority third: priority
/// scheduling collapses the schedule tree to a single terminal.
#[test]
fn fig3_q8_three_procs_stats_pinned() {
    assert_eq!(
        stats_of(MIN_QUANTUM, &[(1, 1), (2, 1), (3, 2)]),
        ExploreStats {
            terminals: 1,
            steps: 1328,
            deduped: 246,
            por_pruned: 0,
            peak_visited: 1083,
            truncation: Truncation::None,
        }
    );
}

/// Fig. 3 under a too-small quantum (Q = 1 < the paper's bound): far more
/// interleavings survive, and the explorer must still visit them all.
#[test]
fn fig3_q1_two_procs_stats_pinned() {
    assert_eq!(
        stats_of(1, &[(1, 1), (2, 1)]),
        ExploreStats {
            terminals: 32,
            steps: 912,
            deduped: 322,
            por_pruned: 0,
            peak_visited: 591,
            truncation: Truncation::None,
        }
    );
}

/// Fig. 10 valency probe: the bivalent-chain depth for the two-process
/// Fig. 3 consensus object, per quantum. Larger quanta resolve the
/// decision sooner (shorter chains), pinning the FLP-style argument the
/// lower-bound section builds on.
#[test]
fn fig10_bivalent_chain_depths_pinned() {
    let depths: Vec<(u32, u32)> = [1u32, 2, 4, 8]
        .into_iter()
        .map(|q| {
            let k = fig3_kernel(q, &[(1, 1), (2, 1)]);
            (q, bivalent_chain_depth(&k, 16, ExploreBounds::default()))
        })
        .collect();
    assert_eq!(depths, vec![(1, 13), (2, 10), (4, 10), (8, 6)]);
}

/// One terminal as `"<outputs>:<P[1..3]>"`, one digit each (`_` = ⊥).
fn terminal_summary(k: &Kernel<UniConsensusMem>) -> String {
    let digit = |v: Option<u64>| v.map_or('_', |v| char::from_digit(v as u32, 10).unwrap());
    let outs: String = (0..2).map(|p| digit(k.output(ProcessId(p)))).collect();
    let cells: String = k.mem.p.iter().map(|&c| digit(c)).collect();
    format!("{outs}:{cells}")
}

/// The serial explorer's terminal order on two-process Fig. 3, pinned
/// from the dedicated serial DFS that `explore` replaced with the
/// one-worker case of `explore_parallel`: the same states, in the same
/// order.
#[test]
fn fig3_serial_terminal_order_pinned() {
    let order = |q| {
        let mut v = Vec::new();
        explore(&fig3_kernel(q, &[(1, 1), (2, 1)]), ExploreBounds::default(), |k| {
            v.push(terminal_summary(k));
            Verdict::KeepGoing
        });
        v
    };
    assert_eq!(
        order(MIN_QUANTUM),
        [
            "22:222", "22:222", "22:222", "11:211", "11:211", "11:211", "22:212", "22:122",
            "11:111", "11:111", "11:111", "22:122", "22:122", "11:121",
        ]
    );
    assert_eq!(
        order(1),
        [
            "22:222", "22:222", "22:222", "22:122", "22:122", "22:122", "22:112", "12:111",
            "11:111", "22:112", "12:112", "11:111", "12:121", "11:121", "22:122", "12:122",
            "11:121", "11:111", "11:111", "22:212", "12:211", "11:211", "22:212", "12:212",
            "11:211", "12:221", "11:221", "22:222", "12:222", "11:221", "11:211", "11:211",
        ]
    );
}

/// Truncated serial runs of Fig. 3 at Q = 1 (step budgets 2, half and
/// full + 1, a depth bound, a visitor stop at the 10th terminal), pinned
/// from the dedicated serial DFS, and equal to `explore_parallel` at one
/// job on every field: both are now one code path.
#[test]
fn fig3_truncated_serial_stats_pinned_and_match_one_job() {
    let k = fig3_kernel(1, &[(1, 1), (2, 1)]);
    let stats = |terminals, steps, deduped, peak_visited, truncation| ExploreStats {
        terminals,
        steps,
        deduped,
        por_pruned: 0,
        peak_visited,
        truncation,
    };
    let step_bound = |max_total_steps| ExploreBounds { max_total_steps, ..ExploreBounds::default() };
    let cases = [
        (step_bound(2), 0, stats(0, 2, 0, 3, Truncation::StepBound)),
        (step_bound(456), 0, stats(18, 456, 151, 306, Truncation::StepBound)),
        (step_bound(913), 0, stats(32, 912, 322, 591, Truncation::None)),
        (
            ExploreBounds { max_depth: 6, ..ExploreBounds::default() },
            0,
            stats(0, 62, 12, 31, Truncation::DepthBound),
        ),
        (ExploreBounds::default(), 10, stats(10, 343, 121, 223, Truncation::VisitorStop)),
    ];
    for (bounds, stop_at, pinned) in cases {
        let seen = AtomicU64::new(0);
        let visitor = |_: &Kernel<UniConsensusMem>| {
            if seen.fetch_add(1, Ordering::Relaxed) + 1 == stop_at {
                Verdict::Stop
            } else {
                Verdict::KeepGoing
            }
        };
        let serial = explore(&k, bounds, visitor);
        assert_eq!(serial, pinned, "{bounds:?} stop at {stop_at}");
        seen.store(0, Ordering::Relaxed);
        assert_eq!(explore_parallel(&k, bounds, 1, visitor), serial, "{bounds:?} stop at {stop_at}");
    }
}

/// Three counter clients of the universal construction, two increments
/// each, at Q = 8, client `i` on processor `cpus[i]` at priority
/// `prios[i]`.
fn universal_kernel(
    mem: UniversalMem<CounterSpec>,
    cpus: [u32; 3],
    prios: [u32; 3],
) -> Kernel<UniversalMem<CounterSpec>> {
    let mut s = Scenario::new(mem, SystemSpec::hybrid(8));
    for pid in 0..3 {
        s.add_process(
            ProcessorId(cpus[pid as usize]),
            Priority(prios[pid as usize]),
            Box::new(op_machine(CounterSpec, pid, 3, vec![1, 1])),
        );
    }
    s.into_kernel()
}

/// The explorer's view of the universal construction's shared log, on
/// both ways of building the memory: `UniversalMem::new` with room for
/// `4·ops + 4` slots, and the service's `session_mem`. Three layouts: one
/// processor at equal priority, one processor at priorities `[1, 2, 1]`,
/// and two processors (clients 0 and 2 on the first, client 1 on the
/// second, client 2 at priority 2). Pinned before the log stopped being
/// written out in full up front; every terminal must replay to the exact
/// sum of the six increments.
#[test]
fn universal_counter_stats_pinned() {
    let explored = |mem: UniversalMem<CounterSpec>, cpus, prios| {
        explore(&universal_kernel(mem, cpus, prios), ExploreBounds::default(), |k| {
            assert!(k.all_finished());
            assert_eq!(replay_final_state(&CounterSpec, &k.mem), 6);
            Verdict::KeepGoing
        })
    };
    let stats = |terminals, steps, deduped, peak_visited| ExploreStats {
        terminals,
        steps,
        deduped,
        por_pruned: 0,
        peak_visited,
        truncation: Truncation::None,
    };
    for (cpus, prios, pinned) in [
        ([0, 0, 0], [1, 1, 1], stats(90, 1296, 0, 1297)),
        ([0, 0, 0], [1, 2, 1], stats(6, 86, 0, 87)),
        ([0, 1, 0], [1, 1, 2], stats(67, 2571, 945, 1627)),
    ] {
        let presized = explored(UniversalMem::new(3, 4 * 6 + 4), cpus, prios);
        let session = explored(session_mem(&[2, 2, 2]), cpus, prios);
        assert_eq!(presized, pinned, "{cpus:?} {prios:?}, UniversalMem::new");
        assert_eq!(session, pinned, "{cpus:?} {prios:?}, session_mem");
    }
}
