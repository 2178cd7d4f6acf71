//! Parallel exploration is bit-identical to serial, and state-space
//! reduction is sound.
//!
//! The frontier-sharded parallel explorer claims *determinism*: because
//! every state is claimed exactly once in the global visited table,
//! each of `terminals`, `steps`, `deduped`, `por_pruned` and
//! `peak_visited` is independent of visit order whenever no bound
//! truncates the run — so the parallel stats must equal the serial ones
//! **exactly**, at every worker count, and the multiset of quiescent
//! states must match too. These tests pin that claim, then pin the two
//! reduction soundness theorems the explorer relies on:
//!
//! * **POR** preserves the quiescent-state set exactly (a singleton ample
//!   set defers only commuting statements, and a deferred process's next
//!   step stays enabled and independent until taken), so the terminal
//!   multiset of a reduced run equals the unreduced one.
//! * **Symmetry** merges states identical up to a priority-preserving
//!   process/processor permutation; over a permutation-invariant property
//!   (agreement + validity), verifying one orbit representative verifies
//!   the orbit.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
use lowerbound::explore_grid::{fig3_kernel, pair_kernel, PairMem};
use sched_sim::explore::{explore_parallel, ExploreBounds, ExploreStats, Truncation, Verdict};
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::{Kernel, SystemSpec};
use sched_sim::scenario::Scenario;

/// The multiset of quiescent states, fingerprinted by every process's
/// output. Collected under a mutex so the parallel explorer can report
/// from any worker; sorted so visit order cancels out.
fn terminal_multiset<M: Clone + std::hash::Hash + Send>(
    k: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
) -> (ExploreStats, Vec<Vec<Option<u64>>>) {
    let terminals = Mutex::new(Vec::new());
    let stats = explore_parallel(k, bounds, jobs, |t| {
        let outs: Vec<Option<u64>> =
            (0..t.n_processes()).map(|p| t.output(ProcessId(p as u32))).collect();
        terminals.lock().expect("terminal collector poisoned").push(outs);
        Verdict::KeepGoing
    });
    let mut terminals = terminals.into_inner().expect("terminal collector poisoned");
    terminals.sort();
    (stats, terminals)
}

/// Parallel exploration at every worker count returns the serial stats
/// bit-for-bit and the same terminal multiset — narrow and wide hashes
/// alike.
#[test]
fn parallel_matches_serial_stats_and_terminals() {
    let k = fig3_kernel(MIN_QUANTUM, &[1, 2, 3]);
    for wide in [false, true] {
        let bounds = ExploreBounds { wide_hash: wide, ..ExploreBounds::default() };
        let (serial, serial_terms) = terminal_multiset(&k, bounds, 1);
        assert_eq!(serial.truncation, Truncation::None);
        for jobs in [2, 4] {
            let (par, par_terms) = terminal_multiset(&k, bounds, jobs);
            assert_eq!(serial, par, "stats diverged at jobs={jobs} wide={wide}");
            assert_eq!(serial_terms, par_terms, "terminals diverged at jobs={jobs} wide={wide}");
        }
    }
}

/// The same pin with every cpu busy: one CPU-burning thread per available
/// cpu spins while the parallel explorer runs oversubscribed at jobs 2, 3
/// and 8, so workers can be descheduled mid-claim and mid-growth. The
/// symmetric five-proposer workload visits 113,642 states, enough for the
/// visited table to grow several times from its initial size at every
/// jobs count.
#[test]
fn parallel_matches_serial_under_load() {
    let k = fig3_kernel(MIN_QUANTUM, &[7; 5]);
    let bounds = ExploreBounds::default().reduced();
    let (serial, serial_terms) = terminal_multiset(&k, bounds, 1);
    assert_eq!(serial.truncation, Truncation::None);
    assert_eq!(serial.peak_visited, 113_642);

    /// Stops the burners when dropped, also while a failed assertion
    /// unwinds, so the scope can join them.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let done = AtomicBool::new(false);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cpus {
            scope.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let _stop = Stop(&done);
        for jobs in [2, 3, 8] {
            let (par, par_terms) = terminal_multiset(&k, bounds, jobs);
            assert_eq!(serial, par, "stats diverged under load at jobs={jobs}");
            assert_eq!(serial_terms, par_terms, "terminals diverged under load at jobs={jobs}");
        }
    });
}

/// POR soundness on the fuzz-grid Fig. 3 configuration (three processes,
/// legal quantum) and on the sharded pair workload where POR actually
/// fires: the reduced run's terminal multiset — counted per distinct
/// output vector — must equal the unreduced one exactly.
#[test]
fn por_preserves_terminal_multiset() {
    fn counted(terms: Vec<Vec<Option<u64>>>) -> BTreeMap<Vec<Option<u64>>, usize> {
        let mut m = BTreeMap::new();
        for t in terms {
            *m.entry(t).or_insert(0) += 1;
        }
        m
    }
    let por = ExploreBounds { por: true, ..ExploreBounds::default() };

    // Fig. 3: every process touches the same cell, so POR must prune
    // nothing — and therefore change nothing.
    let k = fig3_kernel(MIN_QUANTUM, &[1, 2, 3]);
    let (plain, plain_terms) = terminal_multiset(&k, ExploreBounds::default(), 1);
    let (red, red_terms) = terminal_multiset(&k, por, 1);
    assert_eq!(red.por_pruned, 0, "same-cell statements never commute");
    assert_eq!(plain, red);
    assert_eq!(plain_terms, red_terms);

    // Sharded pair: POR prunes heavily; distinct outputs and their
    // multiplicities must still survive, though each distinct quiescent
    // state may be reached along fewer interleavings (`terminals` counts
    // arrivals at quiescence, which reduction is allowed to shrink only
    // by merging identical states — the distinct set is what must hold).
    let k = pair_kernel(MIN_QUANTUM, 1);
    let (plain, plain_terms) = terminal_multiset(&k, ExploreBounds::default(), 1);
    let (red, red_terms) = terminal_multiset(&k, por, 1);
    assert!(red.por_pruned > 0, "disjoint shards must commute");
    assert_eq!(plain.terminals, red.terminals, "POR must preserve quiescent arrivals");
    assert_eq!(counted(plain_terms), counted(red_terms));
}

/// Symmetry + POR on the symmetric four-proposer workload: ≥ 5× fewer
/// visited states, same distinct decisions. With identical proposals the
/// only decision value is the proposal itself, so the reduced run proves
/// exactly what the unreduced one does.
#[test]
fn symmetry_shrinks_symmetric_workload_five_fold() {
    let k = fig3_kernel(MIN_QUANTUM, &[7, 7, 7, 7]);
    let plain = explore_parallel(&k, ExploreBounds::default(), 1, |t| {
        assert!((0..4).all(|p| t.output(ProcessId(p)) == Some(7)));
        Verdict::KeepGoing
    });
    let reduced = ExploreBounds::default().reduced();
    let sym = explore_parallel(&k, reduced, 1, |t| {
        assert!((0..4).all(|p| t.output(ProcessId(p)) == Some(7)));
        Verdict::KeepGoing
    });
    assert_eq!(plain.truncation, Truncation::None);
    assert_eq!(sym.truncation, Truncation::None);
    assert!(
        sym.peak_visited * 5 <= plain.peak_visited,
        "expected ≥ 5× shrink: {} vs {}",
        plain.peak_visited,
        sym.peak_visited
    );
}

/// Early-stop on a violating workload: Fig. 3 below the paper's quantum
/// bound (Q = 1 < 8) admits disagreeing terminals, and both the serial
/// and the parallel explorer must find one and stop with
/// [`Truncation::VisitorStop`].
#[test]
fn early_stop_finds_sub_threshold_violation_in_both_modes() {
    let mut s = Scenario::new(
        UniConsensusMem::default(),
        SystemSpec::hybrid(1).with_adversarial_alignment(),
    );
    for v in [1u64, 2] {
        s.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(v)));
    }
    let k = s.into_kernel();
    for jobs in [1usize, 4] {
        let stats = explore_parallel(&k, ExploreBounds::default(), jobs, |t| {
            if t.output(ProcessId(0)) != t.output(ProcessId(1)) {
                Verdict::Stop
            } else {
                Verdict::KeepGoing
            }
        });
        assert_eq!(
            stats.truncation,
            Truncation::VisitorStop,
            "jobs={jobs}: exhaustive search below the bound must hit a disagreement"
        );
    }
}

/// The pair workload's memory type stays permutation-*sensitive* (two
/// distinct shards), so the grid keeps symmetry off for it; this pin
/// documents that POR alone already collapses the cross-object product.
#[test]
fn pair_workload_reduces_by_por_alone() {
    let k: Kernel<PairMem> = pair_kernel(MIN_QUANTUM, 1);
    let plain = explore_parallel(&k, ExploreBounds::default(), 1, |_| Verdict::KeepGoing);
    let por = explore_parallel(
        &k,
        ExploreBounds { por: true, ..ExploreBounds::default() },
        1,
        |_| Verdict::KeepGoing,
    );
    assert_eq!(plain.terminals, por.terminals);
    assert!(por.peak_visited * 5 <= plain.peak_visited);
}
