//! Valency analysis (the paper's Appendix A / Fig. 10 machinery): classify
//! reachable states of a small simulated consensus execution as uni- or
//! bi-valent, and search for deep bivalent chains.
//!
//! A state is *`v`-valent* if every completion from it decides `v`, and
//! *bivalent* if completions deciding different values are reachable. The
//! lower-bound proof shows that with `Q ≤ 2P − C` the adversary can keep a
//! run bivalent forever; [`bivalent_chain_depth`] witnesses this on finite
//! prefixes by finding, level by level, a successor state that is still
//! bivalent.

use std::collections::BTreeSet;
use std::hash::Hash;
use std::sync::Mutex;

use sched_sim::explore::{explore, explore_parallel, ExploreBounds, Verdict};
use sched_sim::ids::ProcessId;
use sched_sim::kernel::{Kernel, StepAttempt};

/// The set of decision values reachable from a state (a state's *valence*).
///
/// Decisions are read as the output of process 0 at quiescence — by
/// agreement, any process's output works for a correct algorithm; for an
/// *incorrect* one (the interesting case) process 0's view still defines a
/// valid valence notion for the argument.
pub fn reachable_decisions<M: Clone + Hash>(k: &Kernel<M>, bounds: ExploreBounds) -> BTreeSet<u64> {
    let mut steps = 0u64;
    decisions_counting(k, bounds, &mut steps)
}

/// [`reachable_decisions`] plus an accumulator for the statements the
/// exploration executed, so probes can report their work.
fn decisions_counting<M: Clone + Hash>(
    k: &Kernel<M>,
    bounds: ExploreBounds,
    steps: &mut u64,
) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    let stats = explore(k, bounds, |k| {
        if let Some(v) = k.output(ProcessId(0)) {
            out.insert(v);
        }
        Verdict::KeepGoing
    });
    *steps += stats.steps;
    out
}

/// [`reachable_decisions`] with each valence exploration fanned out over
/// `jobs` workers of [`explore_parallel`].
///
/// Partial-order reduction ([`ExploreBounds::por`]) is sound here — the
/// valence is a function of the quiescent-state set, which POR preserves
/// exactly. Symmetry reduction is **not**: the valence reads the output of
/// process 0 specifically, which is not invariant under process
/// permutation, so callers must leave [`ExploreBounds::symmetry`] off.
pub fn reachable_decisions_jobs<M: Clone + Hash + Send>(
    k: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
) -> BTreeSet<u64> {
    let mut steps = 0u64;
    decisions_counting_jobs(k, bounds, jobs, &mut steps)
}

/// Parallel twin of [`decisions_counting`]: same valence, `jobs` workers.
fn decisions_counting_jobs<M: Clone + Hash + Send>(
    k: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
    steps: &mut u64,
) -> BTreeSet<u64> {
    let out = Mutex::new(BTreeSet::new());
    let stats = explore_parallel(k, bounds, jobs, |k| {
        if let Some(v) = k.output(ProcessId(0)) {
            out.lock().expect("valence set poisoned").insert(v);
        }
        Verdict::KeepGoing
    });
    *steps += stats.steps;
    out.into_inner().expect("valence set poisoned")
}

/// Searches for a chain of bivalent states of the given `depth`: from each
/// bivalent state, tries every one-statement successor (over all scheduler
/// choices) and descends into one that is still bivalent.
///
/// Returns the depth actually reached (== `depth` when the adversary can
/// keep the execution bivalent that long — the finite witness of the
/// paper's "infinite sequence of bi-valent states").
pub fn bivalent_chain_depth<M: Clone + Hash>(
    k: &Kernel<M>,
    depth: u32,
    bounds: ExploreBounds,
) -> u32 {
    bivalent_chain_probe(k, depth, bounds).depth
}

/// Result of a [`bivalent_chain_probe`]: the depth reached and the total
/// simulated statements it took to establish it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainProbe {
    /// Bivalent chain depth actually reached (see [`bivalent_chain_depth`]).
    pub depth: u32,
    /// Statements executed across every valence exploration and successor
    /// probe — the probe's work metric.
    pub steps: u64,
}

/// [`bivalent_chain_depth`] with work accounting: identical search, but also
/// reports how many statements the probe executed in total.
pub fn bivalent_chain_probe<M: Clone + Hash>(
    k: &Kernel<M>,
    depth: u32,
    bounds: ExploreBounds,
) -> ChainProbe {
    chain_probe_with(k, depth, |k2, steps| decisions_counting(k2, bounds, steps))
}

/// [`bivalent_chain_probe`] with each valence exploration fanned out over
/// `jobs` workers. The chain search itself stays serial (each level depends
/// on the previous one); the parallelism is inside the per-state valence
/// explorations, which dominate the work. Same symmetry caveat as
/// [`reachable_decisions_jobs`].
pub fn bivalent_chain_probe_jobs<M: Clone + Hash + Send>(
    k: &Kernel<M>,
    depth: u32,
    bounds: ExploreBounds,
    jobs: usize,
) -> ChainProbe {
    chain_probe_with(k, depth, |k2, steps| decisions_counting_jobs(k2, bounds, jobs, steps))
}

/// The level-by-level chain search, generic over how a state's valence is
/// computed (serial or parallel exploration).
fn chain_probe_with<M: Clone + Hash>(
    k: &Kernel<M>,
    depth: u32,
    mut valence: impl FnMut(&Kernel<M>, &mut u64) -> BTreeSet<u64>,
) -> ChainProbe {
    let mut steps = 0u64;
    let mut cur = k.clone();
    for d in 0..depth {
        if valence(&cur, &mut steps).len() < 2 {
            return ChainProbe { depth: d, steps };
        }
        // Enumerate one-statement successors across all choices.
        let mut found = None;
        let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(script) = frontier.pop() {
            let mut k2 = cur.clone();
            match k2.step_scripted(&script) {
                StepAttempt::Stepped(_) => {
                    steps += 1;
                    if valence(&k2, &mut steps).len() >= 2 {
                        found = Some(k2);
                        break;
                    }
                }
                StepAttempt::NeedChoice { arity, .. } => {
                    for c in 0..arity {
                        let mut s = script.clone();
                        s.push(c);
                        frontier.push(s);
                    }
                }
                StepAttempt::Quiescent => {}
            }
        }
        match found {
            Some(k2) => cur = k2,
            None => return ChainProbe { depth: d, steps },
        }
    }
    ChainProbe { depth, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
    use sched_sim::ids::{ProcessorId, Priority};
    use sched_sim::kernel::SystemSpec;

    fn fig3_kernel(q: u32) -> Kernel<UniConsensusMem> {
        let spec = SystemSpec::hybrid(q).with_adversarial_alignment();
        let mut k = Kernel::new(UniConsensusMem::default(), spec);
        k.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(1)));
        k.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(2)));
        k
    }

    #[test]
    fn initial_state_is_bivalent() {
        // Either proposal can win depending on the schedule.
        let k = fig3_kernel(MIN_QUANTUM);
        let d = reachable_decisions(&k, ExploreBounds::default());
        assert_eq!(d.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn parallel_valence_matches_serial() {
        let k = fig3_kernel(MIN_QUANTUM);
        let serial = reachable_decisions(&k, ExploreBounds::default());
        for jobs in [1, 2, 4] {
            assert_eq!(
                reachable_decisions_jobs(&k, ExploreBounds::default(), jobs),
                serial,
                "jobs={jobs}"
            );
        }
        let probe = bivalent_chain_probe(&k, 8, ExploreBounds::default());
        assert_eq!(bivalent_chain_probe_jobs(&k, 8, ExploreBounds::default(), 4), probe);
    }

    #[test]
    fn por_preserves_valence() {
        // POR preserves the quiescent-state set, hence the valence — and
        // with it every chain-probe depth.
        let k = fig3_kernel(MIN_QUANTUM);
        let plain = reachable_decisions(&k, ExploreBounds::default());
        let por = ExploreBounds { por: true, ..ExploreBounds::default() };
        assert_eq!(reachable_decisions(&k, por), plain);
        assert_eq!(
            bivalent_chain_depth(&k, 16, por),
            bivalent_chain_depth(&k, 16, ExploreBounds::default())
        );
    }

    #[test]
    fn correct_algorithm_becomes_univalent() {
        // With Q ≥ 8 the Fig. 3 algorithm decides: at quiescence the
        // valence is a single value, and a bivalent chain cannot run past
        // the point where the decisive write lands.
        let k = fig3_kernel(MIN_QUANTUM);
        let total_steps = 2 * 8; // two 8-statement invocations
        let reached = bivalent_chain_depth(&k, total_steps, ExploreBounds::default());
        assert!(
            reached < total_steps,
            "a correct consensus cannot stay bivalent to the very end ({reached})"
        );
    }

    #[test]
    fn broken_quantum_sustains_deep_bivalence() {
        // With Q = 1 (free interleaving) the adversary keeps the run
        // bivalent strictly longer than with Q = 8 — the Fig. 10 argument
        // in miniature.
        let ok = bivalent_chain_depth(&fig3_kernel(MIN_QUANTUM), 16, ExploreBounds::default());
        let broken = bivalent_chain_depth(&fig3_kernel(1), 16, ExploreBounds::default());
        assert!(
            broken > ok,
            "expected deeper bivalence at Q=1 ({broken}) than at Q=8 ({ok})"
        );
    }
}
