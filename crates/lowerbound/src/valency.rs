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

use sched_sim::explore::{explore, ExploreBounds, Verdict};
use sched_sim::ids::ProcessId;
use sched_sim::kernel::{Kernel, StepAttempt};

/// The set of decision values reachable from a state (a state's *valence*).
///
/// Decisions are read as the output of process 0 at quiescence — by
/// agreement, any process's output works for a correct algorithm; for an
/// *incorrect* one (the interesting case) process 0's view still defines a
/// valid valence notion for the argument.
pub fn reachable_decisions<M: Clone + Hash>(k: &Kernel<M>, bounds: ExploreBounds) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    explore(k, bounds, |k| {
        if let Some(v) = k.output(ProcessId(0)) {
            out.insert(v);
        }
        Verdict::KeepGoing
    });
    out
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
    let mut cur = k.clone();
    for d in 0..depth {
        if reachable_decisions(&cur, bounds).len() < 2 {
            return d;
        }
        // Enumerate one-statement successors across all choices.
        let mut found = None;
        let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
        while let Some(script) = frontier.pop() {
            let mut k2 = cur.clone();
            match k2.step_scripted(&script) {
                StepAttempt::Stepped(_) => {
                    if reachable_decisions(&k2, bounds).len() >= 2 {
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
            None => return d,
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore_grid::fig3_kernel;
    use hybrid_wf::uni::consensus::MIN_QUANTUM;

    #[test]
    fn initial_state_is_bivalent() {
        // Either proposal can win depending on the schedule.
        let k = fig3_kernel(MIN_QUANTUM, &[1, 2]);
        let d = reachable_decisions(&k, ExploreBounds::default());
        assert_eq!(d.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn por_preserves_valence() {
        // POR preserves the quiescent-state set, hence the valence — and
        // with it every chain-probe depth.
        let k = fig3_kernel(MIN_QUANTUM, &[1, 2]);
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
        let k = fig3_kernel(MIN_QUANTUM, &[1, 2]);
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
        let depth =
            |q| bivalent_chain_depth(&fig3_kernel(q, &[1, 2]), 16, ExploreBounds::default());
        let (ok, broken) = (depth(MIN_QUANTUM), depth(1));
        assert!(
            broken > ok,
            "expected deeper bivalence at Q=1 ({broken}) than at Q=8 ({ok})"
        );
    }
}
