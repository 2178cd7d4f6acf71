//! Preemption-maximizing adversaries and empirical violation search
//! against the Fig. 7 algorithm.
//!
//! Theorem 3 says no algorithm works when `Q ≤ max(1, 2P − C)`; Theorem 4
//! says Fig. 7 works when `Q ≥ max(2c, c(2P + 1 − C))`. Between the two
//! lies the constant factor `c`. This module provides the adversary
//! schedules that locate Fig. 7's *empirical* threshold: the smallest `Q`
//! at which no adversary run violates agreement — the data series behind
//! the regenerated Table 1.

use hybrid_wf::multi::consensus::{decide_machine, LocalMode, MultiMem};
use hybrid_wf::multi::ports::PortLayout;
use hybrid_wf::Val;
use sched_sim::decision::{Choice, Decider, SeededRandom};
use sched_sim::rng::SplitMix64;
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::{Kernel, SystemSpec};
use sched_sim::scenario::Scenario;

/// A preemption-maximizing decider: randomizes processor interleaving,
/// rotates quantum holders aggressively (guaranteeing a same-priority
/// preemption at every window boundary), and always chooses the shortest
/// first window (every first dispatch sits one statement before a quantum
/// boundary).
#[derive(Clone, Debug)]
pub struct MaxPreempt {
    rng: SplitMix64,
    last_holder: Vec<(u32, u32, ProcessId)>,
}

impl MaxPreempt {
    /// Creates the adversary with the given seed.
    pub fn new(seed: u64) -> Self {
        MaxPreempt { rng: SplitMix64::new(seed), last_holder: Vec::new() }
    }
}

impl Decider for MaxPreempt {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        match choice {
            Choice::Cpu { .. } => self.rng.index(n),
            Choice::Holder { cpu, prio, options } => {
                // Never re-pick the previous holder if any alternative is
                // ready: maximize same-priority preemptions.
                let key = (cpu.0, prio.0);
                let last = self
                    .last_holder
                    .iter()
                    .find(|(c, p, _)| (*c, *p) == key)
                    .map(|(_, _, h)| *h);
                // Uniform among the alternatives: draw the k-th one, in
                // place (this runs at every holder decision).
                let alternatives = || (0..n).filter(|&i| Some(options[i]) != last);
                let idx = match alternatives().count() {
                    0 => 0,
                    count => alternatives().nth(self.rng.index(count)).expect("k < count"),
                };
                match self.last_holder.iter_mut().find(|(c, p, _)| (*c, *p) == key) {
                    Some(entry) => entry.2 = options[idx],
                    None => self.last_holder.push((key.0, key.1, options[idx])),
                }
                idx
            }
            // Shortest first window: preempt as early as possible.
            Choice::FirstCredit { .. } => 0,
        }
    }
}

/// A report of a consensus violation found by the adversary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationReport {
    /// The seed that produced it.
    pub seed: u64,
    /// The distinct decisions observed (≥ 2 entries), or the description
    /// of a `⊥` return.
    pub outcome: String,
}

/// The standard Fig. 7 workload for threshold experiments, as a reusable
/// [`Scenario`]: `M` processes per processor across `V` priority levels,
/// distinct inputs. Run it repeatedly (one decider per seed) or hand it to
/// `sched_sim::sweep::run_cells` for a parallel grid.
pub fn fig7_scenario(
    p: u32,
    c: u32,
    m: u32,
    v: u32,
    q: u32,
    mode: LocalMode,
) -> Scenario<MultiMem> {
    let mut prio = Vec::new();
    let mut cpus = Vec::new();
    for cpu in 0..p {
        for j in 0..m {
            cpus.push(cpu);
            prio.push(1 + j % v);
        }
    }
    let layout = PortLayout::new(p, c, m);
    let mem = MultiMem::new(layout, v, &prio, &cpus);
    let spec = SystemSpec::hybrid(q).with_adversarial_alignment();
    let mut s = Scenario::new(mem, spec).step_budget(50_000_000);
    for (pid, (&cpu, &pr)) in cpus.iter().zip(prio.iter()).enumerate() {
        let input: Val = 10 + pid as Val;
        s.add_process(
            ProcessorId(cpu),
            Priority(pr),
            Box::new(decide_machine(pid as u32, cpu, pr, input, mode)),
        );
    }
    s
}

/// The Fig. 7 workload as a live [`Kernel`] — [`fig7_scenario`] is the
/// front door; this remains for callers that drive the kernel directly.
pub fn fig7_kernel(
    p: u32,
    c: u32,
    m: u32,
    v: u32,
    q: u32,
    mode: LocalMode,
) -> Kernel<MultiMem> {
    fig7_scenario(p, c, m, v, q, mode).into_kernel()
}

/// The standard adversary pairing for seed sweeps: even seeds get the
/// holder-rotating [`MaxPreempt`] (maximizes quantum preemptions), odd
/// seeds uniformly random [`SeededRandom`] (finds irregular placements the
/// rotator's strict alternation misses).
pub fn adversary_for_seed(seed: u64) -> Box<dyn Decider> {
    if seed % 2 == 0 {
        Box::new(MaxPreempt::new(seed))
    } else {
        Box::new(SeededRandom::new(seed))
    }
}

/// Runs the adversary against Fig. 7 for `seeds` seeds at quantum `q`;
/// returns the first violation found (disagreement or a `⊥` return).
pub fn find_violation(
    p: u32,
    c: u32,
    m: u32,
    v: u32,
    q: u32,
    mode: LocalMode,
    seeds: u64,
) -> Option<ViolationReport> {
    let scenario = fig7_scenario(p, c, m, v, q, mode);
    for seed in 0..seeds {
        let r = scenario.run(&mut *adversary_for_seed(seed));
        if !r.all_finished {
            return Some(ViolationReport {
                seed,
                outcome: "run did not terminate within the step budget".into(),
            });
        }
        let mut outs = Vec::new();
        for (pid, out) in r.outputs.iter().enumerate() {
            match out {
                Some(v) => outs.push(*v),
                None => {
                    return Some(ViolationReport {
                        seed,
                        outcome: format!("p{pid} returned ⊥"),
                    })
                }
            }
        }
        outs.sort_unstable();
        outs.dedup();
        if outs.len() > 1 {
            return Some(ViolationReport { seed, outcome: format!("disagreement: {outs:?}") });
        }
    }
    None
}

/// Finds the smallest quantum in `1..=max_q` for which `find_violation`
/// comes up empty (linear scan from below, so the result is exact w.r.t.
/// the adversary's power). Returns `None` if even `max_q` fails.
pub fn min_working_q(
    p: u32,
    c: u32,
    m: u32,
    v: u32,
    mode: LocalMode,
    seeds: u64,
    max_q: u32,
) -> Option<u32> {
    (1..=max_q).find(|&q| find_violation(p, c, m, v, q, mode, seeds).is_none())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generous_quantum_never_violates() {
        assert_eq!(find_violation(2, 2, 2, 1, 256, LocalMode::Modeled, 15), None);
        assert_eq!(find_violation(2, 4, 2, 2, 256, LocalMode::Modeled, 15), None);
    }

    #[test]
    fn access_failure_pressure_scales_inversely_with_q() {
        // The mechanism by which small quanta break the algorithm: access
        // failures. At Q = 1 the adversary produces far more failed levels
        // than at Q = 64 — and pushes past the Lemma 3 bound itself,
        // i.e. the lemma's hypothesis ("at most one same-priority
        // preemption per P−K+1 levels") really is load-bearing.
        let af_at = |q: u32| {
            let mut total = 0u32;
            let mut max_run = 0u32;
            let mut lemma3_violated = false;
            for seed in 0..150 {
                let mut k = fig7_kernel(2, 2, 3, 1, q, LocalMode::Modeled);
                let mut mp = MaxPreempt::new(seed);
                let mut sr = SeededRandom::new(seed);
                let d: &mut dyn Decider =
                    if seed % 2 == 0 { &mut mp } else { &mut sr };
                k.run(d, 50_000_000);
                assert!(k.all_finished());
                let s = hybrid_wf::multi::failures::summarize(&k.mem);
                total += s.same + s.diff;
                max_run = max_run.max(s.same + s.diff);
                if !hybrid_wf::multi::failures::lemma3_bound_holds(&k.mem) {
                    lemma3_violated = true;
                }
            }
            (total, max_run, lemma3_violated)
        };
        let (af1, max1, viol1) = af_at(1);
        let (af64, max64, viol64) = af_at(64);
        assert!(
            af1 > 3 * af64,
            "expected far more access failures at Q=1 ({af1}) than Q=64 ({af64})"
        );
        assert!(max1 > max64, "worst run at Q=1 ({max1}) vs Q=64 ({max64})");
        assert!(viol1, "Q=1 should push some run past the Lemma 3 bound");
        assert!(!viol64, "Q=64 must satisfy the Lemma 3 hypothesis and bound");
    }

    #[test]
    fn max_preempt_is_reproducible() {
        let run = |seed| {
            let mut k = fig7_kernel(2, 3, 2, 1, 8, LocalMode::Modeled);
            let mut d = MaxPreempt::new(seed);
            k.run(&mut d, 1_000_000);
            (0..k.n_processes() as u32)
                .map(|p| k.output(ProcessId(p)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn min_working_q_is_monotone_sane() {
        // Whatever threshold the search finds, a far larger quantum must
        // also work.
        if let Some(q) = min_working_q(2, 2, 2, 1, LocalMode::Modeled, 10, 64) {
            assert!(find_violation(2, 2, 2, 1, q.max(64), LocalMode::Modeled, 10).is_none());
        }
    }
}
