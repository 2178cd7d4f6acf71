//! Preemption-maximizing adversaries and the Table 1 probe against the
//! Fig. 7 algorithm.
//!
//! Theorem 3 says no algorithm works when `Q ≤ max(1, 2P − C)`; Theorem 4
//! says Fig. 7 works when `Q ≥ max(2c, c(2P + 1 − C))`. Between the two
//! lies the constant factor `c`. This module provides the adversary
//! schedules that locate Fig. 7's *empirical* threshold, and [`probe`],
//! which runs them: the smallest `Q` at which no adversary run fails the
//! probe's oracle is the data series behind the regenerated Table 1.

use std::time::Duration;

use hybrid_wf::multi::consensus::{decide_machine, LocalMode, MultiMem};
use hybrid_wf::multi::failures::{lemma3_bound_holds, summarize};
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

/// The Q axis of the Table 1 grid: every quantum probed at every (P, C).
/// The measured thresholds all sit well inside `1..=8`; 12 and 16 confirm
/// stability above the knee.
pub const TABLE1_QS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16];

/// Adversary seeds per Table 1 probe.
pub const TABLE1_SEEDS: u64 = 60;

/// The result of one [`probe`].
#[derive(Clone, Debug)]
pub struct Probe {
    /// The quantum probed.
    pub q: u32,
    /// Seeds run: all of them, or up to and including the first failing one.
    pub seeds_run: u64,
    /// The first seed whose run failed the oracle, if any.
    pub fail_seed: Option<u64>,
    /// Statements executed across the seeds run.
    pub steps: u64,
    /// Wall-clock time of the seeds run.
    pub wall: Duration,
}

impl Probe {
    /// Whether every seed passed.
    pub fn ok(&self) -> bool {
        self.fail_seed.is_none()
    }
}

/// The Table 1 probe: does Fig. 7 at `(p, c, m, v, q)` ([`fig7_scenario`],
/// modeled local elections) survive [`adversary_for_seed`] for every seed
/// in `0..seeds`? A run passes when all processes (a) finish and agree,
/// (b) satisfy the Lemma 3 access-failure bound, and (c) retain a
/// failure-free deciding level. Stops at the first failing seed.
pub fn probe(p: u32, c: u32, m: u32, v: u32, q: u32, seeds: u64) -> Probe {
    let scenario = fig7_scenario(p, c, m, v, q, LocalMode::Modeled);
    let mut out = Probe { q, seeds_run: 0, fail_seed: None, steps: 0, wall: Duration::ZERO };
    for seed in 0..seeds {
        let r = scenario.run(&mut *adversary_for_seed(seed));
        out.seeds_run += 1;
        out.steps += r.steps;
        out.wall += r.wall;
        let ok = r.agreed_output().is_some()
            && lemma3_bound_holds(r.mem())
            && !summarize(r.mem()).clean_levels.is_empty();
        if !ok {
            out.fail_seed = Some(seed);
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generous_quantum_never_violates() {
        assert!(probe(2, 2, 2, 1, 256, 15).ok());
        assert!(probe(2, 4, 2, 2, 256, 15).ok());
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
                let s = summarize(&k.mem);
                total += s.same + s.diff;
                max_run = max_run.max(s.same + s.diff);
                if !lemma3_bound_holds(&k.mem) {
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
}
