//! Preemption-maximizing adversaries and the Table 1 probe against the
//! Fig. 7 algorithm.
//!
//! Theorem 3 says no algorithm works when `Q ≤ max(1, 2P − C)`; Theorem 4
//! says Fig. 7 works when `Q ≥ max(2c, c(2P + 1 − C))`. Between the two
//! lies the constant factor `c`. This module provides the adversary
//! schedules that locate Fig. 7's *empirical* threshold, and [`probe`],
//! which runs them: the smallest `Q` at which no adversary run fails the
//! probe's oracle is the data series behind the regenerated Table 1,
//! which [`table1_rows`] prints and returns as artifact rows.

use std::time::Duration;

use hybrid_wf::multi::consensus::{decide_machine, LocalMode, MultiMem};
use hybrid_wf::multi::failures::{lemma3_bound_holds, summarize};
use hybrid_wf::multi::ports::PortLayout;
use hybrid_wf::Val;
use sched_sim::decision::{Decider, SeededRandom};
use sched_sim::fuzz::PreemptionStorm;
use sched_sim::ids::{ProcessorId, Priority};
use sched_sim::kernel::SystemSpec;
use sched_sim::report::{wall_ms, Json};
use sched_sim::scenario::Scenario;
use sched_sim::sweep::run_cells;

use crate::fig6;

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

/// The standard adversary pairing for seed sweeps: even seeds get the
/// holder-rotating [`PreemptionStorm`] (maximizes quantum preemptions), odd
/// seeds uniformly random [`SeededRandom`] (finds irregular placements the
/// rotator's strict alternation misses).
pub fn adversary_for_seed(seed: u64) -> Box<dyn Decider> {
    if seed.is_multiple_of(2) {
        Box::new(PreemptionStorm::new(seed))
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

/// The headline: Table 1, swept over the (P, C) cells on `jobs` workers,
/// each cell [`probe`]d along the full [`TABLE1_QS`] axis. Prints the
/// table to stdout and returns the `BENCH_table1.json` rows: one per probe
/// and one summary per cell.
pub fn table1_rows(jobs: usize) -> Vec<Json> {
    println!("── Table 1: conditions for universality of a C-consensus object on P processors ──");
    println!("  paper upper bound: Q ≥ c(2P+1−C)·Tmax for P ≤ C ≤ 2P; Q ≥ c·Tmax for C ≥ 2P");
    println!("  paper lower bound: consensus impossible if Q ≤ max(1, 2P−C)");
    println!("  grid: Q ∈ {TABLE1_QS:?}, {TABLE1_SEEDS} adversary seeds per probe ({jobs} jobs)");
    println!();
    println!("   P  C | paper-upper-shape  measured-min-Q | paper-lower  Fig6-witness");
    println!("  ------+-----------------------------------+---------------------------");
    let mut pcs = Vec::new();
    for p in 1..=3u32 {
        for c in p..=2 * p {
            pcs.push((p, c));
        }
    }
    let probed: Vec<Vec<Probe>> = run_cells(&pcs, jobs, |_, &(p, c)| {
        TABLE1_QS.iter().map(|&q| probe(p, c, 3, 1, q, TABLE1_SEEDS)).collect()
    });
    let mut lines = Vec::new();
    for (&(p, c), probes) in pcs.iter().zip(&probed) {
        let min_q = probes.iter().find(|pr| pr.ok()).map(|pr| pr.q);
        let measured = min_q.map_or_else(|| format!(">{}", TABLE1_QS[9]), |q| q.to_string());
        let shape = if c >= 2 * p { "c".to_string() } else { format!("c·{}", 2 * p + 1 - c) };
        let lower = 1u32.max(2u32.saturating_mul(p).saturating_sub(c));
        let witness = if p >= 2 && c < 2 * p {
            if fig6::construct(p, c).contradiction() {
                "contradiction ✓"
            } else {
                "—"
            }
        } else if p == 1 {
            "n/a (P = 1)"
        } else {
            "n/a (C = 2P)"
        };
        println!("   {p}  {c} | {shape:>17}  {measured:>14} | {lower:>11}  {witness}");
        let mut cell_steps = 0u64;
        let mut cell_wall = Duration::ZERO;
        for pr in probes {
            cell_steps += pr.steps;
            cell_wall += pr.wall;
            let mut obj = vec![
                ("kind", Json::from("table1")),
                ("cell", Json::obj([
                    ("p", Json::from(p)),
                    ("c", Json::from(c)),
                    ("q", Json::from(pr.q)),
                ])),
                ("steps", Json::from(pr.steps)),
                ("wall_ms", Json::from(wall_ms(pr.wall))),
                ("verdict", Json::from(if pr.ok() { "ok" } else { "violation" })),
                ("seeds_run", Json::from(pr.seeds_run)),
            ];
            if let Some(seed) = pr.fail_seed {
                obj.push(("fail_seed", Json::from(seed)));
            }
            lines.push(Json::obj(obj));
        }
        lines.push(Json::obj([
            ("kind", Json::from("table1_summary")),
            ("cell", Json::obj([("p", Json::from(p)), ("c", Json::from(c))])),
            ("steps", Json::from(cell_steps)),
            ("wall_ms", Json::from(wall_ms(cell_wall))),
            ("measured_min_q", min_q.map_or(Json::Null, Json::from)),
            ("paper_lower", Json::from(lower)),
            ("paper_upper_shape", Json::from(shape.as_str())),
        ]));
    }
    println!();
    println!("  measured-min-Q: smallest probed Q at which {TABLE1_SEEDS} adversary runs (M = 3, V = 1)");
    println!("  all (a) agree, (b) satisfy the Lemma 3 access-failure bound, and");
    println!("  (c) retain a deciding level. The series tracks the paper's");
    println!("  c(2P+1−C) shape: it shrinks as C grows toward 2P.");
    println!();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::ids::ProcessId;

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
                let mut k = fig7_scenario(2, 2, 3, 1, q, LocalMode::Modeled).into_kernel();
                k.run(&mut *adversary_for_seed(seed), 50_000_000);
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
    fn preemption_storm_is_reproducible() {
        let run = |seed| {
            let mut k = fig7_scenario(2, 3, 2, 1, 8, LocalMode::Modeled).into_kernel();
            let mut d = PreemptionStorm::new(seed);
            k.run(&mut d, 1_000_000);
            (0..k.n_processes() as u32)
                .map(|p| k.output(ProcessId(p)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
    }
}
