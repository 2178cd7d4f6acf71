//! The `table1` workload: the full Table 1 probe grid, as
//! `experiments --table1` runs it. Each (P, C) cell with P = 1..3 and
//! C = P..2P probes Q ∈ {1..8, 12, 16}; a probe runs
//! `fig7_scenario(p, c, 3, 1, q, Modeled)` under `adversary_for_seed` for 60
//! seeds and stops at the first seed whose run fails the oracle. The cells
//! fan out over `sweep::run_cells`.
//!
//! `--seed n` sets the adversary seed base to `60 n`; seed 0 is the grid's
//! own seed range, on which every cell's smallest passing Q must equal the
//! committed `BENCH_table1.json`.
//!
//! The traced run drives each probe with `Scenario::kernel`, `Kernel::run`
//! under a timing decider and the oracle calls, and must reproduce the
//! program's per-probe steps and verdicts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hybrid_wf::multi::consensus::{LocalMode, MultiMem};
use hybrid_wf::multi::failures::{lemma3_bound_holds, summarize};
use lowerbound::adversary::{adversary_for_seed, fig7_scenario};
use sched_sim::kernel::Kernel;
use sched_sim::scenario::{RunResult, Scenario};
use sched_sim::sweep::run_cells;

use crate::trace::{clock_overhead_ns, Span, TimedDecider};
use crate::{measure_for, median, peak_rss_mib, ratio, time_setup, Args, Outcome};

const QS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16];
const SEEDS: u64 = 60;
const M: u32 = 3;

/// The smallest passing Q of each (P, C) cell on seed base 0, as committed
/// in `BENCH_table1.json`.
const COMMITTED_MIN_Q: [((u32, u32), u32); 9] = [
    ((1, 1), 1),
    ((1, 2), 1),
    ((2, 2), 1),
    ((2, 3), 1),
    ((2, 4), 2),
    ((3, 3), 4),
    ((3, 4), 1),
    ((3, 5), 1),
    ((3, 6), 1),
];

fn cells() -> Vec<(u32, u32)> {
    (1..=3)
        .flat_map(|p| (p..=2 * p).map(move |c| (p, c)))
        .collect()
}

fn scenario(p: u32, c: u32, q: u32) -> Scenario<MultiMem> {
    fig7_scenario(p, c, M, 1, q, LocalMode::Modeled)
}

/// The oracle of `experiments --table1`: agreement, the Lemma 3
/// access-failure bound, and a retained deciding level.
fn run_ok(r: &RunResult<MultiMem>) -> bool {
    r.agreed_output().is_some()
        && lemma3_bound_holds(r.mem())
        && !summarize(r.mem()).clean_levels.is_empty()
}

/// One probe's deterministic outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Probe {
    q: u32,
    ok: bool,
    seeds_run: u64,
    steps: u64,
    unfinished: u64,
}

fn probe(p: u32, c: u32, q: u32, base: u64) -> Probe {
    let s = scenario(p, c, q);
    let mut pr = Probe {
        q,
        ok: true,
        seeds_run: 0,
        steps: 0,
        unfinished: 0,
    };
    for seed in base..base + SEEDS {
        let r = s.run(&mut *adversary_for_seed(seed));
        pr.seeds_run += 1;
        pr.steps += r.steps;
        pr.unfinished += u64::from(!r.all_finished);
        if !run_ok(&r) {
            pr.ok = false;
            break;
        }
    }
    pr
}

/// Every cell's probes; a probe that panicked is `None`.
type Grid = Vec<Vec<Option<Probe>>>;

fn grid(jobs: usize, base: u64) -> (Grid, Duration) {
    let t = Instant::now();
    let g = run_cells(&cells(), jobs, |_, &(p, c)| {
        QS.iter()
            .map(|&q| catch_unwind(AssertUnwindSafe(|| probe(p, c, q, base))).ok())
            .collect()
    });
    (g, t.elapsed())
}

/// (adversary runs, failures): unfinished runs, panicked probes and, on
/// seed base 0, cells whose smallest passing Q moved off the committed one.
fn score(g: &Grid, base: u64) -> (u64, u64) {
    let (mut runs, mut failed) = (0, 0);
    for (&(p, c), probes) in cells().iter().zip(g) {
        for pr in probes {
            match pr {
                Some(pr) => {
                    runs += pr.seeds_run;
                    failed += pr.unfinished;
                }
                None => {
                    runs += 1;
                    failed += 1;
                }
            }
        }
        if base == 0 {
            let min_q = probes.iter().flatten().find(|pr| pr.ok).map(|pr| pr.q);
            let committed = COMMITTED_MIN_Q
                .iter()
                .find(|(pc, _)| *pc == (p, c))
                .map(|&(_, q)| q);
            if min_q != committed {
                eprintln!("perfbench: table1 ({p}, {c}): smallest passing Q {min_q:?} != committed {committed:?}");
                failed += 1;
            }
        }
    }
    (runs, failed)
}

/// Every probe's scenario and a kernel of each: the workload's set-up.
fn build_all() -> Vec<Kernel<MultiMem>> {
    cells()
        .iter()
        .flat_map(|&(p, c)| QS.iter().map(move |&q| scenario(p, c, q).kernel()))
        .collect()
}

fn total_steps(g: &Grid) -> u64 {
    g.iter().flatten().flatten().map(|pr| pr.steps).sum()
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let base = args.seed.wrapping_mul(SEEDS);
    if args.trace {
        traced(&mut out, base);
        return out;
    }
    let mut setups = vec![time_setup(1, build_all)];
    let (mut par, mut ser) = (Vec::new(), Vec::new());
    let mut steps_per_run = 0.0;
    measure_for(args.seconds, || {
        setups.push(time_setup(1, build_all));
        let (g2, w2) = grid(2, base);
        let (g1, w1) = grid(1, base);
        for g in [&g2, &g1] {
            let (runs, failed) = score(g, base);
            out.attempted += runs;
            out.failed += failed;
        }
        // The parallel grid must equal the serial one probe for probe.
        if g2 != g1 {
            out.failed += 1;
        }
        par.push(w2.as_secs_f64());
        ser.push(w1.as_secs_f64());
        let runs = score(&g2, base).0;
        steps_per_run = ratio(total_steps(&g2) as f64, runs as f64);
        println!(
            "table1: {runs} runs, {} steps; jobs 2 {:.3} s, jobs 1 {:.3} s",
            total_steps(&g2),
            w2.as_secs_f64(),
            w1.as_secs_f64()
        );
    });
    println!("grid_s {:.6} s ({} runs)", median(&par), par.len());
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", median(&par));
    out.metric("serial_wall_s", median(&ser));
    out.metric("steps_per_item", steps_per_run);
    out.metric("peak_rss_mib", peak_rss_mib());
    out
}

/// Per-layer spans of the traced grid.
#[derive(Default)]
struct Layers {
    build: Span,
    kernel: Span,
    run_ns: u64,
    choose: Span,
    oracle: Span,
}

/// `probe`, rebuilt with a span around each layer call.
fn traced_probe(l: &mut Layers, p: u32, c: u32, q: u32, base: u64) -> Probe {
    let t = Instant::now();
    let s = scenario(p, c, q);
    l.build.add(t.elapsed());
    let mut pr = Probe {
        q,
        ok: true,
        seeds_run: 0,
        steps: 0,
        unfinished: 0,
    };
    for seed in base..base + SEEDS {
        let t = Instant::now();
        let mut k = s.kernel();
        l.kernel.add(t.elapsed());

        let mut adversary = adversary_for_seed(seed);
        let mut d = TimedDecider::new(&mut *adversary);
        let t = Instant::now();
        let steps = k.run(&mut d, s.budget());
        let wall = t.elapsed();
        l.run_ns += wall.as_nanos() as u64;
        l.choose.calls += d.span.calls;
        l.choose.ns += d.span.ns;

        let t = Instant::now();
        let r = RunResult::from_kernel(k, steps, wall);
        let ok = run_ok(&r);
        l.oracle.add(t.elapsed());

        pr.seeds_run += 1;
        pr.steps += steps;
        pr.unfinished += u64::from(!r.all_finished);
        if !ok {
            pr.ok = false;
            break;
        }
    }
    pr
}

fn traced(out: &mut Outcome, base: u64) {
    let clock_ns = clock_overhead_ns();
    let (program, w2) = grid(2, base);
    let (_, w1) = grid(1, base);
    let (runs, failed) = score(&program, base);
    out.attempted += runs;
    out.failed += failed;

    let mut l = Layers::default();
    let t = Instant::now();
    for (&(p, c), probes) in cells().iter().zip(&program) {
        for (&q, expected) in QS.iter().zip(probes) {
            let traced = traced_probe(&mut l, p, c, q, base);
            if Some(&traced) != expected.as_ref() {
                out.mismatch(format!(
                    "table1 ({p}, {c}, q {q}): traced {traced:?} != program {expected:?}"
                ));
            }
        }
    }
    let traced_wall = t.elapsed();
    let steps = total_steps(&program) as f64;
    let step_self = l.run_ns as f64 - l.choose.ns as f64 - l.choose.calls as f64 * clock_ns;
    out.metric("scenario.build.ns", l.build.mean_ns(clock_ns));
    out.metric("scenario.kernel.ns", l.kernel.mean_ns(clock_ns));
    out.metric("kernel.step.calls", steps);
    out.metric("kernel.step.ns", ratio(step_self, steps));
    out.metric("decision.choose.calls", l.choose.calls as f64);
    out.metric("decision.choose.ns", l.choose.mean_ns(clock_ns));
    out.metric("oracle.check.ns", l.oracle.mean_ns(clock_ns));
    out.metric("table1.runs", runs as f64);
    out.metric("table1.steps_per_run", ratio(steps, runs as f64));
    out.metric(
        "sweep.par_speedup",
        ratio(w1.as_secs_f64(), w2.as_secs_f64()),
    );
    out.metric("kernel.steps_per_s", ratio(steps, w2.as_secs_f64()));
    out.metric(
        "trace.overhead_s",
        traced_wall.as_secs_f64() - w1.as_secs_f64(),
    );
    println!(
        "table1: jobs 2 {:.3} s, jobs 1 {:.3} s, traced {:.3} s",
        w2.as_secs_f64(),
        w1.as_secs_f64(),
        traced_wall.as_secs_f64()
    );
}
