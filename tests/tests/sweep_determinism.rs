//! The sweep engine's core guarantee, pinned across crates: the same grid
//! run with 1 worker and with 8 workers produces **identical merged
//! results** — outputs, scheduler counters, algorithm counters, statement
//! counts, verdicts — cell for cell. (Wall time is metadata and excluded;
//! see `sched_sim::scenario::RunResult::wall`.)
//!
//! This is exactly what lets `experiments --table1 --jobs N` publish the
//! same `BENCH_table1.json` no matter the machine's core count.

use hybrid_wf::multi::consensus::LocalMode;
use hybrid_wf::multi::failures::{lemma3_bound_holds, summarize};
use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
use hybrid_wf::universal::{op_machine, CounterSpec, UniversalMem};
use lowerbound::adversary::{adversary_for_seed, fig7_scenario};
use sched_sim::obs::{ObsCounters, ObsEvent, Trace};
use sched_sim::sweep::{cross, run_cells};
use sched_sim::{ProcessorId, Priority, Scenario, SystemSpec};

/// Everything a Fig. 7 adversary cell produces that determinism covers.
#[derive(Debug, PartialEq)]
struct Fig7Cell {
    q: u32,
    seed: u64,
    outputs: Vec<Option<u64>>,
    counters: ObsCounters,
    steps: u64,
    access_failures: u32,
    lemma3: bool,
    finished: bool,
}

fn fig7_cell(q: u32, seed: u64) -> Fig7Cell {
    let s = fig7_scenario(2, 2, 2, 1, q, LocalMode::Modeled);
    let r = s.run(&mut *adversary_for_seed(seed));
    let sm = summarize(r.mem());
    Fig7Cell {
        q,
        seed,
        outputs: r.outputs.clone(),
        counters: r.counters,
        steps: r.steps,
        access_failures: sm.same + sm.diff,
        lemma3: lemma3_bound_holds(r.mem()),
        finished: r.all_finished,
    }
}

/// The adversarial Fig. 7 grid — the cell type behind Table 1 — merges
/// bit-identically at `jobs = 1` and `jobs = 8`, across multiple seeds
/// and quanta, counters included.
#[test]
fn fig7_grid_parallel_equals_serial() {
    let grid = cross(&[1u32, 4, 16], &[0u64, 1, 2, 3, 4, 5]);
    let serial = run_cells(&grid, 1, |_, &(q, seed)| fig7_cell(q, seed));
    let parallel = run_cells(&grid, 8, |_, &(q, seed)| fig7_cell(q, seed));
    assert_eq!(serial.len(), grid.len());
    assert_eq!(serial, parallel);
    // The grid is not trivially uniform: different seeds really do produce
    // different schedules (otherwise this test proves nothing).
    assert!(
        serial.windows(2).any(|w| w[0].counters != w[1].counters),
        "expected schedule diversity across the grid"
    );
}

/// Algorithm-level counters (helping, retries — read from the final
/// memory) are part of the determinism contract too: a universal-
/// construction workload swept in parallel reports the identical
/// `AlgCounters` per cell.
#[test]
fn universal_counter_sweep_identical_alg_counters() {
    fn cell(n: u32, seed: u64) -> (String, Vec<Option<u64>>, ObsCounters, u64) {
        let per = 3u32;
        let mut s = Scenario::new(
            UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
            SystemSpec::hybrid(8).with_adversarial_alignment(),
        )
        .step_budget(2_000_000);
        for pid in 0..n {
            s.add_process(
                ProcessorId(0),
                Priority(1 + pid % 2),
                Box::new(op_machine(CounterSpec, pid, n, vec![1; per as usize])),
            );
        }
        let r = s.run_seeded(seed);
        assert!(r.all_finished, "n={n} seed={seed}");
        (r.mem().counters.to_string(), r.outputs.clone(), r.counters, r.steps)
    }

    let grid = cross(&[2u32, 3, 4], &[7u64, 8]);
    for jobs in [1usize, 8] {
        let got = run_cells(&grid, jobs, |_, &(n, seed)| cell(n, seed));
        let reference = run_cells(&grid, 1, |_, &(n, seed)| cell(n, seed));
        assert_eq!(got, reference, "jobs={jobs}");
    }
}

/// A seeded Fig. 3 consensus run reproduces its observability trace
/// **byte for byte** against a golden file captured at the parent commit
/// (before the interned-label / copy-on-write history rework of PR 3).
///
/// This pins two things at once: that seeded runs stay deterministic
/// across refactors, and that interning statement labels changed nothing
/// about the serialized trace — `Sym` resolves back to the same strings
/// the old `String`-carrying events produced.
#[test]
fn fig3_seeded_trace_is_byte_identical_to_golden() {
    const GOLDEN: &str = include_str!("../golden/fig3_seed42_trace.txt");

    let mut s = Scenario::new(
        UniConsensusMem::default(),
        SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
    )
    .with_obs()
    .step_budget(10_000);
    s.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(1)));
    s.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(2)));
    let mut r = s.run_seeded(42);
    assert!(r.all_finished);

    let trace = r.take_trace().expect("obs was attached");
    assert!(trace.events.iter().any(|e| matches!(e, ObsEvent::Stmt { .. })), "empty capture");
    let text = trace.to_text();
    assert_eq!(text, GOLDEN, "seeded Fig. 3 trace diverged from the golden capture");

    // And the golden text round-trips through the parser back to the
    // in-memory trace, label resolution included.
    let reparsed = Trace::from_text(GOLDEN).expect("golden trace parses");
    assert_eq!(reparsed, trace);
}
