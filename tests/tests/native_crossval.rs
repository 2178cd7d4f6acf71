//! Native-backend cross-validation: Fig. 3's statement-level program and
//! the backend-generic algorithms on real OS threads, checked by the
//! simulator's own oracles.
//!
//! The split under test (see BACKENDS.md): `hybrid_wf::generic` is written
//! once against `wfmem::backend::MemBackend` and runs unchanged on the
//! simulator cells ([`wfmem::SimBackend`]) and on the cache-padded atomic
//! cells of the `native` crate. The native harness records every
//! operation in the simulator's `OpRecord` format, so one oracle
//! (`hybrid_wf::oracle`) judges both worlds:
//!
//! * lockstep pacing at `Q ≥ 8` must reproduce Theorem 1's agreement on
//!   real threads, and the pinned sub-threshold seeds
//!   ([`lowerbound::native::Q1_SPLIT_SEEDS`]) must keep splitting the
//!   decision — deterministically;
//! * free pacing must keep every CAS-backed algorithm linearizable at any
//!   interleaving the hardware produces (C&S has consensus number ∞),
//!   while Fig. 3 agreement is only *validity*-checked (no commodity
//!   scheduler promises Axiom 2 — see EXPERIMENTS.md, "Native execution").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use hybrid_wf::generic::Universal;
use hybrid_wf::oracle::{check_linearizable, timed_ops};
use hybrid_wf::uni::consensus::MIN_QUANTUM;
use hybrid_wf::universal::CounterSpec;
use lowerbound::native::Q1_SPLIT_SEEDS;
use native::harness::{
    cas_run_ok, check_run_linearizable, counter_plans, counter_run_ok, fig3_agreement,
    queue_run_ok, run_fig3, run_universal, Pacing,
};
use sched_sim::ids::ProcessId;
use sched_sim::kernel::OpRecord;
use sched_sim::report::{validate_cells, Json, CELL_SCHEMA};
use wfmem::SimBackend;

fn fig3_inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 10 * (i + 1)).collect()
}

/// Theorem 1 on real threads: at the legal quantum, every deterministic
/// lockstep schedule agrees, across seeds and process counts.
#[test]
fn fig3_lockstep_agrees_at_legal_quantum() {
    for n in [2usize, 3, 4, 5] {
        let inputs = fig3_inputs(n);
        for seed in 0..16u64 {
            let run = run_fig3(&inputs, Pacing::Lockstep { seed, quantum: MIN_QUANTUM });
            fig3_agreement(&run)
                .unwrap_or_else(|outs| panic!("n={n} seed={seed}: split decision {outs:?}"));
        }
    }
}

/// CPU-burning background threads, one per available CPU, that spin
/// until dropped: they make the OS preempt the lockstep worker threads at
/// arbitrary points, so any wall-clock leak into a lockstep record shows.
struct CpuLoad {
    stop: Arc<AtomicBool>,
    spinners: Vec<thread::JoinHandle<()>>,
}

impl CpuLoad {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = thread::available_parallelism().map_or(1, |n| n.get());
        let spinners = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut x = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                    }
                })
            })
            .collect();
        CpuLoad { stop, spinners }
    }
}

impl Drop for CpuLoad {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for h in self.spinners.drain(..) {
            let _ = h.join();
        }
    }
}

/// The lower-bound half, pinned: at `Q = 1` the known seeds split the
/// decision — and do so deterministically, under CPU load: two runs
/// produce identical operation records (ticket stamps, pids, invocation
/// indices and outputs), while every decided value is still one that was
/// proposed (validity survives even when agreement falls).
#[test]
fn fig3_lockstep_q1_pinned_seeds_disagree_deterministically() {
    let _load = CpuLoad::start();
    for (n, seeds) in Q1_SPLIT_SEEDS {
        let inputs = fig3_inputs(n);
        for seed in seeds {
            let run = run_fig3(&inputs, Pacing::Lockstep { seed, quantum: 1 });
            let outs = match fig3_agreement(&run) {
                Ok(v) => panic!("n={n} seed={seed}: expected a split, got agreement on {v}"),
                Err(outs) => outs,
            };
            for &o in &outs {
                assert!(inputs.contains(&o), "n={n} seed={seed}: decided never-proposed {o}");
            }
            let again = run_fig3(&inputs, Pacing::Lockstep { seed, quantum: 1 });
            assert_eq!(
                again.records, run.records,
                "n={n} seed={seed}: lockstep records are not a function of the seed"
            );
        }
    }
}

/// Free pacing: Fig. 3 stays wait-free and valid at every thread count
/// (agreement is a measurement here, not an assertion).
#[test]
fn fig3_free_is_valid_across_thread_counts() {
    for n in [2usize, 4, 8] {
        let inputs = fig3_inputs(n);
        let run = run_fig3(&inputs, Pacing::Free);
        assert_eq!(run.records.len(), n, "n={n}: an operation never completed");
        for o in run.outputs() {
            assert!(inputs.contains(&o), "n={n}: decided never-proposed {o}");
        }
    }
}

/// The universal construction is CAS-backed, so it must stay linearizable
/// on the native backend under *any* pacing — free hardware races,
/// lockstep at the legal quantum, and even lockstep at `Q = 1`, where the
/// read/write algorithm above fails: hardware C&S has consensus number ∞,
/// so Theorem 1's quantum hypothesis is simply not needed.
#[test]
fn universal_counter_linearizable_under_every_pacing() {
    for n in [2usize, 3, 4] {
        for seed in 0..3u64 {
            counter_run_ok(n, 3, seed, Pacing::Free)
                .unwrap_or_else(|e| panic!("free n={n} seed={seed}: {e}"));
        }
    }
    for quantum in [1u32, MIN_QUANTUM] {
        for seed in 0..3u64 {
            counter_run_ok(3, 3, seed, Pacing::Lockstep { seed, quantum })
                .unwrap_or_else(|e| panic!("lockstep q={quantum} seed={seed}: {e}"));
        }
    }
}

/// Queue and C&S-register histories from free-running threads pass the
/// same linearizability oracle the simulator's fuzzer uses.
#[test]
fn queue_and_cas_linearizable_free() {
    for n in [2usize, 4] {
        queue_run_ok(n, 3, Pacing::Free).unwrap_or_else(|e| panic!("queue n={n}: {e}"));
        for seed in 0..3u64 {
            cas_run_ok(n, 4, seed, Pacing::Free)
                .unwrap_or_else(|e| panic!("cas n={n} seed={seed}: {e}"));
        }
    }
}

/// Backend cross-validation proper: the *same* workload plans run on the
/// native backend (threaded, free pacing) and on the simulator backend
/// (sequential), and one oracle judges both histories. The sim run also
/// pins the step accounting: every cell access is exactly one counted
/// statement, on either backend.
#[test]
fn same_workload_same_oracle_on_both_backends() {
    let n = 3usize;
    let per = 3usize;
    let plans = counter_plans(n, per, 42);

    // Native: real threads, real atomics.
    let native_run = run_universal(CounterSpec, plans.clone(), Pacing::Free);
    check_run_linearizable(&CounterSpec, &native_run).expect("native history linearizable");
    assert_eq!(native_run.records.len(), n * per);

    // Simulator backend: the identical generic code, applied sequentially.
    let b = SimBackend::new();
    let obj = Universal::<SimBackend, CounterSpec>::new(&b, CounterSpec, n as u32, per as u32);
    let mut records = Vec::new();
    let mut clock = 0u64;
    for (pid, ops) in plans.iter().enumerate() {
        let mut s = obj.session(pid as u32);
        for (inv, op) in ops.iter().enumerate() {
            let start = clock;
            let out = obj.apply(&mut s, op);
            clock += 2;
            records.push(OpRecord {
                start,
                t: start + 1,
                pid: ProcessId(pid as u32),
                inv_index: inv as u32,
                output: Some(out),
            });
        }
    }
    assert!(b.steps() > 0, "sim backend counted no statements");
    let ops = timed_ops(&records, |pid, inv| plans[pid as usize][inv as usize]);
    check_linearizable(&CounterSpec, &ops).expect("sim history linearizable");

    // Sequential application is one total order, so the last fetch-and-add
    // returns the sum of everything before it: the spec-level ground truth
    // both backends' histories must be consistent with.
    let total: u64 = plans.iter().flatten().sum();
    let last = records.last().and_then(|r| r.output).expect("sequential run completed");
    let last_addend = *plans[n - 1].last().expect("nonempty plan");
    assert_eq!(last + last_addend, total);
}

/// The committed `BENCH_native.json` artifact validates against its schema,
/// holds only lockstep rows (pure functions of their seeds; free-mode rows
/// live in the gitignored sidecar) and carries no gated failure: every
/// cell's verdict matches the paper's prediction for its backend and
/// pacing.
#[test]
fn committed_native_artifact_is_schema_valid_and_gate_clean() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_native.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_native.json exists");
    let schema = [CELL_SCHEMA, lowerbound::native::KEYS].concat();
    let cells = validate_cells(&text, &schema).expect("artifact carries the native grid's keys");
    assert!(cells > 0);
    let rows: Vec<Json> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| Json::parse(l).expect("artifact line parses"))
        .collect();
    for row in &rows {
        assert_eq!(
            row.get("cell").and_then(|c| c.get("pacing")).and_then(Json::as_str),
            Some("lockstep"),
            "committed artifact carries a free-mode row: {row}"
        );
    }
    assert!(lowerbound::native::grid_ok(&rows), "committed artifact carries a gated failure");
    let predicted =
        rows.iter().filter(|r| r.get("verdict").and_then(Json::as_str) == Some("predicted")).count();
    // The pinned sub-threshold cells must be present and firing.
    assert!(predicted >= 6, "expected the pinned Q = 1 cells to be 'predicted'");
}
