//! Native-backend execution grid: the data layer behind
//! `experiments --native`.
//!
//! The grid runs Fig. 3's statement-level program and the
//! backend-generic algorithms (`hybrid_wf::generic`) on **real OS
//! threads** through [`native::harness`], in both pacing modes
//! of [`native::backend::NativeBackend`], and cross-validates every run
//! with the simulator's own oracles (`hybrid_wf::oracle`):
//!
//! * **free** pacing — genuine hardware races under the commodity
//!   scheduler. Linearizability of the CAS-backed algorithms (the
//!   universal construction, the Fig. 5 C&S interface) is *gated*: a
//!   violation here is a bug, because hardware C&S has consensus number
//!   ∞. Fig. 3 agreement is *reported*: no commodity kernel promises the
//!   paper's quantum axiom, so disagreement is a measurement (see
//!   EXPERIMENTS.md, "Native execution"), classified like the fuzzer's
//!   [`Expect::Any`] cells.
//! * **lockstep** pacing — the deterministic statement scheduler. At
//!   `Q ≥ 8` (Theorem 1's bound) Fig. 3 agreement is gated; at `Q = 1`
//!   the grid pins seeds whose schedules are *known* to split the
//!   decision, so a quiet run means the lower-bound behaviour was lost
//!   (gated as [`Expect::Violation`], exactly like the fuzzer's
//!   sub-threshold cells).
//!
//! Unlike the simulator sweeps, the grid runs **serially**: each cell
//! spawns one OS thread per process, and nesting that under a worker pool
//! would oversubscribe the machine. Lockstep cells are deterministic per
//! seed (ops, steps, retries and violations are pure functions of the
//! seed), so they alone make up the committed `BENCH_native.json`. Free
//! cells are inherently racy: the host scheduler decides their step and
//! retry counts and their Fig. 3 verdicts, so they are gated on every run
//! but their rows go whole into the gitignored `.timing.json` sidecar.

use std::time::Duration;

use hybrid_wf::oracle::{CasRegisterSpec, QueueSpec};
use hybrid_wf::uni::consensus::MIN_QUANTUM;
use hybrid_wf::universal::CounterSpec;
use native::harness::{
    check_run_linearizable, counter_plans, fig3_agreement, queue_plans, run_cas, run_fig3,
    run_universal, Pacing,
};
use sched_sim::report::{wall_ms, Json, Kind};

use crate::fuzz::Expect;

/// The native workload families (see the module docs for what each gates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeFamily {
    /// Fig. 3 read/write consensus, one decide per process.
    Fig3,
    /// The universal construction applied to a fetch-and-add counter.
    Counter,
    /// The universal construction applied to a FIFO queue.
    Queue,
    /// The Fig. 5 object interface (C&S + Read) on the backend C&S cell,
    /// small enough for the linearizability oracle's DFS bound.
    Cas,
    /// The same C&S workload sized for contention, not oracle-checkable
    /// (the oracle's DFS bound is 63 operations); reports counts only.
    CasThroughput,
}

impl NativeFamily {
    /// The family's report name.
    pub fn name(self) -> &'static str {
        match self {
            NativeFamily::Fig3 => "fig3",
            NativeFamily::Counter => "universal_counter",
            NativeFamily::Queue => "universal_queue",
            NativeFamily::Cas => "cas",
            NativeFamily::CasThroughput => "cas_throughput",
        }
    }
}

/// One run of the native grid: a (family, pacing, threads, seed) cell.
#[derive(Clone, Debug)]
pub struct NativeCell {
    /// The workload family.
    pub family: NativeFamily,
    /// `"free"` or `"lockstep"` (see [`Pacing`]).
    pub pacing: &'static str,
    /// Thread count = process count (one OS thread per process).
    pub threads: usize,
    /// The lockstep quantum in counted statements; `0` in free mode.
    pub q: u32,
    /// The scheduler seed (lockstep) / workload seed (free).
    pub seed: u64,
    /// Which oracle checked the run: `"agreement"`, `"linearizable"`, or
    /// `"none"`.
    pub checked: &'static str,
    /// The paper's prediction for this cell, in the fuzzer's vocabulary.
    pub expect: Expect,
    /// Completed operations.
    pub ops: u64,
    /// Counted statements (cell accesses + direct steps).
    pub steps: u64,
    /// Failed C&S attempts / duplicate universal-log slots.
    pub retries: u64,
    /// Oracle violations observed (0 or 1 per cell).
    pub violations: u64,
    /// Wall-clock time of the threaded section (nondeterministic; split
    /// into the `.timing.json` sidecar on write).
    pub wall: Duration,
}

impl NativeCell {
    /// The cell's verdict against the paper's prediction, in the fuzzer's
    /// vocabulary: `clean`/`BUG` for [`Expect::Clean`] cells,
    /// `predicted`/`MISSING` for [`Expect::Violation`] cells,
    /// `observed`/`quiet` for [`Expect::Any`] cells. `BUG` and `MISSING`
    /// fail [`grid_ok`].
    pub fn verdict(&self) -> &'static str {
        self.expect.verdict(self.violations > 0)
    }
}

/// One grid configuration: a (family, pacing) row swept over its seeds.
struct CellCfg {
    family: NativeFamily,
    q: u32, // 0 = free
    threads: usize,
    per: usize,
    seeds: Vec<u64>,
    expect: Expect,
    checked: &'static str,
}

/// Fig. 3 lockstep seeds whose `Q = 1` schedules are known to split the
/// decision (found by `cargo run -p native --example lockstep_threshold`,
/// deterministic per seed). Pinning them makes the sub-threshold cells
/// [`Expect::Violation`]: a quiet run means the lower-bound behaviour —
/// not just a measurement — was lost.
pub const Q1_SPLIT_SEEDS: [(usize, [u64; 3]); 2] = [(3, [43, 55, 62]), (4, [3, 18, 35])];

/// The grid rows.
fn grid_cfgs() -> Vec<CellCfg> {
    let seeds: Vec<u64> = (0..6).collect();
    let mut cfgs = Vec::new();
    for threads in [2usize, 4, 8] {
        cfgs.push(CellCfg {
            family: NativeFamily::Fig3,
            q: 0,
            threads,
            per: 1,
            seeds: seeds.clone(),
            expect: Expect::Any,
            checked: "agreement",
        });
    }
    for threads in [2usize, 3, 4] {
        cfgs.push(CellCfg {
            family: NativeFamily::Fig3,
            q: MIN_QUANTUM,
            threads,
            per: 1,
            seeds: seeds.clone(),
            expect: Expect::Clean,
            checked: "agreement",
        });
    }
    for (threads, pinned) in Q1_SPLIT_SEEDS {
        cfgs.push(CellCfg {
            family: NativeFamily::Fig3,
            q: 1,
            threads,
            per: 1,
            seeds: pinned.to_vec(),
            expect: Expect::Violation,
            checked: "agreement",
        });
    }
    for q in [0, MIN_QUANTUM] {
        cfgs.push(CellCfg {
            family: NativeFamily::Counter,
            q,
            threads: 3,
            per: 4,
            seeds: seeds.clone(),
            expect: Expect::Clean,
            checked: "linearizable",
        });
    }
    cfgs.push(CellCfg {
        family: NativeFamily::Queue,
        q: 0,
        threads: 4,
        per: 3,
        seeds: seeds.clone(),
        expect: Expect::Clean,
        checked: "linearizable",
    });
    cfgs.push(CellCfg {
        family: NativeFamily::Cas,
        q: 0,
        threads: 4,
        per: 4,
        seeds,
        expect: Expect::Clean,
        checked: "linearizable",
    });
    cfgs.push(CellCfg {
        family: NativeFamily::CasThroughput,
        q: 0,
        threads: 8,
        per: 400,
        seeds: vec![0, 1],
        expect: Expect::Clean,
        checked: "none",
    });
    cfgs
}

/// Runs one cell and scores it against its oracle.
fn run_one(cfg: &CellCfg, seed: u64) -> NativeCell {
    let pacing = if cfg.q == 0 {
        Pacing::Free
    } else {
        Pacing::Lockstep { seed, quantum: cfg.q }
    };
    let n = cfg.threads;
    let (ops, steps, retries, violations, wall) = match cfg.family {
        NativeFamily::Fig3 => {
            let inputs: Vec<u64> = (0..n as u64).map(|i| 10 * (i + 1)).collect();
            let run = run_fig3(&inputs, pacing);
            let v = u64::from(fig3_agreement(&run).is_err());
            (run.records.len(), run.accesses, run.retries, v, run.wall)
        }
        NativeFamily::Counter => {
            let run = run_universal(CounterSpec, counter_plans(n, cfg.per, seed), pacing);
            let v = u64::from(check_run_linearizable(&CounterSpec, &run).is_err());
            (run.records.len(), run.accesses, run.retries, v, run.wall)
        }
        NativeFamily::Queue => {
            let run = run_universal(QueueSpec, queue_plans(n, cfg.per), pacing);
            let v = u64::from(check_run_linearizable(&QueueSpec, &run).is_err());
            (run.records.len(), run.accesses, run.retries, v, run.wall)
        }
        NativeFamily::Cas => {
            let run = run_cas(n, cfg.per, seed, pacing);
            let v =
                u64::from(check_run_linearizable(&CasRegisterSpec { init: 0 }, &run).is_err());
            (run.records.len(), run.accesses, run.retries, v, run.wall)
        }
        NativeFamily::CasThroughput => {
            let run = run_cas(n, cfg.per, seed, pacing);
            (run.records.len(), run.accesses, run.retries, 0, run.wall)
        }
    };
    NativeCell {
        family: cfg.family,
        pacing: if cfg.q == 0 { "free" } else { "lockstep" },
        threads: n,
        q: cfg.q,
        seed,
        checked: cfg.checked,
        expect: cfg.expect,
        ops: ops as u64,
        steps,
        retries,
        violations,
        wall,
    }
}

/// Runs the full native grid, serially (see the module docs for why there
/// is no `jobs` knob here).
pub fn run_grid() -> Vec<NativeCell> {
    let mut cells = Vec::new();
    for cfg in grid_cfgs() {
        for &seed in &cfg.seeds {
            cells.push(run_one(&cfg, seed));
        }
    }
    cells
}

/// `true` when every row matched the paper's prediction: no `BUG`
/// (violation where the backend must be clean) and no `MISSING` (quiet
/// run at a pinned sub-threshold seed). The verdicts are the fuzzer's, so
/// this is [`crate::fuzz::grid_ok`].
pub fn grid_ok(rows: &[Json]) -> bool {
    crate::fuzz::grid_ok(rows)
}

/// The keys every `BENCH_native.json` row carries beyond
/// `report::CELL_SCHEMA`: the operation count, the oracle violation count
/// and the cell's verdict (see [`NativeCell::verdict`]).
pub const KEYS: &[(&str, Kind)] =
    &[("ops", Kind::Num), ("violations", Kind::Num), ("verdict", Kind::Str)];

/// Renders the grid as JSONL report lines — one `"native"` line per cell,
/// carrying `report::CELL_SCHEMA` plus [`KEYS`].
pub fn report_lines(cells: &[NativeCell]) -> Vec<Json> {
    cells
        .iter()
        .map(|c| {
            Json::obj([
                ("kind", Json::from("native")),
                (
                    "cell",
                    Json::obj([
                        ("family", Json::from(c.family.name())),
                        ("pacing", Json::from(c.pacing)),
                        ("threads", Json::from(c.threads as u64)),
                        ("q", Json::from(c.q)),
                        ("seed", Json::from(c.seed)),
                    ]),
                ),
                ("steps", Json::from(c.steps)),
                ("ops", Json::from(c.ops)),
                ("retries", Json::from(c.retries)),
                ("checked", Json::from(c.checked)),
                ("expect", Json::from(c.expect.name())),
                ("violations", Json::from(c.violations)),
                ("verdict", Json::from(c.verdict())),
                ("wall_ms", Json::from(wall_ms(c.wall))),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::report::{validate_cells, CELL_SCHEMA};

    #[test]
    fn smoke_grid_matches_predictions_and_validates() {
        let cells = run_grid();
        let rows = report_lines(&cells);
        assert!(grid_ok(&rows), "native grid violated a gated prediction");
        // The pinned sub-threshold cells actually fired.
        assert!(
            cells
                .iter()
                .filter(|c| c.q == 1)
                .all(|c| c.verdict() == "predicted"),
            "a pinned Q = 1 seed no longer splits the decision"
        );
        // Every Fig. 3 decide is exactly 8 counted statements (Theorem 1's
        // constant), on real threads in either pacing mode.
        for c in cells.iter().filter(|c| c.family == NativeFamily::Fig3) {
            assert_eq!(c.steps, 8 * c.threads as u64, "{c:?}");
        }
        let text: String = rows.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(validate_cells(&text, KEYS), Ok(cells.len()));
        assert_eq!(validate_cells(&text, CELL_SCHEMA), Ok(cells.len()));
    }

    #[test]
    fn lockstep_cells_are_deterministic() {
        let cfg = CellCfg {
            family: NativeFamily::Counter,
            q: MIN_QUANTUM,
            threads: 3,
            per: 2,
            seeds: vec![],
            expect: Expect::Clean,
            checked: "linearizable",
        };
        let a = run_one(&cfg, 9);
        let b = run_one(&cfg, 9);
        assert_eq!((a.ops, a.steps, a.retries, a.violations), (b.ops, b.steps, b.retries, b.violations));
    }
}
