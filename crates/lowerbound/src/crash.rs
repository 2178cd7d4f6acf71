//! The crash-and-restart grid behind `experiments --crash`: crash/recover
//! lifecycle plans as a first-class scenario axis.
//!
//! Each cell runs one algorithm family's fuzz scenario — Fig. 3 consensus,
//! the universal construction, Fig. 7 multiprocessor consensus, each the
//! [`engine`] at its *legal* quantum — with a deterministic crash plan
//! ([`run_crashed`](crate::fuzz::CaseEngine::run_crashed)): one victim
//! crashes mid-run, loses its partial invocation (local state rewinds to
//! the invocation's first statement;
//! shared-memory side effects of the partial run remain), and re-runs the
//! invocation from its copy-chain re-read after recovery. Schedules come
//! from a [`Noisy`] decider — a seeded-uniform base perturbed per step with
//! probability `noise_num / noise_den`, the noisy-scheduling model of
//! Aspnes — so every cell is a deterministic function of `(noise, seed)`
//! and the grid keeps the standard bit-identical parallel == serial
//! guarantee under [`run_cells`].
//!
//! The oracles *are* the fuzz engines' recovery-safe oracles (see
//! [`CaseEngine`](crate::fuzz::CaseEngine)), followed by two crash-only
//! checks:
//!
//! * **recovery-safe** — every process finishes; the recovered process
//!   decides the same valid value as everyone else (Fig. 3 / Fig. 7); for
//!   the universal construction the replica replay and the linearizability
//!   oracle check that no crashed-and-restarted operation was applied
//!   twice;
//! * **exactly-once** — an operation that crashed mid-invocation must
//!   either never take effect or take effect exactly once: every process's
//!   completed-operation count must equal its plan ([`CrashPlan::ops`]);
//! * **crash-plan liveness** — the planned crash must actually have fired
//!   (`crashes ≥ 1`), so a silently impotent plan cannot masquerade as a
//!   passing cell.
//!
//! The engines' schedule-model checks are deliberately *not* applied: a
//! victim re-runs the statements of its crashed invocation, so its own-step
//! count exceeds the per-invocation bound, and a crash closes its window
//! early ([`sched_sim::obs::WindowCloseReason::Crashed`]), outside Lemma
//! 2/3's expiry/boundary window model.
//!
//! The grid's last line is a **churn** service cell: the counter service of
//! [`crate::service`] with a [`ChurnSpec`] — a fraction of each shard's
//! workers (standing in for their multiplexed client slices) crashing and
//! reconnecting on phase-staggered cycles — which must still serve every
//! planned request exactly once.
//!
//! Artifact lines carry `report::CELL_SCHEMA` plus [`KEYS`] and land in
//! `BENCH_crash.json`; wall times ride along only until the artifact
//! writer splits them into the `.timing.json` sidecar.

use hybrid_wf::universal::CounterSpec;
use sched_sim::decision::{Noisy, SeededRandom};
use sched_sim::ids::ProcessId;
use sched_sim::report::{wall_ms, Json, Kind};
use sched_sim::service::{Arrival, ChurnSpec, Service, ServiceSpec};
use sched_sim::sweep::run_cells;

use crate::fuzz::{engine, CaseRun, Family};

/// The noise levels of the grid, as `num / den` per-step perturbation
/// probabilities: off (the pure seeded-uniform base), light, and heavy.
pub const NOISE_LEVELS: [(u32, u32); 3] = [(0, 8), (1, 8), (3, 8)];

/// The families with a crash cell: the central wait-free constructions.
/// (The baselines are out of scope: a crashed lock holder livelocks a TAS
/// lock by design — that is the motivating pathology, not a grid cell.)
pub const CRASH_FAMILIES: [Family; 3] = [Family::Fig3, Family::Universal, Family::Fig7];

/// One crash-grid cell: a family at its legal quantum under a noisy
/// schedule, with the family's deterministic crash plan derived from the
/// seed (victim and crash instant rotate with it).
#[derive(Clone, Copy, Debug)]
pub struct CrashCell {
    /// The algorithm family under test.
    pub family: Family,
    /// Per-step noise probability numerator.
    pub noise_num: u32,
    /// Per-step noise probability denominator.
    pub noise_den: u32,
    /// Seed for the base decider, the noise stream, and the crash plan.
    pub seed: u64,
}

/// The crash plan a cell derives from its seed: who crashes, when, and
/// when it comes back. Crash instants are chosen early enough that the
/// victim cannot have finished (its own-step count is bounded by the
/// global clock), so the plan always fires.
#[derive(Clone, Copy, Debug)]
pub struct CrashPlan {
    /// The victim process.
    pub victim: ProcessId,
    /// Global statement time of the crash.
    pub crash_t: u64,
    /// Global statement time of the recovery.
    pub recover_t: u64,
    /// Operations every process of the scenario plans: the exactly-once
    /// oracle's expected per-process completion count.
    pub ops: u64,
}

impl CrashCell {
    /// The cell's crash plan. Victim and instant rotate with the seed so a
    /// handful of seeds covers every process and several window phases.
    pub fn plan(&self) -> CrashPlan {
        let (n_procs, ops, base_t, spread, down) = match self.family {
            // 3 procs, one 8-statement decide each: crash before t = 6 so
            // the victim cannot have executed its 8th own statement yet.
            Family::Fig3 => (3u64, 1u64, 3u64, 3u64, 32u64),
            // 3 procs × 2 multi-statement ops each, but the highest-
            // priority worker can finish both ops within ~8 statements —
            // so crash before t = 4, under the 4-statement floor of two
            // completed operations.
            Family::Universal => (3, 2, 1, 3, 64),
            // 9 procs, one decide each; decides run for hundreds of
            // statements.
            Family::Fig7 => (9, 1, 16, 32, 256),
            _ => unreachable!("not a crash-grid family"),
        };
        let crash_t = base_t + self.seed % spread;
        CrashPlan {
            victim: ProcessId((self.seed % n_procs) as u32),
            crash_t,
            recover_t: crash_t + down,
            ops,
        }
    }
}

/// The full grid: every crash family × noise level × seed. `smoke` keeps
/// two noise levels and two seeds for the debug-mode tests.
pub fn grid(smoke: bool) -> Vec<CrashCell> {
    let levels: &[(u32, u32)] = if smoke { &NOISE_LEVELS[..2] } else { &NOISE_LEVELS };
    let seeds: u64 = if smoke { 2 } else { 6 };
    let mut out = Vec::new();
    for family in CRASH_FAMILIES {
        for &(noise_num, noise_den) in levels {
            for seed in 0..seeds {
                out.push(CrashCell { family, noise_num, noise_den, seed });
            }
        }
    }
    out
}

/// The cell's decider: seeded-uniform base under per-step noise. The noise
/// stream is seeded from the cell seed (decorrelated by a splitmix
/// constant), so the whole schedule is a deterministic function of the
/// cell.
fn noisy(cell: &CrashCell) -> Noisy<SeededRandom> {
    Noisy::new(
        SeededRandom::new(cell.seed),
        cell.noise_num,
        cell.noise_den,
        cell.seed ^ 0x9e37_79b9_7f4a_7c15,
    )
}

/// Runs one cell: the family's [`engine`] at its legal quantum, under the
/// cell's noisy schedule and crash plan.
pub fn run_cell(cell: &CrashCell) -> CaseRun {
    engine(cell.family, cell.family.legal_q()).run_crashed(&cell.plan(), &mut noisy(cell))
}

/// The churn service configuration: the counter service under continuous
/// worker crash/reconnect cycles. `smoke` keeps the scale of the
/// debug-mode tests.
fn churn_config(smoke: bool) -> (ServiceSpec, u64) {
    let (shards, clients, workers, requests) =
        if smoke { (2u32, 32u64, 2u32, 1u64 << 10) } else { (4, 256, 4, 1 << 14) };
    let churn = if smoke {
        ChurnSpec { victims: 1, period: 96, down: 48, cycles: 6 }
    } else {
        ChurnSpec { victims: 2, period: 512, down: 256, cycles: 16 }
    };
    let spec = ServiceSpec::new(shards, clients, requests)
        .workers_per_shard(workers)
        .arrival(Arrival::ClosedLoop { think: 8 })
        .churn(churn);
    (spec, requests)
}

/// Runs the churn service cell and renders its artifact line: the counter
/// service must finish, serve every planned request exactly once, see at
/// least one crash, and recover every crash it saw.
pub fn churn_line(jobs: usize, smoke: bool) -> Json {
    let (spec, requests) = churn_config(smoke);
    let cell = Json::obj([
        ("object", Json::from("counter")),
        ("shards", Json::from(spec.shards)),
        ("clients", Json::from(spec.clients)),
        ("workers", Json::from(spec.workers_per_shard)),
        ("requests", Json::from(requests)),
        ("victims", Json::from(spec.churn.expect("churn configured").victims)),
        ("period", Json::from(spec.churn.expect("churn configured").period)),
        ("down", Json::from(spec.churn.expect("churn configured").down)),
        ("cycles", Json::from(spec.churn.expect("churn configured").cycles)),
    ]);
    let gen = crate::service::counter_gen();
    let report = Service::new(spec, move |plan| {
        crate::service::shard_scenario(CounterSpec, &gen, plan)
    })
    .run(jobs);
    let mut violations = 0u64;
    if !report.all_finished() {
        violations += 1;
    }
    if report.requests() != requests {
        violations += 1;
    }
    if report.crashes() == 0 {
        violations += 1;
    }
    if report.crashes() != report.recoveries() {
        violations += 1;
    }
    Json::obj([
        ("kind", Json::from("crash_churn")),
        ("cell", cell),
        ("steps", Json::from(report.steps())),
        ("requests_served", Json::from(report.requests())),
        ("crashes", Json::from(report.crashes())),
        ("recoveries", Json::from(report.recoveries())),
        ("violations", Json::from(violations)),
        ("ok", Json::Bool(violations == 0)),
    ])
}

/// The keys every `BENCH_crash.json` row carries beyond
/// `report::CELL_SCHEMA`: the lifecycle counts, the recovery-safe oracle's
/// violation count, and the cell verdict (`ok`: agreement, validity and
/// exactly-once linearization all held across every crash and recovery
/// boundary).
pub const KEYS: &[(&str, Kind)] = &[
    ("crashes", Kind::Num),
    ("recoveries", Kind::Num),
    ("violations", Kind::Num),
    ("ok", Kind::Bool),
];

/// Renders one cell's artifact line (`report::CELL_SCHEMA` plus [`KEYS`]).
pub fn cell_line(cell: &CrashCell, rep: &CaseRun) -> Json {
    let plan = cell.plan();
    let mut obj = vec![
        ("kind", Json::from("crash")),
        (
            "cell",
            Json::obj([
                ("family", Json::from(cell.family.name())),
                ("q", Json::from(cell.family.legal_q())),
                ("noise", Json::from(format!("{}/{}", cell.noise_num, cell.noise_den))),
                ("seed", Json::from(cell.seed)),
                ("victim", Json::from(u64::from(plan.victim.0))),
                ("crash_t", Json::from(plan.crash_t)),
                ("recover_t", Json::from(plan.recover_t)),
            ]),
        ),
        ("steps", Json::from(rep.steps)),
        ("wall_ms", Json::from(wall_ms(rep.wall))),
        ("crashes", Json::from(rep.crashes)),
        ("recoveries", Json::from(rep.recoveries)),
        ("violations", Json::from(u64::from(rep.violation.is_some()))),
        ("ok", Json::Bool(rep.violation.is_none())),
    ];
    if let Some(v) = &rep.violation {
        obj.push(("violation", Json::from(v.as_str())));
    }
    Json::obj(obj)
}

/// Runs the whole grid over `jobs` sweep workers — bit-identical for any
/// `jobs` value — and appends the churn service cell. The returned lines
/// are the body of `BENCH_crash.json`.
pub fn run_grid(jobs: usize, smoke: bool) -> Vec<Json> {
    let cells = grid(smoke);
    let reports = run_cells(&cells, jobs, |_, cell| run_cell(cell));
    let mut lines: Vec<Json> =
        cells.iter().zip(&reports).map(|(c, r)| cell_line(c, r)).collect();
    lines.push(churn_line(jobs, smoke));
    lines
}

/// Whether every grid line passed its oracle.
pub fn grid_ok(lines: &[Json]) -> bool {
    lines.iter().all(|l| l.get("ok") == Some(&Json::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::report::split_timing;

    /// A seeded Fig. 3 run with one crash-and-restart still satisfies
    /// agreement, and the recovered process's operation is linearized
    /// exactly once (one completed op per process, no duplicate).
    #[test]
    fn fig3_crash_restart_agrees_and_completes_exactly_once() {
        let cell = CrashCell { family: Family::Fig3, noise_num: 0, noise_den: 8, seed: 0 };
        let plan = cell.plan();
        let eng = engine(Family::Fig3, Family::Fig3.legal_q());
        let run = eng.run_crashed(&plan, &mut noisy(&cell));
        assert!(run.all_finished, "crashed run must finish after recovery");
        assert_eq!(run.crashes, 1, "the planned crash fires exactly once");
        assert_eq!(run.recoveries, 1);
        // `run_crashed` checks agreement and validity, then exactly-once:
        // a clean verdict means both held.
        assert_eq!(run.violation, None, "agreement must survive the restart");
        // Exactly-once: the victim's decide completed once, not zero or
        // two times, and so did everyone else's — an over-planned run
        // reports the completion counts it saw.
        let over = eng.run_crashed(&CrashPlan { ops: 2, ..plan }, &mut noisy(&cell));
        assert_eq!(
            over.violation.as_deref(),
            Some("exactly-once violated: completed ops per process [1, 1, 1], planned 2 each"),
            "each decide is linearized exactly once"
        );
    }

    /// A crash plan whose crash instant lies past the end of the run never
    /// fires, and the cell reports that instead of passing.
    #[test]
    fn crash_plan_that_never_fires_is_reported() {
        let cell = CrashCell { family: Family::Fig3, noise_num: 0, noise_den: 8, seed: 0 };
        let plan = CrashPlan { crash_t: 1_000_000, recover_t: 1_000_032, ..cell.plan() };
        let eng = engine(Family::Fig3, Family::Fig3.legal_q());
        let run = eng.run_crashed(&plan, &mut noisy(&cell));
        assert!(run.all_finished);
        assert_eq!(run.crashes, 0);
        assert_eq!(run.violation.as_deref(), Some("crash plan never fired"));
    }

    /// Crash runs skip the schedule-model checks: a Fig. 3 victim that
    /// re-runs its crashed decide takes more than the 8 own steps per
    /// invocation the fuzz oracle allows a crash-free run, and the cell
    /// still passes.
    #[test]
    fn crash_rerun_is_exempt_from_the_own_steps_bound() {
        let cell = CrashCell { family: Family::Fig3, noise_num: 0, noise_den: 8, seed: 1 };
        let run = run_cell(&cell);
        assert!(run.steps > 3 * 8, "the victim re-ran statements ({} steps)", run.steps);
        assert_eq!(run.violation, None);
        assert_eq!(run.crashes, 1);
    }

    /// Every crash cell of the smoke grid passes its recovery-safe oracle,
    /// the churn cell survives, and the grid is bit-identical between
    /// serial and parallel runs.
    #[test]
    fn smoke_grid_is_clean_and_deterministic() {
        let serial = run_grid(1, true);
        assert_eq!(serial.len(), grid(true).len() + 1);
        assert!(grid_ok(&serial));
        for line in &serial {
            assert!(line.get("crashes").and_then(Json::as_u64).unwrap() >= 1, "{line}");
        }
        let canonical =
            |ls: &[Json]| ls.iter().map(|l| split_timing(l).0.to_string()).collect::<Vec<_>>();
        let parallel = run_grid(2, true);
        assert_eq!(canonical(&serial), canonical(&parallel));
    }

    /// A universal-construction crash mid-operation is not applied twice:
    /// the replica replay matches the planned total and the history stays
    /// linearizable — across every smoke noise level.
    #[test]
    fn universal_crash_is_exactly_once_under_noise() {
        for &(num, den) in &NOISE_LEVELS {
            for seed in 0..2 {
                let cell =
                    CrashCell { family: Family::Universal, noise_num: num, noise_den: den, seed };
                let rep = run_cell(&cell);
                assert!(rep.violation.is_none(), "noise {num}/{den} seed {seed}: {rep:?}");
                assert!(rep.crashes >= 1);
            }
        }
    }
}
