//! The crash-and-restart grid behind `experiments --crash`: crash/recover
//! lifecycle plans as a first-class scenario axis.
//!
//! Each cell runs one algorithm family — Fig. 3 consensus, the universal
//! construction, Fig. 7 multiprocessor consensus — at its *legal* quantum
//! with a deterministic crash plan ([`Scenario::crash_at`] /
//! [`Scenario::recover_at`]): one victim crashes mid-run, loses its partial
//! invocation (local state rewinds to the invocation's first statement;
//! shared-memory side effects of the partial run remain), and re-runs the
//! invocation from its copy-chain re-read after recovery. Schedules come
//! from a [`Noisy`] decider — a seeded-uniform base perturbed per step with
//! probability `noise_num / noise_den`, the noisy-scheduling model of
//! Aspnes — so every cell is a deterministic function of `(noise, seed)`
//! and the grid keeps the standard bit-identical parallel == serial
//! guarantee under [`run_cells`].
//!
//! The oracles extend the fuzz oracles *across the recovery boundary*:
//!
//! * **agreement + validity** — the recovered process must decide the same
//!   valid value as everyone else (Fig. 3 / Fig. 7), crash or no crash;
//! * **exactly-once** — an operation that crashed mid-invocation must
//!   either never take effect or take effect exactly once: every process's
//!   completed-operation count must equal its plan, and for the universal
//!   construction the replica replay and the linearizability oracle check
//!   that no crashed-and-restarted operation was applied twice;
//! * **crash-plan liveness** — the planned crash must actually have fired
//!   (`crashes ≥ 1`), so a silently impotent plan cannot masquerade as a
//!   passing cell.
//!
//! Fig. 7's Lemma 2/3 access-failure accounting is deliberately *not*
//! checked here: a crash closes the victim's window early
//! ([`sched_sim::obs::WindowCloseReason::Crashed`]), outside the lemmas'
//! expiry/boundary window model.
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

use std::time::Duration;

use hybrid_wf::multi::consensus::LocalMode;
use hybrid_wf::oracle::{check_linearizable, timed_ops};
use hybrid_wf::uni::consensus::{decide_machine as fig3_decide, UniConsensusMem, MIN_QUANTUM};
use hybrid_wf::universal::{
    op_machine as universal_machine, replay_final_state, CounterSpec, UniversalMem,
};
use hybrid_wf::Val;
use sched_sim::decision::{Noisy, SeededRandom};
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::SystemSpec;
use sched_sim::report::{wall_ms, Json, Kind};
use sched_sim::scenario::{RunResult, Scenario};
use sched_sim::service::{Arrival, ChurnSpec, Service, ServiceSpec};
use sched_sim::sweep::run_cells;

use crate::fuzz::Family;

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
}

impl CrashCell {
    /// The cell's crash plan. Victim and instant rotate with the seed so a
    /// handful of seeds covers every process and several window phases.
    pub fn plan(&self) -> CrashPlan {
        let (n_procs, base_t, spread, down) = match self.family {
            // 3 procs, 8-statement decides: crash before t = 6 so the
            // victim cannot have executed its 8th own statement yet.
            Family::Fig3 => (3u64, 3u64, 3u64, 32u64),
            // 3 procs × 2 multi-statement ops each, but the highest-
            // priority worker can finish both ops within ~8 statements —
            // so crash before t = 4, under the 4-statement floor of two
            // completed operations.
            Family::Universal => (3, 1, 3, 64),
            // 9 procs, decides run for hundreds of statements.
            Family::Fig7 => (9, 16, 32, 256),
            _ => unreachable!("not a crash-grid family"),
        };
        let crash_t = base_t + self.seed % spread;
        CrashPlan {
            victim: ProcessId((self.seed % n_procs) as u32),
            crash_t,
            recover_t: crash_t + down,
        }
    }
}

/// Outcome of one crash-grid cell run.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Statements executed.
    pub steps: u64,
    /// Wall-clock time.
    pub wall: Duration,
    /// Crashes that actually fired.
    pub crashes: u64,
    /// Recoveries that actually fired.
    pub recoveries: u64,
    /// The first oracle violation, if any.
    pub violation: Option<String>,
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

/// Runs one cell under its noisy schedule and recovery-safe oracle.
pub fn run_cell(cell: &CrashCell) -> CrashReport {
    match cell.family {
        Family::Fig3 => run_fig3(cell),
        Family::Universal => run_universal(cell),
        Family::Fig7 => run_fig7(cell),
        _ => unreachable!("not a crash-grid family"),
    }
}

fn run_fig3(cell: &CrashCell) -> CrashReport {
    const INPUTS: [Val; 3] = [10, 20, 30];
    let plan = cell.plan();
    let mut s = Scenario::new(
        UniConsensusMem::default(),
        SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
    )
    .step_budget(400_000);
    for v in INPUTS {
        s.add_process(ProcessorId(0), Priority(1), Box::new(fig3_decide(v)));
    }
    let s = s.crash_at(plan.crash_t, plan.victim).recover_at(plan.recover_t, plan.victim);
    let r = s.run(&mut noisy(cell));
    let violation = require_finished(&r)
        .or_else(|| agreement_validity(&r, &INPUTS))
        .or_else(|| exactly_once(&r, &[1, 1, 1]))
        .or_else(|| crash_fired(&r));
    report(&r, violation)
}

fn run_universal(cell: &CrashCell) -> CrashReport {
    let n = 3u32;
    let per = 2u32;
    let plan = cell.plan();
    let plans: Vec<Vec<Val>> =
        (0..n).map(|pid| (1..=per).map(|i| Val::from(pid * per + i)).collect()).collect();
    let total: Val = plans.iter().flatten().sum();
    let mut s = Scenario::new(
        UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
        SystemSpec::hybrid(8).with_adversarial_alignment(),
    )
    .step_budget(1_000_000);
    for pid in 0..n {
        s.add_process(
            ProcessorId(0),
            Priority(1 + pid % 2),
            Box::new(universal_machine(CounterSpec, pid, n, plans[pid as usize].clone())),
        );
    }
    let s = s.crash_at(plan.crash_t, plan.victim).recover_at(plan.recover_t, plan.victim);
    let r = s.run(&mut noisy(cell));
    let violation = require_finished(&r)
        .or_else(|| exactly_once(&r, &[u64::from(per); 3]))
        .or_else(|| {
            // Exactly-once at the replica: a crashed-and-restarted op that
            // took effect twice would inflate the replayed final state.
            let replayed = replay_final_state(&CounterSpec, r.mem());
            (replayed != total)
                .then(|| format!("replayed counter {replayed} != expected {total}"))
        })
        .or_else(|| {
            let ops = timed_ops(r.ops(), |pid, inv| plans[pid as usize][inv as usize]);
            check_linearizable(&CounterSpec, &ops)
                .err()
                .map(|e| format!("counter not linearizable across recovery: {e}"))
        })
        .or_else(|| crash_fired(&r));
    report(&r, violation)
}

fn run_fig7(cell: &CrashCell) -> CrashReport {
    let (p, m) = (3u32, 3u32);
    let plan = cell.plan();
    let inputs: Vec<Val> = (0..u64::from(p * m)).map(|pid| 10 + pid).collect();
    let s = crate::adversary::fig7_scenario(p, 3, m, 1, 64, LocalMode::Modeled)
        .step_budget(5_000_000)
        .crash_at(plan.crash_t, plan.victim)
        .recover_at(plan.recover_t, plan.victim);
    let r = s.run(&mut noisy(cell));
    let violation = require_finished(&r)
        .or_else(|| agreement_validity(&r, &inputs))
        .or_else(|| exactly_once(&r, &vec![1; inputs.len()]))
        .or_else(|| crash_fired(&r));
    report(&r, violation)
}

fn report<M: Clone>(r: &RunResult<M>, violation: Option<String>) -> CrashReport {
    CrashReport {
        steps: r.steps,
        wall: r.wall,
        crashes: r.counters.crashes,
        recoveries: r.counters.recoveries,
        violation,
    }
}

fn require_finished<M: Clone>(r: &RunResult<M>) -> Option<String> {
    (!r.all_finished)
        .then(|| format!("not all processes finished within the {}-step budget", r.steps))
}

fn agreement_validity<M: Clone>(r: &RunResult<M>, inputs: &[Val]) -> Option<String> {
    match r.agreed_output() {
        None => Some(format!("disagreement across recovery: outputs {:?}", r.outputs)),
        Some(v) if !inputs.contains(&v) => {
            Some(format!("invalid decision {v}: not among proposals {inputs:?}"))
        }
        Some(_) => None,
    }
}

/// The exactly-once oracle: every process's completed-operation count must
/// equal its plan. An invocation that crashed mid-run either re-runs to a
/// single completion (count unchanged) or — if it never recovers — holds
/// the run unfinished; a double execution would overshoot its count.
fn exactly_once<M: Clone>(r: &RunResult<M>, planned: &[u64]) -> Option<String> {
    let mut counts = vec![0u64; planned.len()];
    for op in r.ops() {
        counts[op.pid.index()] += 1;
    }
    (counts != planned).then(|| {
        format!("exactly-once violated: completed ops per process {counts:?} != planned {planned:?}")
    })
}

fn crash_fired<M: Clone>(r: &RunResult<M>) -> Option<String> {
    (r.counters.crashes == 0).then(|| "crash plan never fired".to_string())
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
pub fn cell_line(cell: &CrashCell, rep: &CrashReport) -> Json {
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

    /// The satellite pin: a seeded Fig. 3 run with one crash-and-restart
    /// still satisfies agreement, and the recovered process's operation is
    /// linearized exactly once (one completed op per process, no
    /// duplicate).
    #[test]
    fn fig3_crash_restart_agrees_and_completes_exactly_once() {
        let cell = CrashCell { family: Family::Fig3, noise_num: 0, noise_den: 8, seed: 0 };
        let plan = cell.plan();
        const INPUTS: [Val; 3] = [10, 20, 30];
        let mut s = Scenario::new(
            UniConsensusMem::default(),
            SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
        )
        .step_budget(400_000);
        for v in INPUTS {
            s.add_process(ProcessorId(0), Priority(1), Box::new(fig3_decide(v)));
        }
        let s = s.crash_at(plan.crash_t, plan.victim).recover_at(plan.recover_t, plan.victim);
        let r = s.run(&mut noisy(&cell));
        assert!(r.all_finished, "crashed run must finish after recovery");
        assert_eq!(r.counters.crashes, 1, "the planned crash fires exactly once");
        assert_eq!(r.counters.recoveries, 1);
        let agreed = r.agreed_output().expect("agreement must survive the restart");
        assert!(INPUTS.contains(&agreed));
        // Exactly-once: the victim's decide completed once, not zero or
        // two times, and so did everyone else's.
        let mut counts = [0u64; 3];
        for op in r.ops() {
            counts[op.pid.index()] += 1;
        }
        assert_eq!(counts, [1, 1, 1], "each decide is linearized exactly once");
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
