//! The service grid behind `experiments --service`: long-lived
//! request-serving runs of the universal construction.
//!
//! This is the data layer for the ROADMAP's production-shaped artifact: a
//! deterministic grid of (object, arrival) configurations, each a
//! [`sched_sim::service::Service`] of sharded universal objects —
//! [`hybrid_wf::service::SessionMachine`] workers multiplexing the
//! configured client population — fanned over the sweep worker pool with
//! the standard bit-identical parallel == serial guarantee.
//!
//! The objects are the three `WordOp` workloads of
//! [`hybrid_wf::generic`] (the motivation section's RTOS-shared objects):
//!
//! * **counter** — fetch-and-add; clients add small per-client constants;
//! * **queue** — FIFO; each client alternates enqueue and dequeue so the
//!   replica stays bounded under any interleaving;
//! * **cas** — the C&S + Read register; three C&S attempts per read.
//!
//! Each object runs under both arrival schedules: a **closed loop** whose
//! clients think for a fixed statement count between requests, and an
//! **open loop** releasing worker cohorts on a fixed period. The full
//! grid's flagship configuration streams over a million requests from a
//! thousand clients through eight shards; `grid(true)` keeps the same shape
//! at the scale of the debug-mode tests.
//!
//! Artifact lines carry `report::CELL_SCHEMA` plus [`KEYS`]: per-shard
//! `service_shard` lines plus a `service_total` summary per configuration,
//! carrying the deterministic throughput figure (`steps_per_request`) and
//! p50/p90/p99 request-latency percentiles overall and per priority level.
//! Wall-clock times ride along only until the artifact writer splits them
//! into the `.timing.json` sidecar.

use std::sync::Arc;

use hybrid_wf::generic::WordOp;
use hybrid_wf::oracle::{CasRegOp, CasRegisterSpec, QueueOp, QueueSpec};
use hybrid_wf::service::{session_mem, OpGen, SessionMachine};
use hybrid_wf::universal::{CounterSpec, UniversalMem};
use sched_sim::kernel::SystemSpec;
use sched_sim::report::{Json, Kind};
use sched_sim::scenario::Scenario;
use sched_sim::service::{Arrival, Service, ServiceSpec, ShardPlan};

/// The quantum every service shard runs at (ample for the construction's
/// one-statement consensus operations; matches the stress tests).
pub const SERVICE_Q: u32 = 8;

/// One (object, arrival) configuration of the service grid.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Object name: `"counter"`, `"queue"`, or `"cas"`.
    pub object: &'static str,
    /// The arrival schedule.
    pub arrival: Arrival,
    /// Object shards (one kernel each).
    pub shards: u32,
    /// Simulated clients across the service.
    pub clients: u64,
    /// Worker processes per shard.
    pub workers: u32,
    /// Total request invocations.
    pub requests: u64,
}

/// The grid: each object under a thinking closed loop and a cohort-release
/// open loop. The full-scale counter configurations stream 2²⁰ requests
/// (over a million) from 1024 clients through 8 shards; the queue runs at
/// 2¹⁸ (its replica replay clones a `Vec` per applied op, an intentional
/// cost difference the throughput figures surface). `smoke` keeps every
/// (object, arrival) pair at the scale of the debug-mode tests.
pub fn grid(smoke: bool) -> Vec<ServiceConfig> {
    let (shards, clients, workers) = if smoke { (4, 64, 2) } else { (8, 1024, 4) };
    let closed = Arrival::ClosedLoop { think: 8 };
    let open = Arrival::OpenLoop {
        cohorts: 4,
        period: if smoke { 512 } else { 4096 },
    };
    let requests = |full: u64| if smoke { 1 << 12 } else { full };
    let mut out = Vec::new();
    for arrival in [closed, open] {
        out.push(ServiceConfig {
            object: "counter",
            arrival,
            shards,
            clients,
            workers,
            requests: requests(1 << 20),
        });
        out.push(ServiceConfig {
            object: "queue",
            arrival,
            shards,
            clients,
            workers,
            requests: requests(1 << 18),
        });
        out.push(ServiceConfig {
            object: "cas",
            arrival,
            shards,
            clients,
            workers,
            requests: requests(1 << 20),
        });
    }
    out
}

/// The op mix of the counter object: a small per-client addend, so the
/// final state oracle is an easy closed-form sum.
pub(crate) fn counter_gen() -> OpGen<CounterSpec> {
    Arc::new(|client, _seq| (client % 1000) + 1)
}

/// The op mix of the queue object: strict per-client alternation between
/// enqueue (value = packed `(client, seq)`) and dequeue, so the queue's
/// length stays bounded by the live client count under any interleaving.
fn queue_gen() -> OpGen<QueueSpec> {
    Arc::new(|client, seq| {
        if seq % 2 == 0 {
            QueueOp::Enq((client << 21) | (seq & 0x1f_ffff))
        } else {
            QueueOp::Deq
        }
    })
}

/// The op mix of the CAS register: three C&S attempts per read, operands
/// folded into 10 bits (well inside the 31-bit packing limit).
fn cas_gen() -> OpGen<CasRegisterSpec> {
    Arc::new(|client, seq| {
        if seq % 4 == 3 {
            CasRegOp::Read
        } else {
            let v = client + seq;
            CasRegOp::Cas { old: v % 1024, new: (v + 1) % 1024 }
        }
    })
}

/// Builds one shard's scenario: pre-sized shared memory (see
/// [`session_mem`]) and one [`SessionMachine`] per worker, placed by the
/// plan (single processor, cycled priorities, held open-loop cohorts).
pub(crate) fn shard_scenario<S>(spec: S, gen: &OpGen<S>, plan: &ShardPlan) -> Scenario<UniversalMem<S>>
where
    S: WordOp + Clone + Send + Sync + 'static,
    S::State: std::hash::Hash + Send + Sync + 'static,
    S::Op: std::hash::Hash + Eq + Send + Sync + 'static,
{
    let reqs: Vec<u64> = (0..plan.workers).map(|w| plan.worker_requests(w)).collect();
    let mut s = Scenario::new(session_mem::<S>(&reqs), SystemSpec::hybrid(SERVICE_Q));
    for w in 0..plan.workers {
        let m = SessionMachine::new(
            spec.clone(),
            w,
            plan.workers,
            plan.worker_requests(w),
            plan.think(),
            plan.worker_clients(w),
            gen.clone(),
        );
        plan.add_worker(&mut s, w, Box::new(m));
    }
    s
}

/// The keys every `BENCH_service.json` row carries beyond
/// `report::CELL_SCHEMA`: the request count, the deterministic throughput
/// figure (`steps_per_request`), the request-latency percentiles and the
/// completion flag [`grid_ok`] gates. The percentiles are `Any`, not `Num`:
/// an empty latency histogram has no percentiles and reports `null` (a
/// fake 0 would be indistinguishable from a real fast cell).
pub const KEYS: &[(&str, Kind)] = &[
    ("requests", Kind::Num),
    ("steps_per_request", Kind::Num),
    ("p50", Kind::Any),
    ("p90", Kind::Any),
    ("p99", Kind::Any),
    ("all_finished", Kind::Bool),
];

/// Runs one configuration over `jobs` sweep workers and renders its
/// artifact lines.
pub fn run_config(cfg: &ServiceConfig, jobs: usize) -> Vec<Json> {
    let spec = ServiceSpec::new(cfg.shards, cfg.clients, cfg.requests)
        .workers_per_shard(cfg.workers)
        .arrival(cfg.arrival);
    let base = [
        ("object", Json::from(cfg.object)),
        ("arrival", Json::from(cfg.arrival.name())),
        ("clients", Json::from(cfg.clients)),
        ("workers", Json::from(cfg.workers)),
        ("requests", Json::from(cfg.requests)),
    ];
    match cfg.object {
        "counter" => {
            let gen = counter_gen();
            Service::new(spec, move |plan| shard_scenario(CounterSpec, &gen, plan))
                .run(jobs)
                .report_lines(&base)
        }
        "queue" => {
            let gen = queue_gen();
            Service::new(spec, move |plan| shard_scenario(QueueSpec, &gen, plan))
                .run(jobs)
                .report_lines(&base)
        }
        "cas" => {
            let gen = cas_gen();
            Service::new(spec, move |plan| {
                shard_scenario(CasRegisterSpec { init: 0 }, &gen, plan)
            })
            .run(jobs)
            .report_lines(&base)
        }
        other => panic!("unknown service object {other:?}"),
    }
}

/// Runs the whole grid and concatenates the artifact lines in grid order.
/// Deterministic for any `jobs` (modulo the `wall_ms` values the artifact
/// writer strips into the timing sidecar).
pub fn run_grid(jobs: usize, smoke: bool) -> Vec<Json> {
    grid(smoke).iter().flat_map(|cfg| run_config(cfg, jobs)).collect()
}

/// The gate of the service grid: every shard of every configuration
/// finished inside its step budget.
pub fn grid_ok(rows: &[Json]) -> bool {
    rows.iter().all(|r| r.get("all_finished") == Some(&Json::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::report::split_timing;

    fn canonical(lines: &[Json]) -> Vec<String> {
        lines.iter().map(|l| split_timing(l).0.to_string()).collect()
    }

    #[test]
    fn smoke_grid_completes_every_request_deterministically() {
        let serial = run_grid(1, true);
        let configs = grid(true);
        // One total line per config, plus one line per shard.
        let shard_lines: usize = configs.iter().map(|c| c.shards as usize).sum();
        assert_eq!(serial.len(), shard_lines + configs.len());
        assert!(grid_ok(&serial), "a configuration exhausted its step budget");
        let mut totals = 0u64;
        for line in &serial {
            if line.get("kind").and_then(Json::as_str) == Some("service_total") {
                totals += 1;
                assert!(line.get("p99").and_then(Json::as_u64).is_some());
            }
        }
        assert_eq!(totals, configs.len() as u64);
        // Every config served its full request count.
        let served: u64 = serial
            .iter()
            .filter(|l| l.get("kind").and_then(Json::as_str) == Some("service_total"))
            .map(|l| l.get("requests").and_then(Json::as_u64).unwrap())
            .sum();
        let planned: u64 = configs.iter().map(|c| c.requests).sum();
        assert_eq!(served, planned);

        let parallel = run_grid(2, true);
        assert_eq!(canonical(&serial), canonical(&parallel));
    }

    #[test]
    fn generators_respect_packing_limits() {
        // The queue/cas encodings assert their bounds; exercise the
        // extremes of the flagship population directly.
        let q = queue_gen();
        let c = cas_gen();
        for client in [0u64, 1023] {
            for seq in [0u64, 1, (1 << 20) - 1] {
                let _ = QueueSpec::encode_op(&q(client, seq));
                let _ = CasRegisterSpec::encode_op(&c(client, seq));
            }
        }
    }
}
