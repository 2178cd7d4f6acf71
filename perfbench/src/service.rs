//! The `service` workload: the flagship configuration of
//! `lowerbound::service` — a counter object behind 8 shards × 4 workers,
//! 1024 closed-loop clients thinking 8 statements between requests, 2²⁰
//! requests — run by `Service::run`.
//!
//! The op generators are closed-form, so the workload takes no seed.
//!
//! The shard factory mirrors `lowerbound::service`'s (which is crate
//! private) from public parts: `session_mem`, `SessionMachine::new` and
//! `ShardPlan::add_worker`. The traced run checks that mirror against the
//! program's own artifact lines, then steps every shard kernel under a
//! timing decider and folds its op log, and must reproduce the program's
//! per-shard steps, requests and latency histograms.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hybrid_wf::service::{session_mem, OpGen, SessionMachine};
use hybrid_wf::universal::{CounterSpec, UniversalMem};
use lowerbound::service::{grid, run_config, SERVICE_Q};
use sched_sim::decision::RoundRobin;
use sched_sim::kernel::SystemSpec;
use sched_sim::prof::Hist;
use sched_sim::report::{split_timing, Json};
use sched_sim::scenario::Scenario;
use sched_sim::service::{Arrival, Service, ServiceReport, ServiceSpec, ShardPlan};

use crate::trace::{clock_overhead_ns, Span, TimedDecider};
use crate::{measure_for, median, peak_rss_mib, ratio, time_setup, Args, Outcome};

const SHARDS: u32 = 8;
const CLIENTS: u64 = 1024;
const WORKERS: u32 = 4;
const REQUESTS: u64 = 1 << 20;
const THINK: u32 = 8;

fn spec() -> ServiceSpec {
    ServiceSpec::new(SHARDS, CLIENTS, REQUESTS)
        .workers_per_shard(WORKERS)
        .arrival(Arrival::ClosedLoop { think: THINK })
}

/// `lowerbound::service`'s counter op mix: client `c` adds `c % 1000 + 1`.
fn counter_gen() -> OpGen<CounterSpec> {
    Arc::new(|client, _seq| (client % 1000) + 1)
}

/// One shard: pre-sized memory and one session per worker, placed by the
/// plan.
fn shard_scenario(
    gen: &OpGen<CounterSpec>,
    plan: &ShardPlan,
) -> Scenario<UniversalMem<CounterSpec>> {
    let reqs: Vec<u64> = (0..plan.workers).map(|w| plan.worker_requests(w)).collect();
    let mut s = Scenario::new(
        session_mem::<CounterSpec>(&reqs),
        SystemSpec::hybrid(SERVICE_Q),
    );
    for w in 0..plan.workers {
        let m = SessionMachine::new(
            CounterSpec,
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

fn service() -> Service<
    UniversalMem<CounterSpec>,
    impl Fn(&ShardPlan) -> Scenario<UniversalMem<CounterSpec>> + Sync,
> {
    let gen = counter_gen();
    Service::new(spec(), move |plan| shard_scenario(&gen, plan))
}

/// Requests the report is short of, plus one if a shard ran out of budget.
fn shortfall(r: &ServiceReport) -> u64 {
    REQUESTS.saturating_sub(r.requests()) + u64::from(!r.all_finished())
}

fn timed_run<M, F: Fn(&ShardPlan) -> Scenario<M> + Sync>(
    svc: &Service<M, F>,
    jobs: usize,
) -> (ServiceReport, Duration) {
    let t = Instant::now();
    let r = svc.run(jobs);
    (r, t.elapsed())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let svc = service();
    if args.trace {
        traced(&mut out, &svc);
        return out;
    }
    let shard_kernels = || (0..SHARDS).map(|s| svc.shard_kernel(s)).collect::<Vec<_>>();
    let mut setups = vec![time_setup(1, shard_kernels)];
    let (mut par, mut ser) = (Vec::new(), Vec::new());
    let mut steps_per_request = 0.0;
    measure_for(args.seconds, || {
        setups.push(time_setup(1, shard_kernels));
        let (r2, w2) = timed_run(&svc, 2);
        let (r1, w1) = timed_run(&svc, 1);
        out.attempted += 2 * REQUESTS;
        out.failed += shortfall(&r2) + shortfall(&r1);
        // The parallel run must equal the serial one.
        if (r2.steps(), r2.requests(), r2.latency()) != (r1.steps(), r1.requests(), r1.latency()) {
            out.failed += r2.requests();
        }
        par.push(w2.as_secs_f64());
        ser.push(w1.as_secs_f64());
        steps_per_request = r2.steps_per_request().unwrap_or(0.0);
        println!(
            "service: {} steps, {} requests; jobs 2 {:.3} s, jobs 1 {:.3} s",
            r2.steps(),
            r2.requests(),
            w2.as_secs_f64(),
            w1.as_secs_f64()
        );
    });
    println!(
        "requests_per_s {:.1} req/s, steps_per_request {steps_per_request} ({} runs)",
        REQUESTS as f64 / median(&par),
        par.len()
    );
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", median(&par));
    out.metric("serial_wall_s", median(&ser));
    out.metric("steps_per_item", steps_per_request);
    out.metric("peak_rss_mib", peak_rss_mib());
    out
}

/// The program's artifact lines with their timing split off.
fn canonical(lines: &[Json]) -> Vec<String> {
    lines
        .iter()
        .map(|l| split_timing(l).0.to_string())
        .collect()
}

fn traced<M, F: Fn(&ShardPlan) -> Scenario<M> + Sync>(out: &mut Outcome, svc: &Service<M, F>) {
    let clock_ns = clock_overhead_ns();
    let (program, w2) = timed_run(svc, 2);
    let (serial, w1) = timed_run(svc, 1);
    out.attempted += 2 * REQUESTS;
    out.failed += shortfall(&program) + shortfall(&serial);

    // The mirrored factory must serve exactly what the program's grid
    // serves.
    let cfg = grid(false)[0];
    let base = [
        ("object", Json::from(cfg.object)),
        ("arrival", Json::from(cfg.arrival.name())),
        ("clients", Json::from(cfg.clients)),
        ("workers", Json::from(cfg.workers)),
        ("requests", Json::from(cfg.requests)),
    ];
    if canonical(&run_config(&cfg, 2)) != canonical(&program.report_lines(&base)) {
        out.mismatch("service: mirrored factory differs from lowerbound::service".into());
    }

    let t_traced = Instant::now();
    let (mut build, mut step, mut choose, mut fold) =
        (Span::default(), 0u64, Span::default(), Span::default());
    let (mut records, mut requests) = (0u64, 0u64);
    for (plan, shard) in spec().plans().iter().zip(&program.shards) {
        let t = Instant::now();
        let mut k = svc.shard_kernel(plan.shard);
        build.add(t.elapsed());

        let mut rr = RoundRobin::new();
        let mut d = TimedDecider::new(&mut rr);
        let t = Instant::now();
        let steps = k.run(&mut d, plan.budget);
        step += t.elapsed().as_nanos() as u64;
        choose.calls += d.span.calls;
        choose.ns += d.span.ns;

        // The program's op-log fold, one span around the whole loop.
        let t = Instant::now();
        let mut latency = Hist::new();
        let mut per_prio = vec![Hist::new(); plan.prio_levels as usize + 1];
        let mut served = 0u64;
        for rec in k.ops() {
            let Some(_) = rec.output else { continue };
            served += 1;
            let lat = rec.t - rec.start + 1;
            latency.record(lat);
            per_prio[plan.priority(rec.pid.0).index()].record(lat);
        }
        fold.calls += 2 * served;
        fold.ns += t.elapsed().as_nanos() as u64;
        records += k.ops().len() as u64;
        requests += served;

        let traced = (steps, served, k.all_finished(), &latency, &per_prio);
        let expected = (
            shard.steps,
            shard.requests,
            shard.all_finished,
            &shard.latency,
            &shard.per_prio,
        );
        if traced != expected {
            out.mismatch(format!(
                "service shard {}: traced {steps} steps {served} requests != program {} steps {} requests",
                plan.shard, shard.steps, shard.requests
            ));
        }
    }
    let traced_wall = t_traced.elapsed();
    let steps = program.steps() as f64;
    // The decider's clock reads land inside the step span; take them out
    // with the decider's own time.
    let step_self = step as f64 - choose.ns as f64 - choose.calls as f64 * clock_ns;
    out.metric("service.shard_kernel.ns", build.mean_ns(clock_ns));
    out.metric("kernel.step.calls", steps);
    out.metric("kernel.step.ns", ratio(step_self, steps));
    out.metric("decision.choose.calls", choose.calls as f64);
    out.metric("decision.choose.ns", choose.mean_ns(clock_ns));
    out.metric(
        "history.records_per_request",
        ratio(records as f64, requests as f64),
    );
    out.metric(
        "prof.hist_record.ns",
        ratio(fold.ns as f64, fold.calls as f64),
    );
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
        "service: jobs 2 {:.3} s, jobs 1 {:.3} s, traced {:.3} s",
        w2.as_secs_f64(),
        w1.as_secs_f64(),
        traced_wall.as_secs_f64()
    );
}
