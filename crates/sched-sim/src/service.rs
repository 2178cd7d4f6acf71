//! The [`Service`] builder: long-lived request-serving workloads over
//! sharded kernels.
//!
//! Every experiment built on [`Scenario`] is a
//! *one-shot* run: a fixed set of processes executes a fixed op list to
//! quiescence. A production-shaped object server looks different — a
//! long-lived object serves an unbounded stream of invocations from many
//! clients — and that is the workload this module models:
//!
//! * a **service** is a set of independent *shards*, one simulated kernel
//!   (one object) per shard;
//! * each shard runs a small pool of *worker* processes, and each worker
//!   multiplexes a slice of the service's simulated *clients* (the
//!   connection-multiplexing shape of a real request server: thousands of
//!   clients, a handful of server threads per core);
//! * an [`Arrival`] schedule shapes load — **closed-loop** clients think
//!   between requests (each think is its own object invocation, so the
//!   quantum window closes and the processor is yielded, exactly like a
//!   blocking server thread), while **open-loop** workers arrive in held
//!   cohorts the engine releases on a fixed period;
//! * shards fan out over the [`crate::sweep::run_cells`] worker pool, and
//!   every derived statistic folds with a commutative, associative merge
//!   in shard order — so a parallel service run is **bit-identical** to a
//!   serial one, the same guarantee every sweep in this workspace carries.
//!
//! The engine is object-agnostic: a factory closure builds each shard's
//! [`Scenario`] from its [`ShardPlan`] (which
//! worker serves which clients, at what priority, held or ready). The
//! `hybrid_wf` crate supplies the actual object machines (the long-lived
//! universal-construction sessions); `lowerbound::service` wires the two
//! together into the grid behind `experiments --service`.
//!
//! Latency is measured from the kernel's completed-invocation log
//! ([`Kernel::ops`]): a request's latency is the statement-time span of
//! its invocation, folded into allocation-free [`Hist`] histograms per
//! shard and per priority level. Think invocations report no output and
//! are excluded. The engine folds as it runs: it executes a shard in
//! fixed chunks of statements and drains each chunk's records
//! ([`Kernel::drain_ops`]) into the histograms before the next chunk, so
//! a shard holds one chunk of history, not every request's record. Steady
//! state allocates nothing: the engine reserves one chunk of op-log room
//! ([`Kernel::reserve_ops`]), which a drain keeps, and the factory
//! reserves the object's own arenas, which grow on first use (the
//! universal log on first proposal) within that reservation.
//! [`Service::shard_kernel`] builds by move, so the reservations reach the
//! kernel intact.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use crate::decision::RoundRobin;
use crate::ids::{ProcessId, ProcessorId, Priority};
use crate::kernel::{Kernel, OpRecord};
use crate::machine::StepMachine;
use crate::prof::Hist;
use crate::report::{wall_ms, Json};
use crate::scenario::{Scenario, DEFAULT_STEP_BUDGET};
use crate::sweep::run_cells;

/// How load arrives at a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// Closed loop: every request is preceded by a *think* invocation of
    /// `think` statements (0 = back-to-back requests). Thinks are separate
    /// object invocations, so each closes the worker's quantum window and
    /// yields the processor — the simulated analogue of a server thread
    /// blocking between requests.
    ClosedLoop {
        /// Statements per think invocation.
        think: u32,
    },
    /// Open loop: workers are split into `cohorts` contiguous batches;
    /// batch 0 starts ready, batch `i` is added held and released once the
    /// shard clock reaches `i * period` statements (immediately, if the
    /// ready set quiesces early). Batched arrivals, no thinking.
    OpenLoop {
        /// Number of arrival batches (≥ 1; batch 0 is the initial load).
        cohorts: u32,
        /// Statements between batch releases.
        period: u64,
    },
}

impl Arrival {
    /// Short name for reports: `"closed"` or `"open"`.
    pub fn name(&self) -> &'static str {
        match self {
            Arrival::ClosedLoop { .. } => "closed",
            Arrival::OpenLoop { .. } => "open",
        }
    }

    /// Statements per think invocation (0 under open loop).
    pub fn think(&self) -> u32 {
        match *self {
            Arrival::ClosedLoop { think } => think,
            Arrival::OpenLoop { .. } => 0,
        }
    }
}

/// Continuous client churn: a fixed set of victim workers (each standing
/// in for its multiplexed client slice) crashes and reconnects on a cycle.
///
/// Victim `j` (workers `0..victims`) runs for `period` statements, crashes,
/// stays down for `down` statements, recovers, and repeats for `cycles`
/// cycles; victims are phase-staggered across the period so the shard never
/// loses every victim at once. Crash/recovery instants are scheduled as
/// kernel lifecycle *data* ([`Kernel::schedule_crash`]), so churn runs keep
/// the engine's parallel == serial bit-identity. A crash that lands while
/// the victim is held, finished, or already down is a no-op (lenient
/// lifecycle semantics), so one plan shape serves every arrival schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Workers per shard that churn (workers `0..victims`).
    pub victims: u32,
    /// Statements each victim stays up per cycle.
    pub period: u64,
    /// Statements each victim stays down per cycle.
    pub down: u64,
    /// Crash-and-reconnect cycles per victim.
    pub cycles: u32,
}

/// The declarative shape of a service run: how many shards, clients, and
/// worker processes, how many request invocations in total, and how load
/// arrives. The *objects* served and the *op mix* are the factory's
/// concern (see [`Service`]); this spec is object-agnostic.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    /// Independent object shards (one kernel, one object each).
    pub shards: u32,
    /// Simulated clients, partitioned evenly across shards and multiplexed
    /// onto each shard's workers.
    pub clients: u64,
    /// Worker processes per shard.
    pub workers_per_shard: u32,
    /// Total request invocations across the whole service.
    pub requests: u64,
    /// Priority levels cycled across each shard's workers
    /// (worker `w` runs at priority `1 + w mod prio_levels`).
    pub prio_levels: u32,
    /// The arrival schedule.
    pub arrival: Arrival,
    /// Continuous client churn, if any.
    pub churn: Option<ChurnSpec>,
    /// Per-shard step budget.
    pub budget: u64,
}

/// Evenly splits `total` into `parts`: the size of part `i`.
fn share(total: u64, parts: u64, i: u64) -> u64 {
    total / parts + u64::from(i < total % parts)
}

/// Evenly splits `total` into `parts`: the offset of part `i`.
fn offset(total: u64, parts: u64, i: u64) -> u64 {
    (total / parts) * i + (total % parts).min(i)
}

impl ServiceSpec {
    /// A spec over `shards` shards, `clients` clients, and `requests`
    /// total invocations, with the defaults every grid starts from: 4
    /// workers per shard, 2 priority levels, back-to-back closed-loop
    /// arrivals, and the scenario default step budget.
    pub fn new(shards: u32, clients: u64, requests: u64) -> Self {
        ServiceSpec {
            shards,
            clients,
            workers_per_shard: 4,
            requests,
            prio_levels: 2,
            arrival: Arrival::ClosedLoop { think: 0 },
            churn: None,
            budget: DEFAULT_STEP_BUDGET,
        }
    }

    /// Sets the worker-pool size per shard (chainable).
    pub fn workers_per_shard(mut self, workers: u32) -> Self {
        self.workers_per_shard = workers;
        self
    }

    /// Sets the number of priority levels cycled across workers.
    pub fn prio_levels(mut self, levels: u32) -> Self {
        self.prio_levels = levels;
        self
    }

    /// Sets the arrival schedule (chainable).
    pub fn arrival(mut self, arrival: Arrival) -> Self {
        self.arrival = arrival;
        self
    }

    /// Enables continuous client churn (chainable).
    pub fn churn(mut self, churn: ChurnSpec) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Overrides the per-shard step budget (chainable).
    pub fn step_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// The per-shard plans this spec partitions into.
    ///
    /// # Panics
    ///
    /// On degenerate shapes: zero shards/workers/levels, fewer clients
    /// than workers (a worker must multiplex at least one client), or
    /// fewer requests than workers (every worker serves at least one).
    pub fn plans(&self) -> Vec<ShardPlan> {
        assert!(self.shards >= 1, "a service needs at least one shard");
        assert!(self.workers_per_shard >= 1, "a shard needs at least one worker");
        assert!(self.prio_levels >= 1, "at least one priority level");
        let workers_total = u64::from(self.shards) * u64::from(self.workers_per_shard);
        assert!(
            self.clients >= workers_total,
            "need at least one client per worker ({} clients < {workers_total} workers)",
            self.clients
        );
        assert!(
            self.requests >= workers_total,
            "need at least one request per worker ({} requests < {workers_total} workers)",
            self.requests
        );
        if let Arrival::OpenLoop { cohorts, .. } = self.arrival {
            assert!(cohorts >= 1, "open loop needs at least one cohort");
        }
        if let Some(c) = self.churn {
            assert!(
                c.victims < self.workers_per_shard,
                "churn victims must leave at least one stable worker per shard"
            );
            assert!(c.period >= 1 && c.down >= 1, "churn period and downtime must be positive");
        }
        (0..self.shards)
            .map(|s| ShardPlan {
                shard: s,
                workers: self.workers_per_shard,
                prio_levels: self.prio_levels,
                arrival: self.arrival,
                churn: self.churn,
                budget: self.budget,
                client_lo: offset(self.clients, u64::from(self.shards), u64::from(s)),
                clients: share(self.clients, u64::from(self.shards), u64::from(s)),
                requests: share(self.requests, u64::from(self.shards), u64::from(s)),
            })
            .collect()
    }
}

/// One shard's slice of a [`ServiceSpec`]: everything a factory needs to
/// build the shard's scenario, and everything the engine needs to drive
/// and score it.
#[derive(Clone, Copy, Debug)]
pub struct ShardPlan {
    /// This shard's index.
    pub shard: u32,
    /// Workers in this shard's pool.
    pub workers: u32,
    /// Priority levels cycled across the workers.
    pub prio_levels: u32,
    /// The arrival schedule.
    pub arrival: Arrival,
    /// Continuous client churn, if any.
    pub churn: Option<ChurnSpec>,
    /// The step budget for this shard's run.
    pub budget: u64,
    /// First global client id served by this shard.
    pub client_lo: u64,
    /// Clients served by this shard.
    pub clients: u64,
    /// Request invocations this shard performs.
    pub requests: u64,
}

impl ShardPlan {
    /// Requests worker `w` performs.
    pub fn worker_requests(&self, w: u32) -> u64 {
        share(self.requests, u64::from(self.workers), u64::from(w))
    }

    /// The global-client slice worker `w` multiplexes, as `(first, count)`:
    /// request `j` of the worker is issued on behalf of client
    /// `first + (j mod count)`.
    pub fn worker_clients(&self, w: u32) -> (u64, u64) {
        let lo = self.client_lo + offset(self.clients, u64::from(self.workers), u64::from(w));
        (lo, share(self.clients, u64::from(self.workers), u64::from(w)))
    }

    /// Worker `w`'s priority: levels `1..=prio_levels`, cycled.
    pub fn priority(&self, w: u32) -> Priority {
        Priority(1 + w % self.prio_levels)
    }

    /// Worker `w`'s arrival cohort (always 0 under closed loop; contiguous
    /// blocks under open loop).
    pub fn cohort_of(&self, w: u32) -> u32 {
        match self.arrival {
            Arrival::ClosedLoop { .. } => 0,
            Arrival::OpenLoop { cohorts, .. } => {
                ((u64::from(w) * u64::from(cohorts)) / u64::from(self.workers)) as u32
            }
        }
    }

    /// Whether worker `w` starts held (a later open-loop cohort).
    pub fn is_held(&self, w: u32) -> bool {
        self.cohort_of(w) != 0
    }

    /// Statements per think invocation (0 under open loop).
    pub fn think(&self) -> u32 {
        self.arrival.think()
    }

    /// Adds worker `w`'s machine to `s` with the plan's placement: pinned
    /// to the shard's (single) processor, at [`ShardPlan::priority`], held
    /// iff in a later arrival cohort. Factories should add workers 0, 1, …
    /// in order so process ids equal worker indices.
    pub fn add_worker<M>(
        &self,
        s: &mut Scenario<M>,
        w: u32,
        machine: Box<dyn StepMachine<M>>,
    ) -> ProcessId {
        if self.is_held(w) {
            s.add_held_process(ProcessorId(0), self.priority(w), machine)
        } else {
            s.add_process(ProcessorId(0), self.priority(w), machine)
        }
    }
}

/// A long-lived request-serving run: a [`ServiceSpec`] plus a factory
/// building each shard's [`Scenario`] from its [`ShardPlan`]. See the
/// [module docs](self).
///
/// ```
/// use sched_sim::machine::{FnMachine, StepOutcome};
/// use sched_sim::kernel::SystemSpec;
/// use sched_sim::scenario::Scenario;
/// use sched_sim::service::{Service, ServiceSpec};
///
/// // A toy object: each "request" is a 3-statement bump of shared memory.
/// let spec = ServiceSpec::new(2, 8, 16).workers_per_shard(2);
/// let service = Service::new(spec, |plan| {
///     let mut s = Scenario::new(0u64, SystemSpec::hybrid(4));
///     for w in 0..plan.workers {
///         let reqs = plan.worker_requests(w);
///         plan.add_worker(&mut s, w, Box::new(FnMachine::new(move |mem: &mut u64, calls| {
///             *mem += 1;
///             let inv = u64::from(calls + 1);
///             if inv % 3 != 0 { (StepOutcome::Continue, None) }
///             else if inv / 3 >= reqs { (StepOutcome::Finished, Some(*mem)) }
///             else { (StepOutcome::InvocationEnd, Some(*mem)) }
///         })));
///     }
///     s
/// });
/// let report = service.run(2);
/// assert!(report.all_finished());
/// assert_eq!(report.requests(), 16);
/// assert!(report.latency().percentile(99.0).is_some());
/// ```
pub struct Service<M, F> {
    spec: ServiceSpec,
    build: F,
    _mem: PhantomData<fn() -> M>,
}

impl<M, F: Fn(&ShardPlan) -> Scenario<M> + Sync> Service<M, F> {
    /// A service from its spec and shard factory.
    pub fn new(spec: ServiceSpec, build: F) -> Self {
        Service { spec, build, _mem: PhantomData }
    }

    /// The configured spec.
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// Builds one shard's kernel exactly as [`Service::run`] would (the
    /// factory's scenario, churn plan, one chunk of op-log room) — the hook direct-driving
    /// tests (e.g. allocation counting) use to probe the steady state.
    pub fn shard_kernel(&self, shard: u32) -> Kernel<M> {
        let plan = self.spec.plans()[shard as usize];
        prepared_kernel(&plan, &self.build)
    }

    /// Runs every shard over `jobs` sweep workers and folds the results.
    /// Deterministic: the report (histograms included) is bit-identical
    /// for every `jobs` value.
    pub fn run(&self, jobs: usize) -> ServiceReport {
        let plans = self.spec.plans();
        let shards = run_cells(&plans, jobs, |_, plan| run_shard(plan, &self.build));
        ServiceReport { shards }
    }
}

/// Statements a shard runs between folds of its op log. A statement
/// completes at most one invocation, so the log never holds more than this
/// many records.
const CHUNK: u64 = 1 << 14;

/// Builds a shard's kernel from the factory and applies the engine's
/// steady-state preparation (churn plan, one chunk of op-log room).
fn prepared_kernel<M>(plan: &ShardPlan, build: &impl Fn(&ShardPlan) -> Scenario<M>) -> Kernel<M> {
    let scenario = build(plan);
    assert_eq!(
        scenario.n_processes() as u32,
        plan.workers,
        "shard factory must add exactly one process per worker, in worker order"
    );
    let mut k = scenario.into_kernel();
    if let Some(churn) = plan.churn {
        for j in 0..churn.victims {
            // Phase-stagger the victims across the up-period so the shard
            // never loses its whole churning set at one instant.
            let phase = u64::from(j) * churn.period / u64::from(churn.victims);
            for c in 0..u64::from(churn.cycles) {
                let crash_at = churn.period + c * (churn.period + churn.down) + phase;
                k.schedule_crash(crash_at, ProcessId(j));
                k.schedule_recover(crash_at + churn.down, ProcessId(j));
            }
        }
    }
    k.reserve_ops(CHUNK as usize);
    k
}

/// Drives one shard to quiescence or its budget, with the open-loop
/// release choreography; `run(k, n)` executes at most `n` statements and
/// returns how many it ran. Returns the statements executed.
fn drive<M>(
    plan: &ShardPlan,
    k: &mut Kernel<M>,
    mut run: impl FnMut(&mut Kernel<M>, u64) -> u64,
) -> u64 {
    let budget = plan.budget;
    let mut steps = 0u64;
    if let Arrival::OpenLoop { cohorts, period } = plan.arrival {
        for cohort in 1..cohorts {
            let target = u64::from(cohort) * period;
            while k.clock() < target && steps < budget {
                let chunk = (target - k.clock()).min(budget - steps);
                let ran = run(k, chunk);
                steps += ran;
                if ran < chunk {
                    // The ready set quiesced before the release time:
                    // release the next cohort immediately (simulated time
                    // cannot pass without statements).
                    break;
                }
            }
            for w in 0..plan.workers {
                if plan.cohort_of(w) == cohort {
                    k.release(ProcessId(w));
                }
            }
        }
    }
    steps + run(k, budget - steps)
}

/// Runs `k` for at most `max` statements in stretches of at most
/// [`CHUNK`], handing each stretch's completed invocations to `fold`
/// before the next one runs. Returns the statements executed.
fn run_chunked<M>(
    k: &mut Kernel<M>,
    d: &mut RoundRobin,
    max: u64,
    fold: &mut impl FnMut(std::vec::Drain<'_, OpRecord>),
) -> u64 {
    let mut steps = 0;
    while steps < max {
        let chunk = (max - steps).min(CHUNK);
        let ran = k.run(d, chunk);
        steps += ran;
        fold(k.drain_ops());
        if ran < chunk {
            break;
        }
    }
    steps
}

/// A shard's completed requests and their latency histograms, overall and
/// per priority level.
struct Tally {
    requests: u64,
    latency: Hist,
    per_prio: Vec<Hist>,
}

impl Tally {
    fn new(plan: &ShardPlan) -> Self {
        Tally {
            requests: 0,
            latency: Hist::new(),
            per_prio: vec![Hist::new(); plan.prio_levels as usize + 1],
        }
    }

    fn record(&mut self, plan: &ShardPlan, rec: &OpRecord) {
        // Think invocations report no output and are not requests.
        let Some(_) = rec.output else { return };
        self.requests += 1;
        let lat = rec.t - rec.start + 1;
        self.latency.record(lat);
        self.per_prio[plan.priority(rec.pid.0).index()].record(lat);
    }

    fn report<M>(self, plan: &ShardPlan, k: &Kernel<M>, steps: u64, wall: Duration) -> ShardReport {
        let counters = k.counters();
        ShardReport {
            shard: plan.shard,
            steps,
            wall,
            all_finished: k.all_finished(),
            requests: self.requests,
            crashes: counters.crashes,
            recoveries: counters.recoveries,
            latency: self.latency,
            per_prio: self.per_prio,
        }
    }
}

/// Drives one shard to completion, folding its op log into the shard
/// report one chunk at a time as it runs.
fn run_shard<M>(plan: &ShardPlan, build: &impl Fn(&ShardPlan) -> Scenario<M>) -> ShardReport {
    let mut k = prepared_kernel(plan, build);
    let t0 = Instant::now();
    let mut d = RoundRobin::new();
    let mut tally = Tally::new(plan);
    let mut fold = |recs: std::vec::Drain<'_, OpRecord>| recs.for_each(|r| tally.record(plan, &r));
    let steps = drive(plan, &mut k, |k, n| run_chunked(k, &mut d, n, &mut fold));
    tally.report(plan, &k, steps, t0.elapsed())
}

/// One shard's outcome: throughput (steps, requests) and latency
/// distributions, overall and per priority level.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Statements the shard executed.
    pub steps: u64,
    /// Wall-clock time (metadata; never part of determinism comparisons).
    pub wall: Duration,
    /// Whether every worker finished within the budget.
    pub all_finished: bool,
    /// Completed requests (think invocations excluded).
    pub requests: u64,
    /// Churn crashes this shard suffered (0 without churn).
    pub crashes: u64,
    /// Churn recoveries (crashed workers reconnecting).
    pub recoveries: u64,
    /// Request-latency histogram (statements from first to last statement
    /// of the request invocation, inclusive).
    pub latency: Hist,
    /// Request-latency histograms by raw priority level (index 0 unused).
    pub per_prio: Vec<Hist>,
}

/// The outcome of [`Service::run`]: per-shard reports plus order-stable
/// merged views. All derived values are deterministic except the wall
/// times.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardReport>,
}

impl ServiceReport {
    /// Total statements across shards.
    pub fn steps(&self) -> u64 {
        self.shards.iter().map(|s| s.steps).sum()
    }

    /// Total completed requests across shards.
    pub fn requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// Total wall-clock time summed over shards (metadata).
    pub fn wall(&self) -> Duration {
        self.shards.iter().map(|s| s.wall).sum()
    }

    /// Whether every shard finished inside its budget.
    pub fn all_finished(&self) -> bool {
        self.shards.iter().all(|s| s.all_finished)
    }

    /// Total churn crashes across shards.
    pub fn crashes(&self) -> u64 {
        self.shards.iter().map(|s| s.crashes).sum()
    }

    /// Total churn recoveries across shards.
    pub fn recoveries(&self) -> u64 {
        self.shards.iter().map(|s| s.recoveries).sum()
    }

    /// The service-wide latency histogram (shards folded in shard order;
    /// the merge is order-independent, so this equals any other fold).
    pub fn latency(&self) -> Hist {
        let mut h = Hist::new();
        for s in &self.shards {
            h.merge(&s.latency);
        }
        h
    }

    /// Service-wide latency histograms by raw priority level.
    pub fn per_prio(&self) -> Vec<Hist> {
        let levels = self.shards.iter().map(|s| s.per_prio.len()).max().unwrap_or(0);
        let mut out = vec![Hist::new(); levels];
        for s in &self.shards {
            for (level, h) in s.per_prio.iter().enumerate() {
                out[level].merge(h);
            }
        }
        out
    }

    /// Mean statements per completed request — the deterministic
    /// throughput figure reports and regression gates compare (wall-time
    /// throughput is machine-dependent and lives in the timing sidecar).
    pub fn steps_per_request(&self) -> Option<f64> {
        let reqs = self.requests();
        (reqs > 0).then(|| self.steps() as f64 / reqs as f64)
    }

    /// Renders the report as JSONL artifact lines: one `service_shard`
    /// line per shard, then one `service_total` summary carrying the
    /// merged histogram and the per-priority percentile table. `base`
    /// pairs (e.g. the object and arrival names) lead every line's `cell`.
    ///
    /// Everything in the lines is deterministic except `wall_ms`, which
    /// the artifact writer splits into the timing sidecar.
    pub fn report_lines(&self, base: &[(&str, Json)]) -> Vec<Json> {
        let cell = |extra: Vec<(&str, Json)>| {
            Json::obj(base.iter().map(|(k, v)| (*k, v.clone())).chain(extra))
        };
        // An empty histogram has no percentiles: emit null, not a fake 0
        // (a real zero-statement latency is impossible anyway, but a
        // starved priority level must be distinguishable from a fast one).
        let pct = |h: &Hist, p: f64| h.percentile(p).map_or(Json::Null, Json::Int);
        let spr = |steps: u64, reqs: u64| {
            let v = if reqs > 0 { steps as f64 / reqs as f64 } else { 0.0 };
            Json::Float((v * 1000.0).round() / 1000.0)
        };
        let mut lines = Vec::new();
        for s in &self.shards {
            lines.push(Json::obj([
                ("kind", Json::from("service_shard")),
                ("cell", cell(vec![("shard", Json::from(s.shard))])),
                ("steps", Json::from(s.steps)),
                ("requests", Json::from(s.requests)),
                ("steps_per_request", spr(s.steps, s.requests)),
                ("p50", pct(&s.latency, 50.0)),
                ("p90", pct(&s.latency, 90.0)),
                ("p99", pct(&s.latency, 99.0)),
                ("crashes", Json::from(s.crashes)),
                ("recoveries", Json::from(s.recoveries)),
                ("all_finished", Json::from(s.all_finished)),
                ("wall_ms", Json::from(wall_ms(s.wall))),
            ]));
        }
        let merged = self.latency();
        let per_prio: Vec<Json> = self
            .per_prio()
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(level, h)| {
                Json::obj([
                    ("prio", Json::Int(level as u64)),
                    ("requests", Json::Int(h.count())),
                    ("p50", pct(h, 50.0)),
                    ("p90", pct(h, 90.0)),
                    ("p99", pct(h, 99.0)),
                ])
            })
            .collect();
        lines.push(Json::obj([
            ("kind", Json::from("service_total")),
            ("cell", cell(vec![("shards", Json::from(self.shards.len() as u64))])),
            ("steps", Json::from(self.steps())),
            ("requests", Json::from(self.requests())),
            ("steps_per_request", spr(self.steps(), self.requests())),
            ("p50", pct(&merged, 50.0)),
            ("p90", pct(&merged, 90.0)),
            ("p99", pct(&merged, 99.0)),
            ("crashes", Json::from(self.crashes())),
            ("recoveries", Json::from(self.recoveries())),
            ("all_finished", Json::from(self.all_finished())),
            ("latency", merged.to_json()),
            ("per_prio", Json::Arr(per_prio)),
            ("wall_ms", Json::from(wall_ms(self.wall()))),
        ]));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SystemSpec;
    use crate::machine::{FnMachine, StepOutcome};
    use crate::report::split_timing;

    /// A toy shard factory: each worker performs its planned requests as
    /// `len`-statement invocations against a shared counter, with output.
    /// Under a thinking closed loop every odd invocation is a think
    /// instead, with no output.
    fn toy_service(
        spec: ServiceSpec,
        len: u64,
    ) -> Service<u64, impl Fn(&ShardPlan) -> Scenario<u64> + Sync> {
        Service::new(spec, move |plan| {
            let mut s = Scenario::new(0u64, SystemSpec::hybrid(4));
            let invs_per_request = if plan.think() > 0 { 2 } else { 1 };
            for w in 0..plan.workers {
                let invs = invs_per_request * plan.worker_requests(w);
                plan.add_worker(
                    &mut s,
                    w,
                    Box::new(FnMachine::new(move |mem: &mut u64, calls| {
                        *mem += 1;
                        let inv = u64::from(calls) + 1;
                        let output = (inv / len).is_multiple_of(invs_per_request).then_some(*mem);
                        if inv % len != 0 {
                            (StepOutcome::Continue, None)
                        } else if inv / len >= invs {
                            (StepOutcome::Finished, output)
                        } else {
                            (StepOutcome::InvocationEnd, output)
                        }
                    })),
                );
            }
            s
        })
    }

    fn canonical(lines: &[Json]) -> Vec<String> {
        lines.iter().map(|l| split_timing(l).0.to_string()).collect()
    }

    #[test]
    fn spec_partitions_evenly_and_exactly() {
        let spec = ServiceSpec::new(3, 10, 17).workers_per_shard(2);
        let plans = spec.plans();
        assert_eq!(plans.len(), 3);
        assert_eq!(plans.iter().map(|p| p.requests).sum::<u64>(), 17);
        assert_eq!(plans.iter().map(|p| p.clients).sum::<u64>(), 10);
        // Client ranges tile [0, clients) without gaps or overlap.
        for w in plans.windows(2) {
            assert_eq!(w[0].client_lo + w[0].clients, w[1].client_lo);
        }
        // Per-worker splits are exact too.
        for p in &plans {
            let wr: u64 = (0..p.workers).map(|w| p.worker_requests(w)).sum();
            assert_eq!(wr, p.requests);
            let wc: u64 = (0..p.workers).map(|w| p.worker_clients(w).1).sum();
            assert_eq!(wc, p.clients);
            assert_eq!(p.worker_clients(0).0, p.client_lo);
        }
    }

    #[test]
    fn priorities_and_cohorts_cycle_as_documented() {
        let mut spec = ServiceSpec::new(1, 8, 8).workers_per_shard(4);
        spec.arrival = Arrival::OpenLoop { cohorts: 2, period: 16 };
        let p = spec.plans().remove(0);
        assert_eq!(p.priority(0), Priority(1));
        assert_eq!(p.priority(1), Priority(2));
        assert_eq!(p.priority(2), Priority(1));
        assert_eq!(p.cohort_of(0), 0);
        assert_eq!(p.cohort_of(1), 0);
        assert_eq!(p.cohort_of(2), 1);
        assert!(!p.is_held(0) && p.is_held(3));
        assert_eq!(p.think(), 0);
    }

    #[test]
    fn closed_loop_service_completes_and_counts_requests() {
        let report = toy_service(ServiceSpec::new(2, 8, 20).workers_per_shard(2), 3).run(1);
        assert!(report.all_finished());
        assert_eq!(report.requests(), 20);
        // Each request is a 3-statement invocation: 60 statements total.
        assert_eq!(report.steps(), 60);
        let lat = report.latency();
        assert_eq!(lat.count(), 20);
        assert!(lat.percentile(50.0).is_some());
        // Both priority levels served requests.
        let per_prio = report.per_prio();
        assert!(per_prio[1].count() > 0 && per_prio[2].count() > 0);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let mut spec = ServiceSpec::new(4, 16, 64).workers_per_shard(2);
        spec.arrival = Arrival::OpenLoop { cohorts: 2, period: 8 };
        let svc = toy_service(spec, 5);
        let serial = svc.run(1);
        let parallel = svc.run(4);
        let base = [("object", Json::from("toy"))];
        assert_eq!(
            canonical(&serial.report_lines(&base)),
            canonical(&parallel.report_lines(&base)),
        );
        assert_eq!(serial.requests(), 64);
        assert_eq!(serial.steps(), parallel.steps());
        assert_eq!(serial.latency(), parallel.latency());
    }

    #[test]
    fn open_loop_releases_late_cohorts() {
        let mut spec = ServiceSpec::new(1, 4, 8).workers_per_shard(4);
        spec.arrival = Arrival::OpenLoop { cohorts: 4, period: 6 };
        let report = toy_service(spec, 3).run(1);
        assert!(report.all_finished(), "held cohorts must be released");
        assert_eq!(report.requests(), 8);
    }

    /// Churn: victims crash mid-invocation and reconnect, yet every
    /// request still completes exactly once (the op log records only
    /// completed invocations, and a restarted invocation completes once),
    /// and the parallel run stays bit-identical to the serial one.
    #[test]
    fn churn_service_survives_and_counts_requests_exactly_once() {
        let spec = ServiceSpec::new(2, 8, 24)
            .workers_per_shard(2)
            .churn(ChurnSpec { victims: 1, period: 7, down: 5, cycles: 3 });
        let svc = toy_service(spec, 4);
        let serial = svc.run(1);
        let parallel = svc.run(2);
        assert!(serial.all_finished(), "churn must not wedge the service");
        assert_eq!(serial.requests(), 24, "every request completes exactly once");
        assert!(serial.crashes() > 0, "the churn plan must actually fire");
        assert_eq!(serial.crashes(), serial.recoveries(), "every crash reconnects");
        let base = [("object", Json::from("toy"))];
        assert_eq!(
            canonical(&serial.report_lines(&base)),
            canonical(&parallel.report_lines(&base)),
        );
    }

    /// The engine's chunked fold equals one fold over the whole log (the
    /// shard run to completion, then `ops()`) in every `ShardReport` field
    /// but `wall`, on closed-loop, open-loop and churn plans; and the log
    /// never holds more than one chunk when it is drained.
    #[test]
    fn streamed_fold_equals_whole_log_fold() {
        // 24,000 three-statement invocations per shard: 72,000 statements,
        // at least four drains.
        let base = ServiceSpec::new(1, 6, 24_000).workers_per_shard(3);
        let specs = [
            base.arrival(Arrival::ClosedLoop { think: 2 }),
            base.arrival(Arrival::OpenLoop { cohorts: 3, period: 20_000 }),
            base.churn(ChurnSpec { victims: 1, period: 5_000, down: 700, cycles: 8 }),
        ];
        for spec in specs {
            let svc = toy_service(spec, 3);
            let plan = spec.plans()[0];
            let streamed = run_shard(&plan, &svc.build);

            let mut k = prepared_kernel(&plan, &svc.build);
            let mut d = RoundRobin::new();
            let steps = drive(&plan, &mut k, |k, n| k.run(&mut d, n));
            let mut tally = Tally::new(&plan);
            k.ops().iter().for_each(|r| tally.record(&plan, r));
            let whole = tally.report(&plan, &k, steps, Duration::ZERO);

            let fields = |r: &ShardReport| {
                let ShardReport {
                    shard,
                    steps,
                    wall: _,
                    all_finished,
                    requests,
                    crashes,
                    recoveries,
                    latency,
                    per_prio,
                } = r.clone();
                (shard, steps, all_finished, requests, crashes, recoveries, latency, per_prio)
            };
            assert_eq!(fields(&streamed), fields(&whole), "{spec:?}");
            assert!(streamed.all_finished && streamed.requests > 0, "{spec:?}");
            assert_eq!(k.ops().len() as u64, streamed.steps / 3, "{spec:?}");
            if let Some(churn) = spec.churn {
                assert!(streamed.crashes > 0 && churn.cycles > 0);
            }

            let mut k = prepared_kernel(&plan, &svc.build);
            let mut d = RoundRobin::new();
            let (mut drains, mut most) = (0u32, 0usize);
            let mut fold = |recs: std::vec::Drain<'_, OpRecord>| {
                drains += 1;
                most = most.max(recs.len());
            };
            assert_eq!(drive(&plan, &mut k, |k, n| run_chunked(k, &mut d, n, &mut fold)), steps);
            assert!(drains >= 4, "{spec:?}: {drains} drains");
            assert!(most as u64 <= CHUNK, "{spec:?}: {most} records in one drain");
            assert!(most > 0);
        }
    }

    /// Satellite fix: an empty latency histogram has no percentiles —
    /// report `null`, not a fake 0 indistinguishable from a real
    /// zero-statement latency.
    #[test]
    fn empty_histogram_percentiles_serialize_as_null() {
        let report = ServiceReport {
            shards: vec![ShardReport {
                shard: 0,
                steps: 0,
                wall: Duration::ZERO,
                all_finished: true,
                requests: 0,
                crashes: 0,
                recoveries: 0,
                latency: Hist::new(),
                per_prio: vec![Hist::new(); 3],
            }],
        };
        let lines = report.report_lines(&[("object", Json::from("toy"))]);
        for line in &lines {
            for key in ["p50", "p90", "p99"] {
                assert_eq!(line.get(key), Some(&Json::Null), "{key} of an empty histogram");
            }
        }
        // Non-empty histograms keep reporting integers.
        let report = toy_service(ServiceSpec::new(1, 2, 4).workers_per_shard(2), 3).run(1);
        let lines = report.report_lines(&[("object", Json::from("toy"))]);
        for line in &lines {
            assert!(line.get("p50").and_then(Json::as_u64).is_some());
        }
    }

    #[test]
    fn report_lines_carry_percentiles_and_split_cleanly() {
        let report = toy_service(ServiceSpec::new(2, 4, 8).workers_per_shard(2), 4).run(2);
        let lines = report.report_lines(&[("object", Json::from("toy"))]);
        assert_eq!(lines.len(), 3, "two shard lines + one total");
        let total = lines.last().unwrap();
        assert_eq!(total.get("kind").and_then(Json::as_str), Some("service_total"));
        assert_eq!(total.get("requests").and_then(Json::as_u64), Some(8));
        assert!(total.get("p50").and_then(Json::as_u64).is_some());
        assert!(total.get("per_prio").is_some());
        assert_eq!(
            total.get("cell").and_then(|c| c.get("object")).and_then(Json::as_str),
            Some("toy"),
        );
        // wall_ms leaves the canonical halves.
        for line in &lines {
            let (canon, timing) = split_timing(line);
            assert_eq!(canon.get("wall_ms"), None);
            assert!(timing.is_some());
        }
    }
}
