//! `Kernel::run` is `Kernel::step` repeated, although it dispatches only
//! where a quantum window opens: inside a window whose holder must
//! continue (Axiom 2) it executes the holder's statements without
//! redoing the dispatch.
//!
//! Every scenario here drives two identical kernels, one with `run` and
//! one with as many calls of `step`, each under its own copy of the same
//! decider wrapped in a recorder of every `(choice kind, n, answer)`, and
//! asserts that both end with the same statement count, clock, op
//! records, counters, per-process stats and outputs, memory, choice
//! sequence and attached trace and profile. The scenarios cover the
//! flagship service shard, open-loop releases and client churn between or
//! inside windows, Fig. 7 on one and two processors, scheduled crashes,
//! and a higher-priority release between runs. Debug builds also check
//! each skipped dispatch inside the kernel itself.

use std::fmt::Debug;
use std::sync::Arc;

use hybrid_wf::multi::consensus::LocalMode;
use hybrid_wf::service::{session_mem, OpGen, SessionMachine};
use hybrid_wf::universal::{CounterSpec, UniversalMem};
use lowerbound::adversary::{adversary_for_seed, fig7_scenario};
use lowerbound::service::SERVICE_Q;
use sched_sim::decision::Choice;
use sched_sim::history::StmtEffect;
use sched_sim::obs::{ObsEvent, WindowCloseReason};
use sched_sim::prelude::{
    Arrival, Decider, FnMachine, Kernel, Priority, ProcessId, ProcessorId, RoundRobin, Scenario,
    SeededRandom, Service, ServiceSpec, ShardPlan, StepMachine, StepOutcome, SystemSpec,
};
use sched_sim::service::ChurnSpec;

/// Wraps a decider and folds every choice it makes, as
/// `(kind, n, answer)`, into a count and an FNV-1a digest: the flagship
/// shard takes millions of decisions, too many to keep.
struct Recorder {
    inner: Box<dyn Decider>,
    calls: u64,
    digest: u64,
}

impl Recorder {
    fn new(inner: Box<dyn Decider>) -> Self {
        Recorder { inner, calls: 0, digest: 0xcbf2_9ce4_8422_2325 }
    }

    fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn choices(&self) -> (u64, u64) {
        (self.calls, self.digest)
    }
}

impl Decider for Recorder {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        let kind = match choice.kind() {
            "cpu" => 1,
            "holder" => 2,
            _ => 3,
        };
        let answer = self.inner.choose(choice, n);
        self.calls += 1;
        for word in [kind, n as u64, answer as u64] {
            self.fold(word);
        }
        answer
    }
}

/// What a scenario does between two stretches of statements.
#[derive(Clone, Copy, Debug)]
enum Between {
    Nothing,
    Release(u32),
    Crash(u32),
    Recover(u32),
}

/// One side of a comparison: a kernel and its recorded decider.
struct Side<M> {
    k: Kernel<M>,
    d: Recorder,
}

impl<M> Side<M> {
    fn new(mut k: Kernel<M>, d: Box<dyn Decider>, observe: bool) -> Self {
        if observe {
            k.attach_obs();
            k.attach_prof();
        }
        Side { k, d: Recorder::new(d) }
    }

    fn apply(&mut self, between: Between) {
        match between {
            Between::Nothing => {}
            Between::Release(p) => self.k.release(ProcessId(p)),
            Between::Crash(p) => self.k.crash(ProcessId(p)),
            Between::Recover(p) => self.k.recover(ProcessId(p)),
        }
    }

    /// Up to `n` statements by `Kernel::run`.
    fn by_run(&mut self, n: u64) -> u64 {
        self.k.run(&mut self.d, n)
    }

    /// Up to `n` statements by `Kernel::step`, stopping where `run` stops:
    /// at the first quiescent step.
    fn by_step(&mut self, n: u64) -> u64 {
        let mut ran = 0;
        while ran < n && self.k.step(&mut self.d).is_some() {
            ran += 1;
        }
        ran
    }
}

/// Asserts that two sides are in the same state.
fn assert_same<M: PartialEq + Debug>(a: &Side<M>, b: &Side<M>, what: &str) {
    let (ka, kb) = (&a.k, &b.k);
    assert_eq!(ka.clock(), kb.clock(), "{what}: clock");
    assert_eq!(ka.counters(), kb.counters(), "{what}: counters");
    assert!(ka.ops() == kb.ops(), "{what}: op records differ");
    for p in 0..ka.n_processes() as u32 {
        let pid = ProcessId(p);
        assert_eq!(ka.stats(pid), kb.stats(pid), "{what}: stats of {pid:?}");
        assert_eq!(ka.output(pid), kb.output(pid), "{what}: output of {pid:?}");
        assert_eq!(ka.is_finished(pid), kb.is_finished(pid), "{what}: status of {pid:?}");
    }
    assert!(ka.mem == kb.mem, "{what}: memory differs");
    assert_eq!(a.d.choices(), b.d.choices(), "{what}: choice sequences");
    assert!(ka.obs() == kb.obs(), "{what}: traces differ");
    assert!(ka.prof() == kb.prof(), "{what}: profiles differ");
}

/// Drives `build()` through `plan` (stretches of at most `n` statements,
/// each followed by an action) with `run` on one side and `step` on the
/// other, checking after every stretch that both ran the same count and
/// reached the same state. Returns the `run` side.
fn compare<M: PartialEq + Debug>(
    what: &str,
    build: impl Fn() -> Kernel<M>,
    decider: impl Fn() -> Box<dyn Decider>,
    observe: bool,
    plan: &[(u64, Between)],
) -> Side<M> {
    let mut by_run = Side::new(build(), decider(), observe);
    let mut by_step = Side::new(build(), decider(), observe);
    for (i, &(n, between)) in plan.iter().enumerate() {
        let what = format!("{what}, stretch {i}");
        assert_eq!(by_run.by_run(n), by_step.by_step(n), "{what}: statements run");
        assert_same(&by_run, &by_step, &what);
        by_run.apply(between);
        by_step.apply(between);
    }
    by_run
}

/// A session-machine counter service, as the flagship `service` workload
/// builds it.
fn counter_service(
    spec: ServiceSpec,
) -> Service<
    UniversalMem<CounterSpec>,
    impl Fn(&ShardPlan) -> Scenario<UniversalMem<CounterSpec>> + Sync,
> {
    let gen: OpGen<CounterSpec> = Arc::new(|client, _seq| (client % 1000) + 1);
    Service::new(spec, move |plan| {
        let reqs: Vec<u64> = (0..plan.workers).map(|w| plan.worker_requests(w)).collect();
        let mut s = Scenario::new(session_mem::<CounterSpec>(&reqs), SystemSpec::hybrid(SERVICE_Q));
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
    })
}

fn round_robin() -> Box<dyn Decider> {
    Box::new(RoundRobin::new())
}

#[test]
fn flagship_shard_runs_as_it_steps() {
    let spec = ServiceSpec::new(8, 1024, 1 << 20)
        .workers_per_shard(4)
        .arrival(Arrival::ClosedLoop { think: 8 });
    let service = counter_service(spec);
    let side = compare(
        "flagship shard 0",
        || service.shard_kernel(0),
        round_robin,
        false,
        &[(spec.budget, Between::Nothing)],
    );
    assert!(side.k.all_finished());
    // The shape the dispatch-once-per-window claim rests on: a window per
    // six statements or so, and a holder decision at all but two of them.
    let c = side.k.counters();
    assert_eq!((c.statements, c.windows_opened, c.decisions), (1_703_934, 278_528, 278_526));
}

#[test]
fn open_loop_releases_between_runs() {
    let spec = ServiceSpec::new(1, 16, 1 << 10)
        .workers_per_shard(4)
        .arrival(Arrival::OpenLoop { cohorts: 4, period: 100 });
    let service = counter_service(spec);
    // Workers 1..=3 arrive one cohort each, 100 statements apart.
    let plan = [
        (100, Between::Release(1)),
        (100, Between::Release(2)),
        (100, Between::Release(3)),
        (spec.budget, Between::Nothing),
    ];
    for observe in [false, true] {
        let side = compare("open loop", || service.shard_kernel(0), round_robin, observe, &plan);
        assert!(side.k.all_finished());
        assert_eq!(side.k.counters().releases, 3);
    }
}

#[test]
fn churn_crashes_inside_windows() {
    let spec = ServiceSpec::new(1, 16, 1 << 9)
        .workers_per_shard(4)
        .prio_levels(1)
        .arrival(Arrival::ClosedLoop { think: 8 })
        .churn(ChurnSpec { victims: 2, period: 37, down: 11, cycles: 6 });
    let service = counter_service(spec);
    let side = compare(
        "churn",
        || service.shard_kernel(0),
        round_robin,
        true,
        &[(500, Between::Nothing), (spec.budget, Between::Nothing)],
    );
    assert!(side.k.all_finished());
    // Lifecycle instants land mid-window: right after a statement that
    // left its holder's window open, and some close the victim's own.
    let events = &side.k.obs().expect("trace attached").events;
    let mid_window = events
        .windows(2)
        .filter(|w| {
            matches!(w[0], ObsEvent::Stmt { effect: StmtEffect::Continue, .. })
                && matches!(w[1], ObsEvent::Crash { .. } | ObsEvent::Recover { .. })
        })
        .count();
    let victim_windows = events
        .iter()
        .filter(|e| matches!(e, ObsEvent::WindowClose { reason: WindowCloseReason::Crashed, .. }))
        .count();
    assert!(mid_window > 0 && victim_windows > 0, "{mid_window} {victim_windows}");
}

#[test]
fn fig7_runs_as_it_steps() {
    for p in [1, 2] {
        for q in [1, 3, 8] {
            for seed in 0..4 {
                let s = fig7_scenario(p, p + 1, 3, 1, q, LocalMode::Modeled);
                let side = compare(
                    &format!("fig7 P={p} Q={q} seed {seed}"),
                    || s.kernel(),
                    || adversary_for_seed(seed),
                    seed == 0,
                    &[(s.budget(), Between::Nothing)],
                );
                assert!(side.k.all_finished());
                if p == 2 {
                    // Every statement is a cpu decision until one
                    // processor is done.
                    assert!(side.k.counters().decisions >= side.k.clock() / 2);
                }
            }
        }
    }
}

/// A process that appends `tag` to the shared log, `len` statements per
/// invocation, for `invs` invocations.
fn logger(tag: u64, len: u32, invs: u32) -> Box<dyn StepMachine<Vec<u64>>> {
    Box::new(FnMachine::new(move |mem: &mut Vec<u64>, calls| {
        mem.push(tag);
        let end = (calls + 1) % len == 0;
        if end && (calls + 1) / len >= invs {
            (StepOutcome::Finished, Some(u64::from(calls + 1)))
        } else if end {
            (StepOutcome::InvocationEnd, Some(u64::from(calls + 1)))
        } else {
            (StepOutcome::Continue, None)
        }
    }))
}

#[test]
fn scheduled_crashes_run_as_they_step() {
    let build = || {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(4).with_adversarial_alignment());
        for (i, len) in [5, 7, 3, 9].into_iter().enumerate() {
            k.add_process(ProcessorId(0), Priority(1), logger(i as u64, len, 6));
        }
        k.add_process(ProcessorId(1), Priority(1), logger(9, 4, 5));
        // Crash and recover instants inside and between windows, one
        // pair of them past the last statement (fired as the system
        // quiesces).
        for (t, pid) in [(3, 0), (6, 1), (11, 2), (12, 0), (20, 4), (31, 3)] {
            k.schedule_crash(t, ProcessId(pid));
            k.schedule_recover(t + 5, ProcessId(pid));
        }
        k.schedule_crash(1_000, ProcessId(1));
        k.schedule_recover(1_001, ProcessId(1));
        k
    };
    for seed in 0..8 {
        let side = compare(
            &format!("scheduled crashes, seed {seed}"),
            build,
            || Box::new(SeededRandom::new(seed)),
            seed % 2 == 0,
            &[(13, Between::Nothing), (1_000, Between::Nothing)],
        );
        assert!(side.k.all_finished());
        assert!(side.k.counters().crashes >= 6);
    }
}

#[test]
fn higher_priority_release_between_runs() {
    let build = || {
        let mut k = Kernel::new(Vec::new(), SystemSpec::hybrid(5));
        k.add_process(ProcessorId(0), Priority(1), logger(0, 7, 4));
        k.add_process(ProcessorId(0), Priority(1), logger(1, 4, 6));
        k.add_held_process(ProcessorId(0), Priority(2), logger(2, 6, 2));
        k.add_held_process(ProcessorId(0), Priority(3), logger(3, 3, 2));
        k.enable_crashes();
        k
    };
    // Releases land mid-window of a lower-priority holder; a manual crash
    // and recovery of a low-priority process ride along.
    let plan = [
        (3, Between::Release(2)),
        (2, Between::Crash(1)),
        (4, Between::Release(3)),
        (9, Between::Recover(1)),
        (1_000, Between::Nothing),
    ];
    for observe in [false, true] {
        let side = compare("mixed priorities", build, round_robin, observe, &plan);
        assert!(side.k.all_finished());
        assert!(side.k.counters().higher_prio_preemptions > 0);
    }
}

#[test]
fn run_in_pieces_equals_one_run() {
    let spec = ServiceSpec::new(2, 16, 1 << 9)
        .workers_per_shard(4)
        .arrival(Arrival::ClosedLoop { think: 3 });
    let service = counter_service(spec);
    let fig7 = fig7_scenario(1, 2, 3, 1, 4, LocalMode::Modeled);
    for piece in 1..=17u64 {
        let mut whole = Side::new(service.shard_kernel(1), round_robin(), true);
        let mut pieces = Side::new(service.shard_kernel(1), round_robin(), true);
        whole.by_run(spec.budget);
        while pieces.by_run(piece) == piece {}
        assert_same(&whole, &pieces, &format!("service shard in pieces of {piece}"));

        let mut whole = Side::new(fig7.kernel(), adversary_for_seed(piece), false);
        let mut pieces = Side::new(fig7.kernel(), adversary_for_seed(piece), false);
        whole.by_run(fig7.budget());
        while pieces.by_run(piece) == piece {}
        assert_same(&whole, &pieces, &format!("fig7 in pieces of {piece}"));
    }
}
