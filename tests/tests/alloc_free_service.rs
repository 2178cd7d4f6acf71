//! The zero-allocation contract extended to the request-serving engine:
//! once a service shard's kernel is built (`Service::shard_kernel`), its
//! steady-state inner loop — kernel step path *plus* the session machine's
//! announce/decide/apply statements, the kernel's invocation-record
//! append, and the engine's periodic drain of that log — performs **no
//! heap allocation at all**.
//!
//! This is what makes the flagship `--service` runs (a million-plus
//! invocations) allocation-free after setup: `session_mem` reserves the
//! shared log, and grows it on first proposal, and reserves the
//! per-process op arenas, and the engine reserves one chunk of the
//! kernel's invocation log (`Kernel::reserve_ops`), drains it
//! (`Kernel::drain_ops`) after every chunk of statements, and a drained
//! log keeps its capacity. The counter object is used because its replica
//! state is a plain word (`CounterSpec::apply` is arithmetic); the queue's
//! `Vec`-cloning replay is an intentional, documented exception.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use std::sync::Arc;

use hybrid_wf::service::{session_mem, OpGen, SessionMachine};
use hybrid_wf::universal::{CounterSpec, UniversalMem};
use integration_tests::CountingAlloc;
use sched_sim::prelude::{Kernel, RoundRobin, Scenario, Service, ServiceSpec, SystemSpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// One shard of a closed-loop counter service, exactly as the engine
/// builds it: reserved shared memory, four session workers multiplexing
/// 64 clients, and one chunk of the kernel's invocation log reserved. The
/// request count is far beyond what the measurement windows consume, so
/// the workload never quiesces mid-window.
fn counter_shard_kernel() -> Kernel<UniversalMem<CounterSpec>> {
    let spec = ServiceSpec::new(1, 64, 1 << 16).workers_per_shard(4);
    let service = Service::new(spec, |plan| {
        let reqs: Vec<u64> = (0..plan.workers).map(|w| plan.worker_requests(w)).collect();
        let mut s = Scenario::new(session_mem::<CounterSpec>(&reqs), SystemSpec::hybrid(8));
        for w in 0..plan.workers {
            let gen: OpGen<CounterSpec> = Arc::new(|client, _seq| (client % 7) + 1);
            let m = SessionMachine::new(
                CounterSpec,
                w,
                plan.workers,
                plan.worker_requests(w),
                plan.think(),
                plan.worker_clients(w),
                gen,
            );
            plan.add_worker(&mut s, w, Box::new(m));
        }
        s
    });
    service.shard_kernel(0)
}

/// Statements between drains here. The engine drains after every chunk
/// of its own, which is longer, so a stretch this long never outgrows the
/// room `shard_kernel` reserved.
const DRAIN_EVERY: u32 = 1_000;

/// Warmup, then three retry windows of 4000 steps each, every window
/// spanning four drains of the op log: a stray one-shot lazy init (the
/// test harness's result-channel park) is absorbed by the next clean
/// window, while a real inner-loop regression allocates in every window
/// and still fails. Same discipline as `alloc_free_step.rs`.
#[test]
fn service_inner_loop_does_not_allocate() {
    let mut k = counter_shard_kernel();
    let mut decider = RoundRobin::new();
    let mut completed = 0;
    let mut stretch = |k: &mut Kernel<_>, completed: &mut usize| {
        for _ in 0..DRAIN_EVERY {
            assert!(k.step(&mut decider).is_some(), "service workload must never quiesce here");
        }
        *completed += k.drain_ops().len();
    };

    // Warmup: scratch buffers, decider state, and any first-invocation
    // paths reach steady state.
    stretch(&mut k, &mut completed);

    let mut allocated = 0;
    for _attempt in 0..3 {
        let before = GLOBAL.count();
        for _ in 0..4 {
            stretch(&mut k, &mut completed);
        }
        allocated = GLOBAL.count() - before;
        if allocated == 0 {
            break;
        }
    }

    assert_eq!(
        allocated, 0,
        "service inner loop allocated {allocated} times over 4000 steps and four drains \
         (in three consecutive windows)"
    );
    // The windows really served requests: the kernel recorded completed
    // invocations, and the replica advanced.
    // ~3–4 statements per closed-loop counter request ⇒ well over 1000
    // completions in the 5000+ steps driven above.
    assert!(completed >= 1_000, "only {completed} invocations completed");
}
