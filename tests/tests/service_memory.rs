//! A deterministic memory pin for the request-serving engine: the peak
//! heap a service run holds grows by at most 120 bytes per request.
//!
//! The engine folds each shard's op log into its latency histograms one
//! chunk of statements at a time, so the op log costs a fixed chunk, not
//! two 40-byte records per request (a request and its think). What still
//! grows with the request count is the object itself: the universal log
//! and the per-process op arenas.
//!
//! The pin is the *marginal* peak: the difference between the peak live
//! heap of a run with 2^16 requests and one with 2^14, per extra request,
//! so every fixed cost (threads, kernel tables, the one op-log chunk)
//! cancels out. It counts bytes through the allocator and reads no clock.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use std::sync::Arc;

use hybrid_wf::service::{session_mem, OpGen, SessionMachine};
use hybrid_wf::universal::CounterSpec;
use integration_tests::CountingAlloc;
use sched_sim::prelude::{Scenario, Service, ServiceSpec, SystemSpec};
use sched_sim::service::Arrival;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Peak live heap bytes above the starting level while `Service::run(1)`
/// serves `requests` requests on one shard of a closed-loop counter
/// service: four workers, 64 clients, 8-statement thinks.
fn peak_live_bytes(requests: u64) -> u64 {
    let spec = ServiceSpec::new(1, 64, requests)
        .workers_per_shard(4)
        .arrival(Arrival::ClosedLoop { think: 8 });
    let service = Service::new(spec, |plan| {
        let reqs: Vec<u64> = (0..plan.workers).map(|w| plan.worker_requests(w)).collect();
        let mut s = Scenario::new(session_mem::<CounterSpec>(&reqs), SystemSpec::hybrid(8));
        for w in 0..plan.workers {
            let gen: OpGen<CounterSpec> = Arc::new(|client, _seq| (client % 1000) + 1);
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
    let base = GLOBAL.live();
    GLOBAL.reset_peak();
    let report = service.run(1);
    let peak = GLOBAL.peak_live() - base;
    assert!(report.all_finished());
    assert_eq!(report.requests(), requests);
    peak
}

#[test]
fn service_peak_heap_per_request_is_pinned() {
    let (small, large) = (1u64 << 14, 1u64 << 16);
    let (p_small, p_large) = (peak_live_bytes(small), peak_live_bytes(large));
    let per_request = (p_large - p_small) as f64 / (large - small) as f64;
    assert!(
        per_request <= 120.0,
        "service peak live heap grows {per_request:.1} B per request \
         ({p_small} B at {small} requests, {p_large} B at {large})"
    );
}
