//! The `native` workload: the universal construction over real atomics.
//! `native::harness::run_universal(CounterSpec, counter_plans(2, PER, seed),
//! Pacing::Free)` runs two OS threads of `PER` fetch-and-adds each.
//!
//! Every run's full history is checked, not only the 63-op prefix the
//! linearizability oracle can search: the counter's results are distinct,
//! so sorting the records by output fixes the only possible linearization
//! order. Each output must equal the sum of the addends before it, and no
//! operation may be ordered after one that finished before it began
//! (checked against the ticket stamps with one suffix-minimum pass).
//!
//! The serial figure applies the same two plans through the same object
//! from one thread, alternating between the two sessions: the construction
//! without contention.
//!
//! The traced run times `Universal::new` and every `Universal::apply` on
//! two threads of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use hybrid_wf::generic::Universal;
use hybrid_wf::universal::CounterSpec;
use native::backend::NativeBackend;
use native::harness::{counter_plans, run_universal, Pacing};
use sched_sim::ids::ProcessId;
use sched_sim::kernel::OpRecord;

use crate::{measure_for, median, peak_rss_mib, ratio, time_setup, Args, Outcome};

/// Operations per thread.
const PER: usize = 1 << 16;
const THREADS: usize = 2;

type Counter = Universal<NativeBackend, CounterSpec>;

fn new_counter(backend: &NativeBackend) -> Counter {
    Universal::new(backend, CounterSpec, THREADS as u32, PER as u32)
}

/// Checks a counter run's full history against `plans`; see the module
/// docs. O(n log n) in the number of operations.
pub fn check_counter_history(records: &[OpRecord], plans: &[Vec<u64>]) -> Result<(), String> {
    let total: usize = plans.iter().map(Vec::len).sum();
    if records.len() != total {
        return Err(format!(
            "{} records for {total} planned operations",
            records.len()
        ));
    }
    let mut seen: Vec<Vec<bool>> = plans.iter().map(|p| vec![false; p.len()]).collect();
    for r in records {
        let slot = seen
            .get_mut(r.pid.0 as usize)
            .and_then(|s| s.get_mut(r.inv_index as usize))
            .ok_or_else(|| format!("record for unplanned operation {r:?}"))?;
        if std::mem::replace(slot, true) {
            return Err(format!("operation recorded twice: {r:?}"));
        }
        if r.output.is_none() {
            return Err(format!("operation without a result: {r:?}"));
        }
    }
    let mut order: Vec<&OpRecord> = records.iter().collect();
    order.sort_unstable_by_key(|r| r.output);
    let mut value = 0u64;
    for r in &order {
        if r.output != Some(value) {
            return Err(format!("expected counter value {value}, got {r:?}"));
        }
        value += plans[r.pid.0 as usize][r.inv_index as usize];
    }
    let mut min_end = u64::MAX;
    for r in order.iter().rev() {
        if min_end < r.start {
            return Err(format!(
                "{r:?} is ordered after an operation that ended before it began"
            ));
        }
        min_end = min_end.min(r.t);
    }
    Ok(())
}

/// Both plans through one object from the calling thread, alternating
/// sessions. Returns the records and the wall time of the apply loop.
fn run_serial(plans: &[Vec<u64>]) -> (Vec<OpRecord>, Duration) {
    let backend = NativeBackend::free();
    let obj = new_counter(&backend);
    let mut sessions: Vec<_> = (0..THREADS as u32).map(|p| obj.session(p)).collect();
    let mut records = Vec::with_capacity(THREADS * PER);
    let mut clock = 0u64;
    let t = Instant::now();
    for inv in 0..PER {
        for (pid, (s, plan)) in sessions.iter_mut().zip(plans).enumerate() {
            let start = clock;
            let out = obj.apply(s, &plan[inv]);
            records.push(OpRecord {
                start,
                t: start + 1,
                pid: ProcessId(pid as u32),
                inv_index: inv as u32,
                output: Some(out),
            });
            clock += 2;
        }
    }
    (records, t.elapsed())
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let plans = counter_plans(THREADS, PER, args.seed);
    if args.trace {
        traced(&mut out, &plans);
        return out;
    }
    let setup = || {
        (
            new_counter(&NativeBackend::free()),
            counter_plans(THREADS, PER, args.seed),
        )
    };
    let mut setups = vec![time_setup(1, setup)];
    let (mut par, mut ser, mut accesses) = (Vec::new(), Vec::new(), Vec::new());
    let ops = (THREADS * PER) as u64;
    measure_for(args.seconds, || {
        setups.push(time_setup(1, setup));
        let run = run_universal(CounterSpec, plans.clone(), Pacing::Free);
        let (serial, serial_wall) = run_serial(&plans);
        for records in [&run.records, &serial] {
            out.attempted += ops;
            if let Err(e) = check_counter_history(records, &plans) {
                eprintln!("perfbench: native history check: {e}");
                out.failed += ops;
            }
        }
        par.push(run.wall.as_secs_f64());
        ser.push(serial_wall.as_secs_f64());
        accesses.push(run.accesses as f64 / ops as f64);
    });
    println!(
        "native: ops_per_s {:.0} ops/s ({} runs)",
        ops as f64 / median(&par),
        par.len()
    );
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", median(&par));
    out.metric("serial_wall_s", median(&ser));
    out.metric("steps_per_item", median(&accesses));
    out.metric("peak_rss_mib", peak_rss_mib());
    out
}

/// One thread's share of the traced run.
struct ThreadLog {
    records: Vec<OpRecord>,
    latencies: Vec<u64>,
    duplicate_slots: u64,
}

fn traced(out: &mut Outcome, plans: &[Vec<u64>]) {
    let ops = (THREADS * PER) as u64;
    let untraced = run_universal(CounterSpec, plans.to_vec(), Pacing::Free);
    out.attempted += ops;
    if let Err(e) = check_counter_history(&untraced.records, plans) {
        eprintln!("perfbench: native history check: {e}");
        out.failed += ops;
    }

    let sample_ns = |n: usize, f: &dyn Fn()| {
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64
            })
            .collect();
        median(&samples)
    };
    let universal_new_ns = sample_ns(9, &|| drop(new_counter(&NativeBackend::free())));
    let spawn_join_ns = sample_ns(21, &|| {
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {});
            }
        })
    });

    let backend = NativeBackend::free();
    let obj = new_counter(&backend);
    let clock = AtomicU64::new(0);
    let t = Instant::now();
    let logs: Vec<ThreadLog> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|pid| {
                let (backend, obj, clock) = (&backend, &obj, &clock);
                let plan = &plans[pid];
                s.spawn(move || {
                    backend.register(pid as u32);
                    let mut session = obj.session(pid as u32);
                    let mut log = ThreadLog {
                        records: Vec::with_capacity(plan.len()),
                        latencies: Vec::with_capacity(plan.len()),
                        duplicate_slots: 0,
                    };
                    for (inv, op) in plan.iter().enumerate() {
                        let start = clock.fetch_add(1, Ordering::SeqCst);
                        let t = Instant::now();
                        let result = obj.apply(&mut session, op);
                        log.latencies.push(t.elapsed().as_nanos() as u64);
                        let end = clock.fetch_add(1, Ordering::SeqCst);
                        log.records.push(OpRecord {
                            start,
                            t: end,
                            pid: ProcessId(pid as u32),
                            inv_index: inv as u32,
                            output: Some(result),
                        });
                    }
                    backend.finish(pid as u32);
                    log.duplicate_slots = session.duplicate_retries;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced native thread panicked"))
            .collect()
    });
    let traced_wall = t.elapsed();

    let records: Vec<OpRecord> = logs
        .iter()
        .flat_map(|l| l.records.iter().cloned())
        .collect();
    out.attempted += ops;
    if let Err(e) = check_counter_history(&records, plans) {
        eprintln!("perfbench: native traced history check: {e}");
        out.failed += ops;
    }
    let mut latencies: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.latencies.iter().copied())
        .collect();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize] as f64;
    let duplicates: u64 = logs.iter().map(|l| l.duplicate_slots).sum();
    out.metric("generic.universal_new.ns", universal_new_ns);
    out.metric("generic.apply.calls", latencies.len() as f64);
    out.metric("generic.apply.p50_ns", pct(0.50));
    out.metric("generic.apply.p99_ns", pct(0.99));
    out.metric(
        "native.accesses_per_op",
        ratio(backend.accesses() as f64, ops as f64),
    );
    out.metric(
        "native.useful_slot_ratio",
        ratio(ops as f64, (ops + duplicates) as f64),
    );
    out.metric("native.spawn_join.ns", spawn_join_ns);
    out.metric(
        "trace.overhead_s",
        traced_wall.as_secs_f64() - untraced.wall.as_secs_f64(),
    );
    println!(
        "native: untraced {:.4} s ({} duplicate slots), traced {:.4} s ({duplicates} duplicate slots)",
        untraced.wall.as_secs_f64(),
        untraced.retries,
        traced_wall.as_secs_f64()
    );
}
