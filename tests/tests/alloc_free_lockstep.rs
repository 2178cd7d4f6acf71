//! Lockstep grants allocate nothing, pinned by a counting allocator.
//!
//! A lockstep run pays a fixed set-up (the worker threads, the pacing
//! kernel and its stand-in processes, one op record per process) and
//! then, per statement, one kernel step and two handoffs through a mutex
//! and condvars, none of which allocates. So a run of twice the
//! statements allocates no more than the shorter one, give or take a
//! stray one-shot allocation.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use std::thread;

use integration_tests::CountingAlloc;
use native::backend::NativeBackend;
use wfmem::backend::MemBackend;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Allocations of one two-process lockstep run of `steps` direct steps
/// in all, backend construction included.
fn allocations(steps: usize) -> u64 {
    let before = GLOBAL.count();
    let b = NativeBackend::lockstep(&[1, 1], 8, 1);
    let handles: Vec<_> = (0..2)
        .map(|pid| {
            let b = b.clone();
            thread::spawn(move || {
                b.register(pid);
                (0..steps / 2).for_each(|_| b.step());
                b.finish(pid);
            })
        })
        .collect();
    let kernel = b.pace().expect("a lockstep backend");
    b.join(handles);
    assert_eq!(kernel.counters().statements, steps as u64);
    GLOBAL.count() - before
}

#[test]
fn lockstep_grants_allocate_nothing() {
    let (short, long) = (allocations(2_000), allocations(4_000));
    assert!(
        long.abs_diff(short) < 10,
        "2,000 lockstep steps made {short} allocations and 4,000 made {long}: grants allocate"
    );
}
