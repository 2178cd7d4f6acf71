//! Allocations per kernel fork in a serial exploration, pinned by a
//! counting allocator.
//!
//! A fork is a kernel clone the explorer pushes at a decision point. The
//! clone copies the process and processor tables and shares every machine
//! and the op log copy-on-write; the fork's first steps then copy each
//! machine they run and, on a completed invocation, the op log. The
//! bound holds the whole of that to a few allocations per fork: the step
//! scratch buffers live inline in the kernel, so a fork never re-creates
//! them, a shared machine is copied straight into a fresh `Arc`, and a
//! shared op log is copied once, with room for the record being pushed.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use integration_tests::CountingAlloc;
use lowerbound::explore_grid::fig3_kernel;
use sched_sim::explore::{explore, ExploreBounds, Truncation, Verdict};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// The bound on allocations per fork. The exploration below makes 48,316
/// allocations over its 10,286 forks (4.70 per fork).
const MAX_ALLOCS_PER_FORK: f64 = 5.0;

/// Explores three-process Fig. 3 at Q = 8 serially and bounds the
/// allocations per fork.
///
/// Every work item — the root and each fork — runs one chain, and on an
/// untruncated run every chain ends at a terminal or at an already
/// visited state, so the run forked `terminals + deduped - 1` times.
/// Retried like the step-loop contract: a stray one-shot allocation of the
/// test harness lands in at most one run.
#[test]
fn serial_exploration_allocations_per_fork_bounded() {
    let k = fig3_kernel(8, &[1, 2, 3]);
    let mut per_fork = f64::INFINITY;
    for _attempt in 0..3 {
        let before = GLOBAL.count();
        let stats = explore(&k, ExploreBounds::default(), |_| Verdict::KeepGoing);
        let allocated = GLOBAL.count() - before;
        assert_eq!(stats.truncation, Truncation::None);
        let forks = stats.terminals + stats.deduped - 1;
        assert!(forks > 1_000, "only {forks} forks: too few to measure");
        per_fork = allocated as f64 / forks as f64;
        if per_fork <= MAX_ALLOCS_PER_FORK {
            break;
        }
    }
    assert!(
        per_fork <= MAX_ALLOCS_PER_FORK,
        "serial exploration allocated {per_fork:.3} times per fork (bound {MAX_ALLOCS_PER_FORK}, \
         in three consecutive runs)"
    );
}
