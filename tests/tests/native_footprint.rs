//! The native universal object's footprint, pinned by a counting
//! allocator.
//!
//! A native cell is one `AtomicU64` on a cache line of its own: the
//! backend takes the step, so the cell holds no handle to it. The
//! benchmark's object — two processes, 2¹⁶ operations each — has 393,221
//! cells (262,147 log slots, 131,072 published words, 2 announce words),
//! so building it requests one 64-byte line per cell plus a few Vec
//! headers, in a handful of allocations: one per cell array.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use hybrid_wf::generic::Universal;
use hybrid_wf::universal::CounterSpec;
use integration_tests::CountingAlloc;
use native::backend::NativeBackend;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// Cells in a two-process object of 2¹⁶ operations per process: the log's
/// `2·n·per + n + 1` slots, `n·per` published words and `n` announce words.
const CELLS: u64 = (2 * 2 * (1 << 16) + 2 + 1) + 2 * (1 << 16) + 2;

/// One cache line per cell.
const CELL_BYTES: u64 = 64;

/// Room for the Vec headers of the published table.
const SLACK_BYTES: u64 = 4096;

/// At most one allocation per cell array, and a few to spare.
const MAX_ALLOCS: u64 = 8;

/// Builds the object and bounds the bytes and allocations it requests.
/// Retried like the other allocation pins: a stray one-shot allocation of
/// the test harness lands in at most one run.
#[test]
fn native_universal_requests_one_line_per_cell() {
    assert_eq!(CELLS, 393_221);
    let b = NativeBackend::free();
    let (mut allocs, mut bytes) = (u64::MAX, u64::MAX);
    for _attempt in 0..3 {
        let (a0, b0) = (GLOBAL.count(), GLOBAL.bytes());
        let u = Universal::<NativeBackend, CounterSpec>::new(&b, CounterSpec, 2, 1 << 16);
        (allocs, bytes) = (GLOBAL.count() - a0, GLOBAL.bytes() - b0);
        drop(u);
        if allocs <= MAX_ALLOCS && bytes <= CELL_BYTES * CELLS + SLACK_BYTES {
            break;
        }
    }
    assert!(
        bytes <= CELL_BYTES * CELLS + SLACK_BYTES,
        "Universal::new requested {bytes} B for {CELLS} cells ({:.1} B per cell; bound {CELL_BYTES} \
         B per cell + {SLACK_BYTES} B)",
        bytes as f64 / CELLS as f64
    );
    assert!(allocs <= MAX_ALLOCS, "Universal::new made {allocs} allocations (bound {MAX_ALLOCS})");
}
