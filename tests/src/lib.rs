//! Cross-crate integration tests live in `tests/`; this library holds the
//! tooling they share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every allocation (alloc, realloc,
/// alloc_zeroed). Deallocations are not counted — the allocation tests
/// are about acquiring memory on the hot path.
///
/// A test file installs it as its own `#[global_allocator]` static and
/// reads [`CountingAlloc::count`] around the window it measures. The
/// count is process-wide, so such a file holds a single test: a second,
/// concurrently running test would pollute the window.
pub struct CountingAlloc {
    allocs: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero, for a `static`.
    pub const fn new() -> Self {
        CountingAlloc { allocs: AtomicU64::new(0) }
    }

    /// Allocations so far, process-wide.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}
