//! Cross-crate integration tests live in `tests/`; this library holds the
//! tooling they share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every allocation (alloc, realloc,
/// alloc_zeroed) and the bytes each one requests (a realloc's new size).
/// Deallocations are not counted — the allocation tests are about
/// acquiring memory on the hot path and at construction.
///
/// A test file installs it as its own `#[global_allocator]` static and
/// reads [`CountingAlloc::count`] (and [`CountingAlloc::bytes`]) around
/// the window it measures. The counts are process-wide, so such a file
/// holds a single test: a second, concurrently running test would pollute
/// the window.
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero, for a `static`.
    pub const fn new() -> Self {
        CountingAlloc { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) }
    }

    /// Allocations so far, process-wide.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes requested so far, process-wide.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    fn note(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: defers entirely to `System`; the counters are relaxed atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        System.alloc_zeroed(layout)
    }
}
