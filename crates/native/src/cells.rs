//! Cache-line padding and striped counting: the building blocks of the
//! native backend's cells.
//!
//! Each [`NativeBackend`](crate::backend::NativeBackend) cell is one
//! `AtomicU64` wrapped in [`Padded`], a `#[repr(align(64))]` box that
//! rounds the cell up to a full x86-64/ARM cache line, and nothing else:
//! the backend takes the step, so the cell holds no handle to it and a
//! slice of cells is a slice of words, one line each. Shared cells that
//! the algorithms hammer from many threads (the Fig. 3 slots, the
//! universal log) would otherwise false-share a line and serialize on the
//! coherence protocol; padding makes contention a property of the
//! *algorithm*, not of allocator adjacency — the discipline the ROADMAP's
//! `waitfree-sync` exemplar follows.
//!
//! `⊥` is represented by the same [`EMPTY`] sentinel (`u64::MAX`) the
//! simulator's queue spec already uses; register and consensus cells
//! therefore cannot store `u64::MAX` itself (asserted). The cells and
//! their memory orderings live in [`backend`](crate::backend); the
//! orderings are justified in `BACKENDS.md`.

use std::sync::atomic::{AtomicU64, Ordering};

/// `⊥` for value-carrying atomic words.
pub const EMPTY: u64 = u64::MAX;

/// Pads (and aligns) `T` to a 64-byte cache line to prevent false sharing.
///
/// # Examples
///
/// ```
/// use native::cells::Padded;
/// use std::sync::atomic::AtomicU64;
///
/// let p = Padded::new(AtomicU64::new(0));
/// assert_eq!(std::mem::align_of_val(&p), 64);
/// assert!(std::mem::size_of_val(&p) >= 64);
/// ```
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Padded<T> {
    value: T,
}

impl<T> Padded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        Padded { value }
    }

    /// The padded value.
    pub fn get(&self) -> &T {
        &self.value
    }
}

/// A striped event counter: `LANES` cache-line-padded `u64` lanes, each
/// thread incrementing its own lane, summed once at the end of a run.
///
/// Counting retries or accesses through a single shared counter would put
/// one hot line on every fast path and distort exactly the contention
/// being measured; striping (const-generic, so the lane array is inline
/// with no allocation) makes the accounting itself contention-free for up
/// to `LANES` concurrent threads and merely contended — never wrong —
/// beyond that.
///
/// # Examples
///
/// ```
/// use native::cells::StripedCounter;
///
/// let c: StripedCounter<4> = StripedCounter::new();
/// c.add(0, 2);
/// c.add(7, 3); // lane index wraps modulo LANES
/// assert_eq!(c.sum(), 5);
/// ```
#[derive(Debug)]
pub struct StripedCounter<const LANES: usize> {
    lanes: [Padded<AtomicU64>; LANES],
}

impl<const LANES: usize> StripedCounter<LANES> {
    /// A zeroed counter.
    pub fn new() -> Self {
        StripedCounter { lanes: std::array::from_fn(|_| Padded::new(AtomicU64::new(0))) }
    }

    /// Adds `n` to lane `lane % LANES` (relaxed; the total is read only
    /// after threads join, which synchronizes).
    pub fn add(&self, lane: usize, n: u64) {
        self.lanes[lane % LANES].get().fetch_add(n, Ordering::Relaxed);
    }

    /// The sum over all lanes.
    pub fn sum(&self) -> u64 {
        self.lanes.iter().map(|l| l.get().load(Ordering::Relaxed)).sum()
    }
}

impl<const LANES: usize> Default for StripedCounter<LANES> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{cas_clause, cons_clause, reg_clause};
    use crate::backend::{NativeBackend, NativeCas, NativeCons, NativeReg};
    use std::sync::Arc;
    use std::thread;
    use wfmem::backend::MemBackend;

    // The native runs of the cell contract's register, C&S and consensus
    // clauses (see `backend::tests`).
    #[test]
    fn reg_cell_roundtrip() {
        reg_clause(NativeBackend::free(), NativeBackend::accesses);
    }

    #[test]
    fn cas_cell_semantics() {
        cas_clause(NativeBackend::free(), NativeBackend::accesses);
    }

    #[test]
    fn cons_cell_first_proposal_wins() {
        cons_clause(NativeBackend::free(), NativeBackend::accesses);
    }

    #[test]
    fn padded_cells_occupy_distinct_cache_lines() {
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<Padded<AtomicU64>>(), 64);
        // Each backend cell is its word alone on one line, so no two
        // cells' words share a line and no cell spends a line on anything
        // else.
        for (align, size) in [
            (std::mem::align_of::<NativeReg>(), std::mem::size_of::<NativeReg>()),
            (std::mem::align_of::<NativeCas>(), std::mem::size_of::<NativeCas>()),
            (std::mem::align_of::<NativeCons>(), std::mem::size_of::<NativeCons>()),
        ] {
            assert_eq!((align, size), (64, 64));
        }
    }

    // Seeded stress loops (the in-tree-deps substitute for loom): hammer
    // each cell from several threads across many rounds and assert the
    // single-winner / monotone invariants that must hold under *any*
    // interleaving. Seeds vary the per-thread work pattern so repeated CI
    // runs explore different timings.
    #[test]
    fn stress_cons_cell_single_winner() {
        let b = NativeBackend::free();
        for round in 0..50u64 {
            let c = Arc::new(b.cons());
            let winners: Vec<u64> = (0..4u64)
                .map(|t| {
                    let (b, c) = (b.clone(), Arc::clone(&c));
                    thread::spawn(move || {
                        // Seed-dependent spin varies arrival order.
                        for _ in 0..((round * 7 + t * 13) % 32) {
                            std::hint::spin_loop();
                        }
                        b.decide(&c, t + 1)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let first = winners[0];
            assert!(winners.iter().all(|&w| w == first), "round {round}: split decision");
            assert!((1..=4).contains(&first));
            assert_eq!(b.read_decided(&c), Some(first));
        }
    }

    #[test]
    fn stress_cas_cell_counter_loses_no_increments() {
        let b = NativeBackend::free();
        for _round in 0..20 {
            let w = Arc::new(b.cas(0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let (b, w) = (b.clone(), Arc::clone(&w));
                    thread::spawn(move || {
                        for _ in 0..100 {
                            loop {
                                let v = b.read_word(&w);
                                if b.compare_swap(&w, v, v + 1) {
                                    break;
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(b.read_word(&w), 400);
        }
    }

    #[test]
    fn stress_striped_counter_exact_under_contention() {
        let c = Arc::new(StripedCounter::<8>::new());
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        c.add(t, i % 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Per thread: sum of i % 3 for i in 0..500 = 166 * 3 + 0 + 1.
        assert_eq!(c.sum(), 6 * 499);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn reg_rejects_sentinel() {
        let b = NativeBackend::free();
        b.write(&b.reg(), u64::MAX);
    }
}
