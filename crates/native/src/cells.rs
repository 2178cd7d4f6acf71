//! Cache-line-padded atomic cells: the native implementations of the
//! [`wfmem::backend`] cell traits.
//!
//! Each cell owns one `AtomicU64` wrapped in [`Padded`], a
//! `#[repr(align(64))]` box that rounds the cell up to a full x86-64/ARM
//! cache line. Shared cells that the algorithms hammer from many threads
//! (the Fig. 3 slots, the universal log) would otherwise false-share a
//! line and serialize on the coherence protocol; padding makes contention
//! a property of the *algorithm*, not of allocator adjacency — the
//! discipline the ROADMAP's `waitfree-sync` exemplar follows.
//!
//! `⊥` is represented by the same [`EMPTY`] sentinel (`u64::MAX`) the
//! simulator's queue spec already uses;
//! register and consensus cells therefore cannot store `u64::MAX` itself
//! (asserted). Memory orderings are chosen per cell and justified in
//! `BACKENDS.md`: registers are `SeqCst` (the read/write algorithms'
//! correctness arguments assume sequentially consistent registers),
//! C&S and consensus cells are `AcqRel`/`Acquire` (values synchronize
//! through the cell itself).

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

/// The native atomic register cell: one padded `AtomicU64`, `⊥` as
/// [`EMPTY`].
///
/// All accesses are `SeqCst`: the read/write consensus algorithms (Fig. 3,
/// the universal construction's announce/publish protocol) are argued
/// under sequentially consistent registers, and a relaxed register here
/// would make any observed disagreement ambiguous between "scheduler
/// admitted it" (the interesting measurement) and "store buffer reordered
/// it" (an artifact). See `BACKENDS.md` for the full argument.
#[derive(Debug)]
pub struct NativeRegCell {
    slot: Padded<AtomicU64>,
}

impl NativeRegCell {
    /// A register initialized to `⊥`.
    pub fn new() -> Self {
        NativeRegCell { slot: Padded::new(AtomicU64::new(EMPTY)) }
    }

    /// Atomically reads the register (`None` is `⊥`).
    pub fn load(&self) -> Option<u64> {
        match self.slot.get().load(Ordering::SeqCst) {
            EMPTY => None,
            v => Some(v),
        }
    }

    /// Atomically writes `v` (`v != u64::MAX`, the `⊥` sentinel).
    pub fn store(&self, v: u64) {
        assert_ne!(v, EMPTY, "u64::MAX is the ⊥ sentinel");
        self.slot.get().store(v, Ordering::SeqCst);
    }
}

impl Default for NativeRegCell {
    fn default() -> Self {
        Self::new()
    }
}

/// The native compare-and-swap cell: one padded `AtomicU64`.
///
/// `compare_exchange(old, new, AcqRel, Acquire)` + `load(Acquire)`: every
/// value written is released by the successful CAS and acquired by the
/// load or CAS that observes it, so data published before a CAS is
/// visible to whoever reads its value — the only ordering the C&S object
/// interface promises.
#[derive(Debug)]
pub struct NativeCasCell {
    word: Padded<AtomicU64>,
}

impl NativeCasCell {
    /// A word holding `init`.
    pub fn new(init: u64) -> Self {
        NativeCasCell { word: Padded::new(AtomicU64::new(init)) }
    }

    /// Atomically: if the word equals `old`, set it to `new` and return
    /// `true`.
    pub fn compare_and_swap(&self, old: u64, new: u64) -> bool {
        self.word.get().compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// Atomically reads the word.
    pub fn load(&self) -> u64 {
        self.word.get().load(Ordering::Acquire)
    }
}

/// The native first-wins consensus cell: a padded `AtomicU64` decided by
/// a single `compare_exchange` from `⊥`.
///
/// Hardware C&S has consensus number ∞, so — unlike the simulator's
/// [`wfmem::LocalConsensus`], which Theorem 1 has to *justify* on a
/// hybrid uniprocessor — the unbounded first-wins semantics holds
/// unconditionally on any multiprocessor. Success ordering `AcqRel`,
/// failure/read `Acquire`: whoever learns the decided value also sees
/// everything the winner published before proposing (the universal
/// construction's replay depends on exactly this edge).
#[derive(Debug)]
pub struct NativeConsCell {
    decided: Padded<AtomicU64>,
}

impl NativeConsCell {
    /// An undecided cell.
    pub fn new() -> Self {
        NativeConsCell { decided: Padded::new(AtomicU64::new(EMPTY)) }
    }

    /// Atomically proposes `v` (`v != u64::MAX`); returns the decided
    /// value.
    pub fn propose(&self, v: u64) -> u64 {
        assert_ne!(v, EMPTY, "u64::MAX is the ⊥ sentinel");
        match self.decided.get().compare_exchange(EMPTY, v, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => v,
            Err(current) => current,
        }
    }

    /// Reads the decided value without proposing (`None` if undecided).
    pub fn load(&self) -> Option<u64> {
        match self.decided.get().load(Ordering::Acquire) {
            EMPTY => None,
            v => Some(v),
        }
    }
}

impl Default for NativeConsCell {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn padded_cells_occupy_distinct_cache_lines() {
        assert_eq!(std::mem::align_of::<Padded<AtomicU64>>(), 64);
        assert_eq!(std::mem::size_of::<Padded<AtomicU64>>(), 64);
        let cells: Vec<NativeRegCell> = (0..4).map(|_| NativeRegCell::new()).collect();
        for w in cells.windows(2) {
            let a = w[0].slot.get() as *const AtomicU64 as usize;
            let b = w[1].slot.get() as *const AtomicU64 as usize;
            assert!(b.abs_diff(a) >= 64, "cells share a cache line");
        }
    }

    #[test]
    fn reg_cell_roundtrip() {
        let r = NativeRegCell::new();
        assert_eq!(r.load(), None);
        r.store(9);
        assert_eq!(r.load(), Some(9));
    }

    #[test]
    fn cas_cell_semantics() {
        let w = NativeCasCell::new(1);
        assert!(!w.compare_and_swap(0, 5));
        assert!(w.compare_and_swap(1, 5));
        assert_eq!(w.load(), 5);
    }

    #[test]
    fn cons_cell_first_proposal_wins() {
        let c = NativeConsCell::new();
        assert_eq!(c.load(), None);
        assert_eq!(c.propose(4), 4);
        assert_eq!(c.propose(6), 4);
        assert_eq!(c.load(), Some(4));
    }

    // Seeded stress loops (the in-tree-deps substitute for loom): hammer
    // each cell from several threads across many rounds and assert the
    // single-winner / monotone invariants that must hold under *any*
    // interleaving. Seeds vary the per-thread work pattern so repeated CI
    // runs explore different timings.
    #[test]
    fn stress_cons_cell_single_winner() {
        for round in 0..50u64 {
            let c = Arc::new(NativeConsCell::new());
            let winners: Vec<u64> = (0..4u64)
                .map(|t| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        // Seed-dependent spin varies arrival order.
                        for _ in 0..((round * 7 + t * 13) % 32) {
                            std::hint::spin_loop();
                        }
                        c.propose(t + 1)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect();
            let first = winners[0];
            assert!(winners.iter().all(|&w| w == first), "round {round}: split decision");
            assert!((1..=4).contains(&first));
            assert_eq!(c.load(), Some(first));
        }
    }

    #[test]
    fn stress_cas_cell_counter_loses_no_increments() {
        for _round in 0..20 {
            let w = Arc::new(NativeCasCell::new(0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let w = Arc::clone(&w);
                    thread::spawn(move || {
                        for _ in 0..100 {
                            loop {
                                let v = w.load();
                                if w.compare_and_swap(v, v + 1) {
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
            assert_eq!(w.load(), 400);
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
        NativeRegCell::new().store(u64::MAX);
    }
}
