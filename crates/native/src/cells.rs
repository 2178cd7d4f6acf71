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
//! The backend's statement accounting runs on [`StripedCounter`], whose
//! lanes are single-writer: a thread claims its lane once and from then on
//! counts with a plain load and store, so the free-mode step hook executes
//! no locked instruction.
//!
//! `⊥` is represented by the same [`EMPTY`] sentinel (`u64::MAX`) the
//! simulator's queue spec already uses; register and consensus cells
//! therefore cannot store `u64::MAX` itself (asserted). The cells and
//! their memory orderings live in [`backend`](crate::backend); the
//! orderings are justified in `BACKENDS.md`.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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

thread_local! {
    // The calling thread's index, `usize::MAX` until its first count.
    static THREAD_INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's index: distinct for every thread the process has
/// counted on, assigned at its first count and never reused.
fn thread_index() -> usize {
    THREAD_INDEX.with(|i| {
        if i.get() == usize::MAX {
            i.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        i.get()
    })
}

/// One owned lane of a [`StripedCounter`], on a cache line of its own.
#[derive(Debug, Default)]
struct Lane {
    /// The owning thread's index + 1; 0 while unclaimed.
    owner: AtomicUsize,
    /// The owner's count: only the owner stores to it.
    count: AtomicU64,
}

/// A striped event counter: `LANES` single-writer lanes plus one shared
/// lane, each on its own cache line, summed once at the end of a run.
///
/// Counting retries or accesses through a single shared counter would put
/// one hot line on every fast path and distort exactly the contention
/// being measured. Here thread `t` owns lane `t % LANES` of each counter
/// it counts on: its first [`add`](Self::add) claims the lane with one
/// compare-and-swap on the lane's `owner` word, and every later add is a
/// `Relaxed` load and store of the lane's count, no locked instruction,
/// exact because no other thread writes that lane. A thread whose lane
/// another thread owns adds to the shared lane with `fetch_add`: contended,
/// never wrong, so counting stays exact for any number of threads. A lane
/// stays owned after its thread exits, so on a counter that outlives its
/// threads a later thread whose lane is taken counts on the shared lane. The
/// lanes are inline (const-generic), so a counter allocates nothing.
///
/// # Examples
///
/// ```
/// use native::cells::StripedCounter;
/// use std::sync::Arc;
///
/// let c = Arc::new(StripedCounter::<4>::new());
/// c.add(2);
/// let d = Arc::clone(&c);
/// std::thread::spawn(move || d.add(3)).join().unwrap();
/// assert_eq!(c.sum(), 5);
/// ```
#[derive(Debug)]
pub struct StripedCounter<const LANES: usize> {
    lanes: [Padded<Lane>; LANES],
    shared: Padded<AtomicU64>,
}

impl<const LANES: usize> StripedCounter<LANES> {
    /// A zeroed counter with every lane unclaimed.
    pub fn new() -> Self {
        StripedCounter {
            lanes: std::array::from_fn(|_| Padded::default()),
            shared: Padded::default(),
        }
    }

    /// Adds `n` on behalf of the calling thread: to its own lane (claimed
    /// at its first add) if it owns it, else to the shared lane. Relaxed
    /// throughout: the total is read only after threads join, which
    /// synchronizes.
    pub fn add(&self, n: u64) {
        let t = thread_index();
        let (lane, me) = (self.lanes[t % LANES].get(), t + 1);
        let owner = lane.owner.load(Ordering::Relaxed);
        let owned = owner == me
            || owner == 0
                && lane.owner.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed).is_ok();
        if owned {
            // The single writer: a plain read-modify-write cannot lose an
            // update, so it needs no locked instruction.
            lane.count.store(lane.count.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        } else {
            self.shared.get().fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The sum over all lanes.
    pub fn sum(&self) -> u64 {
        let owned: u64 = self.lanes.iter().map(|l| l.get().count.load(Ordering::Relaxed)).sum();
        owned + self.shared.get().load(Ordering::Relaxed)
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
    use std::sync::atomic::AtomicBool;
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
    fn stress_decided_cons_cell_answers_late_proposers() {
        // Three early proposers race for the cell; three late proposers
        // wait until early proposer 0's decide has returned, so they find
        // the cell decided and answer from the load. Every caller gets the
        // winner, and every decide is one counted statement whichever path
        // it took.
        for round in 0..20u64 {
            let b = NativeBackend::free();
            let c = Arc::new(b.cons());
            let decided = Arc::new(AtomicBool::new(false));
            let early: Vec<_> = (0..3u64)
                .map(|t| {
                    let (b, c, decided) = (b.clone(), Arc::clone(&c), Arc::clone(&decided));
                    thread::spawn(move || {
                        let w = b.decide(&c, t + 1);
                        if t == 0 {
                            decided.store(true, Ordering::Release);
                        }
                        vec![w]
                    })
                })
                .collect();
            let late: Vec<_> = (0..3u64)
                .map(|t| {
                    let (b, c, decided) = (b.clone(), Arc::clone(&c), Arc::clone(&decided));
                    thread::spawn(move || {
                        while !decided.load(Ordering::Acquire) {
                            thread::yield_now();
                        }
                        (0..=(round + t) % 4).map(|k| b.decide(&c, 10 + 4 * t + k)).collect()
                    })
                })
                .collect();
            let got: Vec<u64> =
                early.into_iter().chain(late).flat_map(|h| h.join().unwrap()).collect();
            let winner = got[0];
            assert!((1..=3).contains(&winner), "round {round}: a late proposal won");
            assert!(got.iter().all(|&w| w == winner), "round {round}: split decision {got:?}");
            assert_eq!(b.accesses(), got.len() as u64, "round {round}: one statement per decide");
            assert_eq!(b.read_decided(&c), Some(winner));
        }
    }

    #[test]
    fn stress_striped_counter_exact_under_contention() {
        let c = Arc::new(StripedCounter::<8>::new());
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        c.add(i % 3);
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
    fn striped_counter_exact_past_the_owned_lanes() {
        // 24 threads on 4 lanes: at most 4 own a lane, the others count on
        // the shared lane, and the sum is still exact. A thread's first add
        // settles whether it owns its lane, so each owned lane holds its
        // owner's whole count and the shared lane everyone else's.
        let c = Arc::new(StripedCounter::<4>::new());
        let handles: Vec<_> = (0..24)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || (0..500u64).for_each(|i| c.add(i % 3)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sum(), 24 * 499);
        let owned = c.lanes.iter().filter(|l| l.get().owner.load(Ordering::Relaxed) != 0).count();
        assert!(owned <= 4);
        assert_eq!(c.shared.get().load(Ordering::Relaxed), (24 - owned as u64) * 499);
    }

    #[test]
    fn one_thread_owns_a_lane_in_each_counter() {
        // Ownership is per counter: a thread that owns its lane in one
        // counter owns the same lane in another, and both count exactly.
        let (a, b) = (StripedCounter::<4>::new(), StripedCounter::<4>::new());
        for i in 0..100 {
            a.add(1);
            b.add(i);
        }
        assert_eq!((a.sum(), b.sum()), (100, 4950));
        for c in [&a, &b] {
            assert_eq!(c.shared.get().load(Ordering::Relaxed), 0, "counted off its own lane");
        }
    }

    #[test]
    fn lone_thread_never_touches_the_shared_lane() {
        // The fast path: after its claim, a thread's adds are plain stores
        // to its own lane, and the shared lane's locked add never runs.
        let c = StripedCounter::<4>::new();
        (0..1000).for_each(|_| c.add(2));
        assert_eq!(c.shared.get().load(Ordering::Relaxed), 0);
        let counts: Vec<u64> = c.lanes.iter().map(|l| l.get().count.load(Ordering::Relaxed)).collect();
        assert_eq!(counts.iter().filter(|&&n| n == 2000).count(), 1, "one owned lane: {counts:?}");
        assert_eq!(c.sum(), 2000);
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn reg_rejects_sentinel() {
        let b = NativeBackend::free();
        b.write(&b.reg(), u64::MAX);
    }
}
