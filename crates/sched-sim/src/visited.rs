//! The parallel explorer's visited set: an open-addressing table of
//! 128-bit state keys in which concurrent workers claim each key exactly
//! once, with one compare-and-swap on the key's own slot.
//!
//! # Slots
//!
//! A slot is two atomic words: the key's low half, and its high half XOR
//! [`HI_FLIP`]. Zero means "empty" in the low word and "not yet
//! published" in the high word. A claim CASes the low word from zero to
//! the key's low half and then publishes the high word; a prober whose
//! low half matches a slot waits for that slot's high word before
//! comparing it, so equality is exact on all 128 bits. The flip keeps
//! narrow keys (high half 0) off the zero sentinel; the rare keys that do
//! hit a sentinel — low half 0, or high half equal to [`HI_FLIP`] — go to
//! a small exact side set instead.
//!
//! # Growth
//!
//! Slots live in [`SEGMENTS`] separately allocated segments, addressed
//! by the top bits of the key's mixed home index, so a key's segment
//! survives a growth and a growth rehashes, and frees, one segment at a
//! time. Growth is stop-the-world under a write lock whose read side
//! workers release only at *checkpoints*, or before they block elsewhere.
//! Each worker publishes its claim count at a checkpoint and makes at
//! most `chunk` claims before its next one, so `published + threads ×
//! chunk` bounds the table. The checkpoint that sees that bound pass the
//! maximum load grows the table before anyone claims again.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard};

/// Segments per table (a power of two).
const SEGMENTS: usize = 16;
const SEGMENT_BITS: u32 = SEGMENTS.trailing_zeros();

/// The zero word: an empty low word, or a high word not yet published.
const EMPTY: u64 = 0;

/// Stored high word = key high half XOR this, so that narrow keys (high
/// half 0) store a non-sentinel word.
const HI_FLIP: u64 = 0xD6E8_FEB8_6659_FD93;

/// A slot: the key's low half, and its flipped high half.
type Slot = [AtomicU64; 2];

/// Slots of address space every segment reserves. An allocation this
/// large (32 MiB, glibc's largest mmap threshold) is mapped directly by
/// the system allocator and unmapped when freed, so the segments a growth
/// frees return their memory at once instead of staying resident in an
/// allocator heap, where they would inflate the process's peak for the
/// rest of its life; only the slots in use are ever touched. A table
/// thus holds 512 MiB of address space, not of memory.
const SEGMENT_RESERVE: usize = (32 << 20) / std::mem::size_of::<Slot>();

fn empty_segment(len: usize) -> Vec<Slot> {
    let mut seg = Vec::with_capacity(len.max(SEGMENT_RESERVE));
    seg.extend(std::iter::repeat_with(|| [AtomicU64::new(EMPTY), AtomicU64::new(EMPTY)]).take(len));
    seg
}

/// The largest claim count a table of `2^bits` slots admits: 3/4 load.
fn max_load(bits: u32) -> u64 {
    (1u64 << bits) / 4 * 3
}

/// The slot array of one table size.
struct Slots {
    /// log2 of the slot count; at least [`SEGMENT_BITS`].
    bits: u32,
    segments: Vec<Vec<Slot>>,
}

impl Slots {
    fn new(bits: u32) -> Self {
        let len = 1usize << (bits - SEGMENT_BITS);
        Slots { bits, segments: (0..SEGMENTS).map(|_| empty_segment(len)).collect() }
    }

    /// The key's home index: the top `bits` bits of its mixed halves, so
    /// the top [`SEGMENT_BITS`] pick its segment at every size.
    fn home(&self, lo: u64, hi: u64) -> usize {
        ((lo ^ hi).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    fn slot(&self, i: usize) -> &Slot {
        let shift = self.bits - SEGMENT_BITS;
        &self.segments[i >> shift][i & ((1 << shift) - 1)]
    }

    fn next(&self, i: usize) -> usize {
        (i + 1) & ((1 << self.bits) - 1)
    }

    /// Claims the key whose low word is `lo` and stored high word `hi`
    /// (both non-sentinel); `true` if it was absent.
    fn claim(&self, lo: u64, hi: u64) -> bool {
        // Each word changes once, from zero to its final value, so any
        // non-zero read is final; the high word's Release store pairs with
        // the Acquire load in `published`, and a claim publishes nothing
        // else.
        let mut i = self.home(lo, hi);
        loop {
            let [wlo, whi] = self.slot(i);
            let mut cur = wlo.load(Ordering::Acquire);
            if cur == EMPTY {
                match wlo.compare_exchange(EMPTY, lo, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        whi.store(hi, Ordering::Release);
                        return true;
                    }
                    Err(found) => cur = found,
                }
            }
            if cur == lo && published(whi) == hi {
                return false;
            }
            i = self.next(i);
        }
    }

    /// Rebuilds the table at `2^bits` slots, one old segment at a time:
    /// a key keeps its segment, so each old segment's keys land in the
    /// new segment of the same index (or spill past its end), and the old
    /// segment is freed before the next is read.
    fn grow(&mut self, bits: u32) {
        let mut new = Slots { bits, segments: Vec::with_capacity(SEGMENTS) };
        let len = 1usize << (bits - SEGMENT_BITS);
        let mut fresh: Vec<Option<Vec<Slot>>> = (0..SEGMENTS).map(|_| None).collect();
        for s in 0..SEGMENTS {
            let old = std::mem::take(&mut self.segments[s]);
            for [wlo, whi] in old.iter() {
                let (lo, hi) = (wlo.load(Ordering::Relaxed), whi.load(Ordering::Relaxed));
                if lo == EMPTY {
                    continue;
                }
                let mut i = new.home(lo, hi);
                loop {
                    let seg =
                        fresh[i >> (bits - SEGMENT_BITS)].get_or_insert_with(|| empty_segment(len));
                    let [nlo, nhi] = &mut seg[i & (len - 1)];
                    if *nlo.get_mut() == EMPTY {
                        (*nlo.get_mut(), *nhi.get_mut()) = (lo, hi);
                        break;
                    }
                    i = new.next(i);
                }
            }
        }
        new.segments = fresh.into_iter().map(|s| s.unwrap_or_else(|| empty_segment(len))).collect();
        *self = new;
    }
}

/// The high word of a slot whose low word is claimed, waiting out the
/// instant between the claimer's CAS and its publication.
fn published(whi: &AtomicU64) -> u64 {
    let mut spins = 0u32;
    loop {
        let v = whi.load(Ordering::Acquire);
        if v != EMPTY {
            return v;
        }
        // A claimer still silent after a short spin was descheduled
        // mid-claim: give it the cpu.
        if spins < 64 {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// A concurrent visited set shared by up to `threads` claiming threads.
///
/// The protocol: a thread claims through a [`Claimer`] from
/// [`VisitedTable::checkpoint`] (or, between checkpoints, from
/// [`VisitedTable::read`]), makes at most `chunk` fresh claims between two
/// checkpoints, never blocks on another thread while holding a `Claimer`,
/// and [`VisitedTable::publish`]es its last claims when done.
pub(crate) struct VisitedTable {
    /// Taken briefly before the read lock and held by a grower while it
    /// waits for the write lock, so a thread that re-takes its read lock
    /// in a loop cannot starve the grower.
    turnstile: Mutex<()>,
    slots: RwLock<Slots>,
    /// Exact home of the keys that would store a sentinel word.
    side: Mutex<HashSet<u128>>,
    /// Fresh claims published at checkpoints.
    published: AtomicU64,
    /// `threads × chunk`: the most claims not yet published.
    slack: u64,
}

/// Claim access to a [`VisitedTable`]; holds its read lock.
pub(crate) struct Claimer<'a> {
    slots: RwLockReadGuard<'a, Slots>,
    side: &'a Mutex<HashSet<u128>>,
}

impl Claimer<'_> {
    /// Inserts `key`; `true` if it was absent (this caller claimed it).
    pub(crate) fn claim(&self, key: u128) -> bool {
        let (lo, hi) = (key as u64, (key >> 64) as u64 ^ HI_FLIP);
        if lo == EMPTY || hi == EMPTY {
            return self.side.lock().expect("side set poisoned").insert(key);
        }
        self.slots.claim(lo, hi)
    }
}

impl VisitedTable {
    /// An empty table for up to `threads` threads claiming at most `chunk`
    /// keys between checkpoints.
    pub(crate) fn new(threads: usize, chunk: u64) -> Self {
        let slack = threads as u64 * chunk;
        VisitedTable {
            turnstile: Mutex::new(()),
            slots: RwLock::new(Slots::new(Self::bits_for(slack, SEGMENT_BITS))),
            side: Mutex::new(HashSet::new()),
            published: AtomicU64::new(0),
            slack,
        }
    }

    /// The smallest size, from `2^bits` up, that admits `claims` claims.
    fn bits_for(claims: u64, mut bits: u32) -> u32 {
        while max_load(bits) < claims {
            bits += 1;
        }
        bits
    }

    /// Claim access without a checkpoint, for a thread resuming after it
    /// dropped its [`Claimer`] to block.
    pub(crate) fn read(&self) -> Claimer<'_> {
        let _turn = self.turnstile.lock().expect("turnstile poisoned");
        Claimer { slots: self.slots.read().expect("visited table poisoned"), side: &self.side }
    }

    /// Adds `claims` fresh claims to the published count.
    pub(crate) fn publish(&self, claims: u64) -> u64 {
        self.published.fetch_add(claims, Ordering::AcqRel) + claims
    }

    /// Publishes `claims` and returns claim access for at most `chunk`
    /// more, growing the table first if the claim bound could pass its
    /// maximum load. The caller must hold no [`Claimer`].
    pub(crate) fn checkpoint(&self, claims: u64) -> Claimer<'_> {
        let published = self.publish(claims);
        let claimer = self.read();
        if published + self.slack <= max_load(claimer.slots.bits) {
            return claimer;
        }
        drop(claimer);
        {
            let _turn = self.turnstile.lock().expect("turnstile poisoned");
            let mut slots = self.slots.write().expect("visited table poisoned");
            // Claims published since, by threads that are waiting to grow
            // too, count as well.
            let bound = self.published.load(Ordering::Acquire) + self.slack;
            if bound > max_load(slots.bits) {
                let bits = Self::bits_for(bound, slots.bits + 1);
                slots.grow(bits);
            }
        }
        self.read()
    }

    /// Keys claimed, once every thread has published.
    pub(crate) fn len(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    #[cfg(test)]
    fn bits(&self) -> u32 {
        self.slots.read().expect("visited table poisoned").bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `threads` threads each claim an overlapping slice of `keys`,
    /// checkpointing every `chunk` attempts; returns every thread's fresh
    /// keys.
    fn claim_concurrently(
        table: &VisitedTable,
        keys: &[u128],
        threads: usize,
        chunk: u64,
    ) -> Vec<u128> {
        let fresh = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (table, fresh) = (&table, &fresh);
                scope.spawn(move || {
                    // Thread t starts at its own offset and wraps, so every
                    // key is attempted by every thread.
                    let mut mine = Vec::new();
                    let mut claimer = None;
                    let mut unpublished = 0;
                    for (j, &key) in keys
                        .iter()
                        .cycle()
                        .skip(t * keys.len() / threads)
                        .take(keys.len())
                        .enumerate()
                    {
                        if (j as u64).is_multiple_of(chunk) {
                            drop(claimer.take());
                            claimer = Some(table.checkpoint(std::mem::take(&mut unpublished)));
                        }
                        if claimer.as_ref().unwrap().claim(key) {
                            mine.push(key);
                            unpublished += 1;
                        }
                    }
                    drop(claimer);
                    table.publish(unpublished);
                    fresh.lock().unwrap().extend(mine);
                });
            }
        });
        fresh.into_inner().unwrap()
    }

    #[test]
    fn concurrent_claims_are_exactly_once_through_growths() {
        let chunk = 64;
        let threads = 4;
        let mut keys: Vec<u128> = (1..=20_000u128)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D_9E37_79B9_7F4A_7C15))
            .collect();
        // Sentinel-hitting keys: low half 0, and high half equal to the
        // flip (stored high word 0) — with and without a low half.
        keys.extend((1..=50u128).map(|i| i << 64));
        keys.extend((0..50u128).map(|i| (u128::from(HI_FLIP) << 64) | i));
        // Narrow keys (high half 0) next to their wide twins.
        keys.extend((1..=500u128).map(|i| i * 0x1_0000_0001));
        keys.extend((1..=500u128).map(|i| (7u128 << 64) | (i * 0x1_0000_0001)));
        let distinct = {
            let mut d = keys.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        assert_eq!(distinct, keys.len(), "the key set is distinct by construction");
        // Overlap: each key appears twice in the input as well.
        let doubled: Vec<u128> = keys.iter().chain(keys.iter().rev()).copied().collect();

        let table = VisitedTable::new(threads, chunk);
        let start_bits = table.bits();
        let mut fresh = claim_concurrently(&table, &doubled, threads, chunk);
        assert!(
            table.bits() >= start_bits + 2,
            "expected two growths: {start_bits} → {}",
            table.bits()
        );

        assert_eq!(fresh.len(), distinct, "fresh total equals the distinct count");
        assert_eq!(table.len(), distinct as u64, "published claims equal the distinct count");
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), distinct, "each key fresh exactly once");

        // Every key is present afterwards, and only those keys.
        let claimer = table.read();
        assert!(keys.iter().all(|&k| !claimer.claim(k)));
        assert!(claimer.claim(u128::MAX - 1));
        assert!(claimer.claim(0), "the all-zero key is a key too");
        assert!(!claimer.claim(0));
    }
}
