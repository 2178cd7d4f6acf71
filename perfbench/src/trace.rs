//! In-memory span accounting for the traced runs.
//!
//! A span is timed in the benchmark's own code around one call into a
//! layer's public function. Spans are aggregated per layer (call count and
//! total time) while the run goes, and reported when it ends. Every timed
//! call also pays for reading the clock; [`clock_overhead_ns`] measures that
//! cost so per-call means can be reported net of it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sched_sim::decision::{Choice, Decider};

/// Aggregated spans of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Timed calls.
    pub calls: u64,
    /// Total time inside the calls, clock reads included.
    pub ns: u64,
}

impl Span {
    /// Adds one call that took `d`.
    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    /// Total time net of `clock_ns` per call.
    pub fn net_ns(&self, clock_ns: f64) -> f64 {
        (self.ns as f64 - self.calls as f64 * clock_ns).max(0.0)
    }

    /// Mean time per call net of `clock_ns`, or 0 with no calls.
    pub fn mean_ns(&self, clock_ns: f64) -> f64 {
        crate::ratio(self.net_ns(clock_ns), self.calls as f64)
    }
}

/// The time an empty span records: the cost of the `Instant` pair that
/// brackets every timed call (median of nine batches).
pub fn clock_overhead_ns() -> f64 {
    const N: u32 = 200_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let mut s = Span::default();
            for _ in 0..N {
                let t = Instant::now();
                black_box(());
                s.add(t.elapsed());
            }
            s.ns as f64 / f64::from(N)
        })
        .collect();
    crate::median(&samples)
}

/// A [`Decider`] wrapper that times every `choose` call of the decider it
/// wraps, so the kernel's own step time can be reported without it.
pub struct TimedDecider<'a> {
    inner: &'a mut dyn Decider,
    /// The wrapped decider's spans.
    pub span: Span,
}

impl<'a> TimedDecider<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Decider) -> Self {
        TimedDecider {
            inner,
            span: Span::default(),
        }
    }
}

impl Decider for TimedDecider<'_> {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        let t = Instant::now();
        let c = self.inner.choose(choice, n);
        self.span.add(t.elapsed());
        c
    }
}
