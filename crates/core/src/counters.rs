//! Algorithm-level event counters: helping and retry accounting inside the
//! wait-free algorithms themselves.
//!
//! The kernel's [`sched_sim::obs::ObsCounters`] count *scheduler* events
//! (preemptions, windows, statements). The counters here sit one layer up
//! and count *algorithmic* events the paper's analysis talks about: how
//! often the universal construction helps another process's announced
//! operation, how often a log slot turns out to be a duplicate and is
//! retried, how often a Fig. 5 `Q-C&S` loop has to repeat because of
//! interference, and how often the Seen-helping path actually serves a
//! preempted reader.
//!
//! The counters live inside the shared-memory structs ([`super::universal::
//! UniversalMem`], [`super::uni::cas::CasMem`]) because that is where the
//! events happen — but they are *instrumentation*, not state: the manual
//! [`PartialEq`]/[`Hash`] implementations treat every pair of counter
//! blocks as equal, so exhaustive schedule exploration
//! ([`sched_sim::explore`]) deduplicates states exactly as before, and
//! capture/replay equality checks compare algorithm state, not telemetry.

use std::fmt;
use std::hash::{Hash, Hasher};

/// Helping/retry event counts for one shared object instance.
///
/// All fields are cumulative over the object's lifetime. See the module
/// docs for why `==` and hashing ignore them.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlgCounters {
    /// Universal construction: log-slot proposals that helped another
    /// process's announced operation (the round-robin helping discipline).
    pub helped_proposals: u64,
    /// Universal construction: log-slot proposals of the process's own
    /// pending operation.
    pub own_proposals: u64,
    /// Universal construction: decided slots skipped as duplicates (a
    /// helper re-proposed an already-applied token), each causing one
    /// retry iteration of the apply loop.
    pub duplicate_retries: u64,
    /// Fig. 5: `Q-C&S` repeat-loop iterations beyond the first — the
    /// "repeats at most once" interference retries of lines 32–43.
    pub qcs_retries: u64,
    /// Fig. 5: writes to `Seen[i]` (line 29) — a `C&S` recording a helping
    /// value for readers it may preempt.
    pub seen_helps: u64,
    /// Fig. 5: `Read` invocations that returned via the `Seen` helping
    /// path (lines 50 and 61) instead of their own scan.
    pub helped_reads: u64,
}

impl AlgCounters {
    /// Total log-slot proposals made (helped + own).
    pub fn proposals(&self) -> u64 {
        self.helped_proposals + self.own_proposals
    }
}

// Instrumentation only: never part of object identity.
impl PartialEq for AlgCounters {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for AlgCounters {}

impl Hash for AlgCounters {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl fmt::Display for AlgCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  helped proposals      {:>8}", self.helped_proposals)?;
        writeln!(f, "  own proposals         {:>8}", self.own_proposals)?;
        writeln!(f, "  duplicate retries     {:>8}", self.duplicate_retries)?;
        writeln!(f, "  q-c&s retries         {:>8}", self.qcs_retries)?;
        writeln!(f, "  seen helps            {:>8}", self.seen_helps)?;
        write!(f, "  helped reads          {:>8}", self.helped_reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    #[test]
    fn counters_are_identity_neutral() {
        let a = AlgCounters::default();
        let b = AlgCounters { helped_proposals: 99, qcs_retries: 7, ..AlgCounters::default() };
        assert_eq!(a, b, "counters must not affect equality");
        let hash = |c: &AlgCounters| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b), "counters must not affect hashing");
    }

    #[test]
    fn proposals_sums_both_kinds() {
        let c = AlgCounters { helped_proposals: 3, own_proposals: 4, ..Default::default() };
        assert_eq!(c.proposals(), 7);
    }
}
