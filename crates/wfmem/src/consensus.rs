//! Consensus objects: the `C`-consensus primitive of Herlihy's hierarchy and
//! the modeled-atomic uniprocessor consensus object.

use crate::Val;

/// An object with consensus number exactly `C`.
///
/// This models a synchronization primitive of "power" `C` in Herlihy's
/// wait-free hierarchy, following the convention the paper adopts in
/// Sec. 4.1: the object solves consensus among its first `C` invocations —
/// every one of them returns the value proposed by the first — and **every
/// invocation after the `C`-th returns `⊥`** (here [`None`]), i.e. no useful
/// information.
///
/// Real hardware only offers objects at the extremes of the hierarchy
/// (registers at 1, compare-and-swap at ∞); this model realizes every
/// intermediate rung so that Table 1 of the paper can be explored across
/// the whole `(P, C, Q)` grid.
///
/// # Examples
///
/// ```
/// use wfmem::CConsensus;
///
/// let mut o = CConsensus::new(3);
/// assert_eq!(o.invoke(10), Some(10)); // first proposal wins
/// assert_eq!(o.invoke(20), Some(10));
/// assert_eq!(o.invoke(30), Some(10));
/// assert_eq!(o.invoke(40), None);     // exhausted: ⊥
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CConsensus {
    cap: u32,
    decided: Option<Val>,
    invocations: u32,
}

impl CConsensus {
    /// Creates an undecided `C`-consensus object with capacity `cap = C`.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`; an object that can never be invoked usefully
    /// has no consensus number.
    pub fn new(cap: u32) -> Self {
        assert!(cap > 0, "consensus number must be at least 1");
        CConsensus { cap, decided: None, invocations: 0 }
    }

    /// Atomically invokes the object with proposal `v`.
    ///
    /// Returns the decided value for the first `cap` invocations and `None`
    /// (the paper's `⊥`) afterwards.
    pub fn invoke(&mut self, v: Val) -> Option<Val> {
        self.invocations += 1;
        if self.invocations > self.cap {
            return None;
        }
        Some(*self.decided.get_or_insert(v))
    }

    /// The consensus number `C` of this object.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The number of invocations performed so far.
    pub fn invocations(&self) -> u32 {
        self.invocations
    }

    /// The decided value, if any invocation has occurred.
    pub fn decided(&self) -> Option<Val> {
        self.decided
    }
}

/// A modeled-atomic uniprocessor consensus object.
///
/// The paper proves (Theorem 1) that consensus for any number of processes
/// can be implemented from reads and writes on a hybrid-scheduled
/// uniprocessor with `Q ≥ 8`, and Fig. 7 uses such objects as
/// `local-consensus` to elect at most one port owner. `LocalConsensus`
/// models that implemented object as one atomic statement; the
/// `hybrid-wf::uni::consensus` module provides the actual Fig. 3
/// read/write implementation, and the two are interchangeable (the
/// `LocalMode` ablation in `hybrid-wf::multi::consensus`).
///
/// Unlike [`CConsensus`] there is no invocation cap: the read/write
/// implementation works for any number of processes *on one processor*.
///
/// # Examples
///
/// ```
/// use wfmem::LocalConsensus;
///
/// let mut o = LocalConsensus::new();
/// assert_eq!(o.decide(4), 4);
/// assert_eq!(o.decide(5), 4);
/// assert!(o.is_decided());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct LocalConsensus {
    decided: Option<Val>,
    invocations: u32,
}

impl LocalConsensus {
    /// Creates an undecided object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically proposes `v`; returns the decided value.
    pub fn decide(&mut self, v: Val) -> Val {
        self.invocations += 1;
        *self.decided.get_or_insert(v)
    }

    /// Reads the decided value without proposing (`⊥` if undecided).
    pub fn read(&self) -> Option<Val> {
        self.decided
    }

    /// Whether a decision has been reached.
    pub fn is_decided(&self) -> bool {
        self.decided.is_some()
    }

    /// The number of `decide` invocations performed so far.
    pub fn invocations(&self) -> u32 {
        self.invocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_proposal_wins() {
        let mut o = CConsensus::new(4);
        assert_eq!(o.invoke(9), Some(9));
        for v in [1, 2, 3] {
            assert_eq!(o.invoke(v), Some(9));
        }
    }

    #[test]
    fn exhaustion_returns_bottom() {
        let mut o = CConsensus::new(2);
        assert_eq!(o.invoke(1), Some(1));
        assert_eq!(o.invoke(2), Some(1));
        assert_eq!(o.invoke(3), None);
        assert_eq!(o.invoke(4), None);
        assert_eq!(o.invocations(), 4);
    }

    #[test]
    fn decided_visible_without_invoking() {
        let mut o = CConsensus::new(1);
        assert_eq!(o.decided(), None);
        o.invoke(5);
        assert_eq!(o.decided(), Some(5));
    }

    #[test]
    #[should_panic(expected = "consensus number")]
    fn zero_capacity_rejected() {
        let _ = CConsensus::new(0);
    }

    #[test]
    fn consensus_number_one_still_decides_once() {
        let mut o = CConsensus::new(1);
        assert_eq!(o.invoke(8), Some(8));
        assert_eq!(o.invoke(9), None);
    }

    #[test]
    fn local_consensus_unbounded_invocations() {
        let mut o = LocalConsensus::new();
        assert_eq!(o.decide(3), 3);
        for v in 0..100 {
            assert_eq!(o.decide(v), 3);
        }
        assert_eq!(o.invocations(), 101);
    }

    #[test]
    fn local_consensus_read_is_bottom_until_decided() {
        let mut o = LocalConsensus::new();
        assert_eq!(o.read(), None);
        o.decide(1);
        assert_eq!(o.read(), Some(1));
    }
}
