//! Fig. 6 of the paper, made concrete: two histories that end in states of
//! different valence yet are indistinguishable to the last process.
//!
//! The construction targets the canonical way any algorithm must use a
//! single `C`-consensus object `O`: each process invokes `O` with its input
//! and decides what `O` returns — unless `O` returns `⊥` (it was invoked
//! more than `C` times), in which case the process has learned *nothing*
//! and can only decide its own input.
//!
//! With `P` processors, one priority level, and `Q = 2P − C` (`P ≤ C <
//! 2P`), the adversary:
//!
//! 1. lets `Q` staggered processes `p₁¹ … p₁^Q` reach the point of invoking
//!    `O` (one per processor `1..Q`) — the critical bivalent state `t`;
//! 2. branches: in history `H_x`, `p₁¹` invokes first; in `H_y`, a freshly
//!    preempting same-processor process `p₂¹` goes a different way — the
//!    paper's `u_x` / `u_y` split (here realized by two different
//!    first-invokers, which is what makes the decided values differ);
//! 3. in both histories, releases the remaining processes two per
//!    processor `Q+1..P`, each invoking `O` — `Q + 2(P − Q) = 2P − Q = C`
//!    invocations — so the **next** invocation returns `⊥`;
//! 4. the distinguished process `pₓ` then invokes `O`, receives `⊥` in
//!    both histories, and must decide its own input in both — disagreeing
//!    with the decision in at least one history.
//!
//! [`construct`] returns both histories plus the contradiction witness.

use hybrid_wf::Val;
use sched_sim::decision::RoundRobin;
use sched_sim::history::History;
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::{Kernel, SystemSpec};
use sched_sim::machine::{FnMachine, StepOutcome};
use wfmem::CConsensus;

/// Shared memory: the single `C`-consensus object `O`.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct OMem {
    /// The object.
    pub o: CConsensus,
}

/// The canonical algorithm: one statement to invoke `O(input)`; decide the
/// result, or the own input on `⊥`.
fn invoker(input: Val) -> Box<dyn sched_sim::machine::StepMachine<OMem>> {
    Box::new(FnMachine::new(move |m: &mut OMem, _calls| {
        let out = m.o.invoke(input).unwrap_or(input);
        (StepOutcome::Finished, Some(out))
    }))
}

/// The outcome of one constructed history.
#[derive(Clone, Debug)]
pub struct BranchOutcome {
    /// The recorded history.
    pub history: History,
    /// The value `O` decided in this branch.
    pub decided: Val,
    /// What the distinguished process `p_x` returned.
    pub px_returned: Val,
    /// Total invocations of `O` before `p_x` invoked.
    pub invocations_before_px: u32,
}

/// The full Fig. 6 construction for `P` processors and consensus number
/// `C` (`P ≤ C < 2P`, so `Q = 2P − C ≥ 1`).
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// Number of processors.
    pub p: u32,
    /// Consensus number of `O`.
    pub c: u32,
    /// The quantum `Q = 2P − C` the theorem says is insufficient.
    pub q: u32,
    /// Branch where the first invoker proposes `x`.
    pub x_branch: BranchOutcome,
    /// Branch where the first invoker proposes `y`.
    pub y_branch: BranchOutcome,
}

impl Fig6 {
    /// Whether the construction exhibits the contradiction: the decided
    /// values differ across branches, yet `p_x` returned the same value in
    /// both (it could not distinguish them).
    pub fn contradiction(&self) -> bool {
        self.x_branch.decided != self.y_branch.decided
            && self.x_branch.px_returned == self.y_branch.px_returned
    }

    /// A human-readable narrative of the construction (printed by the
    /// `lowerbound_demo` example).
    pub fn narrative(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "Theorem 3 witness: P = {}, C = {}, Q = 2P − C = {}\n",
            self.p, self.c, self.q
        ));
        s.push_str(&format!(
            "O invoked {} times before p_x in each branch (consensus number C = {}),\n",
            self.x_branch.invocations_before_px, self.c
        ));
        s.push_str(&format!(
            "so p_x receives ⊥ in both branches and returns {} in both.\n",
            self.x_branch.px_returned
        ));
        s.push_str(&format!(
            "But branch X decided {} and branch Y decided {} — p_x disagrees in at \
             least one branch: no algorithm can be a wait-free consensus\n",
            self.x_branch.decided, self.y_branch.decided
        ));
        s
    }
}

/// Runs one branch: the `first` process invokes `O` first, then the
/// staggered initial processes, then the late pairs, then `p_x`.
fn run_branch(p: u32, c: u32, first_is_x: bool) -> BranchOutcome {
    let q = 2 * p - c;
    let spec = SystemSpec::hybrid(q.max(1)).with_adversarial_alignment();
    let mut k = Kernel::new(OMem { o: CConsensus::new(c) }, spec);
    k.attach_obs();

    // Initial staggered processes p₁¹ … p₁^Q on processors 0..Q, inputs
    // 100+i. The branch point: in branch X, process on cpu 0 has input X
    // (= 1000); in branch Y a different process (cpu 1 if available,
    // otherwise a second process on cpu 0) carries Y (= 2000) and invokes
    // first.
    let x_val: Val = 1000;
    let y_val: Val = 2000;
    let mut initial = Vec::new();
    for cpu in 0..q {
        let input = if cpu == 0 { x_val } else if cpu == 1 { y_val } else { 100 + u64::from(cpu) };
        initial.push(k.add_held_process(ProcessorId(cpu), Priority(1), invoker(input)));
    }
    // If Q = 1, the Y proposer is a second (quantum-preempting) process on
    // cpu 0 — the paper's p₂¹ preempting p₁¹ at the boundary.
    let y_alt = if q == 1 {
        Some(k.add_held_process(ProcessorId(0), Priority(1), invoker(y_val)))
    } else {
        None
    };
    // Late processes: two per processor Q..P (the paper's p₁^{Q+1}, p₂^{Q+1}, …).
    let mut late = Vec::new();
    for cpu in q..p {
        late.push(k.add_held_process(ProcessorId(cpu), Priority(1), invoker(300 + u64::from(cpu))));
        late.push(k.add_held_process(ProcessorId(cpu), Priority(1), invoker(400 + u64::from(cpu))));
    }
    // The distinguished process p_x: one more on the last processor.
    let px_input: Val = 777;
    let px = k.add_held_process(ProcessorId(p - 1), Priority(1), invoker(px_input));

    let mut d = RoundRobin::new();
    let mut run_one = |k: &mut Kernel<OMem>, pid: ProcessId| {
        k.release(pid);
        while !k.is_finished(pid) {
            k.step(&mut d).expect("released process must run");
        }
    };

    // Branch order: first invoker decides O.
    let first = if first_is_x {
        initial[0]
    } else if let Some(alt) = y_alt {
        alt
    } else {
        initial[1]
    };
    run_one(&mut k, first);
    // Remaining initial processes (the staggered set) invoke.
    for &pid in initial.iter() {
        if pid != first {
            run_one(&mut k, pid);
        }
    }
    if !first_is_x {
        if let Some(alt) = y_alt {
            debug_assert!(k.is_finished(alt));
        }
    } else if let Some(alt) = y_alt {
        run_one(&mut k, alt);
    }
    // Late pairs, exhausting O up to C invocations.
    for &pid in &late {
        run_one(&mut k, pid);
    }
    let invocations_before_px = k.mem.o.invocations();
    run_one(&mut k, px);

    BranchOutcome {
        history: k.history(),
        decided: k.mem.o.decided().expect("O decided"),
        px_returned: k.output(px).expect("p_x finished"),
        invocations_before_px,
    }
}

/// Builds the Fig. 6 construction for `P` processors and a `C`-consensus
/// object, `P ≤ C < 2P`.
///
/// # Panics
///
/// Panics unless `P ≤ C < 2P` (the regime the lower bound addresses).
pub fn construct(p: u32, c: u32) -> Fig6 {
    assert!(p >= 1 && c >= p && c < 2 * p, "construction needs P ≤ C < 2P");
    let q = 2 * p - c;
    Fig6 {
        p,
        c,
        q,
        x_branch: run_branch(p, c, true),
        y_branch: run_branch(p, c, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contradiction_for_p2_c2() {
        // P = 2, C = 2 ⇒ Q = 2: the classic case.
        let f = construct(2, 2);
        assert_eq!(f.q, 2);
        assert_eq!(f.x_branch.decided, 1000);
        assert_eq!(f.y_branch.decided, 2000);
        // O exhausted before p_x in both branches:
        assert!(f.x_branch.invocations_before_px >= f.c);
        assert!(f.y_branch.invocations_before_px >= f.c);
        // p_x returns its own input in both — indistinguishable.
        assert_eq!(f.x_branch.px_returned, 777);
        assert_eq!(f.y_branch.px_returned, 777);
        assert!(f.contradiction());
    }

    #[test]
    fn contradiction_across_the_regime() {
        for p in 2..=4u32 {
            for c in p..2 * p {
                let f = construct(p, c);
                assert!(f.contradiction(), "P={p} C={c}: no contradiction exhibited");
            }
        }
    }

    #[test]
    fn q1_uses_quantum_preemption_on_cpu0() {
        // P = 2, C = 3 ⇒ Q = 1: the Y branch preempts p₁¹ with p₂¹.
        let f = construct(2, 3);
        assert_eq!(f.q, 1);
        assert!(f.contradiction());
    }

    #[test]
    fn histories_are_recorded() {
        let f = construct(2, 2);
        assert!(!f.x_branch.history.trace.events.is_empty());
        assert!(!f.y_branch.history.trace.events.is_empty());
    }

    #[test]
    fn narrative_mentions_the_bottom() {
        let f = construct(2, 2);
        let n = f.narrative();
        assert!(n.contains("⊥"));
        assert!(n.contains("Q = 2P − C = 2"));
    }

    #[test]
    #[should_panic(expected = "P ≤ C < 2P")]
    fn rejects_c_at_2p() {
        let _ = construct(2, 4);
    }
}
