//! An exponential-space priority-based consensus baseline, in the style of
//! Ramamurthy, Moir & Anderson (PODC 1996).
//!
//! The paper's complexity claim: "the main multiprocessor algorithm given
//! previously by Ramamurthy et al. for priority-based systems (a subclass
//! of the hybrid systems we consider) requires exponential space and time",
//! whereas the Fig. 7 algorithm is polynomial. That prior algorithm is not
//! reproduced in the paper, so this module provides a *representative*
//! comparator with the same asymptotic shape: a consensus construction
//! whose level structure is indexed by **subsets of the process set**
//! (`2^N − 1` levels) rather than by ports, with one consensus object per
//! subset. It is correct in the same model — each process walks the
//! subsets containing it in increasing numeric order, adopting published
//! values — but its space and per-process time grow as `Θ(2^N)`.
//!
//! The `poly_vs_exp` benchmark sweeps `N` and reports both constructions'
//! space (objects allocated) and time (statements executed), reproducing
//! the paper's polynomial-vs-exponential comparison. See DESIGN.md for the
//! substitution note.

use std::sync::{Arc, OnceLock};

use sched_sim::program::{Flow, ProcRef, ProgMachine, Program, ProgramBuilder};
use wfmem::{LocalConsensus, Val};

/// Shared memory: one consensus object and one published value per
/// nonempty subset of the `N` processes (indexed by bitmask `1..2^N`).
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct ExpMem {
    /// Number of processes (`N ≤ 20` keeps the allocation sane).
    pub n: u32,
    /// One consensus object per subset.
    pub cons: Vec<LocalConsensus>,
    /// Published value per subset.
    pub outval: Vec<Option<Val>>,
}

impl ExpMem {
    /// Allocates the `2^N − 1` subset objects.
    ///
    /// # Panics
    ///
    /// Panics if `n > 20` (the allocation would exceed a million objects —
    /// which is the point of the comparison, but not of your RAM).
    pub fn new(n: u32) -> Self {
        assert!(n <= 20, "exponential baseline capped at N = 20");
        let size = 1usize << n;
        ExpMem {
            n,
            cons: vec![LocalConsensus::new(); size],
            outval: vec![None; size],
        }
    }

    /// Number of shared objects allocated — the space-complexity metric
    /// reported by the benchmarks.
    pub fn objects(&self) -> usize {
        self.cons.len() - 1
    }
}

/// Locals of the subset-walk.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct ExpLocals {
    /// Process id.
    pub me: u32,
    /// Proposal.
    pub val: Val,
    /// Current working value.
    pub cur: Val,
    /// Subset cursor (bitmask).
    pub mask: u32,
    /// Decision.
    pub ret: Option<Val>,
}

/// Builds the subset-walk consensus program: visit every subset containing
/// `me` in increasing numeric order (the full set comes last), deciding
/// each subset's object and adopting its value; the full-set object's
/// decision is returned.
pub fn build_program() -> (Arc<Program<ExpLocals, ExpMem>>, ProcRef) {
    let mut b = ProgramBuilder::<ExpLocals, ExpMem>::new();
    let decide = b.proc("exp-decide");

    b.free(decide, "init cursor", |l, _m| {
        l.cur = l.val;
        l.mask = 0;
        Flow::Next
    });
    let loop_top = b.here(decide);
    b.stmt(decide, "walk: decide subset object, adopt value", move |l, m| {
        // Advance to the next subset containing me.
        let me_bit = 1u32 << l.me;
        loop {
            l.mask += 1;
            if l.mask >= (1 << m.n) {
                l.ret = Some(l.cur);
                return Flow::Return;
            }
            if l.mask & me_bit != 0 {
                break;
            }
        }
        let w = m.cons[l.mask as usize].decide(l.cur);
        m.outval[l.mask as usize] = Some(w);
        l.cur = w;
        Flow::Goto(loop_top)
    });

    (b.build(), decide)
}

/// A single-shot machine proposing `val`.
pub fn decide_machine(me: u32, val: Val) -> ProgMachine<ExpLocals, ExpMem> {
    // Every proposer runs the same immutable program, built once per
    // process.
    static DECIDE: OnceLock<(Arc<Program<ExpLocals, ExpMem>>, ProcRef)> = OnceLock::new();
    let (prog, entry) = DECIDE.get_or_init(build_program);
    ProgMachine::single_shot(prog, ExpLocals { me, val, ..ExpLocals::default() }, *entry)
        .with_output(|l| l.ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    fn run(n: u32, seed: Option<u64>) -> Kernel<ExpMem> {
        let mut k = Kernel::new(ExpMem::new(n), SystemSpec::hybrid(4));
        for pid in 0..n {
            // Distinct priorities: the priority-based model this baseline
            // belongs to.
            k.add_process(
                ProcessorId(0),
                Priority(pid + 1),
                Box::new(decide_machine(pid, u64::from(pid) + 10)),
            );
        }
        match seed {
            Some(s) => k.run(&mut SeededRandom::new(s), 100_000_000),
            None => k.run(&mut RoundRobin::new(), 100_000_000),
        };
        k
    }

    #[test]
    fn agreement_under_priority_scheduling() {
        for seed in 0..20 {
            let k = run(4, Some(seed));
            assert!(k.all_finished());
            let first = k.output(ProcessId(0)).unwrap();
            for pid in 0..4 {
                assert_eq!(k.output(ProcessId(pid)), Some(first), "seed {seed}");
            }
            assert!((10..14).contains(&first));
        }
    }

    #[test]
    fn space_grows_exponentially() {
        assert_eq!(ExpMem::new(3).objects(), 7);
        assert_eq!(ExpMem::new(10).objects(), 1023);
    }

    #[test]
    fn time_grows_exponentially() {
        let steps = |n: u32| {
            let k = run(n, None);
            k.stats(ProcessId(0)).own_steps
        };
        let (s4, s8) = (steps(4), steps(8));
        // Each added process roughly doubles the subsets walked.
        assert!(s8 > 10 * s4, "expected exponential growth: {s4} vs {s8}");
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn refuses_unpayable_allocations() {
        let _ = ExpMem::new(21);
    }
}
