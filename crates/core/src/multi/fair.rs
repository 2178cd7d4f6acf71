//! Fig. 9: multiprocessor consensus with *fair* quantum allocation and a
//! constant-size quantum.
//!
//! ```text
//! shared variable Output : valtype ∪ {⊥} initially ⊥
//!
//! procedure decide(val: valtype) returns valtype
//!   1: if local-consensus(pr(p), priority(p), p) ≠ p then
//!   2:     while Output = ⊥ do od;
//!   3:     return Output;
//!   4: output := global-PB-consensus(val);
//!   5: Output := output;
//!   6: return output
//! ```
//!
//! One process per (processor, priority level) is *elected* via a local
//! uniprocessor consensus object; losers spin until a decision appears.
//! Because quantum allocation is fair, each loser waits only finite time —
//! and, counted in its **own** steps (the definition of wait-freedom the
//! paper adopts for this algorithm), the spin is bounded by the winners'
//! progress. The election winners have pairwise-distinct priorities on each
//! processor, so they form a *priority-based* multiprogrammed system; the
//! Fig. 7 algorithm run among them needs only a constant-size quantum.
//!
//! This trades the large `Q` of Theorem 4 for a fairness assumption —
//! the paper's Sec. 5 observation that `P`-consensus primitives suffice
//! with a constant quantum under fair scheduling.

use std::sync::{Arc, OnceLock};

use sched_sim::program::{Flow, ProcRef, ProgMachine, Program, ProgramBuilder};
use wfmem::{LocalConsensus, Val};

use crate::multi::consensus::{
    append_decide_proc, AsMultiMem, DecideProgram, LocalMode, MultiLocals, MultiMem,
};

/// Shared memory of a Fig. 9 instance: a Fig. 7 instance plus the
/// `Output` variable and per-(processor, priority) election objects.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub struct FairMem {
    /// The embedded Fig. 7 memory (used by election winners only).
    pub inner: MultiMem,
    /// The paper's `Output` variable.
    pub output: Option<Val>,
    /// Election objects per (processor, priority level).
    pub election: Vec<Vec<LocalConsensus>>,
}

impl FairMem {
    /// Wraps a Fig. 7 memory.
    pub fn new(inner: MultiMem) -> Self {
        let p = inner.layout.p as usize;
        let v = inner.v as usize;
        FairMem {
            inner,
            output: None,
            election: vec![vec![LocalConsensus::new(); v + 1]; p],
        }
    }
}

impl AsMultiMem for FairMem {
    fn mm(&mut self) -> &mut MultiMem {
        &mut self.inner
    }
}

/// Builds the Fig. 9 `decide` program (spinning losers, Fig. 7 for the
/// election winners).
pub fn build_program(mode: LocalMode) -> (Arc<Program<MultiLocals, FairMem>>, ProcRef) {
    let mut b = ProgramBuilder::<MultiLocals, FairMem>::new();
    let inner_decide = append_decide_proc(&mut b, mode);

    let decide = b.proc("fair-decide");
    let spin = b.label();
    let winner_path = b.label();
    let after_inner = b.label();

    {
        let winner = winner_path;
        b.stmt(decide, "1: if local-consensus(pr(p), priority(p), p) ≠ p", move |l, m| {
            let w = m.election[l.cpu as usize][l.pri as usize].decide(u64::from(l.me));
            if w == u64::from(l.me) {
                Flow::Goto(winner)
            } else {
                Flow::Next
            }
        });
    }
    b.bind(decide, spin);
    {
        let spinc = spin;
        b.stmt(decide, "2: while Output = ⊥ do od", move |_l, m| {
            if m.output.is_none() {
                Flow::Goto(spinc)
            } else {
                Flow::Next
            }
        });
    }
    b.stmt(decide, "3: return Output", |l, m| {
        l.ret = m.output;
        Flow::Return
    });
    b.bind(decide, winner_path);
    {
        let after = after_inner;
        b.free(decide, "4: output := global-PB-consensus(val)", move |_l, _m| {
            Flow::CallThen { proc: inner_decide, resume: after }
        });
    }
    b.bind(decide, after_inner);
    b.stmt(decide, "5: Output := output", |l, m| {
        m.output = l.ret;
        Flow::Next
    });
    b.stmt(decide, "6: return output", |_l, _m| Flow::Return);

    (b.build(), decide)
}

/// Builds a single-shot Fig. 9 `decide(val)` machine.
pub fn decide_machine(
    me: u32,
    cpu: u32,
    pri: u32,
    val: Val,
    mode: LocalMode,
) -> ProgMachine<MultiLocals, FairMem> {
    // Built once per process and mode, as Fig. 7's program is.
    static DECIDE: [OnceLock<DecideProgram<FairMem>>; 2] = [OnceLock::new(), OnceLock::new()];
    let (prog, entry) = DECIDE[mode as usize].get_or_init(|| build_program(mode));
    ProgMachine::single_shot(prog, MultiLocals::new(me, cpu, pri, val), *entry)
        .with_output(|l| l.ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::ports::PortLayout;
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};

    /// Builds a Fig. 9 kernel: `procs[pid] = (cpu, priority, input)`.
    fn kernel(q: u32, p: u32, v: u32, procs: &[(u32, u32, Val)]) -> Kernel<FairMem> {
        let prio: Vec<u32> = procs.iter().map(|&(_, pr, _)| pr).collect();
        let cpus: Vec<u32> = procs.iter().map(|&(c, _, _)| c).collect();
        let m = (0..p)
            .map(|c| cpus.iter().filter(|&&x| x == c).count() as u32)
            .max()
            .unwrap()
            .max(1);
        // Winners form a priority-scheduled system: at most V per cpu.
        let layout = PortLayout::new(p, 2 * p, m.max(v));
        let mem = FairMem::new(MultiMem::new(layout, v, &prio, &cpus));
        let mut k = Kernel::new(mem, SystemSpec::hybrid(q));
        for (pid, &(cpu, pr, val)) in procs.iter().enumerate() {
            k.add_process(
                ProcessorId(cpu),
                Priority(pr),
                Box::new(decide_machine(pid as u32, cpu, pr, val, LocalMode::Modeled)),
            );
        }
        k
    }

    fn assert_agreement(k: &Kernel<FairMem>, inputs: &[Val]) {
        let n = k.n_processes();
        let first = k.output(ProcessId(0)).expect("decided");
        for pid in 0..n as u32 {
            assert_eq!(k.output(ProcessId(pid)), Some(first), "disagreement at p{pid}");
        }
        assert!(inputs.contains(&first), "invalid decision {first}");
    }

    #[test]
    fn single_processor_two_levels() {
        let procs = [(0, 1, 10), (0, 1, 20), (0, 2, 30), (0, 2, 40)];
        let mut k = kernel(4, 1, 2, &procs);
        k.run(&mut RoundRobin::new(), 1_000_000);
        assert!(k.all_finished());
        assert_agreement(&k, &[10, 20, 30, 40]);
    }

    #[test]
    fn constant_quantum_suffices_under_fairness() {
        // The headline of Fig. 9: Q as small as 2 works with fair
        // round-robin allocation (losers spin but winners share quanta).
        for q in [2u32, 3, 4] {
            let procs = [
                (0, 1, 10),
                (0, 1, 11),
                (0, 2, 12),
                (1, 1, 13),
                (1, 1, 14),
                (1, 2, 15),
            ];
            let mut k = kernel(q, 2, 2, &procs);
            k.run(&mut RoundRobin::new(), 2_000_000);
            assert!(k.all_finished(), "Q = {q} did not terminate under fairness");
            assert_agreement(&k, &[10, 11, 12, 13, 14, 15]);
        }
    }

    #[test]
    fn random_fairish_schedules_agree() {
        // Seeded random holder choices are fair with probability 1 over
        // finite runs: every process keeps getting chances.
        for seed in 0..40 {
            let procs = [(0, 1, 1), (0, 1, 2), (1, 1, 3), (1, 2, 4), (1, 2, 5)];
            let mut k = kernel(3, 2, 2, &procs);
            k.run(&mut SeededRandom::new(seed), 4_000_000);
            assert!(k.all_finished(), "seed {seed} did not terminate");
            assert_agreement(&k, &[1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn losers_return_the_winners_decision() {
        let procs = [(0, 1, 7), (0, 1, 8), (0, 1, 9)];
        let mut k = kernel(4, 1, 1, &procs);
        k.run(&mut RoundRobin::new(), 1_000_000);
        assert!(k.all_finished());
        // Exactly one process won the election (it ran Fig. 7); all got
        // the same value.
        assert_agreement(&k, &[7, 8, 9]);
        let elected = k.mem.election[0][1].read().expect("election decided");
        assert!(elected < 3);
    }
}
