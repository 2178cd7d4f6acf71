//! Fig. 3: wait-free consensus for hybrid-scheduled uniprocessors, from
//! reads and writes only.
//!
//! ```text
//! shared variable P : array[1..3] of valtype ∪ {⊥} initially ⊥
//!
//! procedure decide(val: valtype) returns valtype
//!   1: v := val;
//!   2: for i := 1 to 3 do
//!   3:     w := P[i];
//!   4:     if w ≠ ⊥ then
//!   5:         v := w
//!          else
//!   6:         P[i] := v
//!      od;
//!   7: return P[3]
//! ```
//!
//! The algorithm copies a value from `P[1]` to `P[2]` to `P[3]`; every
//! process returns the value it reads in `P[3]`. Lemma 1 of the paper shows
//! all processes return the same value provided each process can be
//! quantum-preempted **at most once** per invocation, which holds when
//! `Q ≥ 8` (the unrolled invocation is exactly eight atomic statements:
//! statement 1, then a read (3) and a test-or-write (4–6) per array slot,
//! then the final read (7)).
//!
//! Theorem 1: *in a hybrid-scheduled uniprocessor system with `Q ≥ 8`,
//! consensus can be implemented in constant time using only reads and
//! writes* — i.e. reads and writes are universal on a hybrid-scheduled
//! uniprocessor, for any number of processes and any number of priority
//! levels.
//!
//! The test suite verifies Lemma 1 by **exhaustive enumeration** of every
//! well-formed schedule for small configurations (the mechanized analogue
//! of the paper's Fig. 4 case analysis), and verifies tightness by finding
//! disagreeing schedules when `Q` is small.

use std::sync::{Arc, OnceLock};

use sched_sim::machine::Footprint;
use sched_sim::program::{Flow, ProcRef, ProgMachine, Program, ProgramBuilder};
use wfmem::Val;

/// The three-slot shared state of one Fig. 3 consensus object
/// (`P[1..3]`, all initially `⊥`).
pub type ConsensusCell = [Option<Val>; 3];

/// Per-process scratch registers used by a `decide` invocation
/// (the paper's private variables `v`, `w` plus the loop index).
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct DecideScratch {
    /// The paper's `v`: the value being copied along the chain.
    pub v: Val,
    /// The paper's `w`: the last value read from `P[i]`.
    pub w: Option<Val>,
    /// Loop index `i ∈ 1..=3`.
    pub i: u8,
    /// The decided value, set by statement 7.
    pub ret: Option<Val>,
}

/// Appends the Fig. 3 `decide` procedure to a program under construction,
/// operating on a consensus cell selected from the shared memory by `cell`.
///
/// This is the composition hook used by the larger algorithms: Fig. 5
/// performs consensus on the `nxt` field of a list cell chosen at run time,
/// so the cell accessor receives both the memory and the locals.
///
/// * `cell_mask` — the abstract-footprint bitmask covering every shared
///   cell `cell` may ever select (see [`Footprint`]): statements 3 and 7
///   are declared as reads of it and statements 4–6 as read-writes, which
///   lets the explorer's partial-order reduction commute `decide` steps on
///   disjoint objects. Must **over-approximate**: callers selecting the
///   cell dynamically pass `u64::MAX` (whole memory — always sound, still
///   commutes against purely-local steps);
/// * `cell` — selects the three-slot array (`P[1..3]`) to operate on;
/// * `input` — reads the proposal (`val`) from the locals;
/// * `scratch` — projects the [`DecideScratch`] out of the locals.
///
/// The decided value is left in `scratch.ret` when the procedure returns.
/// The procedure body is exactly eight counted atomic statements.
pub fn append_decide<L, M>(
    b: &mut ProgramBuilder<L, M>,
    name: &str,
    cell_mask: u64,
    cell: impl for<'a> Fn(&'a mut M, &L) -> &'a mut ConsensusCell + Send + Sync + 'static,
    input: impl Fn(&L) -> Val + Send + Sync + 'static,
    scratch: impl Fn(&mut L) -> &mut DecideScratch + Send + Sync + 'static,
) -> ProcRef
where
    L: 'static,
    M: 'static,
{
    let cell = Arc::new(cell);
    let input = Arc::new(input);
    let scratch = Arc::new(scratch);
    let p = b.proc(name);

    {
        let scratch = scratch.clone();
        let input = input.clone();
        b.stmt_fp(p, "1: v := val", Footprint::LOCAL, move |l, _m| {
            let v = input(l);
            let s = scratch(l);
            s.v = v;
            s.i = 1;
            Flow::Next
        });
    }
    let loop_top = b.here(p);
    {
        let scratch = scratch.clone();
        let cell = cell.clone();
        b.stmt_fp(p, "3: w := P[i]", Footprint::reads(cell_mask), move |l, m| {
            let i = scratch(l).i as usize;
            let w = cell(m, l)[i - 1];
            scratch(l).w = w;
            Flow::Next
        });
    }
    {
        let scratch = scratch.clone();
        let cell = cell.clone();
        b.stmt_fp(p, "4-6: if w ≠ ⊥ then v := w else P[i] := v", Footprint::rw(cell_mask), move |l, m| {
            let s = scratch(l);
            let (i, v, w) = (s.i as usize, s.v, s.w);
            match w {
                Some(w) => scratch(l).v = w,
                None => {
                    cell(m, l)[i - 1] = Some(v);
                }
            }
            let s = scratch(l);
            s.i += 1;
            if s.i <= 3 {
                Flow::Goto(loop_top)
            } else {
                Flow::Next
            }
        });
    }
    {
        let scratch = scratch.clone();
        let cell = cell.clone();
        b.stmt_fp(p, "7: return P[3]", Footprint::reads(cell_mask), move |l, m| {
            let r = cell(m, l)[2];
            debug_assert!(r.is_some(), "P[3] must be set when statement 7 runs");
            scratch(l).ret = r;
            Flow::Return
        });
    }
    p
}

/// Appends a *read* of a Fig. 3 consensus object: the paper's
/// `if P[1] = ⊥ then return ⊥ else return decide(P[1])` (Sec. 3.2).
///
/// `peek_scratch` is the shared-reference twin of `scratch` (the `decide`
/// proposal must be readable from `&L`). On return, `scratch.ret` holds the
/// decided value, or `None` if the object was undecided at the read of
/// `P[1]`.
pub fn append_read<L, M>(
    b: &mut ProgramBuilder<L, M>,
    name: &str,
    cell_mask: u64,
    cell: impl for<'a> Fn(&'a mut M, &L) -> &'a mut ConsensusCell + Send + Sync + Clone + 'static,
    scratch: impl Fn(&mut L) -> &mut DecideScratch + Send + Sync + Clone + 'static,
    peek_scratch: impl Fn(&L) -> &DecideScratch + Send + Sync + 'static,
) -> ProcRef
where
    L: 'static,
    M: 'static,
{
    // The inner decide proposes the value the read observed in P[1].
    let decide = append_decide(
        b,
        &format!("{name}.decide"),
        cell_mask,
        cell.clone(),
        move |l| peek_scratch(l).w.expect("decide called only after P[1] ≠ ⊥"),
        scratch.clone(),
    );
    let p = b.proc(name);
    b.stmt_fp(p, "read: if P[1] = ⊥ then return ⊥ else decide(P[1])", Footprint::reads(cell_mask), move |l, m| {
        let w = cell(m, l)[0];
        let s = scratch(l);
        s.w = w;
        match w {
            None => {
                s.ret = None;
                Flow::Return
            }
            Some(_) => Flow::Call(decide),
        }
    });
    b.stmt_fp(p, "read: return decided value", Footprint::LOCAL, |_l, _m| Flow::Return);
    p
}

/// Shared memory for a standalone Fig. 3 consensus object.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct UniConsensusMem {
    /// The paper's `P[1..3]`.
    pub p: ConsensusCell,
}

/// Locals for a standalone `decide` process.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct UniConsensusLocals {
    /// The proposal.
    pub val: Val,
    /// Scratch registers.
    pub s: DecideScratch,
}

/// The number of counted atomic statements in one `decide` invocation.
pub const STATEMENTS_PER_DECIDE: u32 = 8;

/// The minimum quantum for which Theorem 1 guarantees correctness
/// (`Q ≥ 8`): one invocation is exactly eight statements, so any process is
/// quantum-preempted at most once per invocation.
pub const MIN_QUANTUM: u32 = STATEMENTS_PER_DECIDE;

/// Builds the standalone `decide` program.
pub fn decide_program() -> (Arc<Program<UniConsensusLocals, UniConsensusMem>>, ProcRef) {
    let mut b = ProgramBuilder::new();
    let p = append_decide(
        &mut b,
        "decide",
        0b1, // the standalone memory is a single consensus cell
        |m: &mut UniConsensusMem, _l: &UniConsensusLocals| &mut m.p,
        |l| l.val,
        |l| &mut l.s,
    );
    (b.build(), p)
}

/// A single-shot process machine that proposes `input` to the standalone
/// object and finishes; its [output](sched_sim::machine::StepMachine::output)
/// is the decided value.
pub fn decide_machine(input: Val) -> ProgMachine<UniConsensusLocals, UniConsensusMem> {
    // Every standalone decide machine runs the same immutable program, so
    // it is built once per process, not once per machine.
    static DECIDE: OnceLock<(Arc<Program<UniConsensusLocals, UniConsensusMem>>, ProcRef)> =
        OnceLock::new();
    let (prog, entry) = DECIDE.get_or_init(decide_program);
    ProgMachine::single_shot(
        prog,
        UniConsensusLocals { val: input, s: DecideScratch::default() },
        *entry,
    )
    .with_output(|l| l.s.ret)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::explore::{check_all_schedules, explore, ExploreBounds, Verdict};
    use sched_sim::history::check_well_formed;
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};
    use sched_sim::Decider;

    /// Builds a uniprocessor kernel with one decide process per
    /// (input, priority) pair.
    fn kernel(spec: SystemSpec, procs: &[(Val, u32)]) -> Kernel<UniConsensusMem> {
        let mut k = Kernel::new(UniConsensusMem::default(), spec);
        for &(input, prio) in procs {
            k.add_process(ProcessorId(0), Priority(prio), Box::new(decide_machine(input)));
        }
        k
    }

    fn outputs(k: &Kernel<UniConsensusMem>) -> Vec<Val> {
        (0..k.n_processes())
            .map(|i| k.output(ProcessId(i as u32)).expect("process decided"))
            .collect()
    }

    /// Agreement + validity oracle; `None` when the terminal state is fine.
    fn consensus_property(k: &Kernel<UniConsensusMem>, inputs: &[Val]) -> Option<String> {
        let outs = outputs(k);
        let first = outs[0];
        if !outs.iter().all(|&o| o == first) {
            return Some(format!("disagreement: outputs {outs:?}"));
        }
        if !inputs.contains(&first) {
            return Some(format!("invalid decision {first} not in {inputs:?}"));
        }
        None
    }

    #[test]
    fn solo_process_decides_own_value() {
        let mut k = kernel(SystemSpec::hybrid(MIN_QUANTUM), &[(42, 1)]);
        let steps = k.run(&mut RoundRobin::new(), 1000);
        assert_eq!(steps, u64::from(STATEMENTS_PER_DECIDE));
        assert_eq!(outputs(&k), vec![42]);
    }

    #[test]
    fn invocation_is_exactly_eight_statements() {
        let mut k = kernel(SystemSpec::hybrid(100), &[(1, 1), (2, 1), (3, 1)]);
        k.run(&mut RoundRobin::new(), 1000);
        for i in 0..3 {
            assert_eq!(
                k.stats(ProcessId(i)).own_steps,
                u64::from(STATEMENTS_PER_DECIDE)
            );
        }
    }

    #[test]
    fn agreement_under_fair_round_robin() {
        let inputs: Vec<(Val, u32)> = (0..8).map(|i| (i + 10, 1 + (i as u32) % 3)).collect();
        let vals: Vec<Val> = inputs.iter().map(|&(v, _)| v).collect();
        let mut k = kernel(SystemSpec::hybrid(MIN_QUANTUM), &inputs);
        k.run(&mut RoundRobin::new(), 100_000);
        assert!(k.all_finished());
        assert_eq!(consensus_property(&k, &vals), None);
    }

    #[test]
    fn agreement_under_random_schedules_many_seeds() {
        for seed in 0..200 {
            let inputs: Vec<(Val, u32)> =
                (0..6).map(|i| (i + 1, 1 + (i as u32) % 4)).collect();
            let vals: Vec<Val> = inputs.iter().map(|&(v, _)| v).collect();
            let mut k =
                kernel(SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(), &inputs);
            k.attach_obs();
            k.run(&mut SeededRandom::new(seed), 100_000);
            assert!(k.all_finished(), "seed {seed} did not finish");
            check_well_formed(&k.history()).expect("well-formed");
            if let Some(err) = consensus_property(&k, &vals) {
                panic!("seed {seed}: {err}");
            }
        }
    }

    /// Lemma 1, mechanized: exhaustive enumeration of ALL well-formed
    /// schedules of two equal-priority processes with Q = 8 (including
    /// every adversarial first-window alignment) finds no disagreement.
    #[test]
    fn lemma1_exhaustive_two_processes() {
        let k = kernel(
            SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
            &[(1, 1), (2, 1)],
        );
        let stats =
            check_all_schedules(&k, ExploreBounds::default(), |k| consensus_property(k, &[1, 2]))
                .expect("Lemma 1 must hold for Q = 8");
        assert!(stats.terminals > 1, "expected multiple distinct schedules");
        assert!(!stats.truncated());
    }

    /// Lemma 1 with three processes across two priority levels.
    #[test]
    fn lemma1_exhaustive_three_processes_two_levels() {
        let k = kernel(
            SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
            &[(1, 1), (2, 1), (3, 2)],
        );
        let stats = check_all_schedules(&k, ExploreBounds::default(), |k| {
            consensus_property(k, &[1, 2, 3])
        })
        .expect("Lemma 1 must hold for Q = 8");
        assert!(!stats.truncated());
    }

    /// Tightness: with a tiny quantum (free interleaving among equal
    /// priorities) the algorithm is NOT a correct consensus implementation —
    /// the explorer finds a disagreeing schedule, confirming that the
    /// Q ≥ 8 hypothesis is doing real work.
    #[test]
    fn small_quantum_admits_disagreement() {
        let k = kernel(
            SystemSpec::hybrid(1).with_adversarial_alignment(),
            &[(1, 1), (2, 1)],
        );
        let mut found = false;
        explore(&k, ExploreBounds::default(), |k| {
            if consensus_property(k, &[1, 2]).is_some() {
                found = true;
                Verdict::Stop
            } else {
                Verdict::KeepGoing
            }
        });
        assert!(found, "expected a disagreeing schedule at Q = 1");
    }

    /// Degeneration check: the algorithm stays correct under a pure
    /// priority-scheduled system (distinct priorities, quantum irrelevant).
    #[test]
    fn pure_priority_degeneration_exhaustive() {
        let k = kernel(
            SystemSpec::pure_priority(),
            &[(1, 1), (2, 2), (3, 3)],
        );
        check_all_schedules(&k, ExploreBounds::default(), |k| {
            consensus_property(k, &[1, 2, 3])
        })
        .expect("distinct-priority processes never quantum-interleave");
    }

    /// The read procedure returns ⊥ before any decide and the decided value
    /// after.
    #[test]
    fn read_procedure_matches_decide() {
        #[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
        struct L {
            s: DecideScratch,
        }
        let mut b = ProgramBuilder::<L, UniConsensusMem>::new();
        let read = append_read(
            &mut b,
            "read",
            0b1,
            |m: &mut UniConsensusMem, _l: &L| &mut m.p,
            |l| &mut l.s,
            |l| &l.s,
        );
        let prog = b.build();
        let mk = || {
            ProgMachine::single_shot(&prog, L::default(), read)
                .with_output(|l| Some(l.s.ret.map_or(u64::MAX, |v| v)))
        };

        // Undecided object: read returns ⊥ (encoded u64::MAX).
        let mut k = Kernel::new(UniConsensusMem::default(), SystemSpec::hybrid(16));
        let p = k.add_process(ProcessorId(0), Priority(1), Box::new(mk()));
        k.run(&mut RoundRobin::new(), 1000);
        assert_eq!(k.output(p), Some(u64::MAX));

        // Decided object: read returns the decided value.
        let mut k = kernel(SystemSpec::hybrid(16), &[(7, 1)]);
        k.run(&mut RoundRobin::new(), 1000);
        let mem = k.mem.clone();
        let mut k2 = Kernel::new(mem, SystemSpec::hybrid(16));
        let p = k2.add_process(ProcessorId(0), Priority(1), Box::new(mk()));
        k2.run(&mut RoundRobin::new(), 1000);
        assert_eq!(k2.output(p), Some(7));
    }

    /// Read racing with concurrent decides never returns a value that
    /// contradicts the decision (exhaustive, small config).
    #[test]
    fn read_is_consistent_with_decides_exhaustive() {
        #[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
        struct L {
            s: DecideScratch,
        }
        let mut b = ProgramBuilder::<L, UniConsensusMem>::new();
        let read = append_read(
            &mut b,
            "read",
            0b1,
            |m: &mut UniConsensusMem, _l: &L| &mut m.p,
            |l| &mut l.s,
            |l| &l.s,
        );
        let prog = b.build();
        let mut k = Kernel::new(
            UniConsensusMem::default(),
            SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
        );
        let d1 = k.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(1)));
        let d2 = k.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(2)));
        let r = k.add_process(
            ProcessorId(0),
            Priority(1),
            Box::new(
                ProgMachine::single_shot(&prog, L::default(), read)
                    .with_output(|l| Some(l.s.ret.map_or(u64::MAX, |v| v))),
            ),
        );
        check_all_schedules(&k, ExploreBounds::default(), |k| {
            let decided = k.output(d1).expect("d1 done");
            let d2v = k.output(d2).expect("d2 done");
            if decided != d2v {
                return Some(format!("decides disagree: {decided} vs {d2v}"));
            }
            let read_v = k.output(r).expect("r done");
            if read_v != u64::MAX && read_v != decided {
                return Some(format!("read returned {read_v}, decision was {decided}"));
            }
            None
        })
        .expect("reads must agree with decides");
    }

    /// Reproducing the kernel-level preemption accounting the Lemma 1 proof
    /// relies on: with Q = 8 and an 8-statement invocation, no process is
    /// quantum-preempted more than once per invocation, under any schedule.
    #[test]
    fn at_most_one_quantum_preemption_per_invocation() {
        for seed in 0..100 {
            let mut k = kernel(
                SystemSpec::hybrid(MIN_QUANTUM).with_adversarial_alignment(),
                &[(1, 1), (2, 1), (3, 1), (4, 1)],
            );
            let mut d = SeededRandom::new(seed);
            k.run(&mut d, 100_000);
            for i in 0..4 {
                let s = k.stats(ProcessId(i));
                assert!(
                    s.quantum_preemptions <= 1,
                    "seed {seed}: process {i} quantum-preempted {} times",
                    s.quantum_preemptions
                );
            }
        }
    }

    /// A decider that always favors the largest option index, a cheap
    /// "contrarian" schedule distinct from round-robin and random.
    struct LastOption;
    impl Decider for LastOption {
        fn choose(&mut self, _c: sched_sim::decision::Choice<'_>, n: usize) -> usize {
            n - 1
        }
    }

    #[test]
    fn agreement_under_contrarian_schedule() {
        let inputs: Vec<(Val, u32)> = (0..5).map(|i| (i + 1, 1)).collect();
        let mut k = kernel(SystemSpec::hybrid(MIN_QUANTUM), &inputs);
        k.run(&mut LastOption, 100_000);
        assert_eq!(consensus_property(&k, &[1, 2, 3, 4, 5]), None);
    }

    /// Observability counters witness the Theorem 1 hypothesis directly:
    /// with aligned windows and `Q = 8`, an 8-statement `decide` always
    /// occupies exactly one quantum window, so no quantum boundary falls
    /// mid-invocation and no same-priority process is displaced from an
    /// open window — while a smaller quantum makes both counters fire.
    #[test]
    fn obs_counters_no_mid_invocation_expiry_at_min_quantum() {
        let run = |q: u32| {
            let mut k = kernel(
                SystemSpec::hybrid(q),
                &[(1, 1), (2, 1), (3, 1), (4, 2)],
            );
            k.run(&mut SeededRandom::new(7), 100_000);
            assert!(k.all_finished(), "q {q} did not finish");
            k
        };

        let k = run(MIN_QUANTUM);
        let c = k.counters();
        assert_eq!(c.quantum_expiries_mid_invocation, 0);
        assert_eq!(c.same_prio_preemptions, 0);
        assert_eq!(c.invocations_completed, 4);
        assert_eq!(c.statements, 4 * u64::from(STATEMENTS_PER_DECIDE));
        assert_eq!(c.statements_per_op(), Some(f64::from(STATEMENTS_PER_DECIDE)));

        // Tightness: Q = 4 splits every invocation across windows.
        let k = run(4);
        let c = k.counters();
        assert!(c.quantum_expiries_mid_invocation > 0, "{c}");
        assert!(c.same_prio_preemptions > 0, "{c}");
        // The per-kind counter agrees with the per-process accounting.
        let total: u64 = (0..4).map(|i| k.stats(ProcessId(i)).quantum_preemptions).sum();
        assert_eq!(c.same_prio_preemptions, total);
    }
}
