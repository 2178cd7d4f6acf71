//! Quantum-based uniprocessor primitives (the Anderson–Jain–Ott substrate).
//!
//! Fig. 5 of the paper updates its per-priority-level head variables with a
//! compare-and-swap denoted `Q-C&S`, citing the constant-time
//! quantum-scheduled algorithms of Anderson, Jain & Ott (DISC 1998,
//! summarized in the paper's Appendix C, which the extended abstract does
//! not reproduce). Each head variable is *written* only by processes of one
//! priority level — which are quantum-scheduled with respect to one another
//! — and *read* by other levels with a single load.
//!
//! This module reconstructs that substrate with the *announce / attempt /
//! validate / retry* structure those algorithms are built on (the paper:
//! "if a process can ever detect that it has crossed a quantum boundary,
//! then it can be sure that the next few instructions it executes will be
//! performed without preemption"):
//!
//! ```text
//! Q-C&S(addr, old, new) by process p:           // X = announce word
//!   q1: X := p
//!   q2: v := *addr
//!   q3: if v = old then *addr := new  (ok := v = old)
//!   q4: if X = p then return ok else goto q1    // boundary crossed: retry
//! ```
//!
//! One attempt is four atomic statements. If the validation at `q4` fails,
//! `p` was quantum-preempted during the attempt; having just resumed, its
//! next `Q ≥ 8` statements are free of same-level preemption, so the retry
//! validates — **at most one retry** under the quantum sizes the paper
//! assumes.
//!
//! ## Semantic contract (and the stale-overwrite anomaly)
//!
//! When no same-level preemption hits an attempt, the attempt is atomic
//! with respect to every other same-level operation on the word (they all
//! announce in `X` first). When an attempt *is* preempted between `q2` and
//! `q3`, the write at `q3` may overwrite a newer value installed by the
//! preemptor, and `p` then observes `X ≠ p` and retries (reporting
//! failure). `Q-C&S` therefore guarantees:
//!
//! 1. **at most one** concurrent `Q-C&S` on the same word returns `true`,
//!    and a `true` return implies the winning attempt itself was free of
//!    same-level interference — its `old → new` transition really occurred;
//! 2. an attempt that *was* preempted can lose entirely or overwrite one
//!    newer value with its stale write, and the preempted process *knows*
//!    (it observed `X ≠ p` and retried). In particular two concurrently
//!    preempted attempts can both fail while still writing the word.
//!
//! Exactly this weaker contract is what Fig. 5 is engineered around: its
//! head variables are **hints** — the nested `repeat/until` loops re-read
//! the head, the `last` field detects interference, and readers tolerate
//! heads that are "off by one" by chasing one `nxt` pointer (Fig. 5 lines
//! 19–24 and 53–58). The list of cells linked by consensus-decided `nxt`
//! pointers, not the head hints, is the object's ground truth. The
//! end-to-end linearizability of the Fig. 5 object under this contract is
//! verified exhaustively in `uni::cas`.

use std::sync::Arc;

use sched_sim::program::{Flow, ProcRef, ProgramBuilder};
use wfmem::Val;

/// Scratch registers for one `Q-C&S` invocation.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct QcsScratch {
    /// Value read from the word (`v`).
    pub v: Val,
    /// The `(old, new)` operands, staged by the caller.
    pub old: Val,
    /// The value to install.
    pub new: Val,
    /// Whether the comparison at `q3` succeeded.
    pub ok: bool,
    /// The invocation's return value.
    pub ret: bool,
    /// Attempt counter (diagnostics; bounded by 2 under adequate `Q`).
    pub attempts: u32,
}

/// Appends a `Q-C&S` procedure operating on a word selected by `word`,
/// with announce variable selected by `announce`.
///
/// * `word` / `announce` — select the target word and its announce word
///   (the announce word must be shared by **all same-level writers** of the
///   target and by nobody else);
/// * `me` — the caller's announce token (any value unique per process and
///   distinct from the announce word's initial value);
/// * `scratch` — projects the [`QcsScratch`]; the caller stages `old` and
///   `new` in it before the call, and reads `ret` after.
pub fn append_qcs<L, M>(
    b: &mut ProgramBuilder<L, M>,
    name: &str,
    word: impl for<'a> Fn(&'a mut M, &L) -> &'a mut Val + Send + Sync + 'static,
    announce: impl for<'a> Fn(&'a mut M, &L) -> &'a mut Val + Send + Sync + 'static,
    me: impl Fn(&L) -> Val + Send + Sync + 'static,
    scratch: impl Fn(&mut L) -> &mut QcsScratch + Send + Sync + 'static,
) -> ProcRef
where
    L: 'static,
    M: 'static,
{
    let word = Arc::new(word);
    let announce = Arc::new(announce);
    let me = Arc::new(me);
    let scratch = Arc::new(scratch);
    let p = b.proc(name);

    let retry = b.here(p);
    {
        let announce = announce.clone();
        let me = me.clone();
        let scratch = scratch.clone();
        b.stmt(p, "q1: X := p", move |l, m| {
            let tok = me(l);
            *announce(m, l) = tok;
            scratch(l).attempts += 1;
            Flow::Next
        });
    }
    {
        let word = word.clone();
        let scratch = scratch.clone();
        b.stmt(p, "q2: v := *addr", move |l, m| {
            let v = *word(m, l);
            scratch(l).v = v;
            Flow::Next
        });
    }
    {
        let word = word.clone();
        let scratch = scratch.clone();
        b.stmt(p, "q3: if v = old then *addr := new", move |l, m| {
            let s = scratch(l);
            let (v, old, new) = (s.v, s.old, s.new);
            let ok = v == old;
            if ok {
                *word(m, l) = new;
            }
            scratch(l).ok = ok;
            Flow::Next
        });
    }
    {
        let announce = announce.clone();
        let me = me.clone();
        let scratch = scratch.clone();
        b.stmt(p, "q4: if X = p then return ok else retry", move |l, m| {
            let x = *announce(m, l);
            let tok = me(l);
            let s = scratch(l);
            if x == tok {
                s.ret = s.ok;
                Flow::Return
            } else {
                Flow::Goto(retry)
            }
        });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use sched_sim::decision::{RoundRobin, SeededRandom};
    use sched_sim::explore::{check_all_schedules, explore, ExploreBounds, Verdict};
    use sched_sim::ids::{ProcessId, ProcessorId, Priority};
    use sched_sim::kernel::{Kernel, SystemSpec};
    use sched_sim::program::ProgMachine;

    /// Announce word initial value: no process token equals this.
    const X0: Val = u64::MAX;

    #[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
    struct Mem {
        word: Val,
        x: Val,
    }

    #[derive(Clone, Debug, Hash, PartialEq, Eq)]
    struct L {
        me: Val,
        s: QcsScratch,
    }

    fn qcs_machine(me: Val, old: Val, new: Val) -> ProgMachine<L, Mem> {
        let mut b = ProgramBuilder::<L, Mem>::new();
        let p = append_qcs(
            &mut b,
            "qcs",
            |m, _| &mut m.word,
            |m, _| &mut m.x,
            |l| l.me,
            |l| &mut l.s,
        );
        let prog = b.build();
        ProgMachine::single_shot(
            &prog,
            L { me, s: QcsScratch { old, new, ..QcsScratch::default() } },
            p,
        )
        .with_output(|l| Some(u64::from(l.s.ret)))
    }

    fn fresh_kernel(q: u32) -> Kernel<Mem> {
        Kernel::new(
            Mem { word: 0, x: X0 },
            SystemSpec::hybrid(q).with_adversarial_alignment(),
        )
    }

    #[test]
    fn solo_cas_succeeds() {
        let mut k = fresh_kernel(8);
        let p = k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 0, 7)));
        k.run(&mut RoundRobin::new(), 100);
        assert_eq!(k.output(p), Some(1));
        assert_eq!(k.mem.word, 7);
    }

    #[test]
    fn solo_cas_fails_on_mismatch() {
        let mut k = fresh_kernel(8);
        let p = k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 5, 7)));
        k.run(&mut RoundRobin::new(), 100);
        assert_eq!(k.output(p), Some(0));
        assert_eq!(k.mem.word, 0);
    }

    /// Two same-level writers CASing 0→a and 0→b with Q ≥ 8, exhaustively:
    /// the documented contract holds in every schedule — at most one
    /// winner, the word always holds a value some attempt wrote, and when
    /// no quantum preemption occurred the outcome is exactly that of an
    /// atomic CAS pair (one winner, word = winner's value).
    #[test]
    fn contract_holds_exhaustively_q8() {
        let base = {
            let mut k = fresh_kernel(8);
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 0, 11)));
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(2, 0, 22)));
            k
        };
        let mut some_both_failed = false;
        check_all_schedules(&base, ExploreBounds::default(), |k| {
            let a = k.output(ProcessId(0)).unwrap() == 1;
            let b = k.output(ProcessId(1)).unwrap() == 1;
            let w = k.mem.word;
            if a && b {
                return Some("two winners on one word".to_string());
            }
            if w != 11 && w != 22 {
                return Some(format!("word {w} written by nobody"));
            }
            let preempted = k.stats(ProcessId(0)).quantum_preemptions
                + k.stats(ProcessId(1)).quantum_preemptions;
            if preempted == 0 {
                // Atomic-CAS behaviour required.
                if !(a ^ b) {
                    return Some(format!(
                        "unpreempted run must have one winner (a={a}, b={b})"
                    ));
                }
                let winner_val = if a { 11 } else { 22 };
                if w != winner_val {
                    return Some(format!("unpreempted run: word {w} ≠ {winner_val}"));
                }
            }
            if !a && !b {
                some_both_failed = true; // contract point 2: possible
            }
            None
        })
        .expect("Q-C&S contract");
        assert!(
            some_both_failed,
            "expected the both-preempted both-fail schedule to be reachable"
        );
    }

    /// With a full quantum covering one attempt and no preemption, two
    /// sequential CASes behave exactly like atomic CAS.
    #[test]
    fn unpreempted_attempts_are_atomic() {
        let mut k = fresh_kernel(64);
        let p1 = k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 0, 11)));
        let p2 = k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(2, 0, 22)));
        k.run(&mut RoundRobin::new(), 1000);
        assert_eq!(k.output(p1), Some(1));
        assert_eq!(k.output(p2), Some(0)); // saw 11, not 0
        assert_eq!(k.mem.word, 11);
    }

    /// Retries are bounded: with Q ≥ 2 × attempt length, no invocation
    /// takes more than two attempts, under any schedule.
    #[test]
    fn at_most_two_attempts_q8() {
        for seed in 0..200 {
            let mut k = fresh_kernel(8);
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 0, 11)));
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(2, 0, 22)));
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(3, 0, 33)));
            k.run(&mut SeededRandom::new(seed), 10_000);
            for pid in 0..3u32 {
                // Own steps ≤ 2 attempts × 4 statements.
                assert!(
                    k.stats(ProcessId(pid)).own_steps <= 8,
                    "seed {seed}: {} steps",
                    k.stats(ProcessId(pid)).own_steps
                );
            }
        }
    }

    /// The documented anomaly is real: with free interleaving (Q = 1) there
    /// exists a schedule where a completed update is overwritten by a stale
    /// write. This is why Fig. 5 treats head variables as hints.
    #[test]
    fn stale_overwrite_anomaly_exists_at_q1() {
        let base = {
            let mut k = fresh_kernel(1);
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 0, 11)));
            k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(2, 0, 22)));
            k
        };
        let mut anomaly = false;
        explore(&base, ExploreBounds::default(), |k| {
            let a = k.output(ProcessId(0)).unwrap() == 1;
            let b = k.output(ProcessId(1)).unwrap() == 1;
            let w = k.mem.word;
            // Winner's value overwritten by the loser's stale write:
            let overwritten = (a && !b && w == 22) || (b && !a && w == 11);
            if overwritten {
                anomaly = true;
                Verdict::Stop
            } else {
                Verdict::KeepGoing
            }
        });
        assert!(anomaly, "expected the stale-overwrite anomaly at Q = 1");
    }

    /// Higher-priority readers see a single-word value at every instant
    /// (reads never block or spin): simulated by interleaving a reader that
    /// loads the word once.
    #[test]
    fn single_load_read_by_other_level() {
        use sched_sim::machine::{FnMachine, StepOutcome};
        let mut k = fresh_kernel(8);
        k.add_process(ProcessorId(0), Priority(1), Box::new(qcs_machine(1, 0, 11)));
        let r = k.add_process(
            ProcessorId(0),
            Priority(2),
            Box::new(FnMachine::new(|m: &mut Mem, _| {
                (StepOutcome::Finished, Some(m.word))
            })),
        );
        k.run(&mut RoundRobin::new(), 100);
        // The higher-priority reader ran first and saw the initial value.
        assert_eq!(k.output(r), Some(0));
    }
}
