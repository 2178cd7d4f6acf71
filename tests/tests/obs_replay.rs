//! Deterministic replay, end to end: any captured run — seeded-random or
//! adversary-driven — replays bit-identically from its recorded decision
//! script, and a failing-oracle trace artifact dumped by
//! [`hybrid_wf::oracle::check_linearizable_traced`] reproduces the failure
//! after a disk round trip.
//!
//! The capture/replay precondition — "build the system identically on
//! every attempt" — is exactly what a [`Scenario`] provides: capture with
//! [`Scenario::run_seeded`], replay against a fresh [`Scenario::kernel`].

use hybrid_wf::multi::consensus::LocalMode;
use hybrid_wf::oracle::{check_linearizable, check_linearizable_traced, SeqSpec, TimedOp};
use hybrid_wf::universal::{op_machine, CounterSpec, UniversalMem};
use lowerbound::adversary::{fig7_scenario, MaxPreempt};
use sched_sim::machine::{FnMachine, StepOutcome};
use sched_sim::obs::{ObsEvent, Trace};
use sched_sim::rng::SplitMix64;
use sched_sim::{ProcessorId, Priority, Scenario, SystemSpec};
use wfmem::Val;

/// A universal-construction counter scenario; every kernel built from it
/// is identical, so a captured run can be replayed against a fresh one.
fn counter_scenario(n: u32, per: u32, q: u32) -> Scenario<UniversalMem<CounterSpec>> {
    let mut s = Scenario::new(
        UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
        SystemSpec::hybrid(q).with_adversarial_alignment(),
    )
    .with_obs()
    .step_budget(1_000_000);
    for pid in 0..n {
        s.add_process(
            ProcessorId(0),
            Priority(1 + pid % 2),
            Box::new(op_machine(CounterSpec, pid, n, vec![1; per as usize])),
        );
    }
    s
}

/// Asserts that a replay re-recorded `captured` exactly, and that the
/// comparison is not vacuous: the capture holds statements.
fn assert_same_trace(replay: Option<&Trace>, captured: &Trace, ctx: &str) {
    assert!(
        captured.events.iter().any(|e| matches!(e, ObsEvent::Stmt { .. })),
        "{ctx}: the capture holds no statement"
    );
    assert_eq!(replay, Some(captured), "{ctx}: replay diverged");
}

/// Capture → replay across many random seeds and shapes: the replayed
/// trace and the final shared memory are bit-identical to the recording.
#[test]
fn seeded_random_runs_replay_bit_identical() {
    let mut gen = SplitMix64::new(0x0b5_0b5);
    for case in 0..24u32 {
        let seed = gen.next_u64();
        let n = gen.range_u32(2, 5);
        let per = gen.range_u32(1, 4);
        let q = gen.range_u32(1, 16);

        let s = counter_scenario(n, per, q);
        let mut captured = s.run_seeded(seed);
        assert!(captured.all_finished, "case {case}: seed {seed} did not finish");
        let trace = captured.take_trace().expect("obs attached");

        let mut r = s.kernel();
        r.run(&mut trace.scripted(), s.budget());
        let ctx = format!("case {case}: seed={seed} n={n} per={per} q={q}");
        assert_same_trace(r.obs(), &trace, &ctx);
        assert_eq!(&r.mem, captured.mem(), "case {case}: final memory diverged");
        assert_eq!(r.counters(), captured.counters, "case {case}: counters diverged");
    }
}

/// The text serialization is lossless: a trace that goes to text and back
/// still replays to the identical trace.
#[test]
fn replay_survives_text_round_trip() {
    let s = counter_scenario(3, 2, 4);
    let mut captured = s.run_seeded(99);
    assert!(captured.all_finished);
    let trace = captured.take_trace().unwrap();

    let text = trace.to_text();
    let reloaded = Trace::from_text(&text).expect("parses");
    assert_eq!(reloaded, trace);

    let mut r = s.kernel();
    r.run(&mut reloaded.scripted(), s.budget());
    assert_same_trace(r.obs(), &trace, "text round trip");
    assert_eq!(&r.mem, captured.mem());
}

/// Adversary runs are replayable too: the preemption-maximizing
/// `MaxPreempt` decider from the lower-bound experiments records through
/// the same decision stream as any other decider.
#[test]
fn adversary_run_replays_bit_identical() {
    for seed in [0u64, 3, 11] {
        let s = fig7_scenario(2, 2, 3, 1, 8, LocalMode::Modeled).with_obs();
        let mut captured = s.run(&mut MaxPreempt::new(seed));
        assert!(captured.all_finished, "seed {seed}");
        let trace = captured.take_trace().unwrap();

        let mut r = s.kernel();
        let steps = r.run(&mut trace.scripted(), s.budget());
        let replay = sched_sim::RunResult::from_kernel(r, steps, std::time::Duration::ZERO);
        assert!(replay.all_finished, "seed {seed} replay");
        assert_same_trace(replay.trace(), &trace, &format!("seed {seed}"));
        assert_eq!(replay.outputs, captured.outputs, "seed {seed}");
        assert_eq!(replay.counters, captured.counters, "seed {seed}");
    }
}

/// Fetch-and-increment sequential spec for the lost-update regression.
#[derive(Clone, Copy, Debug)]
struct FaiSpec;

impl SeqSpec for FaiSpec {
    type Op = ();
    type State = Val;

    fn init(&self) -> Val {
        0
    }

    fn apply(&self, state: &Val, _op: &()) -> (Val, Val) {
        (state + 1, *state)
    }
}

/// Shared memory for the racy counter: the counter itself plus one private
/// register per process (the machine closure must be `Fn`, so the "local"
/// read stash lives here — only its owner ever touches it).
type RacyMem = (u64, Vec<u64>);

/// A deliberately racy fetch-and-increment: read the counter in one
/// statement, write it back incremented in the next. Correct in isolation,
/// loses updates whenever a quantum boundary splits the two statements —
/// exactly the failure mode the paper's `Q ≥ c` hypotheses exclude.
fn racy_fai_machine(me: usize, rounds: u32) -> Box<dyn sched_sim::StepMachine<RacyMem>> {
    Box::new(FnMachine::new(move |mem: &mut RacyMem, calls| {
        if calls % 2 == 0 {
            mem.1[me] = mem.0;
            (StepOutcome::Continue, None)
        } else {
            mem.0 = mem.1[me] + 1;
            let done = (calls + 1) / 2 >= rounds;
            (
                if done { StepOutcome::Finished } else { StepOutcome::InvocationEnd },
                Some(mem.1[me]),
            )
        }
    }))
}

fn racy_scenario() -> Scenario<RacyMem> {
    // Q = 1: every window is a single statement, so the read/write pair is
    // always separable.
    let mut s = Scenario::new(
        (0u64, vec![0u64; 2]),
        SystemSpec::hybrid(1).with_adversarial_alignment(),
    )
    .with_obs()
    .step_budget(10_000);
    for me in 0..2 {
        s.add_process(ProcessorId(0), Priority(1), racy_fai_machine(me, 2));
    }
    s
}

fn timed_fai_ops(ops: &[sched_sim::kernel::OpRecord]) -> Vec<TimedOp<()>> {
    ops.iter()
        .map(|r| TimedOp { start: r.start, end: r.t, op: (), result: r.output.unwrap() })
        .collect()
}

/// A failing linearizability check dumps a trace artifact; reloading that
/// artifact from disk and replaying it reproduces the identical failing
/// trace — the debugging loop the observability layer exists for.
#[test]
fn dumped_failing_oracle_trace_reproduces_failure() {
    let s = racy_scenario();
    // Find a seed whose schedule loses an update (Q = 1 makes this easy).
    let mut failing = None;
    for seed in 0..100u64 {
        let mut captured = s.run_seeded(seed);
        assert!(captured.all_finished, "seed {seed}");
        let trace = captured.take_trace().unwrap();
        let err = check_linearizable_traced(
            &FaiSpec,
            &timed_fai_ops(captured.ops()),
            &trace,
            "racy-fai-regression",
        );
        if let Err(e) = err {
            failing = Some((seed, captured, trace, e));
            break;
        }
    }
    let (seed, captured, trace, err) =
        failing.expect("Q = 1 must admit a lost update within 100 seeds");

    // The error carries the artifact path; the artifact round-trips.
    let path = err
        .lines()
        .find_map(|l| l.strip_prefix("replayable trace dumped to "))
        .unwrap_or_else(|| panic!("no artifact path in error: {err}"));
    let text = std::fs::read_to_string(path).expect("artifact readable");
    let reloaded = Trace::from_text(&text).expect("artifact parses");

    // Replaying the artifact reproduces the same failing trace, and the
    // oracle rejects it again.
    let mut r = s.kernel();
    r.run(&mut reloaded.scripted(), s.budget());
    assert!(r.all_finished());
    assert_same_trace(r.obs(), &trace, &format!("seed {seed}"));
    assert_eq!(&r.mem, captured.mem());
    assert!(
        check_linearizable(&FaiSpec, &timed_fai_ops(r.ops())).is_err(),
        "seed {seed}: replayed run must still violate linearizability"
    );
}
