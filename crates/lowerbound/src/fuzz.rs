//! Adversarial fuzz harness over every algorithm family in the workspace.
//!
//! [`sched_sim::fuzz`] supplies hostile deciders and [`sched_sim::shrink`]
//! the script minimizer; this module supplies what they attack: one
//! [`CaseEngine`] per algorithm family — Fig. 3 consensus, Fig. 5 C&S,
//! Fig. 7 multiprocessor consensus, Fig. 9 fair-scheduler consensus, the
//! universal construction, and the lock / exponential baselines — each with
//! a safety oracle derived from the paper's claims (agreement + validity,
//! linearizability via [`hybrid_wf::oracle`], per-invocation own-step
//! bounds for wait-freedom, and the Lemma 2/3 access-failure bounds via
//! [`hybrid_wf::multi::failures`]).
//!
//! Every family is fuzzed in two regimes:
//!
//! * **legal** — the quantum satisfies the paper's hypothesis (`Q ≥ 8` for
//!   Fig. 3, `Q ≥ c(2P+1−C)·Tmax` shaped thresholds for Fig. 7, …). A
//!   violation here is a *bug* in the implementation.
//! * **sub** — the quantum is below the threshold (Theorem 3's regime for
//!   consensus). Here the paper predicts impossibility, so the fuzzer
//!   *expects* to find violations; their absence is itself reportable.
//!
//! A violating run's recorded decision script is delta-debugged
//! ([`shrink_and_capture`]) to a minimal schedule, canonicalized so it
//! replays under [`sched_sim::decision::Scripted::strict`], and packaged as
//! a [`CounterExample`] artifact: metadata comment lines plus the full
//! `sched_sim` trace, byte-for-byte replayable (`# `-prefixed lines are
//! comments to [`Trace::from_text`], so the whole artifact parses as a
//! trace).

use std::path::{Path, PathBuf};
use std::time::Duration;

use hybrid_wf::baseline::exponential::{decide_machine as exp_decide, ExpMem};
use hybrid_wf::baseline::locks::{inc_machine, LockMem};
use hybrid_wf::multi::consensus::{LocalMode, MultiMem};
use hybrid_wf::multi::failures::{lemma2_holds, lemma3_bound_holds, summarize};
use hybrid_wf::multi::fair::{decide_machine as fair_decide, FairMem};
use hybrid_wf::multi::ports::PortLayout;
use hybrid_wf::oracle::{
    check_linearizable, check_linearizable_traced, timed_ops, CasRegOp, CasRegisterSpec,
};
use hybrid_wf::uni::cas::{op_machine as cas_machine, CasMem, CasOp};
use hybrid_wf::uni::consensus::{decide_machine as fig3_decide, UniConsensusMem, MIN_QUANTUM};
use hybrid_wf::universal::{
    op_machine as universal_machine, replay_final_state, CounterSpec, UniversalMem,
};
use hybrid_wf::Val;
use sched_sim::decision::{Decider, Scripted, SeededRandom};
use sched_sim::fuzz::{hostile, Recording, HOSTILE_NAMES};
use sched_sim::ids::{ProcessorId, Priority};
use sched_sim::kernel::SystemSpec;
use sched_sim::obs::Trace;
use sched_sim::prof::Profile;
use sched_sim::report::{wall_ms, Json, Kind};
use sched_sim::scenario::{RunResult, Scenario};
use sched_sim::shrink::shrink_script;
use sched_sim::sweep::run_cells;

use crate::adversary::MaxPreempt;
use crate::crash::CrashPlan;

/// An algorithm family under fuzz.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Fig. 3 uniprocessor consensus from reads/writes (Theorem 1, Q ≥ 8).
    Fig3,
    /// Fig. 5 compare-and-swap from consensus + reads/writes (Theorem 2).
    Fig5,
    /// Fig. 7 multiprocessor consensus from C-consensus objects (Theorem 4).
    Fig7,
    /// Fig. 9 consensus assuming a fair scheduler (Sec. 5). Safety-only:
    /// losers spin, so unfair hostile schedules may lawfully livelock it.
    Fig9,
    /// The universal construction applied to a fetch-and-add counter.
    Universal,
    /// The test-and-set lock baseline. Safety-only: priority inversion may
    /// lawfully livelock it — that is the paper's motivating pathology.
    Locks,
    /// The exponential-space priority-only baseline.
    Exponential,
}

impl Family {
    /// Every family, in report order.
    pub const ALL: [Family; 7] = [
        Family::Fig3,
        Family::Fig5,
        Family::Fig7,
        Family::Fig9,
        Family::Universal,
        Family::Locks,
        Family::Exponential,
    ];

    /// Stable lower-case name, used in reports and artifact files.
    pub fn name(self) -> &'static str {
        match self {
            Family::Fig3 => "fig3",
            Family::Fig5 => "fig5",
            Family::Fig7 => "fig7",
            Family::Fig9 => "fig9",
            Family::Universal => "universal",
            Family::Locks => "locks",
            Family::Exponential => "exponential",
        }
    }

    /// Parses a [`Family::name`] back to the family.
    pub fn from_name(s: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == s)
    }

    /// A quantum satisfying the paper's hypothesis for this family.
    pub fn legal_q(self) -> u32 {
        match self {
            Family::Fig3 => MIN_QUANTUM,
            Family::Fig5 => 4096,
            Family::Fig7 => 64,
            Family::Fig9 => 8,
            Family::Universal => 8,
            Family::Locks => 8,
            Family::Exponential => 4,
        }
    }

    /// A sub-threshold quantum (Theorem 3's regime, where applicable).
    pub fn sub_q(self) -> u32 {
        match self {
            Family::Fig5 => 2,
            _ => 1,
        }
    }
}

/// What the paper predicts for a (family, regime) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// No violation may occur: one is an implementation bug.
    Clean,
    /// The paper predicts impossibility: violations are expected, and
    /// their complete absence is itself an anomaly worth reporting.
    Violation,
    /// No prediction either way (informational regime).
    Any,
}

impl Expect {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Expect::Clean => "clean",
            Expect::Violation => "violation",
            Expect::Any => "any",
        }
    }

    /// The verdict of a cell with this prediction: `clean`/`BUG`,
    /// `predicted`/`MISSING` or `observed`/`quiet`, by whether it saw a
    /// violation. `BUG` and `MISSING` fail [`grid_ok`].
    pub fn verdict(self, violated: bool) -> &'static str {
        match (self, violated) {
            (Expect::Clean, true) => "BUG",
            (Expect::Clean, false) => "clean",
            (Expect::Violation, true) => "predicted",
            (Expect::Violation, false) => "MISSING",
            (Expect::Any, true) => "observed",
            (Expect::Any, false) => "quiet",
        }
    }
}

/// One fuzz configuration: a family at a quantum, with the expectation the
/// paper assigns to that regime.
#[derive(Clone, Copy, Debug)]
pub struct CaseSpec {
    /// The algorithm family under test.
    pub family: Family,
    /// The scheduling quantum.
    pub q: u32,
    /// `"legal"` or `"sub"`.
    pub regime: &'static str,
    /// The paper's prediction for this regime.
    pub expect: Expect,
}

/// The full fuzz grid: every family in both regimes, with expectations.
///
/// Legal regimes are all [`Expect::Clean`]. Sub-threshold regimes are
/// [`Expect::Violation`] where the paper proves impossibility *and* the
/// violation is empirically reachable within a handful of seeds (Fig. 3 at
/// `Q = 1`: Lemma 1's enumeration shows 22 of 54 schedules disagree;
/// Fig. 7 at `Q = 1`, inside Theorem 3's `Q ≤ 2P − C` bound), and
/// [`Expect::Any`] elsewhere (e.g. the baselines, whose guarantees are not
/// quantum-conditioned, or Fig. 9, whose oracle is safety-only).
pub fn case_specs() -> Vec<CaseSpec> {
    Family::ALL
        .into_iter()
        .flat_map(|family| {
            let sub_expect = match family {
                Family::Fig3 | Family::Fig7 => Expect::Violation,
                _ => Expect::Any,
            };
            [
                CaseSpec { family, q: family.legal_q(), regime: "legal", expect: Expect::Clean },
                CaseSpec { family, q: family.sub_q(), regime: "sub", expect: sub_expect },
            ]
        })
        .collect()
}

/// Decider lineup for the fuzz grid: the four hostile deciders from
/// [`sched_sim::fuzz`] plus the Theorem 3 adversary and a seeded-uniform
/// control, both reused from [`crate::adversary`].
pub const DECIDERS: [&str; 6] =
    [HOSTILE_NAMES[0], HOSTILE_NAMES[1], HOSTILE_NAMES[2], HOSTILE_NAMES[3], "maxpreempt", "random"];

/// Builds a decider from the [`DECIDERS`] lineup. `n_procs` is the process
/// count of the target scenario (used by the crash adversary to pick its
/// victim).
pub fn build_decider(name: &str, seed: u64, n_procs: u32) -> Box<dyn Decider> {
    match name {
        "maxpreempt" => Box::new(MaxPreempt::new(seed)),
        "random" => Box::new(SeededRandom::new(seed)),
        other => hostile(other, seed, n_procs),
    }
}

/// Outcome of one fuzz run (or replay).
#[derive(Clone, Debug)]
pub struct CaseRun {
    /// The oracle's verdict: `Some(description)` on a safety violation.
    pub violation: Option<String>,
    /// Statements executed.
    pub steps: u64,
    /// Wall-clock time of the run.
    pub wall: Duration,
    /// Whether every process finished within the step budget.
    pub all_finished: bool,
    /// Crashes that fired (zero unless the run had a [`CrashPlan`]).
    pub crashes: u64,
    /// Recoveries that fired.
    pub recoveries: u64,
    /// The effective decision script of the run (every consulted decision,
    /// post-clamp) — replayable with [`Scripted::strict`].
    pub script: Vec<usize>,
}

/// A fuzzable algorithm family instance: runs a fixed scenario under any
/// decider and judges the result with the family's safety oracle.
///
/// The oracle has two parts. The *recovery-safe* part holds across crashes
/// and recoveries: termination where the family requires it, agreement and
/// validity, the universal replica replay, linearizability. The
/// *schedule-model* part holds only when no process re-runs statements:
/// the per-invocation own-step bounds and Fig. 7's Lemma 2/3 and
/// deciding-level checks. A crash-free run is judged by both, in that
/// order; a [`CaseEngine::run_crashed`] run by the recovery-safe part only.
pub trait CaseEngine {
    /// Number of processes in the scenario (for decider construction).
    fn n_procs(&self) -> u32;
    /// Runs the scenario under `d`, recording the decision script.
    fn run_with(&self, d: &mut dyn Decider) -> CaseRun;
    /// Replays a decision script. `strict` selects [`Scripted::strict`]
    /// (artifact verification); otherwise the lenient mode shrink
    /// candidates need. The returned [`CaseRun::script`] is re-recorded, so
    /// a lenient replay yields the *canonical* full-coverage script.
    fn replay(&self, script: &[usize], strict: bool) -> CaseRun;
    /// Strict-replays `script` on the observed twin of the scenario,
    /// returning the run and its captured [`Trace`].
    fn capture(&self, script: &[usize]) -> (CaseRun, Trace);
    /// Runs the scenario under `d` with a streaming profiler attached
    /// ([`Scenario::with_prof`]), returning the run and its derived
    /// schedule metrics. No event log is retained — memory stays
    /// O(processes) even on budget-length runs.
    fn run_profiled(&self, d: &mut dyn Decider) -> (CaseRun, Profile);
    /// Runs the scenario under `d` with `plan`'s crash and recovery
    /// ([`Scenario::crash_at`] / [`Scenario::recover_at`]). The run is
    /// judged by the recovery-safe oracle, then exactly-once (every process
    /// completes [`CrashPlan::ops`] operations), then whether the crash
    /// fired. A victim re-runs its crashed invocation, so the
    /// schedule-model checks do not apply.
    fn run_crashed(&self, plan: &CrashPlan, d: &mut dyn Decider) -> CaseRun;
}

/// Builds the engine for `family` at quantum `q`.
pub fn engine(family: Family, q: u32) -> Box<dyn CaseEngine> {
    match family {
        Family::Fig3 => {
            const INPUTS: [Val; 3] = [10, 20, 30];
            let mut s = Scenario::new(
                UniConsensusMem::default(),
                SystemSpec::hybrid(q).with_adversarial_alignment(),
            )
            .step_budget(200_000);
            for v in INPUTS {
                s.add_process(ProcessorId(0), Priority(1), Box::new(fig3_decide(v)));
            }
            boxed(
                s,
                |r| require_finished(r).or_else(|| agreement_validity(r, &INPUTS)),
                |r| own_steps_bound(r, 8),
            )
        }
        Family::Fig5 => {
            let v = 2u32;
            let prios = [1u32, 2, 1];
            let plans: [Vec<CasOp>; 3] = [
                vec![CasOp::Cas { old: 100, new: 1 }, CasOp::Read],
                vec![CasOp::Cas { old: 100, new: 2 }, CasOp::Cas { old: 1, new: 3 }],
                vec![CasOp::Read, CasOp::Cas { old: 2, new: 4 }],
            ];
            let mut s = Scenario::new(
                CasMem::new(v, &prios, 100),
                SystemSpec::hybrid(q).with_adversarial_alignment(),
            )
            .step_budget(500_000);
            for (pid, plan) in plans.iter().enumerate() {
                s.add_process(
                    ProcessorId(0),
                    Priority(prios[pid]),
                    Box::new(cas_machine(pid as u32, prios[pid], 3, v, plan.clone())),
                );
            }
            let safe = move |r: &RunResult<CasMem>| {
                if let Some(v) = require_finished(r) {
                    return Some(v);
                }
                let ops = timed_ops(r.ops(), |pid, inv| {
                    match plans[pid as usize][inv as usize] {
                        CasOp::Cas { old, new } => CasRegOp::Cas { old, new },
                        CasOp::Read => CasRegOp::Read,
                    }
                });
                let spec = CasRegisterSpec { init: 100 };
                let res = match r.trace() {
                    Some(t) => check_linearizable_traced(&spec, &ops, t, "fuzz_fig5"),
                    None => check_linearizable(&spec, &ops),
                };
                res.err().map(|e| format!("not linearizable: {e}"))
            };
            boxed(s, safe, |r| own_steps_bound(r, 500))
        }
        Family::Fig7 => {
            // P = C = 3: Theorem 3 puts the threshold at 2P − C = 3, and
            // the Table 1 search shows the staggering adversaries bite
            // within a couple of seeds at Q = 1 — unlike P = C = 2, where
            // a violating schedule needs a ~30-seed search.
            let (p, m) = (3u32, 3u32);
            let s = crate::adversary::fig7_scenario(p, 3, m, 1, q, LocalMode::Modeled)
                .step_budget(5_000_000);
            let inputs: Vec<Val> = (0..u64::from(p * m)).map(|pid| 10 + pid).collect();
            let safe = move |r: &RunResult<MultiMem>| {
                require_finished(r).or_else(|| agreement_validity(r, &inputs))
            };
            boxed(s, safe, |r| {
                if !lemma2_holds(r.mem()) {
                    return Some("Lemma 2 violated: a window suffered more than one access failure per object".into());
                }
                // Lemma 3's access-failure bound is exactly what the quantum
                // hypothesis buys: at legal Q a violation is a real bug, and
                // at sub-threshold Q the staggering adversaries are expected
                // to exceed it (agreement itself is much harder to break).
                if !lemma3_bound_holds(r.mem()) {
                    return Some("Lemma 3 access-failure bound exceeded".into());
                }
                if summarize(r.mem()).clean_levels.is_empty() {
                    return Some("no failure-free deciding level".into());
                }
                None
            })
        }
        Family::Fig9 => {
            let prios = [1u32, 1, 1];
            let cpus = [0u32, 0, 0];
            let inputs: [Val; 3] = [10, 11, 12];
            let layout = PortLayout::new(1, 2, 3);
            let mem = FairMem::new(MultiMem::new(layout, 1, &prios, &cpus));
            let mut s = Scenario::new(mem, SystemSpec::hybrid(q).with_adversarial_alignment())
                .step_budget(100_000);
            for (pid, &val) in inputs.iter().enumerate() {
                s.add_process(
                    ProcessorId(0),
                    Priority(1),
                    Box::new(fair_decide(pid as u32, 0, 1, val, LocalMode::Modeled)),
                );
            }
            // Safety-only: hostile deciders are unfair, and Fig. 9's losers
            // spin on Output — livelock is lawful, disagreement is not.
            let safe = move |r: &RunResult<FairMem>| {
                if !r.all_finished {
                    return None;
                }
                agreement_validity(r, &inputs)
            };
            boxed(s, safe, no_model)
        }
        Family::Universal => {
            let n = 3u32;
            let per = 2u32;
            let plans: Vec<Vec<Val>> =
                (0..n).map(|pid| (1..=per).map(|i| Val::from(pid * per + i)).collect()).collect();
            let total: Val = plans.iter().flatten().sum();
            let mut s = Scenario::new(
                UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
                SystemSpec::hybrid(q).with_adversarial_alignment(),
            )
            .step_budget(1_000_000);
            for pid in 0..n {
                s.add_process(
                    ProcessorId(0),
                    Priority(1 + pid % 2),
                    Box::new(universal_machine(CounterSpec, pid, n, plans[pid as usize].clone())),
                );
            }
            // The replica replay is also the exactly-once check at the
            // replica: an operation applied twice inflates the replayed
            // final state.
            let safe = move |r: &RunResult<UniversalMem<CounterSpec>>| {
                if let Some(v) = require_finished(r) {
                    return Some(v);
                }
                let replayed = replay_final_state(&CounterSpec, r.mem());
                if replayed != total {
                    return Some(format!("replayed counter {replayed} != expected {total}"));
                }
                let ops = timed_ops(r.ops(), |pid, inv| plans[pid as usize][inv as usize]);
                check_linearizable(&CounterSpec, &ops)
                    .err()
                    .map(|e| format!("counter not linearizable: {e}"))
            };
            boxed(s, safe, |r| own_steps_bound(r, 1_000))
        }
        Family::Locks => {
            let spec = SystemSpec::hybrid(q).with_adversarial_alignment();
            let mut s = Scenario::new(LockMem::default(), spec).step_budget(100_000);
            for (pid, prio) in [1u32, 1, 2].into_iter().enumerate() {
                let m = inc_machine(pid as u32, 3, 2);
                s.add_process(ProcessorId(0), Priority(prio), Box::new(m));
            }
            // Safety-only: priority inversion lawfully livelocks a TAS
            // lock (that is the baseline's point), but the single-statement
            // test-and-set keeps mutual exclusion — a finished run with a
            // wrong counter is a real bug.
            let safe = |r: &RunResult<LockMem>| {
                let c = r.mem().counter;
                (r.all_finished && c != 9)
                    .then(|| format!("lock-protected counter {c} != 9 after 3x3 increments"))
            };
            boxed(s, safe, no_model)
        }
        Family::Exponential => {
            let n = 3u32;
            let inputs: Vec<Val> = (0..n).map(|pid| Val::from(pid) + 1).collect();
            let mut s =
                Scenario::new(ExpMem::new(n), SystemSpec::hybrid(q).with_adversarial_alignment())
                    .step_budget(1_000_000);
            for pid in 0..n {
                s.add_process(
                    ProcessorId(0),
                    Priority(pid + 1),
                    Box::new(exp_decide(pid, Val::from(pid) + 1)),
                );
            }
            let safe = move |r: &RunResult<ExpMem>| {
                require_finished(r).or_else(|| agreement_validity(r, &inputs))
            };
            boxed(s, safe, no_model)
        }
    }
}

/// A family's oracle part: `Some(description)` on a violation.
type Oracle<M> = Box<dyn Fn(&RunResult<M>) -> Option<String>>;

/// Internal: a family engine over a concrete memory type, bridging to the
/// object-safe [`CaseEngine`].
struct TypedEngine<M: Clone> {
    plain: Scenario<M>,
    /// The recovery-safe oracle part (see [`CaseEngine`]).
    safe: Oracle<M>,
    /// The schedule-model oracle part, for crash-free runs only.
    model: Oracle<M>,
}

fn boxed<M: Clone + 'static>(
    plain: Scenario<M>,
    safe: impl Fn(&RunResult<M>) -> Option<String> + 'static,
    model: impl Fn(&RunResult<M>) -> Option<String> + 'static,
) -> Box<dyn CaseEngine> {
    Box::new(TypedEngine { plain, safe: Box::new(safe), model: Box::new(model) })
}

/// The schedule-model part of a family without one.
fn no_model<M: Clone>(_: &RunResult<M>) -> Option<String> {
    None
}

impl<M: Clone> TypedEngine<M> {
    fn case_run(&self, r: &RunResult<M>, script: Vec<usize>) -> CaseRun {
        let violation = (self.safe)(r).or_else(|| (self.model)(r));
        report(r, violation, script)
    }
}

fn report<M: Clone>(r: &RunResult<M>, violation: Option<String>, script: Vec<usize>) -> CaseRun {
    CaseRun {
        violation,
        steps: r.steps,
        wall: r.wall,
        all_finished: r.all_finished,
        crashes: r.counters.crashes,
        recoveries: r.counters.recoveries,
        script,
    }
}

impl<M: Clone> CaseEngine for TypedEngine<M> {
    fn n_procs(&self) -> u32 {
        self.plain.n_processes() as u32
    }

    fn run_with(&self, d: &mut dyn Decider) -> CaseRun {
        let mut rec = Recording::new(d);
        let r = self.plain.run(&mut rec);
        let script = rec.into_script();
        self.case_run(&r, script)
    }

    fn replay(&self, script: &[usize], strict: bool) -> CaseRun {
        let mut scripted = if strict {
            Scripted::strict(script.to_vec())
        } else {
            Scripted::new(script.to_vec())
        };
        let mut rec = Recording::new(&mut scripted);
        let r = self.plain.run(&mut rec);
        let script = rec.into_script();
        self.case_run(&r, script)
    }

    fn capture(&self, script: &[usize]) -> (CaseRun, Trace) {
        let mut scripted = Scripted::strict(script.to_vec());
        let mut r = self.plain.clone().with_obs().run(&mut scripted);
        let run = self.case_run(&r, script.to_vec());
        let trace = r.take_trace().expect("obs scenario records a trace");
        (run, trace)
    }

    fn run_profiled(&self, d: &mut dyn Decider) -> (CaseRun, Profile) {
        let mut rec = Recording::new(d);
        let mut r = self.plain.clone().with_prof().run(&mut rec);
        let script = rec.into_script();
        let profile = r.take_profile().expect("prof scenario streams a profile");
        (self.case_run(&r, script), profile)
    }

    fn run_crashed(&self, plan: &CrashPlan, d: &mut dyn Decider) -> CaseRun {
        let s = self
            .plain
            .clone()
            .crash_at(plan.crash_t, plan.victim)
            .recover_at(plan.recover_t, plan.victim);
        let mut rec = Recording::new(d);
        let r = s.run(&mut rec);
        let violation = (self.safe)(&r)
            .or_else(|| exactly_once(&r, plan.ops))
            .or_else(|| crash_fired(&r));
        report(&r, violation, rec.into_script())
    }
}

fn require_finished<M: Clone>(r: &RunResult<M>) -> Option<String> {
    (!r.all_finished)
        .then(|| format!("not all processes finished within the {}-step budget", r.steps))
}

fn agreement_validity<M: Clone>(r: &RunResult<M>, inputs: &[Val]) -> Option<String> {
    match r.agreed_output() {
        None => Some(format!("disagreement: outputs {:?}", r.outputs)),
        Some(v) if !inputs.contains(&v) => {
            Some(format!("invalid decision {v}: not among proposals {inputs:?}"))
        }
        Some(_) => None,
    }
}

fn own_steps_bound<M: Clone>(r: &RunResult<M>, bound: u64) -> Option<String> {
    let worst = r.max_own_steps();
    (worst > bound)
        .then(|| format!("wait-freedom bound exceeded: {worst} own-steps per invocation > {bound}"))
}

/// The exactly-once oracle: every process must complete exactly `ops`
/// operations. An invocation that crashed mid-run either re-runs to a
/// single completion (count unchanged) or — if it never recovers — holds
/// the run unfinished; a double execution would overshoot its count.
fn exactly_once<M: Clone>(r: &RunResult<M>, ops: u64) -> Option<String> {
    let mut counts = vec![0u64; r.outputs.len()];
    for op in r.ops() {
        counts[op.pid.index()] += 1;
    }
    counts.iter().any(|&c| c != ops).then(|| {
        format!("exactly-once violated: completed ops per process {counts:?}, planned {ops} each")
    })
}

fn crash_fired<M: Clone>(r: &RunResult<M>) -> Option<String> {
    (r.counters.crashes == 0).then(|| "crash plan never fired".to_string())
}

/// First violating run found while fuzzing a cell.
#[derive(Clone, Debug)]
pub struct FirstViolation {
    /// The seed that produced it.
    pub seed: u64,
    /// The oracle's description.
    pub verdict: String,
    /// The recorded decision script.
    pub script: Vec<usize>,
}

/// Aggregate result of fuzzing one (spec, decider) cell over many seeds.
#[derive(Clone, Debug)]
pub struct CellReport {
    /// Seeds run.
    pub runs: u64,
    /// Total statements executed.
    pub steps: u64,
    /// Total wall time.
    pub wall: Duration,
    /// Runs whose oracle reported a violation.
    pub violations: u64,
    /// The first violating run, if any.
    pub first: Option<FirstViolation>,
}

/// Fuzzes one (spec, decider) cell: `seeds` runs with seeds `0..seeds`.
pub fn fuzz_cell(spec: &CaseSpec, decider: &str, seeds: u64) -> CellReport {
    let eng = engine(spec.family, spec.q);
    let mut report = CellReport {
        runs: 0,
        steps: 0,
        wall: Duration::ZERO,
        violations: 0,
        first: None,
    };
    for seed in 0..seeds {
        let mut d = build_decider(decider, seed, eng.n_procs());
        let run = eng.run_with(&mut *d);
        report.runs += 1;
        report.steps += run.steps;
        report.wall += run.wall;
        if let Some(verdict) = run.violation {
            report.violations += 1;
            if report.first.is_none() {
                report.first = Some(FirstViolation { seed, verdict, script: run.script });
            }
        }
    }
    report
}

/// Seeds per (spec, decider) cell of the grid: three times what every
/// [`Expect::Violation`] spec needs to fire (the deepest known witness
/// sits at seed 5).
pub const SEEDS: u64 = 24;

/// The keys every `BENCH_fuzz.json` row carries beyond
/// `report::CELL_SCHEMA`.
pub const KEYS: &[(&str, Kind)] =
    &[("violations", Kind::Num), ("expect", Kind::Str), ("verdict", Kind::Str)];

/// Runs the fuzz grid: every [`case_specs`] spec under every decider in
/// [`DECIDERS`] for [`SEEDS`] seeds each, over `jobs` sweep workers. Each
/// spec's verdict compares its total violation count with the paper's
/// prediction ([`Expect::verdict`]). The first violation of each violating
/// spec is delta-debugged ([`shrink_and_capture`]) and written as a
/// replayable trace under `trace_dir`. Returns the `BENCH_fuzz.json` rows
/// (one per spec and decider) and the paths of the traces written.
pub fn run_grid(jobs: usize, trace_dir: &Path) -> (Vec<Json>, Vec<PathBuf>) {
    let specs = case_specs();
    let cells: Vec<(CaseSpec, &'static str)> =
        specs.iter().flat_map(|s| DECIDERS.iter().map(|d| (*s, *d))).collect();
    let reports = run_cells(&cells, jobs, |_, (spec, d)| fuzz_cell(spec, d, SEEDS));
    let mut rows = Vec::new();
    let mut traces = Vec::new();
    for (spec, group) in specs.iter().zip(reports.chunks(DECIDERS.len())) {
        let viol: u64 = group.iter().map(|r| r.violations).sum();
        let verdict = spec.expect.verdict(viol > 0);
        for (decider, rep) in DECIDERS.iter().zip(group) {
            rows.push(Json::obj([
                ("kind", Json::from("fuzz")),
                (
                    "cell",
                    Json::obj([
                        ("family", Json::from(spec.family.name())),
                        ("q", Json::from(spec.q)),
                        ("regime", Json::from(spec.regime)),
                        ("decider", Json::from(*decider)),
                        ("seeds", Json::from(SEEDS)),
                    ]),
                ),
                ("steps", Json::from(rep.steps)),
                ("wall_ms", Json::from(wall_ms(rep.wall))),
                ("violations", Json::from(rep.violations)),
                ("expect", Json::from(spec.expect.name())),
                ("verdict", Json::from(verdict)),
            ]));
        }
        let first = DECIDERS.iter().zip(group).find_map(|(d, r)| Some((d, r.first.as_ref()?)));
        if let Some((decider, first)) = first {
            let ce = shrink_and_capture(spec, decider, first.seed, &first.script);
            std::fs::create_dir_all(trace_dir).expect("create fuzz trace dir");
            let path = trace_dir.join(ce.file_name());
            std::fs::write(&path, ce.to_text()).expect("write fuzz trace");
            traces.push(path);
        }
    }
    (rows, traces)
}

/// The gate of the fuzz grid (and of the native grid, which shares its
/// verdicts): no row is a `BUG` (a violation at legal `Q`) or `MISSING`
/// (no violation where Theorem 3 predicts impossibility).
pub fn grid_ok(rows: &[Json]) -> bool {
    rows.iter().all(|r| !matches!(r.get("verdict").and_then(Json::as_str), Some("BUG" | "MISSING")))
}

/// A shrunk, replayable counterexample — the fuzz artifact payload.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// The algorithm family.
    pub family: Family,
    /// The quantum of the violating configuration.
    pub q: u32,
    /// `"legal"` (a bug) or `"sub"` (predicted impossibility).
    pub regime: String,
    /// The decider that found the violation.
    pub decider: String,
    /// Its seed.
    pub seed: u64,
    /// First line of the oracle's violation description.
    pub verdict: String,
    /// Length of the ddmin-reduced script (before canonicalization).
    pub forced: usize,
    /// The captured trace of the canonical minimal run.
    pub trace: Trace,
}

/// Reduces a violation description to its stable first line (traced oracle
/// failures append environment-dependent artifact paths on later lines).
pub fn verdict_line(v: &str) -> String {
    v.lines().next().unwrap_or("").to_string()
}

/// Delta-debugs the failing `script` for `(family, q)` down to a minimal
/// schedule, canonicalizes it so it replays under strict mode, and captures
/// the replayable trace.
///
/// Shrink candidates replay leniently (any candidate denotes *some* run);
/// the predicate is "any oracle violation", the standard shrinking
/// invariant. After ddmin the survivor is replayed once more leniently to
/// re-record its effective full-coverage script, which then strict-replays
/// bit-identically on the observed twin scenario.
pub fn shrink_and_capture(
    spec: &CaseSpec,
    decider: &str,
    seed: u64,
    script: &[usize],
) -> CounterExample {
    let eng = engine(spec.family, spec.q);
    let out = shrink_script(script, |cand| eng.replay(cand, false).violation.is_some());
    let canonical = eng.replay(&out.script, false);
    let (run, trace) = eng.capture(&canonical.script);
    let verdict = verdict_line(
        &run.violation.expect("canonical strict replay reproduces the shrunk violation"),
    );
    CounterExample {
        family: spec.family,
        q: spec.q,
        regime: spec.regime.to_string(),
        decider: decider.to_string(),
        seed,
        verdict,
        forced: out.script.len(),
        trace,
    }
}

impl CounterExample {
    /// Canonical artifact file name.
    pub fn file_name(&self) -> String {
        format!("fuzz_{}_q{}_{}_s{}.trace", self.family.name(), self.q, self.decider, self.seed)
    }

    /// Serializes the artifact: `# fuzz` metadata lines followed by the
    /// trace text. [`Trace::from_text`] ignores `#` lines, so the whole
    /// artifact also parses as a plain trace.
    pub fn to_text(&self) -> String {
        format!(
            "# sched-sim fuzz counterexample v1\n\
             # fuzz family {}\n\
             # fuzz q {}\n\
             # fuzz regime {}\n\
             # fuzz decider {}\n\
             # fuzz seed {}\n\
             # fuzz forced {}\n\
             # fuzz verdict {}\n\
             {}",
            self.family.name(),
            self.q,
            self.regime,
            self.decider,
            self.seed,
            self.forced,
            self.verdict,
            self.trace.to_text(),
        )
    }

    /// Parses an artifact produced by [`CounterExample::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description when a metadata line is missing or malformed,
    /// or the embedded trace does not parse.
    pub fn from_text(text: &str) -> Result<CounterExample, String> {
        let meta = |key: &str| -> Result<String, String> {
            let prefix = format!("# fuzz {key} ");
            text.lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .map(|v| v.to_string())
                .ok_or_else(|| format!("artifact missing `# fuzz {key}` line"))
        };
        let family_name = meta("family")?;
        let family = Family::from_name(&family_name)
            .ok_or_else(|| format!("unknown fuzz family {family_name:?}"))?;
        Ok(CounterExample {
            family,
            q: meta("q")?.parse().map_err(|e| format!("bad q: {e}"))?,
            regime: meta("regime")?,
            decider: meta("decider")?,
            seed: meta("seed")?.parse().map_err(|e| format!("bad seed: {e}"))?,
            forced: meta("forced")?.parse().map_err(|e| format!("bad forced: {e}"))?,
            verdict: meta("verdict")?,
            trace: Trace::from_text(text)?,
        })
    }
}

/// Replays a serialized counterexample artifact and verifies it end to end:
/// the strict replay must reproduce the recorded verdict, and a fresh
/// capture of the same script must serialize to the same trace text
/// (byte-for-byte determinism).
///
/// Returns a one-line human-readable confirmation.
///
/// # Errors
///
/// Returns a description when the artifact does not parse, the violation
/// does not reproduce, the verdict differs, or the recapture diverges.
pub fn replay_artifact(text: &str) -> Result<String, String> {
    let ce = CounterExample::from_text(text)?;
    let eng = engine(ce.family, ce.q);
    let script = ce.trace.decisions();
    let run = eng.replay(&script, true);
    let got = match &run.violation {
        Some(v) => verdict_line(v),
        None => {
            return Err(format!(
                "replay of {} q={} reproduced NO violation (expected {:?})",
                ce.family.name(),
                ce.q,
                ce.verdict
            ))
        }
    };
    if got != ce.verdict {
        return Err(format!(
            "replayed verdict {:?} != recorded verdict {:?}",
            got, ce.verdict
        ));
    }
    let (_, trace) = eng.capture(&script);
    if trace.to_text() != ce.trace.to_text() {
        return Err("recaptured trace text differs from the artifact's trace".into());
    }
    Ok(format!(
        "{} q={} {} s{}: violation reproduced ({}, {} decisions)",
        ce.family.name(),
        ce.q,
        ce.decider,
        ce.seed,
        ce.verdict,
        script.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_engine_runs_under_every_decider() {
        for family in Family::ALL {
            let eng = engine(family, family.legal_q());
            for name in DECIDERS {
                let mut d = build_decider(name, 1, eng.n_procs());
                let run = eng.run_with(&mut *d);
                assert!(run.steps > 0, "{} under {name} executed nothing", family.name());
            }
        }
    }

    #[test]
    fn fig3_sub_q_violation_is_found_shrunk_and_replayable() {
        let spec = CaseSpec { family: Family::Fig3, q: 1, regime: "sub", expect: Expect::Violation };
        let mut found = None;
        'outer: for decider in DECIDERS {
            for seed in 0..8 {
                let eng = engine(spec.family, spec.q);
                let mut d = build_decider(decider, seed, eng.n_procs());
                let run = eng.run_with(&mut *d);
                if run.violation.is_some() {
                    found = Some((decider, seed, run.script));
                    break 'outer;
                }
            }
        }
        let (decider, seed, script) = found.expect("fig3 at Q=1 must disagree within 8 seeds");
        let ce = shrink_and_capture(&spec, decider, seed, &script);
        assert!(ce.forced <= script.len(), "shrinking must not grow the script");
        assert!(ce.verdict.contains("disagreement") || ce.verdict.contains("invalid"));
        // The serialized artifact round-trips and replays deterministically.
        let text = ce.to_text();
        let msg = replay_artifact(&text).expect("artifact must replay");
        assert!(msg.contains("violation reproduced"), "{msg}");
    }

    #[test]
    fn counterexample_text_roundtrip_preserves_metadata() {
        let spec = CaseSpec { family: Family::Fig3, q: 1, regime: "sub", expect: Expect::Violation };
        let rep = fuzz_cell(&spec, "storm", 8);
        let first = rep.first.expect("storm finds a fig3 Q=1 violation within 8 seeds");
        let ce = shrink_and_capture(&spec, "storm", first.seed, &first.script);
        let parsed = CounterExample::from_text(&ce.to_text()).unwrap();
        assert_eq!(parsed.family, ce.family);
        assert_eq!(parsed.q, ce.q);
        assert_eq!(parsed.regime, ce.regime);
        assert_eq!(parsed.decider, ce.decider);
        assert_eq!(parsed.seed, ce.seed);
        assert_eq!(parsed.forced, ce.forced);
        assert_eq!(parsed.verdict, ce.verdict);
        assert_eq!(parsed.trace.to_text(), ce.trace.to_text());
    }
}
