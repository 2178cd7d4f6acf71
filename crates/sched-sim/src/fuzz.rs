//! Adversarial schedule fuzzing: hostile [`Decider`]s and a recording
//! wrapper that turns any run into a replayable decision script.
//!
//! The paper's guarantees are *conditional on the scheduler* — Fig. 3 needs
//! `Q ≥ 8`, Fig. 7 needs `Q ≥ max(2c, c(2P+1−C))` — and the tame deciders
//! used elsewhere in this crate (round-robin, seeded-uniform) exercise only
//! a benign corner of the schedule space. This module supplies the hostile
//! corner: deciders engineered around the known failure mechanisms of
//! quantum-based scheduling.
//!
//! * [`PreemptionStorm`] — maximizes same-priority preemptions: every
//!   window boundary rotates the holder away from the incumbent, every
//!   first window is as short as possible, processors interleave randomly.
//! * [`PriorityFlipper`] — whipsaws every decision between its extreme
//!   options, flipping which process (and processor) makes progress at
//!   each decision point.
//! * [`QuantumStalker`] — the Appendix A staggering adversary: first
//!   windows are staggered one statement apart so that quantum expiries
//!   land mid-invocation at maximally uneven points, while holders rotate.
//! * [`CrashAfterK`] — fail-stop injection: after `k` decisions, one
//!   victim process is never granted another quantum window while an
//!   alternative exists (the lawful starvation the [`crate::decision`]
//!   module docs permit). Wait-free algorithms must still complete every
//!   *other* process's operations.
//!
//! [`hostile`] builds any of them by name from [`HOSTILE_NAMES`], which
//! also lists a seeded-uniform control (`"random"`); the fuzz and profile
//! grids take their deciders from that one registry.
//!
//! Because all scheduling nondeterminism flows through
//! [`Decider::choose`], wrapping any of these in a [`Recording`] yields
//! the complete schedule as a `Vec<usize>` — replayable with
//! [`crate::decision::Scripted`] and shrinkable with [`crate::shrink`].

use crate::decision::{Choice, Decider, SeededRandom};
use crate::ids::ProcessId;
use crate::rng::SplitMix64;

/// Records every index an inner decider returns, yielding the run's
/// complete decision script (the same sequence
/// [`crate::obs::Trace::decisions`] extracts from a capture, without the
/// cost of full event capture).
pub struct Recording<'a> {
    inner: &'a mut dyn Decider,
    script: Vec<usize>,
}

impl<'a> Recording<'a> {
    /// Wraps `inner`, recording each chosen index.
    pub fn new(inner: &'a mut dyn Decider) -> Self {
        Recording { inner, script: Vec::new() }
    }

    /// The decisions recorded so far.
    pub fn script(&self) -> &[usize] {
        &self.script
    }

    /// Consumes the recorder, returning the recorded script.
    pub fn into_script(self) -> Vec<usize> {
        self.script
    }
}

impl Decider for Recording<'_> {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        let c = self.inner.choose(choice, n);
        self.script.push(c);
        c
    }
}

/// Preemption-storm adversary: every quantum-window boundary displaces the
/// incumbent holder (guaranteeing a same-priority preemption whenever an
/// alternative is ready), every first window is a single statement, and
/// processor interleaving is seeded-random.
///
/// This is also the Theorem 3 / Table 1 adversary (the lower-bound crate
/// pairs it with [`SeededRandom`] across seeds). Its
/// holder decision runs in place and allocates nothing once every
/// (processor, priority) pair has been seen.
#[derive(Clone, Debug)]
pub struct PreemptionStorm {
    rng: SplitMix64,
    last_holder: Vec<(u32, u32, ProcessId)>,
}

impl PreemptionStorm {
    /// Creates the adversary from `seed`.
    pub fn new(seed: u64) -> Self {
        PreemptionStorm { rng: SplitMix64::new(seed), last_holder: Vec::new() }
    }
}

impl Decider for PreemptionStorm {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        match choice {
            Choice::Cpu { .. } => self.rng.index(n),
            Choice::Holder { cpu, prio, options } => {
                let key = (cpu.0, prio.0);
                let last = self
                    .last_holder
                    .iter()
                    .find(|(c, p, _)| (*c, *p) == key)
                    .map(|(_, _, h)| *h);
                // Displace the incumbent whenever possible; among the
                // alternatives, draw the k-th uniformly, in place, so
                // repeated seeds explore different rotation orders.
                let alternatives = || (0..n).filter(|&i| Some(options[i]) != last);
                let idx = match alternatives().count() {
                    0 => 0,
                    count => alternatives().nth(self.rng.index(count)).expect("k < count"),
                };
                match self.last_holder.iter_mut().find(|(c, p, _)| (*c, *p) == key) {
                    Some(entry) => entry.2 = options[idx],
                    None => self.last_holder.push((key.0, key.1, options[idx])),
                }
                idx
            }
            // Shortest possible first window: the first quantum boundary
            // arrives after one statement.
            Choice::FirstCredit { .. } => 0,
        }
    }
}

/// Flip-flop adversary: alternates every decision between its extreme
/// options — lowest-indexed, then highest-indexed — independently per
/// decision kind. On `Holder` choices (ascending pid order) this whipsaws
/// the window between the lowest and highest ready pid; on `FirstCredit`
/// it alternates the shortest and the full first window.
#[derive(Clone, Debug, Default)]
pub struct PriorityFlipper {
    cpu_flip: bool,
    holder_flip: bool,
    credit_flip: bool,
}

impl PriorityFlipper {
    /// Creates the flip-flop adversary (first pick of each kind is the
    /// lowest option).
    pub fn new() -> Self {
        PriorityFlipper::default()
    }
}

impl Decider for PriorityFlipper {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        let flip = match choice {
            Choice::Cpu { .. } => &mut self.cpu_flip,
            Choice::Holder { .. } => &mut self.holder_flip,
            Choice::FirstCredit { .. } => &mut self.credit_flip,
        };
        let high = *flip;
        *flip = !*flip;
        if high {
            n - 1
        } else {
            0
        }
    }
}

/// The Appendix A staggering adversary: first quantum windows are
/// staggered one statement apart (the `i`-th first dispatch gets a first
/// window of `i + 1` statements, wrapping at `Q`), so quantum boundaries
/// fall at maximally uneven points across processes; window holders
/// rotate round-robin and processors rotate round-robin.
#[derive(Clone, Debug, Default)]
pub struct QuantumStalker {
    stagger: usize,
    cpu_next: usize,
    holder_next: usize,
}

impl QuantumStalker {
    /// Creates the staggering adversary.
    pub fn new() -> Self {
        QuantumStalker::default()
    }
}

impl Decider for QuantumStalker {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        match choice {
            Choice::Cpu { .. } => {
                self.cpu_next = self.cpu_next.wrapping_add(1);
                self.cpu_next % n
            }
            Choice::Holder { .. } => {
                self.holder_next = self.holder_next.wrapping_add(1);
                self.holder_next % n
            }
            Choice::FirstCredit { .. } => {
                let k = self.stagger % n;
                self.stagger += 1;
                k
            }
        }
    }
}

/// Fail-stop injection: behaves as `inner` until `k` decisions have been
/// consulted, then never grants a quantum window to `victim` while any
/// other process is ready at that level — the lawful starvation of the
/// scheduling model, standing in for a crash.
///
/// The kernel takes single-option decisions silently, so once every other
/// process finishes, the victim runs after all; a *wait-free* algorithm
/// therefore still completes every operation, just with the victim's
/// operations delayed to the end. Spin-based algorithms (locks, Fig. 9's
/// losers) instead livelock, which is exactly the paper's point.
pub struct CrashAfterK {
    inner: Box<dyn Decider>,
    after: u64,
    seen: u64,
    victim: ProcessId,
    fired: bool,
}

impl CrashAfterK {
    /// Wraps `inner`; after `k` consulted decisions, `victim` stops
    /// receiving quantum windows (while alternatives exist).
    pub fn new(inner: Box<dyn Decider>, k: u64, victim: ProcessId) -> Self {
        CrashAfterK { inner, after: k, seen: 0, victim, fired: false }
    }

    /// Whether the fail-stop transition has happened.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl Decider for CrashAfterK {
    fn choose(&mut self, choice: Choice<'_>, n: usize) -> usize {
        if !self.fired {
            if self.seen < self.after {
                // Still alive: count this decision toward the crash point.
                // The counter latches once the crash fires, so the
                // fail-stop transition happens exactly once per run.
                self.seen += 1;
            } else if let Choice::Holder { options, .. } = &choice {
                // Fire at the first window grant where the victim is
                // actually ready (`Holder` options *are* the ready set):
                // "crashing" a held or finished process would be
                // unobservable and would pad shrunk counterexample
                // scripts with dead decisions.
                if options.contains(&self.victim) {
                    debug_assert!(
                        n >= 2,
                        "crash adversary fired with victim {:?} as the only \
                         ready process; starvation cannot model this crash",
                        self.victim,
                    );
                    self.fired = true;
                }
            }
        }
        let pick = self.inner.choose(choice.clone(), n);
        if self.fired {
            if let Choice::Holder { options, .. } = choice {
                if options[pick] == self.victim {
                    // Skip the crashed process: the next ready alternative
                    // (consulted choices have n ≥ 2 distinct pids, so one
                    // always exists).
                    return (0..n)
                        .map(|i| (pick + i) % n)
                        .find(|&i| options[i] != self.victim)
                        .unwrap_or(pick);
                }
            }
        }
        pick
    }
}

/// The fuzz deciders by name, for fuzz grids and reports: the four hostile
/// deciders, then `"random"`, a seeded-uniform [`SeededRandom`] control.
/// The names index [`hostile`].
pub const HOSTILE_NAMES: [&str; 5] = ["storm", "flip", "stalker", "crash", "random"];

/// Builds a decider from [`HOSTILE_NAMES`] by name. `seed` parameterizes
/// the stochastic deciders and, for `"crash"`, selects the victim
/// (`seed % n_procs`) and the crash point; `n_procs` is the process count
/// of the scenario the decider will drive.
///
/// # Panics
///
/// Panics on a name outside [`HOSTILE_NAMES`].
pub fn hostile(name: &str, seed: u64, n_procs: u32) -> Box<dyn Decider> {
    match name {
        "storm" => Box::new(PreemptionStorm::new(seed)),
        "flip" => Box::new(PriorityFlipper::new()),
        "stalker" => Box::new(QuantumStalker::new()),
        "crash" => Box::new(CrashAfterK::new(
            Box::new(PreemptionStorm::new(seed)),
            4 + seed % 16,
            ProcessId((seed % u64::from(n_procs.max(1))) as u32),
        )),
        "random" => Box::new(SeededRandom::new(seed)),
        other => panic!("unknown hostile decider {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Scripted;
    use crate::ids::{Priority, ProcessorId};

    fn holder(options: &[ProcessId]) -> Choice<'_> {
        Choice::Holder { cpu: ProcessorId(0), prio: Priority(1), options }
    }

    #[test]
    fn recording_captures_inner_choices() {
        let mut inner = Scripted::new(vec![2, 0, 1]);
        let mut rec = Recording::new(&mut inner);
        let opts = [ProcessId(0), ProcessId(1), ProcessId(2)];
        for _ in 0..3 {
            rec.choose(holder(&opts), 3);
        }
        assert_eq!(rec.into_script(), vec![2, 0, 1]);
    }

    #[test]
    fn storm_always_displaces_incumbent() {
        let mut d = PreemptionStorm::new(9);
        let opts = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let mut last = None;
        for _ in 0..50 {
            let i = d.choose(holder(&opts), 3);
            assert_ne!(Some(opts[i]), last, "re-picked the incumbent holder");
            last = Some(opts[i]);
        }
        // And the shortest possible first window.
        assert_eq!(d.choose(Choice::FirstCredit { pid: ProcessId(0), quantum: 8 }, 8), 0);
    }

    #[test]
    fn flipper_alternates_extremes_per_kind() {
        let mut d = PriorityFlipper::new();
        let opts = [ProcessId(0), ProcessId(1), ProcessId(2)];
        assert_eq!(d.choose(holder(&opts), 3), 0);
        assert_eq!(d.choose(holder(&opts), 3), 2);
        assert_eq!(d.choose(holder(&opts), 3), 0);
        // Independent toggle per decision kind.
        assert_eq!(d.choose(Choice::FirstCredit { pid: ProcessId(0), quantum: 4 }, 4), 0);
        assert_eq!(d.choose(Choice::FirstCredit { pid: ProcessId(1), quantum: 4 }, 4), 3);
    }

    #[test]
    fn stalker_staggers_first_credits() {
        let mut d = QuantumStalker::new();
        let picks: Vec<usize> = (0..4)
            .map(|p| d.choose(Choice::FirstCredit { pid: ProcessId(p), quantum: 4 }, 4))
            .collect();
        // Credits 1, 2, 3, 4: boundaries staggered one statement apart.
        assert_eq!(picks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn crash_starves_victim_after_k() {
        let inner = Box::new(QuantumStalker::new());
        let mut d = CrashAfterK::new(inner, 2, ProcessId(1));
        let opts = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let mut victim_granted_after_crash = false;
        for i in 0..20 {
            let pick = d.choose(holder(&opts), 3);
            if i >= 2 && opts[pick] == ProcessId(1) {
                victim_granted_after_crash = true;
            }
        }
        assert!(!victim_granted_after_crash, "victim granted a window after the crash point");
    }

    /// Regression: the fail-stop transition latches exactly once, at the
    /// first window grant where the victim is ready — non-`Holder`
    /// decisions and grants not involving the victim cannot fire it, and
    /// the pre-crash counter stops ticking after the fire.
    #[test]
    fn crash_fires_exactly_once_when_victim_is_ready() {
        let inner = Box::new(QuantumStalker::new());
        let mut d = CrashAfterK::new(inner, 2, ProcessId(1));
        let with_victim = [ProcessId(0), ProcessId(1), ProcessId(2)];
        let without_victim = [ProcessId(0), ProcessId(2)];

        // Two pre-crash decisions: still alive.
        let _ = d.choose(holder(&with_victim), 3);
        let _ = d.choose(holder(&with_victim), 3);
        assert!(!d.fired(), "crash fired before the crash point");

        // Armed, but the victim is not ready: must not fire.
        let _ = d.choose(Choice::FirstCredit { pid: ProcessId(0), quantum: 4 }, 4);
        let _ = d.choose(holder(&without_victim), 2);
        assert!(!d.fired(), "crash fired while the victim was not ready");

        // First grant with the victim ready: fires, and stays fired.
        let i = d.choose(holder(&with_victim), 3);
        assert!(d.fired(), "crash did not fire at a grant with the victim ready");
        assert_ne!(with_victim[i], ProcessId(1), "victim granted at the crash instant");
        for _ in 0..10 {
            let i = d.choose(holder(&with_victim), 3);
            assert_ne!(with_victim[i], ProcessId(1), "victim granted after the crash");
            assert!(d.fired());
        }
    }

    #[test]
    fn hostile_registry_builds_every_name() {
        let opts = [ProcessId(0), ProcessId(1)];
        for name in HOSTILE_NAMES {
            let mut d = hostile(name, 3, 2);
            let i = d.choose(holder(&opts), 2);
            assert!(i < 2, "{name} returned out-of-range index");
        }
    }

    #[test]
    #[should_panic(expected = "unknown hostile decider")]
    fn hostile_rejects_unknown_names() {
        let _ = hostile("gentle", 0, 2);
    }
}
