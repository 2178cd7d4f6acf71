//! The process abstraction: a step machine executing one atomic statement
//! per [`StepMachine::step`] call.

use core::hash::Hasher;
use std::sync::Arc;

use crate::ids::ProcessId;
use crate::sym::{Interner, Sym};

/// The shared-memory footprint of a statement, over up to 64 abstract
/// *cells* chosen by the algorithm (bit `i` of a mask = cell `i`).
///
/// Footprints feed the explorer's partial-order reduction: two statements
/// on different processors commute when neither writes a cell the other
/// touches, so only one interleaving of them needs exploring. The default
/// is [`Footprint::Unknown`] — "may touch anything" — which conflicts with
/// everything and therefore never enables a prune; declaring footprints is
/// purely an opt-in refinement, and an over-approximation (extra bits) is
/// always safe while an under-approximation is a soundness bug.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Footprint {
    /// May read or write any shared cell; conflicts with every non-local
    /// statement (the conservative default).
    Unknown,
    /// Touches exactly the cells in the masks. `reads`/`writes` of 0/0 is
    /// a purely local statement, independent of everything.
    Access {
        /// Cells the statement may read.
        reads: u64,
        /// Cells the statement may write.
        writes: u64,
    },
}

impl Footprint {
    /// A purely local statement: touches no shared cell.
    pub const LOCAL: Footprint = Footprint::Access { reads: 0, writes: 0 };

    /// Reads (only) the cells in `mask`.
    pub fn reads(mask: u64) -> Footprint {
        Footprint::Access { reads: mask, writes: 0 }
    }

    /// May read and write the cells in `mask`.
    pub fn rw(mask: u64) -> Footprint {
        Footprint::Access { reads: mask, writes: mask }
    }

    /// The union of two footprints ([`Footprint::Unknown`] absorbs).
    #[must_use]
    pub fn union(self, other: Footprint) -> Footprint {
        match (self, other) {
            (
                Footprint::Access { reads: r1, writes: w1 },
                Footprint::Access { reads: r2, writes: w2 },
            ) => Footprint::Access { reads: r1 | r2, writes: w1 | w2 },
            _ => Footprint::Unknown,
        }
    }

    /// Whether the two footprints commute: neither writes a cell the other
    /// reads or writes. `Unknown` is independent of nothing (not even a
    /// local statement — the conservative choice keeps the check symmetric
    /// and cheap; local statements prune via their *own* side).
    pub fn independent(self, other: Footprint) -> bool {
        match (self, other) {
            (
                Footprint::Access { reads: r1, writes: w1 },
                Footprint::Access { reads: r2, writes: w2 },
            ) => w1 & (r2 | w2) == 0 && w2 & (r1 | w1) == 0,
            _ => false,
        }
    }
}

/// The result of executing one atomic statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The process has more statements in its current object invocation.
    Continue,
    /// The statement completed the current object invocation; the process
    /// has at least one further invocation to perform. Quantum windows close
    /// at invocation boundaries ("…or until its current object invocation
    /// terminates"), so this outcome matters to the scheduler.
    InvocationEnd,
    /// The statement completed the process's last invocation; the process
    /// leaves the ready set permanently (it "thinks" forever).
    Finished,
}

/// Where a [`StepCtx`] sends labels.
#[derive(Debug)]
enum LabelSink<'a> {
    /// Labels are dropped without any work: no trace is attached, so the
    /// step path does zero label processing.
    Discard,
    /// Labels are interned into the attached trace's symbol table.
    Intern(&'a mut Interner),
    /// Labels are interned into a table owned by the context itself — used
    /// by [`StepCtx::new`] so machines can be driven directly in tests.
    Own(Interner),
}

/// Context handed to a machine for each statement execution.
///
/// The machine uses it to learn its own identity and to label the statement
/// for the observability trace. Labels are interned (see
/// [`crate::sym`]): the context carries a [`Sym`], not a `String`, and when
/// nothing records labels the whole path is a no-op.
#[derive(Debug)]
pub struct StepCtx<'a> {
    /// The identity of the executing process.
    pub pid: ProcessId,
    pub(crate) label: Option<Sym>,
    sink: LabelSink<'a>,
}

impl StepCtx<'static> {
    /// Creates a self-contained context for `pid`, with its own private
    /// symbol table. The kernel uses the cheaper internal constructors; this
    /// one is exposed so machines can be driven directly in tests (labels
    /// remain inspectable via [`StepCtx::label_str`]).
    pub fn new(pid: ProcessId) -> Self {
        StepCtx { pid, label: None, sink: LabelSink::Own(Interner::new()) }
    }

    /// A context that discards labels entirely (nothing is recording).
    pub(crate) fn discarding(pid: ProcessId) -> Self {
        StepCtx { pid, label: None, sink: LabelSink::Discard }
    }
}

impl<'a> StepCtx<'a> {
    /// A context that interns labels into `syms` (the attached trace's
    /// table).
    pub(crate) fn recording(pid: ProcessId, syms: &'a mut Interner) -> Self {
        StepCtx { pid, label: None, sink: LabelSink::Intern(syms) }
    }

    /// Labels the statement being executed (e.g. `"3: w := P[i]"`).
    /// The label appears in the observability trace. When no trace is
    /// attached, this is a no-op.
    pub fn label(&mut self, s: impl AsRef<str>) {
        match &mut self.sink {
            LabelSink::Discard => {}
            LabelSink::Intern(syms) => self.label = Some(syms.intern(s.as_ref())),
            LabelSink::Own(syms) => self.label = Some(syms.intern(s.as_ref())),
        }
    }

    /// The label recorded so far this step, as a string (for direct-driving
    /// tests; `None` if unlabeled or the context is discarding labels).
    pub fn label_str(&self) -> Option<&str> {
        let sym = self.label?;
        match &self.sink {
            LabelSink::Discard => None,
            LabelSink::Intern(syms) => Some(syms.resolve(sym)),
            LabelSink::Own(syms) => Some(syms.resolve(sym)),
        }
    }

    pub(crate) fn take_label(&mut self) -> Option<Sym> {
        self.label.take()
    }
}

/// A process, modeled as a machine that executes exactly one *atomic
/// statement* per [`step`](StepMachine::step) call against the shared
/// memory `M`.
///
/// This is the paper's execution model: "each numbered statement is assumed
/// to be atomic", and a quantum is a statement count. Implementations must
/// be deterministic — any randomness belongs in the construction, not the
/// steps — so that simulations replay exactly from a schedule script.
///
/// Most algorithm machines are built with the [`crate::program`] DSL rather
/// than implemented by hand.
pub trait StepMachine<M>: Send + Sync {
    /// Executes the next atomic statement against `mem`.
    fn step(&mut self, mem: &mut M, ctx: &mut StepCtx<'_>) -> StepOutcome;

    /// The output of the most recently completed invocation, if any.
    ///
    /// Test oracles use this to check agreement and linearizability without
    /// reaching into machine internals.
    fn output(&self) -> Option<u64> {
        None
    }

    /// Clones the machine, preserving its full execution state.
    ///
    /// Required so the exhaustive explorer can fork simulations at decision
    /// points.
    fn box_clone(&self) -> Box<dyn StepMachine<M>>;

    /// Like [`StepMachine::box_clone`], but into an `Arc`: the copy a
    /// kernel makes of a machine it shares copy-on-write with its forks.
    /// The default boxes the copy and moves it into an `Arc`, two
    /// allocations; a machine overrides it with `Arc::new(self.clone())`
    /// to make it one.
    fn arc_clone(&self) -> Arc<dyn StepMachine<M>> {
        Arc::from(self.box_clone())
    }

    /// Like [`StepMachine::box_clone`], but the copy also shares no
    /// reference-counted state with `self`, so the two can be cloned and
    /// dropped on different threads without touching a common counter.
    /// The parallel explorer uses it when a worker adopts another
    /// worker's subtree. The default is `box_clone`, right for machines
    /// that hold no `Arc`s.
    fn box_clone_unshared(&self) -> Box<dyn StepMachine<M>> {
        self.box_clone()
    }

    /// Feeds the machine's full execution state into `h`.
    ///
    /// Used by the explorer for visited-state de-duplication; two machines
    /// that hash differently may be treated as distinct states, so hashing
    /// *less* state is safe but slower, hashing *more* is a bug.
    fn state_key(&self, h: &mut dyn Hasher);

    /// The footprint of the *next* statement this machine would execute.
    ///
    /// Drives the explorer's partial-order reduction. The default,
    /// [`Footprint::Unknown`], is always sound (it disables pruning around
    /// this machine). Overriding implementations must over-approximate:
    /// every cell the next [`step`](StepMachine::step) call could touch
    /// must be covered.
    fn next_footprint(&self) -> Footprint {
        Footprint::Unknown
    }

    /// The footprint of *every* statement this machine may still execute
    /// (a static over-approximation of its remaining behavior).
    ///
    /// Like [`next_footprint`](StepMachine::next_footprint), defaults to
    /// the conservative [`Footprint::Unknown`].
    fn may_footprint(&self) -> Footprint {
        Footprint::Unknown
    }
}

impl<M> Clone for Box<dyn StepMachine<M>> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// A machine built from a closure, for tests and tiny fixtures.
///
/// The closure is called once per statement with `(mem, call_count)` and
/// returns the outcome; `output` reports the value recorded via the second
/// closure slot.
pub struct FnMachine<M> {
    f: std::sync::Arc<dyn Fn(&mut M, u32) -> (StepOutcome, Option<u64>) + Send + Sync>,
    calls: u32,
    out: Option<u64>,
    fp: Footprint,
}

impl<M> FnMachine<M> {
    /// Creates a machine from `f`, which receives the shared memory and the
    /// number of statements executed so far and returns the step outcome
    /// plus an optional invocation output.
    pub fn new(
        f: impl Fn(&mut M, u32) -> (StepOutcome, Option<u64>) + Send + Sync + 'static,
    ) -> Self {
        FnMachine { f: std::sync::Arc::new(f), calls: 0, out: None, fp: Footprint::Unknown }
    }

    /// Declares the footprint of *every* statement of this machine (both
    /// [`StepMachine::next_footprint`] and [`StepMachine::may_footprint`]
    /// report it). Must over-approximate each step's shared accesses.
    #[must_use]
    pub fn with_footprint(mut self, fp: Footprint) -> Self {
        self.fp = fp;
        self
    }
}

impl<M> Clone for FnMachine<M> {
    fn clone(&self) -> Self {
        FnMachine { f: self.f.clone(), calls: self.calls, out: self.out, fp: self.fp }
    }
}

impl<M: 'static> StepMachine<M> for FnMachine<M> {
    fn step(&mut self, mem: &mut M, _ctx: &mut StepCtx<'_>) -> StepOutcome {
        let (o, out) = (self.f)(mem, self.calls);
        self.calls += 1;
        if out.is_some() {
            self.out = out;
        }
        o
    }

    fn output(&self) -> Option<u64> {
        self.out
    }

    fn box_clone(&self) -> Box<dyn StepMachine<M>> {
        Box::new(self.clone())
    }

    fn state_key(&self, h: &mut dyn Hasher) {
        h.write_u32(self.calls);
        h.write_u64(self.out.map_or(u64::MAX, |v| v));
    }

    fn next_footprint(&self) -> Footprint {
        self.fp
    }

    fn may_footprint(&self) -> Footprint {
        self.fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_machine_counts_calls_and_records_output() {
        let mut m = FnMachine::new(|mem: &mut u64, calls| {
            *mem += 1;
            if calls == 2 {
                (StepOutcome::Finished, Some(99))
            } else {
                (StepOutcome::Continue, None)
            }
        });
        let mut mem = 0u64;
        let mut ctx = StepCtx::new(ProcessId(0));
        assert_eq!(m.step(&mut mem, &mut ctx), StepOutcome::Continue);
        assert_eq!(m.step(&mut mem, &mut ctx), StepOutcome::Continue);
        assert_eq!(m.step(&mut mem, &mut ctx), StepOutcome::Finished);
        assert_eq!(mem, 3);
        assert_eq!(m.output(), Some(99));
    }

    #[test]
    fn box_clone_preserves_state() {
        let mut m = FnMachine::new(|_: &mut u64, calls| {
            if calls >= 1 {
                (StepOutcome::Finished, Some(1))
            } else {
                (StepOutcome::Continue, None)
            }
        });
        let mut mem = 0u64;
        let mut ctx = StepCtx::new(ProcessId(0));
        m.step(&mut mem, &mut ctx);
        let mut c: Box<dyn StepMachine<u64>> = m.box_clone();
        // The clone is one step from finishing, same as the original.
        assert_eq!(c.step(&mut mem, &mut ctx), StepOutcome::Finished);
    }

    #[test]
    fn ctx_label_roundtrip() {
        let mut ctx = StepCtx::new(ProcessId(3));
        ctx.label("1: v := val");
        assert_eq!(ctx.label_str(), Some("1: v := val"));
        assert!(ctx.take_label().is_some());
        assert_eq!(ctx.take_label(), None);
    }

    #[test]
    fn discarding_ctx_drops_labels_without_work() {
        let mut ctx = StepCtx::discarding(ProcessId(0));
        ctx.label("ignored");
        assert_eq!(ctx.label_str(), None);
        assert_eq!(ctx.take_label(), None);
    }
}
