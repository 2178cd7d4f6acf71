//! The memory-backend abstraction: write an algorithm once, run it on the
//! deterministic simulator cells *and* on real `std::sync::atomic` cells.
//!
//! Everything else in this crate models shared objects as plain data mutated
//! one atomic statement at a time by the `sched-sim` kernel. That is the
//! paper's own execution model, and it is what makes exhaustive schedule
//! exploration and deterministic replay possible — but nothing written
//! against `&mut CConsensus` can ever execute on two hardware threads at
//! once. [`MemBackend`] closes that gap: it is the minimal vocabulary of
//! shared cells the paper's algorithms need (atomic registers, a C&S word,
//! and a first-wins consensus cell), expressed through `&self` methods so
//! the same algorithm text can be instantiated over
//!
//! * [`SimBackend`] (this module) — single-threaded, deterministic
//!   cells (a plain word for the register and the C&S, a
//!   [`LocalConsensus`] for the consensus cell); every stepped access is
//!   counted as one atomic statement, so step-complexity claims (e.g. the
//!   universal construction's accesses per operation) stay auditable, and
//! * the `native` crate's backends — one cache-line-aligned
//!   `std::sync::atomic` word per cell, driven by real OS threads, either *free*
//!   (whatever interleaving the hardware and the commodity scheduler
//!   produce) or *lockstep* (a deterministic seeded token-passing scheduler
//!   that enforces the paper's hybrid axioms at statement granularity).
//!
//! The backend-generic algorithms themselves live in
//! `hybrid_wf::generic`; `BACKENDS.md` at the repository root documents the
//! full trait contract, per-backend guarantees, and memory-ordering
//! choices.
//!
//! # The step contract
//!
//! The paper counts *atomic statements*: one shared-memory access per
//! statement, quanta measured in statements (Axiom 2). The trait mirrors
//! that accounting: **every stepped access performs exactly one step**
//! before the access takes effect. The backend takes the step, not the
//! cell: a cell is plain state (a bare `Cell` or one padded atomic word)
//! whose [`RegCell`]/[`CasCell`]/[`ConsCell`] operations take no step, and
//! [`MemBackend`]'s accessors ([`read`](MemBackend::read),
//! [`write`](MemBackend::write), [`compare_swap`](MemBackend::compare_swap),
//! [`read_word`](MemBackend::read_word), [`decide`](MemBackend::decide),
//! [`read_decided`](MemBackend::read_decided)) are each one
//! [`step`](MemBackend::step) followed by one cell operation. A backend
//! may use that step to count the statement ([`SimBackend`]), to park the
//! calling thread until a scheduler grants it the statement (native
//! lockstep), or only to count it (native free). Between two of its steps
//! a process performs only private computation plus the single cell
//! access the second step licenses — which is precisely the paper's "one
//! atomic statement" granularity.
//!
//! Statement-level programs whose statements are not all cell accesses
//! (Fig. 3's statement 1, `v := val`, touches no shared cell but is one
//! of the eight statements Lemma 1 counts) do not use the accessors: the
//! `native` harness runs such a program itself, calls
//! [`step`](MemBackend::step) once per statement and touches its cells
//! through their un-stepped operations, so a quantum of `Q = 8` means
//! exactly what it means in the paper.
//!
//! # Examples
//!
//! ```
//! use wfmem::backend::{MemBackend, RegCell, SimBackend};
//!
//! let b = SimBackend::new();
//! let r = b.reg();
//! assert_eq!(b.read(&r), None);   // ⊥ initially
//! b.write(&r, 7);
//! assert_eq!(b.read(&r), Some(7));
//! assert_eq!(b.steps(), 3);       // every access counted one statement
//! assert_eq!(r.read(), Some(7));  // the cell's own read takes no step
//! assert_eq!(b.steps(), 3);
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::{LocalConsensus, OptVal, Val};

/// An atomic read/write register holding a value or `⊥`.
///
/// The cell the paper's read/write algorithms (Fig. 3, the announce array
/// of the universal construction) are built from. Methods take `&self`
/// because on a native backend many threads share one cell; interior
/// mutability is the implementation's concern. They take no step: a
/// counted access goes through [`MemBackend::read`] /
/// [`MemBackend::write`].
pub trait RegCell {
    /// Atomically reads the register (`None` is the paper's `⊥`).
    fn read(&self) -> OptVal;

    /// Atomically writes `v` to the register.
    fn write(&self, v: Val);
}

/// An atomic compare-and-swap word.
///
/// The consensus-number-∞ primitive real multiprocessors offer; backends
/// map it either to a plain word (simulator) or to a hardware
/// `compare_exchange` (native). Un-stepped, like [`RegCell`]; the counted
/// accesses are [`MemBackend::compare_swap`] and [`MemBackend::read_word`].
pub trait CasCell {
    /// Atomically: if the word equals `old`, set it to `new` and return
    /// `true`; otherwise return `false`.
    fn cas(&self, old: Val, new: Val) -> bool;

    /// Atomically reads the word.
    fn read(&self) -> Val;
}

/// A first-wins consensus cell with unbounded invocations.
///
/// The `local-consensus` object of Fig. 7 and the per-slot decision object
/// of the universal construction's log: every `decide` returns the value
/// proposed by the first. Theorem 1 justifies modeling it as one atomic
/// statement on a hybrid uniprocessor; the native backends realize it with
/// a single `compare_exchange` (consensus number ∞ covers the unbounded
/// case outright). Un-stepped, like [`RegCell`]; the counted accesses are
/// [`MemBackend::decide`] and [`MemBackend::read_decided`].
pub trait ConsCell {
    /// Atomically proposes `v`; returns the decided value (first proposal
    /// wins).
    fn decide(&self, v: Val) -> Val;

    /// Reads the decided value without proposing (`⊥` if undecided).
    fn read(&self) -> OptVal;
}

/// A family of shared-memory cells, and the step every counted access to
/// them takes.
///
/// Implementations provide the cell constructors and [`step`](Self::step);
/// the accessors are provided, each one step and then one cell operation
/// (the step contract in the [module docs](self)). The cells themselves
/// must be sequentially consistent (see `BACKENDS.md` for the per-backend
/// memory-ordering argument). `Clone` is cheap — a handle — so an object
/// built over the backend keeps its own clone to step through.
pub trait MemBackend: Clone {
    /// This backend's atomic register cell.
    type Reg: RegCell;
    /// This backend's compare-and-swap cell.
    type Cas: CasCell;
    /// This backend's first-wins consensus cell.
    type Cons: ConsCell;

    /// Creates a register initialized to `⊥`.
    fn reg(&self) -> Self::Reg;

    /// Creates a C&S word initialized to `init`.
    fn cas(&self, init: Val) -> Self::Cas;

    /// Creates an undecided consensus cell.
    fn cons(&self) -> Self::Cons;

    /// One atomic statement of the calling process: counts it and, on a
    /// scheduled backend, waits until the statement is granted.
    fn step(&self);

    /// One step, then [`RegCell::read`].
    fn read(&self, r: &Self::Reg) -> OptVal {
        self.step();
        r.read()
    }

    /// One step, then [`RegCell::write`].
    fn write(&self, r: &Self::Reg, v: Val) {
        self.step();
        r.write(v);
    }

    /// One step, then [`CasCell::cas`].
    fn compare_swap(&self, w: &Self::Cas, old: Val, new: Val) -> bool {
        self.step();
        w.cas(old, new)
    }

    /// One step, then [`CasCell::read`].
    fn read_word(&self, w: &Self::Cas) -> Val {
        self.step();
        w.read()
    }

    /// One step, then [`ConsCell::decide`].
    fn decide(&self, c: &Self::Cons, v: Val) -> Val {
        self.step();
        c.decide(v)
    }

    /// One step, then [`ConsCell::read`].
    fn read_decided(&self, c: &Self::Cons) -> OptVal {
        self.step();
        c.read()
    }
}

// ---------------------------------------------------------------------------
// The simulator backend
// ---------------------------------------------------------------------------

/// The deterministic single-threaded backend over the simulator cells.
///
/// Every step counts into one statement counter per backend —
/// [`steps`](SimBackend::steps) — so backend-generic algorithms remain
/// step-auditable exactly like their statement-level counterparts.
///
/// This backend is `!Send` by construction (clones share an [`Rc`]): a
/// backend-generic algorithm runs on it sequentially, in program order,
/// which is itself a legal hybrid schedule (no preemptions at all).
/// Interleaved executions of the *same generic code* are the native
/// lockstep backend's job; exhaustive interleaving of the statement-level
/// machines remains the `sched-sim` explorer's.
///
/// # Examples
///
/// ```
/// use wfmem::backend::{MemBackend, SimBackend};
///
/// let b = SimBackend::new();
/// let c = b.cons();
/// assert_eq!(b.decide(&c, 4), 4);
/// assert_eq!(b.decide(&c, 9), 4); // first proposal won
/// assert_eq!(b.steps(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimBackend {
    steps: Rc<Cell<u64>>,
}

impl SimBackend {
    /// Creates a backend with a zeroed statement counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total counted statements across all processes and cells.
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }
}

/// [`SimBackend`]'s register cell: a bare `Cell`.
#[derive(Debug)]
pub struct SimReg(Cell<OptVal>);

impl RegCell for SimReg {
    fn read(&self) -> OptVal {
        self.0.get()
    }

    fn write(&self, v: Val) {
        self.0.set(Some(v));
    }
}

/// [`SimBackend`]'s compare-and-swap cell: a bare `Cell`.
#[derive(Debug)]
pub struct SimCas(Cell<Val>);

impl CasCell for SimCas {
    fn cas(&self, old: Val, new: Val) -> bool {
        let hit = self.0.get() == old;
        if hit {
            self.0.set(new);
        }
        hit
    }

    fn read(&self) -> Val {
        self.0.get()
    }
}

/// [`SimBackend`]'s consensus cell: a [`LocalConsensus`] in a `RefCell`.
#[derive(Debug)]
pub struct SimCons(RefCell<LocalConsensus>);

impl ConsCell for SimCons {
    fn decide(&self, v: Val) -> Val {
        self.0.borrow_mut().decide(v)
    }

    fn read(&self) -> OptVal {
        self.0.borrow().read()
    }
}

impl MemBackend for SimBackend {
    type Reg = SimReg;
    type Cas = SimCas;
    type Cons = SimCons;

    fn reg(&self) -> SimReg {
        SimReg(Cell::new(None))
    }

    fn cas(&self, init: Val) -> SimCas {
        SimCas(Cell::new(init))
    }

    fn cons(&self) -> SimCons {
        SimCons(RefCell::new(LocalConsensus::new()))
    }

    fn step(&self) {
        self.steps.set(self.steps.get() + 1);
    }
}
