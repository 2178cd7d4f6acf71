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
//!   [`LocalConsensus`] for the consensus cell); every access is counted
//!   as one atomic statement, so step-complexity claims (e.g. the
//!   universal construction's accesses per operation) stay auditable, and
//! * the `native` crate's backends — cache-line-padded
//!   `std::sync::atomic` cells driven by real OS threads, either *free*
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
//! that accounting: **every cell access performs exactly one step**
//! internally, before the access takes effect. A backend may use that
//! step to count the statement ([`SimBackend`]), to park the calling
//! thread until a scheduler grants it the statement (native lockstep), or
//! only to count it (native free). Between two of its steps a process
//! performs only private computation plus the single cell access the
//! second step licenses — which is precisely the paper's "one atomic
//! statement" granularity.
//!
//! Statement-level programs whose statements are not all cell accesses
//! (Fig. 3's statement 1, `v := val`, touches no shared cell but is one
//! of the eight statements Lemma 1 counts) do not go through this trait:
//! the `native` harness runs such a program itself and takes one step per
//! statement, so a quantum of `Q = 8` means exactly what it means in the
//! paper.
//!
//! # Examples
//!
//! ```
//! use wfmem::backend::{MemBackend, RegCell, SimBackend};
//!
//! let b = SimBackend::new();
//! let r = b.reg();
//! assert_eq!(r.read(), None);     // ⊥ initially
//! r.write(7);
//! assert_eq!(r.read(), Some(7));
//! assert_eq!(b.steps(), 3);       // every access counted one statement
//! ```

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::{LocalConsensus, OptVal, Val};

/// An atomic read/write register holding a value or `⊥`.
///
/// The cell the paper's read/write algorithms (Fig. 3, the announce array
/// of the universal construction) are built from. Methods take `&self`
/// because on a native backend many threads share one cell; interior
/// mutability is the implementation's concern.
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
/// `compare_exchange` (native).
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
/// case outright).
pub trait ConsCell {
    /// Atomically proposes `v`; returns the decided value (first proposal
    /// wins).
    fn decide(&self, v: Val) -> Val;

    /// Reads the decided value without proposing (`⊥` if undecided).
    fn read(&self) -> OptVal;
}

/// A family of shared-memory cells.
///
/// Implementations must uphold the step contract described in the
/// [module docs](self): one internal step per cell access, and
/// sequentially-consistent behavior of the cells themselves
/// (see `BACKENDS.md` for the per-backend memory-ordering argument).
pub trait MemBackend {
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
}

// ---------------------------------------------------------------------------
// The simulator backend
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct SimInner {
    steps: Cell<u64>,
}

impl SimInner {
    fn bump(&self) {
        self.steps.set(self.steps.get() + 1);
    }
}

/// The deterministic single-threaded backend over the simulator cells.
///
/// Cells count every access into one statement counter per backend —
/// [`steps`](SimBackend::steps) — so backend-generic algorithms remain
/// step-auditable exactly like their statement-level counterparts.
///
/// This backend is `!Send` by construction (cells share an [`Rc`]): a
/// backend-generic algorithm runs on it sequentially, in program order,
/// which is itself a legal hybrid schedule (no preemptions at all).
/// Interleaved executions of the *same generic code* are the native
/// lockstep backend's job; exhaustive interleaving of the statement-level
/// machines remains the `sched-sim` explorer's.
///
/// # Examples
///
/// ```
/// use wfmem::backend::{ConsCell, MemBackend, SimBackend};
///
/// let b = SimBackend::new();
/// let c = b.cons();
/// assert_eq!(c.decide(4), 4);
/// assert_eq!(c.decide(9), 4); // first proposal won
/// ```
#[derive(Clone, Debug, Default)]
pub struct SimBackend {
    inner: Rc<SimInner>,
}

impl SimBackend {
    /// Creates a backend with a zeroed statement counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total counted statements across all processes and cells.
    pub fn steps(&self) -> u64 {
        self.inner.steps.get()
    }
}

/// [`SimBackend`]'s register cell.
#[derive(Debug)]
pub struct SimReg {
    hook: Rc<SimInner>,
    value: Cell<OptVal>,
}

impl RegCell for SimReg {
    fn read(&self) -> OptVal {
        self.hook.bump();
        self.value.get()
    }

    fn write(&self, v: Val) {
        self.hook.bump();
        self.value.set(Some(v));
    }
}

/// [`SimBackend`]'s compare-and-swap cell.
#[derive(Debug)]
pub struct SimCas {
    hook: Rc<SimInner>,
    value: Cell<Val>,
}

impl CasCell for SimCas {
    fn cas(&self, old: Val, new: Val) -> bool {
        self.hook.bump();
        let hit = self.value.get() == old;
        if hit {
            self.value.set(new);
        }
        hit
    }

    fn read(&self) -> Val {
        self.hook.bump();
        self.value.get()
    }
}

/// [`SimBackend`]'s consensus cell (a step-counted [`LocalConsensus`]).
#[derive(Debug)]
pub struct SimCons {
    hook: Rc<SimInner>,
    cell: RefCell<LocalConsensus>,
}

impl ConsCell for SimCons {
    fn decide(&self, v: Val) -> Val {
        self.hook.bump();
        self.cell.borrow_mut().decide(v)
    }

    fn read(&self) -> OptVal {
        self.hook.bump();
        self.cell.borrow().read()
    }
}

impl MemBackend for SimBackend {
    type Reg = SimReg;
    type Cas = SimCas;
    type Cons = SimCons;

    fn reg(&self) -> SimReg {
        SimReg { hook: self.inner.clone(), value: Cell::new(None) }
    }

    fn cas(&self, init: Val) -> SimCas {
        SimCas { hook: self.inner.clone(), value: Cell::new(init) }
    }

    fn cons(&self) -> SimCons {
        SimCons { hook: self.inner.clone(), cell: RefCell::new(LocalConsensus::new()) }
    }
}
