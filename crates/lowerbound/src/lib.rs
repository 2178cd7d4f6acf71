//! Theorem 3 of the paper: in a `P`-processor system with quantum-based or
//! hybrid schedulers, consensus **cannot** be implemented wait-free for
//! arbitrarily many processes from registers and `C`-consensus objects if
//! `C ≥ P` and `Q ≤ max(1, 2P − C)`.
//!
//! The paper proves this with a valency argument (Appendix A, Figs. 6/10):
//! an adversary staggers `Q` initial processes across quantum boundaries so
//! one is always preemptable, then at the critical bivalent state extends
//! two ways and exhausts the `C`-consensus object with `Q + 2(P − Q) =
//! 2P − Q ≥ C` invocations — the last process sees `⊥` in both extensions,
//! cannot distinguish them, and must decide the same value in both, a
//! contradiction.
//!
//! This crate makes the argument executable:
//!
//! * [`fig6`] — constructs the paper's two concrete histories against a
//!   canonical single-object algorithm and exhibits the indistinguishable
//!   process (the paper's `p₂ᴾ`).
//! * [`valency`] — classifies reachable states of small simulations as
//!   uni- or bi-valent and searches for arbitrarily deep bivalent chains
//!   (the Lemma 5/6 machinery of Fig. 10).
//! * [`adversary`] — preemption-maximizing deciders plus empirical
//!   violation search against the Fig. 7 algorithm, used by the `table1`
//!   experiment to locate the quantum threshold between the paper's upper
//!   and lower bounds.
//! * [`fuzz`], [`profile`], [`native`], [`service`], [`crash`] and
//!   [`explore_grid`] — the six artifact grids of the `experiments`
//!   table: adversarial schedule fuzz with shrunk counterexamples, the
//!   schedule profiler, the backend-generic algorithms on real OS threads,
//!   sharded request-serving services, crash/recover lifecycle plans, and
//!   exhaustive Lemma 1 verification. Each module builds its grid's rows
//!   and defines next to them the `KEYS` those rows carry beyond
//!   `sched_sim::report::CELL_SCHEMA`; all but `profile` also define the
//!   grid's `grid_ok` gate.
//!
//! The adversaries here are ordinary `sched_sim` deciders, so everything
//! they do is subject to the same Axiom 1/2 well-formedness checking as
//! any other schedule — "impossibility" evidence cannot cheat the model —
//! and their runs can be captured and replayed bit-identically through
//! the observability layer (`sched_sim::obs`), which is how the
//! adversarial replay test in `tests/tests/obs_replay.rs` pins them down.
//!
//! # Example: the contradiction, in three lines
//!
//! ```
//! let f = lowerbound::fig6::construct(2, 2);   // P = 2, C = 2 ⇒ Q = 2
//! assert_ne!(f.x_branch.decided, f.y_branch.decided);
//! assert!(f.contradiction());                  // p₂ᴾ returns the same value in both
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod crash;
pub mod explore_grid;
pub mod fig6;
pub mod fuzz;
pub mod native;
pub mod profile;
pub mod service;
pub mod valency;
