//! Shared-memory object models for wait-free synchronization experiments.
//!
//! This crate provides the *objects* that the algorithms of Anderson & Moir,
//! "Wait-Free Synchronization in Multiprogrammed Systems: Integrating
//! Priority-Based and Quantum-Based Scheduling" (PODC 1999) are built from:
//!
//! * [`CConsensus`] — an object with consensus number exactly `C` in
//!   Herlihy's wait-free hierarchy, modeled by the paper's own convention:
//!   the first `C` invocations agree on the first proposed value, and every
//!   invocation after the `C`-th returns `⊥` (modeled as [`None`]),
//! * [`LocalConsensus`] — the *modeled-atomic* uniprocessor consensus
//!   object. The paper proves (Theorem 1) that it can be implemented from
//!   reads and writes on a hybrid-scheduled uniprocessor; the modeled
//!   version lets Fig. 7 treat it as a single atomic statement, while the
//!   `hybrid-wf` crate also provides the fully expanded read/write
//!   implementation.
//!
//! Read/write registers and Fig. 7's local C&S/F&I are single statements
//! on plain [`Val`]/[`OptVal`] fields of the statement-level machines'
//! memory, so they need no object type here.
//!
//! Both objects count their invocations so experiments can audit step and
//! space complexity claims: the port discipline of the Fig. 7 algorithm
//! (never invoke a level's `C`-consensus object more than `C` times) and
//! the access-failure accounting of Lemmas 2/3 are both checked against
//! these counters rather than trusted.
//!
//! This crate is scheduler-agnostic on purpose — objects are plain data
//! mutated one atomic statement at a time by whatever machine the
//! `sched-sim` kernel is stepping. Nothing here knows about priorities,
//! quanta, or histories; that separation is what lets the same object
//! models serve both the simulator and the exhaustive explorer.
//!
//! The [`backend`] module carries the algorithms onto real hardware
//! threads: [`MemBackend`] is the
//! cell vocabulary (register / C&S / consensus cell plus a process-local
//! step hook) that lets the Fig. 3 and universal-construction algorithms
//! in `hybrid-wf::generic` be written once and instantiated both on
//! [`SimBackend`] (deterministic, single-threaded, step-counted) and on
//! the `native` crate's cache-padded atomic backends. The
//! capped [`CConsensus`] has no backend cell: Fig. 7 (`C < ∞`) runs on the
//! simulator only. See `BACKENDS.md` at the repository root for the trait
//! contract and the per-backend guarantees.
//!
//! # Examples
//!
//! ```
//! use wfmem::CConsensus;
//!
//! // A 2-consensus object: two invocations agree, the third gets ⊥.
//! let mut o = CConsensus::new(2);
//! assert_eq!(o.invoke(7), Some(7));
//! assert_eq!(o.invoke(9), Some(7));
//! assert_eq!(o.invoke(3), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod consensus;

pub use backend::{CasCell, ConsCell, MemBackend, RegCell, SimBackend};
pub use consensus::{CConsensus, LocalConsensus};

/// The value domain used by the algorithm implementations.
///
/// The paper's `valtype` is an arbitrary type; the implementations in this
/// workspace fix it to `u64`, which is wide enough to pack every compound
/// word the algorithms need (head descriptors, cell pointers, port numbers)
/// while keeping the simulator monomorphic.
pub type Val = u64;

/// The paper's `⊥` ("no value yet") is modeled as [`Option::None`]; a
/// present value is `Some(v)`.
pub type OptVal = Option<Val>;
