//! # hybrid-wf
//!
//! A reproduction of **Anderson & Moir, "Wait-Free Synchronization in
//! Multiprogrammed Systems: Integrating Priority-Based and Quantum-Based
//! Scheduling" (PODC 1999)** as a Rust library.
//!
//! The paper studies multiprogrammed systems whose per-processor schedulers
//! are *hybrid*: they always run a maximal-priority ready process (Axiom 1)
//! and allocate time among equal-priority processes in quanta of `Q` atomic
//! statements (Axiom 2). Its central result: **any object with consensus
//! number `P` is universal for any number of processes on `P` processors**,
//! provided `Q` is large enough — with an asymptotically tight
//! characterization of "large enough" (the paper's Table 1).
//!
//! ## Crate layout
//!
//! * [`uni::consensus`] — Fig. 3: constant-time consensus from reads and
//!   writes on a hybrid uniprocessor (`Q ≥ 8`), i.e. reads/writes are
//!   universal there (Theorem 1).
//! * [`uni::quantum`] — the quantum-scheduled `Q-C&S` substrate
//!   (Anderson–Jain–Ott) used to update head variables.
//! * [`uni::cas`] — Fig. 5: `O(V)`-time compare-and-swap and read from
//!   reads and writes (Theorem 2), built on Herlihy's append-to-list
//!   universal construction.
//! * [`multi::ports`] — Fig. 8: the consensus-level / port layout.
//! * [`multi::consensus`] — Fig. 7: wait-free multiprocessor consensus for
//!   any number of processes from `C`-consensus objects, `C ≥ P`, in
//!   polynomial space and time (Theorem 4).
//! * [`multi::fair`] — Fig. 9: constant-quantum consensus under fair
//!   schedulers.
//! * [`multi::failures`] — access-failure accounting (Lemmas 2, 3, B.1,
//!   B.2).
//! * [`universal`] — Herlihy-style universal construction on top of
//!   consensus: wait-free queues, counters, and registers.
//! * [`service`] — long-lived worker sessions over the same construction:
//!   on-demand operation generation for multiplexed clients and optional
//!   think-time, the machine behind `experiments --service`.
//! * [`generic`] — the Fig. 5 object interface and the universal
//!   construction written once against [`wfmem::backend::MemBackend`], so
//!   the same function bodies run on the deterministic simulator cells
//!   and on the `native` crate's real-atomics backends (see BACKENDS.md).
//!   Fig. 3 needs no such copy: the `native` crate runs the
//!   [`uni::consensus`] program itself over atomic registers.
//! * [`baseline`] — comparators: an exponential-space priority-only
//!   construction in the style of Ramamurthy–Moir–Anderson, and lock-based
//!   objects.
//!
//! All algorithms run on the [`sched_sim`] execution model — one atomic
//! statement per step, quantum as statement count — which is the paper's
//! own model. The lower bounds (Theorem 3) live in the sibling
//! `lowerbound` crate.
//!
//! ## Quick start
//!
//! Solve consensus among five processes of mixed priorities on one
//! processor, using only reads and writes:
//!
//! ```
//! use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
//! use sched_sim::{Kernel, SystemSpec, ProcessorId, Priority, ProcessId, RoundRobin};
//!
//! let mut k = Kernel::new(UniConsensusMem::default(), SystemSpec::hybrid(MIN_QUANTUM));
//! for (input, prio) in [(10, 1), (20, 1), (30, 2), (40, 2), (50, 3)] {
//!     k.add_process(ProcessorId(0), Priority(prio), Box::new(decide_machine(input)));
//! }
//! k.run(&mut RoundRobin::new(), 10_000);
//! let decision = k.output(ProcessId(0)).unwrap();
//! for pid in 0..5 {
//!     assert_eq!(k.output(ProcessId(pid)), Some(decision));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod counters;
pub mod generic;
pub mod multi;
pub mod oracle;
pub mod service;
pub mod uni;
pub mod universal;

pub use wfmem::{OptVal, Val};
