//! Native memory backends: the paper's algorithms on **real hardware
//! concurrency**, cross-validated by the simulator's own oracles.
//!
//! The simulator (`sched-sim`) is the paper's execution model and carries
//! the statement-level correctness experiments. This crate is the other
//! half of the backend split (see `BACKENDS.md` at the repository root):
//! it implements the [`wfmem::backend::MemBackend`] cell vocabulary over
//! cache-line-padded `std::sync::atomic` words and drives the paper's
//! algorithms on one OS thread per process — Fig. 3 consensus as the
//! statement-level program of `hybrid_wf::uni::consensus` (the one the
//! explorer verifies) over native registers, and the backend-generic
//! Fig. 5 C&S + Read interface and universal construction of
//! `hybrid_wf::generic` — in two pacing modes:
//!
//! * **free** — genuine races under the commodity scheduler. This mode
//!   measures throughput, and it is where the paper's quantum axiom does
//!   *not* hold: no mainstream kernel promises `Q` statements between
//!   equal-priority preemptions (the motivating RTOSes — QNX, IRIX REACT,
//!   VxWorks — do). Fig. 3 agreement is a *measurement* here; CAS-backed
//!   algorithms stay correct because hardware C&S has consensus number ∞.
//! * **lockstep** — the simulator's own kernel paces the threads, one
//!   counted statement at a time: `Q ≥ 8` reproduces Theorem 1's
//!   agreement, `Q = 1` the disagreements the explorer finds.
//!
//! The [`harness`] records every operation in the simulator's
//! [`sched_sim::kernel::OpRecord`] format, so native runs are checked by
//! the *same* `hybrid_wf::oracle` linearizability/agreement machinery the
//! fuzzer uses (`tests/tests/native_crossval.rs`;
//! `experiments --native` sweeps the grid into `BENCH_native.json`).
//!
//! Crate tour:
//!
//! * [`cells`] — the `#[repr(align(64))]` cache-line padding, the `⊥`
//!   sentinel and the const-generic striped counter the accounting runs
//!   on, whose single-writer lanes count without a locked instruction.
//! * [`backend`] — [`backend::NativeBackend`]: the `MemBackend`
//!   implementation with its padded atomic cells (register, C&S,
//!   first-wins consensus), free and lockstep pacing.
//! * [`harness`] — thread-per-process workload runners emitting
//!   `OpRecord`s stamped by a global ticket clock (free) or taken from the
//!   pacing kernel (lockstep), plus oracle bridges.
//!
//! Which backend to use when — and which paper guarantees survive on
//! which backend — is tabulated in `BACKENDS.md`; the worked native
//! experiment and its honest caveats live in EXPERIMENTS.md ("Native
//! execution").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cells;
pub mod harness;
