//! The PR 3 zero-allocation contract, enforced by a counting allocator:
//! with observability (the trace, which also carries the history) and
//! profiling off, the kernel's steady-state step loop performs **no heap
//! allocation at all**.
//!
//! This is the acceptance criterion for the allocation-free step path:
//! labels are discarded without materialisation (`StepCtx` in discarding
//! mode), the cpu/candidate scans reuse the kernel's scratch buffers
//! (inline in the kernel, so a fork has them too), and
//! nothing on the statement path touches `String` or grows a `Vec` once
//! the warmup has sized every reusable buffer.
//!
//! The same contract covers the explorer's per-state work on a kernel
//! that tracks its state hash: stepping, refreshing the incremental exact
//! or symmetry-canonical hash, reading the 128-bit key, and the
//! partial-order-reduction query allocate nothing.
//!
//! A whole Fig. 7 adversary run, the Table 1 grid's unit of work, is held
//! to the same contract: under a warmed-up [`MaxPreempt`] and with the op
//! log reserved, the multi-processor algorithm's statements, its oracle
//! bookkeeping and the adversary's holder decisions allocate nothing.
//!
//! This file deliberately holds a single test: the `#[global_allocator]`
//! counts process-wide, so a second concurrently-running test would
//! pollute the measurement window.

use hybrid_wf::multi::consensus::LocalMode;
use integration_tests::CountingAlloc;
use lowerbound::adversary::{fig7_kernel, MaxPreempt};
use sched_sim::kernel::HashCfg;
use sched_sim::machine::Footprint;
use sched_sim::program::{Flow, ProgMachine, ProgramBuilder};
use sched_sim::{Kernel, ProcessorId, Priority, RoundRobin, SystemSpec};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc::new();

/// A nonterminating two-process workload on each of `cpus` processors:
/// each process spins on a labelled counted statement, so every kernel
/// step runs the full path — cpu scan, holder scan, quantum accounting,
/// machine step with a statement label offered to the context — forever.
fn spinning_kernel(cpus: u32) -> Kernel<u64> {
    let mut b = ProgramBuilder::<(), u64>::new();
    let main = b.proc("spin");
    let top = b.here(main);
    b.stmt_fp(main, "1: mem := mem + 1", Footprint::rw(1), move |_l, mem| {
        *mem = mem.wrapping_add(1);
        Flow::Goto(top)
    });
    let prog = b.build();

    let mut k = Kernel::new(0u64, SystemSpec::hybrid(8).with_adversarial_alignment());
    for cpu in 0..cpus {
        for _ in 0..2 {
            k.add_process(
                ProcessorId(cpu),
                Priority(1),
                Box::new(ProgMachine::single_shot(&prog, (), main)),
            );
        }
    }
    k
}

/// Warms `k` up, then measures 1000 steady-state steps and asserts the
/// step loop acquired no heap memory at all.
///
/// The allocation counter is process-wide, and the process is not
/// perfectly quiet: the test harness's main thread parks in its
/// result-channel `recv()` at a scheduler-determined moment, and that
/// first park lazily allocates (observed as exactly two allocations, 48
/// and 96 bytes, landing at an arbitrary point under host load). Such
/// exogenous allocations are one-shot, so the window is retried: a real
/// step-loop regression allocates in *every* window and still fails,
/// while a stray lazy init is absorbed by the next clean window.
///
/// `per_step` runs after every step, inside the measured window.
fn assert_steady_state_alloc_free(
    k: &mut Kernel<u64>,
    what: &str,
    mut per_step: impl FnMut(&Kernel<u64>),
) {
    let mut decider = RoundRobin::new();

    // Warmup: lets the kernel's scratch buffers and the decider's
    // round-robin memory reach their steady-state capacities.
    for _ in 0..200 {
        assert!(k.step(&mut decider).is_some(), "spin workload must never quiesce");
        per_step(k);
    }

    let mut allocated = 0;
    for _attempt in 0..3 {
        let before = GLOBAL.count();
        for _ in 0..1_000 {
            assert!(k.step(&mut decider).is_some(), "spin workload must never quiesce");
            per_step(k);
        }
        allocated = GLOBAL.count() - before;
        if allocated == 0 {
            break;
        }
    }

    assert_eq!(
        allocated, 0,
        "kernel step loop allocated {allocated} times over 1000 steps with {what} \
         (in three consecutive windows)"
    );
    assert!(k.mem >= 1_000, "statements must actually have executed");
}

/// Runs `fig7_kernel(3, 3, 3, 1, q, Modeled)` to completion under
/// `decider` and asserts that everything after its first statement
/// allocated nothing. The first statement sizes the kernel's scratch
/// buffers; the op log is reserved before it. Retried like
/// [`assert_steady_state_alloc_free`], on a fresh kernel each time.
fn assert_fig7_run_alloc_free(q: u32, decider: &mut MaxPreempt) {
    let mut allocated = 0;
    for _attempt in 0..3 {
        let mut k = fig7_kernel(3, 3, 3, 1, q, LocalMode::Modeled);
        k.reserve_ops(k.n_processes());
        assert!(k.step(decider).is_some(), "a fresh Fig. 7 kernel has ready processes");
        let before = GLOBAL.count();
        let steps = k.run(decider, 1_000_000);
        allocated = GLOBAL.count() - before;
        assert!(k.all_finished(), "Fig. 7 run at Q = {q} must finish");
        assert!(steps > 0, "statements must actually have executed");
        if allocated == 0 {
            break;
        }
    }
    assert_eq!(
        allocated, 0,
        "Fig. 7 run at Q = {q} allocated {allocated} times under MaxPreempt \
         (in three consecutive runs)"
    );
}

#[test]
fn steady_state_step_loop_does_not_allocate() {
    let mut k = spinning_kernel(1);
    assert_steady_state_alloc_free(&mut k, "obs and history off", |_| {});

    // The PR 5 extension of the contract: a kernel that *had* a streaming
    // profiler attached and then detached (`take_prof`) must be just as
    // allocation-free — the profiler being compiled in, and even having
    // been used, costs nothing once it is off.
    let mut k = spinning_kernel(1);
    k.attach_prof();
    let mut decider = RoundRobin::new();
    for _ in 0..50 {
        assert!(k.step(&mut decider).is_some(), "spin workload must never quiesce");
    }
    let profile = k.take_prof().expect("profiler was attached");
    assert!(profile.total_stmts() > 0, "profiler must have observed the warmup");
    assert_steady_state_alloc_free(&mut k, "profiler detached after use", |_| {});

    // The explorer's per-state work: with the incremental state hash
    // tracked (exact and symmetric, 128-bit keys), each step's hash
    // refresh, the key read and the ample-set query stay allocation-free.
    for symmetric in [false, true] {
        let mut k = spinning_kernel(2);
        k.track_state_hash_cfg(HashCfg { symmetric, wide: true });
        let mut keys = 0u128;
        assert_steady_state_alloc_free(&mut k, "state hash tracked", |k| {
            keys ^= k.state_hash_wide();
            assert_eq!(k.ample_cpu_choice(), None, "every cpu writes the one shared cell");
        });
        assert_ne!(keys, 0, "keys must actually have been computed");
    }

    // Whole Fig. 7 adversary runs. One uncounted run first grows the
    // adversary's per-(cpu, priority) holder memory to its final size.
    let mut adversary = MaxPreempt::new(0);
    fig7_kernel(3, 3, 3, 1, 1, LocalMode::Modeled).run(&mut adversary, 1_000_000);
    for q in [1, 2, 4, 8] {
        assert_fig7_run_alloc_free(q, &mut adversary);
    }
}
