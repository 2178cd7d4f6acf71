//! The `explore` workload: two complete Lemma 1 verifications through
//! `sched_sim::explore::explore_parallel`, each checking agreement and
//! validity at every terminal state and requiring `Truncation::None`.
//!
//! * `pair`: `pair_kernel(8, 3)` (two Fig. 3 objects, three deciders each,
//!   one processor per object) with partial-order reduction and 128-bit
//!   keys. Cheap steps, a 2.7M-state visited set.
//! * `sym`: `fig3_kernel(8, &[7; 6])` (six equal proposers on one
//!   processor) with symmetry and partial-order reduction, so every state
//!   recomputes the canonical hash.
//!
//! The workload takes no seed: the search is exhaustive.
//!
//! The traced run mirrors the program's serial DFS with public kernel calls
//! (`step_scripted`, `state_hash_wide`, `clone`, `ample_cpu_choice`) and
//! its own visited set, and must reproduce the program's `ExploreStats`.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hybrid_wf::uni::consensus::UniConsensusMem;
use lowerbound::explore_grid::{fig3_kernel, pair_kernel, PairMem};
use sched_sim::explore::{explore_parallel, ExploreBounds, ExploreStats, Truncation, Verdict};
use sched_sim::ids::ProcessId;
use sched_sim::kernel::{HashCfg, Kernel, StepAttempt};

use crate::trace::{clock_overhead_ns, Span};
use crate::{measure_for, median, peak_rss_mib, ratio, time_setup, Args, Outcome};

const Q: u32 = 8;
const PER_OBJECT: u32 = 3;
const SYM_PROPOSALS: [u64; 6] = [7; 6];

fn pair_bounds() -> ExploreBounds {
    ExploreBounds {
        por: true,
        wide_hash: true,
        ..ExploreBounds::default()
    }
}

fn sym_bounds() -> ExploreBounds {
    ExploreBounds::default().reduced()
}

/// Agreement and validity of the processes `pids` deciding one object.
fn group_ok<M>(k: &Kernel<M>, pids: Range<u32>, valid: Range<u64>) -> bool {
    let mut decided = None;
    for p in pids {
        let Some(v) = k.output(ProcessId(p)) else {
            return false;
        };
        if *decided.get_or_insert(v) != v {
            return false;
        }
    }
    decided.is_some_and(|v| valid.contains(&v))
}

/// Object A's deciders propose 1..=3, object B's 4..=6.
fn pair_ok(k: &Kernel<PairMem>) -> bool {
    group_ok(k, 0..PER_OBJECT, 1..4) && group_ok(k, PER_OBJECT..2 * PER_OBJECT, 4..7)
}

fn sym_ok(k: &Kernel<UniConsensusMem>) -> bool {
    group_ok(k, 0..SYM_PROPOSALS.len() as u32, 7..8)
}

/// One program verification.
struct Verification {
    stats: ExploreStats,
    violations: u64,
    wall: Duration,
}

impl Verification {
    fn failed(&self) -> bool {
        self.violations > 0 || self.stats.truncation != Truncation::None
    }
}

fn verify<M: Clone + Hash + Send>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    jobs: usize,
    ok: fn(&Kernel<M>) -> bool,
) -> Verification {
    let violations = AtomicU64::new(0);
    let t = Instant::now();
    let stats = explore_parallel(kernel, bounds, jobs, |k| {
        if !ok(k) {
            violations.fetch_add(1, Ordering::Relaxed);
        }
        Verdict::KeepGoing
    });
    Verification {
        stats,
        violations: violations.into_inner(),
        wall: t.elapsed(),
    }
}

/// Both kernels built from scratch: the workload's set-up.
fn kernels() -> (Kernel<PairMem>, Kernel<UniConsensusMem>) {
    (pair_kernel(Q, PER_OBJECT), fig3_kernel(Q, &SYM_PROPOSALS))
}

/// Building both kernels takes microseconds, so each set-up sample times
/// a batch of this many.
const SETUP_REPS: usize = 200;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (pair, sym) = kernels();
    if args.trace {
        traced(&mut out, &pair, &sym);
        return out;
    }
    let mut setups = vec![time_setup(SETUP_REPS, kernels)];
    let (mut par, mut ser) = (Vec::new(), Vec::new());
    let mut steps = 0;
    measure_for(args.seconds, || {
        let mut then_setup = |v: Verification| {
            setups.push(time_setup(SETUP_REPS, kernels));
            v
        };
        let p1 = then_setup(verify(&pair, pair_bounds(), 1, pair_ok));
        let p2 = then_setup(verify(&pair, pair_bounds(), 2, pair_ok));
        let s1 = then_setup(verify(&sym, sym_bounds(), 1, sym_ok));
        let s2 = then_setup(verify(&sym, sym_bounds(), 2, sym_ok));
        for (serial, parallel) in [(&p1, &p2), (&s1, &s2)] {
            out.attempted += 2;
            out.failed += u64::from(serial.failed());
            // A parallel run must reproduce the serial stats bit for bit.
            out.failed += u64::from(parallel.failed() || parallel.stats != serial.stats);
        }
        ser.push((p1.wall + s1.wall).as_secs_f64());
        par.push((p2.wall + s2.wall).as_secs_f64());
        steps = p1.stats.steps + s1.stats.steps;
        println!(
            "explore: pair {} steps {} visited, sym {} steps {} visited; \
             jobs 1 {:.3}+{:.3} s, jobs 2 {:.3}+{:.3} s",
            p1.stats.steps,
            p1.stats.peak_visited,
            s1.stats.steps,
            s1.stats.peak_visited,
            p1.wall.as_secs_f64(),
            s1.wall.as_secs_f64(),
            p2.wall.as_secs_f64(),
            s2.wall.as_secs_f64(),
        );
    });
    let (verify_s, serial_verify_s) = (median(&par), median(&ser));
    println!(
        "verify_s {verify_s:.6} s, serial_verify_s {serial_verify_s:.6} s ({} runs)",
        par.len()
    );
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", verify_s);
    out.metric("serial_wall_s", serial_verify_s);
    out.metric("steps_per_item", steps as f64);
    out.metric("peak_rss_mib", peak_rss_mib());
    out
}

/// The visited-set keys are already state hashes: store them unhashed, as
/// the program's explorer does, so probe costs compare like for like.
#[derive(Default)]
struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the visited set holds only u128 keys");
    }

    fn write_u128(&mut self, v: u128) {
        self.0 = (v as u64) ^ ((v >> 64) as u64);
    }
}

type VisitedSet = HashSet<u128, BuildHasherDefault<IdentityHasher>>;

/// A partial decision script: at most three decisions resolve in one step.
#[derive(Clone, Copy, Default)]
struct Script {
    buf: [usize; 3],
    len: u8,
}

impl Script {
    fn as_slice(&self) -> &[usize] {
        &self.buf[..self.len as usize]
    }

    fn pushed(mut self, c: usize) -> Script {
        self.buf[self.len as usize] = c;
        self.len += 1;
        self
    }
}

/// Per-layer spans of one traced DFS.
#[derive(Default)]
struct Layers {
    step: Span,
    hash: Span,
    fork: Span,
    ample: Span,
    ample_hits: u64,
    probes: u64,
}

/// The program's serial DFS, rebuilt from public kernel calls with a span
/// around each. Returns the stats it computed, the terminal states that
/// failed `ok`, and the spans.
fn traced_dfs<M: Clone + Hash>(
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    ok: fn(&Kernel<M>) -> bool,
) -> (ExploreStats, u64, Layers) {
    let mut l = Layers::default();
    let mut stats = ExploreStats::default();
    let mut violations = 0;
    let mut seen = VisitedSet::default();
    let mut root = kernel.clone();
    root.track_state_hash_cfg(HashCfg {
        symmetric: bounds.symmetry,
        wide: bounds.wide_hash,
    });
    seen.insert(root.state_hash_wide());
    let mut stack: Vec<(Kernel<M>, Script, u64)> = vec![(root, Script::default(), 0)];
    while let Some((mut k, script, depth)) = stack.pop() {
        if stats.steps >= bounds.max_total_steps {
            stats.truncation = stats.truncation.max(Truncation::StepBound);
            break;
        }
        let t = Instant::now();
        let attempt = k.step_scripted(script.as_slice());
        l.step.add(t.elapsed());
        match attempt {
            StepAttempt::Quiescent => {
                stats.terminals += 1;
                violations += u64::from(!ok(&k));
            }
            StepAttempt::Stepped(_) => {
                stats.steps += 1;
                if depth + 1 >= bounds.max_depth {
                    stats.truncation = stats.truncation.max(Truncation::DepthBound);
                    continue;
                }
                let t = Instant::now();
                let h = k.state_hash_wide();
                l.hash.add(t.elapsed());
                l.probes += 1;
                if seen.insert(h) {
                    stack.push((k, Script::default(), depth + 1));
                } else {
                    stats.deduped += 1;
                }
            }
            StepAttempt::NeedChoice { arity, kind } => {
                if bounds.por && kind == "cpu" {
                    let t = Instant::now();
                    let ample = k.ample_cpu_choice();
                    l.ample.add(t.elapsed());
                    if let Some(c) = ample {
                        l.ample_hits += 1;
                        stats.por_pruned += (arity - 1) as u64;
                        stack.push((k, script.pushed(c), depth));
                        continue;
                    }
                }
                for c in 0..arity - 1 {
                    let t = Instant::now();
                    let fork = k.clone();
                    l.fork.add(t.elapsed());
                    stack.push((fork, script.pushed(c), depth));
                }
                stack.push((k, script.pushed(arity - 1), depth));
            }
        }
    }
    stats.peak_visited = seen.len() as u64;
    (stats, violations, l)
}

/// The per-layer metrics of one half, after its `pair.` or `sym.` prefix.
const HALF_METRICS: [&str; 15] = [
    "kernel.step_scripted.calls",
    "kernel.step_scripted.ns",
    "kernel.state_hash.calls",
    "kernel.state_hash.ns",
    "kernel.fork.calls",
    "kernel.fork.ns",
    "kernel.ample_cpu_choice.calls",
    "kernel.ample_cpu_choice.ns",
    "kernel.ample_cpu_choice.hit_ratio",
    "explore.visited_probes",
    "explore.dedup_ratio",
    "explore.peak_visited",
    "explore.unattributed_ns_per_step",
    "explore.par_speedup",
    "kernel.steps_per_s",
];

/// Traces one half: the program at jobs 1 and 2 untraced, then the traced
/// mirror, whose stats must equal the program's. Returns the tracing cost.
fn traced_half<M: Clone + Hash + Send>(
    out: &mut Outcome,
    half: &str,
    kernel: &Kernel<M>,
    bounds: ExploreBounds,
    ok: fn(&Kernel<M>) -> bool,
    clock_ns: f64,
) -> f64 {
    let serial = verify(kernel, bounds, 1, ok);
    let parallel = verify(kernel, bounds, 2, ok);
    let t = Instant::now();
    let (stats, violations, l) = traced_dfs(kernel, bounds, ok);
    let traced_wall = t.elapsed();
    out.attempted += 3;
    out.failed += u64::from(serial.failed()) + u64::from(parallel.failed());
    out.failed += u64::from(violations > 0 || stats.truncation != Truncation::None);
    if stats != serial.stats {
        out.mismatch(format!(
            "{half}: traced {stats:?} != program {:?}",
            serial.stats
        ));
    }
    if parallel.stats != serial.stats {
        out.mismatch(format!(
            "{half}: jobs 2 {:?} != jobs 1 {:?}",
            parallel.stats, serial.stats
        ));
    }
    let attributed: f64 = [l.step, l.hash, l.fork, l.ample]
        .iter()
        .map(|s| s.net_ns(clock_ns))
        .sum();
    let steps = stats.steps as f64;
    let values = [
        l.step.calls as f64,
        l.step.mean_ns(clock_ns),
        l.hash.calls as f64,
        l.hash.mean_ns(clock_ns),
        l.fork.calls as f64,
        l.fork.mean_ns(clock_ns),
        l.ample.calls as f64,
        l.ample.mean_ns(clock_ns),
        ratio(l.ample_hits as f64, l.ample.calls as f64),
        l.probes as f64,
        ratio(stats.deduped as f64, l.probes as f64),
        stats.peak_visited as f64,
        ratio(serial.wall.as_nanos() as f64 - attributed, steps),
        ratio(serial.wall.as_secs_f64(), parallel.wall.as_secs_f64()),
        ratio(steps, parallel.wall.as_secs_f64()),
    ];
    for (suffix, value) in HALF_METRICS.iter().zip(values) {
        out.metric(format!("{half}.{suffix}"), value);
    }
    println!(
        "explore {half}: jobs 1 {:.3} s, jobs 2 {:.3} s, traced {:.3} s",
        serial.wall.as_secs_f64(),
        parallel.wall.as_secs_f64(),
        traced_wall.as_secs_f64()
    );
    traced_wall.as_secs_f64() - serial.wall.as_secs_f64()
}

fn traced(out: &mut Outcome, pair: &Kernel<PairMem>, sym: &Kernel<UniConsensusMem>) {
    let clock_ns = clock_overhead_ns();
    let overhead = traced_half(out, "pair", pair, pair_bounds(), pair_ok, clock_ns)
        + traced_half(out, "sym", sym, sym_bounds(), sym_ok, clock_ns);
    out.metric("trace.overhead_s", overhead);
}
