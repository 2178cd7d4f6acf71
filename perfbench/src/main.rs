//! The workspace benchmark: four workloads driven through the public API of
//! the repository's crates, end-to-end metrics from untraced runs, and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <explore|service|table1|native> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `perfbench/README.md` maps every metric to the layer it
//! measures and the end-to-end figure it should move.

mod explore;
mod native;
mod service;
mod table1;
mod trace;

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The end-to-end metrics every untraced run reports, with their units.
/// Each workload gives each metric its own meaning (see README.md).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("serial_wall_s", "s"),
    ("steps_per_item", "steps"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports. A workload that never
/// enters a layer reports 0 for it: the layer is bypassed there.
const PER_LAYER: &[(&str, &str)] = &[
    ("pair.kernel.step_scripted.calls", "count"),
    ("pair.kernel.step_scripted.ns", "ns"),
    ("pair.kernel.state_hash.calls", "count"),
    ("pair.kernel.state_hash.ns", "ns"),
    ("pair.kernel.fork.calls", "count"),
    ("pair.kernel.fork.ns", "ns"),
    ("pair.kernel.ample_cpu_choice.calls", "count"),
    ("pair.kernel.ample_cpu_choice.ns", "ns"),
    ("pair.kernel.ample_cpu_choice.hit_ratio", "ratio"),
    ("pair.explore.visited_probes", "count"),
    ("pair.explore.dedup_ratio", "ratio"),
    ("pair.explore.peak_visited", "count"),
    ("pair.explore.unattributed_ns_per_step", "ns"),
    ("pair.explore.par_speedup", "x"),
    ("pair.kernel.steps_per_s", "1/s"),
    ("sym.kernel.step_scripted.calls", "count"),
    ("sym.kernel.step_scripted.ns", "ns"),
    ("sym.kernel.state_hash.calls", "count"),
    ("sym.kernel.state_hash.ns", "ns"),
    ("sym.kernel.fork.calls", "count"),
    ("sym.kernel.fork.ns", "ns"),
    ("sym.kernel.ample_cpu_choice.calls", "count"),
    ("sym.kernel.ample_cpu_choice.ns", "ns"),
    ("sym.kernel.ample_cpu_choice.hit_ratio", "ratio"),
    ("sym.explore.visited_probes", "count"),
    ("sym.explore.dedup_ratio", "ratio"),
    ("sym.explore.peak_visited", "count"),
    ("sym.explore.unattributed_ns_per_step", "ns"),
    ("sym.explore.par_speedup", "x"),
    ("sym.kernel.steps_per_s", "1/s"),
    ("service.shard_kernel.ns", "ns"),
    ("kernel.step.calls", "count"),
    ("kernel.step.ns", "ns"),
    ("decision.choose.calls", "count"),
    ("decision.choose.ns", "ns"),
    ("history.records_per_request", "count"),
    ("prof.hist_record.ns", "ns"),
    ("sweep.par_speedup", "x"),
    ("kernel.steps_per_s", "1/s"),
    ("scenario.build.ns", "ns"),
    ("scenario.kernel.ns", "ns"),
    ("oracle.check.ns", "ns"),
    ("table1.runs", "count"),
    ("table1.steps_per_run", "steps"),
    ("generic.universal_new.ns", "ns"),
    ("generic.apply.calls", "count"),
    ("generic.apply.p50_ns", "ns"),
    ("generic.apply.p99_ns", "ns"),
    ("native.accesses_per_op", "count"),
    ("native.useful_slot_ratio", "ratio"),
    ("native.spawn_join.ns", "ns"),
    ("trace.overhead_s", "s"),
];

/// The command line, checked where it enters.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Input seed (table1's adversary seed base and native's op plans).
    pub seed: u64,
    /// How long the untraced measurement loop runs.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Checked units of work (verifications, requests, adversary runs,
    /// native operations).
    pub attempted: u64,
    /// Units that failed their check.
    pub failed: u64,
    /// Disagreements between a traced mirror and the program it mirrors;
    /// any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Measured metrics by name.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a traced mirror's disagreement with the program.
    pub fn mismatch(&mut self, what: String) {
        eprintln!("perfbench: mirror fidelity: {what}");
        self.mismatches.push(what);
    }
}

/// Runs `iter` for about `seconds`: at least twice, so a run's median always
/// spans more than one stretch of machine time, and not again once the last
/// iteration's duration predicts overrunning the budget.
pub fn measure_for(seconds: f64, mut iter: impl FnMut()) {
    let begun = Instant::now();
    for n in 1.. {
        let t = Instant::now();
        iter();
        let last = t.elapsed().as_secs_f64();
        if n >= 2 && begun.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
}

/// Mean seconds per set-up over `reps` calls of `build`; dropping what it
/// returns is not timed. Workloads take such samples between measured
/// iterations, so the median set-up time spans the same machine conditions
/// as the rest of the run.
pub fn time_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> f64 {
    let mut total = Duration::ZERO;
    for _ in 0..reps {
        let t = Instant::now();
        let built = black_box(build());
        total += t.elapsed();
        drop(built);
    }
    total.as_secs_f64() / reps as f64
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.workload.as_str() {
        "explore" => explore::run(&args),
        "service" => service::run(&args),
        "table1" => table1::run(&args),
        "native" => native::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (explore, service, table1, native)");
            std::process::exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v);
        let value = match value {
            Some(v) => v,
            // A bypassed layer reads 0; an end-to-end metric must exist.
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        println!("{:<44} {:>18.6} {unit}", name, value);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = out.failed == 0 && out.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
