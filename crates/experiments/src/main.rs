//! Experiment harness: regenerates every table and figure of Anderson &
//! Moir (PODC 1999) from the implementations in this workspace.
//!
//! Run `cargo run -p experiments --release` for the full report, or pass a
//! subset of flags:
//!
//! * `--table1`    — Table 1: universality thresholds across (P, C)
//! * `--thm1`      — Theorem 1: Fig. 3 constant time + Q ≥ 8 tightness
//! * `--thm2`      — Theorem 2: Fig. 5 O(V) time
//! * `--thm3`      — Theorem 3: Fig. 6 impossibility witnesses
//! * `--thm4`      — Theorem 4: Fig. 7 polynomial time/space
//! * `--failures`  — Lemmas 2/3: access-failure pressure vs Q
//! * `--lemma1`    — Lemma 1: exhaustive schedule enumeration for Fig. 3
//! * `--valency`   — Fig. 10: bivalent chain depths
//! * `--fig8`      — Fig. 8: the level/port layout
//! * `--poly-vs-exp` — polynomial Fig. 7 vs exponential baseline
//! * `--obs`       — observability: per-run counters + capture/replay demo
//! * `--fuzz`      — adversarial schedule fuzz over every algorithm family
//!                   → `BENCH_fuzz.json` (never part of the default `--all`
//!                   run; must be requested explicitly)
//! * `--profile`   — schedule profiler sweep over the central families
//!                   → `BENCH_profile.json` + `profile_<family>.perfetto.json`
//!                   timelines (like `--fuzz`, explicit-only)
//! * `--native`    — the native-backend grid: the backend-generic
//!                   algorithms on real OS threads, cross-validated by the
//!                   simulator oracles → `BENCH_native.json` (lockstep rows;
//!                   free-mode rows go whole to the timing sidecar;
//!                   explicit-only)
//! * `--crash`     — the crash-and-restart grid: crash/recover lifecycle
//!                   plans over Fig. 3 / universal / Fig. 7 under noisy
//!                   schedules, scored by recovery-safe oracles, plus a
//!                   churn-surviving service cell → `BENCH_crash.json`
//!                   (explicit-only; `--smoke` shrinks it for the
//!                   `check.sh` gate)
//! * `--service`   — the request-serving workload engine: long-lived
//!                   sharded universal-object services under thousands of
//!                   multiplexed clients → `BENCH_service.json` with
//!                   per-shard throughput and request-latency percentiles
//!                   (explicit-only; `--smoke` shrinks it)
//! * `--explore`   — exhaustive Lemma 1 verification in every explorer
//!                   mode → `BENCH_explore.json` (explicit-only; `--smoke`
//!                   runs a prefix of the full grid)
//!
//! Any other `--` flag that is not a run option is rejected: the harness
//! prints the known experiments and exits 2.
//!
//! `--profile` runs Fig. 3 / Fig. 5 / universal / Fig. 7 at their legal
//! quanta under storm and random deciders with a streaming profiler
//! attached (`sched_sim::prof`), reporting quantum-window utilization,
//! preemption counts, dispatch latency, and per-invocation step/retry
//! histograms, merged per family. `--profile-trace FILE` instead profiles
//! a committed `.trace` artifact offline and writes its Perfetto timeline
//! next to the current directory.
//!
//! `--fuzz` drives hostile deciders (`sched_sim::fuzz`) against every
//! family at legal and sub-threshold quanta, checking each family's safety
//! oracle (`lowerbound::fuzz`). Violations are delta-debugged to minimal
//! replayable counterexample artifacts under `--fuzz-dir DIR` (default
//! `tests/golden/fuzz`); `--smoke` shrinks the seed count for CI. Exits
//! nonzero on a violation at legal Q (a bug) or a missing violation where
//! the paper predicts impossibility.
//!
//! Sweep-shaped experiments (`--table1 --thm1 --thm4 --failures --fuzz`)
//! run over the `sched_sim::sweep` worker pool; `--jobs N` sets the worker
//! count (default: available parallelism). Results are **bit-identical for
//! every jobs value** — only wall time changes. They also emit
//! line-oriented JSON artifacts: `BENCH_table1.json` (the Table 1 grid)
//! and `BENCH_sweeps.json` (the other sweeps). Canonical artifacts carry
//! only deterministic payloads; wall times go to a `*.timing.json` sidecar
//! so regeneration never dirties a committed artifact. `--validate FILE`
//! checks either kind of artifact against its schema and exits.

use std::time::Duration;

use hybrid_wf::multi::consensus::LocalMode;
use hybrid_wf::multi::failures::{lemma2_holds, lemma3_bound_holds, summarize};
use hybrid_wf::multi::ports::PortLayout;
use hybrid_wf::uni::cas::{op_machine as cas_machine, CasMem, CasOp};
use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
use hybrid_wf::universal::{op_machine as universal_machine, CounterSpec, UniversalMem};
use lowerbound::adversary::{adversary_for_seed, fig7_scenario};
use lowerbound::fig6;
use lowerbound::fuzz::{case_specs, fuzz_cell, shrink_and_capture, CaseSpec, Expect, DECIDERS};
use lowerbound::profile::{
    family_timeline, n_seeds, profile_trace_text, report_lines, run_grid, FAMILIES,
    PROFILE_DECIDERS,
};
use lowerbound::valency::bivalent_chain_depth;
use sched_sim::decision::RoundRobin;
use sched_sim::explore::{check_all_schedules, explore, ExploreBounds, Verdict};
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::SystemSpec;
use sched_sim::report::{
    schema_for_path, split_timing, validate_cells, Json, TIMING_SCHEMA,
};
use sched_sim::scenario::{RunResult, Scenario};
use sched_sim::sweep::{cross, default_jobs, run_cells};

/// The shared run options every subcommand draws from: one parse, one
/// source of truth for which `--flags` are option-carrying (and so must
/// not be mistaken for experiment selectors).
struct RunArgs {
    /// Sweep worker count (`--jobs N`; default: available parallelism).
    jobs: usize,
    /// CI-scale workloads (`--smoke`).
    smoke: bool,
    /// Directory for shrunk fuzz counterexamples (`--fuzz-dir DIR`).
    fuzz_dir: String,
}

impl RunArgs {
    /// Options (flags that consume the next argument, plus `--smoke`);
    /// everything else starting with `--` selects an experiment.
    const OPTS: [&'static str; 3] = ["--jobs", "--smoke", "--fuzz-dir"];

    /// The experiment selectors `main` dispatches on.
    const EXPERIMENTS: [&'static str; 18] = [
        "--all",
        "--lemma1",
        "--thm1",
        "--thm2",
        "--fig8",
        "--thm4",
        "--failures",
        "--thm3",
        "--valency",
        "--table1",
        "--poly-vs-exp",
        "--obs",
        "--fuzz",
        "--profile",
        "--native",
        "--service",
        "--crash",
        "--explore",
    ];

    fn parse(args: &[String]) -> Self {
        let value_of = |flag: &str| {
            args.iter().position(|a| a == flag).map(|i| {
                args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
            })
        };
        RunArgs {
            jobs: value_of("--jobs")
                .map(|n| n.parse::<usize>().expect("--jobs needs an integer"))
                .unwrap_or_else(default_jobs),
            smoke: args.iter().any(|a| a == "--smoke"),
            fuzz_dir: value_of("--fuzz-dir").unwrap_or_else(|| "tests/golden/fuzz".to_string()),
        }
    }

    /// The experiment-selector flags: `--`-prefixed arguments that are not
    /// run options. Errs with the first one that names no experiment, so a
    /// typo or a removed experiment fails instead of running nothing.
    fn mode_flags(args: &[String]) -> Result<Vec<&String>, &String> {
        let flags: Vec<&String> = args
            .iter()
            .filter(|a| a.starts_with("--") && !Self::OPTS.contains(&a.as_str()))
            .collect();
        match flags.iter().find(|a| !Self::EXPERIMENTS.contains(&a.as_str())) {
            Some(unknown) => Err(unknown),
            None => Ok(flags),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Standalone artifact validation: `--validate FILE`. The schema is
    // picked from the file's final path component only
    // (`report::schema_for_path`), so absolute paths and odd parent
    // directories cannot misroute the choice.
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--validate needs a file path");
            std::process::exit(2);
        });
        let schema = schema_for_path(std::path::Path::new(path));
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| validate_cells(&text, schema))
        {
            Ok(cells) => {
                println!("{path}: OK ({cells} cells)");
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }

    // Standalone offline profiling: `--profile-trace FILE` loads any
    // serialized trace (e.g. a committed fuzz counterexample), prints its
    // derived schedule metrics, and writes a Perfetto timeline next to the
    // current directory.
    if let Some(i) = args.iter().position(|a| a == "--profile-trace") {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--profile-trace needs a file path");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        });
        match profile_trace_text(&text) {
            Ok((profile, perfetto)) => {
                let stem = std::path::Path::new(path)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("trace");
                let out = format!("{stem}.perfetto.json");
                std::fs::write(&out, perfetto).expect("write perfetto export");
                println!("{path}:");
                println!("{}", indent(&profile.to_string(), "  "));
                println!("  [timeline] wrote {out} (open in ui.perfetto.dev)");
                return;
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }

    let run = RunArgs::parse(&args);
    let flags = RunArgs::mode_flags(&args).unwrap_or_else(|unknown| {
        eprintln!("unknown experiment {unknown}; known: {}", RunArgs::EXPERIMENTS.join(" "));
        std::process::exit(2);
    });
    let all = flags.is_empty() || flags.iter().any(|a| *a == "--all");
    let want = |flag: &str| all || flags.iter().any(|a| *a == flag);

    println!("hybrid-wf experiment harness — Anderson & Moir, PODC 1999");
    println!("===========================================================\n");
    let mut sweeps: Vec<Json> = Vec::new();
    if want("--lemma1") {
        lemma1();
    }
    if want("--thm1") {
        sweeps.extend(thm1(run.jobs));
    }
    if want("--thm2") {
        thm2();
    }
    if want("--fig8") {
        fig8();
    }
    if want("--thm4") {
        sweeps.extend(thm4(run.jobs));
    }
    if want("--failures") {
        sweeps.extend(failures(run.jobs));
    }
    if want("--thm3") {
        thm3();
    }
    if want("--valency") {
        valency();
    }
    if want("--table1") {
        let cells = table1(run.jobs);
        write_artifact("BENCH_table1.json", &cells, &[]);
    }
    if want("--poly-vs-exp") {
        poly_vs_exp();
    }
    if want("--obs") {
        obs();
    }
    let want_fuzz = flags.iter().any(|a| *a == "--fuzz");
    let mut fuzz_ok = true;
    if want_fuzz {
        let (cells, ok) = fuzz(run.jobs, run.smoke, &run.fuzz_dir);
        write_artifact("BENCH_fuzz.json", &cells, &[]);
        fuzz_ok = ok;
    }
    // Like --fuzz, the profiler sweep is explicit-only: it re-runs four
    // full families and writes timeline artifacts, which the default
    // `--all` report does not need.
    if flags.iter().any(|a| *a == "--profile") {
        let lines = profile_sweep(run.jobs, run.smoke);
        write_artifact("BENCH_profile.json", &lines, &[]);
    }
    // The native grid spawns real OS threads per cell, so it is also
    // explicit-only (and ignores `--jobs`: nesting thread-per-process
    // cells under a worker pool would oversubscribe the machine).
    let mut native_ok = true;
    if flags.iter().any(|a| *a == "--native") {
        let (lockstep, free, ok) = native_grid();
        write_artifact("BENCH_native.json", &lockstep, &free);
        native_ok = ok;
    }
    // The request-serving workload engine: long-lived universal-object
    // service runs. Explicit-only like --profile (it streams millions of
    // invocations at full scale).
    let mut service_ok = true;
    if flags.iter().any(|a| *a == "--service") {
        let (lines, ok) = service(run.jobs, run.smoke);
        write_artifact("BENCH_service.json", &lines, &[]);
        service_ok = ok;
    }
    // The crash-and-restart grid: explicit-only like --fuzz (it exists for
    // its artifact and its gate, not for the default report).
    let mut crash_ok = true;
    if flags.iter().any(|a| *a == "--crash") {
        let (lines, ok) = crash_grid(run.jobs, run.smoke);
        write_artifact("BENCH_crash.json", &lines, &[]);
        crash_ok = ok;
    }
    // Exhaustive exploration at scale: the parallel/reduced explorer grid.
    // Explicit-only (the full grid model-checks multi-million-state trees).
    if flags.iter().any(|a| *a == "--explore") {
        let (cells, ok) = explore_grid_report(run.jobs, run.smoke);
        write_artifact("BENCH_explore.json", &cells, &[]);
        if !ok {
            std::process::exit(1);
        }
    }
    if !sweeps.is_empty() {
        write_artifact("BENCH_sweeps.json", &sweeps, &[]);
    }
    if !fuzz_ok || !native_ok || !service_ok || !crash_ok {
        std::process::exit(1);
    }
}

/// Writes a line-oriented JSON artifact (one cell per line), self-checking
/// it against the standard cell schema first.
///
/// Wall times are split out of every cell (`report::split_timing`) into a
/// `<stem>.timing.json` sidecar, so the canonical artifact is bit-identical
/// across regenerations and machines; the sidecar is gitignored.
/// `sidecar_rows` go whole into the sidecar: cells whose payload the host
/// scheduler decides, so they can never be part of the committed artifact.
fn write_artifact(path: &str, lines: &[Json], sidecar_rows: &[Json]) {
    let mut out =
        String::from("# hybrid-wf sweep artifact: one JSON cell per line (see sched_sim::report)\n");
    let mut timing = String::from(
        "# hybrid-wf timing sidecar: nondeterministic wall times (gitignored; see sched_sim::report)\n",
    );
    let mut timed = 0usize;
    for line in lines {
        let (canonical, t) = split_timing(line);
        out.push_str(&canonical.to_string());
        out.push('\n');
        if let Some(t) = t {
            timing.push_str(&t.to_string());
            timing.push('\n');
            timed += 1;
        }
    }
    for row in sidecar_rows {
        timing.push_str(&row.to_string());
        timing.push('\n');
    }
    let schema = schema_for_path(std::path::Path::new(path));
    let cells = validate_cells(&out, schema).expect("artifact failed self-validation");
    std::fs::write(path, out).expect("write artifact");
    let sidecar = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.timing.json"),
        None => format!("{path}.timing.json"),
    };
    validate_cells(&timing, TIMING_SCHEMA).expect("timing sidecar failed self-validation");
    std::fs::write(&sidecar, timing).expect("write timing sidecar");
    let whole = match sidecar_rows.len() {
        0 => String::new(),
        n => format!(" + {n} whole rows"),
    };
    println!("  [artifact] wrote {path} ({cells} cells; {timed} wall times{whole} → {sidecar})\n");
}

fn wall_ms(d: Duration) -> f64 {
    // Round to 1 µs so artifacts stay compact; wall time is metadata and
    // never part of a determinism comparison.
    (d.as_secs_f64() * 1e3 * 1e3).round() / 1e3
}

/// `--fuzz`: adversarial schedule fuzz with shrinking counterexamples.
///
/// Runs every `(family, Q)` spec from [`lowerbound::fuzz::case_specs`]
/// under every hostile decider, checking the family's safety oracle on
/// each seeded run, and compares the per-spec outcome against the paper's
/// prediction: a violation at legal `Q` is a bug, and a quiet run where
/// Theorem 3 predicts impossibility means the adversaries lost their
/// teeth — both flip the returned flag to `false` (→ nonzero exit). The
/// first violation of each violating spec is delta-debugged to a minimal
/// script and written as a replayable artifact under `fuzz_dir`.
fn fuzz(jobs: usize, smoke: bool, fuzz_dir: &str) -> (Vec<Json>, bool) {
    // 8 seeds are enough for every Expect::Violation spec to fire (the
    // deepest known witness sits at seed 5); the full run triples that.
    let seeds: u64 = if smoke { 8 } else { 24 };
    let specs = case_specs();
    println!(
        "── Adversarial schedule fuzz: {} specs × {} deciders × {seeds} seeds ({jobs} jobs) ──",
        specs.len(),
        DECIDERS.len()
    );
    let cells: Vec<(CaseSpec, &'static str)> =
        specs.iter().flat_map(|s| DECIDERS.iter().map(|d| (*s, *d))).collect();
    let reports = run_cells(&cells, jobs, |_, (spec, d)| fuzz_cell(spec, d, seeds));
    let mut lines = Vec::new();
    let mut ok = true;
    println!("    family        Q  regime  expect      runs  violations  verdict");
    for (si, spec) in specs.iter().enumerate() {
        let group = &reports[si * DECIDERS.len()..(si + 1) * DECIDERS.len()];
        let viol: u64 = group.iter().map(|r| r.violations).sum();
        let runs: u64 = group.iter().map(|r| r.runs).sum();
        let verdict = match (spec.expect, viol > 0) {
            (Expect::Clean, true) => {
                ok = false;
                "BUG"
            }
            (Expect::Clean, false) => "clean",
            (Expect::Violation, true) => "predicted",
            (Expect::Violation, false) => {
                ok = false;
                "MISSING"
            }
            (Expect::Any, true) => "observed",
            (Expect::Any, false) => "quiet",
        };
        println!(
            "    {:<12} {:>4}  {:<6}  {:<9} {:>5} {:>11}  {verdict}",
            spec.family.name(),
            spec.q,
            spec.regime,
            spec.expect.name(),
            runs,
            viol,
        );
        for (di, rep) in group.iter().enumerate() {
            lines.push(Json::obj([
                ("kind", Json::from("fuzz")),
                (
                    "cell",
                    Json::obj([
                        ("family", Json::from(spec.family.name())),
                        ("q", Json::from(spec.q)),
                        ("regime", Json::from(spec.regime)),
                        ("decider", Json::from(DECIDERS[di])),
                        ("seeds", Json::from(seeds)),
                    ]),
                ),
                ("steps", Json::from(rep.steps)),
                ("wall_ms", Json::from(wall_ms(rep.wall))),
                ("violations", Json::from(rep.violations)),
                ("expect", Json::from(spec.expect.name())),
                ("verdict", Json::from(verdict)),
            ]));
        }
        if viol > 0 {
            let (di, rep) = group
                .iter()
                .enumerate()
                .find(|(_, r)| r.first.is_some())
                .expect("violations imply a first violating run");
            let first = rep.first.as_ref().expect("checked above");
            let ce = shrink_and_capture(spec, DECIDERS[di], first.seed, &first.script);
            std::fs::create_dir_all(fuzz_dir).expect("create fuzz artifact dir");
            let path = format!("{}/{}", fuzz_dir.trim_end_matches('/'), ce.file_name());
            std::fs::write(&path, ce.to_text()).expect("write fuzz artifact");
            println!(
                "      ↳ shrunk script {} → {} forced decisions ({}), artifact {path}",
                first.script.len(),
                ce.forced,
                ce.verdict
            );
        }
    }
    println!();
    (lines, ok)
}

/// `--profile`: the schedule profiler sweep (see `lowerbound::profile`).
///
/// Profiles the central algorithm families at legal quantum under storm
/// and random deciders, prints the per-cell and per-family derived
/// metrics, writes one Perfetto timeline artifact per family, and returns
/// the JSONL lines for `BENCH_profile.json`.
fn profile_sweep(jobs: usize, smoke: bool) -> Vec<Json> {
    let seeds = n_seeds(smoke);
    println!(
        "── Schedule profiler: {} families × {} deciders × {seeds} seeds at legal Q ({jobs} jobs) ──",
        FAMILIES.len(),
        PROFILE_DECIDERS.len(),
    );
    let cells = run_grid(jobs, smoke);
    let util = |u: Option<f64>| u.map_or("-".to_string(), |u| format!("{u:.3}"));
    println!(
        "    family       Q decider  seed     steps  windows   util  same  higher  retries"
    );
    for c in &cells {
        println!(
            "    {:<10} {:>3} {:<7} {:>5} {:>9} {:>8}  {:>5} {:>5} {:>7} {:>8}",
            c.family.name(),
            c.q,
            c.decider,
            c.seed,
            c.steps,
            c.profile.total_windows(),
            util(c.profile.utilization()),
            c.profile.total_preempt_same(),
            c.profile.total_preempt_higher(),
            c.profile.total_retries(),
        );
    }
    for family in FAMILIES {
        let fam: Vec<_> = cells.iter().filter(|c| c.family == family).collect();
        let mut merged = sched_sim::prof::Profile::new();
        for c in &fam {
            merged.merge(&c.profile);
        }
        println!(
            "  {} merged over {} runs: util {}, {} same / {} higher preemptions, \
             {} retries over {} invocations",
            family.name(),
            fam.len(),
            util(merged.utilization()),
            merged.total_preempt_same(),
            merged.total_preempt_higher(),
            merged.total_retries(),
            merged.total_invocations(),
        );
    }
    for family in FAMILIES {
        let path = format!("profile_{}.perfetto.json", family.name());
        std::fs::write(&path, family_timeline(family)).expect("write perfetto timeline");
        println!("  [timeline] wrote {path} (open in ui.perfetto.dev)");
    }
    println!();
    report_lines(&cells)
}

/// `--native`: the native-backend grid (see `lowerbound::native`).
///
/// Runs the backend-generic algorithms on real OS threads (free and
/// lockstep pacing), scores every cell against the simulator's
/// agreement/linearizability oracles, prints the grid, and returns the
/// JSONL lines of the lockstep cells (pure functions of their seeds: the
/// committed `BENCH_native.json`), those of the free cells (decided by the
/// host scheduler: sidecar only), and the gate flag: `false` — and so a
/// nonzero exit — on a `BUG` (violation on a backend that must be clean)
/// or a `MISSING` (a pinned sub-threshold seed that no longer splits the
/// Fig. 3 decision), in either pacing. Free-mode Fig. 3 disagreement is
/// *reported*, never gated: no commodity scheduler promises Axiom 2.
fn native_grid() -> (Vec<Json>, Vec<Json>, bool) {
    use lowerbound::native as ng;
    let cells = ng::run_grid();
    println!("── Native backend: {} OS-thread cells, oracle-checked ──", cells.len());
    println!(
        "    family             pacing     n   q  seed    ops    steps  retries  checked       viol  verdict"
    );
    for c in &cells {
        println!(
            "    {:<17} {:<8} {:>4} {:>3} {:>5} {:>6} {:>8} {:>8}  {:<12} {:>4}  {}",
            c.family.name(),
            c.pacing,
            c.threads,
            c.q,
            c.seed,
            c.ops,
            c.steps,
            c.retries,
            c.checked,
            c.violations,
            c.verdict(),
        );
    }
    let ok = ng::grid_ok(&cells);
    if !ok {
        println!("  NATIVE GATE FAILED: a gated cell diverged from the paper's prediction");
    }
    println!();
    let (lockstep, free): (Vec<_>, Vec<_>) =
        cells.into_iter().partition(|c| c.pacing == "lockstep");
    (ng::report_lines(&lockstep), ng::report_lines(&free), ok)
}

/// `--crash`: the crash-and-restart grid (see `lowerbound::crash`).
///
/// Runs every (family, noise, seed) crash cell — a deterministic
/// crash/recover lifecycle plan under a noisy schedule, scored by the
/// recovery-safe oracles — plus the churn service cell, prints the grid,
/// and returns the JSONL lines for `BENCH_crash.json` with the gate flag:
/// `false` (→ nonzero exit) if any cell's oracle reported a violation or a
/// planned crash failed to fire.
fn crash_grid(jobs: usize, smoke: bool) -> (Vec<Json>, bool) {
    let n_cells = lowerbound::crash::grid(smoke).len();
    println!(
        "── Crash-and-restart grid: {n_cells} crash cells + 1 churn cell ({}, {jobs} jobs) ──",
        if smoke { "smoke" } else { "full" }
    );
    let lines = lowerbound::crash::run_grid(jobs, smoke);
    let cell_val = |l: &Json, key: &str| {
        l.get("cell")
            .and_then(|c| c.get(key))
            .map_or("?".to_string(), |v| match v {
                Json::Str(s) => s.clone(),
                other => other.to_string(),
            })
    };
    println!("    family      q  noise  seed  victim  crash@  recover@     steps  crashes  recoveries  verdict");
    for l in &lines {
        let num = |key: &str| l.get(key).and_then(Json::as_u64).unwrap_or(0);
        let ok = l.get("ok") == Some(&Json::Bool(true));
        match l.get("kind").and_then(Json::as_str) {
            Some("crash") => println!(
                "    {:<9} {:>4}  {:>5} {:>5} {:>7} {:>7} {:>9} {:>9} {:>8} {:>11}  {}",
                cell_val(l, "family"),
                cell_val(l, "q"),
                cell_val(l, "noise"),
                cell_val(l, "seed"),
                cell_val(l, "victim"),
                cell_val(l, "crash_t"),
                cell_val(l, "recover_t"),
                num("steps"),
                num("crashes"),
                num("recoveries"),
                if ok { "ok" } else { "VIOLATION" },
            ),
            Some("crash_churn") => println!(
                "    churn: counter service, {} shards × {} workers, {} requests, {} crashes / {} recoveries — {}",
                cell_val(l, "shards"),
                cell_val(l, "workers"),
                num("requests_served"),
                num("crashes"),
                num("recoveries"),
                if ok { "ok" } else { "VIOLATION" },
            ),
            _ => {}
        }
        if !ok {
            eprintln!("    ^^ FAILED: {l}");
        }
    }
    let ok = lowerbound::crash::grid_ok(&lines);
    if !ok {
        println!("  CRASH GATE FAILED: a recovery-safe oracle reported a violation");
    }
    println!();
    (lines, ok)
}

/// `--service`: the request-serving workload engine (see
/// `lowerbound::service`).
///
/// Runs the (object, arrival) service grid — sharded universal objects
/// serving a multiplexed client population over the sweep worker pool —
/// prints the per-configuration summary, and returns the JSONL lines for
/// `BENCH_service.json` plus the gate flag: `false` if any configuration
/// failed to finish inside its step budget.
fn service(jobs: usize, smoke: bool) -> (Vec<Json>, bool) {
    let cfgs = lowerbound::service::grid(smoke);
    println!(
        "── Service engine: {} (object, arrival) configurations ({}, {jobs} jobs) ──",
        cfgs.len(),
        if smoke { "smoke" } else { "full" }
    );
    let lines = lowerbound::service::run_grid(jobs, smoke);
    println!(
        "    object   arrival  shards  clients  workers   requests  steps/req     p50     p90     p99  finished"
    );
    let mut ok = true;
    let cell_str = |l: &Json, key: &str| {
        l.get("cell")
            .and_then(|c| c.get(key))
            .map_or("?".to_string(), |v| match v {
                Json::Str(s) => s.clone(),
                other => other.to_string(),
            })
    };
    for (cfg, l) in cfgs.iter().zip(
        lines.iter().filter(|l| l.get("kind").and_then(Json::as_str) == Some("service_total")),
    ) {
        let finished = l.get("all_finished") == Some(&Json::Bool(true));
        if !finished {
            ok = false;
        }
        let num = |key: &str| l.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "    {:<8} {:<8} {:>6} {:>8} {:>8} {:>10}  {:>9} {:>7} {:>7} {:>7}  {}",
            cell_str(l, "object"),
            cell_str(l, "arrival"),
            cfg.shards,
            cell_str(l, "clients"),
            cell_str(l, "workers"),
            num("requests"),
            l.get("steps_per_request").and_then(Json::as_f64).unwrap_or(f64::NAN),
            num("p50"),
            num("p90"),
            num("p99"),
            if finished { "yes" } else { "NO (budget)" },
        );
    }
    if !ok {
        println!("  SERVICE GATE FAILED: a configuration exhausted its step budget");
    }
    println!();
    (lines, ok)
}

fn lemma1() {
    println!("── Lemma 1 (Fig. 4): exhaustive schedule enumeration, Fig. 3 consensus ──");
    let mk = |q: u32, inputs: &[(u64, u32)]| {
        let mut s = Scenario::new(
            UniConsensusMem::default(),
            SystemSpec::hybrid(q).with_adversarial_alignment(),
        );
        for &(v, pr) in inputs {
            s.add_process(ProcessorId(0), Priority(pr), Box::new(decide_machine(v)));
        }
        s.into_kernel()
    };
    for (label, inputs) in [
        ("2 procs, same priority", vec![(1u64, 1u32), (2, 1)]),
        ("3 procs, two levels", vec![(1, 1), (2, 1), (3, 2)]),
    ] {
        let k = mk(MIN_QUANTUM, &inputs);
        let vals: Vec<u64> = inputs.iter().map(|&(v, _)| v).collect();
        let stats = check_all_schedules(&k, ExploreBounds::default(), |k| {
            let outs: Vec<u64> =
                (0..k.n_processes() as u32).filter_map(|p| k.output(ProcessId(p))).collect();
            if outs.windows(2).any(|w| w[0] != w[1]) {
                Some(format!("disagreement {outs:?}"))
            } else if !vals.contains(&outs[0]) {
                Some(format!("invalid {}", outs[0]))
            } else {
                None
            }
        });
        match stats {
            Ok(s) => println!(
                "  Q = 8, {label}: agreement in ALL {} terminal schedules ({} statements explored)",
                s.terminals, s.steps
            ),
            Err(e) => println!("  Q = 8, {label}: VIOLATION {e}"),
        }
    }
    // Tightness at Q = 1.
    let k = mk(1, &[(1, 1), (2, 1)]);
    let mut bad = 0u32;
    let mut total = 0u32;
    explore(&k, ExploreBounds::default(), |k| {
        total += 1;
        let a = k.output(ProcessId(0)).unwrap();
        let b = k.output(ProcessId(1)).unwrap();
        if a != b {
            bad += 1;
        }
        Verdict::KeepGoing
    });
    println!("  Q = 1, 2 procs: {bad} of {total} schedules DISAGREE — the Q ≥ 8 hypothesis is tight\n");
}

fn thm1(jobs: usize) -> Vec<Json> {
    println!("── Theorem 1: Fig. 3 consensus is constant-time (reads/writes only) ──");
    println!("  N processes on one processor, Q = 8, fair round-robin ({jobs} jobs):");
    let cells = [1u32, 2, 4, 8, 16, 32];
    let results = run_cells(&cells, jobs, |_, &n| {
        let mut s = Scenario::new(UniConsensusMem::default(), SystemSpec::hybrid(MIN_QUANTUM))
            .step_budget(10_000_000);
        for i in 0..n {
            s.add_process(
                ProcessorId(0),
                Priority(1 + i % 3),
                Box::new(decide_machine(u64::from(i))),
            );
        }
        s.run_fair()
    });
    let mut lines = Vec::new();
    for (&n, r) in cells.iter().zip(&results) {
        let max_steps = r.max_own_steps();
        println!("    N = {n:>2}: max own-statements per decide = {max_steps} (constant = 8)");
        lines.push(Json::obj([
            ("kind", Json::from("thm1")),
            ("cell", Json::obj([("n", Json::from(n))])),
            ("steps", Json::from(r.steps)),
            ("wall_ms", Json::from(wall_ms(r.wall))),
            ("max_own_steps", Json::from(max_steps)),
            ("agreed", Json::from(r.agreed_output().is_some())),
        ]));
    }
    println!();
    lines
}

fn thm2() {
    println!("── Theorem 2: Fig. 5 C&S is O(V) time ──");
    println!("  stale heads at V levels; measured: statements for one C&S:");
    for v in 1..=8u32 {
        let n = 2;
        let mut s = Scenario::new(CasMem::new(v, &[v, v], 100), SystemSpec::hybrid(4096));
        s.add_process(
            ProcessorId(0),
            Priority(v),
            Box::new(cas_machine(
                0,
                v,
                n,
                v,
                vec![
                    CasOp::Cas { old: 100, new: 1 },
                    CasOp::Cas { old: 1, new: 2 },
                    CasOp::Cas { old: 2, new: 3 },
                ],
            )),
        );
        let p1 = s.add_held_process(
            ProcessorId(0),
            Priority(v),
            Box::new(cas_machine(1, v, n, v, vec![CasOp::Cas { old: 3, new: 4 }])),
        );
        // Mid-run choreography (release after the stale heads pile up), so
        // drive the kernel directly.
        let mut k = s.into_kernel();
        let mut d = RoundRobin::new();
        k.run(&mut d, 1_000_000);
        k.release(p1);
        k.run(&mut d, 1_000_000);
        println!("    V = {v}: {} statements", k.stats(p1).own_steps);
    }
    println!();
}

fn fig8() {
    println!("── Fig. 8: consensus-level / port layout ──");
    print!("{}", PortLayout::new(3, 4, 2));
    println!();
}

fn thm4(jobs: usize) -> Vec<Json> {
    println!("── Theorem 4: Fig. 7 is polynomial — worst own-steps & space vs M, P ({jobs} jobs) ──");
    let cells = cross(&[1u32, 2, 3], &[1u32, 2, 3]); // (P, M); C = P (weakest objects)
    let results = run_cells(&cells, jobs, |_, &(p, m)| {
        let s = fig7_scenario(p, p, m, 1, 64, LocalMode::Modeled).step_budget(100_000_000);
        s.run_fair()
    });
    let mut lines = Vec::new();
    for (&(p, m), r) in cells.iter().zip(&results) {
        let c = p;
        let l = r.mem().layout.l;
        let n = r.outputs.len() as u32;
        let max_steps = r.max_own_steps();
        println!(
            "    P = {p}, C = {c}, M = {m}: L = {l:>3} levels, N = {n}, max own-steps = {max_steps}"
        );
        lines.push(Json::obj([
            ("kind", Json::from("thm4")),
            ("cell", Json::obj([
                ("p", Json::from(p)),
                ("c", Json::from(c)),
                ("m", Json::from(m)),
            ])),
            ("steps", Json::from(r.steps)),
            ("wall_ms", Json::from(wall_ms(r.wall))),
            ("levels", Json::from(l)),
            ("n", Json::from(n)),
            ("max_own_steps", Json::from(max_steps)),
        ]));
    }
    println!();
    lines
}

fn failures(jobs: usize) -> Vec<Json> {
    const QS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
    const SEEDS: u64 = 100;
    println!("── Lemmas 2/3: access failures vs quantum (P=2, C=2, M=3, V=1) ──");
    println!("  adversary: holder-rotating + random, {SEEDS} seeds per Q ({jobs} jobs)");
    println!("    Q    total-AF  worst-run  lemma2  lemma3-bound  deciding-level");
    let seeds: Vec<u64> = (0..SEEDS).collect();
    let cells = cross(&QS, &seeds);
    let per = run_cells(&cells, jobs, |_, &(q, seed)| {
        let s = fig7_scenario(2, 2, 3, 1, q, LocalMode::Modeled);
        let r = s.run(&mut *adversary_for_seed(seed));
        let sm = summarize(r.mem());
        (
            sm.same + sm.diff,
            lemma2_holds(r.mem()),
            lemma3_bound_holds(r.mem()),
            !sm.clean_levels.is_empty(),
            r.steps,
            r.wall,
        )
    });
    let mut lines = Vec::new();
    for (qi, &q) in QS.iter().enumerate() {
        let runs = &per[qi * SEEDS as usize..(qi + 1) * SEEDS as usize];
        let total: u32 = runs.iter().map(|r| r.0).sum();
        let worst: u32 = runs.iter().map(|r| r.0).max().unwrap_or(0);
        let l2 = runs.iter().all(|r| r.1);
        let l3 = runs.iter().all(|r| r.2);
        let dec = runs.iter().all(|r| r.3);
        let steps: u64 = runs.iter().map(|r| r.4).sum();
        let wall: Duration = runs.iter().map(|r| r.5).sum();
        println!("    {q:>3}  {total:>8}  {worst:>9}  {l2:>6}  {l3:>12}  {dec:>14}");
        lines.push(Json::obj([
            ("kind", Json::from("failures")),
            ("cell", Json::obj([("q", Json::from(q)), ("seeds", Json::from(SEEDS))])),
            ("steps", Json::from(steps)),
            ("wall_ms", Json::from(wall_ms(wall))),
            ("total_af", Json::from(total)),
            ("worst_af", Json::from(worst)),
            ("lemma2", Json::from(l2)),
            ("lemma3_bound", Json::from(l3)),
            ("deciding_level", Json::from(dec)),
        ]));
    }
    println!();
    lines
}

fn thm3() {
    println!("── Theorem 3 (Figs. 6/10): impossibility witnesses at Q = 2P − C ──");
    for p in 2..=4u32 {
        for c in p..2 * p {
            let f = fig6::construct(p, c);
            println!(
                "    P = {p}, C = {c}, Q = {}: decided x = {}, y = {}; p_x returned {} in BOTH → contradiction = {}",
                f.q,
                f.x_branch.decided,
                f.y_branch.decided,
                f.x_branch.px_returned,
                f.contradiction()
            );
        }
    }
    println!();
    println!("{}", fig6::construct(2, 2).narrative());
}

fn valency() {
    println!("── Fig. 10: bivalent chain depth (Fig. 3 consensus, 2 procs) ──");
    for q in [1u32, 2, 4, 8] {
        let k = Scenario::new(
            UniConsensusMem::default(),
            SystemSpec::hybrid(q).with_adversarial_alignment(),
        )
        .process(ProcessorId(0), Priority(1), Box::new(decide_machine(1)))
        .process(ProcessorId(0), Priority(1), Box::new(decide_machine(2)))
        .into_kernel();
        let d = bivalent_chain_depth(&k, 16, ExploreBounds::default());
        println!("    Q = {q}: adversary sustains bivalence for {d} statements (of 16 total)");
    }
    println!();
}

/// The Q axis of the Table 1 grid: every quantum probed at every (P, C).
/// The measured thresholds all sit well inside `1..=8`; 12 and 16 confirm
/// stability above the knee.
const TABLE1_QS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 12, 16];
const TABLE1_SEEDS: u64 = 60;

/// One probe of the Table 1 grid: does Fig. 7 at (p, c, q) survive all
/// adversary seeds? Early-exits on the first failing seed.
struct Probe {
    q: u32,
    ok: bool,
    seeds_run: u64,
    fail_seed: Option<u64>,
    steps: u64,
    wall: Duration,
}

fn probe_cell(p: u32, c: u32, q: u32) -> Probe {
    let m = 3;
    let scenario = fig7_scenario(p, c, m, 1, q, LocalMode::Modeled);
    let mut steps = 0u64;
    let mut wall = Duration::ZERO;
    for seed in 0..TABLE1_SEEDS {
        let r = scenario.run(&mut *adversary_for_seed(seed));
        steps += r.steps;
        wall += r.wall;
        let ok = r.agreed_output().is_some()
            && lemma3_bound_holds(r.mem())
            && !summarize(r.mem()).clean_levels.is_empty();
        if !ok {
            return Probe { q, ok: false, seeds_run: seed + 1, fail_seed: Some(seed), steps, wall };
        }
    }
    Probe { q, ok: true, seeds_run: TABLE1_SEEDS, fail_seed: None, steps, wall }
}

/// The headline: Table 1, swept in parallel over the (P, C) cells; each
/// cell probes the full Q axis.
fn table1(jobs: usize) -> Vec<Json> {
    println!("── Table 1: conditions for universality of a C-consensus object on P processors ──");
    println!("  paper upper bound: Q ≥ c(2P+1−C)·Tmax for P ≤ C ≤ 2P; Q ≥ c·Tmax for C ≥ 2P");
    println!("  paper lower bound: consensus impossible if Q ≤ max(1, 2P−C)");
    println!("  grid: Q ∈ {TABLE1_QS:?}, {TABLE1_SEEDS} adversary seeds per probe ({jobs} jobs)");
    println!();
    println!("   P  C | paper-upper-shape  measured-min-Q | paper-lower  Fig6-witness");
    println!("  ------+-----------------------------------+---------------------------");
    let mut pcs = Vec::new();
    for p in 1..=3u32 {
        for c in p..=2 * p {
            pcs.push((p, c));
        }
    }
    let probed: Vec<Vec<Probe>> = run_cells(&pcs, jobs, |_, &(p, c)| {
        TABLE1_QS.iter().map(|&q| probe_cell(p, c, q)).collect()
    });
    let mut lines = Vec::new();
    for (&(p, c), probes) in pcs.iter().zip(&probed) {
        let min_q = probes.iter().find(|pr| pr.ok).map(|pr| pr.q);
        let measured = min_q.map_or_else(|| format!(">{}", TABLE1_QS[9]), |q| q.to_string());
        let shape = if c >= 2 * p { "c".to_string() } else { format!("c·{}", 2 * p + 1 - c) };
        let lower = 1u32.max(2u32.saturating_mul(p).saturating_sub(c));
        let witness = if p >= 2 && c < 2 * p {
            if fig6::construct(p, c).contradiction() {
                "contradiction ✓"
            } else {
                "—"
            }
        } else if p == 1 {
            "n/a (P = 1)"
        } else {
            "n/a (C = 2P)"
        };
        println!("   {p}  {c} | {shape:>17}  {measured:>14} | {lower:>11}  {witness}");
        let mut cell_steps = 0u64;
        let mut cell_wall = Duration::ZERO;
        for pr in probes {
            cell_steps += pr.steps;
            cell_wall += pr.wall;
            let mut obj = vec![
                ("kind", Json::from("table1")),
                ("cell", Json::obj([
                    ("p", Json::from(p)),
                    ("c", Json::from(c)),
                    ("q", Json::from(pr.q)),
                ])),
                ("steps", Json::from(pr.steps)),
                ("wall_ms", Json::from(wall_ms(pr.wall))),
                ("verdict", Json::from(if pr.ok { "ok" } else { "violation" })),
                ("seeds_run", Json::from(pr.seeds_run)),
            ];
            if let Some(seed) = pr.fail_seed {
                obj.push(("fail_seed", Json::from(seed)));
            }
            lines.push(Json::obj(obj));
        }
        lines.push(Json::obj([
            ("kind", Json::from("table1_summary")),
            ("cell", Json::obj([("p", Json::from(p)), ("c", Json::from(c))])),
            ("steps", Json::from(cell_steps)),
            ("wall_ms", Json::from(wall_ms(cell_wall))),
            ("measured_min_q", min_q.map_or(Json::Null, Json::from)),
            ("paper_lower", Json::from(lower)),
            ("paper_upper_shape", Json::from(shape.as_str())),
        ]));
    }
    println!();
    println!("  measured-min-Q: smallest probed Q at which {TABLE1_SEEDS} adversary runs (M = 3, V = 1)");
    println!("  all (a) agree, (b) satisfy the Lemma 3 access-failure bound, and");
    println!("  (c) retain a deciding level. The series tracks the paper's");
    println!("  c(2P+1−C) shape: it shrinks as C grows toward 2P.");
    println!();
    lines
}

fn obs() {
    println!("── Observability: per-run counters and deterministic replay ──");

    // 1. Scheduler counters on Fig. 3 consensus: with aligned windows and
    //    Q ≥ 8 every decide fits inside one quantum window, so
    //    same-priority preemption vanishes (the Theorem 1 hypothesis).
    println!("  Fig. 3 consensus, 4 same-priority processes, seeded-random schedule:");
    for q in [4u32, MIN_QUANTUM] {
        let mut s = Scenario::new(UniConsensusMem::default(), SystemSpec::hybrid(q))
            .step_budget(1_000_000);
        for v in 1..=4u64 {
            s.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(v)));
        }
        let r = s.run_seeded(7);
        let c = &r.counters;
        println!(
            "    Q = {q}: same-prio preemptions = {}, mid-invocation expiries = {}, statements/op = {:.1}",
            c.same_prio_preemptions,
            c.quantum_expiries_mid_invocation,
            c.statements_per_op().unwrap_or(f64::NAN),
        );
    }

    // 2. Full counter report plus the algorithm-level helping counters on a
    //    universal-construction counter under an adversarial schedule.
    let n = 4u32;
    let per = 4u32;
    let mut scen = Scenario::new(
        UniversalMem::<CounterSpec>::new(n, 4 * (n * per) as usize + 4),
        SystemSpec::hybrid(8).with_adversarial_alignment().with_history(),
    )
    .with_obs()
    .step_budget(1_000_000);
    for pid in 0..n {
        scen.add_process(
            ProcessorId(0),
            Priority(1 + pid % 2),
            Box::new(universal_machine(CounterSpec, pid, n, vec![1; per as usize])),
        );
    }
    let mut r = scen.run_seeded(42);
    println!("\n  universal counter, N = {n}, {per} increments each, Q = 8, seed 42:");
    println!("{}", indent(&r.counters.to_string(), "    "));
    println!("  algorithm counters (universal construction, Fig. 7 helping):");
    println!("{}", indent(&r.mem().counters.to_string(), "    "));

    // 3. The same run captured and replayed from its decision script — a
    //    fresh kernel from the same scenario is the replay precondition.
    let trace = r.take_trace().expect("obs attached");
    let mut k = scen.kernel();
    let steps = k.run(&mut trace.scripted(), scen.budget());
    let replay = RunResult::from_kernel(k, steps, Duration::ZERO);
    println!(
        "  capture → replay: {} recorded events; history identical = {}, memory identical = {}",
        trace.events.len(),
        replay.history() == r.history(),
        replay.mem() == r.mem(),
    );
    println!();
}

/// Indents every line of a multi-line `Display` block for report nesting.
fn indent(s: &str, pad: &str) -> String {
    s.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
}

/// Runs the exhaustive-exploration grid (`lowerbound::explore_grid`) and
/// prints the scaling summary: per-mode wall time plus each workload's
/// visited-state reduction factor (unreduced ÷ reduced). Returns the
/// artifact rows and whether verification held — every *reduced* row must
/// be verified (their budgets are sized to complete), and no row may
/// report a property violation (unverified without truncation). Unreduced
/// rows truncated at their step budget are expected on the largest
/// workload: that is the cell exhaustive verification newly reaches
/// through reduction.
fn explore_grid_report(jobs: usize, smoke: bool) -> (Vec<Json>, bool) {
    println!(
        "── Exhaustive exploration at scale ({} grid, {jobs} jobs) ──",
        if smoke { "smoke" } else { "full" }
    );
    let rows = lowerbound::explore_grid::run_grid(jobs, smoke);
    let mut ok = true;
    for row in &rows {
        let s = |k: &str| row.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let n = |k: &str| row.get(k).and_then(Json::as_u64).unwrap_or(0);
        let kind = s("kind");
        let workload = row
            .get("cell")
            .and_then(|c| c.get("workload"))
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let verified = row.get("verified") == Some(&Json::Bool(true));
        let truncation = s("truncation");
        let wall = row.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "    {workload:>14} {kind:<19} {:>12} steps {:>10} visited  {:>9.1} ms  [{}]",
            n("steps"),
            n("visited"),
            wall,
            if verified { "verified" } else { &truncation }
        );
        let reduced_row = kind.starts_with("explore_reduced");
        let violation = truncation == "none" && !verified;
        if (reduced_row && !verified) || violation {
            eprintln!("    ^^ FAILED: {row}");
            ok = false;
        }
    }
    for cfg in lowerbound::explore_grid::grid(smoke) {
        let row = |kind: &str| {
            rows.iter().find(|r| {
                r.get("kind").and_then(Json::as_str) == Some(kind)
                    && r.get("cell").and_then(|c| c.get("workload")).and_then(Json::as_str)
                        == Some(cfg.name)
            })
        };
        let n = |kind: &str, key: &str| row(kind).and_then(|r| r.get(key)).and_then(Json::as_u64);
        // An untruncated parallel run reproduces its serial twin's counts
        // exactly (truncated runs depend on thread timing).
        for (serial, par) in
            [("explore_serial", "explore_parallel"), ("explore_reduced", "explore_reduced_par")]
        {
            let untruncated =
                row(par).and_then(|r| r.get("truncation")).and_then(Json::as_str) == Some("none");
            for key in ["steps", "terminals", "deduped", "por_pruned", "visited"] {
                if untruncated && n(serial, key) != n(par, key) {
                    eprintln!(
                        "    ^^ FAILED: {} {par} {key} {:?} != {serial} {:?}",
                        cfg.name,
                        n(par, key),
                        n(serial, key)
                    );
                    ok = false;
                }
            }
        }
        // Per-workload state-space reduction factor.
        let (u, r) = (
            n("explore_serial", "visited").unwrap_or(0),
            n("explore_reduced", "visited").unwrap_or(0),
        );
        if r > 0 {
            println!(
                "    {:>14} reduction: {u} → {r} visited states ({:.1}×)",
                cfg.name,
                u as f64 / r as f64
            );
        }
    }
    println!();
    (rows, ok)
}

fn poly_vs_exp() {
    println!("── Polynomial (Fig. 7) vs exponential (priority-only baseline) ──");
    println!("    N  |  Fig. 7 steps  objects |  baseline steps  objects");
    for n in [2u32, 4, 6, 8, 10] {
        // Fig. 7 on one processor (C = 1, K = 0) with M = N processes.
        let r7 = fig7_scenario(1, 1, n, 1, 64, LocalMode::Modeled)
            .step_budget(100_000_000)
            .run_fair();
        let s7 = r7.max_own_steps();
        let o7 = r7.mem().layout.l; // one consensus object per level

        let mut se = Scenario::new(
            hybrid_wf::baseline::exponential::ExpMem::new(n),
            SystemSpec::hybrid(4),
        )
        .step_budget(500_000_000);
        for pid in 0..n {
            se.add_process(
                ProcessorId(0),
                Priority(pid + 1),
                Box::new(hybrid_wf::baseline::exponential::decide_machine(
                    pid,
                    u64::from(pid) + 1,
                )),
            );
        }
        let re = se.run_fair();
        let steps_e = re.max_own_steps();
        let oe = re.mem().objects();
        println!("   {n:>2}  |  {s7:>12}  {o7:>7} |  {steps_e:>14}  {oe:>7}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::RunArgs;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_experiment_flags_are_rejected() {
        // A deleted experiment and a typo both fail instead of running
        // nothing; option values and known selectors pass through.
        for bad in ["--perf", "--perff"] {
            let a = args(&["--thm1", bad, "--jobs", "2"]);
            assert_eq!(RunArgs::mode_flags(&a), Err(&bad.to_string()));
        }
        let a = args(&["--thm1", "--jobs", "2", "--smoke", "--fuzz-dir", "out", "--native"]);
        assert_eq!(RunArgs::mode_flags(&a).unwrap(), ["--thm1", "--native"]);
        assert_eq!(RunArgs::mode_flags(&[]).unwrap(), Vec::<&String>::new());
    }
}
