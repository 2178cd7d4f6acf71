//! Experiment harness: regenerates every table and figure of Anderson &
//! Moir (PODC 1999) from the implementations in this workspace.
//!
//! Every experiment is one entry of the [`EXPERIMENTS`] table, which runs
//! in this order:
//!
//! * `--lemma1`    — Lemma 1: exhaustive schedule enumeration for Fig. 3
//! * `--thm1`      — Theorem 1: Fig. 3 constant time + Q ≥ 8 tightness
//! * `--thm2`      — Theorem 2: Fig. 5 O(V) time
//! * `--fig8`      — Fig. 8: the level/port layout
//! * `--thm4`      — Theorem 4: Fig. 7 polynomial time/space
//! * `--failures`  — Lemmas 2/3: access-failure pressure vs Q
//! * `--thm3`      — Theorem 3: Fig. 6 impossibility witnesses
//! * `--valency`   — Fig. 10: bivalent chain depths
//! * `--table1`    — Table 1: universality thresholds across (P, C)
//! * `--poly-vs-exp` — polynomial Fig. 7 vs exponential baseline
//! * `--obs`       — observability: per-run counters + capture/replay demo
//! * `--fuzz`      — adversarial schedule fuzz over every algorithm family;
//!   shrunk counterexamples go to `tests/golden/fuzz/`
//! * `--profile`   — schedule profiler sweep over the central families, plus
//!   one `profile_<family>.perfetto.json` timeline each
//! * `--native`    — the backend-generic algorithms on real OS threads,
//!   cross-validated by the simulator oracles
//! * `--service`   — long-lived sharded universal-object services under
//!   thousands of multiplexed clients
//! * `--crash`     — crash/recover lifecycle plans under noisy schedules,
//!   scored by recovery-safe oracles, plus a churn cell
//! * `--explore`   — exhaustive Lemma 1 verification in every explorer mode
//!
//! No selector, or `--all`, runs every entry; flags select a subset, which
//! still runs in table order. Any other `--` flag that is not `--jobs` is
//! rejected: the harness prints the known experiments and exits 2.
//!
//! Each entry names the artifact its rows go to (`thm1`, `thm4` and
//! `failures` share `BENCH_sweeps.json`), plus the keys those rows carry
//! beyond `report::CELL_SCHEMA`; the six grids (`--fuzz` to `--explore`)
//! also name their gate, which lives next to their row builder in
//! `lowerbound`. Grid rows are printed by one generic renderer. After every
//! selected entry has run, each artifact is written once and the process
//! exits 1 if any gate failed. Canonical artifacts carry only
//! deterministic payloads; wall times go to a gitignored `*.timing.json`
//! sidecar, so regeneration never dirties a committed artifact.
//!
//! Sweep-shaped experiments run over the `sched_sim::sweep` worker pool;
//! `--jobs N` sets the worker count (default: available parallelism).
//! Results are **bit-identical for every jobs value** — only wall time
//! changes — except that the explore rows record their worker count: the
//! committed `BENCH_explore.json` is the `--jobs 4` run.
//!
//! `--validate FILE` checks an artifact (or its `.timing.json` sidecar)
//! against the keys its table entry names and exits; a file name that
//! names no table artifact exits 2. `--profile-trace FILE` profiles a
//! committed `.trace` artifact offline and writes its Perfetto timeline
//! into the current directory.

use std::path::Path;
use std::time::Duration;

use hybrid_wf::multi::consensus::LocalMode;
use hybrid_wf::multi::failures::{lemma2_holds, lemma3_bound_holds, summarize};
use hybrid_wf::multi::ports::PortLayout;
use hybrid_wf::uni::cas::{op_machine as cas_machine, CasMem, CasOp};
use hybrid_wf::uni::consensus::{decide_machine, UniConsensusMem, MIN_QUANTUM};
use hybrid_wf::universal::{op_machine as universal_machine, CounterSpec, UniversalMem};
use lowerbound::adversary::{
    adversary_for_seed, fig7_scenario, probe, Probe, TABLE1_QS, TABLE1_SEEDS,
};
use lowerbound::valency::bivalent_chain_depth;
use lowerbound::{crash, explore_grid, fig6, fuzz, native, profile, service};
use sched_sim::decision::RoundRobin;
use sched_sim::explore::{check_all_schedules, explore, ExploreBounds, Verdict};
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::SystemSpec;
use sched_sim::obs::ObsEvent;
use sched_sim::report::{
    split_timing, validate_cells, wall_ms, Json, Kind, CELL_SCHEMA, TIMING_SCHEMA,
};
use sched_sim::scenario::Scenario;
use sched_sim::sweep::{cross, default_jobs, run_cells};

/// Required keys of an artifact row.
type Keys = &'static [(&'static str, Kind)];

/// What one experiment adds to its artifact: the canonical rows, and rows
/// that go whole into the timing sidecar (payloads the host scheduler
/// decides, which can never be part of the committed artifact).
type Rows = (Vec<Json>, Vec<Json>);

/// The artifact an experiment adds rows to.
#[derive(Clone, Copy)]
struct Artifact {
    /// File name, written into the current directory.
    name: &'static str,
    /// The keys every row carries beyond `CELL_SCHEMA`.
    keys: Keys,
    /// The grid's gate, judging all rows and (to mark failures) each row on
    /// its own. Gated grids are printed by [`print_grid`]; the sweeps
    /// (`None`) print their own tables.
    gate: Option<fn(&[Json]) -> bool>,
}

/// One experiment: its selector flag, its run function (given `--jobs`),
/// and the artifact its rows go to (`None` for narrative sections).
struct Experiment {
    flag: &'static str,
    run: fn(usize) -> Rows,
    artifact: Option<Artifact>,
}

const SWEEPS: Artifact = Artifact { name: "BENCH_sweeps.json", keys: &[], gate: None };

/// The artifact of a gated grid.
const fn grid(name: &'static str, keys: Keys, gate: fn(&[Json]) -> bool) -> Option<Artifact> {
    Some(Artifact { name, keys, gate: Some(gate) })
}

/// Every experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    Experiment { flag: "--lemma1", run: |_| narrate(lemma1), artifact: None },
    Experiment { flag: "--thm1", run: |jobs| (thm1(jobs), vec![]), artifact: Some(SWEEPS) },
    Experiment { flag: "--thm2", run: |_| narrate(thm2), artifact: None },
    Experiment { flag: "--fig8", run: |_| narrate(fig8), artifact: None },
    Experiment { flag: "--thm4", run: |jobs| (thm4(jobs), vec![]), artifact: Some(SWEEPS) },
    Experiment { flag: "--failures", run: |jobs| (failures(jobs), vec![]), artifact: Some(SWEEPS) },
    Experiment { flag: "--thm3", run: |_| narrate(thm3), artifact: None },
    Experiment { flag: "--valency", run: |_| narrate(valency), artifact: None },
    Experiment {
        flag: "--table1",
        run: |jobs| (table1(jobs), vec![]),
        artifact: Some(Artifact { name: "BENCH_table1.json", keys: &[], gate: None }),
    },
    Experiment { flag: "--poly-vs-exp", run: |_| narrate(poly_vs_exp), artifact: None },
    Experiment { flag: "--obs", run: |_| narrate(obs), artifact: None },
    Experiment {
        flag: "--fuzz",
        run: fuzz_grid,
        artifact: grid("BENCH_fuzz.json", fuzz::KEYS, fuzz::grid_ok),
    },
    Experiment {
        flag: "--profile",
        run: profile_grid,
        // Profiles are reported, never gated.
        artifact: grid("BENCH_profile.json", profile::KEYS, |_| true),
    },
    Experiment {
        flag: "--native",
        run: native_grid,
        artifact: grid("BENCH_native.json", native::KEYS, native::grid_ok),
    },
    Experiment {
        flag: "--service",
        run: |jobs| (service::run_grid(jobs, false), vec![]),
        artifact: grid("BENCH_service.json", service::KEYS, service::grid_ok),
    },
    Experiment {
        flag: "--crash",
        run: |jobs| (crash::run_grid(jobs, false), vec![]),
        artifact: grid("BENCH_crash.json", crash::KEYS, crash::grid_ok),
    },
    Experiment {
        flag: "--explore",
        run: |jobs| (explore_grid::run_grid(jobs, false), vec![]),
        artifact: grid("BENCH_explore.json", explore_grid::KEYS, explore_grid::grid_ok),
    },
];

/// Runs a narrative section, which prints its text and adds no rows.
fn narrate(section: fn()) -> Rows {
    section();
    Rows::default()
}

/// The run options: one source of truth for which `--flags` carry options
/// (and so must not be mistaken for experiment selectors).
struct RunArgs;

impl RunArgs {
    /// The flags that consume the next argument; every other `--` argument
    /// selects an experiment.
    const OPTS: [&'static str; 1] = ["--jobs"];

    /// The experiment selectors: `--all` plus every table flag.
    fn experiments() -> impl Iterator<Item = &'static str> {
        std::iter::once("--all").chain(EXPERIMENTS.iter().map(|e| e.flag))
    }

    /// Sweep worker count (`--jobs N`; default: available parallelism).
    fn jobs(args: &[String]) -> usize {
        match args.iter().position(|a| a == "--jobs") {
            Some(i) => args.get(i + 1).and_then(|n| n.parse().ok()).unwrap_or_else(|| {
                eprintln!("--jobs needs an integer");
                std::process::exit(2);
            }),
            None => default_jobs(),
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
        match flags.iter().find(|a| !Self::experiments().any(|e| e == a.as_str())) {
            Some(unknown) => Err(unknown),
            None => Ok(flags),
        }
    }
}

/// The names of every table artifact, in table order.
fn artifact_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    for a in EXPERIMENTS.iter().filter_map(|e| e.artifact) {
        if !names.contains(&a.name) {
            names.push(a.name);
        }
    }
    names
}

/// The required keys of the artifact at `path`, looked up in the table by
/// the path's **final component** only (so a directory named like an
/// artifact cannot misroute the choice): `X.json` for a table artifact
/// `X.json` gets `CELL_SCHEMA` plus its entry's keys, and its sidecar
/// `X.timing.json` gets `TIMING_SCHEMA`. Any other name is `None`.
fn schema_for(path: &Path) -> Option<Vec<(&'static str, Kind)>> {
    let name = path.file_name()?.to_str()?;
    let artifact = |name: &str| {
        EXPERIMENTS.iter().filter_map(|e| e.artifact).find(|a| a.name == name)
    };
    match name.strip_suffix(".timing.json") {
        Some(stem) => artifact(&format!("{stem}.json")).map(|_| TIMING_SCHEMA.to_vec()),
        None => artifact(name).map(|a| [CELL_SCHEMA, a.keys].concat()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Standalone artifact validation: `--validate FILE`.
    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--validate needs a file path");
            std::process::exit(2);
        });
        let schema = schema_for(Path::new(path)).unwrap_or_else(|| {
            eprintln!("{path}: unknown artifact; known: {}", artifact_names().join(" "));
            std::process::exit(2);
        });
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| validate_cells(&text, &schema))
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
    // derived schedule metrics, and writes a Perfetto timeline into the
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
        match profile::profile_trace_text(&text) {
            Ok((profile, perfetto)) => {
                let stem = Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
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

    let jobs = RunArgs::jobs(&args);
    let flags = RunArgs::mode_flags(&args).unwrap_or_else(|unknown| {
        let known: Vec<&str> = RunArgs::experiments().collect();
        eprintln!("unknown experiment {unknown}; known: {}", known.join(" "));
        std::process::exit(2);
    });
    let all = flags.is_empty() || flags.iter().any(|a| *a == "--all");

    println!("hybrid-wf experiment harness — Anderson & Moir, PODC 1999");
    println!("===========================================================\n");
    let mut artifacts: Vec<(Artifact, Rows)> = Vec::new();
    let mut ok = true;
    for e in EXPERIMENTS.iter().filter(|e| all || flags.iter().any(|f| *f == e.flag)) {
        if let Some(Artifact { name, gate: Some(_), .. }) = e.artifact {
            println!("── {} grid → {name} ({jobs} jobs) ──", &e.flag[2..]);
        }
        let (rows, sidecar) = (e.run)(jobs);
        let Some(artifact) = e.artifact else { continue };
        if let Some(gate) = artifact.gate {
            ok &= print_grid(&[rows.as_slice(), &sidecar].concat(), artifact.keys, gate);
        }
        match artifacts.iter_mut().find(|(a, _)| a.name == artifact.name) {
            Some((_, acc)) => {
                acc.0.extend(rows);
                acc.1.extend(sidecar);
            }
            None => artifacts.push((artifact, (rows, sidecar))),
        }
    }
    for (artifact, (rows, sidecar)) in &artifacts {
        write_artifact(artifact, rows, sidecar);
    }
    if !ok {
        std::process::exit(1);
    }
}

/// The one grid renderer: prints each row's `kind`, its `cell` values,
/// `steps` and its scalar `keys`, and `^^ FAILED: <row>` under every row
/// the gate rejects on its own. Returns whether the gate passes the whole
/// grid (which may also compare rows with each other).
fn print_grid(rows: &[Json], keys: Keys, gate: fn(&[Json]) -> bool) -> bool {
    let scalar = |v: &Json| match v {
        Json::Str(s) => Some(s.clone()),
        Json::Obj(_) | Json::Arr(_) => None,
        v => Some(v.to_string()),
    };
    for row in rows {
        let cell: Vec<String> = match row.get("cell") {
            Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| scalar(v)).collect(),
            _ => Vec::new(),
        };
        let mut line = format!(
            "    {:<20} {:<36}",
            row.get("kind").and_then(Json::as_str).unwrap_or("?"),
            cell.join(" ")
        );
        for key in std::iter::once("steps").chain(keys.iter().map(|&(k, _)| k)) {
            if let Some(v) = row.get(key).and_then(scalar) {
                line += &format!("  {key}={v}");
            }
        }
        println!("{line}");
        if !gate(std::slice::from_ref(row)) {
            eprintln!("    ^^ FAILED: {row}");
        }
    }
    let ok = gate(rows);
    if !ok {
        println!("  GATE FAILED");
    }
    println!();
    ok
}

/// Writes a line-oriented JSON artifact (one row per line), self-checking
/// it against its schema first.
///
/// Wall times are split out of every row (`report::split_timing`) into a
/// `<stem>.timing.json` sidecar, so the canonical artifact is bit-identical
/// across regenerations and machines; the sidecar is gitignored.
/// `sidecar_rows` go whole into the sidecar.
fn write_artifact(artifact: &Artifact, lines: &[Json], sidecar_rows: &[Json]) {
    let path = artifact.name;
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
    let schema = [CELL_SCHEMA, artifact.keys].concat();
    let cells = validate_cells(&out, &schema).expect("artifact failed self-validation");
    std::fs::write(path, out).expect("write artifact");
    let sidecar = path.replace(".json", ".timing.json");
    validate_cells(&timing, TIMING_SCHEMA).expect("timing sidecar failed self-validation");
    std::fs::write(&sidecar, timing).expect("write timing sidecar");
    let whole = match sidecar_rows.len() {
        0 => String::new(),
        n => format!(" + {n} whole rows"),
    };
    println!("  [artifact] wrote {path} ({cells} cells; {timed} wall times{whole} → {sidecar})\n");
}

/// `--fuzz` (see `lowerbound::fuzz::run_grid`): shrunk counterexample
/// traces land in `tests/golden/fuzz/` under the current directory.
fn fuzz_grid(jobs: usize) -> Rows {
    let (rows, traces) = fuzz::run_grid(jobs, Path::new("tests/golden/fuzz"));
    for path in traces {
        println!("  [trace] wrote {}", path.display());
    }
    (rows, vec![])
}

/// `--profile` (see `lowerbound::profile`): the profiler sweep, plus one
/// Perfetto timeline per family in the current directory.
fn profile_grid(jobs: usize) -> Rows {
    let rows = profile::report_lines(&profile::run_grid(jobs, false));
    for family in profile::FAMILIES {
        let path = format!("profile_{}.perfetto.json", family.name());
        std::fs::write(&path, profile::family_timeline(family)).expect("write perfetto timeline");
        println!("  [timeline] wrote {path} (open in ui.perfetto.dev)");
    }
    (rows, vec![])
}

/// `--native` (see `lowerbound::native`). It ignores `--jobs`: each cell
/// spawns one OS thread per process, and nesting that under a worker pool
/// would oversubscribe the machine. Lockstep rows are pure functions of
/// their seeds; free rows are decided by the host scheduler, so they go
/// whole to the sidecar (and are still gated).
fn native_grid(_jobs: usize) -> Rows {
    let (lockstep, free): (Vec<_>, Vec<_>) =
        native::run_grid().into_iter().partition(|c| c.pacing == "lockstep");
    (native::report_lines(&lockstep), native::report_lines(&free))
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
        let k = explore_grid::fig3_kernel(q, &[1, 2]);
        let d = bivalent_chain_depth(&k, 16, ExploreBounds::default());
        println!("    Q = {q}: adversary sustains bivalence for {d} statements (of 16 total)");
    }
    println!();
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
        TABLE1_QS.iter().map(|&q| probe(p, c, 3, 1, q, TABLE1_SEEDS)).collect()
    });
    let mut lines = Vec::new();
    for (&(p, c), probes) in pcs.iter().zip(&probed) {
        let min_q = probes.iter().find(|pr| pr.ok()).map(|pr| pr.q);
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
                ("verdict", Json::from(if pr.ok() { "ok" } else { "violation" })),
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
        SystemSpec::hybrid(8).with_adversarial_alignment(),
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
    assert!(trace.events.iter().any(|e| matches!(e, ObsEvent::Stmt { .. })), "empty capture");
    let mut k = scen.kernel();
    k.run(&mut trace.scripted(), scen.budget());
    println!(
        "  capture → replay: {} recorded events; history identical = {}, memory identical = {}",
        trace.events.len(),
        k.obs() == Some(&trace),
        &k.mem == r.mem(),
    );
    println!();
}

/// Indents every line of a multi-line `Display` block for report nesting.
fn indent(s: &str, pad: &str) -> String {
    s.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
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
    use super::{artifact_names, schema_for, RunArgs, EXPERIMENTS};
    use sched_sim::report::{validate_cells, CELL_SCHEMA, TIMING_SCHEMA};
    use std::path::Path;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_experiment_flags_are_rejected() {
        // A deleted experiment or option and a typo all fail instead of
        // running nothing; option values and known selectors pass through.
        for bad in ["--perf", "--perff", "--smoke", "--fuzz-dir"] {
            let a = args(&["--thm1", bad, "--jobs", "2"]);
            assert_eq!(RunArgs::mode_flags(&a), Err(&bad.to_string()));
        }
        let a = args(&["--thm1", "--jobs", "2", "--native"]);
        assert_eq!(RunArgs::mode_flags(&a).unwrap(), ["--thm1", "--native"]);
        assert_eq!(RunArgs::mode_flags(&[]).unwrap(), Vec::<&String>::new());
    }

    /// One test over the table: flags and artifact names are unique (an
    /// artifact shared by several entries has one definition), every flag
    /// is a selector, and the committed `BENCH_*.json` files are exactly
    /// the table's artifacts, each valid against its entry's keys.
    #[test]
    fn the_table_covers_every_committed_artifact() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|o| o.flag != e.flag), "duplicate {}", e.flag);
            assert_eq!(RunArgs::mode_flags(&args(&[e.flag])).unwrap(), [e.flag]);
            let Some(a) = e.artifact else { continue };
            for other in EXPERIMENTS[..i].iter().filter_map(|o| o.artifact) {
                if other.name == a.name {
                    assert_eq!(other.keys, a.keys, "{} has two definitions", a.name);
                    assert_eq!(other.gate.is_some(), a.gate.is_some(), "{}", a.name);
                }
            }
        }
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut committed: Vec<String> = std::fs::read_dir(&root)
            .expect("workspace root")
            .map(|d| d.expect("dir entry").file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json") && !n.contains(".timing."))
            .collect();
        committed.sort();
        let mut names = artifact_names();
        names.sort();
        assert_eq!(committed, names, "committed artifacts and table artifacts differ");
        for name in names {
            let text = std::fs::read_to_string(root.join(name)).expect("read artifact");
            let schema = schema_for(Path::new(name)).expect("table artifact has a schema");
            let rows = validate_cells(&text, &schema).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(rows > 0, "{name} is empty");
        }
    }

    #[test]
    fn validate_looks_artifacts_up_by_final_component() {
        let keys = |p: &str| schema_for(Path::new(p));
        let with = |extra: &[(&'static str, sched_sim::report::Kind)]| {
            Some([CELL_SCHEMA, extra].concat())
        };
        // Relative and absolute paths pick the same schema.
        assert_eq!(keys("BENCH_table1.json"), with(&[]));
        assert_eq!(keys("BENCH_native.json"), with(lowerbound::native::KEYS));
        assert_eq!(keys("/tmp/deep/dir/BENCH_native.json"), with(lowerbound::native::KEYS));
        assert_eq!(keys("BENCH_crash.timing.json"), Some(TIMING_SCHEMA.to_vec()));
        // A typo and a sidecar of no artifact are unknown, not validated
        // against a weaker schema.
        assert_eq!(keys("BENCH_nativ.json"), None);
        assert_eq!(keys("BENCH_nativ.timing.json"), None);
        assert_eq!(keys("profile.json"), None);
        // A directory named like an artifact does not route the file
        // inside it; the directory itself resolves by its own name (and
        // reading it then fails).
        assert_eq!(keys("/runs/BENCH_profile.json/BENCH_table1.json"), with(&[]));
        assert_eq!(keys("/runs/BENCH_native.json/out.timing.json"), None);
        assert_eq!(keys("/runs/BENCH_native.json/"), with(lowerbound::native::KEYS));
        // No final component at all.
        assert_eq!(keys("/"), None);
    }

    #[cfg(unix)]
    #[test]
    fn validate_lookup_survives_non_utf8_segments() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        use std::path::PathBuf;
        // A non-UTF-8 *directory* segment does not affect the lookup…
        let mut p = PathBuf::from(OsStr::from_bytes(b"/tmp/\xff\xfe"));
        p.push("BENCH_service.json");
        assert_eq!(schema_for(&p), Some([CELL_SCHEMA, lowerbound::service::KEYS].concat()));
        // …and a non-UTF-8 *file name* is unknown rather than a panic.
        let odd = PathBuf::from(OsStr::from_bytes(b"/tmp/\xffBENCH_service.json"));
        assert_eq!(schema_for(&odd), None);
    }
}
