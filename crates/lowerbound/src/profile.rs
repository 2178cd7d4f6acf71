//! Profile sweeps over the paper's algorithm families, and offline
//! profiling of committed trace artifacts.
//!
//! This is the data layer behind `experiments --profile` and
//! `experiments --profile-trace`: a deterministic grid of (family,
//! decider, seed) cells at each family's *legal* quantum, every cell run
//! with a streaming [`Profile`] attached
//! ([`CaseEngine::run_profiled`](crate::fuzz::CaseEngine::run_profiled)),
//! and per-family merged metrics whose fold is order-independent — so a
//! parallel sweep ([`run_cells`]) publishes byte-identical report lines
//! to a serial one.
//!
//! The profiled families are the ones the paper's central claims are
//! about: Fig. 3 uniprocessor consensus (Theorem 1), Fig. 5 C&S
//! (Theorem 2), the universal construction, and Fig. 7 multiprocessor
//! consensus (Theorem 4). Each is driven both by the hostile
//! preemption-storm decider and by seeded random schedules, at the legal
//! quantum where every run must stay clean.

use std::time::Duration;

use sched_sim::fuzz::hostile;
use sched_sim::obs::Trace;
use sched_sim::prof::{chrome_trace_text, Profile};
use sched_sim::report::{wall_ms, Json, Kind};
use sched_sim::sweep::run_cells;

use crate::fuzz::{engine, Family};

/// The profiled families, in report order (see the module docs).
pub const FAMILIES: [Family; 4] =
    [Family::Fig3, Family::Fig5, Family::Universal, Family::Fig7];

/// The deciders driving profiled runs: the hostile preemption storm and
/// seeded random scheduling.
pub const PROFILE_DECIDERS: [&str; 2] = ["storm", "random"];

/// Seeds per (family, decider) cell.
pub fn n_seeds(smoke: bool) -> u64 {
    if smoke {
        2
    } else {
        4
    }
}

/// One profiled cell of the sweep grid.
#[derive(Clone, Debug)]
pub struct ProfCell {
    /// The algorithm family.
    pub family: Family,
    /// The quantum the cell ran at (the family's legal quantum).
    pub q: u32,
    /// The decider name (see [`PROFILE_DECIDERS`]).
    pub decider: &'static str,
    /// The decider seed.
    pub seed: u64,
    /// Statements executed.
    pub steps: u64,
    /// Wall-clock time of the run (nondeterministic; excluded from the
    /// canonical artifact via `report::split_timing`).
    pub wall: Duration,
    /// Whether every process finished within the step budget.
    pub all_finished: bool,
    /// The streamed schedule profile.
    pub profile: Profile,
}

/// Runs the full profile grid with `jobs` worker threads. Deterministic:
/// the returned cells (profiles included) are identical for any `jobs`.
pub fn run_grid(jobs: usize, smoke: bool) -> Vec<ProfCell> {
    let mut cells: Vec<(Family, &'static str, u64)> = Vec::new();
    for family in FAMILIES {
        for decider in PROFILE_DECIDERS {
            for seed in 0..n_seeds(smoke) {
                cells.push((family, decider, seed));
            }
        }
    }
    run_cells(&cells, jobs, |_, &(family, decider, seed)| {
        let q = family.legal_q();
        let eng = engine(family, q);
        let mut d = hostile(decider, seed, eng.n_procs());
        let (run, profile) = eng.run_profiled(&mut *d);
        ProfCell {
            family,
            q,
            decider,
            seed,
            steps: run.steps,
            wall: run.wall,
            all_finished: run.all_finished,
            profile,
        }
    })
}

/// The keys every `BENCH_profile.json` row carries beyond
/// `report::CELL_SCHEMA`: the derived schedule metrics of [`Profile`]
/// (scalar totals on per-cell rows; full per-process/per-priority tables
/// with histograms on per-family rows).
pub const KEYS: &[(&str, Kind)] = &[("metrics", Kind::Obj)];

/// Renders the grid as JSONL report lines: one `"profile"` line per cell
/// with compact scalar metrics, then one `"profile_family"` line per
/// family with the merged metrics (histograms, per-priority and
/// per-process tables). The merge folds cells in grid order with an
/// order-independent operation, so parallel and serial sweeps produce
/// byte-identical lines (modulo the `wall_ms` values the artifact writer
/// splits into the timing sidecar).
pub fn report_lines(cells: &[ProfCell]) -> Vec<Json> {
    let mut lines = Vec::new();
    for c in cells {
        lines.push(Json::obj([
            ("kind", Json::from("profile")),
            (
                "cell",
                Json::obj([
                    ("family", Json::from(c.family.name())),
                    ("q", Json::from(c.q)),
                    ("decider", Json::from(c.decider)),
                    ("seed", Json::from(c.seed)),
                ]),
            ),
            ("steps", Json::from(c.steps)),
            ("all_finished", Json::from(c.all_finished)),
            ("metrics", c.profile.scalar_json()),
            ("wall_ms", Json::from(wall_ms(c.wall))),
        ]));
    }
    for family in FAMILIES {
        let fam: Vec<&ProfCell> = cells.iter().filter(|c| c.family == family).collect();
        if fam.is_empty() {
            continue;
        }
        let mut merged = Profile::new();
        let mut steps = 0u64;
        for c in &fam {
            merged.merge(&c.profile);
            steps += c.steps;
        }
        lines.push(Json::obj([
            ("kind", Json::from("profile_family")),
            (
                "cell",
                Json::obj([
                    ("family", Json::from(family.name())),
                    ("q", Json::from(family.legal_q())),
                    ("runs", Json::from(fam.len() as u64)),
                ]),
            ),
            ("steps", Json::from(steps)),
            ("metrics", merged.metrics_json()),
        ]));
    }
    lines
}

/// Captures a representative run of `family` at its legal quantum (storm
/// decider, seed 0) and renders it as Chrome Trace Format JSON for
/// `ui.perfetto.dev`. Deterministic, so regenerating the timeline
/// artifact is idempotent.
pub fn family_timeline(family: Family) -> String {
    let eng = engine(family, family.legal_q());
    let mut d = hostile("storm", 0, eng.n_procs());
    let run = eng.run_with(&mut *d);
    let (_, trace) = eng.capture(&run.script);
    chrome_trace_text(&trace)
}

/// Profiles a serialized trace artifact (any `.trace` file, including the
/// committed fuzz counterexamples — their `# fuzz` metadata lines are
/// comments to the trace parser). Returns the derived metrics and the
/// Perfetto-JSON rendering of the timeline.
pub fn profile_trace_text(text: &str) -> Result<(Profile, String), String> {
    let trace = Trace::from_text(text)?;
    Ok((Profile::from_trace(&trace), chrome_trace_text(&trace)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_is_clean_and_parallel_deterministic() {
        let serial = run_grid(1, true);
        assert_eq!(serial.len(), FAMILIES.len() * PROFILE_DECIDERS.len() * 2);
        for c in &serial {
            assert!(c.all_finished, "{} {} s{} did not finish", c.family.name(), c.decider, c.seed);
            assert!(c.profile.total_stmts() > 0);
            assert_eq!(c.profile.total_stmts(), c.steps);
        }
        let parallel = run_grid(2, true);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.profile, b.profile);
        }
    }

    #[test]
    fn fig3_timeline_is_valid_json() {
        let text = family_timeline(Family::Fig3);
        let v = Json::parse(&text).expect("timeline parses as JSON");
        let events = v.get("traceEvents").expect("has traceEvents");
        assert!(matches!(events, Json::Arr(a) if !a.is_empty()));
    }
}
