//! The exhaustive-exploration grid (`BENCH_explore.json`): Lemma 1
//! verified by complete schedule enumeration, at the largest
//! configurations each explorer mode can finish.
//!
//! Each workload is a Fig. 3 consensus configuration (or a sharded pair of
//! them); each row runs one explorer mode over it — serial, parallel
//! ([`sched_sim::explore::explore_parallel`]), and reduced (symmetry
//! and/or partial-order reduction per [`ExploreConfig`]) — and checks
//! **agreement** and **validity** at every quiescent state. A row is
//! `verified` when every terminal satisfied both properties and no bound
//! truncated the search, i.e. the cell's Lemma 1 claim is established over
//! the *entire* schedule tree, not a sample.
//!
//! The grid is the committed evidence for the explorer's scaling claims:
//!
//! * the symmetric workload (`fig3_q8_4p_sym`, four interchangeable
//!   proposers) shrinks its visited-state set by the orbit sizes of the
//!   process-permutation group;
//! * the sharded pair workloads commute whole cross-object interleavings
//!   away by footprint, collapsing a product-sized tree to roughly a sum;
//! * the largest pair cell is sized so its **unreduced** tree cannot
//!   finish inside the step budget — the configuration that exhaustive
//!   verification newly reaches through reduction.

use std::sync::Mutex;
use std::time::Instant;

use hybrid_wf::uni::consensus::{
    append_decide, decide_machine, ConsensusCell, UniConsensusLocals, UniConsensusMem,
    MIN_QUANTUM,
};
use sched_sim::explore::{explore_parallel, ExploreBounds, ExploreStats, Verdict};
use sched_sim::ids::{ProcessId, ProcessorId, Priority};
use sched_sim::kernel::{Kernel, SystemSpec};
use sched_sim::machine::Footprint;
use sched_sim::program::{ProgMachine, ProgramBuilder};
use sched_sim::report::{wall_ms, Json, Kind};
use sched_sim::scenario::Scenario;

/// Two independent Fig. 3 consensus objects in one shared memory — the
/// partial-order-reduction showcase: processes of different objects run on
/// different processors and touch disjoint cells, so their statements
/// commute and one representative interleaving covers all cross-object
/// schedules.
#[derive(Clone, Debug, Default, Hash, PartialEq, Eq)]
pub struct PairMem {
    /// Object A's `P[1..3]` (footprint bit 0).
    pub a: ConsensusCell,
    /// Object B's `P[1..3]` (footprint bit 1).
    pub b: ConsensusCell,
}

/// The shape of one grid workload.
#[derive(Clone, Copy, Debug)]
pub enum Flavor {
    /// All processes on one processor deciding one Fig. 3 object, one
    /// process per proposal listed.
    Uni {
        /// The proposals, in process order (repeats make the
        /// configuration symmetric).
        proposals: &'static [u64],
    },
    /// Two independent Fig. 3 objects ([`PairMem`]), `per_object`
    /// processes each, object A on processor 0 and object B on
    /// processor 1.
    Pair {
        /// Deciders per object.
        per_object: u32,
    },
}

/// One workload of the grid.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Workload name (the `workload` cell key).
    pub name: &'static str,
    /// Process/object layout.
    pub flavor: Flavor,
    /// Scheduling quantum.
    pub q: u32,
    /// Whether symmetry reduction is sound *and useful* here: equal
    /// priorities, value-indexed memory, symmetric property, and repeated
    /// proposals (distinct proposals leave every orbit trivial). The
    /// sharded pair workloads are excluded — swapping processors would
    /// have to swap the memory shards too — so they reduce by footprints
    /// alone.
    pub symmetric_ok: bool,
    /// Step budget for the *unreduced* modes; the reduced modes always run
    /// with the default budget. A workload whose unreduced tree exceeds
    /// this bound shows up truncated + unverified — committed evidence of
    /// where plain exploration stops and reduction carries on.
    pub unreduced_budget: u64,
}

impl ExploreConfig {
    /// Total processes.
    pub fn procs(&self) -> u32 {
        match self.flavor {
            Flavor::Uni { proposals } => proposals.len() as u32,
            Flavor::Pair { per_object } => 2 * per_object,
        }
    }

    /// Processors.
    pub fn cpus(&self) -> u32 {
        match self.flavor {
            Flavor::Uni { .. } => 1,
            Flavor::Pair { .. } => 2,
        }
    }
}

/// The grid: every workload's reduced mode completes; in the full grid the
/// largest pair cell's unreduced modes are expected to truncate at
/// `unreduced_budget`.
pub fn grid(smoke: bool) -> Vec<ExploreConfig> {
    let mut out = vec![
        ExploreConfig {
            name: "fig3_q8_2p",
            flavor: Flavor::Uni { proposals: &[1, 2] },
            q: MIN_QUANTUM,
            symmetric_ok: true,
            unreduced_budget: 50_000_000,
        },
        ExploreConfig {
            name: "fig3_q8_3p",
            flavor: Flavor::Uni { proposals: &[1, 2, 3] },
            q: MIN_QUANTUM,
            symmetric_ok: true,
            unreduced_budget: 50_000_000,
        },
        ExploreConfig {
            name: "fig3_q8_4p_sym",
            flavor: Flavor::Uni { proposals: &[7, 7, 7, 7] },
            q: MIN_QUANTUM,
            symmetric_ok: true,
            unreduced_budget: 50_000_000,
        },
        ExploreConfig {
            name: "fig3_pair_2x1",
            flavor: Flavor::Pair { per_object: 1 },
            q: MIN_QUANTUM,
            symmetric_ok: false,
            unreduced_budget: 50_000_000,
        },
    ];
    if !smoke {
        out.push(ExploreConfig {
            name: "fig3_pair_2x2",
            flavor: Flavor::Pair { per_object: 2 },
            q: MIN_QUANTUM,
            symmetric_ok: false,
            unreduced_budget: 50_000_000,
        });
        out.push(ExploreConfig {
            name: "fig3_pair_2x3",
            flavor: Flavor::Pair { per_object: 3 },
            q: MIN_QUANTUM,
            symmetric_ok: false,
            unreduced_budget: 50_000_000,
        });
    }
    out
}

/// All-processes-on-one-processor Fig. 3 at equal priority, adversarial
/// quantum alignment, one process per proposal.
pub fn fig3_kernel(q: u32, proposals: &[u64]) -> Kernel<UniConsensusMem> {
    let mut s = Scenario::new(
        UniConsensusMem::default(),
        SystemSpec::hybrid(q).with_adversarial_alignment(),
    );
    for &v in proposals {
        s.add_process(ProcessorId(0), Priority(1), Box::new(decide_machine(v)));
    }
    s.into_kernel()
}

/// The proposals of one pair-workload object: object A (index 0) proposes
/// `1..=n`, object B `n+1..=2n`.
fn pair_proposals(per_object: u32, object: usize) -> Vec<u64> {
    let base = object as u64 * u64::from(per_object);
    (1..=u64::from(per_object)).map(|v| base + v).collect()
}

/// The sharded pair: object A (cells `a`, footprint bit 0) decided by
/// `per_object` processes on processor 0, object B (cells `b`, bit 1) by
/// `per_object` on processor 1. Each machine declares its object's
/// footprint as its may-footprint, which is what entitles the explorer to
/// commute cross-object steps.
pub fn pair_kernel(q: u32, per_object: u32) -> Kernel<PairMem> {
    let mut b = ProgramBuilder::<UniConsensusLocals, PairMem>::new();
    let decide_a = append_decide(
        &mut b,
        "decide-a",
        0b01,
        |m: &mut PairMem, _l: &UniConsensusLocals| &mut m.a,
        |l| l.val,
        |l| &mut l.s,
    );
    let decide_b = append_decide(
        &mut b,
        "decide-b",
        0b10,
        |m: &mut PairMem, _l: &UniConsensusLocals| &mut m.b,
        |l| l.val,
        |l| &mut l.s,
    );
    let prog = b.build();
    let mut s =
        Scenario::new(PairMem::default(), SystemSpec::hybrid(q).with_adversarial_alignment());
    for (object, entry) in [decide_a, decide_b].into_iter().enumerate() {
        for input in pair_proposals(per_object, object) {
            let m = ProgMachine::single_shot(
                &prog,
                UniConsensusLocals { val: input, s: Default::default() },
                entry,
            )
            .with_output(|l| l.s.ret)
            .with_may_footprint(Footprint::rw(1 << object));
            s.add_process(ProcessorId(object as u32), Priority(1), Box::new(m));
        }
    }
    s.into_kernel()
}

/// Checks agreement + validity for one group of processes deciding one
/// object: all finished, all outputs equal, and the decision is one of the
/// group's proposals. Permutation-invariant, so it stays a valid property
/// under symmetry reduction. Returns a violation description or `None`.
fn group_violation<M>(
    k: &Kernel<M>,
    pids: std::ops::Range<u32>,
    proposals: &[u64],
) -> Option<String> {
    let outs: Vec<Option<u64>> = pids.clone().map(|p| k.output(ProcessId(p))).collect();
    if outs.iter().any(Option::is_none) {
        return Some(format!("process in {pids:?} unfinished at quiescence"));
    }
    let first = outs[0];
    if outs.iter().any(|o| *o != first) {
        return Some(format!("agreement violated: {outs:?}"));
    }
    let v = first.expect("checked above");
    if !proposals.contains(&v) {
        return Some(format!("validity violated: decided {v} ∉ {proposals:?}"));
    }
    None
}

/// One explorer mode of one workload: runs it, checks the property at
/// every terminal, and renders the artifact row.
fn run_mode<M: Clone + std::hash::Hash + Send>(
    cfg: &ExploreConfig,
    kernel: &Kernel<M>,
    kind: &str,
    reduction: &str,
    bounds: ExploreBounds,
    jobs: usize,
    check: impl Fn(&Kernel<M>) -> Option<String> + Sync,
) -> (Json, ExploreStats) {
    let violations = Mutex::new(0u64);
    let t0 = Instant::now();
    let stats = explore_parallel(kernel, bounds, jobs, |k| {
        if check(k).is_some() {
            *violations.lock().expect("violation counter poisoned") += 1;
        }
        Verdict::KeepGoing
    });
    let wall = t0.elapsed();
    let violations = violations.into_inner().expect("violation counter poisoned");
    let verified = violations == 0 && !stats.truncated();
    let row = Json::obj([
        ("kind", Json::from(kind)),
        (
            "cell",
            Json::obj([
                ("workload", Json::from(cfg.name)),
                ("procs", Json::from(cfg.procs())),
                ("cpus", Json::from(cfg.cpus())),
                ("q", Json::from(cfg.q)),
                ("jobs", Json::from(jobs as u64)),
                ("reduction", Json::from(reduction)),
            ]),
        ),
        ("steps", Json::from(stats.steps)),
        ("terminals", Json::from(stats.terminals)),
        ("deduped", Json::from(stats.deduped)),
        ("por_pruned", Json::from(stats.por_pruned)),
        ("visited", Json::from(stats.peak_visited)),
        ("truncation", Json::from(stats.truncation.name())),
        ("verified", Json::Bool(verified)),
        ("wall_ms", Json::from(wall_ms(wall))),
    ]);
    (row, stats)
}

/// Runs every mode of one workload and returns its artifact rows in mode
/// order (`explore_serial`, `explore_parallel`, `explore_reduced`,
/// `explore_reduced_par`).
///
/// When the serial unreduced run truncates at `unreduced_budget`, its
/// parallel twin is skipped: a truncated parallel run explores a
/// timing-dependent set of states, so its row would not be a pure function
/// of the input. The truncated serial row stays as the evidence of where
/// plain search stops.
pub fn run_config(cfg: &ExploreConfig, jobs: usize) -> Vec<Json> {
    let unreduced =
        ExploreBounds { max_total_steps: cfg.unreduced_budget, ..ExploreBounds::default() };
    let reduced = ExploreBounds {
        por: true,
        symmetry: cfg.symmetric_ok,
        wide_hash: true,
        ..ExploreBounds::default()
    };
    let red_name = if cfg.symmetric_ok { "sym+por" } else { "por" };
    let par_jobs = jobs.max(2);

    let mut rows = Vec::new();
    // Pushes the row and reports whether the run truncated.
    let mut push = |(row, stats): (Json, ExploreStats)| {
        rows.push(row);
        stats.truncated()
    };
    match cfg.flavor {
        Flavor::Uni { proposals } => {
            let k = fig3_kernel(cfg.q, proposals);
            let check =
                |k: &Kernel<UniConsensusMem>| group_violation(k, 0..cfg.procs(), proposals);
            if !push(run_mode(cfg, &k, "explore_serial", "none", unreduced, 1, check)) {
                push(run_mode(cfg, &k, "explore_parallel", "none", unreduced, par_jobs, check));
            }
            push(run_mode(cfg, &k, "explore_reduced", red_name, reduced, 1, check));
            push(run_mode(cfg, &k, "explore_reduced_par", red_name, reduced, par_jobs, check));
        }
        Flavor::Pair { per_object } => {
            let k = pair_kernel(cfg.q, per_object);
            let check = move |k: &Kernel<PairMem>| {
                group_violation(k, 0..per_object, &pair_proposals(per_object, 0)).or_else(|| {
                    group_violation(
                        k,
                        per_object..2 * per_object,
                        &pair_proposals(per_object, 1),
                    )
                })
            };
            if !push(run_mode(cfg, &k, "explore_serial", "none", unreduced, 1, check)) {
                push(run_mode(cfg, &k, "explore_parallel", "none", unreduced, par_jobs, check));
            }
            push(run_mode(cfg, &k, "explore_reduced", red_name, reduced, 1, check));
            push(run_mode(cfg, &k, "explore_reduced_par", red_name, reduced, par_jobs, check));
        }
    }
    rows
}

/// Runs the whole grid in workload order. Deterministic apart from
/// `wall_ms`, which the artifact machinery splits into the timing sidecar.
pub fn run_grid(jobs: usize, smoke: bool) -> Vec<Json> {
    grid(smoke).iter().flat_map(|cfg| run_config(cfg, jobs)).collect()
}

/// The keys every `BENCH_explore.json` row carries beyond
/// `report::CELL_SCHEMA`: the [`ExploreStats`] payload and the
/// verification verdict (`verified`: every terminal satisfied the checked
/// property and no bound truncated the search).
pub const KEYS: &[(&str, Kind)] = &[
    ("terminals", Kind::Num),
    ("deduped", Kind::Num),
    ("por_pruned", Kind::Num),
    ("visited", Kind::Num),
    ("truncation", Kind::Str),
    ("verified", Kind::Bool),
];

/// The gate of the grid. Every reduced row must be verified (their budgets
/// are sized to complete), and no row may report a property violation
/// (unverified without truncation); unreduced rows truncated at their
/// step budget are expected on the largest workload. Every untruncated
/// parallel row must also reproduce its serial twin's `steps`,
/// `terminals`, `deduped`, `por_pruned` and `visited` exactly; a row whose
/// twin is not among `rows` is judged on its own.
pub fn grid_ok(rows: &[Json]) -> bool {
    fn text<'a>(r: &'a Json, key: &str) -> Option<&'a str> {
        r.get(key).and_then(Json::as_str)
    }
    let workload = |r: &Json| r.get("cell").and_then(|c| c.get("workload")).cloned();
    let verified = rows.iter().all(|r| {
        let reduced = text(r, "kind").is_some_and(|k| k.starts_with("explore_reduced"));
        r.get("verified") == Some(&Json::Bool(true))
            || !(reduced || text(r, "truncation") == Some("none"))
    });
    let twins_agree = rows.iter().all(|par| {
        let twin = match text(par, "kind") {
            Some("explore_parallel") => "explore_serial",
            Some("explore_reduced_par") => "explore_reduced",
            _ => return true,
        };
        let serial = rows
            .iter()
            .find(|r| text(r, "kind") == Some(twin) && workload(r) == workload(par));
        text(par, "truncation") != Some("none")
            || serial.is_none_or(|s| {
                ["steps", "terminals", "deduped", "por_pruned", "visited"]
                    .iter()
                    .all(|k| par.get(k) == s.get(k))
            })
    });
    verified && twins_agree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_rows_verify_and_agree_across_modes() {
        let rows = run_grid(2, true);
        assert_eq!(rows.len(), grid(true).len() * 4);
        assert!(grid_ok(&rows));
        for row in &rows {
            assert_eq!(row.get("verified"), Some(&Json::Bool(true)), "failed verification: {row}");
        }
        // serial == parallel is `grid_ok`'s, which tampered rows must fail.
        let tamper = |i: usize, key: &str, v: Json| {
            let mut t = rows.clone();
            if let Json::Obj(pairs) = &mut t[i] {
                pairs.iter_mut().find(|(k, _)| k == key).unwrap().1 = v;
            }
            t
        };
        assert_eq!(rows[1].get("kind"), Some(&Json::from("explore_parallel")));
        assert!(!grid_ok(&tamper(1, "visited", Json::from(0u64))), "twin mismatch passed");
        assert!(grid_ok(&tamper(1, "visited", Json::from(0u64))[1..2]), "a lone row has no twin");
        assert!(!grid_ok(&tamper(2, "verified", Json::Bool(false))), "unverified reduced row passed");
        // Reduction never grows the state space, and the showcase
        // workloads actually shrink.
        let visited = |name: &str, kind: &str| {
            rows.iter()
                .find(|r| {
                    r.get("kind").and_then(Json::as_str) == Some(kind)
                        && r.get("cell").and_then(|c| c.get("workload")).and_then(Json::as_str)
                            == Some(name)
                })
                .and_then(|r| r.get("visited"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        for cfg in grid(true) {
            assert!(
                visited(cfg.name, "explore_reduced") <= visited(cfg.name, "explore_serial"),
                "{}: reduction grew the state space",
                cfg.name
            );
        }
        assert!(
            visited("fig3_q8_4p_sym", "explore_serial")
                >= 5 * visited("fig3_q8_4p_sym", "explore_reduced"),
            "symmetry must shrink the symmetric 4p workload ≥ 5×"
        );
        assert!(
            visited("fig3_pair_2x1", "explore_serial")
                > visited("fig3_pair_2x1", "explore_reduced"),
            "POR must shrink the sharded pair workload"
        );
    }

    #[test]
    fn truncated_serial_run_skips_its_parallel_twin() {
        let cfg = ExploreConfig { unreduced_budget: 100, ..grid(true)[0] };
        let rows = run_config(&cfg, 2);
        let kinds: Vec<&str> =
            rows.iter().map(|r| r.get("kind").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(kinds, ["explore_serial", "explore_reduced", "explore_reduced_par"]);
        assert_eq!(rows[0].get("truncation").and_then(Json::as_str), Some("step-bound"));
        assert_eq!(rows[0].get("verified"), Some(&Json::Bool(false)));
        for row in &rows[1..] {
            assert_eq!(row.get("verified"), Some(&Json::Bool(true)), "{row}");
        }
    }

    #[test]
    fn pair_workload_is_por_reducible() {
        let k = pair_kernel(MIN_QUANTUM, 1);
        let plain = explore_parallel(&k, ExploreBounds::default(), 1, |_| Verdict::KeepGoing);
        let por = explore_parallel(
            &k,
            ExploreBounds { por: true, ..ExploreBounds::default() },
            1,
            |_| Verdict::KeepGoing,
        );
        assert_eq!(plain.terminals, por.terminals, "POR must preserve terminals");
        assert!(por.por_pruned > 0, "disjoint shards must commute");
        assert!(
            por.peak_visited * 5 <= plain.peak_visited,
            "expected ≥ 5× visited-state shrink: {} vs {}",
            plain.peak_visited,
            por.peak_visited
        );
    }
}
