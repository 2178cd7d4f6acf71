//! Adversarial-fuzz integration: a seeded smoke pass over every algorithm
//! family at legal quantum, the full detect → shrink → artifact → replay
//! pipeline at sub-threshold quantum, and a corpus runner that replays
//! every committed counterexample in `golden/fuzz/` and asserts the
//! original verdict reproduces byte-for-byte.

use lowerbound::fuzz::{
    case_specs, fuzz_cell, replay_artifact, shrink_and_capture, CaseSpec, CounterExample, Expect,
    Family,
};
use sched_sim::fuzz::HOSTILE_NAMES;

/// The committed counterexample corpus, resolved against the package root
/// so the test works regardless of the runner's working directory.
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/fuzz");

/// One bounded, seeded case per family at its legal quantum: the safety
/// oracles must stay silent under a hostile decider when the paper's
/// hypothesis holds.
#[test]
fn every_family_is_clean_at_legal_q() {
    for family in Family::ALL {
        let spec = CaseSpec {
            family,
            q: family.legal_q(),
            regime: "legal",
            expect: Expect::Clean,
        };
        let rep = fuzz_cell(&spec, "storm", 2);
        assert_eq!(rep.runs, 2);
        assert!(rep.steps > 0, "{}: no statements executed", family.name());
        assert_eq!(
            rep.violations,
            0,
            "{} at legal Q={} violated its oracle: {:?}",
            family.name(),
            spec.q,
            rep.first.map(|f| f.verdict)
        );
    }
}

/// Every `Expect::Violation` spec in the grid must actually produce a
/// violation within the smoke seed budget, and the shrunk artifact must
/// replay deterministically to the same verdict.
#[test]
fn predicted_violations_fire_shrink_and_replay() {
    let predicted: Vec<CaseSpec> = case_specs()
        .into_iter()
        .filter(|s| matches!(s.expect, Expect::Violation))
        .collect();
    assert!(!predicted.is_empty(), "the grid must predict at least one violation");
    for spec in predicted {
        let mut found = None;
        'outer: for decider in HOSTILE_NAMES {
            let rep = fuzz_cell(&spec, decider, 8);
            if let Some(first) = rep.first {
                found = Some((decider, first));
                break 'outer;
            }
        }
        let (decider, first) = found.unwrap_or_else(|| {
            panic!("{} at sub Q={} must violate within 8 seeds", spec.family.name(), spec.q)
        });
        let ce = shrink_and_capture(&spec, decider, first.seed, &first.script);
        assert!(ce.forced <= first.script.len(), "shrinking must not grow the script");
        let msg = replay_artifact(&ce.to_text()).expect("shrunk artifact must replay");
        assert!(msg.contains("violation reproduced"), "{msg}");
    }
}

/// Replays every committed artifact in `golden/fuzz/`, asserting that the
/// recorded verdict reproduces and the re-captured trace is byte-identical
/// (both checked inside `replay_artifact`).
#[test]
fn committed_corpus_reproduces_every_verdict() {
    let mut paths: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .expect("golden/fuzz corpus dir exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "trace"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 2,
        "corpus must hold at least the fig3 and fig7 counterexamples, found {paths:?}"
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read corpus artifact");
        let ce = CounterExample::from_text(&text)
            .unwrap_or_else(|e| panic!("{}: malformed artifact: {e}", path.display()));
        let msg = replay_artifact(&text)
            .unwrap_or_else(|e| panic!("{}: replay failed: {e}", path.display()));
        assert!(
            msg.contains("violation reproduced"),
            "{}: expected the {} violation to reproduce, got: {msg}",
            path.display(),
            ce.family.name()
        );
    }
}
