//! Golden seeded-explanation outputs.
//!
//! The expected values below were captured from
//! `explain_batched(block, seed, &BatchExec::new(1, 1))`, the search
//! that `explain` wraps, and must be reproduced exactly — same
//! features, same precision/coverage, same query count. A failure
//! prints the actual explanation. If an intentional algorithm change
//! breaks these, re-capture the values and bump the evaluation journal
//! fingerprint and the store's search tag.

use comet_core::{ExplainConfig, Explainer, Explanation, Feature, FeatureSet};
use comet_graph::DepKind;
use comet_isa::{parse_block, Microarch};
use comet_models::CrudeModel;

const SMALL: &str = "add rcx, rax\nmov rdx, rcx\npop rbx";
const CASE2: &str =
    "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx";

struct Golden {
    block: &'static str,
    seed: u64,
    features: &'static [Feature],
    precision: f64,
    coverage: f64,
    prediction: f64,
    anchored: bool,
    queries: u64,
}

const GOLDENS: &[Golden] = &[
    Golden {
        block: SMALL,
        seed: 3,
        features: &[Feature::Instruction(1), Feature::Instruction(2)],
        precision: 0.9375,
        coverage: 0.218,
        prediction: 0.75,
        anchored: true,
        queries: 481,
    },
    Golden {
        block: SMALL,
        seed: 7,
        features: &[Feature::Instruction(1), Feature::Instruction(2)],
        precision: 0.84375,
        coverage: 0.254,
        prediction: 0.75,
        anchored: true,
        queries: 465,
    },
    Golden {
        block: CASE2,
        seed: 3,
        features: &[Feature::Dependency { kind: DepKind::Raw, src: 0, dst: 3 }],
        precision: 1.0,
        coverage: 0.076,
        prediction: 25.25,
        anchored: true,
        queries: 1129,
    },
    Golden {
        block: CASE2,
        seed: 7,
        features: &[Feature::Dependency { kind: DepKind::Raw, src: 0, dst: 3 }],
        precision: 1.0,
        coverage: 0.058,
        prediction: 25.25,
        anchored: true,
        queries: 1145,
    },
];

#[test]
fn seeded_explanations_match_goldens() {
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    for golden in GOLDENS {
        let block = parse_block(golden.block).unwrap();
        let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);
        let e = explainer.explain(&block, golden.seed).unwrap();
        let expected: FeatureSet = golden.features.iter().copied().collect();
        let tag = format!("block {:?} seed {}: got {}", golden.block, golden.seed, summary(&e));
        assert_eq!(e.features, expected, "{tag}: features");
        assert_eq!(e.precision, golden.precision, "{tag}: precision");
        assert_eq!(e.coverage, golden.coverage, "{tag}: coverage");
        assert_eq!(e.prediction, golden.prediction, "{tag}: prediction");
        assert_eq!(e.anchored, golden.anchored, "{tag}: anchored");
        assert_eq!(e.queries, golden.queries, "{tag}: queries");
    }
}

/// The small-block golden values come out the same whichever seed runs
/// first — the explainer keeps no cross-call state.
#[test]
fn goldens_are_order_independent() {
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    let block = parse_block(SMALL).unwrap();
    let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);
    let late = explainer.explain(&block, 7).unwrap();
    let early = explainer.explain(&block, 3).unwrap();
    assert_eq!(early.queries, 481, "{}", summary(&early));
    assert_eq!(late.queries, 465, "{}", summary(&late));
}

/// Every pinned field of `e`, printed on failure so a deliberate
/// re-capture reads the new values off the test output.
fn summary(e: &Explanation) -> String {
    format!(
        "features={:?} precision={:?} coverage={:?} prediction={:?} anchored={} queries={}",
        e.features, e.precision, e.coverage, e.prediction, e.anchored, e.queries
    )
}
