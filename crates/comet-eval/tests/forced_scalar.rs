//! Forced-scalar golden explanation: pin the `scalar-v1` kernel before
//! the first prediction this process makes, explain a block with a
//! neural surrogate, and check the search content against committed
//! golden values. This is the reproducibility contract `--force-scalar`
//! sells: on any machine — AVX2 or not — the scalar variant must yield
//! this exact explanation, bit for bit.
//!
//! Deliberately its own integration-test binary: kernel resolution is
//! once-per-process, so the pin must happen in a process that runs
//! nothing else first.

use comet_core::{ExplainConfig, Explainer};
use comet_isa::{parse_block, Microarch};
use comet_models::{CostModel, IthemalConfig, IthemalSurrogate};
use comet_nn::kernel;

#[test]
fn forced_scalar_explanation_matches_golden() {
    assert!(kernel::force_scalar(), "kernel already resolved non-scalar before the pin");
    assert_eq!(kernel::active().name, "scalar-v1");

    let corpus: Vec<_> = [
        ("add rax, 1", 1.0),
        ("add rax, 1\nadd rbx, 1", 1.0),
        ("div rcx", 25.0),
        ("div rcx\nadd rax, 1", 25.0),
        ("mov rdx, rcx\nmov rbx, rax", 1.0),
        ("imul rax, rcx\nadd rdx, 4", 3.0),
    ]
    .iter()
    .map(|(text, cost)| (parse_block(text).unwrap(), *cost))
    .collect();
    let surrogate = IthemalSurrogate::train(
        Microarch::Haswell,
        &corpus,
        IthemalConfig { epochs: 40, ..IthemalConfig::default() },
    );

    let block = parse_block("mov ecx, edx\nxor edx, edx\ndiv rcx\nimul rax, rcx").unwrap();
    let config = ExplainConfig {
        coverage_samples: 200,
        max_total_queries: 6_000,
        ..ExplainConfig::for_throughput_model()
    };
    let explainer = Explainer::new(surrogate, config);
    let explanation = explainer.explain(&block, 0x5CA1A5).expect("explanation failed");

    // The full search result, serialized (duration excluded by design).
    // On intentional drift (retrained surrogate, search change),
    // regenerate from the failure message: it prints the actual
    // serialization.
    let got = serde_json::to_string(&explanation).unwrap();
    assert_eq!(got, GOLDEN, "forced-scalar explanation drifted from golden");

    // Spot-check the surrogate prediction itself is the value the
    // golden embeds — catches a drift in the model independent of the
    // search.
    let prediction = explainer.model().predict(&block);
    assert_eq!(prediction.to_bits(), explanation.prediction.to_bits());
}

/// Captured under `scalar-v1` from `explain_batched` at
/// `BatchExec::new(1, 1)`, the search `explain` wraps.
const GOLDEN: &str = "{\"features\":[{\"Instruction\":2}],\"precision\":0.7678571428571429,\"coverage\":0.59,\"prediction\":1.7799081236327672,\"anchored\":true,\"queries\":201,\"faults\":0,\"retries\":0,\"degraded\":false}";
