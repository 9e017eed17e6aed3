//! The batched-search determinism contract, end to end: for a
//! deterministic model, `explain_batched` must produce *bitwise
//! identical* explanations — features, precision, coverage, query and
//! fault counts — for every batch size and pool size, including the
//! `BatchExec::new(1, 1)` that `explain` runs on the calling thread.
//! This is what lets services tune batching knobs freely without
//! changing any result.

use comet_bhive::{generate_source_block, GenConfig, Source};
use comet_core::{BatchExec, ExplainConfig, Explainer};
use comet_isa::{BasicBlock, Microarch};
use comet_models::CrudeModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH_SIZES: [usize; 4] = [1, 4, 17, 64];
const POOL_SIZES: [usize; 2] = [1, 4];

fn seeded_blocks(n: usize) -> Vec<BasicBlock> {
    let mut rng = StdRng::seed_from_u64(0xB10C5);
    (0..n)
        .map(|i| {
            let source = if i % 2 == 0 { Source::Clang } else { Source::OpenBlas };
            generate_source_block(source, GenConfig::default(), &mut rng)
        })
        .collect()
}

#[test]
fn explanations_are_bitwise_identical_across_batch_and_pool_sizes() {
    let blocks = seeded_blocks(20);
    let config = ExplainConfig {
        coverage_samples: 400,
        max_total_queries: 4_000,
        ..ExplainConfig::for_crude_model()
    };
    let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);

    let reference: Vec<_> = blocks
        .iter()
        .enumerate()
        .map(|(i, block)| explainer.explain(block, i as u64).unwrap())
        .collect();
    assert!(
        reference.iter().any(|e| e.anchored),
        "expected at least one anchored explanation among the seeded blocks"
    );

    for workers in POOL_SIZES {
        for batch in BATCH_SIZES {
            let exec = BatchExec::new(batch, workers);
            for (i, (block, want)) in blocks.iter().zip(&reference).enumerate() {
                let got = explainer.explain_batched(block, i as u64, &exec).unwrap();
                // `Explanation`'s `PartialEq` compares every field but
                // wall-clock duration, and the f64 fields are compared
                // exactly: this is a bitwise check.
                assert_eq!(
                    got,
                    *want,
                    "block {i} diverged at batch={batch} workers={workers}: \
                     got {} (precision {}, queries {}), want {} (precision {}, queries {})",
                    got.display_features(),
                    got.precision,
                    got.queries,
                    want.display_features(),
                    want.precision,
                    want.queries,
                );
            }
            assert!(exec.queries_batched() > 0);
        }
    }
}
