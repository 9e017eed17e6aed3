//! Property tests for the batch prediction contract: for every model
//! in the stack, `predict_batch` must agree *per item* with querying
//! `try_predict` sequentially in slice order — including the exact
//! positions of injected faults under [`FaultyModel`], which exercises
//! the trait's default (slice-order loop) implementation.

use comet_bhive::{generate_source_block, GenConfig, Source};
use comet_isa::{BasicBlock, Microarch};
use comet_models::{
    CachedModel, CostModel, CrudeModel, FaultConfig, FaultyModel, HardwareOracle, ResilientConfig,
    ResilientModel, UicaSurrogate,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_blocks() -> impl Strategy<Value = Vec<BasicBlock>> {
    (any::<u64>(), 1usize..24).prop_map(|(seed, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let source = if i % 2 == 0 { Source::Clang } else { Source::OpenBlas };
                generate_source_block(source, GenConfig::default(), &mut rng)
            })
            .collect()
    })
}

/// `predict_batch` must equal item-wise `try_predict` on a fresh,
/// identically-configured instance (fresh, because decorators like the
/// cache change *stats*, never values, and the fault injector advances
/// a seeded schedule with every query).
fn assert_agrees<M: CostModel, F: Fn() -> M>(make: F, blocks: &[BasicBlock]) {
    let batched = make().predict_batch(blocks);
    let sequential = make();
    assert_eq!(batched.len(), blocks.len());
    for (i, (block, got)) in blocks.iter().zip(&batched).enumerate() {
        let want = sequential.try_predict(block);
        assert_eq!(got, &want, "{} item {i}", sequential.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every override in the model stack agrees per item with the
    /// sequential scalar path.
    #[test]
    fn overrides_agree_with_sequential(blocks in arb_blocks()) {
        for march in Microarch::ALL {
            assert_agrees(|| CrudeModel::new(march), &blocks);
        }
        assert_agrees(|| UicaSurrogate::new(Microarch::Haswell), &blocks);
        assert_agrees(|| HardwareOracle::new(Microarch::Skylake), &blocks);
    }

    /// Decorator overrides (cache partitioning, resilience routing)
    /// reproduce the sequential values exactly, whatever mix of hits
    /// and misses the batch contains.
    #[test]
    fn decorators_agree_with_sequential(blocks in arb_blocks(), warm in 0usize..8) {
        assert_agrees(
            || {
                let cached = CachedModel::new(CrudeModel::new(Microarch::Haswell));
                // Pre-warm a prefix so batches mix hits and misses.
                for block in blocks.iter().take(warm) {
                    let _ = cached.try_predict(block);
                }
                cached
            },
            &blocks,
        );
        assert_agrees(
            || {
                ResilientModel::new(
                    CrudeModel::new(Microarch::Skylake),
                    ResilientConfig::default(),
                )
            },
            &blocks,
        );
    }

    /// The default `predict_batch` queries strictly in slice order, so
    /// a seeded fault schedule lands on the *same positions* as
    /// sequential querying.
    #[test]
    fn fault_positions_survive_the_default_batch_path(
        blocks in arb_blocks(),
        seed in any::<u64>(),
        rate in 0.05f64..0.35,
    ) {
        let config = FaultConfig {
            nan_rate: rate,
            transient_rate: rate,
            panic_rate: rate / 2.0,
            seed,
            ..FaultConfig::default()
        };
        let make = || FaultyModel::new(CrudeModel::new(Microarch::Haswell), config);
        let batched = make().predict_batch(&blocks);
        let sequential = make();
        for (i, (block, got)) in blocks.iter().zip(&batched).enumerate() {
            let want = sequential.try_predict(block);
            prop_assert_eq!(got, &want, "fault schedule diverged at item {}", i);
        }
        prop_assert_eq!(batched.len(), blocks.len());
    }
}
