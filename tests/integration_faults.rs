//! Fault-injection integration suite: the explanation pipeline must
//! survive a misbehaving model end-to-end. Every fault class of the
//! `ModelError` taxonomy (NaN, panic, transient, latency/timeout) is
//! injected at 10% per query across 100 seeded runs, and the pipeline
//! must answer each run with either a (possibly degraded) explanation
//! or a typed error — never a process panic.

use std::time::Duration;

use comet::core::par_map;
use comet::isa::{parse_block, BasicBlock, Microarch};
use comet::models::{
    CostModel, CrudeModel, FaultConfig, FaultyModel, ResilientConfig, ResilientModel,
};
use comet::{ExplainConfig, ExplainError, Explainer};

fn test_block() -> BasicBlock {
    parse_block("add rcx, rax\nmov rdx, rcx\npop rbx\nimul r9, r10").unwrap()
}

fn sweep_config() -> ExplainConfig {
    ExplainConfig {
        coverage_samples: 150,
        max_samples: 80,
        max_total_queries: 1_500,
        ..ExplainConfig::for_crude_model()
    }
}

/// The headline acceptance criterion: with every fault class injected
/// at a 10% rate, 100 seeded `explain` runs all finish with `Ok` plus
/// degradation diagnostics or a typed `ExplainError` — zero panics.
#[test]
fn explain_survives_every_fault_class_across_100_seeds() {
    let block = test_block();
    let mut explained = 0u32;
    let mut refused = 0u32;
    let mut faults_seen = 0u64;
    for seed in 0..100u64 {
        let faulty =
            FaultyModel::new(CrudeModel::new(Microarch::Haswell), FaultConfig::uniform(0.1, seed));
        let explainer = Explainer::new(faulty, sweep_config());
        match explainer.explain(&block, seed) {
            Ok(e) => {
                explained += 1;
                faults_seen += e.faults;
                assert!(e.queries <= 1_500, "seed {seed}: budget blown ({})", e.queries);
                assert!(!e.features.is_empty(), "seed {seed}: empty explanation");
                assert!((0.0..=1.0).contains(&e.precision), "seed {seed}");
                assert!((0.0..=1.0).contains(&e.coverage), "seed {seed}");
                assert!(e.faults == 0 || e.degraded, "seed {seed}: faults but not degraded");
                assert_eq!(e.faults, explainer.model().stats().total_faults(), "seed {seed}");
            }
            // The model faulted on the original block: refusing with a
            // typed error is the contract for an unexplainable input.
            Err(ExplainError::Model(_)) => refused += 1,
            Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
        }
    }
    assert_eq!(explained + refused, 100);
    // At a 50% total fault rate the initial query fails about half the
    // time; both outcomes must actually occur for this test to mean
    // anything, and the surviving runs must have absorbed real faults.
    assert!(explained >= 10, "only {explained}/100 runs explained");
    assert!(refused >= 10, "only {refused}/100 runs refused");
    assert!(faults_seen > 0, "no faults absorbed by surviving runs");
}

/// A model whose backend has died entirely: predictions are always NaN.
struct DeadModel;

impl CostModel for DeadModel {
    fn name(&self) -> &str {
        "dead"
    }

    fn predict(&self, _: &BasicBlock) -> f64 {
        f64::NAN
    }
}

/// Breaker-trip integration: once the primary model's circuit breaker
/// opens, `explain` transparently runs against the fallback model and
/// reports the run as degraded — with the exact explanation the
/// fallback would have produced on its own.
#[test]
fn tripped_breaker_degrades_explanation_to_fallback() {
    let config = ResilientConfig {
        max_retries: 0,
        breaker_threshold: 3,
        backoff_base: Duration::ZERO,
        // No half-open probes during the run: every query after the
        // trip is served by the fallback, deterministically.
        probe_interval: u64::MAX,
        seed: 0,
        ..ResilientConfig::default()
    };
    let resilient =
        ResilientModel::with_fallback(DeadModel, CrudeModel::new(Microarch::Haswell), config);
    let block = test_block();

    // Warm the breaker: two NaN failures propagate, the third trips the
    // breaker and already degrades to the fallback.
    assert!(resilient.try_predict(&block).is_err());
    assert!(resilient.try_predict(&block).is_err());
    assert!(resilient.try_predict(&block).is_ok());
    assert!(resilient.breaker_open());

    let explain_config = sweep_config();
    let explainer = Explainer::new(resilient, explain_config);
    let e = explainer.explain(&block, 42).expect("fallback-served explanation");
    assert!(e.degraded, "open breaker must mark the explanation degraded");
    assert_eq!(e.faults, 0, "fallback answers are successes, not faults");
    assert_eq!(e.retries, 0);

    let report = explainer.model().report();
    assert_eq!(report.breaker_trips, 1);
    assert!(report.degraded);
    assert!(report.fallback_queries >= e.queries);

    // With the breaker open the pipeline *is* the fallback model:
    // explaining the fallback directly with the same seed must agree.
    let direct = Explainer::new(CrudeModel::new(Microarch::Haswell), explain_config)
        .explain(&block, 42)
        .unwrap();
    assert_eq!(e.features, direct.features);
    assert_eq!(e.precision, direct.precision);
    assert!(!direct.degraded);
}

/// The harness-side guarantee: one panicking worker in a parallel batch
/// surfaces as that item's error and never takes down its siblings.
#[test]
fn par_map_isolates_a_panicking_worker() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let items: Vec<u64> = (0..32).collect();
    let results = par_map(&items, |i, &x| {
        if i == 13 {
            panic!("deliberate worker crash on {i}");
        }
        x * x
    });
    std::panic::set_hook(prev);

    assert_eq!(results.len(), 32);
    for (i, slot) in results.iter().enumerate() {
        if i == 13 {
            let failure = slot.as_ref().unwrap_err();
            assert_eq!(failure.index, 13);
            assert!(
                failure.message.contains("deliberate worker crash on 13"),
                "unexpected payload: {}",
                failure.message
            );
        } else {
            assert_eq!(*slot, Ok((i as u64) * (i as u64)), "sibling {i} was lost");
        }
    }
}
