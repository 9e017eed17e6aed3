//! Quickstart: explain the paper's motivating example (Listing 1),
//! using the fault-tolerant query pipeline end to end — fallible
//! predictions, explanation diagnostics, and a resilient wrapper that
//! keeps explanations flowing when the model misbehaves.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use comet::isa::{parse_block, Microarch};
use comet::models::{
    CostModel, CrudeModel, FaultConfig, FaultyModel, ResilientConfig, ResilientModel,
};
use comet::{ExplainConfig, Explainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The motivating example from the paper: `mov rdx, rcx` reads the
    // value `add rcx, rax` just produced — a RAW dependency that
    // serializes the two instructions.
    let block = parse_block(
        "add rcx, rax\n\
         mov rdx, rcx\n\
         pop rbx",
    )?;
    println!("block:\n{block}\n");

    // Any cost model works as long as it answers queries. Models are
    // untrusted: `try_predict` is the fallible entry point (the default
    // implementation catches panics and rejects non-finite values).
    let model = CrudeModel::new(Microarch::Haswell);
    let prediction = model.try_predict(&block)?;
    println!("{} predicts {prediction:.2} cycles/iteration\n", model.name());

    // Ask COMET which block features the prediction hinges on.
    // `explain` is fallible too: it errors only if the model fails on
    // the original block; faults on perturbed samples are tolerated.
    let explainer = Explainer::new(model, ExplainConfig::for_crude_model());
    let explanation = explainer.explain(&block, 42)?;

    println!("explanation  : {}", explanation.display_features());
    println!("precision    : {:.2} (threshold 0.70)", explanation.precision);
    println!("coverage     : {:.2}", explanation.coverage);
    println!("model queries: {}", explanation.queries);
    println!("faults seen  : {} (degraded: {})\n", explanation.faults, explanation.degraded);

    // Unreliable model? Wrap it. Here a fault injector makes the crude
    // model fail 10% of queries; the resilient decorator retries
    // transient errors and, if the model keeps failing, trips a circuit
    // breaker and degrades to a fallback — the explanation still comes
    // out, flagged as degraded.
    let flaky = FaultyModel::new(
        CrudeModel::new(Microarch::Haswell),
        FaultConfig { nan_rate: 0.05, transient_rate: 0.05, seed: 7, ..Default::default() },
    );
    let resilient = ResilientModel::with_fallback(
        flaky,
        CrudeModel::new(Microarch::Haswell),
        ResilientConfig::default(),
    );
    let explainer = Explainer::new(resilient, ExplainConfig::for_crude_model());
    println!("with a flaky model (10% fault rate behind a resilient wrapper):");
    match explainer.explain(&block, 42) {
        Ok(explanation) => {
            let report = explainer.model().report();
            println!("explanation  : {}", explanation.display_features());
            println!(
                "resilience   : {} queries, {} failures, {} retries, degraded: {}",
                report.queries, report.failures, report.retries, explanation.degraded
            );
        }
        // Even the original block can fault; the pipeline answers with
        // a typed error instead of a panic.
        Err(error) => println!("explanation unavailable: {error}"),
    }
    Ok(())
}
