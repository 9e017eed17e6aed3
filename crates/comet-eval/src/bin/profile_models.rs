//! Measure per-query and end-to-end explanation latency for each cost
//! model — useful when sizing experiment scales for a machine.
//!
//! ```text
//! cargo run --release -p comet-eval --bin profile_models
//! ```

use std::time::Instant;

use comet_bhive::{Corpus, GenConfig};
use comet_core::{ExplainConfig, Explainer};
use comet_isa::Microarch;
use comet_models::{
    CachedModel, CostModel, CrudeModel, IthemalConfig, IthemalSurrogate, UicaSurrogate,
};

fn main() {
    let corpus = Corpus::generate(6, GenConfig::default(), 1);
    let train = Corpus::generate(300, GenConfig::default(), 2);
    let march = Microarch::Haswell;
    let t = Instant::now();
    let ithemal = IthemalSurrogate::train(
        march,
        &train.training_pairs(march),
        IthemalConfig { epochs: 2, ..Default::default() },
    );
    println!("train 300x2: {:?}", t.elapsed());
    let uica = UicaSurrogate::new(march);
    let crude = CrudeModel::new(march);
    let block = &corpus.blocks()[0].block;

    for (name, model) in
        [("ithemal", &ithemal as &dyn CostModel), ("uica", &uica), ("crude", &crude)]
    {
        let t = Instant::now();
        let mut acc = 0.0;
        for _ in 0..1000 {
            acc += model.predict(block);
        }
        println!("{name}: {:.1}us/query (acc {acc:.0})", t.elapsed().as_secs_f64() * 1e3);
    }

    let config = ExplainConfig { coverage_samples: 600, ..ExplainConfig::for_throughput_model() };
    for (name, model) in [("ithemal", &ithemal as &(dyn CostModel + Sync)), ("uica", &uica)] {
        let cached = CachedModel::new(model);
        let explainer = Explainer::new(&cached, config);
        let t = Instant::now();
        let e = explainer.explain(block, 0).expect("surrogate models predict finite costs");
        let stats = cached.stats();
        println!(
            "{name} explain: {:?}, queries {} (cache hits {})",
            t.elapsed(),
            e.queries,
            stats.hits
        );
    }
}
