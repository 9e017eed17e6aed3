//! Case-study walkthrough (paper §6.4, Listing 3): a block whose real
//! bottleneck is an expensive `div` plus a RAW dependency chain. We
//! train a small Ithemal-style neural model, compare it with the
//! uiCA-style simulator, and use COMET to see *which features each
//! model actually relies on*.
//!
//! ```text
//! cargo run --release --example explain_div_bottleneck
//! ```

use comet::bhive::{Corpus, GenConfig};
use comet::isa::{parse_block, Microarch};
use comet::models::{
    CachedModel, CostModel, HardwareOracle, IthemalConfig, IthemalSurrogate, UicaSurrogate,
};
use comet::{ExplainConfig, Explainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Paper Listing 3. Actual hardware throughput (BHive): 39 cycles.
    let block = parse_block(
        "mov ecx, edx\n\
         xor edx, edx\n\
         lea rax, [rcx + rax - 1]\n\
         div rcx\n\
         mov rdx, rcx\n\
         imul rax, rcx",
    )?;
    println!("block:\n{block}\n");

    let march = Microarch::Haswell;
    let hardware = HardwareOracle::new(march);
    println!("simulated hardware: {:.2} cycles/iteration\n", hardware.predict(&block));

    // Train a small Ithemal surrogate on a simulator-labelled corpus.
    eprintln!("(training the Ithemal surrogate on 800 blocks; ~15s in release)");
    let corpus = Corpus::generate(800, GenConfig::default(), 7);
    let ithemal =
        IthemalSurrogate::train(march, &corpus.training_pairs(march), IthemalConfig::default());
    let uica = UicaSurrogate::new(march);

    let config = ExplainConfig::for_throughput_model();
    for model in [&ithemal as &(dyn CostModel + Sync), &uica] {
        let cached = CachedModel::new(model);
        let prediction = cached.predict(&block);
        let explainer = Explainer::new(&cached, config);
        let explanation = explainer.explain(&block, 1)?;
        println!(
            "{:<14} prediction {:>6.2} cycles  explanation {}",
            model.name(),
            prediction,
            explanation.display_features(),
        );
    }
    println!(
        "\nThe paper's diagnosis: when the neural model's explanation collapses to\n\
         eta(num_insts) while the simulator's names the div and its dependency,\n\
         the neural model is under-weighting fine-grained features — a likely\n\
         source of its larger error on blocks like this."
    );
    Ok(())
}
