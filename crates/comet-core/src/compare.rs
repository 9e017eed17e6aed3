//! Explanation-based model comparison (paper §7): choose between
//! similarly accurate cost models by comparing *what their predictions
//! depend on*, block by block.

use comet_isa::BasicBlock;
use comet_models::CostModel;
use serde::{Deserialize, Serialize};

use crate::bitset::splitmix64;
use crate::explain::{ExplainConfig, ExplainError, Explainer, Explanation};
use crate::feature::{FeatureKind, FeatureSet};

/// The two models' explanations for one block, with agreement metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockComparison {
    /// The block's canonical text.
    pub block: String,
    /// First model's prediction.
    pub prediction_a: f64,
    /// Second model's prediction.
    pub prediction_b: f64,
    /// First model's explanation.
    pub explanation_a: Explanation,
    /// Second model's explanation.
    pub explanation_b: Explanation,
}

impl BlockComparison {
    /// Jaccard similarity of the two explanation feature sets
    /// (1 = identical, 0 = disjoint).
    pub fn agreement(&self) -> f64 {
        let a = &self.explanation_a.features;
        let b = &self.explanation_b.features;
        let union = a.union(b).count();
        if union == 0 {
            return 1.0;
        }
        a.intersection(b).count() as f64 / union as f64
    }

    /// Whether one model leans on coarse features (η) while the other
    /// names fine-grained ones — the paper's diagnostic signature for a
    /// model under-using block structure.
    pub fn granularity_disagreement(&self) -> bool {
        let coarse = |f: &FeatureSet| f.iter().all(|x| x.kind() == FeatureKind::Eta);
        let fine = |f: &FeatureSet| f.iter().any(|x| x.kind() != FeatureKind::Eta);
        (coarse(&self.explanation_a.features) && fine(&self.explanation_b.features))
            || (coarse(&self.explanation_b.features) && fine(&self.explanation_a.features))
    }
}

/// Aggregate comparison of two cost models over a set of blocks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonReport {
    /// First model's name.
    pub model_a: String,
    /// Second model's name.
    pub model_b: String,
    /// Per-block comparisons.
    pub blocks: Vec<BlockComparison>,
}

impl ComparisonReport {
    /// Mean explanation agreement across blocks.
    pub fn mean_agreement(&self) -> f64 {
        if self.blocks.is_empty() {
            return 1.0;
        }
        self.blocks.iter().map(BlockComparison::agreement).sum::<f64>() / self.blocks.len() as f64
    }

    /// Blocks where the models disagree about feature granularity —
    /// the prime candidates for manual case analysis (§6.4).
    pub fn granularity_disagreements(&self) -> impl Iterator<Item = &BlockComparison> {
        self.blocks.iter().filter(|b| b.granularity_disagreement())
    }
}

/// Explain every block under both models and collect the comparison.
/// Both models explain block `i` with the same search seed,
/// `splitmix64(seed ^ i)`, so their explanations differ only where the
/// models do.
///
/// Fails with the first [`ExplainError`] encountered: a comparison with
/// a hole in it would silently bias the aggregate agreement metrics, so
/// callers that want partial results should compare block-by-block and
/// skip failures explicitly.
pub fn compare_models<A, B>(
    model_a: &A,
    model_b: &B,
    blocks: &[BasicBlock],
    config: ExplainConfig,
    seed: u64,
) -> Result<ComparisonReport, ExplainError>
where
    A: CostModel + Sync,
    B: CostModel + Sync,
{
    let explainer_a = Explainer::new(model_a, config);
    let explainer_b = Explainer::new(model_b, config);
    let mut comparisons = Vec::with_capacity(blocks.len());
    for (i, block) in blocks.iter().enumerate() {
        let block_seed = splitmix64(seed ^ i as u64);
        let explanation_a = explainer_a.explain(block, block_seed)?;
        let explanation_b = explainer_b.explain(block, block_seed)?;
        comparisons.push(BlockComparison {
            block: block.to_string(),
            prediction_a: explanation_a.prediction,
            prediction_b: explanation_b.prediction,
            explanation_a,
            explanation_b,
        });
    }
    Ok(ComparisonReport {
        model_a: model_a.name().to_string(),
        model_b: model_b.name().to_string(),
        blocks: comparisons,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use comet_isa::parse_block;

    struct LengthModel;

    impl CostModel for LengthModel {
        fn name(&self) -> &str {
            "length"
        }

        fn predict(&self, block: &BasicBlock) -> f64 {
            block.len() as f64 / 4.0
        }
    }

    struct DivModel;

    impl CostModel for DivModel {
        fn name(&self) -> &str {
            "div-aware"
        }

        fn predict(&self, block: &BasicBlock) -> f64 {
            if block.iter().any(|i| i.opcode == comet_isa::Opcode::Div) {
                25.0
            } else {
                block.len() as f64 / 4.0
            }
        }
    }

    fn config() -> ExplainConfig {
        ExplainConfig {
            coverage_samples: 200,
            max_samples: 200,
            ..ExplainConfig::for_crude_model()
        }
    }

    #[test]
    fn detects_granularity_disagreement_on_div_block() {
        let blocks =
            vec![parse_block("mov ecx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nimul rax, rcx")
                .unwrap()];
        let report = compare_models(&LengthModel, &DivModel, &blocks, config(), 0).unwrap();
        assert_eq!(report.blocks.len(), 1);
        assert!(report.blocks[0].granularity_disagreement());
        assert_eq!(report.granularity_disagreements().count(), 1);
        assert!(report.mean_agreement() < 1.0);
    }

    #[test]
    fn identical_models_agree() {
        let blocks = vec![parse_block("add rcx, rax\nmov rdx, rcx").unwrap()];
        let report = compare_models(&LengthModel, &LengthModel, &blocks, config(), 1).unwrap();
        assert_eq!(report.mean_agreement(), 1.0);
        assert_eq!(report.granularity_disagreements().count(), 0);
    }

    #[test]
    fn model_failure_propagates() {
        struct BrokenModel;
        impl CostModel for BrokenModel {
            fn name(&self) -> &str {
                "broken"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                f64::NAN
            }
        }
        let blocks = vec![parse_block("add rcx, rax").unwrap()];
        let result = compare_models(&LengthModel, &BrokenModel, &blocks, config(), 2);
        assert!(matches!(result, Err(ExplainError::Model(_))));
    }

    #[test]
    fn empty_report_defaults() {
        let report =
            ComparisonReport { model_a: "a".into(), model_b: "b".into(), blocks: Vec::new() };
        assert_eq!(report.mean_agreement(), 1.0);
    }
}
