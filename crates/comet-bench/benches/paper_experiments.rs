//! Micro-scale harness benches: one benchmark per paper table/figure,
//! each running a miniature version of the corresponding experiment
//! pipeline end-to-end (the full-scale regenerators live in the
//! `comet-eval` binary; see DESIGN.md §4).

use comet_bhive::{Category, Corpus, GenConfig, Source};
use comet_core::{ground_truth, is_accurate, ExplainConfig, Explainer};
use comet_isa::{parse_block, Microarch};
use comet_models::{mape, CostModel, CrudeModel, UicaSurrogate};
use criterion::{criterion_group, criterion_main, Criterion};

fn mini_config() -> ExplainConfig {
    ExplainConfig { coverage_samples: 200, max_samples: 200, ..ExplainConfig::for_crude_model() }
}

/// Table 2 pipeline: ground truth + explanation + accuracy over a
/// 4-block corpus.
fn bench_table2(c: &mut Criterion) {
    let corpus = Corpus::generate(4, GenConfig::default(), 77);
    let crude = CrudeModel::new(Microarch::Haswell);
    c.bench_function("paper/table2_accuracy_pipeline", |b| {
        b.iter(|| {
            let explainer = Explainer::new(crude, mini_config());
            corpus
                .iter()
                .enumerate()
                .filter(|(i, entry)| {
                    let gt = ground_truth(&crude, &entry.block);
                    let e = explainer.explain(&entry.block, 1 + *i as u64).unwrap();
                    is_accurate(&e.features, &gt)
                })
                .count()
        })
    });
}

/// Table 3 pipeline: precision/coverage of a uiCA-surrogate
/// explanation.
fn bench_table3(c: &mut Criterion) {
    let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
    let uica = UicaSurrogate::new(Microarch::Haswell);
    c.bench_function("paper/table3_precision_coverage_pipeline", |b| {
        b.iter(|| {
            let config = ExplainConfig {
                coverage_samples: 200,
                max_samples: 150,
                ..ExplainConfig::for_throughput_model()
            };
            let explainer = Explainer::new(&uica, config);
            let e = explainer.explain(std::hint::black_box(&block), 2).unwrap();
            (e.precision, e.coverage)
        })
    });
}

/// Figures 2-4 pipeline: MAPE + feature-mix for one partition.
fn bench_figures(c: &mut Criterion) {
    let corpus = Corpus::generate_by_category(2, GenConfig::default(), 78);
    let uica = UicaSurrogate::new(Microarch::Haswell);
    c.bench_function("paper/fig2_4_partition_mape", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for category in Category::ALL {
                let blocks = corpus.by_category(category);
                let labelled: Vec<_> =
                    blocks.iter().map(|e| (e.block.clone(), e.throughput_hsw)).collect();
                total += mape(&&uica, &labelled);
            }
            total
        })
    });
    let source_corpus = Corpus::generate_by_source(3, GenConfig::default(), 79);
    c.bench_function("paper/fig3_source_partition_gen", |b| {
        b.iter(|| Source::ALL.iter().map(|s| source_corpus.by_source(*s).len()).sum::<usize>())
    });
}

/// Figures 5-8 pipeline: one ablation cell (threshold 0.8).
fn bench_ablation(c: &mut Criterion) {
    let corpus = Corpus::generate(2, GenConfig::default(), 80);
    let crude = CrudeModel::new(Microarch::Haswell);
    c.bench_function("paper/fig5_8_ablation_cell", |b| {
        b.iter(|| {
            let config = ExplainConfig { delta: 0.2, ..mini_config() };
            let explainer = Explainer::new(crude, config);
            corpus
                .iter()
                .enumerate()
                .map(|(i, e)| explainer.explain(&e.block, 3 + i as u64).unwrap().precision)
                .sum::<f64>()
        })
    });
}

/// Appendix F pipeline: perturbation-space estimation for the paper's
/// listing blocks.
fn bench_appendix_f(c: &mut Criterion) {
    let beta1 = parse_block(
        "vdivss xmm0, xmm0, xmm6\nvmulss xmm7, xmm0, xmm0\nvxorps xmm0, xmm0, xmm5\nvaddss xmm7, xmm7, xmm3\nvmulss xmm6, xmm6, xmm7\nvdivss xmm6, xmm3, xmm6\nvmulss xmm0, xmm6, xmm0",
    )
    .unwrap();
    c.bench_function("paper/appendix_f_space_estimate", |b| {
        b.iter(|| {
            comet_core::space::estimate_space(
                std::hint::black_box(&beta1),
                &comet_core::FeatureSet::new(),
            )
        })
    });
}

/// Case-study pipeline: uiCA prediction for the paper's Listing 2.
fn bench_case_studies(c: &mut Criterion) {
    let block = parse_block(
        "lea rdx, [rax + 1]\nmov qword ptr [rdi + 24], rdx\nmov byte ptr [rax], 80\nmov rsi, qword ptr [r14 + 32]\nmov rdi, rbp",
    )
    .unwrap();
    let uica = UicaSurrogate::new(Microarch::Haswell);
    c.bench_function("paper/case_study_prediction", |b| {
        b.iter(|| uica.predict(std::hint::black_box(&block)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table2, bench_table3, bench_figures, bench_ablation, bench_appendix_f, bench_case_studies
}
criterion_main!(benches);
