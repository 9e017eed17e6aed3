//! End-to-end explanation benchmarks. The paper reports ~1 minute per
//! block (Python); this measures the Rust pipeline's latency.

use comet_core::{precision, ExplainConfig, Explainer};
use comet_isa::{parse_block, Microarch};
use comet_models::CrudeModel;
use criterion::{criterion_group, criterion_main, Criterion};

const SMALL: &str = "add rcx, rax\nmov rdx, rcx\npop rbx";
const CASE2: &str =
    "mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx";

fn bench_explain(c: &mut Criterion) {
    let mut group = c.benchmark_group("explain/crude");
    group.sample_size(10);
    let config = ExplainConfig { coverage_samples: 500, ..ExplainConfig::for_crude_model() };
    for (name, text) in [("3_instr_block", SMALL), ("6_instr_div_block", CASE2)] {
        let block = parse_block(text).unwrap();
        let explainer = Explainer::new(CrudeModel::new(Microarch::Haswell), config);
        group.bench_function(name, |b| {
            b.iter(|| explainer.explain(std::hint::black_box(&block), 7))
        });
    }
    group.finish();
}

fn bench_kl_bounds(c: &mut Criterion) {
    c.bench_function("precision/kl_confidence_bounds", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for n in [10u64, 100, 1000] {
                acc += precision::kl_ucb(std::hint::black_box(0.73), n, 4.0);
                acc += precision::kl_lcb(std::hint::black_box(0.73), n, 4.0);
            }
            acc
        })
    });
}

criterion_group!(benches, bench_explain, bench_kl_bounds);
criterion_main!(benches);
