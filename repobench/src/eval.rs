//! `eval-table3`: the paper's Table 3 rows (Ithemal and uiCA on Haswell
//! and Skylake) in-process, with no HTTP. Each model query is expensive
//! (LSTM kernels in `comet-nn`, the pipeline simulator in `comet-sim`),
//! so the model dominates and search bookkeeping is a small share.

use std::io;
use std::time::Instant;

use comet_bhive::{Corpus, GenConfig};
use comet_core::{BatchExec, ExplainConfig, Explainer, Explanation};
use comet_eval::experiments::{model_config, try_explain_blocks};
use comet_eval::{EvalContext, Scale};
use comet_isa::{BasicBlock, Microarch};
use comet_models::{CachedModel, CostModel, CrudeModel, IthemalConfig, IthemalSurrogate};
use comet_serve::wire::{ExplainResponse, ExplanationDto, PredictResponse};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

use crate::client::{peak_rss_mb, post, steal_jiffies};
use crate::layers::{self, CountingModel, Kind, Recorded};
use crate::report::{median, p99_note, push_percentiles, Metric, Outcome};
use crate::serve::serving_layer_metrics;
use crate::RunOpts;

/// Context builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Slices each row explains the test set in. The prediction samples and
/// the set-up builds run in the gaps between the slices.
const SLICES: usize = 3;
/// The evaluation scale the benchmark builds: a small Ithemal training
/// run, the quick preset's coverage samples, and a test set of three
/// blocks per `--seconds` that all four rows explain.
fn scale(seconds: u64) -> Scale {
    Scale {
        test_blocks: (3 * seconds) as usize,
        source_blocks: 12,
        category_blocks: 6,
        seeds: 1,
        coverage_samples: 600,
        train_blocks: 300,
        train_epochs: 4,
        ablation_blocks: 1,
    }
}
/// `comet-eval`'s corpus seed; the traced run repeats the build's
/// corpus and training steps with it to split `setup_s`.
const CORPUS_SEED: u64 = 0xB10C5;
/// Blocks of the prediction pass, and its passes over them.
const PREDICT_BLOCKS: usize = 400;
const PREDICT_PASSES: usize = 3;
/// Offset of Table 3's search seeds (`run_table3` uses `seed + 11`).
const SEED_OFFSET: u64 = 11;
/// `try_explain_blocks` seeds block `i` with `seed * STRIDE + i`.
const BLOCK_SEED_STRIDE: u64 = 0x9E37_79B9;

/// A Table 3 row: label, and whether it is an Ithemal model.
type Row<'a> = (&'static str, &'a (dyn CostModel + Sync), bool);

/// What one row's explain passes measured.
#[derive(Default)]
struct RowRun {
    results: Vec<Result<Explanation, String>>,
    wall_s: f64,
    /// Traced only: time the search spent below itself (cache and
    /// model), time in the model proper, model blocks, batch calls and
    /// the blocks they carried.
    below_ns: u64,
    model_ns: u64,
    model_blocks: u64,
    batch_calls: u64,
    batch_blocks: u64,
}

impl RowRun {
    fn absorb(&mut self, other: RowRun) {
        self.results.extend(other.results);
        self.wall_s += other.wall_s;
        self.below_ns += other.below_ns;
        self.model_ns += other.model_ns;
        self.model_blocks += other.model_blocks;
        self.batch_calls += other.batch_calls;
        self.batch_blocks += other.batch_blocks;
    }
}

/// The seed under which `try_explain_blocks` gives the block at index
/// `i` of a slice starting at `offset` the per-block seed it would get
/// at index `offset + i` of the whole test set. Block seeds are
/// `seed * K + index` with `K` odd, so `K` has an inverse mod 2^64.
fn slice_seed(seed: u64, offset: usize) -> u64 {
    // Newton's iteration doubles the correct low bits of the inverse
    // each step, from the 3 that `K * K = 1 mod 8` gives.
    let mut inverse = BLOCK_SEED_STRIDE;
    for _ in 0..5 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(BLOCK_SEED_STRIDE.wrapping_mul(inverse)));
    }
    seed.wrapping_add((offset as u64).wrapping_mul(inverse))
}

fn run_row(
    model: &(dyn CostModel + Sync),
    blocks: &[&BasicBlock],
    config: ExplainConfig,
    seed: u64,
    traced: bool,
) -> RowRun {
    let collect = |results: Vec<Result<Explanation, comet_eval::experiments::BlockFailure>>| {
        results.into_iter().map(|r| r.map_err(|e| e.to_string())).collect::<Vec<_>>()
    };
    if traced {
        let inner = CountingModel::new(model);
        let cached = CachedModel::new(&inner);
        let outer = CountingModel::new(&cached);
        let start = Instant::now();
        let results = collect(try_explain_blocks(&outer, blocks, config, seed));
        RowRun {
            results,
            wall_s: start.elapsed().as_secs_f64(),
            below_ns: outer.nanos(),
            model_ns: inner.nanos(),
            model_blocks: inner.blocks(),
            batch_calls: outer.batch_calls(),
            batch_blocks: outer.batch_blocks(),
        }
    } else {
        let cached = CachedModel::new(model);
        let start = Instant::now();
        let results = collect(try_explain_blocks(&cached, blocks, config, seed));
        RowRun { results, wall_s: start.elapsed().as_secs_f64(), ..RowRun::default() }
    }
}

pub fn eval_table3(opts: &RunOpts) -> io::Result<Outcome> {
    // The set-up and prediction samples are spread over the run, between
    // the searches, so that a slow phase of a shared machine does not
    // land on all of them at once.
    let scale = scale(opts.seconds);
    let time_build = || {
        let start = Instant::now();
        let ctx = EvalContext::build(scale);
        (ctx, start.elapsed().as_secs_f64())
    };
    let (ctx, first_setup) = time_build();
    let mut setups = vec![first_setup];
    let rows: [Row<'_>; 4] = [
        ("I (HSW)", &ctx.ithemal_hsw, true),
        ("I (SKL)", &ctx.ithemal_skl, true),
        ("U (HSW)", &ctx.uica_hsw, false),
        ("U (SKL)", &ctx.uica_skl, false),
    ];
    let config = model_config(&ctx);

    // Inputs: as in Table 3, every row explains the context's fixed
    // test set and the seed picks the search seed; the prediction pass
    // times a seeded block set.
    let search_seed = opts.seed.wrapping_add(SEED_OFFSET);
    let blocks: Vec<&BasicBlock> = ctx.test_corpus.iter().map(|b| &b.block).collect();
    let predict_set = Corpus::generate(PREDICT_BLOCKS, GenConfig::default(), opts.seed ^ 0x9e3d);
    let warm = Corpus::generate(1, GenConfig::default(), opts.seed ^ 0x3a11);

    // Warm-up: a few predictions and one explanation per row.
    for (_, model, _) in rows {
        for b in predict_set.iter().take(20) {
            std::hint::black_box(model.predict(&b.block));
        }
        let warm_blocks: Vec<&BasicBlock> = warm.iter().map(|b| &b.block).collect();
        let _ = try_explain_blocks(&CachedModel::new(model), &warm_blocks, config, search_seed);
    }

    let steal_before = steal_jiffies();
    let mut predict_us = Vec::with_capacity(PREDICT_BLOCKS * PREDICT_PASSES);
    let mut predictions = Vec::with_capacity(4 * PREDICT_BLOCKS * PREDICT_PASSES);
    let mut runs: Vec<RowRun> = rows.iter().map(|_| RowRun::default()).collect();
    let slice_len = blocks.len().div_ceil(SLICES);
    let gaps = blocks.chunks(slice_len).count() * rows.len();
    let mut gap = 0;
    for (slice, slice_blocks) in blocks.chunks(slice_len).enumerate() {
        let seed = slice_seed(search_seed, slice * slice_len);
        for (row, (_, model, _)) in rows.iter().enumerate() {
            // Prediction latency: one sample is a block predicted by all
            // four Table 3 models, on one thread with nothing else
            // running. Each gap between searches takes its share.
            for _ in 0..PREDICT_PASSES {
                for b in predict_set.iter().skip(gap).step_by(gaps) {
                    let start = Instant::now();
                    for (_, model, _) in rows {
                        predictions.push(model.predict(&b.block));
                    }
                    predict_us.push(start.elapsed().as_secs_f64() * 1e6);
                }
            }
            // The row's share of the test set, on `nproc` workers.
            runs[row].absorb(run_row(*model, slice_blocks, config, seed, opts.traced));
            if setups.len() < SETUP_REPS && gap % 3 == 2 {
                setups.push(time_build().1);
            }
            gap += 1;
        }
    }
    let steal = steal_jiffies().saturating_sub(steal_before);
    let explain_wall: f64 = runs.iter().map(|r| r.wall_s).sum();

    // Correctness, outside the timed passes: prediction passes agree
    // with each other, a seeded sample per row equals the scalar
    // reference search, and every anchored explanation meets the
    // precision threshold.
    let mut notes = Vec::new();
    // Each gap's share of the prediction set runs PREDICT_PASSES times
    // in a row; every pass must reproduce the first bit for bit.
    let mut predict_failed = 0u64;
    let mut offset = 0;
    for gap in 0..gaps {
        let per_pass = 4 * predict_set.iter().skip(gap).step_by(gaps).count();
        let chunk = &predictions[offset..offset + per_pass * PREDICT_PASSES];
        predict_failed += chunk
            .iter()
            .enumerate()
            .filter(|&(i, cost)| {
                cost.to_bits() != chunk[i % per_pass].to_bits() || !cost.is_finite()
            })
            .count() as u64;
        offset += chunk.len();
    }
    let mut failed = 0u64;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x601d);
    for ((label, model, _), run) in rows.iter().zip(&runs) {
        for (i, result) in run.results.iter().enumerate() {
            match result {
                Ok(e) if e.anchored && e.precision < config.threshold() => {
                    failed += 1;
                    notes.push(format!(
                        "FAILED {label} block {i}: anchored at precision {}",
                        e.precision
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    failed += 1;
                    notes.push(format!("FAILED {label} block {i}: {e}"));
                }
            }
        }
        let i = rng.gen_range(0..blocks.len());
        let block_seed = search_seed.wrapping_mul(BLOCK_SEED_STRIDE).wrapping_add(i as u64);
        let golden = Explainer::new(CachedModel::new(*model), config)
            .explain_batched(blocks[i], block_seed, &BatchExec::new(1, 1))
            .map_err(|e| e.to_string());
        let mut got = run.results[i].clone();
        if opts.corrupt {
            if let Ok(e) = &mut got {
                e.precision = -e.precision - 1.0;
            }
        }
        if golden != got {
            failed += 1;
            notes.push(format!(
                "FAILED {label} block {i}: differs from the BatchExec(1, 1) reference"
            ));
        }
    }

    let durations_us: Vec<f64> = runs
        .iter()
        .flat_map(|r| {
            r.results.iter().filter_map(|e| e.as_ref().ok()).map(|e| e.duration_secs * 1e6)
        })
        .collect();
    let explained = runs.iter().map(|r| r.results.len()).sum::<usize>();
    let attempted = (explained + predict_us.len()) as u64;
    let ok_per_s = explained.saturating_sub(failed as usize) as f64 / explain_wall;
    failed += predict_failed;
    let mut end_to_end = vec![
        Metric::new("setup_s", "s", median(&setups), setups.len()),
        Metric::new("ok_per_s", "1/s", ok_per_s, explained),
    ];
    push_percentiles(&mut end_to_end, "predict", &predict_us, &[(0.5, "p50"), (0.9, "p90")]);
    push_percentiles(&mut end_to_end, "explain", &durations_us, &[(0.5, "p50"), (0.9, "p90")]);
    end_to_end.push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb("/proc/self/status")?, 1));
    notes.push(format!("steal_jiffies over the window: {steal}"));
    notes.push(p99_note("predict", &predict_us));
    notes.push(p99_note("explain", &durations_us));
    let mut outcome =
        Outcome { attempted, failed, correct: failed == 0, end_to_end, layers: Vec::new(), notes };
    if opts.traced {
        outcome.layers =
            traced_layers(&rows, &runs, &blocks, &predict_set, explain_wall, &scale, search_seed);
        outcome.layers.push(Metric::new("machine.steal_jiffies", "jiffies", steal as f64, 1));
    }
    Ok(outcome)
}

fn traced_layers(
    rows: &[Row<'_>],
    runs: &[RowRun],
    blocks: &[&BasicBlock],
    predict_set: &Corpus,
    explain_wall: f64,
    scale: &Scale,
    seed: u64,
) -> Vec<Metric> {
    let explanations: Vec<&Explanation> =
        runs.iter().flat_map(|r| r.results.iter().filter_map(|e| e.as_ref().ok())).collect();
    let n = explanations.len().max(1) as f64;
    let queries: u64 = explanations.iter().map(|e| e.queries).sum();
    let search_ns: f64 = explanations.iter().map(|e| e.duration_secs * 1e9).sum();
    let below_ns: u64 = runs.iter().map(|r| r.below_ns).sum();
    let model_ns: u64 = runs.iter().map(|r| r.model_ns).sum();
    let batch_calls: u64 = runs.iter().map(|r| r.batch_calls).sum();
    let batch_blocks: u64 = runs.iter().map(|r| r.batch_blocks).sum();
    let workers = crate::nproc().min(blocks.len()).max(1) as f64;
    let per_model = |ithemal: bool| {
        let (ns, blocks) = rows
            .iter()
            .zip(runs)
            .filter(|((_, _, is_ithemal), _)| *is_ithemal == ithemal)
            .fold((0u64, 0u64), |(ns, b), (_, r)| (ns + r.model_ns, b + r.model_blocks));
        (ns as f64 / blocks.max(1) as f64, blocks as usize)
    };
    let (ithemal_ns, ithemal_blocks) = per_model(true);
    let (uica_ns, uica_blocks) = per_model(false);

    // The build's corpus and training steps, repeated to split setup_s.
    let config = GenConfig::default();
    let start = Instant::now();
    let _ = Corpus::generate(scale.test_blocks, config, CORPUS_SEED);
    let _ = Corpus::generate_by_source(scale.source_blocks, config, CORPUS_SEED + 1);
    let _ = Corpus::generate_by_category(scale.category_blocks, config, CORPUS_SEED + 2);
    let train = Corpus::generate(scale.train_blocks, config, CORPUS_SEED + 3);
    let corpus_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let train_config = IthemalConfig { epochs: scale.train_epochs, ..IthemalConfig::default() };
    for march in [Microarch::Haswell, Microarch::Skylake] {
        std::hint::black_box(IthemalSurrogate::train(
            march,
            &train.training_pairs(march),
            train_config,
        ));
    }
    let train_s = start.elapsed().as_secs_f64();

    // The serving layers these explanations and predictions would pass
    // through, on the workload's own blocks and results.
    let mut recorded: Vec<Recorded> = Vec::new();
    for run in runs {
        for (i, result) in run.results.iter().enumerate() {
            let Ok(e) = result else { continue };
            let block = blocks[i].to_string();
            let body = json!({"v": 1, "block": block, "epsilon": 0.5, "seed": seed}).to_string();
            let response = ExplainResponse {
                v: 1,
                model: String::new(),
                model_version: 1,
                epsilon: 0.5,
                seed,
                coalesced: false,
                explanation: ExplanationDto::from(e),
            };
            recorded.push(Recorded {
                kind: Kind::Explain,
                request: post("/v1/explain", &body),
                block,
                response: serde_json::to_string(&response).expect("response encodes").into_bytes(),
            });
        }
    }
    let crude = CrudeModel::new(Microarch::Haswell);
    for b in predict_set.iter() {
        let block = b.block.to_string();
        let body = json!({"v": 1, "block": block}).to_string();
        let response = PredictResponse {
            v: 1,
            model: String::new(),
            model_version: 1,
            prediction: crude.predict(&b.block),
        };
        recorded.push(Recorded {
            kind: Kind::Predict,
            request: post("/v1/predict", &body),
            block,
            response: serde_json::to_string(&response).expect("response encodes").into_bytes(),
        });
    }
    let ops: Vec<usize> = (0..recorded.len()).collect();
    let cache = CachedModel::new(CrudeModel::new(Microarch::Haswell));
    for b in predict_set.iter() {
        let _ = cache.try_predict(&b.block);
    }
    let predict = layers::serving_layers(&recorded, &ops, Kind::Predict, &cache, None);
    let explain = layers::serving_layers(&recorded, &ops, Kind::Explain, &cache, None);
    let owned: Vec<BasicBlock> = blocks.iter().map(|b| (*b).clone()).collect();

    let mut m = serving_layer_metrics(&predict, &explain);
    m.extend([
        Metric::new(
            "perturb.ns_per_draw",
            "ns",
            layers::perturb_ns_per_draw(&owned, seed),
            owned.len(),
        ),
        Metric::new("search.queries_per_explain", "count", queries as f64 / n, explanations.len()),
        Metric::new(
            "search.self_ns_per_query",
            "ns",
            (search_ns - below_ns as f64) / queries.max(1) as f64,
            queries as usize,
        ),
        Metric::new(
            "search.batch_occupancy",
            "ratio",
            batch_blocks as f64
                / (batch_calls.max(1) * comet_eval::Durability::default().batch as u64) as f64,
            batch_calls as usize,
        ),
        Metric::new(
            "search.anchored_ratio",
            "ratio",
            explanations.iter().filter(|e| e.anchored).count() as f64 / n,
            explanations.len(),
        ),
        Metric::new("model.ithemal_ns_per_query", "ns", ithemal_ns, ithemal_blocks),
        Metric::new("model.uica_ns_per_query", "ns", uica_ns, uica_blocks),
        Metric::new("nn.train_s", "s", train_s, 2),
        Metric::new("bhive.corpus_s", "s", corpus_s, 4),
        Metric::new(
            "par.busy_share",
            "ratio",
            search_ns / 1e9 / (workers * explain_wall),
            explanations.len(),
        ),
        Metric::new(
            "model.busy_share",
            "ratio",
            model_ns as f64 / 1e9 / (workers * explain_wall),
            1,
        ),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_seeds_match_whole_set_seeds() {
        for (seed, offset, i) in [(11u64, 10usize, 3u64), (u64::MAX, 20, 9), (0, 1, 0)] {
            let sliced = slice_seed(seed, offset).wrapping_mul(BLOCK_SEED_STRIDE).wrapping_add(i);
            let whole = seed.wrapping_mul(BLOCK_SEED_STRIDE).wrapping_add(offset as u64 + i);
            assert_eq!(sliced, whole);
        }
    }
}
