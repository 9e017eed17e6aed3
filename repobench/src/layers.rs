//! Layer costs measured from outside the program: a counting
//! [`CostModel`] wrapper for the model/search split, and timed calls
//! into each serving crate's public functions on a workload's own
//! recorded requests and responses.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use comet_core::{PerturbConfig, Perturber};
use comet_isa::BasicBlock;
use comet_models::{CachedModel, CostModel, CrudeModel, ModelError, ResilienceReport};
use comet_serve::wire::{self, ExplainRequest, ExplainResponse, PredictRequest, PredictResponse};
use comet_serve::{http, route};
use comet_store::ExplanationStore;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Decode a JSON response body.
pub fn decode<T: serde::Deserialize>(bytes: &[u8]) -> Option<T> {
    serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// Delegates every [`CostModel`] method to `inner`, counting calls,
/// blocks and nanoseconds spent inside the model.
pub struct CountingModel<M> {
    inner: M,
    blocks: AtomicU64,
    nanos: AtomicU64,
    batch_calls: AtomicU64,
    batch_blocks: AtomicU64,
}

impl<M> CountingModel<M> {
    pub fn new(inner: M) -> CountingModel<M> {
        CountingModel {
            inner,
            blocks: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            batch_blocks: AtomicU64::new(0),
        }
    }

    fn charge(&self, blocks: usize, start: Instant) {
        self.blocks.fetch_add(blocks as u64, Relaxed);
        self.nanos.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    pub fn blocks(&self) -> u64 {
        self.blocks.load(Relaxed)
    }

    pub fn nanos(&self) -> u64 {
        self.nanos.load(Relaxed)
    }

    pub fn batch_calls(&self) -> u64 {
        self.batch_calls.load(Relaxed)
    }

    pub fn batch_blocks(&self) -> u64 {
        self.batch_blocks.load(Relaxed)
    }
}

impl<M: CostModel> CostModel for CountingModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(&self, block: &BasicBlock) -> f64 {
        let start = Instant::now();
        let cost = self.inner.predict(block);
        self.charge(1, start);
        cost
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        let start = Instant::now();
        let cost = self.inner.try_predict(block);
        self.charge(1, start);
        cost
    }

    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        let start = Instant::now();
        let costs = self.inner.predict_batch(blocks);
        self.charge(blocks.len(), start);
        self.batch_calls.fetch_add(1, Relaxed);
        self.batch_blocks.fetch_add(blocks.len() as u64, Relaxed);
        costs
    }

    fn resilience(&self) -> Option<ResilienceReport> {
        self.inner.resilience()
    }
}

/// What a recorded request asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Predict,
    Explain,
    Healthz,
}

/// One distinct request of a workload with the response it got.
#[derive(Debug, Clone)]
pub struct Recorded {
    pub kind: Kind,
    /// Full request bytes as sent.
    pub request: Vec<u8>,
    /// Block text the request carries (empty for health checks).
    pub block: String,
    /// Response body the server answered with.
    pub response: Vec<u8>,
}

impl Recorded {
    /// The body inside `request` (empty for GETs).
    pub fn body(&self) -> &[u8] {
        let end = self.request.windows(4).position(|w| w == b"\r\n\r\n");
        end.map_or(&[][..], |end| &self.request[end + 4..])
    }
}

/// Mean nanoseconds per request in each serving layer, for one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerNs {
    pub http_parse: f64,
    pub wire_decode: f64,
    pub isa_parse: f64,
    pub isa_canon: f64,
    pub route_key: f64,
    /// Cache hit (predicts) or store lookup (explains).
    pub lookup: f64,
    pub wire_encode: f64,
    pub http_write: f64,
    pub requests: usize,
}

impl LayerNs {
    pub fn total(&self) -> f64 {
        self.http_parse
            + self.wire_decode
            + self.isa_parse
            + self.isa_canon
            + self.route_key
            + self.lookup
            + self.wire_encode
            + self.http_write
    }
}

/// Time `f` over every item, repeated until at least `min_items`
/// calls ran; mean ns per call.
fn mean_ns<T>(items: &[T], min_items: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let passes = min_items.div_ceil(items.len()).max(1);
    let start = Instant::now();
    for _ in 0..passes {
        for item in items {
            f(item);
        }
    }
    start.elapsed().as_nanos() as f64 / (passes * items.len()) as f64
}

/// Calls per layer measurement: enough that timer resolution and
/// first-touch effects vanish.
const MIN_CALLS: usize = 20_000;

/// Per-layer costs of the `kind` requests in `ops` (indices into
/// `recorded`, in the workload's order, so the mix is the workload's).
/// `cache` must already hold every predicted block; `store` answers
/// explain lookups when the workload has one.
pub fn serving_layers(
    recorded: &[Recorded],
    ops: &[usize],
    kind: Kind,
    cache: &CachedModel<CrudeModel>,
    store: Option<&ExplanationStore>,
) -> LayerNs {
    let mine: Vec<&Recorded> =
        ops.iter().map(|&i| &recorded[i]).filter(|r| r.kind == kind).collect();
    if mine.is_empty() {
        return LayerNs::default();
    }
    let mut parser = http::RequestParser::new();
    let http_parse = mean_ns(&mine, MIN_CALLS, |r| {
        parser.push(&r.request);
        black_box(parser.poll().expect("recorded request parses"));
    });
    let wire_decode = mean_ns(&mine, MIN_CALLS, |r| match kind {
        Kind::Predict => {
            black_box(wire::decode_request::<PredictRequest>(r.body()).ok());
        }
        _ => {
            black_box(wire::decode_request::<ExplainRequest>(r.body()).ok());
        }
    });
    let isa_parse = mean_ns(&mine, MIN_CALLS, |r| {
        black_box(comet_isa::parse_block(&r.block).ok());
    });
    let blocks: Vec<BasicBlock> = mine
        .iter()
        .map(|r| comet_isa::parse_block(&r.block).expect("recorded block parses"))
        .collect();
    let isa_canon = mean_ns(&blocks, MIN_CALLS, |b| {
        black_box(b.to_string());
    });
    let canon: Vec<String> = blocks.iter().map(BasicBlock::to_string).collect();
    let route_key = mean_ns(&canon, MIN_CALLS, |c| match kind {
        Kind::Predict => {
            black_box(route::fnv1a(c.as_bytes()));
        }
        _ => {
            black_box(wire::explain_key(c, 0.25, 0));
        }
    });
    let lookup = match (kind, store) {
        (Kind::Predict, _) => mean_ns(&blocks, MIN_CALLS, |b| {
            black_box(cache.try_predict(b).ok());
        }),
        (_, Some(store)) => mean_ns(&canon, MIN_CALLS, |c| {
            black_box(store.lookup(c));
        }),
        _ => 0.0,
    };
    let wire_encode = match kind {
        Kind::Predict => {
            let responses: Vec<PredictResponse> =
                mine.iter().filter_map(|r| decode(&r.response)).collect();
            mean_ns(&responses, MIN_CALLS, |r| {
                black_box(serde_json::to_string(r).ok());
            })
        }
        _ => {
            let responses: Vec<ExplainResponse> =
                mine.iter().filter_map(|r| decode(&r.response)).collect();
            mean_ns(&responses, MIN_CALLS, |r| {
                black_box(serde_json::to_string(r).ok());
            })
        }
    };
    let mut out = Vec::with_capacity(4096);
    let http_write = mean_ns(&mine, MIN_CALLS, |r| {
        out.clear();
        black_box(http::write_response(&mut out, 200, "application/json", &r.response, false).ok());
    });
    LayerNs {
        http_parse,
        wire_decode,
        isa_parse,
        isa_canon,
        route_key,
        lookup,
        wire_encode,
        http_write,
        requests: mine.len(),
    }
}

/// Mean ns per perturbation draw (`Perturber::perturb_into`, nothing
/// preserved) over `blocks`.
pub fn perturb_ns_per_draw(blocks: &[BasicBlock], seed: u64) -> f64 {
    let perturbers: Vec<Perturber<'_>> =
        blocks.iter().map(|b| Perturber::new(b, PerturbConfig::default())).collect();
    let mut scratches: Vec<_> = perturbers.iter().map(Perturber::make_scratch).collect();
    let masks: Vec<_> = perturbers.iter().map(|p| p.pool().empty_mask()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let indices: Vec<usize> = (0..perturbers.len()).collect();
    mean_ns(&indices, MIN_CALLS, |&i| {
        perturbers[i].perturb_into(&masks[i], &mut rng, &mut scratches[i]);
        black_box(scratches[i].block());
    })
}
