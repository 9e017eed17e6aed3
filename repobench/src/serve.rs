//! The two HTTP workloads, each against a `comet-serve` child process.
//!
//! * `serve-hot`: one keep-alive connection replays a fixed mix of
//!   cached predicts, store-hit explains and health checks, so no
//!   request reaches the model or the search: the time is the front
//!   end plus the cache and store lookups.
//! * `serve-explain`: two keep-alive connections explain unseen blocks
//!   live (a quarter of them repeats of an earlier pair), each
//!   followed by a predict of an unseen block: the time is the anchors
//!   search on the server workers.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use comet_bhive::{Corpus, GenConfig};
use comet_core::{BatchExec, ExplainConfig, Explainer, Explanation};
use comet_isa::{BasicBlock, Microarch};
use comet_models::{CachedModel, CostModel, CrudeModel};
use comet_serve::wire::{ExplainResponse, ExplanationDto, PredictResponse};
use comet_store::{build_store, BuildConfig, ExplanationStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde_json::json;

use crate::client::{get, loopback_floor_us, post, steal_jiffies, Conn, ServerChild};
use crate::layers::{self, decode, CountingModel, Kind, LayerNs, Recorded};
use crate::report::{grouped_percentile, median, p99_note, push_percentiles, Metric, Outcome};
use crate::RunOpts;

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Server starts serve-hot spreads its list over.
const HOT_SHARES: usize = 5;
/// Blocks in the serve-hot store (and its predict set).
const HOT_BLOCKS: usize = 32;
/// serve-hot list length per `--seconds`.
const HOT_OPS_PER_SECOND: u64 = 20_000;
/// serve-explain explains per `--seconds` (each with one predict).
const EXPLAINS_PER_SECOND: u64 = 105;
/// Closed-loop connections of serve-explain (at most `nproc`).
const EXPLAIN_CONNECTIONS: usize = 2;
/// The serve path's explain settings (`comet-serve` defaults for the
/// crude model): ε 0.25 and model batches of 16.
const SERVE_EPSILON: f64 = 0.25;
const SERVE_BATCH: usize = 16;
/// Corpus seed of serve-explain's fixed block pool.
const EXPLAIN_POOL_SEED: u64 = 0x5e4e_b10c;

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> io::Result<WorkDir> {
        let path = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One timed request of the fixed list.
struct Exchange {
    /// The connection that sent it.
    conn: usize,
    req: usize,
    status: u16,
    us: f64,
    /// `None` when byte-identical to the last body this connection got
    /// for the same request, which keeps long lists small in memory.
    body: Option<Vec<u8>>,
}

/// Replay `ops` on connection `id`, timing each request.
fn replay(
    id: usize,
    conn: &mut Conn,
    recorded: &[Recorded],
    ops: &[usize],
) -> io::Result<Vec<Exchange>> {
    let mut out = Vec::with_capacity(ops.len());
    let mut last: Vec<Option<Vec<u8>>> = vec![None; recorded.len()];
    for &req in ops {
        let start = Instant::now();
        let (status, body) = conn.call(&recorded[req].request)?;
        let us = start.elapsed().as_secs_f64() * 1e6;
        let body = if last[req].as_ref() == Some(&body) {
            None
        } else {
            last[req] = Some(body.clone());
            Some(body)
        };
        out.push(Exchange { conn: id, req, status, us, body });
    }
    Ok(out)
}

/// Count the exchanges that fail `verify` (or answered non-200),
/// decoding each distinct body once. `exchanges` keeps each
/// connection's order.
fn count_failures(
    recorded: &[Recorded],
    exchanges: &[Exchange],
    verify: impl Fn(usize, &Recorded, &[u8]) -> Result<(), String>,
    notes: &mut Vec<String>,
) -> u64 {
    // Verdict on the last full body each (connection, request) got.
    let mut verdicts: BTreeMap<(usize, usize), Result<(), String>> = BTreeMap::new();
    let mut failed = 0;
    for x in exchanges {
        let key = (x.conn, x.req);
        if let Some(body) = &x.body {
            verdicts.insert(key, verify(x.req, &recorded[x.req], body));
        }
        let outcome = if x.status != 200 {
            Err(format!("status {}", x.status))
        } else {
            verdicts.get(&key).cloned().unwrap_or_else(|| Err("no body".into()))
        };
        match outcome {
            Ok(()) => {}
            Err(why) => {
                failed += 1;
                if failed <= 5 {
                    notes.push(format!("FAILED request {}: {why}", x.req));
                }
            }
        }
    }
    failed
}

/// Alter the first digit after `"field":` in the first `kind` response,
/// so the correctness check has something to catch.
fn corrupt(exchanges: &mut [Exchange], recorded: &[Recorded], kind: Kind, field: &str) {
    let needle = format!("\"{field}\":");
    let first = exchanges.iter_mut().find(|x| recorded[x.req].kind == kind);
    let Some(body) = first.and_then(|x| x.body.as_mut()) else { return };
    let Some(at) = body.windows(needle.len()).position(|w| w == needle.as_bytes()) else { return };
    if let Some(d) = body[at..].iter_mut().find(|b| b.is_ascii_digit()) {
        *d = b'0' + (*d - b'0' + 1) % 10;
    }
}

/// Predicts must equal the in-process crude model bit for bit.
fn verify_predict(model: &CrudeModel, r: &Recorded, body: &[u8]) -> Result<(), String> {
    let response: PredictResponse = decode(body).ok_or("undecodable predict response")?;
    let block = comet_isa::parse_block(&r.block).map_err(|e| e.to_string())?;
    let expected = model.predict(&block);
    if response.prediction.to_bits() != expected.to_bits() {
        return Err(format!("prediction {} != {expected}", response.prediction));
    }
    Ok(())
}

/// An explain response must carry `expected` from `source` at `tier`.
fn verify_explain(
    body: &[u8],
    expected: &Explanation,
    tier: &str,
    source: &str,
    epsilon: f64,
) -> Result<(), String> {
    let response: ExplainResponse = decode(body).ok_or("undecodable explain response")?;
    let mut want = ExplanationDto::from(expected);
    want.tier = tier.into();
    want.source = source.into();
    if response.epsilon.to_bits() != epsilon.to_bits() {
        return Err(format!("epsilon {} != {epsilon}", response.epsilon));
    }
    if response.explanation != want {
        return Err(format!(
            "explanation mismatch (tier {}, source {}, precision {} vs {})",
            response.explanation.tier,
            response.explanation.source,
            response.explanation.precision,
            want.precision
        ));
    }
    Ok(())
}

/// What every serve workload measures around its windows.
struct Window {
    exchanges: Vec<Exchange>,
    /// Summed over the windows, like `steal` and `deltas`.
    wall_s: f64,
    steal: u64,
    /// Median spawn-to-ready time of the server starts.
    setup_s: f64,
    /// Highest peak RSS of the servers.
    rss_mb: f64,
    /// Traced only: counter deltas over the windows, and the last
    /// server's gauges after its window.
    deltas: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    healthz_us: Vec<f64>,
}

/// One server's share of a workload: its warm-up and one request list
/// per closed-loop connection.
struct Share {
    warmup: Vec<usize>,
    lists: Vec<Vec<usize>>,
}

/// Run each share on a fresh server: start it (timing spawn to first
/// ready answer), warm up, then run the share's lists concurrently, one
/// client thread per connection, scraping `/metrics` around the window
/// when traced. Spreading a list over several starts averages out where
/// the scheduler happens to place each server's threads. Extra starts
/// up to [`SETUP_REPS`] only time the set-up.
fn measure(
    bin: &Path,
    args: &[String],
    recorded: &[Recorded],
    shares: &[Share],
    traced: bool,
) -> io::Result<Window> {
    let mut setups = Vec::new();
    for _ in shares.len()..SETUP_REPS {
        let (server, secs) = ServerChild::spawn_ready(bin, args)?;
        setups.push(secs);
        server.stop()?;
    }
    let mut w = Window {
        exchanges: Vec::new(),
        wall_s: 0.0,
        steal: 0,
        setup_s: 0.0,
        rss_mb: 0.0,
        deltas: BTreeMap::new(),
        gauges: BTreeMap::new(),
        healthz_us: Vec::new(),
    };
    let mut conn_base = 0;
    for share in shares {
        let (server, secs) = ServerChild::spawn_ready(bin, args)?;
        setups.push(secs);
        let mut conns = Vec::with_capacity(share.lists.len());
        for _ in &share.lists {
            conns.push(Conn::connect(server.addr)?);
        }
        replay(conn_base, &mut conns[0], recorded, &share.warmup)?;
        let before = if traced { server.scrape()? } else { BTreeMap::new() };
        let steal_before = steal_jiffies();
        let start = Instant::now();
        let results: Vec<io::Result<Vec<Exchange>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&share.lists)
                .enumerate()
                .map(|(id, (conn, list))| {
                    scope.spawn(move || replay(conn_base + id, conn, recorded, list))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        w.wall_s += start.elapsed().as_secs_f64();
        w.steal += steal_jiffies().saturating_sub(steal_before);
        conn_base += conns.len();
        for result in results {
            w.exchanges.extend(result?);
        }
        if traced {
            let after = server.scrape()?;
            for (series, value) in &after {
                *w.deltas.entry(series.clone()).or_insert(0.0) +=
                    value - before.get(series).copied().unwrap_or(0.0);
            }
            w.gauges = after;
        }
        if traced && w.healthz_us.is_empty() {
            // The event loop's own cost: health checks on an idle server.
            let healthz = get("/healthz");
            for _ in 0..2_000 {
                let start = Instant::now();
                conns[0].call(&healthz)?;
                w.healthz_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        w.rss_mb = w.rss_mb.max(server.peak_rss_mb()?);
        drop(conns);
        server.stop()?;
    }
    w.setup_s = median(&setups);
    Ok(w)
}

impl Window {
    fn latencies(&self, recorded: &[Recorded], kind: Kind) -> Vec<f64> {
        self.exchanges.iter().filter(|x| recorded[x.req].kind == kind).map(|x| x.us).collect()
    }

    fn delta(&self, series: &str) -> f64 {
        self.deltas.get(series).copied().unwrap_or(0.0)
    }

    /// The end-to-end metrics both serve workloads report.
    fn end_to_end(&self, recorded: &[Recorded], failed: u64) -> Vec<Metric> {
        let ok = self.exchanges.len() as u64 - failed;
        let ok_per_s = ok as f64 / self.wall_s;
        let mut metrics = vec![
            Metric::new("setup_s", "s", self.setup_s, SETUP_REPS),
            Metric::new("ok_per_s", "1/s", ok_per_s, self.exchanges.len()),
        ];
        let predicts = self.latencies(recorded, Kind::Predict);
        push_percentiles(&mut metrics, "predict", &predicts, &[(0.5, "p50"), (0.9, "p90")]);
        let explains = self.latencies(recorded, Kind::Explain);
        push_percentiles(&mut metrics, "explain", &explains, &[(0.5, "p50"), (0.9, "p90")]);
        metrics.push(Metric::new("peak_rss_mb", "MiB", self.rss_mb, 1));
        metrics
    }

    /// Per-layer metrics read from the server's own `/metrics` and the
    /// window's responses, plus the event-loop and loopback floors and
    /// the serving-layer ledger.
    fn serve_layers(
        &self,
        recorded: &[Recorded],
        predict: &LayerNs,
        explain: &LayerNs,
        notes: &mut Vec<String>,
    ) -> io::Result<Vec<Metric>> {
        let floor = loopback_floor_us(4_000)?;
        let floor_us = grouped_percentile(&floor, 0.5).unwrap_or(0.0);
        let healthz_p50 = grouped_percentile(&self.healthz_us, 0.5).unwrap_or(0.0);
        let explains = self.latencies(recorded, Kind::Explain).len() as f64;
        let cache_queries = self.delta("comet_cache_queries_total");
        let store_lookups =
            self.delta("comet_store_hits_total") + self.delta("comet_store_misses_total");
        let degraded: f64 = ["reduced-budget", "cached", "baseline"]
            .iter()
            .map(|t| self.delta(&format!("comet_explain_tier_total{{tier=\"{t}\"}}")))
            .sum();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut m = vec![
            Metric::new("net.floor_us", "us", floor_us, floor.len()),
            Metric::new("event.healthz_p50_us", "us", healthz_p50, self.healthz_us.len()),
            Metric::new(
                "queue.wait_us",
                "us",
                self.gauges.get("comet_queue_delay_seconds").copied().unwrap_or(0.0) * 1e6,
                1,
            ),
            Metric::new(
                "store.hit_ratio",
                "ratio",
                ratio(self.delta("comet_store_hits_total"), store_lookups),
                store_lookups as usize,
            ),
            Metric::new(
                "cache.hit_ratio",
                "ratio",
                ratio(self.delta("comet_cache_hits_total"), cache_queries),
                cache_queries as usize,
            ),
            Metric::new(
                "serve.search_ratio",
                "ratio",
                ratio(self.delta("comet_explain_searches_total"), explains),
                explains as usize,
            ),
            Metric::new(
                "search.batch_occupancy",
                "ratio",
                self.gauges
                    .get("comet_batch_occupancy{endpoint=\"explain\"}")
                    .copied()
                    .unwrap_or(0.0),
                1,
            ),
            Metric::new("serve.shed", "count", self.delta("comet_shed_total"), 1),
            Metric::new("serve.coalesced", "count", self.delta("comet_explain_coalesced_total"), 1),
            Metric::new(
                "serve.degraded_ratio",
                "ratio",
                ratio(degraded, explains),
                explains as usize,
            ),
        ];
        // Ledger: client p50 = loopback floor + the serving layers +
        // what no layer accounts for (today mostly the
        // reactor -> worker -> reactor handoff).
        for (kind, label, costs) in
            [(Kind::Predict, "predict", predict), (Kind::Explain, "explain", explain)]
        {
            let latencies = self.latencies(recorded, kind);
            let p50 = grouped_percentile(&latencies, 0.5).unwrap_or(0.0);
            let layers_us = costs.total() / 1e3;
            let unattributed = p50 - floor_us - layers_us;
            notes.push(format!(
                "ledger {label}: floor {floor_us:.2} + layers {layers_us:.2} (http.parse {:.0}ns, \
                 wire.decode {:.0}ns, isa.parse {:.0}ns, isa.canon {:.0}ns, route.key {:.0}ns, \
                 lookup {:.0}ns, wire.encode {:.0}ns, http.write {:.0}ns) + unattributed \
                 {unattributed:.2} = p50 {p50:.2} us",
                costs.http_parse,
                costs.wire_decode,
                costs.isa_parse,
                costs.isa_canon,
                costs.route_key,
                costs.lookup,
                costs.wire_encode,
                costs.http_write,
            ));
            m.push(Metric::new(&format!("ledger.{label}_p50_us"), "us", p50, latencies.len()));
            m.push(Metric::new(
                &format!("ledger.{label}_layers_us"),
                "us",
                layers_us,
                costs.requests,
            ));
            m.push(Metric::new(&format!("ledger.{label}_unattributed_us"), "us", unattributed, 1));
        }
        Ok(m)
    }
}

/// Serving-layer costs of a workload's requests, mixing predict and
/// explain costs by their share of the list.
pub fn serving_layer_metrics(predict: &LayerNs, explain: &LayerNs) -> Vec<Metric> {
    let n = (predict.requests + explain.requests).max(1) as f64;
    let mix = |p: f64, e: f64| (p * predict.requests as f64 + e * explain.requests as f64) / n;
    let samples = predict.requests + explain.requests;
    vec![
        Metric::new("http.parse_ns", "ns", mix(predict.http_parse, explain.http_parse), samples),
        Metric::new("http.write_ns", "ns", mix(predict.http_write, explain.http_write), samples),
        Metric::new("wire.decode_ns", "ns", mix(predict.wire_decode, explain.wire_decode), samples),
        Metric::new("wire.encode_ns", "ns", mix(predict.wire_encode, explain.wire_encode), samples),
        Metric::new("isa.parse_ns", "ns", mix(predict.isa_parse, explain.isa_parse), samples),
        Metric::new("isa.canon_ns", "ns", mix(predict.isa_canon, explain.isa_canon), samples),
        Metric::new("route.key_ns", "ns", mix(predict.route_key, explain.route_key), samples),
        Metric::new("cache.hit_ns", "ns", predict.lookup, predict.requests),
        Metric::new(
            "store.lookup_ns",
            "ns",
            explain.lookup,
            if explain.lookup > 0.0 { explain.requests } else { 0 },
        ),
    ]
}

fn predict_record(block: &str) -> Recorded {
    let body = json!({"v": 1, "block": block}).to_string();
    Recorded {
        kind: Kind::Predict,
        request: post("/v1/predict", &body),
        block: block.to_string(),
        response: Vec::new(),
    }
}

fn explain_record(block: &str, epsilon: f64, seed: u64) -> Recorded {
    let body = json!({"v": 1, "block": block, "epsilon": epsilon, "seed": seed}).to_string();
    Recorded {
        kind: Kind::Explain,
        request: post("/v1/explain", &body),
        block: block.to_string(),
        response: Vec::new(),
    }
}

/// Keep the first response each distinct request got, for the
/// per-layer replays.
fn record_responses(recorded: &mut [Recorded], exchanges: &[Exchange]) {
    for x in exchanges {
        if let (true, Some(body)) = (recorded[x.req].response.is_empty(), &x.body) {
            recorded[x.req].response = body.clone();
        }
    }
}

fn serve_args(workers: usize, extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> =
        ["--model", "crude-haswell", "--workers"].iter().map(|s| s.to_string()).collect();
    args.push(workers.to_string());
    args.extend_from_slice(extra);
    args
}

fn parsed(recorded: &[Recorded], kind: Kind) -> Vec<BasicBlock> {
    recorded
        .iter()
        .filter(|r| r.kind == kind)
        .map(|r| comet_isa::parse_block(&r.block).expect("generated block parses"))
        .collect()
}

pub fn serve_hot(opts: &RunOpts) -> io::Result<Outcome> {
    // Preparation, outside every metric: the store and the request set.
    let work = WorkDir::new("serve-hot")?;
    let store_path = work.0.join("store.comets");
    let build =
        BuildConfig { blocks: HOT_BLOCKS, corpus_seed: opts.seed, ..BuildConfig::default() };
    build_store(&store_path, &build).map_err(|e| io::Error::other(e.to_string()))?;
    let store = ExplanationStore::open(&store_path).map_err(|e| io::Error::other(e.to_string()))?;
    let (epsilon, store_seed) = (store.provenance().epsilon(), store.provenance().seed);
    let texts: Vec<String> = store.iter_texts().map(str::to_string).collect();
    let mut recorded: Vec<Recorded> = texts.iter().map(|t| predict_record(t)).collect();
    recorded.extend(texts.iter().map(|t| explain_record(t, epsilon, store_seed)));
    let healthz = recorded.len();
    recorded.push(Recorded {
        kind: Kind::Healthz,
        request: get("/healthz"),
        block: String::new(),
        response: Vec::new(),
    });

    // The fixed list: ~45% predicts, ~45% store-hit explains, ~10%
    // health checks, uniformly over the store's blocks.
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5e17_e407);
    let n_ops = HOT_OPS_PER_SECOND * opts.seconds;
    let ops: Vec<usize> = (0..n_ops)
        .map(|_| {
            let pick = rng.gen_range(0..100u32);
            let block = rng.gen_range(0..texts.len());
            match pick {
                0..=44 => block,
                45..=89 => texts.len() + block,
                _ => healthz,
            }
        })
        .collect();
    // The list is spread over HOT_SHARES server starts. Each warms up
    // with every distinct request twice (filling the prediction cache)
    // and the head of its share.
    let shares: Vec<Share> = ops
        .chunks(ops.len().div_ceil(HOT_SHARES))
        .map(|share| {
            let mut warmup: Vec<usize> = (0..recorded.len()).chain(0..recorded.len()).collect();
            warmup.extend(share.iter().take(500));
            Share { warmup, lists: vec![share.to_vec()] }
        })
        .collect();

    let args = serve_args(2, &["--store".into(), store_path.display().to_string()]);
    let mut window = measure(opts.server_bin, &args, &recorded, &shares, opts.traced)?;
    if opts.corrupt {
        corrupt(&mut window.exchanges, &recorded, Kind::Explain, "precision");
    }

    let mut notes = Vec::new();
    let model = CrudeModel::new(Microarch::Haswell);
    let failed = count_failures(
        &recorded,
        &window.exchanges,
        |_, r, body| match r.kind {
            Kind::Predict => verify_predict(&model, r, body),
            Kind::Explain => {
                let expected = store.lookup(&r.block).ok_or("block missing from the store")?;
                verify_explain(body, &expected, "store", "store", epsilon)
            }
            Kind::Healthz => {
                let ok = decode::<serde_json::Value>(body)
                    .and_then(|v| v.get("ok").and_then(serde_json::Value::as_bool));
                (ok == Some(true)).then_some(()).ok_or_else(|| "healthz not ok".to_string())
            }
        },
        &mut notes,
    );
    let end_to_end = window.end_to_end(&recorded, failed);
    let mut outcome = Outcome {
        attempted: window.exchanges.len() as u64,
        failed,
        correct: failed == 0,
        end_to_end,
        layers: Vec::new(),
        notes,
    };
    outcome.notes.push(format!("steal_jiffies over the window: {}", window.steal));
    for (kind, name) in [(Kind::Predict, "predict"), (Kind::Explain, "explain")] {
        outcome.notes.push(p99_note(name, &window.latencies(&recorded, kind)));
    }
    if opts.traced {
        record_responses(&mut recorded, &window.exchanges);
        let cache = CachedModel::new(CrudeModel::new(Microarch::Haswell));
        let predict_blocks = parsed(&recorded, Kind::Predict);
        for block in &predict_blocks {
            let _ = cache.try_predict(block);
        }
        let predict = layers::serving_layers(&recorded, &ops, Kind::Predict, &cache, None);
        let explain = layers::serving_layers(&recorded, &ops, Kind::Explain, &cache, Some(&store));
        outcome.layers = serving_layer_metrics(&predict, &explain);
        outcome.layers.extend(window.serve_layers(
            &recorded,
            &predict,
            &explain,
            &mut outcome.notes,
        )?);
        let counting = CountingModel::new(CrudeModel::new(Microarch::Haswell));
        for block in &predict_blocks {
            counting.predict(block);
        }
        outcome.layers.push(Metric::new(
            "model.crude_ns_per_query",
            "ns",
            counting.nanos() as f64 / counting.blocks().max(1) as f64,
            counting.blocks() as usize,
        ));
        outcome.layers.push(Metric::new(
            "perturb.ns_per_draw",
            "ns",
            layers::perturb_ns_per_draw(&predict_blocks, opts.seed),
            predict_blocks.len(),
        ));
        outcome.layers.push(Metric::new(
            "machine.steal_jiffies",
            "jiffies",
            window.steal as f64,
            1,
        ));
    }
    Ok(outcome)
}

/// Explain every `(block, seed)` in-process with the server's search
/// settings, on `nproc` threads. Returns the explanations in order.
fn reference_explanations<M: CostModel + Sync>(
    model: &M,
    pairs: &[(BasicBlock, u64)],
) -> Vec<Result<Explanation, String>> {
    let config = ExplainConfig { epsilon: SERVE_EPSILON, ..ExplainConfig::default() };
    let explainer = Explainer::new(model, config);
    let threads = crate::nproc().min(pairs.len()).max(1);
    let mut out: Vec<Option<Result<Explanation, String>>> =
        (0..pairs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let explainer = &explainer;
                scope.spawn(move || {
                    let exec = BatchExec::new(SERVE_BATCH, 1);
                    (t..pairs.len())
                        .step_by(threads)
                        .map(|i| {
                            let (block, seed) = &pairs[i];
                            (
                                i,
                                explainer
                                    .explain_batched(block, *seed, &exec)
                                    .map_err(|e| e.to_string()),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("reference thread panicked") {
                out[i] = Some(result);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every pair explained")).collect()
}

pub fn serve_explain(opts: &RunOpts) -> io::Result<Outcome> {
    // Preparation: a fixed pool of unseen, distinct blocks for the
    // explains, the predicts and the warm-up. The seed orders the
    // pools and picks the search seeds and the repeats, so every run
    // searches the same blocks and per-block cost differences do not
    // masquerade as run-to-run noise.
    let per_conn = (EXPLAINS_PER_SECOND * opts.seconds) as usize / EXPLAIN_CONNECTIONS;
    let n_explains = per_conn * EXPLAIN_CONNECTIONS;
    // Every fourth explain of a connection repeats one of its own
    // earlier pairs, so a repeat never overlaps its original.
    let is_repeat = |j: usize| j % 4 == 3;
    let n_fresh = (0..per_conn).filter(|&j| !is_repeat(j)).count() * EXPLAIN_CONNECTIONS;
    let warm = 8;
    let corpus =
        Corpus::generate(n_fresh + n_explains + 2 * warm, GenConfig::default(), EXPLAIN_POOL_SEED);
    let texts: Vec<String> = corpus.iter().map(|b| b.block.to_string()).collect();
    let (fresh, rest) = texts.split_at(n_fresh);
    let (predicts, warm_texts) = rest.split_at(n_explains);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xe4b1_a175);
    let mut fresh = fresh.to_vec();
    let mut predicts = predicts.to_vec();
    fresh.shuffle(&mut rng);
    predicts.shuffle(&mut rng);
    let (mut fresh, mut predicts) = (fresh.into_iter(), predicts.into_iter());

    let mut recorded = Vec::new();
    let mut warmup = Vec::new();
    for pair in warm_texts.chunks(2) {
        warmup.push(recorded.len());
        recorded.push(explain_record(&pair[0], SERVE_EPSILON, 0));
        warmup.push(recorded.len());
        recorded.push(predict_record(&pair[1]));
    }
    // Per connection: explain, then predict an unseen block.
    let mut pairs: Vec<(String, u64)> = Vec::new();
    let mut pair_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut lists: Vec<Vec<usize>> = vec![Vec::new(); EXPLAIN_CONNECTIONS];
    let mut own: Vec<Vec<usize>> = vec![Vec::new(); EXPLAIN_CONNECTIONS];
    for j in 0..per_conn {
        for conn in 0..EXPLAIN_CONNECTIONS {
            let req = if is_repeat(j) {
                own[conn][rng.gen_range(0..own[conn].len())]
            } else {
                let text = fresh.next().expect("pool holds every fresh block");
                let seed = rng.gen_range(0..1_000u64);
                pair_of.insert(recorded.len(), pairs.len());
                pairs.push((text.clone(), seed));
                recorded.push(explain_record(&text, SERVE_EPSILON, seed));
                own[conn].push(recorded.len() - 1);
                recorded.len() - 1
            };
            lists[conn].push(req);
            lists[conn].push(recorded.len());
            recorded.push(predict_record(&predicts.next().expect("pool holds every predict")));
        }
    }

    let args = serve_args(EXPLAIN_CONNECTIONS, &[]);
    let shares = [Share { warmup, lists: lists.clone() }];
    let mut window = measure(opts.server_bin, &args, &recorded, &shares, opts.traced)?;
    if opts.corrupt {
        corrupt(&mut window.exchanges, &recorded, Kind::Explain, "precision");
    }

    // The reference: every pair explained in-process. Traced runs
    // count model calls beneath the cache and the search.
    let blocks: Vec<(BasicBlock, u64)> = pairs
        .iter()
        .map(|(t, s)| (comet_isa::parse_block(t).expect("generated block parses"), *s))
        .collect();
    let crude = CountingModel::new(CrudeModel::new(Microarch::Haswell));
    let below_search = CountingModel::new(CachedModel::new(&crude));
    let reference = if opts.traced {
        reference_explanations(&below_search, &blocks)
    } else {
        reference_explanations(&CachedModel::new(CrudeModel::new(Microarch::Haswell)), &blocks)
    };
    let model = CrudeModel::new(Microarch::Haswell);
    let mut notes = Vec::new();
    let failed = count_failures(
        &recorded,
        &window.exchanges,
        |index, r, body| match r.kind {
            Kind::Predict => verify_predict(&model, r, body),
            _ => {
                match pair_of.get(&index).map(|&p| &reference[p]) {
                    Some(Ok(expected)) => {
                        verify_explain(body, expected, "full", "live", SERVE_EPSILON)
                    }
                    Some(Err(e)) => Err(format!("reference search failed: {e}")),
                    // Warm-up explains are not part of the list.
                    None => Ok(()),
                }
            }
        },
        &mut notes,
    );
    let end_to_end = window.end_to_end(&recorded, failed);
    let mut outcome = Outcome {
        attempted: window.exchanges.len() as u64,
        failed,
        correct: failed == 0,
        end_to_end,
        layers: Vec::new(),
        notes,
    };
    outcome.notes.push(format!("steal_jiffies over the window: {}", window.steal));
    for (kind, name) in [(Kind::Predict, "predict"), (Kind::Explain, "explain")] {
        outcome.notes.push(p99_note(name, &window.latencies(&recorded, kind)));
    }
    if opts.traced {
        record_responses(&mut recorded, &window.exchanges);
        let all_ops: Vec<usize> = lists.concat();
        let cache = CachedModel::new(CrudeModel::new(Microarch::Haswell));
        let predict_blocks = parsed(&recorded, Kind::Predict);
        for block in &predict_blocks {
            let _ = cache.try_predict(block);
        }
        let predict = layers::serving_layers(&recorded, &all_ops, Kind::Predict, &cache, None);
        let explain = layers::serving_layers(&recorded, &all_ops, Kind::Explain, &cache, None);
        outcome.layers = serving_layer_metrics(&predict, &explain);
        outcome.layers.extend(window.serve_layers(
            &recorded,
            &predict,
            &explain,
            &mut outcome.notes,
        )?);
        let live: Vec<&Explanation> = reference.iter().filter_map(|r| r.as_ref().ok()).collect();
        let queries: u64 = live.iter().map(|e| e.queries).sum();
        let search_ns: f64 = live.iter().map(|e| e.duration_secs * 1e9).sum();
        let anchored = live.iter().filter(|e| e.anchored).count();
        outcome.layers.extend([
            Metric::new(
                "search.queries_per_explain",
                "count",
                queries as f64 / live.len().max(1) as f64,
                live.len(),
            ),
            Metric::new(
                "search.self_ns_per_query",
                "ns",
                (search_ns - below_search.nanos() as f64) / queries.max(1) as f64,
                queries as usize,
            ),
            Metric::new(
                "search.anchored_ratio",
                "ratio",
                anchored as f64 / live.len().max(1) as f64,
                live.len(),
            ),
            Metric::new(
                "model.crude_ns_per_query",
                "ns",
                crude.nanos() as f64 / crude.blocks().max(1) as f64,
                crude.blocks() as usize,
            ),
            Metric::new(
                "perturb.ns_per_draw",
                "ns",
                layers::perturb_ns_per_draw(&parsed(&recorded, Kind::Explain), opts.seed),
                pairs.len(),
            ),
            Metric::new("machine.steal_jiffies", "jiffies", window.steal as f64, 1),
        ]);
    }
    Ok(outcome)
}
