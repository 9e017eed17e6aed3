//! COMET's explanation search (paper §5.2): an Anchors-style beam
//! search over feature sets, with precision estimated by KL-LUCB
//! Bernoulli bounds and coverage estimated empirically over a shared
//! pool of unconstrained perturbations.
//!
//! There is one search, [`Explainer::explain_batched`]; an explanation
//! is a pure function of `(block, seed, config)` for a deterministic
//! model, whatever [`BatchExec`] runs it. [`Explainer::explain`] is the
//! same search on the calling thread alone.
//!
//! The model is treated as an untrusted black box: every query goes
//! through [`CostModel::try_predict`], individual query failures are
//! tolerated (the sample is skipped, the fault counted, the budget
//! charged), and [`Explainer::explain`] returns a typed
//! [`ExplainError`] only when no explanation can be produced at all.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use comet_isa::BasicBlock;
use comet_models::{CostModel, ModelError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::bitset::{splitmix64, FeatureMask};
use crate::feature::FeatureSet;
use crate::par::WorkerPool;
use crate::perturb::{PerturbConfig, PerturbScratch, Perturber};
use crate::precision::{exploration_beta, BernoulliEstimate};

/// Explanation-search configuration. Defaults follow the paper:
/// precision threshold 0.7 (δ = 0.3), ε = 0.5 cycles, Anchors' default
/// beam hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExplainConfig {
    /// Radius of the acceptable-cost ball T around M(β). The paper uses
    /// 0.25 for the crude model C and 0.5 cycles for Ithemal/uiCA.
    pub epsilon: f64,
    /// Precision threshold is `1 - delta` (paper: δ = 0.3).
    pub delta: f64,
    /// Beam width (Anchors default: 10).
    pub beam_width: usize,
    /// Initial samples per candidate feature set.
    pub init_samples: usize,
    /// Additional samples drawn per LUCB refinement round.
    pub batch_size: usize,
    /// Total sample budget per candidate.
    pub max_samples: usize,
    /// Samples from Π(∅) used for empirical coverage (paper: 10k).
    pub coverage_samples: usize,
    /// Failure probability for the KL confidence bounds.
    pub confidence: f64,
    /// LUCB stopping tolerance on the top-k boundary gap.
    pub tolerance: f64,
    /// Maximum explanation cardinality (simplicity cap).
    pub max_features: usize,
    /// Global cap on model queries per explanation; when exhausted the
    /// search returns its current best candidate. Bounds worst-case
    /// latency on models where few feature sets anchor. Failed queries
    /// are charged too, so a faulting model cannot stall the search.
    pub max_total_queries: u64,
    /// Perturbation-algorithm parameters.
    pub perturb: PerturbConfig,
}

impl Default for ExplainConfig {
    fn default() -> ExplainConfig {
        ExplainConfig {
            epsilon: 0.5,
            delta: 0.3,
            beam_width: 10,
            init_samples: 16,
            batch_size: 8,
            max_samples: 600,
            coverage_samples: 2_000,
            confidence: 0.05,
            tolerance: 0.15,
            max_features: 4,
            max_total_queries: 25_000,
            perturb: PerturbConfig::default(),
        }
    }
}

impl ExplainConfig {
    /// The paper's settings for the crude analytical model C
    /// (ε = 0.25, Appendix E).
    pub fn for_crude_model() -> ExplainConfig {
        ExplainConfig { epsilon: 0.25, ..ExplainConfig::default() }
    }

    /// The paper's settings for practical throughput models
    /// (ε = 0.5 cycles).
    pub fn for_throughput_model() -> ExplainConfig {
        ExplainConfig::default()
    }

    /// The precision threshold `1 - delta`.
    pub fn threshold(&self) -> f64 {
        1.0 - self.delta
    }

    /// A reduced-budget variant of this config for degraded serving:
    /// roughly an eighth of the model-query budget (fewer KL-LUCB
    /// draws per candidate, a smaller coverage pool, a narrower beam,
    /// and a lower cardinality cap). The statistical machinery is
    /// unchanged — only the budgets shrink — so the result is a
    /// legitimate, if less certain, anchors explanation.
    pub fn reduced_budget(&self) -> ExplainConfig {
        ExplainConfig {
            beam_width: self.beam_width.clamp(1, 4),
            init_samples: (self.init_samples / 2).max(4),
            max_samples: (self.max_samples / 4).max(16),
            coverage_samples: (self.coverage_samples / 4).max(100),
            max_features: self.max_features.clamp(1, 3),
            max_total_queries: (self.max_total_queries / 8).max(500),
            ..*self
        }
    }

    /// A minimal single-feature probe for the last rung of a
    /// degradation ladder: greedily scores individual features with a
    /// handful of draws and returns the best one. Hundreds of model
    /// queries instead of tens of thousands — cheap enough to run even
    /// under a nearly exhausted deadline.
    pub fn baseline_probe(&self) -> ExplainConfig {
        ExplainConfig {
            beam_width: 1,
            init_samples: 8,
            batch_size: 8,
            max_samples: 16,
            coverage_samples: 64,
            max_features: 1,
            max_total_queries: 256,
            ..*self
        }
    }
}

/// Why no explanation could be produced.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExplainError {
    /// The model failed on the original, unperturbed block, so there is
    /// no reference prediction to explain. (Failures on *perturbed*
    /// blocks are tolerated and surface as [`Explanation::faults`].)
    Model(ModelError),
    /// The block has no extractable features (e.g. an empty block).
    NoFeatures,
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::Model(e) => {
                write!(f, "cost model failed on the explained block: {e}")
            }
            ExplainError::NoFeatures => write!(f, "block has no extractable features"),
        }
    }
}

impl std::error::Error for ExplainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExplainError::Model(e) => Some(e),
            ExplainError::NoFeatures => None,
        }
    }
}

impl From<ModelError> for ExplainError {
    fn from(e: ModelError) -> ExplainError {
        ExplainError::Model(e)
    }
}

/// A COMET explanation: the feature set, its estimated quality, and
/// bookkeeping about the search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Explanation {
    /// The explanation feature set F̂*.
    pub features: FeatureSet,
    /// Estimated precision (probabilistic faithfulness).
    pub precision: f64,
    /// Estimated coverage (probabilistic generalizability).
    pub coverage: f64,
    /// The model's prediction for the explained block.
    pub prediction: f64,
    /// Whether the precision threshold was actually reached (if false,
    /// this is the best-effort highest-precision candidate).
    pub anchored: bool,
    /// Number of cost-model queries spent (failed queries included).
    pub queries: u64,
    /// Queries that returned an error; the sampler skips them, so high
    /// fault counts mean the estimates rest on fewer samples.
    #[serde(default)]
    pub faults: u64,
    /// Model-layer retries spent during this explanation (reported by
    /// [`CostModel::resilience`]; zero for models that do not track
    /// them).
    #[serde(default)]
    pub retries: u64,
    /// True when the explanation was produced under degraded
    /// conditions: at least one query faulted, or the model reports
    /// itself degraded (e.g. a tripped circuit breaker serving
    /// fallback predictions).
    #[serde(default)]
    pub degraded: bool,
    /// Wall-clock seconds the search took. Diagnostic only: excluded
    /// from serialization (journals stay byte-stable across machines
    /// and resumes) and from equality (see the `PartialEq` impl).
    #[serde(skip)]
    pub duration_secs: f64,
}

/// Equality ignores [`Explanation::duration_secs`]: timing varies
/// between identical-seed runs, and the determinism contract ("same
/// seed, same explanation") is about search *content*, which is what
/// journal resume-identity checks compare.
impl PartialEq for Explanation {
    fn eq(&self, other: &Explanation) -> bool {
        self.features == other.features
            && self.precision == other.precision
            && self.coverage == other.coverage
            && self.prediction == other.prediction
            && self.anchored == other.anchored
            && self.queries == other.queries
            && self.faults == other.faults
            && self.retries == other.retries
            && self.degraded == other.degraded
    }
}

impl Explanation {
    /// The explanation rendered in the paper's notation.
    pub fn display_features(&self) -> String {
        crate::feature::format_feature_set(&self.features)
    }

    /// Model queries per wall-clock second, the search's throughput.
    /// Zero when no duration was recorded (e.g. deserialized records).
    pub fn queries_per_sec(&self) -> f64 {
        if self.duration_secs > 0.0 {
            self.queries as f64 / self.duration_secs
        } else {
            0.0
        }
    }

    /// Fraction of the explanation's features of each kind, in
    /// [`FeatureKind`](crate::feature::FeatureKind)`::ALL` order
    /// (`[inst, dep, eta]`). All zeros for an empty feature set.
    /// Corpus-level rollups (the Figure 3/4 feature-mix breakdowns and
    /// the precomputed store's importance lanes) aggregate these.
    pub fn kind_fractions(&self) -> [f64; 3] {
        let mut counts = [0u32; 3];
        for feature in &self.features {
            let slot = crate::feature::FeatureKind::ALL
                .iter()
                .position(|k| *k == feature.kind())
                .expect("FeatureKind::ALL covers every kind");
            counts[slot] += 1;
        }
        let total = self.features.len();
        if total == 0 {
            return [0.0; 3];
        }
        counts.map(|c| f64::from(c) / total as f64)
    }
}

/// The COMET explainer for a given cost model.
#[derive(Debug)]
pub struct Explainer<M> {
    model: M,
    config: ExplainConfig,
}

/// A beam-search candidate: a feature subset (as a bitmask over the
/// perturber's interned [`FeaturePool`](crate::FeaturePool)) plus its
/// running precision estimate. Masks make beam dedup integer hashing
/// and subset checks bitwise AND-compares.
struct Candidate {
    features: FeatureMask,
    est: BernoulliEstimate,
}

/// One KL-LUCB selection pass: rank candidates by point estimate, split
/// at `k`, and return (weakest lower bound in the top set, strongest
/// upper bound outside it, boundary gap).
///
/// Each candidate's bound is inverted exactly once per pass, into
/// `bounds` (ranks `< k` hold LCBs, the rest UCBs). The previous
/// formulation inverted bounds inside `min_by`/`max_by` comparators —
/// roughly twice per comparison — which made bound inversion, not
/// model queries, the dominant cost of the whole search. `order` and
/// `bounds` are caller-held scratch so steady-state rounds stay off the
/// heap. Selection and tie-breaking semantics are unchanged: candidates
/// are visited in the same ranked order with the same bound values.
fn lucb_select(
    candidates: &[Candidate],
    k: usize,
    beta: f64,
    order: &mut Vec<usize>,
    bounds: &mut Vec<f64>,
) -> (usize, Option<usize>, f64) {
    order.clear();
    order.extend(0..candidates.len());
    order.sort_by(|&a, &b| candidates[b].est.mean().total_cmp(&candidates[a].est.mean()));
    bounds.clear();
    bounds.extend(order.iter().enumerate().map(|(rank, &c)| {
        if rank < k {
            candidates[c].est.lcb(beta)
        } else {
            candidates[c].est.ucb(beta)
        }
    }));
    let (weakest_in, weakest_lcb) = order[..k]
        .iter()
        .zip(&bounds[..k])
        .min_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(&c, &lcb)| (c, lcb))
        // Invariant: `k >= 1` because `candidates` is non-empty, so the
        // top set is never empty.
        .expect("non-empty top set");
    let strongest_out = order[k..]
        .iter()
        .zip(&bounds[k..])
        .max_by(|(_, a), (_, b)| a.total_cmp(b))
        .map(|(&c, &ucb)| (c, ucb));
    let gap = match strongest_out {
        Some((_, ucb)) => ucb - weakest_lcb,
        None => 0.0,
    };
    (weakest_in, strongest_out.map(|(c, _)| c), gap)
}

impl<M: CostModel> Explainer<M> {
    /// Create an explainer. The model is queried, never introspected.
    pub fn new(model: M, config: ExplainConfig) -> Explainer<M> {
        Explainer { model, config }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The active configuration.
    pub fn config(&self) -> &ExplainConfig {
        &self.config
    }
}

/// Execution resources for [`Explainer::explain_batched`]: a persistent
/// worker pool plus the target model-batch size, with cumulative
/// batching statistics.
///
/// Create one `BatchExec` per explaining thread (pool threads are the
/// expensive part) and reuse it across explanations; the counters
/// accumulate across every explanation run on it, so services can
/// export occupancy directly.
#[derive(Debug)]
pub struct BatchExec {
    pool: WorkerPool,
    batch: usize,
    batched_queries: AtomicU64,
    batch_chunks: AtomicU64,
    inline_queries: AtomicU64,
    /// EWMA nanoseconds per draw through the batched dispatch path
    /// (f64 bits; 0 = no observation yet).
    batched_ns: AtomicU64,
    /// EWMA nanoseconds per draw through the inline dispatch path.
    inline_ns: AtomicU64,
    /// Rounds dispatched since the adaptive choice became informed;
    /// drives periodic probing of the slower path.
    probe_counter: AtomicU64,
}

/// How often the adaptive dispatcher re-probes the currently-slower
/// path, in rounds, when the two paths are close (within 1.5×) and when
/// one is clearly dominant.
const PROBE_INTERVAL_CLOSE: u64 = 32;
const PROBE_INTERVAL_SKEWED: u64 = 256;

impl BatchExec {
    /// A batch executor issuing model batches of up to `batch` blocks
    /// across `workers` pool workers (both clamped to at least 1).
    /// `BatchExec::new(1, 1)` runs single-item batches on the calling
    /// thread only; it spawns no threads.
    pub fn new(batch: usize, workers: usize) -> BatchExec {
        BatchExec {
            pool: WorkerPool::new(workers),
            batch: batch.max(1),
            batched_queries: AtomicU64::new(0),
            batch_chunks: AtomicU64::new(0),
            inline_queries: AtomicU64::new(0),
            batched_ns: AtomicU64::new(0),
            inline_ns: AtomicU64::new(0),
            probe_counter: AtomicU64::new(0),
        }
    }

    /// Maximum blocks per model batch.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Total pool workers, including the calling thread.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Model queries issued through `predict_batch` so far (cumulative
    /// across explanations).
    pub fn queries_batched(&self) -> u64 {
        self.batched_queries.load(Ordering::Relaxed)
    }

    /// `predict_batch` calls issued so far.
    pub fn chunks(&self) -> u64 {
        self.batch_chunks.load(Ordering::Relaxed)
    }

    /// Mean batch occupancy: queries per chunk over the configured
    /// batch size, in `(0, 1]`. Zero before any chunk has run.
    pub fn occupancy(&self) -> f64 {
        let chunks = self.chunks();
        if chunks == 0 {
            return 0.0;
        }
        self.queries_batched() as f64 / (chunks * self.batch as u64) as f64
    }

    /// Model queries issued through the *inline* dispatch path — the
    /// adaptive degradation that runs a round's draws one by one on the
    /// calling thread when measurement says batch staging doesn't pay
    /// (cumulative across explanations).
    pub fn queries_inline(&self) -> u64 {
        self.inline_queries.load(Ordering::Relaxed)
    }

    /// Adaptive mode choice for the next dispatch round: `true` to run
    /// it batched across the pool, `false` to run it inline.
    ///
    /// Until each path has been timed once the choice is forced — first
    /// batched, then inline — so both EWMAs get seeded; afterwards the
    /// faster per-draw EWMA wins, with the loser re-probed every
    /// [`PROBE_INTERVAL_CLOSE`] rounds (every [`PROBE_INTERVAL_SKEWED`]
    /// when the gap exceeds 1.5×, so a clearly-dominant choice is
    /// disturbed rarely). For a deterministic model the mode cannot
    /// change any outcome — both paths evaluate the same counter-seeded
    /// draws — so this timing feedback never breaks bitwise
    /// reproducibility.
    fn choose_batched(&self) -> bool {
        let batched = f64::from_bits(self.batched_ns.load(Ordering::Relaxed));
        if batched == 0.0 {
            return true;
        }
        let inline = f64::from_bits(self.inline_ns.load(Ordering::Relaxed));
        if inline == 0.0 {
            return false;
        }
        let batched_faster = batched <= inline;
        let ratio = if batched_faster { inline / batched } else { batched / inline };
        let interval = if ratio > 1.5 { PROBE_INTERVAL_SKEWED } else { PROBE_INTERVAL_CLOSE };
        let round = self.probe_counter.fetch_add(1, Ordering::Relaxed);
        if round % interval == interval - 1 {
            return !batched_faster;
        }
        batched_faster
    }

    /// Fold a round's measured per-draw cost into the chosen path's
    /// EWMA (weight 0.3 on the new observation).
    fn observe(&self, batched: bool, ns_per_draw: f64) {
        let cell = if batched { &self.batched_ns } else { &self.inline_ns };
        let old = f64::from_bits(cell.load(Ordering::Relaxed));
        let new = if old == 0.0 { ns_per_draw } else { old * 0.7 + ns_per_draw * 0.3 };
        cell.store(new.to_bits(), Ordering::Relaxed);
    }
}

/// Per-worker mutable state for the batched search: perturbation
/// scratch plus the block batch handed to `predict_batch`. Batch slots
/// are rebuilt in place ([`BasicBlock::rebuild_from`]) so the steady
/// state allocates nothing.
struct WorkerState {
    scratch: PerturbScratch,
    batch: Vec<BasicBlock>,
}

/// Outcome codes written by batch workers: one byte per planned draw.
const DRAW_OUT: u8 = 0;
const DRAW_IN: u8 = 1;
const DRAW_FAULT: u8 = 2;

/// Stream tag separating coverage-pool draws from candidate draws.
const COVERAGE_TAG: u64 = 0x636F_7665_7261_6765; // "coverage"

/// Coverage perturbations claimed per cursor grab (they make no model
/// queries, so chunking is purely an atomic-contention knob).
const COVERAGE_CHUNK: usize = 64;

/// One dispatch round of the batched search: draws planned — and their
/// query budget charged — *before* any worker runs, so the set of draws
/// is a pure function of the search state and never depends on batch
/// size, pool size, or thread scheduling.
#[derive(Default)]
struct Round {
    /// Distinct masks this round samples, indexed by the jobs below.
    masks: Vec<FeatureMask>,
    /// `(mask slot, per-draw RNG seed)`, in planning order.
    jobs: Vec<(usize, u64)>,
}

impl Round {
    /// Reset for reuse, keeping the allocations.
    fn clear(&mut self) {
        self.masks.clear();
        self.jobs.clear();
    }

    /// Plan up to `wanted` draws for `mask`, clipped by the remaining
    /// global query budget (each planned draw charges one query, fault
    /// or not). Every draw gets a
    /// counter-derived RNG seed
    /// `splitmix64(splitmix64(seed ^ stable_hash(mask)) ^ index)` where
    /// `index` is the mask's lifetime draw counter — so the stream a
    /// draw uses depends only on *which draw for which mask* it is,
    /// never on which worker runs it or which batch it lands in.
    /// Returns the planned range within this round's jobs.
    fn plan(
        &mut self,
        mask: &FeatureMask,
        wanted: u64,
        seed: u64,
        drawn: &mut HashMap<FeatureMask, u64>,
        queries: &mut u64,
        budget: u64,
    ) -> Range<usize> {
        let n = wanted.min(budget.saturating_sub(*queries));
        *queries += n;
        let start = self.jobs.len();
        if n > 0 {
            let slot = self.masks.len();
            self.masks.push(mask.clone());
            let counter = drawn.entry(mask.clone()).or_insert(0);
            let stream = splitmix64(seed ^ mask.stable_hash());
            for j in 0..n {
                self.jobs.push((slot, splitmix64(stream ^ (*counter + j))));
            }
            *counter += n;
        }
        start..self.jobs.len()
    }
}

/// Fold a round's outcome slice into a candidate's Bernoulli estimate,
/// in draw-index order (the updates are commutative counts, but a fixed
/// order keeps the accounting auditable).
fn settle(
    est: &mut BernoulliEstimate,
    outcomes: &[AtomicU8],
    range: Range<usize>,
    faults: &mut u64,
) {
    for slot in &outcomes[range] {
        match slot.load(Ordering::Relaxed) {
            DRAW_IN => est.update(true),
            DRAW_OUT => est.update(false),
            _ => *faults += 1,
        }
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<M: CostModel + Sync> Explainer<M> {
    /// Explain the model's prediction for `block` (paper Figure 1) on
    /// the calling thread: [`Explainer::explain_batched`] at
    /// `BatchExec::new(1, 1)`, which spawns no threads.
    pub fn explain(&self, block: &BasicBlock, seed: u64) -> Result<Explanation, ExplainError> {
        self.explain_batched(block, seed, &BatchExec::new(1, 1))
    }

    /// Explain `block`: Anchors beam search with KL-LUCB bounds, with
    /// model queries evaluated in batches of up to
    /// [`BatchExec::batch`] blocks via [`CostModel::predict_batch`],
    /// fanned across the executor's worker pool. The KL-LUCB budget
    /// decisions are made at *round* granularity: every round's draws
    /// are planned (and charged) before dispatch, and the bounds
    /// observe `batch_size` fresh samples at a time.
    ///
    /// Model failures on perturbed samples are tolerated: the sample is
    /// skipped, counted in [`Explanation::faults`], and charged against
    /// [`ExplainConfig::max_total_queries`]. An error is returned only
    /// when the model fails on the original block itself
    /// ([`ExplainError::Model`]) or the block has no features
    /// ([`ExplainError::NoFeatures`]).
    ///
    /// # Determinism
    ///
    /// For a deterministic model, the result is bitwise identical for a
    /// fixed `(block, seed, config)` across *every* batch size and pool
    /// size (including `BatchExec::new(1, 1)`): each draw's RNG stream
    /// is derived from a per-mask draw counter, never from a shared
    /// RNG, so neither chunking nor worker scheduling can reorder
    /// randomness. (A *stateful* model — e.g. a seeded fault
    /// injector whose schedule advances per query — observes queries in
    /// nondeterministic order under `workers > 1`, and its faults land
    /// on different draws accordingly.)
    pub fn explain_batched(
        &self,
        block: &BasicBlock,
        seed: u64,
        exec: &BatchExec,
    ) -> Result<Explanation, ExplainError> {
        let start = Instant::now();
        let perturber = Perturber::new(block, self.config.perturb);
        let pool = perturber.pool();
        let resilience_before = self.model.resilience().unwrap_or_default();
        let budget = self.config.max_total_queries;
        let mut queries: u64 = 1;
        let mut faults: u64 = 0;
        let prediction = self.model.try_predict(block).map_err(ExplainError::Model)?;

        let states: Vec<Mutex<WorkerState>> = (0..exec.pool.workers())
            .map(|_| {
                Mutex::new(WorkerState { scratch: perturber.make_scratch(), batch: Vec::new() })
            })
            .collect();
        let empty_mask = pool.empty_mask();

        // Shared coverage pool, built in parallel: entry `i` always
        // uses the stream seeded by `i`, so the pool's contents are
        // independent of worker scheduling.
        let coverage_pool: Vec<FeatureMask> = {
            let n = self.config.coverage_samples;
            let slots: Vec<Mutex<Option<FeatureMask>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            let stream = splitmix64(seed ^ COVERAGE_TAG);
            exec.pool.run(&|w| {
                let mut guard = lock(&states[w]);
                let st = &mut *guard;
                loop {
                    let first = cursor.fetch_add(COVERAGE_CHUNK, Ordering::Relaxed);
                    if first >= n {
                        break;
                    }
                    for (i, slot) in
                        slots.iter().enumerate().take((first + COVERAGE_CHUNK).min(n)).skip(first)
                    {
                        let mut rng = StdRng::seed_from_u64(splitmix64(stream ^ i as u64));
                        perturber.perturb_into(&empty_mask, &mut rng, &mut st.scratch);
                        *lock(slot) = Some(st.scratch.surviving().clone());
                    }
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    lock(&slot)
                        .take()
                        .expect("every coverage slot is filled before the pool returns")
                })
                .collect()
        };
        let coverage_of = |features: &FeatureMask| -> f64 {
            let hits = coverage_pool.iter().filter(|s| features.is_subset(s)).count();
            hits as f64 / coverage_pool.len().max(1) as f64
        };

        let n_features = pool.len();
        if n_features == 0 {
            return Err(ExplainError::NoFeatures);
        }

        // Dispatch one planned round through whichever path the
        // executor's adaptive controller picks:
        //
        // * *batched* — workers claim chunks of up to `exec.batch`
        //   draws from a shared cursor, perturb each draw with its own
        //   counter-derived RNG into a per-worker batch buffer (rebuilt
        //   in place — no steady-state allocation beyond the model's
        //   result vector), and issue ONE `predict_batch` per chunk;
        // * *inline* — the calling thread walks the round's draws one
        //   by one through `try_predict`, with no batch staging, chunk
        //   planning, or pool hand-off at all — the degraded mode for
        //   workloads where those constant costs outweigh any lane win.
        //
        // Outcomes land in a per-draw byte array; because each draw's
        // result depends only on its seed and mask, the filled array is
        // identical whatever the chunking — and whichever path ran it.
        let model = &self.model;
        let epsilon = self.config.epsilon;
        let dispatch = |round: &Round, outcomes: &mut Vec<AtomicU8>| {
            let jobs = &round.jobs;
            let masks = &round.masks;
            outcomes.clear();
            outcomes.resize_with(jobs.len(), || AtomicU8::new(DRAW_FAULT));
            if jobs.is_empty() {
                return;
            }
            let batched = exec.choose_batched();
            let round_start = Instant::now();
            if batched {
                let cursor = AtomicUsize::new(0);
                exec.pool.run(&|w| {
                    let mut guard = lock(&states[w]);
                    let st = &mut *guard;
                    loop {
                        let first = cursor.fetch_add(exec.batch, Ordering::Relaxed);
                        if first >= jobs.len() {
                            break;
                        }
                        let chunk = &jobs[first..(first + exec.batch).min(jobs.len())];
                        for (j, &(slot, draw_seed)) in chunk.iter().enumerate() {
                            let mut rng = StdRng::seed_from_u64(draw_seed);
                            perturber.perturb_into(&masks[slot], &mut rng, &mut st.scratch);
                            if st.batch.len() <= j {
                                st.batch.push(st.scratch.block().clone());
                            } else {
                                st.batch[j]
                                    .rebuild_from(st.scratch.block().iter())
                                    .expect("perturbed blocks are never empty");
                            }
                        }
                        let results = model.predict_batch(&st.batch[..chunk.len()]);
                        for (j, result) in results.into_iter().enumerate() {
                            let code = match result {
                                // Open ε-ball: with quantized cost
                                // models (the crude model moves in
                                // exact quarter-cycle steps) an
                                // inclusive bound would admit genuinely
                                // changed predictions.
                                Ok(cost) => u8::from((cost - prediction).abs() < epsilon),
                                Err(_) => DRAW_FAULT,
                            };
                            outcomes[first + j].store(code, Ordering::Relaxed);
                        }
                        exec.batched_queries.fetch_add(chunk.len() as u64, Ordering::Relaxed);
                        exec.batch_chunks.fetch_add(1, Ordering::Relaxed);
                    }
                });
            } else {
                let mut guard = lock(&states[0]);
                let st = &mut *guard;
                for (i, &(slot, draw_seed)) in jobs.iter().enumerate() {
                    let mut rng = StdRng::seed_from_u64(draw_seed);
                    perturber.perturb_into(&masks[slot], &mut rng, &mut st.scratch);
                    let code = match model.try_predict(st.scratch.block()) {
                        Ok(cost) => u8::from((cost - prediction).abs() < epsilon),
                        Err(_) => DRAW_FAULT,
                    };
                    outcomes[i].store(code, Ordering::Relaxed);
                }
                exec.inline_queries.fetch_add(jobs.len() as u64, Ordering::Relaxed);
            }
            let ns_per_draw = round_start.elapsed().as_nanos() as f64 / jobs.len() as f64;
            exec.observe(batched, ns_per_draw);
        };

        // Lifetime draw counters per mask: the backbone of the
        // determinism argument. A mask's draws are numbered 0, 1, 2, …
        // across the entire explanation, whichever phase requests them.
        let mut drawn: HashMap<FeatureMask, u64> = HashMap::new();
        // Round-dispatch buffers, reused across every round of the
        // whole search so the steady state plans and settles rounds
        // without touching the heap.
        let mut round = Round::default();
        let mut outcomes: Vec<AtomicU8> = Vec::new();
        let mut ranges: Vec<Range<usize>> = Vec::new();
        // Scratch for `lucb_select`, reused across rounds and levels.
        let mut order_buf: Vec<usize> = Vec::new();
        let mut bounds_buf: Vec<f64> = Vec::new();
        let threshold = self.config.threshold();
        let max_samples = self.config.max_samples as u64;
        let init_samples = self.config.init_samples as u64;
        // Draws per refinement round — a *config* parameter, never the
        // executor's batch size, or results would vary with `exec`.
        let round_draws = self.config.batch_size as u64;
        let mut beam: Vec<Candidate> = Vec::new();
        let mut best_overall: Option<(FeatureMask, f64)> = None;
        let mut outcome: Option<(FeatureMask, f64, bool)> = None;

        'levels: for level in 1..=self.config.max_features {
            // Build this level's candidates. Dedup hashes fixed-width
            // masks (two words inline), not heap sets.
            let mut seen: HashSet<FeatureMask> = HashSet::new();
            let mut candidates: Vec<Candidate> = Vec::new();
            if level == 1 {
                for f in 0..n_features {
                    let mut set = empty_mask.clone();
                    set.insert(f);
                    if seen.insert(set.clone()) {
                        candidates.push(Candidate { features: set, est: Default::default() });
                    }
                }
            } else {
                for parent in &beam {
                    for f in 0..n_features {
                        if parent.features.contains(f) {
                            continue;
                        }
                        let mut set = parent.features.clone();
                        set.insert(f);
                        if seen.insert(set.clone()) {
                            candidates.push(Candidate { features: set, est: Default::default() });
                        }
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }

            // Initial sampling: every candidate's first `init_samples`
            // draws fused into one big round — the widest batches of
            // the whole search.
            round.clear();
            ranges.clear();
            ranges.extend(candidates.iter().map(|c| {
                round.plan(&c.features, init_samples, seed, &mut drawn, &mut queries, budget)
            }));
            dispatch(&round, &mut outcomes);
            for (candidate, range) in candidates.iter_mut().zip(ranges.drain(..)) {
                settle(&mut candidate.est, &outcomes, range, &mut faults);
            }
            if queries >= budget {
                for candidate in &candidates {
                    let mean = candidate.est.mean();
                    if best_overall.as_ref().is_none_or(|(_, p)| mean > *p) {
                        best_overall = Some((candidate.features.clone(), mean));
                    }
                }
                break 'levels;
            }

            // KL-LUCB refinement of the top-k boundary: bound
            // computation and the stop/continue decision happen once
            // per round; only the round's planned draws are evaluated
            // in parallel.
            let k = self.config.beam_width.min(candidates.len());
            let mut lucb_round: u64 = 1;
            loop {
                let beta = exploration_beta(lucb_round, candidates.len(), self.config.confidence);
                let (weakest_in, strongest_out, gap) =
                    lucb_select(&candidates, k, beta, &mut order_buf, &mut bounds_buf);
                let samples_left = candidates[weakest_in].est.samples < max_samples
                    || strongest_out.is_some_and(|v| candidates[v].est.samples < max_samples);
                if gap <= self.config.tolerance || !samples_left || queries >= budget {
                    break;
                }
                round.clear();
                let mut pending: [Option<(usize, Range<usize>)>; 2] = [None, None];
                for (idx, slot) in
                    [Some(weakest_in), strongest_out].into_iter().flatten().zip(&mut pending)
                {
                    let have = candidates[idx].est.samples;
                    if have < max_samples {
                        let range = round.plan(
                            &candidates[idx].features,
                            round_draws.min(max_samples - have),
                            seed,
                            &mut drawn,
                            &mut queries,
                            budget,
                        );
                        *slot = Some((idx, range));
                    }
                }
                dispatch(&round, &mut outcomes);
                for (idx, range) in pending.into_iter().flatten() {
                    settle(&mut candidates[idx].est, &outcomes, range, &mut faults);
                }
                lucb_round += 1;
            }

            // Track the best-precision candidate seen anywhere.
            for candidate in &candidates {
                let mean = candidate.est.mean();
                if best_overall.as_ref().is_none_or(|(_, p)| mean > *p) {
                    best_overall = Some((candidate.features.clone(), mean));
                }
            }

            // Confirmation pass: candidates whose point estimate clears
            // the threshold are sampled, in rounds of `round_draws`,
            // until their lower bound either confirms the anchor or the
            // estimate falls below the threshold (Anchors'
            // `lb > τ - tolerance` check needs enough samples to be
            // meaningful).
            for candidate in &mut candidates {
                loop {
                    let beta = exploration_beta(
                        lucb_round,
                        self.config.beam_width.max(1),
                        self.config.confidence,
                    );
                    let est = &candidate.est;
                    if est.mean() < threshold
                        || est.lcb(beta) >= threshold - self.config.tolerance
                        || est.samples >= max_samples
                        || queries >= budget
                    {
                        break;
                    }
                    round.clear();
                    let range = round.plan(
                        &candidate.features,
                        round_draws,
                        seed,
                        &mut drawn,
                        &mut queries,
                        budget,
                    );
                    if range.is_empty() {
                        break;
                    }
                    dispatch(&round, &mut outcomes);
                    settle(&mut candidate.est, &outcomes, range, &mut faults);
                }
            }

            // Anchors at this level: precision estimate over threshold
            // with a confident lower bound (same exploration rate as the
            // confirmation pass).
            let beta =
                exploration_beta(lucb_round, self.config.beam_width.max(1), self.config.confidence);
            let anchors: Vec<&Candidate> = candidates
                .iter()
                .filter(|c| {
                    c.est.mean() >= threshold
                        && c.est.lcb(beta) >= threshold - self.config.tolerance
                })
                .collect();
            if !anchors.is_empty() {
                // Coverage is monotone decreasing in |F|, so the first
                // level with an anchor holds the max-coverage anchor.
                let best = anchors
                    .into_iter()
                    .map(|c| {
                        let cov = coverage_of(&c.features);
                        (c, cov)
                    })
                    .max_by(|(_, ca), (_, cb)| ca.total_cmp(cb))
                    // Invariant: guarded by `!anchors.is_empty()`.
                    .expect("non-empty anchors");
                // Greedy minimization: borderline singletons can miss
                // their own level by sampling noise, leaving a redundant
                // feature in the anchor. Try dropping each feature and
                // keep any subset that still confirms the threshold
                // (strictly improving coverage), sampling each subset in
                // rounds with a post-round early exit.
                let mut features = best.0.features.clone();
                let mut precision = best.0.est.mean();
                let mut improved = true;
                while improved && features.len() > 1 {
                    improved = false;
                    let snapshot = features.clone();
                    for feature in snapshot.iter() {
                        let mut subset = features.clone();
                        subset.remove(feature);
                        let mut est = BernoulliEstimate::default();
                        let b = exploration_beta(
                            lucb_round,
                            self.config.beam_width.max(1),
                            self.config.confidence,
                        );
                        while est.samples < max_samples && queries < budget {
                            round.clear();
                            let range = round.plan(
                                &subset,
                                round_draws.min(max_samples - est.samples),
                                seed,
                                &mut drawn,
                                &mut queries,
                                budget,
                            );
                            if range.is_empty() {
                                break;
                            }
                            dispatch(&round, &mut outcomes);
                            settle(&mut est, &outcomes, range, &mut faults);
                            if est.samples >= init_samples && est.ucb(b) < threshold {
                                break;
                            }
                        }
                        if est.mean() >= threshold
                            && est.lcb(b) >= threshold - self.config.tolerance
                        {
                            features = subset;
                            precision = est.mean();
                            improved = true;
                            break;
                        }
                    }
                }
                outcome = Some((features, precision, true));
                break 'levels;
            }

            // No anchor yet: carry the beam to the next level.
            let mut order: Vec<usize> = (0..candidates.len()).collect();
            order.sort_by(|&a, &b| candidates[b].est.mean().total_cmp(&candidates[a].est.mean()));
            order.truncate(self.config.beam_width);
            let mut next_beam = Vec::new();
            let mut taken: HashSet<usize> = order.iter().copied().collect();
            for (i, candidate) in candidates.into_iter().enumerate() {
                if taken.remove(&i) {
                    next_beam.push(candidate);
                }
            }
            beam = next_beam;
        }

        let (features, precision, anchored) = match outcome {
            Some(found) => found,
            // Invariant: level 1 always has candidates (`n_features >
            // 0`), and both exits of the level loop record every level-1
            // candidate into `best_overall` first.
            None => {
                let (features, precision) =
                    best_overall.expect("at least one candidate was evaluated");
                (features, precision, false)
            }
        };
        let coverage = coverage_of(&features);
        let resilience_after = self.model.resilience().unwrap_or_default();
        let retries = resilience_after.retries.saturating_sub(resilience_before.retries);
        let degraded = faults > 0 || resilience_after.degraded;
        Ok(Explanation {
            features: pool.set_of(&features),
            precision,
            coverage,
            prediction,
            anchored,
            queries,
            faults,
            retries,
            degraded,
            duration_secs: start.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::Feature;
    use comet_isa::parse_block;
    use comet_models::{FaultConfig, FaultyModel};
    use std::sync::atomic::AtomicBool;

    /// A cost model that only looks at the block length.
    struct LengthModel;

    impl CostModel for LengthModel {
        fn name(&self) -> &str {
            "length"
        }

        fn predict(&self, block: &BasicBlock) -> f64 {
            block.len() as f64 / 4.0
        }
    }

    /// A cost model that only cares whether a `div` is present.
    struct DivModel;

    impl CostModel for DivModel {
        fn name(&self) -> &str {
            "div"
        }

        fn predict(&self, block: &BasicBlock) -> f64 {
            let has_div = block
                .iter()
                .any(|i| matches!(i.opcode, comet_isa::Opcode::Div | comet_isa::Opcode::Idiv));
            if has_div {
                25.0
            } else {
                1.0
            }
        }
    }

    #[test]
    fn explains_a_length_only_model_with_eta() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx\nimul r9, r10").unwrap();
        let explainer = Explainer::new(LengthModel, ExplainConfig::for_crude_model());
        let explanation = explainer.explain(&block, 0).unwrap();
        assert!(explanation.anchored);
        assert_eq!(
            explanation.features.iter().copied().collect::<Vec<_>>(),
            vec![Feature::NumInstructions],
            "{}",
            explanation.display_features()
        );
        assert!(explanation.precision >= 0.7);
        assert!(explanation.coverage > 0.0);
        assert_eq!(explanation.faults, 0);
        assert!(!explanation.degraded);
    }

    #[test]
    fn explains_a_div_model_with_the_div_instruction() {
        let block =
            parse_block("mov ecx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nimul rax, rcx").unwrap();
        let explainer = Explainer::new(DivModel, ExplainConfig::for_crude_model());
        let explanation = explainer.explain(&block, 1).unwrap();
        assert!(explanation.anchored);
        assert_eq!(
            explanation.features.iter().copied().collect::<Vec<_>>(),
            vec![Feature::Instruction(2)],
            "{}",
            explanation.display_features()
        );
    }

    #[test]
    fn reduced_and_baseline_configs_shrink_every_budget() {
        let base = ExplainConfig::for_crude_model();
        let reduced = base.reduced_budget();
        assert!(reduced.max_total_queries < base.max_total_queries);
        assert!(reduced.max_samples < base.max_samples);
        assert!(reduced.coverage_samples < base.coverage_samples);
        assert!(reduced.beam_width <= base.beam_width);
        assert!(reduced.max_features <= base.max_features);
        assert_eq!(reduced.epsilon, base.epsilon, "ε is a semantic knob, not a budget");
        let probe = base.baseline_probe();
        assert!(probe.max_total_queries <= reduced.max_total_queries);
        assert_eq!(probe.max_features, 1);
        assert_eq!(probe.epsilon, base.epsilon);
    }

    #[test]
    fn reduced_budget_still_explains_and_spends_less() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx\nimul r9, r10").unwrap();
        let config = ExplainConfig::for_crude_model();
        let full = Explainer::new(LengthModel, config).explain(&block, 5).unwrap();
        let reduced =
            Explainer::new(LengthModel, config.reduced_budget()).explain(&block, 5).unwrap();
        let probe =
            Explainer::new(LengthModel, config.baseline_probe()).explain(&block, 5).unwrap();
        // The reduced run must respect its own (much smaller) query
        // cap; comparing against the full run directly is unreliable
        // on trivially easy models, where smaller init batches can
        // mean a couple of extra adaptive rounds.
        assert!(full.queries > 0 && reduced.queries > 0);
        assert!(
            reduced.queries <= config.reduced_budget().max_total_queries,
            "reduced spent {} of a {} cap",
            reduced.queries,
            config.reduced_budget().max_total_queries
        );
        assert!(probe.queries <= config.baseline_probe().max_total_queries);
        assert!(!probe.features.is_empty(), "the probe still names a feature");
        assert!(probe.features.len() <= 1);
    }

    #[test]
    fn query_counter_tracks_usage() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx").unwrap();
        let explainer = Explainer::new(LengthModel, ExplainConfig::for_crude_model());
        let explanation = explainer.explain(&block, 2).unwrap();
        assert!(explanation.queries > 10);
    }

    #[test]
    fn explanation_is_reproducible_per_seed() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let explainer = Explainer::new(LengthModel, ExplainConfig::for_crude_model());
        let a = explainer.explain(&block, 3).unwrap();
        let b = explainer.explain(&block, 3).unwrap();
        assert_eq!(a.features, b.features);
        assert_eq!(a.precision, b.precision);
    }

    #[test]
    fn model_failure_on_the_original_block_is_typed() {
        struct AlwaysNan;
        impl CostModel for AlwaysNan {
            fn name(&self) -> &str {
                "always-nan"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                f64::NAN
            }
        }
        let block = parse_block("add rcx, rax\nmov rdx, rcx").unwrap();
        let explainer = Explainer::new(AlwaysNan, ExplainConfig::for_crude_model());
        match explainer.explain(&block, 0) {
            Err(ExplainError::Model(ModelError::NonFinite { .. })) => {}
            other => panic!("expected a NonFinite model error, got {other:?}"),
        }
    }

    #[test]
    fn faulting_samples_degrade_but_do_not_fail() {
        // Seeds whose initial prediction faults end in a model error;
        // some seed must get past it and degrade instead. One worker
        // keeps the fault injector's schedule deterministic, so each
        // search is reproducible, unbatched and batched alike.
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let config = ExplainConfig {
            coverage_samples: 100,
            max_samples: 60,
            max_total_queries: 1_500,
            ..ExplainConfig::for_crude_model()
        };
        for exec in [BatchExec::new(1, 1), BatchExec::new(4, 1)] {
            let mut explained = false;
            for seed in 0..10u64 {
                let faulty = FaultyModel::new(
                    LengthModel,
                    FaultConfig { nan_rate: 0.1, transient_rate: 0.1, seed, ..Default::default() },
                );
                let explainer = Explainer::new(faulty, config);
                match explainer.explain_batched(&block, seed, &exec) {
                    Ok(e) => {
                        assert!(e.queries <= config.max_total_queries);
                        if e.faults > 0 {
                            assert!(e.degraded);
                            explained = true;
                        }
                    }
                    Err(ExplainError::Model(_)) => {} // initial query faulted
                    Err(other) => panic!("unexpected error: {other:?}"),
                }
            }
            assert!(explained, "no seed produced a degraded-but-successful explanation");
        }
    }

    #[test]
    fn batched_path_is_invariant_to_batch_and_pool_size() {
        let block =
            parse_block("mov ecx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nimul rax, rcx").unwrap();
        let config = ExplainConfig { coverage_samples: 300, ..ExplainConfig::for_crude_model() };
        let explainer = Explainer::new(DivModel, config);
        let reference = explainer.explain(&block, 11).unwrap();
        assert!(reference.anchored);
        assert_eq!(
            reference.features.iter().copied().collect::<Vec<_>>(),
            vec![Feature::Instruction(2)],
            "{}",
            reference.display_features()
        );
        for (batch, workers) in [(4, 1), (8, 2), (17, 4)] {
            let exec = BatchExec::new(batch, workers);
            let explanation = explainer.explain_batched(&block, 11, &exec).unwrap();
            assert_eq!(explanation, reference, "batch={batch} workers={workers}");
            assert!(exec.queries_batched() > 0);
            assert!(exec.chunks() > 0);
            let occupancy = exec.occupancy();
            assert!(occupancy > 0.0 && occupancy <= 1.0, "occupancy {occupancy}");
        }
    }

    #[test]
    fn batched_budget_is_a_hard_cap() {
        let block = parse_block("add rcx, rax\nmov rdx, rcx\npop rbx").unwrap();
        let config = ExplainConfig {
            coverage_samples: 100,
            max_total_queries: 200,
            ..ExplainConfig::for_crude_model()
        };
        let explainer = Explainer::new(LengthModel, config);
        let exec = BatchExec::new(8, 2);
        let explanation = explainer.explain_batched(&block, 5, &exec).unwrap();
        assert!(explanation.queries <= 200, "queries {}", explanation.queries);
        // Budget charged == queries dispatched (through either adaptive
        // path) + the initial prediction.
        assert_eq!(explanation.queries, exec.queries_batched() + exec.queries_inline() + 1);
        // The first round always runs batched (it seeds the adaptive
        // controller), so the batched counters are never zero.
        assert!(exec.queries_batched() > 0);
    }

    #[test]
    fn budget_is_a_hard_cap_even_when_every_sample_faults() {
        struct HealthyOnceThenFail(AtomicBool);
        impl CostModel for HealthyOnceThenFail {
            fn name(&self) -> &str {
                "healthy-once"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                if self.0.swap(true, Ordering::Relaxed) {
                    f64::NAN
                } else {
                    1.0
                }
            }
        }
        let block = parse_block("add rcx, rax\nmov rdx, rcx").unwrap();
        let config = ExplainConfig {
            coverage_samples: 50,
            max_total_queries: 500,
            ..ExplainConfig::for_crude_model()
        };
        let explainer = Explainer::new(HealthyOnceThenFail(AtomicBool::new(false)), config);
        let e = explainer.explain(&block, 4).unwrap();
        assert!(e.queries <= 500);
        assert_eq!(e.faults, e.queries - 1);
        assert!(e.degraded);
        assert!(!e.anchored);
    }
}
