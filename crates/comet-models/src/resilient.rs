//! A resilience decorator for cost models: bounded retries with
//! deterministic seeded backoff, a consecutive-failure circuit breaker,
//! and graceful degradation to a fallback model.
//!
//! The ROADMAP's production target is a service answering millions of
//! explanation queries; at that scale a model backend *will* emit NaNs,
//! panic, or stall. [`ResilientModel`] keeps a query pipeline alive
//! through all of that:
//!
//! * retryable failures ([`ModelError::is_retryable`]) are retried up
//!   to [`ResilientConfig::max_retries`] times with exponential,
//!   seeded-jitter backoff (deterministic for a given seed, so eval
//!   runs stay reproducible);
//! * retries draw from a global token bucket
//!   ([`ResilientConfig::retry_budget`], refilled by successes) so a
//!   down backend under a large `predict_batch` cannot amplify into a
//!   retry storm — denied retries fail fast and are counted as
//!   [`ResilienceReport::retries_suppressed`];
//! * after [`ResilientConfig::breaker_threshold`] *consecutive* failed
//!   queries the breaker opens and queries are served by the fallback
//!   model (e.g. [`CoarseBaselineModel`](crate::CoarseBaselineModel))
//!   — degraded but alive;
//! * while open, every [`ResilientConfig::probe_interval`]-th query
//!   probes the inner model (half-open state); one success closes the
//!   breaker again;
//! * every decision is counted in a [`ResilienceReport`] so callers
//!   (and [`Explanation`](../../comet_core/struct.Explanation.html)
//!   diagnostics) can see how degraded a run was.

use std::sync::Mutex;
use std::time::Duration;

use comet_isa::BasicBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ModelError;
use crate::traits::CostModel;

/// Retry/circuit-breaker parameters for [`ResilientModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// Maximum retries per query for retryable failures (the first
    /// attempt is not a retry).
    pub max_retries: u32,
    /// Consecutive failed queries (after retries) that trip the
    /// circuit breaker.
    pub breaker_threshold: u32,
    /// Base backoff delay; attempt `k` waits `base * 2^(k-1)` scaled by
    /// a seeded jitter in `[0.5, 1.5)`. `Duration::ZERO` disables
    /// sleeping (useful in tests and tight eval loops).
    pub backoff_base: Duration,
    /// While the breaker is open, probe the inner model once every this
    /// many queries (half-open state). A successful probe closes the
    /// breaker.
    pub probe_interval: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Global retry token bucket capacity, shared by every query
    /// (scalar and batch alike). Each retry spends one token; each
    /// successful query refills [`retry_refill`](Self::retry_refill)
    /// tokens (capped at this budget). When the bucket is dry further
    /// retries are denied and counted as
    /// [`ResilienceReport::retries_suppressed`], so per-item retries in
    /// `predict_batch` cannot amplify a dead backend into a retry storm
    /// (N items × max_retries inner calls). `f64::INFINITY` (the
    /// default) disables the bucket.
    pub retry_budget: f64,
    /// Tokens returned to the retry bucket per successful query.
    pub retry_refill: f64,
}

impl Default for ResilientConfig {
    fn default() -> ResilientConfig {
        ResilientConfig {
            max_retries: 2,
            breaker_threshold: 5,
            backoff_base: Duration::from_millis(1),
            probe_interval: 64,
            seed: 0,
            retry_budget: f64::INFINITY,
            retry_refill: 0.1,
        }
    }
}

/// Failure counters tracked by [`ResilientModel`], also surfaced
/// through [`CostModel::resilience`] for explanation diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceReport {
    /// Total queries received by the decorator.
    pub queries: u64,
    /// Individual failed attempts observed from the inner model
    /// (each retry that fails counts again).
    pub failures: u64,
    /// Retries performed.
    pub retries: u64,
    /// Retries denied because the global retry token bucket was dry
    /// (see [`ResilientConfig::retry_budget`]); each denial fails the
    /// query immediately instead of hammering a down backend.
    pub retries_suppressed: u64,
    /// Failed attempts that were deadline timeouts
    /// ([`ModelError::Timeout`]; counted per attempt, so one query
    /// retried past two timeouts counts twice).
    pub timeouts: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: u64,
    /// Queries answered by the fallback model.
    pub fallback_queries: u64,
    /// Whether the breaker is currently open (the model is degraded).
    pub degraded: bool,
}

/// Placeholder fallback for [`ResilientModel::new`]: a breaker trip
/// with this fallback yields [`ModelError::CircuitOpen`] instead of a
/// degraded prediction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFallback;

impl CostModel for NoFallback {
    fn name(&self) -> &str {
        "no-fallback"
    }

    fn predict(&self, _block: &BasicBlock) -> f64 {
        f64::NAN
    }

    fn try_predict(&self, _block: &BasicBlock) -> Result<f64, ModelError> {
        Err(ModelError::CircuitOpen)
    }
}

#[derive(Debug)]
struct ResilientState {
    rng: StdRng,
    consecutive_failures: u32,
    open: bool,
    queries_while_open: u64,
    /// Remaining global retry tokens (see
    /// [`ResilientConfig::retry_budget`]).
    retry_tokens: f64,
    report: ResilienceReport,
}

/// The resilience decorator. See the [module docs](self) for the
/// retry/breaker/fallback semantics.
#[derive(Debug)]
pub struct ResilientModel<M, F = NoFallback> {
    inner: M,
    fallback: Option<F>,
    config: ResilientConfig,
    state: Mutex<ResilientState>,
}

/// How a query should be routed, decided under the state lock.
#[derive(Clone, Copy)]
enum Route {
    /// Breaker closed: query the inner model normally.
    Inner,
    /// Breaker open, probe due: try the inner model once.
    Probe,
    /// Breaker open: go straight to the fallback.
    Fallback,
}

impl<M: CostModel> ResilientModel<M, NoFallback> {
    /// Wrap a model with retries and a circuit breaker but no fallback:
    /// once the breaker opens, queries fail fast with
    /// [`ModelError::CircuitOpen`] (modulo half-open probes).
    pub fn new(inner: M, config: ResilientConfig) -> ResilientModel<M, NoFallback> {
        ResilientModel::build(inner, None, config)
    }
}

impl<M: CostModel, F: CostModel> ResilientModel<M, F> {
    /// Wrap a model with retries, a circuit breaker, and a fallback
    /// model that serves queries while the breaker is open.
    pub fn with_fallback(inner: M, fallback: F, config: ResilientConfig) -> ResilientModel<M, F> {
        ResilientModel::build(inner, Some(fallback), config)
    }

    fn build(inner: M, fallback: Option<F>, config: ResilientConfig) -> ResilientModel<M, F> {
        ResilientModel {
            inner,
            fallback,
            config,
            state: Mutex::new(ResilientState {
                rng: StdRng::seed_from_u64(config.seed),
                consecutive_failures: 0,
                open: false,
                queries_while_open: 0,
                retry_tokens: config.retry_budget.max(0.0),
                report: ResilienceReport::default(),
            }),
        }
    }

    /// The wrapped (primary) model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// A snapshot of the failure counters.
    pub fn report(&self) -> ResilienceReport {
        let st = self.state();
        let mut report = st.report;
        report.degraded = st.open;
        report
    }

    /// Whether the circuit breaker is currently open.
    pub fn breaker_open(&self) -> bool {
        self.state().open
    }

    /// The state mutex cannot be poisoned by *this* module (no user
    /// code runs while it is held), but a fallback or probe panic
    /// elsewhere must not wedge the decorator — recover the guard.
    fn state(&self) -> std::sync::MutexGuard<'_, ResilientState> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Route a new query, updating breaker bookkeeping.
    fn route(&self) -> Route {
        let mut st = self.state();
        st.report.queries += 1;
        if !st.open {
            return Route::Inner;
        }
        st.queries_while_open += 1;
        if self.config.probe_interval > 0
            && st.queries_while_open.is_multiple_of(self.config.probe_interval)
        {
            Route::Probe
        } else {
            Route::Fallback
        }
    }

    /// Seeded exponential backoff with jitter for retry `attempt`
    /// (1-based). Deterministic for a given config seed.
    fn backoff(&self, attempt: u32) -> Duration {
        let jitter: f64 = {
            let mut st = self.state();
            0.5 + st.rng.gen::<f64>()
        };
        let exp = 2u32.saturating_pow(attempt.saturating_sub(1));
        self.config.backoff_base.mul_f64(exp as f64 * jitter)
    }

    /// Answer from the fallback model (breaker open), or fail fast.
    fn fallback_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        match &self.fallback {
            Some(fallback) => {
                self.state().report.fallback_queries += 1;
                fallback.try_predict(block)
            }
            None => Err(ModelError::CircuitOpen),
        }
    }

    /// One successful inner prediction: reset failure tracking, refill
    /// the retry token bucket, and close the breaker if it was open
    /// (successful probe).
    fn record_success(&self) {
        let mut st = self.state();
        st.consecutive_failures = 0;
        st.retry_tokens =
            (st.retry_tokens + self.config.retry_refill).min(self.config.retry_budget);
        if st.open {
            st.open = false;
            st.queries_while_open = 0;
        }
    }

    /// Try to spend one retry token. A denial is counted as a
    /// suppressed retry and the query fails with whatever error is in
    /// hand.
    fn take_retry_token(&self) -> bool {
        let mut st = self.state();
        if st.retry_tokens >= 1.0 {
            st.retry_tokens -= 1.0;
            true
        } else {
            st.report.retries_suppressed += 1;
            false
        }
    }

    /// One *query-level* failure (retries exhausted or non-retryable):
    /// advance the breaker. Returns whether the breaker is now open.
    fn record_failure(&self) -> bool {
        let mut st = self.state();
        st.consecutive_failures = st.consecutive_failures.saturating_add(1);
        if !st.open && st.consecutive_failures >= self.config.breaker_threshold {
            st.open = true;
            st.queries_while_open = 0;
            st.report.breaker_trips += 1;
        }
        st.open
    }

    /// Query the inner model with bounded retries and seeded backoff.
    fn query_inner(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        let first = self.inner.try_predict(block);
        self.settle(block, first)
    }

    /// Finish a query whose *first* inner attempt is already in hand:
    /// account failures, retry with backoff while the error is
    /// retryable, and advance the breaker on final failure. Shared by
    /// the scalar path and the batch path, whose first attempts arrive
    /// together from one inner `predict_batch` call.
    fn settle(
        &self,
        block: &BasicBlock,
        first: Result<f64, ModelError>,
    ) -> Result<f64, ModelError> {
        let mut attempt: u32 = 0;
        let mut outcome = first;
        loop {
            match outcome {
                Ok(value) => {
                    self.record_success();
                    return Ok(value);
                }
                Err(error) => {
                    {
                        let mut st = self.state();
                        st.report.failures += 1;
                        if matches!(error, ModelError::Timeout { .. }) {
                            st.report.timeouts += 1;
                        }
                    }
                    if error.is_retryable()
                        && attempt < self.config.max_retries
                        && self.take_retry_token()
                    {
                        attempt += 1;
                        self.state().report.retries += 1;
                        let delay = self.backoff(attempt);
                        if !delay.is_zero() {
                            std::thread::sleep(delay);
                        }
                        outcome = self.inner.try_predict(block);
                        continue;
                    }
                    let error = if attempt > 0 {
                        ModelError::BudgetExhausted { attempts: attempt + 1, last: Box::new(error) }
                    } else {
                        error
                    };
                    let now_open = self.record_failure();
                    return if now_open {
                        // Degrade this very query: the caller gets an
                        // answer, not an error, when a fallback exists.
                        self.fallback_predict(block).map_err(|_| error)
                    } else {
                        Err(error)
                    };
                }
            }
        }
    }
}

impl<M: CostModel, F: CostModel> CostModel for ResilientModel<M, F> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    /// Infallible view: failures surface as NaN (callers wanting the
    /// error should use [`try_predict`](CostModel::try_predict)).
    fn predict(&self, block: &BasicBlock) -> f64 {
        self.try_predict(block).unwrap_or(f64::NAN)
    }

    fn try_predict(&self, block: &BasicBlock) -> Result<f64, ModelError> {
        match self.route() {
            Route::Inner | Route::Probe => self.query_inner(block),
            Route::Fallback => self.fallback_predict(block),
        }
    }

    /// Batch path: every item is routed in slice order with the same
    /// per-query bookkeeping as sequential calls, all items the breaker
    /// lets through form *one* inner `predict_batch` call (so batching
    /// survives this layer down to the backend), and each item's
    /// outcome is then settled in slice order — per-item failure
    /// accounting, retries, and breaker advancement are identical to
    /// the scalar path.
    ///
    /// The one batch-granular difference: breaker transitions caused by
    /// *this batch's own* failures take effect between batches, not
    /// between items, because routing happens before the inner results
    /// exist. Per-item results still degrade correctly (a failure that
    /// opens the breaker is answered by the fallback immediately).
    fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
        let routes: Vec<Route> = blocks.iter().map(|_| self.route()).collect();
        let inner_indices: Vec<usize> = routes
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Route::Inner | Route::Probe))
            .map(|(i, _)| i)
            .collect();
        let first_attempts = if inner_indices.len() == blocks.len() {
            self.inner.predict_batch(blocks)
        } else if inner_indices.is_empty() {
            Vec::new()
        } else {
            let selected: Vec<BasicBlock> =
                inner_indices.iter().map(|&i| blocks[i].clone()).collect();
            self.inner.predict_batch(&selected)
        };
        debug_assert_eq!(first_attempts.len(), inner_indices.len());
        let mut first_attempts = first_attempts.into_iter();
        routes
            .iter()
            .enumerate()
            .map(|(i, route)| match route {
                Route::Inner | Route::Probe => {
                    let first =
                        first_attempts.next().expect("one first attempt per inner-routed item");
                    self.settle(&blocks[i], first)
                }
                Route::Fallback => self.fallback_predict(&blocks[i]),
            })
            .collect()
    }

    fn resilience(&self) -> Option<ResilienceReport> {
        Some(self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_config() -> ResilientConfig {
        ResilientConfig { backoff_base: Duration::ZERO, ..ResilientConfig::default() }
    }

    fn block() -> BasicBlock {
        comet_isa::parse_block("add rcx, rax\nmov rdx, rcx").unwrap()
    }

    /// Fails with a transient error for the first `failures` calls,
    /// then answers 2.0.
    struct FlakyModel {
        calls: AtomicU64,
        failures: u64,
    }

    impl CostModel for FlakyModel {
        fn name(&self) -> &str {
            "flaky"
        }

        fn predict(&self, block: &BasicBlock) -> f64 {
            self.try_predict(block).unwrap_or(f64::NAN)
        }

        fn try_predict(&self, _: &BasicBlock) -> Result<f64, ModelError> {
            if self.calls.fetch_add(1, Ordering::SeqCst) < self.failures {
                Err(ModelError::Transient { message: "flap".into() })
            } else {
                Ok(2.0)
            }
        }
    }

    struct AlwaysNan;

    impl CostModel for AlwaysNan {
        fn name(&self) -> &str {
            "always-nan"
        }

        fn predict(&self, _: &BasicBlock) -> f64 {
            f64::NAN
        }
    }

    #[test]
    fn retries_recover_transient_failures() {
        let model = ResilientModel::new(
            FlakyModel { calls: AtomicU64::new(0), failures: 2 },
            test_config(),
        );
        assert_eq!(model.try_predict(&block()), Ok(2.0));
        let report = model.report();
        assert_eq!(report.retries, 2);
        assert_eq!(report.failures, 2);
        assert_eq!(report.breaker_trips, 0);
        assert!(!report.degraded);
    }

    #[test]
    fn retry_budget_exhaustion_is_typed() {
        let model = ResilientModel::new(
            FlakyModel { calls: AtomicU64::new(0), failures: 100 },
            ResilientConfig { max_retries: 2, breaker_threshold: 50, ..test_config() },
        );
        match model.try_predict(&block()) {
            Err(ModelError::BudgetExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, ModelError::Transient { .. }));
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn breaker_trips_and_falls_back() {
        let model = ResilientModel::with_fallback(
            AlwaysNan,
            FlakyModel { calls: AtomicU64::new(0), failures: 0 },
            ResilientConfig { breaker_threshold: 3, ..test_config() },
        );
        let b = block();
        // Non-retryable NaN failures: the first two propagate.
        assert!(model.try_predict(&b).is_err());
        assert!(model.try_predict(&b).is_err());
        // Third failure trips the breaker; this query already degrades.
        assert_eq!(model.try_predict(&b), Ok(2.0));
        assert!(model.breaker_open());
        // Subsequent queries go straight to the fallback.
        assert_eq!(model.try_predict(&b), Ok(2.0));
        let report = model.report();
        assert_eq!(report.breaker_trips, 1);
        assert!(report.fallback_queries >= 2);
        assert!(report.degraded);
        assert_eq!(model.resilience(), Some(report));
        // The infallible view also degrades gracefully.
        assert_eq!(model.predict(&b), 2.0);
    }

    #[test]
    fn breaker_without_fallback_fails_fast() {
        let model = ResilientModel::new(
            AlwaysNan,
            ResilientConfig { breaker_threshold: 1, probe_interval: 1000, ..test_config() },
        );
        let b = block();
        // First failure trips the breaker; no fallback → original error.
        assert!(matches!(model.try_predict(&b), Err(ModelError::NonFinite { .. })));
        assert!(model.breaker_open());
        assert_eq!(model.try_predict(&b), Err(ModelError::CircuitOpen));
        assert!(model.predict(&b).is_nan());
    }

    #[test]
    fn half_open_probe_closes_breaker_on_recovery() {
        // Fails 3 times (tripping a threshold-3 breaker), then recovers.
        let model = ResilientModel::with_fallback(
            FlakyModel { calls: AtomicU64::new(0), failures: 3 },
            FlakyModel { calls: AtomicU64::new(0), failures: 0 },
            ResilientConfig {
                max_retries: 0,
                breaker_threshold: 3,
                probe_interval: 2,
                ..test_config()
            },
        );
        let b = block();
        for _ in 0..2 {
            assert!(model.try_predict(&b).is_err());
        }
        // Third failure trips the breaker and degrades to the fallback.
        assert_eq!(model.try_predict(&b), Ok(2.0));
        assert!(model.breaker_open());
        // Open query #1: fallback. Open query #2: probe — the inner
        // model has recovered, so the breaker closes again.
        assert_eq!(model.try_predict(&b), Ok(2.0));
        assert_eq!(model.try_predict(&b), Ok(2.0));
        assert!(!model.breaker_open());
        let report = model.report();
        assert_eq!(report.breaker_trips, 1);
        assert!(!report.degraded);
    }

    #[test]
    fn deadline_watchdog_surfaces_timeouts_through_the_decorator() {
        struct AlwaysTimesOut;
        impl CostModel for AlwaysTimesOut {
            fn name(&self) -> &str {
                "always-times-out"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                f64::NAN
            }
            fn try_predict(&self, _: &BasicBlock) -> Result<f64, ModelError> {
                let deadline = Duration::from_millis(10);
                Err(ModelError::Timeout { elapsed: deadline, deadline })
            }
        }
        let model = ResilientModel::new(
            AlwaysTimesOut,
            ResilientConfig { max_retries: 0, ..test_config() },
        );
        assert!(matches!(model.try_predict(&block()), Err(ModelError::Timeout { .. })));
        let report = model.report();
        assert_eq!(report.timeouts, 1);
        assert_eq!(report.failures, 1);
    }

    /// The batch path must funnel every breaker-admitted item through
    /// *one* inner `predict_batch` call, while still counting and
    /// settling each item individually.
    #[test]
    fn batch_path_routes_settles_and_counts_per_item() {
        struct BatchProbe {
            batch_calls: AtomicU64,
        }
        impl CostModel for BatchProbe {
            fn name(&self) -> &str {
                "batch-probe"
            }
            fn predict(&self, block: &BasicBlock) -> f64 {
                block.len() as f64
            }
            fn predict_batch(&self, blocks: &[BasicBlock]) -> Vec<Result<f64, ModelError>> {
                self.batch_calls.fetch_add(1, Ordering::SeqCst);
                blocks.iter().map(|b| self.try_predict(b)).collect()
            }
        }
        let model =
            ResilientModel::new(BatchProbe { batch_calls: AtomicU64::new(0) }, test_config());
        let blocks: Vec<BasicBlock> = ["nop", "add rcx, rax\nmov rdx, rcx", "div rcx"]
            .iter()
            .map(|t| comet_isa::parse_block(t).unwrap())
            .collect();
        let results = model.predict_batch(&blocks);
        assert_eq!(results, vec![Ok(1.0), Ok(2.0), Ok(1.0)]);
        assert_eq!(model.inner().batch_calls.load(Ordering::SeqCst), 1, "one inner batch call");
        assert_eq!(model.report().queries, 3, "each batch item routed as its own query");
    }

    /// Failures inside a batch advance the breaker per item, and items
    /// settled after the trip degrade to the fallback; a later batch
    /// routes straight to the fallback.
    #[test]
    fn batch_failures_trip_breaker_and_degrade() {
        let model = ResilientModel::with_fallback(
            AlwaysNan,
            FlakyModel { calls: AtomicU64::new(0), failures: 0 },
            ResilientConfig { breaker_threshold: 2, probe_interval: 1000, ..test_config() },
        );
        let b = block();
        let first = model.predict_batch(&[b.clone(), b.clone(), b.clone()]);
        assert!(first[0].is_err(), "first failure propagates (breaker still closed)");
        assert_eq!(first[1], Ok(2.0), "second failure trips the breaker and degrades");
        assert_eq!(first[2], Ok(2.0), "open breaker answers from the fallback");
        assert!(model.breaker_open());
        assert_eq!(model.predict_batch(std::slice::from_ref(&b)), vec![Ok(2.0)]);
        let report = model.report();
        assert_eq!(report.breaker_trips, 1);
        assert_eq!(report.queries, 4);
    }

    /// Always fails with a retryable transient error.
    struct AlwaysTransient;

    impl CostModel for AlwaysTransient {
        fn name(&self) -> &str {
            "always-transient"
        }

        fn predict(&self, _: &BasicBlock) -> f64 {
            f64::NAN
        }

        fn try_predict(&self, _: &BasicBlock) -> Result<f64, ModelError> {
            Err(ModelError::Transient { message: "down".into() })
        }
    }

    #[test]
    fn retry_token_bucket_caps_a_retry_storm() {
        let model = ResilientModel::new(
            AlwaysTransient,
            ResilientConfig {
                max_retries: 2,
                breaker_threshold: 1000,
                retry_budget: 3.0,
                retry_refill: 0.0,
                ..test_config()
            },
        );
        let b = block();
        for _ in 0..4 {
            assert!(model.try_predict(&b).is_err());
        }
        let report = model.report();
        // Query 1 spends 2 tokens, query 2 spends the last and is then
        // denied; queries 3 and 4 are denied outright.
        assert_eq!(report.retries, 3, "bucket of 3 allows exactly 3 retries");
        assert_eq!(report.retries_suppressed, 3);
        // Denials fail the query, they do not swallow it silently.
        assert_eq!(report.failures, 4 + 3);
    }

    #[test]
    fn batch_retries_share_the_global_bucket() {
        let model = ResilientModel::new(
            AlwaysTransient,
            ResilientConfig {
                max_retries: 2,
                breaker_threshold: 1000,
                retry_budget: 2.0,
                retry_refill: 0.0,
                ..test_config()
            },
        );
        let b = block();
        let results = model.predict_batch(&[b.clone(), b.clone(), b.clone(), b.clone()]);
        assert!(results.iter().all(Result::is_err));
        let report = model.report();
        // Without the bucket this batch would issue 4 × 2 = 8 retries:
        // item 1 drains the bucket, items 2–4 are each denied once and
        // fail fast.
        assert_eq!(report.retries, 2);
        assert_eq!(report.retries_suppressed, 3, "one denial per item still wanting retries");
    }

    #[test]
    fn successes_refill_the_retry_bucket() {
        // Every 2nd call fails transiently; with refill = 1 per success
        // the bucket never runs dry.
        struct EveryOther(AtomicU64);
        impl CostModel for EveryOther {
            fn name(&self) -> &str {
                "every-other"
            }
            fn predict(&self, block: &BasicBlock) -> f64 {
                self.try_predict(block).unwrap_or(f64::NAN)
            }
            fn try_predict(&self, _: &BasicBlock) -> Result<f64, ModelError> {
                if self.0.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
                    Err(ModelError::Transient { message: "flap".into() })
                } else {
                    Ok(1.0)
                }
            }
        }
        let model = ResilientModel::new(
            EveryOther(AtomicU64::new(0)),
            ResilientConfig {
                max_retries: 2,
                retry_budget: 1.0,
                retry_refill: 1.0,
                ..test_config()
            },
        );
        let b = block();
        for _ in 0..8 {
            assert_eq!(model.try_predict(&b), Ok(1.0), "every query recovers via one retry");
        }
        let report = model.report();
        assert_eq!(report.retries, 8);
        assert_eq!(report.retries_suppressed, 0);
    }

    #[test]
    fn infinite_budget_never_suppresses() {
        let model = ResilientModel::new(
            AlwaysTransient,
            ResilientConfig { breaker_threshold: 1000, ..test_config() },
        );
        let b = block();
        for _ in 0..20 {
            assert!(model.try_predict(&b).is_err());
        }
        let report = model.report();
        assert_eq!(report.retries, 40, "default config retries freely");
        assert_eq!(report.retries_suppressed, 0);
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let mk = || {
            ResilientModel::new(
                AlwaysNan,
                ResilientConfig {
                    backoff_base: Duration::from_nanos(100),
                    seed: 7,
                    ..ResilientConfig::default()
                },
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.backoff(1), b.backoff(1));
        assert_eq!(a.backoff(2), b.backoff(2));
        // Exponential growth: attempt 2 waits at least as long as the
        // smallest possible attempt-1 delay doubled would allow.
        assert!(a.backoff(2) >= Duration::from_nanos(100));
    }

    #[test]
    fn success_resets_consecutive_failures() {
        // Alternating failure/success must never trip a threshold-2
        // breaker.
        struct Alternating(AtomicU64);
        impl CostModel for Alternating {
            fn name(&self) -> &str {
                "alternating"
            }
            fn predict(&self, _: &BasicBlock) -> f64 {
                if self.0.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
                    f64::NAN
                } else {
                    1.0
                }
            }
        }
        let model = ResilientModel::new(
            Alternating(AtomicU64::new(0)),
            ResilientConfig { breaker_threshold: 2, ..test_config() },
        );
        let b = block();
        for _ in 0..6 {
            let _ = model.try_predict(&b);
        }
        assert!(!model.breaker_open());
        assert_eq!(model.report().breaker_trips, 0);
    }
}
