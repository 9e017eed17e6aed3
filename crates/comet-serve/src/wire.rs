//! Wire format: versioned, strictly validated JSON DTOs.
//!
//! Every request and response carries a `{"v":1,...}` envelope so the
//! format can evolve without silent misparses: a client speaking a
//! different major version gets a clean 400, not a field filled with
//! a default. Request structs are `#[serde(deny_unknown_fields)]` —
//! a typo like `"epsilonn"` is an error, not an ignored key silently
//! running the search with the default ε.

use comet_core::{Explanation, FeatureSet};
use serde::{Deserialize, Serialize};

use crate::metrics::StatusClass;

/// The wire major version this build speaks.
pub const WIRE_V: u32 = 1;

/// Most instructions a `/v1/predict` block may hold. Predict cost is
/// linear in block length (crude: about 0.5 ms at this cap); the
/// paper's BHive blocks hold 4–10.
pub const MAX_PREDICT_INSTS: usize = 256;

/// Most instructions a `/v1/explain` block may hold. A crude-model
/// search at this length takes about 1 s and still anchors; past it
/// the search spends its whole query budget without anchoring.
pub const MAX_EXPLAIN_INSTS: usize = 24;

/// `POST /v1/predict` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PredictRequest {
    /// Wire version; must equal [`WIRE_V`].
    pub v: u32,
    /// Basic-block text (one instruction per line, Intel syntax).
    pub block: String,
    /// Per-request deadline override, milliseconds (body field wins
    /// over the `x-comet-deadline-ms` header).
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// `POST /v1/explain` request body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ExplainRequest {
    /// Wire version; must equal [`WIRE_V`].
    pub v: u32,
    /// Basic-block text (one instruction per line, Intel syntax).
    pub block: String,
    /// ε-ball radius override (cycles); the server default applies
    /// when absent. Part of the single-flight coalescing key.
    #[serde(default)]
    pub epsilon: Option<f64>,
    /// Search RNG seed; identical (block, ε, seed) triples coalesce
    /// onto one in-flight search. Defaults to 0.
    #[serde(default)]
    pub seed: u64,
    /// Per-request deadline override, milliseconds.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
}

/// `POST /v1/predict` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Wire version.
    pub v: u32,
    /// Serving model name.
    pub model: String,
    /// Registry version of the model that produced this prediction.
    /// Every response reports the version its numbers actually came
    /// from, even while a hot-swap is in flight.
    #[serde(default)]
    pub model_version: u64,
    /// Predicted cost (cycles).
    pub prediction: f64,
}

/// The explanation payload inside an [`ExplainResponse`] — an explicit
/// wire-owned mirror of [`Explanation`] (minus process-local
/// diagnostics like wall-clock duration) so the service's JSON shape
/// is pinned here, not implied by a core struct's derive.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplanationDto {
    /// The explanation feature set F̂*.
    pub features: FeatureSet,
    /// The same set rendered in the paper's notation, for humans.
    pub display: String,
    /// Estimated precision.
    pub precision: f64,
    /// Estimated coverage.
    pub coverage: f64,
    /// The model's prediction for the explained block.
    pub prediction: f64,
    /// Whether the precision threshold was reached.
    pub anchored: bool,
    /// Model queries spent by the search.
    pub queries: u64,
    /// Queries that returned an error.
    #[serde(default)]
    pub faults: u64,
    /// Whether the search ran under degraded conditions.
    #[serde(default)]
    pub degraded: bool,
    /// Which rung of the degradation ladder produced this explanation
    /// (`"store"`, `"full"`, `"reduced-budget"`, `"cached"`, or
    /// `"baseline"`).
    #[serde(default)]
    pub tier: String,
    /// Where the explanation came from: `"store"` (precomputed on-disk
    /// store) or `"live"` (an anchors search this process ran).
    #[serde(default)]
    pub source: String,
}

impl From<&Explanation> for ExplanationDto {
    fn from(e: &Explanation) -> ExplanationDto {
        ExplanationDto {
            features: e.features.clone(),
            display: e.display_features(),
            precision: e.precision,
            coverage: e.coverage,
            prediction: e.prediction,
            anchored: e.anchored,
            queries: e.queries,
            faults: e.faults,
            degraded: e.degraded,
            tier: "full".into(),
            source: "live".into(),
        }
    }
}

/// `POST /v1/explain` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainResponse {
    /// Wire version.
    pub v: u32,
    /// Serving model name.
    pub model: String,
    /// Registry version of the model the search queried. A coalesced
    /// follower reports the leader's version — the one whose
    /// predictions are inside the explanation.
    #[serde(default)]
    pub model_version: u64,
    /// ε actually used for the search.
    pub epsilon: f64,
    /// Seed actually used for the search.
    pub seed: u64,
    /// True when this response piggybacked on an identical in-flight
    /// search instead of running its own.
    pub coalesced: bool,
    /// The explanation itself.
    pub explanation: ExplanationDto,
}

/// `POST /admin/model` request body: stage a model candidate (or roll
/// back). The candidate is built server-side from `kind`, staged into
/// the on-disk registry, shadow-validated against the active model,
/// and — if it passes the gates (or `force` is set) — hot-swapped into
/// the serving path on probation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AdminModelRequest {
    /// Wire version; must equal [`WIRE_V`].
    pub v: u32,
    /// Model kind to build (`"crude-haswell"`, `"crude-skylake"`,
    /// `"uica"`). Required unless `rollback` is set.
    #[serde(default)]
    pub kind: Option<String>,
    /// Free-form operator note recorded in the snapshot.
    #[serde(default)]
    pub note: Option<String>,
    /// Skip the shadow-validation gates (the candidate is still
    /// staged, validated, and put on probation — `force` only ignores
    /// a failing report).
    #[serde(default)]
    pub force: bool,
    /// Stage and validate but do not swap, whatever the verdict.
    #[serde(default)]
    pub dry_run: bool,
    /// Roll back to the last-known-good model instead of staging a
    /// candidate. Mutually exclusive with `kind`.
    #[serde(default)]
    pub rollback: bool,
    /// Fault injection: scale the candidate's predictions by this
    /// factor. A scaled candidate fails the shadow MAPE gate — the
    /// supported way to exercise the 409 path and, with `force`, the
    /// probation rollback path.
    #[serde(default)]
    pub chaos_scale: Option<f64>,
    /// Fault injection: make every candidate prediction error. Fails
    /// shadow validation outright; combine with `force` to promote
    /// anyway and exercise the probation failure-rate trip and
    /// automatic rollback.
    #[serde(default)]
    pub chaos_fail: bool,
}

impl HasVersion for AdminModelRequest {
    fn version(&self) -> u32 {
        self.v
    }
}

/// Shadow-validation report for one candidate, returned from
/// `POST /admin/model` and kept in the lifecycle log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShadowReport {
    /// Probe blocks evaluated.
    pub probes: u64,
    /// Candidate predictions that were not finite.
    pub non_finite: u64,
    /// Mean absolute percentage error of the candidate vs the active
    /// model over the probe set.
    pub mape: f64,
    /// Mean per-probe candidate latency, microseconds.
    pub mean_latency_us: f64,
    /// Whether every gate passed.
    pub passed: bool,
    /// Human-readable gate verdicts (empty when `passed`).
    pub failures: Vec<String>,
}

/// `POST /admin/model` / `GET /admin/model` response body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdminModelResponse {
    /// Wire version.
    pub v: u32,
    /// Registry version of the model currently serving traffic.
    pub active_version: u64,
    /// Name of the model currently serving traffic.
    pub active_model: String,
    /// Rebuild recipe of the active model (`"crude-skylake"`, …).
    pub active_kind: String,
    /// Last-known-good version (the rollback target).
    pub last_good_version: u64,
    /// Registry version this request staged (0 if none).
    #[serde(default)]
    pub staged_version: u64,
    /// What the request did: `"promoted"`, `"rejected"`,
    /// `"dry-run"`, `"rolled-back"`, or `"status"`.
    pub action: String,
    /// Shadow-validation report for the staged candidate, when one ran.
    #[serde(default)]
    pub shadow: Option<ShadowReport>,
    /// Versions on disk in the registry, ascending.
    pub registry_versions: Vec<u64>,
    /// Snapshots quarantined at boot (damage found while scanning).
    #[serde(default)]
    pub quarantined: Vec<String>,
    /// Hot-swaps so far (including rollback swaps).
    pub swaps: u64,
    /// Rollbacks so far.
    pub rollbacks: u64,
    /// Requests remaining in the active model's probation window
    /// (0 once settled).
    pub probation_remaining: u64,
    /// Why the last rollback happened, if any.
    #[serde(default)]
    pub last_rollback: Option<String>,
}

/// Error body for every non-200 response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Wire version.
    pub v: u32,
    /// Human-readable failure description.
    pub error: String,
}

impl ErrorResponse {
    /// Build a v1 error body.
    pub fn new(error: impl Into<String>) -> ErrorResponse {
        ErrorResponse { v: WIRE_V, error: error.into() }
    }
}

/// Decode a request body, enforcing UTF-8, JSON shape, unknown-field
/// rejection (via the derive), and the version envelope.
pub fn decode_request<T: serde::Deserialize + HasVersion>(body: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value: T = serde_json::from_str(text).map_err(|e| format!("invalid request: {e}"))?;
    if value.version() != WIRE_V {
        return Err(format!(
            "unsupported wire version {} (this server speaks v{WIRE_V})",
            value.version()
        ));
    }
    Ok(value)
}

/// Access to the envelope version field, for [`decode_request`].
pub trait HasVersion {
    /// The request's `v` field.
    fn version(&self) -> u32;
}

/// A request that carries a basic block, with its endpoint's
/// instruction cap.
pub trait BlockRequest: serde::Deserialize + HasVersion {
    /// The endpoint path, named in the over-cap error.
    const ENDPOINT: &'static str;
    /// Most instructions the block may hold.
    const MAX_INSTS: usize;
    /// The block text.
    fn block(&self) -> &str;
}

impl BlockRequest for PredictRequest {
    const ENDPOINT: &'static str = "/v1/predict";
    const MAX_INSTS: usize = MAX_PREDICT_INSTS;
    fn block(&self) -> &str {
        &self.block
    }
}

impl BlockRequest for ExplainRequest {
    const ENDPOINT: &'static str = "/v1/explain";
    const MAX_INSTS: usize = MAX_EXPLAIN_INSTS;
    fn block(&self) -> &str {
        &self.block
    }
}

/// Decode a predict or explain body and check its block against the
/// endpoint's instruction cap, before anything parses the block. The
/// error carries the status to answer with: 400 for a body that does
/// not decode, 413 for a block over the cap. Shard and router both
/// call this, so they refuse the same bodies with the same text.
pub fn decode_block_request<T: BlockRequest>(body: &[u8]) -> Result<T, (StatusClass, String)> {
    let req: T = decode_request(body).map_err(|e| (StatusClass::BadRequest, e))?;
    // `parse_block` takes one instruction per line that is non-empty
    // once its `;`/`#` comment is cut; counting stops one past the cap,
    // so counting an oversized block costs no more than a full one.
    let insts = req
        .block()
        .lines()
        .filter(|line| !line.split([';', '#']).next().unwrap_or("").trim().is_empty())
        .take(T::MAX_INSTS + 1)
        .count();
    if insts > T::MAX_INSTS {
        return Err((
            StatusClass::PayloadTooLarge,
            format!("{} accepts at most {} instructions per block", T::ENDPOINT, T::MAX_INSTS),
        ));
    }
    Ok(req)
}

impl HasVersion for PredictRequest {
    fn version(&self) -> u32 {
        self.v
    }
}

impl HasVersion for ExplainRequest {
    fn version(&self) -> u32 {
        self.v
    }
}

/// The single-flight coalescing key: FNV-1a over the canonical block
/// text, then the ε bit pattern and the seed folded through the same
/// hash. Identical (block, ε, seed) triples — and only those — share
/// a key (modulo 64-bit collisions, negligible at service scale).
pub fn explain_key(canonical_block: &str, epsilon: f64, seed: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(canonical_block.as_bytes());
    eat(&epsilon.to_bits().to_le_bytes());
    eat(&seed.to_le_bytes());
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_request_round_trips() {
        let req = PredictRequest { v: 1, block: "add rcx, rax\nnop".into(), deadline_ms: Some(50) };
        let json = serde_json::to_string(&req).unwrap();
        let back: PredictRequest = decode_request(json.as_bytes()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn explain_request_round_trips_with_defaults() {
        let req: ExplainRequest = decode_request(br#"{"v":1,"block":"div rcx"}"#).unwrap();
        assert_eq!(req.block, "div rcx");
        assert_eq!(req.seed, 0);
        assert_eq!(req.epsilon, None);
        assert_eq!(req.deadline_ms, None);
        let json = serde_json::to_string(&req).unwrap();
        let back: ExplainRequest = decode_request(json.as_bytes()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn unknown_fields_are_rejected_not_ignored() {
        let err = decode_request::<ExplainRequest>(br#"{"v":1,"block":"nop","epsilonn":0.5}"#)
            .unwrap_err();
        assert!(err.contains("epsilonn"), "{err}");
        let err =
            decode_request::<PredictRequest>(br#"{"v":1,"block":"nop","extra":true}"#).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn wrong_version_is_a_clean_error() {
        let err = decode_request::<PredictRequest>(br#"{"v":2,"block":"nop"}"#).unwrap_err();
        assert!(err.contains("wire version 2"), "{err}");
    }

    #[test]
    fn deeply_nested_body_is_an_error_not_a_stack_overflow() {
        // ~400 KB of `[`: under the body cap, far past the JSON
        // parser's nesting cap.
        let hostile = "[".repeat(400 * 1024);
        let err = decode_request::<PredictRequest>(hostile.as_bytes()).unwrap_err();
        assert!(err.contains("recursion limit"), "{err}");
    }

    fn block_body(insts: usize, extra: &str) -> Vec<u8> {
        let block = vec!["add rcx, 0x12345"; insts].join("\n");
        serde_json::to_vec(&serde_json::json!({ "v": 1, "block": format!("{block}{extra}") }))
            .unwrap()
    }

    #[test]
    fn instruction_cap_counts_lines_as_parse_block_does() {
        // Blank and comment-only lines are not instructions.
        let padded = "\n\n  ; note\n# note\n".repeat(50);
        let req = decode_block_request::<ExplainRequest>(&block_body(MAX_EXPLAIN_INSTS, &padded))
            .unwrap();
        assert_eq!(comet_isa::parse_block(&req.block).unwrap().len(), MAX_EXPLAIN_INSTS);
        let (status, _) =
            decode_block_request::<ExplainRequest>(&block_body(MAX_EXPLAIN_INSTS + 1, &padded))
                .unwrap_err();
        assert_eq!(status, StatusClass::PayloadTooLarge);
    }

    #[test]
    fn large_block_bodies_decode_in_linear_time() {
        // ~40k instructions, ~700 KB: string decoding that rescans the
        // rest of the input per character takes seconds here.
        let body = block_body(40_000, "");
        assert!(body.len() >= 700_000, "{}", body.len());
        let start = std::time::Instant::now();
        let req = decode_request::<PredictRequest>(&body).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(req.block.lines().count(), 40_000);
        assert!(elapsed < std::time::Duration::from_secs(1), "decode took {elapsed:?}");
    }

    #[test]
    fn missing_required_fields_fail() {
        assert!(decode_request::<PredictRequest>(br#"{"v":1}"#).is_err());
        assert!(decode_request::<ExplainRequest>(br#"{"block":"nop"}"#).is_err());
        assert!(decode_request::<PredictRequest>(b"\xff\xfe").is_err());
        assert!(decode_request::<PredictRequest>(b"not json").is_err());
    }

    #[test]
    fn explain_response_round_trips() {
        let dto = ExplanationDto {
            features: FeatureSet::new(),
            display: "{}".into(),
            precision: 0.9,
            coverage: 0.4,
            prediction: 2.25,
            anchored: true,
            queries: 123,
            faults: 0,
            degraded: false,
            tier: "full".into(),
            source: "live".into(),
        };
        let resp = ExplainResponse {
            v: WIRE_V,
            model: "crude".into(),
            model_version: 3,
            epsilon: 0.25,
            seed: 7,
            coalesced: false,
            explanation: dto,
        };
        let json = serde_json::to_string(&resp).unwrap();
        let back: ExplainResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn admin_request_round_trips_and_rejects_unknown_fields() {
        let req: AdminModelRequest =
            decode_request(br#"{"v":1,"kind":"crude-skylake","note":"canary"}"#).unwrap();
        assert_eq!(req.kind.as_deref(), Some("crude-skylake"));
        assert!(!req.force && !req.dry_run && !req.rollback && !req.chaos_fail);
        assert_eq!(req.chaos_scale, None);
        let json = serde_json::to_string(&req).unwrap();
        let back: AdminModelRequest = decode_request(json.as_bytes()).unwrap();
        assert_eq!(back, req);

        let err = decode_request::<AdminModelRequest>(br#"{"v":1,"kindd":"uica"}"#).unwrap_err();
        assert!(err.contains("kindd"), "{err}");
    }

    #[test]
    fn error_response_round_trips() {
        let json = serde_json::to_string(&ErrorResponse::new("overloaded")).unwrap();
        let back: ErrorResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back.error, "overloaded");
        assert_eq!(back.v, WIRE_V);
    }

    #[test]
    fn coalescing_key_separates_block_epsilon_and_seed() {
        let base = explain_key("add rcx, rax", 0.25, 0);
        assert_eq!(base, explain_key("add rcx, rax", 0.25, 0));
        assert_ne!(base, explain_key("add rcx, rbx", 0.25, 0));
        assert_ne!(base, explain_key("add rcx, rax", 0.5, 0));
        assert_ne!(base, explain_key("add rcx, rax", 0.25, 1));
    }
}
