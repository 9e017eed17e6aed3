//! The failure taxonomy for fallible cost-model queries.
//!
//! COMET treats cost models as untrusted black boxes (paper §3): a
//! model may return garbage (NaN/Inf), panic internally, stall, or fail
//! transiently. [`ModelError`] classifies those outcomes so callers can
//! decide what is retryable, what should trip a circuit breaker, and
//! what must be surfaced to the user.

use std::any::Any;
use std::fmt;
use std::time::Duration;

/// Why a single cost-model query failed.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum ModelError {
    /// The model returned a non-finite prediction (NaN or ±Inf).
    NonFinite {
        /// The offending raw prediction.
        value: f64,
    },
    /// The model panicked while computing the prediction.
    Panic {
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The query exceeded its latency deadline.
    Timeout {
        /// Time spent against the deadline when the query was refused
        /// or abandoned.
        elapsed: Duration,
        /// The configured deadline the query blew through, so reports
        /// can say "2.0s elapsed vs 500ms budget".
        deadline: Duration,
    },
    /// A transient failure that may succeed on retry (e.g. a dropped
    /// connection to a remote model server).
    Transient {
        /// Human-readable description of the failure.
        message: String,
    },
    /// The retry budget was exhausted without a successful prediction.
    BudgetExhausted {
        /// Total attempts made (initial query plus retries).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<ModelError>,
    },
    /// The circuit breaker is open and no fallback model is configured.
    CircuitOpen,
}

/// Equality compares [`ModelError::NonFinite`] values *bitwise* so two
/// identically injected NaN faults compare equal — derived `PartialEq`
/// would make a NaN error unequal to itself, breaking "same seed, same
/// fault schedule" comparisons.
impl PartialEq for ModelError {
    fn eq(&self, other: &ModelError) -> bool {
        match (self, other) {
            (ModelError::NonFinite { value: a }, ModelError::NonFinite { value: b }) => {
                a.to_bits() == b.to_bits()
            }
            (ModelError::Panic { message: a }, ModelError::Panic { message: b }) => a == b,
            (
                ModelError::Timeout { elapsed: ea, deadline: da },
                ModelError::Timeout { elapsed: eb, deadline: db },
            ) => ea == eb && da == db,
            (ModelError::Transient { message: a }, ModelError::Transient { message: b }) => a == b,
            (
                ModelError::BudgetExhausted { attempts: aa, last: la },
                ModelError::BudgetExhausted { attempts: ab, last: lb },
            ) => aa == ab && la == lb,
            (ModelError::CircuitOpen, ModelError::CircuitOpen) => true,
            _ => false,
        }
    }
}

impl ModelError {
    /// Whether retrying the same query can plausibly succeed.
    ///
    /// Deterministic failures (a NaN from a deterministic model, an
    /// internal panic) are not retryable; latency spikes and transient
    /// infrastructure failures are.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ModelError::Timeout { .. } | ModelError::Transient { .. })
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NonFinite { value } => {
                write!(f, "model returned a non-finite prediction ({value})")
            }
            ModelError::Panic { message } => {
                write!(f, "model panicked during prediction: {message}")
            }
            ModelError::Timeout { elapsed, deadline } => {
                write!(f, "model query timed out: {elapsed:?} elapsed vs {deadline:?} budget")
            }
            ModelError::Transient { message } => {
                write!(f, "transient model failure: {message}")
            }
            ModelError::BudgetExhausted { attempts, last } => {
                write!(f, "retry budget exhausted after {attempts} attempts (last error: {last})")
            }
            ModelError::CircuitOpen => {
                write!(f, "circuit breaker open and no fallback model configured")
            }
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::BudgetExhausted { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

/// Render a panic payload (from [`std::panic::catch_unwind`]) to text.
pub fn panic_payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run an infallible prediction thunk, converting panics and
/// non-finite outputs into [`ModelError`]s.
///
/// This is the bridge between [`CostModel::predict`] and
/// [`CostModel::try_predict`]: the default `try_predict` routes every
/// legacy model through it, so existing implementations become fallible
/// without any code change.
///
/// [`CostModel::predict`]: crate::CostModel::predict
/// [`CostModel::try_predict`]: crate::CostModel::try_predict
pub fn catch_prediction(f: impl FnOnce() -> f64) -> Result<f64, ModelError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) if value.is_finite() => Ok(value),
        Ok(value) => Err(ModelError::NonFinite { value }),
        Err(payload) => Err(ModelError::Panic { message: panic_payload_message(&*payload) }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_prediction_passes_finite_values() {
        assert_eq!(catch_prediction(|| 2.5), Ok(2.5));
    }

    #[test]
    fn catch_prediction_flags_non_finite() {
        match catch_prediction(|| f64::NAN) {
            Err(ModelError::NonFinite { value }) => assert!(value.is_nan()),
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert!(matches!(catch_prediction(|| f64::INFINITY), Err(ModelError::NonFinite { .. })));
    }

    #[test]
    fn catch_prediction_captures_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_prediction(|| panic!("boom {}", 42));
        std::panic::set_hook(prev);
        match result {
            Err(ModelError::Panic { message }) => assert_eq!(message, "boom 42"),
            other => panic!("expected Panic, got {other:?}"),
        }
    }

    #[test]
    fn retryability_classification() {
        assert!(ModelError::Transient { message: "x".into() }.is_retryable());
        let timeout = ModelError::Timeout {
            elapsed: Duration::from_millis(5),
            deadline: Duration::from_millis(2),
        };
        assert!(timeout.is_retryable());
        let text = timeout.to_string();
        assert!(text.contains("5ms"), "{text}");
        assert!(text.contains("2ms"), "{text}");
        assert!(!ModelError::NonFinite { value: f64::NAN }.is_retryable());
        assert!(!ModelError::Panic { message: "x".into() }.is_retryable());
        assert!(!ModelError::CircuitOpen.is_retryable());
    }

    #[test]
    fn errors_display_and_chain() {
        let e = ModelError::BudgetExhausted {
            attempts: 3,
            last: Box::new(ModelError::Transient { message: "flaky".into() }),
        };
        let text = e.to_string();
        assert!(text.contains("3 attempts"));
        assert!(text.contains("flaky"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
