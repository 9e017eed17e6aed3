//! # comet-bench
//!
//! Measurement binaries for the COMET reproduction. `bench-report`
//! times the explanation hot path (Γ perturbation, neural inference,
//! the cached model, a miniature Table 2) and writes
//! `BENCH_explain.json`; `chaos-report` replays a seeded fault and
//! abuse storm against `comet-serve` and checks its robustness
//! invariants. The per-layer and end-to-end repository benchmark lives
//! in `repobench/`, and the full-scale paper regenerators in the
//! `comet-eval` binary.
