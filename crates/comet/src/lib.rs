//! # COMET — Neural Cost Model Explanation Framework
//!
//! A from-scratch Rust reproduction of *"COMET: Neural Cost Model
//! Explanation Framework"* (Chaudhary, Renda, Mendis, Singh — MLSys
//! 2024): faithful, generalizable, and simple explanations for
//! black-box basic-block cost models, with query access only.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`isa`] — x86-64 subset: parsing, printing, signatures, timing
//!   tables (Haswell/Skylake);
//! * [`graph`] — dependency multigraphs (RAW/WAR/WAW);
//! * [`nn`] — minimal LSTM deep-learning stack;
//! * [`sim`] — port-based pipeline throughput simulator;
//! * [`models`] — the [`models::CostModel`] trait, the crude
//!   interpretable model C, and the Ithemal/uiCA surrogates;
//! * [`bhive`] — synthetic BHive-style corpora;
//! * [`core`] — the explanation framework itself ([`Explainer`]);
//! * [`eval`] — the harness regenerating the paper's tables/figures.
//!
//! # Quickstart
//!
//! ```
//! use comet::{ExplainConfig, Explainer};
//! use comet::models::CrudeModel;
//! use comet::isa::Microarch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let block = comet::isa::parse_block("add rcx, rax\nmov rdx, rcx\npop rbx")?;
//! let model = CrudeModel::new(Microarch::Haswell);
//! let explainer = Explainer::new(model, ExplainConfig::for_crude_model());
//! let explanation = explainer.explain(&block, 0)?;
//! println!("{}", explanation.display_features());
//! # Ok(())
//! # }
//! ```
//!
//! Cost models are untrusted black boxes: predictions flow through the
//! fallible [`models::CostModel::try_predict`], `explain` returns
//! `Result<Explanation, ExplainError>`, and the [`models`] crate ships
//! a resilience decorator ([`models::ResilientModel`]) plus a seeded
//! fault injector ([`models::FaultyModel`]) for robustness testing.

#![warn(missing_docs)]

pub use comet_bhive as bhive;
pub use comet_core as core;
pub use comet_eval as eval;
pub use comet_graph as graph;
pub use comet_isa as isa;
pub use comet_models as models;
pub use comet_nn as nn;
pub use comet_sim as sim;

pub use comet_core::{
    ExplainConfig, ExplainError, Explainer, Explanation, Feature, FeatureKind, FeatureSet,
    PerturbConfig, Perturber,
};
pub use comet_models::ModelError;
