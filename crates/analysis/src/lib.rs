//! # ssdtrain-analysis
//!
//! The paper's performance-modelling layer (Section 3.4): an extension of
//! the `llm-analysis` approach that projects, for large training systems,
//!
//! * forward/step time from measured per-GPU throughput,
//! * per-GPU activation volume per step (validated against functional
//!   runs in Table 4),
//! * the PCIe write bandwidth required to fully overlap offloading,
//! * SSD lifespan under activation-offload write traffic (Figure 9),
//! * the maximal per-GPU activation volume offloading can open up, and
//! * the growth-trend arithmetic behind Figure 1 and Section 2.2.

#![deny(missing_docs, clippy::allow_attributes_without_reason)]
// Library code returns typed errors instead of panicking (DESIGN.md §7).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

pub mod activations;
pub mod endurance;
pub mod perfmodel;
pub mod pipeline;
pub mod scaling;
pub mod zero;

pub use activations::ActivationModel;
pub use endurance::{LifespanProjection, SweepRow};
pub use perfmodel::StepTimeModel;
pub use scaling::{cagr, fit_exponential, TrendFit};
pub use zero::{ZeroMemoryModel, ZeroStage};
