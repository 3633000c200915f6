//! # ssdtrain-train
//!
//! The training-step engine: runs one (micro-batched) training step of a
//! GPT/BERT/T5 model on the simulated hardware under one of the three
//! ROK placement strategies — **keep**, **offload** (SSDTrain) or
//! **recompute** — and reports the metrics the paper's evaluation plots:
//! step time, activation memory peak, memory-footprint timeline,
//! offloaded bytes and exposed I/O stall.
//!
//! The scheduler mirrors the hinted DeepSpeed/Megatron schedule of the
//! paper's Algorithm 1: micro-batch switches, the
//! `prefetch_last_module()` hint at the forward→backward transition, and
//! `wait_io()` after each backward pass.
//!
//! ```
//! use ssdtrain_train::prelude::*;
//!
//! let cfg = SessionConfig::builder()
//!     .model(ModelConfig::tiny_gpt())
//!     .batch_size(2)
//!     .strategy(PlacementStrategy::Offload)
//!     .cache(TensorCacheConfig::offload_everything())
//!     .seed(1)
//!     .build()
//!     .expect("valid config");
//! let mut session = TrainSession::new(cfg).expect("session");
//! let metrics = session.run_step().expect("healthy device");
//! assert!(metrics.step_secs > 0.0);
//! ```
//!
//! Step APIs return `Result`: when an injected or real offload failure
//! cannot be absorbed by the configured [`ssdtrain::RecoveryPolicy`],
//! the step surfaces a [`StepError`] carrying the degraded step's
//! metrics instead of aborting the process.

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

pub mod builder;
pub mod error;
mod executor;
pub mod metrics;
mod opt_engine;
pub mod pipeline;
pub mod pipeline_exec;
pub mod prelude;
mod schedule;
pub mod session;

// The crate root re-exports exactly the prelude — one list to maintain.
pub use prelude::*;
