//! Everything a training program needs, in one import.
//!
//! Layers the session/builder/pipeline API on top of
//! [`ssdtrain::prelude`], so `use ssdtrain_train::prelude::*;` brings in
//! the cache, trace and simulated-hardware types too. The crate root
//! re-exports this module wholesale.

pub use ssdtrain::prelude::*;

pub use crate::builder::{ConfigError, SessionBuilder};
pub use crate::error::{PipelineError, StepError};
pub use crate::metrics::StepMetrics;
pub use crate::pipeline::{PipelineMetrics, PipelineSim};
pub use crate::pipeline_exec::{PipelineExec, PipelineExecConfig, PipelineStepReport};
pub use crate::session::{OffloadBackend, OffloadClassSet, SessionConfig, TrainSession};

pub use ssdtrain_models::{Arch, Batch, Model, ModelConfig};
