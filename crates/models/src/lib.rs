//! # ssdtrain-models
//!
//! Transformer model zoo for the SSDTrain evaluation: **GPT**
//! (decoder-only), **BERT** (encoder-only) and **T5** (encoder-decoder) —
//! the three architectures of the paper's Section 4 — built on
//! `ssdtrain-autograd` with module scopes that match the paper's
//! Figure 3/Figure 8 breakdown (per-layer attention and MLP blocks).
//!
//! Models run numerically at test scale and symbolically at paper scale
//! (hidden 8192–16384, sequence 1024, head dim 128) from the same code.
//!
//! ```
//! use ssdtrain_models::{Batch, Model, ModelConfig, Recompute};
//! use ssdtrain_autograd::Graph;
//! use ssdtrain_tensor::Device;
//!
//! let dev = Device::cpu();
//! let cfg = ModelConfig::tiny_gpt();
//! let model = Model::build(&cfg, &dev, 42);
//! let g = Graph::new(&dev, 1);
//! let batch = Batch::synthetic(&cfg, 2, 7, &dev);
//! let loss = model.forward_loss(&g, &batch, Recompute::None);
//! assert!(loss.tensor().item().is_finite());
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod bert;
pub mod blocks;
pub mod config;
pub mod gpt;
pub mod layers;
pub mod model;
pub mod stack;
pub mod t5;

pub use batch::Batch;
pub use bert::BertModel;
pub use config::{Arch, ModelConfig, Recompute};
pub use gpt::GptModel;
pub use model::Model;
pub use model::StagedModel;
