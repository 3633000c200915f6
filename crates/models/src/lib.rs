//! # ssdtrain-models
//!
//! Transformer model zoo for the SSDTrain evaluation: **GPT**
//! (decoder-only), **BERT** (encoder-only) and **T5** (encoder-decoder) —
//! the three architectures of the paper's Section 4, GPT and BERT as one
//! [`LmModel`] whose architecture picks the attention mask — built on
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

#![deny(missing_docs, clippy::allow_attributes_without_reason)]
// A `pub` item is one another crate calls: inside a private module it
// must be re-exported, or it says `pub(crate)` (DESIGN.md §2).
#![deny(unreachable_pub)]
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

mod batch;
mod blocks;
mod config;
mod layers;
mod lm;
mod model;
mod stack;
mod t5;

pub use batch::Batch;
pub use config::{Arch, ModelConfig, Recompute};
pub use lm::LmModel;
pub use model::Model;

// `LmModel`'s tests, one module per architecture it builds.
#[cfg(test)]
mod bert;
#[cfg(test)]
mod gpt;
