//! # ssdtrain-autograd
//!
//! A define-by-run automatic-differentiation engine reproducing the PyTorch
//! semantics that SSDTrain (TBA) builds on:
//!
//! * **Saved-tensor pack/unpack hooks** — when an operator saves a tensor
//!   for backward, the registered [`SavedTensorHooks::pack`] decides what
//!   actually goes on the graph (the tensor itself, or an opaque
//!   identifier); [`SavedTensorHooks::unpack`] resolves it back at
//!   backward time. This is the exact extension point the SSDTrain tensor
//!   cache uses (paper Section 3.2, Figure 6).
//! * **Module hook pairs** — `forward_pre` / `forward_post` and
//!   `backward_pre` / `backward_post` fire as module scopes open and close
//!   in both directions (paper Algorithm 2).
//! * **Activation checkpointing** — [`checkpoint()`] runs a module without
//!   saving intermediate activations and recomputes them during backward
//!   with the original RNG state, giving the "layerwise full
//!   recomputation" strategy of the ROK curve (paper Section 4.3).
//!
//! ```
//! use ssdtrain_autograd::{Graph, Var, ops};
//! use ssdtrain_tensor::{Device, Tensor};
//!
//! let dev = Device::cpu();
//! let g = Graph::new(&dev, 1);
//! let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &dev));
//! let x = g.constant(Tensor::from_vec(vec![3.0], [1, 1], &dev));
//! let y = ops::matmul(&g, &x, &g.leaf(&w));
//! let loss = ops::mean_all(&g, &y);
//! g.backward(&loss);
//! assert_eq!(w.grad().unwrap().to_vec(), vec![3.0]);
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

mod checkpoint;
mod gradcheck;
mod graph;
mod hooks;
mod observer;
pub mod ops;
pub mod optim;
mod scope;
mod value;
pub mod var;

pub use checkpoint::checkpoint;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use graph::Graph;
pub use hooks::{Packed, SavedTensorHooks};
pub use observer::{ExecObserver, OpCost, Phase};
pub use scope::{ModuleHooks, ScopeInfo};
pub use value::Value;
pub use var::Var;
