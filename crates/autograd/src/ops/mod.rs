//! Differentiable operators.
//!
//! Each function executes its kernel immediately (numerically or
//! symbolically), reports its cost to the graph observer, and records a
//! node whose saved tensors go through the pack hooks — the behaviour the
//! SSDTrain tensor cache intercepts.

mod attention;
mod basic;
mod embed;
mod linear;
mod norm;
#[cfg(test)]
mod reference;

pub use attention::{flash_attention, permute_heads, transpose_12, unpermute_heads};
pub use basic::{add, allreduce, mean_all, mul, reshape, scale, sum_all};
pub use embed::{cross_entropy_mean, embedding};
pub use linear::{add_bias, bmm, matmul};
pub use norm::{apply_causal_mask, dropout, gelu, layernorm, softmax_last};

use ssdtrain_tensor::{Device, Shape, Tensor};

/// Creates a shape-only tensor on `dev` (shared helper for symbolic
/// backward paths).
pub(crate) fn sym(shape: impl Into<Shape>, dev: &Device) -> Tensor {
    Tensor::symbolic(shape.into(), dev)
}

/// True when every listed tensor carries data.
pub(crate) fn all_numeric(ts: &[&Tensor]) -> bool {
    ts.iter().all(|t| t.has_data())
}
