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

/// The output gradient of a one-output op: [`Graph::backward_from`]
/// runs a node's backward only once one of its outputs has a gradient.
///
/// [`Graph::backward_from`]: crate::Graph::backward_from
#[expect(
    clippy::expect_used,
    reason = "backward skips a node none of whose outputs has a gradient"
)]
pub(crate) fn out_grad(grads: &[Option<Tensor>]) -> &Tensor {
    grads[0]
        .as_ref()
        .expect("a one-output node runs backward with its gradient")
}

/// [`out_grad`] for a backward that consumes it: the gradient dies with
/// the node, so a kernel may write the input gradient into its buffer
/// and leave the husk in the slot, where the engine drops it as it
/// would have dropped the gradient.
#[expect(
    clippy::expect_used,
    reason = "backward skips a node none of whose outputs has a gradient"
)]
pub(crate) fn out_grad_mut(grads: &mut [Option<Tensor>]) -> &mut Tensor {
    grads[0]
        .as_mut()
        .expect("a one-output node runs backward with its gradient")
}

/// True when every listed tensor carries data.
pub(crate) fn all_numeric(ts: &[&Tensor]) -> bool {
    ts.iter().all(|t| t.has_data())
}
