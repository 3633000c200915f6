//! Saved-tensor pack/unpack hooks — the graph's extension point.
//!
//! When an operator saves a tensor for backward, the engine calls
//! [`SavedTensorHooks::pack`] and registers the *returned value* on the
//! computation graph instead of the tensor. When backward needs the tensor
//! again it calls [`SavedTensorHooks::unpack`]. The SSDTrain tensor cache
//! returns an opaque identifier from `pack` (releasing the tensor's memory
//! once offloading completes) and blocks in `unpack` until the reload
//! finishes — see Figure 6 of the paper.

use ssdtrain_tensor::Tensor;

/// The value an operator registers on the graph in place of a saved
/// tensor.
#[derive(Debug, Clone)]
pub enum Packed {
    /// The tensor itself (pack declined to intercept — parameters, small
    /// tensors, CPU tensors; paper Algorithm 2 line 12).
    Tensor(Tensor),
    /// An opaque handle the hooks can resolve back to the tensor.
    Opaque(u64),
}

/// Pack/unpack hook pair, mirroring
/// `torch.autograd.graph.saved_tensors_hooks`.
pub trait SavedTensorHooks: Send + Sync {
    /// Decides what to register on the graph for a tensor being saved.
    fn pack(&self, tensor: &Tensor) -> Packed;

    /// Resolves a packed value back to its tensor.
    ///
    /// For [`Packed::Tensor`] implementations must return the contained
    /// tensor unchanged (paper Algorithm 2 line 20).
    fn unpack(&self, packed: &Packed) -> Tensor;
}
