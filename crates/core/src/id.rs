//! Tensor identity — the paper's `get_id()` (Section 3.3.1).
//!
//! PyTorch's native `id()` is a memory address, which gets recycled once
//! an offloaded tensor is garbage-collected; the paper instead stamps each
//! tensor's *underlying storage* with the timestamp at which `get_id()`
//! first saw it and combines that with the tensor's shape. Because the
//! stamp lives on the storage, a transposed parameter view receives the
//! same stamp as its base across steps, and re-wrapped `torch.Tensor`
//! objects for the same data deduplicate. We reproduce this with a
//! write-once slot on [`ssdtrain_tensor::Storage`] and a process-global
//! monotonic logical timestamp.

use ssdtrain_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of a saved tensor: the storage's first-seen stamp plus the
/// view's shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorKey {
    /// First-seen logical timestamp of the underlying storage.
    pub stamp: u64,
    /// Dimension extents of the saved view.
    pub shape: Vec<usize>,
}

impl std::fmt::Display for TensorKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}x{:?}", self.stamp, self.shape)
    }
}

fn next_logical_timestamp() -> u64 {
    static CLOCK: AtomicU64 = AtomicU64::new(1);
    CLOCK.fetch_add(1, Ordering::Relaxed)
}

/// Returns the stable identity of `t`, stamping its storage on first
/// sight.
///
/// ```
/// use ssdtrain::id::tensor_key;
/// use ssdtrain_tensor::{Device, Tensor};
/// let dev = Device::cpu();
/// let t = Tensor::zeros([2, 3], &dev);
/// // Views of the same storage share a stamp; shape tells them apart.
/// assert_eq!(tensor_key(&t).stamp, tensor_key(&t.t()).stamp);
/// assert_ne!(tensor_key(&t), tensor_key(&t.t()));
/// ```
pub fn tensor_key(t: &Tensor) -> TensorKey {
    let stamp = t.storage().stamp_once(next_logical_timestamp());
    TensorKey {
        stamp,
        shape: t.dims().to_vec(),
    }
}

/// Returns the storage stamp `t` carries, stamping it first if needed.
/// Used for parameter registration, which must match *any view* of the
/// parameter (shape-agnostic).
pub fn storage_stamp(t: &Tensor) -> u64 {
    t.storage().stamp_once(next_logical_timestamp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_tensor::{Device, Tensor};

    #[test]
    fn same_tensor_same_key() {
        let dev = Device::cpu();
        let t = Tensor::zeros([2, 3], &dev);
        assert_eq!(tensor_key(&t), tensor_key(&t));
        assert_eq!(tensor_key(&t), tensor_key(&t.clone()));
    }

    #[test]
    fn transpose_shares_stamp_but_not_key() {
        let dev = Device::cpu();
        let t = Tensor::zeros([2, 3], &dev);
        let tt = t.t();
        let k = tensor_key(&t);
        let kt = tensor_key(&tt);
        assert_eq!(k.stamp, kt.stamp, "views share the storage stamp");
        assert_ne!(k, kt, "shape distinguishes the views");
        // The transpose's key is consistent across calls (the paper's
        // cross-step consistency property).
        assert_eq!(kt, tensor_key(&tt));
    }

    #[test]
    fn distinct_storages_never_collide_even_after_drop() {
        // The failure mode the paper fixes: address reuse after GC. Our
        // stamps are monotonic, so a new storage can never reuse an old
        // identity.
        let dev = Device::cpu();
        let k1 = {
            let t = Tensor::zeros([4], &dev);
            tensor_key(&t)
        };
        let t2 = Tensor::zeros([4], &dev);
        let k2 = tensor_key(&t2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn reshape_of_same_storage_with_same_shape_deduplicates() {
        let dev = Device::cpu();
        let t = Tensor::zeros([6], &dev);
        let a = t.reshape([2, 3]);
        let b = t.reshape([2, 3]);
        assert_eq!(tensor_key(&a), tensor_key(&b));
    }

    #[test]
    fn storage_stamp_is_shape_agnostic() {
        let dev = Device::cpu();
        let t = Tensor::zeros([2, 3], &dev);
        assert_eq!(storage_stamp(&t), storage_stamp(&t.t()));
        assert_eq!(storage_stamp(&t), storage_stamp(&t.reshape([6])));
    }
}
