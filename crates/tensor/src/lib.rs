//! # ssdtrain-tensor
//!
//! Dense-tensor substrate for the SSDTrain reproduction.
//!
//! This crate plays the role PyTorch's ATen layer plays for the original
//! system: it provides tensors whose *storage* is shared, refcounted and
//! individually releasable, which is the property the SSDTrain tensor cache
//! exploits to reclaim GPU memory while a tensor identifier (not a
//! reference) sits on the computation graph.
//!
//! Two execution modes share one code path:
//!
//! * **Numeric** — storages hold real `f32` data and every kernel computes
//!   real values. Used at small scale to prove that offloading does not
//!   change training numerics.
//! * **Symbolic** — storages carry shape/dtype/byte accounting but no data.
//!   Used at paper scale (hidden size 8192–16384) where materialising
//!   activations is impossible on this machine but byte-accurate memory and
//!   transfer accounting is still required.
//!
//! Compute always happens in `f32`; the [`DType`] of a tensor only controls
//! *accounted* bytes (`F16` tensors account 2 bytes/element exactly like the
//! paper's FP16 training runs).
//!
//! ```
//! use ssdtrain_tensor::{Device, Tensor};
//!
//! let dev = Device::cpu();
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2], &dev);
//! let b = Tensor::eye(2, &dev);
//! let c = a.matmul(&b);
//! assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
//! ```

#![deny(missing_docs)]

pub mod device;
pub mod dtype;
pub mod kernels;
#[cfg(test)]
mod reference;
pub mod rng;
pub mod shape;
pub mod storage;
pub mod tensor;

pub use device::{Device, MemClass, MemTracker};
pub use dtype::DType;
pub use rng::Prng;
pub use shape::Shape;
pub use storage::{Storage, StorageId, WeakStorage};
pub use tensor::Tensor;
