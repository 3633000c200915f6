//! Trainable leaf variables (parameters).

use parking_lot::Mutex;
use ssdtrain_tensor::{MemClass, Tensor};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Unique identity of a leaf variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(u64);

impl VarId {
    fn next() -> VarId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        VarId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

struct VarInner {
    id: VarId,
    name: String,
    tensor: Mutex<Tensor>,
    grad: Mutex<Option<Tensor>>,
    uses: Mutex<TapeUses>,
}

/// Gradient contributions to a leaf still pending on one tape: recorded
/// uses not yet retired by backward. Stamped with the tape's generation,
/// so a count left over from an earlier tape restarts instead of leaking.
#[derive(Default)]
struct TapeUses {
    tape: u64,
    pending: usize,
}

/// A trainable parameter: a tensor plus an accumulated gradient slot.
///
/// Cloning shares the parameter (like `torch.nn.Parameter` handles).
///
/// ```
/// use ssdtrain_autograd::Var;
/// use ssdtrain_tensor::{Device, Tensor};
/// let dev = Device::cpu();
/// let w = Var::new("w", Tensor::zeros([2, 2], &dev));
/// assert!(w.grad().is_none());
/// ```
#[derive(Clone)]
pub struct Var {
    inner: Arc<VarInner>,
}

impl Var {
    /// Creates a parameter from an initial tensor.
    pub fn new(name: impl Into<String>, tensor: Tensor) -> Var {
        Var {
            inner: Arc::new(VarInner {
                id: VarId::next(),
                name: name.into(),
                tensor: Mutex::new(tensor),
                grad: Mutex::new(None),
                uses: Mutex::new(TapeUses::default()),
            }),
        }
    }

    /// Identity of this parameter.
    pub fn id(&self) -> VarId {
        self.inner.id
    }

    /// Name given at construction.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Snapshot of the current tensor (cheap storage-sharing clone).
    pub fn tensor(&self) -> Tensor {
        self.inner.tensor.lock().clone()
    }

    /// Replaces the parameter tensor (used by optimizers).
    pub fn set_tensor(&self, t: Tensor) {
        *self.inner.tensor.lock() = t;
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.inner.tensor.lock().numel()
    }

    /// Current accumulated gradient, if any.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.grad.lock().clone()
    }

    /// Runs `f` on the current gradient, if any, without cloning the
    /// handle (`f` must not touch this parameter's gradient slot).
    pub fn with_grad<R>(&self, f: impl FnOnce(&Tensor) -> R) -> Option<R> {
        self.inner.grad.lock().as_ref().map(f)
    }

    /// Adds `g` into the gradient slot. The first contribution becomes
    /// the slot under [`MemClass::Gradient`] ([`Tensor::into_class`]): a
    /// gradient handed over alone is adopted, like PyTorch's
    /// `AccumulateGrad` stealing a fresh gradient, and a shared handle or
    /// view is copied. Later contributions are summed into the slot in
    /// place.
    ///
    /// # Panics
    /// Panics if `g`'s shape differs from the parameter's.
    pub fn accumulate_grad(&self, g: Tensor) {
        let mut slot = self.inner.grad.lock();
        match &*slot {
            Some(existing) => existing.accumulate(&g),
            None => *slot = Some(g.into_class(MemClass::Gradient)),
        }
    }

    /// Clears the gradient slot.
    pub fn zero_grad(&self) {
        *self.inner.grad.lock() = None;
    }

    /// Counts one recorded use of this leaf on tape generation `tape`.
    pub(crate) fn note_use(&self, tape: u64) {
        let mut uses = self.inner.uses.lock();
        if uses.tape != tape {
            *uses = TapeUses { tape, pending: 0 };
        }
        uses.pending += 1;
    }

    /// Retires one use on tape `tape`; true when it was the last one
    /// pending, i.e. no later contribution to the gradient can come.
    pub(crate) fn retire_use(&self, tape: u64) -> bool {
        let mut uses = self.inner.uses.lock();
        if uses.tape != tape || uses.pending == 0 {
            return false;
        }
        uses.pending -= 1;
        uses.pending == 0
    }

    /// Uses still pending on tape `tape` (test probe).
    #[cfg(test)]
    pub(crate) fn pending_uses(&self, tape: u64) -> usize {
        let uses = self.inner.uses.lock();
        if uses.tape == tape {
            uses.pending
        } else {
            0
        }
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.inner.id)
            .field("name", &self.inner.name)
            .field("shape", &self.tensor().shape().to_string())
            .field("has_grad", &self.grad().is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_tensor::Device;

    #[test]
    fn grad_accumulates_across_calls() {
        let dev = Device::cpu();
        let v = Var::new("v", Tensor::zeros([2], &dev));
        let g = Tensor::from_vec(vec![1.0, 2.0], [2], &dev);
        v.accumulate_grad(g.clone());
        v.accumulate_grad(g);
        assert_eq!(v.grad().unwrap().to_vec(), vec![2.0, 4.0]);
        assert_eq!(v.grad().unwrap().mem_class(), MemClass::Gradient);
        v.zero_grad();
        assert!(v.grad().is_none());
    }

    #[test]
    fn clones_share_state() {
        let dev = Device::cpu();
        let v = Var::new("v", Tensor::zeros([1], &dev));
        let c = v.clone();
        c.accumulate_grad(Tensor::ones([1], &dev));
        assert!(v.grad().is_some());
        assert!(Arc::ptr_eq(&v.inner, &c.inner));
    }

    #[test]
    fn ids_are_unique() {
        let dev = Device::cpu();
        let a = Var::new("a", Tensor::zeros([1], &dev));
        let b = Var::new("b", Tensor::zeros([1], &dev));
        assert_ne!(a.id(), b.id());
    }
}
