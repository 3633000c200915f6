//! Device contexts and memory tracking.
//!
//! A [`Device`] stands in for a CUDA device context: tensor storages created
//! on it report their accounted byte sizes to an optional [`MemTracker`],
//! which is how the simulated GPU memory allocator (in `ssdtrain-simhw`)
//! observes every allocation and free, reconstructing the memory-footprint
//! timeline of the paper's Figure 7.

use crate::dtype::DType;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Classification of a storage for memory accounting.
///
/// The paper's evaluation separates *activation* memory from everything
/// else (parameters, gradients, optimizer state); tagging allocations lets
/// the tracker report per-class peaks (Figures 10 and 11 report the
/// activations peak, Figure 7 the total footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemClass {
    /// Model weights.
    Parameter,
    /// Gradients of model weights.
    Gradient,
    /// Optimizer state (momentum etc.).
    OptimizerState,
    /// Intermediate tensors produced in forward and reused in backward.
    #[default]
    Activation,
    /// Short-lived scratch (e.g. backward temporaries).
    Workspace,
}

impl MemClass {
    /// All classes, for iteration in reports.
    pub const ALL: [MemClass; 5] = [
        MemClass::Parameter,
        MemClass::Gradient,
        MemClass::OptimizerState,
        MemClass::Activation,
        MemClass::Workspace,
    ];

    /// Short stable label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            MemClass::Parameter => "param",
            MemClass::Gradient => "grad",
            MemClass::OptimizerState => "optim",
            MemClass::Activation => "activation",
            MemClass::Workspace => "workspace",
        }
    }

    pub(crate) fn from_u8(v: u8) -> MemClass {
        match v {
            0 => MemClass::Parameter,
            1 => MemClass::Gradient,
            2 => MemClass::OptimizerState,
            3 => MemClass::Activation,
            _ => MemClass::Workspace,
        }
    }

    pub(crate) fn as_u8(self) -> u8 {
        match self {
            MemClass::Parameter => 0,
            MemClass::Gradient => 1,
            MemClass::OptimizerState => 2,
            MemClass::Activation => 3,
            MemClass::Workspace => 4,
        }
    }
}

impl fmt::Display for MemClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Observer of device-memory traffic.
///
/// Implemented by the simulated GPU allocator. `on_alloc` fires when a
/// storage's data becomes resident (creation or reload from an offload
/// target); `on_free` fires when it is released (drop or offload
/// completion).
pub trait MemTracker: Send + Sync {
    /// Called when `bytes` of class `class` become resident.
    fn on_alloc(&self, bytes: u64, class: MemClass);
    /// Called when `bytes` of class `class` are released.
    fn on_free(&self, bytes: u64, class: MemClass);
}

/// A no-op tracker, useful in tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracker;

impl MemTracker for NullTracker {
    fn on_alloc(&self, _bytes: u64, _class: MemClass) {}
    fn on_free(&self, _bytes: u64, _class: MemClass) {}
}

struct DeviceInner {
    tracker: parking_lot::RwLock<Option<Arc<dyn MemTracker>>>,
    default_class: AtomicU8,
    default_dtype: AtomicU8,
    symbolic: AtomicBool,
    name: String,
}

/// A device context on which tensors are allocated.
///
/// Cloning is cheap (shared handle). The *default memory class* is ambient
/// state toggled by the training loop: during forward propagation new
/// tensors are activations, during optimizer steps they are optimizer
/// state, and so on.
///
/// ```
/// use ssdtrain_tensor::{Device, MemClass, Tensor};
/// let dev = Device::cpu();
/// dev.set_default_class(MemClass::Parameter);
/// let w = Tensor::zeros(&[4, 4], &dev);
/// assert_eq!(w.mem_class(), MemClass::Parameter);
/// ```
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// A plain numeric device with no tracker attached.
    pub fn cpu() -> Device {
        Device::with_name("cpu", false)
    }

    /// A device that propagates shapes only; storages created on it carry
    /// no data. Used for paper-scale runs.
    pub fn symbolic() -> Device {
        Device::with_name("symbolic", true)
    }

    fn with_name(name: &str, symbolic: bool) -> Device {
        // Numeric devices default to F32 (exact offload round trips);
        // symbolic devices default to F16, matching the paper's FP16 runs.
        let dtype = if symbolic { DType::F16 } else { DType::F32 };
        Device {
            inner: Arc::new(DeviceInner {
                tracker: parking_lot::RwLock::new(None),
                default_class: AtomicU8::new(MemClass::Activation.as_u8()),
                default_dtype: AtomicU8::new(dtype_to_u8(dtype)),
                symbolic: AtomicBool::new(symbolic),
                name: name.to_owned(),
            }),
        }
    }

    /// Element type assigned to tensors created without an explicit dtype.
    pub fn default_dtype(&self) -> DType {
        dtype_from_u8(self.inner.default_dtype.load(Ordering::Relaxed))
    }

    /// Sets the dtype used by tensor constructors on this device.
    pub fn set_default_dtype(&self, dtype: DType) {
        self.inner
            .default_dtype
            .store(dtype_to_u8(dtype), Ordering::Relaxed);
    }

    /// Runs `f` with the default dtype temporarily set to `dtype` (used
    /// e.g. to create one-byte dropout masks).
    pub fn with_dtype<R>(&self, dtype: DType, f: impl FnOnce() -> R) -> R {
        let prev = self.default_dtype();
        self.set_default_dtype(dtype);
        let r = f();
        self.set_default_dtype(prev);
        r
    }

    /// Whether tensors created here are shape-only.
    pub fn is_symbolic(&self) -> bool {
        self.inner.symbolic.load(Ordering::Relaxed)
    }

    /// Attaches a memory tracker; subsequent storage traffic is reported to
    /// it. Replaces any previous tracker.
    pub fn set_tracker(&self, tracker: Arc<dyn MemTracker>) {
        *self.inner.tracker.write() = Some(tracker);
    }

    /// Removes the tracker.
    pub fn clear_tracker(&self) {
        *self.inner.tracker.write() = None;
    }

    /// Current default class assigned to new storages.
    pub fn default_class(&self) -> MemClass {
        MemClass::from_u8(self.inner.default_class.load(Ordering::Relaxed))
    }

    /// Sets the class assigned to storages created from now on.
    pub fn set_default_class(&self, class: MemClass) {
        self.inner
            .default_class
            .store(class.as_u8(), Ordering::Relaxed);
    }

    /// Runs `f` with the default class temporarily set to `class`.
    pub fn with_class<R>(&self, class: MemClass, f: impl FnOnce() -> R) -> R {
        let prev = self.default_class();
        self.set_default_class(class);
        let r = f();
        self.set_default_class(prev);
        r
    }

    pub(crate) fn notify_alloc(&self, bytes: u64, class: MemClass) {
        if let Some(t) = self.inner.tracker.read().as_ref() {
            t.on_alloc(bytes, class);
        }
    }

    pub(crate) fn notify_free(&self, bytes: u64, class: MemClass) {
        if let Some(t) = self.inner.tracker.read().as_ref() {
            t.on_free(bytes, class);
        }
    }
}

fn dtype_to_u8(d: DType) -> u8 {
    match d {
        DType::F16 => 0,
        DType::F32 => 2,
        DType::U8 => 3,
    }
}

fn dtype_from_u8(v: u8) -> DType {
    match v {
        0 => DType::F16,
        3 => DType::U8,
        _ => DType::F32,
    }
}

impl fmt::Debug for Device {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.name)
            .field("symbolic", &self.is_symbolic())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Default)]
    struct Counting {
        alloc: AtomicU64,
        free: AtomicU64,
    }

    impl MemTracker for Counting {
        fn on_alloc(&self, bytes: u64, _c: MemClass) {
            self.alloc.fetch_add(bytes, Ordering::Relaxed);
        }
        fn on_free(&self, bytes: u64, _c: MemClass) {
            self.free.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    #[test]
    fn tracker_sees_traffic() {
        let dev = Device::cpu();
        let t = Arc::new(Counting::default());
        dev.set_tracker(t.clone());
        dev.notify_alloc(128, MemClass::Activation);
        dev.notify_free(64, MemClass::Activation);
        assert_eq!(t.alloc.load(Ordering::Relaxed), 128);
        assert_eq!(t.free.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn with_class_restores_previous() {
        let dev = Device::cpu();
        dev.set_default_class(MemClass::Parameter);
        let inside = dev.with_class(MemClass::Gradient, || dev.default_class());
        assert_eq!(inside, MemClass::Gradient);
        assert_eq!(dev.default_class(), MemClass::Parameter);
    }

    #[test]
    fn symbolic_flag() {
        assert!(Device::symbolic().is_symbolic());
        assert!(!Device::cpu().is_symbolic());
    }
}
