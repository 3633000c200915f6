//! The [`Tensor`] handle: a shaped, strided view over a [`Storage`].

use crate::device::{Device, MemClass};
use crate::dtype::DType;
use crate::rng::Prng;
use crate::shape::Shape;
use crate::storage::{PayloadRead, Storage, WeakStorage};
use std::cell::RefCell;
use std::fmt;

thread_local! {
    /// Gather buffers for strided operands of [`Tensor::with_values_of`],
    /// kept between calls so a transposed operand costs a copy but no
    /// allocation once the largest one has been seen.
    static GATHER_SCRATCH: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Appends the strided view `dims`/`strides` at `offset` to `out` in
/// row-major order.
fn gather(data: &[f32], dims: &[usize], strides: &[usize], offset: usize, out: &mut Vec<f32>) {
    match (dims, strides) {
        ([], _) => out.push(data[offset]),
        ([n], [stride, ..]) => out.extend((0..*n).map(|i| data[offset + i * stride])),
        ([n, dims @ ..], [stride, strides @ ..]) => {
            for i in 0..*n {
                gather(data, dims, strides, offset + i * stride, out);
            }
        }
        _ => unreachable!("a view has one stride per dimension"),
    }
}

/// A multi-dimensional view over shared storage.
///
/// Cloning a tensor is cheap and shares the underlying buffer, exactly
/// like `torch.Tensor`. Views created with [`Tensor::transpose`] and
/// [`Tensor::reshape`] share storage with their base, which is what makes
/// the paper's storage-stamp deduplication meaningful (a transposed weight
/// and its base carry the same stamp).
///
/// ```
/// use ssdtrain_tensor::{Device, Tensor};
/// let dev = Device::cpu();
/// let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3], &dev);
/// let tt = t.transpose(0, 1);
/// assert_eq!(tt.dims(), &[3, 2]);
/// assert!(t.storage().ptr_eq(tt.storage()));
/// assert_eq!(tt.to_vec(), vec![1., 4., 2., 5., 3., 6.]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    storage: Storage,
    shape: Shape,
    strides: Vec<usize>,
    offset: usize,
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor owning `data` with the given shape.
    ///
    /// Uses the device's default dtype and memory class.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count, or
    /// if the device is symbolic.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>, device: &Device) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        let storage =
            Storage::numeric(data, device.default_dtype(), device.default_class(), device);
        Tensor::over(storage, shape)
    }

    /// Creates a tensor of zeros (numeric) or a shape-only tensor
    /// (symbolic device).
    pub fn zeros(shape: impl Into<Shape>, device: &Device) -> Tensor {
        Tensor::full(shape, 0.0, device)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: impl Into<Shape>, device: &Device) -> Tensor {
        Tensor::full(shape, 1.0, device)
    }

    /// Creates a tensor filled with `value`. On a symbolic device the value
    /// is ignored and a shape-only tensor is produced.
    pub fn full(shape: impl Into<Shape>, value: f32, device: &Device) -> Tensor {
        let shape = shape.into();
        let storage = if device.is_symbolic() {
            Storage::symbolic(
                shape.numel(),
                device.default_dtype(),
                device.default_class(),
                device,
            )
        } else {
            Storage::numeric(
                vec![value; shape.numel()],
                device.default_dtype(),
                device.default_class(),
                device,
            )
        };
        Tensor::over(storage, shape)
    }

    /// Creates a shape-only tensor regardless of device mode. Its bytes are
    /// accounted, but it carries no values.
    pub fn symbolic(shape: impl Into<Shape>, device: &Device) -> Tensor {
        let shape = shape.into();
        let storage = Storage::symbolic(
            shape.numel(),
            device.default_dtype(),
            device.default_class(),
            device,
        );
        Tensor::over(storage, shape)
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize, device: &Device) -> Tensor {
        if device.is_symbolic() {
            return Tensor::symbolic([n, n], device);
        }
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::from_vec(data, [n, n], device)
    }

    /// Values `0, 1, …, n-1` as a 1-D tensor.
    pub fn arange(n: usize, device: &Device) -> Tensor {
        if device.is_symbolic() {
            return Tensor::symbolic([n], device);
        }
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), [n], device)
    }

    /// Standard-normal samples scaled by `std`.
    pub fn randn(shape: impl Into<Shape>, std: f32, rng: &mut Prng, device: &Device) -> Tensor {
        let shape = shape.into();
        if device.is_symbolic() {
            return Tensor::symbolic(shape, device);
        }
        let data = (0..shape.numel())
            .map(|_| rng.next_normal() * std)
            .collect();
        Tensor::from_vec(data, shape, device)
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform(
        shape: impl Into<Shape>,
        lo: f32,
        hi: f32,
        rng: &mut Prng,
        device: &Device,
    ) -> Tensor {
        let shape = shape.into();
        if device.is_symbolic() {
            return Tensor::symbolic(shape, device);
        }
        let data = (0..shape.numel())
            .map(|_| lo + (hi - lo) * rng.next_f32())
            .collect();
        Tensor::from_vec(data, shape, device)
    }

    /// Wraps an existing storage with a contiguous view of `shape`.
    ///
    /// # Panics
    /// Panics if the shape's element count differs from the storage's.
    pub fn over(storage: Storage, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            storage.numel(),
            shape.numel(),
            "storage has {} elements but shape {shape} wants {}",
            storage.numel(),
            shape.numel()
        );
        let strides = shape.contiguous_strides();
        Tensor {
            storage,
            shape,
            strides,
            offset: 0,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying storage.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Weak handle to the storage, for forwarding.
    pub fn weak_storage(&self) -> WeakStorage {
        self.storage.downgrade()
    }

    /// Shape of this view.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Extent of dimension `d`.
    pub fn dim(&self, d: usize) -> usize {
        self.shape.dim(d)
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Number of elements in this view.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Accounted bytes of this view (`numel * dtype width`).
    pub fn bytes(&self) -> u64 {
        self.numel() as u64 * self.dtype().byte_size()
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.storage.dtype()
    }

    /// Memory class of the backing storage.
    pub fn mem_class(&self) -> MemClass {
        self.storage.mem_class()
    }

    /// Device of the backing storage.
    pub fn device(&self) -> &Device {
        self.storage.device()
    }

    /// Whether real values are present (false for symbolic or released
    /// storages).
    pub fn has_data(&self) -> bool {
        self.storage.has_data()
    }

    /// Whether this view is laid out contiguously in row-major order.
    pub fn is_contiguous(&self) -> bool {
        let mut expected = 1;
        self.offset == 0
            && self
                .shape
                .dims()
                .iter()
                .zip(&self.strides)
                .rev()
                .all(|(&dim, &stride)| {
                    let matches = stride == expected;
                    expected *= dim;
                    matches
                })
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// Returns a view with dimensions `a` and `b` swapped, sharing storage.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        assert!(a < self.rank() && b < self.rank(), "transpose out of range");
        let mut strides = self.strides.clone();
        strides.swap(a, b);
        Tensor {
            storage: self.storage.clone(),
            shape: self.shape.transposed(a, b),
            strides,
            offset: self.offset,
        }
    }

    /// Convenience transpose of the last two dimensions.
    ///
    /// # Panics
    /// Panics if the tensor has fewer than two dimensions.
    pub fn t(&self) -> Tensor {
        let r = self.rank();
        assert!(r >= 2, "t() requires rank >= 2");
        self.transpose(r - 2, r - 1)
    }

    /// Reinterprets a contiguous view under a new shape, sharing storage.
    ///
    /// # Panics
    /// Panics if the view is not contiguous or element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert!(self.is_contiguous(), "reshape of non-contiguous view");
        assert_eq!(self.numel(), shape.numel(), "reshape changes element count");
        let strides = shape.contiguous_strides();
        Tensor {
            storage: self.storage.clone(),
            shape,
            strides,
            offset: self.offset,
        }
    }

    /// Returns a contiguous tensor with the same values; clones data only
    /// when the view is strided. Symbolic tensors produce a fresh symbolic
    /// tensor of the same shape.
    pub fn contiguous(&self) -> Tensor {
        if self.is_contiguous() {
            return self.clone();
        }
        if !self.has_data() {
            return Tensor::symbolic(self.shape.clone(), self.device());
        }
        Tensor::from_vec(self.to_vec(), self.shape.clone(), self.device())
    }

    // ------------------------------------------------------------------
    // Data access
    // ------------------------------------------------------------------

    /// Copies this view's values into a contiguous vector.
    ///
    /// # Panics
    /// Panics if the tensor carries no data (symbolic or released).
    pub fn to_vec(&self) -> Vec<f32> {
        self.try_to_vec()
            .expect("to_vec on a tensor without data (symbolic or released)")
    }

    /// Like [`Tensor::to_vec`] but returns `None` when no data is present.
    pub fn try_to_vec(&self) -> Option<Vec<f32>> {
        self.storage.with_data(|data| {
            if self.is_contiguous() {
                return data[self.offset..self.offset + self.numel()].to_vec();
            }
            let mut out = Vec::with_capacity(self.numel());
            gather(data, self.dims(), &self.strides, self.offset, &mut out);
            out
        })
    }

    /// Runs `f` over this view's values in row-major order without copying
    /// them: see [`Tensor::with_values_of`].
    ///
    /// # Panics
    /// Panics if the tensor carries no data (symbolic or released).
    pub fn with_values<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        Tensor::with_values_of([self], |[values]| f(values))
    }

    /// Runs `f` over the values of every listed view, each in row-major
    /// order — the one read path of the numeric kernels. A contiguous view
    /// lends the storage's own slice; a strided view is gathered into a
    /// scratch buffer that is reused between calls. Either way `f` sees
    /// unit-stride slices and the call allocates nothing of its own.
    ///
    /// Aliasing rule: a storage's lock is not re-entrant, so operands that
    /// share a storage (`x.mul(&x)`, two views of one buffer) are read
    /// under one guard, taken here. `f` must therefore not lock any of
    /// these storages again — in particular it must not write to them;
    /// [`Tensor::zip_in_place`] is the in-place path and copies when its
    /// operands alias.
    ///
    /// # Panics
    /// Panics if any tensor carries no data (symbolic or released).
    pub fn with_values_of<const N: usize, R>(
        tensors: [&Tensor; N],
        f: impl FnOnce([&[f32]; N]) -> R,
    ) -> R {
        // The first operand over each storage holds that storage's guard.
        let holder = |i: usize| {
            (0..i)
                .find(|&j| tensors[j].storage.ptr_eq(&tensors[i].storage))
                .unwrap_or(i)
        };
        let guards: [Option<PayloadRead<'_>>; N] =
            std::array::from_fn(|i| (holder(i) == i).then(|| tensors[i].storage.read()));
        let payload = |i: usize| -> &[f32] {
            guards[holder(i)]
                .as_ref()
                .and_then(PayloadRead::values)
                .expect("with_values on a tensor without data (symbolic or released)")
        };
        let gathered: [Option<Vec<f32>>; N] = std::array::from_fn(|i| {
            let t = tensors[i];
            (!t.is_contiguous()).then(|| {
                let mut buf = GATHER_SCRATCH
                    .with(|pool| pool.borrow_mut().pop())
                    .unwrap_or_default();
                buf.clear();
                gather(payload(i), t.dims(), &t.strides, t.offset, &mut buf);
                buf
            })
        });
        let result = f(std::array::from_fn(|i| match &gathered[i] {
            Some(buf) => buf.as_slice(),
            None => &payload(i)[tensors[i].offset..][..tensors[i].numel()],
        }));
        GATHER_SCRATCH.with(|pool| pool.borrow_mut().extend(gathered.into_iter().flatten()));
        result
    }

    /// The single value of a scalar (or 1-element) tensor.
    ///
    /// # Panics
    /// Panics if the tensor has more than one element or no data.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.with_values(|v| v[0])
    }

    /// Value at a multi-index.
    ///
    /// # Panics
    /// Panics on rank mismatch, out-of-range index, or missing data.
    pub fn at(&self, index: &[usize]) -> f32 {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = self.offset;
        for (d, &ix) in index.iter().enumerate() {
            assert!(ix < self.shape.dim(d), "index out of range in dim {d}");
            off += ix * self.strides[d];
        }
        self.storage
            .with_data(|data| data[off])
            .expect("at() on a tensor without data")
    }

    /// Creates a detached deep copy with the given memory class.
    ///
    /// # Panics
    /// Panics if data is absent on a numeric device.
    pub fn deep_clone_as(&self, class: MemClass) -> Tensor {
        let dev = self.device().clone();
        dev.with_class(class, || {
            if self.has_data() {
                Tensor::from_vec(self.to_vec(), self.shape.clone(), &dev)
            } else {
                Tensor::symbolic(self.shape.clone(), &dev)
            }
        })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape.to_string())
            .field("dtype", &self.dtype())
            .field("storage", &self.storage.id())
            .field("contiguous", &self.is_contiguous())
            .field("has_data", &self.has_data())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::cpu()
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &dev());
        assert_eq!(t.to_vec(), vec![1., 2., 3., 4.]);
        assert_eq!(t.dims(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(vec![1., 2., 3.], [2, 2], &dev());
    }

    #[test]
    fn transpose_shares_storage_and_gathers() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3], &dev());
        let tt = t.t();
        assert!(t.storage().ptr_eq(tt.storage()));
        assert!(!tt.is_contiguous());
        assert_eq!(tt.to_vec(), vec![1., 4., 2., 5., 3., 6.]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
    }

    #[test]
    fn double_transpose_is_identity() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), [2, 3, 4], &dev());
        let back = t.transpose(0, 2).transpose(0, 2);
        assert_eq!(back.to_vec(), t.to_vec());
        assert!(back.is_contiguous());
    }

    #[test]
    fn is_contiguous_agrees_with_the_materialised_strides() {
        for dims in [
            vec![],
            vec![3],
            vec![2, 3],
            vec![1, 3],
            vec![3, 1],
            vec![2, 1, 3],
        ] {
            let t = Tensor::zeros(dims.clone(), &dev());
            let mut views = vec![t.clone()];
            for a in 0..dims.len() {
                for b in 0..dims.len() {
                    views.push(t.transpose(a, b));
                    views.push(t.transpose(a, b).transpose(b, a));
                }
            }
            for v in views {
                let want = v.offset == 0 && v.strides == v.shape.contiguous_strides();
                assert_eq!(v.is_contiguous(), want, "{:?} / {:?}", v.dims(), v.strides);
            }
        }
    }

    #[test]
    fn reshape_shares_storage() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &dev());
        let r = t.reshape([4]);
        assert!(t.storage().ptr_eq(r.storage()));
        assert_eq!(r.to_vec(), vec![1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "non-contiguous")]
    fn reshape_of_transposed_panics() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &dev());
        let _ = t.t().reshape([4]);
    }

    #[test]
    fn contiguous_materialises_strided_views() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &dev());
        let c = t.t().contiguous();
        assert!(c.is_contiguous());
        assert!(!t.storage().ptr_eq(c.storage()));
        assert_eq!(c.to_vec(), vec![1., 3., 2., 4.]);
    }

    #[test]
    fn eye_and_arange() {
        let i = Tensor::eye(3, &dev());
        assert_eq!(i.at(&[1, 1]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        let a = Tensor::arange(4, &dev());
        assert_eq!(a.to_vec(), vec![0., 1., 2., 3.]);
    }

    #[test]
    fn symbolic_tensors_account_but_hold_nothing() {
        let d = Device::symbolic();
        let t = Tensor::zeros([8, 8], &d);
        assert!(!t.has_data());
        assert_eq!(t.bytes(), 128); // F16 default on symbolic devices
        assert!(t.try_to_vec().is_none());
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Prng::seed_from_u64(9);
        let mut r2 = Prng::seed_from_u64(9);
        let a = Tensor::randn([4], 1.0, &mut r1, &dev());
        let b = Tensor::randn([4], 1.0, &mut r2, &dev());
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn deep_clone_detaches_storage() {
        let t = Tensor::from_vec(vec![1., 2.], [2], &dev());
        let c = t.deep_clone_as(MemClass::Gradient);
        assert!(!t.storage().ptr_eq(c.storage()));
        assert_eq!(c.mem_class(), MemClass::Gradient);
        assert_eq!(c.to_vec(), t.to_vec());
    }

    #[test]
    fn item_on_scalar() {
        let t = Tensor::from_vec(vec![42.0], [1], &dev());
        assert_eq!(t.item(), 42.0);
    }
}
