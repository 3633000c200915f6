//! Shapes and stride arithmetic, stored inline.
//!
//! Every saved tensor is cloned, viewed and wrapped several times on its
//! way through the autograd tape and the tensor cache, so a shape that
//! lived on the heap cost an allocator call at each of those steps.
//! Extents and strides therefore live in a fixed-capacity inline array
//! of at most [`MAX_RANK`] values (the same idea as PyTorch's inline `c10::SizesAndStrides`): copying a
//! [`Shape`] or a view's strides is a plain memory copy.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// The largest rank a [`Shape`] (and a view's strides) can hold. The
/// models here build tensors of rank 3 at most (`[batch, seq, hidden]`,
/// `[batch·heads, seq, seq]`); one more slot is headroom.
pub const MAX_RANK: usize = 4;

/// Up to [`MAX_RANK`] per-dimension values — a shape's extents or a
/// view's strides — stored inline. Dereferences to the slice of its
/// values; the unused slots take no part in `Eq`, `Hash` or `Debug`.
#[derive(Clone, Copy, Default)]
pub(crate) struct Dims {
    vals: [usize; MAX_RANK],
    len: u8,
}

impl Dims {
    /// Copies `vals` inline.
    ///
    /// # Panics
    /// Panics if `vals` has more than [`MAX_RANK`] entries.
    fn from_slice(vals: &[usize]) -> Dims {
        assert!(
            vals.len() <= MAX_RANK,
            "rank {} exceeds MAX_RANK = {MAX_RANK} (dims {vals:?})",
            vals.len()
        );
        let mut d = Dims::default();
        d.vals[..vals.len()].copy_from_slice(vals);
        d.len = vals.len() as u8;
        d
    }

    /// Appends `v` as the last value.
    ///
    /// # Panics
    /// Panics if there are already [`MAX_RANK`] values.
    fn push(&mut self, v: usize) {
        let n = self.len();
        assert!(n < MAX_RANK, "rank {} exceeds MAX_RANK = {MAX_RANK}", n + 1);
        self.vals[n] = v;
        self.len += 1;
    }
}

impl Deref for Dims {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.vals[..usize::from(self.len)]
    }
}

impl DerefMut for Dims {
    fn deref_mut(&mut self) -> &mut [usize] {
        &mut self.vals[..usize::from(self.len)]
    }
}

impl PartialEq for Dims {
    fn eq(&self, other: &Dims) -> bool {
        **self == **other
    }
}

impl Eq for Dims {}

impl Hash for Dims {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Dims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// The extents of a tensor along each dimension, at most [`MAX_RANK`] of
/// them. `Copy`: cloning a shape never touches the allocator.
///
/// ```
/// use ssdtrain_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.dims(), [2, 3, 4]);
/// ```
///
/// # Panics
/// Every constructor panics when given more than [`MAX_RANK`] extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Shape(Dims);

impl Shape {
    /// Creates a shape from dimension extents.
    ///
    /// # Panics
    /// Panics if `dims` has more than [`MAX_RANK`] entries.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape::from(dims.as_slice())
    }

    /// A zero-dimensional (scalar) shape.
    pub fn scalar() -> Self {
        Shape::default()
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub(crate) fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= rank()`.
    pub(crate) fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major (C-order) strides for a contiguous layout.
    pub(crate) fn contiguous_strides(&self) -> Dims {
        let mut strides = self.0;
        let mut next = 1;
        for (stride, &dim) in strides.iter_mut().zip(self.dims()).rev() {
            *stride = next;
            next *= dim;
        }
        strides
    }

    /// Returns the shape with dimensions `a` and `b` swapped.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub(crate) fn transposed(&self, a: usize, b: usize) -> Shape {
        let mut dims = self.0;
        dims.swap(a, b);
        Shape(dims)
    }

    /// The shape with its last extent replaced by `n`; a scalar becomes
    /// `[n]`. This is a matrix product's output shape.
    pub(crate) fn with_last(&self, n: usize) -> Shape {
        let mut dims = self.0;
        match dims.last_mut() {
            Some(last) => *last = n,
            None => dims.push(n),
        }
        Shape(dims)
    }

    /// The shape with `n` appended as a new last dimension.
    ///
    /// # Panics
    /// Panics if the shape already has [`MAX_RANK`] dimensions.
    pub(crate) fn pushed(&self, n: usize) -> Shape {
        let mut dims = self.0;
        dims.push(n);
        Shape(dims)
    }

    /// Interprets this shape as `[rows, cols]` by flattening all leading
    /// dimensions into `rows`; a 1-D shape becomes `[1, n]`.
    ///
    /// This is the view used by linear layers over `[batch, seq, hidden]`
    /// inputs.
    pub fn as_2d(&self) -> (usize, usize) {
        match *self.dims() {
            [] => (1, 1),
            [n] => (1, n),
            [ref rows @ .., cols] => (rows.iter().product(), cols),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::from(dims.as_slice())
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(Dims::from_slice(dims))
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::from(dims.as_slice())
    }
}

impl<const N: usize> From<&[usize; N]> for Shape {
    fn from(dims: &[usize; N]) -> Self {
        Shape::from(dims.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, Tensor};
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    const _: () = {
        const fn is_copy<T: Copy>() {}
        is_copy::<Shape>();
        is_copy::<Dims>();
    };

    fn hash_of(s: &Shape) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// One shape with the given dims, built each way the API allows: both
    /// `From` forms, `new`, a tensor reshape from rank 4 and (rank 2 and
    /// up) a double transpose.
    fn built_every_way(dims: &[usize]) -> Vec<Shape> {
        let wide = Tensor::zeros([1, 1, 1, dims.iter().product()], &Device::symbolic());
        let mut out = vec![
            Shape::new(dims.to_vec()),
            Shape::from(dims.to_vec()),
            Shape::from(dims),
            *wide.reshape(dims).shape(),
        ];
        if dims.len() >= 2 {
            out.push(Shape::from(dims).transposed(0, 1).transposed(0, 1));
        }
        out
    }

    proptest! {
        #[test]
        fn eq_and_hash_follow_the_dims_alone(
            a in prop::collection::vec(0usize..4, 0..MAX_RANK + 1),
            b in prop::collection::vec(0usize..4, 0..MAX_RANK + 1),
        ) {
            for x in built_every_way(&a) {
                prop_assert_eq!(x.dims(), a.as_slice());
                for y in built_every_way(&b) {
                    prop_assert_eq!(x == y, a == b);
                    if a == b {
                        prop_assert_eq!(hash_of(&x), hash_of(&y));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank 5 exceeds MAX_RANK = 4")]
    fn a_rank_above_the_cap_panics() {
        let _ = Shape::new(vec![1; MAX_RANK + 1]);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn pushing_past_the_cap_panics() {
        let _ = Shape::from([1; MAX_RANK]).pushed(1);
    }

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::scalar().numel(), 1);
        assert!(Shape::scalar().contiguous_strides().is_empty());
    }

    #[test]
    fn contiguous_strides_row_major() {
        assert_eq!(*Shape::from([4]).contiguous_strides(), [1]);
        assert_eq!(*Shape::from([2, 3]).contiguous_strides(), [3, 1]);
        assert_eq!(*Shape::from([2, 3, 4]).contiguous_strides(), [12, 4, 1]);
    }

    #[test]
    fn transposed_swaps_dims() {
        let s = Shape::from([2, 3, 4]).transposed(0, 2);
        assert_eq!(s.dims(), &[4, 3, 2]);
    }

    #[test]
    fn with_last_and_pushed_edit_the_tail() {
        assert_eq!(Shape::from([2, 3, 4]).with_last(5).dims(), &[2, 3, 5]);
        assert_eq!(Shape::scalar().with_last(5).dims(), &[5]);
        assert_eq!(Shape::from([2, 3]).pushed(4).dims(), &[2, 3, 4]);
    }

    #[test]
    fn as_2d_flattens_leading_dims() {
        assert_eq!(Shape::from([2, 3, 4]).as_2d(), (6, 4));
        assert_eq!(Shape::from([5]).as_2d(), (1, 5));
        assert_eq!(Shape::scalar().as_2d(), (1, 1));
    }

    #[test]
    fn display_lists_dims() {
        assert_eq!(Shape::from([2, 3]).to_string(), "[2, 3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
        assert_eq!(format!("{:?}", Shape::from([2, 3])), "Shape([2, 3])");
    }
}
