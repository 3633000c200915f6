//! Shapes and stride arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The extents of a tensor along each dimension.
///
/// ```
/// use ssdtrain_tensor::Shape;
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.contiguous_strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape(dims)
    }

    /// A zero-dimensional (scalar) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Extent of dimension `d`.
    ///
    /// # Panics
    /// Panics if `d >= rank()`.
    pub fn dim(&self, d: usize) -> usize {
        self.0[d]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major (C-order) strides for a contiguous layout.
    pub fn contiguous_strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.0.len()];
        for i in (0..self.0.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.0[i + 1];
        }
        strides
    }

    /// Returns the shape with dimensions `a` and `b` swapped.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn transposed(&self, a: usize, b: usize) -> Shape {
        let mut dims = self.0.clone();
        dims.swap(a, b);
        Shape(dims)
    }

    /// Interprets this shape as `[rows, cols]` by flattening all leading
    /// dimensions into `rows`; a 1-D shape becomes `[1, n]`.
    ///
    /// This is the view used by linear layers over `[batch, seq, hidden]`
    /// inputs.
    pub fn as_2d(&self) -> (usize, usize) {
        match self.0.len() {
            0 => (1, 1),
            1 => (1, self.0[0]),
            n => (self.0[..n - 1].iter().product(), self.0[n - 1]),
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
        Shape(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

impl<const N: usize> From<&[usize; N]> for Shape {
    fn from(dims: &[usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_of_scalar_is_one() {
        assert_eq!(Shape::scalar().numel(), 1);
    }

    #[test]
    fn contiguous_strides_row_major() {
        assert_eq!(Shape::from([4]).contiguous_strides(), vec![1]);
        assert_eq!(Shape::from([2, 3]).contiguous_strides(), vec![3, 1]);
        assert_eq!(Shape::from([2, 3, 4]).contiguous_strides(), vec![12, 4, 1]);
    }

    #[test]
    fn transposed_swaps_dims() {
        let s = Shape::from([2, 3, 4]).transposed(0, 2);
        assert_eq!(s.dims(), &[4, 3, 2]);
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
    }
}
