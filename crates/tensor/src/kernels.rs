//! Compute kernels.
//!
//! Every kernel propagates shapes when any input is symbolic (no data), so
//! the same model code runs numerically at test scale and symbolically at
//! paper scale. The numeric kernels are reference implementations with a
//! three-part contract:
//!
//! * **Operands are borrowed.** A kernel reads its inputs through
//!   [`Tensor::with_values_of`] — the storage's own slice for a contiguous
//!   view, a reused gather buffer for a strided one — and never copies an
//!   operand it only reads.
//! * **One allocation per output.** The only buffers a kernel asks the
//!   allocator for are the ones it returns (a kernel whose output starts
//!   as a copy of an input, like [`Tensor::add_bias`], makes that copy and
//!   updates it in place).
//! * **Fixed operation order.** Each output element is produced by the
//!   same `f32` operations in the same order regardless of how the
//!   operands are laid out: matrix products accumulate over the inner
//!   index in ascending order and skip terms whose left factor is exactly
//!   zero; row reductions run left to right. Results are therefore
//!   bit-identical across views, and across changes that respect this
//!   order (`tests/kernel_arithmetic.rs` pins a training run's bits).
//!
//! Speed is secondary — the simulated GPU provides paper-scale timing, not
//! these loops — but the inner loops stay unit-stride so they vectorise.

use crate::rng::Prng;
use crate::shape::Shape;
use crate::tensor::Tensor;

fn symbolic_like(t: &Tensor, shape: impl Into<Shape>) -> Tensor {
    Tensor::symbolic(shape.into(), t.device())
}

fn binary_shape_check(op: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.dims(),
        b.dims(),
        "{op}: shape mismatch {} vs {}",
        a.shape(),
        b.shape()
    );
}

/// Elementwise `f(a, b)` over two same-shaped tensors.
fn zip_map(op: &str, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    binary_shape_check(op, a, b);
    if !a.has_data() || !b.has_data() {
        return symbolic_like(a, a.shape().clone());
    }
    let out = Tensor::with_values_of([a, b], |[a, b]| {
        a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
    });
    Tensor::from_vec(out, a.shape().clone(), a.device())
}

/// Elementwise `f(x)`.
fn elementwise(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    if !t.has_data() {
        return symbolic_like(t, t.shape().clone());
    }
    let out = t.with_values(|v| v.iter().map(|&x| f(x)).collect());
    Tensor::from_vec(out, t.shape().clone(), t.device())
}

/// `out += a @ b` for row-major `a: [m, k]`, `b: [k, n]`, `out: [m, n]`:
/// per output element, terms are added in ascending `p` and skipped where
/// `a[i, p]` is exactly zero.
fn matmul_acc(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        zip_map("add", self, rhs, |x, y| x + y)
    }

    /// Elementwise difference.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        zip_map("sub", self, rhs, |x, y| x - y)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        zip_map("mul", self, rhs, |x, y| x * y)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        elementwise(self, |x| x * s)
    }

    /// Adds a 1-D `bias` across the last dimension.
    ///
    /// # Panics
    /// Panics if `bias` is not 1-D of length `last_dim`.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let h = *self.dims().last().expect("add_bias on scalar");
        assert_eq!(bias.dims(), &[h], "bias must be 1-D of the last dim");
        if !self.has_data() || !bias.has_data() {
            return symbolic_like(self, self.shape().clone());
        }
        let mut out = self.to_vec();
        bias.with_values(|b| {
            for (i, v) in out.iter_mut().enumerate() {
                *v += b[i % h];
            }
        });
        Tensor::from_vec(out, self.shape().clone(), self.device())
    }

    /// In-place `f(&mut self[i], rhs[i])` over two same-shaped tensors —
    /// the one path that writes to a storage another handle may share.
    /// No-op when either side is symbolic. When `rhs` aliases `self`'s
    /// storage its values are copied out first: a write lock cannot be
    /// taken over a held read lock.
    ///
    /// # Panics
    /// Panics on shape mismatch or if `self` is not contiguous.
    pub fn zip_in_place(&self, rhs: &Tensor, f: impl Fn(&mut f32, f32)) {
        binary_shape_check("zip_in_place", self, rhs);
        if !self.has_data() || !rhs.has_data() {
            return;
        }
        assert!(
            self.is_contiguous(),
            "in-place update of non-contiguous view"
        );
        let apply = |b: &[f32]| {
            self.storage().with_data_mut(|a| {
                for (x, &y) in a.iter_mut().zip(b) {
                    f(x, y);
                }
            });
        };
        if self.storage().ptr_eq(rhs.storage()) {
            apply(&rhs.to_vec());
        } else {
            rhs.with_values(apply);
        }
    }

    /// In-place elementwise accumulation (`self += rhs`), used for
    /// gradient accumulation. No-op when either side is symbolic.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn accumulate(&self, rhs: &Tensor) {
        self.zip_in_place(rhs, |x, y| *x += y);
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        if !self.has_data() {
            return symbolic_like(self, [1]);
        }
        let s: f32 = self.with_values(|v| v.iter().sum());
        Tensor::from_vec(vec![s], [1], self.device())
    }

    /// Mean of all elements as a scalar tensor.
    pub fn mean_all(&self) -> Tensor {
        if !self.has_data() {
            return symbolic_like(self, [1]);
        }
        self.sum_all().scale(1.0 / self.numel() as f32)
    }

    /// Sums over all leading dimensions, producing a 1-D tensor of the
    /// last-dimension length (the reduction used for bias gradients).
    pub fn sum_leading(&self) -> Tensor {
        let h = *self.dims().last().expect("sum_leading on scalar");
        if !self.has_data() {
            return symbolic_like(self, [h]);
        }
        let mut out = vec![0.0f32; h];
        self.with_values(|v| {
            for (i, x) in v.iter().enumerate() {
                out[i % h] += x;
            }
        });
        Tensor::from_vec(out, [h], self.device())
    }

    // ------------------------------------------------------------------
    // Matrix multiply
    // ------------------------------------------------------------------

    /// Matrix product `self @ rhs` where `self` is `[..., m, k]` (leading
    /// dims flattened) and `rhs` is a 2-D `[k, n]` view. Either operand
    /// may be a transposed view; the result does not depend on layout.
    ///
    /// # Panics
    /// Panics if `rhs` is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(rhs.rank(), 2, "matmul rhs must be 2-D");
        let (m, k) = self.shape().as_2d();
        let (rk, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, rk, "matmul inner dims {k} vs {rk}");
        let out_dims: Vec<usize> = if self.rank() <= 1 {
            vec![n]
        } else {
            let mut d = self.dims().to_vec();
            *d.last_mut().expect("matmul lhs rank >= 1") = n;
            d
        };
        if !self.has_data() || !rhs.has_data() {
            return symbolic_like(self, out_dims);
        }
        let out = Tensor::with_values_of([self, rhs], |[a, b]| {
            let mut out = vec![0.0f32; m * n];
            matmul_acc(&mut out, a, b, k, n);
            out
        });
        Tensor::from_vec(out, out_dims, self.device())
    }

    /// Batched matrix product of `[b, m, k]` and `[b, k, n]`.
    ///
    /// # Panics
    /// Panics unless both operands are 3-D with matching batch and inner
    /// dimensions.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 3, "bmm lhs must be 3-D");
        assert_eq!(rhs.rank(), 3, "bmm rhs must be 3-D");
        let (bt, m, k) = (self.dim(0), self.dim(1), self.dim(2));
        assert_eq!(rhs.dim(0), bt, "bmm batch mismatch");
        assert_eq!(rhs.dim(1), k, "bmm inner dims");
        let n = rhs.dim(2);
        if !self.has_data() || !rhs.has_data() {
            return symbolic_like(self, [bt, m, n]);
        }
        let out = Tensor::with_values_of([self, rhs], |[a, b]| {
            let mut out = vec![0.0f32; bt * m * n];
            for t in 0..bt {
                matmul_acc(
                    &mut out[t * m * n..][..m * n],
                    &a[t * m * k..][..m * k],
                    &b[t * k * n..][..k * n],
                    k,
                    n,
                );
            }
            out
        });
        Tensor::from_vec(out, [bt, m, n], self.device())
    }

    // ------------------------------------------------------------------
    // Activations and normalisation
    // ------------------------------------------------------------------

    /// GELU activation (tanh approximation, as used by GPT/BERT).
    pub fn gelu(&self) -> Tensor {
        elementwise(self, gelu_scalar)
    }

    /// Derivative of [`Tensor::gelu`] with respect to its input, evaluated
    /// elementwise at `self`.
    pub fn gelu_grad(&self) -> Tensor {
        elementwise(self, gelu_grad_scalar)
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&self) -> Tensor {
        let h = *self.dims().last().expect("softmax on scalar");
        if !self.has_data() {
            return symbolic_like(self, self.shape().clone());
        }
        let mut v = self.to_vec();
        for row in v.chunks_exact_mut(h) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
        Tensor::from_vec(v, self.shape().clone(), self.device())
    }

    /// Backward of [`Tensor::softmax_last`]: with `self` the softmax
    /// output `y`, returns `dx = y .* (dy - rowsum(dy .* y))`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn softmax_grad(&self, dy: &Tensor) -> Tensor {
        binary_shape_check("softmax_grad", self, dy);
        let h = *self.dims().last().expect("softmax on scalar");
        if !self.has_data() || !dy.has_data() {
            return symbolic_like(self, self.shape().clone());
        }
        let dx = Tensor::with_values_of([self, dy], |[y, dy]| {
            let mut dx = vec![0.0f32; y.len()];
            for ((yrow, dyrow), dxrow) in y
                .chunks_exact(h)
                .zip(dy.chunks_exact(h))
                .zip(dx.chunks_exact_mut(h))
            {
                let dot: f32 = yrow.iter().zip(dyrow).map(|(a, b)| a * b).sum();
                for j in 0..h {
                    dxrow[j] = yrow[j] * (dyrow[j] - dot);
                }
            }
            dx
        });
        Tensor::from_vec(dx, self.shape().clone(), self.device())
    }

    /// Applies a causal mask to `[batch, s, s]` attention scores: entries
    /// with column > row become `-inf` so softmax zeroes them.
    ///
    /// # Panics
    /// Panics unless the tensor is 3-D with square trailing dims.
    pub fn apply_causal_mask(&self) -> Tensor {
        self.fill_above_diagonal(f32::NEG_INFINITY)
    }

    /// Copy of a `[batch, s, s]` tensor with every entry whose column
    /// exceeds its row set to `fill`: `-inf` masks attention scores,
    /// `0` is that mask's backward.
    ///
    /// # Panics
    /// Panics unless the tensor is 3-D with square trailing dims.
    pub fn fill_above_diagonal(&self, fill: f32) -> Tensor {
        assert_eq!(self.rank(), 3, "causal mask expects [b, s, s]");
        let (s1, s2) = (self.dim(1), self.dim(2));
        assert_eq!(s1, s2, "causal mask expects square scores");
        if !self.has_data() {
            return symbolic_like(self, self.shape().clone());
        }
        let mut v = self.to_vec();
        for (r, row) in v.chunks_exact_mut(s2.max(1)).enumerate() {
            row[r % s1 + 1..].fill(fill);
        }
        Tensor::from_vec(v, self.shape().clone(), self.device())
    }

    /// Layer normalisation over the last dimension.
    ///
    /// Returns `(y, mean, rstd)`; the statistics are needed for backward.
    ///
    /// # Panics
    /// Panics if `gamma`/`beta` are not 1-D of the last-dim length.
    pub fn layernorm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> (Tensor, Tensor, Tensor) {
        let h = *self.dims().last().expect("layernorm on scalar");
        assert_eq!(gamma.dims(), &[h], "gamma must be [hidden]");
        assert_eq!(beta.dims(), &[h], "beta must be [hidden]");
        let rows = self.numel() / h;
        if !self.has_data() || !gamma.has_data() || !beta.has_data() {
            return (
                symbolic_like(self, self.shape().clone()),
                symbolic_like(self, [rows]),
                symbolic_like(self, [rows]),
            );
        }
        let (y, means, rstds) = Tensor::with_values_of([self, gamma, beta], |[x, g, b]| {
            let mut y = vec![0.0f32; x.len()];
            let mut means = vec![0.0f32; rows];
            let mut rstds = vec![0.0f32; rows];
            for r in 0..rows {
                let row = &x[r * h..(r + 1) * h];
                let mean = row.iter().sum::<f32>() / h as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
                let rstd = 1.0 / (var + eps).sqrt();
                means[r] = mean;
                rstds[r] = rstd;
                for j in 0..h {
                    y[r * h + j] = (row[j] - mean) * rstd * g[j] + b[j];
                }
            }
            (y, means, rstds)
        });
        (
            Tensor::from_vec(y, self.shape().clone(), self.device()),
            Tensor::from_vec(means, [rows], self.device()),
            Tensor::from_vec(rstds, [rows], self.device()),
        )
    }

    /// Inverted dropout with keep probability `1 - p`; returns
    /// `(y, mask)` where the mask holds `0` or `1` and is accounted as a
    /// one-byte tensor (PyTorch saves a bool mask); survivors are scaled
    /// by `1/(1-p)` in `y`.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn dropout(&self, p: f32, rng: &mut Prng) -> (Tensor, Tensor) {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let dev = self.device().clone();
        if !self.has_data() {
            let y = symbolic_like(self, self.shape().clone());
            let m = dev.with_dtype(crate::DType::U8, || {
                Tensor::symbolic(self.shape().clone(), &dev)
            });
            return (y, m);
        }
        if p == 0.0 {
            let mask = dev.with_dtype(crate::DType::U8, || {
                Tensor::ones(self.shape().clone(), &dev)
            });
            return (self.contiguous(), mask);
        }
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let (y, mask) = self.with_values(|x| {
            let mut mask = vec![0.0f32; x.len()];
            let mut y = vec![0.0f32; x.len()];
            for i in 0..x.len() {
                if rng.next_f32() < keep {
                    mask[i] = 1.0;
                    y[i] = x[i] * scale;
                }
            }
            (y, mask)
        });
        (
            Tensor::from_vec(y, self.shape().clone(), &dev),
            dev.with_dtype(crate::DType::U8, || {
                Tensor::from_vec(mask, self.shape().clone(), &dev)
            }),
        )
    }

    // ------------------------------------------------------------------
    // Embedding and loss
    // ------------------------------------------------------------------

    /// Embedding lookup: `self` is a `[vocab, hidden]` table, `ids` holds
    /// integer token ids (stored as `f32`) of any shape; the result has
    /// shape `ids.shape + [hidden]`.
    ///
    /// # Panics
    /// Panics if the table is not 2-D or an id is out of range.
    pub fn embedding(&self, ids: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "embedding table must be [vocab, hidden]");
        let (v, h) = (self.dim(0), self.dim(1));
        let mut out_dims = ids.dims().to_vec();
        out_dims.push(h);
        if !self.has_data() || !ids.has_data() {
            return symbolic_like(self, out_dims);
        }
        let out = Tensor::with_values_of([self, ids], |[table, idv]| {
            let mut out = Vec::with_capacity(idv.len() * h);
            for &fid in idv {
                let id = fid as usize;
                assert!(id < v, "token id {id} out of vocab range {v}");
                out.extend_from_slice(&table[id * h..(id + 1) * h]);
            }
            out
        });
        Tensor::from_vec(out, out_dims, self.device())
    }

    /// Scatter-add of `grad` rows into a zeroed `[vocab, hidden]` gradient
    /// according to `ids` — the backward of [`Tensor::embedding`].
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn embedding_grad(vocab: usize, ids: &Tensor, grad: &Tensor) -> Tensor {
        let h = *grad.dims().last().expect("embedding grad rank");
        assert_eq!(
            grad.numel(),
            ids.numel() * h,
            "embedding grad shape mismatch"
        );
        if !ids.has_data() || !grad.has_data() {
            return Tensor::symbolic([vocab, h], grad.device());
        }
        let out = Tensor::with_values_of([ids, grad], |[idv, g]| {
            let mut out = vec![0.0f32; vocab * h];
            for (row, &fid) in idv.iter().enumerate() {
                let id = fid as usize;
                for j in 0..h {
                    out[id * h + j] += g[row * h + j];
                }
            }
            out
        });
        Tensor::from_vec(out, [vocab, h], grad.device())
    }

    /// Mean cross-entropy of `[n, vocab]` logits against integer targets
    /// (stored as `f32`) of shape `[n]`. Returns `(loss, probs)` where
    /// `probs` is the row softmax saved for the backward pass.
    ///
    /// # Panics
    /// Panics on shape mismatch or out-of-range targets.
    pub fn cross_entropy(&self, targets: &Tensor) -> (Tensor, Tensor) {
        let (n, v) = self.shape().as_2d();
        assert_eq!(targets.numel(), n, "one target per row");
        if !self.has_data() || !targets.has_data() {
            return (
                symbolic_like(self, [1]),
                symbolic_like(self, self.shape().clone()),
            );
        }
        let probs = self.reshape([n, v]).softmax_last();
        let loss = Tensor::with_values_of([&probs, targets], |[pv, tv]| {
            let mut loss = 0.0f32;
            for (row, &ft) in tv.iter().enumerate() {
                let t = ft as usize;
                assert!(t < v, "target {t} out of range {v}");
                loss -= pv[row * v + t].max(1e-30).ln();
            }
            loss / n as f32
        });
        (
            Tensor::from_vec(vec![loss], [1], self.device()),
            Tensor::over(probs.storage().clone(), self.shape().clone()),
        )
    }
}

/// GELU(x) with the tanh approximation.
pub fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// d GELU(x) / dx with the tanh approximation.
pub fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use crate::device::Device;
    use crate::rng::Prng;
    use crate::tensor::Tensor;

    fn dev() -> Device {
        Device::cpu()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn add_mul_scale() {
        let a = Tensor::from_vec(vec![1., 2.], [2], &dev());
        let b = Tensor::from_vec(vec![10., 20.], [2], &dev());
        assert_eq!(a.add(&b).to_vec(), vec![11., 22.]);
        assert_eq!(a.mul(&b).to_vec(), vec![10., 40.]);
        assert_eq!(a.scale(3.0).to_vec(), vec![3., 6.]);
        assert_eq!(b.sub(&a).to_vec(), vec![9., 18.]);
    }

    #[test]
    fn add_bias_broadcasts_last_dim() {
        let x = Tensor::from_vec(vec![0., 0., 0., 0., 0., 0.], [2, 3], &dev());
        let b = Tensor::from_vec(vec![1., 2., 3.], [3], &dev());
        assert_eq!(x.add_bias(&b).to_vec(), vec![1., 2., 3., 1., 2., 3.]);
    }

    #[test]
    fn matmul_2d_reference() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &dev());
        let b = Tensor::from_vec(vec![5., 6., 7., 8.], [2, 2], &dev());
        assert_eq!(a.matmul(&b).to_vec(), vec![19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_with_transposed_rhs_reads_strides() {
        let a = Tensor::from_vec(vec![1., 2.], [1, 2], &dev());
        let w = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [3, 2], &dev());
        // a @ w.t() == [1*1+2*2, 1*3+2*4, 1*5+2*6]
        let y = a.matmul(&w.t());
        assert_eq!(y.to_vec(), vec![5., 11., 17.]);
    }

    #[test]
    fn matmul_flattens_leading_dims() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [2, 3, 2], &dev());
        let w = Tensor::eye(2, &dev());
        let y = a.matmul(&w);
        assert_eq!(y.dims(), &[2, 3, 2]);
        assert_eq!(y.to_vec(), a.to_vec());
    }

    #[test]
    fn bmm_batches_independently() {
        let a = Tensor::from_vec(vec![1., 0., 0., 1., 2., 0., 0., 2.], [2, 2, 2], &dev());
        let b = Tensor::from_vec(vec![1., 2., 3., 4., 1., 2., 3., 4.], [2, 2, 2], &dev());
        let y = a.bmm(&b);
        assert_eq!(y.to_vec(), vec![1., 2., 3., 4., 2., 4., 6., 8.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Tensor::from_vec(vec![1., 2., 3., 1000., 1000., 1000.], [2, 3], &dev());
        let y = x.softmax_last().to_vec();
        let s1: f32 = y[..3].iter().sum();
        let s2: f32 = y[3..].iter().sum();
        assert!((s1 - 1.0).abs() < 1e-5);
        assert!((s2 - 1.0).abs() < 1e-5, "large inputs must not overflow");
        assert!(y[2] > y[1] && y[1] > y[0]);
    }

    #[test]
    fn causal_mask_zeroes_future_after_softmax() {
        let x = Tensor::zeros([1, 3, 3], &dev());
        let y = x.apply_causal_mask().softmax_last().to_vec();
        // Row 0 attends only to position 0.
        assert_close(&y[0..3], &[1.0, 0.0, 0.0], 1e-6);
        // Row 1 attends to positions 0..=1 equally.
        assert_close(&y[3..6], &[0.5, 0.5, 0.0], 1e-6);
        assert_close(&y[6..9], &[1.0 / 3.0; 3], 1e-6);
    }

    #[test]
    fn layernorm_normalises_rows() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4.], [1, 4], &dev());
        let g = Tensor::ones([4], &dev());
        let b = Tensor::zeros([4], &dev());
        let (y, mean, rstd) = x.layernorm(&g, &b, 1e-5);
        let yv = y.to_vec();
        let m: f32 = yv.iter().sum::<f32>() / 4.0;
        let var: f32 = yv.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / 4.0;
        assert!(m.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
        assert!((mean.item() - 2.5).abs() < 1e-6);
        assert!(rstd.item() > 0.0);
    }

    #[test]
    fn gelu_matches_known_points() {
        assert!((super::gelu_scalar(0.0)).abs() < 1e-7);
        assert!((super::gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((super::gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.3, 1.7] {
            let h = 1e-3;
            let fd = (super::gelu_scalar(x + h) - super::gelu_scalar(x - h)) / (2.0 * h);
            let an = super::gelu_grad_scalar(x);
            assert!((fd - an).abs() < 1e-3, "x={x}: {fd} vs {an}");
        }
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = Prng::seed_from_u64(1);
        let x = Tensor::ones([1000], &dev());
        let (y, mask) = x.dropout(0.5, &mut rng);
        let yv = y.to_vec();
        let kept = yv.iter().filter(|v| **v != 0.0).count();
        assert!((400..600).contains(&kept), "kept {kept}");
        for v in yv.iter().filter(|v| **v != 0.0) {
            assert_eq!(*v, 2.0);
        }
        assert_eq!(mask.dtype(), crate::DType::U8, "bool mask accounting");
        assert_eq!(
            x.mul(&mask).scale(2.0).to_vec(),
            yv,
            "mask reproduces output"
        );
    }

    #[test]
    fn dropout_p_zero_is_identity() {
        let mut rng = Prng::seed_from_u64(1);
        let x = Tensor::from_vec(vec![1., 2., 3.], [3], &dev());
        let (y, mask) = x.dropout(0.0, &mut rng);
        assert_eq!(y.to_vec(), vec![1., 2., 3.]);
        assert_eq!(mask.to_vec(), vec![1., 1., 1.]);
    }

    #[test]
    fn embedding_lookup_and_grad() {
        let table = Tensor::from_vec(vec![1., 1., 2., 2., 3., 3.], [3, 2], &dev());
        let ids = Tensor::from_vec(vec![2., 0., 2.], [3], &dev());
        let e = table.embedding(&ids);
        assert_eq!(e.dims(), &[3, 2]);
        assert_eq!(e.to_vec(), vec![3., 3., 1., 1., 3., 3.]);
        let grad = Tensor::ones([3, 2], &dev());
        let g = Tensor::embedding_grad(3, &ids, &grad);
        assert_eq!(g.to_vec(), vec![1., 1., 0., 0., 2., 2.]);
    }

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_vocab() {
        let logits = Tensor::zeros([2, 4], &dev());
        let targets = Tensor::from_vec(vec![0., 3.], [2], &dev());
        let (loss, probs) = logits.cross_entropy(&targets);
        assert!((loss.item() - (4.0f32).ln()).abs() < 1e-5);
        assert_close(&probs.to_vec(), &[0.25; 8], 1e-6);
    }

    #[test]
    fn symbolic_inputs_propagate_shape_only() {
        let d = Device::symbolic();
        let a = Tensor::zeros([2, 3], &d);
        let w = Tensor::zeros([3, 5], &d);
        let y = a.matmul(&w);
        assert_eq!(y.dims(), &[2, 5]);
        assert!(!y.has_data());
        let (l, probs) = y.cross_entropy(&Tensor::zeros([2], &d));
        assert!(!l.has_data());
        assert_eq!(probs.dims(), &[2, 5]);
    }

    #[test]
    fn sum_leading_reduces_to_last_dim() {
        let x = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], [2, 3], &dev());
        assert_eq!(x.sum_leading().to_vec(), vec![5., 7., 9.]);
    }

    #[test]
    fn accumulate_adds_in_place() {
        let a = Tensor::zeros([3], &dev());
        let b = Tensor::from_vec(vec![1., 2., 3.], [3], &dev());
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.to_vec(), vec![2., 4., 6.]);
    }
}
