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
//!   operand it only reads. A matrix product's operand is lent with its
//!   strides instead, so a transposed view is read in place; only a
//!   strided left operand of rank 3 or more, whose rows two strides
//!   cannot describe, is gathered.
//! * **One allocation per output, and none for an operand that dies.**
//!   The only buffers a kernel asks the allocator for are the ones it
//!   returns. A kernel that takes an operand by `&mut` consumes it: it
//!   writes its result in place into that operand's buffer
//!   ([`Tensor::take_buffer`]), which is the operand's own when its handle
//!   owns the storage and a copy otherwise, so a caller keeps an operand
//!   by passing a clone. A matrix product's backward
//!   ([`Tensor::matmul_grad`]) consumes `dy` only when the weight is
//!   square, so that `dx` has `dy`'s size: a row of `dx` reads the whole
//!   row of `dy` it replaces, so `dx` is computed a block of rows at a
//!   time into scratch and copied over those rows. That block, the gather
//!   buffers, the head permutes' copy of their input and the matrix
//!   product's panel come from the crate's per-thread scratch pool, which
//!   other crates borrow through [`Tensor::with_scratch`].
//! * **Fixed operation order.** Each output element is produced by the
//!   same `f32` operations in the same order regardless of how the
//!   operands are laid out: matrix products accumulate over the inner
//!   index in ascending order and skip terms whose left factor is exactly
//!   zero; row reductions run left to right. Results are therefore
//!   bit-identical across views, and across changes that respect this
//!   order (`tests/kernel_arithmetic.rs` pins a training run's bits).
//!
//! The loops that dominate a numeric step's host time run at the CPU's
//! vector width through one dispatch, `Kernel`: each call checks the
//! CPU (`is_x86_feature_detected!`) and, under AVX-512F, enters one
//! `#[target_feature]` function that compiles every kernel's loop for
//! that instruction set. That call is the crate's one `unsafe` block.
//!
//! Matrix products, the largest share, run one register tile: 4 rows of
//! `a` by `NR` columns of `out`, held in local accumulators across the
//! whole inner loop. Before the tiles of an `NR`-wide strip of `out` run,
//! that strip of `b` is packed, for every `p`, into one contiguous
//! `k × NR` panel read through `b`'s strides; the tiles then read `b` only
//! from the panel, taking each panel row by value so it is loaded into
//! registers once per `p`, not once per tile row. Without the panel a tile
//! read its `NR` columns from `k` rows of `b` a whole row apart — 2 KiB at
//! `n = 512` — which map onto the same few L1 sets and evict each other;
//! the panel's rows are adjacent, and a transposed `b` costs no more than
//! a plain one. The tile reads `a`'s rows through their strides, each row
//! sliced once and indexed `row[p·cs]`. `MR` stays 4: at 64 wide its 16
//! accumulators and the panel row's 4 registers fit AVX-512's 32, where 8
//! rows would need all 32 for accumulators alone. The tile is indexed
//! only by constants — a slice of it of a runtime width (`acc[..w]`)
//! pushed it out of registers — so the edges (`m % 4` rows, and the last
//! strip when `NR` does not divide `n`) run a plain row loop over the same
//! panel.
//!
//! `NR` follows the dispatch: 64 under AVX-512F (four registers a row),
//! `PORTABLE_NR` (8) elsewhere, and off x86-64 only the portable width is
//! compiled. With the panel, on an AVX-512F Xeon, 64 wide beat 32 wide in
//! 112 of 120 alternating `func_keep` steps in one process, ≈ 4 ms a step:
//! each element of `a` — a load, the zero test and a broadcast — now
//! feeds twice the multiplies, which matters most where `dy` is a
//! dropout's gradient and the zero test mispredicts. There is no AVX2
//! width: on an AVX-512 host a 16-wide AVX2 tile ran fewer `func_keep`
//! steps than the 32-wide AVX-512 one in every paired run. Every width
//! keeps the bits, because each output element still gets one `f32`
//! multiply and then one add per term, in ascending `p`, with the term
//! skipped per (row, `p`) where `a[i, p]` is exactly zero: Rust never
//! fuses a multiply and an add into an FMA and never reassociates, so a
//! wider tile changes only which registers hold the sums, and the panel
//! only where `b`'s values are loaded from. (A NaN result's sign and
//! payload are the one exception: Rust leaves them unspecified, and they
//! can differ between builds.)
//!
//! GELU and its backward compute their own `tanh`: a port of glibc 2.36's
//! `tanhf`, which is fdlibm's `s_tanhf.c` over `__expm1f` (the Q1–Q5
//! polynomial and a reconstruction that depends on the reduction's `k`),
//! with neither an ifunc nor an FMA in that build. The port makes the
//! same `f32` operations and integer bit moves on every input; it
//! evaluates each of glibc's branches and selects the result instead of
//! jumping, so the GELU loops vectorise, and the selected lane gets
//! exactly glibc's operations, so every bit holds (the oracle tests check
//! it against libm on all 2^32 inputs). Calling the port, not libm, also
//! keeps GELU's bits the same on platforms whose libm differs. `exp` and
//! `ln` in softmax, attention and cross-entropy still come from libm:
//! glibc's `expf` is an FMA ifunc on x86-64, so a bit-exact port of it is
//! out of scope.

use crate::rng::Prng;
use crate::shape::{Dims, Shape};
use crate::tensor::{return_scratch, take_scratch, Tensor};
use std::ops::Range;

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

/// The last extent of `t`: the row width of a row-wise kernel.
fn row_width(op: &str, t: &Tensor) -> usize {
    assert!(t.rank() > 0, "{op} on scalar");
    t.dims()[t.rank() - 1]
}

/// Elementwise `f(a, b)` over two same-shaped tensors, written into the
/// buffer of an operand that dies with the call: `a`'s when `a` owns its
/// storage, else `b`'s when `b` does, else a copy of `a`. Each element
/// is `f(a[i], b[i])` whichever buffer holds the result.
fn zip_into(op: &str, a: &mut Tensor, b: &mut Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    binary_shape_check(op, a, b);
    if !a.has_data() || !b.has_data() {
        return symbolic_like(a, *a.shape());
    }
    if !a.owns_storage() && b.owns_storage() {
        let mut out = b.take_buffer();
        a.with_values(|a| {
            for (y, &x) in out.iter_mut().zip(a) {
                *y = f(x, *y);
            }
        });
        return Tensor::from_vec(out, *a.shape(), a.device());
    }
    let mut out = a.take_buffer();
    b.with_values(|b| {
        for (x, &y) in out.iter_mut().zip(b) {
            *x = f(*x, y);
        }
    });
    Tensor::from_vec(out, *a.shape(), a.device())
}

/// [`zip_into`] over clones, so neither operand is consumed.
fn zip_map(op: &str, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    zip_into(op, &mut a.clone(), &mut b.clone(), f)
}

/// Elementwise `f(x)`.
fn elementwise(t: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    if !t.has_data() {
        return symbolic_like(t, *t.shape());
    }
    let out = t.with_values(|v| v.iter().map(|&x| f(x)).collect());
    Tensor::from_vec(out, *t.shape(), t.device())
}

/// One kernel loop over slices, run at the widest vector width the CPU
/// has. Every arm is an `#[inline(always)]` body, so [`Kernel::run_avx512`]
/// compiles each of them for AVX-512F; a closure passed into that entry
/// instead would not be inlined there and would stay scalar.
pub(crate) enum Kernel<'a> {
    /// `out += a @ b` for `a: [m, k]` and `b: [k, n]` read through their
    /// strides and a row-major `out: [m, n]`: per output element, terms
    /// are added in ascending `p` and skipped where `a[i, p]` is exactly
    /// zero. `panel` is scratch the kernel packs strips of `b` into; it
    /// grows to `k × NR` and keeps that capacity for the next call.
    Matmul {
        out: &'a mut [f32],
        a: Strided<'a>,
        b: Strided<'a>,
        k: usize,
        n: usize,
        panel: &'a mut Vec<f32>,
    },
    /// `out[i] = gelu_scalar(x[i])`.
    Gelu { out: &'a mut [f32], x: &'a [f32] },
    /// `dy[i] = dy[i] · gelu_grad_scalar(x[i])`: the gradient written
    /// over the output gradient it is made from.
    GeluGrad { dy: &'a mut [f32], x: &'a [f32] },
    /// `out[i] = tanh(x[i])`, so the oracle tests check the port as each
    /// width's loop compiles it.
    #[cfg(test)]
    Tanh { out: &'a mut [f32], x: &'a [f32] },
}

impl Kernel<'_> {
    /// Runs the kernel at the CPU's width: AVX-512F where detected, the
    /// portable width elsewhere.
    fn run(self) {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: `run_avx512` only needs AVX-512F, which the CPU was
            // just found to run.
            return unsafe { self.run_avx512() };
        }
        self.run_at::<PORTABLE_NR>();
    }

    /// [`Kernel::run_at`] with 64-wide matmul tiles, compiled for AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    pub(crate) fn run_avx512(self) {
        self.run_at::<64>();
    }

    /// The kernel with `NR`-wide matmul tiles. Inlined into
    /// [`Kernel::run_avx512`], so the compiler vectorises it there for that
    /// instruction set.
    #[inline(always)]
    pub(crate) fn run_at<const NR: usize>(self) {
        match self {
            Kernel::Matmul {
                out,
                a,
                b,
                k,
                n,
                panel,
            } => matmul_tiled::<NR>(out, a, b, k, n, panel),
            Kernel::Gelu { out, x } => {
                for (o, &x) in out.iter_mut().zip(x) {
                    *o = gelu_scalar(x);
                }
            }
            Kernel::GeluGrad { dy, x } => {
                for (dy, &x) in dy.iter_mut().zip(x) {
                    *dy *= gelu_grad_scalar(x);
                }
            }
            #[cfg(test)]
            Kernel::Tanh { out, x } => {
                for (o, &x) in out.iter_mut().zip(x) {
                    *o = tanh(x);
                }
            }
        }
    }
}

/// Rows of `a` (and of `out`) in one register tile.
const MR: usize = 4;

/// Rows of a product written over its consumed left operand
/// ([`Tensor::matmul_consuming`]) that are computed into scratch at a
/// time: the scratch is this many rows, not the whole product, and each
/// block packs the panels of `b` once more.
const CONSUMED_ROWS: usize = 16 * MR;

/// The tile's width where AVX-512F is not detected: four SSE2 registers a
/// row, the baseline every x86-64 CPU runs.
pub(crate) const PORTABLE_NR: usize = 8;

/// A matrix read through two strides: element `(i, j)` is
/// `data[i·rs + j·cs]`.
#[derive(Clone, Copy)]
pub(crate) struct Strided<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rs: usize,
    pub(crate) cs: usize,
}

impl<'a> Strided<'a> {
    /// The values and strides [`Tensor::read_of`] handed over, as the matrix
    /// of their flattened rows ([`Shape::as_2d`]), whose last two strides
    /// step a row and a column.
    fn of((data, strides): (&'a [f32], Dims)) -> Strided<'a> {
        let (rs, cs) = match *strides {
            [] => (0, 0),
            [cs] => (0, cs),
            [.., rs, cs] => (rs, cs),
        };
        Strided { data, rs, cs }
    }

    /// The matrix `offset` elements further on: one matrix of a batch. An
    /// empty batch may end before `offset`; its matrices read nothing.
    fn at(self, offset: usize) -> Strided<'a> {
        let data = self.data.get(offset..).unwrap_or_default();
        Strided { data, ..self }
    }

    /// Row `i` from its first element on: element `j` is `row[j·cs]`.
    #[inline(always)]
    fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.rs..]
    }
}

/// Whether [`Tensor::matmul`] reads `t`'s flattened rows in place: a view
/// of rank 2 or less is two strides, and so is a contiguous one; the
/// rows of any other view have no single row stride, so it is gathered.
pub(crate) fn rows_in_place(t: &Tensor) -> bool {
    t.rank() <= 2 || t.is_contiguous()
}

/// [`Kernel::Matmul`] in `MR × NR` register tiles. Each strip of `NR`
/// columns of `b` (fewer in the last) is first packed, for all `k`, into
/// `panel`, read through `b`'s strides; the tiles and the edge rows then
/// read that strip of `b` only from the panel, one contiguous run per `p`.
#[inline(always)]
fn matmul_tiled<const NR: usize>(
    out: &mut [f32],
    a: Strided,
    b: Strided,
    k: usize,
    n: usize,
    panel: &mut Vec<f32>,
) {
    if k == 0 || n == 0 {
        return;
    }
    let m = out.len() / n;
    let rows = m - m % MR;
    if panel.len() < k * NR {
        panel.resize(k * NR, 0.0);
    }
    for j in (0..n).step_by(NR) {
        let w = NR.min(n - j);
        let panel = &mut panel[..k * w];
        for (p, packed) in panel.chunks_exact_mut(w).enumerate() {
            let brow = &b.row(p)[j * b.cs..];
            for (c, v) in packed.iter_mut().enumerate() {
                *v = brow[c * b.cs];
            }
        }
        if w < NR {
            matmul_rows(out, a, panel, (n, j..n), 0..m);
            continue;
        }
        for i in (0..rows).step_by(MR) {
            let arows: [&[f32]; MR] = std::array::from_fn(|r| a.row(i + r));
            let mut acc = [[0.0f32; NR]; MR];
            for (r, acc) in acc.iter_mut().enumerate() {
                acc.copy_from_slice(&out[(i + r) * n + j..][..NR]);
            }
            // `brow` by value: loaded once per `p`, not once per row.
            for (p, &brow) in panel.as_chunks::<NR>().0.iter().enumerate() {
                for (acc, arow) in acc.iter_mut().zip(arows) {
                    let av = arow[p * a.cs];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, bv) in acc.iter_mut().zip(brow) {
                        *o += av * bv;
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                out[(i + r) * n + j..][..NR].copy_from_slice(acc);
            }
        }
        matmul_rows(out, a, panel, (n, j..j + NR), rows..m);
    }
}

/// The tile's edges, one row at a time: `out[i, cols] += a[i, ..] @ panel`
/// for each row `i` in `rows`, where `panel` holds the `k × cols.len()`
/// strip of `b` at columns `cols` of `out`'s `n`.
#[inline(always)]
fn matmul_rows(
    out: &mut [f32],
    a: Strided,
    panel: &[f32],
    (n, cols): (usize, Range<usize>),
    rows: Range<usize>,
) {
    for i in rows {
        let (arow, orow) = (a.row(i), &mut out[i * n..][cols.clone()]);
        for (p, brow) in panel.chunks_exact(cols.len()).enumerate() {
            let av = arow[p * a.cs];
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

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        zip_map("mul", self, rhs, |x, y| x * y)
    }

    /// Elementwise `f(self[i], rhs[i])` in one pass: a chain of
    /// elementwise steps fused into one output (an op backward's
    /// `dy · f'(x)`).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        zip_map("zip_with", self, rhs, f)
    }

    /// [`Tensor::zip_with`] consuming both operands: the result is
    /// written into `a`'s buffer when `a` owns its storage, else into
    /// `b`'s when `b` does (see [`Tensor::take_buffer`]), and into a copy
    /// of `a` when neither does. Either way element `i` is
    /// `f(a[i], b[i])`, so the result does not depend on which buffer
    /// holds it.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_consuming(a: &mut Tensor, b: &mut Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        zip_into("zip_consuming", a, b, f)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        elementwise(self, |x| x * s)
    }

    /// Adds a 1-D `bias` across the last dimension, consuming `self`: the
    /// sum is written into its buffer ([`Tensor::take_buffer`]).
    ///
    /// # Panics
    /// Panics if `bias` is not 1-D of length `last_dim`.
    pub fn add_bias(&mut self, bias: &Tensor) -> Tensor {
        let h = row_width("add_bias", self);
        assert_eq!(bias.dims(), &[h], "bias must be 1-D of the last dim");
        if !self.has_data() || !bias.has_data() {
            return symbolic_like(self, *self.shape());
        }
        let mut out = self.take_buffer();
        if h > 0 {
            bias.with_values(|b| {
                for row in out.chunks_exact_mut(h) {
                    for (v, &b) in row.iter_mut().zip(b) {
                        *v += b;
                    }
                }
            });
        }
        Tensor::from_vec(out, *self.shape(), self.device())
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
        let h = row_width("sum_leading", self);
        if !self.has_data() {
            return symbolic_like(self, [h]);
        }
        let mut out = vec![0.0f32; h];
        if h > 0 {
            self.with_values(|v| {
                for row in v.chunks_exact(h) {
                    for (o, x) in out.iter_mut().zip(row) {
                        *o += x;
                    }
                }
            });
        }
        Tensor::from_vec(out, [h], self.device())
    }

    // ------------------------------------------------------------------
    // Matrix multiply
    // ------------------------------------------------------------------

    /// Matrix product `self @ rhs` where `self` is `[..., m, k]` (leading
    /// dims flattened) and `rhs` is a 2-D `[k, n]` view. Either operand
    /// may be a transposed view; the result does not depend on layout.
    /// Both are read in place through their strides, except a strided
    /// `self` of rank 3 or more, whose rows two strides cannot describe: it
    /// is gathered.
    ///
    /// # Panics
    /// Panics if `rhs` is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let out_dims = self.matmul_dims(rhs);
        if !self.has_data() || !rhs.has_data() {
            return symbolic_like(self, out_dims);
        }
        let mut out = vec![0.0f32; out_dims.numel()];
        self.matmul_into(rhs, &mut out);
        Tensor::from_vec(out, out_dims, self.device())
    }

    /// The shape of `self @ rhs`, after checking [`Tensor::matmul`]'s
    /// shape contract.
    fn matmul_dims(&self, rhs: &Tensor) -> Shape {
        assert_eq!(rhs.rank(), 2, "matmul rhs must be 2-D");
        let (_, k) = self.shape().as_2d();
        let (rk, n) = (rhs.dim(0), rhs.dim(1));
        assert_eq!(k, rk, "matmul inner dims {k} vs {rk}");
        self.shape().with_last(n)
    }

    /// `out += self @ rhs` over numeric operands, read as
    /// [`Tensor::matmul`] reads them.
    fn matmul_into(&self, rhs: &Tensor, out: &mut [f32]) {
        let (k, n) = (rhs.dim(0), rhs.dim(1));
        let lend = rows_in_place(self);
        Tensor::read_of([self, rhs], [lend, true], |[a, b]| {
            let mut panel = take_scratch();
            Kernel::Matmul {
                out,
                a: Strided::of(a),
                b: Strided::of(b),
                k,
                n,
                panel: &mut panel,
            }
            .run();
            return_scratch([panel]);
        });
    }

    /// [`Tensor::matmul`] by a square `rhs`, consuming `self`: the product
    /// is written over `self`'s buffer ([`Tensor::take_buffer`]), the
    /// kernel run by `run`. A row of the product reads the whole row of
    /// `self` it replaces, so each block of [`CONSUMED_ROWS`] rows is
    /// computed into a buffer of the scratch pool and then copied over
    /// its rows, which no later block reads. Its bits are
    /// [`Tensor::matmul`]'s: an element's terms do not depend on the rows
    /// around it.
    pub(crate) fn matmul_consuming(&mut self, rhs: &Tensor, run: fn(Kernel)) -> Tensor {
        let out_dims = self.matmul_dims(rhs);
        let n = rhs.dim(1);
        assert_eq!(rhs.dim(0), n, "an in-place product needs a square rhs");
        let mut out = self.take_buffer();
        Tensor::read_of([rhs], [true], |[b]| {
            let b = Strided::of(b);
            let (mut product, mut panel) = (take_scratch(), take_scratch());
            for rows in out.chunks_mut(CONSUMED_ROWS * n.max(1)) {
                product.clear();
                product.resize(rows.len(), 0.0);
                let a = Strided {
                    data: rows,
                    rs: n,
                    cs: 1,
                };
                run(Kernel::Matmul {
                    out: &mut product,
                    a,
                    b,
                    k: n,
                    n,
                    panel: &mut panel,
                });
                rows.copy_from_slice(&product);
            }
            return_scratch([panel, product]);
        });
        Tensor::from_vec(out, out_dims, self.device())
    }

    /// Backward of [`Tensor::matmul`]: with `self` the product's left
    /// operand `x` (`[..., k]`) and `w` its right (`[k, n]`), returns
    /// `(dx, dw)` for the output gradient `dy`: `dx = dy @ wᵀ`, shaped like
    /// `x`, and `dw = xᵀ @ dy` over the flattened rows, both transposes
    /// read in place. When `w` is square, `x` contiguous and `dy`'s handle
    /// [owns its storage](Tensor::owns_storage), `dy` is consumed: `dx` is
    /// written over its buffer. `dw`'s values are computed first, while
    /// `dy` still holds its own, but `dx` is built first, so a device
    /// tracker sees the events of the path that allocates both, `dx` and
    /// then `dw`. Any other `dy` is left as it was.
    ///
    /// # Panics
    /// Panics where [`Tensor::matmul`] does.
    pub fn matmul_grad(&self, w: &Tensor, dy: &mut Tensor) -> (Tensor, Tensor) {
        let (m, k) = self.shape().as_2d();
        let n = w.dim(1);
        let numeric = self.has_data() && w.has_data() && dy.has_data();
        if !(numeric && k == n && dy.owns_storage() && self.is_contiguous()) {
            let dx = dy.matmul(&w.t());
            let x2d = self.contiguous().reshape([m, k]);
            let dw = x2d.t().matmul(&dy.contiguous().reshape([m, n]));
            return (dx, dw);
        }
        let mut dw = vec![0.0f32; k * n];
        let xt = self.reshape([m, k]).t();
        xt.matmul_into(&dy.reshape([m, n]), &mut dw);
        let dx = dy.matmul_consuming(&w.t(), |kernel| kernel.run());
        (dx, Tensor::from_vec(dw, [k, n], self.device()))
    }

    /// Batched matrix product of `[b, m, k]` and `[b, k, n]`. Both are
    /// read in place: each batch is a matrix of two strides.
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
        let out = Tensor::read_of([self, rhs], [true; 2], |[a, b]| {
            // The first stride steps from one batch's matrix to the next.
            let (ab, bb) = (a.1[0], b.1[0]);
            let (a, b) = (Strided::of(a), Strided::of(b));
            let mut out = vec![0.0f32; bt * m * n];
            let mut panel = take_scratch();
            for t in 0..bt {
                Kernel::Matmul {
                    out: &mut out[t * m * n..][..m * n],
                    a: a.at(t * ab),
                    b: b.at(t * bb),
                    k,
                    n,
                    panel: &mut panel,
                }
                .run();
            }
            return_scratch([panel]);
            out
        });
        Tensor::from_vec(out, [bt, m, n], self.device())
    }

    // ------------------------------------------------------------------
    // Activations and normalisation
    // ------------------------------------------------------------------

    /// GELU activation (tanh approximation, as used by GPT/BERT).
    pub fn gelu(&self) -> Tensor {
        if !self.has_data() {
            return symbolic_like(self, *self.shape());
        }
        let out = self.with_values(|x| {
            let mut out = vec![0.0f32; x.len()];
            Kernel::Gelu { out: &mut out, x }.run();
            out
        });
        Tensor::from_vec(out, *self.shape(), self.device())
    }

    /// Backward of [`Tensor::gelu`]: with `self` the GELU's input `x`,
    /// returns `dx = dy · gelu'(x)` in one pass, consuming `dy`: `dx` is
    /// written into its buffer ([`Tensor::take_buffer`]).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn gelu_grad(&self, dy: &mut Tensor) -> Tensor {
        binary_shape_check("gelu_grad", self, dy);
        if !self.has_data() || !dy.has_data() {
            return symbolic_like(dy, *dy.shape());
        }
        let mut dx = dy.take_buffer();
        self.with_values(|x| Kernel::GeluGrad { dy: &mut dx, x }.run());
        Tensor::from_vec(dx, *dy.shape(), dy.device())
    }

    /// Softmax over the last dimension.
    pub fn softmax_last(&self) -> Tensor {
        let h = row_width("softmax", self);
        if !self.has_data() {
            return symbolic_like(self, *self.shape());
        }
        let mut v = self.to_vec();
        if h > 0 {
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
        }
        Tensor::from_vec(v, *self.shape(), self.device())
    }

    /// Backward of [`Tensor::softmax_last`]: with `self` the softmax
    /// output `y`, returns `dx = y .* (dy - rowsum(dy .* y))`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn softmax_grad(&self, dy: &Tensor) -> Tensor {
        binary_shape_check("softmax_grad", self, dy);
        let h = row_width("softmax", self);
        if !self.has_data() || !dy.has_data() {
            return symbolic_like(self, *self.shape());
        }
        let dx = Tensor::with_values_of([self, dy], |[y, dy]| {
            let mut dx = vec![0.0f32; y.len()];
            if h > 0 {
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
            }
            dx
        });
        Tensor::from_vec(dx, *self.shape(), self.device())
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
            return symbolic_like(self, *self.shape());
        }
        let mut v = self.to_vec();
        for (r, row) in v.chunks_exact_mut(s2.max(1)).enumerate() {
            row[r % s1 + 1..].fill(fill);
        }
        Tensor::from_vec(v, *self.shape(), self.device())
    }

    /// Layer normalisation over the last dimension.
    ///
    /// Returns `(y, mean, rstd)`; the statistics are needed for backward.
    /// Rows of width zero have none: their `mean` and `rstd` are `0`.
    ///
    /// # Panics
    /// Panics if `gamma`/`beta` are not 1-D of the last-dim length.
    pub fn layernorm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> (Tensor, Tensor, Tensor) {
        let h = row_width("layernorm", self);
        assert_eq!(gamma.dims(), &[h], "gamma must be [hidden]");
        assert_eq!(beta.dims(), &[h], "beta must be [hidden]");
        let rows = self.shape().as_2d().0;
        if !self.has_data() || !gamma.has_data() || !beta.has_data() {
            return (
                symbolic_like(self, *self.shape()),
                symbolic_like(self, [rows]),
                symbolic_like(self, [rows]),
            );
        }
        let (y, means, rstds) = Tensor::with_values_of([self, gamma, beta], |[x, g, b]| {
            let mut y = vec![0.0f32; x.len()];
            let mut means = vec![0.0f32; rows];
            let mut rstds = vec![0.0f32; rows];
            if h > 0 {
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
            }
            (y, means, rstds)
        });
        (
            Tensor::from_vec(y, *self.shape(), self.device()),
            Tensor::from_vec(means, [rows], self.device()),
            Tensor::from_vec(rstds, [rows], self.device()),
        )
    }

    /// Inverted dropout with keep probability `1 - p`; returns
    /// `(y, mask)` where the mask holds `0` or `1` and is accounted as a
    /// one-byte tensor (PyTorch saves a bool mask); survivors are scaled
    /// by `1/(1-p)` in `y`. Consumes `self`: `y` is written into its
    /// buffer ([`Tensor::take_buffer`]). With `p = 0`, `y` is a view of
    /// `self` and nothing is consumed.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn dropout(&mut self, p: f32, rng: &mut Prng) -> (Tensor, Tensor) {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let dev = self.device().clone();
        if !self.has_data() {
            let y = symbolic_like(self, *self.shape());
            let m = dev.with_dtype(crate::DType::U8, || Tensor::symbolic(*self.shape(), &dev));
            return (y, m);
        }
        if p == 0.0 {
            let mask = dev.with_dtype(crate::DType::U8, || Tensor::ones(*self.shape(), &dev));
            return (self.contiguous(), mask);
        }
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mut y = self.take_buffer();
        let mut mask = vec![0.0f32; y.len()];
        for (y, m) in y.iter_mut().zip(&mut mask) {
            if rng.next_f32() < keep {
                *m = 1.0;
                *y *= scale;
            } else {
                *y = 0.0;
            }
        }
        (
            Tensor::from_vec(y, *self.shape(), &dev),
            dev.with_dtype(crate::DType::U8, || {
                Tensor::from_vec(mask, *self.shape(), &dev)
            }),
        )
    }

    // ------------------------------------------------------------------
    // Attention heads
    // ------------------------------------------------------------------

    /// Splits `[b, s, nh·hd]` into `nh` heads, `[b·nh, s, hd]`, consuming
    /// `self` ([`Tensor::take_buffer`]).
    ///
    /// # Panics
    /// Panics unless `self` is 3-D with a last dim divisible by `nh`.
    pub fn split_heads(&mut self, nh: usize) -> Tensor {
        self.regroup_heads(nh, true)
    }

    /// Merges heads back, `[b·nh, s, hd]` → `[b, s, nh·hd]`: the inverse
    /// of [`Tensor::split_heads`], consuming `self` likewise.
    ///
    /// # Panics
    /// Panics unless `self` is 3-D with a first dim divisible by `nh`.
    pub fn merge_heads(&mut self, nh: usize) -> Tensor {
        self.regroup_heads(nh, false)
    }

    /// The one head kernel: each `hd`-wide run moves between `[b, s, h]`
    /// and `[b·nh, s, hd]` order, in the direction `split` says. The
    /// values are read from a scratch-pool copy of the buffer they are
    /// written back into.
    fn regroup_heads(&mut self, nh: usize, split: bool) -> Tensor {
        assert_eq!(self.rank(), 3, "head regrouping expects a 3-D tensor");
        let (d0, s, d2) = (self.dim(0), self.dim(1), self.dim(2));
        let divided = if split { d2 } else { d0 };
        assert_eq!(
            divided % nh,
            0,
            "dimension {divided} not divisible by {nh} heads"
        );
        let (b, hd) = if split { (d0, d2 / nh) } else { (d0 / nh, d2) };
        let h = nh * hd;
        let dims = if split { [b * nh, s, hd] } else { [b, s, h] };
        if !self.has_data() {
            return symbolic_like(self, dims);
        }
        let mut out = self.take_buffer();
        let mut src = take_scratch();
        src.clear();
        src.extend_from_slice(&out);
        for bi in 0..b {
            for si in 0..s {
                for ni in 0..nh {
                    let merged = (bi * s + si) * h + ni * hd;
                    let heads = ((bi * nh + ni) * s + si) * hd;
                    let (from, to) = if split {
                        (merged, heads)
                    } else {
                        (heads, merged)
                    };
                    out[to..to + hd].copy_from_slice(&src[from..from + hd]);
                }
            }
        }
        return_scratch([src]);
        Tensor::from_vec(out, dims, self.device())
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
        let out_dims = ids.shape().pushed(h);
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
        let h = row_width("embedding_grad", grad);
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
            return (symbolic_like(self, [1]), symbolic_like(self, *self.shape()));
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
            Tensor::over(probs.storage().clone(), *self.shape()),
        )
    }
}

/// GELU(x) with the tanh approximation.
#[inline(always)]
pub(crate) fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + tanh(C * (x + 0.044715 * x * x * x)))
}

/// d GELU(x) / dx with the tanh approximation.
#[inline(always)]
pub(crate) fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = tanh(u);
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// `tanh(x)`, ported from glibc 2.36's `tanhf` (fdlibm's `s_tanhf.c`):
/// the same `f32` operations on every input, each branch evaluated and the
/// result selected, so a loop over it vectorises.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let negative = jx >> 31 == 1;
    let ax = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000; // |x| >= 1
    let t = expm1(if big { 2.0 * ax } else { -2.0 * ax });
    let z = if ix >= 0x41b0_0000 {
        1.0 // |x| >= 22: glibc's `one - tiny`, which rounds to 1
    } else if big {
        1.0 - 2.0 / (t + 2.0)
    } else {
        -t / (t + 2.0)
    };
    if ix >= 0x7f80_0000 {
        // ±1 for ±inf, NaN for NaN.
        if negative {
            1.0 / x - 1.0
        } else {
            1.0 / x + 1.0
        }
    } else if ix < 0x2400_0000 {
        x * (1.0 + x) // |x| < 2^-55, ±0 included
    } else if negative {
        -z
    } else {
        z
    }
}

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `exp(x) - 1`, ported from glibc 2.36's `__expm1f` for the arguments
/// [`tanh`] passes it, `-2 < x < 44`. glibc's filter for `|x| >= 27 ln 2`
/// returns early only below `-27 ln 2` or from `88.72`, so it is left out.
#[inline(always)]
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let negative = x.to_bits() >> 31 == 1;
    // Argument reduction: x = k ln2 + (hi - lo), with `c` the rounding
    // error of `hi - lo`.
    let (hi, lo, k) = if hx < 0x3f85_1592 {
        // |x| < 1.5 ln2
        if negative {
            (x + LN2_HI, -LN2_LO, -1)
        } else {
            (x - LN2_HI, LN2_LO, 1)
        }
    } else {
        let kf = INVLN2 * x + if negative { -0.5 } else { 0.5 };
        let k = truncate(kf, negative);
        let t = k as f32;
        (x - t * LN2_HI, t * LN2_LO, k)
    };
    let r = hi - lo;
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > 0.5 ln2
        (r, (hi - r) - lo, k)
    } else {
        (x, 0.0, 0)
    };
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let ek = (x * (e - c) - c) - hxs;
    // Adds `k` to the exponent of `y`.
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32));
    let y = if k == 0 {
        x - (x * e - hxs)
    } else if k == -1 {
        0.5 * (x - ek) - 0.5
    } else if k == 1 {
        if x < -0.25 {
            -2.0 * (ek - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - ek)
        }
    } else if k <= -2 || k > 56 {
        scale(1.0 - (ek - x)) - 1.0
    } else {
        // 2^-k, and 1 - 2^-k exactly (k < 23): glibc builds the latter's
        // bits with a shift by `k`, which SSE2 has no vector form of.
        let t = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
        if k < 23 {
            scale((1.0 - t) - (ek - x))
        } else {
            scale(x - (ek + t) + 1.0)
        }
    };
    if hx < 0x3300_0000 {
        x // |x| < 2^-25
    } else {
        y
    }
}

/// `kf` truncated toward zero, as C's conversion to `int` does, for
/// `|kf| < 2^22` with `negative` its sign. Adding 1.5 · 2^23 rounds `kf` to
/// the nearest integer, which lands in the sum's low bits; where that
/// rounded away from zero, one step back truncates. A float-to-int cast
/// would do the same, but the compiler splits a vector of those into one
/// scalar conversion a lane.
#[inline(always)]
fn truncate(kf: f32, negative: bool) -> i32 {
    const SHIFTER: f32 = 12_582_912.0;
    let sum = kf + SHIFTER;
    let k = (sum.to_bits() as i32).wrapping_sub(SHIFTER.to_bits() as i32);
    if (sum - SHIFTER).abs() <= kf.abs() {
        k
    } else if negative {
        k.wrapping_add(1)
    } else {
        k.wrapping_sub(1)
    }
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
        assert_eq!(b.zip_with(&a, |x, y| x - y).to_vec(), vec![9., 18.]);
    }

    #[test]
    fn add_bias_broadcasts_last_dim() {
        let mut x = Tensor::from_vec(vec![0., 0., 0., 0., 0., 0.], [2, 3], &dev());
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
        let (y, mask) = x.clone().dropout(0.5, &mut rng);
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
        let mut x = Tensor::from_vec(vec![1., 2., 3.], [3], &dev());
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
    fn row_kernels_accept_rows_of_width_zero() {
        let x = Tensor::zeros([3, 0], &dev());
        let empty = Tensor::zeros([0], &dev());
        let (y, mean, rstd) = x.layernorm(&empty, &empty, 1e-5);
        for (what, t) in [
            ("softmax_last", x.softmax_last()),
            ("softmax_grad", x.softmax_grad(&x)),
            ("layernorm", y),
            ("add_bias", x.clone().add_bias(&empty)),
        ] {
            assert_eq!((t.dims(), t.to_vec()), (&[3, 0][..], vec![]), "{what}");
        }
        let sum = x.sum_leading();
        assert_eq!((sum.dims(), sum.to_vec()), (&[0][..], vec![]));
        // A row of no elements has no statistics: they stay 0.
        assert_eq!((mean.to_vec(), rstd.to_vec()), (vec![0.0; 3], vec![0.0; 3]));
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
