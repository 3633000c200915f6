//! The copy-based kernels this crate shipped before its kernels started
//! borrowing their operands, kept as the reference the borrowed ones must
//! match bit for bit — over contiguous, transposed and reshaped views, and
//! over operands that share a storage.

use crate::device::Device;
use crate::kernels::{self, Kernel, Strided};
use crate::rng::Prng;
use crate::tensor::Tensor;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Reference bodies: every operand is copied out with `to_vec` first.
// ---------------------------------------------------------------------

/// Row-major values read one element at a time through `Tensor::at`,
/// independent of the gather `to_vec` uses.
fn values_by_index(t: &Tensor) -> Vec<f32> {
    let dims = t.dims();
    let mut idx = vec![0usize; dims.len()];
    (0..t.numel())
        .map(|_| {
            let v = t.at(&idx);
            for d in (0..dims.len()).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
            v
        })
        .collect()
}

fn zip_ref(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let (a, b) = (a.to_vec(), b.to_vec());
    a.iter().zip(&b).map(|(x, y)| f(*x, *y)).collect()
}

fn add_bias_ref(x: &Tensor, bias: &Tensor) -> Vec<f32> {
    let h = *x.dims().last().unwrap();
    let mut out = x.to_vec();
    let b = bias.to_vec();
    for (i, v) in out.iter_mut().enumerate() {
        *v += b[i % h];
    }
    out
}

fn sum_leading_ref(x: &Tensor) -> Vec<f32> {
    let h = *x.dims().last().unwrap();
    let v = x.to_vec();
    let mut out = vec![0.0f32; h];
    for (i, x) in v.iter().enumerate() {
        out[i % h] += x;
    }
    out
}

/// `out += a @ b` for row-major `a: [m, k]`, `b: [k, n]`, `out: [m, n]`,
/// one indexed term at a time.
fn matmul_acc_ref(out: &mut [f32], a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) {
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                orow[j] += av * brow[j];
            }
        }
    }
}

fn matmul_ref(lhs: &Tensor, rhs: &Tensor) -> Vec<f32> {
    let (m, k) = lhs.shape().as_2d();
    let n = rhs.dim(1);
    let mut out = vec![0.0f32; m * n];
    matmul_acc_ref(
        &mut out,
        &lhs.contiguous().to_vec(),
        &rhs.to_vec(),
        (m, k, n),
    );
    out
}

fn bmm_ref(lhs: &Tensor, rhs: &Tensor) -> Vec<f32> {
    let (bt, m, k) = (lhs.dim(0), lhs.dim(1), lhs.dim(2));
    let n = rhs.dim(2);
    let a = lhs.contiguous().to_vec();
    let b = rhs.contiguous().to_vec();
    let mut out = vec![0.0f32; bt * m * n];
    for t in 0..bt {
        matmul_acc_ref(
            &mut out[t * m * n..][..m * n],
            &a[t * m * k..][..m * k],
            &b[t * k * n..][..k * n],
            (m, k, n),
        );
    }
    out
}

/// GELU's formula over libm's `tanh`: the oracle [`Tensor::gelu`] matches
/// bit for bit where libm is glibc 2.36.
#[expect(
    clippy::disallowed_methods,
    reason = "libm's tanhf is the oracle the port must match"
)]
fn gelu_ref(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
}

/// The derivative of [`gelu_ref`], over libm's `tanh`: the oracle of
/// [`Tensor::gelu_grad`].
#[expect(
    clippy::disallowed_methods,
    reason = "libm's tanhf is the oracle the port must match"
)]
fn gelu_grad_ref(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

fn softmax_ref(x: &Tensor) -> Vec<f32> {
    let h = *x.dims().last().unwrap();
    let mut v = x.to_vec();
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
    v
}

fn softmax_grad_ref(y: &Tensor, dy: &Tensor) -> Vec<f32> {
    let h = *y.dims().last().unwrap();
    let yv = y.to_vec();
    let dyv = dy.to_vec();
    let mut dx = vec![0.0f32; yv.len()];
    for r in 0..yv.len() / h {
        let yrow = &yv[r * h..(r + 1) * h];
        let dyrow = &dyv[r * h..(r + 1) * h];
        let dot: f32 = yrow.iter().zip(dyrow).map(|(a, b)| a * b).sum();
        for j in 0..h {
            dx[r * h + j] = yrow[j] * (dyrow[j] - dot);
        }
    }
    dx
}

fn fill_above_diagonal_ref(x: &Tensor, fill: f32) -> Vec<f32> {
    let (b, s1, s2) = (x.dim(0), x.dim(1), x.dim(2));
    let mut v = x.to_vec();
    for t in 0..b {
        for i in 0..s1 {
            for j in (i + 1)..s2 {
                v[t * s1 * s2 + i * s2 + j] = fill;
            }
        }
    }
    v
}

fn layernorm_ref(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let h = *x.dims().last().unwrap();
    let rows = x.numel() / h;
    let x = x.to_vec();
    let g = gamma.to_vec();
    let b = beta.to_vec();
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
}

fn dropout_ref(x: &Tensor, p: f32, rng: &mut Prng) -> (Vec<f32>, Vec<f32>) {
    let keep = 1.0 - p;
    let scale = 1.0 / keep;
    let x = x.to_vec();
    let mut mask = vec![0.0f32; x.len()];
    let mut y = vec![0.0f32; x.len()];
    for i in 0..x.len() {
        if rng.next_f32() < keep {
            mask[i] = 1.0;
            y[i] = x[i] * scale;
        }
    }
    (y, mask)
}

fn embedding_ref(table: &Tensor, ids: &Tensor) -> Vec<f32> {
    let h = table.dim(1);
    let table = table.to_vec();
    let mut out = Vec::new();
    for &fid in &ids.to_vec() {
        let id = fid as usize;
        out.extend_from_slice(&table[id * h..(id + 1) * h]);
    }
    out
}

fn embedding_grad_ref(vocab: usize, ids: &Tensor, grad: &Tensor) -> Vec<f32> {
    let h = *grad.dims().last().unwrap();
    let g = grad.to_vec();
    let mut out = vec![0.0f32; vocab * h];
    for (row, &fid) in ids.to_vec().iter().enumerate() {
        let id = fid as usize;
        for j in 0..h {
            out[id * h + j] += g[row * h + j];
        }
    }
    out
}

fn cross_entropy_ref(logits: &Tensor, targets: &Tensor) -> (f32, Vec<f32>) {
    let (n, v) = logits.shape().as_2d();
    let pv = softmax_ref(logits);
    let mut loss = 0.0f32;
    for (row, &ft) in targets.to_vec().iter().enumerate() {
        loss -= pv[row * v + ft as usize].max(1e-30).ln();
    }
    (loss / n as f32, pv)
}

// ---------------------------------------------------------------------
// Inputs: one logical tensor under three layouts.
// ---------------------------------------------------------------------

fn dev() -> Device {
    Device::cpu()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// [`bits`] for results in which two NaNs can meet in one operation (a
/// matrix product's sums, GELU backward's `dy · gelu'(x)`), with every NaN
/// read as one value. Rust leaves the sign and payload of a NaN result
/// unspecified: x86 returns the first operand's NaN when both operands of
/// an add or a multiply are NaN, and an optimised build may commute it, so
/// two compilations of one formula can differ there and nowhere else.
/// Every other bit, and NaN-ness itself, is compared.
fn product_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Pseudo-random values; with `specials`, roughly a third are drawn from
/// the values that exercise the matmul zero-skip and NaN/inf propagation.
fn values(seed: u64, n: usize, specials: bool) -> Vec<f32> {
    const SPECIAL: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut rng = Prng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let pick = rng.next_f32();
            if specials && pick < 0.3 {
                SPECIAL[(pick * 50.0) as usize % SPECIAL.len()]
            } else {
                rng.next_normal()
            }
        })
        .collect()
}

/// The same logical `dims` tensor three ways: contiguous; a transposed
/// view over its materialised transpose (strided; rank >= 2 only); and a
/// reshaped view of a flat buffer another handle keeps alive.
fn layouts(v: &[f32], dims: &[usize]) -> Vec<Tensor> {
    let d = dev();
    let plain = Tensor::from_vec(v.to_vec(), dims, &d);
    let mut out = vec![
        plain.clone(),
        Tensor::from_vec(v.to_vec(), [v.len()], &d).reshape(dims),
    ];
    if dims.len() >= 2 {
        out.push(plain.t().contiguous().t());
    }
    out
}

fn ids(seed: u64, n: usize, vocab: usize) -> Vec<f32> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.next_f32() * vocab as f32) as usize as f32)
        .collect()
}

proptest! {
    #[test]
    fn gather_matches_indexed_reads(
        a in 1usize..4,
        b in 1usize..4,
        c in 1usize..4,
        seed in 0u64..1000,
    ) {
        let t = Tensor::from_vec(values(seed, a * b * c, true), [a, b, c], &dev());
        for view in [t.clone(), t.t(), t.transpose(0, 2), t.transpose(0, 1).t()] {
            let want = bits(&values_by_index(&view));
            prop_assert_eq!(bits(&view.to_vec()), want.clone());
            prop_assert_eq!(view.with_values(bits), want);
        }
    }

    #[test]
    fn elementwise_and_reductions_match_reference(
        r in 1usize..5,
        c in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (av, bv) = (values(seed, r * c, true), values(seed + 1, r * c, true));
        let bias = Tensor::from_vec(values(seed + 2, c, false), [c], &dev());
        for a in layouts(&av, &[r, c]) {
            prop_assert_eq!(bits(&a.scale(0.37).to_vec()), bits(&zip_ref(&a, &a, |x, _| x * 0.37)));
            prop_assert_eq!(a.sum_all().item().to_bits(), a.to_vec().iter().sum::<f32>().to_bits());
            prop_assert_eq!(bits(&a.sum_leading().to_vec()), bits(&sum_leading_ref(&a)));
            prop_assert_eq!(bits(&a.clone().add_bias(&bias).to_vec()), bits(&add_bias_ref(&a, &bias)));
            for b in layouts(&bv, &[r, c]) {
                prop_assert_eq!(bits(&a.add(&b).to_vec()), bits(&zip_ref(&a, &b, |x, y| x + y)));
                prop_assert_eq!(bits(&a.mul(&b).to_vec()), bits(&zip_ref(&a, &b, |x, y| x * y)));
                prop_assert_eq!(
                    bits(&a.zip_with(&b, |x, y| x * y - 1.5).to_vec()),
                    bits(&zip_ref(&a, &b, |x, y| x * y - 1.5))
                );
                let acc = Tensor::from_vec(av.clone(), [r, c], &dev());
                acc.accumulate(&b);
                prop_assert_eq!(bits(&acc.to_vec()), bits(&zip_ref(&a, &b, |x, y| x + y)));
            }
        }
    }

    // The oracle is libm's `tanhf`, which the port matches where it is
    // glibc 2.36's fdlibm code; newer glibc ships a correctly rounded one.
    #[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
    #[test]
    fn gelu_and_its_backward_match_the_libm_formula(
        r in 1usize..5,
        c in 1usize..40,
        seed in 0u64..1000,
    ) {
        let (xv, dyv) = (values(seed, r * c, true), values(seed + 1, r * c, true));
        for x in layouts(&xv, &[r, c]) {
            let want = bits(&x.to_vec().into_iter().map(gelu_ref).collect::<Vec<_>>());
            prop_assert_eq!(bits(&x.gelu().to_vec()), want);
            for dy in layouts(&dyv, &[r, c]) {
                prop_assert_eq!(
                    product_bits(&x.gelu_grad(&mut dy.clone()).to_vec()),
                    product_bits(&zip_ref(&dy, &x, |dy, x| dy * gelu_grad_ref(x)))
                );
            }
        }
    }

    #[test]
    fn row_kernels_match_reference(
        r in 1usize..5,
        c in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (xv, dyv) = (values(seed, r * c, false), values(seed + 1, r * c, false));
        let gamma = Tensor::from_vec(values(seed + 2, c, false), [c], &dev());
        let beta = Tensor::from_vec(values(seed + 3, c, false), [c], &dev());
        for x in layouts(&xv, &[r, c]) {
            prop_assert_eq!(bits(&x.softmax_last().to_vec()), bits(&softmax_ref(&x)));
            let (y, mean, rstd) = x.layernorm(&gamma, &beta, 1e-5);
            let (yr, meanr, rstdr) = layernorm_ref(&x, &gamma, &beta, 1e-5);
            prop_assert_eq!(bits(&y.to_vec()), bits(&yr));
            prop_assert_eq!(bits(&mean.to_vec()), bits(&meanr));
            prop_assert_eq!(bits(&rstd.to_vec()), bits(&rstdr));
            let (d, mask) = x.clone().dropout(0.3, &mut Prng::seed_from_u64(seed));
            let (dr, maskr) = dropout_ref(&x, 0.3, &mut Prng::seed_from_u64(seed));
            prop_assert_eq!(bits(&d.to_vec()), bits(&dr));
            prop_assert_eq!(bits(&mask.to_vec()), bits(&maskr));
            for dy in layouts(&dyv, &[r, c]) {
                prop_assert_eq!(bits(&x.softmax_grad(&dy).to_vec()), bits(&softmax_grad_ref(&x, &dy)));
            }
        }
    }

    #[test]
    fn matmul_and_bmm_match_reference_with_zeros_inf_and_nan(
        bt in 1usize..3,
        m in 1usize..10,
        k in 0usize..6,
        n in 1usize..71,
        seed in 0u64..1000,
    ) {
        let (av, bv) = (values(seed, bt * m * k, true), values(seed + 1, bt * k * n, true));
        for a in layouts(&av, &[bt, m, k]) {
            for b in layouts(&bv, &[bt, k, n]) {
                prop_assert_eq!(product_bits(&a.bmm(&b).to_vec()), product_bits(&bmm_ref(&a, &b)));
            }
            // matmul flattens the leading dims of its left operand.
            for w in layouts(&bv[..k * n], &[k, n]) {
                prop_assert_eq!(product_bits(&a.matmul(&w).to_vec()), product_bits(&matmul_ref(&a, &w)));
            }
        }
    }

    #[test]
    fn mask_embedding_and_loss_match_reference(
        bt in 1usize..3,
        s in 1usize..5,
        vocab in 2usize..7,
        seed in 0u64..1000,
    ) {
        let sv = values(seed, bt * s * s, false);
        for x in layouts(&sv, &[bt, s, s]) {
            for fill in [f32::NEG_INFINITY, 0.0] {
                prop_assert_eq!(
                    bits(&x.fill_above_diagonal(fill).to_vec()),
                    bits(&fill_above_diagonal_ref(&x, fill))
                );
            }
            prop_assert_eq!(
                bits(&x.apply_causal_mask().to_vec()),
                bits(&fill_above_diagonal_ref(&x, f32::NEG_INFINITY))
            );
        }
        let h = s;
        let idv = ids(seed, bt * s, vocab);
        let id_t = Tensor::from_vec(idv.clone(), [bt, s], &dev());
        for table in layouts(&values(seed + 1, vocab * h, false), &[vocab, h]) {
            prop_assert_eq!(bits(&table.embedding(&id_t).to_vec()), bits(&embedding_ref(&table, &id_t)));
        }
        for grad in layouts(&values(seed + 2, bt * s * h, false), &[bt, s, h]) {
            prop_assert_eq!(
                bits(&Tensor::embedding_grad(vocab, &id_t, &grad).to_vec()),
                bits(&embedding_grad_ref(vocab, &id_t, &grad))
            );
        }
        let targets = Tensor::from_vec(idv, [bt * s], &dev());
        let logits = Tensor::from_vec(values(seed + 3, bt * s * vocab, false), [bt * s, vocab], &dev());
        let (loss, probs) = logits.cross_entropy(&targets);
        let (lossr, probsr) = cross_entropy_ref(&logits, &targets);
        prop_assert_eq!(loss.item().to_bits(), lossr.to_bits());
        prop_assert_eq!(bits(&probs.to_vec()), bits(&probsr));
    }
}

/// `v`, a row-major `[rows, cols]` matrix, as the kernel reads it: in
/// place, or (`transposed`) through the strides of a transposed view over
/// a copy of its transpose.
fn strided_copy(
    v: &[f32],
    (rows, cols): (usize, usize),
    transposed: bool,
) -> (Vec<f32>, usize, usize) {
    if !transposed {
        return (v.to_vec(), cols, 1);
    }
    let mut t = vec![0.0f32; v.len()];
    for i in 0..rows {
        for j in 0..cols {
            t[j * rows + i] = v[i * cols + j];
        }
    }
    (t, 1, rows)
}

/// Checks one width of the matmul tile, called directly from an `out`
/// that already holds values, over shapes with full tiles and edges at
/// every width, with each operand read contiguously and through the
/// strides of a transposed view: `out += a @ b` must match the indexed
/// reference bit for bit ([`product_bits`]), with zeros, infinities and
/// NaNs among the operands. One panel serves every call, as the pool's
/// does.
fn width_matches_reference(name: &str, run: impl Fn(Kernel)) {
    let mut seed = 0;
    let mut panel = Vec::new();
    for m in [1, 3, 4, 5, 8, 9] {
        for k in [0, 1, 2, 7] {
            for n in [1, 7, 8, 9, 16, 17, 32, 33, 64, 70] {
                seed += 3;
                let (a, b) = (values(seed, m * k, true), values(seed + 1, k * n, true));
                let init = values(seed + 2, m * n, false);
                let mut want = init.clone();
                matmul_acc_ref(&mut want, &a, &b, (m, k, n));
                for (at, bt) in [(false, false), (true, false), (false, true), (true, true)] {
                    let (av, ars, acs) = strided_copy(&a, (m, k), at);
                    let (bv, brs, bcs) = strided_copy(&b, (k, n), bt);
                    let mut out = init.clone();
                    run(Kernel::Matmul {
                        out: &mut out,
                        a: Strided {
                            data: &av,
                            rs: ars,
                            cs: acs,
                        },
                        b: Strided {
                            data: &bv,
                            rs: brs,
                            cs: bcs,
                        },
                        k,
                        n,
                        panel: &mut panel,
                    });
                    assert_eq!(
                        product_bits(&out),
                        product_bits(&want),
                        "{name} width, m={m} k={k} n={n}, a transposed {at}, b transposed {bt}"
                    );
                }
            }
        }
    }
}

/// Every width the CPU runs: the portable one always, AVX-512F where
/// detected.
#[test]
fn every_matmul_width_matches_the_reference_from_a_nonzero_out() {
    for (name, run) in widths() {
        width_matches_reference(name, run);
    }
}

/// A strided left operand of rank 3 has rows no two strides describe, so
/// `matmul` gathers it; the bits are those of its contiguous copy's
/// product.
#[test]
fn a_strided_rank3_left_operand_is_gathered_with_the_same_bits() {
    let x = Tensor::from_vec(values(6, 2 * 9 * 13, true), [9, 2, 13], &dev()).transpose(0, 1);
    let w = Tensor::from_vec(values(7, 13 * 40, true), [40, 13], &dev()).t();
    assert!(!kernels::rows_in_place(&x), "the gather path");
    assert!(kernels::rows_in_place(&x.contiguous()) && kernels::rows_in_place(&w));
    assert_eq!(
        product_bits(&x.matmul(&w).to_vec()),
        product_bits(&x.contiguous().matmul(&w.contiguous()).to_vec())
    );
    assert_eq!(
        product_bits(&x.matmul(&w).to_vec()),
        product_bits(&matmul_ref(&x, &w))
    );
}

/// A product written over its consumed left operand (the `dx` a matmul
/// backward writes over `dy` when the weight is square) has
/// [`Tensor::matmul`]'s bits at every width: over edge rows (`m % 4 ≠ 0`),
/// an edge strip (`70 % NR ≠ 0`) and more rows than one block of scratch
/// holds, with zeros, infinities and NaNs among the operands, the weight
/// read plain and transposed.
#[test]
fn a_product_over_its_consumed_operand_matches_matmul_at_every_width() {
    let n = 70;
    for (name, run) in widths() {
        for (seed, dims) in [
            vec![1, n],
            vec![5, n],
            vec![13, n],
            vec![3, 13, n],
            vec![3, 45, n],
        ]
        .into_iter()
        .enumerate()
        {
            let seed = 2 * seed as u64;
            let numel = dims.iter().product();
            let dy = Tensor::from_vec(values(seed, numel, true), &dims[..], &dev());
            let w = Tensor::from_vec(values(seed + 1, n * n, true), [n, n], &dev());
            for (transposed, rhs) in [(false, w.clone()), (true, w.t())] {
                let want = dy.matmul(&rhs);
                let mut given = dy.deep_clone_as(dy.mem_class());
                let got = given.matmul_consuming(&rhs, run);
                assert_eq!(got.dims(), want.dims());
                assert_eq!(
                    product_bits(&got.to_vec()),
                    product_bits(&want.to_vec()),
                    "{name} width, dy {dims:?}, w transposed {transposed}"
                );
            }
        }
    }
}

/// A vector width's name, and a function that runs one kernel at it.
type Width = (&'static str, fn(Kernel));

/// Every width the CPU runs.
fn widths() -> Vec<Width> {
    let mut widths: Vec<Width> = vec![("portable", |kernel| {
        kernel.run_at::<{ kernels::PORTABLE_NR }>()
    })];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") {
        widths.push(("avx512", |kernel| {
            // SAFETY: pushed only when the CPU runs AVX-512F.
            unsafe { kernel.run_avx512() }
        }));
    }
    widths
}

// ---------------------------------------------------------------------
// The tanh port against libm's `tanhf`. The oracle holds where libm is
// glibc 2.36, whose `tanhf` is fdlibm's: newer glibc ships a correctly
// rounded one, so the tests run only on x86-64 Linux with glibc.
// ---------------------------------------------------------------------

/// Checks each of `widths` against libm over the f32 bit patterns
/// `patterns`, a chunk at a time. NaN is compared by NaN-ness only: Rust
/// leaves a NaN result's sign and payload unspecified.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[expect(
    clippy::disallowed_methods,
    reason = "libm's tanhf is the oracle the port must match"
)]
fn tanh_matches_libm(patterns: impl Iterator<Item = u32>, widths: &[Width]) {
    let (mut xs, mut want, mut got) = (Vec::new(), Vec::new(), Vec::new());
    let mut patterns = patterns.peekable();
    while patterns.peek().is_some() {
        xs.clear();
        xs.extend(patterns.by_ref().take(1 << 16).map(f32::from_bits));
        want.clear();
        want.extend(xs.iter().map(|x| x.tanh()));
        got.resize(xs.len(), 0.0);
        for (name, run) in widths {
            run(Kernel::Tanh {
                out: &mut got,
                x: &xs,
            });
            for ((x, &got), &want) in xs.iter().zip(&got).zip(&want) {
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "{name} tanh({:#010x}) = {got}, libm {want}",
                    x.to_bits()
                );
            }
        }
    }
}

/// The port called one element at a time: `black_box` keeps the loop
/// from being vectorised.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
fn scalar_tanh(kernel: Kernel) {
    let Kernel::Tanh { out, x } = kernel else {
        panic!("scalar_tanh runs only Kernel::Tanh");
    };
    for (o, &x) in out.iter_mut().zip(x) {
        *o = kernels::tanh(std::hint::black_box(x));
    }
}

/// The scalar port and every width, on every 4 099th bit pattern and on
/// 4 096 each side of every threshold the port compares against, at both
/// signs: `tanh`'s own, and the inputs whose doubled magnitude lands on
/// one of `expm1`'s.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
fn tanh_port_matches_libm_at_sampled_and_threshold_patterns() {
    const TANH: [u32; 3] = [0x2400_0000, 0x3f80_0000, 0x41b0_0000];
    const EXPM1: [u32; 4] = [0x3300_0000, 0x3eb1_7218, 0x3f85_1592, 0x4195_b844];
    // Halving a float subtracts one from its exponent field.
    let thresholds = TANH.into_iter().chain(EXPM1.map(|t| t - 0x0080_0000));
    let windows =
        thresholds.flat_map(|t| (t - 4096..=t + 4096).flat_map(|bits| [bits, bits | 0x8000_0000]));
    let mut widths = widths();
    widths.push(("scalar", scalar_tanh));
    tanh_matches_libm((0..=u32::MAX).step_by(4099).chain(windows), &widths);
}

/// Every width against libm on all 2^32 bit patterns, split across the
/// cores: the proof that the port keeps every bit. About 2.5 minutes on
/// two cores in release, so CI runs it explicitly.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "all 2^32 inputs; run in release with --ignored"]
fn tanh_port_matches_libm_on_every_f32() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let span = (1u64 << 32).div_ceil(threads);
    let widths = widths();
    std::thread::scope(|s| {
        for lo in (0..1u64 << 32).step_by(span as usize) {
            let hi = (lo + span).min(1 << 32);
            let widths = &widths;
            s.spawn(move || tanh_matches_libm((lo..hi).map(|bits| bits as u32), widths));
        }
    });
}

// ---------------------------------------------------------------------
// Operands that share a storage: a nested guard on one lock would hang.
// ---------------------------------------------------------------------

/// Runs `f` on its own thread and fails, rather than hangs, if it has not
/// finished after ten seconds.
fn finishes<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(std::time::Duration::from_secs(10))
        .expect("kernel deadlocked on operands sharing a storage")
}

#[test]
fn binary_kernels_accept_aliased_operands() {
    let v = values(3, 6, false);
    let want_add = bits(&v.iter().map(|x| x + x).collect::<Vec<_>>());
    let want_mul = bits(&v.iter().map(|x| x * x).collect::<Vec<_>>());
    let (v1, v2) = (v.clone(), v);
    assert_eq!(
        finishes(move || {
            let x = Tensor::from_vec(v1, [2, 3], &dev());
            bits(&x.add(&x).to_vec())
        }),
        want_add
    );
    assert_eq!(
        finishes(move || {
            let x = Tensor::from_vec(v2, [2, 3], &dev());
            bits(&x.mul(&x.t().t()).to_vec())
        }),
        want_mul
    );
    // A strided and a contiguous view of one buffer in one product, both
    // read in place, at a shape with edges at every width: the bits of the
    // product of contiguous copies.
    finishes(move || {
        let x = Tensor::from_vec(values(5, 37 * 70, true), [37, 70], &dev());
        assert_eq!(
            product_bits(&x.matmul(&x.t()).to_vec()),
            product_bits(&matmul_ref(&x, &x.t()))
        );
        let y = x.reshape([1, 37, 70]);
        assert_eq!(
            product_bits(&y.bmm(&y.transpose(1, 2)).to_vec()),
            product_bits(&bmm_ref(&y, &y.transpose(1, 2)))
        );
    });
}

#[test]
fn accumulate_accepts_an_aliased_right_hand_side() {
    let v = values(4, 6, false);
    let want = bits(&v.iter().map(|x| x + x).collect::<Vec<_>>());
    let (v1, v2) = (v.clone(), v);
    assert_eq!(
        finishes(move || {
            let a = Tensor::from_vec(v1, [2, 3], &dev());
            a.accumulate(&a);
            bits(&a.to_vec())
        }),
        want
    );
    assert_eq!(
        finishes(move || {
            let a = Tensor::from_vec(v2, [6], &dev());
            a.accumulate(&a.reshape([6, 1]).reshape([6]));
            bits(&a.to_vec())
        }),
        want
    );
}
