//! The copy-based kernels this crate shipped before its kernels started
//! borrowing their operands, kept as the reference the borrowed ones must
//! match bit for bit — over contiguous, transposed and reshaped views, and
//! over operands that share a storage.

use crate::device::Device;
use crate::kernels::{gelu_grad_scalar, gelu_scalar};
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

fn matmul_ref(lhs: &Tensor, rhs: &Tensor) -> Vec<f32> {
    let (m, k) = lhs.shape().as_2d();
    let n = rhs.dim(1);
    let a = lhs.contiguous().to_vec();
    let b = rhs.to_vec();
    let mut out = vec![0.0f32; m * n];
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
    out
}

fn bmm_ref(lhs: &Tensor, rhs: &Tensor) -> Vec<f32> {
    let (bt, m, k) = (lhs.dim(0), lhs.dim(1), lhs.dim(2));
    let n = rhs.dim(2);
    let a = lhs.contiguous().to_vec();
    let b = rhs.contiguous().to_vec();
    let mut out = vec![0.0f32; bt * m * n];
    for t in 0..bt {
        let abase = t * m * k;
        let bbase = t * k * n;
        let obase = t * m * n;
        for i in 0..m {
            for p in 0..k {
                let av = a[abase + i * k + p];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[bbase + p * n..bbase + (p + 1) * n];
                let orow = &mut out[obase + i * n..obase + (i + 1) * n];
                for j in 0..n {
                    orow[j] += av * brow[j];
                }
            }
        }
    }
    out
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
            prop_assert_eq!(bits(&a.gelu().to_vec()), bits(&zip_ref(&a, &a, |x, _| gelu_scalar(x))));
            prop_assert_eq!(
                bits(&a.gelu_grad().to_vec()),
                bits(&zip_ref(&a, &a, |x, _| gelu_grad_scalar(x)))
            );
            prop_assert_eq!(a.sum_all().item().to_bits(), a.to_vec().iter().sum::<f32>().to_bits());
            prop_assert_eq!(bits(&a.sum_leading().to_vec()), bits(&sum_leading_ref(&a)));
            prop_assert_eq!(bits(&a.add_bias(&bias).to_vec()), bits(&add_bias_ref(&a, &bias)));
            for b in layouts(&bv, &[r, c]) {
                prop_assert_eq!(bits(&a.add(&b).to_vec()), bits(&zip_ref(&a, &b, |x, y| x + y)));
                prop_assert_eq!(bits(&a.sub(&b).to_vec()), bits(&zip_ref(&a, &b, |x, y| x - y)));
                prop_assert_eq!(bits(&a.mul(&b).to_vec()), bits(&zip_ref(&a, &b, |x, y| x * y)));
                let acc = Tensor::from_vec(av.clone(), [r, c], &dev());
                acc.accumulate(&b);
                prop_assert_eq!(bits(&acc.to_vec()), bits(&zip_ref(&a, &b, |x, y| x + y)));
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
            let (d, mask) = x.dropout(0.3, &mut Prng::seed_from_u64(seed));
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
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (av, bv) = (values(seed, bt * m * k, true), values(seed + 1, bt * k * n, true));
        for a in layouts(&av, &[bt, m, k]) {
            for b in layouts(&bv, &[bt, k, n]) {
                prop_assert_eq!(bits(&a.bmm(&b).to_vec()), bits(&bmm_ref(&a, &b)));
            }
            // matmul flattens the leading dims of its left operand.
            for w in layouts(&bv[..k * n], &[k, n]) {
                prop_assert_eq!(bits(&a.matmul(&w).to_vec()), bits(&matmul_ref(&a, &w)));
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
    let (v1, v2) = (v.clone(), v.clone());
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
    // A strided and a contiguous view of one buffer in one product.
    finishes(move || {
        let x = Tensor::from_vec(v, [2, 3], &dev());
        assert_eq!(
            bits(&x.matmul(&x.t()).to_vec()),
            bits(&matmul_ref(&x, &x.t()))
        );
        let y = x.reshape([1, 2, 3]);
        assert_eq!(
            bits(&y.bmm(&y.transpose(1, 2)).to_vec()),
            bits(&bmm_ref(&y, &y.transpose(1, 2)))
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
