//! Property-based tests of the numeric kernels: algebraic identities
//! that must hold for any input, independent of shapes.

use proptest::prelude::*;
use ssdtrain_tensor::{Device, Prng, Tensor};

fn dev() -> Device {
    Device::cpu()
}

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

fn rand_tensor(dims: &[usize], seed: u64, scale: f32) -> Tensor {
    let mut rng = Prng::seed_from_u64(seed);
    Tensor::randn(dims, scale, &mut rng, &dev())
}

proptest! {
    #[test]
    fn matmul_identity_is_identity(
        m in 1usize..6,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let a = rand_tensor(&[m, k], seed, 1.0);
        let y = a.matmul(&Tensor::eye(k, &dev()));
        prop_assert!(close(&y.to_vec(), &a.to_vec(), 1e-5));
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
        seed in 0u64..1000,
    ) {
        let a = rand_tensor(&[m, k], seed, 0.5);
        let w1 = rand_tensor(&[k, n], seed + 1, 0.5);
        let w2 = rand_tensor(&[k, n], seed + 2, 0.5);
        let lhs = a.matmul(&w1.add(&w2));
        let rhs = a.matmul(&w1).add(&a.matmul(&w2));
        prop_assert!(close(&lhs.to_vec(), &rhs.to_vec(), 1e-4));
    }

    #[test]
    fn transpose_matmul_agrees_with_materialised(
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
        seed in 0u64..1000,
    ) {
        // Reading a transposed weight through its strides must equal
        // multiplying by the materialised transpose.
        let a = rand_tensor(&[m, k], seed, 0.5);
        let w = rand_tensor(&[n, k], seed + 3, 0.5);
        let via_view = a.matmul(&w.t());
        let via_copy = a.matmul(&w.t().contiguous());
        prop_assert!(close(&via_view.to_vec(), &via_copy.to_vec(), 1e-5));
    }

    #[test]
    fn softmax_is_shift_invariant(
        rows in 1usize..4,
        cols in 1usize..6,
        shift in -50.0f32..50.0,
        seed in 0u64..1000,
    ) {
        let x = rand_tensor(&[rows, cols], seed, 2.0);
        let shifted = x.scale(1.0).add(&Tensor::full([rows, cols], shift, &dev()));
        let a = x.softmax_last().to_vec();
        let b = shifted.softmax_last().to_vec();
        prop_assert!(close(&a, &b, 1e-4), "{a:?} vs {b:?}");
    }

    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..4,
        cols in 1usize..8,
        seed in 0u64..1000,
    ) {
        let y = rand_tensor(&[rows, cols], seed, 3.0).softmax_last().to_vec();
        for r in 0..rows {
            let row = &y[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|p| (0.0..=1.0).contains(p)));
        }
    }

    #[test]
    fn layernorm_is_scale_invariant(
        rows in 1usize..4,
        cols in 2usize..8,
        factor in 0.5f32..4.0,
        seed in 0u64..1000,
    ) {
        // LayerNorm(x) == LayerNorm(c·x) for positive c (mean and std
        // both scale by c) — up to the eps regulariser, so rows whose
        // variance is within a few orders of magnitude of eps are
        // excluded from the property's domain.
        let x = rand_tensor(&[rows, cols], seed, 1.0);
        let v = x.to_vec();
        for r in 0..rows {
            let row = &v[r * cols..(r + 1) * cols];
            let mean: f32 = row.iter().sum::<f32>() / cols as f32;
            let var: f32 =
                row.iter().map(|e| (e - mean) * (e - mean)).sum::<f32>() / cols as f32;
            prop_assume!(var > 1e-2);
        }
        let g = Tensor::ones([cols], &dev());
        let b = Tensor::zeros([cols], &dev());
        let (y1, _, _) = x.layernorm(&g, &b, 1e-6);
        let (y2, _, _) = x.scale(factor).layernorm(&g, &b, 1e-6);
        prop_assert!(close(&y1.to_vec(), &y2.to_vec(), 1e-2));
    }

    #[test]
    fn dropout_mask_reconstructs_output(
        n in 1usize..64,
        p in 0.0f32..0.9,
        seed in 0u64..1000,
    ) {
        let x = rand_tensor(&[n], seed, 1.0);
        let mut rng = Prng::seed_from_u64(seed);
        let (y, mask) = x.clone().dropout(p, &mut rng);
        let scale = if p > 0.0 { 1.0 / (1.0 - p) } else { 1.0 };
        let recon = x.mul(&mask).scale(scale);
        prop_assert!(close(&y.to_vec(), &recon.to_vec(), 1e-5));
        // The mask is strictly 0/1.
        prop_assert!(mask.to_vec().iter().all(|m| *m == 0.0 || *m == 1.0));
    }

    #[test]
    fn embedding_rows_match_table(
        vocab in 1usize..8,
        hidden in 1usize..6,
        seed in 0u64..1000,
    ) {
        let table = rand_tensor(&[vocab, hidden], seed, 1.0);
        let tv = table.to_vec();
        let mut rng = Prng::seed_from_u64(seed + 7);
        let ids: Vec<f32> = (0..4).map(|_| rng.next_below(vocab as u64) as f32).collect();
        let out = table
            .embedding(&Tensor::from_vec(ids.clone(), [4], &dev()))
            .to_vec();
        for (row, id) in ids.iter().enumerate() {
            let want = &tv[*id as usize * hidden..(*id as usize + 1) * hidden];
            prop_assert!(close(&out[row * hidden..(row + 1) * hidden], want, 0.0));
        }
    }

    #[test]
    fn sum_leading_equals_manual_reduction(
        rows in 1usize..6,
        cols in 1usize..6,
        seed in 0u64..1000,
    ) {
        let x = rand_tensor(&[rows, cols], seed, 1.0);
        let v = x.to_vec();
        let got = x.sum_leading().to_vec();
        for c in 0..cols {
            let want: f32 = (0..rows).map(|r| v[r * cols + c]).sum();
            prop_assert!((got[c] - want).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative_and_bounded(
        rows in 1usize..4,
        vocab in 2usize..8,
        seed in 0u64..1000,
    ) {
        let logits = rand_tensor(&[rows, vocab], seed, 2.0);
        let mut rng = Prng::seed_from_u64(seed + 13);
        let targets: Vec<f32> = (0..rows)
            .map(|_| rng.next_below(vocab as u64) as f32)
            .collect();
        let (loss, probs) = logits.cross_entropy(&Tensor::from_vec(targets, [rows], &dev()));
        let l = loss.item();
        prop_assert!(l >= 0.0, "{l}");
        prop_assert!(l.is_finite());
        // Probabilities used for the loss are a valid softmax.
        let pv = probs.to_vec();
        for r in 0..rows {
            let sum: f32 = pv[r * vocab..(r + 1) * vocab].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
        }
    }
}
