//! Head reshaping and FlashAttention-style fused attention.
//!
//! The fused operator mirrors FlashAttention-2's memory behaviour (paper
//! Section 4.1 uses FlashAttention-2 in all runs): the `S×S` score and
//! probability matrices are *never saved* — only `q`, `k`, `v` go on the
//! graph, and backward recomputes the probabilities. This is what removes
//! the large intermediate tensors that Megatron's selective recomputation
//! targeted (paper Section 4.3).

use crate::graph::{Graph, Op};
use crate::observer::OpCost;
use crate::ops::sym;
use crate::value::Value;
use ssdtrain_tensor::{Prng, Tensor};

// ---------------------------------------------------------------------
// Head permutation
// ---------------------------------------------------------------------

/// Numeric kernel: `[b, s, h]` → `[b*nh, s, h/nh]`.
fn permute_kernel(x: &Tensor, nh: usize) -> Tensor {
    let (b, s, h) = (x.dim(0), x.dim(1), x.dim(2));
    let hd = h / nh;
    if !x.has_data() {
        return Tensor::symbolic([b * nh, s, hd], x.device());
    }
    let out = x.with_values(|v| {
        let mut out = vec![0.0f32; v.len()];
        for bi in 0..b {
            for si in 0..s {
                for ni in 0..nh {
                    let src = (bi * s + si) * h + ni * hd;
                    let dst = ((bi * nh + ni) * s + si) * hd;
                    out[dst..dst + hd].copy_from_slice(&v[src..src + hd]);
                }
            }
        }
        out
    });
    Tensor::from_vec(out, [b * nh, s, hd], x.device())
}

/// Numeric kernel: `[b*nh, s, hd]` → `[b, s, nh*hd]` (inverse of
/// [`permute_kernel`]).
fn unpermute_kernel(x: &Tensor, nh: usize) -> Tensor {
    let (bnh, s, hd) = (x.dim(0), x.dim(1), x.dim(2));
    let b = bnh / nh;
    let h = nh * hd;
    if !x.has_data() {
        return Tensor::symbolic([b, s, h], x.device());
    }
    let out = x.with_values(|v| {
        let mut out = vec![0.0f32; v.len()];
        for bi in 0..b {
            for si in 0..s {
                for ni in 0..nh {
                    let src = ((bi * nh + ni) * s + si) * hd;
                    let dst = (bi * s + si) * h + ni * hd;
                    out[dst..dst + hd].copy_from_slice(&v[src..src + hd]);
                }
            }
        }
        out
    });
    Tensor::from_vec(out, [b, s, h], x.device())
}

struct PermuteHeadsOp {
    nh: usize,
}

impl Op for PermuteHeadsOp {
    fn name(&self) -> &'static str {
        "permute_heads"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &[Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let cost = OpCost::new(0, dy.bytes(), dy.bytes());
        grads_in[0] = Some(unpermute_kernel(dy, self.nh));
        cost
    }
}

struct UnpermuteHeadsOp {
    nh: usize,
}

impl Op for UnpermuteHeadsOp {
    fn name(&self) -> &'static str {
        "unpermute_heads"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &[Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let cost = OpCost::new(0, dy.bytes(), dy.bytes());
        grads_in[0] = Some(permute_kernel(dy, self.nh));
        cost
    }
}

/// Splits `[b, s, h]` into `nh` heads: `[b*nh, s, h/nh]`.
///
/// # Panics
/// Panics if `h` is not divisible by `nh` or the input is not 3-D.
pub fn permute_heads(g: &Graph, x: &Value, nh: usize) -> Value {
    assert_eq!(x.tensor().rank(), 3, "permute_heads expects [b, s, h]");
    assert_eq!(x.tensor().dim(2) % nh, 0, "hidden not divisible by heads");
    let out = permute_kernel(x.tensor(), nh);
    let bytes = x.tensor().bytes();
    g.record(
        Box::new(PermuteHeadsOp { nh }),
        &[x],
        out,
        [],
        OpCost::new(0, bytes, bytes),
    )
}

/// Merges heads back: `[b*nh, s, hd]` → `[b, s, nh*hd]`.
///
/// # Panics
/// Panics if the batch dim is not divisible by `nh` or the input is not
/// 3-D.
pub fn unpermute_heads(g: &Graph, x: &Value, nh: usize) -> Value {
    assert_eq!(
        x.tensor().rank(),
        3,
        "unpermute_heads expects [b*nh, s, hd]"
    );
    assert_eq!(x.tensor().dim(0) % nh, 0, "batch not divisible by heads");
    let out = unpermute_kernel(x.tensor(), nh);
    let bytes = x.tensor().bytes();
    g.record(
        Box::new(UnpermuteHeadsOp { nh }),
        &[x],
        out,
        [],
        OpCost::new(0, bytes, bytes),
    )
}

// ---------------------------------------------------------------------
// transpose of dims 1 and 2 (for unfused attention scores)
// ---------------------------------------------------------------------

struct Transpose12Op;

impl Op for Transpose12Op {
    fn name(&self) -> &'static str {
        "transpose_12"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &[Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let cost = OpCost::new(0, dy.bytes(), dy.bytes());
        grads_in[0] = Some(transpose12_kernel(dy));
        cost
    }
}

fn transpose12_kernel(x: &Tensor) -> Tensor {
    if !x.has_data() {
        let (a, b, c) = (x.dim(0), x.dim(1), x.dim(2));
        return Tensor::symbolic([a, c, b], x.device());
    }
    x.transpose(1, 2).contiguous()
}

/// Materialised transpose of dimensions 1 and 2 of a 3-D tensor (the
/// `k^T` of unfused attention).
///
/// # Panics
/// Panics if the input is not 3-D.
pub fn transpose_12(g: &Graph, x: &Value) -> Value {
    assert_eq!(x.tensor().rank(), 3, "transpose_12 expects a 3-D tensor");
    let out = transpose12_kernel(x.tensor());
    let bytes = x.tensor().bytes();
    g.record(
        Box::new(Transpose12Op),
        &[x],
        out,
        [],
        OpCost::new(0, bytes, bytes),
    )
}

// ---------------------------------------------------------------------
// Fused (flash) attention
// ---------------------------------------------------------------------

/// Reference attention math shared by forward and the recompute in
/// backward. Returns `(probs_after_dropout, context)`.
fn attention_reference(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    causal: bool,
    dropout_p: f32,
    rng: &mut Option<Prng>,
) -> (Tensor, Tensor) {
    let d = q.dim(2);
    let scale = 1.0 / (d as f32).sqrt();
    let scores = q.bmm(&k.transpose(1, 2)).scale(scale);
    let scores = if causal {
        scores.apply_causal_mask()
    } else {
        scores
    };
    let probs = scores.softmax_last();
    let probs = match (dropout_p > 0.0, rng.as_mut()) {
        (true, Some(r)) => probs.dropout(dropout_p, r).0,
        _ => probs,
    };
    let ctx = probs.bmm(v);
    (probs, ctx)
}

struct FlashAttentionOp {
    causal: bool,
    dropout_p: f32,
    /// RNG state snapshot taken before forward consumed randomness, so the
    /// backward recomputation reproduces the identical dropout mask —
    /// exactly how FlashAttention replays its philox state.
    rng: Option<Prng>,
}

impl Op for FlashAttentionOp {
    fn name(&self) -> &'static str {
        "flash_attention"
    }
    fn backward(
        &self,
        g: &Graph,
        saved: &[Tensor],
        grads: &[Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dctx = super::out_grad(grads);
        let (q, k, v) = (&saved[0], &saved[1], &saved[2]);
        let (t, s, d) = (q.dim(0), q.dim(1), q.dim(2));
        let flops = 10 * (t * s * s * d) as u64;
        let cost = OpCost::new(flops, 3 * q.bytes() + dctx.bytes(), 3 * q.bytes());
        if !q.has_data() || !k.has_data() || !v.has_data() || !dctx.has_data() {
            grads_in[0] = Some(sym(*q.shape(), g.device()));
            grads_in[1] = Some(sym(*k.shape(), g.device()));
            grads_in[2] = Some(sym(*v.shape(), g.device()));
            return cost;
        }
        // Recompute the pre-dropout probabilities (never materialised on
        // the graph), then replay the draw forward made on them after
        // softmax: the snapshot yields the identical mask.
        let (pre_probs, _ctx) = attention_reference(q, k, v, self.causal, 0.0, &mut None);
        let (probs, mask) = match self.rng.clone() {
            Some(mut r) if self.dropout_p > 0.0 => {
                let (dropped, mask) = pre_probs.dropout(self.dropout_p, &mut r);
                (dropped, Some(mask))
            }
            _ => (pre_probs.clone(), None),
        };
        let scale = 1.0 / (d as f32).sqrt();

        // dv = probs^T @ dctx
        let dv = probs.transpose(1, 2).bmm(dctx);
        // dprobs = dctx @ v^T
        let dprobs = dctx.bmm(&v.transpose(1, 2));
        // For inverted dropout, probs = mask .* softmax / (1 - p), so
        // d softmax = dprobs .* mask / (1 - p); the softmax jacobian uses
        // the *pre-dropout* probabilities.
        let dprobs = match &mask {
            Some(mask) => dprobs.mul(mask).scale(1.0 / (1.0 - self.dropout_p)),
            None => dprobs,
        };
        let dprobs = pre_probs.softmax_grad(&dprobs);
        // Through the causal mask: masked entries have probs 0 and the
        // softmax backward already zeroes them.
        let dscores = dprobs.scale(scale);
        // dq = dscores @ k ; dk = dscores^T @ q
        let dq = dscores.bmm(k);
        let dk = dscores.transpose(1, 2).bmm(q);
        grads_in[0] = Some(dq);
        grads_in[1] = Some(dk);
        grads_in[2] = Some(dv);
        cost
    }
}

/// Fused scaled-dot-product attention over `[b*nh, s, hd]` tensors.
///
/// Saves only `q`, `k`, `v` — the quadratic score/probability tensors are
/// recomputed in backward, reproducing FlashAttention's activation
/// footprint.
///
/// # Panics
/// Panics if operand shapes disagree.
pub fn flash_attention(
    g: &Graph,
    q: &Value,
    k: &Value,
    v: &Value,
    causal: bool,
    dropout_p: f32,
) -> Value {
    assert_eq!(q.dims(), k.dims(), "q/k shape mismatch");
    assert_eq!(q.dims(), v.dims(), "q/v shape mismatch");
    let (t, s, d) = (q.tensor().dim(0), q.tensor().dim(1), q.tensor().dim(2));
    let numeric = q.tensor().has_data() && k.tensor().has_data() && v.tensor().has_data();
    let mut rng_snapshot = if dropout_p > 0.0 {
        Some(g.rng_snapshot())
    } else {
        None
    };
    let ctx = if numeric {
        let mut rng = rng_snapshot.clone();
        let (_probs, ctx) = attention_reference(
            q.tensor(),
            k.tensor(),
            v.tensor(),
            causal,
            dropout_p,
            &mut rng,
        );
        // Forward consumed randomness: advance the graph RNG to match.
        if let Some(r) = rng {
            g.set_rng(r);
        }
        ctx
    } else {
        // Shape-only path still burns the snapshot for determinism.
        rng_snapshot = rng_snapshot.take();
        sym([t, s, d], g.device())
    };
    let flops = 4 * (t * s * s * d) as u64;
    let cost = OpCost::new(flops, 3 * q.tensor().bytes(), ctx.bytes());
    g.record(
        Box::new(FlashAttentionOp {
            causal,
            dropout_p,
            rng: rng_snapshot,
        }),
        &[q, k, v],
        ctx,
        [q.tensor().clone(), k.tensor().clone(), v.tensor().clone()],
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, mean_all};
    use crate::var::Var;
    use ssdtrain_tensor::Device;

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
    fn permute_then_unpermute_is_identity() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let x = g.constant(Tensor::from_vec(
            (0..24).map(|i| i as f32).collect(),
            [2, 3, 4],
            &d,
        ));
        let p = permute_heads(&g, &x, 2);
        assert_eq!(p.dims(), &[4, 3, 2]);
        let u = unpermute_heads(&g, &p, 2);
        assert_eq!(u.tensor().to_vec(), x.tensor().to_vec());
    }

    #[test]
    fn permute_places_head_slices() {
        let d = dev();
        let g = Graph::new(&d, 1);
        // b=1, s=2, h=4, nh=2: token0 = [0,1,2,3], token1 = [4,5,6,7]
        let x = g.constant(Tensor::from_vec(
            (0..8).map(|i| i as f32).collect(),
            [1, 2, 4],
            &d,
        ));
        let p = permute_heads(&g, &x, 2);
        // head0: [[0,1],[4,5]]; head1: [[2,3],[6,7]]
        assert_eq!(p.tensor().to_vec(), vec![0., 1., 4., 5., 2., 3., 6., 7.]);
    }

    #[test]
    fn fused_attention_matches_unfused_ops() {
        let d = dev();
        let mut rng = ssdtrain_tensor::Prng::seed_from_u64(5);
        let q0 = Tensor::randn([2, 3, 4], 0.5, &mut rng, &d);
        let k0 = Tensor::randn([2, 3, 4], 0.5, &mut rng, &d);
        let v0 = Tensor::randn([2, 3, 4], 0.5, &mut rng, &d);

        // Fused path.
        let g1 = Graph::new(&d, 1);
        let fused = flash_attention(
            &g1,
            &g1.constant(q0.clone()),
            &g1.constant(k0.clone()),
            &g1.constant(v0.clone()),
            true,
            0.0,
        );

        // Unfused path.
        let g2 = Graph::new(&d, 1);
        let q = g2.constant(q0.clone());
        let k = g2.constant(k0.clone());
        let v = g2.constant(v0.clone());
        let scale = 1.0 / (4.0f32).sqrt();
        let scores = ops::scale(&g2, &ops::bmm(&g2, &q, &k_t(&g2, &k)), scale);
        let masked = ops::apply_causal_mask(&g2, &scores);
        let probs = ops::softmax_last(&g2, &masked);
        let unfused = ops::bmm(&g2, &probs, &v);

        assert_close(&fused.tensor().to_vec(), &unfused.tensor().to_vec(), 1e-5);
    }

    /// Transposes k's last two dims via a constant (test helper only).
    fn k_t(g: &Graph, k: &Value) -> Value {
        g.constant(k.tensor().transpose(1, 2).contiguous())
    }

    #[test]
    fn fused_attention_gradients_match_finite_difference() {
        let d = dev();
        let init: Vec<f32> = vec![
            0.3, -0.2, 0.5, 0.1, -0.4, 0.7, 0.2, -0.1, 0.6, -0.3, 0.4, 0.0,
        ];
        let shape = [1, 2, 2];
        let kv: Vec<f32> = (0..4).map(|i| 0.1 * i as f32).collect();
        let vv: Vec<f32> = (0..4).map(|i| 0.2 - 0.1 * i as f32).collect();

        let q = Var::new("q", Tensor::from_vec(init[..4].to_vec(), shape, &d));
        let g = Graph::new(&d, 1);
        let kc = g.constant(Tensor::from_vec(kv.clone(), shape, &d));
        let vc = g.constant(Tensor::from_vec(vv.clone(), shape, &d));
        let ctx = flash_attention(&g, &g.leaf(&q), &kc, &vc, true, 0.0);
        let loss = mean_all(&g, &ctx);
        g.backward(&loss);
        let analytic = q.grad().unwrap().to_vec();

        let eps = 1e-2f32;
        for e in 0..4 {
            let eval = |delta: f32| -> f32 {
                let mut qv = init[..4].to_vec();
                qv[e] += delta;
                let g2 = Graph::new(&d, 1);
                let ctx = flash_attention(
                    &g2,
                    &g2.constant(Tensor::from_vec(qv, shape, &d)),
                    &g2.constant(Tensor::from_vec(kv.clone(), shape, &d)),
                    &g2.constant(Tensor::from_vec(vv.clone(), shape, &d)),
                    true,
                    0.0,
                );
                mean_all(&g2, &ctx).tensor().item()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                (fd - analytic[e]).abs() < 2e-3,
                "elem {e}: {fd} vs {}",
                analytic[e]
            );
        }
    }

    #[test]
    fn attention_dropout_is_replayed_identically_in_backward() {
        // With dropout active, running backward twice from the same saved
        // state must produce identical gradients (mask replay).
        let d = dev();
        let mk = || {
            let g = Graph::new(&d, 99);
            let q = Var::new("q", Tensor::ones([1, 4, 2], &d));
            let kc = g.constant(Tensor::ones([1, 4, 2], &d));
            let vc = g.constant(Tensor::ones([1, 4, 2], &d));
            let ctx = flash_attention(&g, &g.leaf(&q), &kc, &vc, false, 0.3);
            let loss = mean_all(&g, &ctx);
            g.backward(&loss);
            q.grad().unwrap().to_vec()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn fused_attention_saves_only_qkv() {
        use crate::hooks::{Packed, SavedTensorHooks};
        use parking_lot::Mutex;
        use std::sync::Arc;

        #[derive(Default)]
        struct CountBytes(Mutex<u64>);
        impl SavedTensorHooks for CountBytes {
            fn pack(&self, t: &Tensor) -> Packed {
                *self.0.lock() += t.bytes();
                Packed::Tensor(t.clone())
            }
            fn unpack(&self, p: &Packed) -> Tensor {
                match p {
                    Packed::Tensor(t) => t.clone(),
                    _ => unreachable!(),
                }
            }
        }

        let d = dev();
        let g = Graph::new(&d, 1);
        let counter = Arc::new(CountBytes::default());
        g.set_saved_tensor_hooks(counter.clone());
        let s = 8;
        let q = g.constant(Tensor::zeros([2, s, 4], &d));
        let k = g.constant(Tensor::zeros([2, s, 4], &d));
        let v = g.constant(Tensor::zeros([2, s, 4], &d));
        let _ctx = flash_attention(&g, &q, &k, &v, true, 0.0);
        // Saved bytes must be exactly 3 * |q| (no S×S probabilities).
        assert_eq!(*counter.0.lock(), 3 * q.tensor().bytes());
    }

    #[test]
    fn symbolic_attention_propagates_shapes() {
        let d = Device::symbolic();
        let g = Graph::new(&d, 1);
        let q = Var::new("q", Tensor::zeros([4, 16, 8], &d));
        let k = g.constant(Tensor::zeros([4, 16, 8], &d));
        let v = g.constant(Tensor::zeros([4, 16, 8], &d));
        let ctx = flash_attention(&g, &g.leaf(&q), &k, &v, true, 0.1);
        assert_eq!(ctx.dims(), &[4, 16, 8]);
        let loss = mean_all(&g, &ctx);
        g.backward(&loss);
        assert_eq!(q.grad().unwrap().dims(), &[4, 16, 8]);
    }
}
