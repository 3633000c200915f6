//! Head reshaping and FlashAttention-style fused attention.
//!
//! The fused operator mirrors FlashAttention-2's memory behaviour (paper
//! Section 4.1 uses FlashAttention-2 in all runs): the `S×S` score and
//! probability matrices are *never saved* — only `q`, `k`, `v` go on the
//! graph, and backward recomputes the probabilities. This is what removes
//! the large intermediate tensors that Megatron's selective recomputation
//! targeted (paper Section 4.3). Nor are they ever built: both directions
//! work one query row at a time, so the op allocates at most the tensors
//! it returns: backward writes `dq` over the output gradient it consumes,
//! and the `O(s·d)` row scratch comes from the tensor crate's pool.

use crate::graph::{Graph, Op};
use crate::observer::OpCost;
use crate::ops::{all_numeric, sym};
use crate::value::Value;
use ssdtrain_tensor::{Prng, Tensor};

// ---------------------------------------------------------------------
// Head permutation
// ---------------------------------------------------------------------

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
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad_mut(grads);
        let cost = OpCost::new(0, dy.bytes(), dy.bytes());
        grads_in[0] = Some(dy.merge_heads(self.nh));
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
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad_mut(grads);
        let cost = OpCost::new(0, dy.bytes(), dy.bytes());
        grads_in[0] = Some(dy.split_heads(self.nh));
        cost
    }
}

/// Splits `[b, s, h]` into `nh` heads: `[b*nh, s, h/nh]`. Consumes `x`:
/// the heads are written into its buffer when it owns its storage
/// ([`Tensor::split_heads`]).
///
/// # Panics
/// Panics if `h` is not divisible by `nh` or the input is not 3-D.
pub fn permute_heads(g: &Graph, mut x: Value, nh: usize) -> Value {
    assert_eq!(x.tensor().rank(), 3, "permute_heads expects [b, s, h]");
    assert_eq!(x.tensor().dim(2) % nh, 0, "hidden not divisible by heads");
    let out = x.tensor_mut().split_heads(nh);
    let bytes = x.tensor().bytes();
    g.record(
        PermuteHeadsOp { nh },
        &[&x],
        out,
        [],
        OpCost::new(0, bytes, bytes),
    )
}

/// Merges heads back: `[b*nh, s, hd]` → `[b, s, nh*hd]`. Unlike
/// [`permute_heads`] it leaves `x` as it was: attention's context lives
/// on past the merge, to the end of the block.
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
    let out = x.tensor().clone().merge_heads(nh);
    let bytes = x.tensor().bytes();
    g.record(
        UnpermuteHeadsOp { nh },
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
        grads: &mut [Option<Tensor>],
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
    g.record(Transpose12Op, &[x], out, [], OpCost::new(0, bytes, bytes))
}

// ---------------------------------------------------------------------
// Fused (flash) attention
// ---------------------------------------------------------------------

/// `out += a · x` over a unit-stride row, skipped when `a` is exactly
/// zero: one term of the kernels' matrix-product accumulation, so a row
/// summed from these in ascending inner index is bit-identical to
/// [`Tensor::bmm`]'s.
fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    if a == 0.0 {
        return;
    }
    for (o, &xv) in out.iter_mut().zip(x) {
        *o += a * xv;
    }
}

/// Writes the row-major `[s, d]` matrix `m` transposed into `out`
/// (`[d, s]`), so a query row's scores are `d` axpys over rows of `out`.
fn transpose_into(out: &mut [f32], m: &[f32], s: usize, d: usize) {
    for j in 0..s {
        for p in 0..d {
            out[p * s + j] = m[j * d + p];
        }
    }
}

/// Query row `i`'s attention probabilities before dropout, into `row`
/// (`s` wide): `softmax(mask(scale · q_i Kᵀ))` with `kt` holding `Kᵀ`.
/// Each unmasked element goes through the operations [`Tensor::bmm`],
/// [`Tensor::scale`] and [`Tensor::softmax_last`] apply to it over the
/// whole `S×S` matrix, in the same order. A causal row skips the columns
/// [`Tensor::apply_causal_mask`] sets to `-inf`: they leave the row's max
/// as it is, add `exp(-inf) = 0` to its sum, and come out as `0`, which
/// is what this writes (a row whose unmasked scores are all NaN or `-inf`
/// is NaN either way).
fn probs_row(row: &mut [f32], qi: &[f32], kt: &[f32], scale: f32, i: usize, causal: bool) {
    let s = row.len();
    let cols = if causal { i + 1 } else { s };
    row.fill(0.0);
    let (row, _masked) = row.split_at_mut(cols);
    for (&a, ktp) in qi.iter().zip(kt.chunks_exact(s)) {
        axpy(row, a, &ktp[..cols]);
    }
    let max = row
        .iter_mut()
        .map(|x| {
            *x *= scale;
            *x
        })
        .fold(f32::NEG_INFINITY, f32::max);
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

/// Attention dropout's draws: the generator and the drop probability
/// `p`. Rows draw in row-major order, one draw per probability, as
/// [`Tensor::dropout`] does over the whole `S×S` matrix.
struct Draws<'a> {
    rng: &'a mut Prng,
    p: f32,
}

/// The probability row the context and `dv` read: `pre` itself without
/// dropout, else its inverted-dropout survivors, written to `dropped`
/// after drawing the row's keep decisions into `mask` (`1` kept, `0`
/// dropped).
fn dropout_row<'r>(
    draws: Option<&mut Draws<'_>>,
    pre: &'r [f32],
    mask: &mut [f32],
    dropped: &'r mut [f32],
) -> &'r [f32] {
    let Some(draws) = draws else {
        return pre;
    };
    let keep = 1.0 - draws.p;
    let scale = 1.0 / keep;
    for ((&x, m), y) in pre.iter().zip(mask.iter_mut()).zip(dropped.iter_mut()) {
        let kept = draws.rng.next_f32() < keep;
        *m = if kept { 1.0 } else { 0.0 };
        *y = if kept { x * scale } else { 0.0 };
    }
    dropped
}

/// Fused attention forward over row-major `[t, s, d]` operands: the
/// context, computed one query row at a time. Allocates the context; its
/// `O(s·d)` row scratch comes from the tensor crate's pool
/// ([`Tensor::with_scratch`]), never an `S×S` matrix.
fn attention_forward(
    [q, k, v]: [&[f32]; 3],
    [t, s, d]: [usize; 3],
    causal: bool,
    mut draws: Option<Draws<'_>>,
) -> Vec<f32> {
    let scale = 1.0 / (d as f32).sqrt();
    let mut ctx = vec![0.0f32; t * s * d];
    Tensor::with_scratch(s * d + 3 * s, |scratch| {
        let (kt, rows) = scratch.split_at_mut(s * d);
        let (pre, rows) = rows.split_at_mut(s);
        let (mask, dropped) = rows.split_at_mut(s);
        for b in 0..t {
            let at = b * s * d;
            let (kb, vb) = (&k[at..][..s * d], &v[at..][..s * d]);
            transpose_into(kt, kb, s, d);
            for i in 0..s {
                let row = at + i * d;
                probs_row(pre, &q[row..][..d], kt, scale, i, causal);
                let probs = dropout_row(draws.as_mut(), pre, mask, dropped);
                let ci = &mut ctx[row..][..d];
                for (&pj, vj) in probs.iter().zip(vb.chunks_exact(d)) {
                    axpy(ci, pj, vj);
                }
            }
        }
    });
    ctx
}

/// Fused attention backward: `dk` and `dv` for the output gradient
/// `dctx`, and `dq` written over `dctx`. Recomputes each query row's
/// probabilities, replays that row's dropout draws, and accumulates the
/// three gradients row by row; every element sees the operations of the
/// unfused backward (`dv = Pᵀ dctx`, `dP = dctx Vᵀ` through the dropout
/// mask and the softmax jacobian, `dq = dS K`, `dk = dSᵀ q`) in the same
/// order. Row `i` of `dctx` is last read by the `dv` update and `dP`;
/// then it is zeroed and `dq`'s row `i` accumulated into it. Allocates
/// `dk` and `dv`; the `O(s·d)` row scratch comes from the tensor crate's
/// pool ([`Tensor::with_scratch`]).
fn attention_backward(
    [q, k, v]: [&[f32]; 3],
    dctx: &mut [f32],
    [t, s, d]: [usize; 3],
    causal: bool,
    mut draws: Option<Draws<'_>>,
) -> [Vec<f32>; 2] {
    let scale = 1.0 / (d as f32).sqrt();
    let mut dk = vec![0.0f32; t * s * d];
    let mut dv = vec![0.0f32; t * s * d];
    Tensor::with_scratch(2 * s * d + 4 * s, |scratch| {
        let (kt, rows) = scratch.split_at_mut(s * d);
        let (vt, rows) = rows.split_at_mut(s * d);
        let (pre, rows) = rows.split_at_mut(s);
        let (mask, rows) = rows.split_at_mut(s);
        let (dropped, dp) = rows.split_at_mut(s);
        for b in 0..t {
            let at = b * s * d;
            let kb = &k[at..][..s * d];
            transpose_into(kt, kb, s, d);
            transpose_into(vt, &v[at..][..s * d], s, d);
            let (dkb, dvb) = (&mut dk[at..][..s * d], &mut dv[at..][..s * d]);
            for i in 0..s {
                let row = at + i * d;
                let (qi, dci) = (&q[row..][..d], &dctx[row..][..d]);
                probs_row(pre, qi, kt, scale, i, causal);
                let probs = dropout_row(draws.as_mut(), pre, mask, dropped);
                for (&pj, dvj) in probs.iter().zip(dvb.chunks_exact_mut(d)) {
                    axpy(dvj, pj, dci);
                }
                dp.fill(0.0);
                for (&a, vtp) in dci.iter().zip(vt.chunks_exact(s)) {
                    axpy(dp, a, vtp);
                }
                // Inverted dropout's backward: the mask, then the survivor
                // rescale; the softmax jacobian uses the pre-dropout row.
                if let Some(draws) = &draws {
                    let inv_keep = 1.0 / (1.0 - draws.p);
                    for (x, &m) in dp.iter_mut().zip(&*mask) {
                        *x = *x * m * inv_keep;
                    }
                }
                let dot: f32 = pre.iter().zip(&*dp).map(|(a, b)| a * b).sum();
                for (x, &y) in dp.iter_mut().zip(&*pre) {
                    *x = y * (*x - dot) * scale;
                }
                // The row's `dctx` is read: its `dq` goes in its place.
                let dqi = &mut dctx[row..][..d];
                dqi.fill(0.0);
                for ((&ds, kj), dkj) in dp
                    .iter()
                    .zip(kb.chunks_exact(d))
                    .zip(dkb.chunks_exact_mut(d))
                {
                    axpy(dqi, ds, kj);
                    axpy(dkj, ds, qi);
                }
            }
        }
    });
    [dk, dv]
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
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dctx = super::out_grad_mut(grads);
        let (q, k, v) = (&saved[0], &saved[1], &saved[2]);
        let (t, s, d) = (q.dim(0), q.dim(1), q.dim(2));
        let flops = 10 * (t * s * s * d) as u64;
        let cost = OpCost::new(flops, 3 * q.bytes() + dctx.bytes(), 3 * q.bytes());
        if !all_numeric(&[q, k, v, dctx]) {
            grads_in[0] = Some(sym(*q.shape(), g.device()));
            grads_in[1] = Some(sym(*k.shape(), g.device()));
            grads_in[2] = Some(sym(*v.shape(), g.device()));
            return cost;
        }
        // Replay forward's draws from the snapshot: the identical mask.
        let mut rng = self.rng.clone();
        let draws = rng.as_mut().map(|rng| Draws {
            rng,
            p: self.dropout_p,
        });
        // `dctx` dies with the node: `dq` is written over its buffer.
        let mut dq = dctx.take_buffer();
        let [dk, dv] = Tensor::with_values_of([q, k, v], |operands| {
            attention_backward(operands, &mut dq, [t, s, d], self.causal, draws)
        });
        for (slot, grad) in grads_in.iter_mut().zip([dq, dk, dv]) {
            *slot = Some(Tensor::from_vec(grad, [t, s, d], q.device()));
        }
        cost
    }
}

/// Fused scaled-dot-product attention over `[b*nh, s, hd]` tensors.
///
/// Saves only `q`, `k`, `v`, and neither direction materialises the
/// quadratic score or probability matrix: forward computes the context
/// one query row at a time and backward recomputes each row's
/// probabilities, reproducing FlashAttention's activation footprint. The
/// results are bit-identical to the unfused kernel chain.
///
/// # Panics
/// Panics if operand shapes disagree, or if the operands carry data and
/// the head dim is 0 or `dropout_p >= 1`.
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
    let rng_snapshot = (dropout_p > 0.0).then(|| g.rng_snapshot());
    let ctx = if all_numeric(&[q.tensor(), k.tensor(), v.tensor()]) {
        assert!(d > 0, "flash_attention needs a nonzero head dim");
        assert!(dropout_p < 1.0, "dropout p must be in [0, 1)");
        let mut rng = rng_snapshot.clone();
        let draws = rng.as_mut().map(|rng| Draws { rng, p: dropout_p });
        let ctx = Tensor::with_values_of([q.tensor(), k.tensor(), v.tensor()], |operands| {
            attention_forward(operands, [t, s, d], causal, draws)
        });
        // Forward consumed randomness: advance the graph RNG to match.
        if let Some(r) = rng {
            g.set_rng(r);
        }
        Tensor::from_vec(ctx, [t, s, d], q.tensor().device())
    } else {
        sym([t, s, d], g.device())
    };
    let flops = 4 * (t * s * s * d) as u64;
    let cost = OpCost::new(flops, 3 * q.tensor().bytes(), ctx.bytes());
    g.record(
        FlashAttentionOp {
            causal,
            dropout_p,
            rng: rng_snapshot,
        },
        &[q, k, v],
        ctx,
        [q.tensor().clone(), k.tensor().clone(), v.tensor().clone()],
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{self, mean_all, reference};
    use crate::var::Var;
    use proptest::prelude::*;
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
        let p = permute_heads(&g, x.clone(), 2);
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
        let p = permute_heads(&g, x, 2);
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

    /// `n` normal draws, each replaced by each of `special`'s values with
    /// probability 1/6.
    fn draws_with(seed: u64, n: usize, special: &[f32]) -> Vec<f32> {
        let mut rng = Prng::seed_from_u64(seed);
        (0..n)
            .map(|_| match special.get(rng.next_below(6) as usize) {
                Some(&x) => x,
                None => rng.next_normal(),
            })
            .collect()
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The row-at-a-time op against the unfused kernel chain it
        /// replaces: the context, `dq`, `dk` and `dv` bit for bit, and the
        /// graph RNG left where the chain's dropout leaves it. Exact `0.0`
        /// and `-0.0` operands reach every accumulation's zero skip; an
        /// infinite `v` row makes the skip observable, since only a
        /// skipped term keeps a masked or dropped probability's `0 · inf`
        /// out of the context.
        #[test]
        fn fused_attention_matches_the_unfused_chain_bit_for_bit(
            t in 1usize..5,
            s in 1usize..10,
            d in 1usize..7,
            causal in any::<bool>(),
            p_index in 0usize..3,
            seed in 0u64..1000,
        ) {
            let p = [0.0, 0.1, 0.5][p_index];
            let dev = dev();
            let n = t * s * d;
            let operand = |i: u64, special: &[f32]| {
                Tensor::from_vec(draws_with(seed + i, n, special), [t, s, d], &dev)
            };
            let zeros = [0.0, -0.0];
            let (q, k, dctx) = (operand(0, &zeros), operand(1, &zeros), operand(3, &zeros));
            let v = operand(2, &[0.0, -0.0, f32::INFINITY]);
            let g = Graph::new(&dev, seed);
            let snapshot = (p > 0.0).then(|| g.rng_snapshot());
            let mut rng = snapshot.clone();
            let (_, want_ctx) = reference::attention_ref(&q, &k, &v, causal, p, &mut rng);
            let want = reference::attention_backward_ref(&q, &k, &v, &dctx, causal, p, snapshot);

            let (ql, kl, vl) = (g.external(0, q), g.external(1, k), g.external(2, v));
            let ctx = flash_attention(&g, &ql, &kl, &vl, causal, p);
            prop_assert_eq!(bits(ctx.tensor()), bits(&want_ctx));
            if let Some(rng) = rng {
                prop_assert_eq!(g.rng_snapshot(), rng);
            }
            let after_forward = g.rng_snapshot();
            let mut grads = [None, None, None];
            g.backward_from(&[ctx], [Some(dctx)], &mut grads);
            for (got, want) in grads.iter().zip(&want) {
                let got = got.as_ref().expect("every operand receives a gradient");
                prop_assert_eq!(bits(got), bits(want));
            }
            prop_assert_eq!(g.rng_snapshot(), after_forward, "backward draws from a copy");
        }
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
