//! The copy-based backward bodies these operators shipped before they
//! started borrowing their operands, kept as the reference the borrowed
//! ones must match bit for bit — with contiguous, transposed and reshaped
//! inputs on the graph.

use crate::graph::Graph;
use crate::ops;
use crate::optim::Sgd;
use crate::value::Value;
use crate::var::Var;
use proptest::prelude::*;
use ssdtrain_tensor::{Device, Prng, Tensor};

// ---------------------------------------------------------------------
// Reference bodies: every operand is copied out with `to_vec` first.
// ---------------------------------------------------------------------

fn permute_ref(x: &Tensor, nh: usize) -> Vec<f32> {
    let (b, s, h) = (x.dim(0), x.dim(1), x.dim(2));
    let hd = h / nh;
    let v = x.to_vec();
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
}

fn unpermute_ref(x: &Tensor, nh: usize) -> Vec<f32> {
    let (bnh, s, hd) = (x.dim(0), x.dim(1), x.dim(2));
    let (b, h) = (bnh / nh, nh * hd);
    let v = x.to_vec();
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
}

fn softmax_backward_ref(y: &Tensor, dy: &Tensor) -> Tensor {
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
    Tensor::from_vec(dx, *y.shape(), y.device())
}

pub(super) fn attention_ref(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    causal: bool,
    dropout_p: f32,
    rng: &mut Option<Prng>,
) -> (Tensor, Tensor) {
    let scale = 1.0 / (q.dim(2) as f32).sqrt();
    let scores = q.bmm(&k.transpose(1, 2)).scale(scale);
    let scores = if causal {
        scores.apply_causal_mask()
    } else {
        scores
    };
    let mut probs = scores.softmax_last();
    let probs = match (dropout_p > 0.0, rng.as_mut()) {
        (true, Some(r)) => probs.dropout(dropout_p, r).0,
        _ => probs,
    };
    let ctx = probs.bmm(v);
    (probs, ctx)
}

/// The fused attention backward as it was: probabilities recomputed once
/// with dropout and, when dropout is on, a second time without.
pub(super) fn attention_backward_ref(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    dctx: &Tensor,
    causal: bool,
    dropout_p: f32,
    snapshot: Option<Prng>,
) -> [Tensor; 3] {
    let mut rng = snapshot.clone();
    let (probs, _ctx) = attention_ref(q, k, v, causal, dropout_p, &mut rng);
    let scale = 1.0 / (q.dim(2) as f32).sqrt();
    let dv = probs.transpose(1, 2).bmm(dctx);
    let dprobs = dctx.bmm(&v.transpose(1, 2));
    let dprobs = if dropout_p > 0.0 {
        let mut r2 = snapshot;
        let (pre_probs, _) = attention_ref(q, k, v, causal, 0.0, &mut None);
        let (_, mask) = pre_probs.clone().dropout(dropout_p, r2.as_mut().unwrap());
        let dmasked = dprobs.mul(&mask).scale(1.0 / (1.0 - dropout_p));
        softmax_backward_ref(&pre_probs, &dmasked)
    } else {
        softmax_backward_ref(&probs, &dprobs)
    };
    let dscores = dprobs.scale(scale);
    let dq = dscores.bmm(k);
    let dk = dscores.transpose(1, 2).bmm(q);
    [dq, dk, dv]
}

fn layernorm_backward_ref(
    x: &Tensor,
    dy: &Tensor,
    gamma: &Tensor,
    mean: &Tensor,
    rstd: &Tensor,
) -> [Vec<f32>; 3] {
    let h = *x.dims().last().unwrap();
    let rows = x.numel() / h;
    let xv = x.to_vec();
    let dyv = dy.to_vec();
    let gv = gamma.to_vec();
    let mv = mean.to_vec();
    let rv = rstd.to_vec();
    let mut dx = vec![0.0f32; xv.len()];
    let mut dgamma = vec![0.0f32; h];
    let mut dbeta = vec![0.0f32; h];
    for r in 0..rows {
        let (m, rs) = (mv[r], rv[r]);
        let xrow = &xv[r * h..(r + 1) * h];
        let dyrow = &dyv[r * h..(r + 1) * h];
        let mut sum_dxhat = 0.0f32;
        let mut sum_dxhat_xhat = 0.0f32;
        for j in 0..h {
            let xhat = (xrow[j] - m) * rs;
            let dxhat = dyrow[j] * gv[j];
            sum_dxhat += dxhat;
            sum_dxhat_xhat += dxhat * xhat;
            dgamma[j] += dyrow[j] * xhat;
            dbeta[j] += dyrow[j];
        }
        let inv_h = 1.0 / h as f32;
        for j in 0..h {
            let xhat = (xrow[j] - m) * rs;
            let dxhat = dyrow[j] * gv[j];
            dx[r * h + j] = rs * (dxhat - inv_h * sum_dxhat - xhat * inv_h * sum_dxhat_xhat);
        }
    }
    [dx, dgamma, dbeta]
}

fn causal_mask_backward_ref(dy: &Tensor) -> Vec<f32> {
    let (b, s1, s2) = (dy.dim(0), dy.dim(1), dy.dim(2));
    let mut v = dy.to_vec();
    for t in 0..b {
        for i in 0..s1 {
            for j in (i + 1)..s2 {
                v[t * s1 * s2 + i * s2 + j] = 0.0;
            }
        }
    }
    v
}

fn cross_entropy_backward_ref(probs: &Tensor, targets: &Tensor, dloss: f32) -> Vec<f32> {
    let (n, v) = probs.shape().as_2d();
    let scale = dloss / n as f32;
    let mut dl = probs.to_vec();
    let tv = targets.to_vec();
    for (row, &ft) in tv.iter().enumerate() {
        dl[row * v + ft as usize] -= 1.0;
    }
    for x in dl.iter_mut() {
        *x *= scale;
    }
    dl
}

// ---------------------------------------------------------------------
// Harness: drive the public operators and read the leaves' gradients.
// ---------------------------------------------------------------------

fn dev() -> Device {
    Device::cpu()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn values(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = Prng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_normal()).collect()
}

/// The same logical tensor contiguous, as a reshaped view of a flat
/// buffer, and (rank >= 2) as a strided view over its transpose.
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

/// Output of `op` over leaves holding `inputs`, and each leaf's gradient
/// under the loss `sum(op(..) .* w)` — whose gradient at the output is
/// exactly `w`.
fn run(
    seed: u64,
    inputs: &[&Tensor],
    w: &Tensor,
    op: impl Fn(&Graph, &[Value]) -> Value,
) -> (Tensor, Vec<Vec<u32>>) {
    let g = Graph::new(&dev(), seed);
    let vars: Vec<Var> = inputs.iter().map(|t| Var::new("x", (*t).clone())).collect();
    let leaves: Vec<Value> = vars.iter().map(|v| g.leaf(v)).collect();
    let y = op(&g, &leaves);
    let loss = ops::sum_all(&g, &ops::mul(&g, &y, &g.constant(w.clone())));
    g.backward(&loss);
    let grads = vars
        .iter()
        .map(|v| bits(&v.grad().expect("leaf gradient").to_vec()))
        .collect();
    (y.tensor().clone(), grads)
}

proptest! {
    #[test]
    fn head_permutations_match_reference(
        b in 1usize..3,
        s in 1usize..4,
        hd in 1usize..4,
        seed in 0u64..1000,
    ) {
        let nh = 2;
        let (xv, wv) = (values(seed, b * s * nh * hd), values(seed + 1, b * s * nh * hd));
        for x in layouts(&xv, &[b, s, nh * hd]) {
            let w = Tensor::from_vec(wv.clone(), [b * nh, s, hd], &dev());
            let (y, grads) = run(seed, &[&x], &w, |g, v| ops::permute_heads(g, v[0].clone(), nh));
            prop_assert_eq!(bits(&y.to_vec()), bits(&permute_ref(&x, nh)));
            prop_assert_eq!(grads[0].clone(), bits(&unpermute_ref(&w, nh)));
        }
        for x in layouts(&xv, &[b * nh, s, hd]) {
            let w = Tensor::from_vec(wv.clone(), [b, s, nh * hd], &dev());
            let (y, grads) = run(seed, &[&x], &w, |g, v| ops::unpermute_heads(g, &v[0], nh));
            prop_assert_eq!(bits(&y.to_vec()), bits(&unpermute_ref(&x, nh)));
            prop_assert_eq!(grads[0].clone(), bits(&permute_ref(&w, nh)));
        }
    }

    #[test]
    fn fused_attention_backward_matches_reference(
        t in 1usize..3,
        s in 1usize..5,
        d in 1usize..4,
        causal in any::<bool>(),
        dropout in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let p = if dropout { 0.3 } else { 0.0 };
        let n = t * s * d;
        let w = Tensor::from_vec(values(seed + 3, n), [t, s, d], &dev());
        let snapshot = (p > 0.0).then(|| Graph::new(&dev(), seed).rng_snapshot());
        for q in layouts(&values(seed, n), &[t, s, d]) {
            for k in layouts(&values(seed + 1, n), &[t, s, d]) {
                for v in layouts(&values(seed + 2, n), &[t, s, d]) {
                    let (ctx, grads) = run(seed, &[&q, &k, &v], &w, |g, l| {
                        ops::flash_attention(g, &l[0], &l[1], &l[2], causal, p)
                    });
                    let (_, want_ctx) = attention_ref(&q, &k, &v, causal, p, &mut snapshot.clone());
                    prop_assert_eq!(bits(&ctx.to_vec()), bits(&want_ctx.to_vec()));
                    let want = attention_backward_ref(&q, &k, &v, &w, causal, p, snapshot.clone());
                    for (got, want) in grads.iter().zip(&want) {
                        prop_assert_eq!(got.clone(), bits(&want.to_vec()));
                    }
                }
            }
        }
    }

    #[test]
    fn normalisation_backwards_match_reference(
        r in 1usize..4,
        c in 1usize..5,
        seed in 0u64..1000,
    ) {
        let w = Tensor::from_vec(values(seed + 1, r * c), [r, c], &dev());
        let gamma = Tensor::from_vec(values(seed + 2, c), [c], &dev());
        let beta = Tensor::from_vec(values(seed + 3, c), [c], &dev());
        for x in layouts(&values(seed, r * c), &[r, c]) {
            let (_, grads) = run(seed, &[&x, &gamma, &beta], &w, |g, v| {
                ops::layernorm(g, &v[0], &v[1], &v[2], 1e-5)
            });
            let (_, mean, rstd) = x.layernorm(&gamma, &beta, 1e-5);
            let want = layernorm_backward_ref(&x, &w, &gamma, &mean, &rstd);
            for (got, want) in grads.iter().zip(&want) {
                prop_assert_eq!(got.clone(), bits(want));
            }

            let (y, grads) = run(seed, &[&x], &w, |g, v| ops::softmax_last(g, &v[0]));
            prop_assert_eq!(grads[0].clone(), bits(&softmax_backward_ref(&y, &w).to_vec()));
        }
    }

    #[test]
    fn mask_and_loss_backwards_match_reference(
        b in 1usize..3,
        s in 1usize..5,
        seed in 0u64..1000,
    ) {
        let w = Tensor::from_vec(values(seed + 1, b * s * s), [b, s, s], &dev());
        for x in layouts(&values(seed, b * s * s), &[b, s, s]) {
            let (_, grads) = run(seed, &[&x], &w, |g, v| ops::apply_causal_mask(g, &v[0]));
            prop_assert_eq!(grads[0].clone(), bits(&causal_mask_backward_ref(&w)));
        }

        let (n, vocab) = (b * s, s + 1);
        let mut rng = Prng::seed_from_u64(seed);
        let targets = Tensor::from_vec(
            (0..n).map(|_| (rng.next_f32() * vocab as f32) as usize as f32).collect(),
            [n],
            &dev(),
        );
        let dloss = Tensor::from_vec(vec![0.75], [1], &dev());
        for logits in layouts(&values(seed + 2, n * vocab), &[n, vocab]) {
            // cross_entropy reshapes its logits, which demands contiguity.
            let logits = logits.contiguous();
            let (_, grads) = run(seed, &[&logits], &dloss, |g, v| {
                ops::cross_entropy_mean(g, &v[0], &g.constant(targets.clone()))
            });
            let (_, probs) = logits.cross_entropy(&targets);
            prop_assert_eq!(
                grads[0].clone(),
                bits(&cross_entropy_backward_ref(&probs, &targets, 0.75))
            );
        }
    }

    #[test]
    fn momentum_sgd_matches_reference(
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let (lr, momentum) = (0.1f32, 0.9f32);
        let mut w = values(seed, n);
        let mut velocity: Option<Vec<f32>> = None;
        let var = Var::new("w", Tensor::from_vec(w.clone(), [n], &dev()));
        let mut opt = Sgd::with_momentum(vec![var.clone()], lr, momentum);
        for step in 0..3 {
            let grad = values(seed + 10 + step, n);
            var.accumulate_grad(Tensor::from_vec(grad.clone(), [n], &dev()));
            opt.step();
            opt.zero_grad();

            let v_new: Vec<f32> = match &velocity {
                Some(v) => v.iter().zip(&grad).map(|(v, g)| v * momentum + g).collect(),
                None => grad,
            };
            for (wi, vi) in w.iter_mut().zip(&v_new) {
                *wi -= lr * vi;
            }
            velocity = Some(v_new);
            prop_assert_eq!(bits(&var.tensor().to_vec()), bits(&w));
        }
    }
}
