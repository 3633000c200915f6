//! Normalisation, activation, masking and dropout operators.

use crate::graph::{BackwardResult, Graph, Op};
use crate::observer::OpCost;
use crate::ops::{all_numeric, sym};
use crate::value::Value;
use ssdtrain_tensor::Tensor;

// ---------------------------------------------------------------------
// gelu
// ---------------------------------------------------------------------

struct GeluOp;

impl Op for GeluOp {
    fn name(&self) -> &'static str {
        "gelu"
    }
    fn backward(&self, _g: &Graph, saved: &[Tensor], grads: &[Option<Tensor>]) -> BackwardResult {
        let dy = grads[0].as_ref().expect("gelu grad");
        let x = &saved[0];
        let dx = dy.mul(&x.gelu_grad());
        let cost = OpCost::new(10 * dy.numel() as u64, dy.bytes() + x.bytes(), dx.bytes());
        BackwardResult {
            grads: vec![Some(dx)],
            cost,
        }
    }
}

/// GELU activation; saves its input.
pub fn gelu(g: &Graph, x: &Value) -> Value {
    let out = x.tensor().gelu();
    let n = out.numel() as u64;
    let cost = OpCost::new(8 * n, x.tensor().bytes(), out.bytes());
    g.record(
        Box::new(GeluOp),
        &[x],
        vec![out],
        vec![x.tensor().clone()],
        cost,
    )
    .remove(0)
}

// ---------------------------------------------------------------------
// dropout
// ---------------------------------------------------------------------

struct DropoutOp {
    /// `1 / (1 - p)` survivor rescale (the saved mask is 0/1).
    scale: f32,
}

impl Op for DropoutOp {
    fn name(&self) -> &'static str {
        "dropout"
    }
    fn backward(&self, _g: &Graph, saved: &[Tensor], grads: &[Option<Tensor>]) -> BackwardResult {
        let dy = grads[0].as_ref().expect("dropout grad");
        let mask = &saved[0];
        let dx = dy.mul(mask).scale(self.scale);
        let cost = OpCost::new(dy.numel() as u64, dy.bytes() + mask.bytes(), dx.bytes());
        BackwardResult {
            grads: vec![Some(dx)],
            cost,
        }
    }
}

/// Inverted dropout driven by the graph RNG; saves the mask (one of the
/// big activation tensors the paper's Figure 3 highlights with red
/// borders).
///
/// # Panics
/// Panics unless `0 <= p < 1`.
pub fn dropout(g: &Graph, x: &Value, p: f32) -> Value {
    let (out, mask) = g.with_rng(|rng| x.tensor().dropout(p, rng));
    let n = out.numel() as u64;
    let wd = out.dtype().byte_size();
    let cost = OpCost::new(n, n * wd, n * wd + mask.bytes());
    let scale = 1.0 / (1.0 - p);
    g.record(
        Box::new(DropoutOp { scale }),
        &[x],
        vec![out],
        vec![mask],
        cost,
    )
    .remove(0)
}

// ---------------------------------------------------------------------
// layernorm
// ---------------------------------------------------------------------

struct LayernormOp;

impl Op for LayernormOp {
    fn name(&self) -> &'static str {
        "layernorm"
    }
    fn backward(&self, g: &Graph, saved: &[Tensor], grads: &[Option<Tensor>]) -> BackwardResult {
        let dy = grads[0].as_ref().expect("layernorm grad");
        let x = &saved[0];
        let gamma = &saved[1];
        let mean = &saved[2];
        let rstd = &saved[3];
        let h = *x.dims().last().expect("layernorm rank");
        let rows = x.numel() / h;
        let n = x.numel() as u64;
        let cost = OpCost::new(12 * n, 3 * x.bytes(), x.bytes() + 2 * gamma.bytes());

        if !all_numeric(&[dy, x, gamma, mean, rstd]) {
            return BackwardResult {
                grads: vec![
                    Some(sym(x.shape().clone(), g.device())),
                    Some(sym([h], g.device())),
                    Some(sym([h], g.device())),
                ],
                cost,
            };
        }

        let (dx, dgamma, dbeta) =
            Tensor::with_values_of([x, dy, gamma, mean, rstd], |[xv, dyv, gv, mv, rv]| {
                let mut dx = vec![0.0f32; xv.len()];
                let mut dgamma = vec![0.0f32; h];
                let mut dbeta = vec![0.0f32; h];
                for r in 0..rows {
                    let (m, rs) = (mv[r], rv[r]);
                    let xrow = &xv[r * h..(r + 1) * h];
                    let dyrow = &dyv[r * h..(r + 1) * h];
                    // xhat = (x - mean) * rstd ; dxhat = dy * gamma
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
                        dx[r * h + j] =
                            rs * (dxhat - inv_h * sum_dxhat - xhat * inv_h * sum_dxhat_xhat);
                    }
                }
                (dx, dgamma, dbeta)
            });
        let dev = g.device().clone();
        BackwardResult {
            grads: vec![
                Some(Tensor::from_vec(dx, x.shape().clone(), &dev)),
                Some(Tensor::from_vec(dgamma, [h], &dev)),
                Some(Tensor::from_vec(dbeta, [h], &dev)),
            ],
            cost,
        }
    }
}

/// Layer normalisation over the last dimension with learnable scale and
/// shift. Saves the input, `gamma` and the per-row statistics.
pub fn layernorm(g: &Graph, x: &Value, gamma: &Value, beta: &Value, eps: f32) -> Value {
    let (y, mean, rstd) = x.tensor().layernorm(gamma.tensor(), beta.tensor(), eps);
    let n = y.numel() as u64;
    let cost = OpCost::new(8 * n, x.tensor().bytes(), y.bytes());
    g.record(
        Box::new(LayernormOp),
        &[x, gamma, beta],
        vec![y],
        vec![x.tensor().clone(), gamma.tensor().clone(), mean, rstd],
        cost,
    )
    .remove(0)
}

// ---------------------------------------------------------------------
// softmax (last dim)
// ---------------------------------------------------------------------

struct SoftmaxOp;

impl Op for SoftmaxOp {
    fn name(&self) -> &'static str {
        "softmax"
    }
    fn backward(&self, _g: &Graph, saved: &[Tensor], grads: &[Option<Tensor>]) -> BackwardResult {
        let dy = grads[0].as_ref().expect("softmax grad");
        let y = &saved[0];
        let cost = OpCost::new(4 * y.numel() as u64, 2 * y.bytes(), y.bytes());
        BackwardResult {
            grads: vec![Some(y.softmax_grad(dy))],
            cost,
        }
    }
}

/// Softmax over the last dimension; saves its *output* (the large `S×S`
/// probability tensor in unfused attention — the memory hog that both
/// FlashAttention and Megatron's selective recomputation target).
pub fn softmax_last(g: &Graph, x: &Value) -> Value {
    let y = x.tensor().softmax_last();
    let n = y.numel() as u64;
    let cost = OpCost::new(5 * n, x.tensor().bytes(), y.bytes());
    let saved = y.clone();
    g.record(Box::new(SoftmaxOp), &[x], vec![y], vec![saved], cost)
        .remove(0)
}

// ---------------------------------------------------------------------
// causal mask
// ---------------------------------------------------------------------

struct CausalMaskOp;

impl Op for CausalMaskOp {
    fn name(&self) -> &'static str {
        "causal_mask"
    }
    fn backward(&self, _g: &Graph, _saved: &[Tensor], grads: &[Option<Tensor>]) -> BackwardResult {
        let dy = grads[0].as_ref().expect("mask grad");
        let cost = OpCost::new(dy.numel() as u64, dy.bytes(), dy.bytes());
        // Gradient of masked (future) positions is zero.
        BackwardResult {
            grads: vec![Some(dy.fill_above_diagonal(0.0))],
            cost,
        }
    }
}

/// Applies a causal mask (`-inf` above the diagonal) to `[b, s, s]`
/// attention scores.
pub fn apply_causal_mask(g: &Graph, x: &Value) -> Value {
    let y = x.tensor().apply_causal_mask();
    let n = y.numel() as u64;
    let wd = y.dtype().byte_size();
    let cost = OpCost::new(n, n * wd, n * wd);
    g.record(Box::new(CausalMaskOp), &[x], vec![y], vec![], cost)
        .remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{mean_all, sum_all};
    use crate::var::Var;
    use ssdtrain_tensor::Device;

    fn setup() -> (Device, Graph) {
        let d = Device::cpu();
        (d.clone(), Graph::new(&d, 7))
    }

    /// Central-difference check of d(mean(f(x)))/dx_e for each element.
    fn finite_diff_check(
        d: &Device,
        init: Vec<f32>,
        shape: &[usize],
        run: impl Fn(&Graph, &Value) -> Value,
        tol: f32,
    ) {
        let x = Var::new("x", Tensor::from_vec(init.clone(), shape, d));
        let g = Graph::new(d, 7);
        let y = run(&g, &g.leaf(&x));
        let loss = mean_all(&g, &y);
        g.backward(&loss);
        let analytic = x.grad().unwrap().to_vec();
        let eps = 1e-2f32;
        for e in 0..init.len() {
            let eval = |delta: f32| -> f32 {
                let mut v = init.clone();
                v[e] += delta;
                let g2 = Graph::new(d, 7);
                let xv = g2.constant(Tensor::from_vec(v, shape, d));
                let y2 = run(&g2, &xv);
                mean_all(&g2, &y2).tensor().item()
            };
            let fd = (eval(eps) - eval(-eps)) / (2.0 * eps);
            assert!(
                (fd - analytic[e]).abs() < tol,
                "elem {e}: fd {fd} vs analytic {}",
                analytic[e]
            );
        }
    }

    #[test]
    fn gelu_backward_matches_fd() {
        let (d, _) = setup();
        finite_diff_check(&d, vec![-1.5, -0.3, 0.0, 0.4, 2.0, 0.9], &[6], gelu, 2e-3);
    }

    #[test]
    fn softmax_backward_matches_fd() {
        let (d, _) = setup();
        finite_diff_check(
            &d,
            vec![0.1, 0.5, -0.2, 1.0, -1.0, 0.3],
            &[2, 3],
            softmax_last,
            2e-3,
        );
    }

    #[test]
    fn layernorm_backward_matches_fd() {
        let (d, _) = setup();
        let gamma = vec![1.2, 0.8, 1.0, 0.5];
        let beta = vec![0.1, -0.2, 0.0, 0.3];
        let (gm, bt) = (gamma.clone(), beta.clone());
        finite_diff_check(
            &d,
            vec![0.5, -1.0, 2.0, 0.2, 1.5, 0.7, -0.3, 0.0],
            &[2, 4],
            move |g, x| {
                let ga = g.constant(Tensor::from_vec(gm.clone(), [4], g.device()));
                let be = g.constant(Tensor::from_vec(bt.clone(), [4], g.device()));
                layernorm(g, x, &ga, &be, 1e-5)
            },
            5e-3,
        );
    }

    #[test]
    fn layernorm_param_grads_flow() {
        let (d, g) = setup();
        let x = g.constant(Tensor::from_vec(vec![1., 2., 3., 4.], [1, 4], &d));
        let gamma = Var::new("gamma", Tensor::ones([4], &d));
        let beta = Var::new("beta", Tensor::zeros([4], &d));
        let y = layernorm(&g, &x, &g.leaf(&gamma), &g.leaf(&beta), 1e-5);
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        // dbeta = column sums of dy = 1 everywhere.
        assert_eq!(beta.grad().unwrap().to_vec(), vec![1.0; 4]);
        assert!(gamma.grad().is_some());
    }

    #[test]
    fn dropout_backward_uses_the_same_mask() {
        let (d, g) = setup();
        let x = Var::new("x", Tensor::ones([64], &d));
        let y = dropout(&g, &g.leaf(&x), 0.5);
        let yv = y.tensor().to_vec();
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        let gx = x.grad().unwrap().to_vec();
        for (o, gr) in yv.iter().zip(&gx) {
            // grad == mask value == output value (since input was 1).
            assert_eq!(o, gr);
        }
    }

    #[test]
    fn causal_mask_blocks_gradient_to_future() {
        let (d, g) = setup();
        let x = Var::new("x", Tensor::zeros([1, 2, 2], &d));
        let m = apply_causal_mask(&g, &g.leaf(&x));
        let sm = softmax_last(&g, &m);
        let loss = sum_all(&g, &sm);
        g.backward(&loss);
        let gx = x.grad().unwrap().to_vec();
        // Position (0, 1) is masked; its gradient must be exactly zero.
        assert_eq!(gx[1], 0.0);
    }

    #[test]
    fn symbolic_layernorm_backward_keeps_shapes() {
        let d = Device::symbolic();
        let g = Graph::new(&d, 1);
        let x = Var::new("x", Tensor::zeros([2, 8], &d));
        let gamma = Var::new("gamma", Tensor::zeros([8], &d));
        let beta = Var::new("beta", Tensor::zeros([8], &d));
        let y = layernorm(&g, &g.leaf(&x), &g.leaf(&gamma), &g.leaf(&beta), 1e-5);
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert_eq!(gamma.grad().unwrap().dims(), &[8]);
        assert_eq!(x.grad().unwrap().dims(), &[2, 8]);
    }
}
