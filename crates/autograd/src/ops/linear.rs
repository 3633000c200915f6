//! Matrix-multiply operators (the FLOP-dominant kernels).

use crate::graph::{Graph, Op};
use crate::observer::OpCost;
use crate::value::Value;
use ssdtrain_tensor::Tensor;

fn w(t: &Tensor) -> u64 {
    t.dtype().byte_size()
}

// ---------------------------------------------------------------------
// matmul
// ---------------------------------------------------------------------

struct MatmulOp;

impl Op for MatmulOp {
    fn name(&self) -> &'static str {
        "matmul"
    }
    fn backward(
        &self,
        _g: &Graph,
        saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad_mut(grads);
        let (x, wt) = (&saved[0], &saved[1]);
        let (m, k) = x.shape().as_2d();
        let n = wt.dim(1);
        let flops = 4 * (m as u64) * (k as u64) * (n as u64);
        let bytes = (dy.bytes() + x.bytes() + wt.bytes()) * 2;
        // dx = dy @ w^T, written over dy when w is square and dy dies here.
        let (dx, dw) = x.matmul_grad(wt, dy);
        grads_in[0] = Some(dx);
        grads_in[1] = Some(dw);
        OpCost::new(flops, bytes, x.bytes() + wt.bytes())
    }
}

/// Matrix product `x @ w` with `x` of shape `[..., k]` and `w` of shape
/// `[k, n]` (a transposed-view weight is read through its strides).
/// Saves both operands for backward — the weight save is what the SSDTrain
/// parameter-exclusion logic must recognise (paper Section 3.3.1).
pub fn matmul(g: &Graph, x: &Value, weight: &Value) -> Value {
    let out = x.tensor().matmul(weight.tensor());
    let (m, k) = x.tensor().shape().as_2d();
    let n = weight.tensor().dim(1);
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    let cost = OpCost::new(
        flops,
        x.tensor().bytes() + weight.tensor().bytes(),
        out.bytes(),
    );
    g.record(
        MatmulOp,
        &[x, weight],
        out,
        [x.tensor().clone(), weight.tensor().clone()],
        cost,
    )
}

// ---------------------------------------------------------------------
// add_bias
// ---------------------------------------------------------------------

struct AddBiasOp;

impl Op for AddBiasOp {
    fn name(&self) -> &'static str {
        "add_bias"
    }
    fn backward(
        &self,
        _g: &Graph,
        _saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let db = dy.sum_leading();
        let cost = OpCost::new(dy.numel() as u64, dy.bytes(), dy.bytes() + db.bytes());
        grads_in[0] = Some(dy.clone());
        grads_in[1] = Some(db);
        cost
    }
}

/// Broadcast-adds a 1-D bias over the last dimension, consuming `x`: the
/// sum is written into its buffer when it owns its storage
/// ([`Tensor::add_bias`]).
pub fn add_bias(g: &Graph, mut x: Value, bias: &Value) -> Value {
    let out = x.tensor_mut().add_bias(bias.tensor());
    let n = out.numel() as u64;
    let cost = OpCost::new(n, n * w(&out) + bias.tensor().bytes(), n * w(&out));
    g.record(AddBiasOp, &[&x, bias], out, [], cost)
}

// ---------------------------------------------------------------------
// bmm
// ---------------------------------------------------------------------

struct BmmOp;

impl Op for BmmOp {
    fn name(&self) -> &'static str {
        "bmm"
    }
    fn backward(
        &self,
        _g: &Graph,
        saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let (a, b) = (&saved[0], &saved[1]);
        // da = dy @ b^T; db = a^T @ dy  (batched)
        let da = dy.bmm(&b.transpose(1, 2));
        let db = a.transpose(1, 2).bmm(dy);
        let (bt, m, k) = (a.dim(0), a.dim(1), a.dim(2));
        let n = b.dim(2);
        let flops = 4 * (bt * m * k * n) as u64;
        let cost = OpCost::new(
            flops,
            2 * (dy.bytes() + a.bytes() + b.bytes()),
            a.bytes() + b.bytes(),
        );
        grads_in[0] = Some(da);
        grads_in[1] = Some(db);
        cost
    }
}

/// Batched matrix product of `[b, m, k]` and `[b, k, n]`; saves both
/// operands.
pub fn bmm(g: &Graph, a: &Value, b: &Value) -> Value {
    let out = a.tensor().bmm(b.tensor());
    let (bt, m, k) = (a.tensor().dim(0), a.tensor().dim(1), a.tensor().dim(2));
    let n = b.tensor().dim(2);
    let flops = 2 * (bt * m * k * n) as u64;
    let cost = OpCost::new(flops, a.tensor().bytes() + b.tensor().bytes(), out.bytes());
    g.record(
        BmmOp,
        &[a, b],
        out,
        [a.tensor().clone(), b.tensor().clone()],
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{mean_all, sum_all};
    use crate::var::Var;
    use ssdtrain_tensor::Device;

    fn setup() -> (Device, Graph) {
        let d = Device::cpu();
        (d.clone(), Graph::new(&d, 1))
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_gradients_match_analytic() {
        let (d, g) = setup();
        // loss = sum(x @ w), dL/dw[k,n] = sum_m x[m,k]; dL/dx[m,k] = sum_n w[k,n]
        let x = Var::new("x", Tensor::from_vec(vec![1., 2., 3., 4.], [2, 2], &d));
        let wv = Var::new("w", Tensor::from_vec(vec![5., 6., 7., 8.], [2, 2], &d));
        let y = matmul(&g, &g.leaf(&x), &g.leaf(&wv));
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert_eq!(wv.grad().unwrap().to_vec(), vec![4., 4., 6., 6.]);
        assert_eq!(x.grad().unwrap().to_vec(), vec![11., 15., 11., 15.]);
    }

    #[test]
    fn matmul_gradient_matches_finite_difference() {
        let (d, g) = setup();
        let xv = vec![0.3, -0.7, 1.2, 0.5, -0.1, 0.9];
        let wv = vec![0.2, -0.4, 0.6, 0.1, -0.8, 0.3];
        let x = Var::new("x", Tensor::from_vec(xv.clone(), [2, 3], &d));
        let wt = Var::new("w", Tensor::from_vec(wv.clone(), [3, 2], &d));
        let y = matmul(&g, &g.leaf(&x), &g.leaf(&wt));
        let loss = mean_all(&g, &y);
        g.backward(&loss);
        let analytic = wt.grad().unwrap().to_vec();

        // Finite differences on each weight element.
        let eps = 1e-3f32;
        let f = |wv: &Vec<f32>| -> f32 {
            let mut acc = 0.0;
            for i in 0..2 {
                for j in 0..2 {
                    for k in 0..3 {
                        acc += xv[i * 3 + k] * wv[k * 2 + j];
                    }
                }
            }
            acc / 4.0
        };
        for e in 0..6 {
            let mut plus = wv.clone();
            plus[e] += eps;
            let mut minus = wv.clone();
            minus[e] -= eps;
            let fd = (f(&plus) - f(&minus)) / (2.0 * eps);
            assert!(
                (fd - analytic[e]).abs() < 1e-3,
                "elem {e}: {fd} vs {}",
                analytic[e]
            );
        }
    }

    #[test]
    fn add_bias_grad_sums_rows() {
        let (d, g) = setup();
        let x = Var::new("x", Tensor::zeros([3, 2], &d));
        let b = Var::new("b", Tensor::zeros([2], &d));
        let y = add_bias(&g, g.leaf(&x), &g.leaf(&b));
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert_eq!(b.grad().unwrap().to_vec(), vec![3.0, 3.0]);
        assert_eq!(x.grad().unwrap().to_vec(), vec![1.0; 6]);
    }

    #[test]
    fn bmm_gradients_match_matmul_on_single_batch() {
        let (d, g) = setup();
        let a = Var::new("a", Tensor::from_vec(vec![1., 2., 3., 4.], [1, 2, 2], &d));
        let b = Var::new("b", Tensor::from_vec(vec![5., 6., 7., 8.], [1, 2, 2], &d));
        let y = bmm(&g, &g.leaf(&a), &g.leaf(&b));
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert_close(&b.grad().unwrap().to_vec(), &[4., 4., 6., 6.], 1e-6);
        assert_close(&a.grad().unwrap().to_vec(), &[11., 15., 11., 15.], 1e-6);
    }

    #[test]
    fn symbolic_matmul_propagates_shapes_through_backward() {
        let dsym = Device::symbolic();
        let g = Graph::new(&dsym, 1);
        let x = Var::new("x", Tensor::zeros([4, 8], &dsym));
        let wv = Var::new("w", Tensor::zeros([8, 2], &dsym));
        let y = matmul(&g, &g.leaf(&x), &g.leaf(&wv));
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        let gw = wv.grad().unwrap();
        assert_eq!(gw.dims(), &[8, 2]);
        assert!(!gw.has_data());
    }
}
