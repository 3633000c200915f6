//! Numerical gradient checking.
//!
//! [`check_gradients`] compares a graph-computed parameter gradient with
//! central finite differences — the standard correctness oracle for an
//! autograd engine. Every operator in [`crate::ops`] is covered by a
//! gradcheck test; downstream models can reuse the utility for their own
//! composites.

use crate::graph::Graph;
use crate::value::Value;
use crate::var::Var;
use ssdtrain_tensor::{Device, MemClass, Tensor};

/// Outcome of a gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric partials.
    pub(crate) max_abs_err: f64,
    /// Index of the worst element.
    pub(crate) worst_index: usize,
    /// Analytic value at the worst element.
    pub(crate) analytic: f64,
    /// Finite-difference value at the worst element.
    pub(crate) numeric: f64,
}

impl GradCheckReport {
    /// True if the worst error is within `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_abs_err <= tol
    }
}

/// Checks `d loss / d param` for a scalar-loss builder `f`.
///
/// `f` receives a fresh graph (seeded identically on every invocation, so
/// stochastic ops like dropout replay the same mask) and the parameter,
/// and must return the scalar loss value. The analytic gradient comes
/// from one backward pass; the numeric gradient perturbs each parameter
/// element by ±`eps`.
///
/// # Panics
/// Panics if `f` returns a non-scalar loss, the loss does not depend on
/// the parameter, or the parameter is symbolic.
#[expect(
    clippy::expect_used,
    reason = "a test utility: a loss without a gradient is a broken check"
)]
pub fn check_gradients(
    device: &Device,
    param_init: &Tensor,
    eps: f32,
    seed: u64,
    f: impl Fn(&Graph, &Var) -> Value,
) -> GradCheckReport {
    assert!(param_init.has_data(), "gradcheck needs numeric parameters");
    let shape = *param_init.shape();
    let base = param_init.to_vec();

    // Analytic gradient.
    let var = Var::new("gradcheck", param_init.deep_clone_as(MemClass::Parameter));
    let g = Graph::new(device, seed);
    let loss = f(&g, &var);
    assert_eq!(loss.tensor().numel(), 1, "gradcheck needs a scalar loss");
    g.backward(&loss);
    let analytic = var
        .grad()
        .expect("loss must depend on the parameter")
        .to_vec();

    // Numeric gradient.
    let eval = |values: Vec<f32>| -> f64 {
        let v = Var::new("gradcheck", {
            device.with_class(MemClass::Parameter, || {
                Tensor::from_vec(values, shape, device)
            })
        });
        let g = Graph::new(device, seed);
        f(&g, &v).tensor().item() as f64
    };

    let mut report = GradCheckReport {
        max_abs_err: 0.0,
        worst_index: 0,
        analytic: 0.0,
        numeric: 0.0,
    };
    for i in 0..base.len() {
        let mut plus = base.clone();
        plus[i] += eps;
        let mut minus = base.clone();
        minus[i] -= eps;
        let fd = (eval(plus) - eval(minus)) / (2.0 * eps as f64);
        let err = (fd - analytic[i] as f64).abs();
        if err > report.max_abs_err {
            report = GradCheckReport {
                max_abs_err: err,
                worst_index: i,
                analytic: analytic[i] as f64,
                numeric: fd,
            };
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use ssdtrain_tensor::Prng;

    fn dev() -> Device {
        Device::cpu()
    }

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Prng::seed_from_u64(seed);
        Tensor::randn(dims, 0.5, &mut rng, &dev())
    }

    #[test]
    fn matmul_chain_gradcheck() {
        let d = dev();
        let x = randn(&[3, 4], 1);
        let report = check_gradients(&d, &randn(&[4, 5], 2), 1e-2, 3, |g, w| {
            let xv = g.constant(x.clone());
            ops::mean_all(g, &ops::matmul(g, &xv, &g.leaf(w)))
        });
        assert!(report.passes(2e-3), "{report:?}");
    }

    #[test]
    fn gelu_bias_gradcheck() {
        let d = dev();
        let x = randn(&[2, 4], 4);
        let report = check_gradients(&d, &randn(&[4], 5), 1e-2, 6, |g, b| {
            let xv = g.constant(x.clone());
            let y = ops::gelu(g, &ops::add_bias(g, xv, &g.leaf(b)));
            ops::mean_all(g, &y)
        });
        assert!(report.passes(2e-3), "{report:?}");
    }

    #[test]
    fn softmax_mul_gradcheck() {
        let d = dev();
        let report = check_gradients(&d, &randn(&[2, 3], 7), 1e-2, 8, |g, w| {
            let lw = g.leaf(w);
            let s = ops::softmax_last(g, &lw);
            let y = ops::mul(g, &s, &lw);
            ops::sum_all(g, &y)
        });
        assert!(report.passes(3e-3), "{report:?}");
    }

    #[test]
    fn dropout_gradcheck_with_replayed_mask() {
        // The same seed replays the same mask across the analytic run and
        // every finite-difference evaluation, so dropout is checkable.
        let d = dev();
        let x = randn(&[8], 9);
        let report = check_gradients(&d, &randn(&[8], 10), 1e-2, 11, |g, w| {
            let xv = g.constant(x.clone());
            let y = ops::dropout(g, ops::mul(g, &xv, &g.leaf(w)), 0.5);
            ops::sum_all(g, &y)
        });
        assert!(report.passes(2e-3), "{report:?}");
    }

    #[test]
    fn attention_projection_gradcheck() {
        let d = dev();
        let q0 = randn(&[2, 3, 4], 12);
        let kv = randn(&[2, 3, 4], 13);
        let report = check_gradients(&d, &randn(&[4, 4], 14), 5e-3, 15, |g, w| {
            let q = ops::matmul(g, &g.constant(q0.clone()), &g.leaf(w));
            let kvv = g.constant(kv.clone());
            let ctx = ops::flash_attention(g, &q, &kvv, &kvv, true, 0.0);
            ops::mean_all(g, &ctx)
        });
        assert!(report.passes(5e-3), "{report:?}");
    }

    #[test]
    fn failing_gradient_is_reported() {
        // A deliberately wrong "gradient" via detach: loss does not
        // depend on w beyond a detached path -> analytic 0, numeric 0;
        // instead check the report fields on a real mismatch by using a
        // huge epsilon on a curved function.
        let d = dev();
        let report = check_gradients(&d, &randn(&[2], 16), 0.9, 17, |g, w| {
            let lw = g.leaf(w);
            let y = ops::mul(g, &lw, &lw); // quadratic: large eps biases FD
            ops::sum_all(g, &ops::gelu(g, &y))
        });
        // With eps=0.9 the finite difference of a nonlinear function is
        // far from the analytic slope.
        assert!(!report.passes(1e-6), "{report:?}");
        assert!(report.max_abs_err > 0.0);
    }
}
