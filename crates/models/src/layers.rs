//! Primitive layers: linear, layer-norm, embedding.

use ssdtrain_autograd::{ops, Graph, Value, Var};
use ssdtrain_tensor::{Device, MemClass, Prng, Tensor};

/// Creates a parameter tensor (tagged [`MemClass::Parameter`]).
fn param(name: &str, dims: &[usize], std: f32, rng: &mut Prng, dev: &Device) -> Var {
    let t = dev.with_class(MemClass::Parameter, || {
        if std == 0.0 {
            Tensor::zeros(dims, dev)
        } else {
            Tensor::randn(dims, std, rng, dev)
        }
    });
    Var::new(name, t)
}

fn ones_param(name: &str, dims: &[usize], dev: &Device) -> Var {
    let t = dev.with_class(MemClass::Parameter, || Tensor::ones(dims, dev));
    Var::new(name, t)
}

/// A dense projection `y = x @ w + b` with weight `[in, out]`.
///
/// (PyTorch stores the transpose `[out, in]` and saves a transposed view
/// for backward; the identity-stamp behaviour that covers is unit-tested
/// in `ssdtrain::id`. Storing `[in, out]` keeps gradients view-free.)
#[derive(Debug, Clone)]
pub(crate) struct Linear {
    /// Weight, `[in, out]`.
    pub(crate) weight: Var,
    /// Bias, `[out]`; LM heads go bias-free (GPT-2 style), which also
    /// halves the vocab-sized transient at the loss.
    pub(crate) bias: Option<Var>,
}

impl Linear {
    /// Creates a linear layer with scaled-normal init and a bias.
    pub(crate) fn new(
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut Prng,
        dev: &Device,
    ) -> Linear {
        let mut linear = Linear::new_no_bias(name, d_in, d_out, rng, dev);
        linear.bias = Some(param(&format!("{name}.bias"), &[d_out], 0.0, rng, dev));
        linear
    }

    /// Creates a bias-free projection.
    pub(crate) fn new_no_bias(
        name: &str,
        d_in: usize,
        d_out: usize,
        rng: &mut Prng,
        dev: &Device,
    ) -> Linear {
        let std = 0.02f32.max(1.0 / (d_in as f32).sqrt() * 0.5);
        Linear {
            weight: param(&format!("{name}.weight"), &[d_in, d_out], std, rng, dev),
            bias: None,
        }
    }

    /// Applies the projection.
    pub(crate) fn forward(&self, g: &Graph, x: &Value) -> Value {
        let h = ops::matmul(g, x, &g.leaf(&self.weight));
        match &self.bias {
            Some(b) => ops::add_bias(g, h, &g.leaf(b)),
            None => h,
        }
    }

    /// This layer's parameters.
    pub(crate) fn parameters(&self) -> Vec<Var> {
        let mut p = vec![self.weight.clone()];
        p.extend(self.bias.clone());
        p
    }
}

/// Layer normalisation with learnable `gamma`/`beta`.
#[derive(Debug, Clone)]
pub(crate) struct LayerNorm {
    /// Scale, `[hidden]`.
    pub(crate) gamma: Var,
    /// Shift, `[hidden]`.
    pub(crate) beta: Var,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer-norm over the last dimension of width `hidden`.
    pub(crate) fn new(name: &str, hidden: usize, dev: &Device) -> LayerNorm {
        LayerNorm {
            gamma: ones_param(&format!("{name}.gamma"), &[hidden], dev),
            beta: Var::new(
                format!("{name}.beta"),
                dev.with_class(MemClass::Parameter, || Tensor::zeros([hidden], dev)),
            ),
            eps: 1e-5,
        }
    }

    /// Applies the normalisation.
    pub(crate) fn forward(&self, g: &Graph, x: &Value) -> Value {
        ops::layernorm(g, x, &g.leaf(&self.gamma), &g.leaf(&self.beta), self.eps)
    }

    /// This layer's parameters.
    pub(crate) fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

/// Token + learned-position embedding.
#[derive(Debug, Clone)]
pub(crate) struct Embedding {
    /// Token table, `[vocab, hidden]`.
    pub(crate) tokens: Var,
    /// Position table, `[seq, hidden]`.
    pub(crate) positions: Var,
    seq: usize,
}

impl Embedding {
    /// Creates the embedding tables.
    pub(crate) fn new(
        name: &str,
        vocab: usize,
        seq: usize,
        hidden: usize,
        rng: &mut Prng,
        dev: &Device,
    ) -> Embedding {
        Embedding {
            tokens: param(&format!("{name}.tok"), &[vocab, hidden], 0.02, rng, dev),
            positions: param(&format!("{name}.pos"), &[seq, hidden], 0.02, rng, dev),
            seq,
        }
    }

    /// Embeds `[batch, seq]` token ids into `[batch, seq, hidden]`
    /// vectors with positional information.
    pub(crate) fn forward(&self, g: &Graph, ids: &Value) -> Value {
        let tok = ops::embedding(g, &g.leaf(&self.tokens), ids);
        // Position ids: one row of 0..seq per batch row.
        let b = ids.dims()[0];
        let dev = g.device().clone();
        let pos_ids = if dev.is_symbolic() {
            Tensor::symbolic([b, self.seq], &dev)
        } else {
            let row: Vec<f32> = (0..self.seq).map(|i| i as f32).collect();
            let mut all = Vec::with_capacity(b * self.seq);
            for _ in 0..b {
                all.extend_from_slice(&row);
            }
            Tensor::from_vec(all, [b, self.seq], &dev)
        };
        let pos = ops::embedding(g, &g.leaf(&self.positions), &g.constant(pos_ids));
        ops::add(g, tok, pos)
    }

    /// Embeds `tokens` under module `scope`, then applies dropout `p`:
    /// the front of every model.
    pub(crate) fn front(&self, g: &Graph, scope: &str, tokens: &Tensor, p: f32) -> Value {
        let ids = g.constant(tokens.clone());
        g.scoped(scope, || maybe_dropout(g, self.forward(g, &ids), p))
    }

    /// This layer's parameters.
    pub(crate) fn parameters(&self) -> Vec<Var> {
        vec![self.tokens.clone(), self.positions.clone()]
    }
}

/// Applies dropout when `p > 0` (a no-op wrapper otherwise, so tiny
/// deterministic tests can disable it). Consumes `x`, as
/// [`ops::dropout`] does.
pub(crate) fn maybe_dropout(g: &Graph, x: Value, p: f32) -> Value {
    if p > 0.0 {
        ops::dropout(g, x, p)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_autograd::ops::{mean_all, sum_all};

    #[test]
    fn linear_shapes_and_grads() {
        let dev = Device::cpu();
        let mut rng = Prng::seed_from_u64(1);
        let lin = Linear::new("l", 4, 6, &mut rng, &dev);
        let g = Graph::new(&dev, 1);
        let x = g.constant(Tensor::ones([2, 4], &dev));
        let y = lin.forward(&g, &x);
        assert_eq!(y.dims(), &[2, 6]);
        let loss = sum_all(&g, &y);
        g.backward(&loss);
        assert!(lin.weight.grad().is_some());
        assert_eq!(
            lin.bias.as_ref().unwrap().grad().unwrap().to_vec(),
            vec![2.0; 6]
        );
    }

    #[test]
    fn layernorm_normalises_and_learns() {
        let dev = Device::cpu();
        let ln = LayerNorm::new("ln", 4, &dev);
        let g = Graph::new(&dev, 1);
        let x = g.constant(Tensor::from_vec(vec![1., 2., 3., 4.], [1, 4], &dev));
        let y = ln.forward(&g, &x);
        let v = y.tensor().to_vec();
        let mean: f32 = v.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        let loss = mean_all(&g, &y);
        g.backward(&loss);
        assert!(ln.gamma.grad().is_some() && ln.beta.grad().is_some());
    }

    #[test]
    fn embedding_adds_positions() {
        let dev = Device::cpu();
        let mut rng = Prng::seed_from_u64(2);
        let emb = Embedding::new("e", 5, 3, 2, &mut rng, &dev);
        let g = Graph::new(&dev, 1);
        let ids = g.constant(Tensor::from_vec(vec![0., 0., 0.], [1, 3], &dev));
        let y = emb.forward(&g, &ids);
        assert_eq!(y.dims(), &[1, 3, 2]);
        // Same token at different positions must differ (positions add).
        let v = y.tensor().to_vec();
        assert_ne!(v[0..2], v[2..4]);
    }

    #[test]
    fn parameters_are_tagged_parameter_class() {
        let dev = Device::cpu();
        let mut rng = Prng::seed_from_u64(3);
        let lin = Linear::new("l", 2, 2, &mut rng, &dev);
        assert_eq!(lin.weight.tensor().mem_class(), MemClass::Parameter);
        assert_eq!(
            lin.bias.as_ref().unwrap().tensor().mem_class(),
            MemClass::Parameter
        );
        let ln = LayerNorm::new("n", 2, &dev);
        assert_eq!(ln.gamma.tensor().mem_class(), MemClass::Parameter);
    }
}
