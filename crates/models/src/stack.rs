//! A stack of transformer layers with selectable activation placement.

use crate::blocks::TransformerLayer;
use crate::config::{ModelConfig, Recompute};
use ssdtrain_autograd::{Graph, Value, Var};
use ssdtrain_tensor::{Device, Prng};
use std::ops::RangeBounds;
use std::sync::Arc;

/// `n` transformer layers applied in sequence, each under a
/// `"{prefix}{i}"` module scope.
#[derive(Debug, Clone)]
pub(crate) struct TransformerStack {
    layers: Vec<Arc<TransformerLayer>>,
    /// Each layer's scope name, built once rather than per step.
    names: Vec<String>,
}

impl TransformerStack {
    /// Builds `n` layers, layer `i`'s parameters on `device(i)`.
    pub(crate) fn new<'d>(
        prefix: &str,
        n: usize,
        cfg: &ModelConfig,
        causal: bool,
        with_cross: bool,
        rng: &mut Prng,
        device: impl Fn(usize) -> &'d Device,
    ) -> TransformerStack {
        let names: Vec<String> = (0..n).map(|i| format!("{prefix}{i}")).collect();
        let layers = (names.iter().enumerate())
            .map(|(i, name)| TransformerLayer::new(name, cfg, causal, with_cross, rng, device(i)))
            .collect();
        TransformerStack { layers, names }
    }

    /// Applies every layer; layers selected by `recompute` run under
    /// activation checkpointing.
    pub(crate) fn forward(
        &self,
        g: &Graph,
        x: &Value,
        ctx: Option<&Value>,
        recompute: Recompute,
    ) -> Value {
        self.forward_range(g, x, ctx, 0..self.layers.len(), recompute)
    }

    /// Applies only the layers in `range` — one pipeline stage's slice.
    ///
    /// # Panics
    /// Panics if the range exceeds the stack.
    pub(crate) fn forward_range(
        &self,
        g: &Graph,
        x: &Value,
        ctx: Option<&Value>,
        range: std::ops::Range<usize>,
        recompute: Recompute,
    ) -> Value {
        assert!(range.end <= self.layers.len(), "stage range out of bounds");
        let mut h = x.clone();
        for i in range {
            let layer = &self.layers[i];
            h = g.scoped(&self.names[i], || {
                if recompute.applies_to(i) {
                    layer.forward_checkpointed(g, &h, ctx)
                } else {
                    layer.forward(g, &h, ctx)
                }
            });
        }
        h
    }

    /// Number of layers.
    pub(crate) fn len(&self) -> usize {
        self.layers.len()
    }

    /// The parameters of the layers in `range` (`..` for all), in layer
    /// order.
    pub(crate) fn parameters(&self, range: impl RangeBounds<usize>) -> Vec<Var> {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        self.layers[range]
            .iter()
            .flat_map(|l| l.parameters())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_tensor::Tensor;

    #[test]
    fn stack_applies_all_layers() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let mut rng = Prng::seed_from_u64(1);
        let stack = TransformerStack::new("layer", 3, &cfg, true, false, &mut rng, |_| &dev);
        assert_eq!(stack.len(), 3);
        let g = Graph::new(&dev, 1);
        let x = g.constant(Tensor::ones([1, cfg.seq, cfg.hidden], &dev));
        let y = stack.forward(&g, &x, None, Recompute::None);
        assert_eq!(y.dims(), x.dims());
        // 3 layers × (2 LN + 4×(w+b) attn + 2×(w+b) mlp) vars.
        assert_eq!(stack.parameters(..).len(), 3 * (4 + 8 + 4));
    }

    #[test]
    fn recompute_path_matches_plain() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let mut rng = Prng::seed_from_u64(2);
        let stack = TransformerStack::new("layer", 2, &cfg, true, false, &mut rng, |_| &dev);
        let mut xr = Prng::seed_from_u64(3);
        let x0 = Tensor::randn([1, cfg.seq, cfg.hidden], 0.4, &mut xr, &dev);
        let g1 = Graph::new(&dev, 5);
        let y1 = stack.forward(&g1, &g1.constant(x0.clone()), None, Recompute::None);
        let g2 = Graph::new(&dev, 5);
        let y2 = stack.forward(&g2, &g2.constant(x0), None, Recompute::All);
        assert_eq!(y1.tensor().to_vec(), y2.tensor().to_vec());
    }
}
