//! GPT: the decoder-only model (paper Figure 3).

use crate::batch::Batch;
use crate::config::{ModelConfig, Recompute};
use crate::layers::{maybe_dropout, Embedding, LayerNorm, Linear};
use crate::stack::TransformerStack;
use ssdtrain_autograd::{ops, Graph, Value, Var};
use ssdtrain_tensor::{Device, Prng};

/// A GPT-style causal language model: embeddings, `L` decoder layers, a
/// final layer-norm and an LM head trained with next-token
/// cross-entropy.
#[derive(Debug, Clone)]
pub struct GptModel {
    cfg: ModelConfig,
    embed: Embedding,
    stack: TransformerStack,
    ln_f: LayerNorm,
    head: Linear,
}

impl crate::model::StagedModel for GptModel {
    fn forward_embed(&self, g: &Graph, batch: &Batch) -> Value {
        GptModel::forward_embed(self, g, batch)
    }
    fn forward_layers(
        &self,
        g: &Graph,
        x: &Value,
        range: std::ops::Range<usize>,
        recompute: Recompute,
    ) -> Value {
        GptModel::forward_layers(self, g, x, range, recompute)
    }
    fn forward_head_loss(&self, g: &Graph, h: &Value, batch: &Batch) -> Value {
        GptModel::forward_head_loss(self, g, h, batch)
    }
    fn layer_count(&self) -> usize {
        GptModel::layer_count(self)
    }
    fn stage_parameters(&self) -> Vec<Var> {
        self.parameters()
    }
}

impl GptModel {
    /// Builds the model with deterministic initialisation.
    pub fn new(cfg: &ModelConfig, dev: &Device, seed: u64) -> GptModel {
        let mut rng = Prng::seed_from_u64(seed);
        GptModel {
            cfg: cfg.clone(),
            embed: Embedding::new("embed", cfg.vocab, cfg.seq, cfg.hidden, &mut rng, dev),
            stack: TransformerStack::new("layer", cfg.layers, cfg, true, false, &mut rng, dev),
            ln_f: LayerNorm::new("ln_f", cfg.hidden, dev),
            head: Linear::new_no_bias("head", cfg.hidden, cfg.vocab / cfg.tp, &mut rng, dev),
        }
    }

    /// Forward pass to the mean cross-entropy loss.
    pub fn forward_loss(&self, g: &Graph, batch: &Batch, recompute: Recompute) -> Value {
        let h = self.forward_embed(g, batch);
        let h = self.forward_layers(g, &h, 0..self.layer_count(), recompute);
        self.forward_head_loss(g, &h, batch)
    }

    /// Embedding front of the model (pipeline stage 0's prologue).
    pub fn forward_embed(&self, g: &Graph, batch: &Batch) -> Value {
        let ids = g.constant(batch.tokens.clone());
        g.scoped("embed", || {
            let e = self.embed.forward(g, &ids);
            maybe_dropout(g, &e, self.cfg.dropout_p)
        })
    }

    /// A contiguous slice of transformer layers (one pipeline stage).
    pub fn forward_layers(
        &self,
        g: &Graph,
        x: &Value,
        range: std::ops::Range<usize>,
        recompute: Recompute,
    ) -> Value {
        self.stack.forward_range(g, x, None, range, recompute)
    }

    /// Final layer-norm + LM head + loss (the last stage's epilogue).
    pub fn forward_head_loss(&self, g: &Graph, h: &Value, batch: &Batch) -> Value {
        g.scoped("head", || {
            let normed = self.ln_f.forward(g, h);
            let logits = self.head.forward(g, &normed);
            let n = batch.batch * self.cfg.seq;
            let flat = ops::reshape(g, &logits, [n, self.cfg.vocab / self.cfg.tp]);
            let targets = g.constant(batch.targets.clone());
            ops::cross_entropy_mean(g, &flat, &targets)
        })
    }

    /// Number of transformer layers.
    pub fn layer_count(&self) -> usize {
        self.stack.len()
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.embed.parameters();
        p.extend(self.stack.parameters());
        p.extend(self.ln_f.parameters());
        p.extend(self.head.parameters());
        p
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_tensor::MemClass;

    #[test]
    fn loss_is_near_log_vocab_at_init() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let m = GptModel::new(&cfg, &dev, 1);
        let g = Graph::new(&dev, 1);
        let b = Batch::synthetic(&cfg, 2, 3, &dev);
        let loss = m.forward_loss(&g, &b, Recompute::None).tensor().item();
        let uniform = (cfg.vocab as f32).ln();
        assert!(
            (loss - uniform).abs() < 1.0,
            "loss {loss} vs ln|V| {uniform}"
        );
    }

    #[test]
    fn training_reduces_loss() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let m = GptModel::new(&cfg, &dev, 2);
        let b = Batch::synthetic(&cfg, 2, 7, &dev);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..8 {
            let g = Graph::new(&dev, 1);
            let loss = m.forward_loss(&g, &b, Recompute::None);
            last = loss.tensor().item();
            first.get_or_insert(last);
            g.backward(&loss);
            for p in m.parameters() {
                if let Some(grad) = p.grad() {
                    let next = p.tensor().zip_with(&grad, |w, g| w - g * 0.5);
                    p.set_tensor(next.deep_clone_as(MemClass::Parameter));
                    p.zero_grad();
                }
            }
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.8,
            "loss should drop on a memorisable batch: {first} -> {last}"
        );
    }

    #[test]
    fn gpt_memorises_a_fixed_batch() {
        // Long-horizon convergence: with enough SGD steps on one batch,
        // the loss should approach zero — a stringent end-to-end check
        // of every gradient in the stack.
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let m = GptModel::new(&cfg, &dev, 6);
        let b = Batch::synthetic(&cfg, 2, 99, &dev);
        let mut opt = ssdtrain_autograd::optim::Sgd::new(m.parameters(), 0.5);
        let mut last = f32::INFINITY;
        for _ in 0..120 {
            let g = Graph::new(&dev, 1);
            let loss = m.forward_loss(&g, &b, Recompute::None);
            last = loss.tensor().item();
            g.backward(&loss);
            opt.step();
            opt.zero_grad();
        }
        assert!(last < 0.1, "loss should approach zero: {last}");
    }

    #[test]
    fn causal_mask_blocks_future_influence_on_loss_grad() {
        // Gradients of the loss restricted to position 0 must not depend
        // on tokens at later positions. We check a weaker, cheap
        // property: changing only the last input token leaves the
        // model's logits at position 0 unchanged.
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let m = GptModel::new(&cfg, &dev, 3);

        let logits_at_pos0 = |last_tok: f32| -> Vec<f32> {
            let g = Graph::new(&dev, 1);
            let mut toks = vec![1.0f32; cfg.seq];
            *toks.last_mut().expect("seq > 0") = last_tok;
            let ids = g.constant(ssdtrain_tensor::Tensor::from_vec(toks, [1, cfg.seq], &dev));
            let h = m.embed.forward(&g, &ids);
            let h = m.stack.forward(&g, &h, None, Recompute::None);
            let normed = m.ln_f.forward(&g, &h);
            let logits = m.head.forward(&g, &normed);
            logits.tensor().to_vec()[..cfg.vocab].to_vec()
        };

        assert_eq!(logits_at_pos0(2.0), logits_at_pos0(9.0));
    }

    #[test]
    fn recompute_loss_matches_plain() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let m = GptModel::new(&cfg, &dev, 4);
        let b = Batch::synthetic(&cfg, 2, 11, &dev);
        let g1 = Graph::new(&dev, 5);
        let l1 = m.forward_loss(&g1, &b, Recompute::None).tensor().item();
        let g2 = Graph::new(&dev, 5);
        let l2 = m.forward_loss(&g2, &b, Recompute::All).tensor().item();
        assert_eq!(l1, l2);
    }

    #[test]
    fn symbolic_forward_propagates_to_scalar_loss() {
        let dev = Device::symbolic();
        let cfg = ModelConfig::paper_scale(crate::Arch::Gpt, 256, 2);
        let m = GptModel::new(&cfg, &dev, 1);
        let g = Graph::new(&dev, 1);
        let b = Batch::synthetic(&cfg, 2, 1, &dev);
        let loss = m.forward_loss(&g, &b, Recompute::None);
        assert_eq!(loss.tensor().numel(), 1);
        assert!(!loss.tensor().has_data());
        g.backward(&loss);
        assert!(m.parameters().iter().all(|p| p.grad().is_some()));
    }
}
