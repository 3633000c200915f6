//! T5: the encoder-decoder model.

use crate::batch::Batch;
use crate::config::{ModelConfig, Recompute};
use crate::layers::{Embedding, LayerNorm, Linear};
use crate::lm::head_loss;
use crate::stack::TransformerStack;
use ssdtrain_autograd::{Graph, Value, Var};
use ssdtrain_tensor::{Device, Prng};

/// A T5-style encoder-decoder: a bidirectional encoder stack, a causal
/// decoder stack whose layers cross-attend to the encoder output, and an
/// LM head over the decoder states. Per the paper (Section 4.1), the
/// decoder gets `L/2` layers rounded down.
#[derive(Debug, Clone)]
pub struct T5Model {
    pub(crate) cfg: ModelConfig,
    enc_embed: Embedding,
    dec_embed: Embedding,
    encoder: TransformerStack,
    decoder: TransformerStack,
    ln_f: LayerNorm,
    head: Linear,
}

impl T5Model {
    /// Builds the model with deterministic initialisation.
    pub(crate) fn new(cfg: &ModelConfig, dev: &Device, seed: u64) -> T5Model {
        let mut rng = Prng::seed_from_u64(seed);
        T5Model {
            cfg: cfg.clone(),
            enc_embed: Embedding::new("enc_embed", cfg.vocab, cfg.seq, cfg.hidden, &mut rng, dev),
            dec_embed: Embedding::new("dec_embed", cfg.vocab, cfg.seq, cfg.hidden, &mut rng, dev),
            encoder: TransformerStack::new(
                "enc",
                cfg.encoder_layers(),
                cfg,
                false,
                false,
                &mut rng,
                |_| dev,
            ),
            decoder: TransformerStack::new(
                "dec",
                cfg.decoder_layers(),
                cfg,
                true,
                true,
                &mut rng,
                |_| dev,
            ),
            ln_f: LayerNorm::new("ln_f", cfg.hidden, dev),
            head: Linear::new_no_bias("head", cfg.hidden, cfg.vocab / cfg.tp, &mut rng, dev),
        }
    }

    /// Forward pass to the mean cross-entropy loss over decoder outputs.
    ///
    /// # Panics
    /// Panics if the batch lacks decoder tokens.
    #[expect(clippy::expect_used, reason = "documented contract")]
    pub(crate) fn forward_loss(&self, g: &Graph, batch: &Batch, recompute: Recompute) -> Value {
        let p = self.cfg.dropout_p;
        let enc_h = self.enc_embed.front(g, "enc_embed", &batch.tokens, p);
        let enc_out = self.encoder.forward(g, &enc_h, None, recompute);

        let dec_tokens = batch
            .dec_tokens
            .as_ref()
            .expect("T5 batch needs decoder tokens");
        let dec_h = self.dec_embed.front(g, "dec_embed", dec_tokens, p);
        let dec_out = self.decoder.forward(g, &dec_h, Some(&enc_out), recompute);
        head_loss(g, &self.ln_f, &self.head, &dec_out, &batch.targets)
    }

    /// All trainable parameters.
    pub(crate) fn parameters(&self) -> Vec<Var> {
        let mut p = self.enc_embed.parameters();
        p.extend(self.dec_embed.parameters());
        p.extend(self.encoder.parameters(..));
        p.extend(self.decoder.parameters(..));
        p.extend(self.ln_f.parameters());
        p.extend(self.head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stacks_split_per_config() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_t5();
        let m = T5Model::new(&cfg, &dev, 1);
        assert_eq!(m.encoder.len(), 2);
        assert_eq!(m.decoder.len(), 2);
    }

    #[test]
    fn loss_backward_reaches_encoder_parameters() {
        // Gradient flow through cross-attention: encoder weights must
        // receive gradients from the decoder loss.
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_t5();
        let m = T5Model::new(&cfg, &dev, 2);
        let g = Graph::new(&dev, 1);
        let b = Batch::synthetic(&cfg, 2, 3, &dev);
        let loss = m.forward_loss(&g, &b, Recompute::None);
        assert!(loss.tensor().item().is_finite());
        g.backward(&loss);
        for p in m.encoder.parameters(..) {
            assert!(
                p.grad().is_some(),
                "encoder param {} missing grad",
                p.name()
            );
        }
    }

    #[test]
    fn recompute_matches_plain() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_t5();
        let m = T5Model::new(&cfg, &dev, 3);
        let b = Batch::synthetic(&cfg, 1, 13, &dev);
        let l1 = {
            let g = Graph::new(&dev, 6);
            m.forward_loss(&g, &b, Recompute::None).tensor().item()
        };
        let l2 = {
            let g = Graph::new(&dev, 6);
            m.forward_loss(&g, &b, Recompute::All).tensor().item()
        };
        assert_eq!(l1, l2);
    }
}
