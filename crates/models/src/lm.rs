//! GPT and BERT: one language model whose architecture picks the
//! attention mask (paper Figure 3).

use crate::batch::Batch;
use crate::config::{Arch, ModelConfig, Recompute};
use crate::layers::{Embedding, LayerNorm, Linear};
use crate::stack::TransformerStack;
use ssdtrain_autograd::{ops, Graph, Value, Var};
use ssdtrain_tensor::{Device, Prng, Tensor};

/// A GPT- or BERT-style language model: embeddings, `L` transformer
/// layers, a final layer-norm and an LM head trained with token
/// cross-entropy. GPT (decoder-only) masks attention to the past and
/// predicts the next token; BERT (encoder-only) attends both ways and
/// reconstructs the target token at every position (the shapes and
/// FLOPs of masked-LM, which is all the evaluation depends on).
#[derive(Debug, Clone)]
pub struct LmModel {
    pub(crate) cfg: ModelConfig,
    pub(crate) embed: Embedding,
    pub(crate) stack: TransformerStack,
    pub(crate) ln_f: LayerNorm,
    pub(crate) head: Linear,
}

impl LmModel {
    /// Builds the model with deterministic initialisation: BERT's
    /// layers are bidirectional under an `mlm_head`, every other
    /// architecture gets GPT's causal layers under a `head`. Layer `i`'s
    /// parameters live on `device(i)`, the embedding on the first
    /// layer's device and the final norm and head on the last one's: a
    /// single GPU passes `|_| &dev`, a pipeline each layer's stage.
    pub fn new<'d>(cfg: &ModelConfig, device: impl Fn(usize) -> &'d Device, seed: u64) -> LmModel {
        let bert = cfg.arch == Arch::Bert;
        let head = if bert { "mlm_head" } else { "head" };
        let (first, last) = (device(0), device(cfg.layers.saturating_sub(1)));
        let mut rng = Prng::seed_from_u64(seed);
        LmModel {
            cfg: cfg.clone(),
            embed: Embedding::new("embed", cfg.vocab, cfg.seq, cfg.hidden, &mut rng, first),
            stack: TransformerStack::new("layer", cfg.layers, cfg, !bert, false, &mut rng, device),
            ln_f: LayerNorm::new("ln_f", cfg.hidden, last),
            head: Linear::new_no_bias(head, cfg.hidden, cfg.vocab / cfg.tp, &mut rng, last),
        }
    }

    /// Forward pass to the mean cross-entropy loss.
    pub fn forward_loss(&self, g: &Graph, batch: &Batch, recompute: Recompute) -> Value {
        let h = self.forward_embed(g, batch);
        let h = self.forward_layers(g, &h, 0..self.stack.len(), recompute);
        self.forward_head_loss(g, &h, batch)
    }

    /// Embedding front of the model (pipeline stage 0's prologue).
    pub fn forward_embed(&self, g: &Graph, batch: &Batch) -> Value {
        self.embed
            .front(g, "embed", &batch.tokens, self.cfg.dropout_p)
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
        head_loss(g, &self.ln_f, &self.head, h, &batch.targets)
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        self.stage_parameters(0..self.stack.len())
    }

    /// The parameters of the pipeline stage that runs `layers`: the
    /// embedding's when it starts at the first layer, its layers', and
    /// the final norm's and head's when it ends at the last layer.
    pub fn stage_parameters(&self, layers: std::ops::Range<usize>) -> Vec<Var> {
        let mut p = Vec::new();
        if layers.start == 0 {
            p.extend(self.embed.parameters());
        }
        let last = layers.end == self.stack.len();
        p.extend(self.stack.parameters(layers));
        if last {
            p.extend(self.ln_f.parameters());
            p.extend(self.head.parameters());
        }
        p
    }
}

/// Final layer-norm, LM head and mean cross-entropy against `targets`
/// under the `head` scope: the end of every model.
pub(crate) fn head_loss(
    g: &Graph,
    ln_f: &LayerNorm,
    head: &Linear,
    h: &Value,
    targets: &Tensor,
) -> Value {
    g.scoped("head", || {
        let normed = ln_f.forward(g, h);
        let logits = head.forward(g, &normed);
        // `[batch, seq, vocab shard]` to one row per token.
        let d = logits.dims();
        let flat = ops::reshape(g, &logits, [d[0] * d[1], d[2]]);
        let targets = g.constant(targets.clone());
        ops::cross_entropy_mean(g, &flat, &targets)
    })
}
