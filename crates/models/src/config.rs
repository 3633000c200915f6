//! Model configurations.

/// Which transformer layers run under activation checkpointing.
///
/// `FirstLayers(k)` recomputes the first `k` layers and leaves the rest
/// to whatever the session's placement strategy does with them — the
/// building block of hybrid recompute+offload points in the interior of
/// the ROK plane (the joint optimisation the paper's Section 4.4 leaves
/// open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Recompute {
    /// No checkpointing.
    #[default]
    None,
    /// Every layer is checkpointed (layerwise full recomputation).
    All,
    /// Only the first `k` layers (in forward order) are checkpointed.
    FirstLayers(usize),
}

impl Recompute {
    /// Whether layer `index` (0-based, per stack) is checkpointed.
    pub(crate) fn applies_to(self, index: usize) -> bool {
        match self {
            Recompute::None => false,
            Recompute::All => true,
            Recompute::FirstLayers(k) => index < k,
        }
    }
}

/// The three transformer families of the paper's evaluation
/// (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Decoder-only (causal attention).
    Gpt,
    /// Encoder-only (bidirectional attention).
    Bert,
    /// Encoder-decoder (bidirectional encoder, causal decoder with
    /// cross-attention).
    T5,
}

impl Arch {
    /// Lowercase label.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            Arch::Gpt => "gpt",
            Arch::Bert => "bert",
            Arch::T5 => "t5",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Hyperparameters of one model instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Architecture family.
    pub arch: Arch,
    /// Hidden dimension `H`.
    pub hidden: usize,
    /// Number of transformer layers `L` (for T5 this is the total; the
    /// decoder gets `L / 2` rounded down, per the paper's Section 4.1).
    pub layers: usize,
    /// Attention heads (the paper uses head dimension 128 at scale).
    pub heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length `S`.
    pub seq: usize,
    /// Dropout probability (applied to each red-bordered output of
    /// Figure 3).
    pub dropout_p: f32,
    /// Use the fused (FlashAttention-style) attention kernel; the
    /// unfused path materialises the `S×S` probabilities (pre-Flash
    /// behaviour, used for the selective-recomputation discussion).
    pub fused_attention: bool,
    /// Megatron-style tensor-parallel degree. The model instance
    /// represents **one GPU's shard**: attention heads and MLP inner
    /// dimensions divide by `tp`, and each block ends with a simulated
    /// allreduce. `tp > 1` is a timing/memory model — numeric values are
    /// one shard's partial sums, so functional tests use `tp = 1`.
    pub tp: usize,
}

impl ModelConfig {
    /// A paper-scale configuration: head dim 128, sequence length 1024,
    /// GPT-2 vocabulary (Section 4.1).
    ///
    /// # Panics
    /// Panics unless `hidden` is a multiple of 128.
    pub fn paper_scale(arch: Arch, hidden: usize, layers: usize) -> ModelConfig {
        assert_eq!(
            hidden % 128,
            0,
            "paper-scale hidden must be a multiple of 128"
        );
        ModelConfig {
            arch,
            hidden,
            layers,
            heads: hidden / 128,
            vocab: 50_304,
            seq: 1024,
            dropout_p: 0.1,
            fused_attention: true,
            tp: 1,
        }
    }

    /// A tiny numeric GPT for functional tests.
    pub fn tiny_gpt() -> ModelConfig {
        ModelConfig {
            arch: Arch::Gpt,
            hidden: 16,
            layers: 2,
            heads: 2,
            vocab: 11,
            seq: 8,
            dropout_p: 0.0,
            fused_attention: true,
            tp: 1,
        }
    }

    /// A tiny numeric BERT.
    pub fn tiny_bert() -> ModelConfig {
        ModelConfig {
            arch: Arch::Bert,
            ..ModelConfig::tiny_gpt()
        }
    }

    /// A tiny numeric T5.
    pub fn tiny_t5() -> ModelConfig {
        ModelConfig {
            arch: Arch::T5,
            layers: 4, // 2 encoder + 2 decoder
            ..ModelConfig::tiny_gpt()
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Number of encoder layers (all of them except for T5).
    pub(crate) fn encoder_layers(&self) -> usize {
        match self.arch {
            Arch::T5 => self.layers - self.layers / 2,
            _ => self.layers,
        }
    }

    /// Number of decoder layers (T5 only).
    pub(crate) fn decoder_layers(&self) -> usize {
        match self.arch {
            Arch::T5 => self.layers / 2,
            _ => 0,
        }
    }

    /// Returns this configuration sharded over `tp` GPUs.
    ///
    /// # Panics
    /// Panics if heads or the 4×hidden MLP width are not divisible by
    /// `tp`.
    pub fn with_tp(mut self, tp: usize) -> ModelConfig {
        assert!(tp >= 1, "tp must be at least 1");
        assert_eq!(self.heads % tp, 0, "heads must divide by tp");
        assert_eq!(4 * self.hidden % tp, 0, "MLP width must divide by tp");
        self.tp = tp;
        self
    }

    /// A short identifier such as `"bert-h8192-l4"`.
    pub fn tag(&self) -> String {
        format!("{}-h{}-l{}", self.arch, self.hidden, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_uses_head_dim_128() {
        let c = ModelConfig::paper_scale(Arch::Bert, 8192, 4);
        assert_eq!(c.heads, 64);
        assert_eq!(c.head_dim(), 128);
        assert_eq!(c.seq, 1024);
    }

    #[test]
    fn t5_splits_layers_rounding_decoder_down() {
        let c = ModelConfig {
            layers: 5,
            ..ModelConfig::tiny_t5()
        };
        assert_eq!(c.decoder_layers(), 2);
        assert_eq!(c.encoder_layers(), 3);
    }

    #[test]
    fn non_t5_has_no_decoder() {
        assert_eq!(ModelConfig::tiny_gpt().decoder_layers(), 0);
        assert_eq!(ModelConfig::tiny_bert().encoder_layers(), 2);
    }

    #[test]
    fn tag_is_stable() {
        assert_eq!(ModelConfig::tiny_gpt().tag(), "gpt-h16-l2");
    }

    #[test]
    #[should_panic(expected = "multiple of 128")]
    fn paper_scale_validates_hidden() {
        let _ = ModelConfig::paper_scale(Arch::Gpt, 1000, 2);
    }
}
