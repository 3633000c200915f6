//! Synthetic training batches.
//!
//! The paper trains on the OSCAR corpus; none of its measurements depend
//! on token *values*, only on tensor shapes, so a seeded synthetic token
//! stream is an exact substitute (see DESIGN.md).

use crate::config::{Arch, ModelConfig};
use ssdtrain_tensor::{Device, Prng, Tensor};

/// One training batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input token ids, `[batch, seq]` (encoder side for T5).
    pub tokens: Tensor,
    /// Decoder input ids for T5, `[batch, seq]`.
    pub dec_tokens: Option<Tensor>,
    /// Target token ids, `[batch, seq]`.
    pub targets: Tensor,
    /// Batch size.
    pub batch: usize,
}

impl Batch {
    /// Generates a deterministic batch for `cfg` with the given seed.
    pub fn synthetic(cfg: &ModelConfig, batch: usize, seed: u64, device: &Device) -> Batch {
        let mut rng = Prng::seed_from_u64(seed);
        let n = batch * cfg.seq;
        let draw = |rng: &mut Prng| -> Tensor {
            if device.is_symbolic() {
                Tensor::symbolic([batch, cfg.seq], device)
            } else {
                let ids: Vec<f32> = (0..n)
                    .map(|_| rng.next_below(cfg.vocab as u64) as f32)
                    .collect();
                Tensor::from_vec(ids, [batch, cfg.seq], device)
            }
        };
        let tokens = draw(&mut rng);
        let dec_tokens = match cfg.arch {
            Arch::T5 => Some(draw(&mut rng)),
            _ => None,
        };
        // Next-token targets: the input shifted by one with a fresh final
        // token (GPT); BERT reconstructs its inputs; T5 predicts the
        // decoder stream shifted. All reduce to "a [batch, seq] id
        // tensor", which is what the loss needs.
        let targets = draw(&mut rng);
        Batch {
            tokens,
            dec_tokens,
            targets,
            batch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let a = Batch::synthetic(&cfg, 2, 5, &dev);
        let b = Batch::synthetic(&cfg, 2, 5, &dev);
        assert_eq!(a.tokens.to_vec(), b.tokens.to_vec());
        assert_eq!(a.targets.to_vec(), b.targets.to_vec());
    }

    #[test]
    fn ids_are_in_vocab_range() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_gpt();
        let b = Batch::synthetic(&cfg, 4, 9, &dev);
        for id in b.tokens.to_vec() {
            assert!((id as usize) < cfg.vocab);
        }
    }

    #[test]
    fn t5_batches_carry_decoder_tokens() {
        let dev = Device::cpu();
        let b = Batch::synthetic(&ModelConfig::tiny_t5(), 2, 1, &dev);
        assert!(b.dec_tokens.is_some());
        let b2 = Batch::synthetic(&ModelConfig::tiny_gpt(), 2, 1, &dev);
        assert!(b2.dec_tokens.is_none());
    }

    #[test]
    fn symbolic_batches_have_shape_only() {
        let dev = Device::symbolic();
        let b = Batch::synthetic(&ModelConfig::tiny_gpt(), 2, 1, &dev);
        assert_eq!(b.tokens.dims(), &[2, 8]);
        assert!(!b.tokens.has_data());
    }
}
