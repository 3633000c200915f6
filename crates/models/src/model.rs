//! The unified model handle.

use crate::batch::Batch;
use crate::config::{Arch, ModelConfig, Recompute};
use crate::lm::LmModel;
use crate::t5::T5Model;
use ssdtrain_autograd::{Graph, Value, Var};
use ssdtrain_tensor::Device;

/// Any of the three evaluation architectures behind one interface.
#[derive(Debug, Clone)]
pub enum Model {
    /// Decoder-only (GPT) or encoder-only (BERT).
    Lm(LmModel),
    /// Encoder-decoder.
    T5(T5Model),
}

impl Model {
    /// Builds the architecture selected by `cfg.arch`.
    pub fn build(cfg: &ModelConfig, dev: &Device, seed: u64) -> Model {
        match cfg.arch {
            Arch::Gpt | Arch::Bert => Model::Lm(LmModel::new(cfg, |_| dev, seed)),
            Arch::T5 => Model::T5(T5Model::new(cfg, dev, seed)),
        }
    }

    /// Forward pass to the scalar training loss.
    pub fn forward_loss(&self, g: &Graph, batch: &Batch, recompute: Recompute) -> Value {
        match self {
            Model::Lm(m) => m.forward_loss(g, batch, recompute),
            Model::T5(m) => m.forward_loss(g, batch, recompute),
        }
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        match self {
            Model::Lm(m) => m.parameters(),
            Model::T5(m) => m.parameters(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        match self {
            Model::Lm(m) => &m.cfg,
            Model::T5(m) => &m.cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches_on_arch() {
        let dev = Device::cpu();
        for (cfg, head) in [
            (ModelConfig::tiny_gpt(), "head.weight"),
            (ModelConfig::tiny_bert(), "mlm_head.weight"),
        ] {
            let Model::Lm(m) = Model::build(&cfg, &dev, 1) else {
                panic!("{} builds an LmModel", cfg.arch);
            };
            assert_eq!(m.cfg.arch, cfg.arch);
            let last = m.parameters().pop().expect("a head");
            assert_eq!(last.name(), head);
        }
        assert!(matches!(
            Model::build(&ModelConfig::tiny_t5(), &dev, 1),
            Model::T5(_)
        ));
    }

    #[test]
    fn param_count_tracks_hidden_squared_growth() {
        // Symbolic devices cost nothing; check the ~12·L·H² transformer
        // parameter law at paper shapes.
        let dev = Device::symbolic();
        let cfg = ModelConfig::paper_scale(Arch::Bert, 1024, 3);
        let m = Model::build(&cfg, &dev, 1);
        let n: f64 = m.parameters().iter().map(|p| p.numel() as f64).sum();
        let law = 12.0 * 3.0 * 1024.0f64.powi(2);
        // Embeddings and the MLM head add vocab terms on top of the law.
        let extra = 2.0 * 50304.0 * 1024.0;
        assert!(
            (n / (law + extra) - 1.0).abs() < 0.15,
            "count {n} vs law {law} + {extra}"
        );
    }

    #[test]
    fn all_three_archs_train_one_numeric_step() {
        let dev = Device::cpu();
        for cfg in [
            ModelConfig::tiny_gpt(),
            ModelConfig::tiny_bert(),
            ModelConfig::tiny_t5(),
        ] {
            let m = Model::build(&cfg, &dev, 7);
            let g = Graph::new(&dev, 1);
            let b = Batch::synthetic(&cfg, 2, 2, &dev);
            let loss = m.forward_loss(&g, &b, Recompute::None);
            assert!(loss.tensor().item().is_finite(), "{}", cfg.tag());
            g.backward(&loss);
            let with_grads = m.parameters().iter().filter(|p| p.grad().is_some()).count();
            assert_eq!(with_grads, m.parameters().len(), "{}", cfg.tag());
        }
    }
}
