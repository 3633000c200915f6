//! [`crate::LmModel`] as BERT: a bidirectional encoder whose early
//! positions see later tokens.

mod tests {
    use crate::{Batch, LmModel, ModelConfig, Recompute};
    use ssdtrain_autograd::Graph;
    use ssdtrain_tensor::{Device, Tensor};

    #[test]
    fn bidirectional_attention_sees_the_future() {
        // Unlike GPT, changing a later token must change position-0
        // hidden states.
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_bert();
        let m = LmModel::new(&cfg, |_| &dev, 3);

        let hidden_at_pos0 = |last_tok: f32| -> Vec<f32> {
            let g = Graph::new(&dev, 1);
            let mut toks = vec![1.0f32; cfg.seq];
            *toks.last_mut().expect("seq > 0") = last_tok;
            let ids = g.constant(Tensor::from_vec(toks, [1, cfg.seq], &dev));
            let h = m.embed.forward(&g, &ids);
            let h = m.stack.forward(&g, &h, None, Recompute::None);
            h.tensor().to_vec()[..cfg.hidden].to_vec()
        };

        assert_ne!(hidden_at_pos0(2.0), hidden_at_pos0(9.0));
    }

    #[test]
    fn loss_is_finite_and_backward_fills_grads() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_bert();
        let m = LmModel::new(&cfg, |_| &dev, 1);
        let g = Graph::new(&dev, 1);
        let b = Batch::synthetic(&cfg, 2, 5, &dev);
        let loss = m.forward_loss(&g, &b, Recompute::None);
        assert!(loss.tensor().item().is_finite());
        g.backward(&loss);
        assert!(m.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn recompute_matches_plain() {
        let dev = Device::cpu();
        let cfg = ModelConfig::tiny_bert();
        let m = LmModel::new(&cfg, |_| &dev, 2);
        let b = Batch::synthetic(&cfg, 1, 9, &dev);
        let l1 = {
            let g = Graph::new(&dev, 4);
            m.forward_loss(&g, &b, Recompute::None).tensor().item()
        };
        let l2 = {
            let g = Graph::new(&dev, 4);
            m.forward_loss(&g, &b, Recompute::All).tensor().item()
        };
        assert_eq!(l1, l2);
    }
}
