//! Embedding lookup and cross-entropy loss.

use crate::graph::{Graph, Op};
use crate::observer::OpCost;
use crate::ops::sym;
use crate::value::Value;
use ssdtrain_tensor::Tensor;

// ---------------------------------------------------------------------
// embedding
// ---------------------------------------------------------------------

struct EmbeddingOp {
    vocab: usize,
}

impl Op for EmbeddingOp {
    fn name(&self) -> &'static str {
        "embedding"
    }
    fn backward(
        &self,
        _g: &Graph,
        saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dy = super::out_grad(grads);
        let ids = &saved[0];
        let dtable = Tensor::embedding_grad(self.vocab, ids, dy);
        let cost = OpCost::new(dy.numel() as u64, dy.bytes(), dtable.bytes());
        grads_in[0] = Some(dtable);
        cost
    }
}

/// Looks `ids` (integer tokens stored as `f32`) up in a `[vocab, hidden]`
/// table. Saves `ids` only (small), never the table.
pub fn embedding(g: &Graph, table: &Value, ids: &Value) -> Value {
    let vocab = table.tensor().dim(0);
    let out = table.tensor().embedding(ids.tensor());
    let cost = OpCost::new(0, out.bytes() + ids.tensor().bytes(), out.bytes());
    g.record(
        EmbeddingOp { vocab },
        &[table, ids],
        out,
        [ids.tensor().clone()],
        cost,
    )
}

// ---------------------------------------------------------------------
// cross-entropy (mean over rows)
// ---------------------------------------------------------------------

struct CrossEntropyOp;

impl Op for CrossEntropyOp {
    fn name(&self) -> &'static str {
        "cross_entropy"
    }
    fn backward(
        &self,
        g: &Graph,
        saved: &[Tensor],
        grads: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        let dloss = super::out_grad(grads);
        let probs = &saved[0];
        let targets = &saved[1];
        let (n, v) = probs.shape().as_2d();
        let cost = OpCost::new(2 * probs.numel() as u64, probs.bytes(), probs.bytes());
        if !probs.has_data() || !targets.has_data() || !dloss.has_data() {
            grads_in[0] = Some(sym(*probs.shape(), g.device()));
            return cost;
        }
        let scale = dloss.item() / n as f32;
        let mut dl = probs.to_vec();
        targets.with_values(|tv| {
            for (row, &ft) in tv.iter().enumerate() {
                dl[row * v + ft as usize] -= 1.0;
            }
        });
        for x in dl.iter_mut() {
            *x *= scale;
        }
        grads_in[0] = Some(Tensor::from_vec(dl, *probs.shape(), g.device()));
        cost
    }
}

/// Mean cross-entropy of logits `[..., vocab]` against integer targets.
/// Saves the softmax probabilities and the targets.
pub fn cross_entropy_mean(g: &Graph, logits: &Value, targets: &Value) -> Value {
    let (loss, probs) = logits.tensor().cross_entropy(targets.tensor());
    let n = logits.tensor().numel() as u64;
    let cost = OpCost::new(6 * n, logits.tensor().bytes(), logits.tensor().bytes());
    g.record(
        CrossEntropyOp,
        &[logits, targets],
        loss,
        [probs, targets.tensor().clone()],
        cost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::Var;
    use ssdtrain_tensor::Device;

    #[test]
    fn embedding_grad_scatters_by_id() {
        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        let table = Var::new("emb", Tensor::zeros([4, 2], &d));
        let ids = g.constant(Tensor::from_vec(vec![1., 1., 3.], [3], &d));
        let e = embedding(&g, &g.leaf(&table), &ids);
        let loss = crate::ops::sum_all(&g, &e);
        g.backward(&loss);
        let gt = table.grad().unwrap().to_vec();
        assert_eq!(gt, vec![0., 0., 2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn cross_entropy_gradient_is_probs_minus_onehot() {
        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        let logits = Var::new("logits", Tensor::zeros([2, 2], &d));
        let targets = g.constant(Tensor::from_vec(vec![0., 1.], [2], &d));
        let loss = cross_entropy_mean(&g, &g.leaf(&logits), &targets);
        assert!((loss.tensor().item() - (2.0f32).ln()).abs() < 1e-6);
        g.backward(&loss);
        let gl = logits.grad().unwrap().to_vec();
        // probs = 0.5; (0.5 - onehot)/n with n = 2 rows.
        assert_eq!(gl, vec![-0.25, 0.25, 0.25, -0.25]);
    }

    #[test]
    fn cross_entropy_loss_decreases_with_sgd_step() {
        let d = Device::cpu();
        let mut rng = ssdtrain_tensor::Prng::seed_from_u64(11);
        let w0 = Tensor::randn([4, 3], 0.5, &mut rng, &d);
        let w = Var::new("w", w0);
        let x = Tensor::randn([8, 4], 1.0, &mut rng, &d);
        let t: Vec<f32> = (0..8).map(|i| (i % 3) as f32).collect();

        let run = |wv: &Var| -> f32 {
            let g = Graph::new(&d, 2);
            let xv = g.constant(x.clone());
            let tv = g.constant(Tensor::from_vec(t.clone(), [8], &d));
            let logits = crate::ops::matmul(&g, &xv, &g.leaf(wv));
            let loss = cross_entropy_mean(&g, &logits, &tv);
            let l = loss.tensor().item();
            g.backward(&loss);
            l
        };

        let l0 = run(&w);
        // Manual SGD step.
        let grad = w.grad().unwrap().to_vec();
        let cur = w.tensor().to_vec();
        let next: Vec<f32> = cur.iter().zip(&grad).map(|(a, b)| a - 0.5 * b).collect();
        w.set_tensor(Tensor::from_vec(next, [4, 3], &d));
        w.zero_grad();
        let l1 = run(&w);
        assert!(l1 < l0, "loss should drop: {l0} -> {l1}");
    }
}
