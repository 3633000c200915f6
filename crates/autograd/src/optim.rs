//! Optimizers.
//!
//! The paper's evaluation uses plain SGD (Section 4.1) precisely because
//! it keeps optimizer state at zero bytes, isolating activation memory;
//! we provide SGD (with optional momentum, which *does* allocate state
//! tagged [`MemClass::OptimizerState`] so memory reports attribute it
//! correctly).

use crate::var::Var;
use ssdtrain_tensor::{MemClass, Tensor};

/// Stochastic gradient descent over a set of parameters.
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Var>,
    lr: f32,
    momentum: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// Plain SGD (`momentum = 0`, no optimizer state — the paper's
    /// configuration).
    pub fn new(params: Vec<Var>, lr: f32) -> Sgd {
        Sgd::with_momentum(params, lr, 0.0)
    }

    /// SGD with classical momentum; allocates one velocity tensor per
    /// parameter on first step.
    pub fn with_momentum(params: Vec<Var>, lr: f32, momentum: f32) -> Sgd {
        let n = params.len();
        Sgd {
            params,
            lr,
            momentum,
            velocity: vec![None; n],
        }
    }

    /// Parameters managed by this optimizer.
    pub fn params(&self) -> &[Var] {
        &self.params
    }

    /// Learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Momentum coefficient (0 = stateless SGD).
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// Number of managed parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the optimizer manages no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The velocity tensor of parameter `i`, if momentum allocated one.
    /// Offload engines use this to move optimizer state through the
    /// tier stack between steps.
    pub fn velocity(&self, i: usize) -> Option<&Tensor> {
        self.velocity.get(i).and_then(|v| v.as_ref())
    }

    /// Materialises the velocity tensor for parameter `i` ahead of the
    /// first update (zeros, tagged [`MemClass::OptimizerState`]) so an
    /// offload engine can place state before any step ran. Numerically
    /// identical to the lazy allocation: `v₁ = 0·m + g₁ = g₁` either
    /// way. No-op (returning `None`) when momentum is zero.
    pub fn ensure_velocity(&mut self, i: usize) -> Option<&Tensor> {
        if self.momentum <= 0.0 || i >= self.params.len() {
            return None;
        }
        if self.velocity[i].is_none() {
            let p = self.params[i].tensor();
            let dev = p.device().clone();
            let shape = p.shape().clone();
            let v = dev.with_class(MemClass::OptimizerState, || {
                if p.has_data() {
                    Tensor::zeros(shape.clone(), &dev)
                } else {
                    Tensor::symbolic(shape.clone(), &dev)
                }
            });
            self.velocity[i] = Some(v);
        }
        self.velocity[i].as_ref()
    }

    /// Applies one update from the accumulated gradients **in place** —
    /// the parameter's storage identity is preserved across steps, just
    /// like `torch.optim.SGD`, which is what keeps the SSDTrain cache's
    /// parameter registration valid for the whole run. Parameters with
    /// no gradient are skipped. Symbolic parameters are left untouched
    /// (their update cost is a constant offset, paper Section 4.1).
    pub fn step(&mut self) {
        self.step_range(0..self.params.len());
    }

    /// Applies the update to the parameter slice `range` only. This is
    /// the per-stage job an overlapped optimizer schedule runs: stage
    /// *j* updates its own parameters while other stages' updates are
    /// still waiting on their state loads. Equivalent to [`Sgd::step`]
    /// when called once per disjoint range covering all parameters.
    pub fn step_range(&mut self, range: std::ops::Range<usize>) {
        let lr = self.lr;
        let range = range.start.min(self.params.len())..range.end.min(self.params.len());
        for (i, p) in self.params[range.clone()]
            .iter()
            .enumerate()
            .map(|(o, p)| (range.start + o, p))
        {
            let Some(grad) = p.grad() else { continue };
            let t = p.tensor();
            if !t.has_data() || !grad.has_data() {
                continue;
            }
            let update = if self.momentum > 0.0 {
                let v_new = match &self.velocity[i] {
                    Some(v) => v.scale(self.momentum).add(&grad),
                    None => grad,
                }
                .deep_clone_as(MemClass::OptimizerState);
                self.velocity[i] = Some(v_new.clone());
                v_new
            } else {
                grad
            };
            t.zip_in_place(&update, |w, g| *w -= lr * g);
        }
    }

    /// Clears every parameter's gradient.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_tensor::Device;

    #[test]
    fn sgd_moves_against_gradient() {
        let d = Device::cpu();
        let w = Var::new("w", Tensor::from_vec(vec![1.0, -1.0], [2], &d));
        w.accumulate_grad(&Tensor::from_vec(vec![0.5, -0.5], [2], &d));
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        opt.step();
        let t = w.tensor().to_vec();
        assert!((t[0] - 0.95).abs() < 1e-6);
        assert!((t[1] + 0.95).abs() < 1e-6);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        let d = Device::cpu();
        let w = Var::new("w", Tensor::from_vec(vec![0.0], [1], &d));
        let mut opt = Sgd::with_momentum(vec![w.clone()], 1.0, 0.5);
        w.accumulate_grad(&Tensor::from_vec(vec![1.0], [1], &d));
        opt.step();
        assert!((w.tensor().to_vec()[0] + 1.0).abs() < 1e-6);
        opt.zero_grad();
        w.accumulate_grad(&Tensor::from_vec(vec![1.0], [1], &d));
        opt.step();
        // v = 0.5 * 1 + 1 = 1.5 -> w = -1 - 1.5 = -2.5
        assert!((w.tensor().to_vec()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn params_without_grad_are_skipped() {
        let d = Device::cpu();
        let w = Var::new("w", Tensor::from_vec(vec![3.0], [1], &d));
        let mut opt = Sgd::new(vec![w.clone()], 0.1);
        opt.step();
        assert_eq!(w.tensor().to_vec(), vec![3.0]);
    }

    #[test]
    fn step_range_updates_only_its_slice() {
        let d = Device::cpu();
        let a = Var::new("a", Tensor::from_vec(vec![1.0], [1], &d));
        let b = Var::new("b", Tensor::from_vec(vec![1.0], [1], &d));
        a.accumulate_grad(&Tensor::ones([1], &d));
        b.accumulate_grad(&Tensor::ones([1], &d));
        let mut opt = Sgd::new(vec![a.clone(), b.clone()], 0.5);
        opt.step_range(0..1);
        assert!((a.tensor().to_vec()[0] - 0.5).abs() < 1e-6);
        assert_eq!(b.tensor().to_vec(), vec![1.0]);
        opt.step_range(1..2);
        assert!((b.tensor().to_vec()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn per_stage_ranges_match_one_full_step() {
        let d = Device::cpu();
        let mk = |vals: Vec<f32>| {
            let vars: Vec<Var> = vals
                .iter()
                .enumerate()
                .map(|(i, v)| Var::new(format!("p{i}"), Tensor::from_vec(vec![*v], [1], &d)))
                .collect();
            for (i, v) in vars.iter().enumerate() {
                v.accumulate_grad(&Tensor::from_vec(vec![0.25 * (i as f32 + 1.0)], [1], &d));
            }
            vars
        };
        let full = mk(vec![1.0, 2.0, 3.0, 4.0]);
        let staged = mk(vec![1.0, 2.0, 3.0, 4.0]);
        let mut opt_full = Sgd::with_momentum(full.clone(), 0.1, 0.5);
        let mut opt_staged = Sgd::with_momentum(staged.clone(), 0.1, 0.5);
        opt_full.step();
        // Stages applied out of order still cover every parameter once.
        opt_staged.step_range(2..4);
        opt_staged.step_range(0..2);
        for (f, s) in full.iter().zip(&staged) {
            assert_eq!(f.tensor().to_vec(), s.tensor().to_vec());
        }
    }

    #[test]
    fn ensure_velocity_preallocates_without_changing_numerics() {
        let d = Device::cpu();
        let lazy = Var::new("l", Tensor::from_vec(vec![0.0], [1], &d));
        let eager = Var::new("e", Tensor::from_vec(vec![0.0], [1], &d));
        let mut opt_lazy = Sgd::with_momentum(vec![lazy.clone()], 1.0, 0.5);
        let mut opt_eager = Sgd::with_momentum(vec![eager.clone()], 1.0, 0.5);
        assert!(opt_eager.ensure_velocity(0).is_some());
        assert_eq!(
            opt_eager.velocity(0).unwrap().mem_class(),
            MemClass::OptimizerState
        );
        for _ in 0..3 {
            lazy.accumulate_grad(&Tensor::ones([1], &d));
            eager.accumulate_grad(&Tensor::ones([1], &d));
            opt_lazy.step();
            opt_eager.step();
            opt_lazy.zero_grad();
            opt_eager.zero_grad();
        }
        assert_eq!(lazy.tensor().to_vec(), eager.tensor().to_vec());
        // Stateless SGD has no velocity to materialise.
        let mut plain = Sgd::new(vec![lazy], 0.1);
        assert!(plain.ensure_velocity(0).is_none());
    }

    #[test]
    fn momentum_state_is_tagged_optimizer_state() {
        let d = Device::cpu();
        let w = Var::new("w", Tensor::from_vec(vec![0.0], [1], &d));
        let mut opt = Sgd::with_momentum(vec![w.clone()], 1.0, 0.9);
        w.accumulate_grad(&Tensor::ones([1], &d));
        opt.step();
        assert_eq!(
            opt.velocity[0].as_ref().unwrap().mem_class(),
            MemClass::OptimizerState
        );
    }
}
