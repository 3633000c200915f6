//! Activation checkpointing (layerwise full recomputation).
//!
//! [`checkpoint`] runs a segment with gradient recording disabled, saving
//! only the segment *inputs* (which still go through the pack hooks, so
//! they remain offloadable). During backward the segment is re-executed —
//! with the original RNG state, so dropout masks replay exactly — on a
//! child graph whose phase is [`Phase::Recompute`]; the SSDTrain cache
//! keeps recomputed activations in GPU memory instead of offloading them
//! (paper Algorithm 2 line 15). This is the "recompute" corner of the
//! recompute-offload-keep (ROK) design space.

use crate::graph::{Graph, Op};
use crate::observer::{OpCost, Phase};
use crate::value::Value;
use ssdtrain_tensor::{Prng, Tensor};
use std::rc::Rc;

/// The function a checkpointed segment re-runs: it receives the (child)
/// graph and the segment inputs and returns the segment outputs.
pub(crate) type SegmentFn = Rc<dyn Fn(&Graph, &[Value]) -> Vec<Value>>;

struct CheckpointOp {
    segment: SegmentFn,
    rng_at_entry: Prng,
}

impl Op for CheckpointOp {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn backward(
        &self,
        graph: &Graph,
        saved: &[Tensor],
        grads_out: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        // Recompute the segment on a child graph with the entry RNG state.
        let child = graph.recompute_child();
        child.set_rng(self.rng_at_entry.clone());
        let inputs: Vec<Value> = saved
            .iter()
            .enumerate()
            .map(|(i, t)| child.external(i, t.clone()))
            .collect();
        // Recomputed intermediates are activations (they occupy the same
        // memory the originals would have), not backward workspace.
        let outputs = child
            .device()
            .clone()
            .with_class(ssdtrain_tensor::MemClass::Activation, || {
                (self.segment)(&child, &inputs)
            });
        assert_eq!(
            outputs.len(),
            grads_out.len(),
            "checkpoint segment output arity changed between forward and recompute"
        );
        // Backprop through the recomputed subgraph; parameter grads
        // accumulate into their Vars directly, the segment inputs' into
        // the lent slots.
        child.set_phase(Phase::Backward);
        child.backward_from(&outputs, grads_out.iter().cloned(), grads_in);
        // Restore the surrounding phase for the parent's remaining work.
        child.set_phase(Phase::Backward);
        OpCost::default() // recompute ops reported individually
    }
}

/// Runs `segment` without saving its intermediate activations; they are
/// recomputed during backward.
///
/// The segment's inputs are saved (through the pack hooks). The returned
/// values carry gradients back to `inputs`.
///
/// ```
/// use ssdtrain_autograd::{checkpoint, Graph, Var, ops};
/// use ssdtrain_tensor::{Device, Tensor};
/// use std::rc::Rc;
///
/// let dev = Device::cpu();
/// let g = Graph::new(&dev, 1);
/// let w = Var::new("w", Tensor::from_vec(vec![3.0], [1, 1], &dev));
/// let x = g.constant(Tensor::from_vec(vec![2.0], [1, 1], &dev));
/// let w2 = w.clone();
/// let y = checkpoint(
///     &g,
///     Rc::new(move |cg: &Graph, ins: &[ssdtrain_autograd::Value]| {
///         vec![ops::matmul(cg, &ins[0], &cg.leaf(&w2))]
///     }),
///     &[x],
/// );
/// let loss = ops::mean_all(&g, &y[0]);
/// g.backward(&loss);
/// assert_eq!(w.grad().unwrap().to_vec(), vec![2.0]);
/// ```
pub fn checkpoint(g: &Graph, segment: SegmentFn, inputs: &[Value]) -> Vec<Value> {
    let rng_at_entry = g.rng_snapshot();
    // Run the segment without recording; outputs become plain tensors.
    let out_tensors: Vec<Tensor> = g.with_grad_disabled(|| {
        let vals = segment(g, inputs);
        vals.into_iter().map(|v| v.tensor().clone()).collect()
    });
    let op = CheckpointOp {
        segment,
        rng_at_entry,
    };
    let input_refs: Vec<&Value> = inputs.iter().collect();
    g.record(
        op,
        &input_refs,
        out_tensors,
        inputs.iter().map(|v| v.tensor().clone()),
        OpCost::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::var::Var;
    use ssdtrain_tensor::Device;

    #[test]
    fn checkpoint_matches_plain_execution() {
        let d = Device::cpu();
        let mut rng = ssdtrain_tensor::Prng::seed_from_u64(3);
        let w0 = Tensor::randn([4, 4], 0.5, &mut rng, &d);
        let x0 = Tensor::randn([2, 4], 1.0, &mut rng, &d);

        // Plain run.
        let w_plain = Var::new("w", w0.deep_clone_as(ssdtrain_tensor::MemClass::Parameter));
        let g1 = Graph::new(&d, 42);
        let x1 = g1.constant(x0.clone());
        let y1 = ops::gelu(&g1, &ops::matmul(&g1, &x1, &g1.leaf(&w_plain)));
        let l1 = ops::mean_all(&g1, &y1);
        g1.backward(&l1);

        // Checkpointed run.
        let w_ck = Var::new("w", w0.deep_clone_as(ssdtrain_tensor::MemClass::Parameter));
        let g2 = Graph::new(&d, 42);
        let x2 = g2.constant(x0.clone());
        let w_inner = w_ck.clone();
        let y2 = checkpoint(
            &g2,
            Rc::new(move |cg: &Graph, ins: &[Value]| {
                vec![ops::gelu(cg, &ops::matmul(cg, &ins[0], &cg.leaf(&w_inner)))]
            }),
            &[x2],
        );
        let l2 = ops::mean_all(&g2, &y2[0]);
        g2.backward(&l2);

        assert_eq!(l1.tensor().item(), l2.tensor().item());
        assert_eq!(
            w_plain.grad().unwrap().to_vec(),
            w_ck.grad().unwrap().to_vec(),
            "checkpointing must not change gradients"
        );
    }

    #[test]
    fn checkpoint_replays_dropout_mask() {
        let d = Device::cpu();
        // Loss must be differentiable through dropout; identical losses &
        // grads across two identical runs prove mask replay.
        let run = || {
            let w = Var::new("w", Tensor::ones([8, 8], &d));
            let g = Graph::new(&d, 77);
            let x = g.constant(Tensor::ones([2, 8], &d));
            let w2 = w.clone();
            let y = checkpoint(
                &g,
                Rc::new(move |cg: &Graph, ins: &[Value]| {
                    let h = ops::matmul(cg, &ins[0], &cg.leaf(&w2));
                    vec![ops::dropout(cg, h, 0.5)]
                }),
                &[x],
            );
            let l = ops::mean_all(&g, &y[0]);
            g.backward(&l);
            (l.tensor().item(), w.grad().unwrap().to_vec())
        };
        let (l1, g1) = run();
        let (l2, g2) = run();
        assert_eq!(l1, l2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn checkpoint_grad_equals_plain_with_dropout() {
        // Dropout inside a checkpoint: gradients must equal the
        // non-checkpointed run because the RNG state is restored.
        let d = Device::cpu();
        let w0 = Tensor::ones([4, 4], &d);

        let w_a = Var::new("w", w0.deep_clone_as(ssdtrain_tensor::MemClass::Parameter));
        let ga = Graph::new(&d, 123);
        let xa = ga.constant(Tensor::ones([2, 4], &d));
        let ha = ops::matmul(&ga, &xa, &ga.leaf(&w_a));
        let ya = ops::dropout(&ga, ha, 0.5);
        let la = ops::mean_all(&ga, &ya);
        ga.backward(&la);

        let w_b = Var::new("w", w0.deep_clone_as(ssdtrain_tensor::MemClass::Parameter));
        let gb = Graph::new(&d, 123);
        let xb = gb.constant(Tensor::ones([2, 4], &d));
        let w_inner = w_b.clone();
        let yb = checkpoint(
            &gb,
            Rc::new(move |cg: &Graph, ins: &[Value]| {
                let h = ops::matmul(cg, &ins[0], &cg.leaf(&w_inner));
                vec![ops::dropout(cg, h, 0.5)]
            }),
            &[xb],
        );
        let lb = ops::mean_all(&gb, &yb[0]);
        gb.backward(&lb);

        assert_eq!(la.tensor().item(), lb.tensor().item());
        assert_eq!(w_a.grad().unwrap().to_vec(), w_b.grad().unwrap().to_vec());
    }

    #[test]
    fn chained_checkpoints_propagate_input_grads() {
        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        let w1 = Var::new("w1", Tensor::from_vec(vec![2.0], [1, 1], &d));
        let w2 = Var::new("w2", Tensor::from_vec(vec![5.0], [1, 1], &d));
        let x = g.constant(Tensor::from_vec(vec![3.0], [1, 1], &d));
        let w1c = w1.clone();
        let y1 = checkpoint(
            &g,
            Rc::new(move |cg: &Graph, ins: &[Value]| {
                vec![ops::matmul(cg, &ins[0], &cg.leaf(&w1c))]
            }),
            &[x],
        );
        let w2c = w2.clone();
        let y2 = checkpoint(
            &g,
            Rc::new(move |cg: &Graph, ins: &[Value]| {
                vec![ops::matmul(cg, &ins[0], &cg.leaf(&w2c))]
            }),
            &[y1[0].clone()],
        );
        let loss = ops::sum_all(&g, &y2[0]);
        g.backward(&loss);
        // loss = x*w1*w2; dw1 = x*w2 = 15; dw2 = x*w1 = 6.
        assert_eq!(w1.grad().unwrap().to_vec(), vec![15.0]);
        assert_eq!(w2.grad().unwrap().to_vec(), vec![6.0]);
    }

    #[test]
    fn multi_output_checkpoint_routes_each_gradient() {
        // A segment returning two outputs: gradients from both must flow
        // back through the single checkpoint node.
        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &d));
        let x = g.constant(Tensor::from_vec(vec![3.0], [1, 1], &d));
        let wc = w.clone();
        let outs = checkpoint(
            &g,
            Rc::new(move |cg: &Graph, ins: &[Value]| {
                let a = ops::matmul(cg, &ins[0], &cg.leaf(&wc));
                let b = ops::scale(cg, &ins[0], 10.0);
                vec![a, b]
            }),
            &[x],
        );
        assert_eq!(outs.len(), 2);
        // loss = sum(a) + sum(b) = x*w + 10x -> dw = x = 3.
        let s = ops::add(&g, outs[0].clone(), outs[1].clone());
        let loss = ops::sum_all(&g, &s);
        g.backward(&loss);
        assert_eq!(w.grad().unwrap().to_vec(), vec![3.0]);
    }

    #[test]
    fn checkpoint_input_gradients_accumulate_across_outputs() {
        // Both outputs depend on the same external input; its gradient
        // must be the sum of both paths.
        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        let x = Var::new("x", Tensor::from_vec(vec![4.0], [1], &d));
        let lx = g.leaf(&x);
        let outs = checkpoint(
            &g,
            Rc::new(|cg: &Graph, ins: &[Value]| {
                vec![ops::scale(cg, &ins[0], 2.0), ops::scale(cg, &ins[0], 5.0)]
            }),
            &[lx],
        );
        let s = ops::add(&g, outs[0].clone(), outs[1].clone());
        let loss = ops::sum_all(&g, &s);
        g.backward(&loss);
        assert_eq!(x.grad().unwrap().to_vec(), vec![7.0]);
    }

    /// Logs phase changes and `grad_ready` reports (with the gradient
    /// the leaf holds at that moment) in one stream.
    #[derive(Default)]
    struct ReadyLog(parking_lot::Mutex<Vec<String>>);

    impl crate::scope::ModuleHooks for ReadyLog {
        fn phase_changed(&self, p: Phase) {
            self.0.lock().push(format!("{p:?}"));
        }
        fn grad_ready(&self, var: &Var) {
            let grad = var.grad().map(|g| g.to_vec());
            self.0.lock().push(format!("{}={grad:?}", var.name()));
        }
    }

    impl ReadyLog {
        fn reports(&self) -> Vec<String> {
            let events = self.0.lock();
            events.iter().filter(|e| e.contains('=')).cloned().collect()
        }
    }

    fn logged_graph(d: &Device) -> (Graph, std::sync::Arc<ReadyLog>) {
        let g = Graph::new(d, 1);
        let log = std::sync::Arc::new(ReadyLog::default());
        g.set_grad_listener(Some(log.clone()));
        (g, log)
    }

    /// `ins[0] @ w` as a checkpointed segment.
    fn matmul_segment(g: &Graph, x: &Value, w: &Var) -> Value {
        let w = w.clone();
        let seg: SegmentFn =
            Rc::new(move |cg: &Graph, ins: &[Value]| vec![ops::matmul(cg, &ins[0], &cg.leaf(&w))]);
        checkpoint(g, seg, std::slice::from_ref(x)).remove(0)
    }

    #[test]
    fn leaf_inside_a_checkpoint_is_ready_after_the_recompute_backward() {
        let d = Device::cpu();
        let (g, log) = logged_graph(&d);
        let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &d));
        let x = g.constant(Tensor::from_vec(vec![3.0], [1, 1], &d));
        let y = matmul_segment(&g, &x, &w);
        g.backward(&ops::sum_all(&g, &y));
        let events = log.0.lock().clone();
        let recompute = events.iter().position(|e| e == "Recompute");
        let ready = events.iter().position(|e| e.starts_with("w="));
        assert!(recompute < ready, "{events:?}");
        assert_eq!(log.reports(), ["w=Some([3.0])"]);
    }

    #[test]
    fn leaf_used_inside_and_outside_a_checkpoint_is_never_early() {
        // loss = x·w·w either way round, so dw = 2xw = 12 and each of the
        // two uses alone contributes 6: an early report would show 6.
        let d = Device::cpu();
        for checkpoint_first in [false, true] {
            let (g, log) = logged_graph(&d);
            let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &d));
            let x = g.constant(Tensor::from_vec(vec![3.0], [1, 1], &d));
            let y = if checkpoint_first {
                let h = matmul_segment(&g, &x, &w);
                ops::matmul(&g, &h, &g.leaf(&w))
            } else {
                let h = ops::matmul(&g, &x, &g.leaf(&w));
                matmul_segment(&g, &h, &w)
            };
            g.backward(&ops::sum_all(&g, &y));
            assert_eq!(w.grad().unwrap().to_vec(), vec![12.0]);
            // Reported exactly once, by whichever tape retired the last
            // use: the recompute child (checkpoint first) or the outer
            // node (outer use first).
            assert_eq!(
                log.reports(),
                ["w=Some([12.0])"],
                "checkpoint_first={checkpoint_first}"
            );
        }
    }

    #[test]
    fn leaf_passed_as_a_segment_input_is_left_to_the_sweep() {
        // The recompute sees the input as an external, so the use the
        // segment's first (grad-disabled) run counted is never retired.
        let d = Device::cpu();
        let (g, log) = logged_graph(&d);
        let x = Var::new("x", Tensor::from_vec(vec![4.0], [1], &d));
        let outs = checkpoint(
            &g,
            Rc::new(|cg: &Graph, ins: &[Value]| vec![ops::scale(cg, &ins[0], 2.0)]),
            &[g.leaf(&x)],
        );
        g.backward(&ops::sum_all(&g, &outs[0]));
        assert_eq!(x.grad().unwrap().to_vec(), vec![2.0]);
        assert!(log.reports().is_empty(), "{:?}", log.reports());
    }

    #[test]
    fn recompute_phase_is_visible_to_hooks() {
        use crate::scope::ModuleHooks;
        use parking_lot::Mutex;
        use std::sync::Arc;

        #[derive(Default)]
        struct Phases(Mutex<Vec<Phase>>);
        impl ModuleHooks for Phases {
            fn phase_changed(&self, p: Phase) {
                self.0.lock().push(p);
            }
        }

        let d = Device::cpu();
        let g = Graph::new(&d, 1);
        let log = Arc::new(Phases::default());
        g.add_module_hooks(log.clone());
        let w = Var::new("w", Tensor::from_vec(vec![2.0], [1, 1], &d));
        let x = g.constant(Tensor::from_vec(vec![3.0], [1, 1], &d));
        let wc = w.clone();
        let y = checkpoint(
            &g,
            Rc::new(move |cg: &Graph, ins: &[Value]| vec![ops::matmul(cg, &ins[0], &cg.leaf(&wc))]),
            &[x],
        );
        let loss = ops::sum_all(&g, &y[0]);
        g.backward(&loss);
        let phases = log.0.lock().clone();
        assert!(phases.contains(&Phase::Recompute), "phases: {phases:?}");
    }
}
