//! A *functional* pipeline-parallel trainer: the model's layers are
//! partitioned over `pp` simulated GPUs, micro-batches flow through the
//! non-interleaved 1F1B schedule with real tensors crossing stage
//! boundaries, and gradients flow back stage to stage — so pipelined
//! training can be checked **bit-identical** against single-GPU
//! training, with or without per-stage activation offloading.
//!
//! Each stage owns its own simulated clock, GPU executor and (optional)
//! tensor cache; cross-stage sends synchronise the clocks, so the step's
//! makespan and bubble structure emerge from real execution rather than
//! the closed-form model in [`crate::pipeline`].

use crate::builder::ConfigError;
use crate::error::{PipelineError, StepError};
use crate::executor::GpuExecutor;
use crate::pipeline::{one_f1b_commands, StageCmd};
use crate::schedule::stage_ranges;
use ssdtrain::{CpuTarget, IoEngine, TensorCache, TensorCacheConfig, TraceCategory, TraceSink};
use ssdtrain_autograd::{Graph, Phase, Value};
use ssdtrain_models::{Arch, Batch, BertModel, GptModel, ModelConfig, Recompute, StagedModel};
use ssdtrain_simhw::{GpuSpec, SimClock, SimTime};
use ssdtrain_tensor::{Device, MemClass, Tensor};
use std::sync::Arc;

/// Configuration of the functional pipeline trainer.
#[derive(Debug, Clone)]
pub struct PipelineExecConfig {
    /// The GPT model configuration (layers are split evenly over
    /// stages; the remainder goes to the early stages).
    pub model: ModelConfig,
    /// Pipeline stages.
    pub pp: usize,
    /// Micro-batches per step.
    pub micro_batches: usize,
    /// Sequences per micro-batch.
    pub micro_batch_size: usize,
    /// Per-stage activation offloading (CPU-pool target, so the run
    /// stays self-contained).
    pub offload: bool,
    /// Seconds to move one stage boundary activation between GPUs.
    pub send_secs: f64,
    /// Seed for weights and data.
    pub seed: u64,
}

struct Stage {
    graph: Graph,
    clock: SimClock,
    cache: Option<Arc<TensorCache>>,
    layer_range: std::ops::Range<usize>,
    first: bool,
    last: bool,
}

/// One step's measurements from the functional pipeline.
#[derive(Debug, Clone)]
pub struct PipelineStepReport {
    /// Mean loss over the step's micro-batches.
    pub loss: f32,
    /// Step makespan: the latest stage-0 backward completion.
    pub step_secs: f64,
}

/// The functional pipeline trainer.
pub struct PipelineExec {
    cfg: PipelineExecConfig,
    model: Box<dyn StagedModel>,
    device: Device,
    stages: Vec<Stage>,
    optimizer: ssdtrain_autograd::optim::Sgd,
    trace: TraceSink,
    step_idx: u64,
}

impl PipelineExec {
    /// Builds the trainer: one shared model, `pp` stages with disjoint
    /// layer slices.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when `pp` is zero or exceeds the layer
    /// count, or when the architecture cannot be pipelined (T5's
    /// cross-attention broadcasts the encoder output to every decoder
    /// stage, so only GPT and BERT are supported).
    pub fn new(cfg: PipelineExecConfig) -> Result<PipelineExec, ConfigError> {
        if cfg.pp < 1 {
            return Err(ConfigError::ZeroStages);
        }
        if cfg.pp > cfg.model.layers {
            return Err(ConfigError::StagesExceedLayers {
                pp: cfg.pp,
                layers: cfg.model.layers,
            });
        }
        let device = Device::cpu();
        let model: Box<dyn StagedModel> = match cfg.model.arch {
            Arch::Gpt => Box::new(GptModel::new(&cfg.model, &device, cfg.seed)),
            Arch::Bert => Box::new(BertModel::new(&cfg.model, &device, cfg.seed)),
            Arch::T5 => return Err(ConfigError::UnsupportedArch { arch: Arch::T5 }),
        };
        let per = cfg.model.layers / cfg.pp;
        let extra = cfg.model.layers % cfg.pp;
        let mut start = 0;
        let stages = (0..cfg.pp)
            .map(|s| {
                let len = per + usize::from(s < extra);
                let range = start..start + len;
                start += len;
                let clock = SimClock::new();
                let graph = Graph::new(&device, cfg.seed ^ (s as u64) << 8);
                graph.set_observer(Arc::new(GpuExecutor::new(
                    clock.clone(),
                    GpuSpec::a100_pcie_40gb(),
                    250e9,
                    1,
                )));
                let cache = cfg.offload.then(|| {
                    let io = IoEngine::new(clock.clone(), 25e9, 25e9);
                    let mem = Arc::new(ssdtrain_simhw::GpuMemory::new(clock.clone(), 1 << 40));
                    let cache = TensorCache::new(
                        TensorCacheConfig {
                            min_offload_numel: 0,
                            adaptive: false,
                            ..TensorCacheConfig::default()
                        },
                        Arc::new(CpuTarget::new(1 << 40)),
                        io,
                        mem,
                    );
                    cache.install(&graph);
                    for p in model.stage_parameters() {
                        cache.register_parameter(&p.tensor());
                    }
                    cache
                });
                Stage {
                    graph,
                    clock,
                    cache,
                    layer_range: range,
                    first: s == 0,
                    last: s == cfg.pp - 1,
                }
            })
            .collect();
        let optimizer = ssdtrain_autograd::optim::Sgd::new(model.stage_parameters(), 0.05);
        Ok(PipelineExec {
            cfg,
            model,
            device,
            stages,
            optimizer,
            trace: TraceSink::disabled(),
            step_idx: 0,
        })
    }

    /// Routes the trainer's events into `sink`: per-stage forward and
    /// backward spans (named `s{stage}.forward.mb{mb}` etc.) plus the
    /// tensor-lifecycle events of every stage's offload cache.
    pub fn set_trace(&mut self, sink: TraceSink) {
        for stage in &self.stages {
            if let Some(cache) = &stage.cache {
                cache.set_trace(sink.clone());
            }
        }
        self.trace = sink;
    }

    /// Runs one pipelined training step (forwards + backwards of every
    /// micro-batch under 1F1B, then one optimizer update).
    ///
    /// # Errors
    /// Returns [`PipelineError::Offload`] when any stage's offload
    /// cache reported a failure recovery could not absorb (the
    /// optimizer update is skipped and gradients are cleared), and
    /// [`PipelineError::Schedule`] when the 1F1B schedule handed a
    /// stage a micro-batch whose inputs were never produced, or left
    /// every stage waiting.
    pub fn run_step(&mut self) -> Result<PipelineStepReport, PipelineError> {
        let pp = self.cfg.pp;
        let m = self.cfg.micro_batches.max(1);
        self.trace.next_step();
        self.trace
            .instant(TraceCategory::Session, "step.begin", SimTime::ZERO);
        for stage in &self.stages {
            stage.clock.reset();
            if let Some(c) = &stage.cache {
                c.begin_step();
            }
            stage.graph.reset_tape();
            stage.graph.set_phase(Phase::Forward);
        }

        let batches: Vec<Batch> = (0..m)
            .map(|mb| {
                Batch::synthetic(
                    &self.cfg.model,
                    self.cfg.micro_batch_size,
                    self.cfg
                        .seed
                        .wrapping_mul(7919)
                        .wrapping_add(self.step_idx * 64 + mb as u64),
                    &self.device,
                )
            })
            .collect();

        // Per-(stage, mb) completion times, boundary tensors, and output
        // values for backward.
        let nan = f64::NAN;
        let mut f_done = vec![vec![nan; m]; pp];
        let mut b_done = vec![vec![nan; m]; pp];
        let mut boundary: Vec<Vec<Option<Tensor>>> = vec![vec![None; m]; pp];
        let mut out_vals: Vec<Vec<Option<Value>>> = vec![vec![None; m]; pp];
        let mut in_vals: Vec<Vec<Option<Value>>> = vec![vec![None; m]; pp];
        let mut grads_back: Vec<Vec<Option<Tensor>>> = vec![vec![None; m]; pp];
        let mut losses = Vec::new();

        let cmds: Vec<Vec<StageCmd>> = (0..pp).map(|s| one_f1b_commands(pp, s, m)).collect();
        let mut cursor = vec![0usize; pp];
        let total: usize = cmds.iter().map(|c| c.len()).sum();
        let mut done = 0;
        while done < total {
            let mut progressed = false;
            for s in 0..pp {
                while cursor[s] < cmds[s].len() {
                    let cmd = cmds[s][cursor[s]];
                    match cmd {
                        StageCmd::Forward { mb } => {
                            let ready = if s == 0 {
                                Some(0.0)
                            } else if f_done[s - 1][mb].is_nan() {
                                None
                            } else {
                                Some(f_done[s - 1][mb] + self.cfg.send_secs)
                            };
                            let Some(ready) = ready else { break };
                            self.exec_forward(
                                s,
                                mb,
                                ready,
                                &batches,
                                &mut boundary,
                                &mut out_vals,
                                &mut in_vals,
                                &mut losses,
                            )?;
                            f_done[s][mb] = self.stages[s].clock.now().as_secs();
                        }
                        StageCmd::Backward { mb } => {
                            let ready = if s == pp - 1 {
                                if f_done[s][mb].is_nan() {
                                    None
                                } else {
                                    Some(f_done[s][mb])
                                }
                            } else if b_done[s + 1][mb].is_nan() {
                                None
                            } else {
                                Some(b_done[s + 1][mb] + self.cfg.send_secs)
                            };
                            let Some(ready) = ready else { break };
                            self.exec_backward(
                                s,
                                mb,
                                ready,
                                &mut out_vals,
                                &mut in_vals,
                                &mut grads_back,
                            )?;
                            b_done[s][mb] = self.stages[s].clock.now().as_secs();
                        }
                    }
                    cursor[s] += 1;
                    done += 1;
                    progressed = true;
                }
            }
            if !progressed {
                // Every stage with work left waits on an input no stage
                // will produce: report the first one.
                let (stage, micro_batch) = (0..pp)
                    .find_map(|s| match cmds[s].get(cursor[s])? {
                        StageCmd::Forward { mb } | StageCmd::Backward { mb } => Some((s, *mb)),
                    })
                    .unwrap_or_default();
                return Err(PipelineError::Schedule {
                    stage,
                    micro_batch,
                    what: "an input no stage produces (the 1F1B schedule deadlocked)",
                });
            }
        }

        let mut step_error = None;
        for stage in &self.stages {
            if let Some(c) = &stage.cache {
                c.wait_io();
                // The stage's store queue must land before its step can
                // end; whatever the backward passes did not hide
                // surfaces on this stage's clock (and so in the
                // makespan below).
                c.drain_stores();
                c.flush();
                if step_error.is_none() {
                    step_error = c.take_error();
                }
            }
            stage.graph.reset_tape();
        }
        if let Some(error) = step_error {
            self.optimizer.zero_grad();
            self.step_idx += 1;
            return Err(StepError {
                error,
                metrics: None,
            }
            .into());
        }
        // The update runs as one per-stage job per pipeline stage, in
        // 1F1B completion order (the last stage's backward drains
        // first). The ranges are disjoint and cover every parameter, so
        // the numerics match a monolithic `step()` exactly — this is
        // the same job shape the overlapped single-GPU engine schedules.
        for range in stage_ranges(self.optimizer.len(), pp).into_iter().rev() {
            self.optimizer.step_range(range);
        }
        self.optimizer.zero_grad();
        self.step_idx += 1;

        // Makespan: latest stage-0 backward completion, pushed out by
        // any stage whose store drain outlived its compute.
        let step_secs = self
            .stages
            .iter()
            .map(|s| s.clock.now().as_secs())
            .fold(b_done[0].iter().fold(0.0f64, |a, b| a.max(*b)), f64::max);
        self.trace.instant(
            TraceCategory::Session,
            "step.end",
            SimTime::from_secs(step_secs),
        );
        Ok(PipelineStepReport {
            loss: losses.iter().copied().sum::<f32>() / losses.len().max(1) as f32,
            step_secs,
        })
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "the per-stage schedule buffers are disjoint borrows of `run`'s locals"
    )]
    fn exec_forward(
        &self,
        s: usize,
        mb: usize,
        ready: f64,
        batches: &[Batch],
        boundary: &mut [Vec<Option<Tensor>>],
        out_vals: &mut [Vec<Option<Value>>],
        in_vals: &mut [Vec<Option<Value>>],
        losses: &mut Vec<f32>,
    ) -> Result<(), PipelineError> {
        let stage = &self.stages[s];
        stage.clock.advance_to(SimTime::from_secs(ready));
        stage.graph.set_micro_batch(mb);
        stage.graph.set_phase(Phase::Forward);
        if let Some(c) = &stage.cache {
            c.set_micro_batch(mb);
        }
        let input = if stage.first {
            self.model.forward_embed(&stage.graph, &batches[mb])
        } else {
            let t = boundary[s - 1][mb].take().ok_or(PipelineError::Schedule {
                stage: s,
                micro_batch: mb,
                what: "the previous stage's activation",
            })?;
            let v = stage.graph.external(0, t);
            in_vals[s][mb] = Some(v.clone());
            v
        };
        let out = self.model.forward_layers(
            &stage.graph,
            &input,
            stage.layer_range.clone(),
            Recompute::None,
        );
        if stage.last {
            let loss = self
                .model
                .forward_head_loss(&stage.graph, &out, &batches[mb]);
            if loss.tensor().has_data() {
                losses.push(loss.tensor().item());
            }
            out_vals[s][mb] = Some(loss);
        } else {
            boundary[s][mb] = Some(out.tensor().clone());
            out_vals[s][mb] = Some(out);
        }
        if let Some(c) = &stage.cache {
            // Figure 4 ④: switching toward this micro-batch's backward.
            c.prefetch_last_module();
        }
        self.trace.span(
            TraceCategory::Stage,
            format!("s{s}.forward.mb{mb}"),
            SimTime::from_secs(ready),
            stage.clock.now(),
        );
        Ok(())
    }

    fn exec_backward(
        &self,
        s: usize,
        mb: usize,
        ready: f64,
        out_vals: &mut [Vec<Option<Value>>],
        in_vals: &mut [Vec<Option<Value>>],
        grads_back: &mut [Vec<Option<Tensor>>],
    ) -> Result<(), PipelineError> {
        let stage = &self.stages[s];
        stage.clock.advance_to(SimTime::from_secs(ready));
        stage.graph.set_phase(Phase::Backward);
        let out = out_vals[s][mb].take().ok_or(PipelineError::Schedule {
            stage: s,
            micro_batch: mb,
            what: "this stage's forward output",
        })?;
        let dev = &self.device;
        let seed_grad = if stage.last {
            dev.with_class(MemClass::Workspace, || {
                if out.tensor().has_data() {
                    Tensor::ones([1], dev)
                } else {
                    Tensor::symbolic([1], dev)
                }
            })
        } else {
            grads_back[s + 1][mb]
                .take()
                .ok_or(PipelineError::Schedule {
                    stage: s,
                    micro_batch: mb,
                    what: "the next stage's input gradient",
                })?
        };
        let n_ext = usize::from(!stage.first);
        let mut ext = [None];
        let graph = &stage.graph;
        graph.backward_from(&[out], [Some(seed_grad)], &mut ext[..n_ext]);
        if !stage.first {
            grads_back[s][mb] = Some(ext[0].take().ok_or(PipelineError::Schedule {
                stage: s,
                micro_batch: mb,
                what: "the gradient for the stage input",
            })?);
            // The input value's tensor can now be dropped.
            in_vals[s][mb] = None;
        }
        if let Some(c) = &stage.cache {
            c.wait_io();
        }
        self.trace.span(
            TraceCategory::Stage,
            format!("s{s}.backward.mb{mb}"),
            SimTime::from_secs(ready),
            stage.clock.now(),
        );
        Ok(())
    }
}

impl std::fmt::Debug for PipelineExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineExec")
            .field("pp", &self.cfg.pp)
            .field("micro_batches", &self.cfg.micro_batches)
            .field("offload", &self.cfg.offload)
            .field("steps_run", &self.step_idx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_autograd::ops;

    fn config(pp: usize, m: usize, offload: bool) -> PipelineExecConfig {
        PipelineExecConfig {
            model: ModelConfig::tiny_gpt(),
            pp,
            micro_batches: m,
            micro_batch_size: 2,
            offload,
            send_secs: 0.001,
            seed: 77,
        }
    }

    /// Builds a trainer from a config the test knows is valid.
    fn mk(cfg: PipelineExecConfig) -> PipelineExec {
        PipelineExec::new(cfg).expect("valid test config")
    }

    /// Runs one step the test expects to succeed.
    fn step(t: &mut PipelineExec) -> PipelineStepReport {
        t.run_step().expect("step")
    }

    /// Ground truth: the same schedule run on a single stage.
    fn single_gpu_losses(m: usize, steps: usize) -> Vec<f32> {
        let mut t = mk(config(1, m, false));
        (0..steps).map(|_| step(&mut t).loss).collect()
    }

    #[test]
    fn two_stage_pipeline_matches_single_gpu_bitwise() {
        let single = single_gpu_losses(2, 3);
        let mut piped = mk(config(2, 2, false));
        let piped: Vec<f32> = (0..3).map(|_| step(&mut piped).loss).collect();
        assert_eq!(single, piped, "pipelining must not change numerics");
    }

    #[test]
    fn offloaded_pipeline_matches_too() {
        let single = single_gpu_losses(2, 2);
        let mut piped = mk(config(2, 2, true));
        let piped: Vec<f32> = (0..2).map(|_| step(&mut piped).loss).collect();
        assert_eq!(
            single, piped,
            "per-stage offloading must not change numerics"
        );
    }

    #[test]
    fn gradients_match_a_monolithic_graph() {
        // Manual cross-check: pipeline gradients equal those of the
        // whole model trained on the concatenated micro-batches.
        let cfg = config(2, 2, false);
        let device = Device::cpu();
        let reference = GptModel::new(&cfg.model, &device, cfg.seed);
        // Same synthetic batches the trainer draws in step 0.
        let batches: Vec<Batch> = (0..2)
            .map(|mb| {
                Batch::synthetic(
                    &cfg.model,
                    cfg.micro_batch_size,
                    cfg.seed.wrapping_mul(7919).wrapping_add(mb as u64),
                    &device,
                )
            })
            .collect();
        for b in &batches {
            let g = Graph::new(&device, 1);
            let loss = reference.forward_loss(&g, b, Recompute::None);
            g.backward(&loss);
        }
        let want: Vec<Vec<f32>> = reference
            .parameters()
            .iter()
            .map(|p| p.grad().expect("grad").to_vec())
            .collect();

        let mut piped = mk(cfg);
        // Peek at gradients before the optimizer consumes them: run the
        // schedule manually by cloning internals is overkill — instead
        // compare the *post-step weights*, which are a bijection of the
        // gradients under SGD.
        step(&mut piped);
        let got_weights: Vec<Vec<f32>> = piped
            .model
            .stage_parameters()
            .iter()
            .map(|p| p.tensor().to_vec())
            .collect();

        let mut opt = ssdtrain_autograd::optim::Sgd::new(reference.parameters(), 0.05);
        opt.step();
        let want_weights: Vec<Vec<f32>> = reference
            .parameters()
            .iter()
            .map(|p| p.tensor().to_vec())
            .collect();
        assert_eq!(want_weights, got_weights);
        let _ = want;
    }

    #[test]
    fn bert_pipeline_matches_single_gpu_too() {
        let mut cfg = config(2, 2, false);
        cfg.model = ModelConfig::tiny_bert();
        let mut single = mk(PipelineExecConfig {
            pp: 1,
            ..cfg.clone()
        });
        let mut piped = mk(cfg);
        for _ in 0..2 {
            assert_eq!(step(&mut single).loss, step(&mut piped).loss);
        }
    }

    #[test]
    fn t5_pipeline_is_rejected_with_a_typed_error() {
        let mut cfg = config(2, 2, false);
        cfg.model = ModelConfig::tiny_t5();
        match PipelineExec::new(cfg) {
            Err(ConfigError::UnsupportedArch { arch: Arch::T5 }) => {}
            other => panic!("expected UnsupportedArch, got {other:?}"),
        }
    }

    #[test]
    fn zero_and_oversized_stage_counts_are_rejected() {
        assert!(matches!(
            PipelineExec::new(config(0, 2, false)),
            Err(ConfigError::ZeroStages)
        ));
        let mut cfg = config(4, 2, false);
        cfg.model.layers = 2;
        assert!(matches!(
            PipelineExec::new(cfg),
            Err(ConfigError::StagesExceedLayers { pp: 4, layers: 2 })
        ));
    }

    #[test]
    fn four_stage_four_layer_split_is_one_layer_each() {
        let mut cfg = config(4, 4, false);
        cfg.model.layers = 4;
        let t = mk(cfg);
        let ranges: Vec<_> = t.stages.iter().map(|s| s.layer_range.clone()).collect();
        assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..4]);
        assert!(t.stages[0].first && t.stages[3].last);
    }

    #[test]
    fn makespan_shrinks_per_micro_batch_as_m_grows() {
        // Amortised step time per micro-batch falls with more
        // micro-batches (the bubble shrinks) in the *functional* run.
        let mut a = mk(config(2, 2, false));
        let mut b = mk(config(2, 8, false));
        let ra = step(&mut a);
        let rb = step(&mut b);
        let per_a = ra.step_secs / 2.0;
        let per_b = rb.step_secs / 8.0;
        assert!(per_b < per_a, "{per_b} vs {per_a}");
    }

    #[test]
    fn losses_stay_finite_and_improve_on_repeated_data() {
        let mut t = mk(PipelineExecConfig {
            seed: 5,
            ..config(2, 2, false)
        });
        let first = step(&mut t).loss;
        let mut last = first;
        for _ in 0..5 {
            last = step(&mut t).loss;
        }
        assert!(first.is_finite() && last.is_finite());
    }

    #[test]
    fn external_gradient_path_is_exercised() {
        // Sanity on the graph primitive the trainer relies on: gradients
        // for external inputs propagate across backward_from.
        let device = Device::cpu();
        let g = Graph::new(&device, 1);
        let x = g.external(0, Tensor::from_vec(vec![2.0], [1, 1], &device));
        let y = ops::scale(&g, &x, 3.0);
        let mut grads = [None];
        g.backward_from(&[y], [Some(Tensor::ones([1, 1], &device))], &mut grads);
        assert_eq!(grads[0].as_ref().unwrap().to_vec(), vec![3.0]);
    }
}
