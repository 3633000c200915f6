//! A *functional* pipeline-parallel trainer: the model's layers are
//! partitioned over `pp` simulated GPUs, micro-batches flow through the
//! non-interleaved 1F1B schedule with real tensors crossing stage
//! boundaries, and gradients flow back stage to stage — so pipelined
//! training can be checked **bit-identical** against single-GPU
//! training, with or without per-stage activation offloading.
//!
//! Each stage is a GPU built as a [`crate::TrainSession`]'s is (the
//! Table 3 testbed's clock, executor, tracked device and optional
//! tensor cache over host memory). It runs one contiguous slice of
//! layers, holds their parameters and updates them through its own
//! optimizer engine. The step walks the same 1F1B dependency order
//! [`crate::PipelineSim`] prices, executing each command instead;
//! cross-stage sends synchronise the clocks, so the step's makespan and
//! bubble structure emerge from real execution rather than from fixed
//! per-command durations. Each stage runs its passes, reduce and update
//! through the session's step runner, so its cache takes Algorithm 1's
//! hints under the same stage scopes as a session's.

use crate::builder::ConfigError;
use crate::error::{PipelineError, StepError};
use crate::pipeline::{one_f1b_commands, walk_stages, StageCmd};
use crate::schedule::{stage_ranges, stage_schedule, StepCmd, StepRunner};
use crate::session::{Gpu, OffloadBackend, SessionConfig};
use ssdtrain::{PlacementStrategy, TensorCacheConfig, TraceCategory, TraceSink};
use ssdtrain_autograd::Value;
use ssdtrain_models::{Arch, Batch, LmModel, ModelConfig, Recompute};
use ssdtrain_simhw::SimTime;
use ssdtrain_tensor::{Device, MemClass, Tensor};
use std::convert::Infallible;

/// Configuration of the functional pipeline trainer.
#[derive(Debug, Clone)]
pub struct PipelineExecConfig {
    /// The GPT or BERT model configuration (layers are split evenly
    /// over stages; the remainder goes to the early stages).
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
    gpu: Gpu,
    /// The stage's 1F1B command stream, in its graph, updating the
    /// parameters of its layers.
    runner: StepRunner,
    layer_range: std::ops::Range<usize>,
    first: bool,
    last: bool,
}

/// What one step's commands hand each other, indexed
/// `[stage][micro-batch]`; the command that reads a value takes it.
struct InFlight {
    /// The step's micro-batches, indexed `[micro-batch]`.
    batches: Vec<Batch>,
    /// Forward outputs, until the next stage's forward.
    sent: Vec<Vec<Option<Tensor>>>,
    /// Output values (the loss on the last stage), until the backward.
    outs: Vec<Vec<Option<Value>>>,
    /// Input gradients, until the previous stage's backward.
    grads: Vec<Vec<Option<Tensor>>>,
    /// The last stage's losses, in forward order.
    losses: Vec<f32>,
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
    model: LmModel,
    stages: Vec<Stage>,
    /// Each stage's 1F1B passes, which the step walks by dependency.
    passes: Vec<Vec<StageCmd>>,
    trace: TraceSink,
    step_idx: u64,
}

impl PipelineExec {
    /// Builds the trainer: `pp` stages with disjoint layer slices, and
    /// one model whose layers live on their stages' GPUs.
    ///
    /// # Errors
    /// Returns a [`ConfigError`] when `pp` is zero or exceeds the layer
    /// count, when the micro-batch count or size is zero, or when the
    /// architecture cannot be pipelined (T5's cross-attention
    /// broadcasts the encoder output to every decoder stage, so only
    /// GPT and BERT are supported).
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
        if cfg.micro_batches == 0 {
            return Err(ConfigError::ZeroMicroBatches);
        }
        if cfg.model.arch == Arch::T5 {
            return Err(ConfigError::UnsupportedArch { arch: Arch::T5 });
        }
        // Every stage is the testbed's GPU; an offloading one keeps its
        // activations in host memory, so the run stays self-contained.
        let strategy = if cfg.offload {
            PlacementStrategy::Offload
        } else {
            PlacementStrategy::Keep
        };
        let stage_cfg = SessionConfig::builder()
            .model(cfg.model.clone())
            .batch_size(cfg.micro_batch_size * cfg.micro_batches)
            .micro_batches(cfg.micro_batches)
            .strategy(strategy)
            .backend(OffloadBackend::Dram)
            .cache(TensorCacheConfig {
                min_offload_numel: 0,
                adaptive: false,
                ..TensorCacheConfig::default()
            })
            .seed(cfg.seed)
            .build()?;
        // Each layer's parameters live on its stage's GPU.
        let ranges = stage_ranges(cfg.model.layers, cfg.pp);
        let gpus: Vec<Gpu> = ranges.iter().map(|_| Gpu::new(&stage_cfg, None)).collect();
        let device: Vec<&Device> = (ranges.iter().zip(&gpus))
            .flat_map(|(range, gpu)| std::iter::repeat_n(&gpu.device, range.len()))
            .collect();
        let model = LmModel::new(&cfg.model, |layer| device[layer], cfg.seed);
        let stages = (ranges.into_iter().zip(gpus).enumerate())
            .map(|(s, (layer_range, gpu))| {
                let params = model.stage_parameters(layer_range.clone());
                let (seed, jobs) = (cfg.seed ^ (s as u64) << 8, layer_range.clone());
                let cmds = stage_schedule(cfg.pp, s, cfg.micro_batches);
                Stage {
                    runner: gpu.runner(&stage_cfg, seed, params, jobs, cmds),
                    gpu,
                    layer_range,
                    first: s == 0,
                    last: s == cfg.pp - 1,
                }
            })
            .collect();
        let passes = (0..cfg.pp)
            .map(|s| one_f1b_commands(cfg.pp, s, cfg.micro_batches))
            .collect();
        Ok(PipelineExec {
            cfg,
            model,
            stages,
            passes,
            trace: TraceSink::disabled(),
            step_idx: 0,
        })
    }

    /// Runs one pipelined training step (forwards + backwards of every
    /// micro-batch under 1F1B, then each stage's update of its own
    /// parameters).
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
        let m = self.cfg.micro_batches;
        self.trace.next_step();
        self.trace
            .instant(TraceCategory::Session, "step.begin", SimTime::ZERO);
        for stage in &self.stages {
            stage.gpu.open_step();
            if let Some(c) = &stage.gpu.cache {
                c.begin_step();
            }
            // What a step the schedule failed part-way left behind.
            stage.runner.rewind();
            stage.runner.graph.reset_tape();
        }

        // The first stage loads the step's micro-batches.
        let (cfg, device) = (&self.cfg, &self.stages[0].gpu.device);
        let seed = cfg.seed.wrapping_mul(7919).wrapping_add(self.step_idx * 64);
        let size = cfg.micro_batch_size;
        let batch = |mb| Batch::synthetic(&cfg.model, size, seed.wrapping_add(mb), device);
        let mut step = InFlight {
            batches: (0..m as u64).map(batch).collect(),
            sent: vec![vec![None; m]; pp],
            outs: vec![vec![None; m]; pp],
            grads: vec![vec![None; m]; pp],
            losses: Vec::new(),
        };
        let (_, bwd_ends) = walk_stages(
            &self.passes,
            self.cfg.send_secs,
            |s, cmd, ready| self.exec(s, cmd, ready, &mut step),
            |stage, micro_batch| PipelineError::Schedule {
                stage,
                micro_batch,
                what: "an input no stage produces (the 1F1B schedule deadlocked)",
            },
        )?;

        // Unless a stage failed, each updates its own layers on its own
        // clock: 0 s, its cache holding activations only, so the makespan
        // below is the paper's (Section 4.1). The optimizer's exit waits
        // out the stage's store queue, what backward did not hide.
        let cache_failed = |s: &Stage| s.gpu.cache.as_ref().is_some_and(|c| c.has_error());
        let failed = self.stages.iter().any(cache_failed);
        let mut step_error = None;
        for stage in &self.stages {
            if !failed {
                let (gpu, until) = (&stage.gpu, StepCmd::OptimizerStep);
                let Ok(_) = stage
                    .runner
                    .run(gpu, &self.trace, until, |_| Ok::<_, Infallible>(()));
            }
            if let Some(c) = &stage.gpu.cache {
                c.flush();
                // The first failure is the step's; every stage's is taken.
                step_error = step_error.or(c.take_error());
            }
        }
        self.step_idx += 1;
        if let Some(error) = step_error {
            for stage in &self.stages {
                stage.runner.opt.abort();
                stage.runner.opt.zero_grad();
            }
            return Err(StepError {
                error,
                metrics: None,
            }
            .into());
        }

        // Makespan: latest stage-0 backward completion, pushed out by
        // any stage whose store drain outlived its compute.
        let step_secs = self
            .stages
            .iter()
            .map(|s| s.gpu.runtime.clock.now().as_secs())
            .fold(bwd_ends[0].iter().fold(0.0f64, |a, b| a.max(*b)), f64::max);
        self.trace.instant(
            TraceCategory::Session,
            "step.end",
            SimTime::from_secs(step_secs),
        );
        Ok(PipelineStepReport {
            loss: step.losses.iter().sum::<f32>() / step.losses.len().max(1) as f32,
            step_secs,
        })
    }

    /// Runs stage `s`'s `cmd` from `ready` on and returns when it ended:
    /// a forward takes the embedding or the previous stage's activation
    /// in and, on the last stage, ends in the head's loss; a backward is
    /// seeded by that loss or by the next stage's input gradient.
    fn exec(
        &self,
        s: usize,
        cmd: StageCmd,
        ready: f64,
        step: &mut InFlight,
    ) -> Result<f64, PipelineError> {
        let stage = &self.stages[s];
        let (graph, clock) = (&stage.runner.graph, &stage.gpu.runtime.clock);
        clock.advance_to(SimTime::from_secs(ready));
        let missing = |micro_batch, what| PipelineError::Schedule {
            stage: s,
            micro_batch,
            what,
        };
        let (until, mb, pass) = match cmd {
            StageCmd::Forward { mb } => (StepCmd::StageBoundary, mb, "forward"),
            StageCmd::Backward { mb } => (StepCmd::BackwardPass { mb }, mb, "backward"),
        };
        let body = |cmd| -> Result<(), PipelineError> {
            match cmd {
                StepCmd::ForwardPass { .. } => {
                    let input = if stage.first {
                        self.model.forward_embed(graph, &step.batches[mb])
                    } else {
                        let t = step.sent[s - 1][mb]
                            .take()
                            .ok_or(missing(mb, "the previous stage's activation"))?;
                        graph.external(0, t)
                    };
                    let range = stage.layer_range.clone();
                    let out = self
                        .model
                        .forward_layers(graph, &input, range, Recompute::None);
                    if stage.last {
                        let loss = self.model.forward_head_loss(graph, &out, &step.batches[mb]);
                        if loss.tensor().has_data() {
                            step.losses.push(loss.tensor().item());
                        }
                        step.outs[s][mb] = Some(loss);
                    } else {
                        step.sent[s][mb] = Some(out.tensor().clone());
                        step.outs[s][mb] = Some(out);
                    }
                }
                _ => {
                    let out = step.outs[s][mb]
                        .take()
                        .ok_or(missing(mb, "this stage's forward output"))?;
                    let seed_grad = if stage.last {
                        let dev = &stage.gpu.device;
                        dev.with_class(MemClass::Workspace, || {
                            if out.tensor().has_data() {
                                Tensor::ones([1], dev)
                            } else {
                                Tensor::symbolic([1], dev)
                            }
                        })
                    } else {
                        step.grads[s + 1][mb]
                            .take()
                            .ok_or(missing(mb, "the next stage's input gradient"))?
                    };
                    let mut ext = [None];
                    let n_ext = usize::from(!stage.first);
                    graph.backward_from(&[out], [Some(seed_grad)], &mut ext[..n_ext]);
                    if !stage.first {
                        let grad = ext[0].take();
                        step.grads[s][mb] =
                            Some(grad.ok_or(missing(mb, "the gradient for the stage input"))?);
                    }
                }
            }
            Ok(())
        };
        stage.runner.run(&stage.gpu, &self.trace, until, body)?;
        self.trace.span(
            TraceCategory::Stage,
            format!("s{s}.{pass}.mb{mb}"),
            SimTime::from_secs(ready),
            clock.now(),
        );
        Ok(clock.now().as_secs())
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
    use ssdtrain_autograd::{ops, Graph};

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
        // Pipeline gradients equal those of the whole model trained on
        // the concatenated micro-batches. The optimizer consumes them
        // inside the step, so compare the *post-step weights*, which are
        // a bijection of the gradients under SGD.
        let cfg = config(2, 2, false);
        let device = Device::cpu();
        let reference = LmModel::new(&cfg.model, |_| &device, cfg.seed);
        // Same synthetic batches the trainer draws in step 0.
        for mb in 0..2 {
            let b = Batch::synthetic(
                &cfg.model,
                cfg.micro_batch_size,
                cfg.seed.wrapping_mul(7919).wrapping_add(mb),
                &device,
            );
            let g = Graph::new(&device, 1);
            let loss = reference.forward_loss(&g, &b, Recompute::None);
            g.backward(&loss);
        }
        let mut opt = ssdtrain_autograd::optim::Sgd::new(reference.parameters(), 0.05);
        opt.step();
        let want_weights: Vec<Vec<f32>> = reference
            .parameters()
            .iter()
            .map(|p| p.tensor().to_vec())
            .collect();

        let mut piped = mk(cfg);
        step(&mut piped);
        let got_weights: Vec<Vec<f32>> = piped
            .model
            .parameters()
            .iter()
            .map(|p| p.tensor().to_vec())
            .collect();
        assert_eq!(want_weights, got_weights);
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
        assert!(matches!(
            PipelineExec::new(config(2, 0, false)),
            Err(ConfigError::ZeroMicroBatches)
        ));
        let zero_size = PipelineExecConfig {
            micro_batch_size: 0,
            ..config(2, 2, false)
        };
        assert!(matches!(
            PipelineExec::new(zero_size),
            Err(ConfigError::ZeroBatch)
        ));
    }

    /// Routes `t`'s events into a fresh sink: per-stage forward and
    /// backward spans (named `s{stage}.forward.mb{mb}` etc.), each
    /// command's `stage.*` span, and the tensor-lifecycle events of
    /// every stage's offload cache.
    fn traced(t: &mut PipelineExec) -> TraceSink {
        let sink = TraceSink::enabled();
        for stage in &t.stages {
            if let Some(cache) = &stage.gpu.cache {
                cache.set_trace(sink.clone());
            }
        }
        t.trace = sink.clone();
        sink
    }

    /// FNV-1a over `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The offloaded two-stage run of `tiny_gpt` the pins below read:
    /// four micro-batches of two sequences.
    fn offloaded_two_stage() -> PipelineExec {
        mk(PipelineExecConfig {
            pp: 2,
            micro_batches: 4,
            micro_batch_size: 2,
            offload: true,
            send_secs: 0.001,
            seed: 2026,
            model: ModelConfig::tiny_gpt(),
        })
    }

    #[test]
    fn each_stage_ledger_holds_its_own_layers() {
        let mut t = offloaded_two_stage();
        for _ in 0..4 {
            step(&mut t);
        }
        for stage in &t.stages {
            let own = t.model.stage_parameters(stage.layer_range.clone());
            let bytes: u64 = own.iter().map(|p| p.tensor().bytes()).sum();
            let memory = &stage.gpu.runtime.memory;
            assert!(!memory.step_memory().timeline.is_empty());
            assert_eq!(memory.resident(MemClass::Parameter), bytes);
        }
    }

    #[test]
    fn an_offloaded_two_stage_trace_keeps_its_pinned_bytes() {
        // A traced, offloaded two-stage run, pinned to the byte: its
        // events, the link pricing of its 256 offload reads (each stage's
        // input is offloaded too: it is dropped when its forward returns,
        // before the boundary's prefetch) and its makespan. A change to
        // how a stage's GPU is built (executor, I/O engine, offload
        // target) that moves any of them shows here. Each stage's update
        // adds one `opt.stage{j}` span a step, numbered from the stage's
        // first layer; its stage scopes add 18 `stage.*` spans a step
        // (one per command), and its optimizer exit a `tier.io.cpu` and
        // a `class.io.activation` instant. Each set is pinned on its own.
        let mut t = offloaded_two_stage();
        let sink = traced(&mut t);
        let steps: Vec<u64> = (0..2).map(|_| step(&mut t).step_secs.to_bits()).collect();
        let (updates, events): (Vec<_>, Vec<_>) =
            (sink.events().into_iter()).partition(|e| e.name.starts_with("opt.stage"));
        let (scopes, events): (Vec<_>, Vec<_>) =
            (events.into_iter()).partition(|e| e.name.starts_with("stage."));
        let (tier_io, events): (Vec<_>, Vec<_>) = (events.into_iter())
            .partition(|e| e.name.starts_with("tier.io.") || e.name.starts_with("class.io."));
        assert_eq!(updates.len(), 4);
        let names: std::collections::BTreeSet<&str> =
            updates.iter().map(|e| e.name.as_ref()).collect();
        assert_eq!(
            names.into_iter().collect::<Vec<_>>(),
            ["opt.stage0", "opt.stage1"]
        );
        assert_eq!((scopes.len(), tier_io.len()), (72, 8));
        let reads = events
            .iter()
            .filter(|e| e.name == "xfer.offload-read")
            .count();
        let json = ssdtrain_trace::chrome_trace_json(&events);
        assert_eq!((events.len(), reads), (1980, 256));
        assert_eq!(json.len(), 212_423);
        assert_eq!(fnv1a(json.as_bytes()), 0x5101_3877_94ef_6f62);
        assert_eq!(steps, [0x3f75_a14b_3065_e0a4; 2]);
    }

    #[test]
    fn a_deadlocked_schedule_names_the_first_stuck_stage() {
        // Stage 0 opens with micro-batch 1's backward, which waits on
        // stage 1's; stage 1 opens with micro-batch 0's forward, which
        // waits on stage 0's. Neither can start.
        let cmds = vec![
            vec![StageCmd::Backward { mb: 1 }, StageCmd::Forward { mb: 0 }],
            vec![StageCmd::Forward { mb: 0 }, StageCmd::Backward { mb: 1 }],
        ];
        let mut ran = 0;
        let err = walk_stages(
            &cmds,
            0.001,
            |_, _, ready| {
                ran += 1;
                Ok(ready)
            },
            |stage, micro_batch| PipelineError::Schedule {
                stage,
                micro_batch,
                what: "deadlocked",
            },
        )
        .err();
        assert_eq!(ran, 0);
        match err {
            Some(PipelineError::Schedule {
                stage: 0,
                micro_batch: 1,
                ..
            }) => {}
            other => panic!("expected stage 0 stuck on micro-batch 1, got {other:?}"),
        }
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
