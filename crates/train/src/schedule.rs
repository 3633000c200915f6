//! The hinted step schedule and its runner — a direct transcription of
//! the paper's Algorithm 1 (`deepspeed_exec_schedule`).
//!
//! A GPU's step is a list of [`StepCmd`]s: [`stage_schedule`] expands a
//! pipeline stage's 1F1B passes into them, and one GPU is the one-stage
//! case. A [`StepRunner`] executes each command inside an
//! [`ssdtrain::TensorCache::stage_scope`] guard (line 9; the guard's
//! drop is line 15, where a backward waits for outstanding I/O). The
//! boundary after a forward announces *its own* micro-batch's backward,
//! [`ssdtrain::StageScope::announce_next`] prefetching the last module
//! (lines 11–13), whatever command follows: in 1F1B warm-up the next
//! command is another forward.

use crate::opt_engine::OptEngine;
use crate::pipeline::{one_f1b_commands, StageCmd};
use crate::session::Gpu;
use ssdtrain::{StageHint, TraceCategory, TraceSink};
use ssdtrain_autograd::{Graph, Phase};
use std::cell::Cell;
use std::sync::Arc;

/// One scheduler command (the subset of DeepSpeed's pipeline
/// instructions that matters to one GPU's step); `mb` is the
/// micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepCmd {
    /// Load a micro-batch (the boundary command before its forward).
    LoadMicroBatch { mb: usize },
    /// A micro-batch's forward pass.
    ForwardPass { mb: usize },
    /// The stage switch after a micro-batch's forward — the slot
    /// DeepSpeed's pipeline schedule fills with activation sends, where
    /// Algorithm 1's prefetch hint announces that micro-batch's backward.
    StageBoundary,
    /// A micro-batch's backward pass.
    BackwardPass { mb: usize },
    /// Gradient reduction across data-parallel ranks.
    ReduceGrads,
    /// Optimizer update.
    OptimizerStep,
}

impl StepCmd {
    /// The hint the cache's stage scope takes for this command.
    fn stage(self) -> StageHint {
        match self {
            StepCmd::LoadMicroBatch { mb } => StageHint::MicroBatchLoad(mb),
            StepCmd::ForwardPass { .. } => StageHint::Forward,
            StepCmd::StageBoundary | StepCmd::ReduceGrads => StageHint::Communication,
            StepCmd::BackwardPass { .. } => StageHint::Backward,
            StepCmd::OptimizerStep => StageHint::Optimizer,
        }
    }
}

/// Builds stage `s`'s command stream for `m` micro-batches (at least
/// one) on a `pp`-stage pipeline: each forward of
/// [`one_f1b_commands`] becomes `load, forward, boundary`, each backward
/// a backward pass, and the stream ends with reduce + optimizer. With
/// `pp = 1` this is the single-GPU gradient-accumulation schedule the
/// paper's Figure 4 walks through for `m = 2`.
pub(crate) fn stage_schedule(pp: usize, s: usize, m: usize) -> Vec<StepCmd> {
    let passes = one_f1b_commands(pp, s, m.max(1));
    let mut cmds = Vec::with_capacity(2 * passes.len() + 2);
    for pass in passes {
        match pass {
            StageCmd::Forward { mb } => cmds.extend([
                StepCmd::LoadMicroBatch { mb },
                StepCmd::ForwardPass { mb },
                StepCmd::StageBoundary,
            ]),
            StageCmd::Backward { mb } => cmds.push(StepCmd::BackwardPass { mb }),
        }
    }
    cmds.extend([StepCmd::ReduceGrads, StepCmd::OptimizerStep]);
    cmds
}

/// Executes one GPU's command stream (built once) in its graph under
/// the cache's stage scopes, and knows where the step stands in it. The
/// owner supplies the forward and backward bodies; the runner does the
/// rest: the micro-batch switch, the phases, the prefetch hint, the
/// optimizer's gradient listener on the backward whose gradients
/// `ReduceGrads` then reduces, the tape reset after a backward that
/// leaves no micro-batch in flight, and the optimizer commands.
pub(crate) struct StepRunner {
    cmds: Vec<StepCmd>,
    pub(crate) graph: Graph,
    /// The optimizer engine of the parameters the GPU holds.
    pub(crate) opt: Arc<OptEngine>,
    /// The backward right before `ReduceGrads`: its gradients are final.
    listen_at: Option<usize>,
    /// The next command to run; a run that ends the stream wraps it.
    next: Cell<usize>,
    /// Micro-batches loaded whose backward has not run.
    in_flight: Cell<usize>,
}

impl StepRunner {
    /// A runner of `cmds` in `graph`, updating through `opt`.
    pub(crate) fn new(cmds: Vec<StepCmd>, graph: Graph, opt: Arc<OptEngine>) -> StepRunner {
        let listen_at = (cmds.windows(2))
            .position(|w| matches!(w, [StepCmd::BackwardPass { .. }, StepCmd::ReduceGrads]));
        StepRunner {
            cmds,
            graph,
            opt,
            listen_at,
            next: Cell::new(0),
            in_flight: Cell::new(0),
        }
    }

    /// Goes back to the stream's top (a step that failed part-way).
    pub(crate) fn rewind(&self) {
        self.next.set(0);
        self.in_flight.set(0);
    }

    /// Runs the stream from where it stands through the first command
    /// equal to `until` (or to its end), each inside its stage scope on
    /// `gpu`'s cache — or, without one, under a `stage.*` span of its
    /// own when tracing. `body` runs the forward and backward passes;
    /// its first error ends the run. Returns the seconds of the inline
    /// update and those the in-backward update exposed after backward.
    pub(crate) fn run<E>(
        &self,
        gpu: &Gpu,
        trace: &TraceSink,
        until: StepCmd,
        mut body: impl FnMut(StepCmd) -> Result<(), E>,
    ) -> Result<(f64, f64), E> {
        let (graph, clock) = (&self.graph, &gpu.runtime.clock);
        let (mut update, mut exposed) = (0.0, 0.0);
        while let Some(&cmd) = self.cmds.get(self.next.get()) {
            let at = self.next.get();
            self.next.set((at + 1) % self.cmds.len());
            let (stage, start) = (cmd.stage(), clock.now());
            let scope = gpu.cache.as_ref().map(|c| c.stage_scope(stage));
            match cmd {
                StepCmd::LoadMicroBatch { mb } => {
                    graph.set_micro_batch(mb);
                    self.in_flight.set(self.in_flight.get() + 1);
                }
                StepCmd::ForwardPass { .. } => {
                    graph.set_phase(Phase::Forward);
                    body(cmd)?;
                }
                StepCmd::StageBoundary => {
                    if let Some(scope) = &scope {
                        scope.announce_next(StageHint::Backward); // lines 10-13
                    }
                }
                StepCmd::BackwardPass { .. } => {
                    // The listener runs each parameter's update (or
                    // inline, its stash) while backward still computes.
                    if Some(at) == self.listen_at {
                        graph.set_grad_listener(self.opt.grad_listener());
                    }
                    graph.set_phase(Phase::Backward);
                    let done = body(cmd);
                    graph.set_grad_listener(None);
                    done?;
                    self.in_flight.set(self.in_flight.get().saturating_sub(1));
                    if self.in_flight.get() == 0 {
                        graph.reset_tape();
                    }
                }
                // Data parallelism degree 1: nothing to reduce, but the
                // in-backward update finishes here (its wait is exposed)
                // and the inline sweep stashes what did not stream.
                StepCmd::ReduceGrads => exposed += self.opt.reduce_grads(clock, trace),
                StepCmd::OptimizerStep => update += self.opt.end_of_step(clock, trace),
            }
            match scope {
                Some(scope) => drop(scope), // line 15 + stage span
                None if trace.is_enabled() => {
                    let (label, end) = (stage.trace_label(), clock.now());
                    trace.span(TraceCategory::Stage, label, start, end);
                }
                None => {}
            }
            if cmd == until || at + 1 == self.cmds.len() {
                break;
            }
        }
        Ok((update, exposed))
    }
}

/// Partitions `n` optimizer parameters into `stages` contiguous,
/// disjoint ranges covering `0..n` (the remainder goes to the early
/// stages, mirroring the pipeline's layer split). This is the unit of
/// work of the per-stage optimizer jobs `OptEngine` runs inline at the
/// `OptimizerStep` command (stage *j* updates exactly
/// `stage_ranges(n, s)[j]`), and `PipelineExec` splits its layers over
/// stages with it.
pub(crate) fn stage_ranges(n: usize, stages: usize) -> Vec<std::ops::Range<usize>> {
    let stages = stages.clamp(1, n.max(1));
    let per = n / stages;
    let extra = n % stages;
    let mut start = 0;
    (0..stages)
        .map(|s| {
            let len = per + usize::from(s < extra);
            let r = start..start + len;
            start += len;
            r
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_shape_matches_figure4() {
        let cmds = stage_schedule(1, 0, 2);
        assert_eq!(
            cmds,
            vec![
                StepCmd::LoadMicroBatch { mb: 0 },
                StepCmd::ForwardPass { mb: 0 },
                StepCmd::StageBoundary,
                StepCmd::BackwardPass { mb: 0 },
                StepCmd::LoadMicroBatch { mb: 1 },
                StepCmd::ForwardPass { mb: 1 },
                StepCmd::StageBoundary,
                StepCmd::BackwardPass { mb: 1 },
                StepCmd::ReduceGrads,
                StepCmd::OptimizerStep,
            ]
        );
    }

    #[test]
    fn stage_schedule_expands_each_1f1b_pass_in_order() {
        for pp in [1, 2, 4] {
            for m in [1, 2, 4, 8] {
                for s in 0..pp {
                    let cmds = stage_schedule(pp, s, m);
                    let at = |c| cmds.iter().position(|x| *x == c);
                    // Each micro-batch's forward triple appears once,
                    // consecutively, and its backward after it.
                    let mut passes = Vec::new();
                    for mb in 0..m {
                        let load = at(StepCmd::LoadMicroBatch { mb }).expect("loaded");
                        assert_eq!(
                            cmds[load..load + 3],
                            [
                                StepCmd::LoadMicroBatch { mb },
                                StepCmd::ForwardPass { mb },
                                StepCmd::StageBoundary,
                            ],
                            "pp={pp} s={s} m={m} mb={mb}"
                        );
                        let once = |c: StepCmd| cmds.iter().filter(|x| **x == c).count();
                        assert_eq!(once(StepCmd::ForwardPass { mb }), 1);
                        assert_eq!(once(StepCmd::BackwardPass { mb }), 1);
                        let bwd = at(StepCmd::BackwardPass { mb }).expect("backward");
                        assert!(bwd > load + 2, "pp={pp} s={s} m={m} mb={mb}");
                        passes.push((load, StageCmd::Forward { mb }));
                        passes.push((bwd, StageCmd::Backward { mb }));
                    }
                    // The passes come in `one_f1b_commands` order ...
                    passes.sort_unstable_by_key(|p| p.0);
                    let order: Vec<StageCmd> = passes.into_iter().map(|p| p.1).collect();
                    assert_eq!(order, one_f1b_commands(pp, s, m));
                    // ... and the stream ends with the update.
                    assert_eq!(
                        cmds[cmds.len() - 2..],
                        [StepCmd::ReduceGrads, StepCmd::OptimizerStep]
                    );
                    assert_eq!(cmds.len(), 4 * m + 2);
                }
            }
        }
    }

    #[test]
    fn zero_micro_batches_still_builds_one() {
        let cmds = stage_schedule(1, 0, 0);
        assert!(cmds
            .iter()
            .any(|c| matches!(c, StepCmd::BackwardPass { .. })));
    }

    #[test]
    fn stage_ranges_cover_all_params_disjointly() {
        for (n, s) in [(10, 3), (4, 4), (7, 2), (5, 1), (3, 8)] {
            let ranges = stage_ranges(n, s);
            assert_eq!(ranges.len(), s.clamp(1, n));
            let mut covered = Vec::new();
            for r in &ranges {
                covered.extend(r.clone());
            }
            assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} s={s}");
        }
    }

    #[test]
    fn stage_ranges_tolerate_degenerate_shapes() {
        assert_eq!(stage_ranges(0, 4), vec![0..0]);
        assert_eq!(stage_ranges(6, 0), vec![0..6]);
    }
}
