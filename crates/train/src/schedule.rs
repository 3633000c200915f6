//! The hinted step schedule — a direct transcription of the paper's
//! Algorithm 1 (`deepspeed_exec_schedule`).
//!
//! A step is a list of [`StepCmd`]s. The runner executes each command
//! inside an [`ssdtrain::TensorCache::stage_scope`] guard; when the
//! *current* command is a communication/boundary command and the *next*
//! is a backward pass, [`ssdtrain::StageScope::announce_next`] prefetches
//! the last module (Algorithm 1 lines 11–13), and dropping a backward
//! scope waits for outstanding I/O (line 15).

/// One scheduler command (the subset of DeepSpeed's pipeline
/// instructions that matters on a single GPU with gradient
/// accumulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepCmd {
    /// Load micro-batch `mb` (the boundary command before its forward).
    LoadMicroBatch {
        /// Micro-batch index.
        mb: usize,
    },
    /// Forward pass of micro-batch `mb`.
    ForwardPass {
        /// Micro-batch index.
        mb: usize,
    },
    /// The stage switch between a micro-batch's forward and backward —
    /// the slot DeepSpeed's pipeline schedule fills with activation
    /// sends; Algorithm 1's prefetch hint fires here because the *next*
    /// command is a backward pass.
    StageBoundary,
    /// Backward pass of micro-batch `mb`.
    BackwardPass {
        /// Micro-batch index.
        mb: usize,
    },
    /// Gradient reduction across data-parallel ranks.
    ReduceGrads,
    /// Optimizer update.
    OptimizerStep,
}

impl StepCmd {
    /// Whether this is a boundary/communication command after which the
    /// scheduler peeks at the next command (Algorithm 1 line 12 checks
    /// `cmd is communication`).
    pub(crate) fn is_boundary(self) -> bool {
        matches!(
            self,
            StepCmd::LoadMicroBatch { .. } | StepCmd::StageBoundary | StepCmd::ReduceGrads
        )
    }
}

/// Builds the single-GPU gradient-accumulation schedule for `m`
/// micro-batches: `load, forward, boundary, backward` per micro-batch,
/// then reduce + optimizer — the command stream the paper's Figure 4
/// walks through for `m = 2`.
pub(crate) fn single_gpu_schedule(m: usize) -> Vec<StepCmd> {
    let mut cmds = Vec::with_capacity(4 * m + 2);
    for mb in 0..m.max(1) {
        cmds.push(StepCmd::LoadMicroBatch { mb });
        cmds.push(StepCmd::ForwardPass { mb });
        cmds.push(StepCmd::StageBoundary);
        cmds.push(StepCmd::BackwardPass { mb });
    }
    cmds.push(StepCmd::ReduceGrads);
    cmds.push(StepCmd::OptimizerStep);
    cmds
}

/// Iterates `(cmd, next_cmd)` pairs the way Algorithm 1's loop does.
pub(crate) fn with_lookahead(
    cmds: &[StepCmd],
) -> impl Iterator<Item = (StepCmd, Option<StepCmd>)> + '_ {
    cmds.iter()
        .enumerate()
        .map(|(i, c)| (*c, cmds.get(i + 1).copied()))
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
        let cmds = single_gpu_schedule(2);
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
    fn lookahead_flags_the_forward_backward_boundary() {
        // Algorithm 1: prefetch fires when a boundary command is followed
        // by a backward pass.
        let cmds = single_gpu_schedule(2);
        let firing: Vec<usize> = with_lookahead(&cmds)
            .enumerate()
            .filter(|(_, (cmd, next))| {
                cmd.is_boundary() && matches!(next, Some(StepCmd::BackwardPass { .. }))
            })
            .map(|(i, _)| i)
            .collect();
        // Exactly once per micro-batch, right after its forward.
        assert_eq!(firing, vec![2, 6]);
    }

    #[test]
    fn zero_micro_batches_still_builds_one() {
        let cmds = single_gpu_schedule(0);
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
