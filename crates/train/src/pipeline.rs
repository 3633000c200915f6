//! A 1F1B pipeline-parallel schedule simulator.
//!
//! The paper's Algorithm 1 hooks SSDTrain into DeepSpeed's *pipeline*
//! scheduler; its Section 4.4 argues that the activation memory TBA
//! frees should be spent on more in-flight micro-batches, which shrink
//! pipeline bubbles. This module simulates the non-interleaved 1F1B
//! schedule explicitly — per-stage command streams with cross-stage
//! dependencies — and reports the measured makespan, bubble fraction and
//! per-stage activation residency under keep vs offload placement.
//!
//! Per-micro-batch durations and activation volumes are parameters, so a
//! profiled [`crate::TrainSession`] measurement can ground the
//! simulation (see [`PipelineSim::from_step_metrics`]).

use crate::metrics::StepMetrics;
use std::convert::Infallible;

/// One pipeline-stage command (the `cmd` stream of the paper's
/// Algorithm 1, reduced to what affects time and memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageCmd {
    /// Forward of micro-batch `mb`.
    Forward {
        /// Micro-batch index.
        mb: usize,
    },
    /// Backward of micro-batch `mb`.
    Backward {
        /// Micro-batch index.
        mb: usize,
    },
}

impl StageCmd {
    const fn mb(self) -> usize {
        match self {
            StageCmd::Forward { mb } | StageCmd::Backward { mb } => mb,
        }
    }
}

/// Builds stage `s`'s 1F1B command order for `m` micro-batches on a
/// `pp`-stage pipeline: `min(m, pp - s)` warm-up forwards, then strict
/// 1B1F alternation, then the cool-down backwards.
pub fn one_f1b_commands(pp: usize, s: usize, m: usize) -> Vec<StageCmd> {
    assert!(s < pp, "stage out of range");
    let warmup = (pp - s).min(m);
    let mut cmds = Vec::with_capacity(2 * m);
    for mb in 0..warmup {
        cmds.push(StageCmd::Forward { mb });
    }
    let mut next_f = warmup;
    let mut next_b = 0;
    while next_b < m {
        cmds.push(StageCmd::Backward { mb: next_b });
        next_b += 1;
        if next_f < m {
            cmds.push(StageCmd::Forward { mb: next_f });
            next_f += 1;
        }
    }
    cmds
}

/// When each of a walked step's forwards or backwards ended, indexed
/// `[stage][micro-batch]`.
type Ends = Vec<Vec<f64>>;

/// Walks per-stage command streams (stage `s` runs `cmds[s]` in order)
/// as their dependencies resolve: a forward is ready `send_secs` after
/// the previous stage's forward of its micro-batch ended, a backward
/// `send_secs` after the next stage's backward did, and the last
/// stage's backward as soon as its own forward did. `run(stage, cmd,
/// ready)` executes one command and returns when it ended; the walk
/// returns the forwards' and the backwards' ends. A sweep in which no
/// stage can start its next command ends the walk with `stuck(stage,
/// mb)` for the first stage left waiting.
pub(crate) fn walk_stages<E>(
    cmds: &[Vec<StageCmd>],
    send_secs: f64,
    mut run: impl FnMut(usize, StageCmd, f64) -> Result<f64, E>,
    stuck: impl FnOnce(usize, usize) -> E,
) -> Result<(Ends, Ends), E> {
    let pp = cmds.len();
    let m = cmds.iter().flatten().map(|c| c.mb() + 1).max().unwrap_or(0);
    let (mut fwd, mut bwd) = (vec![vec![f64::NAN; m]; pp], vec![vec![f64::NAN; m]; pp]);
    let mut cursor = vec![0usize; pp];
    let total: usize = cmds.iter().map(Vec::len).sum();
    let mut done = 0;
    while done < total {
        let mut progressed = false;
        for s in 0..pp {
            while let Some(&cmd) = cmds[s].get(cursor[s]) {
                // NaN until the input's producer has run.
                let ready = match cmd {
                    StageCmd::Forward { .. } if s == 0 => 0.0,
                    StageCmd::Forward { mb } => fwd[s - 1][mb] + send_secs,
                    StageCmd::Backward { mb } if s == pp - 1 => fwd[s][mb],
                    StageCmd::Backward { mb } => bwd[s + 1][mb] + send_secs,
                };
                if ready.is_nan() {
                    break;
                }
                let end = run(s, cmd, ready)?;
                match cmd {
                    StageCmd::Forward { mb } => fwd[s][mb] = end,
                    StageCmd::Backward { mb } => bwd[s][mb] = end,
                }
                cursor[s] += 1;
                done += 1;
                progressed = true;
            }
        }
        if !progressed {
            let (stage, mb) = (0..pp)
                .find_map(|s| Some((s, cmds[s].get(cursor[s])?.mb())))
                .unwrap_or_default();
            return Err(stuck(stage, mb));
        }
    }
    Ok((fwd, bwd))
}

/// Parameters of one simulated pipeline step.
///
/// ```
/// use ssdtrain_train::PipelineSim;
/// let sim = PipelineSim {
///     pp: 4,
///     micro_batches: 16,
///     fwd_secs: 0.01,
///     bwd_secs: 0.02,
///     act_bytes_per_mb: 1 << 30,
///     offload_resident_bytes: 1 << 28,
///     send_secs: 0.0,
/// };
/// let m = sim.run();
/// assert!(m.bubble_fraction < 0.2); // 16 micro-batches on 4 stages
/// assert_eq!(m.peak_in_flight, 4);  // 1F1B holds pp micro-batches
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSim {
    /// Pipeline stages.
    pub pp: usize,
    /// Micro-batches per step.
    pub micro_batches: usize,
    /// Seconds of one stage's forward for one micro-batch.
    pub fwd_secs: f64,
    /// Seconds of one stage's backward for one micro-batch.
    pub bwd_secs: f64,
    /// Activation bytes one micro-batch leaves resident on one stage
    /// (keep strategy) between its forward and backward.
    pub act_bytes_per_mb: u64,
    /// Resident activation bytes with offloading (flat in the number of
    /// in-flight micro-batches; measured from a single-stage session).
    pub offload_resident_bytes: u64,
    /// Activation-boundary transfer time between adjacent stages.
    pub send_secs: f64,
}

/// Results of simulating one step.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineMetrics {
    /// Makespan of the step (last backward on stage 0).
    pub step_secs: f64,
    /// Ideal (bubble-free) time: `m × (f + b)` on one stage.
    pub ideal_secs: f64,
    /// Measured idle fraction `1 - ideal/step`.
    pub bubble_fraction: f64,
    /// Peak in-flight micro-batches on stage 0.
    pub peak_in_flight: usize,
    /// Stage-0 activation peak under keep.
    pub keep_peak_bytes: u64,
    /// Stage-0 activation residency under offload.
    pub offload_peak_bytes: u64,
}

impl PipelineSim {
    /// Grounds the per-micro-batch quantities in a measured single-stage
    /// step: `metrics` must come from a session configured with this
    /// stage's layer slice and a single micro-batch.
    pub fn from_step_metrics(
        pp: usize,
        micro_batches: usize,
        metrics: &StepMetrics,
        offload_resident_bytes: u64,
        send_secs: f64,
    ) -> PipelineSim {
        PipelineSim {
            pp,
            micro_batches,
            fwd_secs: metrics.fwd_secs,
            bwd_secs: (metrics.step_secs - metrics.fwd_secs).max(0.0),
            act_bytes_per_mb: metrics.act_peak_bytes,
            offload_resident_bytes,
            send_secs,
        }
    }

    /// Runs the schedule to completion and reports the metrics.
    ///
    /// # Panics
    /// Panics if `pp == 0` or `micro_batches == 0`.
    pub fn run(&self) -> PipelineMetrics {
        let (pp, m) = (self.pp, self.micro_batches);
        assert!(pp > 0 && m > 0, "pipeline needs stages and micro-batches");
        let cmds: Vec<Vec<StageCmd>> = (0..pp).map(|s| one_f1b_commands(pp, s, m)).collect();
        // A stage runs one command at a time, each for its fixed duration.
        let mut stage_free = vec![0.0f64; pp];
        let price = |s: usize, cmd: StageCmd, ready: f64| {
            stage_free[s] = ready.max(stage_free[s])
                + match cmd {
                    StageCmd::Forward { .. } => self.fwd_secs,
                    StageCmd::Backward { .. } => self.bwd_secs,
                };
            Ok(stage_free[s])
        };
        #[expect(clippy::panic, reason = "the 1F1B orders are deadlock-free")]
        let Ok((f_end, b_end)) =
            walk_stages(&cmds, self.send_secs, price, |stage, mb| -> Infallible {
                panic!("1F1B schedule deadlocked at stage {stage}, micro-batch {mb} (bug)")
            });

        let step_secs = b_end[0].iter().fold(0.0f64, |acc, e| acc.max(*e));
        let ideal_secs = m as f64 * (self.fwd_secs + self.bwd_secs);
        let bubble_fraction = 1.0 - ideal_secs / step_secs;

        // Stage-0 in-flight peak: sweep its forward/backward completions.
        let mut events: Vec<(f64, i32)> = Vec::with_capacity(2 * m);
        for mb in 0..m {
            events.push((f_end[0][mb], 1));
            events.push((b_end[0][mb], -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut in_flight = 0i32;
        let mut peak = 0i32;
        for (_, d) in events {
            in_flight += d;
            peak = peak.max(in_flight);
        }
        let peak_in_flight = peak.max(0) as usize;

        PipelineMetrics {
            step_secs,
            ideal_secs,
            bubble_fraction,
            peak_in_flight,
            keep_peak_bytes: self.act_bytes_per_mb * peak_in_flight as u64,
            offload_peak_bytes: self.offload_resident_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_analysis::pipeline::bubble_fraction;

    fn sim(pp: usize, m: usize) -> PipelineSim {
        PipelineSim {
            pp,
            micro_batches: m,
            fwd_secs: 1.0,
            bwd_secs: 2.0,
            act_bytes_per_mb: 1 << 30,
            offload_resident_bytes: 1 << 28,
            send_secs: 0.0,
        }
    }

    #[test]
    fn single_stage_has_no_bubble() {
        let m = sim(1, 4).run();
        assert!((m.step_secs - 12.0).abs() < 1e-9);
        assert!(m.bubble_fraction.abs() < 1e-9);
        assert_eq!(m.peak_in_flight, 1);
    }

    #[test]
    fn command_stream_shape_is_1f1b() {
        let cmds = one_f1b_commands(4, 0, 6);
        // Stage 0: 4 warm-up forwards, then B/F alternation, then drain.
        assert_eq!(
            &cmds[..6],
            &[
                StageCmd::Forward { mb: 0 },
                StageCmd::Forward { mb: 1 },
                StageCmd::Forward { mb: 2 },
                StageCmd::Forward { mb: 3 },
                StageCmd::Backward { mb: 0 },
                StageCmd::Forward { mb: 4 },
            ]
        );
        assert_eq!(cmds.len(), 12);
        // Last stage warms up with exactly one forward.
        let last = one_f1b_commands(4, 3, 6);
        assert_eq!(last[0], StageCmd::Forward { mb: 0 });
        assert_eq!(last[1], StageCmd::Backward { mb: 0 });
    }

    #[test]
    fn measured_bubble_tracks_the_closed_form() {
        // With fwd = bwd the classic (pp-1)/(m+pp-1) formula is exact for
        // 1F1B; with fwd != bwd it remains a close approximation.
        for (pp, m) in [(2usize, 4usize), (4, 4), (4, 16), (8, 32)] {
            let mut s = sim(pp, m);
            s.bwd_secs = 1.0; // balanced
            let got = s.run().bubble_fraction;
            let formula = bubble_fraction(pp, m);
            assert!(
                (got - formula).abs() < 0.02,
                "pp {pp} m {m}: measured {got:.4} vs formula {formula:.4}"
            );
        }
    }

    #[test]
    fn more_micro_batches_shrink_the_measured_bubble() {
        let b4 = sim(4, 4).run().bubble_fraction;
        let b16 = sim(4, 16).run().bubble_fraction;
        let b64 = sim(4, 64).run().bubble_fraction;
        assert!(b4 > b16 && b16 > b64, "{b4} {b16} {b64}");
        assert!(b64 < 0.06);
    }

    #[test]
    fn stage0_keeps_pp_micro_batches_in_flight() {
        // 1F1B: the first stage holds up to pp micro-batches of
        // activations; offload residency stays flat.
        let m = sim(4, 16).run();
        assert_eq!(m.peak_in_flight, 4);
        assert_eq!(m.keep_peak_bytes, 4 << 30);
        assert_eq!(m.offload_peak_bytes, 1 << 28);
        let m2 = sim(4, 64).run();
        assert_eq!(m2.peak_in_flight, 4, "flat in m");
    }

    #[test]
    fn send_time_adds_to_the_critical_path() {
        let mut s = sim(4, 8);
        s.send_secs = 0.5;
        let with = s.run().step_secs;
        s.send_secs = 0.0;
        let without = s.run().step_secs;
        assert!(with > without + 2.0, "{with} vs {without}");
    }

    #[test]
    fn from_step_metrics_splits_forward_and_backward() {
        let mut m = crate::metrics::StepMetrics {
            batch: 1,
            step_secs: 3.0,
            fwd_secs: 1.0,
            act_peak_bytes: 100,
            total_peak_bytes: 200,
            act_at_bwd_start: 100,
            timeline: Default::default(),
            offload: ssdtrain::OffloadStats::default(),
            model_flops: 0,
            comm_secs: 0.0,
            ssd_host_writes: 0,
            alloc: ssdtrain_simhw::AllocatorStats::default(),
            oom: false,
            loss: 0.0,
            opt_secs: 0.0,
            opt_exposed_secs: 0.0,
        };
        m.step_secs = 3.0;
        let sim = PipelineSim::from_step_metrics(4, 8, &m, 10, 0.01);
        assert_eq!(sim.fwd_secs, 1.0);
        assert_eq!(sim.bwd_secs, 2.0);
        assert_eq!(sim.act_bytes_per_mb, 100);
        let run = sim.run();
        assert!(run.step_secs > run.ideal_secs);
    }
}
