//! Pipeline-parallel bubble analysis (paper Section 4.4, "Impact of
//! upscaling"): pipeline parallelism idles devices in proportion to
//! `(pp − 1) / (m + pp − 1)` for `m` micro-batches per step, so raising
//! `m` raises utilisation — but a 1F1B schedule keeps up to `pp`
//! micro-batches of activations resident per stage, which is exactly
//! the memory that activation offloading opens up.

use crate::activations::ActivationModel;

/// Idle fraction of a `pp`-stage pipeline running `m` micro-batches
/// (GPipe/1F1B bubble formula).
///
/// # Panics
/// Panics if `pp == 0` or `m == 0`.
pub fn bubble_fraction(pp: usize, m: usize) -> f64 {
    assert!(pp > 0 && m > 0, "pipeline stages and micro-batches > 0");
    (pp as f64 - 1.0) / (m as f64 + pp as f64 - 1.0)
}

/// Throughput multiplier relative to a bubble-free schedule.
pub fn pipeline_efficiency(pp: usize, m: usize) -> f64 {
    1.0 - bubble_fraction(pp, m)
}

/// Activation residency of one pipeline stage under 1F1B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageResidency {
    /// Micro-batches of activations a stage holds at its peak
    /// (min(m, pp) for 1F1B; the first stage is the worst).
    pub resident_micro_batches: usize,
    /// Bytes of activations resident with the keep strategy.
    pub keep_bytes: u64,
    /// Bytes resident with offloading (roughly two modules in flight
    /// per micro-batch being processed — the paper's two-layer rule).
    pub offload_bytes: u64,
}

/// Computes the stage-0 activation residency for a per-micro-batch
/// activation model under 1F1B with `pp` stages and `m` micro-batches.
pub fn stage_residency(per_micro_batch: &ActivationModel, pp: usize, m: usize) -> StageResidency {
    let resident = m.min(pp);
    let keep = per_micro_batch.step_total_bytes() * resident as u64;
    // Offloading keeps ~2 layers of the active micro-batch plus the
    // in-flight transfer window; earlier micro-batches' activations are
    // on the SSD.
    let offload = 2 * per_micro_batch.layer_bytes() + per_micro_batch.layer_bytes();
    StageResidency {
        resident_micro_batches: resident,
        keep_bytes: keep,
        offload_bytes: offload,
    }
}

/// The largest micro-batch count a stage can run before its 1F1B
/// activation residency exceeds `budget_bytes`, for keep vs offload.
/// Returns `(keep_max_m, offload_unbounded)` — with offloading the
/// residency no longer grows with `m`, which is the paper's point: the
/// freed memory can buy pipeline utilisation.
pub fn max_micro_batches(
    per_micro_batch: &ActivationModel,
    pp: usize,
    budget_bytes: u64,
) -> (usize, bool) {
    let per_mb = per_micro_batch.step_total_bytes();
    let keep_max = (budget_bytes / per_mb.max(1)) as usize; // saturates at pp resident
    let offload_fits = stage_residency(per_micro_batch, pp, 1).offload_bytes <= budget_bytes;
    (keep_max, offload_fits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_formula_matches_known_points() {
        assert_eq!(bubble_fraction(1, 8), 0.0);
        assert!((bubble_fraction(4, 1) - 0.75).abs() < 1e-12);
        assert!((bubble_fraction(4, 13) - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn more_micro_batches_raise_efficiency() {
        let mut prev = 0.0;
        for m in [1, 2, 4, 8, 16, 32] {
            let e = pipeline_efficiency(8, m);
            assert!(e > prev);
            prev = e;
        }
        assert!(prev > 0.8, "32 micro-batches on 8 stages: {prev}");
    }

    #[test]
    fn keep_residency_grows_with_micro_batches_until_pp() {
        let act = ActivationModel::fp16(4, 1024, 8192, 6, 2);
        let r1 = stage_residency(&act, 8, 2);
        let r2 = stage_residency(&act, 8, 6);
        let r3 = stage_residency(&act, 8, 32);
        assert!(r1.keep_bytes < r2.keep_bytes);
        assert_eq!(r2.keep_bytes / r1.keep_bytes, 3);
        assert_eq!(r3.resident_micro_batches, 8, "1F1B caps at pp");
        // Offload residency is flat in m.
        assert_eq!(r1.offload_bytes, r3.offload_bytes);
        assert!(r3.offload_bytes < r3.keep_bytes / 4);
    }

    #[test]
    fn offloading_unlocks_micro_batch_counts_keep_cannot_hold() {
        let act = ActivationModel::fp16(8, 1024, 8192, 8, 2);
        let budget = 20u64 * (1 << 30);
        let (keep_max, offload_fits) = max_micro_batches(&act, 8, budget);
        assert!(keep_max < 8, "keep cannot fill the pipeline: {keep_max}");
        assert!(offload_fits, "offload residency fits the same budget");
    }
}
