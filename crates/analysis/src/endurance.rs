//! SSD lifespan and PCIe bandwidth projection — the Figure 9 sweep.
//!
//! For every large-system configuration the paper models: per-GPU
//! activation volume per step, required PCIe write bandwidth (volume
//! over half the step time), projected lifespan of a 4-drive per-GPU
//! array, and the maximal activation volume offloading can open up
//! (keeping only two layers resident).

use crate::activations::ActivationModel;
use crate::perfmodel::StepTimeModel;
use ssdtrain_simhw::catalog::{ssds, MegatronConfig};
use ssdtrain_simhw::{Raid0, WearMeter};

/// One row of the Figure 9 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Framework label (`Megatron` / `ZeRO3`).
    pub framework: String,
    /// Model size in billions of parameters.
    pub params_b: f64,
    /// Total GPUs.
    pub gpus: usize,
    /// Seconds per training step.
    pub step_secs: f64,
    /// Activation bytes produced per GPU per step.
    pub act_bytes_per_gpu: u64,
    /// Required PCIe write bandwidth per GPU, bytes/s.
    pub pcie_write_bps: f64,
    /// Projected SSD-array lifespan in years.
    pub lifespan_years: f64,
    /// Maximal activation bytes per GPU per step offloading opens up.
    pub max_act_bytes_per_gpu: u64,
    /// Micro-batch size achieving that maximum.
    pub max_micro_batch: usize,
}

/// Full lifespan projection for one configuration.
#[derive(Debug, Clone)]
pub struct LifespanProjection {
    /// The per-GPU SSD array assumed (paper: four Solidigm D7-P5810).
    pub array: Raid0,
    /// Workload write-amplification factor (sequential ≈ 1).
    pub workload_waf: f64,
}

impl Default for LifespanProjection {
    fn default() -> Self {
        LifespanProjection {
            // The paper assumes "four Solidigm D7-P5810 12.8TB" per GPU
            // (Section 3.4) — P5810 endurance at 12.8 TB capacity.
            array: Raid0::new(ssds::solidigm_p5810_12t8(), 4),
            workload_waf: 1.0,
        }
    }
}

/// The configurations Figure 9 sweeps: the published large-system runs
/// with hidden ≥ 8192. The paper notes "a model with more than 60b
/// parameters has a hidden dimension of no less than 8k"; smaller-hidden
/// configs have an unfavourable bytes-per-FLOP ratio and are outside the
/// figure's scope (the bench prints them separately for completeness).
pub fn figure9_configs() -> Vec<MegatronConfig> {
    ssdtrain_simhw::catalog::megatron_configs()
        .into_iter()
        .filter(|c| c.hidden >= 8192)
        .collect()
}

impl LifespanProjection {
    /// Projects one sweep row from a published configuration.
    pub fn project(&self, cfg: &MegatronConfig) -> SweepRow {
        let time = StepTimeModel::from_megatron(cfg);
        let dp = (cfg.gpus / (cfg.tp * cfg.pp)).max(1);
        let batch_per_gpu = (cfg.batch / dp).max(1);
        let layers_per_gpu = (cfg.layers / cfg.pp).max(1);
        // Large Megatron systems enable sequence parallelism, sharding
        // every activation term across the TP group.
        let mut act =
            ActivationModel::fp16(batch_per_gpu, cfg.seq, cfg.hidden, layers_per_gpu, cfg.tp);
        if cfg.tp > 1 {
            act = act.with_seq_parallel();
        }
        let act_bytes = act.step_total_bytes();
        let pcie = act.required_write_bps(time.step_secs);
        let meter: WearMeter = self.array.wear_meter(self.workload_waf);
        let lifespan = meter.projected_lifespan_years(act_bytes.max(1), time.step_secs);

        // Maximal activations (Figure 9 diamonds): grow the micro-batch
        // until two layers' activations fill a 40 GB A100's activation
        // budget (paper Section 3.4). A step then processes enough
        // micro-batches to keep the pipeline full (at least `pp`) and to
        // cover the configured per-GPU batch — the total offloaded
        // volume those sequences produce is what offloading opens up.
        let mut per_seq = ActivationModel::fp16(1, cfg.seq, cfg.hidden, layers_per_gpu, cfg.tp);
        if cfg.tp > 1 {
            per_seq = per_seq.with_seq_parallel();
        }
        let per_layer_b1 = per_seq.layer_bytes();
        let budget: u64 = 30 * (1 << 30); // 40 GB minus weights/optimizer
        let max_mb = (budget / (2 * per_layer_b1)).max(1) as usize;
        let seqs_per_step = batch_per_gpu.max(cfg.pp * max_mb);
        let max_act = per_seq.step_total_bytes() * seqs_per_step as u64;

        SweepRow {
            framework: cfg.framework.clone(),
            params_b: cfg.params_b,
            gpus: cfg.gpus,
            step_secs: time.step_secs,
            act_bytes_per_gpu: act_bytes,
            pcie_write_bps: pcie,
            lifespan_years: lifespan,
            max_act_bytes_per_gpu: max_act,
            max_micro_batch: max_mb,
        }
    }

    /// Lifespan in years if the data-retention period is relaxed,
    /// multiplying PE cycles (paper Section 3.4 cites ~50× for 3 years →
    /// 3 days).
    pub fn lifespan_with_retention_relaxation(
        &self,
        row: &SweepRow,
        from_days: f64,
        to_days: f64,
    ) -> f64 {
        let factor = ssdtrain_simhw::ssd::retention_relaxation_factor(from_days, to_days);
        row.lifespan_years * factor
    }
}

#[cfg(test)]
mod tests {
    use super::figure9_configs;
    use super::*;

    #[test]
    fn all_projected_lifespans_exceed_three_years() {
        // The paper's headline Figure 9 claim.
        let proj = LifespanProjection::default();
        for cfg in figure9_configs() {
            let row = proj.project(&cfg);
            assert!(
                row.lifespan_years > 3.0,
                "{} {}B on {}: {:.1} years",
                row.framework,
                row.params_b,
                row.gpus,
                row.lifespan_years
            );
        }
    }

    #[test]
    fn pcie_bandwidth_stays_under_the_paper_bound() {
        // Paper: required per-GPU PCIe write bandwidth ≤ 12.1 GB/s across
        // the sweep.
        let proj = LifespanProjection::default();
        for cfg in figure9_configs() {
            let row = proj.project(&cfg);
            assert!(
                row.pcie_write_bps < 13e9,
                "{} {}B: {:.1} GB/s",
                row.framework,
                row.params_b,
                row.pcie_write_bps / 1e9
            );
        }
    }

    #[test]
    fn scaling_up_reduces_bandwidth_and_extends_lifespan() {
        // Paper: "when the system size and/or the model size scales up,
        // the required PCIe write bandwidth reduces, and the projected
        // lifespan increases" (weak-scaling argument). Compare the
        // smallest and largest Megatron configs.
        let proj = LifespanProjection::default();
        let configs = figure9_configs();
        let small = proj.project(&configs[0]);
        let large = proj.project(
            configs
                .iter()
                .rfind(|c| c.framework == "Megatron")
                .expect("1T config"),
        );
        assert!(
            large.pcie_write_bps < small.pcie_write_bps,
            "{} vs {}",
            large.pcie_write_bps,
            small.pcie_write_bps
        );
        assert!(large.lifespan_years > small.lifespan_years);
    }

    #[test]
    fn max_activation_volume_is_hundreds_of_gigabytes() {
        // Paper: 0.4–1.8 TB per GPU per step across the sweep, far
        // beyond host memory — the SSD-capacity argument.
        let proj = LifespanProjection::default();
        let mut max_seen: u64 = 0;
        for cfg in figure9_configs() {
            let row = proj.project(&cfg);
            assert!(
                row.max_act_bytes_per_gpu > 100_000_000_000,
                "{}B: {:.2} TB",
                row.params_b,
                row.max_act_bytes_per_gpu as f64 / 1e12
            );
            max_seen = max_seen.max(row.max_act_bytes_per_gpu);
        }
        assert!(max_seen as f64 > 0.4e12, "peak {max_seen}");
    }

    #[test]
    fn retention_relaxation_multiplies_lifespan() {
        let proj = LifespanProjection::default();
        let row = proj.project(&figure9_configs()[0]);
        let relaxed = proj.lifespan_with_retention_relaxation(&row, 3.0 * 365.25, 3.0);
        assert!((relaxed / row.lifespan_years - 50.0).abs() < 1.5);
    }
}
