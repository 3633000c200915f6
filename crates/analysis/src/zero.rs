//! ZeRO memory partitioning (paper Section 2.1) and the Section 2.2
//! `S_others` accounting: parameters, gradients and optimizer states per
//! GPU under the Zero Redundancy Optimizer's sharding stages.

/// ZeRO sharding stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZeroStage {
    /// No sharding (plain data parallelism).
    None,
    /// Optimizer states sharded across the data-parallel group.
    Stage1,
    /// Stage 1 + gradients sharded.
    Stage2,
    /// Stage 2 + parameters sharded ("ZeRO3" in Figure 9's labels).
    Stage3,
}

/// Per-GPU memory for everything that is *not* activations (the paper's
/// `S_others`), under mixed-precision Adam-style training: 2 bytes of
/// FP16 weights, 2 bytes of FP16 gradients and 12 bytes of FP32
/// optimizer state (master copy + two moments) per parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZeroMemoryModel {
    /// Total model parameters.
    pub params: u64,
    /// Data-parallel group size (the sharding width).
    pub dp: usize,
    /// ZeRO stage.
    pub stage: ZeroStage,
}

/// Bytes per parameter of each component.
const PARAM_BYTES: u64 = 2;
const GRAD_BYTES: u64 = 2;
const OPTIM_BYTES: u64 = 12;

impl ZeroMemoryModel {
    /// Creates the model.
    ///
    /// # Panics
    /// Panics if `dp == 0`.
    pub fn new(params: u64, dp: usize, stage: ZeroStage) -> ZeroMemoryModel {
        assert!(dp > 0, "data-parallel width must be positive");
        ZeroMemoryModel { params, dp, stage }
    }

    /// FP16 parameter bytes resident per GPU.
    pub fn param_bytes_per_gpu(&self) -> u64 {
        match self.stage {
            ZeroStage::Stage3 => self.params * PARAM_BYTES / self.dp as u64,
            _ => self.params * PARAM_BYTES,
        }
    }

    /// FP16 gradient bytes resident per GPU.
    pub fn grad_bytes_per_gpu(&self) -> u64 {
        match self.stage {
            ZeroStage::Stage2 | ZeroStage::Stage3 => self.params * GRAD_BYTES / self.dp as u64,
            _ => self.params * GRAD_BYTES,
        }
    }

    /// FP32 optimizer-state bytes resident per GPU.
    pub fn optim_bytes_per_gpu(&self) -> u64 {
        match self.stage {
            ZeroStage::None => self.params * OPTIM_BYTES,
            _ => self.params * OPTIM_BYTES / self.dp as u64,
        }
    }

    /// The paper's `S_others` per GPU.
    pub fn others_bytes_per_gpu(&self) -> u64 {
        self.param_bytes_per_gpu() + self.grad_bytes_per_gpu() + self.optim_bytes_per_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: u64 = 1_000_000_000;

    #[test]
    fn stages_strictly_shrink_per_gpu_memory() {
        let mk = |s| ZeroMemoryModel::new(10 * B, 64, s).others_bytes_per_gpu();
        let none = mk(ZeroStage::None);
        let s1 = mk(ZeroStage::Stage1);
        let s2 = mk(ZeroStage::Stage2);
        let s3 = mk(ZeroStage::Stage3);
        assert!(none > s1 && s1 > s2 && s2 > s3, "{none} {s1} {s2} {s3}");
    }

    #[test]
    fn unsharded_is_sixteen_bytes_per_param() {
        let m = ZeroMemoryModel::new(B, 8, ZeroStage::None);
        assert_eq!(m.others_bytes_per_gpu(), 16 * B);
    }

    #[test]
    fn stage3_divides_everything_by_dp() {
        let m = ZeroMemoryModel::new(B, 16, ZeroStage::Stage3);
        assert_eq!(m.others_bytes_per_gpu(), 16 * B / 16);
    }

    #[test]
    fn stage1_matches_the_zero_paper_example() {
        // ZeRO's canonical example: 7.5B params, dp=64, stage 1 drops
        // 120 GB to ~31.4 GB.
        let m = ZeroMemoryModel::new(7_500_000_000, 64, ZeroStage::Stage1);
        let gb = m.others_bytes_per_gpu() as f64 / 1e9;
        assert!((gb - 31.4).abs() < 1.0, "{gb}");
    }

    #[test]
    fn others_scale_linearly_with_params() {
        // Section 2.2: S_others ∝ N.
        let a = ZeroMemoryModel::new(B, 8, ZeroStage::Stage1).others_bytes_per_gpu();
        let b = ZeroMemoryModel::new(3 * B, 8, ZeroStage::Stage1).others_bytes_per_gpu();
        assert_eq!(b, 3 * a);
    }

    #[test]
    fn zero3_175b_fits_on_a100s_where_unsharded_cannot() {
        // The Figure 9 ZeRO3 row: 175B over 384 GPUs.
        let unsharded = ZeroMemoryModel::new(175 * B, 384, ZeroStage::None);
        let z3 = ZeroMemoryModel::new(175 * B, 384, ZeroStage::Stage3);
        let a100 = 80u64 * (1 << 30);
        assert!(unsharded.others_bytes_per_gpu() > a100);
        assert!(z3.others_bytes_per_gpu() < a100 / 8);
    }
}
