//! Closed-form per-step activation volume.
//!
//! This is the `S_activations` model of paper Section 3.4, validated in
//! Table 4 against the measured offloaded amount. The formula mirrors
//! exactly what the instantiated models save per layer (FlashAttention
//! layers, bias+dropout blocks, one-byte dropout masks, Megatron
//! tensor-parallel sharding):
//!
//! * attention block: LN input + QKV input (deduplicated) at `2·B·S·h`
//!   bytes each, Q/K/V head tensors `3 · 2·B·S·h/tp`, merged context
//!   `2·B·S·h/tp`, dropout mask `B·S·h`;
//! * MLP block: LN input + FC1 input at `2·B·S·h` each, FC1 output and
//!   GELU output `2 · 2·B·S·4h/tp`, dropout mask `B·S·h`.

/// Closed-form activation-bytes model for one transformer layer stack.
///
/// ```
/// use ssdtrain_analysis::ActivationModel;
/// // The paper's Table 4 H8192 row: BERT, batch 16, TP 2. The model
/// // estimate `tab4_offload` prints is `step_total_bytes`.
/// let m = ActivationModel::fp16(16, 1024, 8192, 4, 2);
/// let gb = m.step_total_bytes() as f64 / 1e9;
/// assert!((9.0..14.0).contains(&gb));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivationModel {
    /// Micro-batch size per GPU (sequences).
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Layers resident on this GPU (total layers / pipeline stages).
    pub layers: usize,
    /// Tensor-parallel degree.
    pub tp: usize,
    /// Bytes per activation element (2 for FP16).
    pub elem_bytes: u64,
    /// Megatron sequence parallelism: layer-norm inputs, residuals and
    /// masks are sharded across the TP group too, dividing *all*
    /// activation terms by `tp` (enabled in the large-system sweep, as
    /// in llm-analysis; the paper's two-GPU testbed does not use it).
    pub seq_parallel: bool,
}

impl ActivationModel {
    /// A paper-style FP16 configuration.
    pub fn fp16(batch: usize, seq: usize, hidden: usize, layers: usize, tp: usize) -> Self {
        ActivationModel {
            batch,
            seq,
            hidden,
            layers,
            tp,
            elem_bytes: 2,
            seq_parallel: false,
        }
    }

    /// Enables sequence-parallel activation sharding.
    pub fn with_seq_parallel(mut self) -> Self {
        self.seq_parallel = true;
        self
    }

    fn bsh(&self) -> u64 {
        (self.batch * self.seq * self.hidden) as u64
    }

    /// Offloadable bytes of one attention block.
    pub fn attn_block_bytes(&self) -> u64 {
        let e = self.elem_bytes;
        let bsh = self.bsh();
        let tp = self.tp as u64;
        let rep = if self.seq_parallel { tp } else { 1 };
        // ln input + qkv input + (q,k,v + merged)/tp + u8 mask
        (2 * e * bsh + bsh) / rep + 4 * e * bsh / tp
    }

    /// Offloadable bytes of one MLP block.
    pub fn mlp_block_bytes(&self) -> u64 {
        let e = self.elem_bytes;
        let bsh = self.bsh();
        let tp = self.tp as u64;
        let rep = if self.seq_parallel { tp } else { 1 };
        // ln input + fc1 input + 2 × 4h inner tensors / tp + u8 mask
        (2 * e * bsh + bsh) / rep + 8 * e * bsh / tp
    }

    /// Offloadable bytes of one transformer layer.
    pub fn layer_bytes(&self) -> u64 {
        self.attn_block_bytes() + self.mlp_block_bytes()
    }

    /// Offloadable bytes of the embedding scope (the summed embedding and
    /// its dropout mask).
    pub fn embed_bytes(&self) -> u64 {
        let rep = if self.seq_parallel { self.tp as u64 } else { 1 };
        (2 * self.elem_bytes * self.bsh() / 2 + self.bsh()) / rep
    }

    /// Total activation bytes produced per step (kept modules included) —
    /// the Table 4 "model estimate" `tab4_offload` prints, and the
    /// `S_activations` of the lifespan projection.
    pub fn step_total_bytes(&self) -> u64 {
        self.layer_bytes() * self.layers as u64 + self.embed_bytes()
    }

    /// Required PCIe write bandwidth to fully offload: total bytes over
    /// half the step time (paper Section 3.4 — late activations may be
    /// written during early backward).
    pub fn required_write_bps(&self, step_secs: f64) -> f64 {
        self.step_total_bytes() as f64 / (step_secs / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table4_scale_estimates() {
        // Paper Table 4 (BERT, batch 16, TP over 2 GPUs): offloaded
        // amounts ≈ 10.4–12.9 GB across (H8192,L4) (H12288,L3)
        // (H16384,L2). Our model counts the same tensor classes and must
        // land in the same band.
        for (h, l, lo, hi) in [
            (8192usize, 4usize, 9.0, 14.0),
            (12288, 3, 10.0, 16.0),
            (16384, 2, 9.0, 14.0),
        ] {
            let m = ActivationModel::fp16(16, 1024, h, l, 2);
            let gb = m.step_total_bytes() as f64 / 1e9;
            assert!((lo..hi).contains(&gb), "H{h} L{l}: {gb:.2} GB");
        }
    }

    #[test]
    fn bandwidth_requirement_falls_with_hidden_size() {
        // Paper Table 4: required PCIe write bandwidth drops as hidden
        // grows (compute grows h², activations h). Step time modelled as
        // FLOP-proportional.
        let step = |h: usize, l: usize| -> f64 {
            // ~24·B·S·h²·L flops fwd, ×3 for the step, at a fixed rate.
            3.0 * 24.0 * 16.0 * 1024.0 * (h as f64).powi(2) * l as f64 / 280e12
        };
        let bw = |h: usize, l: usize| -> f64 {
            ActivationModel::fp16(16, 1024, h, l, 2).required_write_bps(step(h, l))
        };
        let b8 = bw(8192, 4);
        let b12 = bw(12288, 3);
        let b16 = bw(16384, 2);
        assert!(b8 > b12 && b12 > b16, "{b8} {b12} {b16}");
        // And the absolute H8192 value sits near the paper's 18 GB/s.
        assert!((10e9..30e9).contains(&b8), "{b8}");
    }

    #[test]
    fn tp_divides_sharded_tensors_only() {
        let m1 = ActivationModel::fp16(8, 512, 4096, 2, 1);
        let m2 = ActivationModel::fp16(8, 512, 4096, 2, 2);
        assert!(m2.layer_bytes() > m1.layer_bytes() / 2);
        assert!(m2.layer_bytes() < m1.layer_bytes());
    }

    #[test]
    fn layer_bytes_scale_linearly_in_batch_and_hidden() {
        let base = ActivationModel::fp16(4, 256, 1024, 1, 1).layer_bytes();
        assert_eq!(
            ActivationModel::fp16(8, 256, 1024, 1, 1).layer_bytes(),
            2 * base
        );
        assert_eq!(
            ActivationModel::fp16(4, 256, 2048, 1, 1).layer_bytes(),
            2 * base
        );
    }
}
