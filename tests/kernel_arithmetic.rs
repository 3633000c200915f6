//! The numeric path's arithmetic, pinned as bits.
//!
//! The kernels' contract is a fixed sequence of `f32` operations per
//! output element, so a kernel change that only moves where operands are
//! read from must reproduce these constants exactly. They were computed at
//! the commit before the kernels started borrowing their operands; a
//! change that moves them has changed the arithmetic, not just the memory
//! traffic.

use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::Graph;
use ssdtrain_models::{Batch, GptModel, ModelConfig, Recompute};
use ssdtrain_tensor::Device;

/// FNV-1a over the bit patterns of `values`, continuing from `h`.
fn fnv1a(mut h: u64, values: &[f32]) -> u64 {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const LOSS_BITS: [u32; 3] = [1_076_390_432, 1_073_270_745, 1_072_115_485];
const GRAD_CHECKSUMS: [u64; 3] = [
    8_828_541_549_001_266_045,
    12_787_085_909_462_362_602,
    14_205_072_839_145_320_722,
];

#[test]
fn three_gpt_steps_reproduce_the_pinned_bits() {
    let dev = Device::cpu();
    let cfg = ModelConfig {
        dropout_p: 0.1,
        fused_attention: true,
        ..ModelConfig::tiny_gpt()
    };
    let model = GptModel::new(&cfg, &dev, 7);
    let batch = Batch::synthetic(&cfg, 2, 7, &dev);
    let mut opt = Sgd::with_momentum(model.parameters(), 0.1, 0.9);
    let mut losses = Vec::new();
    let mut checksums = Vec::new();
    for step in 0..3 {
        let g = Graph::new(&dev, 100 + step);
        let loss = model.forward_loss(&g, &batch, Recompute::None);
        losses.push(loss.tensor().item().to_bits());
        g.backward(&loss);
        let sum = model
            .parameters()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, p| {
                let grad = p.grad().expect("every parameter receives a gradient");
                fnv1a(h, &grad.to_vec())
            });
        checksums.push(sum);
        opt.step();
        opt.zero_grad();
    }
    assert_eq!(losses, LOSS_BITS, "loss bits moved");
    assert_eq!(checksums, GRAD_CHECKSUMS, "gradient bits moved");
}
