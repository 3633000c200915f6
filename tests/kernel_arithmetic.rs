//! The numeric path's arithmetic, pinned as bits.
//!
//! The kernels' contract is a fixed sequence of `f32` operations per
//! output element, so a kernel change that only moves where operands are
//! read from must reproduce these constants exactly. The GPT constants
//! were computed at the commit before the kernels started borrowing their
//! operands; the BERT and T5 ones, which pin bidirectional and cross
//! attention too, at the commit before the fused attention op stopped
//! materialising its `S×S` buffers. A change that moves them has changed
//! the arithmetic, not just the memory traffic.

use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::Graph;
use ssdtrain_models::{Batch, Model, ModelConfig, Recompute};
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

/// Three SGD steps of `cfg` with dropout 0.1 and fused attention (seed 7,
/// batch 2) under `recompute`: each step's loss bits and the FNV-1a
/// checksum of every parameter gradient's bits.
fn three_steps(cfg: ModelConfig, recompute: Recompute) -> (Vec<u32>, Vec<u64>) {
    let dev = Device::cpu();
    let cfg = ModelConfig {
        dropout_p: 0.1,
        fused_attention: true,
        ..cfg
    };
    let model = Model::build(&cfg, &dev, 7);
    let batch = Batch::synthetic(&cfg, 2, 7, &dev);
    let mut opt = Sgd::with_momentum(model.parameters(), 0.1, 0.9);
    let mut losses = Vec::new();
    let mut checksums = Vec::new();
    for step in 0..3 {
        let g = Graph::new(&dev, 100 + step);
        let loss = model.forward_loss(&g, &batch, recompute);
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
    (losses, checksums)
}

const LOSS_BITS: [u32; 3] = [1_076_390_432, 1_073_270_745, 1_072_115_485];
const GRAD_CHECKSUMS: [u64; 3] = [
    8_828_541_549_001_266_045,
    12_787_085_909_462_362_602,
    14_205_072_839_145_320_722,
];

#[test]
fn three_gpt_steps_reproduce_the_pinned_bits() {
    let (losses, checksums) = three_steps(ModelConfig::tiny_gpt(), Recompute::None);
    assert_eq!(losses, LOSS_BITS, "loss bits moved");
    assert_eq!(checksums, GRAD_CHECKSUMS, "gradient bits moved");
}

/// Every layer checkpointed: the recompute replays each layer's dropout
/// draws and backpropagates through a child tape whose output gradients
/// the outer tape still holds, and lands on the plain run's bits (pinned
/// at the commit before pending gradients stopped being summed in place
/// into a buffer another one shares).
#[test]
fn three_checkpointed_gpt_steps_reproduce_the_plain_bits() {
    let (losses, checksums) = three_steps(ModelConfig::tiny_gpt(), Recompute::All);
    assert_eq!(losses, LOSS_BITS, "loss bits moved");
    assert_eq!(checksums, GRAD_CHECKSUMS, "gradient bits moved");
}

const BERT_LOSS_BITS: [u32; 3] = [1_076_126_897, 1_074_690_856, 1_073_536_374];
const BERT_GRAD_CHECKSUMS: [u64; 3] = [
    7_955_946_792_869_697_340,
    14_942_518_443_339_001_668,
    1_244_591_001_584_161_472,
];

/// Bidirectional attention: no causal mask in any layer.
#[test]
fn three_bert_steps_reproduce_the_pinned_bits() {
    let (losses, checksums) = three_steps(ModelConfig::tiny_bert(), Recompute::None);
    assert_eq!(losses, BERT_LOSS_BITS, "loss bits moved");
    assert_eq!(checksums, BERT_GRAD_CHECKSUMS, "gradient bits moved");
}

const T5_LOSS_BITS: [u32; 3] = [1_075_684_343, 1_074_944_033, 1_074_387_850];
const T5_GRAD_CHECKSUMS: [u64; 3] = [
    2_359_880_974_243_273_868,
    1_465_841_425_317_959_242,
    16_241_672_971_364_160_722,
];

/// A bidirectional encoder, a causal decoder and cross attention from the
/// decoder into the encoder's output.
#[test]
fn three_t5_steps_reproduce_the_pinned_bits() {
    let (losses, checksums) = three_steps(ModelConfig::tiny_t5(), Recompute::None);
    assert_eq!(losses, T5_LOSS_BITS, "loss bits moved");
    assert_eq!(checksums, T5_GRAD_CHECKSUMS, "gradient bits moved");
}
