//! Walks the adaptive-offloading machinery (paper Section 3.3.3,
//! Figure 8) by hand: profile a step, inspect the per-module tree the
//! planner sees, and watch the cutoff move as the SSD array shrinks.
//!
//! ```sh
//! cargo run --release --example adaptive_offloading
//! ```

use ssdtrain_models::{Arch, ModelConfig};
use ssdtrain_simhw::SystemConfig;
use ssdtrain_train::{SessionConfig, TrainSession};

fn main() -> std::io::Result<()> {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::paper_scale(Arch::Bert, 8192, 4).with_tp(2))
        .batch_size(16)
        .symbolic(true)
        .seed(8)
        .build()
        .expect("valid config");
    let mut session = TrainSession::new(cfg)?;

    // One profiling step collects the Figure 8 annotations.
    let (profile, plan) = session.profile_step().expect("profile step");
    println!(
        "profiled forward: {:.3}s total, {:.2} GB offloadable, write channel busy {:.3}s\n",
        profile.fwd_total_secs,
        profile.fwd_io_bytes as f64 / 1e9,
        profile.fwd_io_secs
    );
    println!("module tree (forward order):");
    for m in &profile.modules {
        println!(
            "  {:<16} {:>7.2} GB  {:>7.1} ms",
            m.path,
            m.offload_bytes as f64 / 1e9,
            m.fwd_secs * 1e3
        );
    }

    println!("\nrequired bandwidth if module m were the last to offload:");
    for (m, bw) in plan.required_bps.iter().enumerate() {
        let marker = match plan.last_offloaded {
            Some(k) if m == k => "  <- chosen cutoff",
            Some(k) if m > k => "  (kept in GPU memory)",
            _ => "",
        };
        println!(
            "  m={m:<2} {:<16} {:>6.1} GB/s{marker}",
            profile.modules[m].path,
            bw / 1e9
        );
    }
    println!(
        "\navailable write bandwidth: {:.1} GB/s (4x P5800X RAID0)",
        SystemConfig::dac_testbed().offload_write_bps() / 1e9
    );

    // Re-plan for shrinking arrays from the bandwidth each cutoff needs:
    // the cutoff retreats, keeping more of the tail resident — exactly
    // Figure 8's "pause offloading here". The final module is always kept.
    println!("\ncutoff vs array size:");
    let candidates = plan.required_bps.len().saturating_sub(1);
    for drives in [4usize, 2, 1] {
        let mut sys = SystemConfig::dac_testbed();
        sys.ssd_array.n = drives;
        let bps = sys.offload_write_bps();
        let cut = (0..candidates).rev().find(|&m| plan.required_bps[m] <= bps);
        let kept: Vec<&str> = profile.modules[cut.map_or(0, |m| m + 1)..]
            .iter()
            .map(|m| m.path.as_str())
            .collect();
        println!(
            "  {drives} drive(s) ({:>5.1} GB/s): keep {:?}",
            bps / 1e9,
            kept
        );
    }
    Ok(())
}
