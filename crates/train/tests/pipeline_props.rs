//! Property tests of the 1F1B pipeline simulator.

use proptest::prelude::*;
use ssdtrain_analysis::pipeline::bubble_fraction;
use ssdtrain_train::{one_f1b_commands, PipelineSim, StageCmd};

proptest! {
    #[test]
    fn every_micro_batch_runs_forward_and_backward_once_per_stage(
        pp in 1usize..8,
        m in 1usize..32,
    ) {
        for s in 0..pp {
            let cmds = one_f1b_commands(pp, s, m);
            prop_assert_eq!(cmds.len(), 2 * m);
            let mut fwd = vec![0usize; m];
            let mut bwd = vec![0usize; m];
            for c in &cmds {
                match c {
                    StageCmd::Forward { mb } => fwd[*mb] += 1,
                    StageCmd::Backward { mb } => bwd[*mb] += 1,
                }
            }
            prop_assert!(fwd.iter().all(|&n| n == 1));
            prop_assert!(bwd.iter().all(|&n| n == 1));
            // A backward never precedes its own forward.
            let mut seen_f = vec![false; m];
            for c in &cmds {
                match c {
                    StageCmd::Forward { mb } => seen_f[*mb] = true,
                    StageCmd::Backward { mb } => prop_assert!(seen_f[*mb]),
                }
            }
        }
    }

    #[test]
    fn makespan_is_bounded_by_ideal_and_formula(
        pp in 1usize..8,
        m in 1usize..24,
        fwd_ms in 1u32..50,
        bwd_mult in 1u32..4,
    ) {
        let fwd = fwd_ms as f64 / 1000.0;
        let bwd = fwd * bwd_mult as f64;
        let sim = PipelineSim {
            pp,
            micro_batches: m,
            fwd_secs: fwd,
            bwd_secs: bwd,
            act_bytes_per_mb: 1,
            offload_resident_bytes: 1,
            send_secs: 0.0,
        };
        let r = sim.run();
        // Never faster than the bubble-free ideal.
        prop_assert!(r.step_secs >= r.ideal_secs - 1e-9);
        // Never slower than the fully-serialised worst case.
        let worst = (m + pp - 1) as f64 * (fwd + bwd) + 1e-9;
        prop_assert!(r.step_secs <= worst, "{} > {}", r.step_secs, worst);
        // Measured bubble within a small band of the closed form.
        let formula = bubble_fraction(pp, m);
        prop_assert!(
            (r.bubble_fraction - formula).abs() < 0.25,
            "pp {pp} m {m}: {} vs {}",
            r.bubble_fraction,
            formula
        );
        // Stage-0 residency equals min(m, pp) under 1F1B.
        prop_assert_eq!(r.peak_in_flight, m.min(pp));
    }

    #[test]
    fn more_micro_batches_never_increase_the_bubble(
        pp in 2usize..8,
        m in 1usize..16,
    ) {
        let run = |m: usize| {
            PipelineSim {
                pp,
                micro_batches: m,
                fwd_secs: 0.01,
                bwd_secs: 0.02,
                act_bytes_per_mb: 1,
                offload_resident_bytes: 1,
                send_secs: 0.0,
            }
            .run()
            .bubble_fraction
        };
        prop_assert!(run(2 * m) <= run(m) + 1e-9);
    }
}
