//! Adaptive offloading (paper Section 3.3.3, Figure 8).
//!
//! Offloading tensors that sit *after* the memory peak does not lower the
//! peak — it only delays memory reclaim. The adaptive algorithm profiles
//! one step and keeps a module's activations in GPU memory by two rules:
//!
//! - **The bandwidth cutoff**. From each module's offload volume, pick
//!   the last module `m` whose offloads (and its own reload) can finish
//!   before module `m`'s backward begins, at the rate forward's stores
//!   got on the write bus. Modules after `m` are kept. When `m`'s
//!   backward begins is measured too: the profiling backward's compute
//!   seconds up to `m`'s first `backward_pre`, or forward's end for a
//!   module that backward never reached.
//! - **Stored after forward** (the profiling step). A module whose
//!   stores were all still queued or in flight when forward ended (its
//!   earliest store, as scheduled at submission, ends after
//!   `fwd_total_secs`, the backward announcement where the peak sits)
//!   is kept too: its writes freed no memory before the peak, so they
//!   only held the write bus and wore the SSD. "All", not "any": one
//!   store landed by then did lower the peak. No prefetcher moves the
//!   measure, so every prefetcher profiles the same plan.
//!
//! The plan [`crate::TensorCache::end_profile_step`] applies is final
//! only once the profiling backward is over; ended at the
//! forward/backward boundary, it plans every deadline at forward's end.
//! [`AdaptivePlan::decide`] plans a profile written by hand, which has
//! no backward, on a given budget and an assumed backward-to-forward
//! time ratio.

use std::collections::HashSet;

/// Profile of one module (leaf scope) collected during the profiling
/// step — the per-node annotations of the paper's Figure 8 tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleProfile {
    /// Module path, e.g. `"model/layer2/mlp"`.
    pub path: String,
    /// Bytes this module's activations transfer when offloaded.
    pub offload_bytes: u64,
    /// Forward computation time of the module, seconds.
    pub fwd_secs: f64,
    /// Not measured: the cache leaves it 0 and no planner reads it. The
    /// field stays so that profiles written out by hand still build.
    pub store_secs: f64,
    /// Not measured, like `store_secs`.
    pub load_secs: f64,
}

/// Whole-step profile (the root annotations of Figure 8).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepProfile {
    /// Modules in forward order.
    pub modules: Vec<ModuleProfile>,
    /// Total forward-propagation time, seconds.
    pub fwd_total_secs: f64,
    /// Total bytes the forward pass offloaded, as queued when backward
    /// was announced.
    pub fwd_io_bytes: u64,
    /// Time the write direction was busy during forward, seconds, as
    /// queued when backward was announced.
    pub fwd_io_secs: f64,
}

/// The planner's decision: which module paths keep their activations in
/// GPU memory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptivePlan {
    /// Module paths whose activations are *not* offloaded.
    pub keep_paths: HashSet<String>,
    /// Diagnostic: required bandwidth for each candidate cutoff, in
    /// forward order (`required[m]` = bandwidth needed if `m` were the
    /// last module to offload).
    pub required_bps: Vec<f64>,
    /// Index of the chosen last-offloaded module, if any module is
    /// offloaded at all.
    pub last_offloaded: Option<usize>,
}

impl AdaptivePlan {
    /// A plan that offloads every module except the last (the default
    /// before profiling, matching Figure 4 ④ where the final module's
    /// activations stay resident).
    pub(crate) fn keep_last_only(module_paths: &[String]) -> AdaptivePlan {
        let mut keep = HashSet::new();
        if let Some(last) = module_paths.last() {
            keep.insert(last.clone());
        }
        AdaptivePlan {
            keep_paths: keep,
            required_bps: Vec::new(),
            last_offloaded: module_paths.len().checked_sub(2),
        }
    }

    /// Decides the cutoff for a profile built by hand, with no measured
    /// backward: module `m`'s deadline is assumed to be the end of forward
    /// plus `bwd_fwd_ratio ×` the forward time of all modules after `m`.
    /// The largest `m` whose required bandwidth fits within `write_bps`
    /// wins; later modules are kept. The final module is always kept.
    ///
    /// # Panics
    /// Panics if `write_bps` is not positive.
    pub fn decide(profile: &StepProfile, write_bps: f64, bwd_fwd_ratio: f64) -> AdaptivePlan {
        assert!(write_bps > 0.0, "write bandwidth must be positive");
        let fwd = profile
            .fwd_total_secs
            .max(profile.modules.iter().map(|m| m.fwd_secs).sum::<f64>());
        let mut deadlines = vec![0.0f64; profile.modules.len()];
        let mut after = 0.0f64;
        for (deadline, module) in deadlines.iter_mut().zip(&profile.modules).rev() {
            *deadline = fwd + bwd_fwd_ratio * after;
            after += module.fwd_secs;
        }
        AdaptivePlan::cutoff(profile, &deadlines, write_bps)
    }

    /// The plan of a profiled step, from its measurements alone: the
    /// budget is the rate forward's stores got on the write bus (no limit
    /// if forward queued none); `deadlines[i]` is when backward reached
    /// `profile.modules[i]`, and a module whose first store ends
    /// (`store_ends[i]`) after forward did is kept besides the cutoff's
    /// tail, which `required_bps` and `last_offloaded` describe alone.
    pub(crate) fn measured(
        profile: &StepProfile,
        deadlines: &[f64],
        store_ends: &[f64],
    ) -> AdaptivePlan {
        let write_bps = if profile.fwd_io_secs > 0.0 {
            profile.fwd_io_bytes as f64 / profile.fwd_io_secs
        } else {
            f64::INFINITY
        };
        let mut plan = AdaptivePlan::cutoff(profile, deadlines, write_bps);
        for (module, &end) in profile.modules.iter().zip(store_ends) {
            if module.offload_bytes > 0 && end > profile.fwd_total_secs {
                plan.keep_paths.insert(module.path.clone());
            }
        }
        plan
    }

    /// The cutoff both planners run. For each candidate `m`, the data
    /// that must be transferred by `deadlines[m]` is every earlier
    /// module's offload plus module `m`'s offload *and* reload.
    fn cutoff(profile: &StepProfile, deadlines: &[f64], write_bps: f64) -> AdaptivePlan {
        let n = profile.modules.len();
        if n == 0 {
            return AdaptivePlan::default();
        }
        let mut required = Vec::with_capacity(n);
        let mut prefix_bytes = 0u64;
        for (module, &deadline) in profile.modules.iter().zip(deadlines) {
            prefix_bytes += module.offload_bytes;
            // Offloads of modules ≤ m, plus module m's reload.
            let data = prefix_bytes + module.offload_bytes;
            required.push(if deadline > 0.0 {
                data as f64 / deadline
            } else {
                f64::INFINITY
            });
        }
        // Largest feasible cutoff, excluding the final module (always
        // kept).
        let last_offloaded = (0..n.saturating_sub(1))
            .rev()
            .find(|&m| required[m] <= write_bps);
        let mut keep_paths: HashSet<String> = match last_offloaded {
            Some(m) => profile.modules[m + 1..]
                .iter()
                .map(|mp| mp.path.clone())
                .collect(),
            None => profile.modules.iter().map(|mp| mp.path.clone()).collect(),
        };
        keep_paths.insert(profile.modules[n - 1].path.clone());
        AdaptivePlan {
            keep_paths,
            required_bps: required,
            last_offloaded,
        }
    }

    /// Whether the module at `path` (or any of its ancestors) is kept.
    pub fn keeps(&self, path: &str) -> bool {
        if self.keep_paths.contains(path) {
            return true;
        }
        // A kept module keeps everything nested inside it.
        self.keep_paths
            .iter()
            .any(|k| path.starts_with(k.as_str()) && path.as_bytes().get(k.len()) == Some(&b'/'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mods: &[(&str, u64, f64)], fwd_total: f64) -> StepProfile {
        StepProfile {
            modules: mods
                .iter()
                .map(|(p, b, t)| ModuleProfile {
                    path: (*p).into(),
                    offload_bytes: *b,
                    fwd_secs: *t,
                    store_secs: 0.0,
                    load_secs: 0.0,
                })
                .collect(),
            fwd_total_secs: fwd_total,
            fwd_io_bytes: mods.iter().map(|m| m.1).sum(),
            fwd_io_secs: 0.0,
        }
    }

    #[test]
    fn ample_bandwidth_offloads_all_but_last() {
        let p = profile(&[("l0", 100, 1.0), ("l1", 100, 1.0), ("l2", 100, 1.0)], 3.0);
        let plan = AdaptivePlan::decide(&p, 1e12, 2.0);
        assert_eq!(plan.last_offloaded, Some(1));
        assert!(plan.keeps("l2"));
        assert!(!plan.keeps("l0"));
        assert!(!plan.keeps("l1"));
    }

    #[test]
    fn scarce_bandwidth_keeps_a_longer_tail() {
        // Each module produces 1 GB in 1 s; bandwidth 0.5 GB/s. With 4
        // modules: m=2 requires (3+1) GB by t = 4 + 2*1 = 6 s -> 0.67
        // GB/s (too much); m=1 requires 3 GB by 4+2*2=8 s -> 0.375 GB/s
        // (fits). So modules 2,3 are kept.
        let gb = 1_000_000_000u64;
        let p = profile(
            &[
                ("l0", gb, 1.0),
                ("l1", gb, 1.0),
                ("l2", gb, 1.0),
                ("l3", gb, 1.0),
            ],
            4.0,
        );
        let plan = AdaptivePlan::decide(&p, 0.5e9, 2.0);
        assert_eq!(plan.last_offloaded, Some(1));
        assert!(plan.keeps("l2") && plan.keeps("l3"));
        assert!(!plan.keeps("l0") && !plan.keeps("l1"));
    }

    #[test]
    fn hopeless_bandwidth_keeps_everything() {
        let p = profile(&[("l0", 1 << 30, 0.001), ("l1", 1 << 30, 0.001)], 0.002);
        let plan = AdaptivePlan::decide(&p, 1.0, 2.0);
        assert_eq!(plan.last_offloaded, None);
        assert!(plan.keeps("l0") && plan.keeps("l1"));
    }

    #[test]
    fn a_module_whose_first_store_ends_after_forward_is_kept_and_one_ending_by_then_is_not() {
        let p = profile(&[("l0", 100, 1.0), ("l1", 100, 1.0), ("l2", 100, 1.0)], 3.0);
        let deadlines = [5.0, 4.0, 3.0];
        // Forward ends at 3 s.
        let plan = AdaptivePlan::measured(&p, &deadlines, &[3.5, 3.0]);
        assert_eq!(plan.last_offloaded, Some(1), "the cutoff is unchanged");
        assert!(
            plan.keeps("l0"),
            "every store still queued at forward's end"
        );
        assert!(!plan.keeps("l1"), "one store landed at forward's end");
        assert_eq!(plan, {
            let mut cutoff = AdaptivePlan::measured(&p, &deadlines, &[]);
            cutoff.keep_paths.insert("l0".into());
            cutoff
        });
    }

    #[test]
    fn the_measured_plan_is_budgeted_on_forwards_write_rate() {
        // Forward wrote 4 GB in 2.5 s of bus time: 1.6 GB/s. Against the
        // measured deadlines m=1 needs 3 GB by 2 s (1.5 GB/s, fits) and
        // m=2 needs 4 GB by 2.4 s (1.67 GB/s, does not).
        let gb = 1_000_000_000u64;
        let mut p = profile(
            &[
                ("l0", gb, 0.25),
                ("l1", gb, 0.25),
                ("l2", gb, 0.25),
                ("l3", gb, 0.25),
            ],
            1.0,
        );
        let deadlines = [1.5, 2.0, 2.4, 3.0];
        let unmeasured = AdaptivePlan::measured(&p, &deadlines, &[]);
        assert_eq!(unmeasured.last_offloaded, Some(2), "no bus time, no limit");
        p.fwd_io_secs = 2.5;
        let plan = AdaptivePlan::measured(&p, &deadlines, &[]);
        assert_eq!(plan.last_offloaded, Some(1), "{:?}", plan.required_bps);
        assert!(plan.keeps("l2") && !plan.keeps("l1"));
    }

    #[test]
    fn final_module_is_always_kept() {
        let p = profile(&[("l0", 10, 1.0), ("l1", 10, 1.0)], 2.0);
        let plan = AdaptivePlan::decide(&p, 1e12, 2.0);
        assert!(plan.keeps("l1"));
    }

    #[test]
    fn required_bandwidth_is_monotone_for_uniform_modules() {
        // With identical modules, later cutoffs need strictly more
        // bandwidth (more data, less time).
        let p = profile(
            &[
                ("a", 100, 1.0),
                ("b", 100, 1.0),
                ("c", 100, 1.0),
                ("d", 100, 1.0),
            ],
            4.0,
        );
        let plan = AdaptivePlan::decide(&p, 1e12, 2.0);
        for w in plan.required_bps.windows(2) {
            assert!(w[0] < w[1], "{:?}", plan.required_bps);
        }
    }

    #[test]
    fn keeps_matches_nested_paths() {
        let mut plan = AdaptivePlan::default();
        plan.keep_paths.insert("model/l3".into());
        assert!(plan.keeps("model/l3"));
        assert!(plan.keeps("model/l3/mlp"));
        assert!(!plan.keeps("model/l30"));
        assert!(!plan.keeps("model/l2"));
    }

    #[test]
    fn keep_last_only_default() {
        let paths = vec!["l0".to_string(), "l1".into(), "l2".into()];
        let plan = AdaptivePlan::keep_last_only(&paths);
        assert!(plan.keeps("l2"));
        assert!(!plan.keeps("l0"));
        assert_eq!(plan.last_offloaded, Some(1));
    }

    #[test]
    fn figure8_style_tree_cutoff() {
        // A miniature of the paper's Figure 8: attention and MLP blocks
        // with distinct sizes; verify the planner pauses offloading at
        // the documented point when bandwidth only covers the early
        // blocks.
        let mb = 1_000_000u64;
        let p = profile(
            &[
                ("l0/attn", 60 * mb, 0.010),
                ("l0/mlp", 90 * mb, 0.012),
                ("l1/attn", 60 * mb, 0.010),
                ("l1/mlp", 90 * mb, 0.012),
            ],
            0.044,
        );
        // Generous budget: everything but the tail module offloads.
        let generous = AdaptivePlan::decide(&p, 10e9, 2.0);
        assert_eq!(generous.last_offloaded, Some(2));
        // Tight budget: required[2] = (60+90+60+60)MB / (0.044+2*0.012)
        // ≈ 3.97 GB/s; with 3 GB/s we fall back to m=1 (210MB / 0.088 ≈
        // 2.4 GB/s).
        let tight = AdaptivePlan::decide(&p, 3e9, 2.0);
        assert_eq!(tight.last_offloaded, Some(1));
        assert!(tight.keeps("l1/attn") && tight.keeps("l1/mlp"));
    }
}
