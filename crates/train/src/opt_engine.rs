//! The per-stage optimizer scheduling engine — gradients and optimizer
//! state ride the placement → tier → I/O stack, and the weight update
//! itself becomes per-stage jobs that can overlap the *next* step's
//! forward pass (the GreedySnake trick: while layer N's state is still
//! loading, layers 1..N−1 of the next forward already run).
//!
//! Two execution modes, selected by [`SessionBuilder::overlap_optimizer`]:
//!
//! * **Inline** (`overlap = false`): the update runs inside the measured
//!   window at the `OptimizerStep` stage. Each stage job loads its
//!   gradient and state slots back (stalling the simulated clock to the
//!   load's completion), applies [`Sgd::step_range`], and re-offloads
//!   the fresh state. Every second of state I/O is exposed.
//! * **Overlapped** (`overlap = true`): the update of step *k* is
//!   deferred to the start of step *k+1*. Stage *j*'s loads are
//!   submitted at `t = 0` and compared against the forecast arrival of
//!   the forward pass at stage *j* — `fwd_secs · frac(j)`, where
//!   `fwd_secs` is the previous step's measured forward time and
//!   `frac(j)` is the cumulative per-stage forward fraction observed by
//!   a profiling step ([`OptEngine::note_profile`]), falling back to
//!   the uniform `j / S` when no profile ran; only the delay that
//!   exceeds that window is exposed on the clock. The re-offloaded state's store jobs occupy the tier
//!   links and the shared write bus while the forward runs, so the
//!   overlap's contention with activation offloading is priced rather
//!   than assumed free. Numerics are unchanged: the deferred update
//!   still lands before the next forward touches the weights.
//!
//! In both modes gradients leave during the step's last backward pass:
//! [`OptEngine::grad_listener`] is autograd's post-accumulate-grad hook,
//! stashing each gradient the moment its last contribution is
//! accumulated, so the stores ride the write bus while backward still
//! computes; [`OptEngine::stash_grads`] at `ReduceGrads` only sweeps up
//! what did not stream.
//!
//! [`SessionBuilder::overlap_optimizer`]: crate::builder::SessionBuilder::overlap_optimizer
//! [`Sgd::step_range`]: ssdtrain_autograd::optim::Sgd::step_range
// ssdtrain-lint: hot-path

use crate::schedule::stage_ranges;
use crate::session::OffloadClassSet;
use parking_lot::Mutex;
use ssdtrain::{
    ArgValue, OffloadClass, StateSlot, StepProfile, TensorCache, TraceCategory, TraceSink,
};
use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::var::VarId;
use ssdtrain_autograd::{ModuleHooks, Var};
use ssdtrain_simhw::{SimClock, SimTime};
use ssdtrain_tensor::Tensor;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// What one engine hook cost the step, in simulated seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptReport {
    /// Seconds the update spent inside the measured window (inline mode:
    /// load stalls; zero in overlapped mode).
    pub inline_secs: f64,
    /// Seconds of exposed delay the overlapped schedule could not hide
    /// behind the forecast forward window (zero in inline mode).
    pub exposed_secs: f64,
}

impl OptReport {
    /// Total simulated seconds the optimizer added to the step.
    pub fn total_secs(&self) -> f64 {
        self.inline_secs + self.exposed_secs
    }
}

/// Per-stage optimizer scheduling over the session's tensor cache.
pub struct OptEngine {
    classes: OffloadClassSet,
    overlap: bool,
    ranges: Vec<Range<usize>>,
    grad_slots: Vec<Vec<StateSlot>>,
    state_slots: Vec<Vec<StateSlot>>,
    /// The backward half of the gradient stash (gradient class with a
    /// cache only).
    stream: Option<Arc<GradStream>>,
    pending: bool,
    fwd_estimate: f64,
    /// Cumulative forward-time fraction elapsed when the forward pass
    /// reaches each stage's parameters (`fracs[0] == 0.0`), measured by
    /// a profiling step. `None` falls back to the uniform `j / S`.
    arrival_fracs: Option<Vec<f64>>,
}

/// The backward half of the gradient stash, PyTorch's post-accumulate-grad
/// hook: a [`ModuleHooks`] listener that, told a parameter's gradient is
/// final, submits its store at once — riding the write bus while backward
/// still computes — and parks the slot by parameter index for
/// [`OptEngine::stash_grads`]. A gradient the stack refuses leaves no
/// slot, so the sweep retries it.
struct GradStream {
    cache: Arc<TensorCache>,
    /// Parameter identity → optimizer index, built once.
    index: HashMap<VarId, usize>,
    /// This step's streamed slot per parameter.
    slots: Mutex<Vec<Option<StateSlot>>>,
}

impl ModuleHooks for GradStream {
    fn wants_grad_ready(&self) -> bool {
        true
    }

    fn grad_ready(&self, var: &Var) {
        let Some(&i) = self.index.get(&var.id()) else {
            return;
        };
        let stash = |grad: &Tensor| self.cache.offload_state(grad, OffloadClass::Gradient);
        let slot = var.with_grad(stash).flatten();
        if let Some(parked) = self.slots.lock().get_mut(i) {
            *parked = slot;
        }
    }
}

impl OptEngine {
    /// Builds the engine: `opt`'s parameters partitioned into `n_stages`
    /// contiguous per-stage update jobs. With the gradient class enabled
    /// and a `cache`, gradients stream out during backward (see
    /// [`OptEngine::grad_listener`]).
    pub fn new(
        classes: OffloadClassSet,
        overlap: bool,
        opt: &Sgd,
        n_stages: usize,
        cache: Option<&Arc<TensorCache>>,
    ) -> OptEngine {
        let params = opt.params();
        let ranges = stage_ranges(params.len(), n_stages);
        let stages = ranges.len();
        let stream = cache
            .filter(|_| classes.contains(OffloadClass::Gradient))
            .map(|cache| {
                Arc::new(GradStream {
                    cache: cache.clone(),
                    index: params
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (p.id(), i))
                        .collect(),
                    slots: Mutex::new(vec![None; params.len()]),
                })
            });
        OptEngine {
            classes,
            overlap,
            ranges,
            grad_slots: vec![Vec::new(); stages],
            state_slots: vec![Vec::new(); stages],
            stream,
            pending: false,
            fwd_estimate: 0.0,
            arrival_fracs: None,
        }
    }

    /// The listener that stashes each gradient as soon as autograd
    /// reports it final; the session registers it for the step's last
    /// backward pass. `None` when gradients are not offloaded.
    pub fn grad_listener(&self) -> Option<Arc<dyn ModuleHooks>> {
        let stream = self.stream.clone()?;
        Some(stream)
    }

    /// Whether the update is deferred into the next step's forward.
    pub fn overlap(&self) -> bool {
        self.overlap
    }

    /// Whether a deferred update is waiting for the next step.
    pub fn pending(&self) -> bool {
        self.pending
    }

    /// The per-stage parameter ranges the update is partitioned into.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Records the measured forward time of the step that just ran; the
    /// overlapped schedule forecasts stage arrivals from it.
    pub fn note_forward_secs(&mut self, secs: f64) {
        if secs.is_finite() && secs > 0.0 {
            self.fwd_estimate = secs;
        }
    }

    /// Records a profiling step's per-module forward times: the forward
    /// pass is not uniform (embeddings, heads and attention blocks cost
    /// different amounts), so the stage-`j` arrival forecast becomes the
    /// observed cumulative fraction of forward time instead of `j / S`.
    /// Modules are mapped onto stages by the same contiguous partition
    /// the parameters use. A degenerate profile (no modules, or no
    /// positive forward time) leaves the uniform fallback in place.
    pub fn note_profile(&mut self, profile: &StepProfile) {
        let stages = self.ranges.len();
        let total: f64 = profile.modules.iter().map(|m| m.fwd_secs.max(0.0)).sum();
        if stages == 0 || profile.modules.is_empty() || !total.is_finite() || total <= 0.0 {
            return;
        }
        let groups = stage_ranges(profile.modules.len(), stages);
        let mut fracs = Vec::with_capacity(stages);
        let mut elapsed = 0.0;
        for g in &groups {
            fracs.push(elapsed / total);
            elapsed += g
                .clone()
                .map(|m| profile.modules[m].fwd_secs.max(0.0))
                .sum::<f64>();
        }
        // More stages than modules: the forward has fully passed the
        // last module before these stages' parameters are touched.
        fracs.resize(stages, 1.0);
        self.arrival_fracs = Some(fracs);
    }

    /// The forecast fraction of the forward window elapsed when stage
    /// `j`'s parameters arrive: measured when a profile was noted,
    /// uniform otherwise.
    fn arrival_frac(&self, j: usize) -> f64 {
        match &self.arrival_fracs {
            Some(fracs) if j < fracs.len() => fracs[j],
            _ => j as f64 / self.ranges.len().max(1) as f64,
        }
    }

    /// Start-of-step hook: applies the previous step's deferred update,
    /// overlapped against the forecast forward. Returns the exposed
    /// delay (already advanced on `clock`). No-op unless overlapping
    /// with a pending update.
    pub fn begin_step(
        &mut self,
        cache: Option<&TensorCache>,
        opt: &mut Sgd,
        clock: &SimClock,
        trace: &TraceSink,
    ) -> OptReport {
        if !self.overlap || !self.pending {
            return OptReport::default();
        }
        self.pending = false;
        let mut delay = 0.0;
        for j in 0..self.ranges.len() {
            let range = self.ranges[j].clone();
            // Load this stage's gradient and state slots; the ready time
            // is the latest completion (each clamped to its own store's
            // drain by the cache).
            let mut ready = SimTime::ZERO;
            if let Some(cache) = cache {
                for slot in self.grad_slots[j].iter().chain(self.state_slots[j].iter()) {
                    if let Some(t) = cache.load_state(*slot) {
                        ready = ready.max(t);
                    }
                }
            }
            // GreedySnake: stage j's update must land before the next
            // forward reaches stage j. Whatever the window cannot hide
            // accumulates as exposed delay.
            let arrival = self.fwd_estimate * self.arrival_frac(j) + delay;
            let late = (ready.as_secs() - arrival).max(0.0);
            delay += late;
            self.apply_stage(cache, opt, j, range);
            if trace.is_enabled() {
                trace.instant_with(
                    TraceCategory::Stage,
                    format!("opt.overlap.s{j}"),
                    clock.now(),
                    vec![
                        ("ready_secs", ArgValue::F64(ready.as_secs())),
                        ("arrival_secs", ArgValue::F64(arrival)),
                        ("exposed_secs", ArgValue::F64(late)),
                        ("fwd_estimate_secs", ArgValue::F64(self.fwd_estimate)),
                    ],
                );
            }
        }
        if delay > 0.0 {
            clock.advance_to(SimTime::from_secs(clock.now().as_secs() + delay));
        }
        OptReport {
            inline_secs: 0.0,
            exposed_secs: delay,
        }
    }

    /// `ReduceGrads` hook, the sweep behind the streamed stash: takes the
    /// slots [`OptEngine::grad_listener`] parked during backward into
    /// their stages, in parameter order, and stashes whatever gradient
    /// did not stream — one autograd never reported final, or one the
    /// tier stack refused mid-backward (the host pool was still holding
    /// activations), retried now. Its stores drain at the enclosing stage
    /// scope's exit, so their cost lands on the step that produced them.
    pub fn stash_grads(&mut self, cache: Option<&TensorCache>, opt: &Sgd) {
        let Some(cache) = cache else { return };
        if !self.classes.contains(OffloadClass::Gradient) {
            return;
        }
        let mut streamed = self.stream.as_ref().map(|s| s.slots.lock());
        for (j, range) in self.ranges.iter().enumerate() {
            for i in range.clone() {
                let parked = streamed.as_mut().and_then(|s| s.get_mut(i)?.take());
                let slot = parked.or_else(|| {
                    let stash = |grad: &Tensor| cache.offload_state(grad, OffloadClass::Gradient);
                    opt.params().get(i)?.with_grad(stash).flatten()
                });
                if let Some(slot) = slot {
                    self.grad_slots[j].push(slot);
                }
            }
        }
    }

    /// `OptimizerStep` hook. Inline mode runs the per-stage update jobs
    /// now, inside the measured window; overlapped mode offloads the
    /// bootstrap state (first step only) and defers the update to the
    /// next step's [`OptEngine::begin_step`].
    pub fn end_of_step(
        &mut self,
        cache: Option<&TensorCache>,
        opt: &mut Sgd,
        clock: &SimClock,
        trace: &TraceSink,
    ) -> OptReport {
        if self.overlap {
            // Bootstrap: the very first deferral has no offloaded state
            // yet (later steps re-offload at begin_step). Materialise
            // velocity ahead of the first update — numerically identical
            // to the lazy allocation — and push it through the tiers.
            if self.classes.contains(OffloadClass::OptimizerState) {
                for j in 0..self.ranges.len() {
                    if !self.state_slots[j].is_empty() {
                        continue;
                    }
                    let range = self.ranges[j].clone();
                    for i in range {
                        if opt.ensure_velocity(i).is_none() {
                            continue;
                        }
                        self.offload_state_of(cache, opt, j, i);
                    }
                }
            }
            self.pending = true;
            return OptReport::default();
        }
        let t0 = clock.now();
        for j in 0..self.ranges.len() {
            let range = self.ranges[j].clone();
            let stage_start = clock.now();
            let mut ready = stage_start;
            if let Some(cache) = cache {
                for slot in self.grad_slots[j].iter().chain(self.state_slots[j].iter()) {
                    if let Some(t) = cache.load_state(*slot) {
                        ready = ready.max(t);
                    }
                }
            }
            // Inline: the GPU sits idle until the stage's state landed.
            clock.advance_to(ready);
            for i in range.clone() {
                opt.ensure_velocity(i);
            }
            self.apply_stage(cache, opt, j, range);
            if trace.is_enabled() {
                let name = format!("opt.stage{j}");
                trace.span(TraceCategory::Stage, name, stage_start, clock.now());
            }
        }
        OptReport {
            inline_secs: clock.now().since(t0),
            exposed_secs: 0.0,
        }
    }

    /// Applies stage `j`'s update math and rotates its slots: consumed
    /// gradient slots are released, stale state slots replaced by the
    /// freshly-written velocity tensors.
    fn apply_stage(
        &mut self,
        cache: Option<&TensorCache>,
        opt: &mut Sgd,
        j: usize,
        range: Range<usize>,
    ) {
        // ssdtrain-lint: allow(panic-free-hot-path): `step_range` skips any
        // parameter without materialised data before touching values, so the
        // `to_vec` expect along `step_range → deep_clone_as → to_vec` cannot fire
        opt.step_range(range.clone());
        for i in range.clone() {
            if let Some(p) = opt.params().get(i) {
                p.zero_grad();
            }
        }
        if let Some(cache) = cache {
            for slot in self.grad_slots[j].drain(..) {
                cache.release_state(slot);
            }
            for slot in self.state_slots[j].drain(..) {
                cache.release_state(slot);
            }
        } else {
            self.grad_slots[j].clear();
            self.state_slots[j].clear();
        }
        if self.classes.contains(OffloadClass::OptimizerState) {
            for i in range {
                self.offload_state_of(cache, opt, j, i);
            }
        }
    }

    /// Offloads parameter `i`'s velocity tensor into stage `j`'s slot
    /// list, when one exists and placement admits it.
    fn offload_state_of(&mut self, cache: Option<&TensorCache>, opt: &Sgd, j: usize, i: usize) {
        let Some(cache) = cache else { return };
        let Some(v) = opt.velocity(i) else { return };
        if let Some(slot) = cache.offload_state(v, OffloadClass::OptimizerState) {
            self.state_slots[j].push(slot);
        }
    }

    /// Error-path hook: a tainted step skips its weight update, so the
    /// stashed slots are released and any deferred update dropped (its
    /// gradients are being cleared by the caller).
    pub fn abort(&mut self, cache: Option<&TensorCache>) {
        self.pending = false;
        let mut streamed = self.stream.as_ref().map(|s| s.slots.lock());
        let parked = streamed.iter_mut().flat_map(|s| s.iter_mut());
        let parked = parked.filter_map(Option::take);
        let stashed = self
            .grad_slots
            .iter_mut()
            .chain(self.state_slots.iter_mut());
        for slot in parked.chain(stashed.flat_map(|slots| slots.drain(..))) {
            if let Some(cache) = cache {
                cache.release_state(slot);
            }
        }
    }
}

impl std::fmt::Debug for OptEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptEngine")
            .field("classes", &self.classes)
            .field("overlap", &self.overlap)
            .field("stages", &self.ranges.len())
            .field("pending", &self.pending)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_autograd::var::Var;
    use ssdtrain_tensor::{Device, Tensor};

    fn opt_with(n: usize, momentum: f32) -> Sgd {
        let d = Device::cpu();
        let params: Vec<Var> = (0..n)
            .map(|i| Var::new(format!("p{i}"), Tensor::from_vec(vec![1.0], [1], &d)))
            .collect();
        for p in &params {
            p.accumulate_grad(&Tensor::ones([1], &d));
        }
        Sgd::with_momentum(params, 0.5, momentum)
    }

    #[test]
    fn inline_update_without_cache_matches_a_plain_step() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let mut a = opt_with(4, 0.0);
        let mut b = opt_with(4, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), false, &a, 2, None);
        let report = engine.end_of_step(None, &mut a, &clock, &trace);
        b.step();
        b.zero_grad();
        for (x, y) in a.params().iter().zip(b.params()) {
            assert_eq!(x.tensor().to_vec(), y.tensor().to_vec());
            assert!(x.grad().is_none(), "engine zeroes consumed gradients");
        }
        assert_eq!(report.total_secs(), 0.0, "no I/O, no stall");
    }

    #[test]
    fn overlap_defers_the_update_to_the_next_begin() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let mut opt = opt_with(2, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), true, &opt, 2, None);
        engine.end_of_step(None, &mut opt, &clock, &trace);
        assert!(engine.pending());
        // The weights are untouched until the deferred update lands.
        assert_eq!(opt.params()[0].tensor().to_vec(), vec![1.0]);
        let report = engine.begin_step(None, &mut opt, &clock, &trace);
        assert!(!engine.pending());
        assert_eq!(opt.params()[0].tensor().to_vec(), vec![0.5]);
        assert_eq!(report.exposed_secs, 0.0);
    }

    fn profile_of(fwd: &[f64]) -> StepProfile {
        StepProfile {
            modules: fwd
                .iter()
                .enumerate()
                .map(|(i, &fwd_secs)| ssdtrain::ModuleProfile {
                    path: format!("m{i}"),
                    offload_bytes: 0,
                    fwd_secs,
                    store_secs: 0.0,
                    load_secs: 0.0,
                })
                .collect(),
            fwd_total_secs: fwd.iter().sum(),
            fwd_io_bytes: 0,
            fwd_io_secs: 0.0,
        }
    }

    #[test]
    fn profiled_arrivals_follow_observed_forward_fractions() {
        let mut opt = opt_with(4, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), true, &opt, 2, None);
        // Front-loaded forward: stage 1's parameters are reached after
        // 3 of the 4 forward seconds, not at the uniform halfway mark.
        engine.note_profile(&profile_of(&[3.0, 1.0]));
        engine.note_forward_secs(4.0);
        assert_eq!(engine.arrival_frac(0), 0.0);
        assert_eq!(engine.arrival_frac(1), 0.75);
        let clock = SimClock::new();
        let trace = TraceSink::enabled();
        engine.end_of_step(None, &mut opt, &clock, &trace);
        engine.begin_step(None, &mut opt, &clock, &trace);
        let arrivals: Vec<f64> = trace
            .events()
            .iter()
            .filter(|e| e.name.starts_with("opt.overlap.s"))
            .map(
                |e| match e.args.iter().find(|(k, _)| *k == "arrival_secs") {
                    Some((_, ArgValue::F64(v))) => *v,
                    other => panic!("arrival arg missing: {other:?}"),
                },
            )
            .collect();
        assert_eq!(arrivals, vec![0.0, 3.0]);
    }

    #[test]
    fn degenerate_profiles_keep_the_uniform_fallback() {
        let opt = opt_with(4, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), true, &opt, 2, None);
        assert_eq!(engine.arrival_frac(1), 0.5, "uniform before any profile");
        engine.note_profile(&profile_of(&[]));
        engine.note_profile(&profile_of(&[0.0, 0.0]));
        engine.note_profile(&profile_of(&[f64::NAN]));
        assert_eq!(engine.arrival_frac(1), 0.5, "degenerate profiles ignored");
        // A single-module profile maps onto both stages: stage 0 at the
        // start, stage 1 only after the whole forward has passed it.
        engine.note_profile(&profile_of(&[2.0]));
        assert_eq!(engine.arrival_frac(0), 0.0);
        assert_eq!(engine.arrival_frac(1), 1.0);
    }

    #[test]
    fn the_sweep_retries_a_gradient_refused_mid_backward() {
        // A one-gradient host pool that another slot holds while backward
        // streams: the listener's stash is refused, and the sweep — once
        // the pool has room again — stores it, counted once.
        let clock = SimClock::new();
        let mem = Arc::new(ssdtrain_simhw::GpuMemory::new(clock.clone(), 1 << 30));
        let config = ssdtrain::TensorCacheConfig {
            recovery: ssdtrain::RecoveryPolicy::KeepResident,
            ..ssdtrain::TensorCacheConfig::offload_everything()
        };
        let pool = Arc::new(ssdtrain::CpuTarget::new(4));
        let io = ssdtrain::IoEngine::new(clock, 1e9, 1e9);
        let cache = TensorCache::new(config, pool, io, mem);
        let opt = opt_with(1, 0.0); // one 4-byte gradient
        let classes = OffloadClassSet::default().with(OffloadClass::Gradient, true);
        let mut engine = OptEngine::new(classes, false, &opt, 1, Some(&cache));
        let held = Tensor::ones([1], &Device::cpu());
        let blocker = cache.offload_state(&held, OffloadClass::OptimizerState);
        let listener = engine.grad_listener().expect("gradient class with a cache");
        listener.grad_ready(&opt.params()[0]);
        let parked = engine.stream.as_ref().map(|s| s.slots.lock()[0]);
        assert_eq!(
            parked,
            Some(None),
            "the full pool refused the streamed stash"
        );
        cache.release_state(blocker.expect("the blocker fits the pool"));
        engine.stash_grads(Some(&cache), &opt);
        assert_eq!(engine.grad_slots[0].len(), 1, "the sweep retried it");
        let lane = cache.stats().class(OffloadClass::Gradient).cloned();
        assert_eq!(lane.map(|c| c.offloaded_bytes), Some(4));
    }

    #[test]
    fn abort_drops_a_pending_update() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let mut opt = opt_with(2, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), true, &opt, 1, None);
        engine.end_of_step(None, &mut opt, &clock, &trace);
        engine.abort(None);
        assert!(!engine.pending());
        engine.begin_step(None, &mut opt, &clock, &trace);
        assert_eq!(opt.params()[0].tensor().to_vec(), vec![1.0]);
    }
}
