//! The optimizer scheduling engine — a session's every weight update
//! runs here, inside the measured step, as per-stage jobs after backward
//! or inside backward itself; offloaded gradients and optimizer state
//! ride the placement → tier → I/O stack.
//!
//! Two execution modes, selected by [`SessionBuilder::overlap_optimizer`]:
//!
//! * **Inline** (`overlap = false`): the update runs inside the measured
//!   window at the `OptimizerStep` stage (one `opt.stage{j}` span per
//!   stage job). Offloaded gradients leave during the step's last
//!   backward pass — [`OptEngine::grad_listener`] is autograd's
//!   post-accumulate-grad hook and stores each gradient the moment its
//!   last contribution is accumulated, and [`OptEngine::reduce_grads`]
//!   sweeps up what did not stream. Each stage job then loads its
//!   gradient and state slots back (stalling the simulated clock to the
//!   load's completion), applies [`Sgd::step_range`], and re-offloads the
//!   fresh state. Every second of state I/O is exposed; with no state
//!   class offloaded a job costs 0 seconds, the paper's optimizer-free
//!   step (§4.1).
//! * **In backward** (`overlap = true`): PyTorch's optimizer-in-backward
//!   pattern on the same hook. When autograd finalises a parameter's
//!   gradient during the step's last backward pass, the listener loads
//!   that parameter's state slot, applies `step_range(i..i + 1)` once the
//!   load has landed on the simulated clock, and re-offloads the fresh
//!   state — so state reads and write-backs ride the links while
//!   backward still computes, and the gradient is consumed in place,
//!   never stored or reloaded. Each report also reads ahead the state of
//!   the parameters still to come, in the order the previous step
//!   finalised their gradients, as far as the cache's look-ahead
//!   headroom allows, so the last gradient's state is not read only
//!   after backward. A parameter whose write-back backward's exit had
//!   to wait for, under the plan profiling applied, is kept: from its
//!   next update on its state stays on the GPU (the state-class twin
//!   of a module the adaptive plan keeps). An update whose load has not
//!   landed waits in a pending list, drained as backward goes on and,
//!   for what is left, at `ReduceGrads`, which also updates any
//!   parameter autograd never reported; only that tail's clock advance
//!   is exposed ([`OptReport::exposed_secs`]). Numerics are unchanged:
//!   `Sgd::step_range` is elementwise per parameter and autograd never
//!   reports a gradient early, so each update sees the finished gradient,
//!   and every weight is final before the next forward reads it.
//!
//! Once the cache holds an error the step is tainted: no further update
//! is applied (updates already applied stay — their gradients were
//! final), and [`OptEngine::abort`] drops what is left.
//!
//! [`SessionBuilder::overlap_optimizer`]: crate::builder::SessionBuilder::overlap_optimizer
//! [`Sgd::step_range`]: ssdtrain_autograd::optim::Sgd::step_range

use crate::schedule::stage_ranges;
use crate::session::OffloadClassSet;
use parking_lot::Mutex;
use ssdtrain::{OffloadClass, StateSlot, TensorCache, TraceCategory, TraceSink};
use ssdtrain_autograd::optim::Sgd;
use ssdtrain_autograd::var::VarId;
use ssdtrain_autograd::{ModuleHooks, ScopeInfo, Var};
use ssdtrain_simhw::{SimClock, SimTime};
use ssdtrain_tensor::Tensor;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// What one engine hook cost the step, in simulated seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptReport {
    /// Seconds the inline update spent inside the measured window (its
    /// load stalls; zero in the in-backward mode).
    pub inline_secs: f64,
    /// Seconds the in-backward update exposed after backward: the wait
    /// at `ReduceGrads` for state loads still in flight (zero in inline
    /// mode).
    pub exposed_secs: f64,
}

/// Optimizer scheduling over the session's tensor cache.
pub struct OptEngine {
    ranges: Vec<Range<usize>>,
    updater: Arc<Updater>,
}

/// What the backward listener and the step hooks share: the session's
/// optimizer, the per-parameter slots and, in the in-backward mode, the
/// updates still waiting on their state loads. As a [`ModuleHooks`]
/// listener it is autograd's post-accumulate-grad hook.
struct Updater {
    classes: OffloadClassSet,
    overlap: bool,
    cache: Option<Arc<TensorCache>>,
    opt: Arc<Mutex<Sgd>>,
    /// Parameter identity → optimizer index, built once.
    index: HashMap<VarId, usize>,
    slots: Mutex<Slots>,
}

/// Per-parameter bookkeeping, indexed like the optimizer's parameters
/// and allocated once.
struct Slots {
    /// Inline mode: each parameter's stored gradient, streamed during
    /// backward or stored by the `ReduceGrads` sweep.
    grads: Vec<Option<StateSlot>>,
    /// Each parameter's offloaded optimizer state.
    states: Vec<Option<StateSlot>>,
    /// In-backward mode: parameters whose velocity stays on the GPU,
    /// learned from late write-backs (see [`Updater::apply`]) and
    /// forgotten when profiling applies a new plan.
    kept: Vec<bool>,
    /// In-backward mode: parameters whose update is waiting for its
    /// state load, with the time the load lands as last asked, in start
    /// order. A demand read can push a load back, never forward, so a
    /// time still ahead of the clock needs no second look.
    pending: Vec<(usize, SimTime)>,
    /// In-backward mode: where each parameter's update stands this step.
    progress: Vec<Progress>,
    /// In-backward mode: the order the last completed step started its
    /// updates in — its gradients' finalisation order, and the order
    /// the state read-ahead walks.
    order: Vec<usize>,
    /// This step's start order as it is recorded; it becomes `order` at
    /// `ReduceGrads`.
    next_order: Vec<usize>,
    /// How far along `order` the read-ahead has got.
    cursor: usize,
}

/// Where one parameter's in-backward update stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Progress {
    /// Not started, and its state not read ahead.
    Idle,
    /// Its state was read ahead of its gradient.
    ReadAhead,
    /// Started: its state read issued, the update applied or pending.
    Started,
}

impl Updater {
    /// Whether the step is tainted: the cache holds a failure recovery
    /// could not absorb, so no further update may be applied.
    fn tainted(&self) -> bool {
        self.cache.as_ref().is_some_and(|c| c.has_error())
    }

    /// The simulated time now (zero without a cache, where no update
    /// ever waits on a load).
    fn now(&self) -> SimTime {
        let clock = self.cache.as_ref().map(|c| c.io().clock().now());
        clock.unwrap_or(SimTime::ZERO)
    }

    /// In-backward mode: starts parameter `i`'s update — prefetches its
    /// state slot (behind the activation reloads already queued) unless
    /// it was read ahead, then applies the update at once if the load
    /// has landed by `now`, or parks it until it has.
    fn start(&self, slots: &mut Slots, i: usize, now: SimTime) {
        match slots.progress.get_mut(i) {
            Some(p) if *p != Progress::Started => *p = Progress::Started,
            _ => return,
        }
        slots.next_order.push(i);
        match self.landing(&slots.states, i) {
            Some(ready) if ready > now => slots.pending.push((i, ready)),
            _ => self.apply(&mut slots.states, &mut slots.kept, i),
        }
    }

    /// In-backward mode: walks the read-ahead cursor along the order the
    /// last step started its updates in, reading ahead the state of
    /// every parameter not started or read ahead yet, until the cache
    /// refuses one (see [`TensorCache::read_ahead_state`]); the walk
    /// resumes there at the next report.
    fn read_ahead(&self, slots: &mut Slots) {
        let Some(cache) = self.cache.as_deref() else {
            return;
        };
        while let Some(&i) = slots.order.get(slots.cursor) {
            let idle = slots.progress.get_mut(i).filter(|p| **p == Progress::Idle);
            if let (Some(p), Some(&Some(slot))) = (idle, slots.states.get(i)) {
                if cache.read_ahead_state(slot).is_none() {
                    return;
                }
                *p = Progress::ReadAhead;
            }
            slots.cursor += 1;
        }
    }

    /// Where parameter `i`'s state load lands: issues it the first time,
    /// and after that asks where the queue has put it. `None` without a
    /// cache or an offloaded slot.
    fn landing(&self, states: &[Option<StateSlot>], i: usize) -> Option<SimTime> {
        let slot = states.get(i).copied().flatten()?;
        self.cache.as_deref()?.prefetch_state(slot)
    }

    /// Applies every pending update whose state load has landed by
    /// `now`, in start order.
    fn apply_landed(&self, slots: &mut Slots, now: SimTime) {
        let Slots {
            pending,
            states,
            kept,
            ..
        } = slots;
        pending.retain_mut(|(i, ready)| {
            if *ready <= now {
                *ready = self.landing(states, *i).unwrap_or(now);
            }
            if *ready > now {
                return true;
            }
            self.apply(states, kept, *i);
            false
        });
    }

    /// Parameter `i`'s update: the step itself (velocity materialised
    /// first — numerically identical to the lazy allocation), its
    /// gradient released, and the fresh state re-offloaded in place of
    /// the slot it was loaded from — unless the parameter is kept. A
    /// parameter is kept from the update whose released slot the cache
    /// reports late (backward's exit waited for its write-back), and its
    /// velocity then stays on the GPU: SSDTrain's keep decision for what
    /// cannot be offloaded behind compute.
    fn apply(&self, states: &mut [Option<StateSlot>], kept: &mut [bool], i: usize) {
        let mut opt = self.opt.lock();
        opt.ensure_velocity(i);
        opt.step_range(i..i + 1);
        if let Some(p) = opt.params().get(i) {
            p.zero_grad();
        }
        let (Some(cache), Some(state), Some(kept)) =
            (self.cache.as_deref(), states.get_mut(i), kept.get_mut(i))
        else {
            return;
        };
        if let Some(old) = state.take() {
            *kept |= cache.release_state_late(old);
        }
        let class = OffloadClass::OptimizerState;
        let Some(v) = opt.velocity(i).filter(|_| self.classes.contains(class)) else {
            return;
        };
        if *kept {
            cache.keep_state(v, class);
        } else {
            *state = cache.offload_state(v, class);
        }
    }
}

impl ModuleHooks for Updater {
    fn wants_grad_ready(&self) -> bool {
        true
    }

    fn grad_ready(&self, var: &Var) {
        let Some(&i) = self.index.get(&var.id()) else {
            return;
        };
        if self.tainted() {
            return;
        }
        let mut slots = self.slots.lock();
        if self.overlap {
            let now = self.now();
            self.apply_landed(&mut slots, now);
            self.start(&mut slots, i, now);
            self.read_ahead(&mut slots);
            return;
        }
        let Some(cache) = self.cache.as_deref() else {
            return;
        };
        let stash = |grad: &Tensor| cache.offload_state(grad, OffloadClass::Gradient);
        let slot = var.with_grad(stash).flatten();
        if let Some(parked) = slots.grads.get_mut(i) {
            *parked = slot;
        }
    }

    fn backward_post(&self, _scope: &ScopeInfo) {
        if !self.overlap || self.tainted() {
            return;
        }
        let mut slots = self.slots.lock();
        if !slots.pending.is_empty() {
            let now = self.now();
            self.apply_landed(&mut slots, now);
        }
    }
}

impl OptEngine {
    /// Builds the engine over the session's optimizer: its parameters
    /// partitioned into `n_stages` contiguous per-stage update jobs for
    /// the inline mode, and the backward listener (see
    /// [`OptEngine::grad_listener`]) sharing the same [`Sgd`].
    pub fn new(
        classes: OffloadClassSet,
        overlap: bool,
        opt: &Arc<Mutex<Sgd>>,
        n_stages: usize,
        cache: Option<&Arc<TensorCache>>,
    ) -> OptEngine {
        let guard = opt.lock();
        let params = guard.params();
        let n = params.len();
        let index = params.iter().enumerate().map(|(i, p)| (p.id(), i));
        let updater = Updater {
            classes,
            overlap,
            cache: cache.cloned(),
            opt: opt.clone(),
            index: index.collect(),
            slots: Mutex::new(Slots {
                grads: vec![None; n],
                states: vec![None; n],
                kept: vec![false; n],
                pending: Vec::with_capacity(n),
                progress: vec![Progress::Idle; n],
                order: Vec::with_capacity(n),
                next_order: Vec::with_capacity(n),
                cursor: 0,
            }),
        };
        OptEngine {
            ranges: stage_ranges(n, n_stages),
            updater: Arc::new(updater),
        }
    }

    /// The listener the session registers for the step's last backward
    /// pass: in the in-backward mode it runs each parameter's update as
    /// autograd reports its gradient final; inline, it stores the
    /// gradient then. `None` inline when gradients are not offloaded.
    pub fn grad_listener(&self) -> Option<Arc<dyn ModuleHooks>> {
        let u = &self.updater;
        let stream = u.cache.is_some() && u.classes.contains(OffloadClass::Gradient);
        let listener: Arc<dyn ModuleHooks> = u.clone();
        (u.overlap || stream).then_some(listener)
    }

    /// Profiling applied a new adaptive plan: the parameters kept under
    /// the old one are forgotten, and what stays on the GPU is learned
    /// again from steps under the new one.
    pub fn plan_changed(&self) {
        self.updater.slots.lock().kept.fill(false);
    }

    /// `ReduceGrads` hook, after the last backward pass.
    ///
    /// Inline, it is the sweep behind the streamed stash: it stores the
    /// gradient of every parameter that did not stream — one autograd
    /// never reported final, or one the tier stack refused mid-backward
    /// (the host pool was still holding activations), retried now — in
    /// parameter order. Its stores drain at the enclosing stage scope's
    /// exit, so their cost lands on the step that produced them.
    ///
    /// In backward, it finishes the step's update: parameters autograd
    /// never reported start now, and the clock waits for each pending
    /// state load in landing order, applying its update as it lands. The
    /// wait is the update's exposed tail (an `opt.tail` span).
    pub fn reduce_grads(&mut self, clock: &SimClock, trace: &TraceSink) -> OptReport {
        let u = &*self.updater;
        if u.tainted() {
            return OptReport::default();
        }
        let mut guard = u.slots.lock();
        let slots = &mut *guard;
        if !u.overlap {
            let Some(cache) = u.cache.as_deref() else {
                return OptReport::default();
            };
            if !u.classes.contains(OffloadClass::Gradient) {
                return OptReport::default();
            }
            let opt = u.opt.lock();
            for (p, grad) in opt.params().iter().zip(slots.grads.iter_mut()) {
                if grad.is_none() {
                    let stash = |g: &Tensor| cache.offload_state(g, OffloadClass::Gradient);
                    *grad = p.with_grad(stash).flatten();
                }
            }
            return OptReport::default();
        }
        let t0 = clock.now();
        for i in 0..slots.progress.len() {
            u.start(slots, i, t0);
        }
        // Every load is issued: where each lands is final now.
        for (i, ready) in slots.pending.iter_mut() {
            *ready = u.landing(&slots.states, *i).unwrap_or(*ready);
        }
        slots.pending.sort_unstable_by(|a, b| {
            let by_time = a.1.as_secs().total_cmp(&b.1.as_secs());
            by_time.then(a.0.cmp(&b.0))
        });
        for &(i, ready) in &slots.pending {
            clock.advance_to(ready);
            u.apply(&mut slots.states, &mut slots.kept, i);
        }
        slots.pending.clear();
        slots.progress.fill(Progress::Idle);
        // This step's start order is what the next one reads ahead along.
        std::mem::swap(&mut slots.order, &mut slots.next_order);
        slots.next_order.clear();
        slots.cursor = 0;
        let exposed = clock.now().since(t0);
        if exposed > 0.0 {
            trace.span(TraceCategory::Stage, "opt.tail", t0, clock.now());
        }
        OptReport {
            inline_secs: 0.0,
            exposed_secs: exposed,
        }
    }

    /// `OptimizerStep` hook. Inline mode runs the per-stage update jobs
    /// now, inside the measured window; in the in-backward mode the
    /// update already happened and this is a no-op.
    pub fn end_of_step(&mut self, clock: &SimClock, trace: &TraceSink) -> OptReport {
        let u = &*self.updater;
        if u.overlap || u.tainted() {
            return OptReport::default();
        }
        let cache = u.cache.as_deref();
        let mut guard = u.slots.lock();
        let slots = &mut *guard;
        let mut opt = u.opt.lock();
        let t0 = clock.now();
        for (j, range) in self.ranges.iter().enumerate() {
            let stage_start = clock.now();
            // Load this stage's gradient and state slots; the ready time
            // is the latest completion (each clamped to its own store's
            // drain by the cache).
            let mut ready = stage_start;
            if let Some(cache) = cache {
                let grads = slots.grads[range.clone()].iter();
                for slot in grads.chain(slots.states[range.clone()].iter()).flatten() {
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
            opt.step_range(range.clone());
            for p in &opt.params()[range.clone()] {
                p.zero_grad();
            }
            // Consumed gradient slots are released, stale state slots
            // replaced by the freshly-written velocity tensors.
            let stale = slots.grads[range.clone()].iter_mut();
            for slot in stale.chain(slots.states[range.clone()].iter_mut()) {
                if let (Some(slot), Some(cache)) = (slot.take(), cache) {
                    cache.release_state(slot);
                }
            }
            if let (Some(cache), true) = (cache, u.classes.contains(OffloadClass::OptimizerState)) {
                for i in range.clone() {
                    let v = opt.velocity(i);
                    slots.states[i] =
                        v.and_then(|v| cache.offload_state(v, OffloadClass::OptimizerState));
                }
            }
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

    /// Error-path hook: a tainted step applies no further update. The
    /// stored gradients are released (the caller clears the gradients
    /// themselves), and so are the state slots of updates still pending
    /// and of those read ahead but never started — their state was
    /// loaded back and stays resident, so the next step updates from it
    /// directly, and no slot is left mid-read across the step boundary.
    /// Updates already applied stay; the order the next step reads
    /// ahead along is the last completed step's.
    pub fn abort(&mut self) {
        let u = &*self.updater;
        let mut guard = u.slots.lock();
        let Slots {
            grads,
            states,
            pending,
            progress,
            next_order,
            cursor,
            ..
        } = &mut *guard;
        let read_ahead = progress.iter().enumerate();
        let read_ahead = read_ahead.filter_map(|(i, p)| (*p == Progress::ReadAhead).then_some(i));
        let loaded = pending.iter().map(|&(i, _)| i);
        for i in loaded.chain(read_ahead) {
            let slot = states.get_mut(i).and_then(Option::take);
            if let (Some(slot), Some(cache)) = (slot, u.cache.as_deref()) {
                cache.release_state(slot);
            }
        }
        pending.clear();
        progress.fill(Progress::Idle);
        next_order.clear();
        *cursor = 0;
        for slot in grads.iter_mut().filter_map(Option::take) {
            if let Some(cache) = u.cache.as_deref() {
                cache.release_state(slot);
            }
        }
    }
}

impl std::fmt::Debug for OptEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptEngine")
            .field("classes", &self.updater.classes)
            .field("overlap", &self.updater.overlap)
            .field("stages", &self.ranges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain::RecoveryPolicy;
    use ssdtrain_autograd::var::Var;
    use ssdtrain_tensor::{Device, Tensor};

    fn opt_with(n: usize, momentum: f32) -> Arc<Mutex<Sgd>> {
        let d = Device::cpu();
        let params: Vec<Var> = (0..n)
            .map(|i| Var::new(format!("p{i}"), Tensor::from_vec(vec![1.0], [1], &d)))
            .collect();
        for p in &params {
            p.accumulate_grad(Tensor::ones([1], &d));
        }
        Arc::new(Mutex::new(Sgd::with_momentum(params, 0.5, momentum)))
    }

    fn weight(opt: &Arc<Mutex<Sgd>>, i: usize) -> Vec<f32> {
        opt.lock().params()[i].tensor().to_vec()
    }

    #[test]
    fn inline_update_without_cache_matches_a_plain_step() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let a = opt_with(4, 0.0);
        let b = opt_with(4, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), false, &a, 2, None);
        let report = engine.end_of_step(&clock, &trace);
        let mut b = b.lock();
        b.step();
        b.zero_grad();
        for (x, y) in a.lock().params().iter().zip(b.params()) {
            assert_eq!(x.tensor().to_vec(), y.tensor().to_vec());
            assert!(x.grad().is_none(), "engine zeroes consumed gradients");
        }
        assert_eq!(report, OptReport::default(), "no I/O, no stall");
    }

    #[test]
    fn the_listener_updates_a_parameter_when_its_gradient_is_final() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let opt = opt_with(2, 0.0);
        let mut engine = OptEngine::new(OffloadClassSet::default(), true, &opt, 1, None);
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        let p0 = opt.lock().params()[0].clone();
        listener.grad_ready(&p0);
        assert_eq!(
            weight(&opt, 0),
            vec![0.5],
            "updated the moment it was reported"
        );
        assert!(p0.grad().is_none(), "the gradient is consumed in place");
        assert_eq!(weight(&opt, 1), vec![1.0], "p1 was not reported yet");
        // `ReduceGrads` updates what autograd never reported, once each.
        let report = engine.reduce_grads(&clock, &trace);
        assert_eq!(weight(&opt, 0), vec![0.5]);
        assert_eq!(weight(&opt, 1), vec![0.5]);
        assert_eq!(report.exposed_secs, 0.0, "no loads, nothing to wait for");
        assert_eq!(engine.end_of_step(&clock, &trace), OptReport::default());
    }

    /// A cache over a one-link `1 GB/s` engine whose host pool holds
    /// `pool` bytes, recovering refused stores per `recovery`.
    fn small_cache(clock: &SimClock, pool: u64, recovery: RecoveryPolicy) -> Arc<TensorCache> {
        let mem = Arc::new(ssdtrain_simhw::GpuMemory::new(clock.clone(), 1 << 30));
        let config = ssdtrain::TensorCacheConfig {
            recovery,
            ..ssdtrain::TensorCacheConfig::offload_everything()
        };
        let pool = Arc::new(ssdtrain::CpuTarget::new(pool));
        let io = ssdtrain::IoEngine::new(clock.clone(), 1e9, 1e9);
        TensorCache::new(config, pool, io, mem)
    }

    #[test]
    fn an_update_waits_for_its_state_load_and_reduce_grads_exposes_the_rest() {
        let clock = SimClock::new();
        let trace = TraceSink::enabled();
        let cache = small_cache(&clock, 1 << 20, RecoveryPolicy::KeepResident);
        let opt = opt_with(1, 0.5);
        let classes = OffloadClassSet::default().with(OffloadClass::OptimizerState, true);
        let mut engine = OptEngine::new(classes, true, &opt, 1, Some(&cache));
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        let p = opt.lock().params()[0].clone();
        // Step 1: no state yet — the update runs at once and offloads it.
        listener.grad_ready(&p);
        assert_eq!(weight(&opt, 0), vec![0.5]);
        engine.reduce_grads(&clock, &trace);
        let stored = cache.stats().class(OffloadClass::OptimizerState).cloned();
        assert_eq!(stored.map(|c| c.offloaded_bytes), Some(4));
        // Step 2 (fresh clock): the state load lands in the future, so
        // the update waits for it; `ReduceGrads` advances to it.
        clock.reset();
        cache.begin_step();
        p.accumulate_grad(Tensor::ones([1], &Device::cpu()));
        listener.grad_ready(&p);
        assert_eq!(weight(&opt, 0), vec![0.5], "parked until its state lands");
        let report = engine.reduce_grads(&clock, &trace);
        assert!(report.exposed_secs > 0.0, "the load's tail is exposed");
        assert_eq!(report.exposed_secs, clock.now().as_secs());
        // v = 0.5 · 1 + 1 = 1.5, w = 0.5 − 0.5 · 1.5
        assert_eq!(weight(&opt, 0), vec![-0.25]);
        let tail = trace.events().into_iter().find(|e| e.name == "opt.tail");
        assert_eq!(tail.map(|e| e.end().since(e.ts)), Some(report.exposed_secs));
    }

    #[test]
    fn abort_drops_a_pending_update() {
        // A tainted step applies no further update — not even one whose
        // state load has landed — and abort releases its loaded slot.
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        // Room for the two 4-byte states and nothing else.
        let cache = small_cache(&clock, 8, RecoveryPolicy::FailStep);
        let opt = opt_with(2, 0.5);
        let classes = OffloadClassSet::default().with(OffloadClass::OptimizerState, true);
        let mut engine = OptEngine::new(classes, true, &opt, 1, Some(&cache));
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        let (p0, p1) = {
            let opt = opt.lock();
            (opt.params()[0].clone(), opt.params()[1].clone())
        };
        engine.reduce_grads(&clock, &trace); // step 1 offloads both states
        assert_eq!(weight(&opt, 0), vec![0.5]);
        clock.reset();
        cache.begin_step();
        for p in [&p0, &p1] {
            p.accumulate_grad(Tensor::ones([1], &Device::cpu()));
        }
        listener.grad_ready(&p0);
        assert_eq!(engine.updater.slots.lock().pending.len(), 1, "p0 waits");
        // A store the full pool refuses fails the step.
        let extra = Tensor::ones([1], &Device::cpu());
        assert!(cache
            .offload_state(&extra, OffloadClass::Gradient)
            .is_none());
        assert!(
            cache.has_error(),
            "FailStep keeps the error for the step end"
        );
        listener.grad_ready(&p1);
        let report = engine.reduce_grads(&clock, &trace);
        assert_eq!(report, OptReport::default(), "nothing runs once tainted");
        assert_eq!(weight(&opt, 0), vec![0.5], "p0's update was still pending");
        assert_eq!(
            weight(&opt, 1),
            vec![0.5],
            "p1 was reported after the fault"
        );
        engine.abort();
        let slots = engine.updater.slots.lock();
        assert!(slots.pending.is_empty());
        assert!(slots.states[0].is_none(), "the pending slot was released");
        assert!(slots.states[1].is_some(), "p1's state was never loaded");
    }

    #[test]
    fn abort_releases_a_slot_read_ahead_of_its_gradient() {
        // Step 1 learns the order (p0, p1) and offloads both states into
        // a pool with room for nothing else. In step 2, p0's report reads
        // p1's state ahead of its gradient; then the step is tainted.
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let mem = Arc::new(ssdtrain_simhw::GpuMemory::new(clock.clone(), 1 << 30));
        let config = ssdtrain::TensorCacheConfig {
            recovery: RecoveryPolicy::FailStep,
            prefetch_group_modules: 2,
            ..ssdtrain::TensorCacheConfig::offload_everything()
        };
        let pool = Arc::new(ssdtrain::CpuTarget::new(8));
        let io = ssdtrain::IoEngine::new(clock.clone(), 1e9, 1e9);
        let cache = TensorCache::new(config, pool, io, mem.clone());
        let opt = opt_with(2, 0.5);
        let classes = OffloadClassSet::default().with(OffloadClass::OptimizerState, true);
        let mut engine = OptEngine::new(classes, true, &opt, 1, Some(&cache));
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        let (p0, p1) = {
            let opt = opt.lock();
            (opt.params()[0].clone(), opt.params()[1].clone())
        };
        // Backward announced over one module while 16 activation bytes
        // are resident; freeing them leaves that much headroom.
        let announce = || {
            let dev = Device::cpu();
            dev.set_tracker(mem.clone());
            let held = Tensor::ones([4], &dev);
            let scope = ScopeInfo {
                path: "m".into(),
                seq: 1,
                micro_batch: 0,
            };
            cache.forward_pre(&scope);
            cache.forward_post(&scope);
            cache.prefetch_last_module();
            drop(held);
        };
        let next_step = || {
            clock.reset();
            cache.begin_step();
            for p in [&p0, &p1] {
                p.accumulate_grad(Tensor::ones([1], &Device::cpu()));
            }
            announce();
        };
        engine.reduce_grads(&clock, &trace); // step 1
        next_step();
        listener.grad_ready(&p0);
        let (slots_before, progress) = {
            let slots = engine.updater.slots.lock();
            (slots.states.clone(), slots.progress.clone())
        };
        assert_eq!(progress, [Progress::Started, Progress::ReadAhead]);
        let extra = Tensor::ones([1], &Device::cpu());
        assert!(cache
            .offload_state(&extra, OffloadClass::Gradient)
            .is_none());
        assert!(cache.has_error(), "the full pool tainted the step");
        assert_eq!(engine.reduce_grads(&clock, &trace), OptReport::default());
        engine.abort();
        {
            let slots = engine.updater.slots.lock();
            assert!(slots.states.iter().all(Option::is_none), "both released");
            assert_eq!(slots.order, [0, 1], "step 1's order is kept");
        }
        for slot in slots_before.into_iter().flatten() {
            assert_eq!(cache.prefetch_state(slot), None, "no record left loading");
        }
        for p in [&p0, &p1] {
            p.zero_grad();
        }
        assert_eq!((weight(&opt, 0), weight(&opt, 1)), (vec![0.5], vec![0.5]));
        // Step 3 runs clean, from the momentum the aborted reads restored:
        // v = 0.5 · 1 + 1 = 1.5, w = 0.5 − 0.5 · 1.5.
        next_step();
        listener.grad_ready(&p0);
        listener.grad_ready(&p1);
        let report = engine.reduce_grads(&clock, &trace);
        assert!(!cache.has_error());
        assert_eq!(report.exposed_secs, 0.0, "both states were resident");
        assert_eq!(
            (weight(&opt, 0), weight(&opt, 1)),
            (vec![-0.25], vec![-0.25])
        );
        let slots = engine.updater.slots.lock();
        assert!(slots.states.iter().all(Option::is_some), "re-offloaded");
    }

    #[test]
    fn the_sweep_retries_a_gradient_refused_mid_backward() {
        // A one-gradient host pool that another slot holds while backward
        // streams: the listener's stash is refused, and the sweep — once
        // the pool has room again — stores it, counted once.
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let cache = small_cache(&clock, 4, RecoveryPolicy::KeepResident);
        let opt = opt_with(1, 0.0); // one 4-byte gradient
        let classes = OffloadClassSet::default().with(OffloadClass::Gradient, true);
        let mut engine = OptEngine::new(classes, false, &opt, 1, Some(&cache));
        let held = Tensor::ones([1], &Device::cpu());
        let blocker = cache.offload_state(&held, OffloadClass::OptimizerState);
        let listener = engine.grad_listener().expect("gradient class with a cache");
        let p = opt.lock().params()[0].clone();
        listener.grad_ready(&p);
        let parked = engine.updater.slots.lock().grads[0];
        assert_eq!(parked, None, "the full pool refused the streamed stash");
        cache.release_state(blocker.expect("the blocker fits the pool"));
        engine.reduce_grads(&clock, &trace);
        let parked = engine.updater.slots.lock().grads[0];
        assert!(parked.is_some(), "the sweep retried it");
        let lane = cache.stats().class(OffloadClass::Gradient).cloned();
        assert_eq!(lane.map(|c| c.offloaded_bytes), Some(4));
    }
}
