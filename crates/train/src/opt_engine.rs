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
//!   is exposed (what [`OptEngine::reduce_grads`] returns). Numerics are
//!   unchanged: `Sgd::step_range` is elementwise per parameter and
//!   autograd never reports a gradient early, so each update sees the
//!   finished gradient, and every weight is final before the next
//!   forward reads it.
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
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Optimizer scheduling over the session's tensor cache: the session's
/// optimizer, one record per parameter and, in the in-backward mode, the
/// updates still waiting on their state loads. The session holds it in
/// an `Arc` so that, as a [`ModuleHooks`] listener, it can also be
/// autograd's post-accumulate-grad hook.
pub(crate) struct OptEngine {
    classes: OffloadClassSet,
    overlap: bool,
    cache: Option<Arc<TensorCache>>,
    /// The inline mode's per-stage update jobs.
    ranges: Vec<Range<usize>>,
    /// The number the first job's `opt.stage{j}` span carries.
    first_job: usize,
    /// Parameter identity → optimizer index, built once.
    index: HashMap<VarId, usize>,
    /// The engine's one lock (DESIGN §7).
    slots: Mutex<Slots>,
}

/// The engine's mutable state, allocated once: the optimizer and its
/// bookkeeping.
struct Slots {
    /// The session's optimizer.
    opt: Sgd,
    /// One record per parameter, indexed like the optimizer's.
    params: Vec<Param>,
    /// In-backward mode: parameters whose update is waiting for its
    /// state load, with the time the load lands as last asked, in start
    /// order. A demand read can push a load back, never forward, so a
    /// time still ahead of the clock needs no second look.
    pending: Vec<(usize, SimTime)>,
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

/// One parameter's record.
#[derive(Clone, Copy)]
struct Param {
    /// Inline mode: the stored gradient, streamed during backward or
    /// stored by the `ReduceGrads` sweep.
    grad: Option<StateSlot>,
    /// The offloaded optimizer state.
    state: Option<StateSlot>,
    /// In-backward mode: the velocity stays on the GPU, learned from a
    /// late write-back (see [`OptEngine::apply`]) and forgotten when
    /// profiling applies a new plan.
    kept: bool,
    /// In-backward mode: where the update stands this step.
    progress: Progress,
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

impl OptEngine {
    /// Builds the engine over the session's optimizer: its parameters
    /// partitioned into contiguous per-stage update jobs for the inline
    /// mode, one per number in `jobs` (at least one), which name their
    /// spans.
    pub(crate) fn new(
        classes: OffloadClassSet,
        overlap: bool,
        opt: Sgd,
        jobs: Range<usize>,
        cache: Option<&Arc<TensorCache>>,
    ) -> OptEngine {
        let n = opt.params().len();
        let index = opt.params().iter().enumerate().map(|(i, p)| (p.id(), i));
        let param = Param {
            grad: None,
            state: None,
            kept: false,
            progress: Progress::Idle,
        };
        OptEngine {
            classes,
            overlap,
            cache: cache.cloned(),
            ranges: stage_ranges(n, jobs.len()),
            first_job: jobs.start,
            index: index.collect(),
            slots: Mutex::new(Slots {
                opt,
                params: vec![param; n],
                pending: Vec::with_capacity(n),
                order: Vec::with_capacity(n),
                next_order: Vec::with_capacity(n),
                cursor: 0,
            }),
        }
    }

    /// The listener the session sets in its graph's gradient-listener
    /// slot for the step's last backward pass: in the in-backward mode it runs each parameter's update as
    /// autograd reports its gradient final; inline, it stores the
    /// gradient then. `None` inline when gradients are not offloaded.
    pub(crate) fn grad_listener(self: &Arc<Self>) -> Option<Arc<dyn ModuleHooks>> {
        let stream = self.cache.is_some() && self.classes.contains(OffloadClass::Gradient);
        let listener: Arc<dyn ModuleHooks> = self.clone();
        (self.overlap || stream).then_some(listener)
    }

    /// Clears every parameter's accumulated gradient.
    pub(crate) fn zero_grad(&self) {
        self.slots.lock().opt.zero_grad();
    }

    /// Profiling applied a new adaptive plan: the parameters kept under
    /// the old one are forgotten, and what stays on the GPU is learned
    /// again from steps under the new one.
    pub(crate) fn plan_changed(&self) {
        for param in &mut self.slots.lock().params {
            param.kept = false;
        }
    }

    /// `ReduceGrads` hook, after the last backward pass. Returns the
    /// seconds the in-backward update exposed after backward (0 inline).
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
    pub(crate) fn reduce_grads(&self, clock: &SimClock, trace: &TraceSink) -> f64 {
        if self.tainted() {
            return 0.0;
        }
        let mut guard = self.slots.lock();
        let slots = &mut *guard;
        if !self.overlap {
            let gradients = self.classes.contains(OffloadClass::Gradient);
            let Some(cache) = self.cache.as_deref().filter(|_| gradients) else {
                return 0.0;
            };
            for (p, param) in slots.opt.params().iter().zip(&mut slots.params) {
                if param.grad.is_none() {
                    let stash = |g: &_| cache.offload_state(g, OffloadClass::Gradient);
                    param.grad = p.with_grad(stash).flatten();
                }
            }
            return 0.0;
        }
        let t0 = clock.now();
        for i in 0..slots.params.len() {
            self.start(slots, i, t0);
        }
        // Every load is issued: where each lands is final now.
        for (i, ready) in &mut slots.pending {
            let landing = slots.params.get(*i).and_then(|p| self.landing(p));
            *ready = landing.unwrap_or(*ready);
        }
        slots.pending.sort_unstable_by(|a, b| {
            let by_time = a.1.as_secs().total_cmp(&b.1.as_secs());
            by_time.then(a.0.cmp(&b.0))
        });
        for &(i, ready) in &slots.pending {
            clock.advance_to(ready);
            if let Some(param) = slots.params.get_mut(i) {
                self.apply(&mut slots.opt, i, param);
            }
        }
        slots.pending.clear();
        for param in &mut slots.params {
            param.progress = Progress::Idle;
        }
        // This step's start order is what the next one reads ahead along.
        std::mem::swap(&mut slots.order, &mut slots.next_order);
        slots.next_order.clear();
        slots.cursor = 0;
        let exposed = clock.now().since(t0);
        if exposed > 0.0 {
            trace.span(TraceCategory::Stage, "opt.tail", t0, clock.now());
        }
        exposed
    }

    /// `OptimizerStep` hook. Inline mode runs the per-stage update jobs
    /// now, inside the measured window, and returns the seconds they
    /// took; in the in-backward mode the update already happened and
    /// this is a no-op.
    pub(crate) fn end_of_step(&self, clock: &SimClock, trace: &TraceSink) -> f64 {
        if self.overlap || self.tainted() {
            return 0.0;
        }
        let cache = self.cache.as_deref();
        let mut guard = self.slots.lock();
        let Slots { opt, params, .. } = &mut *guard;
        let t0 = clock.now();
        for (j, range) in self.ranges.iter().enumerate() {
            let stage_start = clock.now();
            let params = &mut params[range.clone()];
            // Load this stage's gradient and state slots; the ready time
            // is the latest completion (each clamped to its own store's
            // drain by the cache).
            let mut ready = stage_start;
            if let Some(cache) = cache {
                let grads = params.iter().map(|p| p.grad);
                for slot in grads.chain(params.iter().map(|p| p.state)).flatten() {
                    if let Some(t) = cache.load_state(slot) {
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
            if let Some(cache) = cache {
                for slot in params.iter_mut().filter_map(|p| p.grad.take()) {
                    cache.release_state(slot);
                }
                for slot in params.iter_mut().filter_map(|p| p.state.take()) {
                    cache.release_state(slot);
                }
                if self.classes.contains(OffloadClass::OptimizerState) {
                    for (i, param) in range.clone().zip(params) {
                        let v = opt.velocity(i);
                        param.state =
                            v.and_then(|v| cache.offload_state(v, OffloadClass::OptimizerState));
                    }
                }
            }
            if trace.is_enabled() {
                let name = format!("opt.stage{}", self.first_job + j);
                trace.span(TraceCategory::Stage, name, stage_start, clock.now());
            }
        }
        clock.now().since(t0)
    }

    /// Error-path hook: a tainted step applies no further update. The
    /// stored gradients are released (the caller clears the gradients
    /// themselves), and so are the state slots of updates still pending
    /// and of those read ahead but never started — their state was
    /// loaded back and stays resident, so the next step updates from it
    /// directly, and no slot is left mid-read across the step boundary.
    /// Updates already applied stay; the order the next step reads
    /// ahead along is the last completed step's.
    pub(crate) fn abort(&self) {
        let mut guard = self.slots.lock();
        let slots = &mut *guard;
        let release = |slot: Option<StateSlot>| {
            if let (Some(slot), Some(cache)) = (slot, self.cache.as_deref()) {
                cache.release_state(slot);
            }
        };
        for &(i, _) in &slots.pending {
            release(slots.params.get_mut(i).and_then(|p| p.state.take()));
        }
        for param in &mut slots.params {
            if param.progress == Progress::ReadAhead {
                release(param.state.take());
            }
        }
        for param in &mut slots.params {
            release(param.grad.take());
            param.progress = Progress::Idle;
        }
        slots.pending.clear();
        slots.next_order.clear();
        slots.cursor = 0;
    }

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
        let Some(param) = slots.params.get_mut(i) else {
            return;
        };
        if param.progress == Progress::Started {
            return;
        }
        param.progress = Progress::Started;
        slots.next_order.push(i);
        match self.landing(param) {
            Some(ready) if ready > now => slots.pending.push((i, ready)),
            _ => self.apply(&mut slots.opt, i, param),
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
            let idle = slots
                .params
                .get_mut(i)
                .filter(|p| p.progress == Progress::Idle);
            if let Some(param) = idle {
                if let Some(slot) = param.state {
                    if cache.read_ahead_state(slot).is_none() {
                        return;
                    }
                    param.progress = Progress::ReadAhead;
                }
            }
            slots.cursor += 1;
        }
    }

    /// Where `param`'s state load lands: issues it the first time, and
    /// after that asks where the queue has put it. `None` without a
    /// cache or an offloaded slot.
    fn landing(&self, param: &Param) -> Option<SimTime> {
        self.cache.as_deref()?.prefetch_state(param.state?)
    }

    /// Applies every pending update whose state load has landed by
    /// `now`, in start order.
    fn apply_landed(&self, slots: &mut Slots, now: SimTime) {
        slots.pending.retain_mut(|(i, ready)| {
            let Some(param) = slots.params.get_mut(*i) else {
                return false;
            };
            if *ready <= now {
                *ready = self.landing(param).unwrap_or(now);
            }
            if *ready > now {
                return true;
            }
            self.apply(&mut slots.opt, *i, param);
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
    fn apply(&self, opt: &mut Sgd, i: usize, param: &mut Param) {
        opt.ensure_velocity(i);
        opt.step_range(i..i + 1);
        if let Some(p) = opt.params().get(i) {
            p.zero_grad();
        }
        let Some(cache) = self.cache.as_deref() else {
            return;
        };
        if let Some(old) = param.state.take() {
            param.kept |= cache.release_state_late(old);
        }
        let class = OffloadClass::OptimizerState;
        let Some(v) = opt.velocity(i).filter(|_| self.classes.contains(class)) else {
            return;
        };
        if param.kept {
            cache.keep_state(v, class);
        } else {
            param.state = cache.offload_state(v, class);
        }
    }
}

impl ModuleHooks for OptEngine {
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
        let stash = |grad: &_| cache.offload_state(grad, OffloadClass::Gradient);
        let slot = var.with_grad(stash).flatten();
        if let Some(param) = slots.params.get_mut(i) {
            param.grad = slot;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain::{ArgValue, RecoveryPolicy};
    use ssdtrain_tensor::{Device, Tensor};

    /// `n` one-element parameters at 1.0, each with a gradient of 1.
    fn params(n: usize) -> Vec<Var> {
        let d = Device::cpu();
        let params: Vec<Var> = (0..n)
            .map(|i| Var::new(format!("p{i}"), Tensor::from_vec(vec![1.0], [1], &d)))
            .collect();
        for p in &params {
            p.accumulate_grad(Tensor::ones([1], &d));
        }
        params
    }

    /// An engine over `params`, stepping at learning rate 0.5.
    fn engine(
        params: &[Var],
        momentum: f32,
        classes: OffloadClassSet,
        overlap: bool,
        cache: Option<&Arc<TensorCache>>,
    ) -> Arc<OptEngine> {
        let opt = Sgd::with_momentum(params.to_vec(), 0.5, momentum);
        Arc::new(OptEngine::new(classes, overlap, opt, 0..1, cache))
    }

    fn weight(p: &Var) -> Vec<f32> {
        p.tensor().to_vec()
    }

    #[test]
    fn inline_update_without_cache_matches_a_plain_step() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let a = params(4);
        let opt = Sgd::with_momentum(a.clone(), 0.5, 0.0);
        let engine = OptEngine::new(OffloadClassSet::default(), false, opt, 0..2, None);
        let secs = engine.end_of_step(&clock, &trace);
        let mut b = Sgd::with_momentum(params(4), 0.5, 0.0);
        b.step();
        b.zero_grad();
        for (x, y) in a.iter().zip(b.params()) {
            assert_eq!(x.tensor().to_vec(), y.tensor().to_vec());
            assert!(x.grad().is_none(), "engine zeroes consumed gradients");
        }
        assert_eq!(secs, 0.0, "no I/O, no stall");
    }

    #[test]
    fn the_listener_updates_a_parameter_when_its_gradient_is_final() {
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let ps = params(2);
        let engine = engine(&ps, 0.0, OffloadClassSet::default(), true, None);
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        listener.grad_ready(&ps[0]);
        assert_eq!(
            weight(&ps[0]),
            vec![0.5],
            "updated the moment it was reported"
        );
        assert!(ps[0].grad().is_none(), "the gradient is consumed in place");
        assert_eq!(weight(&ps[1]), vec![1.0], "p1 was not reported yet");
        // `ReduceGrads` updates what autograd never reported, once each.
        let exposed = engine.reduce_grads(&clock, &trace);
        assert_eq!(weight(&ps[0]), vec![0.5]);
        assert_eq!(weight(&ps[1]), vec![0.5]);
        assert_eq!(exposed, 0.0, "no loads, nothing to wait for");
        assert_eq!(engine.end_of_step(&clock, &trace), 0.0);
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
        TensorCache::with_tiers(config, Arc::new(ssdtrain::TierStack::single(pool)), io, mem)
    }

    #[test]
    fn an_update_waits_for_its_state_load_and_reduce_grads_exposes_the_rest() {
        let clock = SimClock::new();
        let trace = TraceSink::enabled();
        let cache = small_cache(&clock, 1 << 20, RecoveryPolicy::KeepResident);
        let ps = params(1);
        let classes = OffloadClassSet::default().with(OffloadClass::OptimizerState, true);
        let engine = engine(&ps, 0.5, classes, true, Some(&cache));
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        let p = &ps[0];
        // Step 1: no state yet — the update runs at once and offloads it.
        listener.grad_ready(p);
        assert_eq!(weight(p), vec![0.5]);
        engine.reduce_grads(&clock, &trace);
        let stored = cache.stats().class(OffloadClass::OptimizerState).cloned();
        assert_eq!(stored.map(|c| c.offloaded_bytes), Some(4));
        // Step 2 (fresh clock): the state load lands in the future, so
        // the update waits for it; `ReduceGrads` advances to it.
        clock.reset();
        cache.begin_step();
        p.accumulate_grad(Tensor::ones([1], &Device::cpu()));
        listener.grad_ready(p);
        assert_eq!(weight(p), vec![0.5], "parked until its state lands");
        let exposed = engine.reduce_grads(&clock, &trace);
        assert!(exposed > 0.0, "the load's tail is exposed");
        assert_eq!(exposed, clock.now().as_secs());
        // v = 0.5 · 1 + 1 = 1.5, w = 0.5 − 0.5 · 1.5
        assert_eq!(weight(p), vec![-0.25]);
        let tail = trace.events().into_iter().find(|e| e.name == "opt.tail");
        assert_eq!(tail.map(|e| e.end().since(e.ts)), Some(exposed));
    }

    #[test]
    fn abort_drops_a_pending_update() {
        // A tainted step applies no further update — not even one whose
        // state load has landed — and abort releases its loaded slot.
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        // Room for the two 4-byte states and nothing else.
        let cache = small_cache(&clock, 8, RecoveryPolicy::FailStep);
        let ps = params(2);
        let classes = OffloadClassSet::default().with(OffloadClass::OptimizerState, true);
        let engine = engine(&ps, 0.5, classes, true, Some(&cache));
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
        engine.reduce_grads(&clock, &trace); // step 1 offloads both states
        assert_eq!(weight(&ps[0]), vec![0.5]);
        clock.reset();
        cache.begin_step();
        for p in &ps {
            p.accumulate_grad(Tensor::ones([1], &Device::cpu()));
        }
        listener.grad_ready(&ps[0]);
        assert_eq!(engine.slots.lock().pending.len(), 1, "p0 waits");
        // A store the full pool refuses fails the step.
        let extra = Tensor::ones([1], &Device::cpu());
        assert!(cache
            .offload_state(&extra, OffloadClass::Gradient)
            .is_none());
        assert!(
            cache.has_error(),
            "FailStep keeps the error for the step end"
        );
        listener.grad_ready(&ps[1]);
        let exposed = engine.reduce_grads(&clock, &trace);
        assert_eq!(exposed, 0.0, "nothing runs once tainted");
        assert_eq!(weight(&ps[0]), vec![0.5], "p0's update was still pending");
        assert_eq!(weight(&ps[1]), vec![0.5], "p1 was reported after the fault");
        engine.abort();
        let slots = engine.slots.lock();
        assert!(slots.pending.is_empty());
        assert!(
            slots.params[0].state.is_none(),
            "the pending slot was released"
        );
        assert!(
            slots.params[1].state.is_some(),
            "p1's state was never loaded"
        );
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
        let cache = TensorCache::with_tiers(
            config,
            Arc::new(ssdtrain::TierStack::single(pool)),
            io,
            mem.clone(),
        );
        let ps = params(2);
        let classes = OffloadClassSet::default().with(OffloadClass::OptimizerState, true);
        let engine = engine(&ps, 0.5, classes, true, Some(&cache));
        let listener = engine
            .grad_listener()
            .expect("the in-backward mode listens");
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
            for p in &ps {
                p.accumulate_grad(Tensor::ones([1], &Device::cpu()));
            }
            announce();
        };
        let states = || {
            let slots = engine.slots.lock();
            slots.params.iter().map(|p| p.state).collect::<Vec<_>>()
        };
        engine.reduce_grads(&clock, &trace); // step 1
        next_step();
        listener.grad_ready(&ps[0]);
        let slots_before = states();
        let progress: Vec<_> = engine
            .slots
            .lock()
            .params
            .iter()
            .map(|p| p.progress)
            .collect();
        assert_eq!(progress, [Progress::Started, Progress::ReadAhead]);
        let extra = Tensor::ones([1], &Device::cpu());
        assert!(cache
            .offload_state(&extra, OffloadClass::Gradient)
            .is_none());
        assert!(cache.has_error(), "the full pool tainted the step");
        assert_eq!(engine.reduce_grads(&clock, &trace), 0.0);
        engine.abort();
        assert!(states().iter().all(Option::is_none), "both released");
        assert_eq!(engine.slots.lock().order, [0, 1], "step 1's order is kept");
        for slot in slots_before.into_iter().flatten() {
            assert_eq!(cache.prefetch_state(slot), None, "no record left loading");
        }
        for p in &ps {
            p.zero_grad();
        }
        assert_eq!((weight(&ps[0]), weight(&ps[1])), (vec![0.5], vec![0.5]));
        // Step 3 runs clean, from the momentum the aborted reads restored:
        // v = 0.5 · 1 + 1 = 1.5, w = 0.5 − 0.5 · 1.5.
        next_step();
        listener.grad_ready(&ps[0]);
        listener.grad_ready(&ps[1]);
        let exposed = engine.reduce_grads(&clock, &trace);
        assert!(!cache.has_error());
        assert_eq!(exposed, 0.0, "both states were resident");
        assert_eq!((weight(&ps[0]), weight(&ps[1])), (vec![-0.25], vec![-0.25]));
        assert!(states().iter().all(Option::is_some), "re-offloaded");
    }

    #[test]
    fn the_inline_update_loads_by_stage_then_class_and_stores_in_parameter_order() {
        // Four parameters of 4, 8, 12 and 16 bytes over two stages, with
        // gradients and momentum offloaded: the bytes of each `load` span
        // and of each velocity's `store.enqueue` show the I/O order.
        let clock = SimClock::new();
        let trace = TraceSink::enabled();
        let cache = small_cache(&clock, 1 << 20, RecoveryPolicy::KeepResident);
        cache.set_trace(trace.clone());
        let d = Device::cpu();
        let params: Vec<Var> = (1..=4)
            .map(|n| Var::new(format!("p{n}"), Tensor::ones([n], &d)))
            .collect();
        let opt = Sgd::with_momentum(params.clone(), 0.5, 0.5);
        let classes = (OffloadClassSet::default().with(OffloadClass::Gradient, true))
            .with(OffloadClass::OptimizerState, true);
        let engine = OptEngine::new(classes, false, opt, 0..2, Some(&cache));
        let engine = Arc::new(engine);
        let listener = engine.grad_listener().expect("gradient class with a cache");
        for _ in 0..2 {
            trace.clear();
            cache.begin_step();
            for p in &params {
                p.accumulate_grad(Tensor::ones(*p.tensor().shape(), &d));
                listener.grad_ready(p);
            }
            engine.reduce_grads(&clock, &trace);
            engine.end_of_step(&clock, &trace);
        }
        // The second step: each stage loads its gradients, then its
        // states, and stores its fresh velocities before the next stage.
        let momentum = ArgValue::from(OffloadClass::OptimizerState.label());
        let io: Vec<(&str, u64)> = trace
            .events()
            .iter()
            .filter_map(|e| match e.name.as_str() {
                "load" => Some(("load", e.bytes()?)),
                "store.enqueue" if e.args.contains(&("class", momentum.clone())) => {
                    Some(("store", e.bytes()?))
                }
                _ => None,
            })
            .collect();
        let (load, store) = ("load", "store");
        assert_eq!(
            io,
            [
                (load, 4),
                (load, 8),
                (load, 4),
                (load, 8),
                (store, 4),
                (store, 8),
                (load, 12),
                (load, 16),
                (load, 12),
                (load, 16),
                (store, 12),
                (store, 16),
            ]
        );
    }

    #[test]
    fn the_sweep_retries_a_gradient_refused_mid_backward() {
        // A one-gradient host pool that another slot holds while backward
        // streams: the listener's stash is refused, and the sweep — once
        // the pool has room again — stores it, counted once.
        let clock = SimClock::new();
        let trace = TraceSink::disabled();
        let cache = small_cache(&clock, 4, RecoveryPolicy::KeepResident);
        let ps = params(1); // one 4-byte gradient
        let classes = OffloadClassSet::default().with(OffloadClass::Gradient, true);
        let engine = engine(&ps, 0.0, classes, false, Some(&cache));
        let held = Tensor::ones([1], &Device::cpu());
        let blocker = cache.offload_state(&held, OffloadClass::OptimizerState);
        let listener = engine.grad_listener().expect("gradient class with a cache");
        listener.grad_ready(&ps[0]);
        let parked = engine.slots.lock().params[0].grad;
        assert_eq!(parked, None, "the full pool refused the streamed stash");
        cache.release_state(blocker.expect("the blocker fits the pool"));
        engine.reduce_grads(&clock, &trace);
        let parked = engine.slots.lock().params[0].grad;
        assert!(parked.is_some(), "the sweep retried it");
        let lane = cache.stats().class(OffloadClass::Gradient).cloned();
        assert_eq!(lane.map(|c| c.offloaded_bytes), Some(4));
    }
}
