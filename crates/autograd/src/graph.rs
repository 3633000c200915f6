//! The define-by-run tape and its backward engine.

use crate::hooks::{Packed, SavedTensorHooks};
use crate::observer::{ExecObserver, OpCost, Phase};
use crate::scope::{ModuleHooks, ScopeFrame};
use crate::value::{Source, Value};
use crate::var::Var;
use ssdtrain_tensor::{Device, MemClass, Prng, Spares, Tensor};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::{Entry, HashMap};
use std::ops::Range;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A differentiable operator recorded on the tape.
///
/// `saved` arrives in the order the forward pass passed tensors to
/// [`Graph::record`]; grads arrive one per output. An op is `Any` so the
/// graph can hand its box back to the next record of the same type.
pub(crate) trait Op: Any {
    /// Stable kernel name (appears in observer callbacks and profiles).
    fn name(&self) -> &'static str;

    /// Computes input gradients from output gradients and returns the
    /// modelled cost of the backward kernel(s).
    ///
    /// The gradient of input `i` goes into `grads_in[i]`: one slot per
    /// input, each `None` on entry, left `None` for an input that needs
    /// no gradient. The engine lends the slots and reuses them across
    /// nodes. The output gradients in `grads_out` die with the node, so
    /// a backward may consume one (take its buffer for an input
    /// gradient, see `Tensor::take_buffer`); the husk it leaves in the
    /// slot is dropped where the gradient would have been.
    fn backward(
        &self,
        graph: &Graph,
        saved: &[Tensor],
        grads_out: &mut [Option<Tensor>],
        grads_in: &mut [Option<Tensor>],
    ) -> OpCost;
}

/// What a node produces, as [`Graph::record`] takes it: one tensor (every
/// operator but a checkpointed segment) or a `Vec` of them.
pub(crate) trait Outputs {
    /// What `record` hands back: a [`Value`] per output tensor.
    type Values;
    /// Number of output tensors.
    fn count(&self) -> usize;
    /// Wraps output `i` with `source(i)`.
    fn into_values(self, source: impl Fn(usize) -> Source) -> Self::Values;
}

impl Outputs for Tensor {
    type Values = Value;
    fn count(&self) -> usize {
        1
    }
    fn into_values(self, source: impl Fn(usize) -> Source) -> Value {
        Value::with_source(self, source(0))
    }
}

impl Outputs for Vec<Tensor> {
    type Values = Vec<Value>;
    fn count(&self) -> usize {
        self.len()
    }
    fn into_values(self, source: impl Fn(usize) -> Source) -> Vec<Value> {
        self.into_iter()
            .enumerate()
            .map(|(i, t)| Value::with_source(t, source(i)))
            .collect()
    }
}

/// One recorded operator. It owns ranges into the tape's flat buffers,
/// not buffers of its own.
struct Node {
    op: Box<dyn Op>,
    inputs: Range<usize>,
    saved: Range<usize>,
    n_outputs: usize,
    scope: Option<Arc<ScopeFrame>>,
}

/// The recorded nodes and the flat buffers their ranges index.
#[derive(Default)]
struct Tape {
    nodes: Vec<Node>,
    /// Every node's input sources, node after node.
    inputs: Vec<Source>,
    /// Every node's packed saved tensors; backward takes a node's slots,
    /// so what they reference dies with the node.
    saved: Vec<Option<Packed>>,
    /// Backward's buffers, taken for a walk and handed back after it.
    scratch: BackwardScratch,
    /// The scope frames opened since the last reset, oldest first.
    frames: Vec<Arc<ScopeFrame>>,
    /// Frames the last reset retired, for `enter_module` to rewrite.
    spare_frames: Spares<Arc<ScopeFrame>>,
    /// Retired op boxes, for `record` to overwrite.
    spare_ops: OpPool,
}

impl Tape {
    /// Empties the tape, keeping its buffers, and retires what the step
    /// built: each node's op box, then the frames no one else holds,
    /// newest first, so a child lets go of its parent before the parent
    /// is tried. A frame still held (a scope left open) is dropped.
    fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            self.spare_ops.retire(node.op);
        }
        self.inputs.clear();
        self.saved.clear();
        while let Some(mut frame) = self.frames.pop() {
            if let Some(f) = Arc::get_mut(&mut frame) {
                f.parent = None;
                self.spare_frames.give(frame);
            }
        }
    }
}

/// Retired op boxes by type. Only a sized type that needs no drop is
/// pooled, so a retired op keeps no tensor or closure alive; any other op
/// (a checkpoint's, which owns its segment) is boxed fresh and dropped
/// when retired. A zero-sized op's box allocates nothing to begin with.
#[derive(Default)]
struct OpPool(Vec<(TypeId, Spares<Box<dyn Any>>)>);

impl OpPool {
    /// `op` in a box: a retired one of its type, overwritten, if any.
    fn boxed<T: Op>(&mut self, op: T) -> Box<dyn Op> {
        if std::mem::size_of::<T>() == 0 || std::mem::needs_drop::<T>() {
            return Box::new(op);
        }
        let ty = TypeId::of::<T>();
        let i = self
            .0
            .iter()
            .position(|(t, _)| *t == ty)
            .unwrap_or_else(|| {
                self.0.push((ty, Spares::new()));
                self.0.len() - 1
            });
        if let Some(Ok(mut b)) = self.0[i].1.take().map(|b| b.downcast::<T>()) {
            *b = op;
            return b;
        }
        Box::new(op)
    }

    /// Takes back `op`'s box if its type is pooled, else drops it.
    fn retire(&mut self, op: Box<dyn Op>) {
        let op: Box<dyn Any> = op;
        let ty = (*op).type_id();
        if let Some((_, spares)) = self.0.iter_mut().find(|(t, _)| *t == ty) {
            spares.give(op);
        }
    }
}

struct GraphInner {
    tape: RefCell<Tape>,
    saved_hooks: RefCell<Option<Arc<dyn SavedTensorHooks>>>,
    module_hooks: RefCell<Vec<Arc<dyn ModuleHooks>>>,
    /// Where in `module_hooks` the gradient listener sits, if one is set.
    listener: Cell<Option<usize>>,
    observer: RefCell<Option<Arc<dyn ExecObserver>>>,
    rng: RefCell<Prng>,
    phase: Cell<Phase>,
    grad_enabled: Cell<bool>,
    scope_top: RefCell<Option<Arc<ScopeFrame>>>,
    seq: Rc<Cell<u64>>,
    micro_batch: Cell<usize>,
    device: Device,
    /// Generation of the tape leaf uses are counted on (fresh per tape;
    /// a recompute child shares its parent's).
    tape_gen: Cell<u64>,
    /// A recompute child: its records replay uses the parent already
    /// counted when the checkpointed segment first ran.
    replay: bool,
}

/// A backward walk's buffers, empty between walks: pending gradients by
/// (node, output), and a node's saved tensors, output gradients and
/// input gradients.
#[derive(Default)]
struct BackwardScratch {
    grads: HashMap<(usize, usize), Tensor>,
    saved: Vec<Tensor>,
    grads_out: Vec<Option<Tensor>>,
    grads_in: Vec<Option<Tensor>>,
}

/// A fresh tape generation (never 0, the never-counted stamp).
fn next_tape_gen() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A computation graph: records operators during forward and replays them
/// in reverse for backward, firing module hooks and resolving saved
/// tensors through the pack/unpack hooks.
///
/// `Graph` is a cheap-clone handle; it is deliberately single-threaded
/// (`!Send`) like a PyTorch autograd engine instance, while the hooks it
/// calls are shared thread-safe objects.
#[derive(Clone)]
pub struct Graph {
    inner: Rc<GraphInner>,
}

impl Graph {
    /// Creates a graph for `device` with a deterministic RNG seed.
    pub fn new(device: &Device, seed: u64) -> Graph {
        Graph {
            inner: Rc::new(GraphInner {
                tape: RefCell::default(),
                saved_hooks: RefCell::new(None),
                module_hooks: RefCell::new(Vec::new()),
                listener: Cell::new(None),
                observer: RefCell::new(None),
                rng: RefCell::new(Prng::seed_from_u64(seed)),
                phase: Cell::new(Phase::Forward),
                grad_enabled: Cell::new(true),
                scope_top: RefCell::new(None),
                seq: Rc::new(Cell::new(0)),
                micro_batch: Cell::new(0),
                device: device.clone(),
                tape_gen: Cell::new(next_tape_gen()),
                replay: false,
            }),
        }
    }

    /// The device tensors of this graph live on.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    // ------------------------------------------------------------------
    // Configuration
    // ------------------------------------------------------------------

    /// Installs saved-tensor pack/unpack hooks (replaces any previous).
    pub fn set_saved_tensor_hooks(&self, hooks: Arc<dyn SavedTensorHooks>) {
        *self.inner.saved_hooks.borrow_mut() = Some(hooks);
    }

    /// Registers a module-hooks listener (several may be registered).
    pub fn add_module_hooks(&self, hooks: Arc<dyn ModuleHooks>) {
        self.inner.module_hooks.borrow_mut().push(hooks);
    }

    /// Sets the gradient listener, or clears it with `None`: module hooks
    /// that also take the [`ModuleHooks::grad_ready`] reports of every
    /// backward until it is cleared. The graph has one such slot, so a
    /// listener replaces the previous one; it fires after the hooks added
    /// before it.
    pub fn set_grad_listener(&self, listener: Option<Arc<dyn ModuleHooks>>) {
        let mut hooks = self.inner.module_hooks.borrow_mut();
        if let Some(i) = self.inner.listener.take() {
            hooks.remove(i);
        }
        if let Some(listener) = listener {
            self.inner.listener.set(Some(hooks.len()));
            hooks.push(listener);
        }
    }

    /// Installs the execution observer (replaces any previous).
    pub fn set_observer(&self, obs: Arc<dyn ExecObserver>) {
        *self.inner.observer.borrow_mut() = Some(obs);
    }

    // ------------------------------------------------------------------
    // Phase, RNG, micro-batches
    // ------------------------------------------------------------------

    /// Current execution phase.
    pub(crate) fn phase(&self) -> Phase {
        self.inner.phase.get()
    }

    /// Switches phase and notifies module hooks.
    pub fn set_phase(&self, phase: Phase) {
        self.inner.phase.set(phase);
        for h in self.inner.module_hooks.borrow().iter() {
            h.phase_changed(phase);
        }
    }

    /// Snapshot of the RNG (used by checkpointing to replay dropout).
    pub(crate) fn rng_snapshot(&self) -> Prng {
        self.inner.rng.borrow().clone()
    }

    /// Replaces the RNG state.
    pub fn set_rng(&self, rng: Prng) {
        *self.inner.rng.borrow_mut() = rng;
    }

    /// Runs `f` with mutable access to the graph RNG.
    pub(crate) fn with_rng<R>(&self, f: impl FnOnce(&mut Prng) -> R) -> R {
        f(&mut self.inner.rng.borrow_mut())
    }

    /// Sets the micro-batch index for subsequent scopes.
    pub fn set_micro_batch(&self, mb: usize) {
        self.inner.micro_batch.set(mb);
    }

    /// Whether operators currently record nodes and save tensors.
    pub(crate) fn grad_enabled(&self) -> bool {
        self.inner.grad_enabled.get()
    }

    /// Runs `f` with gradient recording disabled (checkpoint forward).
    pub(crate) fn with_grad_disabled<R>(&self, f: impl FnOnce() -> R) -> R {
        let prev = self.inner.grad_enabled.replace(false);
        let r = f();
        self.inner.grad_enabled.set(prev);
        r
    }

    /// Number of nodes currently on the tape.
    pub fn tape_len(&self) -> usize {
        self.inner.tape.borrow().nodes.len()
    }

    /// Clears the tape for the next step; hooks, observer, RNG and scope
    /// configuration are kept, and so are the tape's buffers, the step's
    /// scope frames and the boxes of its ops that carry plain state, so a
    /// step shaped like the last one records without an allocator call of
    /// the graph's own.
    pub fn reset_tape(&self) {
        self.inner.tape.borrow_mut().clear();
        self.inner.tape_gen.set(next_tape_gen());
    }

    // ------------------------------------------------------------------
    // Values
    // ------------------------------------------------------------------

    /// Wraps a tensor as a non-differentiable input.
    pub fn constant(&self, t: Tensor) -> Value {
        Value::with_source(t, Source::Constant)
    }

    /// Wraps a parameter as a differentiable leaf.
    pub fn leaf(&self, var: &Var) -> Value {
        Value::with_source(var.tensor(), Source::Leaf(var.clone()))
    }

    /// Wraps a tensor as positional external input `i` of a checkpointed
    /// segment.
    pub fn external(&self, i: usize, t: Tensor) -> Value {
        Value::with_source(t, Source::External(i))
    }

    // ------------------------------------------------------------------
    // Module scopes
    // ------------------------------------------------------------------

    /// Enters a module scope named `name` (nested under the current one).
    ///
    /// The scope's frame is one the last [`reset_tape`](Graph::reset_tape)
    /// retired, its path rewritten in place, when there is one: a step
    /// that opens the scopes the last one did allocates none.
    pub(crate) fn enter_module(&self, name: &str) {
        let parent = self.inner.scope_top.borrow().clone();
        let seq = self.inner.seq.get() + 1;
        self.inner.seq.set(seq);
        let spare = self.inner.tape.borrow_mut().spare_frames.take();
        let mut frame = spare.unwrap_or_default();
        // A spare frame is held nowhere else, so this clones nothing.
        let f = Arc::make_mut(&mut frame);
        let path = &mut f.info.path;
        path.clear();
        if let Some(p) = &parent {
            path.push_str(&p.info.path);
            path.push('/');
        }
        path.push_str(name);
        f.info.seq = seq;
        f.info.micro_batch = self.inner.micro_batch.get();
        f.parent = parent;
        for h in self.inner.module_hooks.borrow().iter() {
            h.forward_pre(&frame.info);
        }
        self.inner.tape.borrow_mut().frames.push(frame.clone());
        *self.inner.scope_top.borrow_mut() = Some(frame);
    }

    /// Exits the innermost module scope.
    ///
    /// # Panics
    /// Panics if no scope is open.
    #[expect(
        clippy::expect_used,
        reason = "documented contract: `scoped` pairs every enter with its exit"
    )]
    pub(crate) fn exit_module(&self) {
        let top = self
            .inner
            .scope_top
            .borrow()
            .clone()
            .expect("exit_module with no open scope");
        for h in self.inner.module_hooks.borrow().iter() {
            h.forward_post(&top.info);
        }
        *self.inner.scope_top.borrow_mut() = top.parent.clone();
    }

    /// Runs `f` inside a module scope.
    pub fn scoped<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter_module(name);
        let r = f();
        self.exit_module();
        r
    }

    // ------------------------------------------------------------------
    // Recording
    // ------------------------------------------------------------------

    /// Records an executed operator.
    ///
    /// Order of effects mirrors PyTorch: the observer sees the op (clock
    /// advances to the op's completion), *then* saved tensors are packed
    /// (offload jobs start at op completion, Figure 4 ①). With gradients
    /// disabled nothing is recorded or packed and outputs are constants.
    ///
    /// Either way each leaf input counts one use on the tape — a
    /// grad-disabled use is a checkpointed segment's, which its recompute
    /// child replays and retires in backward (see
    /// [`Graph::backward_from`]).
    ///
    /// The node's input sources and packed tensors go into the tape's flat
    /// buffers, and `op` into the box of a retired op of its type when it
    /// carries plain state (see [`reset_tape`](Graph::reset_tape)), so
    /// recording allocates nothing of its own on a warm graph.
    pub(crate) fn record<O: Outputs, T: Op>(
        &self,
        op: T,
        inputs: &[&Value],
        outputs: O,
        to_save: impl IntoIterator<Item = Tensor>,
        cost: OpCost,
    ) -> O::Values {
        let name = op.name();
        if let Some(obs) = self.inner.observer.borrow().as_ref() {
            obs.on_op(name, &cost, self.phase());
        }
        if !self.inner.replay {
            let tape = self.inner.tape_gen.get();
            for v in inputs {
                if let Source::Leaf(var) = v.source() {
                    var.note_use(tape);
                }
            }
        }
        if !self.grad_enabled() {
            return outputs.into_values(|_| Source::Constant);
        }
        let hooks = self.inner.saved_hooks.borrow();
        let mut tape = self.inner.tape.borrow_mut();
        let saved_start = tape.saved.len();
        tape.saved.extend(to_save.into_iter().map(|t| {
            Some(match hooks.as_ref() {
                Some(h) => h.pack(&t),
                None => Packed::Tensor(t),
            })
        }));
        let inputs_start = tape.inputs.len();
        tape.inputs
            .extend(inputs.iter().map(|v| v.source().clone()));
        let node = Node {
            op: tape.spare_ops.boxed(op),
            inputs: inputs_start..tape.inputs.len(),
            saved: saved_start..tape.saved.len(),
            n_outputs: outputs.count(),
            scope: self.inner.scope_top.borrow().clone(),
        };
        let idx = tape.nodes.len();
        tape.nodes.push(node);
        outputs.into_values(|out| Source::Node { node: idx, out })
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Backpropagates from a scalar loss, accumulating into parameter
    /// gradients. Sets the phase to [`Phase::Backward`].
    ///
    /// # Panics
    /// Panics if `loss` is not scalar-shaped (one element).
    pub fn backward(&self, loss: &Value) {
        assert_eq!(loss.tensor().numel(), 1, "backward needs a scalar loss");
        let dev = self.inner.device.clone();
        let seed = dev.with_class(MemClass::Workspace, || {
            if loss.tensor().has_data() {
                Tensor::ones(*loss.tensor().shape(), &dev)
            } else {
                Tensor::symbolic(*loss.tensor().shape(), &dev)
            }
        });
        self.set_phase(Phase::Backward);
        self.backward_from(std::slice::from_ref(loss), [Some(seed)], &mut []);
    }

    /// Backpropagates given explicit output gradients (one per output;
    /// `None` sends nothing back from that output) and accumulates the
    /// gradient of input `i` (made by [`Graph::external`]) into
    /// `ext_grads[i]`.
    ///
    /// Saved tensors and intermediate gradients are dropped as soon as
    /// they are consumed, mirroring PyTorch's memory behaviour during
    /// backward. A gradient reaching a leaf is moved into it
    /// ([`Var::accumulate_grad`]), and a second contribution to a pending
    /// gradient is summed in place only into a buffer that gradient owns
    /// alone ([`Tensor::owns_storage`]). The walk allocates nothing per
    /// node: a node's input sources are read from the tape by range, its
    /// gradients are written into slots reused across nodes, scope
    /// transitions follow the scope frames' parent links, and a node's op
    /// box goes back to the graph once its backward ran. Those slots and
    /// the pending-gradient map stay on the tape from walk to walk.
    ///
    /// When the graph has a [gradient listener](Graph::set_grad_listener),
    /// every node the walk reaches — run, or skipped for receiving no
    /// gradient — retires one use per leaf input once its gradients have
    /// been accumulated, and the leaf whose last recorded use that was is
    /// reported through [`ModuleHooks::grad_ready`], once. A leaf used
    /// inside a checkpointed segment counted that use when the segment
    /// first ran (grad disabled) and retires it in the recompute child's
    /// backward, so it is reported there — after the recompute — only if
    /// no use on the outer tape is still pending, and otherwise by the
    /// outer node that retires its last use. Uses the walk never retires
    /// keep a leaf unreported: nodes past the loss, a checkpoint node that
    /// receives no gradient (its segment is never recomputed), and a leaf
    /// passed *as* a segment input, which the recompute sees as an
    /// external. Reporting is never early; a leaf it misses is the
    /// listener's to sweep. With no listener the walk does no extra work.
    /// A leaf counts uses for one tape at a time, so no other tape may
    /// record it between this tape's forward and its backward.
    ///
    /// # Panics
    /// Panics if `grad_outputs` does not yield one entry per output, or if
    /// a saved value was packed opaque and the graph has no unpack hooks.
    #[expect(
        clippy::expect_used,
        clippy::panic,
        reason = "documented contract: a value packed opaque is unpacked by the same hooks"
    )]
    pub fn backward_from(
        &self,
        outputs: &[Value],
        grad_outputs: impl IntoIterator<Item = Option<Tensor>>,
        ext_grads: &mut [Option<Tensor>],
    ) {
        // A checkpoint's recompute walks a child graph, with its own tape.
        let mut scratch = std::mem::take(&mut self.inner.tape.borrow_mut().scratch);
        let BackwardScratch {
            grads,
            saved,
            grads_out,
            grads_in,
        } = &mut scratch;
        let mut start = None;

        let sink = |source: &Source,
                    g: Tensor,
                    grads: &mut HashMap<(usize, usize), Tensor>,
                    ext: &mut [Option<Tensor>]| {
            match source {
                Source::Node { node, out } => match grads.entry((*node, *out)) {
                    Entry::Occupied(mut sum) => accumulate_pending(sum.get_mut(), &g),
                    Entry::Vacant(slot) => {
                        slot.insert(g);
                    }
                },
                Source::Leaf(var) => var.accumulate_grad(g),
                Source::External(i) => match &mut ext[*i] {
                    Some(sum) => accumulate_pending(sum, &g),
                    None => ext[*i] = Some(g),
                },
                Source::Constant => {}
            }
        };

        let mut grad_outputs = grad_outputs.into_iter();
        for v in outputs {
            let Some(g) = grad_outputs.next().expect("one grad per output") else {
                continue;
            };
            if let Source::Node { node, .. } = v.source() {
                start = Some(start.map_or(*node, |s: usize| s.max(*node)));
            }
            sink(v.source(), g, grads, ext_grads);
        }
        assert!(grad_outputs.next().is_none(), "one grad per output");

        let Some(start) = start else {
            // Loss does not depend on any recorded node (e.g. pure leaf).
            self.inner.tape.borrow_mut().scratch = scratch;
            return;
        };

        let hooks = self.inner.saved_hooks.borrow().clone();
        let observer = self.inner.observer.borrow().clone();
        let listening = self.inner.listener.get().is_some();
        // The innermost open scope; the rest of the stack hangs off its
        // parent links.
        let mut open: Option<Arc<ScopeFrame>> = None;

        for idx in (0..=start).rev() {
            let (n_outputs, inputs, saved_slots, scope) = {
                let tape = self.inner.tape.borrow();
                let node = &tape.nodes[idx];
                (
                    node.n_outputs,
                    node.inputs.clone(),
                    node.saved.clone(),
                    node.scope.clone(),
                )
            };
            if !(0..n_outputs).any(|o| grads.contains_key(&(idx, o))) {
                if listening {
                    self.retire_leaf_uses(&self.inner.tape.borrow().inputs[inputs]);
                }
                continue;
            }
            // Collect this node's output grads (consuming them).
            grads_out.extend((0..n_outputs).map(|o| grads.remove(&(idx, o))));

            // Fire backward module hooks for the scope transition.
            ScopeFrame::backward_transition(
                open.as_deref(),
                scope.as_deref(),
                &self.inner.module_hooks.borrow(),
            );
            open = scope;

            // Resolve saved tensors through the unpack hook, then consume the
            // packed slots so their references die with this node.
            let op = {
                let mut tape = self.inner.tape.borrow_mut();
                let slots = &mut tape.saved[saved_slots];
                saved.extend(slots.iter().flatten().map(|p| match &hooks {
                    Some(h) => h.unpack(p),
                    None => match p {
                        Packed::Tensor(t) => t.clone(),
                        Packed::Opaque(id) => {
                            panic!("opaque saved value {id} without unpack hooks")
                        }
                    },
                }));
                slots.iter_mut().for_each(|slot| *slot = None);
                // Swap the op out so we can call it without holding the
                // tape borrow (checkpoint backward re-enters the graph).
                std::mem::replace(&mut tape.nodes[idx].op, Box::new(TombstoneOp))
            };

            grads_in.resize(inputs.len(), None);
            let dev = self.inner.device.clone();
            let cost = dev.with_class(MemClass::Workspace, || {
                op.backward(self, saved, grads_out, grads_in)
            });
            saved.clear();
            grads_out.clear();

            if let Some(obs) = &observer {
                obs.on_op(op.name(), &cost, Phase::Backward);
            }
            self.inner.tape.borrow_mut().spare_ops.retire(op);

            let tape = self.inner.tape.borrow();
            let sources = &tape.inputs[inputs];
            for (source, g) in sources.iter().zip(grads_in.drain(..)) {
                if let Some(g) = g {
                    sink(source, g, grads, ext_grads);
                }
            }
            if listening {
                self.retire_leaf_uses(sources);
            }
        }

        // Close whatever scopes remain open.
        ScopeFrame::backward_transition(open.as_deref(), None, &self.inner.module_hooks.borrow());
        self.inner.tape.borrow_mut().scratch = scratch;
    }

    /// Retires one use per leaf in `inputs` (a node backward just finished
    /// with) and reports each leaf whose last use that was to the
    /// gradient listener.
    fn retire_leaf_uses(&self, inputs: &[Source]) {
        let tape = self.inner.tape_gen.get();
        for source in inputs {
            if let Source::Leaf(var) = source {
                if var.retire_use(tape) {
                    let hooks = self.inner.module_hooks.borrow();
                    if let Some(h) = self.inner.listener.get().and_then(|i| hooks.get(i)) {
                        h.grad_ready(var);
                    }
                }
            }
        }
    }

    /// Creates a child graph for checkpoint recomputation: shares hooks,
    /// observer, module hooks and gradient listener, scope-sequence
    /// counter, device and the tape generation leaf uses are counted on;
    /// fresh tape; phase [`Phase::Recompute`].
    pub(crate) fn recompute_child(&self) -> Graph {
        let child = Graph {
            inner: Rc::new(GraphInner {
                tape: RefCell::default(),
                saved_hooks: RefCell::new(self.inner.saved_hooks.borrow().clone()),
                module_hooks: RefCell::new(self.inner.module_hooks.borrow().clone()),
                listener: Cell::new(self.inner.listener.get()),
                observer: RefCell::new(self.inner.observer.borrow().clone()),
                rng: RefCell::new(self.inner.rng.borrow().clone()),
                phase: Cell::new(Phase::Recompute),
                grad_enabled: Cell::new(true),
                scope_top: RefCell::new(None),
                seq: self.inner.seq.clone(),
                micro_batch: Cell::new(self.inner.micro_batch.get()),
                device: self.inner.device.clone(),
                tape_gen: Cell::new(self.inner.tape_gen.get()),
                replay: true,
            }),
        };
        for h in child.inner.module_hooks.borrow().iter() {
            h.phase_changed(Phase::Recompute);
        }
        child
    }
}

/// Adds `g` into the pending gradient `sum`: in place when `sum` owns its
/// buffer ([`Tensor::owns_storage`]), and otherwise into a fresh workspace
/// tensor, because another pending gradient may share that buffer (`add`
/// hands one `dy` to both operands).
fn accumulate_pending(sum: &mut Tensor, g: &Tensor) {
    if sum.owns_storage() {
        sum.accumulate(g);
    } else {
        *sum = sum.device().with_class(MemClass::Workspace, || sum.add(g));
    }
}

/// Placeholder op left on the tape after a node's real op was consumed by
/// backward; reaching it again means the tape was replayed, which this
/// engine does not support (no `retain_graph`).
struct TombstoneOp;

impl Op for TombstoneOp {
    fn name(&self) -> &'static str {
        "tombstone"
    }
    #[expect(
        clippy::panic,
        reason = "replaying a tape is a caller bug (no `retain_graph`)"
    )]
    fn backward(
        &self,
        _graph: &Graph,
        _saved: &[Tensor],
        _grads_out: &mut [Option<Tensor>],
        _grads_in: &mut [Option<Tensor>],
    ) -> OpCost {
        panic!("backward reached a node twice (retain_graph is unsupported)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::scope::ScopeInfo;
    use parking_lot::Mutex;

    fn dev() -> Device {
        Device::cpu()
    }

    #[test]
    fn linear_chain_gradients() {
        let d = dev();
        let g = Graph::new(&d, 1);
        // y = (x*w) summed; dy/dw = x
        let w = Var::new("w", Tensor::from_vec(vec![2.0, 3.0], [2], &d));
        let x = g.constant(Tensor::from_vec(vec![5.0, 7.0], [2], &d));
        let wx = ops::mul(&g, &x, &g.leaf(&w));
        let loss = ops::sum_all(&g, &wx);
        g.backward(&loss);
        assert_eq!(w.grad().unwrap().to_vec(), vec![5.0, 7.0]);
    }

    #[test]
    fn grad_accumulates_over_fanout() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let w = Var::new("w", Tensor::from_vec(vec![1.0], [1], &d));
        let lw = g.leaf(&w);
        let a = ops::scale(&g, &lw, 2.0);
        let b = ops::scale(&g, &lw, 3.0);
        let s = ops::add(&g, a, b);
        let loss = ops::sum_all(&g, &s);
        g.backward(&loss);
        assert_eq!(w.grad().unwrap().to_vec(), vec![5.0]);
    }

    /// `5x + 4x²` as `a + b + a·a` with `a = 2x`, `b = 3x`, the product
    /// recorded first: the last `add` hands one `dy` to both operands and
    /// the inner `add` hands it on to `a` and `b`, so three pending
    /// gradients share one buffer. Summing the product's contribution to
    /// `a` into that buffer in place also adds it to `b`'s, and
    /// `dx = [25, 45]` instead of `5 + 8x`.
    fn shared_pending_gradient(g: &Graph, x: &Value) -> Value {
        let a = ops::scale(g, x, 2.0);
        let b = ops::scale(g, x, 3.0);
        let aa = ops::mul(g, &a, &a);
        ops::add(g, ops::add(g, a, b), aa)
    }

    #[test]
    fn a_shared_pending_gradient_is_not_summed_in_place() {
        let d = dev();
        let x = Var::new("x", Tensor::from_vec(vec![1.0, 2.0], [2], &d));
        let g = Graph::new(&d, 1);
        let f = shared_pending_gradient(&g, &g.leaf(&x));
        g.backward(&ops::sum_all(&g, &f));
        assert_eq!(x.grad().unwrap().to_vec(), vec![13.0, 21.0]);

        // The same inside a checkpointed segment: its recompute tape
        // sums the segment's gradients by the same rule.
        let xc = Var::new("x", Tensor::from_vec(vec![1.0, 2.0], [2], &d));
        let g = Graph::new(&d, 1);
        let f = crate::checkpoint::checkpoint(
            &g,
            Rc::new(|cg: &Graph, ins: &[Value]| vec![shared_pending_gradient(cg, &ins[0])]),
            &[g.leaf(&xc)],
        );
        g.backward(&ops::sum_all(&g, &f[0]));
        assert_eq!(xc.grad().unwrap().to_vec(), vec![13.0, 21.0]);
    }

    #[test]
    fn backward_without_nodes_is_noop() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let w = Var::new("w", Tensor::from_vec(vec![1.0], [1], &d));
        let loss = g.leaf(&w);
        g.backward(&loss);
        assert_eq!(w.grad().unwrap().to_vec(), vec![1.0]);
    }

    #[test]
    fn grad_disabled_records_nothing() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let x = g.constant(Tensor::ones([2], &d));
        let y = g.with_grad_disabled(|| ops::scale(&g, &x, 2.0));
        assert!(matches!(y.source(), Source::Constant));
        assert_eq!(g.tape_len(), 0);
    }

    #[derive(Default)]
    struct EventLog(Mutex<Vec<String>>);

    impl ModuleHooks for EventLog {
        fn forward_pre(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("f+{}", s.path));
        }
        fn forward_post(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("f-{}", s.path));
        }
        fn backward_pre(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("b+{}", s.path));
        }
        fn backward_post(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("b-{}", s.path));
        }
    }

    #[test]
    fn module_hooks_fire_in_both_directions() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let log = Arc::new(EventLog::default());
        g.add_module_hooks(log.clone());
        let w1 = Var::new("w1", Tensor::from_vec(vec![2.0], [1], &d));
        let w2 = Var::new("w2", Tensor::from_vec(vec![3.0], [1], &d));
        let x = g.constant(Tensor::ones([1], &d));
        let h1 = g.scoped("l0", || ops::mul(&g, &x, &g.leaf(&w1)));
        let h2 = g.scoped("l1", || ops::mul(&g, &h1, &g.leaf(&w2)));
        let loss = ops::sum_all(&g, &h2);
        g.backward(&loss);
        let events = log.0.lock().clone();
        // Forward order l0 then l1; backward enters l1 first, then l0.
        let fwd: Vec<_> = events.iter().filter(|e| e.starts_with('f')).collect();
        assert_eq!(fwd, ["f+l0", "f-l0", "f+l1", "f-l1"]);
        let bwd: Vec<_> = events.iter().filter(|e| e.starts_with('b')).collect();
        assert_eq!(bwd, ["b+l1", "b-l1", "b+l0", "b-l0"]);
        assert_eq!(w1.grad().unwrap().to_vec(), vec![3.0]);
        assert_eq!(w2.grad().unwrap().to_vec(), vec![2.0]);
    }

    struct CountingHooks {
        packs: Mutex<u64>,
        unpacks: Mutex<u64>,
    }

    impl SavedTensorHooks for CountingHooks {
        fn pack(&self, tensor: &Tensor) -> Packed {
            *self.packs.lock() += 1;
            Packed::Tensor(tensor.clone())
        }
        fn unpack(&self, packed: &Packed) -> Tensor {
            *self.unpacks.lock() += 1;
            match packed {
                Packed::Tensor(t) => t.clone(),
                Packed::Opaque(_) => unreachable!(),
            }
        }
    }

    #[test]
    fn saved_tensor_hooks_are_called() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let hooks = Arc::new(CountingHooks {
            packs: Mutex::new(0),
            unpacks: Mutex::new(0),
        });
        g.set_saved_tensor_hooks(hooks.clone());
        let w = Var::new("w", Tensor::from_vec(vec![2.0], [1], &d));
        let x = g.constant(Tensor::from_vec(vec![4.0], [1], &d));
        let y = ops::mul(&g, &x, &g.leaf(&w)); // mul saves both inputs
        let loss = ops::sum_all(&g, &y);
        g.backward(&loss);
        assert_eq!(*hooks.packs.lock(), 2);
        assert_eq!(*hooks.unpacks.lock(), 2);
        assert_eq!(w.grad().unwrap().to_vec(), vec![4.0]);
    }

    /// A `grad_ready` listener logging each report with the gradient the
    /// leaf holds at that moment.
    #[derive(Default)]
    struct GradLog(Mutex<Vec<(String, Option<Vec<f32>>)>>);

    impl ModuleHooks for GradLog {
        fn grad_ready(&self, var: &Var) {
            let grad = var.grad().map(|g| g.to_vec());
            self.0.lock().push((var.name().to_owned(), grad));
        }
    }

    #[test]
    fn leaf_used_by_two_nodes_is_ready_once_after_the_earlier_node() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let log = Arc::new(GradLog::default());
        g.set_grad_listener(Some(log.clone()));
        let w = Var::new("w", Tensor::from_vec(vec![1.0], [1], &d));
        let lw = g.leaf(&w);
        let a = ops::scale(&g, &lw, 2.0); // node 0: the earlier use
        let b = ops::scale(&g, &lw, 3.0); // node 1: backward reaches it first
        let loss = ops::sum_all(&g, &ops::add(&g, a, b));
        g.backward(&loss);
        // Reported once, holding both contributions (3 alone after node 1).
        assert_eq!(*log.0.lock(), vec![("w".to_owned(), Some(vec![5.0]))]);
    }

    #[test]
    fn leaf_whose_only_node_gets_no_grad_is_still_ready() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let log = Arc::new(GradLog::default());
        g.set_grad_listener(Some(log.clone()));
        let w = Var::new("w", Tensor::from_vec(vec![1.0], [1], &d));
        let _unused = ops::scale(&g, &g.leaf(&w), 2.0); // node 0: no path to the loss
        let x = g.constant(Tensor::from_vec(vec![4.0], [1], &d));
        let loss = ops::sum_all(&g, &ops::scale(&g, &x, 3.0));
        g.backward(&loss);
        assert_eq!(*log.0.lock(), vec![("w".to_owned(), None)]);
    }

    #[test]
    fn without_a_listener_backward_retires_nothing() {
        let d = dev();
        let g = Graph::new(&d, 1);
        // Module hooks, but no gradient listener.
        g.add_module_hooks(Arc::new(GradLog::default()));
        let w = Var::new("w", Tensor::from_vec(vec![1.0], [1], &d));
        let lw = g.leaf(&w);
        let s = ops::add(&g, ops::scale(&g, &lw, 2.0), ops::scale(&g, &lw, 3.0));
        let loss = ops::sum_all(&g, &s);
        let tape = g.inner.tape_gen.get();
        assert_eq!(w.pending_uses(tape), 2, "record counts each use");
        g.backward(&loss);
        assert_eq!(w.pending_uses(tape), 2, "no listener: no retire walk");
        assert_eq!(w.grad().unwrap().to_vec(), vec![5.0]);

        // The same tape shape with a listener retires every use, and a
        // reset tape starts its count afresh.
        g.reset_tape();
        g.set_grad_listener(Some(Arc::new(GradLog::default())));
        let lw = g.leaf(&w);
        let loss = ops::sum_all(&g, &ops::scale(&g, &lw, 2.0));
        let fresh = g.inner.tape_gen.get();
        assert_ne!(fresh, tape);
        assert_eq!(w.pending_uses(fresh), 1);
        g.backward(&loss);
        assert_eq!(w.pending_uses(fresh), 0);
    }

    /// One backward of `2w` on `g`'s reset tape.
    fn scaled_backward(g: &Graph, w: &Var) {
        g.reset_tape();
        g.backward(&ops::sum_all(g, &ops::scale(g, &g.leaf(w), 2.0)));
    }

    #[test]
    fn the_listener_slot_holds_one_listener_until_cleared() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let events = Arc::new(EventLog::default());
        g.add_module_hooks(events.clone());
        let w = Var::new("w", Tensor::from_vec(vec![1.0], [1], &d));
        let (first, second) = (Arc::new(GradLog::default()), Arc::new(GradLog::default()));
        g.set_grad_listener(Some(first.clone()));
        scaled_backward(&g, &w);
        // Setting a second listener replaces the first.
        g.set_grad_listener(Some(second.clone()));
        scaled_backward(&g, &w);
        g.set_grad_listener(None);
        scaled_backward(&g, &w);
        assert_eq!(
            first.0.lock().len(),
            1,
            "the replaced listener heard a report"
        );
        assert_eq!(
            second.0.lock().len(),
            1,
            "a cleared listener heard a report"
        );
        assert_eq!(
            g.inner.module_hooks.borrow().len(),
            1,
            "the slot left a hook behind"
        );
        // The module hooks beside the slot fire throughout.
        g.reset_tape();
        g.scoped("l0", || ops::scale(&g, &g.leaf(&w), 2.0));
        assert_eq!(*events.0.lock(), ["f+l0", "f-l0"]);
    }

    /// The innermost open scope of `g`, if any.
    fn current_scope(g: &Graph) -> Option<ScopeInfo> {
        g.inner.scope_top.borrow().as_ref().map(|f| f.info.clone())
    }

    #[test]
    fn scope_seq_is_unique_per_invocation() {
        let d = dev();
        let g = Graph::new(&d, 1);
        g.enter_module("a");
        let s1 = current_scope(&g).unwrap();
        g.exit_module();
        g.enter_module("a");
        let s2 = current_scope(&g).unwrap();
        g.exit_module();
        assert_eq!(s1.path, s2.path);
        assert_ne!(s1.seq, s2.seq);
    }

    #[test]
    fn nested_scope_paths_compose() {
        let d = dev();
        let g = Graph::new(&d, 1);
        g.enter_module("model");
        g.enter_module("layer0");
        assert_eq!(current_scope(&g).unwrap().path, "model/layer0");
        g.exit_module();
        g.exit_module();
        assert!(current_scope(&g).is_none());
    }

    #[test]
    fn a_reset_tape_recycles_its_frames_with_their_paths_rewritten() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let log = Arc::new(EventLog::default());
        g.add_module_hooks(log.clone());
        let x = g.constant(Tensor::ones([1], &d));
        g.scoped("model", || {
            g.scoped("layer0", || g.scoped("attn", || ops::scale(&g, &x, 2.0)))
        });
        g.reset_tape();
        assert_eq!(g.inner.tape.borrow().spare_frames.len(), 3);
        // A shorter and a longer path than the frames held before.
        g.scoped("a", || g.scoped("bb", || ops::scale(&g, &x, 2.0)));
        g.scoped("model_with_a_long_name", || ops::scale(&g, &x, 2.0));
        assert_eq!(g.inner.tape.borrow().spare_frames.len(), 0);
        let forward: Vec<_> = log
            .0
            .lock()
            .drain(..)
            .filter(|e| e.starts_with("f+"))
            .collect();
        assert_eq!(
            forward,
            [
                "f+model",
                "f+model/layer0",
                "f+model/layer0/attn",
                "f+a",
                "f+a/bb",
                "f+model_with_a_long_name"
            ]
        );
    }

    #[test]
    fn a_scope_open_across_a_reset_keeps_its_frame() {
        let d = dev();
        let g = Graph::new(&d, 1);
        g.enter_module("model");
        g.reset_tape();
        assert!(g.inner.tape.borrow().spare_frames.is_empty());
        g.enter_module("layer");
        assert_eq!(current_scope(&g).unwrap().path, "model/layer");
        g.exit_module();
        assert_eq!(current_scope(&g).unwrap().path, "model");
        g.exit_module();
    }

    #[test]
    fn a_retired_op_keeps_nothing_alive() {
        let d = dev();
        let g = Graph::new(&d, 1);
        let x = g.constant(Tensor::ones([1], &d));
        let segment: crate::checkpoint::SegmentFn =
            Rc::new(|cg: &Graph, ins: &[Value]| vec![ops::scale(cg, &ins[0], 2.0)]);
        let y = crate::checkpoint::checkpoint(&g, segment.clone(), std::slice::from_ref(&x));
        let loss = ops::sum_all(&g, &ops::scale(&g, &y[0], 3.0));
        assert_eq!(
            Rc::strong_count(&segment),
            2,
            "the checkpoint node holds it"
        );
        g.reset_tape();
        assert_eq!(Rc::strong_count(&segment), 1, "reset kept the segment");
        // The plain-state ops went back to the pool; the checkpoint did not.
        let pooled: usize = g
            .inner
            .tape
            .borrow()
            .spare_ops
            .0
            .iter()
            .map(|(_, v)| v.len())
            .sum();
        assert_eq!(pooled, 2, "the scale and the sum");
        drop(loss);

        // A backward retires each op once it has run.
        let y = crate::checkpoint::checkpoint(&g, segment.clone(), std::slice::from_ref(&x));
        g.backward(&ops::sum_all(&g, &ops::scale(&g, &y[0], 3.0)));
        assert_eq!(Rc::strong_count(&segment), 1, "backward kept the segment");
        let pooled: usize = g
            .inner
            .tape
            .borrow()
            .spare_ops
            .0
            .iter()
            .map(|(_, v)| v.len())
            .sum();
        assert_eq!(pooled, 2, "the step took both boxes and gave them back");
    }

    /// Logs every backward-direction event: scope entries and exits and
    /// `grad_ready` reports.
    #[derive(Default)]
    struct BackwardLog(Mutex<Vec<String>>);

    impl ModuleHooks for BackwardLog {
        fn backward_pre(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("b+{}", s.path));
        }
        fn backward_post(&self, s: &ScopeInfo) {
            self.0.lock().push(format!("b-{}", s.path));
        }
        fn grad_ready(&self, var: &Var) {
            self.0.lock().push(format!("ready {}", var.name()));
        }
    }

    /// Scopes three deep, sibling transitions and a checkpointed segment
    /// (whose recompute child opens scopes of its own), with a leaf used
    /// in two layers: the backward event sequence, pinned.
    #[test]
    fn backward_hook_sequence_through_nested_scopes_and_a_checkpoint() {
        use crate::checkpoint::checkpoint;
        use std::rc::Rc;
        let d = dev();
        let g = Graph::new(&d, 1);
        let log = Arc::new(BackwardLog::default());
        g.set_grad_listener(Some(log.clone()));
        let w: Vec<Var> = (0..5)
            .map(|i| {
                Var::new(
                    format!("w{i}"),
                    Tensor::from_vec(vec![1.0 + i as f32], [1, 1], &d),
                )
            })
            .collect();
        let x = g.constant(Tensor::from_vec(vec![2.0], [1, 1], &d));
        let y = g.scoped("model", || {
            let h = g.scoped("l0", || {
                let a = g.scoped("attn", || ops::matmul(&g, &x, &g.leaf(&w[0])));
                g.scoped("mlp", || ops::matmul(&g, &a, &g.leaf(&w[1])))
            });
            let h = g.scoped("l1", || {
                let a = g.scoped("attn", || ops::matmul(&g, &h, &g.leaf(&w[0])));
                let w2 = w[2].clone();
                let seg = checkpoint(
                    &g,
                    Rc::new(move |cg: &Graph, ins: &[Value]| {
                        cg.scoped("mlp", || {
                            let u = cg.scoped("up", || ops::matmul(cg, &ins[0], &cg.leaf(&w2)));
                            vec![ops::gelu(cg, &u)]
                        })
                    }),
                    std::slice::from_ref(&a),
                );
                ops::add(&g, seg[0].clone(), a)
            });
            let h = g.scoped("l2", || {
                g.scoped("mlp", || ops::matmul(&g, &h, &g.leaf(&w[3])))
            });
            g.scoped("head", || ops::matmul(&g, &h, &g.leaf(&w[4])))
        });
        g.backward(&ops::sum_all(&g, &y));
        // Captured before the walk followed parent links; a change here is
        // a change in the order the cache sees its hooks.
        let expected = [
            "b+model",
            "b+model/head",
            "ready w4",
            "b-model/head",
            "b+model/l2",
            "b+model/l2/mlp",
            "ready w3",
            "b-model/l2/mlp",
            "b-model/l2",
            "b+model/l1",
            "b+mlp",
            "b+mlp/up",
            "ready w2",
            "b-mlp/up",
            "b-mlp",
            "b+model/l1/attn",
            "b-model/l1/attn",
            "b-model/l1",
            "b+model/l0",
            "b+model/l0/mlp",
            "ready w1",
            "b-model/l0/mlp",
            "b+model/l0/attn",
            "ready w0",
            "b-model/l0/attn",
            "b-model/l0",
            "b-model",
        ];
        assert_eq!(*log.0.lock(), expected);
    }
}
