//! The autograd tape's allocation contract, counted.
//!
//! Recording a node and backpropagating through it allocate nothing
//! beyond the tensors the kernels return (DESIGN §2): on a kept graph a
//! warm step's scope frames and op boxes are last step's, recycled at
//! `reset_tape`. A warm kernel allocates only its output's values: the
//! output's storage header is one a dead tensor left behind. A node owns
//! ranges into the tape's flat
//! buffers, `Op::backward` writes into gradient slots the engine lends,
//! and the scope walk follows parent links. An op's
//! backward allocates only the gradients it returns, too: the fused
//! attention op and the matmul, GELU and dropout backwards are counted
//! one by one. A leaf adopts the gradient backward hands it instead of
//! copying it.
//!
//! The spill path's share is counted too: a reload decodes into the
//! buffer a commit freed instead of allocating its own (DESIGN §10). So
//! is the memory model's: reading a step walks its event log in place.
//!
//! This is its own test binary because it installs a counting
//! `#[global_allocator]`. The counters are per thread, so the other tests
//! libtest runs in parallel cannot pollute a reading.

use ssdtrain::{
    AdaptivePlan, CpuTarget, IoEngine, SsdTarget, TensorCache, TensorCacheConfig, Tier, TierLink,
    TierStack,
};
use ssdtrain_autograd::{
    ops, Graph, ModuleHooks, Packed, Phase, SavedTensorHooks, ScopeInfo, Value, Var,
};
use ssdtrain_models::{Arch, Batch, Model, ModelConfig, Recompute};
use ssdtrain_simhw::{FootprintPoint, GpuMemory, SimClock, SimTime, WearMeter};
use ssdtrain_tensor::{Device, MemClass, MemTracker, Prng, Tensor};
use ssdtrain_train::{OffloadBackend, PlacementStrategy, SessionConfig, TrainSession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

thread_local! {
    // Const-initialised: no lazy set-up and, but for `SITES`, no
    // destructor, so touching them from inside the allocator cannot
    // recurse. `SITES` registers its destructor on first use, which may
    // allocate, so it is touched only under `IN_RECORD`.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Whether [`alloc_sites`] is recording this thread's calls.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// Set while a call is being recorded: the calls recording makes
    /// (the backtrace, the log's growth) are not recorded themselves.
    static IN_RECORD: Cell<bool> = const { Cell::new(false) };
    /// The recorded calls: bytes requested and where from.
    static SITES: RefCell<Vec<(usize, Backtrace)>> = const { RefCell::new(Vec::new()) };
}

fn count(bytes: usize) {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    if RECORDING.try_with(Cell::get).unwrap_or(false) {
        record(bytes);
    }
}

/// Logs a backtrace of this allocator call, unless one is already being
/// logged (the capture allocates).
fn record(bytes: usize) {
    if IN_RECORD.try_with(|r| r.replace(true)).unwrap_or(true) {
        return;
    }
    let trace = Backtrace::force_capture();
    let _ = SITES.try_with(|s| s.borrow_mut().push((bytes, trace)));
    let _ = IN_RECORD.try_with(|r| r.set(false));
}

/// The system allocator counting the current thread's `alloc`,
/// `alloc_zeroed` and `realloc` calls and the bytes they request (a
/// `realloc` counts its new size).
struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls this thread makes while running `f`.
fn calls(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// Bytes this thread requests while running `f`, with `f`'s result.
fn bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let r = f();
    (r, BYTES.with(Cell::get) - before)
}

/// The chain both arms run: `n` links of `h ← h @ w + b` from `x`.
struct Chain {
    x: Tensor,
    w: Var,
    b: Var,
}

impl Chain {
    fn new(dev: &Device) -> Chain {
        Chain {
            x: Tensor::symbolic([4, 8], dev),
            w: Var::new("w", Tensor::symbolic([8, 8], dev)),
            b: Var::new("b", Tensor::symbolic([4, 8], dev)),
        }
    }

    /// `n` links recorded on `g` (two single-output, zero-sized ops each:
    /// `matmul`, `add`), reduced to a scalar and backpropagated.
    fn on_graph(&self, g: &Graph, n: usize) {
        let mut h = g.constant(self.x.clone());
        for _ in 0..n {
            h = ops::add(g, &ops::matmul(g, &h, &g.leaf(&self.w)), &g.leaf(&self.b));
        }
        g.backward(&ops::sum_all(g, &h));
        g.reset_tape();
    }

    /// The same `n` links as direct kernel calls: forward keeps each
    /// link's input in `inputs` (reserved by the caller, as the tape keeps
    /// its saved tensors), backward runs the kernels `add` and `matmul`
    /// run in theirs and accumulates the leaves' gradients as the tape
    /// hands them over: `b` a handle to `dy` that `add` shares with its
    /// other operand (copied on first use), `w` its own `dw` (adopted).
    fn direct(&self, n: usize, inputs: &mut Vec<Tensor>) {
        let (w, b) = (self.w.tensor(), self.b.tensor());
        let mut h = self.x.clone();
        for _ in 0..n {
            inputs.push(h.clone());
            h = h.matmul(&w).add(&b);
        }
        let mut dy = Tensor::symbolic(*h.shape(), h.device());
        for x in inputs.drain(..).rev() {
            self.b.accumulate_grad(dy.clone());
            let (m, k) = x.shape().as_2d();
            let cols = w.dim(1);
            let dx = dy.matmul(&w.t());
            let x2d = x.contiguous().reshape([m, k]);
            let dy2d = dy.contiguous().reshape([m, cols]);
            let dw = x2d.t().matmul(&dy2d);
            self.w.accumulate_grad(dw);
            dy = dx;
        }
    }

    fn zero_grad(&self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }
}

/// (a) Recording and backpropagating `n` more links costs no allocator
/// call, and so no more than calling their kernels directly: nothing is
/// allocated per node, and a symbolic kernel's output takes a dead
/// tensor's storage header. Each arm runs `N` and `2N` links after a
/// warm-up at `2N` (so the tape's buffers are at capacity), and only the
/// difference is compared, which cancels what a backward pass costs once
/// (the loss node, its seed, the walk's scratch). With a header allocated
/// per output the tape paid 256 calls for 64 links; with per-node `Vec`s
/// it paid 1 280.
#[test]
fn the_tape_allocates_nothing_per_node() {
    const N: usize = 64;
    let dev = Device::symbolic();
    let chain = Chain::new(&dev);
    let g = Graph::new(&dev, 1);
    let mut inputs = Vec::with_capacity(2 * N);

    let on_graph = |n| {
        chain.zero_grad();
        calls(|| chain.on_graph(&g, n))
    };
    on_graph(2 * N);
    let graph = on_graph(2 * N) - on_graph(N);

    let mut direct = |n| {
        chain.zero_grad();
        calls(|| chain.direct(n, &mut inputs))
    };
    direct(2 * N);
    let kernels = direct(2 * N) - direct(N);

    assert_eq!(
        graph, 0,
        "{N} more links cost {graph} allocator calls on the tape"
    );
    assert!(
        graph <= kernels,
        "{N} links cost {graph} allocator calls on the tape but {kernels} as direct \
         kernel calls: the tape allocates per node"
    );
}

/// Budget of (b), in allocator calls per tape node of a warm forward
/// plus backward. Measured (51 nodes): 0 on one kept graph that recycles
/// its scope frames and the boxes of its stateful ops; 0.65 on a kept
/// graph that did not (33 calls: the op boxes and the scopes' paths and
/// frames); 1.10 while each step built a fresh graph (56 calls: the
/// graph, its buffers' growth and the walk's scratch too); 3.78 once
/// each leaf adopted its first gradient (193 calls), 4.51 while it
/// copied it (230 calls), 4.82 when flat node buffers and lent gradient
/// slots landed (246 calls), 13.24 before them (675 calls: per-node
/// input, saved-tensor and gradient `Vec`s and a scope stack per node).
const CALLS_PER_NODE_BUDGET: f64 = 0.0;

/// (b) A warm forward plus backward of a small symbolic BERT on one bare
/// graph (no hooks, no observer), its tape reset after each backward as
/// a session's is, stays within [`CALLS_PER_NODE_BUDGET`] allocator
/// calls per recorded node, which is none at all: the kernels' symbolic
/// outputs take the storage headers of dead tensors, and the graph
/// recycles its scope frames and op boxes.
#[test]
fn a_symbolic_bert_step_stays_under_its_per_node_budget() {
    let dev = Device::symbolic();
    let cfg = ModelConfig::tiny_bert();
    let model = Model::build(&cfg, &dev, 7);
    let batch = Batch::synthetic(&cfg, 2, 7, &dev);
    let g = Graph::new(&dev, 7);
    let step = || {
        let loss = model.forward_loss(&g, &batch, Recompute::None);
        g.backward(&loss);
        let nodes = g.tape_len();
        g.reset_tape();
        nodes
    };
    step();
    for p in model.parameters() {
        p.zero_grad();
    }
    let mut nodes = 0;
    let used = calls(|| nodes = step());
    let per_node = used as f64 / nodes as f64;
    assert!(
        per_node <= CALLS_PER_NODE_BUDGET,
        "{used} allocator calls for {nodes} nodes: {per_node:.2} a node, budget \
         {CALLS_PER_NODE_BUDGET}"
    );
}

/// Heads [`stateful_links`] splits its hidden dimension into.
const HEADS: usize = 4;

/// `n` links from `x` on `g`, each in a `layer` scope with an `attn`
/// scope inside, under one `model` scope: heads split, fused attention
/// with dropout, heads merged, dropout, allreduce. Every op carries
/// state, so each has a box of its own. Backpropagated, then the tape is
/// reset.
fn stateful_links(g: &Graph, x: &Tensor, n: usize) {
    let h = g.scoped("model", || {
        let mut h = g.constant(x.clone());
        for _ in 0..n {
            h = g.scoped("layer", || {
                let a = g.scoped("attn", || {
                    let q = ops::permute_heads(g, &h, HEADS);
                    let c = ops::flash_attention(g, &q, &q, &q, true, 0.1);
                    ops::unpermute_heads(g, &c, HEADS)
                });
                let bytes = a.tensor().bytes();
                ops::allreduce(g, &ops::dropout(g, &a, 0.1), bytes)
            });
        }
        h
    });
    g.backward(&ops::sum_all(g, &h));
    g.reset_tape();
}

/// (l) A kept graph allocates nothing per module scope or per stateful
/// op: after a warm-up, recording and backpropagating `2N` links of
/// [`stateful_links`] costs no allocator call more than `N` links. A
/// reset tape hands the step's scope frames and the boxes of its ops back
/// to the graph, and the next step rewrites them in place. Measured: 0
/// calls in either step; 176 more for 16 more links (355 against 179)
/// while each scope built its path into a new `String` and took a new
/// frame, and each stateful op a new box.
#[test]
fn a_kept_graph_allocates_nothing_per_scope_or_stateful_op() {
    const N: usize = 16;
    let dev = Device::symbolic();
    let x = Tensor::symbolic([2, 8, 16], &dev);
    let g = Graph::new(&dev, 1);
    let step = |n| calls(|| stateful_links(&g, &x, n));
    step(2 * N);
    let (big, small) = (step(2 * N), step(N));
    assert_eq!(
        big.saturating_sub(small),
        0,
        "{N} more scoped links of stateful ops cost {} allocator calls ({big} against \
         {small})",
        big.saturating_sub(small)
    );
}

/// Bytes a warm forward and a warm backward of `op` request, the
/// operands given as segment inputs (so backward hands each gradient
/// over instead of copying it into a leaf) and `dy` as the output
/// gradient. A first run warms the kernels' gather buffers.
fn op_bytes<const N: usize>(
    operands: &[Tensor; N],
    dy: &Tensor,
    op: impl Fn(&Graph, &[Value; N]) -> Value,
) -> (u64, u64) {
    let run = || {
        let g = Graph::new(dy.device(), 7);
        let inputs: [Value; N] = std::array::from_fn(|i| g.external(i, operands[i].clone()));
        let (y, forward) = bytes(|| op(&g, &inputs));
        let mut grads: [Option<Tensor>; N] = std::array::from_fn(|_| None);
        let ((), backward) = bytes(|| g.backward_from(&[y], [Some(dy.clone())], &mut grads));
        assert!(
            grads.iter().all(Option::is_some),
            "every operand has a gradient"
        );
        (forward, backward)
    };
    run();
    run()
}

/// Bytes an op may request beyond the buffers it returns: the op's box,
/// the tape's first node and the backward walk's scratch (and a storage
/// header, when no dead tensor left one behind). Measured: 1.7–1.9 KiB a
/// backward; far below the smallest operand the gates below would copy
/// (the matmul's 64 KiB `x`).
const OP_SLACK: u64 = 4096;

/// A numeric tensor of normal draws.
fn numeric(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Prng::seed_from_u64(seed);
    Tensor::randn(dims, 1.0, &mut rng, &Device::cpu())
}

/// (e) The fused attention op never materialises an `S×S` matrix: a
/// forward plus backward at `[16, 64, 32]` with dropout requests its four
/// `[t, s, d]` results (context, `dq`, `dk`, `dv`), `O(s·d)` scratch and
/// [`OP_SLACK`]. One `t·s·s` buffer is 256 KiB, twice the allowance for
/// the scratch. Measured: 553 508 B (4 × 131 072 B of results, 26 368 B
/// of scratch); materialising each `S×S` step requested 5 116 532 B.
#[test]
fn fused_attention_allocates_its_results_and_row_scratch() {
    let [t, s, d] = [16, 64, 32];
    let qkv = [0, 1, 2].map(|i| numeric(&[t, s, d], i));
    let dctx = numeric(&[t, s, d], 3);
    let (forward, backward) = op_bytes(&qkv, &dctx, |g, [q, k, v]| {
        ops::flash_attention(g, q, k, v, true, 0.1)
    });
    let results = 4 * dctx.bytes();
    let scratch = (4 * s * d * 4) as u64;
    assert!(
        forward + backward <= results + scratch + OP_SLACK,
        "flash attention requests {forward} B forward and {backward} B backward: more \
         than its {results} B of results, {scratch} B of row scratch and the slack"
    );
}

/// (f) `MatmulOp` backward requests `dx` and `dw` and nothing else: `xᵀ`
/// and `wᵀ` are read in place through their strides. Measured: 198 436 B
/// for 196 608 B of results; copying the transpose requested 264 076 B.
#[test]
fn matmul_backward_allocates_dx_and_dw() {
    let (x, w, dy) = (
        numeric(&[64, 256], 1),
        numeric(&[256, 128], 2),
        numeric(&[64, 128], 3),
    );
    let (_, backward) = op_bytes(&[x.clone(), w.clone()], &dy, |g, [x, w]| {
        ops::matmul(g, x, w)
    });
    let results = x.bytes() + w.bytes();
    assert!(
        backward <= results + OP_SLACK,
        "matmul backward requests {backward} B for {results} B of dx and dw"
    );
}

/// (i) A warm matrix product of two transposed views requests its
/// output's values and nothing else: both operands are read in place
/// through their strides, so there is no gather buffer, the panel of `b`
/// the kernel packs into comes from the scratch pool, which the first
/// call grew, and the output's storage header is the one the first
/// call's output left behind. The panel is `func_keep`'s largest, `k` =
/// 512.
#[test]
fn a_warm_matmul_of_transposes_requests_only_its_output() {
    let (x, w) = (numeric(&[512, 256], 1), numeric(&[128, 512], 2));
    let (xt, wt) = (x.t(), w.t());
    drop(xt.matmul(&wt)); // cold: the pool's panel grows to k × NR
    let (y, requested) = bytes(|| xt.matmul(&wt));
    assert_eq!(y.dims(), &[256, 128]);
    assert_eq!(
        requested,
        y.bytes(),
        "a warm xᵀ @ wᵀ requests {requested} B for its {} B output",
        y.bytes()
    );
    drop(y);
    assert_eq!(calls(|| drop(xt.matmul(&wt))), 1, "the output's values");
}

/// (k) A dead tensor hands its storage header on: after a warm-up,
/// building and dropping `N` symbolic tensors makes no allocator call,
/// and `N` numeric ones make `N`, their values. With a header allocated
/// per storage they cost `N` and `2N`.
#[test]
fn a_new_tensor_takes_a_dead_ones_storage_header() {
    const N: u64 = 64;
    let run = |dev: &Device| {
        calls(|| {
            for _ in 0..N {
                drop(Tensor::zeros([16, 16], dev));
            }
        })
    };
    let (symbolic, numeric) = (Device::symbolic(), Device::cpu());
    run(&symbolic);
    run(&numeric);
    assert_eq!(run(&symbolic), 0, "{N} symbolic tensors");
    assert_eq!(run(&numeric), N, "{N} numeric tensors");
}

/// (g) GELU and dropout backwards each request one buffer: `dy · gelu'(x)`
/// (`Tensor::gelu_grad`) and `(dy · mask) · scale` (`Tensor::zip_with`) are
/// single passes, not a chain of kernels that each allocate an
/// intermediate. Measured: 263 868 B each for a
/// 262 144 B gradient; the two-kernel chains requested 526 116 B.
#[test]
fn elementwise_backwards_allocate_one_buffer() {
    let (dy, x) = (numeric(&[4, 64, 256], 1), [numeric(&[4, 64, 256], 2)]);
    let (_, gelu) = op_bytes(&x, &dy, |g, [x]| ops::gelu(g, x));
    let (_, dropout) = op_bytes(&x, &dy, |g, [x]| ops::dropout(g, x, 0.1));
    for (op, backward) in [("gelu", gelu), ("dropout", dropout)] {
        assert!(
            backward <= dy.bytes() + OP_SLACK,
            "{op} backward requests {backward} B for one {} B gradient",
            dy.bytes()
        );
    }
}

/// A numeric GPT (H128 L4, 4 heads, S64, V512, dropout 0.1) at batch 4,
/// on `strategy`; offloading sessions spill every activation to a
/// file-backed SSD target.
fn numeric_gpt(strategy: PlacementStrategy) -> TrainSession {
    let model = ModelConfig {
        arch: Arch::Gpt,
        hidden: 128,
        layers: 4,
        heads: 4,
        vocab: 512,
        seq: 64,
        dropout_p: 0.1,
        fused_attention: true,
        tp: 1,
    };
    let builder = SessionConfig::builder()
        .model(model)
        .batch_size(4)
        .strategy(strategy)
        .seed(7);
    let builder = match strategy {
        PlacementStrategy::Offload => builder
            .cache(TensorCacheConfig::offload_everything())
            .backend(OffloadBackend::Ssd),
        _ => builder,
    };
    TrainSession::new(builder.build().expect("valid config")).expect("session construction")
}

/// Steps of [`a_reload_reuses_the_buffer_its_commit_freed`]: the second
/// is warm, past the optimizer state the first allocates.
const STEPS: usize = 2;

/// Runs [`STEPS`] steps of a fresh [`numeric_gpt`] on its own thread:
/// their losses' bits, the last step's reloaded bytes, and the bytes it
/// requested from the allocator.
fn warm_step(strategy: PlacementStrategy) -> (Vec<u32>, u64, u64) {
    let mut session = numeric_gpt(strategy);
    let mut losses = Vec::with_capacity(STEPS);
    let (mut reloaded, mut requested) = (0, 0);
    for _ in 0..STEPS {
        let (m, b) = bytes(|| session.run_step().expect("a healthy step"));
        losses.push(m.loss.to_bits());
        (reloaded, requested) = (m.offload.reloaded_bytes, b);
    }
    (losses, reloaded, requested)
}

/// (c) Offloading every activation to the SSD costs a warm step at most
/// 5 % of the bytes it reloads in host allocations beyond its keep twin's,
/// at bit-identical losses. A commit releases each member's values, and
/// the reload that follows decodes into them. Measured: +14 792 B on
/// 8.14 MB reloaded; decoding each reload into a fresh `Vec` costs the
/// whole 8.14 MB again. The two sessions run side by side, each on its
/// own thread and so with its own counters.
#[test]
fn a_reload_reuses_the_buffer_its_commit_freed() {
    let ((keep_losses, _, keep), (losses, reloaded, offload)) = std::thread::scope(|s| {
        let keep = s.spawn(|| warm_step(PlacementStrategy::Keep));
        let offload = warm_step(PlacementStrategy::Offload);
        (keep.join().expect("the keep twin ran"), offload)
    });
    assert_eq!(losses, keep_losses, "offloading changed the losses");
    assert!(reloaded > 0, "the offloading step reloads nothing");
    let over = offload.saturating_sub(keep);
    assert!(
        over * 20 <= reloaded,
        "the offloading step requests {offload} B against its keep twin's {keep} B: \
         {over} B more, over 5 % of the {reloaded} B it reloads"
    );
}

/// A tracker holding `n` allocations of a step, as [`log_step`] records
/// them.
fn logged_step(n: usize) -> GpuMemory {
    let clock = SimClock::new();
    let mem = GpuMemory::new(clock.clone(), 1 << 40);
    log_step(&mem, &clock, n);
    mem
}

/// Records `n` allocations on `mem`, each freed four allocations later:
/// every eighth free is stamped at a future instant (a store job's end),
/// the rest by the clock. Request sizes cycle through 16 small-pool
/// values and one large-pool value, so the allocator model caches no
/// more distinct block sizes at any `n`.
fn log_step(mem: &GpuMemory, clock: &SimClock, n: usize) {
    let size = |i: usize| match i % 17 {
        0 => 8 << 20,
        k => k as u64 * 40_000,
    };
    for i in 0..n {
        mem.on_alloc(size(i), MemClass::Activation);
        if let Some(j) = i.checked_sub(4) {
            if j % 8 == 0 {
                let at = SimTime::from_secs(clock.now().as_secs() + 3e-3);
                mem.with_time(at, || mem.on_free(size(j), MemClass::Activation));
            } else {
                mem.on_free(size(j), MemClass::Activation);
            }
        }
        clock.advance_by(1e-4);
    }
}

/// A new step of `n` allocations on `mem`: the clock and the log start
/// over, what the last step left resident stays.
fn next_step(mem: &GpuMemory, clock: &SimClock, n: usize) {
    clock.reset();
    mem.reset();
    log_step(mem, clock, n);
}

/// Bytes of [`a_step_memory_read_copies_no_event`]'s allowance beyond
/// the timeline: none, as the allocator replay keeps its pools from read
/// to read (1 024 B while it built its block-size maps afresh).
const STEP_MEMORY_SLACK: u64 = 0;

/// (d) Reading a step's memory copies none of its log. A warm
/// `step_memory` over a log twice as long requests no more than the
/// timeline's extra points and [`STEP_MEMORY_SLACK`]. Measured: 0 B at
/// 8 188 events and at 16 380, the timeline lent and refilled; 0 B over
/// the timeline while each read collected a fresh one; sorting a clone
/// of the log requested 48 B an event more (the clone and the stable
/// sort's buffer), 393 216 B over the timeline.
#[test]
fn a_step_memory_read_copies_no_event() {
    const N: usize = 4096;
    let read = |allocs: usize| {
        let mem = logged_step(allocs);
        mem.step_memory(); // warm: the future-stamped events are sorted
        let (m, requested) = bytes(|| mem.step_memory());
        (m.timeline.len(), requested)
    };
    let ((short, once), (long, twice)) = (read(N), read(2 * N));
    let timeline = ((long - short) * std::mem::size_of::<FootprintPoint>()) as u64;
    assert!(
        twice <= once + timeline + STEP_MEMORY_SLACK,
        "step_memory requests {once} B over {short} events and {twice} B over {long}: \
         {} B more than the {timeline} B of the longer timeline and the slack",
        twice.saturating_sub(once + timeline)
    );
}

/// (m) A warm step's memory read allocates nothing once the last read's
/// picture is dropped: the tracker refills the timeline buffer it lent,
/// and the allocator replay starts its kept pools over in place.
/// Measured: 0 calls and 0 B for a step of 4 096 allocations; while each
/// read collected a fresh timeline and the replay built its block-size
/// maps afresh, 8 calls and 197 712 B.
#[test]
fn a_warm_step_memory_read_allocates_nothing() {
    const N: usize = 4096;
    let clock = SimClock::new();
    let mem = GpuMemory::new(clock.clone(), 1 << 40);
    let read = || {
        next_step(&mem, &clock, N);
        let mut used = 0;
        let ((), requested) = bytes(|| used = calls(|| drop(mem.step_memory())));
        (used, requested)
    };
    read();
    let (used, requested) = read();
    assert_eq!(
        (used, requested),
        (0, 0),
        "a warm step_memory makes {used} allocator calls requesting {requested} B"
    );
}

/// (n) A timeline still held is never refilled: a step's picture kept
/// across three later steps keeps its points bit for bit, each later
/// read fills a buffer of its own, and once one of those is dropped the
/// next read refills it.
#[test]
fn a_held_step_memory_keeps_its_points() {
    let clock = SimClock::new();
    let mem = GpuMemory::new(clock.clone(), 1 << 40);
    log_step(&mem, &clock, 512);
    let held = mem.step_memory();
    let bits = |t: &[FootprintPoint]| -> Vec<(u64, u64)> {
        t.iter()
            .map(|p| (p.time.as_secs().to_bits(), p.activations))
            .collect()
    };
    let (points, held_bits) = (held.timeline.to_vec(), bits(&held.timeline));
    let mut refilled = None;
    for n in [256, 1024, 64] {
        next_step(&mem, &clock, n);
        let later = mem.step_memory();
        assert!(
            !Arc::ptr_eq(&held.timeline, &later.timeline),
            "a read refilled the timeline a caller still holds"
        );
        if let Some(last) = refilled {
            assert_eq!(
                Arc::as_ptr(&later.timeline),
                last,
                "a read took a new buffer though no reader held the last one"
            );
        }
        refilled = Some(Arc::as_ptr(&later.timeline));
    }
    assert_eq!(*held.timeline, points, "the held timeline changed");
    assert_eq!(bits(&held.timeline), held_bits);
}

/// (h) A leaf adopts the gradient backward hands it: a numeric `matmul`
/// and `add_bias` backpropagated into leaves `w` and `b` request `dx`,
/// `dw`, `db` and [`OP_SLACK`], with no copy of either leaf's first
/// gradient. Measured: 199 052 B for 197 120 B of results; copying
/// each leaf's first gradient requested 330 844 B.
#[test]
fn a_leaf_adopts_its_first_gradient() {
    let (x, dy) = (numeric(&[64, 256], 1), numeric(&[64, 128], 3));
    let w = Var::new("w", numeric(&[256, 128], 2));
    let b = Var::new("b", numeric(&[128], 4));
    let run = || {
        w.zero_grad();
        b.zero_grad();
        let g = Graph::new(dy.device(), 7);
        let h = ops::matmul(&g, &g.external(0, x.clone()), &g.leaf(&w));
        let y = ops::add_bias(&g, &h, &g.leaf(&b));
        let mut dx = [None];
        let ((), backward) = bytes(|| g.backward_from(&[y], [Some(dy.clone())], &mut dx));
        assert!(dx[0].is_some() && w.grad().is_some() && b.grad().is_some());
        backward
    };
    run();
    let backward = run();
    let results = x.bytes() + w.tensor().bytes() + b.tensor().bytes();
    assert!(
        backward <= results + OP_SLACK,
        "backward into two leaves requests {backward} B for {results} B of dx, dw and db"
    );
}

/// Files whose frames [`site`] looks past: the tensor kernels and the
/// storage they allocate, so a call is charged to the op that asked.
const KERNEL_FILES: [&str; 3] = [
    "crates/tensor/src/kernels.rs",
    "crates/tensor/src/tensor.rs",
    "crates/tensor/src/storage.rs",
];

/// The first frame of `trace` in the workspace's crates outside
/// [`KERNEL_FILES`], as `path:line` from `crates/` on: the allocation
/// site a call is charged to.
fn site(trace: &Backtrace) -> String {
    trace
        .to_string()
        .lines()
        .filter_map(|l| l.trim().strip_prefix("at "))
        .filter_map(|at| at.find("crates/").map(|i| &at[i..]))
        .find(|at| !KERNEL_FILES.iter().any(|f| at.starts_with(f)))
        .map_or_else(
            || "(no frame under crates/ outside the kernels)".to_owned(),
            |at| {
                at.rsplit_once(':')
                    .map_or(at, |(file_line, _col)| file_line)
                    .to_owned()
            },
        )
}

/// Where a warm step allocates, for two sessions in turn: [`numeric_gpt`]
/// (`func_keep`'s model, batch and seed), then `sym_deep_tiered`'s
/// configuration (`ssdtrain_bench::deep_tiered_config(48)`, profiled
/// first, as the benchmark does). Every allocator call of the step is
/// charged to its [`site`] (the first frame under `crates/` past the
/// tensor kernels, so a matmul's output is charged to the op that called
/// it, not to `kernels.rs`), and the top sites are printed by bytes and by
/// calls. A diagnostic, not a gate:
///
/// ```sh
/// cargo test -q --test alloc_budget alloc_sites -- --ignored --nocapture
/// ```
///
/// Run it in the default (debug) test profile, whose line tables name
/// each frame's file and line. `func_keep`'s total equals its
/// `host_allocs_per_step` (290 calls); the symbolic session is warmed
/// for two steps, not the benchmark's fifty, so its total differs from
/// the gated figure (3 calls against 2: one insert into the DRAM
/// target's pool map, 10 384 B, that the fiftieth step no longer makes).
/// Storage headers, op boxes, scope frames, the footprint timeline and
/// the allocator replay's pools no longer show: a warm step's outputs
/// take the headers of dead tensors, the graph recycles the rest, and
/// the memory tracker refills the timeline it lent last step. What is
/// left at op lines is numeric values; the symbolic step keeps only the
/// cache's stats snapshot (its tier and class counter lists).
#[test]
#[ignore = "diagnostic: prints where a warm step of two benchmark sessions allocates"]
fn alloc_sites() {
    print_sites(
        "func_keep",
        &mut numeric_gpt(PlacementStrategy::Keep),
        STEPS - 1,
    );
    let cfg = ssdtrain_bench::deep_tiered_config(48);
    let mut sym = TrainSession::new(cfg).expect("session construction");
    sym.profile_step().expect("a healthy profiling step");
    print_sites("sym_deep_tiered", &mut sym, 2);
}

/// Runs `warm` steps of `session` and then one more, recording that
/// step's allocator calls, and prints their total and top sites.
fn print_sites(label: &str, session: &mut TrainSession, warm: usize) {
    const TOP: usize = 15;
    for step in 0..=warm {
        RECORDING.with(|r| r.set(step == warm));
        session.run_step().expect("a healthy step");
    }
    RECORDING.with(|r| r.set(false));
    let traces = SITES.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let mut sites: HashMap<String, (u64, u64)> = HashMap::new();
    for (bytes, trace) in &traces {
        let (calls, total) = sites.entry(site(trace)).or_default();
        *calls += 1;
        *total += *bytes as u64;
    }
    let total: u64 = traces.iter().map(|(b, _)| *b as u64).sum();
    println!(
        "== {label}: {} allocator calls, {total} B, at {} sites in one warm step",
        traces.len(),
        sites.len()
    );
    let mut ranked: Vec<_> = sites.into_iter().collect();
    for (by, key) in [("bytes", 1), ("calls", 0)] {
        ranked.sort_by_key(|(site, c)| (std::cmp::Reverse([c.0, c.1][key]), site.clone()));
        println!("\ntop {TOP} by {by}:\n{:>7} {:>12}  site", "calls", "bytes");
        for (site, (calls, bytes)) in ranked.iter().take(TOP) {
            println!("{calls:>7} {bytes:>12}  {site}");
        }
    }
    println!();
}

/// A tiny GPT on a cache driven by hand, every activation offloaded to
/// host memory one record per store job, `profiled` or not. No executor
/// charges compute, so the clock jumps a second between forward and
/// backward: every store lands and backward reloads every record.
fn hand_cache(profiled: bool) -> impl FnMut() -> u64 {
    let clock = SimClock::new();
    let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 30));
    let dev = Device::cpu();
    dev.set_tracker(mem.clone());
    let cache = TensorCache::with_tiers(
        TensorCacheConfig {
            coalesce_segment_bytes: 0,
            ..TensorCacheConfig::offload_everything()
        },
        Arc::new(TierStack::single(Arc::new(CpuTarget::new(1 << 30)))),
        IoEngine::new(clock.clone(), 1e9, 1e9),
        mem,
    );
    let model = Model::build(&ModelConfig::tiny_gpt(), &dev, 5);
    let step = move |profile: bool| {
        if profile {
            cache.begin_profile_step();
        } else {
            cache.begin_step();
        }
        let g = Graph::new(&dev, 3);
        cache.install(&g);
        let batch = Batch::synthetic(model.config(), 2, 11, &dev);
        let loss = model.forward_loss(&g, &batch, Recompute::None);
        clock.advance_by(1.0);
        let backward = calls(|| {
            cache.prefetch_last_module();
            g.backward(&loss);
        });
        cache.wait_io();
        cache.drain_stores();
        if profile {
            let _ = cache.end_profile_step();
            // Both arms run with no module kept.
            cache.set_plan(AdaptivePlan::default());
        }
        cache.flush();
        for p in model.parameters() {
            p.zero_grad();
        }
        backward
    };
    if profiled {
        step(true);
    }
    move || step(false)
}

/// (i) The just-in-time prefetcher plans in buffers the cache keeps: a
/// warm profiled step's announcement and backward make no more
/// allocator calls than the same step's on the depth walk, which
/// reloads the same records. Measured: 222 calls against the walk's
/// 223; planning into a fresh `Vec` each step costs a call per growth.
#[test]
fn the_reload_schedule_allocates_nothing_in_a_warm_step() {
    let (mut planned, mut walked) = (hand_cache(true), hand_cache(false));
    for _ in 0..2 {
        planned();
        walked();
    }
    let (planned, walked) = (planned(), walked());
    assert!(walked > 0, "the backward allocates nothing at all");
    assert!(
        planned <= walked,
        "a planned backward makes {planned} allocator calls, the depth walk {walked}"
    );
}

/// Module scopes a [`TieredRig`] step packs its records in.
const SCOPES: usize = 6;

/// A cache driven by hand, as in [`hand_cache`], over a DRAM
/// [`CpuTarget`] of four records (pool and tier capacity alike) in front
/// of a symbolic [`SsdTarget`], coalescing two records a segment. A step
/// packs `n` fresh symbolic tensors in [`SCOPES`] module scopes of
/// unequal size ([`TieredRig::sizes`]), giving the cache their only handle,
/// lands the stores, unpacks every record in its scope's backward and
/// flushes: every record is written to a tier, read back and removed.
/// Each step's scopes take fresh sequence numbers, as a graph's do.
struct TieredRig {
    clock: SimClock,
    mem: Arc<GpuMemory>,
    dev: Device,
    dram: Arc<CpuTarget>,
    cache: Arc<TensorCache>,
    scopes: [ScopeInfo; SCOPES],
    packed: Vec<Packed>,
    /// Bytes of each tensor a step packs.
    record_bytes: u64,
    dir: std::path::PathBuf,
}

impl TieredRig {
    fn new(max_records: usize) -> TieredRig {
        let clock = SimClock::new();
        let mem = Arc::new(GpuMemory::new(clock.clone(), 1 << 40));
        let dev = Device::symbolic();
        dev.set_tracker(mem.clone());
        let record_bytes = Tensor::symbolic([64, 64], &dev).bytes();
        let dir =
            std::env::temp_dir().join(format!("ssdtrain-alloc-tiered-{}", std::process::id()));
        let ssd = SsdTarget::new(&dir, WearMeter::new(1e15, 1.0)).expect("spill directory");
        let dram = Arc::new(CpuTarget::new(4 * record_bytes));
        let tiers = TierStack::new(vec![
            Tier::new("dram", dram.clone(), 0).with_capacity(4 * record_bytes),
            Tier::new("ssd", Arc::new(ssd), 1),
        ]);
        let links = vec![
            TierLink::new("dram", 1e10, 1e10),
            TierLink::new("ssd", 1e9, 1e9),
        ];
        let cache = TensorCache::with_tiers(
            TensorCacheConfig {
                coalesce_segment_bytes: 2 * record_bytes,
                ..TensorCacheConfig::offload_everything()
            },
            Arc::new(tiers),
            IoEngine::tiered_with_bus(clock.clone(), links, 1e10),
            mem.clone(),
        );
        let scopes = std::array::from_fn(|i| ScopeInfo {
            path: format!("layer{i}"),
            seq: i as u64,
            micro_batch: 0,
        });
        TieredRig {
            clock,
            mem,
            dev,
            dram,
            cache,
            scopes,
            packed: Vec::with_capacity(max_records),
            record_bytes,
            dir,
        }
    }

    /// How a step's `n` records (a multiple of 32) split over the
    /// scopes, in forward order: each scope after the first holds as many
    /// as all before it, so the last holds half.
    fn sizes(n: usize) -> [usize; SCOPES] {
        std::array::from_fn(|i| n >> (SCOPES - i.max(1)))
    }

    /// One step of `n` records: its allocator calls, and whether it
    /// refused a write (a degraded step) or left bytes in the DRAM pool.
    fn step(&mut self, n: usize) -> (u64, bool, u64) {
        let sizes = TieredRig::sizes(n);
        let used = calls(|| {
            self.mem.reset();
            self.cache.begin_step();
            for (scope, &k) in self.scopes.iter_mut().zip(&sizes) {
                scope.seq += SCOPES as u64;
                self.cache.forward_pre(scope);
                for _ in 0..k {
                    let t = Tensor::symbolic([64, 64], &self.dev);
                    self.packed.push(self.cache.pack(&t));
                }
                self.cache.forward_post(scope);
            }
            self.clock.advance_by(1.0);
            self.cache.phase_changed(Phase::Backward);
            for (scope, &k) in self.scopes.iter().zip(&sizes).rev() {
                self.cache.backward_pre(scope);
                let from = self.packed.len() - k;
                for p in self.packed.drain(from..) {
                    drop(self.cache.unpack(&p));
                }
                self.cache.backward_post(scope);
            }
            self.cache.drain_stores();
            self.cache.flush();
        });
        let stats = self.cache.stats();
        assert_eq!(
            stats.offloaded_bytes,
            n as u64 * self.record_bytes,
            "every record offloads"
        );
        let degraded = stats.store_failures > 0 || self.cache.take_error().is_some();
        (used, degraded, self.dram.used_bytes())
    }

    /// Allocator calls building and dropping `n` tensors like a step's.
    fn tensors(&self, n: usize) -> u64 {
        calls(|| {
            for _ in 0..n {
                drop(Tensor::symbolic([64, 64], &self.dev));
            }
        })
    }
}

impl Drop for TieredRig {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// (j) A warm offload step allocates nothing per saved tensor in the
/// cache or the targets: over a DRAM tier spilling to a symbolic SSD, a
/// step of `2N` records makes no more allocator calls than a step of `N`
/// and the `N` extra tensors the test builds. The cache's and both
/// targets' maps key on the stamp and an inline shape, each record's key
/// reuses the shape buffer of one released before, segments reuse their
/// member lists, and scopes their record lists. Each scope takes back
/// the list its forward position filled last step, so the `2N` step
/// makes no allocator call at all, although its scopes hold twice what
/// they held a step before. No step is degraded and
/// the DRAM pool is empty after each flush: a key buffer recycled before
/// its tier entry was removed would leave entries behind, and the full
/// pool would refuse later writes. Measured: 0 more calls for 32 more
/// records, whose tensors alone cost 1 (the memory model's event log
/// growing; their storage headers are recycled), and 0 in either step;
/// 1 in each step while the lists went back in the scope map's order,
/// so a scope could get one shorter than it needs; 32 for 32 while each
/// tensor allocated its header; 161 (four a record beyond the tensors)
/// when each record built a fresh key `Vec` that every map insert
/// cloned.
#[test]
fn a_warm_tiered_offload_allocates_nothing_per_record() {
    const N: usize = 32;
    let mut rig = TieredRig::new(2 * N);
    for _ in 0..3 {
        let (_, degraded, left) = rig.step(2 * N);
        assert!(
            !degraded && left == 0,
            "a warm-up step degraded or left {left} B"
        );
    }
    let tensors = rig.tensors(N);
    let (small, small_degraded, small_left) = rig.step(N);
    let (big, big_degraded, big_left) = rig.step(2 * N);
    assert!(
        !small_degraded && !big_degraded,
        "a warm step refused a write into recovery"
    );
    assert_eq!(
        (small_left, big_left),
        (0, 0),
        "the DRAM pool kept bytes past the flush"
    );
    let per_records = big.saturating_sub(small);
    assert!(
        per_records <= tensors,
        "{N} more records cost {per_records} allocator calls, the {N} tensors \
         themselves {tensors}: {} calls a record in the cache and the targets",
        per_records.saturating_sub(tensors) as f64 / N as f64
    );
    assert_eq!(
        big,
        0,
        "a warm step of {} records in {SCOPES} scopes after one of {N} allocates: \
         a scope took back a record list shorter than it needs",
        2 * N
    );
}

/// Allocator calls and bytes a warm step of [`deep_tiered_config(4)`]
/// may make: the figures measured once the memory tracker lent its
/// footprint timeline, the allocator replay kept its pools and the
/// session its command schedule (2 calls, 360 B: the cache's stats
/// snapshot, its tier and class counter lists). While each step
/// allocated those, it made 9 calls and requested 20 136 B; while
/// `StepMetrics` copied the strategy label and formatted the model tag
/// every step, 12 calls and 20 167 B; while each scope and stateful op
/// allocated, 88 calls and 21 764 B; while each backward built its
/// scratch afresh, 93 calls and 24 368 B; while the session built a
/// graph every step, reserved the graph's three tape buffers and wired
/// the observer and the cache's hooks into it again, 99 calls and
/// 48 632 B.
///
/// [`deep_tiered_config(4)`]: ssdtrain_bench::deep_tiered_config
const SESSION_STEP_BUDGET: (u64, u64) = (2, 360);

/// (k) A session keeps its autograd graph across steps: a warm
/// `run_step` of `sym_deep_tiered`'s configuration at four layers
/// (symbolic, tiered, all three classes, the in-backward update),
/// profiled first and warmed three steps, stays within
/// [`SESSION_STEP_BUDGET`]. The figures repeat exactly from run to run:
/// every map of the cache hashes with one fixed seed.
#[test]
fn a_warm_session_step_reuses_its_graph() {
    let mut s = TrainSession::new(ssdtrain_bench::deep_tiered_config(4)).expect("session");
    s.profile_step().expect("a healthy profiling step");
    for _ in 0..3 {
        s.run_step().expect("a healthy step");
    }
    let mut used = 0;
    let ((), requested) = bytes(|| {
        used = calls(|| {
            s.run_step().expect("a healthy step");
        });
    });
    let (max_calls, max_bytes) = SESSION_STEP_BUDGET;
    assert!(
        used <= max_calls && requested <= max_bytes,
        "a warm session step makes {used} allocator calls requesting {requested} B, \
         over its budget of {max_calls} calls and {max_bytes} B"
    );
}
