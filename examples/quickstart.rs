//! Quickstart: train a small GPT numerically with SSDTrain activation
//! offloading and verify the losses are bit-identical to keeping
//! activations in GPU memory.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Pass `--trace <path>` to additionally run a traced two-step demo (with
//! a small injected write fault, absorbed bit-identically by the
//! keep-resident policy), print its per-step text summary and write its
//! timeline as Chrome-trace JSON — open it in `chrome://tracing` or
//! <https://ui.perfetto.dev>:
//!
//! ```sh
//! cargo run --example quickstart -- --trace /tmp/step.json
//! ```

use ssdtrain::{
    chrome_trace_json, explain, text_summary, OffloadClass, PlacementStrategy, RecoveryPolicy,
    TensorCacheConfig, TraceCategory, TraceSink,
};
use ssdtrain_models::ModelConfig;
use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};
use ssdtrain_train::{SessionConfig, TrainSession};

fn session(strategy: PlacementStrategy) -> std::io::Result<TrainSession> {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .strategy(strategy)
        // Offload even tiny tensors so this toy model exercises the
        // whole path (real runs keep the paper's 2^20-element floor).
        .cache(TensorCacheConfig::offload_everything())
        .seed(7)
        .build()
        .expect("valid config");
    TrainSession::new(cfg)
}

/// Same run, but offloading every class — activations, gradients and
/// momentum — with the optimizer update overlapped into backward: each
/// parameter is updated the moment autograd finalises its gradient, so
/// the gradient is consumed in place (its lane reads 0 B) and only the
/// momentum rides the tiers. Still bit-identical: offload classes and
/// the overlap are performance knobs, not numerics knobs.
fn all_classes_session() -> std::io::Result<TrainSession> {
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(TensorCacheConfig::offload_everything())
        .offload(OffloadClass::Gradient, true)
        .offload(OffloadClass::OptimizerState, true)
        .overlap_optimizer(true)
        .momentum(0.9)
        .seed(7)
        .build()
        .expect("valid config");
    TrainSession::new(cfg)
}

fn trace_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(std::path::PathBuf::from(p));
        }
    }
    None
}

/// A traced two-step run: fixed seed, keep-resident recovery and one
/// injected write fault, so the timeline shows every lane — stores,
/// loads, prefetches, dedup hits, stage scopes, the fault and its
/// recovery — while the numerics stay bit-identical to a healthy run.
fn traced_demo(path: &std::path::Path) -> std::io::Result<()> {
    let sink = TraceSink::enabled();
    let mut cache = TensorCacheConfig::offload_everything();
    cache.recovery = RecoveryPolicy::KeepResident;
    let fault =
        FaultPlan::new(42).with_fault(FaultTrigger::NthOp { nth: 6 }, FaultKind::WriteError);
    let cfg = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .cache(cache)
        .seed(7)
        .fault(fault)
        .trace(sink.clone())
        .build()
        .expect("valid config");
    let mut s = TrainSession::new(cfg)?;
    let per_step: Vec<_> = (0..2)
        .map(|_| {
            s.run_step()
                .expect("keep-resident absorbs the injected fault")
        })
        .collect();

    // The trace must account for every byte the cache reported moving,
    // and its parts must add up to each step.
    let events = sink.events();
    for (table, m) in explain(&events).iter().zip(&per_step) {
        let step = table.step;
        assert_eq!(table.bytes, m.offload.step_bytes(), "step {step} bytes");
        let parts = table.terms_secs();
        assert!((parts - m.step_secs).abs() < 1e-9, "step {step} time");
    }
    let categories: std::collections::BTreeSet<&str> =
        events.iter().map(|e| e.cat.as_str()).collect();
    for required in [
        TraceCategory::Store,
        TraceCategory::Load,
        TraceCategory::Prefetch,
        TraceCategory::Dedup,
        TraceCategory::Stage,
        TraceCategory::Fault,
        TraceCategory::Recovery,
    ] {
        assert!(
            categories.contains(required.as_str()),
            "missing category {required:?} in {categories:?}"
        );
    }

    std::fs::write(path, chrome_trace_json(&events))?;
    println!("\n{}", text_summary(&events));
    println!(
        "traced {} events over {} categories; chrome trace written to {}",
        events.len(),
        categories.len(),
        path.display()
    );
    Ok(())
}

fn main() -> std::io::Result<()> {
    let mut keep = session(PlacementStrategy::Keep)?;
    let mut offload = session(PlacementStrategy::Offload)?;

    println!("step |   keep loss | offload loss | identical");
    for step in 0..5 {
        let mk = keep.run_step().expect("step");
        let mo = offload.run_step().expect("step");
        println!(
            "{step:>4} | {:>11.6} | {:>12.6} | {}",
            mk.loss,
            mo.loss,
            if mk.loss == mo.loss { "yes" } else { "NO" }
        );
        assert_eq!(mk.loss, mo.loss, "offloading must not change numerics");
    }

    let stats = offload
        .cache()
        .expect("offload session has a cache")
        .stats();
    println!("\nlast step went through the tensor cache:");
    println!("  stores submitted : {}", stats.store_jobs);
    println!("  bytes offloaded  : {}", stats.offloaded_bytes);
    println!("  bytes reloaded   : {}", stats.reloaded_bytes);
    println!("  dedup hits       : {}", stats.dedup_hits);
    println!("  forwarded        : {}", stats.forwarded);
    println!("  exposed stall    : {:.6}s", stats.stall_secs);
    println!("\nactivations round-tripped through real spill files, gradients unchanged.");

    // Now widen the offload to every class and update inside backward:
    // momentum rides the same cache, gradients never leave the GPU, and
    // the update hides under backward's compute. A plain in-memory
    // momentum run is the reference.
    let inmem = SessionConfig::builder()
        .model(ModelConfig::tiny_gpt())
        .batch_size(2)
        .strategy(PlacementStrategy::Keep)
        .momentum(0.9)
        .seed(7)
        .build()
        .expect("valid config");
    let mut inmem = TrainSession::new(inmem)?;
    let mut all = all_classes_session()?;
    println!("\nall-class offload (momentum offloaded, update inside backward):");
    for step in 0..5 {
        let mi = inmem.run_step().expect("step");
        let ma = all.run_step().expect("step");
        assert_eq!(
            mi.loss, ma.loss,
            "class offload and overlap must not change numerics"
        );
        println!(
            "{step:>4} | loss {:>11.6} | identical | opt exposed {:.6}s",
            ma.loss, ma.opt_exposed_secs
        );
    }
    let stats = all.cache().expect("cache").stats();
    for class in stats.classes.iter() {
        println!(
            "  class {:<15}: {:>8} B stored over {} jobs, {:>8} B reloaded",
            class.class, class.offloaded_bytes, class.stores, class.reloaded_bytes
        );
    }

    if let Some(path) = trace_path_from_args() {
        traced_demo(&path)?;
    }
    Ok(())
}
