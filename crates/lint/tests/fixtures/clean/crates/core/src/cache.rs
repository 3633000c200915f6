//! Clean fixture: hot-path code that propagates typed errors, plus the
//! near-misses the call graph must leave unresolved.
// ssdtrain-lint: hot-path

/// The typed error the clean fixture propagates.
#[derive(Debug)]
pub struct MissError;

/// Unpacks a record, surfacing a miss as a typed error.
pub fn unpack(slot: Option<u64>) -> Result<u64, MissError> {
    slot.ok_or(MissError)
}

/// Near-miss: `refresh` is implemented by two cold types (see
/// `util.rs`), one of which panics. Through an opaque receiver the name
/// resolves to nothing, so no panic is reached from here.
pub fn sweep(handles: &[Handle]) {
    for h in handles {
        h.refresh();
    }
}

/// Near-miss: trait-object dispatch over two implementors yields no
/// call edge, so the panicking implementor does not leak in.
pub fn poll(probe: &dyn Probe) -> u64 {
    probe.sample()
}
