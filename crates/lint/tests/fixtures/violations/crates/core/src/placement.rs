//! Seeded fixture: a *transitive* `panic-free-hot-path` violation —
//! the panic sits two resolved calls outside the hot set, so only the
//! effect inference can see it from here.
// ssdtrain-lint: hot-path

/// Hot-path entry; the unwrap is two hops away (seeded violation,
/// line 9).
pub fn place(bytes: Option<u64>) -> u64 {
    encode_block(bytes)
}
