//! Seeded fixture: `panic-free-hot-path` violations in a hot-path file.
// ssdtrain-lint: hot-path

/// Panics on a cache miss (seeded violation, line 6).
pub fn unpack_must_not_panic(slot: Option<u64>) -> u64 {
    slot.unwrap()
}

/// A properly suppressed panic site: counted, never reported.
pub fn suppressed_site(slot: Option<u64>) -> u64 {
    slot.expect("fixture") // ssdtrain-lint: allow(panic-free-hot-path): seeded fixture proving suppression works
}

// ssdtrain-lint: allow(panic-free-hot-path)
pub fn malformed_allow_above(slot: Option<u64>) -> u64 {
    slot.unwrap()
}
