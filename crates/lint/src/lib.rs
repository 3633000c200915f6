//! `ssdtrain-lint` — the one source rule clippy cannot hold.
//!
//! Clippy holds the wall-clock ban and the panic-freedom of library
//! code (DESIGN.md §7). What is left is *typed errors*: no `pub fn`
//! signature may carry `Box<dyn Error>` or `Result<_, String>`. This
//! crate lexes every first-party `.rs` file with a small hand-written
//! scanner (no external parser — the vendor tree is offline-only) so
//! that comments and literals never count as code, and checks each
//! `pub fn` signature's tokens. `tests/source_rules.rs` runs it over
//! the workspace.

#![deny(missing_docs, clippy::allow_attributes_without_reason)]
// Library code returns typed errors instead of panicking (DESIGN.md §7).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable
    )
)]

pub mod lexer;
pub mod workspace;

/// The source rules, one module each.
pub mod rules {
    pub mod typed_errors;
}
