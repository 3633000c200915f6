//! Typed errors for the offload path.
//!
//! Target I/O failures no longer panic inside the pack/unpack hooks:
//! they become [`OffloadError`] values that the cache either recovers
//! from (per [`crate::RecoveryPolicy`]) or surfaces to the training
//! loop at the end of the step.

use crate::id::TensorKey;
use std::fmt;
use std::io;

/// A failure on the offload path that recovery could not absorb.
#[derive(Debug)]
pub enum OffloadError {
    /// A store to the offload target failed (after any fallback
    /// attempts) and the policy was to fail the step.
    Store {
        /// Key of the tensor whose store failed.
        key: TensorKey,
        /// Size of the failed store.
        bytes: u64,
        /// Target that refused the write.
        target: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A load from the offload target failed even after retries; the
    /// activation bytes are unrecoverable.
    Load {
        /// Key of the tensor whose load failed.
        key: TensorKey,
        /// Size of the lost activation.
        bytes: u64,
        /// Target that could not produce the bytes.
        target: String,
        /// Read attempts made (1 + retries).
        attempts: u32,
        /// The last I/O error observed.
        source: io::Error,
    },
}

impl OffloadError {
    /// Whether the failure happened on the store (write) side.
    pub fn is_store(&self) -> bool {
        matches!(self, OffloadError::Store { .. })
    }
}

impl fmt::Display for OffloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OffloadError::Store {
                key,
                bytes,
                target,
                source,
            } => write!(
                f,
                "store of {key} ({bytes} B) to target `{target}` failed: {source}"
            ),
            OffloadError::Load {
                key,
                bytes,
                target,
                attempts,
                source,
            } => write!(
                f,
                "load of {key} ({bytes} B) from target `{target}` failed \
                 after {attempts} attempt(s): {source}"
            ),
        }
    }
}

impl std::error::Error for OffloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OffloadError::Store { source, .. } | OffloadError::Load { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> TensorKey {
        TensorKey {
            stamp: 7,
            shape: vec![2, 3],
        }
    }

    #[test]
    fn display_names_the_key_and_target() {
        let e = OffloadError::Store {
            key: key(),
            bytes: 24,
            target: "ssd".into(),
            source: io::Error::other("injected"),
        };
        let msg = e.to_string();
        assert!(msg.contains("ssd") && msg.contains("injected"), "{msg}");
        assert!(e.is_store());
    }

    #[test]
    fn load_error_reports_attempts() {
        let e = OffloadError::Load {
            key: key(),
            bytes: 24,
            target: "ssd".into(),
            attempts: 3,
            source: io::Error::other("injected"),
        };
        assert!(e.to_string().contains("3 attempt"));
        assert!(!e.is_store());
        assert!(std::error::Error::source(&e).is_some());
    }
}
