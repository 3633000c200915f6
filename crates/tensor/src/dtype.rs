//! Element types and their accounted widths.

use std::fmt;

/// Element type of a tensor.
///
/// Arithmetic is always carried out in `f32`; the dtype only determines the
/// number of bytes a tensor *accounts for* in device memory and in transfer
/// sizes, mirroring the paper's FP16 training setup (Section 4.1) where
/// activations are two bytes per element.
///
/// ```
/// use ssdtrain_tensor::DType;
/// assert_eq!(DType::F16.byte_size(), 2);
/// assert_eq!(DType::F32.byte_size(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// IEEE half precision. The paper trains with pure FP16 (Section 4.1).
    #[default]
    F16,
    /// IEEE single precision.
    F32,
    /// One-byte integer values in `0..=255` (dropout masks are bool in
    /// PyTorch; a `U8` tensor stores small integers exactly).
    U8,
}

impl DType {
    /// Accounted width of one element in bytes.
    pub const fn byte_size(self) -> u64 {
        match self {
            DType::U8 => 1,
            DType::F16 => 2,
            DType::F32 => 4,
        }
    }

    /// Short lowercase name (`"f16"`, `"f32"`, `"u8"`).
    pub const fn name(self) -> &'static str {
        match self {
            DType::F16 => "f16",
            DType::F32 => "f32",
            DType::U8 => "u8",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_sizes_match_hardware_widths() {
        assert_eq!(DType::F16.byte_size(), 2);
        assert_eq!(DType::F32.byte_size(), 4);
    }

    #[test]
    fn display_is_lowercase() {
        assert_eq!(DType::F16.to_string(), "f16");
        assert_eq!(DType::F32.to_string(), "f32");
    }

    #[test]
    fn default_is_f16() {
        assert_eq!(DType::default(), DType::F16);
    }
}
