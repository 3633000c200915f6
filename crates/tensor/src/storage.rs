//! Shared, releasable tensor storage.
//!
//! A [`Storage`] is the analogue of PyTorch's `UntypedStorage`: several
//! tensors (views, transposes) may share one storage, and the storage's
//! payload can be *released* (after offloading) and later *restored*
//! (after reloading) while the handle itself stays alive. The SSDTrain
//! tensor cache keys its bookkeeping on the storage's first-seen *stamp*
//! (Section 3.3.1 of the paper), which is kept here as a write-once slot.

use crate::device::{Device, MemClass};
use crate::dtype::DType;
use parking_lot::{RwLock, RwLockReadGuard};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Unique identity of a storage allocation within the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageId(u64);

impl StorageId {
    fn next() -> StorageId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        StorageId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// Raw numeric value, for logs and reports.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for StorageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "storage#{}", self.0)
    }
}

#[derive(Debug)]
enum DataState {
    /// Real values are resident.
    Numeric(Vec<f32>),
    /// Shape-only execution: the storage is accounted as resident but holds
    /// no values.
    Symbolic,
    /// The payload was released (offloaded); accounted bytes are free.
    Released,
}

struct StorageInner {
    id: StorageId,
    numel: usize,
    dtype: DType,
    class: MemClass,
    device: Device,
    data: RwLock<DataState>,
    stamp: OnceLock<u64>,
}

/// A refcounted, releasable buffer of `numel` elements.
#[derive(Clone)]
pub struct Storage {
    inner: Arc<StorageInner>,
}

/// Weak handle to a [`Storage`], used by the tensor cache for data
/// forwarding (upgrade-if-still-alive, Section 3.3.2).
#[derive(Clone)]
pub struct WeakStorage(Weak<StorageInner>);

/// A read lock on a storage's payload, held while this handle lives.
///
/// The lock is not re-entrant: a thread holding a `PayloadRead` must not
/// lock the same storage again, which is why [`crate::Tensor::with_values_of`]
/// takes one per *distinct* storage.
pub(crate) struct PayloadRead<'a>(RwLockReadGuard<'a, DataState>);

impl PayloadRead<'_> {
    /// The values, or `None` when the storage is symbolic or released.
    pub(crate) fn values(&self) -> Option<&[f32]> {
        match &*self.0 {
            DataState::Numeric(v) => Some(v),
            _ => None,
        }
    }
}

impl Storage {
    /// Creates a numeric storage owning `data`.
    ///
    /// Reports `numel * dtype.byte_size()` bytes to the device tracker.
    ///
    /// # Panics
    /// Panics if the device is symbolic (numeric payloads are not allowed
    /// there — that would defeat the purpose of shape-only runs).
    pub fn numeric(data: Vec<f32>, dtype: DType, class: MemClass, device: &Device) -> Storage {
        assert!(
            !device.is_symbolic(),
            "numeric storage created on a symbolic device"
        );
        let numel = data.len();
        Self::build(DataState::Numeric(data), numel, dtype, class, device)
    }

    /// Creates a shape-only storage accounting for `numel` elements.
    pub fn symbolic(numel: usize, dtype: DType, class: MemClass, device: &Device) -> Storage {
        Self::build(DataState::Symbolic, numel, dtype, class, device)
    }

    fn build(
        state: DataState,
        numel: usize,
        dtype: DType,
        class: MemClass,
        device: &Device,
    ) -> Storage {
        let s = Storage {
            inner: Arc::new(StorageInner {
                id: StorageId::next(),
                numel,
                dtype,
                class,
                device: device.clone(),
                data: RwLock::new(state),
                stamp: OnceLock::new(),
            }),
        };
        device.notify_alloc(s.bytes(), class);
        s
    }

    /// Unique identity of this allocation.
    pub fn id(&self) -> StorageId {
        self.inner.id
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.inner.numel
    }

    /// Element type (controls accounted width).
    pub fn dtype(&self) -> DType {
        self.inner.dtype
    }

    /// Memory class recorded at creation.
    pub fn mem_class(&self) -> MemClass {
        self.inner.class
    }

    /// Device this storage lives on.
    pub fn device(&self) -> &Device {
        &self.inner.device
    }

    /// Accounted size in bytes (`numel * dtype.byte_size()`).
    pub fn bytes(&self) -> u64 {
        self.inner.numel as u64 * self.inner.dtype.byte_size()
    }

    /// Whether the payload currently occupies (simulated) device memory.
    pub fn is_resident(&self) -> bool {
        !matches!(*self.inner.data.read(), DataState::Released)
    }

    /// Whether real values are present.
    pub fn has_data(&self) -> bool {
        matches!(*self.inner.data.read(), DataState::Numeric(_))
    }

    /// Locks the payload for reading.
    pub(crate) fn read(&self) -> PayloadRead<'_> {
        PayloadRead(self.inner.data.read())
    }

    /// Runs `f` over the payload, or returns `None` when the storage is
    /// symbolic or released.
    pub fn with_data<R>(&self, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        self.read().values().map(f)
    }

    /// Runs `f` over the mutable payload, or returns `None` when symbolic
    /// or released.
    pub fn with_data_mut<R>(&self, f: impl FnOnce(&mut [f32]) -> R) -> Option<R> {
        match &mut *self.inner.data.write() {
            DataState::Numeric(v) => Some(f(v)),
            _ => None,
        }
    }

    /// Copies the payload out, if present.
    pub fn to_vec(&self) -> Option<Vec<f32>> {
        self.with_data(|d| d.to_vec())
    }

    /// Releases the payload, freeing accounted bytes.
    ///
    /// Idempotent: releasing a released storage is a no-op. This is the
    /// memory-reclaim step that offloading enables (Section 3.2).
    pub fn release(&self) {
        let mut guard = self.inner.data.write();
        if !matches!(*guard, DataState::Released) {
            *guard = DataState::Released;
            drop(guard);
            self.inner
                .device
                .notify_free(self.bytes(), self.inner.class);
        }
    }

    /// Restores a released storage with reloaded values.
    ///
    /// # Panics
    /// Panics if the storage is still resident, or if `data.len()` differs
    /// from `numel()`.
    pub fn restore_numeric(&self, data: Vec<f32>) {
        assert_eq!(data.len(), self.inner.numel, "restore with wrong length");
        let mut guard = self.inner.data.write();
        assert!(
            matches!(*guard, DataState::Released),
            "restore of a resident storage"
        );
        *guard = DataState::Numeric(data);
        drop(guard);
        self.inner
            .device
            .notify_alloc(self.bytes(), self.inner.class);
    }

    /// Restores a released storage in shape-only mode.
    ///
    /// # Panics
    /// Panics if the storage is still resident.
    pub fn restore_symbolic(&self) {
        let mut guard = self.inner.data.write();
        assert!(
            matches!(*guard, DataState::Released),
            "restore of a resident storage"
        );
        *guard = DataState::Symbolic;
        drop(guard);
        self.inner
            .device
            .notify_alloc(self.bytes(), self.inner.class);
    }

    /// Serialises the payload for offloading.
    ///
    /// `F32` storages serialise exactly (offload round trips are
    /// bit-identical); `F16`/`Bf16` storages serialise via a half-precision
    /// conversion so the file size equals the accounted size. Returns
    /// `None` for symbolic or released storages — symbolic offloads move
    /// accounted bytes only.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        self.with_data(|d| match self.inner.dtype {
            DType::F32 => d.iter().flat_map(|x| x.to_le_bytes()).collect(),
            DType::F16 | DType::Bf16 => d
                .iter()
                .flat_map(|x| f32_to_f16_bits(*x).to_le_bytes())
                .collect(),
            DType::U8 => d
                .iter()
                .map(|x| x.round().clamp(0.0, 255.0) as u8)
                .collect(),
        })
    }

    /// Decodes bytes previously produced by [`Storage::to_bytes`].
    ///
    /// # Panics
    /// Panics if `bytes` has the wrong length.
    pub fn decode_bytes(&self, bytes: &[u8]) -> Vec<f32> {
        match self.inner.dtype {
            DType::F32 => {
                assert_eq!(bytes.len(), self.inner.numel * 4, "bad byte length");
                bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect()
            }
            DType::F16 | DType::Bf16 => {
                assert_eq!(bytes.len(), self.inner.numel * 2, "bad byte length");
                bytes
                    .chunks_exact(2)
                    .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])))
                    .collect()
            }
            DType::U8 => {
                assert_eq!(bytes.len(), self.inner.numel, "bad byte length");
                bytes.iter().map(|b| *b as f32).collect()
            }
        }
    }

    /// Stamps this storage with a first-seen logical timestamp, returning
    /// the winning value (the existing one if already stamped).
    ///
    /// This is the core of the paper's `get_id()` deduplication: the stamp
    /// survives view/transpose re-wrapping because it lives on the storage.
    pub fn stamp_once(&self, stamp: u64) -> u64 {
        *self.inner.stamp.get_or_init(|| stamp)
    }

    /// The stamp, if one was assigned.
    pub fn stamp(&self) -> Option<u64> {
        self.inner.stamp.get().copied()
    }

    /// Downgrades to a weak handle.
    pub fn downgrade(&self) -> WeakStorage {
        WeakStorage(Arc::downgrade(&self.inner))
    }

    /// Number of strong handles alive.
    pub fn strong_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// True if both handles refer to the same allocation.
    pub fn ptr_eq(&self, other: &Storage) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl WeakStorage {
    /// Attempts to upgrade; succeeds while any strong handle is alive.
    pub fn upgrade(&self) -> Option<Storage> {
        self.0.upgrade().map(|inner| Storage { inner })
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("id", &self.inner.id)
            .field("numel", &self.inner.numel)
            .field("dtype", &self.inner.dtype)
            .field("class", &self.inner.class)
            .field("resident", &self.is_resident())
            .finish()
    }
}

impl fmt::Debug for WeakStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WeakStorage(alive: {})", self.0.strong_count() > 0)
    }
}

impl Drop for StorageInner {
    fn drop(&mut self) {
        if !matches!(*self.data.get_mut(), DataState::Released) {
            let bytes = self.numel as u64 * self.dtype.byte_size();
            self.device.notify_free(bytes, self.class);
        }
    }
}

/// Converts an `f32` to IEEE half-precision bits (round-to-nearest-even).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;
    if exp == 0xff {
        // Inf / NaN
        return sign | 0x7c00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow -> inf
    }
    if unbiased >= -14 {
        // Normal half.
        let half_exp = (unbiased + 15) as u32;
        let mut half_mant = mant >> 13;
        // Round to nearest even.
        let round_bits = mant & 0x1fff;
        if round_bits > 0x1000 || (round_bits == 0x1000 && half_mant & 1 == 1) {
            half_mant += 1;
        }
        let v = (half_exp << 10) + half_mant; // mantissa carry may bump exponent
        return sign | v as u16;
    }
    if unbiased < -25 {
        return sign; // underflow to zero
    }
    // Subnormal half.
    let full_mant = mant | 0x0080_0000;
    let shift = (-14 - unbiased + 13) as u32;
    let mut half_mant = full_mant >> shift;
    let rem = full_mant & ((1 << shift) - 1);
    let halfway = 1u32 << (shift - 1);
    if rem > halfway || (rem == halfway && half_mant & 1 == 1) {
        half_mant += 1;
    }
    sign | half_mant as u16
}

/// Converts IEEE half-precision bits to `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: normalise.
            let mut e = -1i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            let exp32 = (127 - 15 + e + 1) as u32;
            sign | (exp32 << 23) | ((m & 0x03ff) << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    #[derive(Default)]
    struct Net(AtomicI64);
    impl crate::device::MemTracker for Net {
        fn on_alloc(&self, b: u64, _c: MemClass) {
            self.0.fetch_add(b as i64, Ordering::Relaxed);
        }
        fn on_free(&self, b: u64, _c: MemClass) {
            self.0.fetch_sub(b as i64, Ordering::Relaxed);
        }
    }

    fn tracked_device() -> (Device, Arc<Net>) {
        let dev = Device::cpu();
        let t = Arc::new(Net::default());
        dev.set_tracker(t.clone());
        (dev, t)
    }

    #[test]
    fn bytes_accounted_by_dtype() {
        let dev = Device::cpu();
        let s = Storage::numeric(vec![0.0; 8], DType::F16, MemClass::Activation, &dev);
        assert_eq!(s.bytes(), 16);
        let s32 = Storage::numeric(vec![0.0; 8], DType::F32, MemClass::Activation, &dev);
        assert_eq!(s32.bytes(), 32);
    }

    #[test]
    fn release_restore_roundtrip_reports_traffic() {
        let (dev, t) = tracked_device();
        let s = Storage::numeric(vec![1.0, 2.0], DType::F32, MemClass::Activation, &dev);
        assert_eq!(t.0.load(Ordering::Relaxed), 8);
        s.release();
        assert_eq!(t.0.load(Ordering::Relaxed), 0);
        assert!(!s.is_resident());
        s.restore_numeric(vec![1.0, 2.0]);
        assert_eq!(t.0.load(Ordering::Relaxed), 8);
        assert_eq!(s.to_vec().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn drop_frees_resident_bytes_once() {
        let (dev, t) = tracked_device();
        {
            let s = Storage::numeric(vec![0.0; 4], DType::F32, MemClass::Workspace, &dev);
            s.release(); // freed here...
        } // ...and the drop must not double-free
        assert_eq!(t.0.load(Ordering::Relaxed), 0);
        {
            let _s = Storage::numeric(vec![0.0; 4], DType::F32, MemClass::Workspace, &dev);
        }
        assert_eq!(t.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn release_is_idempotent() {
        let (dev, t) = tracked_device();
        let s = Storage::numeric(vec![0.0; 4], DType::F32, MemClass::Activation, &dev);
        s.release();
        s.release();
        assert_eq!(t.0.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stamp_is_write_once() {
        let dev = Device::cpu();
        let s = Storage::numeric(vec![0.0], DType::F32, MemClass::Activation, &dev);
        assert_eq!(s.stamp(), None);
        assert_eq!(s.stamp_once(7), 7);
        assert_eq!(s.stamp_once(9), 7);
        assert_eq!(s.stamp(), Some(7));
    }

    #[test]
    fn weak_forwarding_semantics() {
        let dev = Device::cpu();
        let s = Storage::numeric(vec![3.0], DType::F32, MemClass::Activation, &dev);
        let w = s.downgrade();
        assert!(w.upgrade().is_some());
        drop(s);
        assert!(w.upgrade().is_none());
    }

    #[test]
    fn f32_bytes_roundtrip_is_exact() {
        let dev = Device::cpu();
        let vals = vec![1.5, -2.25, std::f32::consts::PI, f32::MIN_POSITIVE, 0.0];
        let s = Storage::numeric(vals.clone(), DType::F32, MemClass::Activation, &dev);
        let bytes = s.to_bytes().unwrap();
        assert_eq!(bytes.len() as u64, s.bytes());
        assert_eq!(s.decode_bytes(&bytes), vals);
    }

    #[test]
    fn f16_roundtrip_preserves_representable_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -0.25, 1024.0] {
            let bits = f32_to_f16_bits(v);
            assert_eq!(f16_bits_to_f32(bits), v, "value {v}");
        }
    }

    #[test]
    fn f16_special_values() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e9)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-30)), 0.0);
    }

    #[test]
    fn symbolic_storage_has_no_data_but_accounts_bytes() {
        let dev = Device::symbolic();
        let s = Storage::symbolic(1024, DType::F16, MemClass::Activation, &dev);
        assert!(s.is_resident());
        assert!(!s.has_data());
        assert_eq!(s.bytes(), 2048);
        assert!(s.to_bytes().is_none());
    }

    #[test]
    #[should_panic(expected = "numeric storage created on a symbolic device")]
    fn numeric_on_symbolic_device_panics() {
        let dev = Device::symbolic();
        let _ = Storage::numeric(vec![0.0], DType::F32, MemClass::Activation, &dev);
    }

    #[test]
    #[should_panic(expected = "restore of a resident storage")]
    fn restore_resident_panics() {
        let dev = Device::cpu();
        let s = Storage::numeric(vec![0.0], DType::F32, MemClass::Activation, &dev);
        s.restore_numeric(vec![1.0]);
    }
}
