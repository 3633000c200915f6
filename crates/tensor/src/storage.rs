//! Shared, releasable tensor storage.
//!
//! A [`Storage`] is the analogue of PyTorch's `UntypedStorage`: several
//! tensors (views, transposes) may share one storage, and the storage's
//! payload can be *released* (after offloading) and later *restored*
//! (after reloading) while the handle itself stays alive. The SSDTrain
//! tensor cache keys its bookkeeping on the storage's first-seen *stamp*
//! (Section 3.3.1 of the paper), which is kept here as a write-once slot.
//!
//! A storage's header (its identity, size, class, device and payload
//! slot) is one shared allocation. When the last handle drops, the
//! header's payload is freed and the header joins its thread's free list,
//! and the next storage built on that thread takes it with a fresh
//! identity and no stamp: a warm step asks the allocator for payloads
//! only.

use crate::device::{Device, MemClass};
use crate::dtype::DType;
use crate::reuse::Spares;
use parking_lot::{RwLock, RwLockReadGuard};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, LazyLock, OnceLock};

/// Unique identity of a storage allocation within the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StorageId(u64);

impl StorageId {
    fn next() -> StorageId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        StorageId(NEXT.fetch_add(1, Ordering::Relaxed))
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
    /// A [`MemClass`] as `u8`: written only by [`Storage::reclass`].
    class: AtomicU8,
    /// `None` only in a retired header (and in [`TAKEN`]), so that a
    /// pooled header keeps no session's device (nor its tracker) alive.
    device: Option<Device>,
    data: RwLock<DataState>,
    stamp: OnceLock<u64>,
}

impl StorageInner {
    /// The storage's device. A header is retired only when its last
    /// handle drops, so no storage ever reads the detached fallback.
    fn device(&self) -> &Device {
        self.device.as_ref().unwrap_or_else(|| &DETACHED)
    }

    /// Frees the payload: a resident one reports its bytes to the device
    /// and drops its values; a released one reports nothing.
    fn free_payload(&mut self) {
        let state = std::mem::replace(self.data.get_mut(), DataState::Released);
        if !matches!(state, DataState::Released) {
            let bytes = self.numel as u64 * self.dtype.byte_size();
            let class = MemClass::from_u8(*self.class.get_mut());
            self.device().notify_free(bytes, class);
        }
    }
}

/// What [`StorageInner::device`] answers for a retired header: a device
/// with no tracker.
static DETACHED: LazyLock<Device> = LazyLock::new(Device::cpu);

thread_local! {
    /// Headers of dropped storages, taken by the next [`Storage::build`]
    /// on this thread. A header built on another thread may retire here,
    /// so a thread that only drops what others built keeps nothing.
    static HEADERS: RefCell<Spares<Arc<StorageInner>>> = const { RefCell::new(Spares::new()) };
}

/// A refcounted, releasable buffer of `numel` elements.
#[derive(Clone)]
pub struct Storage {
    /// `None` only once `drop` has taken the handle: an `Option`, so the
    /// last handle moves its header onto the free list with no refcount
    /// operation (a clone and a drop cost ≈ 15 ns a storage).
    inner: Option<Arc<StorageInner>>,
}

/// What [`Storage::inner`] answers for a taken handle, which nothing
/// reads: `drop` is its last use.
static TAKEN: StorageInner = StorageInner {
    id: StorageId(0),
    numel: 0,
    dtype: DType::F32,
    class: AtomicU8::new(0),
    device: None,
    data: RwLock::new(DataState::Released),
    stamp: OnceLock::new(),
};

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
    /// The header behind this handle.
    fn inner(&self) -> &StorageInner {
        self.inner.as_deref().unwrap_or(&TAKEN)
    }

    /// Creates a numeric storage owning `data`.
    ///
    /// Reports `numel * dtype.byte_size()` bytes to the device tracker.
    ///
    /// # Panics
    /// Panics if the device is symbolic (numeric payloads are not allowed
    /// there — that would defeat the purpose of shape-only runs).
    pub(crate) fn numeric(
        data: Vec<f32>,
        dtype: DType,
        class: MemClass,
        device: &Device,
    ) -> Storage {
        assert!(
            !device.is_symbolic(),
            "numeric storage created on a symbolic device"
        );
        let numel = data.len();
        Self::build(DataState::Numeric(data), numel, dtype, class, device)
    }

    /// Creates a shape-only storage accounting for `numel` elements.
    pub(crate) fn symbolic(
        numel: usize,
        dtype: DType,
        class: MemClass,
        device: &Device,
    ) -> Storage {
        Self::build(DataState::Symbolic, numel, dtype, class, device)
    }

    /// The one constructor: a fresh identity, no stamp, in a retired
    /// header when the thread has one and a new allocation otherwise.
    fn build(
        state: DataState,
        numel: usize,
        dtype: DType,
        class: MemClass,
        device: &Device,
    ) -> Storage {
        let fresh = StorageInner {
            id: StorageId::next(),
            numel,
            dtype,
            class: AtomicU8::new(class.as_u8()),
            device: Some(device.clone()),
            data: RwLock::new(state),
            stamp: OnceLock::new(),
        };
        let inner = match HEADERS.try_with(|h| h.borrow_mut().take()) {
            Ok(Some(mut header)) => match Arc::get_mut(&mut header) {
                Some(slot) => {
                    *slot = fresh;
                    header
                }
                None => Arc::new(fresh),
            },
            _ => Arc::new(fresh),
        };
        let s = Storage { inner: Some(inner) };
        device.notify_alloc(s.bytes(), class);
        s
    }

    /// Unique identity of this allocation.
    pub fn id(&self) -> StorageId {
        self.inner().id
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.inner().numel
    }

    /// Element type (controls accounted width).
    pub(crate) fn dtype(&self) -> DType {
        self.inner().dtype
    }

    /// Memory class: the one recorded at creation, unless
    /// [`crate::Tensor::into_class`] re-classed the storage since.
    pub fn mem_class(&self) -> MemClass {
        MemClass::from_u8(self.inner().class.load(Ordering::Relaxed))
    }

    /// Moves the storage to `class`. A resident storage's bytes leave its
    /// old class and join the new one at the same instant; a released one
    /// reports nothing, since it holds no bytes. The caller holds the
    /// storage's only handle, so nothing releases or restores it meanwhile.
    pub(crate) fn reclass(&self, class: MemClass) {
        let old = MemClass::from_u8(self.inner().class.swap(class.as_u8(), Ordering::Relaxed));
        if old != class && self.is_resident() {
            self.device().notify_free(self.bytes(), old);
            self.device().notify_alloc(self.bytes(), class);
        }
    }

    /// Device this storage lives on.
    pub(crate) fn device(&self) -> &Device {
        self.inner().device()
    }

    /// Accounted size in bytes (`numel * dtype.byte_size()`).
    pub(crate) fn bytes(&self) -> u64 {
        self.inner().numel as u64 * self.inner().dtype.byte_size()
    }

    /// Whether the payload currently occupies (simulated) device memory.
    pub(crate) fn is_resident(&self) -> bool {
        !matches!(*self.inner().data.read(), DataState::Released)
    }

    /// Whether real values are present.
    pub(crate) fn has_data(&self) -> bool {
        matches!(*self.inner().data.read(), DataState::Numeric(_))
    }

    /// Locks the payload for reading.
    pub(crate) fn read(&self) -> PayloadRead<'_> {
        PayloadRead(self.inner().data.read())
    }

    /// Runs `f` over the payload, or returns `None` when the storage is
    /// symbolic or released.
    pub fn with_data<R>(&self, f: impl FnOnce(&[f32]) -> R) -> Option<R> {
        self.read().values().map(f)
    }

    /// Runs `f` over the mutable payload, or returns `None` when symbolic
    /// or released.
    pub(crate) fn with_data_mut<R>(&self, f: impl FnOnce(&mut [f32]) -> R) -> Option<R> {
        match &mut *self.inner().data.write() {
            DataState::Numeric(v) => Some(f(v)),
            _ => None,
        }
    }

    /// Moves the values out of a numeric storage and leaves it an empty
    /// husk: still resident in the accounts, so the free is reported when
    /// the last handle drops, as it would have been with the values in
    /// place. `None` for a symbolic or released storage. The caller holds
    /// the only handle ([`crate::Tensor::owns_storage`]) and reads the husk
    /// no more.
    pub(crate) fn take_values(&self) -> Option<Vec<f32>> {
        match &mut *self.inner().data.write() {
            DataState::Numeric(values) => Some(std::mem::take(values)),
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
        self.release_values();
    }

    /// Releases the payload like [`Storage::release`] and hands back the
    /// freed values, so a caller can reuse their allocation. `None` for a
    /// symbolic storage, and for one already released.
    pub fn release_values(&self) -> Option<Vec<f32>> {
        let mut guard = self.inner().data.write();
        if matches!(*guard, DataState::Released) {
            return None;
        }
        let state = std::mem::replace(&mut *guard, DataState::Released);
        drop(guard);
        self.device().notify_free(self.bytes(), self.mem_class());
        match state {
            DataState::Numeric(values) => Some(values),
            _ => None,
        }
    }

    /// Restores a released storage with reloaded values.
    ///
    /// # Panics
    /// Panics if the storage is still resident, or if `data.len()` differs
    /// from `numel()`.
    pub fn restore_numeric(&self, data: Vec<f32>) {
        assert_eq!(data.len(), self.inner().numel, "restore with wrong length");
        let mut guard = self.inner().data.write();
        assert!(
            matches!(*guard, DataState::Released),
            "restore of a resident storage"
        );
        *guard = DataState::Numeric(data);
        drop(guard);
        self.device().notify_alloc(self.bytes(), self.mem_class());
    }

    /// Restores a released storage in shape-only mode.
    ///
    /// # Panics
    /// Panics if the storage is still resident.
    pub fn restore_symbolic(&self) {
        let mut guard = self.inner().data.write();
        assert!(
            matches!(*guard, DataState::Released),
            "restore of a resident storage"
        );
        *guard = DataState::Symbolic;
        drop(guard);
        self.device().notify_alloc(self.bytes(), self.mem_class());
    }

    /// Serialises the payload for offloading into a fresh buffer; see
    /// [`Storage::append_bytes`] for the encoding. Returns `None` for
    /// symbolic or released storages — symbolic offloads move accounted
    /// bytes only.
    pub fn to_bytes(&self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.append_bytes(&mut out).then_some(out)
    }

    /// Serialises the payload onto the end of `out`, leaving what `out`
    /// already holds in place, so one reused buffer can stage many
    /// payloads back to back.
    ///
    /// `F32` storages serialise exactly (offload round trips are
    /// bit-identical); `F16` storages serialise via a half-precision
    /// conversion so the byte count equals the accounted size. Returns
    /// `false` and appends nothing for a symbolic or released storage.
    pub fn append_bytes(&self, out: &mut Vec<u8>) -> bool {
        self.with_data(|d| {
            let start = out.len();
            out.resize(start + self.bytes() as usize, 0);
            let dst = &mut out[start..];
            match self.inner().dtype {
                DType::F32 => {
                    for (c, x) in dst.chunks_exact_mut(4).zip(d) {
                        c.copy_from_slice(&x.to_le_bytes());
                    }
                }
                DType::F16 => {
                    for (c, x) in dst.chunks_exact_mut(2).zip(d) {
                        c.copy_from_slice(&f32_to_f16_bits(*x).to_le_bytes());
                    }
                }
                DType::U8 => {
                    for (b, x) in dst.iter_mut().zip(d) {
                        *b = x.round().clamp(0.0, 255.0) as u8;
                    }
                }
            }
        })
        .is_some()
    }

    /// Decodes bytes previously produced by [`Storage::to_bytes`] into a
    /// fresh buffer; see [`Storage::decode_into`].
    ///
    /// # Panics
    /// Panics if `bytes` has the wrong length.
    pub fn decode_bytes(&self, bytes: &[u8]) -> Vec<f32> {
        self.decode_into(bytes, Vec::new())
    }

    /// Decodes bytes previously produced by [`Storage::to_bytes`] into
    /// `out`, replacing what it held. The decode allocates only when
    /// `out`'s capacity is short of `numel()` elements, so a buffer
    /// another storage released ([`Storage::release_values`]) takes a
    /// reload without a new allocation.
    ///
    /// # Panics
    /// Panics if `bytes` has the wrong length.
    pub fn decode_into(&self, bytes: &[u8], mut out: Vec<f32>) -> Vec<f32> {
        out.clear();
        match self.inner().dtype {
            DType::F32 => {
                assert_eq!(bytes.len(), self.inner().numel * 4, "bad byte length");
                out.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                );
            }
            DType::F16 => {
                assert_eq!(bytes.len(), self.inner().numel * 2, "bad byte length");
                out.extend(
                    bytes
                        .chunks_exact(2)
                        .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]))),
                );
            }
            DType::U8 => {
                assert_eq!(bytes.len(), self.inner().numel, "bad byte length");
                out.extend(bytes.iter().map(|b| *b as f32));
            }
        }
        out
    }

    /// Stamps this storage with a first-seen logical timestamp, returning
    /// the winning value (the existing one if already stamped).
    ///
    /// This is the core of the paper's `get_id()` deduplication: the stamp
    /// survives view/transpose re-wrapping because it lives on the storage.
    pub fn stamp_once(&self, stamp: u64) -> u64 {
        *self.inner().stamp.get_or_init(|| stamp)
    }

    /// The stamp, if one was assigned.
    pub(crate) fn stamp(&self) -> Option<u64> {
        self.inner().stamp.get().copied()
    }

    /// Number of strong handles alive.
    pub fn strong_count(&self) -> usize {
        self.inner.as_ref().map_or(0, Arc::strong_count)
    }

    /// True if both handles refer to the same allocation.
    pub fn ptr_eq(&self, other: &Storage) -> bool {
        std::ptr::eq(self.inner(), other.inner())
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("id", &self.inner().id)
            .field("numel", &self.inner().numel)
            .field("dtype", &self.inner().dtype)
            .field("class", &self.mem_class())
            .field("resident", &self.is_resident())
            .finish()
    }
}

impl Drop for Storage {
    /// On the last handle, frees the payload at this instant, as the
    /// header's own drop would, detaches the header from its device and
    /// keeps it for the thread's next storage. During thread teardown the
    /// header is simply freed.
    fn drop(&mut self) {
        let Some(mut header) = self.inner.take() else {
            return;
        };
        // A load first: most handles dropped are not the last, and
        // `Arc::get_mut` costs a locked instruction even then.
        if Arc::strong_count(&header) != 1 {
            return;
        }
        let Some(inner) = Arc::get_mut(&mut header) else {
            return;
        };
        inner.free_payload();
        inner.device = None;
        let _ = HEADERS.try_with(move |h| h.borrow_mut().give(header));
    }
}

impl Drop for StorageInner {
    /// Frees the payload of a header whose last drop no [`Storage`] saw
    /// as the last: two handles dropped on two threads at once. Any other
    /// header's payload was freed when it was retired.
    fn drop(&mut self) {
        self.free_payload();
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
    fn release_values_hands_the_values_back_once() {
        let (dev, t) = tracked_device();
        let s = Storage::numeric(vec![1.0, 2.0, 3.0], DType::F32, MemClass::Activation, &dev);
        assert_eq!(s.release_values(), Some(vec![1.0, 2.0, 3.0]));
        assert_eq!(t.0.load(Ordering::Relaxed), 0, "one free");
        assert!(!s.is_resident());
        assert_eq!(s.release_values(), None);
        assert_eq!(t.0.load(Ordering::Relaxed), 0, "and only one");
        let sym = Storage::symbolic(4, DType::F32, MemClass::Activation, &Device::symbolic());
        assert_eq!(sym.release_values(), None);
        assert!(!sym.is_resident());
    }

    #[test]
    fn decode_into_matches_decode_bytes_and_keeps_its_buffer() {
        let dev = Device::cpu();
        let vals = vec![1.5, -2.25, 300.7, 0.4, 65504.0, 7.0];
        for dtype in [DType::F32, DType::F16, DType::U8] {
            let s = Storage::numeric(vals.clone(), dtype, MemClass::Activation, &dev);
            let bytes = s.to_bytes().unwrap();
            let spare = vec![9.0f32; vals.len()];
            let at = spare.as_ptr();
            let out = s.decode_into(&bytes, spare);
            assert_eq!(out, s.decode_bytes(&bytes), "{dtype}");
            assert_eq!(
                out.as_ptr(),
                at,
                "{dtype}: decoded into the buffer it was given"
            );
        }
    }

    /// A tracker logging every event as `(+bytes | -bytes, class)`.
    #[derive(Default)]
    struct Log(parking_lot::Mutex<Vec<(i64, MemClass)>>);
    impl crate::device::MemTracker for Log {
        fn on_alloc(&self, b: u64, c: MemClass) {
            self.0.lock().push((b as i64, c));
        }
        fn on_free(&self, b: u64, c: MemClass) {
            self.0.lock().push((-(b as i64), c));
        }
    }

    #[test]
    fn a_recycled_header_is_a_new_storage() {
        let dev = Device::cpu();
        let old = Storage::numeric(vec![1.0; 4], DType::F32, MemClass::Activation, &dev);
        old.stamp_once(7);
        let (old_id, header): (_, *const StorageInner) = (old.id(), old.inner());
        drop(old);
        let new = Storage::symbolic(8, DType::F16, MemClass::Workspace, &Device::symbolic());
        assert!(std::ptr::eq(new.inner(), header), "the header was recycled");
        assert!(new.id() > old_id, "a fresh identity");
        assert_eq!(new.stamp(), None, "no stamp to dedup against");
        assert_eq!(
            (new.numel(), new.dtype(), new.mem_class()),
            (8, DType::F16, MemClass::Workspace)
        );
        assert!(new.is_resident() && !new.has_data());
        assert!(new.device().is_symbolic());
    }

    #[test]
    fn the_tracker_sees_each_event_when_it_happens() {
        use MemClass::{Activation as A, Workspace as W};
        let dev = Device::cpu();
        let log = Arc::new(Log::default());
        dev.set_tracker(log.clone());
        let a = Storage::numeric(vec![0.0; 4], DType::F32, A, &dev);
        let b = Storage::numeric(vec![0.0; 2], DType::F16, W, &dev);
        let a2 = a.clone();
        drop(a); // a second handle lives: nothing freed
        a2.release();
        let c = Storage::numeric(vec![0.0; 3], DType::F32, A, &dev);
        drop(a2); // released: nothing more to free
        b.reclass(A);
        drop(b);
        c.release();
        c.restore_numeric(vec![1.0; 3]);
        let d = Storage::numeric(vec![0.0; 1], DType::U8, W, &dev);
        drop(c);
        drop(d);
        let want = [
            (16, A),
            (4, W),
            (-16, A),
            (12, A),
            (-4, W),
            (4, A),
            (-4, A),
            (-12, A),
            (12, A),
            (1, W),
            (-12, A),
            (-1, W),
        ];
        assert_eq!(*log.0.lock(), want);
    }

    #[test]
    fn a_husk_reports_its_free_when_its_last_handle_drops() {
        use MemClass::Activation as A;
        let dev = Device::cpu();
        let log = Arc::new(Log::default());
        dev.set_tracker(log.clone());
        let s = Storage::numeric(vec![1.0, 2.0, 3.0, 4.0], DType::F32, A, &dev);
        assert_eq!(s.take_values(), Some(vec![1.0, 2.0, 3.0, 4.0]));
        assert!(s.is_resident(), "a husk is still accounted");
        assert_eq!(
            *log.0.lock(),
            [(16, A)],
            "taking the values reports nothing"
        );
        drop(s);
        assert_eq!(
            *log.0.lock(),
            [(16, A), (-16, A)],
            "the drop reports the free"
        );
        let sym = Storage::symbolic(4, DType::F32, A, &Device::symbolic());
        assert_eq!(sym.take_values(), None);
    }

    #[test]
    fn a_pooled_header_keeps_no_device_alive() {
        let tracker = Arc::new(Net::default());
        {
            let dev = Device::cpu();
            dev.set_tracker(tracker.clone());
            let s = Storage::numeric(vec![0.0; 4], DType::F32, MemClass::Activation, &dev);
            let views = [s.clone(), s.clone()];
            drop(s);
            drop(views);
            let _kept = Storage::symbolic(4, DType::F32, MemClass::Activation, &dev);
        }
        assert_eq!(tracker.0.load(Ordering::Relaxed), 0);
        assert_eq!(Arc::strong_count(&tracker), 1, "the device was freed");
    }

    #[test]
    fn a_storage_dropped_on_another_thread_is_freed() {
        let (dev, t) = tracked_device();
        let s = Storage::numeric(vec![0.0; 4], DType::F32, MemClass::Activation, &dev);
        let kept = s.clone();
        let resident = std::thread::spawn(move || {
            drop(s);
            Storage::symbolic(2, DType::F32, MemClass::Activation, &Device::symbolic())
        });
        let other = resident.join().expect("the thread ran");
        assert_eq!(t.0.load(Ordering::Relaxed), 16, "one handle still lives");
        let dropper = std::thread::spawn(move || {
            drop(kept);
            HEADERS.with(|h| h.borrow().len())
        });
        let pooled = dropper.join().expect("the thread ran");
        assert_eq!(pooled, 0, "a thread that built nothing keeps nothing");
        assert_eq!(t.0.load(Ordering::Relaxed), 0, "freed on the last drop");
        assert!(other.is_resident());
        drop(other);
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
    fn f32_bytes_roundtrip_is_exact() {
        let dev = Device::cpu();
        let vals = vec![1.5, -2.25, std::f32::consts::PI, f32::MIN_POSITIVE, 0.0];
        let s = Storage::numeric(vals.clone(), DType::F32, MemClass::Activation, &dev);
        let bytes = s.to_bytes().unwrap();
        assert_eq!(bytes.len() as u64, s.bytes());
        assert_eq!(s.decode_bytes(&bytes), vals);
    }

    /// The per-element encoding, spelled out independently of the
    /// staged encoder.
    fn reference_bytes(vals: &[f32], dtype: DType) -> Vec<u8> {
        match dtype {
            DType::F32 => vals.iter().flat_map(|x| x.to_le_bytes()).collect(),
            DType::F16 => vals
                .iter()
                .flat_map(|x| f32_to_f16_bits(*x).to_le_bytes())
                .collect(),
            DType::U8 => vals
                .iter()
                .map(|x| x.round().clamp(0.0, 255.0) as u8)
                .collect(),
        }
    }

    #[test]
    fn append_bytes_matches_to_bytes_for_every_dtype() {
        let dev = Device::cpu();
        let vals = vec![1.5, -2.25, 300.7, 0.4, 65504.0, 7.0];
        for dtype in [DType::F32, DType::F16, DType::U8] {
            let s = Storage::numeric(vals.clone(), dtype, MemClass::Activation, &dev);
            let mut out = Vec::new();
            assert!(s.append_bytes(&mut out), "{dtype}");
            assert_eq!(out, reference_bytes(&vals, dtype), "{dtype}");
            assert_eq!(s.to_bytes().as_ref(), Some(&out), "{dtype}");
            assert_eq!(out.len() as u64, s.bytes(), "{dtype}");
        }
    }

    #[test]
    fn append_bytes_appends_after_existing_content() {
        let dev = Device::cpu();
        let a = Storage::numeric(vec![1.0, 2.0], DType::F32, MemClass::Activation, &dev);
        let b = Storage::numeric(vec![3.0, 4.0, 5.0], DType::F16, MemClass::Activation, &dev);
        let mut out = vec![0xAB; 3];
        assert!(a.append_bytes(&mut out));
        assert!(b.append_bytes(&mut out));
        let mut want = vec![0xAB; 3];
        want.extend(a.to_bytes().unwrap());
        want.extend(b.to_bytes().unwrap());
        assert_eq!(out, want);
        assert_eq!(b.decode_bytes(&out[11..]), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn append_bytes_leaves_out_untouched_without_a_payload() {
        let sym = Storage::symbolic(8, DType::F32, MemClass::Activation, &Device::symbolic());
        let dev = Device::cpu();
        let released = Storage::numeric(vec![1.0; 8], DType::F32, MemClass::Activation, &dev);
        released.release();
        for s in [&sym, &released] {
            let mut out = vec![9u8; 5];
            assert!(!s.append_bytes(&mut out));
            assert_eq!(out, vec![9u8; 5]);
            assert!(s.to_bytes().is_none());
        }
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
