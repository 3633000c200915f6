//! Offload targets: where activation bytes go (paper Figure 5).
//!
//! [`SsdTarget`] writes real files under a spill directory — functional
//! round trips actually cross the filesystem — and meters SSD wear.
//! [`CpuTarget`] models the host-pinned-memory pool of the paper's CPU
//! offloader (kept "for future work on clusters with massive remote SSD
//! storage"); its pool size is fixed up front, mirroring the profiling-
//! based allocation.

use crate::id::{InlineKey, TensorKey};
use crate::HashMap;
use parking_lot::Mutex;
use ssdtrain_simhw::WearMeter;
use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Read as _};
use std::path::{Path, PathBuf};

/// One member of a coalesced segment write: key, optional payload
/// (`None` in symbolic execution), and length in bytes.
pub type BatchItem<'a> = (&'a TensorKey, Option<&'a [u8]>, u64);

/// A device (or memory pool) activation bytes can be stored to and read
/// back from.
///
/// `data` is `None` in symbolic execution: the target must account the
/// traffic without materialising payloads.
pub trait OffloadTarget: Send + Sync {
    /// Short target name for reports.
    fn name(&self) -> &str;

    /// Persists `len` bytes under `key`.
    ///
    /// # Errors
    /// Returns any underlying I/O error (e.g. spill directory removed).
    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()>;

    /// Reads the bytes stored under `key` into a fresh buffer; `Ok(None)`
    /// for symbolic entries.
    ///
    /// # Errors
    /// Returns an error if `key` was never written or the read fails.
    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>>;

    /// Reads the bytes stored under `key` and lends them to `f` (`None`
    /// for symbolic entries) instead of returning an owned copy. `f` runs
    /// once, and only when the read succeeds. A device that has to copy
    /// the bytes somewhere copies them into `scratch`, whose earlier
    /// contents are discarded, so a caller reusing one buffer allocates
    /// only when a read outgrows it. The default forwards [`read`]'s
    /// result, so a decorator that does not override this pays no copy
    /// beyond its own `read`.
    ///
    /// [`read`]: OffloadTarget::read
    ///
    /// # Errors
    /// Returns an error if `key` was never written or the read fails.
    fn read_with(
        &self,
        key: &TensorKey,
        _scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(Option<&[u8]>),
    ) -> io::Result<()> {
        f(self.read(key)?.as_deref());
        Ok(())
    }

    /// Drops the entry for `key` (idempotent).
    fn remove(&self, key: &TensorKey);

    /// Host bytes written so far.
    fn bytes_written(&self) -> u64;

    /// Fraction of the device's endurance budget consumed, in `[0, 1]`.
    /// Targets without a wear model report `0.0`.
    fn wear_fraction(&self) -> f64 {
        0.0
    }

    /// Persists a sealed segment: every member lands or none does. The
    /// default unwinds already-written members on the first failure, so
    /// a failed segment degrades as one unit (per [`RecoveryPolicy`]
    /// semantics), never as a partial write. Devices with a cheaper
    /// sequential path override this — [`SsdTarget`] charges the wear
    /// meter one write *operation* for the whole segment.
    ///
    /// [`RecoveryPolicy`]: crate::RecoveryPolicy
    ///
    /// # Errors
    /// Returns the first member's I/O error after unwinding.
    fn write_batch(&self, items: &[BatchItem<'_>]) -> io::Result<()> {
        for (i, (key, data, len)) in items.iter().enumerate() {
            if let Err(e) = self.write(key, *data, *len) {
                for (done, _, _) in &items[..i] {
                    self.remove(done);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Snapshot of the device's wear meter, when it has one (`None` for
    /// targets without a wear model). Benches read effective write
    /// amplification through this without downcasting.
    fn wear_snapshot(&self) -> Option<WearMeter> {
        None
    }
}

// ---------------------------------------------------------------------
// SSD target
// ---------------------------------------------------------------------

struct SsdState {
    wear: WearMeter,
    symbolic_lens: HashMap<InlineKey, u64>,
    /// The file name and path buffers every call reuses.
    name: String,
    path: PathBuf,
}

impl SsdState {
    /// `<dir>/t<stamp>_<d0>x<d1>….act`, built in the reused buffers, so
    /// once they have grown to fit a call allocates nothing.
    fn path_for(&mut self, dir: &Path, key: &TensorKey) -> &Path {
        self.name.clear();
        // Writing into a `String` cannot fail.
        let _ = write!(self.name, "t{}_", key.stamp);
        for (i, d) in key.shape.iter().enumerate() {
            let sep = if i == 0 { "" } else { "x" };
            let _ = write!(self.name, "{sep}{d}");
        }
        self.name.push_str(".act");
        self.path.as_mut_os_string().clear();
        self.path.push(dir);
        self.path.push(&self.name);
        &self.path
    }
}

/// NVMe SSD offload target: one file per tensor under a spill directory,
/// with wear metering against the array's endurance budget.
pub struct SsdTarget {
    dir: PathBuf,
    state: Mutex<SsdState>,
}

impl SsdTarget {
    /// Creates the target, creating `dir` if needed.
    ///
    /// # Errors
    /// Returns an error if the directory cannot be created.
    pub fn new(dir: impl AsRef<Path>, wear: WearMeter) -> io::Result<SsdTarget> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(SsdTarget {
            dir,
            state: Mutex::new(SsdState {
                wear,
                symbolic_lens: HashMap::default(),
                name: String::new(),
                path: PathBuf::new(),
            }),
        })
    }

    /// Snapshot of the wear meter.
    pub(crate) fn wear(&self) -> WearMeter {
        self.state.lock().wear.clone()
    }
}

impl OffloadTarget for SsdTarget {
    fn name(&self) -> &str {
        "ssd"
    }

    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()> {
        self.write_batch(&[(key, data, len)])
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        // The file is read straight into the returned buffer.
        let (mut buf, mut numeric) = (Vec::new(), false);
        self.read_with(key, &mut buf, &mut |data| numeric = data.is_some())?;
        Ok(numeric.then_some(buf))
    }

    fn read_with(
        &self,
        key: &TensorKey,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(Option<&[u8]>),
    ) -> io::Result<()> {
        let mut s = self.state.lock();
        let inline = InlineKey::of(key);
        if inline.is_ok_and(|k| s.symbolic_lens.contains_key(&k)) {
            drop(s);
            f(None);
            return Ok(());
        }
        let mut file = fs::File::open(s.path_for(&self.dir, key))?;
        drop(s);
        scratch.clear();
        file.read_to_end(scratch)?;
        f(Some(scratch));
        Ok(())
    }

    fn remove(&self, key: &TensorKey) {
        let mut s = self.state.lock();
        let inline = InlineKey::of(key);
        if inline.is_ok_and(|k| s.symbolic_lens.remove(&k).is_some()) {
            return;
        }
        let _ = fs::remove_file(s.path_for(&self.dir, key));
    }

    fn bytes_written(&self) -> u64 {
        self.state.lock().wear.host_bytes
    }

    fn wear_fraction(&self) -> f64 {
        self.state.lock().wear.wear_fraction()
    }

    fn write_batch(&self, items: &[BatchItem<'_>]) -> io::Result<()> {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        for (i, (key, data, _)) in items.iter().enumerate() {
            // A symbolic member lands in `symbolic_lens` below, keyed
            // inline; a key that cannot be is refused with the rest.
            let landed = match data {
                Some(bytes) => fs::write(s.path_for(&self.dir, key), bytes),
                None => InlineKey::of(key).map(drop),
            };
            if let Err(e) = landed {
                for (done, done_data, _) in &items[..i] {
                    if done_data.is_some() {
                        let _ = fs::remove_file(s.path_for(&self.dir, done));
                    }
                }
                return Err(e);
            }
        }
        // One sequential segment = one write operation on the media:
        // the whole point of coalescing is paying the per-op overhead
        // once instead of `items.len()` times. Wear is charged only once
        // every member landed.
        let total: u64 = items.iter().map(|(_, _, len)| *len).sum();
        s.wear.record_batch(total, 1);
        for (key, data, len) in items {
            if let (None, Ok(key)) = (data, InlineKey::of(key)) {
                s.symbolic_lens.insert(key, *len);
            }
        }
        Ok(())
    }

    fn wear_snapshot(&self) -> Option<WearMeter> {
        Some(self.wear())
    }
}

impl fmt::Debug for SsdTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SsdTarget")
            .field("dir", &self.dir)
            .field("host_bytes", &self.bytes_written())
            .finish()
    }
}

// ---------------------------------------------------------------------
// CPU (host pinned memory) target
// ---------------------------------------------------------------------

struct CpuState {
    /// Each entry's length and payload (`None` in symbolic execution).
    pool: HashMap<InlineKey, (u64, Option<Vec<u8>>)>,
    used: u64,
    written: u64,
}

/// Host-memory offload target backed by a bounded pinned pool.
pub struct CpuTarget {
    pool_bytes: u64,
    state: Mutex<CpuState>,
}

impl CpuTarget {
    /// Creates a target with a pinned pool of `pool_bytes` (the paper
    /// sizes this by profiling the first training step).
    pub fn new(pool_bytes: u64) -> CpuTarget {
        CpuTarget {
            pool_bytes,
            state: Mutex::new(CpuState {
                pool: HashMap::default(),
                used: 0,
                written: 0,
            }),
        }
    }

    /// Bytes currently held in the pool.
    pub fn used_bytes(&self) -> u64 {
        self.state.lock().used
    }
}

impl OffloadTarget for CpuTarget {
    fn name(&self) -> &str {
        "cpu"
    }

    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()> {
        let inline = InlineKey::of(key)?;
        let mut s = self.state.lock();
        // Overwriting a live key reuses its slot: project occupancy with
        // the prior entry's bytes returned first, so rewrites never
        // double-count against the pool.
        let prior = s.pool.get(&inline).map_or(0, |(len, _)| *len);
        let projected = s.used - prior + len;
        if projected > self.pool_bytes {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!(
                    "pinned pool exhausted: {} - {prior} + {len} > {}",
                    s.used, self.pool_bytes
                ),
            ));
        }
        s.used = projected;
        s.written += len;
        s.pool.insert(inline, (len, data.map(<[u8]>::to_vec)));
        Ok(())
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        let mut out = None;
        self.read_with(key, &mut Vec::new(), &mut |data| {
            out = data.map(<[u8]>::to_vec);
        })?;
        Ok(out)
    }

    /// Lends `f` the pooled bytes themselves, under the pool's lock.
    fn read_with(
        &self,
        key: &TensorKey,
        _scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(Option<&[u8]>),
    ) -> io::Result<()> {
        let inline = InlineKey::of(key)?;
        let s = self.state.lock();
        let Some((_, data)) = s.pool.get(&inline) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{key} not in pinned pool"),
            ));
        };
        f(data.as_deref());
        Ok(())
    }

    fn remove(&self, key: &TensorKey) {
        let Ok(inline) = InlineKey::of(key) else {
            return;
        };
        let mut s = self.state.lock();
        if let Some((len, _)) = s.pool.remove(&inline) {
            s.used = s.used.saturating_sub(len);
        }
    }

    fn bytes_written(&self) -> u64 {
        self.state.lock().written
    }
}

impl fmt::Debug for CpuTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CpuTarget")
            .field("pool_bytes", &self.pool_bytes)
            .field("used", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(stamp: u64) -> TensorKey {
        TensorKey {
            stamp,
            shape: vec![4, 2],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ssdtrain-target-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn ssd_roundtrip_through_filesystem() {
        let dir = tmpdir("rt");
        let t = SsdTarget::new(&dir, WearMeter::new(1e12, 1.0)).unwrap();
        let k = key(1);
        let payload = vec![1u8, 2, 3, 4];
        t.write(&k, Some(&payload), 4).unwrap();
        assert_eq!(t.read(&k).unwrap().unwrap(), payload);
        assert_eq!(t.bytes_written(), 4);
        t.remove(&k);
        assert!(t.read(&k).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_file_names_keep_their_format() {
        let t = SsdTarget::new(tmpdir("names"), WearMeter::new(1e12, 1.0)).unwrap();
        for shape in [vec![2, 30, 4096], vec![7], vec![]] {
            let k = TensorKey {
                stamp: 123_456,
                shape,
            };
            let dims: Vec<String> = k.shape.iter().map(|d| d.to_string()).collect();
            let old = t.dir.join(format!("t{}_{}.act", k.stamp, dims.join("x")));
            // The reused buffers hold no trace of the previous name.
            assert_eq!(t.state.lock().path_for(&t.dir, &k), old);
        }
        let _ = fs::remove_dir_all(&t.dir);
    }

    #[test]
    fn ssd_symbolic_entries_account_without_payload() {
        let dir = tmpdir("sym");
        let t = SsdTarget::new(&dir, WearMeter::new(1e12, 1.0)).unwrap();
        let k = key(2);
        t.write(&k, None, 1024).unwrap();
        assert_eq!(t.read(&k).unwrap(), None);
        assert_eq!(t.bytes_written(), 1024);
        assert!((t.wear().wear_fraction() - 1024.0 / 1e12).abs() < 1e-18);
        t.remove(&k);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ssd_wear_accumulates_across_writes() {
        let dir = tmpdir("wear");
        let t = SsdTarget::new(&dir, WearMeter::new(1000.0, 1.0)).unwrap();
        t.write(&key(3), None, 250).unwrap();
        t.write(&key(4), None, 250).unwrap();
        assert!((t.wear().wear_fraction() - 0.5).abs() < 1e-12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cpu_pool_bounds_capacity() {
        let t = CpuTarget::new(100);
        t.write(&key(1), None, 60).unwrap();
        let err = t.write(&key(2), None, 60).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        t.remove(&key(1));
        assert_eq!(t.used_bytes(), 0);
        t.write(&key(2), None, 60).unwrap();
    }

    #[test]
    fn cpu_pool_reuses_bytes_across_write_remove_write() {
        let t = CpuTarget::new(100);
        for round in 0..5u64 {
            t.write(&key(round), None, 100).unwrap();
            assert_eq!(t.used_bytes(), 100);
            t.remove(&key(round));
            assert_eq!(t.used_bytes(), 0, "round {round} leaked pool bytes");
        }
        // Five full-pool rounds fit because remove returns bytes; total
        // write traffic still accumulates.
        assert_eq!(t.bytes_written(), 500);
    }

    #[test]
    fn cpu_pool_overwrite_replaces_instead_of_double_counting() {
        let t = CpuTarget::new(100);
        let k = key(7);
        t.write(&k, Some(&[1; 80]), 80).unwrap();
        // Rewriting the same key must reuse its slot, not add 80 + 80.
        t.write(&k, Some(&[2; 80]), 80).unwrap();
        assert_eq!(t.used_bytes(), 80);
        assert_eq!(t.read(&k).unwrap().unwrap(), vec![2; 80]);
        // Shrinking rewrite frees the difference...
        t.write(&k, None, 10).unwrap();
        assert_eq!(t.used_bytes(), 10);
        // ...and a growing rewrite that exceeds the pool is refused
        // without corrupting the accounting.
        let err = t.write(&k, None, 120).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        assert_eq!(t.used_bytes(), 10);
        t.remove(&k);
        assert_eq!(t.used_bytes(), 0);
    }

    #[test]
    fn ssd_write_batch_charges_one_wear_op() {
        let dir = tmpdir("batch");
        let wear = WearMeter::new(1e12, 1.0).with_write_overhead(4096);
        let t = SsdTarget::new(&dir, wear).unwrap();
        let keys: Vec<TensorKey> = (0..4).map(key).collect();
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 256u64)).collect();
        t.write_batch(&items).unwrap();
        let w = t.wear();
        assert_eq!(w.host_bytes, 1024);
        // 1024 payload + ONE 4096 overhead, not four.
        assert_eq!(w.media_bytes, 1024 + 4096);
        // Members keep their identity for loads.
        assert_eq!(t.read(&keys[2]).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ssd_wear_snapshot_matches_inherent_wear() {
        let dir = tmpdir("snap");
        let t = SsdTarget::new(&dir, WearMeter::new(1e12, 1.0)).unwrap();
        t.write(&key(1), None, 512).unwrap();
        assert_eq!(t.wear_snapshot(), Some(t.wear()));
        assert_eq!(CpuTarget::new(64).wear_snapshot(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_write_batch_unwinds_on_member_failure() {
        let t = CpuTarget::new(100);
        let keys: Vec<TensorKey> = (0..3).map(key).collect();
        // 40 + 40 fit, the third member overflows the pool.
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 40u64)).collect();
        let err = t.write_batch(&items).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        // All-or-nothing: the two successful members were unwound.
        assert_eq!(t.used_bytes(), 0);
        assert!(t.read(&keys[0]).is_err());
    }

    /// What `read_with` lends, copied out.
    fn lent(
        t: &dyn OffloadTarget,
        k: &TensorKey,
        scratch: &mut Vec<u8>,
    ) -> io::Result<Option<Vec<u8>>> {
        let mut out = None;
        t.read_with(k, scratch, &mut |d| out = d.map(<[u8]>::to_vec))?;
        Ok(out)
    }

    #[test]
    fn read_with_lends_what_read_returns() {
        let dir = tmpdir("lend");
        let ssd = SsdTarget::new(&dir, WearMeter::new(1e12, 1.0)).unwrap();
        let cpu = CpuTarget::new(1 << 20);
        for t in [&ssd as &dyn OffloadTarget, &cpu] {
            t.write(&key(1), Some(&[1, 2, 3]), 3).unwrap();
            t.write(&key(2), None, 64).unwrap();
            let mut scratch = Vec::new();
            for k in [key(1), key(2)] {
                assert_eq!(lent(t, &k, &mut scratch).unwrap(), t.read(&k).unwrap());
            }
            assert_eq!(lent(t, &key(1), &mut scratch).unwrap(), Some(vec![1, 2, 3]));
            assert_eq!(lent(t, &key(2), &mut scratch).unwrap(), None);
            let missing = lent(t, &key(3), &mut scratch).unwrap_err();
            assert_eq!(missing.kind(), io::ErrorKind::NotFound, "{}", t.name());
            assert_eq!(t.read(&key(3)).unwrap_err().kind(), io::ErrorKind::NotFound);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reused_scratch_holds_only_the_latest_file() {
        let dir = tmpdir("scratch");
        let t = SsdTarget::new(&dir, WearMeter::new(1e12, 1.0)).unwrap();
        t.write(&key(1), Some(&[7; 100]), 100).unwrap();
        t.write(&key(2), Some(&[8; 10]), 10).unwrap();
        let mut scratch = Vec::new();
        assert_eq!(lent(&t, &key(1), &mut scratch).unwrap(), Some(vec![7; 100]));
        assert_eq!(lent(&t, &key(2), &mut scratch).unwrap(), Some(vec![8; 10]));
        assert!(scratch.capacity() >= 100, "the buffer is kept, not freed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ssd_charges_no_wear_for_writes_that_failed() {
        let dir = tmpdir("vanished");
        let wear = WearMeter::new(1e12, 1.0).with_write_overhead(4096);
        let t = SsdTarget::new(&dir, wear).unwrap();
        t.write(&key(1), Some(&[1; 16]), 16).unwrap();
        let (written, before) = (t.bytes_written(), t.wear());
        fs::remove_dir_all(&dir).unwrap();
        assert!(t.write(&key(2), Some(&[2; 16]), 16).is_err());
        let keys: Vec<TensorKey> = (3..6).map(key).collect();
        let payload = [3u8; 8];
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, Some(&payload[..]), 8)).collect();
        assert!(t.write_batch(&items).is_err());
        assert_eq!(t.bytes_written(), written);
        assert_eq!(t.wear(), before);
    }

    #[test]
    fn a_key_no_tensor_has_is_refused_whole() {
        let dir = tmpdir("deep");
        let ssd = SsdTarget::new(&dir, WearMeter::new(1e12, 1.0)).unwrap();
        let cpu = CpuTarget::new(1 << 20);
        let deep = TensorKey {
            stamp: 9,
            shape: vec![1; ssdtrain_tensor::shape::MAX_RANK + 1],
        };
        let kept = key(1);
        for t in [&ssd as &dyn OffloadTarget, &cpu] {
            let items: [BatchItem<'_>; 2] = [(&kept, None, 8), (&deep, None, 8)];
            let err = t.write_batch(&items).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{}", t.name());
            assert!(
                t.read(&kept).is_err(),
                "{}: the batch landed in part",
                t.name()
            );
            t.remove(&deep);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cpu_roundtrip() {
        let t = CpuTarget::new(1024);
        let k = key(5);
        t.write(&k, Some(&[9, 9]), 2).unwrap();
        assert_eq!(t.read(&k).unwrap().unwrap(), vec![9, 9]);
        assert_eq!(t.bytes_written(), 2);
        assert!(t.read(&key(6)).is_err());
    }
}
