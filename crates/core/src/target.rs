//! Offload targets: where activation bytes go (paper Figure 5).
//!
//! [`SsdTarget`] writes real files under a spill directory — functional
//! round trips actually cross the filesystem — and meters SSD wear.
//! [`CpuTarget`] models the host-pinned-memory pool of the paper's CPU
//! offloader (kept "for future work on clusters with massive remote SSD
//! storage"); its pool size is fixed up front, mirroring the profiling-
//! based allocation.
// ssdtrain-lint: hot-path

use crate::id::TensorKey;
use parking_lot::Mutex;
use ssdtrain_simhw::WearMeter;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
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

    /// Reads the bytes stored under `key`; `Ok(None)` for symbolic
    /// entries.
    ///
    /// # Errors
    /// Returns an error if `key` was never written or the read fails.
    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>>;

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
    symbolic_lens: HashMap<TensorKey, u64>,
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
                symbolic_lens: HashMap::new(),
            }),
        })
    }

    fn path_for(&self, key: &TensorKey) -> PathBuf {
        let dims: Vec<String> = key.shape.iter().map(|d| d.to_string()).collect();
        self.dir
            .join(format!("t{}_{}.act", key.stamp, dims.join("x")))
    }

    /// Snapshot of the wear meter.
    pub fn wear(&self) -> WearMeter {
        self.state.lock().wear.clone()
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl OffloadTarget for SsdTarget {
    fn name(&self) -> &str {
        "ssd"
    }

    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()> {
        {
            let mut s = self.state.lock();
            s.wear.record_write(len);
            if data.is_none() {
                s.symbolic_lens.insert(key.clone(), len);
            }
        }
        if let Some(bytes) = data {
            fs::write(self.path_for(key), bytes)?;
        }
        Ok(())
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        if self.state.lock().symbolic_lens.contains_key(key) {
            return Ok(None);
        }
        fs::read(self.path_for(key)).map(Some)
    }

    fn remove(&self, key: &TensorKey) {
        if self.state.lock().symbolic_lens.remove(key).is_some() {
            return;
        }
        let _ = fs::remove_file(self.path_for(key));
    }

    fn bytes_written(&self) -> u64 {
        self.state.lock().wear.host_bytes
    }

    fn wear_fraction(&self) -> f64 {
        self.state.lock().wear.wear_fraction()
    }

    fn write_batch(&self, items: &[BatchItem<'_>]) -> io::Result<()> {
        // One sequential segment = one write operation on the media:
        // the whole point of coalescing is paying the per-op overhead
        // once instead of `items.len()` times.
        {
            let mut s = self.state.lock();
            let total: u64 = items.iter().map(|(_, _, len)| *len).sum();
            s.wear.record_batch(total, 1);
            for (key, data, len) in items {
                if data.is_none() {
                    s.symbolic_lens.insert((*key).clone(), *len);
                }
            }
        }
        for (i, (key, data, _)) in items.iter().enumerate() {
            if let Some(bytes) = data {
                if let Err(e) = fs::write(self.path_for(key), bytes) {
                    for (done, _, _) in &items[..i] {
                        self.remove(done);
                    }
                    for (pending, pending_data, _) in &items[i..] {
                        if pending_data.is_none() {
                            self.state.lock().symbolic_lens.remove(*pending);
                        }
                    }
                    return Err(e);
                }
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
    pool: HashMap<TensorKey, Option<Vec<u8>>>,
    used: u64,
    lens: HashMap<TensorKey, u64>,
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
                pool: HashMap::new(),
                used: 0,
                lens: HashMap::new(),
                written: 0,
            }),
        }
    }

    /// Pool capacity in bytes.
    pub fn pool_bytes(&self) -> u64 {
        self.pool_bytes
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
        let mut s = self.state.lock();
        // Overwriting a live key reuses its slot: project occupancy with
        // the prior entry's bytes returned first, so rewrites never
        // double-count against the pool.
        let prior = s.lens.get(key).copied().unwrap_or(0);
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
        s.lens.insert(key.clone(), len);
        s.pool.insert(key.clone(), data.map(|d| d.to_vec()));
        Ok(())
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        let s = self.state.lock();
        match s.pool.get(key) {
            Some(Some(bytes)) => Ok(Some(bytes.clone())),
            Some(None) => Ok(None),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{key} not in pinned pool"),
            )),
        }
    }

    fn remove(&self, key: &TensorKey) {
        let mut s = self.state.lock();
        if s.pool.remove(key).is_some() {
            let len = s.lens.remove(key).unwrap_or(0);
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
