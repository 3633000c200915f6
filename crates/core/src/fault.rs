//! [`FaultyTarget`] — wraps any [`OffloadTarget`] with a deterministic
//! [`FaultPlan`].
//!
//! The decorator sits between the tensor cache and the real target, so
//! every activation store/load passes through the plan. Error faults
//! become `io::Error`s the cache's recovery machinery handles;
//! [`FaultKind::SlowIo`] firings throttle the attached [`IoEngine`]
//! mid-run instead, modelling a device that degrades rather than fails.
// ssdtrain-lint: hot-path

use crate::id::TensorKey;
use crate::io::IoEngine;
use crate::target::{BatchItem, OffloadTarget};
use parking_lot::Mutex;
use ssdtrain_simhw::{FaultKind, FaultLog, FaultPlan, SimTime, WearMeter};
use ssdtrain_trace::{ArgValue, TraceCategory, TraceSink};
use std::fmt;
use std::io;
use std::sync::Arc;

/// An [`OffloadTarget`] decorator injecting faults from a seeded plan.
///
/// ```
/// use ssdtrain::{CpuTarget, FaultyTarget, OffloadTarget};
/// use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};
/// use std::sync::Arc;
///
/// let plan = FaultPlan::new(7)
///     .with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::WriteError);
/// let target = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
/// let key = ssdtrain::id::TensorKey { stamp: 1, shape: vec![4] };
/// assert!(target.write(&key, None, 16).is_err()); // injected
/// assert!(target.write(&key, None, 16).is_ok()); // plan exhausted
/// assert_eq!(target.fault_log().write_faults, 1);
/// ```
pub struct FaultyTarget {
    inner: Arc<dyn OffloadTarget>,
    plan: Mutex<FaultPlan>,
    io: Mutex<Option<IoEngine>>,
    trace: Mutex<TraceSink>,
    name: String,
}

impl FaultyTarget {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn OffloadTarget>, plan: FaultPlan) -> Arc<FaultyTarget> {
        let name = format!("faulty-{}", inner.name());
        Arc::new(FaultyTarget {
            inner,
            plan: Mutex::new(plan),
            io: Mutex::new(None),
            trace: Mutex::new(TraceSink::disabled()),
            name,
        })
    }

    /// Routes fault firings into `sink` as instants (category `fault`),
    /// timestamped on the attached engine's clock.
    pub fn set_trace(&self, sink: TraceSink) {
        *self.trace.lock() = sink;
    }

    /// Attaches the I/O engine [`FaultKind::SlowIo`] firings throttle.
    /// Without an engine attached, slow-I/O faults only show up in the
    /// log (operations still succeed at full speed).
    pub fn attach_io(&self, io: IoEngine) {
        *self.io.lock() = Some(io);
    }

    /// The wrapped target.
    pub fn inner(&self) -> &Arc<dyn OffloadTarget> {
        &self.inner
    }

    /// Firing counters of the plan so far.
    pub fn fault_log(&self) -> FaultLog {
        self.plan.lock().log()
    }

    fn emit_fault(&self, fault: FaultKind, op: &'static str) {
        let sink = self.trace.lock().clone();
        if !sink.is_enabled() {
            return;
        }
        let now = self
            .io
            .lock()
            .as_ref()
            .map_or(SimTime::ZERO, |io| io.clock().now());
        let (name, mut args) = match fault {
            FaultKind::WriteError => ("fault.write_error", Vec::new()),
            FaultKind::ReadError => ("fault.read_error", Vec::new()),
            FaultKind::EnduranceExhausted => (
                "fault.endurance_exhausted",
                vec![("wear", ArgValue::F64(self.inner.wear_fraction()))],
            ),
            FaultKind::SlowIo { factor } => {
                ("fault.slow_io", vec![("factor", ArgValue::F64(factor))])
            }
        };
        args.push(("op", ArgValue::from(op)));
        sink.instant_with(TraceCategory::Fault, name, now, args);
    }

    fn apply(&self, fault: Option<FaultKind>, op: &'static str) -> io::Result<()> {
        if let Some(kind) = fault {
            self.emit_fault(kind, op);
        }
        match fault {
            Some(FaultKind::WriteError) | Some(FaultKind::ReadError) => Err(io::Error::other(
                format!("injected {op} fault on target `{}`", self.inner.name()),
            )),
            Some(FaultKind::EnduranceExhausted) => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!(
                    "injected endurance exhaustion on target `{}` (wear {:.2})",
                    self.inner.name(),
                    self.inner.wear_fraction()
                ),
            )),
            Some(FaultKind::SlowIo { factor }) => {
                if let Some(io) = &*self.io.lock() {
                    io.throttle(factor);
                }
                Ok(())
            }
            None => Ok(()),
        }
    }
}

impl OffloadTarget for FaultyTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()> {
        let fault = self.plan.lock().on_write(len, self.inner.wear_fraction());
        self.apply(fault, "write")?;
        self.inner.write(key, data, len)
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        // Read sizes are unknown until the bytes arrive; reads count as
        // operations but do not advance byte-threshold triggers.
        let fault = self.plan.lock().on_read(0);
        self.apply(fault, "read")?;
        self.inner.read(key)
    }

    fn remove(&self, key: &TensorKey) {
        self.inner.remove(key);
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn wear_fraction(&self) -> f64 {
        self.inner.wear_fraction()
    }

    fn write_batch(&self, items: &[BatchItem<'_>]) -> io::Result<()> {
        // Run the plan once per member so byte-threshold and nth-op
        // triggers advance exactly as on the uncoalesced path; any
        // member's fault fails the whole segment before a byte lands
        // (segment-level degradation, per the recovery contract).
        for (_, _, len) in items {
            let fault = self.plan.lock().on_write(*len, self.inner.wear_fraction());
            self.apply(fault, "write")?;
        }
        self.inner.write_batch(items)
    }

    fn wear_snapshot(&self) -> Option<WearMeter> {
        self.inner.wear_snapshot()
    }
}

impl fmt::Debug for FaultyTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyTarget")
            .field("inner", &self.inner.name())
            .field("log", &self.fault_log())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::CpuTarget;
    use ssdtrain_simhw::{FaultTrigger, SimClock};

    fn key(stamp: u64) -> TensorKey {
        TensorKey {
            stamp,
            shape: vec![4],
        }
    }

    #[test]
    fn write_faults_surface_as_io_errors() {
        let plan =
            FaultPlan::new(1).with_fault(FaultTrigger::NthOp { nth: 1 }, FaultKind::WriteError);
        let t = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
        assert!(t.write(&key(1), Some(&[1, 2]), 2).is_ok());
        let err = t.write(&key(2), Some(&[3, 4]), 2).unwrap_err();
        assert!(err.to_string().contains("injected write fault"), "{err}");
        // The failed write never reached the inner target.
        assert_eq!(t.bytes_written(), 2);
        assert!(t.read(&key(2)).is_err(), "inner target has no key 2");
    }

    #[test]
    fn endurance_exhaustion_reports_storage_full() {
        let plan = FaultPlan::new(1).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 4 },
            FaultKind::EnduranceExhausted,
        );
        let t = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
        assert!(t.write(&key(1), None, 4).is_err());
        let err = t.write(&key(2), None, 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn slow_io_throttles_the_attached_engine() {
        let plan = FaultPlan::new(1).with_fault(
            FaultTrigger::NthOp { nth: 0 },
            FaultKind::SlowIo { factor: 2.0 },
        );
        let t = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
        let io = IoEngine::new(SimClock::new(), 1e9, 2e9);
        t.attach_io(io.clone());
        // The write itself succeeds; the engine is slower afterwards.
        assert!(t.write(&key(1), None, 4).is_ok());
        // 1 GB at 0.5 GB/s, 2 GB at 1 GB/s.
        assert_eq!(io.store_end(io.submit_store(1_000_000_000)).as_secs(), 2.0);
        assert_eq!(io.submit_load(2_000_000_000).as_secs(), 2.0);
        assert_eq!(t.fault_log().slowdowns, 1);
    }

    #[test]
    fn a_member_fault_fails_the_whole_batch_before_bytes_land() {
        let plan =
            FaultPlan::new(1).with_fault(FaultTrigger::NthOp { nth: 2 }, FaultKind::WriteError);
        let t = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
        let keys: Vec<TensorKey> = (0..4).map(key).collect();
        let items: Vec<BatchItem<'_>> = keys.iter().map(|k| (k, None, 8u64)).collect();
        // Member 2 faults -> the segment fails as one unit and nothing
        // reached the inner target.
        assert!(t.write_batch(&items).is_err());
        assert_eq!(t.bytes_written(), 0);
        assert_eq!(t.fault_log().write_faults, 1);
        // The plan is exhausted; the retried segment lands whole.
        assert!(t.write_batch(&items).is_ok());
        assert_eq!(t.bytes_written(), 32);
    }

    #[test]
    fn reads_pass_through_when_no_rule_matches() {
        let plan = FaultPlan::new(1);
        let t = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
        t.write(&key(1), Some(&[5]), 1).unwrap();
        assert_eq!(t.read(&key(1)).unwrap().unwrap(), vec![5]);
        assert_eq!(t.fault_log().ops, 2);
    }
}
