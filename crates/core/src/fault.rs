//! [`FaultyTarget`] — wraps any [`OffloadTarget`] with a deterministic
//! [`FaultPlan`].
//!
//! The decorator sits between the tensor cache and the real target, so
//! every activation store/load passes through the plan. Error faults
//! become `io::Error`s the cache's recovery machinery handles;
//! [`FaultKind::SlowIo`] firings throttle the attached [`IoEngine`]
//! mid-run instead, modelling a device that degrades rather than fails.

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
    /// The target's one lock. A firing clones the engine and the sink
    /// out before it throttles or emits, so no call leaves it held.
    state: Mutex<Faults>,
    name: String,
}

/// What [`FaultyTarget`] guards: the plan and where firings go.
struct Faults {
    plan: FaultPlan,
    io: Option<IoEngine>,
    trace: TraceSink,
}

impl FaultyTarget {
    /// Wraps `inner` with the given fault plan.
    pub fn new(inner: Arc<dyn OffloadTarget>, plan: FaultPlan) -> Arc<FaultyTarget> {
        let name = format!("faulty-{}", inner.name());
        Arc::new(FaultyTarget {
            inner,
            state: Mutex::new(Faults {
                plan,
                io: None,
                trace: TraceSink::disabled(),
            }),
            name,
        })
    }

    /// Routes fault firings into `sink` as instants (category `fault`),
    /// timestamped on the attached engine's clock.
    pub fn set_trace(&self, sink: TraceSink) {
        self.state.lock().trace = sink;
    }

    /// Attaches the I/O engine [`FaultKind::SlowIo`] firings throttle.
    /// Without an engine attached, slow-I/O faults only show up in the
    /// log (operations still succeed at full speed).
    pub fn attach_io(&self, io: IoEngine) {
        self.state.lock().io = Some(io);
    }

    /// Firing counters of the plan so far.
    pub fn fault_log(&self) -> FaultLog {
        self.state.lock().plan.log()
    }

    fn emit_fault(&self, fault: FaultKind, op: &'static str, now: SimTime, sink: &TraceSink) {
        if !sink.is_enabled() {
            return;
        }
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

    /// Runs one operation through the plan (`on_op`) and acts on what
    /// fired, with the engine and sink cloned out of the lock.
    fn apply(
        &self,
        op: &'static str,
        on_op: impl FnOnce(&mut FaultPlan) -> Option<FaultKind>,
    ) -> io::Result<()> {
        let mut state = self.state.lock();
        let Some(fault) = on_op(&mut state.plan) else {
            return Ok(());
        };
        let (io, sink) = (state.io.clone(), state.trace.clone());
        drop(state);
        let now = io.as_ref().map_or(SimTime::ZERO, |io| io.clock().now());
        self.emit_fault(fault, op, now, &sink);
        match fault {
            FaultKind::WriteError | FaultKind::ReadError => Err(io::Error::other(format!(
                "injected {op} fault on target `{}`",
                self.inner.name()
            ))),
            FaultKind::EnduranceExhausted => Err(io::Error::new(
                io::ErrorKind::StorageFull,
                format!(
                    "injected endurance exhaustion on target `{}` (wear {:.2})",
                    self.inner.name(),
                    self.inner.wear_fraction()
                ),
            )),
            FaultKind::SlowIo { factor } => {
                if let Some(io) = io {
                    io.throttle(factor);
                }
                Ok(())
            }
        }
    }

    /// Runs the plan for one read, whichever form it takes. Read sizes
    /// are unknown until the bytes arrive; reads count as operations but
    /// do not advance byte-threshold triggers.
    fn plan_read(&self) -> io::Result<()> {
        self.apply("read", |plan| plan.on_read(0))
    }

    /// Runs the plan for one write of `len` bytes.
    fn plan_write(&self, len: u64) -> io::Result<()> {
        let wear = self.inner.wear_fraction();
        self.apply("write", |plan| plan.on_write(len, wear))
    }
}

impl OffloadTarget for FaultyTarget {
    fn name(&self) -> &str {
        &self.name
    }

    fn write(&self, key: &TensorKey, data: Option<&[u8]>, len: u64) -> io::Result<()> {
        self.plan_write(len)?;
        self.inner.write(key, data, len)
    }

    fn read(&self, key: &TensorKey) -> io::Result<Option<Vec<u8>>> {
        self.plan_read()?;
        self.inner.read(key)
    }

    fn read_with(
        &self,
        key: &TensorKey,
        scratch: &mut Vec<u8>,
        f: &mut dyn FnMut(Option<&[u8]>),
    ) -> io::Result<()> {
        self.plan_read()?;
        self.inner.read_with(key, scratch, f)
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
            self.plan_write(*len)?;
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
        let read = io.submit_load_from(0, 2_000_000_000);
        assert_eq!(io.read_end(read).as_secs(), 2.0);
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
    fn a_borrowing_read_runs_the_plan_once() {
        let plan =
            FaultPlan::new(1).with_fault(FaultTrigger::NthOp { nth: 1 }, FaultKind::ReadError);
        let t = FaultyTarget::new(Arc::new(CpuTarget::new(1 << 20)), plan);
        t.write(&key(1), Some(&[5, 6]), 2).unwrap();
        let (mut scratch, mut seen) = (Vec::new(), Vec::new());
        let err = t
            .read_with(&key(1), &mut scratch, &mut |d| {
                seen.push(d.map(<[u8]>::to_vec))
            })
            .unwrap_err();
        assert!(err.to_string().contains("injected read fault"), "{err}");
        assert!(seen.is_empty(), "a failed read lends nothing");
        assert_eq!((t.fault_log().read_faults, t.fault_log().ops), (1, 2));
        t.read_with(&key(1), &mut scratch, &mut |d| {
            seen.push(d.map(<[u8]>::to_vec))
        })
        .unwrap();
        assert_eq!(seen, vec![Some(vec![5, 6])]);
        assert_eq!(t.fault_log().ops, 3, "one plan op per read");
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
