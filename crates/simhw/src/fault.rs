//! Deterministic fault injection for the offload path.
//!
//! A [`FaultPlan`] is a seeded, replayable schedule of I/O faults. The
//! cache's offload target is wrapped in a decorator (see
//! `ssdtrain::FaultyTarget`) that consults the plan on every write and
//! read; when a rule fires the decorator turns the operation into an
//! error — or throttles the I/O engine for [`FaultKind::SlowIo`] —
//! letting tests and experiments exercise the recovery machinery under
//! *exactly* reproducible failure sequences (the same discipline the
//! simulated clock brings to timing).
//!
//! Triggers mirror how real spill tiers degrade: a specific operation
//! failing ([`FaultTrigger::NthOp`]), capacity/endurance pressure after
//! a byte volume ([`FaultTrigger::ByteThreshold`]), a worn-out array
//! ([`FaultTrigger::WearFraction`]), and random transient errors
//! ([`FaultTrigger::Random`], driven by the plan's seed).

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The write fails with an I/O error (spill dir gone, disk full).
    WriteError,
    /// The read fails with an I/O error (unreadable sector, lost file).
    ReadError,
    /// The device degrades: bandwidth divides by `factor` from now on.
    SlowIo {
        /// Slowdown divisor applied to the affected direction (> 1 is
        /// slower).
        factor: f64,
    },
    /// The endurance budget is spent; writes are refused to protect the
    /// device.
    EnduranceExhausted,
}

impl FaultKind {
    /// Whether this fault applies to write operations.
    pub(crate) fn affects_writes(self) -> bool {
        !matches!(self, FaultKind::ReadError)
    }

    /// Whether this fault applies to read operations.
    pub(crate) fn affects_reads(self) -> bool {
        matches!(self, FaultKind::ReadError | FaultKind::SlowIo { .. })
    }
}

/// When a fault fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Fires on the `nth` I/O operation (0-based, counted across reads
    /// and writes in submission order).
    NthOp {
        /// Operation index that triggers the fault.
        nth: u64,
    },
    /// Fires on every operation once cumulative transferred bytes reach
    /// `bytes`.
    ByteThreshold {
        /// Cumulative byte volume that arms the fault.
        bytes: u64,
    },
    /// Fires once the device's wear fraction (host bytes written over
    /// endurance budget) reaches `fraction`.
    WearFraction {
        /// Wear fraction in `[0, 1]` that arms the fault.
        fraction: f64,
    },
    /// Fires independently on each operation with probability `prob`,
    /// drawn from the plan's seeded generator.
    Random {
        /// Per-operation firing probability in `[0, 1]`.
        prob: f64,
    },
}

/// One (trigger, kind) rule with an optional budget of firings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultRule {
    /// When the rule fires.
    pub(crate) trigger: FaultTrigger,
    /// What the firing does.
    pub(crate) kind: FaultKind,
    /// How many times the rule may fire; `None` means unbounded.
    pub(crate) max_fires: Option<u64>,
    fired: u64,
}

impl FaultRule {
    fn armed(&self) -> bool {
        self.max_fires.is_none_or(|m| self.fired < m)
    }
}

/// Snapshot of how often a plan has fired, for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultLog {
    /// Total I/O operations observed.
    pub ops: u64,
    /// Faults fired on writes.
    pub write_faults: u64,
    /// Faults fired on reads.
    pub read_faults: u64,
    /// `SlowIo` firings (also counted in the direction totals).
    pub slowdowns: u64,
}

/// A seeded, deterministic schedule of injected I/O faults.
///
/// ```
/// use ssdtrain_simhw::{FaultKind, FaultPlan, FaultTrigger};
/// let mut plan = FaultPlan::new(42)
///     .with_fault(FaultTrigger::NthOp { nth: 1 }, FaultKind::WriteError);
/// assert_eq!(plan.on_write(100, 0.0), None); // op 0 passes
/// assert_eq!(plan.on_write(100, 0.0), Some(FaultKind::WriteError)); // op 1
/// assert_eq!(plan.on_write(100, 0.0), None); // NthOp fires exactly once
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
    rng: u64,
    op_idx: u64,
    cum_bytes: u64,
    log: FaultLog,
}

impl FaultPlan {
    /// Creates an empty plan whose `Random` triggers draw from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rules: Vec::new(),
            seed,
            rng: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            op_idx: 0,
            cum_bytes: 0,
            log: FaultLog::default(),
        }
    }

    /// Adds a rule that fires exactly once.
    pub fn with_fault(self, trigger: FaultTrigger, kind: FaultKind) -> FaultPlan {
        self.with_rule(FaultRule {
            trigger,
            kind,
            max_fires: Some(1),
            fired: 0,
        })
    }

    /// Adds a rule that fires every time its trigger matches.
    pub fn with_recurring_fault(self, trigger: FaultTrigger, kind: FaultKind) -> FaultPlan {
        self.with_rule(FaultRule {
            trigger,
            kind,
            max_fires: None,
            fired: 0,
        })
    }

    /// Adds an explicit rule.
    pub(crate) fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Firing counters so far.
    pub fn log(&self) -> FaultLog {
        self.log
    }

    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Reports a write of `bytes` against a device at `wear_fraction`;
    /// returns the fault to apply, if any. At most one rule fires per
    /// operation (first armed match in rule order).
    pub fn on_write(&mut self, bytes: u64, wear_fraction: f64) -> Option<FaultKind> {
        let fault = self.step(bytes, wear_fraction, true);
        if let Some(kind) = fault {
            self.log.write_faults += 1;
            if matches!(kind, FaultKind::SlowIo { .. }) {
                self.log.slowdowns += 1;
            }
        }
        fault
    }

    /// Reports a read of `bytes`; returns the fault to apply, if any.
    pub fn on_read(&mut self, bytes: u64) -> Option<FaultKind> {
        let fault = self.step(bytes, 0.0, false);
        if let Some(kind) = fault {
            self.log.read_faults += 1;
            if matches!(kind, FaultKind::SlowIo { .. }) {
                self.log.slowdowns += 1;
            }
        }
        fault
    }

    fn step(&mut self, bytes: u64, wear_fraction: f64, is_write: bool) -> Option<FaultKind> {
        let op = self.op_idx;
        self.op_idx += 1;
        self.cum_bytes += bytes;
        let cum = self.cum_bytes;
        // Random triggers consume exactly one draw per op regardless of
        // which rule matches, keeping the schedule independent of rule
        // order.
        let draw = self.next_unit();
        self.log.ops += 1;
        for rule in &mut self.rules {
            if !rule.armed() {
                continue;
            }
            let dir_ok = if is_write {
                rule.kind.affects_writes()
            } else {
                rule.kind.affects_reads()
            };
            if !dir_ok {
                continue;
            }
            let hit = match rule.trigger {
                FaultTrigger::NthOp { nth } => op == nth,
                FaultTrigger::ByteThreshold { bytes } => cum >= bytes,
                FaultTrigger::WearFraction { fraction } => wear_fraction >= fraction,
                FaultTrigger::Random { prob } => draw < prob,
            };
            if hit {
                rule.fired += 1;
                return Some(rule.kind);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_op_fires_exactly_once() {
        let mut p =
            FaultPlan::new(1).with_fault(FaultTrigger::NthOp { nth: 2 }, FaultKind::WriteError);
        assert_eq!(p.on_write(10, 0.0), None);
        assert_eq!(p.on_write(10, 0.0), None);
        assert_eq!(p.on_write(10, 0.0), Some(FaultKind::WriteError));
        assert_eq!(p.on_write(10, 0.0), None);
        assert_eq!(p.log().write_faults, 1);
    }

    #[test]
    fn byte_threshold_arms_on_cumulative_volume() {
        let mut p = FaultPlan::new(1).with_recurring_fault(
            FaultTrigger::ByteThreshold { bytes: 100 },
            FaultKind::EnduranceExhausted,
        );
        assert_eq!(p.on_write(60, 0.0), None);
        assert_eq!(p.on_write(60, 0.0), Some(FaultKind::EnduranceExhausted));
        // Recurring: keeps refusing.
        assert_eq!(p.on_write(1, 0.0), Some(FaultKind::EnduranceExhausted));
    }

    #[test]
    fn wear_fraction_trigger_uses_reported_wear() {
        let mut p = FaultPlan::new(1).with_fault(
            FaultTrigger::WearFraction { fraction: 0.5 },
            FaultKind::WriteError,
        );
        assert_eq!(p.on_write(10, 0.4), None);
        assert_eq!(p.on_write(10, 0.6), Some(FaultKind::WriteError));
    }

    #[test]
    fn read_errors_do_not_fire_on_writes() {
        let mut p = FaultPlan::new(1)
            .with_recurring_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::ReadError);
        assert_eq!(p.on_write(10, 0.0), None);
        let mut p =
            FaultPlan::new(1).with_fault(FaultTrigger::NthOp { nth: 0 }, FaultKind::ReadError);
        assert_eq!(p.on_read(10), Some(FaultKind::ReadError));
    }

    #[test]
    fn random_trigger_is_seed_deterministic() {
        let run = |seed| {
            let mut p = FaultPlan::new(seed)
                .with_recurring_fault(FaultTrigger::Random { prob: 0.3 }, FaultKind::WriteError);
            (0..64)
                .map(|_| p.on_write(1, 0.0).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert!(run(7).iter().any(|f| *f), "prob 0.3 over 64 ops fires");
    }

    #[test]
    fn slow_io_counts_in_the_log() {
        let mut p = FaultPlan::new(1).with_fault(
            FaultTrigger::NthOp { nth: 0 },
            FaultKind::SlowIo { factor: 4.0 },
        );
        assert_eq!(p.on_write(10, 0.0), Some(FaultKind::SlowIo { factor: 4.0 }));
        assert_eq!(p.log().slowdowns, 1);
    }
}
