//! NVMe SSD model: bandwidth, endurance, write amplification, RAID0.
//!
//! Implements the endurance arithmetic of paper Sections 2.3 and 3.4:
//! endurance ratings use the JESD random-write method with a write
//! amplification factor (WAF) around 2.5, while activation offloading
//! issues large sequential writes with WAF ≈ 1, which stretches rated
//! endurance by roughly 2.5×. Lifespan is projected as
//! `t_life = S_endurance · t_step / S_activations`.

/// Static characteristics of one SSD model.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdSpec {
    /// Product name.
    pub name: String,
    /// NAND cell type, e.g. `"SLC"`, `"TLC"`, `"3D XPoint"`.
    pub cell: String,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Sustained sequential write bandwidth, bytes/s.
    pub write_bps: f64,
    /// Sustained sequential read bandwidth, bytes/s.
    pub read_bps: f64,
    /// Endurance rating in drive writes per day (JESD method, 5-year
    /// warranty).
    pub dwpd: f64,
    /// WAF assumed by the JESD rating.
    pub(crate) rated_waf: f64,
    /// Street price in US dollars (for $/PBW comparisons, Table 1).
    pub price_usd: f64,
}

/// Seconds in the 5-year warranty period DWPD ratings assume.
pub(crate) const WARRANTY_SECS: f64 = 5.0 * 365.25 * 24.0 * 3600.0;

/// Seconds per (Julian) year.
pub(crate) const YEAR_SECS: f64 = 365.25 * 24.0 * 3600.0;

impl SsdSpec {
    /// Lifetime *host* writes allowed by the JESD rating, in bytes
    /// (capacity × DWPD × warranty days).
    pub fn rated_pbw_bytes(&self) -> f64 {
        self.capacity_bytes as f64 * self.dwpd * (WARRANTY_SECS / 86_400.0)
    }

    /// Lifetime host writes under a different workload WAF: the media
    /// wears by `rated_pbw × rated_waf` total media writes, so host
    /// writes scale by `rated_waf / workload_waf` (≈2.5× for sequential
    /// offloading on a 2.5-rated-WAF drive).
    pub fn endurance_bytes(&self, workload_waf: f64) -> f64 {
        assert!(workload_waf >= 1.0, "WAF cannot be below 1");
        self.rated_pbw_bytes() * self.rated_waf / workload_waf
    }

    /// Price per petabyte written (JESD rating), Table 1's comparison
    /// column.
    pub fn price_per_pbw(&self) -> f64 {
        self.price_usd / (self.rated_pbw_bytes() / 1e15)
    }
}

/// Running wear accounting for one drive (or array) under a workload.
///
/// Besides the host-byte budget, the meter models *per-operation* write
/// amplification: every write op costs a fixed media overhead
/// (FTL mapping update plus the read-modify-write of a partially filled
/// erase block), so many small writes wear the media faster than one
/// coalesced write of the same payload. [`WearMeter::effective_waf`]
/// reports `media_bytes / host_bytes` — the quantity the paper drives
/// toward 1.0 with large sequential segments.
#[derive(Debug, Clone, PartialEq)]
pub struct WearMeter {
    /// Host bytes written so far.
    pub host_bytes: u64,
    /// Workload write-amplification factor.
    pub(crate) waf: f64,
    /// Endurance budget in host bytes at this WAF.
    pub endurance_bytes: f64,
    /// Media bytes actually worn (host bytes + per-op overheads).
    pub media_bytes: u64,
    /// Fixed media overhead charged per write *operation* (0 = the
    /// pre-existing ideal model where media == host).
    pub(crate) write_overhead_bytes: u64,
}

impl WearMeter {
    /// Creates a meter for a device with the given endurance at `waf`.
    pub fn new(endurance_bytes: f64, waf: f64) -> WearMeter {
        WearMeter {
            host_bytes: 0,
            waf,
            endurance_bytes,
            media_bytes: 0,
            write_overhead_bytes: 0,
        }
    }

    /// Sets the per-operation media overhead (builder style).
    pub fn with_write_overhead(mut self, bytes: u64) -> WearMeter {
        self.write_overhead_bytes = bytes;
        self
    }

    /// Records one host write operation.
    pub fn record_write(&mut self, bytes: u64) {
        self.record_batch(bytes, 1);
    }

    /// Records a coalesced batch: `bytes` of payload landing as `ops`
    /// write operations. The per-op overhead is charged per *operation*,
    /// so a batch that merges N tensors into one sequential segment pays
    /// one overhead instead of N — this is where coalescing buys back
    /// write amplification.
    pub fn record_batch(&mut self, bytes: u64, ops: u64) {
        self.host_bytes += bytes;
        self.media_bytes += bytes + ops * self.write_overhead_bytes;
    }

    /// Observed write amplification: media bytes per host byte. Equals
    /// the configured `waf` baseline scale only when no writes happened
    /// yet (returns `waf` on an untouched meter so dashboards have a
    /// defined value).
    pub fn effective_waf(&self) -> f64 {
        if self.host_bytes == 0 {
            self.waf
        } else {
            self.media_bytes as f64 / self.host_bytes as f64
        }
    }

    /// Fraction of endurance consumed (0 = fresh, 1 = worn out).
    pub fn wear_fraction(&self) -> f64 {
        self.host_bytes as f64 / self.endurance_bytes
    }

    /// Host bytes the device can still absorb before its endurance
    /// budget is spent (0 once worn out). Tiering benches use this to
    /// report how much write headroom a DRAM front tier preserves.
    pub fn remaining_bytes(&self) -> f64 {
        (self.endurance_bytes - self.host_bytes as f64).max(0.0)
    }

    /// Projected lifespan in years given a steady write rate, the paper's
    /// `t_life = S_endurance · t_step / S_activations` (Section 3.4).
    ///
    /// # Panics
    /// Panics if `bytes_per_step` is zero.
    pub fn projected_lifespan_years(&self, bytes_per_step: u64, step_secs: f64) -> f64 {
        assert!(bytes_per_step > 0, "no writes, infinite lifespan");
        self.endurance_bytes * step_secs / (bytes_per_step as f64 * YEAR_SECS)
    }
}

/// A RAID0 array: bandwidth and endurance sum across members.
#[derive(Debug, Clone, PartialEq)]
pub struct Raid0 {
    /// Member drive model.
    pub member: SsdSpec,
    /// Number of drives striped.
    pub n: usize,
}

impl Raid0 {
    /// Creates an array of `n` identical drives.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(member: SsdSpec, n: usize) -> Raid0 {
        assert!(n > 0, "empty array");
        Raid0 { member, n }
    }

    /// Aggregate sequential write bandwidth.
    pub fn write_bps(&self) -> f64 {
        self.member.write_bps * self.n as f64
    }

    /// Aggregate sequential read bandwidth.
    pub(crate) fn read_bps(&self) -> f64 {
        self.member.read_bps * self.n as f64
    }

    /// Aggregate endurance in host bytes at the workload WAF.
    pub(crate) fn endurance_bytes(&self, workload_waf: f64) -> f64 {
        self.member.endurance_bytes(workload_waf) * self.n as f64
    }

    /// A wear meter for the whole array.
    pub fn wear_meter(&self, workload_waf: f64) -> WearMeter {
        WearMeter::new(self.endurance_bytes(workload_waf), workload_waf)
    }
}

/// Multiplier on programme/erase cycles when the required data-retention
/// period is relaxed from `from_days` to `to_days` (paper Section 3.4:
/// NAND gets ~50× PE cycles going from 3 years to 3 days). Modelled as a
/// log-linear interpolation through those two published points.
pub fn retention_relaxation_factor(from_days: f64, to_days: f64) -> f64 {
    assert!(
        from_days > 0.0 && to_days > 0.0,
        "retention must be positive"
    );
    if to_days >= from_days {
        return 1.0;
    }
    // 50x over a (3y -> 3d) span of log10(365.25) decades.
    let decades = (from_days / to_days).log10();
    let per_decade = 50f64.powf(1.0 / (3.0f64 * 365.25 / 3.0).log10());
    per_decade.powf(decades)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SsdSpec {
        SsdSpec {
            name: "toy".into(),
            cell: "TLC".into(),
            capacity_bytes: 1_000_000_000_000, // 1 TB
            write_bps: 2e9,
            read_bps: 4e9,
            dwpd: 3.0,
            rated_waf: 2.5,
            price_usd: 1000.0,
        }
    }

    #[test]
    fn rated_pbw_is_capacity_times_dwpd_times_days() {
        let s = toy();
        // 1 TB * 3 DWPD * 1826.25 days ≈ 5.48 PB
        let pbw = s.rated_pbw_bytes() / 1e15;
        assert!((pbw - 5.47875).abs() < 1e-3, "{pbw}");
    }

    #[test]
    fn sequential_workload_stretches_endurance() {
        let s = toy();
        let jesd = s.endurance_bytes(2.5);
        let seq = s.endurance_bytes(1.0);
        assert!((seq / jesd - 2.5).abs() < 1e-9);
    }

    #[test]
    fn lifespan_projection_matches_formula() {
        let meter = WearMeter::new(1e15, 1.0); // 1 PB endurance
                                               // 10 GB per 1-second step -> 1e15/1e10 = 1e5 steps = 1e5 s.
        let years = meter.projected_lifespan_years(10_000_000_000, 1.0);
        let expect = 1e5 / YEAR_SECS;
        assert!((years - expect).abs() < 1e-9);
    }

    #[test]
    fn wear_fraction_accumulates() {
        let mut meter = WearMeter::new(1000.0, 1.0);
        meter.record_write(250);
        meter.record_write(250);
        assert!((meter.wear_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_overhead_keeps_media_equal_to_host() {
        let mut meter = WearMeter::new(1e12, 1.0);
        meter.record_write(4096);
        meter.record_batch(1 << 20, 7);
        assert_eq!(meter.media_bytes, meter.host_bytes);
        assert!((meter.effective_waf() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coalescing_pays_one_overhead_instead_of_n() {
        let payload = 1u64 << 20;
        let mut small = WearMeter::new(1e12, 1.0).with_write_overhead(4096);
        for _ in 0..16 {
            small.record_write(payload / 16);
        }
        let mut big = WearMeter::new(1e12, 1.0).with_write_overhead(4096);
        big.record_batch(payload, 1);
        assert_eq!(small.host_bytes, big.host_bytes);
        assert_eq!(small.media_bytes - big.media_bytes, 15 * 4096);
        assert!(small.effective_waf() > big.effective_waf());
    }

    #[test]
    fn untouched_meter_reports_the_configured_waf() {
        let meter = WearMeter::new(1e12, 2.5).with_write_overhead(4096);
        assert!((meter.effective_waf() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn raid0_sums_members() {
        let arr = Raid0::new(toy(), 4);
        assert_eq!(arr.write_bps(), 8e9);
        assert!((arr.endurance_bytes(1.0) / toy().endurance_bytes(1.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn retention_relaxation_hits_published_point() {
        // 3 years -> 3 days must give ~50x.
        let f = retention_relaxation_factor(3.0 * 365.25, 3.0);
        assert!((f - 50.0).abs() < 1.0, "{f}");
        // No relaxation -> 1.0.
        assert_eq!(retention_relaxation_factor(30.0, 30.0), 1.0);
        // Milder relaxation sits strictly between.
        let mid = retention_relaxation_factor(3.0 * 365.25, 30.0);
        assert!(mid > 1.0 && mid < 50.0, "{mid}");
    }

    #[test]
    fn price_per_pbw_is_finite_and_positive() {
        let p = toy().price_per_pbw();
        assert!(p > 0.0 && p.is_finite());
    }
}
