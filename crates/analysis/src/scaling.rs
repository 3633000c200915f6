//! Growth-trend arithmetic: Figure 1 and the Section 2.2 scaling-law
//! argument.
//!
//! The paper's motivating observation: GPU FP16 throughput and LLM sizes
//! grow in lock-step, but GPU memory capacity grows slower than even the
//! *square root* of throughput — and under Chinchilla scaling the
//! whole-system activation volume grows like `C^(5/6)`, faster than any
//! other memory use, so the capacity gap keeps widening.

/// End of the observation window of the paper's Figure 1 (its trend data
/// was accessed mid-2024 and the capacity-focused H200/B200 parts shipped
/// at the margin of it). Fits reproducing the figure use accelerators up
/// to this year; the full catalog extends beyond it, and the extra points
/// show the capacity response that arrived *after* the paper.
pub const FIGURE1_WINDOW_END: f64 = 2023.5;

/// An exponential fit `y ≈ a · exp(b · (x - x0))` over (year, value)
/// points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendFit {
    /// Value at the reference year.
    pub a: f64,
    /// Continuous growth rate per year.
    pub b: f64,
    /// Reference year.
    pub x0: f64,
}

impl TrendFit {
    /// Compound annual growth rate (e.g. `1.0` = doubling ≈ 100%/year).
    pub fn cagr(&self) -> f64 {
        self.b.exp() - 1.0
    }

    /// Doubling time in years.
    pub fn doubling_years(&self) -> f64 {
        std::f64::consts::LN_2 / self.b
    }
}

/// Least-squares exponential fit through `(year, value)` points (linear
/// regression in log space).
///
/// # Panics
/// Panics with fewer than two points or non-positive values.
pub fn fit_exponential(points: &[(f64, f64)]) -> TrendFit {
    assert!(points.len() >= 2, "need at least two points");
    let x0 = points[0].0;
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        assert!(y > 0.0, "exponential fit needs positive values");
        let xr = x - x0;
        let ly = y.ln();
        sx += xr;
        sy += ly;
        sxx += xr * xr;
        sxy += xr * ly;
    }
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let ln_a = (sy - b * sx) / n;
    TrendFit {
        a: ln_a.exp(),
        b,
        x0,
    }
}

/// Compound annual growth rate between two (year, value) endpoints.
///
/// # Panics
/// Panics if years coincide or values are non-positive.
pub fn cagr(from: (f64, f64), to: (f64, f64)) -> f64 {
    assert!(to.0 != from.0, "distinct years required");
    assert!(from.1 > 0.0 && to.1 > 0.0, "positive values required");
    (to.1 / from.1).powf(1.0 / (to.0 - from.0)) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdtrain_simhw::catalog::{accelerators, llms};

    fn flops_points() -> Vec<(f64, f64)> {
        accelerators()
            .into_iter()
            .filter(|a| a.year <= FIGURE1_WINDOW_END)
            .map(|a| (a.year, a.fp16_tflops))
            .collect()
    }

    fn memory_points() -> Vec<(f64, f64)> {
        accelerators()
            .into_iter()
            .filter(|a| a.year <= FIGURE1_WINDOW_END)
            .map(|a| (a.year, a.memory_gb))
            .collect()
    }

    #[test]
    fn exponential_fit_recovers_known_growth() {
        // y doubles every year from 1 at 2000.
        let pts: Vec<(f64, f64)> = (0..6).map(|i| (2000.0 + i as f64, 2f64.powi(i))).collect();
        let fit = fit_exponential(&pts);
        assert!((fit.cagr() - 1.0).abs() < 1e-6, "{}", fit.cagr());
        assert!((fit.doubling_years() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn figure1_memory_grows_slower_than_sqrt_of_throughput() {
        // The paper's green-dashed-line argument.
        let flops_fit = fit_exponential(&flops_points());
        let mem_fit = fit_exponential(&memory_points());
        assert!(
            mem_fit.b < flops_fit.b / 2.0,
            "memory {:.3}/yr vs sqrt(flops) {:.3}/yr",
            mem_fit.b,
            flops_fit.b / 2.0
        );
    }

    #[test]
    fn figure1_llm_size_tracks_throughput_growth() {
        // Model sizes and FP16 throughput grow at the same order;
        // capacity lags both.
        let flops_fit = fit_exponential(&flops_points());
        let llm_fit = fit_exponential(
            &llms()
                .into_iter()
                .map(|l| (l.year, l.params_b))
                .collect::<Vec<_>>(),
        );
        let mem_fit = fit_exponential(&memory_points());
        assert!(llm_fit.b > mem_fit.b, "LLMs must outgrow GPU memory");
        assert!(flops_fit.b > mem_fit.b, "throughput must outgrow memory");
    }

    #[test]
    fn cagr_endpoint_helper() {
        let g = cagr((2020.0, 100.0), (2022.0, 400.0));
        assert!((g - 1.0).abs() < 1e-12); // 2x per year
    }
}
