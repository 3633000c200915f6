//! Deterministic pseudo-random number generation.
//!
//! Training runs must be exactly reproducible across placement strategies
//! (keep / offload / recompute) so that the numerics-equivalence tests can
//! compare losses bit-for-bit. This module provides a small, seedable
//! xoshiro256** generator with a value-stable stream.

/// A seedable xoshiro256** generator.
///
/// ```
/// use ssdtrain_tensor::Prng;
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = Prng::seed_from_u64(42);
/// assert_eq!(a.next_below(1 << 40), b.next_below(1 << 40));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Prng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Prng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // 24 mantissa-width bits give every representable step in [0,1).
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift bounded sampling; bias is negligible for our use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A sample from the standard normal distribution (Box–Muller).
    pub fn next_normal(&mut self) -> f32 {
        let mut u1 = self.next_f32();
        if u1 <= f32::MIN_POSITIVE {
            u1 = f32::MIN_POSITIVE;
        }
        let u2 = self.next_f32();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = Prng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f32();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn bounded_within_range_and_covers() {
        let mut r = Prng::seed_from_u64(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.next_below(8) as usize;
            assert!(v < 8);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = Prng::seed_from_u64(5);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = r.next_normal() as f64;
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
