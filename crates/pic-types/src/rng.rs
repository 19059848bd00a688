//! Deterministic random-number helpers.
//!
//! Every stochastic component in the workspace (scenario initialization,
//! genetic programming, synthetic noise) is seeded explicitly so that runs
//! replay bit-for-bit. This module centralizes the conventions: a fast
//! SplitMix64 for cheap per-item hashing/jitter and helpers for deriving
//! independent sub-streams from one master seed.

/// A SplitMix64 generator.
///
/// Small, fast, and statistically solid for the non-cryptographic uses here
/// (deriving per-particle jitter and sub-seeds). It is also used to expand a
/// single `u64` seed into independent seeds for `rand::StdRng` streams.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        // Multiply-shift rejection-free mapping; bias is negligible (< 2^-64 * n)
        // for the simulation-scale n used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard-normal sample via Box–Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        // Avoid ln(0) by nudging u1 away from zero.
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Derive the `stream`-th independent sub-seed from a master seed.
///
/// Used so that, e.g., scenario initialization, GP search, and noise
/// injection each get their own stream from one user-facing seed.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut s = SplitMix64::new(master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    s.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(43);
        let c: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds() {
        let mut r = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = r.next_range(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
        }
    }

    #[test]
    fn next_below_covers_all_residues() {
        let mut r = SplitMix64::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.next_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut r = SplitMix64::new(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn derived_seeds_differ_by_stream() {
        let s0 = derive_seed(99, 0);
        let s1 = derive_seed(99, 1);
        assert_ne!(s0, s1);
        assert_eq!(s0, derive_seed(99, 0));
    }
}
