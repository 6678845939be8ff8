//! Deterministic pseudo-random number generation for the simulator.
//!
//! The engine itself is fully deterministic; randomness is only used by
//! *jitter models* that reproduce run-to-run variance (the decile bands shown
//! in every figure of the paper). We implement SplitMix64 (for seeding) and
//! PCG32 (for streams) locally so the simulator has zero dependencies and
//! results are bit-reproducible across platforms and crate versions.

/// SplitMix64: used to expand a single `u64` seed into stream seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG32 (XSH-RR 64/32): small, fast, statistically solid generator.
#[derive(Clone, Debug)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Create a generator from a seed and a stream id. Distinct stream ids
    /// yield independent sequences even with the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's method.
    pub fn below(&mut self, n: u32) -> u32 {
        debug_assert!(n > 0);
        let mut x = self.next_u32();
        let mut m = (x as u64).wrapping_mul(n as u64);
        let mut l = m as u32;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u32();
                m = (x as u64).wrapping_mul(n as u64);
                l = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Standard normal deviate via Box–Muller (fresh pair each call, the
    /// throwaway half keeps the generator branch-free and reproducible).
    pub fn normal(&mut self) -> f64 {
        // Avoid log(0).
        let u1 = (self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Log-normal multiplicative jitter centered on 1.0 with relative spread
    /// `sigma` (e.g. 0.03 for ±3 % typical). Models run-to-run noise on
    /// latencies and bandwidths.
    pub fn jitter(&mut self, sigma: f64) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        (self.normal() * sigma).exp()
    }
}

/// A family of independent jitter streams, one per (seed, stream) pair.
///
/// Experiments create one `JitterFamily` per repetition so that decile bands
/// are produced by genuinely independent "runs".
#[derive(Clone, Debug)]
pub struct JitterFamily {
    seed: u64,
}

impl JitterFamily {
    /// Create a family rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        JitterFamily { seed }
    }

    /// Get the stream for a named jitter source.
    pub fn stream(&self, id: u64) -> Pcg32 {
        let mut sm = SplitMix64::new(self.seed ^ 0xA076_1D64_78BD_642F);
        // Decorrelate stream selection from the seed.
        let mix = sm.next_u64() ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Pcg32::new(mix, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn pcg_streams_differ() {
        let mut a = Pcg32::new(1, 0);
        let mut b = Pcg32::new(1, 1);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 4,
            "streams should be decorrelated, {} collisions",
            same
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Pcg32::new(7, 3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = Pcg32::new(9, 2);
        for _ in 0..10_000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn below_is_uniform_enough() {
        let mut r = Pcg32::new(11, 4);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 each; allow 5 % deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {}", c);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = Pcg32::new(13, 5);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = r.normal();
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {}", mean);
        assert!((var - 1.0).abs() < 0.05, "var {}", var);
    }

    #[test]
    fn jitter_centered_on_one() {
        let mut r = Pcg32::new(17, 6);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.jitter(0.05)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {}", mean);
        assert_eq!(r.jitter(0.0), 1.0);
    }

    #[test]
    fn jitter_family_streams_reproducible() {
        let f1 = JitterFamily::new(123);
        let f2 = JitterFamily::new(123);
        let mut a = f1.stream(9);
        let mut b = f2.stream(9);
        for _ in 0..32 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
        // Different streams differ.
        let mut c = f1.stream(10);
        let collisions = (0..32).filter(|_| b.next_u32() == c.next_u32()).count();
        assert!(collisions < 3);
    }
}
