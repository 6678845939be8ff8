//! Property tests for the learner: bit-determinism of training, feature-
//! permutation invariance of the ridge solution, and monotonicity of the
//! predicted penalty in memory-channel pressure on synthetic
//! single-bottleneck pairs.

use predict::learn::{train, Params};
use proptest::prelude::*;
use proptest::TestRng;

/// Deterministic synthetic regression set: `n` rows of `dim` features with
/// a planted log-linear response plus bounded noise, all generated from
/// `seed` via splitmix — no global RNG, so every case is reproducible.
fn synthetic(seed: u64, n: usize, dim: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = TestRng::new(seed);
    let coef: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 0.6 - 0.3).collect();
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..dim).map(|_| rng.next_f64() * 4.0).collect();
        let log_y: f64 =
            x.iter().zip(&coef).map(|(v, c)| v * c).sum::<f64>() + (rng.next_f64() - 0.5) * 0.05;
        ys.push(log_y.exp());
        xs.push(x);
    }
    (xs, ys)
}

/// Ridge-only params (no stumps): the component whose permutation
/// equivariance is an exact algebraic property.
fn ridge_only() -> Params {
    Params {
        rounds: 0,
        ..Params::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Training twice on the same data yields bit-identical model bytes
    /// and bit-identical predictions — the determinism the store-backed
    /// campaign and the CI ratchet both rest on.
    #[test]
    fn training_is_bit_deterministic(seed in 0u64..1_000_000, n in 24usize..64) {
        let (xs, ys) = synthetic(seed, n, 6);
        let params = Params::default();
        let a = train(&xs, &ys, &params);
        let b = train(&xs, &ys, &params);
        prop_assert_eq!(a.encode(), b.encode());
        for x in &xs {
            prop_assert_eq!(a.predict(x).to_bits(), b.predict(x).to_bits());
        }
    }

    /// The ridge solution is equivariant under feature permutation:
    /// training on column-permuted data and predicting on permuted inputs
    /// must match the unpermuted model to numerical tolerance. Catches any
    /// accidental dependence on feature order (e.g. pivoting bugs in the
    /// linear solve).
    #[test]
    fn ridge_is_feature_permutation_invariant(seed in 0u64..1_000_000) {
        let dim = 5usize;
        let (xs, ys) = synthetic(seed, 40, dim);
        // Derive a permutation of the columns from the same seed.
        let mut rng = TestRng::new(seed ^ 0x9e37);
        let mut perm: Vec<usize> = (0..dim).collect();
        for i in (1..dim).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let permute = |x: &[f64]| -> Vec<f64> { perm.iter().map(|&j| x[j]).collect() };
        let xs_p: Vec<Vec<f64>> = xs.iter().map(|x| permute(x)).collect();

        let base = train(&xs, &ys, &ridge_only());
        let permuted = train(&xs_p, &ys, &ridge_only());
        for x in &xs {
            let a = base.predict(x);
            let b = permuted.predict(&permute(x));
            prop_assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "permutation changed ridge prediction: {} vs {}", a, b
            );
        }
    }

    /// On synthetic single-bottleneck pairs — penalty driven entirely by
    /// memory-channel pressure — the trained model's prediction is
    /// non-decreasing in that feature across its observed range. The
    /// monotone_up constraint on the stump ensemble plus a positively
    /// correlated ridge term must not invert the physical direction.
    #[test]
    fn prediction_monotone_in_channel_pressure(seed in 0u64..1_000_000) {
        let mut rng = TestRng::new(seed);
        let dim = 4usize;
        let pressure_col = 1usize;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..48 {
            let mut x: Vec<f64> = (0..dim).map(|_| rng.next_f64()).collect();
            let pressure = rng.next_f64() * 3.0;
            x[pressure_col] = pressure;
            // Saturating single-bottleneck law: no interference below
            // capacity 1.0, linear growth above it.
            ys.push(1.0 + (pressure - 1.0).max(0.0));
            xs.push(x);
        }
        let params = Params {
            monotone_up: vec![pressure_col],
            ..Params::default()
        };
        let model = train(&xs, &ys, &params);
        let probe: Vec<f64> = vec![0.5; dim];
        let mut last = f64::NEG_INFINITY;
        for step in 0..=30 {
            let mut x = probe.clone();
            x[pressure_col] = 3.0 * step as f64 / 30.0;
            let y = model.predict(&x);
            prop_assert!(
                y >= last - 1e-9,
                "prediction decreased with channel pressure at step {}: {} < {}",
                step, y, last
            );
            last = y;
        }
    }
}
