//! The deterministic counter→slowdown learner.
//!
//! Two stacked stages, both free of floating-point-order nondeterminism
//! (every sum reduces in fixed index order; no threading, no hashing):
//!
//! 1. **Ridge regression** on standardized features of log-slowdowns —
//!    solved exactly from the Gram matrix by Gaussian elimination with
//!    partial pivoting. The closed-form solution is invariant (to
//!    round-off) under feature permutation, which a property test pins.
//! 2. A **boosted fixed-depth decision-stump ensemble** on the ridge
//!    residuals — gradient boosting with a fixed shrinkage, each round
//!    picking the (feature, threshold) split minimizing squared error,
//!    ties broken toward the lowest feature id then lowest threshold so
//!    training is reproducible bit-for-bit. Features listed in
//!    `monotone_up` only admit splits whose right (greater) branch
//!    predicts ≥ the left branch, making the learned response monotone in
//!    those coordinates by construction.
//!
//! The split candidates are built once per [`train`], before the boosting
//! loop: each feature's quantile thresholds from one sort with equal
//! thresholds collapsed to the first, and each threshold's right-branch
//! row count, dropping any candidate that leaves a branch empty. Each live
//! candidate is a lane, in feature-then-threshold order, packed across
//! features eight to a block, and one byte per (block, row) keeps the
//! comparison outcomes: bit `k` is set when the row's value of lane `k`'s
//! feature is `>=` its threshold. A round then only adds residuals through
//! those bits. A static 256-entry table maps a byte to eight lane masks,
//! and for each row in index order each lane adds
//! `f64::from_bits(r.to_bits() & mask)`, two blocks per pass over the
//! rows; the gains are read lane by lane, in the same order. Every
//! shortcut is exact: each round picks the split a full per-round scan
//! picks, bit for bit, so the model bytes do not change:
//!
//! * thresholds, row counts and comparison bits depend only on the
//!   features, which never change during training;
//! * a later threshold equal (`==`) to an earlier one of the same feature
//!   splits the rows the same way, so it has the same gain and can never
//!   pass the strict `gain > best + 1e-12` test the earlier one met or
//!   failed; a dropped candidate has an empty branch, which the scan skips;
//! * `r & 0` is `+0.0` and `r & !0` is `r`, the two values
//!   `if x >= t { r } else { 0.0 }` gives; a sum that starts at `+0.0`
//!   never becomes `-0.0`, and adding `+0.0` to any other value leaves its
//!   bits unchanged, so each lane adds the same terms in the same order as
//!   summing only the rows at or above its threshold. Packing lanes across
//!   features changes no lane's sequence of adds, and padding lanes are
//!   never read.
//!
//! The unit tests keep the full per-round scan as the reference and
//! compare the two bit for bit on inputs aimed at each shortcut.
//!
//! Targets are `ln(penalty)` — slowdowns are ratios, so errors compose
//! multiplicatively — and predictions return through `exp`. The integer
//! seed only drives the k-fold shuffle (SplitMix64 Fisher–Yates); training
//! itself is seed-free and therefore bit-identical for identical pairs in
//! identical order.

use interference::codec::{Dec, Enc};
use simcore::SplitMix64;

/// One decision stump: `x[feature] >= threshold ? right : left`.
#[derive(Clone, Debug, PartialEq)]
pub struct Stump {
    /// Feature index the stump splits on.
    pub feature: u32,
    /// Split threshold (standardized feature space).
    pub threshold: f64,
    /// Prediction for `x < threshold`.
    pub left: f64,
    /// Prediction for `x >= threshold`.
    pub right: f64,
}

/// A trained counter→slowdown model.
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    /// Feature dimension.
    pub dim: usize,
    /// Per-feature standardization mean.
    pub mean: Vec<f64>,
    /// Per-feature standardization scale (1 for constant features).
    pub scale: Vec<f64>,
    /// Target (log-slowdown) mean, added back at prediction.
    pub y_mean: f64,
    /// Ridge weights over standardized features.
    pub weights: Vec<f64>,
    /// Boosted stump ensemble over standardized features.
    pub stumps: Vec<Stump>,
    /// Boosting shrinkage applied to every stump's contribution.
    pub shrink: f64,
}

/// Training hyper-parameters. [`Params::default`] is what every in-repo
/// caller uses; the fields are public for the property tests.
#[derive(Clone, Debug)]
pub struct Params {
    /// Ridge penalty λ on standardized features.
    pub lambda: f64,
    /// Boosting rounds (stump count upper bound).
    pub rounds: usize,
    /// Boosting shrinkage.
    pub shrink: f64,
    /// Candidate split quantiles per feature and round.
    pub cuts: usize,
    /// Feature indices whose learned response must be non-decreasing.
    pub monotone_up: Vec<usize>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            lambda: 1.0,
            rounds: 200,
            shrink: 0.1,
            cuts: 16,
            monotone_up: Vec::new(),
        }
    }
}

fn standardize(features: &[Vec<f64>], dim: usize) -> (Vec<f64>, Vec<f64>) {
    let n = features.len() as f64;
    let mut mean = vec![0.0; dim];
    for x in features {
        for (m, v) in mean.iter_mut().zip(x) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut var = vec![0.0; dim];
    for x in features {
        for j in 0..dim {
            let d = x[j] - mean[j];
            var[j] += d * d;
        }
    }
    let scale = var
        .iter()
        .map(|v| {
            let s = (v / n).sqrt();
            if s > 0.0 {
                s
            } else {
                1.0
            }
        })
        .collect();
    (mean, scale)
}

/// Solve `A w = b` for symmetric positive-definite `A` by Gaussian
/// elimination with partial pivoting. `A` is consumed as a row-major
/// square matrix.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty column");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        if p == 0.0 {
            continue;
        }
        for row in (col + 1)..n {
            let f = a[row][col] / p;
            if f == 0.0 {
                continue;
            }
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut w = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col][k] * w[k];
        }
        w[col] = if a[col][col] != 0.0 {
            acc / a[col][col]
        } else {
            0.0
        };
    }
    w
}

/// Lanes per block: a block keeps one byte per row, one bit per lane.
const LANES: usize = 8;

/// The lane masks of a block byte: entry `b` holds, for each lane `k`,
/// all ones where bit `k` of `b` is set and zero where it is clear.
static MASKS: [[u64; LANES]; 256] = lane_masks();

const fn lane_masks() -> [[u64; LANES]; 256] {
    let mut masks = [[0; LANES]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < LANES {
            if b >> k & 1 == 1 {
                masks[b][k] = u64::MAX;
            }
            k += 1;
        }
        b += 1;
    }
    masks
}

/// One live split candidate.
struct Cut {
    feature: u32,
    monotone: bool,
    threshold: f64,
    /// Rows with `x >= threshold`.
    right_n: usize,
}

/// The split candidates of one training set (see the module doc).
struct Candidates {
    rows: usize,
    /// Live candidates in feature-then-threshold order; cut `i` is lane
    /// `i % LANES` of block `i / LANES`.
    cuts: Vec<Cut>,
    /// Block-major comparison bits, an even number of blocks: bit `k` of
    /// `bits[block * rows + row]` is set when the row's value of lane
    /// `k`'s feature is `>=` its threshold. Padding lanes stay clear.
    bits: Vec<u8>,
}

impl Candidates {
    fn new(xs: &[Vec<f64>], params: &Params) -> Candidates {
        let rows = xs.len();
        let dim = xs.first().map_or(0, Vec::len);
        let mut cuts = Vec::new();
        let mut bits = Vec::new();
        for feature in 0..dim {
            let column: Vec<f64> = xs.iter().map(|x| x[feature]).collect();
            let mut vals = column.clone();
            vals.sort_by(f64::total_cmp);
            let first = cuts.len();
            let mut last = None;
            for c in 1..=params.cuts {
                // Candidate thresholds at fixed interior quantiles of the
                // feature's empirical distribution.
                let threshold = vals[(c * (rows - 1) / (params.cuts + 1)).min(rows - 1)];
                if last == Some(threshold) {
                    continue;
                }
                last = Some(threshold);
                let right_n = column.iter().filter(|&&x| x >= threshold).count();
                if right_n > 0 && right_n < rows {
                    cuts.push(Cut {
                        feature: feature as u32,
                        monotone: params.monotone_up.contains(&feature),
                        threshold,
                        right_n,
                    });
                }
            }
            // Room for the feature's lanes, in whole pairs of blocks.
            bits.resize(cuts.len().div_ceil(2 * LANES) * 2 * rows, 0);
            for (j, cut) in cuts[first..].iter().enumerate() {
                let lane = first + j;
                let block = &mut bits[lane / LANES * rows..][..rows];
                for (b, &x) in block.iter_mut().zip(&column) {
                    *b |= u8::from(x >= cut.threshold) << (lane % LANES);
                }
            }
        }
        Candidates { rows, cuts, bits }
    }

    /// The best stump for one boosting round and its gain, or `None` when
    /// no candidate gains more than `1e-12`.
    fn fit_stump(&self, residual: &[f64]) -> Option<(Stump, f64)> {
        let total: f64 = residual.iter().sum();
        let mut best: Option<(Stump, f64)> = None;
        // Two blocks per pass over the rows: sixteen accumulators.
        let pairs = self.bits.chunks_exact(2 * self.rows);
        for (cuts, pair) in self.cuts.chunks(2 * LANES).zip(pairs) {
            let (lo, hi) = pair.split_at(self.rows);
            let mut acc = [0.0f64; 2 * LANES];
            for ((&lo, &hi), &r) in lo.iter().zip(hi).zip(residual) {
                let (lo, hi, r) = (&MASKS[lo as usize], &MASKS[hi as usize], r.to_bits());
                for k in 0..LANES {
                    acc[k] += f64::from_bits(r & lo[k]);
                    acc[LANES + k] += f64::from_bits(r & hi[k]);
                }
            }
            for (cut, &right_sum) in cuts.iter().zip(&acc) {
                let left_n = self.rows - cut.right_n;
                let left_sum = total - right_sum;
                let left = left_sum / left_n as f64;
                let right = right_sum / cut.right_n as f64;
                if cut.monotone && right < left {
                    // Pool the branches: the isotonic projection of a
                    // two-piece violation is the common mean, i.e. no
                    // split — worthless, so skip.
                    continue;
                }
                // Squared-error reduction of the split.
                let gain = left * left_sum + right * right_sum;
                // Deterministic tie-breaks: strictly greater gain wins;
                // equal-gain candidates resolve to the earliest feature and
                // lowest threshold by lane order.
                let better = match &best {
                    None => gain > 1e-12,
                    Some((_, best_gain)) => gain > *best_gain + 1e-12,
                };
                if better {
                    // Shrinkage applies at prediction; store raw branch
                    // means.
                    best = Some((
                        Stump {
                            feature: cut.feature,
                            threshold: cut.threshold,
                            left,
                            right,
                        },
                        gain,
                    ));
                }
            }
        }
        best
    }
}

/// Train a model on (features, log-target) pairs. `targets` are the raw
/// slowdown penalties (> 0); the learner works on their logarithms.
pub fn train(features: &[Vec<f64>], targets: &[f64], params: &Params) -> Model {
    assert_eq!(features.len(), targets.len());
    assert!(!features.is_empty(), "training set must be non-empty");
    let dim = features[0].len();
    let (mean, scale) = standardize(features, dim);
    let xs: Vec<Vec<f64>> = features
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(j, v)| (v - mean[j]) / scale[j])
                .collect()
        })
        .collect();
    let ys: Vec<f64> = targets.iter().map(|t| t.max(1e-9).ln()).collect();
    let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let yc: Vec<f64> = ys.iter().map(|y| y - y_mean).collect();

    // Gram matrix + ridge diagonal, accumulated in fixed (i, j, row) order.
    let mut gram = vec![vec![0.0; dim]; dim];
    let mut xty = vec![0.0; dim];
    for (x, y) in xs.iter().zip(&yc) {
        for i in 0..dim {
            for j in i..dim {
                gram[i][j] += x[i] * x[j];
            }
            xty[i] += x[i] * y;
        }
    }
    for i in 0..dim {
        for j in 0..i {
            gram[i][j] = gram[j][i];
        }
        gram[i][i] += params.lambda;
    }
    let weights = solve(gram, xty);

    // Boost stumps on the ridge residuals.
    let mut residual: Vec<f64> = xs
        .iter()
        .zip(&yc)
        .map(|(x, y)| {
            let mut lin = 0.0;
            for (w, v) in weights.iter().zip(x) {
                lin += w * v;
            }
            y - lin
        })
        .collect();
    let candidates = Candidates::new(&xs, params);
    let mut stumps = Vec::new();
    for _ in 0..params.rounds {
        let Some((stump, _)) = candidates.fit_stump(&residual) else {
            break;
        };
        for (x, r) in xs.iter().zip(&mut residual) {
            let p = if x[stump.feature as usize] >= stump.threshold {
                stump.right
            } else {
                stump.left
            };
            *r -= params.shrink * p;
        }
        stumps.push(stump);
    }
    Model {
        dim,
        mean,
        scale,
        y_mean,
        weights,
        stumps,
        shrink: params.shrink,
    }
}

impl Model {
    /// Predicted slowdown penalty for a feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        let x: Vec<f64> = features
            .iter()
            .enumerate()
            .map(|(j, v)| (v - self.mean[j]) / self.scale[j])
            .collect();
        let mut y = self.y_mean;
        for (w, v) in self.weights.iter().zip(&x) {
            y += w * v;
        }
        for s in &self.stumps {
            y += self.shrink
                * if x[s.feature as usize] >= s.threshold {
                    s.right
                } else {
                    s.left
                };
        }
        y.exp()
    }

    /// Exact-bits serialization (the "model file" byte surface the
    /// determinism gate compares).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.dim as u32)
            .f64s(&self.mean)
            .f64s(&self.scale)
            .f64(self.y_mean)
            .f64s(&self.weights)
            .f64(self.shrink)
            .u32(self.stumps.len() as u32);
        for s in &self.stumps {
            e.u32(s.feature).f64(s.threshold).f64(s.left).f64(s.right);
        }
        e.into_bytes()
    }

    /// Inverse of [`Model::encode`]; `None` on any malformation.
    pub fn decode(bytes: &[u8]) -> Option<Model> {
        let mut d = Dec::new(bytes);
        let dim = d.u32()? as usize;
        let mean = d.f64s()?;
        let scale = d.f64s()?;
        let y_mean = d.f64()?;
        let weights = d.f64s()?;
        let shrink = d.f64()?;
        let n = d.u32()? as usize;
        let mut stumps = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            stumps.push(Stump {
                feature: d.u32()?,
                threshold: d.f64()?,
                left: d.f64()?,
                right: d.f64()?,
            });
        }
        if mean.len() != dim
            || scale.len() != dim
            || weights.len() != dim
            || stumps.iter().any(|s| s.feature as usize >= dim)
        {
            return None;
        }
        d.finish(Model {
            dim,
            mean,
            scale,
            y_mean,
            weights,
            stumps,
            shrink,
        })
    }
}

/// Deterministic Fisher–Yates shuffle of `0..n` from an integer seed.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0f12_ab34_cd56);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// Partition `0..n` into `k` folds after a seeded shuffle. Every index
/// appears in exactly one fold; folds differ in size by at most one.
pub fn kfold(n: usize, k: usize, seed: u64) -> Vec<Vec<usize>> {
    let k = k.clamp(2, n.max(2));
    let order = shuffled_indices(n, seed);
    (0..k)
        .map(|fold| order.iter().copied().skip(fold).step_by(k).collect())
        .collect()
}

/// The full per-round scan [`Candidates::fit_stump`] replaces: sort every
/// feature, then sum each quantile threshold's right branch row by row.
/// Kept as the oracle the unit tests compare the production kernel with,
/// bit for bit.
#[cfg(test)]
mod reference {
    use super::{Params, Stump};

    pub(super) fn fit_stump(
        xs: &[Vec<f64>],
        residual: &[f64],
        params: &Params,
    ) -> Option<(Stump, f64)> {
        let n = xs.len();
        let dim = xs.first()?.len();
        let total: f64 = residual.iter().sum();
        let mut best: Option<(Stump, f64)> = None;
        for feature in 0..dim {
            let mut vals: Vec<f64> = xs.iter().map(|x| x[feature]).collect();
            vals.sort_by(f64::total_cmp);
            let monotone = params.monotone_up.contains(&feature);
            for c in 1..=params.cuts {
                // Candidate thresholds at fixed interior quantiles of the
                // feature's empirical distribution.
                let pos = c * (n - 1) / (params.cuts + 1);
                let threshold = vals[pos.min(n - 1)];
                let mut right_sum = 0.0;
                let mut right_n = 0usize;
                for (x, r) in xs.iter().zip(residual) {
                    if x[feature] >= threshold {
                        right_sum += r;
                        right_n += 1;
                    }
                }
                let left_n = n - right_n;
                if right_n == 0 || left_n == 0 {
                    continue;
                }
                let left_sum = total - right_sum;
                let left = left_sum / left_n as f64;
                let right = right_sum / right_n as f64;
                if monotone && right < left {
                    // Pool the branches: the isotonic projection of a
                    // two-piece violation is the common mean, i.e. no split —
                    // worthless, so skip.
                    continue;
                }
                // Squared-error reduction of the split.
                let gain = left * left_sum + right * right_sum;
                // Deterministic tie-breaks: strictly greater gain wins;
                // equal-gain candidates resolve to the earliest feature and
                // lowest threshold by iteration order.
                let better = match &best {
                    None => gain > 1e-12,
                    Some((_, g)) => gain > *g + 1e-12,
                };
                if better {
                    // Shrinkage applies at prediction; store raw branch means.
                    best = Some((
                        Stump {
                            feature: feature as u32,
                            threshold,
                            left,
                            right,
                        },
                        gain,
                    ));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn synthetic(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SplitMix64::new(7);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = (rng.next_u64() % 1000) as f64 / 1000.0;
            let b = (rng.next_u64() % 1000) as f64 / 1000.0;
            let c = (rng.next_u64() % 1000) as f64 / 1000.0;
            xs.push(vec![a, b, c]);
            ys.push((0.8 * a - 0.3 * b + 0.1 * (c > 0.5) as u8 as f64).exp());
        }
        (xs, ys)
    }

    #[test]
    fn learns_a_planted_log_linear_model() {
        let (xs, ys) = synthetic(200);
        let model = train(&xs, &ys, &Params::default());
        // Held-out predictions: 5-fold, each fold scored by a model
        // trained on the other four.
        let mut held_out = Vec::new();
        for held in kfold(xs.len(), 5, 3) {
            let kept: Vec<usize> = (0..xs.len()).filter(|i| !held.contains(i)).collect();
            let tf: Vec<Vec<f64>> = kept.iter().map(|&i| xs[i].clone()).collect();
            let tt: Vec<f64> = kept.iter().map(|&i| ys[i]).collect();
            let fold_model = train(&tf, &tt, &Params::default());
            held_out.extend(
                held.iter()
                    .map(|&i| (fold_model.predict(&xs[i]) - ys[i]).abs() / ys[i]),
            );
        }
        let median = simcheck::stats::median(&held_out);
        assert!(median < 0.05, "held-out median err {}", median);
        // In-sample predictions track the target closely too.
        let e: Vec<f64> = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (model.predict(x) - y).abs() / y)
            .collect();
        assert!(simcheck::stats::median(&e) < 0.05);
    }

    #[test]
    fn training_is_bit_deterministic() {
        let (xs, ys) = synthetic(120);
        let a = train(&xs, &ys, &Params::default());
        let b = train(&xs, &ys, &Params::default());
        assert_eq!(a.encode(), b.encode());
        let (p, q) = (a.predict(&xs[7]), b.predict(&xs[7]));
        assert_eq!(p.to_bits(), q.to_bits());
    }

    #[test]
    fn model_codec_roundtrips() {
        let (xs, ys) = synthetic(60);
        let m = train(&xs, &ys, &Params::default());
        assert!(!m.stumps.is_empty());
        let d = Model::decode(&m.encode()).expect("roundtrip");
        assert_eq!(d, m);
        let mut bytes = m.encode();
        bytes.push(9);
        assert!(Model::decode(&bytes).is_none());
    }

    /// A stump on a feature the model does not have would make `predict`
    /// index out of bounds, so `decode` rejects it.
    #[test]
    fn decode_rejects_a_stump_outside_the_features() {
        let (xs, ys) = synthetic(60);
        let m = train(&xs, &ys, &Params::default());
        for feature in [m.dim as u32, 9999] {
            let mut bad = m.clone();
            bad.stumps[0].feature = feature;
            assert!(Model::decode(&bad.encode()).is_none(), "feature {feature}");
        }
        let mut last = m.clone();
        last.stumps[0].feature = m.dim as u32 - 1;
        assert_eq!(Model::decode(&last.encode()), Some(last));
    }

    #[test]
    fn monotone_constraint_holds_structurally() {
        // Single-bottleneck synthetic pairs: penalty grows with feature 0,
        // the other features are noise.
        let mut rng = SplitMix64::new(11);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..150 {
            let pressure = i as f64 / 150.0;
            let noise = (rng.next_u64() % 1000) as f64 / 1000.0;
            xs.push(vec![pressure, noise]);
            ys.push((1.0 + 2.0 * pressure * pressure).max(1.0));
        }
        let params = Params {
            monotone_up: vec![0],
            ..Params::default()
        };
        let model = train(&xs, &ys, &params);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=40 {
            let p = model.predict(&[i as f64 / 40.0, 0.5]);
            assert!(
                p >= last - 1e-9,
                "prediction dropped at pressure {}: {} < {}",
                i,
                p,
                last
            );
            last = p;
        }
    }

    #[test]
    fn shuffle_is_seeded_and_complete() {
        let a = shuffled_indices(50, 1);
        let b = shuffled_indices(50, 1);
        let c = shuffled_indices(50, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    /// Cut counts the oracle covers: none, one, a few, the default, and
    /// more than most generated sets have rows.
    const ORACLE_CUTS: [usize; 5] = [0, 1, 3, 16, 40];

    /// One oracle input: row-major features, residuals and params, aimed
    /// at each shortcut of [`Candidates`].
    fn oracle_case(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Params) {
        let mut rng = TestRng::new(seed);
        let cuts = ORACLE_CUTS[rng.below(ORACLE_CUTS.len() as u64) as usize];
        // From one row to well past `cuts + 1`, so quantile positions
        // collide or spread out and features keep few or many lanes.
        let rows = 1 + rng.below((cuts + 2 + 3 * LANES) as u64) as usize;
        // Up to twelve features, so blocks hold lanes of several features
        // and the last block ends part-full, in an odd or even position.
        let dim = 1 + rng.below(12) as usize;
        let mut cols: Vec<Vec<f64>> = Vec::with_capacity(dim);
        for j in 0..dim {
            let col: Vec<f64> = match rng.below(5) {
                // Few levels: duplicate thresholds and empty branches.
                0 => {
                    let levels = 1 + rng.below(3);
                    (0..rows).map(|_| rng.below(levels) as f64).collect()
                }
                // Constant.
                1 => vec![rng.next_f64(); rows],
                // `metric_is_lat × f`: a zero flag times a negative value
                // gives -0.0, times a positive one +0.0.
                2 => (0..rows)
                    .map(|_| rng.below(2) as f64 * [-1.5, 2.0][rng.below(2) as usize])
                    .collect(),
                // An earlier column scaled by a power of two: the same
                // splits, so equal gains across features.
                3 if j > 0 => {
                    let scale = [0.5, 1.0, 2.0][rng.below(3) as usize];
                    cols[rng.below(j as u64) as usize]
                        .iter()
                        .map(|v| v * scale)
                        .collect()
                }
                _ => (0..rows).map(|_| rng.next_f64() * 4.0 - 2.0).collect(),
            };
            cols.push(col);
        }
        let step = rng.below(dim as u64) as usize;
        let sign = [-1.0, 1.0][rng.below(2) as usize];
        // At the larger scale gains pass 1e10, far above the ~1e4 where
        // `g + 1e-12 == g`, so only the strictness of `>` keeps an equal
        // gain from winning.
        let scale = [1.0, 1e6][rng.below(2) as usize];
        let residual = (0..rows)
            .map(|i| {
                scale
                    * match rng.below(4) {
                        // Small integers: exact sums and equal-gain ties.
                        0 => rng.below(5) as f64 - 2.0,
                        // Signed zeros in the sums.
                        1 => [-0.0, 0.0][rng.below(2) as usize],
                        // A step on one column, rising or falling: the
                        // falling one makes `right < left` on monotone
                        // features.
                        2 => sign * if cols[step][i] >= 0.0 { 1.0 } else { -1.0 },
                        _ => rng.next_f64() * 2.0 - 1.0,
                    }
            })
            .collect();
        let xs = (0..rows)
            .map(|i| cols.iter().map(|c| c[i]).collect())
            .collect();
        let params = Params {
            cuts,
            monotone_up: (0..dim).filter(|_| rng.below(2) == 0).collect(),
            ..Params::default()
        };
        (xs, residual, params)
    }

    type SplitBits = Option<(u32, u64, u64, u64, u64)>;

    /// A split as bits: feature, threshold, left, right and gain.
    fn split_bits(s: Option<(Stump, f64)>) -> SplitBits {
        s.map(|(s, gain)| {
            (
                s.feature,
                s.threshold.to_bits(),
                s.left.to_bits(),
                s.right.to_bits(),
                gain.to_bits(),
            )
        })
    }

    /// Up to `rounds` boosting rounds, each fitting the candidate kernel's
    /// and the reference scan's split to the residuals and then taking the
    /// kernel's: both picks as bits per round, ending after the first
    /// round without a split.
    fn kernel_and_reference_rounds(
        xs: &[Vec<f64>],
        mut residual: Vec<f64>,
        params: &Params,
        rounds: usize,
    ) -> Vec<(SplitBits, SplitBits)> {
        let candidates = Candidates::new(xs, params);
        let mut picks = Vec::new();
        for _ in 0..rounds {
            let got = candidates.fit_stump(&residual);
            let want = reference::fit_stump(xs, &residual, params);
            picks.push((split_bits(got.clone()), split_bits(want)));
            let Some((stump, _)) = got else { break };
            for (x, r) in xs.iter().zip(&mut residual) {
                let p = if x[stump.feature as usize] >= stump.threshold {
                    stump.right
                } else {
                    stump.left
                };
                *r -= params.shrink * p;
            }
        }
        picks
    }

    /// Hand-built columns whose 23 lanes fill three blocks, the last one
    /// odd: feature 0's four lanes and feature 2's first four share block
    /// 0, feature 1 (constant) has no live lane between them, and the
    /// monotone feature 3's three lanes end the tail block after feature
    /// 2's last four. The kernel matches the reference scan bit for bit
    /// in each round, and the rounds split on features 0, 2 and 3.
    #[test]
    fn packed_blocks_across_features_match_the_reference() {
        let rows = 40;
        let level0 = |i: usize| (i % 5) as f64;
        let level3 = |i: usize| (i * 7 % 4) as f64;
        let xs: Vec<Vec<f64>> = (0..rows)
            .map(|i| {
                let spread = (i * 17 % rows) as f64 * 0.25 - 3.0;
                vec![level0(i), 1.5, spread, level3(i)]
            })
            .collect();
        // A rising step on feature 3 at 2, a falling one at 3 that its
        // monotone constraint rejects, a step on feature 0 and a slope on
        // feature 2, with small uneven terms so no sum is exact.
        let residual: Vec<f64> = (0..rows)
            .map(|i| {
                let step = |x: f64, t: f64| f64::from(u8::from(x >= t));
                step(level3(i), 2.0) - 0.8 * step(level3(i), 3.0) + 0.6 * step(level0(i), 3.0)
                    - 0.05 * xs[i][2]
                    + ((i * 37 % 11) as f64 - 5.0) * 0.01
            })
            .collect();
        let params = Params {
            shrink: 1.0,
            monotone_up: vec![3],
            ..Params::default()
        };
        let picks = kernel_and_reference_rounds(&xs, residual, &params, 12);
        for (round, (got, want)) in picks.iter().enumerate() {
            assert_eq!(got, want, "round {round}");
        }
        let mut features: Vec<u32> = picks.iter().flat_map(|p| p.0).map(|s| s.0).collect();
        features.sort_unstable();
        features.dedup();
        assert_eq!(features, [0, 2, 3]);
        // The layout the doc comment describes.
        let candidates = Candidates::new(&xs, &params);
        let lanes: Vec<u32> = candidates.cuts.iter().map(|c| c.feature).collect();
        let want: Vec<u32> = [[0; 4].as_slice(), &[2; 16], &[3; 3]].concat();
        assert_eq!(lanes, want);
        assert!(candidates.cuts[20..].iter().all(|c| c.monotone));
        assert_eq!(candidates.bits.len(), 4 * rows, "three blocks and a pad");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(1024)))]

        /// The candidate kernel picks the reference scan's split, bit for
        /// bit, in each of several boosting rounds.
        #[test]
        fn candidate_kernel_matches_reference_scan(seed in any::<u64>()) {
            let (xs, residual, params) = oracle_case(seed);
            let picks = kernel_and_reference_rounds(&xs, residual, &params, 4);
            for (round, (g, w)) in picks.iter().enumerate() {
                prop_assert_eq!(g, w, "round {} of seed {}: {:?} vs {:?}", round, seed, g, w);
            }
        }
    }
}
