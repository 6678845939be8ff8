//! Dense general matrix–matrix multiplication (GEMM).
//!
//! Real implementations (naive reference + cache-blocked) used by examples
//! and tests, plus the *tile task descriptor* used by the distributed
//! use-case of §6: the paper runs a dense GEMM built on StarPU + MKL over two
//! nodes and observes communications losing at most ~20 % of bandwidth —
//! GEMM is compute-bound (high arithmetic intensity), so its memory pressure
//! is moderate (~20 % of CPU stalls from memory at full occupancy).

use freq::License;
use memsim::exec::Phase;
use topology::NumaId;

/// Naive triple loop, row-major `C ← C + A·B` (`m×k`, `k×n`).
pub fn gemm_naive(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            for j in 0..n {
                c[i * n + j] += aip * b[p * n + j];
            }
        }
    }
}

/// Cache-blocked `C ← C + A·B` with `bs`-sized blocks; identical results to
/// [`gemm_naive`] up to floating-point associativity (we accumulate in the
/// same order within a block row, so results are exactly equal for the
/// blocked loop order used here when `bs ≥ k`; otherwise equal within fp
/// tolerance).
pub fn gemm_blocked(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64], bs: usize) {
    assert!(bs > 0);
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    assert_eq!(c.len(), m * n);
    for ii in (0..m).step_by(bs) {
        for pp in (0..k).step_by(bs) {
            for jj in (0..n).step_by(bs) {
                let i_end = (ii + bs).min(m);
                let p_end = (pp + bs).min(k);
                let j_end = (jj + bs).min(n);
                for i in ii..i_end {
                    for p in pp..p_end {
                        let aip = a[i * k + p];
                        for j in jj..j_end {
                            c[i * n + j] += aip * b[p * n + j];
                        }
                    }
                }
            }
        }
    }
}

/// Flops of a `b×b×b` tile update: `2·b³` (multiply + add).
pub fn tile_flops(b: usize) -> f64 {
    2.0 * (b as f64).powi(3)
}

/// Modelled memory traffic of one `b×b×b` tile GEMM with cache blocking.
///
/// A well-blocked kernel streams each operand tile from memory roughly 1.5
/// times (A and B panels are reused from cache across the inner blocking,
/// C is read+written): ≈ `1.5 · 3 · 8 · b²` bytes.
pub fn tile_bytes(b: usize) -> f64 {
    1.5 * 3.0 * 8.0 * (b as f64).powi(2)
}

/// Arithmetic intensity of a tile GEMM — grows linearly with tile size
/// (`b/18` flop/B); 512-tiles are ≈ 28 flop/B, firmly compute-bound.
pub fn tile_intensity(b: usize) -> f64 {
    tile_flops(b) / tile_bytes(b)
}

/// Simulator phase for one tile update on data homed at `data`.
pub fn tile_phase(b: usize, data: NumaId) -> Phase {
    Phase {
        flops: tile_flops(b),
        bytes: tile_bytes(b),
        data,
        license: License::Avx512,
    }
}

/// Two-phase tile model: a short panel-load burst (streaming the operand
/// tiles in, low intensity) followed by the cache-resident compute body.
/// The bursty loads of many workers collide on the controllers, producing
/// the intermittent stalls and mild communication impact the paper measures
/// for GEMM (§6) — behaviour a single averaged phase cannot show.
pub fn tile_phases_bursty(b: usize, data: NumaId) -> Vec<Phase> {
    let flops = tile_flops(b);
    let bytes = tile_bytes(b);
    vec![
        Phase {
            flops: 0.05 * flops,
            bytes: 0.75 * bytes,
            data,
            license: License::Avx512,
        },
        Phase {
            flops: 0.95 * flops,
            bytes: 0.25 * bytes,
            data,
            license: License::Avx512,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Pcg32;

    fn random_matrix(rng: &mut Pcg32, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    #[test]
    fn blocked_matches_naive() {
        let mut rng = Pcg32::new(42, 0);
        for &(m, n, k, bs) in &[(4, 4, 4, 2), (8, 8, 8, 3), (13, 7, 9, 4), (16, 16, 16, 16)] {
            let a = random_matrix(&mut rng, m * k);
            let b = random_matrix(&mut rng, k * n);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm_naive(m, n, k, &a, &b, &mut c1);
            gemm_blocked(m, n, k, &a, &b, &mut c2, bs);
            for (x, y) in c1.iter().zip(&c2) {
                assert!((x - y).abs() < 1e-12, "mismatch {} vs {}", x, y);
            }
        }
    }

    #[test]
    fn identity_multiplication() {
        let n = 5;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 1.0;
        }
        let b: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut c = vec![0.0; n * n];
        gemm_naive(n, n, n, &a, &b, &mut c);
        assert_eq!(b, c);
    }

    #[test]
    fn accumulates_into_c() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [1.0, 2.0, 3.0, 4.0];
        let mut c = [10.0, 10.0, 10.0, 10.0];
        gemm_naive(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn tile_model_scaling() {
        // Intensity grows linearly with tile size.
        assert!((tile_intensity(512) / tile_intensity(256) - 2.0).abs() < 1e-12);
        // 512-tile ≈ 28.4 flop/B — compute-bound on every preset.
        let ai = tile_intensity(512);
        assert!((25.0..32.0).contains(&ai), "ai {}", ai);
    }

    #[test]
    fn tile_phase_license() {
        let p = tile_phase(256, NumaId(1));
        assert_eq!(p.license, License::Avx512);
        assert_eq!(p.data, NumaId(1));
        assert!(p.flops > p.bytes); // compute-bound
    }
}
