//! # kernels — computational kernels, real and modelled
//!
//! Every kernel the paper exercises, in two forms:
//!
//! 1. **Real Rust implementations** — run on the host, numerically verified
//!    (STREAM COPY/TRIAD, the tunable-intensity TRIAD, naive prime counting,
//!    an FMA burn loop, blocked GEMM, dense conjugate gradient). The
//!    examples call some of them, and their loop structure pins down the
//!    flop/byte accounting below.
//! 2. **Workload descriptors** — `(flops, bytes, NUMA node, license)` phase
//!    streams consumed by the simulator's executor ([`memsim::exec`]). The
//!    descriptor of each kernel is derived from the same loop structure as
//!    the real implementation, so the simulated arithmetic intensity is the
//!    real one.

#![warn(missing_docs)]

pub mod cg;
pub mod gemm;
pub mod primes;
pub mod roofline;
pub mod stream;
pub mod tunable;
pub mod vecops;

use freq::License;
use memsim::exec::{JobSpec, Phase};
use topology::{CoreId, NumaId};

/// A per-core workload: the phases of one iteration and the iteration count.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Phases executed each iteration.
    pub phases: Vec<Phase>,
    /// Number of iterations.
    pub iterations: u64,
    /// Human-readable name.
    pub name: &'static str,
}

impl Workload {
    /// Bind this workload to a core, producing an executor job spec.
    pub fn on_core(&self, core: CoreId) -> JobSpec {
        JobSpec {
            core,
            phases: self.phases.clone(),
            iterations: self.iterations,
        }
    }

    /// Total flops of the whole job.
    pub fn total_flops(&self) -> f64 {
        self.phases.iter().map(|p| p.flops).sum::<f64>() * self.iterations as f64
    }

    /// Total bytes of the whole job.
    pub fn total_bytes(&self) -> f64 {
        self.phases.iter().map(|p| p.bytes).sum::<f64>() * self.iterations as f64
    }

    /// Aggregate arithmetic intensity (flops/byte).
    pub fn intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0.0 {
            f64::INFINITY
        } else {
            self.total_flops() / b
        }
    }
}

/// Convenience constructor for a single-phase workload.
pub fn single_phase(
    name: &'static str,
    flops: f64,
    bytes: f64,
    data: NumaId,
    license: License,
    iterations: u64,
) -> Workload {
    Workload {
        phases: vec![Phase {
            flops,
            bytes,
            data,
            license,
        }],
        iterations,
        name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_totals() {
        let w = single_phase("t", 100.0, 50.0, NumaId(0), License::Normal, 4);
        assert_eq!(w.total_flops(), 400.0);
        assert_eq!(w.total_bytes(), 200.0);
        assert_eq!(w.intensity(), 2.0);
    }

    #[test]
    fn pure_compute_intensity_is_infinite() {
        let w = single_phase("t", 100.0, 0.0, NumaId(0), License::Normal, 1);
        assert!(w.intensity().is_infinite());
    }

    #[test]
    fn on_core_binds() {
        let w = single_phase("t", 1.0, 1.0, NumaId(2), License::Avx2, 3);
        let j = w.on_core(CoreId(5));
        assert_eq!(j.core, CoreId(5));
        assert_eq!(j.iterations, 3);
        assert_eq!(j.phases.len(), 1);
        assert_eq!(j.phases[0].data, NumaId(2));
    }
}
