//! One driver per paper figure/table, registered behind the
//! [`crate::campaign::Experiment`] trait.
//!
//! Every driver returns [`crate::report::FigureData`] containing the
//! simulated series, notes quoting the paper's reference values and
//! automated qualitative checks. Drivers take a [`Fidelity`]: `Full`
//! matches the paper's sweep density (used by the `repro` binary and the
//! `paper_campaign` benchmark workload), `Quick` thins sweeps and
//! repetitions for tests.
//!
//! Drivers are run only through the campaign engine: one experiment with
//! [`crate::campaign::run_experiment`], a suite with
//! [`crate::campaign::run_set`] (and its report/store variants) over
//! [`PAPER_EXPERIMENTS`] / [`EXTENSION_EXPERIMENTS`], or raw point outcomes
//! with [`crate::campaign::run_outcomes_with_store`].

pub mod ablations;
pub mod collective_contention;
pub mod collective_dvfs;
pub mod contention;
pub mod cross_machine;
pub mod faulted_pingpong;
pub mod fig10_usecases;
pub mod fig1_frequency;
pub mod fig2_freq_dynamics;
pub mod fig3_avx;
pub mod fig4_contention;
pub mod fig5_placement;
pub mod fig6_msgsize;
pub mod fig7_intensity;
pub mod fig8_runtime_overhead;
pub mod fig9_polling;
pub mod harvest;
pub mod overlap;
pub mod table1;
pub mod validation;

use crate::campaign::Experiment;

/// Sweep density / repetition selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fidelity {
    /// Paper-density sweeps (repro binary, `paper_campaign` benchmark).
    Full,
    /// Thinned sweeps for fast tests.
    Quick,
}

impl Fidelity {
    /// Repetitions per configuration.
    pub fn reps(self) -> u32 {
        match self {
            Fidelity::Full => 7,
            Fidelity::Quick => 2,
        }
    }

    /// Ping-pong repetitions for latency measurements.
    pub fn lat_reps(self) -> u32 {
        match self {
            Fidelity::Full => 20,
            Fidelity::Quick => 4,
        }
    }

    /// Ping-pong repetitions for bandwidth measurements.
    pub fn bw_reps(self) -> u32 {
        match self {
            Fidelity::Full => 4,
            Fidelity::Quick => 2,
        }
    }

    /// Pick a fidelity-dependent scalar (`Full` vs `Quick`).
    pub fn choose<T>(self, full: T, quick: T) -> T {
        match self {
            Fidelity::Full => full,
            Fidelity::Quick => quick,
        }
    }

    /// Pick a fidelity-dependent sweep: the full sweep, or a hand-picked
    /// `Quick` subset (for sweeps where generic thinning would lose the
    /// qualitative shape, e.g. a crossover that must stay straddled).
    pub fn pick<T: Copy>(self, full: &[T], quick: &[T]) -> Vec<T> {
        match self {
            Fidelity::Full => full.to_vec(),
            Fidelity::Quick => quick.to_vec(),
        }
    }

    /// Thin a sweep: `Full` keeps it, `Quick` keeps the endpoints plus the
    /// midpoint.
    pub fn thin<T: Copy>(self, xs: &[T]) -> Vec<T> {
        match self {
            Fidelity::Full => xs.to_vec(),
            Fidelity::Quick => {
                if xs.len() <= 3 {
                    return xs.to_vec();
                }
                let mut out = vec![xs[0]];
                let mid = xs.len() / 2;
                out.push(xs[mid]);
                out.push(*xs.last().expect("non-empty"));
                out
            }
        }
    }
}

/// The paper's figures and table, in figure order (`repro --all`).
pub static PAPER_EXPERIMENTS: &[&dyn Experiment] = &[
    &fig1_frequency::Fig1,
    &fig2_freq_dynamics::Fig2,
    &fig3_avx::Fig3,
    &fig4_contention::Fig4,
    &fig5_placement::Fig5,
    &table1::Table1,
    &fig6_msgsize::Fig6,
    &fig7_intensity::Fig7,
    &fig8_runtime_overhead::Fig8,
    &fig9_polling::Fig9,
    &fig10_usecases::Fig10,
];

/// The extension studies (not paper figures), in `repro --ext` order.
pub static EXTENSION_EXPERIMENTS: &[&dyn Experiment] = &[
    &cross_machine::CrossMachine,
    &ablations::Ablations,
    &overlap::Overlap,
    &faulted_pingpong::FaultedPingpong,
    &collective_contention::CollectiveContention,
    &collective_dvfs::CollectiveDvfs,
];

/// Every registered experiment: paper figures first, then extensions.
pub fn all_experiments() -> Vec<&'static dyn Experiment> {
    PAPER_EXPERIMENTS
        .iter()
        .chain(EXTENSION_EXPERIMENTS)
        .copied()
        .collect()
}

/// Look an experiment up by registry name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    all_experiments().into_iter().find(|e| e.name() == name)
}

/// The validation campaign (`repro --validate`). Deliberately *outside*
/// the registries: `--all` reproduces the paper, validation interrogates
/// the simulator itself (see [`validation`]).
pub static VALIDATION_EXPERIMENT: &dyn Experiment = &validation::Validate { fuzz_budget: None };

/// The predictor's training-pair harvest (`repro predict` pipelines).
/// Outside the registries for the same reason as validation: it feeds the
/// placement advisor rather than reproducing a paper figure.
pub static HARVEST_EXPERIMENT: &dyn Experiment = &harvest::Harvest { filter: None };

/// Standard message-size sweep (powers of four, 4 B – 64 MiB).
pub fn size_sweep() -> Vec<usize> {
    (0..=12).map(|i| 4usize << (2 * i)).collect()
}

/// Run one experiment serially at Quick fidelity and return its figures:
/// the drivers' unit tests go through the campaign engine this way.
#[cfg(test)]
pub(crate) fn quick(exp: &dyn Experiment) -> Vec<crate::report::FigureData> {
    let opts = crate::campaign::CampaignOptions::serial(Fidelity::Quick);
    crate::campaign::run_experiment(exp, &opts).figures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_shape() {
        let s = size_sweep();
        assert_eq!(s[0], 4);
        assert_eq!(*s.last().unwrap(), 64 << 20);
        assert!(s.windows(2).all(|w| w[1] == w[0] * 4));
    }

    #[test]
    fn thinning() {
        let xs: Vec<u32> = (0..10).collect();
        assert_eq!(Fidelity::Full.thin(&xs).len(), 10);
        let t = Fidelity::Quick.thin(&xs);
        assert_eq!(t.first(), Some(&0));
        assert_eq!(t.last(), Some(&9));
        assert!(t.len() <= 4);
        let small = [1u32, 2];
        assert_eq!(Fidelity::Quick.thin(&small), vec![1, 2]);
    }

    #[test]
    fn fidelity_selectors() {
        assert_eq!(Fidelity::Full.choose(3, 2), 3);
        assert_eq!(Fidelity::Quick.choose(3, 2), 2);
        assert_eq!(Fidelity::Full.pick(&[1, 2, 3], &[1]), vec![1, 2, 3]);
        assert_eq!(Fidelity::Quick.pick(&[1, 2, 3], &[1]), vec![1]);
    }
}
