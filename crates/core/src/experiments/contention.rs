//! Shared STREAM-vs-ping-pong contention measurements (Figures 4, 5 and
//! Table 1).
//!
//! One *contention point* is the three-step protocol at a given
//! (machine, placement, network metric, computing-core count). Figure 4
//! sweeps core counts for the paper's default placement, Figure 5 sweeps
//! all four placements, and Table 1 summarizes Figure 5 — so the three
//! experiments request overlapping points. Points are memoized in the
//! campaign's [`BaselineCache`] keyed by configuration content: within one
//! campaign, fig4, fig5 and table1 share every overlapping measurement
//! instead of recomputing three placement sweeps.
//!
//! The communication-alone step does not depend on the computing-core
//! count at all (no jobs run beside it), so it is memoized once per
//! (machine, placement, metric) and shared by every core count of the
//! sweep.

use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::PingPongConfig;
use topology::{BindingPolicy, MachineSpec, Placement};

use crate::campaign::PointCtx;
use crate::experiments::Fidelity;
use crate::protocol::{self, ProtocolConfig, RepMetrics, StepMask, StepResults};

/// STREAM array length per pass (paper-style large arrays).
pub const STREAM_ELEMS: usize = 2_000_000;

/// Core-count sweep used by Figures 4 and 5.
pub fn core_sweep(max: usize) -> Vec<usize> {
    let mut v: Vec<usize> = vec![1, 2, 3, 5, 7, 9, 12, 15, 18, 21, 24, 27, 30, 33, 35];
    v.retain(|&c| c <= max);
    v
}

/// The network metric a contention sweep measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// Small-message latency (µs).
    Latency,
    /// Large-message bandwidth (B/s).
    Bandwidth,
}

impl Metric {
    /// Short tag used in cache keys and point labels.
    pub fn tag(self) -> &'static str {
        match self {
            Metric::Latency => "lat",
            Metric::Bandwidth => "bw",
        }
    }

    /// The ping-pong configuration of the metric.
    pub fn pingpong(self, fidelity: Fidelity) -> PingPongConfig {
        match self {
            Metric::Latency => PingPongConfig::latency(fidelity.lat_reps()),
            Metric::Bandwidth => PingPongConfig {
                size: 64 << 20,
                reps: fidelity.bw_reps(),
                warmup: 1,
                mtag: 2,
            },
        }
    }

    /// Extract the metric from per-rep protocol metrics.
    fn extract(self, reps: &[RepMetrics]) -> Vec<f64> {
        reps.iter()
            .map(|m| match self {
                Metric::Latency => m.comm_latency_us,
                Metric::Bandwidth => m.comm_bandwidth,
            })
            .collect()
    }
}

/// Per-rep measurements of one contention point.
#[derive(Clone, Debug)]
pub struct ContentionPoint {
    /// Network metric alone (latency µs or bandwidth B/s), one per rep.
    pub comm_alone: Vec<f64>,
    /// Network metric beside STREAM.
    pub comm_together: Vec<f64>,
    /// STREAM per-core bandwidth alone.
    pub stream_alone: Vec<f64>,
    /// STREAM per-core bandwidth beside the ping-pong.
    pub stream_together: Vec<f64>,
}

/// The STREAM NUMA node implied by a placement's data policy.
pub fn data_numa(machine: &MachineSpec, placement: Placement) -> topology::NumaId {
    match placement.data {
        BindingPolicy::NearNic => machine.near_numa(),
        BindingPolicy::FarFromNic => machine.far_numa(),
        BindingPolicy::Numa(n) => n,
    }
}

fn base_config(
    machine: &MachineSpec,
    placement: Placement,
    metric: Metric,
    cores: usize,
    fidelity: Fidelity,
    seed: u64,
) -> ProtocolConfig {
    let w = workload(
        StreamKernel::Triad,
        STREAM_ELEMS,
        data_numa(machine, placement),
        1,
    );
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = placement;
    cfg.compute_cores = cores;
    cfg.pingpong = metric.pingpong(fidelity);
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    cfg
}

/// Measure (or fetch from the campaign cache) one contention point. The
/// point's value derives only from its cache key, so every experiment
/// requesting the same (machine, placement, metric, cores) gets the
/// identical measurement — serial or parallel.
pub fn measure(
    ctx: &PointCtx<'_>,
    machine: &MachineSpec,
    placement_label: &str,
    placement: Placement,
    metric: Metric,
    cores: usize,
) -> Result<ContentionPoint, String> {
    let fidelity = ctx.fidelity;
    let point_key = format!(
        "contention/{}/{}/{}/{}",
        machine.name,
        placement_label,
        metric.tag(),
        cores
    );
    // Errors are deliberately not memoized (see
    // `BaselineCache::get_or_compute_result`): a cancelled or failed
    // baseline must not be served to every later point sharing the key.
    let cached: std::sync::Arc<ContentionPoint> =
        ctx.baselines.get_or_compute_result(&point_key, |seed| {
            // The communication-alone step is core-count independent:
            // memoize it once per (machine, placement, metric).
            let comm_key = format!(
                "contention/{}/{}/{}/comm-alone",
                machine.name,
                placement_label,
                metric.tag()
            );
            let comm: std::sync::Arc<StepResults> =
                ctx.baselines
                    .get_or_compute_result(&comm_key, |comm_seed| {
                        let cfg =
                            base_config(machine, placement, metric, cores, fidelity, comm_seed);
                        protocol::try_run_masked(
                            &cfg,
                            &simcore::FaultPlan::new(cfg.seed),
                            StepMask::COMM_ALONE,
                        )
                        .map_err(|e| e.to_string())
                    })?;
            let cfg = base_config(machine, placement, metric, cores, fidelity, seed);
            let fresh = protocol::try_run_masked(
                &cfg,
                &simcore::FaultPlan::new(cfg.seed),
                StepMask::WITHOUT_COMM_ALONE,
            )
            .map_err(|e| e.to_string())?;
            Ok(ContentionPoint {
                comm_alone: metric.extract(&comm.comm_alone),
                comm_together: metric.extract(&fresh.together),
                stream_alone: fresh.compute_bw_alone(),
                stream_together: fresh.compute_bw_together(),
            })
        })?;
    Ok((*cached).clone())
}

/// The four series of one contention plot, named as in Figures 4/5.
pub struct ContentionSeries {
    /// Network metric alone (latency µs or bandwidth B/s).
    pub comm_alone: simcore::Series,
    /// Network metric beside STREAM.
    pub comm_together: simcore::Series,
    /// STREAM per-core bandwidth alone.
    pub stream_alone: simcore::Series,
    /// STREAM per-core bandwidth beside the ping-pong.
    pub stream_together: simcore::Series,
}

/// Assemble the four figure series of one metric from per-core-count
/// contention points (in sweep order).
pub fn series_for(
    metric: Metric,
    cores: &[usize],
    points: &[&ContentionPoint],
) -> ContentionSeries {
    let latency = metric == Metric::Latency;
    let mut out = ContentionSeries {
        comm_alone: simcore::Series::new(if latency {
            "latency alone (us)"
        } else {
            "bandwidth alone (B/s)"
        }),
        comm_together: simcore::Series::new(if latency {
            "latency + STREAM (us)"
        } else {
            "bandwidth + STREAM (B/s)"
        }),
        stream_alone: simcore::Series::new("STREAM per-core BW alone (B/s)"),
        stream_together: simcore::Series::new("STREAM per-core BW + comm (B/s)"),
    };
    for (&n, p) in cores.iter().zip(points) {
        out.comm_alone.push(n as f64, &p.comm_alone);
        out.comm_together.push(n as f64, &p.comm_together);
        out.stream_alone.push(n as f64, &p.stream_alone);
        out.stream_together.push(n as f64, &p.stream_together);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_sweep_respects_max() {
        assert!(core_sweep(35).contains(&35));
        assert!(!core_sweep(20).contains(&35));
    }

    #[test]
    fn fig4_default_is_a_table1_row() {
        // Figure 4's placement must be one of the four Table 1 combos so
        // the cache can share its points with Figure 5 and Table 1.
        let combos = Placement::all_combinations();
        assert_eq!(combos[1].1, Placement::fig4_default());
        assert_eq!(combos[1].0, "data near, thread far");
    }
}
