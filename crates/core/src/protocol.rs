//! The three-step benchmarking protocol of §2.1.
//!
//! 1. **Computation without communication** — jobs run alone for a
//!    measurement window; the metric is the attained per-core memory
//!    bandwidth (STREAM-style) and flop rate.
//! 2. **Communication without computation** — a ping-pong alone.
//! 3. **Computation with side-by-side communication** — the jobs restart
//!    and the same ping-pong runs beside them; both metrics are collected
//!    from the overlap window.
//!
//! Computations and communications use different data and are completely
//! independent, each pinned to its own core — exactly the paper's setup.
//! Every repetition is an independent seeded "run" (fresh cluster, fresh
//! jitter draw), which yields the median/decile bands of the figures.

use std::fmt;

use freq::{Governor, UncorePolicy};
use kernels::Workload;
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::{Cluster, ClusterError};
use simcore::{JitterFamily, SimTime};
use topology::{MachineSpec, Placement, TopologyError};

/// Why a protocol configuration is unusable or a run failed.
#[derive(Debug)]
pub enum ProtocolError {
    /// The placement cannot be resolved on the configured machine.
    Topology(TopologyError),
    /// More computing cores requested than the machine provides after
    /// reserving the communication core.
    TooManyComputeCores {
        /// Requested computing cores.
        requested: usize,
        /// Cores actually available.
        available: usize,
    },
    /// A count that must be positive is zero.
    Zero {
        /// Which field ("reps", "ping-pong reps", "ping-pong size").
        what: &'static str,
    },
    /// A repetition's simulation failed (wedged engine, dried-up event
    /// queue or a permanently failed transfer).
    Cluster(ClusterError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Topology(e) => write!(f, "placement does not resolve: {}", e),
            ProtocolError::TooManyComputeCores {
                requested,
                available,
            } => write!(
                f,
                "requested {} computing cores, only {} available",
                requested, available
            ),
            ProtocolError::Zero { what } => write!(f, "{} must be positive", what),
            ProtocolError::Cluster(e) => write!(f, "repetition failed: {}", e),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Topology(e) => Some(e),
            ProtocolError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for ProtocolError {
    fn from(e: ClusterError) -> Self {
        ProtocolError::Cluster(e)
    }
}

/// Configuration of one protocol run.
#[derive(Clone)]
pub struct ProtocolConfig {
    /// Machine description (both nodes).
    pub machine: MachineSpec,
    /// Core-frequency governor.
    pub governor: Governor,
    /// Uncore policy.
    pub uncore: UncorePolicy,
    /// Thread/data placement.
    pub placement: Placement,
    /// Number of computing cores (first N compute cores, logical order).
    pub compute_cores: usize,
    /// Per-core workload (one iteration's phases; the executor repeats it).
    pub workload: Option<Workload>,
    /// Ping-pong parameters.
    pub pingpong: PingPongConfig,
    /// Repetitions (independent runs).
    pub reps: u32,
    /// RNG seed for the jitter family.
    pub seed: u64,
    /// Duration of the computation-alone window.
    pub compute_window: SimTime,
}

impl ProtocolConfig {
    /// A reasonable default around a machine and workload.
    pub fn new(machine: MachineSpec, workload: Option<Workload>) -> ProtocolConfig {
        ProtocolConfig {
            machine,
            governor: Governor::Performance { turbo: true },
            uncore: UncorePolicy::Auto,
            placement: Placement::fig4_default(),
            compute_cores: 0,
            workload,
            pingpong: PingPongConfig::latency(9),
            reps: 5,
            seed: 0xC0FFEE,
            compute_window: SimTime::from_millis(2),
        }
    }

    /// Check the configuration against the machine before running: the
    /// placement must resolve, requested computing cores must exist, and
    /// the repetition counts must be positive.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        let resolved = self
            .machine
            .try_resolve(self.placement)
            .map_err(ProtocolError::Topology)?;
        if self.compute_cores > resolved.compute_cores.len() {
            return Err(ProtocolError::TooManyComputeCores {
                requested: self.compute_cores,
                available: resolved.compute_cores.len(),
            });
        }
        if self.reps == 0 {
            return Err(ProtocolError::Zero { what: "reps" });
        }
        if self.pingpong.reps == 0 {
            return Err(ProtocolError::Zero {
                what: "ping-pong reps",
            });
        }
        if self.pingpong.size == 0 {
            return Err(ProtocolError::Zero {
                what: "ping-pong size",
            });
        }
        Ok(())
    }
}

/// Metrics of one repetition.
#[derive(Clone, Debug, Default)]
pub struct RepMetrics {
    /// Median ping-pong latency, µs (NaN if no communication step).
    pub comm_latency_us: f64,
    /// Median ping-pong bandwidth, bytes/s.
    pub comm_bandwidth: f64,
    /// Mean per-core attained memory bandwidth, bytes/s (0 for pure
    /// compute).
    pub compute_bw_per_core: f64,
    /// Mean per-core attained flop rate, flops/s.
    pub compute_flop_rate: f64,
    /// Mean memory-stall fraction of the computing cores.
    pub compute_stall_fraction: f64,
    /// Rendezvous retransmissions summed over every send of the rep (0 on
    /// a healthy fabric).
    pub comm_retries: u64,
    /// Control-message bytes re-sent across the wire.
    pub comm_retrans_bytes: u64,
    /// Simulated seconds spent waiting in expired retransmission timeouts.
    pub comm_retry_wait_s: f64,
}

impl RepMetrics {
    /// Duration one workload iteration would take at the measured rates
    /// (the paper's "computation time" metric), seconds.
    pub fn iteration_time(&self, workload: &Workload) -> f64 {
        let bytes = workload.phases.iter().map(|p| p.bytes).sum::<f64>();
        let flops = workload.phases.iter().map(|p| p.flops).sum::<f64>();
        if bytes > 0.0 && self.compute_bw_per_core > 0.0 {
            bytes / self.compute_bw_per_core
        } else if flops > 0.0 && self.compute_flop_rate > 0.0 {
            flops / self.compute_flop_rate
        } else {
            f64::NAN
        }
    }
}

/// Which steps of the three-step protocol to execute.
///
/// The steps are independent measurements — each repetition builds a fresh
/// cluster per step from the same jitter family — so skipping a step never
/// perturbs the others: the executed steps stay byte-identical to a full
/// run. The campaign engine uses masks to memoize the "alone" baselines
/// (steps 1 and 2), which do not depend on the sweep variable of most
/// figures, while the together step runs fresh for every sweep point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepMask {
    /// Step 1: computation alone.
    pub compute_alone: bool,
    /// Step 2: communication alone.
    pub comm_alone: bool,
    /// Step 3: both together.
    pub together: bool,
}

impl StepMask {
    /// All three steps (the classic protocol).
    pub const ALL: StepMask = StepMask {
        compute_alone: true,
        comm_alone: true,
        together: true,
    };
    /// Only the communication-alone step.
    pub const COMM_ALONE: StepMask = StepMask {
        compute_alone: false,
        comm_alone: true,
        together: false,
    };
    /// Only the computation-alone step.
    pub const COMPUTE_ALONE: StepMask = StepMask {
        compute_alone: true,
        comm_alone: false,
        together: false,
    };
    /// Everything except the communication-alone step.
    pub const WITHOUT_COMM_ALONE: StepMask = StepMask {
        compute_alone: true,
        comm_alone: false,
        together: true,
    };
    /// Only the together step.
    pub const TOGETHER: StepMask = StepMask {
        compute_alone: false,
        comm_alone: false,
        together: true,
    };
}

/// Results of the three steps across repetitions.
#[derive(Clone, Debug, Default)]
pub struct StepResults {
    /// Step 1: computation alone.
    pub compute_alone: Vec<RepMetrics>,
    /// Step 2: communication alone.
    pub comm_alone: Vec<RepMetrics>,
    /// Step 3: both together.
    pub together: Vec<RepMetrics>,
}

impl StepResults {
    fn collect(metrics: &[RepMetrics], f: impl Fn(&RepMetrics) -> f64) -> Vec<f64> {
        metrics.iter().map(f).collect()
    }

    /// Latencies (µs) of the communication-alone step, one per rep.
    pub fn lat_alone(&self) -> Vec<f64> {
        Self::collect(&self.comm_alone, |m| m.comm_latency_us)
    }

    /// Latencies (µs) of the together step.
    pub fn lat_together(&self) -> Vec<f64> {
        Self::collect(&self.together, |m| m.comm_latency_us)
    }

    /// Bandwidths (bytes/s) of the communication-alone step.
    pub fn bw_alone(&self) -> Vec<f64> {
        Self::collect(&self.comm_alone, |m| m.comm_bandwidth)
    }

    /// Bandwidths (bytes/s) of the together step.
    pub fn bw_together(&self) -> Vec<f64> {
        Self::collect(&self.together, |m| m.comm_bandwidth)
    }

    /// Per-core compute memory bandwidth, alone.
    pub fn compute_bw_alone(&self) -> Vec<f64> {
        Self::collect(&self.compute_alone, |m| m.compute_bw_per_core)
    }

    /// Per-core compute memory bandwidth, together.
    pub fn compute_bw_together(&self) -> Vec<f64> {
        Self::collect(&self.together, |m| m.compute_bw_per_core)
    }

    /// Per-core flop rate, alone.
    pub fn flops_alone(&self) -> Vec<f64> {
        Self::collect(&self.compute_alone, |m| m.compute_flop_rate)
    }

    /// Per-core flop rate, together.
    pub fn flops_together(&self) -> Vec<f64> {
        Self::collect(&self.together, |m| m.compute_flop_rate)
    }
}

/// Build the cluster for one repetition.
pub fn build_cluster(cfg: &ProtocolConfig, family: &JitterFamily, rep: u64) -> Cluster {
    let mut cluster = Cluster::new(&cfg.machine, cfg.governor, cfg.uncore, cfg.placement);
    cluster.apply_run_jitter(family, rep);
    cluster
}

/// Start the configured computation jobs; returns their ids per node, or a
/// typed error when more cores are requested than the machine provides.
fn try_start_compute(
    cfg: &ProtocolConfig,
    cluster: &mut Cluster,
) -> Result<Vec<(usize, memsim::exec::JobId)>, ProtocolError> {
    let mut jobs = Vec::new();
    let Some(w) = &cfg.workload else {
        return Ok(jobs);
    };
    if cfg.compute_cores == 0 {
        return Ok(jobs);
    }
    let cores = cluster.compute_cores();
    if cfg.compute_cores > cores.len() {
        return Err(ProtocolError::TooManyComputeCores {
            requested: cfg.compute_cores,
            available: cores.len(),
        });
    }
    // The paper computes on both ranks.
    for node in 0..2 {
        for &core in &cores[..cfg.compute_cores] {
            let mut spec = w.on_core(core);
            // Run "forever": the protocol stops jobs at the end of the
            // window and reads partial statistics.
            spec.iterations = u64::MAX / 2;
            jobs.push((node, cluster.start_job(node, spec)));
        }
    }
    Ok(jobs)
}

/// Stop jobs and aggregate their metrics.
fn stop_compute(
    cluster: &mut Cluster,
    jobs: Vec<(usize, memsim::exec::JobId)>,
    out: &mut RepMetrics,
) {
    let mut n = 0.0;
    for (node, id) in jobs {
        if let Some(st) = cluster.stop_job(node, id) {
            let el = st.elapsed_s();
            if el > 0.0 {
                out.compute_bw_per_core += st.bytes / el;
                out.compute_flop_rate += st.flops / el;
                out.compute_stall_fraction += st.stall_fraction();
                n += 1.0;
            }
        }
    }
    if n > 0.0 {
        out.compute_bw_per_core /= n;
        out.compute_flop_rate /= n;
        out.compute_stall_fraction /= n;
    }
}

/// Rep metrics holding only the retry work of every profiled send of
/// `cluster`, summed in profile order.
pub(crate) fn retry_totals(cluster: &Cluster) -> RepMetrics {
    let mut m = RepMetrics::default();
    for rec in cluster.send_profile() {
        m.comm_retries += rec.retry.retries as u64;
        m.comm_retrans_bytes += rec.retry.retrans_bytes;
        m.comm_retry_wait_s += rec.retry.retry_wait.as_secs_f64();
    }
    m
}

/// Run the full three-step protocol.
///
/// Panics on an invalid configuration or a failed repetition; see
/// [`try_run`].
pub fn run(cfg: &ProtocolConfig) -> StepResults {
    match try_run(cfg) {
        Ok(r) => r,
        Err(e) => panic!("{}", e),
    }
}

/// Fallible [`run`]: an invalid configuration or a repetition that wedges,
/// dries up or loses a transfer permanently comes back as
/// [`ProtocolError`] instead of a panic. To keep a campaign going across
/// such failures, run it as a [`crate::campaign::Experiment`]: the engine
/// retries a failed point once and reports it, as [`crate::runner`]
/// describes.
pub fn try_run(cfg: &ProtocolConfig) -> Result<StepResults, ProtocolError> {
    try_run_faulted(cfg, &simcore::FaultPlan::new(cfg.seed))
}

/// [`try_run`] with a fault plan injected into every repetition's cluster.
/// An empty plan reproduces `try_run` exactly (byte-identical event
/// streams).
pub fn try_run_faulted(
    cfg: &ProtocolConfig,
    plan: &simcore::FaultPlan,
) -> Result<StepResults, ProtocolError> {
    try_run_masked(cfg, plan, StepMask::ALL)
}

/// [`try_run_faulted`] restricted to a subset of the three steps. The
/// executed steps produce byte-identical metrics to a `StepMask::ALL` run
/// of the same configuration; the skipped steps' vectors stay empty.
pub fn try_run_masked(
    cfg: &ProtocolConfig,
    plan: &simcore::FaultPlan,
    mask: StepMask,
) -> Result<StepResults, ProtocolError> {
    cfg.validate()?;
    plan.validate()
        .map_err(|e| ProtocolError::Cluster(ClusterError::from(e)))?;
    let family = JitterFamily::new(cfg.seed);
    let mut results = StepResults::default();
    for rep in 0..cfg.reps {
        // Step 1: computation alone.
        if mask.compute_alone && cfg.workload.is_some() && cfg.compute_cores > 0 {
            if simcore::telemetry::is_active() {
                simcore::telemetry::mark_run(&format!("rep{}/compute_alone", rep));
            }
            let mut cluster = build_cluster(cfg, &family, rep as u64);
            apply_plan(&mut cluster, plan)?;
            let jobs = try_start_compute(cfg, &mut cluster)?;
            let deadline = cluster.engine.now() + cfg.compute_window;
            while cluster.step_until(deadline).is_some() {}
            let mut m = RepMetrics::default();
            stop_compute(&mut cluster, jobs, &mut m);
            results.compute_alone.push(m);
        }

        // Step 2: communication alone.
        if mask.comm_alone {
            if simcore::telemetry::is_active() {
                simcore::telemetry::mark_run(&format!("rep{}/comm_alone", rep));
            }
            let mut cluster = build_cluster(cfg, &family, rep as u64);
            apply_plan(&mut cluster, plan)?;
            cluster.enable_profiling();
            let res = pingpong::try_run(&mut cluster, cfg.pingpong)?;
            results.comm_alone.push(RepMetrics {
                comm_latency_us: res.median_latency_us(),
                comm_bandwidth: res.median_bandwidth(),
                ..retry_totals(&cluster)
            });
        }

        // Step 3: together.
        if mask.together {
            if simcore::telemetry::is_active() {
                simcore::telemetry::mark_run(&format!("rep{}/together", rep));
            }
            let mut cluster = build_cluster(cfg, &family, rep as u64);
            apply_plan(&mut cluster, plan)?;
            cluster.enable_profiling();
            let jobs = try_start_compute(cfg, &mut cluster)?;
            let res = pingpong::try_run_with_background(&mut cluster, cfg.pingpong, |_, ev| {
                // Jobs are effectively endless; completions are impossible,
                // other events are ignored.
                let _ = ev;
            })?;
            let mut m = RepMetrics {
                comm_latency_us: res.median_latency_us(),
                comm_bandwidth: res.median_bandwidth(),
                ..retry_totals(&cluster)
            };
            stop_compute(&mut cluster, jobs, &mut m);
            results.together.push(m);
        }
    }
    Ok(results)
}

/// Inject a fault plan into a freshly built cluster (no-op for an empty
/// plan, preserving the healthy event stream byte for byte).
fn apply_plan(cluster: &mut Cluster, plan: &simcore::FaultPlan) -> Result<(), ProtocolError> {
    if plan.is_empty() {
        return Ok(());
    }
    cluster
        .apply_faults(plan)
        .map_err(|e| ProtocolError::Cluster(ClusterError::from(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::stream::{workload, StreamKernel};
    use topology::{henri, NumaId};

    fn stream_cfg(cores: usize, pp: PingPongConfig) -> ProtocolConfig {
        let w = workload(StreamKernel::Triad, 2_000_000, NumaId(0), 1);
        let mut cfg = ProtocolConfig::new(henri(), Some(w));
        cfg.compute_cores = cores;
        cfg.pingpong = pp;
        cfg.reps = 3;
        cfg.compute_window = SimTime::from_millis(1);
        cfg
    }

    #[test]
    fn three_steps_produce_metrics() {
        let cfg = stream_cfg(4, PingPongConfig::latency(5));
        let r = run(&cfg);
        assert_eq!(r.compute_alone.len(), 3);
        assert_eq!(r.comm_alone.len(), 3);
        assert_eq!(r.together.len(), 3);
        assert!(r.comm_alone[0].comm_latency_us > 0.5);
        assert!(r.compute_alone[0].compute_bw_per_core > 1e9);
    }

    #[test]
    fn contention_reduces_both_sides() {
        // 35 memory-bound cores against a 64 MiB ping-pong: both metrics
        // must degrade vs alone.
        let mut cfg = stream_cfg(
            35,
            PingPongConfig {
                size: 64 << 20,
                reps: 2,
                warmup: 1,
                mtag: 1,
            },
        );
        cfg.reps = 2;
        let r = run(&cfg);
        let bw_alone = simcore::Summary::of(&r.bw_alone()).median;
        let bw_tog = simcore::Summary::of(&r.bw_together()).median;
        assert!(
            bw_tog < bw_alone * 0.7,
            "network bw: alone {} together {}",
            bw_alone,
            bw_tog
        );
        let cbw_alone = simcore::Summary::of(&r.compute_bw_alone()).median;
        let cbw_tog = simcore::Summary::of(&r.compute_bw_together()).median;
        assert!(
            cbw_tog < cbw_alone,
            "compute bw: alone {} together {}",
            cbw_alone,
            cbw_tog
        );
    }

    #[test]
    fn no_compute_cores_skips_step_one() {
        let mut cfg = stream_cfg(0, PingPongConfig::latency(3));
        cfg.reps = 2;
        let r = run(&cfg);
        assert!(r.compute_alone.is_empty());
        assert_eq!(r.comm_alone.len(), 2);
    }

    #[test]
    fn iteration_time_derivation() {
        let w = workload(StreamKernel::Triad, 1_000_000, NumaId(0), 1);
        let m = RepMetrics {
            compute_bw_per_core: 12.0e9,
            ..Default::default()
        };
        // 24 MB per pass at 12 GB/s = 2 ms.
        let t = m.iteration_time(&w);
        assert!((t - 2e-3).abs() < 1e-9, "t {}", t);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut cfg = stream_cfg(4, PingPongConfig::latency(3));
        cfg.compute_cores = 1000;
        assert!(matches!(
            cfg.validate(),
            Err(ProtocolError::TooManyComputeCores {
                requested: 1000,
                available: 35
            })
        ));
        assert!(cfg
            .validate()
            .unwrap_err()
            .to_string()
            .contains("computing cores"));
        assert!(matches!(
            try_run(&cfg),
            Err(ProtocolError::TooManyComputeCores { .. })
        ));
        let mut zero_reps = stream_cfg(2, PingPongConfig::latency(3));
        zero_reps.reps = 0;
        assert!(matches!(
            zero_reps.validate(),
            Err(ProtocolError::Zero { what: "reps" })
        ));
        let mut zero_size = stream_cfg(2, PingPongConfig::latency(3));
        zero_size.pingpong.size = 0;
        assert!(matches!(
            zero_size.validate(),
            Err(ProtocolError::Zero {
                what: "ping-pong size"
            })
        ));
    }

    #[test]
    fn faulted_protocol_records_retry_work() {
        let mut cfg = stream_cfg(
            0,
            PingPongConfig {
                size: 256 * 1024,
                reps: 4,
                warmup: 1,
                mtag: 3,
            },
        );
        cfg.reps = 2;
        let plan = simcore::FaultPlan::new(cfg.seed).with_cts_drop(0.4);
        let r = try_run_faulted(&cfg, &plan).unwrap();
        let total: u64 = r.comm_alone.iter().map(|m| m.comm_retries).sum();
        assert!(total > 0, "p=0.4 CTS drops must force retransmissions");
        assert!(r.comm_alone.iter().any(|m| m.comm_retrans_bytes > 0));
        // The same config on a healthy fabric records zero retry work.
        let h = try_run(&cfg).unwrap();
        assert!(h.comm_alone.iter().all(|m| m.comm_retries == 0));
        assert!(h.comm_alone.iter().all(|m| m.comm_retry_wait_s == 0.0));
    }

    #[test]
    fn masked_steps_match_full_run() {
        let cfg = stream_cfg(4, PingPongConfig::latency(3));
        let full = run(&cfg);
        let plan = simcore::FaultPlan::new(cfg.seed);
        let comm = try_run_masked(&cfg, &plan, StepMask::COMM_ALONE).unwrap();
        assert!(comm.compute_alone.is_empty());
        assert!(comm.together.is_empty());
        assert_eq!(comm.lat_alone(), full.lat_alone());
        let rest = try_run_masked(&cfg, &plan, StepMask::WITHOUT_COMM_ALONE).unwrap();
        assert!(rest.comm_alone.is_empty());
        assert_eq!(rest.lat_together(), full.lat_together());
        assert_eq!(rest.compute_bw_alone(), full.compute_bw_alone());
    }

    #[test]
    fn reps_differ_with_jitter() {
        let cfg = stream_cfg(2, PingPongConfig::latency(3));
        let r = run(&cfg);
        let lats = r.lat_alone();
        assert!(lats.iter().any(|&l| (l - lats[0]).abs() > 1e-6));
    }
}
