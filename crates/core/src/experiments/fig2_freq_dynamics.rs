//! Figure 2 — frequency variations during (A) communications only,
//! (B) idle, and (C) communications beside 20 CPU-bound computing cores
//! (§3.2).
//!
//! The computing benchmark is the naive prime counter (no memory traffic).
//! The headline findings: all cores clock up when computation runs; the
//! communication core's frequency is the *same* in (A) and (C); and yet
//! latency is slightly *better* together (1.52 vs 1.7 µs) — the
//! package-idle effect.

use freq::{Governor, UncorePolicy};
use kernels::primes;
use mpisim::pingpong::PingPongConfig;
use simcore::{Series, Summary};
use topology::{henri, BindingPolicy, CoreId, Placement};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::experiments::Fidelity;
use crate::paper;
use crate::protocol::{self, ProtocolConfig};
use crate::report::{Check, FigureData};

/// Everything Figure 2 measures: the three-step protocol results plus the
/// per-phase frequency snapshots.
struct Fig2Point {
    lat_alone: Vec<f64>,
    lat_together: Vec<f64>,
    flops_alone: Vec<f64>,
    flops_together: Vec<f64>,
    f_ab_comm: f64,
    f_b_compute: f64,
    f_c_compute: f64,
    f_c_comm: f64,
    f_c_idle: f64,
}

/// Registry driver for Figure 2 (a single measurement point covering the
/// three phases).
pub struct Fig2;

impl Experiment for Fig2 {
    fn name(&self) -> &'static str {
        "fig2"
    }

    fn anchor(&self) -> &'static str {
        "§3.2, Figure 2"
    }

    fn plan(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
        vec![SweepPoint::new(0, "phases A/B/C + latency protocol")]
    }

    fn run_point(&self, _point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let machine = henri();
        let workload = primes::workload(0, 40_000, 1);
        let mut cfg = ProtocolConfig::new(machine.clone(), Some(workload));
        cfg.governor = Governor::Performance { turbo: true };
        cfg.uncore = UncorePolicy::Auto;
        cfg.placement = Placement {
            comm_thread: BindingPolicy::FarFromNic,
            data: BindingPolicy::NearNic,
        };
        cfg.compute_cores = 20;
        cfg.pingpong = PingPongConfig::latency(ctx.fidelity.lat_reps());
        cfg.reps = ctx.fidelity.reps();
        cfg.seed = ctx.seed;
        let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;

        // Frequency states in the three phases, from the frequency model
        // directly (the paper samples /proc-style traces; the governor model
        // is piecewise constant so three snapshots capture Figure 2 exactly).
        let family = simcore::JitterFamily::new(cfg.seed);
        let mut cluster = protocol::build_cluster(&cfg, &family, 0);
        let comm_core = cluster.comm_core[0];
        // (B) idle-but-for-the-comm-thread (it polls from cluster creation).
        let f_b_compute = cluster.freqs()[0].core_freq(CoreId(0));
        let f_ab_comm = cluster.freqs()[0].core_freq(comm_core);
        // (C) with 20 heavy cores.
        let w = primes::workload(0, 40_000, 1);
        let cores = cluster.compute_cores();
        let mut jobs = Vec::new();
        for &c in &cores[..20] {
            let mut spec = w.on_core(c);
            spec.iterations = u64::MAX / 2;
            jobs.push(cluster.start_job(0, spec));
        }
        let f_c_compute = cluster.freqs()[0].core_freq(CoreId(0));
        let f_c_comm = cluster.freqs()[0].core_freq(comm_core);
        let f_c_idle = cluster.freqs()[0].core_freq(CoreId(17)); // idle core, socket 0
        for j in jobs {
            cluster.stop_job(0, j);
        }

        Ok(Box::new(Fig2Point {
            lat_alone: r.lat_alone(),
            lat_together: r.lat_together(),
            flops_alone: r
                .compute_alone
                .iter()
                .map(|m| m.compute_flop_rate)
                .collect(),
            flops_together: r.together.iter().map(|m| m.compute_flop_rate).collect(),
            f_ab_comm,
            f_b_compute,
            f_c_compute,
            f_c_comm,
            f_c_idle,
        }))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let p = value.downcast_ref::<Fig2Point>()?;
        let mut e = Enc::new();
        e.f64s(&p.lat_alone)
            .f64s(&p.lat_together)
            .f64s(&p.flops_alone)
            .f64s(&p.flops_together)
            .f64(p.f_ab_comm)
            .f64(p.f_b_compute)
            .f64(p.f_c_compute)
            .f64(p.f_c_comm)
            .f64(p.f_c_idle);
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        let p = Fig2Point {
            lat_alone: d.f64s()?,
            lat_together: d.f64s()?,
            flops_alone: d.f64s()?,
            flops_together: d.f64s()?,
            f_ab_comm: d.f64()?,
            f_b_compute: d.f64()?,
            f_c_compute: d.f64()?,
            f_c_comm: d.f64()?,
            f_c_idle: d.f64()?,
        };
        d.finish(Box::new(p) as PointValue)
    }

    fn finalize(&self, _fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let p = expect_value::<Fig2Point>(points, 0);

        // Series: one synthetic "trace" per phase (x = phase index A/B/C).
        let mut s_comm = Series::new("communication core freq (GHz)");
        s_comm.push(0.0, &[p.f_ab_comm]); // A
        s_comm.push(1.0, &[p.f_ab_comm]); // B (still polling)
        s_comm.push(2.0, &[p.f_c_comm]); // C
        let mut s_compute = Series::new("computing core freq (GHz)");
        s_compute.push(0.0, &[p.f_b_compute]);
        s_compute.push(1.0, &[p.f_b_compute]);
        s_compute.push(2.0, &[p.f_c_compute]);
        let mut s_idle = Series::new("other idle core freq (GHz)");
        s_idle.push(0.0, &[p.f_b_compute]);
        s_idle.push(1.0, &[p.f_b_compute]);
        s_idle.push(2.0, &[p.f_c_idle]);
        let mut s_lat = Series::new("latency (us): alone vs together");
        s_lat.push(0.0, &p.lat_alone);
        s_lat.push(2.0, &p.lat_together);

        let lat_alone = Summary::of(&p.lat_alone).median;
        let lat_tog = Summary::of(&p.lat_together).median;
        let t_alone = Summary::of(&p.flops_alone).median;
        let t_tog = Summary::of(&p.flops_together).median;

        let checks = vec![
            Check::new(
                "all cores clock up when computation runs (C vs B)",
                p.f_c_compute > p.f_b_compute && p.f_c_idle > p.f_b_compute,
                format!(
                    "compute {:.1} GHz, idle {:.1} GHz vs idle-phase {:.1} GHz",
                    p.f_c_compute, p.f_c_idle, p.f_b_compute
                ),
            ),
            Check::new(
                "communication-core frequency identical in (A) and (C)",
                (p.f_ab_comm - p.f_c_comm).abs() < 0.15,
                format!("A: {:.2} GHz, C: {:.2} GHz", p.f_ab_comm, p.f_c_comm),
            ),
            Check::new(
                "latency slightly better beside computation (paper: 1.52 vs 1.7 µs)",
                lat_tog < lat_alone,
                format!("together {:.2} µs vs alone {:.2} µs", lat_tog, lat_alone),
            ),
            Check::new(
                "CPU-bound computation unaffected by the latency benchmark",
                (t_tog / t_alone - 1.0).abs() < 0.05,
                format!("flop rate together/alone = {:.3}", t_tog / t_alone),
            ),
        ];

        vec![FigureData {
            id: "fig2",
            title: "Frequency variations: comm only / idle / comm + 20 computing cores (henri)"
                .into(),
            xlabel: "phase (0=A comm, 1=B idle, 2=C both)",
            ylabel: "GHz / us",
            series: vec![s_comm, s_compute, s_idle, s_lat],
            notes: vec![
                format!(
                    "paper: latency {} vs {} µs; bandwidth {:.3} vs {:.3} GB/s (slight gain together)",
                    paper::FIG2_LAT_TOGETHER_US,
                    paper::FIG2_LAT_ALONE_US,
                    paper::FIG2_BW_TOGETHER / 1e9,
                    paper::FIG2_BW_ALONE / 1e9
                ),
                "computing benchmark: naive prime counting (no memory accesses)".into(),
            ],
            checks,
            runs: Vec::new(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick;

    #[test]
    fn fig2_quick_passes_checks() {
        let f = quick(&Fig2).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 4);
    }

    #[test]
    fn phase_c_snapshot() {
        // Phase C (x = 2): the comm core holds its light cap while the
        // computing core and an idle core on its socket clock up.
        let f = quick(&Fig2).remove(0);
        let at_c = |i: usize| f.series[i].median_at(2.0).expect("phase C point");
        let (comm, compute, idle) = (at_c(0), at_c(1), at_c(2));
        assert!((comm - 2.5).abs() < 0.2, "comm {}", comm);
        assert!(compute >= 2.3, "compute {}", compute);
        assert!(idle >= 2.3, "idle follows socket {}", idle);
    }
}
