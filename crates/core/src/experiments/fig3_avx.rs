//! Figure 3 — impact of AVX512 computations on frequencies and network
//! latency (§3.3), with turbo-boost.
//!
//! Weak scaling: every computing core executes the same amount of AVX512
//! work. With few cores the AVX512 turbo ladder allows 3.0 GHz (fast
//! compute); with 20 cores it drops to 2.3 GHz (longer compute). The
//! communication core holds ~2.5 GHz throughout, and latency is never
//! *worse* beside AVX computation.

use freq::{Governor, License, UncorePolicy};
use kernels::vecops;
use mpisim::pingpong::PingPongConfig;
use simcore::{Series, Summary};
use topology::{henri, BindingPolicy, CoreId, Placement};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::experiments::Fidelity;
use crate::paper;
use crate::protocol::{self, ProtocolConfig};
use crate::report::{Check, FigureData};

/// Per-core AVX512 flops tuned so 4 cores take ≈135 ms at the 3.0 GHz
/// AVX512 ceiling (48 Gflop/s on henri).
const FLOPS_PER_CORE: f64 = 6.48e9;

/// Core-count sweep of Figure 3a.
fn core_sweep() -> Vec<usize> {
    vec![2, 4, 8, 12, 16, 20, 24, 28, 32]
}

fn cores(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&core_sweep())
}

/// One core-count point of the weak-scaling sweep.
struct SweepOut {
    times: Vec<f64>,
    lat_alone: Vec<f64>,
    lat_together: Vec<f64>,
}

/// One frequency snapshot: (computing-core GHz, communication-core GHz).
#[derive(Clone, Copy)]
struct SnapshotOut(f64, f64);

/// Registry driver for Figure 3 (weak-scaling sweep plus two frequency
/// snapshots).
pub struct Fig3;

impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn anchor(&self) -> &'static str {
        "§3.3, Figures 3a/3b/3c"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let cores = cores(fidelity);
        let mut plan: Vec<SweepPoint> = cores
            .iter()
            .enumerate()
            .map(|(i, &n)| SweepPoint::new(i, format!("{} AVX512 cores", n)))
            .collect();
        plan.push(SweepPoint::new(cores.len(), "freq snapshot, 4 cores"));
        plan.push(SweepPoint::new(cores.len() + 1, "freq snapshot, 20 cores"));
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let machine = henri();
        let cores = cores(ctx.fidelity);
        if point.index >= cores.len() {
            // Frequency snapshots with 4 and 20 AVX512 cores (Figures
            // 3b/3c). The governor model is deterministic, so a fixed
            // jitter family keeps the snapshot seed-independent.
            let n = if point.index == cores.len() { 4 } else { 20 };
            let cfg = ProtocolConfig::new(
                machine,
                Some(vecops::avx_workload(FLOPS_PER_CORE, License::Avx512, 1)),
            );
            let family = simcore::JitterFamily::new(7);
            let mut cluster = protocol::build_cluster(&cfg, &family, 0);
            let comm = cluster.comm_core[0];
            let cores = cluster.compute_cores();
            let mut jobs = Vec::new();
            for &c in &cores[..n] {
                let mut spec = vecops::avx_workload(FLOPS_PER_CORE, License::Avx512, 1).on_core(c);
                spec.iterations = u64::MAX / 2;
                jobs.push(cluster.start_job(0, spec));
            }
            let out = SnapshotOut(
                cluster.freqs()[0].core_freq(CoreId(0)),
                cluster.freqs()[0].core_freq(comm),
            );
            for j in jobs {
                cluster.stop_job(0, j);
            }
            return Ok(Box::new(out));
        }

        let n = cores[point.index];
        let workload = vecops::avx_workload(FLOPS_PER_CORE, License::Avx512, 1);
        let mut cfg = ProtocolConfig::new(machine, Some(workload));
        cfg.governor = Governor::Performance { turbo: true };
        cfg.uncore = UncorePolicy::Auto;
        cfg.placement = Placement {
            comm_thread: BindingPolicy::FarFromNic,
            data: BindingPolicy::NearNic,
        };
        cfg.compute_cores = n;
        cfg.pingpong = PingPongConfig::latency(ctx.fidelity.lat_reps());
        cfg.reps = ctx.fidelity.reps();
        cfg.seed = ctx.seed;
        let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;

        // Weak-scaling compute time: per-core flops / measured flop rate.
        let times: Vec<f64> = r
            .compute_alone
            .iter()
            .map(|m| FLOPS_PER_CORE / m.compute_flop_rate * 1e3)
            .collect();
        Ok(Box::new(SweepOut {
            times,
            lat_alone: r.lat_alone(),
            lat_together: r.lat_together(),
        }))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        if let Some(p) = value.downcast_ref::<SweepOut>() {
            e.u8(0)
                .f64s(&p.times)
                .f64s(&p.lat_alone)
                .f64s(&p.lat_together);
        } else if let Some(p) = value.downcast_ref::<SnapshotOut>() {
            e.u8(1).f64(p.0).f64(p.1);
        } else {
            return None;
        }
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        match d.u8()? {
            0 => {
                let p = SweepOut {
                    times: d.f64s()?,
                    lat_alone: d.f64s()?,
                    lat_together: d.f64s()?,
                };
                d.finish(Box::new(p) as PointValue)
            }
            1 => {
                let p = SnapshotOut(d.f64()?, d.f64()?);
                d.finish(Box::new(p) as PointValue)
            }
            _ => None,
        }
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let cores = cores(fidelity);
        let mut s_time = Series::new("computation time (ms)");
        let mut s_lat_alone = Series::new("latency alone (us)");
        let mut s_lat_together = Series::new("latency beside AVX512 (us)");
        for (i, &n) in cores.iter().enumerate() {
            let p = expect_value::<SweepOut>(points, i);
            s_time.push(n as f64, &p.times);
            s_lat_alone.push(n as f64, &p.lat_alone);
            s_lat_together.push(n as f64, &p.lat_together);
        }
        let SnapshotOut(f4_compute, f4_comm) = *expect_value::<SnapshotOut>(points, cores.len());
        let SnapshotOut(f20_compute, f20_comm) =
            *expect_value::<SnapshotOut>(points, cores.len() + 1);

        let mut s_freq = Series::new("computing-core freq (GHz) at 4 / 20 cores");
        s_freq.push(4.0, &[f4_compute]);
        s_freq.push(20.0, &[f20_compute]);
        let mut s_freq_comm = Series::new("communication-core freq (GHz) at 4 / 20 cores");
        s_freq_comm.push(4.0, &[f4_comm]);
        s_freq_comm.push(20.0, &[f20_comm]);

        let first = s_time.points.first().expect("sweep non-empty").y.median;
        let last = s_time.points.last().expect("sweep non-empty").y.median;
        let lat_a: Vec<f64> = s_lat_alone.points.iter().map(|p| p.y.median).collect();
        let lat_t: Vec<f64> = s_lat_together.points.iter().map(|p| p.y.median).collect();
        let together_never_worse = lat_t.iter().zip(&lat_a).all(|(t, a)| *t <= *a * 1.05);

        let checks_a = vec![
            Check::new(
                "weak-scaling compute time grows with core count (paper: 135 → 210 ms)",
                last > first * 1.15,
                format!("{:.0} ms at few cores vs {:.0} ms at many", first, last),
            ),
            Check::new(
                "compute time at 4 cores near paper point (135 ms)",
                (100.0..180.0).contains(&s_time.median_at(4.0).unwrap_or(first)),
                format!("measured {:.0} ms", s_time.median_at(4.0).unwrap_or(first)),
            ),
            Check::new(
                "latency never degraded by AVX computation (slightly better)",
                together_never_worse,
                format!("alone {:?} vs together {:?} µs (medians)", lat_a, lat_t),
            ),
        ];
        let checks_bc = vec![
            Check::new(
                "4 AVX512 cores run at ~3.0 GHz",
                (f4_compute - paper::FIG3_F4_GHZ).abs() < 0.15,
                format!("measured {:.2} GHz", f4_compute),
            ),
            Check::new(
                "20 AVX512 cores run at ~2.3 GHz",
                (f20_compute - paper::FIG3_F20_GHZ).abs() < 0.15,
                format!("measured {:.2} GHz", f20_compute),
            ),
            Check::new(
                "communication core stable at ~2.5 GHz regardless of AVX load",
                (f4_comm - paper::FIG3_COMM_GHZ).abs() < 0.15
                    && (f20_comm - paper::FIG3_COMM_GHZ).abs() < 0.15,
                format!("measured {:.2} / {:.2} GHz", f4_comm, f20_comm),
            ),
        ];

        let lat_alone_med = Summary::of(&lat_a).median;
        let lat_tog_med = Summary::of(&lat_t).median;
        vec![
            FigureData {
                id: "fig3a",
                title: "AVX512 computation time and network latency vs computing cores (henri)"
                    .into(),
                xlabel: "computing cores",
                ylabel: "ms / us",
                series: vec![s_time, s_lat_alone, s_lat_together],
                notes: vec![format!(
                    "paper: latency {} µs beside AVX vs {} µs alone; here {:.2} vs {:.2}",
                    paper::FIG3_LAT_TOGETHER_US,
                    paper::FIG3_LAT_ALONE_US,
                    lat_tog_med,
                    lat_alone_med
                )],
                checks: checks_a,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig3bc",
                title: "Frequencies with 4 vs 20 AVX512 computing cores (henri)".into(),
                xlabel: "computing cores",
                ylabel: "GHz",
                series: vec![s_freq, s_freq_comm],
                notes: vec![
                    "paper Fig 3b/3c: 3.0 GHz at 4 cores, 2.3 GHz at 20; comm core 2.5 GHz".into(),
                ],
                checks: checks_bc,
                runs: Vec::new(),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick;

    #[test]
    fn fig3_quick_passes_checks() {
        let figs = quick(&Fig3);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
        }
    }
}
