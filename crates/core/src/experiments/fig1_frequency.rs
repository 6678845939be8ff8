//! Figure 1 — impact of constant core/uncore frequencies on network
//! latency (1a) and bandwidth (1b), §3.1.
//!
//! The paper pins the `userspace` governor (core frequency 1.0 or 2.3 GHz)
//! and the uncore (1.2 or 2.4 GHz) and runs plain ping-pongs across message
//! sizes. No computation runs at the same time.

use freq::{Governor, UncorePolicy};
use mpisim::pingpong::{self, PingPongConfig};
use simcore::{JitterFamily, Series};
use topology::{henri, BindingPolicy, Placement};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::{size_sweep, Fidelity};
use crate::paper;
use crate::protocol::build_cluster;
use crate::report::{Check, FigureData};
use crate::ProtocolConfig;

/// The four frequency configurations of Figure 1.
fn configs() -> [(&'static str, Governor, UncorePolicy); 4] {
    [
        (
            "core 2.3 GHz, uncore 2.4 GHz",
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
        ),
        (
            "core 1.0 GHz, uncore 2.4 GHz",
            Governor::Userspace(1.0),
            UncorePolicy::Fixed(2.4),
        ),
        (
            "core 2.3 GHz, uncore 1.2 GHz",
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(1.2),
        ),
        (
            "core 1.0 GHz, uncore 1.2 GHz",
            Governor::Userspace(1.0),
            UncorePolicy::Fixed(1.2),
        ),
    ]
}

fn sizes(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&size_sweep())
}

/// Per-rep latencies and bandwidths of one (config, size) point.
struct Fig1Point {
    lats: Vec<f64>,
    bws: Vec<f64>,
}

/// Registry driver for Figure 1 (sweep: 4 frequency configs × sizes).
pub struct Fig1;

impl Experiment for Fig1 {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn anchor(&self) -> &'static str {
        "§3.1, Figures 1a/1b"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let sizes = sizes(fidelity);
        let mut plan = Vec::new();
        for (ci, (name, _, _)) in configs().iter().enumerate() {
            for (si, &size) in sizes.iter().enumerate() {
                plan.push(SweepPoint::new(
                    ci * sizes.len() + si,
                    format!("{} @ {} B", name, size),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let sizes = sizes(ctx.fidelity);
        let (_, gov, unc) = configs()[point.index / sizes.len()];
        let size = sizes[point.index % sizes.len()];
        let machine = henri();
        let placement = Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        };
        let mut lats = Vec::new();
        let mut bws = Vec::new();
        for rep in 0..ctx.fidelity.reps() {
            let mut cfg = ProtocolConfig::new(machine.clone(), None);
            cfg.governor = gov;
            cfg.uncore = unc;
            cfg.placement = placement;
            cfg.seed = ctx.seed.wrapping_add(rep as u64);
            let family = JitterFamily::new(cfg.seed);
            let mut cluster = build_cluster(&cfg, &family, rep as u64);
            let reps = if size >= 1 << 20 {
                ctx.fidelity.bw_reps()
            } else {
                ctx.fidelity.lat_reps()
            };
            let res = pingpong::try_run(
                &mut cluster,
                PingPongConfig {
                    size,
                    reps,
                    warmup: 2,
                    mtag: 1,
                },
            )
            .map_err(|e| e.to_string())?;
            lats.push(res.median_latency_us());
            bws.push(res.median_bandwidth());
        }
        Ok(Box::new(Fig1Point { lats, bws }))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let sizes = sizes(fidelity);
        let mut lat_series = Vec::new();
        let mut bw_series = Vec::new();
        for (ci, (name, _, _)) in configs().iter().enumerate() {
            let mut lat = Series::new(*name);
            let mut bw = Series::new(*name);
            for (si, &size) in sizes.iter().enumerate() {
                let p = expect_value::<Fig1Point>(points, ci * sizes.len() + si);
                lat.push(size as f64, &p.lats);
                bw.push(size as f64, &p.bws);
            }
            lat_series.push(lat);
            bw_series.push(bw);
        }

        // ---- checks ----
        let small = 4.0;
        let big = *sizes.last().expect("non-empty") as f64;
        let l_fast = lat_series[0].median_at(small).expect("point");
        let l_slow = lat_series[1].median_at(small).expect("point");
        let l_unc_lo = lat_series[2].median_at(small).expect("point");
        let bw_unc_hi = bw_series[0].median_at(big).expect("point");
        let bw_unc_lo = bw_series[2].median_at(big).expect("point");
        let bw_slow_core = bw_series[1].median_at(big).expect("point");

        let core_ratio = l_slow / l_fast;
        let uncore_ratio = l_unc_lo / l_fast;
        let checks_a = vec![
            Check::new(
                "latency rises at low core frequency (paper: 3.1 vs 1.8 µs, +72 %)",
                core_ratio > 1.4 && core_ratio < 2.2,
                format!(
                    "measured ratio {:.2} ({:.2} vs {:.2} µs)",
                    core_ratio, l_slow, l_fast
                ),
            ),
            Check::new(
                "uncore frequency has little latency effect (paper: +5 %)",
                (uncore_ratio - 1.0).abs() < 0.12,
                format!("measured ratio {:.3}", uncore_ratio),
            ),
            Check::new(
                "absolute latency near paper point (1.8 µs at 2.3 GHz)",
                (1.3..2.4).contains(&l_fast),
                format!("measured {:.2} µs", l_fast),
            ),
        ];
        let checks_b = vec![
            Check::new(
                "uncore scales asymptotic bandwidth slightly (paper: 10.5 vs 10.1 GB/s)",
                bw_unc_hi > bw_unc_lo && bw_unc_hi / bw_unc_lo < 1.10,
                format!(
                    "measured {:.2} vs {:.2} GB/s",
                    bw_unc_hi / 1e9,
                    bw_unc_lo / 1e9
                ),
            ),
            Check::new(
                "core frequency does not move asymptotic bandwidth (DMA path)",
                (bw_slow_core / bw_unc_hi - 1.0).abs() < 0.05,
                format!(
                    "measured {:.2} vs {:.2} GB/s",
                    bw_slow_core / 1e9,
                    bw_unc_hi / 1e9
                ),
            ),
            Check::new(
                "asymptotic bandwidth near paper point (~10.5 GB/s)",
                (9.0e9..11.5e9).contains(&bw_unc_hi),
                format!("measured {:.2} GB/s", bw_unc_hi / 1e9),
            ),
        ];

        vec![
            FigureData {
                id: "fig1a",
                title: "Impact of constant frequencies on network latency (henri)".into(),
                xlabel: "message size (B)",
                ylabel: "latency (us)",
                series: lat_series,
                notes: vec![format!(
                    "paper: {:.1} µs at 2.3 GHz vs {:.1} µs at 1.0 GHz; uncore effect +5 %",
                    paper::LAT_US_AT_2300MHZ,
                    paper::LAT_US_AT_1000MHZ
                )],
                checks: checks_a,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig1b",
                title: "Impact of constant frequencies on network bandwidth (henri)".into(),
                xlabel: "message size (B)",
                ylabel: "bandwidth (B/s)",
                series: bw_series,
                notes: vec![format!(
                    "paper: {:.1} vs {:.1} GB/s across the uncore range",
                    paper::BW_AT_UNCORE_MAX / 1e9,
                    paper::BW_AT_UNCORE_MIN / 1e9
                )],
                checks: checks_b,
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
    fn fig1_quick_passes_checks() {
        let figs = quick(&Fig1);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
            assert_eq!(f.series.len(), 4);
        }
    }
}
