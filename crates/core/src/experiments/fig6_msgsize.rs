//! Figure 6 — impact of the transmitted message size on memory contention
//! (§4.4), with 5 and with 35 computing cores.
//!
//! The paper's findings: with 5 computing cores, communications degrade
//! from ~64 KiB (the DMA path starts fighting for the controller) while
//! STREAM is impacted from ~4 KiB; with 35 cores the communications degrade
//! from far smaller messages (~128 B).

use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::PingPongConfig;
use simcore::Series;
use topology::{henri, Placement};

use super::contention::STREAM_ELEMS;
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::experiments::{size_sweep, Fidelity};
use crate::paper;
use crate::protocol::{self, ProtocolConfig};
use crate::report::{Check, FigureData};

/// The two computing-core counts of Figures 6a/6b.
const CORE_COUNTS: [usize; 2] = [5, 35];

fn sizes(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&size_sweep())
}

/// Per-rep speed ratios (together ÷ alone) of one (cores, size) point.
struct Fig6Point {
    comm_ratios: Vec<f64>,
    stream_ratios: Vec<f64>,
}

/// Registry driver for Figure 6 (sweep: {5, 35} cores × message sizes).
pub struct Fig6;

impl Experiment for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn anchor(&self) -> &'static str {
        "§4.4, Figures 6a/6b"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let sizes = sizes(fidelity);
        let mut plan = Vec::new();
        for (gi, &cores) in CORE_COUNTS.iter().enumerate() {
            for (si, &size) in sizes.iter().enumerate() {
                plan.push(SweepPoint::new(
                    gi * sizes.len() + si,
                    format!("{} cores @ {} B", cores, size),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let sizes = sizes(ctx.fidelity);
        let cores = CORE_COUNTS[point.index / sizes.len()];
        let size = sizes[point.index % sizes.len()];
        let machine = henri();
        let w = workload(StreamKernel::Triad, STREAM_ELEMS, machine.near_numa(), 1);
        let mut cfg = ProtocolConfig::new(machine, Some(w));
        cfg.placement = Placement::fig4_default();
        cfg.compute_cores = cores;
        cfg.pingpong = PingPongConfig {
            size,
            reps: if size >= 1 << 20 {
                ctx.fidelity.bw_reps()
            } else {
                ctx.fidelity.lat_reps()
            },
            warmup: 1,
            mtag: 4,
        };
        cfg.reps = ctx.fidelity.reps();
        cfg.seed = ctx.seed;
        let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
        // Speed ratio: alone-latency / together-latency (≤ 1 when hurt).
        // Ratios pair alone and together measurements of the same rep so
        // jitter cancels; both steps come from the same protocol run.
        let comm_ratios: Vec<f64> = r
            .comm_alone
            .iter()
            .zip(&r.together)
            .map(|(a, t)| a.comm_latency_us / t.comm_latency_us)
            .collect();
        let stream_ratios: Vec<f64> = r
            .compute_alone
            .iter()
            .zip(&r.together)
            .map(|(a, t)| t.compute_bw_per_core / a.compute_bw_per_core)
            .collect();
        Ok(Box::new(Fig6Point {
            comm_ratios,
            stream_ratios,
        }))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let p = value.downcast_ref::<Fig6Point>()?;
        let mut e = Enc::new();
        e.f64s(&p.comm_ratios).f64s(&p.stream_ratios);
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        let p = Fig6Point {
            comm_ratios: d.f64s()?,
            stream_ratios: d.f64s()?,
        };
        d.finish(Box::new(p) as PointValue)
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let sizes = sizes(fidelity);
        let mut sweeps = Vec::new();
        for (gi, &cores) in CORE_COUNTS.iter().enumerate() {
            let mut comm = Series::new(format!(
                "comm speed ratio (together/alone), {} cores",
                cores
            ));
            let mut stream =
                Series::new(format!("STREAM BW ratio (together/alone), {} cores", cores));
            for (si, &size) in sizes.iter().enumerate() {
                let p = expect_value::<Fig6Point>(points, gi * sizes.len() + si);
                comm.push(size as f64, &p.comm_ratios);
                stream.push(size as f64, &p.stream_ratios);
            }
            sweeps.push((comm, stream));
        }
        let (comm35, stream35) = sweeps.pop().expect("two sweeps");
        let (comm5, stream5) = sweeps.pop().expect("two sweeps");

        let comm5_onset = onset(&comm5, 0.10);
        let stream5_onset = onset(&stream5, 0.05);
        let comm35_onset = onset(&comm35, 0.10);

        let checks_a = vec![
            Check::new(
                "with 5 cores, small-message communication is unimpacted",
                comm5.points[0].y.median > 0.95,
                format!("4 B speed ratio {:.2}", comm5.points[0].y.median),
            ),
            Check::new(
                "with 5 cores, any communication impact is confined to large messages",
                comm5_onset.map(|x| x >= 16.0 * 1024.0).unwrap_or(true),
                format!("comm 10 %-onset at {:?} B (paper: 64 KiB)", comm5_onset),
            ),
            Check::new(
                "with 5 cores, STREAM is impacted once messages are large (paper: from 4 KiB)",
                stream5_onset.is_some()
                    && stream5
                        .points
                        .last()
                        .map(|p| p.y.median < 0.95)
                        .unwrap_or(false),
                format!(
                    "STREAM onset at {:?} B; 64 MiB ratio {:.2}",
                    stream5_onset,
                    stream5
                        .points
                        .last()
                        .map(|p| p.y.median)
                        .unwrap_or(f64::NAN)
                ),
            ),
        ];
        let checks_b = vec![
            Check::new(
                "with 35 cores, communications degrade from much smaller messages",
                match (comm35_onset, comm5_onset) {
                    (Some(x35), Some(x5)) => x35 < x5,
                    (Some(_), None) => true,
                    _ => false,
                },
                format!(
                    "onset 35 cores: {:?} B vs 5 cores: {:?} B",
                    comm35_onset, comm5_onset
                ),
            ),
            Check::new(
                "with 35 cores, large-message communication is heavily degraded",
                comm35
                    .points
                    .last()
                    .map(|p| p.y.median < 0.6)
                    .unwrap_or(false),
                format!(
                    "64 MiB speed ratio {:.2}",
                    comm35.points.last().map(|p| p.y.median).unwrap_or(f64::NAN)
                ),
            ),
        ];

        vec![
            FigureData {
                id: "fig6a",
                title: "Impact of message size with 5 computing cores (henri)".into(),
                xlabel: "message size (B)",
                ylabel: "speed ratio (together/alone)",
                series: vec![comm5, stream5],
                notes: vec![format!(
                    "paper: comm degraded from {} B, STREAM from {} B",
                    paper::FIG6_5CORES_COMM_ONSET,
                    paper::FIG6_5CORES_STREAM_ONSET
                )],
                checks: checks_a,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig6b",
                title: "Impact of message size with 35 computing cores (henri)".into(),
                xlabel: "message size (B)",
                ylabel: "speed ratio (together/alone)",
                series: vec![comm35, stream35],
                notes: vec![format!(
                    "paper: comm degraded from {} B, STREAM from ~4 KiB",
                    paper::FIG6_35CORES_COMM_ONSET
                )],
                checks: checks_b,
                runs: Vec::new(),
            },
        ]
    }
}

/// First size at which the ratio drops below `1 - rel`.
fn onset(series: &Series, rel: f64) -> Option<f64> {
    series
        .points
        .iter()
        .find(|p| p.y.median < 1.0 - rel)
        .map(|p| p.x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick;

    #[test]
    fn fig6_quick_runs() {
        // Quick fidelity thins the size sweep to the endpoints, so onsets
        // are coarse; only assert that the sweep produces sane ratios.
        let figs = quick(&Fig6);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for s in &f.series {
                for p in &s.points {
                    assert!(
                        p.y.median > 0.01 && p.y.median < 1.6,
                        "{}: implausible ratio {} at {}",
                        f.id,
                        p.y.median,
                        p.x
                    );
                }
            }
        }
        // The strongest effect must still show: 35-core large-message comm
        // heavily degraded.
        let last = figs[1].series[0].points.last().unwrap().y.median;
        assert!(last < 0.7, "large-message ratio {}", last);
    }
}
