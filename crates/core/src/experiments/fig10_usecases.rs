//! Figure 10 — communication performance inside real computational
//! kernels: distributed dense CG and GEMM on the task runtime (§6).
//!
//! Top plot: normalized sending bandwidth (profiler at the sender) vs the
//! number of workers. Bottom plot: fraction of CPU stalls caused by memory
//! accesses (simulated PMU). The paper's headline: CG (memory-bound) loses
//! up to 90 % of sending bandwidth with ~70 % memory stalls; GEMM
//! (compute-bound) loses at most ~20 % with ~20 % stalls.

use mpisim::Cluster;
use simcore::Series;
use taskrt::programs::{self, UseCaseConfig};
use taskrt::{Runtime, RuntimeConfig};
use topology::{henri, Placement};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::paper;
use crate::report::{Check, FigureData};

const KINDS: [&str; 2] = ["CG", "GEMM"];

/// Worker sweep of Figure 10.
fn worker_sweep(fidelity: Fidelity) -> Vec<usize> {
    fidelity.pick(&[1, 2, 4, 8, 12, 16, 20, 25, 30, 35], &[1, 8, 30])
}

fn fresh_cluster() -> Cluster {
    Cluster::new(
        &henri(),
        freq::Governor::Performance { turbo: true },
        freq::UncorePolicy::Auto,
        Placement::fig4_default(),
    )
}

/// One (kind, workers) measurement: raw send bandwidth and stall fraction.
/// Normalization to the 1-worker baseline happens in `finalize`, where all
/// points of the sweep are visible.
#[derive(Clone, Copy)]
struct UseCasePoint {
    send_bw: f64,
    stall_fraction: f64,
}

/// Registry driver for Figure 10 (sweep: {CG, GEMM} × worker counts).
pub struct Fig10;

impl Experiment for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn anchor(&self) -> &'static str {
        "§6, Figure 10"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let workers = worker_sweep(fidelity);
        let mut plan = Vec::new();
        for (ki, kind) in KINDS.iter().enumerate() {
            for (wi, &w) in workers.iter().enumerate() {
                plan.push(SweepPoint::new(
                    ki * workers.len() + wi,
                    format!("{} @ {} workers", kind, w),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let workers = worker_sweep(ctx.fidelity);
        let kind = KINDS[point.index / workers.len()];
        let w = workers[point.index % workers.len()];
        let iters = ctx.fidelity.choose(3, 2);
        let cfg = match kind {
            "CG" => UseCaseConfig::cg(w, iters),
            _ => UseCaseConfig::gemm(w, iters),
        };
        let mut cluster = fresh_cluster();
        let mut rt = Runtime::new(RuntimeConfig::for_machine(&cluster.spec));
        programs::attach_n_workers(&mut cluster, &mut rt, w);
        let res = programs::run(&mut cluster, &mut rt, cfg);
        Ok(Box::new(UseCasePoint {
            send_bw: res.mean_send_bw,
            stall_fraction: res.stall_fraction,
        }))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let workers = worker_sweep(fidelity);
        let mut sweeps = Vec::new();
        for (ki, kind) in KINDS.iter().enumerate() {
            let mut bw = Series::new(format!("{} normalized send bandwidth", kind));
            let mut stalls = Series::new(format!("{} memory-stall fraction", kind));
            let base = expect_value::<UseCasePoint>(points, ki * workers.len()).send_bw;
            for (wi, &w) in workers.iter().enumerate() {
                let p = expect_value::<UseCasePoint>(points, ki * workers.len() + wi);
                bw.push(w as f64, &[p.send_bw / base]);
                stalls.push(w as f64, &[p.stall_fraction]);
            }
            sweeps.push((bw, stalls));
        }
        let (gemm_bw, gemm_stalls) = sweeps.pop().expect("two sweeps");
        let (cg_bw, cg_stalls) = sweeps.pop().expect("two sweeps");

        let cg_final = cg_bw.points.last().expect("points").y.median;
        let gemm_final = gemm_bw.points.last().expect("points").y.median;
        let cg_stall_final = cg_stalls.points.last().expect("points").y.median;
        let gemm_stall_final = gemm_stalls.points.last().expect("points").y.median;

        let checks_bw = vec![
            Check::new(
                "CG loses most of its sending bandwidth at full occupancy (paper: −90 %)",
                cg_final < 0.35,
                format!(
                    "normalized bandwidth {:.2} (−{:.0} %)",
                    cg_final,
                    (1.0 - cg_final) * 100.0
                ),
            ),
            Check::new(
                "GEMM loses far less (paper: ≤ 20 %)",
                gemm_final > 0.6,
                format!(
                    "normalized bandwidth {:.2} (−{:.0} %)",
                    gemm_final,
                    (1.0 - gemm_final) * 100.0
                ),
            ),
            Check::new(
                "CG is hit much harder than GEMM",
                cg_final < gemm_final - 0.2,
                format!("CG {:.2} vs GEMM {:.2}", cg_final, gemm_final),
            ),
            Check::new(
                "degradation grows with the number of computing cores",
                {
                    let meds: Vec<f64> = cg_bw.points.iter().map(|p| p.y.median).collect();
                    meds.windows(2).all(|w| w[1] <= w[0] * 1.08)
                },
                "CG normalized bandwidth is (weakly) decreasing".to_string(),
            ),
        ];
        let checks_st = vec![
            Check::new(
                "CG stalls mostly on memory at full occupancy (paper: ~70 %)",
                cg_stall_final > 0.5,
                format!("stall fraction {:.2}", cg_stall_final),
            ),
            Check::new(
                "GEMM stalls far less (paper: ~20 %)",
                gemm_stall_final < 0.35,
                format!("stall fraction {:.2}", gemm_stall_final),
            ),
            Check::new(
                "stall ordering matches the bandwidth ordering",
                cg_stall_final > gemm_stall_final,
                format!("CG {:.2} vs GEMM {:.2}", cg_stall_final, gemm_stall_final),
            ),
        ];

        vec![
            FigureData {
                id: "fig10-bw",
                title: "Normalized sending bandwidth of CG and GEMM vs workers (henri, 2 ranks)"
                    .into(),
                xlabel: "workers per node",
                ylabel: "normalized send bandwidth",
                series: vec![cg_bw, gemm_bw],
                notes: vec![format!(
                    "paper: CG loses up to {:.0} %, GEMM at most {:.0} %",
                    paper::FIG10_CG_LOSS * 100.0,
                    paper::FIG10_GEMM_LOSS * 100.0
                )],
                checks: checks_bw,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig10-stalls",
                title: "Memory-stall fraction of CG and GEMM vs workers (henri, 2 ranks)".into(),
                xlabel: "workers per node",
                ylabel: "stall fraction",
                series: vec![cg_stalls, gemm_stalls],
                notes: vec![format!(
                    "paper: ~{:.0} % stalls for CG vs ~{:.0} % for GEMM at full occupancy",
                    paper::FIG10_CG_STALLS * 100.0,
                    paper::FIG10_GEMM_STALLS * 100.0
                )],
                checks: checks_st,
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
    fn fig10_quick_passes_checks() {
        let figs = quick(&Fig10);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
        }
    }
}
