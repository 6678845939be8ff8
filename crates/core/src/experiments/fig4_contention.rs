//! Figure 4 — memory-bound computations (STREAM) vs network performance
//! as a function of the number of computing cores (§4.2).
//!
//! Placement (the paper's default for this figure): computation and
//! communication data on the NUMA node of the NIC, communication thread on
//! the far socket. Memory is allocated on a single NUMA node to maximize
//! bus traffic; computing threads bind in logical core order.
//!
//! The measurements live in [`super::contention`] and are memoized in the
//! campaign cache, so Figure 5 and Table 1 (which sweep the same
//! placement) reuse them instead of re-running the protocol.

use topology::Placement;

pub use super::contention::{core_sweep, STREAM_ELEMS};
use super::contention::{measure, series_for, ContentionPoint, Metric};
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::paper;
use crate::report::{Check, FigureData};

/// Figure 4's placement label (one of the four Table 1 combos).
const PLACEMENT_LABEL: &str = "data near, thread far";

const METRICS: [Metric; 2] = [Metric::Latency, Metric::Bandwidth];

fn cores(fidelity: Fidelity) -> Vec<usize> {
    let machine = topology::henri();
    fidelity.thin(&core_sweep(machine.core_count() as usize - 1))
}

/// Registry driver for Figure 4 (sweep: {latency, bandwidth} × core counts).
pub struct Fig4;

impl Experiment for Fig4 {
    fn name(&self) -> &'static str {
        "fig4"
    }

    fn anchor(&self) -> &'static str {
        "§4.2, Figures 4a/4b"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let cores = cores(fidelity);
        let mut plan = Vec::new();
        for (mi, m) in METRICS.iter().enumerate() {
            for (ci, &n) in cores.iter().enumerate() {
                plan.push(SweepPoint::new(
                    mi * cores.len() + ci,
                    format!("{} @ {} cores", m.tag(), n),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let cores = cores(ctx.fidelity);
        let metric = METRICS[point.index / cores.len()];
        let n = cores[point.index % cores.len()];
        let machine = topology::henri();
        let p = measure(
            ctx,
            &machine,
            PLACEMENT_LABEL,
            Placement::fig4_default(),
            metric,
            n,
        )?;
        Ok(Box::new(p))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        Some(value.downcast_ref::<ContentionPoint>()?.encode())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        Some(Box::new(ContentionPoint::decode(bytes)?))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let cores = cores(fidelity);
        let collect = |mi: usize| -> Vec<&ContentionPoint> {
            (0..cores.len())
                .map(|ci| expect_value::<ContentionPoint>(points, mi * cores.len() + ci))
                .collect()
        };
        let lat = series_for(Metric::Latency, &cores, &collect(0));
        let bw = series_for(Metric::Bandwidth, &cores, &collect(1));

        // ---- checks ----
        let lat_base = lat.comm_alone.points[0].y.median;
        let lat_full = lat.comm_together.points.last().expect("points").y.median;
        let lat_alone_full = lat.comm_alone.points.last().expect("points").y.median;
        let bw_base = bw.comm_alone.points[0].y.median;
        let bw_full = bw.comm_together.points.last().expect("points").y.median;
        let bw_loss = 1.0 - bw_full / bw_base;
        // STREAM impact from the big-message benchmark (worst case across the
        // sweep).
        let stream_worst_loss = bw
            .stream_alone
            .points
            .iter()
            .zip(&bw.stream_together.points)
            .map(|(a, t)| 1.0 - t.y.median / a.y.median)
            .fold(f64::MIN, f64::max);
        // STREAM must be untouched by the latency benchmark.
        let stream_lat_loss = lat
            .stream_alone
            .points
            .iter()
            .zip(&lat.stream_together.points)
            .map(|(a, t)| 1.0 - t.y.median / a.y.median)
            .fold(f64::MIN, f64::max);

        let checks_a = vec![
            Check::new(
                "latency roughly doubles at full STREAM occupancy (paper: ×2)",
                lat_full > lat_alone_full * 1.5,
                format!(
                    "together {:.2} µs vs alone {:.2} µs (×{:.2})",
                    lat_full,
                    lat_alone_full,
                    lat_full / lat_alone_full
                ),
            ),
            Check::new(
                "latency unaffected at low core counts",
                {
                    let early = &lat.comm_together.points[0];
                    early.y.median < lat_base * 1.25
                },
                format!(
                    "1 core: {:.2} µs vs baseline {:.2} µs",
                    lat.comm_together.points[0].y.median, lat_base
                ),
            ),
            Check::new(
                "STREAM not impacted by the latency ping-pong",
                stream_lat_loss < 0.05,
                format!("worst STREAM loss {:.1} %", stream_lat_loss * 100.0),
            ),
        ];
        let checks_b = vec![
            Check::new(
                "bandwidth loses ≥ half at full occupancy (paper: ~2/3)",
                bw_loss > 0.5,
                format!(
                    "{:.2} → {:.2} GB/s ({:.0} % loss)",
                    bw_base / 1e9,
                    bw_full / 1e9,
                    bw_loss * 100.0
                ),
            ),
            Check::new(
                "bandwidth degradation starts early in the sweep (paper: from 3 cores)",
                bw.comm_together
                    .onset_x(bw_base, 0.10)
                    .map(|x| x <= 15.0)
                    .unwrap_or(false),
                format!(
                    "10 % onset at {:?} computing cores",
                    bw.comm_together.onset_x(bw_base, 0.10)
                ),
            ),
            Check::new(
                "STREAM loses up to ~25 % beside the bandwidth benchmark",
                stream_worst_loss > 0.08 && stream_worst_loss < 0.5,
                format!("worst STREAM loss {:.1} %", stream_worst_loss * 100.0),
            ),
        ];

        vec![
            FigureData {
                id: "fig4a",
                title: "STREAM vs network latency by computing-core count (henri)".into(),
                xlabel: "computing cores",
                ylabel: "us / B/s",
                series: vec![
                    lat.comm_alone,
                    lat.comm_together,
                    lat.stream_alone,
                    lat.stream_together,
                ],
                notes: vec![format!(
                    "paper: impacted from ~{} cores, up to ×{}",
                    paper::FIG4_LATENCY_ONSET_CORES,
                    paper::FIG4_LATENCY_FACTOR
                )],
                checks: checks_a,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig4b",
                title: "STREAM vs network bandwidth by computing-core count (henri)".into(),
                xlabel: "computing cores",
                ylabel: "B/s",
                series: vec![
                    bw.comm_alone,
                    bw.comm_together,
                    bw.stream_alone,
                    bw.stream_together,
                ],
                notes: vec![format!(
                    "paper: impacted from ~{} cores; loses ~{:.0} % at full occupancy; STREAM loses ≤ {:.0} %",
                    paper::FIG4_BW_ONSET_CORES,
                    paper::FIG4_BW_LOSS_AT_FULL * 100.0,
                    paper::FIG4_STREAM_WORST_LOSS * 100.0
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
    fn fig4_quick_passes_checks() {
        let figs = quick(&Fig4);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
        }
    }

    #[test]
    fn placement_label_matches_table1_row() {
        let combos = Placement::all_combinations();
        assert_eq!(combos[1].0, PLACEMENT_LABEL);
        assert_eq!(combos[1].1, Placement::fig4_default());
    }
}
