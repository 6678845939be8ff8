//! Table 1 — qualitative summary of data / communication-thread placement
//! impacts, derived from the Figure 5 sweeps.
//!
//! The sweep plan is identical to Figure 5's, so inside a shared campaign
//! every point is a cache hit: Table 1 costs nothing beyond Figure 5.

use simcore::Series;
use topology::{henri, Placement};

use super::contention::{core_sweep, measure, series_for, ContentionPoint, Metric};
use crate::campaign::{expect_value, Experiment, PointCtx, PointOutcome, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::report::{Check, FigureData};

const METRICS: [Metric; 2] = [Metric::Latency, Metric::Bandwidth];

fn cores(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&core_sweep(henri().core_count() as usize - 1))
}

/// One derived row of Table 1.
struct TableRow {
    /// Placement label.
    label: &'static str,
    /// Latency inflation factor at full occupancy.
    lat_factor: f64,
    /// 10 %-degradation onset of the latency curve (computing cores).
    lat_onset: Option<f64>,
    /// Bandwidth loss at full occupancy, fraction.
    bw_loss: f64,
    /// 10 %-degradation onset of the bandwidth curve.
    bw_onset: Option<f64>,
}

fn rows_from(fidelity: Fidelity, points: &[PointOutcome]) -> Vec<TableRow> {
    let cores = cores(fidelity);
    Placement::all_combinations()
        .iter()
        .enumerate()
        .map(|(pi, (label, _))| {
            let collect = |mi: usize| -> Vec<&ContentionPoint> {
                (0..cores.len())
                    .map(|ci| {
                        expect_value::<ContentionPoint>(
                            points,
                            (pi * METRICS.len() + mi) * cores.len() + ci,
                        )
                    })
                    .collect()
            };
            let lat = series_for(Metric::Latency, &cores, &collect(0));
            let bw = series_for(Metric::Bandwidth, &cores, &collect(1));
            let lat_base = lat.comm_alone.points[0].y.median;
            let lat_full = lat.comm_together.points.last().expect("points").y.median;
            let bw_base = bw.comm_alone.points[0].y.median;
            let bw_full = bw.comm_together.points.last().expect("points").y.median;
            TableRow {
                label,
                lat_factor: lat_full / lat_base,
                lat_onset: lat.comm_together.onset_x(lat_base, 0.10),
                bw_loss: 1.0 - bw_full / bw_base,
                bw_onset: bw.comm_together.onset_x(bw_base, 0.10),
            }
        })
        .collect()
}

/// Registry driver for Table 1 (same plan as Figure 5; every point shared
/// through the campaign cache).
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn anchor(&self) -> &'static str {
        "§4.3, Table 1"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let cores = cores(fidelity);
        let mut plan = Vec::new();
        for (pi, (label, _)) in Placement::all_combinations().into_iter().enumerate() {
            for (mi, m) in METRICS.iter().enumerate() {
                for (ci, &n) in cores.iter().enumerate() {
                    plan.push(SweepPoint::new(
                        (pi * METRICS.len() + mi) * cores.len() + ci,
                        format!("{}, {} @ {} cores", label, m.tag(), n),
                    ));
                }
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let cores = cores(ctx.fidelity);
        let combos = Placement::all_combinations();
        let pi = point.index / (METRICS.len() * cores.len());
        let mi = (point.index / cores.len()) % METRICS.len();
        let n = cores[point.index % cores.len()];
        let (label, placement) = combos[pi];
        let machine = henri();
        let p = measure(ctx, &machine, label, placement, METRICS[mi], n)?;
        Ok(Box::new(p))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        Some(value.downcast_ref::<ContentionPoint>()?.encode())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        Some(Box::new(ContentionPoint::decode(bytes)?))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> Vec<FigureData> {
        let rows = rows_from(fidelity, points);
        // Encode the table as series: x = row index.
        let mut s_lat = Series::new("latency inflation factor at full occupancy");
        let mut s_bw = Series::new("bandwidth loss (%) at full occupancy");
        let mut notes =
            vec!["rows: 0 = data near/thread near, 1 = near/far, 2 = far/near, 3 = far/far".into()];
        for (i, r) in rows.iter().enumerate() {
            s_lat.push(i as f64, &[r.lat_factor]);
            s_bw.push(i as f64, &[r.bw_loss * 100.0]);
            notes.push(format!(
                "{}: latency ×{:.2} (onset {:?}), bandwidth −{:.0} % (onset {:?})",
                r.label,
                r.lat_factor,
                r.lat_onset,
                r.bw_loss * 100.0,
                r.bw_onset
            ));
        }

        // Table 1's qualitative content.
        let near_thread_max = rows[0].lat_factor.max(rows[2].lat_factor);
        let far_thread_min = rows[1].lat_factor.min(rows[3].lat_factor);
        let near_data_max = rows[0].bw_loss.max(rows[1].bw_loss);
        let far_data_min = rows[2].bw_loss.min(rows[3].bw_loss);
        let checks = vec![
            Check::new(
                "thread far ⇒ latency increases highly; thread near ⇒ slightly",
                far_thread_min > near_thread_max,
                format!(
                    "far ≥ ×{:.2} vs near ≤ ×{:.2}",
                    far_thread_min, near_thread_max
                ),
            ),
            Check::new(
                "data far ⇒ bandwidth drops more than data near",
                far_data_min > near_data_max,
                format!(
                    "far ≥ {:.0} % vs near ≤ {:.0} %",
                    far_data_min * 100.0,
                    near_data_max * 100.0
                ),
            ),
        ];

        vec![FigureData {
            id: "table1",
            title: "Summary of data / communication-thread placement impact (henri)".into(),
            xlabel: "placement row",
            ylabel: "factor / %",
            series: vec![s_lat, s_bw],
            notes,
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
    fn table1_quick_passes_checks() {
        let t = quick(&Table1).remove(0);
        for c in &t.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(t.series.len(), 2);
        assert_eq!(t.series[0].points.len(), 4);
    }
}
