//! Figure 5 — impact of communication-thread placement and data locality
//! on the contention curves (§4.3).
//!
//! The four near/far combinations of {data, communication thread} relative
//! to the NIC. Figure 4 is the (data near, thread far) case; this driver
//! sweeps all four and checks the Table 1 qualitative summary:
//!
//! * thread near → latency rises *slightly*, early (from ~6 cores);
//! * thread far → latency rises *highly*, late (from ~25 cores);
//! * data near → bandwidth decreases *steadily*;
//! * data far → bandwidth drops *abruptly*.
//!
//! All points come from [`super::contention::measure`] and are shared with
//! Figure 4 and Table 1 through the campaign cache.

use topology::{henri, Placement};

use super::contention::{core_sweep, measure, series_for, ContentionPoint, Metric};
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::paper;
use crate::report::{Check, FigureData};

const METRICS: [Metric; 2] = [Metric::Latency, Metric::Bandwidth];

fn cores(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&core_sweep(henri().core_count() as usize - 1))
}

/// The medians Figure 5's checks need from one placement.
struct PlacementStats {
    lat_base: f64,
    lat_full: f64,
    bw_base: f64,
    bw_full: f64,
}

/// Registry driver for Figure 5 (sweep: 4 placements × {lat, bw} × cores).
pub struct Fig5;

impl Experiment for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn anchor(&self) -> &'static str {
        "§4.3, Figure 5 / Table 1 curves"
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

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let cores = cores(fidelity);
        let combos = Placement::all_combinations();

        let mut lat_series = Vec::new();
        let mut bw_series = Vec::new();
        let mut stats = Vec::new();
        for (pi, (label, _)) in combos.iter().enumerate() {
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
            stats.push(PlacementStats {
                lat_base: lat.comm_alone.points[0].y.median,
                lat_full: lat.comm_together.points.last().expect("points").y.median,
                bw_base: bw.comm_alone.points[0].y.median,
                bw_full: bw.comm_together.points.last().expect("points").y.median,
            });
            let mut la = lat.comm_alone;
            la.name = format!("{} — alone", label);
            let mut lt = lat.comm_together;
            lt.name = format!("{} — + STREAM", label);
            lat_series.push(la);
            lat_series.push(lt);
            let mut ba = bw.comm_alone;
            ba.name = format!("{} — alone", label);
            let mut bt = bw.comm_together;
            bt.name = format!("{} — + STREAM", label);
            bw_series.push(ba);
            bw_series.push(bt);
        }

        // Index by (data, thread): 0 near/near, 1 near/far, 2 far/near, 3 far/far.
        let lat_full: Vec<f64> = stats.iter().map(|s| s.lat_full).collect();
        let lat_base: Vec<f64> = stats.iter().map(|s| s.lat_base).collect();
        let bw_full: Vec<f64> = stats.iter().map(|s| s.bw_full).collect();
        let bw_base: Vec<f64> = stats.iter().map(|s| s.bw_base).collect();

        // Thread near (rows 0, 2) vs far (rows 1, 3).
        let near_infl = (lat_full[0] / lat_base[0]).max(lat_full[2] / lat_base[2]);
        let far_infl = (lat_full[1] / lat_base[1]).min(lat_full[3] / lat_base[3]);
        // Data near (rows 0, 1) vs far (rows 2, 3): loss at full occupancy.
        let near_loss = (1.0 - bw_full[0] / bw_base[0]).max(1.0 - bw_full[1] / bw_base[1]);
        let far_loss = (1.0 - bw_full[2] / bw_base[2]).min(1.0 - bw_full[3] / bw_base[3]);

        let checks_lat = vec![
            Check::new(
                "far thread suffers more latency inflation than near thread",
                far_infl > near_infl,
                format!("far ×{:.2} vs near ×{:.2}", far_infl, near_infl),
            ),
            Check::new(
                "near-thread latency stays bounded (~2 µs in the paper)",
                lat_full[0] < 3.0,
                format!("near/near at full occupancy: {:.2} µs", lat_full[0]),
            ),
            Check::new(
                "baseline latency better near the NIC (paper: 1.39 vs 1.67 µs)",
                lat_base[0] < lat_base[1],
                format!("near {:.2} µs vs far {:.2} µs", lat_base[0], lat_base[1]),
            ),
        ];
        let checks_bw = vec![
            Check::new(
                "data far from the NIC loses more bandwidth than data near",
                far_loss > near_loss,
                format!(
                    "far {:.0} % vs near {:.0} %",
                    far_loss * 100.0,
                    near_loss * 100.0
                ),
            ),
            Check::new(
                "every placement loses bandwidth at full occupancy",
                bw_full.iter().zip(&bw_base).all(|(f, b)| f < b),
                format!(
                    "losses: {:?} %",
                    bw_full
                        .iter()
                        .zip(&bw_base)
                        .map(|(f, b)| ((1.0 - f / b) * 100.0).round())
                        .collect::<Vec<_>>()
                ),
            ),
        ];

        vec![
            FigureData {
                id: "fig5-lat",
                title: "Placement impact on network latency under contention (henri)".into(),
                xlabel: "computing cores",
                ylabel: "latency (us)",
                series: lat_series,
                notes: vec![format!(
                    "paper baselines: near {} µs vs far {} µs; near onset ~{} cores, far onset ~{} cores",
                    paper::FIG5_LAT_NEAR_US,
                    paper::FIG5_LAT_FAR_US,
                    paper::FIG5_NEAR_ONSET_CORES,
                    paper::FIG5_FAR_ONSET_CORES
                )],
                checks: checks_lat,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig5-bw",
                title: "Placement impact on network bandwidth under contention (henri)".into(),
                xlabel: "computing cores",
                ylabel: "bandwidth (B/s)",
                series: bw_series,
                notes: vec![
                    "paper: data near → steady decrease; data far → abrupt drop".into(),
                ],
                checks: checks_bw,
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
    fn fig5_quick_passes_checks() {
        let figs = quick(&Fig5);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
            assert_eq!(f.series.len(), 8);
        }
    }
}
