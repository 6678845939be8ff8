//! Figure 7 — impact of the application's memory pressure on network
//! performance, via the tunable-arithmetic-intensity TRIAD (§4.5).
//!
//! The *cursor* repeats the TRIAD update on each element before moving on:
//! few repetitions → memory-bound (high pressure), many → CPU-bound. On
//! henri the boundary sits around 6 flop/B: below it the network latency
//! doubles and the bandwidth drops ~60 %; above it communication returns to
//! nominal.
//!
//! The communication-alone baseline does not depend on the cursor (no jobs
//! run beside it), so it is measured once per metric through the campaign
//! cache and shared by every cursor of the sweep.

use kernels::tunable;
use mpisim::pingpong::PingPongConfig;
use simcore::Series;
use topology::{henri, Placement};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::experiments::Fidelity;
use crate::paper;
use crate::protocol::{self, ProtocolConfig, StepMask, StepResults};
use crate::report::{Check, FigureData};

/// Elements per tunable-TRIAD pass.
const ELEMS: usize = 1_000_000;

/// Cursor sweep covering 0.17–85 flop/B.
fn cursor_sweep() -> Vec<u32> {
    vec![1, 2, 4, 8, 16, 24, 36, 48, 72, 96, 144, 240, 480, 1020]
}

/// Quick mode needs points straddling the crossover (≈8 flop/B with 35
/// normal-license cores at the 2.5 GHz ladder tail), so it keeps a
/// hand-picked subset instead of generic thinning.
fn cursors(fidelity: Fidelity) -> Vec<u32> {
    fidelity.pick(&cursor_sweep(), &[1, 48, 144, 1020])
}

/// One latency point: per-rep alone and together latencies (µs).
struct LatOut {
    alone: Vec<f64>,
    together: Vec<f64>,
}

/// One bandwidth point: per-rep alone/together bandwidths plus compute
/// pass times (ms).
struct BwOut {
    alone: Vec<f64>,
    together: Vec<f64>,
    t_alone: Vec<f64>,
    t_together: Vec<f64>,
}

fn base_config(
    cursor: u32,
    pingpong: PingPongConfig,
    fidelity: Fidelity,
    seed: u64,
) -> ProtocolConfig {
    let machine = henri();
    let w = tunable::workload(ELEMS, cursor, machine.near_numa(), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = 35.min(machine.core_count() as usize - 1);
    cfg.pingpong = pingpong;
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    cfg
}

/// Communication-alone baseline, memoized per metric (cursor-independent:
/// nothing computes beside it).
fn comm_alone(
    ctx: &PointCtx<'_>,
    tag: &str,
    pingpong: PingPongConfig,
) -> Result<StepResults, String> {
    let key = format!("fig7/comm-alone/{}", tag);
    // Errors are not memoized: a cancelled baseline must not poison every
    // later cursor point sharing this key.
    let cached: std::sync::Arc<StepResults> =
        ctx.baselines.get_or_compute_result(&key, |seed| {
            let cfg = base_config(cursor_sweep()[0], pingpong, ctx.fidelity, seed);
            protocol::try_run_masked(
                &cfg,
                &simcore::FaultPlan::new(cfg.seed),
                StepMask::COMM_ALONE,
            )
            .map_err(|e| e.to_string())
        })?;
    Ok((*cached).clone())
}

/// Registry driver for Figure 7 (sweep: {latency, bandwidth} × cursors).
pub struct Fig7;

impl Experiment for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn anchor(&self) -> &'static str {
        "§4.5, Figures 7a/7b"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let cursors = cursors(fidelity);
        let mut plan = Vec::new();
        for (mi, tag) in ["lat", "bw"].iter().enumerate() {
            for (ci, &cursor) in cursors.iter().enumerate() {
                plan.push(SweepPoint::new(
                    mi * cursors.len() + ci,
                    format!(
                        "{} @ cursor {} ({:.2} flop/B)",
                        tag,
                        cursor,
                        tunable::intensity(cursor)
                    ),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let cursors = cursors(ctx.fidelity);
        let latency = point.index < cursors.len();
        let cursor = cursors[point.index % cursors.len()];
        if latency {
            let pp = PingPongConfig::latency(ctx.fidelity.lat_reps());
            let alone = comm_alone(ctx, "lat", pp)?;
            let cfg = base_config(cursor, pp, ctx.fidelity, ctx.seed);
            // The latency figure does not use the computation-alone step.
            let r = protocol::try_run_masked(
                &cfg,
                &simcore::FaultPlan::new(cfg.seed),
                StepMask::TOGETHER,
            )
            .map_err(|e| e.to_string())?;
            Ok(Box::new(LatOut {
                alone: alone.lat_alone(),
                together: r.lat_together(),
            }))
        } else {
            let pp = PingPongConfig {
                size: 64 << 20,
                reps: ctx.fidelity.bw_reps(),
                warmup: 1,
                mtag: 5,
            };
            let alone = comm_alone(ctx, "bw", pp)?;
            let cfg = base_config(cursor, pp, ctx.fidelity, ctx.seed);
            let r = protocol::try_run_masked(
                &cfg,
                &simcore::FaultPlan::new(cfg.seed),
                StepMask::WITHOUT_COMM_ALONE,
            )
            .map_err(|e| e.to_string())?;
            let w = cfg.workload.clone().expect("workload set");
            let t_alone: Vec<f64> = r
                .compute_alone
                .iter()
                .map(|m| m.iteration_time(&w) * 1e3)
                .collect();
            let t_together: Vec<f64> = r
                .together
                .iter()
                .map(|m| m.iteration_time(&w) * 1e3)
                .collect();
            Ok(Box::new(BwOut {
                alone: alone.bw_alone(),
                together: r.bw_together(),
                t_alone,
                t_together,
            }))
        }
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        if let Some(p) = value.downcast_ref::<LatOut>() {
            e.u8(0).f64s(&p.alone).f64s(&p.together);
        } else if let Some(p) = value.downcast_ref::<BwOut>() {
            e.u8(1)
                .f64s(&p.alone)
                .f64s(&p.together)
                .f64s(&p.t_alone)
                .f64s(&p.t_together);
        } else {
            return None;
        }
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        match d.u8()? {
            0 => {
                let p = LatOut {
                    alone: d.f64s()?,
                    together: d.f64s()?,
                };
                d.finish(Box::new(p) as PointValue)
            }
            1 => {
                let p = BwOut {
                    alone: d.f64s()?,
                    together: d.f64s()?,
                    t_alone: d.f64s()?,
                    t_together: d.f64s()?,
                };
                d.finish(Box::new(p) as PointValue)
            }
            _ => None,
        }
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let cursors = cursors(fidelity);
        let mut lat_alone = Series::new("latency alone (us)");
        let mut lat_tog = Series::new("latency + compute (us)");
        let mut bw_alone = Series::new("bandwidth alone (B/s)");
        let mut bw_tog = Series::new("bandwidth + compute (B/s)");
        let mut t_alone = Series::new("compute time alone (ms/pass)");
        let mut t_tog = Series::new("compute time + comm (ms/pass)");
        for (ci, &cursor) in cursors.iter().enumerate() {
            let ai = tunable::intensity(cursor);
            let l = expect_value::<LatOut>(points, ci);
            lat_alone.push(ai, &l.alone);
            lat_tog.push(ai, &l.together);
            let b = expect_value::<BwOut>(points, cursors.len() + ci);
            bw_alone.push(ai, &b.alone);
            bw_tog.push(ai, &b.together);
            t_alone.push(ai, &b.t_alone);
            t_tog.push(ai, &b.t_together);
        }

        // ---- checks ----
        let low_ai = lat_tog.points[0].y.median / lat_alone.points[0].y.median;
        let hi_ai = lat_tog.points.last().expect("points").y.median
            / lat_alone.points.last().expect("points").y.median;
        let bw_low = bw_tog.points[0].y.median / bw_alone.points[0].y.median;
        let bw_hi = bw_tog.points.last().expect("points").y.median
            / bw_alone.points.last().expect("points").y.median;
        // Crossover: first AI where together-bandwidth recovers ≥ 90 % of alone.
        let crossover = bw_tog
            .points
            .iter()
            .zip(&bw_alone.points)
            .find(|(t, a)| t.y.median >= 0.9 * a.y.median)
            .map(|(t, _)| t.x);

        let checks_a = vec![
            Check::new(
                "low arithmetic intensity inflates latency (paper: ×2)",
                low_ai > 1.4,
                format!("×{:.2} at {:.2} flop/B", low_ai, lat_tog.points[0].x),
            ),
            Check::new(
                "high arithmetic intensity leaves latency nominal",
                hi_ai < 1.15,
                format!(
                    "×{:.2} at {:.1} flop/B",
                    hi_ai,
                    lat_tog.points.last().unwrap().x
                ),
            ),
        ];
        let checks_b = vec![
            Check::new(
                "low arithmetic intensity crushes bandwidth (paper: −60 %)",
                bw_low < 0.6,
                format!("ratio {:.2} at {:.2} flop/B", bw_low, bw_tog.points[0].x),
            ),
            Check::new(
                "high arithmetic intensity restores bandwidth",
                bw_hi > 0.9,
                format!("ratio {:.2}", bw_hi),
            ),
            Check::new(
                "memory/CPU-bound boundary in the paper's ballpark (~6 flop/B on henri)",
                crossover.map(|x| (2.0..14.0).contains(&x)).unwrap_or(false),
                format!("90 %-recovery crossover at {:?} flop/B", crossover),
            ),
        ];

        vec![
            FigureData {
                id: "fig7a",
                title: "Memory pressure (tunable intensity) vs network latency (henri)".into(),
                xlabel: "arithmetic intensity (flop/B)",
                ylabel: "us / ms",
                series: vec![lat_alone, lat_tog, t_alone.clone(), t_tog.clone()],
                notes: vec![format!(
                    "paper: boundary ≈ {} flop/B on henri ({} on billy); latency doubles below it",
                    paper::FIG7_HENRI_BOUNDARY,
                    paper::FIG7_BILLY_BOUNDARY
                )],
                checks: checks_a,
                runs: Vec::new(),
            },
            FigureData {
                id: "fig7b",
                title: "Memory pressure (tunable intensity) vs network bandwidth (henri)".into(),
                xlabel: "arithmetic intensity (flop/B)",
                ylabel: "B/s / ms",
                series: vec![bw_alone, bw_tog, t_alone, t_tog],
                notes: vec![format!(
                    "paper: bandwidth drops ~{:.0} % and compute slows ~{:.0} % below the boundary",
                    paper::FIG7_BW_DROP * 100.0,
                    paper::FIG7_COMPUTE_SLOWDOWN * 100.0
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
    fn fig7_quick_passes_checks() {
        let figs = quick(&Fig7);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            for c in &f.checks {
                assert!(c.pass, "{}: {} — {}", f.id, c.name, c.detail);
            }
        }
    }
}
