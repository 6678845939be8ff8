//! Figure 9 — impact of worker polling on network latency (§5.4).
//!
//! Workers busy-wait on the shared task list with an exponential nop
//! backoff. A ping-pong runs with *no tasks submitted*, so workers poll
//! constantly. Latency is measured for the paper's four configurations:
//! aggressive backoff (2 nops), StarPU default (32), huge backoff (10000 —
//! equivalent to paused) and fully paused workers.

use mpisim::pingpong::PingPongConfig;
use simcore::{JitterFamily, Series};
use taskrt::{pingpong as rt_pingpong, Runtime, RuntimeConfig};
use topology::{henri, BindingPolicy, Placement};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::protocol::{build_cluster, ProtocolConfig};
use crate::report::{Check, FigureData};

/// The four polling configurations (`None` = paused workers).
const CONFIGS: [Option<u32>; 4] = [Some(2), Some(32), Some(10_000), None];

fn config_name(backoff: Option<u32>) -> String {
    match backoff {
        Some(b) => format!("backoff {} nops", b),
        None => "paused workers".to_string(),
    }
}

/// The size sweep of Figure 9 (latency region: 4 B – 64 KiB).
fn sizes(fidelity: Fidelity) -> Vec<usize> {
    fidelity.thin(&[4usize, 64, 1024, 4 * 1024, 16 * 1024, 64 * 1024])
}

/// Per-rep latencies of one (polling config, size) point.
struct Fig9Point {
    lats: Vec<f64>,
}

/// Registry driver for Figure 9 (sweep: 4 polling configs × sizes).
pub struct Fig9;

impl Experiment for Fig9 {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn anchor(&self) -> &'static str {
        "§5.4, Figure 9"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let sizes = sizes(fidelity);
        let mut plan = Vec::new();
        for (bi, &backoff) in CONFIGS.iter().enumerate() {
            for (si, &size) in sizes.iter().enumerate() {
                plan.push(SweepPoint::new(
                    bi * sizes.len() + si,
                    format!("{} @ {} B", config_name(backoff), size),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let sizes = sizes(ctx.fidelity);
        let backoff = CONFIGS[point.index / sizes.len()];
        let size = sizes[point.index % sizes.len()];
        let machine = henri();
        let mut lats = Vec::new();
        for rep in 0..ctx.fidelity.reps() {
            let mut cfg = ProtocolConfig::new(machine.clone(), None);
            cfg.placement = Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            };
            cfg.seed = ctx.seed.wrapping_add(rep as u64);
            let family = JitterFamily::new(cfg.seed);
            let mut cluster = build_cluster(&cfg, &family, rep as u64);
            let mut rt_cfg = RuntimeConfig::for_machine(&machine);
            if let Some(b) = backoff {
                rt_cfg.backoff_max_nops = b;
            }
            let mut rt = Runtime::new(rt_cfg);
            let cores = cluster.compute_cores();
            rt.attach_workers(&mut cluster, 0, &cores.clone());
            rt.attach_workers(&mut cluster, 1, &cores);
            if backoff.is_none() {
                rt.pause_workers(&mut cluster, 0);
                rt.pause_workers(&mut cluster, 1);
            }
            let res = rt_pingpong::run(
                &mut cluster,
                &mut rt,
                PingPongConfig {
                    size,
                    reps: ctx.fidelity.lat_reps(),
                    warmup: 1,
                    mtag: 6,
                },
            );
            lats.push(res.median_latency_us());
        }
        Ok(Box::new(Fig9Point { lats }))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let sizes = sizes(fidelity);
        let series: Vec<Series> = CONFIGS
            .iter()
            .enumerate()
            .map(|(bi, &backoff)| {
                let mut s = Series::new(config_name(backoff));
                for (si, &size) in sizes.iter().enumerate() {
                    let p = expect_value::<Fig9Point>(points, bi * sizes.len() + si);
                    s.push(size as f64, &p.lats);
                }
                s
            })
            .collect();

        let at_small = |s: &Series| s.points[0].y.median;
        let l2 = at_small(&series[0]);
        let l32 = at_small(&series[1]);
        let l10k = at_small(&series[2]);
        let lp = at_small(&series[3]);

        let checks = vec![
            Check::new(
                "latency grows with polling aggressiveness (2 > 32 > 10000)",
                l2 > l32 && l32 > l10k,
                format!("{:.1} / {:.1} / {:.1} µs", l2, l32, l10k),
            ),
            Check::new(
                "huge backoff ≈ paused workers",
                (l10k - lp).abs() / lp < 0.05,
                format!("{:.1} vs {:.1} µs", l10k, lp),
            ),
            Check::new(
                "aggressive polling adds a visible penalty over paused",
                l2 > lp * 1.02,
                format!("+{:.2} µs ({:.1} %)", l2 - lp, (l2 / lp - 1.0) * 100.0),
            ),
        ];

        vec![FigureData {
            id: "fig9",
            title: "Impact of polling workers on network latency (henri)".into(),
            xlabel: "message size (B)",
            ylabel: "latency (us)",
            series,
            notes: vec![
                "paper: latency higher the more often workers poll; long backoff equals paused; \
                 no effect on billy/pyxis (different locking)"
                    .into(),
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
    fn fig9_quick_passes_checks() {
        let f = quick(&Fig9).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 4);
    }
}
