//! Figure 8 — impact of data locality and thread placement on network
//! latency with the task runtime (§5.2, §5.3).
//!
//! Messages routed through the StarPU-like runtime pay a software-stack
//! overhead (+38 µs on henri, +23 µs on billy, +45 µs on pyxis) on top of
//! the raw MPI latency; additionally, the *co-location of the payload and
//! the communication thread* dominates the remaining variation ("close"
//! and "far" relative to the NIC).

use mpisim::pingpong::{self, PingPongConfig};
use simcore::{JitterFamily, Series, Summary};
use taskrt::{pingpong as rt_pingpong, Runtime, RuntimeConfig};
use topology::{BindingPolicy, Placement, Preset};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::experiments::Fidelity;
use crate::paper;
use crate::protocol::{build_cluster, ProtocolConfig};
use crate::report::{Check, FigureData};

const COMBOS: [(&str, BindingPolicy, BindingPolicy); 4] = [
    (
        "data close, thread close",
        BindingPolicy::NearNic,
        BindingPolicy::NearNic,
    ),
    (
        "data close, thread far",
        BindingPolicy::NearNic,
        BindingPolicy::FarFromNic,
    ),
    (
        "data far, thread close",
        BindingPolicy::FarFromNic,
        BindingPolicy::NearNic,
    ),
    (
        "data far, thread far",
        BindingPolicy::FarFromNic,
        BindingPolicy::FarFromNic,
    ),
];

const MACHINES: [(Preset, f64); 3] = [
    (Preset::Henri, paper::FIG8_OVERHEAD_HENRI_US),
    (Preset::Billy, paper::FIG8_OVERHEAD_BILLY_US),
    (Preset::Pyxis, paper::FIG8_OVERHEAD_PYXIS_US),
];

/// Runtime and plain-MPI latencies of one placement, one entry per rep.
struct Fig8Point {
    rt_lat: Vec<f64>,
    plain_lat: Vec<f64>,
}

/// Latency through the runtime for one placement, plus the plain-MPI
/// baseline.
fn measure(
    machine: &topology::MachineSpec,
    placement: Placement,
    fidelity: Fidelity,
    seed: u64,
) -> Fig8Point {
    let mut rt_lat = Vec::new();
    let mut plain_lat = Vec::new();
    for rep in 0..fidelity.reps() {
        let mut cfg = ProtocolConfig::new(machine.clone(), None);
        cfg.placement = placement;
        cfg.seed = seed.wrapping_add(rep as u64);
        let family = JitterFamily::new(cfg.seed);
        let mut cluster = build_cluster(&cfg, &family, rep as u64);
        let pp = PingPongConfig::latency(fidelity.lat_reps());
        plain_lat.push(pingpong::run(&mut cluster, pp).median_latency_us());
        let mut rt = Runtime::new(RuntimeConfig::for_machine(machine));
        rt_lat.push(rt_pingpong::run(&mut cluster, &mut rt, pp).median_latency_us());
    }
    Fig8Point { rt_lat, plain_lat }
}

/// Registry driver for Figure 8 (4 henri placements + 3 per-machine
/// overhead points).
pub struct Fig8;

impl Experiment for Fig8 {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn anchor(&self) -> &'static str {
        "§5.2/§5.3, Figure 8"
    }

    fn plan(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut plan: Vec<SweepPoint> = COMBOS
            .iter()
            .enumerate()
            .map(|(i, (label, _, _))| SweepPoint::new(i, *label))
            .collect();
        for (i, (preset, _)) in MACHINES.iter().enumerate() {
            plan.push(SweepPoint::new(
                COMBOS.len() + i,
                format!("overhead on {}", preset.spec().name),
            ));
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        if point.index < COMBOS.len() {
            let (_, data, thread) = COMBOS[point.index];
            let placement = Placement {
                comm_thread: thread,
                data,
            };
            let machine = topology::henri();
            Ok(Box::new(measure(
                &machine,
                placement,
                ctx.fidelity,
                ctx.seed,
            )))
        } else {
            // Cross-machine overheads (the §5.2 point values); Quick
            // repetitions suffice for a point estimate on every fidelity.
            let (preset, _) = MACHINES[point.index - COMBOS.len()];
            let m = preset.spec();
            let placement = Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            };
            Ok(Box::new(measure(&m, placement, Fidelity::Quick, ctx.seed)))
        }
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let p = value.downcast_ref::<Fig8Point>()?;
        let mut e = Enc::new();
        e.f64s(&p.rt_lat).f64s(&p.plain_lat);
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        let p = Fig8Point {
            rt_lat: d.f64s()?,
            plain_lat: d.f64s()?,
        };
        d.finish(Box::new(p) as PointValue)
    }

    fn finalize(&self, _fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let mut s_rt = Series::new("latency through StarPU-like runtime (us)");
        let mut s_plain = Series::new("plain MPI latency (us)");
        let mut medians = Vec::new();
        let mut notes = vec![format!(
            "paper overheads: henri +{} µs, billy +{} µs, pyxis +{} µs",
            paper::FIG8_OVERHEAD_HENRI_US,
            paper::FIG8_OVERHEAD_BILLY_US,
            paper::FIG8_OVERHEAD_PYXIS_US
        )];
        for (i, (label, _, _)) in COMBOS.iter().enumerate() {
            let p = expect_value::<Fig8Point>(points, i);
            let rt_med = Summary::of(&p.rt_lat).median;
            let plain_med = Summary::of(&p.plain_lat).median;
            s_rt.push(i as f64, &p.rt_lat);
            s_plain.push(i as f64, &p.plain_lat);
            medians.push((label, rt_med, plain_med));
            notes.push(format!(
                "{}: runtime {:.1} µs vs plain {:.1} µs",
                label, rt_med, plain_med
            ));
        }

        let mut overhead_ok = true;
        for (i, (preset, expect)) in MACHINES.iter().enumerate() {
            let p = expect_value::<Fig8Point>(points, COMBOS.len() + i);
            let overhead = Summary::of(&p.rt_lat).median - Summary::of(&p.plain_lat).median;
            overhead_ok &= (overhead - expect).abs() / expect < 0.4;
            notes.push(format!(
                "{}: measured overhead {:.1} µs (paper {:.0} µs)",
                preset.spec().name,
                overhead,
                expect
            ));
        }

        let colocated_best = medians[0].1.min(medians[3].1);
        let split_worst = medians[1].1.max(medians[2].1);
        let henri_overhead = medians[0].1 - medians[0].2;
        let checks = vec![
            Check::new(
                "runtime adds paper-scale latency overhead on henri (+38 µs)",
                (paper::FIG8_OVERHEAD_HENRI_US * 0.6..paper::FIG8_OVERHEAD_HENRI_US * 1.4)
                    .contains(&henri_overhead),
                format!("measured +{:.1} µs", henri_overhead),
            ),
            Check::new(
                "data/thread co-location matters most (same NUMA beats split)",
                colocated_best < split_worst,
                format!(
                    "best co-located {:.1} µs vs worst split {:.1} µs",
                    colocated_best, split_worst
                ),
            ),
            Check::new(
                "per-machine overheads track the paper (henri/billy/pyxis)",
                overhead_ok,
                "see notes for the three machines".to_string(),
            ),
        ];

        vec![FigureData {
            id: "fig8",
            title: "Task-runtime latency overhead by data/thread placement".into(),
            xlabel: "placement (0 cc, 1 cf, 2 fc, 3 ff)",
            ylabel: "latency (us)",
            series: vec![s_rt, s_plain],
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
    fn fig8_quick_passes_checks() {
        let f = quick(&Fig8).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].points.len(), 4);
    }
}
