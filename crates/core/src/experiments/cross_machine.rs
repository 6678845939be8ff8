//! Cross-machine validation (§2.2, §4.2, §4.5 notes).
//!
//! The paper states that "results are generally similar on all tested
//! clusters" and calls out the differences we must also reproduce:
//!
//! * **bora** (Omni-Path): bandwidth impacted *later* (from ~20 computing
//!   cores) and with a wide run-to-run deviation;
//! * **billy** (EPYC): the memory/CPU-bound boundary sits at ~20 flop/B and
//!   the network bandwidth only recovers above ~70 flop/B;
//! * **pyxis** (ThunderX2): contention results similar to henri.

use kernels::stream::{workload, StreamKernel};
use kernels::tunable;
use mpisim::pingpong::PingPongConfig;
use simcore::Series;
use topology::{MachineSpec, Placement, Preset};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::protocol::{self, ProtocolConfig};
use crate::report::{Check, FigureData};

/// The two billy arithmetic intensities probed (paper boundary straddle).
const BILLY_AIS: [f64; 2] = [20.0, 70.0];

/// Bandwidth-contention summary for one machine: (alone median, together
/// median, relative run-to-run band).
#[derive(Clone, Copy)]
struct MachinePoint(f64, f64, f64);

/// Tunable-intensity recovery ratio (together/alone bandwidth) at one AI.
#[derive(Clone, Copy)]
struct RatioPoint(f64);

fn contention_point(
    machine: &MachineSpec,
    cores: usize,
    fidelity: Fidelity,
    seed: u64,
) -> Result<MachinePoint, String> {
    let data = machine.near_numa();
    let w = workload(StreamKernel::Triad, 2_000_000, data, 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = cores;
    cfg.pingpong = PingPongConfig {
        size: 64 << 20,
        reps: fidelity.bw_reps(),
        warmup: 1,
        mtag: 8,
    };
    cfg.reps = fidelity.reps().max(5); // need a few reps for the band width
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    let alone = simcore::Summary::of(&r.bw_alone());
    let tog = simcore::Summary::of(&r.bw_together());
    Ok(MachinePoint(alone.median, tog.median, alone.band_rel()))
}

fn intensity_ratio(
    machine: &MachineSpec,
    ai: f64,
    fidelity: Fidelity,
    seed: u64,
) -> Result<RatioPoint, String> {
    let cursor = tunable::cursor_for_intensity(ai);
    let w = tunable::workload(1_000_000, cursor, machine.near_numa(), 1);
    let cores = machine.core_count() as usize - 1;
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = cores;
    cfg.pingpong = PingPongConfig {
        size: 64 << 20,
        reps: fidelity.bw_reps(),
        warmup: 1,
        mtag: 9,
    };
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(RatioPoint(
        simcore::Summary::of(&r.bw_together()).median / simcore::Summary::of(&r.bw_alone()).median,
    ))
}

/// Registry driver for the cross-machine validation (4 cluster contention
/// points + 2 billy intensity points).
pub struct CrossMachine;

impl Experiment for CrossMachine {
    fn name(&self) -> &'static str {
        "cross_machine"
    }

    fn anchor(&self) -> &'static str {
        "§2.2/§4.2/§4.5 cross-cluster notes"
    }

    fn plan(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut plan: Vec<SweepPoint> = Preset::clusters()
            .iter()
            .enumerate()
            .map(|(i, preset)| SweepPoint::new(i, format!("contention on {}", preset.spec().name)))
            .collect();
        for (i, &ai) in BILLY_AIS.iter().enumerate() {
            plan.push(SweepPoint::new(
                Preset::clusters().len() + i,
                format!("billy intensity {} flop/B", ai),
            ));
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let clusters = Preset::clusters();
        if point.index < clusters.len() {
            let m = clusters[point.index].spec();
            let cores = m.core_count() as usize - 1;
            let p = contention_point(&m, cores, ctx.fidelity, ctx.seed)?;
            Ok(Box::new(p))
        } else {
            let ai = BILLY_AIS[point.index - clusters.len()];
            let billy = Preset::Billy.spec();
            let p = intensity_ratio(&billy, ai, ctx.fidelity, ctx.seed)?;
            Ok(Box::new(p))
        }
    }

    fn finalize(&self, _fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let clusters = Preset::clusters();
        let mut s_loss = Series::new("bandwidth loss at full occupancy (%)");
        let mut s_band = Series::new("run-to-run bandwidth band (d9-d1)/median (%)");
        let mut notes = Vec::new();
        let mut machines = Vec::new();
        for (i, preset) in clusters.iter().enumerate() {
            let m = preset.spec();
            let cores = m.core_count() as usize - 1;
            let MachinePoint(alone, tog, band) = *expect_value::<MachinePoint>(points, i);
            let loss = (1.0 - tog / alone) * 100.0;
            s_loss.push(i as f64, &[loss]);
            s_band.push(i as f64, &[band * 100.0]);
            notes.push(format!(
                "{}: {:.1} → {:.1} GB/s at {} cores (−{:.0} %), band {:.1} %",
                m.name,
                alone / 1e9,
                tog / 1e9,
                cores,
                loss,
                band * 100.0
            ));
            machines.push((m.name.clone(), loss, band));
        }

        // billy's intensity boundary (paper: recovered only above ~70
        // flop/B, still impacted at 20).
        let RatioPoint(at20) = *expect_value::<RatioPoint>(points, clusters.len());
        let RatioPoint(at70) = *expect_value::<RatioPoint>(points, clusters.len() + 1);
        notes.push(format!(
            "billy tunable intensity: together/alone = {:.2} at 20 flop/B, {:.2} at 70 flop/B",
            at20, at70
        ));

        let henri_loss = machines[0].1;
        let bora_band = machines[1].2;
        let henri_band = machines[0].2;
        let checks = vec![
            Check::new(
                "all four clusters lose bandwidth under full memory contention",
                machines.iter().all(|(_, loss, _)| *loss > 30.0),
                format!(
                    "losses: {:?} %",
                    machines
                        .iter()
                        .map(|(_, l, _)| l.round())
                        .collect::<Vec<_>>()
                ),
            ),
            Check::new(
                "pyxis behaves like henri (paper: 'similar results')",
                (machines[3].1 - henri_loss).abs() < 30.0,
                format!("pyxis {:.0} % vs henri {:.0} %", machines[3].1, henri_loss),
            ),
            Check::new(
                "bora (Omni-Path) shows the wide bandwidth deviation",
                bora_band > henri_band * 3.0,
                format!(
                    "bora band {:.1} % vs henri {:.1} %",
                    bora_band * 100.0,
                    henri_band * 100.0
                ),
            ),
            Check::new(
                "billy still impacted at 20 flop/B, recovered by 70 (paper boundary)",
                at20 < 0.8 && at70 > 0.85,
                format!("ratio {:.2} at 20 flop/B, {:.2} at 70", at20, at70),
            ),
        ];

        vec![FigureData {
            id: "cross-machine",
            title: "Cross-cluster validation: contention on henri/bora/billy/pyxis".into(),
            xlabel: "machine (0=henri 1=bora 2=billy 3=pyxis)",
            ylabel: "%",
            series: vec![s_loss, s_band],
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
    fn cross_machine_quick_passes_checks() {
        let f = quick(&CrossMachine).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series[0].points.len(), 4);
        // The band check quotes the band series' bora and henri points,
        // both in percent.
        let band = &f.series[1].points;
        let check = f
            .checks
            .iter()
            .find(|c| c.name == "bora (Omni-Path) shows the wide bandwidth deviation")
            .expect("band check");
        assert_eq!(
            check.detail,
            format!(
                "bora band {:.1} % vs henri {:.1} %",
                band[1].y.median, band[0].y.median
            )
        );
    }
}
