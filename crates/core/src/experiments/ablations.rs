//! Ablations of the interference model's own design choices (the
//! DESIGN.md extensions): each ablation disables or sweeps one mechanism
//! and shows which measured effect it is responsible for.
//!
//! * **congestion latency model** — without the congestion-dependent
//!   control-path inflation, the Figure 4a latency curve goes flat: fluid
//!   bandwidth sharing alone cannot explain small-message latency under
//!   contention;
//! * **package-idle penalty** — without it, latency is no longer *better*
//!   beside computation (the §3.2/§3.3 counter-intuitive finding vanishes);
//! * **NIC DMA arbitration weight** — the Figure 4b bandwidth floor is set
//!   by how aggressively the NIC competes for the memory controller;
//! * **registration cache** — reusing ping-pong buffers (as the paper does,
//!   citing the pin-down cache) hides the rendezvous pinning cost.

use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::{self, PingPongConfig};
use simcore::{JitterFamily, Series, Summary};
use topology::{henri, MachineSpec, Placement};

use crate::campaign::{
    self, expect_value, point_seed, Experiment, PointCtx, PointValue, SweepPoint,
};
use crate::codec::{Dec, Enc};
use crate::experiments::Fidelity;
use crate::protocol::{self, ProtocolConfig};
use crate::report::{Check, FigureData};

/// NIC DMA arbitration weights swept by ablation 3.
const NIC_WEIGHTS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

/// A single scalar ablation measurement.
#[derive(Clone, Copy)]
struct Scalar(f64);

/// Registration-cache measurement: (first-use µs, cached µs).
#[derive(Clone, Copy)]
struct Registration(f64, f64);

/// Latency inflation at full STREAM occupancy for a machine variant.
fn latency_inflation(machine: &MachineSpec, fidelity: Fidelity, seed: u64) -> Result<f64, String> {
    let w = workload(StreamKernel::Triad, 2_000_000, machine.near_numa(), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = machine.core_count() as usize - 1;
    cfg.pingpong = PingPongConfig::latency(fidelity.lat_reps());
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(Summary::of(&r.lat_together()).median / Summary::of(&r.lat_alone()).median)
}

/// Bandwidth retained at full STREAM occupancy for a machine variant.
fn bandwidth_retained(machine: &MachineSpec, fidelity: Fidelity, seed: u64) -> Result<f64, String> {
    let w = workload(StreamKernel::Triad, 2_000_000, machine.near_numa(), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = machine.core_count() as usize - 1;
    cfg.pingpong = PingPongConfig {
        size: 64 << 20,
        reps: fidelity.bw_reps(),
        warmup: 1,
        mtag: 11,
    };
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(Summary::of(&r.bw_together()).median / Summary::of(&r.bw_alone()).median)
}

/// Latency-alone minus latency-together (µs) under the Fig 2 setup.
fn fig2_delta(machine: &MachineSpec, fidelity: Fidelity, seed: u64) -> Result<f64, String> {
    let w = kernels::primes::workload(0, 30_000, 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
    cfg.compute_cores = 20;
    cfg.pingpong = PingPongConfig::latency(fidelity.lat_reps());
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    let r = protocol::try_run(&cfg).map_err(|e| e.to_string())?;
    Ok(Summary::of(&r.lat_alone()).median - Summary::of(&r.lat_together()).median)
}

/// First-use vs cached-buffer latency of a rendezvous-sized message, µs.
fn registration_effect(machine: &MachineSpec) -> Registration {
    let cfg = ProtocolConfig::new(machine.clone(), None);
    let family = JitterFamily::new(0xAB_4);
    let mut cluster = protocol::build_cluster(&cfg, &family, 0);
    // warmup 0: the first measured rep pays registration.
    let first = pingpong::run(
        &mut cluster,
        PingPongConfig {
            size: 4 << 20,
            reps: 1,
            warmup: 0,
            mtag: 12,
        },
    )
    .median_latency_us();
    let cached = pingpong::run(
        &mut cluster,
        PingPongConfig {
            size: 4 << 20,
            reps: 3,
            warmup: 0,
            mtag: 12,
        },
    )
    .median_latency_us();
    Registration(first, cached)
}

/// Registry driver for the model ablations (9 points: two on/off pairs, a
/// 4-value NIC-weight sweep and the registration-cache probe).
pub struct Ablations;

impl Experiment for Ablations {
    fn name(&self) -> &'static str {
        "ablations"
    }

    fn anchor(&self) -> &'static str {
        "DESIGN.md §6 model ablations"
    }

    fn plan(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut plan = vec![
            SweepPoint::new(0, "congestion model on"),
            SweepPoint::new(1, "congestion model off"),
            SweepPoint::new(2, "idle penalty on"),
            SweepPoint::new(3, "idle penalty off"),
        ];
        for (i, w) in NIC_WEIGHTS.iter().enumerate() {
            plan.push(SweepPoint::new(4 + i, format!("NIC DMA weight {}", w)));
        }
        plan.push(SweepPoint::new(8, "registration cache"));
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let base = henri();
        match point.index {
            // On/off pairs share the seed of the pair's first point so the
            // comparison stays paired (sampling noise cancels).
            0 | 1 => {
                let seed = point_seed(self.name(), 0);
                let machine = if point.index == 0 {
                    base
                } else {
                    let mut m = base.clone();
                    m.congestion_gain = 0.0;
                    m
                };
                Ok(Box::new(Scalar(latency_inflation(
                    &machine,
                    ctx.fidelity,
                    seed,
                )?)))
            }
            2 | 3 => {
                let seed = point_seed(self.name(), 2);
                let machine = if point.index == 2 {
                    base
                } else {
                    let mut m = base.clone();
                    m.idle_uncore_penalty_s = 0.0;
                    m
                };
                Ok(Box::new(Scalar(fig2_delta(&machine, ctx.fidelity, seed)?)))
            }
            4..=7 => {
                let mut m = base.clone();
                m.network.nic_dma_weight = NIC_WEIGHTS[point.index - 4];
                Ok(Box::new(Scalar(bandwidth_retained(
                    &m,
                    ctx.fidelity,
                    ctx.seed,
                )?)))
            }
            _ => Ok(Box::new(registration_effect(&base))),
        }
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let mut e = Enc::new();
        if let Some(p) = value.downcast_ref::<Scalar>() {
            e.u8(0).f64(p.0);
        } else if let Some(p) = value.downcast_ref::<Registration>() {
            e.u8(1).f64(p.0).f64(p.1);
        } else {
            return None;
        }
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        match d.u8()? {
            0 => {
                let p = Scalar(d.f64()?);
                d.finish(Box::new(p) as PointValue)
            }
            1 => {
                let p = Registration(d.f64()?, d.f64()?);
                d.finish(Box::new(p) as PointValue)
            }
            _ => None,
        }
    }

    fn finalize(&self, _fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let scalar = |i: usize| expect_value::<Scalar>(points, i).0;
        let infl_on = scalar(0);
        let infl_off = scalar(1);
        let delta_with = scalar(2);
        let delta_without = scalar(3);
        let retained: Vec<f64> = (4..8).map(scalar).collect();
        let Registration(first_us, cached_us) = *expect_value::<Registration>(points, 8);

        let mut s_weight = Series::new("bandwidth retained vs NIC DMA weight");
        for (i, w) in NIC_WEIGHTS.iter().enumerate() {
            s_weight.push(*w, &[retained[i]]);
        }
        let mut s_infl = Series::new("latency inflation: congestion model on/off");
        s_infl.push(0.0, &[infl_off]);
        s_infl.push(1.0, &[infl_on]);
        let mut s_idle = Series::new("latency delta alone-together (us): idle penalty on/off");
        s_idle.push(0.0, &[delta_without]);
        s_idle.push(1.0, &[delta_with]);
        let mut s_reg = Series::new("4 MiB send latency (us): first vs cached registration");
        s_reg.push(0.0, &[first_us]);
        s_reg.push(1.0, &[cached_us]);

        let checks = vec![
            Check::new(
                "congestion model is what inflates small-message latency",
                infl_on > 1.5 && infl_off < 1.2,
                format!(
                    "inflation ×{:.2} with model vs ×{:.2} without",
                    infl_on, infl_off
                ),
            ),
            Check::new(
                "idle penalty explains 'together beats alone'",
                delta_with > 0.05 && delta_without.abs() < 0.05,
                format!(
                    "alone-together delta {:.2} µs with penalty vs {:.2} µs without",
                    delta_with, delta_without
                ),
            ),
            Check::new(
                "NIC arbitration weight sets the bandwidth floor (monotone)",
                retained.windows(2).all(|w| w[1] >= w[0] - 1e-9) && retained[3] > retained[0] * 1.5,
                format!("retained fractions {:?}", retained),
            ),
            Check::new(
                "registration cache hides the pinning cost on reuse",
                first_us > cached_us * 1.2,
                format!("first {:.0} µs vs cached {:.0} µs", first_us, cached_us),
            ),
        ];

        vec![FigureData {
            id: "ablations",
            title: "Model ablations: which mechanism produces which measured effect".into(),
            xlabel: "variant",
            ylabel: "ratio / us",
            series: vec![s_infl, s_idle, s_weight, s_reg],
            notes: vec![
                "these are ablations of the simulator's design choices (DESIGN.md §6), not paper figures"
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
    fn ablations_quick_pass_checks() {
        let f = quick(&Ablations).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 4);
    }
}
