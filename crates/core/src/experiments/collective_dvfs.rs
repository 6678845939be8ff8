//! Collective × DVFS extension — which collectives care about core
//! frequency?
//!
//! Figure 1 shows the paper's asymmetry for point-to-point traffic: eager
//! messages ride the communication core (PIO at ~4 B/cycle plus software
//! overhead in cycles), so their latency scales with core frequency, while
//! rendezvous messages ride the NIC's DMA engine and barely notice it.
//! This study lifts that asymmetry to collectives on the 8-rank switch
//! fabric: a 16 KiB binomial bcast (eager on henri, 64 KiB threshold)
//! against an 8 MiB ring allreduce (1 MiB chunks, rendezvous), swept over
//! the userspace core-frequency range with the uncore pinned at its
//! maximum so only the core clock moves.
//!
//! The world is pinned and jitter-free: a point's value is a pure function
//! of its configuration, so the campaign JSON is byte-identical at any
//! `--jobs` level (asserted by `tests/collective_equiv.rs`).

use freq::{Governor, UncorePolicy};
use std::sync::Arc;

use mpisim::collective::{self, Algorithm, Schedule};
use mpisim::Cluster;
use simcore::Series;
use topology::fabric::FabricPreset;
use topology::{henri, BindingPolicy, Placement};

use super::Fidelity;
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::report::{Check, FigureData};

/// Rank count (matches the simcheck collective oracles).
const NODES: usize = 8;

/// Eager payload: well under henri's 64 KiB threshold.
const BCAST_SIZE: usize = 16 << 10;

/// Rendezvous payload: 1 MiB chunks after the ring's reduce-scatter split.
const ALLREDUCE_SIZE: usize = 8 << 20;

/// Core-frequency sweep (GHz); `Quick` keeps the endpoints the checks
/// compare.
fn freqs(fidelity: Fidelity) -> Vec<f64> {
    fidelity.pick(&[1.0, 1.5, 2.3], &[1.0, 2.3])
}

/// The two schedules, in plan order.
const ALGS: [&str; 2] = ["binomial bcast 16 KiB", "ring allreduce 8 MiB"];

fn schedule(alg: usize) -> Arc<Schedule> {
    match alg {
        0 => collective::cached(Algorithm::BinomialBcast, NODES, BCAST_SIZE),
        _ => collective::cached(Algorithm::RingAllreduce, NODES, ALLREDUCE_SIZE),
    }
}

/// Completion time (µs) of one schedule at one core frequency, on a
/// pinned, jitter-free 8-rank switch cluster.
fn measure(freq_ghz: f64, alg: usize) -> Result<f64, String> {
    let spec = henri();
    let mut c = Cluster::with_fabric(
        &spec,
        FabricPreset::Switch.spec(NODES).build_for(NODES),
        Governor::Userspace(freq_ghz),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    );
    let elapsed =
        collective::run(&mut c, &schedule(alg), 100, 0x8000).map_err(|e| e.to_string())?;
    Ok(elapsed.as_secs_f64() * 1e6)
}

/// One point: completion time in µs.
struct DvfsPoint(f64);

/// Registry driver for the collective × DVFS sweep.
pub struct CollectiveDvfs;

impl Experiment for CollectiveDvfs {
    fn name(&self) -> &'static str {
        "collective_dvfs"
    }

    fn anchor(&self) -> &'static str {
        "N-rank extension of §3.1/Figure 1 (collectives vs core frequency)"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let freqs = freqs(fidelity);
        let mut plan = Vec::new();
        for (ai, alg) in ALGS.iter().enumerate() {
            for (fi, f) in freqs.iter().enumerate() {
                plan.push(SweepPoint::new(
                    ai * freqs.len() + fi,
                    format!("{} @ {} GHz", alg, f),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let freqs = freqs(ctx.fidelity);
        let alg = point.index / freqs.len();
        let f = freqs[point.index % freqs.len()];
        Ok(Box::new(DvfsPoint(measure(f, alg)?)))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        let p = value.downcast_ref::<DvfsPoint>()?;
        let mut e = Enc::new();
        e.f64(p.0);
        Some(e.into_bytes())
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        let mut d = Dec::new(bytes);
        let p = DvfsPoint(d.f64()?);
        d.finish(Box::new(p) as PointValue)
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let freqs = freqs(fidelity);
        let mut series = Vec::new();
        // times[alg][freq index]
        let mut times = [Vec::new(), Vec::new()];
        for (ai, alg) in ALGS.iter().enumerate() {
            let mut s = Series::new(*alg);
            for (fi, &f) in freqs.iter().enumerate() {
                let t = expect_value::<DvfsPoint>(points, ai * freqs.len() + fi).0;
                s.push(f, &[t]);
                times[ai].push(t);
            }
            series.push(s);
        }
        let bcast_ratio = times[0][0] / *times[0].last().expect("non-empty sweep");
        let ring_ratio = times[1][0] / *times[1].last().expect("non-empty sweep");
        let bcast_monotone = times[0].windows(2).all(|w| w[0] >= w[1] * 0.999);

        let checks = vec![
            Check::new(
                "eager bcast slows substantially at low core frequency (PIO + cycle overheads)",
                bcast_ratio >= 1.3,
                format!(
                    "bcast t({} GHz) / t({} GHz) = {:.2}",
                    freqs[0],
                    freqs.last().expect("non-empty"),
                    bcast_ratio
                ),
            ),
            Check::new(
                "rendezvous ring allreduce barely notices core frequency (DMA path)",
                ring_ratio <= 1.15,
                format!(
                    "allreduce slowdown at min frequency only {:.3}x",
                    ring_ratio
                ),
            ),
            Check::new(
                "eager bcast time falls monotonically with core frequency",
                bcast_monotone,
                format!("times across the sweep: {:?} us", times[0]),
            ),
            Check::new(
                "frequency sensitivity is the eager path's, not the DMA path's",
                bcast_ratio > ring_ratio,
                format!(
                    "bcast ratio {:.2} vs allreduce ratio {:.2}",
                    bcast_ratio, ring_ratio
                ),
            ),
        ];

        vec![FigureData {
            id: "collective_dvfs",
            title: "Collective completion time vs core frequency (8 henri ranks, switch)".into(),
            xlabel: "core frequency (GHz)",
            ylabel: "collective completion time (us)",
            series,
            notes: vec![
                "extension of Figure 1's eager/rendezvous asymmetry to collectives: the \
                 eager binomial bcast pays PIO and software overhead in core cycles, the \
                 rendezvous ring allreduce rides the NIC DMA engine"
                    .into(),
                "uncore pinned at its maximum so only the core clock moves".into(),
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
    fn collective_dvfs_quick_passes_checks() {
        let f = quick(&CollectiveDvfs).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 2);
        assert_eq!(
            f.series[0].points.len(),
            2,
            "Quick sweeps the two endpoint frequencies"
        );
    }
}
