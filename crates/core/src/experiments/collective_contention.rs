//! Collective × memory-contention extension — the paper's §4 contention
//! protocol lifted from a two-rank ping-pong to N-rank collectives over
//! routed fabrics.
//!
//! Each sweep point runs one collective schedule (ring allreduce, binomial
//! tree allreduce or pairwise alltoall) on a fabric preset (switch, torus,
//! dragonfly) while `bg` cores *per node* run an endless STREAM triad on
//! the NIC-near NUMA node — the same node the communication buffers live
//! on, so DMA/PIO and the triad share a memory controller exactly as in
//! Figure 4. Two cluster scales are probed: 8 henri ranks (rendezvous-sized
//! messages) and 64 tiny2x2 ranks (the routed-fabric stress case).
//!
//! The world is pinned and jitter-free (userspace governor at base
//! frequency, uncore fixed at its maximum) so a point's value is a pure
//! function of its configuration: the campaign JSON is byte-identical at
//! any `--jobs` level and on either matcher, which
//! `tests/collective_equiv.rs` asserts. The STREAM-alone baseline is
//! memoized per (scale, core count) in the campaign's [`BaselineCache`]
//! and shared by every fabric preset and algorithm.
//!
//! [`BaselineCache`]: crate::campaign::BaselineCache

use kernels::stream::{workload, StreamKernel};

use freq::{Governor, UncorePolicy};
use std::sync::Arc;

use mpisim::collective::{self, Algorithm, Schedule};
use mpisim::Cluster;
use simcore::{Series, SimTime};
use topology::fabric::FabricPreset;
use topology::{henri, tiny2x2, BindingPolicy, MachineSpec, Placement};

use super::Fidelity;
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::report::{Check, FigureData};

/// Simulated-time window of the STREAM-alone baseline measurement (400 µs
/// in engine picoseconds).
const ALONE_WINDOW: SimTime = SimTime(400_000_000);

/// The two cluster scales of the study.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 8 ranks of the paper's reference machine (rendezvous messages).
    Henri8,
    /// 64 ranks of the tiny test machine (routed-fabric stress).
    Tiny64,
}

impl Scale {
    /// Rank count of the scale.
    pub fn ranks(self) -> usize {
        match self {
            Scale::Henri8 => 8,
            Scale::Tiny64 => 64,
        }
    }

    /// Machine model of each rank.
    pub fn machine(self) -> MachineSpec {
        match self {
            Scale::Henri8 => henri(),
            Scale::Tiny64 => tiny2x2(),
        }
    }

    /// Background STREAM cores per node at the contended point. On henri
    /// the count matters: the NIC DMA engine carries twice a core's
    /// max-min weight, so its share of the 45 GB/s NIC-NUMA controller
    /// only drops below the 10.8 GB/s DMA ceiling once 7+ triad cores
    /// compete (45·2/(2+k) < 10.8 ⇒ k ≥ 7); all 8 NIC-NUMA compute cores
    /// are used so rendezvous collectives are genuinely throttled.
    fn bg_cores(self) -> usize {
        match self {
            Scale::Henri8 => 8,
            Scale::Tiny64 => 2,
        }
    }

    /// STREAM array length per pass (sized to the machine's caches).
    fn stream_elems(self) -> usize {
        match self {
            Scale::Henri8 => 2_000_000,
            Scale::Tiny64 => 200_000,
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Scale::Henri8 => "henri x 8",
            Scale::Tiny64 => "tiny2x2 x 64",
        }
    }
}

/// The collective algorithms probed per scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Alg {
    /// Ring allreduce (reduce-scatter + allgather).
    Ring,
    /// Binomial-tree allreduce (reduce + bcast).
    Tree,
    /// Pairwise-exchange alltoall.
    Alltoall,
}

impl Alg {
    fn label(self) -> &'static str {
        match self {
            Alg::Ring => "ring allreduce",
            Alg::Tree => "tree allreduce",
            Alg::Alltoall => "pairwise alltoall",
        }
    }

    /// The schedule of the algorithm at a scale. Payloads put henri in the
    /// rendezvous regime (DMA vs STREAM on the memory controller) and keep
    /// the 64-rank cases cheap: the ring chunks are eager, the tree
    /// payload is a single rendezvous message per edge.
    fn schedule(self, scale: Scale) -> Arc<Schedule> {
        let n = scale.ranks();
        match (self, scale) {
            (Alg::Ring, Scale::Henri8) => collective::cached(Algorithm::RingAllreduce, n, 1 << 20),
            (Alg::Ring, Scale::Tiny64) => {
                collective::cached(Algorithm::RingAllreduce, n, 256 << 10)
            }
            (Alg::Tree, _) => collective::cached(Algorithm::TreeAllreduce, n, 32 << 10),
            (Alg::Alltoall, _) => collective::cached(Algorithm::PairwiseAlltoall, n, 128 << 10),
        }
    }
}

/// One sweep configuration.
struct Cfg {
    scale: Scale,
    fabric: FabricPreset,
    alg: Alg,
    bg: usize,
}

/// Enumerate the sweep. Configurations come in (bg = 0, bg = max) pairs so
/// `finalize` can read slowdown ratios off adjacent indices. `Quick` keeps
/// one algorithm per scale on the switch fabric — still covering both the
/// 8-rank rendezvous and the 64-rank routed case the acceptance criteria
/// require.
fn configs(fidelity: Fidelity) -> Vec<Cfg> {
    let mut v = Vec::new();
    for scale in [Scale::Henri8, Scale::Tiny64] {
        let fabrics: &[FabricPreset] = match fidelity {
            Fidelity::Full => &FabricPreset::ALL,
            Fidelity::Quick => &[FabricPreset::Switch],
        };
        let algs: &[Alg] = match (fidelity, scale) {
            (Fidelity::Full, Scale::Henri8) => &[Alg::Ring, Alg::Alltoall],
            (Fidelity::Full, Scale::Tiny64) => &[Alg::Ring, Alg::Tree],
            (Fidelity::Quick, Scale::Henri8) => &[Alg::Ring],
            (Fidelity::Quick, Scale::Tiny64) => &[Alg::Tree],
        };
        for &fabric in fabrics {
            for &alg in algs {
                for bg in [0, scale.bg_cores()] {
                    v.push(Cfg {
                        scale,
                        fabric,
                        alg,
                        bg,
                    });
                }
            }
        }
    }
    v
}

/// The pinned, jitter-free world every point runs in.
fn cluster_for(scale: Scale, fabric: FabricPreset) -> Cluster {
    let spec = scale.machine();
    let n = scale.ranks();
    Cluster::with_fabric(
        &spec,
        fabric.spec(n).build_for(n),
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    )
}

/// Start `bg` endless STREAM triads per node, on the NIC-near NUMA node.
fn start_background(
    cluster: &mut Cluster,
    scale: Scale,
    bg: usize,
) -> Vec<(usize, memsim::exec::JobId)> {
    let mut jobs = Vec::new();
    if bg == 0 {
        return jobs;
    }
    let w = workload(
        StreamKernel::Triad,
        scale.stream_elems(),
        cluster.data_numa[0],
        1,
    );
    let cores = cluster.compute_cores();
    assert!(
        bg <= cores.len(),
        "more background cores than the machine has"
    );
    for node in 0..cluster.nodes() {
        for &core in &cores[..bg] {
            let mut spec = w.on_core(core);
            spec.iterations = u64::MAX / 2;
            jobs.push((node, cluster.start_job(node, spec)));
        }
    }
    jobs
}

/// Stop the background jobs; mean attained per-core bandwidth (B/s).
fn stop_background(cluster: &mut Cluster, jobs: Vec<(usize, memsim::exec::JobId)>) -> f64 {
    let mut bw = 0.0;
    let mut n = 0.0;
    for (node, id) in jobs {
        if let Some(st) = cluster.stop_job(node, id) {
            let el = st.elapsed_s();
            if el > 0.0 {
                bw += st.bytes / el;
                n += 1.0;
            }
        }
    }
    if n > 0.0 {
        bw / n
    } else {
        0.0
    }
}

/// One contention point: collective time (µs) and the STREAM bandwidth
/// attained beside it (0 when `bg == 0`).
struct CollPoint {
    coll_us: f64,
    stream_bw: f64,
    stream_alone_bw: f64,
}

fn measure(ctx: &PointCtx<'_>, cfg: &Cfg) -> Result<CollPoint, String> {
    // STREAM-alone baseline: fabric-independent (no communication runs),
    // so it is memoized once per (scale, core count) and shared by every
    // preset and algorithm of the sweep.
    let stream_alone_bw = if cfg.bg > 0 {
        let key = format!(
            "collective_contention/{}/bg{}/stream-alone",
            cfg.scale.tag(),
            cfg.bg
        );
        let scale = cfg.scale;
        let bg = cfg.bg;
        *ctx.baselines.get_or_compute_result(&key, |_seed| {
            let mut c = cluster_for(scale, FabricPreset::Switch);
            let jobs = start_background(&mut c, scale, bg);
            let deadline = c.engine.now() + ALONE_WINDOW;
            while c.step_until(deadline).is_some() {}
            Ok(stop_background(&mut c, jobs))
        })?
    } else {
        0.0
    };

    let mut c = cluster_for(cfg.scale, cfg.fabric);
    let jobs = start_background(&mut c, cfg.scale, cfg.bg);
    let schedule = cfg.alg.schedule(cfg.scale);
    let elapsed = collective::run(&mut c, &schedule, 100, 0x7000).map_err(|e| e.to_string())?;
    let stream_bw = stop_background(&mut c, jobs);
    Ok(CollPoint {
        coll_us: elapsed.as_secs_f64() * 1e6,
        stream_bw,
        stream_alone_bw,
    })
}

/// Registry driver for the collective × memory-contention sweep.
pub struct CollectiveContention;

impl Experiment for CollectiveContention {
    fn name(&self) -> &'static str {
        "collective_contention"
    }

    fn anchor(&self) -> &'static str {
        "N-rank extension of §4 (collectives vs memory contention)"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        configs(fidelity)
            .iter()
            .enumerate()
            .map(|(i, c)| {
                SweepPoint::new(
                    i,
                    format!(
                        "{} on {}, {} ({}), {} bg core(s)",
                        c.alg.label(),
                        c.fabric.name(),
                        c.scale.tag(),
                        c.scale.ranks(),
                        c.bg
                    ),
                )
            })
            .collect()
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let cfgs = configs(ctx.fidelity);
        let cfg = &cfgs[point.index];
        Ok(Box::new(measure(ctx, cfg)?))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let cfgs = configs(fidelity);
        let mut series = Vec::new();
        // (cfg index of the contended point, collective slowdown ratio).
        let mut ratios: Vec<(usize, f64)> = Vec::new();
        for (k, pair) in cfgs.chunks(2).enumerate() {
            let alone = expect_value::<CollPoint>(points, 2 * k);
            let contended = expect_value::<CollPoint>(points, 2 * k + 1);
            let c = &pair[0];
            let mut s = Series::new(format!(
                "{}, {} ({})",
                c.alg.label(),
                c.fabric.name(),
                c.scale.tag()
            ));
            s.push(0.0, &[alone.coll_us]);
            s.push(pair[1].bg as f64, &[contended.coll_us]);
            series.push(s);
            ratios.push((2 * k + 1, contended.coll_us / alone.coll_us));
        }

        let find = |scale: Scale, alg: Alg| {
            ratios
                .iter()
                .find(|(i, _)| {
                    let c = &cfgs[*i];
                    c.scale == scale && c.alg == alg && c.fabric == FabricPreset::Switch
                })
                .map(|&(_, r)| r)
                .expect("switch-fabric config present at every fidelity")
        };
        let henri_ring = find(Scale::Henri8, Alg::Ring);
        let tiny_tree = find(Scale::Tiny64, Alg::Tree);
        let worst_speedup = ratios.iter().map(|&(_, r)| r).fold(f64::MAX, f64::min);
        // STREAM degradation beside the collectives (contended points only).
        let stream_worst = ratios
            .iter()
            .map(|&(i, _)| {
                let p = expect_value::<CollPoint>(points, i);
                p.stream_bw / p.stream_alone_bw
            })
            .fold(0.0f64, f64::max);
        let henri_pt = ratios
            .iter()
            .map(|&(i, _)| (&cfgs[i], expect_value::<CollPoint>(points, i)))
            .find(|(c, _)| c.scale == Scale::Henri8 && c.alg == Alg::Ring)
            .map(|(_, p)| p.stream_bw / p.stream_alone_bw)
            .expect("henri ring config present");

        let checks = vec![
            Check::new(
                "background memory traffic never speeds a collective up",
                worst_speedup >= 0.999,
                format!("smallest contended/alone time ratio {:.4}", worst_speedup),
            ),
            Check::new(
                "memory contention slows the 8-rank rendezvous ring allreduce",
                henri_ring > 1.02,
                format!("henri x 8 switch ring slowdown {:.3}x", henri_ring),
            ),
            Check::new(
                "the 64-rank tree allreduce degrades under contention too",
                tiny_tree > 1.02,
                format!("tiny2x2 x 64 switch tree slowdown {:.3}x", tiny_tree),
            ),
            Check::new(
                "STREAM never gains bandwidth beside a collective",
                stream_worst <= 1.001 && stream_worst > 0.0,
                format!(
                    "largest beside/alone STREAM bandwidth ratio {:.4}",
                    stream_worst
                ),
            ),
            Check::new(
                "the rendezvous DMA visibly taxes the triad cores",
                henri_pt < 0.999,
                format!("henri x 8 ring: STREAM at {:.3}x of alone", henri_pt),
            ),
        ];

        vec![FigureData {
            id: "collective_contention",
            title: "Collective completion time vs per-node STREAM cores (routed fabrics)".into(),
            xlabel: "background STREAM cores per node",
            ylabel: "collective completion time (us)",
            series,
            notes: vec![
                "extension: the §4 contention protocol applied to N-rank collectives; the \
                 triad arrays live on the NIC-near NUMA node, so eager PIO and rendezvous \
                 DMA share its memory controller with the background cores"
                    .into(),
                "pinned, jitter-free world (userspace governor at base frequency, uncore \
                 fixed at max): every point is a pure function of its configuration"
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
    fn configs_pair_alone_with_contended() {
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            let cfgs = configs(fidelity);
            assert_eq!(cfgs.len() % 2, 0);
            for pair in cfgs.chunks(2) {
                assert_eq!(pair[0].bg, 0);
                assert!(pair[1].bg > 0);
                assert_eq!(pair[0].scale, pair[1].scale);
                assert_eq!(pair[0].fabric, pair[1].fabric);
                assert_eq!(pair[0].alg, pair[1].alg);
            }
            // Both acceptance scales are present even in Quick.
            assert!(cfgs.iter().any(|c| c.scale == Scale::Henri8));
            assert!(cfgs.iter().any(|c| c.scale == Scale::Tiny64));
        }
        assert_eq!(configs(Fidelity::Quick).len(), 4);
        assert_eq!(configs(Fidelity::Full).len(), 24);
    }

    #[test]
    fn collective_contention_quick_passes_checks() {
        let f = quick(&CollectiveContention).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 2);
    }
}
