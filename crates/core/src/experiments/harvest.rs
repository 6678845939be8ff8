//! Training-pair harvest for the counter-driven interference predictor
//! (DESIGN.md §16; modelled on arXiv 2410.18126's counter-based slowdown
//! prediction).
//!
//! One *pair* is a (machine preset, placement, workload family, computing
//! cores, network metric) configuration run through the three-step
//! protocol. The harvest extracts:
//!
//! * a **feature vector** from the *alone* steps only — PMU-style telemetry
//!   counters (memory-channel bytes, stall residency, frequency-license
//!   phases, fluid reallocations, NIC DMA/PIO bytes, retransmits, MPI match
//!   probes) normalized per simulated second, plus configuration scalars —
//!   everything a scheduler could know **without** co-running the pair;
//! * the **ground-truth slowdowns** from the together step: the
//!   communication penalty (alone/together bandwidth, or together/alone
//!   latency) and the computation penalty (alone/together flop rate).
//!
//! Alone steps are memoized in the campaign [`BaselineCache`]: the
//! communication side is placement/metric-specific but core-count- and
//! family-independent, the computation side is metric-independent, so a
//! full grid shares most of its simulation work. Pairs serialize with
//! exact-bits codecs ([`crate::codec`]), so the harvest is the one
//! experiment the content-addressed result store caches
//! (`repro predict`/`rank-placements --store`); it is byte-stable at any
//! worker count.

use kernels::{gemm, stream, tunable, vecops, Workload};
use simcore::telemetry::{self, Journal};
use simcore::{Series, Summary};
use topology::presets::Preset;
use topology::{MachineSpec, Placement};

use crate::campaign::{self, Experiment, PointCtx, PointValue, SweepPoint};
use crate::codec::{Dec, Enc};
use crate::experiments::contention::{data_numa, Metric};
use crate::experiments::Fidelity;
use crate::protocol::{self, ProtocolConfig, StepMask, StepResults};
use crate::report::{Check, FigureData};

/// Workload families the predictor trains on. Each stresses a different
/// bottleneck: memory channels (STREAM triad, CG), the roofline knee
/// (tunable triad), compute/licensing (blocked GEMM tiles, AVX-512 burn).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// STREAM triad: memory-bound, AI ≈ 1/12.
    Stream,
    /// Tunable triad pinned near the roofline knee (AI ≈ 4).
    Tunable,
    /// Blocked GEMM tiles: compute-bound, AVX2 license.
    Gemm,
    /// Pure AVX-512 FMA burn: no memory traffic, heaviest license.
    Avx,
    /// Dense CG iteration: mixed gemv/axpy phase stream.
    Cg,
}

impl Family {
    /// Every family, in codec order.
    pub fn all() -> [Family; 5] {
        [
            Family::Stream,
            Family::Tunable,
            Family::Gemm,
            Family::Avx,
            Family::Cg,
        ]
    }

    /// Stable tag used in labels and cache keys.
    pub fn tag(self) -> &'static str {
        match self {
            Family::Stream => "stream",
            Family::Tunable => "tunable",
            Family::Gemm => "gemm",
            Family::Avx => "avx",
            Family::Cg => "cg",
        }
    }

    /// Parse a tag back to a family.
    pub fn from_tag(tag: &str) -> Option<Family> {
        Family::all().into_iter().find(|f| f.tag() == tag)
    }

    /// The family's per-core workload with data on the given NUMA node.
    pub fn workload(self, data: topology::NumaId) -> Workload {
        match self {
            Family::Stream => stream::workload(stream::StreamKernel::Triad, 2_000_000, data, 2),
            Family::Tunable => {
                tunable::workload(1_000_000, tunable::cursor_for_intensity(4.0), data, 2)
            }
            Family::Gemm => Workload {
                phases: vec![gemm::tile_phase(128, data)],
                iterations: 64,
                name: "gemm tiles",
            },
            Family::Avx => vecops::avx_workload(4.0e7, freq::License::Avx512, 16),
            Family::Cg => Workload {
                phases: kernels::cg::iteration_phases(1000, data),
                iterations: 16,
                name: "cg iteration",
            },
        }
    }
}

/// One grid configuration: the identity of a training pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PairSpec {
    /// Cluster preset.
    pub preset: Preset,
    /// Index into [`Placement::all_combinations`].
    pub placement: usize,
    /// Computation workload family.
    pub family: Family,
    /// Computing cores per node.
    pub cores: u32,
    /// Network metric of the communication side.
    pub metric: Metric,
}

/// Codec index of a preset (stable across releases; append only).
fn preset_index(p: Preset) -> u8 {
    match p {
        Preset::Henri => 0,
        Preset::Bora => 1,
        Preset::Billy => 2,
        Preset::Pyxis => 3,
        Preset::Tiny2x2 => 4,
    }
}

fn preset_from_index(i: u8) -> Option<Preset> {
    Some(match i {
        0 => Preset::Henri,
        1 => Preset::Bora,
        2 => Preset::Billy,
        3 => Preset::Pyxis,
        4 => Preset::Tiny2x2,
        _ => return None,
    })
}

impl PairSpec {
    /// Human-readable label, also used as the sweep-point label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/c{}/{}",
            self.preset.spec().name,
            Placement::all_combinations()[self.placement].0,
            self.family.tag(),
            self.cores,
            self.metric.tag()
        )
    }

    /// Deterministic content seed (independent of grid position), used by
    /// the advisor when measuring a pair outside a campaign.
    pub fn content_seed(&self) -> u64 {
        campaign::point_seed(&self.label(), 0)
    }
}

/// Computing-core counts harvested per machine.
pub fn core_counts(spec: &MachineSpec, fidelity: Fidelity) -> Vec<u32> {
    let total = spec.sockets * spec.numa_per_socket * spec.cores_per_numa;
    match fidelity {
        Fidelity::Full => vec![2, total / 6, total / 3, total / 2],
        Fidelity::Quick => vec![total / 6, total / 3],
    }
}

/// The full harvest grid at the given fidelity: every cluster preset ×
/// placement × family × core count × metric.
pub fn grid(fidelity: Fidelity) -> Vec<PairSpec> {
    let mut out = Vec::new();
    for preset in Preset::clusters() {
        let spec = preset.spec();
        for placement in 0..Placement::all_combinations().len() {
            for family in Family::all() {
                for &cores in &core_counts(&spec, fidelity) {
                    for metric in [Metric::Bandwidth, Metric::Latency] {
                        out.push(PairSpec {
                            preset,
                            placement,
                            family,
                            cores,
                            metric,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Feature names, in vector order. `cfg.*` are configuration scalars,
/// `comp.*` come from the computation-alone journal, `comm.*` from the
/// communication-alone journal; `*_per_s` counters are normalized per
/// simulated second of their step.
pub const FEATURES: &[&str] = &[
    "cfg.cores",
    "cfg.cores_frac",
    "cfg.log2_msg_bytes",
    "cfg.metric_is_lat",
    "cfg.data_near",
    "cfg.thread_near",
    "cfg.numa_nodes",
    "cfg.cores_per_numa",
    "cfg.core_bw_demand_frac",
    "cfg.intensity_norm",
    "cfg.license",
    "comp.mem_bytes_per_s",
    "comp.stall_ps_per_s",
    "comp.license_normal_per_s",
    "comp.license_avx2_per_s",
    "comp.license_avx512_per_s",
    "comp.freq_transitions_per_s",
    "comp.fluid_reallocs_per_s",
    "comp.engine_events_per_s",
    "comp.bw_alone",
    "comp.flops_alone",
    "comp.stall_frac_alone",
    "comm.dma_bytes_per_s",
    "comm.pio_bytes_per_s",
    "comm.retrans_per_s",
    "comm.reg_miss_per_s",
    "comm.match_probes_per_s",
    "comm.fluid_reallocs_per_s",
    "comm.engine_events_per_s",
    "comm.lat_alone_us",
    "comm.bw_alone",
    // Engineered pressure features (the ratios the paper's contention
    // model is built from): channel saturation of the shared data NUMA
    // node and its interaction with the placement flags. These give the
    // additive learner the multiplicative physics — e.g. "data far only
    // hurts when the channels are loaded" is a product, not a sum.
    "eng.compute_sat",
    "eng.comm_bytes_per_s",
    "eng.comm_sat",
    "eng.joint_sat",
    "eng.overcommit",
    "eng.far_x_compute_sat",
    "eng.far_x_comm_sat",
    "eng.contention",
    "eng.far_x_contention",
    "eng.comm_oracle",
    "eng.compute_oracle",
];

/// Index of `comp.mem_bytes_per_s` in [`FEATURES`]: the memory-channel
/// pressure feature the learner constrains to a monotone response.
pub const MEM_CHANNEL_FEATURE: usize = 11;

/// Index of `cfg.metric_is_lat` in [`FEATURES`]: the flag the advisor's
/// feature expansion uses to split the latency and bandwidth regimes.
pub const METRIC_FLAG_FEATURE: usize = 3;

/// One harvested training pair.
#[derive(Clone, Debug)]
pub struct TrainingPair {
    /// Grid configuration this pair measures.
    pub spec: PairSpec,
    /// Feature vector (see [`FEATURES`]), alone-steps only.
    pub features: Vec<f64>,
    /// Communication penalty: alone/together bandwidth (bw metric) or
    /// together/alone latency (lat metric); > 1 means interference, < 1 is
    /// the idle-penalty fade making communication *faster* beside compute.
    pub comm_penalty: f64,
    /// Computation penalty: alone/together flop rate (bandwidth when the
    /// family does no flops).
    pub compute_penalty: f64,
}

impl TrainingPair {
    /// Exact-bits serialization for the result store.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(preset_index(self.spec.preset))
            .u8(self.spec.placement as u8)
            .u8(match self.spec.family {
                Family::Stream => 0,
                Family::Tunable => 1,
                Family::Gemm => 2,
                Family::Avx => 3,
                Family::Cg => 4,
            })
            .u32(self.spec.cores)
            .u8(match self.spec.metric {
                Metric::Bandwidth => 0,
                Metric::Latency => 1,
            })
            .f64s(&self.features)
            .f64(self.comm_penalty)
            .f64(self.compute_penalty);
        e.into_bytes()
    }

    /// Inverse of [`TrainingPair::encode`]; `None` on any malformation.
    pub fn decode(bytes: &[u8]) -> Option<TrainingPair> {
        let mut d = Dec::new(bytes);
        let preset = preset_from_index(d.u8()?)?;
        let placement = d.u8()? as usize;
        if placement >= Placement::all_combinations().len() {
            return None;
        }
        let family = match d.u8()? {
            0 => Family::Stream,
            1 => Family::Tunable,
            2 => Family::Gemm,
            3 => Family::Avx,
            4 => Family::Cg,
            _ => return None,
        };
        let cores = d.u32()?;
        let metric = match d.u8()? {
            0 => Metric::Bandwidth,
            1 => Metric::Latency,
            _ => return None,
        };
        let p = TrainingPair {
            spec: PairSpec {
                preset,
                placement,
                family,
                cores,
                metric,
            },
            features: d.f64s()?,
            comm_penalty: d.f64()?,
            compute_penalty: d.f64()?,
        };
        d.finish(p)
    }
}

/// Run `f` under a telemetry recorder whether or not the surrounding
/// campaign records: nested inside an active recorder it isolates (the
/// outer journal is untouched), otherwise it installs a scratch recorder
/// and tears it down. Recording is a pure observer, so the captured run is
/// bit-identical either way.
fn capture<T>(f: impl FnOnce() -> T) -> (T, Journal) {
    if telemetry::is_active() {
        let (v, j) = telemetry::isolate(f);
        (v, j.expect("isolate records while active"))
    } else {
        telemetry::install();
        let v = f();
        let j = telemetry::take().expect("recorder was installed");
        (v, j)
    }
}

fn base_config(spec: &PairSpec, fidelity: Fidelity, seed: u64) -> ProtocolConfig {
    let machine = spec.preset.spec();
    let placement = Placement::all_combinations()[spec.placement].1;
    let w = spec.family.workload(data_numa(&machine, placement));
    let mut cfg = ProtocolConfig::new(machine, Some(w));
    cfg.placement = placement;
    cfg.compute_cores = spec.cores as usize;
    cfg.pingpong = spec.metric.pingpong(fidelity);
    cfg.reps = fidelity.reps();
    cfg.seed = seed;
    cfg
}

/// Counter rate per simulated second of the journal's timeline.
fn rate(j: &Journal, name: &str, per: f64) -> f64 {
    let v = j.counters.get(name).copied().unwrap_or(0) as f64;
    if per > 0.0 {
        v / per
    } else {
        0.0
    }
}

fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Communication-alone measurement: counter rates + alone medians.
/// Core-count- and family-independent, memoized per (machine, placement,
/// metric).
struct CommAlone {
    dma_bytes_per_s: f64,
    pio_bytes_per_s: f64,
    retrans_per_s: f64,
    reg_miss_per_s: f64,
    match_probes_per_s: f64,
    fluid_reallocs_per_s: f64,
    engine_events_per_s: f64,
    lat_alone_us: f64,
    bw_alone: f64,
    lat_reps: Vec<f64>,
    bw_reps: Vec<f64>,
}

fn measure_comm_alone(spec: &PairSpec, fidelity: Fidelity, seed: u64) -> Result<CommAlone, String> {
    let cfg = base_config(spec, fidelity, seed);
    let (res, j) = capture(|| {
        protocol::try_run_masked(
            &cfg,
            &simcore::FaultPlan::new(cfg.seed),
            StepMask::COMM_ALONE,
        )
        .map_err(|e| e.to_string())
    });
    let res = res?;
    let per = j.end_time().as_secs_f64();
    Ok(CommAlone {
        dma_bytes_per_s: rate(&j, "net.dma.bytes", per),
        pio_bytes_per_s: rate(&j, "net.pio.bytes", per),
        retrans_per_s: rate(&j, "net.retrans", per),
        reg_miss_per_s: rate(&j, "net.reg_miss", per),
        match_probes_per_s: rate(&j, "mpi.match.probes", per),
        fluid_reallocs_per_s: rate(&j, "fluid.reallocs", per),
        engine_events_per_s: rate(&j, "engine.events", per),
        lat_alone_us: median(&res.lat_alone()),
        bw_alone: median(&res.bw_alone()),
        lat_reps: res.lat_alone(),
        bw_reps: res.bw_alone(),
    })
}

/// Computation-alone measurement: counter rates + alone medians.
/// Metric-independent, memoized per (machine, placement, family, cores).
struct ComputeAlone {
    mem_bytes_per_s: f64,
    stall_ps_per_s: f64,
    license_normal_per_s: f64,
    license_avx2_per_s: f64,
    license_avx512_per_s: f64,
    freq_transitions_per_s: f64,
    fluid_reallocs_per_s: f64,
    engine_events_per_s: f64,
    bw_alone: f64,
    flops_alone: f64,
    stall_frac_alone: f64,
    bw_reps: Vec<f64>,
    flops_reps: Vec<f64>,
}

fn measure_compute_alone(
    spec: &PairSpec,
    fidelity: Fidelity,
    seed: u64,
) -> Result<ComputeAlone, String> {
    let cfg = base_config(spec, fidelity, seed);
    let (res, j) = capture(|| {
        protocol::try_run_masked(
            &cfg,
            &simcore::FaultPlan::new(cfg.seed),
            StepMask::COMPUTE_ALONE,
        )
        .map_err(|e| e.to_string())
    });
    let res = res?;
    let per = j.end_time().as_secs_f64();
    let stall: Vec<f64> = res
        .compute_alone
        .iter()
        .map(|m| m.compute_stall_fraction)
        .collect();
    Ok(ComputeAlone {
        mem_bytes_per_s: rate(&j, "mem.channel.bytes", per),
        stall_ps_per_s: rate(&j, "mem.stall_ps", per),
        license_normal_per_s: rate(&j, "freq.license.normal", per),
        license_avx2_per_s: rate(&j, "freq.license.avx2", per),
        license_avx512_per_s: rate(&j, "freq.license.avx512", per),
        freq_transitions_per_s: rate(&j, "freq.transitions", per),
        fluid_reallocs_per_s: rate(&j, "fluid.reallocs", per),
        engine_events_per_s: rate(&j, "engine.events", per),
        bw_alone: median(&res.compute_bw_alone()),
        flops_alone: median(&res.flops_alone()),
        stall_frac_alone: median(&stall),
        bw_reps: res.compute_bw_alone(),
        flops_reps: res.flops_alone(),
    })
}

fn assemble_features(spec: &PairSpec, comm: &CommAlone, comp: &ComputeAlone) -> Vec<f64> {
    let machine = spec.preset.spec();
    let placement = Placement::all_combinations()[spec.placement].1;
    let total = (machine.sockets * machine.numa_per_socket * machine.cores_per_numa) as f64;
    let w = spec.family.workload(data_numa(&machine, placement));
    let ai = w.intensity();
    let intensity_norm = if ai.is_finite() { ai / (1.0 + ai) } else { 1.0 };
    let license = w
        .phases
        .iter()
        .map(|p| p.license.index())
        .max()
        .unwrap_or(0) as f64;
    let msg = spec.metric.pingpong(Fidelity::Full).size as f64;
    let mut v = vec![
        spec.cores as f64,
        spec.cores as f64 / total,
        msg.max(1.0).log2(),
        match spec.metric {
            Metric::Latency => 1.0,
            Metric::Bandwidth => 0.0,
        },
        match placement.data {
            topology::BindingPolicy::NearNic => 1.0,
            _ => 0.0,
        },
        match placement.comm_thread {
            topology::BindingPolicy::NearNic => 1.0,
            _ => 0.0,
        },
        (machine.sockets * machine.numa_per_socket) as f64,
        machine.cores_per_numa as f64,
        machine.per_core_bw * spec.cores as f64 / machine.mem_bw_per_numa,
        intensity_norm,
        license,
        comp.mem_bytes_per_s,
        comp.stall_ps_per_s,
        comp.license_normal_per_s,
        comp.license_avx2_per_s,
        comp.license_avx512_per_s,
        comp.freq_transitions_per_s,
        comp.fluid_reallocs_per_s,
        comp.engine_events_per_s,
        comp.bw_alone,
        comp.flops_alone,
        comp.stall_frac_alone,
        comm.dma_bytes_per_s,
        comm.pio_bytes_per_s,
        comm.retrans_per_s,
        comm.reg_miss_per_s,
        comm.match_probes_per_s,
        comm.fluid_reallocs_per_s,
        comm.engine_events_per_s,
        comm.lat_alone_us,
        comm.bw_alone,
    ];
    let data_far = 1.0
        - match placement.data {
            topology::BindingPolicy::NearNic => 1.0,
            _ => 0.0,
        };
    let compute_sat = comp.mem_bytes_per_s / machine.mem_bw_per_numa;
    let comm_bytes = comm.dma_bytes_per_s + comm.pio_bytes_per_s;
    let comm_sat = comm_bytes / machine.mem_bw_per_numa;
    let joint_sat = compute_sat + comm_sat;
    // Max-min fair-share oracles: play the fluid model's own allocation
    // rule forward on the shared data node — `cores` compute flows plus
    // the communication flow, alone-step demands, node channel capacity —
    // and record each side's predicted log-slowdown. The learner only has
    // to calibrate these, not rediscover water-filling from scratch.
    let comm_oracle;
    let compute_oracle;
    {
        let per_core = if spec.cores > 0 {
            comp.mem_bytes_per_s / spec.cores as f64
        } else {
            0.0
        };
        let mut demands = vec![per_core; spec.cores as usize];
        demands.push(comm_bytes.max(comm.bw_alone));
        let shares = waterfill(&demands, machine.mem_bw_per_numa);
        let slow = |demand: f64, share: f64| {
            if demand > 0.0 && share > 0.0 {
                (demand / share).max(1.0).ln()
            } else {
                0.0
            }
        };
        comm_oracle = slow(demands[spec.cores as usize], shares[spec.cores as usize]);
        compute_oracle = if spec.cores > 0 {
            slow(per_core, shares[0])
        } else {
            0.0
        };
    }
    v.extend_from_slice(&[
        compute_sat,
        comm_bytes,
        comm_sat,
        joint_sat,
        (joint_sat - 1.0).max(0.0),
        data_far * compute_sat,
        data_far * comm_sat,
        compute_sat * comm_sat,
        data_far * compute_sat * comm_sat,
        comm_oracle,
        compute_oracle,
    ]);
    debug_assert_eq!(v.len(), FEATURES.len());
    v
}

/// Max-min fair (water-filling) allocation of `capacity` over `demands`:
/// ascending-demand sweep, each flow gets `min(demand, fair share of the
/// rest)`. Returns per-flow allocations in input order.
fn waterfill(demands: &[f64], capacity: f64) -> Vec<f64> {
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]));
    let mut alloc = vec![0.0; demands.len()];
    let mut remaining = capacity;
    let mut left = demands.len();
    for &i in &order {
        let fair = remaining / left as f64;
        let got = demands[i].min(fair);
        alloc[i] = got;
        remaining -= got;
        left -= 1;
    }
    alloc
}

fn penalties(
    spec: &PairSpec,
    comm: &CommAlone,
    comp: &ComputeAlone,
    together: &StepResults,
) -> (f64, f64) {
    let comm_penalty = match spec.metric {
        Metric::Bandwidth => {
            let t = median(&together.bw_together());
            if t > 0.0 {
                median(&comm.bw_reps) / t
            } else {
                1.0
            }
        }
        Metric::Latency => {
            let a = median(&comm.lat_reps);
            if a > 0.0 {
                median(&together.lat_together()) / a
            } else {
                1.0
            }
        }
    };
    // Computation penalty from the flop rate (defined for every family);
    // memory-bound families fall back to bandwidth if the flop rate is
    // degenerate.
    let ft = median(&together.flops_together());
    let compute_penalty = if ft > 0.0 && median(&comp.flops_reps) > 0.0 {
        median(&comp.flops_reps) / ft
    } else {
        let bt = median(&together.compute_bw_together());
        if bt > 0.0 && median(&comp.bw_reps) > 0.0 {
            median(&comp.bw_reps) / bt
        } else {
            1.0
        }
    };
    (comm_penalty, compute_penalty)
}

/// Measure one pair inside a campaign: alone steps through the baseline
/// cache, together step fresh on the point's seed.
pub fn measure_pair(spec: &PairSpec, ctx: &PointCtx<'_>) -> Result<TrainingPair, String> {
    let fidelity = ctx.fidelity;
    let machine_name = spec.preset.spec().name;
    let placement_label = Placement::all_combinations()[spec.placement].0;
    let comm_key = format!(
        "predict/comm/{}/{}/{}",
        machine_name,
        placement_label,
        spec.metric.tag()
    );
    let comm_spec = *spec;
    let comm: std::sync::Arc<CommAlone> =
        ctx.baselines.get_or_compute_result(&comm_key, |seed| {
            measure_comm_alone(&comm_spec, fidelity, seed)
        })?;
    let comp_key = format!(
        "predict/compute/{}/{}/{}/{}",
        machine_name,
        placement_label,
        spec.family.tag(),
        spec.cores
    );
    let comp_spec = *spec;
    let comp: std::sync::Arc<ComputeAlone> =
        ctx.baselines.get_or_compute_result(&comp_key, |seed| {
            measure_compute_alone(&comp_spec, fidelity, seed)
        })?;
    measure_together(spec, fidelity, ctx.seed, &comm, &comp)
}

/// The together step on `seed`, then the pair it makes with the alone
/// steps: features from the alone steps, penalties from all three.
fn measure_together(
    spec: &PairSpec,
    fidelity: Fidelity,
    seed: u64,
    comm: &CommAlone,
    comp: &ComputeAlone,
) -> Result<TrainingPair, String> {
    let cfg = base_config(spec, fidelity, seed);
    let together =
        protocol::try_run_masked(&cfg, &simcore::FaultPlan::new(cfg.seed), StepMask::TOGETHER)
            .map_err(|e| e.to_string())?;
    let (comm_penalty, compute_penalty) = penalties(spec, comm, comp, &together);
    Ok(TrainingPair {
        spec: *spec,
        features: assemble_features(spec, comm, comp),
        comm_penalty,
        compute_penalty,
    })
}

/// The two alone steps of a pair measured outside a campaign, each on a
/// seed derived from the spec's content seed.
fn alone_direct(spec: &PairSpec, fidelity: Fidelity) -> Result<(CommAlone, ComputeAlone), String> {
    let seed = spec.content_seed();
    Ok((
        measure_comm_alone(spec, fidelity, seed ^ 0xC0111)?,
        measure_compute_alone(spec, fidelity, seed ^ 0xC0217)?,
    ))
}

/// Measure one pair outside a campaign (the advisor's ground-truth path),
/// on the spec's content seed.
pub fn measure_pair_direct(spec: &PairSpec, fidelity: Fidelity) -> Result<TrainingPair, String> {
    let (comm, comp) = alone_direct(spec, fidelity)?;
    measure_together(spec, fidelity, spec.content_seed(), &comm, &comp)
}

/// Compute the feature vector of a pair **without ever running the
/// together step** — the prediction path: only the two alone steps
/// execute.
pub fn alone_features(spec: &PairSpec, fidelity: Fidelity) -> Result<Vec<f64>, String> {
    let (comm, comp) = alone_direct(spec, fidelity)?;
    Ok(assemble_features(spec, &comm, &comp))
}

/// The harvest campaign experiment. `filter` restricts the grid (tests and
/// the golden fixture harvest focused subsets); the full grid is
/// [`crate::experiments::HARVEST_EXPERIMENT`].
pub struct Harvest {
    /// Optional grid restriction (`None` = full grid).
    pub filter: Option<fn(&PairSpec) -> bool>,
}

impl Harvest {
    /// The grid this instance plans, at the given fidelity.
    pub fn specs(&self, fidelity: Fidelity) -> Vec<PairSpec> {
        let mut g = grid(fidelity);
        if let Some(f) = self.filter {
            g.retain(f);
        }
        g
    }
}

impl Experiment for Harvest {
    fn name(&self) -> &'static str {
        "predict_harvest"
    }

    fn anchor(&self) -> &'static str {
        "predictor training pairs (DESIGN.md §16, arXiv 2410.18126)"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        self.specs(fidelity)
            .iter()
            .enumerate()
            .map(|(i, s)| SweepPoint::new(i, s.label()))
            .collect()
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let specs = self.specs(ctx.fidelity);
        let spec = specs
            .get(point.index)
            .ok_or_else(|| format!("point {} outside the harvest grid", point.index))?;
        let pair = measure_pair(spec, ctx)?;
        Ok(Box::new(pair))
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        value
            .downcast_ref::<TrainingPair>()
            .map(TrainingPair::encode)
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        TrainingPair::decode(bytes).map(|p| Box::new(p) as PointValue)
    }

    fn finalize(
        &self,
        fidelity: Fidelity,
        points: &[crate::campaign::PointOutcome],
    ) -> Vec<FigureData> {
        let pairs = collect_pairs(points);
        let mut comm = Series::new("comm penalty (alone/together)");
        let mut compute = Series::new("compute penalty (alone/together)");
        for (i, p) in pairs.iter().enumerate() {
            comm.push(i as f64, &[p.comm_penalty]);
            compute.push(i as f64, &[p.compute_penalty]);
        }
        let planned = self.specs(fidelity).len();
        let finite = pairs
            .iter()
            .all(|p| p.comm_penalty.is_finite() && p.compute_penalty.is_finite());
        let sane = pairs.iter().all(|p| {
            (0.2..=64.0).contains(&p.comm_penalty) && (0.2..=64.0).contains(&p.compute_penalty)
        });
        vec![FigureData {
            id: "predict_harvest",
            title: "Harvested interference training pairs".into(),
            xlabel: "pair index (grid order)",
            ylabel: "slowdown penalty (x)",
            series: vec![comm, compute],
            notes: vec![
                format!(
                    "{} pairs harvested, {} features each",
                    pairs.len(),
                    FEATURES.len()
                ),
                "features come from the alone steps only; penalties from the together step".into(),
            ],
            checks: vec![
                Check::new(
                    "every planned pair harvested",
                    pairs.len() == planned,
                    format!("{}/{} pairs", pairs.len(), planned),
                ),
                Check::new("penalties finite", finite, "no NaN/inf slowdowns"),
                Check::new(
                    "penalties within physical bounds",
                    sane,
                    "all slowdowns in [0.2, 64]x",
                ),
            ],
            runs: Vec::new(),
        }]
    }
}

/// Extract the successfully harvested pairs from campaign outcomes, in
/// plan order.
pub fn collect_pairs(points: &[crate::campaign::PointOutcome]) -> Vec<TrainingPair> {
    points
        .iter()
        .filter_map(|o| o.value.as_ref())
        .filter_map(|v| v.downcast_ref::<TrainingPair>())
        .cloned()
        .collect()
}

/// Byte-stable textual dump of a feature matrix: one header line naming
/// the columns, then one line per pair (label, features, targets) with
/// exact decimal formatting — the golden-fixture surface of the harvest
/// stage.
pub fn feature_matrix_text(pairs: &[TrainingPair]) -> String {
    let mut out = String::new();
    out.push_str("# predict feature matrix v1\n");
    out.push_str(&format!(
        "# columns: label {} comm_penalty compute_penalty\n",
        FEATURES.join(" ")
    ));
    for p in pairs {
        out.push_str(&p.spec.label());
        for f in &p.features {
            out.push_str(&format!(" {:.9e}", f));
        }
        out.push_str(&format!(
            " {:.9e} {:.9e}\n",
            p.comm_penalty, p.compute_penalty
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_every_dimension() {
        let g = grid(Fidelity::Quick);
        assert!(g.iter().any(|s| s.preset == Preset::Pyxis));
        assert!(g.iter().any(|s| s.family == Family::Cg));
        assert!(g.iter().any(|s| s.metric == Metric::Latency));
        assert!(g.iter().any(|s| s.placement == 3));
        // Full grid is strictly denser.
        assert!(grid(Fidelity::Full).len() > g.len());
    }

    #[test]
    fn pair_codec_roundtrips_exactly() {
        let p = TrainingPair {
            spec: PairSpec {
                preset: Preset::Billy,
                placement: 2,
                family: Family::Gemm,
                cores: 21,
                metric: Metric::Latency,
            },
            features: vec![1.0, -0.5, 3.25e9, f64::MIN_POSITIVE],
            comm_penalty: 1.37,
            compute_penalty: 0.93,
        };
        let d = TrainingPair::decode(&p.encode()).expect("roundtrip");
        assert_eq!(d.spec, p.spec);
        assert_eq!(d.features, p.features);
        assert_eq!(d.comm_penalty.to_bits(), p.comm_penalty.to_bits());
        // Trailing garbage is rejected.
        let mut bytes = p.encode();
        bytes.push(0);
        assert!(TrainingPair::decode(&bytes).is_none());
    }

    #[test]
    fn labels_are_unique() {
        let g = grid(Fidelity::Full);
        let mut labels: Vec<String> = g.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), g.len());
    }

    #[test]
    fn feature_vector_matches_names() {
        // A tiny2x2 pair assembles without running anything heavy: check
        // the assembled width against the FEATURES table.
        let spec = PairSpec {
            preset: Preset::Tiny2x2,
            placement: 1,
            family: Family::Stream,
            cores: 1,
            metric: Metric::Bandwidth,
        };
        let comm = CommAlone {
            dma_bytes_per_s: 0.0,
            pio_bytes_per_s: 0.0,
            retrans_per_s: 0.0,
            reg_miss_per_s: 0.0,
            match_probes_per_s: 0.0,
            fluid_reallocs_per_s: 0.0,
            engine_events_per_s: 0.0,
            lat_alone_us: 0.0,
            bw_alone: 0.0,
            lat_reps: vec![0.0],
            bw_reps: vec![0.0],
        };
        let comp = ComputeAlone {
            mem_bytes_per_s: 0.0,
            stall_ps_per_s: 0.0,
            license_normal_per_s: 0.0,
            license_avx2_per_s: 0.0,
            license_avx512_per_s: 0.0,
            freq_transitions_per_s: 0.0,
            fluid_reallocs_per_s: 0.0,
            engine_events_per_s: 0.0,
            bw_alone: 0.0,
            flops_alone: 0.0,
            stall_frac_alone: 0.0,
            bw_reps: vec![0.0],
            flops_reps: vec![0.0],
        };
        assert_eq!(assemble_features(&spec, &comm, &comp).len(), FEATURES.len());
        assert_eq!(FEATURES[MEM_CHANNEL_FEATURE], "comp.mem_bytes_per_s");
    }
}
