//! Analytical oracles: closed-form expected values derived from the machine
//! parameters, compared against full simulator runs.
//!
//! Every formula here is derived *independently* from the model definitions
//! in `DESIGN.md` §11 / `PAPER.md` — none of it calls back into the netsim
//! step machine — so a silent change to a hot path (a dropped step, a wrong
//! capacity, a misapplied multiplier) shows up as a relative error against
//! the closed form instead of only shifting golden traces.
//!
//! The measurement worlds pin every stochastic and policy-dependent input:
//! `Userspace(base_freq)` governor, uncore fixed at the top of its range,
//! the communication core on the NIC's NUMA node running `Light`, payload
//! and destination buffers on the NIC NUMA node, no jitter, no faults. Under
//! those conditions the simulator is exactly the piecewise-linear model the
//! formulas describe, up to the engine's picosecond time quantisation —
//! hence [`TOL_TIME`].

use freq::{Activity, FreqModel, Governor, License, UncorePolicy};
use memsim::MemSystem;
use netsim::{NetEvent, NetSim, NodeRef};
use simcore::{Engine, FlowSpec, Pcg32};
use topology::{CoreId, MachineSpec, NumaId, Preset};

/// Relative tolerance for end-to-end simulated *times*: the engine rounds
/// every event edge to integer picoseconds, so an eager ping over ~8 event
/// edges carries a handful of picoseconds of quantisation against a ~2 µs
/// expectation (≲ 1e-5 relative); 2e-4 leaves an order of magnitude of
/// head-room while still catching any real modelling change (the smallest
/// modelled term, one control access, is ≥ 1e-2 of the total).
pub const TOL_TIME: f64 = 2e-4;

/// Relative tolerance for fluid *rates*: pure f64 arithmetic with no time
/// quantisation; only summation-order effects remain.
pub const TOL_RATE: f64 = 1e-9;

/// Bytes the communication core pushes into the NIC per cycle in the eager
/// PIO copy path (documented model constant; netsim keeps its own copy).
pub const PIO_BYTES_PER_CYCLE: f64 = 4.0;

/// The five oracle families run per cluster preset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OracleKind {
    /// Eager half-RTT is `α + β·size` with α, β from the machine spec.
    EagerAlphaBeta,
    /// Rendezvous large-message bandwidth hits `min(dma, link, mem)`.
    RendezvousBandwidth,
    /// Latency at the eager threshold follows the eager formula; one byte
    /// above follows the rendezvous formula (crossover jump included).
    ThresholdCrossover,
    /// `Performance` governor reproduces the turbo tables exactly.
    TurboLadder,
    /// k streaming cores saturate a memory channel at the modelled point.
    MemSaturation,
    /// n weighted/capped flows on one link get water-filling shares.
    MaxMinShares,
}

impl OracleKind {
    /// Every oracle family, in display order.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::EagerAlphaBeta,
        OracleKind::RendezvousBandwidth,
        OracleKind::ThresholdCrossover,
        OracleKind::TurboLadder,
        OracleKind::MemSaturation,
        OracleKind::MaxMinShares,
    ];

    /// Stable name used in check labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::EagerAlphaBeta => "eager_alpha_beta",
            OracleKind::RendezvousBandwidth => "rendezvous_bw",
            OracleKind::ThresholdCrossover => "threshold_crossover",
            OracleKind::TurboLadder => "turbo_ladder",
            OracleKind::MemSaturation => "mem_saturation",
            OracleKind::MaxMinShares => "maxmin_shares",
        }
    }

    /// Run this family against a machine spec.
    pub fn run(self, spec: &MachineSpec) -> Vec<crate::Outcome> {
        match self {
            OracleKind::EagerAlphaBeta => eager_alpha_beta(spec),
            OracleKind::RendezvousBandwidth => rendezvous_bandwidth(spec),
            OracleKind::ThresholdCrossover => threshold_crossover(spec),
            OracleKind::TurboLadder => turbo_ladder(spec),
            OracleKind::MemSaturation => mem_saturation(spec),
            OracleKind::MaxMinShares => maxmin_shares(spec),
        }
    }
}

/// Run every oracle family on every cluster preset.
pub fn run_all_presets() -> Vec<crate::Outcome> {
    let mut out = Vec::new();
    for p in Preset::clusters() {
        let spec = p.spec();
        for k in OracleKind::ALL {
            out.extend(k.run(&spec));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Closed forms.

/// Rate of the eager PIO payload: paced by the copy loop at
/// `4 B/cycle × f`, further bounded by every capacity on the path
/// (sender memory controller, NIC engines, wire, receiver controller).
fn eager_rate(spec: &MachineSpec) -> f64 {
    let pio = PIO_BYTES_PER_CYCLE * spec.base_freq * 1e9;
    pio.min(path_bottleneck(spec))
}

/// Rendezvous DMA rate: the NIC pulls at full tilt, bounded by the path.
fn dma_rate(spec: &MachineSpec) -> f64 {
    path_bottleneck(spec)
}

/// Minimum capacity along the sender-memory → NIC → wire → NIC →
/// receiver-memory path with the uncore pinned at its maximum (memory
/// controllers at nominal `mem_bw_per_numa`).
fn path_bottleneck(spec: &MachineSpec) -> f64 {
    spec.mem_bw_per_numa
        .min(spec.network.dma_bw)
        .min(spec.network.link_bw)
}

/// Per-side fixed costs shared by both protocols: software overhead cycles
/// on the communication core plus NIC doorbell / completion-queue control
/// accesses at local latency (the comm core sits on the NIC NUMA node).
fn per_side_overhead_s(spec: &MachineSpec) -> f64 {
    let overhead = spec.network.sw_overhead_cycles * 0.5 / (spec.base_freq * 1e9);
    let ctrl = spec.local_access_lat_s * spec.network.ctrl_accesses * 0.5;
    overhead + ctrl
}

/// Eager α: everything except the payload term — send+recv overhead and
/// control accesses, the package-idle penalty (no heavy core anywhere) and
/// one wire crossing.
pub fn expected_eager_alpha_s(spec: &MachineSpec) -> f64 {
    2.0 * per_side_overhead_s(spec) + spec.idle_uncore_penalty_s + spec.network.wire_latency_s
}

/// Eager β: seconds per payload byte.
pub fn expected_eager_beta_s(spec: &MachineSpec) -> f64 {
    1.0 / eager_rate(spec)
}

/// Closed-form eager one-way time.
pub fn expected_eager_s(spec: &MachineSpec, size: usize) -> f64 {
    expected_eager_alpha_s(spec) + (size as f64).max(1.0) * expected_eager_beta_s(spec)
}

/// Closed-form rendezvous one-way time. `cold` pays buffer registration;
/// a warm registration cache skips it. The handshake crosses the wire
/// twice (RTS out, CTS back) before the DMA stream starts.
pub fn expected_rendezvous_s(spec: &MachineSpec, size: usize, cold: bool) -> f64 {
    let reg = if cold {
        spec.network.reg_base_s + spec.network.reg_per_byte_s * size as f64
    } else {
        0.0
    };
    2.0 * per_side_overhead_s(spec)
        + spec.idle_uncore_penalty_s
        + reg
        + 2.0 * spec.network.wire_latency_s
        + size as f64 / dma_rate(spec)
}

// ---------------------------------------------------------------------------
// Measurement world: the netsim two-node loopback under pinned policies.

struct World {
    engine: Engine,
    mem: [MemSystem; 2],
    freqs: [FreqModel; 2],
    net: NetSim,
    comm_core: CoreId,
}

fn world(spec: &MachineSpec) -> World {
    // Communication thread on the last core of the NIC's NUMA node: control
    // accesses run at local latency, matching the α formula.
    let comm_core = *spec
        .cores_of_numa(spec.nic_numa)
        .last()
        .expect("NIC NUMA node has cores");
    let mut engine = Engine::new();
    let mem = [
        MemSystem::build(&mut engine, spec, "n0."),
        MemSystem::build(&mut engine, spec, "n1."),
    ];
    let mut freqs = [
        FreqModel::new(
            spec,
            Governor::Userspace(spec.base_freq),
            UncorePolicy::Fixed(spec.uncore_range.1),
        ),
        FreqModel::new(
            spec,
            Governor::Userspace(spec.base_freq),
            UncorePolicy::Fixed(spec.uncore_range.1),
        ),
    ];
    for (f, m) in freqs.iter_mut().zip(&mem) {
        f.set_activity(comm_core, Activity::Light);
        m.apply_freqs(&mut engine, f);
    }
    let net = NetSim::build(&mut engine, spec);
    World {
        engine,
        mem,
        freqs,
        net,
        comm_core,
    }
}

/// Drive one message node0 → node1 to delivery; returns the half-RTT in
/// seconds.
fn one_way(w: &mut World, size: usize, buffer: u64) -> f64 {
    let start = w.engine.now();
    let id = {
        let n0 = NodeRef {
            mem: &w.mem[0],
            freqs: &w.freqs[0],
            comm_core: w.comm_core,
        };
        let nic = w.mem[0].spec().nic_numa;
        w.net
            .start_send(&mut w.engine, 0, 1, &n0, size, nic, nic, buffer)
    };
    w.net.recv_ready(&mut w.engine, id, 0);
    loop {
        let ev = w.engine.next().expect("transfer makes progress");
        if !w.net.owns(ev.tag()) {
            continue;
        }
        let (mem, freqs, cc) = (&w.mem, &w.freqs, w.comm_core);
        let nodes = |i: usize| NodeRef {
            mem: &mem[i],
            freqs: &freqs[i],
            comm_core: cc,
        };
        if let Some(NetEvent::Delivered { .. }) = w.net.on_event(&mut w.engine, nodes, &ev) {
            return (w.engine.now() - start).as_secs_f64();
        }
    }
}

/// Measure one half-RTT on a fresh world. `warm` first sends the same
/// buffer once so a rendezvous measurement hits the registration cache.
pub fn measured_one_way_s(spec: &MachineSpec, size: usize, warm: bool) -> f64 {
    let mut w = world(spec);
    if warm {
        one_way(&mut w, size, 0xB0F);
    }
    one_way(&mut w, size, 0xB0F)
}

// ---------------------------------------------------------------------------
// Oracle families.

/// Eager pingpong: t(size) must match `α + β·size` at several sizes, and
/// the (α, β) recovered from two measurements must match the closed forms.
pub fn eager_alpha_beta(spec: &MachineSpec) -> Vec<crate::Outcome> {
    let mut out = Vec::new();
    let thr = spec.network.eager_threshold;
    for size in [4usize, 1024, 16 * 1024, thr] {
        let t = measured_one_way_s(spec, size, false);
        out.push(crate::Outcome::compare(
            format!("{}: eager t({} B)", spec.name, size),
            expected_eager_s(spec, size),
            t,
            TOL_TIME,
        ));
    }
    // Recover the affine coefficients from two measurements.
    let (s1, s2) = (256usize, 16 * 1024);
    let t1 = measured_one_way_s(spec, s1, false);
    let t2 = measured_one_way_s(spec, s2, false);
    let beta = (t2 - t1) / (s2 - s1) as f64;
    let alpha = t1 - beta * s1 as f64;
    out.push(crate::Outcome::compare(
        format!("{}: eager β (s/B)", spec.name),
        expected_eager_beta_s(spec),
        beta,
        1e-3,
    ));
    out.push(crate::Outcome::compare(
        format!("{}: eager α (s)", spec.name),
        expected_eager_alpha_s(spec),
        alpha,
        1e-3,
    ));
    out
}

/// Rendezvous bandwidth: a warm large message must stream at the path
/// bottleneck rate, and its total time must match the closed form.
pub fn rendezvous_bandwidth(spec: &MachineSpec) -> Vec<crate::Outcome> {
    let size = 8 * 1024 * 1024;
    let t = measured_one_way_s(spec, size, true);
    let fixed = expected_rendezvous_s(spec, size, false) - size as f64 / dma_rate(spec);
    vec![
        crate::Outcome::compare(
            format!("{}: rendezvous t({} B, warm)", spec.name, size),
            expected_rendezvous_s(spec, size, false),
            t,
            TOL_TIME,
        ),
        crate::Outcome::compare(
            format!("{}: rendezvous stream bandwidth (B/s)", spec.name),
            dma_rate(spec),
            size as f64 / (t - fixed),
            TOL_TIME,
        ),
    ]
}

/// Protocol threshold: at `eager_threshold` bytes the eager formula holds;
/// one byte above, the (cold) rendezvous formula holds; and the measured
/// discontinuity equals the predicted jump.
pub fn threshold_crossover(spec: &MachineSpec) -> Vec<crate::Outcome> {
    let thr = spec.network.eager_threshold;
    let at = measured_one_way_s(spec, thr, false);
    let above = measured_one_way_s(spec, thr + 1, false);
    let exp_at = expected_eager_s(spec, thr);
    let exp_above = expected_rendezvous_s(spec, thr + 1, true);
    vec![
        crate::Outcome::compare(
            format!("{}: t(threshold) is eager", spec.name),
            exp_at,
            at,
            TOL_TIME,
        ),
        crate::Outcome::compare(
            format!("{}: t(threshold+1) is rendezvous (cold)", spec.name),
            exp_above,
            above,
            TOL_TIME,
        ),
        crate::Outcome::compare(
            format!("{}: crossover jump", spec.name),
            exp_above - exp_at,
            above - at,
            1e-3,
        ),
    ]
}

/// Turbo tables: under `Performance{turbo}` with k heavy cores of a given
/// license on one socket, the core frequency must equal the spec's table
/// entry bit for bit; `Auto` uncore must snap to the range edges.
pub fn turbo_ladder(spec: &MachineSpec) -> Vec<crate::Outcome> {
    let mut out = Vec::new();
    let cores_per_socket = spec.numa_per_socket * spec.cores_per_numa;
    for lic in [License::Normal, License::Avx2, License::Avx512] {
        let table = &spec.turbo_table[lic.index()];
        let mut worst = 0.0f64;
        let mut detail = String::new();
        for k in 1..=cores_per_socket {
            let mut f = FreqModel::new(
                spec,
                Governor::Performance { turbo: true },
                UncorePolicy::Auto,
            );
            for c in 0..k {
                f.set_activity(CoreId(c), Activity::Heavy(lic));
            }
            let expected = table[(k as usize - 1).min(table.len() - 1)];
            let got = f.core_freq(CoreId(0));
            let diff = (got - expected).abs();
            if diff > worst {
                worst = diff;
                detail = format!(
                    "k={}: table says {} GHz, model says {} GHz",
                    k, expected, got
                );
            }
        }
        if worst == 0.0 {
            detail = format!(
                "all {} active-core counts match the table",
                cores_per_socket
            );
        }
        out.push(crate::Outcome::exact(
            format!("{}: turbo ladder ({:?})", spec.name, lic),
            worst,
            detail,
        ));
    }
    // Without turbo, heavy work runs at base unless the license floor is
    // lower (AVX512 can force the clock below base).
    let mut f = FreqModel::new(
        spec,
        Governor::Performance { turbo: false },
        UncorePolicy::Auto,
    );
    for c in 0..cores_per_socket {
        f.set_activity(CoreId(c), Activity::Heavy(License::Avx512));
    }
    let floor = *spec.turbo_table[License::Avx512.index()]
        .last()
        .expect("non-empty table");
    out.push(crate::Outcome::exact(
        format!("{}: no-turbo license floor", spec.name),
        (f.core_freq(CoreId(0)) - spec.base_freq.min(floor)).abs(),
        format!(
            "all-cores AVX512 without turbo: expected {} GHz",
            spec.base_freq.min(floor)
        ),
    ));
    // Auto uncore: minimum when the package idles, maximum when any core
    // is active.
    let mut f = FreqModel::new(
        spec,
        Governor::Performance { turbo: true },
        UncorePolicy::Auto,
    );
    let idle = f.uncore_freq();
    f.set_activity(CoreId(0), Activity::Light);
    let busy = f.uncore_freq();
    out.push(crate::Outcome::exact(
        format!("{}: auto uncore snaps to range edges", spec.name),
        (idle - spec.uncore_range.0).abs() + (busy - spec.uncore_range.1).abs(),
        format!(
            "idle {} / busy {} GHz vs range {:?}",
            idle, busy, spec.uncore_range
        ),
    ));
    out
}

/// Memory-channel saturation: k cores streaming from their local controller
/// aggregate to `min(k·per_core_bw, mem_bw_at_uncore)`, each getting an
/// equal share; and driven through the event loop, k equal transfers all
/// complete at `k·V / aggregate` once the channel saturates.
pub fn mem_saturation(spec: &MachineSpec) -> Vec<crate::Outcome> {
    let mut out = Vec::new();
    let numa = NumaId(0);
    let cores = spec.cores_of_numa(numa);
    for k in [1usize, 2, cores.len()] {
        let mut engine = Engine::new();
        let mem = MemSystem::build(&mut engine, spec, "n0.");
        let freqs = FreqModel::new(
            spec,
            Governor::Userspace(spec.base_freq),
            UncorePolicy::Fixed(spec.uncore_range.1),
        );
        mem.apply_freqs(&mut engine, &freqs);
        let channel = spec.mem_bw_at_uncore(spec.uncore_range.1);
        let aggregate = (k as f64 * spec.per_core_bw).min(channel);
        // Volume sized for ~1 ms of streaming: picosecond quantisation is
        // then ≲ 1e-9 relative on the completion time.
        let volume = aggregate * 1e-3 / k as f64;
        let ids: Vec<_> = (0..k)
            .map(|i| {
                engine.start_flow(FlowSpec {
                    path: mem.path(memsim::Requester::Core(cores[i]), numa),
                    volume,
                    weight: 1.0,
                    cap: mem.requester_cap(memsim::Requester::Core(cores[i])),
                    tag: i as u64,
                })
            })
            .collect();
        let per_flow: f64 = ids
            .iter()
            .map(|&id| engine.flow_rate(id).expect("live flow"))
            .sum::<f64>()
            / k as f64;
        out.push(crate::Outcome::compare(
            format!("{}: {} streaming core(s) per-flow rate", spec.name, k),
            aggregate / k as f64,
            per_flow,
            TOL_RATE,
        ));
        while engine.next().is_some() {}
        out.push(crate::Outcome::compare(
            format!("{}: {} streaming core(s) drain time", spec.name, k),
            k as f64 * volume / aggregate,
            engine.now().as_secs_f64(),
            1e-6,
        ));
    }
    out
}

/// Independent water-filling: max-min shares of one capacity among
/// weighted, optionally capped flows. Deliberately a different algorithm
/// (sorted cap-levels sweep) than the solver's progressive filling.
pub fn waterfill(capacity: f64, flows: &[(f64, Option<f64>)]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..flows.len()).collect();
    let level_of = |i: usize| match flows[i].1 {
        Some(c) => c / flows[i].0,
        None => f64::INFINITY,
    };
    order.sort_by(|&a, &b| level_of(a).partial_cmp(&level_of(b)).expect("finite"));
    let mut rates = vec![0.0; flows.len()];
    let mut remaining = capacity;
    let mut wsum: f64 = flows.iter().map(|f| f.0).sum();
    for &i in &order {
        let (w, _) = flows[i];
        let line = remaining / wsum;
        if level_of(i) <= line {
            // This flow saturates below the waterline: it takes its cap and
            // leaves the rest to share.
            rates[i] = flows[i].1.expect("finite level implies cap");
            remaining -= rates[i];
            wsum -= w;
        } else {
            // The waterline is final for this and every later (higher-cap)
            // flow.
            rates[i] = w * line;
        }
    }
    rates
}

/// Max-min link shares: n weighted/capped flows on the preset's wire must
/// match the independent water-filling calculation, and the uncapped
/// special case must match the exact weighted shares.
pub fn maxmin_shares(spec: &MachineSpec) -> Vec<crate::Outcome> {
    let mut out = Vec::new();
    let c = spec.network.link_bw;
    // Exact weighted shares, no caps.
    let weights = [1.0, 2.0, spec.network.nic_dma_weight, 4.0];
    let wsum: f64 = weights.iter().sum();
    let mut net = simcore::FluidNet::new();
    let link = net.add_resource("link", c);
    let ids: Vec<_> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            net.start_flow(FlowSpec {
                path: vec![link],
                volume: 1e15,
                weight: w,
                cap: None,
                tag: i as u64,
            })
        })
        .collect();
    net.reallocate();
    let mut worst = 0.0f64;
    for (i, &id) in ids.iter().enumerate() {
        let expect = weights[i] * c / wsum;
        let got = net.flow_rate(id).expect("live flow");
        worst = worst.max((got - expect).abs() / expect);
    }
    out.push(crate::Outcome::bound(
        format!("{}: weighted shares of the wire (worst rel err)", spec.name),
        worst,
        TOL_RATE,
    ));
    // Randomised weights and caps vs the independent water-fill sweep.
    let mut rng = Pcg32::new(
        0x5ec0_11ecu64.wrapping_add(spec.network.link_bw.to_bits()),
        7,
    );
    for trial in 0..4u32 {
        let n = 3 + rng.below(6) as usize;
        let flows: Vec<(f64, Option<f64>)> = (0..n)
            .map(|_| {
                let w = 0.25 + 3.75 * rng.next_f64();
                let cap = if rng.next_f64() < 0.5 {
                    // Between 5 % and 60 % of the link: some flows cap out
                    // below the waterline, some above.
                    Some(c * (0.05 + 0.55 * rng.next_f64()))
                } else {
                    None
                };
                (w, cap)
            })
            .collect();
        let expect = waterfill(c, &flows);
        let mut net = simcore::FluidNet::new();
        let link = net.add_resource("link", c);
        let ids: Vec<_> = flows
            .iter()
            .enumerate()
            .map(|(i, &(w, cap))| {
                net.start_flow(FlowSpec {
                    path: vec![link],
                    volume: 1e15,
                    weight: w,
                    cap,
                    tag: i as u64,
                })
            })
            .collect();
        net.reallocate();
        let mut worst = 0.0f64;
        for (i, &id) in ids.iter().enumerate() {
            let got = net.flow_rate(id).expect("live flow");
            worst = worst.max((got - expect[i]).abs() / expect[i].abs().max(1e-30));
        }
        out.push(crate::Outcome::bound(
            format!(
                "{}: water-fill trial {} ({} flows, worst rel err)",
                spec.name, trial, n
            ),
            worst,
            TOL_RATE,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::{henri, tiny2x2};

    #[test]
    fn eager_oracle_holds_on_henri() {
        for o in eager_alpha_beta(&henri()) {
            assert!(o.pass, "{}: {}", o.name, o.detail);
        }
    }

    #[test]
    fn rendezvous_and_threshold_oracles_hold_on_henri() {
        for o in rendezvous_bandwidth(&henri())
            .into_iter()
            .chain(threshold_crossover(&henri()))
        {
            assert!(o.pass, "{}: {}", o.name, o.detail);
        }
    }

    #[test]
    fn turbo_and_fluid_oracles_hold_on_tiny() {
        let spec = tiny2x2();
        for o in turbo_ladder(&spec)
            .into_iter()
            .chain(mem_saturation(&spec))
            .chain(maxmin_shares(&spec))
        {
            assert!(o.pass, "{}: {}", o.name, o.detail);
        }
    }

    #[test]
    fn waterfill_matches_hand_computed_shares() {
        // C=10, weights 1/1/2, middle flow capped at 1: capped flow takes 1,
        // the rest split 9 at 1:2 → 3 and 6.
        let r = waterfill(10.0, &[(1.0, None), (1.0, Some(1.0)), (2.0, None)]);
        assert!((r[0] - 3.0).abs() < 1e-12);
        assert!((r[1] - 1.0).abs() < 1e-12);
        assert!((r[2] - 6.0).abs() < 1e-12);
    }
}
