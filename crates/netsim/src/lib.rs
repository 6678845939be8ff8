//! # netsim — NIC and fabric simulation
//!
//! Models the network path between the nodes of a routed fabric (the
//! degenerate two-node "direct" fabric is the paper's original wire; see
//! `topology::fabric` for switch/torus/dragonfly). Each directed fabric
//! link is one fluid resource, so a payload flow traverses sender memory →
//! NIC TX → every link of its route → NIC RX → receiver memory and shares
//! each hop through the max-min allocator. Per message:
//!
//! * **eager protocol** (small messages): the communication *core* copies
//!   the payload into the NIC with programmed I/O — the bytes cross the
//!   sender's memory path at a CPU-copy rate that scales with the
//!   communication core's frequency (this is why core frequency moves
//!   latency in Figure 1a);
//! * **rendezvous protocol** (large messages): an RTS/CTS handshake, then
//!   the NIC's DMA engines stream the payload directly from memory — the
//!   bytes never touch the CPU (why bandwidth is frequency-insensitive in
//!   Figure 1b), but they *do* share the memory controllers and NUMA links
//!   with computation (the whole of §4);
//! * a **registration cache** (pin-down cache, Tezuka et al.): first use of
//!   a buffer pays a pinning cost, reused ping-pong buffers hit the cache;
//! * per-message **software overhead** (the `o` of LogP) as cycles on the
//!   communication core, plus a few control-path memory transactions whose
//!   latency inflates under congestion;
//! * the paper's counter-intuitive *package-idle penalty*: with no heavy
//!   compute anywhere, uncore power management adds a fixed latency — so
//!   latency measured beside computation is slightly *better* (§3.2, §3.3).

#![warn(missing_docs)]

use std::collections::{HashSet, VecDeque};

use freq::FreqModel;
use memsim::{MemSystem, Requester};
use simcore::faults::{FaultPlan, FaultPlanError, STREAM_DROP_CTS, STREAM_DROP_RTS};
use simcore::telemetry::{self, Lane};
use simcore::{
    kind_index, split_kind_index, tag, tags, Engine, FlowSpec, IdBuildHasher, Pcg32, ResourceId,
    SimTime,
};
use topology::fabric::{Fabric, FabricSpec};
use topology::{CoreId, MachineSpec, NetworkSpec, NumaId};

/// Bytes a communication core moves per cycle in the PIO copy path.
const PIO_BYTES_PER_CYCLE: f64 = 4.0;

/// Wire bytes of one rendezvous control message (RTS or CTS), counted when a
/// retransmission occurs.
pub const CTRL_MSG_BYTES: u64 = 64;

/// Retransmissions allowed before a transfer is declared failed (the RTO
/// starts at sixteen wire latencies, at least 1 µs, and doubles per retry).
pub const DEFAULT_MAX_RETRIES: u32 = 8;

/// How strongly the uncore frequency scales the NIC DMA path: the paper
/// measures 10.1 vs 10.5 GB/s across the whole uncore range (§3.1).
const DMA_UNCORE_SPAN: f64 = 0.04;

/// Heavy-core count at which the package-idle latency penalty has fully
/// vanished.
const IDLE_PENALTY_FADE_CORES: f64 = 4.0;

/// Identifies an in-flight transfer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TransferId(pub u32);

/// Per-node context netsim needs when driving a transfer.
pub struct NodeRef<'a> {
    /// The node's memory system.
    pub mem: &'a MemSystem,
    /// The node's frequency model.
    pub freqs: &'a FreqModel,
    /// Core running the communication thread.
    pub comm_core: CoreId,
}

/// Events surfaced to the message-passing layer. Each names what the layer
/// needs of its transfer (the endpoint whose request it settles, the
/// receive token [`NetSim::recv_ready`] gave it, the size and retry work for
/// the profiler), read from the live transfer, so the layer need keep no
/// copy of them.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// The sender finished pushing the payload (eager copy done or DMA
    /// drained). `sender_elapsed` is the time since `start_send` — the
    /// quantity behind the paper's "sending network bandwidth" profile
    /// (Figure 10).
    SendComplete {
        /// Transfer.
        id: TransferId,
        /// Sending node.
        from: usize,
        /// Payload bytes.
        size: usize,
        /// Time from `start_send` to the last byte leaving the sender.
        sender_elapsed: SimTime,
        /// The handshake's retry work up to this moment.
        retry: RetryStats,
    },
    /// The payload arrived and receive-side processing finished.
    Delivered {
        /// Transfer.
        id: TransferId,
        /// Receiving node.
        to: usize,
        /// The token of the receive that matched the transfer, or `None`
        /// if the payload landed before any did.
        recv: Option<u32>,
    },
    /// The rendezvous handshake exhausted its retransmission budget (only
    /// possible under an injected [`FaultPlan`]); the transfer is abandoned.
    Failed {
        /// Transfer.
        id: TransferId,
        /// Sending node.
        from: usize,
        /// The handshake's retry work, the final timeout included.
        retry: RetryStats,
        /// The token of the receive that matched the transfer, if one did.
        recv: Option<u32>,
    },
}

/// A transfer's retransmission accounting, as its [`NetEvent::SendComplete`]
/// or [`NetEvent::Failed`] reports it; nothing keeps it after that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Handshake retransmissions triggered by timeouts: a timeout that
    /// gives up re-sends nothing and is not one.
    pub retries: u32,
    /// Control-message bytes re-sent across the wire.
    pub retrans_bytes: u64,
    /// Simulated time spent waiting in expired retransmission timeouts.
    pub retry_wait: SimTime,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    SendOverhead = 0,
    SendCtrl = 1,
    Registration = 2,
    EagerWire = 3,
    EagerPayload = 4,
    RtsArrived = 5,
    CtsArrived = 6,
    DmaDone = 7,
    RecvOverhead = 8,
    RecvCtrl = 9,
    // Fault-injection steps. The per-transfer id slot carries the fault
    // window index for the first four, a transfer id for RtsTimeout.
    LinkFaultStart = 10,
    LinkFaultEnd = 11,
    NicStallStart = 12,
    NicStallEnd = 13,
    RtsTimeout = 14,
}

impl Step {
    fn from_u32(v: u32) -> Step {
        match v {
            0 => Step::SendOverhead,
            1 => Step::SendCtrl,
            2 => Step::Registration,
            3 => Step::EagerWire,
            4 => Step::EagerPayload,
            5 => Step::RtsArrived,
            6 => Step::CtsArrived,
            7 => Step::DmaDone,
            8 => Step::RecvOverhead,
            9 => Step::RecvCtrl,
            10 => Step::LinkFaultStart,
            11 => Step::LinkFaultEnd,
            12 => Step::NicStallStart,
            13 => Step::NicStallEnd,
            14 => Step::RtsTimeout,
            _ => unreachable!("bad step"),
        }
    }
}

struct Transfer {
    from: u32,
    to: u32,
    size: usize,
    data_numa: NumaId,
    dest_numa: NumaId,
    buffer: u64,
    started: SimTime,
    /// Handshake retransmissions so far; the current timeout is the base
    /// doubled this many times.
    retries: u32,
    /// RTS and CTS messages sent again after the first of each.
    resends: u32,
    /// The token of the receive that matched this transfer, once one has
    /// ([`NetSim::recv_ready`]).
    recv: Option<u32>,
    awaiting_recv: bool,
    /// The sender has issued at least one RTS.
    rts_sent: bool,
    /// An RTS reached the receiver.
    rts_arrived: bool,
    /// The receiver has issued at least one CTS.
    cts_sent: bool,
    /// A CTS reached the sender and the DMA is running (dedups retries).
    dma_started: bool,
}

// A slot lives until its transfer and every older one have retired, so
// this width times the window's length is what netsim holds per message in
// flight (DESIGN.md §13.8).
const _: () = assert!(std::mem::size_of::<Option<Transfer>>() <= 64);

impl Transfer {
    /// The timeout of the next handshake attempt: `rto_base` doubled per
    /// retry.
    fn rto(&self, rto_base: SimTime) -> SimTime {
        rto_base * (1u64 << self.retries)
    }

    /// The retry work so far. The timeouts waited out sum to `rto_base`
    /// times 1 + 2 + … + 2^(retries − 1), exact in integer picoseconds.
    fn retry(&self, rto_base: SimTime) -> RetryStats {
        RetryStats {
            retries: self.retries,
            retrans_bytes: self.resends as u64 * CTRL_MSG_BYTES,
            retry_wait: rto_base * ((1u64 << self.retries) - 1),
        }
    }
}

/// The transfers from the oldest one still in flight on: transfer
/// `first + k` is `slots[k]`, `None` once it has retired. A retired
/// transfer leaves once every older one has, so no slot outlives the oldest
/// transfer in flight. Ids are sequential and never reused, and an id below
/// the window reads as retired.
#[derive(Default)]
struct Transfers {
    first: u32,
    slots: VecDeque<Option<Transfer>>,
}

impl Transfers {
    /// Start tracking `t` under the next id.
    fn push(&mut self, t: Transfer) -> TransferId {
        let id = TransferId(self.first + self.slots.len() as u32);
        self.slots.push_back(Some(t));
        id
    }

    /// Transfer `id`, unless it has retired.
    fn get(&mut self, id: TransferId) -> Option<&mut Transfer> {
        let k = id.0.checked_sub(self.first)?;
        self.slots.get_mut(k as usize)?.as_mut()
    }

    /// Retire live transfer `id`, then drop the retired slots at the front.
    /// Returns the transfer.
    fn retire(&mut self, id: TransferId) -> Transfer {
        let t = self.slots[(id.0 - self.first) as usize].take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.first += 1;
        }
        t.expect("live transfer")
    }
}

/// The fabric-wide network simulator.
pub struct NetSim {
    cfg: NetworkSpec,
    /// The routed fabric: link set + deterministic next-hop rule.
    fabric: Fabric,
    /// NIC egress (DMA/PIO injection) resource per node.
    nic_tx: Vec<ResourceId>,
    /// NIC ingress resource per node.
    nic_rx: Vec<ResourceId>,
    /// One fluid resource per directed fabric link, in `fabric.links()`
    /// order.
    links: Vec<ResourceId>,
    /// The transfers in flight, by id; see [`Transfers`].
    transfers: Transfers,
    /// Registered buffer ids per node (the pin-down cache).
    reg_cache: Vec<HashSet<u64, IdBuildHasher>>,
    /// Reused buffer a payload path is assembled in before it is copied
    /// out at its exact length.
    path_buf: Vec<ResourceId>,
    lat_mult: f64,
    bw_mult: f64,
    idle_penalty_s: f64,
    /// Per-node DMA scale from the uncore frequency (managed by
    /// `set_uncore`), composed with jitter and NIC stalls in `set_nic_caps`.
    uncore_scale: Vec<f64>,
    /// Injected faults (empty plan when healthy).
    faults: FaultPlan,
    /// Which link-degradation windows are currently open.
    degradation_active: Vec<bool>,
    /// Open NIC-stall windows (stalls apply to both NICs).
    stalls_active: usize,
    /// Drop-decision streams, armed only when the plan drops messages so a
    /// healthy run's event stream is byte-identical to pre-fault builds.
    drop_rts_rng: Option<Pcg32>,
    drop_cts_rng: Option<Pcg32>,
    /// Base retransmission timeout (first retry; doubles per attempt).
    rto_base: SimTime,
}

impl NetSim {
    /// Build NIC + wire resources for the paper's two-node point-to-point
    /// fabric of `spec` machines (the degenerate [`FabricSpec::Direct`]
    /// case — resource names and order are frozen by the golden traces).
    pub fn build(engine: &mut Engine, spec: &MachineSpec) -> NetSim {
        Self::build_fabric(engine, spec, FabricSpec::Direct.build())
    }

    /// Build NIC resources for every node of `fabric` plus one fluid
    /// resource per directed fabric link.
    pub fn build_fabric(engine: &mut Engine, spec: &MachineSpec, fabric: Fabric) -> NetSim {
        let cfg = spec.network.clone();
        let n = fabric.nodes();
        let nic_tx: Vec<_> = (0..n)
            .map(|i| engine.add_resource(format!("n{}.nic_tx", i), cfg.dma_bw))
            .collect();
        let nic_rx: Vec<_> = (0..n)
            .map(|i| engine.add_resource(format!("n{}.nic_rx", i), cfg.dma_bw))
            .collect();
        let links: Vec<_> = fabric
            .links()
            .iter()
            .map(|l| engine.add_resource(&l.name, cfg.link_bw * l.bw_scale))
            .collect();
        // A generous default RTO: several wire round-trips, but far below
        // any experiment's total runtime.
        let rto_base = SimTime::from_secs_f64(cfg.wire_latency_s * 16.0).max(SimTime::US);
        NetSim {
            cfg,
            fabric,
            nic_tx,
            nic_rx,
            links,
            transfers: Transfers::default(),
            reg_cache: vec![HashSet::default(); n],
            path_buf: Vec::new(),
            lat_mult: 1.0,
            bw_mult: 1.0,
            idle_penalty_s: spec.idle_uncore_penalty_s,
            uncore_scale: vec![1.0; n],
            faults: FaultPlan::default(),
            degradation_active: Vec::new(),
            stalls_active: 0,
            drop_rts_rng: None,
            drop_cts_rng: None,
            rto_base,
        }
    }

    /// The routed fabric this simulator runs over.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The path of transfer `id`'s payload: the sender's memory path as
    /// read by `read_by`, the sender's NIC, each link of
    /// [`Fabric::route`] in hop order, the receiver's NIC, then the
    /// receiver's memory path as written by its NIC. Assembled in a reused
    /// buffer and returned as one exact-capacity `Vec`; the route is walked
    /// here, when the payload is injected. Each call counts one
    /// `net.route.intern_hit`, a payload path routed through
    /// [`Fabric::route`]; the counter keeps its name because goldens and
    /// the benchmark read it.
    fn payload_path(
        &mut self,
        id: TransferId,
        sender: &NodeRef<'_>,
        receiver: &NodeRef<'_>,
        read_by: Requester,
    ) -> Vec<ResourceId> {
        telemetry::counter_add("net.route.intern_hit", 1);
        let t = self.transfers.get(id).expect("live transfer");
        let mut path = std::mem::take(&mut self.path_buf);
        path.clear();
        sender.mem.path_into(read_by, t.data_numa, &mut path);
        path.push(self.nic_tx[t.from as usize]);
        let hops = self.fabric.route(t.from as usize, t.to as usize);
        path.extend(hops.map(|l| self.links[l as usize]));
        path.push(self.nic_rx[t.to as usize]);
        receiver
            .mem
            .path_into(Requester::Nic, t.dest_numa, &mut path);
        let exact = path.to_vec();
        self.path_buf = path;
        exact
    }

    /// Number of nodes on the fabric.
    pub fn nodes(&self) -> usize {
        self.nic_tx.len()
    }

    /// Network parameters in use.
    pub fn config(&self) -> &NetworkSpec {
        &self.cfg
    }

    /// Set this run's jitter multipliers (drawn by the benchmark harness
    /// from a seeded stream) and refresh wire/NIC capacities.
    pub fn set_jitter(&mut self, engine: &mut Engine, lat_mult: f64, bw_mult: f64) {
        assert!(lat_mult > 0.0 && bw_mult > 0.0);
        self.lat_mult = lat_mult;
        self.bw_mult = bw_mult;
        self.recompute_caps(engine);
    }

    /// Scale `node`'s DMA path with its uncore frequency `ghz` (the ±4 %
    /// bandwidth effect of §3.1).
    ///
    /// Writes only that node's two NIC capacities, and only when its scale
    /// changes bits: link capacities do not depend on the uncore, and every
    /// other input of `recompute_caps` (jitter, fault windows, stalls)
    /// rewrites every capacity itself when it changes.
    pub fn set_uncore(&mut self, engine: &mut Engine, spec: &MachineSpec, node: usize, ghz: f64) {
        let (lo, hi) = spec.uncore_range;
        let t = ((ghz - lo) / (hi - lo)).clamp(0.0, 1.0);
        let scale = 1.0 - DMA_UNCORE_SPAN * (1.0 - t);
        if scale.to_bits() != self.uncore_scale[node].to_bits() {
            self.uncore_scale[node] = scale;
            self.set_nic_caps(engine, node);
        }
    }

    /// Write `node`'s NIC capacities: the DMA bandwidth under jitter, the
    /// node's uncore scale and any open NIC stall.
    fn set_nic_caps(&self, engine: &mut Engine, node: usize) {
        let nic_mult = if self.stalls_active > 0 { 0.0 } else { 1.0 };
        let cap = self.cfg.dma_bw * self.bw_mult * self.uncore_scale[node] * nic_mult;
        engine.set_capacity(self.nic_tx[node], cap);
        engine.set_capacity(self.nic_rx[node], cap);
    }

    /// Recompute link and NIC capacities from the composition of jitter,
    /// uncore scaling and currently open fault windows.
    fn recompute_caps(&self, engine: &mut Engine) {
        let degrade: f64 = self
            .faults
            .link_degradations
            .iter()
            .zip(&self.degradation_active)
            .filter(|(_, &on)| on)
            .map(|(d, _)| d.factor)
            .product();
        for (w, l) in self.links.iter().zip(self.fabric.links()) {
            engine.set_capacity(*w, self.cfg.link_bw * l.bw_scale * self.bw_mult * degrade);
        }
        for n in 0..self.nodes() {
            self.set_nic_caps(engine, n);
        }
    }

    /// Install a fault plan: schedules every degradation/stall window on the
    /// engine and arms the control-message drop streams. Call at most once
    /// per run, before traffic starts. An empty plan changes nothing — the
    /// event stream stays identical to a build without fault support.
    pub fn apply_faults(
        &mut self,
        engine: &mut Engine,
        plan: &FaultPlan,
    ) -> Result<(), FaultPlanError> {
        plan.validate()?;
        self.faults = plan.clone();
        self.degradation_active = vec![false; plan.link_degradations.len()];
        self.stalls_active = 0;
        for (i, d) in plan.link_degradations.iter().enumerate() {
            engine.at(d.start, self.window_tag(Step::LinkFaultStart, i));
            engine.at(d.end, self.window_tag(Step::LinkFaultEnd, i));
        }
        for (i, s) in plan.nic_stalls.iter().enumerate() {
            engine.at(s.start, self.window_tag(Step::NicStallStart, i));
            engine.at(s.end, self.window_tag(Step::NicStallEnd, i));
        }
        self.drop_rts_rng = (plan.drop_rts > 0.0).then(|| plan.stream(STREAM_DROP_RTS));
        self.drop_cts_rng = (plan.drop_cts > 0.0).then(|| plan.stream(STREAM_DROP_CTS));
        Ok(())
    }

    /// Total payload bytes actually delivered across the fabric links
    /// (control messages are modelled as pure latency and carry no wire
    /// volume). On a multi-hop fabric a payload is counted once per hop.
    /// Retransmitted control bytes are reported per send in
    /// [`RetryStats::retrans_bytes`].
    pub fn wire_delivered(&self, engine: &Engine) -> f64 {
        self.links.iter().map(|&w| engine.delivered(w)).sum()
    }

    /// Payload bytes delivered across one fabric link (index into
    /// [`Fabric::links`]).
    pub fn link_delivered(&self, engine: &Engine, link: usize) -> f64 {
        engine.delivered(self.links[link])
    }

    fn step_tag(&self, id: TransferId, step: Step) -> u64 {
        tag(tags::ns::NET, kind_index(step as u32, id.0))
    }

    /// Tag for a fault-window edge; the transfer-id slot carries the window
    /// index instead.
    fn window_tag(&self, step: Step, window: usize) -> u64 {
        tag(tags::ns::NET, kind_index(step as u32, window as u32))
    }

    /// True if an event tag belongs to netsim.
    pub fn owns(&self, event_tag: u64) -> bool {
        simcore::namespace(event_tag) == tags::ns::NET
    }

    /// Package-idle latency penalty given machine-wide heavy-core count.
    fn idle_penalty(&self, heavy_total: u32) -> SimTime {
        let fade = (1.0 - heavy_total as f64 / IDLE_PENALTY_FADE_CORES).max(0.0);
        SimTime::from_secs_f64(self.idle_penalty_s * fade * self.lat_mult)
    }

    /// Begin a send of `size` bytes from `from_node`'s `data_numa` to
    /// `to_node`'s `dest_numa`. `buffer` keys the registration cache.
    #[allow(clippy::too_many_arguments)]
    pub fn start_send(
        &mut self,
        engine: &mut Engine,
        from_node: usize,
        to_node: usize,
        from: &NodeRef<'_>,
        size: usize,
        data_numa: NumaId,
        dest_numa: NumaId,
        buffer: u64,
    ) -> TransferId {
        debug_assert!(from_node != to_node, "self-sends never touch the fabric");
        debug_assert!(from_node < self.nodes() && to_node < self.nodes());
        let id = self.transfers.push(Transfer {
            from: from_node as u32,
            to: to_node as u32,
            size,
            data_numa,
            dest_numa,
            buffer,
            started: engine.now(),
            retries: 0,
            resends: 0,
            recv: None,
            awaiting_recv: false,
            rts_sent: false,
            rts_arrived: false,
            cts_sent: false,
            dma_started: false,
        });
        telemetry::async_begin(
            engine.now(),
            "net.xfer",
            if size <= self.cfg.eager_threshold {
                "eager"
            } else {
                "rdv"
            },
            id.0 as u64,
            Lane::Node(from_node as u32),
        );
        // Step 1: software overhead — cycles on the communication core.
        let cycles = self.cfg.sw_overhead_cycles * 0.5;
        engine.start_flow(FlowSpec {
            path: vec![from.mem.core_resource(from.comm_core)],
            volume: cycles,
            weight: 1.0,
            cap: None,
            tag: self.step_tag(id, Step::SendOverhead),
        });
        id
    }

    /// The receiver posted a receive that matched transfer `id`: a
    /// rendezvous transfer waiting for the CTS may proceed. `recv` is an
    /// opaque token that the transfer's [`NetEvent::Delivered`] or
    /// [`NetEvent::Failed`] hands back.
    pub fn recv_ready(&mut self, engine: &mut Engine, id: TransferId, recv: u32) {
        // Eager transfers may already have completed and retired; posting
        // the receive afterwards is then a no-op.
        let Some(t) = self.transfers.get(id) else {
            return;
        };
        t.recv = Some(recv);
        if t.awaiting_recv {
            t.awaiting_recv = false;
            self.send_cts(engine, id);
        }
    }

    fn send_cts(&mut self, engine: &mut Engine, id: TransferId) {
        let t = self.transfers.get(id).expect("live transfer");
        t.resends += u32::from(t.cts_sent);
        t.cts_sent = true;
        // The CTS originates on the receiver's node.
        let cts_lane = Lane::Node(t.to);
        // Fault injection: the CTS may be lost on the wire. The sender's
        // retransmission timeout will eventually re-drive the handshake.
        if let Some(rng) = &mut self.drop_cts_rng {
            if rng.next_f64() < self.faults.drop_cts {
                telemetry::instant(engine.now(), "net", "cts.drop", cts_lane);
                return;
            }
        }
        telemetry::instant(engine.now(), "net", "cts", cts_lane);
        // CTS crosses the wire back to the sender.
        let lat = SimTime::from_secs_f64(self.cfg.wire_latency_s * self.lat_mult);
        engine.after(lat, self.step_tag(id, Step::CtsArrived));
    }

    /// Advance a transfer on one of our events. `nodes(i)` returns the
    /// context of node `i` (called lazily for the two endpoints of the
    /// transfer, so an N-node cluster pays O(1) per event). Returns the
    /// event it surfaces, if any (send-complete, delivered or failed): one
    /// step surfaces at most one.
    pub fn on_event<'a>(
        &mut self,
        engine: &mut Engine,
        nodes: impl Fn(usize) -> NodeRef<'a>,
        event: &simcore::Event,
    ) -> Option<NetEvent> {
        debug_assert!(self.owns(event.tag()));
        let (step_raw, tid) = split_kind_index(simcore::payload(event.tag()));
        let step = Step::from_u32(step_raw);
        let id = TransferId(tid);
        let mut out = None;

        // Fault-window edges and timeouts are not tied to a live transfer;
        // handle them before the per-transfer prologue.
        match step {
            Step::LinkFaultStart | Step::LinkFaultEnd => {
                let starting = step == Step::LinkFaultStart;
                self.degradation_active[tid as usize] = starting;
                let name = if starting {
                    "link.degrade"
                } else {
                    "link.restore"
                };
                telemetry::instant(engine.now(), "net", name, Lane::Engine);
                self.recompute_caps(engine);
                return None;
            }
            Step::NicStallStart => {
                self.stalls_active += 1;
                telemetry::instant(engine.now(), "net", "nic.stall", Lane::Engine);
                self.recompute_caps(engine);
                return None;
            }
            Step::NicStallEnd => {
                self.stalls_active -= 1;
                telemetry::instant(engine.now(), "net", "nic.resume", Lane::Engine);
                self.recompute_caps(engine);
                return None;
            }
            Step::RtsTimeout => return self.on_rts_timeout(engine, id),
            _ => {}
        }

        let (from, to, size, buffer) = {
            let t = self.transfers.get(id).expect("live transfer");
            (t.from as usize, t.to as usize, t.size, t.buffer)
        };
        let sender = nodes(from);
        let receiver = nodes(to);

        match step {
            Step::SendOverhead => {
                // Control transactions (doorbell to the NIC) with
                // congestion-inflated latency, plus the package-idle penalty.
                let per_access = sender.mem.control_latency(
                    engine,
                    Requester::Core(sender.comm_core),
                    sender.mem.spec().nic_numa,
                );
                let mut d = per_access * (self.cfg.ctrl_accesses * 0.5 * self.lat_mult);
                d += self.idle_penalty(sender.freqs.heavy_total());
                engine.after(d, self.step_tag(id, Step::SendCtrl));
            }
            Step::SendCtrl => {
                if size <= self.cfg.eager_threshold {
                    // Eager: wire latency, then the PIO-paced payload.
                    let lat = SimTime::from_secs_f64(self.cfg.wire_latency_s * self.lat_mult);
                    engine.after(lat, self.step_tag(id, Step::EagerWire));
                } else {
                    // Rendezvous: register the buffer if needed.
                    if self.reg_cache[from].insert(buffer) {
                        let cost = SimTime::from_secs_f64(
                            (self.cfg.reg_base_s + self.cfg.reg_per_byte_s * size as f64)
                                * self.lat_mult,
                        );
                        telemetry::counter_add("net.reg_miss", 1);
                        telemetry::complete(
                            engine.now(),
                            engine.now() + cost,
                            "net",
                            "register",
                            Lane::Node(from as u32),
                        );
                        engine.after(cost, self.step_tag(id, Step::Registration));
                    } else {
                        telemetry::counter_add("net.reg_hit", 1);
                        self.send_rts(engine, id);
                    }
                }
            }
            Step::Registration => {
                self.send_rts(engine, id);
            }
            Step::EagerWire => {
                // PIO copy: payload crosses sender memory path, NIC, wire,
                // receiver NIC and receiver memory, paced by the CPU copy.
                telemetry::counter_add("net.pio.bytes", (size as u64).max(1));
                let f = sender.freqs.core_freq(sender.comm_core);
                let cap = PIO_BYTES_PER_CYCLE * f * 1e9;
                let read_by = Requester::Core(sender.comm_core);
                engine.start_flow(FlowSpec {
                    path: self.payload_path(id, &sender, &receiver, read_by),
                    volume: (size as f64).max(1.0),
                    weight: 1.0,
                    cap: Some(cap),
                    tag: self.step_tag(id, Step::EagerPayload),
                });
            }
            Step::EagerPayload | Step::DmaDone => {
                // The last byte left the sender; the receive side's software
                // overhead starts.
                if step == Step::DmaDone {
                    telemetry::async_end(
                        engine.now(),
                        "net.dma",
                        id.0 as u64,
                        Lane::Node(from as u32),
                    );
                }
                let t = self.transfers.get(id).expect("live transfer");
                let sender_elapsed = engine.now() - t.started;
                telemetry::sample("net.sender_elapsed_us", sender_elapsed.as_micros_f64());
                out = Some(NetEvent::SendComplete {
                    id,
                    from,
                    size,
                    sender_elapsed,
                    retry: t.retry(self.rto_base),
                });
                engine.start_flow(FlowSpec {
                    path: vec![receiver.mem.core_resource(receiver.comm_core)],
                    volume: self.cfg.sw_overhead_cycles * 0.5,
                    weight: 1.0,
                    cap: None,
                    tag: self.step_tag(id, Step::RecvOverhead),
                });
            }
            Step::RtsArrived => {
                let t = self.transfers.get(id).expect("live transfer");
                t.rts_arrived = true;
                if t.recv.is_some() {
                    // Also re-sends the CTS on a duplicate RTS (the previous
                    // CTS was dropped); `dma_started` dedups the sender side.
                    self.send_cts(engine, id);
                } else {
                    t.awaiting_recv = true;
                }
            }
            Step::CtsArrived => {
                {
                    let t = self.transfers.get(id).expect("live transfer");
                    if t.dma_started {
                        // Duplicate CTS from a retried handshake.
                        return None;
                    }
                    t.dma_started = true;
                }
                telemetry::async_begin(
                    engine.now(),
                    "net.dma",
                    "dma",
                    id.0 as u64,
                    Lane::Node(from as u32),
                );
                // DMA: the NIC pulls from sender memory and pushes into
                // receiver memory; the weight reflects the NIC's
                // outstanding-request aggressiveness.
                telemetry::counter_add("net.dma.bytes", size as u64);
                engine.start_flow(FlowSpec {
                    path: self.payload_path(id, &sender, &receiver, Requester::Nic),
                    volume: size as f64,
                    weight: self.cfg.nic_dma_weight,
                    cap: None,
                    tag: self.step_tag(id, Step::DmaDone),
                });
            }
            Step::RecvOverhead => {
                // Completion handling is NIC-side control traffic (CQ on
                // the NIC's NUMA node), not a DRAM access.
                let per_access = receiver.mem.control_latency(
                    engine,
                    Requester::Core(receiver.comm_core),
                    receiver.mem.spec().nic_numa,
                );
                // The idle penalty is a per-message effect; it was already
                // charged on the send side.
                let d = per_access * (self.cfg.ctrl_accesses * 0.5 * self.lat_mult);
                engine.after(d, self.step_tag(id, Step::RecvCtrl));
            }
            Step::RecvCtrl => {
                let recv = self.transfers.retire(id).recv;
                telemetry::async_end(
                    engine.now(),
                    "net.xfer",
                    id.0 as u64,
                    Lane::Node(from as u32),
                );
                out = Some(NetEvent::Delivered { id, to, recv });
            }
            Step::LinkFaultStart
            | Step::LinkFaultEnd
            | Step::NicStallStart
            | Step::NicStallEnd
            | Step::RtsTimeout => unreachable!("handled before the transfer prologue"),
        }
        out
    }

    /// A retransmission timeout expired for `id`'s rendezvous handshake.
    fn on_rts_timeout(&mut self, engine: &mut Engine, id: TransferId) -> Option<NetEvent> {
        let Some(t) = self.transfers.get(id) else {
            // Transfer already delivered and retired; stale timer.
            return None;
        };
        if t.dma_started {
            // Handshake succeeded before the timer fired.
            return None;
        }
        if t.rts_arrived && !t.cts_sent {
            // The RTS got through but the receiver has not posted a matching
            // receive yet — nothing was lost, so re-arm without counting a
            // retry (the CTS path re-checks on `recv_ready`).
            let rto = t.rto(self.rto_base);
            engine.after(rto, self.step_tag(id, Step::RtsTimeout));
            return None;
        }
        // Either the RTS or the CTS was lost.
        let lane = Lane::Node(t.from);
        telemetry::instant(engine.now(), "net", "rto", lane);
        if t.retries == DEFAULT_MAX_RETRIES {
            // Give up. This timeout re-sends nothing, so it is no retry,
            // but the sender did wait it out.
            let t = self.transfers.retire(id);
            let mut retry = t.retry(self.rto_base);
            retry.retry_wait += t.rto(self.rto_base);
            telemetry::instant(engine.now(), "net", "xfer.failed", lane);
            telemetry::async_end(engine.now(), "net.xfer", id.0 as u64, lane);
            let (from, recv) = (t.from as usize, t.recv);
            return Some(NetEvent::Failed {
                id,
                from,
                retry,
                recv,
            });
        }
        // Retransmit with backoff.
        t.retries += 1;
        telemetry::counter_add("net.retrans", 1);
        self.send_rts(engine, id);
        None
    }

    fn send_rts(&mut self, engine: &mut Engine, id: TransferId) {
        let t = self.transfers.get(id).expect("live transfer");
        t.resends += u32::from(t.rts_sent);
        t.rts_sent = true;
        let (rto, lane) = (t.rto(self.rto_base), Lane::Node(t.from));
        // With drops armed, guard every handshake with a retransmission
        // timeout. Healthy runs skip the timer entirely so their event
        // streams are untouched by fault support.
        if self.drop_rts_rng.is_some() || self.drop_cts_rng.is_some() {
            engine.after(rto, self.step_tag(id, Step::RtsTimeout));
        }
        // Fault injection: the RTS may be lost on the wire.
        if let Some(rng) = &mut self.drop_rts_rng {
            if rng.next_f64() < self.faults.drop_rts {
                telemetry::instant(engine.now(), "net", "rts.drop", lane);
                return;
            }
        }
        telemetry::instant(engine.now(), "net", "rts", lane);
        // RTS crosses the wire.
        let lat = SimTime::from_secs_f64(self.cfg.wire_latency_s * self.lat_mult);
        engine.after(lat, self.step_tag(id, Step::RtsArrived));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freq::{Activity, Governor, UncorePolicy};
    use topology::henri;

    struct World {
        engine: Engine,
        mem: [MemSystem; 2],
        freqs: [FreqModel; 2],
        net: NetSim,
        comm_core: CoreId,
    }

    fn world() -> World {
        world_with_comm_core(CoreId(35))
    }

    fn world_with_comm_core(comm_core: CoreId) -> World {
        let spec = henri();
        let mut engine = Engine::new();
        let mem = [
            MemSystem::build(&mut engine, &spec, "n0."),
            MemSystem::build(&mut engine, &spec, "n1."),
        ];
        let mut freqs = [
            FreqModel::new(&spec, Governor::Userspace(2.3), UncorePolicy::Fixed(2.4)),
            FreqModel::new(&spec, Governor::Userspace(2.3), UncorePolicy::Fixed(2.4)),
        ];
        for (f, m) in freqs.iter_mut().zip(&mem) {
            f.set_activity(comm_core, Activity::Light);
            m.apply_freqs(&mut engine, f);
        }
        let net = NetSim::build(&mut engine, &spec);
        World {
            engine,
            mem,
            freqs,
            net,
            comm_core,
        }
    }

    /// Start a `size`-byte send from node `from` to the other node.
    fn send(w: &mut World, from: usize, size: usize, buffer: u64) -> TransferId {
        let node = NodeRef {
            mem: &w.mem[from],
            freqs: &w.freqs[from],
            comm_core: w.comm_core,
        };
        let (to, numa) = (1 - from, NumaId(0));
        w.net
            .start_send(&mut w.engine, from, to, &node, size, numa, numa, buffer)
    }

    /// Hand `ev` to netsim; returns what it surfaced.
    fn on(w: &mut World, ev: &simcore::Event) -> Option<NetEvent> {
        let (mem, freqs, cc) = (&w.mem, &w.freqs, w.comm_core);
        let node = |i: usize| NodeRef {
            mem: &mem[i],
            freqs: &freqs[i],
            comm_core: cc,
        };
        w.net.on_event(&mut w.engine, node, ev)
    }

    /// Process the next engine event: `None` once the engine is empty,
    /// else what netsim surfaced for it.
    fn step(w: &mut World) -> Option<Option<NetEvent>> {
        let ev = w.engine.next()?;
        Some(on(w, &ev))
    }

    /// Run the engine dry; returns the transfers delivered, in id order.
    fn drain(w: &mut World) -> Vec<TransferId> {
        let mut delivered = Vec::new();
        while let Some(out) = step(w) {
            if let Some(NetEvent::Delivered { id, .. }) = out {
                delivered.push(id);
            }
        }
        delivered.sort_by_key(|id| id.0);
        delivered
    }

    /// Drive one message through; returns (delivery latency, sender elapsed).
    /// The delivery hands back the receive token the transfer was given.
    fn one_way(w: &mut World, size: usize, buffer: u64) -> (SimTime, SimTime) {
        let start = w.engine.now();
        let id = send(w, 0, size, buffer);
        w.net.recv_ready(&mut w.engine, id, !id.0);
        let mut send_el = None;
        loop {
            match step(w).expect("progress") {
                Some(NetEvent::SendComplete { sender_elapsed, .. }) => {
                    send_el = Some(sender_elapsed)
                }
                Some(NetEvent::Delivered { recv, .. }) => {
                    assert_eq!(recv, Some(!id.0), "the receive token");
                    return (w.engine.now() - start, send_el.unwrap());
                }
                Some(NetEvent::Failed { .. }) => panic!("healthy fabric cannot fail"),
                None => {}
            }
        }
    }

    #[test]
    fn small_message_latency_near_paper_point() {
        // 4 B at 2.3 GHz fixed: the paper measures 1.8 µs on henri.
        // Communication thread near the NIC (last core of NUMA 0).
        let mut w = world_with_comm_core(CoreId(8));
        let (lat, _) = one_way(&mut w, 4, 1);
        let us = lat.as_micros_f64();
        assert!((1.5..2.2).contains(&us), "latency {} µs", us);
    }

    #[test]
    fn far_comm_thread_adds_numa_latency() {
        // Fig 5 baselines: 1.39 µs (near) vs 1.67 µs (far) — ~0.3 µs apart.
        let mut near = world_with_comm_core(CoreId(8));
        let mut far = world_with_comm_core(CoreId(35));
        let (ln, _) = one_way(&mut near, 4, 1);
        let (lf, _) = one_way(&mut far, 4, 1);
        let delta = lf.as_micros_f64() - ln.as_micros_f64();
        assert!((0.1..0.6).contains(&delta), "delta {} µs", delta);
    }

    #[test]
    fn latency_increases_at_low_frequency() {
        // Paper: 3.1 µs at 1 GHz vs 1.8 µs at 2.3 GHz (+72 %).
        let spec = henri();
        let lat_at = |ghz: f64| {
            let mut w = world();
            for f in &mut w.freqs {
                *f = FreqModel::new(&spec, Governor::Userspace(ghz), UncorePolicy::Fixed(2.4));
                f.set_activity(w.comm_core, Activity::Light);
            }
            for i in 0..2 {
                w.mem[i].apply_freqs(&mut w.engine, &w.freqs[i]);
            }
            one_way(&mut w, 4, 1).0.as_micros_f64()
        };
        let slow = lat_at(1.0);
        let fast = lat_at(2.3);
        assert!(slow > fast * 1.5, "slow {} fast {}", slow, fast);
    }

    #[test]
    fn large_message_bandwidth_near_line_rate() {
        let mut w = world();
        let size = 64 * 1024 * 1024;
        // First send pays registration; repeat to hit the cache.
        let (_, _) = one_way(&mut w, size, 7);
        let (lat, _) = one_way(&mut w, size, 7);
        let bw = size as f64 / lat.as_secs_f64();
        // dma_bw is 10.8 GB/s; expect ≥ 90 % of it end to end.
        assert!(bw > 9.7e9, "bandwidth {} GB/s", bw / 1e9);
        assert!(bw < 12.0e9);
    }

    #[test]
    fn registration_cache_speeds_up_reuse() {
        let mut w = world();
        let size = 4 * 1024 * 1024;
        let (first, _) = one_way(&mut w, size, 42);
        let (second, _) = one_way(&mut w, size, 42);
        assert!(
            first.as_secs_f64() > second.as_secs_f64() + w.net.cfg.reg_base_s,
            "first {} second {}",
            first,
            second
        );
        // A different buffer pays registration again.
        let (third, _) = one_way(&mut w, size, 43);
        assert!(third > second);
    }

    #[test]
    fn eager_rendezvous_continuity() {
        // Latency should not jump wildly across the protocol threshold.
        let mut w = world();
        let thr = w.net.cfg.eager_threshold;
        let (below, _) = one_way(&mut w, thr - 64, 1);
        let (_, _) = one_way(&mut w, thr + 64, 2); // pays registration
        let (above, _) = one_way(&mut w, thr + 64, 2); // cached
        assert!(
            above.as_secs_f64() < below.as_secs_f64() * 2.0,
            "below {} above {}",
            below,
            above
        );
    }

    #[test]
    fn send_complete_precedes_delivery() {
        let mut w = world();
        let (lat, send_el) = one_way(&mut w, 1 << 20, 9);
        assert!(send_el < lat);
    }

    #[test]
    fn bandwidth_jitter_scales_rate() {
        let mut w = world();
        let size = 16 * 1024 * 1024;
        let (_, _) = one_way(&mut w, size, 5); // register
        let (base, _) = one_way(&mut w, size, 5);
        w.net.set_jitter(&mut w.engine, 1.0, 0.5);
        let (slowed, _) = one_way(&mut w, size, 5);
        assert!(slowed.as_secs_f64() > base.as_secs_f64() * 1.5);
    }

    #[test]
    fn uncore_scales_dma_capacity() {
        let mut w = world();
        let spec = henri();
        let set_both = |w: &mut World, ghz: f64| {
            for node in 0..2 {
                w.net.set_uncore(&mut w.engine, &spec, node, ghz);
            }
        };
        set_both(&mut w, 1.2);
        let size = 64 * 1024 * 1024;
        let (_, _) = one_way(&mut w, size, 3);
        let (low, _) = one_way(&mut w, size, 3);
        set_both(&mut w, 2.4);
        let (high, _) = one_way(&mut w, size, 3);
        let bw_low = size as f64 / low.as_secs_f64();
        let bw_high = size as f64 / high.as_secs_f64();
        // ~4 % effect, like the paper's 10.1 vs 10.5 GB/s.
        assert!(bw_high > bw_low * 1.02, "low {} high {}", bw_low, bw_high);
        assert!(bw_high < bw_low * 1.10);
    }

    /// An unchanged uncore scale writes nothing: a capacity written by
    /// hand stays, and nothing is left to re-solve. A changed one moves
    /// only that node's NICs; the other node's NICs and the link, whose
    /// capacities do not depend on the uncore, keep theirs.
    #[test]
    fn unchanged_uncore_leaves_capacities_alone() {
        let mut w = world();
        let spec = henri();
        let nics = [
            w.net.nic_tx[0],
            w.net.nic_rx[0],
            w.net.nic_tx[1],
            w.net.nic_rx[1],
        ];
        let link = w.net.links[0];
        for node in 0..2 {
            w.net.set_uncore(&mut w.engine, &spec, node, 1.2);
        }
        let low = nics.map(|r| w.engine.capacity(r));
        let link_bw = w.engine.capacity(link);
        assert!(low[0] < spec.network.dma_bw, "low uncore slows the NIC");
        // A flow on the link, solved, so a re-solve would show.
        let f = w.engine.start_flow(FlowSpec {
            path: vec![link],
            volume: 1e12,
            weight: 1.0,
            cap: None,
            tag: 0,
        });
        w.engine.set_capacity(link, link_bw / 2.0);
        w.engine.flow_rate(f);
        telemetry::install();
        for node in 0..2 {
            w.net.set_uncore(&mut w.engine, &spec, node, 1.2);
        }
        w.engine.flow_rate(f);
        let journal = telemetry::take().expect("journal");
        assert_eq!(nics.map(|r| w.engine.capacity(r)), low);
        assert_eq!(w.engine.capacity(link), link_bw / 2.0, "refreshed");
        assert_eq!(journal.counters.get("fluid.reallocs"), None, "re-solved");
        w.net.set_uncore(&mut w.engine, &spec, 0, 2.4);
        assert!(w.engine.capacity(nics[0]) > low[0], "NIC did not move");
        assert_eq!(w.engine.capacity(nics[1]), w.engine.capacity(nics[0]));
        assert_eq!(w.engine.capacity(nics[2]), low[2]);
        assert_eq!(w.engine.capacity(nics[3]), low[3]);
        assert_eq!(w.engine.capacity(link), link_bw / 2.0, "link rewritten");
    }

    /// Drive one message to completion or failure under faults; returns
    /// whether it was delivered, and the retry work its `SendComplete` or
    /// `Failed` event reported.
    fn one_way_faulted(w: &mut World, size: usize, buffer: u64) -> (bool, RetryStats) {
        let id = send(w, 0, size, buffer);
        w.net.recv_ready(&mut w.engine, id, !id.0);
        let mut retry = None;
        while let Some(out) = step(w) {
            match out {
                Some(NetEvent::Delivered { .. }) => return (true, retry.expect("completed")),
                Some(NetEvent::Failed { retry: r, recv, .. }) => {
                    assert_eq!(recv, Some(!id.0), "the receive token");
                    return (false, r);
                }
                Some(NetEvent::SendComplete { retry: r, .. }) => retry = Some(r),
                None => {}
            }
        }
        (false, retry.expect("the send completed or failed"))
    }

    /// The timeouts a transfer waits out over `retries` retries: the base,
    /// doubled per retry.
    fn waited(w: &World, retries: u32) -> SimTime {
        (0..retries).fold(SimTime::ZERO, |sum, k| sum + w.net.rto_base * (1u64 << k))
    }

    #[test]
    fn cts_drops_trigger_retransmissions_then_delivery() {
        let mut w = world();
        let plan = FaultPlan::new(42).with_cts_drop(0.5);
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        let size = 4 << 20; // rendezvous
        let mut total_retries = 0;
        for buf in 0..8 {
            let (delivered, rs) = one_way_faulted(&mut w, size, 100 + buf);
            assert!(delivered, "p=0.5 with 8 retries should recover");
            total_retries += rs.retries;
            // A lost CTS costs one timeout, then the RTS and the CTS again.
            let resent = 2 * rs.retries as u64 * CTRL_MSG_BYTES;
            assert_eq!(rs.retrans_bytes, resent, "send {buf}: {rs:?}");
            assert_eq!(rs.retry_wait, waited(&w, rs.retries), "send {buf}");
        }
        assert!(total_retries > 0, "half the CTSes should have been dropped");
    }

    #[test]
    fn certain_drops_exhaust_retries_and_fail() {
        let mut w = world();
        let plan = FaultPlan::new(7).with_rts_drop(1.0);
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        telemetry::install();
        let (delivered, rs) = one_way_faulted(&mut w, 4 << 20, 1);
        let journal = telemetry::take().expect("journal");
        assert!(!delivered, "nothing can get through at p=1");
        assert_eq!(
            rs.retries, DEFAULT_MAX_RETRIES,
            "every re-send, and not the give-up timeout"
        );
        assert_eq!(
            journal.counters.get("net.retrans"),
            Some(&(DEFAULT_MAX_RETRIES as u64))
        );
        // No RTS arrives, so no CTS is ever sent: only the RTS is re-sent.
        assert_eq!(
            rs.retrans_bytes,
            DEFAULT_MAX_RETRIES as u64 * CTRL_MSG_BYTES
        );
        // The sender waits out the give-up timeout too.
        assert_eq!(rs.retry_wait, waited(&w, DEFAULT_MAX_RETRIES + 1));
    }

    #[test]
    fn identical_seeds_replay_identical_fault_traces() {
        let run = |seed: u64| {
            let mut w = world();
            let plan = FaultPlan::new(seed).with_cts_drop(0.4).with_rts_drop(0.2);
            w.net.apply_faults(&mut w.engine, &plan).unwrap();
            let mut trace = Vec::new();
            for buf in 0..6 {
                let (delivered, rs) = one_way_faulted(&mut w, 2 << 20, buf);
                trace.push((delivered, rs.retries, rs.retrans_bytes, w.engine.now()));
            }
            trace
        };
        assert_eq!(run(1234), run(1234), "same seed must replay exactly");
        assert_ne!(run(1234), run(4321), "different seeds should diverge");
    }

    #[test]
    fn link_degradation_window_slows_transfer() {
        // Healthy baseline.
        let mut w = world();
        let size = 64 << 20;
        let (_, _) = one_way(&mut w, size, 1); // warm registration cache
        let t0 = w.engine.now();
        let (healthy, _) = one_way(&mut w, size, 1);
        drop(w);

        // Same transfer with the wire degraded to 25 % for a window that
        // covers it.
        let mut w = world();
        let plan =
            FaultPlan::new(0).with_link_degradation(SimTime::ZERO, t0 + SimTime::SEC * 10, 0.25);
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        let (_, _) = one_way(&mut w, size, 1);
        let (degraded, _) = one_way(&mut w, size, 1);
        assert!(
            degraded.as_secs_f64() > healthy.as_secs_f64() * 1.5,
            "healthy {:?} degraded {:?}",
            healthy,
            degraded
        );
    }

    #[test]
    fn nic_stall_window_pauses_then_resumes() {
        let mut w = world();
        let size = 16 << 20;
        let (_, _) = one_way(&mut w, size, 1);
        let healthy = {
            let t0 = w.engine.now();
            let (lat, _) = one_way(&mut w, size, 1);
            let _ = t0;
            lat
        };
        drop(w);

        let mut w = world();
        // Stall both NICs for 5 ms starting almost immediately.
        let stall = SimTime::from_millis(5);
        let plan = FaultPlan::new(0)
            .with_nic_stall(SimTime::from_micros(10), SimTime::from_micros(10) + stall);
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        let (stalled, _) = one_way(&mut w, size, 1);
        // The transfer must still complete, later than healthy by roughly
        // the stall length (registration happens inside the stall here, so
        // only a lower bound is asserted).
        assert!(
            stalled.as_secs_f64() > healthy.as_secs_f64(),
            "stalled {:?} healthy {:?}",
            stalled,
            healthy
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        let mut base = world();
        let (lat_base, _) = one_way(&mut base, 4 << 20, 1);
        let t_base = base.engine.now();

        let mut faulted = world();
        faulted
            .net
            .apply_faults(&mut faulted.engine, &FaultPlan::new(99))
            .unwrap();
        let (lat_faulted, _) = one_way(&mut faulted, 4 << 20, 1);
        assert_eq!(lat_base, lat_faulted);
        assert_eq!(t_base, faulted.engine.now());
    }

    /// A 4-node world over an arbitrary fabric (every node reuses the same
    /// MemSystem/FreqModel layout; the fabric is what differs).
    struct FabricWorld {
        engine: Engine,
        mem: Vec<MemSystem>,
        freqs: Vec<FreqModel>,
        net: NetSim,
        comm_core: CoreId,
    }

    fn fabric_world(fabric: topology::fabric::Fabric) -> FabricWorld {
        let spec = henri();
        let comm_core = CoreId(8);
        let mut engine = Engine::new();
        let n = fabric.nodes();
        let mem: Vec<_> = (0..n)
            .map(|i| MemSystem::build(&mut engine, &spec, format!("n{}.", i)))
            .collect();
        let mut freqs: Vec<_> = (0..n)
            .map(|_| FreqModel::new(&spec, Governor::Userspace(2.3), UncorePolicy::Fixed(2.4)))
            .collect();
        for (f, m) in freqs.iter_mut().zip(&mem) {
            f.set_activity(comm_core, Activity::Light);
            m.apply_freqs(&mut engine, f);
        }
        let net = NetSim::build_fabric(&mut engine, &spec, fabric);
        FabricWorld {
            engine,
            mem,
            freqs,
            net,
            comm_core,
        }
    }

    /// Drive one `src → dst` message to delivery on a fabric world, checking
    /// that its events name its own endpoints and size.
    fn fabric_one_way(w: &mut FabricWorld, src: usize, dst: usize, size: usize, buffer: u64) {
        let id = {
            let nref = NodeRef {
                mem: &w.mem[src],
                freqs: &w.freqs[src],
                comm_core: w.comm_core,
            };
            w.net.start_send(
                &mut w.engine,
                src,
                dst,
                &nref,
                size,
                NumaId(0),
                NumaId(0),
                buffer,
            )
        };
        w.net.recv_ready(&mut w.engine, id, 7);
        let mut delivered = false;
        while !delivered {
            let ev = w.engine.next().expect("progress");
            if w.net.owns(ev.tag()) {
                let (mem, freqs, cc) = (&w.mem, &w.freqs, w.comm_core);
                if let Some(out) = w.net.on_event(
                    &mut w.engine,
                    |i| NodeRef {
                        mem: &mem[i],
                        freqs: &freqs[i],
                        comm_core: cc,
                    },
                    &ev,
                ) {
                    match out {
                        NetEvent::SendComplete {
                            id: t,
                            from,
                            size: bytes,
                            ..
                        } => assert_eq!((t, from, bytes), (id, src, size)),
                        NetEvent::Delivered { id: t, to, recv } => {
                            assert_eq!((t, to, recv), (id, dst, Some(7)));
                            delivered = true;
                        }
                        NetEvent::Failed { .. } => panic!("healthy fabric cannot fail"),
                    }
                }
            }
        }
    }

    #[test]
    fn multi_hop_routes_conserve_bytes_per_link() {
        use topology::fabric::FabricPreset;
        // Send distinct payloads across every fabric preset and assert each
        // link delivered exactly the bytes of the messages routed over it.
        for preset in FabricPreset::ALL {
            let fabric = preset.spec(8).build_for(8);
            let mut w = fabric_world(fabric);
            let msgs = [(0usize, 5usize, 4096usize), (3, 6, 100_000), (7, 1, 64)];
            let mut expect = vec![0.0f64; w.net.fabric().links().len()];
            for (i, &(s, d, size)) in msgs.iter().enumerate() {
                fabric_one_way(&mut w, s, d, size, 1000 + i as u64);
                for l in w.net.fabric().route(s, d) {
                    expect[l as usize] += (size as f64).max(1.0);
                }
            }
            for (l, &want) in expect.iter().enumerate() {
                let got = w.net.link_delivered(&w.engine, l);
                // Event times are quantized to picoseconds, so a flow may
                // overshoot its volume by up to rate × 1 ps at completion.
                let quantum = w.net.fabric().links()[l].bw_scale * 12.08e9 * 1e-12;
                let slack = quantum * msgs.len() as f64 + 1e-9;
                assert!(
                    (got - want).abs() <= slack,
                    "{}: link {} delivered {} expected {} (slack {})",
                    preset.name(),
                    w.net.fabric().links()[l].name,
                    got,
                    want,
                    slack
                );
            }
        }
    }

    /// A payload crosses the sender's memory path, its NIC, each link of
    /// `Fabric::route` in hop order, the receiver's NIC and the receiver's
    /// memory path: on the direct wire and every preset at 8 nodes, for
    /// every pair of distinct nodes (a self-send never reaches netsim) and
    /// both readers (the PIO copy's core, the NIC's DMA).
    #[test]
    fn payload_path_follows_the_fabric_route() {
        use topology::fabric::FabricPreset;
        let fabrics = std::iter::once(FabricSpec::Direct.build())
            .chain(FabricPreset::ALL.iter().map(|p| p.spec(8).build_for(8)));
        for fabric in fabrics {
            let FabricWorld {
                mut engine,
                mem,
                freqs,
                mut net,
                comm_core,
            } = fabric_world(fabric);
            let kind = net.fabric.kind();
            let node = |i: usize| NodeRef {
                mem: &mem[i],
                freqs: &freqs[i],
                comm_core,
            };
            for from in 0..net.nodes() {
                for to in (0..net.nodes()).filter(|&to| to != from) {
                    let (src, dst) = (NumaId(0), NumaId(1));
                    let id = net.start_send(&mut engine, from, to, &node(from), 64, src, dst, 0);
                    for read_by in [Requester::Core(comm_core), Requester::Nic] {
                        let mut want = mem[from].path(read_by, src);
                        want.push(net.nic_tx[from]);
                        let hops = net.fabric.route(from, to);
                        want.extend(hops.map(|l| net.links[l as usize]));
                        want.push(net.nic_rx[to]);
                        want.extend(mem[to].path(Requester::Nic, dst));
                        let got = net.payload_path(id, &node(from), &node(to), read_by);
                        assert_eq!(got, want, "{kind:?}: {from} -> {to}, {read_by:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn switch_vs_direct_same_message_same_protocol_times() {
        // On an uncontended path the extra switch hop only adds a bandwidth
        // resource (latency is end-to-end), so eager latency matches the
        // direct wire.
        let mut direct = world_with_comm_core(CoreId(8));
        let (d_lat, _) = one_way(&mut direct, 4096, 1);
        let mut sw = fabric_world(FabricSpec::Switch.build_for(2));
        fabric_one_way(&mut sw, 0, 1, 4096, 1);
        let s_lat = sw.engine.now();
        assert_eq!(d_lat, s_lat, "direct {:?} switch {:?}", d_lat, s_lat);
    }

    #[test]
    fn rendezvous_waits_for_receiver() {
        // Without recv_ready the transfer must stall at the RTS.
        let mut w = world();
        let id = send(&mut w, 0, 1 << 20, 77);
        assert!(drain(&mut w).is_empty(), "must wait for the receive");
        w.net.recv_ready(&mut w.engine, id, 0);
        assert_eq!(drain(&mut w), [id]);
    }

    /// `(first id, slots)` of the transfer window.
    fn window(w: &World) -> (u32, usize) {
        (w.net.transfers.first, w.net.transfers.slots.len())
    }

    /// A transfer that retires before an older one keeps its slot until
    /// every older one has retired; then they all leave the window, and
    /// ids carry on from where they were.
    #[test]
    fn retired_transfers_leave_only_behind_the_oldest() {
        let mut w = world();
        // Transfer 0 waits at its RTS for a receive; 1 and 2 are eager.
        let slow = send(&mut w, 0, 1 << 20, 1);
        let fast = [send(&mut w, 0, 64, 2), send(&mut w, 1, 64, 3)];
        assert_eq!(drain(&mut w), fast);
        assert!(fast.iter().all(|&id| w.net.transfers.get(id).is_none()));
        assert!(w.net.transfers.get(slow).is_some());
        assert_eq!(window(&w), (0, 3));
        w.net.recv_ready(&mut w.engine, slow, 0);
        assert_eq!(drain(&mut w), [slow]);
        assert_eq!(window(&w), (3, 0));
        assert_eq!(send(&mut w, 0, 64, 4), TransferId(3));
    }

    /// Posting the receive of an eager transfer that has already retired
    /// reaches no other transfer, not even the one now at the window's
    /// front.
    #[test]
    fn recv_ready_after_retirement_changes_nothing() {
        let mut w = world();
        let eager = send(&mut w, 0, 64, 1);
        assert_eq!(drain(&mut w), [eager]);
        let rdv = send(&mut w, 0, 1 << 20, 2);
        assert_eq!(window(&w), (rdv.0, 1), "the eager id is below the window");
        w.net.recv_ready(&mut w.engine, eager, 0);
        assert!(
            drain(&mut w).is_empty(),
            "the rendezvous waits for its own receive"
        );
        w.net.recv_ready(&mut w.engine, rdv, 1);
        assert_eq!(drain(&mut w), [rdv]);
    }

    /// A retransmission timeout that fires after its transfer retired
    /// finds nothing to retry, even with a younger transfer at the
    /// window's front.
    #[test]
    fn rts_timeout_after_retirement_changes_nothing() {
        let mut w = world();
        // A plan that never drops still guards every handshake with a
        // timeout; at 1 ms it fires long after its transfer is delivered.
        let plan = FaultPlan::new(3).with_rts_drop(f64::MIN_POSITIVE);
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        w.net.rto_base = SimTime::from_millis(1);
        let done = send(&mut w, 0, 128 << 10, 1);
        w.net.recv_ready(&mut w.engine, done, 0);
        while !matches!(step(&mut w), Some(Some(NetEvent::Delivered { .. }))) {}
        // Registering 16 MiB takes 1.7 ms, across the stale timeout.
        let live = send(&mut w, 0, 16 << 20, 2);
        w.net.recv_ready(&mut w.engine, live, 1);
        let rto = w.net.rto_base;
        let mut stale_fired = false;
        loop {
            let ev = w.engine.next().expect("progress");
            let (step, tid) = split_kind_index(simcore::payload(ev.tag()));
            let stale = step == Step::RtsTimeout as u32 && tid == done.0;
            let before = w.net.transfers.get(live).map(|t| t.retry(rto));
            let out = on(&mut w, &ev);
            if stale {
                stale_fired = true;
                assert!(out.is_none());
                assert_eq!(w.net.transfers.get(live).map(|t| t.retry(rto)), before);
                assert_eq!(window(&w), (live.0, 1));
            }
            match out {
                Some(NetEvent::SendComplete { retry, .. }) => {
                    assert_eq!(retry, RetryStats::default())
                }
                Some(NetEvent::Delivered { .. }) => break,
                Some(NetEvent::Failed { .. }) => panic!("nothing was dropped"),
                None => {}
            }
        }
        assert!(
            stale_fired,
            "the timeout fired while the next transfer was live"
        );
    }

    /// Ping-pongs, each message sent once the one before it is delivered,
    /// keep at most two slots however many messages they send.
    #[test]
    fn back_to_back_ping_pongs_keep_at_most_two_slots() {
        let mut w = world();
        for size in [4, 1 << 20] {
            for _ in 0..20 {
                for from in [0, 1] {
                    let id = send(&mut w, from, size, from as u64);
                    w.net.recv_ready(&mut w.engine, id, 0);
                    loop {
                        let out = step(&mut w).expect("progress");
                        assert!(window(&w).1 <= 2, "{:?}", window(&w));
                        if matches!(out, Some(NetEvent::Delivered { .. })) {
                            break;
                        }
                    }
                }
            }
        }
        assert_eq!(window(&w), (80, 0));
    }
}
