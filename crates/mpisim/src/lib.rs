//! # mpisim — an N-rank message-passing layer over the simulated fabric
//!
//! The paper's communication side is MadMPI (NewMadeleine's MPI interface):
//! a dedicated communication thread per process submits operations and makes
//! them progress. This crate provides the equivalent layer for the
//! simulator:
//!
//! * [`Cluster`] — owns the whole simulated world (N identical nodes:
//!   memory systems, frequency models, compute executors, NIC + routed
//!   fabric) and routes engine events to their subsystems;
//! * MPI-flavoured non-blocking point-to-point operations
//!   ([`Cluster::isend_to`] / [`Cluster::irecv_from`]) with FIFO tag
//!   matching and an unexpected-message queue; the paper's two-rank world is
//!   the degenerate case ([`Cluster::isend`] / [`Cluster::irecv`] wrap the
//!   N-rank path with `to = 1 - from`);
//! * [`collective`] — deterministic round-based schedules (ring/tree
//!   allreduce, binomial bcast, pairwise alltoall) executed as point-to-point
//!   sends;
//! * the [`pingpong`] benchmark (NetPIPE-style latency/bandwidth, §2.1);
//! * a per-send **profiler** recording the sending-side bandwidth exactly as
//!   the paper's §6 does ("the network bandwidth as perceived by the
//!   sending node").

#![warn(missing_docs)]

pub mod collective;
pub mod pingpong;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt;

use freq::{Activity, FreqModel, Governor, UncorePolicy};
use memsim::exec::{Executor, JobId, JobSpec, JobStats};
use memsim::MemSystem;
use netsim::{NetEvent, NetSim, NodeRef, TransferId};
use simcore::faults::{FaultPlan, FaultPlanError};
use simcore::telemetry::{self, Lane};
use simcore::{
    tags, Engine, EngineError, Event, IdBuildHasher, JitterFamily, ReferencePaths, SimTime,
};
use topology::fabric::{Fabric, FabricSpec};
use topology::{CoreId, MachineSpec, NumaId, Placement};

/// A request handle for a non-blocking operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReqId(u32);

#[derive(Clone, Debug, PartialEq)]
enum ReqState {
    Pending,
    Complete,
    /// The underlying transfer exhausted its retransmission budget.
    Failed,
}

/// Why a simulation drive could not complete.
#[derive(Clone, Debug)]
pub enum ClusterError {
    /// The engine wedged: a deadlock or a blown simulated-time budget.
    Wedged(EngineError),
    /// The simulation ran dry while requests were still outstanding.
    Dry {
        /// Send requests never completed.
        pending_sends: usize,
        /// Receive requests never completed.
        pending_recvs: usize,
    },
    /// A transfer gave up after exhausting its retransmissions.
    TransferFailed {
        /// The send request that failed.
        send: ReqId,
        /// Retransmissions attempted.
        retries: u32,
    },
    /// The injected fault plan failed validation.
    BadFaultPlan(FaultPlanError),
}

impl From<FaultPlanError> for ClusterError {
    fn from(e: FaultPlanError) -> Self {
        ClusterError::BadFaultPlan(e)
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Wedged(e) => write!(f, "cluster wedged: {}", e),
            ClusterError::Dry {
                pending_sends,
                pending_recvs,
            } => write!(
                f,
                "simulation ran dry with {} send(s) and {} receive(s) pending",
                pending_sends, pending_recvs
            ),
            ClusterError::TransferFailed { send, retries } => write!(
                f,
                "send request {:?} failed after {} retransmissions",
                send, retries
            ),
            ClusterError::BadFaultPlan(e) => write!(f, "invalid fault plan: {}", e),
        }
    }
}

impl std::error::Error for ClusterError {}

#[derive(Clone, Debug)]
struct SendReq {
    state: ReqState,
    size: usize,
}

#[derive(Clone, Debug)]
struct RecvReq {
    node: usize,
    src: usize,
    mtag: u32,
    state: ReqState,
    matched: Option<TransferId>,
}

/// `Matcher::Indexed` side-table sentinel: "no request".
const NO_REQ: u32 = u32::MAX;

/// One `(dst, src, mtag)` match bin: FIFO order within the bin is exactly
/// the global posting/arrival order restricted to the bin's key, so popping
/// the front is equivalent to the reference matcher's first-match scan.
/// A bin lives only while one of its queues holds something: a match that
/// empties it removes it, so per-round collective tags leave nothing behind,
/// and parks it on the spare list, whose bins (queue buffers included) the
/// next new keys take.
#[derive(Default, Debug)]
struct MatchBin {
    /// Posted-but-unmatched receive requests, in posting order.
    posted: VecDeque<u32>,
    /// Arrived-but-unmatched transfers, in arrival order. Failed transfers
    /// are removed lazily (see `Matcher::Indexed::cancelled`).
    unexpected: VecDeque<TransferId>,
}

impl MatchBin {
    fn is_empty(&self) -> bool {
        self.posted.is_empty() && self.unexpected.is_empty()
    }
}

/// Message-matching state. The default `Indexed` form makes post, match and
/// cancel O(1) amortised at any rank count; `Scan` is the single-queue
/// linear matcher, selected by [`ReferencePaths::matcher`] at cluster build
/// and kept as the byte-identity reference.
///
/// The dense side tables rely on [`TransferId`]s being allocated in
/// lockstep with send requests: `Cluster` is the only `start_send` caller,
/// so `TransferId(i)` is always the i-th transfer this cluster started
/// (checked by a debug assertion on every send).
enum Matcher {
    Indexed {
        /// `(dst, src, mtag)` → match bin; only non-empty bins are kept.
        bins: HashMap<(u32, u32, u32), MatchBin, IdBuildHasher>,
        /// Bins emptied by a match, taken (with their queues' capacity)
        /// by the next new bin.
        spare: Vec<MatchBin>,
        /// TransferId → (send request, sending rank).
        meta: Vec<(u32, u32)>,
        /// TransferId → matched receive request ([`NO_REQ`] while unmatched).
        recv_of: Vec<u32>,
        /// TransferId → payload arrived before any receive was posted.
        delivered: Vec<bool>,
        /// TransferId → transfer failed while possibly still queued in a
        /// bin; matching skips (and drops) cancelled entries lazily, so a
        /// failure never scans unrelated bins.
        cancelled: Vec<bool>,
        /// Send request → TransferId.
        send_transfer: Vec<TransferId>,
    },
    Scan {
        /// Posted-but-unmatched receives (all keys interleaved).
        posted: VecDeque<u32>,
        /// Arrived-but-unmatched transfers: (dest_node, src, mtag,
        /// transfer, delivered_already).
        unexpected: VecDeque<(usize, usize, u32, TransferId, bool)>,
        /// (transfer → send request, mtag, from) registry.
        transfer_req: Vec<(TransferId, u32, u32, usize)>,
    },
}

impl Matcher {
    fn new(scan: bool) -> Matcher {
        if scan {
            Matcher::Scan {
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
                transfer_req: Vec::new(),
            }
        } else {
            Matcher::Indexed {
                bins: HashMap::default(),
                spare: Vec::new(),
                meta: Vec::new(),
                recv_of: Vec::new(),
                delivered: Vec::new(),
                cancelled: Vec::new(),
                send_transfer: Vec::new(),
            }
        }
    }

    /// (send request, sending rank) of a transfer.
    fn send_of(&self, id: TransferId) -> (u32, usize) {
        match self {
            Matcher::Indexed { meta, .. } => {
                let (sreq, from) = meta[id.0 as usize];
                (sreq, from as usize)
            }
            Matcher::Scan { transfer_req, .. } => {
                let (_, sreq, _, from) = *transfer_req
                    .iter()
                    .find(|(t, _, _, _)| *t == id)
                    .expect("known transfer");
                (sreq, from)
            }
        }
    }
}

/// One record of the send profiler.
#[derive(Clone, Copy, Debug)]
pub struct SendRecord {
    /// Sending node.
    pub node: usize,
    /// Message size in bytes.
    pub size: usize,
    /// Time from submission to last byte out of the sender.
    pub elapsed: SimTime,
    /// Rendezvous retransmissions this send needed (0 on a healthy fabric).
    pub retries: u32,
    /// Control-message bytes re-sent across the wire.
    pub retrans_bytes: u64,
    /// Simulated time spent waiting in expired retransmission timeouts.
    pub retry_wait: SimTime,
}

impl SendRecord {
    /// Sending bandwidth in bytes/s.
    pub fn bandwidth(&self) -> f64 {
        self.size as f64 / self.elapsed.as_secs_f64()
    }
}

/// High-level events returned by [`Cluster::step`].
#[derive(Debug)]
pub enum ClusterEvent {
    /// A send request's payload fully left the sender.
    SendComplete(ReqId),
    /// A receive request completed (payload delivered and processed).
    RecvComplete(ReqId),
    /// A send request gave up after exhausting its retransmissions (only
    /// possible under an injected fault plan).
    SendFailed {
        /// The failed send request.
        req: ReqId,
        /// Retransmissions attempted.
        retries: u32,
    },
    /// A compute job finished on a node.
    JobDone {
        /// Node index.
        node: usize,
        /// Job handle.
        job: JobId,
        /// Final stats.
        stats: JobStats,
    },
    /// An event from a namespace this layer does not own (e.g. the task
    /// runtime); the caller dispatches it.
    Other(Event),
}

/// The complete simulated world: N identical nodes plus the routed fabric.
pub struct Cluster {
    /// The discrete-event engine.
    pub engine: Engine,
    /// Machine description shared by all nodes.
    pub spec: MachineSpec,
    /// Per-node memory systems.
    pub mem: Vec<MemSystem>,
    /// Per-node frequency models.
    pub freqs: Vec<FreqModel>,
    /// Per-node compute executors.
    pub exec: Vec<Executor>,
    /// NIC + fabric simulation.
    pub net: NetSim,
    /// Communication-thread core of each node.
    pub comm_core: Vec<CoreId>,
    /// NUMA node holding communication buffers on each node.
    pub data_numa: Vec<NumaId>,
    sends: Vec<SendReq>,
    recvs: Vec<RecvReq>,
    /// Tag-matching state (indexed bins by default; see [`Matcher`]).
    matcher: Matcher,
    profile: Vec<SendRecord>,
    profiling: bool,
    /// Injected faults (empty when healthy); kept for straggler re-application.
    fault_plan: FaultPlan,
    /// Reused by [`Cluster::refresh_uncore`] to avoid a per-event allocation.
    uncore_scratch: Vec<f64>,
}

impl Cluster {
    /// Build the paper's cluster of two `spec` nodes joined by a direct wire
    /// under the given governor/uncore policy and placement (applied
    /// symmetrically to both nodes).
    pub fn new(
        spec: &MachineSpec,
        governor: Governor,
        uncore: UncorePolicy,
        placement: Placement,
    ) -> Cluster {
        Cluster::with_fabric(
            spec,
            FabricSpec::direct().build(),
            governor,
            uncore,
            placement,
        )
    }

    /// Build a cluster of `fabric.nodes()` identical `spec` nodes joined by
    /// a routed fabric. All nodes share the governor/uncore policy and
    /// placement; [`Cluster::new`] is the degenerate two-node direct-wire
    /// case.
    pub fn with_fabric(
        spec: &MachineSpec,
        fabric: Fabric,
        governor: Governor,
        uncore: UncorePolicy,
        placement: Placement,
    ) -> Cluster {
        let nodes = fabric.nodes();
        let mut engine = Engine::new();
        let mem: Vec<MemSystem> = (0..nodes)
            .map(|i| MemSystem::build(&mut engine, spec, format!("n{}.", i)))
            .collect();
        let resolved = spec.resolve(placement);
        let comm_core = vec![resolved.comm_core; nodes];
        let data_numa = vec![resolved.data_numa; nodes];
        let mut freqs: Vec<FreqModel> = (0..nodes)
            .map(|_| FreqModel::new(spec, governor, uncore))
            .collect();
        // The communication thread busy-polls from the start (MadMPI's
        // pioman): architecturally active but light.
        for (f, m) in freqs.iter_mut().zip(&mem) {
            f.set_activity(resolved.comm_core, Activity::Light);
            m.apply_freqs(&mut engine, f);
        }
        let mut net = NetSim::build_fabric(&mut engine, spec, fabric);
        let uncore: Vec<f64> = freqs.iter().map(|f| f.uncore_freq()).collect();
        net.apply_uncore(&mut engine, spec, &uncore);
        let matcher = Matcher::new(engine.reference_paths().matcher);
        Cluster {
            engine,
            spec: spec.clone(),
            mem,
            freqs,
            exec: (0..nodes).map(|i| Executor::new(i as u32)).collect(),
            net,
            comm_core,
            data_numa,
            sends: Vec::new(),
            recvs: Vec::new(),
            matcher,
            profile: Vec::new(),
            profiling: false,
            fault_plan: FaultPlan::default(),
            uncore_scratch: Vec::with_capacity(nodes),
        }
    }

    /// The [`ReferencePaths`] this cluster was built on: its engine's, with
    /// `matcher` read back from the matcher actually in use.
    pub fn reference_paths(&self) -> ReferencePaths {
        ReferencePaths {
            matcher: matches!(self.matcher, Matcher::Scan { .. }),
            ..self.engine.reference_paths()
        }
    }

    /// Number of nodes (MPI ranks) in this cluster.
    pub fn nodes(&self) -> usize {
        self.mem.len()
    }

    /// Install a fault plan: network windows/drops go to [`NetSim`], and
    /// straggler cores are pinned below nominal frequency (re-applied after
    /// every frequency change). Identical seeds replay identical faults.
    pub fn apply_faults(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        self.net.apply_faults(&mut self.engine, plan)?;
        self.fault_plan = plan.clone();
        self.refresh_uncore();
        Ok(())
    }

    /// The currently installed fault plan (empty when healthy).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Arm the engine's quiescence watchdog: any attempt to simulate past
    /// `budget` surfaces as [`ClusterError::Wedged`] from [`Cluster::try_step`].
    pub fn set_time_budget(&mut self, budget: Option<SimTime>) {
        self.engine.set_time_budget(budget);
    }

    /// Compute cores available on each node under the current placement
    /// (all cores except the communication core, in logical order).
    pub fn compute_cores(&self) -> Vec<CoreId> {
        (0..self.spec.core_count())
            .map(CoreId)
            .filter(|&c| c != self.comm_core[0])
            .collect()
    }

    /// Draw per-run jitter multipliers from `family` and apply them.
    pub fn apply_run_jitter(&mut self, family: &JitterFamily, run: u64) {
        let mut lat_rng = family.stream(run * 2 + 1);
        let mut bw_rng = family.stream(run * 2 + 2);
        let lat = lat_rng.jitter(self.spec.lat_jitter);
        let bw = bw_rng.jitter(self.spec.network.bw_jitter);
        self.net.set_jitter(&mut self.engine, lat, bw);
        // set_jitter resets the NIC capacities; re-apply the uncore scale.
        self.refresh_uncore();
    }

    /// Enable the sending-bandwidth profiler.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Profiler records so far.
    pub fn send_profile(&self) -> &[SendRecord] {
        &self.profile
    }

    /// Start a compute job on a node.
    pub fn start_job(&mut self, node: usize, spec: JobSpec) -> JobId {
        let id = self.exec[node].start(
            &mut self.engine,
            &self.mem[node],
            &mut self.freqs[node],
            spec,
        );
        // Frequency/uncore changes may also move the NIC DMA ceiling.
        self.refresh_uncore();
        id
    }

    /// Stop a running job, returning its partial stats.
    pub fn stop_job(&mut self, node: usize, id: JobId) -> Option<JobStats> {
        let st = self.exec[node].stop(&mut self.engine, &self.mem[node], &mut self.freqs[node], id);
        self.refresh_uncore();
        st
    }

    fn refresh_uncore(&mut self) {
        self.uncore_scratch.clear();
        self.uncore_scratch
            .extend(self.freqs.iter().map(|f| f.uncore_freq()));
        self.net
            .apply_uncore(&mut self.engine, &self.spec, &self.uncore_scratch);
        // Straggler cores: cap the core's cycle budget below what the
        // frequency model just applied. Idempotent, so safe to re-run after
        // every frequency change.
        for s in &self.fault_plan.stragglers {
            let core = CoreId(s.core as u32);
            let f = self.freqs[s.node].core_freq(core);
            self.engine
                .set_capacity(self.mem[s.node].core_resource(core), f * 1e9 * s.factor);
        }
    }

    /// Non-blocking send of `size` bytes from `from` to the other node of a
    /// two-node cluster. Degenerate case of [`Cluster::isend_to`].
    /// `buffer` keys the registration cache; reuse it to model the paper's
    /// recycled ping-pong buffers.
    pub fn isend(&mut self, from: usize, size: usize, mtag: u32, buffer: u64) -> ReqId {
        debug_assert_eq!(
            self.nodes(),
            2,
            "isend() addresses `1 - from`; use isend_to"
        );
        self.isend_to(from, 1 - from, size, mtag, buffer)
    }

    /// Non-blocking send of `size` bytes from rank `from` to rank `to`.
    /// `buffer` keys the registration cache; reuse it to model recycled
    /// communication buffers.
    pub fn isend_to(
        &mut self,
        from: usize,
        to: usize,
        size: usize,
        mtag: u32,
        buffer: u64,
    ) -> ReqId {
        assert!(from != to, "self-sends never touch the fabric");
        let transfer = {
            let nref = NodeRef {
                mem: &self.mem[from],
                freqs: &self.freqs[from],
                comm_core: self.comm_core[from],
            };
            self.net.start_send(
                &mut self.engine,
                from,
                to,
                &nref,
                size,
                self.data_numa[from],
                self.data_numa[to],
                buffer,
            )
        };
        let req = ReqId(self.sends.len() as u32);
        if telemetry::is_active() {
            telemetry::async_begin(
                self.engine.now(),
                "mpi.send",
                &format!("send {}B", size),
                req.0 as u64,
                Lane::Node(from as u8),
            );
        }
        self.sends.push(SendReq {
            state: ReqState::Pending,
            size,
        });
        // Match against an already-posted receive.
        match &mut self.matcher {
            Matcher::Indexed {
                bins,
                spare,
                meta,
                recv_of,
                delivered,
                cancelled,
                send_transfer,
            } => {
                debug_assert_eq!(
                    transfer.0 as usize,
                    meta.len(),
                    "transfer ids allocate in lockstep with sends"
                );
                meta.push((req.0, from as u32));
                recv_of.push(NO_REQ);
                delivered.push(false);
                cancelled.push(false);
                send_transfer.push(transfer);
                match bins.entry((to as u32, from as u32, mtag)) {
                    Entry::Occupied(mut bin) if !bin.get().posted.is_empty() => {
                        let r = bin.get_mut().posted.pop_front().expect("posted receive");
                        if bin.get().is_empty() {
                            spare.push(bin.remove());
                        }
                        telemetry::counter_add("mpi.match.probes", 1);
                        telemetry::counter_add("mpi.match.bin_hit", 1);
                        recv_of[transfer.0 as usize] = r;
                        self.recvs[r as usize].matched = Some(transfer);
                        self.net.recv_ready(&mut self.engine, transfer);
                    }
                    bin => bin
                        .or_insert_with(|| spare.pop().unwrap_or_default())
                        .unexpected
                        .push_back(transfer),
                }
            }
            Matcher::Scan {
                posted,
                unexpected,
                transfer_req,
            } => {
                transfer_req.push((transfer, req.0, mtag, from));
                let recvs = &self.recvs;
                let mut probed = 0u64;
                let pos = posted.iter().position(|&r| {
                    probed += 1;
                    let rr = &recvs[r as usize];
                    rr.node == to && rr.src == from && rr.mtag == mtag
                });
                if probed > 0 {
                    telemetry::counter_add("mpi.match.probes", probed);
                }
                if let Some(pos) = pos {
                    let r = posted.remove(pos).expect("index valid");
                    self.recvs[r as usize].matched = Some(transfer);
                    self.net.recv_ready(&mut self.engine, transfer);
                } else {
                    unexpected.push_back((to, from, mtag, transfer, false));
                }
            }
        }
        req
    }

    /// Non-blocking receive at `node` from the other node of a two-node
    /// cluster with tag `mtag`. Degenerate case of [`Cluster::irecv_from`].
    pub fn irecv(&mut self, node: usize, mtag: u32) -> ReqId {
        debug_assert_eq!(
            self.nodes(),
            2,
            "irecv() addresses `1 - node`; use irecv_from"
        );
        self.irecv_from(node, 1 - node, mtag)
    }

    /// Non-blocking receive at rank `node` from rank `src` with tag `mtag`.
    pub fn irecv_from(&mut self, node: usize, src: usize, mtag: u32) -> ReqId {
        assert!(node != src, "self-receives never touch the fabric");
        let req = ReqId(self.recvs.len() as u32);
        telemetry::async_begin(
            self.engine.now(),
            "mpi.recv",
            "recv",
            req.0 as u64,
            Lane::Node(node as u8),
        );
        let mut rr = RecvReq {
            node,
            src,
            mtag,
            state: ReqState::Pending,
            matched: None,
        };
        // Match against an unexpected arrival.
        match &mut self.matcher {
            Matcher::Indexed {
                bins,
                spare,
                recv_of,
                delivered,
                cancelled,
                ..
            } => {
                let mut matched = None;
                let mut probed = 0u64;
                match bins.entry((node as u32, src as u32, mtag)) {
                    Entry::Occupied(mut bin) => {
                        // Failed transfers are dropped lazily here, so a
                        // failure elsewhere never scanned this bin.
                        while let Some(t) = bin.get_mut().unexpected.pop_front() {
                            probed += 1;
                            if cancelled[t.0 as usize] {
                                continue;
                            }
                            matched = Some(t);
                            break;
                        }
                        if matched.is_none() {
                            bin.get_mut().posted.push_back(req.0);
                        } else if bin.get().is_empty() {
                            spare.push(bin.remove());
                        }
                    }
                    Entry::Vacant(bin) => bin
                        .insert(spare.pop().unwrap_or_default())
                        .posted
                        .push_back(req.0),
                }
                if probed > 0 {
                    telemetry::counter_add("mpi.match.probes", probed);
                }
                if let Some(transfer) = matched {
                    telemetry::counter_add("mpi.match.bin_hit", 1);
                    recv_of[transfer.0 as usize] = req.0;
                    rr.matched = Some(transfer);
                    if delivered[transfer.0 as usize] {
                        rr.state = ReqState::Complete;
                        // The payload already arrived: the request is
                        // instantaneous.
                        telemetry::async_end(
                            self.engine.now(),
                            "mpi.recv",
                            req.0 as u64,
                            Lane::Node(node as u8),
                        );
                    } else {
                        self.net.recv_ready(&mut self.engine, transfer);
                    }
                }
                self.recvs.push(rr);
            }
            Matcher::Scan {
                posted, unexpected, ..
            } => {
                let mut probed = 0u64;
                let pos = unexpected.iter().position(|&(d, s, t, _, _)| {
                    probed += 1;
                    d == node && s == src && t == mtag
                });
                if probed > 0 {
                    telemetry::counter_add("mpi.match.probes", probed);
                }
                if let Some(pos) = pos {
                    let (_, _, _, transfer, delivered) =
                        unexpected.remove(pos).expect("index valid");
                    rr.matched = Some(transfer);
                    if delivered {
                        rr.state = ReqState::Complete;
                        // The payload already arrived: the request is
                        // instantaneous.
                        telemetry::async_end(
                            self.engine.now(),
                            "mpi.recv",
                            req.0 as u64,
                            Lane::Node(node as u8),
                        );
                    } else {
                        self.net.recv_ready(&mut self.engine, transfer);
                    }
                    self.recvs.push(rr);
                } else {
                    self.recvs.push(rr);
                    posted.push_back(req.0);
                }
            }
        }
        req
    }

    /// True if the request has completed.
    pub fn test_send(&self, req: ReqId) -> bool {
        self.sends[req.0 as usize].state == ReqState::Complete
    }

    /// True if the request has completed.
    pub fn test_recv(&self, req: ReqId) -> bool {
        self.recvs[req.0 as usize].state == ReqState::Complete
    }

    /// True if the send's transfer failed permanently (fault injection).
    pub fn send_failed(&self, req: ReqId) -> bool {
        self.sends[req.0 as usize].state == ReqState::Failed
    }

    /// True if the receive's matched transfer failed permanently.
    pub fn recv_failed(&self, req: ReqId) -> bool {
        self.recvs[req.0 as usize].state == ReqState::Failed
    }

    /// Retransmission accounting for a send request (zeroes when healthy).
    pub fn send_retry_stats(&self, req: ReqId) -> netsim::RetryStats {
        let transfer = match &self.matcher {
            Matcher::Indexed { send_transfer, .. } => send_transfer[req.0 as usize],
            Matcher::Scan { transfer_req, .. } => {
                let (transfer, ..) = *transfer_req
                    .iter()
                    .find(|(_, s, _, _)| *s == req.0)
                    .expect("known send request");
                transfer
            }
        };
        self.net.retry_stats(transfer)
    }

    /// Number of send requests still pending.
    pub fn pending_sends(&self) -> usize {
        self.sends
            .iter()
            .filter(|s| s.state == ReqState::Pending)
            .count()
    }

    /// Number of receive requests still pending.
    pub fn pending_recvs(&self) -> usize {
        self.recvs
            .iter()
            .filter(|r| r.state == ReqState::Pending)
            .count()
    }

    /// Advance the simulation by one event. Returns `None` when the engine
    /// is dry. Panics if the engine wedges; use [`Cluster::try_step`] for a
    /// typed error instead.
    pub fn step(&mut self) -> Option<ClusterEvent> {
        match self.try_step() {
            Ok(ev) => ev,
            Err(e) => panic!("{}", e),
        }
    }

    /// Advance the simulation by one event. `Ok(None)` means the engine ran
    /// dry; [`ClusterError::Wedged`] carries the engine's stall diagnostic.
    pub fn try_step(&mut self) -> Result<Option<ClusterEvent>, ClusterError> {
        loop {
            let Some(ev) = self.engine.try_next().map_err(ClusterError::Wedged)? else {
                return Ok(None);
            };
            match simcore::namespace(ev.tag()) {
                tags::ns::NET => {
                    let out = {
                        let (mem, freqs, comm) = (&self.mem, &self.freqs, &self.comm_core);
                        self.net.on_event(
                            &mut self.engine,
                            |i| NodeRef {
                                mem: &mem[i],
                                freqs: &freqs[i],
                                comm_core: comm[i],
                            },
                            &ev,
                        )
                    };
                    // One netsim step completes at most one request.
                    if let Some(done) = out.and_then(|out| self.apply_net_event(out)) {
                        return Ok(Some(done));
                    }
                }
                tags::ns::COMPUTE => {
                    let node = self
                        .exec
                        .iter()
                        .position(|e| e.owns(ev.tag()))
                        .expect("compute event has an owning executor");
                    let done = {
                        let (mem, freqs, exec) =
                            (&self.mem[node], &mut self.freqs[node], &mut self.exec[node]);
                        exec.on_event(&mut self.engine, mem, freqs, &ev)
                    };
                    // Any frequency change may have moved uncore/NIC caps
                    // and other executors' rooflines.
                    self.refresh_uncore();
                    // Split-borrow safe: refresh the sibling executors' caps.
                    for other in (0..self.exec.len()).filter(|&o| o != node) {
                        let (m, f) = (&self.mem[other], &self.freqs[other]);
                        self.exec[other].refresh_caps(&mut self.engine, m, f);
                    }
                    if let Some((job, stats)) = done {
                        return Ok(Some(ClusterEvent::JobDone { node, job, stats }));
                    }
                }
                _ => return Ok(Some(ClusterEvent::Other(ev))),
            }
        }
    }

    /// Apply what one netsim step surfaced, returning the request it
    /// completed, if any.
    fn apply_net_event(&mut self, out: NetEvent) -> Option<ClusterEvent> {
        match out {
            NetEvent::SendComplete { id, sender_elapsed } => {
                let (sreq, from) = self.matcher.send_of(id);
                let s = &mut self.sends[sreq as usize];
                s.state = ReqState::Complete;
                telemetry::async_end(
                    self.engine.now(),
                    "mpi.send",
                    sreq as u64,
                    Lane::Node(from as u8),
                );
                if self.profiling {
                    let rs = self.net.retry_stats(id);
                    self.profile.push(SendRecord {
                        node: from,
                        size: s.size,
                        elapsed: sender_elapsed,
                        retries: rs.retries,
                        retrans_bytes: rs.retrans_bytes,
                        retry_wait: rs.retry_wait,
                    });
                }
                Some(ClusterEvent::SendComplete(ReqId(sreq)))
            }
            NetEvent::Delivered { id } => {
                // Find the matched receive, if any.
                let ri = match &mut self.matcher {
                    Matcher::Indexed {
                        recv_of, delivered, ..
                    } => {
                        let r = recv_of[id.0 as usize];
                        if r == NO_REQ {
                            // Arrived before any receive was posted.
                            delivered[id.0 as usize] = true;
                            None
                        } else {
                            Some(r as usize)
                        }
                    }
                    Matcher::Scan { unexpected, .. } => {
                        let pos = self.recvs.iter().position(|r| r.matched == Some(id));
                        if pos.is_none() {
                            if let Some(u) = unexpected.iter_mut().find(|(_, _, _, t, _)| *t == id)
                            {
                                // Arrived before any receive was posted.
                                u.4 = true;
                            }
                        }
                        pos
                    }
                };
                let ri = ri?;
                self.recvs[ri].state = ReqState::Complete;
                telemetry::async_end(
                    self.engine.now(),
                    "mpi.recv",
                    ri as u64,
                    Lane::Node(self.recvs[ri].node as u8),
                );
                Some(ClusterEvent::RecvComplete(ReqId(ri as u32)))
            }
            NetEvent::Failed { id, retries } => {
                let (sreq, from) = self.matcher.send_of(id);
                self.sends[sreq as usize].state = ReqState::Failed;
                let lane = Lane::Node(from as u8);
                telemetry::instant(self.engine.now(), "mpi", "send.failed", lane);
                telemetry::async_end(self.engine.now(), "mpi.send", sreq as u64, lane);
                // The matched receive (or queued unexpected arrival)
                // will never complete either.
                match &mut self.matcher {
                    Matcher::Indexed {
                        recv_of, cancelled, ..
                    } => {
                        let r = recv_of[id.0 as usize];
                        if r != NO_REQ {
                            self.recvs[r as usize].state = ReqState::Failed;
                        }
                        // Lazy removal from its bin: no queue sweep, no
                        // unrelated-bin scans.
                        cancelled[id.0 as usize] = true;
                    }
                    Matcher::Scan { unexpected, .. } => {
                        if let Some(ri) = self.recvs.iter().position(|r| r.matched == Some(id)) {
                            self.recvs[ri].state = ReqState::Failed;
                        }
                        unexpected.retain(|&(_, _, _, t, _)| t != id);
                    }
                }
                Some(ClusterEvent::SendFailed {
                    req: ReqId(sreq),
                    retries,
                })
            }
        }
    }

    /// Like [`Cluster::step`] but never advances past `deadline`; returns
    /// `None` at the deadline.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<ClusterEvent> {
        const SENTINEL: u64 = 0x00FF_FFFF_FFFF_FFFF;
        let sentinel_tag = simcore::tag(tags::ns::EXPERIMENT, SENTINEL);
        if self.engine.now() >= deadline {
            return None;
        }
        let timer = self.engine.at(deadline, sentinel_tag);
        match self.step() {
            Some(ClusterEvent::Other(e)) if e.tag() == sentinel_tag => None,
            Some(other) => {
                self.engine.cancel_timer(timer);
                Some(other)
            }
            None => {
                self.engine.cancel_timer(timer);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freq::License;
    use memsim::exec::Phase;
    use topology::{henri, BindingPolicy};

    fn cluster() -> Cluster {
        Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement::fig4_default(),
        )
    }

    fn drive_until_recv(c: &mut Cluster, r: ReqId) {
        while !c.test_recv(r) {
            c.step().expect("progress");
        }
    }

    #[test]
    fn send_recv_roundtrip() {
        let mut c = cluster();
        let r = c.irecv(1, 7);
        let s = c.isend(0, 1024, 7, 1);
        drive_until_recv(&mut c, r);
        assert!(c.test_send(s));
        assert!(c.engine.now() > SimTime::ZERO);
    }

    #[test]
    fn unexpected_message_then_recv() {
        let mut c = cluster();
        let s = c.isend(0, 64, 9, 1);
        // Drain until the network goes quiet (eager: delivered without recv).
        while c.step().is_some() {}
        let r = c.irecv(1, 9);
        // Eager message already arrived: receive completes immediately.
        assert!(c.test_recv(r));
        assert!(c.test_send(s));
    }

    #[test]
    fn tag_matching_is_selective() {
        let mut c = cluster();
        let r_b = c.irecv(1, 2);
        let r_a = c.irecv(1, 1);
        let _s = c.isend(0, 128, 1, 1);
        drive_until_recv(&mut c, r_a);
        // Tag 2 must still be pending.
        assert!(!c.test_recv(r_b));
    }

    #[test]
    fn fifo_matching_same_tag() {
        let mut c = cluster();
        let r1 = c.irecv(1, 5);
        let r2 = c.irecv(1, 5);
        c.isend(0, 64, 5, 1);
        drive_until_recv(&mut c, r1);
        assert!(!c.test_recv(r2), "second recv must wait for a second send");
        c.isend(0, 64, 5, 2);
        drive_until_recv(&mut c, r2);
    }

    /// Match bins the indexed matcher still holds.
    fn live_bins(c: &Cluster) -> usize {
        match &c.matcher {
            Matcher::Indexed { bins, .. } => bins.len(),
            Matcher::Scan { .. } => 0,
        }
    }

    /// Emptied bins waiting on the indexed matcher's spare list.
    fn spare_bins(c: &Cluster) -> usize {
        match &c.matcher {
            Matcher::Indexed { spare, .. } => spare.len(),
            Matcher::Scan { .. } => 0,
        }
    }

    /// A 1k-message churn across distinct tags must not scan unrelated
    /// bins. The indexed matcher probes exactly one entry per receive (its
    /// own bin's front); the pinned linear scanner walks the whole
    /// unexpected queue — the telemetry counters prove both. Every bin is
    /// freed once its message has matched.
    #[test]
    fn churn_does_not_scan_unrelated_bins() {
        let run = |force_scan: bool| -> (u64, u64) {
            std::thread::scope(|s| {
                s.spawn(move || {
                    telemetry::install();
                    let paths = ReferencePaths {
                        matcher: force_scan,
                        ..ReferencePaths::default()
                    };
                    let mut c = simcore::reference_paths::scoped(paths, cluster);
                    for t in 0..1000u32 {
                        c.isend(0, 64, t, 1);
                    }
                    // Drain: every eager payload lands unexpected, each in
                    // its own (dst, src, tag) bin.
                    while c.step().is_some() {}
                    if !force_scan {
                        assert_eq!(live_bins(&c), 1000, "one bin per unexpected message");
                    }
                    for t in (0..1000u32).rev() {
                        let r = c.irecv(1, t);
                        assert!(c.test_recv(r), "eager payload already arrived");
                    }
                    assert_eq!(live_bins(&c), 0, "every bin emptied by its match is freed");
                    let j = telemetry::take().expect("recorder installed");
                    (
                        j.counters.get("mpi.match.probes").copied().unwrap_or(0),
                        j.counters.get("mpi.match.bin_hit").copied().unwrap_or(0),
                    )
                })
                .join()
                .expect("test thread")
            })
        };
        let (idx_probes, idx_hits) = run(false);
        assert_eq!(idx_probes, 1000, "one probe per matched receive");
        assert_eq!(idx_hits, 1000, "every receive matches from its own bin");
        let (scan_probes, _) = run(true);
        assert_eq!(
            scan_probes, 500_500,
            "the reference scan walks every unrelated entry (arithmetic-series probe count)"
        );
    }

    /// Receives posted before their sends: the send's match frees the bin
    /// the receive created, and FIFO order within a key is kept.
    #[test]
    fn match_bins_are_freed_when_receives_come_first() {
        let mut c = cluster();
        let first: Vec<ReqId> = (0..100u32).map(|t| c.irecv(1, t)).collect();
        let second = c.irecv(1, 0);
        assert_eq!(live_bins(&c), 100);
        for t in 0..100u32 {
            c.isend(0, 64, t, 1);
        }
        assert_eq!(live_bins(&c), 1, "tag 0 still holds the second receive");
        assert_eq!(spare_bins(&c), 99, "each emptied bin is parked");
        for &r in &first {
            drive_until_recv(&mut c, r);
        }
        assert!(
            !c.test_recv(second),
            "FIFO: the first send matched the first receive"
        );
        c.isend(0, 64, 0, 2);
        assert_eq!(live_bins(&c), 0);
        assert_eq!(spare_bins(&c), 100);
        drive_until_recv(&mut c, second);
        // New keys take parked bins before any fresh one.
        for t in 200..250u32 {
            c.irecv(1, t);
        }
        assert_eq!((live_bins(&c), spare_bins(&c)), (50, 50));
    }

    #[test]
    fn rendezvous_roundtrip_and_profiler() {
        let mut c = cluster();
        c.enable_profiling();
        let size = 4 << 20;
        let r = c.irecv(1, 3);
        let s = c.isend(0, size, 3, 11);
        drive_until_recv(&mut c, r);
        assert!(c.test_send(s));
        let prof = c.send_profile();
        assert_eq!(prof.len(), 1);
        assert_eq!(prof[0].size, size);
        assert!(prof[0].bandwidth() > 1e9);
        assert_eq!(prof[0].node, 0);
    }

    #[test]
    fn job_and_message_interleave() {
        let mut c = cluster();
        // Memory-bound job on node 0 beside a big transfer.
        let job = c.start_job(
            0,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 0.0,
                    bytes: 1.0e9,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 1,
            },
        );
        let r = c.irecv(1, 1);
        let s = c.isend(0, 32 << 20, 1, 5);
        let mut job_done = false;
        let mut recv_done = false;
        while !(job_done && recv_done) {
            match c.step().expect("progress") {
                ClusterEvent::JobDone { job: j, .. } => {
                    assert_eq!(j, job);
                    job_done = true;
                }
                ClusterEvent::RecvComplete(rr) => {
                    assert_eq!(rr, r);
                    recv_done = true;
                }
                _ => {}
            }
        }
        assert!(c.test_send(s));
    }

    /// A compute event on node 0 re-runs node 1's full roofline refresh
    /// only after node 1's frequency model changed.
    #[test]
    fn sibling_refresh_runs_only_after_a_frequency_change() {
        let mut c = Cluster::new(
            &henri(),
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
            Placement::fig4_default(),
        );
        // Compute-capped memory phases: the roofline cap moves with the
        // core's frequency.
        let job = |iterations| JobSpec {
            core: CoreId(0),
            phases: vec![Phase {
                flops: 4.0e6,
                bytes: 1.0e6,
                data: NumaId(0),
                license: License::Normal,
            }],
            iterations,
        };
        let run_node0_job = |c: &mut Cluster, iterations| {
            c.start_job(0, job(iterations));
            while !matches!(
                c.step().expect("progress"),
                ClusterEvent::JobDone { node: 0, .. }
            ) {}
        };
        let long = c.start_job(1, job(1_000_000));
        let refreshed = c.exec[1].full_refreshes();
        run_node0_job(&mut c, 20);
        assert_eq!(
            c.exec[1].full_refreshes(),
            refreshed,
            "node 1's model never changed"
        );
        // A change made outside the executor, as task-runtime workers
        // make them: the next node-0 event refreshes node 1 once.
        c.freqs[1].set_activity(CoreId(5), Activity::Light);
        c.mem[1].apply_freqs(&mut c.engine, &c.freqs[1]);
        run_node0_job(&mut c, 20);
        assert_eq!(c.exec[1].full_refreshes(), refreshed + 1);
        assert!(c.stop_job(1, long).is_some());
    }

    #[test]
    fn step_until_stops_at_deadline() {
        let mut c = cluster();
        let deadline = SimTime::from_micros(500);
        let r = c.irecv(1, 1);
        c.isend(0, 4, 1, 1);
        // The ping completes well before 500 µs; afterwards step_until
        // returns None at the deadline.
        let mut saw_recv = false;
        while let Some(ev) = c.step_until(deadline) {
            if matches!(ev, ClusterEvent::RecvComplete(_)) {
                saw_recv = true;
            }
        }
        assert!(saw_recv);
        assert_eq!(c.engine.now(), deadline);
        let _ = r;
    }

    #[test]
    fn placement_affects_comm_core() {
        let near = Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            },
        );
        assert_eq!(near.comm_core[0], CoreId(8)); // last core of NUMA 0
        let far = cluster();
        assert_eq!(far.comm_core[0], CoreId(35)); // last core of NUMA 3
    }

    #[test]
    fn compute_cores_exclude_comm_core() {
        let c = cluster();
        let cores = c.compute_cores();
        assert_eq!(cores.len(), 35);
        assert!(!cores.contains(&c.comm_core[0]));
    }

    #[test]
    fn jitter_changes_latency_across_runs() {
        let fam = JitterFamily::new(99);
        let mut lats = Vec::new();
        for run in 0..3 {
            let mut c = cluster();
            c.apply_run_jitter(&fam, run);
            let r = c.irecv(1, 1);
            c.isend(0, 4, 1, 1);
            drive_until_recv(&mut c, r);
            lats.push(c.engine.now().as_secs_f64());
        }
        assert!(
            lats[0] != lats[1] || lats[1] != lats[2],
            "jitter had no effect"
        );
    }
}
