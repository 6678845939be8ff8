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
use netsim::{NetEvent, NetSim, NodeRef, RetryStats, TransferId};
use simcore::faults::{FaultPlan, FaultPlanError};
use simcore::telemetry::{self, Lane};
use simcore::{
    split_kind_index, tags, Engine, EngineError, Event, IdBuildHasher, JitterFamily,
    ReferencePaths, SimTime,
};
use topology::fabric::{Fabric, FabricSpec};
use topology::{CoreId, MachineSpec, NumaId, Placement};

/// A request handle for a non-blocking operation. A send's handle carries
/// the number of its transfer in [`NetSim`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReqId(u32);

#[derive(Clone, Copy, Debug, PartialEq)]
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

/// What mpisim alone knows of a send. Its transfer of the same number in
/// [`NetSim`] holds the endpoints, the size and the retries while it lives,
/// and netsim's events name what the cluster needs of them.
#[derive(Clone, Copy, Debug)]
struct SendReq {
    state: ReqState,
    /// The receive request that matched this send ([`NO_REQ`] until one
    /// does).
    recv: u32,
    /// The payload arrived before any receive matched it.
    delivered: bool,
}

// A cluster keeps one `SendReq` per message for the whole run, so its width
// is the collectives' per-message RSS; a 24 B form raised it (DESIGN.md
// §13.8).
const _: () = assert!(std::mem::size_of::<SendReq>() == 8);

/// [`SendReq::recv`] sentinel: no receive has matched yet.
const NO_REQ: u32 = u32::MAX;

/// A match key, `(dst, src, mtag)`. Tags are always concrete (there is no
/// `ANY_SOURCE` or `ANY_TAG`), so a receive matches only its own key.
type Key = (u32, u32, u32);

/// One match bin: FIFO order within the bin is exactly the global
/// posting/arrival order restricted to the bin's key, so popping the front
/// is equivalent to the reference matcher's first-match scan.
/// A bin lives only while one of its queues holds something: a match that
/// empties it removes it, so per-round collective tags leave nothing behind,
/// and parks it on the spare list, whose bins (queue buffers included) the
/// next new keys take.
#[derive(Default, Debug)]
struct MatchBin {
    /// Posted-but-unmatched receive requests, in posting order.
    posted: VecDeque<u32>,
    /// Arrived-but-unmatched transfers, in arrival order. Failed transfers
    /// are removed lazily, by [`Matcher::post_recv`].
    unexpected: VecDeque<TransferId>,
}

impl MatchBin {
    fn is_empty(&self) -> bool {
        self.posted.is_empty() && self.unexpected.is_empty()
    }
}

/// The queue discipline of tag matching: which posted receive an arriving
/// message takes, and which queued message a new receive takes. Both forms
/// take the earliest entry on the same key, so they pick the same partner
/// every time. The default `Indexed` form keeps one FIFO bin per key, O(1)
/// amortised at any rank count; `Scan` keeps two global queues searched by
/// first-match linear scans. [`ReferencePaths::matcher`] selects `Scan` at
/// cluster build, as the differential reference for the queues.
///
/// The matcher holds no request state: what a match does to the requests
/// (their states, which receive a send matched, an early delivery) is
/// [`Cluster`]'s, shared by both forms.
enum Matcher {
    Indexed {
        /// Key → match bin; only non-empty bins are kept.
        bins: HashMap<Key, MatchBin, IdBuildHasher>,
        /// Bins emptied by a match, taken (with their queues' capacity)
        /// by the next new bin.
        spare: Vec<MatchBin>,
    },
    Scan {
        /// Posted-but-unmatched receives, all keys interleaved.
        posted: VecDeque<(Key, u32)>,
        /// Arrived-but-unmatched transfers, all keys interleaved. A failed
        /// transfer leaves at once, by [`Matcher::drop_failed`].
        unexpected: VecDeque<(Key, TransferId)>,
    },
}

impl Matcher {
    fn new(scan: bool) -> Matcher {
        if scan {
            Matcher::Scan {
                posted: VecDeque::new(),
                unexpected: VecDeque::new(),
            }
        } else {
            Matcher::Indexed {
                bins: HashMap::default(),
                spare: Vec::new(),
            }
        }
    }

    /// Transfer `t` was sent on `key`: take the earliest receive posted on
    /// `key`, or queue `t` as unexpected.
    fn post_send(&mut self, key: Key, t: TransferId) -> Option<u32> {
        match self {
            Matcher::Indexed { bins, spare } => match bins.entry(key) {
                Entry::Occupied(mut bin) if !bin.get().posted.is_empty() => {
                    let r = bin.get_mut().posted.pop_front().expect("posted receive");
                    if bin.get().is_empty() {
                        spare.push(bin.remove());
                    }
                    telemetry::counter_add("mpi.match.probes", 1);
                    telemetry::counter_add("mpi.match.bin_hit", 1);
                    Some(r)
                }
                bin => {
                    bin.or_insert_with(|| spare.pop().unwrap_or_default())
                        .unexpected
                        .push_back(t);
                    None
                }
            },
            Matcher::Scan { posted, unexpected } => {
                let r = take_first(posted, key);
                if r.is_none() {
                    unexpected.push_back((key, t));
                }
                r
            }
        }
    }

    /// Receive `r` was posted on `key`: take the earliest transfer queued
    /// on `key` that has not `failed`, or queue `r`. The bins drop failed
    /// transfers here, lazily, so a failure never scans unrelated bins; the
    /// scan removed them when they failed.
    fn post_recv(
        &mut self,
        key: Key,
        r: u32,
        failed: impl Fn(TransferId) -> bool,
    ) -> Option<TransferId> {
        match self {
            Matcher::Indexed { bins, spare } => {
                let mut matched = None;
                let mut probed = 0u64;
                match bins.entry(key) {
                    Entry::Occupied(mut bin) => {
                        while let Some(t) = bin.get_mut().unexpected.pop_front() {
                            probed += 1;
                            if failed(t) {
                                continue;
                            }
                            matched = Some(t);
                            break;
                        }
                        if matched.is_none() {
                            bin.get_mut().posted.push_back(r);
                        } else if bin.get().is_empty() {
                            spare.push(bin.remove());
                        }
                    }
                    Entry::Vacant(bin) => bin
                        .insert(spare.pop().unwrap_or_default())
                        .posted
                        .push_back(r),
                }
                if probed > 0 {
                    telemetry::counter_add("mpi.match.probes", probed);
                }
                if matched.is_some() {
                    telemetry::counter_add("mpi.match.bin_hit", 1);
                }
                matched
            }
            Matcher::Scan { posted, unexpected } => {
                let t = take_first(unexpected, key);
                if t.is_none() {
                    posted.push_back((key, r));
                }
                t
            }
        }
    }

    /// Transfer `t` failed. The scan removes it from its queue now; the
    /// bins skip it when a receive reaches it ([`Matcher::post_recv`]).
    fn drop_failed(&mut self, t: TransferId) {
        if let Matcher::Scan { unexpected, .. } = self {
            unexpected.retain(|&(_, u)| u != t);
        }
    }
}

/// The scan's first-match search: remove and return the earliest entry of
/// `queue` on `key`, counting each entry it looks at as a probe.
fn take_first<T: Copy>(queue: &mut VecDeque<(Key, T)>, key: Key) -> Option<T> {
    let mut probed = 0u64;
    let pos = queue.iter().position(|&(k, _)| {
        probed += 1;
        k == key
    });
    if probed > 0 {
        telemetry::counter_add("mpi.match.probes", probed);
    }
    Some(queue.remove(pos?).expect("index valid").1)
}

/// One record of the send profiler.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SendRecord {
    /// Sending node.
    pub node: usize,
    /// Message size in bytes.
    pub size: usize,
    /// Time from submission to last byte out of the sender.
    pub elapsed: SimTime,
    /// The rendezvous retry work this send needed (zero on a healthy
    /// fabric).
    pub retry: RetryStats,
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
        /// Its retry work, the final timeout included.
        retry: RetryStats,
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
///
/// A send's [`ReqId`] is its transfer's number in `net`, so the cluster
/// keeps per message only what netsim does not know: a send's state, the
/// receive that matched it and whether its payload arrived first (8 B),
/// and a receive's state (1 B). Its `Matcher` only decides which queued
/// partner a new send or receive takes.
pub struct Cluster {
    /// The discrete-event engine.
    pub engine: Engine,
    /// Machine description shared by all nodes.
    pub spec: MachineSpec,
    /// Per-node memory systems.
    pub mem: Vec<MemSystem>,
    /// Per-node frequency models, changed only by [`Cluster::set_activity`]
    /// and the job transitions (read them with [`Cluster::freqs`]).
    freqs: Vec<FreqModel>,
    /// Per-node compute executors.
    exec: Vec<Executor>,
    /// NIC + fabric simulation.
    pub net: NetSim,
    /// Communication-thread core of each node.
    pub comm_core: Vec<CoreId>,
    /// NUMA node holding communication buffers on each node.
    pub data_numa: Vec<NumaId>,
    /// Send requests by [`ReqId`], which is also the transfer's number in
    /// `net`: the only per-send record this layer keeps.
    sends: Vec<SendReq>,
    /// Receive request states by [`ReqId`]: the only per-receive record.
    recvs: Vec<ReqState>,
    /// Tag-matching queues (indexed bins by default; see [`Matcher`]).
    matcher: Matcher,
    profile: Vec<SendRecord>,
    profiling: bool,
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
            FabricSpec::Direct.build(),
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
        let net = NetSim::build_fabric(&mut engine, spec, fabric);
        let matcher = Matcher::new(engine.reference_paths().matcher);
        let mut cluster = Cluster {
            engine,
            spec: spec.clone(),
            mem,
            freqs: (0..nodes)
                .map(|_| FreqModel::new(spec, governor, uncore))
                .collect(),
            exec: (0..nodes).map(|i| Executor::new(i as u32)).collect(),
            net,
            comm_core: vec![resolved.comm_core; nodes],
            data_numa: vec![resolved.data_numa; nodes],
            sends: Vec::new(),
            recvs: Vec::new(),
            matcher,
            profile: Vec::new(),
            profiling: false,
        };
        // The communication thread busy-polls from the start (MadMPI's
        // pioman): architecturally active but light.
        for node in 0..nodes {
            cluster.set_activity(node, resolved.comm_core, Activity::Light);
        }
        cluster
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
    /// each straggler core's cycle resource runs at its factor of the
    /// core's frequency from now on ([`MemSystem::set_cycle_factor`]).
    /// Identical seeds replay identical faults. A plan that fails
    /// validation, or names a node or core this cluster does not have,
    /// installs nothing. Call at most once, before traffic starts.
    pub fn apply_faults(&mut self, plan: &FaultPlan) -> Result<(), FaultPlanError> {
        let (nodes, cores) = (self.nodes(), self.spec.core_count() as usize);
        if let Some(s) = plan
            .stragglers
            .iter()
            .find(|s| s.node >= nodes || s.core >= cores)
        {
            return Err(FaultPlanError::StragglerOutOfRange {
                node: s.node,
                core: s.core,
                nodes,
                cores,
            });
        }
        self.net.apply_faults(&mut self.engine, plan)?;
        for s in &plan.stragglers {
            self.mem[s.node].set_cycle_factor(CoreId(s.core as u32), s.factor);
            self.mem[s.node].apply_freqs(&mut self.engine, &self.freqs[s.node]);
        }
        Ok(())
    }

    /// Per-node frequency models, read-only: change an activity with
    /// [`Cluster::set_activity`].
    pub fn freqs(&self) -> &[FreqModel] {
        &self.freqs
    }

    /// The cluster's one frequency transition outside a job: set `core` of
    /// `node` to `activity` through the node's executor (core, controller
    /// and roofline caps, [`Executor::set_activity`]), then rescale the
    /// node's NIC with its uncore frequency. Returns whether the activity
    /// changed. A job's start, end and stop make the same transition.
    pub fn set_activity(&mut self, node: usize, core: CoreId, activity: Activity) -> bool {
        let (mem, freqs) = (&self.mem[node], &mut self.freqs[node]);
        let changed = self.exec[node].set_activity(&mut self.engine, mem, freqs, core, activity);
        if changed {
            self.refresh_nic(node);
        }
        changed
    }

    /// Rescale `node`'s NIC with its uncore frequency (a no-op unless it
    /// moved): the last step of every activity change on the node.
    fn refresh_nic(&mut self, node: usize) {
        let ghz = self.freqs[node].uncore_freq();
        self.net.set_uncore(&mut self.engine, &self.spec, node, ghz);
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
        self.refresh_nic(node);
        id
    }

    /// Stop a running job, returning its partial stats.
    pub fn stop_job(&mut self, node: usize, id: JobId) -> Option<JobStats> {
        let st = self.exec[node].stop(&mut self.engine, &self.mem[node], &mut self.freqs[node], id);
        self.refresh_nic(node);
        st
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
        // One number names the send here and its transfer in netsim, which
        // holds what this layer does not: this is the only `start_send` call
        // on the cluster's `NetSim`, so the two count up together.
        assert_eq!(
            transfer.0 as usize,
            self.sends.len(),
            "a send's request id is its transfer id"
        );
        let req = ReqId(transfer.0);
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
            recv: NO_REQ,
            delivered: false,
        });
        if let Some(r) = self
            .matcher
            .post_send((to as u32, from as u32, mtag), transfer)
        {
            self.sends[req.0 as usize].recv = r;
            self.net.recv_ready(&mut self.engine, transfer);
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
        let sends = &self.sends;
        let matched = self
            .matcher
            .post_recv((node as u32, src as u32, mtag), req.0, |t| {
                sends[t.0 as usize].state == ReqState::Failed
            });
        let mut state = ReqState::Pending;
        if let Some(transfer) = matched {
            let s = &mut self.sends[transfer.0 as usize];
            s.recv = req.0;
            if s.delivered {
                // The payload already arrived: the request is instantaneous.
                state = ReqState::Complete;
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
        self.recvs.push(state);
        req
    }

    /// True if the request has completed.
    pub fn test_send(&self, req: ReqId) -> bool {
        self.sends[req.0 as usize].state == ReqState::Complete
    }

    /// True if the request has completed.
    pub fn test_recv(&self, req: ReqId) -> bool {
        self.recvs[req.0 as usize] == ReqState::Complete
    }

    /// True if the send's transfer failed permanently (fault injection).
    pub fn send_failed(&self, req: ReqId) -> bool {
        self.sends[req.0 as usize].state == ReqState::Failed
    }

    /// True if the receive's matched transfer failed permanently.
    pub fn recv_failed(&self, req: ReqId) -> bool {
        self.recvs[req.0 as usize] == ReqState::Failed
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
            .filter(|&&r| r == ReqState::Pending)
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
                    // Executor ids are node indices, and a compute tag's
                    // kind is its executor's id; `on_event` checks `owns`.
                    let (exec_id, _) = split_kind_index(simcore::payload(ev.tag()));
                    let node = exec_id as usize;
                    let done = {
                        let (mem, freqs, exec) =
                            (&self.mem[node], &mut self.freqs[node], &mut self.exec[node]);
                        exec.on_event(&mut self.engine, mem, freqs, &ev)
                    };
                    // Only a job's end changes an activity here.
                    if let Some((job, stats)) = done {
                        self.refresh_nic(node);
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
        let now = self.engine.now();
        match out {
            NetEvent::SendComplete {
                id,
                from,
                size,
                sender_elapsed,
                retry,
            } => {
                self.sends[id.0 as usize].state = ReqState::Complete;
                telemetry::async_end(now, "mpi.send", id.0 as u64, Lane::Node(from as u8));
                if self.profiling {
                    self.profile.push(SendRecord {
                        node: from,
                        size,
                        elapsed: sender_elapsed,
                        retry,
                    });
                }
                Some(ClusterEvent::SendComplete(ReqId(id.0)))
            }
            NetEvent::Delivered { id, to } => {
                let s = &mut self.sends[id.0 as usize];
                if s.recv == NO_REQ {
                    // Arrived before any receive was posted.
                    s.delivered = true;
                    return None;
                }
                let r = s.recv;
                self.recvs[r as usize] = ReqState::Complete;
                telemetry::async_end(now, "mpi.recv", r as u64, Lane::Node(to as u8));
                Some(ClusterEvent::RecvComplete(ReqId(r)))
            }
            NetEvent::Failed { id, from, retry } => {
                let s = &mut self.sends[id.0 as usize];
                s.state = ReqState::Failed;
                let lane = Lane::Node(from as u8);
                telemetry::instant(now, "mpi", "send.failed", lane);
                telemetry::async_end(now, "mpi.send", id.0 as u64, lane);
                // The matched receive will never complete either, and a
                // queued unexpected transfer must never match.
                if s.recv != NO_REQ {
                    self.recvs[s.recv as usize] = ReqState::Failed;
                }
                self.matcher.drop_failed(id);
                Some(ClusterEvent::SendFailed {
                    req: ReqId(id.0),
                    retry,
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

    /// Under certain RTS loss, an eager send completes untouched while a
    /// rendezvous send with its receive posted fails, and every event and
    /// query about the failed send reads that send's own transfer. Both
    /// matchers share this bookkeeping, so the matcher differential cannot
    /// see it.
    #[test]
    fn failed_send_reports_its_own_transfer_under_both_matchers() {
        use netsim::{CTRL_MSG_BYTES, DEFAULT_MAX_RETRIES};
        for scan in [false, true] {
            let paths = ReferencePaths {
                matcher: scan,
                ..ReferencePaths::default()
            };
            let mut c = simcore::reference_paths::scoped(paths, || {
                Cluster::with_fabric(
                    &henri(),
                    FabricSpec::Switch.build_for(4),
                    Governor::Userspace(2.3),
                    UncorePolicy::Fixed(2.4),
                    Placement::fig4_default(),
                )
            });
            assert_eq!(c.reference_paths().matcher, scan);
            c.apply_faults(&FaultPlan::new(3).with_rts_drop(1.0))
                .expect("valid plan");
            c.enable_profiling();
            let eager_recv = c.irecv_from(1, 0, 4);
            let eager = c.isend_to(0, 1, 64, 4, 1);
            let rdv_recv = c.irecv_from(3, 2, 4);
            let rdv = c.isend_to(2, 3, 4 << 20, 4, 2);
            let (mut completed, mut failed) = (Vec::new(), Vec::new());
            while let Some(ev) = c.step() {
                match ev {
                    ClusterEvent::SendComplete(s) => completed.push(s),
                    ClusterEvent::SendFailed { req, retry } => failed.push((req, retry)),
                    _ => {}
                }
            }
            assert_eq!(completed, [eager], "scan {scan}");
            assert!(c.test_recv(eager_recv));
            let profile = c.send_profile();
            assert_eq!(profile.len(), 1, "scan {scan}");
            assert_eq!(
                (profile[0].size, profile[0].retry),
                (64, RetryStats::default())
            );
            // No RTS gets through, so no CTS is sent: each retry but the
            // final give-up re-sends the RTS alone.
            let [(req, retry)] = failed[..] else {
                panic!("scan {scan}: failures {failed:?}")
            };
            assert_eq!(req, rdv, "scan {scan}");
            assert_eq!(retry.retries, DEFAULT_MAX_RETRIES + 1);
            assert_eq!(
                retry.retrans_bytes,
                DEFAULT_MAX_RETRIES as u64 * CTRL_MSG_BYTES
            );
            assert!(c.send_failed(rdv) && c.recv_failed(rdv_recv));
            assert!(!c.send_failed(eager) && !c.recv_failed(eager_recv));
        }
    }

    /// A compute event reaches the executor of its own node: jobs on nodes
    /// 3 and 1 of a 4-node cluster finish there, in duration order.
    #[test]
    fn compute_events_reach_their_own_node() {
        let mut c = Cluster::with_fabric(
            &henri(),
            FabricSpec::Switch.build_for(4),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement::fig4_default(),
        );
        let job = |flops: f64| JobSpec {
            core: CoreId(0),
            phases: vec![Phase {
                flops,
                bytes: 1e6,
                data: NumaId(0),
                license: License::Normal,
            }],
            iterations: 2,
        };
        let long = c.start_job(3, job(2e9));
        let short = c.start_job(1, job(1e9));
        let mut done = Vec::new();
        while let Some(ev) = c.step() {
            if let ClusterEvent::JobDone { node, job, .. } = ev {
                done.push((node, job));
            }
        }
        assert_eq!(done, [(1, short), (3, long)]);
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

    /// A straggler's cycle resource runs at its factor of the core's
    /// frequency through every later transition: the socket ladder moving
    /// under an AVX512 job on the same socket, and that job stopping. The
    /// same core on the healthy node runs at its frequency.
    #[test]
    fn straggler_stays_scaled_across_transitions() {
        let mut c = Cluster::new(
            &henri(),
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
            Placement::fig4_default(),
        );
        c.apply_faults(&FaultPlan::new(1).with_straggler(1, 3, 0.5))
            .expect("valid plan");
        let core = CoreId(3);
        let check = |c: &Cluster, when: &str| {
            let bits = |node: usize| c.engine.capacity(c.mem[node].core_resource(core)).to_bits();
            let f = |node: usize| c.freqs()[node].core_freq(core);
            assert_eq!(bits(1), (f(1) * 1e9 * 0.5).to_bits(), "straggler {when}");
            assert_eq!(bits(0), (f(0) * 1e9).to_bits(), "healthy core {when}");
        };
        check(&c, "after apply_faults");
        let idle = c.freqs()[1].core_freq(core);
        let job = c.start_job(
            1,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 1e12,
                    bytes: 0.0,
                    data: NumaId(0),
                    license: License::Avx512,
                }],
                iterations: 1,
            },
        );
        assert_ne!(c.freqs()[1].core_freq(core), idle, "the ladder moved");
        check(&c, "after the job started");
        assert!(c.stop_job(1, job).is_some());
        check(&c, "after the job stopped");
    }

    /// A straggler on a node or core the cluster lacks is a typed error,
    /// and nothing of the plan is installed: its NIC stall window never
    /// runs.
    #[test]
    fn out_of_range_straggler_is_an_error() {
        for (node, core) in [(5, 0), (0, 99)] {
            let mut c = cluster();
            let plan = FaultPlan::new(1)
                .with_nic_stall(SimTime::from_micros(1), SimTime::from_micros(2))
                .with_straggler(node, core, 0.5);
            let err = c.apply_faults(&plan).expect_err("outside the cluster");
            assert_eq!(
                err,
                FaultPlanError::StragglerOutOfRange {
                    node,
                    core,
                    nodes: 2,
                    cores: 36
                }
            );
            assert!(err.to_string().contains("outside the cluster"), "{err}");
            assert!(c.step().is_none());
            assert_eq!(c.engine.now(), SimTime::ZERO, "a fault window ran");
        }
    }

    /// Under `UncorePolicy::Auto`, idling both communication cores drops
    /// the uncore, and `Cluster::set_activity` carries that to the NICs: a
    /// large rendezvous send on a registered buffer runs slower.
    #[test]
    fn idle_comm_cores_slow_the_nic() {
        let send_time = |idle: bool| {
            let mut c = Cluster::new(
                &henri(),
                Governor::Performance { turbo: true },
                UncorePolicy::Auto,
                Placement::fig4_default(),
            );
            if idle {
                for node in 0..2 {
                    let comm = c.comm_core[node];
                    assert!(c.set_activity(node, comm, Activity::Idle));
                }
            }
            let send = |c: &mut Cluster| {
                let start = c.engine.now();
                let r = c.irecv(1, 1);
                c.isend(0, 64 << 20, 1, 1);
                drive_until_recv(c, r);
                (c.engine.now() - start).as_secs_f64()
            };
            send(&mut c); // registers the buffer
            send(&mut c)
        };
        let (busy, idle) = (send_time(false), send_time(true));
        assert!(idle > busy * 1.02, "busy {busy} s, idle {idle} s");
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
