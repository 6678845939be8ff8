//! # memsim — memory system simulation
//!
//! Instantiates a machine's memory hierarchy as fluid resources:
//!
//! * one **memory controller** per NUMA node (capacity = STREAM bandwidth,
//!   scaled by the uncore frequency),
//! * one **intra-socket mesh link** per socket (sub-NUMA clustering
//!   traffic),
//! * one **inter-socket link** per direction (UPI/xGMI),
//! * one **cycle resource** per core (capacity = core frequency times the
//!   core's cycle factor: 1, or a straggler's factor), used for
//!   pure-compute phases and per-message software overheads.
//!
//! Every memory access path is a list of resources: the data's home
//! controller, plus mesh/UPI hops when the requester (core or NIC) sits on a
//! different NUMA node or socket. Small-transaction *latency* (as opposed to
//! streaming bandwidth) is congestion-inflated: queueing at a hop grows with
//! the offered load on it (see [`MemSystem::access_latency`]) — this is the
//! mechanism behind the paper's latency curves (Figures 4a and 5a–c).
//!
//! The paper reads PMU counters to attribute stalls to memory (Figure 10).
//! Here the same books come from three places: per-job stall seconds in
//! [`exec::JobStats`], the executor's telemetry counters
//! (`mem.channel.bytes`, `mem.stall_ps`, `freq.license.*`), and each
//! resource's delivered bytes and busy integral on the engine.

#![warn(missing_docs)]

pub mod exec;

use freq::FreqModel;
use simcore::{Engine, ResourceId, SimTime};
use topology::{CoreId, MachineSpec, NumaId, SocketId};

/// Who issues a memory access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Requester {
    /// A CPU core.
    Core(CoreId),
    /// The NIC's DMA engine.
    Nic,
}

/// A memory or control path: at most four resources, held inline so the
/// per-message paths need no heap allocation.
struct Hops {
    r: [ResourceId; 4],
    n: usize,
}

impl Hops {
    fn one(r: ResourceId) -> Hops {
        Hops { r: [r; 4], n: 1 }
    }

    fn push(&mut self, r: ResourceId) {
        self.r[self.n] = r;
        self.n += 1;
    }

    fn as_slice(&self) -> &[ResourceId] {
        &self.r[..self.n]
    }
}

/// The memory system of one simulated node.
pub struct MemSystem {
    /// Human-readable prefix ("n0.", "n1." …) for resource names.
    pub label: String,
    spec: MachineSpec,
    controllers: Vec<ResourceId>,
    /// One mesh resource per socket (intra-socket cross-NUMA traffic).
    meshes: Vec<ResourceId>,
    /// Inter-socket links, one per direction: `[s0→s1, s1→s0]` (two-socket
    /// machines only, which covers all presets).
    upi: [ResourceId; 2],
    /// Per-core cycle resources, unit = cycles/s.
    cores: Vec<ResourceId>,
    /// Per-core multiplier of the frequency on the cycle resource: 1.0, or
    /// a straggler's factor (see [`MemSystem::set_cycle_factor`]).
    cycle_factor: Vec<f64>,
}

impl MemSystem {
    /// Create all resources on the engine. Capacities start at nominal
    /// (max uncore, idle cores at idle frequency).
    pub fn build(engine: &mut Engine, spec: &MachineSpec, label: impl Into<String>) -> MemSystem {
        assert_eq!(spec.sockets, 2, "memsim models two-socket nodes");
        let label = label.into();
        let controllers = (0..spec.numa_count())
            .map(|n| engine.add_resource(format!("{}mem{}", label, n), spec.mem_bw_per_numa))
            .collect();
        let meshes = (0..spec.sockets)
            .map(|s| engine.add_resource(format!("{}mesh{}", label, s), spec.intra_link_bw))
            .collect();
        let upi = [
            engine.add_resource(format!("{}upi0to1", label), spec.interlink_bw),
            engine.add_resource(format!("{}upi1to0", label), spec.interlink_bw),
        ];
        let cores = (0..spec.core_count())
            .map(|c| engine.add_resource(format!("{}core{}", label, c), spec.idle_freq * 1e9))
            .collect();
        MemSystem {
            label,
            spec: spec.clone(),
            controllers,
            meshes,
            upi,
            cores,
            cycle_factor: vec![1.0; spec.core_count() as usize],
        }
    }

    /// The machine spec this system was built from.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Cycle resource of a core.
    pub fn core_resource(&self, core: CoreId) -> ResourceId {
        self.cores[core.0 as usize]
    }

    /// Memory controller resource of a NUMA node.
    pub fn controller(&self, numa: NumaId) -> ResourceId {
        self.controllers[numa.0 as usize]
    }

    /// NUMA node a requester is attached to.
    pub fn numa_of(&self, req: Requester) -> NumaId {
        match req {
            Requester::Core(c) => self.spec.numa_of_core(c),
            Requester::Nic => self.spec.nic_numa,
        }
    }

    /// The resource path of a streaming access from `req` to memory on
    /// `data` (order: controller first, then hops toward the requester).
    pub fn path(&self, req: Requester, data: NumaId) -> Vec<ResourceId> {
        self.hops(req, data).as_slice().to_vec()
    }

    /// Append [`MemSystem::path`]`(req, data)` to `out`, allocating only
    /// if `out` must grow.
    pub fn path_into(&self, req: Requester, data: NumaId, out: &mut Vec<ResourceId>) {
        out.extend_from_slice(self.hops(req, data).as_slice());
    }

    fn hops(&self, req: Requester, data: NumaId) -> Hops {
        let req_numa = self.numa_of(req);
        let mut path = Hops::one(self.controller(data));
        if req_numa == data {
            return path;
        }
        let s_req = self.spec.socket_of_numa(req_numa);
        let s_data = self.spec.socket_of_numa(data);
        if s_req == s_data {
            path.push(self.meshes[s_req.0 as usize]);
        } else {
            // Data flows from `data`'s socket to the requester's socket.
            path.push(self.meshes[s_data.0 as usize]);
            path.push(self.upi_dir(s_data, s_req));
            path.push(self.meshes[s_req.0 as usize]);
        }
        path
    }

    /// Directed inter-socket link resource.
    pub fn upi_dir(&self, from: SocketId, to: SocketId) -> ResourceId {
        assert_ne!(from, to);
        if from.0 == 0 {
            self.upi[0]
        } else {
            self.upi[1]
        }
    }

    /// Pin `core`'s cycle resource to `factor` of its frequency from the
    /// next [`MemSystem::apply_freqs`] on (a straggler core). The roofline
    /// caps of memory phases still follow the unscaled frequency.
    pub fn set_cycle_factor(&mut self, core: CoreId, factor: f64) {
        self.cycle_factor[core.0 as usize] = factor;
    }

    /// Apply current frequencies: core cycle capacities (each times its
    /// cycle factor, exact for the default 1.0) and uncore-scaled
    /// controller capacities. The only writer of both; call after every
    /// `FreqModel` activity change.
    pub fn apply_freqs(&self, engine: &mut Engine, freqs: &FreqModel) {
        for (c, (&r, &k)) in self.cores.iter().zip(&self.cycle_factor).enumerate() {
            engine.set_capacity(r, freqs.core_freq(CoreId(c as u32)) * 1e9 * k);
        }
        let bw = self.spec.mem_bw_at_uncore(freqs.uncore_freq());
        for &ctl in &self.controllers {
            engine.set_capacity(ctl, bw);
        }
    }

    /// Base (uncongested) latency of one memory transaction from `req` to
    /// NUMA node `data`, in seconds.
    pub fn base_access_latency(&self, req: Requester, data: NumaId) -> f64 {
        let req_numa = self.numa_of(req);
        if req_numa == data {
            self.spec.local_access_lat_s
        } else if self.spec.socket_of_numa(req_numa) == self.spec.socket_of_numa(data) {
            // Same socket, different sub-NUMA domain: between local and
            // remote.
            0.5 * (self.spec.local_access_lat_s + self.spec.remote_access_lat_s)
        } else {
            self.spec.remote_access_lat_s
        }
    }

    /// Congestion inflation factor of one hop given offered load `rho`
    /// (demand/capacity): queueing delay grows past the knee and saturates
    /// — transactions are eventually pipelined behind a bounded queue.
    fn hop_inflation(&self, rho: f64) -> f64 {
        let over = (rho - self.spec.congestion_knee).max(0.0);
        1.0 + self.spec.congestion_gain * over.min(16.0)
    }

    /// Latency of one small memory transaction (doorbell, descriptor read,
    /// task-list probe…) from `req` to `data`, inflated by congestion along
    /// the path. This is the key non-linearity behind the latency figures:
    /// a saturated hop multiplies small-transaction latency even though
    /// streaming flows still share bandwidth fairly.
    pub fn access_latency(&self, engine: &mut Engine, req: Requester, data: NumaId) -> SimTime {
        let base = self.base_access_latency(req, data);
        SimTime::from_secs_f64(base * self.inflation(engine, &self.hops(req, data)))
    }

    /// Congestion inflation along `hops`: 1 plus each hop's excess over 1,
    /// summed in path order.
    fn inflation(&self, engine: &mut Engine, hops: &Hops) -> f64 {
        let mut factor = 1.0;
        for &r in hops.as_slice() {
            let cap = engine.capacity(r);
            let rho = if cap > 0.0 {
                engine.demand(r) / cap
            } else {
                0.0
            };
            factor += self.hop_inflation(rho) - 1.0;
        }
        factor
    }

    /// The resource path of a *control* transaction (NIC doorbell,
    /// completion-queue update, MMIO) between a requester and the device on
    /// `target` NUMA node. Control transactions ride the on-chip mesh and
    /// the socket interconnect but **not** the DRAM controllers: doorbells
    /// are MMIO writes and completion queues stay cache-resident (DDIO).
    /// This is why small-message latency is insensitive to controller
    /// saturation when the communication thread sits near the NIC, yet
    /// collapses when its control path crosses a saturated UPI link
    /// (Figures 4a and 5a–c).
    fn control_hops(&self, req: Requester, target: NumaId) -> Hops {
        let req_numa = self.numa_of(req);
        let s_req = self.spec.socket_of_numa(req_numa);
        let s_tgt = self.spec.socket_of_numa(target);
        let mut path = Hops::one(self.meshes[s_req.0 as usize]);
        if s_req != s_tgt {
            // Request and completion cross the socket link in both
            // directions; both must be healthy for low latency.
            path.push(self.upi_dir(s_req, s_tgt));
            path.push(self.upi_dir(s_tgt, s_req));
            path.push(self.meshes[s_tgt.0 as usize]);
        }
        path
    }

    /// Latency of one control transaction, congestion-inflated along the
    /// mesh/UPI hops of its path (see `control_hops`).
    pub fn control_latency(&self, engine: &mut Engine, req: Requester, target: NumaId) -> SimTime {
        let base = self.base_access_latency(req, target);
        SimTime::from_secs_f64(base * self.inflation(engine, &self.control_hops(req, target)))
    }

    /// Streaming-transfer cap imposed by a single requester (one core's
    /// load/store machinery, or the NIC DMA engines — NICs are not capped
    /// here; their cap is the DMA bandwidth handled by netsim).
    pub fn requester_cap(&self, req: Requester) -> Option<f64> {
        match req {
            Requester::Core(_) => Some(self.spec.per_core_bw),
            Requester::Nic => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::henri;

    fn setup() -> (Engine, MemSystem) {
        let mut e = Engine::new();
        let m = MemSystem::build(&mut e, &henri(), "n0.");
        (e, m)
    }

    #[test]
    fn resource_counts() {
        let (mut e, m) = setup();
        // 4 controllers + 2 meshes + 2 UPI + 36 cores.
        assert_eq!(m.controllers.len(), 4);
        assert_eq!(m.meshes.len(), 2);
        assert_eq!(m.cores.len(), 36);
        // Controllers start at nominal bandwidth.
        assert_eq!(e.capacity(m.controller(NumaId(0))), 45.0e9);
        let _ = e.utilization(m.controller(NumaId(0)));
    }

    #[test]
    fn local_path_is_controller_only() {
        let (_, m) = setup();
        let p = m.path(Requester::Core(CoreId(0)), NumaId(0));
        assert_eq!(p, vec![m.controller(NumaId(0))]);
    }

    #[test]
    fn same_socket_path_crosses_mesh() {
        let (_, m) = setup();
        // Core 0 is on NUMA 0; NUMA 1 is the other half of socket 0.
        let p = m.path(Requester::Core(CoreId(0)), NumaId(1));
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], m.controller(NumaId(1)));
        assert_eq!(p[1], m.meshes[0]);
    }

    #[test]
    fn cross_socket_path_crosses_upi() {
        let (_, m) = setup();
        // Core 0 (socket 0) reading from NUMA 3 (socket 1):
        let p = m.path(Requester::Core(CoreId(0)), NumaId(3));
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], m.controller(NumaId(3)));
        // Data moves socket1 → socket0.
        assert!(p.contains(&m.upi_dir(SocketId(1), SocketId(0))));
    }

    #[test]
    fn path_into_appends_the_path() {
        let (_, m) = setup();
        let head = m.core_resource(CoreId(1));
        for req in [
            Requester::Nic,
            Requester::Core(CoreId(0)),
            Requester::Core(CoreId(35)),
        ] {
            for n in 0..4 {
                let mut out = vec![head];
                m.path_into(req, NumaId(n), &mut out);
                assert_eq!(out[0], head);
                assert_eq!(out[1..], m.path(req, NumaId(n))[..]);
            }
        }
    }

    #[test]
    fn nic_attached_to_numa0() {
        let (_, m) = setup();
        assert_eq!(m.numa_of(Requester::Nic), NumaId(0));
        let p = m.path(Requester::Nic, NumaId(0));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn base_latency_ordering() {
        let (_, m) = setup();
        let local = m.base_access_latency(Requester::Core(CoreId(0)), NumaId(0));
        let intra = m.base_access_latency(Requester::Core(CoreId(0)), NumaId(1));
        let remote = m.base_access_latency(Requester::Core(CoreId(0)), NumaId(3));
        assert!(local < intra && intra < remote);
    }

    #[test]
    fn access_latency_inflates_under_load() {
        let (mut e, m) = setup();
        let quiet = m.access_latency(&mut e, Requester::Core(CoreId(35)), NumaId(0));
        // Saturate controller 0 with capped flows far beyond capacity.
        for i in 0..30 {
            e.start_flow(simcore::FlowSpec {
                path: vec![m.controller(NumaId(0))],
                volume: 1e12,
                weight: 1.0,
                cap: Some(12e9),
                tag: i,
            });
        }
        let busy = m.access_latency(&mut e, Requester::Core(CoreId(35)), NumaId(0));
        assert!(
            busy.as_secs_f64() > 2.0 * quiet.as_secs_f64(),
            "quiet {} busy {}",
            quiet,
            busy
        );
    }

    #[test]
    fn apply_freqs_scales_cores_and_controllers() {
        let (mut e, m) = setup();
        let mut f = FreqModel::new(
            &henri(),
            freq::Governor::Performance { turbo: true },
            freq::UncorePolicy::Auto,
        );
        // Idle: cores at 1 GHz, controllers at min-uncore bandwidth.
        m.apply_freqs(&mut e, &f);
        assert_eq!(e.capacity(m.core_resource(CoreId(0))), 1.0e9);
        assert!((e.capacity(m.controller(NumaId(0))) - 45.0e9 * 0.8).abs() < 1e6);
        // One heavy core: turbo + uncore max.
        f.set_activity(CoreId(0), freq::Activity::Heavy(freq::License::Normal));
        m.apply_freqs(&mut e, &f);
        assert_eq!(e.capacity(m.core_resource(CoreId(0))), 3.7e9);
        assert_eq!(e.capacity(m.controller(NumaId(0))), 45.0e9);
    }

    #[test]
    fn core_cap_is_per_core_bw() {
        let (_, m) = setup();
        assert_eq!(m.requester_cap(Requester::Core(CoreId(0))), Some(12.0e9));
        assert_eq!(m.requester_cap(Requester::Nic), None);
    }

    #[test]
    fn two_nodes_have_disjoint_resources() {
        let mut e = Engine::new();
        let a = MemSystem::build(&mut e, &henri(), "n0.");
        let b = MemSystem::build(&mut e, &henri(), "n1.");
        assert_ne!(a.controller(NumaId(0)), b.controller(NumaId(0)));
        assert_ne!(a.core_resource(CoreId(0)), b.core_resource(CoreId(0)));
    }
}
