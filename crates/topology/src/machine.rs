//! Machine model: sockets, NUMA nodes, cores, NIC placement, frequency
//! ranges and the parameters of the memory system and network.
//!
//! All bandwidths are bytes/s, all frequencies GHz, all latencies seconds
//! (converted to `SimTime` by the simulator crates).

use std::fmt;

/// Identifies a core by its *logical number*, following the host's logical
/// numbering exactly as the paper does ("computing threads are bound to
/// cores respecting the order of the logical core numbering").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CoreId(pub u32);

/// Why a topology lookup or placement resolution failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A core id is not on this machine.
    CoreOutOfRange {
        /// The offending core.
        core: CoreId,
        /// Number of cores on the machine.
        count: u32,
    },
    /// A NUMA id is not on this machine.
    NumaOutOfRange {
        /// The offending NUMA node.
        numa: NumaId,
        /// Number of NUMA nodes on the machine.
        count: u32,
    },
    /// A far-from-NIC placement was requested on a machine where every NUMA
    /// node shares the NIC's socket.
    NoFarNuma {
        /// Number of sockets on the machine.
        sockets: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::CoreOutOfRange { core, count } => {
                write!(
                    f,
                    "core {:?} out of range (machine has {} cores)",
                    core, count
                )
            }
            TopologyError::NumaOutOfRange { numa, count } => {
                write!(
                    f,
                    "numa {:?} out of range (machine has {} NUMA nodes)",
                    numa, count
                )
            }
            TopologyError::NoFarNuma { sockets } => write!(
                f,
                "far NUMA requires at least two sockets (machine has {})",
                sockets
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Identifies a NUMA node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NumaId(pub u32);

/// Identifies a socket (package).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SocketId(pub u32);

/// The interconnect family of a cluster — only used for behavioural quirks
/// the paper reports (Omni-Path shows wide bandwidth deviation; §3.2 note 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetworkKind {
    /// Mellanox InfiniBand (EDR/HDR).
    InfiniBand,
    /// Intel Omni-Path 100 series.
    OmniPath,
}

/// Network interface + fabric parameters.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// Interconnect family.
    pub kind: NetworkKind,
    /// One-way wire latency in seconds (switch + cable + NIC hardware).
    pub wire_latency_s: f64,
    /// Link bandwidth in bytes/s (per direction).
    pub link_bw: f64,
    /// PCIe/NIC DMA path bandwidth in bytes/s (host-side bottleneck).
    pub dma_bw: f64,
    /// Eager → rendezvous protocol switch threshold in bytes.
    pub eager_threshold: usize,
    /// Relative run-to-run bandwidth jitter (lognormal sigma). Omni-Path's
    /// "wide deviation" is expressed here.
    pub bw_jitter: f64,
    /// Per-message software overhead on the communication core, in cycles.
    /// Divided by the core frequency this is the `o` of the LogP model.
    pub sw_overhead_cycles: f64,
    /// Number of uncore/memory control transactions issued per message by
    /// the communication thread (doorbells, completion-queue reads). Each
    /// costs a congestion-inflated memory access latency.
    pub ctrl_accesses: f64,
    /// Weight of NIC DMA flows in max-min arbitration, relative to one core
    /// (NICs keep many outstanding requests; measured shares on real
    /// machines are several cores' worth).
    pub nic_dma_weight: f64,
    /// Memory registration (page pinning) cost: fixed seconds + per-byte.
    pub reg_base_s: f64,
    /// Per-byte registration cost (seconds/byte).
    pub reg_per_byte_s: f64,
}

/// Full description of one cluster node type.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Cluster name (henri, bora, billy, pyxis, …).
    pub name: String,
    /// Number of sockets (packages).
    pub sockets: u32,
    /// NUMA nodes per socket (sub-NUMA clustering counts here).
    pub numa_per_socket: u32,
    /// Cores per NUMA node.
    pub cores_per_numa: u32,

    /// Memory controller bandwidth per NUMA node, bytes/s, at max uncore
    /// frequency (STREAM-attainable, not theoretical peak).
    pub mem_bw_per_numa: f64,
    /// Single-core sustainable load/store bandwidth, bytes/s (a core cannot
    /// saturate a controller alone).
    pub per_core_bw: f64,
    /// Inter-socket (UPI/xGMI) link bandwidth, bytes/s, per direction.
    pub interlink_bw: f64,
    /// Intra-socket cross-NUMA (sub-NUMA clustering mesh) bandwidth,
    /// bytes/s, per direction. Unused on machines with one NUMA node per
    /// socket.
    pub intra_link_bw: f64,
    /// Extra latency of a remote-NUMA memory access, seconds.
    pub remote_access_lat_s: f64,
    /// Base latency of a local uncore/memory transaction, seconds.
    pub local_access_lat_s: f64,

    /// NUMA node the NIC is attached to.
    pub nic_numa: NumaId,
    /// Network parameters.
    pub network: NetworkSpec,

    /// Frequency of idle cores under a dynamic governor (GHz).
    pub idle_freq: f64,
    /// Frequency ceiling for "light" threads (communication/polling loops):
    /// such threads are architecturally active but do not trip the full
    /// turbo ladder. The paper observes the communication core pinned near
    /// 2.5 GHz on henri regardless of the surrounding load (§3.2, §3.3).
    pub light_freq_cap: f64,
    /// Minimum core frequency (GHz).
    pub min_freq: f64,
    /// Nominal (base) core frequency (GHz).
    pub base_freq: f64,
    /// Turbo table: `turbo_table[license][i]` = max frequency with `i+1`
    /// active cores in the socket; the last entry covers all larger counts.
    /// Index 0: normal instructions, 1: AVX2-class, 2: AVX512-class.
    pub turbo_table: [Vec<f64>; 3],
    /// Uncore frequency range (GHz): (min, max).
    pub uncore_range: (f64, f64),
    /// Scalar flops per cycle per core (FMA units × 2).
    pub flops_per_cycle: f64,
    /// Vector width multiplier per license: [normal, avx2, avx512].
    pub simd_mult: [f64; 3],

    /// Relative run-to-run latency jitter (lognormal sigma).
    pub lat_jitter: f64,
    /// Congestion latency knee: utilization above which queueing inflates
    /// access latency.
    pub congestion_knee: f64,
    /// Congestion latency slope (multiplier at full saturation).
    pub congestion_gain: f64,
    /// Extra small-message latency (seconds) when the package is mostly idle
    /// (uncore power management); vanishes once enough cores are active.
    /// Reproduces the paper's observation that latency *improves* when
    /// computation runs next to communication (§3.2, §3.3).
    pub idle_uncore_penalty_s: f64,
}

impl MachineSpec {
    /// Total number of NUMA nodes.
    pub fn numa_count(&self) -> u32 {
        self.sockets * self.numa_per_socket
    }

    /// Total number of cores.
    pub fn core_count(&self) -> u32 {
        self.numa_count() * self.cores_per_numa
    }

    /// NUMA node of a core. Logical numbering fills NUMA nodes in order.
    ///
    /// Panics on out-of-range cores; see [`MachineSpec::try_numa_of_core`].
    pub fn numa_of_core(&self, core: CoreId) -> NumaId {
        match self.try_numa_of_core(core) {
            Ok(n) => n,
            Err(e) => panic!("{}", e),
        }
    }

    /// Fallible [`MachineSpec::numa_of_core`].
    pub fn try_numa_of_core(&self, core: CoreId) -> Result<NumaId, TopologyError> {
        if core.0 >= self.core_count() {
            return Err(TopologyError::CoreOutOfRange {
                core,
                count: self.core_count(),
            });
        }
        Ok(NumaId(core.0 / self.cores_per_numa))
    }

    /// Socket of a NUMA node.
    ///
    /// Panics on out-of-range nodes; see [`MachineSpec::try_socket_of_numa`].
    pub fn socket_of_numa(&self, numa: NumaId) -> SocketId {
        match self.try_socket_of_numa(numa) {
            Ok(s) => s,
            Err(e) => panic!("{}", e),
        }
    }

    /// Fallible [`MachineSpec::socket_of_numa`].
    pub fn try_socket_of_numa(&self, numa: NumaId) -> Result<SocketId, TopologyError> {
        if numa.0 >= self.numa_count() {
            return Err(TopologyError::NumaOutOfRange {
                numa,
                count: self.numa_count(),
            });
        }
        Ok(SocketId(numa.0 / self.numa_per_socket))
    }

    /// Socket of a core.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        self.socket_of_numa(self.numa_of_core(core))
    }

    /// Cores of a NUMA node, in logical order.
    ///
    /// Panics on out-of-range nodes; see [`MachineSpec::try_cores_of_numa`].
    pub fn cores_of_numa(&self, numa: NumaId) -> Vec<CoreId> {
        match self.try_cores_of_numa(numa) {
            Ok(c) => c,
            Err(e) => panic!("{}", e),
        }
    }

    /// Fallible [`MachineSpec::cores_of_numa`].
    pub fn try_cores_of_numa(&self, numa: NumaId) -> Result<Vec<CoreId>, TopologyError> {
        if numa.0 >= self.numa_count() {
            return Err(TopologyError::NumaOutOfRange {
                numa,
                count: self.numa_count(),
            });
        }
        let start = numa.0 * self.cores_per_numa;
        Ok((start..start + self.cores_per_numa).map(CoreId).collect())
    }

    /// Cores of a socket, in logical order.
    pub fn cores_of_socket(&self, socket: SocketId) -> Vec<CoreId> {
        (0..self.core_count())
            .map(CoreId)
            .filter(|&c| self.socket_of_core(c) == socket)
            .collect()
    }

    /// True if the NUMA node is on the same socket as the NIC.
    pub fn numa_near_nic(&self, numa: NumaId) -> bool {
        self.socket_of_numa(numa) == self.socket_of_numa(self.nic_numa)
    }

    /// A NUMA node on the socket opposite the NIC ("far from the NIC" in the
    /// paper's placement experiments). Panics on single-socket machines; see
    /// [`MachineSpec::try_far_numa`].
    pub fn far_numa(&self) -> NumaId {
        match self.try_far_numa() {
            Ok(n) => n,
            Err(e) => panic!("{}", e),
        }
    }

    /// Fallible [`MachineSpec::far_numa`].
    pub fn try_far_numa(&self) -> Result<NumaId, TopologyError> {
        let nic_socket = self.try_socket_of_numa(self.nic_numa)?;
        (0..self.numa_count())
            .map(NumaId)
            .rfind(|&n| self.socket_of_numa(n) != nic_socket)
            .ok_or(TopologyError::NoFarNuma {
                sockets: self.sockets,
            })
    }

    /// The NUMA node the NIC is attached to ("near").
    pub fn near_numa(&self) -> NumaId {
        self.nic_numa
    }

    /// Peak flop rate of one core at frequency `ghz` under a license.
    /// `license`: 0 normal, 1 AVX2, 2 AVX512.
    pub fn flop_rate(&self, ghz: f64, license: usize) -> f64 {
        ghz * 1e9 * self.flops_per_cycle * self.simd_mult[license]
    }

    /// Memory controller bandwidth at the given uncore frequency (linear in
    /// uncore frequency between 80 % and 100 % of max — matching the paper's
    /// small observed effect: 10.1 vs 10.5 GB/s over the full uncore range).
    pub fn mem_bw_at_uncore(&self, uncore_ghz: f64) -> f64 {
        let (lo, hi) = self.uncore_range;
        let t = ((uncore_ghz - lo) / (hi - lo)).clamp(0.0, 1.0);
        self.mem_bw_per_numa * (0.80 + 0.20 * t)
    }

    /// Resolve a placement request to concrete core/NUMA choices.
    ///
    /// Panics on invalid requests; see [`MachineSpec::try_resolve`].
    pub fn resolve(&self, p: Placement) -> ResolvedPlacement {
        match self.try_resolve(p) {
            Ok(r) => r,
            Err(e) => panic!("{}", e),
        }
    }

    /// Fallible [`MachineSpec::resolve`]: a far-from-NIC binding on a
    /// single-socket machine or an explicit out-of-range NUMA node comes
    /// back as [`TopologyError`] instead of a panic.
    pub fn try_resolve(&self, p: Placement) -> Result<ResolvedPlacement, TopologyError> {
        let comm_numa = match p.comm_thread {
            BindingPolicy::NearNic => self.near_numa(),
            BindingPolicy::FarFromNic => self.try_far_numa()?,
            BindingPolicy::Numa(n) => n,
        };
        // The paper binds the communication thread to the *last core* of the
        // chosen NUMA node.
        let comm_core = *self
            .try_cores_of_numa(comm_numa)?
            .last()
            .expect("non-empty NUMA node");
        let data_numa = match p.data {
            BindingPolicy::NearNic => self.near_numa(),
            BindingPolicy::FarFromNic => self.try_far_numa()?,
            BindingPolicy::Numa(n) => {
                if n.0 >= self.numa_count() {
                    return Err(TopologyError::NumaOutOfRange {
                        numa: n,
                        count: self.numa_count(),
                    });
                }
                n
            }
        };
        // Computing threads: logical order, skipping the comm core.
        let compute_cores: Vec<CoreId> = (0..self.core_count())
            .map(CoreId)
            .filter(|&c| c != comm_core)
            .collect();
        Ok(ResolvedPlacement {
            comm_core,
            data_numa,
            compute_cores,
        })
    }
}

/// Where to bind a thread or allocate data, relative to the NIC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BindingPolicy {
    /// Same socket as the NIC.
    NearNic,
    /// The other socket.
    FarFromNic,
    /// An explicit NUMA node.
    Numa(NumaId),
}

/// A placement request: where the communication thread runs and where the
/// benchmark data lives (§4.3 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// Binding of the communication thread.
    pub comm_thread: BindingPolicy,
    /// NUMA node of computation *and* communication buffers (the paper
    /// allocates both on a single node to maximize contention).
    pub data: BindingPolicy,
}

impl Placement {
    /// The paper's default for Figure 4: data near the NIC, communication
    /// thread far from it.
    pub fn fig4_default() -> Placement {
        Placement {
            comm_thread: BindingPolicy::FarFromNic,
            data: BindingPolicy::NearNic,
        }
    }

    /// All four near/far combinations (Table 1 rows).
    pub fn all_combinations() -> [(&'static str, Placement); 4] {
        use BindingPolicy::*;
        [
            (
                "data near, thread near",
                Placement {
                    comm_thread: NearNic,
                    data: NearNic,
                },
            ),
            (
                "data near, thread far",
                Placement {
                    comm_thread: FarFromNic,
                    data: NearNic,
                },
            ),
            (
                "data far, thread near",
                Placement {
                    comm_thread: NearNic,
                    data: FarFromNic,
                },
            ),
            (
                "data far, thread far",
                Placement {
                    comm_thread: FarFromNic,
                    data: FarFromNic,
                },
            ),
        ]
    }
}

/// Concrete binding produced by [`MachineSpec::resolve`].
#[derive(Clone, Debug)]
pub struct ResolvedPlacement {
    /// Core running the communication thread.
    pub comm_core: CoreId,
    /// NUMA node holding computation and communication buffers.
    pub data_numa: NumaId,
    /// Cores available for computing threads, in binding order.
    pub compute_cores: Vec<CoreId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::henri;

    #[test]
    fn henri_shape() {
        let m = henri();
        assert_eq!(m.sockets, 2);
        assert_eq!(m.numa_count(), 4);
        assert_eq!(m.core_count(), 36);
        assert_eq!(m.cores_per_numa, 9);
    }

    #[test]
    fn core_numa_socket_maps_consistent() {
        let m = henri();
        for c in 0..m.core_count() {
            let core = CoreId(c);
            let numa = m.numa_of_core(core);
            assert!(m.cores_of_numa(numa).contains(&core));
            let socket = m.socket_of_core(core);
            assert!(m.cores_of_socket(socket).contains(&core));
            assert_eq!(m.socket_of_numa(numa), socket);
        }
    }

    #[test]
    fn cores_of_numa_partition() {
        let m = henri();
        let mut seen = Vec::new();
        for n in 0..m.numa_count() {
            seen.extend(m.cores_of_numa(NumaId(n)));
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len() as u32, m.core_count());
    }

    #[test]
    fn near_far_numa() {
        let m = henri();
        assert!(m.numa_near_nic(m.near_numa()));
        assert!(!m.numa_near_nic(m.far_numa()));
        assert_ne!(
            m.socket_of_numa(m.near_numa()),
            m.socket_of_numa(m.far_numa())
        );
    }

    #[test]
    fn resolve_fig4_placement() {
        let m = henri();
        let r = m.resolve(Placement::fig4_default());
        // Comm thread far from NIC, last core of a far NUMA node.
        assert!(!m.numa_near_nic(m.numa_of_core(r.comm_core)));
        // Data near NIC.
        assert!(m.numa_near_nic(r.data_numa));
        // 35 compute cores (36 minus the comm core), none equal to comm core.
        assert_eq!(r.compute_cores.len(), 35);
        assert!(!r.compute_cores.contains(&r.comm_core));
    }

    #[test]
    fn flop_rate_scales_with_freq_and_license() {
        let m = henri();
        let base = m.flop_rate(1.0, 0);
        assert!(m.flop_rate(2.0, 0) > base * 1.9);
        assert!(m.flop_rate(1.0, 2) > m.flop_rate(1.0, 0));
    }

    #[test]
    fn mem_bw_uncore_span() {
        let m = henri();
        let lo = m.mem_bw_at_uncore(m.uncore_range.0);
        let hi = m.mem_bw_at_uncore(m.uncore_range.1);
        assert!(lo < hi);
        assert!((hi / m.mem_bw_per_numa - 1.0).abs() < 1e-12);
        assert!((lo / hi - 0.80).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_core_panics() {
        let m = henri();
        let _ = m.numa_of_core(CoreId(10_000));
    }

    #[test]
    fn try_lookups_return_typed_errors() {
        let m = henri();
        assert_eq!(
            m.try_numa_of_core(CoreId(10_000)),
            Err(TopologyError::CoreOutOfRange {
                core: CoreId(10_000),
                count: 36
            })
        );
        assert_eq!(
            m.try_socket_of_numa(NumaId(99)),
            Err(TopologyError::NumaOutOfRange {
                numa: NumaId(99),
                count: 4
            })
        );
        assert!(m.try_cores_of_numa(NumaId(99)).is_err());
        // Healthy lookups agree with the panicking API.
        assert_eq!(m.try_numa_of_core(CoreId(5)), Ok(m.numa_of_core(CoreId(5))));
        assert_eq!(m.try_far_numa(), Ok(m.far_numa()));
    }

    #[test]
    fn try_resolve_rejects_bad_requests() {
        let m = henri();
        let bad = Placement {
            comm_thread: BindingPolicy::Numa(NumaId(99)),
            data: BindingPolicy::NearNic,
        };
        assert!(matches!(
            m.try_resolve(bad),
            Err(TopologyError::NumaOutOfRange { .. })
        ));
        let bad_data = Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::Numa(NumaId(99)),
        };
        assert!(matches!(
            m.try_resolve(bad_data),
            Err(TopologyError::NumaOutOfRange { .. })
        ));
        // A single-socket machine has no far NUMA node.
        let mut single = henri();
        single.sockets = 1;
        single.nic_numa = NumaId(0);
        assert_eq!(
            single.try_far_numa(),
            Err(TopologyError::NoFarNuma { sockets: 1 })
        );
        let msg = single.try_far_numa().unwrap_err().to_string();
        assert!(msg.contains("at least two sockets"), "{}", msg);
    }

    #[test]
    fn all_placements_distinct() {
        let combos = Placement::all_combinations();
        for (i, (_, a)) in combos.iter().enumerate() {
            for (_, b) in &combos[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
