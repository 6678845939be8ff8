//! Cluster presets.
//!
//! The four node types of the paper (§2.2), with parameters assembled from
//! the published hardware characteristics and calibrated against the point
//! values the paper reports (see `EXPERIMENTS.md` for the mapping):
//!
//! * **henri** — dual Intel Xeon Gold 6140 @2.3 GHz, 36 cores / 4 NUMA nodes
//!   (sub-NUMA clustering), InfiniBand ConnectX-4 EDR. The main machine.
//! * **bora** — dual Intel Xeon Gold 6240 @2.6 GHz, 36 cores / 2 NUMA nodes,
//!   Intel Omni-Path 100 (wide bandwidth deviation).
//! * **billy** — dual AMD EPYC 7502 (Zen2) @2.5 GHz, 64 cores / 8 NUMA
//!   nodes, InfiniBand ConnectX-6 HDR.
//! * **pyxis** — dual Cavium ThunderX2 @2.5 GHz, 64 cores / 2 NUMA nodes,
//!   InfiniBand ConnectX-6 EDR (no turbo laddering).

use crate::machine::{MachineSpec, NetworkKind, NetworkSpec, NumaId};

/// Enumerates the presets for sweeps over machines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preset {
    /// Dual Xeon Gold 6140, EDR InfiniBand.
    Henri,
    /// Dual Xeon Gold 6240, Omni-Path.
    Bora,
    /// Dual EPYC 7502, HDR InfiniBand.
    Billy,
    /// Dual ThunderX2, EDR InfiniBand.
    Pyxis,
    /// Small synthetic machine for fast tests.
    Tiny2x2,
}

impl Preset {
    /// Instantiate the preset.
    pub fn spec(self) -> MachineSpec {
        match self {
            Preset::Henri => henri(),
            Preset::Bora => bora(),
            Preset::Billy => billy(),
            Preset::Pyxis => pyxis(),
            Preset::Tiny2x2 => tiny2x2(),
        }
    }

    /// All real cluster presets.
    pub fn clusters() -> [Preset; 4] {
        [Preset::Henri, Preset::Bora, Preset::Billy, Preset::Pyxis]
    }
}

fn edr_network() -> NetworkSpec {
    NetworkSpec {
        kind: NetworkKind::InfiniBand,
        wire_latency_s: 0.50e-6,
        link_bw: 12.08e9,
        dma_bw: 10.8e9,
        eager_threshold: 64 * 1024,
        bw_jitter: 0.02,
        sw_overhead_cycles: 2300.0,
        ctrl_accesses: 4.0,
        nic_dma_weight: 2.0,
        reg_base_s: 0.5e-6,
        reg_per_byte_s: 1.0e-10,
    }
}

/// henri: the machine most of the paper's figures are measured on.
pub fn henri() -> MachineSpec {
    MachineSpec {
        name: "henri".into(),
        sockets: 2,
        numa_per_socket: 2,
        cores_per_numa: 9,
        // 6 DDR4-2666 channels per socket, split by SNC: ~45 GB/s STREAM per
        // NUMA node.
        mem_bw_per_numa: 45.0e9,
        per_core_bw: 12.0e9,
        interlink_bw: 20.0e9,
        intra_link_bw: 35.0e9,
        remote_access_lat_s: 120e-9,
        local_access_lat_s: 50e-9,
        nic_numa: NumaId(0),
        network: edr_network(),
        idle_freq: 1.0,
        light_freq_cap: 2.5,
        min_freq: 1.0,
        base_freq: 2.3,
        turbo_table: [
            // normal: Xeon Gold 6140 SSE turbo ladder
            vec![
                3.7, 3.7, 3.5, 3.5, 3.3, 3.3, 3.3, 3.3, 3.0, 3.0, 3.0, 3.0, 2.8, 2.8, 2.8, 2.8, 2.5,
            ],
            // AVX2 ladder
            vec![
                3.4, 3.4, 3.2, 3.2, 3.1, 3.1, 3.1, 3.1, 2.8, 2.8, 2.8, 2.8, 2.6, 2.6, 2.6, 2.6, 2.4,
            ],
            // AVX512 ladder (4 cores → 3.0 GHz, ≥17 cores → 2.3 GHz; Fig 3)
            vec![
                3.0, 3.0, 3.0, 3.0, 2.8, 2.8, 2.8, 2.8, 2.6, 2.6, 2.6, 2.6, 2.4, 2.4, 2.4, 2.4, 2.3,
            ],
        ],
        uncore_range: (1.2, 2.4),
        flops_per_cycle: 4.0,
        simd_mult: [1.0, 2.0, 4.0],
        lat_jitter: 0.03,
        congestion_knee: 1.0,
        congestion_gain: 0.35,
        idle_uncore_penalty_s: 0.18e-6,
    }
}

/// bora: Omni-Path machine; one NUMA node per socket, wide bandwidth jitter.
pub fn bora() -> MachineSpec {
    MachineSpec {
        name: "bora".into(),
        sockets: 2,
        numa_per_socket: 1,
        cores_per_numa: 18,
        // 6 DDR4-2933 channels per socket, no SNC: ~90 GB/s per NUMA node.
        mem_bw_per_numa: 90.0e9,
        per_core_bw: 13.0e9,
        interlink_bw: 22.0e9,
        intra_link_bw: 40.0e9,
        remote_access_lat_s: 130e-9,
        local_access_lat_s: 55e-9,
        nic_numa: NumaId(0),
        network: NetworkSpec {
            kind: NetworkKind::OmniPath,
            wire_latency_s: 0.55e-6,
            link_bw: 12.3e9,
            dma_bw: 10.3e9,
            eager_threshold: 64 * 1024,
            // The paper: "the network bandwidth has a wide deviation" on
            // Omni-Path clusters.
            bw_jitter: 0.18,
            sw_overhead_cycles: 2600.0,
            ctrl_accesses: 5.0,
            nic_dma_weight: 2.0,
            reg_base_s: 0.6e-6,
            reg_per_byte_s: 1.2e-10,
        },
        idle_freq: 1.0,
        light_freq_cap: 2.6,
        min_freq: 1.0,
        base_freq: 2.6,
        turbo_table: [
            vec![
                3.9, 3.9, 3.7, 3.7, 3.5, 3.5, 3.5, 3.5, 3.3, 3.3, 3.3, 3.3, 3.1, 3.1, 3.1, 3.1, 2.8,
            ],
            vec![
                3.6, 3.6, 3.4, 3.4, 3.3, 3.3, 3.3, 3.3, 3.0, 3.0, 3.0, 3.0, 2.8, 2.8, 2.8, 2.8, 2.6,
            ],
            vec![
                3.2, 3.2, 3.2, 3.2, 3.0, 3.0, 3.0, 3.0, 2.8, 2.8, 2.8, 2.8, 2.6, 2.6, 2.6, 2.6, 2.4,
            ],
        ],
        uncore_range: (1.2, 2.4),
        flops_per_cycle: 4.0,
        simd_mult: [1.0, 2.0, 4.0],
        lat_jitter: 0.03,
        congestion_knee: 1.0,
        congestion_gain: 0.35,
        idle_uncore_penalty_s: 0.18e-6,
    }
}

/// billy: AMD Zen2 EPYC machine, 8 NUMA nodes, HDR InfiniBand.
pub fn billy() -> MachineSpec {
    MachineSpec {
        name: "billy".into(),
        sockets: 2,
        numa_per_socket: 4,
        cores_per_numa: 8,
        // 8 DDR4-3200 channels per socket across 4 NUMA domains.
        mem_bw_per_numa: 38.0e9,
        per_core_bw: 14.0e9,
        interlink_bw: 36.0e9,
        intra_link_bw: 42.0e9,
        remote_access_lat_s: 130e-9,
        local_access_lat_s: 60e-9,
        nic_numa: NumaId(0),
        network: NetworkSpec {
            kind: NetworkKind::InfiniBand,
            wire_latency_s: 0.45e-6,
            link_bw: 24.2e9,
            dma_bw: 21.0e9,
            eager_threshold: 64 * 1024,
            bw_jitter: 0.02,
            sw_overhead_cycles: 2200.0,
            ctrl_accesses: 4.0,
            nic_dma_weight: 2.0,
            reg_base_s: 0.5e-6,
            reg_per_byte_s: 1.0e-10,
        },
        idle_freq: 1.2,
        light_freq_cap: 2.8,
        min_freq: 1.2,
        base_freq: 2.5,
        turbo_table: [
            // Zen2 has no AVX licensing penalty — all tables identical.
            vec![
                3.35, 3.35, 3.2, 3.2, 3.1, 3.1, 3.1, 3.1, 2.9, 2.9, 2.9, 2.9, 2.7,
            ],
            vec![
                3.35, 3.35, 3.2, 3.2, 3.1, 3.1, 3.1, 3.1, 2.9, 2.9, 2.9, 2.9, 2.7,
            ],
            vec![
                3.35, 3.35, 3.2, 3.2, 3.1, 3.1, 3.1, 3.1, 2.9, 2.9, 2.9, 2.9, 2.7,
            ],
        ],
        uncore_range: (1.4, 2.0),
        flops_per_cycle: 4.0,
        simd_mult: [1.0, 2.0, 2.0], // Zen2 executes AVX512-class work as AVX2
        lat_jitter: 0.03,
        congestion_knee: 1.0,
        congestion_gain: 0.30,
        idle_uncore_penalty_s: 0.12e-6,
    }
}

/// pyxis: ARM ThunderX2 machine; flat frequency, 2 large NUMA nodes.
pub fn pyxis() -> MachineSpec {
    MachineSpec {
        name: "pyxis".into(),
        sockets: 2,
        numa_per_socket: 1,
        cores_per_numa: 32,
        // 8 DDR4-2666 channels per socket: ~110 GB/s per NUMA node.
        mem_bw_per_numa: 110.0e9,
        per_core_bw: 10.0e9,
        interlink_bw: 30.0e9,
        intra_link_bw: 60.0e9,
        remote_access_lat_s: 160e-9,
        local_access_lat_s: 70e-9,
        nic_numa: NumaId(0),
        network: NetworkSpec {
            kind: NetworkKind::InfiniBand,
            wire_latency_s: 0.55e-6,
            link_bw: 12.08e9,
            dma_bw: 10.5e9,
            eager_threshold: 64 * 1024,
            bw_jitter: 0.02,
            sw_overhead_cycles: 3200.0,
            ctrl_accesses: 4.0,
            nic_dma_weight: 2.0,
            reg_base_s: 0.7e-6,
            reg_per_byte_s: 1.3e-10,
        },
        idle_freq: 1.0,
        light_freq_cap: 2.5,
        min_freq: 1.0,
        base_freq: 2.5,
        turbo_table: [
            // ThunderX2 99xx: no turbo laddering, 2.5 GHz flat.
            vec![2.5],
            vec![2.5],
            vec![2.5],
        ],
        uncore_range: (1.6, 2.2),
        flops_per_cycle: 2.0,
        simd_mult: [1.0, 1.0, 1.0], // 128-bit NEON only
        lat_jitter: 0.04,
        congestion_knee: 1.0,
        congestion_gain: 0.35,
        idle_uncore_penalty_s: 0.15e-6,
    }
}

/// A small 2-socket × 1-NUMA × 2-core machine for fast unit tests.
pub fn tiny2x2() -> MachineSpec {
    MachineSpec {
        name: "tiny2x2".into(),
        sockets: 2,
        numa_per_socket: 1,
        cores_per_numa: 2,
        mem_bw_per_numa: 10.0e9,
        per_core_bw: 6.0e9,
        interlink_bw: 5.0e9,
        intra_link_bw: 8.0e9,
        remote_access_lat_s: 100e-9,
        local_access_lat_s: 50e-9,
        nic_numa: NumaId(0),
        network: NetworkSpec {
            kind: NetworkKind::InfiniBand,
            wire_latency_s: 0.5e-6,
            link_bw: 10.0e9,
            dma_bw: 8.0e9,
            eager_threshold: 16 * 1024,
            bw_jitter: 0.0,
            sw_overhead_cycles: 2000.0,
            ctrl_accesses: 4.0,
            nic_dma_weight: 2.0,
            reg_base_s: 0.5e-6,
            reg_per_byte_s: 1.0e-10,
        },
        idle_freq: 1.0,
        light_freq_cap: 2.0,
        min_freq: 1.0,
        base_freq: 2.0,
        turbo_table: [vec![3.0, 2.5], vec![2.8, 2.4], vec![2.6, 2.2]],
        uncore_range: (1.0, 2.0),
        flops_per_cycle: 2.0,
        simd_mult: [1.0, 2.0, 4.0],
        lat_jitter: 0.0,
        congestion_knee: 1.0,
        congestion_gain: 0.35,
        idle_uncore_penalty_s: 0.1e-6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_instantiate() {
        for p in Preset::clusters() {
            let m = p.spec();
            assert!(m.core_count() > 0);
            assert!(
                m.numa_count() >= 2,
                "{} needs 2 NUMA nodes for near/far",
                m.name
            );
        }
        assert_eq!(tiny2x2().core_count(), 4);
    }

    #[test]
    fn paper_core_counts() {
        assert_eq!(henri().core_count(), 36);
        assert_eq!(bora().core_count(), 36);
        assert_eq!(billy().core_count(), 64);
        assert_eq!(pyxis().core_count(), 64);
    }

    #[test]
    fn paper_numa_counts() {
        assert_eq!(henri().numa_count(), 4);
        assert_eq!(bora().numa_count(), 2);
        assert_eq!(billy().numa_count(), 8);
        assert_eq!(pyxis().numa_count(), 2);
    }

    #[test]
    fn turbo_tables_monotone_nonincreasing() {
        for p in Preset::clusters() {
            let m = p.spec();
            for table in &m.turbo_table {
                assert!(!table.is_empty());
                for w in table.windows(2) {
                    assert!(w[0] >= w[1], "{}: turbo table not monotone", m.name);
                }
                // Turbo never drops below base... except AVX512 which may.
                assert!(*table.last().unwrap() >= m.min_freq);
            }
        }
    }

    #[test]
    fn avx_tables_never_exceed_normal() {
        for p in Preset::clusters() {
            let m = p.spec();
            let longest = m.turbo_table.iter().map(|t| t.len()).max().unwrap();
            for i in 0..longest {
                let at = |t: &Vec<f64>| *t.get(i).unwrap_or_else(|| t.last().unwrap());
                let normal = at(&m.turbo_table[0]);
                assert!(at(&m.turbo_table[1]) <= normal);
                assert!(at(&m.turbo_table[2]) <= at(&m.turbo_table[1]));
            }
        }
    }

    #[test]
    fn frequencies_ordered() {
        for p in Preset::clusters() {
            let m = p.spec();
            assert!(m.min_freq <= m.base_freq);
            assert!(m.idle_freq <= m.base_freq);
            assert!(m.base_freq <= m.turbo_table[0][0]);
            assert!(m.uncore_range.0 < m.uncore_range.1);
        }
    }

    #[test]
    fn network_sanity() {
        for p in Preset::clusters() {
            let n = p.spec().network;
            assert!(n.dma_bw <= n.link_bw * 1.05);
            assert!(n.wire_latency_s > 0.0 && n.wire_latency_s < 5e-6);
            assert!(n.eager_threshold > 0);
        }
        // Omni-Path is the jittery one.
        assert!(bora().network.bw_jitter > henri().network.bw_jitter * 3.0);
    }

    #[test]
    fn memory_hierarchy_sanity() {
        for p in Preset::clusters() {
            let m = p.spec();
            assert!(m.per_core_bw < m.mem_bw_per_numa);
            assert!(m.remote_access_lat_s > m.local_access_lat_s);
            // A few cores must be able to saturate a controller (otherwise
            // no contention is ever possible).
            assert!(m.per_core_bw * m.cores_per_numa as f64 > m.mem_bw_per_numa);
        }
    }
}
