//! # topology — machine descriptions
//!
//! Pure-data descriptions of the cluster nodes used by the paper: sockets,
//! NUMA nodes, cores, memory controllers, inter-NUMA links and the NIC
//! attachment point, plus frequency ranges and network parameters. The
//! simulator crates (`memsim`, `netsim`, `freq`) instantiate resources from
//! these specs; the presets in [`presets`] encode the four clusters of the
//! paper (§2.2) with their published characteristics.

#![warn(missing_docs)]

pub mod fabric;
pub mod machine;
pub mod presets;

pub use fabric::{Fabric, FabricPreset, FabricSpec, LinkIdx, LinkSpec};
pub use machine::{
    BindingPolicy, CoreId, MachineSpec, NetworkKind, NetworkSpec, NumaId, Placement, SocketId,
    TopologyError,
};
pub use presets::{billy, bora, henri, pyxis, tiny2x2, Preset};
