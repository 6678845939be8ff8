//! Quickstart: measure communication performance alone and beside
//! memory-bound computation on a simulated henri cluster — the paper's
//! headline experiment in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use freq::{Governor, UncorePolicy};
use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::PingPongConfig;
use simcore::SimTime;
use topology::{henri, Placement};

use interference::protocol::{self, ProtocolConfig};

fn main() {
    let machine = henri();
    println!(
        "machine: {} — {} cores / {} NUMA nodes, NIC on NUMA {:?}",
        machine.name,
        machine.core_count(),
        machine.numa_count(),
        machine.nic_numa
    );

    // STREAM TRIAD on 35 cores, all data on the NIC's NUMA node.
    let stream = workload(StreamKernel::Triad, 2_000_000, machine.near_numa(), 1);
    let mut cfg = ProtocolConfig::new(machine.clone(), Some(stream));
    cfg.governor = Governor::Performance { turbo: true };
    cfg.uncore = UncorePolicy::Auto;
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = 35;
    cfg.reps = 5;
    cfg.compute_window = SimTime::from_millis(2);

    // Latency (4 B) and bandwidth (64 MiB) ping-pongs.
    println!("\n-- three-step protocol: compute alone / comm alone / together --");
    cfg.pingpong = PingPongConfig::latency(20);
    let lat = protocol::run(&cfg);
    cfg.pingpong = PingPongConfig::bandwidth(3);
    let bw = protocol::run(&cfg);

    let med = |v: &[f64]| simcore::Summary::of(v).median;
    let l_alone = med(&lat.lat_alone());
    let l_tog = med(&lat.lat_together());
    let b_alone = med(&bw.bw_alone());
    let b_tog = med(&bw.bw_together());
    let s_alone = med(&bw.compute_bw_alone());
    let s_tog = med(&bw.compute_bw_together());

    println!(
        "network latency   : {:>8.2} µs alone → {:>8.2} µs beside STREAM (×{:.2})",
        l_alone,
        l_tog,
        l_tog / l_alone
    );
    println!(
        "network bandwidth : {:>8.2} GB/s alone → {:>8.2} GB/s beside STREAM (−{:.0} %)",
        b_alone / 1e9,
        b_tog / 1e9,
        (1.0 - b_tog / b_alone) * 100.0
    );
    println!(
        "STREAM per core   : {:>8.2} GB/s alone → {:>8.2} GB/s beside comm (−{:.0} %)",
        s_alone / 1e9,
        s_tog / 1e9,
        (1.0 - s_tog / s_alone) * 100.0
    );
    println!("\npaper (henri): latency roughly doubles, bandwidth loses ~2/3, STREAM loses ≤25 %");
}
