//! The 1024-rank capability gate: a ring allreduce of 256 KiB over 1024
//! tiny2x2 ranks on the switch fabric runs 12.6 M engine events and 2.1 M
//! messages, and must reach its recorded simulated completion time in
//! under a minute of host time (schedule and cluster set-up not counted).
//!
//! Ignored by default: it takes about 5 s in release mode on a 2-vCPU
//! x86-64 host, set-up included. Run it with
//! `cargo test --release -q -p mpisim --test ring_allreduce_1024 -- --ignored --nocapture`
//! to see the process's resident set (`VmRSS`) after each step — schedule
//! built and proved, fabric built, cluster built, run — and its peak
//! (`VmHWM`), where `/proc/self/status` exists. It prints them and bounds
//! none.

use std::time::{Duration, Instant};

use freq::{Governor, UncorePolicy};
use mpisim::collective::{self, Algorithm};
use mpisim::Cluster;
use topology::fabric::FabricPreset;
use topology::{tiny2x2, BindingPolicy, Placement};

const RANKS: usize = 1024;
const PAYLOAD: usize = 256 << 10;
const WALL_LIMIT: Duration = Duration::from_secs(60);

/// Print `field` (`VmRSS`, `VmHWM`) of this process after `step`, where
/// `/proc/self/status` exists.
fn print_status(field: &str, step: &str) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let prefix = format!("{field}:");
    if let Some(kb) = status.lines().find_map(|l| l.strip_prefix(&prefix)) {
        println!("1024-rank ring allreduce: {field} {} {step}", kb.trim());
    }
}

#[test]
#[ignore = "about 5 s in release mode; run with --ignored"]
fn ring_allreduce_1024_ranks_completes_under_a_minute() {
    let sched = collective::cached(Algorithm::RingAllreduce, RANKS, PAYLOAD);
    assert_eq!(sched.total_messages(), 2_095_104);
    print_status("VmRSS", "after the schedule is built and proved");
    let fabric = FabricPreset::Switch.spec(RANKS).build_for(RANKS);
    print_status("VmRSS", "after the fabric is built");
    let spec = tiny2x2();
    let mut c = Cluster::with_fabric(
        &spec,
        fabric,
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    );
    print_status("VmRSS", "after the cluster is built");
    let wall = Instant::now();
    let elapsed = collective::run(&mut c, &sched, 100, 0x8000).expect("allreduce completes");
    let wall = wall.elapsed();
    assert_eq!(elapsed.0, 3_787_555_200, "simulated completion time (ps)");
    assert!(
        wall < WALL_LIMIT,
        "1024-rank ring allreduce took {:.1} s, limit {} s",
        wall.as_secs_f64(),
        WALL_LIMIT.as_secs()
    );
    // Resident and peak RSS are printed, not bounded (DESIGN.md §13.8
    // records them).
    print_status("VmRSS", "after the run");
    print_status("VmHWM", "(peak RSS)");
}
