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
//! (`VmHWM`) after the proof and at the end, where `/proc/self/status`
//! exists. There the peak must stay within 82 MiB, about 1.4 times the
//! 58.7 MiB the proof peaks at, so that neither a per-message copy of the
//! schedule nor a sort scratch in its proof comes back unseen; and the
//! resident set after the run within 48 MiB, about 1.2 times the 39.2 MiB
//! it reads there, so that a per-message table kept through the run (18 MiB
//! of request tables once) does not hide under the proof's peak (DESIGN.md
//! §13.8 records the numbers).

use std::time::{Duration, Instant};

use freq::{Governor, UncorePolicy};
use mpisim::collective::{self, Algorithm};
use mpisim::Cluster;
use topology::fabric::FabricPreset;
use topology::{tiny2x2, BindingPolicy, Placement};

const RANKS: usize = 1024;
const PAYLOAD: usize = 256 << 10;
const WALL_LIMIT: Duration = Duration::from_secs(60);
const PEAK_LIMIT_KIB: u64 = 82 << 10;
const RUN_RSS_LIMIT_KIB: u64 = 48 << 10;

/// Print `field` (`VmRSS`, `VmHWM`) of this process after `step` and return
/// it in KiB, where `/proc/self/status` exists.
fn print_status(field: &str, step: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let prefix = format!("{field}:");
    let kb = status.lines().find_map(|l| l.strip_prefix(&prefix))?.trim();
    println!("1024-rank ring allreduce: {field} {kb} {step}");
    let kib = kb.strip_suffix(" kB").and_then(|v| v.parse().ok());
    Some(kib.unwrap_or_else(|| panic!("{field} is not a count of kB: {kb}")))
}

#[test]
#[ignore = "about 5 s in release mode; run with --ignored"]
fn ring_allreduce_1024_ranks_completes_under_a_minute() {
    let sched = collective::cached(Algorithm::RingAllreduce, RANKS, PAYLOAD);
    assert_eq!(sched.total_messages(), 2_095_104);
    print_status("VmRSS", "after the schedule is built and proved");
    print_status("VmHWM", "after the schedule is built and proved");
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
    if let Some(rss) = print_status("VmRSS", "after the run") {
        assert!(
            rss <= RUN_RSS_LIMIT_KIB,
            "RSS after the run {rss} KiB, limit {RUN_RSS_LIMIT_KIB} KiB"
        );
    }
    if let Some(peak) = print_status("VmHWM", "(peak RSS)") {
        assert!(
            peak <= PEAK_LIMIT_KIB,
            "peak RSS {peak} KiB, limit {PEAK_LIMIT_KIB} KiB"
        );
    }
}
