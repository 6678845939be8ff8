//! Ping-pong written against the task-runtime API (§5.2–§5.4).
//!
//! Messages routed through the runtime traverse extra software layers:
//! request lists, a worker handoff, the runtime's communication thread.
//! Per half ping-pong this adds (a) the configured per-message overhead
//! cycles, (b) two shared-list lock acquisitions whose delay grows with
//! worker polling pressure (Figure 9), and (c) a data-handle fetch whose
//! latency depends on the placement of the data relative to the
//! communication thread (Figure 8).

use memsim::Requester;
use mpisim::pingpong::{PingPongConfig, PingPongResult};
use mpisim::{Cluster, ClusterEvent};
use simcore::{kind_index, tags, SimTime};

use crate::{RtRouted, Runtime, KIND_DRIVER};

/// Run a StarPU-style ping-pong through the runtime.
pub fn run(cluster: &mut Cluster, rt: &mut Runtime, cfg: PingPongConfig) -> PingPongResult {
    run_with_background(cluster, rt, cfg, |_, _| {})
}

/// Like [`run`] but forwarding unrelated events (task completions, plain
/// job completions) to `background`.
pub fn run_with_background(
    cluster: &mut Cluster,
    rt: &mut Runtime,
    cfg: PingPongConfig,
    mut background: impl FnMut(&mut Cluster, RtRouted),
) -> PingPongResult {
    let mut half_rtts = Vec::with_capacity(cfg.reps as usize);
    let mut seq = 0u32;
    for rep in 0..(cfg.warmup + cfg.reps) {
        let t0 = cluster.engine.now();
        half(cluster, rt, &cfg, 0, 0x3000, &mut seq, &mut background);
        half(cluster, rt, &cfg, 1, 0x4000, &mut seq, &mut background);
        if rep >= cfg.warmup {
            half_rtts.push((cluster.engine.now() - t0) / 2);
        }
    }
    PingPongResult {
        size: cfg.size,
        half_rtts,
    }
}

/// One direction: runtime pre-processing, MPI transfer, runtime
/// post-processing on the receiver.
fn half(
    cluster: &mut Cluster,
    rt: &mut Runtime,
    cfg: &PingPongConfig,
    from: usize,
    buffer: u64,
    seq: &mut u32,
    background: &mut impl FnMut(&mut Cluster, RtRouted),
) {
    let to = 1 - from;
    let f = cluster.spec.light_freq_cap * 1e9;
    let half_overhead = SimTime::from_secs_f64(0.5 * rt.config().overhead_cycles / f);

    // Sender-side runtime stack: overhead + list lock + the data-handle /
    // request metadata walk. StarPU touches a dozen-plus cache lines of
    // handle state per message (data handle, request, tag table); when the
    // payload's NUMA node differs from the communication thread's, each is
    // a remote access — this is why Figure 8's dominant factor is the
    // co-location of data and communication thread.
    const HANDLE_LINES: f64 = 12.0;
    let handle_fetch = cluster.mem[from].access_latency(
        &mut cluster.engine,
        Requester::Core(cluster.comm_core[from]),
        cluster.data_numa[from],
    );
    let pre = half_overhead + rt.lock_delay(cluster, from) + handle_fetch * HANDLE_LINES;
    wait_driver(cluster, rt, pre, seq, background);

    let r = cluster.irecv(to, cfg.mtag);
    cluster.isend(from, cfg.size, cfg.mtag, buffer);
    loop {
        let ev = cluster.step().expect("ping-pong stalled");
        if let ClusterEvent::RecvComplete(rr) = ev {
            if rr == r {
                break;
            }
        }
        match rt.handle(cluster, ev) {
            RtRouted::Unhandled(ClusterEvent::RecvComplete(rr)) if rr == r => break,
            RtRouted::Unhandled(_) | RtRouted::Consumed => {}
            other => background(cluster, other),
        }
    }

    // Receiver-side runtime stack.
    let post = half_overhead + rt.lock_delay(cluster, to);
    wait_driver(cluster, rt, post, seq, background);
}

fn wait_driver(
    cluster: &mut Cluster,
    rt: &mut Runtime,
    delay: SimTime,
    seq: &mut u32,
    background: &mut impl FnMut(&mut Cluster, RtRouted),
) {
    *seq += 1;
    let want = *seq;
    cluster.engine.after(
        delay,
        simcore::tag(tags::ns::RUNTIME, kind_index(KIND_DRIVER, want)),
    );
    loop {
        let ev = cluster.step().expect("driver timer lost");
        match rt.handle(cluster, ev) {
            RtRouted::Driver { index } if index == want => return,
            RtRouted::Consumed | RtRouted::Unhandled(_) => {}
            other => background(cluster, other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use freq::{Governor, UncorePolicy};
    use topology::{henri, BindingPolicy, CoreId, Placement};

    fn cluster(data: BindingPolicy, thread: BindingPolicy) -> Cluster {
        Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement {
                comm_thread: thread,
                data,
            },
        )
    }

    fn plain_latency(c: &mut Cluster) -> f64 {
        mpisim::pingpong::run(c, PingPongConfig::latency(3)).median_latency_us()
    }

    #[test]
    fn runtime_adds_paper_scale_overhead() {
        // §5.2: +38 µs on henri.
        let mut c = cluster(BindingPolicy::NearNic, BindingPolicy::NearNic);
        let plain = plain_latency(&mut c);
        let mut rt = Runtime::new(RuntimeConfig::for_machine(&c.spec));
        let through_rt = run(&mut c, &mut rt, PingPongConfig::latency(3)).median_latency_us();
        let overhead = through_rt - plain;
        assert!((25.0..55.0).contains(&overhead), "overhead {} µs", overhead);
    }

    #[test]
    fn polling_backoff_orders_latency() {
        // Figure 9: latency(backoff 2) > latency(32) > latency(10000) ≈
        // latency(paused).
        let lat_with = |backoff: Option<u32>| {
            let mut c = cluster(BindingPolicy::NearNic, BindingPolicy::NearNic);
            let mut cfg = RuntimeConfig::for_machine(&c.spec);
            if let Some(b) = backoff {
                cfg.backoff_max_nops = b;
            }
            let mut rt = Runtime::new(cfg);
            let cores: Vec<CoreId> = c.compute_cores();
            rt.attach_workers(&mut c, 0, &cores.clone());
            rt.attach_workers(&mut c, 1, &cores);
            if backoff.is_none() {
                rt.pause_workers(&mut c, 0);
                rt.pause_workers(&mut c, 1);
            }
            run(&mut c, &mut rt, PingPongConfig::latency(3)).median_latency_us()
        };
        let aggressive = lat_with(Some(2));
        let default = lat_with(Some(32));
        let lazy = lat_with(Some(10_000));
        let paused = lat_with(None);
        assert!(aggressive > default, "{} vs {}", aggressive, default);
        assert!(default > lazy, "{} vs {}", default, lazy);
        assert!(
            (lazy - paused).abs() / paused < 0.05,
            "{} vs {}",
            lazy,
            paused
        );
    }

    #[test]
    fn data_thread_colocation_matters_most() {
        // Figure 8: co-locating the data and the communication thread on
        // the same NUMA node gives the best latency.
        let lat = |data, thread| {
            let mut c = cluster(data, thread);
            let mut rt = Runtime::new(RuntimeConfig::for_machine(&c.spec));
            run(&mut c, &mut rt, PingPongConfig::latency(3)).median_latency_us()
        };
        let both_near = lat(BindingPolicy::NearNic, BindingPolicy::NearNic);
        let both_far = lat(BindingPolicy::FarFromNic, BindingPolicy::FarFromNic);
        let split = lat(BindingPolicy::FarFromNic, BindingPolicy::NearNic);
        // Same-NUMA (near/near) beats split placements.
        assert!(both_near < split, "{} vs {}", both_near, split);
        // Co-located far/far also beats the split (data fetch is local).
        assert!(both_far < split, "{} vs {}", both_far, split);
    }
}
