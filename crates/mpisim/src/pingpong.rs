//! NetPIPE-style ping-pong benchmark (§2.1 of the paper).
//!
//! *Latency* is the duration of one communication — half a ping-pong
//! round trip. *Bandwidth* divides the message size by that latency.
//! Buffers are recycled across repetitions (registration-cache friendly),
//! exactly as the paper does.

use simcore::SimTime;

use crate::{Cluster, ClusterError, ClusterEvent};

/// Ping-pong parameters.
#[derive(Clone, Copy, Debug)]
pub struct PingPongConfig {
    /// Message size in bytes (4 B for the paper's latency metric, 64 MiB
    /// for its asymptotic bandwidth).
    pub size: usize,
    /// Measured repetitions.
    pub reps: u32,
    /// Warm-up repetitions (excluded from results; they also warm the
    /// registration cache).
    pub warmup: u32,
    /// Message tag.
    pub mtag: u32,
}

impl PingPongConfig {
    /// The paper's latency benchmark: 4-byte payloads.
    pub fn latency(reps: u32) -> PingPongConfig {
        PingPongConfig {
            size: 4,
            reps,
            warmup: 2,
            mtag: 0xBEEF,
        }
    }

    /// The paper's asymptotic bandwidth benchmark: 64 MiB payloads.
    pub fn bandwidth(reps: u32) -> PingPongConfig {
        PingPongConfig {
            size: 64 << 20,
            reps,
            warmup: 2,
            mtag: 0xBEEF,
        }
    }
}

/// Result of a ping-pong run.
#[derive(Clone, Debug)]
pub struct PingPongResult {
    /// Message size used.
    pub size: usize,
    /// Half-round-trip times, one per measured repetition.
    pub half_rtts: Vec<SimTime>,
}

impl PingPongResult {
    /// Latencies in microseconds.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.half_rtts.iter().map(|t| t.as_micros_f64()).collect()
    }

    /// Bandwidths in bytes/s.
    pub fn bandwidths(&self) -> Vec<f64> {
        self.half_rtts
            .iter()
            .map(|t| self.size as f64 / t.as_secs_f64())
            .collect()
    }

    /// Median latency in microseconds.
    pub fn median_latency_us(&self) -> f64 {
        simcore::Summary::of(&self.latencies_us()).median
    }

    /// Median bandwidth in bytes/s.
    pub fn median_bandwidth(&self) -> f64 {
        simcore::Summary::of(&self.bandwidths()).median
    }
}

/// Run a ping-pong with no background activity handler.
pub fn run(cluster: &mut Cluster, cfg: PingPongConfig) -> PingPongResult {
    run_with_background(cluster, cfg, |_, _| {})
}

/// Run a ping-pong while forwarding non-ping-pong events (job completions,
/// runtime events) to `background` — used by the three-step protocol to keep
/// computation running beside the communication benchmark.
///
/// Panics if the simulation wedges or runs dry; on a faulted cluster use
/// [`try_run_with_background`].
pub fn run_with_background(
    cluster: &mut Cluster,
    cfg: PingPongConfig,
    background: impl FnMut(&mut Cluster, ClusterEvent),
) -> PingPongResult {
    match try_run_with_background(cluster, cfg, background) {
        Ok(res) => res,
        Err(e) => panic!("ping-pong cannot complete: {}", e),
    }
}

/// Fallible [`run`]: a wedged engine, a dried-up simulation or a permanently
/// failed transfer come back as [`ClusterError`] instead of a panic.
pub fn try_run(cluster: &mut Cluster, cfg: PingPongConfig) -> Result<PingPongResult, ClusterError> {
    try_run_with_background(cluster, cfg, |_, _| {})
}

/// Fallible [`run_with_background`].
pub fn try_run_with_background(
    cluster: &mut Cluster,
    cfg: PingPongConfig,
    mut background: impl FnMut(&mut Cluster, ClusterEvent),
) -> Result<PingPongResult, ClusterError> {
    assert!(cfg.size > 0 && cfg.reps > 0);
    let mut half_rtts = Vec::with_capacity(cfg.reps as usize);
    for rep in 0..(cfg.warmup + cfg.reps) {
        let t0 = cluster.engine.now();
        // Ping: 0 → 1. Buffers are recycled (stable ids per direction).
        let r = cluster.irecv(1, cfg.mtag);
        let s = cluster.isend(0, cfg.size, cfg.mtag, 0x1000);
        wait_recv(cluster, r, s, &mut background)?;
        // Pong: 1 → 0.
        let r = cluster.irecv(0, cfg.mtag);
        let s = cluster.isend(1, cfg.size, cfg.mtag, 0x2000);
        wait_recv(cluster, r, s, &mut background)?;
        if rep >= cfg.warmup {
            let rtt = cluster.engine.now() - t0;
            simcore::telemetry::sample("pingpong.half_rtt_us", (rtt / 2).as_micros_f64());
            half_rtts.push(rtt / 2);
        }
    }
    Ok(PingPongResult {
        size: cfg.size,
        half_rtts,
    })
}

fn wait_recv(
    cluster: &mut Cluster,
    req: crate::ReqId,
    send: crate::ReqId,
    background: &mut impl FnMut(&mut Cluster, ClusterEvent),
) -> Result<(), ClusterError> {
    loop {
        match cluster.try_step()? {
            Some(ClusterEvent::RecvComplete(r)) if r == req => return Ok(()),
            Some(ClusterEvent::SendFailed {
                req: failed, retry, ..
            }) if failed == send => {
                return Err(ClusterError::TransferFailed {
                    send,
                    retries: retry.retries,
                });
            }
            Some(other) => background(cluster, other),
            None => {
                return Err(ClusterError::Dry {
                    pending_sends: cluster.pending_sends(),
                    pending_recvs: cluster.pending_recvs(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freq::{Governor, UncorePolicy};
    use topology::{henri, BindingPolicy, Placement};

    fn cluster() -> Cluster {
        Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            },
        )
    }

    #[test]
    fn latency_benchmark_shape() {
        let mut c = cluster();
        let res = run(&mut c, PingPongConfig::latency(5));
        assert_eq!(res.half_rtts.len(), 5);
        let lat = res.median_latency_us();
        // henri point value: ~1.8 µs.
        assert!((1.2..2.5).contains(&lat), "latency {} µs", lat);
        // Deterministic cluster, no jitter: all reps identical.
        let l = res.latencies_us();
        assert!(l.iter().all(|&x| (x - l[0]).abs() < 1e-9));
    }

    #[test]
    fn bandwidth_benchmark_shape() {
        let mut c = cluster();
        let res = run(&mut c, PingPongConfig::bandwidth(3));
        let bw = res.median_bandwidth();
        // henri point value: ~10.5 GB/s.
        assert!((9.0e9..11.5e9).contains(&bw), "bw {} GB/s", bw / 1e9);
    }

    #[test]
    fn bandwidth_grows_with_size() {
        let mut c = cluster();
        let sizes = [4usize, 4096, 1 << 20, 64 << 20];
        let mut last = 0.0;
        for (i, &size) in sizes.iter().enumerate() {
            let res = run(
                &mut c,
                PingPongConfig {
                    size,
                    reps: 2,
                    warmup: 1,
                    mtag: 10 + i as u32,
                },
            );
            let bw = res.median_bandwidth();
            assert!(
                bw > last,
                "bandwidth must grow with size: {} vs {}",
                bw,
                last
            );
            last = bw;
        }
    }

    #[test]
    fn latency_flat_for_tiny_sizes() {
        let mut c = cluster();
        let l4 = run(
            &mut c,
            PingPongConfig {
                size: 4,
                reps: 3,
                warmup: 1,
                mtag: 1,
            },
        )
        .median_latency_us();
        let l64 = run(
            &mut c,
            PingPongConfig {
                size: 64,
                reps: 3,
                warmup: 1,
                mtag: 2,
            },
        )
        .median_latency_us();
        assert!((l64 - l4).abs() / l4 < 0.05, "l4 {} l64 {}", l4, l64);
    }

    #[test]
    fn background_handler_sees_job_events() {
        use freq::License;
        use memsim::exec::Phase;
        use topology::{CoreId, NumaId};
        let mut c = cluster();
        c.start_job(
            0,
            memsim::exec::JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 1e4,
                    bytes: 0.0,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 1,
            },
        );
        let mut jobs_seen = 0;
        let _ = run_with_background(&mut c, PingPongConfig::latency(3), |_, ev| {
            if matches!(ev, ClusterEvent::JobDone { .. }) {
                jobs_seen += 1;
            }
        });
        assert_eq!(jobs_seen, 1);
    }
}
