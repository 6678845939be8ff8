//! Property tests for the message-passing layer: matching semantics,
//! monotonicity of transfer times in size, and ping-pong consistency.

use freq::{Governor, UncorePolicy};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::{Cluster, ClusterEvent, ReqId};
use proptest::prelude::*;
use topology::{henri, BindingPolicy, Placement};

/// Step `c` until receive `r` reports its completion.
fn wait_recv(c: &mut Cluster, r: ReqId) {
    while !matches!(c.step().expect("progress"), ClusterEvent::RecvComplete(x) if x == r) {}
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of matching sends/recvs completes them all (no
    /// lost or duplicated messages).
    #[test]
    fn random_interleavings_complete(
        order in prop::collection::vec(any::<bool>(), 1..16),
        size in 1usize..100_000,
    ) {
        let mut c = cluster();
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        let n = order.len() as u32;
        // Post sends/recvs in a random relative order, tags 0..n each way.
        let mut s_i = 0u32;
        let mut r_i = 0u32;
        for &send_first in &order {
            if send_first && s_i < n {
                sends.push(c.isend(0, size, s_i, 1000 + s_i as u64));
                s_i += 1;
            } else if r_i < n {
                recvs.push(c.irecv(1, r_i));
                r_i += 1;
            }
        }
        while s_i < n {
            sends.push(c.isend(0, size, s_i, 1000 + s_i as u64));
            s_i += 1;
        }
        while r_i < n {
            recvs.push(c.irecv(1, r_i));
            r_i += 1;
        }
        // Drain: every request reports its completion exactly once.
        let (mut sent, mut received) = (Vec::new(), Vec::new());
        while let Some(ev) = c.step() {
            match ev {
                ClusterEvent::SendComplete(s) => sent.push(s),
                ClusterEvent::RecvComplete(r) => received.push(r),
                _ => {}
            }
        }
        for (done, posted) in [(sent, sends), (received, recvs)] {
            prop_assert_eq!(done.len(), posted.len());
            for p in &posted {
                prop_assert!(done.contains(p), "{:?} never completed", p);
            }
        }
        prop_assert_eq!((c.pending_sends(), c.pending_recvs()), (0, 0));
    }

    /// One-way delivery time is monotone non-decreasing in message size.
    #[test]
    fn latency_monotone_in_size(exp in 2u32..26) {
        let t_for = |size: usize| {
            let mut c = cluster();
            let r = c.irecv(1, 1);
            c.isend(0, size, 1, 42);
            wait_recv(&mut c, r);
            c.engine.now()
        };
        let small = t_for(1 << exp);
        let large = t_for(1 << (exp + 1));
        prop_assert!(large >= small, "{:?} -> {:?}", small, large);
    }

    /// Ping-pong latency equals one-way delivery time within the protocol
    /// symmetry (half RTT ≈ one-way, small messages).
    #[test]
    fn half_rtt_matches_one_way(reps in 1u32..6) {
        let mut c = cluster();
        let res = pingpong::run(&mut c, PingPongConfig { size: 4, reps, warmup: 1, mtag: 7 });
        let rtt_half = res.median_latency_us();
        let mut c2 = cluster();
        let r = c2.irecv(1, 1);
        let t0 = c2.engine.now();
        c2.isend(0, 4, 1, 42);
        wait_recv(&mut c2, r);
        let one_way = (c2.engine.now() - t0).as_micros_f64();
        prop_assert!((rtt_half - one_way).abs() / one_way < 0.1,
            "half rtt {} vs one-way {}", rtt_half, one_way);
    }

    /// Sending bandwidth recorded by the profiler never exceeds the
    /// physical DMA/link limits.
    #[test]
    fn profiler_within_physical_limits(size_mb in 1usize..64) {
        let mut c = cluster();
        c.enable_profiling();
        let size = size_mb << 20;
        let r = c.irecv(1, 1);
        c.isend(0, size, 1, 42);
        wait_recv(&mut c, r);
        for rec in c.send_profile() {
            prop_assert!(rec.bandwidth() <= henri().network.link_bw * 1.01);
        }
    }
}
