//! Property tests for the fault-injection subsystem: deterministic replay
//! (same seed + same plan ⇒ byte-identical trace) and conservation of the
//! delivered payload volume under retransmissions.

use freq::{Governor, UncorePolicy};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use proptest::prelude::*;
use simcore::{FaultPlan, SimTime};
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

/// Everything observable about one faulted ping-pong run.
#[derive(Debug, PartialEq)]
struct Trace {
    half_rtts: Vec<SimTime>,
    retries: Vec<u32>,
    retrans_bytes: Vec<u64>,
    end_time: SimTime,
}

fn faulted_pingpong(plan: &FaultPlan, pp: PingPongConfig) -> (Trace, f64) {
    let mut c = cluster();
    c.apply_faults(plan).expect("valid plan");
    c.set_time_budget(Some(SimTime::SEC * 5));
    c.enable_profiling();
    let res = pingpong::try_run(&mut c, pp).expect("bounded drop probability must complete");
    let trace = Trace {
        half_rtts: res.half_rtts.clone(),
        retries: c.send_profile().iter().map(|r| r.retry.retries).collect(),
        retrans_bytes: c
            .send_profile()
            .iter()
            .map(|r| r.retry.retrans_bytes)
            .collect(),
        end_time: c.engine.now(),
    };
    (trace, c.net.wire_delivered(&c.engine))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed + same fault plan ⇒ byte-identical run trace.
    #[test]
    fn identical_plans_replay_identically(
        seed in 0u64..1_000_000,
        drop_cts in 0.0f64..0.5,
        drop_rts in 0.0f64..0.3,
    ) {
        let plan = FaultPlan::new(seed)
            .with_cts_drop(drop_cts)
            .with_rts_drop(drop_rts);
        let pp = PingPongConfig {
            size: 256 * 1024,
            reps: 4,
            warmup: 1,
            mtag: 0xFA,
        };
        let (a, _) = faulted_pingpong(&plan, pp);
        let (b, _) = faulted_pingpong(&plan, pp);
        prop_assert_eq!(&a, &b);
        // A different seed on a lossy fabric draws different drop decisions
        // somewhere in the trace; only check when drops are actually likely.
        if drop_cts > 0.2 {
            let other = FaultPlan::new(seed ^ 0xDEAD_BEEF)
                .with_cts_drop(drop_cts)
                .with_rts_drop(drop_rts);
            let (c, _) = faulted_pingpong(&other, pp);
            prop_assert!(
                c.retries != a.retries || c.half_rtts != a.half_rtts,
                "different seeds should diverge at p={}", drop_cts
            );
        }
    }

    /// Retransmitted control messages add latency but never payload: the
    /// wire delivers exactly the payload volume, retries or not.
    #[test]
    fn retransmission_conserves_delivered_volume(
        seed in 0u64..1_000_000,
        drop_cts in 0.0f64..0.5,
        size_kib in 128usize..1024,
        reps in 2u32..5,
    ) {
        let plan = FaultPlan::new(seed).with_cts_drop(drop_cts);
        let pp = PingPongConfig {
            size: size_kib * 1024,
            reps,
            warmup: 1,
            mtag: 0xFB,
        };
        let (trace, delivered) = faulted_pingpong(&plan, pp);
        // Two directions per round trip, warmup included.
        let expected = ((reps + 1) as f64) * 2.0 * (size_kib * 1024) as f64;
        prop_assert!(
            (delivered - expected).abs() < 1.0,
            "wire delivered {} B, payload is {} B (retries: {:?})",
            delivered, expected, trace.retries
        );
        // Retry accounting is internally consistent: control bytes are only
        // recorded for sends that actually retried.
        for (r, b) in trace.retries.iter().zip(&trace.retrans_bytes) {
            prop_assert_eq!(*r > 0, *b > 0);
            prop_assert!(*b <= (*r as u64 + 1) * 2 * netsim::CTRL_MSG_BYTES);
        }
    }

    /// An empty fault plan is a strict no-op: the event stream matches a
    /// cluster that never heard of fault injection.
    #[test]
    fn empty_plan_is_transparent(size_kib in 1usize..512, reps in 2u32..5) {
        let pp = PingPongConfig {
            size: size_kib * 1024,
            reps,
            warmup: 1,
            mtag: 0xFC,
        };
        let mut plain = cluster();
        let base = pingpong::run(&mut plain, pp);
        let (faulted, _) = faulted_pingpong(&FaultPlan::new(42), pp);
        prop_assert_eq!(&base.half_rtts, &faulted.half_rtts);
        prop_assert!(faulted.retries.iter().all(|&r| r == 0));
    }
}
