//! The indexed message matcher against the linear-scan reference, under
//! rendezvous faults, at N ranks.
//!
//! mpisim matches messages through per-`(dst, src, tag)` bins by default.
//! A transfer that fails while queued as unexpected is only marked there;
//! the next same-key receive drops it lazily. The reference matcher
//! (`ReferencePaths { matcher: true, .. }`) scans one global queue and
//! removes a failed transfer at once. This suite runs random scripts on
//! both and demands the same observable run.
//!
//! A script runs on 3–6 ranks of a switch fabric under an RTS/CTS drop plan
//! with probabilities up to 1.0. It is a list of phases. Each phase posts
//! `isend_to`/`irecv_from` operations, with tags from {0, 1, 2} and sizes
//! on both sides of the eager threshold, then drains the cluster up to a
//! simulated-time horizon (the engine's time budget). After each phase,
//! every send that failed in it gets a same-key receive and a same-key
//! eager resend, in an order the script picks, so the lazy skip of failed
//! transfers runs. The event streams (kind, request, simulated time, and
//! the retry work a failure reports), the profiler's records (the retry
//! work of each completed send), every request's final state and how each
//! drain ended must be identical. Case count honours `PROPTEST_CASES` (CI
//! runs 512; the nightly long fuzz 4096).

use freq::{Governor, UncorePolicy};
use mpisim::{Cluster, ClusterError, ClusterEvent, ReqId, SendRecord};
use netsim::RetryStats;
use proptest::prelude::*;
use simcore::reference_paths::{self, ReferencePaths};
use simcore::{EngineError, FaultPlan, SimTime};
use topology::fabric::FabricSpec;
use topology::{henri, Placement};

/// Simulated milliseconds the final drain may run past the last phase
/// horizon: well above the ~4 ms a rendezvous takes to exhaust its
/// retransmissions on henri.
const FINAL_DRAIN_MS: u64 = 20;

/// One posted operation.
#[derive(Clone, Debug)]
enum Op {
    Send {
        from: usize,
        to: usize,
        size: usize,
        tag: u32,
    },
    Recv {
        node: usize,
        src: usize,
        tag: u32,
    },
}

/// Operations posted together, then a drain of `advance_us` of simulated
/// time. `resend_first` orders the reaction to this phase's failures.
#[derive(Clone, Debug)]
struct Phase {
    ops: Vec<Op>,
    advance_us: u64,
    resend_first: bool,
}

#[derive(Clone, Debug)]
struct Script {
    ranks: usize,
    seed: u64,
    drop_rts: f64,
    drop_cts: f64,
    phases: Vec<Phase>,
}

/// A drop probability: often none, often certain, otherwise uniform.
fn drop_prob() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..1.0).prop_map(|(kind, p)| match kind {
        0 => 0.0,
        1 => 1.0,
        _ => p,
    })
}

/// A message size: small eager, within 16 B of the eager threshold on
/// either side, or rendezvous.
fn size(threshold: usize) -> impl Strategy<Value = usize> {
    (0u8..3, 0usize..3 * threshold).prop_map(move |(class, r)| match class {
        0 => 1 + r % 4096,
        1 => threshold - 16 + r % 33,
        _ => threshold + 1 + r,
    })
}

fn op(ranks: usize, threshold: usize) -> impl Strategy<Value = Op> {
    (any::<bool>(), 0..ranks, 1..ranks, 0u32..3, size(threshold)).prop_map(
        move |(send, a, hop, tag, size)| {
            let b = (a + hop) % ranks;
            if send {
                Op::Send {
                    from: a,
                    to: b,
                    size,
                    tag,
                }
            } else {
                Op::Recv {
                    node: a,
                    src: b,
                    tag,
                }
            }
        },
    )
}

fn script() -> impl Strategy<Value = Script> {
    let threshold = henri().network.eager_threshold;
    (3usize..7).prop_flat_map(move |ranks| {
        let phase = (
            prop::collection::vec(op(ranks, threshold), 0..10),
            prop_oneof![Just(0u64), Just(50), Just(2_000), Just(10_000)],
            any::<bool>(),
        )
            .prop_map(|(ops, advance_us, resend_first)| Phase {
                ops,
                advance_us,
                resend_first,
            });
        (
            any::<u64>(),
            drop_prob(),
            drop_prob(),
            prop::collection::vec(phase, 1..6),
        )
            .prop_map(move |(seed, drop_rts, drop_cts, phases)| Script {
                ranks,
                seed,
                drop_rts,
                drop_cts,
                phases,
            })
    })
}

/// How a drain stopped.
#[derive(Debug, PartialEq)]
enum End {
    /// The engine ran out of events.
    Dry,
    /// The next event lies past the horizon.
    Horizon,
    /// Anything else, rendered.
    Error(String),
}

/// (kind, request, simulated time, retry work of a failure) of one cluster
/// event.
type Record = (&'static str, Option<ReqId>, SimTime, RetryStats);

/// Everything the comparison looks at.
#[derive(Debug, PartialEq)]
struct Run {
    events: Vec<Record>,
    /// How each phase's drain ended, then the final drain.
    ends: Vec<End>,
    /// The profiler's record of each completed send, retry work included.
    profile: Vec<SendRecord>,
    /// Per send: (complete, failed).
    sends: Vec<(bool, bool)>,
    /// Per receive: (complete, failed).
    recvs: Vec<(bool, bool)>,
    end_time: SimTime,
}

/// Drain `c` until it runs dry or its next event lies past `horizon`.
fn drain(c: &mut Cluster, horizon: SimTime, events: &mut Vec<Record>) -> End {
    c.set_time_budget(Some(horizon));
    loop {
        let record = match c.try_step() {
            Ok(None) => return End::Dry,
            Err(ClusterError::Wedged(EngineError::BudgetExceeded { .. })) => return End::Horizon,
            Err(e) => return End::Error(e.to_string()),
            Ok(Some(ev)) => match ev {
                ClusterEvent::SendComplete(r) => ("send", Some(r), RetryStats::default()),
                ClusterEvent::RecvComplete(r) => ("recv", Some(r), RetryStats::default()),
                ClusterEvent::SendFailed { req, retry } => ("failed", Some(req), retry),
                ClusterEvent::JobDone { .. } => ("job", None, RetryStats::default()),
                ClusterEvent::Other(_) => ("other", None, RetryStats::default()),
            },
        };
        events.push((record.0, record.1, c.engine.now(), record.2));
    }
}

fn run(script: &Script) -> Run {
    let mut c = Cluster::with_fabric(
        &henri(),
        FabricSpec::Switch.build_for(script.ranks),
        Governor::Userspace(2.3),
        UncorePolicy::Fixed(2.4),
        Placement::fig4_default(),
    );
    let plan = FaultPlan::new(script.seed)
        .with_rts_drop(script.drop_rts)
        .with_cts_drop(script.drop_cts);
    c.apply_faults(&plan).expect("valid plan");
    c.enable_profiling();
    let eager = henri().network.eager_threshold;
    let mut sends: Vec<(ReqId, (usize, usize, u32))> = Vec::new();
    let mut recvs = Vec::new();
    let mut events = Vec::new();
    let mut ends = Vec::new();
    let mut horizon = SimTime::ZERO;
    for phase in &script.phases {
        for op in &phase.ops {
            match *op {
                Op::Send {
                    from,
                    to,
                    size,
                    tag,
                } => {
                    let buffer = (sends.len() % 4) as u64;
                    sends.push((c.isend_to(from, to, size, tag, buffer), (from, to, tag)));
                }
                Op::Recv { node, src, tag } => recvs.push(c.irecv_from(node, src, tag)),
            }
        }
        horizon = c.engine.now() + SimTime::from_micros(phase.advance_us);
        let seen = events.len();
        ends.push(drain(&mut c, horizon, &mut events));
        // React to this phase's failures with same-key traffic.
        let failed: Vec<(usize, usize, u32)> = events[seen..]
            .iter()
            .filter(|e| e.0 == "failed")
            .map(|e| {
                sends
                    .iter()
                    .find(|s| Some(s.0) == e.1)
                    .expect("known send")
                    .1
            })
            .collect();
        for (from, to, tag) in failed {
            let recv = |c: &mut Cluster| c.irecv_from(to, from, tag);
            let resend = |c: &mut Cluster| c.isend_to(from, to, eager / 2, tag, 99);
            if phase.resend_first {
                sends.push((resend(&mut c), (from, to, tag)));
                recvs.push(recv(&mut c));
            } else {
                recvs.push(recv(&mut c));
                sends.push((resend(&mut c), (from, to, tag)));
            }
        }
    }
    ends.push(drain(
        &mut c,
        horizon + SimTime::from_millis(FINAL_DRAIN_MS),
        &mut events,
    ));
    Run {
        events,
        ends,
        profile: c.send_profile().to_vec(),
        sends: sends
            .iter()
            .map(|&(s, _)| (c.test_send(s), c.send_failed(s)))
            .collect(),
        recvs: recvs
            .iter()
            .map(|&r| (c.test_recv(r), c.recv_failed(r)))
            .collect(),
        end_time: c.engine.now(),
    }
}

proptest! {
    #[test]
    fn indexed_matcher_matches_the_scan_under_faults(s in script()) {
        let reference = reference_paths::scoped(
            ReferencePaths {
                matcher: true,
                ..ReferencePaths::default()
            },
            || run(&s),
        );
        let indexed = run(&s);
        prop_assert_eq!(
            &indexed,
            &reference,
            "script {:?}\nindexed {:?}\nreference {:?}",
            s,
            indexed,
            reference
        );
    }
}
