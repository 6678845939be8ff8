//! Integration tests of cross-cutting properties: reproducibility of whole
//! experiments, agreement between the analytical roofline and the
//! simulator, and consistency between real kernels and their descriptors.

use freq::{Governor, UncorePolicy};
use kernels::{roofline, stream, tunable};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::{Cluster, ClusterEvent, ReqId};
use topology::{henri, BindingPolicy, CoreId, NumaId, Placement};

use interference::protocol::{self, ProtocolConfig};

/// Step `c` until receive `r` reports its completion.
fn wait_recv(c: &mut Cluster, r: ReqId) {
    while !matches!(c.step().expect("progress"), ClusterEvent::RecvComplete(x) if x == r) {}
}

fn near_near() -> Placement {
    Placement {
        comm_thread: BindingPolicy::NearNic,
        data: BindingPolicy::NearNic,
    }
}

/// Identical seeds yield bit-identical experiment results; different seeds
/// differ.
#[test]
fn experiments_are_reproducible() {
    let go = |seed: u64| {
        let w = stream::workload(stream::StreamKernel::Triad, 500_000, NumaId(0), 1);
        let mut cfg = ProtocolConfig::new(henri(), Some(w));
        cfg.compute_cores = 10;
        cfg.pingpong = PingPongConfig::latency(5);
        cfg.reps = 3;
        cfg.seed = seed;
        let r = protocol::run(&cfg);
        (r.lat_alone(), r.lat_together(), r.compute_bw_together())
    };
    let a = go(11);
    let b = go(11);
    assert_eq!(a, b, "same seed must reproduce exactly");
    let c = go(12);
    assert_ne!(a.0, c.0, "different seed must differ");
}

/// A single memory-bound core attains exactly its per-core bandwidth; a
/// single compute-bound core attains exactly the roofline prediction.
#[test]
fn simulator_matches_roofline_closed_form() {
    let spec = henri();
    for &ai in &[0.5f64, 2.0, 8.0, 32.0] {
        let cursor = tunable::cursor_for_intensity(ai);
        let w = tunable::workload(1_000_000, cursor, NumaId(0), 1);
        let mut cfg = ProtocolConfig::new(spec.clone(), Some(w.clone()));
        cfg.governor = Governor::Userspace(2.3);
        cfg.uncore = UncorePolicy::Fixed(2.4);
        cfg.compute_cores = 1;
        cfg.pingpong = PingPongConfig::latency(1);
        cfg.reps = 1;
        let r = protocol::run(&cfg);
        let measured_bw = r.compute_alone[0].compute_bw_per_core;
        // Closed form: rate = min(per-core bw, flop_rate / AI).
        let true_ai = tunable::intensity(cursor);
        let flop_rate = spec.flop_rate(2.3, 0);
        let predicted = (flop_rate / true_ai).min(spec.per_core_bw);
        let rel = (measured_bw - predicted).abs() / predicted;
        assert!(
            rel < 0.02,
            "ai {}: measured {} predicted {} ({:+.1} %)",
            true_ai,
            measured_bw,
            predicted,
            rel * 100.0
        );
        // And the roofline helper agrees.
        let t_pred = roofline::phase_time(w.phases[0].flops, true_ai, flop_rate, spec.per_core_bw);
        let t_meas = w.phases[0].bytes / measured_bw;
        assert!((t_pred - t_meas).abs() / t_pred < 0.02);
    }
}

/// The real STREAM TRIAD and its descriptor agree on byte/flop accounting.
#[test]
fn real_kernels_match_descriptors() {
    let n = 10_000;
    let w = stream::workload(stream::StreamKernel::Triad, n, NumaId(0), 1);
    assert_eq!(w.total_bytes(), (n * 24) as f64);
    assert_eq!(w.total_flops(), (n * 2) as f64);

    // Tunable kernel with cursor c: 2c flops per element.
    let c = 7;
    let wt = tunable::workload(n, c, NumaId(0), 1);
    assert_eq!(wt.total_flops(), (n as f64) * 2.0 * c as f64);
    // And the real kernel really does c dependent FMAs per element.
    let expect = tunable::triad_cursor_reference(1.0, 1.0, 1.0, c);
    assert_eq!(expect, 1.0 + c as f64);
}

/// The engine's two-node fabric is symmetric: a 1→0 ping-pong measures the
/// same as 0→1.
#[test]
fn fabric_is_symmetric() {
    let mut c = Cluster::new(
        &henri(),
        Governor::Userspace(2.3),
        UncorePolicy::Fixed(2.4),
        near_near(),
    );
    // Direction 0→1 (as used by the benchmark).
    let fwd = pingpong::run(&mut c, PingPongConfig::latency(4)).median_latency_us();
    // Manual reverse direction.
    let t0 = c.engine.now();
    let reps = 4;
    for i in 0..reps {
        let r = c.irecv(0, 100 + i);
        c.isend(1, 4, 100 + i, 0x9000);
        wait_recv(&mut c, r);
        let r = c.irecv(1, 200 + i);
        c.isend(0, 4, 200 + i, 0x9001);
        wait_recv(&mut c, r);
    }
    let rev = (c.engine.now() - t0).as_micros_f64() / (reps as f64 * 2.0);
    assert!(
        (rev - fwd).abs() / fwd < 0.05,
        "forward {} µs vs reverse {} µs",
        fwd,
        rev
    );
}

/// Pausing and resuming workers round-trips: latency with resumed pollers
/// returns to the polling level.
#[test]
fn worker_pause_resume_roundtrip() {
    let mut c = Cluster::new(
        &henri(),
        Governor::Performance { turbo: true },
        UncorePolicy::Auto,
        near_near(),
    );
    let mut cfg = taskrt::RuntimeConfig::for_machine(&c.spec);
    cfg.backoff_max_nops = 2; // aggressive so the effect is visible
    let mut rt = taskrt::Runtime::new(cfg);
    let cores: Vec<CoreId> = c.compute_cores();
    rt.attach_workers(&mut c, 0, &cores.clone());
    rt.attach_workers(&mut c, 1, &cores);
    let pp = PingPongConfig::latency(4);
    let polling1 = taskrt::pingpong::run(&mut c, &mut rt, pp).median_latency_us();
    rt.pause_workers(&mut c, 0);
    rt.pause_workers(&mut c, 1);
    let paused = taskrt::pingpong::run(&mut c, &mut rt, pp).median_latency_us();
    rt.resume_workers(&mut c, 0);
    rt.resume_workers(&mut c, 1);
    let polling2 = taskrt::pingpong::run(&mut c, &mut rt, pp).median_latency_us();
    assert!(
        paused < polling1,
        "paused {} vs polling {}",
        paused,
        polling1
    );
    assert!(
        (polling2 - polling1).abs() / polling1 < 0.05,
        "resume did not restore: {} vs {}",
        polling2,
        polling1
    );
}
