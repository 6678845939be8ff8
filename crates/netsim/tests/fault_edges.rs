//! Fault-window edge cases: zero-length windows, overlapping NIC stalls,
//! and windows that outlive a campaign point.
//!
//! The sweep drivers build a fresh world per point and install the point's
//! `FaultPlan` before traffic starts, so the interesting edges are (a)
//! degenerate windows must be rejected up front, (b) the stall bookkeeping
//! is a *counter*, so overlapping windows must nest rather than cancel
//! early, and (c) a window longer than the point's traffic must leave the
//! drained engine in a clean state and replay identically in a fresh world
//! (nothing leaks across points).

use freq::{Activity, FreqModel, Governor, UncorePolicy};
use memsim::MemSystem;
use netsim::{NetEvent, NetSim, NodeRef};
use simcore::{Engine, FaultPlan, FaultPlanError, SimTime};
use topology::{henri, CoreId, NumaId};

struct World {
    engine: Engine,
    mem: [MemSystem; 2],
    freqs: [FreqModel; 2],
    net: NetSim,
    comm_core: CoreId,
}

fn world() -> World {
    let spec = henri();
    let mut engine = Engine::new();
    let mem = [
        MemSystem::build(&mut engine, &spec, "n0."),
        MemSystem::build(&mut engine, &spec, "n1."),
    ];
    let comm_core = CoreId(35);
    let mut freqs = [
        FreqModel::new(&spec, Governor::Userspace(2.3), UncorePolicy::Fixed(2.4)),
        FreqModel::new(&spec, Governor::Userspace(2.3), UncorePolicy::Fixed(2.4)),
    ];
    for (f, m) in freqs.iter_mut().zip(&mem) {
        f.set_activity(comm_core, Activity::Light);
        m.apply_freqs(&mut engine, f);
    }
    let net = NetSim::build(&mut engine, &spec);
    World {
        engine,
        mem,
        freqs,
        net,
        comm_core,
    }
}

/// Drive one message to delivery; returns its latency.
fn one_way(w: &mut World, size: usize, buffer: u64) -> SimTime {
    let start = w.engine.now();
    let id = {
        let n0 = NodeRef {
            mem: &w.mem[0],
            freqs: &w.freqs[0],
            comm_core: w.comm_core,
        };
        w.net
            .start_send(&mut w.engine, 0, 1, &n0, size, NumaId(0), NumaId(0), buffer)
    };
    w.net.recv_ready(&mut w.engine, id, 0);
    loop {
        let ev = w.engine.next().expect("progress");
        if w.net.owns(ev.tag()) {
            let (mem, freqs, cc) = (&w.mem, &w.freqs, w.comm_core);
            let nodes = |i: usize| NodeRef {
                mem: &mem[i],
                freqs: &freqs[i],
                comm_core: cc,
            };
            if let Some(out) = w.net.on_event(&mut w.engine, nodes, &ev) {
                if matches!(out, NetEvent::Delivered { .. }) {
                    return w.engine.now() - start;
                }
                assert!(
                    !matches!(out, NetEvent::Failed { .. }),
                    "no drops configured, transfer cannot fail"
                );
            }
        }
    }
}

/// Pump the engine until no events remain (window edges included).
fn drain(w: &mut World) {
    while let Some(ev) = w.engine.next() {
        if w.net.owns(ev.tag()) {
            let (mem, freqs, cc) = (&w.mem, &w.freqs, w.comm_core);
            let nodes = |i: usize| NodeRef {
                mem: &mem[i],
                freqs: &freqs[i],
                comm_core: cc,
            };
            let _ = w.net.on_event(&mut w.engine, nodes, &ev);
        }
    }
}

const SIZE: usize = 16 << 20; // rendezvous-sized, ~1.6 ms healthy

#[test]
fn zero_length_windows_are_rejected_not_installed() {
    let mut w = world();
    let t = SimTime::from_millis(1);
    for plan in [
        FaultPlan::new(0).with_nic_stall(t, t),
        FaultPlan::new(0).with_nic_stall(t, t - SimTime::PS),
        FaultPlan::new(0).with_link_degradation(t, t, 0.5),
    ] {
        let err = w.net.apply_faults(&mut w.engine, &plan).unwrap_err();
        assert!(matches!(err, FaultPlanError::EmptyWindow { .. }), "{}", err);
    }
    // The rejected plans must not have scheduled anything: the world still
    // behaves exactly like a healthy one.
    let healthy = {
        let mut h = world();
        one_way(&mut h, SIZE, 1)
    };
    assert_eq!(one_way(&mut w, SIZE, 1), healthy);
}

#[test]
fn one_picosecond_window_is_valid() {
    let mut w = world();
    let t = SimTime::from_micros(10);
    let plan = FaultPlan::new(0).with_nic_stall(t, t + SimTime::PS);
    w.net.apply_faults(&mut w.engine, &plan).unwrap();
    // Must install, run and complete; a 1 ps stall is unmeasurable noise.
    let lat = one_way(&mut w, SIZE, 1);
    assert!(lat.as_secs_f64() > 0.0);
    drain(&mut w);
}

#[test]
fn overlapping_nic_stalls_nest_like_their_union() {
    // [10 µs, 5 ms) ∪ [2 ms, 8 ms) — the first window's end falls inside
    // the second, so a boolean "stalled" flag would resume the NIC 3 ms
    // early. The counter implementation must behave exactly like the
    // merged window [10 µs, 8 ms).
    let t0 = SimTime::from_micros(10);
    let overlapping = {
        let mut w = world();
        let plan = FaultPlan::new(0)
            .with_nic_stall(t0, SimTime::from_millis(5))
            .with_nic_stall(SimTime::from_millis(2), SimTime::from_millis(8));
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        let lat = one_way(&mut w, SIZE, 1);
        drain(&mut w);
        lat
    };
    let merged = {
        let mut w = world();
        let plan = FaultPlan::new(0).with_nic_stall(t0, SimTime::from_millis(8));
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        let lat = one_way(&mut w, SIZE, 1);
        drain(&mut w);
        lat
    };
    assert_eq!(overlapping, merged, "overlapping stalls must nest");
    // And the stall really held for the union: the transfer cannot have
    // finished before the merged window closed.
    assert!(overlapping >= SimTime::from_millis(8) - t0);
}

#[test]
fn window_outliving_the_point_drains_clean_and_replays() {
    // A degradation window far longer than the point's traffic: the
    // transfer completes inside the window, the point drains the engine
    // (consuming the far-future window edges), and a fresh world running
    // the same plan — the next campaign point — reproduces the latency
    // bit for bit. Nothing about the open window leaks across points.
    let plan = FaultPlan::new(0).with_link_degradation(
        SimTime::ZERO,
        SimTime::SEC * 10, // ~4 orders of magnitude past the transfer
        0.25,
    );
    let run_point = || {
        let mut w = world();
        w.net.apply_faults(&mut w.engine, &plan).unwrap();
        let lat = one_way(&mut w, SIZE, 1);
        drain(&mut w);
        assert!(w.engine.next().is_none(), "drained engine stays empty");
        lat
    };
    let first = run_point();
    let second = run_point();
    assert_eq!(first, second, "points must not contaminate each other");

    // The degraded transfer is materially slower than healthy — the long
    // window was actually open while the traffic ran.
    let healthy = {
        let mut w = world();
        one_way(&mut w, SIZE, 1)
    };
    assert!(
        first.as_secs_f64() > healthy.as_secs_f64() * 1.5,
        "healthy {:?} degraded {:?}",
        healthy,
        first
    );

    // After the window closes inside one long-lived world, capacities are
    // restored: a warm transfer then matches the healthy warm latency.
    let mut w = world();
    let short =
        FaultPlan::new(0).with_link_degradation(SimTime::ZERO, SimTime::from_millis(30), 0.25);
    w.net.apply_faults(&mut w.engine, &short).unwrap();
    let _ = one_way(&mut w, SIZE, 1); // rides the degraded wire
    drain(&mut w); // closes the window
    let restored = one_way(&mut w, SIZE, 2);
    let warm_healthy = {
        let mut h = world();
        let _ = one_way(&mut h, SIZE, 1);
        one_way(&mut h, SIZE, 2)
    };
    assert_eq!(restored, warm_healthy, "caps must be restored exactly");
}
