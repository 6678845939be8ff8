//! Trace explorer: record the telemetry journal of a fault-injected
//! rendezvous ping-pong, print its canonical text form, and export a
//! Chrome trace-event file for `chrome://tracing` / <https://ui.perfetto.dev>.
//!
//! The journal is keyed to simulated time only — run this twice and the
//! files are byte-identical, which is exactly what the golden-trace tests
//! in `tests/golden_traces.rs` rely on.
//!
//! ```text
//! cargo run --release --example trace_explorer [OUT.json]
//! ```

use freq::{Governor, UncorePolicy};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use simcore::telemetry;
use simcore::{FaultPlan, SimTime};
use topology::{henri, BindingPolicy, Placement};

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_pingpong.json".into());

    telemetry::install();
    let mut c = Cluster::new(
        &henri(),
        Governor::Userspace(2.3),
        UncorePolicy::Fixed(2.4),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    );
    // A lossy fabric makes the trace interesting: dropped CTS packets show
    // up as instants, and the RTS retransmission timer fires visibly.
    c.apply_faults(&FaultPlan::new(7).with_cts_drop(0.5))
        .expect("valid fault plan");
    c.set_time_budget(Some(SimTime::SEC * 5));
    let res = pingpong::try_run(
        &mut c,
        PingPongConfig {
            size: 4 << 20,
            reps: 2,
            warmup: 1,
            mtag: 0xE0,
        },
    )
    .expect("run completes inside the time budget");
    drop(c); // close the engine.run span
    let journal = telemetry::take().expect("recorder installed");

    println!("== canonical journal text (the golden-trace format) ==");
    print!("{}", journal.to_text());
    println!();
    println!("== summary ==");
    println!(
        "   {} records, {:.3} ms simulated",
        journal.records.len(),
        journal.end_time().as_secs_f64() * 1e3
    );
    for r in &res.half_rtts {
        println!("   half-rtt sample: {:.2} us", r.as_micros_f64());
    }
    for (name, value) in &journal.counters {
        println!("   counter {:<16} {}", name, value);
    }

    std::fs::write(&out, journal.to_chrome_json()).expect("write trace");
    println!();
    println!(
        "Chrome trace written to {} — open chrome://tracing or https://ui.perfetto.dev",
        out
    );
}
