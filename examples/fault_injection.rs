//! Fault injection: the paper's bandwidth ping-pong on a degraded link,
//! with rendezvous control-message drops and a crash-proof campaign.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```
//!
//! The healthy figures assume a perfect fabric. This example injects two
//! of the fault classes the robustness extension models — a link-bandwidth
//! degradation window and dropped clear-to-send control messages — through
//! the three-step protocol, then runs the `faulted_pingpong` experiment
//! through the campaign engine to show a crash-proof campaign: every
//! repetition goes through the engine's retry policy, so a crashed rep
//! recovers on a retry seed and a blacked-out rep is reported, not lost.

use mpisim::pingpong::PingPongConfig;
use simcore::{FaultPlan, SimTime, Summary};
use topology::henri;

use interference::campaign::{self, CampaignOptions};
use interference::experiments::faulted_pingpong::FaultedPingpong;
use interference::experiments::Fidelity;
use interference::protocol::{self, ProtocolConfig};

fn main() {
    let machine = henri();
    let mut cfg = ProtocolConfig::new(machine, None);
    cfg.reps = 5;
    cfg.pingpong = PingPongConfig::bandwidth(3);

    // Healthy baseline.
    let healthy = protocol::run(&cfg);
    let med = |v: &[f64]| Summary::of(v).median;
    let bw0 = med(&healthy.bw_alone());
    println!("healthy fabric      : {:>6.2} GB/s", bw0 / 1e9);

    // The wire degraded to 40 % of nominal for the first 10 s of every
    // repetition — long enough to cover the whole measurement.
    let degraded_plan =
        FaultPlan::new(cfg.seed).with_link_degradation(SimTime::ZERO, SimTime::SEC * 10, 0.40);
    let degraded = protocol::try_run_faulted(&cfg, &degraded_plan).expect("degraded run");
    let bw1 = med(&degraded.bw_alone());
    println!(
        "link at 40 %        : {:>6.2} GB/s (−{:.0} %)",
        bw1 / 1e9,
        (1.0 - bw1 / bw0) * 100.0
    );

    // Rendezvous CTS drops: each loss costs the sender one retransmission
    // timeout; the per-send profiler records the retry work.
    let mut lossy_cfg = cfg.clone();
    lossy_cfg.pingpong = PingPongConfig {
        size: 256 * 1024,
        reps: 10,
        warmup: 2,
        mtag: 0xFA,
    };
    let lossy_plan = FaultPlan::new(cfg.seed).with_cts_drop(0.3);
    let lossy = protocol::try_run_faulted(&lossy_cfg, &lossy_plan).expect("lossy run");
    let retries: u64 = lossy.comm_alone.iter().map(|m| m.comm_retries).sum();
    let retrans: u64 = lossy.comm_alone.iter().map(|m| m.comm_retrans_bytes).sum();
    println!(
        "30 % CTS drops      : {} retransmissions, {} control bytes re-sent",
        retries, retrans
    );

    // A crash-proof campaign: in the experiment's demo point, rep 1's first
    // attempt panics and rep 2 runs under a total CTS black-out; the
    // survivors still produce the bands.
    let run = campaign::run_experiment(&FaultedPingpong, &CampaignOptions::serial(Fidelity::Quick));
    let fig = &run.figures[0];
    println!("\ncrash-proof campaign ({}):", fig.title);
    for r in &fig.runs {
        println!(
            "  rep {} [{}] seed {:#018x}, {} retries{}",
            r.rep,
            r.status,
            r.seed,
            r.retries,
            r.error
                .as_deref()
                .map(|e| format!(" — {}", e))
                .unwrap_or_default()
        );
    }
    for c in &fig.checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        println!("  [{}] {} — {}", verdict, c.name, c.detail);
    }
    assert!(fig.is_partial() && fig.all_pass());
}
