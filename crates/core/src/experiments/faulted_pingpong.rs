//! Rendezvous ping-pong under injected faults — the robustness demo.
//!
//! Not a paper figure: the paper measures healthy clusters. This driver
//! exercises the fault-injection subsystem end to end. A rendezvous-sized
//! ping-pong runs while CTS control messages are dropped with increasing
//! probability; each lost CTS costs the sender one retransmission timeout,
//! so latency inflates and the per-send profiler records the retry work.
//!
//! Each repetition inside a sweep point runs under the same retry policy
//! the campaign engine applies to whole points ([`crate::runner`]), and
//! the engine's per-point guard nests around it. In the demo point, one
//! repetition's first attempt deliberately panics (it must recover on a
//! retry seed) and one repetition runs under a total CTS black-out (it must
//! fail cleanly after exhausting retransmissions, without hanging, while
//! the surviving repetitions still produce the median/decile bands).

use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use simcore::{FaultPlan, JitterFamily, Series, SimTime, Summary};
use topology::henri;

use super::Fidelity;
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::protocol::{build_cluster, retry_totals, ProtocolConfig, RepMetrics};
use crate::report::{Check, FigureData, RunOutcome};
use crate::runner::{self, RunStatus};

/// Rendezvous-sized message: far above henri's 64 KiB eager threshold, so
/// every send performs the RTS/CTS handshake the faults target.
const MSG_SIZE: usize = 256 * 1024;

/// Simulated-time ceiling per repetition: orders of magnitude above any
/// plausible completion, but finite, so a pathological schedule trips the
/// engine's budget watchdog instead of hanging the campaign.
const REP_BUDGET: SimTime = SimTime(2 * SimTime::SEC.0);

/// Repetition index whose first attempt panics (recovery demo).
const CRASH_REP: u32 = 1;
/// Repetition index that runs under a total CTS black-out (failure demo).
const BLACKOUT_REP: u32 = 2;

/// CTS drop probabilities of the sweep.
const PROBS: [f64; 3] = [0.0, 0.15, 0.35];

fn pingpong_cfg(fidelity: Fidelity) -> PingPongConfig {
    PingPongConfig {
        size: MSG_SIZE,
        reps: fidelity.lat_reps().max(6),
        warmup: 1,
        mtag: 0xFA,
    }
}

/// One repetition: fresh cluster, injected plan, profiled ping-pong. Its
/// metrics are the median latency and the retry work.
fn run_rep(
    pp: PingPongConfig,
    plan: &FaultPlan,
    seed: u64,
    rep: u64,
) -> Result<RepMetrics, mpisim::ClusterError> {
    let proto = ProtocolConfig::new(henri(), None);
    let family = JitterFamily::new(seed);
    let mut cluster: Cluster = build_cluster(&proto, &family, rep);
    cluster.apply_faults(plan)?;
    cluster.set_time_budget(Some(REP_BUDGET));
    cluster.enable_profiling();
    let res = pingpong::try_run(&mut cluster, pp)?;
    Ok(RepMetrics {
        comm_latency_us: res.median_latency_us(),
        ..retry_totals(&cluster)
    })
}

/// One repetition's export record, plus its latency when an attempt
/// produced data.
struct Rep {
    run: RunOutcome,
    lat_us: Option<f64>,
}

/// Run `reps` repetitions crash-proof. Rep `r` runs `attempt(r, base + r)`
/// under [`runner::guarded`]; a failed attempt is retried once on
/// [`runner::retry_seed`]`(base, r)` ([`runner::with_retry`]). A rep whose
/// retry also fails is recorded as failed and carries no latency, so the
/// bands come from the survivors.
fn run_reps(
    reps: u32,
    base: u64,
    mut attempt: impl FnMut(u32, u64) -> Result<RepMetrics, mpisim::ClusterError>,
) -> Vec<Rep> {
    (0..reps)
        .map(|rep| {
            let (seed, status, value) = runner::with_retry(
                base.wrapping_add(rep as u64),
                runner::retry_seed(base, rep),
                |seed| {
                    runner::guarded(|| attempt(rep, seed))
                        .map_err(|error| RunStatus::Failed { error })
                },
            );
            let mut run = RunOutcome {
                rep,
                seed,
                status: status.label(),
                error: status.error().map(str::to_owned),
                ..Default::default()
            };
            if let Some(v) = &value {
                run.retries = v.comm_retries;
                run.retrans_bytes = v.comm_retrans_bytes;
                run.retry_wait_s = v.comm_retry_wait_s;
            }
            Rep {
                run,
                lat_us: value.map(|v| v.comm_latency_us),
            }
        })
        .collect()
}

/// Result of one drop-probability sweep point.
struct SweepOut {
    lats: Vec<f64>,
    rets: Vec<f64>,
    failures: usize,
}

/// Result of the crash/black-out demo point.
struct DemoOut {
    lats: Vec<f64>,
    recovered: bool,
    crash_status: &'static str,
    crash_attempts: u32,
    blackout_failed: bool,
    partial: bool,
    runs: Vec<RunOutcome>,
}

/// Registry driver for the faulted ping-pong (3 drop-probability sweep
/// points plus the crash/black-out demo point).
pub struct FaultedPingpong;

impl Experiment for FaultedPingpong {
    fn name(&self) -> &'static str {
        "faulted_pingpong"
    }

    fn anchor(&self) -> &'static str {
        "robustness extension (fault injection)"
    }

    fn plan(&self, _fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut plan: Vec<SweepPoint> = PROBS
            .iter()
            .enumerate()
            .map(|(i, p)| SweepPoint::new(i, format!("CTS drop p = {}", p)))
            .collect();
        plan.push(SweepPoint::new(PROBS.len(), "crash/black-out demo"));
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let pp = pingpong_cfg(ctx.fidelity);
        let reps = ctx.fidelity.reps().max(4);
        if point.index < PROBS.len() {
            let p = PROBS[point.index];
            let base = FaultPlan::new(ctx.seed).with_cts_drop(p);
            let sweep = run_reps(reps, ctx.seed, |rep, seed| {
                let plan = FaultPlan {
                    seed,
                    ..base.clone()
                };
                run_rep(pp, &plan, seed, rep as u64)
            });
            Ok(Box::new(SweepOut {
                lats: sweep.iter().filter_map(|r| r.lat_us).collect(),
                rets: sweep
                    .iter()
                    .filter(|r| r.lat_us.is_some())
                    .map(|r| r.run.retries as f64)
                    .collect(),
                failures: sweep.iter().filter(|r| r.lat_us.is_none()).count(),
            }))
        } else {
            let demo_plan = FaultPlan::new(ctx.seed).with_cts_drop(0.25);
            let blackout_plan = FaultPlan::new(ctx.seed).with_cts_drop(1.0);
            let mut crash_attempts = 0u32;
            let demo = run_reps(reps, ctx.seed, |rep, seed| {
                if rep == CRASH_REP {
                    crash_attempts += 1;
                    if crash_attempts == 1 {
                        panic!("injected crash: first attempt of rep {}", rep);
                    }
                }
                let base = if rep == BLACKOUT_REP {
                    &blackout_plan
                } else {
                    &demo_plan
                };
                let plan = FaultPlan {
                    seed,
                    ..base.clone()
                };
                run_rep(pp, &plan, seed, rep as u64)
            });
            let crash_status = demo[CRASH_REP as usize].run.status;
            Ok(Box::new(DemoOut {
                lats: demo.iter().filter_map(|r| r.lat_us).collect(),
                recovered: crash_status == "recovered",
                crash_status,
                crash_attempts,
                blackout_failed: demo[BLACKOUT_REP as usize].run.status == "failed",
                partial: demo.iter().any(|r| r.lat_us.is_none()),
                runs: demo.into_iter().map(|r| r.run).collect(),
            }))
        }
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let reps = fidelity.reps().max(4);
        let mut lat = Series::new("latency");
        let mut retries_series = Series::new("retries per rep");
        let mut sweep_failures = 0usize;
        let mut retries_at = Vec::new();
        let mut lat_at = Vec::new();
        for (pi, &p) in PROBS.iter().enumerate() {
            let sweep = expect_value::<SweepOut>(points, pi);
            sweep_failures += sweep.failures;
            lat.push(p, &sweep.lats);
            retries_series.push(p, &sweep.rets);
            lat_at.push(Summary::of(&sweep.lats).median);
            retries_at.push(Summary::of(&sweep.rets).median);
        }

        let demo = expect_value::<DemoOut>(points, PROBS.len());
        let bands = Summary::of(&demo.lats);

        let checks = vec![
            Check::new(
                "healthy plan needs no retries",
                retries_at[0] == 0.0 && sweep_failures == 0,
                format!(
                    "median retries {} at p=0, {} failed sweep rep(s)",
                    retries_at[0], sweep_failures
                ),
            ),
            Check::new(
                "retry work grows with drop probability",
                retries_at[2] > retries_at[1] && retries_at[1] > 0.0,
                format!(
                    "median retries/rep {} / {} / {} at p = 0 / 0.15 / 0.35",
                    retries_at[0], retries_at[1], retries_at[2]
                ),
            ),
            Check::new(
                "dropped CTSes inflate latency",
                lat_at[2] > lat_at[0],
                format!(
                    "{:.1} µs at p=0.35 vs {:.1} µs healthy",
                    lat_at[2], lat_at[0]
                ),
            ),
            Check::new(
                "crashed rep recovers on a fresh seed",
                demo.recovered && demo.crash_attempts == 2,
                format!(
                    "rep {} status {:?} after {} attempt(s)",
                    CRASH_REP, demo.crash_status, demo.crash_attempts
                ),
            ),
            Check::new(
                "black-out rep fails cleanly, bands from survivors",
                demo.blackout_failed && demo.partial && bands.n == (reps as usize - 1),
                format!(
                    "{} of {} reps survived, median {:.1} µs [{:.1}, {:.1}]",
                    bands.n, reps, bands.median, bands.d1, bands.d9
                ),
            ),
        ];

        vec![FigureData {
            id: "faulted_pingpong",
            title: format!(
                "Rendezvous ping-pong ({} KiB) under injected CTS drops (henri)",
                MSG_SIZE / 1024
            ),
            xlabel: "CTS drop probability",
            ylabel: "latency (us)",
            series: vec![lat, retries_series],
            notes: vec![
                "robustness extension, not a paper figure: each dropped clear-to-send costs the \
                 sender one retransmission timeout (exponential backoff from 16x wire latency)"
                    .into(),
                format!(
                    "crash-proof campaign: rep {} panics once and recovers on a retry seed; rep {} \
                     runs a total CTS black-out and is reported as a partial result",
                    CRASH_REP, BLACKOUT_REP
                ),
            ],
            checks,
            runs: demo.runs.clone(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick;

    #[test]
    fn faulted_pingpong_quick_passes_checks() {
        let f = quick(&FaultedPingpong).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        assert_eq!(f.series.len(), 2);
        assert!(f.is_partial(), "black-out rep must surface as partial");
        // Statuses cover all three outcomes.
        let statuses: Vec<&str> = f.runs.iter().map(|r| r.status).collect();
        assert!(statuses.contains(&"ok"));
        assert!(statuses.contains(&"recovered"));
        assert!(statuses.contains(&"failed"));
        // The failed rep carries its error text into the export.
        let failed = f.runs.iter().find(|r| r.status == "failed").unwrap();
        assert!(
            failed.error.as_deref().unwrap().contains("retransmissions"),
            "{:?}",
            failed.error
        );
        // Rep r's first attempt runs on the demo point's seed + r; a
        // recovered or failed rep reports the seed of its retry.
        let s = campaign::point_seed("faulted_pingpong", PROBS.len());
        for r in &f.runs {
            let want = match r.status {
                "ok" => s.wrapping_add(r.rep as u64),
                "recovered" | "failed" => runner::retry_seed(s, r.rep),
                other => panic!("unexpected status {:?}", other),
            };
            assert_eq!(r.seed, want, "rep {} ({})", r.rep, r.status);
        }
        // JSON export surfaces the retries.
        let json = crate::results::figure_to_json(&f);
        assert!(json.contains("\"runs\":[{\"rep\":0"));
        assert!(json.contains("\"status\":\"recovered\""));
        assert!(json.contains("\"status\":\"failed\""));
    }

    #[test]
    fn empty_plan_matches_healthy_run() {
        // A rep with an empty fault plan must be byte-identical to the same
        // seed without any fault machinery engaged.
        let pp = pingpong_cfg(Fidelity::Quick);
        let healthy = {
            let proto = ProtocolConfig::new(henri(), None);
            let family = JitterFamily::new(7);
            let mut cluster = build_cluster(&proto, &family, 0);
            pingpong::run(&mut cluster, pp).median_latency_us()
        };
        let injected = run_rep(pp, &FaultPlan::new(7), 7, 0).unwrap();
        assert_eq!(healthy, injected.comm_latency_us);
        assert_eq!(injected.comm_retries, 0);
    }
}
