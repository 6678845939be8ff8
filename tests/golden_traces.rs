//! Golden-trace regression tests: the telemetry journal of a fixed
//! configuration is a pure function of that configuration, so its canonical
//! text form can be diffed byte-for-byte against committed fixtures. Any
//! change to event ordering, protocol phase structure, timer scheduling or
//! fluid-rate arithmetic shows up here as a readable diff.
//!
//! Regenerate fixtures after an *intentional* model change with
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! and review the diff like any other code change.

mod support;

use freq::{Governor, UncorePolicy};
use interference::campaign::{run_outcomes_with_store, run_set_with_report, CampaignOptions};
use interference::experiments::{self, Fidelity};
use mpisim::collective::{self, Schedule};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use simcore::telemetry::{self, RecordKind};
use simcore::{FaultPlan, SimTime};
use topology::fabric::FabricPreset;
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

/// A telemetry counter line: `"{t} C {name} = {value}"` (mid-stream
/// snapshot) or `"counter {name} = {value}"` (final total).
fn is_counter_line(line: &str) -> bool {
    let rest = if let Some(r) = line.strip_prefix("counter ") {
        r
    } else {
        // "{t} C {name} = {value}": timestamp, then the C record marker.
        let Some((ts, r)) = line.split_once(" C ") else {
            return false;
        };
        if ts.is_empty() || !ts.bytes().all(|b| b.is_ascii_digit()) {
            return false;
        }
        r
    };
    match rest.split_once(" = ") {
        Some((name, value)) => {
            !name.is_empty() && !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

/// Assert `new` differs from `old` only by *added counter lines*: every old
/// line must survive, in order, and every inserted line must be a counter
/// line. This is the re-bless contract for a perf-only change — new
/// observability counters may appear in the journal, but no span, instant,
/// timing or ordering byte may move.
fn assert_diff_is_added_counters_only(path: &str, old: &str, new: &str) {
    let mut new_lines = new.lines();
    let mut inserted: Vec<&str> = Vec::new();
    for (i, want) in old.lines().enumerate() {
        loop {
            let Some(got) = new_lines.next() else {
                panic!(
                    "re-bless of {} dropped fixture line {}: {:?} — \
                     a perf-only change must keep every existing journal line",
                    path,
                    i + 1,
                    want
                );
            };
            if got == want {
                break;
            }
            inserted.push(got);
        }
    }
    inserted.extend(new_lines);
    for line in inserted {
        assert!(
            is_counter_line(line),
            "re-bless of {} inserts a non-counter line {:?} — \
             only added counter lines are an acceptable perf-change diff",
            path,
            line
        );
    }
}

/// Diff `text` against `tests/golden/<name>.txt`, or rewrite the fixture
/// when `GOLDEN_BLESS=1` is set. A re-bless over an existing fixture is
/// itself checked: the only acceptable diff is added counter lines.
fn assert_golden(name: &str, text: &str) {
    assert_golden_kind(name, text, true)
}

/// [`assert_golden`] for non-journal fixtures (the predict feature
/// matrix): a re-bless may rewrite any line — the counters-only contract
/// is about journal timelines, and a feature-set change legitimately
/// changes every row — but still requires the explicit `GOLDEN_BLESS=1`
/// opt-in and review of the diff.
fn assert_golden_free(name: &str, text: &str) {
    assert_golden_kind(name, text, false)
}

fn assert_golden_kind(name: &str, text: &str, journal: bool) {
    let path = format!("{}/tests/golden/{}.txt", env!("CARGO_MANIFEST_DIR"), name);
    if std::env::var_os("GOLDEN_BLESS").is_some_and(|v| v == "1") {
        if let Ok(old) = std::fs::read_to_string(&path) {
            if journal && std::env::var_os("GOLDEN_BLESS_FORCE").is_none() {
                assert_diff_is_added_counters_only(&path, &old, text);
            }
        }
        std::fs::write(&path, text).expect("bless golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({}); run GOLDEN_BLESS=1 cargo test --test golden_traces",
            path, e
        )
    });
    if text != expected {
        let diff_at = text
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(expected.lines().count()));
        panic!(
            "journal diverged from {} at line {} (got {} lines, fixture has {}).\n\
             got:      {:?}\nexpected: {:?}\n\
             If the model change is intentional, re-bless with GOLDEN_BLESS=1.",
            path,
            diff_at + 1,
            text.lines().count(),
            expected.lines().count(),
            text.lines().nth(diff_at).unwrap_or("<eof>"),
            expected.lines().nth(diff_at).unwrap_or("<eof>"),
        );
    }
}

/// Canonical eager ping-pong (4 B payload, PIO path): golden journal.
#[test]
fn eager_pingpong_journal_matches_golden() {
    std::thread::scope(|s| {
        s.spawn(|| {
            telemetry::install();
            let mut c = cluster();
            let res = pingpong::run(&mut c, PingPongConfig::latency(3));
            assert_eq!(res.half_rtts.len(), 3);
            drop(c); // flush the engine.run span
            let j = telemetry::take().expect("recorder installed");
            assert!(j.counters["engine.events"] > 0);
            assert_eq!(j.counters.get("net.retrans"), None, "healthy run");
            assert_golden("eager_pingpong", &j.to_text());
        })
        .join()
        .expect("test thread");
    });
}

/// Rendezvous ping-pong (4 MiB payload) on a lossy fabric: CTS drops force
/// the retransmission path into the journal.
#[test]
fn rendezvous_cts_drop_journal_matches_golden() {
    std::thread::scope(|s| {
        s.spawn(|| {
            telemetry::install();
            let mut c = cluster();
            c.apply_faults(&FaultPlan::new(7).with_cts_drop(0.5))
                .expect("valid plan");
            c.set_time_budget(Some(SimTime::SEC * 5));
            let res = pingpong::try_run(
                &mut c,
                PingPongConfig {
                    size: 4 << 20,
                    reps: 2,
                    warmup: 1,
                    mtag: 0xFA,
                },
            )
            .expect("bounded drop probability completes");
            assert_eq!(res.half_rtts.len(), 2);
            drop(c);
            let j = telemetry::take().expect("recorder installed");
            assert!(
                j.counters["net.retrans"] > 0,
                "seed 7 at p=0.5 must drop at least one CTS"
            );
            let drops = j
                .records
                .iter()
                .filter(
                    |r| matches!(&r.kind, RecordKind::Instant { name, .. } if name == "cts.drop"),
                )
                .count();
            assert!(drops > 0, "drop instants must be recorded");
            assert_golden("rendezvous_cts_drop", &j.to_text());
        })
        .join()
        .expect("test thread");
    });
}

/// A pinned 8-rank switch cluster, matching the simcheck collective
/// oracles' world.
fn ring_cluster() -> Cluster {
    let spec = henri();
    Cluster::with_fabric(
        &spec,
        FabricPreset::Switch.spec(8).build_for(8),
        Governor::Userspace(2.3),
        UncorePolicy::Fixed(2.4),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    )
}

/// 8-rank ring allreduce (256 KiB payload, 32 KiB eager chunks) through a
/// mid-run link-degradation window: the journal pins the collective's
/// round structure, every rank's eager timeline, and the fault edges
/// where all link rates drop to 40% and recover mid-sweep.
#[test]
fn ring_allreduce_degraded_journal_matches_golden() {
    let sched = Schedule::ring_allreduce(8, 256 << 10);
    // Healthy reference first (no recorder): the window must land inside
    // the run and must actually cost time, or the fixture pins nothing.
    let healthy = collective::run(&mut ring_cluster(), &sched, 0x200, 0x4000)
        .expect("healthy collective completes");
    let window = (SimTime(20_000_000), SimTime(50_000_000)); // [20 us, 50 us)
    assert!(healthy > window.1, "degradation window must end mid-run");

    std::thread::scope(|s| {
        s.spawn(|| {
            telemetry::install();
            let mut c = ring_cluster();
            c.apply_faults(&FaultPlan::new(11).with_link_degradation(window.0, window.1, 0.4))
                .expect("valid plan");
            let degraded = collective::run(&mut c, &sched, 0x200, 0x4000)
                .expect("degraded collective completes");
            assert!(
                degraded > healthy,
                "running 30 us at 40% link rate must cost time ({:?} vs {:?})",
                degraded,
                healthy
            );
            drop(c);
            let j = telemetry::take().expect("recorder installed");
            let edges = |name: &str| {
                j.records
                    .iter()
                    .filter(
                        |r| matches!(&r.kind, RecordKind::Instant { name: n, .. } if *n == name),
                    )
                    .count()
            };
            assert_eq!(edges("link.degrade"), 1, "one degradation onset");
            assert_eq!(edges("link.restore"), 1, "one recovery");
            assert_golden("ring_allreduce_degraded", &j.to_text());
        })
        .join()
        .expect("test thread");
    });
}

/// One Quick fig4 contention point, including the baselines it computes:
/// golden journal of the full campaign merge for a single-point slice.
#[test]
fn fig4_quick_campaign_journal_matches_golden() {
    let fig4 = experiments::find("fig4").expect("registered");
    let opts = CampaignOptions::serial(Fidelity::Quick).with_telemetry(true);
    let (runs, report) = run_set_with_report(&[fig4], &opts);
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].failed_points, 0);
    let j = report.journal.expect("telemetry enabled");
    // The merged journal must carry spans from the campaign, engine, netsim
    // and mpisim layers (the ISSUE's four-layer floor).
    let cats = j.categories();
    for needed in ["campaign", "engine", "net.xfer", "mpi.send"] {
        assert!(cats.contains(&needed), "missing {} in {:?}", needed, cats);
    }
    assert_golden("fig4_quick_campaign", &j.to_text());
}

/// The Quick fig10 campaign: task-runtime workers switch between polling,
/// computing and idle, so the journal pins every worker transition's effect
/// on the rooflines and clocks (`freq.transitions`, `fluid.*`) as well as
/// the task spans.
#[test]
fn fig10_quick_campaign_journal_matches_golden() {
    let fig10 = experiments::find("fig10").expect("registered");
    let opts = CampaignOptions::serial(Fidelity::Quick).with_telemetry(true);
    let (runs, report) = run_set_with_report(&[fig10], &opts);
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].failed_points, 0);
    let j = report.journal.expect("telemetry enabled");
    let cats = j.categories();
    for needed in ["campaign", "engine", "task"] {
        assert!(cats.contains(&needed), "missing {} in {:?}", needed, cats);
    }
    assert!(j.counters["freq.transitions"] > 0);
    assert_golden("fig10_quick_campaign", &j.to_text());
}

/// The ISSUE's headline oracle: the merged campaign journal is
/// byte-identical between `--jobs 1` and `--jobs 4`, even though which
/// worker computes each shared baseline is a scheduling race.
#[test]
fn fig4_journal_byte_identical_across_jobs() {
    let fig4 = experiments::find("fig4").expect("registered");
    let text = |jobs: usize| {
        let opts = CampaignOptions::new(Fidelity::Quick, jobs).with_telemetry(true);
        let (_, report) = run_set_with_report(&[fig4], &opts);
        report.journal.expect("telemetry enabled").to_text()
    };
    let serial = text(1);
    let parallel = text(4);
    assert!(
        serial == parallel,
        "jobs=4 journal diverged from jobs=1 ({} vs {} bytes)",
        parallel.len(),
        serial.len()
    );
}

/// Per-point journals surface through `run_outcomes_with_store`, and the Chrome
/// export of a real campaign journal parses as valid JSON with the
/// trace-event envelope.
#[test]
fn chrome_export_of_campaign_journal_is_valid() {
    let fig4 = experiments::find("fig4").expect("registered");
    let opts = CampaignOptions::serial(Fidelity::Quick).with_telemetry(true);
    let outcomes = run_outcomes_with_store(fig4, &opts, None);
    assert!(outcomes.iter().all(|o| o.journal.is_some()));

    let (_, report) = run_set_with_report(&[fig4], &opts);
    let json = report.journal.expect("telemetry enabled").to_chrome_json();
    let doc = support::parse(&json);
    let events = doc.get("traceEvents").as_arr();
    assert!(
        events.len() > 100,
        "expected a rich trace, got {}",
        events.len()
    );
    let mut phases: Vec<&str> = events.iter().map(|e| e.get("ph").as_str()).collect();
    phases.sort_unstable();
    phases.dedup();
    // fig4 drives mpisim directly (no taskrt workers), so sync B/E task
    // spans are absent; async spans, completes, instants, counters and
    // metadata must all be present.
    for needed in ["M", "X", "b", "e", "i", "C"] {
        assert!(
            phases.contains(&needed),
            "missing ph {:?} in {:?}",
            needed,
            phases
        );
    }
    // Every event names a process and sits at a non-negative timestamp.
    for e in events {
        let obj = e.as_obj();
        assert!(obj.contains_key("pid") || obj["ph"] == support::Json::Str("C".into()));
        if let Some(support::Json::Num(ts)) = obj.get("ts") {
            assert!(*ts >= 0.0);
        }
    }
}

/// The predictor's harvest stage on the fig4 configuration (henri, STREAM
/// triad, Quick): byte-stable feature-matrix dump. Pins the feature
/// names, their order, every extracted counter rate and both ground-truth
/// penalties — any drift in the telemetry counters, the alone-step
/// protocol or the penalty arithmetic shows up as a readable row diff.
#[test]
fn predict_feature_matrix_matches_golden() {
    use interference::campaign::run_outcomes_with_store;
    use interference::experiments::harvest::{self, Family, Harvest, PairSpec};
    use topology::presets::Preset;

    let exp = Harvest {
        filter: Some(|s: &PairSpec| s.preset == Preset::Henri && s.family == Family::Stream),
    };
    let opts = CampaignOptions::serial(Fidelity::Quick);
    let outcomes = run_outcomes_with_store(&exp, &opts, None);
    assert!(
        outcomes.iter().all(|o| o.value.is_some()),
        "harvest must complete"
    );
    let pairs = harvest::collect_pairs(&outcomes);
    assert_eq!(pairs.len(), 16, "4 placements x 2 core counts x 2 metrics");
    assert_golden_free(
        "predict_feature_matrix",
        &harvest::feature_matrix_text(&pairs),
    );
}
