//! Tier-2: whole-campaign byte-identity of the collective experiments.
//!
//! The collective × contention and collective × DVFS extensions run
//! N-rank schedules over routed fabrics — the layer stack this repo added
//! last (fabric routing → netsim multi-hop flows → mpisim collectives →
//! campaign engine). These tests pin the stack's determinism guarantee at
//! full-campaign scale: the rendered figure JSON must be byte-identical
//!
//! * on mpisim's linear-scan matcher instead of the indexed bins, and
//! * at any worker count (`--jobs 1` vs `--jobs 4`).
//!
//! Reference paths are picked with `simcore::ReferencePaths`, installed on
//! the calling thread for one campaign and carried into its workers.
//!
//! The 64-rank sweep points make this the widest determinism surface in
//! the suite: one reordered event anywhere in 8 000+ messages shows up as
//! a differing byte here.

mod support;

use interference::campaign::{self, CampaignOptions};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use simcore::reference_paths::{self, ReferencePaths};
use support::assert_identical;

fn collective_experiments() -> Vec<&'static dyn campaign::Experiment> {
    ["collective_contention", "collective_dvfs"]
        .iter()
        .map(|n| experiments::find(n).expect("registered"))
        .collect()
}

fn campaign_json(jobs: usize) -> String {
    let figures: Vec<_> = campaign::run_set(
        &collective_experiments(),
        &CampaignOptions::new(Fidelity::Quick, jobs),
    )
    .into_iter()
    .flat_map(|r| r.figures)
    .collect();
    figures_to_json(&figures)
}

/// `--jobs 1` vs `--jobs 4`: same campaign bytes, even though the workers
/// race for the memoized STREAM-alone baselines.
#[test]
fn collective_campaign_json_identical_across_jobs() {
    let serial = campaign_json(1);
    let parallel = campaign_json(4);
    assert_identical(&serial, &parallel, "parallel collective campaign diverged");
}

/// Runs `f` with the collective layer's reference twin installed: linear-scan
/// message matching. (Interned routes and memoized schedules have no runtime
/// twin: one-shot proofs cover them — netsim's
/// `payload_path_follows_the_fabric_route` and `tests/schedule_cache.rs`.)
fn with_reference_paths<T>(f: impl FnOnce() -> T) -> T {
    let matcher = ReferencePaths {
        matcher: true,
        ..ReferencePaths::default()
    };
    reference_paths::scoped(matcher, f)
}

/// Indexed matching vs the reference scan: same campaign bytes — the
/// collective fast path is pure perf, zero semantics.
#[test]
fn collective_campaign_json_identical_with_reference_paths() {
    let fast = campaign_json(1);
    let reference = with_reference_paths(|| campaign_json(1));
    assert_identical(
        &fast,
        &reference,
        "collective fast paths changed campaign output (serial)",
    );
}

/// Same comparison under `--jobs 4`: the worker pool must carry the
/// installed value into every worker, and the process-global schedule cache
/// must not introduce a scheduling-order dependence.
#[test]
fn collective_campaign_json_identical_with_reference_paths_parallel() {
    let fast = campaign_json(4);
    let reference = with_reference_paths(|| campaign_json(4));
    assert_identical(
        &fast,
        &reference,
        "collective fast paths changed campaign output (jobs=4)",
    );
}

/// The Quick plans cover both acceptance scales: an 8-rank henri sweep and
/// a 64-rank tiny2x2 sweep must be present (the JSON identity above is
/// only meaningful if the routed 64-rank case is actually in it).
#[test]
fn quick_plan_covers_both_scales() {
    let contention = experiments::find("collective_contention").expect("registered");
    let labels: Vec<String> = contention
        .plan(Fidelity::Quick)
        .iter()
        .map(|p| p.label.clone())
        .collect();
    assert!(labels.iter().any(|l| l.contains("henri x 8")), "{labels:?}");
    assert!(
        labels.iter().any(|l| l.contains("tiny2x2 x 64")),
        "{labels:?}"
    );
}
