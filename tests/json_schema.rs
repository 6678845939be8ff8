//! Schema-stability snapshot for the machine-readable exports.
//!
//! Downstream tooling (plot scripts, CI dashboards) keys off the exact
//! field names of `repro --json` and `repro --trace`. These tests pin the
//! key set of every object level so an accidental rename or dropped field
//! fails loudly instead of silently producing empty plots.

mod support;

use interference::campaign::{run_set_with_report, CampaignOptions};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use support::Json;

/// Render fig1 at Quick fidelity and parse its JSON export.
fn fig1_doc() -> Json {
    let fig1 = experiments::find("fig1").expect("registered");
    let opts = CampaignOptions::serial(Fidelity::Quick);
    let (runs, _) = run_set_with_report(&[fig1], &opts);
    let figures: Vec<_> = runs.iter().flat_map(|r| r.figures.clone()).collect();
    assert!(!figures.is_empty(), "fig1 produced no figures");
    support::parse(&interference::results::figures_to_json(&figures))
}

#[test]
fn figure_json_key_sets_are_stable() {
    let doc = fig1_doc();
    let figures = doc.as_arr();
    assert!(!figures.is_empty());
    for fig in figures {
        assert_eq!(
            fig.keys(),
            ["checks", "id", "notes", "runs", "series", "title", "xlabel", "ylabel"],
            "figure-level schema changed"
        );
        for series in fig.get("series").as_arr() {
            assert_eq!(
                series.keys(),
                ["name", "points"],
                "series-level schema changed"
            );
            for point in series.get("points").as_arr() {
                assert_eq!(
                    point.keys(),
                    ["d1", "d9", "max", "median", "min", "n", "x"],
                    "point-level schema changed"
                );
            }
        }
        for check in fig.get("checks").as_arr() {
            assert_eq!(
                check.keys(),
                ["detail", "name", "pass"],
                "check-level schema changed"
            );
        }
        for run in fig.get("runs").as_arr() {
            assert_eq!(
                run.keys(),
                [
                    "error",
                    "rep",
                    "retrans_bytes",
                    "retries",
                    "retry_wait_s",
                    "seed",
                    "status"
                ],
                "run-level schema changed"
            );
        }
    }
}

#[test]
fn figure_json_values_are_well_typed() {
    let doc = fig1_doc();
    for fig in doc.as_arr() {
        assert!(!fig.get("id").as_str().is_empty());
        for series in fig.get("series").as_arr() {
            for point in series.get("points").as_arr() {
                for key in ["x", "median", "d1", "d9", "min", "max", "n"] {
                    match point.get(key) {
                        Json::Num(v) => assert!(v.is_finite(), "{} not finite", key),
                        other => panic!("{} is not a number: {:?}", key, other),
                    }
                }
            }
        }
        for check in fig.get("checks").as_arr() {
            assert!(matches!(check.get("pass"), Json::Bool(_)));
        }
    }
}

#[test]
fn figures_to_json_of_empty_set_is_valid() {
    let doc = support::parse(&figures_to_json(&[]));
    assert_eq!(doc.as_arr().len(), 0);
}
