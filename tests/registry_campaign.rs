//! Tier-2: the experiment registry and the campaign engine's determinism
//! guarantee — a parallel campaign must be byte-identical to a serial one.

use interference::campaign::{run_set, CampaignOptions};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;

/// The registry's names: `PAPER_EXPERIMENTS`, then `EXTENSION_EXPERIMENTS`.
/// This list is load-bearing: `repro --only` and the CSV/JSON exports key
/// off these names, and the order fixes the figure order of `repro --all`
/// and `repro --ext`.
const EXPECTED: [&str; 17] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "cross_machine",
    "ablations",
    "overlap",
    "faulted_pingpong",
    "collective_contention",
    "collective_dvfs",
];

#[test]
fn registry_is_complete_unique_and_ordered() {
    let names: Vec<&str> = experiments::all_experiments()
        .iter()
        .map(|e| e.name())
        .collect();
    assert_eq!(
        names, EXPECTED,
        "registry changed: update EXPECTED and DESIGN.md"
    );
    let unique: std::collections::HashSet<&&str> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "duplicate registry names");
    assert_eq!(
        experiments::PAPER_EXPERIMENTS.len() + experiments::EXTENSION_EXPERIMENTS.len(),
        EXPECTED.len(),
        "an experiment is registered in both (or neither) registry"
    );
}

#[test]
fn find_resolves_every_name_and_rejects_unknowns() {
    for name in EXPECTED {
        let e = experiments::find(name).expect("registered");
        assert_eq!(e.name(), name);
        assert!(!e.anchor().is_empty(), "{} has no paper anchor", name);
    }
    assert!(experiments::find("fig99").is_none());
}

#[test]
fn plans_are_dense_and_labelled() {
    for e in experiments::all_experiments() {
        for fidelity in [Fidelity::Quick, Fidelity::Full] {
            let plan = e.plan(fidelity);
            assert!(!plan.is_empty(), "{} has an empty plan", e.name());
            for (i, p) in plan.iter().enumerate() {
                assert_eq!(p.index, i, "{} plan indices not dense", e.name());
                assert!(!p.label.is_empty(), "{} point {} unlabelled", e.name(), i);
            }
        }
    }
}

/// The engine's headline guarantee: `--jobs 4` produces byte-identical
/// figure JSON to `--jobs 1`. fig1 covers a plain per-point experiment,
/// fig4 covers one whose points flow through the memoized baseline cache
/// (where a wrong seed derivation would show up as order-dependent values).
#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    for name in ["fig1", "fig4"] {
        let exp = experiments::find(name).expect("registered");
        let serial: Vec<_> = run_set(&[exp], &CampaignOptions::serial(Fidelity::Quick))
            .into_iter()
            .flat_map(|r| r.figures)
            .collect();
        let parallel: Vec<_> = run_set(&[exp], &CampaignOptions::new(Fidelity::Quick, 4))
            .into_iter()
            .flat_map(|r| r.figures)
            .collect();
        assert_eq!(
            figures_to_json(&serial),
            figures_to_json(&parallel),
            "{}: parallel campaign diverged from serial",
            name
        );
    }
}
