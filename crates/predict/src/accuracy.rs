//! Prediction-accuracy validation campaign (`repro --validate` /
//! `repro --predict-check`).
//!
//! Plans and runs the full harvest grid (delegating to
//! `interference::experiments::harvest`, value codec included), then in
//! `finalize`:
//!
//! * k-fold cross-validates the combined co-location penalty over three
//!   shuffle seeds, reporting per-preset median/mean absolute relative
//!   error **with spread** (Hunold & Carpen-Amarie: never a single lucky
//!   split);
//! * replays the leave-one-workload-family-out protocol: an advisor that
//!   never saw a family must still pick the ground-truth-best of the four
//!   candidate placements and rank them consistently (Spearman);
//! * gates both against `PREDICT_baseline.json` — the error ratchet
//!   (mirrors the coverage ratchet: regressions beyond slack fail, never
//!   lower the baseline to pass);
//! * re-trains and byte-compares the model file (determinism gate).

use interference::campaign::{Experiment, PointCtx, PointOutcome, PointValue, SweepPoint};
use interference::experiments::harvest::{self, Harvest, TrainingPair};
use interference::experiments::Fidelity;
use interference::report::{Check, FigureData};
use simcheck::stats;
use simcore::Series;
use topology::presets::Preset;

use crate::advisor::{default_params, Advisor};
use crate::learn::{self, Params};

/// Cross-validation fold count.
pub const CV_FOLDS: usize = 5;
/// Shuffle seeds the cross-validation repeats over (spread reporting).
pub const CV_SEEDS: [u64; 3] = [1, 2, 3];

/// The harvest grid the accuracy campaign measures (full grid).
const GRID: Harvest = Harvest { filter: None };

/// `repro --validate` campaign experiment gating the predictor.
pub struct PredictAccuracy;

/// Registry-external instance, mirroring `VALIDATION_EXPERIMENT`.
pub static ACCURACY_EXPERIMENT: &dyn Experiment = &PredictAccuracy;

/// Indexed held-out errors of the **combined** penalty (comm × compute):
/// `(pair index, |pred - truth| / truth)` for every pair, each held out
/// exactly once per seed.
pub fn cv_combined_errors(
    pairs: &[TrainingPair],
    params: &Params,
    k: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    let n = pairs.len();
    let mut out = Vec::with_capacity(n);
    for held in learn::kfold(n, k, seed) {
        let mut is_held = vec![false; n];
        for &i in &held {
            is_held[i] = true;
        }
        let train_set: Vec<TrainingPair> = (0..n)
            .filter(|i| !is_held[*i])
            .map(|i| pairs[i].clone())
            .collect();
        if train_set.is_empty() {
            continue;
        }
        let adv = Advisor::train(&train_set, params);
        for &i in &held {
            let truth = pairs[i].comm_penalty * pairs[i].compute_penalty;
            if truth != 0.0 {
                let pred = adv.predict_combined(&pairs[i].features);
                out.push((i, (pred - truth).abs() / truth.abs()));
            }
        }
    }
    out
}

/// Regret tolerance of the best-pick metric: the predicted-best placement
/// counts as a hit when its ground-truth penalty is within this factor of
/// the ground-truth optimum. Placements closer than run-to-run noise
/// (~2–3% between seeds) are genuine ties; demanding the exact argmin
/// there would score coin flips, not skill.
pub const BEST_PICK_REGRET: f64 = 1.05;

/// Leave-one-workload-family-out ranking evaluation.
pub struct RankEval {
    /// Fraction of held-out placement groups where the predicted-best
    /// placement's ground-truth penalty is within [`BEST_PICK_REGRET`] of
    /// the ground-truth best.
    pub best_pick: f64,
    /// Mean Spearman rank correlation between predicted and true combined
    /// penalties within each group of four placements.
    pub mean_spearman: f64,
    /// Held-out groups evaluated.
    pub groups: usize,
}

/// For each family: train on every other family, group the held-out pairs
/// by (preset, cores, metric) — each group is the same query under the
/// four candidate placements — and compare predicted vs ground-truth
/// placement order.
pub fn rank_eval(pairs: &[TrainingPair], params: &Params) -> RankEval {
    let mut hits = 0usize;
    let mut groups = 0usize;
    let mut rhos = Vec::new();
    for family in harvest::Family::all() {
        let Some(adv) = Advisor::train_excluding(pairs, params, |s| s.family != family) else {
            continue;
        };
        let held: Vec<&TrainingPair> = pairs.iter().filter(|p| p.spec.family == family).collect();
        // Group keys in first-appearance (grid) order.
        let mut keys: Vec<(Preset, u32, &'static str)> = Vec::new();
        for p in &held {
            let key = (p.spec.preset, p.spec.cores, p.spec.metric.tag());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        for key in keys {
            let group: Vec<&&TrainingPair> = held
                .iter()
                .filter(|p| (p.spec.preset, p.spec.cores, p.spec.metric.tag()) == key)
                .collect();
            if group.len() < 2 {
                continue;
            }
            let truth: Vec<f64> = group
                .iter()
                .map(|p| p.comm_penalty * p.compute_penalty)
                .collect();
            let pred: Vec<f64> = group
                .iter()
                .map(|p| adv.predict_combined(&p.features))
                .collect();
            let arg_min = |xs: &[f64]| {
                let mut best = 0;
                for i in 1..xs.len() {
                    if xs[i] < xs[best] {
                        best = i;
                    }
                }
                best
            };
            groups += 1;
            if truth[arg_min(&pred)] <= truth[arg_min(&truth)] * BEST_PICK_REGRET {
                hits += 1;
            }
            rhos.push(stats::spearman(&pred, &truth));
        }
    }
    RankEval {
        best_pick: if groups > 0 {
            hits as f64 / groups as f64
        } else {
            0.0
        },
        mean_spearman: stats::mean(&rhos),
        groups,
    }
}

/// Minimal flat-JSON reader for the ratchet baseline: `{"key": number,
/// ...}`, no nesting. Returns `None` on any malformation.
pub fn parse_baseline(text: &str) -> Option<std::collections::BTreeMap<String, f64>> {
    let t = text.trim();
    let inner = t.strip_prefix('{')?.strip_suffix('}')?;
    let mut map = std::collections::BTreeMap::new();
    for entry in inner.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (k, v) = entry.split_once(':')?;
        let key = k.trim().strip_prefix('"')?.strip_suffix('"')?.to_string();
        map.insert(key, v.trim().parse::<f64>().ok()?);
    }
    Some(map)
}

/// Locate and parse `PREDICT_baseline.json`: `$PREDICT_BASELINE` if set,
/// else the repository root relative to this crate.
pub fn load_baseline() -> Result<std::collections::BTreeMap<String, f64>, String> {
    let path = std::env::var("PREDICT_BASELINE")
        .unwrap_or_else(|_| format!("{}/../../PREDICT_baseline.json", env!("CARGO_MANIFEST_DIR")));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    parse_baseline(&text).ok_or_else(|| format!("malformed baseline {path}"))
}

/// Summary of one accuracy evaluation (also the nightly error-report
/// artifact's content, via the exported figure notes).
pub struct AccuracyReport {
    /// Per-preset worst-seed median absolute relative error.
    pub preset_mape: Vec<(String, f64)>,
    /// Per-seed overall median error (spread line).
    pub seed_medians: Vec<f64>,
    /// Overall mean error across seeds.
    pub overall_mean: f64,
    /// Ranking evaluation.
    pub rank: RankEval,
}

/// Evaluate the predictor over harvested pairs (fidelity-independent).
pub fn evaluate(pairs: &[TrainingPair]) -> AccuracyReport {
    let params = default_params();
    let mut per_preset: Vec<(String, Vec<f64>)> = Preset::clusters()
        .iter()
        .map(|p| (p.spec().name, Vec::new()))
        .collect();
    let mut seed_medians = Vec::new();
    let mut all_errors = Vec::new();
    for seed in CV_SEEDS {
        let errs = cv_combined_errors(pairs, &params, CV_FOLDS, seed);
        let mut seed_errs = Vec::with_capacity(errs.len());
        for (i, e) in errs {
            seed_errs.push(e);
            all_errors.push(e);
            let name = pairs[i].spec.preset.spec().name;
            if let Some((_, v)) = per_preset.iter_mut().find(|(n, _)| *n == name) {
                v.push(e);
            }
        }
        seed_medians.push(stats::median(&seed_errs));
    }
    // Per preset, gate the *worst* seed's median: a preset passing on one
    // lucky shuffle still fails overall.
    let preset_mape = per_preset
        .iter()
        .map(|(name, errs)| {
            let per_seed = errs.len() / CV_SEEDS.len().max(1);
            let worst = (0..CV_SEEDS.len())
                .map(|s| stats::median(&errs[s * per_seed..(s + 1) * per_seed]))
                .fold(0.0f64, f64::max);
            (name.clone(), worst)
        })
        .collect();
    AccuracyReport {
        preset_mape,
        seed_medians,
        overall_mean: stats::mean(&all_errors),
        rank: rank_eval(pairs, &default_params()),
    }
}

impl Experiment for PredictAccuracy {
    fn name(&self) -> &'static str {
        "predict_accuracy"
    }

    fn anchor(&self) -> &'static str {
        "counter-driven slowdown prediction vs ground truth (arXiv 2410.18126; spread per Hunold & Carpen-Amarie)"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        GRID.plan(fidelity)
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        GRID.run_point(point, ctx)
    }

    fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
        GRID.encode_value(value)
    }

    fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
        GRID.decode_value(bytes)
    }

    fn finalize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> Vec<FigureData> {
        let pairs = harvest::collect_pairs(points);
        let mut checks = Vec::new();
        let mut notes = Vec::new();
        let planned = GRID.specs(fidelity).len();
        checks.push(Check::new(
            "harvest complete",
            pairs.len() == planned,
            format!("{}/{} pairs", pairs.len(), planned),
        ));
        if pairs.is_empty() {
            return vec![figure(checks, notes, Vec::new())];
        }

        let report = evaluate(&pairs);
        let spread = stats::stddev(&report.seed_medians);
        notes.push(format!(
            "overall held-out median error per seed: {} (spread σ={:.4})",
            report
                .seed_medians
                .iter()
                .map(|m| format!("{:.3}", m))
                .collect::<Vec<_>>()
                .join(" / "),
            spread
        ));
        notes.push(format!(
            "mean held-out error {:.3}; rank eval: best-pick {:.0}% over {} groups, mean Spearman {:.3}",
            report.overall_mean,
            report.rank.best_pick * 100.0,
            report.rank.groups,
            report.rank.mean_spearman
        ));

        let fkey = match fidelity {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        };
        match load_baseline() {
            Err(e) => checks.push(Check::new("PREDICT_baseline.json present", false, e)),
            Ok(base) => {
                let slack = base.get("slack_mape").copied().unwrap_or(0.04);
                for (name, mape) in &report.preset_mape {
                    let key = format!("{fkey}.mape.{name}");
                    match base.get(&key) {
                        None => checks.push(Check::new(
                            format!("{name}: baseline entry {key}"),
                            false,
                            "missing from PREDICT_baseline.json",
                        )),
                        Some(b) => {
                            checks.push(Check::new(
                                format!("{name}: held-out median error ≤ 15%"),
                                *mape <= 0.15,
                                format!("worst-seed median {:.3}", mape),
                            ));
                            checks.push(Check::new(
                                format!("{name}: error ratchet"),
                                *mape <= b + slack,
                                format!("{:.3} vs baseline {:.3} + slack {:.2}", mape, b, slack),
                            ));
                        }
                    }
                }
                let rank_slack = base.get("slack_rank").copied().unwrap_or(0.05);
                let rank_base = base.get(&format!("{fkey}.best_pick")).copied();
                checks.push(Check::new(
                    "rank-placements best-pick ≥ 80%",
                    report.rank.best_pick >= 0.80,
                    format!(
                        "{:.1}% of {} held-out groups (≤{:.0}% regret)",
                        report.rank.best_pick * 100.0,
                        report.rank.groups,
                        (BEST_PICK_REGRET - 1.0) * 100.0
                    ),
                ));
                match rank_base {
                    None => checks.push(Check::new(
                        format!("baseline entry {fkey}.best_pick"),
                        false,
                        "missing from PREDICT_baseline.json",
                    )),
                    Some(b) => checks.push(Check::new(
                        "rank-placements ratchet",
                        report.rank.best_pick >= b - rank_slack,
                        format!(
                            "{:.3} vs baseline {:.3} - slack {:.2}",
                            report.rank.best_pick, b, rank_slack
                        ),
                    )),
                }
                checks.push(Check::new(
                    "held-out ranking positively correlated",
                    report.rank.mean_spearman >= 0.5,
                    format!("mean Spearman {:.3}", report.rank.mean_spearman),
                ));
            }
        }

        // Determinism gate: identical pairs → byte-identical model file
        // and bit-identical predictions.
        let params = default_params();
        let a = Advisor::train(&pairs, &params);
        let b = Advisor::train(&pairs, &params);
        let bytes_equal = a.encode() == b.encode();
        let preds_equal = pairs.iter().all(|p| {
            a.predict_combined(&p.features).to_bits() == b.predict_combined(&p.features).to_bits()
        });
        checks.push(Check::new(
            "training bit-deterministic",
            bytes_equal && preds_equal,
            format!(
                "model file {} B, re-train byte-identical; predictions bit-identical",
                a.encode().len()
            ),
        ));

        let mut series = Vec::new();
        let mut mape_series = Series::new("worst-seed median abs rel error");
        for (i, (_, m)) in report.preset_mape.iter().enumerate() {
            mape_series.push(i as f64, &[*m]);
        }
        series.push(mape_series);
        for (name, mape) in &report.preset_mape {
            notes.push(format!("{name}: worst-seed median error {:.3}", mape));
        }
        vec![figure(checks, notes, series)]
    }
}

fn figure(checks: Vec<Check>, notes: Vec<String>, series: Vec<Series>) -> FigureData {
    FigureData {
        id: "predict_accuracy",
        title: "Counter-driven interference prediction vs ground truth".into(),
        xlabel: "cluster preset (henri, bora, billy, pyxis)",
        ylabel: "held-out median absolute relative error",
        series,
        notes,
        checks,
        runs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parser_roundtrips() {
        let m = parse_baseline(
            "{\n  \"quick.mape.henri\": 0.05,\n  \"slack_mape\": 0.04,\n  \"quick.best_pick\": 1.0\n}\n",
        )
        .expect("parse");
        assert_eq!(m.len(), 3);
        assert!((m["quick.mape.henri"] - 0.05).abs() < 1e-12);
        assert!(parse_baseline("not json").is_none());
        assert!(parse_baseline("{\"a\": nope}").is_none());
    }

    #[test]
    fn rank_eval_on_planted_orderings() {
        // Synthetic pairs where the true penalty is a clean function of a
        // single feature: any family left out, the others suffice.
        let mut pairs = Vec::new();
        for family in harvest::Family::all() {
            for (pi, _) in topology::Placement::all_combinations().iter().enumerate() {
                let mut features = vec![0.0; harvest::FEATURES.len()];
                features[harvest::MEM_CHANNEL_FEATURE] = pi as f64 * 1e9;
                features[0] = family as u8 as f64;
                let penalty = 1.0 + 0.5 * pi as f64;
                pairs.push(TrainingPair {
                    spec: harvest::PairSpec {
                        preset: Preset::Henri,
                        placement: pi,
                        family,
                        cores: 6,
                        metric: interference::experiments::contention::Metric::Bandwidth,
                    },
                    features,
                    comm_penalty: penalty,
                    compute_penalty: 1.0,
                });
            }
        }
        let eval = rank_eval(&pairs, &default_params());
        assert_eq!(eval.groups, 5);
        assert!(eval.best_pick > 0.99, "best_pick {}", eval.best_pick);
        assert!(eval.mean_spearman > 0.99);
    }
}
