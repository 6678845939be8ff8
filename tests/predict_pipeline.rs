//! Tier-2: the counter-driven interference predictor end to end.
//!
//! The pipeline (harvest -> train -> predict) must be bit-deterministic at
//! any worker count, durable through the result store, and must actually
//! generalise: a model that never saw a workload family must still rank
//! placements for it well enough to pick a near-optimal one.

use interference::campaign::{run_outcomes_with_store, CampaignOptions, StoreCtx};
use interference::experiments::harvest::{self, Family, Harvest, PairSpec};
use interference::experiments::{self, Fidelity};
use interference::store::ResultStore;
use predict::accuracy::{self, BEST_PICK_REGRET};
use predict::advisor::{default_params, Advisor};
use topology::presets::Preset;

/// A fresh store under a unique temp dir (tests run concurrently).
fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("predict-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::open(dir).expect("open temp store")
}

/// One preset's slice of the harvest grid — enough rows to train on, cheap
/// enough to run several times in one test.
fn henri_only() -> Harvest {
    Harvest {
        filter: Some(|s: &PairSpec| s.preset == Preset::Henri),
    }
}

fn harvest_pairs(exp: &Harvest, jobs: usize) -> Vec<harvest::TrainingPair> {
    let mut opts = CampaignOptions::serial(Fidelity::Quick);
    opts.jobs = jobs;
    let outcomes = run_outcomes_with_store(exp, &opts, None);
    assert!(
        outcomes.iter().all(|o| o.value.is_some()),
        "harvest must complete every grid point"
    );
    harvest::collect_pairs(&outcomes)
}

/// FNV-1a, 64-bit: a short, stable digest of model bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn encode_pairs(pairs: &[harvest::TrainingPair]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for p in pairs {
        bytes.extend_from_slice(&p.encode());
    }
    bytes
}

/// Harvested training pairs are a pure function of the grid: a serial run
/// and a 4-worker run must produce byte-identical encoded pairs, in the
/// same order. Worker scheduling must not leak into features or targets.
#[test]
fn harvest_is_byte_identical_across_worker_counts() {
    let exp = henri_only();
    let serial = harvest_pairs(&exp, 1);
    let parallel = harvest_pairs(&exp, 4);
    assert!(!serial.is_empty());
    assert_eq!(serial.len(), parallel.len());
    assert_eq!(
        encode_pairs(&serial),
        encode_pairs(&parallel),
        "harvest output depends on worker count"
    );
}

/// Training is bit-deterministic: two trainings on the same pairs encode
/// to identical model bytes, and the models predict bit-identical values
/// on every training row.
#[test]
fn training_is_byte_identical_across_runs() {
    let pairs = harvest_pairs(&henri_only(), 4);
    let params = default_params();
    let a = Advisor::train(&pairs, &params);
    let b = Advisor::train(&pairs, &params);
    assert_eq!(
        a.encode(),
        b.encode(),
        "model bytes differ between trainings"
    );
    for p in &pairs {
        let pa = a.predict_features(&p.features);
        let pb = b.predict_features(&p.features);
        assert_eq!(pa.0.to_bits(), pb.0.to_bits());
        assert_eq!(pa.1.to_bits(), pb.1.to_bits());
    }
}

/// The advisor codec roundtrips: decode(encode(model)) predicts
/// bit-identically to the original.
#[test]
fn advisor_codec_preserves_predictions() {
    let pairs = harvest_pairs(&henri_only(), 4);
    let advisor = Advisor::train(&pairs, &default_params());
    let decoded = Advisor::decode(&advisor.encode()).expect("decode trained advisor");
    for p in &pairs {
        let a = advisor.predict_combined(&p.features);
        let b = decoded.predict_combined(&p.features);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// A store-backed harvest resumed from a prior partial run must reproduce
/// the uninterrupted pairs byte-for-byte. Durability is what makes the
/// Full-fidelity harvest practical: a crashed campaign resumes instead of
/// re-measuring hundreds of co-location pairs.
#[test]
fn harvest_resumes_byte_identical_from_store() {
    let exp = henri_only();
    let fresh = harvest_pairs(&exp, 2);

    let store = temp_store("harvest-resume");
    let mut opts = CampaignOptions::serial(Fidelity::Quick);
    opts.jobs = 2;
    let ctx = StoreCtx {
        store: &store,
        resume: true,
    };
    let first = run_outcomes_with_store(&exp, &opts, Some(ctx));
    assert!(first.iter().all(|o| o.value.is_some()));
    // Second pass serves every point from the store instead of recomputing.
    let resumed = run_outcomes_with_store(&exp, &opts, Some(ctx));
    assert_eq!(
        encode_pairs(&harvest::collect_pairs(&resumed)),
        encode_pairs(&fresh),
        "store-restored harvest differs from a fresh run"
    );
}

/// Leave-one-workload-out generalisation (the placement-advisor use case):
/// for each family, train on the other four and rank the four placements
/// of every held-out (preset, cores, metric) group. The predicted-best
/// placement must be within 5% regret of the ground-truth best in at
/// least 80% of groups, and predicted orderings must correlate with the
/// truth on average. The same harvest pins the bytes of the advisor
/// trained on the whole grid.
#[test]
fn leave_one_workload_out_ranking_generalises() {
    let mut opts = CampaignOptions::serial(Fidelity::Quick);
    opts.jobs = 4; // full grid; order (and thus bytes) is jobs-independent
    let outcomes = run_outcomes_with_store(experiments::HARVEST_EXPERIMENT, &opts, None);
    let pairs = harvest::collect_pairs(&outcomes);
    assert!(pairs.len() >= 4 * Family::all().len(), "grid too small");

    // Model-bytes pin: the advisor trained on the whole grid. A change to
    // the harvest, the features or the learner's arithmetic moves these
    // bytes; a change that only makes training faster must not.
    let model = Advisor::train(&pairs, &default_params()).encode();
    let digest = format!("{:016x}", fnv1a64(&model));
    assert_eq!(
        (pairs.len(), model.len(), digest.as_str()),
        (320, 15_292, "ab74fbc0e6eb19e1"),
        "(pairs, model bytes, FNV-1a-64) of the full-grid advisor moved"
    );

    let eval = accuracy::rank_eval(&pairs, &default_params());
    assert!(
        eval.groups >= 40,
        "too few held-out groups: {}",
        eval.groups
    );
    assert!(
        eval.best_pick >= 0.80,
        "held-out best-placement pick rate {:.3} < 0.80 (regret bound {})",
        eval.best_pick,
        BEST_PICK_REGRET
    );
    assert!(
        eval.mean_spearman >= 0.5,
        "mean rank correlation {:.3} < 0.5",
        eval.mean_spearman
    );
}
