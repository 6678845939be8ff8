//! Tier-2: durability of campaign results. Every registry experiment's
//! value codec must roundtrip exactly (bit-for-bit — resume byte-identity
//! rests on it), and a store-backed resumed campaign must render figures
//! byte-identical to an uninterrupted run at any worker count.

use interference::campaign::{self, CampaignOptions, StoreCtx};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use interference::store::ResultStore;

/// A fresh store under a unique temp dir (tests run concurrently).
fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("ifstore-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::open(dir).expect("open temp store")
}

/// Every registered experiment must be durable: each computed point value
/// encodes, decodes, and re-encodes to identical bytes. A lossy codec
/// would silently break resume byte-identity, so this is an exact check
/// over the real Quick sweep values of all 17 registry experiments.
#[test]
fn every_registry_experiment_value_roundtrips_exactly() {
    for exp in experiments::all_experiments() {
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let outcomes = campaign::run_outcomes_with_store(exp, &opts, None);
        let mut encoded = 0usize;
        for o in &outcomes {
            let Some(value) = &o.value else { continue };
            let bytes = exp
                .encode_value(value)
                .unwrap_or_else(|| panic!("{}: point {} value not encodable", exp.name(), o.index));
            let decoded = exp
                .decode_value(&bytes)
                .unwrap_or_else(|| panic!("{}: point {} bytes not decodable", exp.name(), o.index));
            let bytes2 = exp
                .decode_value(&bytes)
                .and_then(|v| exp.encode_value(&v))
                .unwrap_or_else(|| panic!("{}: point {} re-encode failed", exp.name(), o.index));
            assert_eq!(
                bytes,
                bytes2,
                "{}: point {} codec is not bit-exact",
                exp.name(),
                o.index
            );
            // The decoded value must itself be encodable (same payload).
            assert_eq!(exp.encode_value(&decoded).unwrap(), bytes);
            encoded += 1;
        }
        assert!(
            encoded > 0,
            "{}: no point value was durable — resume would recompute everything",
            exp.name()
        );
        // Truncated payloads must decode to None, never panic or misparse.
        if let Some(o) = outcomes.iter().find(|o| o.value.is_some()) {
            let bytes = exp.encode_value(o.value.as_ref().unwrap()).unwrap();
            for cut in [0, 1, bytes.len() / 2, bytes.len().saturating_sub(1)] {
                if cut < bytes.len() {
                    assert!(
                        exp.decode_value(&bytes[..cut]).is_none(),
                        "{}: truncated payload ({} of {} bytes) decoded",
                        exp.name(),
                        cut,
                        bytes.len()
                    );
                }
            }
        }
    }
}

/// Interrupt-and-resume, in process: persist a full campaign, delete some
/// entries (the points a crash would have lost), then resume at a
/// different worker count — the rendered figures must be byte-identical
/// to an uninterrupted run, with the surviving entries restored.
#[test]
fn resumed_campaign_is_byte_identical_across_jobs() {
    let exps: Vec<_> = ["fig4", "fig9"]
        .iter()
        .map(|n| experiments::find(n).expect("registered"))
        .collect();
    let clean = figures_to_json(
        &campaign::run_set(&exps, &CampaignOptions::serial(Fidelity::Quick))
            .iter()
            .flat_map(|r| r.figures.clone())
            .collect::<Vec<_>>(),
    );

    let store = temp_store("resume-jobs");
    let ctx = StoreCtx {
        store: &store,
        resume: true,
    };
    let opts = CampaignOptions::serial(Fidelity::Quick);
    let (runs, _) = campaign::run_set_with_store(&exps, &opts, Some(ctx));
    let total_points: usize = runs.iter().map(|r| r.points).sum();
    assert_eq!(store.stats().persisted as usize, total_points);

    // A crash loses the in-flight tail: drop the last few entries.
    let mut entries: Vec<_> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "res"))
        .collect();
    entries.sort();
    let lost = entries.len() / 3;
    for p in entries.iter().take(lost) {
        std::fs::remove_file(p).expect("drop entry");
    }

    // Resume in parallel: restored + recomputed points must finalize to
    // the same bytes as the clean serial run.
    let popts = CampaignOptions::new(Fidelity::Quick, 4);
    let (runs2, _) = campaign::run_set_with_store(&exps, &popts, Some(ctx));
    let restored: usize = runs2.iter().map(|r| r.restored_points).sum();
    assert_eq!(restored, total_points - lost);
    let resumed = figures_to_json(
        &runs2
            .iter()
            .flat_map(|r| r.figures.clone())
            .collect::<Vec<_>>(),
    );
    assert_eq!(clean, resumed, "resumed figures differ from a clean run");
    let _ = std::fs::remove_dir_all(store.dir());
}
