//! Tier-2: durability of the harvest cache (`repro predict` /
//! `rank-placements --store`). The harvest's value codec must roundtrip
//! exactly (bit-for-bit — resume byte-identity rests on it), and a
//! store-backed harvest resumed after losing entries must produce the same
//! pairs as an uninterrupted run at any worker count.

use interference::campaign::{self, CampaignOptions, Experiment, PointOutcome, StoreCtx};
use interference::experiments::harvest::{self, Harvest, PairSpec};
use interference::experiments::Fidelity;
use interference::store::ResultStore;
use predict::accuracy::ACCURACY_EXPERIMENT;
use topology::presets::Preset;

/// A fresh store under a unique temp dir (tests run concurrently).
fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("ifstore-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::open(dir).expect("open temp store")
}

/// One preset's slice of the Quick harvest grid: 80 real pairs.
fn henri_only() -> Harvest {
    Harvest {
        filter: Some(|s: &PairSpec| s.preset == Preset::Henri),
    }
}

/// Every harvested pair, encoded, in plan order.
fn encoded_pairs(outcomes: &[PointOutcome]) -> Vec<Vec<u8>> {
    harvest::collect_pairs(outcomes)
        .iter()
        .map(|p| p.encode())
        .collect()
}

/// Each harvested value encodes, decodes and re-encodes to identical
/// bytes, and the accuracy campaign encodes it the same way. A lossy codec
/// would silently break resume byte-identity, so this is an exact check
/// over real Quick harvest values. Every truncation and a trailing byte
/// decode to `None`, never panic or misparse.
#[test]
fn harvest_values_roundtrip_exactly() {
    let exp = henri_only();
    let outcomes =
        campaign::run_outcomes_with_store(&exp, &CampaignOptions::serial(Fidelity::Quick), None);
    assert_eq!(outcomes.len(), 80);
    for o in &outcomes {
        let value = o.value.as_ref().expect("every harvest point completes");
        let bytes = exp
            .encode_value(value)
            .unwrap_or_else(|| panic!("point {} value not encodable", o.index));
        assert_eq!(ACCURACY_EXPERIMENT.encode_value(value), Some(bytes.clone()));
        let decoded = exp
            .decode_value(&bytes)
            .unwrap_or_else(|| panic!("point {} bytes not decodable", o.index));
        assert_eq!(
            exp.encode_value(&decoded),
            Some(bytes.clone()),
            "point {} codec is not bit-exact",
            o.index
        );
        for cut in 0..bytes.len() {
            assert!(
                exp.decode_value(&bytes[..cut]).is_none(),
                "point {}: truncated payload ({} of {} bytes) decoded",
                o.index,
                cut,
                bytes.len()
            );
        }
        let mut tail = bytes;
        tail.push(0);
        assert!(exp.decode_value(&tail).is_none(), "point {}", o.index);
    }
}

/// Interrupt-and-resume, in process: persist a harvest, delete a third of
/// its entries (the points a crash would have lost), then resume at a
/// different worker count — the pairs must be byte-identical to an
/// uninterrupted run, with the surviving entries restored.
#[test]
fn resumed_campaign_is_byte_identical_across_jobs() {
    let exp = henri_only();
    let serial = CampaignOptions::serial(Fidelity::Quick);
    let clean = encoded_pairs(&campaign::run_outcomes_with_store(&exp, &serial, None));

    let store = temp_store("resume-jobs");
    let ctx = StoreCtx {
        store: &store,
        resume: true,
    };
    let first = campaign::run_outcomes_with_store(&exp, &serial, Some(ctx));
    assert_eq!(store.stats().persisted as usize, first.len());

    // A crash loses the in-flight tail: drop a third of the entries.
    let mut entries: Vec<_> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "res"))
        .collect();
    entries.sort();
    let lost = entries.len() / 3;
    assert!(lost > 0, "harvest too small to lose a tail");
    for p in entries.iter().take(lost) {
        std::fs::remove_file(p).expect("drop entry");
    }

    // Resume in parallel: restored + recomputed points must give the same
    // pairs as the clean serial run.
    let resumed = campaign::run_outcomes_with_store(
        &exp,
        &CampaignOptions::new(Fidelity::Quick, 4),
        Some(ctx),
    );
    let restored = resumed.iter().filter(|o| o.restored).count();
    assert_eq!(restored, first.len() - lost);
    assert_eq!(
        encoded_pairs(&resumed),
        clean,
        "resumed harvest differs from a clean run"
    );
    let _ = std::fs::remove_dir_all(store.dir());
}
