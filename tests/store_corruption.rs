//! Tier-2 chaos: injected result-store corruption must always be detected
//! and recomputed — a corrupt entry is never served, under any fault
//! shape, and a harvest resumed over a damaged store still renders
//! byte-identical figures.

use interference::campaign::{self, CampaignOptions, Experiment, PointOutcome, StoreCtx};
use interference::experiments::harvest::{Family, Harvest, PairSpec};
use interference::experiments::Fidelity;
use interference::results::figures_to_json;
use interference::store::chaos::{corrupt_file, Fault};
use interference::store::{Lookup, ResultStore};
use topology::presets::Preset;

fn temp_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("ifchaos-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::open(dir).expect("open temp store")
}

/// The fault matrix applied in the harvest-level test below: every chaos
/// shape the injector knows, at several offsets.
fn fault_matrix() -> Vec<Fault> {
    vec![
        Fault::Truncate(0),
        Fault::Truncate(1),
        Fault::Truncate(9),
        Fault::BitFlip { offset: 0, bit: 0 },
        Fault::BitFlip { offset: 5, bit: 7 },
        Fault::BitFlip { offset: 40, bit: 3 },
        Fault::TornTail { keep: 12 },
        Fault::Zeroed { len: 64 },
    ]
}

/// Store level: a verified put/get roundtrip, then every fault shape in
/// turn — each one must quarantine, never serve, and leave the slot
/// recomputable (a fresh put works and is served again).
#[test]
fn every_fault_shape_is_detected_and_recomputable() {
    let store = temp_store("matrix");
    for (i, fault) in fault_matrix().into_iter().enumerate() {
        let key = format!("entry-{}", i);
        let payload = vec![i as u8; 48 + i];
        store.put(&key, &payload).expect("put");
        assert_eq!(store.get(&key), Lookup::Hit(payload.clone()), "pre-fault");
        corrupt_file(&store.entry_path(&key), fault);
        match store.get(&key) {
            Lookup::Hit(_) => panic!("fault {:?} was served", fault),
            Lookup::Quarantined(q) => {
                assert!(q.exists(), "quarantine file kept for post-mortem");
                assert_eq!(q.extension().unwrap(), "quarantined");
            }
            // Truncate(0) leaves an empty file — also fine if reported
            // quarantined; either way the entry must be gone below.
            Lookup::Miss => {}
        }
        // The slot is clean again: recompute (put) and serve.
        assert!(matches!(store.get(&key), Lookup::Miss), "entry cleared");
        store.put(&key, &payload).expect("re-put");
        assert_eq!(
            store.get(&key),
            Lookup::Hit(payload),
            "recomputed entry serves"
        );
    }
    assert!(store.stats().quarantined >= 6, "faults were quarantined");
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Harvest level: persist a slice of the harvest, hit every entry with a
/// fault from the matrix, resume — all damage is detected (nothing restored
/// from a corrupt entry), everything recomputes, and the figures are
/// byte-identical to a clean run.
#[test]
fn fully_corrupted_store_recomputes_to_identical_figures() {
    let exp = Harvest {
        filter: Some(|s: &PairSpec| s.preset == Preset::Henri && s.family == Family::Stream),
    };
    let opts = CampaignOptions::serial(Fidelity::Quick);
    let figures = |outcomes: &[PointOutcome]| {
        let figures = exp.finalize(Fidelity::Quick, outcomes);
        assert!(figures.iter().all(|f| f.checks.iter().all(|c| c.pass)));
        figures_to_json(&figures)
    };
    let restored = |outcomes: &[PointOutcome]| outcomes.iter().filter(|o| o.restored).count();
    let clean = figures(&campaign::run_outcomes_with_store(&exp, &opts, None));

    let store = temp_store("campaign");
    let ctx = StoreCtx {
        store: &store,
        resume: true,
    };
    campaign::run_outcomes_with_store(&exp, &opts, Some(ctx));
    let entries: Vec<_> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "res"))
        .collect();
    assert!(!entries.is_empty());
    let faults = fault_matrix();
    for (i, p) in entries.iter().enumerate() {
        corrupt_file(p, faults[i % faults.len()]);
    }

    let outcomes = campaign::run_outcomes_with_store(&exp, &opts, Some(ctx));
    assert_eq!(restored(&outcomes), 0, "no corrupt entry was served");
    assert!(outcomes.iter().all(|o| o.value.is_some()));
    assert_eq!(
        clean,
        figures(&outcomes),
        "figures diverged after store corruption"
    );

    // The recomputed entries are durable again: a further resume restores.
    let outcomes = campaign::run_outcomes_with_store(&exp, &opts, Some(ctx));
    assert_eq!(restored(&outcomes), outcomes.len());
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Torn temp files from a killed writer are reaped on open and never
/// surface as entries.
#[test]
fn orphaned_temp_files_are_reaped_on_open() {
    let store = temp_store("orphans");
    store.put("alive", b"payload").expect("put");
    let orphan = store.dir().join(".deadbeef.res.tmp-999-7");
    std::fs::write(&orphan, b"torn half-write").expect("plant orphan");
    let dir = store.dir().to_path_buf();
    drop(store);
    let store = ResultStore::open(&dir).expect("reopen");
    assert!(!orphan.exists(), "orphan temp file reaped on open");
    assert_eq!(store.get("alive"), Lookup::Hit(b"payload".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}
