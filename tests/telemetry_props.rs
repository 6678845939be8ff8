//! Property tests for the telemetry layer: structural invariants of
//! journals recorded from real (optionally fault-injected) simulations,
//! histogram quantile behaviour, and byte-level reproducibility.

use std::collections::HashMap;

use freq::{Governor, UncorePolicy};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use proptest::prelude::*;
use simcore::telemetry::{self, Journal, RecordKind};
use simcore::{quantile, FaultPlan, SimTime};
use topology::{henri, BindingPolicy, Placement};

/// Record `f` on a fresh thread (fresh thread-local recorder, immune to
/// state leaked by other tests or earlier proptest cases).
fn record<T: Send>(f: impl FnOnce() -> T + Send) -> (T, Journal) {
    std::thread::scope(|s| {
        s.spawn(|| {
            telemetry::install();
            let v = f();
            (v, telemetry::take().expect("recorder installed"))
        })
        .join()
        .expect("recording thread")
    })
}

/// Run a faulty rendezvous ping-pong and return its journal (None when the
/// fault plan made the run exceed its time budget — still a valid outcome).
fn faulty_pingpong(seed: u64, drop_cts: f64, drop_rts: f64, size: usize) -> Option<Journal> {
    let (res, journal) = record(|| {
        let mut c = Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            },
        );
        c.apply_faults(
            &FaultPlan::new(seed)
                .with_cts_drop(drop_cts)
                .with_rts_drop(drop_rts),
        )
        .expect("valid plan");
        c.set_time_budget(Some(SimTime::SEC * 5));
        let res = pingpong::try_run(
            &mut c,
            PingPongConfig {
                size,
                reps: 2,
                warmup: 0,
                mtag: 0x11,
            },
        );
        drop(c);
        res
    });
    res.ok().map(|_| journal)
}

/// Structural invariants every journal must satisfy, regardless of what
/// was simulated:
/// - sync spans obey stack discipline per lane and all close;
/// - async spans pair Begin/End on the `(cat, id)` key;
/// - counter snapshots are monotone per name and the last snapshot equals
///   the journal's final cumulative value;
/// - no record sits past `end_time()`.
fn assert_journal_invariants(j: &Journal) {
    let mut stacks: HashMap<String, Vec<&'static str>> = HashMap::new();
    let mut open_async: HashMap<(&'static str, u64), u32> = HashMap::new();
    let mut last_counter: HashMap<&'static str, u64> = HashMap::new();
    let end = j.end_time();
    for r in &j.records {
        assert!(r.t <= end, "record at {:?} past end_time {:?}", r.t, end);
        match &r.kind {
            RecordKind::Begin { cat, lane, .. } => {
                stacks.entry(lane.to_string()).or_default().push(cat);
            }
            RecordKind::End { cat, lane } => {
                let top = stacks.get_mut(&lane.to_string()).and_then(|s| s.pop());
                assert_eq!(top, Some(*cat), "End without matching Begin on {}", lane);
            }
            RecordKind::AsyncBegin { cat, id, .. } => {
                *open_async.entry((cat, *id)).or_insert(0) += 1;
            }
            RecordKind::AsyncEnd { cat, id, .. } => {
                let open = open_async
                    .get_mut(&(*cat, *id))
                    .unwrap_or_else(|| panic!("async end without begin: {} #{}", cat, id));
                assert!(*open > 0, "async span {} #{} closed twice", cat, id);
                *open -= 1;
            }
            RecordKind::Counter { name, value } => {
                if let Some(prev) = last_counter.insert(name, *value) {
                    assert!(
                        *value >= prev,
                        "counter {} regressed: {} -> {}",
                        name,
                        prev,
                        value
                    );
                }
            }
            RecordKind::Complete { .. } | RecordKind::Instant { .. } | RecordKind::Mark { .. } => {}
        }
    }
    for (lane, stack) in &stacks {
        assert!(
            stack.is_empty(),
            "unclosed sync span(s) on {}: {:?}",
            lane,
            stack
        );
    }
    for ((cat, id), open) in &open_async {
        assert_eq!(*open, 0, "unclosed async span {} #{}", cat, id);
    }
    for (name, last) in &last_counter {
        assert_eq!(
            j.counters.get(name),
            Some(last),
            "final snapshot of {} disagrees with cumulative map",
            name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Journals of fault-injected rendezvous runs keep every structural
    /// invariant: spans nest, async pairs match, counters are monotone.
    #[test]
    fn faulty_run_journal_is_well_formed(
        seed in 0u64..1_000_000,
        drop_cts in 0.0f64..0.5,
        drop_rts in 0.0f64..0.3,
    ) {
        if let Some(j) = faulty_pingpong(seed, drop_cts, drop_rts, 1 << 20) {
            prop_assert!(!j.is_empty());
            assert_journal_invariants(&j);
            // A rendezvous transfer ran, so the wire protocol must appear.
            prop_assert!(j.counters.contains_key("engine.events"));
            prop_assert!(j.categories().contains(&"net.xfer"));
        }
    }

    /// Two recordings of the same seeded configuration are byte-identical —
    /// the journal is a pure function of (topology, config, fault seed).
    #[test]
    fn same_seed_journals_are_byte_identical(
        seed in 0u64..1_000_000,
        drop_cts in 0.0f64..0.4,
    ) {
        let a = faulty_pingpong(seed, drop_cts, 0.1, 256 << 10);
        let b = faulty_pingpong(seed, drop_cts, 0.1, 256 << 10);
        match (a, b) {
            (Some(a), Some(b)) => prop_assert_eq!(a.to_text(), b.to_text()),
            (None, None) => {}
            _ => prop_assert!(false, "one run timed out, the other did not"),
        }
    }

    /// `quantile` against a sorted reference: endpoints are min/max, the
    /// result is bounded by its bracketing order statistics, and the
    /// function is monotone in `q`.
    #[test]
    fn quantile_matches_sorted_reference(
        v in prop::collection::vec(-1e6f64..1e6, 1..64),
        q in 0.0f64..=1.0,
    ) {
        let mut sorted = v.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        prop_assert_eq!(quantile(&sorted, 0.0), sorted[0]);
        prop_assert_eq!(quantile(&sorted, 1.0), sorted[n - 1]);
        // Linear interpolation between the bracketing order statistics.
        let h = q * (n as f64 - 1.0);
        let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
        let x = quantile(&sorted, q);
        prop_assert!(x >= sorted[lo] - 1e-9 && x <= sorted[hi] + 1e-9,
            "quantile({}) = {} outside [{}, {}]", q, x, sorted[lo], sorted[hi]);
        // Monotonicity over a q-grid.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let qi = i as f64 / 10.0;
            let xi = quantile(&sorted, qi);
            prop_assert!(xi >= prev, "quantile not monotone at q={}", qi);
            prev = xi;
        }
    }

    /// Histogram text lines in `to_text` agree with `quantile` applied to
    /// the sorted samples — the journal's rollup is not a second
    /// implementation that can drift.
    #[test]
    fn journal_histogram_rollup_matches_quantile(
        samples in prop::collection::vec(0.0f64..1e3, 1..32),
    ) {
        let (_, j) = record(|| {
            for s in &samples {
                telemetry::sample("prop.lat_us", *s);
            }
        });
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected = format!(
            "hist prop.lat_us n={} p0={:?} p10={:?} p50={:?} p90={:?} p100={:?}",
            sorted.len(),
            quantile(&sorted, 0.0),
            quantile(&sorted, 0.1),
            quantile(&sorted, 0.5),
            quantile(&sorted, 0.9),
            quantile(&sorted, 1.0),
        );
        let text = j.to_text();
        prop_assert!(text.contains(&expected), "rollup drifted:\n{}\nwanted {}", text, expected);
    }
}
