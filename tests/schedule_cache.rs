//! The process-wide schedule cache is a pure memo: for every algorithm at
//! several shapes, `collective::cached` returns exactly the schedule a fresh
//! build produces, and asking again returns the same shared allocation.
//! Every miss is also proved (`verify_semantics`) before it is stored, so a
//! cached schedule is as trustworthy as a rebuilt one, and a key is built
//! and counted as a miss once, however many workers race for it.

use std::sync::{Arc, Barrier, Mutex, PoisonError};

use mpisim::collective::{self, Algorithm, Schedule};

fn fresh(algorithm: Algorithm, nodes: usize, payload: usize) -> Schedule {
    match algorithm {
        Algorithm::RingAllreduce => Schedule::ring_allreduce(nodes, payload),
        Algorithm::TreeAllreduce => Schedule::tree_allreduce(nodes, payload),
        Algorithm::BinomialBcast => Schedule::binomial_bcast(nodes, payload),
        Algorithm::PairwiseAlltoall => Schedule::pairwise_alltoall(nodes, payload),
    }
}

/// The tests read the process-wide counters, so they run one at a time.
static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn cached_schedules_equal_fresh_builds_and_are_shared() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let algorithms = [
        Algorithm::RingAllreduce,
        Algorithm::TreeAllreduce,
        Algorithm::BinomialBcast,
        Algorithm::PairwiseAlltoall,
    ];
    let shapes = [(2, 64), (5, 1000), (8, 1 << 20), (64, 4096)];
    for algorithm in algorithms {
        for (nodes, payload) in shapes {
            let what = format!("{algorithm:?}, {nodes} ranks, {payload} B");
            let first = collective::cached(algorithm, nodes, payload);
            assert_eq!(*first, fresh(algorithm, nodes, payload), "{what}");
            let hits = collective::cache_stats().hits;
            let again = collective::cached(algorithm, nodes, payload);
            assert!(Arc::ptr_eq(&first, &again), "{what}: rebuilt");
            assert_eq!(
                collective::cache_stats().hits,
                hits + 1,
                "{what}: not a hit"
            );
        }
    }
}

/// Workers that ask for one fresh key at once share one build: exactly one
/// of them counts a miss, the others count hits and get the same `Arc`.
#[test]
fn racing_workers_build_a_fresh_key_once() {
    let _serial = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    const WORKERS: usize = 4;
    // A shape no other test asks for.
    let (algorithm, nodes, payload) = (Algorithm::PairwiseAlltoall, 96, 12_345);
    let before = collective::cache_stats();
    let start = Barrier::new(WORKERS);
    let got: Vec<Arc<Schedule>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    collective::cached(algorithm, nodes, payload)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .collect()
    });
    let after = collective::cache_stats();
    assert_eq!(after.misses - before.misses, 1, "built more than once");
    assert_eq!(after.hits - before.hits, WORKERS as u64 - 1);
    assert!(got.iter().all(|s| Arc::ptr_eq(s, &got[0])), "not shared");
    assert_eq!(*got[0], fresh(algorithm, nodes, payload));
}
