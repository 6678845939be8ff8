//! The process-wide schedule cache is a pure memo: for every algorithm at
//! several shapes, `collective::cached` returns exactly the schedule a fresh
//! build produces, and asking again returns the same shared allocation.
//! Every miss is also proved (`verify_semantics`) before it is stored, so a
//! cached schedule is as trustworthy as a rebuilt one.

use std::sync::Arc;

use mpisim::collective::{self, Algorithm, Schedule};

fn fresh(algorithm: Algorithm, nodes: usize, payload: usize) -> Schedule {
    match algorithm {
        Algorithm::RingAllreduce => Schedule::ring_allreduce(nodes, payload),
        Algorithm::TreeAllreduce => Schedule::tree_allreduce(nodes, payload),
        Algorithm::BinomialBcast => Schedule::binomial_bcast(nodes, payload),
        Algorithm::PairwiseAlltoall => Schedule::pairwise_alltoall(nodes, payload),
    }
}

#[test]
fn cached_schedules_equal_fresh_builds_and_are_shared() {
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
