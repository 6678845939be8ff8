//! `Schedule::verify_semantics` against a naive prover.
//!
//! The production prover takes one chunk at a time, in one reused buffer
//! of rank bitmasks. The naive prover written here keeps one
//! `BTreeSet<usize>` of contributions per (rank, chunk), applies the rounds
//! in order, and takes every read of a round before any write. Both must
//! accept exactly the same schedules: every builder at 2–40 ranks, also
//! after a rank permutation; those schedules with one mutation each (a
//! message dropped, copied into a later round, moved a round earlier,
//! retargeted, its `combine` flipped or its chunk changed, within and
//! beyond the op's chunk count); and a hand-built round holding a
//! same-chunk chain, where reading post-round state would prove a schedule
//! that does not compute its collective. Case count honours
//! `PROPTEST_CASES` (CI runs 512).

use std::collections::{BTreeMap, BTreeSet};

use mpisim::collective::{CollectiveOp, Schedule, ScheduleMsg};
use proptest::prelude::*;
use simcore::Pcg32;

/// The naive prover: whether `s` computes its collective.
fn naive_proves(s: &Schedule) -> bool {
    let n = s.nodes;
    let chunks = op_chunks(s);
    let seeds: Vec<(usize, u32)> = match s.op {
        CollectiveOp::Allreduce { .. } => (0..n)
            .flat_map(|r| (0..chunks).map(move |c| (r, c)))
            .collect(),
        CollectiveOp::Bcast { root } => vec![(root, 0)],
        CollectiveOp::Alltoall => (0..n).map(|r| (r, r as u32)).collect(),
    };
    // held[(rank, chunk)]: the original ranks merged into rank's copy.
    let mut held: BTreeMap<(usize, u32), BTreeSet<usize>> = BTreeMap::new();
    for &(rank, chunk) in &seeds {
        held.insert((rank, chunk), BTreeSet::from([rank]));
    }
    for round in &s.rounds {
        let mut reads = Vec::new();
        for m in round {
            let (src, dst) = (m.src as usize, m.dst as usize);
            if src >= n || dst >= n || src == dst {
                return false;
            }
            match held.get(&(src, m.chunk)) {
                Some(set) if !set.is_empty() => reads.push(set.clone()),
                _ => return false,
            }
        }
        for (m, set) in round.iter().zip(reads) {
            let dst = held.entry((m.dst as usize, m.chunk)).or_default();
            if m.combine {
                dst.extend(set);
            } else {
                *dst = set;
            }
        }
    }
    (0..n).all(|rank| {
        (0..chunks).all(|c| {
            let want: BTreeSet<usize> = match s.op {
                CollectiveOp::Allreduce { .. } => (0..n).collect(),
                CollectiveOp::Bcast { root } => BTreeSet::from([root]),
                CollectiveOp::Alltoall => BTreeSet::from([c as usize]),
            };
            held.get(&(rank, c)) == Some(&want)
        })
    })
}

fn build(alg: usize, nodes: usize) -> Schedule {
    match alg {
        0 => Schedule::ring_allreduce(nodes, 4096),
        1 => Schedule::tree_allreduce(nodes, 4096),
        2 => Schedule::binomial_bcast(nodes, 4096),
        _ => Schedule::pairwise_alltoall(nodes, 4096),
    }
}

/// A random permutation of `0..n`.
fn permutation(n: usize, rng: &mut Pcg32) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    perm
}

/// The chunks `s.op` must deliver.
fn op_chunks(s: &Schedule) -> u32 {
    match s.op {
        CollectiveOp::Allreduce { chunks } => chunks,
        CollectiveOp::Bcast { .. } => 1,
        CollectiveOp::Alltoall => s.nodes as u32,
    }
}

/// Apply mutation `kind` (0 leaves `s` alone) to a message `rng` picks.
fn mutate(s: &mut Schedule, kind: usize, rng: &mut Pcg32) {
    let chunks = op_chunks(s);
    let mut pick = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    let ri = pick(s.rounds.len());
    let mi = pick(s.rounds[ri].len());
    let (later, dst) = (pick(s.rounds.len()), pick(s.nodes) as u32);
    let (within, beyond) = (pick(chunks as usize) as u32, chunks + pick(4) as u32);
    let rounds = &mut s.rounds;
    if rounds[ri].is_empty() {
        return;
    }
    match kind {
        1 => {
            rounds[ri].remove(mi);
        }
        2 if ri + 1 < rounds.len() => {
            let m = rounds[ri][mi];
            let to = ri + 1 + later % (rounds.len() - ri - 1);
            rounds[to].push(m);
        }
        3 if ri > 0 => {
            let m = rounds[ri].remove(mi);
            rounds[ri - 1].push(m);
        }
        4 => rounds[ri][mi].dst = dst,
        5 => rounds[ri][mi].combine ^= true,
        6 => rounds[ri][mi].chunk = within,
        7 => rounds[ri][mi].chunk = beyond,
        _ => {}
    }
}

fn msg(src: u32, dst: u32, combine: bool) -> ScheduleMsg {
    ScheduleMsg {
        src,
        dst,
        chunk: 0,
        combine,
    }
}

#[test]
fn every_builder_proves_under_both_provers() {
    let mut rng = Pcg32::new(27, 1);
    for nodes in 2..=40 {
        for alg in 0..4 {
            let s = build(alg, nodes);
            let p = s.permute_ranks(&permutation(nodes, &mut rng));
            for s in [s, p] {
                assert!(naive_proves(&s), "alg {alg} n={nodes}: naive prover");
                let proved = s.verify_semantics();
                assert!(proved.is_ok(), "alg {alg} n={nodes}: {proved:?}");
            }
        }
    }
}

/// Round 0 chains 0 → 1 → 2 on one chunk. Rank 2 gets rank 1's pre-round
/// copy, {1}, so after the gather of round 1 ranks 0 and 1 hold {1, 2}
/// and the allreduce fails. A prover that read post-round state would see
/// {0, 1, 2} everywhere and prove it.
#[test]
fn same_chunk_chain_reads_pre_round_state() {
    let chain = |first: [ScheduleMsg; 2]| Schedule {
        op: CollectiveOp::Allreduce { chunks: 1 },
        nodes: 3,
        payload: 64,
        rounds: vec![first.to_vec(), vec![msg(2, 0, false), msg(2, 1, false)]],
    };
    let (a, b) = (msg(0, 1, true), msg(1, 2, true));
    for s in [chain([a, b]), chain([b, a])] {
        assert!(!naive_proves(&s));
        let err = s.verify_semantics().expect_err("pre-round reads");
        assert!(
            err.starts_with("rank 0 chunk 0 is not fully reduced"),
            "{err}"
        );
    }
    // The same chain over two rounds does compute the allreduce.
    let mut s = chain([a, b]);
    let second = s.rounds[0].pop().expect("two messages");
    s.rounds.insert(1, vec![second]);
    assert!(naive_proves(&s));
    assert_eq!(s.verify_semantics(), Ok(()));
}

proptest! {
    #[test]
    fn chunk_proof_agrees_with_naive_prover(
        alg in 0usize..4,
        nodes in 2usize..41,
        permute in any::<bool>(),
        kind in 0usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = Pcg32::new(seed, 7);
        let mut s = build(alg, nodes);
        if permute {
            s = s.permute_ranks(&permutation(nodes, &mut rng));
        }
        mutate(&mut s, kind, &mut rng);
        let naive = naive_proves(&s);
        let proved = s.verify_semantics();
        prop_assert_eq!(
            proved.is_ok(),
            naive,
            "alg {} n={} permuted {} mutation {}: {:?}",
            alg,
            nodes,
            permute,
            kind,
            proved
        );
    }
}
