//! Collective-layer validation: closed-form oracles on the fabric presets,
//! metamorphic invariants over random collective schedules, and differential
//! fuzzing of the concurrent round executor against a naive sequential
//! reference.
//!
//! The key structural fact (DESIGN.md §14): on all three fabric presets the
//! logical-ring neighbour traffic of the ring allreduce is **link-disjoint**
//! — every message of a round crosses its own links, NICs and memory
//! controllers — so each round completes in exactly the solo point-to-point
//! time of its chunk and the whole collective has a closed form built from
//! the §11 eager/rendezvous formulas:
//!
//! ```text
//! T_ring(n, s) = 2(n−1) · t(⌈s/n⌉)        (round 0 pays registration when
//!                                          the chunk is rendezvous-sized)
//! T_bcast(n, s) = ⌈log₂ n⌉ · t_eager(s)   (exact on the non-blocking
//!                                          switch; a lower bound on torus /
//!                                          dragonfly where rounds share
//!                                          links)
//! T_a2a(n, s)  = (n−1) · t_eager(s)       (exact on the switch; on routed
//!                                          fabrics the busiest-link byte
//!                                          count divided by link capacity
//!                                          is a bisection-style lower
//!                                          bound)
//! ```
//!
//! The invariants and the fuzzer run on the cheap `tiny2x2` machine; the
//! oracles run on `henri`, the paper's reference cluster.

use freq::{Governor, UncorePolicy};
use mpisim::collective::{self, Schedule};
use mpisim::Cluster;
use simcore::{Pcg32, SimTime, SplitMix64};
use topology::fabric::FabricPreset;
use topology::{henri, tiny2x2, BindingPolicy, MachineSpec, Placement};

use crate::oracles::{expected_eager_s, expected_rendezvous_s, TOL_TIME};
use crate::Outcome;

/// Rank count the collective oracles run at (large enough for non-trivial
/// trees and rings, small enough to stay fast on the henri machine model).
pub const ORACLE_NODES: usize = 8;

/// Absolute slack (seconds) absorbing the engine's picosecond quantisation
/// across a collective's event edges.
const SLACK_S: f64 = 1e-9;

/// The three collective oracle families, run per fabric preset.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectiveOracle {
    /// Ring allreduce matches `2(n−1)·t(⌈s/n⌉)` exactly (link-disjoint
    /// rounds on every preset), eager and rendezvous chunk sizes both.
    RingAllreduce,
    /// Binomial bcast matches `⌈log₂n⌉·t_eager(s)` exactly on the switch
    /// and is confined between that and the sequential sum elsewhere.
    TreeBcast,
    /// Pairwise alltoall matches `(n−1)·t_eager(s)` exactly on the switch
    /// and respects the busiest-link (bisection-style) lower bound
    /// elsewhere.
    AlltoallBound,
}

impl CollectiveOracle {
    /// Every collective oracle family, in display order.
    pub const ALL: [CollectiveOracle; 3] = [
        CollectiveOracle::RingAllreduce,
        CollectiveOracle::TreeBcast,
        CollectiveOracle::AlltoallBound,
    ];

    /// Stable name used in check labels.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveOracle::RingAllreduce => "ring_allreduce",
            CollectiveOracle::TreeBcast => "tree_bcast",
            CollectiveOracle::AlltoallBound => "alltoall_bound",
        }
    }

    /// Run this family on `fabric` at [`ORACLE_NODES`] henri ranks.
    pub fn run(self, fabric: FabricPreset) -> Vec<Outcome> {
        let spec = henri();
        match self {
            CollectiveOracle::RingAllreduce => ring_allreduce_oracle(&spec, fabric),
            CollectiveOracle::TreeBcast => tree_bcast_oracle(&spec, fabric),
            CollectiveOracle::AlltoallBound => alltoall_oracle(&spec, fabric),
        }
    }
}

// ---------------------------------------------------------------------------
// Closed forms and measurement.

/// Solo point-to-point time for one `size`-byte message under the pinned
/// oracle policies (§11 closed forms; protocol chosen by the threshold).
fn solo_msg_s(spec: &MachineSpec, size: usize, cold: bool) -> f64 {
    if size <= spec.network.eager_threshold {
        expected_eager_s(spec, size)
    } else {
        expected_rendezvous_s(spec, size, cold)
    }
}

/// Closed-form ring allreduce: `2(n−1)` link-disjoint rounds of
/// `⌈payload/n⌉`-byte chunks; the first round pays registration when the
/// chunk goes rendezvous.
pub fn expected_ring_allreduce_s(spec: &MachineSpec, nodes: usize, payload: usize) -> f64 {
    let chunk = payload.div_ceil(nodes);
    let rounds = 2 * (nodes - 1);
    solo_msg_s(spec, chunk, true) + (rounds - 1) as f64 * solo_msg_s(spec, chunk, false)
}

/// Build the measurement cluster: `nodes` ranks of `spec` over the preset
/// fabric, pinned exactly like the point-to-point oracle world
/// (communication thread and payload buffers on the NIC NUMA node, base
/// core frequency, uncore at its maximum, no jitter, no faults).
fn oracle_cluster(spec: &MachineSpec, fabric: FabricPreset, nodes: usize) -> Cluster {
    Cluster::with_fabric(
        spec,
        fabric.spec(nodes).build_for(nodes),
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    )
}

/// Run `schedule` on a fresh oracle cluster; seconds of simulated time.
fn measured_collective_s(spec: &MachineSpec, fabric: FabricPreset, schedule: &Schedule) -> f64 {
    let mut c = oracle_cluster(spec, fabric, schedule.nodes);
    collective::run(&mut c, schedule, 1000, 0x5000)
        .expect("oracle collective completes")
        .as_secs_f64()
}

fn ring_allreduce_oracle(spec: &MachineSpec, fabric: FabricPreset) -> Vec<Outcome> {
    let n = ORACLE_NODES;
    // Chunk 8 KiB (eager) and chunk 512 KiB (rendezvous) on henri.
    let mut out = Vec::new();
    for payload in [64 * 1024usize, 4 * 1024 * 1024] {
        let s = Schedule::ring_allreduce(n, payload);
        let measured = measured_collective_s(spec, fabric, &s);
        out.push(Outcome::compare(
            format!(
                "{}: ring allreduce n={} payload={} B",
                fabric.name(),
                n,
                payload
            ),
            expected_ring_allreduce_s(spec, n, payload),
            measured,
            TOL_TIME,
        ));
    }
    out
}

fn tree_bcast_oracle(spec: &MachineSpec, fabric: FabricPreset) -> Vec<Outcome> {
    let n = ORACLE_NODES;
    let payload = 16 * 1024usize; // eager on henri
    let s = Schedule::binomial_bcast(n, payload);
    let per_round = expected_eager_s(spec, payload);
    let expected = s.rounds.len() as f64 * per_round;
    let measured = measured_collective_s(spec, fabric, &s);
    let name = format!(
        "{}: tree bcast n={} payload={} B",
        fabric.name(),
        n,
        payload
    );
    match fabric {
        // The switch crossbar is non-blocking: every round is link-disjoint
        // and the ⌈log₂n⌉·(α+β·size) form is exact.
        FabricPreset::Switch => vec![Outcome::compare(name, expected, measured, TOL_TIME)],
        // Routed fabrics share links within a round (e.g. four cross-group
        // messages over one dragonfly global link): the closed form is a
        // lower bound, the sequential per-message sum an upper bound.
        _ => {
            let upper = s.total_messages() as f64 * per_round;
            let pass = measured >= expected - SLACK_S && measured <= upper + SLACK_S;
            vec![Outcome::bool(
                name,
                pass,
                format!(
                    "lower {:.9e} <= measured {:.9e} <= upper {:.9e}",
                    expected, measured, upper
                ),
            )]
        }
    }
}

fn alltoall_oracle(spec: &MachineSpec, fabric: FabricPreset) -> Vec<Outcome> {
    let n = ORACLE_NODES;
    let block = 16 * 1024usize; // eager on henri
    let s = Schedule::pairwise_alltoall(n, block);
    let per_msg = expected_eager_s(spec, block);
    let rounds = (n - 1) as f64;
    let name = format!("{}: alltoall n={} block={} B", fabric.name(), n, block);
    let measured = measured_collective_s(spec, fabric, &s);
    match fabric {
        FabricPreset::Switch => {
            // Round r pairs distinct up/down ports: link-disjoint, exact.
            vec![Outcome::compare(name, rounds * per_msg, measured, TOL_TIME)]
        }
        _ => {
            // Bisection-style bound: the busiest link must carry all its
            // routed bytes within the total time; rounds of equal-size
            // messages also cannot beat one solo message each.
            let f = fabric.spec(n).build_for(n);
            let bytes = s.link_bytes(&f);
            let link_bound = f
                .links()
                .iter()
                .zip(&bytes)
                .map(|(l, b)| b / (spec.network.link_bw * l.bw_scale))
                .fold(0.0f64, f64::max);
            let lower = (rounds * per_msg).max(link_bound);
            let upper = s.total_messages() as f64 * per_msg;
            let pass = measured >= lower - SLACK_S && measured <= upper + SLACK_S;
            vec![Outcome::bool(
                name,
                pass,
                format!(
                    "lower {:.9e} (link bound {:.9e}) <= measured {:.9e} <= upper {:.9e}",
                    lower, link_bound, measured, upper
                ),
            )]
        }
    }
}

// ---------------------------------------------------------------------------
// Metamorphic invariants over random collective schedules.

/// The three collective metamorphic invariants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectiveInvariant {
    /// Relabelling ranks through a random permutation leaves the total time
    /// bit-identical on the fully symmetric switch fabric.
    RankPermutation,
    /// Shuffling the posting order of each round's messages leaves the
    /// total time bit-identical (concurrent rounds have no order).
    InterleaveIndependence,
    /// Every fabric link delivers exactly the bytes of the messages routed
    /// over it (up to rate × 1 ps completion quantisation per message).
    LinkConservation,
}

impl CollectiveInvariant {
    /// Every collective invariant, in display order.
    pub const ALL: [CollectiveInvariant; 3] = [
        CollectiveInvariant::RankPermutation,
        CollectiveInvariant::InterleaveIndependence,
        CollectiveInvariant::LinkConservation,
    ];

    /// Stable name used in check labels.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveInvariant::RankPermutation => "rank_permutation",
            CollectiveInvariant::InterleaveIndependence => "interleave_independence",
            CollectiveInvariant::LinkConservation => "link_conservation",
        }
    }

    /// Check the invariant over `count` random collectives derived from
    /// `base_seed`; returns one aggregated outcome.
    pub fn check(self, base_seed: u64, count: usize) -> Outcome {
        let mut seeds = SplitMix64::new(base_seed ^ 0x434f_4c4c);
        let mut first_failure: Option<String> = None;
        for _ in 0..count {
            let seed = seeds.next_u64();
            let verdict = match self {
                CollectiveInvariant::RankPermutation => rank_permutation(seed),
                CollectiveInvariant::InterleaveIndependence => interleave_independence(seed),
                CollectiveInvariant::LinkConservation => link_conservation(seed),
            };
            if let Err(why) = verdict {
                first_failure.get_or_insert(format!("seed {:#x}: {}", seed, why));
            }
        }
        match first_failure {
            None => Outcome::bool(
                format!("collective.{} [{} schedule(s)]", self.name(), count),
                true,
                format!("{} random collective(s), all hold", count),
            ),
            Some(why) => Outcome::bool(
                format!("collective.{} [{} schedule(s)]", self.name(), count),
                false,
                why,
            ),
        }
    }
}

/// Draw one of the four schedule builders.
fn random_schedule(rng: &mut Pcg32, nodes: usize, payload: usize) -> (&'static str, Schedule) {
    match rng.next_u64() % 4 {
        0 => ("ring_allreduce", Schedule::ring_allreduce(nodes, payload)),
        1 => ("tree_allreduce", Schedule::tree_allreduce(nodes, payload)),
        2 => ("binomial_bcast", Schedule::binomial_bcast(nodes, payload)),
        _ => (
            "pairwise_alltoall",
            Schedule::pairwise_alltoall(nodes, payload),
        ),
    }
}

/// Payload sizes straddling tiny2x2's 16 KiB eager threshold.
const FUZZ_PAYLOADS: [usize; 4] = [64, 4096, 16 * 1024, 64 * 1024];

fn fuzz_cluster(fabric: FabricPreset, nodes: usize) -> Cluster {
    let spec = tiny2x2();
    Cluster::with_fabric(
        &spec,
        fabric.spec(nodes).build_for(nodes),
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    )
}

fn run_total(fabric: FabricPreset, s: &Schedule, shuffle: Option<u64>) -> Result<SimTime, String> {
    let mut c = fuzz_cluster(fabric, s.nodes);
    collective::run_ordered(&mut c, s, 1000, 0x6000, shuffle).map_err(|e| e.to_string())
}

fn rank_permutation(seed: u64) -> Result<(), String> {
    let mut rng = Pcg32::new(seed, 11);
    let nodes = 8;
    let payload = FUZZ_PAYLOADS[(rng.next_u64() % 4) as usize];
    let (alg, s) = random_schedule(&mut rng, nodes, payload);
    let mut perm: Vec<usize> = (0..nodes).collect();
    for i in (1..nodes).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let base = run_total(FabricPreset::Switch, &s, None)?;
    let permuted = run_total(FabricPreset::Switch, &s.permute_ranks(&perm), None)?;
    if base != permuted {
        return Err(format!(
            "{} n={} payload={}: base {:?} != permuted {:?} (perm {:?})",
            alg, nodes, payload, base, permuted, perm
        ));
    }
    Ok(())
}

fn interleave_independence(seed: u64) -> Result<(), String> {
    let mut rng = Pcg32::new(seed, 13);
    let nodes = 2 + (rng.next_u64() % 7) as usize;
    let payload = FUZZ_PAYLOADS[(rng.next_u64() % 4) as usize];
    let fabric = FabricPreset::ALL[(rng.next_u64() % 3) as usize];
    let (alg, s) = random_schedule(&mut rng, nodes, payload);
    let base = run_total(fabric, &s, None)?;
    let shuffled = run_total(fabric, &s, Some(rng.next_u64()))?;
    if base != shuffled {
        return Err(format!(
            "{} n={} payload={} on {}: in-order {:?} != shuffled {:?}",
            alg, nodes, payload, fabric, base, shuffled
        ));
    }
    Ok(())
}

fn link_conservation(seed: u64) -> Result<(), String> {
    let mut rng = Pcg32::new(seed, 17);
    let nodes = 2 + (rng.next_u64() % 7) as usize;
    let payload = FUZZ_PAYLOADS[(rng.next_u64() % 4) as usize];
    let fabric = FabricPreset::ALL[(rng.next_u64() % 3) as usize];
    let (alg, s) = random_schedule(&mut rng, nodes, payload);
    let mut c = fuzz_cluster(fabric, nodes);
    collective::run(&mut c, &s, 1000, 0x6000).map_err(|e| e.to_string())?;
    let expected = s.link_bytes(c.net.fabric());
    let spec = tiny2x2();
    for (l, want) in expected.iter().enumerate() {
        let got = c.net.link_delivered(&c.engine, l);
        let link = &c.net.fabric().links()[l];
        // One picosecond of completion overshoot per message on the link.
        let crossings = s
            .rounds
            .iter()
            .flat_map(|r| r.msgs.iter())
            .filter(|m| c.net.fabric().route(m.src, m.dst).any(|h| h as usize == l))
            .count();
        let slack = crossings as f64 * spec.network.link_bw * link.bw_scale * 1e-12 + 1e-9;
        if (got - want).abs() > slack {
            return Err(format!(
                "{} n={} payload={} on {}: link {} delivered {} expected {}",
                alg, nodes, payload, fabric, link.name, got, want
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Differential fuzzing: concurrent rounds vs a naive sequential reference.

/// Fuzz `count` random collective schedules derived from `seed`: each must
/// pass the dataflow semantics checker, fail it after a random message is
/// dropped (mutation sanity), and — per round — complete concurrently no
/// faster than its slowest solo message and no slower than the sum of its
/// solo messages, both measured on a naive sequential reference cluster.
/// Returns one aggregated outcome.
pub fn fuzz_collectives(seed: u64, count: usize) -> Outcome {
    let mut seeds = SplitMix64::new(seed ^ 0x4655_5a43);
    let mut first_failure: Option<String> = None;
    let mut rounds_checked = 0usize;
    for case in 0..count {
        let case_seed = seeds.next_u64();
        match fuzz_one(case_seed) {
            Ok(rounds) => rounds_checked += rounds,
            Err(why) => {
                first_failure
                    .get_or_insert(format!("case {} seed {:#x}: {}", case, case_seed, why));
            }
        }
    }
    match first_failure {
        None => Outcome::bool(
            format!("collective.fuzz [{} schedule(s)]", count),
            true,
            format!(
                "{} random collective(s), {} concurrent round(s) confined by their sequential reference",
                count, rounds_checked
            ),
        ),
        Some(why) => Outcome::bool(format!("collective.fuzz [{} schedule(s)]", count), false, why),
    }
}

fn fuzz_one(seed: u64) -> Result<usize, String> {
    let mut rng = Pcg32::new(seed, 23);
    let nodes = 2 + (rng.next_u64() % 5) as usize;
    let payload = FUZZ_PAYLOADS[(rng.next_u64() % 4) as usize];
    let fabric = FabricPreset::ALL[(rng.next_u64() % 3) as usize];
    let (alg, s) = random_schedule(&mut rng, nodes, payload);
    let label = format!("{} n={} payload={} on {}", alg, nodes, payload, fabric);

    // 1. The schedule must compute its collective.
    s.verify_semantics()
        .map_err(|e| format!("{}: {}", label, e))?;

    // 2. Mutation sanity: dropping any message must break the dataflow
    //    proof (otherwise the checker is vacuous).
    let victim_round = (rng.next_u64() % s.rounds.len() as u64) as usize;
    let mut mutated = s.clone();
    if !mutated.rounds[victim_round].msgs.is_empty() {
        let victim = (rng.next_u64() % mutated.rounds[victim_round].msgs.len() as u64) as usize;
        mutated.rounds[victim_round].msgs.remove(victim);
        if mutated.verify_semantics().is_ok() {
            return Err(format!(
                "{}: semantics still hold after dropping a message from round {}",
                label, victim_round
            ));
        }
    }

    // 3. Differential timing: drive the real schedule round by round on one
    //    cluster, and every message alone, in order, on a reference cluster.
    //    Registration state evolves identically (same buffer keys in the
    //    same first-use order), so per round:
    //      max(solo) − ε  ≤  t_concurrent  ≤  Σ solo + ε.
    let mut concurrent = fuzz_cluster(fabric, nodes);
    let mut sequential = fuzz_cluster(fabric, nodes);
    for (ri, round) in s.rounds.iter().enumerate() {
        let sub = Schedule {
            op: s.op,
            nodes: s.nodes,
            payload: s.payload,
            rounds: vec![round.clone()],
        };
        let t_conc = collective::run(&mut concurrent, &sub, 1000 + ri as u32 * 8, 0x6000)
            .map_err(|e| format!("{}: {}", label, e))?
            .as_secs_f64();
        let mut solo_sum = 0.0f64;
        let mut solo_max = 0.0f64;
        for (mi, m) in round.msgs.iter().enumerate() {
            let one = Schedule {
                op: s.op,
                nodes: s.nodes,
                payload: s.payload,
                rounds: vec![mpisim::collective::Round { msgs: vec![*m] }],
            };
            let t = collective::run(&mut sequential, &one, 5000 + (ri * 64 + mi) as u32, 0x6000)
                .map_err(|e| format!("{}: {}", label, e))?
                .as_secs_f64();
            solo_sum += t;
            solo_max = solo_max.max(t);
        }
        if round.msgs.is_empty() {
            continue;
        }
        if t_conc < solo_max - SLACK_S || t_conc > solo_sum + SLACK_S {
            return Err(format!(
                "{} round {}: concurrent {:.9e} outside [max solo {:.9e}, sum solo {:.9e}]",
                label, ri, t_conc, solo_max, solo_sum
            ));
        }
    }
    Ok(s.rounds.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_allreduce_oracle_holds_on_every_preset() {
        for preset in FabricPreset::ALL {
            for o in CollectiveOracle::RingAllreduce.run(preset) {
                assert!(o.pass, "{}: {}", o.name, o.detail);
            }
        }
    }

    #[test]
    fn tree_and_alltoall_oracles_hold_on_every_preset() {
        for preset in FabricPreset::ALL {
            for k in [CollectiveOracle::TreeBcast, CollectiveOracle::AlltoallBound] {
                for o in k.run(preset) {
                    assert!(o.pass, "{}: {}", o.name, o.detail);
                }
            }
        }
    }

    #[test]
    fn one_percent_link_drift_trips_the_ring_oracle() {
        // Pin the link as the path bottleneck (below henri's 10.8 GB/s DMA
        // and the 9.2 GB/s eager PIO rate), then drift it by ±1%: the
        // measured collective moves by ~1% of its bandwidth term while the
        // expectation stands still, far outside TOL_TIME.
        let mut base = henri();
        base.network.link_bw = 8.0e9;
        let n = ORACLE_NODES;
        let payload = 4 * 1024 * 1024usize;
        let s = Schedule::ring_allreduce(n, payload);
        let expected = expected_ring_allreduce_s(&base, n, payload);

        let healthy = measured_collective_s(&base, FabricPreset::Switch, &s);
        let ok = Outcome::compare("trip: healthy", expected, healthy, TOL_TIME);
        assert!(ok.pass, "healthy measurement must match: {}", ok.detail);

        for drift in [1.01f64, 0.99] {
            let mut drifted = base.clone();
            drifted.network.link_bw *= drift;
            let measured = measured_collective_s(&drifted, FabricPreset::Switch, &s);
            let o = Outcome::compare(
                format!("trip: drift {}", drift),
                expected,
                measured,
                TOL_TIME,
            );
            assert!(
                !o.pass,
                "a {}x link-bandwidth drift must trip the oracle: {}",
                drift, o.detail
            );
        }
    }

    #[test]
    fn collective_invariants_hold_on_a_small_sample() {
        for inv in CollectiveInvariant::ALL {
            let o = inv.check(42, 4);
            assert!(o.pass, "{}: {}", o.name, o.detail);
        }
    }

    #[test]
    fn collective_fuzz_small_sample_passes() {
        let o = fuzz_collectives(7, 6);
        assert!(o.pass, "{}", o.detail);
    }
}
