//! Fast-vs-reference allocator equivalence suite.
//!
//! The incremental solver (`FluidNet::reallocate`: slab + inverse index +
//! per-component dirty tracking) must produce **bit-identical** results to
//! the from-scratch `fluid::reference::reallocate` after *any* sequence of
//! mutations — flow starts/cancels/completions, cap changes, capacity
//! changes (including to zero) — because simulated completion times derive
//! from the rates, and a single-ulp drift would change event timestamps and
//! break golden-trace / `--json` byte-stability.
//!
//! Each property drives one net through a randomized mutation sequence and,
//! at every checkpoint, snapshots rates and per-resource allocations from
//! the incremental solve, re-solves the same net from scratch with the
//! reference solver, and compares the f64 **bit patterns** (`to_bits`, not
//! approximate equality). The reference solver rebuilds the adjacency and
//! component decomposition from the flow paths alone, so stale inverse-index
//! entries, missed dirty bits, or components split/merged incorrectly all
//! surface as mismatches. It also runs the plain progressive-filling loop,
//! one freeze per round, against the production loop's same-level and
//! cap-tie cascades and once-per-round re-sums: tie-heavy and STREAM-shaped
//! scripts, a ring chain and an underflow corner aim at those. Scripts over
//! 65-320 resources aim at the component walk's bitset readout, which
//! spans several words there, and at its two slot orders, the member list
//! of a resource every flow crosses and the sort by id.
//!
//! Case count honours `PROPTEST_CASES` (CI runs 512); the tie-heavy,
//! STREAM-shaped and wide properties run at least 1024.

use proptest::prelude::*;
use simcore::fluid::reference;
use simcore::{FlowId, FlowSpec, FluidNet, ResourceId};

/// One step of a mutation script. Indices are resolved modulo the live
/// flow / resource count at application time, so scripts stay valid as
/// flows come and go.
#[derive(Debug, Clone)]
enum Op {
    /// Start a flow with the given path (resource indices), weight, cap.
    Start(Vec<usize>, f64, Option<f64>),
    /// Cancel the n-th live flow.
    Cancel(usize),
    /// Change the n-th live flow's cap.
    SetCap(usize, Option<f64>),
    /// Change a resource's capacity (0.0 exercises the stalled path).
    SetCapacity(usize, f64),
    /// Solve, then advance time toward the next completion (factor > 1
    /// completes at least one flow; churn for the dirty tracking).
    Elapse(f64),
    /// Solve incrementally and compare against the reference solver.
    Check,
}

/// The value sets a script draws its numbers from.
#[derive(Clone)]
struct Values {
    /// Initial resource capacities.
    capacity: BoxedStrategy<f64>,
    /// `SetCapacity` targets.
    set_capacity: BoxedStrategy<f64>,
    weight: BoxedStrategy<f64>,
    /// Flow caps, at `Start` and `SetCap`.
    cap: BoxedStrategy<Option<f64>>,
}

/// Continuous ranges: ties are rare, so rounds freeze one resource at a
/// time and caps bind at arbitrary levels.
fn spread() -> Values {
    let capacity = prop_oneof![Just(0.0f64), 1.0f64..1000.0].boxed();
    Values {
        capacity: capacity.clone(),
        set_capacity: capacity,
        weight: (0.1f64..8.0).boxed(),
        cap: prop::option::of(0.5f64..300.0).boxed(),
    }
}

/// Few round values: resources saturating at exactly the same level, and
/// caps exactly at a fair share, are common. Zero capacity comes in only
/// through `SetCapacity`.
fn ties() -> Values {
    Values {
        capacity: prop_oneof![Just(25.0), Just(50.0), Just(100.0)].boxed(),
        set_capacity: prop_oneof![Just(0.0), Just(25.0), Just(50.0), Just(100.0)].boxed(),
        weight: prop_oneof![Just(0.5), Just(1.0), Just(2.0)].boxed(),
        cap: prop_oneof![
            Just(None),
            Just(Some(12.5)),
            Just(Some(25.0)),
            Just(Some(50.0))
        ]
        .boxed(),
    }
}

fn start(nres: usize, v: &Values) -> impl Strategy<Value = Op> {
    (
        prop::collection::btree_set(0..nres, 1..=nres.min(4)),
        v.weight.clone(),
        v.cap.clone(),
    )
        .prop_map(|(path, w, cap)| Op::Start(path.into_iter().collect(), w, cap))
}

fn op(nres: usize, v: &Values) -> impl Strategy<Value = Op> {
    prop_oneof![
        start(nres, v).boxed(),
        (0..64usize).prop_map(Op::Cancel).boxed(),
        (0..64usize, v.cap.clone())
            .prop_map(|(i, c)| Op::SetCap(i, c))
            .boxed(),
        ((0..nres), v.set_capacity.clone())
            .prop_map(|(r, c)| Op::SetCapacity(r, c))
            .boxed(),
        (0.25f64..1.5).prop_map(Op::Elapse).boxed(),
        Just(Op::Check).boxed(),
    ]
}

fn script(v: Values) -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    let caps = prop::collection::vec(v.capacity.clone(), 2..8);
    caps.prop_flat_map(move |capacities| {
        let nres = capacities.len();
        prop::collection::vec(op(nres, &v), 8..60).prop_map(move |ops| (capacities.clone(), ops))
    })
}

/// A tie-heavy script that opens with eight flow starts, so that
/// components of several flows, where three or more resources saturate at
/// one level, are common.
fn tie_script() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    script(ties()).prop_flat_map(|(capacities, ops)| {
        prop::collection::vec(start(capacities.len(), &ties()), 8).prop_map(move |mut opening| {
            opening.extend(ops.iter().cloned());
            (capacities.clone(), opening)
        })
    })
}

/// A STREAM-shaped script, the paper's central case: k >= 4 flows with one
/// cap and one weight on hub resource 0, as equal cores behind one memory
/// controller, some with a resource of their own (the core); then flows
/// without a cap, on the hub (the NIC's DMA) or off it; then random
/// mutations that reuse the shared cap. The hub's capacity is 0.5-3x the
/// cores' summed caps, so the caps bind first in most scripts and tie at
/// one level, which takes the production loop's cap-tie cascade.
fn stream_script() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    let weight = prop_oneof![Just(0.5), Just(1.0), Just(2.0), Just(49.0), 0.1f64..8.0];
    (
        4usize..=12,
        weight,
        0.5f64..300.0,
        0.5f64..3.0,
        prop::collection::vec(1.0f64..1000.0, 1..5),
    )
        .prop_flat_map(|(k, w, cap, load, others)| {
            let mut capacities = vec![cap * k as f64 * load];
            capacities.extend(others);
            let nres = capacities.len();
            let core = prop::option::of(1..nres)
                .prop_map(move |own| Op::Start(own.into_iter().chain([0]).collect(), w, Some(cap)));
            // Each with the position among the cores at which it starts.
            let uncapped = (
                prop::collection::btree_set(0..nres, 1..=nres.min(3)),
                prop_oneof![Just(1.0), Just(2.0), 0.1f64..8.0],
                0..=k,
            )
                .prop_map(|(path, w, at)| (Op::Start(path.into_iter().collect(), w, None), at));
            // `op` draws no initial capacity, and new flows share the
            // cores' weight.
            let v = Values {
                capacity: Just(0.0).boxed(),
                set_capacity: prop_oneof![Just(0.0), 1.0f64..1000.0].boxed(),
                weight: Just(w).boxed(),
                cap: prop_oneof![Just(Some(cap)), Just(None), prop::option::of(0.5f64..300.0)]
                    .boxed(),
            };
            (
                prop::collection::vec(core, k),
                prop::collection::vec(uncapped, 0..4),
                prop::collection::vec(op(nres, &v), 0..24),
            )
                .prop_map(move |(mut script, uncapped, ops)| {
                    for (start, at) in uncapped {
                        script.insert(at.min(script.len()), start);
                    }
                    script.push(Op::Check);
                    script.extend(ops);
                    (capacities.clone(), script)
                })
        })
}

/// A script over 65-320 resources, wider than one 64-bit word of the
/// walk's resource bitset. Paths are drawn across the whole index range,
/// so a component's resources sit in words that need not be adjacent and
/// share words with other components. It opens with 1-3 hub components of
/// 2-6 flows each, every flow crossing the hub and one other resource, and
/// 1-2 chains without a hub, flow i crossing the chain's resources i and
/// i + 1; then random mutations and further hub flows, whose cancels and
/// starts put later flows into earlier slots.
fn wide_script() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    (65usize..=320)
        .prop_flat_map(|nres| (Just(nres), prop::collection::vec(0..nres, 1..=3)))
        .prop_flat_map(|(nres, hubs)| {
            let v = spread();
            // The resource a hub flow crosses besides its hub.
            let leg = (0..nres, v.weight.clone(), v.cap.clone());
            let chain = (prop::collection::vec(0..nres, 4..=7), v.weight.clone());
            let tail_hubs = hubs.clone();
            let hub_flow = (0..hubs.len(), leg.clone())
                .prop_map(move |(k, (r, w, cap))| Op::Start(vec![tail_hubs[k], r], w, cap));
            (
                prop::collection::vec(v.capacity.clone(), nres),
                prop::collection::vec(prop::collection::vec(leg, 2..=6), hubs.len()),
                prop::collection::vec(chain, 1..=2),
                prop::collection::vec(prop_oneof![op(nres, &v).boxed(), hub_flow.boxed()], 8..40),
            )
                .prop_map(move |(capacities, legs, chains, steps)| {
                    let mut ops = Vec::new();
                    for (&h, legs) in hubs.iter().zip(legs) {
                        ops.extend(
                            legs.into_iter()
                                .map(|(r, w, cap)| Op::Start(vec![h, r], w, cap)),
                        );
                    }
                    for (rs, w) in chains {
                        ops.extend(rs.windows(2).map(|pair| Op::Start(pair.to_vec(), w, None)));
                    }
                    ops.push(Op::Check);
                    ops.extend(steps);
                    (capacities, ops)
                })
        })
}

/// Bitwise snapshot of everything the solver outputs.
fn snapshot(net: &FluidNet, flows: &[FlowId], rids: &[ResourceId]) -> (Vec<Option<u64>>, Vec<u64>) {
    let rates = flows
        .iter()
        .map(|&f| net.flow_rate(f).map(f64::to_bits))
        .collect();
    let allocs = rids.iter().map(|&r| net.allocated(r).to_bits()).collect();
    (rates, allocs)
}

/// Run one script, checking fast == reference at every checkpoint and at
/// the end. Returns the number of checkpoints compared.
fn run_script(capacities: &[f64], ops: &[Op]) -> Result<u32, TestCaseError> {
    let mut net = FluidNet::new();
    let rids: Vec<ResourceId> = capacities
        .iter()
        .enumerate()
        .map(|(i, &c)| net.add_resource(format!("r{}", i), c))
        .collect();
    let mut live: Vec<FlowId> = Vec::new();
    let mut tag = 0u64;
    let mut checks = 0u32;

    let check = |net: &mut FluidNet, live: &[FlowId]| -> Result<(), TestCaseError> {
        net.reallocate();
        let fast = snapshot(net, live, &rids);
        reference::reallocate(net);
        let refr = snapshot(net, live, &rids);
        prop_assert_eq!(
            &fast,
            &refr,
            "fast/reference diverged over {} flows: fast={:?} ref={:?}",
            live.len(),
            fast,
            refr
        );
        Ok(())
    };

    for o in ops {
        match o {
            Op::Start(path, w, cap) => {
                let rpath: Vec<ResourceId> = path.iter().map(|&i| rids[i]).collect();
                tag += 1;
                let id = net.start_flow(FlowSpec {
                    path: rpath,
                    volume: 10.0 + (tag as f64) * 3.5,
                    weight: *w,
                    cap: *cap,
                    tag,
                });
                live.push(id);
            }
            Op::Cancel(i) => {
                if !live.is_empty() {
                    let id = live.remove(i % live.len());
                    net.cancel_flow(id).expect("live flow cancels");
                }
            }
            Op::SetCap(i, c) => {
                if !live.is_empty() {
                    net.set_flow_cap(live[i % live.len()], *c);
                }
            }
            Op::SetCapacity(r, c) => net.set_capacity(rids[*r], *c),
            Op::Elapse(factor) => {
                net.reallocate();
                if let Some(dt) = net.time_to_next_completion() {
                    net.elapse(dt * factor);
                    live.retain(|&f| net.flow_rate(f).is_some());
                }
            }
            Op::Check => {
                check(&mut net, &live)?;
                checks += 1;
            }
        }
    }
    check(&mut net, &live)?;
    Ok(checks + 1)
}

proptest! {
    /// Randomized topologies, weights, caps and mutation sequences: the
    /// incremental solve equals the from-scratch solve, bit for bit.
    #[test]
    fn incremental_matches_reference_bitwise(case in script(spread())) {
        let (capacities, ops) = case;
        run_script(&capacities, &ops)?;
    }
}

proptest! {
    // At least 1024 cases: ties of three or more resources at a positive
    // level, which take the production loop's cascade past its first
    // resource, come up in only about one script in a hundred.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(1024)))]

    /// The same with tie-heavy values, where most rounds of the reference
    /// loop freeze a resource at the level the previous round reached.
    #[test]
    fn incremental_matches_reference_bitwise_under_ties(case in tie_script()) {
        let (capacities, ops) = case;
        run_script(&capacities, &ops)?;
    }
}

proptest! {
    // At least 1024 cases, like the tie property.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(1024)))]

    /// The same on STREAM-shaped scripts, where most solves freeze several
    /// equal caps at one level.
    #[test]
    fn incremental_matches_reference_bitwise_on_stream_shapes(case in stream_script()) {
        let (capacities, ops) = case;
        run_script(&capacities, &ops)?;
    }
}

proptest! {
    // At least 1024 cases, like the tie property.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.max(1024)))]

    /// The same on components spread over several bitset words, with and
    /// without a resource that every flow of the component crosses.
    #[test]
    fn incremental_matches_reference_bitwise_across_bitset_words(case in wide_script()) {
        let (capacities, ops) = case;
        run_script(&capacities, &ops)?;
    }
}

#[test]
fn ring_chain_matches_reference() {
    // The ring collective's NIC chain: n equal resources, flow i crossing
    // resources i and i+1 (mod n). Every resource saturates at the level
    // of the first; the Elapse completes one flow and leaves an open chain.
    for n in [2usize, 3, 8, 64, 257] {
        let caps = vec![100.0; n];
        let mut ops: Vec<Op> = (0..n)
            .map(|i| Op::Start(vec![i, (i + 1) % n], 1.0, None))
            .collect();
        ops.extend([Op::Check, Op::Elapse(1.0), Op::Check]);
        let checks = run_script(&caps, &ops).unwrap_or_else(|e| panic!("ring of {n}: {e}"));
        assert_eq!(checks, 3);
    }
}

#[test]
fn underflowed_zero_level_is_rechecked() {
    // Resource 1's headroom 5e-324 over weight 4 rounds to a level
    // increment of 0.0, as resource 0's zero capacity does. Once resource
    // 0 freezes the weight-3 flow, resource 1's increment is 5e-324 / 1,
    // above 0.0: the weight-1 flow runs at 5e-324, not 0.
    let ops = vec![
        Op::Start(vec![0, 1], 3.0, None),
        Op::Start(vec![1], 1.0, None),
        Op::Check,
    ];
    assert_eq!(
        run_script(&[0.0, 5e-324], &ops).expect("bitwise equivalence"),
        2
    );
}

#[test]
fn cap_freeze_and_zero_capacity_edge_cases() {
    // Deterministic corner mix: zero-capacity resource in the middle of a
    // path, cap exactly at the fair share, cap far below and far above,
    // plus churn that repeatedly crosses component boundaries.
    let caps = [100.0, 0.0, 50.0, 300.0];
    let ops = vec![
        Op::Start(vec![0], 1.0, Some(50.0)), // cap == fair share of r0 under 2 flows
        Op::Start(vec![0], 1.0, None),
        Op::Check,
        Op::Start(vec![1], 2.0, None), // rides the dead resource: rate 0
        Op::Start(vec![1, 2], 1.0, Some(10.0)),
        Op::Check,
        Op::Start(vec![0, 2, 3], 0.5, Some(0.75)), // tiny cap freezes first
        Op::Start(vec![3], 4.0, Some(10_000.0)),   // cap never binds
        Op::Check,
        Op::SetCapacity(1, 80.0), // resurrect the dead resource
        Op::Check,
        Op::Elapse(1.0),
        Op::SetCapacity(3, 0.0), // kill a loaded resource
        Op::Check,
        Op::Cancel(0),
        Op::SetCap(0, None),
        Op::Check,
    ];
    let checks = run_script(&caps, &ops).expect("bitwise equivalence");
    assert_eq!(checks, 7); // the six scripted checkpoints plus the final one
}
