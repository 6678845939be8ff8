//! Weighted max-min fair fluid bandwidth allocation.
//!
//! The memory system, NUMA interconnect, NIC and network wire are modelled as
//! *resources* with finite capacities (units/s). Ongoing transfers are
//! *flows*: each flow crosses a path of resources, carries a fairness weight
//! and an optional rate cap (e.g. the roofline compute bound of the thread
//! issuing the accesses). At any instant the rates are the **weighted
//! max-min fair** allocation, computed by progressive filling:
//!
//! 1. All unfrozen flows grow their rate proportionally to their weight
//!    (rate = weight × fill level `λ`).
//! 2. The first event is either a resource saturating (freeze every unfrozen
//!    flow crossing it) or a flow hitting its cap (freeze that flow).
//! 3. Repeat until every flow is frozen.
//!
//! This is the standard analytical model of bandwidth sharing (used e.g. by
//! flow-level network simulators and by Langguth et al.'s memory-contention
//! model cited in the paper) and reproduces the saturation and fair-share
//! curves measured by the paper's STREAM/ping-pong experiments.
//!
//! # Incremental re-solving
//!
//! Max-min allocation decomposes over the connected components of the
//! flow↔resource bipartite graph: a flow's rate depends only on flows it
//! (transitively) shares a resource with. The net therefore keeps
//!
//! * a slab of flows addressed by [`FlowId`]: an id carries its slot
//!   beside its never-reused sequence number, and the slab's `id` column
//!   holds each slot's occupant's, so a lookup or cancel is one comparison
//!   with no hashing, and an id whose slot was reused names no flow,
//! * a persistent inverse index (`members[r]` = flows crossing `r`, in id
//!   order), and
//! * per-resource dirty bits set by every mutation (flow started, cancelled
//!   or completed, cap changed, capacity changed).
//!
//! [`FluidNet::reallocate`] walks each dirty component once (BFS over the
//! inverse index) and re-solves *only those components*; clean components
//! keep their cached rates. A ping-pong on the NIC no longer re-solves the
//! memory-controller component of an idle node, and vice versa. The walk
//! gives the solve its canonical orders without sorting where it can: the
//! resources ascending, read out of a bitset, and the flows by id, copied
//! from a member list that holds every flow of the component where one
//! does (a fabric, or a memory controller behind its cores and the NIC).
//!
//! The per-component solve ([`solve_region`]) runs progressive filling in
//! one pass per fill level: the resources that saturate at one level
//! freeze in the same round, and so do the capped flows that reach their
//! caps at one level (the equal-cap STREAM cores of the paper's §4), each
//! touched resource's weight is re-summed once per round and not at all
//! after the round that freezes the last flow, and the loop
//! reads the net's own member lists, paths, weights and caps through
//! component-local positions written for each solve, copying no adjacency
//! ([`solve_general`] gives the reason each shortcut is exact). The
//! from-scratch [`reference::reallocate`] rebuilds the adjacency and the
//! component decomposition independently, from a scan of the id column
//! sorted by id, and runs the plain loop, one freeze per round; both send
//! one-flow components to the same waterfill shortcut.
//! The production walk and solve work in buffers the net owns and clears
//! per component (the component and walk lists, the fill loop's columns
//! and the solution), so a steady-state re-solve allocates nothing; the
//! reference allocates afresh, as an oracle should (DESIGN.md §13.7).
//! Fast and reference results are bit-identical — not by shared code but
//! as proven by the differential suites: `prop_fluid_equiv` over
//! randomized, tie-heavy and STREAM-shaped mutation sequences, simcheck's
//! differential fuzzer and the whole-campaign `tests/allocator_replay.rs`.
//! Exact f64 equality matters: completion times derive from rates, so even
//! a 1-ulp drift would eventually flip picosecond event ordering and break
//! golden-trace and `--json` byte-stability.
//!
//! # Advancing time
//!
//! [`FluidNet::elapse`] walks whole columns rather than a list of live
//! flows: a free slot holds rate 0 and remaining +∞, so it never moves or
//! finishes, and no live-slot order has to be kept up to date. The finish
//! test rides the decrement, and stall accounting runs only while a capped
//! flow is live. Per resource, `allocated` and its utilization are cached
//! in columns written where an allocation or a capacity changes, so the
//! `delivered` and `busy_integral` integrals advance without a divide.
//! [`FluidNet::time_to_next_completion`] scans the same columns; the engine
//! runs it only when a timer does not provably come first (DESIGN.md
//! §13.6).

use std::fmt;

use crate::reference_paths::ReferencePaths;

/// Identifies a resource inside a [`FluidNet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Dense index of the resource (stable for the net's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a flow inside a [`FluidNet`]: its never-reused sequence
/// number and the slab slot it occupies while live. Ordered by `seq`, i.e.
/// start order. Slots are reused; an id whose slot holds another flow (or
/// none) names no flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId {
    seq: u64,
    slot: u32,
}

#[derive(Clone, Debug)]
pub(crate) struct Resource {
    pub name: String,
    /// Capacity in units/s (typically bytes/s or cycles/s).
    pub capacity: f64,
}

/// Per-resource accounting in structure-of-arrays layout, indexed by
/// [`ResourceId`]. `util` caches the utilization of `allocated` under the
/// current capacity; [`ResourceCols::set_allocated`] and
/// [`FluidNet::set_capacity`] rewrite it in place, so
/// [`FluidNet::elapse`] integrates every resource without a divide.
#[derive(Default)]
struct ResourceCols {
    /// Current total allocated rate (written by every re-solve).
    allocated: Vec<f64>,
    /// [`utilization`] of `allocated` under the resource's capacity.
    util: Vec<f64>,
    /// Cumulative units delivered through each resource.
    delivered: Vec<f64>,
    /// Integral of utilization over time (seconds of 100 % use); divide by
    /// elapsed time for mean utilization.
    busy_integral: Vec<f64>,
}

impl ResourceCols {
    fn push(&mut self) {
        self.allocated.push(0.0);
        self.util.push(0.0);
        self.delivered.push(0.0);
        self.busy_integral.push(0.0);
    }

    fn set_allocated(&mut self, r: usize, allocated: f64, capacity: f64) {
        self.allocated[r] = allocated;
        self.util[r] = utilization(allocated, capacity);
    }
}

/// Utilization in [0,1] of a resource carrying `allocated` units/s: a
/// zero-capacity resource counts as fully busy while anything is allocated
/// to it.
fn utilization(allocated: f64, capacity: f64) -> f64 {
    if capacity <= 0.0 {
        if allocated > 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        (allocated / capacity).min(1.0)
    }
}

/// Parameters for starting a flow.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Resources crossed, in order. May be empty only for pure-delay flows,
    /// which is disallowed — use timers for pure delays.
    pub path: Vec<ResourceId>,
    /// Total units to transfer.
    pub volume: f64,
    /// Fairness weight (1.0 = one CPU core's worth of demand).
    pub weight: f64,
    /// Optional rate cap in units/s (roofline compute bound, PIO copy rate…).
    pub cap: Option<f64>,
    /// Opaque tag returned on completion.
    pub tag: u64,
}

/// Structure-of-arrays flow slab: every per-flow field lives in its own
/// contiguous vector, all indexed by slot number. The solver's inner loops
/// (weight re-sums, cap scans, rate write-back) walk flat `f64` arrays
/// instead of chasing per-flow allocations, and `elapse` and the
/// next-completion scan walk whole columns, free slots included.
/// Freed slots are reused via `FluidNet::free`; `id[slot] == FREE_SLOT`
/// marks a free slot (sequence numbers are never reused, so `id[slot]`
/// also tells a [`FlowId`] whether the slot still holds its flow), and a
/// free slot holds rate 0, remaining +∞ and no cap, so a column walk never
/// advances, finishes or stall-accounts it.
#[derive(Default)]
pub(crate) struct FlowArena {
    /// `seq` of the slot's occupant's [`FlowId`], or [`FREE_SLOT`].
    pub id: Vec<u64>,
    /// Resources crossed, in path order (may contain duplicates).
    pub path: Vec<Vec<ResourceId>>,
    /// Units left; +∞ in a free slot.
    pub remaining: Vec<f64>,
    pub weight: Vec<f64>,
    pub cap: Vec<Option<f64>>,
    /// Allocated rate; 0 in a free slot.
    pub rate: Vec<f64>,
    pub tag: Vec<u64>,
    /// Seconds spent rate-limited below the cap (memory-stall accounting).
    pub stalled: Vec<f64>,
    /// Seconds since the flow started.
    pub elapsed: Vec<f64>,
}

/// `FlowArena::id` value marking a free slot.
pub(crate) const FREE_SLOT: u64 = u64::MAX;

impl FlowArena {
    /// Number of slots (live + free).
    fn len(&self) -> usize {
        self.id.len()
    }

    /// Append one free slot, returning its number.
    fn push_free(&mut self) -> u32 {
        self.id.push(FREE_SLOT);
        self.path.push(Vec::new());
        self.remaining.push(f64::INFINITY);
        self.weight.push(0.0);
        self.cap.push(None);
        self.rate.push(0.0);
        self.tag.push(0);
        self.stalled.push(0.0);
        self.elapsed.push(0.0);
        (self.id.len() - 1) as u32
    }
}

/// Work done by one [`FluidNet::reallocate`] call: how many dirty connected
/// components were re-solved and how many flows they contained. Feeds the
/// `fluid.components` / `fluid.realloc_flows_visited` telemetry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReallocStats {
    /// Connected components re-solved.
    pub components: u64,
    /// Total flows across the re-solved components.
    pub flows_visited: u64,
    /// Components solved by the single-flow waterfill fast path (exact-bits
    /// shortcut of the progressive fill). Feeds the `fluid.waterfill`
    /// counter.
    pub waterfill: u64,
}

/// The set of resources and active flows, with max-min allocation.
pub struct FluidNet {
    /// [`ReferencePaths::solver`], read when the net is built: every
    /// [`FluidNet::reallocate`] then delegates to [`reference::reallocate`].
    reference: bool,
    resources: Vec<Resource>,
    /// Allocation and accounting columns, indexed like `resources`.
    res: ResourceCols,
    /// Flow slab in structure-of-arrays layout; freed slots are reused via
    /// `free`. A [`FlowId`] carries its slot, and `arena.id[slot]` confirms
    /// the slot still holds it.
    arena: FlowArena,
    free: Vec<u32>,
    /// Number of live flows.
    live: usize,
    /// Live flows with a cap (stall accounting runs only while nonzero).
    capped: usize,
    /// Inverse index: `members[r]` = slots of flows whose path crosses `r`,
    /// each listed once, in ascending [`FlowId`] order.
    members: Vec<Vec<u32>>,
    /// Per-resource dirty bit + list of dirty resources (realloc seeds).
    res_dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    /// Epoch-stamped visit marks for the component BFS (no per-call zeroing).
    res_mark: Vec<u64>,
    slot_mark: Vec<u64>,
    epoch: u64,
    next_flow: u64,
    dirty: bool,
    /// Buffers every re-solve reuses.
    scratch: Scratch,
}

/// Buffers every [`FluidNet::reallocate`] reuses: the component walk's
/// lists, the fill loop's working columns and the solution. Each is
/// cleared and refilled per component (the local positions are rewritten
/// for the component's own resources and slots, the only entries it
/// reads), so nothing carries over from one component to the next, and a
/// re-solve allocates only when a component outgrows every earlier one.
#[derive(Default)]
struct Scratch {
    /// Resources of the component being solved, ascending: read out of
    /// `res_bits` once walked.
    comp_res: Vec<u32>,
    /// One bit per resource the walk pops; the readout clears every word
    /// it reads, so all words are zero between components.
    res_bits: Vec<u64>,
    /// Slots of the component being solved (by ascending id once walked).
    comp_slots: Vec<u32>,
    /// Stack of the component walk.
    queue: Vec<u32>,
    fill: FillBuffers,
    sol: RegionSolution,
    /// Debug builds' copies of the walked resources and slots, sorted to
    /// re-check the bitset readout and the slot order.
    #[cfg(debug_assertions)]
    walked: (Vec<u32>, Vec<u32>),
    /// Components whose slots were sorted by id (test-only engagement
    /// count; the others copied a spanning member list).
    #[cfg(test)]
    slot_sorts: u32,
}

/// Snapshot of a finished or cancelled flow.
#[derive(Clone, Debug)]
pub struct FlowReport {
    /// The tag the flow was started with.
    pub tag: u64,
    /// Wall-clock seconds the flow was active.
    pub elapsed: f64,
    /// Seconds the flow spent below its cap (0 if it had no cap).
    pub stalled: f64,
    /// Units left (0 for completed flows).
    pub remaining: f64,
}

/// Set `r`'s dirty bit and queue it as a realloc seed (free function so it
/// can run under field-level borrows of the flow slab).
fn mark_res(res_dirty: &mut [bool], dirty_list: &mut Vec<u32>, r: ResourceId) {
    let ri = r.index();
    if !res_dirty[ri] {
        res_dirty[ri] = true;
        dirty_list.push(r.0);
    }
}

impl Default for FluidNet {
    fn default() -> Self {
        FluidNet::new()
    }
}

impl FluidNet {
    /// Create an empty network on this thread's [`ReferencePaths::solver`].
    pub fn new() -> Self {
        FluidNet {
            reference: ReferencePaths::current().solver,
            resources: Vec::new(),
            res: ResourceCols::default(),
            arena: FlowArena::default(),
            free: Vec::new(),
            live: 0,
            capped: 0,
            members: Vec::new(),
            res_dirty: Vec::new(),
            dirty_list: Vec::new(),
            res_mark: Vec::new(),
            slot_mark: Vec::new(),
            epoch: 0,
            next_flow: 0,
            dirty: false,
            scratch: Scratch::default(),
        }
    }

    /// Add a resource with the given capacity (units/s).
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(capacity >= 0.0 && capacity.is_finite(), "bad capacity");
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
        });
        self.res.push();
        self.members.push(Vec::new());
        self.res_dirty.push(false);
        self.res_mark.push(0);
        id
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.resources[r.index()].capacity
    }

    /// Change a resource's capacity (frequency scaling). Marks allocation dirty.
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite(), "bad capacity");
        let ri = r.index();
        if self.resources[ri].capacity != capacity {
            self.resources[ri].capacity = capacity;
            // The allocation stays until the next re-solve; its utilization
            // follows the new capacity at once.
            self.res.util[ri] = utilization(self.res.allocated[ri], capacity);
            mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            self.dirty = true;
        }
    }

    /// Current total allocated rate on a resource (after the last realloc).
    pub fn allocated(&self, r: ResourceId) -> f64 {
        self.res.allocated[r.index()]
    }

    /// Utilization in [0,1] given current allocation.
    pub fn utilization(&self, r: ResourceId) -> f64 {
        self.res.util[r.index()]
    }

    /// *Demand-side* pressure on a resource: sum of what flows crossing it
    /// would consume if unconstrained (their cap, or weight-proportional
    /// elastic demand approximated by capacity). Used by the congestion
    /// latency model, where queueing grows with offered load, not with
    /// (saturated) throughput.
    pub fn demand(&self, r: ResourceId) -> f64 {
        let cap_r = self.resources[r.index()].capacity;
        self.members[r.index()]
            .iter()
            .map(|&s| self.arena.cap[s as usize].unwrap_or(cap_r))
            .sum()
    }

    /// Cumulative units delivered through a resource.
    pub fn delivered(&self, r: ResourceId) -> f64 {
        self.res.delivered[r.index()]
    }

    /// Integral of utilization (seconds at 100 %).
    pub fn busy_integral(&self, r: ResourceId) -> f64 {
        self.res.busy_integral[r.index()]
    }

    /// Start a flow; the allocation is recomputed lazily.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(
            !spec.path.is_empty(),
            "flow must cross at least one resource"
        );
        assert!(spec.volume > 0.0 && spec.volume.is_finite(), "bad volume");
        assert!(spec.weight > 0.0 && spec.weight.is_finite(), "bad weight");
        if let Some(c) = spec.cap {
            assert!(c > 0.0 && c.is_finite(), "bad cap");
        }
        for &r in &spec.path {
            assert!(r.index() < self.resources.len(), "unknown resource");
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slot_mark.push(0);
                self.arena.push_free()
            }
        };
        let id = FlowId {
            seq: self.next_flow,
            slot,
        };
        self.next_flow += 1;
        for &r in &spec.path {
            mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            let m = &mut self.members[r.index()];
            // A path may cross a resource twice; index it once. The flow
            // being added always sits at the tail (ids are monotone).
            if m.last() != Some(&slot) {
                m.push(slot);
            }
        }
        let si = slot as usize;
        self.arena.id[si] = id.seq;
        // Reuse the slot's previous path buffer instead of replacing it.
        let dst = &mut self.arena.path[si];
        dst.clear();
        dst.extend_from_slice(&spec.path);
        self.arena.remaining[si] = spec.volume;
        self.arena.weight[si] = spec.weight;
        self.arena.cap[si] = spec.cap;
        self.arena.rate[si] = 0.0;
        self.arena.tag[si] = spec.tag;
        self.arena.stalled[si] = 0.0;
        self.arena.elapsed[si] = 0.0;
        self.capped += usize::from(spec.cap.is_some());
        self.live += 1;
        self.dirty = true;
        id
    }

    /// Change a flow's rate cap (frequency changed mid-phase). A cap must be
    /// positive and finite, as in [`FluidNet::start_flow`].
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) {
        if let Some(c) = cap {
            assert!(c > 0.0 && c.is_finite(), "bad cap");
        }
        let Some(si) = self.live_slot(id) else {
            return;
        };
        if self.arena.cap[si] != cap {
            self.capped = self.capped + usize::from(cap.is_some())
                - usize::from(self.arena.cap[si].is_some());
            self.arena.cap[si] = cap;
            for &r in &self.arena.path[si] {
                mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            }
            self.dirty = true;
        }
    }

    /// Unlink `slot` from the inverse index, marking its path dirty, and
    /// park it as a free slot (rate 0, remaining +∞, no cap).
    /// The slot must be live. Returns the flow's report with its actual
    /// remaining volume (completions overwrite it with 0). The slot's path
    /// buffer is kept for reuse.
    fn detach_slot(&mut self, slot: u32) -> FlowReport {
        let si = slot as usize;
        let path = std::mem::take(&mut self.arena.path[si]);
        let id = self.arena.id[si];
        for &r in &path {
            mark_res(&mut self.res_dirty, &mut self.dirty_list, r);
            let ids = &self.arena.id;
            let m = &mut self.members[r.index()];
            // Duplicate path entries: only the first occurrence still finds it.
            if let Ok(p) = m.binary_search_by_key(&id, |&s| ids[s as usize]) {
                m.remove(p);
            }
        }
        let a = &mut self.arena;
        let report = FlowReport {
            tag: a.tag[si],
            elapsed: a.elapsed[si],
            stalled: a.stalled[si],
            remaining: a.remaining[si],
        };
        a.path[si] = path;
        a.id[si] = FREE_SLOT;
        a.rate[si] = 0.0;
        a.remaining[si] = f64::INFINITY;
        self.capped -= usize::from(a.cap[si].take().is_some());
        self.live -= 1;
        self.free.push(slot);
        self.dirty = true;
        report
    }

    /// The slot of `id` while it holds that flow: one comparison of the
    /// slot's occupant with the id's sequence number.
    fn live_slot(&self, id: FlowId) -> Option<usize> {
        let si = id.slot as usize;
        (self.arena.id.get(si) == Some(&id.seq)).then_some(si)
    }

    /// Remove a flow before completion; returns its report if it existed.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<FlowReport> {
        let si = self.live_slot(id)?;
        Some(self.detach_slot(si as u32))
    }

    /// Rate cap of a live flow (`None` if the flow is gone).
    pub fn flow_cap(&self, id: FlowId) -> Option<Option<f64>> {
        Some(self.arena.cap[self.live_slot(id)?])
    }

    /// Rate of a flow under the current allocation.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        Some(self.arena.rate[self.live_slot(id)?])
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.live
    }

    /// Live slots in ascending [`FlowId`] order: a scan of the id column,
    /// sorted on demand. Only diagnostics and the reference solver iterate
    /// flows by id.
    fn live_slots(&self) -> Vec<u32> {
        let ids = &self.arena.id;
        let mut live: Vec<u32> = (0..ids.len() as u32)
            .filter(|&s| ids[s as usize] != FREE_SLOT)
            .collect();
        live.sort_unstable_by_key(|&s| ids[s as usize]);
        live
    }

    /// True if the allocation must be recomputed before use.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Recompute the weighted max-min fair allocation (progressive filling).
    ///
    /// Incremental: only connected components containing a dirty resource
    /// are re-solved; everything else keeps its cached rates. The result is
    /// bit-identical to the from-scratch [`reference::reallocate`].
    pub fn reallocate(&mut self) -> ReallocStats {
        if self.reference {
            return reference::reallocate(self);
        }
        self.dirty = false;
        let mut stats = ReallocStats::default();
        if self.dirty_list.is_empty() {
            return stats;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        // Nothing below marks a resource dirty, so the list comes back
        // empty, with its buffer, once the seeds are walked.
        let mut seeds = std::mem::take(&mut self.dirty_list);
        let Scratch {
            comp_res,
            res_bits,
            comp_slots,
            queue,
            fill,
            sol,
            #[cfg(debug_assertions)]
            walked,
            #[cfg(test)]
            slot_sorts,
        } = &mut self.scratch;
        res_bits.resize(self.resources.len().div_ceil(64), 0);
        // Each dirty component is solved as soon as it is found. Finding
        // one reads only member lists, paths and visit marks, never rates
        // or allocations, so solving early cannot change what later seeds
        // discover.
        for &seed in &seeds {
            self.res_dirty[seed as usize] = false;
            if self.res_mark[seed as usize] == epoch {
                continue; // already solved as part of an earlier seed's component
            }
            comp_res.clear();
            comp_slots.clear();
            #[cfg(debug_assertions)]
            walked.0.clear();
            // The lowest and highest resource walked, and the longest
            // member list among the walked resources.
            let (mut lo, mut hi) = (seed, seed);
            let mut hub: &[u32] = &[];
            self.res_mark[seed as usize] = epoch;
            queue.push(seed);
            while let Some(r) = queue.pop() {
                res_bits[r as usize >> 6] |= 1 << (r & 63);
                (lo, hi) = (lo.min(r), hi.max(r));
                #[cfg(debug_assertions)]
                walked.0.push(r);
                let members = &self.members[r as usize];
                if members.len() > hub.len() {
                    hub = members;
                }
                for &s in members {
                    if self.slot_mark[s as usize] == epoch {
                        continue;
                    }
                    self.slot_mark[s as usize] = epoch;
                    comp_slots.push(s);
                    for &pr in &self.arena.path[s as usize] {
                        if self.res_mark[pr.index()] != epoch {
                            self.res_mark[pr.index()] = epoch;
                            queue.push(pr.0);
                        }
                    }
                }
            }
            // Canonical orders (the walk's discovery order depends on the
            // traversal). Resources: the set bits, ascending, each word
            // cleared as it is read.
            for (wi, word) in (lo >> 6..).zip(&mut res_bits[lo as usize >> 6..=hi as usize >> 6]) {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    comp_res.push((wi << 6) | bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            if comp_slots.is_empty() {
                // Dirty resource with no flows left: just clear its allocation.
                let s = seed as usize;
                self.res.set_allocated(s, 0.0, self.resources[s].capacity);
                continue;
            }
            #[cfg(debug_assertions)]
            walked.1.clone_from(comp_slots);
            // Slots by id: a member list that holds as many flows as the
            // component holds them all (each flow is listed once, and every
            // member of a walked resource was walked), already by id.
            let ids = &self.arena.id;
            if hub.len() == comp_slots.len() {
                comp_slots.clear();
                comp_slots.extend_from_slice(hub);
            } else {
                comp_slots.sort_unstable_by_key(|&s| ids[s as usize]);
                #[cfg(test)]
                {
                    *slot_sorts += 1;
                }
            }
            #[cfg(debug_assertions)]
            {
                let (res, slots) = walked;
                res.sort_unstable();
                slots.sort_unstable_by_key(|&s| ids[s as usize]);
                debug_assert_eq!(res, comp_res, "bitset readout");
                debug_assert_eq!(slots, comp_slots, "slot order");
            }
            stats.components += 1;
            stats.flows_visited += comp_slots.len() as u64;
            solve_region(
                &self.resources,
                &self.arena,
                &self.members,
                comp_res,
                comp_slots,
                fill,
                sol,
            );
            stats.waterfill += u64::from(sol.waterfill);
            apply_region(
                &self.resources,
                &mut self.res,
                &mut self.arena,
                comp_res,
                comp_slots,
                sol,
            );
        }
        debug_assert!(self.dirty_list.is_empty());
        seeds.clear();
        self.dirty_list = seeds;
        stats
    }

    /// Advance all flows by `dt` seconds at their current rates, returning
    /// reports for completed flows (in deterministic id order).
    ///
    /// The caller must ensure `dt` does not overshoot any completion (the
    /// engine picks `dt` = time to the earliest event).
    pub fn elapse(&mut self, dt: f64) -> Vec<FlowReport> {
        debug_assert!(dt >= 0.0);
        if dt > 0.0 {
            let c = &mut self.res;
            for (d, &a) in c.delivered.iter_mut().zip(&c.allocated) {
                *d += a * dt;
            }
            for (b, &u) in c.busy_integral.iter_mut().zip(&c.util) {
                *b += u * dt;
            }
        }
        // Whole columns, free slots included: they hold rate 0, remaining
        // +∞ and no cap, so nothing below moves or finishes them.
        let a = &mut self.arena;
        if self.capped > 0 {
            for ((stalled, &rate), cap) in a.stalled.iter_mut().zip(&a.rate).zip(&a.cap) {
                if let Some(c) = *cap {
                    if rate < c * (1.0 - 1e-9) {
                        *stalled += dt * (1.0 - rate / c).clamp(0.0, 1.0);
                    }
                }
            }
        }
        // The finish test rides the decrement as a count, which keeps the
        // loop branch-free; only an instant that finishes a flow walks the
        // column again to list them.
        let mut finishing = 0usize;
        let cols = a
            .elapsed
            .iter_mut()
            .zip(a.remaining.iter_mut())
            .zip(&a.rate);
        for ((elapsed, remaining), &rate) in cols {
            *elapsed += dt;
            *remaining -= rate * dt;
            // Tolerate float fuzz: treat within 1e-6 units as done.
            finishing += usize::from(*remaining <= 1e-6);
        }
        if finishing == 0 {
            return Vec::new();
        }
        let mut finished = Vec::with_capacity(finishing);
        finished.extend((0..a.len() as u32).filter(|&s| a.remaining[s as usize] <= 1e-6));
        finished.sort_unstable_by_key(|&s| a.id[s as usize]);
        let mut done = Vec::with_capacity(finished.len());
        for &s in &finished {
            let mut rep = self.detach_slot(s);
            rep.remaining = 0.0;
            done.push(rep);
        }
        done
    }

    /// Snapshot of every active flow as `(tag, remaining, rate)`, in id
    /// order. Used by the engine's stall diagnostics.
    pub fn flow_snapshots(&self) -> Vec<(u64, f64, f64)> {
        self.live_slots()
            .into_iter()
            .map(|s| {
                let si = s as usize;
                (
                    self.arena.tag[si],
                    self.arena.remaining[si],
                    self.arena.rate[si],
                )
            })
            .collect()
    }

    /// Seconds until the earliest flow completion at current rates: the
    /// least `remaining / rate` over flows with a positive rate (free slots
    /// have rate 0).
    pub fn time_to_next_completion(&self) -> Option<f64> {
        let a = &self.arena;
        a.rate
            .iter()
            .zip(&a.remaining)
            .filter(|&(&rate, _)| rate > 0.0)
            .map(|(&rate, &remaining)| remaining / rate)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"))
    }
}

/// A solved component, local to its `comp_res`/`comp_slots` ordering:
/// `rate[i]` for the i-th component slot, `alloc[lr]` for the lr-th
/// component resource. Filled by [`solve_region`] (which touches no net
/// state) and written back by [`apply_region`] — the split lets the
/// waterfill parity test compare the solvers' outputs without a net.
#[derive(Default)]
struct RegionSolution {
    rate: Vec<f64>,
    alloc: Vec<f64>,
    /// Solved by the single-flow waterfill fast path.
    waterfill: bool,
}

/// Waterfill fast path for a one-flow component: the progressive fill
/// collapses to its first round — the flow runs at `weight × min over its
/// resources of capacity / weight`, or at its cap if that binds first.
///
/// Every expression below is copied verbatim from the corresponding
/// general-loop round (same `max(0.0)` clamps, same `- level` with `level
/// = 0.0`, same strict-`<` first-min scan in ascending resource order), so
/// the returned rate is exact-bits identical to what either progressive
/// filling loop ([`solve_general`], [`reference::solve_general`]) would
/// produce — a unit test compares all three bitwise. Both the production
/// and the reference solve dispatch one-flow components here.
fn solve_singleton(
    resources: &[Resource],
    arena: &FlowArena,
    comp_res: &[u32],
    comp_slots: &[u32],
    sol: &mut RegionSolution,
) {
    let si = comp_slots[0] as usize;
    let w0 = arena.weight[si];
    // A closed one-flow component lists exactly the flow's resources, each
    // with unfrozen weight w0 (> 0: `start_flow` asserts it).
    let mut best_dlevel = f64::INFINITY;
    for &r in comp_res {
        let dlevel = resources[r as usize].capacity.max(0.0) / w0;
        if dlevel < best_dlevel {
            best_dlevel = dlevel;
        }
    }
    let cap_dlevel = match arena.cap[si] {
        Some(c) => (c / w0 - 0.0).max(0.0),
        None => f64::INFINITY,
    };
    let rate0 = if best_dlevel == f64::INFINITY && cap_dlevel == f64::INFINITY {
        w0 * 0.0
    } else if cap_dlevel < best_dlevel {
        arena.cap[si].expect("capped")
    } else {
        w0 * (0.0 + best_dlevel)
    };
    sol.alloc.clear();
    sol.alloc.resize(comp_res.len(), 0.0);
    for &r in &arena.path[si] {
        let lr = comp_res.binary_search(&r.0).expect("closed component");
        sol.alloc[lr] += rate0;
    }
    sol.rate.clear();
    sol.rate.push(rate0);
    sol.waterfill = true;
}

/// Solve one connected component by progressive filling into `sol`: its
/// rates and per-resource allocations, without touching shared state.
///
/// `comp_res` must be sorted ascending, `comp_slots` sorted by ascending
/// [`FlowId`], and together they must form a closed component: every
/// resource crossed by a listed flow is listed, and every flow crossing a
/// listed resource is listed. `members` is the net's inverse index.
fn solve_region(
    resources: &[Resource],
    arena: &FlowArena,
    members: &[Vec<u32>],
    comp_res: &[u32],
    comp_slots: &[u32],
    fill: &mut FillBuffers,
    sol: &mut RegionSolution,
) {
    if comp_slots.len() == 1 {
        solve_singleton(resources, arena, comp_res, comp_slots, sol);
    } else {
        solve_general(resources, arena, members, comp_res, comp_slots, fill, sol);
    }
}

/// The progressive-filling loop for components of two or more flows,
/// bit-identical to the plain loop kept in [`reference`] (the
/// `prop_fluid_equiv` suite compares the two bitwise). It does the plain
/// loop's arithmetic in the same order and skips only work whose result
/// is already known:
///
/// * **Same-level tie cascade.** After a round whose minimum `dlevel` is
///   0.0, the plain loop's next rounds freeze, one per round, the first
///   resource that still scores 0.0: `level` is bit-unchanged,
///   `headroom -= w·0.0` changes at most the sign of an exact zero (which
///   never reaches a rate), and a cap round would need a `cap_dlevel`
///   below 0.0. Freezing only shrinks `w`, so only resources that scored
///   0.0 in this round's scan can score 0.0 again. This loop visits them
///   in ascending order in the same round, re-sums each, and freezes it
///   if it still has weight and still scores 0.0. The re-check is
///   required: a subnormal headroom whose `headroom / w` underflowed to
///   0.0 scores above 0.0 once one of its flows freezes elsewhere.
/// * **Cap-tie cascade.** When a cap wins a round at increment 0.0, every
///   resource scored above 0.0 (so every `w` is finite), and the plain
///   loop's next rounds freeze, one per round and at its cap, the first
///   unfrozen flow that scored 0.0 in this round's cap scan: `level` and
///   every `headroom` keep their bits (`x - w·0.0 == x`), so each listed
///   flow still scores 0.0, and a re-summed `w` adds fewer positive
///   weights in the same order, so it is never larger and every resource
///   still scores above 0.0. This loop freezes all of them, in ascending
///   order, in the same round.
/// * **One re-sum per touched resource per round.** A re-sum reads only
///   `frozen` and the weights, so re-summing each touched resource once
///   after the round's freezes gives the bits the plain loop's re-sum per
///   (frozen flow, path resource) pair gives.
/// * **No bookkeeping after the last round.** A round only records the
///   flows it freezes, in `newly_frozen`; the resources they cross are
///   listed in `touched` and re-summed after the round, and only if flows
///   are still unfrozen: nothing after the loop reads `w`, `touched` or
///   `is_touched`.
/// * **No copies.** The loop reads the net's own columns: `members[r]`
///   lists each flow crossing `r` once, by ascending id, which is the
///   plain loop's local member order, and weights, caps and paths are read
///   by slot. `res_local` and `slot_local` map a resource or slot to its
///   position in the component; they are written for each solve, and a
///   closed component reads no entry it did not write. A path that crosses
///   a resource twice touches it once, through `is_touched`.
fn solve_general(
    resources: &[Resource],
    arena: &FlowArena,
    members: &[Vec<u32>],
    comp_res: &[u32],
    comp_slots: &[u32],
    fill: &mut FillBuffers,
    sol: &mut RegionSolution,
) {
    let nf = comp_slots.len();
    let nr = comp_res.len();
    debug_assert!(nf > 0 && nr > 0);
    let FillBuffers {
        res_local,
        slot_local,
        frozen,
        headroom,
        w,
        zeros,
        cap_zeros,
        newly_frozen,
        touched,
        is_touched,
        active_res,
        active_cap_flows,
        #[cfg(test)]
        rounds,
        #[cfg(test)]
        resums,
    } = fill;
    let RegionSolution {
        rate,
        alloc,
        waterfill,
    } = sol;

    res_local.resize(resources.len(), 0);
    for (lr, &r) in comp_res.iter().enumerate() {
        res_local[r as usize] = lr as u32;
    }
    slot_local.resize(arena.len(), 0);
    for (i, &s) in comp_slots.iter().enumerate() {
        slot_local[s as usize] = i as u32;
    }
    let (res_local, slot_local) = (&*res_local, &*slot_local);
    let slot = |i: u32| comp_slots[i as usize] as usize;

    // Unfrozen weight sum per resource. Kept current across rounds by
    // *re-summing in id order* the resources touched by a round's freezes —
    // not by subtracting the frozen weight — so every round sees exactly
    // the bits a from-scratch summation would produce (f64 addition is not
    // associative; `(a+b+c)-a != b+c`). See DESIGN.md §10.
    let resum = |lr: usize, frozen: &[bool]| -> f64 {
        members[comp_res[lr] as usize]
            .iter()
            .filter(|&&s| !frozen[slot_local[s as usize] as usize])
            .map(|&s| arena.weight[s as usize])
            .sum()
    };

    frozen.clear();
    frozen.resize(nf, false);
    rate.clear();
    rate.resize(nf, 0.0);
    headroom.clear();
    headroom.extend(comp_res.iter().map(|&r| resources[r as usize].capacity));
    w.clear();
    w.extend((0..nr).map(|lr| resum(lr, frozen)));
    let mut unfrozen = nf;
    let mut level = 0.0f64;
    // Resources crossed by a flow frozen this round, each listed once.
    touched.clear();
    is_touched.clear();
    is_touched.resize(nr, false);

    // Active scan lists, compacted as the fill proceeds: a resource whose
    // unfrozen weight reached 0.0 can never become a candidate again
    // (weights are strictly positive and only leave `w` by freezing), nor
    // can a frozen flow. Retention is stable, so the surviving candidates
    // are visited in the same ascending order as the full `0..nr` / `0..nf`
    // scans — same first-strict-min tie-breaks, same arithmetic, skipping
    // only iterations the full scans would `continue` past. Dropping a
    // zero-weight resource from the headroom update is equally exact:
    // `headroom -= 0.0 * dl` is a no-op for every finite `dl`.
    active_res.clear();
    active_res.extend(0..nr as u32);
    active_cap_flows.clear();
    active_cap_flows.extend((0..nf as u32).filter(|&i| arena.cap[slot(i)].is_some()));

    while unfrozen > 0 {
        #[cfg(test)]
        {
            *rounds += 1;
        }
        active_res.retain(|&lr| w[lr as usize] > 0.0);
        active_cap_flows.retain(|&i| !frozen[i as usize]);
        // For each resource, the level increment at which it saturates;
        // `zeros`, and `cap_zeros` below, list those that score 0.0.
        let mut best_dlevel = f64::INFINITY;
        let mut bottleneck: Option<usize> = None;
        zeros.clear();
        for &lr in active_res.iter() {
            let l = lr as usize;
            let dlevel = (headroom[l].max(0.0)) / w[l];
            if dlevel < best_dlevel {
                best_dlevel = dlevel;
                bottleneck = Some(l);
            }
            if dlevel == 0.0 {
                zeros.push(lr);
            }
        }
        // Flow caps: flow i freezes when level reaches cap/weight.
        let mut cap_dlevel = f64::INFINITY;
        let mut cap_flow: Option<usize> = None;
        cap_zeros.clear();
        for &i in active_cap_flows.iter() {
            let s = slot(i);
            if let Some(c) = arena.cap[s] {
                let dl = (c / arena.weight[s] - level).max(0.0);
                if dl < cap_dlevel {
                    cap_dlevel = dl;
                    cap_flow = Some(i as usize);
                }
                if dl == 0.0 {
                    cap_zeros.push(i);
                }
            }
        }

        if best_dlevel == f64::INFINITY && cap_dlevel == f64::INFINITY {
            // No constraint at all (can't happen: every flow crosses a
            // finite-capacity resource) — freeze everything at current level.
            for i in 0..nf {
                if !frozen[i] {
                    frozen[i] = true;
                    rate[i] = arena.weight[slot(i as u32)] * level;
                }
            }
            break;
        }

        let dl = if cap_dlevel < best_dlevel {
            cap_dlevel
        } else {
            best_dlevel
        };
        level += dl;
        for &lr in active_res.iter() {
            let lr = lr as usize;
            headroom[lr] -= w[lr] * dl;
        }
        // Freeze local flow `i` at rate `r`.
        newly_frozen.clear();
        let mut freeze = |i: usize, r: f64, frozen: &mut [bool]| {
            frozen[i] = true;
            rate[i] = r;
            unfrozen -= 1;
            newly_frozen.push(i as u32);
        };
        if cap_dlevel < best_dlevel {
            // Flows reach their caps: `cap_flow`, which is `cap_zeros[0]`
            // when `dl` is 0.0, and then every later cap-scan zero.
            let cap = |i: usize| arena.cap[slot(i as u32)].expect("capped");
            let i = cap_flow.expect("cap flow set");
            freeze(i, cap(i), frozen);
            if dl == 0.0 {
                for &z in &cap_zeros[1..] {
                    freeze(z as usize, cap(z as usize), frozen);
                }
            }
        } else {
            // A resource saturates: the bottleneck, which is `zeros[0]` when
            // `dl` is 0.0, and then every later scan zero that still scores
            // 0.0 after the freezes before it.
            let mut freeze_res = |lr: usize, frozen: &mut [bool]| {
                for &s in &members[comp_res[lr] as usize] {
                    let i = slot_local[s as usize] as usize;
                    if !frozen[i] {
                        freeze(i, arena.weight[s as usize] * level, frozen);
                    }
                }
            };
            freeze_res(bottleneck.expect("bottleneck set"), frozen);
            if dl == 0.0 {
                for &z in &zeros[1..] {
                    let z = z as usize;
                    let wz = resum(z, frozen);
                    if wz > 0.0 && headroom[z].max(0.0) / wz == 0.0 {
                        freeze_res(z, frozen);
                    }
                }
            }
        }
        // Nothing after the loop reads `w`, `touched` or `is_touched`.
        if unfrozen == 0 {
            break;
        }
        // Refresh the weight sums of every resource a newly frozen flow
        // crosses, once each.
        for &i in newly_frozen.iter() {
            for &pr in &arena.path[slot(i)] {
                let lr = res_local[pr.index()] as usize;
                if !is_touched[lr] {
                    is_touched[lr] = true;
                    touched.push(lr as u32);
                }
            }
        }
        for &lr in touched.iter() {
            is_touched[lr as usize] = false;
            w[lr as usize] = resum(lr as usize, frozen);
        }
        #[cfg(test)]
        {
            *resums += touched.len() as u32;
        }
        touched.clear();
    }

    // Per-occurrence allocation sums on the component's resources (a path
    // crossing a resource twice counts twice), accumulated from 0.0 in the
    // exact (flow, path-occurrence) order the serial write-back always used
    // — f64 addition is order-sensitive, so this order is the contract.
    alloc.clear();
    alloc.resize(nr, 0.0);
    for (i, &s) in comp_slots.iter().enumerate() {
        for &r in &arena.path[s as usize] {
            alloc[res_local[r.index()] as usize] += rate[i];
        }
    }
    *waterfill = false;
}

/// Working state of [`solve_general`], reused across components: the local
/// positions it writes for each solve, and the fill loop's columns. The
/// comments there say what each holds.
#[derive(Default)]
struct FillBuffers {
    res_local: Vec<u32>,
    slot_local: Vec<u32>,
    frozen: Vec<bool>,
    headroom: Vec<f64>,
    w: Vec<f64>,
    zeros: Vec<u32>,
    cap_zeros: Vec<u32>,
    newly_frozen: Vec<u32>,
    touched: Vec<u32>,
    is_touched: Vec<bool>,
    active_res: Vec<u32>,
    active_cap_flows: Vec<u32>,
    /// Rounds of the fill loop, summed over every solve.
    #[cfg(test)]
    rounds: u32,
    /// Round-end re-sums, summed over every solve.
    #[cfg(test)]
    resums: u32,
}

/// Write a solved component back: rates on the flows, allocation totals
/// (and their utilization) on the component's resources.
fn apply_region(
    resources: &[Resource],
    cols: &mut ResourceCols,
    arena: &mut FlowArena,
    comp_res: &[u32],
    comp_slots: &[u32],
    sol: &RegionSolution,
) {
    for (lr, &r) in comp_res.iter().enumerate() {
        let r = r as usize;
        cols.set_allocated(r, sol.alloc[lr], resources[r].capacity);
    }
    for (i, &s) in comp_slots.iter().enumerate() {
        arena.rate[s as usize] = sol.rate[i];
    }
}

/// From-scratch solver retained as the equivalence oracle for the
/// incremental [`FluidNet::reallocate`].
///
/// It ignores all of the net's cached bookkeeping — inverse index, dirty
/// bits, component marks, local resource index — and rebuilds the
/// flow↔resource adjacency and the component decomposition from the flow
/// paths alone, then solves each component with the plain
/// progressive-filling loop, one freeze per round. Any bug in the
/// incremental maintenance (a stale member list, a missed dirty bit, a
/// component split too early) or in the production loop's shortcuts shows
/// up as a bitwise rate mismatch in the `prop_fluid_equiv` suite.
pub mod reference {
    use super::*;

    /// Re-solve the whole net from scratch. Clears all dirty state.
    pub fn reallocate(net: &mut FluidNet) -> ReallocStats {
        net.dirty = false;
        for d in &mut net.res_dirty {
            *d = false;
        }
        net.dirty_list.clear();
        for (r, res) in net.resources.iter().enumerate() {
            net.res.set_allocated(r, 0.0, res.capacity);
        }
        let n = net.resources.len();
        // Live slots in ascending id order, from a scan of the id column.
        let live = net.live_slots();
        // Adjacency rebuilt from paths alone.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &s in &live {
            for &r in &net.arena.path[s as usize] {
                let m = &mut members[r.index()];
                if m.last() != Some(&s) {
                    m.push(s);
                }
            }
        }
        let mut res_seen = vec![false; n];
        let mut slot_seen = vec![false; net.arena.len()];
        let mut stats = ReallocStats::default();
        let mut comp_res: Vec<u32> = Vec::new();
        let mut comp_slots: Vec<u32> = Vec::new();
        let mut queue: Vec<u32> = Vec::new();
        for seed in 0..n {
            if res_seen[seed] || members[seed].is_empty() {
                continue;
            }
            comp_res.clear();
            comp_slots.clear();
            queue.clear();
            res_seen[seed] = true;
            queue.push(seed as u32);
            while let Some(r) = queue.pop() {
                comp_res.push(r);
                for &s in &members[r as usize] {
                    if slot_seen[s as usize] {
                        continue;
                    }
                    slot_seen[s as usize] = true;
                    comp_slots.push(s);
                    for &pr in &net.arena.path[s as usize] {
                        if !res_seen[pr.index()] {
                            res_seen[pr.index()] = true;
                            queue.push(pr.0);
                        }
                    }
                }
            }
            comp_res.sort_unstable();
            let ids = &net.arena.id;
            comp_slots.sort_unstable_by_key(|&s| ids[s as usize]);
            stats.components += 1;
            stats.flows_visited += comp_slots.len() as u64;
            let sol = solve_region(&net.resources, &net.arena, &comp_res, &comp_slots);
            stats.waterfill += u64::from(sol.waterfill);
            apply_region(
                &net.resources,
                &mut net.res,
                &mut net.arena,
                &comp_res,
                &comp_slots,
                &sol,
            );
        }
        stats
    }

    /// Dispatch one component: the shared waterfill shortcut for a single
    /// flow, the plain loop otherwise.
    fn solve_region(
        resources: &[Resource],
        arena: &FlowArena,
        comp_res: &[u32],
        comp_slots: &[u32],
    ) -> RegionSolution {
        if comp_slots.len() == 1 {
            let mut sol = RegionSolution::default();
            solve_singleton(resources, arena, comp_res, comp_slots, &mut sol);
            return sol;
        }
        solve_general(resources, arena, comp_res, comp_slots)
    }

    /// The plain progressive-filling loop: one resource or capped flow
    /// frozen per round, its weight sums re-summed after every freeze, and
    /// the adjacency looked up by binary search. The production
    /// [`super::solve_general`] must match it bit for bit.
    pub(super) fn solve_general(
        resources: &[Resource],
        arena: &FlowArena,
        comp_res: &[u32],
        comp_slots: &[u32],
    ) -> RegionSolution {
        let nf = comp_slots.len();
        let nr = comp_res.len();
        debug_assert!(nf > 0 && nr > 0);

        // Component-local copies of the per-flow parameters, plus the local
        // adjacency in both directions. `lmembers[lr]` lists local flow indices
        // crossing local resource `lr` (ascending id, once per flow);
        // `fpath[i]` lists local resources flow `i` crosses (once each).
        let mut weight = vec![0.0f64; nf];
        let mut cap: Vec<Option<f64>> = vec![None; nf];
        let mut lmembers: Vec<Vec<u32>> = vec![Vec::new(); nr];
        let mut fpath: Vec<Vec<u32>> = vec![Vec::new(); nf];
        for (i, &s) in comp_slots.iter().enumerate() {
            let si = s as usize;
            weight[i] = arena.weight[si];
            cap[i] = arena.cap[si];
            for &r in &arena.path[si] {
                let lr = comp_res.binary_search(&r.0).expect("closed component") as u32;
                let lm = &mut lmembers[lr as usize];
                if lm.last() != Some(&(i as u32)) {
                    lm.push(i as u32);
                } else {
                    continue; // duplicate path entry, already indexed
                }
                fpath[i].push(lr);
            }
        }

        // Unfrozen weight sum per resource. Kept current across rounds by
        // *re-summing in id order* the resources touched by each freeze — not by
        // subtracting the frozen weight — so every round sees exactly the bits a
        // from-scratch summation would produce (f64 addition is not associative;
        // `(a+b+c)-a != b+c`). See DESIGN.md §10.
        let resum = |lm: &[u32], frozen: &[bool]| -> f64 {
            lm.iter()
                .filter(|&&i| !frozen[i as usize])
                .map(|&i| weight[i as usize])
                .sum()
        };

        let mut frozen = vec![false; nf];
        let mut rate = vec![0.0f64; nf];
        let mut headroom: Vec<f64> = comp_res
            .iter()
            .map(|&r| resources[r as usize].capacity)
            .collect();
        let mut w: Vec<f64> = lmembers.iter().map(|lm| resum(lm, &frozen)).collect();
        let mut unfrozen = nf;
        let mut level = 0.0f64;
        let mut newly_frozen: Vec<usize> = Vec::new();

        // Active scan lists, compacted as the fill proceeds: a resource whose
        // unfrozen weight reached 0.0 can never become a candidate again
        // (weights are strictly positive and only leave `w` by freezing), nor
        // can a frozen flow. Retention is stable, so the surviving candidates
        // are visited in the same ascending order as the full `0..nr` / `0..nf`
        // scans — same first-strict-min tie-breaks, same arithmetic, skipping
        // only iterations the full scans would `continue` past. Dropping a
        // zero-weight resource from the headroom update is equally exact:
        // `headroom -= 0.0 * dl` is a no-op for every finite `dl`.
        let mut active_res: Vec<u32> = (0..nr as u32).collect();
        let mut active_cap_flows: Vec<u32> = (0..nf as u32)
            .filter(|&i| cap[i as usize].is_some())
            .collect();

        while unfrozen > 0 {
            active_res.retain(|&lr| w[lr as usize] > 0.0);
            active_cap_flows.retain(|&i| !frozen[i as usize]);
            // For each resource, the level increment at which it saturates.
            let mut best_dlevel = f64::INFINITY;
            let mut bottleneck: Option<usize> = None;
            for &lr in &active_res {
                let lr = lr as usize;
                let dlevel = (headroom[lr].max(0.0)) / w[lr];
                if dlevel < best_dlevel {
                    best_dlevel = dlevel;
                    bottleneck = Some(lr);
                }
            }
            // Flow caps: flow i freezes when level reaches cap/weight.
            let mut cap_dlevel = f64::INFINITY;
            let mut cap_flow: Option<usize> = None;
            for &i in &active_cap_flows {
                let i = i as usize;
                if let Some(c) = cap[i] {
                    let dl = (c / weight[i] - level).max(0.0);
                    if dl < cap_dlevel {
                        cap_dlevel = dl;
                        cap_flow = Some(i);
                    }
                }
            }

            if best_dlevel == f64::INFINITY && cap_dlevel == f64::INFINITY {
                // No constraint at all (can't happen: every flow crosses a
                // finite-capacity resource) — freeze everything at current level.
                for i in 0..nf {
                    if !frozen[i] {
                        frozen[i] = true;
                        rate[i] = weight[i] * level;
                    }
                }
                break;
            }

            if cap_dlevel < best_dlevel {
                // A flow reaches its cap first.
                let dl = cap_dlevel;
                level += dl;
                for &lr in &active_res {
                    let lr = lr as usize;
                    headroom[lr] -= w[lr] * dl;
                }
                let i = cap_flow.expect("cap flow set");
                frozen[i] = true;
                rate[i] = cap[i].expect("capped");
                unfrozen -= 1;
                for &lr in &fpath[i] {
                    w[lr as usize] = resum(&lmembers[lr as usize], &frozen);
                }
            } else {
                // A resource saturates.
                let dl = best_dlevel;
                level += dl;
                for &lr in &active_res {
                    let lr = lr as usize;
                    headroom[lr] -= w[lr] * dl;
                }
                let rb = bottleneck.expect("bottleneck set");
                newly_frozen.clear();
                for &li in &lmembers[rb] {
                    let i = li as usize;
                    if !frozen[i] {
                        frozen[i] = true;
                        rate[i] = weight[i] * level;
                        unfrozen -= 1;
                        newly_frozen.push(i);
                    }
                }
                // Refresh the weight sums of every resource a newly frozen flow
                // crosses (re-sums are idempotent, duplicates are harmless).
                for &i in &newly_frozen {
                    for &lr in &fpath[i] {
                        w[lr as usize] = resum(&lmembers[lr as usize], &frozen);
                    }
                }
            }
        }

        // Per-occurrence allocation sums on the component's resources (a path
        // crossing a resource twice counts twice), accumulated from 0.0 in the
        // exact (flow, path-occurrence) order the serial write-back always used
        // — f64 addition is order-sensitive, so this order is the contract.
        let mut alloc = vec![0.0f64; nr];
        for (i, &s) in comp_slots.iter().enumerate() {
            for &r in &arena.path[s as usize] {
                let lr = comp_res.binary_search(&r.0).expect("closed component");
                alloc[lr] += rate[i];
            }
        }
        RegionSolution {
            rate,
            alloc,
            waterfill: false,
        }
    }
}

impl fmt::Debug for FluidNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FluidNet ({} resources, {} flows)",
            self.resources.len(),
            self.live
        )?;
        for (i, r) in self.resources.iter().enumerate() {
            writeln!(
                f,
                "  R{} {}: cap {:.3e} alloc {:.3e}",
                i, r.name, r.capacity, self.res.allocated[i]
            )?;
        }
        for s in self.live_slots() {
            let si = s as usize;
            writeln!(
                f,
                "  F{} tag {}: remaining {:.3e} rate {:.3e} cap {:?}",
                self.arena.id[si],
                self.arena.tag[si],
                self.arena.remaining[si],
                self.arena.rate[si],
                self.arena.cap[si]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(path: Vec<ResourceId>, volume: f64) -> FlowSpec {
        FlowSpec {
            path,
            volume,
            weight: 1.0,
            cap: None,
            tag: 0,
        }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        let f = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.allocated(r), 100.0);
    }

    #[test]
    fn equal_flows_share_equally() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 90.0);
        let f1 = net.start_flow(spec(vec![r], 1000.0));
        let f2 = net.start_flow(spec(vec![r], 1000.0));
        let f3 = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        for f in [f1, f2, f3] {
            assert!((net.flow_rate(f).unwrap() - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_respected() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        let heavy = net.start_flow(FlowSpec {
            weight: 3.0,
            ..spec(vec![r], 1000.0)
        });
        let light = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        assert!((net.flow_rate(heavy).unwrap() - 75.0).abs() < 1e-9);
        assert!((net.flow_rate(light).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn cap_frees_bandwidth_for_others() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        let capped = net.start_flow(FlowSpec {
            cap: Some(10.0),
            ..spec(vec![r], 1000.0)
        });
        let elastic = net.start_flow(spec(vec![r], 1000.0));
        net.reallocate();
        assert!((net.flow_rate(capped).unwrap() - 10.0).abs() < 1e-9);
        assert!((net.flow_rate(elastic).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn multi_resource_path_bottleneck() {
        let mut net = FluidNet::new();
        let wide = net.add_resource("wide", 100.0);
        let narrow = net.add_resource("narrow", 20.0);
        let through = net.start_flow(spec(vec![wide, narrow], 1000.0));
        let local = net.start_flow(spec(vec![wide], 1000.0));
        net.reallocate();
        // `through` is limited to 20 by the narrow hop; `local` takes the rest.
        assert!((net.flow_rate(through).unwrap() - 20.0).abs() < 1e-9);
        assert!((net.flow_rate(local).unwrap() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn elapse_completes_flows_in_order() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let _short = net.start_flow(FlowSpec {
            tag: 1,
            ..spec(vec![r], 10.0)
        });
        let _long = net.start_flow(FlowSpec {
            tag: 2,
            ..spec(vec![r], 100.0)
        });
        net.reallocate();
        // Each gets 5 units/s; short completes at t=2.
        let t = net.time_to_next_completion().unwrap();
        assert!((t - 2.0).abs() < 1e-9);
        let done = net.elapse(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, 1);
        // Long flow now gets full bandwidth.
        net.reallocate();
        let t2 = net.time_to_next_completion().unwrap();
        // Long flow transferred 10 of 100 units in the shared phase.
        assert!((t2 - 9.0).abs() < 1e-9, "t2={}", t2);
    }

    #[test]
    fn stall_accounting() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        // Two capped flows want 10 each but must share 10.
        let f1 = net.start_flow(FlowSpec {
            cap: Some(10.0),
            tag: 1,
            ..spec(vec![r], 10.0)
        });
        let _f2 = net.start_flow(FlowSpec {
            cap: Some(10.0),
            tag: 2,
            ..spec(vec![r], 10.0)
        });
        net.reallocate();
        assert!((net.flow_rate(f1).unwrap() - 5.0).abs() < 1e-9);
        let done = net.elapse(2.0);
        assert_eq!(done.len(), 2);
        for d in done {
            // Ran at half the cap for 2 s → 1 s equivalent stalled.
            assert!((d.stalled - 1.0).abs() < 1e-9);
            assert!((d.elapsed - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capacity_change_marks_dirty() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let _f = net.start_flow(spec(vec![r], 100.0));
        net.reallocate();
        assert!(!net.is_dirty());
        net.set_capacity(r, 20.0);
        assert!(net.is_dirty());
        net.reallocate();
        assert!((net.allocated(r) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_flow_reports_progress() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let f = net.start_flow(spec(vec![r], 100.0));
        net.reallocate();
        net.elapse(1.0);
        let rep = net.cancel_flow(f).unwrap();
        assert!((rep.remaining - 90.0).abs() < 1e-9);
        assert!((rep.elapsed - 1.0).abs() < 1e-9);
        assert!(net.cancel_flow(f).is_none());
    }

    #[test]
    fn delivered_and_busy_counters() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let _f = net.start_flow(FlowSpec {
            cap: Some(5.0),
            ..spec(vec![r], 10.0)
        });
        net.reallocate();
        net.elapse(2.0);
        assert!((net.delivered(r) - 10.0).abs() < 1e-9);
        // Ran at 50 % utilization for 2 s.
        assert!((net.busy_integral(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_resource_stalls_flow() {
        let mut net = FluidNet::new();
        let r = net.add_resource("off", 0.0);
        let f = net.start_flow(spec(vec![r], 10.0));
        net.reallocate();
        assert_eq!(net.flow_rate(f), Some(0.0));
        assert!(net.time_to_next_completion().is_none());
    }

    #[test]
    fn demand_sums_caps() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 100.0);
        net.start_flow(FlowSpec {
            cap: Some(30.0),
            ..spec(vec![r], 10.0)
        });
        net.start_flow(spec(vec![r], 10.0)); // elastic counts as capacity
        assert!((net.demand(r) - 130.0).abs() < 1e-9);
    }

    #[test]
    fn independent_components_are_not_revisited() {
        let mut net = FluidNet::new();
        let left = net.add_resource("left", 100.0);
        let right = net.add_resource("right", 50.0);
        let fl = net.start_flow(spec(vec![left], 1e6));
        let _fr = net.start_flow(spec(vec![right], 1e6));
        let stats = net.reallocate();
        assert_eq!(stats.components, 2);
        assert_eq!(stats.flows_visited, 2);
        // A mutation on the right component must not re-solve the left one.
        let fr2 = net.start_flow(spec(vec![right], 1e6));
        let stats = net.reallocate();
        assert_eq!(stats.components, 1);
        assert_eq!(stats.flows_visited, 2);
        assert_eq!(net.flow_rate(fl), Some(100.0));
        assert!((net.flow_rate(fr2).unwrap() - 25.0).abs() < 1e-9);
        // No pending change: reallocation is a no-op.
        let stats = net.reallocate();
        assert_eq!(stats, ReallocStats::default());
    }

    #[test]
    fn slab_reuses_slots_but_never_ids() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let a = net.start_flow(spec(vec![r], 10.0));
        let b = net.start_flow(spec(vec![r], 10.0));
        net.reallocate();
        net.cancel_flow(a).unwrap();
        let c = net.start_flow(FlowSpec {
            cap: Some(4.0),
            ..spec(vec![r], 10.0)
        });
        assert_ne!(a, c);
        assert_eq!(c.slot, a.slot, "the freed slot is reused");
        assert!(net.flow_rate(a).is_none());
        net.reallocate();
        assert_eq!(net.flow_rate(b), Some(6.0));
        assert_eq!(net.flow_rate(c), Some(4.0));
        assert_eq!(net.active_flows(), 2);
        // The stale id names no flow: it reads nothing, and a cap change or
        // a cancel through it leaves `c` and the allocation untouched.
        assert_eq!(net.flow_cap(a), None);
        assert_eq!(net.flow_rate(a), None);
        net.set_flow_cap(a, Some(1.0));
        assert!(!net.is_dirty(), "a stale cap change dirtied the net");
        assert!(net.cancel_flow(a).is_none());
        assert!(!net.is_dirty(), "a stale cancel dirtied the net");
        assert_eq!(net.active_flows(), 2);
        assert_eq!(net.flow_cap(c), Some(Some(4.0)));
        net.reallocate();
        assert_eq!(net.flow_rate(b), Some(6.0));
        assert_eq!(net.flow_rate(c), Some(4.0));
    }

    #[test]
    fn duplicate_path_entries_count_twice_in_allocated() {
        let mut net = FluidNet::new();
        let bus = net.add_resource("bus", 100.0);
        let f = net.start_flow(spec(vec![bus, bus], 10.0));
        net.reallocate();
        // The flow is indexed once (weight counted once) but its allocation
        // is charged per path occurrence, as the original solver did.
        assert_eq!(net.flow_rate(f), Some(100.0));
        assert_eq!(net.allocated(bus), 200.0);
        net.cancel_flow(f).unwrap();
        net.reallocate();
        assert_eq!(net.allocated(bus), 0.0);
        assert_eq!(net.demand(bus), 0.0);
    }

    #[test]
    fn fast_matches_reference_after_mutations() {
        let mut net = FluidNet::new();
        let a = net.add_resource("a", 100.0);
        let b = net.add_resource("b", 60.0);
        let c = net.add_resource("c", 30.0);
        let f1 = net.start_flow(spec(vec![a, b], 1e6));
        let f2 = net.start_flow(FlowSpec {
            cap: Some(12.0),
            ..spec(vec![b, c], 1e6)
        });
        let f3 = net.start_flow(spec(vec![c], 1e6));
        net.reallocate();
        net.set_flow_cap(f2, Some(7.0));
        net.set_capacity(a, 80.0);
        net.cancel_flow(f3).unwrap();
        net.reallocate();
        let fast: Vec<_> = [f1, f2]
            .iter()
            .map(|&f| net.flow_rate(f).map(f64::to_bits))
            .collect();
        let fast_alloc: Vec<_> = [a, b, c]
            .iter()
            .map(|&r| net.allocated(r).to_bits())
            .collect();
        reference::reallocate(&mut net);
        let refr: Vec<_> = [f1, f2]
            .iter()
            .map(|&f| net.flow_rate(f).map(f64::to_bits))
            .collect();
        let ref_alloc: Vec<_> = [a, b, c]
            .iter()
            .map(|&r| net.allocated(r).to_bits())
            .collect();
        assert_eq!(fast, refr);
        assert_eq!(fast_alloc, ref_alloc);
    }

    /// Two multi-flow components solved back to back through one net's
    /// scratch buffers. `p` reuses the slot `y` held at local position 1 in
    /// the first solve, and is local flow 0 of the second, so a
    /// `slot_local` entry kept from the first solve would read `p` as
    /// local flow 1. The first solve also ends with every `frozen` flag
    /// set, so flags kept from it would start the second solve with both
    /// flows frozen. Rates and allocations must equal the reference's bit
    /// for bit.
    #[test]
    fn back_to_back_components_start_from_clear_local_state() {
        let mut net = FluidNet::new();
        let a0 = net.add_resource("a0", 100.0);
        let a1 = net.add_resource("a1", 100.0);
        let b0 = net.add_resource("b0", 10.0);
        let b1 = net.add_resource("b1", 100.0);
        let x = net.start_flow(spec(vec![a0, a1], 1e6));
        let y = net.start_flow(spec(vec![a1], 1e6));
        net.reallocate();
        let fill = &net.scratch.fill;
        assert_eq!(fill.slot_local[y.slot as usize], 1);
        assert_eq!(fill.frozen, [true, true]);
        net.cancel_flow(y).unwrap();
        let p = net.start_flow(spec(vec![b1], 1e6));
        let q = net.start_flow(spec(vec![b0, b1], 1e6));
        assert_eq!(p.slot, y.slot, "p reuses y's slot");
        net.reallocate();
        // The second component is the last one solved by the fill loop (x
        // alone takes the waterfill): its local positions, every flow
        // frozen, and no resource left marked touched.
        let fill = &net.scratch.fill;
        assert_eq!(fill.slot_local[p.slot as usize], 0);
        assert_eq!(fill.slot_local[q.slot as usize], 1);
        assert_eq!(fill.frozen, [true, true]);
        assert_eq!(fill.is_touched, [false, false]);
        let snapshot = |net: &FluidNet| {
            (
                [x, p, q].map(|f| net.flow_rate(f).map(f64::to_bits)),
                [a0, a1, b0, b1].map(|r| net.allocated(r).to_bits()),
            )
        };
        let fast = snapshot(&net);
        reference::reallocate(&mut net);
        assert_eq!(fast, snapshot(&net));
        assert_eq!(net.flow_rate(q), Some(10.0), "b0 binds q");
        assert_eq!(net.flow_rate(p), Some(90.0));
    }

    /// Equal-cap flows on one hub, as STREAM cores behind one memory
    /// controller beside the NIC's uncapped DMA flow. The first cap round
    /// (increment above 0) freezes one core, the second freezes the other
    /// five at once, and the third saturates the hub; the plain loop takes
    /// one round per core. Weight 49 makes `49 · (1 / 49)` miss the cap of
    /// 1.0 by an ulp, so a tie frozen at `weight · level` shows.
    #[test]
    fn equal_caps_freeze_in_one_round() {
        let mut net = FluidNet::new();
        let hub = net.add_resource("hub", 100.0);
        let cores: Vec<FlowId> = (0..6)
            .map(|_| {
                net.start_flow(FlowSpec {
                    weight: 49.0,
                    cap: Some(1.0),
                    ..spec(vec![hub], 1e6)
                })
            })
            .collect();
        let nic = net.start_flow(FlowSpec {
            weight: 2.0,
            ..spec(vec![hub], 1e6)
        });
        assert_ne!(49.0 * (1.0 / 49.0), 1.0);
        net.reallocate();
        assert_eq!(net.scratch.fill.rounds, 3);
        let snapshot = |net: &FluidNet| {
            (
                cores.iter().map(|&f| net.flow_rate(f)).collect::<Vec<_>>(),
                net.flow_rate(nic).map(f64::to_bits),
                net.allocated(hub).to_bits(),
            )
        };
        let fast = snapshot(&net);
        assert_eq!(fast.0, [Some(1.0); 6]);
        assert!((net.flow_rate(nic).unwrap() - 94.0).abs() < 1e-9);
        reference::reallocate(&mut net);
        assert_eq!(fast, snapshot(&net));
    }

    /// Which shortcuts a re-solve takes, through test-only counts. A hub
    /// component, four flows that each cross their own NIC and one fabric
    /// resource, copies the fabric's member list instead of sorting its
    /// slots, and its one fill round freezes every flow and re-sums
    /// nothing; it still copies after a cancel and a start put a later flow
    /// into an earlier slot. A ring chain of 70 resources, which share the
    /// hub's first bitset word and span the next, has no resource that
    /// every flow crosses, so it sorts; its first round re-sums the three
    /// resources its two frozen flows cross, and its last round none.
    #[test]
    fn hub_components_copy_their_member_list_and_chains_sort() {
        let mut net = FluidNet::new();
        let fabric = net.add_resource("fabric", 100.0);
        let nics: Vec<ResourceId> = (0..4)
            .map(|i| net.add_resource(format!("nic{i}"), 1000.0))
            .collect();
        let ring: Vec<ResourceId> = (0..70)
            .map(|i| net.add_resource(format!("ring{i}"), 100.0))
            .collect();
        let hub_flows: Vec<FlowId> = nics
            .iter()
            .map(|&nic| net.start_flow(spec(vec![nic, fabric], 1e6)))
            .collect();
        for i in 0..ring.len() {
            net.start_flow(spec(vec![ring[i], ring[(i + 1) % ring.len()]], 1e6));
        }
        let bitwise = |net: &mut FluidNet| {
            let snapshot = |net: &FluidNet| {
                let rates: Vec<_> = net
                    .live_slots()
                    .iter()
                    .map(|&s| net.arena.rate[s as usize].to_bits())
                    .collect();
                let allocs: Vec<_> = net.res.allocated.iter().map(|a| a.to_bits()).collect();
                (rates, allocs)
            };
            let fast = snapshot(net);
            reference::reallocate(net);
            assert_eq!(fast, snapshot(net));
        };
        let stats = net.reallocate();
        assert_eq!(stats.components, 2);
        let s = &net.scratch;
        assert_eq!(s.slot_sorts, 1, "only the ring sorts its slots");
        assert_eq!((s.fill.rounds, s.fill.resums), (1 + 2, 3));
        assert!(s.res_bits.iter().all(|&word| word == 0), "bits left set");
        bitwise(&mut net);

        net.cancel_flow(hub_flows[0]).unwrap();
        let late = net.start_flow(spec(vec![nics[0], fabric], 1e6));
        assert_eq!(late.slot, hub_flows[0].slot, "the later flow takes slot 0");
        let stats = net.reallocate();
        assert_eq!(stats.components, 1);
        let s = &net.scratch;
        assert_eq!(s.comp_slots, [1, 2, 3, 0], "by id, not by slot");
        assert_eq!(s.slot_sorts, 1, "the hub component copied its list");
        assert_eq!((s.fill.rounds, s.fill.resums), (4, 3));
        assert!(s.res_bits.iter().all(|&word| word == 0), "bits left set");
        bitwise(&mut net);
        assert_eq!(net.flow_rate(late), Some(25.0));
    }

    #[test]
    #[should_panic(expected = "bad cap")]
    fn set_flow_cap_rejects_caps_start_flow_rejects() {
        let mut net = FluidNet::new();
        let r = net.add_resource("bus", 10.0);
        let f = net.start_flow(spec(vec![r], 10.0));
        net.set_flow_cap(f, Some(0.0));
    }

    /// The waterfill fast path is an exact-bits shortcut of the general
    /// progressive fill: sweep randomized one-flow components (duplicate
    /// path entries, zero-capacity resources, caps on/off) and compare its
    /// rates and allocations bitwise with both general loops'.
    #[test]
    fn waterfill_matches_general_loop_bitwise() {
        let mut rng = crate::Pcg32::new(42, 0x0dec0de);
        // Reused across cases, as a net reuses them across components.
        let mut fill = FillBuffers::default();
        let (mut fast, mut production) = (RegionSolution::default(), RegionSolution::default());
        for case in 0..1000u32 {
            let mut net = FluidNet::new();
            let nres = 1 + rng.below(5) as usize;
            let rs: Vec<ResourceId> = (0..nres)
                .map(|i| {
                    let cap = match rng.below(8) {
                        0 => 0.0,
                        v => v as f64 * 13.75 + rng.next_f64(),
                    };
                    net.add_resource(format!("r{}", i), cap)
                })
                .collect();
            // Random path over the resources, duplicates allowed.
            let plen = 1 + rng.below(6) as usize;
            let path: Vec<ResourceId> = (0..plen)
                .map(|_| rs[rng.below(nres as u32) as usize])
                .collect();
            let weight = 0.1 + rng.next_f64() * 9.9;
            let cap = (rng.below(2) == 1).then(|| 0.5 + rng.next_f64() * 200.0);
            net.start_flow(FlowSpec {
                path: path.clone(),
                volume: 1e6,
                weight,
                cap,
                tag: 0,
            });
            let slot = net.live_slots()[0];
            let mut comp_res: Vec<u32> = path.iter().map(|r| r.0).collect();
            comp_res.sort_unstable();
            comp_res.dedup();
            let comp_slots = [slot];
            solve_singleton(
                &net.resources,
                &net.arena,
                &comp_res,
                &comp_slots,
                &mut fast,
            );
            solve_general(
                &net.resources,
                &net.arena,
                &net.members,
                &comp_res,
                &comp_slots,
                &mut fill,
                &mut production,
            );
            let reference =
                reference::solve_general(&net.resources, &net.arena, &comp_res, &comp_slots);
            for (loop_name, slow) in [("production", &production), ("reference", &reference)] {
                assert!(fast.waterfill && !slow.waterfill);
                assert_eq!(
                    fast.rate[0].to_bits(),
                    slow.rate[0].to_bits(),
                    "case {} ({} loop): rate diverged ({} vs {})",
                    case,
                    loop_name,
                    fast.rate[0],
                    slow.rate[0]
                );
                assert_eq!(fast.alloc.len(), slow.alloc.len());
                for (lr, (a, b)) in fast.alloc.iter().zip(&slow.alloc).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "case {} ({} loop): alloc[{}]",
                        case,
                        loop_name,
                        lr
                    );
                }
            }
        }
    }
}
