//! Heap allocations per message on the collective path.
//!
//! A counting global allocator measures what one collective costs the heap
//! inside `collective::run_ordered` on a warm 64-rank cluster (tiny2x2
//! nodes behind a switch, as the benchmark's collectives run). Each message
//! may allocate three times, the `FlowSpec` paths of its send overhead, its
//! payload and its receive overhead, plus a constant per round: the
//! round's request lists, the engine's completion lists and the amortised
//! growth of the cluster's per-request tables. Everything else on the
//! per-message path (memory and control paths, the netsim event, match
//! bins, flow and timer lookups) must reuse storage.
//!
//! Counts are per thread, so the tests can run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use freq::{Governor, UncorePolicy};
use mpisim::collective::{self, Schedule};
use mpisim::Cluster;
use topology::fabric::FabricPreset;
use topology::{tiny2x2, BindingPolicy, Placement};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting the calling thread's allocations and reallocations.
struct Counting;

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` meets the `GlobalAlloc` contract exactly as `System` does. The
// only other work is bumping a `const`-initialised thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RANKS: usize = 64;

/// Allocations a message may make: its three `FlowSpec` paths.
const PER_MESSAGE: u64 = 3;

/// Allocations a round may make on top of its messages'.
const PER_ROUND: u64 = 16;

fn cluster() -> Cluster {
    let spec = tiny2x2();
    Cluster::with_fabric(
        &spec,
        FabricPreset::Switch.spec(RANKS).build_for(RANKS),
        Governor::Userspace(spec.base_freq),
        UncorePolicy::Fixed(spec.uncore_range.1),
        Placement {
            comm_thread: BindingPolicy::NearNic,
            data: BindingPolicy::NearNic,
        },
    )
}

/// Run `schedule` once to warm the cluster, then again on fresh tags and
/// fresh registration keys (every rendezvous pair misses the registration
/// cache again), counting this thread's allocations during the second run.
/// Checks the budget and returns the count per message.
fn check_budget(schedule: &Schedule) -> f64 {
    let mut c = cluster();
    collective::run_ordered(&mut c, schedule, 100, 0x8000, Some(1)).expect("warm-up run");
    let rounds = schedule.rounds.len() as u64;
    let messages = schedule.total_messages() as u64;
    let before = ALLOCS.with(Cell::get);
    let tag = 100 + rounds as u32;
    collective::run_ordered(&mut c, schedule, tag, 0x10_0000, Some(2)).expect("measured run");
    let allocs = ALLOCS.with(Cell::get) - before;
    let budget = PER_MESSAGE * messages + PER_ROUND * rounds;
    assert!(
        allocs <= budget,
        "{allocs} allocations for {messages} messages in {rounds} rounds \
         ({:.2} per message); the budget is {PER_MESSAGE} per message \
         plus {PER_ROUND} per round = {budget}",
        allocs as f64 / messages as f64
    );
    allocs as f64 / messages as f64
}

#[test]
fn eager_ring_allreduce_allocates_three_times_per_message() {
    // 256 KiB over 64 ranks: 4 KiB chunks, under tiny2x2's 16 KiB eager
    // threshold.
    let schedule = Schedule::ring_allreduce(RANKS, 256 << 10);
    assert_eq!(schedule.total_messages(), 2 * 63 * 64);
    let per_message = check_budget(&schedule);
    assert!(per_message >= 3.0, "{per_message} per message");
}

#[test]
fn rendezvous_alltoall_allocates_three_times_per_message() {
    // 128 KiB blocks: rendezvous, with an RTS/CTS handshake and a
    // registration miss per pair in the measured run.
    let schedule = Schedule::pairwise_alltoall(RANKS, 128 << 10);
    assert_eq!(schedule.total_messages(), 63 * 64);
    let per_message = check_budget(&schedule);
    assert!(per_message >= 3.0, "{per_message} per message");
}
