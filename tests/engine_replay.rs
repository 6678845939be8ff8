//! Whole-campaign engine replay: the timing-wheel timer queue must not
//! change a single byte of the figure exports.
//!
//! `ReferencePaths::queue` reroutes every timer of the engines built in its
//! scope through the retained `BinaryHeap` + tombstone queue
//! (`queue::HeapQueue`). Running Quick fig4+fig9 both ways and comparing the
//! `--json` export byte-for-byte proves the hierarchical timing wheel pops
//! the exact same (time, seq) event sequence at full-system scale — on top
//! of the per-pop equivalence the `prop_queue_equiv` suite establishes.

mod support;

use simcore::ReferencePaths;

#[test]
fn quick_fig4_fig9_json_identical_with_either_queue() {
    support::assert_replays_identical(&[(
        "timing wheel changed campaign output",
        ReferencePaths {
            queue: true,
            ..ReferencePaths::default()
        },
    )]);
}
