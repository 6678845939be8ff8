//! Whole-campaign allocator replay: the incremental max-min solver must not
//! change a single byte of the figure exports.
//!
//! `ReferencePaths::solver` makes every reallocation of the engines built
//! in its scope go through the retained from-scratch solver
//! (`fluid::reference`: adjacency rebuilt from the flow paths, plain
//! progressive-filling loop with one freeze per round). Running Quick
//! fig4+fig9 both ways and comparing the `--json` export byte-for-byte
//! proves the incremental solver (inverse index, component dirty tracking,
//! and the one-pass-per-fill-level loop) is observationally identical at
//! full-system scale — on top of the per-solve bitwise equivalence the
//! `prop_fluid_equiv` suite establishes.

mod support;

use simcore::ReferencePaths;

#[test]
fn quick_fig4_fig9_json_identical_with_either_solver() {
    support::assert_replays_identical(&[(
        "incremental allocator changed campaign output",
        ReferencePaths {
            solver: true,
            ..ReferencePaths::default()
        },
    )]);
}
