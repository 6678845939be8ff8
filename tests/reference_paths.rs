//! Whole-campaign replay under the scan matcher and under every retained
//! reference path together, and the scoping rules that make such a
//! comparison trustworthy.
//!
//! Two layers keep a reference twin as their only differential oracle,
//! picked by `simcore::ReferencePaths`: the from-scratch fluid solver
//! (`fluid::reference`) and mpisim's linear-scan matcher. Quick fig4+fig9
//! must export the same `--json` bytes on the fast paths as under each
//! reference path alone and under both together — on top of the per-layer
//! oracles (`prop_fluid_equiv`, the matcher unit tests). The solver row
//! lives in `allocator_replay.rs`; the shared replay is
//! `support::assert_replays_identical`.
//!
//! The replays run side by side, one thread each. That is sound only because
//! a scoped value never reaches engines built on another thread, which the
//! second test pins down together with restoration after a panic.

mod support;

use std::panic;
use std::sync::Barrier;

use freq::{Governor, UncorePolicy};
use mpisim::Cluster;
use simcore::reference_paths::{self, ReferencePaths};
use simcore::Engine;
use topology::{henri, Placement};

#[test]
fn quick_fig4_fig9_json_identical_with_scan_matcher_and_all_paths() {
    support::assert_replays_identical(&[
        (
            "scan matcher",
            ReferencePaths {
                matcher: true,
                ..ReferencePaths::default()
            },
        ),
        ("all reference paths", ReferencePaths::ALL),
    ]);
}

#[test]
fn scoped_reference_paths_stay_on_their_thread_and_survive_panics() {
    // An engine and a cluster built on this thread while another thread
    // holds every reference path installed still take the defaults.
    let installed = Barrier::new(2);
    let built = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            reference_paths::scoped(ReferencePaths::ALL, || {
                installed.wait();
                built.wait();
                assert_eq!(Engine::new().reference_paths(), ReferencePaths::ALL);
            })
        });
        installed.wait();
        let engine = Engine::new();
        let cluster = Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement::fig4_default(),
        );
        built.wait();
        assert_eq!(engine.reference_paths(), ReferencePaths::default());
        assert_eq!(cluster.reference_paths(), ReferencePaths::default());
    });

    // A panic inside a scope restores the value it replaced.
    let solver = ReferencePaths {
        solver: true,
        ..ReferencePaths::default()
    };
    reference_paths::scoped(solver, || {
        let caught = panic::catch_unwind(|| {
            reference_paths::scoped(ReferencePaths::ALL, || panic!("injected panic"))
        });
        assert!(caught.is_err());
        assert_eq!(ReferencePaths::current(), solver);
        assert_eq!(Engine::new().reference_paths(), solver);
    });
    assert_eq!(ReferencePaths::current(), ReferencePaths::default());
}
