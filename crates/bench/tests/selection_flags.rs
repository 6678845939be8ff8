//! `repro` takes one selection flag. A second one used to win silently
//! (`--all --ext` ran only the extension set, and `--only` overrode the
//! rest); now it is a usage error that names both flags, before any
//! experiment runs. A flag that only one selection reads is a usage error
//! under any other: `--fuzz-budget` used to be ignored without `--validate`,
//! and `--placement` under `rank-placements`. Campaigns keep no result
//! store, so `--store` and `--resume` are unknown to them.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// Assert a usage error (exit 2, nothing run) whose first stderr line is
/// `line`.
fn assert_usage_error(args: &[&str], line: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().next().unwrap_or_default(), line, "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
}

#[test]
fn a_second_selection_flag_is_a_usage_error_naming_both() {
    for (args, first, second) in [
        (&["--all", "--ext"][..], "--all", "--ext"),
        (&["--ext", "--all"][..], "--ext", "--all"),
        (
            &["--quick", "--fig", "4", "--table", "1"][..],
            "--fig",
            "--table",
        ),
        (
            &["--only", "fig1", "--validate"][..],
            "--only",
            "--validate",
        ),
        (
            &["--predict-check", "--only", "fig1"][..],
            "--predict-check",
            "--only",
        ),
        (
            &["--only", "fig1", "--only", "fig2"][..],
            "--only",
            "--only",
        ),
    ] {
        assert_usage_error(
            args,
            &format!("{first} and {second} both select experiments; pass one"),
        );
    }
}

#[test]
fn fuzz_budget_without_validate_is_a_usage_error() {
    for args in [
        &["--fuzz-budget", "120"][..],
        &["--quick", "--ext", "--fuzz-budget", "120"][..],
        &["--fuzz-budget", "120", "--predict-check"][..],
    ] {
        assert_usage_error(args, "--fuzz-budget requires --validate");
    }
}

#[test]
fn campaign_store_flags_are_unknown_arguments() {
    assert_usage_error(&["--all", "--store", "DIR"], "unknown argument: --store");
    assert_usage_error(&["--resume"], "unknown argument: --resume");
}

#[test]
fn rank_placements_rejects_a_placement() {
    assert_usage_error(
        &[
            "rank-placements",
            "--quick",
            "--preset",
            "bora",
            "--workload",
            "cg",
            "--cores",
            "8",
            "--metric",
            "bw",
            "--placement",
            "1",
        ],
        "repro rank-placements ranks every placement; --placement I is for repro predict",
    );
}
