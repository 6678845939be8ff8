//! `repro` takes one selection flag. A second one used to win silently
//! (`--all --ext` ran only the extension set, and `--only` overrode the
//! rest); now it is a usage error that names both flags, before any
//! experiment runs. A flag that only one selection reads is a usage error
//! under any other: `--fuzz-budget` used to be ignored without `--validate`.

use std::process::Command;

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
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let line = stderr.lines().next().unwrap_or_default();
        assert_eq!(
            line,
            format!("{first} and {second} both select experiments; pass one"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn fuzz_budget_without_validate_is_a_usage_error() {
    for args in [
        &["--fuzz-budget", "120"][..],
        &["--quick", "--ext", "--fuzz-budget", "120"][..],
        &["--fuzz-budget", "120", "--predict-check"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(
            stderr.lines().next().unwrap_or_default(),
            "--fuzz-budget requires --validate",
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
