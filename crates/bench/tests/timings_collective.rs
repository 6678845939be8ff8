//! `repro --timings` collective-path counters: the ISSUE 9 fast paths
//! (indexed matching, fabric routing, schedule memoization, waterfill)
//! must be observable from the timing export — both as a text section and
//! as a stable `"collective"` JSON object — so a regression that silently
//! falls back to a reference path shows up in CI dashboards.
//!
//! Drives the actual binary (`CARGO_BIN_EXE_repro`) so the test pins what
//! tooling really parses, not an internal helper.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Extract `"key":value` from a flat JSON object fragment.
fn field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{}\":", key);
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("missing {key}: {json}"))
        + pat.len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}"))
}

#[test]
fn timings_export_reports_collective_fast_paths() {
    let base = std::env::temp_dir().join(format!("repro-timings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create dir");
    let timings = base.join("timings.json").to_str().unwrap().to_string();
    let trace = base.join("trace.json").to_str().unwrap().to_string();

    let out = repro()
        .args([
            "--quick",
            "--only",
            "collective_dvfs",
            "--trace",
            &trace,
            "--timings",
            &timings,
        ])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Text section with every fast path engaged.
    assert!(
        stdout.contains("== collective path =="),
        "missing section:\n{stdout}"
    );
    assert!(
        stdout.contains("matching:"),
        "missing match digest:\n{stdout}"
    );
    assert!(
        stdout.contains("payload path(s) routed on the fabric"),
        "missing route digest:\n{stdout}"
    );
    assert!(
        stdout.contains("schedule cache:"),
        "missing cache digest:\n{stdout}"
    );
    assert!(
        stdout.contains("waterfill:"),
        "missing waterfill digest:\n{stdout}"
    );

    // JSON object: stable key set, every counter engaged on this campaign.
    let t = std::fs::read_to_string(&timings).expect("timings export");
    let obj_at = t
        .find("\"collective\":{")
        .expect("collective object present");
    let obj = &t[obj_at..t[obj_at..].find('}').map(|e| obj_at + e + 1).unwrap()];
    for key in [
        "match_probes",
        "match_bin_hits",
        "route_intern_hits",
        "schedule_cache_hits",
        "schedule_cache_misses",
        "waterfill_solves",
    ] {
        assert!(
            obj.contains(&format!("\"{key}\":")),
            "schema lost {key}: {obj}"
        );
    }
    let probes = field(obj, "match_probes");
    let hits = field(obj, "match_bin_hits");
    assert!(
        hits > 0 && probes >= hits,
        "indexed matching engaged: {obj}"
    );
    assert!(
        field(obj, "route_intern_hits") > 0,
        "route interning engaged: {obj}"
    );
    assert!(
        field(obj, "schedule_cache_misses") > 0,
        "schedules were built: {obj}"
    );
    assert!(
        field(obj, "schedule_cache_hits") > 0,
        "memoization re-served a schedule across sweep points: {obj}"
    );
    assert!(
        field(obj, "waterfill_solves") > 0,
        "waterfill fast path engaged: {obj}"
    );

    // Without `--trace` the journal counters are absent (zero) but the
    // process-global schedule-cache stats must still be exported.
    let bare = base.join("bare.json").to_str().unwrap().to_string();
    let out = repro()
        .args(["--quick", "--only", "collective_dvfs", "--timings", &bare])
        .output()
        .expect("spawn repro (no trace)");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let t = std::fs::read_to_string(&bare).expect("bare timings export");
    assert!(
        t.contains("\"collective\":{"),
        "collective object present without --trace"
    );
    assert!(
        t.contains("\"match_probes\":0"),
        "journal counters default to 0: {t}"
    );
    let obj_at = t.find("\"collective\":{").unwrap();
    let obj = &t[obj_at..t[obj_at..].find('}').map(|e| obj_at + e + 1).unwrap()];
    assert!(
        field(obj, "schedule_cache_misses") > 0,
        "cache stats survive without --trace: {obj}"
    );

    let _ = std::fs::remove_dir_all(&base);
}
