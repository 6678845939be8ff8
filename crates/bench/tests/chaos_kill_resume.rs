//! Chaos integration test: SIGKILL a real `repro rank-placements` query
//! mid-harvest, resume it from the result store that caches the harvest,
//! and demand the same ranked placements as an uninterrupted run — then
//! damage the store and demand the corruption is detected and re-measured,
//! never served.
//!
//! This drives the actual binary (`CARGO_BIN_EXE_repro`) as a subprocess:
//! the kill is a real SIGKILL (no unwinding, no destructors, no atexit),
//! exactly the failure an OOM-kill or preemption delivers.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use interference::store::chaos::{corrupt_file, Fault};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A Quick query for a workload family the advisor never trained on.
const QUERY: [&str; 10] = [
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
];

/// Paths in a store directory with the given extension (none while the
/// directory does not exist yet).
fn entries(dir: &Path, ext: &str) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == ext))
                .collect()
        })
        .unwrap_or_default()
}

/// Run the query to completion and return its stdout; `extra` follows the
/// query's own flags.
fn query(extra: &[&str]) -> String {
    let out = repro()
        .args(QUERY)
        .args(extra)
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The ranking a query printed: its header and one line per candidate.
/// The lines above them report wall times, which differ between runs.
fn ranked_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("rank-placements:") || l.starts_with("   #"))
        .collect()
}

#[test]
fn sigkill_mid_campaign_then_resume_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("repro-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create chaos dir");
    let store = base.join("store");
    let store_arg = store.to_str().unwrap();

    // Reference: an uninterrupted query, no store involved.
    let clean_out = query(&[]);
    let clean = ranked_lines(&clean_out);
    assert_eq!(clean.len(), 5, "a header and four placements:\n{clean_out}");

    // Victim: the same query caching its harvest, slowed to 250 ms per
    // point so the kill lands mid-harvest.
    let mut child = repro()
        .args(QUERY)
        .args(["--store", store_arg])
        .env("REPRO_POINT_DELAY_MS", "250")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim run");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let n = entries(&store, "res").len();
        if n >= 2 {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!(
                "harvest finished before the kill ({}; {} entries)",
                status, n
            );
        }
        assert!(Instant::now() < deadline, "no points persisted within 60 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    let persisted = entries(&store, "res").len();
    assert!(persisted >= 2, "kill landed after some points persisted");

    // Resume: persisted pairs restore from the store, the rest are
    // measured; the ranking must be the uninterrupted run's.
    let resumed = query(&["--store", store_arg, "--resume"]);
    assert!(
        resumed.contains(&format!("({} restored from store)", persisted)),
        "resume did not restore the {} persisted points:\n{}",
        persisted,
        resumed
    );
    assert_eq!(ranked_lines(&resumed), clean, "resumed ranking differs");

    // Corrupt one entry: the next resume must detect it (quarantine),
    // re-measure it, and still rank identically.
    let live = entries(&store, "res");
    corrupt_file(&live[0], Fault::BitFlip { offset: 33, bit: 5 });
    let rerun = query(&["--store", store_arg, "--resume"]);
    assert!(
        rerun.contains(&format!("({} restored from store)", live.len() - 1)),
        "the corrupt entry was served:\n{}",
        rerun
    );
    assert_eq!(
        ranked_lines(&rerun),
        clean,
        "ranking diverged after store corruption"
    );
    assert_eq!(
        entries(&store, "quarantined").len(),
        1,
        "damaged entry kept for post-mortem"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// A campaign with a point deadline and a partial outcome: `repro` must
/// exit 3 without `--allow-partial` and 0 with it, and the timings export
/// must record the timeout. The faulted_pingpong extension experiment is
/// timing-robust; an absurdly small deadline times every point out.
#[test]
fn partial_campaign_exit_code_policy() {
    let base = std::env::temp_dir().join(format!("repro-partial-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create dir");
    let timings = base.join("timings.json").to_str().unwrap().to_string();

    let out = repro()
        .args(["--quick", "--only", "fig9", "--timeout", "0.000001"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(3),
        "partial without --allow-partial exits 3"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--allow-partial"));

    let out = repro()
        .args([
            "--quick",
            "--only",
            "fig9",
            "--timeout",
            "0.000001",
            "--allow-partial",
            "--timings",
            &timings,
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "--allow-partial exits 0");
    let t = std::fs::read_to_string(&timings).expect("timings export");
    assert!(
        t.contains("\"partial\":true"),
        "timings record the partial flag: {}",
        t
    );
    assert!(
        t.contains("\"timed_out_points\":"),
        "timings record timeouts: {}",
        t
    );

    let _ = std::fs::remove_dir_all(&base);
}
