//! Chaos integration test: SIGKILL a real `repro` campaign mid-flight,
//! resume it from the result store, and demand exports byte-identical to
//! an uninterrupted run — then damage the store and demand the corruption
//! is detected and recomputed, never served.
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

/// Count persisted point entries in a store directory (0 while it does
/// not exist yet).
fn res_entries(dir: &Path) -> Vec<std::path::PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "res"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn sigkill_mid_campaign_then_resume_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("repro-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create chaos dir");
    let path = |name: &str| base.join(name).to_str().unwrap().to_string();

    // Reference: an uninterrupted run, no store involved.
    let clean_json = path("clean.json");
    let status = repro()
        .args(["--quick", "--only", "fig4", "--json", &clean_json])
        .stdout(Stdio::null())
        .status()
        .expect("spawn clean run");
    assert!(status.success(), "clean run failed: {}", status);
    let clean = std::fs::read(&clean_json).expect("clean export exists");

    // Victim: same campaign, slowed to ~250 ms per point so the kill
    // lands mid-flight, persisting to a store.
    let store = base.join("store");
    let killed_json = path("killed.json");
    let mut child = repro()
        .args([
            "--quick",
            "--only",
            "fig4",
            "--store",
            &path("store"),
            "--json",
            &killed_json,
        ])
        .env("REPRO_POINT_DELAY_MS", "250")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim run");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let n = res_entries(&store).len();
        if n >= 2 {
            break;
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!(
                "campaign finished before the kill ({}; {} entries)",
                status, n
            );
        }
        assert!(Instant::now() < deadline, "no points persisted within 60 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    let persisted = res_entries(&store).len();
    assert!(persisted >= 2, "kill landed after some points persisted");
    assert!(
        !Path::new(&killed_json).exists(),
        "an interrupted run must not leave a (truncated) export behind"
    );

    // Resume: completed points restore from the store, the rest recompute;
    // the export must be byte-identical to the uninterrupted run.
    let resumed_json = path("resumed.json");
    let out = repro()
        .args([
            "--quick",
            "--only",
            "fig4",
            "--store",
            &path("store"),
            "--resume",
            "--json",
            &resumed_json,
        ])
        .output()
        .expect("spawn resume run");
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("restored (hit)"),
        "resume did not report restored points:\n{}",
        stdout
    );
    let resumed = std::fs::read(&resumed_json).expect("resumed export exists");
    assert_eq!(clean, resumed, "resumed export differs from the clean run");

    // Corrupt a surviving entry: the next resume must detect it
    // (quarantine), recompute, and still export identical bytes.
    let victims = res_entries(&store);
    corrupt_file(&victims[0], Fault::BitFlip { offset: 33, bit: 5 });
    let rerun_json = path("rerun.json");
    let out = repro()
        .args([
            "--quick",
            "--only",
            "fig4",
            "--store",
            &path("store"),
            "--resume",
            "--json",
            &rerun_json,
        ])
        .output()
        .expect("spawn corrupted-resume run");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 quarantined"),
        "corruption was not quarantined:\n{}",
        stdout
    );
    let rerun = std::fs::read(&rerun_json).expect("rerun export exists");
    assert_eq!(clean, rerun, "export diverged after store corruption");
    let quarantined = std::fs::read_dir(&store)
        .expect("read store")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "quarantined"))
        .count();
    assert_eq!(quarantined, 1, "damaged entry kept for post-mortem");

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
