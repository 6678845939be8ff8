//! Host measurements of the running process (Linux): a clock two processes
//! share, user+sys CPU time, and the resident-set high-water mark; and the
//! switch that starts child processes without address-space randomisation.

use std::os::raw::{c_int, c_long, c_ulong};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: c_long,
}

/// `struct rusage` on Linux: two `timeval`s, then fourteen `long`s.
#[repr(C)]
struct Rusage {
    ru_utime: [c_long; 2],
    ru_stime: [c_long; 2],
    rest: [c_long; 14],
}

const CLOCK_MONOTONIC: c_int = 1;
const RUSAGE_SELF: c_int = 0;
/// `personality(2)` flag that turns address-space randomisation off.
const ADDR_NO_RANDOMIZE: c_ulong = 0x0040000;
/// `personality(2)` argument that only reads the current persona.
const PERSONALITY_QUERY: c_ulong = 0xffff_ffff;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn personality(persona: c_ulong) -> c_int;
}

/// Start every process this one spawns from now on without address-space
/// randomisation (the flag is inherited across fork and exec; this
/// process's own layout is fixed already). With randomisation on, heap and
/// mapping placement differs per process, and peak RSS with it. Where the
/// kernel refuses, children keep randomisation and this says so.
pub fn disable_aslr_for_children() {
    // SAFETY: personality(2) takes a plain integer, touches no memory of
    // this process, and with PERSONALITY_QUERY only returns the persona.
    let current = unsafe { personality(PERSONALITY_QUERY) };
    // SAFETY: as above; setting a persona flag only changes how later
    // exec calls lay out new processes.
    if current < 0 || unsafe { personality(current as c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        eprintln!("benchmark: could not turn off address-space randomisation for children");
    }
}

/// `CLOCK_MONOTONIC` in nanoseconds. Unlike `Instant`, the value means the
/// same in every process, so a parent can hand its spawn time to a child.
pub fn monotonic_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` and CLOCK_MONOTONIC is
    // supported by every Linux kernel, so the call only writes `ts`.
    let rc = unsafe { clock_gettime(CLOCK_MONOTONIC, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User plus system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let mut ru = Rusage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` has the size and layout of `struct rusage` on Linux and
    // is writable; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(ru.ru_utime) + secs(ru.ru_stime)
}

/// `VmHWM` of this process in MiB: its peak resident set.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_probes_read_plausible_values() {
        let a = monotonic_ns();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 20 {}
        assert!(monotonic_ns() - a >= 20_000_000);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 0.0);
    }
}
