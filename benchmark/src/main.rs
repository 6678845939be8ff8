//! The repository benchmark: five simulator workloads, their end-to-end host
//! metrics, and a traced per-layer breakdown. See `README.md` next to this
//! package for the metric glossary and how to compare two commits.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! benchmark [--all] [--seed N] [--reps R] [--out FILE] [--trace-out FILE]
//! ```
//!
//! The first form measures one workload for about `S` seconds and prints,
//! as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). The second runs
//! every workload in two sets of `R` reps, rotating the workload order each
//! rep, then the traced pass, and writes the whole ledger to `--out`.
//!
//! Every rep is a fresh child process of this executable (`--child`), run
//! one at a time, so process-wide caches (schedule cache, route arenas,
//! allocator state) start cold on every rep as they do for a user, and
//! `VmHWM` and `getrusage` describe that rep alone. Children start without
//! address-space randomisation, so the memory layout is the same from rep
//! to rep and peak RSS varies less. Each child meters the host's speed as it
//! runs and reports its times both as measured and at reference speed.

mod host;
mod json;
mod layers;
mod probes;
mod speed;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Read as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{quantile_of, Summary};
use trace::{Span, Spans};
use workload::{Mode, Workload, ALL};

/// End-to-end metrics: (name, unit, bound). The bound is the share of the
/// parent commit's median by which the metric may worsen before a change
/// counts as a regression. A bound may be at most 25 %, and a benchmark is
/// not accepted when the interquartile range of ten back-to-back runs
/// exceeds its bound. The three times are host times at reference speed
/// (see `speed.rs`): on the 2-vCPU host the bounds were set on, the vCPU
/// runs up to twice as slowly for minutes at a time, and the range of raw
/// host time reached 17-31 % of the median; scaled, it stayed within
/// 1.0-11 % for wall and CPU time, and medians of rounds an hour apart
/// differed by up to 13 %. Those keep the widest bound, and set-up time,
/// whose median moved by up to 21 % where it is 1-2 ms of process start,
/// must have at least theirs. Peak RSS is bimodal on the collectives (two
/// allocator outcomes 3 % apart), and the grid's range reached 3.3 % (the
/// timer queue's hash set grows at points set by the per-process hash
/// seed), so it takes 15 %, three times that, rather than 5 %.
const END_TO_END: &[(&str, &str, f64)] = &[
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.15),
];

/// The times of [`END_TO_END`] as measured, before scaling to reference
/// speed; the ledger records them too.
const HOST_TIMES: [&str; 3] = ["setup_host_s", "wall_host_s", "cpu_host_s"];

/// A `--workload` run starts no rep expected to end later than this, and
/// kills a child still running then (counting it as failed), so the run
/// ends within the three minutes a caller may allow it.
const RUN_LIMIT: Duration = Duration::from_secs(150);

/// Fewest full reps per run, even where they take longer than `--seconds`:
/// with `--trace 1`, one untraced and one traced.
const MIN_REPS: usize = 2;

/// Slices a set-up-only child times after its set-up, to scale it.
const CALIBRATION_SLICES: usize = 8;

/// Set-ups a `--trace 0` run aims to time. Where full reps give fewer,
/// set-up-only children make up the rest in the share of `--seconds` the
/// full reps leave free.
const SETUP_SAMPLES: usize = 40;
const SETUP_SHARE: f64 = 0.1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    reps: usize,
    out: Option<String>,
    child: bool,
    set_up_only: bool,
    spawned_at: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        reps: 5,
        out: None,
        child: false,
        set_up_only: false,
        spawned_at: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" | "--child" => {
                let name = value()?;
                a.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
                a.child |= flag == "--child";
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => a.seconds = number(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--reps" => a.reps = value()?.parse().map_err(|_| "--reps: not an integer")?,
            "--out" => a.out = Some(value()?),
            "--spawned-at" => a.spawned_at = value()?.parse().map_err(|_| "--spawned-at")?,
            "--set-up-only" => a.set_up_only = true,
            "--all" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.reps == 0 || !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--reps and --seconds must be positive".into());
    }
    Ok(a)
}

fn run(args: &[String]) -> Result<(), String> {
    let a = parse_args(args)?;
    match a.workload {
        Some(w) if a.child => {
            let mode = match (a.set_up_only, a.trace) {
                (true, _) => Mode::SetUp,
                (false, true) => Mode::Traced,
                (false, false) => Mode::Plain,
            };
            child(w, a.seed, a.spawned_at, mode);
            Ok(())
        }
        Some(w) => measure_one(w, &a),
        None => measure_all(&a),
    }
}

// ---------------------------------------------------------------- child

/// One rep: run the workload and print what [`rep_output`] returns.
fn child(w: Workload, seed: u64, spawned_at: u64, mode: Mode) {
    speed::start();
    let expected = (mode != Mode::SetUp).then(|| w.expected_fingerprint());
    print!("{}", rep_output(&w.job(), expected, seed, spawned_at, mode));
}

/// Run `job` once and return the child's standard output, one record per
/// line with tab-separated fields: `span` lines (traced only), `metric`
/// lines and one `fingerprint` line. With `expected`, the fingerprint
/// comparison counts as one more operation. Failed operations are named on
/// standard error.
fn rep_output(
    job: &workload::Job,
    expected: Option<&str>,
    seed: u64,
    spawned_at: u64,
    mode: Mode,
) -> String {
    let origin = Instant::now();
    let origin_ns = host::monotonic_ns();
    let mut spans = Spans::new(origin);
    let mut run = job.run(seed, mode, &mut spans);
    // Set-up ends where the measured phase begins; a set-up-only run
    // returns there, too soon for the speed meter's timer, so it times a
    // few slices of its own afterwards.
    let set_up_end_ns = match spans.get("measured") {
        Some(m) => origin_ns + (m.start_us * 1e3) as u64,
        None => {
            let now = host::monotonic_ns();
            speed::calibrate(CALIBRATION_SLICES);
            now
        }
    };
    // Run by hand (no --spawned-at), set-up counts from here.
    let spawned_at = if spawned_at == 0 {
        origin_ns
    } else {
        spawned_at
    };
    let slices = speed::slices();
    // A phase's host time without the slices that interrupted it, and that
    // time at reference speed.
    let phase = |from: u64, to: u64| {
        let host = to.saturating_sub(from) as f64 * 1e-9 - slices.seconds_within(from, to);
        (host, host * slices.scale(from, to))
    };
    let span = |name: &str| {
        spans.get(name).map_or((0.0, 0.0), |s| {
            let at = |us: f64| origin_ns + (us * 1e3) as u64;
            phase(at(s.start_us), at(s.end_us))
        })
    };
    let mut out = String::new();
    let mut metric = |k: &str, v: f64| out.push_str(&format!("metric\t{k}\t{v:?}\n"));
    let (set_up_host, set_up) = phase(spawned_at, set_up_end_ns);
    metric("setup_s", set_up);
    metric("setup_host_s", set_up_host);
    if mode == Mode::SetUp {
        return out;
    }
    if let Some(expected) = expected {
        run.verify(expected);
    }
    let (wall_host, wall) = span("measured");
    metric("wall_s", wall);
    metric("wall_host_s", wall_host);
    metric("events_s", span(job.events_span()).1);
    let cpu_host = host::cpu_seconds() - slices.seconds_within(0, u64::MAX);
    metric("cpu_s", cpu_host * slices.scale(0, u64::MAX));
    metric("cpu_host_s", cpu_host);
    metric("peak_rss_mb", host::peak_rss_mib());
    metric("attempted", run.ops.attempted as f64);
    metric("failed", run.ops.failed as f64);
    metric("known_failures", run.ops.known_failures as f64);
    if mode == Mode::Traced {
        for (k, v) in layers::from_traced(&run, &spans) {
            metric(&format!("layer.{k}"), v);
        }
        for s in spans.spans() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "span\t{}\t{}\t{}\t{}\n",
                s.name, s.start_us, s.end_us, parent
            ));
        }
    }
    let fingerprint = run.fingerprint.replace(['\t', '\n'], " ");
    out.push_str(&format!("fingerprint\t{fingerprint}\n"));
    for f in &run.ops.failures {
        eprintln!("FAILED {f}");
    }
    out
}

/// What the parent reads back from one child.
struct Rep {
    mode: Mode,
    /// The child's metrics by key (`layer.*` keys only when traced).
    values: BTreeMap<String, f64>,
    fingerprint: String,
    spans: Vec<Span>,
    /// When the parent spawned the child, in microseconds since its start.
    spawned_us: f64,
    ended_us: f64,
}

impl Rep {
    fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// Parse a child's standard output into a rep; the caller fills in its
/// mode and when it ran.
fn parse_child(stdout: &str) -> Result<Rep, String> {
    let mut rep = Rep {
        mode: Mode::Plain,
        values: BTreeMap::new(),
        fingerprint: String::new(),
        spans: Vec::new(),
        spawned_us: 0.0,
        ended_us: 0.0,
    };
    let num = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number {s:?}"));
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f[..] {
            ["span", name, start, end, parent] => rep.spans.push(Span {
                name: name.to_string(),
                start_us: num(start)?,
                end_us: num(end)?,
                parent: parent.parse().ok(),
            }),
            ["metric", key, value] => {
                if rep.values.insert(key.to_string(), num(value)?).is_some() {
                    return Err(format!("metric {key} reported twice"));
                }
            }
            ["fingerprint", text] => rep.fingerprint = text.to_string(),
            _ => return Err(format!("malformed child line {line:?}")),
        }
    }
    if !rep.values.contains_key("setup_s") {
        return Err("child reported no set-up time".into());
    }
    Ok(rep)
}

/// Run one child to completion, or kill it at `deadline`. Times in the
/// returned rep count from `origin`.
fn spawn_child(
    w: Workload,
    seed: u64,
    mode: Mode,
    origin: Instant,
    deadline: Instant,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let spawned_us = origin.elapsed().as_secs_f64() * 1e6;
    let spawned_at = host::monotonic_ns();
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &seed.to_string()])
        .args(["--spawned-at", &spawned_at.to_string()])
        .args(["--trace", if mode == Mode::Traced { "1" } else { "0" }])
        .args((mode == Mode::SetUp).then_some("--set-up-only"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut proc = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let mut pipe = proc.stdout.take().expect("stdout is piped");
    let (status, stdout) = std::thread::scope(|s| {
        // Drain the pipe while waiting, so a long span list cannot fill it.
        let reader = s.spawn(move || {
            let mut out = String::new();
            pipe.read_to_string(&mut out).map(|_| out)
        });
        let status = loop {
            match proc.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() > deadline => {
                    let _ = proc.kill();
                    let _ = proc.wait();
                    break Err(format!("{} child killed at its deadline", w.name()));
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(e) => break Err(format!("wait for child: {e}")),
            }
        };
        let stdout = reader.join().expect("reader thread does not panic");
        (status, stdout)
    });
    let status = status?;
    let stdout = stdout.map_err(|e| format!("read child output: {e}"))?;
    if !status.success() {
        return Err(format!("{} child exited with {status}", w.name()));
    }
    Ok(Rep {
        mode,
        spawned_us,
        ended_us: origin.elapsed().as_secs_f64() * 1e6,
        ..parse_child(&stdout)?
    })
}

// ------------------------------------------------------------- parent

/// Reps of one workload and the operations they attempted.
#[derive(Default)]
struct Reps {
    reps: Vec<Rep>,
    /// Children that crashed or timed out: one failed operation each.
    lost: u64,
}

impl Reps {
    fn push(&mut self, w: Workload, res: Result<Rep, String>) {
        match res {
            Ok(rep) => self.reps.push(rep),
            Err(e) => {
                eprintln!("{}: FAILED {}", w.name(), e);
                self.lost += 1;
            }
        }
    }

    fn of(&self, mode: Mode) -> impl Iterator<Item = &Rep> {
        self.reps.iter().filter(move |r| r.mode == mode)
    }

    fn attempted(&self) -> u64 {
        self.reps
            .iter()
            .map(|r| r.get("attempted") as u64)
            .sum::<u64>()
            + self.lost
    }

    fn failed(&self) -> u64 {
        self.reps
            .iter()
            .map(|r| r.get("failed") as u64)
            .sum::<u64>()
            + self.lost
    }

    /// Values of `metric` over the untraced reps; set-up times also count
    /// the set-up-only ones.
    fn values(&self, metric: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter(|r| {
                r.mode == Mode::Plain || (metric.starts_with("setup_") && r.mode == Mode::SetUp)
            })
            .map(|r| r.get(metric))
            .collect()
    }

    fn summary(&self, metric: &str) -> Option<Summary> {
        let v = self.values(metric);
        (!v.is_empty()).then(|| Summary::of(&v))
    }

    /// Add set-up-only children until the untraced reps and these give
    /// [`SETUP_SAMPLES`] set-up times, or the next would end after `until`.
    fn top_up_set_ups(
        &mut self,
        w: Workload,
        seed: u64,
        origin: Instant,
        until: Instant,
        deadline: Instant,
    ) {
        let set_up = self.summary("setup_host_s").map_or(0.0, |s| s.median);
        while self.lost == 0
            && self.of(Mode::Plain).count() + self.of(Mode::SetUp).count() < SETUP_SAMPLES
            && Instant::now() + Duration::from_secs_f64(set_up) <= until
        {
            self.push(w, spawn_child(w, seed, Mode::SetUp, origin, deadline));
        }
    }

    /// Per-layer values: the median over traced reps of each metric the
    /// children measured, plus the two derived from both kinds of rep. Both
    /// time the span that produces the counted events (`events_s`), since
    /// the measured phase need not be the one that runs the recorder.
    fn layers(&self) -> BTreeMap<String, f64> {
        let traced: Vec<&Rep> = self.of(Mode::Traced).collect();
        let mut out = BTreeMap::new();
        for (metric, _) in layers::catalog() {
            let v: Vec<f64> = traced
                .iter()
                .map(|r| r.get(&format!("layer.{metric}")))
                .collect();
            if !v.is_empty() {
                out.insert(metric, quantile_of(&v, 0.5));
            }
        }
        let events = out.get("queue.events").copied().unwrap_or(0.0);
        if let (Some(plain), false) = (self.summary("events_s"), traced.is_empty()) {
            let per_event = if events > 0.0 {
                plain.median / events * 1e9
            } else {
                0.0
            };
            out.insert(layers::QUEUE_NS_PER_EVENT.into(), per_event);
            let t: Vec<f64> = traced.iter().map(|r| r.get("events_s")).collect();
            out.insert(
                layers::TELEMETRY_OVERHEAD.into(),
                quantile_of(&t, 0.5) / plain.median - 1.0,
            );
        }
        out
    }
}

/// The `--workload` form: one workload for about `--seconds`.
fn measure_one(w: Workload, a: &Args) -> Result<(), String> {
    host::disable_aslr_for_children();
    let origin = Instant::now();
    let deadline = origin + RUN_LIMIT;
    let mut reps = Reps::default();
    let full_reps_s = if a.trace {
        a.seconds
    } else {
        a.seconds * (1.0 - SETUP_SHARE)
    };
    loop {
        // With --trace 1, alternate traced and untraced children: the
        // untraced ones give ns/event and the telemetry overhead.
        let mode = if a.trace && reps.reps.len() % 2 == 1 {
            Mode::Traced
        } else {
            Mode::Plain
        };
        let res = spawn_child(w, a.seed, mode, origin, deadline);
        if let (Mode::Plain, Ok(r)) = (mode, &res) {
            eprintln!(
                "{}: setup_s {:.6} wall_s {:.6} cpu_s {:.6} peak_rss_mb {:.3} \
                 (host: setup {:.6} wall {:.6} cpu {:.6})",
                w.name(),
                r.get("setup_s"),
                r.get("wall_s"),
                r.get("cpu_s"),
                r.get("peak_rss_mb"),
                r.get("setup_host_s"),
                r.get("wall_host_s"),
                r.get("cpu_host_s"),
            );
        }
        reps.push(w, res);
        let n = reps.reps.len() + reps.lost as usize;
        let elapsed = origin.elapsed().as_secs_f64();
        let next_end = elapsed + elapsed / n as f64;
        if reps.lost > 0
            || (n >= MIN_REPS && next_end > full_reps_s)
            || next_end > RUN_LIMIT.as_secs_f64()
        {
            break;
        }
    }
    if !a.trace {
        let until = origin + Duration::from_secs_f64(a.seconds);
        reps.top_up_set_ups(w, a.seed, origin, until, deadline);
    }
    if let Some(path) = &a.trace_out {
        write_trace(path, &[(w, &reps)])?;
    }

    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    if a.trace {
        let units: BTreeMap<String, &str> = layers::catalog().into_iter().collect();
        let values = reps.layers();
        for (metric, v) in &values {
            metrics.push((metric.clone(), *v, units[metric].to_string()));
        }
        print_layers(&[(w, values)]);
    } else {
        print_end_to_end(&[(w, &reps)]);
        for &(name, unit, _) in END_TO_END {
            if let Some(s) = reps.summary(name) {
                metrics.push((name.to_string(), s.median, unit.to_string()));
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(k),
                json::number(*v),
                json::quote(u)
            )
        })
        .collect();
    let failed = reps.failed();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && !reps.reps.is_empty(),
        reps.attempted().max(1),
        failed,
        body.join(", ")
    );
    Ok(())
}

/// The ledger form: every workload, two sets of reps, then the traced pass.
fn measure_all(a: &Args) -> Result<(), String> {
    host::disable_aslr_for_children();
    let origin = Instant::now();
    let mut sets: Vec<Vec<Reps>> = Vec::new();
    for set in 0..2 {
        let mut reps: Vec<Reps> = ALL.iter().map(|_| Reps::default()).collect();
        for rep in 0..a.reps {
            // Rotate the order every rep so a noisy period on the host lands
            // on every workload alike.
            for k in 0..ALL.len() {
                let i = (k + rep) % ALL.len();
                eprintln!("set {} rep {} {}", set + 1, rep + 1, ALL[i].name());
                let deadline = Instant::now() + RUN_LIMIT;
                reps[i].push(
                    ALL[i],
                    spawn_child(ALL[i], a.seed, Mode::Plain, origin, deadline),
                );
            }
        }
        for (i, &w) in ALL.iter().enumerate() {
            // Set-up-only children get a share of the time as in a
            // `--workload` run: a tenth of the whole.
            let busy_us: f64 = reps[i].reps.iter().map(|r| r.ended_us - r.spawned_us).sum();
            let share = busy_us * 1e-6 * SETUP_SHARE / (1.0 - SETUP_SHARE);
            let now = Instant::now();
            let until = now + Duration::from_secs_f64(share);
            reps[i].top_up_set_ups(w, a.seed, origin, until, now + RUN_LIMIT);
        }
        sets.push(reps);
    }
    for (i, &w) in ALL.iter().enumerate() {
        eprintln!("traced {}", w.name());
        let deadline = Instant::now() + RUN_LIMIT;
        sets[0][i].push(w, spawn_child(w, a.seed, Mode::Traced, origin, deadline));
    }
    for (k, set) in sets.iter().enumerate() {
        println!("== set {} ==", k + 1);
        print_end_to_end(&ALL.iter().copied().zip(set).collect::<Vec<_>>());
    }
    let layer_rows: Vec<(Workload, BTreeMap<String, f64>)> = ALL
        .iter()
        .zip(&sets[0])
        .map(|(&w, r)| (w, r.layers()))
        .collect();
    print_layers(&layer_rows);
    let agreement = agreement(&sets);
    for line in &agreement.1 {
        println!("{line}");
    }
    if let Some(path) = &a.trace_out {
        write_trace(path, &ALL.iter().copied().zip(&sets[0]).collect::<Vec<_>>())?;
    }
    if let Some(path) = &a.out {
        let ledger = ledger(a, &sets, &layer_rows, agreement.0);
        std::fs::write(path, ledger).map_err(|e| format!("write {path}: {e}"))?;
        println!("ledger written to {path}");
    }
    let failed: u64 = sets.iter().flatten().map(Reps::failed).sum();
    if failed > 0 {
        return Err(format!("{failed} operation(s) failed"));
    }
    Ok(())
}

/// Whether the two sets agree: for every workload and end-to-end metric,
/// the second median is within the metric's bound of the first.
fn agreement(sets: &[Vec<Reps>]) -> (bool, Vec<String>) {
    let mut ok = true;
    let mut lines = vec!["== set agreement (second median vs first) ==".to_string()];
    for (i, w) in ALL.iter().enumerate() {
        for &(name, _, bound) in END_TO_END {
            let (Some(a), Some(b)) = (sets[0][i].summary(name), sets[1][i].summary(name)) else {
                ok = false;
                continue;
            };
            let delta = b.median / a.median - 1.0;
            let agrees = delta.abs() <= bound;
            ok &= agrees;
            lines.push(format!(
                "{:<22} {:<12} {:+7.2}% (bound {:.0}%){}",
                w.name(),
                name,
                delta * 100.0,
                bound * 100.0,
                if agrees { "" } else { "  DISAGREES" }
            ));
        }
    }
    (ok, lines)
}

// ------------------------------------------------------------- output

fn print_end_to_end(rows: &[(Workload, &Reps)]) {
    println!(
        "{:<22} {:<12} {:>5} {:>12} {:>12} {:>12} {:>8} {:>4}",
        "workload", "metric", "unit", "median", "q1", "q3", "iqr/med", "n"
    );
    for (w, reps) in rows {
        for &(name, unit, _) in END_TO_END {
            if let Some(s) = reps.summary(name) {
                println!(
                    "{:<22} {:<12} {:>5} {:>12.6} {:>12.6} {:>12.6} {:>7.2}% {:>4}",
                    w.name(),
                    name,
                    unit,
                    s.median,
                    s.q1,
                    s.q3,
                    s.spread() * 100.0,
                    s.n
                );
            }
        }
        let (att, failed) = (reps.attempted(), reps.failed());
        let known: f64 = reps.of(Mode::Plain).map(|r| r.get("known_failures")).sum();
        println!(
            "{:<22} {:<12} {:>5} {:>12.6}   ({} failed of {} attempted; {} known failure(s) of the recorded baseline)",
            w.name(),
            "error_rate",
            "ratio",
            failed as f64 / att.max(1) as f64,
            failed,
            att,
            known
        );
    }
}

fn print_layers(rows: &[(Workload, BTreeMap<String, f64>)]) {
    let catalog = layers::catalog();
    print!("{:<36} {:>6}", "per-layer metric", "unit");
    for (w, _) in rows {
        print!(" {:>20}", w.name());
    }
    println!();
    for (metric, unit) in &catalog {
        print!("{:<36} {:>6}", metric, unit);
        for (_, values) in rows {
            match values.get(metric) {
                Some(v) => print!(
                    " {:>20}",
                    format!("{:.6}", v)
                        .trim_end_matches('0')
                        .trim_end_matches('.')
                ),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
}

/// Chrome trace-event JSON: a `parent` row with one span per child, then
/// one row per traced child with its spans on the parent's clock.
fn write_trace(path: &str, rows: &[(Workload, &Reps)]) -> Result<(), String> {
    let mut parent = Vec::new();
    let mut out = Vec::new();
    for (w, reps) in rows {
        for r in &reps.reps {
            parent.push(Span {
                name: format!("{} {:?}", w.name(), r.mode),
                start_us: r.spawned_us,
                end_us: r.ended_us,
                parent: None,
            });
        }
        for r in reps.of(Mode::Traced) {
            let shifted = r
                .spans
                .iter()
                .map(|s| Span {
                    name: s.name.clone(),
                    start_us: s.start_us + r.spawned_us,
                    end_us: s.end_us + r.spawned_us,
                    parent: s.parent,
                })
                .collect();
            out.push((format!("{} traced child", w.name()), shifted));
        }
    }
    out.insert(0, ("parent".to_string(), parent));
    std::fs::write(path, trace::chrome_json(&out)).map_err(|e| format!("write {path}: {e}"))
}

fn ledger(
    a: &Args,
    sets: &[Vec<Reps>],
    layer_rows: &[(Workload, BTreeMap<String, f64>)],
    agree: bool,
) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"command\": \"cargo run --release --manifest-path benchmark/Cargo.toml -- --all --seed {} --reps {}\",\n",
        a.seed, a.reps
    ));
    s.push_str(&format!(
        "  \"seed\": {},\n  \"host\": {{\"nproc\": {}}},\n  \"reps_per_set\": {},\n",
        a.seed, nproc, a.reps
    ));
    let bounds: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b)| {
            format!(
                "{}: {{\"unit\": {}, \"bound\": {}}}",
                json::quote(n),
                json::quote(u),
                b
            )
        })
        .collect();
    s.push_str(&format!("  \"end_to_end\": {{{}}},\n", bounds.join(", ")));
    s.push_str(&format!("  \"sets_agree\": {},\n  \"sets\": [\n", agree));
    for (k, set) in sets.iter().enumerate() {
        s.push_str("    {\n");
        for (i, (w, reps)) in ALL.iter().zip(set).enumerate() {
            let mut fields: Vec<String> = Vec::new();
            let names = END_TO_END.iter().map(|e| e.0).chain(HOST_TIMES);
            for name in names {
                if let Some(m) = reps.summary(name) {
                    let values: Vec<String> =
                        reps.values(name).into_iter().map(json::number).collect();
                    fields.push(format!(
                        "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"values\": [{}]}}",
                        json::quote(name),
                        json::number(m.median),
                        json::number(m.q1),
                        json::number(m.q3),
                        m.n,
                        values.join(", ")
                    ));
                }
            }
            let fingerprints: Vec<&str> = reps
                .of(Mode::Plain)
                .map(|r| r.fingerprint.as_str())
                .collect();
            let known: f64 = reps.of(Mode::Plain).map(|r| r.get("known_failures")).sum();
            fields.push(format!(
                "\"error_rate\": {}, \"attempted\": {}, \"failed\": {}, \"known_failures\": {}, \"fingerprint\": {}",
                json::number(reps.failed() as f64 / reps.attempted().max(1) as f64),
                reps.attempted(),
                reps.failed(),
                known,
                json::quote(fingerprints.first().copied().unwrap_or(""))
            ));
            s.push_str(&format!(
                "      {}: {{{}}}{}\n",
                json::quote(w.name()),
                fields.join(", "),
                if i + 1 < ALL.len() { "," } else { "" }
            ));
        }
        s.push_str(if k + 1 < sets.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ],\n  \"per_layer\": {\n");
    for (i, (w, values)) in layer_rows.iter().enumerate() {
        let fields: Vec<String> = values
            .iter()
            .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
            .collect();
        s.push_str(&format!(
            "    {}: {{{}}}{}\n",
            json::quote(w.name()),
            fields.join(", "),
            if i + 1 < layer_rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use interference::experiments::{self, Fidelity};
    use mpisim::collective::Algorithm;
    use workload::Job;

    fn toy_jobs() -> Vec<(&'static str, Job)> {
        vec![
            (
                "ring_allreduce",
                Job::Collective {
                    algorithm: Algorithm::RingAllreduce,
                    ranks: 16,
                    payload: 256 << 10,
                },
            ),
            (
                "alltoall",
                Job::Collective {
                    algorithm: Algorithm::PairwiseAlltoall,
                    ranks: 16,
                    payload: 128 << 10,
                },
            ),
            (
                "contention_grid",
                Job::Grid {
                    nodes: 32,
                    rounds: 4,
                },
            ),
            (
                "campaign",
                Job::Campaign {
                    experiments: vec![experiments::find("fig4").expect("fig4 is registered")],
                    fidelity: Fidelity::Quick,
                },
            ),
        ]
    }

    /// The `(name, unit, bound)` of each entry of one section of
    /// `BENCHMARK.json`, which lists one entry per line.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        // The text after `"key": ` up to the next comma or brace, unquoted.
        let field = |line: &str, key: &str| -> String {
            let Some(at) = line.find(&format!("\"{key}\": ")) else {
                return String::new();
            };
            let rest = &line[at + key.len() + 4..];
            rest[..rest.find([',', '}']).unwrap_or(rest.len())]
                .trim_matches('"')
                .to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "bound")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_every_metric_with_its_unit() {
        let e2e: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let per_layer: Vec<(String, String, String)> = layers::catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_string(), String::new()))
            .collect();
        assert_eq!(declared("per_layer"), per_layer);
        let names: Vec<String> = declared("workloads")
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(names, ALL.map(|w| w.name().to_string()));
    }

    /// A toy run of every job kind goes through the child's output and
    /// back, and the traced one yields every per-layer metric.
    #[test]
    fn toy_reports_round_trip_through_the_parent() {
        for (name, job) in toy_jobs() {
            let set_up = Rep {
                mode: Mode::SetUp,
                ..parse_child(&rep_output(&job, None, 1, 0, Mode::SetUp))
                    .expect("set-up-only output parses")
            };
            assert_eq!(
                set_up.values.keys().collect::<Vec<_>>(),
                ["setup_host_s", "setup_s"]
            );
            let plain = parse_child(&rep_output(&job, None, 1, 0, Mode::Plain))
                .expect("untraced output parses");
            assert!(
                plain.spans.is_empty(),
                "{name}: untraced child prints no spans"
            );
            assert!(!plain.fingerprint.is_empty());
            for &(metric, _, _) in END_TO_END {
                assert!(
                    plain.get(metric) > 0.0,
                    "{name}: {metric} = {}",
                    plain.get(metric)
                );
            }
            assert_eq!(plain.get("events_s"), plain.get("wall_s"), "{name}");
            assert_eq!(plain.get("failed"), 0.0, "{name}");
            assert!(plain.get("attempted") >= 1.0);
            let traced = Rep {
                mode: Mode::Traced,
                ..parse_child(&rep_output(&job, None, 1, 0, Mode::Traced))
                    .expect("traced output parses")
            };
            assert_eq!(
                traced.fingerprint, plain.fingerprint,
                "{name}: tracing changed the output"
            );
            assert!(traced.spans.iter().any(|s| s.name == "measured"));
            let reps = Reps {
                reps: vec![set_up, plain, traced],
                lost: 0,
            };
            let layers = reps.layers();
            for (metric, _) in layers::catalog() {
                assert!(layers.contains_key(&metric), "{name}: {metric} missing");
            }
            assert_eq!(
                layers.len(),
                layers::catalog().len(),
                "{name}: undeclared metric"
            );
            assert!(layers["queue.events"] > 0.0, "{name}: no events counted");
            assert_eq!(reps.values("setup_s").len(), 2, "{name}");
            assert_eq!(reps.values("wall_s").len(), 1, "{name}");
        }
    }

    /// `predict_check` counts the events of its harvest, which runs before
    /// the measured phase; events per second and the recorder's overhead
    /// must be timed over the harvest, not over the measured phase.
    #[test]
    fn derived_layer_metrics_time_the_span_that_records_events() {
        assert_eq!(
            Workload::PredictCheck.job().events_span(),
            "predict.harvest"
        );
        let rep = |mode, wall_s, events_s, events| Rep {
            mode,
            values: BTreeMap::from([
                ("wall_s".to_string(), wall_s),
                ("events_s".to_string(), events_s),
                ("layer.queue.events".to_string(), events),
            ]),
            fingerprint: String::new(),
            spans: Vec::new(),
            spawned_us: 0.0,
            ended_us: 0.0,
        };
        let reps = Reps {
            reps: vec![
                rep(Mode::Plain, 5.0, 1.0, 0.0),
                rep(Mode::Traced, 7.0, 1.25, 1e6),
            ],
            lost: 0,
        };
        let layers = reps.layers();
        assert_eq!(layers[layers::QUEUE_NS_PER_EVENT], 1000.0);
        assert_eq!(layers[layers::TELEMETRY_OVERHEAD], 0.25);
    }

    #[test]
    fn collective_fingerprints_do_not_depend_on_the_seed() {
        for (name, job) in toy_jobs().into_iter().take(2) {
            let fp = |seed| {
                let mut spans = Spans::new(Instant::now());
                let run = job.run(seed, Mode::Plain, &mut spans);
                assert_eq!(run.ops.failed, 0, "{name}");
                run.fingerprint
            };
            assert_eq!(fp(1), fp(2), "{name}");
        }
    }

    #[test]
    fn malformed_child_output_is_refused() {
        for bad in [
            "",
            "metric\twall_s\t1.0\n",
            "metric\tsetup_s\tx\n",
            "metric\tsetup_s\t1\nmetric\tsetup_s\t2\n",
            "metric\tsetup_s\t1\nspan\tmeasured\t0\n",
            "metric\tsetup_s\t1\n{}\n",
        ] {
            assert!(parse_child(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args(
            "--workload alltoall_512 --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::Alltoall512));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.child),
            (7, 12.0, true, false)
        );
        let a = parse_args(&args("--child predict_check --set-up-only")).expect("valid");
        assert!(a.child && a.set_up_only);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed",
            "--bogus",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
