//! Regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--jobs N] [--csv DIR] [--json FILE] [--timings FILE]
//!       [--trace FILE] [--fuzz-budget N] [--timeout SECS] [--allow-partial]
//!       [--list | --all | --fig N | --table 1 | --ext | --validate
//!        | --predict-check | --only NAME[,NAME]]
//! ```
//!
//! Selection goes through the experiment registry
//! ([`interference::experiments::all_experiments`]): `--list` prints every
//! registered experiment with its paper anchor and sweep size, `--only`
//! picks experiments by registry name, `--fig N` accepts 1–10 (all
//! sub-figures of N are produced). The selection flags (`--all`, `--fig`,
//! `--table`, `--ext`, `--validate`, `--predict-check`, `--only`) exclude
//! each other: a second one is a usage error. `--jobs N` runs the
//! campaign's sweep points on N worker threads — results are
//! byte-identical to `--jobs 1` because every point's seed derives from
//! (experiment, point index), not from execution order.
//!
//! Output is a textual report: simulated medians with first/last-decile
//! bands, the paper's reference values as notes, PASS/FAIL qualitative
//! checks, and a campaign timing summary.
//!
//! `--validate` runs the simcheck validation campaign instead of the paper
//! figures: closed-form oracles on every cluster preset, metamorphic
//! invariants over random fluid scenarios, and the differential scenario
//! fuzzer (`--fuzz-budget N` overrides the scenario count and is a usage
//! error without `--validate`; failing scripts are shrunk and printed, and
//! also written to `$SIMCHECK_FAILURE_DIR` when that variable is set).
//! Like every other run, a failing check exits 1 — `scripts/verify.sh` and
//! CI gate on it.
//!
//! `--trace FILE` enables the deterministic telemetry layer and writes the
//! merged campaign journal as Chrome trace-event JSON — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>. The journal is keyed to
//! sim-time only, so the file is byte-identical at any `--jobs` level.
//!
//! `--timeout SECS` arms a per-point wall-clock deadline: a wedged point is
//! cooperatively cancelled at the next simulation event and recorded as
//! `TimedOut` instead of hanging the campaign. A campaign that completes
//! partial (any failed or timed-out point, or a finalizer that could not
//! produce its figures) exits 3 unless `--allow-partial` is passed.
//!
//! `--validate` also runs the prediction-accuracy campaign (cross-validated
//! counter→slowdown error and held-out placement ranking gated against
//! `PREDICT_baseline.json`); `--predict-check` runs only that campaign —
//! the dedicated CI predict job's entry point.
//!
//! Two subcommands query the placement advisor directly (see
//! EXPERIMENTS.md):
//!
//! ```text
//! repro predict         --preset NAME --workload FAM --cores N --placement I
//!                       --metric bw|lat [--quick] [--jobs N]
//!                       [--store DIR [--resume]] [--ground-truth]
//! repro rank-placements --preset NAME --workload FAM --cores N
//!                       --metric bw|lat [--quick] [--jobs N]
//!                       [--store DIR [--resume]] [--ground-truth]
//! ```
//!
//! Both harvest the training grid (excluding every pair that co-ran the
//! queried workload family on the queried machine — the query is genuinely
//! unseen), train the advisor, and predict from the query's *alone* steps
//! only; the together step never executes unless `--ground-truth` asks for
//! the reference measurement. `rank-placements` ranks every placement, so
//! `--placement` is a usage error there.
//!
//! `--store DIR` caches the harvest in a crash-consistent on-disk result
//! store: every harvested pair is persisted as it finishes, and `--resume`
//! restores the persisted pairs instead of re-measuring them, so a later
//! query, or a query killed mid-harvest and run again, skips that work.
//! The output is the same either way (point seeds derive from the plan,
//! never from execution order or wall time). Corrupt or torn entries are
//! detected by checksum, quarantined, and re-measured — never served.
//!
//! Exit codes: 0 success, 1 failed qualitative checks, 2 usage error,
//! 3 partial campaign without `--allow-partial`.

use std::path::Path;
use std::time::{Duration, Instant};

use interference::campaign::{
    CampaignOptions, CampaignReport, Experiment, ExperimentRun, StoreCtx,
};
use interference::experiments::{self, Fidelity};
use interference::store::ResultStore;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--jobs N] [--csv DIR] [--json FILE] [--timings FILE]\n\
         \x20            [--trace FILE] [--fuzz-budget N] [--timeout SECS] [--allow-partial]\n\
         \x20            [--list | --all | --fig N | --table 1 | --ext | --validate\n\
         \x20             | --predict-check | --only NAME[,NAME]]\n\
         \x20      repro predict         --preset NAME --workload FAM --cores N\n\
         \x20            --placement I --metric bw|lat [--quick] [--jobs N]\n\
         \x20            [--store DIR [--resume]] [--ground-truth]\n\
         \x20      repro rank-placements --preset NAME --workload FAM --cores N\n\
         \x20            --metric bw|lat [--quick] [--jobs N]\n\
         \x20            [--store DIR [--resume]] [--ground-truth]"
    );
    std::process::exit(2);
}

/// Write an export atomically (temp + rename): an interrupted run leaves
/// either the previous artifact or the new one, never a truncated file.
fn export(path: &str, bytes: &[u8], what: &str) {
    if let Err(e) = interference::atomic_write(Path::new(path), bytes) {
        eprintln!("error: failed to write {} {}: {}", what, path, e);
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("predict") => return predict_cli(&args[1..], true),
        Some("rank-placements") => return predict_cli(&args[1..], false),
        _ => {}
    }
    let mut fidelity = Fidelity::Full;
    let mut jobs = 1usize;
    let mut csv_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut timings_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut timeout: Option<Duration> = None;
    let mut allow_partial = false;
    let mut fuzz_budget: Option<usize> = None;
    let mut list = false;
    let mut select: Option<String> = None;
    let mut only: Vec<String> = Vec::new();
    let mut selected_by: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--list" => list = true,
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--timings" => {
                i += 1;
                timings_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--timeout" => {
                i += 1;
                let secs: f64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage());
                timeout = Some(Duration::from_secs_f64(secs));
            }
            "--allow-partial" => allow_partial = true,
            "--fuzz-budget" => {
                i += 1;
                fuzz_budget = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| usage()),
                );
            }
            flag @ ("--all" | "--ext" | "--validate" | "--predict-check" | "--fig" | "--table"
            | "--only") => {
                if let Some(first) = selected_by {
                    eprintln!("{} and {} both select experiments; pass one", first, flag);
                    usage();
                }
                selected_by = Some(flag);
                let mut value = || {
                    i += 1;
                    args.get(i).cloned().unwrap_or_else(|| usage())
                };
                match flag {
                    "--all" => {}
                    "--ext" => select = Some("ext".into()),
                    "--validate" => select = Some("validate".into()),
                    "--predict-check" => select = Some("predict-check".into()),
                    "--fig" => select = Some(format!("fig{}", value())),
                    "--table" => select = Some(format!("table{}", value())),
                    "--only" => only = value().split(',').map(|s| s.trim().to_string()).collect(),
                    _ => unreachable!("every selection flag is matched above"),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {}", other);
                usage();
            }
        }
        i += 1;
    }

    if list {
        print_list();
        return;
    }
    if fuzz_budget.is_some() && select.as_deref() != Some("validate") {
        eprintln!("--fuzz-budget requires --validate");
        usage();
    }

    let validate = experiments::validation::Validate { fuzz_budget };
    let exps = selected_experiments(select.as_deref(), &only, &validate);
    let opts = CampaignOptions::new(fidelity, jobs)
        .with_telemetry(trace_path.is_some())
        .with_timeout(timeout);
    let t0 = Instant::now();
    let (runs, report) = interference::campaign::run_set_with_report(&exps, &opts);
    let wall = t0.elapsed();

    if let Some(path) = &trace_path {
        let journal = report.journal.as_ref().expect("telemetry was enabled");
        export(path, journal.to_chrome_json().as_bytes(), "trace");
        println!(
            "(chrome trace written to {}: {} records across {} categories)",
            path,
            journal.records.len(),
            journal.categories().len()
        );
    }

    let mut failed = 0;
    let mut figs = Vec::new();
    for run in runs.iter() {
        for f in &run.figures {
            print!("{}", f.render());
            println!();
            failed += f.checks.iter().filter(|c| !c.pass).count();
            if let Some(dir) = &csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = format!("{}/{}.csv", dir, f.id);
                export(&path, f.to_csv().as_bytes(), "csv");
                println!("   (csv written to {})", path);
            }
        }
        figs.extend(run.figures.iter());
    }
    if let Some(path) = &json_path {
        let owned: Vec<_> = runs.iter().flat_map(|r| r.figures.clone()).collect();
        export(
            path,
            interference::results::figures_to_json(&owned).as_bytes(),
            "json",
        );
        println!("(json written to {})", path);
    }

    print_timings(&runs, &report, jobs, wall.as_secs_f64());
    if let Some(path) = &timings_path {
        export(
            path,
            timings_json(&runs, &report, fidelity, jobs, wall.as_secs_f64()).as_bytes(),
            "timings",
        );
        println!("(timings written to {})", path);
    }

    let partial = runs.iter().any(|r| r.is_partial());
    let total: usize = figs.iter().map(|f| f.checks.len()).sum();
    println!(
        "== summary: {}/{} qualitative checks passed across {} figures/tables{} ==",
        total - failed,
        total,
        figs.len(),
        if partial { " (PARTIAL)" } else { "" }
    );
    for r in runs.iter().filter(|r| r.is_partial()) {
        eprintln!(
            "partial: {} ({} failed, {} timed out{})",
            r.name,
            r.failed_points,
            r.timed_out_points,
            match &r.finalize_error {
                Some(e) => format!("; finalize: {}", e),
                None => String::new(),
            }
        );
    }
    if failed > 0 {
        std::process::exit(1);
    }
    if partial && !allow_partial {
        eprintln!("campaign completed partial; pass --allow-partial to exit 0");
        std::process::exit(3);
    }
}

/// Resolve the CLI selection to registry entries; `--validate` runs
/// `validate`, which carries the `--fuzz-budget` value.
fn selected_experiments<'a>(
    select: Option<&str>,
    only: &[String],
    validate: &'a dyn Experiment,
) -> Vec<&'a dyn Experiment> {
    if !only.is_empty() {
        return only
            .iter()
            .map(|name| {
                experiments::find(name).unwrap_or_else(|| {
                    eprintln!("unknown experiment: {} (try --list)", name);
                    usage();
                })
            })
            .collect();
    }
    match select {
        None => experiments::PAPER_EXPERIMENTS.to_vec(),
        Some("ext") => experiments::EXTENSION_EXPERIMENTS.to_vec(),
        Some("validate") => vec![validate, predict::accuracy::ACCURACY_EXPERIMENT],
        Some("predict-check") => vec![predict::accuracy::ACCURACY_EXPERIMENT],
        Some(name) => match experiments::find(name) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown selection: {} (try --list)", name);
                usage();
            }
        },
    }
}

/// `repro predict` / `repro rank-placements`: train the placement advisor
/// on harvested pairs that exclude the queried (preset, workload family)
/// — the query is a pair the model has never seen co-run — then predict
/// from the query's alone steps only.
fn predict_cli(args: &[String], single_placement: bool) {
    use interference::experiments::harvest::{self, Family, PairSpec};
    use predict::advisor::{default_params, Advisor};
    use topology::presets::Preset;

    let mut fidelity = Fidelity::Full;
    let mut jobs = 1usize;
    let mut store_dir: Option<String> = None;
    let mut resume = false;
    let mut ground_truth = false;
    let mut preset: Option<Preset> = None;
    let mut family: Option<Family> = None;
    let mut cores: Option<u32> = None;
    let mut placement = 0usize;
    let mut placement_given = false;
    let mut metric: Option<interference::experiments::contention::Metric> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => fidelity = Fidelity::Quick,
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--store" => {
                i += 1;
                store_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--resume" => resume = true,
            "--ground-truth" => ground_truth = true,
            "--preset" => {
                i += 1;
                let name = args.get(i).cloned().unwrap_or_else(|| usage());
                preset = Preset::clusters()
                    .into_iter()
                    .find(|p| p.spec().name == name);
                if preset.is_none() {
                    eprintln!(
                        "unknown preset: {} (expected one of {})",
                        name,
                        Preset::clusters().map(|p| p.spec().name).join(", ")
                    );
                    usage();
                }
            }
            "--workload" => {
                i += 1;
                let tag = args.get(i).cloned().unwrap_or_else(|| usage());
                family = Family::from_tag(&tag);
                if family.is_none() {
                    eprintln!(
                        "unknown workload family: {} (expected one of {})",
                        tag,
                        Family::all().map(|f| f.tag()).join(", ")
                    );
                    usage();
                }
            }
            "--cores" => {
                i += 1;
                cores = args.get(i).and_then(|s| s.parse().ok());
                if cores.is_none() {
                    usage();
                }
            }
            "--placement" => {
                i += 1;
                placement = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&p| p < topology::Placement::all_combinations().len())
                    .unwrap_or_else(|| usage());
                placement_given = true;
            }
            "--metric" => {
                i += 1;
                metric = match args.get(i).map(String::as_str) {
                    Some("bw") => Some(interference::experiments::contention::Metric::Bandwidth),
                    Some("lat") => Some(interference::experiments::contention::Metric::Latency),
                    _ => usage(),
                };
            }
            other => {
                eprintln!("unknown argument: {}", other);
                usage();
            }
        }
        i += 1;
    }
    let (Some(preset), Some(family), Some(cores), Some(metric)) = (preset, family, cores, metric)
    else {
        eprintln!("--preset, --workload, --cores and --metric are required");
        usage();
    };
    if single_placement && !placement_given {
        eprintln!(
            "repro predict requires --placement I (0..{})",
            topology::Placement::all_combinations().len()
        );
        usage();
    }
    if !single_placement && placement_given {
        eprintln!(
            "repro rank-placements ranks every placement; --placement I is for repro predict"
        );
        usage();
    }
    if resume && store_dir.is_none() {
        eprintln!("--resume requires --store DIR");
        usage();
    }
    let query = PairSpec {
        preset,
        placement,
        family,
        cores,
        metric,
    };

    // Harvest the training grid, minus every pair that co-ran the queried
    // family on the queried machine.
    let store = store_dir.as_ref().map(|dir| {
        ResultStore::open(dir).unwrap_or_else(|e| {
            eprintln!("error: cannot open result store {}: {}", dir, e);
            std::process::exit(1);
        })
    });
    let opts = CampaignOptions::new(fidelity, jobs);
    let ctx = store.as_ref().map(|s| StoreCtx { store: s, resume });
    let t0 = Instant::now();
    let outcomes = interference::campaign::run_outcomes_with_store(
        experiments::HARVEST_EXPERIMENT,
        &opts,
        ctx,
    );
    let all_pairs = harvest::collect_pairs(&outcomes);
    let harvest_wall = t0.elapsed();
    let params = default_params();
    let Some(advisor) = Advisor::train_excluding(&all_pairs, &params, |s| {
        !(s.preset == preset && s.family == family)
    }) else {
        eprintln!("error: harvest produced no training pairs");
        std::process::exit(1);
    };
    let trained = all_pairs
        .iter()
        .filter(|p| !(p.spec.preset == preset && p.spec.family == family))
        .count();
    println!(
        "advisor: trained on {} pair(s) in {:.2} s (held out {}:{}; harvest {:?} fidelity)",
        trained,
        t0.elapsed().as_secs_f64(),
        preset.spec().name,
        family.tag(),
        fidelity
    );
    println!(
        "   harvest {:.2} s, {} point(s){}",
        harvest_wall.as_secs_f64(),
        outcomes.len(),
        match outcomes.iter().filter(|o| o.restored).count() {
            0 => String::new(),
            n => format!(" ({} restored from store)", n),
        }
    );
    println!();

    if single_placement {
        let (comm, compute) = advisor.predict_spec(&query, fidelity).unwrap_or_else(|e| {
            eprintln!("error: prediction failed: {}", e);
            std::process::exit(1);
        });
        println!("query: {}", query.label());
        println!(
            "   predicted co-location penalty: comm {:.3}x, compute {:.3}x, combined {:.3}x",
            comm,
            compute,
            comm * compute
        );
        println!("   (predicted from the alone steps only; the together step never ran)");
        if ground_truth {
            let gt = harvest::measure_pair_direct(&query, fidelity).unwrap_or_else(|e| {
                eprintln!("error: ground-truth measurement failed: {}", e);
                std::process::exit(1);
            });
            let err = |p: f64, t: f64| (p - t).abs() / t * 100.0;
            println!(
                "   ground truth:                  comm {:.3}x, compute {:.3}x, combined {:.3}x",
                gt.comm_penalty,
                gt.compute_penalty,
                gt.comm_penalty * gt.compute_penalty
            );
            println!(
                "   absolute relative error:       comm {:.1}%, compute {:.1}%, combined {:.1}%",
                err(comm, gt.comm_penalty),
                err(compute, gt.compute_penalty),
                err(comm * compute, gt.comm_penalty * gt.compute_penalty)
            );
        }
        return;
    }

    let ranked = advisor
        .rank_placements(&query, fidelity)
        .unwrap_or_else(|e| {
            eprintln!("error: ranking failed: {}", e);
            std::process::exit(1);
        });
    println!(
        "rank-placements: {}:{} c{} {} — {} candidates, best first",
        preset.spec().name,
        family.tag(),
        cores,
        metric.tag(),
        ranked.len()
    );
    let truths: Vec<Option<harvest::TrainingPair>> = if ground_truth {
        ranked
            .iter()
            .map(|r| {
                harvest::measure_pair_direct(
                    &PairSpec {
                        placement: r.placement,
                        ..query
                    },
                    fidelity,
                )
                .ok()
            })
            .collect()
    } else {
        vec![None; ranked.len()]
    };
    for (rank, (r, truth)) in ranked.iter().zip(&truths).enumerate() {
        print!(
            "   #{} placement {} ({:<22}) predicted comm {:.3}x compute {:.3}x combined {:.3}x",
            rank + 1,
            r.placement,
            r.label,
            r.comm,
            r.compute,
            r.combined
        );
        match truth {
            Some(t) => println!("   truth {:.3}x", t.comm_penalty * t.compute_penalty),
            None => println!(),
        }
    }
    if ground_truth {
        let pairs: Vec<(f64, f64)> = ranked
            .iter()
            .zip(&truths)
            .filter_map(|(r, t)| {
                t.as_ref()
                    .map(|t| (r.combined, t.comm_penalty * t.compute_penalty))
            })
            .collect();
        if pairs.len() == ranked.len() {
            let best_true = pairs.iter().map(|(_, t)| *t).fold(f64::MAX, f64::min);
            let picked_true = pairs[0].1;
            println!(
                "   predicted-best regret vs ground-truth best: {:.1}%",
                (picked_true / best_true - 1.0) * 100.0
            );
        }
    }
}

/// `--list`: every registered experiment with anchor and sweep sizes.
fn print_list() {
    let (name, full, quick, anchor) = ("name", "full", "quick", "paper anchor");
    println!("{:<18} {:>6} {:>6}  {}", name, full, quick, anchor);
    for e in experiments::all_experiments() {
        println!(
            "{:<18} {:>6} {:>6}  {}",
            e.name(),
            e.plan(Fidelity::Full).len(),
            e.plan(Fidelity::Quick).len(),
            e.anchor()
        );
    }
}

/// Campaign timing summary: per-experiment busy time and throughput, plus
/// a telemetry section (cache statistics; journal size when recording).
fn print_timings(runs: &[ExperimentRun], report: &CampaignReport, jobs: usize, wall_s: f64) {
    println!("== campaign timings ({} job(s)) ==", jobs);
    for r in runs {
        let mut flags = String::new();
        if r.failed_points > 0 {
            flags.push_str(&format!(" ({} FAILED)", r.failed_points));
        }
        if r.timed_out_points > 0 {
            flags.push_str(&format!(" ({} TIMED OUT)", r.timed_out_points));
        }
        println!(
            "   {:<18} {:>3} point(s){} {:>8.2} s busy  {:>6.2} points/s{}",
            r.name,
            r.points,
            flags,
            r.busy.as_secs_f64(),
            r.points_per_sec(),
            if report.journal.is_some() {
                format!("  {:.3} s sim", r.sim.as_secs_f64())
            } else {
                String::new()
            }
        );
    }
    let busy: f64 = runs.iter().map(|r| r.busy.as_secs_f64()).sum();
    println!(
        "   total: {:.2} s wall, {:.2} s busy (utilisation {:.2}x)",
        wall_s,
        busy,
        if wall_s > 0.0 { busy / wall_s } else { 0.0 }
    );
    println!("== telemetry ==");
    println!(
        "   baselines: {} lookup(s), {} computed, {} cache hit(s)",
        report.baseline_calls,
        report.baseline_computed,
        report.baseline_calls - report.baseline_computed
    );
    match &report.journal {
        Some(j) => {
            println!(
                "   journal: {} record(s), {} counter(s), {} histogram(s), {:.3} s simulated",
                j.records.len(),
                j.counters.len(),
                j.samples.len(),
                j.end_time().as_secs_f64()
            );
            for (name, value) in &j.counters {
                println!("   counter {:<18} {}", name, value);
            }
            print_engine_throughput(j, busy);
        }
        None => println!("   journal: disabled (enable with --trace FILE)"),
    }
    print_collective_path(report.journal.as_ref());
    println!();
}

/// Engine-throughput digest derived from the merged telemetry journal:
/// events processed and events/sec over campaign busy time, same-instant
/// batching effectiveness (allocator passes saved vs one-pass-per-event)
/// and timer-queue traffic.
fn print_engine_throughput(j: &simcore::Journal, busy_s: f64) {
    let c = |name: &str| j.counters.get(name).copied().unwrap_or(0);
    let events = c("engine.events");
    if events == 0 {
        return;
    }
    println!("== engine throughput ==");
    println!(
        "   {} event(s) processed, {:.0} events/s of busy time",
        events,
        if busy_s > 0.0 {
            events as f64 / busy_s
        } else {
            0.0
        }
    );
    let instants = c("engine.queue.batch_instants");
    if instants > 0 {
        println!(
            "   {} batched instant(s), {:.2} events/instant: {} allocator pass(es) saved vs per-event",
            instants,
            events as f64 / instants as f64,
            events.saturating_sub(instants)
        );
    }
    println!(
        "   timer queue: {} insert(s), {} cancel(s)",
        c("engine.queue.inserts"),
        c("engine.queue.cancels")
    );
}

/// Collective fast-path digest: message-matching bin hits vs probe scans,
/// payload paths routed through `Fabric::route` (`net.route.intern_hit`),
/// waterfill fast-path engagements (all from the
/// journal, so they need `--trace`), and the schedule-memoization cache
/// (process-global atomics, so always available).
fn print_collective_path(j: Option<&simcore::Journal>) {
    let cache = mpisim::collective::cache_stats();
    let c = |name: &str| j.and_then(|j| j.counters.get(name).copied()).unwrap_or(0);
    let probes = c("mpi.match.probes");
    let hits = c("mpi.match.bin_hit");
    let routes = c("net.route.intern_hit");
    let waterfill = c("fluid.waterfill");
    if cache.hits + cache.misses == 0 && probes + routes + waterfill == 0 {
        return;
    }
    println!("== collective path ==");
    if probes > 0 {
        println!(
            "   matching: {} bin hit(s) in {} probe(s) ({:.2} probes/match)",
            hits,
            probes,
            if hits > 0 {
                probes as f64 / hits as f64
            } else {
                0.0
            }
        );
    }
    if routes > 0 {
        println!("   routes: {} payload path(s) routed on the fabric", routes);
    }
    if cache.hits + cache.misses > 0 {
        println!(
            "   schedule cache: {} hit(s), {} miss(es) (built + proved once each)",
            cache.hits, cache.misses
        );
    }
    if waterfill > 0 {
        println!("   waterfill: {} single-flow fast-path solve(s)", waterfill);
    }
}

/// Machine-readable timing record (`--timings FILE`).
fn timings_json(
    runs: &[ExperimentRun],
    report: &CampaignReport,
    fidelity: Fidelity,
    jobs: usize,
    wall_s: f64,
) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"fidelity\":\"{:?}\",\"jobs\":{},\"wall_s\":{:.3},\"partial\":{},\"experiments\":[",
        fidelity,
        jobs,
        wall_s,
        runs.iter().any(|r| r.is_partial())
    ));
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"points\":{},\"failed_points\":{},\"timed_out_points\":{},\"busy_s\":{:.3},\"sim_s\":{:.6}}}",
            r.name,
            r.points,
            r.failed_points,
            r.timed_out_points,
            r.busy.as_secs_f64(),
            r.sim.as_secs_f64()
        ));
    }
    out.push(']');
    out.push_str(",\"telemetry\":{");
    out.push_str(&format!(
        "\"enabled\":{},\"baseline_calls\":{},\"baseline_computed\":{}",
        report.journal.is_some(),
        report.baseline_calls,
        report.baseline_computed
    ));
    if let Some(j) = &report.journal {
        out.push_str(&format!(
            ",\"records\":{},\"sim_s\":{:.6},\"counters\":{{",
            j.records.len(),
            j.end_time().as_secs_f64()
        ));
        for (i, (name, value)) in j.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", name, value));
        }
        out.push('}');
        let c = |name: &str| j.counters.get(name).copied().unwrap_or(0);
        let events = c("engine.events");
        let instants = c("engine.queue.batch_instants");
        let busy: f64 = runs.iter().map(|r| r.busy.as_secs_f64()).sum();
        out.push_str(&format!(
            ",\"engine\":{{\"events\":{},\"events_per_busy_s\":{:.0},\"batch_instants\":{},\"allocator_passes_saved\":{},\"queue_inserts\":{},\"queue_cancels\":{}}}",
            events,
            if busy > 0.0 { events as f64 / busy } else { 0.0 },
            instants,
            events.saturating_sub(instants),
            c("engine.queue.inserts"),
            c("engine.queue.cancels"),
        ));
        out.push('}');
    } else {
        out.push('}');
    }
    let cache = mpisim::collective::cache_stats();
    let c = |name: &str| {
        report
            .journal
            .as_ref()
            .and_then(|j| j.counters.get(name).copied())
            .unwrap_or(0)
    };
    out.push_str(&format!(
        ",\"collective\":{{\"match_probes\":{},\"match_bin_hits\":{},\"route_intern_hits\":{},\"schedule_cache_hits\":{},\"schedule_cache_misses\":{},\"waterfill_solves\":{}}}",
        c("mpi.match.probes"),
        c("mpi.match.bin_hit"),
        c("net.route.intern_hit"),
        cache.hits,
        cache.misses,
        c("fluid.waterfill"),
    ));
    out.push_str("}\n");
    out
}
