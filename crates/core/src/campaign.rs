//! Declarative experiment campaigns: the `Experiment` trait and the
//! parallel engine that executes sweep plans.
//!
//! Each figure/table driver describes itself as an [`Experiment`]: a name,
//! a paper anchor, a fidelity-aware sweep plan of enumerable
//! [`SweepPoint`]s, a per-point measurement, and a `finalize` step that
//! folds the point values into [`FigureData`]. The engine flattens the
//! plans of every selected experiment into one work queue and executes the
//! points on a pool of `std::thread` workers.
//!
//! **Determinism.** A point's seed is derived *only* from the experiment
//! name and the point index ([`point_seed`]), never from execution order,
//! so a parallel run (`--jobs N`) produces byte-identical figures to a
//! serial one. Memoized baselines use a seed derived from their cache key
//! ([`baseline_seed`]) for the same reason.
//!
//! **Crash-proofness.** Every point runs under the [`crate::runner`]
//! policy: [`crate::runner::guarded`] (catch_unwind + quiet panic hook); a
//! failed point is retried once on a fresh [`crate::runner::retry_seed`]
//! and otherwise recorded as [`RunStatus::Failed`] so the remaining points
//! still reach `finalize`.
//!
//! **Entry points.** This module is the only way to run an experiment:
//! [`run_experiment`] for one, [`run_set`] for a campaign of several,
//! [`run_set_with_report`] for the campaign report too, and
//! [`run_outcomes_with_store`] for the raw point outcomes without figure
//! assembly, optionally cached in a result store (the predictor's harvest
//! is the one experiment that is).
//!
//! **Baseline memoization.** The protocol's "alone" steps do not depend on
//! most sweep variables (communication alone is the same measurement at
//! every computing-core count; computation alone does not care about the
//! message size). Experiments share those runs through the
//! [`BaselineCache`], keyed by configuration content — which also lets
//! fig4, fig5 and table1 share entire contention points instead of
//! recomputing three overlapping placement sweeps.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use simcore::cancel::{self, CancelToken};
use simcore::reference_paths::{self, ReferencePaths};
use simcore::telemetry::{self, Journal, Lane, Record, RecordKind};
use simcore::{SimTime, SplitMix64};

use crate::codec::{Dec, Enc};
use crate::experiments::Fidelity;
use crate::report::FigureData;
use crate::runner::{self, RunStatus};
use crate::store::{Lookup, ResultStore};

/// Opaque per-point measurement value, downcast by `finalize`.
pub type PointValue = Box<dyn Any + Send>;

/// One enumerable point of an experiment's sweep plan.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Position in the plan (dense, 0-based). Seeds derive from it, and
    /// `run_point` re-derives the sweep coordinates from it.
    pub index: usize,
    /// Human-readable label ("lat @ 12 cores"), for progress and `--list`.
    pub label: String,
}

impl SweepPoint {
    /// Build a point.
    pub fn new(index: usize, label: impl Into<String>) -> SweepPoint {
        SweepPoint {
            index,
            label: label.into(),
        }
    }
}

/// Execution context handed to [`Experiment::run_point`].
pub struct PointCtx<'a> {
    /// Sweep density / repetition selector of the campaign.
    pub fidelity: Fidelity,
    /// The point's deterministic seed ([`point_seed`] on the first
    /// attempt, [`runner::retry_seed`] of it on the retry).
    pub seed: u64,
    /// Cross-experiment baseline cache.
    pub baselines: &'a BaselineCache,
}

/// A declarative experiment: sweep plan + per-point measurement + figure
/// assembly. Implementors are unit structs registered in
/// [`crate::experiments`].
pub trait Experiment: Sync {
    /// Registry name (unique, stable; used by `repro --only`).
    fn name(&self) -> &'static str;
    /// Where in the paper the experiment lives ("§4.2, Figures 4a/4b").
    fn anchor(&self) -> &'static str;
    /// Enumerate the sweep points at the given fidelity. Indices must be
    /// dense and 0-based — seeds and result slots key off them.
    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint>;
    /// Measure one sweep point. Runs on a worker thread; must derive all
    /// randomness from `ctx.seed` (or [`BaselineCache`] keys) so parallel
    /// and serial campaigns are bit-identical.
    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String>;
    /// Fold the executed points (in plan order) into figures.
    fn finalize(&self, fidelity: Fidelity, points: &[PointOutcome]) -> Vec<FigureData>;
    /// Serialize a point value for the result store of
    /// [`run_outcomes_with_store`] (exact bits — see [`crate::codec`]).
    /// Default `None`: the point is recomputed on resume instead of
    /// restored. Only the predictor's harvest implements it (and the
    /// accuracy campaign, which delegates to the harvest); implementations
    /// must round-trip through [`Experiment::decode_value`] bit-identically.
    fn encode_value(&self, _value: &PointValue) -> Option<Vec<u8>> {
        None
    }
    /// Inverse of [`Experiment::encode_value`]. Returns `None` on any
    /// malformed or stale layout (the point is then recomputed).
    fn decode_value(&self, _bytes: &[u8]) -> Option<PointValue> {
        None
    }
}

/// How one sweep point ended, plus its value when any attempt succeeded.
pub struct PointOutcome {
    /// Plan index.
    pub index: usize,
    /// Plan label.
    pub label: String,
    /// Seed of the attempt the outcome describes (retry seed when the
    /// first attempt failed).
    pub seed: u64,
    /// Completed / recovered / failed.
    pub status: RunStatus,
    /// The measurement, when one of the attempts succeeded.
    pub value: Option<PointValue>,
    /// Wall time spent executing the point (all attempts); zero when the
    /// point was restored from the result store.
    pub wall: Duration,
    /// Telemetry journal of the attempt the outcome describes, when the
    /// campaign ran with [`CampaignOptions::telemetry`] enabled.
    pub journal: Option<Journal>,
    /// True when the outcome was restored from the result store instead of
    /// being executed (resume path).
    pub restored: bool,
}

/// Downcast the value of point `index`, panicking with the recorded error
/// when the point failed both attempts — the same surface behaviour as the
/// pre-registry drivers, which panicked on a failed measurement.
pub fn expect_value<T: 'static>(points: &[PointOutcome], index: usize) -> &T {
    let p = &points[index];
    match &p.value {
        Some(v) => v.downcast_ref::<T>().unwrap_or_else(|| {
            panic!("point {} ({}) has an unexpected value type", index, p.label)
        }),
        None => panic!(
            "point {} ({}) failed: {}",
            index,
            p.label,
            p.status.error().unwrap_or("no error recorded")
        ),
    }
}

/// Deterministic seed of `(experiment, point index)`: FNV-1a over the
/// experiment name, offset by the index, pushed through
/// [`simcore::SplitMix64`]. Unlike the old additive `base + size` schemes,
/// distinct points can never collide on a seed.
pub fn point_seed(experiment: &str, index: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(h.wrapping_add(index as u64)).next_u64()
}

/// Deterministic seed for a memoized baseline, derived from its cache key
/// alone so every requester computes (or reuses) the identical value.
pub fn baseline_seed(key: &str) -> u64 {
    point_seed(key, 0xBA5E)
}

/// A memo slot: empty, claimed by a computing worker, or holding the value.
enum SlotState {
    Empty,
    Computing,
    Ready(Arc<dyn Any + Send + Sync>),
}

struct MemoSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Default for MemoSlot {
    fn default() -> MemoSlot {
        MemoSlot {
            state: Mutex::new(SlotState::Empty),
            ready: Condvar::new(),
        }
    }
}

type Slot = Arc<MemoSlot>;

/// Concurrent memo table for baseline measurements shared across sweep
/// points (and across experiments of one campaign). Each key is computed
/// once — concurrent requesters block on the slot instead of recomputing —
/// with a seed derived from the key, so cached values are identical no
/// matter which point asks first.
///
/// Only *successful* computes are memoized: a compute that errors or
/// panics (model failure, cooperative cancellation on a per-point
/// deadline) resets its slot to empty, so the next requester retries under
/// its own seed-determined conditions instead of inheriting a poisoned
/// entry. Determinism makes the eventual successful value identical no
/// matter how many failed attempts preceded it.
#[derive(Default)]
pub struct BaselineCache {
    slots: Mutex<HashMap<String, Slot>>,
    calls: AtomicU64,
    computed: AtomicU64,
    /// Telemetry journals of computed baselines, keyed like `slots`. A
    /// baseline's journal depends only on its key (the seed derives from
    /// it), so the map content is deterministic no matter which worker
    /// computes first.
    journals: Mutex<BTreeMap<String, Journal>>,
}

impl BaselineCache {
    /// Empty cache.
    pub fn new() -> BaselineCache {
        BaselineCache::default()
    }

    /// Claim the slot for `key` (waiting out another worker's in-flight
    /// compute) and run `run` to fill it. `Err` is returned to this caller
    /// only and leaves the slot empty; a panic in `run` likewise resets the
    /// slot before unwinding.
    fn fetch_or_run<F>(&self, key: &str, run: F) -> Result<Arc<dyn Any + Send + Sync>, String>
    where
        F: FnOnce() -> Result<Arc<dyn Any + Send + Sync>, String>,
    {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut slots = self.slots.lock().expect("baseline cache poisoned");
            slots.entry(key.to_string()).or_default().clone()
        };
        {
            let mut st = slot.state.lock().expect("baseline slot poisoned");
            loop {
                match &*st {
                    SlotState::Ready(v) => return Ok(Arc::clone(v)),
                    SlotState::Computing => {
                        st = slot.ready.wait(st).expect("baseline slot poisoned");
                    }
                    SlotState::Empty => {
                        *st = SlotState::Computing;
                        break;
                    }
                }
            }
        }
        self.computed.fetch_add(1, Ordering::Relaxed);
        // Dropped on every exit path (including unwind): a slot still in
        // `Computing` reverts to `Empty`, and waiters are woken either way.
        struct Unclaim<'a>(&'a MemoSlot);
        impl Drop for Unclaim<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().expect("baseline slot poisoned");
                if matches!(*st, SlotState::Computing) {
                    *st = SlotState::Empty;
                }
                drop(st);
                self.0.ready.notify_all();
            }
        }
        let unclaim = Unclaim(&slot);
        let res = run();
        if let Ok(v) = &res {
            *slot.state.lock().expect("baseline slot poisoned") = SlotState::Ready(Arc::clone(v));
        }
        drop(unclaim);
        res
    }

    /// Fetch the value under `key`, computing it with `f(baseline_seed(key))`
    /// on first use. Nested calls (a cached value that itself needs another
    /// baseline) are fine as long as keys do not form a cycle.
    ///
    /// An `Err` from `f` is returned to the caller but **never memoized** —
    /// the slot stays empty and the next requester computes afresh. This
    /// matters under per-point deadlines: a baseline compute cancelled by
    /// one point's timeout must not poison the shared cache and fail every
    /// later point that shares the baseline.
    ///
    /// Computation runs under [`telemetry::isolate`]: *which* sweep point
    /// happens to populate a shared slot is a scheduling race under
    /// `--jobs N`, so a baseline's internal events must never land in any
    /// point's journal — they are recorded into a per-key journal instead
    /// (see [`BaselineCache::take_journals`]), whose content depends only on
    /// the key.
    pub fn get_or_compute_result<T, F>(&self, key: &str, f: F) -> Result<Arc<T>, String>
    where
        T: Any + Send + Sync,
        F: FnOnce(u64) -> Result<T, String>,
    {
        let v = self.fetch_or_run(key, || {
            let (res, journal) = telemetry::isolate(|| {
                f(baseline_seed(key)).map(|v| Arc::new(v) as Arc<dyn Any + Send + Sync>)
            });
            // The journal of a failed compute is dropped with it.
            let v = res?;
            if let Some(j) = journal {
                self.journals
                    .lock()
                    .expect("baseline journals poisoned")
                    .insert(key.to_string(), j);
            }
            Ok(v)
        })?;
        Ok(v.downcast::<T>()
            .unwrap_or_else(|_| panic!("baseline cache type mismatch for key {:?}", key)))
    }

    /// Drain the telemetry journals of every computed baseline, sorted by
    /// key (deterministic regardless of compute order).
    pub fn take_journals(&self) -> BTreeMap<String, Journal> {
        std::mem::take(&mut *self.journals.lock().expect("baseline journals poisoned"))
    }

    /// Total lookups (hits + computes) so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Lookups that actually ran the compute closure.
    pub fn computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }
}

/// Campaign execution options.
#[derive(Clone, Copy, Debug)]
pub struct CampaignOptions {
    /// Sweep density / repetitions.
    pub fidelity: Fidelity,
    /// Worker threads executing sweep points (min 1).
    pub jobs: usize,
    /// Record a telemetry [`Journal`] per point and merge them into the
    /// campaign report. Journals are keyed to sim-time and plan order only,
    /// so the merged journal is byte-identical at any `jobs` level.
    pub telemetry: bool,
    /// Per-point wall-clock deadline. Each attempt runs under a
    /// [`CancelToken`] with this budget; a wedged simulation is
    /// cooperatively cancelled at the next event boundary and the point is
    /// recorded as [`RunStatus::TimedOut`] instead of leaking its worker
    /// thread. `None` (the default) imposes no deadline — timeouts are
    /// wall-clock and therefore machine-dependent, so they are strictly
    /// opt-in.
    pub timeout: Option<Duration>,
}

impl CampaignOptions {
    /// Options with an explicit worker count.
    pub fn new(fidelity: Fidelity, jobs: usize) -> CampaignOptions {
        CampaignOptions {
            fidelity,
            jobs: jobs.max(1),
            telemetry: false,
            timeout: None,
        }
    }

    /// Single-worker options (the classic sequential behaviour).
    pub fn serial(fidelity: Fidelity) -> CampaignOptions {
        CampaignOptions::new(fidelity, 1)
    }

    /// Toggle telemetry recording.
    pub fn with_telemetry(mut self, on: bool) -> CampaignOptions {
        self.telemetry = on;
        self
    }

    /// Arm a per-point wall-clock deadline.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> CampaignOptions {
        self.timeout = timeout;
        self
    }
}

/// Binding of [`run_outcomes_with_store`] to a durable [`ResultStore`].
#[derive(Clone, Copy)]
pub struct StoreCtx<'a> {
    /// The store completed points are persisted to.
    pub store: &'a ResultStore,
    /// Restore previously persisted points instead of recomputing them.
    /// Restores are skipped while telemetry recording is on — a restored
    /// point has no journal, and serving it would change the merged trace;
    /// determinism makes the recomputation byte-identical anyway.
    pub resume: bool,
}

/// Version of the campaign-level point payload layout (wrapped around the
/// experiment's own value encoding). Part of the store key: bumping it
/// orphans old entries instead of misparsing them.
const POINT_FORMAT: u32 = 1;

/// Store key of one sweep point. Identity = experiment name, fidelity,
/// plan index and the hash-derived first-attempt seed ([`point_seed`]) —
/// so a change to the seeding scheme or the payload layout makes old
/// entries unreachable rather than wrong.
fn point_key(exp: &str, fidelity: Fidelity, index: usize) -> String {
    format!(
        "point/v{}/{}/{:?}/{}/{:016x}",
        POINT_FORMAT,
        exp,
        fidelity,
        index,
        point_seed(exp, index)
    )
}

/// Serialize a completed/recovered outcome (status header + the
/// experiment's value bytes). `None` for outcomes that must not be served
/// from the store (failures, timeouts, undurable experiments).
fn encode_outcome(exp: &dyn Experiment, o: &PointOutcome) -> Option<Vec<u8>> {
    let value = o.value.as_ref()?;
    let value_bytes = exp.encode_value(value)?;
    let mut e = Enc::new();
    match &o.status {
        RunStatus::Completed => {
            e.u8(0);
        }
        RunStatus::Recovered { failed_seed, error } => {
            e.u8(1).u64(*failed_seed).str(error);
        }
        RunStatus::Failed { .. } | RunStatus::TimedOut { .. } => return None,
    }
    e.u64(o.seed);
    let mut bytes = e.into_bytes();
    bytes.extend_from_slice(&value_bytes);
    Some(bytes)
}

/// Rebuild a [`PointOutcome`] from a stored payload. Verifies that the
/// recorded seeds match what this binary would derive for the point —
/// an entry from a different seeding scheme decodes to `None` and the
/// point is recomputed.
fn decode_outcome(exp: &dyn Experiment, point: &SweepPoint, bytes: &[u8]) -> Option<PointOutcome> {
    let first = point_seed(exp.name(), point.index);
    let mut d = Dec::new(bytes);
    let (seed, status) = match d.u8()? {
        0 => (first, RunStatus::Completed),
        1 => {
            let failed_seed = d.u64()?;
            let error = d.str()?;
            if failed_seed != first {
                return None;
            }
            (
                runner::retry_seed(first, point.index as u32),
                RunStatus::Recovered { failed_seed, error },
            )
        }
        _ => return None,
    };
    if d.u64()? != seed {
        return None;
    }
    let value = exp.decode_value(d.rest())?;
    Some(PointOutcome {
        index: point.index,
        label: point.label.clone(),
        seed,
        status,
        value: Some(value),
        wall: Duration::ZERO,
        journal: None,
        restored: true,
    })
}

/// Result of one experiment inside a campaign.
pub struct ExperimentRun {
    /// Registry name.
    pub name: &'static str,
    /// The finalized figures (empty when `finalize` itself failed).
    pub figures: Vec<FigureData>,
    /// Executed sweep points.
    pub points: usize,
    /// Points that failed both attempts.
    pub failed_points: usize,
    /// Points cooperatively cancelled at their wall-clock deadline.
    pub timed_out_points: usize,
    /// Error text when `finalize` panicked (it runs guarded so one broken
    /// experiment cannot take down the rest of the campaign).
    pub finalize_error: Option<String>,
    /// Busy time: summed point execution time plus finalize. Under
    /// parallel execution this is work time, not elapsed wall time.
    pub busy: Duration,
    /// Total *simulated* time covered by the experiment's point journals.
    /// Deterministic (unlike `busy`); [`SimTime::ZERO`] with telemetry off.
    pub sim: SimTime,
}

impl ExperimentRun {
    /// Throughput over busy time.
    pub fn points_per_sec(&self) -> f64 {
        let s = self.busy.as_secs_f64();
        if s > 0.0 {
            self.points as f64 / s
        } else {
            f64::INFINITY
        }
    }

    /// True when any point produced no data or `finalize` failed — the
    /// run's figures do not cover the full plan.
    pub fn is_partial(&self) -> bool {
        self.failed_points > 0 || self.timed_out_points > 0 || self.finalize_error.is_some()
    }
}

/// Chaos-harness hook: an artificial pre-point delay (milliseconds) read
/// from `REPRO_POINT_DELAY_MS`, paid by executed points only (a restored
/// one returns before it). The kill-and-resume integration test uses it to
/// stretch a `repro rank-placements --store` harvest enough to SIGKILL it
/// mid-flight; unset (the normal case) it costs one cached `Option` check
/// per point.
fn chaos_point_delay() -> Option<Duration> {
    static DELAY: OnceLock<Option<Duration>> = OnceLock::new();
    *DELAY.get_or_init(|| {
        std::env::var("REPRO_POINT_DELAY_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
    })
}

/// Execute one sweep point: guarded first attempt on [`point_seed`], one
/// guarded retry on a fresh seed, structured failure otherwise. With
/// [`CampaignOptions::telemetry`] set, each attempt runs under a fresh
/// thread-local telemetry recorder and the outcome carries the journal of
/// the attempt it describes (the retry's journal when the first attempt
/// failed). With [`CampaignOptions::timeout`] set, each attempt runs under
/// a deadline [`CancelToken`]; a timed-out attempt is terminal
/// ([`RunStatus::TimedOut`], no retry). With a [`StoreCtx`] bound, a
/// resumable outcome is restored instead of executed when present, and a
/// computed outcome is persisted before being returned.
fn execute_point(
    exp: &dyn Experiment,
    point: &SweepPoint,
    opts: &CampaignOptions,
    baselines: &BaselineCache,
    store: Option<&StoreCtx<'_>>,
) -> PointOutcome {
    let record = opts.telemetry;
    let key = store.map(|_| point_key(exp.name(), opts.fidelity, point.index));
    if let (Some(s), Some(key)) = (store, key.as_deref()) {
        // Restored points carry no journal, so resume is bypassed while
        // recording (recomputation is byte-identical by determinism).
        if s.resume && !record {
            if let Lookup::Hit(bytes) = s.store.get(key) {
                if let Some(outcome) = decode_outcome(exp, point, &bytes) {
                    return outcome;
                }
                // Verified entry with a stale inner layout: recompute
                // (the fresh put below overwrites it).
            }
        }
    }
    if let Some(delay) = chaos_point_delay() {
        std::thread::sleep(delay);
    }
    let t0 = Instant::now();
    let first = point_seed(exp.name(), point.index);
    let retry = runner::retry_seed(first, point.index as u32);
    // The journal of the last attempt: the one the outcome describes.
    let mut journal = None;
    let (seed, status, value) = runner::with_retry(first, retry, |seed| {
        if record {
            telemetry::install();
        }
        let token = opts.timeout.map(CancelToken::with_deadline);
        let ctx = PointCtx {
            fidelity: opts.fidelity,
            seed,
            baselines,
        };
        let run = || runner::guarded(|| exp.run_point(point, &ctx));
        let res = match &token {
            Some(t) => cancel::scoped(t.clone(), run),
            None => run(),
        };
        journal = if record { telemetry::take() } else { None };
        // Only a *failed* attempt counts as timed out: a value computed
        // just as the deadline passed is still a valid measurement.
        res.map_err(|error| match token {
            Some(t) if t.is_cancelled() => RunStatus::TimedOut { error },
            _ => RunStatus::Failed { error },
        })
    });
    let outcome = PointOutcome {
        index: point.index,
        label: point.label.clone(),
        seed,
        status,
        value,
        wall: t0.elapsed(),
        journal,
        restored: false,
    };
    if let (Some(s), Some(key)) = (store, key.as_deref()) {
        if let Some(payload) = encode_outcome(exp, &outcome) {
            // A failed put must not fail the point: the measurement is in
            // hand, only its durability is lost. Surface it on stderr.
            if let Err(e) = s.store.put(key, &payload) {
                eprintln!("warning: result store write failed for {}: {}", key, e);
            }
        }
    }
    outcome
}

/// Campaign-wide aggregates produced alongside the per-experiment runs.
pub struct CampaignReport {
    /// Baseline-cache lookups across the whole campaign.
    pub baseline_calls: u64,
    /// Baseline-cache lookups that actually computed (the rest were hits).
    pub baseline_computed: u64,
    /// Merged telemetry journal: every point's journal in plan order on one
    /// timeline, wrapped in per-point and per-experiment "campaign" spans.
    /// `None` when telemetry was off.
    pub journal: Option<Journal>,
}

/// Run `task(i)` for every `i < n` on up to `jobs` scoped worker threads
/// drawing indices from one shared counter, and return the results in index
/// order. Workers run on the caller's [`ReferencePaths`], so every engine a
/// task builds takes the same reference paths at any worker count.
fn pool<T: Send>(jobs: usize, n: usize, task: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let paths = ReferencePaths::current();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n.max(1)) {
            scope.spawn(|| {
                reference_paths::scoped(paths, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = task(i);
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                })
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every queued task runs")
        })
        .collect()
}

/// Run a set of experiments as one campaign: every sweep point of every
/// experiment goes into a single work queue drained by `opts.jobs` worker
/// threads (so a short experiment's points fill the gaps of a long one),
/// then each experiment finalizes serially in the given order.
pub fn run_set(exps: &[&dyn Experiment], opts: &CampaignOptions) -> Vec<ExperimentRun> {
    run_set_with_report(exps, opts).0
}

/// [`run_set`] plus the campaign-wide [`CampaignReport`] (cache statistics
/// and, with [`CampaignOptions::telemetry`] on, the merged journal).
pub fn run_set_with_report(
    exps: &[&dyn Experiment],
    opts: &CampaignOptions,
) -> (Vec<ExperimentRun>, CampaignReport) {
    let cache = BaselineCache::new();
    let plans: Vec<Vec<SweepPoint>> = exps.iter().map(|e| e.plan(opts.fidelity)).collect();
    let tasks: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ei, plan)| (0..plan.len()).map(move |pi| (ei, pi)))
        .collect();
    // Outcomes in task order: each experiment's points, in plan order.
    let mut outcomes = pool(opts.jobs, tasks.len(), |t| {
        let (ei, pi) = tasks[t];
        execute_point(exps[ei], &plans[ei][pi], opts, &cache, None)
    })
    .into_iter();

    // Merge point journals in plan order onto one campaign timeline. The
    // merge depends only on plan order and sim-time, so the merged journal
    // is byte-identical at any worker count.
    let mut merged = if opts.telemetry {
        Some(Journal::default())
    } else {
        None
    };
    let mut offset = SimTime::ZERO;

    let runs = exps
        .iter()
        .zip(&plans)
        .map(|(exp, plan)| {
            let mut outcomes: Vec<PointOutcome> = outcomes.by_ref().take(plan.len()).collect();
            let exp_start = offset;
            if let Some(merged) = merged.as_mut() {
                for o in &mut outcomes {
                    let Some(mut j) = o.journal.take() else {
                        continue;
                    };
                    let end = j.end_time();
                    merged.records.push(Record {
                        t: offset,
                        kind: RecordKind::Complete {
                            cat: "campaign",
                            name: o.label.clone(),
                            lane: Lane::Campaign,
                            dur: end,
                        },
                    });
                    j.shift(offset);
                    merged.append(j);
                    offset = SimTime(offset.0.saturating_add(end.0));
                }
                merged.records.push(Record {
                    t: exp_start,
                    kind: RecordKind::Complete {
                        cat: "campaign",
                        name: exp.name().to_string(),
                        lane: Lane::Campaign,
                        dur: offset.saturating_sub(exp_start),
                    },
                });
            }
            let point_time: Duration = outcomes.iter().map(|o| o.wall).sum();
            let failed = outcomes
                .iter()
                .filter(|o| matches!(o.status, RunStatus::Failed { .. }))
                .count();
            let timed_out = outcomes
                .iter()
                .filter(|o| matches!(o.status, RunStatus::TimedOut { .. }))
                .count();
            let t0 = Instant::now();
            // Guarded: most finalizers call `expect_value` and panic on a
            // lost point; one partial experiment must not take down the
            // figures of every other experiment in the campaign.
            let (figures, finalize_error) =
                match runner::guarded(|| Ok::<_, String>(exp.finalize(opts.fidelity, &outcomes))) {
                    Ok(figures) => (figures, None),
                    Err(e) => (Vec::new(), Some(e)),
                };
            ExperimentRun {
                name: exp.name(),
                figures,
                points: outcomes.len(),
                failed_points: failed,
                timed_out_points: timed_out,
                finalize_error,
                busy: point_time + t0.elapsed(),
                sim: offset.saturating_sub(exp_start),
            }
        })
        .collect();

    // Shared baselines recorded under `isolate` merge last, in key order:
    // deterministic no matter which worker computed them.
    if let Some(merged) = merged.as_mut() {
        for (key, mut j) in cache.take_journals() {
            let end = j.end_time();
            merged.records.push(Record {
                t: offset,
                kind: RecordKind::Complete {
                    cat: "campaign",
                    name: format!("baseline: {}", key),
                    lane: Lane::Campaign,
                    dur: end,
                },
            });
            j.shift(offset);
            merged.append(j);
            offset = SimTime(offset.0.saturating_add(end.0));
        }
    }

    let report = CampaignReport {
        baseline_calls: cache.calls(),
        baseline_computed: cache.computed(),
        journal: merged,
    };
    (runs, report)
}

/// Execute one experiment's sweep points on `opts.jobs` worker threads and
/// return the raw outcomes in plan order, without the figure assembly —
/// for callers that consume point *values* rather than figures (the
/// prediction subsystem harvests training pairs this way). With a
/// [`StoreCtx`] bound, every completed point whose experiment has a value
/// codec is persisted as it finishes and, with [`StoreCtx::resume`],
/// restored instead of recomputed; determinism makes a restored value
/// bit-equal to a recomputed one. Outcome order depends only on the plan,
/// never on worker scheduling.
pub fn run_outcomes_with_store(
    exp: &dyn Experiment,
    opts: &CampaignOptions,
    store: Option<StoreCtx<'_>>,
) -> Vec<PointOutcome> {
    let cache = BaselineCache::new();
    let plan = exp.plan(opts.fidelity);
    pool(opts.jobs, plan.len(), |t| {
        execute_point(exp, &plan[t], opts, &cache, store.as_ref())
    })
}

/// Run a single experiment (its own cache, no cross-experiment sharing).
pub fn run_experiment(exp: &dyn Experiment, opts: &CampaignOptions) -> ExperimentRun {
    run_set(&[exp], opts)
        .pop()
        .expect("one experiment in, one run out")
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler;

    impl Experiment for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn anchor(&self) -> &'static str {
            "test"
        }
        fn plan(&self, _f: Fidelity) -> Vec<SweepPoint> {
            (0..6)
                .map(|i| SweepPoint::new(i, format!("x={}", i)))
                .collect()
        }
        fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
            if point.index == 3 && ctx.seed == point_seed("doubler", 3) {
                panic!("flaky first attempt");
            }
            if point.index == 5 {
                return Err("permanently broken".into());
            }
            Ok(Box::new(point.index * 2))
        }
        fn finalize(&self, _f: Fidelity, points: &[PointOutcome]) -> Vec<FigureData> {
            assert_eq!(points.len(), 6);
            for p in points.iter().take(5) {
                assert_eq!(*expect_value::<usize>(points, p.index), p.index * 2);
            }
            Vec::new()
        }
    }

    #[test]
    fn engine_retries_and_records_failures() {
        let run = run_experiment(&Doubler, &CampaignOptions::serial(Fidelity::Quick));
        assert_eq!(run.points, 6);
        assert_eq!(run.failed_points, 1);
    }

    #[test]
    fn parallel_outcomes_match_serial() {
        for jobs in [2, 4] {
            let run = run_experiment(&Doubler, &CampaignOptions::new(Fidelity::Quick, jobs));
            assert_eq!(run.points, 6);
            assert_eq!(run.failed_points, 1);
        }
    }

    /// Reports the [`ReferencePaths`] of an engine built inside each point.
    struct PathsProbe;

    impl Experiment for PathsProbe {
        fn name(&self) -> &'static str {
            "paths_probe"
        }
        fn anchor(&self) -> &'static str {
            "test"
        }
        fn plan(&self, _f: Fidelity) -> Vec<SweepPoint> {
            (0..8).map(|i| SweepPoint::new(i, "probe")).collect()
        }
        fn run_point(&self, _p: &SweepPoint, _ctx: &PointCtx<'_>) -> Result<PointValue, String> {
            Ok(Box::new(simcore::Engine::new().reference_paths()))
        }
        fn finalize(&self, _f: Fidelity, _points: &[PointOutcome]) -> Vec<FigureData> {
            Vec::new()
        }
    }

    #[test]
    fn workers_build_engines_on_the_callers_reference_paths() {
        let solver_only = ReferencePaths {
            solver: true,
            ..ReferencePaths::default()
        };
        for paths in [ReferencePaths::default(), solver_only, ReferencePaths::ALL] {
            for jobs in [1, 4] {
                let opts = CampaignOptions::new(Fidelity::Quick, jobs);
                let run = || run_outcomes_with_store(&PathsProbe, &opts, None);
                let outcomes = reference_paths::scoped(paths, run);
                assert_eq!(outcomes.len(), 8);
                for i in 0..8 {
                    let got = expect_value::<ReferencePaths>(&outcomes, i);
                    assert_eq!(*got, paths, "jobs={} point {}", jobs, i);
                }
            }
        }
    }

    #[test]
    fn point_seeds_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for exp in ["fig1", "fig6", "overlap"] {
            for i in 0..512 {
                assert!(
                    seen.insert(point_seed(exp, i)),
                    "collision at {}/{}",
                    exp,
                    i
                );
            }
        }
        // The old additive scheme collided when size sweeps overlapped
        // (seed + 64 from base A == seed + 4 from base A+60); the hash
        // also differs from every retry seed it could meet.
        for i in 0..64u32 {
            assert_ne!(
                point_seed("fig6", i as usize),
                runner::retry_seed(point_seed("fig6", i as usize), i)
            );
        }
    }

    /// A durable Doubler: same sweep, plus a value codec so points can be
    /// restored from a store.
    struct DurableDoubler;

    impl Experiment for DurableDoubler {
        fn name(&self) -> &'static str {
            "durable_doubler"
        }
        fn anchor(&self) -> &'static str {
            "test"
        }
        fn plan(&self, _f: Fidelity) -> Vec<SweepPoint> {
            (0..4)
                .map(|i| SweepPoint::new(i, format!("x={}", i)))
                .collect()
        }
        fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
            if point.index == 1 && ctx.seed == point_seed("durable_doubler", 1) {
                panic!("flaky first attempt");
            }
            Ok(Box::new(point.index * 2))
        }
        fn finalize(&self, _f: Fidelity, points: &[PointOutcome]) -> Vec<FigureData> {
            for p in points {
                assert_eq!(*expect_value::<usize>(points, p.index), p.index * 2);
            }
            Vec::new()
        }
        fn encode_value(&self, value: &PointValue) -> Option<Vec<u8>> {
            let v = value.downcast_ref::<usize>()?;
            let mut e = Enc::new();
            e.u64(*v as u64);
            Some(e.into_bytes())
        }
        fn decode_value(&self, bytes: &[u8]) -> Option<PointValue> {
            let mut d = Dec::new(bytes);
            let v = d.usize()?;
            d.finish(Box::new(v) as PointValue)
        }
    }

    /// An experiment whose simulation wedges (timer storm) on selected
    /// attempts, driven purely by the seed — deterministic under replay.
    struct Wedger {
        /// Wedge whenever the attempt seed is NOT the first-attempt seed
        /// (i.e. the retry wedges) when true; wedge on the first attempt
        /// when false.
        wedge_on_retry: bool,
    }

    impl Experiment for Wedger {
        fn name(&self) -> &'static str {
            "wedger"
        }
        fn anchor(&self) -> &'static str {
            "test"
        }
        fn plan(&self, _f: Fidelity) -> Vec<SweepPoint> {
            vec![SweepPoint::new(0, "the wedge".to_string())]
        }
        fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
            let first = ctx.seed == point_seed("wedger", point.index);
            if first && self.wedge_on_retry {
                // First attempt fails fast (a plain panic), retry wedges.
                panic!("flaky first attempt");
            }
            if first || self.wedge_on_retry {
                // Timer storm: never quiesces; only cancellation stops it.
                let mut e = simcore::Engine::new();
                e.after(SimTime::PS, 1);
                e.try_run(|eng, _| {
                    eng.after(SimTime::PS, 1);
                })
                .map_err(|err| err.to_string())?;
                unreachable!("the storm never runs dry");
            }
            Ok(Box::new(0usize))
        }
        fn finalize(&self, _f: Fidelity, _points: &[PointOutcome]) -> Vec<FigureData> {
            Vec::new()
        }
    }

    fn test_store(tag: &str) -> crate::store::ResultStore {
        let dir =
            std::env::temp_dir().join(format!("ifcampaign-test-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::store::ResultStore::open(dir).expect("open test store")
    }

    #[test]
    fn first_attempt_timeout_is_terminal() {
        let opts =
            CampaignOptions::serial(Fidelity::Quick).with_timeout(Some(Duration::from_millis(30)));
        let wedger = Wedger {
            wedge_on_retry: false,
        };
        let outcomes = run_outcomes_with_store(&wedger, &opts, None);
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].status {
            RunStatus::TimedOut { error } => {
                assert!(error.contains("cancelled"), "{}", error);
                assert!(error.contains("deadline"), "{}", error);
            }
            s => panic!("expected TimedOut, got {:?}", s),
        }
        // Terminal: the seed is still the first-attempt seed (no retry ran).
        assert_eq!(outcomes[0].seed, point_seed("wedger", 0));
        assert_eq!(outcomes[0].status.label(), "timeout");
    }

    #[test]
    fn panic_then_wedged_retry_records_timeout_deterministically() {
        // The satellite scenario: attempt 1 panics (retried), attempt 2
        // wedges and is cancelled at the deadline → TimedOut, replayable.
        let opts =
            CampaignOptions::serial(Fidelity::Quick).with_timeout(Some(Duration::from_millis(30)));
        let run_once = || {
            let wedger = Wedger {
                wedge_on_retry: true,
            };
            let outcomes = run_outcomes_with_store(&wedger, &opts, None);
            let o = &outcomes[0];
            (
                o.seed,
                o.status.label(),
                o.status.error().map(str::to_owned),
            )
        };
        let (seed_a, label_a, _) = run_once();
        let (seed_b, label_b, _) = run_once();
        assert_eq!(label_a, "timeout");
        // Deterministic replay: same final seed (the retry seed), same
        // classification, both runs.
        assert_eq!((seed_a, label_a), (seed_b, label_b));
        assert_eq!(seed_a, runner::retry_seed(point_seed("wedger", 0), 0));
        // And the campaign marks the experiment partial.
        let wedger = Wedger {
            wedge_on_retry: true,
        };
        let run = run_experiment(&wedger, &opts);
        assert_eq!(run.timed_out_points, 1);
        assert!(run.is_partial());
    }

    /// Outcomes of one pass that were restored from the store.
    fn restored(outcomes: &[PointOutcome]) -> usize {
        outcomes.iter().filter(|o| o.restored).count()
    }

    #[test]
    fn store_roundtrip_restores_points_and_outcome_metadata() {
        let store = test_store("roundtrip");
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let fresh = StoreCtx {
            store: &store,
            resume: false,
        };
        // Without resume, every pass computes and persists all 4 points
        // (incl. the recovered one) and restores none.
        for _ in 0..2 {
            let outcomes = run_outcomes_with_store(&DurableDoubler, &opts, Some(fresh));
            assert_eq!(restored(&outcomes), 0);
        }
        assert_eq!(store.stats().persisted, 8);
        assert_eq!(store.stats().hits, 0);
        // With resume, every point restores: no recompute, same statuses.
        let ctx = StoreCtx {
            store: &store,
            resume: true,
        };
        let outcomes = run_outcomes_with_store(&DurableDoubler, &opts, Some(ctx));
        assert_eq!(restored(&outcomes), 4);
        // The recovered point's status and seeds survive the roundtrip.
        match &outcomes[1].status {
            RunStatus::Recovered { failed_seed, error } => {
                assert_eq!(*failed_seed, point_seed("durable_doubler", 1));
                assert!(error.contains("flaky"), "{}", error);
            }
            s => panic!("expected restored Recovered, got {:?}", s),
        }
        assert_eq!(
            outcomes[1].seed,
            runner::retry_seed(point_seed("durable_doubler", 1), 1)
        );
        assert!(outcomes[1].restored);
        assert_eq!(outcomes[1].wall, Duration::ZERO);
        assert_eq!(*expect_value::<usize>(&outcomes, 3), 6);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_store_entry_is_recomputed_not_served() {
        let store = test_store("corrupt");
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let ctx = StoreCtx {
            store: &store,
            resume: true,
        };
        run_outcomes_with_store(&DurableDoubler, &opts, Some(ctx));
        // Flip a bit in one entry's payload region.
        let key = point_key("durable_doubler", Fidelity::Quick, 2);
        crate::store::chaos::corrupt_entry(
            &store,
            &key,
            crate::store::chaos::Fault::BitFlip { offset: 40, bit: 4 },
        );
        let outcomes = run_outcomes_with_store(&DurableDoubler, &opts, Some(ctx));
        // 3 restored, 1 quarantined + recomputed; nothing failed.
        assert_eq!(restored(&outcomes), 3);
        assert!(!outcomes[2].restored);
        assert!(outcomes.iter().all(|o| o.value.is_some()));
        assert_eq!(store.stats().quarantined, 1);
        // The recomputed entry is durable again.
        let outcomes = run_outcomes_with_store(&DurableDoubler, &opts, Some(ctx));
        assert_eq!(restored(&outcomes), 4);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn undurable_experiment_recomputes_on_resume() {
        let store = test_store("undurable");
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let ctx = StoreCtx {
            store: &store,
            resume: true,
        };
        let outcomes = run_outcomes_with_store(&Doubler, &opts, Some(ctx));
        assert_eq!(outcomes.len(), 6);
        // Doubler has no codec: nothing persisted, nothing restored.
        assert_eq!(store.stats().persisted, 0);
        let outcomes = run_outcomes_with_store(&Doubler, &opts, Some(ctx));
        assert_eq!(restored(&outcomes), 0);
        assert_eq!(outcomes.len(), 6);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn finalize_panic_is_contained() {
        struct BrokenFinalize;
        impl Experiment for BrokenFinalize {
            fn name(&self) -> &'static str {
                "broken_finalize"
            }
            fn anchor(&self) -> &'static str {
                "test"
            }
            fn plan(&self, _f: Fidelity) -> Vec<SweepPoint> {
                vec![SweepPoint::new(0, "p".to_string())]
            }
            fn run_point(
                &self,
                _point: &SweepPoint,
                _ctx: &PointCtx<'_>,
            ) -> Result<PointValue, String> {
                Ok(Box::new(()))
            }
            fn finalize(&self, _f: Fidelity, _points: &[PointOutcome]) -> Vec<FigureData> {
                panic!("finalize exploded");
            }
        }
        let opts = CampaignOptions::serial(Fidelity::Quick);
        let runs = run_set(&[&BrokenFinalize, &Doubler], &opts);
        assert_eq!(runs.len(), 2, "the healthy experiment still finalized");
        assert!(runs[0]
            .finalize_error
            .as_deref()
            .unwrap()
            .contains("exploded"));
        assert!(runs[0].figures.is_empty());
        assert!(runs[0].is_partial());
        assert!(runs[1].finalize_error.is_none());
    }

    #[test]
    fn baseline_cache_computes_once_per_key() {
        let cache = BaselineCache::new();
        let a: Arc<u64> = cache.get_or_compute_result("k", Ok).expect("computes");
        let b: Arc<u64> = cache
            .get_or_compute_result("k", |_| unreachable!("memoized"))
            .expect("memoized");
        assert_eq!(*a, *b);
        assert_eq!(*a, baseline_seed("k"));
        assert_eq!((cache.calls(), cache.computed()), (2, 1));
        // A second key is a second compute.
        let c: Arc<u64> = cache.get_or_compute_result("k2", Ok).expect("computes");
        assert_eq!(*c, baseline_seed("k2"));
        assert_eq!((cache.calls(), cache.computed()), (3, 2));
    }

    #[test]
    fn baseline_cache_never_memoizes_errors() {
        let cache = BaselineCache::new();
        let r: Result<Arc<u64>, String> =
            cache.get_or_compute_result("k", |_| Err("transient".into()));
        assert_eq!(r.unwrap_err(), "transient");
        // The error was not cached: the next requester computes afresh.
        let v = cache
            .get_or_compute_result("k", Ok)
            .expect("retry succeeds");
        assert_eq!(*v, baseline_seed("k"));
        // …and the success IS memoized.
        let again: Arc<u64> = cache
            .get_or_compute_result("k", |_| Err("must not recompute".into()))
            .expect("memoized");
        assert_eq!(*again, *v);
        assert_eq!(
            (cache.calls(), cache.computed()),
            (3, 2),
            "one failed + one successful compute, then a hit"
        );
    }

    #[test]
    fn baseline_cache_recovers_from_a_panicked_compute() {
        let cache = BaselineCache::new();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute_result::<u64, _>("k", |_| panic!("compute exploded"))
        }));
        assert!(panicked.is_err());
        // The slot reverted to empty: a later requester computes cleanly.
        let v: Arc<u64> = cache.get_or_compute_result("k", Ok).expect("computes");
        assert_eq!(*v, baseline_seed("k"));
        assert_eq!((cache.calls(), cache.computed()), (2, 2));
    }

    /// Sweep points that all share one memoized baseline whose compute
    /// wedges forever — only a deadline stops it.
    struct SharedWedgedBaseline;

    impl Experiment for SharedWedgedBaseline {
        fn name(&self) -> &'static str {
            "shared_wedged_baseline"
        }
        fn anchor(&self) -> &'static str {
            "test"
        }
        fn plan(&self, _f: Fidelity) -> Vec<SweepPoint> {
            (0..3)
                .map(|i| SweepPoint::new(i, format!("x={}", i)))
                .collect()
        }
        fn run_point(&self, _point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
            let v: Arc<u64> = ctx
                .baselines
                .get_or_compute_result("wedged-baseline", |_| {
                    let mut e = simcore::Engine::new();
                    e.after(SimTime::PS, 1);
                    e.try_run(|eng, _| {
                        eng.after(SimTime::PS, 1);
                    })
                    .map_err(|err| err.to_string())?;
                    unreachable!("the storm never runs dry");
                })?;
            Ok(Box::new(*v))
        }
        fn finalize(&self, _f: Fidelity, _points: &[PointOutcome]) -> Vec<FigureData> {
            Vec::new()
        }
    }

    #[test]
    fn cancelled_baseline_does_not_poison_later_points() {
        // Every point's own deadline cancels its own baseline attempt: all
        // points classify as TimedOut. Before errors were un-memoized, the
        // first cancellation was served from the cache to every later
        // point, which then (wrongly) recorded Failed — and in a long
        // campaign one transient timeout would poison the whole key.
        let opts =
            CampaignOptions::serial(Fidelity::Quick).with_timeout(Some(Duration::from_millis(20)));
        let run = run_experiment(&SharedWedgedBaseline, &opts);
        assert_eq!(run.points, 3);
        assert_eq!(run.timed_out_points, 3, "every point timed out on its own");
        assert_eq!(run.failed_points, 0, "no point inherited a cached error");
    }
}
