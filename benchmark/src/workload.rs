//! The five workloads: what each sets up, what it measures, and how its
//! simulated output is checked.
//!
//! Every workload is a closed-loop batch job run once per child process.
//! The set-up phase ends and the measured phase begins at one call, marked
//! by the `measured` span; everything after it (fingerprinting, probes) is
//! outside both. A set-up-only run returns where the measured phase would
//! begin.

use std::collections::BTreeMap;

use freq::{Governor, UncorePolicy};
use interference::campaign::{self, CampaignOptions, Experiment};
use interference::experiments::{self, Fidelity};
use interference::report::FigureData;
use mpisim::collective::{self, Algorithm};
use mpisim::Cluster;
use simcore::{telemetry, Engine, Event, FlowSpec, Journal, Pcg32, SimTime, TimerId};
use topology::fabric::FabricPreset;
use topology::{tiny2x2, BindingPolicy, Placement};

use crate::probes;
use crate::trace::Spans;

/// A named benchmark workload (the `--workload` argument).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperCampaign,
    RingAllreduce512,
    Alltoall512,
    ContentionGrid1024,
    PredictCheck,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 5] = [
    Workload::PaperCampaign,
    Workload::RingAllreduce512,
    Workload::Alltoall512,
    Workload::ContentionGrid1024,
    Workload::PredictCheck,
];

/// Checks whose failure is the recorded baseline of the simulated output,
/// keyed `figure id: check name`. At Full fidelity bora loses 28.9 % of its
/// bandwidth, short of the 30 % the check asks for. The failure is part of
/// the committed campaign fingerprint, so a change that fixes it shows as a
/// fingerprint mismatch rather than passing silently.
const KNOWN_FAILING_CHECKS: &[&str] =
    &["cross-machine: all four clusters lose bandwidth under full memory contention"];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "paper_campaign",
            Workload::RingAllreduce512 => "ring_allreduce_512",
            Workload::Alltoall512 => "alltoall_512",
            Workload::ContentionGrid1024 => "contention_grid_1024",
            Workload::PredictCheck => "predict_check",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The job at benchmark size.
    pub fn job(self) -> Job {
        match self {
            Workload::PaperCampaign => Job::Campaign {
                experiments: experiments::all_experiments(),
                fidelity: Fidelity::Full,
            },
            Workload::RingAllreduce512 => Job::Collective {
                algorithm: Algorithm::RingAllreduce,
                ranks: 512,
                payload: 256 << 10,
            },
            Workload::Alltoall512 => Job::Collective {
                algorithm: Algorithm::PairwiseAlltoall,
                ranks: 512,
                payload: 128 << 10,
            },
            Workload::ContentionGrid1024 => Job::Grid {
                nodes: 1024,
                rounds: 4,
            },
            Workload::PredictCheck => Job::Predict {
                fidelity: Fidelity::Quick,
            },
        }
    }

    /// Fingerprint of the simulated output at benchmark size. Campaign
    /// fingerprints hash every series point and check (see
    /// [`figures_fingerprint`]); collective ones are the completion time in
    /// picoseconds and the message count; the grid's is its flow count.
    /// None depends on the seed.
    pub fn expected_fingerprint(self) -> &'static str {
        match self {
            Workload::PaperCampaign => "f15d0c7a3b6b6b3b",
            Workload::RingAllreduce512 => "1944252800 ps, 523264 messages",
            Workload::Alltoall512 => "21524137600 ps, 261632 messages",
            Workload::ContentionGrid1024 => "4096 flows",
            Workload::PredictCheck => "db11d545510b1882",
        }
    }
}

/// What a workload runs, with its size.
pub enum Job {
    /// `campaign::run_set` over registry experiments.
    Campaign {
        experiments: Vec<&'static dyn Experiment>,
        fidelity: Fidelity,
    },
    /// One collective on tiny2x2 nodes behind a switch fabric.
    Collective {
        algorithm: Algorithm,
        ranks: usize,
        payload: usize,
    },
    /// The synthetic engine scenario: racks of 8 behind an oversubscribed
    /// fabric, every node streaming transfers while poll timers churn.
    Grid { nodes: usize, rounds: u64 },
    /// The predictor accuracy campaign: harvest, then finalize.
    Predict { fidelity: Fidelity },
}

/// Operations a run attempted and how many of them failed. A check listed
/// in [`KNOWN_FAILING_CHECKS`] that fails is counted apart, not as a failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub known_failures: u64,
    /// Names of the failed operations, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, name: &str, pass: bool) {
        self.attempted += 1;
        if pass {
            return;
        }
        if KNOWN_FAILING_CHECKS.contains(&name) {
            self.known_failures += 1;
        } else {
            self.failed += 1;
            self.failures.push(name.to_string());
        }
    }

    /// Count `planned` sweep points of `what`, `lost` of which failed or
    /// timed out.
    fn points(&mut self, what: &str, planned: usize, lost: usize) {
        self.attempted += planned as u64;
        self.failed += lost as u64;
        if lost > 0 {
            self.failures.push(format!("{what}: {lost} point(s) lost"));
        }
    }

    fn figures(&mut self, figures: &[FigureData]) {
        for f in figures {
            for c in &f.checks {
                self.check(&format!("{}: {}", f.id, c.name), c.pass);
            }
        }
    }
}

/// Everything one run of a job produced; empty for a set-up-only run.
#[derive(Default)]
pub struct RunResult {
    pub ops: Ops,
    pub fingerprint: String,
    /// Telemetry counters, when the run was traced.
    pub journal: Option<Journal>,
    /// Per-layer numbers the workload measured itself, by metric name.
    pub layers: BTreeMap<String, f64>,
}

impl RunResult {
    /// Count the fingerprint comparison as one more operation.
    pub fn verify(&mut self, expected: &str) {
        let pass = self.fingerprint == expected;
        self.ops.check(
            &format!("fingerprint {} (expected {})", self.fingerprint, expected),
            pass,
        );
    }
}

/// How far one run of a job goes, and whether the recorder is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Set-up only: return where the measured phase would begin.
    SetUp,
    /// Set-up and measured phase, recorder off.
    Plain,
    /// Set-up and measured phase with the telemetry recorder on; the result
    /// carries the journal plus the per-layer probes.
    Traced,
}

impl Job {
    /// Run the job once. `spans` receives a `measured` span around the
    /// measured phase and one span per timed call into a layer.
    pub fn run(&self, seed: u64, mode: Mode, spans: &mut Spans) -> RunResult {
        match self {
            Job::Campaign {
                experiments,
                fidelity,
            } => run_campaign(experiments, *fidelity, mode, spans),
            Job::Collective {
                algorithm,
                ranks,
                payload,
            } => run_collective(*algorithm, *ranks, *payload, seed, mode, spans),
            Job::Grid { nodes, rounds } => run_grid(*nodes, *rounds, seed, mode, spans),
            Job::Predict { fidelity } => run_predict(*fidelity, mode, spans),
        }
    }

    /// The span during which the job produces the events the recorder
    /// counts: the harvest for `predict_check`, whose measured phase only
    /// learns from stored points, and the measured phase for every other.
    pub fn events_span(&self) -> &'static str {
        match self {
            Job::Predict { .. } => "predict.harvest",
            _ => "measured",
        }
    }
}

fn run_campaign(
    exps: &[&'static dyn Experiment],
    fidelity: Fidelity,
    mode: Mode,
    spans: &mut Spans,
) -> RunResult {
    let opts = CampaignOptions::serial(fidelity).with_telemetry(mode == Mode::Traced);
    if mode == Mode::SetUp {
        return RunResult::default();
    }
    let (runs, report) = spans.time("measured", |_| campaign::run_set_with_report(exps, &opts));
    let mut ops = Ops::default();
    let mut figures = Vec::new();
    let mut layers = BTreeMap::new();
    let mut points = 0;
    for r in runs {
        points += r.points;
        ops.points(r.name, r.points, r.failed_points + r.timed_out_points);
        ops.check(&format!("{}: finalize", r.name), r.finalize_error.is_none());
        layers.insert(format!("campaign.busy_s.{}", r.name), r.busy.as_secs_f64());
        figures.extend(r.figures);
    }
    ops.figures(&figures);
    layers.insert("campaign.points".into(), points as f64);
    if report.baseline_calls > 0 {
        layers.insert(
            "campaign.baseline_hit_ratio".into(),
            1.0 - report.baseline_computed as f64 / report.baseline_calls as f64,
        );
    }
    RunResult {
        ops,
        fingerprint: figures_fingerprint(&figures),
        journal: report.journal,
        layers,
    }
}

fn run_collective(
    algorithm: Algorithm,
    ranks: usize,
    payload: usize,
    seed: u64,
    mode: Mode,
    spans: &mut Spans,
) -> RunResult {
    let traced = mode == Mode::Traced;
    if traced {
        telemetry::install();
    }
    let schedule = spans.time("collective.schedule_build", |_| {
        collective::cached(algorithm, ranks, payload)
    });
    let fabric = spans.time("topology.fabric_build", |_| {
        FabricPreset::Switch.spec(ranks).build_for(ranks)
    });
    let spec = tiny2x2();
    let mut cluster = spans.time("mpisim.cluster_build", |_| {
        Cluster::with_fabric(
            &spec,
            fabric,
            Governor::Userspace(spec.base_freq),
            UncorePolicy::Fixed(spec.uncore_range.1),
            Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            },
        )
    });
    if mode == Mode::SetUp {
        return RunResult::default();
    }
    let elapsed = spans.time("measured", |s| {
        s.time("collective.run", |_| {
            collective::run_ordered(&mut cluster, &schedule, 100, 0x8000, Some(seed))
        })
    });
    let journal = if traced { telemetry::take() } else { None };
    let messages = schedule.total_messages();
    let mut ops = Ops::default();
    let fingerprint = match &elapsed {
        Ok(t) => format!("{} ps, {} messages", t.0, messages),
        Err(e) => format!("failed: {:?}", e),
    };
    ops.check("collective completes", elapsed.is_ok());
    let cache = collective::cache_stats();
    RunResult {
        ops,
        fingerprint,
        journal,
        layers: BTreeMap::from([
            ("collective.cache_hits".into(), cache.hits as f64),
            ("collective.cache_misses".into(), cache.misses as f64),
        ]),
    }
}

/// Tag namespaces of the grid scenario: flow tags are bare node indices.
const TAG_POLL: u64 = 1 << 32;
const TAG_WATCHDOG: u64 = 1 << 33;
/// Poll cadence per node (10 µs of simulated time).
const POLL_PS: u64 = 10_000_000;
/// Watchdog horizon per poll (150 µs; the next poll cancels it long before
/// it fires). `scaling.rs` uses 1 ms, which keeps ~100 k cancelled
/// watchdogs in the timer queue's tombstone hash set, near one of its
/// capacity steps: whether it doubles once more depends on the per-process
/// hash seed, and peak RSS read 10.3 or 11.6 MiB at one seed. With ~16 k
/// outstanding it reads 5.1-5.5 MiB. Timer churn (one insert and one cancel
/// per poll) is the same.
const WATCHDOG_PS: u64 = 150_000_000;

/// The engine-only scenario: no mpisim or netsim, one giant fluid component
/// at the fabric resource, and a watchdog re-armed (insert + cancel) on
/// every poll.
fn run_grid(nodes: usize, rounds: u64, seed: u64, mode: Mode, spans: &mut Spans) -> RunResult {
    let traced = mode == Mode::Traced;
    if traced {
        telemetry::install();
    }
    let mut eng = Engine::new();
    let fabric = eng.add_resource("fabric", (nodes as f64 / 16.0).max(1.0) * 12.5e9);
    let racks: Vec<_> = (0..nodes.div_ceil(8))
        .map(|r| eng.add_resource(format!("rack{}", r), 100e9))
        .collect();
    let nics: Vec<_> = (0..nodes)
        .map(|i| eng.add_resource(format!("nic{}", i), 12.5e9))
        .collect();
    // Transfer volumes come from a fixed stream, so every seed solves the
    // same fluid problem; the seed moves the poll timers' phases, which
    // changes the timer churn and event interleaving but not the amount of
    // work, keeping runs at different seeds comparable.
    let mut rng = Pcg32::new(nodes as u64, 0x5ca1_ab1e);
    let mut phases = Pcg32::new(seed, 0x9011);
    let mut injected = 0.0;
    let mut start_transfer = |eng: &mut Engine, rng: &mut Pcg32, node: usize| {
        let dst = (node + nodes / 2 + 1) % nodes;
        let volume = 4e5 * (1.0 + rng.next_f64());
        injected += volume;
        eng.start_flow(FlowSpec {
            path: vec![
                nics[node],
                racks[node / 8],
                fabric,
                racks[dst / 8],
                nics[dst],
            ],
            volume,
            weight: 1.0,
            cap: None,
            tag: node as u64,
        });
    };
    let mut remaining = vec![rounds; nodes];
    let mut watchdog: Vec<Option<TimerId>> = vec![None; nodes];
    for (node, slot) in watchdog.iter_mut().enumerate() {
        start_transfer(&mut eng, &mut rng, node);
        // Staggered first poll so instants mix bursts with lone timers.
        let jitter = phases.below(1 + (POLL_PS / 2) as u32) as u64;
        eng.after(SimTime(POLL_PS + jitter), TAG_POLL + node as u64);
        *slot = Some(eng.after(SimTime(WATCHDOG_PS), TAG_WATCHDOG + node as u64));
    }
    if mode == Mode::SetUp {
        return RunResult::default();
    }
    let mut completed = 0u64;
    spans.time("measured", |_| {
        eng.run(|eng, event| match event {
            Event::Flow { tag, .. } => {
                completed += 1;
                let node = tag as usize;
                remaining[node] -= 1;
                if remaining[node] > 0 {
                    start_transfer(eng, &mut rng, node);
                } else if let Some(id) = watchdog[node].take() {
                    eng.cancel_timer(id);
                }
            }
            Event::Timer { tag } if tag >= TAG_WATCHDOG => {
                // A watchdog outlived its horizon; the next poll re-arms it.
                watchdog[(tag - TAG_WATCHDOG) as usize] = None;
            }
            Event::Timer { tag } => {
                let node = (tag - TAG_POLL) as usize;
                if remaining[node] > 0 {
                    if let Some(id) = watchdog[node].take() {
                        eng.cancel_timer(id);
                    }
                    watchdog[node] =
                        Some(eng.after(SimTime(WATCHDOG_PS), TAG_WATCHDOG + node as u64));
                    eng.after(SimTime(POLL_PS), TAG_POLL + node as u64);
                }
            }
        })
    });
    let journal = if traced { telemetry::take() } else { None };
    let planned = nodes as u64 * rounds;
    // Every flow crosses two NICs, so NIC-delivered bytes are twice the
    // injected volume.
    let nic_bytes: f64 = nics.iter().map(|&r| eng.delivered(r)).sum();
    let mut ops = Ops::default();
    ops.check("every flow completes", completed == planned);
    ops.check(
        "NIC-delivered bytes equal twice the injected volume",
        (nic_bytes - 2.0 * injected).abs() <= 1e-6 * nic_bytes,
    );
    RunResult {
        ops,
        fingerprint: format!("{} flows", completed),
        journal,
        layers: BTreeMap::new(),
    }
}

fn run_predict(fidelity: Fidelity, mode: Mode, spans: &mut Spans) -> RunResult {
    let traced = mode == Mode::Traced;
    let exp = predict::accuracy::ACCURACY_EXPERIMENT;
    let opts = CampaignOptions::serial(fidelity).with_telemetry(traced);
    let mut points = spans.time("predict.harvest", |_| {
        campaign::run_outcomes_with_store(exp, &opts, None)
    });
    if mode == Mode::SetUp {
        return RunResult::default();
    }
    let figures = spans.time("measured", |s| {
        s.time("predict.finalize", |_| exp.finalize(fidelity, &points))
    });
    let mut ops = Ops::default();
    let lost = points.iter().filter(|p| p.value.is_none()).count();
    ops.points("harvest", points.len(), lost);
    ops.figures(&figures);
    let journal = traced.then(|| {
        let mut merged = Journal::default();
        for p in &mut points {
            if let Some(j) = p.journal.take() {
                merged.append(j);
            }
        }
        merged
    });
    let mut layers = BTreeMap::new();
    if traced {
        layers.extend(probes::harvest_walls(&points));
        layers.extend(probes::advisor(&points, fidelity, spans, &mut ops));
        layers.extend(probes::store(exp, &points, spans, &mut ops));
    }
    RunResult {
        ops,
        fingerprint: figures_fingerprint(&figures),
        journal,
        layers,
    }
}

/// FNV-1a over every series point (x and every summary field, as f64
/// bits) and every check's name and pass flag — the simulated output only,
/// so notes and added export blocks leave it unchanged.
pub fn figures_fingerprint(figures: &[FigureData]) -> String {
    let mut h = Fnv::default();
    for f in figures {
        h.bytes(f.id.as_bytes());
        for s in &f.series {
            h.bytes(s.name.as_bytes());
            for p in &s.points {
                let y = &p.y;
                h.u64(y.n as u64);
                for v in [p.x, y.median, y.d1, y.d9, y.min, y.max, y.mean] {
                    h.u64(v.to_bits());
                }
            }
        }
        for c in &f.checks {
            h.bytes(c.name.as_bytes());
            h.u64(c.pass as u64);
        }
    }
    format!("{:016x}", h.0)
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-terminate so adjacent fields cannot trade bytes.
        self.u64(bytes.len() as u64);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}
