//! Compute-phase executor.
//!
//! A *job* is a sequence of [`Phase`]s repeated for a number of iterations,
//! bound to one core. Each phase carries a flop count, a byte count (memory
//! traffic to a NUMA node) and an instruction license. The executor turns
//! phases into engine flows:
//!
//! * **pure compute** (`bytes == 0`): a flow of `cycles` over the core's
//!   cycle resource — frequency changes rescale the remaining work
//!   automatically;
//! * **mixed / memory phases**: a flow of `bytes` across the memory path,
//!   rate-capped by the roofline compute bound `flop_rate / (flops/byte)`
//!   and by the core's load/store bandwidth. The resulting duration is
//!   `max(T_compute, bytes / allocated_bw)` — the roofline with contention.
//!
//! Stall seconds (time spent below the cap) accumulate into [`JobStats`];
//! divided by busy time they give the "% of stalls due to memory accesses"
//! counter of the paper's Figure 10.

use freq::{Activity, FreqModel, License};
use simcore::{
    kind_index, split_kind_index, tag, tags, telemetry, Engine, FlowId, FlowSpec, SimTime,
};
use topology::{CoreId, NumaId};

use crate::{MemSystem, Requester};

/// One step of a job: `flops` of compute interleaved with `bytes` of memory
/// traffic against NUMA node `data`.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Floating-point operations in this phase.
    pub flops: f64,
    /// Bytes moved between the core and `data`'s memory controller.
    pub bytes: f64,
    /// Home NUMA node of the data.
    pub data: NumaId,
    /// Instruction license (drives turbo laddering).
    pub license: License,
}

impl Phase {
    /// Arithmetic intensity in flops/byte (infinite for pure compute).
    pub fn intensity(&self) -> f64 {
        if self.bytes == 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.bytes
        }
    }
}

/// A job: phases repeated `iterations` times on a fixed core.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Core executing the job.
    pub core: CoreId,
    /// Phases of one iteration.
    pub phases: Vec<Phase>,
    /// Number of iterations.
    pub iterations: u64,
}

/// Timing and counter results of a finished job.
#[derive(Clone, Debug)]
pub struct JobStats {
    /// Core the job ran on.
    pub core: CoreId,
    /// Simulated start time.
    pub started: SimTime,
    /// Simulated end time.
    pub finished: SimTime,
    /// Seconds spent stalled on memory (below the roofline cap).
    pub stalled_s: f64,
    /// Total bytes moved.
    pub bytes: f64,
    /// Total flops executed.
    pub flops: f64,
    /// Completed iterations (may be short of the spec if stopped early).
    pub iterations_done: u64,
}

impl JobStats {
    /// Wall-clock seconds.
    pub fn elapsed_s(&self) -> f64 {
        (self.finished - self.started).as_secs_f64()
    }

    /// Fraction of time stalled on memory accesses, in [0,1].
    pub fn stall_fraction(&self) -> f64 {
        let e = self.elapsed_s();
        if e > 0.0 {
            (self.stalled_s / e).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Attained memory bandwidth in bytes/s (the STREAM per-core metric).
    pub fn mem_bandwidth(&self) -> f64 {
        let e = self.elapsed_s();
        if e > 0.0 {
            self.bytes / e
        } else {
            0.0
        }
    }
}

/// PMU-style telemetry counter name for a phase's instruction license
/// (the simulated analogue of per-license cycle residency counters).
fn license_counter(license: License) -> &'static str {
    match license {
        License::Normal => "freq.license.normal",
        License::Avx2 => "freq.license.avx2",
        License::Avx512 => "freq.license.avx512",
    }
}

/// Handle to a running job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobId(u32);

struct JobState {
    spec: JobSpec,
    iter: u64,
    phase: usize,
    flow: Option<FlowId>,
    stats: JobStats,
}

/// Executes compute jobs on one node. `exec_id` namespaces event tags so
/// several executors (one per simulated node) can share an engine. An
/// executor is always driven with its node's one [`FreqModel`], and every
/// activity change of that model goes through [`Executor::set_activity`].
pub struct Executor {
    exec_id: u32,
    jobs: Vec<Option<JobState>>,
}

impl Executor {
    /// Create an executor with the given id (must be unique per engine).
    pub fn new(exec_id: u32) -> Executor {
        Executor {
            exec_id,
            jobs: Vec::new(),
        }
    }

    /// True if the given event tag belongs to this executor.
    pub fn owns(&self, event_tag: u64) -> bool {
        if simcore::namespace(event_tag) != tags::ns::COMPUTE {
            return false;
        }
        let (kind, _) = split_kind_index(simcore::payload(event_tag));
        kind == self.exec_id
    }

    fn tag_for(&self, job: u32) -> u64 {
        tag(tags::ns::COMPUTE, kind_index(self.exec_id, job))
    }

    /// Start a job. Marks the core heavy (using the first phase's license),
    /// reapplies frequencies and launches the first phase.
    pub fn start(
        &mut self,
        engine: &mut Engine,
        mem: &MemSystem,
        freqs: &mut FreqModel,
        spec: JobSpec,
    ) -> JobId {
        assert!(!spec.phases.is_empty(), "job needs at least one phase");
        assert!(spec.iterations > 0, "job needs at least one iteration");
        let license = spec
            .phases
            .iter()
            .map(|p| p.license)
            .max()
            .expect("non-empty phases");
        let core = spec.core;
        let id = JobId(self.jobs.len() as u32);
        self.jobs.push(Some(JobState {
            stats: JobStats {
                core,
                started: engine.now(),
                finished: engine.now(),
                stalled_s: 0.0,
                bytes: 0.0,
                flops: 0.0,
                iterations_done: 0,
            },
            spec,
            iter: 0,
            phase: 0,
            flow: None,
        }));
        if self.set_activity(engine, mem, freqs, core, Activity::Heavy(license)) {
            telemetry::counter_add("freq.transitions", 1);
        }
        self.launch_phase(engine, mem, freqs, id);
        id
    }

    /// The node's one frequency transition: record `core`'s new activity
    /// and, if that changed it, move every capacity that follows the
    /// frequencies on this node: the core and controller capacities
    /// ([`MemSystem::apply_freqs`]) and the roofline cap of every live
    /// memory phase on `core`'s socket. A cap reads only its own core's
    /// frequency, and the change moves no other socket's, so the other
    /// socket's caps keep their bits. Returns whether the activity changed.
    pub fn set_activity(
        &mut self,
        engine: &mut Engine,
        mem: &MemSystem,
        freqs: &mut FreqModel,
        core: CoreId,
        activity: Activity,
    ) -> bool {
        if !freqs.set_activity(core, activity) {
            return false;
        }
        mem.apply_freqs(engine, freqs);
        let socket = freqs.socket_of(core);
        for job in self.jobs.iter().flatten() {
            if freqs.socket_of(job.spec.core) != socket {
                continue;
            }
            let phase = &job.spec.phases[job.phase];
            if let Some(flow) = job.flow.filter(|_| phase.bytes > 0.0) {
                engine.set_flow_cap(flow, Self::phase_cap(mem, freqs, job.spec.core, phase));
            }
        }
        true
    }

    /// Roofline rate cap of a phase on `core` at current frequency.
    fn phase_cap(mem: &MemSystem, freqs: &FreqModel, core: CoreId, phase: &Phase) -> Option<f64> {
        let per_core = mem
            .requester_cap(Requester::Core(core))
            .expect("cores are capped");
        if phase.flops <= 0.0 {
            return Some(per_core);
        }
        let f = freqs.core_freq(core);
        let flop_rate = mem.spec().flop_rate(f, phase.license.index());
        let roofline = flop_rate / (phase.flops / phase.bytes);
        Some(roofline.min(per_core))
    }

    fn launch_phase(&mut self, engine: &mut Engine, mem: &MemSystem, freqs: &FreqModel, id: JobId) {
        let etag = self.tag_for(id.0);
        let job = self.jobs[id.0 as usize].as_mut().expect("live job");
        let phase = &job.spec.phases[job.phase];
        let core = job.spec.core;
        // PMU-style phase counters: per-license residency (phase launches)
        // and memory-channel pressure (bytes put on the memory path). Both
        // are pure functions of the simulated work, so they are safe in the
        // deterministic journal.
        telemetry::counter_add(license_counter(phase.license), 1);
        if phase.bytes >= 1.0 {
            telemetry::counter_add("mem.channel.bytes", phase.bytes as u64);
        }
        if phase.bytes > 0.0 {
            let cap = Self::phase_cap(mem, freqs, core, phase);
            let flow = engine.start_flow(FlowSpec {
                path: mem.path(Requester::Core(core), phase.data),
                volume: phase.bytes,
                weight: 1.0,
                cap,
                tag: etag,
            });
            job.flow = Some(flow);
        } else if phase.flops > 0.0 {
            // Pure compute: volume in cycles over the core's own resource.
            let spec = mem.spec();
            let cycles =
                phase.flops / (spec.flops_per_cycle * spec.simd_mult[phase.license.index()]);
            let flow = engine.start_flow(FlowSpec {
                path: vec![mem.core_resource(core)],
                volume: cycles,
                weight: 1.0,
                cap: None,
                tag: etag,
            });
            job.flow = Some(flow);
        } else {
            // Empty phase: complete immediately via a zero timer.
            engine.after(SimTime::ZERO, etag);
            job.flow = None;
        }
    }

    /// Handle a completion event. Returns finished job stats when a whole
    /// job completes. Panics if the tag is not owned by this executor.
    pub fn on_event(
        &mut self,
        engine: &mut Engine,
        mem: &MemSystem,
        freqs: &mut FreqModel,
        event: &simcore::Event,
    ) -> Option<(JobId, JobStats)> {
        assert!(self.owns(event.tag()), "foreign event");
        let (_, jid) = split_kind_index(simcore::payload(event.tag()));
        let id = JobId(jid);
        {
            let job = self.jobs[jid as usize].as_mut().expect("live job");
            // Accumulate phase results.
            if let simcore::Event::Flow { report, .. } = event {
                job.stats.stalled_s += report.stalled;
                // Memory-stall residency in integer picoseconds (counters
                // are integers; ps keeps sub-microsecond stalls visible).
                let ps = (report.stalled * 1e12).round() as u64;
                if ps > 0 {
                    telemetry::counter_add("mem.stall_ps", ps);
                }
            }
            let phase = &job.spec.phases[job.phase];
            job.stats.bytes += phase.bytes;
            job.stats.flops += phase.flops;
            job.flow = None;
            // Advance.
            job.phase += 1;
            if job.phase == job.spec.phases.len() {
                job.phase = 0;
                job.iter += 1;
                job.stats.iterations_done = job.iter;
                if job.iter == job.spec.iterations {
                    let mut st = self.jobs[jid as usize].take().expect("live job").stats;
                    st.finished = engine.now();
                    if self.set_activity(engine, mem, freqs, st.core, Activity::Idle) {
                        telemetry::counter_add("freq.transitions", 1);
                    }
                    return Some((id, st));
                }
            }
        }
        self.launch_phase(engine, mem, freqs, id);
        None
    }

    /// Cancel a running job, returning its partial stats.
    pub fn stop(
        &mut self,
        engine: &mut Engine,
        mem: &MemSystem,
        freqs: &mut FreqModel,
        id: JobId,
    ) -> Option<JobStats> {
        let mut job = self.jobs[id.0 as usize].take()?;
        if let Some(flow) = job.flow {
            if let Some(rep) = engine.cancel_flow(flow) {
                job.stats.stalled_s += rep.stalled;
                let phase = &job.spec.phases[job.phase];
                // Fraction of the phase completed when cancelled. Memory
                // phases have volume = bytes; pure-compute phases have
                // volume = cycles.
                let spec = mem.spec();
                let volume = if phase.bytes > 0.0 {
                    phase.bytes
                } else {
                    phase.flops / (spec.flops_per_cycle * spec.simd_mult[phase.license.index()])
                };
                let done_frac = if volume > 0.0 {
                    (1.0 - rep.remaining / volume).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                job.stats.bytes += phase.bytes * done_frac;
                job.stats.flops += phase.flops * done_frac;
            }
        }
        job.stats.finished = engine.now();
        if self.set_activity(engine, mem, freqs, job.spec.core, Activity::Idle) {
            telemetry::counter_add("freq.transitions", 1);
        }
        Some(job.stats)
    }

    /// Number of jobs still running.
    pub fn live_jobs(&self) -> usize {
        self.jobs.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freq::{Governor, UncorePolicy};
    use topology::henri;

    fn setup() -> (Engine, MemSystem, FreqModel, Executor) {
        let mut e = Engine::new();
        let spec = henri();
        let m = MemSystem::build(&mut e, &spec, "n0.");
        let f = FreqModel::new(
            &spec,
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
        );
        m.apply_freqs(&mut e, &f);
        (e, m, f, Executor::new(0))
    }

    fn run_to_completion(
        e: &mut Engine,
        m: &MemSystem,
        f: &mut FreqModel,
        x: &mut Executor,
    ) -> Vec<(JobId, JobStats)> {
        let mut done = Vec::new();
        while let Some(ev) = e.next() {
            if x.owns(ev.tag()) {
                if let Some(d) = x.on_event(e, m, f, &ev) {
                    done.push(d);
                }
            }
        }
        done
    }

    #[test]
    fn pure_compute_duration_scales_with_freq() {
        let (mut e, m, mut f, mut x) = setup();
        // 3.7e9 flops of Normal work on one turboing core: flop rate =
        // 3.7 GHz × 4 flops/cycle = 14.8 Gflop/s → 0.25 s.
        x.start(
            &mut e,
            &m,
            &mut f,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 3.7e9,
                    bytes: 0.0,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 1,
            },
        );
        let done = run_to_completion(&mut e, &m, &mut f, &mut x);
        assert_eq!(done.len(), 1);
        let el = done[0].1.elapsed_s();
        assert!((el - 0.25).abs() < 1e-9, "elapsed {}", el);
    }

    #[test]
    fn memory_bound_phase_runs_at_per_core_bw() {
        let (mut e, m, mut f, mut x) = setup();
        // 12 GB at AI ≈ 0 on an idle machine: limited by per-core bw 12 GB/s.
        x.start(
            &mut e,
            &m,
            &mut f,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 0.0,
                    bytes: 12.0e9,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 1,
            },
        );
        let done = run_to_completion(&mut e, &m, &mut f, &mut x);
        let el = done[0].1.elapsed_s();
        assert!((el - 1.0).abs() < 1e-6, "elapsed {}", el);
        assert!((done[0].1.mem_bandwidth() - 12.0e9).abs() < 1e3);
    }

    #[test]
    fn roofline_crossover() {
        // Same bytes, increasing flops: below the machine balance the time
        // is constant (memory-bound), above it grows (compute-bound).
        let bytes = 1.2e9;
        let mut last = 0.0;
        let mut durations = Vec::new();
        for ai in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
            let (mut e, m, mut f, mut x) = setup();
            x.start(
                &mut e,
                &m,
                &mut f,
                JobSpec {
                    core: CoreId(0),
                    phases: vec![Phase {
                        flops: bytes * ai,
                        bytes,
                        data: NumaId(0),
                        license: License::Normal,
                    }],
                    iterations: 1,
                },
            );
            let done = run_to_completion(&mut e, &m, &mut f, &mut x);
            last = done[0].1.elapsed_s();
            durations.push(last);
        }
        // Memory-bound plateau: first two equal (0.1 s at 12 GB/s).
        assert!((durations[0] - 0.1).abs() < 1e-6);
        assert!((durations[1] - 0.1).abs() < 1e-6);
        // Compute-bound growth at the end: doubling AI doubles time.
        let n = durations.len();
        assert!(durations[n - 1] / durations[n - 2] > 1.8);
        let _ = last;
    }

    #[test]
    fn contention_divides_bandwidth_and_counts_stalls() {
        let (mut e, m, mut f, mut x) = setup();
        // 9 memory-bound cores on one controller: 9 × 12 GB/s demanded
        // vs 45 GB/s available → 5 GB/s each.
        for c in 0..9 {
            x.start(
                &mut e,
                &m,
                &mut f,
                JobSpec {
                    core: CoreId(c),
                    phases: vec![Phase {
                        flops: 0.0,
                        bytes: 5.0e9,
                        data: NumaId(0),
                        license: License::Normal,
                    }],
                    iterations: 1,
                },
            );
        }
        let done = run_to_completion(&mut e, &m, &mut f, &mut x);
        assert_eq!(done.len(), 9);
        for (_, st) in &done {
            assert!(
                (st.mem_bandwidth() - 5.0e9).abs() < 1e7,
                "bw {}",
                st.mem_bandwidth()
            );
            // Stalled (12-5)/12 of the time.
            assert!((st.stall_fraction() - 7.0 / 12.0).abs() < 0.01);
        }
    }

    #[test]
    fn multi_iteration_job_accumulates() {
        let (mut e, m, mut f, mut x) = setup();
        x.start(
            &mut e,
            &m,
            &mut f,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 1e6,
                    bytes: 1e6,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 10,
            },
        );
        let done = run_to_completion(&mut e, &m, &mut f, &mut x);
        assert_eq!(done[0].1.iterations_done, 10);
        assert!((done[0].1.bytes - 1e7).abs() < 1.0);
        assert!((done[0].1.flops - 1e7).abs() < 1.0);
    }

    #[test]
    fn stop_returns_partial_stats() {
        let (mut e, m, mut f, mut x) = setup();
        let id = x.start(
            &mut e,
            &m,
            &mut f,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: 0.0,
                    bytes: 12.0e9,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 1,
            },
        );
        // Run for 0.5 s then stop.
        e.run_until(SimTime::from_millis(500), |_, _| {});
        let st = x.stop(&mut e, &m, &mut f, id).expect("was running");
        assert!((st.bytes - 6.0e9).abs() < 1e7, "bytes {}", st.bytes);
        assert_eq!(x.live_jobs(), 0);
        // Core returns to idle.
        assert_eq!(f.activity(CoreId(0)), Activity::Idle);
    }

    #[test]
    fn activity_transitions() {
        let (mut e, m, mut f, mut x) = setup();
        x.start(
            &mut e,
            &m,
            &mut f,
            JobSpec {
                core: CoreId(2),
                phases: vec![Phase {
                    flops: 1e9,
                    bytes: 0.0,
                    data: NumaId(0),
                    license: License::Avx512,
                }],
                iterations: 1,
            },
        );
        assert_eq!(f.activity(CoreId(2)), Activity::Heavy(License::Avx512));
        let _ = run_to_completion(&mut e, &m, &mut f, &mut x);
        assert_eq!(f.activity(CoreId(2)), Activity::Idle);
    }

    #[test]
    fn freq_change_mid_phase_respected() {
        // Start a compute-capped memory phase alone (cap = roofline at
        // turbo), then add 17 more heavy cores → frequency drops → cap
        // drops → phase takes longer than the single-core prediction.
        let (mut e, m, mut f, mut x) = setup();
        let bytes = 2.0e9;
        let ai = 4.0; // henri balance ≈ per-core 12GB/s vs flop-capped
        x.start(
            &mut e,
            &m,
            &mut f,
            JobSpec {
                core: CoreId(0),
                phases: vec![Phase {
                    flops: bytes * ai,
                    bytes,
                    data: NumaId(0),
                    license: License::Normal,
                }],
                iterations: 1,
            },
        );
        // Immediately also saturate the socket with 8 heavy pure-compute jobs.
        for c in 1..9 {
            x.start(
                &mut e,
                &m,
                &mut f,
                JobSpec {
                    core: CoreId(c),
                    phases: vec![Phase {
                        flops: 50e9,
                        bytes: 0.0,
                        data: NumaId(0),
                        license: License::Normal,
                    }],
                    iterations: 1,
                },
            );
        }
        let done = run_to_completion(&mut e, &m, &mut f, &mut x);
        let first = done
            .iter()
            .find(|(_, st)| st.core == CoreId(0))
            .expect("job 0 done");
        // At 3.7 GHz the roofline cap is 14.8/4 = 3.7 GB/s; with 9 active
        // cores the ladder gives 3.0 GHz → 3.0 GB/s. Duration must exceed
        // the solo-turbo prediction.
        let solo = bytes / (14.8e9 / ai);
        assert!(first.1.elapsed_s() > solo * 1.1, "no slowdown observed");
    }

    /// A transition made outside any job (a polling worker) moves a live
    /// roofline cap in the same call: after each one, the compute-capped
    /// phase's cap is `phase_cap` under the new model, bit for bit. A phase
    /// on the other socket, which the transition does not recap, keeps
    /// the cap `phase_cap` gives it too.
    #[test]
    fn set_activity_recaps_live_jobs_at_once() {
        let (mut e, m, mut f, mut x) = setup();
        let mut start = |core: u32| {
            let phase = Phase {
                flops: 8.0e9,
                bytes: 2.0e9,
                data: NumaId(0),
                license: License::Normal,
            };
            let spec = JobSpec {
                core: CoreId(core),
                phases: vec![phase.clone()],
                iterations: 1,
            };
            let id = x.start(&mut e, &m, &mut f, spec);
            let flow = x.jobs[id.0 as usize].as_ref().and_then(|j| j.flow);
            (CoreId(core), flow.expect("memory phase"), phase)
        };
        // Core 20 is on henri's second socket.
        let (near, far) = (start(0), start(20));
        let flow = near.1;
        let mut caps = vec![e.flow_cap(flow).expect("live flow")];
        for c in 1..9 {
            assert!(x.set_activity(&mut e, &m, &mut f, CoreId(c), Activity::Light));
            for (core, flow, phase) in [&near, &far] {
                let want = Executor::phase_cap(&m, &f, *core, phase);
                let got = e.flow_cap(*flow).expect("live flow");
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{core:?} after {c}"
                );
            }
            caps.push(e.flow_cap(flow).expect("live flow"));
        }
        assert!(caps.windows(2).any(|w| w[0] != w[1]), "the cap never moved");
        assert!(!x.set_activity(&mut e, &m, &mut f, CoreId(8), Activity::Light));
    }
}
