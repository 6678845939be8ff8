//! # taskrt — a StarPU-like task-based runtime over the simulated cluster
//!
//! Reproduces the runtime-system mechanisms the paper studies in §5:
//!
//! * **workers**: one thread per core executing tasks from a central ready
//!   list; idle workers **busy-wait** (poll) on the shared list with an
//!   exponential nop backoff (§5.4);
//! * the shared list is protected by a lock: aggressive polling raises the
//!   expected acquisition delay of every runtime operation — including the
//!   per-message bookkeeping of the communication thread, which is how
//!   polling inflates network latency on henri (Figure 9). On billy and
//!   pyxis the paper observes *no* impact ("different mechanisms to handle
//!   locking") — modelled by a zero lock-hold cost in their configs;
//! * idle polling also produces a small stream of coherence/memory traffic
//!   against the NUMA node holding the list;
//! * a per-message **software-stack overhead** (message lists, worker and
//!   communication-thread handoffs): +38 µs on henri, +23 µs on billy,
//!   +45 µs on pyxis (§5.2);
//! * **data-locality sensitivity** of the runtime messaging path (§5.3):
//!   fetching a small message's payload from a remote NUMA node adds delay.
//!
//! Tasks are dependency graphs ([`TaskSpec::deps`]); execution delegates to
//! the cluster's compute [`memsim::exec::Executor`], so all memory/frequency
//! interference applies to tasks exactly as to plain jobs.

#![warn(missing_docs)]

pub mod pingpong;
pub mod programs;

use std::collections::VecDeque;

use freq::Activity;
use memsim::exec::{JobId, JobSpec, JobStats, Phase};
use memsim::Requester;
use mpisim::{Cluster, ClusterEvent};
use simcore::telemetry::{self, Lane};
use simcore::{kind_index, split_kind_index, tags, FlowId, FlowSpec, SimTime};
use topology::{CoreId, MachineSpec, NumaId};

/// Effective bytes of memory/coherence traffic per poll of the task list
/// (most polls hit cache; this is the amortized miss traffic).
const POLL_BYTES: f64 = 8.0;

/// Cycles per nop instruction of the polling backoff.
const NOP_CYCLES: f64 = 1.0;

/// Cycles to dispatch one task (queue pop + state updates).
const DISPATCH_CYCLES: f64 = 2_000.0;

/// NUMA node holding the scheduler's shared task list.
const LIST_NUMA: NumaId = NumaId(0);

/// Runtime-event kinds (24-bit tag namespace): `node*16 + kind`.
const KIND_DISPATCH: u32 = 0;
/// Reserved for driver-level timers (StarPU ping-pong pre/post overheads).
pub const KIND_DRIVER: u32 = 15;

/// Per-node runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Per-message software-stack overhead in cycles on the communication
    /// core (split half before send, half after delivery).
    pub overhead_cycles: f64,
    /// Maximum nops of the exponential backoff between unsuccessful polls
    /// (StarPU default 32; the paper sweeps 2 / 32 / 10000 / paused).
    pub backoff_max_nops: u32,
    /// Cycles the list lock is held per acquisition (0 = contention-free
    /// locking, as observed on billy/pyxis).
    pub lock_hold_cycles: f64,
}

impl RuntimeConfig {
    /// Calibrated configuration for a machine preset: the overhead matches
    /// the latency penalty the paper reports in §5.2 at the machine's
    /// communication-core frequency.
    pub fn for_machine(spec: &MachineSpec) -> RuntimeConfig {
        let (overhead_us, lock_hold) = match spec.name.as_str() {
            "henri" => (38.0, 100.0),
            "billy" => (23.0, 0.0),
            "pyxis" => (45.0, 0.0),
            "bora" => (38.0, 100.0),
            _ => (20.0, 100.0),
        };
        RuntimeConfig {
            overhead_cycles: overhead_us * 1e-6 * spec.light_freq_cap * 1e9,
            backoff_max_nops: 32,
            lock_hold_cycles: lock_hold,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TaskState {
    WaitingDeps,
    Ready,
    Running,
    Done,
}

/// Task handle within one node's runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskId(pub u32);

/// Specification of one task.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// Compute phases of the task.
    pub phases: Vec<Phase>,
    /// Tasks (same node) that must complete first.
    pub deps: Vec<TaskId>,
}

struct Task {
    phases: Vec<Phase>,
    state: TaskState,
    remaining_deps: usize,
    dependents: Vec<TaskId>,
    stats: Option<JobStats>,
}

struct Worker {
    core: CoreId,
    busy: Option<TaskId>,
    poll_flow: Option<FlowId>,
    paused: bool,
}

struct NodeRt {
    workers: Vec<Worker>,
    tasks: Vec<Task>,
    ready: VecDeque<TaskId>,
    /// Executor job → task mapping.
    job_map: Vec<(JobId, TaskId)>,
    /// Tasks dispatched (timer in flight) but not yet running.
    dispatching: usize,
}

/// Completed-task notification.
#[derive(Clone, Debug)]
pub struct TaskDone {
    /// Node the task ran on.
    pub node: usize,
    /// Task handle.
    pub task: TaskId,
    /// Execution stats (stalls, bytes, duration).
    pub stats: JobStats,
}

/// The two-node runtime.
pub struct Runtime {
    cfg: RuntimeConfig,
    nodes: [NodeRt; 2],
}

impl Runtime {
    /// Create a runtime (no workers yet) with the given configuration.
    pub fn new(cfg: RuntimeConfig) -> Runtime {
        let mk = || NodeRt {
            workers: Vec::new(),
            tasks: Vec::new(),
            ready: VecDeque::new(),
            job_map: Vec::new(),
            dispatching: 0,
        };
        Runtime {
            cfg,
            nodes: [mk(), mk()],
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Attach polling workers on `cores` of `node`. Workers immediately
    /// start busy-waiting for tasks.
    pub fn attach_workers(&mut self, cluster: &mut Cluster, node: usize, cores: &[CoreId]) {
        for &core in cores {
            let mut w = Worker {
                core,
                busy: None,
                poll_flow: None,
                paused: false,
            };
            cluster.set_activity(node, core, Activity::Light);
            self.start_polling(cluster, node, &mut w);
            self.nodes[node].workers.push(w);
        }
    }

    /// Number of idle (actively polling) workers on a node.
    pub fn pollers(&self, node: usize) -> usize {
        self.nodes[node]
            .workers
            .iter()
            .filter(|w| w.busy.is_none() && !w.paused)
            .count()
    }

    /// Pause all workers (idle ones stop polling entirely — the paper's
    /// "paused workers" configuration).
    pub fn pause_workers(&mut self, cluster: &mut Cluster, node: usize) {
        let mut workers = std::mem::take(&mut self.nodes[node].workers);
        for w in &mut workers {
            w.paused = true;
            if let Some(flow) = w.poll_flow.take() {
                cluster.engine.cancel_flow(flow);
            }
            if w.busy.is_none() {
                cluster.set_activity(node, w.core, Activity::Idle);
            }
        }
        self.nodes[node].workers = workers;
    }

    /// Resume paused workers.
    pub fn resume_workers(&mut self, cluster: &mut Cluster, node: usize) {
        let mut workers = std::mem::take(&mut self.nodes[node].workers);
        for w in &mut workers {
            if w.paused {
                w.paused = false;
                if w.busy.is_none() {
                    cluster.set_activity(node, w.core, Activity::Light);
                    self.start_polling(cluster, node, w);
                }
            }
        }
        self.nodes[node].workers = workers;
        self.dispatch_all(cluster, node);
    }

    /// Steady-state poll period of an idle worker, in cycles.
    fn poll_period_cycles(&self) -> f64 {
        self.cfg.backoff_max_nops as f64 * NOP_CYCLES + self.cfg.lock_hold_cycles.max(1.0)
    }

    fn start_polling(&self, cluster: &mut Cluster, node: usize, w: &mut Worker) {
        if w.paused || w.busy.is_some() || w.poll_flow.is_some() {
            return;
        }
        let freq = cluster.freqs()[node].core_freq(w.core) * 1e9;
        let rate = freq / self.poll_period_cycles() * POLL_BYTES;
        let path = cluster.mem[node].path(Requester::Core(w.core), LIST_NUMA);
        let flow = cluster.engine.start_flow(FlowSpec {
            path,
            volume: 1e18, // effectively endless; cancelled on state change
            weight: 0.05, // polling yields to real traffic in arbitration
            cap: Some(rate.max(1.0)),
            tag: simcore::tag(tags::ns::RUNTIME, kind_index(14, 0)), // never completes
        });
        w.poll_flow = Some(flow);
    }

    /// Expected delay to acquire the shared-list lock given current polling
    /// pressure: each acquisition waits behind the pollers that are
    /// mid-critical-section, `pollers × hold/period` on average.
    pub fn lock_delay(&self, cluster: &Cluster, node: usize) -> SimTime {
        if self.cfg.lock_hold_cycles <= 0.0 {
            return SimTime::ZERO;
        }
        let pollers = self.pollers(node) as f64;
        let period = self.poll_period_cycles();
        let waiters = (pollers * self.cfg.lock_hold_cycles / period).min(pollers);
        let f = cluster.spec.light_freq_cap * 1e9;
        SimTime::from_secs_f64(waiters * self.cfg.lock_hold_cycles / f)
    }

    /// Submit a task on a node. Dependencies must already be submitted.
    pub fn submit(&mut self, cluster: &mut Cluster, node: usize, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.nodes[node].tasks.len() as u32);
        let mut remaining = 0;
        for &d in &spec.deps {
            let dep = &mut self.nodes[node].tasks[d.0 as usize];
            if dep.state != TaskState::Done {
                dep.dependents.push(id);
                remaining += 1;
            }
        }
        let state = if remaining == 0 {
            TaskState::Ready
        } else {
            TaskState::WaitingDeps
        };
        self.nodes[node].tasks.push(Task {
            phases: spec.phases,
            state,
            remaining_deps: remaining,
            dependents: Vec::new(),
            stats: None,
        });
        if state == TaskState::Ready {
            self.nodes[node].ready.push_back(id);
            self.dispatch_all(cluster, node);
        }
        id
    }

    /// True once the task completed.
    pub fn is_done(&self, node: usize, task: TaskId) -> bool {
        self.nodes[node].tasks[task.0 as usize].state == TaskState::Done
    }

    /// Stats of a completed task.
    pub fn task_stats(&self, node: usize, task: TaskId) -> Option<&JobStats> {
        self.nodes[node].tasks[task.0 as usize].stats.as_ref()
    }

    /// Count of tasks not yet done on a node.
    pub fn pending_tasks(&self, node: usize) -> usize {
        self.nodes[node]
            .tasks
            .iter()
            .filter(|t| t.state != TaskState::Done)
            .count()
    }

    /// Try to hand every ready task to a free worker. Dispatch is not
    /// instantaneous: the worker notices the task after half its poll
    /// period on average, plus the lock and dispatch costs.
    fn dispatch_all(&mut self, cluster: &mut Cluster, node: usize) {
        loop {
            if self.nodes[node].ready.is_empty() {
                return;
            }
            // Count workers not yet claimed by an in-flight dispatch.
            let free = self.nodes[node]
                .workers
                .iter()
                .filter(|w| w.busy.is_none() && !w.paused)
                .count();
            if free <= self.nodes[node].dispatching {
                return;
            }
            let task = self.nodes[node].ready.pop_front().expect("non-empty");
            let f = cluster.spec.light_freq_cap * 1e9;
            let half_poll = SimTime::from_secs_f64(0.5 * self.poll_period_cycles() / f);
            let lock = self.lock_delay(cluster, node);
            let dispatch = SimTime::from_secs_f64(DISPATCH_CYCLES / f);
            let delay = half_poll + lock + dispatch;
            telemetry::counter_add("rt.dispatches", 1);
            self.nodes[node].dispatching += 1;
            cluster.engine.after(
                delay,
                simcore::tag(
                    tags::ns::RUNTIME,
                    kind_index(node as u32 * 16 + KIND_DISPATCH, task.0),
                ),
            );
        }
    }

    /// Route a cluster event; see [`RtRouted`] for the possible outcomes.
    pub fn handle(&mut self, cluster: &mut Cluster, ev: ClusterEvent) -> RtRouted {
        match ev {
            ClusterEvent::JobDone { node, job, stats } => {
                let Some(pos) = self.nodes[node].job_map.iter().position(|(j, _)| *j == job) else {
                    return RtRouted::ForeignJob { node, job, stats };
                };
                let (_, task) = self.nodes[node].job_map.swap_remove(pos);
                // Free the worker and restart its polling.
                let core = stats.core;
                telemetry::end(
                    cluster.engine.now(),
                    "task",
                    Lane::Core {
                        node: node as u32,
                        core: core.0 as u16,
                    },
                );
                let mut workers = std::mem::take(&mut self.nodes[node].workers);
                for w in &mut workers {
                    if w.core == core {
                        w.busy = None;
                        if !w.paused {
                            cluster.set_activity(node, core, Activity::Light);
                            self.start_polling(cluster, node, w);
                        }
                    }
                }
                self.nodes[node].workers = workers;
                // Mark done, release dependents.
                {
                    let t = &mut self.nodes[node].tasks[task.0 as usize];
                    t.state = TaskState::Done;
                    t.stats = Some(stats.clone());
                }
                let dependents =
                    std::mem::take(&mut self.nodes[node].tasks[task.0 as usize].dependents);
                for d in dependents {
                    let dep = &mut self.nodes[node].tasks[d.0 as usize];
                    dep.remaining_deps -= 1;
                    if dep.remaining_deps == 0 && dep.state == TaskState::WaitingDeps {
                        dep.state = TaskState::Ready;
                        self.nodes[node].ready.push_back(d);
                    }
                }
                self.dispatch_all(cluster, node);
                RtRouted::TaskDone(TaskDone { node, task, stats })
            }
            ClusterEvent::Other(ev) if simcore::namespace(ev.tag()) == tags::ns::RUNTIME => {
                let (kind, idx) = split_kind_index(simcore::payload(ev.tag()));
                let node = (kind / 16) as usize;
                let k = kind % 16;
                if k == KIND_DISPATCH {
                    self.on_dispatch(cluster, node, TaskId(idx));
                    RtRouted::Consumed
                } else if k == KIND_DRIVER {
                    RtRouted::Driver { index: idx }
                } else {
                    RtRouted::Consumed
                }
            }
            other => RtRouted::Unhandled(other),
        }
    }

    fn on_dispatch(&mut self, cluster: &mut Cluster, node: usize, task: TaskId) {
        self.nodes[node].dispatching -= 1;
        let Some(wi) = self.nodes[node]
            .workers
            .iter()
            .position(|w| w.busy.is_none() && !w.paused)
        else {
            // Workers were paused since scheduling: requeue.
            self.nodes[node].ready.push_front(task);
            return;
        };
        let core = self.nodes[node].workers[wi].core;
        if let Some(flow) = self.nodes[node].workers[wi].poll_flow.take() {
            cluster.engine.cancel_flow(flow);
        }
        self.nodes[node].workers[wi].busy = Some(task);
        self.nodes[node].tasks[task.0 as usize].state = TaskState::Running;
        if telemetry::is_active() {
            telemetry::begin(
                cluster.engine.now(),
                "task",
                &format!("task{}", task.0),
                Lane::Core {
                    node: node as u32,
                    core: core.0 as u16,
                },
            );
        }
        let phases = self.nodes[node].tasks[task.0 as usize].phases.clone();
        let job = cluster.start_job(
            node,
            JobSpec {
                core,
                phases,
                iterations: 1,
            },
        );
        self.nodes[node].job_map.push((job, task));
    }
}

/// Outcome of [`Runtime::handle`].
#[derive(Debug)]
pub enum RtRouted {
    /// A runtime task finished.
    TaskDone(TaskDone),
    /// The event was a runtime-internal timer; nothing for the caller.
    Consumed,
    /// A driver-reserved timer (StarPU ping-pong pre/post overheads).
    Driver {
        /// Driver-defined index.
        index: u32,
    },
    /// A job completion not owned by the runtime (plain cluster job).
    ForeignJob {
        /// Node index.
        node: usize,
        /// Job handle.
        job: JobId,
        /// Stats.
        stats: JobStats,
    },
    /// Any other event (message completions…).
    Unhandled(ClusterEvent),
}

#[cfg(test)]
mod tests {
    use super::*;
    use freq::{Governor, License, UncorePolicy};
    use topology::{henri, BindingPolicy, Placement};

    fn cluster() -> Cluster {
        Cluster::new(
            &henri(),
            Governor::Userspace(2.3),
            UncorePolicy::Fixed(2.4),
            Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            },
        )
    }

    fn rt(cluster: &mut Cluster, workers: usize) -> Runtime {
        let mut r = Runtime::new(RuntimeConfig::for_machine(&cluster.spec));
        let cores: Vec<CoreId> = cluster.compute_cores()[..workers].to_vec();
        r.attach_workers(cluster, 0, &cores);
        r
    }

    fn phase(flops: f64, bytes: f64) -> Phase {
        Phase {
            flops,
            bytes,
            data: NumaId(0),
            license: License::Normal,
        }
    }

    fn drain(cluster: &mut Cluster, r: &mut Runtime) -> Vec<TaskDone> {
        let mut done = Vec::new();
        while r.pending_tasks(0) + r.pending_tasks(1) > 0 {
            let ev = cluster.step().expect("tasks pending but simulation dry");
            if let RtRouted::TaskDone(t) = r.handle(cluster, ev) {
                done.push(t);
            }
        }
        done
    }

    #[test]
    fn single_task_runs() {
        let mut c = cluster();
        let mut r = rt(&mut c, 2);
        let t = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e6, 0.0)],
                deps: vec![],
            },
        );
        let done = drain(&mut c, &mut r);
        assert_eq!(done.len(), 1);
        assert!(r.is_done(0, t));
        assert!(r.task_stats(0, t).is_some());
    }

    #[test]
    fn dependencies_respected() {
        let mut c = cluster();
        let mut r = rt(&mut c, 4);
        let a = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e7, 0.0)],
                deps: vec![],
            },
        );
        let b = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e6, 0.0)],
                deps: vec![a],
            },
        );
        let done = drain(&mut c, &mut r);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].task, a);
        assert_eq!(done[1].task, b);
    }

    #[test]
    fn diamond_graph() {
        let mut c = cluster();
        let mut r = rt(&mut c, 4);
        let a = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e6, 0.0)],
                deps: vec![],
            },
        );
        let b = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(2e6, 0.0)],
                deps: vec![a],
            },
        );
        let d = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e6, 0.0)],
                deps: vec![a],
            },
        );
        let e = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e6, 0.0)],
                deps: vec![b, d],
            },
        );
        let done = drain(&mut c, &mut r);
        assert_eq!(done.len(), 4);
        assert_eq!(done[0].task, a);
        assert_eq!(done.last().unwrap().task, e);
    }

    #[test]
    fn parallel_tasks_use_multiple_workers() {
        // 4 independent equal tasks on 4 workers finish in ~1 task time.
        let mut c = cluster();
        let mut r = rt(&mut c, 4);
        for _ in 0..4 {
            r.submit(
                &mut c,
                0,
                TaskSpec {
                    phases: vec![phase(9.2e7, 0.0)],
                    deps: vec![],
                },
            );
        }
        let _ = drain(&mut c, &mut r);
        let elapsed = c.engine.now().as_millis_f64();
        assert!(
            elapsed < 25.0,
            "elapsed {} ms — tasks did not run in parallel",
            elapsed
        );
    }

    #[test]
    fn more_tasks_than_workers_queue() {
        let mut c = cluster();
        let mut r = rt(&mut c, 2);
        for _ in 0..6 {
            r.submit(
                &mut c,
                0,
                TaskSpec {
                    phases: vec![phase(2.3e7, 0.0)],
                    deps: vec![],
                },
            );
        }
        let done = drain(&mut c, &mut r);
        assert_eq!(done.len(), 6);
        // 6 tasks over 2 workers ≈ 3 serial rounds.
        let elapsed = c.engine.now().as_millis_f64();
        assert!(
            elapsed > 6.0,
            "elapsed {} ms — queueing not respected",
            elapsed
        );
    }

    #[test]
    fn pollers_counted_and_paused() {
        let mut c = cluster();
        let mut r = rt(&mut c, 8);
        assert_eq!(r.pollers(0), 8);
        r.pause_workers(&mut c, 0);
        assert_eq!(r.pollers(0), 0);
        r.resume_workers(&mut c, 0);
        assert_eq!(r.pollers(0), 8);
    }

    #[test]
    fn lock_delay_orders_with_backoff() {
        let mk = |backoff: u32| {
            let mut c = cluster();
            let mut cfg = RuntimeConfig::for_machine(&c.spec);
            cfg.backoff_max_nops = backoff;
            let mut r = Runtime::new(cfg);
            let cores: Vec<CoreId> = c.compute_cores()[..16].to_vec();
            r.attach_workers(&mut c, 0, &cores);
            r.lock_delay(&c, 0)
        };
        let aggressive = mk(2);
        let default = mk(32);
        let lazy = mk(10_000);
        assert!(aggressive > default, "{:?} vs {:?}", aggressive, default);
        assert!(default > lazy);
        assert!(lazy < SimTime::from_nanos(100));
    }

    #[test]
    fn paused_workers_no_lock_delay() {
        let mut c = cluster();
        let mut r = rt(&mut c, 16);
        let before = r.lock_delay(&c, 0);
        r.pause_workers(&mut c, 0);
        let after = r.lock_delay(&c, 0);
        assert!(before > SimTime::ZERO);
        assert_eq!(after, SimTime::ZERO);
    }

    #[test]
    fn billy_style_locking_has_no_delay() {
        let mut c = Cluster::new(
            &topology::billy(),
            Governor::Userspace(2.5),
            UncorePolicy::Fixed(2.0),
            Placement {
                comm_thread: BindingPolicy::NearNic,
                data: BindingPolicy::NearNic,
            },
        );
        let mut r = Runtime::new(RuntimeConfig::for_machine(&c.spec));
        let cores: Vec<CoreId> = c.compute_cores()[..16].to_vec();
        r.attach_workers(&mut c, 0, &cores);
        assert_eq!(r.lock_delay(&c, 0), SimTime::ZERO);
    }

    #[test]
    fn memory_bound_task_records_stalls() {
        let mut c = cluster();
        let mut r = rt(&mut c, 9);
        for _ in 0..9 {
            r.submit(
                &mut c,
                0,
                TaskSpec {
                    phases: vec![phase(0.0, 1e9)],
                    deps: vec![],
                },
            );
        }
        let done = drain(&mut c, &mut r);
        assert_eq!(done.len(), 9);
        let mean_stall: f64 =
            done.iter().map(|d| d.stats.stall_fraction()).sum::<f64>() / done.len() as f64;
        assert!(mean_stall > 0.3, "stall {}", mean_stall);
    }

    #[test]
    fn submit_after_dep_done() {
        // Depending on an already-finished task must not deadlock.
        let mut c = cluster();
        let mut r = rt(&mut c, 2);
        let a = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e5, 0.0)],
                deps: vec![],
            },
        );
        let _ = drain(&mut c, &mut r);
        assert!(r.is_done(0, a));
        let b = r.submit(
            &mut c,
            0,
            TaskSpec {
                phases: vec![phase(1e5, 0.0)],
                deps: vec![a],
            },
        );
        let done = drain(&mut c, &mut r);
        assert_eq!(done.len(), 1);
        assert!(r.is_done(0, b));
    }
}
