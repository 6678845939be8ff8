//! The discrete-event engine: time, timers and fluid flows.
//!
//! Domain layers (memory system, NIC, runtime…) schedule **timers** (fixed
//! latencies: wire time, handshakes, governor ticks, polling backoff) and
//! start **flows** (bandwidth-shared transfers). The engine interleaves both
//! kinds of events in global time order and hands back completion events
//! tagged with opaque `u64` tags. Tags are namespaced per subsystem (high
//! bits identify the owner) so a single driver loop can dispatch them.
//!
//! # Per-instant work
//!
//! Most instants of a polling-heavy run change no rate: a timer fires, its
//! handler re-arms it, and every flow keeps its rate. Such an instant must
//! still advance every flow, but it need not scan the flows for the next
//! completion. The engine keeps a lower bound on every live flow's
//! `remaining / rate` quotient — the value the scan minimises. Each exact
//! scan sets it; each advance by `dt` lowers it by `dt` plus a margin that
//! covers the advance's rounding; each reallocation drops it. While the
//! earliest live timer is due no later than the instant the bound maps to,
//! no flow can complete first, so the timer is the target and the scan is
//! skipped. Debug builds re-run every skipped scan and assert that.

use std::collections::VecDeque;
use std::fmt;

use crate::cancel::{self, CancelToken};
use crate::fluid::{FlowId, FlowReport, FlowSpec, FluidNet, ResourceId};
use crate::queue::TimerQueue;
use crate::reference_paths::ReferencePaths;
use crate::telemetry::{self, Lane};
use crate::time::SimTime;

pub use crate::queue::TimerId;

/// A completion event returned by [`Engine::next`].
#[derive(Clone, Debug)]
pub enum Event {
    /// A timer fired.
    Timer {
        /// The tag it was scheduled with.
        tag: u64,
    },
    /// A flow transferred its whole volume.
    Flow {
        /// The tag it was started with.
        tag: u64,
        /// Timing/stall report.
        report: FlowReport,
    },
}

impl Event {
    /// The tag regardless of event kind.
    pub fn tag(&self) -> u64 {
        match self {
            Event::Timer { tag } => *tag,
            Event::Flow { tag, .. } => *tag,
        }
    }
}

/// What the event loop was still holding when it wedged. Attached to every
/// [`EngineError`] so a hung experiment reports *which* timers and flows were
/// outstanding instead of spinning or dying with a bare assert.
#[derive(Clone, Debug)]
pub struct StallDiagnostic {
    /// Simulated time at which the stall was detected.
    pub now: SimTime,
    /// Tags of timers still scheduled (cancelled ones excluded).
    pub pending_timer_tags: Vec<u64>,
    /// Active flows as `(tag, remaining_units, rate_units_per_s)`.
    pub pending_flows: Vec<(u64, f64, f64)>,
}

impl StallDiagnostic {
    /// True when nothing at all was outstanding.
    pub fn is_empty(&self) -> bool {
        self.pending_timer_tags.is_empty() && self.pending_flows.is_empty()
    }
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at t={:.6}s: {} pending timer(s), {} active flow(s)",
            self.now.as_secs_f64(),
            self.pending_timer_tags.len(),
            self.pending_flows.len()
        )?;
        for &tag in self.pending_timer_tags.iter().take(8) {
            write!(f, "; timer tag {:#x}", tag)?;
        }
        for &(tag, remaining, rate) in self.pending_flows.iter().take(8) {
            write!(
                f,
                "; flow tag {:#x} remaining {:.3e} rate {:.3e}",
                tag, remaining, rate
            )?;
        }
        Ok(())
    }
}

/// Why [`Engine::try_next`] could not produce an event.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// Flows are active but none can progress (e.g. all their resources have
    /// zero capacity) and no timer will ever unblock them: the model is
    /// deadlocked.
    Stalled(StallDiagnostic),
    /// The next event lies beyond the configured simulated-time budget
    /// ([`Engine::set_time_budget`]): the run is taking implausibly long,
    /// usually a sign of a lost completion or an unbounded retry loop.
    BudgetExceeded {
        /// The configured budget that was exceeded.
        budget: SimTime,
        /// What was still outstanding when the budget tripped.
        diagnostic: StallDiagnostic,
    },
    /// The run's [`CancelToken`] tripped (explicit cancellation or an
    /// expired wall-clock deadline): a supervisor asked the simulation to
    /// stop. Unlike the other variants this is not a model defect — the
    /// engine state is intact, merely abandoned.
    Cancelled {
        /// True when the tripped token carried a wall-clock deadline —
        /// i.e. this is (or at least could be) a timeout rather than a
        /// plain [`CancelToken::cancel`].
        deadline: bool,
        /// What was still outstanding when cancellation was observed.
        diagnostic: StallDiagnostic,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stalled(d) => {
                write!(f, "simulation deadlock: no event can make progress ({})", d)
            }
            EngineError::BudgetExceeded { budget, diagnostic } => write!(
                f,
                "simulated-time budget of {:.6}s exceeded ({})",
                budget.as_secs_f64(),
                diagnostic
            ),
            EngineError::Cancelled {
                deadline,
                diagnostic,
            } => write!(
                f,
                "run cancelled ({}; {})",
                if *deadline {
                    "wall-clock deadline exceeded"
                } else {
                    "token cancelled"
                },
                diagnostic
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The simulation engine. See module docs.
pub struct Engine {
    now: SimTime,
    /// The reference paths this engine (and its fluid net) took when built.
    paths: ReferencePaths,
    net: FluidNet,
    /// Timer queue. Cancelling a pending timer is O(1): the entry stays
    /// queued with a tombstone and is discarded when it surfaces, consuming
    /// the tombstone. Cancelling a timer that already fired is a no-op, so a
    /// drained queue holds no tombstones — asserted (debug builds) at
    /// quiescence and on drop.
    timers: TimerQueue,
    /// Same-instant event batch not yet handed out: all flow completions and
    /// due timers at one `SimTime` are drained here in one pass (flows first,
    /// then timers in schedule order) and popped from the front. The buffer's
    /// allocation is reused across instants.
    pending: VecDeque<Event>,
    /// Optional watchdog: `try_next` refuses to advance past this instant.
    budget: Option<SimTime>,
    /// Cooperative cancellation token, adopted from the ambient
    /// [`cancel`] installation at construction.
    cancel: Option<CancelToken>,
    /// Events delivered since the last wall-clock deadline check; the
    /// token flag itself is checked on every event.
    cancel_stride: u64,
    /// Lower bound on every live flow's `remaining / rate`, the quotient
    /// [`FluidNet::time_to_next_completion`] minimises; `+∞` when no flow
    /// has a positive rate, `None` when unknown (after a reallocation).
    /// See the module docs and DESIGN.md §13.6.
    flow_bound: Option<f64>,
    /// Exact next-completion scans run so far.
    scans: u64,
}

/// Where the next step of the event loop lands.
enum Next {
    /// The earliest event is due at this instant.
    At(SimTime),
    /// Nothing is left that can happen: no live timer, and no flow that
    /// can finish (or only "endless" flows whose completion horizon
    /// saturates `SimTime`).
    Dry,
    /// No live timer, and active flows none of which can ever progress.
    Stalled,
}

impl Engine {
    /// Create an empty engine at time zero on this thread's
    /// [`ReferencePaths`].
    pub fn new() -> Self {
        let paths = ReferencePaths::current();
        Engine {
            now: SimTime::ZERO,
            paths,
            net: FluidNet::new(),
            timers: TimerQueue::new(),
            pending: VecDeque::new(),
            budget: None,
            cancel: cancel::current(),
            cancel_stride: 0,
            flow_bound: None,
            scans: 0,
        }
    }

    /// The [`ReferencePaths`] this engine was built on.
    pub fn reference_paths(&self) -> ReferencePaths {
        self.paths
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    // ---- resources ----

    /// Add a resource with the given capacity (units/s).
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.net.add_resource(name, capacity)
    }

    /// Change a resource's capacity (frequency scaling).
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        self.net.set_capacity(r, capacity);
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.net.capacity(r)
    }

    /// Utilization of `r` under the current allocation, in [0,1].
    pub fn utilization(&mut self, r: ResourceId) -> f64 {
        self.refresh();
        self.net.utilization(r)
    }

    /// Offered demand on `r` (can exceed capacity under contention).
    pub fn demand(&mut self, r: ResourceId) -> f64 {
        self.refresh();
        self.net.demand(r)
    }

    /// Cumulative units delivered through `r` since the start of the run.
    pub fn delivered(&self, r: ResourceId) -> f64 {
        self.net.delivered(r)
    }

    /// Integral of utilization of `r` (seconds at 100 %).
    pub fn busy_integral(&self, r: ResourceId) -> f64 {
        self.net.busy_integral(r)
    }

    // ---- flows ----

    /// Start a bandwidth-shared flow.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.net.start_flow(spec)
    }

    /// Change a flow's rate cap (roofline bound moved with frequency).
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) {
        self.net.set_flow_cap(id, cap);
    }

    /// Rate cap of a live flow (`None` if the flow is gone).
    pub fn flow_cap(&self, id: FlowId) -> Option<Option<f64>> {
        self.net.flow_cap(id)
    }

    /// Cancel a flow before completion, returning its progress report.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<FlowReport> {
        self.net.cancel_flow(id)
    }

    /// Current rate of a flow (refreshing the allocation if needed).
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.refresh();
        self.net.flow_rate(id)
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.net.active_flows()
    }

    // ---- timers ----

    /// Schedule `tag` to fire after `delay`.
    pub fn after(&mut self, delay: SimTime, tag: u64) -> TimerId {
        self.at(self.now + delay, tag)
    }

    /// Schedule `tag` to fire at absolute time `deadline` (>= now).
    pub fn at(&mut self, deadline: SimTime, tag: u64) -> TimerId {
        debug_assert!(deadline >= self.now, "timer in the past");
        let id = self.timers.insert(deadline, tag);
        telemetry::counter_add("engine.queue.inserts", 1);
        id
    }

    /// Cancel a timer. Cancelling a timer that already fired, or was already
    /// cancelled, is a no-op; every call still counts in
    /// `engine.queue.cancels`.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.cancel(id);
        telemetry::counter_add("engine.queue.cancels", 1);
    }

    /// Re-solve the allocation if any flow/capacity mutation is pending.
    /// All same-instant mutations batch into this single reallocation, and
    /// the incremental solver only revisits the dirty components.
    fn refresh(&mut self) {
        if self.net.is_dirty() {
            // New rates void the completion bound.
            self.flow_bound = None;
            let stats = self.net.reallocate();
            telemetry::counter_add("fluid.reallocs", 1);
            if stats.components > 0 {
                telemetry::counter_add("fluid.components", stats.components);
                telemetry::counter_add("fluid.realloc_flows_visited", stats.flows_visited);
            }
            if stats.waterfill > 0 {
                telemetry::counter_add("fluid.waterfill", stats.waterfill);
            }
        }
    }

    /// Arm (or with `None` disarm) the simulated-time watchdog: once set,
    /// [`Engine::try_next`] returns [`EngineError::BudgetExceeded`] instead of
    /// advancing past `budget`. A run that legitimately needs more simulated
    /// time can raise the budget and continue.
    pub fn set_time_budget(&mut self, budget: Option<SimTime>) {
        self.budget = budget;
    }

    /// The cancellation token this engine adopted from the ambient
    /// [`cancel::scoped`] installation when it was built, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Poll the cancellation token: the tripped flag on every call, the
    /// wall clock only every [`cancel::DEADLINE_CHECK_STRIDE`] calls (the
    /// flag is an atomic load; the clock is a syscall).
    fn cancelled(&mut self) -> Option<bool> {
        let tok = self.cancel.as_ref()?;
        if tok.is_cancelled() {
            return Some(tok.has_deadline());
        }
        self.cancel_stride += 1;
        if self.cancel_stride >= cancel::DEADLINE_CHECK_STRIDE {
            self.cancel_stride = 0;
            if tok.check() {
                return Some(tok.has_deadline());
            }
        }
        None
    }

    /// Snapshot of everything still outstanding (for error reporting).
    /// Timer tags are listed in `(deadline, seq)` order, never in hash
    /// order (determinism policy, DESIGN.md §13.4).
    pub fn stall_diagnostic(&self) -> StallDiagnostic {
        let pending_timer_tags = self.timers.live_entries().iter().map(|e| e.tag).collect();
        StallDiagnostic {
            now: self.now,
            pending_timer_tags,
            pending_flows: self.net.flow_snapshots(),
        }
    }

    /// Advance to and return the next completion event, or `None` when the
    /// simulation has run dry (no timers, no active flows).
    ///
    /// Panics on a model deadlock; use [`Engine::try_next`] to get a typed
    /// [`EngineError`] with diagnostics instead.
    // Long-standing public API; the engine is deliberately not an Iterator
    // (stepping mutates shared resource state between calls).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Event> {
        match self.try_next() {
            Ok(ev) => ev,
            Err(e) => panic!("{}", e),
        }
    }

    /// Like [`Engine::next`], but surfaces wedged states as typed errors:
    /// a deadlock (active flows that can never progress) or a blown
    /// simulated-time budget both return `Err` with a [`StallDiagnostic`]
    /// naming the outstanding timers and flows. The engine state is left
    /// untouched on error, so callers can raise the budget and retry.
    pub fn try_next(&mut self) -> Result<Option<Event>, EngineError> {
        self.step(None)
    }

    /// The event loop behind [`Engine::try_next`] and [`Engine::run_until`].
    /// With a `limit` (never before `now`) it does not advance past it:
    /// once nothing is left due at or before `limit`, it advances the flows
    /// to `limit` and returns `Ok(None)` there, without a quiescence or
    /// deadlock verdict.
    fn step(&mut self, limit: Option<SimTime>) -> Result<Option<Event>, EngineError> {
        loop {
            // Cooperative cancellation: checked once per loop iteration so
            // both event delivery and the no-completion `continue` path
            // (capacity-change storms) observe a tripped token promptly.
            if let Some(deadline) = self.cancelled() {
                telemetry::instant(self.now, "engine", "cancelled", Lane::Engine);
                return Err(EngineError::Cancelled {
                    deadline,
                    diagnostic: self.stall_diagnostic(),
                });
            }
            // Drain the same-instant batch before touching the allocator:
            // all mutations made by handlers at this instant coalesce into
            // the single `refresh` below, one allocator pass per instant.
            if let Some(ev) = self.pending.pop_front() {
                telemetry::counter_add("engine.events", 1);
                return Ok(Some(ev));
            }
            self.refresh();

            // `due`: an event is due at `target` (rather than `target`
            // being the limit).
            let (target, due) = match (self.next_target(), limit) {
                (Next::At(t), Some(l)) if t > l => (l, false),
                (Next::At(t), _) => (t, true),
                (_, Some(l)) => (l, false),
                (Next::Dry, None) => {
                    self.assert_no_tombstones();
                    telemetry::instant(self.now, "engine", "quiesce", Lane::Engine);
                    return Ok(None);
                }
                // Flows exist but are all stalled (rate 0) and no timer
                // will change that: a deadlock in the model — surface it
                // loudly.
                (Next::Stalled, None) => {
                    return Err(EngineError::Stalled(self.stall_diagnostic()));
                }
            };
            if !due && target == self.now {
                return Ok(None);
            }

            if let Some(budget) = self.budget {
                if target > budget {
                    return Err(EngineError::BudgetExceeded {
                        budget,
                        diagnostic: self.stall_diagnostic(),
                    });
                }
            }

            self.advance_to(target);
            if self.pending.is_empty() {
                if !due {
                    return Ok(None);
                }
                // Nothing completed (capacity change rescheduling, or all
                // events cancelled) — loop again.
                continue;
            }
            telemetry::counter_add("engine.queue.batch_instants", 1);
        }
    }

    /// The instant of the next event: the earliest live timer or flow
    /// completion. The exact completion scan is skipped when the flow
    /// bound proves no flow completes before the earliest timer.
    fn next_target(&mut self) -> Next {
        // Earliest live timer; the queue lazily consumes tombstones of
        // cancelled entries as they surface.
        let timer = self.timers.peek_deadline();
        if let (Some(t), Some(b)) = (timer, self.flow_bound) {
            // Every quotient q >= b maps to an instant at or after
            // `completion_instant(b)` (the map is monotone), so a timer due
            // by then is the target whatever the scan would find.
            if b == f64::INFINITY || t <= self.completion_instant(b) {
                debug_assert!(
                    self.net
                        .time_to_next_completion()
                        .is_none_or(|dt| self.completion_instant(dt) >= t),
                    "flow bound {b} let a completion slip before the timer at {t:?}"
                );
                return Next::At(t);
            }
        }
        match (timer, self.scan_completions()) {
            // Only "endless" flows remain (background polling traffic
            // whose completion horizon saturates SimTime): the simulation
            // is effectively dry.
            (None, Some(f)) if f == SimTime::MAX => Next::Dry,
            (None, None) if self.net.active_flows() > 0 => Next::Stalled,
            (None, None) => Next::Dry,
            (Some(t), None) => Next::At(t),
            (None, Some(f)) => Next::At(f),
            (Some(t), Some(f)) => Next::At(t.min(f)),
        }
    }

    /// The exact next-completion scan: the instant of the earliest flow
    /// completion, if any flow has a positive rate. Resets the flow bound
    /// to the least quotient it saw (`+∞` for none; an overflowed quotient
    /// is held at `f64::MAX` so the bound stays finite and keeps lowering).
    fn scan_completions(&mut self) -> Option<SimTime> {
        self.scans += 1;
        let dt = self.net.time_to_next_completion();
        self.flow_bound = Some(dt.map_or(f64::INFINITY, |q| q.min(f64::MAX)));
        dt.map(|dt| self.completion_instant(dt))
    }

    /// The instant a completion `dt` seconds away lands on.
    fn completion_instant(&self, dt: f64) -> SimTime {
        // Guarantee progress: float residue can make `dt` round to zero
        // picoseconds, which would spin the loop forever.
        let step = SimTime::from_secs_f64(dt).max(SimTime::PS);
        self.now.checked_add(step).unwrap_or(SimTime::MAX)
    }

    /// Advance every flow to `target` and batch every event due there:
    /// flow completions first (in flow-id order, as `elapse` reports them),
    /// then all timers sharing the instant in `(deadline, seq)` schedule
    /// order, into the reusable buffer.
    fn advance_to(&mut self, target: SimTime) {
        let dt = (target - self.now).as_secs_f64();
        let done = self.net.elapse(dt);
        // Each quotient q becomes at least (q - dt) less the rounding of the
        // decrement and the divide, at most 3·2⁻⁵³·(q + dt); the margin is
        // some 3000 times that. Flows that finished only raise the minimum.
        if let Some(b) = self.flow_bound.as_mut() {
            if b.is_finite() {
                *b = (*b - dt) - 1e-12 * (b.abs() + dt);
            }
        }
        self.now = target;
        for rep in done {
            self.pending.push_back(Event::Flow {
                tag: rep.tag,
                report: rep,
            });
        }
        while let Some(d) = self.timers.peek_deadline() {
            if d > self.now {
                break;
            }
            let e = self.timers.pop().expect("peeked a live entry");
            self.pending.push_back(Event::Timer { tag: e.tag });
        }
    }

    /// Quiescence invariant (debug builds): a fully-drained queue holds no
    /// tombstones, because the queue only tombstones entries it still stores.
    fn assert_no_tombstones(&self) {
        let q = &self.timers;
        debug_assert!(
            q.stored_len() > 0 || q.outstanding_tombstones() == 0,
            "timer tombstone leaked: {} left in a drained queue",
            q.outstanding_tombstones()
        );
    }

    /// Run until dry, invoking `handler` for each event. The handler gets
    /// `&mut Engine` to schedule follow-up work.
    pub fn run<F: FnMut(&mut Engine, Event)>(&mut self, mut handler: F) {
        while let Some(ev) = self.next() {
            handler(self, ev);
        }
    }

    /// Fallible [`Engine::run`]: stops with the [`EngineError`] if the loop
    /// wedges instead of panicking.
    pub fn try_run<F: FnMut(&mut Engine, Event)>(
        &mut self,
        mut handler: F,
    ) -> Result<(), EngineError> {
        while let Some(ev) = self.try_next()? {
            handler(self, ev);
        }
        Ok(())
    }

    /// Run until the given deadline (events at exactly `deadline` included,
    /// also those handlers schedule there), then advance every flow to the
    /// deadline. A deadline already in the past delivers nothing and leaves
    /// `now` unchanged.
    ///
    /// Panics where [`Engine::next`] would.
    pub fn run_until<F: FnMut(&mut Engine, Event)>(&mut self, deadline: SimTime, mut handler: F) {
        if deadline < self.now {
            return;
        }
        loop {
            match self.step(Some(deadline)) {
                Ok(Some(ev)) => handler(self, ev),
                Ok(None) => break,
                Err(e) => panic!("{}", e),
            }
        }
        debug_assert_eq!(self.now, deadline);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Drop for Engine {
    /// When a recorder is installed, dropping an engine that advanced past
    /// t=0 records the whole run as one "engine.run" span — every simulation
    /// (protocol step, pingpong rep…) shows up on the engine lane without any
    /// driver cooperation.
    fn drop(&mut self) {
        // A drained queue must hold no tombstones (see assert_no_tombstones);
        // engines dropped mid-run (budget trip, cancellation) still hold
        // entries and are exempt. Skipped while unwinding to not mask the
        // original panic with a double panic.
        if !std::thread::panicking() {
            self.assert_no_tombstones();
        }
        if self.now > SimTime::ZERO {
            telemetry::complete(SimTime::ZERO, self.now, "engine", "run", Lane::Engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_fire_in_order() {
        let mut e = Engine::new();
        e.after(SimTime::from_micros(5), 5);
        e.after(SimTime::from_micros(1), 1);
        e.after(SimTime::from_micros(3), 3);
        let mut seen = Vec::new();
        e.run(|eng, ev| {
            seen.push((eng.now().as_micros_f64().round() as u64, ev.tag()));
        });
        assert_eq!(seen, vec![(1, 1), (3, 3), (5, 5)]);
    }

    #[test]
    fn same_instant_timers_fifo() {
        let mut e = Engine::new();
        e.after(SimTime::from_micros(1), 10);
        e.after(SimTime::from_micros(1), 20);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![10, 20]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut e = Engine::new();
        let id = e.after(SimTime::from_micros(1), 1);
        e.after(SimTime::from_micros(2), 2);
        e.cancel_timer(id);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn flow_completion_time() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 100.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 250.0,
            weight: 1.0,
            cap: None,
            tag: 7,
        });
        let ev = e.next().expect("one event");
        assert_eq!(ev.tag(), 7);
        assert!((e.now().as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn flow_and_timer_interleave() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 1.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 2.0,
            weight: 1.0,
            cap: None,
            tag: 100,
        });
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 3, 3);
        let mut seen = Vec::new();
        e.run(|eng, ev| seen.push((eng.now().as_secs_f64().round() as u64, ev.tag())));
        assert_eq!(seen, vec![(1, 1), (2, 100), (3, 3)]);
    }

    #[test]
    fn capacity_change_mid_flow() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 10.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 100.0,
            weight: 1.0,
            cap: None,
            tag: 1,
        });
        // At t=1s halve the capacity.
        e.after(SimTime::SEC, 99);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), 99);
        e.set_capacity(r, 5.0);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), 1);
        // 10 units in first second, remaining 90 at 5/s = 18 s. Total 19 s.
        assert!((e.now().as_secs_f64() - 19.0).abs() < 1e-6);
    }

    #[test]
    fn flows_before_timers_at_same_instant() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 1.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 1.0,
            weight: 1.0,
            cap: None,
            tag: 100,
        });
        e.after(SimTime::SEC, 1);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![100, 1]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 5, 5);
        let mut seen = Vec::new();
        e.run_until(SimTime::SEC * 2, |_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![1]);
        assert_eq!(e.now(), SimTime::SEC * 2);
        // The later timer still fires afterwards.
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), 5);
    }

    #[test]
    fn run_until_a_past_deadline_delivers_nothing() {
        let mut e = Engine::new();
        e.after(SimTime::SEC * 3, 3);
        e.run_until(SimTime::SEC * 2, |_, _| {});
        let mut seen = Vec::new();
        e.run_until(SimTime::SEC, |_, ev| seen.push(ev.tag()));
        assert!(seen.is_empty());
        assert_eq!(e.now(), SimTime::SEC * 2);
        // The pending timer is untouched.
        assert_eq!(e.next().map(|ev| ev.tag()), Some(3));
        assert_eq!(e.now(), SimTime::SEC * 3);
    }

    #[test]
    fn run_until_delivers_an_event_due_at_the_deadline_and_leaves_nothing_queued() {
        let mut e = Engine::new();
        e.after(SimTime::SEC * 2, 2);
        e.after(SimTime::SEC * 5, 5);
        let mut seen = Vec::new();
        e.run_until(SimTime::SEC * 2, |eng, ev| seen.push((eng.now(), ev.tag())));
        assert_eq!(seen, vec![(SimTime::SEC * 2, 2)]);
        assert_eq!(e.now(), SimTime::SEC * 2);
        // The next event is the later timer, not a leftover stop marker.
        assert_eq!(e.next().map(|ev| ev.tag()), Some(5));
        assert_eq!(e.now(), SimTime::SEC * 5);
        assert!(e.next().is_none());
    }

    #[test]
    fn run_until_delivers_timers_handlers_schedule_at_the_deadline() {
        let mut e = Engine::new();
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 2, 2);
        let mut seen = Vec::new();
        e.run_until(SimTime::SEC * 2, |eng, ev| {
            seen.push((eng.now(), ev.tag()));
            match ev.tag() {
                // Before the deadline, for the deadline.
                1 => {
                    eng.at(SimTime::SEC * 2, 10);
                }
                // At the deadline, for the same instant.
                2 => {
                    eng.after(SimTime::ZERO, 20);
                }
                _ => {}
            }
        });
        let at = SimTime::SEC * 2;
        assert_eq!(seen, vec![(SimTime::SEC, 1), (at, 2), (at, 10), (at, 20)]);
        assert!(e.next().is_none());
        assert_eq!(e.now(), at);
    }

    #[test]
    fn run_until_advances_flows_to_the_deadline() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 10.0);
        let spec = |volume, tag| FlowSpec {
            path: vec![r],
            volume,
            weight: 1.0,
            cap: None,
            tag,
        };
        let long = e.start_flow(spec(100.0, 1));
        e.start_flow(spec(10.0, 2));
        let mut seen = Vec::new();
        // The short flow finishes at 2 s (5 units/s each); the long one
        // then runs alone at 10 units/s.
        e.run_until(SimTime::SEC * 3, |eng, ev| seen.push((eng.now(), ev.tag())));
        assert_eq!(seen, vec![(SimTime::SEC * 2, 2)]);
        assert_eq!(e.now(), SimTime::SEC * 3);
        assert!((e.delivered(r) - 30.0).abs() < 1e-9);
        let rep = e.cancel_flow(long).expect("still running");
        assert!((rep.remaining - 80.0).abs() < 1e-9, "{}", rep.remaining);
        assert!((rep.elapsed - 3.0).abs() < 1e-12);
    }

    /// Polling-heavy runs change no rate on most instants: 64 flows share
    /// one resource, each polled every 10 µs until it completes. Only the
    /// instants near a completion may pay for the exact scan.
    #[test]
    fn poll_instants_skip_the_completion_scan() {
        const POLL_TAG: u64 = 1 << 32;
        let mut e = Engine::new();
        let r = e.add_resource("fabric", 64e9);
        for i in 0..64u64 {
            e.start_flow(FlowSpec {
                path: vec![r],
                volume: 1e6 * (1.0 + i as f64 / 8.0),
                weight: 1.0,
                cap: None,
                tag: i,
            });
            // Distinct phases, so most instants hold a single timer.
            e.after(SimTime::from_micros(10) + SimTime(i * 97_003), POLL_TAG + i);
        }
        let mut live = [true; 64];
        let mut instants = 0u64;
        let mut completion_instants = 0u64;
        let (mut last, mut last_completion) = (None, None);
        e.run(|eng, ev| {
            let now = eng.now();
            if last != Some(now) {
                last = Some(now);
                instants += 1;
            }
            match ev {
                Event::Flow { tag, .. } => {
                    live[tag as usize] = false;
                    if last_completion != Some(now) {
                        last_completion = Some(now);
                        completion_instants += 1;
                    }
                }
                Event::Timer { tag } => {
                    if live[(tag - POLL_TAG) as usize] {
                        eng.after(SimTime::from_micros(10), tag);
                    }
                }
            }
        });
        assert!(live.iter().all(|&l| !l));
        // One reallocation up front, then one per completion instant.
        let reallocs = 1 + completion_instants;
        assert!(
            e.scans <= 3 * reallocs,
            "{} exact scans for {} reallocations",
            e.scans,
            reallocs
        );
        assert!(
            e.scans * 20 < instants,
            "{} exact scans over {} instants",
            e.scans,
            instants
        );
    }

    #[test]
    fn dry_run_returns_none() {
        let mut e = Engine::new();
        assert!(e.next().is_none());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn stalled_flow_is_a_deadlock() {
        let mut e = Engine::new();
        let r = e.add_resource("off", 0.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 1.0,
            weight: 1.0,
            cap: None,
            tag: 1,
        });
        let _ = e.next();
    }

    #[test]
    fn stalled_flow_yields_typed_error_with_diagnostic() {
        // A transfer that can never complete: its only resource has zero
        // capacity and no timer will ever change that.
        let mut e = Engine::new();
        let r = e.add_resource("off", 0.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 42.0,
            weight: 1.0,
            cap: None,
            tag: 0xBEEF,
        });
        let err = e.try_next().expect_err("must not hang or succeed");
        match &err {
            EngineError::Stalled(d) => {
                assert!(!d.is_empty(), "diagnostic must name pending work");
                assert_eq!(d.pending_flows.len(), 1);
                let (tag, remaining, rate) = d.pending_flows[0];
                assert_eq!(tag, 0xBEEF);
                assert_eq!(remaining, 42.0);
                assert_eq!(rate, 0.0);
            }
            other => panic!("expected Stalled, got {:?}", other),
        }
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{}", msg);
        assert!(msg.contains("0xbeef"), "{}", msg);
        // The error is stable: asking again reports the same stall rather
        // than looping forever.
        assert!(matches!(e.try_next(), Err(EngineError::Stalled(_))));
    }

    #[test]
    fn time_budget_trips_with_diagnostic() {
        let mut e = Engine::new();
        e.set_time_budget(Some(SimTime::SEC));
        e.after(SimTime::from_micros(10), 1);
        e.after(SimTime::SEC * 10, 0xDEAD);
        // The early timer is within budget.
        assert_eq!(e.try_next().unwrap().unwrap().tag(), 1);
        // The late one trips the watchdog without advancing time.
        let err = e.try_next().expect_err("beyond budget");
        match &err {
            EngineError::BudgetExceeded { budget, diagnostic } => {
                assert_eq!(*budget, SimTime::SEC);
                assert_eq!(diagnostic.pending_timer_tags, vec![0xDEAD]);
            }
            other => panic!("expected BudgetExceeded, got {:?}", other),
        }
        assert_eq!(e.now(), SimTime::from_micros(10));
        // Raising the budget lets the run continue.
        e.set_time_budget(Some(SimTime::SEC * 20));
        assert_eq!(e.try_next().unwrap().unwrap().tag(), 0xDEAD);
        assert!(e.try_next().unwrap().is_none());
    }

    #[test]
    fn try_run_reports_wedge() {
        let mut e = Engine::new();
        let r = e.add_resource("off", 0.0);
        // A timer fires first, then the stalled flow wedges the loop.
        e.after(SimTime::from_micros(1), 7);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 1.0,
            weight: 1.0,
            cap: None,
            tag: 8,
        });
        let mut seen = Vec::new();
        let err = e.try_run(|_, ev| seen.push(ev.tag())).unwrap_err();
        assert_eq!(seen, vec![7]);
        assert!(matches!(err, EngineError::Stalled(_)));
    }

    /// A simulation that never quiesces: every fired timer schedules the
    /// next one. Without cancellation this loops until process death.
    fn wedge_forever(e: &mut Engine) -> Result<(), EngineError> {
        e.after(SimTime::PS, 1);
        loop {
            match e.try_next()? {
                Some(_) => {
                    e.after(SimTime::PS, 1);
                }
                None => unreachable!("the timer storm never runs dry"),
            }
        }
    }

    #[test]
    fn cancelled_token_stops_a_timer_storm() {
        let tok = CancelToken::new();
        let mut e = cancel::scoped(tok.clone(), Engine::new);
        tok.cancel();
        let err = wedge_forever(&mut e).expect_err("must stop");
        match err {
            EngineError::Cancelled {
                deadline,
                diagnostic,
            } => {
                assert!(!deadline, "explicit cancel, no deadline armed");
                // The storm's next timer is still outstanding.
                assert_eq!(diagnostic.pending_timer_tags, vec![1]);
            }
            other => panic!("expected Cancelled, got {:?}", other),
        }
        // The error is stable on re-poll, like a stall.
        assert!(matches!(e.try_next(), Err(EngineError::Cancelled { .. })));
    }

    #[test]
    fn deadline_token_times_out_a_timer_storm() {
        let tok = CancelToken::with_deadline(std::time::Duration::from_millis(20));
        let mut e = cancel::scoped(tok, Engine::new);
        let err = wedge_forever(&mut e).expect_err("deadline must trip");
        match err {
            EngineError::Cancelled { deadline, .. } => assert!(deadline),
            other => panic!("expected Cancelled, got {:?}", other),
        }
        let msg = e.try_next().unwrap_err().to_string();
        assert!(msg.contains("deadline"), "{}", msg);
    }

    #[test]
    fn ambient_token_is_adopted_at_construction() {
        let tok = CancelToken::new();
        let e = crate::cancel::scoped(tok.clone(), Engine::new);
        assert!(e.cancel_token().is_some(), "engine adopted ambient token");
        // Outside the scope, fresh engines carry no token.
        let plain = Engine::new();
        assert!(plain.cancel_token().is_none());
        // The adopted token is the same shared state.
        tok.cancel();
        assert!(e.cancel_token().unwrap().is_cancelled());
    }

    #[test]
    fn healthy_run_ignores_an_armed_token() {
        let tok = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let mut e = cancel::scoped(tok, Engine::new);
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 2, 2);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn simultaneous_flow_completions_all_delivered() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 10.0);
        for tag in 0..3 {
            e.start_flow(FlowSpec {
                path: vec![r],
                volume: 30.0,
                weight: 1.0,
                cap: None,
                tag,
            });
        }
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        // 3 flows × 30 units over 10 units/s aggregate = 9 s.
        assert!((e.now().as_secs_f64() - 9.0).abs() < 1e-9);
    }
}
