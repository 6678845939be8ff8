//! The engine against a model of its instants.
//!
//! `simcore::Engine` skips the exact next-completion scan whenever a lower
//! bound on every flow's `remaining / rate` proves the earliest timer comes
//! first, advances flows over whole slab columns, and integrates resources
//! from cached utilization columns. This suite holds all of that to a model
//! that does none of it. At every instant the model scans every flow for the
//! next completion. It keeps its own copy of each flow's remaining volume,
//! elapsed time and stalled time, and of each resource's delivered units and
//! busy integral, advanced one flow and one resource at a time with the
//! plain per-flow arithmetic. It takes rates from a `FluidNet` of its own,
//! mirrored mutation for mutation and read through `flow_rate` and
//! `allocated`; it never calls `elapse`.
//!
//! Random scripts drive both: 2–6 resources; flows with 1–3-resource paths,
//! weights and optional caps; timer bursts at equal deadlines and within
//! 1 ps of a completion; poll chains that re-arm a timer many times per
//! completion; timer cancels (stale ones included) and flow cancels; and
//! capacity, cap and rate reads made from handlers. Every event's kind, tag
//! and instant, every `FlowReport` field, every rate read and every
//! resource integral must match bit for bit. Case count honours
//! `PROPTEST_CASES` (CI runs 512; the nightly long fuzz 4096).

use std::collections::{BTreeMap, HashMap, VecDeque};

use proptest::prelude::*;
use simcore::{
    Engine, EngineError, Event, FlowId, FlowReport, FlowSpec, FluidNet, ResourceId, SimTime,
    TimerId,
};

/// Stop comparing after this many events (scripts normally drain sooner).
const MAX_EVENTS: usize = 20_000;

/// A flow to start: path as resource indices, duplicates allowed.
#[derive(Clone, Debug)]
struct FlowGen {
    path: Vec<usize>,
    volume: f64,
    weight: f64,
    cap: Option<f64>,
}

/// What a handler does after an event; each delivered event takes the
/// script's next action until the script runs out.
#[derive(Clone, Debug)]
enum Act {
    Start(FlowGen),
    /// `count` timers, all due `delay_ps` from now.
    Burst {
        count: usize,
        delay_ps: u64,
    },
    /// `count` timers due `offset` ps from the next flow completion.
    NearCompletion {
        offset: i64,
        count: usize,
    },
    /// A timer that re-arms itself `reps` times, every `period_ps`.
    Poll {
        period_ps: u64,
        reps: u32,
    },
    /// Cancel the n-th timer ever scheduled (it may have fired already).
    CancelTimer(usize),
    /// Cancel the n-th live flow.
    CancelFlow(usize),
    Capacity {
        resource: usize,
        capacity: f64,
    },
    /// Set (or clear) the n-th live flow's cap.
    Cap {
        flow: usize,
        cap: Option<f64>,
    },
    /// Read the n-th live flow's rate from inside the handler.
    ReadRate(usize),
}

#[derive(Clone, Debug)]
struct Script {
    capacities: Vec<f64>,
    flows: Vec<FlowGen>,
    /// First timers, as delays from time zero.
    timers: Vec<u64>,
    acts: Vec<Act>,
}

/// Capacities in units/s; now and then a resource that is switched off.
fn capacity() -> impl Strategy<Value = f64> {
    prop_oneof![
        1e8f64..2e9,
        1e8f64..2e9,
        1e8f64..2e9,
        prop_oneof![Just(1e9), Just(5e8)],
        Just(0.0),
    ]
}

fn flow_gen(nres: usize) -> impl Strategy<Value = FlowGen> {
    (
        prop::collection::vec(0..nres, 1..=3),
        prop_oneof![1e3f64..1e6, 1e3f64..1e6, 1e3f64..1e6, Just(1e-7)],
        prop_oneof![Just(1.0), 0.25f64..4.0],
        prop::option::of(prop_oneof![5e7f64..1.5e9, Just(1e9)]),
    )
        .prop_map(|(path, volume, weight, cap)| FlowGen {
            path,
            volume,
            weight,
            cap,
        })
}

/// Delays from equal deadlines and picosecond neighbours up to ~100 µs.
fn delay_ps() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..4,
        1u64..1_000_000,
        1_000_000u64..100_000_000
    ]
}

fn act(nres: usize) -> impl Strategy<Value = Act> {
    prop_oneof![
        flow_gen(nres).prop_map(Act::Start).boxed(),
        flow_gen(nres).prop_map(Act::Start).boxed(),
        (1usize..=4, delay_ps())
            .prop_map(|(count, delay_ps)| Act::Burst { count, delay_ps })
            .boxed(),
        (-1i64..=1, 1usize..=3)
            .prop_map(|(offset, count)| Act::NearCompletion { offset, count })
            .boxed(),
        (100_000u64..20_000_000, 1u32..200)
            .prop_map(|(period_ps, reps)| Act::Poll { period_ps, reps })
            .boxed(),
        (100_000u64..20_000_000, 1u32..200)
            .prop_map(|(period_ps, reps)| Act::Poll { period_ps, reps })
            .boxed(),
        (0usize..64).prop_map(Act::CancelTimer).boxed(),
        (0usize..64).prop_map(Act::CancelFlow).boxed(),
        (0..nres, capacity())
            .prop_map(|(resource, capacity)| Act::Capacity { resource, capacity })
            .boxed(),
        (0usize..64, prop::option::of(5e7f64..1.5e9))
            .prop_map(|(flow, cap)| Act::Cap { flow, cap })
            .boxed(),
        (0usize..64).prop_map(Act::ReadRate).boxed(),
    ]
}

fn script() -> impl Strategy<Value = Script> {
    (2usize..=6).prop_flat_map(|nres| {
        (
            prop::collection::vec(capacity(), nres),
            prop::collection::vec(flow_gen(nres), 1..8),
            prop::collection::vec(delay_ps(), 0..4),
            prop::collection::vec(act(nres), 0..64),
        )
            .prop_map(|(capacities, flows, timers, acts)| Script {
                capacities,
                flows,
                timers,
                acts,
            })
    })
}

/// An event as compared: flow reports by their bits.
#[derive(Debug, PartialEq)]
enum Ev {
    Timer(u64),
    Flow([u64; 4]),
}

fn report_bits(r: &FlowReport) -> [u64; 4] {
    [
        r.tag,
        r.elapsed.to_bits(),
        r.stalled.to_bits(),
        r.remaining.to_bits(),
    ]
}

impl From<Event> for Ev {
    fn from(e: Event) -> Ev {
        match e {
            Event::Timer { tag } => Ev::Timer(tag),
            Event::Flow { report, .. } => Ev::Flow(report_bits(&report)),
        }
    }
}

struct MFlow {
    tag: u64,
    remaining: f64,
    elapsed: f64,
    stalled: f64,
    cap: Option<f64>,
}

impl MFlow {
    fn report(&self) -> FlowReport {
        FlowReport {
            tag: self.tag,
            elapsed: self.elapsed,
            stalled: self.stalled,
            remaining: self.remaining,
        }
    }
}

/// The engine as it ran before the skip: one exact completion scan and one
/// flow-by-flow, resource-by-resource advance per instant.
struct Model {
    now: SimTime,
    /// Rate oracle only: mirrored mutations, never advanced.
    net: FluidNet,
    resources: Vec<ResourceId>,
    delivered: Vec<f64>,
    busy: Vec<f64>,
    /// Live flows in id order.
    flows: BTreeMap<FlowId, MFlow>,
    /// Live timers in `(deadline, seq)` order.
    timers: BTreeMap<(SimTime, u64), u64>,
    seq: u64,
    pending: VecDeque<Ev>,
}

/// The model's verdict when nothing is due.
#[derive(Debug, PartialEq)]
enum End {
    Dry,
    Stalled,
}

impl Model {
    fn new() -> Model {
        Model {
            now: SimTime::ZERO,
            net: FluidNet::new(),
            resources: Vec::new(),
            delivered: Vec::new(),
            busy: Vec::new(),
            flows: BTreeMap::new(),
            timers: BTreeMap::new(),
            seq: 0,
            pending: VecDeque::new(),
        }
    }

    fn add_resource(&mut self, capacity: f64) -> ResourceId {
        let r = self.net.add_resource("r", capacity);
        self.resources.push(r);
        self.delivered.push(0.0);
        self.busy.push(0.0);
        r
    }

    fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        let (tag, remaining, cap) = (spec.tag, spec.volume, spec.cap);
        let id = self.net.start_flow(spec);
        let f = MFlow {
            tag,
            remaining,
            elapsed: 0.0,
            stalled: 0.0,
            cap,
        };
        self.flows.insert(id, f);
        id
    }

    fn at(&mut self, deadline: SimTime, tag: u64) -> (SimTime, u64) {
        self.seq += 1;
        self.timers.insert((deadline, self.seq), tag);
        (deadline, self.seq)
    }

    fn cancel_flow(&mut self, id: FlowId) -> Option<FlowReport> {
        let f = self.flows.remove(&id)?;
        self.net.cancel_flow(id);
        Some(f.report())
    }

    fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) {
        self.net.set_flow_cap(id, cap);
        if let Some(f) = self.flows.get_mut(&id) {
            f.cap = cap;
        }
    }

    fn rate(&mut self, id: FlowId) -> Option<f64> {
        if self.net.is_dirty() {
            self.net.reallocate();
        }
        self.net.flow_rate(id)
    }

    /// The exact scan: each live flow's rate, and the instant of the
    /// earliest completion.
    fn scan(&mut self) -> (Vec<f64>, Option<SimTime>) {
        if self.net.is_dirty() {
            self.net.reallocate();
        }
        let rates: Vec<f64> = self
            .flows
            .keys()
            .map(|&id| self.net.flow_rate(id).expect("live"))
            .collect();
        let dt = self
            .flows
            .values()
            .zip(&rates)
            .filter(|&(_, &rate)| rate > 0.0)
            .map(|(f, &rate)| f.remaining / rate)
            .min_by(|a, b| a.partial_cmp(b).expect("finite"));
        let due = dt.map(|dt| {
            let step = SimTime::from_secs_f64(dt).max(SimTime::PS);
            self.now.checked_add(step).unwrap_or(SimTime::MAX)
        });
        (rates, due)
    }

    fn next(&mut self) -> Result<Ev, End> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(ev);
            }
            let (rates, flow_due) = self.scan();
            let timer = self.timers.keys().next().map(|&(d, _)| d);
            let target = match (timer, flow_due) {
                (None, Some(f)) if f == SimTime::MAX => return Err(End::Dry),
                (None, None) if !self.flows.is_empty() => return Err(End::Stalled),
                (None, None) => return Err(End::Dry),
                (Some(t), None) => t,
                (None, Some(f)) => f,
                (Some(t), Some(f)) => t.min(f),
            };
            let dt = (target - self.now).as_secs_f64();
            if dt > 0.0 {
                for (i, &r) in self.resources.iter().enumerate() {
                    let (alloc, cap) = (self.net.allocated(r), self.net.capacity(r));
                    self.delivered[i] += alloc * dt;
                    if cap > 0.0 {
                        self.busy[i] += (alloc / cap).min(1.0) * dt;
                    } else if alloc > 0.0 {
                        self.busy[i] += dt;
                    }
                }
            }
            let mut finished = Vec::new();
            for ((&id, f), &rate) in self.flows.iter_mut().zip(&rates) {
                f.elapsed += dt;
                if let Some(c) = f.cap {
                    if rate < c * (1.0 - 1e-9) {
                        f.stalled += dt * (1.0 - rate / c).clamp(0.0, 1.0);
                    }
                }
                f.remaining -= rate * dt;
                if f.remaining <= 1e-6 {
                    finished.push(id);
                }
            }
            self.now = target;
            for id in finished {
                let mut rep = self.cancel_flow(id).expect("live");
                rep.remaining = 0.0;
                self.pending.push_back(Ev::Flow(report_bits(&rep)));
            }
            while let Some(e) = self.timers.first_entry() {
                if e.key().0 > self.now {
                    break;
                }
                self.pending.push_back(Ev::Timer(e.remove()));
            }
        }
    }
}

/// Engine and model side by side, with the handles the script refers to.
struct Pair {
    eng: Engine,
    model: Model,
    res: Vec<(ResourceId, ResourceId)>,
    /// Every timer ever scheduled: (engine id, model key).
    timers: Vec<(TimerId, (SimTime, u64))>,
    /// Live flows: (engine id, model id, tag).
    flows: Vec<(FlowId, FlowId, u64)>,
    /// Poll timers still to re-arm: tag → (period, re-arms left).
    polls: HashMap<u64, (u64, u32)>,
    next_tag: u64,
}

impl Pair {
    fn new(capacities: &[f64]) -> Pair {
        let mut p = Pair {
            eng: Engine::new(),
            model: Model::new(),
            res: Vec::new(),
            timers: Vec::new(),
            flows: Vec::new(),
            polls: HashMap::new(),
            next_tag: 0,
        };
        for &c in capacities {
            let e = p.eng.add_resource("r", c);
            let m = p.model.add_resource(c);
            p.res.push((e, m));
        }
        p
    }

    fn tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    fn start(&mut self, g: &FlowGen) {
        let tag = self.tag();
        let spec = |pick: fn(&(ResourceId, ResourceId)) -> ResourceId| FlowSpec {
            path: g.path.iter().map(|&i| pick(&self.res[i])).collect(),
            volume: g.volume,
            weight: g.weight,
            cap: g.cap,
            tag,
        };
        let (es, ms) = (spec(|r| r.0), spec(|r| r.1));
        let e = self.eng.start_flow(es);
        let m = self.model.start_flow(ms);
        self.flows.push((e, m, tag));
    }

    fn at(&mut self, deadline: SimTime) -> u64 {
        let tag = self.tag();
        let e = self.eng.at(deadline, tag);
        let m = self.model.at(deadline, tag);
        self.timers.push((e, m));
        tag
    }

    fn poll(&mut self, period_ps: u64, reps: u32) {
        let tag = self.at(self.model.now + SimTime(period_ps));
        self.polls.insert(tag, (period_ps, reps));
    }

    /// Apply one script action to both sides.
    fn act(&mut self, a: &Act) -> Result<(), TestCaseError> {
        let now = self.model.now;
        match *a {
            Act::Start(ref g) => self.start(g),
            Act::Burst { count, delay_ps } => {
                for _ in 0..count {
                    self.at(now + SimTime(delay_ps));
                }
            }
            Act::NearCompletion { offset, count } => {
                if let (_, Some(due)) = self.model.scan() {
                    let d = SimTime(due.0.saturating_add_signed(offset)).max(now);
                    for _ in 0..count {
                        self.at(d);
                    }
                }
            }
            Act::Poll { period_ps, reps } => self.poll(period_ps, reps),
            Act::CancelTimer(n) => {
                if !self.timers.is_empty() {
                    let (e, m) = self.timers[n % self.timers.len()];
                    self.eng.cancel_timer(e);
                    self.model.timers.remove(&m);
                }
            }
            Act::CancelFlow(n) => {
                if !self.flows.is_empty() {
                    let (e, m, _) = self.flows.remove(n % self.flows.len());
                    let got = self.eng.cancel_flow(e).map(|r| report_bits(&r));
                    let want = self.model.cancel_flow(m).map(|r| report_bits(&r));
                    prop_assert_eq!(got, want, "cancel report at {:?}", now);
                }
            }
            Act::Capacity { resource, capacity } => {
                let (e, m) = self.res[resource];
                self.eng.set_capacity(e, capacity);
                self.model.net.set_capacity(m, capacity);
            }
            Act::Cap { flow, cap } => {
                if !self.flows.is_empty() {
                    let (e, m, _) = self.flows[flow % self.flows.len()];
                    self.eng.set_flow_cap(e, cap);
                    self.model.set_flow_cap(m, cap);
                }
            }
            Act::ReadRate(n) => {
                if !self.flows.is_empty() {
                    let (e, m, _) = self.flows[n % self.flows.len()];
                    let got = self.eng.flow_rate(e).map(f64::to_bits);
                    let want = self.model.rate(m).map(f64::to_bits);
                    prop_assert_eq!(got, want, "rate read at {:?}", now);
                }
            }
        }
        Ok(())
    }

    /// Handler bookkeeping common to every event: forget finished flows,
    /// re-arm polls.
    fn observe(&mut self, ev: &Ev) {
        match *ev {
            Ev::Flow([tag, ..]) => self.flows.retain(|&(_, _, t)| t != tag),
            Ev::Timer(tag) => {
                if let Some((period, reps)) = self.polls.remove(&tag) {
                    if reps > 0 {
                        self.poll(period, reps - 1);
                    }
                }
            }
        }
    }

    /// Resource integrals and the live-flow count must agree after every
    /// event.
    fn check_resources(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.eng.active_flows(), self.model.flows.len());
        for (i, &(e, _)) in self.res.iter().enumerate() {
            prop_assert_eq!(
                self.eng.delivered(e).to_bits(),
                self.model.delivered[i].to_bits(),
                "delivered on resource {} at {:?}",
                i,
                self.model.now
            );
            prop_assert_eq!(
                self.eng.busy_integral(e).to_bits(),
                self.model.busy[i].to_bits(),
                "busy integral on resource {} at {:?}",
                i,
                self.model.now
            );
        }
        Ok(())
    }
}

/// Run one script on engine and model in lockstep.
fn check(s: &Script) -> Result<(), TestCaseError> {
    let mut p = Pair::new(&s.capacities);
    for g in &s.flows {
        p.start(g);
    }
    for &d in &s.timers {
        p.at(SimTime(d));
    }
    let mut acts = s.acts.iter();
    for n in 0..MAX_EVENTS {
        let want = p.model.next();
        let got = p.eng.try_next();
        match (got, want) {
            (Ok(Some(g)), Ok(w)) => {
                let g = Ev::from(g);
                prop_assert_eq!(&g, &w, "event {} differs", n);
                prop_assert_eq!(p.eng.now(), p.model.now, "event {} instant differs", n);
                p.observe(&g);
                if let Some(a) = acts.next() {
                    p.act(a)?;
                }
            }
            (Ok(None), Err(End::Dry)) | (Err(EngineError::Stalled(_)), Err(End::Stalled)) => {
                prop_assert_eq!(p.eng.now(), p.model.now);
                return p.check_resources();
            }
            (g, w) => {
                return Err(TestCaseError::fail(format!(
                    "event {n}: engine {g:?}, model {w:?} at {:?}",
                    p.model.now
                )))
            }
        }
        p.check_resources()?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn engine_instants_match_the_scan_every_instant_model(s in script()) {
        check(&s)?;
    }
}

/// Many poll chains over a handful of long flows: nearly every instant is
/// rate-free, so nearly every target comes from the skip.
#[test]
fn poll_heavy_script_matches_the_model() {
    let gen = |path: Vec<usize>, volume: f64, cap: Option<f64>| FlowGen {
        path,
        volume,
        weight: 1.0,
        cap,
    };
    let mut acts = Vec::new();
    for i in 0..24u64 {
        acts.push(Act::Poll {
            period_ps: 1_000_000 + i * 7_919,
            reps: 400,
        });
        if i % 6 == 5 {
            acts.push(Act::NearCompletion {
                offset: i as i64 % 3 - 1,
                count: 2,
            });
        }
    }
    let s = Script {
        capacities: vec![1e9, 4e8, 2.5e9],
        flows: vec![
            gen(vec![0], 3e5, None),
            gen(vec![0, 1], 2e5, Some(1.5e8)),
            gen(vec![1, 2], 4e5, None),
            gen(vec![2], 5e5, Some(9e8)),
            gen(vec![0, 2, 2], 1e5, None),
        ],
        timers: vec![0, 0, 1],
        acts,
    };
    if let Err(e) = check(&s) {
        panic!("{e}");
    }
}
