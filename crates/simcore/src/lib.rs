//! # simcore — discrete-event fluid simulation engine
//!
//! The foundation of the interference study: a deterministic discrete-event
//! engine whose central abstraction is **fluid bandwidth sharing**. Shared
//! hardware (memory controllers, NUMA links, NIC, network wire, core cycle
//! budgets) are *resources*; ongoing transfers and compute phases are *flows*
//! allocated by weighted max-min fairness. Fixed latencies are *timers*.
//!
//! Everything is deterministic given a seed; run-to-run variance (the decile
//! bands in the paper's figures) comes from explicit jitter streams
//! ([`rng::JitterFamily`]).
//!
//! What a run did is observable two ways here: the [`telemetry`] journal
//! (spans, instants, counters, all on simulated time) and each resource's
//! cumulative [`FluidNet::delivered`] units and [`FluidNet::busy_integral`].
//!
//! See `DESIGN.md` at the workspace root for how this engine substitutes for
//! the paper's physical clusters.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

pub mod cancel;
pub mod engine;
pub mod faults;
pub mod fluid;
pub mod idhash;
pub mod queue;
pub mod reference_paths;
pub mod rng;
pub mod stats;
pub mod tags;
pub mod telemetry;
pub mod time;

pub use cancel::CancelToken;
pub use engine::{Engine, EngineError, Event, StallDiagnostic, TimerId};
pub use faults::{FaultPlan, FaultPlanError, LinkDegradation, NicStall, StragglerCore};
pub use fluid::{FlowId, FlowReport, FlowSpec, FluidNet, ReallocStats, ResourceId};
pub use idhash::{IdBuildHasher, IdHasher};
pub use queue::{QueueEntry, TimerQueue};
pub use reference_paths::ReferencePaths;
pub use rng::{JitterFamily, Pcg32, SplitMix64};
pub use stats::{quantile, Series, SeriesPoint, Summary};
pub use tags::{kind_index, namespace, payload, split_kind_index, tag};
pub use telemetry::{Journal, Lane};
pub use time::SimTime;
