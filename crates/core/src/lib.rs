//! # interference — the ICPP'21 benchmark suite
//!
//! The paper's primary contribution, rebuilt on the simulated substrate:
//! a benchmark suite measuring **interferences between communications and
//! computations** when they run side by side.
//!
//! * [`protocol`] — the three-step measurement protocol of §2.1
//!   (computation alone → communication alone → both together), with
//!   median/decile statistics over seeded repetitions;
//! * [`experiments`] — one driver per figure/table of the paper
//!   (`fig1_frequency` … `fig10_usecases`, `table1`), each implementing
//!   the [`campaign::Experiment`] trait and returning
//!   [`report::FigureData`] with the simulated series, the paper's
//!   reference findings and automated qualitative checks;
//! * [`campaign`] — the declarative campaign engine and the one way to run
//!   an experiment: sweep plans, deterministic per-point seeding, a worker
//!   pool, per-point crash-proofing, timeouts and baseline memoization;
//! * [`runner`] — the retry policy the engine applies to every point (and
//!   the faulted ping-pong to every repetition): guarded attempts, one
//!   retry on a derived seed, a structured [`RunStatus`];
//! * [`store`] — the content-addressed on-disk result store behind
//!   `repro --store/--resume`: atomic writes, checksummed entries,
//!   corruption quarantine;
//! * [`report`] — ASCII rendering and CSV export of figure data;
//! * [`paper`] — the reference values extracted from the paper's text.
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results.

#![warn(missing_docs)]
// Experiment seeds are grouped as figure mnemonics (0xF16_4A = "fig 4a"),
// not as equal-width digit groups.
#![allow(clippy::unusual_byte_groupings)]

pub mod campaign;
pub mod codec;
pub mod experiments;
pub mod paper;
pub mod protocol;
pub mod report;
pub mod results;
pub mod runner;
pub mod store;

pub use protocol::{ProtocolConfig, ProtocolError, RepMetrics, StepResults};
pub use report::{Check, FigureData, RunOutcome};
pub use runner::RunStatus;
pub use store::{atomic_write, Lookup, ResultStore, StoreStats};
