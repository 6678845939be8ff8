//! Deterministic fault injection plans.
//!
//! The paper's measurements come from healthy clusters; this module describes
//! the *unhealthy* ones used by the robustness experiments: links that
//! degrade for a window, NICs that stall, rendezvous control messages that
//! get dropped, and straggler cores running below nominal frequency.
//!
//! A [`FaultPlan`] is pure data plus a seed. All randomness (the per-message
//! drop decisions) is drawn from [`crate::rng::JitterFamily`] streams rooted
//! at that seed, so two runs with identical seeds replay byte-identical
//! fault traces — the same property the jitter machinery already guarantees
//! for latency/bandwidth noise.

use std::fmt;

use crate::rng::{JitterFamily, Pcg32};
use crate::time::SimTime;

/// Jitter-stream id for RTS (ready-to-send) drop decisions.
pub const STREAM_DROP_RTS: u64 = 0xFA01;
/// Jitter-stream id for CTS (clear-to-send) drop decisions.
pub const STREAM_DROP_CTS: u64 = 0xFA02;

/// A window during which a link's bandwidth is multiplied by `factor`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkDegradation {
    /// Window start (simulated time).
    pub start: SimTime,
    /// Window end (simulated time, exclusive).
    pub end: SimTime,
    /// Bandwidth multiplier in `(0, 1]` applied while the window is open.
    pub factor: f64,
}

/// A window during which a NIC transmits nothing at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NicStall {
    /// Stall start (simulated time).
    pub start: SimTime,
    /// Stall end (simulated time, exclusive).
    pub end: SimTime,
}

/// A core pinned below its nominal frequency for the whole run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerCore {
    /// Node index within the cluster.
    pub node: usize,
    /// Core index within the node.
    pub core: usize,
    /// Frequency multiplier in `(0, 1]`.
    pub factor: f64,
}

/// Why a [`FaultPlan`] failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A degradation or stall window has `end <= start`.
    EmptyWindow {
        /// Which kind of window ("link degradation" or "NIC stall").
        kind: &'static str,
        /// Window start.
        start: SimTime,
        /// Window end.
        end: SimTime,
    },
    /// A multiplicative factor is outside `(0, 1]`.
    BadFactor {
        /// What the factor applies to.
        kind: &'static str,
        /// The offending value.
        factor: f64,
    },
    /// A drop probability is outside `[0, 1]`.
    BadProbability {
        /// Which control message the probability applies to.
        kind: &'static str,
        /// The offending value.
        prob: f64,
    },
    /// A straggler names a node or core the cluster does not have.
    StragglerOutOfRange {
        /// The straggler's node index.
        node: usize,
        /// The straggler's core index.
        core: usize,
        /// Nodes in the cluster.
        nodes: usize,
        /// Cores per node.
        cores: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { kind, start, end } => write!(
                f,
                "{} window is empty: start {:.6}s >= end {:.6}s",
                kind,
                start.as_secs_f64(),
                end.as_secs_f64()
            ),
            FaultPlanError::BadFactor { kind, factor } => {
                write!(f, "{} factor {} outside (0, 1]", kind, factor)
            }
            FaultPlanError::BadProbability { kind, prob } => {
                write!(f, "{} drop probability {} outside [0, 1]", kind, prob)
            }
            FaultPlanError::StragglerOutOfRange {
                node,
                core,
                nodes,
                cores,
            } => write!(
                f,
                "straggler core {} of node {} is outside the cluster ({} nodes of {} cores)",
                core, node, nodes, cores
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A complete description of the faults injected into one run.
///
/// Built with the fluent `with_*` methods; an empty plan (the default) is a
/// healthy cluster and injects nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Root seed for all drop decisions.
    pub seed: u64,
    /// Bandwidth-degradation windows applied to the network wire.
    pub link_degradations: Vec<LinkDegradation>,
    /// Full-stop windows applied to every NIC.
    pub nic_stalls: Vec<NicStall>,
    /// Probability that any given RTS control message is lost.
    pub drop_rts: f64,
    /// Probability that any given CTS control message is lost.
    pub drop_cts: f64,
    /// Cores pinned below nominal frequency.
    pub stragglers: Vec<StragglerCore>,
}

impl FaultPlan {
    /// A healthy plan (nothing injected) rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            link_degradations: Vec::new(),
            nic_stalls: Vec::new(),
            drop_rts: 0.0,
            drop_cts: 0.0,
            stragglers: Vec::new(),
        }
    }

    /// Degrade the wire to `factor` of nominal bandwidth in `[start, end)`.
    pub fn with_link_degradation(mut self, start: SimTime, end: SimTime, factor: f64) -> Self {
        self.link_degradations
            .push(LinkDegradation { start, end, factor });
        self
    }

    /// Stall every NIC completely in `[start, end)`.
    pub fn with_nic_stall(mut self, start: SimTime, end: SimTime) -> Self {
        self.nic_stalls.push(NicStall { start, end });
        self
    }

    /// Drop each RTS control message with probability `p`.
    pub fn with_rts_drop(mut self, p: f64) -> Self {
        self.drop_rts = p;
        self
    }

    /// Drop each CTS control message with probability `p`.
    pub fn with_cts_drop(mut self, p: f64) -> Self {
        self.drop_cts = p;
        self
    }

    /// Pin `core` on `node` to `factor` of its nominal frequency.
    pub fn with_straggler(mut self, node: usize, core: usize, factor: f64) -> Self {
        self.stragglers.push(StragglerCore { node, core, factor });
        self
    }

    /// True when the plan injects nothing (a healthy cluster).
    pub fn is_empty(&self) -> bool {
        self.link_degradations.is_empty()
            && self.nic_stalls.is_empty()
            && self.drop_rts == 0.0
            && self.drop_cts == 0.0
            && self.stragglers.is_empty()
    }

    /// True when any control-message drops are configured.
    pub fn drops_control_messages(&self) -> bool {
        self.drop_rts > 0.0 || self.drop_cts > 0.0
    }

    /// The deterministic random stream for a named fault source (e.g.
    /// [`STREAM_DROP_RTS`]). Same seed + same id ⇒ same sequence.
    pub fn stream(&self, id: u64) -> Pcg32 {
        JitterFamily::new(self.seed).stream(id)
    }

    /// Check ranges: windows non-empty, factors in `(0, 1]`, probabilities
    /// in `[0, 1]`.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for d in &self.link_degradations {
            if d.end <= d.start {
                return Err(FaultPlanError::EmptyWindow {
                    kind: "link degradation",
                    start: d.start,
                    end: d.end,
                });
            }
            if !(d.factor > 0.0 && d.factor <= 1.0) {
                return Err(FaultPlanError::BadFactor {
                    kind: "link degradation",
                    factor: d.factor,
                });
            }
        }
        for s in &self.nic_stalls {
            if s.end <= s.start {
                return Err(FaultPlanError::EmptyWindow {
                    kind: "NIC stall",
                    start: s.start,
                    end: s.end,
                });
            }
        }
        for (kind, prob) in [("RTS", self.drop_rts), ("CTS", self.drop_cts)] {
            if !(0.0..=1.0).contains(&prob) {
                return Err(FaultPlanError::BadProbability { kind, prob });
            }
        }
        for s in &self.stragglers {
            if !(s.factor > 0.0 && s.factor <= 1.0) {
                return Err(FaultPlanError::BadFactor {
                    kind: "straggler core",
                    factor: s.factor,
                });
            }
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::new(7);
        assert!(p.is_empty());
        assert!(!p.drops_control_messages());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builder_populates_fields() {
        let p = FaultPlan::new(1)
            .with_link_degradation(SimTime::SEC, SimTime::SEC * 2, 0.25)
            .with_nic_stall(SimTime::from_millis(10), SimTime::from_millis(20))
            .with_rts_drop(0.1)
            .with_cts_drop(0.2)
            .with_straggler(0, 3, 0.5);
        assert!(!p.is_empty());
        assert!(p.drops_control_messages());
        assert!(p.validate().is_ok());
        assert_eq!(p.link_degradations.len(), 1);
        assert_eq!(p.nic_stalls.len(), 1);
        assert_eq!(p.stragglers.len(), 1);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let empty_window = FaultPlan::new(0).with_link_degradation(SimTime::SEC, SimTime::SEC, 0.5);
        assert!(matches!(
            empty_window.validate(),
            Err(FaultPlanError::EmptyWindow { .. })
        ));
        let bad_factor = FaultPlan::new(0).with_link_degradation(SimTime::ZERO, SimTime::SEC, 0.0);
        assert!(matches!(
            bad_factor.validate(),
            Err(FaultPlanError::BadFactor { .. })
        ));
        let bad_prob = FaultPlan::new(0).with_cts_drop(1.5);
        assert!(matches!(
            bad_prob.validate(),
            Err(FaultPlanError::BadProbability { .. })
        ));
        let bad_straggler = FaultPlan::new(0).with_straggler(0, 0, 2.0);
        assert!(matches!(
            bad_straggler.validate(),
            Err(FaultPlanError::BadFactor { .. })
        ));
    }

    #[test]
    fn zero_length_and_inverted_stall_windows_are_rejected() {
        let t = SimTime::from_millis(3);
        for (start, end) in [(t, t), (t, t - SimTime::PS)] {
            let e = FaultPlan::new(0).with_nic_stall(start, end).validate();
            assert!(
                matches!(
                    e,
                    Err(FaultPlanError::EmptyWindow {
                        kind: "NIC stall",
                        ..
                    })
                ),
                "{:?}",
                e
            );
        }
    }

    #[test]
    fn one_picosecond_windows_are_the_smallest_valid_ones() {
        let t = SimTime::from_millis(3);
        let p = FaultPlan::new(0)
            .with_nic_stall(t, t + SimTime::PS)
            .with_link_degradation(t, t + SimTime::PS, 0.5);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn drop_streams_replay_identically() {
        let a = FaultPlan::new(99).with_rts_drop(0.5);
        let b = FaultPlan::new(99).with_rts_drop(0.5);
        let mut sa = a.stream(STREAM_DROP_RTS);
        let mut sb = b.stream(STREAM_DROP_RTS);
        for _ in 0..64 {
            assert_eq!(sa.next_u32(), sb.next_u32());
        }
        // A different seed gives a different trace.
        let mut sc = FaultPlan::new(100).stream(STREAM_DROP_RTS);
        let collisions = (0..64).filter(|_| sb.next_u32() == sc.next_u32()).count();
        assert!(collisions < 4);
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = FaultPlan::new(0)
            .with_rts_drop(-0.5)
            .validate()
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("RTS"), "{}", msg);
        assert!(msg.contains("-0.5"), "{}", msg);
    }
}
