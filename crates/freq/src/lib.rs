//! # freq — CPU frequency model (core and uncore DVFS)
//!
//! Models the two frequency domains the paper studies (§3):
//!
//! * **Core frequency** — impacts computation units and L1/L2 caches. Under
//!   a dynamic governor the frequency of a core depends on its *activity*
//!   (idle / light polling / heavy compute), the *instruction license*
//!   (normal / AVX2 / AVX512 — wide-vector instructions force lower turbo
//!   ceilings, Gottschlag & Bellosa) and the number of active cores on the
//!   same socket (turbo ladder).
//! * **Uncore frequency** — impacts the last-level cache and the memory
//!   controller; it scales memory bandwidth slightly and is raised by the
//!   package when any core is busy.
//!
//! The model is pure state + queries. The simulator changes a core's
//! activity in one place per layer, which calls [`FreqModel::set_activity`]
//! and, when it reports a change, moves every capacity that depends on the
//! frequencies: `memsim`'s `Executor::set_activity` re-applies the core and
//! memory-controller capacities and recaps the node's live roofline caps,
//! and `mpisim`'s `Cluster::set_activity` adds the node's NIC uncore scale
//! (DESIGN.md §13.7). Frequencies are piecewise constant between activity
//! changes, so the paper's per-core frequency traces (Figures 2 and 3) are
//! read as [`FreqModel::core_freq`] snapshots taken in each phase; nothing
//! records a time series.
//!
//! No query scans cores: `set_activity` keeps two counts per socket (its
//! non-idle cores, and its heavy cores per license), so the governor reads
//! the socket's occupancy and worst license in O(1). Unit tests keep the
//! per-core scans as the reference the counts must match.

#![warn(missing_docs)]

use topology::{CoreId, MachineSpec, SocketId};

/// Instruction license of a compute workload, ordered by how aggressively it
/// drags turbo frequencies down.
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord)]
pub enum License {
    /// Scalar / SSE-class instructions.
    Normal = 0,
    /// AVX2-class (256-bit) instructions.
    Avx2 = 1,
    /// AVX512-class (512-bit) instructions.
    Avx512 = 2,
}

impl License {
    /// Index into the machine's turbo tables.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a core is currently doing, as seen by the governor.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Activity {
    /// Nothing running: the governor parks the core at its idle frequency.
    #[default]
    Idle,
    /// A polling/communication loop: architecturally busy but light; does
    /// not climb the full turbo ladder (cf. the stable 2.5 GHz communication
    /// core in the paper's Figures 2 and 3).
    Light,
    /// A compute kernel with the given instruction license.
    Heavy(License),
}

/// Core-frequency governor.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Governor {
    /// All cores pinned at a constant frequency (the paper's `userspace`
    /// governor + `cpupower`, used for Figure 1).
    Userspace(f64),
    /// Active cores run at base/turbo, idle cores drop to the idle
    /// frequency (the paper's default setup).
    Performance {
        /// Whether turbo-boost is enabled.
        turbo: bool,
    },
}

/// Uncore-frequency policy.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum UncorePolicy {
    /// Pinned at a constant frequency (the paper pins it via BIOS/Likwid).
    Fixed(f64),
    /// Hardware-managed: maximum when any core is busy, minimum when the
    /// package idles.
    Auto,
}

/// The frequency model of one node.
pub struct FreqModel {
    name: String,
    cores_per_socket: u32,
    idle_freq: f64,
    light_cap: f64,
    base_freq: f64,
    turbo_table: [Vec<f64>; 3],
    uncore_range: (f64, f64),
    governor: Governor,
    uncore: UncorePolicy,
    activity: Vec<Activity>,
    /// Per-socket occupancy, kept current by `set_activity`.
    load: Vec<SocketLoad>,
}

/// What one socket's cores are doing, counted.
#[derive(Clone, Copy, Default, Debug)]
struct SocketLoad {
    /// Non-idle cores.
    active: u32,
    /// Heavy cores, by [`License::index`].
    heavy: [u32; 3],
}

impl SocketLoad {
    /// Count (`add`) or uncount one core doing `activity`.
    fn tally(&mut self, activity: Activity, add: bool) {
        let bump = |n: &mut u32| *n = if add { *n + 1 } else { *n - 1 };
        if activity != Activity::Idle {
            bump(&mut self.active);
        }
        if let Activity::Heavy(l) = activity {
            bump(&mut self.heavy[l.index()]);
        }
    }

    fn heavy_total(&self) -> u32 {
        self.heavy.iter().sum()
    }

    fn occupancy(&self) -> Occupancy {
        let license = if self.heavy[License::Avx512.index()] > 0 {
            License::Avx512
        } else if self.heavy[License::Avx2.index()] > 0 {
            License::Avx2
        } else {
            License::Normal
        };
        Occupancy {
            active: self.active,
            heavy: self.heavy_total(),
            license,
        }
    }
}

/// The governor's view of a socket: its only inputs besides a core's own
/// activity.
#[derive(Clone, Copy, Debug)]
struct Occupancy {
    /// Non-idle cores.
    active: u32,
    /// Heavy cores.
    heavy: u32,
    /// Worst (lowest-ceiling) license among the heavy cores; `Normal` when
    /// there are none.
    license: License,
}

impl FreqModel {
    /// Build the model for a machine under the given policies.
    pub fn new(spec: &MachineSpec, governor: Governor, uncore: UncorePolicy) -> FreqModel {
        if let Governor::Userspace(f) = governor {
            assert!(
                f >= spec.min_freq && f <= spec.turbo_table[0][0],
                "userspace frequency {} outside [{}, {}]",
                f,
                spec.min_freq,
                spec.turbo_table[0][0]
            );
        }
        if let UncorePolicy::Fixed(f) = uncore {
            assert!(
                f >= spec.uncore_range.0 - 1e-9 && f <= spec.uncore_range.1 + 1e-9,
                "uncore frequency {} outside {:?}",
                f,
                spec.uncore_range
            );
        }
        let cores = spec.core_count();
        FreqModel {
            name: spec.name.clone(),
            cores_per_socket: cores / spec.sockets,
            idle_freq: spec.idle_freq,
            light_cap: spec.light_freq_cap,
            base_freq: spec.base_freq,
            turbo_table: spec.turbo_table.clone(),
            uncore_range: spec.uncore_range,
            governor,
            uncore,
            activity: vec![Activity::Idle; cores as usize],
            load: vec![SocketLoad::default(); spec.sockets as usize],
        }
    }

    /// Machine name this model was built for.
    pub fn machine(&self) -> &str {
        &self.name
    }

    /// The socket of `core`: the only socket whose core frequencies a
    /// change of `core`'s activity can move.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }

    /// Number of non-idle cores on a socket.
    pub fn active_on_socket(&self, socket: SocketId) -> u32 {
        self.load[socket.0 as usize].active
    }

    fn ladder(&self, license: License, active: u32) -> f64 {
        let t = &self.turbo_table[license.index()];
        if active == 0 {
            return t[0];
        }
        let i = (active as usize - 1).min(t.len() - 1);
        t[i]
    }

    /// Record a core's new activity. Returns `true` if any frequency may
    /// have changed (callers then re-apply [`FreqModel::core_freq`] to the
    /// engine's resources).
    pub fn set_activity(&mut self, core: CoreId, activity: Activity) -> bool {
        let old = self.activity[core.0 as usize];
        if old == activity {
            return false;
        }
        self.activity[core.0 as usize] = activity;
        let socket = self.socket_of(core);
        let load = &mut self.load[socket.0 as usize];
        load.tally(old, false);
        load.tally(activity, true);
        true
    }

    /// Current activity of a core.
    pub fn activity(&self, core: CoreId) -> Activity {
        self.activity[core.0 as usize]
    }

    /// Frequency of a core in GHz under the current governor and activity.
    pub fn core_freq(&self, core: CoreId) -> f64 {
        let socket = self.socket_of(core);
        self.freq_under(
            self.activity(core),
            self.load[socket.0 as usize].occupancy(),
        )
    }

    /// The governor's rule: the frequency of a core doing `activity` on a
    /// socket occupied as `occ`.
    fn freq_under(&self, activity: Activity, occ: Occupancy) -> f64 {
        match self.governor {
            Governor::Userspace(f) => f,
            Governor::Performance { turbo } => {
                let active = occ.active;
                match activity {
                    Activity::Idle => {
                        // The paper observes *all* cores clock up when heavy
                        // computation runs (shared voltage rail): idle cores
                        // follow the socket's heavy frequency.
                        if occ.heavy > 0 {
                            let lic = occ.license;
                            if turbo {
                                self.ladder(lic, active)
                            } else {
                                self.base_freq
                            }
                        } else {
                            self.idle_freq
                        }
                    }
                    Activity::Light => {
                        let f = if turbo {
                            self.ladder(License::Normal, active)
                        } else {
                            self.base_freq
                        };
                        f.min(self.light_cap)
                    }
                    Activity::Heavy(lic) => {
                        if turbo {
                            self.ladder(lic, active)
                        } else {
                            // Without turbo, heavy AVX work can still force
                            // the clock below base (license floor).
                            self.base_freq.min(self.ladder(lic, active))
                        }
                    }
                }
            }
        }
    }

    /// Uncore frequency in GHz.
    pub fn uncore_freq(&self) -> f64 {
        match self.uncore {
            UncorePolicy::Fixed(f) => f,
            UncorePolicy::Auto => {
                if self.load.iter().any(|l| l.active > 0) {
                    self.uncore_range.1
                } else {
                    self.uncore_range.0
                }
            }
        }
    }

    /// Number of *heavy* cores across the machine — the signal used for the
    /// package-idle latency penalty (§3.2/§3.3: latency improves when
    /// computation runs beside communication).
    pub fn heavy_total(&self) -> u32 {
        self.load.iter().map(SocketLoad::heavy_total).sum()
    }
}

/// The per-core scans the counts replaced, kept as the reference the
/// counted queries must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    fn cores_on_socket(m: &FreqModel, socket: SocketId) -> impl Iterator<Item = Activity> + '_ {
        let start = (socket.0 * m.cores_per_socket) as usize;
        m.activity[start..start + m.cores_per_socket as usize]
            .iter()
            .copied()
    }

    pub fn active_on_socket(m: &FreqModel, socket: SocketId) -> u32 {
        cores_on_socket(m, socket)
            .filter(|&a| a != Activity::Idle)
            .count() as u32
    }

    fn heavy_on_socket(m: &FreqModel, socket: SocketId) -> u32 {
        cores_on_socket(m, socket)
            .filter(|a| matches!(a, Activity::Heavy(_)))
            .count() as u32
    }

    /// Worst (lowest-ceiling) license among heavy cores of a socket.
    fn socket_license(m: &FreqModel, socket: SocketId) -> License {
        cores_on_socket(m, socket)
            .filter_map(|a| match a {
                Activity::Heavy(l) => Some(l),
                _ => None,
            })
            .max()
            .unwrap_or(License::Normal)
    }

    /// `core_freq` with the socket's occupancy scanned from its cores.
    pub fn core_freq(m: &FreqModel, core: CoreId) -> f64 {
        let socket = m.socket_of(core);
        let occ = Occupancy {
            active: active_on_socket(m, socket),
            heavy: heavy_on_socket(m, socket),
            license: socket_license(m, socket),
        };
        m.freq_under(m.activity(core), occ)
    }

    pub fn uncore_freq(m: &FreqModel) -> f64 {
        match m.uncore {
            UncorePolicy::Fixed(f) => f,
            UncorePolicy::Auto => {
                if (0..m.load.len() as u32).any(|s| active_on_socket(m, SocketId(s)) > 0) {
                    m.uncore_range.1
                } else {
                    m.uncore_range.0
                }
            }
        }
    }

    pub fn heavy_total(m: &FreqModel) -> u32 {
        (0..m.load.len() as u32)
            .map(|s| heavy_on_socket(m, SocketId(s)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use topology::{henri, pyxis, Preset};

    fn model(gov: Governor) -> FreqModel {
        FreqModel::new(&henri(), gov, UncorePolicy::Auto)
    }

    #[test]
    fn userspace_pins_everything() {
        let mut m = model(Governor::Userspace(1.0));
        assert_eq!(m.core_freq(CoreId(0)), 1.0);
        m.set_activity(CoreId(0), Activity::Heavy(License::Avx512));
        assert_eq!(m.core_freq(CoreId(0)), 1.0);
        assert_eq!(m.core_freq(CoreId(35)), 1.0);
    }

    #[test]
    fn idle_cores_at_idle_freq() {
        let m = model(Governor::Performance { turbo: true });
        for c in 0..36 {
            assert_eq!(m.core_freq(CoreId(c)), 1.0);
        }
    }

    #[test]
    fn light_core_capped() {
        // The paper's communication core sits at 2.5 GHz on henri.
        let mut m = model(Governor::Performance { turbo: true });
        m.set_activity(CoreId(35), Activity::Light);
        assert_eq!(m.core_freq(CoreId(35)), 2.5);
    }

    #[test]
    fn single_heavy_core_turbos() {
        let mut m = model(Governor::Performance { turbo: true });
        m.set_activity(CoreId(0), Activity::Heavy(License::Normal));
        assert_eq!(m.core_freq(CoreId(0)), 3.7);
    }

    #[test]
    fn turbo_ladder_descends_with_active_cores() {
        let mut m = model(Governor::Performance { turbo: true });
        let mut last = f64::INFINITY;
        for n in 0..18u32 {
            m.set_activity(CoreId(n), Activity::Heavy(License::Normal));
            let f = m.core_freq(CoreId(0));
            assert!(f <= last, "ladder must not rise: {} > {}", f, last);
            last = f;
        }
        // 18 active cores on socket 0 → ladder tail.
        assert_eq!(last, 2.5);
    }

    #[test]
    fn avx512_four_vs_twenty_cores_matches_paper() {
        // Fig 3b: 4 AVX512 cores → 3.0 GHz. Fig 3c: 20 cores → 2.3 GHz
        // (the computing cores are pinned in logical order, so socket 0
        // fills first).
        let mut m = model(Governor::Performance { turbo: true });
        for c in 0..4 {
            m.set_activity(CoreId(c), Activity::Heavy(License::Avx512));
        }
        assert_eq!(m.core_freq(CoreId(0)), 3.0);
        for c in 4..20 {
            m.set_activity(CoreId(c), Activity::Heavy(License::Avx512));
        }
        // Socket 0 now has 18 heavy cores → AVX512 tail = 2.3 GHz.
        assert_eq!(m.core_freq(CoreId(0)), 2.3);
        // Socket 1 has 2 heavy cores → near the top of the AVX512 ladder.
        assert_eq!(m.core_freq(CoreId(19)), 3.0);
    }

    #[test]
    fn comm_core_unaffected_by_avx_on_same_socket() {
        // §3.3: cores executing AVX do not impact the communication core's
        // frequency (it holds its Normal-license ceiling, capped at 2.5).
        let mut m = model(Governor::Performance { turbo: true });
        m.set_activity(CoreId(17), Activity::Light);
        let before = m.core_freq(CoreId(17));
        for c in 0..17 {
            m.set_activity(CoreId(c), Activity::Heavy(License::Avx512));
        }
        let after = m.core_freq(CoreId(17));
        assert_eq!(before, 2.5);
        assert_eq!(after, 2.5);
    }

    #[test]
    fn idle_cores_follow_heavy_socket() {
        // Fig 2 (C): all cores clock up when 20 cores compute.
        let mut m = model(Governor::Performance { turbo: true });
        for c in 0..18 {
            m.set_activity(CoreId(c), Activity::Heavy(License::Normal));
        }
        // There is no idle core left on socket 0 in this loop — use 17 as
        // heavy and verify; instead check socket 1 idle cores stay idle.
        assert_eq!(m.core_freq(CoreId(20)), 1.0);
        // Reset one core to idle: it should follow the socket frequency.
        m.set_activity(CoreId(17), Activity::Idle);
        assert!(m.core_freq(CoreId(17)) >= 2.5);
    }

    #[test]
    fn no_turbo_holds_base() {
        let mut m = model(Governor::Performance { turbo: false });
        m.set_activity(CoreId(0), Activity::Heavy(License::Normal));
        assert_eq!(m.core_freq(CoreId(0)), 2.3);
        // AVX512 tail (2.3) does not exceed base either.
        for c in 1..18 {
            m.set_activity(CoreId(c), Activity::Heavy(License::Avx512));
        }
        assert!(m.core_freq(CoreId(0)) <= 2.3);
    }

    #[test]
    fn uncore_auto_follows_activity() {
        let mut m = model(Governor::Performance { turbo: true });
        assert_eq!(m.uncore_freq(), 1.2);
        m.set_activity(CoreId(3), Activity::Light);
        assert_eq!(m.uncore_freq(), 2.4);
        m.set_activity(CoreId(3), Activity::Idle);
        assert_eq!(m.uncore_freq(), 1.2);
    }

    #[test]
    fn uncore_fixed() {
        let m = FreqModel::new(
            &henri(),
            Governor::Performance { turbo: true },
            UncorePolicy::Fixed(1.2),
        );
        assert_eq!(m.uncore_freq(), 1.2);
    }

    #[test]
    fn heavy_total_counts_machine_wide() {
        let mut m = model(Governor::Performance { turbo: true });
        assert_eq!(m.heavy_total(), 0);
        m.set_activity(CoreId(0), Activity::Heavy(License::Normal));
        m.set_activity(CoreId(20), Activity::Heavy(License::Avx2));
        m.set_activity(CoreId(21), Activity::Light); // not heavy
        assert_eq!(m.heavy_total(), 2);
    }

    #[test]
    fn pyxis_is_flat() {
        // ThunderX2: no turbo ladder at all.
        let mut m = FreqModel::new(
            &pyxis(),
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
        );
        for c in 0..32 {
            m.set_activity(CoreId(c), Activity::Heavy(License::Normal));
        }
        assert_eq!(m.core_freq(CoreId(0)), 2.5);
    }

    #[test]
    fn set_activity_reports_change() {
        let mut m = model(Governor::Performance { turbo: true });
        assert!(m.set_activity(CoreId(0), Activity::Light));
        assert!(!m.set_activity(CoreId(0), Activity::Light));
        assert!(m.set_activity(CoreId(0), Activity::Heavy(License::Avx2)));
    }

    #[test]
    #[should_panic(expected = "userspace frequency")]
    fn userspace_out_of_range_panics() {
        let _ = model(Governor::Userspace(9.9));
    }

    #[test]
    fn license_ordering() {
        assert!(License::Normal < License::Avx2);
        assert!(License::Avx2 < License::Avx512);
        assert_eq!(License::Avx512.index(), 2);
    }

    fn activity_strategy() -> impl Strategy<Value = Activity> {
        prop_oneof![
            Just(Activity::Idle),
            Just(Activity::Light),
            Just(Activity::Heavy(License::Normal)),
            Just(Activity::Heavy(License::Avx2)),
            Just(Activity::Heavy(License::Avx512)),
        ]
    }

    proptest! {
        /// The per-socket counts answer every query with the bits the
        /// per-core scans give: every preset, every governor, both uncore
        /// policies, after every step of a random `set_activity` sequence
        /// (repeated picks of a core move it between licenses).
        #[test]
        fn counts_match_the_reference_scans(
            preset in 0usize..5,
            governor in 0u32..3,
            auto_uncore in any::<bool>(),
            steps in prop::collection::vec((0u32..1024, activity_strategy()), 1..160),
        ) {
            let presets =
                [Preset::Henri, Preset::Bora, Preset::Billy, Preset::Pyxis, Preset::Tiny2x2];
            let spec = presets[preset].spec();
            let governor = match governor {
                0 => Governor::Performance { turbo: true },
                1 => Governor::Performance { turbo: false },
                _ => Governor::Userspace(spec.base_freq),
            };
            let uncore = if auto_uncore {
                UncorePolicy::Auto
            } else {
                UncorePolicy::Fixed(spec.uncore_range.1)
            };
            let mut m = FreqModel::new(&spec, governor, uncore);
            let cores = spec.core_count();
            for (step, &(pick, act)) in steps.iter().enumerate() {
                m.set_activity(CoreId(pick % cores), act);
                for c in 0..cores {
                    let core = CoreId(c);
                    prop_assert_eq!(
                        m.core_freq(core).to_bits(),
                        reference::core_freq(&m, core).to_bits(),
                        "step {}: core {}", step, c
                    );
                }
                for s in 0..spec.sockets {
                    let socket = SocketId(s);
                    prop_assert_eq!(
                        m.active_on_socket(socket),
                        reference::active_on_socket(&m, socket),
                        "step {}: socket {}", step, s
                    );
                }
                prop_assert_eq!(
                    m.uncore_freq().to_bits(),
                    reference::uncore_freq(&m).to_bits(),
                    "step {}", step
                );
                prop_assert_eq!(m.heavy_total(), reference::heavy_total(&m), "step {}", step);
            }
        }

        /// Under each governor, a `set_activity` leaves every core of the
        /// other sockets at the same frequency, bit for bit: the premise
        /// that lets `memsim`'s `Executor::set_activity` recap the changed
        /// socket's live memory phases alone.
        #[test]
        fn set_activity_leaves_other_sockets_alone(
            preset in 0usize..5,
            steps in prop::collection::vec((0u32..1024, activity_strategy()), 1..160),
        ) {
            let presets =
                [Preset::Henri, Preset::Bora, Preset::Billy, Preset::Pyxis, Preset::Tiny2x2];
            let spec = presets[preset].spec();
            let governors = [
                Governor::Performance { turbo: true },
                Governor::Performance { turbo: false },
                Governor::Userspace(spec.base_freq),
            ];
            let cores = spec.core_count();
            for governor in governors {
                let mut m = FreqModel::new(&spec, governor, UncorePolicy::Auto);
                for (step, &(pick, act)) in steps.iter().enumerate() {
                    let changed = CoreId(pick % cores);
                    let bits = |m: &FreqModel, c: u32| m.core_freq(CoreId(c)).to_bits();
                    let before: Vec<u64> = (0..cores).map(|c| bits(&m, c)).collect();
                    m.set_activity(changed, act);
                    for c in 0..cores {
                        if m.socket_of(CoreId(c)) != m.socket_of(changed) {
                            prop_assert_eq!(
                                bits(&m, c), before[c as usize],
                                "{:?} step {}: core {} moved", governor, step, c
                            );
                        }
                    }
                }
            }
        }
    }
}
