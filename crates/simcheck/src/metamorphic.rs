//! Metamorphic invariant checks over randomly generated fluid scenarios.
//!
//! Each invariant states a relation between a scenario's replay and the
//! replay of a *transformed* scenario (or of itself): rerunning cannot
//! change anything, shifting all times shifts all completions, relabelling
//! resources relabels the outcome, more contention never raises a rate,
//! more volume never finishes earlier, and bytes are conserved even across
//! capacity-zero fault windows. These hold for weighted max-min fairness by
//! construction — a violation is a solver bug, not a tolerance issue.
//!
//! Replays are pure f64 programs with no time quantisation, so tolerances
//! only absorb summation-order effects (≈ 1e-15 relative per operation):
//! [`TOL_META`] is comfortably above that and far below any real defect.

use simcore::{FlowSpec, Pcg32, SplitMix64};

use crate::scenario::{replay, Replay, Scenario, Solver};
use crate::Outcome;

/// Relative tolerance for metamorphic comparisons (see module docs).
pub const TOL_META: f64 = 1e-9;

/// The six invariants.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invariant {
    /// Same seed, same replay — bit for bit.
    SeedDeterminism,
    /// Shifting every script time by Δ shifts every completion by Δ.
    TimeTranslation,
    /// Permuting resource labels permutes the outcome.
    PermutationSymmetry,
    /// Adding a contending flow never raises an existing flow's rate.
    ContentionMonotonicity,
    /// Growing a flow's volume never completes it earlier.
    SizeMonotonicity,
    /// Injected = delivered + leftover on the common link, faults included.
    Conservation,
}

impl Invariant {
    /// Every invariant, in display order.
    pub const ALL: [Invariant; 6] = [
        Invariant::SeedDeterminism,
        Invariant::TimeTranslation,
        Invariant::PermutationSymmetry,
        Invariant::ContentionMonotonicity,
        Invariant::SizeMonotonicity,
        Invariant::Conservation,
    ];

    /// Stable name used in check labels.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::SeedDeterminism => "seed_determinism",
            Invariant::TimeTranslation => "time_translation",
            Invariant::PermutationSymmetry => "permutation_symmetry",
            Invariant::ContentionMonotonicity => "contention_monotonicity",
            Invariant::SizeMonotonicity => "size_monotonicity",
            Invariant::Conservation => "conservation",
        }
    }

    /// Check the invariant over `count` scenarios derived from `base_seed`;
    /// returns one aggregated outcome.
    pub fn check(self, base_seed: u64, count: usize) -> Outcome {
        let mut seeds = SplitMix64::new(base_seed ^ 0x4d45_5441);
        let mut checked = 0usize;
        let mut first_failure: Option<String> = None;
        for _ in 0..count {
            let seed = seeds.next_u64();
            let verdict = match self {
                Invariant::SeedDeterminism => seed_determinism(seed),
                Invariant::TimeTranslation => time_translation(seed),
                Invariant::PermutationSymmetry => permutation_symmetry(seed),
                Invariant::ContentionMonotonicity => contention_monotonicity(seed),
                Invariant::SizeMonotonicity => size_monotonicity(seed),
                Invariant::Conservation => conservation(seed),
            };
            match verdict {
                Ok(applied) => checked += applied as usize,
                Err(why) => {
                    first_failure.get_or_insert(format!("seed {:#x}: {}", seed, why));
                }
            }
        }
        match first_failure {
            None => Outcome::bool(
                format!("metamorphic.{} [{} scenario(s)]", self.name(), count),
                true,
                format!("{} scenario(s) applicable, all hold", checked),
            ),
            Some(why) => Outcome::bool(
                format!("metamorphic.{} [{} scenario(s)]", self.name(), count),
                false,
                why,
            ),
        }
    }
}

/// Run every invariant; `count` scenarios each.
pub fn check_all(base_seed: u64, count: usize) -> Vec<Outcome> {
    Invariant::ALL
        .iter()
        .map(|inv| inv.check(base_seed, count))
        .collect()
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-30)
}

/// Exact (bitwise) replay equality.
fn assert_identical(a: &Replay, b: &Replay) -> Result<(), String> {
    if a.completions.len() != b.completions.len() {
        return Err(format!(
            "completion counts differ: {} vs {}",
            a.completions.len(),
            b.completions.len()
        ));
    }
    for (x, y) in a.completions.iter().zip(&b.completions) {
        if x.0 != y.0 || x.1.to_bits() != y.1.to_bits() {
            return Err(format!("completion diverges: {:?} vs {:?}", x, y));
        }
    }
    if a.snapshots.len() != b.snapshots.len() {
        return Err("snapshot counts differ".into());
    }
    for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
        if sa.0 != sb.0 || sa.1.len() != sb.1.len() {
            return Err(format!("snapshot shape diverges at t={} ps", sa.0));
        }
        for (fa, fb) in sa.1.iter().zip(&sb.1) {
            if fa.0 != fb.0 || fa.1.to_bits() != fb.1.to_bits() {
                return Err(format!(
                    "rate diverges at t={} ps for flow [{}]",
                    sa.0, fa.0
                ));
            }
        }
    }
    for (da, db) in a.delivered.iter().zip(&b.delivered) {
        if da.to_bits() != db.to_bits() {
            return Err("delivered units diverge".into());
        }
    }
    Ok(())
}

/// Tolerant comparison of completions matched by script index; `shift_s`
/// is subtracted from `b`'s times first.
fn completions_match(a: &Replay, b: &Replay, shift_s: f64) -> Result<(), String> {
    if a.completions.len() != b.completions.len() {
        return Err(format!(
            "completion counts differ: {} vs {}",
            a.completions.len(),
            b.completions.len()
        ));
    }
    let mut xs: Vec<(usize, f64)> = a.completions.clone();
    let mut ys: Vec<(usize, f64)> = b
        .completions
        .iter()
        .map(|&(ev, t)| (ev, t - shift_s))
        .collect();
    xs.sort_unstable_by_key(|&(ev, _)| ev);
    ys.sort_unstable_by_key(|&(ev, _)| ev);
    for (x, y) in xs.iter().zip(&ys) {
        if x.0 != y.0 {
            return Err(format!("completion sets differ: [{}] vs [{}]", x.0, y.0));
        }
        if rel(x.1, y.1) > TOL_META {
            return Err(format!(
                "completion time of [{}] diverges: {} vs {} (rel {:.3e})",
                x.0,
                x.1,
                y.1,
                rel(x.1, y.1)
            ));
        }
    }
    Ok(())
}

/// Ok(true) = checked and holds; Ok(false) = not applicable for this seed.
type Verdict = Result<bool, String>;

fn seed_determinism(seed: u64) -> Verdict {
    let sc = Scenario::generate(seed);
    let a = replay(&sc, Solver::Incremental);
    let b = replay(&Scenario::generate(seed), Solver::Incremental);
    if a.stalled || b.stalled {
        return Err("replay stalled".into());
    }
    assert_identical(&a, &b)?;
    Ok(true)
}

fn time_translation(seed: u64) -> Verdict {
    let sc = Scenario::generate(seed);
    let delta_ps: u64 = 1_500_000_000; // 1.5 ms, far beyond the horizon
    let shifted = sc.time_shifted(delta_ps);
    let a = replay(&sc, Solver::Incremental);
    let b = replay(&shifted, Solver::Incremental);
    if a.stalled || b.stalled {
        return Err("replay stalled".into());
    }
    completions_match(&a, &b, delta_ps as f64 * 1e-12)?;
    Ok(true)
}

fn permutation_symmetry(seed: u64) -> Verdict {
    let sc = Scenario::generate(seed);
    let n = sc.capacities.len();
    // A seed-dependent permutation (Fisher–Yates).
    let mut rng = Pcg32::new(seed, 0x9e37);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.below(i as u32 + 1) as usize);
    }
    let permuted = sc.resource_permuted(&perm);
    let a = replay(&sc, Solver::Incremental);
    let b = replay(&permuted, Solver::Incremental);
    if a.stalled || b.stalled {
        return Err("replay stalled".into());
    }
    completions_match(&a, &b, 0.0)?;
    for (old, &new) in perm.iter().enumerate() {
        if rel(a.delivered[old], b.delivered[new]) > TOL_META {
            return Err(format!(
                "delivered units diverge under relabelling: r{} {} vs r{} {}",
                old, a.delivered[old], new, b.delivered[new]
            ));
        }
    }
    Ok(true)
}

fn contention_monotonicity(seed: u64) -> Verdict {
    // Static single-link setting: max-min on one resource is monotone in
    // the flow set (on general networks it is not — see DESIGN.md §11).
    let mut rng = Pcg32::new(seed, 0xc047);
    let capacity = 5.0 + 95.0 * rng.next_f64();
    let n = 2 + rng.below(6) as usize;
    let flows: Vec<(f64, Option<f64>)> = (0..n)
        .map(|_| {
            (
                0.25 + 3.75 * rng.next_f64(),
                (rng.next_f64() < 0.4).then(|| capacity * (0.05 + 0.5 * rng.next_f64())),
            )
        })
        .collect();
    let rates_with = |extra: Option<(f64, Option<f64>)>| {
        let mut net = simcore::FluidNet::new();
        let link = net.add_resource("link", capacity);
        let ids: Vec<_> = flows
            .iter()
            .map(|&(w, cap)| {
                net.start_flow(FlowSpec {
                    path: vec![link],
                    volume: 1e15,
                    weight: w,
                    cap,
                    tag: 0,
                })
            })
            .collect();
        if let Some((w, cap)) = extra {
            net.start_flow(FlowSpec {
                path: vec![link],
                volume: 1e15,
                weight: w,
                cap,
                tag: 1,
            });
        }
        net.reallocate();
        ids.iter()
            .map(|&id| net.flow_rate(id).expect("live"))
            .collect::<Vec<f64>>()
    };
    let before = rates_with(None);
    let after = rates_with(Some((0.25 + 3.75 * rng.next_f64(), None)));
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        if *a > b * (1.0 + TOL_META) + 1e-12 {
            return Err(format!(
                "flow {} rate rose under added contention: {} -> {}",
                i, b, a
            ));
        }
    }
    Ok(true)
}

fn size_monotonicity(seed: u64) -> Verdict {
    let sc = Scenario::generate(seed);
    let Some(target) = sc
        .events
        .iter()
        .position(|e| matches!(e.op, crate::scenario::Op::Start { .. }))
    else {
        return Ok(false);
    };
    let mut bigger = sc.clone();
    if let crate::scenario::Op::Start { volume, .. } = &mut bigger.events[target].op {
        *volume *= 2.0;
    }
    let a = replay(&sc, Solver::Incremental);
    let b = replay(&bigger, Solver::Incremental);
    if a.stalled || b.stalled {
        return Err("replay stalled".into());
    }
    let t_a = a.completions.iter().find(|&&(ev, _)| ev == target);
    let t_b = b.completions.iter().find(|&&(ev, _)| ev == target);
    match (t_a, t_b) {
        (Some(&(_, ta)), Some(&(_, tb))) => {
            if tb < ta * (1.0 - TOL_META) - 1e-15 {
                return Err(format!(
                    "doubling volume of [{}] finished earlier: {} -> {}",
                    target, ta, tb
                ));
            }
            Ok(true)
        }
        // Cancelled (possibly only in one replay, since it runs longer):
        // no completion-time claim applies.
        _ => Ok(false),
    }
}

fn conservation(seed: u64) -> Verdict {
    let sc = Scenario::generate(seed);
    let r = replay(&sc, Solver::Incremental);
    if r.stalled {
        return Err("replay stalled".into());
    }
    let starts = sc
        .events
        .iter()
        .filter(|e| matches!(e.op, crate::scenario::Op::Start { .. }))
        .count();
    // Every completion may forgive up to the solver's 1e-6-unit completion
    // tolerance; everything else is float noise.
    let slack = 1.5e-6 * starts as f64 + 1e-9 * r.injected[0];
    let balance = r.delivered[0] + r.leftover[0];
    if (balance - r.injected[0]).abs() > slack {
        return Err(format!(
            "link imbalance: injected {} vs delivered {} + leftover {} (slack {})",
            r.injected[0], r.delivered[0], r.leftover[0], slack
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_invariants_hold_on_a_seed_batch() {
        for o in check_all(0xbeef, 12) {
            assert!(o.pass, "{}: {}", o.name, o.detail);
        }
    }
}
