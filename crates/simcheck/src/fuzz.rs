//! Differential scenario fuzzer.
//!
//! Each budgeted seed generates a random scenario (random small resource
//! topology + traffic script) and replays it three ways:
//!
//! 1. under the **incremental** solver (production path),
//! 2. under the **from-scratch reference** solver — results must be
//!    bit-identical: the reference runs the plain progressive-filling loop
//!    on the same flow sets, and the production loop's shortcuts must not
//!    change a bit (the incremental solver's whole contract);
//! 3. under a **permuted insertion order** of same-instant flow starts —
//!    results must agree within [`crate::metamorphic::TOL_META`] (flow
//!    slab order changes float summation order, nothing else).
//!
//! Any violation (or a stalled replay) is shrunk to a minimal script by
//! greedy event deletion and reported with the full reproduction recipe.

use simcore::Pcg32;

use crate::metamorphic::TOL_META;
use crate::scenario::{replay, Ev, Op, Replay, Scenario, Solver};

/// A failing scenario reduced to a minimal script.
#[derive(Clone, Debug)]
pub struct ShrunkFailure {
    /// Seed the scenario was generated from.
    pub seed: u64,
    /// What went wrong (first divergence).
    pub reason: String,
    /// Events in the scenario as generated.
    pub events_before: usize,
    /// Events after shrinking.
    pub events_after: usize,
    /// Rendered minimal script (replayable recipe).
    pub script: String,
}

/// Aggregate fuzzing result.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Shrunk failures (empty on a healthy solver).
    pub failures: Vec<ShrunkFailure>,
}

/// Permute the *order* of same-instant `Start` events (other ops keep
/// their positions; `Start`s are redistributed among the `Start` slots of
/// their timestamp group). `Cancel`/`SetFlowCap` references follow their
/// targets. The generator guarantees references only point at strictly
/// earlier timestamps, so this reordering is semantics-preserving.
fn permute_insertion_order(sc: &Scenario, seed: u64) -> Scenario {
    let mut rng = Pcg32::new(seed, 0x0bde);
    let mut events = sc.events.clone();
    let mut remap: Vec<usize> = (0..events.len()).collect();
    let mut i = 0usize;
    while i < events.len() {
        let mut j = i;
        while j < events.len() && events[j].t_ps == events[i].t_ps {
            j += 1;
        }
        let slots: Vec<usize> = (i..j)
            .filter(|&k| matches!(events[k].op, Op::Start { .. }))
            .collect();
        if slots.len() > 1 {
            let mut order = slots.clone();
            for k in (1..order.len()).rev() {
                order.swap(k, rng.below(k as u32 + 1) as usize);
            }
            let originals: Vec<Ev> = order.iter().map(|&k| events[k].clone()).collect();
            for (slot, (src, ev)) in slots.iter().zip(order.iter().zip(originals)) {
                events[*slot] = ev;
                remap[*src] = *slot;
            }
        }
        i = j;
    }
    let mut permuted = Scenario {
        capacities: sc.capacities.clone(),
        events,
    };
    for ev in &mut permuted.events {
        match &mut ev.op {
            Op::Cancel { start_ev } | Op::SetFlowCap { start_ev, .. } => {
                *start_ev = remap[*start_ev];
            }
            _ => {}
        }
    }
    permuted
}

/// Exact differential comparison (incremental vs reference).
fn differ_exact(a: &Replay, b: &Replay) -> Option<String> {
    if a.completions.len() != b.completions.len() {
        return Some(format!(
            "solver divergence: {} vs {} completions",
            a.completions.len(),
            b.completions.len()
        ));
    }
    for (x, y) in a.completions.iter().zip(&b.completions) {
        if x.0 != y.0 || x.1.to_bits() != y.1.to_bits() {
            return Some(format!(
                "solver divergence at completion of [{}]: {:e} vs {:e}",
                x.0, x.1, y.1
            ));
        }
    }
    for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
        for (fa, fb) in sa.1.iter().zip(&sb.1) {
            if fa.0 != fb.0 || fa.1.to_bits() != fb.1.to_bits() {
                return Some(format!(
                    "solver rate divergence at t={} ps, flow [{}]",
                    sa.0, fa.0
                ));
            }
        }
    }
    None
}

/// Tolerant comparison (baseline vs permuted insertion order): completion
/// *sets* must match with times within tolerance.
fn differ_tolerant(a: &Replay, b: &Replay) -> Option<String> {
    // The permutation relabels same-instant starts; match by completion
    // count and per-resource delivered totals (which are label-free).
    if a.completions.len() != b.completions.len() {
        return Some(format!(
            "insertion-order divergence: {} vs {} completions",
            a.completions.len(),
            b.completions.len()
        ));
    }
    for (i, (da, db)) in a.delivered.iter().zip(&b.delivered).enumerate() {
        let rel = (da - db).abs() / da.abs().max(db.abs()).max(1e-30);
        if rel > TOL_META {
            return Some(format!(
                "insertion-order divergence: delivered on r{}: {} vs {} (rel {:.3e})",
                i, da, db, rel
            ));
        }
    }
    let mut ta: Vec<f64> = a.completions.iter().map(|&(_, t)| t).collect();
    let mut tb: Vec<f64> = b.completions.iter().map(|&(_, t)| t).collect();
    ta.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    tb.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
    for (x, y) in ta.iter().zip(&tb) {
        let rel = (x - y).abs() / x.abs().max(y.abs()).max(1e-30);
        if rel > TOL_META {
            return Some(format!(
                "insertion-order divergence: completion time {} vs {} (rel {:.3e})",
                x, y, rel
            ));
        }
    }
    None
}

/// Run the full differential check on one scenario.
fn check(sc: &Scenario, seed: u64) -> Option<String> {
    let inc = replay(sc, Solver::Incremental);
    if inc.stalled {
        return Some("incremental replay stalled".into());
    }
    let reference = replay(sc, Solver::Reference);
    if reference.stalled {
        return Some("reference replay stalled".into());
    }
    if let Some(why) = differ_exact(&inc, &reference) {
        return Some(why);
    }
    let permuted = permute_insertion_order(sc, seed);
    let per = replay(&permuted, Solver::Incremental);
    if per.stalled {
        return Some("permuted replay stalled".into());
    }
    differ_tolerant(&inc, &per)
}

/// Greedy delta-debugging: drop one event at a time while the failure
/// persists, to a fixed point. Dangling `Cancel`/`SetFlowCap` references
/// become no-ops, so every subset script stays well-formed.
fn shrink(sc: &Scenario, seed: u64) -> Scenario {
    let mut best = sc.clone();
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if check(&candidate, seed).is_some() {
                best = candidate;
                improved = true;
            } else {
                i += 1;
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Fuzz `budget` scenarios starting from `base_seed`. Failures are shrunk
/// and returned; callers decide how to surface them (check details, files
/// under `SIMCHECK_FAILURE_DIR`, …).
pub fn run(base_seed: u64, budget: usize) -> FuzzReport {
    let mut report = FuzzReport::default();
    let mut seeds = simcore::SplitMix64::new(base_seed ^ 0xf022);
    for _ in 0..budget {
        let seed = seeds.next_u64();
        let sc = Scenario::generate(seed);
        report.scenarios += 1;
        if let Some(reason) = check(&sc, seed) {
            let minimal = shrink(&sc, seed);
            report.failures.push(ShrunkFailure {
                seed,
                reason: check(&minimal, seed).unwrap_or(reason),
                events_before: sc.events.len(),
                events_after: minimal.events.len(),
                script: minimal.render(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_solver_survives_a_fuzz_batch() {
        let report = run(0xd1ff, 60);
        assert_eq!(report.scenarios, 60);
        assert!(
            report.failures.is_empty(),
            "unexpected failure: {} (script:\n{})",
            report.failures[0].reason,
            report.failures[0].script
        );
    }

    #[test]
    fn shrinker_reduces_an_injected_divergence() {
        // Break the comparison itself (a predicate that "fails" whenever two
        // or more Starts exist) to prove shrinking converges to a minimal
        // script. We emulate by shrinking against a synthetic predicate.
        let sc = Scenario::generate(42);
        let fails = |s: &Scenario| {
            s.events
                .iter()
                .filter(|e| matches!(e.op, Op::Start { .. }))
                .count()
                >= 2
        };
        assert!(fails(&sc), "seed 42 should generate ≥ 2 starts");
        // Inline greedy shrink against the synthetic predicate.
        let mut best = sc.clone();
        loop {
            let mut improved = false;
            let mut i = 0;
            while i < best.events.len() {
                let mut cand = best.clone();
                cand.events.remove(i);
                if fails(&cand) {
                    best = cand;
                    improved = true;
                } else {
                    i += 1;
                }
            }
            if !improved {
                break;
            }
        }
        let starts = best
            .events
            .iter()
            .filter(|e| matches!(e.op, Op::Start { .. }))
            .count();
        assert_eq!(best.events.len(), 2, "minimal script is exactly 2 events");
        assert_eq!(starts, 2);
    }

    #[test]
    fn insertion_order_permutation_preserves_semantics() {
        for seed in 0..30u64 {
            let sc = Scenario::generate(seed);
            let p = permute_insertion_order(&sc, seed);
            assert_eq!(p.events.len(), sc.events.len());
            let a = replay(&sc, Solver::Incremental);
            let b = replay(&p, Solver::Incremental);
            assert!(
                differ_tolerant(&a, &b).is_none(),
                "seed {} diverged under reordering",
                seed
            );
        }
    }
}
