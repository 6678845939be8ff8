//! `repro --validate` — the simcheck validation campaign.
//!
//! Not a paper figure and deliberately **not** in the experiment
//! registries (`--all` reproduces the paper; validation interrogates the
//! simulator itself). The driver folds simcheck's three layers into one
//! campaign plan:
//!
//! * one point per *(cluster preset × oracle family)* — closed-form
//!   expectations vs simulator runs (24 points);
//! * one point per *(fabric preset × collective oracle family)* — ring
//!   allreduce / tree bcast / alltoall closed forms and bounds at 8 henri
//!   ranks (9 points);
//! * one point per metamorphic invariant over a batch of random fluid
//!   scenarios (6 points), plus one per collective invariant over random
//!   collective schedules (3 points);
//! * the differential fuzz budget, chunked so the campaign engine can
//!   spread scenario replay across workers, plus one point differentially
//!   fuzzing random collective schedules against a sequential reference.
//!
//! The fuzz budget defaults to `Full`: 200 / `Quick`: 60 scenarios;
//! [`Validate::fuzz_budget`] overrides it (`repro --validate --fuzz-budget
//! N` sets the field), and `plan` and `run_point` both read it, so they
//! agree on the chunking. When `SIMCHECK_FAILURE_DIR` is set, every
//! shrunk failing script is also written there as a file — the nightly
//! long-fuzz workflow uploads that directory as an artifact.

use simcheck::{collective, fuzz, metamorphic, oracles};
use topology::fabric::FabricPreset;
use topology::Preset;

use super::Fidelity;
use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::report::{Check, FigureData};

/// Scenarios per fuzz sweep point (chunk).
const FUZZ_CHUNK: usize = 50;

/// Scenario batch size for each metamorphic invariant point.
fn meta_count(fidelity: Fidelity) -> usize {
    fidelity.choose(40, 12)
}

/// Random collectives per collective-invariant point (each runs two full
/// cluster simulations).
fn coll_meta_count(fidelity: Fidelity) -> usize {
    fidelity.choose(12, 4)
}

/// Random collectives for the differential collective-fuzz point.
fn coll_fuzz_count(fidelity: Fidelity) -> usize {
    fidelity.choose(24, 6)
}

/// The validation campaign driver (`repro --validate`).
pub struct Validate {
    /// Differential fuzz scenario count; `None` takes the fidelity default
    /// (`Full`: 200, `Quick`: 60).
    pub fuzz_budget: Option<usize>,
}

impl Validate {
    /// Total fuzz budget: the override or the fidelity default.
    fn fuzz_budget(&self, fidelity: Fidelity) -> usize {
        self.fuzz_budget.unwrap_or_else(|| fidelity.choose(200, 60))
    }

    fn fuzz_chunks(&self, fidelity: Fidelity) -> usize {
        self.fuzz_budget(fidelity).div_ceil(FUZZ_CHUNK)
    }

    fn oracle_points() -> usize {
        Preset::clusters().len() * oracles::OracleKind::ALL.len()
    }

    fn coll_oracle_points() -> usize {
        FabricPreset::ALL.len() * collective::CollectiveOracle::ALL.len()
    }

    fn meta_base(fidelity: Fidelity) -> usize {
        let _ = fidelity;
        Self::oracle_points() + Self::coll_oracle_points()
    }

    fn coll_meta_base(fidelity: Fidelity) -> usize {
        Self::meta_base(fidelity) + metamorphic::Invariant::ALL.len()
    }

    fn fuzz_base(fidelity: Fidelity) -> usize {
        Self::coll_meta_base(fidelity) + collective::CollectiveInvariant::ALL.len()
    }

    /// Index of the single collective-fuzz point (the campaign's last).
    fn coll_fuzz_index(&self, fidelity: Fidelity) -> usize {
        Self::fuzz_base(fidelity) + self.fuzz_chunks(fidelity)
    }
}

impl Experiment for Validate {
    fn name(&self) -> &'static str {
        "validate"
    }

    fn anchor(&self) -> &'static str {
        "model validation (oracles, metamorphic invariants, differential fuzz)"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let mut plan = Vec::new();
        for preset in Preset::clusters() {
            for kind in oracles::OracleKind::ALL {
                plan.push(SweepPoint::new(
                    plan.len(),
                    format!("oracle {} on {}", kind.name(), preset.spec().name),
                ));
            }
        }
        for fabric in FabricPreset::ALL {
            for kind in collective::CollectiveOracle::ALL {
                plan.push(SweepPoint::new(
                    plan.len(),
                    format!(
                        "collective oracle {} on {} fabric",
                        kind.name(),
                        fabric.name()
                    ),
                ));
            }
        }
        for inv in metamorphic::Invariant::ALL {
            plan.push(SweepPoint::new(
                plan.len(),
                format!(
                    "metamorphic {} ({} scenarios)",
                    inv.name(),
                    meta_count(fidelity)
                ),
            ));
        }
        for inv in collective::CollectiveInvariant::ALL {
            plan.push(SweepPoint::new(
                plan.len(),
                format!(
                    "collective invariant {} ({} schedules)",
                    inv.name(),
                    coll_meta_count(fidelity)
                ),
            ));
        }
        let budget = self.fuzz_budget(fidelity);
        for c in 0..self.fuzz_chunks(fidelity) {
            let n = FUZZ_CHUNK.min(budget - c * FUZZ_CHUNK);
            plan.push(SweepPoint::new(
                plan.len(),
                format!("differential fuzz chunk {} ({} scenarios)", c, n),
            ));
        }
        plan.push(SweepPoint::new(
            plan.len(),
            format!(
                "collective differential fuzz ({} schedules)",
                coll_fuzz_count(fidelity)
            ),
        ));
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let kinds = oracles::OracleKind::ALL.len();
        let outcomes: Vec<simcheck::Outcome> = if point.index < Self::oracle_points() {
            let preset = Preset::clusters()[point.index / kinds];
            let kind = oracles::OracleKind::ALL[point.index % kinds];
            kind.run(&preset.spec())
        } else if point.index < Self::meta_base(ctx.fidelity) {
            let i = point.index - Self::oracle_points();
            let ckinds = collective::CollectiveOracle::ALL.len();
            let fabric = FabricPreset::ALL[i / ckinds];
            let kind = collective::CollectiveOracle::ALL[i % ckinds];
            kind.run(fabric)
        } else if point.index < Self::coll_meta_base(ctx.fidelity) {
            let inv = metamorphic::Invariant::ALL[point.index - Self::meta_base(ctx.fidelity)];
            vec![inv.check(ctx.seed, meta_count(ctx.fidelity))]
        } else if point.index < Self::fuzz_base(ctx.fidelity) {
            let inv = collective::CollectiveInvariant::ALL
                [point.index - Self::coll_meta_base(ctx.fidelity)];
            vec![inv.check(ctx.seed, coll_meta_count(ctx.fidelity))]
        } else if point.index == self.coll_fuzz_index(ctx.fidelity) {
            vec![collective::fuzz_collectives(
                ctx.seed,
                coll_fuzz_count(ctx.fidelity),
            )]
        } else {
            let chunk = point.index - Self::fuzz_base(ctx.fidelity);
            let budget = self.fuzz_budget(ctx.fidelity);
            let n = FUZZ_CHUNK.min(budget - chunk * FUZZ_CHUNK);
            let report = fuzz::run(ctx.seed, n);
            if let Ok(dir) = std::env::var("SIMCHECK_FAILURE_DIR") {
                for f in &report.failures {
                    let _ = std::fs::create_dir_all(&dir);
                    let path = format!("{}/fuzz-seed-{:016x}.txt", dir, f.seed);
                    let body = format!(
                        "seed: {:#018x}\nreason: {}\nshrunk {} -> {} events\n\n{}",
                        f.seed, f.reason, f.events_before, f.events_after, f.script
                    );
                    let _ = std::fs::write(path, body);
                }
            }
            let detail = match report.failures.first() {
                None => format!("{} scenarios, 0 divergences", report.scenarios),
                Some(f) => format!(
                    "{} divergence(s) in {} scenarios; first: seed {:#018x}, {}, shrunk to {} \
                     event(s):\n{}",
                    report.failures.len(),
                    report.scenarios,
                    f.seed,
                    f.reason,
                    f.events_after,
                    f.script
                ),
            };
            vec![simcheck::Outcome::bool(
                format!("fuzz chunk {} [{} scenario(s)]", chunk, report.scenarios),
                report.failures.is_empty(),
                detail,
            )]
        };
        Ok(Box::new(outcomes))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let mut checks = Vec::new();
        let mut oracle_n = 0usize;
        let mut meta_n = 0usize;
        let mut fuzz_scenarios = 0usize;
        for p in points {
            let outcomes = expect_value::<Vec<simcheck::Outcome>>(points, p.index);
            for o in outcomes {
                if p.index < Self::meta_base(fidelity) {
                    oracle_n += 1;
                } else if p.index < Self::fuzz_base(fidelity) {
                    meta_n += 1;
                } else if let Some(n) = o
                    .name
                    .rsplit('[')
                    .next()
                    .and_then(|t| t.split_whitespace().next())
                    .and_then(|t| t.parse::<usize>().ok())
                {
                    fuzz_scenarios += n;
                }
                checks.push(Check::new(o.name.clone(), o.pass, o.detail.clone()));
            }
        }
        let failed = checks.iter().filter(|c| !c.pass).count();
        vec![FigureData {
            id: "validate",
            title: format!(
                "Model validation: {} oracle checks, {} metamorphic invariants, {} fuzzed \
                 scenarios ({} failure(s))",
                oracle_n, meta_n, fuzz_scenarios, failed
            ),
            xlabel: "check",
            ylabel: "verdict",
            series: Vec::new(),
            notes: vec![
                "closed-form oracles on every cluster preset (DESIGN.md §11): eager α+β·size, \
                 rendezvous bandwidth, threshold crossover, turbo ladders, memory saturation, \
                 max-min shares"
                    .into(),
                "collective oracles on every fabric preset (DESIGN.md §14): ring allreduce \
                 2(n−1)·t(⌈s/n⌉), tree bcast ⌈log₂n⌉·(α+β·size), alltoall (n−1)·t and the \
                 busiest-link bisection bound"
                    .into(),
                "metamorphic invariants over random fluid scenarios: determinism, \
                 time-translation, permutation symmetry, monotonicity, conservation"
                    .into(),
                "collective invariants: rank-permutation symmetry (switch), interleave \
                 independence, per-link byte conservation; plus differential fuzz of random \
                 schedules against a sequential reference"
                    .into(),
                format!(
                    "differential fuzz: incremental vs reference solver (bit-exact) and permuted \
                     insertion orders, {} scenarios, failures shrunk to minimal scripts",
                    fuzz_scenarios
                ),
            ],
            checks,
            runs: Vec::new(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::quick;

    #[test]
    fn quick_validation_passes_every_check() {
        let f = quick(&Validate { fuzz_budget: None }).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
        // All three layers contributed.
        assert!(f.checks.len() > Validate::oracle_points());
        assert!(f.title.contains("0 failure(s)"), "{}", f.title);
    }

    #[test]
    fn plan_chunks_the_fuzz_budget() {
        // The fluid chunks sit between fuzz_base and the last point (the
        // collective fuzz); the last chunk's label carries the chunk count
        // and the remainder.
        for (fuzz_budget, last_chunk) in [
            (None, "differential fuzz chunk 1 (10 scenarios)"),
            (Some(100), "differential fuzz chunk 1 (50 scenarios)"),
            (Some(120), "differential fuzz chunk 2 (20 scenarios)"),
        ] {
            let v = Validate { fuzz_budget };
            let plan = v.plan(Fidelity::Quick);
            let coll = v.coll_fuzz_index(Fidelity::Quick);
            assert_eq!(coll, plan.len() - 1);
            assert_eq!(plan[coll - 1].label, last_chunk);
        }
    }
}
