//! The placement advisor: trains two [`Model`]s (communication and
//! computation penalty) over harvested pairs and answers the two queries a
//! scheduler would issue — *predict* the co-location penalty of a pair it
//! has never co-run, and *rank* candidate placements by predicted
//! interference. Prediction only ever executes the pair's two **alone**
//! steps; the together step is what the model replaces.

use interference::codec::{Dec, Enc};
use interference::experiments::harvest::{
    self, PairSpec, TrainingPair, FEATURES, MEM_CHANNEL_FEATURE, METRIC_FLAG_FEATURE,
};
use interference::experiments::Fidelity;
use topology::Placement;

use crate::learn::{self, Model, Params};

/// Expand a raw harvest feature vector with the latency-regime
/// interactions: the raw vector, then `metric_is_lat × f` for every other
/// raw feature. Latency and bandwidth pairs live in different physical
/// regimes (a ping-pong's microseconds vs a saturated channel's share);
/// the expansion lets one linear model carry a separate slope per regime
/// while stumps keep seeing the raw coordinates. A pure function of the
/// input, so predictions stay bit-deterministic.
pub fn engineer(features: &[f64]) -> Vec<f64> {
    let lat = features[METRIC_FLAG_FEATURE];
    let mut v = features.to_vec();
    for (j, f) in features.iter().enumerate() {
        if j != METRIC_FLAG_FEATURE {
            v.push(lat * f);
        }
    }
    v
}

/// Learner hyper-parameters used by every in-repo caller: defaults plus a
/// monotone-up constraint on the memory-channel-pressure feature (more
/// channel traffic never predicts less interference).
pub fn default_params() -> Params {
    Params {
        monotone_up: vec![MEM_CHANNEL_FEATURE],
        ..Params::default()
    }
}

/// A trained pair of models: communication- and computation-side
/// penalties over the same feature vector.
#[derive(Clone, Debug, PartialEq)]
pub struct Advisor {
    /// Communication-penalty model.
    pub comm: Model,
    /// Computation-penalty model.
    pub compute: Model,
}

/// One entry of a `rank-placements` answer, best (lowest combined
/// penalty) first.
#[derive(Clone, Debug)]
pub struct RankedPlacement {
    /// Index into [`Placement::all_combinations`].
    pub placement: usize,
    /// Human-readable placement label.
    pub label: &'static str,
    /// Predicted communication penalty (×).
    pub comm: f64,
    /// Predicted computation penalty (×).
    pub compute: f64,
    /// Combined penalty `comm × compute` — the ranking key.
    pub combined: f64,
}

impl Advisor {
    /// Train on harvested pairs with the given hyper-parameters.
    ///
    /// # Panics
    /// On an empty training set.
    pub fn train(pairs: &[TrainingPair], params: &Params) -> Advisor {
        let features: Vec<Vec<f64>> = pairs.iter().map(|p| engineer(&p.features)).collect();
        let comm_t: Vec<f64> = pairs.iter().map(|p| p.comm_penalty).collect();
        let comp_t: Vec<f64> = pairs.iter().map(|p| p.compute_penalty).collect();
        Advisor {
            comm: learn::train(&features, &comm_t, params),
            compute: learn::train(&features, &comp_t, params),
        }
    }

    /// Train on the pairs surviving `keep` — the leave-one-out /
    /// unseen-pair path (e.g. drop every pair sharing the query's
    /// workload family).
    pub fn train_excluding(
        pairs: &[TrainingPair],
        params: &Params,
        keep: impl Fn(&PairSpec) -> bool,
    ) -> Option<Advisor> {
        let kept: Vec<TrainingPair> = pairs.iter().filter(|p| keep(&p.spec)).cloned().collect();
        if kept.is_empty() {
            return None;
        }
        Some(Advisor::train(&kept, params))
    }

    /// Predicted (comm, compute) penalties for a raw feature vector.
    pub fn predict_features(&self, features: &[f64]) -> (f64, f64) {
        let x = engineer(features);
        (self.comm.predict(&x), self.compute.predict(&x))
    }

    /// Predicted combined penalty for a raw feature vector.
    pub fn predict_combined(&self, features: &[f64]) -> f64 {
        let (c, k) = self.predict_features(features);
        c * k
    }

    /// Predict the co-location penalty of a pair spec by running only its
    /// alone steps and pushing the counters through the models.
    pub fn predict_spec(&self, spec: &PairSpec, fidelity: Fidelity) -> Result<(f64, f64), String> {
        let features = harvest::alone_features(spec, fidelity)?;
        Ok(self.predict_features(&features))
    }

    /// Rank every candidate placement of a (preset, family, cores, metric)
    /// query by predicted combined penalty, best first. Ties resolve to
    /// the lower placement index, so the ordering is deterministic.
    pub fn rank_placements(
        &self,
        base: &PairSpec,
        fidelity: Fidelity,
    ) -> Result<Vec<RankedPlacement>, String> {
        let mut out = Vec::new();
        for (i, (label, _)) in Placement::all_combinations().iter().enumerate() {
            let spec = PairSpec {
                placement: i,
                ..*base
            };
            let (comm, compute) = self.predict_spec(&spec, fidelity)?;
            out.push(RankedPlacement {
                placement: i,
                label,
                comm,
                compute,
                combined: comm * compute,
            });
        }
        out.sort_by(|a, b| {
            a.combined
                .total_cmp(&b.combined)
                .then(a.placement.cmp(&b.placement))
        });
        Ok(out)
    }

    /// Exact-bits model file: both models plus the feature-table arity
    /// (so a stale file can't silently score permuted features).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(FEATURES.len() as u32);
        let comm = self.comm.encode();
        let compute = self.compute.encode();
        e.u32(comm.len() as u32);
        for b in &comm {
            e.u8(*b);
        }
        e.u32(compute.len() as u32);
        for b in &compute {
            e.u8(*b);
        }
        e.into_bytes()
    }

    /// Inverse of [`Advisor::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Advisor> {
        let mut d = Dec::new(bytes);
        if d.u32()? as usize != FEATURES.len() {
            return None;
        }
        let nc = d.u32()? as usize;
        let mut comm = Vec::with_capacity(nc);
        for _ in 0..nc {
            comm.push(d.u8()?);
        }
        let nk = d.u32()? as usize;
        let mut compute = Vec::with_capacity(nk);
        for _ in 0..nk {
            compute.push(d.u8()?);
        }
        d.finish(Advisor {
            comm: Model::decode(&comm)?,
            compute: Model::decode(&compute)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interference::experiments::harvest::Family;
    use topology::presets::Preset;

    fn tiny_pairs() -> Vec<TrainingPair> {
        // Small but real harvest: one preset, one family keeps it quick.
        let exp = harvest::Harvest {
            filter: Some(|s: &PairSpec| {
                s.preset == Preset::Henri && matches!(s.family, Family::Stream | Family::Gemm)
            }),
        };
        let opts = interference::campaign::CampaignOptions::serial(Fidelity::Quick);
        let outs = interference::campaign::run_outcomes_with_store(&exp, &opts, None);
        harvest::collect_pairs(&outs)
    }

    #[test]
    fn advisor_trains_predicts_and_roundtrips() {
        let pairs = tiny_pairs();
        assert!(pairs.len() >= 16);
        let adv = Advisor::train(&pairs, &default_params());
        let (c, k) = adv.predict_features(&pairs[0].features);
        assert!(c.is_finite() && c > 0.0);
        assert!(k.is_finite() && k > 0.0);
        let d = Advisor::decode(&adv.encode()).expect("roundtrip");
        assert_eq!(d, adv);
        // A truncated or arity-mismatched file is rejected.
        assert!(Advisor::decode(&adv.encode()[..10]).is_none());
    }

    #[test]
    fn excluding_everything_yields_none() {
        let pairs = tiny_pairs();
        assert!(Advisor::train_excluding(&pairs, &default_params(), |_| false).is_none());
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let pairs = tiny_pairs();
        let adv = Advisor::train(&pairs, &default_params());
        let base = PairSpec {
            preset: Preset::Henri,
            placement: 0,
            family: Family::Stream,
            cores: 6,
            metric: interference::experiments::contention::Metric::Bandwidth,
        };
        let a = adv.rank_placements(&base, Fidelity::Quick).expect("rank");
        let b = adv.rank_placements(&base, Fidelity::Quick).expect("rank");
        assert_eq!(a.len(), 4);
        let order_a: Vec<usize> = a.iter().map(|r| r.placement).collect();
        let order_b: Vec<usize> = b.iter().map(|r| r.placement).collect();
        assert_eq!(order_a, order_b);
        assert!(a.windows(2).all(|w| w[0].combined <= w[1].combined));
    }
}
