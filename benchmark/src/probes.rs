//! Probes of layers no workload times by itself: the placement advisor and
//! the result store. They run after the measured phase of the traced
//! `predict_check` child, on its harvested points, and feed only per-layer
//! metrics.

use std::path::PathBuf;
use std::time::Instant;

use interference::campaign::{Experiment, PointOutcome};
use interference::experiments::harvest;
use interference::experiments::Fidelity;
use interference::{Lookup, ResultStore};
use predict::advisor::{default_params, Advisor};

use crate::stats::quantile_of;
use crate::trace::Spans;
use crate::workload::Ops;

/// Median and 90th percentile of the harvest's per-point wall times.
pub fn harvest_walls(points: &[PointOutcome]) -> Vec<(String, f64)> {
    let ms: Vec<f64> = points.iter().map(|p| p.wall.as_secs_f64() * 1e3).collect();
    vec![
        ("predict.harvest_point_ms_p50".into(), quantile_of(&ms, 0.5)),
        ("predict.harvest_point_ms_p90".into(), quantile_of(&ms, 0.9)),
    ]
}

/// `repro rank-placements` without the harvest: train with the query's
/// (preset, family) held out, rank its placements cold, then rank again on
/// the trained advisor.
pub fn advisor(
    points: &[PointOutcome],
    fidelity: Fidelity,
    spans: &mut Spans,
    ops: &mut Ops,
) -> Vec<(String, f64)> {
    let pairs = harvest::collect_pairs(points);
    let query = harvest::grid(fidelity)[0];
    let params = default_params();
    let cold = Instant::now();
    let advisor = spans.time("predict.train", |_| {
        Advisor::train_excluding(&pairs, &params, |s| {
            !(s.preset == query.preset && s.family == query.family)
        })
    });
    let train_s = cold.elapsed().as_secs_f64();
    let Some(advisor) = advisor else {
        ops.check("advisor trains", false);
        return Vec::new();
    };
    let first = spans.time("predict.query", |_| {
        advisor.rank_placements(&query, fidelity)
    });
    let cold_s = cold.elapsed().as_secs_f64();
    let warm = Instant::now();
    let second = spans.time("predict.query", |_| {
        advisor.rank_placements(&query, fidelity)
    });
    let warm_us = warm.elapsed().as_secs_f64() * 1e6;
    let order = |r: &Result<Vec<predict::RankedPlacement>, String>| -> Option<Vec<usize>> {
        r.as_ref()
            .ok()
            .map(|v| v.iter().map(|p| p.placement).collect())
    };
    ops.check(
        "advisor ranks placements identically cold and warm",
        order(&first).is_some() && order(&first) == order(&second),
    );
    vec![
        ("predict.train_s".into(), train_s),
        ("predict.cold_query_s".into(), cold_s),
        ("predict.warm_query_us".into(), warm_us),
    ]
}

/// Replay the harvested point payloads through `ResultStore::put` into a
/// fresh directory, then `get` each one back. Per-entry medians; every put
/// syncs its file, so these are storage-bound.
pub fn store(
    exp: &dyn Experiment,
    points: &[PointOutcome],
    spans: &mut Spans,
    ops: &mut Ops,
) -> Vec<(String, f64)> {
    let payloads: Vec<(String, Vec<u8>)> = points
        .iter()
        .filter_map(|p| {
            let bytes = exp.encode_value(p.value.as_ref()?)?;
            Some((format!("probe/{}", p.index), bytes))
        })
        .collect();
    let dir = scratch_dir("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let store = match ResultStore::open(&dir) {
        Ok(s) => s,
        Err(e) => {
            ops.check(&format!("store opens: {}", e), false);
            return Vec::new();
        }
    };
    let mut put_ms = Vec::with_capacity(payloads.len());
    for (key, bytes) in &payloads {
        let t = Instant::now();
        let res = spans.time("store.put", |_| store.put(key, bytes));
        put_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops.check("store put", res.is_ok());
    }
    let mut get_ms = Vec::with_capacity(payloads.len());
    for (key, bytes) in &payloads {
        let t = Instant::now();
        let got = spans.time("store.get", |_| store.get(key));
        get_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ops.check(
            "store get returns the payload",
            got == Lookup::Hit(bytes.clone()),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    let entry_bytes: usize = payloads.iter().map(|(_, b)| b.len()).sum();
    if payloads.is_empty() {
        ops.check("store probe has payloads", false);
        return Vec::new();
    }
    vec![
        ("store.put_ms_p50".into(), quantile_of(&put_ms, 0.5)),
        ("store.get_ms_p50".into(), quantile_of(&get_ms, 0.5)),
        ("store.entry_bytes".into(), entry_bytes as f64),
    ]
}

/// A per-process directory next to the benchmark executable, so the probe
/// writes only inside the build directory.
fn scratch_dir(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("the executable lives in a directory")
        .join(format!("benchmark-{}-{}", name, std::process::id()))
}
