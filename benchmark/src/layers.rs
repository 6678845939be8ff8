//! Per-layer metrics: their names and units, and how a traced run's
//! journal counters, spans and probes turn into values.

use std::collections::BTreeMap;

use interference::experiments;
use simcore::Journal;

use crate::trace::Spans;
use crate::workload::RunResult;

/// Journal counters reported as they are: (metric, counter, unit).
const COUNTERS: &[(&str, &str, &str)] = &[
    ("queue.events", "engine.events", "count"),
    ("queue.inserts", "engine.queue.inserts", "count"),
    ("queue.cancels", "engine.queue.cancels", "count"),
    (
        "queue.batch_instants",
        "engine.queue.batch_instants",
        "count",
    ),
    ("fluid.reallocs", "fluid.reallocs", "count"),
    ("fluid.components", "fluid.components", "count"),
    (
        "fluid.flows_visited",
        "fluid.realloc_flows_visited",
        "count",
    ),
    ("fluid.waterfill", "fluid.waterfill", "count"),
    ("netsim.pio_bytes", "net.pio.bytes", "B"),
    ("netsim.dma_bytes", "net.dma.bytes", "B"),
    ("netsim.retrans", "net.retrans", "count"),
    ("netsim.route_intern_hits", "net.route.intern_hit", "count"),
    ("mpisim.match_probes", "mpi.match.probes", "count"),
    ("mpisim.match_bin_hits", "mpi.match.bin_hit", "count"),
    ("memsim.channel_bytes", "mem.channel.bytes", "B"),
    ("memsim.stall_ps", "mem.stall_ps", "ps"),
    ("freq.transitions", "freq.transitions", "count"),
    ("taskrt.dispatches", "rt.dispatches", "count"),
];

/// Ratios of counters: (metric, numerator, denominator). Zero when the
/// denominator is.
const RATIOS: &[(&str, &str, &[&str])] = &[
    (
        "fluid.flows_per_realloc",
        "fluid.realloc_flows_visited",
        &["fluid.reallocs"],
    ),
    (
        "netsim.reg_hit_ratio",
        "net.reg_hit",
        &["net.reg_hit", "net.reg_miss"],
    ),
    (
        "mpisim.probes_per_message",
        "mpi.match.probes",
        &["mpi.match.bin_hit"],
    ),
];

/// Benchmark-side spans reported as seconds: (metric, span name).
const SPANS: &[(&str, &str)] = &[
    ("collective.schedule_build_s", "collective.schedule_build"),
    ("topology.fabric_build_s", "topology.fabric_build"),
    ("mpisim.cluster_build_s", "mpisim.cluster_build"),
    ("collective.run_s", "collective.run"),
    ("predict.finalize_s", "predict.finalize"),
];

/// Metrics the workloads and probes measure themselves: (metric, unit).
const MEASURED: &[(&str, &str)] = &[
    ("collective.cache_hits", "count"),
    ("collective.cache_misses", "count"),
    ("campaign.points", "count"),
    ("campaign.baseline_hit_ratio", "ratio"),
    ("store.put_ms_p50", "ms"),
    ("store.get_ms_p50", "ms"),
    ("store.entry_bytes", "B"),
    ("predict.harvest_point_ms_p50", "ms"),
    ("predict.harvest_point_ms_p90", "ms"),
    ("predict.train_s", "s"),
    ("predict.cold_query_s", "s"),
    ("predict.warm_query_us", "us"),
    ("telemetry.records", "count"),
];

/// Metrics the parent derives from untraced and traced children together.
pub const QUEUE_NS_PER_EVENT: &str = "queue.ns_per_event";
pub const TELEMETRY_OVERHEAD: &str = "telemetry.overhead_frac";

/// Every per-layer metric with its unit, in report order.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    out.extend(COUNTERS.iter().map(|&(m, _, u)| (m.to_string(), u)));
    out.push((QUEUE_NS_PER_EVENT.into(), "ns"));
    out.extend(RATIOS.iter().map(|&(m, _, _)| (m.to_string(), "ratio")));
    out.extend(SPANS.iter().map(|&(m, _)| (m.to_string(), "s")));
    out.extend(MEASURED.iter().map(|&(m, u)| (m.to_string(), u)));
    out.extend(
        experiments::all_experiments()
            .iter()
            .map(|e| (format!("campaign.busy_s.{}", e.name()), "s")),
    );
    out.push((TELEMETRY_OVERHEAD.into(), "ratio"));
    out
}

/// The per-layer values one traced child measured: every catalog metric
/// except the two the parent derives, zero where the workload never
/// touched the layer.
pub fn from_traced(run: &RunResult, spans: &Spans) -> BTreeMap<String, f64> {
    let empty = Journal::default();
    let journal = run.journal.as_ref().unwrap_or(&empty);
    let counter = |name: &str| journal.counters.get(name).copied().unwrap_or(0) as f64;
    let mut out = BTreeMap::new();
    for &(metric, name, _) in COUNTERS {
        out.insert(metric.to_string(), counter(name));
    }
    for &(metric, num, den) in RATIOS {
        let d: f64 = den.iter().map(|n| counter(n)).sum();
        out.insert(
            metric.to_string(),
            if d > 0.0 { counter(num) / d } else { 0.0 },
        );
    }
    for &(metric, span) in SPANS {
        out.insert(metric.to_string(), spans.total_s(span));
    }
    for (metric, _) in catalog() {
        if metric != QUEUE_NS_PER_EVENT && metric != TELEMETRY_OVERHEAD {
            out.entry(metric).or_insert(0.0);
        }
    }
    for (k, v) in &run.layers {
        out.insert(k.clone(), *v);
    }
    out.insert("telemetry.records".into(), journal.records.len() as f64);
    out
}
