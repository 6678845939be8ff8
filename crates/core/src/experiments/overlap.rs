//! Communication/computation **overlap** benchmark — the companion
//! methodology of Denis & Trahay, "MPI Overlap: Benchmark and Analysis"
//! (ICPP 2016), which the paper cites as related work [7].
//!
//! Where the paper measures *interference* (how much each side degrades),
//! the overlap benchmark measures *progression*: issue a non-blocking
//! transfer, compute for roughly the transfer's duration, then wait.
//! Perfect overlap gives `T_total ≈ max(T_comm, T_comp)`; no overlap gives
//! `T_comm + T_comp`. The overlap ratio
//!
//! ```text
//! overlap = (T_comm + T_comp − T_total) / min(T_comm, T_comp)
//! ```
//!
//! is 1 for full overlap and 0 for none. Because our communication layer
//! has a dedicated progress thread (MadMPI-style), overlap is structurally
//! high for DMA transfers — *except* that memory contention between the
//! computation and the transfer stretches `T_total` beyond the ideal
//! maximum, which is exactly the coupling this repository is about.

use freq::License;
use kernels::single_phase;
use mpisim::{Cluster, ClusterEvent, ReqId};
use simcore::{JitterFamily, Series};
use topology::{henri, NumaId};

use crate::campaign::{self, expect_value, Experiment, PointCtx, PointValue, SweepPoint};
use crate::experiments::Fidelity;
use crate::protocol::{build_cluster, ProtocolConfig};
use crate::report::{Check, FigureData};

/// The two computation profiles probed at every size: CPU-bound (AI 64)
/// and memory-bound (AI 0.1), both on 8 cores.
const PROFILES: [(&str, f64); 2] = [("cpu", 64.0), ("mem", 0.1)];
const CORES: usize = 8;

fn sizes(fidelity: Fidelity) -> Vec<usize> {
    fidelity.pick(
        &[64 << 10, 1 << 20, 8 << 20, 64 << 20],
        &[1 << 20, 64 << 20],
    )
}

/// One overlap measurement: (T_comm, T_comp, T_total) in seconds.
#[derive(Clone, Copy)]
struct OverlapPoint(f64, f64, f64);

/// One overlap measurement. `cores` computing threads run the same
/// per-core workload (the paper's weak-scaling style); several memory-bound
/// cores are needed to saturate the controller the transfer also uses.
fn measure(size: usize, ai: f64, cores: usize, seed: u64) -> OverlapPoint {
    let machine = henri();
    let mk = || {
        let cfg = ProtocolConfig::new(machine.clone(), None);
        let family = JitterFamily::new(seed);
        build_cluster(&cfg, &family, 0)
    };

    // T_comm alone: one-way delivery (buffer pre-registered by a warmup).
    let t_comm = {
        let mut c = mk();
        for warm in 0..2 {
            let r = c.irecv(1, warm);
            c.isend(0, size, warm, 0x600);
            wait_recv(&mut c, r);
        }
        let t0 = c.engine.now();
        let r = c.irecv(1, 99);
        c.isend(0, size, 99, 0x600);
        wait_recv(&mut c, r);
        (c.engine.now() - t0).as_secs_f64()
    };

    // Computation sized to roughly T_comm on one core (memory workload at
    // the requested arithmetic intensity).
    let bytes = 12e9 * t_comm; // per-core bandwidth × T_comm
    let workload = single_phase("overlap", bytes * ai, bytes, NumaId(0), License::Normal, 1);
    let t_comp = {
        let mut c = mk();
        let avail = c.compute_cores();
        let t0 = c.engine.now();
        for &core in &avail[..cores] {
            c.start_job(0, workload.on_core(core));
        }
        let mut done = 0;
        while done < cores {
            if let ClusterEvent::JobDone { .. } = c.step().expect("progress") {
                done += 1;
            }
        }
        (c.engine.now() - t0).as_secs_f64()
    };

    // T_total: isend, compute, wait — on the same node.
    let t_total = {
        let mut c = mk();
        for warm in 0..2 {
            let r = c.irecv(1, warm);
            c.isend(0, size, warm, 0x600);
            wait_recv(&mut c, r);
        }
        let avail = c.compute_cores();
        let t0 = c.engine.now();
        let r = c.irecv(1, 99);
        c.isend(0, size, 99, 0x600);
        for &core in &avail[..cores] {
            c.start_job(0, workload.on_core(core));
        }
        let mut recv_done = false;
        let mut comp_done = 0;
        while !(recv_done && comp_done == cores) {
            match c.step().expect("progress") {
                ClusterEvent::RecvComplete(rr) if rr == r => recv_done = true,
                ClusterEvent::JobDone { .. } => comp_done += 1,
                _ => {}
            }
        }
        (c.engine.now() - t0).as_secs_f64()
    };
    OverlapPoint(t_comm, t_comp, t_total)
}

/// Step `c` until receive `r` reports its completion.
fn wait_recv(c: &mut Cluster, r: ReqId) {
    while !matches!(c.step().expect("progress"), ClusterEvent::RecvComplete(x) if x == r) {}
}

/// Overlap ratio from the three durations.
pub fn overlap_ratio(t_comm: f64, t_comp: f64, t_total: f64) -> f64 {
    let saved = (t_comm + t_comp - t_total).max(0.0);
    let max_savable = t_comm.min(t_comp);
    if max_savable <= 0.0 {
        0.0
    } else {
        (saved / max_savable).min(1.0)
    }
}

/// Registry driver for the overlap study (sweep: {cpu, mem} × sizes).
pub struct Overlap;

impl Experiment for Overlap {
    fn name(&self) -> &'static str {
        "overlap"
    }

    fn anchor(&self) -> &'static str {
        "related work [7] companion study"
    }

    fn plan(&self, fidelity: Fidelity) -> Vec<SweepPoint> {
        let sizes = sizes(fidelity);
        let mut plan = Vec::new();
        for (ai_i, (tag, ai)) in PROFILES.iter().enumerate() {
            for (si, &size) in sizes.iter().enumerate() {
                plan.push(SweepPoint::new(
                    ai_i * sizes.len() + si,
                    format!("{} (AI {}) @ {} B", tag, ai, size),
                ));
            }
        }
        plan
    }

    fn run_point(&self, point: &SweepPoint, ctx: &PointCtx<'_>) -> Result<PointValue, String> {
        let sizes = sizes(ctx.fidelity);
        let (_, ai) = PROFILES[point.index / sizes.len()];
        let size = sizes[point.index % sizes.len()];
        Ok(Box::new(measure(size, ai, CORES, ctx.seed)))
    }

    fn finalize(&self, fidelity: Fidelity, points: &[campaign::PointOutcome]) -> Vec<FigureData> {
        let sizes = sizes(fidelity);
        let mut s_cpu = Series::new("overlap ratio, CPU-bound computation (AI 64)");
        let mut s_mem = Series::new("overlap ratio, memory-bound computation (AI 0.1)");
        let mut s_stretch = Series::new("T_total / max(T_comm, T_comp), memory-bound");
        for (si, &size) in sizes.iter().enumerate() {
            let OverlapPoint(c1, p1, t1) = *expect_value::<OverlapPoint>(points, si);
            s_cpu.push(size as f64, &[overlap_ratio(c1, p1, t1)]);
            let OverlapPoint(c2, p2, t2) = *expect_value::<OverlapPoint>(points, sizes.len() + si);
            s_mem.push(size as f64, &[overlap_ratio(c2, p2, t2)]);
            s_stretch.push(size as f64, &[t2 / c2.max(p2)]);
        }

        let cpu_min = s_cpu
            .points
            .iter()
            .map(|p| p.y.median)
            .fold(f64::MAX, f64::min);
        let mem_last = s_mem.points.last().expect("points").y.median;
        let stretch_last = s_stretch.points.last().expect("points").y.median;
        let checks = vec![
            Check::new(
                "dedicated progress thread gives near-full overlap for CPU-bound compute",
                cpu_min > 0.8,
                format!("worst CPU-bound overlap ratio {:.2}", cpu_min),
            ),
            Check::new(
                "memory-bound compute still overlaps (progression is not the problem…)",
                mem_last > 0.5,
                format!("large-message overlap ratio {:.2}", mem_last),
            ),
            Check::new(
                "…but contention stretches the overlapped region beyond the ideal max",
                stretch_last > 1.02,
                format!("T_total / max = {:.2}", stretch_last),
            ),
        ];

        vec![FigureData {
            id: "overlap",
            title: "Comm/comp overlap (companion study, after Denis & Trahay [7])".into(),
            xlabel: "message size (B)",
            ylabel: "overlap ratio",
            series: vec![s_cpu, s_mem, s_stretch],
            notes: vec![
                "extension: not a figure of the reproduced paper; connects its interference \
                 results to the overlap methodology it cites as related work"
                    .into(),
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
    fn ratio_bounds() {
        assert_eq!(overlap_ratio(1.0, 1.0, 2.0), 0.0);
        assert_eq!(overlap_ratio(1.0, 1.0, 1.0), 1.0);
        assert!(overlap_ratio(1.0, 2.0, 2.5) == 0.5);
        assert_eq!(overlap_ratio(0.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn overlap_quick_passes_checks() {
        let f = quick(&Overlap).remove(0);
        for c in &f.checks {
            assert!(c.pass, "{} — {}", c.name, c.detail);
        }
    }
}
