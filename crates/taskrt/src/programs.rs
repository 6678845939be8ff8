//! Distributed use-cases: dense CG and GEMM over two ranks (§6).
//!
//! Both programs mirror the paper's setup: the matrix is row-partitioned
//! across the two MPI processes, each iteration runs one panel of compute
//! tasks per worker and exchanges one message per direction (the updated
//! vector half for CG, a tile panel for GEMM). The execution parameters are
//! *independent of the worker count* — "regardless of the number of
//! computing cores, the execution parameters are the same: matrix sizes
//! and/or number of iterations, hence the amount of network communications
//! is also the same".
//!
//! The measured outputs reproduce Figure 10:
//!
//! * **sending bandwidth** from the communication library's profiler
//!   (bytes / time-to-drain-the-send, at the sender);
//! * **memory-stall fraction** of the compute tasks (the pmu-tools
//!   equivalent).

use freq::License;
use kernels::gemm;
use memsim::exec::Phase;
use mpisim::{Cluster, ClusterEvent, SendRecord};
use simcore::SimTime;
use topology::CoreId;

use crate::{RtRouted, Runtime, TaskSpec};

/// Which §6 kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UseCase {
    /// Dense conjugate gradient (memory-bound, AI ≈ 0.25 flop/B).
    Cg,
    /// Dense matrix multiplication (compute-bound, AI ≈ 28 flop/B).
    Gemm,
}

impl UseCase {
    /// Paper-scale problem size: CG system size `n` = 16384 (64 KiB
    /// vector-half exchanges), or GEMM tile size 512 (8 MiB panel
    /// exchanges).
    pub fn scale(self) -> usize {
        match self {
            UseCase::Cg => 16_384,
            UseCase::Gemm => 512,
        }
    }
}

/// Parameters of a distributed run.
#[derive(Clone, Copy, Debug)]
pub struct UseCaseConfig {
    /// Which kernel.
    pub kind: UseCase,
    /// Workers per node.
    pub workers: usize,
    /// Iterations (CG iterations / GEMM panel rounds).
    pub iterations: u32,
}

impl UseCaseConfig {
    /// Paper-scale CG.
    pub fn cg(workers: usize, iterations: u32) -> UseCaseConfig {
        UseCaseConfig {
            kind: UseCase::Cg,
            workers,
            iterations,
        }
    }

    /// Paper-scale GEMM.
    pub fn gemm(workers: usize, iterations: u32) -> UseCaseConfig {
        UseCaseConfig {
            kind: UseCase::Gemm,
            workers,
            iterations,
        }
    }

    /// Bytes exchanged per direction per iteration.
    pub fn message_size(&self) -> usize {
        let scale = self.kind.scale();
        match self.kind {
            // Updated half-vector broadcast.
            UseCase::Cg => 8 * scale / 2,
            // A panel of 4 B-tiles.
            UseCase::Gemm => 4 * 8 * scale * scale,
        }
    }

    /// The compute phases of one node's iteration, split across `workers`
    /// tasks. Work per iteration is fixed; more workers → smaller tasks.
    fn tasks_per_iteration(&self, cluster: &Cluster, node: usize) -> Vec<Vec<Phase>> {
        let data = cluster.data_numa[node];
        match self.kind {
            UseCase::Cg => {
                let n = self.kind.scale() as f64;
                // This node owns n/2 rows: GEMV slice + vector ops, split
                // evenly across workers.
                let total_flops = n * n + 10.0 * n;
                let total_bytes = 4.0 * n * n + 56.0 * n;
                let w = self.workers as f64;
                (0..self.workers)
                    .map(|_| {
                        vec![Phase {
                            flops: total_flops / w,
                            bytes: total_bytes / w,
                            data,
                            license: License::Avx512,
                        }]
                    })
                    .collect()
            }
            UseCase::Gemm => {
                // A fixed panel of tile products per iteration, round-
                // robined across workers. More workers → more parallelism,
                // same total work. Unlike the CG matrix (allocated once at
                // init, hence homed on a single NUMA node), GEMM tiles are
                // first-touched by the workers and spread across NUMA
                // nodes — which is exactly why the paper sees GEMM's
                // communications suffer far less than CG's.
                // Tiles spread across the NUMA nodes of the first socket
                // (the panels are first-touched early, before workers fan
                // out across the second socket).
                let numa_count = cluster.spec.numa_per_socket.max(1);
                let tiles = 8.max(self.workers);
                let mut tasks: Vec<Vec<Phase>> = vec![Vec::new(); self.workers];
                for t in 0..tiles {
                    tasks[t % self.workers].extend(gemm::tile_phases_bursty(
                        self.kind.scale(),
                        topology::NumaId(t as u32 % numa_count),
                    ));
                }
                tasks.retain(|t| !t.is_empty());
                tasks
            }
        }
    }
}

/// Measured outputs of a distributed run (one Figure 10 x-position).
#[derive(Clone, Debug)]
pub struct UseCaseResult {
    /// All profiler records (one per message sent).
    pub sends: Vec<SendRecord>,
    /// Mean sending bandwidth, bytes/s.
    pub mean_send_bw: f64,
    /// Mean memory-stall fraction of compute tasks, in [0, 1].
    pub stall_fraction: f64,
    /// Total runtime.
    pub elapsed: SimTime,
    /// Tasks executed.
    pub tasks_done: usize,
}

/// Run a distributed use-case. Workers must already be attached to the
/// runtime on both nodes (exactly `cfg.workers` of them each).
pub fn run(cluster: &mut Cluster, rt: &mut Runtime, cfg: UseCaseConfig) -> UseCaseResult {
    assert!(cfg.workers >= 1);
    assert!(cfg.iterations >= 1);
    cluster.enable_profiling();
    let t0 = cluster.engine.now();
    let profile_start = cluster.send_profile().len();
    let mut stall_sum = 0.0;
    let mut tasks_done = 0usize;

    for iter in 0..cfg.iterations {
        // Submit this iteration's tasks on both nodes.
        let mut expected = 0usize;
        for node in 0..2 {
            for phases in cfg.tasks_per_iteration(cluster, node) {
                rt.submit(
                    cluster,
                    node,
                    TaskSpec {
                        phases,
                        deps: vec![],
                    },
                );
                expected += 1;
            }
        }
        // Exchange one message per direction (recycled buffers).
        let mtag = 0x500 + iter;
        let r0 = cluster.irecv(0, mtag);
        let r1 = cluster.irecv(1, mtag);
        cluster.isend(0, cfg.message_size(), mtag, 0x7000);
        cluster.isend(1, cfg.message_size(), mtag, 0x7001);

        // Iteration barrier: all tasks done, both messages delivered.
        let (mut done, mut recvs) = (0usize, 2);
        while done < expected || recvs > 0 {
            let ev = cluster.step().expect("use-case stalled");
            if matches!(ev, ClusterEvent::RecvComplete(r) if r == r0 || r == r1) {
                recvs -= 1;
            }
            if let RtRouted::TaskDone(t) = rt.handle(cluster, ev) {
                stall_sum += t.stats.stall_fraction();
                tasks_done += 1;
                done += 1;
            }
        }
    }

    let sends: Vec<SendRecord> = cluster.send_profile()[profile_start..].to_vec();
    let mean_send_bw = if sends.is_empty() {
        0.0
    } else {
        sends.iter().map(|s| s.bandwidth()).sum::<f64>() / sends.len() as f64
    };
    UseCaseResult {
        mean_send_bw,
        stall_fraction: if tasks_done > 0 {
            stall_sum / tasks_done as f64
        } else {
            0.0
        },
        elapsed: cluster.engine.now() - t0,
        tasks_done,
        sends,
    }
}

/// Convenience: build a cluster-wide worker set of the first `n` compute
/// cores on both nodes.
pub fn attach_n_workers(cluster: &mut Cluster, rt: &mut Runtime, n: usize) {
    let cores: Vec<CoreId> = cluster.compute_cores()[..n].to_vec();
    rt.attach_workers(cluster, 0, &cores);
    rt.attach_workers(cluster, 1, &cores);
}

/// The paper's future-work idea, implemented as an extension: pick the
/// worker count that maximizes a combined throughput score (task throughput
/// × send bandwidth, both normalized) by sweeping candidate counts.
pub fn autotune_workers(
    make_cluster: impl Fn() -> Cluster,
    cfg_for: impl Fn(usize) -> UseCaseConfig,
    candidates: &[usize],
) -> (usize, Vec<(usize, f64)>) {
    assert!(!candidates.is_empty());
    let mut scores = Vec::new();
    let mut results = Vec::new();
    for &w in candidates {
        let mut cluster = make_cluster();
        let mut rt = Runtime::new(crate::RuntimeConfig::for_machine(&cluster.spec));
        attach_n_workers(&mut cluster, &mut rt, w);
        let res = run(&mut cluster, &mut rt, cfg_for(w));
        results.push((w, res.clone()));
        let _ = &res;
    }
    // Normalize: task throughput (tasks/s) and send bandwidth.
    let max_tp = results
        .iter()
        .map(|(_, r)| r.tasks_done as f64 / r.elapsed.as_secs_f64())
        .fold(0.0f64, f64::max);
    let max_bw = results
        .iter()
        .map(|(_, r)| r.mean_send_bw)
        .fold(0.0f64, f64::max);
    for (w, r) in &results {
        let tp = r.tasks_done as f64 / r.elapsed.as_secs_f64();
        let score = (tp / max_tp.max(1e-30)) * (r.mean_send_bw / max_bw.max(1e-30));
        scores.push((*w, score));
    }
    let best = scores
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty")
        .0;
    (best, scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use freq::{Governor, UncorePolicy};
    use topology::{henri, BindingPolicy, Placement};

    fn cluster() -> Cluster {
        Cluster::new(
            &henri(),
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
            Placement {
                comm_thread: BindingPolicy::FarFromNic,
                data: BindingPolicy::NearNic,
            },
        )
    }

    fn run_case(cfg: UseCaseConfig) -> UseCaseResult {
        let mut c = cluster();
        let mut rt = Runtime::new(RuntimeConfig::for_machine(&c.spec));
        attach_n_workers(&mut c, &mut rt, cfg.workers);
        run(&mut c, &mut rt, cfg)
    }

    #[test]
    fn cg_runs_and_reports() {
        let r = run_case(UseCaseConfig::cg(4, 2));
        assert_eq!(r.tasks_done, 2 * 2 * 4);
        assert_eq!(r.sends.len(), 2 * 2);
        assert!(r.mean_send_bw > 0.0);
        assert!(r.elapsed > SimTime::ZERO);
    }

    #[test]
    fn cg_more_workers_more_interference() {
        // Figure 10 top: send bandwidth decreases with worker count.
        let few = run_case(UseCaseConfig::cg(2, 2));
        let many = run_case(UseCaseConfig::cg(30, 2));
        assert!(
            many.mean_send_bw < few.mean_send_bw * 0.6,
            "few {} many {}",
            few.mean_send_bw,
            many.mean_send_bw
        );
        // Figure 10 bottom: stall fraction rises with worker count.
        assert!(many.stall_fraction > few.stall_fraction);
        assert!(many.stall_fraction > 0.5, "stall {}", many.stall_fraction);
    }

    #[test]
    fn gemm_less_affected_than_cg() {
        // §6: CG loses up to 90 %, GEMM at most ~20 %; CG stalls ~70 %,
        // GEMM ~20 %.
        let cg_few = run_case(UseCaseConfig::cg(2, 2));
        let cg_many = run_case(UseCaseConfig::cg(30, 2));
        let gm_few = run_case(UseCaseConfig::gemm(2, 2));
        let gm_many = run_case(UseCaseConfig::gemm(30, 2));
        let cg_loss = 1.0 - cg_many.mean_send_bw / cg_few.mean_send_bw;
        let gm_loss = 1.0 - gm_many.mean_send_bw / gm_few.mean_send_bw;
        assert!(cg_loss > gm_loss + 0.2, "cg {} gemm {}", cg_loss, gm_loss);
        assert!(cg_many.stall_fraction > gm_many.stall_fraction);
    }

    #[test]
    fn message_sizes() {
        assert_eq!(UseCaseConfig::cg(1, 1).message_size(), 64 * 1024);
        assert_eq!(UseCaseConfig::gemm(1, 1).message_size(), 8 << 20);
    }

    #[test]
    fn autotune_picks_a_candidate() {
        let (best, scores) = autotune_workers(cluster, |w| UseCaseConfig::cg(w, 1), &[2, 8, 20]);
        assert!(scores.iter().any(|(w, _)| *w == best));
        assert_eq!(scores.len(), 3);
        // Scores are normalized products: all within [0, 1].
        assert!(scores.iter().all(|(_, s)| (0.0..=1.0).contains(s)));
    }
}
