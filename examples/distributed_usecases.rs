//! Distributed use-cases on the task runtime: dense CG vs GEMM over two
//! ranks (§6, Figure 10), plus the paper's future-work idea — automatic
//! worker-count selection — implemented as `taskrt::programs::autotune`.
//!
//! ```text
//! cargo run --release --example distributed_usecases
//! ```

use freq::{Governor, UncorePolicy};
use mpisim::Cluster;
use taskrt::programs::{self, UseCaseConfig};
use taskrt::{Runtime, RuntimeConfig};
use topology::{henri, Placement};

fn fresh_cluster() -> Cluster {
    Cluster::new(
        &henri(),
        Governor::Performance { turbo: true },
        UncorePolicy::Auto,
        Placement::fig4_default(),
    )
}

fn main() {
    // The real solvers the distributed programs model:
    let mut rng = simcore::Pcg32::new(42, 0);
    let n = 48;
    let a = kernels::cg::random_spd(n, &mut rng);
    let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let sol = kernels::cg::solve(&a, &b, 1e-10, 10 * n);
    println!(
        "real CG sanity: {}x{} SPD system solved in {} iterations, residual {:.2e}\n",
        n, n, sol.iterations, sol.residual
    );

    println!(
        "{:>8} {:>18} {:>14} {:>18} {:>14}",
        "workers", "CG send bw", "CG stalls", "GEMM send bw", "GEMM stalls"
    );
    let mut cg_base = None;
    let mut gemm_base = None;
    for &w in &[1usize, 4, 8, 16, 25, 35] {
        let run = |cfg: UseCaseConfig| {
            let mut cluster = fresh_cluster();
            let mut rt = Runtime::new(RuntimeConfig::for_machine(&cluster.spec));
            programs::attach_n_workers(&mut cluster, &mut rt, cfg.workers);
            programs::run(&mut cluster, &mut rt, cfg)
        };
        let cg = run(UseCaseConfig::cg(w, 2));
        let gemm = run(UseCaseConfig::gemm(w, 2));
        let cg_b = *cg_base.get_or_insert(cg.mean_send_bw);
        let gemm_b = *gemm_base.get_or_insert(gemm.mean_send_bw);
        println!(
            "{:>8} {:>11.2} GB/s ({:>3.0}%) {:>9.0} % {:>11.2} GB/s ({:>3.0}%) {:>9.0} %",
            w,
            cg.mean_send_bw / 1e9,
            cg.mean_send_bw / cg_b * 100.0,
            cg.stall_fraction * 100.0,
            gemm.mean_send_bw / 1e9,
            gemm.mean_send_bw / gemm_b * 100.0,
            gemm.stall_fraction * 100.0,
        );
    }
    println!("\npaper: CG loses up to 90 % of sending bandwidth (70 % memory stalls),");
    println!("       GEMM at most ~20 % (20 % stalls).");

    // Future-work extension: pick the worker count balancing compute
    // throughput against communication health.
    let (best, scores) = programs::autotune_workers(
        fresh_cluster,
        |w| UseCaseConfig::cg(w, 1),
        &[4, 8, 16, 25, 35],
    );
    println!(
        "\nautotuned CG worker count: {} (scores: {:?})",
        best, scores
    );
}
