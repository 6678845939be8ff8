//! End-to-end integration tests: each test reproduces one headline finding
//! of the paper across the whole stack (topology → freq → memsim → netsim
//! → mpisim → taskrt → interference).

use freq::{Governor, UncorePolicy};
use kernels::stream::{workload, StreamKernel};
use mpisim::pingpong::{self, PingPongConfig};
use mpisim::Cluster;
use simcore::Summary;
use topology::{henri, BindingPolicy, Placement, Preset};

use interference::protocol::{self, ProtocolConfig};

fn near_near() -> Placement {
    Placement {
        comm_thread: BindingPolicy::NearNic,
        data: BindingPolicy::NearNic,
    }
}

/// §3.1: core frequency moves latency (~+72 % from 2.3 to 1.0 GHz), uncore
/// moves bandwidth slightly (~4 %).
#[test]
fn finding_frequency_effects() {
    let lat_at = |core: f64, uncore: f64| {
        let mut c = Cluster::new(
            &henri(),
            Governor::Userspace(core),
            UncorePolicy::Fixed(uncore),
            near_near(),
        );
        pingpong::run(&mut c, PingPongConfig::latency(8)).median_latency_us()
    };
    let bw_at = |core: f64, uncore: f64| {
        let mut c = Cluster::new(
            &henri(),
            Governor::Userspace(core),
            UncorePolicy::Fixed(uncore),
            near_near(),
        );
        pingpong::run(&mut c, PingPongConfig::bandwidth(2)).median_bandwidth()
    };
    let ratio = lat_at(1.0, 2.4) / lat_at(2.3, 2.4);
    assert!(
        (1.4..2.2).contains(&ratio),
        "core-frequency latency ratio {}",
        ratio
    );
    let uncore_lat = lat_at(2.3, 1.2) / lat_at(2.3, 2.4);
    assert!(
        (uncore_lat - 1.0).abs() < 0.12,
        "uncore latency ratio {}",
        uncore_lat
    );
    let bw_ratio = bw_at(2.3, 2.4) / bw_at(2.3, 1.2);
    assert!(
        (1.005..1.10).contains(&bw_ratio),
        "uncore bandwidth ratio {}",
        bw_ratio
    );
}

/// §3.2: latency is *better* beside CPU-bound computation (package-idle
/// effect), and the computation is unaffected.
#[test]
fn finding_cpu_bound_compute_helps_latency() {
    let w = kernels::primes::workload(0, 30_000, 1);
    let mut cfg = ProtocolConfig::new(henri(), Some(w));
    cfg.compute_cores = 20;
    cfg.pingpong = PingPongConfig::latency(6);
    cfg.reps = 3;
    let r = protocol::run(&cfg);
    let alone = Summary::of(&r.lat_alone()).median;
    let together = Summary::of(&r.lat_together()).median;
    assert!(
        together < alone,
        "latency together {} should beat alone {}",
        together,
        alone
    );
}

/// §4.2: memory-bound computation on all cores crushes network bandwidth
/// and doubles latency.
#[test]
fn finding_memory_contention() {
    let w = workload(StreamKernel::Triad, 2_000_000, henri().near_numa(), 1);
    let mut cfg = ProtocolConfig::new(henri(), Some(w));
    cfg.placement = Placement::fig4_default();
    cfg.compute_cores = 35;
    cfg.reps = 3;

    cfg.pingpong = PingPongConfig::latency(6);
    let lat = protocol::run(&cfg);
    let l_ratio = Summary::of(&lat.lat_together()).median / Summary::of(&lat.lat_alone()).median;
    assert!(l_ratio > 1.5, "latency inflation {}", l_ratio);

    cfg.pingpong = PingPongConfig::bandwidth(2);
    let bw = protocol::run(&cfg);
    let b_ratio = Summary::of(&bw.bw_together()).median / Summary::of(&bw.bw_alone()).median;
    assert!(b_ratio < 0.5, "bandwidth ratio {}", b_ratio);
}

/// §4.3: the four placements order as in Table 1.
#[test]
fn finding_placement_ordering() {
    let machine = henri();
    let measure = |placement: Placement| {
        let data = match placement.data {
            BindingPolicy::NearNic => machine.near_numa(),
            BindingPolicy::FarFromNic => machine.far_numa(),
            BindingPolicy::Numa(n) => n,
        };
        let w = workload(StreamKernel::Triad, 2_000_000, data, 1);
        let mut cfg = ProtocolConfig::new(machine.clone(), Some(w));
        cfg.placement = placement;
        cfg.compute_cores = 35;
        cfg.reps = 2;
        cfg.pingpong = PingPongConfig::latency(6);
        let lat = protocol::run(&cfg);
        cfg.pingpong = PingPongConfig::bandwidth(2);
        let bw = protocol::run(&cfg);
        (
            Summary::of(&lat.lat_together()).median / Summary::of(&lat.lat_alone()).median,
            1.0 - Summary::of(&bw.bw_together()).median / Summary::of(&bw.bw_alone()).median,
        )
    };
    let combos = Placement::all_combinations();
    let (nn_lat, nn_loss) = measure(combos[0].1); // near/near
    let (nf_lat, _) = measure(combos[1].1); // data near, thread far
    let (fn_lat, fn_loss) = measure(combos[2].1); // data far, thread near
                                                  // Far thread inflates latency more than near thread.
    assert!(nf_lat > nn_lat, "thread far {} vs near {}", nf_lat, nn_lat);
    // Far data loses more bandwidth than near data.
    assert!(
        fn_loss > nn_loss,
        "data far {} vs near {}",
        fn_loss,
        nn_loss
    );
    let _ = fn_lat;
}

/// §5.2: the task runtime adds tens of µs of latency, scaled per machine.
#[test]
fn finding_runtime_overheads_per_machine() {
    for (preset, expected_us) in [
        (Preset::Henri, 38.0),
        (Preset::Billy, 23.0),
        (Preset::Pyxis, 45.0),
    ] {
        let machine = preset.spec();
        let mut c = Cluster::new(
            &machine,
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
            near_near(),
        );
        let plain = pingpong::run(&mut c, PingPongConfig::latency(5)).median_latency_us();
        let mut rt = taskrt::Runtime::new(taskrt::RuntimeConfig::for_machine(&machine));
        let through =
            taskrt::pingpong::run(&mut c, &mut rt, PingPongConfig::latency(5)).median_latency_us();
        let overhead = through - plain;
        assert!(
            (overhead - expected_us).abs() / expected_us < 0.4,
            "{}: overhead {} µs (paper {})",
            machine.name,
            overhead,
            expected_us
        );
    }
}

/// §6: CG's communications suffer far more than GEMM's.
#[test]
fn finding_cg_vs_gemm() {
    use taskrt::programs::{attach_n_workers, run, UseCaseConfig};
    let go = |cfg: UseCaseConfig| {
        let mut c = Cluster::new(
            &henri(),
            Governor::Performance { turbo: true },
            UncorePolicy::Auto,
            Placement::fig4_default(),
        );
        let mut rt = taskrt::Runtime::new(taskrt::RuntimeConfig::for_machine(&c.spec));
        attach_n_workers(&mut c, &mut rt, cfg.workers);
        run(&mut c, &mut rt, cfg)
    };
    let cg1 = go(UseCaseConfig::cg(1, 2));
    let cg35 = go(UseCaseConfig::cg(35, 2));
    let gm1 = go(UseCaseConfig::gemm(1, 2));
    let gm35 = go(UseCaseConfig::gemm(35, 2));
    let cg_loss = 1.0 - cg35.mean_send_bw / cg1.mean_send_bw;
    let gm_loss = 1.0 - gm35.mean_send_bw / gm1.mean_send_bw;
    assert!(cg_loss > 0.6, "CG loss {}", cg_loss);
    assert!(gm_loss < 0.4, "GEMM loss {}", gm_loss);
    assert!(cg35.stall_fraction > gm35.stall_fraction);
}

/// Cross-cutting: the Omni-Path preset shows the "wide bandwidth
/// deviation" the paper reports, InfiniBand does not.
#[test]
fn finding_omnipath_jitter() {
    let band = |preset: Preset| {
        let machine = preset.spec();
        let mut cfg = ProtocolConfig::new(machine, None);
        cfg.pingpong = PingPongConfig::bandwidth(2);
        cfg.reps = 9;
        let r = protocol::run(&cfg);
        Summary::of(&r.bw_alone()).band_rel()
    };
    let ib = band(Preset::Henri);
    let opa = band(Preset::Bora);
    assert!(opa > ib * 3.0, "opa band {} vs ib {}", opa, ib);
}
