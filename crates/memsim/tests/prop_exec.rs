//! Property tests for the compute executor against closed-form roofline
//! predictions.

use freq::{FreqModel, Governor, License, UncorePolicy};
use memsim::exec::{Executor, JobSpec, Phase};
use memsim::MemSystem;
use proptest::prelude::*;
use simcore::Engine;
use topology::{henri, CoreId, NumaId};

fn setup(ghz: f64) -> (Engine, MemSystem, FreqModel, Executor) {
    let mut e = Engine::new();
    let spec = henri();
    let m = MemSystem::build(&mut e, &spec, "n0.");
    let f = FreqModel::new(&spec, Governor::Userspace(ghz), UncorePolicy::Fixed(2.4));
    m.apply_freqs(&mut e, &f);
    (e, m, f, Executor::new(0))
}

/// Run the engine dry and return the stats of every job that finished.
fn drain_jobs(
    e: &mut Engine,
    m: &MemSystem,
    f: &mut FreqModel,
    x: &mut Executor,
) -> Vec<memsim::exec::JobStats> {
    let mut out = Vec::new();
    while let Some(ev) = e.next() {
        if x.owns(ev.tag()) {
            if let Some((_, st)) = x.on_event(e, m, f, &ev) {
                out.push(st);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single-core phase duration equals the closed-form roofline time
    /// within float tolerance, for any intensity and frequency.
    #[test]
    fn single_core_matches_roofline(
        ai in 0.05f64..100.0,
        ghz in 1.0f64..2.3,
        mb in 1.0f64..64.0,
    ) {
        let (mut e, m, mut f, mut x) = setup(ghz);
        let bytes = mb * 1e6;
        x.start(&mut e, &m, &mut f, JobSpec {
            core: CoreId(0),
            phases: vec![Phase { flops: bytes * ai, bytes, data: NumaId(0), license: License::Normal }],
            iterations: 1,
        });
        let done = drain_jobs(&mut e, &m, &mut f, &mut x);
        prop_assert_eq!(done.len(), 1);
        let spec = henri();
        let flop_rate = spec.flop_rate(ghz, 0);
        let rate = (flop_rate / ai).min(spec.per_core_bw);
        let predicted = bytes / rate;
        let measured = done[0].elapsed_s();
        prop_assert!(
            (measured - predicted).abs() / predicted < 1e-6,
            "ai {} ghz {}: measured {} predicted {}", ai, ghz, measured, predicted
        );
    }

    /// N identical memory-bound jobs on one controller share fairly: all
    /// finish simultaneously with equal attained bandwidth, and total
    /// throughput never exceeds the controller.
    #[test]
    fn fair_sharing_and_conservation(n in 1usize..9, mb in 1.0f64..32.0) {
        let (mut e, m, mut f, mut x) = setup(2.3);
        let bytes = mb * 1e6;
        for c in 0..n {
            x.start(&mut e, &m, &mut f, JobSpec {
                core: CoreId(c as u32),
                phases: vec![Phase { flops: 0.0, bytes, data: NumaId(0), license: License::Normal }],
                iterations: 1,
            });
        }
        let done = drain_jobs(&mut e, &m, &mut f, &mut x);
        prop_assert_eq!(done.len(), n);
        let bw0 = done[0].mem_bandwidth();
        for st in &done {
            prop_assert!((st.mem_bandwidth() - bw0).abs() / bw0 < 1e-6);
        }
        let spec = henri();
        let total = bw0 * n as f64;
        let cap = spec.mem_bw_per_numa;
        prop_assert!(total <= cap * 1.0001, "total {} exceeds controller {}", total, cap);
        // Fair share: min(per-core, capacity/n).
        let expect = spec.per_core_bw.min(cap / n as f64);
        prop_assert!((bw0 - expect).abs() / expect < 1e-6);
    }

    /// Stall fraction is 0 when uncontended below per-core bandwidth, and
    /// in (0, 1] when the controller is oversubscribed.
    #[test]
    fn stall_fraction_semantics(n in 4usize..9) {
        // n cores, each demanding 12 GB/s, on a 45 GB/s controller: for
        // n ≥ 4, everyone is stalled.
        let (mut e, m, mut f, mut x) = setup(2.3);
        for c in 0..n {
            x.start(&mut e, &m, &mut f, JobSpec {
                core: CoreId(c as u32),
                phases: vec![Phase { flops: 0.0, bytes: 1e8, data: NumaId(0), license: License::Normal }],
                iterations: 1,
            });
        }
        let done = drain_jobs(&mut e, &m, &mut f, &mut x);
        for st in &done {
            let s = st.stall_fraction();
            prop_assert!(s > 0.0 && s <= 1.0, "stall {}", s);
            // Closed form: 1 - share/demand.
            let share = 45e9 / n as f64;
            let expect = 1.0 - share / 12e9;
            prop_assert!((s - expect).abs() < 0.01, "stall {} expect {}", s, expect);
        }
    }

    /// Remote phases (across UPI) are never faster than local ones.
    #[test]
    fn remote_never_faster(mb in 1.0f64..32.0) {
        let run_on = |data: NumaId| {
            let (mut e, m, mut f, mut x) = setup(2.3);
            x.start(&mut e, &m, &mut f, JobSpec {
                core: CoreId(0),
                phases: vec![Phase { flops: 0.0, bytes: mb * 1e6, data, license: License::Normal }],
                iterations: 1,
            });
            drain_jobs(&mut e, &m, &mut f, &mut x)[0].elapsed_s()
        };
        let local = run_on(NumaId(0));
        let remote = run_on(NumaId(3));
        prop_assert!(remote >= local * 0.999, "remote {} local {}", remote, local);
    }
}
