//! Schedule-quality bound for `MQB-Approx` (the bounded-candidate MQB
//! variant): capping each contested pick at `DEFAULT_APPROX_CAP`
//! candidates — taken top-c by total descendant value — must cost almost
//! nothing in completion-time ratio against exact MQB on the paper's
//! workload families, while staying inside the (K+1)-competitive envelope
//! outright.
//!
//! The bound is an empirical pin, not a theorem: the measured mean-ratio
//! gap on the seeded instance sets below is well under 2%, and the test
//! fails if a selection change pushes the approximation past 5% — loose
//! enough to survive fp-order-preserving refactors, tight enough to catch
//! a broken candidate ordering (e.g. dropping the `d_total` sort would
//! blow the gap past 30% on layered IR).

use fhs_core::mqb::{InfoModel, Mqb};
use fhs_core::registry::{make_policy, Algorithm};
use fhs_sim::{metrics, Mode};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

/// Mean completion-time ratio of `policy` over `instances` seeded samples.
fn mean_ratio(
    spec: &WorkloadSpec,
    mode: Mode,
    instances: u64,
    mut make: impl FnMut() -> Box<dyn fhs_sim::Policy>,
) -> f64 {
    let mut sum = 0.0;
    for seed in 0..instances {
        let (job, cfg) = spec.sample(seed);
        let mut p = make();
        sum += metrics::evaluate(&job, &cfg, p.as_mut(), mode, seed).ratio;
    }
    sum / instances as f64
}

fn exact() -> Box<dyn fhs_sim::Policy> {
    Box::new(Mqb::default())
}

fn approx() -> Box<dyn fhs_sim::Policy> {
    Box::new(Mqb::approx(InfoModel::default()))
}

/// Small/Medium instances across families: queues rarely cross the cap,
/// so the approximation must track exact MQB essentially everywhere
/// (≤ 1% mean-ratio gap), and both stay (K+1)-competitive.
#[test]
fn approx_tracks_exact_mqb_on_small_and_medium() {
    for (family, size, instances) in [
        (Family::Ep, SystemSize::Small, 20),
        (Family::Ir, SystemSize::Small, 20),
        (Family::Tree, SystemSize::Medium, 8),
        (Family::Ir, SystemSize::Medium, 8),
    ] {
        let spec = WorkloadSpec::new(family, Typing::Layered, size, 4);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let e = mean_ratio(&spec, mode, instances, exact);
            let a = mean_ratio(&spec, mode, instances, approx);
            println!(
                "{:?} {:?} {:?}: exact {e:.4} approx {a:.4} gap {:+.2}%",
                family,
                size,
                mode,
                100.0 * (a / e - 1.0)
            );
            assert!(
                a <= e * 1.01 + 1e-9,
                "{family:?} {size:?} {mode:?}: approx mean ratio {a:.4} strays >1% above exact {e:.4}"
            );
            assert!(
                (1.0..5.0).contains(&a),
                "approx left the competitive envelope"
            );
        }
    }
}

/// Large instances: queues exceed the cap on many contested rounds, so
/// the cap genuinely bites — the pinned bound is the 5% empirical
/// envelope (measured gap < 2%).
#[test]
fn approx_quality_bound_holds_where_the_cap_bites() {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Large, 4);
    for mode in [Mode::NonPreemptive, Mode::Preemptive] {
        let e = mean_ratio(&spec, mode, 4, exact);
        let a = mean_ratio(&spec, mode, 4, approx);
        println!(
            "Large Ir {:?}: exact {e:.4} approx {a:.4} gap {:+.2}%",
            mode,
            100.0 * (a / e - 1.0)
        );
        assert!(
            a <= e * 1.05 + 1e-9,
            "Large Ir {mode:?}: approx mean ratio {a:.4} strays >5% above exact {e:.4}"
        );
    }
    // The registry-built policy is the same configuration.
    let (job, cfg) = spec.sample(0);
    let mut reg = make_policy(Algorithm::MqbApprox);
    let mut own = approx();
    let r1 = metrics::evaluate(&job, &cfg, reg.as_mut(), Mode::NonPreemptive, 0);
    let r2 = metrics::evaluate(&job, &cfg, own.as_mut(), Mode::NonPreemptive, 0);
    assert_eq!(
        r1.makespan, r2.makespan,
        "registry MqbApprox differs from cap tuning"
    );
}
