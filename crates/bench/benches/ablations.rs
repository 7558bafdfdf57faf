//! Ablation benches for the design choices called out in DESIGN.md §5.
//!
//! Besides timing, each MQB ablation prints the average completion-time
//! ratio it achieves over a fixed instance set once at startup, so the
//! *quality* impact of each choice is visible next to its cost.

use criterion::{criterion_group, criterion_main, Criterion};
use fhs_core::mqb::{BalanceMetric, InfoModel, Mqb, MqbTuning};
use fhs_sim::{engine, metrics, Mode, Policy, RunOptions};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::descendants::DescendantValues;

fn mqb_variants() -> Vec<(&'static str, MqbTuning)> {
    vec![
        ("paper_default", MqbTuning::default()),
        (
            "min_only_balance",
            MqbTuning {
                balance: BalanceMetric::MinOnly,
                ..MqbTuning::default()
            },
        ),
        (
            "no_own_work_subtraction",
            MqbTuning {
                subtract_own_work: false,
                ..MqbTuning::default()
            },
        ),
        (
            "approx_cap_64",
            MqbTuning {
                max_candidates: Some(fhs_core::registry::DEFAULT_APPROX_CAP),
                ..MqbTuning::default()
            },
        ),
    ]
}

/// Quality check printed once: mean ratio of each MQB variant over 60
/// layered-IR instances.
fn print_quality_comparison() {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4);
    println!("MQB ablation quality (mean ratio, 60 medium layered IR instances):");
    for (name, tuning) in mqb_variants() {
        let mut sum = 0.0;
        for seed in 0..60u64 {
            let (job, cfg) = spec.sample(seed);
            let mut p = Mqb::with_tuning(InfoModel::default(), tuning);
            sum += metrics::evaluate(&job, &cfg, &mut p, Mode::NonPreemptive, seed).ratio;
        }
        println!("  {name:<24} {:.4}", sum / 60.0);
    }
}

fn bench_mqb_ablations(c: &mut Criterion) {
    print_quality_comparison();
    let (job, cfg) = fhs_bench::medium_ir();
    let mut g = c.benchmark_group("ablation/mqb");
    g.sample_size(30);
    for (name, tuning) in mqb_variants() {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut p = Mqb::with_tuning(InfoModel::default(), tuning);
                engine::run(
                    &job,
                    &cfg,
                    &mut p,
                    Mode::NonPreemptive,
                    &RunOptions::default(),
                )
                .makespan
            })
        });
    }
    g.finish();
}

/// Epoch-skipping preemptive engine vs the literal per-quantum engine —
/// identical schedules (property-tested), very different cost.
fn bench_engines(c: &mut Criterion) {
    let (job, cfg) = fhs_bench::small_ep();
    let mut g = c.benchmark_group("ablation/preemptive_engine");
    g.sample_size(20);
    g.bench_function("epoch_skipping", |b| {
        b.iter(|| {
            let mut p = fhs_sim::policy::FifoPolicy;
            engine::run(&job, &cfg, &mut p, Mode::Preemptive, &RunOptions::default()).makespan
        })
    });
    g.bench_function("per_quantum", |b| {
        b.iter(|| {
            let mut p = fhs_sim::policy::FifoPolicy;
            let opts = RunOptions::default().with_quantum(1);
            engine::run(&job, &cfg, &mut p, Mode::Preemptive, &opts).makespan
        })
    });
    g.finish();
}

/// Cost of the offline precomputations each policy pays in `init`.
fn bench_precomputation(c: &mut Criterion) {
    let (job, cfg) = fhs_bench::medium_ir();
    let mut g = c.benchmark_group("ablation/precompute");
    g.bench_function("descendant_values", |b| {
        b.iter(|| DescendantValues::compute(&job))
    });
    g.bench_function("remaining_spans", |b| {
        b.iter(|| kdag::metrics::remaining_spans(&job))
    });
    g.bench_function("different_child_distances", |b| {
        b.iter(|| kdag::distance::different_child_distances(&job))
    });
    g.bench_function("shiftbt_full_init", |b| {
        b.iter(|| {
            let mut p = fhs_core::ShiftBT::default();
            p.init(&job, &cfg, 0);
            p.bottleneck_order.len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_mqb_ablations,
    bench_engines,
    bench_precomputation
);
criterion_main!(benches);
