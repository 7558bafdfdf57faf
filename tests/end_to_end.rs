//! Cross-crate integration tests: full pipeline from workload generation
//! through scheduling to metric computation, exercised through the facade.

use fhs::prelude::*;
use fhs::sim::metrics;
use fhs::workloads::adversarial::{self, AdversarialParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../crates/sim/tests/support/trace_check.rs"]
mod trace_check;

/// Every (family × typing × size × algorithm × mode) combination runs to
/// completion with a legal schedule.
#[test]
fn full_matrix_produces_legal_schedules() {
    for family in [Family::Ep, Family::Tree, Family::Ir] {
        for typing in [Typing::Layered, Typing::Random] {
            for size in [SystemSize::Small, SystemSize::Medium] {
                let spec = WorkloadSpec::new(family, typing, size, 4);
                let (job, cfg) = spec.sample(0xFACADE);
                for algo in ALL_ALGORITHMS {
                    for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                        let mut policy = make_policy(algo);
                        let out = engine::run(
                            &job,
                            &cfg,
                            policy.as_mut(),
                            mode,
                            &RunOptions::seeded(0xFACADE).with_trace(),
                        );
                        let tr = out.trace.expect("trace requested");
                        assert_eq!(
                            trace_check::validate(&tr, &job, &cfg),
                            Ok(()),
                            "{} {:?} on {}",
                            algo.label(),
                            mode,
                            spec.label()
                        );
                    }
                }
            }
        }
    }
}

/// Completion times always fall between the paper's lower bound and the
/// additive greedy upper bound, across the whole matrix: both typings,
/// in every cadence (non-preemptive, preemptive, preemptive at quantum 1).
#[test]
fn makespans_respect_both_theory_bounds() {
    let cadences = [
        (Mode::NonPreemptive, None),
        (Mode::Preemptive, None),
        (Mode::Preemptive, Some(1)),
    ];
    for family in [Family::Ep, Family::Tree, Family::Ir] {
        for typing in [Typing::Layered, Typing::Random] {
            let spec = WorkloadSpec::new(family, typing, SystemSize::Small, 3);
            for seed in 0..10u64 {
                let (job, cfg) = spec.sample(seed);
                let lb = fhs::kdag::metrics::lower_bound(&job, cfg.procs_per_type());
                let additive: u64 = fhs::kdag::metrics::span(&job)
                    + (0..job.num_types())
                        .map(|a| job.total_work_per_type()[a].div_ceil(cfg.procs(a) as u64))
                        .sum::<u64>();
                for algo in ALL_ALGORITHMS {
                    for (mode, quantum) in cadences {
                        let mut opts = RunOptions::seeded(seed);
                        opts.quantum = quantum;
                        let mut policy = make_policy(algo);
                        let makespan =
                            engine::run(&job, &cfg, policy.as_mut(), mode, &opts).makespan;
                        let at = || {
                            format!(
                                "{} {mode:?} q={quantum:?} {} seed {seed}",
                                algo.label(),
                                spec.label()
                            )
                        };
                        assert!(makespan >= lb, "{} beat the lower bound", at());
                        assert!(
                            makespan <= additive,
                            "{} exceeded the additive greedy bound",
                            at()
                        );
                    }
                }
            }
        }
    }
}

/// The paper's headline, end to end: on layered workloads, offline MQB
/// beats online KGreedy on average, in both execution modes.
#[test]
fn mqb_beats_kgreedy_on_layered_workloads_end_to_end() {
    for family in [Family::Ep, Family::Tree, Family::Ir] {
        let spec = WorkloadSpec::new(family, Typing::Layered, SystemSize::Small, 4);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut kgreedy_sum = 0.0;
            let mut mqb_sum = 0.0;
            let n = 40;
            for seed in 0..n {
                let (job, cfg) = spec.sample(seed);
                let mut kg = make_policy(Algorithm::KGreedy);
                let mut mqb = make_policy(Algorithm::Mqb);
                kgreedy_sum += metrics::evaluate(&job, &cfg, kg.as_mut(), mode, seed).ratio;
                mqb_sum += metrics::evaluate(&job, &cfg, mqb.as_mut(), mode, seed).ratio;
            }
            assert!(
                mqb_sum < kgreedy_sum,
                "{} {:?}: MQB avg {} !< KGreedy avg {}",
                spec.label(),
                mode,
                mqb_sum / n as f64,
                kgreedy_sum / n as f64
            );
        }
    }
}

/// The Theorem-2 story end to end: on the adversarial family, measured
/// KGreedy sits within the competitive envelope and far above offline MQB.
#[test]
fn adversarial_family_separates_online_from_offline() {
    let params = AdversarialParams::new(vec![2, 2, 2], 8);
    let cfg = MachineConfig::new(params.procs.clone());
    let t_star = params.optimal_makespan() as f64;
    let mut kg_sum = 0.0;
    let mut mqb_sum = 0.0;
    let trials = 15;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(t);
        let job = adversarial::generate(&params, &mut rng);
        let mut kg = make_policy(Algorithm::KGreedy);
        let mut mqb = make_policy(Algorithm::Mqb);
        kg_sum += engine::run(
            &job,
            &cfg,
            kg.as_mut(),
            Mode::NonPreemptive,
            &RunOptions::seeded(t),
        )
        .makespan as f64
            / t_star;
        mqb_sum += engine::run(
            &job,
            &cfg,
            mqb.as_mut(),
            Mode::NonPreemptive,
            &RunOptions::seeded(t),
        )
        .makespan as f64
            / t_star;
    }
    let kg = kg_sum / trials as f64;
    let mqb = mqb_sum / trials as f64;
    // KGreedy must show the Ω(K) penalty (≥ 1.8 at K=3, m=8)…
    assert!(kg > 1.8, "KGreedy ratio {kg} suspiciously good");
    // …but stay within its (K+1) guarantee.
    assert!(kg <= 4.0, "KGreedy ratio {kg} breaks its guarantee");
    // Offline MQB sees the active tasks and stays near optimal.
    assert!(mqb < 1.15, "MQB ratio {mqb} should be near 1");
}

/// Paired sampling: the same (spec, seed) yields the identical job for
/// every algorithm, so comparisons are common-random-number paired.
#[test]
fn sampling_is_shared_across_algorithms() {
    let spec = WorkloadSpec::new(Family::Tree, Typing::Random, SystemSize::Small, 2);
    let (a, ca) = spec.sample(99);
    let (b, cb) = spec.sample(99);
    assert_eq!(ca, cb);
    assert_eq!(a.num_tasks(), b.num_tasks());
    let works_a: Vec<u64> = a.tasks().map(|v| a.work(v)).collect();
    let works_b: Vec<u64> = b.tasks().map(|v| b.work(v)).collect();
    assert_eq!(works_a, works_b);
}

/// The experiment harness is reachable through the facade and produces
/// consistent summaries.
#[test]
fn experiment_runner_through_facade() {
    use fhs::experiments::{run_sweep, SweepCell};
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
    let cells = [SweepCell::new(Algorithm::Mqb, Mode::NonPreemptive)];
    let s1 = run_sweep(&spec, &cells, 10, 42, Some(1))[0].summary();
    let s2 = run_sweep(&spec, &cells, 10, 42, Some(4))[0].summary();
    assert_eq!(s1, s2, "results must not depend on parallelism");
    assert!(s1.mean >= 1.0);
    assert!(s1.max >= s1.mean && s1.mean >= s1.min);
}
