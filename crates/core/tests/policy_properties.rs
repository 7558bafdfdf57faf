//! Property tests run over every scheduling algorithm: legality of the
//! produced schedules on random K-DAGs, determinism, and the greedy
//! performance envelope.

use fhs_core::mqb::InfoModel;
use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
use fhs_sim::{engine, MachineConfig, Mode, RunOptions};
use kdag::{KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

#[path = "../../sim/tests/support/trace_check.rs"]
mod trace_check;

fn arb_kdag(k: usize, max_tasks: usize, max_work: u64) -> impl Strategy<Value = KDag> {
    (1..=max_tasks).prop_flat_map(move |n| {
        let types = proptest::collection::vec(0..k, n);
        let works = proptest::collection::vec(1..=max_work, n);
        let parents = proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=3), n);
        (types, works, parents).prop_map(move |(types, works, parents)| {
            let mut b = KDagBuilder::new(k);
            let ids: Vec<TaskId> = types
                .iter()
                .zip(&works)
                .map(|(&t, &w)| b.add_task(t, w))
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (i, ps) in parents.iter().enumerate().skip(1) {
                for &raw in ps {
                    let p = (raw as usize) % i;
                    if seen.insert((p, i)) {
                        b.add_edge(ids[p], ids[i]).unwrap();
                    }
                }
            }
            b.build().expect("forward-edge graphs are acyclic")
        })
    })
}

fn arb_config(k: usize) -> impl Strategy<Value = MachineConfig> {
    proptest::collection::vec(1usize..4, k).prop_map(MachineConfig::new)
}

/// Makes a fresh policy value.
type Factory = fn() -> Box<dyn fhs_sim::Policy>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_policies_produce_legal_schedules(dag in arb_kdag(3, 30, 4), cfg in arb_config(3)) {
        let opts = RunOptions::seeded(11).with_trace();
        for algo in ALL_ALGORITHMS {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                let mut p = make_policy(algo);
                let out = engine::run(&dag, &cfg, p.as_mut(), mode, &opts);
                let tr = out.trace.expect("requested");
                prop_assert_eq!(
                    trace_check::validate(&tr, &dag, &cfg),
                    Ok(()),
                    "{} produced an illegal {:?} schedule",
                    algo.label(),
                    mode
                );
            }
        }
    }

    #[test]
    fn all_policies_respect_the_additive_greedy_bound(dag in arb_kdag(3, 30, 4), cfg in arb_config(3)) {
        // Every implemented policy is work-conserving per type, so
        // Graham's per-type argument bounds them all, in every cadence
        // (non-preemptive, preemptive at completions, preemptive at
        // quantum 1): T ≤ T∞ + Σ_α ⌈T1_α / P_α⌉.
        let additive: u64 = kdag::metrics::span(&dag)
            + (0..dag.num_types())
                .map(|a| dag.total_work_per_type()[a].div_ceil(cfg.procs(a) as u64))
                .sum::<u64>();
        let cadences = [
            (Mode::NonPreemptive, RunOptions::default()),
            (Mode::Preemptive, RunOptions::default()),
            (Mode::Preemptive, RunOptions { quantum: Some(1), ..RunOptions::default() }),
        ];
        for algo in ALL_ALGORITHMS {
            for (mode, opts) in &cadences {
                let mut p = make_policy(algo);
                let out = engine::run(&dag, &cfg, p.as_mut(), *mode, opts);
                prop_assert!(
                    out.makespan <= additive,
                    "{} {:?} q={:?}: {} > {}",
                    algo.label(),
                    mode,
                    opts.quantum,
                    out.makespan,
                    additive
                );
            }
        }
    }

    #[test]
    fn policies_are_deterministic(dag in arb_kdag(3, 30, 4), cfg in arb_config(3)) {
        let algos: Vec<Algorithm> = ALL_ALGORITHMS
            .into_iter()
            .chain(InfoModel::ALL_VARIANTS.into_iter().map(Algorithm::MqbWith))
            .collect();
        for algo in algos {
            let mut p1 = make_policy(algo);
            let mut p2 = make_policy(algo);
            let o1 = engine::run(&dag, &cfg, p1.as_mut(), Mode::NonPreemptive,
                                 &RunOptions::seeded(5));
            let o2 = engine::run(&dag, &cfg, p2.as_mut(), Mode::NonPreemptive,
                                 &RunOptions::seeded(5));
            prop_assert_eq!(o1.makespan, o2.makespan, "{} not deterministic", algo.label());
        }
    }

    #[test]
    fn mqb_info_variants_are_legal(dag in arb_kdag(3, 25, 4), cfg in arb_config(3)) {
        let opts = RunOptions::seeded(23).with_trace();
        for info in InfoModel::ALL_VARIANTS {
            let mut p = make_policy(Algorithm::MqbWith(info));
            let out = engine::run(&dag, &cfg, p.as_mut(), Mode::Preemptive, &opts);
            let tr = out.trace.expect("requested");
            prop_assert_eq!(trace_check::validate(&tr, &dag, &cfg), Ok(()), "{}", info.label());
        }
    }

    #[test]
    fn single_type_dags_make_all_policies_graham_greedy(
        works in proptest::collection::vec(1u64..5, 1..20),
        p in 1usize..4,
    ) {
        // With K = 1 the completion time of every work-conserving policy
        // obeys Graham's bound T ≤ T1/P + T∞(1 - 1/P) for independent
        // tasks (span = max work here).
        let mut b = KDagBuilder::new(1);
        for &w in &works {
            b.add_task(0, w);
        }
        let dag = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, p);
        let t1: u64 = works.iter().sum();
        let tinf: u64 = *works.iter().max().unwrap();
        for algo in ALL_ALGORITHMS {
            let mut pol = make_policy(algo);
            let out = engine::run(&dag, &cfg, pol.as_mut(), Mode::NonPreemptive, &RunOptions::default());
            let bound = (t1 as f64 / p as f64) + tinf as f64 * (1.0 - 1.0 / p as f64);
            prop_assert!(
                out.makespan as f64 <= bound + 1e-9,
                "{}: {} > Graham bound {}",
                algo.label(), out.makespan, bound
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For policies whose selection keys are independent of remaining
    /// work, the completion-epoch preemptive engine is exactly the
    /// per-quantum scheduler: between completions the queues don't change
    /// and neither do the (static) keys.
    #[test]
    fn static_key_policies_match_per_quantum_exactly(
        dag in arb_kdag(3, 25, 4),
        cfg in arb_config(3),
    ) {
        use fhs_core::kgreedy::FifoGreedy;
        let static_key: [(&str, Factory); 4] = [
            ("FifoGreedy", || Box::new(FifoGreedy)),
            (Algorithm::DType.label(), || make_policy(Algorithm::DType)),
            (Algorithm::MaxDP.label(), || make_policy(Algorithm::MaxDP)),
            (Algorithm::ShiftBT.label(), || make_policy(Algorithm::ShiftBT)),
        ];
        for (label, factory) in static_key {
            let mut a = factory();
            let mut b = factory();
            let epoch = engine::run(&dag, &cfg, a.as_mut(), Mode::Preemptive, &RunOptions::seeded(3));
            let quantum = engine::run(
                &dag, &cfg, b.as_mut(), Mode::Preemptive,
                &RunOptions { quantum: Some(1), ..RunOptions::seeded(3) },
            );
            prop_assert_eq!(epoch.makespan, quantum.makespan, "{}", label);
            prop_assert_eq!(epoch.busy_time, quantum.busy_time, "{}", label);
        }
    }

    /// Remaining-work-dependent policies stay legal and work-conserving
    /// under any quantum, even where their cadence differs.
    #[test]
    fn dynamic_key_policies_are_legal_under_any_quantum(
        dag in arb_kdag(3, 20, 4),
        cfg in arb_config(3),
        q in 1u64..5,
    ) {
        for algo in [Algorithm::LSpan, Algorithm::Mqb] {
            let mut p = make_policy(algo);
            let out = engine::run(
                &dag, &cfg, p.as_mut(), Mode::Preemptive,
                &RunOptions { quantum: Some(q), ..RunOptions::seeded(9).with_trace() },
            );
            let tr = out.trace.expect("requested");
            prop_assert_eq!(trace_check::validate(&tr, &dag, &cfg), Ok(()), "{} q={}", algo.label(), q);
            prop_assert_eq!(out.busy_time.iter().sum::<u64>(), dag.total_work());
        }
    }
}
