//! Property tests for the engines: trace legality on random K-DAGs,
//! equality of the epoch-skipping preemptive engine and the literal
//! per-quantum engine, and conservation laws.

use fhs_sim::policy::FifoPolicy;
use fhs_sim::{engine, trace, MachineConfig, Mode, RunOptions};
use kdag::{metrics, KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn nonpreemptive_traces_are_legal(dag in arb_kdag(3, 40, 4), cfg in arb_config(3)) {
        let opts = RunOptions::default().with_trace();
        let out = engine::run(&dag, &cfg, &mut FifoPolicy, Mode::NonPreemptive, &opts);
        let tr = out.trace.expect("requested");
        prop_assert_eq!(trace::validate(&tr, &dag, &cfg), Ok(()));
        // non-preemptive = one segment per task
        prop_assert_eq!(tr.segments().len(), dag.num_tasks());
    }

    #[test]
    fn preemptive_traces_are_legal(dag in arb_kdag(3, 40, 4), cfg in arb_config(3)) {
        let opts = RunOptions::default().with_trace();
        let out = engine::run(&dag, &cfg, &mut FifoPolicy, Mode::Preemptive, &opts);
        let tr = out.trace.expect("requested");
        prop_assert_eq!(trace::validate(&tr, &dag, &cfg), Ok(()));
    }

    #[test]
    fn makespan_within_theory_bounds(dag in arb_kdag(3, 40, 4), cfg in arb_config(3)) {
        // L(J) ≤ T(J) ≤ (K+1)·L(J): the right side is the KGreedy
        // guarantee (Theorem 3 of He/Sun/Hsu), with L(J) ≥ the optimum.
        let lb = metrics::lower_bound(&dag, cfg.procs_per_type());
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = engine::run(&dag, &cfg, &mut FifoPolicy, mode, &RunOptions::default());
            prop_assert!(out.makespan >= lb);
            let k = dag.num_types() as u64;
            // T ≤ span + Σ_α T1α/Pα ≤ (K+1)·L — use the additive form to
            // avoid slack in the multiplicative one on tiny instances.
            let additive: u64 = metrics::span(&dag)
                + (0..dag.num_types())
                    .map(|a| dag.total_work_per_type()[a].div_ceil(cfg.procs(a) as u64))
                    .sum::<u64>();
            prop_assert!(
                out.makespan <= additive,
                "makespan {} > additive greedy bound {} (K = {})",
                out.makespan, additive, k
            );
        }
    }

    #[test]
    fn per_step_and_epoch_preemptive_agree(dag in arb_kdag(3, 25, 4), cfg in arb_config(3)) {
        let fast = engine::run(&dag, &cfg, &mut FifoPolicy, Mode::Preemptive, &RunOptions::default());
        let stepped = RunOptions::default().with_quantum(1);
        let slow = engine::run(&dag, &cfg, &mut FifoPolicy, Mode::Preemptive, &stepped);
        prop_assert_eq!(fast.makespan, slow.makespan);
        prop_assert_eq!(fast.busy_time, slow.busy_time);
    }

    #[test]
    fn busy_time_conserves_total_work(dag in arb_kdag(3, 40, 4), cfg in arb_config(3)) {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = engine::run(&dag, &cfg, &mut FifoPolicy, mode, &RunOptions::default());
            prop_assert_eq!(out.busy_time.iter().sum::<u64>(), dag.total_work());
            // per-type busy time equals per-type work
            for alpha in 0..dag.num_types() {
                prop_assert_eq!(out.busy_time[alpha], dag.total_work_per_type()[alpha]);
            }
            // utilization in (0, 1]
            for u in out.utilization(&cfg) {
                prop_assert!((0.0..=1.0 + 1e-12).contains(&u));
            }
        }
    }

    #[test]
    fn preemptive_never_loses_to_nonpreemptive_under_fifo_on_chains(
        works in proptest::collection::vec(1u64..6, 1..12),
        p in 1usize..3,
    ) {
        // On a pure chain both modes are forced to the serial schedule.
        let mut b = KDagBuilder::new(1);
        let mut prev: Option<TaskId> = None;
        for &w in &works {
            let v = b.add_task(0, w);
            if let Some(p) = prev {
                b.add_edge(p, v).unwrap();
            }
            prev = Some(v);
        }
        let dag = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, p);
        let np = engine::run(&dag, &cfg, &mut FifoPolicy, Mode::NonPreemptive, &RunOptions::default());
        let pe = engine::run(&dag, &cfg, &mut FifoPolicy, Mode::Preemptive, &RunOptions::default());
        let total: u64 = works.iter().sum();
        prop_assert_eq!(np.makespan, total);
        prop_assert_eq!(pe.makespan, total);
    }
}
