//! Equivalence proof for ShiftBT's incremental bottleneck sequencing:
//! on random K-DAGs and machine configurations, the cached /
//! early-exiting / heap-dispatched production path must reproduce the
//! retained from-scratch oracle (`shiftbt::reference`) bit for bit —
//! the same bottleneck order and the same per-task rank table.

use fhs_core::shiftbt::{reference, ShiftBT};
use fhs_sim::{MachineConfig, Policy};
use kdag::{duedate, Artifacts, KDag, KDagBuilder, TaskId};
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
    proptest::collection::vec(1usize..5, k).prop_map(MachineConfig::new)
}

/// Inits `p` on a fresh bundle and checks the plan it stored there.
fn assert_matches_oracle(job: &KDag, cfg: &MachineConfig, p: &mut ShiftBT) {
    let due = duedate::due_dates(job);
    let (order, rank) = reference::bottleneck_sequencing(job, cfg, &due);
    let bundle = Artifacts::new();
    p.init(job, cfg, 0, &bundle);
    let plan = bundle.sequence_plan(cfg.procs_per_type(), || unreachable!("init stored it"));
    assert_eq!(plan.bottleneck_order, order, "bottleneck order diverged");
    let plan_rank: Vec<f64> = plan.rank.iter().map(|&r| f64::from(r)).collect();
    assert_eq!(plan_rank, rank, "rank table diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_sequencing_matches_oracle(dag in arb_kdag(4, 40, 5), cfg in arb_config(4)) {
        assert_matches_oracle(&dag, &cfg, &mut ShiftBT::default());
    }

    #[test]
    fn warm_policy_matches_oracle_across_instances(
        a in arb_kdag(3, 30, 4),
        b in arb_kdag(3, 30, 4),
        cfg_a in arb_config(3),
        cfg_b in arb_config(3),
    ) {
        // The same policy value re-initialized back to back (the pooled
        // sweep's steady state) must match a cold oracle run every time.
        let mut p = ShiftBT::default();
        assert_matches_oracle(&a, &cfg_a, &mut p);
        assert_matches_oracle(&b, &cfg_b, &mut p);
        assert_matches_oracle(&a, &cfg_b, &mut p);
    }

    #[test]
    fn single_type_jobs_sequence_by_edd(dag in arb_kdag(1, 25, 4), cfg in arb_config(1)) {
        assert_matches_oracle(&dag, &cfg, &mut ShiftBT::default());
    }
}
