//! Property tests over the workload generators: structural invariants
//! that must hold for every seed, size, and typing discipline.

use fhs_workloads::adversarial::{self, AdversarialParams};
use fhs_workloads::resources::SystemSize;
use fhs_workloads::{Family, Typing, WorkloadSpec, WORK_RANGE};
use kdag::topo;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        prop_oneof![Just(Family::Ep), Just(Family::Tree), Just(Family::Ir)],
        prop_oneof![Just(Typing::Layered), Just(Typing::Random)],
        prop_oneof![Just(SystemSize::Small), Just(SystemSize::Medium)],
        1usize..=6,
        any::<bool>(),
    )
        .prop_map(|(family, typing, size, k, skewed)| {
            let spec = WorkloadSpec::new(family, typing, size, k);
            if skewed {
                spec.skewed()
            } else {
                spec
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_instance_is_a_valid_kdag(spec in arb_spec(), seed in any::<u64>()) {
        let (job, cfg) = spec.sample(seed);
        prop_assert!(job.num_tasks() > 0);
        prop_assert_eq!(job.num_types(), spec.k);
        prop_assert_eq!(cfg.num_types(), spec.k);
        prop_assert!(topo::topological_order(&job).is_some());
        // works in the documented range
        for v in job.tasks() {
            prop_assert!(WORK_RANGE.contains(&job.work(v)));
        }
        // processor counts in the size class (type 0 may be skewed down)
        let (lo, hi) = spec.size.procs_range();
        for alpha in 0..spec.k {
            let p = cfg.procs(alpha);
            if alpha == 0 && spec.skewed {
                prop_assert!(p >= 1 && p <= hi);
            } else {
                prop_assert!((lo..=hi).contains(&p), "type {alpha}: {p}");
            }
        }
    }

    #[test]
    fn sampling_is_a_pure_function_of_the_seed(spec in arb_spec(), seed in any::<u64>()) {
        let (a, ca) = spec.sample(seed);
        let (b, cb) = spec.sample(seed);
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn layered_ep_branches_traverse_types_in_order(seed in any::<u64>(), k in 2usize..=5) {
        let spec = WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, k);
        let (job, _) = spec.sample(seed);
        for root in job.roots() {
            let mut cur = root;
            let mut last_type = job.rtype(cur);
            prop_assert_eq!(last_type, 0, "branches start at type 0");
            while let Some(&c) = job.children(cur).first() {
                let t = job.rtype(c);
                prop_assert!(t == last_type || t == last_type + 1);
                last_type = t;
                cur = c;
            }
            prop_assert_eq!(last_type, k - 1, "branches end at type K-1");
        }
    }

    #[test]
    fn trees_are_trees(seed in any::<u64>()) {
        let spec = WorkloadSpec::new(Family::Tree, Typing::Random, SystemSize::Small, 3);
        let (job, _) = spec.sample(seed);
        prop_assert_eq!(job.roots().count(), 1);
        prop_assert_eq!(job.num_edges(), job.num_tasks() - 1);
    }

    #[test]
    fn ir_roots_are_maps_that_feed_reduces(seed in any::<u64>()) {
        // Roots are exactly the first iteration's maps, and the generator
        // guarantees every map at least one outgoing edge — so no root is
        // a sink, and (layered) every root has the phase-0 type.
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4);
        let (job, _) = spec.sample(seed);
        let mut roots = 0;
        for v in job.roots() {
            roots += 1;
            prop_assert!(!job.children(v).is_empty(), "root map {v} is a sink");
            prop_assert_eq!(job.rtype(v), 0, "first map phase is type 0");
        }
        prop_assert!(roots > 0);
        // depth alternates phases: children of roots are reduces (type 1)
        for v in job.roots() {
            for &c in job.children(v) {
                prop_assert_eq!(job.rtype(c), 1);
            }
        }
    }

    #[test]
    fn adversarial_counts_and_span(
        k in 1usize..=4,
        p in 1usize..=3,
        m in 1usize..=4,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let params = AdversarialParams::new(vec![p; k], m);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let job = adversarial::generate(&params, &mut rng);
        for alpha in 0..k {
            prop_assert_eq!(job.num_tasks_of_type(alpha), p * p * m);
        }
        prop_assert_eq!(kdag::metrics::span(&job), params.optimal_makespan());
        prop_assert_eq!(
            kdag::metrics::lower_bound(&job, &params.procs),
            params.optimal_makespan()
        );
    }
}
