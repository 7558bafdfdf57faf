//! Chaos testing: a policy that makes *random but valid* selections each
//! epoch must never break the engines — every run completes, conserves
//! work, and produces a legal trace. This exercises engine paths that
//! well-behaved policies never reach (partial assignments, idle slots
//! with non-empty queues, erratic preemption).

use fhs_sim::policy::{Assignments, EpochView, Policy};
use fhs_sim::{engine, trace, MachineConfig, Mode, RunOptions};
use kdag::{Artifacts, KDag, KDagBuilder, TaskId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Selects a random subset (possibly empty per type, but never globally
/// empty when work exists) of candidates each epoch.
struct ChaosPolicy {
    rng: StdRng,
    scratch: Vec<fhs_sim::ReadyTask>,
}

impl Policy for ChaosPolicy {
    fn name(&self) -> &str {
        "Chaos"
    }

    fn init(&mut self, _job: &KDag, _config: &MachineConfig, seed: u64, _: &Artifacts) {
        self.rng = StdRng::seed_from_u64(seed);
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let mut chose_any = false;
        let mut fallback: Option<(usize, TaskId)> = None;
        for alpha in 0..view.config.num_types() {
            let slots = view.slots[alpha];
            if slots == 0 || view.queues[alpha].is_empty() {
                continue;
            }
            // index-based selection: snapshot the live queue once
            view.queues[alpha].collect_into(&mut self.scratch);
            let queue = &self.scratch;
            if fallback.is_none() {
                fallback = Some((alpha, queue[0].id));
            }
            // choose a random count 0..=min(slots, len), random prefix of a
            // random rotation for variety
            let take = self.rng.gen_range(0..=slots.min(queue.len()));
            let offset = self.rng.gen_range(0..queue.len());
            for j in 0..take {
                let rt = &queue[(offset + j) % queue.len()];
                out.push(alpha, rt.id);
                chose_any = true;
            }
        }
        // The engines treat a globally-empty assignment with idle work as
        // a deadlock (non-preemptive tolerates it only while something
        // runs; preemptive never). Always schedule at least one task.
        if !chose_any {
            if let Some((alpha, id)) = fallback {
                out.push(alpha, id);
            }
        }
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaos_policy_cannot_break_the_engines(
        dag in arb_kdag(3, 30, 4),
        procs in proptest::collection::vec(1usize..4, 3),
        seed in any::<u64>(),
        quantum in proptest::option::of(1u64..4),
    ) {
        let cfg = MachineConfig::new(procs);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut policy = ChaosPolicy { rng: StdRng::seed_from_u64(0), scratch: Vec::new() };
            let mut opts = RunOptions::seeded(seed).with_trace();
            opts.quantum = quantum;
            let out = engine::run(&dag, &cfg, &mut policy, mode, &opts);
            // completes all work
            prop_assert_eq!(out.busy_time.iter().sum::<u64>(), dag.total_work());
            // legal trace
            let tr = out.trace.expect("requested");
            prop_assert_eq!(trace::validate(&tr, &dag, &cfg), Ok(()), "{:?}", mode);
            // within the trivial serial bound
            prop_assert!(out.makespan <= dag.total_work());
        }
    }

    #[test]
    fn chaos_runs_still_respect_the_lower_bound(
        dag in arb_kdag(2, 25, 3),
        seed in any::<u64>(),
    ) {
        let cfg = MachineConfig::uniform(2, 2);
        let lb = kdag::metrics::lower_bound(&dag, cfg.procs_per_type());
        let mut policy = ChaosPolicy { rng: StdRng::seed_from_u64(0), scratch: Vec::new() };
        let out = engine::run(&dag, &cfg, &mut policy, Mode::Preemptive, &RunOptions::seeded(seed));
        prop_assert!(out.makespan >= lb);
    }
}
