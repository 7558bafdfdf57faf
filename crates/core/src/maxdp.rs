//! MaxDP — maximum descendants first (paper §IV-B).
//!
//! When a type-`α` processor frees up, run the ready `α`-task with the
//! largest *type-blind* descendant value: a task with many/heavy
//! descendants unlocks the most downstream work. The descendant recursion
//! matches MQB's, but collapses all `K` types into one number — which is
//! exactly why (per the paper's Fig. 4 discussion) MaxDP does well on
//! trees and iterative-reduction jobs yet poorly on embarrassingly
//! parallel ones, where what matters is the *type mix* of the descendants,
//! not their amount.

use std::sync::Arc;

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy, SelectionStats};
use kdag::precompute::Artifacts;
use kdag::KDag;

use crate::ranked::Selector;

/// Maximum-descendants-first policy. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct MaxDP {
    /// The bundle's type-blind descendant values, held for one run.
    desc: Option<Arc<Vec<f64>>>,
    selector: Selector,
}

impl Policy for MaxDP {
    fn name(&self) -> &str {
        "MaxDP"
    }

    fn init(&mut self, job: &KDag, _config: &MachineConfig, _seed: u64, artifacts: &Artifacts) {
        self.desc = Some(Arc::clone(artifacts.type_blind(job)));
        self.selector.invalidate();
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let desc = self.desc.as_deref().expect("init ran");
        self.selector
            .assign_by_key(view, out, |_, rt| -desc[rt.id.index()]);
    }

    fn detach_job(&mut self) {
        self.desc = None;
    }

    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        Some(self.selector.take_stats())
    }

    // Keys are fixed per task at init and ties break on (seq, id): the
    // pick depends only on queue membership/order and the slot counts.
    fn assign_stable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{engine, MachineConfig, Mode, RunOptions};
    use kdag::KDagBuilder;

    #[test]
    fn prefers_the_task_with_more_descendants() {
        // Two ready type-0 tasks: `fan` has 3 children, `leaf` none.
        // One processor: MaxDP must start `fan`.
        let mut b = KDagBuilder::new(2);
        let leaf = b.add_task(0, 1);
        let fan = b.add_task(0, 1);
        for _ in 0..3 {
            let c = b.add_task(1, 1);
            b.add_edge(fan, c).unwrap();
        }
        let _ = leaf;
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 3]);
        let out = engine::run(
            &job,
            &cfg,
            &mut MaxDP::default(),
            Mode::NonPreemptive,
            &RunOptions::seeded(0).with_trace(),
        );
        let tr = out.trace.unwrap();
        let first_type0 = tr
            .segments()
            .iter()
            .filter(|s| s.rtype == 0)
            .min_by_key(|s| s.start)
            .unwrap();
        assert_eq!(first_type0.task, fan);
        // Starting `fan` first pipelines the type-1 children: makespan 2
        // (fan at 0, children and leaf all in 1..2) instead of 3 had the
        // childless leaf gone first.
        assert_eq!(out.makespan, 2);
    }

    #[test]
    fn completes_arbitrary_jobs_in_both_modes() {
        let mut b = KDagBuilder::new(2);
        let mut prev = b.add_task(0, 2);
        for i in 1..8 {
            let v = b.add_task(i % 2, (i % 3 + 1) as u64);
            b.add_edge(prev, v).unwrap();
            prev = v;
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(2, 2);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = engine::run(
                &job,
                &cfg,
                &mut MaxDP::default(),
                mode,
                &RunOptions::default(),
            );
            assert_eq!(out.busy_time.iter().sum::<u64>(), job.total_work());
        }
    }
}
