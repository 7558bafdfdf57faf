//! DType — different-type-first (paper §IV-B).
//!
//! When a type-`α` processor frees up, run the ready `α`-task with the
//! smallest *different-child distance* — the shortest edge-count to any
//! descendant of another type. Such tasks are the nearest ancestors of
//! other types' work, so finishing them earliest feeds the other resource
//! pools and promotes interleaving. Tasks with no different-type
//! descendant sort last.

use std::sync::Arc;

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy, SelectionStats};
use kdag::distance::Distances;
use kdag::precompute::Artifacts;
use kdag::KDag;

use crate::ranked::Selector;

/// Different-type-first policy. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct DType {
    /// The bundle's different-child distances, held for one run.
    dist: Option<Arc<Distances>>,
    selector: Selector,
}

impl Policy for DType {
    fn init(&mut self, job: &KDag, _config: &MachineConfig, _seed: u64, artifacts: &Artifacts) {
        self.dist = Some(Arc::clone(artifacts.different_child(job)));
        self.selector.invalidate();
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let dist = self.dist.as_deref().expect("init ran");
        // No different-type descendant sorts last.
        self.selector.assign_by_key(view, out, |_, rt| {
            dist.get(rt.id).map_or(f64::INFINITY, f64::from)
        })
    }

    fn detach_job(&mut self) {
        self.dist = None;
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
    fn unlocks_other_types_first() {
        // Ready type-0 tasks: `feeder` leads to a type-1 task in 1 hop,
        // `chain` leads only to more type-0 work. One type-0 processor.
        let mut b = KDagBuilder::new(2);
        let chain = b.add_task(0, 1);
        let chain2 = b.add_task(0, 1);
        b.add_edge(chain, chain2).unwrap();
        let feeder = b.add_task(0, 1);
        let gpu = b.add_task(1, 3);
        b.add_edge(feeder, gpu).unwrap();
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 1]);
        let out = engine::run(
            &job,
            &cfg,
            &mut DType::default(),
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
        assert_eq!(
            first_type0.task, feeder,
            "DType must start the type-1 feeder first"
        );
        // feeder at 0, gpu 1..4 overlaps chain work 1..3: makespan 4.
        assert_eq!(out.makespan, 4);
    }

    #[test]
    fn infinite_distance_tasks_run_last_but_do_run() {
        let mut b = KDagBuilder::new(2);
        b.add_task(0, 1); // isolated, no different-type descendant
        let f = b.add_task(0, 1);
        let g = b.add_task(1, 1);
        b.add_edge(f, g).unwrap();
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 1]);
        let out = engine::run(
            &job,
            &cfg,
            &mut DType::default(),
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        assert_eq!(out.busy_time, vec![2, 1]);
        // f runs at 0 (distance 1 beats ∞), then isolated and g overlap
        // in 1..2: makespan 2. FIFO would have run isolated first for the
        // same makespan here, but the decision order is what we pin down.
        assert_eq!(out.makespan, 2);
    }
}
