//! LSpan — longest remaining span first (paper §IV-B).
//!
//! A classic homogeneous heuristic (level scheduling; optimal for
//! out-trees on identical machines, Hu 1961) lifted unchanged to K-DAGs:
//! when a type-`α` processor frees up, run the ready `α`-task whose
//! remaining span — its remaining work plus the longest span among its
//! children — is largest. The paper notes simple counter-examples show the
//! out-tree optimality does **not** survive the lift to K types.
//!
//! The policy keeps no table of its own: it holds the bundle's remaining
//! spans for one run, as DType holds its distances. The longest span
//! among `v`'s children is `span(v) − work(v)` exactly (integers), so a
//! candidate's key is `remaining + span(v) − work(v)`.

use std::sync::Arc;

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy, SelectionStats};
use kdag::precompute::Artifacts;
use kdag::{KDag, Work};

use crate::ranked::Selector;

/// Longest-span-first policy. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct LSpan {
    /// The bundle's remaining spans, held for one run. A candidate's
    /// dynamic remaining span is `remaining + span − work`, which under
    /// preemption correctly shrinks as the task executes.
    spans: Option<Arc<Vec<Work>>>,
    selector: Selector,
}

impl Policy for LSpan {
    fn init(&mut self, job: &KDag, _config: &MachineConfig, _seed: u64, artifacts: &Artifacts) {
        self.spans = Some(Arc::clone(artifacts.spans(job)));
        self.selector.invalidate();
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let spans = self.spans.as_deref().expect("init ran");
        let job = view.job;
        self.selector.assign_by_key(view, out, |_, rt| {
            let child_span = spans[rt.id.index()] - job.work(rt.id);
            -((rt.remaining + child_span) as f64)
        });
    }

    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        Some(self.selector.take_stats())
    }

    fn detach_job(&mut self) {
        self.spans = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{engine, Mode, RunOptions};
    use kdag::KDagBuilder;

    #[test]
    fn prefers_the_long_branch() {
        // Two independent chains of type 0: long (3 unit tasks) and short
        // (1 task). One processor. LSpan must start the long chain first,
        // giving makespan 4 instead of FIFO-dependent orderings.
        let mut b = KDagBuilder::new(1);
        let s = b.add_task(0, 1); // short, added first so FIFO would pick it
        let l1 = b.add_task(0, 1);
        let l2 = b.add_task(0, 1);
        let l3 = b.add_task(0, 1);
        b.add_edge(l1, l2).unwrap();
        b.add_edge(l2, l3).unwrap();
        let _ = s;
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let mut pol = LSpan::default();
        let out = engine::run(
            &job,
            &cfg,
            &mut pol,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        assert_eq!(out.makespan, 4);
        // On one processor every order totals 4 here, so instead check the
        // first decision directly via a trace:
        let traced = engine::run(
            &job,
            &cfg,
            &mut LSpan::default(),
            Mode::NonPreemptive,
            &RunOptions::seeded(0).with_trace(),
        );
        let tr = traced.trace.unwrap();
        let first = tr.segments().iter().min_by_key(|s| s.start).unwrap();
        assert_eq!(first.task, l1, "LSpan must start the long chain first");
    }

    #[test]
    fn lspan_is_optimal_on_out_trees_single_type() {
        // Hu's theorem: level scheduling is optimal for unit-work out-trees
        // on identical processors. Build a binary out-tree of depth 3.
        let mut b = KDagBuilder::new(1);
        let root = b.add_task(0, 1);
        let mut frontier = vec![root];
        for _ in 0..2 {
            let mut next = Vec::new();
            for &p in &frontier {
                for _ in 0..2 {
                    let c = b.add_task(0, 1);
                    b.add_edge(p, c).unwrap();
                    next.push(c);
                }
            }
            frontier = next;
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        let out = engine::run(
            &job,
            &cfg,
            &mut LSpan::default(),
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        // 7 unit tasks, span 3, 2 procs; optimum = 4 (1 + 2 + ceil(4/2)).
        assert_eq!(out.makespan, 4);
    }

    #[test]
    fn remaining_span_shrinks_under_preemption() {
        // Sanity: the dynamic key uses `remaining`, so a partially-executed
        // long task can be overtaken. Just ensure the run completes and is
        // work-conserving.
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 10);
        b.add_task(0, 2);
        b.add_task(0, 2);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        let out = engine::run(
            &job,
            &cfg,
            &mut LSpan::default(),
            Mode::Preemptive,
            &RunOptions::default(),
        );
        // lb = max(span 10, ceil(14/2) = 7) = 10, achievable: the long
        // task never yields its processor while the short ones share the
        // other.
        assert_eq!(out.makespan, 10);
    }
}
