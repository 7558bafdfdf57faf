//! EDD — earliest due date first (extension baseline).
//!
//! Not one of the paper's six, but the primitive inside its ShiftBT
//! adaptation: dispatch ready tasks by the due date
//! `due(v) = T∞(J) − span(v)` directly, without the shifting-bottleneck
//! sequencing loop. Comparing EDD against [`crate::ShiftBT`] isolates how
//! much the iterative bottleneck sequencing adds over its underlying
//! dispatch rule (the `sweep` binary accepts it by name).

use std::sync::Arc;

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy, SelectionStats};
use kdag::precompute::Artifacts;
use kdag::{KDag, Work};

use crate::ranked::Selector;

/// Earliest-due-date policy. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Edd {
    /// The bundle's remaining spans, held for one run.
    spans: Option<Arc<Vec<Work>>>,
    /// The job span `T∞(J)`.
    span: Work,
    selector: Selector,
}

impl Policy for Edd {
    fn name(&self) -> &str {
        "EDD"
    }

    fn init(&mut self, job: &KDag, _config: &MachineConfig, _seed: u64, artifacts: &Artifacts) {
        self.spans = Some(Arc::clone(artifacts.spans(job)));
        self.span = artifacts.span(job);
        self.selector.invalidate();
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let (spans, span) = (self.spans.as_deref().expect("init ran"), self.span);
        self.selector
            .assign_by_key(view, out, |_, rt| (span - spans[rt.id.index()]) as f64);
    }

    fn detach_job(&mut self) {
        self.spans = None;
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
    use fhs_sim::{engine, metrics, Mode, RunOptions};
    use kdag::KDagBuilder;

    #[test]
    fn prioritizes_critical_tasks() {
        // `urgent` heads a long chain (due 0); `slack` is a sink.
        let mut b = KDagBuilder::new(1);
        let slack = b.add_task(0, 1);
        let urgent = b.add_task(0, 1);
        let mut prev = urgent;
        for _ in 0..3 {
            let c = b.add_task(0, 1);
            b.add_edge(prev, c).unwrap();
            prev = c;
        }
        let _ = slack;
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let out = engine::run(
            &job,
            &cfg,
            &mut Edd::default(),
            Mode::NonPreemptive,
            &RunOptions::default().with_trace(),
        );
        let tr = out.trace.unwrap();
        let first = tr.segments().iter().min_by_key(|s| s.start).unwrap();
        assert_eq!(first.task, urgent);
    }

    #[test]
    fn matches_lspan_when_works_are_static() {
        // due = T∞ − span, so EDD ordering equals descending-span ordering
        // for fresh (never-preempted) tasks; on a non-preemptive run both
        // policies produce the same makespan.
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 1);
        let edd = metrics::evaluate(&job, &cfg, &mut Edd::default(), Mode::NonPreemptive, 0);
        let lspan = metrics::evaluate(
            &job,
            &cfg,
            &mut crate::LSpan::default(),
            Mode::NonPreemptive,
            0,
        );
        assert_eq!(edd.makespan, lspan.makespan);
    }

    #[test]
    fn registry_accepts_edd_by_name() {
        let algo = crate::Algorithm::parse("EDD").expect("EDD is registered");
        let p = crate::make_policy(algo);
        assert_eq!(p.name(), "EDD");
    }
}
