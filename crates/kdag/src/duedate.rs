//! Due dates — the ShiftBT heuristic's scheduling key.
//!
//! The paper defines a task's *due date* as "the latest time to start a
//! task without delaying other tasks", computed as the total span of the
//! job minus the remaining span of the task:
//!
//! `due(v) = T∞(J) − span(v)`
//!
//! where `span(v)` includes `v`'s own work (see
//! [`crate::metrics::remaining_spans`]). Tasks on a critical path get due
//! date equal to their earliest possible start; slack tasks get later due
//! dates. The *lateness* of a task in a schedule that starts it at `s(v)`
//! is `s(v) − due(v)` (equivalently completion-based with a constant
//! shift of `w(v)`).

use crate::graph::KDag;
use crate::metrics::remaining_spans;
use crate::types::{TaskId, Work};

/// Due dates (latest safe start times) for every task: `T∞ − span(v)`.
///
/// Always ≥ 0 since `span(v) ≤ T∞` for every task.
pub fn due_dates(dag: &KDag) -> Vec<Work> {
    DueDates::from_spans(&remaining_spans(dag)).to_vec()
}

/// The due dates of a job read off the remaining spans they derive from:
/// each [`DueDates::get`] computes `T∞ − span(v)`, so no due-date table
/// is stored beside the spans. The values are exactly [`due_dates`]'s.
#[derive(Clone, Copy, Debug)]
pub struct DueDates<'a> {
    span: Work,
    spans: &'a [Work],
}

impl<'a> DueDates<'a> {
    /// Due dates over per-task remaining spans (as
    /// [`crate::metrics::remaining_spans`]); `T∞` is their maximum.
    pub fn from_spans(spans: &'a [Work]) -> Self {
        DueDates {
            span: spans.iter().copied().max().unwrap_or(0),
            spans,
        }
    }

    /// `due(v) = T∞ − span(v)`.
    #[inline]
    pub fn get(&self, v: TaskId) -> Work {
        self.span - self.spans[v.index()]
    }

    /// The latest due date (0 for an empty job).
    pub fn max(&self) -> Work {
        self.spans.iter().min().map_or(0, |&s| self.span - s)
    }

    /// Every due date, in task order.
    pub fn to_vec(&self) -> Vec<Work> {
        self.spans.iter().map(|&s| self.span - s).collect()
    }
}

/// Earliest possible start times under infinite resources:
/// `est(v) = max over parents p of est(p) + w(p)` (0 for roots).
///
/// Together with [`due_dates`], `est(v) ≤ due(v)` always holds, and
/// equality characterizes critical tasks.
pub fn earliest_starts(dag: &KDag) -> Vec<Work> {
    let mut est = vec![0; dag.num_tasks()];
    for v in crate::topo::topological_order(dag).expect("KDag invariant violated: cycle") {
        for &c in dag.children(v) {
            est[c.index()] = est[c.index()].max(est[v.index()] + dag.work(v));
        }
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::span;
    use crate::KDagBuilder;

    fn fork_join() -> KDag {
        // t0(3) -> {t1(5), t2(2)} -> t3(1); span = 9.
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 3);
        let x = b.add_task(1, 5);
        let y = b.add_task(1, 2);
        let z = b.add_task(0, 1);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn due_dates_are_span_complements() {
        let g = fork_join();
        // spans: [9, 6, 3, 1] -> due: [0, 3, 6, 8]
        assert_eq!(due_dates(&g), vec![0, 3, 6, 8]);
    }

    #[test]
    fn earliest_starts_follow_chains() {
        let g = fork_join();
        assert_eq!(earliest_starts(&g), vec![0, 3, 3, 8]);
    }

    #[test]
    fn critical_tasks_have_zero_slack() {
        let g = fork_join();
        let (due, est) = (due_dates(&g), earliest_starts(&g));
        // The critical chain t0 -> t1 -> t3 (3 + 5 + 1 = span 9).
        for v in [0, 1, 3].map(TaskId::from_index) {
            assert_eq!(
                due[v.index()],
                est[v.index()],
                "critical task {v} must have no slack"
            );
        }
        // the short branch (t2) has slack 3
        assert_eq!(due[2] - est[2], 3);
    }

    #[test]
    fn est_never_exceeds_due() {
        let g = fork_join();
        let due = due_dates(&g);
        let est = earliest_starts(&g);
        for v in g.tasks() {
            assert!(est[v.index()] <= due[v.index()]);
        }
    }

    #[test]
    fn single_task_has_zero_due_date() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 42);
        let g = b.build().unwrap();
        assert_eq!(due_dates(&g), vec![0]);
        assert_eq!(span(&g), 42);
    }
}
