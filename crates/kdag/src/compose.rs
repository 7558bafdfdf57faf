//! Composing K-DAGs: disjoint unions and batch views.
//!
//! The simulator schedules *one* K-DAG, but a K-DAG need not be
//! connected — the disjoint union of several jobs is itself a K-DAG, and
//! scheduling the union is exactly the "minimize the completion time of
//! the batch" problem. [`disjoint_union`] builds that union and returns
//! the id offsets needed to map tasks back to their source job.

use crate::builder::KDagBuilder;
use crate::graph::KDag;
use crate::types::TaskId;

/// The result of a [`disjoint_union`]: the merged job plus bookkeeping to
/// attribute tasks back to their component jobs.
#[derive(Clone, Debug)]
pub struct Batch {
    /// The union K-DAG.
    pub job: KDag,
    /// `offsets[j]` = index of component `j`'s first task in the union;
    /// a final sentinel entry holds the total task count.
    pub offsets: Vec<usize>,
}

impl Batch {
    /// Number of component jobs.
    pub fn num_components(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Which component a union-task belongs to (binary search).
    pub fn component_of(&self, v: TaskId) -> usize {
        match self.offsets.binary_search(&v.index()) {
            Ok(j) if j == self.offsets.len() - 1 => j - 1,
            Ok(j) => j,
            Err(j) => j - 1,
        }
    }
}

/// Builds the disjoint union of `jobs` (all must declare the same `K`).
///
/// # Panics
/// If `jobs` is empty or the components disagree on `K`.
pub fn disjoint_union(jobs: &[&KDag]) -> Batch {
    assert!(!jobs.is_empty(), "cannot union zero jobs");
    let k = jobs[0].num_types();
    assert!(
        jobs.iter().all(|j| j.num_types() == k),
        "all jobs must declare the same K"
    );
    let total_tasks: usize = jobs.iter().map(|j| j.num_tasks()).sum();
    let total_edges: usize = jobs.iter().map(|j| j.num_edges()).sum();
    let mut b = KDagBuilder::with_capacity(k, total_tasks, total_edges);
    let mut offsets = Vec::with_capacity(jobs.len() + 1);
    for job in jobs {
        let base = b.num_tasks();
        offsets.push(base);
        for v in job.tasks() {
            b.add_task(job.rtype(v), job.work(v));
        }
        for v in job.tasks() {
            for &c in job.children(v) {
                b.add_edge(
                    TaskId::from_index(base + v.index()),
                    TaskId::from_index(base + c.index()),
                )
                .expect("copied edges are valid");
            }
        }
    }
    offsets.push(total_tasks);
    Batch {
        job: b.build().expect("union of valid K-DAGs is valid"),
        offsets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::figure1;
    use crate::metrics;

    #[test]
    fn union_preserves_components() {
        let a = figure1();
        let b = figure1();
        let batch = disjoint_union(&[&a, &b]);
        assert_eq!(batch.num_components(), 2);
        assert_eq!(batch.job.num_tasks(), 28);
        assert_eq!(batch.job.num_edges(), 2 * a.num_edges());
        // per-type work doubles
        assert_eq!(batch.job.total_work_per_type(), vec![14, 8, 6]);
        // span stays the max of component spans
        assert_eq!(metrics::span(&batch.job), metrics::span(&a));
    }

    #[test]
    fn component_attribution_round_trips() {
        let a = figure1();
        let b = figure1();
        let batch = disjoint_union(&[&a, &b]);
        for j in 0..2 {
            for v in a.tasks() {
                let u = TaskId::from_index(batch.offsets[j] + v.index());
                assert_eq!(batch.component_of(u), j, "task {v} of component {j}");
                assert_eq!(batch.job.rtype(u), a.rtype(v));
                assert_eq!(batch.job.work(u), a.work(v));
            }
        }
    }

    #[test]
    fn no_cross_component_edges() {
        let a = figure1();
        let b = figure1();
        let batch = disjoint_union(&[&a, &b]);
        for v in batch.job.tasks() {
            for &c in batch.job.children(v) {
                assert_eq!(batch.component_of(v), batch.component_of(c));
            }
        }
    }

    #[test]
    #[should_panic(expected = "same K")]
    fn rejects_mismatched_k() {
        let a = figure1(); // K = 3
        let mut bb = crate::KDagBuilder::new(2);
        bb.add_task(0, 1);
        let b = bb.build().unwrap();
        disjoint_union(&[&a, &b]);
    }

    #[test]
    #[should_panic(expected = "zero jobs")]
    fn rejects_empty_union() {
        disjoint_union(&[]);
    }

    #[test]
    fn scheduling_a_batch_works_end_to_end() {
        // The union is an ordinary K-DAG; span/lower-bound metrics apply.
        let a = figure1();
        let batch = disjoint_union(&[&a, &a, &a]);
        let lb = metrics::lower_bound(&batch.job, &[2, 2, 2]);
        assert!(lb >= metrics::span(&a));
        assert_eq!(batch.job.roots().count(), 3 * a.roots().count());
    }
}
