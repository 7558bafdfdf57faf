//! Flexible (JIT-compilable) K-DAGs — the paper's §VII extension.
//!
//! The paper closes with an open problem: with Just-In-Time compilation a
//! task is no longer bound to one resource type — it "can be compiled to
//! different binaries at run time and flexibly executed on different
//! types of resources", and the scheduler "must choose appropriate
//! resource types to compile the task for".
//!
//! [`FlexKDag`] models that: each task carries a non-empty set of
//! *placement options* `(type, work)` — the same computation may cost
//! different amounts on different resource types (a GPU binary of a
//! data-parallel kernel is usually faster than its CPU fallback). A
//! *binding* chooses one option per task and yields an ordinary
//! [`KDag`], after which the schedulers of this project apply unchanged.
//! Binding algorithms live in `fhs-core::flex`.

use crate::builder::{GraphError, KDagBuilder};
use crate::graph::KDag;
use crate::types::{TaskId, Work};

/// One placement option of a flexible task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Resource type the binary would run on.
    pub rtype: usize,
    /// Execution time on that type.
    pub work: Work,
}

/// A K-DAG whose tasks may each run on several resource types.
///
/// Structure (edges) is fixed; only the type/work of each task is open.
/// Build with [`FlexKDagBuilder`]; freeze a choice with
/// [`FlexKDag::bind`].
#[derive(Clone, Debug)]
pub struct FlexKDag {
    k: usize,
    options: Vec<Vec<Placement>>,
    edges: Vec<(TaskId, TaskId)>,
}

impl FlexKDag {
    /// Number of resource types `K`.
    pub fn num_types(&self) -> usize {
        self.k
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.options.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The placement options of task `v` (always non-empty).
    pub fn options(&self, v: TaskId) -> &[Placement] {
        &self.options[v.index()]
    }

    /// The edges, as `(from, to)` pairs.
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.edges
    }

    /// Freezes a binding: `choice[i]` selects the option index for task
    /// `i`. Returns the concrete [`KDag`].
    ///
    /// # Panics
    /// If `choice` has the wrong length or an index is out of range for
    /// its task's option list.
    pub fn bind(&self, choice: &[usize]) -> KDag {
        assert_eq!(choice.len(), self.num_tasks(), "one choice per task");
        let mut b = KDagBuilder::with_capacity(self.k, self.num_tasks(), self.edges.len());
        for (i, opts) in self.options.iter().enumerate() {
            let pick = opts[choice[i]];
            b.add_task(pick.rtype, pick.work);
        }
        for &(u, v) in &self.edges {
            b.add_edge(u, v).expect("edges were validated at build");
        }
        b.build().expect("structure was validated at build")
    }

    /// Total work per type under a binding, without materializing the
    /// graph — used by binding heuristics.
    pub fn bound_work_per_type(&self, choice: &[usize]) -> Vec<Work> {
        assert_eq!(choice.len(), self.num_tasks());
        let mut out = vec![0; self.k];
        for (i, opts) in self.options.iter().enumerate() {
            let pick = opts[choice[i]];
            out[pick.rtype] += pick.work;
        }
        out
    }
}

/// Checked builder for [`FlexKDag`]; mirrors [`KDagBuilder`].
#[derive(Clone, Debug)]
pub struct FlexKDagBuilder {
    k: usize,
    options: Vec<Vec<Placement>>,
    edges: Vec<(TaskId, TaskId)>,
}

impl FlexKDagBuilder {
    /// Starts a builder for `k` resource types.
    pub fn new(k: usize) -> Self {
        FlexKDagBuilder {
            k,
            options: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a task with the given placement options and returns its id.
    /// Options are validated at [`FlexKDagBuilder::build`].
    pub fn add_task(&mut self, options: Vec<Placement>) -> TaskId {
        let id = TaskId::from_index(self.options.len());
        self.options.push(options);
        id
    }

    /// Adds a precedence edge; same eager checks as the plain builder.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        let n = self.options.len();
        if from.index() >= n {
            return Err(GraphError::UnknownTask(from));
        }
        if to.index() >= n {
            return Err(GraphError::UnknownTask(to));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        self.edges.push((from, to));
        Ok(())
    }

    /// Validates everything by test-binding the first option of each task
    /// (acyclicity and duplicate edges are binding-independent; type
    /// ranges and zero works are checked across *all* options).
    pub fn build(self) -> Result<FlexKDag, GraphError> {
        if self.k == 0 {
            return Err(GraphError::NoTypes);
        }
        for (i, opts) in self.options.iter().enumerate() {
            let t = TaskId::from_index(i);
            if opts.is_empty() {
                // a task with no options can never run; surface it as a
                // zero-work error (the nearest existing category)
                return Err(GraphError::ZeroWork(t));
            }
            for p in opts {
                if p.rtype >= self.k {
                    return Err(GraphError::TypeOutOfRange {
                        task: t,
                        rtype: p.rtype,
                        k: self.k,
                    });
                }
                if p.work == 0 {
                    return Err(GraphError::ZeroWork(t));
                }
            }
        }
        let flex = FlexKDag {
            k: self.k,
            options: self.options,
            edges: self.edges,
        };
        // structural validation via a trial binding
        let mut b = KDagBuilder::with_capacity(flex.k, flex.num_tasks(), flex.edges.len());
        for opts in &flex.options {
            b.add_task(opts[0].rtype, opts[0].work);
        }
        for &(u, v) in &flex.edges {
            b.add_edge(u, v)?;
        }
        b.build()?;
        Ok(flex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_option_chain() -> FlexKDag {
        let mut b = FlexKDagBuilder::new(2);
        let a = b.add_task(vec![
            Placement { rtype: 0, work: 4 },
            Placement { rtype: 1, work: 2 },
        ]);
        let c = b.add_task(vec![Placement { rtype: 0, work: 3 }]);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bind_materializes_the_choice() {
        let f = two_option_chain();
        let g0 = f.bind(&[0, 0]);
        assert_eq!(g0.rtype(TaskId::from_index(0)), 0);
        assert_eq!(g0.work(TaskId::from_index(0)), 4);
        let g1 = f.bind(&[1, 0]);
        assert_eq!(g1.rtype(TaskId::from_index(0)), 1);
        assert_eq!(g1.work(TaskId::from_index(0)), 2);
        // structure identical under both bindings
        assert_eq!(g0.num_edges(), g1.num_edges());
    }

    #[test]
    fn bound_work_per_type_matches_bind() {
        let f = two_option_chain();
        for choice in [[0usize, 0], [1, 0]] {
            let quick = f.bound_work_per_type(&choice);
            let full = f.bind(&choice).total_work_per_type();
            assert_eq!(quick, full);
        }
    }

    #[test]
    #[should_panic(expected = "one choice per task")]
    fn bind_rejects_wrong_length() {
        two_option_chain().bind(&[0]);
    }

    #[test]
    fn build_rejects_bad_options() {
        let mut b = FlexKDagBuilder::new(1);
        b.add_task(vec![]);
        assert!(matches!(b.build(), Err(GraphError::ZeroWork(_))));

        let mut b = FlexKDagBuilder::new(1);
        b.add_task(vec![Placement { rtype: 1, work: 1 }]);
        assert!(matches!(b.build(), Err(GraphError::TypeOutOfRange { .. })));

        let mut b = FlexKDagBuilder::new(1);
        b.add_task(vec![Placement { rtype: 0, work: 0 }]);
        assert!(matches!(b.build(), Err(GraphError::ZeroWork(_))));
    }

    #[test]
    fn build_rejects_cycles() {
        let mut b = FlexKDagBuilder::new(1);
        let a = b.add_task(vec![Placement { rtype: 0, work: 1 }]);
        let c = b.add_task(vec![Placement { rtype: 0, work: 1 }]);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert!(matches!(b.build(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn fixed_tasks_have_one_option() {
        let f = two_option_chain();
        assert_eq!(f.options(TaskId::from_index(1)).len(), 1);
        assert_eq!(f.options(TaskId::from_index(0)).len(), 2);
        assert_eq!(f.num_tasks(), 2);
        assert_eq!(f.num_edges(), 1);
        assert_eq!(f.num_types(), 2);
    }
}
