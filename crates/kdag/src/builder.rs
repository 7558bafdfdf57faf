//! Checked construction of [`KDag`]s.

use std::fmt;

use crate::graph::KDag;
use crate::types::{TaskId, Work};

/// Errors detected while building a K-DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referred to a task id that was never added.
    UnknownTask(TaskId),
    /// `add_edge(u, u)` — self-loops are cycles.
    SelfLoop(TaskId),
    /// The same `u → v` edge was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The finished edge set contains a directed cycle; the payload is one
    /// task on some cycle, for diagnostics.
    Cycle(TaskId),
    /// A task was declared with a resource type `≥ K`, or one that does
    /// not fit in the 32 bits a [`KDag`] stores a type in.
    TypeOutOfRange {
        /// Offending task.
        task: TaskId,
        /// Declared type.
        rtype: usize,
        /// Number of types the builder was created with.
        k: usize,
    },
    /// A task was declared with zero work; the discrete-time model requires
    /// every task to occupy at least one time unit.
    ZeroWork(TaskId),
    /// The total work `T₁` overflows [`Work`]; the payload is the task
    /// whose work pushed the running sum past `u64::MAX`.
    WorkOverflow(TaskId),
    /// The builder was created with `K = 0`.
    NoTypes,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownTask(t) => write!(f, "edge references unknown task {t}"),
            GraphError::SelfLoop(t) => write!(f, "self-loop on task {t}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {u} -> {v}"),
            GraphError::Cycle(t) => write!(f, "graph contains a cycle through task {t}"),
            GraphError::TypeOutOfRange { task, rtype, k } => {
                write!(f, "task {task} has type {rtype}, but K = {k}")
            }
            GraphError::ZeroWork(t) => write!(f, "task {t} has zero work"),
            GraphError::WorkOverflow(t) => write!(f, "total work overflows u64 at task {t}"),
            GraphError::NoTypes => write!(f, "a K-DAG needs at least one resource type"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder for [`KDag`].
///
/// Tasks are added first (each returning its dense [`TaskId`]), then edges;
/// [`KDagBuilder::build`] validates the result (acyclicity, type ranges,
/// positive work) and freezes it into CSR form.
///
/// ```
/// use kdag::KDagBuilder;
/// let mut b = KDagBuilder::new(2);
/// let u = b.add_task(0, 1);
/// let v = b.add_task(1, 1);
/// b.add_edge(u, v).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.num_edges(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct KDagBuilder {
    k: usize,
    rtypes: Vec<u32>,
    works: Vec<Work>,
    edges: Vec<(TaskId, TaskId)>,
    /// The first task declared with a type out of range, and that type.
    bad_type: Option<(TaskId, usize)>,
}

impl KDagBuilder {
    /// Starts a builder for a system with `k` resource types.
    pub fn new(k: usize) -> Self {
        KDagBuilder {
            k,
            rtypes: Vec::new(),
            works: Vec::new(),
            edges: Vec::new(),
            bad_type: None,
        }
    }

    /// Pre-reserves capacity for `tasks` tasks and `edges` edges.
    pub fn with_capacity(k: usize, tasks: usize, edges: usize) -> Self {
        KDagBuilder {
            k,
            rtypes: Vec::with_capacity(tasks),
            works: Vec::with_capacity(tasks),
            edges: Vec::with_capacity(edges),
            bad_type: None,
        }
    }

    /// Adds a task of resource type `rtype` with `work` time units and
    /// returns its id. Validation of `rtype`/`work` is deferred to
    /// [`KDagBuilder::build`] so generators can stay infallible.
    pub fn add_task(&mut self, rtype: usize, work: Work) -> TaskId {
        let id = TaskId::from_index(self.works.len());
        match u32::try_from(rtype) {
            Ok(t) if rtype < self.k => self.rtypes.push(t),
            _ => {
                self.bad_type.get_or_insert((id, rtype));
                self.rtypes.push(0);
            }
        }
        self.works.push(work);
        id
    }

    /// Adds a precedence edge `from → to` (`to` cannot start before `from`
    /// completes). Rejects self-loops and endpoints not yet added; duplicate
    /// edges and cycles are detected at [`KDagBuilder::build`] time.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId) -> Result<(), GraphError> {
        let n = self.works.len();
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

    /// Number of tasks added so far.
    pub fn num_tasks(&self) -> usize {
        self.works.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Validates and freezes the graph in O(V + E).
    ///
    /// Errors take precedence in this order: [`GraphError::NoTypes`], then
    /// per-task [`GraphError::TypeOutOfRange`] / [`GraphError::ZeroWork`] /
    /// [`GraphError::WorkOverflow`] (lowest id first; a task's own type and
    /// work are checked before the running `T₁` sum it extends), then
    /// [`GraphError::DuplicateEdge`] (the lexicographically smallest
    /// repeated pair), then [`GraphError::Cycle`].
    pub fn build(self) -> Result<KDag, GraphError> {
        if self.k == 0 {
            return Err(GraphError::NoTypes);
        }
        let n = self.works.len();
        let mut total: Work = 0;
        for i in 0..n {
            let t = TaskId::from_index(i);
            if let Some((task, rtype)) = self.bad_type.filter(|&(task, _)| task == t) {
                return Err(GraphError::TypeOutOfRange {
                    task,
                    rtype,
                    k: self.k,
                });
            }
            if self.works[i] == 0 {
                return Err(GraphError::ZeroWork(t));
            }
            total = total
                .checked_add(self.works[i])
                .ok_or(GraphError::WorkOverflow(t))?;
        }

        // Child CSR construction (counting sort over edge sources); parents
        // are only counted. The same pass notes whether every edge points
        // from a lower to a higher id.
        let mut child_offsets = vec![0u32; n + 1];
        let mut parent_counts = vec![0u32; n];
        let mut forward = true;
        for &(u, v) in &self.edges {
            child_offsets[u.index() + 1] += 1;
            parent_counts[v.index()] += 1;
            forward &= u < v;
        }
        for i in 0..n {
            child_offsets[i + 1] += child_offsets[i];
        }
        let mut child_targets = vec![TaskId::from_index(0); self.edges.len()];
        let mut child_fill = child_offsets.clone();
        for &(u, v) in &self.edges {
            let ci = child_fill[u.index()] as usize;
            child_targets[ci] = v;
            child_fill[u.index()] += 1;
        }

        if let Some((u, v)) = smallest_duplicate(&child_offsets, &child_targets) {
            return Err(GraphError::DuplicateEdge(u, v));
        }

        let dag = KDag {
            k: self.k,
            rtypes: self.rtypes,
            works: self.works,
            child_offsets,
            child_targets,
            parent_counts,
            id_ordered: forward,
        };

        // Ids increase along every edge, so id order is a topological
        // order: the graph is acyclic without a Kahn pass, and the
        // topological sorts in `crate::topo` return the id order. (All the
        // workload generators add tasks phase by phase and take this path.)
        if forward {
            return Ok(dag);
        }
        // Cycle check: Kahn's algorithm must consume every task; any task
        // it leaves out is on (or downstream of) a cycle.
        let order = crate::topo::partial_topological_order(&dag);
        if order.len() == n {
            return Ok(dag);
        }
        let mut in_order = vec![false; n];
        for t in &order {
            in_order[t.index()] = true;
        }
        let culprit = (0..n)
            .map(TaskId::from_index)
            .find(|t| !in_order[t.index()])
            .expect("cycle reported but all tasks ordered");
        Err(GraphError::Cycle(culprit))
    }
}

/// The lexicographically smallest edge `(u, v)` that appears more than
/// once in the child CSR, in O(V + E): `seen[v]` stamps the last source
/// whose list held `v`, so a repeat within `u`'s list finds its own stamp.
/// Sources are scanned in increasing order, so the first source with a
/// repeat is the smallest `u`; its smallest repeated target is `v`.
fn smallest_duplicate(offsets: &[u32], targets: &[TaskId]) -> Option<(TaskId, TaskId)> {
    let n = offsets.len() - 1;
    let mut seen = vec![u32::MAX; n];
    for u in 0..n {
        let mut smallest: Option<TaskId> = None;
        for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
            if seen[v.index()] == u as u32 {
                smallest = Some(smallest.map_or(v, |s| s.min(v)));
            }
            seen[v.index()] = u as u32;
        }
        if let Some(v) = smallest {
            return Some((TaskId::from_index(u), v));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_unknown_endpoints_eagerly() {
        let mut b = KDagBuilder::new(1);
        let u = b.add_task(0, 1);
        let ghost = TaskId::from_index(7);
        assert_eq!(b.add_edge(u, ghost), Err(GraphError::UnknownTask(ghost)));
        assert_eq!(b.add_edge(ghost, u), Err(GraphError::UnknownTask(ghost)));
    }

    #[test]
    fn rejects_self_loop_eagerly() {
        let mut b = KDagBuilder::new(1);
        let u = b.add_task(0, 1);
        assert_eq!(b.add_edge(u, u), Err(GraphError::SelfLoop(u)));
    }

    #[test]
    fn rejects_duplicate_edge_at_build() {
        let mut b = KDagBuilder::new(1);
        let u = b.add_task(0, 1);
        let v = b.add_task(0, 1);
        b.add_edge(u, v).unwrap();
        b.add_edge(u, v).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::DuplicateEdge(u, v));
    }

    #[test]
    fn rejects_cycles_at_build() {
        let mut b = KDagBuilder::new(1);
        let u = b.add_task(0, 1);
        let v = b.add_task(0, 1);
        let w = b.add_task(0, 1);
        b.add_edge(u, v).unwrap();
        b.add_edge(v, w).unwrap();
        b.add_edge(w, u).unwrap();
        assert!(matches!(b.build().unwrap_err(), GraphError::Cycle(_)));
    }

    fn builder_with_edges(n: usize, edges: &[(usize, usize)]) -> KDagBuilder {
        let mut b = KDagBuilder::new(1);
        for _ in 0..n {
            b.add_task(0, 1);
        }
        for &(u, v) in edges {
            b.add_edge(TaskId::from_index(u), TaskId::from_index(v))
                .unwrap();
        }
        b
    }

    #[test]
    fn reports_the_smallest_of_several_duplicates() {
        let b = builder_with_edges(
            5,
            &[
                (2, 3),
                (4, 1),
                (2, 3),
                (0, 4),
                (4, 1),
                (1, 2),
                (0, 4),
                (0, 3),
                (0, 3),
                (1, 2),
            ],
        );
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge(TaskId::from_index(0), TaskId::from_index(3))
        );
    }

    #[test]
    fn duplicate_takes_precedence_over_cycle() {
        // 1 -> 2 -> 1 is a cycle; 2 -> 1 is also repeated.
        let b = builder_with_edges(3, &[(0, 1), (1, 2), (2, 1), (2, 1)]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::DuplicateEdge(TaskId::from_index(2), TaskId::from_index(1))
        );
    }

    #[test]
    fn builds_acyclic_graph_with_backward_id_edges() {
        // 3 -> 0 -> 2 and 3 -> 1: acyclic, but not id-ordered, so the
        // forward-edge shortcut does not apply and Kahn's pass decides.
        let g = builder_with_edges(4, &[(3, 0), (0, 2), (3, 1)])
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 3);
        let order = crate::topo::topological_order(&g).unwrap();
        let ids: Vec<usize> = order.iter().map(|t| t.index()).collect();
        assert_eq!(ids, vec![3, 0, 1, 2]);
    }

    #[test]
    fn cycle_with_one_backward_edge_names_the_first_blocked_task() {
        // 0 -> 2 -> 3 -> 4 -> 2 closes a cycle with the single backward
        // edge 4 -> 2; 1 -> 5 is independent and 4 -> 6 hangs off the
        // cycle. Kahn consumes 0, 1, 5 and blocks at 2.
        let b = builder_with_edges(7, &[(0, 2), (2, 3), (3, 4), (4, 2), (1, 5), (4, 6)]);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::Cycle(TaskId::from_index(2))
        );
    }

    #[test]
    fn rejects_type_out_of_range_and_zero_work() {
        let mut b = KDagBuilder::new(2);
        b.add_task(2, 1);
        assert!(matches!(
            b.build().unwrap_err(),
            GraphError::TypeOutOfRange { rtype: 2, k: 2, .. }
        ));

        let mut b = KDagBuilder::new(2);
        let z = b.add_task(0, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::ZeroWork(z));

        // Errors keep id order: task 0's zero work before task 1's type.
        let mut b = KDagBuilder::new(2);
        let z = b.add_task(0, 0);
        b.add_task(5, 1);
        assert_eq!(b.build().unwrap_err(), GraphError::ZeroWork(z));

        // A type wider than 32 bits is reported as declared, whatever K.
        let wide = u32::MAX as usize + 1;
        let mut b = KDagBuilder::new(usize::MAX);
        b.add_task(0, 1);
        let t = b.add_task(wide, 1);
        assert_eq!(
            b.build().unwrap_err(),
            GraphError::TypeOutOfRange {
                task: t,
                rtype: wide,
                k: usize::MAX
            }
        );
    }

    #[test]
    fn rejects_total_work_overflow() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, u64::MAX);
        let v = b.add_task(0, 5);
        b.add_task(0, 0);
        assert_eq!(b.build().unwrap_err(), GraphError::WorkOverflow(v));

        // The whole range of a single task's work stays accepted.
        let mut b = KDagBuilder::new(1);
        b.add_task(0, u64::MAX);
        assert_eq!(b.build().unwrap().total_work(), u64::MAX);
    }

    #[test]
    fn rejects_zero_types() {
        assert_eq!(
            KDagBuilder::new(0).build().unwrap_err(),
            GraphError::NoTypes
        );
    }

    #[test]
    fn builds_a_valid_dag_with_csr_adjacency() {
        let mut b = KDagBuilder::with_capacity(2, 3, 2);
        let a = b.add_task(0, 2);
        let c = b.add_task(1, 3);
        let d = b.add_task(0, 4);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        assert_eq!(b.num_tasks(), 3);
        assert_eq!(b.num_edges(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.children(a), &[c, d]);
        assert_eq!(g.num_parents(d), 1);
        assert_eq!(g.num_parents(a), 0);
    }

    #[test]
    fn error_messages_are_informative() {
        let msg = GraphError::TypeOutOfRange {
            task: TaskId::from_index(3),
            rtype: 5,
            k: 4,
        }
        .to_string();
        assert!(msg.contains("t3") && msg.contains('5') && msg.contains('4'));
        assert!(GraphError::NoTypes.to_string().contains("at least one"));
    }
}
