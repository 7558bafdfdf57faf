//! The immutable K-DAG graph.

use crate::types::{TaskId, Work};

/// An immutable K-DAG: a directed acyclic graph of typed tasks.
///
/// Construct one through [`crate::KDagBuilder`], which validates acyclicity
/// and type ranges. Once built, the graph is read-only; schedulers and the
/// simulator keep their mutable execution state (remaining work, readiness)
/// outside the graph so that one job description can be simulated many
/// times and shared across threads (`KDag` is `Send + Sync`).
///
/// Children are stored in CSR (compressed sparse row) form, so each
/// task's child list is a contiguous slice and iteration in the
/// simulator's hot path is allocation-free. Parents are kept only as a
/// count per task: every analysis and engine walks edges downward, and
/// readiness and the descendant recursion need nothing but `pr(v)`.
#[derive(Clone, Debug)]
pub struct KDag {
    pub(crate) k: usize,
    /// Each task's type, in 32 bits (the builder rejects a wider one).
    pub(crate) rtypes: Vec<u32>,
    pub(crate) works: Vec<Work>,
    // CSR adjacency: children of task i are child_targets[child_offsets[i]..child_offsets[i+1]].
    pub(crate) child_offsets: Vec<u32>,
    pub(crate) child_targets: Vec<TaskId>,
    /// Number of parents of each task.
    pub(crate) parent_counts: Vec<u32>,
    // Every edge goes from a lower to a higher id, so id order is a
    // topological order (set by the builder's CSR pass).
    pub(crate) id_ordered: bool,
}

/// Semantic equality: same `K`, same tasks (type/work by id) and the same
/// *edge set* — adjacency storage order (which follows edge insertion
/// order) is not observable.
impl PartialEq for KDag {
    fn eq(&self, other: &Self) -> bool {
        if self.k != other.k
            || self.rtypes != other.rtypes
            || self.works != other.works
            || self.num_edges() != other.num_edges()
        {
            return false;
        }
        self.tasks().all(|v| {
            let mut a: Vec<TaskId> = self.children(v).to_vec();
            let mut b: Vec<TaskId> = other.children(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        })
    }
}

impl Eq for KDag {}

impl KDag {
    /// Number of resource types `K` this job was declared against.
    ///
    /// Every task's type is `< k`. Note a job need not *use* all `K` types;
    /// `k` is the system-facing declaration.
    #[inline]
    pub fn num_types(&self) -> usize {
        self.k
    }

    /// Number of tasks `|V(J)|`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.works.len()
    }

    /// Number of precedence edges `|E(J)|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.child_targets.len()
    }

    /// Returns `true` if the job has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.works.is_empty()
    }

    /// The resource type `α` of task `v` (0-based, `< K`).
    #[inline]
    pub fn rtype(&self, v: TaskId) -> usize {
        self.rtypes[v.index()] as usize
    }

    /// The work `T1(v, α)` of task `v` (always ≥ 1).
    #[inline]
    pub fn work(&self, v: TaskId) -> Work {
        self.works[v.index()]
    }

    /// Children of `v`: tasks with an edge `v → u`.
    #[inline]
    pub fn children(&self, v: TaskId) -> &[TaskId] {
        let i = v.index();
        let lo = self.child_offsets[i] as usize;
        let hi = self.child_offsets[i + 1] as usize;
        &self.child_targets[lo..hi]
    }

    /// Number of parents `pr(v)`; the denominator in descendant-value
    /// propagation.
    #[inline]
    pub fn num_parents(&self, v: TaskId) -> usize {
        self.parent_counts[v.index()] as usize
    }

    /// Every task's number of parents, in task order: the initial
    /// indegrees of a simulation over the job.
    #[inline]
    pub fn parent_counts(&self) -> &[u32] {
        &self.parent_counts
    }

    /// Iterator over all task ids in dense index order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        (0..self.num_tasks()).map(TaskId::from_index)
    }

    /// Tasks with no parents — ready at time 0.
    pub fn roots(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(|&v| self.num_parents(v) == 0)
    }

    /// Per-type total work as a vector of length `K`: `[T1(J,0), …]`.
    pub fn total_work_per_type(&self) -> Vec<Work> {
        let mut out = vec![0; self.k];
        for v in self.tasks() {
            out[self.rtype(v)] += self.work(v);
        }
        out
    }

    /// Total work `T1(J)` over all types.
    pub fn total_work(&self) -> Work {
        self.works.iter().sum()
    }

    /// Number of tasks of type `alpha`, `|V(J, α)|`.
    pub fn num_tasks_of_type(&self, alpha: usize) -> usize {
        self.rtypes.iter().filter(|&&t| t as usize == alpha).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::{KDag, KDagBuilder, TaskId};

    fn diamond() -> KDag {
        // t0 -> {t1,t2} -> t3, types 0/1/1/0, works 1/2/3/4.
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 1);
        let x = b.add_task(1, 2);
        let y = b.add_task(1, 3);
        let z = b.add_task(0, 4);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_accessors() {
        let g = diamond();
        assert_eq!(g.num_tasks(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_types(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.work(TaskId::from_index(2)), 3);
        assert_eq!(g.rtype(TaskId::from_index(2)), 1);
    }

    #[test]
    fn adjacency_is_consistent_both_directions() {
        let g = diamond();
        let mut counts = vec![0; g.num_tasks()];
        for v in g.tasks() {
            for &c in g.children(v) {
                counts[c.index()] += 1;
            }
        }
        for v in g.tasks() {
            assert_eq!(g.num_parents(v), counts[v.index()]);
        }
    }

    #[test]
    fn roots_and_sinks() {
        let g = diamond();
        assert_eq!(g.roots().collect::<Vec<_>>(), vec![TaskId::from_index(0)]);
        let sinks: Vec<_> = g.tasks().filter(|&v| g.children(v).is_empty()).collect();
        assert_eq!(sinks, vec![TaskId::from_index(3)]);
    }

    #[test]
    fn per_type_work_sums() {
        let g = diamond();
        assert_eq!(g.total_work_per_type(), vec![5, 5]);
        assert_eq!(g.total_work(), 10);
        assert_eq!(g.num_tasks_of_type(0), 2);
        assert_eq!(g.num_tasks_of_type(1), 2);
    }

    /// Whether a directed path leads from `u` to `v` (DFS).
    fn precedes(g: &KDag, u: TaskId, v: TaskId) -> bool {
        if u == v {
            return false;
        }
        let mut seen = vec![false; g.num_tasks()];
        let mut stack = vec![u];
        seen[u.index()] = true;
        while let Some(x) = stack.pop() {
            for &c in g.children(x) {
                if c == v {
                    return true;
                }
                if !seen[c.index()] {
                    seen[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        false
    }

    #[test]
    fn precedes_follows_paths_not_edges_only() {
        let g = diamond();
        let (a, x, z) = (
            TaskId::from_index(0),
            TaskId::from_index(1),
            TaskId::from_index(3),
        );
        assert!(precedes(&g, a, z)); // transitive
        assert!(precedes(&g, a, x));
        assert!(!precedes(&g, z, a));
        assert!(!precedes(&g, a, a)); // irreflexive
        assert!(!precedes(&g, x, TaskId::from_index(2))); // siblings unordered
    }

    #[test]
    fn equality_ignores_edge_insertion_order() {
        let build = |swap: bool| {
            let mut b = KDagBuilder::new(1);
            let a = b.add_task(0, 1);
            let x = b.add_task(0, 1);
            let y = b.add_task(0, 1);
            if swap {
                b.add_edge(a, y).unwrap();
                b.add_edge(a, x).unwrap();
            } else {
                b.add_edge(a, x).unwrap();
                b.add_edge(a, y).unwrap();
            }
            b.build().unwrap()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn equality_detects_real_differences() {
        let mut b = KDagBuilder::new(1);
        let a = b.add_task(0, 1);
        let x = b.add_task(0, 1);
        b.add_edge(a, x).unwrap();
        let g1 = b.build().unwrap();
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 1);
        b.add_task(0, 2); // different work
        let g2 = b.build().unwrap();
        assert_ne!(g1, g2);
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 1);
        b.add_task(0, 1);
        let g3 = b.build().unwrap(); // missing edge
        assert_ne!(g1, g3);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = KDagBuilder::new(3).build().unwrap();
        assert!(g.is_empty());
        assert_eq!(g.num_tasks(), 0);
        assert_eq!(g.total_work_per_type(), vec![0, 0, 0]);
        assert_eq!(g.roots().count(), 0);
    }
}
