//! Topological utilities over [`KDag`]s.

use crate::graph::KDag;
use crate::types::TaskId;

/// Returns a topological order of all tasks (parents before children), or
/// `None` if the graph contains a cycle.
///
/// An *id-ordered* DAG — every edge goes from a lower to a higher id, as
/// every workload generator emits — is returned in id order `0..n`
/// without a sort; the builder notes this while it lays out the CSR.
/// Any other DAG runs Kahn's algorithm, O(|V| + |E|), whose order is
/// deterministic: among simultaneously-available tasks, lower task ids
/// come first (the frontier is a sorted-by-construction FIFO over an
/// initial id-ordered scan).
///
/// The analyses over this order (spans, due dates, descendant values,
/// different-child distances) are DPs over each task's children, so any
/// topological order gives them the same bits.
pub fn topological_order(dag: &KDag) -> Option<Vec<TaskId>> {
    if dag.id_ordered {
        return Some(dag.tasks().collect());
    }
    let order = partial_topological_order(dag);
    (order.len() == dag.num_tasks()).then_some(order)
}

/// Kahn's algorithm run to exhaustion; on cyclic graphs returns only the
/// tasks not involved in (or downstream of) a cycle. Used for cycle
/// diagnostics in the builder.
///
/// The output doubles as the FIFO frontier: tasks are appended when their
/// last parent is consumed and consumed from `head`, so the order is the
/// one a separate queue would pop.
pub(crate) fn partial_topological_order(dag: &KDag) -> Vec<TaskId> {
    let n = dag.num_tasks();
    let mut indeg = dag.parent_counts.clone();
    let mut order = Vec::with_capacity(n);
    order.extend((0..n).filter(|&i| indeg[i] == 0).map(TaskId::from_index));
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        for &c in dag.children(v) {
            indeg[c.index()] -= 1;
            if indeg[c.index()] == 0 {
                order.push(c);
            }
        }
    }
    order
}

/// The tasks children-first, the sweep order of every per-task analysis
/// (spans, descendant values, different-child distances): `n-1, …, 0`
/// for an id-ordered DAG, with no allocation, and Kahn's order reversed
/// otherwise. Each analysis is a DP over a task's children, which any
/// reverse topological order has finished before the task, so the
/// values do not depend on which order this is.
///
/// # Panics
/// On cyclic input — only built [`KDag`]s (which are validated) should
/// reach this.
pub(crate) fn children_first(dag: &KDag) -> impl Iterator<Item = TaskId> {
    // One of the two halves is empty: the ids, or Kahn's order.
    let (ids, kahn) = if dag.id_ordered {
        (0..dag.num_tasks(), Vec::new())
    } else {
        let order = topological_order(dag).expect("KDag invariant violated: cycle");
        (0..0, order)
    };
    ids.rev()
        .map(TaskId::from_index)
        .chain(kahn.into_iter().rev())
}

/// Longest-path depth (in edge count) of every task: roots have depth 0,
/// and `depth(v) = 1 + max over parents`. Useful for layered layouts and
/// generator tests.
pub fn depths(dag: &KDag) -> Vec<u32> {
    let mut depth = vec![0u32; dag.num_tasks()];
    for &v in topological_order(dag)
        .expect("KDag invariant violated: cycle")
        .iter()
    {
        for &c in dag.children(v) {
            depth[c.index()] = depth[c.index()].max(depth[v.index()] + 1);
        }
    }
    depth
}

/// Groups tasks into layers by longest-path depth; layer `d` holds every
/// task whose depth is `d`, in id order. The number of layers equals
/// `max(depths) + 1` (or 0 for an empty graph).
pub fn layers(dag: &KDag) -> Vec<Vec<TaskId>> {
    if dag.is_empty() {
        return Vec::new();
    }
    let depth = depths(dag);
    let num_layers = *depth.iter().max().unwrap() as usize + 1;
    let mut out = vec![Vec::new(); num_layers];
    for v in dag.tasks() {
        out[depth[v.index()] as usize].push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KDagBuilder;

    fn two_chains_joined() -> KDag {
        // 0 -> 1 -> 4, 2 -> 3 -> 4
        let mut b = KDagBuilder::new(1);
        let t: Vec<_> = (0..5).map(|_| b.add_task(0, 1)).collect();
        b.add_edge(t[0], t[1]).unwrap();
        b.add_edge(t[1], t[4]).unwrap();
        b.add_edge(t[2], t[3]).unwrap();
        b.add_edge(t[3], t[4]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn children_first_reverses_the_topological_order() {
        // Id-ordered (no sort), and the same shape relabelled so that
        // edges point down in id (Kahn's order): 4 -> 1 -> 0, 2 -> 3 -> 0.
        let mut b = KDagBuilder::new(1);
        let t: Vec<_> = (0..5).map(|_| b.add_task(0, 1)).collect();
        b.add_edge(t[4], t[1]).unwrap();
        b.add_edge(t[1], t[0]).unwrap();
        b.add_edge(t[2], t[3]).unwrap();
        b.add_edge(t[3], t[0]).unwrap();
        let relabelled = b.build().unwrap();
        for g in [two_chains_joined(), relabelled] {
            let mut fwd = topological_order(&g).unwrap();
            fwd.reverse();
            assert_eq!(fwd, children_first(&g).collect::<Vec<_>>());
        }
    }

    #[test]
    fn depths_are_longest_paths() {
        // 0 -> 1 -> 2, and 0 -> 2 directly: depth(2) must be 2 (longest).
        let mut b = KDagBuilder::new(1);
        let a = b.add_task(0, 1);
        let m = b.add_task(0, 1);
        let z = b.add_task(0, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, z).unwrap();
        b.add_edge(a, z).unwrap();
        let g = b.build().unwrap();
        assert_eq!(depths(&g), vec![0, 1, 2]);
    }

    #[test]
    fn layers_partition_all_tasks() {
        let g = two_chains_joined();
        let ls = layers(&g);
        assert_eq!(ls.iter().map(Vec::len).sum::<usize>(), g.num_tasks());
        assert_eq!(ls.len(), 3);
        // layer 0 = the two roots
        assert_eq!(ls[0].len(), 2);
        assert_eq!(ls[2].len(), 1);
    }

    #[test]
    fn layers_of_empty_graph() {
        let g = KDagBuilder::new(1).build().unwrap();
        assert!(layers(&g).is_empty());
        assert_eq!(topological_order(&g).unwrap(), Vec::new());
    }
}
