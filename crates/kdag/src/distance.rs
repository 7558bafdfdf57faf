//! Different-child distances — the DType heuristic's ranking key.
//!
//! The paper defines a task's *different-child distance* as the shortest
//! (edge-count) distance to any descendant whose resource type differs from
//! the task's own. DType prioritizes ready tasks with the **smallest**
//! distance: completing them soonest unlocks work for other resource types.

use crate::graph::KDag;
use crate::topo::children_first;
use crate::types::TaskId;

/// "No different-type descendant". A distance counts the edges of a
/// path, so only a chain of 2³² tasks could reach this value.
const NONE: u32 = u32::MAX;

/// Per-task different-child distances, 4 bytes a task (a task with no
/// different-type descendant stores a sentinel).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Distances(Vec<u32>);

fn decode(d: u32) -> Option<u32> {
    (d != NONE).then_some(d)
}

impl Distances {
    /// The distance from `v` to its nearest different-type descendant;
    /// `None` when every descendant (possibly none) shares `v`'s type.
    #[inline]
    pub fn get(&self, v: TaskId) -> Option<u32> {
        decode(self.0[v.index()])
    }
}

/// Every distance, in task order.
impl<'a> IntoIterator for &'a Distances {
    type Item = Option<u32>;
    type IntoIter =
        std::iter::Map<std::iter::Copied<std::slice::Iter<'a, u32>>, fn(u32) -> Option<u32>>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter().copied().map(decode)
    }
}

/// Distance from each task to its nearest different-type descendant (see
/// [`Distances::get`]).
///
/// Recursion (reverse topological):
///
/// ```text
/// dist(v) = min over children u of:  1                 if rtype(u) ≠ rtype(v)
///                                    1 + dist(u)       if rtype(u) = rtype(v)
/// ```
///
/// The same-type case may reuse `dist(u)` directly because `u` shares `v`'s
/// type, so "different from `u`" and "different from `v`" coincide.
pub fn different_child_distances(dag: &KDag) -> Distances {
    let mut dist = vec![NONE; dag.num_tasks()];
    for v in children_first(dag) {
        // `NONE` is the largest value, and `NONE + 1` saturates to it, so
        // a plain minimum keeps "no descendant" out of every real distance.
        dist[v.index()] = dag
            .children(v)
            .iter()
            .map(|&u| {
                if dag.rtype(u) != dag.rtype(v) {
                    1
                } else {
                    dist[u.index()].saturating_add(1)
                }
            })
            .min()
            .unwrap_or(NONE);
    }
    Distances(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KDagBuilder;

    fn all(g: &KDag) -> Vec<Option<u32>> {
        different_child_distances(g).into_iter().collect()
    }

    #[test]
    fn immediate_different_child_is_distance_one() {
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 1);
        let c = b.add_task(1, 1);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert_eq!(all(&g), vec![Some(1), None]);
    }

    #[test]
    fn distance_counts_hops_through_same_type_chain() {
        // type0 -> type0 -> type0 -> type1
        let mut b = KDagBuilder::new(2);
        let t0 = b.add_task(0, 1);
        let t1 = b.add_task(0, 1);
        let t2 = b.add_task(0, 1);
        let t3 = b.add_task(1, 1);
        b.add_edge(t0, t1).unwrap();
        b.add_edge(t1, t2).unwrap();
        b.add_edge(t2, t3).unwrap();
        let g = b.build().unwrap();
        assert_eq!(all(&g), vec![Some(3), Some(2), Some(1), None]);
    }

    #[test]
    fn takes_shortest_branch() {
        // v has two branches: same-type chain of length 3 to a type1, and a
        // direct type1 child. Distance must be 1.
        let mut b = KDagBuilder::new(2);
        let v = b.add_task(0, 1);
        let near = b.add_task(1, 1);
        let mid = b.add_task(0, 1);
        let far = b.add_task(1, 1);
        b.add_edge(v, near).unwrap();
        b.add_edge(v, mid).unwrap();
        b.add_edge(mid, far).unwrap();
        let g = b.build().unwrap();
        let d = different_child_distances(&g);
        assert_eq!(d.get(v), Some(1));
        assert_eq!(d.get(mid), Some(1));
    }

    #[test]
    fn homogeneous_graph_has_no_distances() {
        let mut b = KDagBuilder::new(3); // K=3 but only type 2 used
        let a = b.add_task(2, 1);
        let c = b.add_task(2, 1);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert!(all(&g).iter().all(Option::is_none));
    }

    #[test]
    fn distance_relative_to_own_type_not_childs() {
        // type0 -> type1 -> type1: the middle task's nearest different-type
        // descendant does NOT exist (its only descendant shares type 1),
        // while the root's is at distance 1.
        let mut b = KDagBuilder::new(2);
        let r = b.add_task(0, 1);
        let m = b.add_task(1, 1);
        let l = b.add_task(1, 1);
        b.add_edge(r, m).unwrap();
        b.add_edge(m, l).unwrap();
        let g = b.build().unwrap();
        let d = different_child_distances(&g);
        assert_eq!(d.get(r), Some(1));
        assert_eq!(d.get(m), None);
        assert_eq!(d.get(l), None);
    }
}
