//! Job measures from the paper: per-type work `T1(J, α)`, span `T∞(J)`,
//! and per-task remaining spans.

use crate::graph::KDag;
use crate::topo::children_first;
use crate::types::Work;

/// Per-task *remaining span*: `span(v) = w(v) + max over children span(c)`
/// (just `w(v)` for sinks). This is the length of the longest chain that
/// starts at `v`, the quantity LSpan ranks by and the ingredient of due
/// dates. O(|V| + |E|).
pub fn remaining_spans(dag: &KDag) -> Vec<Work> {
    let mut span = vec![0; dag.num_tasks()];
    for v in children_first(dag) {
        let best_child = dag
            .children(v)
            .iter()
            .map(|&c| span[c.index()])
            .max()
            .unwrap_or(0);
        span[v.index()] = dag.work(v) + best_child;
    }
    span
}

/// The span (critical-path length) `T∞(J)`: the maximum total work along
/// any precedence chain. Zero for an empty job.
pub fn span(dag: &KDag) -> Work {
    remaining_spans(dag).into_iter().max().unwrap_or(0)
}

/// The paper's offline lower bound on any schedule's completion time:
///
/// `L(J) = max( T∞(J), max_α T1(J, α) / P_α )`
///
/// with the per-type work terms rounded *up* (a type with `T1` work on
/// `P_α` machines needs at least `⌈T1/P_α⌉` integral time steps). The
/// completion-time-ratio metric in the experiments divides measured
/// makespans by this value.
///
/// # Panics
/// If `procs_per_type.len() != dag.num_types()` or any entry is zero.
pub fn lower_bound(dag: &KDag, procs_per_type: &[usize]) -> Work {
    lower_bound_with_span(dag, procs_per_type, span(dag))
}

/// As [`lower_bound`], with the span `T∞(J)` supplied by the caller (e.g.
/// from [`crate::precompute::Artifacts`]) so it isn't recomputed per run.
///
/// # Panics
/// Same conditions as [`lower_bound`].
pub fn lower_bound_with_span(dag: &KDag, procs_per_type: &[usize], span: Work) -> Work {
    assert_eq!(
        procs_per_type.len(),
        dag.num_types(),
        "processor vector length must equal K"
    );
    assert!(
        procs_per_type.iter().all(|&p| p > 0),
        "every type needs at least one processor"
    );
    let work_bound = dag
        .total_work_per_type()
        .iter()
        .zip(procs_per_type)
        .map(|(&t1, &p)| t1.div_ceil(p as Work))
        .max()
        .unwrap_or(0);
    span.max(work_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KDagBuilder;

    fn fork_join() -> KDag {
        // t0(w=3) -> {t1(w=5, type1), t2(w=2, type1)} -> t3(w=1)
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
    fn remaining_spans_fork_join() {
        let g = fork_join();
        assert_eq!(remaining_spans(&g), vec![9, 6, 3, 1]);
    }

    #[test]
    fn span_is_longest_chain_work() {
        assert_eq!(span(&fork_join()), 9);
    }

    #[test]
    fn span_of_independent_tasks_is_max_work() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 4);
        b.add_task(0, 7);
        b.add_task(0, 2);
        assert_eq!(span(&b.build().unwrap()), 7);
    }

    #[test]
    fn span_of_empty_graph_is_zero() {
        let g = KDagBuilder::new(1).build().unwrap();
        assert_eq!(span(&g), 0);
    }

    #[test]
    fn lower_bound_takes_the_binding_term() {
        let g = fork_join(); // T1 = [4, 7], span 9
                             // Plenty of processors: span binds.
        assert_eq!(lower_bound(&g, &[4, 4]), 9);
        // One type-1 processor: ceil(7/1) = 7 < 9, span still binds.
        assert_eq!(lower_bound(&g, &[1, 1]), 9);
        // Make type-1 work dominate: add independent type-1 tasks.
        let mut b = KDagBuilder::new(2);
        for _ in 0..30 {
            b.add_task(1, 1);
        }
        let flat = b.build().unwrap();
        assert_eq!(lower_bound(&flat, &[1, 2]), 15); // ceil(30/2)
        assert_eq!(lower_bound(&flat, &[1, 4]), 8); // ceil(30/4)
    }

    #[test]
    #[should_panic(expected = "length must equal K")]
    fn lower_bound_panics_on_wrong_vector_length() {
        lower_bound(&fork_join(), &[1]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn lower_bound_panics_on_zero_processors() {
        lower_bound(&fork_join(), &[1, 0]);
    }
}
