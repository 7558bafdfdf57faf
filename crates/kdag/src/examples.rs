//! Hand-built example K-DAGs, including the paper's Figure 1.

use crate::builder::KDagBuilder;
use crate::graph::KDag;

/// The running example of the paper's Section II (Figure 1): a K-DAG with
/// `K = 3` (circles / squares / triangles), unit-size tasks, per-type work
/// `T1(J, α1) = 7`, `T1(J, α2) = 4`, `T1(J, α3) = 3`, and span
/// `T∞(J) = 7`.
///
/// The paper prints the figure without naming its edges, so any DAG with
/// those aggregates is faithful; this one threads a 7-task critical chain
/// through all three types and hangs the remaining tasks off it.
pub fn figure1() -> KDag {
    let mut b = KDagBuilder::new(3);
    const CIRCLE: usize = 0;
    const SQUARE: usize = 1;
    const TRIANGLE: usize = 2;

    // Critical chain (7 unit tasks): c0 s0 c1 r0 c2 s1 c3
    let c0 = b.add_task(CIRCLE, 1);
    let s0 = b.add_task(SQUARE, 1);
    let c1 = b.add_task(CIRCLE, 1);
    let r0 = b.add_task(TRIANGLE, 1);
    let c2 = b.add_task(CIRCLE, 1);
    let s1 = b.add_task(SQUARE, 1);
    let c3 = b.add_task(CIRCLE, 1);
    for &(u, v) in &[(c0, s0), (s0, c1), (c1, r0), (r0, c2), (c2, s1), (s1, c3)] {
        b.add_edge(u, v).expect("chain edge");
    }

    // Side branches, all strictly shorter than the critical chain.
    let c4 = b.add_task(CIRCLE, 1);
    let s2 = b.add_task(SQUARE, 1);
    let r1 = b.add_task(TRIANGLE, 1);
    let c5 = b.add_task(CIRCLE, 1);
    let c6 = b.add_task(CIRCLE, 1);
    let s3 = b.add_task(SQUARE, 1);
    let r2 = b.add_task(TRIANGLE, 1);
    for &(u, v) in &[
        (c0, c4),
        (c4, s2),
        (s2, r1),
        (c0, c5),
        (s0, c6),
        (c1, s3),
        (r0, r2),
    ] {
        b.add_edge(u, v).expect("branch edge");
    }

    b.build().expect("figure1 is a valid K-DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn figure1_matches_the_papers_aggregates() {
        let g = figure1();
        assert_eq!(g.num_types(), 3);
        assert_eq!(g.num_tasks(), 14);
        // α1 (circle), α2 (square), α3 (triangle).
        assert_eq!(g.total_work_per_type(), vec![7, 4, 3], "per-type work");
        assert_eq!(metrics::span(&g), 7, "T∞(J)");
    }

    #[test]
    fn figure1_has_unit_tasks_and_single_root() {
        let g = figure1();
        assert!(g.tasks().all(|v| g.work(v) == 1));
        assert_eq!(g.roots().count(), 1);
    }
}
