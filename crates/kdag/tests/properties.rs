//! Property-based tests over randomly generated K-DAGs.
//!
//! The generator builds a random DAG by only ever adding edges from a
//! lower-indexed to a higher-indexed task, which guarantees acyclicity by
//! construction; the builder's own validation is exercised separately.

use kdag::{descendants, distance, duedate, metrics, topo, Artifacts, KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

/// Whether `order` is a permutation of all tasks consistent with the
/// precedence edges.
fn is_topological_order(dag: &KDag, order: &[TaskId]) -> bool {
    if order.len() != dag.num_tasks() {
        return false;
    }
    let mut position = vec![usize::MAX; dag.num_tasks()];
    for (pos, &v) in order.iter().enumerate() {
        if v.index() >= dag.num_tasks() || position[v.index()] != usize::MAX {
            return false;
        }
        position[v.index()] = pos;
    }
    dag.tasks().all(|v| {
        dag.children(v)
            .iter()
            .all(|&c| position[v.index()] < position[c.index()])
    })
}

/// One critical path — a chain of tasks realizing `metrics::span` —
/// parents first; empty for an empty job. Ties go to lower task ids.
fn critical_path(dag: &KDag) -> Vec<TaskId> {
    let spans = metrics::remaining_spans(dag);
    // The task of largest span, the lowest id among equals.
    let longest = |tasks: &mut dyn Iterator<Item = TaskId>| {
        tasks.max_by(|&a, &b| {
            spans[a.index()]
                .cmp(&spans[b.index()])
                .then(b.index().cmp(&a.index()))
        })
    };
    let mut path: Vec<TaskId> = longest(&mut dag.tasks()).into_iter().collect();
    while let Some(c) = path
        .last()
        .and_then(|&v| longest(&mut dag.children(v).iter().copied()))
    {
        path.push(c);
    }
    path
}

/// Conservation: for every type `α`, the roots' descendant values sum to
/// the type-`α` work of all non-root tasks, up to relative tolerance `tol`.
fn root_identity_holds(d: &descendants::DescendantValues, dag: &KDag, tol: f64) -> bool {
    let mut root_sum = vec![0.0f64; dag.num_types()];
    for r in dag.roots() {
        for (alpha, s) in root_sum.iter_mut().enumerate() {
            *s += d.get(r, alpha);
        }
    }
    let mut non_root_work = vec![0.0f64; dag.num_types()];
    for v in dag.tasks() {
        if dag.num_parents(v) > 0 {
            non_root_work[dag.rtype(v)] += dag.work(v) as f64;
        }
    }
    root_sum
        .iter()
        .zip(&non_root_work)
        .all(|(a, b)| (a - b).abs() <= tol * b.abs().max(1.0))
}

#[test]
fn figure1_critical_path_alternates_types() {
    let g = kdag::examples::figure1();
    let path = critical_path(&g);
    assert_eq!(path.len(), 7);
    let types: Vec<usize> = path.iter().map(|&v| g.rtype(v)).collect();
    assert_eq!(types, vec![0, 1, 0, 2, 0, 1, 0]);
}

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
fn topological_order_respects_edges() {
    let g = two_chains_joined();
    let order = topo::topological_order(&g).unwrap();
    assert!(is_topological_order(&g, &order));
    assert_eq!(order.len(), 5);
}

#[test]
fn is_topological_order_rejects_bad_inputs() {
    let g = two_chains_joined();
    let mut order = topo::topological_order(&g).unwrap();
    // wrong length
    assert!(!is_topological_order(&g, &order[1..]));
    // duplicate entry
    let dup = vec![order[0]; 5];
    assert!(!is_topological_order(&g, &dup));
    // edge violated
    order.swap(0, 4); // sink before its ancestors
    assert!(!is_topological_order(&g, &order));
}

/// Strategy: a random K-DAG with up to `max_tasks` tasks, `k` types, edge
/// probability `edge_prob` per forward pair (bounded fanin to keep graphs
/// sparse), and works in `1..=max_work`.
fn arb_kdag(k: usize, max_tasks: usize, max_work: u64) -> impl Strategy<Value = KDag> {
    (1..=max_tasks).prop_flat_map(move |n| {
        let types = proptest::collection::vec(0..k, n);
        let works = proptest::collection::vec(1..=max_work, n);
        // For each task i>0, pick up to 3 parents from 0..i.
        let parents = proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=3), n);
        (types, works, parents).prop_map(move |(types, works, parents)| {
            let mut b = KDagBuilder::new(k);
            let ids: Vec<TaskId> = types
                .iter()
                .zip(&works)
                .map(|(&t, &w)| b.add_task(t, w))
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (i, ps) in parents.iter().enumerate().skip(1) {
                for &raw in ps {
                    let p = (raw as usize) % i;
                    if seen.insert((p, i)) {
                        b.add_edge(ids[p], ids[i]).unwrap();
                    }
                }
            }
            b.build().expect("forward-edge graphs are acyclic")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn topological_order_is_valid(dag in arb_kdag(4, 60, 5)) {
        let order = topo::topological_order(&dag).expect("built DAGs are acyclic");
        prop_assert!(is_topological_order(&dag, &order));
    }

    #[test]
    fn span_bounds(dag in arb_kdag(4, 60, 5)) {
        let span = metrics::span(&dag);
        let total = dag.total_work();
        let max_single = dag.tasks().map(|v| dag.work(v)).max().unwrap_or(0);
        // span is between the largest single task and the total work
        prop_assert!(span >= max_single);
        prop_assert!(span <= total);
    }

    #[test]
    fn remaining_spans_decrease_along_edges(dag in arb_kdag(4, 60, 5)) {
        let spans = metrics::remaining_spans(&dag);
        for v in dag.tasks() {
            for &c in dag.children(v) {
                // span(v) ≥ w(v) + span(c) > span(c)
                prop_assert!(spans[v.index()] > spans[c.index()]);
                prop_assert!(spans[v.index()] >= dag.work(v) + spans[c.index()]);
            }
        }
    }

    #[test]
    fn critical_path_is_a_chain_realizing_the_span(dag in arb_kdag(4, 60, 5)) {
        let path = critical_path(&dag);
        let total: u64 = path.iter().map(|&v| dag.work(v)).sum();
        prop_assert_eq!(total, metrics::span(&dag));
        for w in path.windows(2) {
            prop_assert!(dag.children(w[0]).contains(&w[1]));
        }
    }

    #[test]
    fn descendant_root_identity(dag in arb_kdag(4, 60, 5)) {
        let d = descendants::DescendantValues::compute(&dag);
        prop_assert!(root_identity_holds(&d, &dag, 1e-9));
    }

    #[test]
    fn descendant_totals_match_type_blind(dag in arb_kdag(4, 60, 5)) {
        let d = descendants::DescendantValues::compute(&dag);
        let blind = descendants::type_blind_descendants(&dag);
        for v in dag.tasks() {
            prop_assert!((d.total(v) - blind[v.index()]).abs() < 1e-6);
        }
    }

    #[test]
    fn descendant_values_are_nonnegative_and_bounded(dag in arb_kdag(4, 60, 5)) {
        let d = descendants::DescendantValues::compute(&dag);
        let total = dag.total_work() as f64;
        for v in dag.tasks() {
            for alpha in 0..dag.num_types() {
                let val = d.get(v, alpha);
                prop_assert!(val >= 0.0);
                prop_assert!(val <= total + 1e-9);
            }
        }
    }

    #[test]
    fn different_child_distance_is_sound(dag in arb_kdag(3, 40, 3)) {
        // Check the table against a brute-force BFS per task.
        let table = distance::different_child_distances(&dag);
        for v in dag.tasks() {
            let brute = brute_force_distance(&dag, v);
            prop_assert_eq!(table.get(v), brute, "task {}", v);
        }
    }

    #[test]
    fn due_dates_are_consistent(dag in arb_kdag(4, 60, 5)) {
        let due = duedate::due_dates(&dag);
        let est = duedate::earliest_starts(&dag);
        let spans = metrics::remaining_spans(&dag);
        let span = metrics::span(&dag);
        for v in dag.tasks() {
            prop_assert!(est[v.index()] <= due[v.index()]);
            prop_assert_eq!(due[v.index()], span - spans[v.index()]);
            // A task started at its due date finishes within the span only
            // if it is on a descending chain; at minimum it fits:
            prop_assert!(due[v.index()] + spans[v.index()] == span);
        }
    }

    #[test]
    fn layers_respect_edges(dag in arb_kdag(4, 60, 5)) {
        let depth = topo::depths(&dag);
        for v in dag.tasks() {
            for &c in dag.children(v) {
                prop_assert!(depth[c.index()] > depth[v.index()]);
            }
        }
        let layers = topo::layers(&dag);
        prop_assert_eq!(layers.iter().map(Vec::len).sum::<usize>(), dag.num_tasks());
    }

    #[test]
    fn lower_bound_dominated_by_span_and_work(dag in arb_kdag(4, 40, 5), p in 1usize..6) {
        let procs = vec![p; dag.num_types()];
        let lb = metrics::lower_bound(&dag, &procs);
        prop_assert!(lb >= metrics::span(&dag));
        for alpha in 0..dag.num_types() {
            prop_assert!(lb >= dag.total_work_per_type()[alpha].div_ceil(p as u64));
        }
        // more processors can only lower the bound
        let lb_more = metrics::lower_bound(&dag, &vec![p + 1; dag.num_types()]);
        prop_assert!(lb_more <= lb);
    }
}

fn brute_force_distance(dag: &KDag, v: TaskId) -> Option<u32> {
    use std::collections::VecDeque;
    let mut best: Option<u32> = None;
    let mut seen = vec![u32::MAX; dag.num_tasks()];
    let mut q = VecDeque::new();
    seen[v.index()] = 0;
    q.push_back(v);
    while let Some(x) = q.pop_front() {
        for &c in dag.children(x) {
            let d = seen[x.index()] + 1;
            if d < seen[c.index()] {
                seen[c.index()] = d;
                if dag.rtype(c) != dag.rtype(v) {
                    best = Some(best.map_or(d, |b| b.min(d)));
                }
                q.push_back(c);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_format_round_trips(dag in arb_kdag(4, 40, 5)) {
        let text = kdag::text::to_text(&dag);
        let back = kdag::text::from_text(&text).expect("serialized output parses");
        prop_assert_eq!(&back, &dag);
    }

    #[test]
    fn profile_is_internally_consistent(dag in arb_kdag(4, 40, 5)) {
        let p = kdag::profile::JobProfile::of(&dag);
        prop_assert_eq!(p.tasks, dag.num_tasks());
        prop_assert_eq!(p.work_per_type.iter().sum::<u64>(), p.total_work);
        prop_assert_eq!(p.tasks_per_type.iter().sum::<usize>(), p.tasks);
        prop_assert_eq!(p.layer_widths.iter().sum::<usize>(), p.tasks);
        prop_assert!(p.parallelism >= 1.0 - 1e-12 || p.tasks == 0);
    }

    #[test]
    fn disjoint_union_metrics_add_up(dag in arb_kdag(3, 25, 4)) {
        let batch = kdag::compose::disjoint_union(&[&dag, &dag]);
        prop_assert_eq!(batch.job.num_tasks(), 2 * dag.num_tasks());
        prop_assert_eq!(batch.job.total_work(), 2 * dag.total_work());
        prop_assert_eq!(metrics::span(&batch.job), metrics::span(&dag));
        let d = descendants::DescendantValues::compute(&batch.job);
        prop_assert!(root_identity_holds(&d, &batch.job, 1e-9));
    }
}

/// `dag` with task `i` relabelled `perm[i]`. Edges are added source by
/// source in the original's CSR order, so each task's children keep their
/// stored order under the relabelling — the order every analysis sums in.
fn relabelled(dag: &KDag, perm: &[usize]) -> KDag {
    let mut inv = vec![0; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    let mut b = KDagBuilder::new(dag.num_types());
    for &i in &inv {
        let v = TaskId::from_index(i);
        b.add_task(dag.rtype(v), dag.work(v));
    }
    let id = |v: TaskId| TaskId::from_index(perm[v.index()]);
    for u in dag.tasks() {
        for &c in dag.children(u) {
            b.add_edge(id(u), id(c)).unwrap();
        }
    }
    b.build().expect("a relabelled DAG is a DAG")
}

/// The permutation that sorts `keys` (ties by index): `perm[i]` is the
/// rank of `keys[i]`.
fn ranks(keys: &[u64]) -> Vec<usize> {
    let mut by_key: Vec<usize> = (0..keys.len()).collect();
    by_key.sort_by_key(|&i| (keys[i], i));
    let mut perm = vec![0; keys.len()];
    for (rank, &i) in by_key.iter().enumerate() {
        perm[i] = rank;
    }
    perm
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Oracle for the id-order shortcut: an id-ordered DAG (which skips
    /// Kahn's algorithm) and the same DAG under a random id permutation
    /// (which, once an edge points down in id, takes Kahn's path) must
    /// agree on every `Artifacts` field bit for bit, task for task.
    #[test]
    fn id_order_shortcut_matches_kahn_across_a_relabelling(
        dag in arb_kdag(4, 60, 5),
        keys in proptest::collection::vec(any::<u64>(), 60),
    ) {
        let n = dag.num_tasks();
        let id_order: Vec<TaskId> = dag.tasks().collect();
        prop_assert_eq!(topo::topological_order(&dag), Some(id_order.clone()));
        let a = Artifacts::compute(&dag);
        // The reversal breaks id order on every edge, so the Kahn side is
        // exercised whenever the DAG has an edge.
        for perm in [ranks(&keys[..n]), (0..n).rev().collect()] {
            let g = relabelled(&dag, &perm);
            let order = topo::topological_order(&g).expect("acyclic");
            let ascending = g.tasks().all(|u| g.children(u).iter().all(|&c| u < c));
            if ascending {
                prop_assert_eq!(&order, &id_order);
            } else {
                prop_assert!(is_topological_order(&g, &order));
            }

            let b = Artifacts::compute(&g);
            prop_assert_eq!(a.span(&dag), b.span(&g));
            for v in dag.tasks() {
                let (i, j) = (v.index(), perm[v.index()]);
                let w = TaskId::from_index(j);
                prop_assert_eq!(a.spans(&dag)[i], b.spans(&g)[j]);
                prop_assert_eq!(a.due_dates(&dag).get(v), b.due_dates(&g).get(w));
                prop_assert_eq!(
                    bits(a.descendants(&dag).row(v)),
                    bits(b.descendants(&g).row(w))
                );
                prop_assert_eq!(a.type_blind(&dag)[i].to_bits(), b.type_blind(&g)[j].to_bits());
                prop_assert_eq!(a.different_child(&dag).get(v), b.different_child(&g).get(w));
            }
        }
    }
}
