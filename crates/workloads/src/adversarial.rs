//! The adversarial K-DAG family from the Theorem-2 lower-bound proof
//! (paper Fig. 2).
//!
//! For `K` types with processor counts `P_1 … P_K` (the construction
//! requires `P_K = P_max`) and a scale constant `m`:
//!
//! * There are `P_α · P_K · m` unit-work `α`-tasks for every type `α`.
//! * For `α < K`, exactly `P_α` **active** `α`-tasks (uniformly random
//!   among the `α`-tasks) have edges to *all* `(α+1)`-tasks — so no
//!   `(α+1)`-task may start before every active `α`-task completes.
//! * `m·P_K − 1` of the `K`-tasks form a **chain**; `P_K` active
//!   `K`-tasks (uniform among the non-chain `K`-tasks) gate the chain's
//!   head.
//!
//! An offline scheduler that knows the active tasks finishes in
//! `T* = K − 1 + m·P_K`; an online scheduler must drain whole queues to
//! stumble on the hidden active tasks, costing
//! `≈ (K + 1 − Σ_α 1/(P_α+1)) · m·P_K` in expectation — the Ω(K) gap.
//!
//! Also here: [`antichain`], an adversary of MQB's *selection cost*
//! rather than of its schedule.

use fhs_sim::MachineConfig;
use kdag::{KDag, KDagBuilder, TaskId};
use rand::seq::SliceRandom;
use rand::Rng;

/// Parameters of the adversarial family.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversarialParams {
    /// Processor counts per type; the last entry must be the maximum.
    pub procs: Vec<usize>,
    /// Scale constant `m ≥ 1` (the proof takes `m ≫ K`).
    pub m: usize,
}

impl AdversarialParams {
    /// Validates and wraps the parameters.
    ///
    /// # Panics
    /// If `procs` is empty, any entry is zero, `m == 0`, or the last type
    /// is not the largest pool (`P_K = P_max` is required by the
    /// construction).
    pub fn new(procs: Vec<usize>, m: usize) -> Self {
        assert!(!procs.is_empty() && m > 0);
        assert!(procs.iter().all(|&p| p > 0));
        let pmax = *procs.iter().max().expect("non-empty");
        assert_eq!(
            *procs.last().expect("non-empty"),
            pmax,
            "the construction requires P_K = P_max; reorder the types"
        );
        AdversarialParams { procs, m }
    }

    /// The optimal offline completion time `T* = K − 1 + m·P_K`.
    pub fn optimal_makespan(&self) -> u64 {
        (self.procs.len() as u64 - 1) + (self.m * self.procs.last().expect("non-empty")) as u64
    }
}

/// Generates one instance of the adversarial family; the positions of the
/// active tasks are the only randomness.
pub fn generate<R: Rng>(params: &AdversarialParams, rng: &mut R) -> KDag {
    let k = params.procs.len();
    let pk = *params.procs.last().expect("non-empty");
    let m = params.m;

    let mut b = KDagBuilder::new(k);

    // Create all tasks, grouped by type.
    let tasks_of: Vec<Vec<TaskId>> = (0..k)
        .map(|alpha| {
            let count = params.procs[alpha] * pk * m;
            (0..count).map(|_| b.add_task(alpha, 1)).collect()
        })
        .collect();

    // Types 1..K-1 (0-based: alpha < k-1): P_α active tasks point to every
    // (α+1)-task.
    for alpha in 0..k.saturating_sub(1) {
        let mut pool = tasks_of[alpha].clone();
        pool.shuffle(rng);
        let active = &pool[..params.procs[alpha]];
        for &a in active {
            for &t in &tasks_of[alpha + 1] {
                b.add_edge(a, t).expect("active edges are valid");
            }
        }
    }

    // K-tasks: the chain and its gate. The chain is built from extra
    // tasks so that non-chain K-tasks number P_K²·m − m·P_K + 1 … the
    // paper carves both from the same P_K²·m pool; we carve too.
    let chain_len = m * pk - 1;
    let k_tasks = &tasks_of[k - 1];
    assert!(
        k_tasks.len() > chain_len,
        "P_K²·m must exceed the chain length"
    );
    // Deterministically take the last `chain_len` tasks as the chain; the
    // actives are sampled among the rest, which keeps the uniform-position
    // property the proof needs (ids carry no scheduling meaning for the
    // policies under test, and queue order is arrival order).
    let (non_chain, chain) = k_tasks.split_at(k_tasks.len() - chain_len);
    for w in chain.windows(2) {
        b.add_edge(w[0], w[1]).expect("chain edges are valid");
    }
    if let Some(&head) = chain.first() {
        let mut pool = non_chain.to_vec();
        pool.shuffle(rng);
        for &a in &pool[..pk] {
            b.add_edge(a, head).expect("gate edges are valid");
        }
    }

    b.build().expect("the adversarial family is acyclic")
}

/// A worst case for MQB's dominance pruning, the three-partite shape of
/// Kari, Russell & Shashidhar's k-partite task graphs: K = 3,
/// P = (4, 4, 4), and `n` unit-work type-0 roots, root `i` (1-based)
/// feeding a type-1 child of work `i` and a type-2 child of work
/// `n + 1 − i`.
///
/// Every root has the same total descendant value `n + 1`, and the roots'
/// descendant rows `(0, i, n + 1 − i)` are pairwise incomparable, so no
/// root dominates another: exact MQB evaluates the whole ready queue on
/// every pick.
///
/// # Panics
/// If `n == 0`.
pub fn antichain(n: usize) -> (KDag, MachineConfig) {
    assert!(n > 0, "an antichain needs at least one root");
    let n = n as u64;
    let mut b = KDagBuilder::new(3);
    for i in 1..=n {
        let root = b.add_task(0, 1);
        let left = b.add_task(1, i);
        let right = b.add_task(2, n + 1 - i);
        b.add_edge(root, left).expect("root edges are valid");
        b.add_edge(root, right).expect("root edges are valid");
    }
    (
        b.build().expect("a forest of depth one is acyclic"),
        MachineConfig::new(vec![4, 4, 4]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::metrics;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> AdversarialParams {
        AdversarialParams::new(vec![2, 2, 3], 2)
    }

    #[test]
    fn task_counts_match_the_construction() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = small();
        let g = generate(&p, &mut rng);
        // P_α · P_K · m per type
        assert_eq!(g.num_tasks_of_type(0), 2 * 3 * 2);
        assert_eq!(g.num_tasks_of_type(1), 2 * 3 * 2);
        assert_eq!(g.num_tasks_of_type(2), 3 * 3 * 2);
    }

    #[test]
    fn optimal_makespan_formula() {
        let p = small();
        assert_eq!(p.optimal_makespan(), 2 + 6); // K-1 + m·P_K
    }

    #[test]
    fn span_is_dominated_by_the_chain_plus_gates() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = small();
        let g = generate(&p, &mut rng);
        // Critical path: one active task per type 0..K-2 (K-1 tasks), one
        // active K-task, then the chain of m·P_K − 1: total K-1 + 1 +
        // (m·P_K − 1) = K − 1 + m·P_K = T*.
        assert_eq!(metrics::span(&g), p.optimal_makespan());
    }

    #[test]
    fn lower_bound_of_instance_equals_optimum() {
        // L(J) = max(span, work/procs): work per type α is P_α·P_K·m over
        // P_α procs = P_K·m ≤ span. So L = T* and the offline optimum is
        // achievable — the ratio denominator is tight for this family.
        let mut rng = StdRng::seed_from_u64(3);
        let p = small();
        let g = generate(&p, &mut rng);
        let lb = metrics::lower_bound(&g, &p.procs);
        assert_eq!(lb, p.optimal_makespan());
    }

    #[test]
    #[should_panic(expected = "P_K = P_max")]
    fn rejects_misordered_processor_vectors() {
        AdversarialParams::new(vec![3, 1], 2);
    }

    #[test]
    fn chain_is_a_chain_and_gated() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = AdversarialParams::new(vec![1, 2], 2);
        let g = generate(&p, &mut rng);
        // 8 type-1 tasks; every one already has the single active type-0
        // task as a parent. On top of that, the chain (m·P_K − 1 = 3
        // tasks) adds: head gains P_K = 2 gate parents, the two others
        // gain 1 chain parent each. Sorted parent counts over type-1:
        // five non-chain with 1, two chain-followers with 2, head with 3.
        let mut parent_counts: Vec<usize> = g
            .tasks()
            .filter(|&v| g.rtype(v) == 1)
            .map(|v| g.num_parents(v))
            .collect();
        parent_counts.sort_unstable();
        assert_eq!(parent_counts, vec![1, 1, 1, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn antichain_roots_tie_on_total_and_are_pairwise_incomparable() {
        let (job, cfg) = antichain(5);
        assert_eq!(job.num_tasks(), 15);
        assert_eq!(cfg.procs_per_type(), &[4, 4, 4]);
        let dv = kdag::descendants::DescendantValues::compute(&job);
        let roots: Vec<&[f64]> = job
            .tasks()
            .filter(|&v| job.rtype(v) == 0)
            .map(|v| dv.row(v))
            .collect();
        assert_eq!(roots.len(), 5);
        for (i, r) in roots.iter().enumerate() {
            assert_eq!(r, &[0.0, i as f64 + 1.0, 5.0 - i as f64]);
            assert_eq!(r.iter().sum::<f64>(), 6.0);
        }
        for a in &roots {
            for b in &roots {
                let ge = a.iter().zip(b.iter()).all(|(x, y)| x >= y);
                assert!(a == b || !ge, "{a:?} dominates {b:?}");
            }
        }
    }
}
