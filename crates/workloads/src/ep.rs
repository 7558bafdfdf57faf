//! Embarrassingly parallel (EP) workloads: independent branches, each a
//! chain of tasks (paper §V-B, Fig. 3a).
//!
//! A branch is a chain of `K` *phases* — "different phases of an EP branch
//! can be executed on different resource types" — each phase a run of
//! consecutive tasks, with per-(branch, phase) lengths drawn
//! independently, so branches are heterogeneous in both length and the
//! type mix of their remainders:
//!
//! * **Layered** EP: phase `i` of every branch has type `i` — the fixed
//!   "1 to K" sequence of the paper. A branch's remaining work therefore
//!   has a *position-dependent type distribution* (a branch still in
//!   phase 0 carries all of types 1…K−1 ahead; one in its last phase
//!   carries only type K−1), which is exactly the information MQB
//!   exploits and type-blind heuristics (MaxDP, LSpan) cannot.
//! * **Random** EP: identical chain structure, but every task's type is
//!   uniform over the `K` types.

use kdag::{KDag, KDagBuilder};
use rand::Rng;

use crate::sample_work;
use crate::spec::Typing;

/// EP generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpParams {
    /// Number of independent branches.
    pub branches: usize,
    /// Upper bound of the per-(branch, phase) length `U[1, max_phase_len]`.
    pub max_phase_len: usize,
}

impl EpParams {
    /// Samples instance parameters: `branches ∈ U[lo, hi]` (size-scaled by
    /// the caller) and `max_phase_len ∈ U[4, 10]`.
    pub fn sample<R: Rng>(rng: &mut R, branch_range: (usize, usize)) -> Self {
        EpParams {
            branches: rng.gen_range(branch_range.0..=branch_range.1),
            max_phase_len: rng.gen_range(4..=10),
        }
    }
}

/// Generates an EP K-DAG: `params.branches` independent chains, each made
/// of `K` phases of `U[1, max_phase_len]` tasks, typed per `typing`, with
/// works drawn from [`crate::WORK_RANGE`].
pub fn generate<R: Rng>(k: usize, params: &EpParams, typing: Typing, rng: &mut R) -> KDag {
    // Expected size: branches × K phases × (1 + max_phase_len)/2 tasks;
    // matters at Huge scale (~100k tasks) where repeated regrowth of the
    // builder's arrays would dominate generation.
    let expect = params.branches * k * (1 + params.max_phase_len).div_ceil(2);
    let mut b = KDagBuilder::with_capacity(k, expect, expect);
    for _ in 0..params.branches {
        let mut prev = None;
        for phase in 0..k {
            let len = rng.gen_range(1..=params.max_phase_len.max(1));
            for _ in 0..len {
                let rtype = match typing {
                    Typing::Layered => phase,
                    Typing::Random => rng.gen_range(0..k),
                };
                let v = b.add_task(rtype, sample_work(rng));
                if let Some(p) = prev {
                    b.add_edge(p, v).expect("chain edges are valid");
                }
                prev = Some(v);
            }
        }
    }
    b.build().expect("EP graphs are forward chains")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::{metrics, topo, TaskId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn structure_is_branches_of_chains() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = EpParams {
            branches: 5,
            max_phase_len: 3,
        };
        let g = generate(3, &p, Typing::Random, &mut rng);
        assert_eq!(g.roots().count(), 5);
        assert_eq!(g.tasks().filter(|&v| g.children(v).is_empty()).count(), 5);
        assert_eq!(g.num_edges(), g.num_tasks() - 5);
        for v in g.tasks() {
            assert!(g.num_parents(v) <= 1);
            assert!(g.children(v).len() <= 1);
        }
        // every branch has between K and K·max_phase_len tasks
        assert!(g.num_tasks() >= 5 * 3 && g.num_tasks() <= 5 * 9);
    }

    #[test]
    fn layered_branches_walk_phases_in_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let k = 4;
        let p = EpParams {
            branches: 6,
            max_phase_len: 4,
        };
        let g = generate(k, &p, Typing::Layered, &mut rng);
        // follow each chain from its root: types must be non-decreasing
        // and cover 0..K in order.
        for root in g.roots() {
            let mut cur = root;
            let mut types = vec![g.rtype(cur)];
            while let Some(&c) = g.children(cur).first() {
                types.push(g.rtype(c));
                cur = c;
            }
            assert_eq!(types[0], 0, "branches start in phase 0");
            assert_eq!(*types.last().unwrap(), k - 1, "branches end in phase K-1");
            assert!(types.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
            // all phases present
            for alpha in 0..k {
                assert!(types.contains(&alpha));
            }
        }
    }

    #[test]
    fn phase_lengths_vary_across_branches() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = EpParams {
            branches: 20,
            max_phase_len: 6,
        };
        let g = generate(2, &p, Typing::Layered, &mut rng);
        let mut lengths = std::collections::HashSet::new();
        for root in g.roots() {
            let mut cur = root;
            let mut len = 1;
            while let Some(&c) = g.children(cur).first() {
                len += 1;
                cur = c;
            }
            lengths.insert(len);
        }
        assert!(lengths.len() > 2, "branches should be heterogeneous");
    }

    #[test]
    fn span_equals_longest_branch_work() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = EpParams {
            branches: 4,
            max_phase_len: 3,
        };
        let g = generate(2, &p, Typing::Random, &mut rng);
        let mut best = 0u64;
        for root in g.roots() {
            let mut cur = root;
            let mut total = g.work(cur);
            while let Some(&c) = g.children(cur).first() {
                total += g.work(c);
                cur = c;
            }
            best = best.max(total);
        }
        assert_eq!(metrics::span(&g), best);
    }

    #[test]
    fn random_typing_uses_all_types_eventually() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = EpParams {
            branches: 10,
            max_phase_len: 5,
        };
        let g = generate(4, &p, Typing::Random, &mut rng);
        for alpha in 0..4 {
            assert!(g.num_tasks_of_type(alpha) > 0, "type {alpha} unused");
        }
        assert!(topo::topological_order(&g).is_some());
        // spot-check a task id is in range
        assert!(g.rtype(TaskId::from_index(0)) < 4);
    }

    #[test]
    fn sampled_params_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let p = EpParams::sample(&mut rng, (4, 16));
            assert!((4..=16).contains(&p.branches));
            assert!((4..=10).contains(&p.max_phase_len));
        }
    }
}
