//! Tree workloads: divide-and-conquer out-trees with probabilistic fanout
//! (paper §V-B, Fig. 3b).
//!
//! Starting from a root, every node has probability `p` of spawning `m`
//! children and probability `1 − p` of being a leaf; generation is
//! breadth-first and truncated at `max_tasks` so instances stay bounded.
//!
//! * **Layered** trees: all nodes at one depth share a type; depth `d` has
//!   type `d mod K`.
//! * **Random** trees: each node's type is uniform over the `K` types.

use kdag::{KDag, KDagBuilder, TaskId};
use rand::Rng;

use crate::sample_work;
use crate::spec::Typing;

/// Tree generation parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeParams {
    /// Fanout `m`: number of children a spawning node gets.
    pub fanout: usize,
    /// Fanout probability `p`.
    pub fanout_prob: f64,
    /// Hard cap on the number of tasks (generation truncates here).
    pub max_tasks: usize,
}

impl TreeParams {
    /// Samples instance parameters: `m ∈ U[2, 4]` and a *branching factor*
    /// `b = p·m ∈ U[1.15, 1.65]` from which `p` is derived, plus the
    /// caller's size-scaled task cap.
    ///
    /// Keeping the expected branching factor just above 1 produces deep,
    /// moderately wide trees whose per-level widths are comparable to the
    /// processor pools — the regime where the choice of which frontier
    /// task to run actually matters. Strongly supercritical trees put
    /// almost all work in the fringe and saturate every pool, flattening
    /// all schedulers to ratio ≈ 1.
    pub fn sample<R: Rng>(rng: &mut R, task_cap: (usize, usize)) -> Self {
        let fanout = rng.gen_range(2..=4usize);
        let b: f64 = rng.gen_range(1.15..1.65);
        TreeParams {
            fanout,
            fanout_prob: (b / fanout as f64).min(1.0),
            max_tasks: rng.gen_range(task_cap.0..=task_cap.1),
        }
    }
}

/// Generates a tree K-DAG per the module description, conditioned on
/// survival: branching processes with factor near 1 go extinct early with
/// substantial probability, so generation retries (up to 64 attempts,
/// advancing the RNG deterministically) until the tree reaches at least
/// `max_tasks / 5` tasks, keeping the largest attempt otherwise. The
/// experiments thus sample the paper's "useful applications" regime —
/// jobs with real parallelism — rather than near-empty stubs.
pub fn generate<R: Rng>(k: usize, params: &TreeParams, typing: Typing, rng: &mut R) -> KDag {
    let min_tasks = (params.max_tasks / 5).max(1);
    let mut best: Option<KDag> = None;
    for _ in 0..64 {
        let t = generate_once(k, params, typing, rng);
        if t.num_tasks() >= min_tasks {
            return t;
        }
        if best.as_ref().is_none_or(|b| t.num_tasks() > b.num_tasks()) {
            best = Some(t);
        }
    }
    best.expect("at least one attempt ran")
}

fn generate_once<R: Rng>(k: usize, params: &TreeParams, typing: Typing, rng: &mut R) -> KDag {
    let cap = params.max_tasks.max(1);
    let mut b = KDagBuilder::with_capacity(k, cap, cap.saturating_sub(1));

    let type_at = |depth: usize, rng: &mut R| match typing {
        Typing::Layered => depth % k,
        Typing::Random => rng.gen_range(0..k),
    };

    let root = b.add_task(type_at(0, rng), sample_work(rng));
    // BFS frontier of (node, depth).
    let mut frontier: std::collections::VecDeque<(TaskId, usize)> =
        std::collections::VecDeque::from([(root, 0)]);
    let mut count = 1usize;
    'grow: while let Some((node, depth)) = frontier.pop_front() {
        if !rng.gen_bool(params.fanout_prob) {
            continue;
        }
        for _ in 0..params.fanout {
            if count >= cap {
                break 'grow;
            }
            let c = b.add_task(type_at(depth + 1, rng), sample_work(rng));
            b.add_edge(node, c).expect("tree edges are valid");
            frontier.push_back((c, depth + 1));
            count += 1;
        }
    }
    b.build().expect("trees are acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::topo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> TreeParams {
        TreeParams {
            fanout: 3,
            fanout_prob: 0.6,
            max_tasks: 120,
        }
    }

    #[test]
    fn is_a_rooted_out_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generate(3, &params(), Typing::Random, &mut rng);
        assert_eq!(g.roots().count(), 1);
        // every non-root has exactly one parent -> edges = tasks - 1
        assert_eq!(g.num_edges(), g.num_tasks() - 1);
        for v in g.tasks() {
            assert!(g.num_parents(v) <= 1);
        }
    }

    #[test]
    fn respects_the_task_cap() {
        for seed in 0..20u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let p = TreeParams {
                fanout: 4,
                fanout_prob: 0.9,
                max_tasks: 50,
            };
            let g = generate(2, &p, Typing::Random, &mut r);
            assert!(g.num_tasks() <= 50);
        }
    }

    #[test]
    fn layered_levels_share_types() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generate(4, &params(), Typing::Layered, &mut rng);
        let depths = topo::depths(&g);
        for v in g.tasks() {
            assert_eq!(g.rtype(v), depths[v.index()] as usize % 4);
        }
    }

    #[test]
    fn degenerate_prob_zero_gives_single_node() {
        let mut rng = StdRng::seed_from_u64(10);
        let p = TreeParams {
            fanout: 3,
            fanout_prob: 0.0,
            max_tasks: 100,
        };
        let g = generate(2, &p, Typing::Layered, &mut rng);
        assert_eq!(g.num_tasks(), 1);
    }

    #[test]
    fn nodes_have_zero_or_full_fanout_below_cap() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generate(3, &params(), Typing::Random, &mut rng);
        // except possibly at the truncation point, child counts are 0 or m
        let odd: Vec<usize> = g
            .tasks()
            .map(|v| g.children(v).len())
            .filter(|&c| c != 0 && c != 3)
            .collect();
        assert!(odd.len() <= 1, "at most the truncated node may be partial");
    }

    #[test]
    fn sampled_params_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..100 {
            let p = TreeParams::sample(&mut rng, (30, 150));
            assert!((2..=4).contains(&p.fanout));
            let b = p.fanout_prob * p.fanout as f64;
            assert!((1.15..1.65).contains(&b), "branching factor {b}");
            assert!((30..=150).contains(&p.max_tasks));
        }
    }
}
