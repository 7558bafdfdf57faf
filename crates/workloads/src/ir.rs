//! Iterative reduction (IR) workloads: MapReduce-style iterations (paper
//! §V-B, Fig. 3c).
//!
//! Each iteration has a **map phase** (independent tasks) feeding a
//! **reduce phase**. Per the paper, "a reduce task depends on a subset of
//! all map tasks" and "tasks with a high fanout have a higher probability
//! of providing output to each reduce task": every map task draws a fanout
//! weight `u = 0.02 + 0.6·r³` with `r ∈ U[0,1]` (heavy-tailed: a few hot
//! maps feed most reduces, most maps feed none), and each (map, reduce)
//! edge exists independently with probability `u`. Every map first gets
//! one guaranteed output (a uniform reduce), and a reduce left with no
//! input after the weighted pass is fed by the heaviest-weight map. The
//! next iteration's maps each depend on a random non-empty subset of the
//! previous reduces.
//!
//! Wiring keeps no edge set. The guaranteed edges are the only ones wired
//! before the weighted pass, and that pass draws each (map, reduce) pair
//! at most once, so a draw duplicates an existing edge exactly when the
//! reduce is the map's guaranteed one. A per-map guaranteed-reduce index
//! and a per-reduce fan-in count therefore replace a hash set of pairs,
//! with the same RNG draws and the same `add_edge` order — hence the same
//! stored adjacency order (pinned against the hash-set original in
//! `tests/ir_equivalence.rs`).
//!
//! The per-pair draw is `gen_bool(u)` without its branch. `gen_bool(u)`
//! tests `(x >> 11) · 2⁻⁵³ < u` on one raw `u64` draw `x`; scaling by a
//! power of two is exact, so for the integer `x >> 11` that is exactly
//! `x >> 11 < ⌈u · 2⁵³⌉`. Each map's threshold is computed once per
//! iteration, every reduce draws one `u64` per map unconditionally (the
//! same stream), and the hits are collected branch-free before they are
//! wired in map order.
//!
//! * **Layered** IR assigns one type per *phase* (map phase of iteration
//!   `t` gets type `2t mod K`, its reduce phase `2t+1 mod K`). The paper
//!   says "all nodes at each iteration … have the same type"; we refine to
//!   per-phase layers so that jobs with few iterations still exercise all
//!   `K` pools — the same structured-types regime, one level finer (see
//!   DESIGN.md).
//! * **Random** IR draws each task's type uniformly.
//!
//! Iterations whose `maps × reduces` product exceeds
//! [`DENSE_WIRING_LIMIT`] (only the Huge size class in practice) are
//! wired by a sparse path — each reduce draws a bounded number of
//! weighted map inputs instead of testing every pair — keeping edge
//! count and generation time O(tasks); narrower classes keep the exact
//! historical per-pair Bernoulli stream.

use kdag::{KDag, KDagBuilder, TaskId};
use rand::Rng;

use crate::sample_work;
use crate::spec::Typing;

/// Above this `maps × reduces` product an iteration is wired by the
/// sparse path (per-reduce weighted fanin draws) instead of the dense
/// per-pair Bernoulli pass, which costs O(maps·reduces) RNG draws and
/// emits Θ(maps·reduces) expected edges. Large instances (≤ 700 × 300)
/// stay far below the threshold, so every pre-Huge size class keeps its
/// exact historical RNG stream and golden outputs.
pub const DENSE_WIRING_LIMIT: usize = 1 << 20;

/// IR generation parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IrParams {
    /// Number of map→reduce iterations.
    pub iterations: usize,
    /// Map tasks per iteration.
    pub maps: usize,
    /// Reduce tasks per iteration.
    pub reduces: usize,
}

impl IrParams {
    /// Samples instance parameters: `iterations ∈ U[2, 5]` and the
    /// caller's size-scaled phase widths.
    pub fn sample<R: Rng>(
        rng: &mut R,
        map_range: (usize, usize),
        reduce_range: (usize, usize),
    ) -> Self {
        IrParams {
            iterations: rng.gen_range(2..=5),
            maps: rng.gen_range(map_range.0..=map_range.1),
            reduces: rng.gen_range(reduce_range.0..=reduce_range.1),
        }
    }
}

/// Draws one index from the discrete distribution whose cumulative
/// weights are `cum` (strictly positive weights; `cum` is non-empty and
/// ends at the total). O(log n) per draw, one RNG draw.
fn pick_weighted<R: Rng>(rng: &mut R, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty distribution");
    let x: f64 = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= x).min(cum.len() - 1)
}

/// Generates an IR K-DAG per the module description.
pub fn generate<R: Rng>(k: usize, params: &IrParams, typing: Typing, rng: &mut R) -> KDag {
    let iters = params.iterations.max(1);
    let maps = params.maps.max(1);
    let reduces = params.reduces.max(1);
    let n = iters * (maps + reduces);
    let mut b = KDagBuilder::with_capacity(k, n, n * 2);
    let sparse = maps.saturating_mul(reduces) > DENSE_WIRING_LIMIT;

    let type_of = |phase: usize, rng: &mut R| match typing {
        Typing::Layered => phase % k,
        Typing::Random => rng.gen_range(0..k),
    };

    let mut prev_reduces: Vec<TaskId> = Vec::new();
    // Per iteration: each map's guaranteed reduce (an index into that
    // iteration's reduces), and each reduce's number of map inputs.
    let mut guaranteed: Vec<usize> = Vec::with_capacity(maps);
    let mut fanin: Vec<u32> = vec![0; reduces];
    // Dense wiring scratch: each map's integer draw threshold, and the
    // maps one reduce's draws hit.
    let mut thresholds: Vec<u64> = Vec::with_capacity(maps);
    let mut hits: Vec<usize> = Vec::new();
    for it in 0..iters {
        // Map phase.
        let map_phase = 2 * it;
        let map_ids: Vec<TaskId> = (0..maps)
            .map(|_| b.add_task(type_of(map_phase, rng), sample_work(rng)))
            .collect();
        // Wire maps to the previous iteration's reduces: each map takes 1–2
        // distinct parents, sampled with heavy-tailed reduce weights so a
        // few hot reduces gate most of the next iteration — finishing them
        // early is what good interleaving buys.
        if !prev_reduces.is_empty() {
            let rweights: Vec<f64> = (0..prev_reduces.len())
                .map(|_| {
                    let r: f64 = rng.gen_range(0.0..1.0);
                    0.05 + r * r * r
                })
                .collect();
            if sparse {
                // Same 1–2 weighted parents, binary-searched over the
                // cumulative distribution instead of a linear scan.
                let mut cum = rweights;
                let mut acc = 0.0;
                for w in &mut cum {
                    acc += *w;
                    *w = acc;
                }
                for &m in &map_ids {
                    let first = prev_reduces[pick_weighted(rng, &cum)];
                    b.add_edge(first, m).expect("cross-iteration edge");
                    if rng.gen_bool(0.5) {
                        let second = prev_reduces[pick_weighted(rng, &cum)];
                        if second != first {
                            b.add_edge(second, m).expect("cross-iteration edge");
                        }
                    }
                }
            } else {
                let total_w: f64 = rweights.iter().sum();
                let pick = |rng: &mut R| {
                    let mut x: f64 = rng.gen_range(0.0..total_w);
                    for (i, &w) in rweights.iter().enumerate() {
                        if x < w {
                            return prev_reduces[i];
                        }
                        x -= w;
                    }
                    *prev_reduces.last().expect("non-empty")
                };
                for &m in &map_ids {
                    let first = pick(rng);
                    b.add_edge(first, m).expect("cross-iteration edge");
                    if rng.gen_bool(0.5) {
                        let second = pick(rng);
                        if second != first {
                            b.add_edge(second, m).expect("cross-iteration edge");
                        }
                    }
                }
            }
        }

        // Per-map fanout weights: high-weight maps feed more reduces.
        let weights: Vec<f64> = (0..maps)
            .map(|_| {
                let r: f64 = rng.gen_range(0.0..1.0);
                0.02 + 0.6 * r * r * r
            })
            .collect();
        let heaviest = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("maps ≥ 1");

        // Reduce phase.
        let reduce_phase = 2 * it + 1;
        let reduce_ids: Vec<TaskId> = (0..reduces)
            .map(|_| b.add_task(type_of(reduce_phase, rng), sample_work(rng)))
            .collect();
        // Guarantee every map one output (uniform reduce), so no map is a
        // structural sink. These are the only edges wired before the
        // weighted pass, and that pass draws each (map, reduce) pair at
        // most once, so `(m, r)` is a duplicate iff `r` is `m`'s
        // guaranteed reduce — no edge set needed.
        guaranteed.clear();
        fanin.fill(0);
        for &m in &map_ids {
            let ri = rng.gen_range(0..reduce_ids.len());
            guaranteed.push(ri);
            fanin[ri] += 1;
            b.add_edge(m, reduce_ids[ri])
                .expect("guaranteed map→reduce edge");
        }
        if sparse {
            // Sparse stand-in for the per-pair Bernoulli pass: each reduce
            // draws 1–4 extra inputs from the heavy-tailed map-fanout
            // distribution, so hot maps still feed most reduces but the
            // edge count stays O(maps + reduces) instead of
            // Θ(maps·reduces). A draw is a duplicate if it hits the map's
            // guaranteed edge or an earlier draw for the same reduce.
            let mut cum = weights;
            let mut acc = 0.0;
            for w in &mut cum {
                acc += *w;
                *w = acc;
            }
            for (ri, &r) in reduce_ids.iter().enumerate() {
                let extra = rng.gen_range(1usize..=4);
                let mut drawn = [0usize; 4];
                let mut fresh = 0;
                for _ in 0..extra {
                    let mi = pick_weighted(rng, &cum);
                    if guaranteed[mi] != ri && !drawn[..fresh].contains(&mi) {
                        drawn[fresh] = mi;
                        fresh += 1;
                        b.add_edge(map_ids[mi], r).expect("map→reduce edge");
                    }
                }
            }
        } else {
            // `gen_bool(p)` on a raw draw `x` is `x >> 11 < ⌈p · 2⁵³⌉`
            // (module docs).
            thresholds.clear();
            thresholds.extend(weights.iter().map(|&p| {
                assert!((0.0..=1.0).contains(&p), "gen_bool probability {p}");
                (p * (1u64 << 53) as f64).ceil() as u64
            }));
            hits.resize(maps, 0);
            for (ri, &r) in reduce_ids.iter().enumerate() {
                // One draw per map, as the per-pair `gen_bool` took; the
                // hits are collected without a branch, then wired in map
                // order.
                let mut n_hits = 0;
                for (mi, &t) in thresholds.iter().enumerate() {
                    hits[n_hits] = mi;
                    n_hits += usize::from(rng.next_u64() >> 11 < t);
                }
                for &mi in &hits[..n_hits] {
                    if guaranteed[mi] != ri {
                        fanin[ri] += 1;
                        b.add_edge(map_ids[mi], r).expect("map→reduce edge");
                    }
                }
                if fanin[ri] == 0 {
                    // No guaranteed edge landed here and every draw
                    // missed: feed the reduce from the heaviest map. Not
                    // rare: at K = 4 it fires in ~39% of Small samples
                    // and ~7% of Medium ones (400 seeds each), and in
                    // none of 50 Large samples, whose phases are wide.
                    b.add_edge(map_ids[heaviest], r)
                        .expect("fallback map→reduce edge");
                }
            }
        }
        prev_reduces = reduce_ids;
    }

    b.build()
        .expect("IR graphs are phase-ordered, hence acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::topo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> IrParams {
        IrParams {
            iterations: 3,
            maps: 8,
            reduces: 4,
        }
    }

    #[test]
    fn task_count_is_phases_times_width() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generate(4, &params(), Typing::Random, &mut rng);
        assert_eq!(g.num_tasks(), 3 * (8 + 4));
        assert!(topo::topological_order(&g).is_some());
    }

    #[test]
    fn every_reduce_has_at_least_one_map_input() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = generate(4, &params(), Typing::Random, &mut rng);
        // reduces of iteration it occupy ids [it*(12)+8, it*12+12)
        for it in 0..3 {
            for j in 0..4 {
                let r = TaskId::from_index(it * 12 + 8 + j);
                assert!(g.num_parents(r) >= 1, "reduce {r} has no inputs");
            }
        }
    }

    #[test]
    fn later_iterations_depend_on_earlier_reduces() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generate(4, &params(), Typing::Random, &mut rng);
        // every map of iterations ≥ 1 has at least one parent
        for it in 1..3 {
            for j in 0..8 {
                let m = TaskId::from_index(it * 12 + j);
                assert!(g.num_parents(m) >= 1, "map {m} of iter {it} is an orphan");
            }
        }
        // first-iteration maps are roots
        for j in 0..8 {
            assert_eq!(g.num_parents(TaskId::from_index(j)), 0);
        }
    }

    #[test]
    fn layered_phases_share_types_and_cycle() {
        let mut rng = StdRng::seed_from_u64(24);
        let k = 4;
        let g = generate(k, &params(), Typing::Layered, &mut rng);
        for it in 0..3 {
            for j in 0..8 {
                assert_eq!(g.rtype(TaskId::from_index(it * 12 + j)), (2 * it) % k);
            }
            for j in 0..4 {
                assert_eq!(
                    g.rtype(TaskId::from_index(it * 12 + 8 + j)),
                    (2 * it + 1) % k
                );
            }
        }
    }

    #[test]
    fn single_iteration_has_two_layers() {
        let mut rng = StdRng::seed_from_u64(25);
        let p = IrParams {
            iterations: 1,
            maps: 5,
            reduces: 2,
        };
        let g = generate(2, &p, Typing::Layered, &mut rng);
        let layers = topo::layers(&g);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].len(), 5);
        assert_eq!(layers[1].len(), 2);
    }

    #[test]
    fn sampled_params_respect_ranges() {
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..100 {
            let p = IrParams::sample(&mut rng, (4, 16), (2, 8));
            assert!((2..=5).contains(&p.iterations));
            assert!((4..=16).contains(&p.maps));
            assert!((2..=8).contains(&p.reduces));
        }
    }
}
