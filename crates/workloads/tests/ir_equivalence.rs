//! Equivalence oracle for the IR generator's wiring.
//!
//! `oracle_generate` is the original IR generator, kept verbatim: it
//! deduplicates map→reduce edges through a per-iteration
//! `HashSet<(TaskId, TaskId)>`. The production generator replaces that set
//! with a per-map guaranteed-reduce index and a per-reduce fan-in count.
//! Both must consume the same RNG stream and issue the same `add_edge`
//! calls in the same order, so the frozen jobs must agree on task types,
//! works, and the children and parents slices *in stored order* — which
//! `KDag::eq` deliberately ignores, so it is not used here.

use fhs_workloads::ir::{self, IrParams, DENSE_WIRING_LIMIT};
use fhs_workloads::resources::{self, SystemSize};
use fhs_workloads::{Family, Typing, WorkloadSpec, WORK_RANGE};
use kdag::{KDag, KDagBuilder, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pick_weighted<R: Rng>(rng: &mut R, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty distribution");
    let x: f64 = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= x).min(cum.len() - 1)
}

fn sample_work<R: Rng>(rng: &mut R) -> u64 {
    rng.gen_range(WORK_RANGE)
}

/// The HashSet-deduplicated IR generator the production one must match.
/// `on_fallback(map, reduce)` records each heaviest-map fallback edge
/// after checking that `map` really is the iteration's heaviest.
fn oracle_generate<R: Rng>(
    k: usize,
    params: &IrParams,
    typing: Typing,
    rng: &mut R,
    mut on_fallback: impl FnMut(TaskId, TaskId),
) -> KDag {
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
    for it in 0..iters {
        let map_phase = 2 * it;
        let map_ids: Vec<TaskId> = (0..maps)
            .map(|_| b.add_task(type_of(map_phase, rng), sample_work(rng)))
            .collect();
        if !prev_reduces.is_empty() {
            let rweights: Vec<f64> = (0..prev_reduces.len())
                .map(|_| {
                    let r: f64 = rng.gen_range(0.0..1.0);
                    0.05 + r * r * r
                })
                .collect();
            if sparse {
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

        let reduce_phase = 2 * it + 1;
        let reduce_ids: Vec<TaskId> = (0..reduces)
            .map(|_| b.add_task(type_of(reduce_phase, rng), sample_work(rng)))
            .collect();
        let mut edges = std::collections::HashSet::new();
        for &m in &map_ids {
            let r = reduce_ids[rng.gen_range(0..reduce_ids.len())];
            edges.insert((m, r));
            b.add_edge(m, r).expect("guaranteed map→reduce edge");
        }
        if sparse {
            let mut cum = weights;
            let mut acc = 0.0;
            for w in &mut cum {
                acc += *w;
                *w = acc;
            }
            for &r in &reduce_ids {
                let extra = rng.gen_range(1usize..=4);
                for _ in 0..extra {
                    let m = map_ids[pick_weighted(rng, &cum)];
                    if edges.insert((m, r)) {
                        b.add_edge(m, r).expect("map→reduce edge");
                    }
                }
            }
        } else {
            for &r in &reduce_ids {
                for (mi, &m) in map_ids.iter().enumerate() {
                    if rng.gen_bool(weights[mi]) && edges.insert((m, r)) {
                        b.add_edge(m, r).expect("map→reduce edge");
                    }
                }
                if !edges.iter().any(|&(_, rr)| rr == r) {
                    assert!(weights.iter().all(|&w| w <= weights[heaviest]));
                    on_fallback(map_ids[heaviest], r);
                    let _ = edges.insert((map_ids[heaviest], r))
                        && b.add_edge(map_ids[heaviest], r).is_ok();
                }
            }
        }
        prev_reduces = reduce_ids;
    }

    b.build()
        .expect("IR graphs are phase-ordered, hence acyclic")
}

/// Asserts the two jobs are identical down to adjacency storage order.
fn assert_same_layout(fast: &KDag, oracle: &KDag, what: &str) {
    assert_eq!(fast.num_types(), oracle.num_types(), "{what}: K");
    assert_eq!(fast.num_tasks(), oracle.num_tasks(), "{what}: tasks");
    assert_eq!(fast.num_edges(), oracle.num_edges(), "{what}: edges");
    for v in oracle.tasks() {
        assert_eq!(fast.rtype(v), oracle.rtype(v), "{what}: type of {v}");
        assert_eq!(fast.work(v), oracle.work(v), "{what}: work of {v}");
        assert_eq!(
            fast.children(v),
            oracle.children(v),
            "{what}: children of {v}"
        );
    }
}

/// Samples parameters from `ranges` and generates one job with both
/// generators from identical RNG states.
fn check(k: usize, typing: Typing, ranges: ((usize, usize), (usize, usize)), seed: u64) {
    let run = |oracle: bool| {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = IrParams::sample(&mut rng, ranges.0, ranges.1);
        let job = if oracle {
            oracle_generate(k, &p, typing, &mut rng, |_, _| {})
        } else {
            ir::generate(k, &p, typing, &mut rng)
        };
        // The generators must also leave the stream at the same point.
        (job, rng.gen::<u64>())
    };
    let (fast, fast_tail) = run(false);
    let (oracle, oracle_tail) = run(true);
    let what = format!("{typing:?} K={k} ranges={ranges:?} seed={seed}");
    assert_same_layout(&fast, &oracle, &what);
    assert_eq!(fast_tail, oracle_tail, "{what}: RNG stream diverged");
}

/// Seeds per size class; debug builds run a fraction so the suite stays
/// quick without `--release`.
fn seeds(release: u64) -> std::ops::Range<u64> {
    let n = if cfg!(debug_assertions) {
        (release / 8).max(2)
    } else {
        release
    };
    0..n
}

// The spec's per-size phase widths (`WorkloadSpec::ir_ranges`).
const SMALL: ((usize, usize), (usize, usize)) = ((4, 16), (2, 8));
const MEDIUM: ((usize, usize), (usize, usize)) = ((20, 60), (10, 30));
const LARGE: ((usize, usize), (usize, usize)) = ((400, 700), (150, 300));
const HUGE: ((usize, usize), (usize, usize)) = ((15000, 25000), (5000, 8000));

#[test]
fn dense_wiring_matches_the_hashset_oracle() {
    for typing in [Typing::Layered, Typing::Random] {
        for k in [1, 3, 4] {
            for seed in seeds(400) {
                check(k, typing, SMALL, seed);
            }
            for seed in seeds(160) {
                check(k, typing, MEDIUM, seed);
            }
        }
        for seed in seeds(16) {
            check(4, typing, LARGE, seed);
        }
    }
}

#[test]
fn sparse_wiring_matches_the_hashset_oracle() {
    // Just over the dense limit with few tasks: the sparse path at a
    // fraction of a Huge instance's cost.
    let narrow_sparse = ((1100, 1300), (1000, 1100));
    assert!(narrow_sparse.0 .0 * narrow_sparse.1 .0 > DENSE_WIRING_LIMIT);
    for typing in [Typing::Layered, Typing::Random] {
        for seed in seeds(24) {
            check(4, typing, narrow_sparse, seed);
        }
        for seed in 0..if cfg!(debug_assertions) { 1 } else { 3 } {
            check(4, typing, HUGE, seed);
        }
    }
}

#[test]
fn degenerate_widths_match_the_hashset_oracle() {
    // One map (every reduce's fallback is that map) and one reduce (every
    // map's guaranteed edge hits it, so every dense draw is a duplicate).
    for typing in [Typing::Layered, Typing::Random] {
        for seed in 0..64 {
            check(2, typing, ((1, 1), (1, 6)), seed);
            check(2, typing, ((1, 12), (1, 1)), seed);
        }
    }
}

#[test]
fn heaviest_map_feeds_reduces_the_weighted_pass_missed() {
    // Small Layered IR seed 1 takes the fallback, as ~39% of Small samples
    // do: with few maps and low weights, some reduce gets neither a
    // guaranteed edge nor a Bernoulli hit. The oracle sees which map fed
    // it; the production job is identical, so the same edge is in it.
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4);
    let (job, _) = spec.sample(1);
    // Replay `WorkloadSpec::sample` up to the generator call.
    let mut rng = StdRng::seed_from_u64(1);
    resources::sample_config(spec.k, spec.size, &mut rng);
    let p = IrParams::sample(&mut rng, SMALL.0, SMALL.1);
    let mut fallbacks = Vec::new();
    let oracle = oracle_generate(spec.k, &p, spec.typing, &mut rng, |m, r| {
        fallbacks.push((m, r))
    });
    assert_same_layout(&job, &oracle, "Small Layered IR seed 1");
    assert!(!fallbacks.is_empty(), "seed 1 no longer takes the fallback");
    let width = p.maps + p.reduces;
    for v in job.tasks().filter(|v| v.index() % width >= p.maps) {
        assert!(job.num_parents(v) >= 1, "reduce {v} has no inputs");
    }
    for (m, r) in fallbacks {
        // The fallback edge is the reduce's only input.
        assert_eq!(job.num_parents(r), 1, "fallback edge into {r}");
        assert!(job.children(m).contains(&r), "fallback edge into {r}");
    }
}
