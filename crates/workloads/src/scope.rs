//! Scope/Cosmos-style workflows — the paper's §I motivating system as a
//! first-class workload family.
//!
//! A Scope job compiles to a DAG of stages ("about 20 nodes on average"),
//! each stage a set of data-parallel tasks bound to a *server class* by
//! data placement; stage-to-stage edges are partial shuffles (each task
//! reads a few upstream partitions). Server classes are the functional
//! types.

use kdag::{KDag, KDagBuilder, TaskId};
use rand::Rng;

use crate::sample_work;

/// Scope workflow parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScopeParams {
    /// Number of stages (the paper's motivating jobs average ~20).
    pub stages: usize,
    /// Per-stage width range `U[lo, hi]` (data-parallel degree).
    pub width: (usize, usize),
    /// Maximum upstream partitions a task reads (`U[1, max_fanin]`).
    pub max_fanin: usize,
}

impl ScopeParams {
    /// Samples instance parameters: `stages ∈ U[16, 24]`, width from the
    /// caller's size-scaled range, fanin ≤ 3.
    pub fn sample<R: Rng>(rng: &mut R, width: (usize, usize)) -> Self {
        ScopeParams {
            stages: rng.gen_range(16..=24),
            width,
            max_fanin: 3,
        }
    }
}

/// Stage-to-class assignment: ingest (0) → compute (1,…,K−2 cycling) →
/// output (K−1), repeating every 4 stages for K ≥ 3; round-robin for
/// smaller K.
fn class_of(stage: usize, k: usize) -> usize {
    if k >= 3 {
        match stage % 4 {
            0 => 0,
            1 | 2 => 1 + (stage / 4) % (k - 2),
            _ => k - 1,
        }
    } else {
        stage % k
    }
}

/// Generates a Scope-style K-DAG.
pub fn generate<R: Rng>(k: usize, params: &ScopeParams, rng: &mut R) -> KDag {
    assert!(k >= 1);
    let mut b = KDagBuilder::new(k);
    let mut prev: Vec<TaskId> = Vec::new();
    for stage in 0..params.stages.max(1) {
        let class = class_of(stage, k);
        let width = rng.gen_range(params.width.0..=params.width.1).max(1);
        let tasks: Vec<TaskId> = (0..width)
            .map(|_| b.add_task(class, sample_work(rng)))
            .collect();
        if !prev.is_empty() {
            for &t in &tasks {
                let fanin = rng.gen_range(1..=params.max_fanin.min(prev.len()).max(1));
                let mut picked = std::collections::BTreeSet::new();
                while picked.len() < fanin {
                    picked.insert(prev[rng.gen_range(0..prev.len())]);
                }
                for p in picked {
                    b.add_edge(p, t).expect("stage wiring is forward");
                }
            }
        }
        prev = tasks;
    }
    b.build().expect("stage-ordered wiring is acyclic")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::topo;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> ScopeParams {
        ScopeParams {
            stages: 20,
            width: (4, 12),
            max_fanin: 3,
        }
    }

    #[test]
    fn stage_structure_holds() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generate(3, &params(), &mut rng);
        assert!(topo::topological_order(&g).is_some());
        // depth equals stage count: every task reads from the previous
        // stage only
        let layers = topo::layers(&g);
        assert_eq!(layers.len(), 20);
        // every layer is one class
        for layer in &layers {
            let class = g.rtype(layer[0]);
            assert!(layer.iter().all(|&v| g.rtype(v) == class));
        }
    }

    #[test]
    fn class_assignment_covers_all_classes() {
        let classes: std::collections::HashSet<usize> = (0..20).map(|s| class_of(s, 4)).collect();
        assert_eq!(classes, (0..4).collect());
        // K = 2 round-robins
        assert_eq!(class_of(0, 2), 0);
        assert_eq!(class_of(1, 2), 1);
        assert_eq!(class_of(2, 2), 0);
    }

    #[test]
    fn every_nonfirst_task_reads_upstream_partitions() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generate(3, &params(), &mut rng);
        let depths = topo::depths(&g);
        for v in g.tasks() {
            if depths[v.index()] > 0 {
                let fanin = g.num_parents(v);
                assert!((1..=3).contains(&fanin), "{v}: fanin {fanin}");
            }
        }
    }

    #[test]
    fn single_stage_has_no_edges() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = ScopeParams {
            stages: 1,
            width: (5, 5),
            max_fanin: 3,
        };
        let g = generate(2, &p, &mut rng);
        assert_eq!(g.num_tasks(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn schedulers_differentiate_on_scope_jobs() {
        use fhs_sim::{metrics, MachineConfig, Mode};
        let mut kg_sum = 0.0;
        let mut mqb_sum = 0.0;
        let cfg = MachineConfig::new(vec![3, 5, 2]);
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = ScopeParams::sample(&mut rng, (4, 16));
            let g = generate(3, &p, &mut rng);
            let mut kg = fhs_core_stub::kgreedy(seed);
            let mut mqb = fhs_core_stub::mqb();
            kg_sum += metrics::evaluate(&g, &cfg, kg.as_mut(), Mode::NonPreemptive, seed).ratio;
            mqb_sum += metrics::evaluate(&g, &cfg, mqb.as_mut(), Mode::NonPreemptive, seed).ratio;
        }
        assert!(
            mqb_sum < kg_sum,
            "MQB {mqb_sum} should beat KGreedy {kg_sum} on Scope jobs"
        );
    }

    /// `fhs-workloads` cannot depend on `fhs-core` (it is the other way
    /// round), so the scheduler smoke-test uses the simulator's built-in
    /// FIFO and a trivial local MQB-flavoured stand-in: FIFO vs LIFO by
    /// descendant mass, enough to check the family differentiates
    /// schedulers at all.
    mod fhs_core_stub {
        use fhs_sim::policy::{Assignments, EpochView, FifoPolicy, Policy};
        use fhs_sim::MachineConfig;
        use kdag::{Artifacts, KDag};

        pub fn kgreedy(_seed: u64) -> Box<dyn Policy> {
            Box::new(FifoPolicy)
        }

        #[derive(Default)]
        struct DescFirst {
            d: Vec<f64>,
            snap: Vec<fhs_sim::ReadyTask>,
        }

        impl Policy for DescFirst {
            fn init(&mut self, job: &KDag, _c: &MachineConfig, _s: u64, a: &Artifacts) {
                self.d = a.type_blind(job).to_vec();
            }
            fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
                for alpha in 0..view.config.num_types() {
                    view.queues[alpha].collect_into(&mut self.snap);
                    let d = &self.d;
                    self.snap
                        .sort_by(|a, b| d[b.id.index()].total_cmp(&d[a.id.index()]));
                    for rt in self.snap.iter().take(view.slots[alpha]) {
                        out.push(alpha, rt.id);
                    }
                }
            }
        }

        pub fn mqb() -> Box<dyn Policy> {
            Box::new(DescFirst::default())
        }
    }
}
