//! Workload specifications: family × typing × system size, with the
//! size-scaled parameter ranges used throughout the experiments.

use fhs_sim::MachineConfig;
use kdag::KDag;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::resources::{self, SystemSize};
use crate::{ep, ir, tree};

/// DAG family (paper §V-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Embarrassingly parallel.
    Ep,
    /// Divide-and-conquer tree.
    Tree,
    /// Iterative reduction (MapReduce-like).
    Ir,
}

impl Family {
    /// The paper's display name.
    pub fn label(&self) -> &'static str {
        match self {
            Family::Ep => "EP",
            Family::Tree => "Tree",
            Family::Ir => "IR",
        }
    }
}

/// Task-type assignment discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Typing {
    /// Structured: types follow the DAG's layers/phases.
    Layered,
    /// Unstructured: each task's type is uniform over the `K` types.
    Random,
}

impl Typing {
    /// The paper's display name.
    pub fn label(&self) -> &'static str {
        match self {
            Typing::Layered => "Layered",
            Typing::Random => "Random",
        }
    }
}

/// A complete workload description; one `(spec, seed)` pair determines one
/// job instance and one machine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkloadSpec {
    /// DAG family.
    pub family: Family,
    /// Type-assignment discipline.
    pub typing: Typing,
    /// System size class.
    pub size: SystemSize,
    /// Number of resource types `K`.
    pub k: usize,
    /// Apply the §V-E skew (type 1's pool shrunk to 1/5)?
    pub skewed: bool,
}

impl WorkloadSpec {
    /// A non-skewed spec.
    pub fn new(family: Family, typing: Typing, size: SystemSize, k: usize) -> Self {
        WorkloadSpec {
            family,
            typing,
            size,
            k,
            skewed: false,
        }
    }

    /// Returns a copy with the §V-E skew applied to sampled configurations.
    pub fn skewed(mut self) -> Self {
        self.skewed = true;
        self
    }

    /// The paper's panel caption, e.g. `"Medium Layered IR"`.
    pub fn label(&self) -> String {
        let base = format!(
            "{} {} {}",
            self.size.label(),
            self.typing.label(),
            self.family.label()
        );
        if self.skewed {
            format!("{base} (skewed)")
        } else {
            base
        }
    }

    /// Instance-parameter ranges scaled to the system size so medium
    /// systems see proportionally wider DAGs (documented substitution —
    /// the paper gives only qualitative ranges).
    fn branch_range(&self) -> (usize, usize) {
        match self.size {
            SystemSize::Small => (8, 24),
            SystemSize::Medium => (20, 60),
            // ≥ 250 branches × K phases ⇒ ≥ 1000 tasks at K = 4.
            SystemSize::Large => (250, 500),
            // ~7000 branches × 4 phases × ~4 tasks ⇒ ~112k tasks on
            // average at K = 4 (`max_phase_len ∈ U[4, 10]`).
            SystemSize::Huge => (5000, 9000),
        }
    }

    fn tree_cap(&self) -> (usize, usize) {
        match self.size {
            SystemSize::Small => (30, 150),
            SystemSize::Medium => (300, 1200),
            SystemSize::Large => (3000, 12000),
            SystemSize::Huge => (30000, 120000),
        }
    }

    fn ir_ranges(&self) -> ((usize, usize), (usize, usize)) {
        match self.size {
            SystemSize::Small => ((4, 16), (2, 8)),
            SystemSize::Medium => ((20, 60), (10, 30)),
            // ≥ 2 iterations × (400 + 150) ⇒ ≥ 1100 tasks.
            SystemSize::Large => ((400, 700), (150, 300)),
            // ≥ 2 iterations × (15000 + 5000) ⇒ ≥ 40k tasks (~100k on
            // average over `iterations ∈ U[2, 5]`); wide enough to take
            // the generator's sparse wiring path.
            SystemSize::Huge => ((15000, 25000), (5000, 8000)),
        }
    }

    /// Deterministically samples one `(job, machine)` instance.
    pub fn sample(&self, seed: u64) -> (KDag, MachineConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = self.machine(&mut rng);
        let job = match self.family {
            Family::Ep => {
                let p = ep::EpParams::sample(&mut rng, self.branch_range());
                ep::generate(self.k, &p, self.typing, &mut rng)
            }
            Family::Tree => {
                let p = tree::TreeParams::sample(&mut rng, self.tree_cap());
                tree::generate(self.k, &p, self.typing, &mut rng)
            }
            Family::Ir => {
                let (mr, rr) = self.ir_ranges();
                let p = ir::IrParams::sample(&mut rng, mr, rr);
                ir::generate(self.k, &p, self.typing, &mut rng)
            }
        };
        (job, config)
    }

    /// The machine of [`WorkloadSpec::sample`]`(seed)`, without the job:
    /// the machine is drawn first, from the same stream.
    pub fn sample_machine(&self, seed: u64) -> MachineConfig {
        self.machine(&mut StdRng::seed_from_u64(seed))
    }

    fn machine(&self, rng: &mut StdRng) -> MachineConfig {
        let config = resources::sample_config(self.k, self.size, rng);
        if self.skewed {
            resources::skew(&config)
        } else {
            config
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_papers_captions() {
        let s = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4);
        assert_eq!(s.label(), "Medium Layered IR");
        assert_eq!(s.skewed().label(), "Medium Layered IR (skewed)");
        let s = WorkloadSpec::new(Family::Ep, Typing::Random, SystemSize::Small, 4);
        assert_eq!(s.label(), "Small Random EP");
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let s = WorkloadSpec::new(Family::Tree, Typing::Random, SystemSize::Small, 3);
        let (j1, c1) = s.sample(99);
        let (j2, c2) = s.sample(99);
        assert_eq!(c1, c2);
        assert_eq!(j1.num_tasks(), j2.num_tasks());
        assert_eq!(j1.num_edges(), j2.num_edges());
        let works1: Vec<u64> = j1.tasks().map(|v| j1.work(v)).collect();
        let works2: Vec<u64> = j2.tasks().map(|v| j2.work(v)).collect();
        assert_eq!(works1, works2);
        // different seed differs (overwhelmingly likely)
        let (j3, _) = s.sample(100);
        assert!(
            j3.num_tasks() != j1.num_tasks()
                || j3.tasks().map(|v| j3.work(v)).collect::<Vec<_>>() != works1
        );
    }

    #[test]
    fn skewed_configs_shrink_type_one() {
        let s = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4).skewed();
        for seed in 0..10 {
            let (_, cfg) = s.sample(seed);
            assert!(cfg.procs(0) <= 4); // ceil(20/5)
            assert!(cfg.procs(1) >= 10);
        }
    }

    #[test]
    fn every_family_builds_valid_dags_across_seeds() {
        for family in [Family::Ep, Family::Tree, Family::Ir] {
            for typing in [Typing::Layered, Typing::Random] {
                for size in [SystemSize::Small, SystemSize::Medium] {
                    let s = WorkloadSpec::new(family, typing, size, 4);
                    for seed in 0..5 {
                        let (job, cfg) = s.sample(seed);
                        assert!(job.num_tasks() > 0);
                        assert_eq!(job.num_types(), 4);
                        assert_eq!(cfg.num_types(), 4);
                        assert!(kdag::topo::topological_order(&job).is_some());
                    }
                }
            }
        }
    }

    #[test]
    fn large_ep_and_ir_instances_have_at_least_1000_tasks() {
        // `bench_gates`' Large instances rely on Large EP/IR being ≥ 1000
        // tasks for every seed (Tree only guarantees ≥ cap/5 and is
        // excluded).
        for family in [Family::Ep, Family::Ir] {
            let s = WorkloadSpec::new(family, Typing::Layered, SystemSize::Large, 4);
            for seed in 0..5 {
                let (job, cfg) = s.sample(seed);
                assert!(
                    job.num_tasks() >= 1000,
                    "{} seed {seed}: only {} tasks",
                    s.label(),
                    job.num_tasks()
                );
                assert!(cfg.procs_per_type().iter().all(|&p| (30..=60).contains(&p)));
            }
        }
    }

    #[test]
    fn huge_instances_reach_the_100k_regime() {
        // The scale-ladder gate and the Huge smokes rely on EP/IR landing
        // in the ~10⁵-task band with cluster-scale pools; IR must also be
        // wide enough to take the generator's sparse wiring path.
        for family in [Family::Ep, Family::Ir] {
            let s = WorkloadSpec::new(family, Typing::Layered, SystemSize::Huge, 4);
            for seed in 0..3 {
                let (job, cfg) = s.sample(seed);
                assert!(
                    job.num_tasks() >= 40_000,
                    "{} seed {seed}: only {} tasks",
                    s.label(),
                    job.num_tasks()
                );
                assert!(
                    job.num_edges() <= 4 * job.num_tasks(),
                    "{} seed {seed}: {} edges for {} tasks — sparse wiring broken?",
                    s.label(),
                    job.num_edges(),
                    job.num_tasks()
                );
                assert!(cfg
                    .procs_per_type()
                    .iter()
                    .all(|&p| (100..=200).contains(&p)));
            }
        }
    }

    #[test]
    fn machine_only_sampling_matches_the_full_sample() {
        for family in [Family::Ep, Family::Tree, Family::Ir] {
            for size in [
                SystemSize::Small,
                SystemSize::Medium,
                SystemSize::Large,
                SystemSize::Huge,
            ] {
                let s = WorkloadSpec::new(family, Typing::Random, size, 3);
                for (spec, seed) in [(s, 0), (s.skewed(), 1)] {
                    assert_eq!(
                        spec.sample_machine(seed),
                        spec.sample(seed).1,
                        "{} seed {seed}",
                        spec.label()
                    );
                }
            }
        }
    }

    #[test]
    fn k_one_works_for_changing_k_experiments() {
        for family in [Family::Ep, Family::Tree, Family::Ir] {
            let s = WorkloadSpec::new(family, Typing::Layered, SystemSize::Small, 1);
            let (job, cfg) = s.sample(7);
            assert_eq!(job.num_types(), 1);
            assert_eq!(cfg.num_types(), 1);
        }
    }
}
