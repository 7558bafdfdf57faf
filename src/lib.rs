//! # fhs — scheduling functionally heterogeneous systems with utilization balancing
//!
//! A Rust reproduction of *"Scheduling Functionally Heterogeneous Systems
//! with Utilization Balancing"* (Yuxiong He, Jie Liu, Hongyang Sun —
//! IPDPS 2011): the K-DAG job model, a discrete-time simulator for typed
//! processor pools, the paper's six scheduling algorithms (including its
//! contribution, **Multi-Queue Balancing**), the synthetic workload
//! families of its evaluation, its theory results, and the harness that
//! regenerates every figure.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use fhs::prelude::*;
//!
//! // A 2-type job: a CPU stage fans out to GPU work that joins back.
//! let mut b = KDagBuilder::new(2);
//! let prep = b.add_task(0, 2);
//! let gpu: Vec<_> = (0..4).map(|_| b.add_task(1, 3)).collect();
//! let merge = b.add_task(0, 1);
//! for &g in &gpu {
//!     b.add_edge(prep, g).unwrap();
//!     b.add_edge(g, merge).unwrap();
//! }
//! let job = b.build().unwrap();
//!
//! // 1 CPU, 2 GPUs; schedule with MQB and compare to the lower bound.
//! let machine = MachineConfig::new(vec![1, 2]);
//! let mut mqb = make_policy(Algorithm::Mqb);
//! let result = evaluate(&job, &machine, mqb.as_mut(), Mode::NonPreemptive, 0);
//! assert_eq!(result.makespan, 9); // 2 + ceil(4·3/2) + 1
//! assert!(result.ratio >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`kdag`] | `kdag` | the K-DAG model and graph analyses |
//! | [`sim`] | `fhs-sim` | the discrete-time simulation engines |
//! | [`sched`] | `fhs-core` | KGreedy, LSpan, MaxDP, DType, ShiftBT, MQB |
//! | [`workloads`] | `fhs-workloads` | EP / Tree / IR generators, adversarial family |
//! | [`theory`] | `fhs-theory` | Lemma 1, Theorem 2, KGreedy bounds |
//! | [`par`] | `fhs-par` | the persistent worker pool that fans instances across cores |
//! | [`experiments`] | `fhs-experiments` | per-figure experiment runners |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fhs_core as sched;
pub use fhs_experiments as experiments;
pub use fhs_par as par;
pub use fhs_sim as sim;
pub use fhs_theory as theory;
pub use fhs_workloads as workloads;
pub use kdag;

/// The commonly used items in one import.
pub mod prelude {
    pub use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
    pub use fhs_sim::metrics::evaluate;
    pub use fhs_sim::{engine, MachineConfig, Mode, Policy, RunOptions};
    pub use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
    pub use kdag::{KDag, KDagBuilder, TaskId};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_crates_together() {
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
        let (job, cfg) = spec.sample(1);
        let mut policy = make_policy(Algorithm::Mqb);
        let r = evaluate(&job, &cfg, policy.as_mut(), Mode::NonPreemptive, 1);
        assert!(r.ratio >= 1.0);
    }
}
