//! # fhs-bench — fixtures for the release-only tests
//!
//! Fixed instances for the test suites under `crates/bench/tests`:
//!
//! * `bench_gates` — the speed gates: growth exponents, same-binary
//!   speedups against retained oracles and cold paths, and the
//!   observability overhead bound (`-- --ignored` adds the host-speed
//!   gates);
//! * `alloc_regression` — zero-allocation warm reruns;
//! * `huge_smoke`, `huge_mqb_smoke`, `perf_smoke` — the ~110k-task rung;
//! * `stream_smoke`, `mqb_approx_quality` — the session engine and the
//!   approximation's quality.
//!
//! Run them with `cargo test -p fhs-bench --release`; debug builds skip
//! the timing and Huge-rung tests. Speed over time is recorded by the
//! repo benchmark (`perfbench/`), not here.

#![forbid(unsafe_code)]

use fhs_sim::MachineConfig;
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::KDag;

/// A fixed small layered-EP instance.
pub fn small_ep() -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 4).sample(7)
}

/// A fixed medium layered-IR instance.
pub fn medium_ir() -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4).sample(7)
}

/// A fixed medium layered-tree instance.
pub fn medium_tree() -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Tree, Typing::Layered, SystemSize::Medium, 4).sample(7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_nontrivial() {
        let (ep, _) = small_ep();
        let (ir, _) = medium_ir();
        let (tree, _) = medium_tree();
        assert!(ep.num_tasks() > 20);
        assert!(ir.num_tasks() > 100);
        assert!(tree.num_tasks() > 60);
    }
}
