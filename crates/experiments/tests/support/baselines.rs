//! The two baselines the instance-major `run_sweep` is checked against,
//! built from the public API only. The experiments crate's
//! `sweep_baselines` suite and fhs-bench's `bench_gates` (which also times
//! `run_sweep` against [`cell_major`]) include this one file by path:
//!
//! * [`cell_major`] — one pool pass per cell, each instance sampled from
//!   scratch with a lazy bundle (the run computes only the analysis its
//!   policy reads) and evaluated on the pool worker's warm workspace and
//!   policy: what a per-figure loop over algorithms does;
//! * [`cold_sweep`] — each instance sampled and analyzed once, then a
//!   fresh policy and a fresh engine workspace for every evaluation.

use std::sync::Arc;

use fhs_core::make_policy;
use fhs_experiments::runner::{
    fold_rows, instance_seed, new_sweep_columns, with_worker_ctx, InstanceRuns, SweepCell,
    SweepCellResult,
};
use fhs_sim::{metrics, MachineConfig, Policy, RunObs, RunOptions, RunStats, Workspace};
use fhs_workloads::WorkloadSpec;
use kdag::precompute::Artifacts;
use kdag::KDag;

/// `cell` on `job` seeded `seed`, with `ws`/`policy` and the bundle
/// `artifacts`, observing nothing: what `run_sweep` records per run.
fn eval(
    ws: &mut Workspace,
    policy: &mut dyn Policy,
    (job, cfg): &(KDag, MachineConfig),
    cell: &SweepCell,
    seed: u64,
    artifacts: &Arc<Artifacts>,
) -> (f64, RunStats, Option<Box<RunObs>>) {
    let mut opts = RunOptions::seeded(seed);
    opts.quantum = cell.quantum;
    let (result, stats, obs) = metrics::evaluate_observed_with_artifacts_in(
        ws, job, cfg, policy, cell.mode, &opts, artifacts,
    );
    (result.ratio, stats, obs)
}

/// Each cell's ratios over `instances` instances seeded from `base_seed`,
/// one independent pool pass per cell.
pub fn cell_major(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    instances: usize,
    base_seed: u64,
) -> Vec<Vec<f64>> {
    cells
        .iter()
        .map(|&cell| {
            let spec = *spec;
            let instances = (0..instances as u64).collect();
            fhs_par::pool().map(instances, move |i| {
                let seed = instance_seed(base_seed, i);
                let inst = spec.sample(seed);
                let artifacts = Arc::new(Artifacts::new());
                with_worker_ctx(|ctx| {
                    let (ws, policy) = ctx.parts(cell.algo);
                    eval(ws, policy, &inst, &cell, seed, &artifacts).0
                })
            })
        })
        .collect()
}

/// The sweep's columns with a fresh policy and workspace per evaluation,
/// fanned out per instance through the pool and folded as `run_sweep`
/// folds its rows.
pub fn cold_sweep(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    instances: usize,
    base_seed: u64,
) -> Vec<SweepCellResult> {
    let (spec, cols) = (*spec, cells.to_vec());
    let instances = (0..instances as u64).collect();
    let rows = fhs_par::pool().map(instances, move |i| -> InstanceRuns {
        let seed = instance_seed(base_seed, i);
        let inst = spec.sample(seed);
        let artifacts = Arc::new(Artifacts::compute(&inst.0));
        cols.iter()
            .map(|cell| {
                let mut policy = make_policy(cell.algo);
                let mut ws = Workspace::new();
                eval(&mut ws, policy.as_mut(), &inst, cell, seed, &artifacts)
            })
            .collect()
    });
    let mut out = new_sweep_columns(cells.len());
    fold_rows(&mut out, rows);
    out
}
