//! `run_sweep` against the cell-major and cold baselines (the shared
//! definitions in `support/baselines.rs`): every column must match them
//! bit for bit, whatever the warm layer reuses.

#[path = "support/baselines.rs"]
mod baselines;

use baselines::{cell_major, cold_sweep};
use fhs_core::{make_policy, Algorithm};
use fhs_experiments::runner::{
    fold_rows, instance_seed, new_sweep_columns, run_sweep, run_sweep_rows, SweepCell,
};
use fhs_sim::{Mode, ObsConfig, RunOptions, RunStats};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

fn small_spec() -> WorkloadSpec {
    WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 3)
}

fn one_column(algo: Algorithm) -> [SweepCell; 1] {
    [SweepCell::new(algo, Mode::NonPreemptive)]
}

#[test]
fn instrumented_ratios_match_plain_and_counters_aggregate() {
    let cells = one_column(Algorithm::DType);
    let plain = cell_major(&small_spec(), &cells, 8, 4);
    let rows = run_sweep_rows(
        &small_spec(),
        &cells,
        0..8,
        4,
        Some(2),
        ObsConfig::default(),
    );
    let ratios: Vec<f64> = rows.iter().map(|row| row[0].0).collect();
    assert_eq!(plain[0], ratios, "instrumentation must not perturb results");
    let mut merged = RunStats::default();
    for row in &rows {
        assert!(row[0].1.epochs > 0);
        merged.merge(&row[0].1);
    }
    let mut cols = new_sweep_columns(1);
    fold_rows(&mut cols, rows);
    let total = cols[0].stats;
    assert_eq!(merged, total);
    assert_eq!(
        total.transitions.releases, total.transitions.completions,
        "every released task completes"
    );
}

#[test]
fn sweep_matches_cell_major_bitwise() {
    // The instance-major fast path must reproduce the cell-major
    // baseline exactly, per column, including the quantum cadence.
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
    let mut cells = vec![
        SweepCell::new(Algorithm::KGreedy, Mode::NonPreemptive),
        SweepCell::new(Algorithm::Mqb, Mode::Preemptive),
        SweepCell::new(Algorithm::LSpan, Mode::NonPreemptive),
        SweepCell::new(Algorithm::ShiftBT, Mode::Preemptive),
    ];
    cells.push(SweepCell {
        algo: Algorithm::Mqb,
        mode: Mode::Preemptive,
        quantum: Some(1),
    });
    let sweep = run_sweep(&spec, &cells, 10, 7, Some(3));
    let cold = cell_major(&spec, &cells, 10, 7);
    assert_eq!(sweep.len(), cells.len());
    for ((sc, col), cold) in cells.iter().zip(&sweep).zip(&cold) {
        assert_eq!(&col.ratios, cold, "{:?} diverged from cell-major", sc.algo);
        // Wall-clock nanos are never reproducible; the logical
        // counters must match a cold per-instance engine loop.
        let mut total = RunStats::default();
        for i in 0..10 {
            let seed = instance_seed(7, i);
            let (job, cfg) = spec.sample(seed);
            let mut opts = RunOptions::seeded(seed);
            opts.quantum = sc.quantum;
            let mut policy = make_policy(sc.algo);
            let out = fhs_sim::engine::run(&job, &cfg, policy.as_mut(), sc.mode, &opts);
            total.merge(&out.stats);
        }
        assert_eq!(col.stats.epochs, total.epochs);
        assert_eq!(col.stats.tasks_assigned, total.tasks_assigned);
        assert_eq!(col.stats.transitions, total.transitions);
    }
}

#[test]
fn pooled_sweep_matches_cold_bitwise() {
    // The steady-state layer (persistent pool + warm workspaces and
    // policies) against a fresh policy and workspace per evaluation.
    let spec = WorkloadSpec::new(Family::Tree, Typing::Random, SystemSize::Small, 3);
    let cells = [
        SweepCell::new(Algorithm::Mqb, Mode::NonPreemptive),
        SweepCell::new(Algorithm::KGreedy, Mode::Preemptive),
        SweepCell::new(Algorithm::ShiftBT, Mode::NonPreemptive),
    ];
    let warm = run_sweep(&spec, &cells, 9, 13, None);
    let cold = cold_sweep(&spec, &cells, 9, 13);
    for (w, c) in warm.iter().zip(&cold) {
        assert_eq!(w.ratios, c.ratios);
        assert_eq!(w.stats.epochs, c.stats.epochs);
        assert_eq!(w.stats.tasks_assigned, c.stats.tasks_assigned);
        assert_eq!(w.stats.transitions, c.stats.transitions);
    }
}

#[test]
fn online_only_sweep_skips_artifacts_and_still_matches() {
    // A sweep of purely online columns takes the no-precompute branch;
    // it must still agree with the cell-major baseline.
    let spec = WorkloadSpec::new(Family::Tree, Typing::Layered, SystemSize::Small, 3);
    assert!(!Algorithm::KGreedy.is_offline());
    let cells = one_column(Algorithm::KGreedy);
    let sweep = run_sweep(&spec, &cells, 8, 21, Some(2));
    let cold = cell_major(&spec, &cells, 8, 21);
    assert_eq!(sweep[0].ratios, cold[0]);
}
