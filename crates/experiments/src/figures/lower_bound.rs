//! Theorem 2 / Figure 2 — the online lower bound, measured.
//!
//! Runs KGreedy (online) and MQB (offline) on the adversarial K-DAG
//! family from the Theorem-2 proof and compares the measured completion-
//! time ratios (against the family's exact optimum `T* = K−1+m·P_K`) with
//! the closed forms:
//!
//! * the randomized online lower bound `K+1 − Σ 1/(P_α+1) − 1/(P_max+1)`,
//! * the analysis' expected online makespan, and
//! * KGreedy's `(K+1)` guarantee.
//!
//! Expected shape: KGreedy's measured ratio approaches the bound from
//! above as `m` grows, while MQB (which sees the hidden active tasks
//! through their huge descendant values) stays near 1.

use fhs_core::Algorithm;
use fhs_sim::{engine, Mode, RunOptions};
use fhs_theory::bounds;
use fhs_workloads::adversarial::{self, AdversarialParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::CommonArgs;
use crate::figures;
use crate::runner::{instance_seed, pool_map, with_worker_ctx};
use crate::table::Table;

/// Default instances per cell for the binary (each instance re-samples
/// the hidden active-task positions).
pub const DEFAULT_INSTANCES: usize = 50;

/// Processors per type used in the sweep (uniform pools keep the bound
/// formula legible; `P_K = P_max` holds trivially).
pub const PROCS_PER_TYPE: usize = 3;

/// One row of the sweep.
#[derive(Clone, Debug)]
pub struct BoundRow {
    /// Number of resource types.
    pub k: usize,
    /// Scale constant `m` of the construction.
    pub m: usize,
    /// Measured mean KGreedy ratio `T/T*`.
    pub kgreedy: f64,
    /// Measured mean MQB ratio `T/T*`.
    pub mqb: f64,
    /// The Theorem-2 randomized lower bound for this configuration.
    pub theorem2: f64,
    /// The analysis' expected online ratio (`E[T]/T*`).
    pub expected_online: f64,
    /// KGreedy's `(K+1)` guarantee.
    pub kgreedy_guarantee: f64,
}

fn mean_ratio(
    params: &AdversarialParams,
    algo: Algorithm,
    instances: usize,
    base_seed: u64,
    workers: Option<usize>,
) -> f64 {
    let t_star = params.optimal_makespan() as f64;
    let params = params.clone();
    let eval = move |i: u64| -> f64 {
        let seed = instance_seed(base_seed, i);
        let mut rng = StdRng::seed_from_u64(seed);
        let job = adversarial::generate(&params, &mut rng);
        let cfg = fhs_sim::MachineConfig::new(params.procs.clone());
        with_worker_ctx(|ctx| {
            let (ws, policy) = ctx.parts(algo);
            let out = engine::run_in(
                ws,
                &job,
                &cfg,
                policy,
                Mode::NonPreemptive,
                &RunOptions::seeded(seed),
            );
            out.makespan as f64 / t_star
        })
    };
    let ratios = pool_map(workers, 0..instances as u64, eval);
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Sweeps `K ∈ 1..=4` at `m = 12` plus an `m` convergence series at
/// `K = 3`.
pub fn compute(args: &CommonArgs) -> Vec<BoundRow> {
    let mut rows = Vec::new();
    let mut push = |k: usize, m: usize| {
        let params = AdversarialParams::new(vec![PROCS_PER_TYPE; k], m);
        rows.push(BoundRow {
            k,
            m,
            kgreedy: mean_ratio(
                &params,
                Algorithm::KGreedy,
                args.instances,
                args.seed,
                args.workers,
            ),
            mqb: mean_ratio(
                &params,
                Algorithm::Mqb,
                args.instances,
                args.seed,
                args.workers,
            ),
            theorem2: bounds::theorem2_lower_bound(&params.procs),
            expected_online: bounds::adversarial_online_expected_makespan(&params.procs, m as u64)
                / params.optimal_makespan() as f64,
            kgreedy_guarantee: bounds::kgreedy_upper_bound(k),
        });
    };
    for k in 1..=4 {
        push(k, 12);
    }
    for m in [2, 4, 8, 16] {
        push(3, m);
    }
    rows
}

/// Computes, renders, and (optionally) writes `lower_bound.csv`.
pub fn report(args: &CommonArgs) -> String {
    let rows = compute(args);
    let mut t = Table::new(vec![
        "K",
        "m",
        "KGreedy (measured)",
        "MQB (measured)",
        "E[online]/T* (theory)",
        "Thm-2 bound",
        "K+1 guarantee",
    ]);
    for r in &rows {
        t.push_row(vec![
            r.k.to_string(),
            r.m.to_string(),
            format!("{:.3}", r.kgreedy),
            format!("{:.3}", r.mqb),
            format!("{:.3}", r.expected_online),
            format!("{:.3}", r.theorem2),
            format!("{:.1}", r.kgreedy_guarantee),
        ]);
    }
    let out = format!(
        "Theorem 2 — adversarial family (P_α = {PROCS_PER_TYPE} per type): measured vs closed forms\n\n{}",
        t.render()
    );
    figures::finish(args, "lower_bound", out, &t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 8,
            seed: 31,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    #[test]
    fn rows_cover_the_k_sweep_and_m_sweep() {
        let rows = compute(&tiny_args());
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].k, 1);
        assert_eq!(rows[3].k, 4);
        assert_eq!(rows[4].m, 2);
        assert_eq!(rows[7].m, 16);
    }

    #[test]
    fn kgreedy_tracks_the_predicted_online_makespan() {
        // At K=3, m=8 the measured online ratio should be within ~20% of
        // the analysis' expectation and above the trivially-valid MQB.
        let rows = compute(&tiny_args());
        let r = rows.iter().find(|r| r.k == 3 && r.m == 8).unwrap();
        assert!(
            (r.kgreedy / r.expected_online - 1.0).abs() < 0.25,
            "measured {} vs expected {}",
            r.kgreedy,
            r.expected_online
        );
        assert!(r.kgreedy > r.mqb);
    }

    #[test]
    fn mqb_sees_through_the_adversarial_construction() {
        let rows = compute(&tiny_args());
        for r in &rows {
            assert!(
                r.mqb < 1.0 + 0.6,
                "K={} m={}: offline MQB ratio {} too large",
                r.k,
                r.m,
                r.mqb
            );
            assert!(r.kgreedy <= r.kgreedy_guarantee + 1e-9);
        }
    }

    #[test]
    fn report_renders_all_columns() {
        let text = report(&tiny_args());
        assert!(text.contains("Thm-2 bound"));
        assert!(text.contains("KGreedy (measured)"));
    }
}
