//! Extension experiment (paper §VII): type-binding policies for
//! JIT-flexible jobs.
//!
//! Takes the three layered workloads of Figures 7/8, gives a fraction of
//! tasks fallback binaries on other types, binds with each policy from
//! `fhs_core::flex`, and schedules the bound job with MQB. Reported per
//! binder: the mean completion-time ratio **against the original
//! (inflexible) job's lower bound** — so a value below 1.0 means the
//! binder bought performance no scheduler could reach on the unbound job.

use fhs_core::flex::{bind_balanced, bind_fastest, bind_first, bind_random};
use fhs_core::Algorithm;
use fhs_sim::{engine, MachineConfig, Mode, RunOptions};
use fhs_workloads::flexgen::{flexibilize, FlexParams};
use fhs_workloads::Typing;
use kdag::flex::FlexKDag;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::CommonArgs;
use crate::figures::{self, panel_csv_table, paper_panels, Panel, DEFAULT_K};
use crate::runner::{instance_seed, pool_map, with_worker_ctx};
use crate::stats::Summary;

/// Default instances per cell for the binary.
pub const DEFAULT_INSTANCES: usize = 300;

/// The binding policies compared.
pub const BINDERS: [&str; 4] = ["native", "fastest", "random", "balanced"];

fn bind(name: &str, flex: &FlexKDag, cfg: &MachineConfig, seed: u64) -> Vec<usize> {
    match name {
        "native" => bind_first(flex),
        "fastest" => bind_fastest(flex),
        "random" => bind_random(flex, seed),
        "balanced" => bind_balanced(flex, cfg),
        other => unreachable!("unknown binder {other}"),
    }
}

/// Computes the per-binder panels over the three layered workloads of
/// Figures 7/8.
pub fn compute(args: &CommonArgs) -> Vec<Panel> {
    let params = FlexParams::default();
    paper_panels(Typing::Layered, DEFAULT_K)
        .into_iter()
        .map(|spec| {
            let rows = BINDERS
                .iter()
                .map(|&binder| {
                    let base_seed = args.seed;
                    let eval = move |i: u64| -> f64 {
                        let seed = instance_seed(base_seed, i);
                        let (job, cfg) = spec.sample(seed);
                        // ratio denominator: the ORIGINAL job's bound
                        let lb = kdag::metrics::lower_bound(&job, cfg.procs_per_type()).max(1);
                        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EF);
                        let flex = flexibilize(&job, &params, &mut rng);
                        let bound = flex.bind(&bind(binder, &flex, &cfg, seed));
                        with_worker_ctx(|ctx| {
                            let (ws, mqb) = ctx.parts(Algorithm::Mqb);
                            let out = engine::run_in(
                                ws,
                                &bound,
                                &cfg,
                                mqb,
                                Mode::NonPreemptive,
                                &RunOptions::seeded(seed),
                            );
                            out.makespan as f64 / lb as f64
                        })
                    };
                    let ratios = pool_map(args.workers, 0..args.instances as u64, eval);
                    (format!("{binder}+MQB"), Summary::from_samples(&ratios))
                })
                .collect();
            Panel {
                title: format!("{} (50% flexible)", spec.label()),
                rows,
            }
        })
        .collect()
}

/// Computes, renders, and (optionally) writes `flex_binding.csv`.
pub fn report(args: &CommonArgs) -> String {
    let caption =
        "Extension (§VII) — JIT type binding: makespan over the ORIGINAL job's lower bound";
    figures::report(
        args,
        "flex_binding",
        caption,
        panel_csv_table(),
        compute(args),
        |p, csv| {
            p.csv_rows(csv);
            format!("{}\n", p.render())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 20,
            seed: 77,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    #[test]
    fn four_binders_per_panel() {
        let panels = compute(&tiny_args());
        assert_eq!(panels.len(), 3);
        for p in &panels {
            assert_eq!(p.rows.len(), 4);
            assert!(p.title.contains("flexible"));
        }
    }

    #[test]
    fn balanced_binding_helps_where_imbalance_is_real() {
        // Trees have strongly imbalanced per-type loads (geometric level
        // widths), so pressure descent must pay off there; on the other
        // panels it must never lose more than a small margin (the descent
        // accepts only strict pressure improvements, but pressure is a
        // lower-bound proxy, not the makespan itself).
        let panels = compute(&tiny_args());
        let native_tree = panels[1].rows[0].1.mean;
        let balanced_tree = panels[1].rows[3].1.mean;
        assert!(
            balanced_tree < native_tree,
            "tree: balanced {balanced_tree} !< native {native_tree}"
        );
        for p in &panels {
            let native = p.rows[0].1.mean;
            let balanced = p.rows[3].1.mean;
            assert!(
                balanced < native * 1.05,
                "{}: balanced {} regressed past 5% over native {}",
                p.title,
                balanced,
                native
            );
        }
    }

    #[test]
    fn random_binding_never_wins() {
        let panels = compute(&tiny_args());
        for p in &panels {
            let random = p.rows[2].1.mean;
            let balanced = p.rows[3].1.mean;
            assert!(balanced <= random, "{}", p.title);
        }
    }
}
