//! Figure 5 — impact of the number of resource types `K` (1…6).
//!
//! Three panels: (a) Small Layered EP, (b) Medium Layered Tree,
//! (c) Medium Layered IR; one line per algorithm, average completion-time
//! ratio as `K` grows.
//!
//! Expected shape (paper §V-D): KGreedy's ratio grows with `K` (the
//! Theorem-2 degradation, averaged); offline algorithms stay much flatter,
//! with MQB near-optimal on EP/Tree and roughly halving KGreedy on IR for
//! `K ≥ 2`.

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_workloads::{Typing, WorkloadSpec};

use crate::args::CommonArgs;
use crate::chart;
use crate::figures::{self, algorithm_cells, obs_section, paper_panels, Figure};
use crate::runner::SweepCellResult;
use crate::stats::Summary;
use crate::table::Table;

/// The `K` sweep of the paper.
pub const K_RANGE: std::ops::RangeInclusive<usize> = 1..=6;

/// The three layered panels × the six algorithms. Each panel is swept
/// at every `K` of [`K_RANGE`] ([`columns`]); a panel's `k` is replaced
/// there.
pub fn figure() -> Figure {
    Figure {
        stem: "fig5",
        caption: "Figure 5 — avg completion-time ratio as K varies 1..6 (non-preemptive)",
        default_instances: 200,
        panels: paper_panels(Typing::Layered, *K_RANGE.start()).into(),
        cells: algorithm_cells(ALL_ALGORITHMS),
    }
}

/// One panel's line chart: per algorithm, a summary per `K`.
pub type Series = Vec<(Algorithm, Vec<Summary>)>;

/// Per panel, its title and its sweep columns at every `K` of
/// [`K_RANGE`]. Each `(panel, K)` point is one instance-major sweep, so
/// all six bars of a point share one sampled instance stream.
pub fn columns(fig: &Figure, args: &CommonArgs) -> Vec<(String, Vec<Vec<SweepCellResult>>)> {
    fig.panels
        .iter()
        .map(|&spec| {
            let by_k = K_RANGE.map(|k| fig.sweep(args, &WorkloadSpec { k, ..spec }));
            // The caption omits K, which varies along the panel.
            (spec.label(), by_k.collect())
        })
        .collect()
}

/// One panel's per-algorithm series over [`K_RANGE`], from its per-`K`
/// sweep columns.
pub fn series(by_k: &[Vec<SweepCellResult>]) -> Series {
    ALL_ALGORITHMS
        .into_iter()
        .enumerate()
        .map(|(i, algo)| (algo, by_k.iter().map(|cols| cols[i].summary()).collect()))
        .collect()
}

/// Computes, renders, and (optionally) writes `fig5.csv`.
pub fn report(args: &CommonArgs) -> String {
    let fig = figure();
    let csv = Table::new(vec!["panel", "algorithm", "K", "mean", "ci95", "max", "n"]);
    let xs: Vec<String> = K_RANGE.map(|k| format!("K={k}")).collect();
    figures::report(
        args,
        fig.stem,
        fig.caption,
        csv,
        columns(&fig, args),
        |(title, by_k), csv| {
            let series = series(&by_k);
            let means: Vec<(String, Vec<f64>)> = series
                .iter()
                .map(|(algo, sweep)| {
                    (
                        algo.label().to_string(),
                        sweep.iter().map(|s| s.mean).collect(),
                    )
                })
                .collect();
            let mut out = format!(
                "== {title} ==\n{}",
                chart::series_table("algorithm", &xs, &means)
            );
            for (k, cols) in K_RANGE.zip(&by_k) {
                let labels = fig.labels().map(|l| format!("{l} K={k}"));
                out.push_str(&obs_section(args, labels.zip(cols)));
            }
            out.push('\n');
            for (algo, sweep) in &series {
                for (k, s) in K_RANGE.zip(sweep) {
                    csv.push_row(vec![
                        title.clone(),
                        algo.label().to_string(),
                        k.to_string(),
                        format!("{}", s.mean),
                        format!("{}", s.ci95),
                        format!("{}", s.max),
                        s.n.to_string(),
                    ]);
                }
            }
            out
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 15,
            seed: 13,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    /// Per panel, its title and per-algorithm series over [`K_RANGE`].
    fn panels(args: &CommonArgs) -> Vec<(String, Series)> {
        columns(&figure(), args)
            .into_iter()
            .map(|(title, by_k)| (title, series(&by_k)))
            .collect()
    }

    #[test]
    fn shape_is_three_panels_by_six_algos_by_six_k() {
        let panels = panels(&tiny_args());
        assert_eq!(panels.len(), 3);
        for p in &panels {
            assert_eq!(p.1.len(), 6);
            for (_, sweep) in &p.1 {
                assert_eq!(sweep.len(), 6);
            }
        }
    }

    #[test]
    fn k_equals_one_is_homogeneous_and_near_greedy_optimal() {
        // With a single type every algorithm is a homogeneous list
        // scheduler; ratios must be close to 1 (Graham's 2−1/P caps them,
        // and averages sit well below that).
        let panels = panels(&tiny_args());
        for p in &panels {
            for (algo, sweep) in &p.1 {
                assert!(
                    sweep[0].mean < 2.0,
                    "{}/{}: K=1 mean {}",
                    p.0,
                    algo.label(),
                    sweep[0].mean
                );
            }
        }
    }

    #[test]
    fn kgreedy_degrades_with_k_on_layered_ep() {
        let panels = panels(&tiny_args());
        let (_, kgreedy) = &panels[0].1[0];
        assert!(
            kgreedy[5].mean > kgreedy[0].mean + 0.3,
            "KGreedy K=6 mean {} not clearly above K=1 mean {}",
            kgreedy[5].mean,
            kgreedy[0].mean
        );
    }

    #[test]
    fn report_mentions_every_k() {
        let text = report(&tiny_args());
        for k in K_RANGE {
            assert!(text.contains(&format!("K={k}")));
        }
    }
}
