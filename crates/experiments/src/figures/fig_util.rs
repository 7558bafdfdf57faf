//! Utilization observatory figure — how evenly each policy loads the
//! machine types.
//!
//! The paper's argument for MQB is *utilization balancing*: KGreedy lets
//! one resource type drain while another saturates, while MQB keeps the
//! per-type utilizations close together. This figure makes that claim
//! directly measurable: per panel (the three layered workloads of
//! Figures 5/7/8) it runs all six algorithms in both execution modes with
//! the utilization-timeline recorder enabled and reports, per
//! `(algorithm, mode)` cell:
//!
//! * the average completion-time ratio (the paper's headline metric),
//! * the mean per-type utilization (averaged over types),
//! * the mean utilization imbalance `max_α u_α − min_α u_α`,
//! * the coefficient of variation of per-type utilization, and
//! * the mean time-to-drain fraction (when the last task of each type
//!   finishes, as a fraction of the makespan).
//!
//! Measured shape (a finding, not an assumption): whole-run per-type
//! utilization is `u_α = W_α / (P_α · makespan)` — every policy completes
//! the same per-type work, so the schedule enters only through the
//! uniform `1/makespan` factor. Consequently the CoV across types is a
//! property of the *workload*, identical for all twelve cells of a panel
//! (a strong end-to-end pin on the timeline accounting), and the max−min
//! imbalance of a faster policy is uniformly scaled *up*. The per-policy
//! signals in a whole-run view are the **mean utilization** (the
//! makespan seen from the machine side: better policies pack tighter)
//! and the drain fractions; the *temporal* balancing MQB does is visible
//! in the event trace (`sweep --trace-out`), not in run-averaged
//! utilizations.

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_obs::UtilSummary;
use fhs_sim::RunStats;
use fhs_workloads::Typing;

use crate::args::CommonArgs;
use crate::chart;
use crate::figures::{self, mode_cells, paper_panels, Figure, DEFAULT_K};
use crate::runner::SweepCellResult;
use crate::stats::Summary;
use crate::table::Table;

/// One `(algorithm, mode)` row of a panel.
#[derive(Clone, Debug)]
pub struct UtilRow {
    /// The scheduling policy.
    pub algo: Algorithm,
    /// `"np"` or `"pre(q=1)"`.
    pub mode: &'static str,
    /// Completion-time-ratio summary.
    pub ratio: Summary,
    /// Aggregated utilization report over the cell's instances.
    pub util: UtilSummary,
    /// Aggregated engine counters (fast-forward skips, dirty-set scan
    /// effectiveness, selection-index pruning) over the cell's instances.
    pub stats: RunStats,
}

impl UtilRow {
    /// Mean per-type utilization averaged (unweighted) over the types.
    pub fn mean_util(&self) -> f64 {
        let k = self.util.sum_util.len();
        if k == 0 || self.util.runs == 0 {
            return 0.0;
        }
        (0..k).map(|a| self.util.mean_util(a)).sum::<f64>() / k as f64
    }

    /// Mean time-to-drain fraction averaged over the types.
    pub fn mean_drain(&self) -> f64 {
        let k = self.util.sum_drain_frac.len();
        if k == 0 || self.util.runs == 0 {
            return 0.0;
        }
        (0..k).map(|a| self.util.mean_drain_frac(a)).sum::<f64>() / k as f64
    }
}

/// The three layered panels shared with Figures 5/7/8, each one sweep
/// over the twelve (algorithm, mode) cells of Figure 7.
pub fn figure() -> Figure {
    Figure {
        stem: "fig_util",
        caption: "Utilization observatory — per-type utilization balance per policy (K=4, layered)",
        default_instances: 200,
        panels: paper_panels(Typing::Layered, DEFAULT_K).to_vec(),
        cells: mode_cells(),
    }
}

/// Runs the panels with utilization recording always on (it is the
/// figure's subject). The report prints no latency percentiles, so
/// `--instrument` records none here.
pub fn columns(args: &CommonArgs) -> Vec<Vec<SweepCellResult>> {
    let args = CommonArgs {
        utilization: true,
        instrument: false,
        ..args.clone()
    };
    figure().columns(&args)
}

/// A panel's twelve rows, in `(algorithm, np), (algorithm, pre)` order.
pub fn rows(cols: &[SweepCellResult]) -> Vec<UtilRow> {
    ALL_ALGORITHMS
        .into_iter()
        .zip(cols.chunks(2))
        .flat_map(|(algo, pair)| {
            ["np", "pre(q=1)"]
                .into_iter()
                .zip(pair)
                .map(move |(mode, col)| UtilRow {
                    algo,
                    mode,
                    ratio: col.summary(),
                    util: col.obs.as_ref().map(|o| o.util.clone()).unwrap_or_default(),
                    stats: col.stats,
                })
        })
        .collect()
}

/// Computes, renders, and (optionally) writes `fig_util.csv`.
pub fn report(args: &CommonArgs) -> String {
    let fig = figure();
    let csv = Table::new(vec![
        "panel",
        "algorithm",
        "mode",
        "mean_ratio",
        "mean_util",
        "imbalance",
        "cov",
        "drain_frac",
        "n",
        "epochs_skipped",
        "dirty_visits",
        "full_rescans",
        "sel_evaluated",
        "sel_pruned",
        "sel_diff_events",
        "sel_cold_snapshots",
    ]);
    let panels = fig.panels.iter().zip(columns(args));
    figures::report(
        args,
        fig.stem,
        fig.caption,
        csv,
        panels,
        |(spec, cols), csv| {
            let title = spec.label();
            let rows = rows(&cols);
            let mut t = Table::new(vec![
                "algorithm",
                "mode",
                "avg ratio",
                "mean util",
                "imbalance",
                "CoV",
                "drain",
                "ff-skip",
                "dirty",
                "rescans",
                "sel eval",
                "sel pruned",
            ]);
            for r in &rows {
                t.push_row(vec![
                    r.algo.label().to_string(),
                    r.mode.to_string(),
                    format!("{:.3}", r.ratio.mean),
                    format!("{:.1}%", 100.0 * r.mean_util()),
                    format!("{:.3}", r.util.mean_imbalance()),
                    format!("{:.3}", r.util.mean_cov()),
                    format!("{:.3}", r.mean_drain()),
                    r.stats.epochs_skipped.to_string(),
                    r.stats.dirty_visits.to_string(),
                    r.stats.full_rescans.to_string(),
                    r.stats.selection.candidates_evaluated.to_string(),
                    r.stats.selection.candidates_pruned.to_string(),
                ]);
                csv.push_row(vec![
                    title.clone(),
                    r.algo.label().to_string(),
                    r.mode.to_string(),
                    format!("{}", r.ratio.mean),
                    format!("{}", r.mean_util()),
                    format!("{}", r.util.mean_imbalance()),
                    format!("{}", r.util.mean_cov()),
                    format!("{}", r.mean_drain()),
                    r.ratio.n.to_string(),
                    r.stats.epochs_skipped.to_string(),
                    r.stats.dirty_visits.to_string(),
                    r.stats.full_rescans.to_string(),
                    r.stats.selection.candidates_evaluated.to_string(),
                    r.stats.selection.candidates_pruned.to_string(),
                    r.stats.selection.diff_events.to_string(),
                    r.stats.selection.cold_snapshots.to_string(),
                ]);
            }
            // The figure's punchline as a bar chart: non-preemptive mean
            // utilization per algorithm (higher = tighter packing = smaller
            // makespan; whole-run imbalance/CoV are workload-scaled, see the
            // module docs).
            let bars: Vec<(String, f64)> = rows
                .iter()
                .filter(|r| r.mode == "np")
                .map(|r| (r.algo.label().to_string(), r.mean_util()))
                .collect();
            format!(
                "== {title} ==\n{}\nmean utilization (np, higher is better):\n{}\n",
                t.render(),
                chart::bar_chart(&bars, 48)
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 12,
            seed: 23,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    struct UtilPanel {
        title: String,
        rows: Vec<UtilRow>,
    }

    fn panels(args: &CommonArgs) -> Vec<(UtilPanel, Vec<SweepCellResult>)> {
        let fig = figure();
        let titles = fig.panels.iter().map(|s| s.label());
        titles
            .zip(columns(args))
            .map(|(title, cols)| {
                (
                    UtilPanel {
                        title,
                        rows: rows(&cols),
                    },
                    cols,
                )
            })
            .collect()
    }

    #[test]
    fn three_panels_of_twelve_rows_with_sane_utilizations() {
        let panels = panels(&tiny_args());
        assert_eq!(panels.len(), 3);
        for (p, cols) in &panels {
            assert_eq!(p.rows.len(), 12);
            assert_eq!(cols.len(), 12);
            for r in &p.rows {
                assert_eq!(r.util.runs, 12, "{}/{}", p.title, r.algo.label());
                assert!(r.stats.epochs > 0, "{}: no epochs counted", r.algo.label());
                let u = r.mean_util();
                assert!(u > 0.0 && u <= 1.0, "{}: util {}", r.algo.label(), u);
                let imb = r.util.mean_imbalance();
                assert!((0.0..=1.0).contains(&imb), "imbalance {imb}");
                assert!(r.util.mean_cov() >= 0.0);
                let d = r.mean_drain();
                assert!(d > 0.0 && d <= 1.0 + 1e-9, "drain {d}");
            }
        }
    }

    #[test]
    fn whole_run_cov_is_a_workload_property_shared_by_all_policies() {
        // u_α = W_α / (P_α · makespan): the schedule enters whole-run
        // utilization only through the uniform 1/makespan factor, so the
        // CoV across types must agree for all twelve cells of a panel —
        // a strong end-to-end pin on the timeline accounting.
        let panels = panels(&tiny_args());
        for (p, _) in &panels {
            let cov0 = p.rows[0].util.mean_cov();
            assert!(cov0 > 0.0, "{}: degenerate CoV", p.title);
            for r in &p.rows {
                let cov = r.util.mean_cov();
                assert!(
                    (cov - cov0).abs() < 1e-9,
                    "{} {} {}: CoV {cov} != {cov0}",
                    p.title,
                    r.algo.label(),
                    r.mode
                );
            }
        }
    }

    #[test]
    fn mqb_packs_tighter_than_kgreedy_on_layered_ir() {
        // Mean utilization is the makespan seen from the machine side: on
        // the layered IR panel MQB finishes well before the online greedy,
        // so its mean utilization must be strictly higher.
        let panels = panels(&tiny_args());
        let rows = &panels[2].0.rows;
        assert_eq!(rows[0].algo.label(), "KGreedy");
        assert_eq!(rows[10].algo.label(), "MQB");
        let (kgreedy, mqb) = (rows[0].mean_util(), rows[10].mean_util());
        assert!(mqb > kgreedy, "MQB util {mqb} !> KGreedy {kgreedy}");
    }

    #[test]
    fn report_renders_tables_charts_and_csv_rows() {
        let text = report(&tiny_args());
        assert!(text.contains("Utilization observatory"));
        assert!(text.contains("imbalance"));
        assert!(text.contains("pre(q=1)"));
        assert!(text.contains('#'), "bar chart rendered");
        // The engine counters surfaced in the table (fast-forward +
        // selection-index effectiveness, PR-7/PR-8).
        assert!(text.contains("ff-skip"));
        assert!(text.contains("sel pruned"));
    }

    #[test]
    fn engine_counters_reach_the_rows() {
        // MQB drives the incremental selection index, so its rows must
        // report evaluated candidates. The fast-forward counters are
        // session-engine counters: the single-run sweep path behind this
        // figure never skips an epoch, so surfacing them here must read
        // exactly zero (they go live in the streaming harness).
        let panels = panels(&tiny_args());
        let rows = &panels[2].0.rows;
        assert_eq!(rows[10].algo.label(), "MQB");
        assert!(
            rows[10].stats.selection.candidates_evaluated > 0,
            "MQB np evaluated no candidates"
        );
        for r in rows {
            assert_eq!(r.stats.epochs_skipped, 0, "{}", r.algo.label());
        }
    }
}
