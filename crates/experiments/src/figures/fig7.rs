//! Figure 7 — non-preemptive vs preemptive scheduling (paper §V-F).
//!
//! Paired bars per algorithm on (a) Small Layered EP, (b) Medium Layered
//! Tree, (c) Medium Layered IR. Expected shape: preemption helps a little
//! (earlier chances to fix bad placements) but does not close the gap
//! between online KGreedy and the offline algorithms.

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_workloads::Typing;

use crate::args::CommonArgs;
use crate::figures::{self, mode_cells, obs_section, paper_panels, Figure, DEFAULT_K};
use crate::runner::SweepCellResult;
use crate::stats::Summary;
use crate::table::Table;

/// The three layered panels, each one instance-major sweep over twelve
/// (algorithm, mode) columns, so both modes compare on literally the same
/// sampled instances and each instance's analysis artifacts are shared
/// across all columns.
pub fn figure() -> Figure {
    Figure {
        stem: "fig7",
        caption: "Figure 7 — non-preemptive vs preemptive (avg completion-time ratio, K=4)",
        default_instances: 200,
        panels: paper_panels(Typing::Layered, DEFAULT_K).to_vec(),
        cells: mode_cells(),
    }
}

/// One algorithm's `(algorithm, non-preemptive, preemptive)` summaries.
pub type ModeRow = (Algorithm, Summary, Summary);

/// A panel's rows from its [`mode_cells`] columns.
pub fn mode_rows(cols: &[SweepCellResult]) -> Vec<ModeRow> {
    ALL_ALGORITHMS
        .into_iter()
        .zip(cols.chunks(2))
        .map(|(algo, pair)| (algo, pair[0].summary(), pair[1].summary()))
        .collect()
}

/// Computes, renders, and (optionally) writes `fig7.csv`.
pub fn report(args: &CommonArgs) -> String {
    let fig = figure();
    let csv = Table::new(vec![
        "panel",
        "algorithm",
        "nonpreemptive_mean",
        "preemptive_mean",
        "nonpreemptive_ci95",
        "preemptive_ci95",
        "n",
    ]);
    let panels = fig.panels.iter().zip(fig.columns(args));
    figures::report(
        args,
        fig.stem,
        fig.caption,
        csv,
        panels,
        |(spec, cols), csv| {
            let title = spec.label();
            let mut t = Table::new(vec!["algorithm", "non-preemptive", "preemptive", "delta"]);
            for (algo, np, pe) in mode_rows(&cols) {
                t.push_row(vec![
                    algo.label().to_string(),
                    format!("{:.3}", np.mean),
                    format!("{:.3}", pe.mean),
                    format!("{:+.3}", pe.mean - np.mean),
                ]);
                csv.push_row(vec![
                    title.clone(),
                    algo.label().to_string(),
                    format!("{}", np.mean),
                    format!("{}", pe.mean),
                    format!("{}", np.ci95),
                    format!("{}", pe.ci95),
                    np.n.to_string(),
                ]);
            }
            let obs = obs_section(args, fig.labels().zip(&cols));
            format!("== {title} ==\n{}{obs}\n", t.render())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 15,
            seed: 17,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    fn panels(args: &CommonArgs) -> Vec<(String, Vec<ModeRow>)> {
        let fig = figure();
        let titles = fig.panels.iter().map(|s| s.label());
        titles
            .zip(fig.columns(args).iter().map(|c| mode_rows(c)))
            .collect()
    }

    #[test]
    fn three_panels_six_algorithms_two_modes() {
        let panels = panels(&tiny_args());
        assert_eq!(panels.len(), 3);
        for p in &panels {
            assert_eq!(p.1.len(), 6);
            for (algo, np, pe) in &p.1 {
                assert!(np.mean >= 1.0 && pe.mean >= 1.0, "{}", algo.label());
            }
        }
    }

    #[test]
    fn preemptive_kgreedy_still_trails_offline_mqb() {
        // The paper's point: preemption does not rescue online scheduling.
        let panels = panels(&tiny_args());
        for p in &panels {
            let kgreedy_pre = p.1[0].2.mean;
            let mqb_np = p.1[5].1.mean;
            assert!(
                kgreedy_pre > mqb_np,
                "{}: preemptive KGreedy {} !> MQB {}",
                p.0,
                kgreedy_pre,
                mqb_np
            );
        }
    }

    #[test]
    fn report_shows_both_modes() {
        let text = report(&tiny_args());
        assert!(text.contains("non-preemptive"));
        assert!(text.contains("preemptive"));
        assert!(text.contains("delta"));
    }
}
