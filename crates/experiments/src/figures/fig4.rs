//! Figure 4 — algorithm performance on the six workload panels.
//!
//! Six bars (KGreedy, LSpan, DType, MaxDP, ShiftBT, MQB) per panel:
//! (a) Small Random EP, (b) Medium Random Tree, (c) Medium Random IR,
//! (d) Small Layered EP, (e) Medium Layered Tree, (f) Medium Layered IR.
//! `K = 4`, non-preemptive, average completion-time ratio against the
//! lower bound `L(J)`.
//!
//! Expected shape (paper §V-C): the random panels sit near 1 for every
//! algorithm; on the layered panels offline information helps and MQB
//! cuts KGreedy's ratio by ≥ 40%.

use fhs_core::ALL_ALGORITHMS;
use fhs_workloads::Typing;

use crate::args::CommonArgs;
use crate::figures::{algorithm_cells, paper_panels, Figure, DEFAULT_K};

/// The six panels (a)–(f) in the paper's order × the six algorithms.
/// Each panel's six bars share one instance stream (instance-major
/// sweep), so every instance is sampled and analyzed once instead of six
/// times.
pub fn figure() -> Figure {
    let [a, b, c] = paper_panels(Typing::Random, DEFAULT_K);
    let [d, e, f] = paper_panels(Typing::Layered, DEFAULT_K);
    Figure {
        stem: "fig4",
        caption:
            "Figure 4 — algorithm performance (avg completion-time ratio, non-preemptive, K=4)",
        default_instances: 500,
        panels: vec![a, b, c, d, e, f],
        cells: algorithm_cells(ALL_ALGORITHMS),
    }
}

/// Computes, renders, and (optionally) writes `fig4.csv`.
pub fn report(args: &CommonArgs) -> String {
    figure().report(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Panel;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 25,
            seed: 7,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    fn panels(args: &CommonArgs) -> Vec<Panel> {
        let panels = figure().bar_panels(args);
        panels.into_iter().map(|(p, _)| p).collect()
    }

    #[test]
    fn panels_follow_the_papers_captions() {
        let labels: Vec<String> = figure().panels.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "Small Random EP",
                "Medium Random Tree",
                "Medium Random IR",
                "Small Layered EP",
                "Medium Layered Tree",
                "Medium Layered IR"
            ]
        );
    }

    #[test]
    fn compute_produces_six_by_six() {
        let panels = panels(&tiny_args());
        assert_eq!(panels.len(), 6);
        for p in &panels {
            assert_eq!(p.rows.len(), 6);
            for (label, s) in &p.rows {
                assert!(s.mean >= 1.0, "{}/{label}: mean {}", p.title, s.mean);
                assert!(
                    s.max < 10.0,
                    "{}/{label}: implausible max {}",
                    p.title,
                    s.max
                );
            }
        }
    }

    #[test]
    fn layered_panels_show_the_mqb_win() {
        // The headline claim at small scale: on layered workloads MQB's
        // average ratio is well below KGreedy's. 25 instances is enough
        // for the direction (not the exact 40%).
        let panels = panels(&tiny_args());
        for panel in &panels[3..6] {
            let kgreedy = panel.rows[0].1.mean;
            let mqb = panel.rows[5].1.mean;
            assert!(
                mqb < kgreedy,
                "{}: MQB {} !< KGreedy {}",
                panel.title,
                mqb,
                kgreedy
            );
        }
    }

    #[test]
    fn report_renders_all_panels() {
        let text = report(&tiny_args());
        for spec in figure().panels {
            assert!(text.contains(&spec.label()));
        }
        assert!(!text.contains("imbalance"), "no appendix without flags");
    }

    #[test]
    fn observability_flags_append_the_per_cell_sections() {
        let args = CommonArgs {
            instrument: true,
            utilization: true,
            ..tiny_args()
        };
        let text = report(&args);
        assert!(text.contains("assign µs"), "--instrument latency lines");
        assert!(text.contains("imbalance"), "--utilization aggregate lines");
        let cols = &figure().columns(&args)[0];
        let obs = cols[0].obs.as_ref().expect("payload recorded");
        assert_eq!(obs.util.runs, args.instances as u64);
    }
}
