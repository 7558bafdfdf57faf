//! Figure 8 — MQB with approximated information (paper §V-G).
//!
//! Per panel (Small Layered EP / Medium Layered Tree / Medium Layered IR):
//! KGreedy plus the six MQB information variants
//! ({All, 1Step} × {Pre, Exp, Noise}), reporting **average and maximum**
//! completion-time ratio as in the paper.
//!
//! Expected shape: MQB+1Step ≈ MQB+All on tree/IR but worse on EP (EP
//! needs deep lookahead); noisy or exponential estimates still beat
//! KGreedy by 20–30% on tree/IR.

use fhs_core::{mqb::InfoModel, Algorithm};
use fhs_workloads::Typing;

use crate::args::CommonArgs;
use crate::figures::{algorithm_cells, paper_panels, Figure, DEFAULT_K};

/// The seven bars of each panel: KGreedy then the six MQB variants.
pub fn algorithms() -> Vec<Algorithm> {
    std::iter::once(Algorithm::KGreedy)
        .chain(InfoModel::ALL_VARIANTS.into_iter().map(Algorithm::MqbWith))
        .collect()
}

/// The three layered panels × the seven bars (summaries carry both mean
/// and max). The seven bars share one instance stream per panel
/// (instance-major sweep).
pub fn figure() -> Figure {
    Figure {
        stem: "fig8",
        caption: "Figure 8 — MQB with partial/imprecise information (avg and max ratio, non-preemptive, K=4)",
        default_instances: 300,
        panels: paper_panels(Typing::Layered, DEFAULT_K).to_vec(),
        cells: algorithm_cells(algorithms()),
    }
}

/// Computes, renders, and (optionally) writes `fig8.csv`.
pub fn report(args: &CommonArgs) -> String {
    figure().report(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Panel;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 20,
            seed: 29,
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
    fn seven_bars_per_panel_in_paper_order() {
        let algos = algorithms();
        assert_eq!(algos.len(), 7);
        assert_eq!(algos[0].label(), "KGreedy");
        assert_eq!(algos[1].label(), "MQB+All+Pre");
        assert_eq!(algos[6].label(), "MQB+1Step+Noise");
        let panels = panels(&tiny_args());
        assert_eq!(panels.len(), 3);
        for p in &panels {
            assert_eq!(p.rows.len(), 7);
        }
    }

    #[test]
    fn precise_full_info_mqb_beats_kgreedy_on_layered_workloads() {
        let panels = panels(&tiny_args());
        for p in &panels {
            let kgreedy = p.rows[0].1.mean;
            let mqb_all_pre = p.rows[1].1.mean;
            assert!(
                mqb_all_pre < kgreedy,
                "{}: {} !< {}",
                p.title,
                mqb_all_pre,
                kgreedy
            );
        }
    }

    #[test]
    fn noisy_estimates_still_help_on_tree_and_ir() {
        let panels = panels(&tiny_args());
        for p in &panels[1..] {
            let kgreedy = p.rows[0].1.mean;
            for row in &p.rows[1..] {
                assert!(
                    row.1.mean < kgreedy,
                    "{}/{}: {} !< KGreedy {}",
                    p.title,
                    row.0,
                    row.1.mean,
                    kgreedy
                );
            }
        }
    }
}
