//! Figure 6 — skewed load (paper §V-E).
//!
//! The same jobs as Figure 4's (e) and (f) panels, but type 1's machine
//! pool shrunk to 1/5: with one type the clear bottleneck the scheduling
//! choice matters less, so the algorithms bunch together and KGreedy runs
//! close to optimal.

use fhs_core::ALL_ALGORITHMS;
use fhs_workloads::Typing;

use crate::args::CommonArgs;
use crate::figures::{algorithm_cells, paper_panels, Figure, DEFAULT_K};

/// The two skewed panels (Medium Layered Tree / IR) × the six
/// algorithms, instance-major: each instance is sampled and analyzed
/// once, shared by all six bars.
pub fn figure() -> Figure {
    let [_, tree, ir] = paper_panels(Typing::Layered, DEFAULT_K);
    Figure {
        stem: "fig6",
        caption:
            "Figure 6 — skewed load: type 1's pool shrunk to 1/5 (avg ratio, non-preemptive, K=4)",
        default_instances: 500,
        panels: vec![tree.skewed(), ir.skewed()],
        cells: algorithm_cells(ALL_ALGORITHMS),
    }
}

/// Computes, renders, and (optionally) writes `fig6.csv`.
pub fn report(args: &CommonArgs) -> String {
    figure().report(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig4, Panel};

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 20,
            seed: 7,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    fn panels(fig: Figure, args: &CommonArgs) -> Vec<Panel> {
        let panels = fig.bar_panels(args);
        panels.into_iter().map(|(p, _)| p).collect()
    }

    #[test]
    fn two_skewed_panels() {
        let panels = panels(figure(), &tiny_args());
        assert_eq!(panels.len(), 2);
        assert!(panels[0].title.contains("skewed"));
        for p in &panels {
            assert_eq!(p.rows.len(), 6);
        }
    }

    #[test]
    fn skew_moves_every_algorithm_toward_optimal() {
        // Under skew one type dominates the lower bound, so the measured
        // ratios drop toward 1 for every algorithm (the paper: "KGreedy
        // performs closer to optimal"). Spread compression itself is
        // asserted on the IR panel, where it is robust at small n; the
        // tree panel's spreads are within noise of each other at this
        // sample size.
        let args = tiny_args();
        let skewed = panels(figure(), &args);
        let unskewed = panels(fig4::figure(), &args);
        for (sk, un) in skewed.iter().zip(&unskewed[4..6]) {
            for ((label, s), (_, u)) in sk.rows.iter().zip(&un.rows) {
                assert!(
                    s.mean < u.mean + 0.05,
                    "{}/{label}: skewed {} not ≤ unskewed {}",
                    sk.title,
                    s.mean,
                    u.mean
                );
            }
        }
        let spread = |p: &Panel| {
            let means: Vec<f64> = p.rows.iter().map(|(_, s)| s.mean).collect();
            means.iter().cloned().fold(f64::MIN, f64::max)
                - means.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            spread(&skewed[1]) < spread(&unskewed[5]),
            "IR: spread {} !< {}",
            spread(&skewed[1]),
            spread(&unskewed[5])
        );
    }

    #[test]
    fn kgreedy_is_near_optimal_under_skew() {
        let panels = panels(figure(), &tiny_args());
        for p in &panels {
            let kgreedy = p.rows[0].1.mean;
            assert!(kgreedy < 1.6, "{}: KGreedy {}", p.title, kgreedy);
        }
    }
}
