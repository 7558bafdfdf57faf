//! One module per figure of the paper's evaluation (§V), over one figure
//! driver. A sweep figure is data — a [`Figure`]: CSV stem, caption,
//! default instance count, panel workloads and labeled sweep cells. The
//! driver runs each panel's sweep ([`Figure::columns`]), builds the bar
//! panels, renders them with the per-cell observability section, and
//! writes the CSV ([`report`]). Figures with their own table shape
//! (Figure 5's K axis, Figure 7's mode pairs, the utilization figure)
//! take their columns from the driver and render only their own rows.

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig_stream;
pub mod fig_util;
pub mod flex_binding;
pub mod lower_bound;

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_obs::ObsConfig;
use fhs_sim::Mode;
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

use crate::args::CommonArgs;
use crate::chart;
use crate::obsout;
use crate::runner::{run_sweep_observed, SweepCell, SweepCellResult};
use crate::stats::Summary;
use crate::table::Table;

/// One panel of a bar-chart figure: a workload with one summary per
/// algorithm (bar).
#[derive(Clone, Debug)]
pub struct Panel {
    /// The paper's panel caption, e.g. `"Medium Layered IR"`.
    pub title: String,
    /// `(algorithm label, ratio summary)` in plotting order.
    pub rows: Vec<(String, Summary)>,
}

impl Panel {
    /// Renders the panel as a stats table followed by an ASCII bar chart
    /// of the mean ratios (the paper's bar height).
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["algorithm", "avg ratio", "ci95", "p95", "max", "n"]);
        for (label, s) in &self.rows {
            t.push_row(vec![
                label.clone(),
                format!("{:.3}", s.mean),
                format!("±{:.3}", s.ci95),
                format!("{:.3}", s.p95),
                format!("{:.3}", s.max),
                s.n.to_string(),
            ]);
        }
        let bars: Vec<(String, f64)> = self.rows.iter().map(|(l, s)| (l.clone(), s.mean)).collect();
        format!(
            "== {} ==\n{}\n{}",
            self.title,
            t.render(),
            chart::bar_chart(&bars, 48)
        )
    }

    /// The panel as CSV rows
    /// (`panel,algorithm,mean,ci95,min,p50,p95,max,std,n`).
    pub fn csv_rows(&self, out: &mut Table) {
        for (label, s) in &self.rows {
            out.push_row(vec![
                self.title.clone(),
                label.clone(),
                format!("{}", s.mean),
                format!("{}", s.ci95),
                format!("{}", s.min),
                format!("{}", s.p50),
                format!("{}", s.p95),
                format!("{}", s.max),
                format!("{}", s.std),
                s.n.to_string(),
            ]);
        }
    }
}

/// A sweep figure as data: every panel runs the same labeled cells over
/// its own workload.
#[derive(Debug)]
pub struct Figure {
    /// CSV file stem: the figure writes `<csv-dir>/<stem>.csv`.
    pub stem: &'static str,
    /// The report's first line.
    pub caption: &'static str,
    /// The binary's `--instances` default (the paper uses 5000).
    pub default_instances: usize,
    /// The panels' workloads, in plotting order.
    pub panels: Vec<WorkloadSpec>,
    /// `(label, cell)` columns swept on every panel, in plotting order.
    pub cells: Vec<(String, SweepCell)>,
}

impl Figure {
    /// Runs every panel as one instance-major sweep over all cells, so a
    /// panel's columns share one sampled instance stream and each
    /// instance's analysis artifacts. Returns one column per cell per
    /// panel, carrying the observability payloads `--instrument` /
    /// `--utilization` asked for.
    pub fn columns(&self, args: &CommonArgs) -> Vec<Vec<SweepCellResult>> {
        self.panels
            .iter()
            .map(|spec| self.sweep(args, spec))
            .collect()
    }

    /// One instance-major sweep of every cell over `spec`: one column per
    /// cell.
    pub fn sweep(&self, args: &CommonArgs, spec: &WorkloadSpec) -> Vec<SweepCellResult> {
        let cells: Vec<SweepCell> = self.cells.iter().map(|&(_, cell)| cell).collect();
        run_sweep_observed(
            spec,
            &cells,
            args.instances,
            args.seed,
            args.workers,
            obs_config(args),
        )
    }

    /// The cell labels, in plotting order.
    pub fn labels(&self) -> impl Iterator<Item = String> + '_ {
        self.cells.iter().map(|(label, _)| label.clone())
    }

    /// The bar panels — one bar per labeled cell — each with the raw
    /// sweep columns behind it.
    pub fn bar_panels(&self, args: &CommonArgs) -> Vec<(Panel, Vec<SweepCellResult>)> {
        self.panels
            .iter()
            .zip(self.columns(args))
            .map(|(spec, cols)| {
                let rows = self
                    .labels()
                    .zip(&cols)
                    .map(|(l, c)| (l, c.summary()))
                    .collect();
                let panel = Panel {
                    title: spec.label(),
                    rows,
                };
                (panel, cols)
            })
            .collect()
    }

    /// The bar-chart report: per panel its table and chart, then the
    /// per-cell observability section; writes `<stem>.csv`.
    pub fn report(&self, args: &CommonArgs) -> String {
        report(
            args,
            self.stem,
            self.caption,
            panel_csv_table(),
            self.bar_panels(args),
            |(panel, cols), csv| {
                panel.csv_rows(csv);
                let obs = obs_section(args, self.labels().zip(&cols));
                format!("{}{obs}\n", panel.render())
            },
        )
    }
}

/// The driver's report: `caption`, a blank line, then each panel as
/// `render` draws it while appending the panel's rows to `csv`. Writes
/// `csv` as `<csv-dir>/<stem>.csv` through [`finish`].
pub fn report<T>(
    args: &CommonArgs,
    stem: &str,
    caption: &str,
    mut csv: Table,
    panels: impl IntoIterator<Item = T>,
    mut render: impl FnMut(T, &mut Table) -> String,
) -> String {
    let mut out = format!("{caption}\n\n");
    for panel in panels {
        out.push_str(&render(panel, &mut csv));
    }
    finish(args, stem, out, &csv)
}

/// Writes `csv` as `<csv-dir>/<stem>.csv` when a CSV directory was
/// requested, and returns the report text `out` — with a closing note
/// when the write failed.
pub fn finish(args: &CommonArgs, stem: &str, mut out: String, csv: &Table) -> String {
    if let Err(e) = args.write_csv(stem, &csv.to_csv()) {
        out.push_str(&format!("(csv write failed: {e})\n"));
    }
    out
}

/// A figure's entry point: computes, renders, and (optionally) writes the
/// figure's CSV.
pub type Report = fn(&CommonArgs) -> String;

/// A figure binary's whole `main`: parses the process arguments with the
/// figure's `--instances` default and prints its report.
pub fn run(default_instances: usize, report: Report) {
    print!("{}", report(&CommonArgs::from_env(default_instances)));
}

/// Number of resource types in Figures 4 and 6–8 (paper default).
pub const DEFAULT_K: usize = 4;

/// The paper's three workload shapes at `K` types with `typing`:
/// Small EP, Medium Tree, Medium IR.
pub fn paper_panels(typing: Typing, k: usize) -> [WorkloadSpec; 3] {
    [
        WorkloadSpec::new(Family::Ep, typing, SystemSize::Small, k),
        WorkloadSpec::new(Family::Tree, typing, SystemSize::Medium, k),
        WorkloadSpec::new(Family::Ir, typing, SystemSize::Medium, k),
    ]
}

/// One non-preemptive cell per algorithm, labeled by the algorithm.
pub fn algorithm_cells(algos: impl IntoIterator<Item = Algorithm>) -> Vec<(String, SweepCell)> {
    algos
        .into_iter()
        .map(|algo| {
            let cell = SweepCell::new(algo, Mode::NonPreemptive);
            (algo.label().to_string(), cell)
        })
        .collect()
}

/// Per algorithm, a non-preemptive cell (`"<algo> np"`) followed by the
/// paper's literal per-quantum preemptive cell (`"<algo> pre(q=1)"`).
pub fn mode_cells() -> Vec<(String, SweepCell)> {
    ALL_ALGORITHMS
        .into_iter()
        .flat_map(|algo| {
            let pre = SweepCell {
                algo,
                mode: Mode::Preemptive,
                quantum: Some(1),
            };
            [
                (
                    format!("{} np", algo.label()),
                    SweepCell::new(algo, Mode::NonPreemptive),
                ),
                (format!("{} pre(q=1)", algo.label()), pre),
            ]
        })
        .collect()
}

/// The engine recording channels implied by a figure binary's
/// `--instrument` / `--utilization` flags. Event tracing stays off here —
/// structured traces are the `sweep` binary's job (`--trace-out`).
pub fn obs_config(args: &CommonArgs) -> ObsConfig {
    ObsConfig {
        utilization: args.utilization,
        latency: args.instrument,
        events: false,
        event_cap: 0,
    }
}

/// Renders the observability appendix of one panel: per labeled cell, an
/// `--instrument` counters + latency-percentile block and/or a
/// `--utilization` aggregate line. Empty when both flags are off.
pub fn obs_section<'a>(
    args: &CommonArgs,
    rows: impl IntoIterator<Item = (String, &'a SweepCellResult)>,
) -> String {
    if !args.instrument && !args.utilization {
        return String::new();
    }
    let mut out = String::new();
    for (label, col) in rows {
        if args.instrument {
            out.push_str(&format!("  {label:<18} {}\n", col.stats));
            if let Some(o) = &col.obs {
                out.push_str(&format!("  {:<18} {}\n", "", obsout::latency_summary(o)));
            }
        }
        if args.utilization {
            if let Some(o) = &col.obs {
                out.push_str(&format!(
                    "  {label:<18} {}\n",
                    obsout::utilization_summary(o)
                ));
            }
        }
    }
    out
}

/// The shared CSV header matching [`Panel::csv_rows`].
pub fn panel_csv_table() -> Table {
    Table::new(vec![
        "panel",
        "algorithm",
        "mean",
        "ci95",
        "min",
        "p50",
        "p95",
        "max",
        "std",
        "n",
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel() -> Panel {
        Panel {
            title: "Demo".into(),
            rows: vec![
                ("KGreedy".into(), Summary::from_samples(&[3.0, 3.2])),
                ("MQB".into(), Summary::from_samples(&[1.1, 1.2])),
            ],
        }
    }

    #[test]
    fn render_contains_title_rows_and_bars() {
        let text = panel().render();
        assert!(text.contains("== Demo =="));
        assert!(text.contains("KGreedy"));
        assert!(text.contains('#'));
    }

    #[test]
    fn csv_accumulates_rows() {
        let mut t = panel_csv_table();
        panel().csv_rows(&mut t);
        assert_eq!(t.to_csv().lines().count(), 3, "header plus two rows");
        assert!(t.to_csv().starts_with("panel,algorithm,mean"));
    }
}

#[cfg(test)]
mod csv_dir_tests {
    use crate::args::CommonArgs;

    /// `report()` writes the figure CSV when a directory is configured,
    /// and the file parses back with the documented header.
    #[test]
    fn fig4_report_writes_csv_files() {
        let dir = std::env::temp_dir().join(format!("fhs-figcsv-{}", std::process::id()));
        let args = CommonArgs {
            instances: 5,
            seed: 3,
            csv_dir: Some(dir.clone()),
            workers: Some(1),
            ..CommonArgs::default()
        };
        let _ = super::fig4::report(&args);
        let csv = std::fs::read_to_string(dir.join("fig4.csv")).expect("csv written");
        assert!(csv.starts_with("panel,algorithm,mean,ci95,min,p50,p95,max,std,n"));
        // 6 panels × 6 algorithms + header
        assert_eq!(csv.lines().count(), 37);
        std::fs::remove_dir_all(dir).ok();
    }
}
