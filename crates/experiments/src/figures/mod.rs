//! One module per figure of the paper's evaluation (§V).

pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig_stream;
pub mod fig_util;
pub mod flex_binding;
pub mod lower_bound;

use crate::args::CommonArgs;
use crate::chart;
use crate::obsout;
use crate::runner::SweepCellResult;
use crate::stats::Summary;
use crate::table::Table;
use fhs_obs::ObsConfig;

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
