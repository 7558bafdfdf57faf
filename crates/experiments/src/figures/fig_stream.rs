//! Streaming figure — all six policies under continuous load.
//!
//! The paper evaluates one job at a time on an empty machine; this figure
//! asks the deployment question instead: when seeded K-DAG jobs *keep
//! arriving* (Poisson stream over the session engine), how do the six
//! algorithms compare on per-job **response time**, **slowdown** (response
//! over the job's isolated lower bound), **queueing delay**, and sustained
//! **throughput** — and how much does the *inter-job* discipline matter?
//!
//! One panel per inter-job policy (FIFO admission order, fair-share by
//! attained service, utilization-aware by ready-queue fill), twelve rows
//! each (six algorithms × non-preemptive / preemptive `q=1`). All cells of
//! a panel replay the *same* seeded arrival plan and job set, so the
//! differences are purely the policies'. The bar chart shows mean slowdown
//! per algorithm (non-preemptive rows; lower is better) — the streaming
//! analogue of the paper's completion-time-ratio bars.

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_sim::{InterJobPolicy, Mode, ALL_INTER_JOB_POLICIES};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

use crate::args::CommonArgs;
use crate::chart;
use crate::figures;
use crate::runner::pool_map;
use crate::stream::{run_stream, Arrivals, StreamCell, StreamConfig, StreamResult};
use crate::table::Table;

/// Default jobs per stream for the binary (`--instances` is the job
/// count here: one stream per cell, `N` jobs each).
pub const DEFAULT_INSTANCES: usize = 48;

/// Mean inter-arrival gap of the Poisson stream. The Small-system
/// session saturates near one retirement per ~30 time units, so 40 puts
/// the offered load around 0.75 — continuously busy with real queueing,
/// but stable, so per-job response compares policies rather than the
/// depth of an unbounded backlog.
pub const MEAN_GAP: f64 = 40.0;

/// The streamed workload: the Small layered IR family (the most
/// dependency-constrained of the paper's generators).
pub fn stream_spec() -> WorkloadSpec {
    WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4)
}

/// One `(algorithm, cadence)` row of an inter-job panel.
#[derive(Clone, Debug)]
pub struct StreamRow {
    /// The intra-job policy.
    pub algo: Algorithm,
    /// `"np"` or `"pre(q=1)"`.
    pub mode: &'static str,
    /// The streamed session's outcome.
    pub result: StreamResult,
}

impl StreamRow {
    /// Mean queueing delay (arrival → first task start) over the jobs.
    pub fn mean_queueing(&self) -> f64 {
        if self.result.jobs.is_empty() {
            return 0.0;
        }
        let total: u64 = self.result.jobs.iter().map(|j| j.queueing()).sum();
        total as f64 / self.result.jobs.len() as f64
    }
}

/// One panel: an inter-job policy with its twelve rows.
#[derive(Clone, Debug)]
pub struct StreamPanel {
    /// The inter-job discipline all rows share.
    pub inter: InterJobPolicy,
    /// Rows in `(algorithm, np), (algorithm, pre)` order.
    pub rows: Vec<StreamRow>,
}

/// Computes the three panels (one per inter-job policy); `--instances`
/// is the number of jobs streamed through each cell's session. Every
/// cell is an independent stream, so the cells fan out over the pool
/// (`--workers`), and the rows come back in panel order whatever the
/// worker count.
pub fn compute(args: &CommonArgs) -> Vec<StreamPanel> {
    let config = StreamConfig {
        spec: stream_spec(),
        jobs: args.instances,
        arrivals: Arrivals::Poisson { mean_gap: MEAN_GAP },
        seed: args.seed,
    };
    let cells: Vec<(StreamCell, &'static str)> = ALL_INTER_JOB_POLICIES
        .into_iter()
        .flat_map(|inter| {
            ALL_ALGORITHMS.into_iter().flat_map(move |algo| {
                [
                    ("np", Mode::NonPreemptive, None),
                    ("pre(q=1)", Mode::Preemptive, Some(1)),
                ]
                .map(|(label, mode, quantum)| {
                    let cell = StreamCell {
                        algo,
                        mode,
                        quantum,
                        inter,
                    };
                    (cell, label)
                })
            })
        })
        .collect();
    let per_panel = cells.len() / ALL_INTER_JOB_POLICIES.len();
    let mut rows = pool_map(args.workers, cells, move |(cell, label)| StreamRow {
        algo: cell.algo,
        mode: label,
        result: run_stream(&config, &cell),
    })
    .into_iter();
    ALL_INTER_JOB_POLICIES
        .into_iter()
        .map(|inter| StreamPanel {
            inter,
            rows: rows.by_ref().take(per_panel).collect(),
        })
        .collect()
}

/// Computes, renders, and (optionally) writes `fig_stream.csv`.
pub fn report(args: &CommonArgs) -> String {
    render(args, &compute(args))
}

/// Renders already-computed panels (and optionally writes the CSV) —
/// shared by [`report`] and the binary's one-pass path.
pub fn render(args: &CommonArgs, panels: &[StreamPanel]) -> String {
    let caption = format!(
        "Streaming comparison — six policies under a Poisson job stream \
         ({}, mean gap {MEAN_GAP}, {} jobs per cell, seed {})",
        stream_spec().label(),
        args.instances,
        args.seed
    );
    let csv = Table::new(vec![
        "inter",
        "algorithm",
        "mode",
        "mean_response",
        "p95_response",
        "mean_slowdown",
        "max_slowdown",
        "mean_queueing",
        "jobs_per_kilotime",
        "jobs",
    ]);
    figures::report(args, "fig_stream", &caption, csv, panels, |p, csv| {
        let mut t = Table::new(vec![
            "algorithm",
            "mode",
            "mean resp",
            "p95 resp",
            "mean slow",
            "max slow",
            "mean queue",
            "jobs/ktime",
        ]);
        for r in &p.rows {
            let resp = r.result.response_summary();
            let slow = r.result.slowdown_summary();
            t.push_row(vec![
                r.algo.label().to_string(),
                r.mode.to_string(),
                format!("{:.1}", resp.mean),
                format!("{:.0}", resp.p95),
                format!("{:.3}", slow.mean),
                format!("{:.3}", slow.max),
                format!("{:.1}", r.mean_queueing()),
                format!("{:.2}", r.result.throughput()),
            ]);
            csv.push_row(vec![
                p.inter.label().to_string(),
                r.algo.label().to_string(),
                r.mode.to_string(),
                format!("{}", resp.mean),
                format!("{}", resp.p95),
                format!("{}", slow.mean),
                format!("{}", slow.max),
                format!("{}", r.mean_queueing()),
                format!("{}", r.result.throughput()),
                r.result.jobs.len().to_string(),
            ]);
        }
        let bars: Vec<(String, f64)> = p
            .rows
            .iter()
            .filter(|r| r.mode == "np")
            .map(|r| (r.algo.label().to_string(), r.result.slowdown_summary().mean))
            .collect();
        format!(
            "== inter-job: {} ==\n{}\nmean slowdown (np, lower is better):\n{}\n",
            p.inter.label(),
            t.render(),
            chart::bar_chart(&bars, 48)
        )
    })
}

/// The figure's cells as metrics-JSONL stream lines (the `--metrics-out`
/// payload of the `fig_stream` binary).
pub fn metrics_jsonl(args: &CommonArgs, panels: &[StreamPanel]) -> String {
    let workload = stream_spec().label();
    let mut out = String::new();
    for p in panels {
        for r in &p.rows {
            out.push_str(&crate::obsout::stream_line(
                r.algo.label(),
                p.inter.label(),
                &workload,
                r.mode,
                r.result.jobs.len(),
                args.seed,
                r.result.makespan,
                &r.result.stream,
            ));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_obs::json::parse;

    fn tiny_args() -> CommonArgs {
        CommonArgs {
            instances: 8,
            seed: 29,
            csv_dir: None,
            workers: None,
            ..CommonArgs::default()
        }
    }

    #[test]
    fn three_panels_of_twelve_rows_all_jobs_retired() {
        let panels = compute(&tiny_args());
        assert_eq!(panels.len(), 3);
        for p in &panels {
            assert_eq!(p.rows.len(), 12);
            for r in &p.rows {
                assert_eq!(
                    r.result.jobs.len(),
                    8,
                    "{:?}/{}/{}",
                    p.inter,
                    r.algo.label(),
                    r.mode
                );
                assert!(r.result.throughput() > 0.0);
                assert!(r.result.slowdown_summary().min >= 1.0);
            }
        }
    }

    #[test]
    fn panels_share_the_job_set_so_work_totals_agree() {
        // Every cell streams the same seeded arrival plan, so total work
        // must agree across all 36 cells — the panel comparison is pure
        // policy, not sampling noise.
        let panels = compute(&tiny_args());
        let want = panels[0].rows[0].result.stream.work;
        assert!(want > 0);
        for p in &panels {
            for r in &p.rows {
                assert_eq!(r.result.stream.work, want, "{}", r.algo.label());
            }
        }
    }

    #[test]
    fn report_renders_tables_charts_and_inter_captions() {
        let text = report(&tiny_args());
        assert!(text.contains("Streaming comparison"));
        assert!(text.contains("== inter-job: fifo =="));
        assert!(text.contains("== inter-job: fair =="));
        assert!(text.contains("== inter-job: util =="));
        assert!(text.contains("pre(q=1)"));
        assert!(text.contains('#'), "bar chart rendered");
    }

    #[test]
    fn metrics_jsonl_has_one_parseable_line_per_cell() {
        let args = tiny_args();
        let panels = compute(&args);
        let body = metrics_jsonl(&args, &panels);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 36);
        for line in lines {
            let v = parse(line).expect("stream line parses");
            assert_eq!(v.get("kind").and_then(|x| x.as_str()), Some("stream"));
            assert_eq!(v.get("completed").and_then(|x| x.as_u64()), Some(8));
        }
    }
}
