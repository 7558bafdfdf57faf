//! The untraced passes: each workload through the public entry points a
//! user runs (`run_sweep`, `run_sweep_observed`, `run_stream`), plus the
//! export a figure run performs.

use std::path::Path;
use std::sync::Arc;

use fhs_experiments::obsout;
use fhs_experiments::runner::{run_sweep, run_sweep_observed, SweepCellResult};
use fhs_experiments::stream::{run_stream, StreamResult};
use fhs_obs::{chrome_trace_json, TraceCell};
use fhs_sim::Mode;

use crate::workload::{Pass, SweepJob};

/// What one pass produced.
#[derive(Clone, Debug)]
pub enum PassOut {
    /// Per sweep of the pass, its columns.
    Sweeps(Vec<Vec<SweepCellResult>>),
    /// Per stream cell, its result.
    Stream(Vec<StreamResult>),
}

/// Runs `pass` through the public entry points on up to `workers` pool
/// workers, writing any exports under `dir`. `between` runs between
/// consecutive sweeps of the pass (the caller's own measurements).
pub fn run(pass: &Pass, workers: usize, dir: &Path, between: &mut dyn FnMut()) -> PassOut {
    match pass {
        Pass::Sweeps(jobs) => PassOut::Sweeps(
            jobs.iter()
                .enumerate()
                .map(|(index, (job, seed))| {
                    if index > 0 {
                        between();
                    }
                    let cols = if job.observe.any() {
                        run_sweep_observed(
                            &job.spec,
                            &job.cells,
                            job.instances,
                            *seed,
                            Some(workers),
                            job.observe,
                        )
                    } else {
                        run_sweep(&job.spec, &job.cells, job.instances, *seed, Some(workers))
                    };
                    if job.export {
                        export(job, *seed, &cols, dir, index);
                    }
                    cols
                })
                .collect(),
        ),
        Pass::Stream(config, cells) => {
            let config = Arc::new(config.clone());
            PassOut::Stream(
                fhs_par::pool().map_with(workers, cells.clone(), move |cell| {
                    run_stream(&config, &cell)
                }),
            )
        }
    }
}

/// Exports one recorded sweep the way `sweep --metrics-out --trace-out`
/// does: a metrics-JSONL line per column and the columns' instance-0
/// traces as one Chrome-trace document. Returns the bytes written.
pub fn export(
    job: &SweepJob,
    seed: u64,
    cols: &[SweepCellResult],
    dir: &Path,
    index: usize,
) -> u64 {
    let workload = job.spec.label();
    let mut lines = String::new();
    let mut traces = Vec::new();
    for (i, (cell, col)) in job.cells.iter().zip(cols).enumerate() {
        let mode = match cell.mode {
            Mode::NonPreemptive => "np",
            Mode::Preemptive => "pre",
        };
        lines.push_str(&obsout::metrics_line(
            cell.algo.label(),
            &workload,
            mode,
            col.ratios.len(),
            seed,
            &col.summary(),
            &col.stats,
            col.obs.as_ref(),
        ));
        lines.push('\n');
        if let Some(trace) = col.obs.as_ref().and_then(|o| o.trace.as_ref()) {
            traces.push(TraceCell {
                pid: i as u32 + 1,
                name: format!("{} {mode}", cell.algo.label()),
                ..trace.clone()
            });
        }
    }
    let trace = chrome_trace_json(&traces);
    std::fs::write(dir.join(format!("metrics-{index}.jsonl")), &lines)
        .expect("write the metrics export");
    std::fs::write(dir.join(format!("trace-{index}.json")), &trace)
        .expect("write the trace export");
    (lines.len() + trace.len()) as u64
}
