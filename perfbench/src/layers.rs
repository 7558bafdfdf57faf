//! Per-layer metrics of the traced run.
//!
//! Busy times are summed span self times; counters come from the
//! program's own `RunStats` / `SelectionStats` and from the counts the
//! replay records at layer boundaries. Every value is a mean per traced
//! pass, so values do not depend on how many passes a run fits in.

use std::collections::HashMap;

use fhs_core::ALL_ALGORITHMS;
use fhs_sim::RunStats;

use crate::entry::PassOut;
use crate::traced::{Counts, Traced};
use crate::tracer::{self_costs, SelfCost};
use crate::workload::{algo_index, Pass};
use crate::Metric;

/// Engine counters of a set of runs, split the ways the metrics need.
#[derive(Clone, Debug, Default)]
struct StatsSplit {
    /// Per algorithm, in [`ALL_ALGORITHMS`] order.
    by_algo: [RunStats; 6],
    /// Runs with every recording channel off (stream sessions included).
    plain: RunStats,
    /// Runs with recording on.
    observed: RunStats,
    /// Stream sessions only.
    session: RunStats,
}

impl StatsSplit {
    /// Adds the runs of one pass.
    fn add(&mut self, pass: &Pass, out: &PassOut) {
        match (pass, out) {
            (Pass::Sweeps(jobs), PassOut::Sweeps(sweeps)) => {
                for ((job, _), cols) in jobs.iter().zip(sweeps) {
                    for (cell, col) in job.cells.iter().zip(cols) {
                        self.by_algo[algo_index(cell.algo)].merge(&col.stats);
                        if job.observe.any() {
                            self.observed.merge(&col.stats);
                        } else {
                            self.plain.merge(&col.stats);
                        }
                    }
                }
            }
            (Pass::Stream(_, cells), PassOut::Stream(results)) => {
                for (cell, r) in cells.iter().zip(results) {
                    self.by_algo[algo_index(cell.algo)].merge(&r.stats);
                    self.plain.merge(&r.stats);
                    self.session.merge(&r.stats);
                }
            }
            _ => {}
        }
    }

    fn total(&self) -> RunStats {
        let mut t = RunStats::default();
        for s in &self.by_algo {
            t.merge(s);
        }
        t
    }
}

/// Accumulates traced passes into per-layer metrics.
#[derive(Default)]
pub struct Layers {
    passes: u64,
    costs: HashMap<&'static str, SelfCost>,
    counts: Counts,
    stats: StatsSplit,
    spans: u64,
    traced_ns: u64,
    overheads: Vec<f64>,
}

impl Layers {
    /// Adds one traced pass run on `workers` workers; the same pass took
    /// `untraced_ns` through the entry points. Returns whether the pass's
    /// span self times fit in its wall time × workers.
    pub fn add_pass(
        &mut self,
        pass: &Pass,
        traced: &Traced,
        workers: usize,
        untraced_ns: u64,
    ) -> bool {
        let costs = self_costs(&traced.spans);
        let covered: u64 = costs.values().map(|c| c.self_ns).sum();
        let capacity = traced.wall_ns * workers as u64;
        for (name, c) in costs {
            let e = self.costs.entry(name).or_default();
            e.calls += c.calls;
            e.total_ns += c.total_ns;
            e.self_ns += c.self_ns;
            e.self_alloc += c.self_alloc;
        }
        self.counts.add(&traced.counts);
        self.stats.add(pass, &traced.out);
        self.spans += traced.spans.len() as u64;
        self.traced_ns += traced.wall_ns;
        self.passes += 1;
        self.overheads
            .push(traced.wall_ns as f64 / untraced_ns.max(1) as f64 - 1.0);
        covered <= capacity
    }

    fn cost(&self, names: &[&str]) -> SelfCost {
        let mut out = SelfCost::default();
        for n in names {
            if let Some(c) = self.costs.get(n) {
                out.calls += c.calls;
                out.total_ns += c.total_ns;
                out.self_ns += c.self_ns;
                out.self_alloc += c.self_alloc;
            }
        }
        out
    }

    /// The per-layer metrics, per pass, for a run on `workers` workers.
    pub fn metrics(&self, workers: usize) -> Vec<Metric> {
        let n = self.passes.max(1) as f64;
        let s = |ns: u64| ns as f64 / 1e9 / n;
        let mb = |b: u64| b as f64 / (1024.0 * 1024.0) / n;
        let count = |x: u64| x as f64 / n;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let executed = |r: &RunStats| r.epochs - r.epochs_skipped;

        let workloads = self.cost(&["workloads.sample", "workloads.arrivals"]);
        let kdag = self.cost(&["kdag.artifacts"]);
        let evaluate = self.cost(&["sim.evaluate"]);
        let admit = self.cost(&["session.admit"]);
        let run = self.cost(&["session.run_until", "session.drain"]);
        let finish = self.cost(&["session.finish"]);
        let export = self.cost(&["obs.export"]);
        let map = self.cost(&["par.map"]);
        let item = self.cost(&["par.item"]);
        let fold = self.cost(&["experiments.fold"]);

        let st = &self.stats;
        let total = st.total();
        let mqb = &st.by_algo[algo_index(fhs_core::Algorithm::Mqb)].selection;
        let engine_ns = evaluate.total_ns + st.session.engine_nanos;
        let covered: u64 = self.costs.values().map(|c| c.self_ns).sum();
        let capacity = self.traced_ns * workers as u64;

        let mut m = vec![
            Metric::new("workloads.sample_s", s(workloads.self_ns), "s"),
            Metric::new("workloads.samples", count(self.counts.samples), "count"),
            Metric::new("workloads.tasks", count(self.counts.tasks), "count"),
            Metric::new("workloads.edges", count(self.counts.edges), "count"),
            Metric::new("workloads.alloc_mb", mb(workloads.self_alloc), "MB"),
            Metric::new("kdag.artifacts_s", s(kdag.self_ns), "s"),
            Metric::new(
                "kdag.artifacts_calls",
                count(self.counts.artifacts),
                "count",
            ),
            Metric::new("kdag.alloc_mb", mb(kdag.self_alloc), "MB"),
            Metric::new("core.assign_s", s(total.assign_nanos), "s"),
        ];
        for algo in ALL_ALGORITHMS {
            let name = format!("core.assign_s.{}", algo.label().to_lowercase());
            m.push(Metric::new(
                name,
                s(st.by_algo[algo_index(algo)].assign_nanos),
                "s",
            ));
        }
        m.extend([
            Metric::new(
                "core.mqb.evaluated",
                count(mqb.candidates_evaluated),
                "count",
            ),
            Metric::new("core.mqb.pruned", count(mqb.candidates_pruned), "count"),
            Metric::new(
                "core.mqb.prune_ratio",
                ratio(
                    mqb.candidates_pruned,
                    mqb.candidates_evaluated + mqb.candidates_pruned,
                ),
                "fraction",
            ),
            Metric::new("core.mqb.diff_events", count(mqb.diff_events), "count"),
            Metric::new(
                "core.mqb.cold_snapshots",
                count(mqb.cold_snapshots),
                "count",
            ),
            Metric::new("sim.evaluate_s", s(evaluate.self_ns), "s"),
            Metric::new("sim.engine_s", s(engine_ns), "s"),
            Metric::new(
                "sim.loop_s",
                s(engine_ns.saturating_sub(total.assign_nanos)),
                "s",
            ),
            Metric::new("sim.epochs", count(total.epochs), "count"),
            Metric::new("sim.epochs_skipped", count(total.epochs_skipped), "count"),
            Metric::new(
                "sim.skip_ratio",
                ratio(total.epochs_skipped, total.epochs),
                "fraction",
            ),
            Metric::new("sim.tasks_assigned", count(total.tasks_assigned), "count"),
            Metric::new(
                "sim.ns_per_epoch",
                ratio(st.plain.engine_nanos, executed(&st.plain)),
                "ns",
            ),
            Metric::new(
                "sim.peak_queue_depth",
                total.transitions.peak_queue_depth as f64,
                "count",
            ),
            Metric::new("sim.epoch_bytes", count(total.epoch_bytes), "B"),
            Metric::new(
                "sim.workspace_reuse_ratio",
                ratio(
                    total.workspace_reuses,
                    total.workspace_reuses + total.workspace_cold_inits,
                ),
                "fraction",
            ),
            Metric::new("sim.alloc_mb", mb(evaluate.self_alloc), "MB"),
            Metric::new("session.admit_s", s(admit.self_ns), "s"),
            Metric::new("session.run_s", s(run.self_ns), "s"),
            Metric::new("session.finish_s", s(finish.self_ns), "s"),
            Metric::new("session.admits", count(self.counts.admits), "count"),
            Metric::new(
                "session.recycle_ratio",
                ratio(self.counts.recycled, self.counts.admits),
                "fraction",
            ),
            Metric::new(
                "session.dirty_visits",
                count(st.session.dirty_visits),
                "count",
            ),
            Metric::new(
                "session.full_rescans",
                count(st.session.full_rescans),
                "count",
            ),
            Metric::new(
                "session.rescan_ratio",
                ratio(st.session.full_rescans, executed(&st.session)),
                "fraction",
            ),
            Metric::new(
                "session.alloc_mb",
                mb(admit.self_alloc + run.self_alloc + finish.self_alloc),
                "MB",
            ),
            Metric::new("obs.export_s", s(export.self_ns), "s"),
            Metric::new("obs.export_bytes", count(self.counts.export_bytes), "B"),
            Metric::new(
                "obs.ns_per_epoch_observed",
                ratio(st.observed.engine_nanos, executed(&st.observed)),
                "ns",
            ),
            Metric::new("obs.alloc_mb", mb(export.self_alloc), "MB"),
            Metric::new("par.items", count(self.counts.par_items), "count"),
            Metric::new("par.busy_s", s(item.total_ns), "s"),
            Metric::new("par.wall_s", s(map.total_ns), "s"),
            Metric::new("par.wait_s", s(map.self_ns), "s"),
            Metric::new(
                "par.idle_frac",
                if map.total_ns == 0 {
                    0.0
                } else {
                    1.0 - item.total_ns as f64 / (map.total_ns as f64 * workers as f64)
                },
                "fraction",
            ),
            Metric::new("par.item_self_s", s(item.self_ns), "s"),
            Metric::new("experiments.fold_s", s(fold.self_ns), "s"),
            Metric::new("trace.wall_s", s(self.traced_ns), "s"),
            Metric::new("trace.workers", workers as f64, "count"),
            Metric::new("trace.spans", count(self.spans), "count"),
            Metric::new("trace.other_s", s(capacity.saturating_sub(covered)), "s"),
            Metric::new(
                "trace.overhead_frac",
                crate::median(&self.overheads),
                "fraction",
            ),
        ]);
        m
    }
}
