//! Structured observability export and shared rendering.
//!
//! * [`metrics_line`] — one line of the stable metrics-JSONL schema
//!   behind `sweep --metrics-out` (hand-rolled JSON; the build
//!   environment has no serde). Every line carries a `version` field so
//!   downstream tooling can detect schema changes. Its `"stats"` object
//!   has one owner: [`stats_json`] writes and `parse_stats` (the shard
//!   merge's reader) reads the same key list.
//! * [`latency_summary`] / [`utilization_summary`] — the human-readable
//!   per-cell appendix lines shared by `sweep --instrument` /
//!   `--utilization` and the figure binaries' `--instrument` /
//!   `--utilization` flags.

use fhs_obs::json::{json_f64, json_string, Value};
use fhs_obs::HistSnapshot;
use fhs_sim::{RunStats, SelectionStats};

use crate::runner::{CellObs, SweepCellResult};
use crate::stats::Summary;

/// Version tag stamped into every metrics-JSONL line; bumped on any
/// backwards-incompatible change to the line layout.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Formats an `f64` as a JSON number. Non-finite values become `null`
/// so a degenerate statistic can never produce an unparseable file.
/// (Delegates to the one shared formatter in `fhs-obs` so every JSON
/// emitter in the workspace renders numbers byte-identically.)
fn num(v: f64) -> String {
    json_f64(v)
}

/// Canonicalizes one sweep column for reproducible (`--stable`) output:
/// zeroes the wall-clock counters (`assign_nanos`, `engine_nanos`), the
/// per-process pool artifacts (`workspace_reuses`, `workspace_cold_inits`,
/// `epoch_bytes`), and clears the wall-latency histograms. Everything
/// left is a pure function of (workload, seed, instance set), so
/// stabilized output is byte-identical across reruns, worker counts, and
/// shard splits — the form the shard merge reproduces.
pub fn stabilize(col: &mut SweepCellResult) {
    col.stats.assign_nanos = 0;
    col.stats.engine_nanos = 0;
    col.stats.workspace_reuses = 0;
    col.stats.workspace_cold_inits = 0;
    col.stats.epoch_bytes = 0;
    if let Some(o) = col.obs.as_mut() {
        o.assign_ns = HistSnapshot::default();
        o.epoch_ns = HistSnapshot::default();
    }
}

/// One exported counter: its JSON key, read and write.
type Field<T> = (&'static str, fn(&T) -> u64, fn(&mut T, u64));

/// The keys of the `"stats"` object in export order: [`stats_json`]
/// writes and [`parse_stats`] reads exactly these. `epoch_bytes` (a
/// per-process allocation probe) is not exported.
#[rustfmt::skip]
const STATS_KEYS: [Field<RunStats>; 14] = [
    ("epochs", |s| s.epochs, |s, v| s.epochs = v),
    ("epochs_skipped", |s| s.epochs_skipped, |s, v| s.epochs_skipped = v),
    ("dirty_visits", |s| s.dirty_visits, |s, v| s.dirty_visits = v),
    ("full_rescans", |s| s.full_rescans, |s, v| s.full_rescans = v),
    ("tasks_assigned", |s| s.tasks_assigned, |s, v| s.tasks_assigned = v),
    ("releases", |s| s.transitions.releases, |s, v| s.transitions.releases = v),
    ("starts", |s| s.transitions.starts, |s, v| s.transitions.starts = v),
    ("completions", |s| s.transitions.completions, |s, v| s.transitions.completions = v),
    ("progress_updates", |s| s.transitions.progress_updates, |s, v| s.transitions.progress_updates = v),
    ("peak_queue_depth", |s| s.transitions.peak_queue_depth as u64, |s, v| s.transitions.peak_queue_depth = v as usize),
    ("assign_nanos", |s| s.assign_nanos, |s, v| s.assign_nanos = v),
    ("engine_nanos", |s| s.engine_nanos, |s, v| s.engine_nanos = v),
    ("workspace_reuses", |s| s.workspace_reuses, |s, v| s.workspace_reuses = v),
    ("workspace_cold_inits", |s| s.workspace_cold_inits, |s, v| s.workspace_cold_inits = v),
];

/// The keys of the nested `"selection"` object, in export order.
#[rustfmt::skip]
const SELECTION_KEYS: [Field<SelectionStats>; 4] = [
    ("candidates_evaluated", |s| s.candidates_evaluated, |s, v| s.candidates_evaluated = v),
    ("candidates_pruned", |s| s.candidates_pruned, |s, v| s.candidates_pruned = v),
    ("diff_events", |s| s.diff_events, |s, v| s.diff_events = v),
    ("cold_snapshots", |s| s.cold_snapshots, |s, v| s.cold_snapshots = v),
];

/// The `"stats"` object of a metrics-JSONL line: the aggregated engine
/// counters, rendered in key order. Shared with the shard fragment
/// writer so both emit (and the merge re-emits) the exact same bytes for
/// the same counters.
pub fn stats_json(stats: &RunStats) -> String {
    fn object<T>(keys: &[Field<T>], s: &T) -> String {
        let parts: Vec<String> = keys
            .iter()
            .map(|(k, get, _)| format!("\"{k}\":{}", get(s)))
            .collect();
        parts.join(",")
    }
    format!(
        "{{{},\"selection\":{{{}}}}}",
        object(&STATS_KEYS, stats),
        object(&SELECTION_KEYS, &stats.selection)
    )
}

/// Parses a [`stats_json`] object back; every key must be present.
pub(crate) fn parse_stats(v: &Value) -> Result<RunStats, String> {
    fn fill<T>(keys: &[Field<T>], v: &Value, s: &mut T) -> Result<(), String> {
        for (key, _, set) in keys {
            let x = v.get(key).and_then(Value::as_u64);
            let x = x.ok_or_else(|| format!("missing/invalid u64 field {key:?}"))?;
            set(s, x);
        }
        Ok(())
    }
    let sel = v.get("selection").ok_or("missing selection block")?;
    let mut stats = RunStats::default();
    fill(&STATS_KEYS, v, &mut stats)?;
    fill(&SELECTION_KEYS, sel, &mut stats.selection)?;
    Ok(stats)
}

/// `{"count":…,"p50":…,"p90":…,"p99":…,"max":…}` for one histogram.
fn hist_json(h: &HistSnapshot) -> String {
    let (p50, p90, p99, max) = h.percentiles();
    format!(
        "{{\"count\":{},\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\"max\":{max}}}",
        h.count
    )
}

/// One metrics-JSONL line for a sweep cell: identity (`cell`, `workload`,
/// `mode`, `instances`, `seed`), the ratio summary, the aggregated engine
/// counters, and — when recording ran — the latency-histogram percentiles
/// and utilization aggregates. The line is self-contained and versioned;
/// parse it back with [`fhs_obs::json::parse`].
#[allow(clippy::too_many_arguments)]
pub fn metrics_line(
    cell: &str,
    workload: &str,
    mode: &str,
    instances: usize,
    seed: u64,
    summary: &Summary,
    stats: &RunStats,
    obs: Option<&CellObs>,
) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "{{\"version\":{METRICS_SCHEMA_VERSION},\"cell\":{},\"workload\":{},\"mode\":{},\"instances\":{instances},\"seed\":{seed}",
        json_string(cell),
        json_string(workload),
        json_string(mode),
    ));
    out.push_str(&format!(
        ",\"ratio\":{{\"n\":{},\"mean\":{},\"min\":{},\"max\":{},\"std\":{},\"ci95\":{},\"p50\":{},\"p95\":{}}}",
        summary.n,
        num(summary.mean),
        num(summary.min),
        num(summary.max),
        num(summary.std),
        num(summary.ci95),
        num(summary.p50),
        num(summary.p95),
    ));
    out.push_str(",\"stats\":");
    out.push_str(&stats_json(stats));
    if let Some(o) = obs {
        out.push_str(&format!(
            ",\"latency\":{{\"assign_ns\":{},\"epoch_ns\":{},\"queue_depth\":{}}}",
            hist_json(&o.assign_ns),
            hist_json(&o.epoch_ns),
            hist_json(&o.queue_depth),
        ));
        let k = o.util.sum_util.len();
        let per_type: Vec<String> = (0..k).map(|a| num(o.util.mean_util(a))).collect();
        let drain: Vec<String> = (0..k).map(|a| num(o.util.mean_drain_frac(a))).collect();
        let mean = if k == 0 {
            0.0
        } else {
            (0..k).map(|a| o.util.mean_util(a)).sum::<f64>() / k as f64
        };
        out.push_str(&format!(
            ",\"utilization\":{{\"runs\":{},\"mean\":{},\"imbalance\":{},\"cov\":{},\"per_type\":[{}],\"drain_frac\":[{}]}}",
            o.util.runs,
            num(mean),
            num(o.util.mean_imbalance()),
            num(o.util.mean_cov()),
            per_type.join(","),
            drain.join(","),
        ));
    }
    out.push('}');
    out
}

/// One metrics-JSONL line for a **streaming** cell. Distinguished from
/// the per-cell [`metrics_line`] by `"kind":"stream"`; carries the cell
/// identity (algorithm, inter-job policy, workload, mode, job count,
/// seed), the session makespan and sustained throughput, and the per-job
/// response-time / queueing-delay / slowdown histograms (slowdown in
/// milli-units: 1500 = 1.5×). Versioned and parseable like every other
/// line of the schema.
#[allow(clippy::too_many_arguments)]
pub fn stream_line(
    cell: &str,
    inter: &str,
    workload: &str,
    mode: &str,
    jobs: usize,
    seed: u64,
    makespan: u64,
    stream: &fhs_obs::StreamStats,
) -> String {
    format!(
        "{{\"version\":{METRICS_SCHEMA_VERSION},\"kind\":\"stream\",\"cell\":{},\"inter\":{},\
         \"workload\":{},\"mode\":{},\"jobs\":{jobs},\"seed\":{seed},\"makespan\":{makespan},\
         \"completed\":{},\"tasks\":{},\"work\":{},\"jobs_per_kilotime\":{},\
         \"response\":{},\"queueing\":{},\"slowdown_milli\":{}}}",
        json_string(cell),
        json_string(inter),
        json_string(workload),
        json_string(mode),
        stream.completed,
        stream.tasks,
        stream.work,
        num(stream.jobs_per_kilotime(makespan)),
        hist_json(&stream.response.snapshot()),
        hist_json(&stream.queueing.snapshot()),
        hist_json(&stream.slowdown_milli.snapshot()),
    )
}

/// One-line latency appendix for a cell: assign / inter-epoch wall-time
/// percentiles (µs) and ready-queue depth percentiles, from the merged
/// histograms.
pub fn latency_summary(o: &CellObs) -> String {
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let (a50, a90, a99, amax) = o.assign_ns.percentiles();
    let (e50, e90, e99, emax) = o.epoch_ns.percentiles();
    let (d50, d90, d99, dmax) = o.queue_depth.percentiles();
    format!(
        "assign µs p50/p90/p99/max {}/{}/{}/{} | epoch µs {}/{}/{}/{} | queue depth {d50}/{d90}/{d99}/{dmax}",
        us(a50),
        us(a90),
        us(a99),
        us(amax),
        us(e50),
        us(e90),
        us(e99),
        us(emax),
    )
}

/// One-line utilization appendix for a cell: per-type mean utilization,
/// imbalance index (max−min), coefficient of variation, and per-type
/// drain fraction (time-to-drain over makespan), all averaged over the
/// cell's instances.
pub fn utilization_summary(o: &CellObs) -> String {
    let k = o.util.sum_util.len();
    let per: Vec<String> = (0..k)
        .map(|a| format!("{:.1}%", 100.0 * o.util.mean_util(a)))
        .collect();
    let drain: Vec<String> = (0..k)
        .map(|a| format!("{:.2}", o.util.mean_drain_frac(a)))
        .collect();
    format!(
        "util [{}] | imbalance {:.3} | CoV {:.3} | drain [{}]",
        per.join(" "),
        o.util.mean_imbalance(),
        o.util.mean_cov(),
        drain.join(" "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sweep_observed, SweepCell};
    use fhs_core::Algorithm;
    use fhs_obs::json::parse;
    use fhs_obs::ObsConfig;
    use fhs_sim::Mode;
    use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

    fn observed_cell() -> (Summary, RunStats, CellObs) {
        let spec = WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 3);
        let cells = [SweepCell::new(Algorithm::Mqb, Mode::NonPreemptive)];
        let mut out = run_sweep_observed(&spec, &cells, 6, 11, Some(2), ObsConfig::all());
        let col = out.remove(0);
        let summary = col.summary();
        (summary, col.stats, col.obs.expect("recorded"))
    }

    #[test]
    fn metrics_line_is_valid_versioned_json() {
        let (summary, stats, obs) = observed_cell();
        let line = metrics_line(
            "MQB",
            "Small Layered EP",
            "NonPreemptive",
            6,
            11,
            &summary,
            &stats,
            Some(&obs),
        );
        assert!(!line.contains('\n'), "one line per cell");
        let v = parse(&line).expect("line parses");
        assert_eq!(
            v.get("version").and_then(|x| x.as_u64()),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert_eq!(v.get("cell").and_then(|x| x.as_str()), Some("MQB"));
        assert_eq!(v.get("instances").and_then(|x| x.as_u64()), Some(6));
        let ratio = v.get("ratio").expect("ratio block");
        assert!(ratio.get("mean").and_then(|x| x.as_f64()).unwrap() >= 1.0);
        let st = v.get("stats").expect("stats block");
        // Non-preemptive single-job cells: no epoch is fast-forwarded, and
        // every epoch consults the (only) job in a full rescan.
        let epochs = st.get("epochs").and_then(|x| x.as_u64()).unwrap();
        assert_eq!(st.get("epochs_skipped").and_then(|x| x.as_u64()), Some(0));
        assert_eq!(
            st.get("dirty_visits").and_then(|x| x.as_u64()),
            Some(epochs)
        );
        assert_eq!(
            st.get("full_rescans").and_then(|x| x.as_u64()),
            Some(epochs)
        );
        let sel = v
            .get("stats")
            .and_then(|s| s.get("selection"))
            .expect("selection block");
        // MQB evaluates at least one candidate per assigned task and
        // rebuilds its index once per instance (cold attach).
        assert!(
            sel.get("candidates_evaluated")
                .and_then(|x| x.as_u64())
                .unwrap()
                > 0
        );
        assert!(sel.get("cold_snapshots").and_then(|x| x.as_u64()).unwrap() >= 1);
        let lat = v.get("latency").expect("latency block");
        assert!(
            lat.get("assign_ns")
                .and_then(|h| h.get("count"))
                .and_then(|x| x.as_u64())
                .unwrap()
                > 0
        );
        let util = v.get("utilization").expect("utilization block");
        assert_eq!(util.get("runs").and_then(|x| x.as_u64()), Some(6));
        assert_eq!(
            util.get("per_type")
                .and_then(|x| x.as_array())
                .map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn metrics_line_without_obs_still_parses() {
        let (summary, stats, _) = observed_cell();
        let line = metrics_line("KGreedy", "w", "Preemptive", 6, 11, &summary, &stats, None);
        let v = parse(&line).expect("line parses");
        assert!(v.get("latency").is_none());
        assert!(v.get("utilization").is_none());
        assert!(v.get("stats").is_some());
    }

    #[test]
    fn stream_line_is_valid_versioned_json_with_percentiles() {
        use crate::stream::{run_stream, Arrivals, StreamCell, StreamConfig};
        use fhs_sim::InterJobPolicy;

        let cfg = StreamConfig {
            spec: WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 4),
            jobs: 6,
            arrivals: Arrivals::Poisson { mean_gap: 5.0 },
            seed: 3,
        };
        let r = run_stream(
            &cfg,
            &StreamCell::new(Algorithm::Mqb, InterJobPolicy::FairShare),
        );
        let line = stream_line(
            "MQB",
            "fair",
            &cfg.spec.label(),
            "np",
            cfg.jobs,
            cfg.seed,
            r.makespan,
            &r.stream,
        );
        assert!(!line.contains('\n'));
        let v = parse(&line).expect("line parses");
        assert_eq!(v.get("kind").and_then(|x| x.as_str()), Some("stream"));
        assert_eq!(
            v.get("version").and_then(|x| x.as_u64()),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert_eq!(v.get("completed").and_then(|x| x.as_u64()), Some(6));
        assert!(v.get("jobs_per_kilotime").and_then(|x| x.as_f64()).unwrap() > 0.0);
        let resp = v.get("response").expect("response histogram");
        assert_eq!(resp.get("count").and_then(|x| x.as_u64()), Some(6));
        assert!(resp.get("p99").and_then(|x| x.as_u64()).unwrap() >= 1);
        let slow = v.get("slowdown_milli").expect("slowdown histogram");
        // Slowdown ≥ 1× always; milli-units put p50 at ≥ 1000.
        assert!(slow.get("p50").and_then(|x| x.as_u64()).unwrap() >= 1000);
    }

    #[test]
    fn stats_round_trip_every_exported_counter() {
        // Every exported field distinct and non-zero (a struct literal, so
        // a new `RunStats` field must be placed here): a key written but
        // not read, or read but not written, breaks the round trip.
        let stats = RunStats {
            epochs: 1,
            tasks_assigned: 2,
            transitions: fhs_sim::TransitionCounts {
                releases: 3,
                starts: 4,
                completions: 5,
                progress_updates: 6,
                peak_queue_depth: 7,
            },
            assign_nanos: 8,
            engine_nanos: 9,
            workspace_reuses: 10,
            workspace_cold_inits: 11,
            epoch_bytes: 0,
            selection: SelectionStats {
                candidates_evaluated: 12,
                candidates_pruned: 13,
                diff_events: 14,
                cold_snapshots: 15,
            },
            epochs_skipped: 16,
            dirty_visits: 17,
            full_rescans: 18,
        };
        let text = stats_json(&stats);
        assert_eq!(parse_stats(&parse(&text).unwrap()), Ok(stats));
        let unexported = RunStats {
            epoch_bytes: 19,
            ..stats
        };
        assert_eq!(
            stats_json(&unexported),
            text,
            "epoch_bytes stays unexported"
        );
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn text_summaries_mention_the_headline_numbers() {
        let (_, _, obs) = observed_cell();
        let lat = latency_summary(&obs);
        assert!(lat.contains("assign µs"));
        assert!(lat.contains("queue depth"));
        let util = utilization_summary(&obs);
        assert!(util.contains("imbalance"));
        assert!(util.contains('%'));
    }
}
