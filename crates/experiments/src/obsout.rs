//! Structured observability export and shared rendering.
//!
//! * [`metrics_line`] — one line of the stable metrics-JSONL schema
//!   behind `sweep --metrics-out` (hand-rolled JSON; the build
//!   environment has no serde). Every line carries a `version` field so
//!   downstream tooling can detect schema changes. Its `"stats"` object
//!   has one owner, the counter tables [`RunStats::COUNTERS`] and
//!   [`SelectionStats::COUNTERS`]: [`stats_json`] writes, `parse_stats`
//!   (the shard merge's reader) reads and [`stabilize`] canonicalizes the
//!   counters they list.
//! * [`latency_summary`] / [`utilization_summary`] — the human-readable
//!   per-cell appendix lines shared by `sweep --instrument` /
//!   `--utilization` and the figure binaries' `--instrument` /
//!   `--utilization` flags.

use fhs_obs::json::{json_f64, json_string, Value};
use fhs_obs::HistSnapshot;
use fhs_sim::instrument::{Counter, Kind};
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
/// zeroes every counter that is not [`Kind::Logical`] (the wall clocks,
/// the pool artifacts and the allocation probe), and clears the
/// wall-latency histograms. Everything left is a pure function of
/// (workload, seed, instance set), so stabilized output is byte-identical
/// across reruns, worker counts, and shard splits — the form the shard
/// merge reproduces.
pub fn stabilize(col: &mut SweepCellResult) {
    for c in &RunStats::COUNTERS {
        if c.kind != Kind::Logical {
            (c.set)(&mut col.stats, 0);
        }
    }
    if let Some(o) = col.obs.as_mut() {
        o.assign_ns = HistSnapshot::default();
        o.epoch_ns = HistSnapshot::default();
    }
}

/// The counters of `table` that metrics-JSONL carries, in table order:
/// all but [`Kind::Internal`] ones.
fn exported<T>(table: &[Counter<T>]) -> impl Iterator<Item = &Counter<T>> {
    table.iter().filter(|c| c.kind != Kind::Internal)
}

/// The `"stats"` object of a metrics-JSONL line: the aggregated engine
/// counters, rendered in table order. Shared with the shard fragment
/// writer so both emit (and the merge re-emits) the exact same bytes for
/// the same counters.
pub fn stats_json(stats: &RunStats) -> String {
    fn object<T>(table: &[Counter<T>], s: &T) -> String {
        let parts: Vec<String> = exported(table)
            .map(|c| format!("\"{}\":{}", c.key, (c.get)(s)))
            .collect();
        parts.join(",")
    }
    format!(
        "{{{},\"selection\":{{{}}}}}",
        object(&RunStats::COUNTERS, stats),
        object(&SelectionStats::COUNTERS, &stats.selection)
    )
}

/// Parses a [`stats_json`] object back; every key must be present.
pub(crate) fn parse_stats(v: &Value) -> Result<RunStats, String> {
    fn fill<T>(table: &[Counter<T>], v: &Value, s: &mut T) -> Result<(), String> {
        for c in exported(table) {
            let x = v.get(c.key).and_then(Value::as_u64);
            let x = x.ok_or_else(|| format!("missing/invalid u64 field {:?}", c.key))?;
            (c.set)(s, x);
        }
        Ok(())
    }
    let sel = v.get("selection").ok_or("missing selection block")?;
    let mut stats = RunStats::default();
    fill(&RunStats::COUNTERS, v, &mut stats)?;
    fill(&SelectionStats::COUNTERS, sel, &mut stats.selection)?;
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

    /// Every counter of both tables set to a distinct non-zero value,
    /// straight from the tables, so a counter added to the struct but not
    /// to its table, or to the table but not to an exporter, shows here.
    fn distinct_counters() -> RunStats {
        let mut stats = RunStats::default();
        let mut next = 0;
        for c in &RunStats::COUNTERS {
            next += 1;
            (c.set)(&mut stats, next);
        }
        for c in &SelectionStats::COUNTERS {
            next += 1;
            (c.set)(&mut stats.selection, next);
        }
        stats
    }

    #[test]
    fn every_counter_survives_json_merge_stabilize_and_the_prometheus_page() {
        let stats = distinct_counters();
        let value = |s: &RunStats, key: &str| -> u64 {
            let run = RunStats::COUNTERS.iter().map(|c| (c.key, (c.get)(s)));
            let sel = SelectionStats::COUNTERS
                .iter()
                .map(|c| (c.key, (c.get)(&s.selection)));
            run.chain(sel)
                .find(|(k, _)| *k == key)
                .expect("a table key")
                .1
        };
        let tables = || {
            let run = RunStats::COUNTERS
                .iter()
                .map(|c| (c.key, c.kind, c.peak, c.prom));
            let sel = SelectionStats::COUNTERS
                .iter()
                .map(|c| (c.key, c.kind, c.peak, c.prom));
            run.chain(sel)
        };
        // Every field is distinct: no two keys share a getter's field.
        let mut seen: Vec<u64> = tables().map(|(key, ..)| value(&stats, key)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), tables().count());

        // JSON: every exported counter round-trips; the internal ones are
        // not written.
        let text = stats_json(&stats);
        let back = parse_stats(&parse(&text).unwrap()).unwrap();
        for (key, kind, ..) in tables() {
            let want = if kind == Kind::Internal {
                0
            } else {
                value(&stats, key)
            };
            assert_eq!(value(&back, key), want, "{key} through JSON");
            assert_eq!(
                text.contains(&format!("\"{key}\":")),
                kind != Kind::Internal,
                "{key}"
            );
        }

        // Merge: sums, or keeps the peak.
        let mut merged = stats;
        merged.merge(&stats);
        for (key, _, peak, _) in tables() {
            let v = value(&stats, key);
            let want = if peak { v } else { 2 * v };
            assert_eq!(value(&merged, key), want, "{key} through merge");
        }

        // Stabilize: keeps exactly the logical counters.
        let mut col = SweepCellResult {
            ratios: vec![1.0],
            stats,
            obs: None,
        };
        stabilize(&mut col);
        for (key, kind, ..) in tables() {
            let want = if kind == Kind::Logical {
                value(&stats, key)
            } else {
                0
            };
            assert_eq!(value(&col.stats, key), want, "{key} through stabilize");
        }

        // The Prometheus page carries each counter with a series once, at
        // its value, labeled by its key within a shared family.
        col.stats = stats;
        let page = crate::telemetry::sweep_exposition("w", "np", &["A".to_string()], &[col], 1, 1);
        for (key, _, _, prom) in tables() {
            let Some(p) = prom else { continue };
            let series = match p.label {
                Some(label) => format!("{}{{algo=\"A\",{label}=\"{key}\"}} ", p.family),
                None => format!("{}{{algo=\"A\"}} ", p.family),
            };
            let line = format!("{series}{}\n", value(&stats, key));
            assert_eq!(page.matches(&series).count(), 1, "{key}: {page}");
            assert!(page.contains(&line), "{key}: {line:?} not in {page}");
        }
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
