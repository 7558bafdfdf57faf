//! Live telemetry for running experiments: Prometheus text exposition,
//! periodic atomic snapshots, and the `GET /metrics` endpoint.
//!
//! Three pieces, all offline-friendly (std only):
//!
//! * [`sweep_exposition`] renders a sweep's aggregates — engine counters,
//!   selection/fast-forward counters, log-bucketed latency histograms,
//!   utilization gauges — in the Prometheus text format 0.0.4 implemented
//!   by [`fhs_obs::Exposition`]. The engine counters' families, help
//!   texts and labels come from the one counter table
//!   ([`RunStats::COUNTERS`], [`SelectionStats::COUNTERS`]).
//! * [`sweep_snapshot_jsonl`] renders the same aggregates as a versioned
//!   snapshot-JSONL page. `sweep` publishes both between chunks, outside
//!   the engine, with [`fhs_obs::write_atomic`] (tmp + rename, so a
//!   scraper never reads a torn file).
//! * [`MetricsServer`] answers `GET /metrics` from the latest published
//!   snapshot over a plain [`std::net::TcpListener`] — no HTTP stack, no
//!   runtime; good enough for a scrape cadence of seconds.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fhs_obs::{Exposition, SNAPSHOT_SCHEMA_VERSION};
use fhs_sim::{RunStats, SelectionStats};

use crate::obsout;
use crate::runner::SweepCellResult;

// ---------------------------------------------------------------------------
// Expositions.
// ---------------------------------------------------------------------------

/// Emits the engine-counter families for one labeled series: every
/// counter of [`RunStats::COUNTERS`] and [`SelectionStats::COUNTERS`] with
/// a Prometheus series, the counter families first and the gauges (the
/// peaks) after.
fn engine_counters(e: &mut Exposition, labels: &[(&str, &str)], stats: &RunStats) {
    let run = RunStats::COUNTERS
        .iter()
        .map(|c| (c.key, c.prom, c.peak, (c.get)(stats)));
    let sel = SelectionStats::COUNTERS.iter();
    let sel = sel.map(|c| (c.key, c.prom, c.peak, (c.get)(&stats.selection)));
    for gauges in [false, true] {
        for (key, prom, peak, value) in run.clone().chain(sel.clone()) {
            let Some(p) = prom.filter(|_| peak == gauges) else {
                continue;
            };
            let mut l = labels.to_vec();
            l.extend(p.label.map(|name| (name, key)));
            if peak {
                e.gauge(p.family, p.help, &l, value as f64);
            } else {
                e.counter(p.family, p.help, &l, value);
            }
        }
    }
}

/// Renders a sweep's current per-column aggregates as one Prometheus
/// text-format page. `done`/`total` expose the sweep's progress so a
/// scraper can watch a long run converge; the per-column families are
/// labeled `algo="<label>"`. The page renders column by column;
/// [`Exposition`] keeps each family's samples together.
pub fn sweep_exposition(
    workload: &str,
    mode: &str,
    labels: &[String],
    cols: &[SweepCellResult],
    done: usize,
    total: usize,
) -> String {
    let mut e = Exposition::new();
    let id = [("workload", workload), ("mode", mode)];
    e.gauge(
        "fhs_sweep_instances_total",
        "Instances this sweep will evaluate",
        &id,
        total as f64,
    );
    e.gauge(
        "fhs_sweep_instances_done",
        "Instances folded into the aggregates so far",
        &id,
        done as f64,
    );
    for (label, col) in labels.iter().zip(cols) {
        let l = [("algo", label.as_str())];
        engine_counters(&mut e, &l, &col.stats);
        if !col.ratios.is_empty() {
            let s = col.summary();
            e.gauge(
                "fhs_ratio_mean",
                "Mean completion-time ratio over the instances so far",
                &l,
                s.mean,
            );
            e.gauge(
                "fhs_ratio_p95",
                "95th-percentile completion-time ratio",
                &l,
                s.p95,
            );
        }
        let Some(o) = &col.obs else { continue };
        e.histogram(
            "fhs_queue_depth",
            "Ready-queue depth samples (one per type per epoch)",
            &l,
            &o.queue_depth,
        );
        e.histogram(
            "fhs_assign_latency_ns",
            "Per-epoch Policy::assign wall latency",
            &l,
            &o.assign_ns,
        );
        e.histogram(
            "fhs_epoch_latency_ns",
            "Inter-epoch wall durations within the engine loop",
            &l,
            &o.epoch_ns,
        );
        if o.util.runs == 0 {
            continue;
        }
        for alpha in 0..o.util.sum_util.len() {
            let ty = alpha.to_string();
            let lt = [l[0], ("type", ty.as_str())];
            e.gauge(
                "fhs_utilization_mean",
                "Mean per-type utilization over the recorded instances",
                &lt,
                o.util.mean_util(alpha),
            );
            e.gauge(
                "fhs_drain_frac_mean",
                "Mean per-type time-to-drain over makespan",
                &lt,
                o.util.mean_drain_frac(alpha),
            );
        }
        e.gauge(
            "fhs_imbalance_mean",
            "Mean utilization-imbalance index (max-min)",
            &l,
            o.util.mean_imbalance(),
        );
        e.gauge(
            "fhs_cov_mean",
            "Mean coefficient of variation of per-type utilization",
            &l,
            o.util.mean_cov(),
        );
    }
    e.finish()
}

/// The snapshot-JSONL page for a (possibly still running) sweep: a
/// versioned progress header, then one standard metrics line per column
/// covering the `done` instances folded so far.
pub fn sweep_snapshot_jsonl(
    workload: &str,
    mode: &str,
    seed: u64,
    labels: &[String],
    cols: &[SweepCellResult],
    done: usize,
    total: usize,
) -> String {
    let mut out = format!(
        "{{\"version\":{SNAPSHOT_SCHEMA_VERSION},\"kind\":\"snapshot\",\"done\":{done},\"total\":{total}}}\n"
    );
    for (label, col) in labels.iter().zip(cols) {
        out.push_str(&obsout::metrics_line(
            label,
            workload,
            mode,
            done,
            seed,
            &col.summary(),
            &col.stats,
            col.obs.as_ref(),
        ));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// The /metrics endpoint.
// ---------------------------------------------------------------------------

/// A minimal metrics endpoint over std's [`TcpListener`]: a detached
/// accept-loop thread serves `GET /metrics` from the latest
/// [`publish`](MetricsServer::publish)ed page (any other request gets a
/// 404). Handles are cheap clones sharing the same page; the listener
/// lives until process exit.
#[derive(Clone)]
pub struct MetricsServer {
    latest: Arc<Mutex<String>>,
    addr: SocketAddr,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
    /// starts the accept loop.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let latest = Arc::new(Mutex::new(String::new()));
        let shared = Arc::clone(&latest);
        std::thread::Builder::new()
            .name("fhs-metrics".into())
            .spawn(move || {
                for stream in listener.incoming().flatten() {
                    let _ = serve_one(stream, &shared);
                }
            })?;
        Ok(MetricsServer { latest, addr })
    }

    /// Replaces the page served at `/metrics`.
    pub fn publish(&self, page: String) {
        let mut latest = self.latest.lock().unwrap_or_else(|e| e.into_inner());
        *latest = page;
    }

    /// The bound address (reports the picked port when started on `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// Serves one connection: reads the request head (bounded), answers
/// `GET /metrics`, closes.
fn serve_one(mut stream: TcpStream, latest: &Mutex<String>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 16 * 1024 {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request_line = std::str::from_utf8(&head)
        .unwrap_or("")
        .lines()
        .next()
        .unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let hit = parts.next() == Some("GET") && parts.next() == Some("/metrics");
    let response = if hit {
        let body = latest.lock().unwrap_or_else(|e| e.into_inner()).clone();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        )
    } else {
        "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
    };
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
#[path = "../../obs/tests/support/exposition_check.rs"]
mod exposition_check;

#[cfg(test)]
mod tests {
    use super::exposition_check::validate;
    use super::*;
    use crate::runner::{run_sweep_observed, SweepCell};
    use fhs_core::Algorithm;
    use fhs_obs::ObsConfig;
    use fhs_sim::Mode;
    use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

    // The family-major renderer the sweep exposition had before
    // `Exposition` grouped families itself, kept verbatim as the oracle
    // of the column-by-column one.
    /// Emits the engine-counter families shared by the sweep and stream
    /// expositions, **family-major** over the labeled series (the text format
    /// requires a family's samples to be contiguous, so the per-series loop
    /// must nest inside the per-family loop).
    fn family_major_engine_counters(e: &mut Exposition, series: &[(&[(&str, &str)], &RunStats)]) {
        type Family = (&'static str, &'static str, fn(&RunStats) -> u64);
        let simple: [Family; 5] = [
            (
                "fhs_epochs_total",
                "Decision epochs (policy consultations, including fast-forwarded ones)",
                |s| s.epochs,
            ),
            (
                "fhs_epochs_skipped_total",
                "Decision epochs fast-forwarded over instead of executed",
                |s| s.epochs_skipped,
            ),
            (
                "fhs_dirty_visits_total",
                "Per-(job, epoch) policy consultations performed by the dirty-set scan",
                |s| s.dirty_visits,
            ),
            (
                "fhs_full_rescans_total",
                "Epochs in which the dirty-set skip pruned nothing",
                |s| s.full_rescans,
            ),
            (
                "fhs_tasks_assigned_total",
                "Task selections across all epochs",
                |s| s.tasks_assigned,
            ),
        ];
        for (name, help, get) in simple {
            for (labels, stats) in series {
                e.counter(name, help, labels, get(stats));
            }
        }
        for (labels, stats) in series {
            for (event, value) in [
                ("releases", stats.transitions.releases),
                ("starts", stats.transitions.starts),
                ("completions", stats.transitions.completions),
                ("progress_updates", stats.transitions.progress_updates),
            ] {
                let mut with_event = labels.to_vec();
                with_event.push(("event", event));
                e.counter(
                    "fhs_transitions_total",
                    "State transitions by kind",
                    &with_event,
                    value,
                );
            }
        }
        for (labels, stats) in series {
            for (counter, value) in [
                ("candidates_evaluated", stats.selection.candidates_evaluated),
                ("candidates_pruned", stats.selection.candidates_pruned),
                ("diff_events", stats.selection.diff_events),
                ("cold_snapshots", stats.selection.cold_snapshots),
            ] {
                let mut with_counter = labels.to_vec();
                with_counter.push(("counter", counter));
                e.counter(
                    "fhs_selection_total",
                    "Candidate-selection counters (incremental-index policies)",
                    &with_counter,
                    value,
                );
            }
        }
        for (labels, stats) in series {
            e.gauge(
                "fhs_peak_queue_depth",
                "Largest number of live candidates any single type queue held",
                labels,
                stats.transitions.peak_queue_depth as f64,
            );
        }
    }

    /// Renders a sweep's current per-column aggregates as one Prometheus
    /// text-format page. `done`/`total` expose the sweep's progress so a
    /// scraper can watch a long run converge; the per-column families are
    /// labeled `algo="<label>"`. Families are emitted family-major, so the
    /// page always passes the exposition checker.
    fn family_major_sweep_exposition(
        workload: &str,
        mode: &str,
        labels: &[String],
        cols: &[SweepCellResult],
        done: usize,
        total: usize,
    ) -> String {
        let mut e = Exposition::new();
        let id = [("workload", workload), ("mode", mode)];
        e.gauge(
            "fhs_sweep_instances_total",
            "Instances this sweep will evaluate",
            &id,
            total as f64,
        );
        e.gauge(
            "fhs_sweep_instances_done",
            "Instances folded into the aggregates so far",
            &id,
            done as f64,
        );
        let label_pairs: Vec<[(&str, &str); 1]> =
            labels.iter().map(|l| [("algo", l.as_str())]).collect();
        let series: Vec<(&[(&str, &str)], &RunStats)> = label_pairs
            .iter()
            .zip(cols)
            .map(|(l, c)| (l.as_slice(), &c.stats))
            .collect();
        family_major_engine_counters(&mut e, &series);
        // Family-major from here on too: every family's per-column samples
        // must stay contiguous.
        let summaries: Vec<_> = cols.iter().map(|c| c.summary()).collect();
        for (l, (col, s)) in label_pairs.iter().zip(cols.iter().zip(&summaries)) {
            if !col.ratios.is_empty() {
                e.gauge(
                    "fhs_ratio_mean",
                    "Mean completion-time ratio over the instances so far",
                    l,
                    s.mean,
                );
            }
        }
        for (l, (col, s)) in label_pairs.iter().zip(cols.iter().zip(&summaries)) {
            if !col.ratios.is_empty() {
                e.gauge(
                    "fhs_ratio_p95",
                    "95th-percentile completion-time ratio",
                    l,
                    s.p95,
                );
            }
        }
        let observed: Vec<_> = label_pairs
            .iter()
            .zip(cols)
            .filter_map(|(l, c)| c.obs.as_ref().map(|o| (l, o)))
            .collect();
        for (l, o) in &observed {
            e.histogram(
                "fhs_queue_depth",
                "Ready-queue depth samples (one per type per epoch)",
                l.as_slice(),
                &o.queue_depth,
            );
        }
        for (l, o) in &observed {
            e.histogram(
                "fhs_assign_latency_ns",
                "Per-epoch Policy::assign wall latency",
                l.as_slice(),
                &o.assign_ns,
            );
        }
        for (l, o) in &observed {
            e.histogram(
                "fhs_epoch_latency_ns",
                "Inter-epoch wall durations within the engine loop",
                l.as_slice(),
                &o.epoch_ns,
            );
        }
        let with_util: Vec<_> = observed.iter().filter(|(_, o)| o.util.runs > 0).collect();
        for (l, o) in &with_util {
            for alpha in 0..o.util.sum_util.len() {
                let ty = alpha.to_string();
                let lt = [l[0], ("type", ty.as_str())];
                e.gauge(
                    "fhs_utilization_mean",
                    "Mean per-type utilization over the recorded instances",
                    &lt,
                    o.util.mean_util(alpha),
                );
            }
        }
        for (l, o) in &with_util {
            for alpha in 0..o.util.sum_util.len() {
                let ty = alpha.to_string();
                let lt = [l[0], ("type", ty.as_str())];
                e.gauge(
                    "fhs_drain_frac_mean",
                    "Mean per-type time-to-drain over makespan",
                    &lt,
                    o.util.mean_drain_frac(alpha),
                );
            }
        }
        for (l, o) in &with_util {
            e.gauge(
                "fhs_imbalance_mean",
                "Mean utilization-imbalance index (max-min)",
                l.as_slice(),
                o.util.mean_imbalance(),
            );
        }
        for (l, o) in &with_util {
            e.gauge(
                "fhs_cov_mean",
                "Mean coefficient of variation of per-type utilization",
                l.as_slice(),
                o.util.mean_cov(),
            );
        }
        e.finish()
    }

    fn sweep_fixture() -> (Vec<String>, Vec<SweepCellResult>) {
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
        let algos = [Algorithm::Mqb, Algorithm::KGreedy];
        let cells: Vec<SweepCell> = algos
            .iter()
            .map(|&a| SweepCell::new(a, Mode::NonPreemptive))
            .collect();
        let cols = run_sweep_observed(&spec, &cells, 6, 9, Some(2), ObsConfig::all());
        let labels = algos.iter().map(|a| a.label().to_string()).collect();
        (labels, cols)
    }

    #[test]
    fn column_by_column_page_matches_the_family_major_oracle() {
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
        let algos = [Algorithm::Mqb, Algorithm::KGreedy, Algorithm::ShiftBT];
        let cells: Vec<SweepCell> = algos
            .iter()
            .map(|&a| SweepCell::new(a, Mode::Preemptive))
            .collect();
        let labels: Vec<String> = algos.iter().map(|a| a.label().to_string()).collect();
        let utilization_only = ObsConfig {
            utilization: true,
            ..ObsConfig::default()
        };
        for observe in [ObsConfig::all(), ObsConfig::default(), utilization_only] {
            let mut cols = run_sweep_observed(&spec, &cells, 5, 31, Some(2), observe);
            cols.iter_mut().for_each(obsout::stabilize);
            for n in [cols.len(), 0] {
                let (labels, cols) = (&labels[..n], &cols[..n]);
                let page = sweep_exposition("w", "pre", labels, cols, 5, 8);
                let oracle = family_major_sweep_exposition("w", "pre", labels, cols, 5, 8);
                assert_eq!(page, oracle, "{observe:?}, {n} columns");
                validate(&page).expect("exposition validates");
            }
        }
    }

    #[test]
    fn sweep_exposition_is_valid_and_covers_the_counters() {
        let (labels, cols) = sweep_fixture();
        let page = sweep_exposition("Small Layered IR", "np", &labels, &cols, 6, 6);
        validate(&page).expect("exposition validates");
        assert!(page.contains("# TYPE fhs_epochs_total counter"));
        assert!(page.contains("# TYPE fhs_queue_depth histogram"));
        assert!(page.contains("fhs_selection_total{algo=\"MQB\",counter=\"candidates_evaluated\"}"));
        assert!(page.contains("fhs_utilization_mean{algo=\"MQB\",type=\"0\"}"));
        assert!(
            page.contains("fhs_sweep_instances_done{workload=\"Small Layered IR\",mode=\"np\"} 6")
        );
    }

    #[test]
    fn sweep_snapshot_jsonl_is_versioned_and_parseable() {
        let (labels, cols) = sweep_fixture();
        let body = sweep_snapshot_jsonl("w", "np", 9, &labels, &cols, 6, 10);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = fhs_obs::json::parse(lines[0]).expect("header parses");
        assert_eq!(
            header.get("version").and_then(|v| v.as_u64()),
            Some(SNAPSHOT_SCHEMA_VERSION)
        );
        assert_eq!(header.get("done").and_then(|v| v.as_u64()), Some(6));
        for line in &lines[1..] {
            fhs_obs::json::parse(line).expect("metrics line parses");
        }
    }

    #[test]
    fn metrics_server_serves_the_published_page_and_404s_elsewhere() {
        let server = MetricsServer::start("127.0.0.1:0").expect("bind");
        server.publish("# TYPE t counter\nt 1\n".to_string());
        let fetch = |path: &str| -> String {
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = fetch("/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("version=0.0.4"));
        assert!(ok.ends_with("# TYPE t counter\nt 1\n"));
        let miss = fetch("/other");
        assert!(miss.starts_with("HTTP/1.1 404"), "{miss}");
        // A republish is visible on the next scrape.
        server.publish("t 2\n".to_string());
        assert!(fetch("/metrics").ends_with("t 2\n"));
    }
}
