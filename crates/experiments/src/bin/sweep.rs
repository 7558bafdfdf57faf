//! Free-form experiment cell: evaluate any (workload × algorithm × mode)
//! combination outside the fixed figure grids.
//!
//! ```console
//! cargo run -p fhs-experiments --release --bin sweep -- \
//!     --family ir --typing layered --size medium --k 4 \
//!     --algo MQB --algo KGreedy --preemptive --skewed --instances 1000
//! ```

use std::path::PathBuf;

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_experiments::figures::{panel_csv_table, Panel};
use fhs_experiments::obsout;
use fhs_experiments::runner::{
    fold_rows, new_sweep_columns, run_sweep_observed, run_sweep_rows, SweepCell,
};
use fhs_experiments::shard::{merge_shards, shard_fragment, ShardMeta};
use fhs_experiments::telemetry::{sweep_exposition, sweep_snapshot_jsonl, MetricsServer};
use fhs_obs::{chrome_trace_json, events_jsonl, write_atomic, ObsConfig, TraceCell};
use fhs_sim::Mode;
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

struct SweepArgs {
    family: Family,
    typing: Typing,
    size: SystemSize,
    k: usize,
    skewed: bool,
    mode: Mode,
    algos: Vec<Algorithm>,
    instances: usize,
    seed: u64,
    csv: bool,
    instrument: bool,
    utilization: bool,
    trace_out: Option<PathBuf>,
    trace_cap: usize,
    metrics_out: Option<PathBuf>,
    workers: Option<usize>,
    stable: bool,
    shard: Option<(u64, u64)>,
    shard_out: Option<PathBuf>,
    snapshot_every: Option<u64>,
    snapshot_out: Option<PathBuf>,
    serve_metrics: Option<String>,
    serve_linger: u64,
}

const USAGE: &str = "usage: sweep [--family ep|tree|ir] [--typing layered|random] \
[--size small|medium|large|huge] [--k K] [--skewed] [--preemptive] \
[--algo NAME]... [--instances N] [--seed S] [--csv] [--instrument] \
[--utilization] [--trace-out PATH] [--trace-cap N] [--metrics-out PATH] \
[--stable] [--shard I/N] [--shard-out PATH] [--snapshot-every N] \
[--snapshot-out BASE] [--serve-metrics ADDR] [--serve-linger SECS] \
[--workers N]\n\
       sweep merge-shards [--out PATH] FRAGMENT...\n\
algorithm names: KGreedy LSpan DType MaxDP ShiftBT MQB MQB+All+Exp … (default: all six)\n\
--instrument appends per-algorithm engine counters (epochs, transitions, \
assign/engine wall time) plus assign/epoch latency and queue-depth \
percentiles after the table\n\
--utilization appends per-algorithm utilization accounting (per-type \
utilization, imbalance, CoV, time-to-drain) from the timeline recorder\n\
--trace-out writes the structured event trace of instance 0 (one trace \
process per algorithm); '.jsonl' suffix selects JSON-lines, anything else \
Chrome-trace JSON loadable in Perfetto / chrome://tracing\n\
--trace-cap bounds the recorded events per run (first-N; default 65536)\n\
--metrics-out appends one JSON line per algorithm cell (versioned schema: \
ratio summary, engine counters, latency percentiles, utilization)\n\
--stable canonicalizes exported metrics for byte-identical reproduction: \
wall-clock counters zeroed, wall-latency histograms cleared\n\
--shard I/N evaluates only the I-th of N contiguous instance ranges \
(0-based); seeding is absolute, so shards reproduce exactly the rows the \
unsharded sweep would\n\
--shard-out writes this shard's fragment (JSONL) for 'sweep merge-shards'; \
implies the --metrics-out recording channels and --stable form\n\
--snapshot-every N re-renders the live exposition/snapshot after every N \
instances (default: a tenth of the range when a sink is attached)\n\
--snapshot-out BASE atomically rewrites BASE.prom (Prometheus text) and \
BASE.jsonl (versioned snapshot) at each snapshot tick\n\
--serve-metrics ADDR answers GET /metrics from the latest snapshot over \
plain TCP (e.g. 127.0.0.1:9184; port 0 picks a free port)\n\
--serve-linger SECS keeps the process (and endpoint) alive after the \
sweep finishes so a scraper can read the final state\n\
merge-shards folds shard fragments back into metrics-JSONL, byte-identical \
to the unsharded '--stable --metrics-out' run over the full range\n\
--workers caps the persistent worker pool (default: all cores); results \
are bit-identical for any worker count";

fn parse() -> Result<SweepArgs, String> {
    let mut out = SweepArgs {
        family: Family::Ir,
        typing: Typing::Layered,
        size: SystemSize::Medium,
        k: 4,
        skewed: false,
        mode: Mode::NonPreemptive,
        algos: Vec::new(),
        instances: 500,
        seed: 0x5EED,
        csv: false,
        instrument: false,
        utilization: false,
        trace_out: None,
        trace_cap: 0,
        metrics_out: None,
        workers: None,
        stable: false,
        shard: None,
        shard_out: None,
        snapshot_every: None,
        snapshot_out: None,
        serve_metrics: None,
        serve_linger: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--family" => {
                out.family = match value("--family")?.to_lowercase().as_str() {
                    "ep" => Family::Ep,
                    "tree" => Family::Tree,
                    "ir" => Family::Ir,
                    other => return Err(format!("unknown family {other}")),
                }
            }
            "--typing" => {
                out.typing = match value("--typing")?.to_lowercase().as_str() {
                    "layered" => Typing::Layered,
                    "random" => Typing::Random,
                    other => return Err(format!("unknown typing {other}")),
                }
            }
            "--size" => {
                out.size = match value("--size")?.to_lowercase().as_str() {
                    "small" => SystemSize::Small,
                    "medium" => SystemSize::Medium,
                    "large" => SystemSize::Large,
                    "huge" => SystemSize::Huge,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            "--k" => out.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--skewed" => out.skewed = true,
            "--preemptive" => out.mode = Mode::Preemptive,
            "--algo" => {
                let name = value("--algo")?;
                out.algos.push(
                    Algorithm::parse(&name).ok_or_else(|| format!("unknown algorithm {name}"))?,
                );
            }
            "--instances" | "-n" => {
                out.instances = value("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--csv" => out.csv = true,
            "--workers" => {
                out.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--instrument" => out.instrument = true,
            "--utilization" => out.utilization = true,
            "--trace-out" => out.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--trace-cap" => {
                out.trace_cap = value("--trace-cap")?
                    .parse()
                    .map_err(|e| format!("--trace-cap: {e}"))?
            }
            "--metrics-out" => out.metrics_out = Some(PathBuf::from(value("--metrics-out")?)),
            "--stable" => out.stable = true,
            "--shard" => {
                let spec = value("--shard")?;
                let (i, n) = spec
                    .split_once('/')
                    .ok_or_else(|| format!("--shard wants I/N, got {spec}"))?;
                let i: u64 = i.parse().map_err(|e| format!("--shard index: {e}"))?;
                let n: u64 = n.parse().map_err(|e| format!("--shard count: {e}"))?;
                if n == 0 || i >= n {
                    return Err(format!("--shard {i}/{n}: index must be in 0..count"));
                }
                out.shard = Some((i, n));
            }
            "--shard-out" => out.shard_out = Some(PathBuf::from(value("--shard-out")?)),
            "--snapshot-every" => {
                let n: u64 = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?;
                if n == 0 {
                    return Err("--snapshot-every must be at least 1".into());
                }
                out.snapshot_every = Some(n);
            }
            "--snapshot-out" => out.snapshot_out = Some(PathBuf::from(value("--snapshot-out")?)),
            "--serve-metrics" => out.serve_metrics = Some(value("--serve-metrics")?),
            "--serve-linger" => {
                out.serve_linger = value("--serve-linger")?
                    .parse()
                    .map_err(|e| format!("--serve-linger: {e}"))?
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if out.k == 0 {
        return Err("--k must be at least 1".into());
    }
    if out.instances == 0 {
        return Err("--instances must be at least 1".into());
    }
    if out.algos.is_empty() {
        out.algos = ALL_ALGORITHMS.to_vec();
    }
    if out.shard_out.is_some() && out.shard.is_none() {
        return Err("--shard-out needs --shard I/N".into());
    }
    if let Some((_, n)) = out.shard {
        if (out.instances as u64) < n {
            return Err(format!(
                "--shard: {} instances cannot fill {n} shards",
                out.instances
            ));
        }
    }
    Ok(out)
}

/// The `merge-shards` subcommand: reads shard fragments, folds them back
/// together, and writes metrics-JSONL byte-identical to the unsharded
/// `--stable --metrics-out` run.
fn merge_main(args: &[String]) -> Result<(), String> {
    let mut out_path: Option<PathBuf> = None;
    let mut fragments = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_path = Some(PathBuf::from(
                    it.next().ok_or("--out needs a value")?.clone(),
                ))
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            path => fragments.push(PathBuf::from(path)),
        }
    }
    if fragments.is_empty() {
        return Err("merge-shards: no fragment files given".into());
    }
    let texts: Vec<String> = fragments
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    let merged = merge_shards(&texts)?;
    match &out_path {
        Some(path) => {
            std::fs::write(path, &merged).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!(
                "merged {} fragments into {} ({} cells)",
                texts.len(),
                path.display(),
                merged.lines().count()
            );
        }
        None => print!("{merged}"),
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("merge-shards") {
        if let Err(msg) = merge_main(&argv[1..]) {
            eprintln!("{msg}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let mut spec = WorkloadSpec::new(args.family, args.typing, args.size, args.k);
    if args.skewed {
        spec = spec.skewed();
    }
    // The recording channels implied by the requested outputs: latency
    // histograms feed both --instrument and --metrics-out, the timeline
    // recorder feeds --utilization and --metrics-out, event tracing runs
    // only when a trace sink is given.
    let observe = ObsConfig {
        utilization: args.utilization || args.metrics_out.is_some() || args.shard_out.is_some(),
        latency: args.instrument || args.metrics_out.is_some() || args.shard_out.is_some(),
        events: args.trace_out.is_some(),
        event_cap: args.trace_cap,
    };
    let mode_label = match args.mode {
        Mode::NonPreemptive => "np",
        Mode::Preemptive => "pre",
    };
    // Each instance is sampled and analyzed once, shared by every
    // algorithm.
    let cells: Vec<SweepCell> = args
        .algos
        .iter()
        .map(|&algo| SweepCell::new(algo, args.mode))
        .collect();
    let labels: Vec<String> = args.algos.iter().map(|a| a.label().to_string()).collect();
    // This process's contiguous slice of the instance range.
    let (lo, hi) = match args.shard {
        Some((i, n)) => {
            let t = args.instances as u64;
            (i * t / n, (i + 1) * t / n)
        }
        None => (0, args.instances as u64),
    };
    // Kept alive (for --serve-linger) until the end of `main`.
    let server = args
        .serve_metrics
        .as_deref()
        .map(|addr| match MetricsServer::start(addr) {
            Ok(s) => {
                eprintln!("serving GET /metrics on http://{}/metrics", s.addr());
                s
            }
            Err(e) => {
                eprintln!("failed to bind {addr}: {e}");
                std::process::exit(1);
            }
        });
    // The chunked loop only runs when something watches mid-sweep
    // (snapshots, a live endpoint) or the range is a shard; otherwise
    // the one-shot path keeps its fine-grained dispatch heuristics.
    let live = args.shard.is_some()
        || args.snapshot_out.is_some()
        || args.snapshot_every.is_some()
        || server.is_some();
    let mut columns = if live {
        let total = (hi - lo) as usize;
        let chunk = args.snapshot_every.unwrap_or(((hi - lo) / 10).max(1));
        let mut cols = new_sweep_columns(cells.len());
        let mut shard_rows = Vec::new();
        let mut at = lo;
        while at < hi {
            let end = (at + chunk).min(hi);
            let batch = run_sweep_rows(&spec, &cells, at..end, args.seed, args.workers, observe);
            if args.shard_out.is_some() {
                shard_rows.extend(batch.iter().cloned());
            }
            fold_rows(&mut cols, batch);
            at = end;
            let done = (at - lo) as usize;
            let page = sweep_exposition(&spec.label(), mode_label, &labels, &cols, done, total);
            if let Some(server) = &server {
                server.publish(page.clone());
            }
            if let Some(base) = &args.snapshot_out {
                let jsonl = sweep_snapshot_jsonl(
                    &spec.label(),
                    mode_label,
                    args.seed,
                    &labels,
                    &cols,
                    done,
                    total,
                );
                for (path, body) in [
                    (base.with_extension("prom"), &page),
                    (base.with_extension("jsonl"), &jsonl),
                ] {
                    if let Err(e) = write_atomic(&path, body) {
                        eprintln!("snapshot write failed for {}: {e}", path.display());
                    }
                }
            }
        }
        if let Some(path) = &args.shard_out {
            let fragment = shard_fragment(
                &ShardMeta {
                    workload: &spec.label(),
                    mode: mode_label,
                    instances: args.instances,
                    seed: args.seed,
                    lo,
                    hi,
                    cells: &labels,
                },
                shard_rows,
            );
            match std::fs::write(path, fragment) {
                Ok(()) => eprintln!(
                    "wrote shard fragment: {} (instances {lo}..{hi} of {})",
                    path.display(),
                    args.instances
                ),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
        }
        cols
    } else {
        run_sweep_observed(
            &spec,
            &cells,
            args.instances,
            args.seed,
            args.workers,
            observe,
        )
    };
    if args.stable || args.shard_out.is_some() {
        for col in columns.iter_mut() {
            obsout::stabilize(col);
        }
    }
    let rows = args
        .algos
        .iter()
        .zip(&columns)
        .map(|(algo, col)| (algo.label().to_string(), col.summary()))
        .collect();
    let panel = Panel {
        title: format!(
            "{} — {:?}, {} instances, seed {}",
            spec.label(),
            args.mode,
            args.instances,
            args.seed
        ),
        rows,
    };
    if args.csv {
        let mut t = panel_csv_table();
        panel.csv_rows(&mut t);
        print!("{}", t.to_csv());
    } else {
        print!("{}", panel.render());
    }
    if args.instrument {
        println!(
            "engine counters (summed over {} instances):",
            args.instances
        );
        for (&algo, col) in args.algos.iter().zip(&columns) {
            println!("  {:<16} {}", algo.label(), col.stats);
            if let Some(o) = &col.obs {
                println!("  {:<16} {}", "", obsout::latency_summary(o));
            }
        }
    }
    if args.utilization {
        println!(
            "utilization (timeline recorder, mean over {} instances):",
            args.instances
        );
        for (&algo, col) in args.algos.iter().zip(&columns) {
            if let Some(o) = &col.obs {
                println!("  {:<16} {}", algo.label(), obsout::utilization_summary(o));
            }
        }
    }
    if let Some(path) = &args.metrics_out {
        let mut out = String::new();
        for (&algo, col) in args.algos.iter().zip(&columns) {
            out.push_str(&obsout::metrics_line(
                algo.label(),
                &spec.label(),
                mode_label,
                // A shard run exports lines over the instances it actually
                // evaluated; the full-range identity is restored by merge.
                col.ratios.len(),
                args.seed,
                &col.summary(),
                &col.stats,
                col.obs.as_ref(),
            ));
            out.push('\n');
        }
        match std::fs::write(path, out) {
            Ok(()) => eprintln!(
                "wrote metrics: {} ({} cells)",
                path.display(),
                columns.len()
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &args.trace_out {
        let traces: Vec<TraceCell> = args
            .algos
            .iter()
            .zip(&columns)
            .enumerate()
            .filter_map(|(i, (&algo, col))| {
                let t = col.obs.as_ref()?.trace.as_ref()?;
                Some(TraceCell {
                    pid: i as u32 + 1,
                    name: format!("{} {mode_label}", algo.label()),
                    ..t.clone()
                })
            })
            .collect();
        let jsonl = path.extension().is_some_and(|e| e == "jsonl");
        let body = if jsonl {
            events_jsonl(&traces)
        } else {
            chrome_trace_json(&traces)
        };
        let events: usize = traces.iter().map(|t| t.events.len()).sum();
        let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
        match std::fs::write(path, body) {
            Ok(()) => eprintln!(
                "wrote trace: {} ({} format, instance 0, {events} events, {dropped} dropped)",
                path.display(),
                if jsonl { "JSON-lines" } else { "Chrome-trace" },
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(server) = &server {
        if args.serve_linger > 0 {
            eprintln!(
                "lingering {}s for scrapers on http://{}/metrics",
                args.serve_linger,
                server.addr()
            );
            std::thread::sleep(std::time::Duration::from_secs(args.serve_linger));
        }
    }
}
