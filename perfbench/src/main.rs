//! `fhs-perfbench`: one process runs one workload for a fixed time and
//! prints one JSON line with its metrics and output-check tallies.
//!
//! ```text
//! fhs-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--out-dir <dir>] [--setup-only]
//! ```
//!
//! `perfbench/run.py` is the user-facing command: it builds this binary,
//! repeats the set-up measurement in fresh processes, and prints the
//! result in the benchmark's format. See `perfbench/README.md`.

mod alloc;
mod calibrate;
mod check;
mod entry;
mod layers;
mod traced;
mod tracer;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fhs_obs::json::{json_f64, json_string};

use crate::check::Fingerprint;
use crate::workload::Workload;

/// Pool workers a run may use: every workload runs with the pool capped
/// at two, so results compare across hosts with more CPUs.
const WORKERS: usize = 2;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs` (0 for none).
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(setup_s: f64, tasks_per_s: f64, rss_mb: f64, ratios: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("tasks_per_s", tasks_per_s, "1/s"),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        // A job's completion time over L(J) is its ratio in a sweep and its
        // slowdown in a stream: one statistic under the names of both.
        Metric::new("mean_ratio", mean(ratios), "ratio"),
        Metric::new("mean_slowdown", mean(ratios), "ratio"),
        Metric::new("p99_slowdown", percentile(ratios, 99.0), "ratio"),
    ]
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::HugeIrGrid,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".bench_build/perfbench-out"),
        setup_only: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Process high-water resident set size (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fhs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!(
            "fhs-perfbench: cannot create {}: {e}",
            args.out_dir.display()
        );
        std::process::exit(1);
    }
    let w = args.workload;
    let workers = WORKERS.min(fhs_par::pool().workers());

    // Set-up: pool start, worker-context warm-up, first sizing.
    let warm = w.warmup();
    let warm_out = entry::run(&warm, workers, &args.out_dir, &mut || {});
    let setup_raw_s = t0.elapsed().as_secs_f64();
    let reference = calibrate::Reference::new();
    let setup_slowdown = median(&[0; 3].map(|_| reference.slowdown(workers)));
    let setup_s = setup_raw_s / setup_slowdown;
    if args.setup_only {
        println!(
            "{{\"setup_s\":{},\"setup_raw_s\":{}}}",
            json_f64(setup_s),
            json_f64(setup_raw_s)
        );
        return;
    }
    let mut tally = check::check(&warm, &warm_out);
    let self_test = check::self_test(&warm, &warm_out);
    drop(warm_out);

    if args.trace {
        fhs_sim::instrument::register_alloc_probe(alloc::thread_bytes);
    }
    let passes: Vec<_> = (0..w.sets()).map(|s| w.pass(args.seed, s)).collect();
    let mut first: Vec<Option<Fingerprint>> = vec![None; passes.len()];
    let mut ratios = Vec::new();
    // Per pass: tasks per second, as measured and scaled to the nominal
    // host; instances and jobs per second as measured.
    let (mut raw_rates, mut rates) = (Vec::new(), Vec::new());
    let (mut inst_rates, mut job_rates) = (Vec::new(), Vec::new());
    let mut slowdowns = vec![setup_slowdown];
    let mut layers = layers::Layers::default();
    let mut last_spans = Vec::new();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut n = 0usize;
    // Passes cycle through the instance sets until the time is up. An
    // untraced run completes at least one cycle: the quality metrics are
    // taken over it, so they cover the same inputs on every run.
    while n == 0 || (!args.trace && n < passes.len()) || start.elapsed() < budget {
        let (s, pass) = (n % passes.len(), &passes[n % passes.len()]);
        // The host's slowdown over a pass is the mean of the reference
        // timings on either side of it and between its sweeps; the time
        // those take is not the pass's.
        let mut around = vec![slowdowns[slowdowns.len() - 1]];
        let mut paused = Duration::ZERO;
        let p0 = Instant::now();
        let out = if args.trace {
            entry::run(pass, workers, &args.out_dir, &mut || {})
        } else {
            entry::run(pass, workers, &args.out_dir, &mut || {
                let t = Instant::now();
                around.push(reference.slowdown(workers));
                paused += t.elapsed();
            })
        };
        let untraced_ns = (p0.elapsed() - paused).as_nanos() as u64;
        let secs = untraced_ns as f64 / 1e9;
        let tasks_per_s = check::tasks(&out) as f64 / secs;
        raw_rates.push(tasks_per_s);
        inst_rates.push(pass.instances() as f64 / secs);
        job_rates.push(pass.jobs() as f64 / secs);
        if !args.trace {
            around.push(reference.slowdown(workers));
            rates.push(tasks_per_s * mean(&around));
            slowdowns.extend(&around[1..]);
        }
        let mut t = check::check(pass, &out);
        let fingerprint = check::fingerprint(&out);
        match &first[s] {
            None => {
                ratios.extend(check::job_ratios(&out));
                first[s] = Some(fingerprint.clone());
            }
            Some(f) => t.failed += check::diff(f, &fingerprint),
        }
        if args.trace {
            alloc::set_counting(true);
            let traced = traced::run(pass, workers, &args.out_dir);
            alloc::set_counting(false);
            let tt = check::check(pass, &traced.out);
            t.attempted += tt.attempted;
            t.failed += tt.failed + check::diff(&fingerprint, &check::fingerprint(&traced.out));
            // The spans must fit in the pass's wall time × workers.
            t.attempted += 1;
            if !layers.add_pass(pass, &traced, workers, untraced_ns) {
                t.failed += 1;
            }
            last_spans = traced.spans;
        }
        t.failed = t.failed.min(t.attempted);
        tally.add(t);
        n += 1;
    }

    let metrics = if args.trace {
        let path = args.out_dir.join(format!("spans-{}.jsonl", w.name()));
        std::fs::write(&path, tracer::spans_jsonl(&last_spans)).expect("write the span file");
        layers.metrics(workers)
    } else {
        end_to_end(setup_s, median(&rates), peak_rss_mb(), &ratios)
    };
    // End-to-end metrics are never 0; per-layer ones are 0 where a layer
    // does not run on the workload.
    let correct = self_test
        && tally.failed == 0
        && metrics
            .iter()
            .all(|m| m.value.is_finite() && (args.trace || m.value > 0.0));
    let rendered: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_f64(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    let gaps: Vec<f64> = passes.iter().filter_map(workload::Pass::mean_gap).collect();
    println!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"workers\":{workers},\"cpus\":{},\
         \"profile\":{},\"sets\":{},\"passes\":{n},\"measured_s\":{},\
         \"host_slowdown\":{},\"setup_raw_s\":{},\"tasks_per_s_raw\":{},\
         \"instances_per_s_raw\":{},\"jobs_per_s_raw\":{},\"mean_gap\":{},\
         \"quality_samples\":{},\"self_test\":{self_test},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        json_string(w.name()),
        args.seed,
        u8::from(args.trace),
        fhs_par::default_workers(),
        json_string(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        passes.len(),
        json_f64(start.elapsed().as_secs_f64()),
        json_f64(median(&slowdowns)),
        json_f64(setup_raw_s),
        json_f64(median(&raw_rates)),
        json_f64(median(&inst_rates)),
        json_f64(median(&job_rates)),
        json_f64(mean(&gaps)),
        ratios.len(),
        tally.attempted,
        tally.failed,
        rendered.join(","),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_obs::json::{parse, Value};

    /// `(name, unit)` of every metric in one list of BENCHMARK.json.
    fn listed(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name").unwrap(), field(m, "unit").unwrap()))
            .collect()
    }

    fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn reported_metrics_match_the_benchmark_file() {
        let e2e = end_to_end(0.5, 2.0, 10.0, &[1.0, 1.5]);
        assert_eq!(reported(&e2e), listed("end_to_end"));
        let layers = layers::Layers::default().metrics(2);
        assert_eq!(reported(&layers), listed("per_layer"));
    }

    #[test]
    fn median_and_percentile_use_the_stated_rules() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 198.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
