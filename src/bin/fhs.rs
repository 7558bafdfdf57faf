//! `fhs` — schedule a K-DAG job file from the command line.
//!
//! ```console
//! # describe a job (text format; see kdag::text):
//! $ cat job.kdag
//! kdag 2
//! task 0 2
//! task 1 3
//! edge 0 1
//!
//! # schedule it on 1 CPU + 2 GPUs with MQB and show the Gantt chart:
//! $ fhs schedule --job job.kdag --machine 1,2 --algo MQB --gantt
//!
//! # compare every algorithm:
//! $ fhs compare --job job.kdag --machine 1,2
//!
//! # inspect the job's structure:
//! $ fhs profile --job job.kdag
//! ```

use fhs::kdag::profile::JobProfile;
use fhs::kdag::text;
use fhs::prelude::*;
use fhs::sim::gantt;
use fhs::sim::timeline::Timeline;

const USAGE: &str = "\
usage: fhs <command> [options]

commands:
  schedule   run one algorithm on a job, print makespan/ratio (optionally --gantt, --timeline)
  compare    run all six paper algorithms on a job
  profile    print the job's structural profile
  example    print a sample job file (the paper's Figure 1)

options:
  --job FILE        job in the kdag text format ('-' = stdin)
  --machine N,N,..  processors per type (default: 1 per type)
  --algo NAME       KGreedy|LSpan|DType|MaxDP|ShiftBT|MQB|EDD|MQB+All+Exp|… (default MQB)
  --preemptive      use the preemptive engine
  --quantum Q       preemptive re-decision quantum (default: completion epochs)
  --seed S          RNG seed for stochastic policies (default 0)
  --gantt           print an ASCII Gantt chart of the schedule
  --timeline        print per-type utilization sparklines
  --svg FILE        write the schedule as an SVG Gantt chart
  --trace-csv FILE  write the schedule's segments as CSV
  --dot             print the job as Graphviz DOT and exit";

struct Cli {
    command: String,
    job: Option<String>,
    machine: Option<Vec<usize>>,
    algo: Algorithm,
    mode: Mode,
    quantum: Option<u64>,
    seed: u64,
    gantt: bool,
    timeline: bool,
    svg: Option<String>,
    trace_csv: Option<String>,
    dot: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or(USAGE.to_string())?;
    let mut cli = Cli {
        command,
        job: None,
        machine: None,
        algo: Algorithm::Mqb,
        mode: Mode::NonPreemptive,
        quantum: None,
        seed: 0,
        gantt: false,
        timeline: false,
        svg: None,
        trace_csv: None,
        dot: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--job" => cli.job = Some(value("--job")?),
            "--machine" => {
                let spec = value("--machine")?;
                let procs: Result<Vec<usize>, _> = spec.split(',').map(str::parse).collect();
                cli.machine = Some(procs.map_err(|e| format!("--machine: {e}"))?);
            }
            "--algo" => {
                let name = value("--algo")?;
                cli.algo =
                    Algorithm::parse(&name).ok_or_else(|| format!("unknown algorithm: {name}"))?;
            }
            "--preemptive" => cli.mode = Mode::Preemptive,
            "--quantum" => {
                let q: u64 = value("--quantum")?
                    .parse()
                    .map_err(|e| format!("--quantum: {e}"))?;
                if q == 0 {
                    return Err("--quantum must be at least 1".into());
                }
                cli.quantum = Some(q);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--gantt" => cli.gantt = true,
            "--timeline" => cli.timeline = true,
            "--svg" => cli.svg = Some(value("--svg")?),
            "--trace-csv" => cli.trace_csv = Some(value("--trace-csv")?),
            "--dot" => cli.dot = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag: {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn load_job(cli: &Cli) -> Result<KDag, String> {
    let path = cli
        .job
        .as_deref()
        .ok_or("--job FILE is required for this command")?;
    let content = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    text::from_text(&content).map_err(|e| format!("{path}: {e}"))
}

fn machine_for(cli: &Cli, job: &KDag) -> Result<MachineConfig, String> {
    match &cli.machine {
        Some(procs) => {
            if procs.len() != job.num_types() {
                return Err(format!(
                    "--machine has {} pools but the job declares K={}",
                    procs.len(),
                    job.num_types()
                ));
            }
            if procs.contains(&0) {
                return Err("--machine pools must be ≥ 1".into());
            }
            Ok(MachineConfig::new(procs.clone()))
        }
        None => Ok(MachineConfig::uniform(job.num_types(), 1)),
    }
}

fn run_cli() -> Result<(), String> {
    let cli = parse_cli()?;
    match cli.command.as_str() {
        "example" => {
            print!("{}", text::to_text(&fhs::kdag::examples::figure1()));
            Ok(())
        }
        "profile" => {
            let job = load_job(&cli)?;
            let profile = JobProfile::of(&job);
            println!("{profile}");
            println!("work per type: {:?}", profile.work_per_type);
            println!("tasks per type: {:?}", profile.tasks_per_type);
            println!("layer widths: {:?}", profile.layer_widths);
            if let Some(procs) = &cli.machine {
                let (lo, hi) = profile.work_per_processor_spread(procs);
                println!("work-per-processor spread on {procs:?}: {lo:.2} .. {hi:.2}");
            }
            Ok(())
        }
        "schedule" => {
            let job = load_job(&cli)?;
            if cli.dot {
                print!("{}", fhs::kdag::dot::to_dot(&job, "job"));
                return Ok(());
            }
            let machine = machine_for(&cli, &job)?;
            let mut policy = make_policy(cli.algo);
            let mut opts = RunOptions::seeded(cli.seed).with_trace();
            opts.quantum = cli.quantum;
            let out = engine::run(&job, &machine, policy.as_mut(), cli.mode, &opts);
            let lb = fhs::kdag::metrics::lower_bound(&job, machine.procs_per_type());
            println!(
                "{} on {}: makespan {} (lower bound {}, ratio {:.3})",
                cli.algo.label(),
                machine,
                out.makespan,
                lb,
                if lb == 0 {
                    1.0
                } else {
                    out.makespan as f64 / lb as f64
                }
            );
            let util = out.utilization(&machine);
            let util_text: Vec<String> =
                util.iter().map(|u| format!("{:.0}%", u * 100.0)).collect();
            println!("utilization per type: {}", util_text.join(" "));
            let trace = out.trace.expect("trace requested");
            if cli.gantt {
                print!("{}", gantt::render(&trace, &job, &machine, 100));
            }
            if cli.timeline {
                let tl = Timeline::of(&trace, &job, &machine);
                print!("{}", tl.sparklines(&machine, 100));
                println!("interleaving index: {:.3}", tl.interleaving_index());
            }
            if let Some(path) = &cli.svg {
                let svg = fhs::sim::svg::render(&trace, &job, &machine);
                std::fs::write(path, svg).map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {path}");
            }
            if let Some(path) = &cli.trace_csv {
                let csv = fhs::sim::trace::to_csv(&trace);
                std::fs::write(path, csv).map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {path}");
            }
            Ok(())
        }
        "compare" => {
            let job = load_job(&cli)?;
            let machine = machine_for(&cli, &job)?;
            let lb = fhs::kdag::metrics::lower_bound(&job, machine.procs_per_type());
            println!("{:<10} {:>9} {:>7}", "algorithm", "makespan", "ratio");
            for algo in ALL_ALGORITHMS {
                let mut policy = make_policy(algo);
                let mut opts = RunOptions::seeded(cli.seed);
                opts.quantum = cli.quantum;
                let out = engine::run(&job, &machine, policy.as_mut(), cli.mode, &opts);
                println!(
                    "{:<10} {:>9} {:>7.3}",
                    algo.label(),
                    out.makespan,
                    if lb == 0 {
                        1.0
                    } else {
                        out.makespan as f64 / lb as f64
                    }
                );
            }
            Ok(())
        }
        other => Err(format!("unknown command: {other}\n{USAGE}")),
    }
}

fn main() {
    if let Err(msg) = run_cli() {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
