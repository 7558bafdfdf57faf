//! The three benchmark workloads: what one pass runs and how it is seeded.
//!
//! A run cycles through [`Workload::sets`] passes, each over its own
//! instance set derived from the run's seed, so the same seed always
//! produces the same inputs. Many distinct sets per run keep the figures
//! steady from one seed to the next; a set that comes round again must
//! reproduce its first outputs exactly.

use fhs_core::{Algorithm, ALL_ALGORITHMS};
use fhs_experiments::runner::{instance_seed, SweepCell};
use fhs_experiments::stream::{Arrivals, StreamCell, StreamConfig};
use fhs_obs::ObsConfig;
use fhs_sim::{InterJobPolicy, Mode};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

/// Resource types in every workload (the paper's figures use K = 4).
const K: usize = 4;

/// Seed of the warm-up pass.
const WARMUP_SEED: u64 = 0x5EED_0BE4_C000_0001;

/// Offered load of the stream: the busiest type's work over its
/// processors, per unit of time. Each stream sets its mean inter-arrival
/// gap from its own machine and jobs to offer exactly this load, so the
/// backlog behaves alike from one seed to the next (at a fixed gap, the
/// sampled machine alone would swing the load by a factor of two). The
/// value makes the mean gap about 20 on a typical Medium machine.
const STREAM_LOAD: f64 = 0.45;

/// Events recorded per column (the instance-0 trace's first-N bound, as
/// `sweep --trace-cap`). Every Large instance records more, so each
/// exported trace has the same size on every seed.
const EVENT_CAP: usize = 4096;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Huge layered IR, 12 event-driven columns, few heavy instances.
    HugeIrGrid,
    /// The figure shape at Large size: six specs, recorded event-driven
    /// sweep plus an unrecorded quantum-1 sweep each.
    LargeFigures,
    /// A Poisson stream of Medium layered IR jobs through seven sessions.
    StreamIr,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HugeIrGrid,
        Workload::LargeFigures,
        Workload::StreamIr,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HugeIrGrid => "huge-ir-grid",
            Workload::LargeFigures => "large-figures",
            Workload::StreamIr => "stream-ir",
        }
    }

    /// Parses a [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Distinct instance sets per run.
    pub fn sets(self) -> usize {
        match self {
            Workload::HugeIrGrid => 8,
            Workload::LargeFigures => 6,
            Workload::StreamIr => 64,
        }
    }

    /// The pass over instance set `set` of the run seeded `seed`.
    pub fn pass(self, seed: u64, set: usize) -> Pass {
        self.shape(instance_seed(seed, set as u64), false)
    }

    /// The reduced pass run once before timing: it starts the pool and
    /// warms every worker's contexts on this workload's columns. Its input
    /// is the same for every run seed, so set-up time does not vary with
    /// the measured inputs.
    pub fn warmup(self) -> Pass {
        self.shape(WARMUP_SEED, true)
    }

    fn shape(self, pass_seed: u64, warmup: bool) -> Pass {
        match self {
            Workload::HugeIrGrid => {
                let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, K);
                let job = SweepJob {
                    spec,
                    cells: event_columns(),
                    instances: if warmup { 1 } else { 3 },
                    observe: ObsConfig::default(),
                    export: false,
                };
                Pass::Sweeps(vec![(job, instance_seed(pass_seed, 0))])
            }
            Workload::LargeFigures => {
                let instances = if warmup { 1 } else { 8 };
                let recorded = ObsConfig {
                    utilization: true,
                    latency: true,
                    events: true,
                    event_cap: EVENT_CAP,
                };
                let mut jobs = Vec::new();
                for family in [Family::Ep, Family::Tree, Family::Ir] {
                    for typing in [Typing::Layered, Typing::Random] {
                        let spec = WorkloadSpec::new(family, typing, SystemSize::Large, K);
                        let seed = instance_seed(pass_seed, jobs.len() as u64);
                        // Both sweeps of a spec share its instances, as the
                        // figure binaries' panels do.
                        jobs.push((
                            SweepJob {
                                spec,
                                cells: event_columns(),
                                instances,
                                observe: recorded,
                                export: true,
                            },
                            seed,
                        ));
                        jobs.push((
                            SweepJob {
                                spec,
                                cells: quantum_columns(),
                                instances,
                                observe: ObsConfig::default(),
                                export: false,
                            },
                            seed,
                        ));
                    }
                }
                Pass::Sweeps(jobs)
            }
            Workload::StreamIr => {
                let mut config = StreamConfig {
                    spec: WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, K),
                    jobs: if warmup { 48 } else { 128 },
                    arrivals: Arrivals::Poisson { mean_gap: 1.0 },
                    seed: pass_seed,
                };
                config.arrivals = Arrivals::Poisson {
                    mean_gap: gap_for_load(&config, STREAM_LOAD),
                };
                Pass::Stream(config, stream_cells())
            }
        }
    }
}

/// The mean gap at which `config`'s jobs offer `load` to its machine's
/// busiest type. Job seeds do not depend on the gap, so the jobs sampled
/// here are the ones the stream runs.
fn gap_for_load(config: &StreamConfig, load: f64) -> f64 {
    let (_, machine) = config.spec.sample(config.seed);
    let mut work = vec![0u64; machine.num_types()];
    for arrival in config.plan().arrivals() {
        let (job, _) = config.spec.sample(arrival.seed);
        for (w, jw) in work.iter_mut().zip(job.total_work_per_type()) {
            *w += jw;
        }
    }
    let busiest = work
        .iter()
        .zip(machine.procs_per_type())
        .map(|(&w, &p)| w as f64 / p.max(1) as f64)
        .fold(0.0, f64::max);
    (busiest / (config.jobs.max(1) as f64 * load)).max(1.0)
}

/// One instance-major sweep of a pass.
#[derive(Clone, Debug)]
pub struct SweepJob {
    /// The sampled workload family.
    pub spec: WorkloadSpec,
    /// The sweep's columns.
    pub cells: Vec<SweepCell>,
    /// Instances evaluated through every column.
    pub instances: usize,
    /// Recording channels (all off = the plain `run_sweep` path).
    pub observe: ObsConfig,
    /// Whether the sweep's metrics-JSONL lines and instance-0 traces are
    /// exported after it runs.
    pub export: bool,
}

/// Everything one pass runs.
#[derive(Clone, Debug)]
pub enum Pass {
    /// Instance-major sweeps, each with its base seed.
    Sweeps(Vec<(SweepJob, u64)>),
    /// One stream run through every cell (cells fan out over the pool).
    Stream(StreamConfig, Vec<StreamCell>),
}

impl Pass {
    /// Sampled inputs evaluated through every column or cell (sweeps of
    /// one spec and seed share their instances).
    pub fn instances(&self) -> u64 {
        match self {
            Pass::Sweeps(jobs) => {
                let mut distinct: Vec<(String, u64, usize)> = jobs
                    .iter()
                    .map(|(j, seed)| (j.spec.label(), *seed, j.instances))
                    .collect();
                distinct.sort();
                distinct.dedup();
                distinct.iter().map(|&(_, _, n)| n as u64).sum()
            }
            Pass::Stream(config, _) => config.jobs as u64,
        }
    }

    /// The stream's mean inter-arrival gap (`None` for sweeps).
    pub fn mean_gap(&self) -> Option<f64> {
        match self {
            Pass::Stream(config, _) => match config.arrivals {
                Arrivals::Poisson { mean_gap } => Some(mean_gap),
                Arrivals::RandomOrder { gap } => Some(gap as f64),
            },
            Pass::Sweeps(_) => None,
        }
    }

    /// Scheduled jobs: (instance, column) runs, or streamed jobs over all
    /// cells.
    pub fn jobs(&self) -> u64 {
        match self {
            Pass::Sweeps(jobs) => jobs
                .iter()
                .map(|(j, _)| (j.instances * j.cells.len()) as u64)
                .sum(),
            Pass::Stream(config, cells) => (config.jobs * cells.len()) as u64,
        }
    }
}

/// The six algorithms × {non-preemptive, preemptive}, event-driven.
fn event_columns() -> Vec<SweepCell> {
    ALL_ALGORITHMS
        .into_iter()
        .flat_map(|algo| {
            [
                SweepCell::new(algo, Mode::NonPreemptive),
                SweepCell::new(algo, Mode::Preemptive),
            ]
        })
        .collect()
}

/// The six algorithms, preemptive at quantum 1 (the fig7 cadence).
fn quantum_columns() -> Vec<SweepCell> {
    ALL_ALGORITHMS
        .into_iter()
        .map(|algo| SweepCell {
            algo,
            mode: Mode::Preemptive,
            quantum: Some(1),
        })
        .collect()
}

/// The six algorithms under FIFO plus MQB under FairShare, heaviest first
/// so the pool's pull-based dispatch balances them.
fn stream_cells() -> Vec<StreamCell> {
    let mut cells = vec![StreamCell::new(Algorithm::Mqb, InterJobPolicy::FairShare)];
    cells.extend(
        ALL_ALGORITHMS
            .into_iter()
            .rev()
            .map(|algo| StreamCell::new(algo, InterJobPolicy::Fifo)),
    );
    cells
}

/// Index of `algo` in [`ALL_ALGORITHMS`] (per-algorithm metric slots).
pub fn algo_index(algo: Algorithm) -> usize {
    ALL_ALGORITHMS
        .iter()
        .position(|&a| a == algo)
        .expect("benchmark columns use the paper's six algorithms")
}
