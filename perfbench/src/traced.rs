//! The traced replay: each workload rebuilt from the public calls that
//! `run_sweep`, `run_sweep_observed` and `run_stream` make, with a span
//! around every call into a layer. Its outputs must be bit-identical to
//! the entry points' (checked by the caller), so the spans time the same
//! work the end-to-end passes do.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fhs_core::make_policy;
use fhs_experiments::runner::{
    fold_rows, instance_seed, new_sweep_columns, with_worker_ctx, InstanceRuns, SweepCell,
    SweepCellResult, WorkerCtx,
};
use fhs_experiments::stream::{StreamCell, StreamConfig, StreamResult};
use fhs_obs::{ObsConfig, RunObs};
use fhs_sim::{metrics, MachineConfig, RunOptions, RunStats, Session, SessionOptions};
use fhs_workloads::WorkloadSpec;
use kdag::precompute::Artifacts;
use kdag::KDag;

use crate::entry::{self, PassOut};
use crate::tracer::{Span, Tracer};
use crate::workload::{Pass, SweepJob};

/// Work counts recorded at the layer boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `WorkloadSpec::sample` calls.
    pub samples: u64,
    /// Tasks over all sampled jobs.
    pub tasks: u64,
    /// Edges over all sampled jobs.
    pub edges: u64,
    /// `Artifacts::compute` calls.
    pub artifacts: u64,
    /// Jobs admitted to sessions.
    pub admits: u64,
    /// Admissions that reused a policy recycled by the session.
    pub recycled: u64,
    /// Bytes written by the exporters.
    pub export_bytes: u64,
    /// Items fanned out over the pool.
    pub par_items: u64,
}

impl Counts {
    /// Adds another set of counts.
    pub fn add(&mut self, o: &Counts) {
        self.samples += o.samples;
        self.tasks += o.tasks;
        self.edges += o.edges;
        self.artifacts += o.artifacts;
        self.admits += o.admits;
        self.recycled += o.recycled;
        self.export_bytes += o.export_bytes;
        self.par_items += o.par_items;
    }
}

/// One traced pass.
pub struct Traced {
    /// The pass's outputs.
    pub out: PassOut,
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// Counts recorded at the layer boundaries.
    pub counts: Counts,
    /// Wall time of the pass on the calling thread.
    pub wall_ns: u64,
}

/// Replays `pass` with spans, on up to `workers` pool workers.
pub fn run(pass: &Pass, workers: usize, dir: &Path) -> Traced {
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0, None);
    let mut counts = Counts::default();
    let out = match pass {
        Pass::Sweeps(jobs) => PassOut::Sweeps(
            jobs.iter()
                .enumerate()
                .map(|(index, (job, seed))| {
                    let item_base = (index as u64) << 32;
                    let rows = if job.instances < workers.max(1) * 4 && job.cells.len() > 1 {
                        sweep_fine(&mut t, &mut counts, job, *seed, workers, item_base)
                    } else {
                        sweep_coarse(&mut t, &mut counts, job, *seed, workers, item_base)
                    };
                    let cols = t.span("experiments.fold", |_| {
                        let mut cols = new_sweep_columns(job.cells.len());
                        fold_rows(&mut cols, rows);
                        cols
                    });
                    if job.export {
                        counts.export_bytes += t.span("obs.export", |_| {
                            entry::export(job, *seed, &cols, dir, index)
                        });
                    }
                    cols
                })
                .collect::<Vec<Vec<SweepCellResult>>>(),
        ),
        Pass::Stream(config, cells) => {
            PassOut::Stream(stream(&mut t, &mut counts, config, cells, workers))
        }
    };
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    Traced {
        out,
        spans: t.into_spans(),
        counts,
        wall_ns,
    }
}

fn sample(t: &mut Tracer, c: &mut Counts, spec: &WorkloadSpec, seed: u64) -> (KDag, MachineConfig) {
    let (job, cfg) = t.span("workloads.sample", |_| spec.sample(seed));
    c.samples += 1;
    c.tasks += job.num_tasks() as u64;
    c.edges += job.num_edges() as u64;
    (job, cfg)
}

fn artifacts(t: &mut Tracer, c: &mut Counts, job: &KDag) -> Arc<Artifacts> {
    c.artifacts += 1;
    t.span("kdag.artifacts", |_| Arc::new(Artifacts::compute(job)))
}

#[allow(clippy::too_many_arguments)]
fn evaluate(
    t: &mut Tracer,
    ctx: &mut WorkerCtx,
    job: &KDag,
    cfg: &MachineConfig,
    artifacts: Option<&Arc<Artifacts>>,
    cell: SweepCell,
    seed: u64,
    observe: ObsConfig,
) -> (f64, RunStats, Option<Box<RunObs>>) {
    let mut opts = RunOptions::seeded(seed);
    opts.quantum = cell.quantum;
    opts.observe = observe;
    let (ws, policy) = ctx.parts(cell.algo);
    let (result, stats, obs) = t.span("sim.evaluate", |_| match artifacts {
        Some(a) => {
            metrics::evaluate_observed_with_artifacts_in(ws, job, cfg, policy, cell.mode, &opts, a)
        }
        None => metrics::evaluate_observed_in(ws, job, cfg, policy, cell.mode, &opts),
    });
    (result.ratio, stats, obs)
}

/// Runs `f` on every item over the pool inside a `par.map` span; each
/// item runs inside a `par.item` span caused by it. Returns the items'
/// outputs in input order.
fn traced_map<T, U, F>(
    t: &mut Tracer,
    counts: &mut Counts,
    workers: usize,
    items: Vec<(u64, T)>,
    f: F,
) -> Vec<U>
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(&mut Tracer, &mut Counts, T) -> U + Send + Sync + 'static,
{
    let results = t.span("par.map", |t| {
        let parent = t.current();
        let epoch = t.epoch();
        fhs_par::pool().map_with(workers, items, move |(item, x)| {
            let mut it = Tracer::new(epoch, item, parent);
            let mut c = Counts {
                par_items: 1,
                ..Counts::default()
            };
            let out = it.span("par.item", |it| f(it, &mut c, x));
            (out, it.into_spans(), c)
        })
    });
    results
        .into_iter()
        .map(|(out, spans, c)| {
            t.absorb(spans);
            counts.add(&c);
            out
        })
        .collect()
}

fn sweep_coarse(
    t: &mut Tracer,
    counts: &mut Counts,
    job: &SweepJob,
    seed: u64,
    workers: usize,
    item_base: u64,
) -> Vec<InstanceRuns> {
    let any_offline = job.cells.iter().any(|c| c.algo.is_offline());
    let spec = job.spec;
    let observe = job.observe;
    let cols: Arc<[SweepCell]> = job.cells.clone().into();
    let items = (0..job.instances as u64)
        .map(|i| (item_base | i, i))
        .collect();
    traced_map(t, counts, workers, items, move |it, c, i: u64| {
        let s = instance_seed(seed, i);
        let (job, cfg) = sample(it, c, &spec, s);
        let artifacts = any_offline.then(|| artifacts(it, c, &job));
        let mut oc = observe;
        oc.events &= i == 0;
        with_worker_ctx(|ctx| {
            cols.iter()
                .map(|&cell| evaluate(it, ctx, &job, &cfg, artifacts.as_ref(), cell, s, oc))
                .collect()
        })
    })
}

/// One prepared instance: job, machine, optional analyses, seed.
type Prepared = Arc<(KDag, MachineConfig, Option<Arc<Artifacts>>, u64)>;

fn sweep_fine(
    t: &mut Tracer,
    counts: &mut Counts,
    job: &SweepJob,
    seed: u64,
    workers: usize,
    item_base: u64,
) -> Vec<InstanceRuns> {
    let any_offline = job.cells.iter().any(|c| c.algo.is_offline());
    let spec = job.spec;
    let items = (0..job.instances as u64)
        .map(|i| (item_base | i, i))
        .collect();
    let prepared: Vec<Prepared> = traced_map(t, counts, workers, items, move |it, c, i: u64| {
        let s = instance_seed(seed, i);
        let (job, cfg) = sample(it, c, &spec, s);
        let artifacts = any_offline.then(|| artifacts(it, c, &job));
        Arc::new((job, cfg, artifacts, s))
    });
    let prepared = Arc::new(prepared);
    let cols: Arc<[SweepCell]> = job.cells.clone().into();
    let ncells = cols.len();
    let observe = job.observe;
    let pairs = (0..job.instances)
        .flat_map(|i| (0..ncells).map(move |c| (item_base | i as u64, (i, c))))
        .collect();
    let mut flat = traced_map(
        t,
        counts,
        workers,
        pairs,
        move |it, _, (i, c): (usize, usize)| {
            let (job, cfg, artifacts, s) = &*prepared[i];
            let mut oc = observe;
            oc.events &= i == 0;
            with_worker_ctx(|ctx| evaluate(it, ctx, job, cfg, artifacts.as_ref(), cols[c], *s, oc))
        },
    );
    let mut rows: Vec<InstanceRuns> = Vec::with_capacity(job.instances);
    while !flat.is_empty() {
        let rest = flat.split_off(ncells.min(flat.len()));
        rows.push(flat);
        flat = rest;
    }
    rows
}

fn stream(
    t: &mut Tracer,
    counts: &mut Counts,
    config: &StreamConfig,
    cells: &[StreamCell],
    workers: usize,
) -> Vec<StreamResult> {
    let config = Arc::new(config.clone());
    let items = cells
        .iter()
        .enumerate()
        .map(|(i, &cell)| ((i as u64) << 32 | u32::MAX as u64, cell))
        .collect();
    traced_map(t, counts, workers, items, move |it, c, cell: StreamCell| {
        let cell_item = it.item;
        let (_, machine) = it.span("workloads.sample", |_| config.spec.sample(config.seed));
        c.samples += 1;
        let mut opts = SessionOptions::new(cell.mode).with_inter(cell.inter);
        opts.quantum = cell.quantum;
        let mut session = Session::new(machine, opts);
        let plan = it.span("workloads.arrivals", |_| config.plan());
        for (j, arrival) in plan.arrivals().iter().enumerate() {
            it.item = (cell_item & !(u32::MAX as u64)) | j as u64;
            it.span("session.run_until", |_| session.run_until(arrival.t));
            let (job, _) = sample(it, c, &config.spec, arrival.seed);
            let policy = match session.recycled_policy() {
                Some(p) => {
                    c.recycled += 1;
                    p
                }
                None => make_policy(cell.algo),
            };
            c.admits += 1;
            if cell.algo.is_offline() {
                let a = artifacts(it, c, &job);
                it.span("session.admit", |_| {
                    session.admit_with_artifacts(Arc::new(job), policy, arrival.seed, &a)
                });
            } else {
                it.span("session.admit", |_| {
                    session.admit(Arc::new(job), policy, arrival.seed)
                });
            }
        }
        it.item = cell_item;
        it.span("session.drain", |_| session.drain());
        let (out, _) = it.span("session.finish", |_| session.finish());
        StreamResult {
            cell,
            makespan: out.makespan,
            jobs: out.jobs,
            stream: out.stream,
            stats: out.stats,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, diff, fingerprint};
    use crate::layers::Layers;
    use crate::workload::Workload;

    #[test]
    fn replay_reproduces_the_entry_points_and_its_spans_add_up() {
        let dir = std::env::temp_dir().join("fhs-perfbench-test");
        std::fs::create_dir_all(&dir).expect("scratch directory");
        for w in [Workload::StreamIr, Workload::LargeFigures] {
            let pass = w.warmup();
            let plain = entry::run(&pass, 2, &dir, &mut || {});
            let traced = run(&pass, 2, &dir);
            assert_eq!(check(&pass, &traced.out).failed, 0, "{}", w.name());
            assert_eq!(
                diff(&fingerprint(&plain), &fingerprint(&traced.out)),
                0,
                "{}",
                w.name()
            );
            assert!(traced.counts.samples > 0 && traced.counts.par_items > 0);
            let mut layers = Layers::default();
            let workers = 2.min(fhs_par::pool().workers());
            assert!(layers.add_pass(&pass, &traced, workers, traced.wall_ns));
        }
    }
}
