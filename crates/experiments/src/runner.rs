//! The experiment runners.
//!
//! Two evaluation shapes are provided:
//!
//! * **Cell-major** ([`run_cell`], [`run_cell_ratios`]): one `(workload,
//!   algorithm, mode)` cell over many seeded instances. Each instance is
//!   sampled and analyzed from scratch — the baseline the sweep bench
//!   compares against.
//! * **Instance-major** ([`run_sweep`]): many `(algorithm, mode)` cells
//!   over a *shared* instance stream. Because cells compare on common
//!   random numbers (instance `i` of every cell is the same job), the
//!   sweep samples each instance once, builds its
//!   [`kdag::precompute::Artifacts`] once, and fans instances across
//!   `fhs-par` workers, each evaluating every cell against the shared
//!   `Arc<Artifacts>`. Generation + analysis cost drops from
//!   `O(cells × instances)` to `O(instances)`, and results are bit-for-bit
//!   identical to the cell-major path (property-tested).
//!
//! Both shapes execute on the **steady-state layer**: instances fan across
//! the persistent [`fhs_par::pool()`], and every pool worker keeps one
//! [`WorkerCtx`] — a reusable engine [`Workspace`] plus one persistent
//! policy value per algorithm — in thread-local storage. A full sweep
//! therefore performs O(workers) engine allocations instead of
//! O(cells × instances); reuse is bit-for-bit invisible (property-tested
//! against the cold path). [`run_sweep_unpooled`] keeps the previous
//! spawn-per-call, cold-state path alive as the benchmark baseline.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use fhs_core::{make_policy, Algorithm};
use fhs_obs::{HistSnapshot, ObsConfig, RunObs, TraceCell, UtilSummary};
use fhs_sim::{metrics, MachineConfig, Mode, Policy, RunOptions, RunStats, Workspace};
use fhs_workloads::WorkloadSpec;
use kdag::precompute::Artifacts;
use kdag::KDag;

use crate::stats::Summary;

/// One experiment cell: a point/bar in one of the paper's figures.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Workload description.
    pub spec: WorkloadSpec,
    /// Algorithm under test.
    pub algo: Algorithm,
    /// Execution mode.
    pub mode: Mode,
    /// Preemptive re-decision quantum (`None` = completion epochs; Fig. 7
    /// uses `Some(1)`, the paper's per-quantum scheduler).
    pub quantum: Option<u64>,
}

impl Cell {
    /// A cell with the default (completion-epoch) cadence.
    pub fn new(spec: WorkloadSpec, algo: Algorithm, mode: Mode) -> Self {
        Cell {
            spec,
            algo,
            mode,
            quantum: None,
        }
    }
}

/// SplitMix64: derives independent per-instance seeds from a base seed.
/// Instance `i` of every cell sees the same job and machine (the paper
/// compares algorithms on common random numbers).
pub fn instance_seed(base: u64, i: u64) -> u64 {
    let mut z = base.wrapping_add(i.wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// The per-worker steady-state execution context.
// ---------------------------------------------------------------------------

/// One pool worker's persistent execution state: a reusable engine
/// [`Workspace`] and one policy value per algorithm, both living for the
/// life of the worker thread.
///
/// Policies are safe to keep warm because `Policy::init` /
/// `init_with_artifacts` fully re-derive every value table for the incoming
/// job (and [`fhs_sim::Policy::reset_in`] clears run-scoped scratch), so a
/// reused policy is bit-identical to a fresh one — the same contract the
/// workspace itself obeys, and the property the `workspace_equivalence`
/// suite pins.
#[derive(Default)]
pub struct WorkerCtx {
    workspace: Workspace,
    policies: HashMap<Algorithm, Box<dyn Policy>>,
}

impl WorkerCtx {
    /// The worker's engine workspace alone (for callers that manage their
    /// own policy values).
    pub fn workspace(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// The workspace together with the worker's persistent policy for
    /// `algo` (created on first use) — split borrows, so both feed one
    /// `*_in` engine call.
    pub fn parts(&mut self, algo: Algorithm) -> (&mut Workspace, &mut dyn Policy) {
        let policy = self
            .policies
            .entry(algo)
            .or_insert_with(|| make_policy(algo));
        (&mut self.workspace, policy.as_mut())
    }
}

thread_local! {
    static WORKER_CTX: RefCell<WorkerCtx> = RefCell::new(WorkerCtx::default());
}

/// Runs `f` with the calling thread's persistent [`WorkerCtx`]. Every
/// `fhs-par` pool worker (the caller included) gets its own context, so
/// fan-out through [`fhs_par::pool()`] reuses one workspace and one policy
/// set per worker across all the instances that worker evaluates.
pub fn with_worker_ctx<R>(f: impl FnOnce(&mut WorkerCtx) -> R) -> R {
    WORKER_CTX.with(|c| f(&mut c.borrow_mut()))
}

/// Fans `items` across the persistent pool (`None` = the whole team),
/// preserving input order.
fn pool_map<T, U, F>(workers: Option<usize>, items: impl IntoIterator<Item = T>, eval: F) -> Vec<U>
where
    T: Send + 'static,
    U: Send + 'static,
    F: Fn(T) -> U + Send + Sync + 'static,
{
    let items: Vec<T> = items.into_iter().collect();
    match workers {
        Some(w) => fhs_par::pool().map_with(w, items, eval),
        None => fhs_par::pool().map(items, eval),
    }
}

/// Evaluates `cell` over `instances` seeded instances and summarizes the
/// completion-time ratios. Work is fanned across `workers` threads
/// (`None` = all cores); results are independent of the worker count.
pub fn run_cell(cell: &Cell, instances: usize, base_seed: u64, workers: Option<usize>) -> Summary {
    let ratios = run_cell_ratios(cell, instances, base_seed, workers);
    Summary::from_samples(&ratios)
}

/// As [`run_cell`], but returns the raw per-instance ratios (instance
/// order). Useful for paired comparisons across algorithms.
pub fn run_cell_ratios(
    cell: &Cell,
    instances: usize,
    base_seed: u64,
    workers: Option<usize>,
) -> Vec<f64> {
    let cell = *cell;
    let col = SweepCell {
        quantum: cell.quantum,
        ..SweepCell::new(cell.algo, cell.mode)
    };
    pool_map(workers, 0..instances as u64, move |i| {
        let inst = Instance::sample(&cell.spec, base_seed, i, false);
        with_worker_ctx(|ctx| {
            let (ws, policy) = ctx.parts(cell.algo);
            inst.eval(ws, policy, &col, ObsConfig::default(), i).0
        })
    })
}

/// One sampled instance: the job, its machine, the shared analysis bundle
/// (built only when some column needs it) and the instance seed.
struct Instance {
    job: KDag,
    cfg: MachineConfig,
    artifacts: Option<Arc<Artifacts>>,
    seed: u64,
}

impl Instance {
    /// Samples absolute instance `i` of `spec` (seeded
    /// `instance_seed(base_seed, i)`), computing its [`Artifacts`] when
    /// `analyze` is set.
    fn sample(spec: &WorkloadSpec, base_seed: u64, i: u64, analyze: bool) -> Self {
        let seed = instance_seed(base_seed, i);
        let (job, cfg) = spec.sample(seed);
        let artifacts = analyze.then(|| Arc::new(Artifacts::compute(&job)));
        Instance {
            job,
            cfg,
            artifacts,
            seed,
        }
    }

    /// Evaluates one column on this instance (absolute index `i`) with
    /// `ws`/`policy`, recording the `observe` channels. Events are
    /// recorded for instance 0 only: one bounded trace per column.
    fn eval(
        &self,
        ws: &mut Workspace,
        policy: &mut dyn Policy,
        cell: &SweepCell,
        observe: ObsConfig,
        i: u64,
    ) -> (f64, RunStats, Option<Box<RunObs>>) {
        let mut opts = RunOptions::seeded(self.seed);
        opts.quantum = cell.quantum;
        opts.observe = observe;
        opts.observe.events &= i == 0;
        let (job, cfg) = (&self.job, &self.cfg);
        let (result, stats, obs) = match &self.artifacts {
            Some(a) => metrics::evaluate_observed_with_artifacts_in(
                ws, job, cfg, policy, cell.mode, &opts, a,
            ),
            None => metrics::evaluate_observed_in(ws, job, cfg, policy, cell.mode, &opts),
        };
        (result.ratio, stats, obs)
    }
}

/// One `(algorithm, mode, cadence)` column of an instance-major sweep; the
/// workload is shared across all columns (that's the point).
#[derive(Clone, Copy, Debug)]
pub struct SweepCell {
    /// Algorithm under test.
    pub algo: Algorithm,
    /// Execution mode.
    pub mode: Mode,
    /// Preemptive re-decision quantum (as [`Cell::quantum`]).
    pub quantum: Option<u64>,
}

impl SweepCell {
    /// A sweep column with the default (completion-epoch) cadence.
    pub fn new(algo: Algorithm, mode: Mode) -> Self {
        SweepCell {
            algo,
            mode,
            quantum: None,
        }
    }
}

/// Aggregated observability payload for one sweep column: latency
/// histograms merged over every instance (and therefore across pool
/// workers — [`HistSnapshot::merge`] is exact and order-independent),
/// utilization means, and the column's event trace (recorded for the
/// first instance only, so the payload stays bounded at any sweep size).
#[derive(Clone, Debug, Default)]
pub struct CellObs {
    /// Instances that contributed a recording.
    pub runs: u64,
    /// Per-epoch `Policy::assign` wall latency (ns), merged over instances.
    pub assign_ns: HistSnapshot,
    /// Inter-epoch wall durations within the engine loop (ns).
    pub epoch_ns: HistSnapshot,
    /// Ready-queue depth samples (one per type per epoch).
    pub queue_depth: HistSnapshot,
    /// Per-type utilization / imbalance aggregates (means over instances).
    pub util: UtilSummary,
    /// Structured event trace of the column's first recorded instance
    /// (`pid`/`name` are left blank for the exporter to fill).
    pub trace: Option<TraceCell>,
}

impl CellObs {
    /// Folds one run's payload in. Callers must absorb runs in instance
    /// order: the utilization sums are `f64` additions, and only a fixed
    /// fold order reproduces bit-identical aggregates for every worker
    /// count (the histogram merges are exact in any order).
    pub fn absorb(&mut self, run: &RunObs) {
        self.runs += 1;
        self.assign_ns.merge(&run.assign_ns);
        self.epoch_ns.merge(&run.epoch_ns);
        self.queue_depth.merge(&run.queue_depth);
        if let Some(u) = &run.util {
            self.util.add(u);
        }
        if self.trace.is_none() && !run.events.is_empty() {
            self.trace = Some(TraceCell {
                pid: 0,
                name: String::new(),
                k: run.k,
                procs: run.procs.clone(),
                events: run.events.clone(),
                dropped: run.events_dropped,
            });
        }
    }
}

/// Per-column results of [`run_sweep`]: the raw per-instance ratios (in
/// instance order, so columns pair up), the aggregated engine counters,
/// and — when recording was requested via [`run_sweep_observed`] — the
/// merged observability payload.
#[derive(Clone, Debug)]
pub struct SweepCellResult {
    /// Completion-time ratios, one per instance, in instance order.
    pub ratios: Vec<f64>,
    /// [`RunStats::merge`] over the column's instances.
    pub stats: RunStats,
    /// Merged observability payload (`None` when recording was off).
    pub obs: Option<CellObs>,
}

impl SweepCellResult {
    /// Summarizes the column's ratios.
    pub fn summary(&self) -> Summary {
        Summary::from_samples(&self.ratios)
    }
}

/// One instance's runs, cell by cell: ratio, engine counters, and the
/// optional observability payload. The row form produced by
/// [`run_sweep_rows`] and folded by [`fold_rows`].
pub type InstanceRuns = Vec<(f64, RunStats, Option<Box<RunObs>>)>;

/// Empty per-column accumulators for [`fold_rows`].
pub fn new_sweep_columns(columns: usize) -> Vec<SweepCellResult> {
    (0..columns)
        .map(|_| SweepCellResult {
            ratios: Vec::new(),
            stats: RunStats::default(),
            obs: None,
        })
        .collect()
}

/// Folds instance-major rows into per-column accumulators, **in row
/// order**. Because each row is folded element-wise (ratio push, integer
/// counter merge, `CellObs::absorb`), feeding rows to one accumulator in
/// chunks produces bit-identical columns to a single-shot fold of the
/// concatenation — the property the periodic-snapshot sweep loop and the
/// shard merge both rest on (the utilization aggregates are `f64` sums,
/// exact only for a fixed fold order).
pub fn fold_rows(out: &mut [SweepCellResult], per_instance: Vec<InstanceRuns>) {
    for row in per_instance {
        for (col, (ratio, stats, obs)) in out.iter_mut().zip(row) {
            col.ratios.push(ratio);
            col.stats.merge(&stats);
            if let Some(run) = obs {
                col.obs.get_or_insert_with(CellObs::default).absorb(&run);
            }
        }
    }
}

/// Transposes instance-major rows into per-column results, folding each
/// instance's observability payload into its column in instance order (see
/// [`CellObs::absorb`] for why the order matters).
fn transpose(
    columns: usize,
    instances: usize,
    per_instance: Vec<InstanceRuns>,
) -> Vec<SweepCellResult> {
    let mut out = new_sweep_columns(columns);
    for col in out.iter_mut() {
        col.ratios.reserve(instances);
    }
    fold_rows(&mut out, per_instance);
    out
}

/// Evaluates every `(algorithm, mode)` column of `cells` over a shared
/// stream of `instances` seeded instances of `spec` — the instance-major
/// fast path.
///
/// Each instance is sampled **once** and its [`Artifacts`] are computed
/// **once**; every column then initializes its policy from the shared
/// bundle (`Policy::init_with_artifacts`). Instances fan across up to
/// `workers` persistent pool threads (`None` = the whole team), each
/// evaluating on its thread's [`WorkerCtx`] — reused workspace, warm
/// policy values. For any column, the ratios are bit-identical to
/// `run_cell_ratios` on the equivalent [`Cell`] — sharing is sound because
/// cells compare on common random numbers, and artifact initialization,
/// workspace reuse, and policy reuse are each bit-identical to the cold
/// path by contract.
pub fn run_sweep(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    instances: usize,
    base_seed: u64,
    workers: Option<usize>,
) -> Vec<SweepCellResult> {
    run_sweep_observed(
        spec,
        cells,
        instances,
        base_seed,
        workers,
        ObsConfig::default(),
    )
}

/// As [`run_sweep`], recording the observability channels selected by
/// `observe` along the way: per-type utilization timelines, assign/epoch
/// latency and queue-depth histograms, and a structured event trace.
///
/// Recording is observe-only — the ratios and logical counters are
/// bit-identical to [`run_sweep`] with recording off (property-tested at
/// the engine level) — and bounded: histograms are fixed-size and merged
/// across instances, and events are captured for **instance 0 only**, so
/// one trace per column survives regardless of the sweep size. Per-column
/// payloads land on [`SweepCellResult::obs`].
pub fn run_sweep_observed(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    instances: usize,
    base_seed: u64,
    workers: Option<usize>,
    observe: ObsConfig,
) -> Vec<SweepCellResult> {
    // Artifacts are only consumed by offline policies; a sweep of purely
    // online columns (e.g. KGreedy alone) skips the precompute entirely.
    let any_offline = cells.iter().any(|c| c.algo.is_offline());
    // Dispatch granularity: instance-level fan-out cannot occupy the team
    // when instances are few but heavy (the Large/Huge bench shape — 4
    // instances on an 8-wide team leaves half the workers idle). Below
    // `team × 4` instances, (instance, cell) pairs become the work items
    // instead; above it, the instance-level path is preferred since it
    // keeps only one job + artifact bundle alive per worker rather than
    // one per instance. Results are bit-identical either way (each pair's
    // evaluation depends only on its shared, read-only instance bundle).
    let team = workers.unwrap_or_else(|| fhs_par::pool().workers()).max(1);
    if instances < team.saturating_mul(4) && cells.len() > 1 {
        return run_sweep_fine(
            spec,
            cells,
            instances,
            base_seed,
            workers,
            any_offline,
            observe,
        );
    }
    let per_instance = run_sweep_rows(
        spec,
        cells,
        0..instances as u64,
        base_seed,
        workers,
        observe,
    );
    transpose(cells.len(), instances, per_instance)
}

/// Evaluates the absolute instance indices in `range` for every column
/// of `cells` and returns the raw **rows** (one [`InstanceRuns`] per
/// instance, in instance order) instead of folded columns.
///
/// This is the sharding primitive: instance `i` is seeded
/// `instance_seed(base_seed, i)` regardless of the range bounds, so a
/// process evaluating `lo..hi` produces exactly the rows the unsharded
/// sweep would produce at those positions — fold any partition of
/// `0..instances` back together in order ([`fold_rows`]) and the columns
/// are bit-identical to [`run_sweep_observed`]. The instance-0 event
/// gate stays absolute too: only the shard containing instance 0
/// captures a trace.
pub fn run_sweep_rows(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    range: std::ops::Range<u64>,
    base_seed: u64,
    workers: Option<usize>,
    observe: ObsConfig,
) -> Vec<InstanceRuns> {
    let any_offline = cells.iter().any(|c| c.algo.is_offline());
    let spec = *spec;
    let cols: Arc<[SweepCell]> = cells.into();
    let eval = move |i: u64| -> InstanceRuns {
        let inst = Instance::sample(&spec, base_seed, i, any_offline);
        with_worker_ctx(|ctx| {
            cols.iter()
                .map(|cell| {
                    let (ws, policy) = ctx.parts(cell.algo);
                    inst.eval(ws, policy, cell, observe, i)
                })
                .collect()
        })
    };
    pool_map(workers, range, eval)
}

/// The fine-grained sweep: stage A samples and analyzes every instance in
/// parallel (one bundle each), stage B fans the `instances × cells` pairs
/// across the pool, so even a 4-instance sweep keeps a full team busy.
/// Holds every instance bundle alive for the duration — callers gate on
/// instance count to keep that affordable.
fn run_sweep_fine(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    instances: usize,
    base_seed: u64,
    workers: Option<usize>,
    any_offline: bool,
    observe: ObsConfig,
) -> Vec<SweepCellResult> {
    let spec = *spec;
    let prep = move |i: u64| Arc::new(Instance::sample(&spec, base_seed, i, any_offline));
    let prepared = Arc::new(pool_map(workers, 0..instances as u64, prep));

    let cols: Arc<[SweepCell]> = cells.into();
    let ncells = cells.len();
    let pairs: Vec<(usize, usize)> = (0..instances)
        .flat_map(|i| (0..ncells).map(move |c| (i, c)))
        .collect();
    let eval = move |(i, c): (usize, usize)| -> (f64, RunStats, Option<Box<RunObs>>) {
        let cell = &cols[c];
        with_worker_ctx(|ctx| {
            let (ws, policy) = ctx.parts(cell.algo);
            prepared[i].eval(ws, policy, cell, observe, i as u64)
        })
    };
    let mut flat = pool_map(workers, pairs, eval).into_iter();
    let per_instance = (0..instances)
        .map(|_| flat.by_ref().take(ncells).collect())
        .collect();
    transpose(ncells, instances, per_instance)
}

/// The pre-pool instance-major path: scoped threads spawned per call, a
/// cold policy and cold engine state for every evaluation. Artifacts are
/// still shared per instance. Kept as the measured baseline for the
/// steady-state layer (the `pool` bench asserts [`run_sweep`] beats it and
/// stays bit-identical to it).
pub fn run_sweep_unpooled(
    spec: &WorkloadSpec,
    cells: &[SweepCell],
    instances: usize,
    base_seed: u64,
    workers: Option<usize>,
) -> Vec<SweepCellResult> {
    let any_offline = cells.iter().any(|c| c.algo.is_offline());
    let eval = |i: u64| -> InstanceRuns {
        let inst = Instance::sample(spec, base_seed, i, any_offline);
        cells
            .iter()
            .map(|cell| {
                let mut policy = make_policy(cell.algo);
                let mut ws = Workspace::new();
                inst.eval(&mut ws, policy.as_mut(), cell, ObsConfig::default(), i)
            })
            .collect()
    };
    let per_instance = match workers {
        Some(w) => fhs_par::parallel_map_with(w, 0..instances as u64, eval),
        None => fhs_par::parallel_map(0..instances as u64, eval),
    };
    transpose(cells.len(), instances, per_instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_workloads::{resources::SystemSize, Family, Typing};

    fn small_cell(algo: Algorithm) -> Cell {
        Cell::new(
            WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 3),
            algo,
            Mode::NonPreemptive,
        )
    }

    #[test]
    fn instance_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..1000).map(|i| instance_seed(42, i)).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn ratios_are_at_least_one() {
        let r = run_cell_ratios(&small_cell(Algorithm::KGreedy), 20, 1, Some(2));
        assert_eq!(r.len(), 20);
        assert!(r.iter().all(|&x| x >= 1.0));
    }

    #[test]
    fn results_are_independent_of_worker_count() {
        let c = small_cell(Algorithm::Mqb);
        let seq = run_cell_ratios(&c, 12, 9, Some(1));
        let par = run_cell_ratios(&c, 12, 9, Some(4));
        assert_eq!(seq, par);
    }

    #[test]
    fn summary_matches_raw_ratios() {
        let c = small_cell(Algorithm::LSpan);
        let raw = run_cell_ratios(&c, 15, 3, Some(2));
        let s = run_cell(&c, 15, 3, Some(2));
        assert_eq!(s.n, 15);
        assert!((s.mean - raw.iter().sum::<f64>() / 15.0).abs() < 1e-12);
    }

    #[test]
    fn instrumented_ratios_match_plain_and_counters_aggregate() {
        let c = small_cell(Algorithm::DType);
        let plain = run_cell_ratios(&c, 8, 4, Some(2));
        let cells = [SweepCell::new(c.algo, c.mode)];
        let rows = run_sweep_rows(&c.spec, &cells, 0..8, 4, Some(2), ObsConfig::default());
        let ratios: Vec<f64> = rows.iter().map(|row| row[0].0).collect();
        assert_eq!(plain, ratios, "instrumentation must not perturb results");
        let mut merged = RunStats::default();
        for row in &rows {
            assert!(row[0].1.epochs > 0);
            merged.merge(&row[0].1);
        }
        let mut cols = new_sweep_columns(1);
        fold_rows(&mut cols, rows);
        let total = cols[0].stats;
        assert_eq!(merged, total);
        assert_eq!(
            total.transitions.releases, total.transitions.completions,
            "every released task completes"
        );
    }

    #[test]
    fn cell_runs_reuse_worker_workspaces() {
        // The whole point of the steady-state layer: across a column's
        // instances, at most one engine init per worker is cold. (This
        // worker's thread-local context may already be warm from another
        // test, so only the upper bound is asserted.)
        let c = small_cell(Algorithm::LSpan);
        let cells = [SweepCell::new(c.algo, c.mode)];
        let total = run_sweep(&c.spec, &cells, 10, 2, Some(1))[0].stats;
        assert_eq!(total.workspace_reuses + total.workspace_cold_inits, 10);
        assert!(
            total.workspace_reuses >= 9,
            "expected ≥9 warm runs of 10, got {}",
            total.workspace_reuses
        );
    }

    #[test]
    fn sweep_matches_cell_major_bitwise() {
        // The instance-major fast path must reproduce the cell-major
        // baseline exactly, per column, including the quantum cadence.
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
        let mut cells = vec![
            SweepCell::new(Algorithm::KGreedy, Mode::NonPreemptive),
            SweepCell::new(Algorithm::Mqb, Mode::Preemptive),
            SweepCell::new(Algorithm::LSpan, Mode::NonPreemptive),
            SweepCell::new(Algorithm::ShiftBT, Mode::Preemptive),
        ];
        cells.push(SweepCell {
            algo: Algorithm::Mqb,
            mode: Mode::Preemptive,
            quantum: Some(1),
        });
        let sweep = run_sweep(&spec, &cells, 10, 7, Some(3));
        assert_eq!(sweep.len(), cells.len());
        for (sc, col) in cells.iter().zip(&sweep) {
            let mut cell = Cell::new(spec, sc.algo, sc.mode);
            cell.quantum = sc.quantum;
            let cold = run_cell_ratios(&cell, 10, 7, Some(2));
            assert_eq!(col.ratios, cold, "{:?} diverged from cell-major", sc.algo);
            // Wall-clock nanos are never reproducible; the logical
            // counters must match a cold per-instance engine loop.
            let mut total = RunStats::default();
            for i in 0..10 {
                let seed = instance_seed(7, i);
                let (job, cfg) = spec.sample(seed);
                let mut opts = RunOptions::seeded(seed);
                opts.quantum = sc.quantum;
                let mut policy = make_policy(sc.algo);
                let out = fhs_sim::engine::run(&job, &cfg, policy.as_mut(), sc.mode, &opts);
                total.merge(&out.stats);
            }
            assert_eq!(col.stats.epochs, total.epochs);
            assert_eq!(col.stats.tasks_assigned, total.tasks_assigned);
            assert_eq!(col.stats.transitions, total.transitions);
        }
    }

    #[test]
    fn pooled_sweep_matches_unpooled_bitwise() {
        // The steady-state layer (persistent pool + warm workspaces and
        // policies) against the spawn-per-call cold path it replaced.
        let spec = WorkloadSpec::new(Family::Tree, Typing::Random, SystemSize::Small, 3);
        let cells = [
            SweepCell::new(Algorithm::Mqb, Mode::NonPreemptive),
            SweepCell::new(Algorithm::KGreedy, Mode::Preemptive),
            SweepCell::new(Algorithm::ShiftBT, Mode::NonPreemptive),
        ];
        let warm = run_sweep(&spec, &cells, 9, 13, None);
        let cold = run_sweep_unpooled(&spec, &cells, 9, 13, None);
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.ratios, c.ratios);
            assert_eq!(w.stats.epochs, c.stats.epochs);
            assert_eq!(w.stats.tasks_assigned, c.stats.tasks_assigned);
            assert_eq!(w.stats.transitions, c.stats.transitions);
        }
    }

    #[test]
    fn sweep_is_worker_count_independent() {
        let spec = WorkloadSpec::new(Family::Ep, Typing::Random, SystemSize::Small, 3);
        let cells = [
            SweepCell::new(Algorithm::MaxDP, Mode::NonPreemptive),
            SweepCell::new(Algorithm::DType, Mode::Preemptive),
        ];
        let seq = run_sweep(&spec, &cells, 12, 11, Some(1));
        let par = run_sweep(&spec, &cells, 12, 11, Some(4));
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.ratios, b.ratios);
            assert_eq!(a.stats.epochs, b.stats.epochs);
            assert_eq!(a.stats.transitions, b.stats.transitions);
        }
    }

    #[test]
    fn fine_and_coarse_dispatch_agree_bitwise() {
        // With Some(4) workers and 6 instances the (instance, cell)
        // fine-grained path runs (6 < 4×4); with Some(1) and the same
        // seeds the instance-level path runs (6 ≥ 1×4). Both must produce
        // identical columns.
        let spec = WorkloadSpec::new(Family::Ir, Typing::Random, SystemSize::Small, 3);
        let cells = [
            SweepCell::new(Algorithm::Mqb, Mode::NonPreemptive),
            SweepCell::new(Algorithm::ShiftBT, Mode::Preemptive),
            SweepCell::new(Algorithm::KGreedy, Mode::NonPreemptive),
        ];
        let fine = run_sweep(&spec, &cells, 6, 17, Some(4));
        let coarse = run_sweep(&spec, &cells, 6, 17, Some(1));
        for (f, c) in fine.iter().zip(&coarse) {
            assert_eq!(f.ratios, c.ratios);
            assert_eq!(f.stats.epochs, c.stats.epochs);
            assert_eq!(f.stats.tasks_assigned, c.stats.tasks_assigned);
            assert_eq!(f.stats.transitions, c.stats.transitions);
        }
    }

    #[test]
    fn observed_sweep_is_observe_only_and_carries_payloads() {
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
        let cells = [
            SweepCell::new(Algorithm::Mqb, Mode::NonPreemptive),
            SweepCell::new(Algorithm::KGreedy, Mode::Preemptive),
        ];
        let plain = run_sweep(&spec, &cells, 8, 5, Some(2));
        let observed = run_sweep_observed(&spec, &cells, 8, 5, Some(2), ObsConfig::all());
        for (p, o) in plain.iter().zip(&observed) {
            assert_eq!(p.ratios, o.ratios, "recording must not perturb results");
            assert_eq!(p.stats.epochs, o.stats.epochs);
            assert_eq!(p.stats.tasks_assigned, o.stats.tasks_assigned);
            assert_eq!(p.stats.transitions, o.stats.transitions);
            assert!(p.obs.is_none(), "no payload without recording");
            let obs = o.obs.as_ref().expect("payload present when recording");
            assert_eq!(obs.runs, 8);
            assert_eq!(obs.util.runs, 8);
            // One assign sample per epoch; one depth sample per type per
            // epoch — across all instances.
            assert_eq!(obs.assign_ns.count, o.stats.epochs);
            assert_eq!(obs.queue_depth.count, o.stats.epochs * 3);
            let trace = obs.trace.as_ref().expect("instance-0 trace captured");
            assert_eq!(trace.k, 3);
            assert!(!trace.events.is_empty());
        }
    }

    #[test]
    fn observed_aggregates_are_worker_count_independent() {
        // The utilization sums are f64 folds; absorbing runs in instance
        // order (transpose) must make them bit-identical for any team.
        let spec = WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 3);
        let cells = [SweepCell::new(Algorithm::LSpan, Mode::NonPreemptive)];
        let oc = ObsConfig {
            utilization: true,
            ..ObsConfig::default()
        };
        let seq = run_sweep_observed(&spec, &cells, 10, 23, Some(1), oc);
        let par = run_sweep_observed(&spec, &cells, 10, 23, Some(4), oc);
        let (a, b) = (seq[0].obs.as_ref().unwrap(), par[0].obs.as_ref().unwrap());
        assert_eq!(a.util.sum_util, b.util.sum_util);
        assert_eq!(a.util.sum_drain_frac, b.util.sum_drain_frac);
        assert_eq!(
            a.util.sum_imbalance.to_bits(),
            b.util.sum_imbalance.to_bits()
        );
        assert_eq!(a.util.sum_cov.to_bits(), b.util.sum_cov.to_bits());
        assert!(a.trace.is_none(), "events were not requested");
    }

    #[test]
    fn online_only_sweep_skips_artifacts_and_still_matches() {
        // A sweep of purely online columns takes the no-precompute branch;
        // it must still agree with the cold path.
        let spec = WorkloadSpec::new(Family::Tree, Typing::Layered, SystemSize::Small, 3);
        assert!(!Algorithm::KGreedy.is_offline());
        let cells = [SweepCell::new(Algorithm::KGreedy, Mode::NonPreemptive)];
        let sweep = run_sweep(&spec, &cells, 8, 21, Some(2));
        let cold = run_cell_ratios(
            &Cell::new(spec, Algorithm::KGreedy, Mode::NonPreemptive),
            8,
            21,
            Some(2),
        );
        assert_eq!(sweep[0].ratios, cold);
    }

    #[test]
    fn sweep_summary_matches_ratios() {
        let spec = WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 3);
        let cells = [SweepCell::new(Algorithm::LSpan, Mode::NonPreemptive)];
        let sweep = run_sweep(&spec, &cells, 15, 3, Some(2));
        let s = sweep[0].summary();
        assert_eq!(s.n, 15);
        let mean = sweep[0].ratios.iter().sum::<f64>() / 15.0;
        assert!((s.mean - mean).abs() < 1e-12);
    }

    #[test]
    fn algorithms_share_instances_via_common_seeds() {
        // Paired comparison: the job sampled for instance i must be the
        // same across algorithms (common random numbers).
        let a = small_cell(Algorithm::KGreedy);
        let seed = instance_seed(5, 3);
        let (job_a, cfg_a) = a.spec.sample(seed);
        let (job_b, cfg_b) = small_cell(Algorithm::Mqb).spec.sample(seed);
        assert_eq!(job_a.num_tasks(), job_b.num_tasks());
        assert_eq!(cfg_a, cfg_b);
    }
}
