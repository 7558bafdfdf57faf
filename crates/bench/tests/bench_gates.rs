//! Release-only speed gates. Each test first checks that the fast path
//! does the same work as the path it is measured against (its retained
//! oracle, the cold path, or the unobserved run). Only then does it time
//! both in this binary and assert a ratio, a growth exponent or an
//! overhead bound:
//!
//! * **Scale ladder** (DESIGN.md §9, §14): ShiftBT init grows
//!   sub-quadratically from Large to Huge, the Huge rung is a ≥100k-task
//!   instance, and MQB-Approx never costs more than exact MQB on any
//!   rung.
//! * **Antichain rung** (§14): on the antichain, where dominance prunes
//!   nothing, MQB-Approx grows near-linearly from n = 2000 to n = 8000.
//! * **ShiftBT init** (§9): the incremental init reproduces
//!   the from-scratch oracle (`core/tests/support/shiftbt_reference.rs`)
//!   exactly.
//! * **Observability** (§10): the steady-state recording channels cost
//!   ≤ 5% on a Large instance.
//! * **Sweep and pool** (§7, §8): instance-major ≡ cell-major and ≥ 2×
//!   faster; pooled ≡ cold bitwise.
//! * **Engine** (§6): the indexed engine matches `sim::reference` and is
//!   ≥ 2× faster on a wide flat job.
//!
//! Gates whose margin is the host's rather than the code's are
//! `#[ignore]`d and run by hand with `-- --ignored`: the pooled sweep
//! against a wall time another process recorded, and ShiftBT init ≥ 3×
//! its oracle, a ratio that sits at its floor on a shared 2-vCPU host.
//! The Huge-rung wall-clock budgets live in `perf_smoke`. Debug builds
//! skip the rest.
//!
//! ```console
//! cargo test -p fhs-bench --release --test bench_gates -- --nocapture
//! ```

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use fhs_core::shiftbt::ShiftBT;
use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
use fhs_experiments::runner::{instance_seed, run_sweep, SweepCell};
use fhs_sim::{
    engine, reference, Assignments, EpochView, MachineConfig, Mode, ObsConfig, Policy, RunOptions,
    Workspace,
};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::precompute::Artifacts;
use kdag::{KDag, KDagBuilder};

#[path = "../../experiments/tests/support/baselines.rs"]
mod baselines;
use baselines::cold_sweep;
#[path = "../../core/tests/support/antichain.rs"]
mod antichain;
#[path = "../../core/tests/support/shiftbt_reference.rs"]
mod shiftbt_reference;
use antichain::antichain;

/// Base seed of the Large observability instance and sweep grid.
const BASE_SEED: u64 = 0xBE7C;

/// Serializes this file's tests: every gate times on a quiet host.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Timing.

/// Per-variant timings over `rounds` interleaved rounds, in nanoseconds.
/// Each round times every variant once, back to back, so load drift on a
/// shared machine hits all variants alike rather than landing on one side
/// of a ratio. Returns `timings[variant][round]`.
fn interleaved_nanos(rounds: usize, variants: &mut [&mut dyn FnMut()]) -> Vec<Vec<u128>> {
    let mut out = vec![Vec::with_capacity(rounds); variants.len()];
    for _ in 0..rounds {
        for (ts, f) in out.iter_mut().zip(variants.iter_mut()) {
            let t0 = Instant::now();
            f();
            ts.push(t0.elapsed().as_nanos());
        }
    }
    out
}

/// Minimum of one variant's timings: the noise-robust best case.
fn min_nanos(ts: &[u128]) -> u128 {
    *ts.iter().min().expect("at least one sample")
}

/// Median of the per-round `variant/base` ratios. Each round's ratio
/// compares two adjacent runs, cancelling slow drift, and the median
/// discards interrupt spikes on either side.
fn median_ratio(variant: &[u128], base: &[u128]) -> f64 {
    let mut rs: Vec<f64> = variant
        .iter()
        .zip(base)
        .map(|(&v, &b)| v as f64 / b.max(1) as f64)
        .collect();
    rs.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    rs[rs.len() / 2]
}

/// One warm non-preemptive run of `algo` on a reused workspace.
fn run_warm(
    ws: &mut Workspace,
    job: &KDag,
    cfg: &MachineConfig,
    algo: Algorithm,
    opts: &RunOptions,
) -> u64 {
    let mut policy = make_policy(algo);
    engine::run_in(ws, job, cfg, policy.as_mut(), Mode::NonPreemptive, opts).makespan
}

// ---------------------------------------------------------------------------
// Scale ladder: layered IR, K = 4, one fixed instance per size class.

/// Seed 2 lands the Huge layered IR instance at ~110k tasks (the one
/// `perf_smoke` and `huge_smoke` run).
const LADDER_SEED: u64 = 2;

fn ladder_instance(size: SystemSize) -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Ir, Typing::Layered, size, 4).sample(LADDER_SEED)
}

/// Fitted growth exponent of `t` against `n` between two rungs:
/// `ln(t2/t1) / ln(n2/n1)`. Linear ⇒ ~1, quadratic ⇒ ~2.
fn exponent(n1: usize, t1: u128, n2: usize, t2: u128) -> f64 {
    let (t1, t2) = (t1.max(1) as f64, t2.max(1) as f64);
    (t2 / t1).ln() / (n2 as f64 / n1 as f64).ln()
}

struct Rung {
    tasks: usize,
    shiftbt_init_ns: u128,
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gates run in --release")]
fn scale_ladder_grows_subquadratically_and_mqb_approx_never_costs_more() {
    let _serial = serial();
    // Interleaved rounds per rung. Below Huge, MQB-Approx undercuts exact
    // MQB by only about 10%, which a load burst lasting every round of a
    // rung can eat. A Small round costs tens of µs, a Medium one a few
    // hundred and a Large one a few ms, so those rungs take many rounds
    // to outlast a burst.
    let ladder = [
        (SystemSize::Small, 401),
        (SystemSize::Medium, 201),
        (SystemSize::Large, 61),
        (SystemSize::Huge, 2),
    ];
    let mut rungs = Vec::new();
    for (size, rounds) in ladder {
        let (job, cfg) = ladder_instance(size);
        let unplanned = unplanned_bundles(&job, rounds);
        let mut unplanned = unplanned.iter();
        let mut shiftbt = ShiftBT::default();
        let (mut ws_mqb, mut ws_approx) = (Workspace::new(), Workspace::new());
        let opts = RunOptions::seeded(LADDER_SEED);
        let ts = interleaved_nanos(
            rounds,
            &mut [
                &mut || {
                    let bundle = unplanned.next().expect("one bundle per round");
                    shiftbt.init(&job, &cfg, LADDER_SEED, bundle);
                    black_box(&shiftbt);
                },
                &mut || {
                    black_box(run_warm(&mut ws_mqb, &job, &cfg, Algorithm::Mqb, &opts));
                },
                &mut || {
                    black_box(run_warm(
                        &mut ws_approx,
                        &job,
                        &cfg,
                        Algorithm::MqbApprox,
                        &opts,
                    ));
                },
            ],
        );
        let [shiftbt_init_ns, mqb_ns, approx_ns] = [0, 1, 2].map(|v| min_nanos(&ts[v]));
        println!(
            "{:<7} {:>7} tasks | shiftbt-init {shiftbt_init_ns:>11} mqb {mqb_ns:>11} \
             mqb-approx {approx_ns:>11} ns (approx/exact {:.3})",
            size.label(),
            job.num_tasks(),
            approx_ns as f64 / mqb_ns as f64
        );
        assert!(
            approx_ns <= mqb_ns,
            "MQB-Approx must not cost more than exact MQB ({}: approx {approx_ns} ns > \
             exact {mqb_ns} ns)",
            size.label()
        );
        rungs.push(Rung {
            tasks: job.num_tasks(),
            shiftbt_init_ns,
        });
    }
    let (large, huge) = (&rungs[2], &rungs[3]);
    assert!(
        huge.tasks >= 100_000,
        "Huge rung must be a ≥100k-task instance, got {}",
        huge.tasks
    );
    let shiftbt_exp = exponent(
        large.tasks,
        large.shiftbt_init_ns,
        huge.tasks,
        huge.shiftbt_init_ns,
    );
    println!("Large→Huge exponent: shiftbt init {shiftbt_exp:.3}");
    assert!(
        shiftbt_exp < 1.9,
        "ShiftBT init must scale sub-quadratically Large→Huge (exponent {shiftbt_exp:.3})"
    );
}

/// One cold non-preemptive run of `algo` on an antichain instance:
/// candidates evaluated.
fn antichain_run((job, cfg): &(KDag, MachineConfig), algo: Algorithm) -> u64 {
    let mut policy = make_policy(algo);
    let out = engine::run(
        job,
        cfg,
        policy.as_mut(),
        Mode::NonPreemptive,
        &RunOptions::seeded(1),
    );
    out.stats.selection.candidates_evaluated
}

/// The antichain rung (`core/tests/support/antichain.rs`): no root
/// dominates another, so exact MQB evaluates every queued root on every
/// pick — n² evaluations — and its times are printed, not asserted.
/// MQB-Approx evaluates at most `cap` candidates per pick and reads its
/// window off a journal-fed order, so its cost must grow near-linearly:
/// first the work (evaluations grow at most 4.2× for 4× the roots), then
/// the time, as a growth exponent below 1.3 from n = 2000 to n = 8000
/// (min of five interleaved rounds per size).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gates run in --release")]
fn antichain_rung_mqb_approx_grows_near_linearly() {
    let _serial = serial();
    for n in [1000, 2000] {
        let instance = antichain(n);
        let t0 = Instant::now();
        let evaluated = antichain_run(&instance, Algorithm::Mqb);
        let ns = t0.elapsed().as_nanos();
        println!("antichain n={n:<5} mqb        {ns:>11} ns, {evaluated} evaluated");
    }
    let (small, large) = (antichain(2000), antichain(8000));
    let (e1, e2) = (
        antichain_run(&small, Algorithm::MqbApprox),
        antichain_run(&large, Algorithm::MqbApprox),
    );
    assert!(
        e2 <= e1 * 42 / 10,
        "MQB-Approx evaluations grew super-linearly on the antichain ({e1} → {e2})"
    );
    let ts = interleaved_nanos(
        5,
        &mut [
            &mut || {
                black_box(antichain_run(&small, Algorithm::MqbApprox));
            },
            &mut || {
                black_box(antichain_run(&large, Algorithm::MqbApprox));
            },
        ],
    );
    let (t1, t2) = (min_nanos(&ts[0]), min_nanos(&ts[1]));
    let exp = exponent(2000, t1, 8000, t2);
    println!(
        "antichain mqb-approx: n=2000 {t1} ns ({e1} evaluated), n=8000 {t2} ns \
         ({e2} evaluated), exponent {exp:.3}"
    );
    assert!(
        exp < 1.3,
        "MQB-Approx must grow near-linearly on the antichain (exponent {exp:.3})"
    );
}

/// `n` bundles holding `job`'s spans (which the due dates are read off)
/// but no sequence plan: a ShiftBT init on one runs the bottleneck
/// sequencing instead of taking a plan an earlier init left in the
/// bundle. Built, and dropped, outside the
/// timed closures.
fn unplanned_bundles(job: &KDag, n: usize) -> Vec<Artifacts> {
    (0..n)
        .map(|_| {
            let bundle = Artifacts::new();
            bundle.spans(job);
            bundle
        })
        .collect()
}

/// The Large ladder instance and a warm ShiftBT whose bottleneck order
/// and rank table are checked equal to the from-scratch oracle's.
fn shiftbt_matching_oracle_on_large() -> (KDag, MachineConfig, Arc<Artifacts>, ShiftBT) {
    let (job, cfg) = ladder_instance(SystemSize::Large);
    let artifacts = Arc::new(Artifacts::compute(&job));
    let (oracle_order, oracle_rank) =
        shiftbt_reference::bottleneck_sequencing(&job, &cfg, &artifacts.due_dates(&job).to_vec());
    let mut p = ShiftBT::default();
    p.init(&job, &cfg, LADDER_SEED, &artifacts);
    let plan = artifacts.sequence_plan(cfg.procs_per_type(), || unreachable!("init stored it"));
    let plan_rank: Vec<f64> = plan.rank.iter().map(|&r| f64::from(r)).collect();
    assert_eq!(plan.bottleneck_order, oracle_order, "oracle disagreement");
    assert_eq!(plan_rank, oracle_rank, "oracle disagreement");
    (job, cfg, artifacts, p)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Large instances run in --release")]
fn shiftbt_init_matches_oracle_on_large() {
    let _serial = serial();
    shiftbt_matching_oracle_on_large();
}

#[test]
#[ignore = "host-speed gate: the ratio sits at its 3× floor on a shared 2-vCPU host"]
fn shiftbt_init_is_3x_faster_than_oracle_on_large() {
    let _serial = serial();
    let (job, cfg, artifacts, p) = shiftbt_matching_oracle_on_large();
    // Both sides over the same rounds, so a load burst cannot favour one
    // min. Each side runs twice per round and only the second run counts:
    // the timed run starts with its own working set in cache, as it does
    // when a warm policy re-inits back to back.
    const ROUNDS: usize = 31;
    let p = RefCell::new(p);
    let unplanned = unplanned_bundles(&job, 2 * ROUNDS);
    let unplanned = RefCell::new(unplanned.iter());
    let due = artifacts.due_dates(&job).to_vec();
    let init = || {
        let bundle = unplanned.borrow_mut().next().expect("one bundle per init");
        let mut p = p.borrow_mut();
        p.init(&job, &cfg, LADDER_SEED, bundle);
        black_box(&*p);
    };
    let oracle = || {
        black_box(shiftbt_reference::bottleneck_sequencing(&job, &cfg, &due));
    };
    let ts = interleaved_nanos(
        ROUNDS,
        &mut [&mut &init, &mut &init, &mut &oracle, &mut &oracle],
    );
    let (warm_ns, oracle_ns) = (min_nanos(&ts[1]), min_nanos(&ts[3]));
    let speedup = oracle_ns as f64 / warm_ns as f64;
    println!("ShiftBT init on Large: warm {warm_ns} ns, oracle {oracle_ns} ns ({speedup:.2}x)");
    assert!(
        speedup >= 3.0,
        "incremental ShiftBT init must be ≥3× the from-scratch oracle on Large \
         (got {speedup:.2}×)"
    );
}

// ---------------------------------------------------------------------------
// Observability overhead.

/// The sweep pipeline's steady-state recording channels
/// (`--utilization --instrument`, `--metrics-out`).
fn steady_channels() -> ObsConfig {
    ObsConfig {
        utilization: true,
        latency: true,
        events: false,
        event_cap: 0,
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gates run in --release")]
fn steady_observability_costs_at_most_5_percent_on_large() {
    let _serial = serial();
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Large, 4);
    let (job, cfg) = spec.sample(instance_seed(BASE_SEED, 0));
    assert!(
        job.num_tasks() >= 1000,
        "headline instance too small: {} tasks",
        job.num_tasks()
    );
    let plain = RunOptions::seeded(1);
    let seen = RunOptions {
        observe: steady_channels(),
        ..RunOptions::seeded(1)
    };
    let traced = RunOptions {
        observe: ObsConfig::all(),
        ..RunOptions::seeded(1)
    };

    let mut worst: f64 = 0.0;
    for algo in [Algorithm::KGreedy, Algorithm::Mqb] {
        let ws = RefCell::new(Workspace::new());
        let m_plain = run_warm(&mut ws.borrow_mut(), &job, &cfg, algo, &plain);
        let m_seen = run_warm(&mut ws.borrow_mut(), &job, &cfg, algo, &seen);
        assert_eq!(
            m_plain,
            m_seen,
            "{}: recording changed the run",
            algo.label()
        );

        let timed = |opts: &RunOptions| {
            black_box(run_warm(&mut ws.borrow_mut(), &job, &cfg, algo, opts));
        };
        let ts = interleaved_nanos(
            101,
            &mut [&mut || timed(&plain), &mut || timed(&seen), &mut || {
                timed(&traced)
            }],
        );
        let overhead = median_ratio(&ts[1], &ts[0]) - 1.0;
        // The bounded event trace is paid by the one instance a sweep
        // traces; reported for context, not gated.
        let overhead_all = median_ratio(&ts[2], &ts[0]) - 1.0;
        println!(
            "obs {} on {} tasks: steady channels {:+.2}%, all channels {:+.2}% (unasserted)",
            algo.label(),
            job.num_tasks(),
            overhead * 100.0,
            overhead_all * 100.0
        );
        worst = worst.max(overhead);
    }

    assert!(
        worst <= 0.05,
        "observability overhead must be ≤5% on a Large instance (got {:.2}%)",
        worst * 100.0
    );
}

// ---------------------------------------------------------------------------
// Sweep and pool: Large layered IR, the full six-algorithm × two-mode grid.

const GRID_INSTANCES: usize = 4;

/// The pooled sweep's min-of-5 wall time on [`large_grid`] must beat this
/// by ≥ 1.3×: the instance-major median recorded before the steady-state
/// layer existed (same workload, grid, seed and instance count).
const RECORDED_PR2_INSTANCE_MAJOR_NS: u128 = 154_631_232;

/// The headline grid, checked to be in the ≥1000-task regime.
fn large_grid() -> (WorkloadSpec, Vec<SweepCell>) {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Large, 4);
    let min_tasks = (0..GRID_INSTANCES as u64)
        .map(|i| spec.sample(instance_seed(BASE_SEED, i)).0.num_tasks())
        .min()
        .expect("instances");
    assert!(
        min_tasks >= 1000,
        "headline instances too small: {min_tasks} tasks"
    );
    let cells = [Mode::NonPreemptive, Mode::Preemptive]
        .into_iter()
        .flat_map(|mode| ALL_ALGORITHMS.map(|algo| SweepCell::new(algo, mode)))
        .collect();
    (spec, cells)
}

fn instance_major(spec: &WorkloadSpec, cells: &[SweepCell]) -> Vec<Vec<f64>> {
    let cols = run_sweep(spec, cells, GRID_INSTANCES, BASE_SEED, None);
    cols.into_iter().map(|col| col.ratios).collect()
}

/// The cold sweep's columns: every instance analyzed once, a fresh
/// policy and workspace per evaluation.
fn unpooled(spec: &WorkloadSpec, cells: &[SweepCell]) -> Vec<Vec<f64>> {
    let cols = cold_sweep(spec, cells, GRID_INSTANCES, BASE_SEED);
    cols.into_iter().map(|col| col.ratios).collect()
}

/// One independent pass per cell: what a per-figure loop over algorithms
/// does.
fn cell_major(spec: &WorkloadSpec, cells: &[SweepCell]) -> Vec<Vec<f64>> {
    baselines::cell_major(spec, cells, GRID_INSTANCES, BASE_SEED)
}

/// Pooled ≡ cold, checked before any pool timing.
fn assert_pooled_matches_cold(spec: &WorkloadSpec, cells: &[SweepCell]) {
    assert_eq!(
        instance_major(spec, cells),
        unpooled(spec, cells),
        "pooled sweep diverged from cold"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "Large grids run in --release")]
fn pooled_sweep_matches_cold_bitwise_on_large_grid() {
    let _serial = serial();
    let (spec, cells) = large_grid();
    assert_pooled_matches_cold(&spec, &cells);
}

#[test]
#[ignore = "host-speed gate: compares against a wall time another process recorded"]
fn pooled_sweep_beats_recorded_pr2_baseline_by_1_3x() {
    let _serial = serial();
    let (spec, cells) = large_grid();
    assert_pooled_matches_cold(&spec, &cells);
    let ts = interleaved_nanos(
        5,
        &mut [&mut || {
            black_box(instance_major(&spec, &cells));
        }],
    );
    let pooled = min_nanos(&ts[0]);
    let speedup = RECORDED_PR2_INSTANCE_MAJOR_NS as f64 / pooled as f64;
    println!("pooled {pooled} ns vs recorded {RECORDED_PR2_INSTANCE_MAJOR_NS} ns ({speedup:.2}x)");
    assert!(
        speedup >= 1.3,
        "steady-state sweep must be ≥1.3× faster than the recorded PR-2 \
         instance-major baseline (got {speedup:.2}×)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gates run in --release")]
fn instance_major_sweep_matches_cell_major_and_is_2x_faster() {
    let _serial = serial();
    let (spec, cells) = large_grid();
    assert_eq!(
        instance_major(&spec, &cells),
        cell_major(&spec, &cells),
        "sweep paths diverged"
    );
    let ts = interleaved_nanos(
        3,
        &mut [
            &mut || {
                black_box(instance_major(&spec, &cells));
            },
            &mut || {
                black_box(cell_major(&spec, &cells));
            },
        ],
    );
    let speedup = median_ratio(&ts[1], &ts[0]);
    println!("instance-major vs cell-major on Large: {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "artifact-cached sweep must be ≥2× faster than cell-major (got {speedup:.2}×)"
    );
}

// ---------------------------------------------------------------------------
// Engine: indexed ready-set vs the linear-scan reference.

/// Takes the last `slots[α]` candidates of every queue, so every
/// transition of a linear-scan state walks past the whole queue.
struct BackOfQueue;

impl Policy for BackOfQueue {
    fn init(&mut self, _job: &KDag, _config: &MachineConfig, _seed: u64, _: &Artifacts) {}

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        for alpha in 0..view.config.num_types() {
            let queue = &view.queues[alpha];
            let skip = queue.len().saturating_sub(view.slots[alpha]);
            for rt in queue.iter().skip(skip) {
                out.push(alpha, rt.id);
            }
        }
    }
}

/// A dependency-free job of `n` tasks over `k` types: every task is
/// ready at t = 0. Works of 1..=3 keep some tasks receiving
/// non-completing progress under preemption.
fn flat_job(n: usize, k: usize) -> KDag {
    let mut b = KDagBuilder::new(k);
    for i in 0..n {
        b.add_task(i % k, 1 + (i as u64 * 7919) % 3);
    }
    b.build().expect("flat jobs are trivially acyclic")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing gates run in --release")]
fn indexed_engine_matches_reference_and_is_2x_faster_on_flat6000() {
    let _serial = serial();
    let job = flat_job(6000, 2);
    let cfg = MachineConfig::uniform(2, 8);
    let opts = RunOptions::default();
    let indexed = || engine::run(&job, &cfg, &mut BackOfQueue, Mode::Preemptive, &opts);
    let scan = || reference::run(&job, &cfg, &mut BackOfQueue, Mode::Preemptive, &opts);
    assert_eq!(indexed().makespan, scan().makespan, "engines diverged");

    let ts = interleaved_nanos(
        7,
        &mut [
            &mut || {
                black_box(indexed().makespan);
            },
            &mut || {
                black_box(scan().makespan);
            },
        ],
    );
    let speedup = median_ratio(&ts[1], &ts[0]);
    println!("indexed vs reference engine on flat6000: {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "indexed engine must be ≥2× faster than the reference (got {speedup:.2}×)"
    );
}
