//! Release-only smoke test for the `SystemSize::Huge` frontier: the full
//! analysis pipeline — generate → [`Artifacts`] → ShiftBT init → KGreedy
//! and MQB engine runs — on a ~110k-task layered IR instance.
//!
//! Two regression guards ride along:
//!
//! * **Memory**: a counting allocator tracks, per thread, the bytes
//!   requested and the bytes live. It pins what each component of a Huge
//!   run keeps: the instance ([`KDag`]), the bytes [`Artifacts::compute`]
//!   allocates (its tables' own storage, so a stored topological order or
//!   a copied table shows up as a byte count), what ShiftBT and LSpan
//!   retain past `init` (the plan in the bundle, and nothing per task of
//!   their own), and what an MQB run leaves in its policy and its
//!   workspace. The last two are exact values for the fixed seed, so the
//!   next cut to either shows as a changed pin. A second test pins what
//!   a warm sweep worker keeps — its workspace and its six policy values
//!   after every event column ran a smaller Huge instance, then a larger
//!   one — with each per-task table written as a formula in `n`, and
//!   prints it as the `huge smoke worker bytes:` line.
//! * **Wall clock**: each stage gets a generous budget that a linear or
//!   near-linear implementation clears by an order of magnitude, but a
//!   quadratic regression (≈1000× at this scale) cannot.
//!
//! Debug builds skip this (a Huge instance in debug takes minutes); CI
//! runs it in the `--release` step alongside the allocation regressions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
use fhs_sim::{engine, metrics, MachineConfig, Mode, Policy, RunOptions, Workspace};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::descendants::DescendantValues;
use kdag::distance::Distances;
use kdag::precompute::{Artifacts, SequencePlan};
use kdag::KDag;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Adds `d` to the thread's live-byte count.
fn live_add(d: i64) {
    let _ = LIVE.try_with(|b| b.set(b.get() + d));
}

/// [`System`] plus two per-thread counts: bytes requested (growth
/// included, frees never subtracted — same probe as `alloc_regression`)
/// and bytes live (frees subtracted).
struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the
// bookkeeping allocates nothing itself and `try_with` tolerates
// thread-teardown allocations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        live_add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        live_add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = BYTES.try_with(|b| b.set(b.get() + grown));
        live_add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn probe() -> u64 {
    BYTES.with(|b| b.get())
}

fn live() -> i64 {
    LIVE.with(|b| b.get())
}

/// Runs `f`, returning its result plus elapsed time, bytes allocated and
/// the change in live bytes.
fn staged<T>(f: impl FnOnce() -> T) -> (T, Duration, u64, i64) {
    let (b0, l0) = (probe(), live());
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed(), probe() - b0, live() - l0)
}

/// What one engine run keeps: its makespan and time, then the live bytes
/// left in its workspace and in its policy once the outcome is dropped.
struct Retained {
    makespan: u64,
    time: Duration,
    workspace: i64,
    policy: i64,
}

fn run_retaining(job: &KDag, cfg: &MachineConfig, algo: Algorithm) -> Retained {
    let l0 = live();
    let mut ws = Workspace::new();
    let mut policy = make_policy(algo);
    let (out, time, _, _) = staged(|| {
        engine::run_in(
            &mut ws,
            job,
            cfg,
            policy.as_mut(),
            Mode::NonPreemptive,
            &RunOptions::seeded(2),
        )
    });
    assert!(out.makespan > 0, "{}", algo.label());
    let makespan = out.makespan;
    drop(out);
    let both = live();
    drop(ws);
    let workspace = both - live();
    drop(policy);
    let policy = both - workspace - live();
    assert_eq!(
        live(),
        l0,
        "{}: the run leaked past its workspace and policy",
        algo.label()
    );
    Retained {
        makespan,
        time,
        workspace,
        policy,
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Huge instances are exercised in --release (its own CI step)"
)]
fn huge_pipeline_end_to_end() {
    // The Huge rung of `bench_gates`' scale ladder: layered IR, K = 4,
    // seed 2 → ~110k tasks.
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, 4);
    let ((job, cfg), gen_t, _, job_live) = staged(|| spec.sample(2));
    assert!(
        job.num_tasks() >= 100_000,
        "Huge rung must be a ≥100k-task instance, got {}",
        job.num_tasks()
    );
    let (n, e, k) = (job.num_tasks(), job.num_edges(), job.num_types());
    let word = std::mem::size_of::<usize>();

    // The instance: per task a type (u32), a work value (u64), a CSR
    // offset (u32) and a parent count (u32), 20 bytes; per edge a child
    // id (u32); the closing CSR offset; and the machine's K counts.
    let instance_bytes = (20 * n + 4 * e + 4 + word * k) as i64;
    assert_eq!(
        job_live, instance_bytes,
        "the Huge instance keeps {job_live} bytes, its tables need {instance_bytes}"
    );

    let (artifacts, art_t, art_bytes, _) = staged(|| Artifacts::compute(&job));
    // Each table's own storage and nothing else: per task, K descendant
    // values (f64), a type-blind value (f64), a remaining span (u64) and
    // a different-child distance (u32), 8K + 20 bytes; once, the
    // descendant sweep's K-wide accumulator; per table, the `Arc`
    // allocation holding two reference counts and the table's header.
    // The instance is id-ordered, so no topological order is allocated.
    let headers = 4 * 2 * word
        + std::mem::size_of::<DescendantValues>()
        + 2 * std::mem::size_of::<Vec<u64>>()
        + std::mem::size_of::<Distances>();
    let table_bytes = (n * (8 * k + 20) + 8 * k + headers) as u64;
    assert_eq!(
        art_bytes, table_bytes,
        "Artifacts::compute allocated {art_bytes} bytes on Huge, its tables need {table_bytes}"
    );
    let artifacts = Arc::new(artifacts);

    // ShiftBT keeps only the plan it stores in the bundle (a rank per
    // task, the bottleneck order, the processor counts, and the shared
    // allocation holding them): its relaxation scratch is gone once
    // `init` returns.
    let mut shiftbt = fhs_core::shiftbt::ShiftBT::default();
    let (_, shiftbt_t, _, shiftbt_live) = staged(|| {
        shiftbt.init(&job, &cfg, 2, &artifacts);
    });
    let plan = artifacts.sequence_plan(cfg.procs_per_type(), || unreachable!("init stored it"));
    assert_eq!(plan.bottleneck_order.len(), 4);
    assert_eq!(plan.rank.len(), job.num_tasks());
    let plan_bytes = 4 * n + 2 * word * k + 2 * word + std::mem::size_of::<SequencePlan>();
    let shiftbt_scratch = shiftbt_live - plan_bytes as i64;
    assert_eq!(
        shiftbt_scratch, 0,
        "ShiftBT init kept {shiftbt_scratch} bytes beyond its plan"
    );

    // LSpan holds the bundle's spans for the run: no table of its own.
    let mut lspan = make_policy(Algorithm::LSpan);
    let (_, _, _, lspan_live) = staged(|| lspan.init(&job, &cfg, 2, &artifacts));
    assert_eq!(lspan_live, 0, "LSpan init kept {lspan_live} bytes");
    lspan.detach_job();

    let kg = run_retaining(&job, &cfg, Algorithm::KGreedy);
    let mqb = run_retaining(&job, &cfg, Algorithm::Mqb);
    // Both schedules must at least cover the critical path.
    let span_floor = artifacts
        .spans(&job)
        .iter()
        .copied()
        .max()
        .expect("nonempty instance");
    assert!(kg.makespan >= span_floor && mqb.makespan >= span_floor);
    // What an MQB run leaves in its policy and its workspace, pinned
    // exactly for this seed (n = 109,576, K = 4) so the next cut to
    // either shows:
    // - MQB, 5,356,096 bytes: the task-indexed 16-byte member records
    //   (16n = 1,753,216); the row classes (a u32 per task at
    //   power-of-two capacity, 524,288), their representatives (262,144)
    //   and the open-addressing table that labels them at `init` and then
    //   finds the groups (1,048,576); the per-type group slabs, rows, free
    //   lists and frontiers (1,762,048); and 5,824 bytes of scratch and
    //   the policy value itself.
    // - The workspace, 4,091,284 bytes: five u32 per-task tables (status
    //   word, indegree, queue position, stamp and processor; 20n =
    //   2,191,520), the ready queues with their journals (1,622,432), the
    //   event calendar (263,680), and 13,652 bytes of per-type buffers.
    assert_eq!(mqb.policy, 5_356_096, "MQB kept {} bytes", mqb.policy);
    assert_eq!(
        mqb.workspace, 4_091_284,
        "MQB's workspace kept {} bytes",
        mqb.workspace
    );
    let (kg_t, mqb_t) = (kg.time, mqb.time);

    println!(
        "huge smoke: {n} tasks, {e} edges | gen {gen_t:?} artifacts {art_t:?} \
         shiftbt {shiftbt_t:?} kgreedy {kg_t:?} mqb {mqb_t:?}"
    );
    println!(
        "huge smoke bytes: instance {job_live} | artifacts {art_bytes} allocated | \
         shiftbt {shiftbt_live} live ({shiftbt_scratch} beyond the plan) | lspan {lspan_live} | \
         kgreedy policy {} workspace {} | mqb policy {} workspace {}",
        kg.policy, kg.workspace, mqb.policy, mqb.workspace,
    );

    // Wall-clock guards: analysis stages run in tens of milliseconds and
    // MQB in ~10 s on a single shared core; a quadratic (or worse)
    // regression at n ≈ 1.1 × 10⁵ blows through these by orders of
    // magnitude, while machine noise cannot.
    let analysis = gen_t + art_t + shiftbt_t;
    assert!(
        analysis < Duration::from_secs(30),
        "analysis pipeline took {analysis:?} on Huge — scaling regression?"
    );
    assert!(
        kg_t < Duration::from_secs(60),
        "KGreedy run took {kg_t:?} on Huge — scaling regression?"
    );
    // Post-PR-7 (incremental, index-pruned selection) an exact MQB run
    // sits at ~0.3 s here; 30 s is pure CI headroom and still two orders
    // of magnitude under the old quadratic scan's blowup trajectory.
    assert!(
        mqb_t < Duration::from_secs(30),
        "MQB run took {mqb_t:?} on Huge — scaling regression?"
    );
}

/// The live bytes a warm sweep worker's [`Workspace`] and six policy
/// values hold, measured by dropping each, after every event column has
/// run a smaller Huge instance and then a larger one.
fn worker_bytes() -> (usize, i64, Vec<(Algorithm, i64)>) {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, 4);
    let mut ws = Workspace::new();
    let mut policies: Vec<(Algorithm, Box<dyn Policy>)> = ALL_ALGORITHMS
        .into_iter()
        .map(|algo| (algo, make_policy(algo)))
        .collect();
    let mut n = 0;
    for seed in [8, 2] {
        let (job, cfg) = spec.sample(seed);
        let artifacts = Arc::new(Artifacts::compute(&job));
        for (algo, policy) in &mut policies {
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                let (result, _, _) = metrics::evaluate_observed_with_artifacts_in(
                    &mut ws,
                    &job,
                    &cfg,
                    policy.as_mut(),
                    mode,
                    &RunOptions::seeded(seed),
                    &artifacts,
                );
                assert!(result.ratio >= 1.0, "{} {mode:?}", algo.label());
            }
        }
        n = job.num_tasks();
    }
    let before = live();
    drop(ws);
    let workspace = before - live();
    let policies = policies
        .into_iter()
        .map(|(algo, policy)| {
            let before = live();
            drop(policy);
            (algo, before - live())
        })
        .collect();
    (n, workspace, policies)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Huge instances are exercised in --release (its own CI step)"
)]
fn a_warm_sweep_worker_keeps_each_per_task_fact_once() {
    let (n, workspace, policies) = worker_bytes();
    println!("huge smoke worker bytes: n {n} | workspace {workspace} | {policies:?}");
    // The instances are seed 8 (76,638 tasks), then seed 2 (n = 109,576).
    // The per-task tables grow by doubling: sized for the smaller job,
    // each holds max(2 × 76,638, n) = 153,276 slots after the larger.
    assert_eq!(n, 109_576);
    let slots = (2 * 76_638).max(n);
    // The workspace: five u32 per-task tables — the status word, indegree
    // and queue position of the job state, the duplicate-selection stamp
    // and the processor of the job runtime — then, pinned for these
    // seeds, the ready queues with their journals (2,073,952), the event
    // calendar, the recorder and the per-type buffers (278,216).
    let per_task = 4 * slots + 4 * slots + 4 * slots + 4 * slots + 4 * slots;
    assert_eq!(workspace, (per_task + 2_352_168) as i64, "the workspace");
    // MQB: the 16-byte member records and the u32 row classes (pushed,
    // so at power-of-two capacity), per task; then the class
    // representatives (262,144), the shared labelling and
    // group-key table (1,048,576), the per-type group slabs, rows, free
    // lists, frontiers and pending picks (1,801,216), and the scratch and
    // the policy value (7,933). The other five keep no per-task table:
    // KGreedy its permutation overrides, the offline four their ranked
    // selection index, each sized by the longest queue.
    let want = [
        (Algorithm::KGreedy, 447_520),
        (Algorithm::LSpan, 952_496),
        (Algorithm::DType, 725_520),
        (Algorithm::MaxDP, 627_296),
        (Algorithm::ShiftBT, 752_704),
        (
            Algorithm::Mqb,
            16 * slots + 4 * n.next_power_of_two() + 3_119_869,
        ),
    ];
    for ((algo, got), (want_algo, want)) in policies.into_iter().zip(want) {
        assert_eq!(algo, want_algo);
        assert_eq!(got, want as i64, "{} keeps {got} bytes", algo.label());
    }
}
