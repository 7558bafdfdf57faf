//! Release-only smoke test for the `SystemSize::Huge` frontier: the full
//! analysis pipeline — generate → [`Artifacts`] → ShiftBT init → KGreedy
//! and MQB engine runs — on a ~110k-task layered IR instance.
//!
//! Two regression guards ride along:
//!
//! * **Memory**: a counting allocator pins the bytes
//!   [`Artifacts::compute`] allocates to its tables' own storage, so a
//!   stored topological order or a copied table shows up as a byte count.
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

use fhs_core::{make_policy, Algorithm};
use fhs_sim::{engine, Mode, Policy, RunOptions, Workspace};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::descendants::DescendantValues;
use kdag::precompute::Artifacts;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of bytes requested (growth
/// included, frees never subtracted) — same probe as `alloc_regression`.
struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the
// bookkeeping allocates nothing itself and `try_with` tolerates
// thread-teardown allocations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size()) as u64;
        let _ = BYTES.try_with(|b| b.set(b.get() + grown));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn probe() -> u64 {
    BYTES.with(|b| b.get())
}

/// Runs `f`, returning its result plus elapsed time and bytes allocated.
fn staged<T>(f: impl FnOnce() -> T) -> (T, Duration, u64) {
    let b0 = probe();
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed(), probe() - b0)
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
    let ((job, cfg), gen_t, _) = staged(|| spec.sample(2));
    assert!(
        job.num_tasks() >= 100_000,
        "Huge rung must be a ≥100k-task instance, got {}",
        job.num_tasks()
    );

    let (artifacts, art_t, art_bytes) = staged(|| Artifacts::compute(&job));
    // Each table's own storage and nothing else: per task, K descendant
    // values (f64), a type-blind value (f64), a remaining span (u64) and
    // a different-child distance (Option<u32>), 8K + 24 bytes; once, the
    // descendant sweep's K-wide accumulator; per table, the `Arc`
    // allocation holding two reference counts and the table's header.
    // The instance is id-ordered, so no topological order is allocated.
    let (n, k) = (job.num_tasks(), job.num_types());
    let word = std::mem::size_of::<usize>();
    let headers = 4 * 2 * word
        + std::mem::size_of::<DescendantValues>()
        + 3 * std::mem::size_of::<Vec<u64>>();
    let table_bytes = (n * (8 * k + 24) + 8 * k + headers) as u64;
    assert_eq!(
        art_bytes, table_bytes,
        "Artifacts::compute allocated {art_bytes} bytes on Huge, its tables need {table_bytes}"
    );
    let artifacts = Arc::new(artifacts);

    let mut shiftbt = fhs_core::shiftbt::ShiftBT::default();
    let (_, shiftbt_t, _) = staged(|| {
        shiftbt.init(&job, &cfg, 2, &artifacts);
    });
    assert_eq!(shiftbt.bottleneck_order.len(), 4);
    assert_eq!(shiftbt.rank_table().len(), job.num_tasks());

    let run = |algo: Algorithm| {
        let mut ws = Workspace::new();
        let mut policy = make_policy(algo);
        let (out, t, _) = staged(|| {
            engine::run_in(
                &mut ws,
                &job,
                &cfg,
                policy.as_mut(),
                Mode::NonPreemptive,
                &RunOptions::seeded(2),
            )
        });
        assert!(out.makespan > 0, "{}", algo.label());
        (out.makespan, t)
    };
    let (kg_mk, kg_t) = run(Algorithm::KGreedy);
    let (mqb_mk, mqb_t) = run(Algorithm::Mqb);
    // Both schedules must at least cover the critical path.
    let span_floor = artifacts
        .spans(&job)
        .iter()
        .copied()
        .max()
        .expect("nonempty instance");
    assert!(kg_mk >= span_floor && mqb_mk >= span_floor);

    println!(
        "huge smoke: {} tasks, {} edges | gen {gen_t:?} artifacts {art_t:?} \
         ({art_bytes} bytes) shiftbt {shiftbt_t:?} kgreedy {kg_t:?} mqb {mqb_t:?}",
        job.num_tasks(),
        job.num_edges(),
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
