//! Release-only smoke test of exact MQB on a ~110k-task Huge instance,
//! in both modes, through the incremental dominance-pruned selection
//! index (DESIGN.md §14), plus MQB-Approx's pinned counters on the same
//! instance.
//!
//! Guards, in order of what they'd catch:
//!
//! * **Wall clock**: each cold run must clear 10 s — measured
//!   0.18–0.33 s in either mode on a 2-vCPU Xeon VM, while
//!   the pre-index quadratic scan took ~11 s; a selection-layer
//!   regression toward O(m²) trips this immediately.
//! * **Selection counters**: candidates evaluated and pruned and journal
//!   diff events are pinned exactly, with one cold snapshot. The frontier
//!   is exactly the Pareto set of the queued groups, so index maintenance
//!   can change how fast it is kept but not these numbers; a bug that
//!   re-routed contested rounds to the flat scan, left dominated groups
//!   on the frontier or rebuilt the index mid-run moves them.
//! * **MQB-Approx counters**: its evaluated and pruned counts are a
//!   closed form of the queue lengths and the cap, pinned per mode; a
//!   journal-fed window that lost or misordered a candidate moves them.
//! * **Allocation**: a warm rerun on the reused workspace allocates zero
//!   bytes — the index's slab, frontier, key map, pending picks and
//!   journal cursors all run out of retained capacity (same contract as
//!   `alloc_regression`, asserted here at the scale where a per-pick or
//!   per-group allocation would actually hurt).
//!
//! Debug builds skip this; CI runs it as its own `--release` step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fhs_core::{make_policy, Algorithm};
use fhs_sim::{engine, Mode, RunOptions, Workspace};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

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

/// Serializes this file's tests, so each wall clock is a quiet run's.
static SERIAL: Mutex<()> = Mutex::new(());

/// The exact selection counters of the seed-2 Huge instance, per mode:
/// `(evaluated, pruned, diff events)`. Index maintenance may change how
/// the frontier is kept, never which candidates it holds, so these stay
/// fixed until the policy or the engine changes a pick.
const PINNED: [(Mode, u64, u64, u64); 2] = [
    (Mode::NonPreemptive, 3_176_949, 560_078_071, 197_608),
    (Mode::Preemptive, 4_611_355, 845_495_750, 361_984),
];

/// MQB-Approx's `(evaluated, pruned)` on the same instance, per mode.
const PINNED_APPROX: [(Mode, u64, u64); 2] = [
    (Mode::NonPreemptive, 5_111_488, 570_089_889),
    (Mode::Preemptive, 7_619_830, 857_076_677),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Huge instances are exercised in --release (its own CI step)"
)]
fn huge_exact_mqb_is_subsecond_pruned_and_warm_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fhs_sim::instrument::register_alloc_probe(probe);
    // The Huge rung of `bench_gates`' scale ladder: layered IR, K = 4,
    // seed 2 → ~110k tasks. (`perf_smoke` holds the local 1 s budget as a
    // manual host-speed gate.)
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, 4);
    let (job, cfg) = spec.sample(2);
    assert!(
        job.num_tasks() >= 100_000,
        "Huge rung must be a ≥100k-task instance, got {}",
        job.num_tasks()
    );

    for (mode, evaluated, pruned, diffs) in PINNED {
        let mut ws = Workspace::new();
        let mut policy = make_policy(Algorithm::Mqb);
        let t0 = Instant::now();
        let cold = engine::run_in(
            &mut ws,
            &job,
            &cfg,
            policy.as_mut(),
            mode,
            &RunOptions::seeded(2),
        );
        let cold_t = t0.elapsed();

        let sel = cold.stats.selection;
        println!(
            "huge mqb smoke {mode:?}: {} tasks | cold {cold_t:?} | evaluated {} \
             pruned {} ({}x) | diffs {} rebuilds {}",
            job.num_tasks(),
            sel.candidates_evaluated,
            sel.candidates_pruned,
            sel.candidates_pruned / sel.candidates_evaluated.max(1),
            sel.diff_events,
            sel.cold_snapshots,
        );

        // Wall clock: 0.18–0.33 s measured (2-vCPU Xeon VM);
        // 10 s is CI headroom, the old quadratic scan's ~11 s cannot
        // clear it.
        assert!(
            cold_t < Duration::from_secs(10),
            "exact MQB {mode:?} took {cold_t:?} on Huge — selection scaling regression?"
        );
        // The index must carry the run: one cold snapshot at attach,
        // journal diffs from then on, and the dominance frontier
        // discarding the overwhelming majority of the quadratic scan's
        // candidate visits — exactly as many as pinned.
        assert_eq!(sel.cold_snapshots, 1, "{mode:?}: index was rebuilt mid-run");
        assert_eq!(
            (
                sel.candidates_evaluated,
                sel.candidates_pruned,
                sel.diff_events
            ),
            (evaluated, pruned, diffs),
            "{mode:?}: selection counters (evaluated, pruned, diff events) moved"
        );

        // Warm rerun: identical schedule, zero bytes through the epoch
        // loop (the preemptive run's pending picks included).
        let warm = engine::run_in(
            &mut ws,
            &job,
            &cfg,
            policy.as_mut(),
            mode,
            &RunOptions::seeded(2),
        );
        assert_eq!(
            warm.makespan, cold.makespan,
            "{mode:?}: warm replay diverged"
        );
        assert_eq!(
            warm.stats.selection, sel,
            "{mode:?}: warm counters diverged"
        );
        assert_eq!(warm.stats.workspace_reuses, 1);
        assert_eq!(
            warm.stats.epoch_bytes, 0,
            "warm Huge MQB {mode:?} epoch loop allocated on a reused workspace"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Huge instances are exercised in --release (its own CI step)"
)]
fn huge_mqb_approx_counters_are_pinned() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, 4);
    let (job, cfg) = spec.sample(2);
    for (mode, evaluated, pruned) in PINNED_APPROX {
        let mut policy = make_policy(Algorithm::MqbApprox);
        let t0 = Instant::now();
        let out = engine::run(&job, &cfg, policy.as_mut(), mode, &RunOptions::seeded(2));
        let sel = out.stats.selection;
        println!(
            "huge mqb-approx smoke {mode:?}: cold {:?} | evaluated {} pruned {}",
            t0.elapsed(),
            sel.candidates_evaluated,
            sel.candidates_pruned
        );
        assert_eq!(
            (sel.candidates_evaluated, sel.candidates_pruned),
            (evaluated, pruned),
            "{mode:?}: MQB-Approx counters (evaluated, pruned) moved"
        );
    }
}
