//! Release-only perf smoke for the budgets and structure this repo's perf
//! PRs pinned at the `SystemSize::Huge` rung:
//!
//! * **Epoch-loop budget** (DESIGN.md §15): a KGreedy run — a trivial
//!   policy, so the measurement is the fast-forward/dirty-set/hot-state
//!   engine itself — must stay far under the pre-§15 full-rescan cost.
//!   Locally the warm loop sits at ~22 ms; the 150 ms bar is CI headroom
//!   that a return to per-epoch `jobs × types` rescans (≈50 ms local,
//!   growing with scale) or any quadratic regression blows through.
//! * **Bounded-candidate invariant** (DESIGN.md §14): `MQB-Approx` must
//!   never run slower than exact MQB — approximation is allowed to cost
//!   accuracy, never time. Locally ~0.16 s vs ~0.23 s; the assert is the
//!   plain inequality on min-of-N wall times, the same invariant
//!   `bench_gates` checks on every rung below Huge.
//!
//! * **Ranked-selection structure** (DESIGN.md §7.1): LSpan and ShiftBT
//!   select through the journal-fed key index — nonzero journal diff
//!   events, at most one cold build per type per run, no candidate
//!   evaluation counters — and a warm rerun allocates zero bytes in the
//!   epoch loop. A silent return to a per-epoch rescan (or a rebuild every
//!   epoch) fails here whatever the host's speed.
//!
//! Two local budgets on the same instance are host-speed gates, run by
//! hand with `-- --ignored`: Huge KGreedy under 27 ms and exact MQB under
//! 1 s. They were recorded on one host and say more about the host than
//! about a regression.
//!
//! Debug builds skip this (a Huge instance in debug takes minutes); CI
//! runs it in the `--release` step alongside the other Huge smokes.

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

/// Serializes this file's tests: the timing budgets must not share the
/// host's cores with another Huge run.
static SERIAL: Mutex<()> = Mutex::new(());

/// The Huge rung: layered IR, K = 4, seed 2 → ~110k tasks (the rung
/// `bench_gates`' scale ladder ends on).
fn huge_instance() -> (kdag::KDag, fhs_sim::MachineConfig) {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Huge, 4);
    let (job, cfg) = spec.sample(2);
    assert!(job.num_tasks() >= 100_000);
    (job, cfg)
}

/// Wall times of `samples` runs of `algo` on one reused workspace (the
/// first cold, the rest warm), sorted ascending.
fn run_times(
    job: &kdag::KDag,
    cfg: &fhs_sim::MachineConfig,
    algo: Algorithm,
    samples: usize,
) -> Vec<Duration> {
    let mut ws = Workspace::new();
    let mut policy = make_policy(algo);
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let out = engine::run_in(
                &mut ws,
                job,
                cfg,
                policy.as_mut(),
                Mode::NonPreemptive,
                &RunOptions::seeded(2),
            );
            let t = t0.elapsed();
            assert!(out.makespan > 0, "{}", algo.label());
            t
        })
        .collect();
    times.sort_unstable();
    times
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Huge instances are exercised in --release (its own CI step)"
)]
fn huge_perf_budgets() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (job, cfg) = huge_instance();
    let kgreedy = run_times(&job, &cfg, Algorithm::KGreedy, 5)[0];
    let mqb = run_times(&job, &cfg, Algorithm::Mqb, 3)[0];
    let approx = run_times(&job, &cfg, Algorithm::MqbApprox, 3)[0];
    println!(
        "huge perf smoke: kgreedy {kgreedy:?} | mqb {mqb:?} | mqb-approx {approx:?} \
         ({} tasks)",
        job.num_tasks()
    );

    assert!(
        kgreedy < Duration::from_millis(150),
        "Huge KGreedy epoch loop took {kgreedy:?} (local budget 27 ms, CI bar \
         150 ms) — fast-forward / dirty-set / hot-state regression?"
    );
    assert!(
        approx <= mqb,
        "MQB-Approx ({approx:?}) ran slower than exact MQB ({mqb:?}) on Huge — \
         the bounded-candidate path must never cost more time than the index"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "Huge instances are exercised in --release (its own CI step)"
)]
fn huge_ranked_selection_is_journal_fed_and_warm_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fhs_sim::instrument::register_alloc_probe(probe);
    let (job, cfg) = huge_instance();
    let k = cfg.num_types() as u64;
    for algo in [Algorithm::LSpan, Algorithm::ShiftBT] {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut ws = Workspace::new();
            let mut policy = make_policy(algo);
            let mut run = || {
                engine::run_in(
                    &mut ws,
                    &job,
                    &cfg,
                    policy.as_mut(),
                    mode,
                    &RunOptions::seeded(2),
                )
            };
            let cold = run();
            let sel = cold.stats.selection;
            println!(
                "huge ranked smoke: {} {mode:?} | diffs {} cold builds {}",
                algo.label(),
                sel.diff_events,
                sel.cold_snapshots
            );
            assert!(
                sel.diff_events > 0,
                "{} {mode:?}: the key index was never journal-fed",
                algo.label()
            );
            assert!(
                (1..=k).contains(&sel.cold_snapshots),
                "{} {mode:?}: {} cold builds for {k} types — rebuilt mid-run?",
                algo.label(),
                sel.cold_snapshots
            );
            assert_eq!(
                (sel.candidates_evaluated, sel.candidates_pruned),
                (0, 0),
                "{}: ranked selection reports no candidate evaluation",
                algo.label()
            );

            let warm = run();
            assert_eq!(warm.makespan, cold.makespan, "warm replay diverged");
            assert_eq!(warm.stats.selection, sel, "warm rerun selected differently");
            assert_eq!(
                warm.stats.epoch_bytes,
                0,
                "{} {mode:?}: warm Huge epoch loop allocated on a reused workspace",
                algo.label()
            );
        }
    }
}

#[test]
#[ignore = "host-speed gate: absolute wall clock recorded on one host; \
            CI asserts the 150 ms bar in huge_perf_budgets"]
fn huge_kgreedy_within_27ms_local_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (job, cfg) = huge_instance();
    let times = run_times(&job, &cfg, Algorithm::KGreedy, 7);
    let median = times[times.len() / 2];
    println!("huge kgreedy: median of 7 {median:?}, min {:?}", times[0]);
    assert!(
        median < Duration::from_millis(27),
        "KGreedy on the Huge rung must finish under 27 ms (median {median:?})"
    );
}

#[test]
#[ignore = "host-speed gate: absolute wall clock recorded on one host; \
            huge_mqb_smoke asserts the 10 s CI bar"]
fn huge_exact_mqb_within_one_second() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (job, cfg) = huge_instance();
    let mqb = run_times(&job, &cfg, Algorithm::Mqb, 2)[0];
    println!("huge exact mqb: min of 2 {mqb:?}");
    // The pre-index quadratic scan sat at ~11 s on this instance.
    assert!(
        mqb < Duration::from_secs(1),
        "exact MQB on the Huge rung must finish under 1 s (got {mqb:?})"
    );
}
