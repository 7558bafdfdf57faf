//! Allocation-regression proof for the steady-state execution layer: on a
//! reused [`Workspace`], the engine's epoch loop allocates **zero bytes**.
//!
//! A counting [`GlobalAlloc`] wrapper around [`System`] tracks per-thread
//! allocated bytes; the engine samples it around its epoch loop through
//! the probe registered with
//! [`fhs_sim::instrument::register_alloc_probe`] and reports the delta as
//! `RunStats::epoch_bytes`. The first run on a workspace is allowed (and
//! expected) to allocate — every buffer is sized then; re-running the same
//! instance on the warm workspace with a warm policy must stay at exactly
//! zero, for every scheduler and both modes.
//!
//! The byte accounting only counts *allocations* (growth included),
//! never frees, so the assertion cannot be masked by alloc/free pairs.
//! A second count subtracts frees: it pins what ShiftBT's sequencing
//! leaves live (its plan, not its relaxation scratch). Asserted in
//! `--release` only (its own CI step); the default debug `cargo test`
//! skips it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fhs_core::{make_policy, Algorithm, ALL_ALGORITHMS};
use fhs_sim::{engine, MachineConfig, Mode, RunOptions, Workspace};
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
use kdag::KDag;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Adds `d` to the thread's live-byte count.
fn live_add(d: i64) {
    let _ = LIVE.try_with(|b| b.set(b.get() + d));
}

/// [`System`], plus two per-thread counts: bytes requested, and bytes
/// live (frees subtracted). Thread-local counters keep the probes exact
/// under the test harness's and the `fhs-par` pool's concurrency, with no
/// atomic traffic on the hot path.
struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the only
// addition is bookkeeping, which allocates nothing itself (the
// thread-local is const-initialized) and uses `try_with` so late
// allocations during thread teardown never panic.
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

/// A fixed small layered-EP instance.
fn small_ep() -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Ep, Typing::Layered, SystemSize::Small, 4).sample(7)
}

/// A fixed medium layered-IR instance.
fn medium_ir() -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Medium, 4).sample(7)
}

/// A fixed medium layered-tree instance.
fn medium_tree() -> (KDag, MachineConfig) {
    WorkloadSpec::new(Family::Tree, Typing::Layered, SystemSize::Medium, 4).sample(7)
}

#[test]
fn fixtures_are_nontrivial() {
    let (ep, _) = small_ep();
    let (ir, _) = medium_ir();
    let (tree, _) = medium_tree();
    assert!(ep.num_tasks() > 20);
    assert!(ir.num_tasks() > 100);
    assert!(tree.num_tasks() > 60);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn epoch_loop_allocates_zero_bytes_on_reused_workspaces() {
    fhs_sim::instrument::register_alloc_probe(probe);
    let (job, cfg) = medium_ir();
    // The paper's six, plus MQB-Approx: its candidate orders are built in
    // the first contested round of every run.
    for algo in ALL_ALGORITHMS.into_iter().chain([Algorithm::MqbApprox]) {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut ws = Workspace::new();
            let mut policy = make_policy(algo);
            let cold = engine::run_in(
                &mut ws,
                &job,
                &cfg,
                policy.as_mut(),
                mode,
                &RunOptions::seeded(1),
            );
            assert_eq!(cold.stats.workspace_cold_inits, 1);
            assert!(
                cold.stats.epoch_bytes > 0,
                "{} {mode:?}: cold epoch loop reported zero bytes — probe dead?",
                algo.label()
            );
            for rerun in 0..3 {
                let warm = engine::run_in(
                    &mut ws,
                    &job,
                    &cfg,
                    policy.as_mut(),
                    mode,
                    &RunOptions::seeded(1),
                );
                assert_eq!(warm.stats.workspace_reuses, 1);
                assert_eq!(warm.makespan, cold.makespan, "{} {mode:?}", algo.label());
                assert_eq!(
                    warm.stats.epoch_bytes,
                    0,
                    "{} {mode:?} rerun {rerun}: epoch loop allocated on a warm workspace",
                    algo.label()
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn heterogeneous_grow_then_shrink_shapes_stay_allocation_free_when_warm() {
    // The session engine's steady-state promise: a workspace that has
    // seen a set of job/machine shapes once re-runs ANY of them without
    // allocating — including shrinking to a much smaller instance and
    // growing back (capacity is retained across `resize`-downs), and
    // hopping between differently-shaped machines (Small 1–5 procs/type
    // vs Medium 10–20). Every buffer is high-watermark sized; only a
    // never-seen dimension may allocate.
    fhs_sim::instrument::register_alloc_probe(probe);
    let shapes = [
        ("medium-ir", medium_ir()),
        ("small-ep", small_ep()),
        ("medium-tree", medium_tree()),
    ];
    for algo in ALL_ALGORITHMS {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut ws = Workspace::new();
            let mut policy = make_policy(algo);
            // Cold pass: first visit of each shape sizes the buffers
            // (allocations expected and allowed).
            let cold: Vec<u64> = shapes
                .iter()
                .map(|(_, (job, cfg))| {
                    engine::run_in(
                        &mut ws,
                        job,
                        cfg,
                        policy.as_mut(),
                        mode,
                        &RunOptions::seeded(1),
                    )
                    .makespan
                })
                .collect();
            // Warm passes: shrink (big → small), grow back, and cross
            // between machine shapes — zero bytes in the epoch loop,
            // same makespans as the cold pass.
            for (round, &i) in [1usize, 0, 2, 0, 1].iter().enumerate() {
                let (name, (job, cfg)) = &shapes[i];
                let warm = engine::run_in(
                    &mut ws,
                    job,
                    cfg,
                    policy.as_mut(),
                    mode,
                    &RunOptions::seeded(1),
                );
                assert_eq!(warm.stats.workspace_reuses, 1);
                assert_eq!(
                    warm.makespan,
                    cold[i],
                    "{} {mode:?} {name}: warm replay diverged",
                    algo.label()
                );
                assert_eq!(
                    warm.stats.epoch_bytes,
                    0,
                    "{} {mode:?} {name} round {round}: epoch loop allocated on a \
                     warm workspace after a shape change",
                    algo.label()
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn per_quantum_cadence_is_also_allocation_free_when_warm() {
    fhs_sim::instrument::register_alloc_probe(probe);
    let (job, cfg) = small_ep();
    for algo in ALL_ALGORITHMS {
        let mut ws = Workspace::new();
        let mut policy = make_policy(algo);
        let mut opts = RunOptions::seeded(3);
        opts.quantum = Some(1);
        let cold = engine::run_in(
            &mut ws,
            &job,
            &cfg,
            policy.as_mut(),
            Mode::Preemptive,
            &opts,
        );
        let warm = engine::run_in(
            &mut ws,
            &job,
            &cfg,
            policy.as_mut(),
            Mode::Preemptive,
            &opts,
        );
        assert_eq!(warm.makespan, cold.makespan, "{}", algo.label());
        assert_eq!(
            warm.stats.epoch_bytes,
            0,
            "{} per-quantum: epoch loop allocated on a warm workspace",
            algo.label()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn warm_shiftbt_init_stays_within_byte_budget() {
    use fhs_core::shiftbt::ShiftBT;
    use fhs_sim::Policy;
    use kdag::precompute::Artifacts;
    use std::sync::Arc;

    let (job, cfg) = medium_ir();
    let artifacts = Arc::new(Artifacts::compute(&job));
    let mut policy = ShiftBT::default();
    // Cold init sequences the instance and stores the plan in the bundle.
    policy.init(&job, &cfg, 1, &artifacts);
    let stored =
        || artifacts.sequence_plan(cfg.procs_per_type(), || unreachable!("init stored it"));
    let cold = Arc::clone(stored());
    // Warm re-init on the same bundle must only take a handle on the
    // stored plan: zero heap traffic, same answer. The budget is a hard
    // zero — a regression that re-sequences, or copies the plan, trips it
    // immediately.
    for rerun in 0..3 {
        let before = probe();
        policy.init(&job, &cfg, 1, &artifacts);
        let bytes = probe() - before;
        assert_eq!(
            bytes, 0,
            "warm ShiftBT init allocated {bytes} bytes on rerun {rerun}"
        );
        assert!(Arc::ptr_eq(stored(), &cold), "rerun {rerun}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn shiftbt_sequencing_leaves_only_the_plan_live() {
    use fhs_core::shiftbt::ShiftBT;
    use fhs_sim::Policy;
    use kdag::precompute::{Artifacts, SequencePlan};

    // The plan lives in the bundle, so a warm init on a filled bundle only
    // takes a handle on it (the test above). On a bundle without a plan
    // the policy sequences, with a relaxation scratch that lives only for
    // that call. Once `init` returns, a fresh policy has left live only
    // the plan's own storage (a rank per task, the bottleneck order and
    // the processor counts) and the shared allocation holding it (two
    // reference counts and the plan).
    let (job, cfg) = medium_ir();
    let unplanned = || {
        let bundle = Artifacts::new();
        bundle.spans(&job);
        bundle
    };
    let stored = |bundle: &Artifacts| {
        let plan = bundle.sequence_plan(cfg.procs_per_type(), || unreachable!("init stored it"));
        SequencePlan::clone(plan)
    };
    let first = unplanned();
    ShiftBT::default().init(&job, &cfg, 1, &first);
    let cold = stored(&first);
    let k = job.num_types() as i64;
    let shared = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<SequencePlan>();
    let plan_bytes = 4 * job.num_tasks() as i64 + 2 * 8 * k + shared as i64;
    for rerun in 0..3 {
        let bundle = unplanned();
        let before = live();
        let mut policy = ShiftBT::default();
        policy.init(&job, &cfg, 1, &bundle);
        let kept = live() - before;
        assert_eq!(
            kept, plan_bytes,
            "ShiftBT sequencing left {kept} bytes live on rerun {rerun}, the plan needs {plan_bytes}"
        );
        assert_eq!(stored(&bundle), cold, "rerun {rerun}");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn observed_epoch_loop_is_also_allocation_free_when_warm() {
    use fhs_sim::ObsConfig;

    fhs_sim::instrument::register_alloc_probe(probe);
    let (job, cfg) = medium_ir();
    // Every recording channel on: utilization timeline, latency + depth
    // histograms, and the bounded event trace. The recorder state lives in
    // the workspace, so the first observed run sizes its buffers (allowed
    // to allocate) and warm reruns must stay at exactly zero.
    let opts = RunOptions {
        observe: ObsConfig::all(),
        ..RunOptions::seeded(1)
    };
    for algo in ALL_ALGORITHMS {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut ws = Workspace::new();
            let mut policy = make_policy(algo);
            let cold = engine::run_in(&mut ws, &job, &cfg, policy.as_mut(), mode, &opts);
            assert!(
                cold.obs.is_some(),
                "{} {mode:?}: observe requested but no payload",
                algo.label()
            );
            for rerun in 0..3 {
                let warm = engine::run_in(&mut ws, &job, &cfg, policy.as_mut(), mode, &opts);
                assert_eq!(warm.makespan, cold.makespan, "{} {mode:?}", algo.label());
                let obs = warm.obs.expect("observe requested");
                assert!(obs.util.is_some(), "utilization recorded");
                assert!(obs.assign_ns.count > 0, "latency recorded");
                assert_eq!(
                    warm.stats.epoch_bytes,
                    0,
                    "{} {mode:?} rerun {rerun}: observed epoch loop allocated on a warm workspace",
                    algo.label()
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn warm_indexed_mqb_epoch_loop_allocates_zero_bytes() {
    use fhs_core::mqb::{InfoModel, Mqb, MqbTuning};
    use fhs_core::registry::DEFAULT_APPROX_CAP;
    use fhs_sim::MachineConfig;
    use kdag::{KDagBuilder, TaskId};

    // A two-type instance whose type-0 ready queue starts ~3× above the
    // flat/indexed crossover (64), so the incremental dominance index —
    // group slab, row slab, frontier and its mirrors, key map, journal
    // cursors — is genuinely exercised, not just the flat scan. The second
    // wave of type-1 children keeps the journal replaying inserts mid-run.
    let mut b = KDagBuilder::new(2);
    let mut roots = Vec::new();
    for i in 0..200u64 {
        roots.push(b.add_task(0, 1 + (i * 7 + 3) % 5));
    }
    for i in 0..90u64 {
        let t = b.add_task(1, 1 + (i * 5 + 1) % 4);
        let p1 = (i % 200) as usize;
        let p2 = ((i * 3 + 1) % 200) as usize;
        b.add_edge(roots[p1], t).unwrap();
        if p2 != p1 {
            b.add_edge(roots[p2], t).unwrap();
        }
    }
    let wide = b.build().unwrap();
    // Queues at or below the crossover at first (60 roots beside an
    // eight-task chain), then a 200-wide type-0 fan-out at the chain's
    // end: the index places its deferred groups mid-run, on the warm
    // reruns too.
    let mut b = KDagBuilder::new(2);
    for i in 0..60u64 {
        b.add_task(usize::from(i >= 40), 1 + (i * 7 + 3) % 5);
    }
    let mut prev = b.add_task(0, 2);
    for i in 1..8u64 {
        let t = b.add_task((i % 2) as usize, 1 + i % 3);
        b.add_edge(prev, t).unwrap();
        prev = t;
    }
    let fan: Vec<TaskId> = (0..200u64)
        .map(|i| {
            let t = b.add_task(0, 1 + (i * 7 + 3) % 5);
            b.add_edge(prev, t).unwrap();
            t
        })
        .collect();
    for i in 0..90usize {
        let t = b.add_task(1, 1 + (i as u64 * 5 + 1) % 4);
        let (p1, p2) = (i % 200, (i * 3 + 1) % 200);
        b.add_edge(fan[p1], t).unwrap();
        if p2 != p1 {
            b.add_edge(fan[p2], t).unwrap();
        }
    }
    let chain_fanout = b.build().unwrap();
    let cfg = MachineConfig::new(vec![2, 2]);

    fhs_sim::instrument::register_alloc_probe(probe);
    let variants: [(&str, MqbTuning); 2] = [
        ("MQB-indexed", MqbTuning::default()),
        (
            "MQB-Approx",
            MqbTuning {
                max_candidates: Some(DEFAULT_APPROX_CAP),
            },
        ),
    ];
    for (shape, job) in [("wide", &wide), ("chain-fanout", &chain_fanout)] {
        for (name, tuning) in variants {
            for (mode, quantum) in [
                (Mode::NonPreemptive, None),
                (Mode::Preemptive, None),
                (Mode::Preemptive, Some(1)),
            ] {
                let mut ws = Workspace::new();
                let mut policy = Mqb::with_tuning(InfoModel::default(), tuning);
                let mut opts = RunOptions::seeded(2);
                opts.quantum = quantum;
                let cold = engine::run_in(&mut ws, job, &cfg, &mut policy, mode, &opts);
                let sel = cold.stats.selection;
                if tuning.max_candidates.is_none() {
                    assert!(
                        sel.candidates_pruned > 0 && sel.cold_snapshots == 1,
                        "{shape} {name} {mode:?} q={quantum:?}: indexed path never \
                         engaged (pruned {}, rebuilds {})",
                        sel.candidates_pruned,
                        sel.cold_snapshots
                    );
                } else {
                    assert!(
                        sel.candidates_pruned > 0,
                        "{shape} {name} {mode:?} q={quantum:?}: cap never bit on a \
                         200-wide queue"
                    );
                }
                for rerun in 0..3 {
                    let warm = engine::run_in(&mut ws, job, &cfg, &mut policy, mode, &opts);
                    assert_eq!(
                        warm.makespan, cold.makespan,
                        "{shape} {name} {mode:?} q={quantum:?}"
                    );
                    assert_eq!(
                        warm.stats.epoch_bytes, 0,
                        "{shape} {name} {mode:?} q={quantum:?} rerun {rerun}: \
                         incremental-state epoch loop allocated on a warm workspace",
                    );
                }
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn warm_mqb_init_allocates_zero_bytes_for_every_info_model() {
    use fhs_core::mqb::{InfoModel, Mqb, MqbTuning};
    use fhs_core::registry::DEFAULT_APPROX_CAP;
    use fhs_sim::Policy;
    use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};
    use kdag::precompute::Artifacts;
    use std::sync::Arc;

    // The Large rung of `bench_gates`' scale ladder. One-step lookahead
    // is not in the artifact bundle, so those three models recompute
    // their matrix on every init: in place, from the retained buffer.
    let (job, cfg) = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Large, 4).sample(2);
    let artifacts = Arc::new(Artifacts::compute(&job));
    let bounded = MqbTuning {
        max_candidates: Some(DEFAULT_APPROX_CAP),
    };
    let variants = InfoModel::ALL_VARIANTS
        .into_iter()
        .map(|info| (info, MqbTuning::default()))
        .chain([(InfoModel::default(), bounded)]);
    for (info, tuning) in variants {
        let mut policy = Mqb::with_tuning(info, tuning);
        policy.init(&job, &cfg, 1, &artifacts);
        let cold: Vec<f64> = (0..job.num_tasks())
            .flat_map(|i| policy.d_row(kdag::TaskId::from_index(i)).to_vec())
            .collect();
        for rerun in 0..3 {
            let before = probe();
            policy.init(&job, &cfg, 1, &artifacts);
            let bytes = probe() - before;
            assert_eq!(
                bytes,
                0,
                "warm {} init allocated {bytes} bytes on rerun {rerun}",
                policy.name()
            );
            let same = (0..job.num_tasks()).all(|i| {
                let row = policy.d_row(kdag::TaskId::from_index(i));
                let k = row.len();
                row.iter()
                    .zip(&cold[i * k..])
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            assert!(same, "{} rerun {rerun}: matrix changed", policy.name());
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "allocation accounting is asserted in --release (its own CI step)"
)]
fn session_epoch_loop_stays_allocation_free_on_recycled_waves_when_warm() {
    use fhs_sim::{Session, SessionOptions};
    use kdag::precompute::Artifacts;
    use std::sync::Arc;

    // A session's in-loop bytes are not literally zero end to end: each
    // *fresh* policy (one per admission until retirements stock the spare
    // pool) sizes its scratch lazily inside its first epochs. What is
    // zero — and what this test pins, bytes-exact — is the steady state
    // the session engine exists for: with recycled policies on a warm
    // workspace, an entire extra wave of jobs adds 0 bytes.
    fhs_sim::instrument::register_alloc_probe(probe);
    let (job, cfg) = small_ep();
    let job = Arc::new(job);
    let artifacts = Arc::new(Artifacts::compute(&job));

    for algo in ALL_ALGORITHMS {
        for (mode, quantum) in [(Mode::NonPreemptive, None), (Mode::Preemptive, Some(1))] {
            // Each wave admits four jobs; waves are spaced far enough
            // apart that a wave fully retires (restocking the spare
            // policy/runtime pools) before the next one arrives.
            let run = |ws: Workspace, waves: u64| {
                let mut opts = SessionOptions::new(mode);
                opts.quantum = quantum;
                let mut s = Session::with_workspace(cfg.clone(), opts, ws);
                for wave in 0..waves {
                    for (i, t) in [0u64, 3, 9, 14].into_iter().enumerate() {
                        s.run_until(wave * 100_000 + t);
                        let policy = s.recycled_policy().unwrap_or_else(|| make_policy(algo));
                        let seed = i as u64 + 1;
                        if algo.is_offline() {
                            s.admit_with_artifacts(Arc::clone(&job), policy, seed, &artifacts);
                        } else {
                            s.admit(Arc::clone(&job), policy, seed);
                        }
                    }
                }
                let (out, ws) = s.finish();
                assert_eq!(out.jobs.len() as u64, 4 * waves, "jobs lost");
                (out.makespan, out.stats.epoch_bytes, ws)
            };

            // Cold sizing pass, then the one-wave reference on the warm
            // workspace: its bytes are exactly the fresh-policy scratch.
            let (_, _, ws) = run(Workspace::new(), 1);
            let (makespan_1, bytes_1, ws) = run(ws, 1);
            // A warm rerun of the same wave repeats the schedule and the
            // bytes exactly.
            let (makespan, bytes, ws) = run(ws, 1);
            assert_eq!(makespan, makespan_1, "{} {mode:?}", algo.label());
            assert_eq!(
                bytes,
                bytes_1,
                "{} {mode:?}: a warm rerun allocated differently in the epoch loop",
                algo.label()
            );
            // Steady state: the second wave pays a one-time sizing bump
            // (first retirement-recycle round of the session), and from
            // then on every additional wave runs entirely on recycled
            // policies and the warm workspace — 0 extra bytes.
            let (_, bytes_2, ws) = run(ws, 2);
            let (_, bytes_3, _) = run(ws, 3);
            assert_eq!(
                bytes_3,
                bytes_2,
                "{} {mode:?}: steady-state wave allocated on recycled \
                 policies ({} bytes over the two-wave reference)",
                algo.label(),
                bytes_3.saturating_sub(bytes_2)
            );
        }
    }
}

#[test]
fn probe_counts_this_threads_allocations() {
    // Sanity for the harness itself (runs in every profile): allocating
    // must advance the thread's byte count by at least the requested size.
    let before = probe();
    let v: Vec<u8> = Vec::with_capacity(4096);
    let after = probe();
    drop(v);
    assert!(
        after >= before + 4096,
        "probe advanced by {} for a 4096-byte allocation",
        after - before
    );
}
