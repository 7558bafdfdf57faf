//! Workspace reuse must be invisible: running on a **dirty, reused**
//! [`fhs_sim::Workspace`] — with **warm, reused** policy values — must
//! reproduce a cold `engine::run` bit for bit, on the strongest observable
//! (the full trace), for every scheduler, both modes, both cadences.
//!
//! This is the contract that lets the steady-state execution layer
//! (`fhs_experiments::runner`) keep one workspace and one policy set per
//! pool worker across thousands of differently-shaped instances. The
//! instances inside each case deliberately vary in task count, machine
//! size, and seed, so the workspace's shape-reset path (`begin_run`) and
//! the monotonic duplicate-selection stamps are exercised across
//! shrink/grow transitions, and each policy's `init` is proven to fully
//! re-derive its state.

use std::sync::Arc;

use fhs_core::{make_policy, ALL_ALGORITHMS};
use fhs_sim::{
    engine, Assignments, EpochView, MachineConfig, Mode, Policy, RunOptions, SelectionStats,
    Workspace,
};
use kdag::precompute::Artifacts;
use kdag::{KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

/// Initializes the wrapped (warm) policy from `bundle`, whichever bundle
/// the engine hands it: the sweep's shared-bundle path through the public
/// engine entry.
struct FromBundle<'a> {
    inner: &'a mut dyn Policy,
    bundle: &'a Artifacts,
}

impl Policy for FromBundle<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, _: &Artifacts) {
        self.inner.init(job, config, seed, self.bundle)
    }
    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        self.inner.assign(view, out)
    }
    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        self.inner.take_selection_stats()
    }
    fn assign_stable(&self) -> bool {
        self.inner.assign_stable()
    }
}

fn arb_kdag(k: usize, max_tasks: usize, max_work: u64) -> impl Strategy<Value = KDag> {
    (1..=max_tasks).prop_flat_map(move |n| {
        let types = proptest::collection::vec(0..k, n);
        let works = proptest::collection::vec(1..=max_work, n);
        let parents = proptest::collection::vec(proptest::collection::vec(any::<u32>(), 0..=3), n);
        (types, works, parents).prop_map(move |(types, works, parents)| {
            let mut b = KDagBuilder::new(k);
            let ids: Vec<TaskId> = types
                .iter()
                .zip(&works)
                .map(|(&t, &w)| b.add_task(t, w))
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (i, ps) in parents.iter().enumerate().skip(1) {
                for &raw in ps {
                    let p = (raw as usize) % i;
                    if seen.insert((p, i)) {
                        b.add_edge(ids[p], ids[i]).unwrap();
                    }
                }
            }
            b.build().expect("forward-edge graphs are acyclic")
        })
    })
}

fn arb_config(k: usize) -> impl Strategy<Value = MachineConfig> {
    proptest::collection::vec(1usize..4, k).prop_map(MachineConfig::new)
}

/// A shuffled stream of 2–4 differently-sized instances: the workspace and
/// policies are reused across all of them in order.
fn arb_instances() -> impl Strategy<Value = Vec<(KDag, MachineConfig, u64)>> {
    proptest::collection::vec((arb_kdag(3, 18, 4), arb_config(3), 0u64..1000), 2..=4)
}

const CADENCES: [(Mode, Option<u64>); 3] = [
    (Mode::NonPreemptive, None),
    (Mode::Preemptive, None),
    (Mode::Preemptive, Some(1)),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every scheduler, both modes, both cadences: `run_in` on a dirty
    /// workspace with a warm policy equals a cold `run` with a fresh
    /// policy, per instance, trace for trace.
    #[test]
    fn dirty_workspace_and_warm_policy_match_cold_runs(
        instances in arb_instances(),
    ) {
        for algo in ALL_ALGORITHMS {
            for (mode, quantum) in CADENCES {
                let mut ws = Workspace::new();
                let mut warm_policy = make_policy(algo);
                for (dag, cfg, seed) in &instances {
                    let mut opts = RunOptions::seeded(*seed).with_trace();
                    opts.quantum = quantum;
                    let warm = engine::run_in(
                        &mut ws, dag, cfg, warm_policy.as_mut(), mode, &opts,
                    );
                    let cold = engine::run(
                        dag, cfg, make_policy(algo).as_mut(), mode, &opts,
                    );
                    prop_assert_eq!(
                        warm.makespan, cold.makespan,
                        "{} {:?} q={:?}: makespan diverged on reuse",
                        algo.label(), mode, quantum
                    );
                    prop_assert_eq!(&warm.busy_time, &cold.busy_time);
                    prop_assert_eq!(warm.epochs, cold.epochs);
                    prop_assert_eq!(
                        warm.trace.expect("requested").segments(),
                        cold.trace.expect("requested").segments(),
                        "{} {:?} q={:?}: trace diverged on reuse",
                        algo.label(), mode, quantum
                    );
                }
                prop_assert_eq!(ws.runs(), instances.len() as u64);
            }
        }
    }

    /// Fast-forward composes with workspace reuse: an *untraced*
    /// per-quantum run on a dirty workspace (fast-forward eligible) must
    /// reproduce the schedule — and, via counter synthesis, the exact
    /// epoch and assignment counts — of a *traced* run, whose per-epoch
    /// trace recording forces literal stepping.
    #[test]
    fn fast_forward_on_reused_workspace_matches_traced_stepping(
        instances in arb_instances(),
    ) {
        for algo in ALL_ALGORITHMS {
            for quantum in [1u64, 3] {
                let mut ws = Workspace::new();
                let mut warm_policy = make_policy(algo);
                for (dag, cfg, seed) in &instances {
                    let mut ff_opts = RunOptions::seeded(*seed);
                    ff_opts.quantum = Some(quantum);
                    let ff = engine::run_in(
                        &mut ws, dag, cfg, warm_policy.as_mut(), Mode::Preemptive, &ff_opts,
                    );
                    let mut tr_opts = RunOptions::seeded(*seed).with_trace();
                    tr_opts.quantum = Some(quantum);
                    let stepped = engine::run(
                        dag, cfg, make_policy(algo).as_mut(), Mode::Preemptive, &tr_opts,
                    );
                    prop_assert_eq!(
                        stepped.stats.epochs_skipped, 0,
                        "{} q={}: tracing failed to disable fast-forward",
                        algo.label(), quantum
                    );
                    prop_assert_eq!(
                        ff.makespan, stepped.makespan,
                        "{} q={}: fast-forward changed the makespan",
                        algo.label(), quantum
                    );
                    prop_assert_eq!(&ff.busy_time, &stepped.busy_time);
                    prop_assert_eq!(ff.epochs, stepped.epochs);
                    prop_assert_eq!(ff.stats.tasks_assigned, stepped.stats.tasks_assigned);
                    prop_assert_eq!(
                        ff.stats.transitions.progress_updates,
                        stepped.stats.transitions.progress_updates
                    );
                }
            }
        }
    }

    /// The steady-state sweep path proper: artifact-backed initialization
    /// *and* workspace/policy reuse together still replay cold runs.
    #[test]
    fn dirty_workspace_with_artifacts_matches_cold_runs(
        instances in arb_instances(),
    ) {
        for algo in ALL_ALGORITHMS {
            if !algo.is_offline() {
                continue; // artifacts are only consumed by offline policies
            }
            for (mode, quantum) in CADENCES {
                let mut ws = Workspace::new();
                let mut warm_policy = make_policy(algo);
                for (dag, cfg, seed) in &instances {
                    let artifacts = Arc::new(Artifacts::compute(dag));
                    let mut opts = RunOptions::seeded(*seed).with_trace();
                    opts.quantum = quantum;
                    let mut from = FromBundle { inner: warm_policy.as_mut(), bundle: &artifacts };
                    let warm = engine::run_in(&mut ws, dag, cfg, &mut from, mode, &opts);
                    let cold = engine::run(
                        dag, cfg, make_policy(algo).as_mut(), mode, &opts,
                    );
                    prop_assert_eq!(
                        warm.makespan, cold.makespan,
                        "{} {:?} q={:?}: makespan diverged (artifacts + reuse)",
                        algo.label(), mode, quantum
                    );
                    prop_assert_eq!(
                        warm.trace.expect("requested").segments(),
                        cold.trace.expect("requested").segments(),
                        "{} {:?} q={:?}: trace diverged (artifacts + reuse)",
                        algo.label(), mode, quantum
                    );
                }
            }
        }
    }

    /// Reuse counters are reported faithfully: the first run on a
    /// workspace is cold, every later one is warm — regardless of shape
    /// changes between runs.
    #[test]
    fn reuse_counters_track_workspace_history(
        instances in arb_instances(),
        algo_ix in 0usize..6,
    ) {
        let algo = ALL_ALGORITHMS[algo_ix];
        let mut ws = Workspace::new();
        let mut policy = make_policy(algo);
        for (run, (dag, cfg, seed)) in instances.iter().enumerate() {
            let out = engine::run_in(
                &mut ws, dag, cfg, policy.as_mut(), Mode::NonPreemptive,
                &RunOptions::seeded(*seed),
            );
            if run == 0 {
                prop_assert_eq!(out.stats.workspace_cold_inits, 1);
                prop_assert_eq!(out.stats.workspace_reuses, 0);
            } else {
                prop_assert_eq!(out.stats.workspace_cold_inits, 0);
                prop_assert_eq!(out.stats.workspace_reuses, 1);
            }
        }
    }
}
