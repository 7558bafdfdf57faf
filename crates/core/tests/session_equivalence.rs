//! The session engine must be a strict generalization of the single-job
//! engine: a **one-job session** replays `engine::run` bit for bit — same
//! makespan, same busy-time vector, same epoch count, same utilization
//! timeline integrals — for every scheduler, both modes, both cadences.
//! And a session that *recycles* its job runtimes and policy values across
//! a stream of jobs (the steady-state path) must still give every job
//! exactly the schedule a cold, isolated run would have given it when the
//! machine is empty at admission.
//!
//! This is the contract that let the PR-6 refactor move the epoch loop out
//! of `engine::run` into `session::drive`: the single-job entry points
//! stayed bit-identical (this file plus the goldens pin it), and the
//! multi-job path reuses the exact same loop rather than a forked copy.

use std::sync::Arc;

use fhs_core::{make_policy, ALL_ALGORITHMS};
use fhs_sim::instrument::Kind;
use fhs_sim::{
    engine, Assignments, EpochView, MachineConfig, Mode, ObsConfig, Policy, RunOptions, RunStats,
    SelectionStats, Session, SessionOptions, ALL_INTER_JOB_POLICIES,
};
use kdag::precompute::Artifacts;
use kdag::{KDag, KDagBuilder, TaskId};
use proptest::prelude::*;

/// Forwards every [`Policy`] method to the wrapped policy but *withdraws*
/// the fast-forward stability certificate, so the session engine executes
/// every per-quantum epoch literally. Comparing a plan run with plain
/// policies (fast-forward eligible) against the same plan run under this
/// wrapper pins the fast-forward path bitwise against stepping.
struct Stepping(Box<dyn Policy>);

impl Policy for Stepping {
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, artifacts: &Artifacts) {
        self.0.init(job, config, seed, artifacts)
    }
    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        self.0.assign(view, out)
    }
    fn detach_job(&mut self) {
        self.0.detach_job()
    }
    fn take_selection_stats(&mut self) -> Option<fhs_sim::SelectionStats> {
        self.0.take_selection_stats()
    }
    fn assign_stable(&self) -> bool {
        false
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

/// One machine plus a stream of 2–4 differently-shaped jobs for it.
fn arb_stream() -> impl Strategy<Value = (MachineConfig, Vec<(KDag, u64)>)> {
    (
        arb_config(3),
        proptest::collection::vec((arb_kdag(3, 14, 4), 0u64..1000), 2..=4),
    )
}

const CADENCES: [(Mode, Option<u64>); 3] = [
    (Mode::NonPreemptive, None),
    (Mode::Preemptive, None),
    (Mode::Preemptive, Some(1)),
];

fn session_opts(mode: Mode, quantum: Option<u64>) -> SessionOptions {
    let mut opts = SessionOptions::new(mode);
    opts.quantum = quantum;
    opts.observe = fhs_sim::ObsConfig {
        utilization: true,
        ..fhs_sim::ObsConfig::default()
    };
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every scheduler, both modes, both cadences: a session holding
    /// exactly one job reproduces `engine::run` on the schedule
    /// observables — makespan, busy-time vector, every logical counter of
    /// the counter tables, the per-type utilization timeline integrals and
    /// the whole event stream. Both take the same lifecycle steps (arm,
    /// attach, drive, retire, close); this pins that they stay one.
    #[test]
    fn one_job_session_replays_engine_run(
        (cfg, jobs) in arb_stream(),
    ) {
        let (dag, seed) = &jobs[0];
        for algo in ALL_ALGORITHMS {
            for (mode, quantum) in CADENCES {
                let mut opts = RunOptions::seeded(*seed);
                opts.quantum = quantum;
                opts.observe = ObsConfig::all();
                let single = engine::run(dag, &cfg, make_policy(algo).as_mut(), mode, &opts);

                let mut sopts = session_opts(mode, quantum);
                sopts.observe = ObsConfig::all();
                let mut s = Session::new(cfg.clone(), sopts);
                s.admit(Arc::new(dag.clone()), make_policy(algo), *seed);
                let (out, _) = s.finish();

                prop_assert_eq!(
                    out.makespan, single.makespan,
                    "{} {:?} q={:?}: session makespan diverged", algo.label(), mode, quantum
                );
                prop_assert_eq!(&out.busy_time, &single.busy_time);
                // Every logical counter; the wall clocks and the workspace
                // counters are not functions of the schedule.
                for c in RunStats::COUNTERS.iter().filter(|c| c.kind == Kind::Logical) {
                    prop_assert_eq!((c.get)(&out.stats), (c.get)(&single.stats), "{}", c.key);
                }
                for c in &SelectionStats::COUNTERS {
                    prop_assert_eq!(
                        (c.get)(&out.stats.selection), (c.get)(&single.stats.selection), "{}", c.key
                    );
                }
                prop_assert_eq!(out.jobs.len(), 1);
                prop_assert_eq!(out.jobs[0].finish, single.makespan);
                prop_assert_eq!(out.jobs[0].response(), single.makespan);

                let su = single.obs.as_ref().and_then(|o| o.util.as_ref()).expect("util on");
                let ou = out.obs.as_ref().and_then(|o| o.util.as_ref()).expect("util on");
                prop_assert_eq!(ou.makespan, su.makespan);
                for (a, b) in ou.per_type.iter().zip(&su.per_type) {
                    prop_assert_eq!(a.busy, b.busy);
                    prop_assert_eq!(a.idle_active, b.idle_active);
                    prop_assert_eq!(a.idle_tail, b.idle_tail);
                }
                let events = |o: &Option<Box<fhs_sim::RunObs>>| {
                    o.as_ref().map(|o| (o.events.clone(), o.events_dropped))
                };
                prop_assert_eq!(events(&out.obs), events(&single.obs));
            }
        }
    }

    /// The steady-state streaming path: ONE session per (algo, cadence)
    /// hosts every job back to back — runtimes recycled through the spare
    /// pool, policy values detached and re-attached, offline algorithms
    /// admitted through shared artifacts. With the machine empty at each
    /// admission, every job's response must equal its cold isolated
    /// makespan exactly.
    #[test]
    fn recycled_runtimes_and_policies_replay_cold_runs(
        (cfg, jobs) in arb_stream(),
    ) {
        for algo in ALL_ALGORITHMS {
            for (mode, quantum) in CADENCES {
                let mut s = Session::new(cfg.clone(), session_opts(mode, quantum));
                let mut expected = Vec::new();
                for (dag, seed) in &jobs {
                    let mut opts = RunOptions::seeded(*seed);
                    opts.quantum = quantum;
                    let cold = engine::run(dag, &cfg, make_policy(algo).as_mut(), mode, &opts);
                    expected.push(cold.makespan);

                    let policy = s.recycled_policy().unwrap_or_else(|| make_policy(algo));
                    if algo.is_offline() {
                        let artifacts = Arc::new(Artifacts::compute(dag));
                        s.admit_with_artifacts(Arc::new(dag.clone()), policy, *seed, &artifacts);
                    } else {
                        s.admit(Arc::new(dag.clone()), policy, *seed);
                    }
                    s.drain();
                }
                let (out, _) = s.finish();
                prop_assert_eq!(out.jobs.len(), jobs.len());
                for (record, want) in out.jobs.iter().zip(&expected) {
                    prop_assert_eq!(
                        record.response(), *want,
                        "{} {:?} q={:?}: recycled session diverged from cold run",
                        algo.label(), mode, quantum
                    );
                    prop_assert_eq!(record.queueing(), 0);
                }
                prop_assert_eq!(out.stream.completed, jobs.len() as u64);
                // Session busy time is the sum over all jobs.
                let total: u64 = out.busy_time.iter().sum();
                let work: u64 = jobs.iter().map(|(d, _)| d.total_work()).sum();
                prop_assert_eq!(total, work);
            }
        }
    }

    /// Contended streams under every inter-job discipline: all jobs
    /// retire, machine busy time conserves total work, per-job metrics
    /// respect their bounds, and a replay is bit-deterministic.
    #[test]
    fn contended_streams_retire_all_jobs_and_conserve_work(
        (cfg, jobs) in arb_stream(),
        gap in 0u64..6,
        algo_ix in 0usize..6,
    ) {
        let algo = ALL_ALGORITHMS[algo_ix];
        for (mode, quantum) in CADENCES {
            for inter in ALL_INTER_JOB_POLICIES {
                let run_once = || {
                    let mut opts = session_opts(mode, quantum);
                    opts.inter = inter;
                    let mut s = Session::new(cfg.clone(), opts);
                    for (i, (dag, seed)) in jobs.iter().enumerate() {
                        s.run_until(i as u64 * gap);
                        s.admit(Arc::new(dag.clone()), make_policy(algo), *seed);
                    }
                    let (out, _) = s.finish();
                    out
                };
                let out = run_once();
                prop_assert_eq!(out.jobs.len(), jobs.len(), "{:?} {:?}", mode, inter);
                let total: u64 = out.busy_time.iter().sum();
                let work: u64 = jobs.iter().map(|(d, _)| d.total_work()).sum();
                prop_assert_eq!(total, work, "{:?} {:?}: work not conserved", mode, inter);
                for r in &out.jobs {
                    prop_assert!(r.response() >= r.lower_bound,
                        "{:?} {:?}: response beat the isolated lower bound", mode, inter);
                    prop_assert!(r.slowdown() >= 1.0);
                    prop_assert!(r.first_start.is_none() || r.first_start.unwrap() >= r.arrival);
                }
                let replay = run_once();
                let a: Vec<(u64, u64)> = out.jobs.iter().map(|r| (r.id, r.finish)).collect();
                let b: Vec<(u64, u64)> = replay.jobs.iter().map(|r| (r.id, r.finish)).collect();
                prop_assert_eq!(a, b, "{:?} {:?}: replay diverged", mode, inter);
            }
        }
    }

    /// Epoch fast-forward is bitwise-invisible. A sparse, idle-heavy
    /// multi-job plan (long gaps between arrivals, so spans are clamped at
    /// horizons as well as at completions) is replayed twice per cell:
    /// once with plain policies (fast-forward eligible) and once under the
    /// [`Stepping`] wrapper, which forces every per-quantum epoch to
    /// execute. Schedules, per-job records, and the synthesized counters
    /// (epochs, assignments, progress updates) must all coincide — for
    /// every scheduler, every cadence, every inter-job discipline.
    #[test]
    fn fast_forward_matches_stepping_on_sparse_streams(
        (cfg, jobs) in arb_stream(),
        gap in 5u64..40,
    ) {
        const FF_CADENCES: [(Mode, Option<u64>); 4] = [
            (Mode::NonPreemptive, None),
            (Mode::Preemptive, None),
            (Mode::Preemptive, Some(1)),
            (Mode::Preemptive, Some(3)),
        ];
        for algo in ALL_ALGORITHMS {
            for (mode, quantum) in FF_CADENCES {
                for inter in ALL_INTER_JOB_POLICIES {
                    let run_plan = |stepping: bool| {
                        let mut opts = SessionOptions::new(mode);
                        opts.quantum = quantum;
                        opts.inter = inter;
                        let mut s = Session::new(cfg.clone(), opts);
                        for (i, (dag, seed)) in jobs.iter().enumerate() {
                            s.run_until(i as u64 * gap);
                            let p = make_policy(algo);
                            let p: Box<dyn fhs_sim::Policy> =
                                if stepping { Box::new(Stepping(p)) } else { p };
                            s.admit(Arc::new(dag.clone()), p, *seed);
                        }
                        let (out, _) = s.finish();
                        out
                    };
                    let ff = run_plan(false);
                    let st = run_plan(true);
                    prop_assert_eq!(
                        st.stats.epochs_skipped, 0,
                        "{} {:?} q={:?} {:?}: wrapper failed to disable fast-forward",
                        algo.label(), mode, quantum, inter
                    );
                    prop_assert_eq!(
                        ff.makespan, st.makespan,
                        "{} {:?} q={:?} {:?}: fast-forward changed the makespan",
                        algo.label(), mode, quantum, inter
                    );
                    prop_assert_eq!(&ff.busy_time, &st.busy_time);
                    prop_assert_eq!(ff.stats.epochs, st.stats.epochs);
                    prop_assert_eq!(ff.stats.tasks_assigned, st.stats.tasks_assigned);
                    prop_assert_eq!(ff.stats.transitions, st.stats.transitions);
                    prop_assert_eq!(ff.stats.dirty_visits, st.stats.dirty_visits);
                    prop_assert_eq!(ff.stats.full_rescans, st.stats.full_rescans);
                    let a: Vec<_> = ff.jobs.iter()
                        .map(|r| (r.id, r.arrival, r.first_start, r.finish))
                        .collect();
                    let b: Vec<_> = st.jobs.iter()
                        .map(|r| (r.id, r.arrival, r.first_start, r.finish))
                        .collect();
                    prop_assert_eq!(
                        a, b,
                        "{} {:?} q={:?} {:?}: per-job records diverged",
                        algo.label(), mode, quantum, inter
                    );
                }
            }
        }
    }
}
