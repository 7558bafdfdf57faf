//! The simulation engine: one unified epoch/event loop serving both the
//! non-preemptive and preemptive modes.
//!
//! Every iteration runs the same three shared phases — compute per-type
//! slots, consult the policy on an [`EpochView`](crate::policy::EpochView), validate its selection
//! (slot capacity, task type, duplicate stamps) — and then branches on the
//! mode only for dispatch and clock advance:
//!
//! * **Non-preemptive**: started tasks occupy a processor until done; the
//!   clock jumps to the next completion event (a min-heap of end times) and
//!   all same-time completions drain before the next epoch.
//! * **Preemptive**: the whole allocation is re-decided each epoch; the
//!   clock advances by the smallest chosen remaining work (or the quantum,
//!   if one is set) and every chosen task progresses by that amount.
//!
//! State transitions go through the indexed [`JobState`](crate::state::JobState) (O(1) amortized
//! per operation); the pre-indexed linear-scan implementation survives as
//! [`crate::reference`] and the two are property-tested to produce
//! bit-identical schedules. Each run also collects a
//! [`RunStats`] (epochs, assign wall time,
//! transition counts, peak queue depth), surfaced on [`SimOutcome::stats`].

use std::time::Instant;

use kdag::precompute::Artifacts;
use kdag::{KDag, Work};

use crate::config::MachineConfig;
use crate::instrument::RunStats;
use crate::policy::Policy;
use crate::session::{self, DriveCtx, InterJobPolicy, SessionJob};
use crate::trace::Trace;
use crate::workspace::Workspace;
use crate::Time;

/// Scheduling mode (paper §IV, last paragraph).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// A task, once placed, runs to completion on its processor.
    NonPreemptive,
    /// The allocation is re-decided every quantum; tasks can be paused and
    /// migrated within their type's pool. Reallocation overhead is ignored,
    /// as in the paper.
    Preemptive,
}

/// Knobs for one engine run.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Record a full execution [`Trace`] (slower; off by default).
    pub record_trace: bool,
    /// Seed forwarded to [`Policy::init`] for stochastic policies.
    pub seed: u64,
    /// Preemptive re-decision cadence. `None` (default) re-decides at
    /// task-completion events only — exactly equivalent to per-quantum
    /// re-decisions for policies whose choices do not depend on remaining
    /// work (FIFO/KGreedy, DType, MaxDP, ShiftBT; property-tested), and a
    /// coarser cadence for those that do (LSpan, MQB). `Some(q)`
    /// re-decides at least every `q` time units — `Some(1)` is the
    /// paper's literal per-quantum scheduler. Ignored by the
    /// non-preemptive engine.
    pub quantum: Option<Work>,
    /// Observability channels to record (utilization timelines, latency
    /// histograms, event trace). Everything off by default; recording is
    /// observe-only (bit-identical schedules, property-tested) and
    /// allocation-free in the warm epoch loop. The payload is returned on
    /// [`SimOutcome::obs`].
    pub observe: fhs_obs::ObsConfig,
}

impl RunOptions {
    /// Options with a seed and defaults otherwise.
    pub fn seeded(seed: u64) -> Self {
        RunOptions {
            seed,
            ..RunOptions::default()
        }
    }

    /// Enables trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Sets the preemptive re-decision quantum.
    pub fn with_quantum(mut self, q: Work) -> Self {
        assert!(q > 0, "quantum must be positive");
        self.quantum = Some(q);
        self
    }
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Completion time `T(J)` of the job under the policy.
    pub makespan: Time,
    /// Number of decision epochs the policy was consulted at.
    pub epochs: u64,
    /// Per-type processor-busy time (for utilization accounting).
    pub busy_time: Vec<Time>,
    /// The execution trace, when [`RunOptions::record_trace`] was set.
    pub trace: Option<Trace>,
    /// Per-run instrumentation counters (always collected).
    pub stats: RunStats,
    /// Observability payload (utilization report, histograms, events),
    /// when any [`RunOptions::observe`] channel was enabled.
    pub obs: Option<Box<fhs_obs::RunObs>>,
}

impl SimOutcome {
    /// Per-type utilization `busy_α / (P_α · makespan)`; all-1.0 for an
    /// empty job (degenerate but total).
    pub fn utilization(&self, config: &MachineConfig) -> Vec<f64> {
        (0..config.num_types())
            .map(|alpha| {
                if self.makespan == 0 {
                    1.0
                } else {
                    self.busy_time[alpha] as f64
                        / (config.procs(alpha) as f64 * self.makespan as f64)
                }
            })
            .collect()
    }
}

/// Runs `policy` on `job` over `config` in the given `mode`.
///
/// # Panics
/// * If `job.num_types() != config.num_types()`.
/// * If `opts.quantum` is `Some(0)`.
/// * If the policy makes an invalid selection (task not a candidate, wrong
///   type, over slot capacity, duplicate).
/// * If the policy deadlocks the system (assigns nothing while work
///   remains and processors are free).
pub fn run(
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
) -> SimOutcome {
    run_in(&mut Workspace::new(), job, config, policy, mode, opts)
}

/// As [`run`], but executes inside a caller-owned [`Workspace`]: every
/// buffer the engine needs is `clear()`-and-reused instead of reallocated,
/// so steady-state runs on a warm workspace allocate ~nothing in the epoch
/// loop. The outcome is **bit-for-bit** the outcome of a cold [`run`] with
/// the same arguments, regardless of what ran on the workspace before
/// (property-tested across differently-shaped instances).
///
/// The policy is initialized from a fresh [`Artifacts`] bundle, so it
/// computes only the analysis it reads.
///
/// # Panics
/// Same conditions as [`run`].
pub fn run_in(
    ws: &mut Workspace,
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
) -> SimOutcome {
    run_with(ws, job, config, policy, mode, opts, &Artifacts::new())
}

/// The one run prologue behind [`run_in`] and the evaluators: checks the
/// inputs, initializes the policy from `artifacts` (the bundle of `job`),
/// runs the engine, detaches the policy from the job — so it lets go of
/// the bundle's tables, as at a session retirement — and stamps the wall
/// time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_with(
    ws: &mut Workspace,
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
    artifacts: &Artifacts,
) -> SimOutcome {
    assert_eq!(
        job.num_types(),
        config.num_types(),
        "job declared K={} but machine has K={}",
        job.num_types(),
        config.num_types()
    );
    assert!(opts.quantum != Some(0), "quantum must be positive");
    let wall = Instant::now();
    policy.init(job, config, opts.seed, artifacts);
    let mut out = run_engine(ws, job, config, policy, mode, opts);
    policy.detach_job();
    out.stats.engine_nanos = wall.elapsed().as_nanos() as u64;
    out
}

/// The single-job engine entry: arms the workspace and recorder, then runs
/// a **one-job session** — the unified epoch/event loop lives in
/// [`session::drive`] and is shared verbatim with the multi-job
/// [`crate::session::Session`]. The single job rides in the workspace's
/// embedded [`JobRt`](crate::workspace::JobRt) under heap slot 0 (so event
/// ordering is exactly the historical `(time, task)` key) with no stop
/// horizon, which keeps this path bit-identical to the pre-session engine
/// (pinned by the goldens and the workspace/session equivalence proptests)
/// and allocation-free on a warm workspace (the session job array is on
/// the stack).
fn run_engine(
    ws: &mut Workspace,
    job: &KDag,
    config: &MachineConfig,
    policy: &mut dyn Policy,
    mode: Mode,
    opts: &RunOptions,
) -> SimOutcome {
    let preemptive = mode == Mode::Preemptive;
    let reused = ws.begin_run(job, config, preemptive);
    let mut stats = RunStats::default();
    if reused {
        stats.workspace_reuses = 1;
    } else {
        stats.workspace_cold_inits = 1;
    }
    // Arm the recorder before the allocation probe below: all observability
    // storage is sized here (and retained across runs), so the metered
    // epoch loop records without allocating. With observe off this is a
    // no-op and every recorder call in the loop is an early return.
    // The event stream is a function of the inputs and seed only: whether
    // this worker's workspace was warm shows in `stats`, never in it, and
    // epochs are stamped relative to the workspace's counter at entry.
    ws.obs
        .begin_run(opts.observe, config.procs_per_type(), ws.mach.epoch);
    if ws.obs.events_on() {
        // `policy.init` already ran in the caller; record the init
        // instant retroactively at t = 0.
        ws.obs.policy_init();
        // `begin_run` released the roots (in id order) before the recorder
        // was armed; emit their Release events here.
        for v in job.roots() {
            ws.obs
                .release(0, ws.mach.epoch, v.index() as u32, job.rtype(v));
        }
    }
    let mut last_epoch_t: Option<Instant> = None;
    let mut now: Time = 0;
    // With a counting allocator registered, meter the whole loop below —
    // in steady state (warm workspace + warm policy) the delta is ~0.
    let alloc_at_entry = crate::instrument::alloc_probe();

    {
        let done = ws.rt.state.all_done(job);
        let mut jobs = [SessionJob {
            job,
            rt: &mut ws.rt,
            policy,
            slot: 0,
            done,
        }];
        let mut cx = DriveCtx {
            mach: &mut ws.mach,
            obs: &mut ws.obs,
            config,
            preemptive,
            quantum: opts.quantum,
            record_trace: opts.record_trace,
            inter: InterJobPolicy::Fifo,
            now: &mut now,
            stats: &mut stats,
            last_epoch_t: &mut last_epoch_t,
        };
        session::drive(&mut cx, &mut jobs, None);
    }

    if let Some(at_entry) = alloc_at_entry {
        stats.epoch_bytes = crate::instrument::alloc_probe()
            .unwrap_or(at_entry)
            .saturating_sub(at_entry);
    }

    // --- shared outcome assembly (past the probe: extraction may clone). ---
    ws.obs.run_end(now, ws.mach.epoch);
    let obs = ws.obs.take_run(now);
    if preemptive && opts.record_trace {
        crate::trace::coalesce(&mut ws.mach.segments);
    }
    stats.transitions = ws.rt.state.transition_counts();
    if let Some(sel) = policy.take_selection_stats() {
        stats.selection = sel;
    }
    SimOutcome {
        makespan: now,
        epochs: stats.epochs,
        busy_time: ws.mach.busy_time.clone(),
        trace: opts
            .record_trace
            .then(|| Trace::new(std::mem::take(&mut ws.mach.segments), now)),
        stats,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Assignments, EpochView, FifoPolicy};
    use kdag::KDagBuilder;

    fn opts_trace() -> RunOptions {
        RunOptions::default().with_trace()
    }

    fn chain_job() -> KDag {
        // 2-type chain: (0,w2) -> (1,w3) -> (0,w1)
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 2);
        let m = b.add_task(1, 3);
        let z = b.add_task(0, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_runs_serially_regardless_of_processors() {
        let job = chain_job();
        for p in 1..4 {
            let cfg = MachineConfig::uniform(2, p);
            let out = run(
                &job,
                &cfg,
                &mut FifoPolicy,
                Mode::NonPreemptive,
                &RunOptions::default(),
            );
            assert_eq!(out.makespan, 6);
        }
    }

    #[test]
    fn independent_tasks_fill_processors() {
        // 6 unit tasks of type 0 on 2 processors -> makespan 3.
        let mut b = KDagBuilder::new(1);
        for _ in 0..6 {
            b.add_task(0, 1);
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        let out = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        assert_eq!(out.makespan, 3);
        assert_eq!(out.busy_time, vec![6]);
        assert_eq!(out.utilization(&cfg), vec![1.0]);
    }

    #[test]
    fn empty_job_completes_instantly() {
        let job = KDagBuilder::new(2).build().unwrap();
        let cfg = MachineConfig::uniform(2, 1);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = run(&job, &cfg, &mut FifoPolicy, mode, &RunOptions::default());
            assert_eq!(out.makespan, 0);
            assert_eq!(out.epochs, 0);
        }
    }

    #[test]
    fn preemptive_matches_nonpreemptive_on_chain() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        let np = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        let pe = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::Preemptive,
            &RunOptions::default(),
        );
        assert_eq!(np.makespan, pe.makespan);
    }

    #[test]
    fn per_step_engine_agrees_with_epoch_engine() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        let fast = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::Preemptive,
            &RunOptions::default(),
        );
        let slow = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::Preemptive,
            &RunOptions::default().with_quantum(1),
        );
        assert_eq!(fast.makespan, slow.makespan);
        assert_eq!(fast.busy_time, slow.busy_time);
        // the per-step engine pays one epoch per time unit
        assert!(slow.epochs >= fast.epochs);
    }

    #[test]
    fn traces_are_recorded_and_valid() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 2);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = run(&job, &cfg, &mut FifoPolicy, mode, &opts_trace());
            let trace = out.trace.expect("trace requested");
            crate::trace::validate(&trace, &job, &cfg).unwrap();
            assert_eq!(trace.makespan(), out.makespan);
        }
    }

    #[test]
    fn makespan_never_beats_lower_bound() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        let lb = kdag::metrics::lower_bound(&job, cfg.procs_per_type());
        let out = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        assert!(out.makespan >= lb);
    }

    #[test]
    fn run_stats_count_transitions_and_epochs() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        let np = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
        assert_eq!(np.stats.epochs, np.epochs);
        assert_eq!(np.stats.transitions.releases, 3);
        assert_eq!(np.stats.transitions.starts, 3);
        assert_eq!(np.stats.transitions.completions, 3);
        assert_eq!(np.stats.transitions.progress_updates, 0);
        assert_eq!(np.stats.tasks_assigned, 3);
        assert_eq!(np.stats.transitions.peak_queue_depth, 1);

        let pe = run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::Preemptive,
            &RunOptions::default(),
        );
        assert_eq!(pe.stats.transitions.starts, 0);
        assert_eq!(pe.stats.transitions.completions, 3);
        // one progress update per chosen task per epoch; the chain is
        // serial, so every epoch progresses exactly one task
        assert_eq!(
            pe.stats.transitions.progress_updates,
            pe.stats.tasks_assigned
        );
        assert!(pe.stats.engine_nanos > 0);
    }

    #[test]
    #[should_panic(expected = "job declared K=2 but machine has K=1")]
    fn mismatched_k_panics() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(1, 1);
        run(
            &job,
            &cfg,
            &mut FifoPolicy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_panics() {
        // `quantum` is a public field, so `with_quantum`'s check can be
        // bypassed; the run prologue rejects it instead of looping forever.
        let opts = RunOptions {
            quantum: Some(0),
            ..RunOptions::default()
        };
        run(
            &chain_job(),
            &MachineConfig::uniform(2, 1),
            &mut FifoPolicy,
            Mode::Preemptive,
            &opts,
        );
    }

    /// A hostile policy that assigns a wrong-type task.
    struct WrongType;
    impl crate::policy::Policy for WrongType {
        fn name(&self) -> &str {
            "WrongType"
        }
        fn init(&mut self, _: &KDag, _: &MachineConfig, _: u64, _: &Artifacts) {}
        fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
            // put a type-0 candidate on type-1 processors
            if let Some(rt) = view.queues[0].first() {
                out.push(1, rt.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn engine_rejects_wrong_type_assignment() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        run(
            &job,
            &cfg,
            &mut WrongType,
            Mode::Preemptive,
            &RunOptions::default(),
        );
    }

    /// A policy that refuses to schedule anything.
    struct Lazy;
    impl crate::policy::Policy for Lazy {
        fn name(&self) -> &str {
            "Lazy"
        }
        fn init(&mut self, _: &KDag, _: &MachineConfig, _: u64, _: &Artifacts) {}
        fn assign(&mut self, _: &EpochView<'_>, _: &mut Assignments) {}
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn engine_detects_deadlock_nonpreemptive() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        run(
            &job,
            &cfg,
            &mut Lazy,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn engine_detects_deadlock_preemptive() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 1);
        run(
            &job,
            &cfg,
            &mut Lazy,
            Mode::Preemptive,
            &RunOptions::default(),
        );
    }

    /// Duplicate selection of the same task in one epoch.
    struct Duper;
    impl crate::policy::Policy for Duper {
        fn name(&self) -> &str {
            "Duper"
        }
        fn init(&mut self, _: &KDag, _: &MachineConfig, _: u64, _: &Artifacts) {}
        fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
            if let Some(rt) = view.queues[0].first() {
                out.push(0, rt.id);
                out.push(0, rt.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chosen twice")]
    fn engine_rejects_duplicates_preemptive() {
        // Need ≥ 2 slots so the over-assignment check doesn't fire first.
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 5);
        b.add_task(0, 5);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        run(
            &job,
            &cfg,
            &mut Duper,
            Mode::Preemptive,
            &RunOptions::default(),
        );
    }

    #[test]
    #[should_panic(expected = "chosen twice")]
    fn engine_rejects_duplicates_nonpreemptive() {
        // The shared epoch-stamp validation now catches duplicates in both
        // modes before any state transition.
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 5);
        b.add_task(0, 5);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        run(
            &job,
            &cfg,
            &mut Duper,
            Mode::NonPreemptive,
            &RunOptions::default(),
        );
    }

    #[test]
    fn reused_workspace_matches_cold_run_bitwise() {
        // One workspace hosts runs of different shapes, modes and sizes in
        // sequence; each must reproduce its cold run exactly. (The full
        // cross-product lives in the workspace_equivalence proptest.)
        let chain = chain_job();
        let wide = {
            let mut b = KDagBuilder::new(1);
            for w in [5, 1, 3, 2, 4, 1] {
                b.add_task(0, w);
            }
            b.build().unwrap()
        };
        let cfg2 = MachineConfig::uniform(2, 2);
        let cfg1 = MachineConfig::uniform(1, 2);
        let mut ws = Workspace::new();
        let runs: [(&KDag, &MachineConfig, Mode); 4] = [
            (&chain, &cfg2, Mode::NonPreemptive),
            (&wide, &cfg1, Mode::Preemptive),
            (&chain, &cfg2, Mode::Preemptive),
            (&wide, &cfg1, Mode::NonPreemptive),
        ];
        // With the event channel on too: the event stream must not tell a
        // warm workspace from a cold one (exports are byte-stable across
        // pool workers).
        let opts = RunOptions {
            observe: fhs_obs::ObsConfig {
                events: true,
                ..fhs_obs::ObsConfig::default()
            },
            ..opts_trace()
        };
        for (i, (job, cfg, mode)) in runs.into_iter().enumerate() {
            let cold = run(job, cfg, &mut FifoPolicy, mode, &opts);
            let warm = run_in(&mut ws, job, cfg, &mut FifoPolicy, mode, &opts);
            assert_eq!(warm.makespan, cold.makespan, "run {i}");
            assert_eq!(warm.busy_time, cold.busy_time, "run {i}");
            assert_eq!(warm.epochs, cold.epochs, "run {i}");
            assert_eq!(
                warm.trace.as_ref().unwrap().segments(),
                cold.trace.as_ref().unwrap().segments(),
                "run {i}"
            );
            let events = |o: &SimOutcome| o.obs.as_ref().expect("events on").events.clone();
            assert!(!events(&cold).is_empty(), "run {i}");
            assert_eq!(events(&warm), events(&cold), "run {i}");
            if i == 0 {
                assert_eq!(warm.stats.workspace_cold_inits, 1);
                assert_eq!(warm.stats.workspace_reuses, 0);
            } else {
                assert_eq!(warm.stats.workspace_reuses, 1, "run {i}");
                assert_eq!(warm.stats.workspace_cold_inits, 0, "run {i}");
            }
            // Cold entry points always report a throwaway workspace.
            assert_eq!(cold.stats.workspace_cold_inits, 1);
        }
        assert_eq!(ws.runs(), 4);
    }

    #[test]
    fn observed_run_matches_unobserved_and_accounts_time() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 2);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let plain = run(&job, &cfg, &mut FifoPolicy, mode, &RunOptions::default());
            assert!(plain.obs.is_none());
            let opts = RunOptions {
                observe: fhs_obs::ObsConfig::all(),
                ..RunOptions::default()
            };
            let seen = run(&job, &cfg, &mut FifoPolicy, mode, &opts);
            assert_eq!(seen.makespan, plain.makespan, "{mode:?}");
            assert_eq!(seen.busy_time, plain.busy_time, "{mode:?}");
            assert_eq!(seen.epochs, plain.epochs, "{mode:?}");
            let obs = seen.obs.expect("observe requested");
            let util = obs.util.as_ref().expect("utilization on");
            assert_eq!(util.makespan, plain.makespan);
            for (alpha, t) in util.per_type.iter().enumerate() {
                // The timeline's busy integral is exactly the engine's own
                // busy-time accounting, in both modes.
                assert_eq!(t.busy, plain.busy_time[alpha], "{mode:?} type {alpha}");
                assert_eq!(
                    t.busy + t.idle_active + t.idle_tail,
                    t.procs as u64 * util.makespan,
                    "{mode:?} type {alpha}"
                );
            }
            // Events: one run_begin, one run_end, a release/complete per
            // task; starts only in the non-preemptive engine.
            use fhs_obs::EventKind;
            let count = |k: EventKind| obs.events.iter().filter(|e| e.kind == k).count() as u64;
            assert_eq!(obs.events_dropped, 0);
            assert_eq!(count(EventKind::RunBegin), 1);
            assert_eq!(count(EventKind::RunEnd), 1);
            assert_eq!(count(EventKind::Release), 3);
            assert_eq!(count(EventKind::Complete), 3);
            if mode == Mode::NonPreemptive {
                assert_eq!(count(EventKind::Start), 3);
            }
            assert_eq!(count(EventKind::Epoch), plain.epochs);
            // Timestamps are monotonic.
            assert!(obs.events.windows(2).all(|w| w[0].t <= w[1].t));
            // Latency histograms saw every epoch's assign + k depth samples.
            assert_eq!(obs.assign_ns.count, plain.epochs);
            assert_eq!(obs.queue_depth.count, plain.epochs * 2);
            assert_eq!(obs.epoch_ns.count, plain.epochs.saturating_sub(1));
        }
    }

    #[test]
    fn busy_time_equals_total_work_when_all_complete() {
        let job = chain_job();
        let cfg = MachineConfig::uniform(2, 3);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = run(&job, &cfg, &mut FifoPolicy, mode, &RunOptions::default());
            assert_eq!(out.busy_time.iter().sum::<u64>(), job.total_work());
        }
    }
}
