//! Reusable per-run simulation state: the steady-state execution layer.
//!
//! Every [`crate::engine::run`] call cold-allocates the engine's entire
//! mutable state — the [`JobState`] position maps and tombstone storage,
//! the completion calendar, the `free_procs` index stacks, `busy_time`,
//! the duplicate-selection stamps. A sweep performs thousands of runs, so
//! that allocator traffic dominates steady-state cost once per-instance
//! analysis is shared (PR 2).
//!
//! A [`Workspace`] owns all of it once, split along the session engine's
//! ownership seam (PR 6):
//!
//! * `JobRt` — the runtime of **one job**: its [`JobState`], assignment
//!   lanes, duplicate-selection stamps, processor maps, and stream
//!   metadata (arrival/first-start/finish times). The single-job engine
//!   uses the workspace's own `rt`; a [`crate::session::Session`] owns one
//!   `JobRt` per in-flight job and recycles them through a spare pool.
//! * `MachState` — the **machine-side** state shared by every job in a
//!   session: per-type busy counts and busy time, the free-processor
//!   stacks, the completion calendar (events drained in
//!   `(time, job slot, task)` order), the per-epoch slot counts, and the
//!   monotonic epoch counter.
//!
//! The `*_in` entry points ([`crate::engine::run_in`],
//! [`crate::metrics::evaluate_observed_in`]) `clear()`-and-reuse the
//! buffers instead of reallocating: the second and later runs on the same
//! workspace allocate ~nothing in the epoch loop (asserted by a
//! counting-allocator test in `fhs-bench`). The runner keeps one workspace
//! per pool worker, so a full sweep performs O(workers) engine allocations
//! instead of O(cells × instances).
//!
//! Reuse is **bit-for-bit invisible**: a run on a dirty reused workspace
//! produces exactly the outcome of a cold run (property-tested across
//! differently-shaped instances, both modes, both cadences). Two
//! invariants make that safe:
//!
//! * Every buffer is fully re-initialized for the incoming `(job, config)`
//!   shape — the machine side by `Workspace::arm`, a job runtime when its
//!   job attaches; capacity is retained, contents are not.
//! * The duplicate-selection stamps are *not* cleared — instead the epoch
//!   counter is monotonic across all runs on one workspace, so a stale
//!   stamp (≤ the counter at hand-back) can never equal a fresh epoch id
//!   (> it). The counter advances eagerly inside the loop, so even a run
//!   abandoned by a panic leaves the workspace consistent. The same
//!   argument covers session-recycled `JobRt`s: their stamps were written
//!   against the same monotonic counter. A stamp is a `u32` offset of the
//!   epoch from the job runtime's `stamp_base`; when the counter runs
//!   2³² epochs past the base, the stamps are zeroed and the base moves
//!   up (`JobRt::stamp_id`), so a stale stamp still never matches.
//!
//! Policy values are kept warm the same way (one per algorithm per pool
//! worker) and own their scratch: [`crate::policy::Policy::init`]
//! re-derives every per-job table and each scratch buffer is cleared
//! where it is used, so the workspace holds no policy state.

use kdag::{KDag, TaskId};

use crate::calendar::{CalEvent, Calendar};
use crate::config::MachineConfig;
use crate::engine::Mode;
use crate::instrument::RunStats;
use crate::policy::Assignments;
use crate::session::{Run, SessionOptions};
use crate::state::JobState;
use crate::trace::Segment;
use crate::Time;

/// `JobRt::proc_of` entry of a preemptive task holding no processor.
pub(crate) const NO_PROC: u32 = u32::MAX;

/// The per-job half of the engine's mutable state: everything whose
/// lifetime is one job, reusable across jobs of arbitrary shape via
/// [`reset_for`](JobRt::reset_for). The single-job engine embeds one in
/// its [`Workspace`]; a [`crate::session::Session`] owns one per admitted
/// job and recycles retired ones.
#[derive(Debug, Default)]
pub(crate) struct JobRt {
    /// Queues, statuses and dependency counters; reset in place per job.
    pub(crate) state: JobState,
    /// The policy's output lanes for this job.
    pub(crate) out: Assignments,
    /// Duplicate-selection stamps: the offset from `stamp_base` of the
    /// last epoch that chose each task (0 = none since the base moved).
    /// Cleared only when the base moves (see module docs).
    pub(crate) stamp: Vec<u32>,
    /// The epoch the stamps count from; every epoch id a stamp can hold
    /// is in `stamp_base + 1 ..= stamp_base + 2³² − 1`.
    pub(crate) stamp_base: u64,
    /// Processor of each task: non-preemptive, the one a running task
    /// occupies; preemptive, the last one it ran on (trace stability),
    /// [`NO_PROC`] before its first run and after it completes.
    pub(crate) proc_of: Vec<u32>,
    /// Session metadata: admission time of the job (0 for single runs).
    pub(crate) arrival: Time,
    /// Session metadata: first time any task of the job was dispatched.
    pub(crate) first_start: Option<Time>,
    /// Session metadata: completion time, set when the last task drains.
    pub(crate) finish: Option<Time>,
    /// Session metadata: work dispatched to (np) or executed for (pre)
    /// this job so far — the fair-share attained-service key.
    pub(crate) attained: u64,
}

impl JobRt {
    /// Re-initializes for `job` in place (capacity retained) and releases
    /// the roots; `arrival` stamps the job's admission time.
    pub(crate) fn reset_for(&mut self, job: &KDag, preemptive: bool, arrival: Time) {
        let n = job.num_tasks();
        self.state.reset(job);
        // Stamps are only *resized*, not zeroed: surviving entries hold ids
        // of epochs at or before the machine's monotonic counter, so they
        // can never collide with a fresh epoch's id (`stamp_id`).
        self.stamp.resize(n, 0);
        self.proc_of.clear();
        self.proc_of.resize(n, if preemptive { NO_PROC } else { 0 });
        self.arrival = arrival;
        self.first_start = None;
        self.finish = None;
        self.attained = 0;
    }

    /// The stamp of machine epoch `epoch`, which must be no earlier than
    /// any epoch this runtime has stamped (the counter is monotonic).
    /// Once `epoch` lies 2³² or more past `stamp_base`, the stamps are
    /// zeroed and the base moves to `epoch − 1`, so the id is 1 and every
    /// stale stamp, now 0, is below it.
    #[inline]
    pub(crate) fn stamp_id(&mut self, epoch: u64) -> u32 {
        match u32::try_from(epoch - self.stamp_base) {
            Ok(id) => id,
            Err(_) => {
                self.stamp.fill(0);
                self.stamp_base = epoch - 1;
                1
            }
        }
    }
}

/// The machine-side half of the engine's mutable state, shared by every
/// job in a session: pool occupancy, the completion calendar, per-epoch
/// scratch, and the monotonic epoch counter.
#[derive(Debug, Default)]
pub(crate) struct MachState {
    /// Per-type processor-busy time (cumulative over the whole session).
    pub(crate) busy_time: Vec<Time>,
    /// Trace segments (populated only when tracing; stolen by the outcome).
    pub(crate) segments: Vec<Segment>,
    /// Per-type slot counts recomputed every epoch (and decremented as
    /// jobs consume them within the epoch).
    pub(crate) slots: Vec<usize>,
    /// Reusable copy of one type's chosen slice (ends the `out` borrow).
    pub(crate) chosen_buf: Vec<TaskId>,
    /// Monotonic epoch counter across every run on this workspace.
    pub(crate) epoch: u64,
    /// Non-preemptive: occupied processors per type.
    pub(crate) busy: Vec<usize>,
    /// Non-preemptive: free-processor index stacks (stable trace ids).
    pub(crate) free_procs: Vec<Vec<u32>>,
    /// Non-preemptive: pending completion events, drained in
    /// `(time, job slot, task)` order. The slot is 0 for single-job runs,
    /// so the ordering is exactly the old `(time, task)` key.
    pub(crate) cal: Calendar,
    /// Reusable drain buffer for one completion time's events.
    pub(crate) events_buf: Vec<CalEvent>,
    /// Preemptive: tasks chosen per type this epoch, summed across jobs
    /// (feeds the utilization timeline).
    pub(crate) running_now: Vec<u32>,
    /// Inter-job priority order scratch: `(key, job index)` pairs.
    pub(crate) order: Vec<(u64, u32)>,
}

impl MachState {
    /// Re-initializes the machine state for `config` (capacity retained).
    /// The epoch counter is *not* reset — it is monotonic for the life of
    /// the workspace (see module docs).
    pub(crate) fn reset(&mut self, config: &MachineConfig, preemptive: bool) {
        let k = config.num_types();
        self.busy_time.clear();
        self.busy_time.resize(k, 0);
        self.segments.clear();
        self.slots.clear();
        self.slots.resize(k, 0);
        self.chosen_buf.clear();
        self.order.clear();
        if preemptive {
            self.running_now.clear();
            self.running_now.resize(k, 0);
        } else {
            self.busy.clear();
            self.busy.resize(k, 0);
            self.cal.clear();
            self.events_buf.clear();
            for q in &mut self.free_procs {
                q.clear();
            }
            self.free_procs.truncate(k);
            self.free_procs.resize_with(k, Vec::new);
            for (alpha, q) in self.free_procs.iter_mut().enumerate() {
                q.extend((0..config.procs(alpha) as u32).rev());
            }
        }
    }
}

/// Owns every per-run allocation of the engine, reusable across runs of
/// arbitrary `(job, config)` shapes. See the module docs for the reuse
/// contract and the `JobRt`/`MachState` split.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The single-job runtime (job slot 0 of a one-job session).
    pub(crate) rt: JobRt,
    /// Machine-side state shared across jobs.
    pub(crate) mach: MachState,
    /// Observability recorder (timelines, histograms, event trace). Armed
    /// per run by the engine from [`crate::engine::RunOptions::observe`];
    /// inert (every call an early-return no-op) when nothing is enabled.
    /// Owned here so its storage survives runs and the warm epoch loop
    /// records without allocating.
    pub(crate) obs: fhs_obs::Recorder,
    /// Completed runs on this workspace (drives the reuse counters).
    runs: u64,
}

impl Workspace {
    /// An empty workspace. No buffer is allocated until the first run.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of engine runs (or sessions) this workspace has hosted.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Arms the workspace for one run over `config` — a single job or a
    /// whole session: re-initializes the machine-side state in place
    /// (capacity retained; a job runtime is reset when its job attaches),
    /// arms the recorder for `opts.observe`, and starts the [`Run`] at
    /// time 0 with counters that record whether the workspace was warm.
    ///
    /// # Panics
    /// If `opts.quantum` is `Some(0)`.
    pub(crate) fn arm(
        &mut self,
        config: &MachineConfig,
        opts: SessionOptions,
        record_trace: bool,
    ) -> Run {
        assert!(opts.quantum != Some(0), "quantum must be positive");
        let mut stats = RunStats::default();
        if self.runs > 0 {
            stats.workspace_reuses = 1;
        } else {
            stats.workspace_cold_inits = 1;
        }
        self.runs += 1;
        self.mach.reset(config, opts.mode == Mode::Preemptive);
        // Sized here and retained, so the metered loop records without
        // allocating. Events are stamped relative to the epoch counter at
        // entry: a warm workspace shows in the counters, never in them.
        self.obs
            .begin_run(opts.observe, config.procs_per_type(), self.mach.epoch);
        Run {
            opts,
            record_trace,
            now: 0,
            stats,
            last_epoch_t: None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn arm_reports_reuse_and_resets_shape() {
        let cfg = MachineConfig::uniform(2, 3);
        let mut ws = Workspace::new();
        let stats = ws.arm(&cfg, SessionOptions::default(), false).stats;
        assert_eq!((stats.workspace_cold_inits, stats.workspace_reuses), (1, 0));
        assert_eq!(ws.mach.busy_time, vec![0, 0]);
        assert_eq!(ws.mach.free_procs.len(), 2);
        assert_eq!(ws.mach.free_procs[0], vec![2, 1, 0]);
        assert_eq!(ws.runs(), 1);
        // Dirty the buffers, then reuse with a smaller machine.
        ws.mach.busy_time[1] = 99;
        ws.mach.free_procs[0].clear();
        let cfg2 = MachineConfig::uniform(2, 1);
        let stats = ws.arm(&cfg2, SessionOptions::default(), false).stats;
        assert_eq!((stats.workspace_cold_inits, stats.workspace_reuses), (0, 1));
        assert_eq!(ws.mach.busy_time, vec![0, 0]);
        assert_eq!(ws.mach.free_procs[0], vec![0]);
        assert_eq!(ws.runs(), 2);
    }

    #[test]
    fn stamps_survive_resizes_without_collisions() {
        use kdag::KDagBuilder;
        let big = {
            let mut b = KDagBuilder::new(1);
            for _ in 0..8 {
                b.add_task(0, 1);
            }
            b.build().unwrap()
        };
        let small = {
            let mut b = KDagBuilder::new(1);
            b.add_task(0, 1);
            b.build().unwrap()
        };
        let mut rt = JobRt::default();
        rt.reset_for(&big, true, 0);
        rt.stamp.fill(5);
        rt.reset_for(&small, true, 0);
        rt.reset_for(&big, true, 0);
        // Entries reborn by the shrink-then-grow hold 0; survivors hold 5.
        // Both are below any future epoch id (monotonic counter at 5).
        let now = rt.stamp_id(5);
        assert!(rt.stamp.iter().all(|&s| s <= now));
    }

    /// Six independent tasks of work 3 on two type-0 processors: FIFO
    /// runs them two at a time, one decision epoch per pair.
    pub(crate) fn three_pairs() -> KDag {
        let mut b = kdag::KDagBuilder::new(1);
        for _ in 0..6 {
            b.add_task(0, 3);
        }
        b.build().unwrap()
    }

    #[test]
    fn stamps_rebase_when_the_epoch_counter_crosses_2_pow_32() {
        use crate::engine::{run, run_in, Mode, RunOptions};
        use crate::policy::FifoPolicy;
        let job = three_pairs();
        let cfg = MachineConfig::uniform(1, 2);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let opts = RunOptions::default().with_trace();
            let cold = run(&job, &cfg, &mut FifoPolicy, mode, &opts);
            assert_eq!(cold.epochs, 3, "{mode:?}");
            let mut ws = Workspace::new();
            run_in(&mut ws, &job, &cfg, &mut FifoPolicy, mode, &opts);
            // Stale stamps as an epoch-1 pick leaves them; the next run's
            // epochs are 2³² − 1, 2³² and 2³² + 1. Unless the crossing
            // zeroes them, the second pair collides with its id there (1).
            ws.rt.stamp.fill(1);
            ws.mach.epoch = (1 << 32) - 2;
            let warm = run_in(&mut ws, &job, &cfg, &mut FifoPolicy, mode, &opts);
            assert_eq!(ws.mach.epoch, (1 << 32) + 1, "{mode:?}");
            assert_eq!(ws.rt.stamp_base, (1 << 32) - 1, "{mode:?}");
            // The rebase zeroed the first pair's stamps (id 2³² − 1).
            assert_eq!(ws.rt.stamp, [0, 0, 1, 1, 2, 2], "{mode:?}");
            assert_eq!(warm.makespan, cold.makespan, "{mode:?}");
            assert_eq!(
                warm.trace.unwrap().segments(),
                cold.trace.unwrap().segments(),
                "{mode:?}"
            );
            assert_eq!(warm.stats.transitions, cold.stats.transitions, "{mode:?}");
            assert_eq!(warm.stats.epochs, cold.stats.epochs, "{mode:?}");
        }
    }

    /// Chooses the first queued task twice.
    pub(crate) struct Duper;
    impl crate::policy::Policy for Duper {
        fn init(&mut self, _: &KDag, _: &MachineConfig, _: u64, _: &kdag::precompute::Artifacts) {}
        fn assign(&mut self, view: &crate::policy::EpochView<'_>, out: &mut Assignments) {
            if let Some(rt) = view.queues[0].first() {
                out.push(0, rt.id);
                out.push(0, rt.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chosen twice")]
    fn duplicates_panic_right_after_the_stamp_rebase() {
        use crate::engine::{run_in, Mode, RunOptions};
        let job = three_pairs();
        let cfg = MachineConfig::uniform(1, 2);
        let mut ws = Workspace::new();
        ws.mach.epoch = (1 << 32) - 1;
        run_in(
            &mut ws,
            &job,
            &cfg,
            &mut Duper,
            Mode::Preemptive,
            &RunOptions::default(),
        );
    }

    #[test]
    fn job_rt_reset_clears_stream_metadata() {
        use kdag::KDagBuilder;
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 1);
        let job = b.build().unwrap();
        let mut rt = JobRt::default();
        rt.reset_for(&job, false, 7);
        rt.first_start = Some(9);
        rt.finish = Some(12);
        rt.attained = 5;
        rt.reset_for(&job, false, 20);
        assert_eq!(rt.arrival, 20);
        assert_eq!(rt.first_start, None);
        assert_eq!(rt.finish, None);
        assert_eq!(rt.attained, 0);
    }
}
