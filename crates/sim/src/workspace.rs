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
//!   shape by `Workspace::begin_run`; capacity is retained, contents are
//!   not.
//! * The duplicate-selection stamps are *not* cleared — instead the epoch
//!   counter is monotonic across all runs on one workspace, so a stale
//!   stamp (≤ the counter at hand-back) can never equal a fresh epoch id
//!   (> it). The counter advances eagerly inside the loop, so even a run
//!   abandoned by a panic leaves the workspace consistent. The same
//!   argument covers session-recycled `JobRt`s: their stamps were written
//!   against the same monotonic counter.
//!
//! Policies participate through [`crate::policy::Policy::reset_in`]: the
//! hook runs before `init` on the `*_in` paths and lets a policy clear
//! per-run scratch it owns or park per-run state in the workspace's typed
//! [`scratch_mut`](Workspace::scratch_mut) slots. The default is a no-op
//! (the cold path), and the contract is the same as for artifacts:
//! behavior must stay bit-identical to a cold run.

use std::any::{Any, TypeId};

use kdag::{KDag, TaskId};

use crate::calendar::{CalEvent, Calendar};
use crate::config::MachineConfig;
use crate::policy::Assignments;
use crate::state::JobState;
use crate::trace::Segment;
use crate::Time;

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
    /// Duplicate-selection stamps; never cleared (see module docs).
    pub(crate) stamp: Vec<u64>,
    /// Non-preemptive: processor each running task occupies.
    pub(crate) proc_of: Vec<u32>,
    /// Preemptive: last processor each task ran on (trace stability).
    pub(crate) last_proc: Vec<Option<u32>>,
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
        // Stamps are only *resized*, never zeroed: surviving entries hold
        // epoch ids ≤ the machine's monotonic counter, so they can never
        // collide with a fresh epoch id.
        self.stamp.resize(n, 0);
        if preemptive {
            self.last_proc.clear();
            self.last_proc.resize(n, None);
        } else {
            self.proc_of.clear();
            self.proc_of.resize(n, 0);
        }
        self.arrival = arrival;
        self.first_start = None;
        self.finish = None;
        self.attained = 0;
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
#[derive(Debug)]
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
    /// Policy-owned typed scratch slots, keyed by concrete type. A linear
    /// scan: policies register at most a couple of entries.
    scratch: Vec<(TypeId, Box<dyn Any + Send>)>,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace {
            rt: JobRt::default(),
            mach: MachState::default(),
            obs: fhs_obs::Recorder::new(),
            runs: 0,
            scratch: Vec::new(),
        }
    }
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

    /// The typed scratch slot for `T`, created (via `Default`) on first
    /// access. Policies use this from [`crate::policy::Policy::reset_in`]
    /// to keep per-run buffers alive across runs on the same worker.
    pub fn scratch_mut<T: Default + Send + 'static>(&mut self) -> &mut T {
        let tid = TypeId::of::<T>();
        if let Some(i) = self.scratch.iter().position(|(t, _)| *t == tid) {
            return self.scratch[i]
                .1
                .downcast_mut::<T>()
                .expect("scratch slot type matches its TypeId key");
        }
        self.scratch.push((tid, Box::new(T::default())));
        self.scratch
            .last_mut()
            .expect("pushed just above")
            .1
            .downcast_mut::<T>()
            .expect("scratch slot type matches its TypeId key")
    }

    /// Re-initializes every engine buffer for a single-job run of
    /// `(job, config)` in place, retaining capacity. Returns `true` when
    /// this is a reuse (the workspace has hosted a run before).
    pub(crate) fn begin_run(
        &mut self,
        job: &KDag,
        config: &MachineConfig,
        preemptive: bool,
    ) -> bool {
        let reused = self.runs > 0;
        self.runs += 1;
        self.rt.reset_for(job, preemptive, 0);
        self.mach.reset(config, preemptive);
        reused
    }

    /// Re-initializes the machine-side state for a session over `config`.
    /// The embedded single-job `rt` is left untouched (sessions own their
    /// job runtimes). Returns `true` on reuse.
    pub(crate) fn begin_session(&mut self, config: &MachineConfig, preemptive: bool) -> bool {
        let reused = self.runs > 0;
        self.runs += 1;
        self.mach.reset(config, preemptive);
        reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_slots_are_typed_and_persistent() {
        let mut ws = Workspace::new();
        ws.scratch_mut::<Vec<u64>>().push(7);
        *ws.scratch_mut::<u32>() += 3;
        ws.scratch_mut::<Vec<u64>>().push(9);
        assert_eq!(ws.scratch_mut::<Vec<u64>>(), &[7, 9]);
        assert_eq!(*ws.scratch_mut::<u32>(), 3);
    }

    #[test]
    fn begin_run_reports_reuse_and_resets_shape() {
        use kdag::KDagBuilder;
        let mut b = KDagBuilder::new(2);
        b.add_task(0, 4);
        b.add_task(1, 2);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(2, 3);
        let mut ws = Workspace::new();
        assert!(!ws.begin_run(&job, &cfg, false));
        assert_eq!(ws.mach.busy_time, vec![0, 0]);
        assert_eq!(ws.mach.free_procs.len(), 2);
        assert_eq!(ws.mach.free_procs[0], vec![2, 1, 0]);
        assert_eq!(ws.runs(), 1);
        // Dirty the buffers, then reuse with a smaller machine.
        ws.mach.busy_time[1] = 99;
        ws.mach.free_procs[0].clear();
        let cfg2 = MachineConfig::uniform(2, 1);
        assert!(ws.begin_run(&job, &cfg2, false));
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
        let cfg = MachineConfig::uniform(1, 2);
        let mut ws = Workspace::new();
        ws.begin_run(&big, &cfg, true);
        ws.mach.epoch = 5;
        ws.rt.stamp.fill(5);
        ws.begin_run(&small, &cfg, true);
        ws.begin_run(&big, &cfg, true);
        // Entries reborn by the shrink-then-grow hold 0; survivors hold 5.
        // Both are below any future epoch id (monotonic counter at 5).
        assert!(ws.rt.stamp.iter().all(|&s| s <= ws.mach.epoch));
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
