//! The session engine: a long-lived multi-job scheduler over one machine.
//!
//! The paper's model is one K-DAG job scheduled to a makespan; a service
//! absorbs a *stream* of jobs. A [`Session`] owns the machine-side state
//! of a [`Workspace`] for its whole lifetime and moves jobs through an
//! admit → step → retire lifecycle:
//!
//! * **admit** — [`Session::admit`] attaches a seeded job at the current
//!   simulation time: a recycled `JobRt` is reset for its shape, the
//!   per-job policy is initialized via [`Policy::init`] from the job's
//!   [`Artifacts`] bundle (a fresh lazy one, or the caller's through
//!   [`Session::admit_with_artifacts`]), and its roots join the shared
//!   ready state.
//! * **step** — [`Session::run_until`] advances the shared epoch/event
//!   loop (`drive`) to a target time, stopping exactly at the horizon so
//!   arrivals interleave deterministically with completions. Every epoch,
//!   an [`InterJobPolicy`] orders the active jobs and each job's *intra*-job
//!   policy fills its assignment against the slots earlier jobs left.
//! * **retire** — jobs whose last task drained are detached
//!   ([`Policy::detach_job`]), their
//!   runtimes and policy values returned to spare pools, and a
//!   [`JobRecord`](fhs_obs::JobRecord) (response time, queueing delay,
//!   slowdown vs the isolated lower bound) is folded into the session's
//!   [`StreamStats`](fhs_obs::StreamStats).
//!
//! The single-job engine is a one-job session: [`crate::engine::run`]
//! calls the same `drive` loop with one `SessionJob` and no horizon,
//! which is why the session refactor is pinned **bit-identical** to the
//! historical engine by the golden and property tests (and by the
//! `session_equivalence` proptest in `fhs-core`, which replays one-job
//! sessions against `engine::run` for all six algorithms in both modes).
//!
//! Multi-job invariants (vs the single-job engine):
//!
//! * Completion events drain in `(time, job slot, task)` order; slots are
//!   stable for the life of a job and 0 for single runs, so single-job
//!   event order is unchanged.
//! * The epoch counter stays monotonic across jobs and sessions, so
//!   recycled duplicate-selection stamps can never collide.
//! * Within an epoch, jobs consume slots in inter-job priority order;
//!   with one job the policy sees exactly the historical slot counts.
//! * Trace recording assumes task ids are unique, which only holds for
//!   single-job sessions; streaming sessions record per-job metrics
//!   instead.

use std::sync::Arc;
use std::time::Instant;

use kdag::precompute::Artifacts;
use kdag::{KDag, TaskId, Work};

use crate::config::MachineConfig;
use crate::engine::Mode;
use crate::instrument::RunStats;
use crate::policy::{EpochView, Policy};
use crate::trace::Segment;
use crate::workspace::{JobRt, MachState, Workspace, NO_PROC};
use crate::Time;

/// How a [`Session`] orders active jobs when handing out the epoch's
/// processor slots. All three are deterministic and work-conserving: a
/// later job always sees whatever slots earlier jobs declined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InterJobPolicy {
    /// Admission order: the earliest-admitted job picks first.
    #[default]
    Fifo,
    /// Ascending attained service (work dispatched so far), ties broken by
    /// admission order — a deterministic fair-share discipline.
    FairShare,
    /// Descending slot-fill potential `Σ_α min(ready_α, slots_α)`, ties by
    /// admission order: the job that can soak up the most idle capacity
    /// right now picks first (utilization-aware admission).
    UtilizationAware,
}

impl InterJobPolicy {
    /// Short machine-readable label (CLI/CSV/JSON).
    pub fn label(&self) -> &'static str {
        match self {
            InterJobPolicy::Fifo => "fifo",
            InterJobPolicy::FairShare => "fair",
            InterJobPolicy::UtilizationAware => "util",
        }
    }

    /// Parses a [`label`](InterJobPolicy::label).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fifo" => Some(InterJobPolicy::Fifo),
            "fair" => Some(InterJobPolicy::FairShare),
            "util" => Some(InterJobPolicy::UtilizationAware),
            _ => None,
        }
    }
}

/// All inter-job disciplines, in display order.
pub const ALL_INTER_JOB_POLICIES: [InterJobPolicy; 3] = [
    InterJobPolicy::Fifo,
    InterJobPolicy::FairShare,
    InterJobPolicy::UtilizationAware,
];

/// Identifier of a job admitted to a [`Session`], unique per session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Knobs for one [`Session`].
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Scheduling mode (shared by all jobs in the session).
    pub mode: Mode,
    /// Preemptive re-decision cadence (see
    /// [`RunOptions::quantum`](crate::engine::RunOptions::quantum)).
    pub quantum: Option<Work>,
    /// Inter-job slot-ordering discipline.
    pub inter: InterJobPolicy,
    /// Observability channels. Event tracing across jobs reuses task ids,
    /// so per-task event streams are only meaningful for one-job sessions;
    /// utilization timelines and latency histograms are job-agnostic.
    pub observe: fhs_obs::ObsConfig,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            mode: Mode::NonPreemptive,
            quantum: None,
            inter: InterJobPolicy::Fifo,
            observe: fhs_obs::ObsConfig::default(),
        }
    }
}

impl SessionOptions {
    /// Options for `mode` with defaults otherwise.
    pub fn new(mode: Mode) -> Self {
        SessionOptions {
            mode,
            ..SessionOptions::default()
        }
    }

    /// Sets the inter-job discipline.
    pub fn with_inter(mut self, inter: InterJobPolicy) -> Self {
        self.inter = inter;
        self
    }
}

/// Aggregate result of a finished [`Session`].
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Simulation time when the session finished (last completion or the
    /// latest `run_until` horizon, whichever is later).
    pub makespan: Time,
    /// Per-type processor-busy time, cumulative over all jobs.
    pub busy_time: Vec<Time>,
    /// Engine counters accumulated across the whole session.
    pub stats: RunStats,
    /// Per-job records in retirement order.
    pub jobs: Vec<fhs_obs::JobRecord>,
    /// Mergeable response/queueing/slowdown histograms over retired jobs.
    pub stream: fhs_obs::StreamStats,
    /// Observability payload, when any channel was enabled.
    pub obs: Option<Box<fhs_obs::RunObs>>,
}

/// One active job as seen by the `drive` loop: the job graph, its
/// runtime, its policy, and its stable heap slot.
pub(crate) struct SessionJob<'a> {
    pub(crate) job: &'a KDag,
    pub(crate) rt: &'a mut JobRt,
    pub(crate) policy: &'a mut dyn Policy,
    /// Stable id carried by this job's completion-calendar entries; 0 for
    /// single-job runs.
    pub(crate) slot: u32,
    /// Cached `state.all_done` (maintained at completion points).
    pub(crate) done: bool,
}

/// Why `drive` returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DriveEnd {
    /// Every job in the slice has drained.
    AllDone,
    /// The clock reached `stop_at` (the next arrival horizon).
    Reached,
}

/// Borrowed context threaded through one `drive` call: machine state,
/// recorder, config, cadence, and the accumulators that persist across
/// calls within a session.
pub(crate) struct DriveCtx<'a> {
    pub(crate) mach: &'a mut MachState,
    pub(crate) obs: &'a mut fhs_obs::Recorder,
    pub(crate) config: &'a MachineConfig,
    pub(crate) preemptive: bool,
    pub(crate) quantum: Option<Work>,
    pub(crate) record_trace: bool,
    pub(crate) inter: InterJobPolicy,
    pub(crate) now: &'a mut Time,
    pub(crate) stats: &'a mut RunStats,
    /// Timestamp of the previous epoch's assign (epoch-duration histogram
    /// sampling); persists across drive calls within a session.
    pub(crate) last_epoch_t: &'a mut Option<Instant>,
}

/// The shared admit/step/drain epoch loop — the engine core for both the
/// single-job entry points ([`crate::engine::run`] passes one job and no
/// horizon) and streaming [`Session`]s (which call it between arrivals
/// with `stop_at` at the next admission time).
///
/// Runs until every job in `jobs` has drained ([`DriveEnd::AllDone`]) or
/// the clock cannot advance further without passing `stop_at`
/// ([`DriveEnd::Reached`]). With `stop_at == None` the loop preserves the
/// historical engine semantics exactly, including its deadlock panics.
pub(crate) fn drive(
    cx: &mut DriveCtx<'_>,
    jobs: &mut [SessionJob<'_>],
    stop_at: Option<Time>,
) -> DriveEnd {
    let k = cx.config.num_types();
    let latency_on = cx.obs.latency_on();

    loop {
        if jobs.iter().all(|j| j.done) {
            return DriveEnd::AllDone;
        }
        if let Some(s) = stop_at {
            if *cx.now >= s {
                return DriveEnd::Reached;
            }
        }

        // --- shared: per-type slot counts; decide whether to consult. A
        // non-preemptive epoch only happens when some type has both a free
        // processor and a candidate; preemptive epochs always re-decide
        // (some job is incomplete, so some queue is non-empty).
        let consult = if cx.preemptive {
            for (alpha, slot) in cx.mach.slots.iter_mut().enumerate() {
                *slot = cx.config.procs(alpha);
            }
            true
        } else {
            let mut any = false;
            for alpha in 0..k {
                cx.mach.slots[alpha] = cx.config.procs(alpha) - cx.mach.busy[alpha];
                if cx.mach.slots[alpha] > 0
                    && jobs
                        .iter()
                        .any(|j| !j.done && !j.rt.state.queues()[alpha].is_empty())
                {
                    any = true;
                }
            }
            any
        };

        if consult {
            // --- shared: decision epoch. The epoch counter is monotonic
            // across every run on this workspace (bumped eagerly, so a
            // panicking run cannot leave stamps above it), which is what
            // lets workspace and job-runtime reuse skip clearing stamps.
            cx.mach.epoch += 1;
            cx.stats.epochs += 1;
            if cx.preemptive {
                cx.mach.running_now[..k].fill(0);
            }

            // Dirty-set scan (non-preemptive): a job whose every non-empty
            // queue faces a fully-busy pool cannot legally receive a task
            // this epoch, so its policy need not be consulted at all. The
            // per-type masks make that test one AND: `free_mask` tracks
            // types with free processors (cleared below as jobs consume the
            // last slot of a type), `ready_mask` tracks the job's non-empty
            // queues. Skipping is gated off when the latency channel is on
            // (it samples queue depths per consultation) and for machines
            // wider than the 128-bit masks.
            let dirty_set = !cx.preemptive && !latency_on && k <= 128;
            let mut free_mask: u128 = 0;
            if !cx.preemptive {
                for alpha in 0..k.min(128) {
                    if cx.mach.slots[alpha] > 0 {
                        free_mask |= 1 << alpha;
                    }
                }
            }
            let mut skipped_any = false;

            let mut min_rem: Option<Work> = None;
            let mut epoch_total: u64 = 0;
            let mut first_in_epoch = true;
            let use_order = priority_order(cx, jobs);
            let njobs = if use_order {
                cx.mach.order.len()
            } else {
                jobs.len()
            };
            for oi in 0..njobs {
                let ji = if use_order {
                    cx.mach.order[oi].1 as usize
                } else {
                    oi
                };
                let j = &mut jobs[ji];
                if j.done {
                    continue;
                }
                if !cx.preemptive {
                    if dirty_set && j.rt.state.ready_mask() & free_mask == 0 {
                        // Stale `out`/journals are safe: the non-preemptive
                        // advance never reads `out`, and journal consumers
                        // track their own cursors across unconsulted epochs.
                        skipped_any = true;
                        continue;
                    }
                    cx.stats.dirty_visits += 1;
                }
                j.rt.out.reset(k);
                let stamp = j.rt.stamp_id(cx.mach.epoch);
                if latency_on {
                    for alpha in 0..k {
                        cx.obs.record_depth(j.rt.state.queues()[alpha].len() as u64);
                    }
                }
                let view = EpochView {
                    time: *cx.now,
                    job: j.job,
                    config: cx.config,
                    queues: j.rt.state.queues(),
                    queue_work: j.rt.state.queue_work(),
                    slots: &cx.mach.slots,
                    preemptive: cx.preemptive,
                };
                let assign_t = Instant::now();
                j.policy.assign(&view, &mut j.rt.out);
                let assign_ns = assign_t.elapsed().as_nanos() as u64;
                cx.stats.assign_nanos += assign_ns;
                if latency_on {
                    cx.obs.record_assign_ns(assign_ns);
                    // Epoch duration = wall time between consecutive
                    // decision epochs (n epochs yield n−1 samples), sampled
                    // at the first assign boundary of the epoch — the
                    // latency channel adds no clock read of its own here.
                    if first_in_epoch {
                        if let Some(prev) = cx.last_epoch_t.replace(assign_t) {
                            cx.obs
                                .record_epoch_ns(assign_t.duration_since(prev).as_nanos() as u64);
                        }
                    }
                }
                first_in_epoch = false;
                // The policy has consumed this epoch's queue diffs; truncate
                // the change-journals so the post-assign transitions below
                // (starts, progress, releases) accumulate into a fresh
                // journal for the next epoch.
                j.rt.state.clear_journals();
                epoch_total += j.rt.out.total() as u64;

                for alpha in 0..k {
                    // Reusable copy of one type's chosen slice: reading it
                    // once per type ends the borrow of `rt.out` before the
                    // state mutations below.
                    cx.mach.chosen_buf.clear();
                    cx.mach.chosen_buf.extend_from_slice(j.rt.out.chosen(alpha));
                    // --- shared validation: capacity, type, duplicates. ---
                    assert!(
                        cx.mach.chosen_buf.len() <= cx.mach.slots[alpha],
                        "policy over-assigned type {alpha}: {} chosen for {} slots",
                        cx.mach.chosen_buf.len(),
                        cx.mach.slots[alpha]
                    );
                    cx.mach.slots[alpha] -= cx.mach.chosen_buf.len();
                    if alpha < 128 && cx.mach.slots[alpha] == 0 {
                        // Later (lower-priority) jobs skip types this job
                        // just saturated.
                        free_mask &= !(1u128 << alpha);
                    }
                    for &v in &cx.mach.chosen_buf {
                        assert_eq!(
                            j.job.rtype(v),
                            alpha,
                            "type mismatch for task {v}: type {} chosen for type-{alpha} processors",
                            j.job.rtype(v)
                        );
                        assert_ne!(j.rt.stamp[v.index()], stamp, "task {v} chosen twice");
                        j.rt.stamp[v.index()] = stamp;
                    }
                    cx.stats.tasks_assigned += cx.mach.chosen_buf.len() as u64;

                    // --- mode dispatch. ---
                    if cx.preemptive {
                        for &v in &cx.mach.chosen_buf {
                            let rem =
                                j.rt.state
                                    .remaining(j.job, v)
                                    .unwrap_or_else(|| panic!("task {v} is not a candidate"));
                            assert!(rem > 0, "task {v} already finished");
                            min_rem = Some(min_rem.map_or(rem, |m| m.min(rem)));
                        }
                        if !cx.mach.chosen_buf.is_empty() && j.rt.first_start.is_none() {
                            j.rt.first_start = Some(*cx.now);
                        }
                        cx.mach.running_now[alpha] += cx.mach.chosen_buf.len() as u32;
                    } else {
                        for &v in &cx.mach.chosen_buf {
                            let rem = j.rt.state.start(j.job, v); // panics if not ready
                            cx.mach.busy[alpha] += 1;
                            cx.mach.busy_time[alpha] += rem;
                            let p = cx.mach.free_procs[alpha].pop().expect("slot accounting");
                            j.rt.proc_of[v.index()] = p;
                            j.rt.attained += rem;
                            if j.rt.first_start.is_none() {
                                j.rt.first_start = Some(*cx.now);
                            }
                            cx.mach.cal.push(*cx.now + rem, j.slot, v, *cx.now);
                            cx.obs.start(
                                *cx.now,
                                cx.mach.epoch,
                                v.index() as u32,
                                alpha,
                                Some(p as usize),
                                rem,
                            );
                            if cx.record_trace {
                                cx.mach.segments.push(Segment {
                                    task: v,
                                    rtype: alpha,
                                    proc: p,
                                    start: *cx.now,
                                    end: *cx.now + rem,
                                });
                            }
                        }
                        cx.obs
                            .timeline_set(alpha, *cx.now, cx.mach.busy[alpha] as u32);
                    }
                }
            }
            if cx.preemptive {
                for alpha in 0..k {
                    cx.obs
                        .timeline_set(alpha, *cx.now, cx.mach.running_now[alpha]);
                }
            } else if !skipped_any {
                cx.stats.full_rescans += 1;
            }
            cx.obs.epoch_event(*cx.now, cx.mach.epoch, epoch_total);

            // --- preemptive advance: progress everything chosen by dt. ---
            if cx.preemptive {
                assert!(
                    epoch_total > 0,
                    "deadlock: policy assigned nothing with {} tasks incomplete",
                    incomplete_tasks(jobs)
                );
                // `span` is the distance to the next *real* event: the
                // earliest chosen task's completion, clamped at the arrival
                // horizon (a newly admitted job deserves a re-decision at
                // its arrival instant).
                let mut span = min_rem.expect("chosen non-empty");
                if let Some(s) = stop_at {
                    span = span.min(s - *cx.now);
                }
                let mut dt = match cx.quantum {
                    Some(q) => q.min(span),
                    None => span,
                };
                debug_assert!(dt > 0);

                // Epoch fast-forward: when the quantum chops `span` into
                // several epochs, nothing changes between them — no task
                // completes or arrives, un-chosen tasks make no progress,
                // so every queue keeps its membership and order and every
                // type offers the same (full) slot count. If each job's
                // policy certifies its choice is a pure function of exactly
                // that view ([`Policy::assign_stable`]) — and the inter-job
                // order cannot flip mid-span (FairShare keys on attained
                // service, which grows between epochs, so it is excluded) —
                // the skipped epochs would reproduce this epoch's
                // assignment verbatim. Jump straight to `span` and
                // synthesize the skipped epochs' counters; per-epoch
                // observability (events, latency samples, utilization
                // points) and trace segments disable the jump because they
                // record each epoch individually.
                if dt < span
                    && !cx.record_trace
                    && !cx.obs.events_on()
                    && !latency_on
                    && !cx.obs.utilization_on()
                    && (jobs.len() <= 1 || cx.inter != InterJobPolicy::FairShare)
                    && jobs.iter().all(|j| j.done || j.policy.assign_stable())
                {
                    let q = cx.quantum.expect("dt < span only under a quantum");
                    let skipped = span.div_ceil(q) - 1;
                    cx.mach.epoch += skipped;
                    cx.stats.epochs += skipped;
                    cx.stats.epochs_skipped += skipped;
                    cx.stats.tasks_assigned += skipped * epoch_total;
                    for j in jobs.iter_mut() {
                        if !j.done {
                            j.rt.state
                                .add_progress_updates(skipped * j.rt.out.total() as u64);
                        }
                    }
                    dt = span;
                }

                // Trace segments with stable-ish processor ids: keep each
                // task's previous processor where possible. (Single-job
                // sessions only; task ids collide across jobs.)
                if cx.record_trace {
                    for j in jobs.iter_mut() {
                        if j.done {
                            continue;
                        }
                        for alpha in 0..k {
                            let mut used = vec![false; cx.config.procs(alpha)];
                            let chosen = j.rt.out.chosen(alpha);
                            let mut needs: Vec<TaskId> = Vec::new();
                            for &v in chosen {
                                let p = j.rt.proc_of[v.index()];
                                if p != NO_PROC && !used[p as usize] {
                                    used[p as usize] = true;
                                } else {
                                    needs.push(v);
                                }
                            }
                            let mut next_free = 0usize;
                            for v in needs {
                                while used[next_free] {
                                    next_free += 1;
                                }
                                used[next_free] = true;
                                j.rt.proc_of[v.index()] = next_free as u32;
                            }
                            for &v in chosen {
                                cx.mach.segments.push(Segment {
                                    task: v,
                                    rtype: alpha,
                                    proc: j.rt.proc_of[v.index()],
                                    start: *cx.now,
                                    end: *cx.now + dt,
                                });
                            }
                        }
                    }
                }

                *cx.now += dt;
                let now = *cx.now;
                for j in jobs.iter_mut() {
                    if j.done {
                        continue;
                    }
                    for alpha in 0..k {
                        cx.mach.chosen_buf.clear();
                        cx.mach.chosen_buf.extend_from_slice(j.rt.out.chosen(alpha));
                        cx.mach.busy_time[alpha] += cx.mach.chosen_buf.len() as u64 * dt;
                        j.rt.attained += cx.mach.chosen_buf.len() as u64 * dt;
                        for &v in &cx.mach.chosen_buf {
                            if j.rt.state.progress(j.job, v, dt) == 0 {
                                cx.obs
                                    .complete(now, cx.mach.epoch, v.index() as u32, alpha, None);
                                j.rt.state
                                    .complete_obs(j.job, v, now, cx.mach.epoch, Some(cx.obs));
                                j.rt.proc_of[v.index()] = NO_PROC;
                            }
                        }
                    }
                    if j.rt.state.all_done(j.job) {
                        j.done = true;
                        j.rt.finish = Some(now);
                    }
                }
                continue;
            }
        }

        // --- non-preemptive advance: jump to the next completion event and
        // drain every completion at that time before the next epoch. ---
        if !cx.preemptive {
            match cx.mach.cal.next_time(*cx.now) {
                Some(t) if stop_at.is_none_or(|s| t <= s) => {
                    cx.mach.events_buf.clear();
                    cx.mach.cal.claim_into(t, *cx.now, &mut cx.mach.events_buf);
                    // Sorting by (slot, task) reproduces the historical
                    // heap's (time, slot, task) pop order within one time.
                    cx.mach.events_buf.sort_unstable();
                    *cx.now = t;
                    for i in 0..cx.mach.events_buf.len() {
                        let (slot, v) = cx.mach.events_buf[i];
                        finish_task(cx, jobs, slot, v);
                    }
                }
                Some(_) => return DriveEnd::Reached,
                None => {
                    if stop_at.is_some() {
                        // Idle (or refusing) until the next arrival.
                        return DriveEnd::Reached;
                    }
                    panic!(
                        "deadlock: no running tasks but {} tasks incomplete",
                        incomplete_tasks(jobs)
                    );
                }
            }
        }
    }
}

/// Tasks not yet completed across all jobs (deadlock diagnostics).
fn incomplete_tasks(jobs: &[SessionJob<'_>]) -> usize {
    jobs.iter()
        .map(|j| j.job.num_tasks() - j.rt.state.done_count())
        .sum()
}

/// Fills `cx.mach.order` with the epoch's job priority order; returns
/// whether `order` is in use. As a fast path (and to keep the single-job
/// engine allocation-free), a slice of ≤ 1 job — or the FIFO discipline,
/// where the slice is already in admission order (retirement removal is
/// order-preserving) — skips the keyed sort and is visited in slice order.
fn priority_order(cx: &mut DriveCtx<'_>, jobs: &[SessionJob<'_>]) -> bool {
    if jobs.len() <= 1 || cx.inter == InterJobPolicy::Fifo {
        return false;
    }
    cx.mach.order.clear();
    for (i, j) in jobs.iter().enumerate() {
        if j.done {
            continue;
        }
        let key = match cx.inter {
            InterJobPolicy::Fifo => unreachable!("handled above"),
            InterJobPolicy::FairShare => j.rt.attained,
            InterJobPolicy::UtilizationAware => {
                // Descending fill potential via a complemented key.
                let fill: u64 = (0..cx.config.num_types())
                    .map(|alpha| {
                        (j.rt.state.queues()[alpha].len().min(cx.mach.slots[alpha])) as u64
                    })
                    .sum();
                u64::MAX - fill
            }
        };
        cx.mach.order.push((key, i as u32));
    }
    // Stable on the (key, admission index) pair: ties resolve by admission
    // order because the slice is in admission order.
    cx.mach.order.sort_unstable();
    true
}

/// Completes a non-preemptively running task of the job occupying `slot`,
/// returning its processor to the free stack (and reporting the
/// completion, child releases and new busy count to the recorder).
fn finish_task(cx: &mut DriveCtx<'_>, jobs: &mut [SessionJob<'_>], slot: u32, v: TaskId) {
    let j = jobs
        .iter_mut()
        .find(|j| j.slot == slot)
        .expect("heap slot refers to an active job");
    let alpha = j.job.rtype(v);
    cx.mach.busy[alpha] -= 1;
    let p = j.rt.proc_of[v.index()];
    cx.mach.free_procs[alpha].push(p);
    cx.obs.complete(
        *cx.now,
        cx.mach.epoch,
        v.index() as u32,
        alpha,
        Some(p as usize),
    );
    j.rt.state
        .complete_obs(j.job, v, *cx.now, cx.mach.epoch, Some(cx.obs));
    cx.obs
        .timeline_set(alpha, *cx.now, cx.mach.busy[alpha] as u32);
    if j.rt.state.all_done(j.job) {
        j.done = true;
        j.rt.finish = Some(*cx.now);
    }
}

/// One job admitted to a [`Session`], with everything it owns.
struct Active {
    id: JobId,
    slot: u32,
    job: Arc<KDag>,
    rt: JobRt,
    policy: Box<dyn Policy>,
    lower_bound: Time,
}

/// A persistent multi-job scheduler over one machine. See the module docs
/// for the lifecycle; [`SessionOptions`] selects mode, cadence, inter-job
/// discipline and observability.
///
/// # Panics
/// [`Session::drain`] (and [`Session::finish`], which drains) inherits the
/// engine's panics: invalid policy selections and true deadlocks (a policy
/// assigning nothing while jobs are incomplete and nothing is running).
pub struct Session {
    config: MachineConfig,
    opts: SessionOptions,
    ws: Workspace,
    active: Vec<Active>,
    spare_rts: Vec<JobRt>,
    spare_policies: Vec<Box<dyn Policy>>,
    free_slots: Vec<u32>,
    next_slot: u32,
    next_id: u64,
    now: Time,
    stats: RunStats,
    last_epoch_t: Option<Instant>,
    jobs: Vec<fhs_obs::JobRecord>,
    stream: fhs_obs::StreamStats,
}

impl Session {
    /// Opens a session over `config` with a fresh [`Workspace`].
    pub fn new(config: MachineConfig, opts: SessionOptions) -> Self {
        Session::with_workspace(config, opts, Workspace::new())
    }

    /// Opens a session inside a caller-owned (possibly warm) [`Workspace`]
    /// — the steady-state path for back-to-back sessions: machine buffers,
    /// recorder storage and policy scratch all retain capacity.
    ///
    /// # Panics
    /// If `opts.quantum` is `Some(0)` (also reached through [`Session::new`]).
    pub fn with_workspace(config: MachineConfig, opts: SessionOptions, mut ws: Workspace) -> Self {
        assert!(opts.quantum != Some(0), "quantum must be positive");
        let preemptive = opts.mode == Mode::Preemptive;
        let reused = ws.begin_session(&config, preemptive);
        let mut stats = RunStats::default();
        if reused {
            stats.workspace_reuses = 1;
        } else {
            stats.workspace_cold_inits = 1;
        }
        ws.obs
            .begin_run(opts.observe, config.procs_per_type(), ws.mach.epoch);
        Session {
            config,
            opts,
            ws,
            active: Vec::new(),
            spare_rts: Vec::new(),
            spare_policies: Vec::new(),
            free_slots: Vec::new(),
            next_slot: 0,
            next_id: 0,
            now: 0,
            stats,
            last_epoch_t: None,
            jobs: Vec::new(),
            stream: fhs_obs::StreamStats::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The machine this session schedules onto.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// A policy value recycled from a retired job, if any — warm buffers
    /// included. [`Policy::init`] fully re-derives a policy's per-job
    /// state, so a re-admitted value behaves bit-identically to a fresh
    /// one and single-algorithm streams can run allocation-light by
    /// re-admitting these.
    pub fn recycled_policy(&mut self) -> Option<Box<dyn Policy>> {
        self.spare_policies.pop()
    }

    /// Admits `job` at the current time under `policy` (seeded for
    /// stochastic policies). Roots join the shared ready state
    /// immediately; the job starts competing for slots at the next epoch.
    /// The policy and the job's isolated lower bound read one fresh
    /// [`Artifacts`] bundle, so only the analysis the policy needs runs.
    pub fn admit(&mut self, job: Arc<KDag>, policy: Box<dyn Policy>, seed: u64) -> JobId {
        self.admit_with(job, policy, seed, &Artifacts::new())
    }

    /// As [`Session::admit`], with `job`'s analysis bundle supplied by the
    /// caller.
    pub fn admit_with_artifacts(
        &mut self,
        job: Arc<KDag>,
        policy: Box<dyn Policy>,
        seed: u64,
        artifacts: &Arc<Artifacts>,
    ) -> JobId {
        self.admit_with(job, policy, seed, artifacts)
    }

    fn admit_with(
        &mut self,
        job: Arc<KDag>,
        mut policy: Box<dyn Policy>,
        seed: u64,
        artifacts: &Artifacts,
    ) -> JobId {
        assert_eq!(
            job.num_types(),
            self.config.num_types(),
            "job declared K={} but machine has K={}",
            job.num_types(),
            self.config.num_types()
        );
        let preemptive = self.opts.mode == Mode::Preemptive;
        policy.init(&job, &self.config, seed, artifacts);
        let mut rt = self.spare_rts.pop().unwrap_or_default();
        rt.reset_for(&job, preemptive, self.now);
        let lower_bound = kdag::metrics::lower_bound_with_span(
            &job,
            self.config.procs_per_type(),
            artifacts.span(&job),
        );
        if self.ws.obs.events_on() {
            self.ws.obs.policy_init();
            for v in job.roots() {
                self.ws
                    .obs
                    .release(self.now, self.ws.mach.epoch, v.index() as u32, job.rtype(v));
            }
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            let s = self.next_slot;
            self.next_slot += 1;
            s
        });
        // A task-free job retires at its arrival instant.
        if rt.state.all_done(&job) {
            rt.finish = Some(self.now);
        }
        self.active.push(Active {
            id,
            slot,
            job,
            rt,
            policy,
            lower_bound,
        });
        self.retire_done();
        id
    }

    /// Advances the session to time `t`: epochs run and completions drain
    /// up to the horizon, drained jobs retire, and the clock idles forward
    /// to `t` if the machine goes quiet first.
    ///
    /// # Panics
    /// If `t` is in the past.
    pub fn run_until(&mut self, t: Time) {
        assert!(
            t >= self.now,
            "run_until({t}) but session is at {}",
            self.now
        );
        self.drive_session(Some(t));
        self.now = self.now.max(t);
        self.retire_done();
    }

    /// Runs until every admitted job has drained.
    pub fn drain(&mut self) {
        self.drive_session(None);
        self.retire_done();
    }

    fn drive_session(&mut self, stop_at: Option<Time>) {
        let preemptive = self.opts.mode == Mode::Preemptive;
        let wall = Instant::now();
        let mut jobs: Vec<SessionJob<'_>> = self
            .active
            .iter_mut()
            .map(|a| SessionJob {
                job: &a.job,
                rt: &mut a.rt,
                policy: &mut *a.policy,
                slot: a.slot,
                done: false,
            })
            .collect();
        for j in jobs.iter_mut() {
            j.done = j.rt.finish.is_some();
        }
        let mut cx = DriveCtx {
            mach: &mut self.ws.mach,
            obs: &mut self.ws.obs,
            config: &self.config,
            preemptive,
            quantum: self.opts.quantum,
            record_trace: false,
            inter: self.opts.inter,
            now: &mut self.now,
            stats: &mut self.stats,
            last_epoch_t: &mut self.last_epoch_t,
        };
        // With a counting allocator registered, meter the epoch loop —
        // in steady state (warm workspace, warm policies) the delta is ~0, asserted by the allocation-
        // regression suite.
        let alloc_at_entry = crate::instrument::alloc_probe();
        drive(&mut cx, &mut jobs, stop_at);
        if let Some(at_entry) = alloc_at_entry {
            self.stats.epoch_bytes += crate::instrument::alloc_probe()
                .unwrap_or(at_entry)
                .saturating_sub(at_entry);
        }
        self.stats.engine_nanos += wall.elapsed().as_nanos() as u64;
    }

    /// Retires every drained job: detach its policy, recycle its runtime,
    /// fold its [`JobRecord`](fhs_obs::JobRecord) into the stream stats.
    fn retire_done(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].rt.finish.is_none() {
                i += 1;
                continue;
            }
            // Ordered removal: the active vec stays in admission order,
            // which FIFO slice order and the tie-breaks depend on.
            let mut a = self.active.remove(i);
            let finish = a.rt.finish.expect("checked above");
            let record = fhs_obs::JobRecord {
                id: a.id.0,
                arrival: a.rt.arrival,
                first_start: a.rt.first_start,
                finish,
                tasks: a.job.num_tasks() as u64,
                work: a.job.total_work(),
                lower_bound: a.lower_bound,
            };
            self.stream.record(&record);
            self.jobs.push(record);
            self.stats.merge(&RunStats {
                transitions: a.rt.state.transition_counts(),
                selection: a.policy.take_selection_stats().unwrap_or_default(),
                ..RunStats::default()
            });
            a.policy.detach_job();
            self.spare_policies.push(a.policy);
            self.spare_rts.push(a.rt);
            self.free_slots.push(a.slot);
        }
    }

    /// Drains any remaining jobs, closes the recorder, and reports the
    /// session's aggregate outcome plus the workspace for reuse by a
    /// follow-up session.
    pub fn finish(mut self) -> (SessionOutcome, Workspace) {
        self.drain();
        self.ws.obs.run_end(self.now, self.ws.mach.epoch);
        let obs = self.ws.obs.take_run(self.now);
        let outcome = SessionOutcome {
            makespan: self.now,
            busy_time: self.ws.mach.busy_time.clone(),
            stats: self.stats,
            jobs: self.jobs,
            stream: self.stream,
            obs,
        };
        (outcome, self.ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, RunOptions};
    use crate::policy::FifoPolicy;
    use crate::workspace::tests::{three_pairs, Duper};
    use kdag::KDagBuilder;

    fn chain_job() -> KDag {
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 2);
        let m = b.add_task(1, 3);
        let z = b.add_task(0, 1);
        b.add_edge(a, m).unwrap();
        b.add_edge(m, z).unwrap();
        b.build().unwrap()
    }

    fn wide_job() -> KDag {
        let mut b = KDagBuilder::new(2);
        for i in 0..6 {
            b.add_task(i % 2, 2);
        }
        b.build().unwrap()
    }

    #[test]
    fn one_job_session_matches_engine_run() {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let job = chain_job();
            let cfg = MachineConfig::uniform(2, 2);
            let single = engine::run(&job, &cfg, &mut FifoPolicy, mode, &RunOptions::default());
            let mut s = Session::new(cfg, SessionOptions::new(mode));
            s.admit(Arc::new(job), Box::new(FifoPolicy), 0);
            let (out, _) = s.finish();
            assert_eq!(out.makespan, single.makespan, "{mode:?}");
            assert_eq!(out.busy_time, single.busy_time, "{mode:?}");
            assert_eq!(out.stats.epochs, single.stats.epochs, "{mode:?}");
            assert_eq!(out.jobs.len(), 1);
            assert_eq!(out.jobs[0].finish, single.makespan);
            assert_eq!(out.jobs[0].arrival, 0);
        }
    }

    #[test]
    fn staggered_arrivals_respect_clock_and_retire_all() {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            for inter in ALL_INTER_JOB_POLICIES {
                let cfg = MachineConfig::uniform(2, 1);
                let mut s = Session::new(cfg, SessionOptions::new(mode).with_inter(inter));
                s.admit(Arc::new(chain_job()), Box::new(FifoPolicy), 0);
                s.run_until(4);
                assert_eq!(s.now(), 4);
                s.admit(Arc::new(wide_job()), Box::new(FifoPolicy), 0);
                let (out, _) = s.finish();
                assert_eq!(out.jobs.len(), 2, "{mode:?} {inter:?}");
                // Total work is conserved across the machine view.
                assert_eq!(
                    out.busy_time.iter().sum::<u64>(),
                    6 + 12,
                    "{mode:?} {inter:?}"
                );
                // The second job arrived at t=4 and cannot respond faster
                // than its isolated lower bound.
                let j1 = out.jobs.iter().find(|j| j.id == 1).unwrap();
                assert_eq!(j1.arrival, 4);
                assert!(j1.response() >= j1.lower_bound, "{mode:?} {inter:?}");
                assert!(j1.slowdown() >= 1.0, "{mode:?} {inter:?}");
            }
        }
    }

    #[test]
    fn idle_gap_between_jobs_moves_clock_forward() {
        let cfg = MachineConfig::uniform(2, 2);
        let mut s = Session::new(cfg, SessionOptions::new(Mode::NonPreemptive));
        s.admit(Arc::new(chain_job()), Box::new(FifoPolicy), 0);
        s.run_until(100); // job drains at 6, machine idles to 100
        assert_eq!(s.now(), 100);
        assert!(s.active.is_empty());
        s.admit(Arc::new(chain_job()), Box::new(FifoPolicy), 0);
        let (out, _) = s.finish();
        assert_eq!(out.makespan, 106);
        let j1 = &out.jobs[1];
        assert_eq!(j1.arrival, 100);
        assert_eq!(j1.response(), 6);
        assert_eq!(j1.queueing(), 0);
    }

    #[test]
    fn empty_job_retires_at_arrival() {
        let cfg = MachineConfig::uniform(1, 1);
        let mut s = Session::new(cfg, SessionOptions::default());
        let job = KDagBuilder::new(1).build().unwrap();
        s.admit(Arc::new(job), Box::new(FifoPolicy), 0);
        assert!(s.active.is_empty());
        let (out, _) = s.finish();
        assert_eq!(out.jobs[0].response(), 0);
        assert_eq!(out.jobs[0].slowdown(), 1.0);
    }

    /// A session whose first job ran at epochs 1–3 and retired, leaving
    /// its runtime in the spare pool with stamps 1, 1, 2, 2, 3, 3; the
    /// workspace's epoch counter then jumps to `epoch`.
    fn session_with_a_spare_runtime_at(mode: Mode, epoch: u64) -> Session {
        let cfg = MachineConfig::uniform(1, 2);
        let mut s = Session::new(cfg, SessionOptions::new(mode));
        s.admit(Arc::new(three_pairs()), Box::new(FifoPolicy), 0);
        s.drain();
        assert_eq!(s.ws.mach.epoch, 3);
        assert_eq!(s.spare_rts.len(), 1);
        assert_eq!(s.spare_rts[0].stamp, [1, 1, 2, 2, 3, 3]);
        s.ws.mach.epoch = epoch;
        s
    }

    #[test]
    fn recycled_runtimes_rebase_their_stamps_across_2_pow_32() {
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let cfg = MachineConfig::uniform(1, 2);
            let mut fresh = Session::new(cfg, SessionOptions::new(mode));
            fresh.admit(Arc::new(three_pairs()), Box::new(FifoPolicy), 0);
            let (want, _) = fresh.finish();
            // The recycled runtime's next epochs, 2³² .. 2³² + 2, lie 2³²
            // past its base, so it rebases and their ids are 1, 2 and 3:
            // the ids its stale stamps hold for the same tasks, unless the
            // rebase zeroed them.
            let mut s = session_with_a_spare_runtime_at(mode, (1 << 32) - 1);
            let start = s.now();
            s.admit(Arc::new(three_pairs()), Box::new(FifoPolicy), 0);
            let (out, _) = s.finish();
            let got = &out.jobs[1];
            assert_eq!(got.finish - start, want.jobs[0].finish, "{mode:?}");
            assert_eq!(out.stats.epochs, 2 * want.stats.epochs, "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "chosen twice")]
    fn recycled_runtime_rejects_duplicates_after_the_rebase() {
        let mut s = session_with_a_spare_runtime_at(Mode::Preemptive, (1 << 32) - 1);
        s.admit(Arc::new(three_pairs()), Box::new(Duper), 0);
        s.drain();
    }

    #[test]
    fn policies_and_runtimes_are_recycled() {
        let cfg = MachineConfig::uniform(2, 1);
        let mut s = Session::new(cfg, SessionOptions::default());
        for i in 0..5 {
            let p = s.recycled_policy().unwrap_or_else(|| Box::new(FifoPolicy));
            s.admit(Arc::new(chain_job()), p, i);
            s.drain();
        }
        let (out, _) = s.finish();
        assert_eq!(out.jobs.len(), 5);
        assert_eq!(out.stream.completed, 5);
        // Back-to-back identical jobs on an empty machine all see the same
        // response time.
        assert!(out
            .jobs
            .iter()
            .all(|j| j.response() == out.jobs[0].response()));
    }

    #[test]
    fn contended_session_is_deterministic_per_inter_policy() {
        // Same arrival plan under each discipline: outcomes are stable
        // across repeated replays, and all jobs complete under all three.
        for inter in ALL_INTER_JOB_POLICIES {
            let mut reference: Option<Vec<(u64, Time)>> = None;
            for _ in 0..2 {
                let cfg = MachineConfig::uniform(2, 1);
                let mut s = Session::new(
                    cfg,
                    SessionOptions::new(Mode::NonPreemptive).with_inter(inter),
                );
                for i in 0..4u64 {
                    s.run_until(i * 2);
                    s.admit(Arc::new(wide_job()), Box::new(FifoPolicy), i);
                }
                let (out, _) = s.finish();
                let got: Vec<(u64, Time)> = out.jobs.iter().map(|j| (j.id, j.finish)).collect();
                assert_eq!(out.jobs.len(), 4, "{inter:?}");
                if let Some(r) = &reference {
                    assert_eq!(r, &got, "{inter:?} not deterministic");
                } else {
                    reference = Some(got);
                }
            }
        }
    }

    #[test]
    fn fair_share_prefers_the_starved_job() {
        // Two identical wide jobs, one admitted mid-flight. Under
        // fair-share the latecomer (0 attained service) must be granted
        // the next free slot ahead of the incumbent.
        let cfg = MachineConfig::uniform(2, 1);
        let mut s = Session::new(
            cfg,
            SessionOptions::new(Mode::NonPreemptive).with_inter(InterJobPolicy::FairShare),
        );
        s.admit(Arc::new(wide_job()), Box::new(FifoPolicy), 0);
        s.run_until(2);
        s.admit(Arc::new(wide_job()), Box::new(FifoPolicy), 1);
        let (out, _) = s.finish();
        let j0 = out.jobs.iter().find(|j| j.id == 0).unwrap();
        let j1 = out.jobs.iter().find(|j| j.id == 1).unwrap();
        // The latecomer starts as soon as a slot frees after its arrival.
        assert_eq!(j1.queueing(), 0);
        // Interleaving stretches the incumbent past its isolated finish.
        assert!(j0.response() > 6);
    }

    #[test]
    fn fast_forward_skips_decision_free_quantum_epochs() {
        // One 10-work task under quantum 1: stepping would execute 10
        // epochs; fast-forward executes the first and synthesizes the
        // other 9 (counters included), landing on the same schedule.
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 10);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let mut s = Session::new(
            cfg,
            SessionOptions {
                quantum: Some(1),
                ..SessionOptions::new(Mode::Preemptive)
            },
        );
        s.admit(Arc::new(job), Box::new(FifoPolicy), 0);
        let (out, _) = s.finish();
        assert_eq!(out.makespan, 10);
        assert_eq!(out.stats.epochs, 10);
        assert_eq!(out.stats.epochs_skipped, 9);
        assert_eq!(out.stats.tasks_assigned, 10);
        assert_eq!(out.stats.transitions.progress_updates, 10);
    }

    #[test]
    fn fast_forward_counts_partial_trailing_quantum() {
        // 7 work at quantum 3 steps 3 + 3 + 1: three epochs, two skipped.
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 7);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let mut s = Session::new(
            cfg,
            SessionOptions {
                quantum: Some(3),
                ..SessionOptions::new(Mode::Preemptive)
            },
        );
        s.admit(Arc::new(job), Box::new(FifoPolicy), 0);
        let (out, _) = s.finish();
        assert_eq!(out.makespan, 7);
        assert_eq!(out.stats.epochs, 3);
        assert_eq!(out.stats.epochs_skipped, 2);
        assert_eq!(out.stats.transitions.progress_updates, 3);
    }

    #[test]
    fn dirty_set_counters_track_np_consultations() {
        // A single job is never skippable: an epoch only fires when some
        // type has both a free slot and one of its candidates.
        let cfg = MachineConfig::uniform(2, 2);
        let mut s = Session::new(cfg, SessionOptions::new(Mode::NonPreemptive));
        s.admit(Arc::new(chain_job()), Box::new(FifoPolicy), 0);
        let (out, _) = s.finish();
        assert!(out.stats.epochs > 0);
        assert_eq!(out.stats.dirty_visits, out.stats.epochs);
        assert_eq!(out.stats.full_rescans, out.stats.epochs);
        assert_eq!(out.stats.epochs_skipped, 0);
    }

    #[test]
    fn dirty_set_skips_jobs_with_no_eligible_work() {
        // Job A: two type-0 tasks on one type-0 processor; job B: one
        // long type-1 task. When A's first task completes at t=3, the
        // epoch consults A (free type-0 slot, ready type-0 task) but
        // skips B, whose only task is already running.
        let cfg = MachineConfig::new(vec![1, 1]);
        let mut s = Session::new(cfg, SessionOptions::new(Mode::NonPreemptive));
        let mut ba = KDagBuilder::new(2);
        ba.add_task(0, 3);
        ba.add_task(0, 3);
        let mut bb = KDagBuilder::new(2);
        bb.add_task(1, 7);
        s.admit(Arc::new(ba.build().unwrap()), Box::new(FifoPolicy), 0);
        s.admit(Arc::new(bb.build().unwrap()), Box::new(FifoPolicy), 0);
        let (out, _) = s.finish();
        assert_eq!(out.makespan, 7);
        assert_eq!(out.stats.epochs, 2);
        assert_eq!(out.stats.dirty_visits, 3);
        assert_eq!(out.stats.full_rescans, 1);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_panics() {
        let opts = SessionOptions {
            quantum: Some(0),
            ..SessionOptions::new(Mode::Preemptive)
        };
        Session::new(MachineConfig::uniform(2, 1), opts);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn drain_detects_deadlock() {
        struct Lazy;
        impl Policy for Lazy {
            fn name(&self) -> &str {
                "Lazy"
            }
            fn init(&mut self, _: &KDag, _: &MachineConfig, _: u64, _: &Artifacts) {}
            fn assign(&mut self, _: &EpochView<'_>, _: &mut crate::policy::Assignments) {}
        }
        let cfg = MachineConfig::uniform(2, 1);
        let mut s = Session::new(cfg, SessionOptions::default());
        s.admit(Arc::new(chain_job()), Box::new(Lazy), 0);
        s.drain();
    }

    #[test]
    fn utilization_timeline_spans_the_whole_session() {
        let cfg = MachineConfig::uniform(2, 1);
        let mut opts = SessionOptions::new(Mode::NonPreemptive);
        opts.observe = fhs_obs::ObsConfig {
            utilization: true,
            ..fhs_obs::ObsConfig::default()
        };
        let mut s = Session::new(cfg, opts);
        s.admit(Arc::new(chain_job()), Box::new(FifoPolicy), 0);
        s.run_until(10);
        s.admit(Arc::new(chain_job()), Box::new(FifoPolicy), 0);
        let (out, _) = s.finish();
        let obs = out.obs.expect("utilization on");
        let util = obs.util.as_ref().expect("utilization channel");
        assert_eq!(util.makespan, out.makespan);
        for (alpha, t) in util.per_type.iter().enumerate() {
            assert_eq!(t.busy, out.busy_time[alpha], "type {alpha}");
        }
    }
}
