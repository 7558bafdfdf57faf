//! The scheduling-policy interface between the engines and the algorithms.
//!
//! At every *decision epoch* the engine presents the policy with an
//! [`EpochView`] — the per-type candidate queues and the number of slots
//! available per type — and the policy fills an [`Assignments`] with the
//! tasks it wants running. This mirrors the information model of the
//! paper:
//!
//! * An **online** policy (KGreedy) only looks at queue membership (ids and
//!   arrival order) — task works and the DAG structure below ready tasks
//!   are *unknown to the online scheduler* (§II), and the trait cannot stop
//!   a policy from peeking, but the provided online policies don't.
//! * **Offline** policies precompute whatever they need from the full
//!   K-DAG in [`Policy::init`].

use kdag::precompute::Artifacts;
use kdag::{KDag, TaskId, Work};

use crate::config::MachineConfig;
use crate::ready_queue::ReadyQueue;
use crate::Time;

/// A candidate task visible to the policy at a decision epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadyTask {
    /// The task.
    pub id: TaskId,
    /// Global arrival sequence number: strictly increasing in the order
    /// tasks became ready. FIFO policies dispatch by this.
    pub seq: u64,
    /// Remaining work. Equals the full work for never-started tasks; under
    /// preemptive execution, partially-run candidates have smaller values.
    pub remaining: Work,
}

/// Everything a policy may inspect at one decision epoch.
#[derive(Debug)]
pub struct EpochView<'a> {
    /// Current simulation time.
    pub time: Time,
    /// The job being executed.
    pub job: &'a KDag,
    /// The machine configuration.
    pub config: &'a MachineConfig,
    /// Per-type candidate queues in arrival (seq) order.
    ///
    /// Non-preemptive epochs list only *ready* (not yet started) tasks.
    /// Preemptive epochs list ready **and currently-running** tasks — the
    /// policy re-decides the whole allocation and un-chosen running tasks
    /// are preempted.
    ///
    /// Read through [`ReadyQueue::iter`] /
    /// [`ReadyQueue::first`]; policies that select by queue index should
    /// snapshot once per epoch via [`ReadyQueue::collect_into`].
    pub queues: &'a [ReadyQueue],
    /// Total remaining work per queue — the `l_α` of MQB's x-utilization.
    pub queue_work: &'a [Work],
    /// Upper bound on how many tasks may be chosen per type: free
    /// processors (non-preemptive) or all `P_α` processors (preemptive).
    pub slots: &'a [usize],
    /// Whether this is a preemptive decision (queues may contain
    /// partially-executed tasks).
    pub preemptive: bool,
}

/// The policy's output: for each type, the tasks to run now.
///
/// Reused across epochs to avoid per-epoch allocation.
#[derive(Clone, Debug, Default)]
pub struct Assignments {
    per_type: Vec<Vec<TaskId>>,
}

impl Assignments {
    /// Clears and resizes for `k` types, reusing the retained buffers.
    pub fn reset(&mut self, k: usize) {
        for v in &mut self.per_type {
            v.clear();
        }
        // `resize_with` both grows (fresh empty lanes) and shrinks; the
        // lanes kept across calls were cleared above, so no stale task can
        // survive a shrink-then-grow cycle.
        self.per_type.resize_with(k, Vec::new);
    }

    /// Schedules `task` onto a type-`alpha` processor this epoch.
    #[inline]
    pub fn push(&mut self, alpha: usize, task: TaskId) {
        self.per_type[alpha].push(task);
    }

    /// Tasks chosen for type `alpha`.
    #[inline]
    pub fn chosen(&self, alpha: usize) -> &[TaskId] {
        &self.per_type[alpha]
    }

    /// Total number of tasks chosen across all types.
    pub fn total(&self) -> usize {
        self.per_type.iter().map(Vec::len).sum()
    }
}

/// A scheduling algorithm.
///
/// One policy value is used for one job execution: [`Policy::init`] is
/// called once before the run (offline policies precompute their tables
/// there, or take shared handles on the bundle's), then
/// [`Policy::assign`] once per decision epoch, then
/// [`Policy::detach_job`] when the job retires. Engines and sessions keep
/// policy values warm and call `init` again for each new job, so `init`
/// must fully re-derive every per-job table.
pub trait Policy: Send {
    /// Human-readable algorithm name (used in tables and benches).
    fn name(&self) -> &str;

    /// Called once per job before it runs. `seed` feeds any stochastic
    /// component (e.g. MQB's noisy-information models); deterministic
    /// policies may ignore it. `artifacts` is `job`'s analysis bundle
    /// (see [`kdag::precompute::Artifacts`]): offline policies read their
    /// graph analysis from it, filling it on first use if no earlier
    /// reader did. A sweep hands every `(algorithm, mode)` cell of one
    /// instance the same bundle. A policy may keep the bundle's tables
    /// through their shared handles (`Artifacts::shared_*`) instead of
    /// copying them, until [`Policy::detach_job`].
    ///
    /// After `init`, the policy's observable behaviour on `job` must be
    /// the same whatever ran on this value before and whichever analyses
    /// the bundle already held — the contract that lets runners and
    /// sessions recycle policy values and share bundles bit-identically.
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, artifacts: &Artifacts);

    /// Fill `out` with at most `view.slots[α]` tasks from `view.queues[α]`
    /// for each type `α`. Choosing fewer than the slot count is allowed
    /// (but wastes processors); choosing tasks not present in the queue or
    /// duplicates is an error the engine panics on.
    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments);

    /// Job-scoped detach hook: called when this policy's job retires —
    /// at the end of every engine run, and when a session retires the
    /// job, before the value is parked in the recycle pool. A policy
    /// holding the bundle's tables (see [`Policy::init`]) lets them go
    /// here, so a warm value never keeps a finished instance's analysis
    /// alive; one holding per-job derived tables may drop or shrink them.
    /// Behavior of a later [`Policy::init`] must not depend on whether
    /// `detach_job` ran. The default is a no-op.
    fn detach_job(&mut self) {}

    /// Takes (and resets) the policy's candidate-selection counters, when
    /// it maintains any (see
    /// [`SelectionStats`](crate::instrument::SelectionStats)). The engine
    /// harvests this once per run (and the session engine once per retired
    /// job) into [`RunStats::selection`](crate::instrument::RunStats). The
    /// default returns `None` — most policies don't track selection work.
    fn take_selection_stats(&mut self) -> Option<crate::instrument::SelectionStats> {
        None
    }

    /// Whether [`Policy::assign`] is a pure function of queue *membership
    /// and order* plus the slot counts — independent of the epoch time,
    /// candidates' remaining work, internal mutable state (RNG streams,
    /// journal cursors, sequencing caches), and how many times it has been
    /// called.
    ///
    /// Returning `true` certifies that two consecutive epochs presenting
    /// the same queues (same tasks, same order) and the same slots receive
    /// the **identical** assignment. The session engine uses this to
    /// *fast-forward* per-quantum preemptive spans in which nothing
    /// completes or arrives: the skipped epochs would all have re-made the
    /// same decision, so the engine jumps the clock to the next real event
    /// and synthesizes their counters instead. Claiming stability falsely
    /// silently changes schedules; the default is the conservative `false`
    /// (every epoch is executed).
    fn assign_stable(&self) -> bool {
        false
    }
}

impl<P: Policy + ?Sized> Policy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn init(&mut self, job: &KDag, config: &MachineConfig, seed: u64, artifacts: &Artifacts) {
        (**self).init(job, config, seed, artifacts)
    }
    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        (**self).assign(view, out)
    }
    fn detach_job(&mut self) {
        (**self).detach_job()
    }
    fn take_selection_stats(&mut self) -> Option<crate::instrument::SelectionStats> {
        (**self).take_selection_stats()
    }
    fn assign_stable(&self) -> bool {
        (**self).assign_stable()
    }
}

/// Greedy FIFO policy: per type, run the `slots[α]` earliest-arrived
/// candidates. This is the paper's **KGreedy** online algorithm (each
/// type's pool is a Graham greedy scheduler); it lives here because the
/// engines' own tests need a concrete policy without depending on
/// `fhs-core`.
#[derive(Clone, Debug, Default)]
pub struct FifoPolicy;

impl Policy for FifoPolicy {
    fn name(&self) -> &str {
        "KGreedy"
    }

    fn init(&mut self, _job: &KDag, _config: &MachineConfig, _seed: u64, _: &Artifacts) {}

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        for alpha in 0..view.config.num_types() {
            // Queues are kept in arrival order by the engine, so FIFO is a
            // prefix take.
            for rt in view.queues[alpha].iter().take(view.slots[alpha]) {
                out.push(alpha, rt.id);
            }
        }
    }

    // A prefix take depends only on queue order and the slot count.
    fn assign_stable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::KDagBuilder;

    #[test]
    fn assignments_reset_reuses_buffers() {
        let mut a = Assignments::default();
        a.reset(2);
        a.push(0, TaskId::from_index(0));
        a.push(1, TaskId::from_index(1));
        assert_eq!(a.total(), 2);
        a.reset(3);
        assert_eq!(a.total(), 0);
        assert_eq!(a.chosen(2), &[]);
        a.reset(1);
        assert_eq!(a.total(), 0);
    }

    #[test]
    fn assignments_reset_to_smaller_k_drops_tail_lanes() {
        // Regression: shrinking `k` must leave exactly `k` empty lanes and
        // no stale task may resurface when growing back.
        let mut a = Assignments::default();
        a.reset(3);
        a.push(2, TaskId::from_index(7));
        a.push(0, TaskId::from_index(1));
        a.reset(2);
        assert_eq!(a.total(), 0);
        assert_eq!(a.chosen(0), &[]);
        assert_eq!(a.chosen(1), &[]);
        a.push(1, TaskId::from_index(4));
        assert_eq!(a.total(), 1);
        a.reset(3);
        assert_eq!(a.total(), 0);
        assert_eq!(a.chosen(2), &[], "stale lane survived shrink-then-grow");
    }

    #[test]
    fn fifo_takes_prefix_per_type() {
        let mut b = KDagBuilder::new(2);
        let ids: Vec<_> = (0..4).map(|i| b.add_task(i % 2, 1)).collect();
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 2]);
        let queues = vec![
            ReadyQueue::from_tasks(vec![
                ReadyTask {
                    id: ids[0],
                    seq: 0,
                    remaining: 1,
                },
                ReadyTask {
                    id: ids[2],
                    seq: 2,
                    remaining: 1,
                },
            ]),
            ReadyQueue::from_tasks(vec![
                ReadyTask {
                    id: ids[1],
                    seq: 1,
                    remaining: 1,
                },
                ReadyTask {
                    id: ids[3],
                    seq: 3,
                    remaining: 1,
                },
            ]),
        ];
        let view = EpochView {
            time: 0,
            job: &job,
            config: &cfg,
            queues: &queues,
            queue_work: &[2, 2],
            slots: &[1, 2],
            preemptive: false,
        };
        let mut out = Assignments::default();
        out.reset(2);
        FifoPolicy.assign(&view, &mut out);
        assert_eq!(out.chosen(0), &[ids[0]]);
        assert_eq!(out.chosen(1), &[ids[1], ids[3]]);
    }
}
