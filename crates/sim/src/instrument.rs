//! Per-run engine instrumentation.
//!
//! Every engine run records a [`RunStats`]: how many decision epochs were
//! executed, how much wall time the policy's `assign` calls took, how many
//! state transitions of each kind the run performed, and the peak ready-queue
//! depth. The counters are cheap (a handful of integer increments per epoch
//! plus two monotonic-clock reads) and are always collected; the experiment
//! runner surfaces them behind a `--instrument` flag.

use std::fmt;
use std::sync::OnceLock;

/// The registered allocation-byte probe (see [`register_alloc_probe`]).
static ALLOC_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Registers a probe reporting the calling thread's cumulative allocated
/// bytes. Intended for a counting `#[global_allocator]` test harness (the
/// simulator itself forbids `unsafe`, so the allocator lives in
/// `fhs-bench`): once registered, every engine run samples the probe
/// around its epoch loop and reports the delta as
/// [`RunStats::epoch_bytes`]. First registration wins; later calls are
/// ignored.
pub fn register_alloc_probe(probe: fn() -> u64) {
    let _ = ALLOC_PROBE.set(probe);
}

/// Current probe reading for this thread, if a probe is registered.
pub(crate) fn alloc_probe() -> Option<u64> {
    ALLOC_PROBE.get().map(|f| f())
}

/// State-transition counters maintained by [`crate::state::JobState`].
///
/// These count *transitions*, not tasks: under preemptive execution a task
/// receives one `progress` update per epoch it is chosen in, so
/// `progress_updates` usually exceeds the task count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransitionCounts {
    /// Tasks released into a ready queue (roots plus dependency releases).
    pub releases: u64,
    /// Non-preemptive starts (`Ready` → `Running`).
    pub starts: u64,
    /// Completions (`Running`/`Ready` → `Done`).
    pub completions: u64,
    /// Preemptive progress updates (remaining-work decrements).
    pub progress_updates: u64,
    /// Largest number of live candidates any single type queue held.
    pub peak_queue_depth: usize,
}

/// Candidate-selection counters reported by policies that maintain an
/// incremental selection index (MQB's dominance-pruned path, and the key
/// index of the ranked policies, which report only the last two; see
/// [`crate::policy::Policy::take_selection_stats`]).
///
/// All four counters sum under [`merge`](SelectionStats::merge): the
/// pruning effectiveness of a run is read as `candidates_pruned /
/// (candidates_evaluated + candidates_pruned)`, and the incremental-state
/// health as `diff_events` (cheap) vs `cold_snapshots` (full rebuilds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionStats {
    /// Candidates actually scored by the selection comparator.
    pub candidates_evaluated: u64,
    /// Queued candidates skipped by dominance pruning (they provably could
    /// not win the pick that skipped them).
    pub candidates_pruned: u64,
    /// Queue-journal diff events applied to the incremental index instead
    /// of re-snapshotting the queues.
    pub diff_events: u64,
    /// Cold full rebuilds of the incremental index (first epoch after
    /// attach, or a detected journal discontinuity).
    pub cold_snapshots: u64,
}

impl SelectionStats {
    /// Sums another policy's selection counters into this one.
    pub fn merge(&mut self, other: &SelectionStats) {
        self.candidates_evaluated += other.candidates_evaluated;
        self.candidates_pruned += other.candidates_pruned;
        self.diff_events += other.diff_events;
        self.cold_snapshots += other.cold_snapshots;
    }
}

/// Counters for one engine run, surfaced on
/// [`crate::engine::SimOutcome::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Decision epochs: the number of times the policy was consulted.
    pub epochs: u64,
    /// Total task selections across all epochs (a task re-chosen each
    /// preemptive epoch counts every time).
    pub tasks_assigned: u64,
    /// State-transition counts from the run's [`crate::state::JobState`].
    pub transitions: TransitionCounts,
    /// Wall time spent inside `Policy::assign`, in nanoseconds.
    pub assign_nanos: u64,
    /// Wall time of the whole engine run (including `Policy::init` and the
    /// assign time above), in nanoseconds.
    pub engine_nanos: u64,
    /// Engine runs that reused an already-warm
    /// [`crate::workspace::Workspace`] (1 for a single reused run; sums
    /// under [`merge`](RunStats::merge)).
    pub workspace_reuses: u64,
    /// Engine runs that cold-initialized their workspace — including every
    /// run through the plain [`crate::engine::run`] entry points, which
    /// use a throwaway workspace.
    pub workspace_cold_inits: u64,
    /// Bytes allocated on the running thread during the epoch loop, when
    /// an allocation probe is registered (see [`register_alloc_probe`]);
    /// 0 otherwise. In steady state (reused workspace, warm policy) this
    /// should be ~0 — asserted by the allocation-regression test.
    pub epoch_bytes: u64,
    /// Candidate-selection counters from the run's policy, when the policy
    /// reports them (all zero otherwise).
    pub selection: SelectionStats,
    /// Decision epochs the session engine *fast-forwarded* over instead of
    /// executing: per-quantum preemptive epochs proven decision-free (no
    /// completion, no arrival, no queue churn, and a policy whose choice is
    /// stable under unchanged queues). Counted inside `epochs`, so
    /// `epochs - epochs_skipped` is the number of `assign` calls made.
    pub epochs_skipped: u64,
    /// Per-(job, epoch) policy consultations actually performed by the
    /// non-preemptive epoch loop (the dirty-set scan skips jobs with no
    /// ready work on any free type). Preemptive runs leave this 0.
    pub dirty_visits: u64,
    /// Non-preemptive epochs in which *every* active job was consulted —
    /// the dirty-set skip found nothing to prune. Preemptive runs leave
    /// this 0.
    pub full_rescans: u64,
}

impl RunStats {
    /// Merges another run's counters into this one (wall times add).
    /// `peak_queue_depth` takes the maximum; everything else sums.
    pub fn merge(&mut self, other: &RunStats) {
        self.epochs += other.epochs;
        self.tasks_assigned += other.tasks_assigned;
        self.transitions.releases += other.transitions.releases;
        self.transitions.starts += other.transitions.starts;
        self.transitions.completions += other.transitions.completions;
        self.transitions.progress_updates += other.transitions.progress_updates;
        self.transitions.peak_queue_depth = self
            .transitions
            .peak_queue_depth
            .max(other.transitions.peak_queue_depth);
        self.assign_nanos += other.assign_nanos;
        self.engine_nanos += other.engine_nanos;
        self.workspace_reuses += other.workspace_reuses;
        self.workspace_cold_inits += other.workspace_cold_inits;
        self.epoch_bytes += other.epoch_bytes;
        self.selection.merge(&other.selection);
        self.epochs_skipped += other.epochs_skipped;
        self.dirty_visits += other.dirty_visits;
        self.full_rescans += other.full_rescans;
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epochs {} | assigned {} | released {} | started {} | completed {} \
             | progressed {} | peak queue {} | assign {:.3} ms | engine {:.3} ms \
             | ws {} warm / {} cold | epoch alloc {} B \
             | sel eval {} / pruned {} | diffs {} / rebuilds {} \
             | ff skipped {} | dirty visits {} / rescans {}",
            self.epochs,
            self.tasks_assigned,
            self.transitions.releases,
            self.transitions.starts,
            self.transitions.completions,
            self.transitions.progress_updates,
            self.transitions.peak_queue_depth,
            self.assign_nanos as f64 / 1e6,
            self.engine_nanos as f64 / 1e6,
            self.workspace_reuses,
            self.workspace_cold_inits,
            self.epoch_bytes,
            self.selection.candidates_evaluated,
            self.selection.candidates_pruned,
            self.selection.diff_events,
            self.selection.cold_snapshots,
            self.epochs_skipped,
            self.dirty_visits,
            self.full_rescans,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_maxes_peak_depth() {
        let mut a = RunStats {
            epochs: 2,
            tasks_assigned: 5,
            transitions: TransitionCounts {
                releases: 3,
                starts: 3,
                completions: 3,
                progress_updates: 0,
                peak_queue_depth: 7,
            },
            assign_nanos: 100,
            engine_nanos: 500,
            workspace_reuses: 1,
            workspace_cold_inits: 0,
            epoch_bytes: 64,
            selection: SelectionStats {
                candidates_evaluated: 10,
                candidates_pruned: 90,
                diff_events: 5,
                cold_snapshots: 1,
            },
            epochs_skipped: 1,
            dirty_visits: 2,
            full_rescans: 2,
        };
        let b = RunStats {
            epochs: 1,
            tasks_assigned: 2,
            transitions: TransitionCounts {
                releases: 1,
                starts: 0,
                completions: 1,
                progress_updates: 4,
                peak_queue_depth: 4,
            },
            assign_nanos: 50,
            engine_nanos: 200,
            workspace_reuses: 0,
            workspace_cold_inits: 1,
            epoch_bytes: 32,
            selection: SelectionStats {
                candidates_evaluated: 1,
                candidates_pruned: 2,
                diff_events: 3,
                cold_snapshots: 0,
            },
            epochs_skipped: 4,
            dirty_visits: 1,
            full_rescans: 0,
        };
        a.merge(&b);
        assert_eq!(a.epochs, 3);
        assert_eq!(a.tasks_assigned, 7);
        assert_eq!(a.transitions.releases, 4);
        assert_eq!(a.transitions.progress_updates, 4);
        assert_eq!(a.transitions.peak_queue_depth, 7);
        assert_eq!(a.assign_nanos, 150);
        assert_eq!(a.engine_nanos, 700);
        assert_eq!(a.workspace_reuses, 1);
        assert_eq!(a.workspace_cold_inits, 1);
        assert_eq!(a.epoch_bytes, 96);
        assert_eq!(a.selection.candidates_evaluated, 11);
        assert_eq!(a.selection.candidates_pruned, 92);
        assert_eq!(a.selection.diff_events, 8);
        assert_eq!(a.selection.cold_snapshots, 1);
        assert_eq!(a.epochs_skipped, 5);
        assert_eq!(a.dirty_visits, 3);
        assert_eq!(a.full_rescans, 2);
    }

    #[test]
    fn display_is_single_line() {
        let s = RunStats::default().to_string();
        assert!(!s.contains('\n'));
        assert!(s.contains("epochs 0"));
    }
}
