//! Per-run engine instrumentation.
//!
//! Every engine run records a [`RunStats`]: how many decision epochs were
//! executed, how much wall time the policy's `assign` calls took, how many
//! state transitions of each kind the run performed, and the peak ready-queue
//! depth. The counters are cheap (a handful of integer increments per epoch
//! plus two monotonic-clock reads) and are always collected; the experiment
//! runner surfaces them behind a `--instrument` flag. Each counter is
//! said once, in [`RunStats::COUNTERS`] or [`SelectionStats::COUNTERS`]:
//! merging, the `--instrument` line and every export read those tables.

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
/// All four counters sum under [`RunStats::merge`]: the
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
    /// Every selection counter, in export order (the nested
    /// `"selection"` object); all sum and all are logical.
    #[rustfmt::skip]
    pub const COUNTERS: [Counter<SelectionStats>; 4] = [
        SelCounter::new("candidates_evaluated", |s| s.candidates_evaluated, |s, v| s.candidates_evaluated = v).series(SELECTION),
        SelCounter::new("candidates_pruned", |s| s.candidates_pruned, |s, v| s.candidates_pruned = v).series(SELECTION),
        SelCounter::new("diff_events", |s| s.diff_events, |s, v| s.diff_events = v).series(SELECTION),
        SelCounter::new("cold_snapshots", |s| s.cold_snapshots, |s, v| s.cold_snapshots = v).series(SELECTION),
    ];
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
    /// Engine wall time in nanoseconds, assign time above included. A
    /// single run ([`crate::engine::run`] and the evaluators) times the
    /// whole run, from arming the workspace through `Policy::init`, the
    /// epoch loop and `Policy::detach_job` to the outcome; a
    /// [`crate::session::Session`] times only its epoch-loop calls
    /// (`run_until`, `drain`), not admission, retirement or `finish`.
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

/// What a counter measures, which decides where it is exported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A function of (workload, seed, instance set): exported and kept by
    /// `--stable` output.
    Logical,
    /// Wall clock or pool artifact: exported, zeroed by `--stable` output.
    Volatile,
    /// The allocation probe: not exported, zeroed by `--stable` output.
    Internal,
}

/// A counter's Prometheus series: its family, and in a family several
/// counters share, the label whose value (the counter's key) tells them
/// apart.
#[derive(Clone, Copy, Debug)]
pub struct PromSeries {
    /// Metric family name.
    pub family: &'static str,
    /// The family's help text.
    pub help: &'static str,
    /// The telling-apart label's name, in a shared family.
    pub label: Option<&'static str>,
}

/// One counter of a stats record, said once: its key (in the
/// metrics-JSONL `"stats"` object and the `--instrument` line), how to
/// read and write it, how it merges, its [`Kind`] and its Prometheus
/// series. `merge`, `Display` and the exporters iterate
/// [`RunStats::COUNTERS`] and [`SelectionStats::COUNTERS`] instead of
/// naming fields.
#[derive(Clone, Copy, Debug)]
pub struct Counter<T> {
    /// Export key.
    pub key: &'static str,
    /// Reads the counter.
    pub get: fn(&T) -> u64,
    /// Writes the counter.
    pub set: fn(&mut T, u64),
    /// A peak: merges by maximum (the others sum) and is a Prometheus
    /// gauge (the others are counters).
    pub peak: bool,
    /// Export kind.
    pub kind: Kind,
    /// Prometheus series, for the counters the sweep exposition carries.
    pub prom: Option<PromSeries>,
}

impl<T> Counter<T> {
    /// A logical, summing counter with no Prometheus series.
    const fn new(key: &'static str, get: fn(&T) -> u64, set: fn(&mut T, u64)) -> Self {
        Counter {
            key,
            get,
            set,
            peak: false,
            kind: Kind::Logical,
            prom: None,
        }
    }

    const fn kind(self, kind: Kind) -> Self {
        Counter { kind, ..self }
    }

    const fn series(self, series: PromSeries) -> Self {
        Counter {
            prom: Some(series),
            ..self
        }
    }

    const fn peak(self) -> Self {
        Counter { peak: true, ..self }
    }
}

/// A Prometheus family of one counter.
const fn own(family: &'static str, help: &'static str) -> PromSeries {
    PromSeries {
        family,
        help,
        label: None,
    }
}

const TRANSITIONS: PromSeries = PromSeries {
    label: Some("event"),
    ..own("fhs_transitions_total", "State transitions by kind")
};

const SELECTION: PromSeries = PromSeries {
    label: Some("counter"),
    ..own(
        "fhs_selection_total",
        "Candidate-selection counters (incremental-index policies)",
    )
};

type RunCounter = Counter<RunStats>;
type SelCounter = Counter<SelectionStats>;

/// Merges `other` into `into` by each counter's rule.
fn merge_into<T>(counters: &[Counter<T>], into: &mut T, other: &T) {
    for c in counters {
        let (a, b) = ((c.get)(into), (c.get)(other));
        (c.set)(into, if c.peak { a.max(b) } else { a + b });
    }
}

impl RunStats {
    /// Every counter of a run but the nested [`SelectionStats`], in
    /// export order.
    #[rustfmt::skip]
    pub const COUNTERS: [Counter<RunStats>; 15] = [
        RunCounter::new("epochs", |s| s.epochs, |s, v| s.epochs = v)
            .series(own("fhs_epochs_total", "Decision epochs (policy consultations, including fast-forwarded ones)")),
        RunCounter::new("epochs_skipped", |s| s.epochs_skipped, |s, v| s.epochs_skipped = v)
            .series(own("fhs_epochs_skipped_total", "Decision epochs fast-forwarded over instead of executed")),
        RunCounter::new("dirty_visits", |s| s.dirty_visits, |s, v| s.dirty_visits = v)
            .series(own("fhs_dirty_visits_total", "Per-(job, epoch) policy consultations performed by the dirty-set scan")),
        RunCounter::new("full_rescans", |s| s.full_rescans, |s, v| s.full_rescans = v)
            .series(own("fhs_full_rescans_total", "Epochs in which the dirty-set skip pruned nothing")),
        RunCounter::new("tasks_assigned", |s| s.tasks_assigned, |s, v| s.tasks_assigned = v)
            .series(own("fhs_tasks_assigned_total", "Task selections across all epochs")),
        RunCounter::new("releases", |s| s.transitions.releases, |s, v| s.transitions.releases = v).series(TRANSITIONS),
        RunCounter::new("starts", |s| s.transitions.starts, |s, v| s.transitions.starts = v).series(TRANSITIONS),
        RunCounter::new("completions", |s| s.transitions.completions, |s, v| s.transitions.completions = v).series(TRANSITIONS),
        RunCounter::new("progress_updates", |s| s.transitions.progress_updates, |s, v| s.transitions.progress_updates = v).series(TRANSITIONS),
        RunCounter::new("peak_queue_depth", |s| s.transitions.peak_queue_depth as u64, |s, v| s.transitions.peak_queue_depth = v as usize)
            .series(own("fhs_peak_queue_depth", "Largest number of live candidates any single type queue held")).peak(),
        RunCounter::new("assign_nanos", |s| s.assign_nanos, |s, v| s.assign_nanos = v).kind(Kind::Volatile),
        RunCounter::new("engine_nanos", |s| s.engine_nanos, |s, v| s.engine_nanos = v).kind(Kind::Volatile),
        RunCounter::new("workspace_reuses", |s| s.workspace_reuses, |s, v| s.workspace_reuses = v).kind(Kind::Volatile),
        RunCounter::new("workspace_cold_inits", |s| s.workspace_cold_inits, |s, v| s.workspace_cold_inits = v).kind(Kind::Volatile),
        RunCounter::new("epoch_bytes", |s| s.epoch_bytes, |s, v| s.epoch_bytes = v).kind(Kind::Internal),
    ];

    /// Merges another run's counters into this one: `peak_queue_depth`
    /// takes the maximum, everything else (wall times included) sums.
    pub fn merge(&mut self, other: &RunStats) {
        merge_into(&Self::COUNTERS, self, other);
        merge_into(
            &SelectionStats::COUNTERS,
            &mut self.selection,
            &other.selection,
        );
    }
}

/// `key value` for every counter, ` | `-separated, in table order.
impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let run = Self::COUNTERS.iter().map(|c| (c.key, (c.get)(self)));
        let sel = SelectionStats::COUNTERS
            .iter()
            .map(|c| (c.key, (c.get)(&self.selection)));
        let pairs: Vec<String> = run.chain(sel).map(|(k, v)| format!("{k} {v}")).collect();
        f.write_str(&pairs.join(" | "))
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
