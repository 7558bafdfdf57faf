//! The K-DAG execution-model checker: [`validate`] decides whether a
//! recorded [`Trace`] is a legal execution of its job on its machine.
//! Test support, not part of `fhs-sim`'s API: the engine, policy and
//! end-to-end suites include this one file by `#[path]`, and so do the
//! fhs-sim and fhs-core unit tests.

use fhs_sim::trace::{Segment, Trace};
use fhs_sim::{MachineConfig, Time};
use kdag::{KDag, TaskId};

/// Ways a trace can violate the K-DAG execution model. The fields are
/// read through `Debug`, in assertion messages.
#[allow(dead_code)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// A segment has `end <= start`.
    EmptySegment(TaskId),
    /// A segment ran a task on a pool of the wrong type.
    TypeMismatch {
        /// Offending task.
        task: TaskId,
        /// Task's declared type.
        task_type: usize,
        /// Pool the segment claims.
        pool: usize,
    },
    /// A segment names a processor index `≥ P_α`.
    BadProcessor(TaskId),
    /// The union of a task's segments does not equal its work.
    WorkMismatch {
        /// Offending task.
        task: TaskId,
        /// Total executed time.
        executed: u64,
        /// Declared work.
        work: u64,
    },
    /// Two segments overlap on one processor.
    ProcessorOverlap {
        /// Resource type of the pool.
        rtype: usize,
        /// Processor index.
        proc: u32,
        /// Time at which the overlap begins.
        at: Time,
    },
    /// Two segments of one task overlap in time (a task cannot run on two
    /// processors at once).
    TaskOverlap(TaskId),
    /// A task started before one of its parents finished.
    PrecedenceViolation {
        /// Parent task.
        parent: TaskId,
        /// Child task.
        child: TaskId,
    },
    /// A segment extends past the recorded makespan.
    ExceedsMakespan(TaskId),
}

/// Checks that `trace` is a legal execution of `job` on `config`:
/// segment sanity, type matching, processor bounds, per-processor and
/// per-task exclusivity, exact work totals, precedence, and makespan
/// containment.
pub fn validate(trace: &Trace, job: &KDag, config: &MachineConfig) -> Result<(), TraceError> {
    // Per-segment sanity + accumulate per-task execution.
    let mut executed = vec![0u64; job.num_tasks()];
    for s in trace.segments() {
        if s.end <= s.start {
            return Err(TraceError::EmptySegment(s.task));
        }
        let tt = job.rtype(s.task);
        if tt != s.rtype {
            return Err(TraceError::TypeMismatch {
                task: s.task,
                task_type: tt,
                pool: s.rtype,
            });
        }
        if (s.proc as usize) >= config.procs(s.rtype) {
            return Err(TraceError::BadProcessor(s.task));
        }
        if s.end > trace.makespan() {
            return Err(TraceError::ExceedsMakespan(s.task));
        }
        executed[s.task.index()] += s.end - s.start;
    }

    for v in job.tasks() {
        if executed[v.index()] != job.work(v) {
            return Err(TraceError::WorkMismatch {
                task: v,
                executed: executed[v.index()],
                work: job.work(v),
            });
        }
    }

    // Processor exclusivity: sort by (type, proc, start).
    let mut by_proc: Vec<&Segment> = trace.segments().iter().collect();
    by_proc.sort_by_key(|s| (s.rtype, s.proc, s.start));
    for w in by_proc.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.rtype == b.rtype && a.proc == b.proc && b.start < a.end {
            return Err(TraceError::ProcessorOverlap {
                rtype: a.rtype,
                proc: a.proc,
                at: b.start,
            });
        }
    }

    // Task exclusivity: sort by (task, start).
    let mut by_task: Vec<&Segment> = trace.segments().iter().collect();
    by_task.sort_by_key(|s| (s.task, s.start));
    for w in by_task.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a.task == b.task && b.start < a.end {
            return Err(TraceError::TaskOverlap(a.task));
        }
    }

    // Precedence: child's first start ≥ parent's last end.
    let mut first_start = vec![Time::MAX; job.num_tasks()];
    let mut last_end = vec![0 as Time; job.num_tasks()];
    for s in trace.segments() {
        let i = s.task.index();
        first_start[i] = first_start[i].min(s.start);
        last_end[i] = last_end[i].max(s.end);
    }
    for v in job.tasks() {
        for &c in job.children(v) {
            if first_start[c.index()] < last_end[v.index()] {
                return Err(TraceError::PrecedenceViolation {
                    parent: v,
                    child: c,
                });
            }
        }
    }

    Ok(())
}
