//! Execution traces and the model-rule validator.

use kdag::{KDag, TaskId};

use crate::config::MachineConfig;
use crate::Time;

/// A contiguous stretch of one task executing on one processor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Task being executed.
    pub task: TaskId,
    /// Resource type of the processor (and of the task).
    pub rtype: usize,
    /// Processor index within its type's pool, `< P_rtype`.
    pub proc: u32,
    /// Inclusive start time.
    pub start: Time,
    /// Exclusive end time (`end > start`).
    pub end: Time,
}

/// A complete record of one simulated execution.
#[derive(Clone, Debug)]
pub struct Trace {
    segments: Vec<Segment>,
    makespan: Time,
}

impl Trace {
    /// Wraps raw segments; see [`validate`] for checking them.
    pub fn new(segments: Vec<Segment>, makespan: Time) -> Self {
        Trace { segments, makespan }
    }

    /// All execution segments (unordered).
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The recorded completion time.
    pub fn makespan(&self) -> Time {
        self.makespan
    }
}

/// Merges back-to-back segments of the same task on the same processor
/// (`end == next.start`); produced by the preemptive engine when a task
/// remains scheduled across consecutive epochs.
pub fn coalesce(segments: &mut Vec<Segment>) {
    segments.sort_by_key(|s| (s.task, s.proc, s.start));
    let mut out: Vec<Segment> = Vec::with_capacity(segments.len());
    for &s in segments.iter() {
        match out.last_mut() {
            Some(last) if last.task == s.task && last.proc == s.proc && last.end == s.start => {
                last.end = s.end;
            }
            _ => out.push(s),
        }
    }
    *segments = out;
}

/// Renders the trace as CSV (`task,rtype,proc,start,end`), segments
/// sorted by start time — the interchange format for downstream analysis
/// (also exposed as `fhs schedule --trace-csv`).
pub fn to_csv(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut segs: Vec<&Segment> = trace.segments().iter().collect();
    segs.sort_by_key(|s| (s.start, s.rtype, s.proc));
    let mut out = String::from("task,rtype,proc,start,end\n");
    for s in segs {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            s.task.index(),
            s.rtype,
            s.proc,
            s.start,
            s.end
        );
    }
    out
}

/// Ways a trace can violate the K-DAG execution model.
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

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::EmptySegment(t) => write!(f, "empty segment for {t}"),
            TraceError::TypeMismatch {
                task,
                task_type,
                pool,
            } => {
                write!(f, "{task} of type {task_type} ran on a type-{pool} pool")
            }
            TraceError::BadProcessor(t) => write!(f, "{t} ran on a nonexistent processor"),
            TraceError::WorkMismatch {
                task,
                executed,
                work,
            } => {
                write!(f, "{task} executed {executed} units but has work {work}")
            }
            TraceError::ProcessorOverlap { rtype, proc, at } => {
                write!(f, "pool {rtype} processor {proc} double-booked at t={at}")
            }
            TraceError::TaskOverlap(t) => write!(f, "{t} ran on two processors at once"),
            TraceError::PrecedenceViolation { parent, child } => {
                write!(f, "{child} started before its parent {parent} finished")
            }
            TraceError::ExceedsMakespan(t) => write!(f, "{t} runs past the makespan"),
        }
    }
}

impl std::error::Error for TraceError {}

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

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::KDagBuilder;

    fn tiny_job() -> KDag {
        let mut b = KDagBuilder::new(2);
        let a = b.add_task(0, 2);
        let c = b.add_task(1, 1);
        b.add_edge(a, c).unwrap();
        b.build().unwrap()
    }

    fn seg(task: usize, rtype: usize, proc: u32, start: Time, end: Time) -> Segment {
        Segment {
            task: TaskId::from_index(task),
            rtype,
            proc,
            start,
            end,
        }
    }

    #[test]
    fn valid_trace_passes() {
        let job = tiny_job();
        let cfg = MachineConfig::uniform(2, 1);
        let t = Trace::new(vec![seg(0, 0, 0, 0, 2), seg(1, 1, 0, 2, 3)], 3);
        assert_eq!(validate(&t, &job, &cfg), Ok(()));
    }

    #[test]
    fn detects_precedence_violation() {
        let job = tiny_job();
        let cfg = MachineConfig::uniform(2, 1);
        let t = Trace::new(vec![seg(0, 0, 0, 0, 2), seg(1, 1, 0, 1, 2)], 2);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::PrecedenceViolation { .. })
        ));
    }

    #[test]
    fn detects_work_mismatch() {
        let job = tiny_job();
        let cfg = MachineConfig::uniform(2, 1);
        let t = Trace::new(vec![seg(0, 0, 0, 0, 1), seg(1, 1, 0, 1, 2)], 2);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::WorkMismatch {
                executed: 1,
                work: 2,
                ..
            })
        ));
    }

    #[test]
    fn detects_processor_overlap() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 2);
        b.add_task(0, 2);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 1);
        let t = Trace::new(vec![seg(0, 0, 0, 0, 2), seg(1, 0, 0, 1, 3)], 3);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::ProcessorOverlap { .. })
        ));
    }

    #[test]
    fn detects_task_overlap_across_processors() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 4);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        // same task on procs 0 and 1 simultaneously
        let t = Trace::new(vec![seg(0, 0, 0, 0, 2), seg(0, 0, 1, 1, 3)], 3);
        assert_eq!(
            validate(&t, &job, &cfg),
            Err(TraceError::TaskOverlap(TaskId::from_index(0)))
        );
    }

    #[test]
    fn detects_type_mismatch_and_bad_processor() {
        let job = tiny_job();
        let cfg = MachineConfig::uniform(2, 1);
        let t = Trace::new(vec![seg(0, 1, 0, 0, 2), seg(1, 1, 0, 2, 3)], 3);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::TypeMismatch { .. })
        ));
        let t = Trace::new(vec![seg(0, 0, 5, 0, 2), seg(1, 1, 0, 2, 3)], 3);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::BadProcessor(_))
        ));
    }

    #[test]
    fn detects_makespan_overrun_and_empty_segment() {
        let job = tiny_job();
        let cfg = MachineConfig::uniform(2, 1);
        let t = Trace::new(vec![seg(0, 0, 0, 0, 2), seg(1, 1, 0, 2, 3)], 2);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::ExceedsMakespan(_))
        ));
        let t = Trace::new(vec![seg(0, 0, 0, 2, 2)], 3);
        assert!(matches!(
            validate(&t, &job, &cfg),
            Err(TraceError::EmptySegment(_))
        ));
    }

    #[test]
    fn csv_lists_segments_in_start_order() {
        let t = Trace::new(vec![seg(1, 1, 0, 2, 3), seg(0, 0, 0, 0, 2)], 3);
        let csv = to_csv(&t);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "task,rtype,proc,start,end");
        assert_eq!(lines[1], "0,0,0,0,2");
        assert_eq!(lines[2], "1,1,0,2,3");
    }

    #[test]
    fn coalesce_merges_adjacent_segments() {
        let mut segs = vec![seg(0, 0, 0, 0, 1), seg(0, 0, 0, 1, 2), seg(0, 0, 0, 3, 4)];
        coalesce(&mut segs);
        assert_eq!(segs, vec![seg(0, 0, 0, 0, 2), seg(0, 0, 0, 3, 4)]);
    }

    #[test]
    fn coalesce_keeps_different_procs_apart() {
        let mut segs = vec![seg(0, 0, 0, 0, 1), seg(0, 0, 1, 1, 2)];
        coalesce(&mut segs);
        assert_eq!(segs.len(), 2);
    }
}
