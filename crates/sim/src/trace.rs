//! Execution traces: the segments a run recorded, coalescing and CSV
//! export. The model-rule checker that tests run over traces lives in
//! the test support file `tests/support/trace_check.rs`.

use kdag::TaskId;

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
    /// Wraps raw segments.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_check::{validate, TraceError};
    use crate::MachineConfig;
    use kdag::{KDag, KDagBuilder};

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
