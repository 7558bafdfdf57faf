//! Structured event trace: bounded, epoch-stamped engine events with
//! Chrome-trace/Perfetto JSON and JSONL exporters.
//!
//! Events are recorded into a fixed-capacity [`EventBuf`]: the first
//! `cap` events are kept and the rest are counted in `dropped` (first-N
//! bounding — for `Huge` workloads a trace prefix is what fits in memory
//! and what a human actually inspects; the drop counter makes the
//! truncation explicit). The buffer is sized once and retained across
//! runs, preserving the engine's zero-allocation steady state.
//!
//! Sim time is exported as Chrome-trace microseconds verbatim (1 tick =
//! 1 µs), so Perfetto's timeline shows sim ticks directly. Each sweep
//! cell becomes one Chrome `pid` with named thread lanes: lane 0 is the
//! engine, lanes `1..=k` are per-type ready queues, and the remaining
//! lanes are individual processors (only meaningful for non-preemptive
//! runs, where a task occupies one processor for its whole span).

use crate::json::{ByteCount, JsonSink};

/// What happened. Discriminants are stable (used by the JSONL exporter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Engine run began (`arg` = 0).
    RunBegin = 0,
    /// Engine run finished (`arg` = makespan).
    RunEnd = 1,
    /// Policy per-job initialization (`arg` = 0).
    PolicyInit = 2,
    /// One scheduling epoch decided (`arg` = tasks assigned this epoch).
    Epoch = 3,
    /// Task became ready (`task`, `rtype`; queue lane).
    Release = 4,
    /// Task started on a processor (`task`, `rtype`, `arg` = remaining
    /// work; begins a span on a processor lane for non-preemptive runs).
    Start = 5,
    /// Task completed (`task`, `rtype`; ends the processor span for
    /// non-preemptive runs, instant on the queue lane for preemptive).
    Complete = 6,
}

impl EventKind {
    /// Stable lowercase name (JSONL `kind` field, Chrome event name).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RunBegin => "run_begin",
            EventKind::RunEnd => "run_end",
            EventKind::PolicyInit => "policy_init",
            EventKind::Epoch => "epoch",
            EventKind::Release => "release",
            EventKind::Start => "start",
            EventKind::Complete => "complete",
        }
    }
}

/// Sentinel for "no task" / "no type" in [`Event`] fields.
pub const NONE: u32 = u32::MAX;

/// One trace event. Plain integers only: the recorder sits below the
/// simulator in the dependency graph and the engine precomputes lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Sim time (engine ticks).
    pub t: u64,
    /// Scheduling epoch counter at record time.
    pub epoch: u64,
    /// Task id, or [`NONE`].
    pub task: u32,
    /// Resource type, or [`NONE`].
    pub rtype: u32,
    /// Display lane: 0 = engine, `1..=k` = per-type ready queues,
    /// `1+k..` = processors.
    pub lane: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub arg: u64,
}

/// Fixed-capacity first-N event buffer with an overflow counter.
#[derive(Clone, Debug, Default)]
pub struct EventBuf {
    events: Vec<Event>,
    cap: usize,
    dropped: u64,
}

impl EventBuf {
    /// An empty, capacity-0 buffer (records nothing until `begin`).
    pub fn new() -> Self {
        EventBuf::default()
    }

    /// Clears for a new run with capacity `cap`. The backing storage is
    /// reserved here (outside the engine's metered epoch loop) and
    /// retained across runs.
    pub fn begin(&mut self, cap: usize) {
        self.events.clear();
        self.cap = cap;
        if self.events.capacity() < cap {
            self.events.reserve_exact(cap - self.events.capacity());
        }
        self.dropped = 0;
    }

    /// Records one event, or bumps the drop counter once full. Never
    /// allocates (capacity was reserved by `begin`).
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Events recorded so far (at most `cap`).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// One sweep cell's trace: the events of a representative run plus the
/// machine shape needed to lay out lanes.
#[derive(Clone, Debug)]
pub struct TraceCell {
    /// Chrome-trace process id (one per cell).
    pub pid: u32,
    /// Cell label, e.g. `"MQB/np"` (becomes the Chrome process name).
    pub name: String,
    /// Number of resource types.
    pub k: u32,
    /// Processors per type (defines processor-lane layout).
    pub procs: Vec<u32>,
    /// The recorded events (first-N of the run).
    pub events: Vec<Event>,
    /// Events dropped past the cap.
    pub dropped: u64,
}

/// Writes the fields a Chrome-trace data event shares, from `"pid"` to
/// the closed `"args"` object.
fn chrome_common<S: JsonSink>(out: &mut S, ev: &Event, pid: u32) {
    out.field(r#""pid":"#, pid.into());
    out.field(r#","tid":"#, ev.lane.into());
    out.field(r#","ts":"#, ev.t);
    out.field(r#","args":{"epoch":"#, ev.epoch);
    task_type_arg(out, ev);
    out.raw("}");
}

/// Writes an event's optional `task` and `type` fields and its `arg`.
fn task_type_arg<S: JsonSink>(out: &mut S, ev: &Event) {
    if ev.task != NONE {
        out.field(r#","task":"#, ev.task.into());
    }
    if ev.rtype != NONE {
        out.field(r#","type":"#, ev.rtype.into());
    }
    out.field(r#","arg":"#, ev.arg);
}

/// Writes a `thread_name` metadata entry naming lane `tid`
/// `label[i][j]…` for `index = [i, j, …]`.
fn chrome_lane_name<S: JsonSink>(out: &mut S, pid: u32, tid: u32, label: &str, index: &[u32]) {
    out.field(r#",{"name":"thread_name","ph":"M","pid":"#, pid.into());
    out.field(r#","tid":"#, tid.into());
    out.raw(r#","args":{"name":""#);
    out.raw(label);
    for &i in index {
        out.field("[", i.into());
        out.raw("]");
    }
    out.raw(r#""}}"#);
}

fn chrome_trace_into<S: JsonSink>(out: &mut S, cells: &[TraceCell]) {
    out.raw(r#"{"displayTimeUnit":"ms","traceEvents":["#);
    for (c, cell) in cells.iter().enumerate() {
        // Process + lane metadata. The process entry opens each cell, so
        // every later entry of the cell follows a comma.
        let pid = cell.pid;
        out.raw(if c > 0 { "," } else { "" });
        out.field(r#"{"name":"process_name","ph":"M","pid":"#, pid.into());
        out.raw(r#","args":{"name":"#);
        out.string(&cell.name);
        out.raw("}}");
        chrome_lane_name(out, pid, 0, "engine", &[]);
        for alpha in 0..cell.k {
            chrome_lane_name(out, pid, 1 + alpha, "queue", &[alpha]);
        }
        let mut lane = 1 + cell.k;
        for (alpha, &p) in (0u32..).zip(&cell.procs) {
            for i in 0..p {
                chrome_lane_name(out, pid, lane, "proc", &[alpha, i]);
                lane += 1;
            }
        }
        for ev in &cell.events {
            match ev.kind {
                EventKind::Start | EventKind::Complete if ev.lane > cell.k => {
                    out.field(r#",{"name":"task "#, ev.task.into());
                    out.raw(match ev.kind {
                        EventKind::Start => r#"","ph":"B","#,
                        _ => r#"","ph":"E","#,
                    });
                }
                kind => {
                    out.raw(r#",{"name":""#);
                    out.raw(kind.name());
                    out.raw(r#"","ph":"i","s":"t","#);
                }
            }
            chrome_common(out, ev, pid);
            out.raw("}");
        }
        if cell.dropped > 0 {
            out.field(r#",{"name":"trace truncated: "#, cell.dropped);
            out.field(r#" events dropped","ph":"i","s":"p","pid":"#, pid.into());
            out.field(r#","tid":0,"ts":"#, cell.events.last().map_or(0, |e| e.t));
            out.raw(r#","args":{}}"#);
        }
    }
    out.raw("]}");
}

/// Renders cells as a Chrome-trace (Perfetto-loadable) JSON document.
///
/// Non-preemptive `Start`/`Complete` pairs become duration (`B`/`E`)
/// spans on processor lanes; everything else is an instant (`i`). Lane
/// metadata names each `tid`. Times are sim ticks exported as µs.
///
/// One pass measures the document and a second writes it into a buffer
/// of exactly that size: integers and escaped names go straight into it,
/// with no allocation per event.
pub fn chrome_trace_json(cells: &[TraceCell]) -> String {
    let mut len = ByteCount::default();
    chrome_trace_into(&mut len, cells);
    let mut out = Vec::with_capacity(len.0);
    chrome_trace_into(&mut out, cells);
    String::from_utf8(out).expect("the writer emits UTF-8")
}

fn events_jsonl_into<S: JsonSink>(out: &mut S, cells: &[TraceCell]) {
    for cell in cells {
        out.raw(r#"{"cell":"#);
        out.string(&cell.name);
        out.field(r#","pid":"#, cell.pid.into());
        out.field(r#","k":"#, cell.k.into());
        out.raw(r#","procs":["#);
        for (i, &p) in cell.procs.iter().enumerate() {
            out.field(if i > 0 { "," } else { "" }, p.into());
        }
        out.field(r#"],"events":"#, cell.events.len() as u64);
        out.field(r#","dropped":"#, cell.dropped);
        out.raw("}\n");
        for ev in &cell.events {
            out.field(r#"{"pid":"#, cell.pid.into());
            out.raw(r#","kind":""#);
            out.raw(ev.kind.name());
            out.field(r#"","t":"#, ev.t);
            out.field(r#","epoch":"#, ev.epoch);
            out.field(r#","lane":"#, ev.lane.into());
            task_type_arg(out, ev);
            out.raw("}\n");
        }
    }
}

/// Renders cells as JSON Lines: one self-contained object per event,
/// prefixed by one header object per cell (`{"cell":...}`). Written as
/// [`chrome_trace_json`] is: measured, then filled without allocating.
pub fn events_jsonl(cells: &[TraceCell]) -> String {
    let mut len = ByteCount::default();
    events_jsonl_into(&mut len, cells);
    let mut out = Vec::with_capacity(len.0);
    events_jsonl_into(&mut out, cells);
    String::from_utf8(out).expect("the writer emits UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, t: u64, lane: u32) -> Event {
        Event {
            kind,
            t,
            epoch: 1,
            task: if matches!(
                kind,
                EventKind::Start | EventKind::Complete | EventKind::Release
            ) {
                7
            } else {
                NONE
            },
            rtype: 0,
            lane,
            arg: 3,
        }
    }

    fn tiny_cell() -> TraceCell {
        TraceCell {
            pid: 1,
            name: "MQB/np".into(),
            k: 1,
            procs: vec![2],
            events: vec![
                ev(EventKind::RunBegin, 0, 0),
                ev(EventKind::Release, 0, 1),
                ev(EventKind::Start, 0, 2),
                ev(EventKind::Complete, 3, 2),
                ev(EventKind::RunEnd, 3, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn buf_caps_and_counts_drops() {
        let mut b = EventBuf::new();
        b.begin(2);
        for i in 0..5 {
            b.push(ev(EventKind::Epoch, i, 0));
        }
        assert_eq!(b.events().len(), 2);
        assert_eq!(b.dropped(), 3);
        b.begin(2);
        assert!(b.events().is_empty());
        assert_eq!(b.dropped(), 0);
    }

    #[test]
    fn buf_begin_reserves_once() {
        let mut b = EventBuf::new();
        b.begin(8);
        let cap = b.events.capacity();
        assert!(cap >= 8);
        b.begin(8);
        assert_eq!(b.events.capacity(), cap);
    }

    #[test]
    fn chrome_trace_parses_and_balances_spans() {
        let doc = chrome_trace_json(&[tiny_cell()]);
        let v = crate::json::parse(&doc).expect("valid JSON");
        let evs = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let mut depth = 0i64;
        for e in evs {
            match e.get("ph").and_then(|p| p.as_str()) {
                Some("B") => depth += 1,
                Some("E") => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "E before B");
        }
        assert_eq!(depth, 0, "unbalanced B/E spans");
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let doc = events_jsonl(&[tiny_cell()]);
        let mut n = 0;
        for line in doc.lines() {
            let v = crate::json::parse(line).expect("each line is valid JSON");
            assert!(v.get("cell").is_some() || v.get("kind").is_some());
            n += 1;
        }
        assert_eq!(n, 6); // 1 header + 5 events
    }

    #[test]
    fn truncation_is_flagged_in_chrome_trace() {
        let mut cell = tiny_cell();
        cell.dropped = 12;
        let doc = chrome_trace_json(&[cell]);
        assert!(doc.contains("12 events dropped"));
        crate::json::parse(&doc).expect("still valid JSON");
    }
}
