//! Golden tests for the structured trace export: a real sweep's trace
//! must be a valid Chrome-trace document (parseable JSON, named
//! processes/lanes, monotonic timestamps, balanced B/E span pairs) and a
//! valid JSONL stream with matching event counts. Both exporters must
//! also write, byte for byte, what the `fmt`-based exporters in
//! [`oracle`] write.

use fhs_experiments::runner::{run_sweep_observed, SweepCell};
use fhs_obs::json::{parse, Value};
use fhs_obs::{chrome_trace_json, events_jsonl, ObsConfig, TraceCell};
use fhs_sim::Mode;
use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

/// One small sweep with tracing on; returns named trace cells exactly as
/// the `sweep --trace-out` binary builds them.
fn traced_cells() -> Vec<TraceCell> {
    let cells = [
        SweepCell::new(fhs_core::Algorithm::KGreedy, Mode::NonPreemptive),
        SweepCell::new(fhs_core::Algorithm::Mqb, Mode::NonPreemptive),
    ];
    recorded_cells(&cells, 0)
}

/// The instance-0 traces of a 3-type Small IR sweep over `cells`, at
/// most `event_cap` events each (0 = the default bound).
fn recorded_cells(cells: &[SweepCell], event_cap: usize) -> Vec<TraceCell> {
    let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
    let observe = ObsConfig {
        events: true,
        event_cap,
        ..ObsConfig::default()
    };
    let cols = run_sweep_observed(&spec, cells, 3, 41, Some(2), observe);
    cols.iter()
        .enumerate()
        .map(|(i, col)| {
            let t = col
                .obs
                .as_ref()
                .and_then(|o| o.trace.as_ref())
                .expect("tracing was on");
            TraceCell {
                pid: i as u32 + 1,
                name: format!("cell {i} np"),
                ..t.clone()
            }
        })
        .collect()
}

#[test]
fn exporters_write_the_oracle_bytes() {
    let mut cells = traced_cells();
    let capped = [
        SweepCell::new(fhs_core::Algorithm::ShiftBT, Mode::Preemptive),
        SweepCell::new(fhs_core::Algorithm::Mqb, Mode::NonPreemptive),
    ];
    for (i, mut cell) in recorded_cells(&capped, 100).into_iter().enumerate() {
        cell.pid = 3 + i as u32;
        cells.push(cell);
    }
    cells[1].name = "MQB \"np\" \\ tab\t nl\n cr\r \u{1}\u{1f} é".into();
    assert!(cells.iter().all(|c| c.k > 1), "every cell has K > 1");
    assert!(cells.iter().any(|c| c.dropped == 0), "an untruncated cell");
    assert!(cells.iter().any(|c| c.dropped > 0), "a truncated cell");

    let chrome = chrome_trace_json(&cells);
    assert_eq!(chrome, oracle::chrome_trace_json(&cells));
    assert_eq!(chrome.capacity(), chrome.len(), "sized exactly");
    let jsonl = events_jsonl(&cells);
    assert_eq!(jsonl, oracle::events_jsonl(&cells));
    assert_eq!(jsonl.capacity(), jsonl.len(), "sized exactly");
    assert_eq!(chrome_trace_json(&[]), oracle::chrome_trace_json(&[]));
    assert_eq!(events_jsonl(&[]), oracle::events_jsonl(&[]));
}

#[test]
fn chrome_trace_is_valid_monotonic_and_balanced() {
    let cells = traced_cells();
    let doc = chrome_trace_json(&cells);
    let root = parse(&doc).expect("exporter emits valid JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_u64);
    let phase = |e: &Value| e.get("ph").and_then(Value::as_str).unwrap().to_string();
    // Metadata names both processes; data events carry pid/tid/ts and
    // per-(pid,tid) monotonic timestamps with balanced B/E nesting.
    let mut named_pids = std::collections::HashSet::new();
    let mut last_ts: std::collections::HashMap<(u64, u64), u64> = Default::default();
    let mut open_spans: std::collections::HashMap<(u64, u64), u64> = Default::default();
    for e in events {
        match phase(e).as_str() {
            "M" => {
                if e.get("name").and_then(Value::as_str) == Some("process_name") {
                    named_pids.insert(field(e, "pid").unwrap());
                }
            }
            ph @ ("B" | "E" | "i") => {
                let key = (field(e, "pid").unwrap(), field(e, "tid").unwrap());
                let ts = field(e, "ts").expect("data events carry ts");
                let prev = last_ts.insert(key, ts).unwrap_or(0);
                assert!(ts >= prev, "ts went backwards on pid/tid {key:?}");
                let depth = open_spans.entry(key).or_insert(0);
                match ph {
                    "B" => *depth += 1,
                    "E" => {
                        assert!(*depth > 0, "E without B on pid/tid {key:?}");
                        *depth -= 1;
                    }
                    _ => {}
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(named_pids.len(), cells.len(), "every cell pid is named");
    // Non-preemptive traces close every span they open.
    for (key, depth) in open_spans {
        assert_eq!(depth, 0, "unbalanced B/E on pid/tid {key:?}");
    }
}

#[test]
fn jsonl_stream_matches_the_cells_event_counts() {
    let cells = traced_cells();
    let body = events_jsonl(&cells);
    let mut lines = body.lines();
    for cell in &cells {
        let header = parse(lines.next().expect("header line")).expect("valid header");
        assert_eq!(
            header.get("pid").and_then(Value::as_u64),
            Some(cell.pid as u64)
        );
        assert_eq!(
            header.get("events").and_then(Value::as_u64),
            Some(cell.events.len() as u64)
        );
        let mut prev_t = 0;
        for _ in 0..cell.events.len() {
            let ev = parse(lines.next().expect("event line")).expect("valid event");
            assert!(ev.get("kind").and_then(Value::as_str).is_some());
            let t = ev.get("t").and_then(Value::as_u64).unwrap();
            assert!(t >= prev_t, "jsonl events out of order");
            prev_t = t;
        }
    }
    assert!(lines.next().is_none(), "no trailing lines");
}

/// The `fmt`-based exporters the allocation-free writers replaced, kept
/// verbatim as the byte oracle.
mod oracle {
    use fhs_obs::{EventKind, TraceCell, NONE};
    use std::fmt::Write;

    fn json_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn push_common(out: &mut String, ev: &fhs_obs::Event, pid: u32) {
        let _ = write!(
            out,
            r#""pid":{},"tid":{},"ts":{},"args":{{"epoch":{}"#,
            pid, ev.lane, ev.t, ev.epoch
        );
        if ev.task != NONE {
            let _ = write!(out, r#","task":{}"#, ev.task);
        }
        if ev.rtype != NONE {
            let _ = write!(out, r#","type":{}"#, ev.rtype);
        }
        let _ = write!(out, r#","arg":{}}}"#, ev.arg);
    }

    pub fn chrome_trace_json(cells: &[TraceCell]) -> String {
        fn sep(out: &mut String, first: &mut bool) {
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
        }
        fn lane_meta(out: &mut String, first: &mut bool, pid: u32, tid: u32, name: &str) {
            sep(out, first);
            let _ = write!(
                out,
                r#"{{"name":"thread_name","ph":"M","pid":{},"tid":{},"args":{{"name":{}}}}}"#,
                pid,
                tid,
                json_string(name)
            );
        }
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for cell in cells {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                r#"{{"name":"process_name","ph":"M","pid":{},"args":{{"name":{}}}}}"#,
                cell.pid,
                json_string(&cell.name)
            );
            lane_meta(&mut out, &mut first, cell.pid, 0, "engine");
            let mut lane = 1u32;
            for alpha in 0..cell.k {
                lane_meta(
                    &mut out,
                    &mut first,
                    cell.pid,
                    lane,
                    &format!("queue[{alpha}]"),
                );
                lane += 1;
            }
            for (alpha, &p) in cell.procs.iter().enumerate() {
                for i in 0..p {
                    lane_meta(
                        &mut out,
                        &mut first,
                        cell.pid,
                        lane,
                        &format!("proc[{alpha}][{i}]"),
                    );
                    lane += 1;
                }
            }
            for ev in &cell.events {
                sep(&mut out, &mut first);
                let (ph, name): (&str, String) = match ev.kind {
                    EventKind::Start if ev.lane > cell.k => ("B", format!("task {}", ev.task)),
                    EventKind::Complete if ev.lane > cell.k => ("E", format!("task {}", ev.task)),
                    k => ("i", k.name().to_string()),
                };
                let _ = write!(out, r#"{{"name":{},"ph":"{}","#, json_string(&name), ph);
                if ph == "i" {
                    out.push_str(r#""s":"t","#);
                }
                push_common(&mut out, ev, cell.pid);
                out.push('}');
            }
            if cell.dropped > 0 {
                sep(&mut out, &mut first);
                let _ = write!(
                    out,
                    r#"{{"name":"trace truncated: {} events dropped","ph":"i","s":"p","pid":{},"tid":0,"ts":{},"args":{{}}}}"#,
                    cell.dropped,
                    cell.pid,
                    cell.events.last().map_or(0, |e| e.t)
                );
            }
        }
        out.push_str("]}");
        out
    }

    pub fn events_jsonl(cells: &[TraceCell]) -> String {
        let mut out = String::new();
        for cell in cells {
            let _ = write!(
                out,
                r#"{{"cell":{},"pid":{},"k":{},"procs":["#,
                json_string(&cell.name),
                cell.pid,
                cell.k
            );
            for (i, p) in cell.procs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{p}");
            }
            let _ = writeln!(
                out,
                r#"],"events":{},"dropped":{}}}"#,
                cell.events.len(),
                cell.dropped
            );
            for ev in &cell.events {
                let _ = write!(
                    out,
                    r#"{{"pid":{},"kind":"{}","t":{},"epoch":{},"lane":{}"#,
                    cell.pid,
                    ev.kind.name(),
                    ev.t,
                    ev.epoch,
                    ev.lane
                );
                if ev.task != NONE {
                    let _ = write!(out, r#","task":{}"#, ev.task);
                }
                if ev.rtype != NONE {
                    let _ = write!(out, r#","type":{}"#, ev.rtype);
                }
                let _ = writeln!(out, r#","arg":{}}}"#, ev.arg);
            }
        }
        out
    }
}
