//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name (`layer.call`), start
//! and end, the span that caused it, the thread it ran on, the id of the
//! item (instance or streamed job) it belongs to, and the bytes the thread
//! allocated while it was open. Spans are collected per item and kept in
//! memory; the run writes them out when it ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

use crate::alloc;

/// Span ids, unique within the process.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
/// Thread ids, assigned on a thread's first span.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Process-unique id.
    pub id: u64,
    /// The span that caused this one (possibly on another thread).
    pub parent: Option<u64>,
    /// The thread the call ran on.
    pub thread: u32,
    /// The instance or job the call worked on.
    pub item: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Bytes the thread allocated while the span was open.
    pub alloc: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one flow of calls on one thread.
pub struct Tracer {
    epoch: Instant,
    /// The item id stamped on new spans.
    pub item: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose top-level spans are caused by `parent`.
    pub fn new(epoch: Instant, item: u64, parent: Option<u64>) -> Tracer {
        Tracer {
            epoch,
            item,
            stack: parent.into_iter().collect(),
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The innermost open span, if any.
    pub fn current(&self) -> Option<u64> {
        self.stack.last().copied()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        let alloc0 = alloc::thread_bytes();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            thread: THREAD.with(|t| *t),
            item: self.item,
            start_ns,
            end_ns,
            alloc: alloc::thread_bytes() - alloc0,
        });
        r
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Summed self time and self allocation of the spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfCost {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by same-thread children.
    pub self_ns: u64,
    /// Summed allocation minus that of same-thread children.
    pub self_alloc: u64,
}

/// Self costs by span name. A span's self time is its duration minus the
/// durations of its children on the same thread; a child on another
/// thread (a pool item caused by a `par.map` call) runs in parallel and is
/// not subtracted.
pub fn self_costs(spans: &[Span]) -> HashMap<&'static str, SelfCost> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            if p.thread == s.thread {
                let e = child_ns.entry(p.id).or_default();
                e.0 += s.dur_ns();
                e.1 += s.alloc;
            }
        }
    }
    let mut out: HashMap<&'static str, SelfCost> = HashMap::new();
    for s in spans {
        let (cn, ca) = child_ns.get(&s.id).copied().unwrap_or_default();
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(cn);
        e.self_alloc += s.alloc.saturating_sub(ca);
    }
    out
}

/// The spans as JSON lines, one span per line.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128);
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"item\":{},\"start_ns\":{},\"end_ns\":{},\"alloc\":{}}}\n",
            s.name,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.thread,
            s.item,
            s.start_ns,
            s.end_ns,
            s.alloc,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch, 0, None);
        let map_id = t.span("par.map", |t| {
            let id = t.current();
            t.span("a.child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            id
        });
        // A span on another thread caused by the map span.
        let other = std::thread::spawn(move || {
            let mut o = Tracer::new(epoch, 1, map_id);
            o.span("par.item", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
            o.into_spans()
        })
        .join()
        .expect("tracing thread");
        t.absorb(other);
        let spans = t.into_spans();
        let costs = self_costs(&spans);
        let map = costs["par.map"];
        let child = costs["a.child"];
        assert_eq!(map.self_ns, map.total_ns - child.total_ns);
        assert_eq!(costs["par.item"].self_ns, costs["par.item"].total_ns);
        let total_self: u64 = costs.values().map(|c| c.self_ns).sum();
        assert_eq!(
            total_self,
            map.self_ns + child.total_ns + costs["par.item"].total_ns
        );
        assert_eq!(spans_jsonl(&spans).lines().count(), 3);
    }
}
