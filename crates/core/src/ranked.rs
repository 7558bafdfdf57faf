//! Shared selection machinery for key-ranked policies.
//!
//! LSpan, MaxDP, DType, ShiftBT and EDD all reduce to "per type, run the
//! `slots[α]` candidates with the smallest key"; only the key differs.
//! Keys are `f64` (ascending — negate for a descending criterion) with
//! deterministic tie-breaking by arrival order, then task id.
//!
//! Selection does not rescan the queue (DESIGN.md §7.1). The first time a
//! type's queue is contested (more candidates than slots) after the
//! owner's `init`, the [`Selector`] indexes it, ordered by `(key image,
//! seq, id)` — a strict total order, so the `slots` smallest entries are
//! exactly the ones a full sort would put first. From then on the queue's
//! change-journal keeps the index current. Types never contested never
//! consult the key.
//!
//! A type's index is one buffer: a sorted *run*, consumed from its front,
//! followed by a min-heap of the candidates indexed since the run was
//! last rebuilt. Picks come off the run in O(1) or off the heap in
//! O(log n); nothing else ever leaves the buffer. Tasks a preemptive epoch
//! picked stay queued, and they are the only ones that can complete or
//! change remaining work before the next epoch — so they wait outside the
//! buffer, in a short list of the last picks, and the journal's
//! `Removed`/`Updated` events touch only that list. No task → position
//! map is needed.

use fhs_sim::{Assignments, EpochView, ReadyTask, SelectionStats};
use kdag::{TaskId, Work};

use crate::journal::{Cursor, JournalIndex};

/// A dead entry's id in the list of last picks.
const GONE: u32 = u32::MAX;

/// One indexed candidate, 16 bytes: Huge queues hold tens of thousands
/// of entries per type. The derived order compares fields in declaration
/// order: key image, then seq, then id. A seq is a per-run release
/// counter, so it fits in 32 bits as task ids do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    key: u64,
    seq: u32,
    id: u32,
}

/// Maps `x` to a `u64` whose unsigned order is `f64::total_cmp`'s order
/// (negative values have all bits flipped, non-negative ones the sign bit
/// set), so the index compares plain integers and agrees with a
/// `total_cmp` sort bit for bit — `-0.0 < +0.0` and NaNs included.
#[inline]
pub(crate) fn key_image(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Candidate `rt` of type `alpha` as an index entry.
fn entry<F>(alpha: usize, rt: &ReadyTask, key: &mut F) -> Entry
where
    F: FnMut(usize, &ReadyTask) -> f64,
{
    Entry {
        key: key_image(key(alpha, rt)),
        seq: rt.seq,
        id: rt.id.index() as u32,
    }
}

/// One type's key index.
#[derive(Clone, Debug, Default)]
struct TypeIndex {
    /// `true` once the type's queue was first contested since the owner's
    /// last `init`; from then on the journal keeps the index current.
    active: bool,
    cursor: Cursor,
    /// `[head..mid]` is the sorted run (`[..head]` was picked), `[mid..]`
    /// the heap.
    v: Vec<Entry>,
    head: usize,
    mid: usize,
    /// The last preemptive picks, still queued, in pick order; those
    /// that completed since carry id `GONE`.
    picked: Vec<Entry>,
    /// Live entries in `picked`.
    picked_live: usize,
    /// Where the next `picked` lookup starts: the engine journals its
    /// picks' progress and completions in pick order, so lookups hit here.
    scan: usize,
}

impl TypeIndex {
    /// Unindexes everything (capacity retained).
    fn empty(&mut self) {
        self.v.clear();
        self.head = 0;
        self.mid = 0;
        self.clear_picked();
    }

    fn reset(&mut self) {
        self.empty();
        self.active = false;
    }

    fn clear_picked(&mut self) {
        self.picked.clear();
        self.picked_live = 0;
        self.scan = 0;
    }

    fn push_picked(&mut self, e: Entry) {
        self.picked.push(e);
        self.picked_live += 1;
    }

    /// Position of live task `t` in `picked`, probing from `scan`.
    fn find_picked(&self, t: usize) -> Option<usize> {
        let n = self.picked.len();
        (0..n)
            .map(|k| (self.scan + k) % n)
            .find(|&i| self.picked[i].id == t as u32)
    }

    fn run_len(&self) -> usize {
        self.mid - self.head
    }

    fn heap_len(&self) -> usize {
        self.v.len() - self.mid
    }

    #[inline]
    fn heap(&self, i: usize) -> Entry {
        self.v[self.mid + i]
    }

    /// Indexes `entries` (any order, `len` of them) from scratch as one
    /// sorted run.
    fn build(&mut self, len: usize, entries: impl Iterator<Item = Entry>) {
        self.v.clear();
        self.v.reserve_exact(len);
        self.v.extend(entries);
        self.v.sort_unstable();
        self.head = 0;
        self.mid = len;
        self.clear_picked();
    }

    fn insert(&mut self, e: Entry) {
        if self.v.len() == self.v.capacity() {
            // Grow by a quarter, not the default doubling: the buffer is
            // retained for the policy's lifetime, so slack is resident.
            self.v.reserve_exact(self.v.len() / 4 + 16);
        }
        self.v.push(e);
        let mid = self.mid;
        let heap = &mut self.v[mid..];
        let mut i = heap.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if heap[p] < e {
                break;
            }
            heap[i] = heap[p];
            i = p;
        }
        heap[i] = e;
    }

    /// The smallest indexed entry, if any.
    fn peek(&self) -> Option<Entry> {
        let run = (self.head < self.mid).then(|| self.v[self.head]);
        let heap = (self.heap_len() > 0).then(|| self.heap(0));
        match (run, heap) {
            (Some(r), Some(h)) => Some(r.min(h)),
            (r, h) => r.or(h),
        }
    }

    /// Unindexes and returns the smallest entry (the index is non-empty).
    fn pop(&mut self) -> Entry {
        if self.head < self.mid && (self.heap_len() == 0 || self.v[self.head] < self.heap(0)) {
            self.head += 1;
            return self.v[self.head - 1];
        }
        let top = self.heap(0);
        let last = self.v.pop().expect("non-empty heap");
        let mid = self.mid;
        let heap = &mut self.v[mid..];
        if !heap.is_empty() {
            let n = heap.len();
            let mut i = 0;
            loop {
                let mut c = 2 * i + 1;
                if c >= n {
                    break;
                }
                if c + 1 < n && heap[c + 1] < heap[c] {
                    c += 1;
                }
                if last < heap[c] {
                    break;
                }
                heap[i] = heap[c];
                i = c;
            }
            heap[i] = last;
        }
        top
    }

    /// Readies the index for a contested epoch: once the heap holds at
    /// least half as many entries as the run, or the picked prefix
    /// outgrows the run, rebuilds the run from both — O(buffer), paid for
    /// by the inserts or picks since the last rebuild. The two sorted
    /// halves merge in place through `buf`, which takes the shorter one.
    fn settle(&mut self, buf: &mut Vec<Entry>) {
        let (a, b) = (self.run_len(), self.heap_len());
        if 2 * b < a && self.head <= a {
            return;
        }
        let v = &mut self.v;
        v.copy_within(self.head.., 0);
        v.truncate(a + b);
        v[a..].sort_unstable();
        buf.clear();
        if b <= a {
            buf.reserve_exact(b);
            buf.extend_from_slice(&v[a..]);
            let (mut i, mut j) = (a, b);
            while j > 0 {
                if i > 0 && v[i - 1] > buf[j - 1] {
                    v[i + j - 1] = v[i - 1];
                    i -= 1;
                } else {
                    v[i + j - 1] = buf[j - 1];
                    j -= 1;
                }
            }
        } else {
            buf.reserve_exact(a);
            buf.extend_from_slice(&v[..a]);
            let (mut i, mut j) = (0, a);
            while i < a {
                if j < a + b && v[j] < buf[i] {
                    v[i + j - a] = v[j];
                    j += 1;
                } else {
                    v[i + j - a] = buf[i];
                    i += 1;
                }
            }
        }
        self.head = 0;
        self.mid = a + b;
    }
}

/// One type's index as a journal consumer: new and re-keyed candidates
/// are keyed through the owner's key function.
struct KeyIndex<'a, F> {
    alpha: usize,
    ty: &'a mut TypeIndex,
    key: &'a mut F,
}

impl<F: FnMut(usize, &ReadyTask) -> f64> JournalIndex for KeyIndex<'_, F> {
    /// Only the last preemptive picks can leave the queue or change
    /// before the next epoch; non-preemptive picks were unindexed when
    /// they were emitted.
    fn contains(&self, t: usize) -> bool {
        self.ty.find_picked(t).is_some()
    }

    fn insert(&mut self, rt: ReadyTask) {
        self.ty.insert(entry(self.alpha, &rt, self.key));
    }

    fn remove(&mut self, t: usize) {
        let i = self.ty.find_picked(t).expect("contained");
        self.ty.picked[i].id = GONE;
        self.ty.picked_live -= 1;
        self.ty.scan = i + 1;
    }

    fn update(&mut self, t: usize, remaining: Work) {
        let i = self.ty.find_picked(t).expect("contained");
        self.ty.scan = i;
        let e = &mut self.ty.picked[i];
        let rt = ReadyTask {
            id: TaskId::from_index(t),
            seq: e.seq,
            remaining,
        };
        e.key = key_image((self.key)(self.alpha, &rt));
    }

    fn live(&self) -> usize {
        self.ty.run_len() + self.ty.heap_len() + self.ty.picked_live
    }
}

/// Per-type key-ranked selection over journal-maintained indexes. See the
/// module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct Selector {
    types: Vec<TypeIndex>,
    /// Scratch for folding a heap into its run.
    merge: Vec<Entry>,
    /// Scratch: the last picks in key order.
    order: Vec<Entry>,
    sel: SelectionStats,
}

impl Selector {
    /// Drops every type's index and zeroes the counters: the owner's key
    /// table changed (`init`), so the next contested epoch of each type
    /// rebuilds cold. Retains all capacity.
    pub(crate) fn invalidate(&mut self) {
        for ty in &mut self.types {
            ty.reset();
        }
        self.sel = SelectionStats::default();
    }

    /// Takes (and resets) the journal-replay and cold-build counters.
    pub(crate) fn take_stats(&mut self) -> SelectionStats {
        std::mem::take(&mut self.sel)
    }

    /// For every type, pushes into `out` the `slots[α]` queue entries with
    /// the smallest `key(α, candidate)` (ascending; ties by seq then id).
    ///
    /// `key` must be a pure function of the candidate, fixed between the
    /// owner's `init` calls (it is evaluated when a candidate is indexed
    /// or its remaining work changes, not every epoch).
    pub(crate) fn assign_by_key<F>(
        &mut self,
        view: &EpochView<'_>,
        out: &mut Assignments,
        mut key: F,
    ) where
        F: FnMut(usize, &ReadyTask) -> f64,
    {
        let k = view.config.num_types();
        // Never shrink `types`: truncating would drop warm capacity.
        if self.types.len() < k {
            self.types.resize_with(k, TypeIndex::default);
        }
        for alpha in 0..k {
            let queue = &view.queues[alpha];
            let slots = view.slots[alpha];
            let ty = &mut self.types[alpha];
            if ty.active {
                let mut cursor = ty.cursor;
                let mut ki = KeyIndex {
                    alpha,
                    ty,
                    key: &mut key,
                };
                if !cursor.replay(queue, &mut ki, &mut self.sel.diff_events) {
                    // The journal does not explain this queue: drop the
                    // index; the next contested epoch rebuilds it cold.
                    ki.ty.reset();
                }
                ki.ty.cursor = cursor;
            }
            if slots == 0 || queue.is_empty() {
                continue;
            }
            if queue.len() <= slots {
                // "if there are at most P_α ready tasks, execute them all"
                for rt in queue.iter() {
                    out.push(alpha, rt.id);
                }
                if ty.active {
                    // All of them are picks now: the index empties, and
                    // preemptive picks wait in pick (queue) order.
                    ty.empty();
                    if view.preemptive {
                        for rt in queue.iter() {
                            ty.push_picked(entry(alpha, rt, &mut key));
                        }
                    }
                }
                continue;
            }
            if !ty.active {
                ty.build(
                    queue.len(),
                    queue.iter().map(|rt| entry(alpha, rt, &mut key)),
                );
                ty.cursor.seek_end(queue);
                ty.active = true;
                self.sel.cold_snapshots += 1;
            }
            ty.settle(&mut self.merge);
            // Candidates: the indexed ones plus the last picks (re-keyed
            // by the journal), merged in ascending order. The last picks
            // are mostly still in order: the sort then only checks it.
            self.order.clear();
            self.order.extend(ty.picked.iter().filter(|e| e.id != GONE));
            ty.clear_picked();
            self.order.sort_unstable();
            let mut oi = 0;
            for _ in 0..slots {
                let e = match (self.order.get(oi), ty.peek()) {
                    (Some(&o), Some(p)) if p < o => ty.pop(),
                    (Some(&o), _) => {
                        oi += 1;
                        o
                    }
                    (None, _) => ty.pop(),
                };
                out.push(alpha, TaskId::from_index(e.id as usize));
                if view.preemptive {
                    ty.push_picked(e);
                }
            }
            // Last picks not picked again are plain candidates again.
            for &e in &self.order[oi..] {
                ty.insert(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{MachineConfig, ReadyQueue};
    use kdag::{KDagBuilder, TaskId};

    fn rt(i: usize, seq: u32, rem: u64) -> ReadyTask {
        ReadyTask {
            id: TaskId::from_index(i),
            seq,
            remaining: rem,
        }
    }

    #[test]
    fn key_image_preserves_total_cmp_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for a in xs {
            for b in xs {
                assert_eq!(
                    key_image(a).cmp(&key_image(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn selects_smallest_keys_with_fifo_ties() {
        let mut b = KDagBuilder::new(1);
        for _ in 0..4 {
            b.add_task(0, 1);
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 2);
        let queues = vec![ReadyQueue::from_tasks(vec![
            rt(0, 0, 1),
            rt(1, 1, 1),
            rt(2, 2, 1),
            rt(3, 3, 1),
        ])];
        let view = EpochView {
            time: 0,
            job: &job,
            config: &cfg,
            queues: &queues,
            queue_work: &[4],
            slots: &[2],
            preemptive: false,
        };
        let mut out = Assignments::default();
        out.reset(1);
        let keys = [5.0, 1.0, 1.0, 0.5];
        Selector::default().assign_by_key(&view, &mut out, |_, r| keys[r.id.index()]);
        // smallest key 0.5 (t3), then tie at 1.0 broken by seq -> t1
        assert_eq!(
            out.chosen(0),
            &[TaskId::from_index(3), TaskId::from_index(1)]
        );
    }

    #[test]
    fn takes_all_when_queue_fits() {
        let mut b = KDagBuilder::new(1);
        b.add_task(0, 1);
        b.add_task(0, 1);
        let job = b.build().unwrap();
        let cfg = MachineConfig::uniform(1, 3);
        let queues = vec![ReadyQueue::from_tasks(vec![rt(0, 0, 1), rt(1, 1, 1)])];
        let view = EpochView {
            time: 0,
            job: &job,
            config: &cfg,
            queues: &queues,
            queue_work: &[2],
            slots: &[3],
            preemptive: false,
        };
        let mut out = Assignments::default();
        out.reset(1);
        // key function would invert the order, but it must not be consulted
        Selector::default().assign_by_key(&view, &mut out, |_, _| unreachable!());
        assert_eq!(out.total(), 2);
    }
}
