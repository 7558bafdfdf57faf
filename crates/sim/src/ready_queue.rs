//! Indexed, arrival-ordered candidate queues.
//!
//! A [`ReadyQueue`] stores one type's ready candidates in arrival (`seq`)
//! order. Removal does not shift elements: slots are *tombstoned* and
//! reclaimed by an amortized compaction pass, so — together with the dense
//! task→slot position map kept by [`crate::state::JobState`] — the state
//! transitions `start`/`complete`/`progress`/`remaining` are O(1) amortized
//! instead of a linear scan per call. Iteration skips tombstones and
//! therefore presents exactly the arrival-ordered live sequence a plain
//! `Vec` with order-preserving removal would: FIFO and seq-sensitive
//! policies observe bit-for-bit identical queues.
//!
//! Liveness is tracked in a *bitmap* (one `u64` word per 64 slots), so
//! iteration skips tombstones 64 at a time with `trailing_zeros` instead of
//! testing a `bool` per slot, and rank-indexed batch lookups
//! ([`select_ranks`](ReadyQueue::select_ranks)) skip whole words with a
//! popcount — the epoch loop touches O(live/64 + picks) cache lines per
//! queue instead of O(capacity).
//!
//! Compaction runs when the tombstone count reaches
//! `max(live, MIN_COMPACT_SLACK)`, which bounds the backing storage to
//! `2·live + MIN_COMPACT_SLACK` entries — iteration stays O(live) and each
//! entry is moved O(1) amortized times over its queue lifetime.

use kdag::{TaskId, Work};

use crate::policy::ReadyTask;

/// Tombstone slack below which compaction is never triggered; keeps tiny
/// queues from compacting on every removal.
const MIN_COMPACT_SLACK: usize = 8;

/// One membership or remaining-work change to a [`ReadyQueue`], recorded in
/// the queue's change-journal.
///
/// Policies that maintain incremental per-candidate state (the indexed MQB
/// selection path) subscribe to the journal instead of re-snapshotting the
/// queue every epoch: they remember how far into [`ReadyQueue::journal`]
/// they have read (together with [`ReadyQueue::journal_gen`], which detects
/// truncation) and replay only the suffix. Compaction is *not* journaled —
/// it moves slots, never membership — so journal consumers must key their
/// state by task, not by slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueEvent {
    /// A candidate entered the queue (task release, or a preempted task
    /// re-queued by the engine).
    Pushed(ReadyTask),
    /// A candidate left the queue (started non-preemptively, completed, or
    /// unqueued by the engine).
    Removed(TaskId),
    /// A queued candidate's remaining work changed (preemptive progress).
    Updated {
        /// The task whose queue entry changed.
        id: TaskId,
        /// Its new remaining work.
        remaining: Work,
    },
}

/// One type's candidate queue: arrival-ordered storage with tombstoned
/// removal, bitmap liveness, and amortized compaction.
///
/// Policies read it through [`len`](ReadyQueue::len),
/// [`iter`](ReadyQueue::iter), [`first`](ReadyQueue::first),
/// [`collect_into`](ReadyQueue::collect_into) and
/// [`select_ranks`](ReadyQueue::select_ranks); mutation is reserved to the
/// simulator state (`crate`-internal).
#[derive(Clone, Debug, Default)]
pub struct ReadyQueue {
    entries: Vec<ReadyTask>,
    /// Liveness bitmap: bit `s & 63` of word `s >> 6` is set iff slot `s`
    /// holds a live candidate. Bits past `entries.len()` are always clear.
    live: Vec<u64>,
    live_count: usize,
    journal: Vec<QueueEvent>,
    journal_gen: u64,
}

/// Word-skipping iterator over the live candidates of a [`ReadyQueue`], in
/// arrival order.
pub struct QueueIter<'a> {
    entries: &'a [ReadyTask],
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl<'a> Iterator for QueueIter<'a> {
    type Item = &'a ReadyTask;

    #[inline]
    fn next(&mut self) -> Option<&'a ReadyTask> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(&self.entries[(self.wi << 6) | b]);
            }
            self.wi += 1;
            if self.wi >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.wi];
        }
    }
}

impl ReadyQueue {
    /// An empty queue.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Builds a queue holding `tasks` in the given (arrival) order.
    ///
    /// Intended for tests and benchmarks that construct an
    /// [`crate::policy::EpochView`] by hand.
    pub fn from_tasks(tasks: Vec<ReadyTask>) -> Self {
        let n = tasks.len();
        let mut live = vec![!0u64; n.div_ceil(64)];
        if n & 63 != 0 {
            if let Some(last) = live.last_mut() {
                *last = (1u64 << (n & 63)) - 1;
            }
        }
        ReadyQueue {
            entries: tasks,
            live,
            live_count: n,
            ..ReadyQueue::default()
        }
    }

    #[inline]
    fn is_live(&self, slot: usize) -> bool {
        self.live[slot >> 6] & (1u64 << (slot & 63)) != 0
    }

    /// The change-journal: every membership/remaining change since the last
    /// [`journal_gen`](Self::journal_gen) bump, in application order.
    ///
    /// The engine truncates the journal once per epoch, after policies have
    /// consumed it; hand-built queues (tests) never truncate, so consumers
    /// must tolerate an ever-growing journal.
    #[inline]
    pub fn journal(&self) -> &[QueueEvent] {
        &self.journal
    }

    /// Generation counter for the journal: bumped every time the journal is
    /// truncated. A consumer that remembers `(journal_gen, offset)` replays
    /// `journal()[offset..]` when the generation still matches, and
    /// `journal()[0..]` when it advanced.
    #[inline]
    pub fn journal_gen(&self) -> u64 {
        self.journal_gen
    }

    /// Truncates the journal and bumps the generation (capacity retained).
    pub(crate) fn clear_journal(&mut self) {
        self.journal.clear();
        self.journal_gen += 1;
    }

    /// Number of live candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// `true` when no candidate is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Iterates the live candidates in arrival order, skipping tombstones a
    /// word at a time.
    #[inline]
    pub fn iter(&self) -> QueueIter<'_> {
        QueueIter {
            entries: &self.entries,
            words: &self.live,
            wi: 0,
            cur: self.live.first().copied().unwrap_or(0),
        }
    }

    /// The earliest-arrived live candidate, if any.
    #[inline]
    pub fn first(&self) -> Option<&ReadyTask> {
        self.iter().next()
    }

    /// Visits the live candidates at the given arrival-order *ranks* (0 =
    /// earliest live candidate), calling `emit(i, task)` for `ranks[i]`.
    ///
    /// `ranks` must be strictly increasing and every rank must be `<`
    /// [`len`](Self::len). A single pass over the liveness bitmap skips
    /// whole words by popcount, so a batch of `p` lookups costs
    /// O(live/64 + p) instead of `p` independent O(live) scans — this is
    /// what lets sampling policies (KGreedy's random picks) touch only
    /// their chosen candidates rather than snapshotting the queue.
    pub fn select_ranks(&self, ranks: &[u32], mut emit: impl FnMut(usize, &ReadyTask)) {
        let mut ri = 0usize;
        let mut passed = 0u32;
        for (wi, &w) in self.live.iter().enumerate() {
            if ri >= ranks.len() {
                break;
            }
            let pc = w.count_ones();
            if passed + pc <= ranks[ri] {
                passed += pc;
                continue;
            }
            let mut bits = w;
            let mut rank = passed;
            while bits != 0 && ri < ranks.len() {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if rank == ranks[ri] {
                    emit(ri, &self.entries[(wi << 6) | b]);
                    ri += 1;
                }
                rank += 1;
            }
            passed += pc;
        }
        debug_assert_eq!(ri, ranks.len(), "a requested rank exceeds the live count");
    }

    /// Clears `buf` and fills it with the live candidates in arrival order.
    ///
    /// Policies that need random access to the queue (index-based selection)
    /// snapshot it through this once per epoch instead of paying a tombstone
    /// skip per access.
    pub fn collect_into(&self, buf: &mut Vec<ReadyTask>) {
        buf.clear();
        buf.extend(self.iter().copied());
    }

    /// Empties the queue in place, retaining allocated capacity (the
    /// workspace-reuse path).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.live.clear();
        self.live_count = 0;
        self.clear_journal();
    }

    /// Appends a candidate, returning its slot for the position map.
    pub(crate) fn push(&mut self, rt: ReadyTask) -> usize {
        let slot = self.entries.len();
        self.entries.push(rt);
        if slot >> 6 >= self.live.len() {
            self.live.push(0);
        }
        self.live[slot >> 6] |= 1u64 << (slot & 63);
        self.live_count += 1;
        self.journal.push(QueueEvent::Pushed(rt));
        slot
    }

    /// Tombstones `slot` and returns its candidate. O(1); storage is
    /// reclaimed later by [`compact`](Self::compact).
    pub(crate) fn remove_slot(&mut self, slot: usize) -> ReadyTask {
        debug_assert!(self.is_live(slot), "slot {slot} already tombstoned");
        self.live[slot >> 6] &= !(1u64 << (slot & 63));
        self.live_count -= 1;
        self.journal
            .push(QueueEvent::Removed(self.entries[slot].id));
        self.entries[slot]
    }

    /// Subtracts `dt` from the remaining work of the (live) candidate at
    /// `slot`, journaling the update; returns the new remaining work.
    pub(crate) fn progress_slot(&mut self, slot: usize, dt: Work) -> Work {
        debug_assert!(self.is_live(slot), "slot {slot} is tombstoned");
        let rt = &mut self.entries[slot];
        assert!(
            rt.remaining >= dt,
            "task {} overran its remaining work",
            rt.id
        );
        rt.remaining -= dt;
        let remaining = rt.remaining;
        self.journal.push(QueueEvent::Updated {
            id: rt.id,
            remaining,
        });
        remaining
    }

    /// Remaining work of the (live) candidate at `slot`.
    #[inline]
    pub(crate) fn remaining_at(&self, slot: usize) -> Work {
        debug_assert!(self.is_live(slot), "slot {slot} is tombstoned");
        self.entries[slot].remaining
    }

    /// Number of tombstoned slots awaiting compaction.
    #[inline]
    pub(crate) fn dead(&self) -> usize {
        self.entries.len() - self.live_count
    }

    /// `true` once enough tombstones accumulated to amortize a compaction.
    #[inline]
    pub(crate) fn needs_compaction(&self) -> bool {
        self.dead() >= self.live_count.max(MIN_COMPACT_SLACK)
    }

    /// Drops all tombstones, preserving arrival order. Calls
    /// `on_move(task, new_slot)` for every surviving candidate so the owner
    /// can fix its position map.
    pub(crate) fn compact(&mut self, mut on_move: impl FnMut(TaskId, usize)) {
        let mut w = 0usize;
        for r in 0..self.entries.len() {
            if self.is_live(r) {
                self.entries[w] = self.entries[r];
                on_move(self.entries[w].id, w);
                w += 1;
            }
        }
        self.entries.truncate(w);
        self.live.truncate(w.div_ceil(64));
        self.live.fill(!0);
        if w & 63 != 0 {
            if let Some(last) = self.live.last_mut() {
                *last = (1u64 << (w & 63)) - 1;
            }
        }
    }

    /// Order-preserving removal with immediate storage reclamation — the
    /// pre-indexed behaviour, kept for the [`crate::reference`] engine (its
    /// state holds no position map, so shifted slots are harmless).
    pub(crate) fn scan_remove(&mut self, id: TaskId) -> Option<ReadyTask> {
        let at = (0..self.entries.len()).find(|&i| self.is_live(i) && self.entries[i].id == id)?;
        let rt = self.remove_slot(at);
        // Reclaim eagerly: the reference engine expects `Vec::remove`
        // semantics (no tombstones). Compaction is not journaled.
        self.compact(|_, _| {});
        Some(rt)
    }

    /// Linear-scan lookup (reference engine).
    pub(crate) fn scan_find(&self, id: TaskId) -> Option<&ReadyTask> {
        self.iter().find(|rt| rt.id == id)
    }

    /// Linear-scan progress (reference engine): subtracts `dt` from `id`'s
    /// remaining work, journaling the update; returns the new remaining
    /// work, or `None` when `id` is not queued.
    pub(crate) fn scan_progress(&mut self, id: TaskId, dt: Work) -> Option<Work> {
        let at = (0..self.entries.len()).find(|&i| self.is_live(i) && self.entries[i].id == id)?;
        Some(self.progress_slot(at, dt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::Work;

    fn rt(i: usize, seq: u64, rem: Work) -> ReadyTask {
        ReadyTask {
            id: TaskId::from_index(i),
            seq,
            remaining: rem,
        }
    }

    #[test]
    fn iteration_skips_tombstones_in_arrival_order() {
        let mut q = ReadyQueue::from_tasks(vec![rt(0, 0, 1), rt(1, 1, 1), rt(2, 2, 1)]);
        let removed = q.remove_slot(1);
        assert_eq!(removed.id, TaskId::from_index(1));
        assert_eq!(q.len(), 2);
        let ids: Vec<usize> = q.iter().map(|r| r.id.index()).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(q.first().unwrap().id.index(), 0);
    }

    #[test]
    fn iteration_crosses_bitmap_word_boundaries() {
        // 130 entries spans three bitmap words; tombstone a prefix band and
        // both word boundaries to exercise the word-skipping iterator.
        let n = 130;
        let mut q = ReadyQueue::from_tasks((0..n).map(|i| rt(i, i as u64, 1)).collect());
        for i in (0..64).chain([64, 127, 128]) {
            q.remove_slot(i);
        }
        let ids: Vec<usize> = q.iter().map(|r| r.id.index()).collect();
        let expect: Vec<usize> = (65..127).chain([129]).collect();
        assert_eq!(ids, expect);
        assert_eq!(q.len(), expect.len());
        assert_eq!(q.first().unwrap().id.index(), 65);
    }

    #[test]
    fn select_ranks_visits_exactly_the_requested_live_ranks() {
        let n = 200;
        let mut q = ReadyQueue::from_tasks((0..n).map(|i| rt(i, i as u64, 1)).collect());
        // Tombstone every third slot so live ranks diverge from slots.
        for i in (0..n).step_by(3) {
            q.remove_slot(i);
        }
        let live: Vec<usize> = q.iter().map(|r| r.id.index()).collect();
        let ranks: Vec<u32> = vec![0, 1, 7, 63, 64, live.len() as u32 - 1];
        let mut got = vec![usize::MAX; ranks.len()];
        q.select_ranks(&ranks, |i, rt| got[i] = rt.id.index());
        let expect: Vec<usize> = ranks.iter().map(|&r| live[r as usize]).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn compaction_preserves_order_and_reports_new_slots() {
        let mut q = ReadyQueue::from_tasks((0..6).map(|i| rt(i, i as u64, 1)).collect());
        q.remove_slot(0);
        q.remove_slot(2);
        q.remove_slot(4);
        let mut moves = Vec::new();
        q.compact(|id, slot| moves.push((id.index(), slot)));
        assert_eq!(moves, vec![(1, 0), (3, 1), (5, 2)]);
        assert_eq!(q.dead(), 0);
        let ids: Vec<usize> = q.iter().map(|r| r.id.index()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn compaction_threshold_requires_minimum_slack() {
        let mut q = ReadyQueue::from_tasks((0..4).map(|i| rt(i, i as u64, 1)).collect());
        q.remove_slot(0);
        q.remove_slot(1);
        q.remove_slot(2);
        // 3 dead, 1 live: under MIN_COMPACT_SLACK, no compaction yet.
        assert!(!q.needs_compaction());
    }

    #[test]
    fn scan_remove_matches_vec_remove_semantics() {
        let mut q = ReadyQueue::from_tasks(vec![rt(0, 0, 1), rt(1, 1, 2), rt(2, 2, 3)]);
        assert!(q.scan_remove(TaskId::from_index(9)).is_none());
        let got = q.scan_remove(TaskId::from_index(1)).unwrap();
        assert_eq!(got.remaining, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.dead(), 0, "scan removal reclaims eagerly; no tombstones");
        assert_eq!(q.scan_find(TaskId::from_index(2)).unwrap().remaining, 3);
        assert_eq!(q.scan_progress(TaskId::from_index(2), 1), Some(2));
        assert_eq!(q.scan_find(TaskId::from_index(2)).unwrap().remaining, 2);
        assert_eq!(q.scan_progress(TaskId::from_index(9), 1), None);
    }

    #[test]
    fn journal_records_membership_and_progress_in_order() {
        let mut q = ReadyQueue::new();
        assert_eq!(q.journal_gen(), 0);
        let s0 = q.push(rt(0, 0, 4));
        q.push(rt(1, 1, 2));
        q.progress_slot(s0, 1);
        q.remove_slot(s0);
        q.scan_remove(TaskId::from_index(1));
        assert_eq!(
            q.journal(),
            &[
                QueueEvent::Pushed(rt(0, 0, 4)),
                QueueEvent::Pushed(rt(1, 1, 2)),
                QueueEvent::Updated {
                    id: TaskId::from_index(0),
                    remaining: 3
                },
                QueueEvent::Removed(TaskId::from_index(0)),
                QueueEvent::Removed(TaskId::from_index(1)),
            ]
        );
        q.clear_journal();
        assert!(q.journal().is_empty());
        assert_eq!(q.journal_gen(), 1);
        // Compaction moves slots but not membership: nothing journaled.
        q.compact(|_, _| {});
        assert!(q.journal().is_empty());
        // Full clears bump the generation so stale cursors can't alias.
        q.clear();
        assert_eq!(q.journal_gen(), 2);
    }

    #[test]
    fn collect_into_reuses_buffer() {
        let mut q = ReadyQueue::from_tasks(vec![rt(0, 0, 1), rt(1, 1, 1)]);
        q.remove_slot(0);
        let mut buf = vec![rt(9, 9, 9)];
        q.collect_into(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].id.index(), 1);
    }
}
