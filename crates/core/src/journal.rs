//! The queue change-journal replay protocol shared by the incremental
//! selection indexes (MQB's dominance index, the ranked policies' key
//! indexes; DESIGN.md §14, §7.1).
//!
//! A consumer keeps one [`Cursor`] per queue — how far into the queue's
//! journal it has read — and replays only the suffix each epoch. The
//! engine truncates a journal right after the owning job's policy was
//! consulted, bumping its generation, so a generation change means "replay
//! from the start". A view the journal cannot explain (hand-built in
//! tests) shows up as a live-count mismatch, which the consumer answers
//! with a cold rebuild.

use fhs_sim::{QueueEvent, ReadyQueue, ReadyTask};
use kdag::Work;

/// One type's incremental index over a ready queue's candidates, as seen
/// by [`Cursor::replay`].
pub(crate) trait JournalIndex {
    /// Whether the index holds task `t`; `Removed` and `Updated` events
    /// for tasks it does not hold are skipped.
    fn contains(&self, t: usize) -> bool;
    /// Indexes a candidate that entered the queue.
    fn insert(&mut self, rt: ReadyTask);
    /// Drops indexed task `t`.
    fn remove(&mut self, t: usize);
    /// Indexed task `t`'s remaining work changed to `remaining`.
    fn update(&mut self, t: usize, remaining: Work);
    /// Number of indexed candidates.
    fn live(&self) -> usize;
}

/// How far into one queue's change-journal an index has replayed:
/// `(journal_gen, offset)`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Cursor {
    gen: u64,
    offset: usize,
}

impl Cursor {
    /// Marks all of `q`'s journal as read (after a cold build from a
    /// snapshot of `q`).
    pub(crate) fn seek_end(&mut self, q: &ReadyQueue) {
        *self = Cursor {
            gen: q.journal_gen(),
            offset: q.journal().len(),
        };
    }

    /// Replays the events `q` journaled since the cursor into `ix`, adds
    /// their number to `diff_events`, and advances the cursor.
    ///
    /// `Removed` and `Updated` skip tasks the index does not hold (an
    /// index may drop its own picks ahead of the journal). Returns `false`
    /// when the index does not account for the queue afterwards — its live
    /// count differs from the queue's — so it must be rebuilt cold.
    pub(crate) fn replay(
        &mut self,
        q: &ReadyQueue,
        ix: &mut impl JournalIndex,
        diff_events: &mut u64,
    ) -> bool {
        let start = if q.journal_gen() == self.gen {
            self.offset
        } else {
            0
        };
        let events = &q.journal()[start..];
        *diff_events += events.len() as u64;
        for ev in events {
            match *ev {
                QueueEvent::Pushed(rt) => ix.insert(rt),
                QueueEvent::Removed(id) => {
                    if ix.contains(id.index()) {
                        ix.remove(id.index());
                    }
                }
                QueueEvent::Updated { id, remaining } => {
                    if ix.contains(id.index()) {
                        ix.update(id.index(), remaining);
                    }
                }
            }
        }
        self.seek_end(q);
        ix.live() == q.len()
    }
}
