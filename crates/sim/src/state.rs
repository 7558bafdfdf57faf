//! Mutable execution state of one job run, shared by both engines.

use kdag::{KDag, TaskId, Work};

use crate::instrument::TransitionCounts;
use crate::policy::ReadyTask;
use crate::ready_queue::ReadyQueue;

/// Lifecycle of a task during simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// Not all parents have completed.
    Blocked,
    /// Released: all parents done, the task sits in its type's queue.
    /// Under preemptive execution a task stays `Ready` while running (it is
    /// a re-selectable candidate every epoch).
    Ready,
    /// Started on a processor (non-preemptive engine only).
    Running,
    /// Completed.
    Done,
}

/// Queues, statuses, and dependency counters for one run. Reusable across
/// runs via [`reset`](JobState::reset), which re-initializes in place and
/// retains allocated capacity (the steady-state path of
/// [`crate::workspace::Workspace`]).
///
/// The per-type queues are kept in arrival order (monotonic `seq`), so FIFO
/// policies can dispatch by prefix and every policy sees a deterministic
/// ordering. A dense task→slot position map (`pos`) indexes every `Ready`
/// task's queue entry, making [`start`](JobState::start),
/// [`complete_obs`](JobState::complete_obs), [`progress`](JobState::progress) and
/// [`remaining`](JobState::remaining) O(1) amortized — removal tombstones
/// the slot and an amortized compaction pass (see [`ReadyQueue`]) reclaims
/// storage without disturbing arrival order.
///
/// The per-task records are a structure-of-arrays *hot band* sized to what
/// the epoch loop touches: one packed `word` per task (status in the low 2
/// bits, resource type above — one load answers both questions the engine
/// asks on every transition, with no `KDag` indirection). A queued task's
/// remaining work lives only in its queue entry, which is authoritative
/// while the task is `Ready`; [`remaining`](JobState::remaining) reads it
/// through `pos`. A `ready_mask` summarizes per-type queue non-emptiness
/// for the session engine's dirty-set skip.
#[derive(Debug)]
pub struct JobState {
    /// Hot per-task word: bits 0–1 hold the status code, bits 2+ the
    /// resource type.
    word: Vec<u32>,
    indeg: Vec<u32>,
    queues: Vec<ReadyQueue>,
    queue_work: Vec<Work>,
    /// Slot of each task in its type's queue; valid only while `Ready`.
    pos: Vec<u32>,
    /// Bit `α` set iff `queues[α]` is non-empty (maintained for `α` < 128;
    /// machines with more types fall back to scanning the queues).
    ready_mask: u128,
    next_seq: u32,
    done: usize,
    counts: TransitionCounts,
}

/// Status codes packed into the low 2 bits of [`JobState`]'s task word.
const ST_BLOCKED: u32 = 0;
const ST_READY: u32 = 1;
const ST_RUNNING: u32 = 2;
const ST_DONE: u32 = 3;

#[inline]
fn decode_status(code: u32) -> TaskStatus {
    match code {
        ST_BLOCKED => TaskStatus::Blocked,
        ST_READY => TaskStatus::Ready,
        ST_RUNNING => TaskStatus::Running,
        _ => TaskStatus::Done,
    }
}

impl JobState {
    /// Initializes the state and releases the roots (at seq 0, 1, … in id
    /// order).
    pub fn new(job: &KDag) -> Self {
        let mut s = JobState::empty();
        s.reset(job);
        s
    }

    /// A zero-capacity state for workspace construction; must be
    /// [`reset`](JobState::reset) before use.
    pub(crate) fn empty() -> Self {
        JobState {
            word: Vec::new(),
            indeg: Vec::new(),
            queues: Vec::new(),
            queue_work: Vec::new(),
            pos: Vec::new(),
            ready_mask: 0,
            next_seq: 0,
            done: 0,
            counts: TransitionCounts::default(),
        }
    }
}

impl Default for JobState {
    /// A zero-capacity state (as `JobState::empty`); must be
    /// [`reset`](JobState::reset) before use.
    fn default() -> Self {
        JobState::empty()
    }
}

impl JobState {
    /// Re-initializes for `job` in place, retaining allocated capacity, and
    /// releases the roots — observationally identical to a fresh
    /// [`new`](JobState::new) (property-tested via workspace reuse).
    pub fn reset(&mut self, job: &KDag) {
        let n = job.num_tasks();
        let k = job.num_types();
        self.word.clear();
        self.word
            .extend((0..n).map(|i| (job.rtype(TaskId::from_index(i)) as u32) << 2));
        self.ready_mask = 0;
        self.indeg.clear();
        self.indeg
            .extend((0..n).map(|i| job.num_parents(TaskId::from_index(i)) as u32));
        for q in &mut self.queues {
            q.clear();
        }
        self.queues.truncate(k);
        self.queues.resize_with(k, ReadyQueue::new);
        self.queue_work.clear();
        self.queue_work.resize(k, 0);
        self.pos.clear();
        self.pos.resize(n, 0);
        self.next_seq = 0;
        self.done = 0;
        self.counts = TransitionCounts::default();
        for v in job.roots() {
            self.release(job, v);
        }
    }

    /// Number of completed tasks.
    #[inline]
    pub fn done_count(&self) -> usize {
        self.done
    }

    /// `true` when every task of `job` has completed.
    #[inline]
    pub fn all_done(&self, job: &KDag) -> bool {
        self.done == job.num_tasks()
    }

    /// Current status of `v`.
    #[inline]
    pub fn status(&self, v: TaskId) -> TaskStatus {
        decode_status(self.word[v.index()] & 3)
    }

    /// Resource type of `v`, read from the hot task word (no `KDag`
    /// indirection).
    #[inline]
    pub fn rtype_of(&self, v: TaskId) -> usize {
        (self.word[v.index()] >> 2) as usize
    }

    /// Per-type queue non-emptiness, bit `α` set iff `queues[α]` has a
    /// candidate. Only the low 128 types are tracked; engines on larger
    /// machines must scan the queues instead.
    #[inline]
    pub(crate) fn ready_mask(&self) -> u128 {
        self.ready_mask
    }

    /// Folds `n` synthesized progress updates into the transition counters
    /// (the session engine's epoch fast-forward replays the counters of the
    /// epochs it skips).
    pub(crate) fn add_progress_updates(&mut self, n: u64) {
        self.counts.progress_updates += n;
    }

    /// The per-type candidate queues, arrival-ordered.
    #[inline]
    pub fn queues(&self) -> &[ReadyQueue] {
        &self.queues
    }

    /// Total remaining work per queue (`l_α`).
    #[inline]
    pub fn queue_work(&self) -> &[Work] {
        &self.queue_work
    }

    /// State-transition counters accumulated so far (see
    /// [`TransitionCounts`]).
    #[inline]
    pub fn transition_counts(&self) -> TransitionCounts {
        self.counts
    }

    /// Releases `v` into its queue with the next arrival sequence number.
    fn release(&mut self, job: &KDag, v: TaskId) {
        let i = v.index();
        debug_assert_eq!(self.word[i] & 3, ST_BLOCKED);
        self.word[i] |= ST_READY;
        let alpha = (self.word[i] >> 2) as usize;
        let w = job.work(v);
        let slot = self.queues[alpha].push(ReadyTask {
            id: v,
            seq: self.next_seq,
            remaining: w,
        });
        self.pos[i] = slot as u32;
        self.queue_work[alpha] += w;
        if alpha < 128 {
            self.ready_mask |= 1u128 << alpha;
        }
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("a run releases fewer than 2^32 tasks");
        self.counts.releases += 1;
        let depth = self.queues[alpha].len();
        if depth > self.counts.peak_queue_depth {
            self.counts.peak_queue_depth = depth;
        }
    }

    /// Tombstones `v`'s queue entry via the position map and compacts the
    /// queue if enough dead slots accumulated.
    fn unqueue(&mut self, v: TaskId) -> ReadyTask {
        let alpha = self.rtype_of(v);
        let rt = self.queues[alpha].remove_slot(self.pos[v.index()] as usize);
        self.queue_work[alpha] -= rt.remaining;
        if self.queues[alpha].is_empty() && alpha < 128 {
            self.ready_mask &= !(1u128 << alpha);
        }
        if self.queues[alpha].needs_compaction() {
            let pos = &mut self.pos;
            self.queues[alpha].compact(|id, slot| pos[id.index()] = slot as u32);
        }
        rt
    }

    /// Non-preemptive start: moves `v` from `Ready` to `Running`, removing
    /// it from its queue. Returns the task's (full) remaining work.
    ///
    /// # Panics
    /// If `v` is not currently `Ready` — this is how the engine rejects
    /// invalid policy selections.
    pub fn start(&mut self, job: &KDag, v: TaskId) -> Work {
        debug_assert_eq!(self.rtype_of(v), job.rtype(v));
        let i = v.index();
        assert_eq!(
            self.word[i] & 3,
            ST_READY,
            "policy selected task {v} which is not ready"
        );
        self.word[i] = (self.word[i] & !3) | ST_RUNNING;
        let rt = self.unqueue(v);
        self.counts.starts += 1;
        rt.remaining
    }

    /// Marks `v` complete and releases any children whose last dependency
    /// this was. Newly released children are appended to their queues,
    /// and each is reported to `obs` (stamped with sim time `t` and
    /// `epoch`). The recorder is write-only: state transitions are the
    /// same with or without it.
    pub fn complete_obs(
        &mut self,
        job: &KDag,
        v: TaskId,
        t: u64,
        epoch: u64,
        mut obs: Option<&mut fhs_obs::Recorder>,
    ) {
        let i = v.index();
        let st = self.word[i] & 3;
        assert!(
            st == ST_RUNNING || st == ST_READY,
            "completing task {v} in status {:?}",
            decode_status(st)
        );
        if st == ST_READY {
            // Preemptive completion: still queued; drop the entry.
            self.unqueue(v);
        }
        self.word[i] |= ST_DONE;
        self.done += 1;
        self.counts.completions += 1;
        for &c in job.children(v) {
            self.indeg[c.index()] -= 1;
            if self.indeg[c.index()] == 0 {
                self.release(job, c);
                if let Some(o) = obs.as_deref_mut() {
                    o.release(t, epoch, c.index() as u32, job.rtype(c));
                }
            }
        }
    }

    /// Preemptive progress: subtracts `dt` from the queued remaining work
    /// of `v`. Returns the new remaining work.
    ///
    /// # Panics
    /// If `v` is not `Ready`, or `dt` exceeds its remaining work.
    pub fn progress(&mut self, job: &KDag, v: TaskId, dt: Work) -> Work {
        debug_assert_eq!(self.rtype_of(v), job.rtype(v));
        let i = v.index();
        assert_eq!(
            self.word[i] & 3,
            ST_READY,
            "progressing task {v} which is not a candidate"
        );
        let alpha = (self.word[i] >> 2) as usize;
        let rem = self.queues[alpha].progress_slot(self.pos[i] as usize, dt);
        self.queue_work[alpha] -= dt;
        self.counts.progress_updates += 1;
        rem
    }

    /// Truncates every queue's change-journal (and bumps its generation),
    /// once per epoch after policies have consumed the diffs.
    pub fn clear_journals(&mut self) {
        for q in &mut self.queues {
            q.clear_journal();
        }
    }

    /// Remaining work of a queued candidate (preemptive engines), read
    /// from its queue entry through `pos`: the entry is the one copy of a
    /// `Ready` task's remaining work.
    pub fn remaining(&self, job: &KDag, v: TaskId) -> Option<Work> {
        debug_assert_eq!(self.rtype_of(v), job.rtype(v));
        let i = v.index();
        let word = self.word[i];
        if word & 3 != ST_READY {
            return None;
        }
        Some(self.queues[(word >> 2) as usize].remaining_at(self.pos[i] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdag::KDagBuilder;

    fn chain() -> (KDag, Vec<TaskId>) {
        let mut b = KDagBuilder::new(2);
        let ids = vec![b.add_task(0, 2), b.add_task(1, 3), b.add_task(0, 1)];
        b.add_edge(ids[0], ids[1]).unwrap();
        b.add_edge(ids[1], ids[2]).unwrap();
        (b.build().unwrap(), ids)
    }

    #[test]
    fn roots_are_released_at_construction() {
        let (job, ids) = chain();
        let s = JobState::new(&job);
        assert_eq!(s.status(ids[0]), TaskStatus::Ready);
        assert_eq!(s.status(ids[1]), TaskStatus::Blocked);
        assert_eq!(s.queues()[0].len(), 1);
        assert_eq!(s.queue_work(), &[2, 0]);
    }

    #[test]
    fn start_complete_releases_children_in_order() {
        let (job, ids) = chain();
        let mut s = JobState::new(&job);
        let rem = s.start(&job, ids[0]);
        assert_eq!(rem, 2);
        assert_eq!(s.queue_work(), &[0, 0]);
        s.complete_obs(&job, ids[0], 0, 0, None);
        assert_eq!(s.status(ids[1]), TaskStatus::Ready);
        assert_eq!(s.queue_work(), &[0, 3]);
        s.start(&job, ids[1]);
        s.complete_obs(&job, ids[1], 0, 0, None);
        s.start(&job, ids[2]);
        s.complete_obs(&job, ids[2], 0, 0, None);
        assert!(s.all_done(&job));
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn starting_blocked_task_panics() {
        let (job, ids) = chain();
        let mut s = JobState::new(&job);
        s.start(&job, ids[1]);
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn double_start_panics() {
        let (job, ids) = chain();
        let mut s = JobState::new(&job);
        s.start(&job, ids[0]);
        s.start(&job, ids[0]);
    }

    #[test]
    fn preemptive_progress_and_complete_from_queue() {
        let (job, ids) = chain();
        let mut s = JobState::new(&job);
        assert_eq!(s.progress(&job, ids[0], 1), 1);
        assert_eq!(s.queue_work(), &[1, 0]);
        assert_eq!(s.remaining(&job, ids[0]), Some(1));
        assert_eq!(s.progress(&job, ids[0], 1), 0);
        s.complete_obs(&job, ids[0], 0, 0, None); // completes directly from Ready
        assert_eq!(s.status(ids[0]), TaskStatus::Done);
        assert_eq!(s.status(ids[1]), TaskStatus::Ready);
    }

    #[test]
    fn seq_numbers_are_monotonic_across_releases() {
        // Two roots then a join child: child's seq must be larger.
        let mut b = KDagBuilder::new(1);
        let a = b.add_task(0, 1);
        let c = b.add_task(0, 1);
        let j = b.add_task(0, 1);
        b.add_edge(a, j).unwrap();
        b.add_edge(c, j).unwrap();
        let job = b.build().unwrap();
        let mut s = JobState::new(&job);
        let root_seqs: Vec<u32> = s.queues()[0].iter().map(|rt| rt.seq).collect();
        assert_eq!(root_seqs, vec![0, 1]);
        s.start(&job, a);
        s.complete_obs(&job, a, 0, 0, None);
        s.start(&job, c);
        s.complete_obs(&job, c, 0, 0, None);
        assert_eq!(s.queues()[0].first().unwrap().seq, 2);
    }

    #[test]
    fn scattered_removals_survive_compaction() {
        // 40 independent tasks; start every third one in scattered order,
        // forcing tombstones past the compaction threshold, then verify the
        // survivors iterate in arrival order and remain operable through
        // the (relocated) position map.
        let mut b = KDagBuilder::new(1);
        let ids: Vec<TaskId> = (0..40).map(|_| b.add_task(0, 5)).collect();
        let job = b.build().unwrap();
        let mut s = JobState::new(&job);
        let mut started = Vec::new();
        for (i, &v) in ids.iter().enumerate() {
            if i % 3 == 0 {
                s.start(&job, v);
                started.push(v);
            }
        }
        let expect: Vec<usize> = (0..40).filter(|i| i % 3 != 0).collect();
        let got: Vec<usize> = s.queues()[0].iter().map(|rt| rt.id.index()).collect();
        assert_eq!(got, expect);
        // Survivors still progress and complete via their slots.
        assert_eq!(s.progress(&job, ids[1], 2), 3);
        assert_eq!(s.remaining(&job, ids[1]), Some(3));
        s.complete_obs(&job, ids[1], 0, 0, None);
        assert_eq!(s.status(ids[1]), TaskStatus::Done);
        let total: Work = s.queues()[0].iter().map(|rt| rt.remaining).sum();
        assert_eq!(total, s.queue_work()[0]);
    }

    #[test]
    fn transition_counts_track_lifecycle() {
        let (job, ids) = chain();
        let mut s = JobState::new(&job);
        assert_eq!(s.transition_counts().releases, 1); // the root
        assert_eq!(s.transition_counts().peak_queue_depth, 1);
        s.start(&job, ids[0]);
        s.complete_obs(&job, ids[0], 0, 0, None);
        s.progress(&job, ids[1], 3);
        s.complete_obs(&job, ids[1], 0, 0, None);
        let c = s.transition_counts();
        assert_eq!(c.releases, 3);
        assert_eq!(c.starts, 1);
        assert_eq!(c.completions, 2);
        assert_eq!(c.progress_updates, 1);
    }
}
