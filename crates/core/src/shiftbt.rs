//! ShiftBT — a shifting-bottleneck adaptation for K-DAGs (paper §IV-B).
//!
//! The classical shifting-bottleneck procedure (Adams/Balas/Zawack 1988)
//! sequences job-shop machines one at a time, always fixing the machine
//! whose one-machine relaxation has the worst maximum lateness. The paper
//! adapts it to K-DAG scheduling:
//!
//! * Every task gets a **due date** `due(v) = T∞(J) − span(v)` — the
//!   latest start that cannot delay anything else.
//! * For each not-yet-fixed resource type `α`, a **relaxation** is
//!   simulated in which type `α` keeps its real `P_α` processors and
//!   dispatches by earliest due date (EDD), already-fixed types keep their
//!   processors and their fixed sequences, and all remaining types have
//!   infinitely many processors. The *lateness* of an `α`-task started at
//!   `s(v)` is `s(v) − due(v)`.
//! * The type with the maximum lateness — the current bottleneck — has its
//!   relaxation order frozen as its dispatch sequence; repeat until every
//!   type is sequenced.
//!
//! At run time each type dispatches ready tasks by their position in the
//! frozen sequence.
//!
//! # Incremental sequencing
//!
//! A literal implementation runs K(K+1)/2 full relaxation simulations
//! from scratch. The production path here (bit-identical to the retained
//! [`mod@reference`] loop, proptested) cuts that three ways:
//!
//! * **Cached relaxations.** A type's relaxation from an earlier round
//!   stays valid after type `β` is fixed as long as the cached simulation
//!   never ran more than `P_β` concurrent `β`-tasks: if the infinite
//!   capacity was never exercised past the real capacity, the
//!   finite-capacity re-simulation dispatches every ready `β`-task
//!   immediately too and the trajectories coincide by induction. Each
//!   cached entry records the peak per-type concurrency it observed and
//!   is invalidated only when the newly fixed type's peak exceeds its
//!   real processor count.
//! * **Lateness-bound early exit.** Once every target-type task has
//!   started, the relaxation's maximum lateness and start order are fully
//!   determined — the remaining simulation can only add zero — so the
//!   simulation stops there. Peaks are measured on the same truncated
//!   window, which keeps the invalidation rule sound: a still-valid cache
//!   replays the identical (truncated) trajectory.
//! * **Near-constant-time event machinery.** Types at infinite capacity
//!   can never wait, so their tasks start the instant they become ready
//!   and touch no queue at all. Finite-capacity types dispatch through a
//!   three-level bitset over *precomputed ranks* (the per-type EDD order
//!   is sorted once per sequencing; fixed types use their frozen
//!   sequence positions), so pop-min is a few word operations instead of
//!   a heap pop — and selects exactly the sorted prefix the reference's
//!   per-epoch full sort selects. Completion events live in a circular
//!   calendar with one bucket per instant of the job's largest work
//!   value (production work values are 1–2; a binary heap covers
//!   pathological jobs), each bucket sized by the largest batch it
//!   holds. The target's start order is recorded as tasks start, which
//!   is already the reference's sorted order. All of it sits in a
//!   `RelaxScratch` built for one sequencing call and reused across its
//!   rounds; it is dropped when the plan is stored, so no policy keeps
//!   relaxation state between runs.
//!
//! # One plan per instance
//!
//! The sequencing reads only the job, the processor counts and the due
//! dates — not the seed, not the mode. So the plan lives in the
//! instance's [`Artifacts`] bundle ([`Artifacts::sequence_plan`]): the
//! first ShiftBT init on a bundle computes it, and every column that
//! shares the bundle (the other mode, the quantum cadence) holds the
//! bundle's plan for its run and reads its ranks from there. The due
//! dates are read off the bundle's spans ([`DueDates`]); no due-date
//! table is built.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy, SelectionStats};
use kdag::duedate::DueDates;
use kdag::precompute::{Artifacts, SequencePlan};
use kdag::{KDag, TaskId};

use crate::ranked::Selector;

/// Shifting-bottleneck policy. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct ShiftBT {
    /// The bundle's sequencing plan, held for one run.
    plan: Option<Arc<SequencePlan>>,
    selector: Selector,
}

/// One cached one-type relaxation: the lateness and start order it
/// produced, plus the peak concurrency per type it observed (the
/// invalidation certificate).
#[derive(Clone, Debug, Default)]
struct CacheEntry {
    valid: bool,
    lateness: i64,
    seq: Vec<TaskId>,
    peaks: Vec<u32>,
}

/// Three-level hierarchical bitset over dense positions — the relaxation
/// dispatch queue. Dispatch priorities are precomputed *ranks* (EDD rank
/// for the target type, frozen-sequence rank for fixed types), so a
/// find-first-set over position bits replaces a binary heap: insert and
/// pop-min are a handful of word operations regardless of queue size.
/// Covers up to 64³ positions per summary word of the top level.
#[derive(Clone, Debug, Default)]
struct MinPosSet {
    l0: Vec<u64>,
    l1: Vec<u64>,
    l2: Vec<u64>,
}

impl MinPosSet {
    /// Sizes for `m` positions and clears. Never shrinks.
    fn reset(&mut self, m: usize) {
        let w0 = m.div_ceil(64).max(1);
        let w1 = w0.div_ceil(64);
        let w2 = w1.div_ceil(64);
        self.l0.clear();
        self.l0.resize(w0, 0);
        self.l1.clear();
        self.l1.resize(w1, 0);
        self.l2.clear();
        self.l2.resize(w2, 0);
    }

    #[inline]
    fn insert(&mut self, pos: usize) {
        self.l0[pos >> 6] |= 1 << (pos & 63);
        self.l1[pos >> 12] |= 1 << ((pos >> 6) & 63);
        self.l2[pos >> 18] |= 1 << ((pos >> 12) & 63);
    }

    /// The index and bits of the lowest nonzero `l0` word, if any.
    /// Consumers take bits in ascending order from the returned word and
    /// write the remainder back with [`MinPosSet::set_word`], amortizing
    /// one hierarchy descent over up to 64 pops.
    #[inline]
    fn lowest_word(&self) -> Option<(usize, u64)> {
        let w2 = self.l2.iter().position(|&w| w != 0)?;
        let b2 = self.l2[w2].trailing_zeros() as usize;
        let i1 = (w2 << 6) | b2;
        let b1 = self.l1[i1].trailing_zeros() as usize;
        let i0 = (i1 << 6) | b1;
        Some((i0, self.l0[i0]))
    }

    /// Stores back a partially consumed `l0` word, propagating clears to
    /// the summary levels when it empties.
    #[inline]
    fn set_word(&mut self, i0: usize, w: u64) {
        self.l0[i0] = w;
        if w == 0 {
            let i1 = i0 >> 6;
            self.l1[i1] &= !(1u64 << (i0 & 63));
            if self.l1[i1] == 0 {
                self.l2[i1 >> 6] &= !(1u64 << (i1 & 63));
            }
        }
    }
}

/// Completion-event queue. Every task's work is at least 1, so every
/// pending finish time lies in `[now + 1, now + max_work]`: with the small
/// work values every production workload uses (see
/// `fhs_workloads::WORK_RANGE`) a circular calendar of `> max_work`
/// buckets gives O(1) push and O(max_work) advance; jobs with larger work
/// values fall back to a binary heap.
///
/// A bucket holds the tasks finishing at one instant, in push order, and
/// grows to the largest such batch it ever holds. Within one completion
/// instant the cascade's arithmetic is commutative (busy counts,
/// indegrees, ready-set inserts), so batch order never affects the
/// relaxation's outputs.
#[derive(Debug)]
struct Completions {
    /// Power-of-two circular calendar: `buckets[t & mask]` holds the
    /// tasks finishing at `t`. Empty on the heap path.
    buckets: Vec<Vec<TaskId>>,
    mask: u64,
    pending: usize,
    /// The heap path, for work values of `RING_SLOTS` and beyond.
    heap: Option<BinaryHeap<Reverse<(u64, TaskId)>>>,
    /// The heap path's batch buffer.
    batch: Vec<TaskId>,
}

/// Largest bucket count served by the calendar path.
const RING_SLOTS: usize = 8;

impl Completions {
    /// An empty queue, on the calendar path when `max_work` allows.
    fn new(max_work: u64) -> Self {
        let calendar = max_work < RING_SLOTS as u64;
        let slots = if calendar {
            (max_work as usize + 1).next_power_of_two()
        } else {
            0
        };
        Completions {
            buckets: vec![Vec::new(); slots],
            mask: (slots as u64).saturating_sub(1),
            pending: 0,
            heap: (!calendar).then(BinaryHeap::new),
            batch: Vec::new(),
        }
    }

    /// Drops every pending event (capacity retained).
    fn clear(&mut self) {
        self.pending = 0;
        for b in &mut self.buckets {
            b.clear();
        }
        if let Some(h) = &mut self.heap {
            h.clear();
        }
    }

    #[inline]
    fn push(&mut self, t: u64, v: TaskId) {
        match &mut self.heap {
            Some(h) => h.push(Reverse((t, v))),
            None => {
                self.buckets[(t & self.mask) as usize].push(v);
                self.pending += 1;
            }
        }
    }

    /// The earliest pending finish time, which is always `> now`.
    #[inline]
    fn next_time(&self, now: u64) -> Option<u64> {
        if let Some(h) = &self.heap {
            return h.peek().map(|&Reverse((t, _))| t);
        }
        if self.pending == 0 {
            return None;
        }
        (now + 1..=now + self.mask).find(|t| !self.buckets[(t & self.mask) as usize].is_empty())
    }

    /// Takes the batch finishing exactly at `t`. Pushes made while it is
    /// consumed finish at `t + work > t` and never join it (on the
    /// calendar path `work < slots` keeps them out of its bucket); hand
    /// the buffer back with [`Completions::put_back`].
    #[inline]
    fn take_at(&mut self, t: u64) -> Vec<TaskId> {
        match &mut self.heap {
            Some(h) => {
                let mut batch = std::mem::take(&mut self.batch);
                while let Some(&Reverse((t2, v))) = h.peek() {
                    if t2 != t {
                        break;
                    }
                    h.pop();
                    batch.push(v);
                }
                batch
            }
            None => {
                let batch = std::mem::take(&mut self.buckets[(t & self.mask) as usize]);
                self.pending -= batch.len();
                batch
            }
        }
    }

    /// Returns a consumed batch's buffer, keeping its capacity.
    #[inline]
    fn put_back(&mut self, t: u64, mut batch: Vec<TaskId>) {
        batch.clear();
        match self.heap {
            Some(_) => self.batch = batch,
            None => self.buckets[(t & self.mask) as usize] = batch,
        }
    }
}

/// The relaxation state of one sequencing call. It lives only inside
/// [`sequence_bottlenecks`]: it is built for the job, reused across the
/// rounds and dropped when the plan is returned, so no policy keeps it.
#[derive(Debug)]
struct RelaxScratch {
    /// Working indegrees of the current simulation.
    indeg: Vec<u32>,
    /// Per-type EDD order: tasks sorted by `(due, id)`, shared by every
    /// relaxation.
    edd_order: Vec<Vec<TaskId>>,
    /// Per-type ready set over dispatch ranks. Infinite-capacity types
    /// never queue: they start the moment they become ready.
    ready: Vec<MinPosSet>,
    /// Calendar/heap of pending finish events.
    completions: Completions,
    /// Per-task dispatch rank: a fixed type's task holds its position in
    /// the type's frozen sequence, and the current relaxation target's
    /// task its EDD rank (task type sets are disjoint, so one flat table
    /// serves all types). Once every type is fixed it is the plan's rank.
    rank: Vec<u32>,
    /// Which types have been fixed so far.
    fixed: Vec<bool>,
    /// Per-type cached relaxations.
    cache: Vec<CacheEntry>,
    /// Number of tasks of each type.
    type_counts: Vec<u32>,
    /// Per-type capacity of the current sim (`usize::MAX` = infinite).
    cap: Vec<usize>,
    /// Per-type running-task count of the current sim.
    busy: Vec<u32>,
}

/// Per-type EDD orders: each type's tasks sorted by `(due, id)`. Due dates
/// are bounded by the job span, so for every sane workload a counting
/// sort over due values beats the comparison sort: tasks are scattered in
/// ascending id order, which makes ties on `due` fall back to id order —
/// exactly the reference's sort key.
fn edd_orders(job: &KDag, due: DueDates<'_>, type_counts: &[u32]) -> Vec<Vec<TaskId>> {
    let max_due = due.max() as usize;
    if max_due > 8 * job.num_tasks() + 64 {
        let mut orders: Vec<Vec<TaskId>> = type_counts
            .iter()
            .map(|&c| Vec::with_capacity(c as usize))
            .collect();
        for v in job.tasks() {
            orders[job.rtype(v)].push(v);
        }
        for o in &mut orders {
            o.sort_unstable_by_key(|&v| (due.get(v), v));
        }
        return orders;
    }
    let stride = max_due + 1;
    let mut offsets = vec![0u32; job.num_types() * stride];
    for v in job.tasks() {
        offsets[job.rtype(v) * stride + due.get(v) as usize] += 1;
    }
    // In-place exclusive prefix sums turn counts into offsets.
    for row in offsets.chunks_exact_mut(stride) {
        let mut acc = 0u32;
        for c in row {
            let next = acc + *c;
            *c = acc;
            acc = next;
        }
    }
    let mut orders: Vec<Vec<TaskId>> = type_counts
        .iter()
        .map(|&c| vec![TaskId::from_index(0); c as usize])
        .collect();
    for v in job.tasks() {
        let slot = job.rtype(v) * stride + due.get(v) as usize;
        orders[job.rtype(v)][offsets[slot] as usize] = v;
        offsets[slot] += 1;
    }
    orders
}

impl RelaxScratch {
    /// Sizes every buffer for `job` and precomputes the per-type EDD
    /// orders.
    fn new(job: &KDag, due: DueDates<'_>) -> Self {
        let n = job.num_tasks();
        let k = job.num_types();
        let mut type_counts = vec![0u32; k];
        let mut max_work = 0;
        for v in job.tasks() {
            type_counts[job.rtype(v)] += 1;
            max_work = max_work.max(job.work(v));
        }
        RelaxScratch {
            indeg: Vec::with_capacity(n),
            edd_order: edd_orders(job, due, &type_counts),
            ready: vec![MinPosSet::default(); k],
            completions: Completions::new(max_work),
            rank: vec![0; n],
            fixed: vec![false; k],
            cache: vec![CacheEntry::default(); k],
            type_counts,
            cap: vec![0; k],
            busy: vec![0; k],
        }
    }

    /// Runs the one-type relaxation for `target` and stores the result
    /// (lateness, start order, peak concurrencies) in `cache[target]`.
    /// Exits as soon as every `target` task has started: from that point
    /// the maximum lateness is fully determined.
    ///
    /// The start order is recorded as tasks start. The reference sorts
    /// its starts by `(time, due, id)`, and this is already that order:
    /// every work value is at least 1, so each instant gets one dispatch
    /// pass and time only grows between passes, and a pass takes the
    /// target's ready tasks in ascending EDD rank, which is `(due, id)`
    /// order.
    ///
    /// The hot loops borrow every scratch field exactly once up front and
    /// read dispatch ranks from one flat per-task table, so admissions and
    /// dispatches compile down to straight array traffic: no per-event
    /// branching on which rank table applies, no method-call boundaries
    /// the optimizer has to reason across.
    fn relax(&mut self, job: &KDag, config: &MachineConfig, target: usize, due: DueDates<'_>) {
        let k = job.num_types();
        for alpha in 0..k {
            self.cap[alpha] = if alpha == target || self.fixed[alpha] {
                config.procs(alpha)
            } else {
                usize::MAX
            };
        }
        self.busy.fill(0);
        self.indeg.clear();
        self.indeg.extend_from_slice(job.parent_counts());
        for alpha in 0..k {
            if self.cap[alpha] != usize::MAX {
                let m = self.type_counts[alpha] as usize;
                self.ready[alpha].reset(m);
            }
        }
        self.completions.clear();
        // The target dispatches by EDD rank. Its entries are free: only a
        // fixed type's entries are read, and the target is not fixed.
        for (i, &v) in self.edd_order[target].iter().enumerate() {
            self.rank[v.index()] = i as u32;
        }
        let target_total = self.type_counts[target] as usize;
        let entry = &mut self.cache[target];
        let mut peaks = std::mem::take(&mut entry.peaks);
        peaks.clear();
        peaks.resize(k, 0);
        let mut seq = std::mem::take(&mut entry.seq);
        seq.clear();
        seq.reserve_exact(target_total);

        let mut max_lateness = i64::MIN;
        let mut now = 0u64;

        let RelaxScratch {
            indeg,
            edd_order,
            ready,
            completions,
            rank,
            cache,
            cap,
            busy,
            ..
        } = self;
        let indeg = &mut indeg[..];
        let rank = &rank[..];
        let cap = &cap[..k];
        let busy = &mut busy[..k];
        let peaks_s = &mut peaks[..k];

        // Admission: infinite-capacity types start the moment they become
        // ready (they can never wait, so they bypass the ready sets);
        // finite types enter their type's ready set under their dispatch
        // rank. Starting inside the completion cascade is trajectory-
        // neutral: the task starts at the same `now` a dispatch pass
        // would use.
        macro_rules! admit {
            ($v:expr, $now:expr) => {{
                let v = $v;
                let alpha = job.rtype(v);
                if cap[alpha] == usize::MAX {
                    busy[alpha] += 1;
                    completions.push($now + job.work(v), v);
                } else {
                    ready[alpha].insert(rank[v.index()] as usize);
                }
            }};
        }

        for v in job.roots() {
            admit!(v, 0);
        }

        while seq.len() < target_total {
            // Dispatch at `now`: each finite-capacity type starts its
            // `free` smallest-ranked ready tasks — exactly the sorted
            // prefix the reference implementation takes. Infinite types
            // already started inside the admission step.
            for alpha in 0..k {
                if cap[alpha] == usize::MAX {
                    continue;
                }
                let free = cap[alpha] - busy[alpha] as usize;
                if free == 0 {
                    continue;
                }
                let rq = &mut ready[alpha];
                let order: &[TaskId] = if alpha == target {
                    &edd_order[alpha]
                } else {
                    &cache[alpha].seq
                };
                let is_target = alpha == target;
                let mut taken = 0usize;
                while taken < free {
                    let Some((i0, full)) = rq.lowest_word() else {
                        break;
                    };
                    let base = i0 << 6;
                    let mut w = full;
                    while w != 0 && taken < free {
                        let pos = base | (w.trailing_zeros() as usize);
                        w &= w - 1;
                        let v = order[pos];
                        if is_target {
                            seq.push(v);
                            max_lateness = max_lateness.max(now as i64 - due.get(v) as i64);
                        }
                        taken += 1;
                        completions.push(now + job.work(v), v);
                    }
                    rq.set_word(i0, w);
                }
                busy[alpha] += taken as u32;
            }
            // Epoch-end concurrency per type; the max over epochs is the
            // trajectory's true interval concurrency (the invalidation
            // certificate), since within an epoch tasks finishing at `now`
            // and tasks starting at `now` never overlap.
            for alpha in 0..k {
                peaks_s[alpha] = peaks_s[alpha].max(busy[alpha]);
            }
            if seq.len() == target_total {
                break;
            }

            // Advance to the next completion instant and retire the whole
            // batch before the next dispatch pass. Admissions during the
            // batch finish after `now`, so they never join it.
            now = completions
                .next_time(now)
                .expect("target tasks remain, something must be running");
            let batch = completions.take_at(now);
            for &v in &batch {
                busy[job.rtype(v)] -= 1;
                for &c in job.children(v) {
                    let ci = c.index();
                    indeg[ci] -= 1;
                    if indeg[ci] == 0 {
                        admit!(c, now);
                    }
                }
            }
            completions.put_back(now, batch);
        }

        let entry = &mut cache[target];
        entry.valid = true;
        entry.lateness = max_lateness;
        entry.peaks = peaks;
        entry.seq = seq;
    }
}

/// The bottleneck-sequencing loop. It reads only the job, the processor
/// counts and the due dates, so its result is stored in the instance's
/// [`Artifacts`] bundle and computed once per instance (see
/// [`Artifacts::sequence_plan`]); its relaxation scratch is dropped when
/// it returns. Returns the per-task frozen-sequence ranks and the
/// bottleneck order. Bit-identical to [`reference::bottleneck_sequencing`]
/// (see the module docs for why the caching and early exit preserve
/// every trajectory).
fn sequence_bottlenecks(
    job: &KDag,
    config: &MachineConfig,
    due: DueDates<'_>,
) -> (Vec<u32>, Vec<usize>) {
    let k = job.num_types();
    let mut s = RelaxScratch::new(job, due);
    let mut bottleneck_order = Vec::with_capacity(k);

    for _round in 0..k {
        let mut best: Option<(i64, usize)> = None;
        for alpha in 0..k {
            if s.fixed[alpha] {
                continue;
            }
            if !s.cache[alpha].valid {
                s.relax(job, config, alpha, due);
            }
            let lateness = s.cache[alpha].lateness;
            let better = match best {
                None => true,
                Some((bl, ba)) => lateness > bl || (lateness == bl && alpha < ba),
            };
            if better {
                best = Some((lateness, alpha));
            }
        }
        let (_, alpha) = best.expect("an unfixed type remains each round");
        for (pos, &v) in s.cache[alpha].seq.iter().enumerate() {
            s.rank[v.index()] = pos as u32;
        }
        s.fixed[alpha] = true;
        bottleneck_order.push(alpha);
        // A surviving cache must have kept the newly fixed type within
        // its real capacity, or its trajectory no longer replays.
        for beta in 0..k {
            if beta != alpha
                && !s.fixed[beta]
                && s.cache[beta].valid
                && s.cache[beta].peaks[alpha] as usize > config.procs(alpha)
            {
                s.cache[beta].valid = false;
            }
        }
    }
    (s.rank, bottleneck_order)
}

impl Policy for ShiftBT {
    fn name(&self) -> &str {
        "ShiftBT"
    }

    /// Takes the instance's sequencing plan from `artifacts`; the first
    /// ShiftBT init on a bundle computes it.
    fn init(&mut self, job: &KDag, config: &MachineConfig, _seed: u64, artifacts: &Artifacts) {
        let due = artifacts.due_dates(job);
        let plan = artifacts.sequence_plan(config.procs_per_type(), || {
            sequence_bottlenecks(job, config, due)
        });
        self.plan = Some(Arc::clone(plan));
        self.selector.invalidate();
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let rank = &self.plan.as_deref().expect("init ran").rank;
        self.selector
            .assign_by_key(view, out, |_, rt| f64::from(rank[rt.id.index()]));
    }

    fn detach_job(&mut self) {
        self.plan = None;
    }

    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        Some(self.selector.take_stats())
    }
}

/// The pre-incremental sequencing loop, kept verbatim as the oracle for
/// the equivalence property tests: every round re-simulates every
/// remaining type's relaxation from scratch, to completion, with fresh
/// allocations. O(K²) full simulations — do not call it on Huge
/// instances outside of benchmarks.
pub mod reference {
    use super::*;

    /// Runs the original bottleneck-sequencing loop and returns the
    /// bottleneck order (most-late type first) and the per-task rank
    /// table, exactly as [`ShiftBT`] computes them.
    pub fn bottleneck_sequencing(
        job: &KDag,
        config: &MachineConfig,
        due: &[u64],
    ) -> (Vec<usize>, Vec<f64>) {
        let k = job.num_types();
        let mut fixed: Vec<Option<Vec<u64>>> = vec![None; k];
        let mut bottleneck_order = Vec::new();

        let mut remaining: Vec<usize> = (0..k).collect();
        while !remaining.is_empty() {
            let mut best: Option<(i64, usize, Vec<TaskId>)> = None;
            for &alpha in &remaining {
                let (lateness, seq) = relax(job, config, &fixed, alpha, due);
                let better = match &best {
                    None => true,
                    Some((bl, ba, _)) => lateness > *bl || (lateness == *bl && alpha < *ba),
                };
                if better {
                    best = Some((lateness, alpha, seq));
                }
            }
            let (_, alpha, seq) = best.expect("remaining non-empty");
            let mut ranks = vec![0u64; job.num_tasks()];
            for (pos, &v) in seq.iter().enumerate() {
                ranks[v.index()] = pos as u64;
            }
            fixed[alpha] = Some(ranks);
            bottleneck_order.push(alpha);
            remaining.retain(|&a| a != alpha);
        }

        let mut rank = vec![0.0; job.num_tasks()];
        for v in job.tasks() {
            let alpha = job.rtype(v);
            rank[v.index()] = fixed[alpha].as_ref().expect("all types fixed")[v.index()] as f64;
        }
        (bottleneck_order, rank)
    }

    /// One-type relaxation: simulate the whole job with type `target` at
    /// its real capacity under EDD, fixed types at their capacity under
    /// their frozen sequences, and all other types at infinite capacity.
    /// Returns the maximum start-based lateness over `target`'s tasks
    /// (`i64::MIN` if the type has none) and the `target` tasks in start
    /// order.
    fn relax(
        job: &KDag,
        config: &MachineConfig,
        fixed: &[Option<Vec<u64>>],
        target: usize,
        due: &[u64],
    ) -> (i64, Vec<TaskId>) {
        let k = job.num_types();
        let n = job.num_tasks();
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| job.num_parents(TaskId::from_index(i)) as u32)
            .collect();
        let mut ready: Vec<Vec<TaskId>> = vec![Vec::new(); k];
        for v in job.roots() {
            ready[job.rtype(v)].push(v);
        }
        let capacity: Vec<Option<usize>> = (0..k)
            .map(|a| {
                if a == target || fixed[a].is_some() {
                    Some(config.procs(a))
                } else {
                    None // infinite
                }
            })
            .collect();
        let key = |alpha: usize, v: TaskId| -> u64 {
            if alpha == target {
                due[v.index()]
            } else if let Some(rk) = &fixed[alpha] {
                rk[v.index()]
            } else {
                0 // infinite capacity: order irrelevant
            }
        };

        let mut busy = vec![0usize; k];
        let mut heap: BinaryHeap<Reverse<(u64, TaskId)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut starts: Vec<(u64, TaskId)> = Vec::new();
        let mut max_lateness = i64::MIN;
        let mut done = 0usize;

        while done < n {
            // Dispatch at `now`.
            for alpha in 0..k {
                let free = match capacity[alpha] {
                    Some(c) => c - busy[alpha],
                    None => usize::MAX,
                };
                if free == 0 || ready[alpha].is_empty() {
                    continue;
                }
                ready[alpha].sort_unstable_by_key(|&v| (key(alpha, v), v));
                let take = free.min(ready[alpha].len());
                for &v in ready[alpha].iter().take(take) {
                    if alpha == target {
                        starts.push((now, v));
                        max_lateness = max_lateness.max(now as i64 - due[v.index()] as i64);
                    }
                    busy[alpha] += 1;
                    heap.push(Reverse((now + job.work(v), v)));
                }
                ready[alpha].drain(..take);
            }

            // Advance to the next completion.
            let Reverse((t, v)) = heap.pop().expect("work remains, something must be running");
            now = t;
            let mut finished = vec![v];
            while let Some(&Reverse((t2, _))) = heap.peek() {
                if t2 != now {
                    break;
                }
                finished.push(heap.pop().expect("peeked").0 .1);
            }
            for v in finished {
                busy[job.rtype(v)] -= 1;
                done += 1;
                for &c in job.children(v) {
                    indeg[c.index()] -= 1;
                    if indeg[c.index()] == 0 {
                        ready[job.rtype(c)].push(c);
                    }
                }
            }
        }

        starts.sort_unstable_by_key(|&(t, v)| (t, due[v.index()], v));
        (max_lateness, starts.into_iter().map(|(_, v)| v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{engine, Mode, RunOptions};
    use kdag::KDagBuilder;

    /// The plan `p` holds.
    fn plan(p: &ShiftBT) -> &SequencePlan {
        p.plan.as_deref().expect("init ran")
    }

    /// The plan's ranks in the oracle's form.
    fn ranks(p: &ShiftBT) -> Vec<f64> {
        plan(p).rank.iter().map(|&r| f64::from(r)).collect()
    }

    #[test]
    fn every_type_gets_sequenced_exactly_once() {
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 2);
        let mut p = ShiftBT::default();
        p.init(&job, &cfg, 0, &Artifacts::new());
        let mut order = plan(&p).bottleneck_order.clone();
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn edd_within_a_type_prefers_urgent_tasks() {
        // Two independent type-0 tasks; `urgent` heads a long chain (due 0),
        // `slack` is a sink (late due date). One type-0 processor.
        let mut b = KDagBuilder::new(2);
        let slack = b.add_task(0, 1);
        let urgent = b.add_task(0, 1);
        let mut prev = urgent;
        for _ in 0..4 {
            let c = b.add_task(1, 1);
            b.add_edge(prev, c).unwrap();
            prev = c;
        }
        let _ = slack;
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 1]);
        let out = engine::run(
            &job,
            &cfg,
            &mut ShiftBT::default(),
            Mode::NonPreemptive,
            &RunOptions::seeded(0).with_trace(),
        );
        let tr = out.trace.unwrap();
        let first_type0 = tr
            .segments()
            .iter()
            .filter(|s| s.rtype == 0)
            .min_by_key(|s| s.start)
            .unwrap();
        assert_eq!(first_type0.task, urgent);
        assert_eq!(out.makespan, 5); // urgent@0, chain 1..5, slack fits at 1
    }

    #[test]
    fn relaxation_identifies_the_loaded_type_as_bottleneck() {
        // Type 1 carries 10× the work of type 0 on equal processors: it
        // must be sequenced first.
        let mut b = KDagBuilder::new(2);
        let head = b.add_task(0, 1);
        for _ in 0..10 {
            let v = b.add_task(1, 5);
            b.add_edge(head, v).unwrap();
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 2]);
        let mut p = ShiftBT::default();
        p.init(&job, &cfg, 0, &Artifacts::new());
        assert_eq!(plan(&p).bottleneck_order[0], 1);
    }

    #[test]
    fn completes_and_conserves_work_in_both_modes() {
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 1);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let out = engine::run(
                &job,
                &cfg,
                &mut ShiftBT::default(),
                mode,
                &RunOptions::default(),
            );
            assert_eq!(out.busy_time.iter().sum::<u64>(), job.total_work());
        }
    }

    #[test]
    fn incremental_matches_oracle_on_examples() {
        for (job, cfg) in [
            (kdag::examples::figure1(), MachineConfig::uniform(3, 2)),
            (kdag::examples::figure1(), MachineConfig::new(vec![1, 3, 2])),
        ] {
            let due = kdag::duedate::due_dates(&job);
            let (order, rank) = reference::bottleneck_sequencing(&job, &cfg, &due);
            let mut p = ShiftBT::default();
            p.init(&job, &cfg, 0, &Artifacts::new());
            assert_eq!(plan(&p).bottleneck_order, order);
            assert_eq!(ranks(&p), rank);
        }
    }

    #[test]
    fn heap_path_matches_oracle() {
        // Work values of `RING_SLOTS` and beyond take the completion heap
        // (the equivalence proptests draw work values below it).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _ in 0..64 {
            let n = 1 + next(40) as usize;
            let mut b = KDagBuilder::new(3);
            let ids: Vec<_> = (0..n)
                .map(|_| b.add_task(next(3) as usize, 1 + next(20)))
                .collect();
            let mut edges = std::collections::BTreeSet::new();
            for i in 1..n {
                for _ in 0..next(4) {
                    edges.insert((next(i as u64) as usize, i));
                }
            }
            for (p, c) in edges {
                b.add_edge(ids[p], ids[c]).unwrap();
            }
            let job = b.build().unwrap();
            let cfg = MachineConfig::new(vec![1 + next(3) as usize, 1, 1 + next(2) as usize]);
            let due = kdag::duedate::due_dates(&job);
            let (order, rank) = reference::bottleneck_sequencing(&job, &cfg, &due);
            let mut p = ShiftBT::default();
            p.init(&job, &cfg, 0, &Artifacts::new());
            assert_eq!(plan(&p).bottleneck_order, order);
            assert_eq!(ranks(&p), rank);
        }
    }

    #[test]
    fn warm_policy_resequencing_is_stable() {
        // A warm policy re-initialized on a different instance must not
        // leak any cached state from the previous one.
        let job_a = kdag::examples::figure1();
        let cfg_a = MachineConfig::uniform(3, 2);
        let mut b = KDagBuilder::new(2);
        let head = b.add_task(0, 2);
        for _ in 0..6 {
            let v = b.add_task(1, 3);
            b.add_edge(head, v).unwrap();
        }
        let job_b = b.build().unwrap();
        let cfg_b = MachineConfig::new(vec![2, 1]);

        let mut warm = ShiftBT::default();
        warm.init(&job_a, &cfg_a, 0, &Artifacts::new());
        warm.init(&job_b, &cfg_b, 0, &Artifacts::new());
        let mut cold = ShiftBT::default();
        cold.init(&job_b, &cfg_b, 0, &Artifacts::new());
        assert_eq!(plan(&warm), plan(&cold));

        warm.init(&job_a, &cfg_a, 0, &Artifacts::new());
        let mut cold_a = ShiftBT::default();
        cold_a.init(&job_a, &cfg_a, 0, &Artifacts::new());
        assert_eq!(plan(&warm), plan(&cold_a));
    }
}
