//! MQB — Multi-Queue Balancing, the paper's contribution (§IV-A).
//!
//! MQB keeps one ready queue per resource type and transforms makespan
//! minimization into **utilization balancing**: keep every type's queue
//! fed so no processor pool starves.
//!
//! Two concepts drive it:
//!
//! 1. **Balance.** For queue snapshot `A`, the *x-utilization* of the
//!    `α`-queue is `r_α(A) = l_α(A) / P_α` (total ready work over
//!    processor count). The snapshot's *balance* is the vector of
//!    x-utilizations sorted ascending; snapshot `A` is better-balanced
//!    than `B` iff its sorted vector is lexicographically larger — i.e.
//!    its most-starved queue is fuller, ties broken by the next-most
//!    starved, and so on.
//! 2. **Descendant values** `d_α(v)` ([`kdag::descendants`]): the
//!    projected type-`α` workload unlocked downstream of `v`.
//!
//! When more than `P_α` `α`-tasks are ready, MQB repeatedly picks the
//! candidate whose projected queue state — its own work leaving the
//! `α`-queue, its descendant values joining every queue — has the best
//! balance, until all processors are assigned. When at most `P_α` are
//! ready it runs them all (their projections still update the working
//! state seen while filling the remaining types).
//!
//! The §V-G *approximated information* variants are selected through
//! [`InfoModel`]: one-step vs full lookahead, and precise vs
//! exponentially-distributed vs noisy descendant estimates.

use std::hash::Hasher;
use std::ops::Deref;
use std::sync::Arc;

use fhs_sim::{Assignments, EpochView, MachineConfig, Policy, ReadyTask, SelectionStats};
use kdag::descendants::DescendantValues;
use kdag::precompute::Artifacts;
use kdag::{KDag, TaskId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::journal::{Cursor, JournalIndex};
use crate::ranked::key_image;

/// Sentinel for "no task / no group / not linked" in the index's u32 links.
const NONE: u32 = u32::MAX;

/// `Member::group` sentinel for a preemptive pick waiting outside the
/// index: it stays queued, and the next sync re-inserts it (DESIGN.md §14).
const PENDING: u32 = u32::MAX - 1;

/// Contested rounds with at most this many candidates use the flat full
/// scan instead of the dominance-pruned index; above it the index path
/// takes over. Both paths evaluate candidates through the same
/// reject-first kernel and select bit-identical tasks (DESIGN.md §14), so
/// the crossover is purely a performance knob, though moving it moves the
/// evaluated/pruned counters (`huge_mqb_smoke`, the `fig_util` golden,
/// perfbench). Re-measured with the shared kernel, the index alone would
/// be faster at every size, but MQB-Approx, which must cost less than
/// exact MQB, then no longer does on Small to Large jobs (DESIGN.md §14).
/// It also gates the index's upkeep: a type's groups are placed in the
/// dominance order only when a round on that type first exceeds it, so a
/// job whose queues never do (Medium and below, typically) keeps
/// membership alone.
const INDEX_CROSSOVER: usize = 64;

/// MQB-Approx's per-pick candidate budget ([`Mqb::approx`]): matches the
/// exact path's flat/indexed crossover, so the approximation only ever
/// deviates in rounds where the exact algorithm would lean on the index.
pub const DEFAULT_APPROX_CAP: usize = 64;

/// How much of the K-DAG's future MQB may look at (paper §V-G).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Lookahead {
    /// Full-depth descendant values (`MQB+All`).
    #[default]
    All,
    /// Immediate children only (`MQB+1Step`):
    /// `d_α(v) = Σ_{u ∈ children(v)} w_α(u) / pr(u)`.
    OneStep,
}

/// How accurate MQB's descendant estimates are (paper §V-G).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Accuracy {
    /// Exact values (`MQB+Pre`).
    #[default]
    Precise,
    /// Each value replaced by an exponentially-distributed random value
    /// whose mean is the true value (`MQB+Exp`).
    Exponential,
    /// Each value replaced by `true × U[0.5, 1.5] + U[0, w̄]` where `w̄`
    /// is the job's mean task work (`MQB+Noise`).
    Noisy,
}

/// Combined information model: lookahead depth × estimate accuracy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct InfoModel {
    /// Lookahead depth.
    pub lookahead: Lookahead,
    /// Estimate accuracy.
    pub accuracy: Accuracy,
}

impl InfoModel {
    /// The six §V-G variants in the paper's presentation order:
    /// All+Pre, All+Exp, All+Noise, 1Step+Pre, 1Step+Exp, 1Step+Noise.
    pub const ALL_VARIANTS: [InfoModel; 6] = [
        InfoModel {
            lookahead: Lookahead::All,
            accuracy: Accuracy::Precise,
        },
        InfoModel {
            lookahead: Lookahead::All,
            accuracy: Accuracy::Exponential,
        },
        InfoModel {
            lookahead: Lookahead::All,
            accuracy: Accuracy::Noisy,
        },
        InfoModel {
            lookahead: Lookahead::OneStep,
            accuracy: Accuracy::Precise,
        },
        InfoModel {
            lookahead: Lookahead::OneStep,
            accuracy: Accuracy::Exponential,
        },
        InfoModel {
            lookahead: Lookahead::OneStep,
            accuracy: Accuracy::Noisy,
        },
    ];

    /// The paper's label for this variant, e.g. `MQB+All+Pre`.
    pub fn label(&self) -> &'static str {
        match (self.lookahead, self.accuracy) {
            (Lookahead::All, Accuracy::Precise) => "MQB+All+Pre",
            (Lookahead::All, Accuracy::Exponential) => "MQB+All+Exp",
            (Lookahead::All, Accuracy::Noisy) => "MQB+All+Noise",
            (Lookahead::OneStep, Accuracy::Precise) => "MQB+1Step+Pre",
            (Lookahead::OneStep, Accuracy::Exponential) => "MQB+1Step+Exp",
            (Lookahead::OneStep, Accuracy::Noisy) => "MQB+1Step+Noise",
        }
    }
}

/// Multiplicative hasher for the policy's open-addressing table
/// ([`GroupTable`]): the row-class labelling hashes descendant rows, the
/// index hashes `(type, class, rem_key)` group keys. The table is probed
/// on every journal event, so SipHash's per-lookup cost would buy
/// nothing. FxHash's word mix (rotate, xor, multiply), with the
/// well-mixed high product bits rotated down at `finish`. A job can steer
/// the keys only through its work values; a collision costs probe time,
/// never a pick.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One candidate-equivalence group of the incremental index: all queued
/// candidates of one type with a bitwise-identical descendant row
/// (`class`) and the same dominance remaining-work key (`rem_key`). Such
/// candidates produce bitwise-identical projected rows at every working
/// state, so only the group's earliest-arrived member (`head`) can ever
/// win a pick; groups, not members, are what the dominance frontier
/// relates (DESIGN.md §14).
#[derive(Clone, Copy, Debug, Default)]
struct Group {
    /// The class's total descendant value, summed from the class's row at
    /// creation (the bits are identical for every member): `dominates`
    /// tests it and `rem_key` before it reads a row.
    d_total: f64,
    /// The members' remaining work, which the projection subtracts from
    /// their own type: the one copy of a grouped member's remaining work.
    rem_key: u64,
    /// The row class; the class's row sits in `TypeIndex::rows`.
    class: u32,
    /// Earliest-arrived member (task index; `NONE` once the group is
    /// empty); the group's only possible winner.
    head: u32,
    /// Latest-arrived member: fast path for seq-ascending insertion.
    tail: u32,
    /// A live group whose key dominates this one (`NONE` when this group
    /// is on the frontier or unplaced). The witness's existence is what
    /// proves this group can be pruned; it is *not* required to be on the
    /// frontier itself — chains of witnesses end at a frontier group by
    /// induction.
    witness: u32,
    /// Intrusive list of groups this one witnesses.
    child_head: u32,
    /// Sibling links within the witness's child list.
    sib_prev: u32,
    /// See `sib_prev`.
    sib_next: u32,
    /// Position in `TypeIndex::frontier` (`NONE` when dominated or
    /// unplaced).
    frontier_pos: u32,
}

/// One frontier position: its group plus mirrors of the group fields that
/// evaluation and dominance scans read, so a scan streams the frontier
/// (and `TypeIndex::front_rows` beside it) instead of chasing the slab.
/// `debug_assert_mirrors` checks every mirror against its group.
#[derive(Clone, Copy, Debug)]
struct Front {
    d_total: f64,
    rem_key: u64,
    gid: u32,
    head: u32,
    head_seq: u32,
}

/// One task's index membership in a 16-byte record: owning group (`NONE`
/// = not indexed, `PENDING` = a held preemptive pick), seq-ordered
/// intrusive list links, and the queue entry's seq (a mirror of the
/// journal, so picks don't re-touch queues). The record keeps no
/// remaining work: a grouped member's is its group's `rem_key`, a pending
/// pick's rides in `TypeIndex::pending` (at position `prev`), and
/// MQB-Approx keeps its own table (`Mqb::approx_rem`).
#[derive(Clone, Copy, Debug)]
struct Member {
    group: u32,
    prev: u32,
    next: u32,
    seq: u32,
}

impl Member {
    const EMPTY: Member = Member {
        group: NONE,
        prev: NONE,
        next: NONE,
        seq: 0,
    };
}

/// A queue entry's seq in the member record's 32 bits.
fn seq32(seq: u64) -> u32 {
    u32::try_from(seq).expect("a run releases fewer than 2^32 tasks")
}

/// Per-type incremental selection index: the groups of one ready queue and
/// their dominance frontier. Maintained by queue-journal diffs between
/// epochs; rebuilt from a queue snapshot on attach or journal
/// discontinuity. Groups are found by key through the policy's one
/// [`GroupTable`], shared by every type.
#[derive(Clone, Debug, Default)]
struct TypeIndex {
    /// Group slab; freed ids are recycled through `free`.
    groups: Vec<Group>,
    /// Each group's descendant row (`gid × K`), copied from its class
    /// representative at creation: dominance tests read this slab instead
    /// of the task-indexed matrix.
    rows: Vec<f64>,
    /// Free list into `groups`.
    free: Vec<u32>,
    /// Groups with no witness — the only groups whose heads a pick must
    /// evaluate. Exactly the Pareto set of the placed groups: a newcomer
    /// that dominates frontier groups demotes them at once, so no frontier
    /// group dominates another (DESIGN.md §14).
    frontier: Vec<Front>,
    /// The frontier groups' rows, parallel to `frontier` (`position × K`).
    front_rows: Vec<f64>,
    /// Live member (queued candidate) count across all groups.
    live: usize,
    /// This type's last preemptive picks, in pick order, each with its
    /// remaining work: still queued, they wait outside the groups (`group
    /// == PENDING`, `prev` = the entry's position here) until the next
    /// sync re-inserts them once with their progressed remaining work.
    /// Entries whose task left the queue meanwhile are skipped.
    pending: Vec<(u32, u64)>,
    /// Entries of `pending` still queued. `live + pending_live` is checked
    /// against the queue length as a rebuild trigger for hand-built views.
    pending_live: usize,
    /// Whether the groups are placed in the dominance order. Until a round
    /// on this type first exceeds [`INDEX_CROSSOVER`], the index tracks
    /// membership only — every live group is unplaced, off the frontier
    /// and witness-free — because the flat scan never reads the frontier;
    /// `place_deferred` then places them all at once.
    placed: bool,
}

impl TypeIndex {
    fn clear(&mut self) {
        self.groups.clear();
        self.rows.clear();
        self.free.clear();
        self.frontier.clear();
        self.front_rows.clear();
        self.live = 0;
        self.pending.clear();
        self.pending_live = 0;
        self.placed = false;
    }
}

/// A set of ranks with an ordered successor search: a bit per rank, and
/// a summary bit per 64-rank word marking the non-empty words (the
/// two-level shape of `shiftbt`'s `MinPosSet`).
#[derive(Clone, Debug, Default)]
struct RankSet {
    l0: Vec<u64>,
    l1: Vec<u64>,
}

impl RankSet {
    /// Sizes for `n` ranks and clears. Never shrinks.
    fn reset(&mut self, n: usize) {
        let w0 = n.div_ceil(64).max(1);
        self.l0.clear();
        self.l0.resize(w0, 0);
        self.l1.clear();
        self.l1.resize(w0.div_ceil(64), 0);
    }

    fn insert(&mut self, r: usize) {
        self.l0[r >> 6] |= 1 << (r & 63);
        self.l1[r >> 12] |= 1 << ((r >> 6) & 63);
    }

    fn remove(&mut self, r: usize) {
        let w = r >> 6;
        self.l0[w] &= !(1 << (r & 63));
        if self.l0[w] == 0 {
            self.l1[w >> 6] &= !(1 << (w & 63));
        }
    }

    /// The smallest member `≥ from`.
    fn next(&self, from: usize) -> Option<usize> {
        let w = from >> 6;
        let bits = *self.l0.get(w)? & (!0u64 << (from & 63));
        if bits != 0 {
            return Some(w << 6 | bits.trailing_zeros() as usize);
        }
        // The first non-empty word after `w`, through the summary.
        let w = w + 1;
        let mut i1 = w >> 6;
        let mut bits = *self.l1.get(i1)? & (!0u64 << (w & 63));
        while bits == 0 {
            i1 += 1;
            bits = *self.l1.get(i1)?;
        }
        let w = i1 << 6 | bits.trailing_zeros() as usize;
        Some(w << 6 | self.l0[w].trailing_zeros() as usize)
    }
}

/// MQB-Approx's per-type candidate order, fed by the queue's journal:
/// the queued candidates in the approximation's priority order — total
/// descendant value descending (`total_cmp`), then arrival. A queued
/// task's key never changes, so the order is a bucket per distinct
/// `d_total` (its rank, `Mqb::class_rank`), each a seq-ordered list
/// threaded through the member records (`Member::group` holds the rank),
/// and a [`RankSet`] of the non-empty buckets. A round reads its window
/// off the front in O(window), not O(queue).
#[derive(Clone, Debug, Default)]
struct ApproxOrder {
    /// Whether the journal keeps this type current: set by the type's
    /// first contested round since the policy's last (re)attach.
    active: bool,
    cursor: Cursor,
    /// Per rank: earliest- and latest-arrived queued member (`NONE` when
    /// the bucket is empty).
    first: Vec<u32>,
    last: Vec<u32>,
    occupied: RankSet,
    /// Queued candidates held.
    live: usize,
}

impl ApproxOrder {
    /// Empties the order and sizes it for `ranks` buckets, retaining
    /// capacity. Member records are not touched: an order is only ever
    /// emptied while its type has none (activation) or alongside a
    /// wholesale member reset.
    fn reset(&mut self, ranks: usize) {
        self.first.clear();
        self.first.resize(ranks, NONE);
        self.last.clear();
        self.last.resize(ranks, NONE);
        self.occupied.reset(ranks);
        self.live = 0;
    }
}

/// Split-borrow view of one type's [`ApproxOrder`] with the policy's
/// member records and rank tables, as a journal consumer.
struct OrderCtx<'a> {
    order: &'a mut ApproxOrder,
    members: &'a mut [Member],
    rem: &'a mut [u64],
    row_class: &'a [u32],
    class_rank: &'a [u32],
}

impl JournalIndex for OrderCtx<'_> {
    fn contains(&self, t: usize) -> bool {
        self.members[t].group != NONE
    }

    fn insert(&mut self, rt: ReadyTask) {
        let t = rt.id.index();
        let seq = seq32(rt.seq);
        let rank = self.class_rank[self.row_class[t] as usize];
        let r = rank as usize;
        let o = &mut *self.order;
        // Releases and cold builds arrive seq-ascending, and a queued
        // task is never re-inserted (its key cannot change): every insert
        // appends at its bucket's tail.
        let prev = o.last[r];
        if prev == NONE {
            o.occupied.insert(r);
            o.first[r] = t as u32;
        } else {
            debug_assert!(self.members[prev as usize].seq < seq, "out-of-order insert");
            self.members[prev as usize].next = t as u32;
        }
        o.last[r] = t as u32;
        self.members[t] = Member {
            group: rank,
            prev,
            next: NONE,
            seq,
        };
        self.rem[t] = rt.remaining;
        o.live += 1;
    }

    fn remove(&mut self, t: usize) {
        let Member {
            group: rank,
            prev,
            next,
            ..
        } = self.members[t];
        self.members[t].group = NONE;
        let (o, r) = (&mut *self.order, rank as usize);
        if prev == NONE {
            o.first[r] = next;
        } else {
            self.members[prev as usize].next = next;
        }
        if next == NONE {
            o.last[r] = prev;
        } else {
            self.members[next as usize].prev = prev;
        }
        if o.first[r] == NONE {
            o.occupied.remove(r);
        }
        o.live -= 1;
    }

    fn update(&mut self, t: usize, remaining: u64) {
        self.rem[t] = remaining;
    }

    fn live(&self) -> usize {
        self.order.live
    }
}

/// The state-free dominance rule over `(d_total, rem_key)` keys and
/// descendant rows (DESIGN.md §14). The keys gate first; the row test
/// then ANDs all K comparisons without short-circuiting, so the loop
/// compiles to straight-line compares instead of one unpredictable branch
/// per entry.
#[inline]
fn dominates(f: (f64, u64), row_f: &[f64], g: (f64, u64), row_g: &[f64]) -> bool {
    f.0 > g.0
        && f.1 <= g.1
        && row_f
            .iter()
            .zip(row_g)
            .fold(true, |all, (x, y)| all & (x >= y))
}

/// The tie-break total `Σ_β d_β(t)` of a descendant row, summed in row
/// order: the expression `DescendantValues::total` uses, so every copy of
/// a row sums to the same bits.
#[inline]
fn row_total(row: &[f64]) -> f64 {
    row.iter().sum()
}

/// Hash of a descendant row's bits, `KeyHasher`'s word mix; its high 32
/// bits label the row in the class table (`label_row_classes`).
#[inline]
fn row_hash(row: &[f64]) -> u32 {
    let mut h = KeyHasher::default();
    for x in row {
        h.write_u64(x.to_bits());
    }
    (h.finish() >> 32) as u32
}

/// Hash of a group key `(type, row class, rem_key)`, as `row_hash`.
#[inline]
fn group_hash(alpha: u32, class: u32, rem_key: u64) -> u32 {
    let mut h = KeyHasher::default();
    h.write_u32(alpha);
    h.write_u32(class);
    h.write_u64(rem_key);
    (h.finish() >> 32) as u32
}

/// An empty slot of the policy's open-addressing table.
const EMPTY_SLOT: u64 = u64::MAX;

/// The exact index's group lookup: an open-addressing table (linear
/// probing, power-of-two length, load ≤ ½) of slots `hash << 32 | gid`,
/// one table for every type. A slot names a group id, not its type: a
/// lookup from type `α` confirms a hash match against `α`'s own slab (a
/// live group there with the probed key). A live key is unique within a
/// type, so a slot another type owns can confirm only where it names the
/// very group `α`'s own slot names, and two slots of one value are
/// interchangeable: removal deletes a slot by value, with backward-shift
/// deletion (no tombstones).
///
/// The slot buffer is shared with `label_row_classes`, which runs at
/// `init`, before the index is built: `reset` re-forms the table at every
/// cold rebuild. It is sized by the most groups ever live at once (kept
/// through `reset`, like the buffer's capacity), so a warm rerun of a job
/// neither grows nor allocates.
#[derive(Clone, Debug, Default)]
struct GroupTable {
    slots: Vec<u64>,
    /// Groups held.
    len: usize,
    /// Most groups ever held at once.
    peak: usize,
}

impl GroupTable {
    /// Empties the table at a length with room for `peak` groups.
    fn reset(&mut self) {
        let cap = (2 * self.peak).max(16).next_power_of_two();
        self.slots.clear();
        self.slots.resize(cap, EMPTY_SLOT);
        self.len = 0;
    }

    /// The first group with hash `h` that `is_key` confirms.
    #[inline]
    fn find(&self, h: u32, is_key: impl Fn(u32) -> bool) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY_SLOT {
                return None;
            }
            if (s >> 32) as u32 == h && is_key(s as u32) {
                return Some(s as u32);
            }
            i = (i + 1) & mask;
        }
    }

    fn place(slots: &mut [u64], slot: u64) {
        let mask = slots.len() - 1;
        let mut i = (slot >> 32) as usize & mask;
        while slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        slots[i] = slot;
    }

    /// Adds group `gid` under hash `h`, doubling the table past load ½.
    /// Of the old and the doubled buffer the larger stays, so growth never
    /// drops the labelling's capacity.
    fn insert(&mut self, h: u32, gid: u32) {
        self.len += 1;
        self.peak = self.peak.max(self.len);
        if 2 * self.len > self.slots.len() {
            let mut grown = vec![EMPTY_SLOT; 2 * self.slots.len()];
            for &s in self.slots.iter().filter(|&&s| s != EMPTY_SLOT) {
                GroupTable::place(&mut grown, s);
            }
            if self.slots.capacity() >= grown.len() {
                self.slots.clear();
                self.slots.extend_from_slice(&grown);
            } else {
                self.slots = grown;
            }
        }
        GroupTable::place(&mut self.slots, u64::from(h) << 32 | u64::from(gid));
    }

    /// Removes one slot `h << 32 | gid`, which must be present, then shifts
    /// each later slot of the probe run back into the hole unless the hole
    /// lies before its home.
    fn remove(&mut self, h: u32, gid: u32) {
        let mask = self.slots.len() - 1;
        let want = u64::from(h) << 32 | u64::from(gid);
        let mut hole = h as usize & mask;
        while self.slots[hole] != want {
            debug_assert_ne!(self.slots[hole], EMPTY_SLOT, "group {gid} not in the table");
            hole = (hole + 1) & mask;
        }
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == EMPTY_SLOT {
                break;
            }
            let home = (s >> 32) as usize & mask;
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY_SLOT;
        self.len -= 1;
    }
}

/// Partitions the `n` tasks of the row-major matrix `d` (`task × k`)
/// into classes of bitwise-identical rows: `row_class[t]` is task `t`'s class
/// and `class_rep[c]` the first task of class `c`. Classes are numbered
/// in order of first appearance.
///
/// An open-addressing table (linear probing, load ≤ ¾) maps each row's
/// 32-bit hash to a class; every hash match is confirmed by a full
/// bitwise row comparison, so a collision costs a probe, never a merge.
/// A slot packs `hash << 32 | class`, which filters probes without
/// touching `d` and lets the table grow by re-hashing the classes' reps.
/// `slots` is retained scratch (the [`GroupTable`]'s buffer): it starts at
/// the size the previous call's class count needed, so a warm re-init of
/// the same job neither grows nor allocates.
fn label_row_classes(
    d: &[f64],
    (n, k): (usize, usize),
    row_class: &mut Vec<u32>,
    class_rep: &mut Vec<u32>,
    slots: &mut Vec<u64>,
) {
    let row = |t: usize| &d[t * k..t * k + k];
    let mut cap = (class_rep.len() * 4 / 3 + 1)
        .clamp(16, 2 * n.max(8))
        .next_power_of_two();
    slots.clear();
    slots.resize(cap, EMPTY_SLOT);
    row_class.clear();
    class_rep.clear();
    let place = |slots: &mut [u64], h: u32, c: usize| {
        let mask = slots.len() - 1;
        let mut i = h as usize & mask;
        while slots[i] != EMPTY_SLOT {
            i = (i + 1) & mask;
        }
        slots[i] = u64::from(h) << 32 | c as u64;
    };
    for t in 0..n {
        let h = row_hash(row(t));
        let mask = cap - 1;
        let mut i = h as usize & mask;
        let class = loop {
            let s = slots[i];
            if s == EMPTY_SLOT {
                break None;
            }
            if (s >> 32) as u32 == h {
                let c = s as u32;
                let rep = class_rep[c as usize] as usize;
                if row(rep)
                    .iter()
                    .zip(row(t))
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                {
                    break Some(c);
                }
            }
            i = (i + 1) & mask;
        };
        let c = match class {
            Some(c) => c,
            None => {
                let c = class_rep.len();
                class_rep.push(t as u32);
                if 4 * class_rep.len() > 3 * cap {
                    cap *= 2;
                    slots.clear();
                    slots.resize(cap, EMPTY_SLOT);
                    for (c, &rep) in class_rep.iter().enumerate() {
                        place(slots, row_hash(row(rep as usize)), c);
                    }
                } else {
                    slots[i] = u64::from(h) << 32 | c as u64;
                }
                c as u32
            }
        };
        row_class.push(c);
    }
}

/// Split-borrow view over one type's index plus the policy-wide member
/// records and (immutable) descendant tables: the index operations need
/// all of these at once while `Mqb::assign` concurrently mutates disjoint
/// scratch fields (`working`, `row`, …).
struct IndexCtx<'a> {
    k: usize,
    /// The index's type, part of every group key.
    alpha: u32,
    d: &'a [f64],
    row_class: &'a [u32],
    class_rep: &'a [u32],
    ix: &'a mut TypeIndex,
    table: &'a mut GroupTable,
    members: &'a mut [Member],
}

impl IndexCtx<'_> {
    /// Group `gid`'s key and row, read from the slab.
    fn key_row(&self, gid: u32) -> ((f64, u64), &[f64]) {
        let g = &self.ix.groups[gid as usize];
        let r = gid as usize * self.k;
        ((g.d_total, g.rem_key), &self.ix.rows[r..r + self.k])
    }

    /// `true` iff group `f`'s key dominates group `g`'s: every descendant-
    /// row entry at least as large, remaining-work key no larger, and total
    /// descendant value **strictly** larger. Because IEEE add/subtract/
    /// divide-by-positive are monotone, the first two conditions force
    /// `f`'s projected row ≥ `g`'s pointwise at *every* working state —
    /// `f`'s head then beats every member of `g` on the min and sorted-lex
    /// keys, and the strict `d_total` settles any full bitwise row tie
    /// before the seq tie-break could go the wrong way. State-free and
    /// member-free: a domination, once established, holds for the groups'
    /// whole lifetime.
    fn dominates(&self, f: u32, g: u32) -> bool {
        let ((kf, rf), (kg, rg)) = (self.key_row(f), self.key_row(g));
        dominates(kf, rf, kg, rg)
    }

    /// Debug check after each placement batch: the frontier is an
    /// antichain, the invariant that lets an orphan batch skip the
    /// surviving frontier in its demotion sweep (`remove_group`).
    fn debug_assert_antichain(&self) {
        if cfg!(debug_assertions) {
            for f in &self.ix.frontier {
                for g in &self.ix.frontier {
                    debug_assert!(
                        f.gid == g.gid || !self.dominates(f.gid, g.gid),
                        "frontier group {} dominates frontier group {}",
                        f.gid,
                        g.gid
                    );
                }
            }
        }
    }

    /// Debug check beside `debug_assert_antichain` and before each indexed
    /// pick: every frontier position's mirrored key, row, head and head
    /// seq equal its group's, and the group knows its position.
    fn debug_assert_mirrors(&self) {
        if cfg!(debug_assertions) {
            let ix = &*self.ix;
            debug_assert_eq!(ix.front_rows.len(), ix.frontier.len() * self.k);
            for (pos, (f, frow)) in ix
                .frontier
                .iter()
                .zip(ix.front_rows.chunks(self.k))
                .enumerate()
            {
                let g = &ix.groups[f.gid as usize];
                let ((d_total, rem_key), row) = self.key_row(f.gid);
                debug_assert_eq!(g.frontier_pos, pos as u32, "group {}", f.gid);
                debug_assert_eq!(
                    (f.d_total.to_bits(), f.rem_key, f.head),
                    (d_total.to_bits(), rem_key, g.head),
                    "frontier position {pos}: key or head mirror is stale"
                );
                debug_assert_eq!(f.head_seq, self.members[g.head as usize].seq);
                debug_assert!(
                    frow.iter()
                        .zip(row)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "frontier position {pos}: row mirror is stale"
                );
            }
        }
    }

    fn new_group(&mut self, class: u32, rem_key: u64, h: u32) -> u32 {
        let gid = match self.ix.free.pop() {
            Some(g) => g,
            None => {
                self.ix.groups.push(Group::default());
                self.ix.rows.resize(self.ix.groups.len() * self.k, 0.0);
                (self.ix.groups.len() - 1) as u32
            }
        };
        let (k, rep) = (self.k, self.class_rep[class as usize] as usize);
        let row = &self.d[rep * k..rep * k + k];
        self.ix.groups[gid as usize] = Group {
            d_total: row_total(row),
            rem_key,
            class,
            head: NONE,
            tail: NONE,
            witness: NONE,
            child_head: NONE,
            sib_prev: NONE,
            sib_next: NONE,
            frontier_pos: NONE,
        };
        let r = gid as usize * k;
        self.ix.rows[r..r + k].copy_from_slice(row);
        self.table.insert(h, gid);
        gid
    }

    /// Makes task `t` (or `NONE`) group `gid`'s head, mirrored into the
    /// group's frontier position if it has one.
    fn set_head(&mut self, gid: u32, t: u32) {
        let g = &mut self.ix.groups[gid as usize];
        g.head = t;
        if g.frontier_pos != NONE && t != NONE {
            let f = &mut self.ix.frontier[g.frontier_pos as usize];
            f.head = t;
            f.head_seq = self.members[t as usize].seq;
        }
    }

    /// Inserts queued candidate `t` into its group (creating the group if
    /// its key is new, and placing it once the type is placed), keeping
    /// the member list seq-ordered.
    fn insert_member(&mut self, t: usize, seq: u32, rem: u64) {
        debug_assert_eq!(self.members[t].group, NONE, "task {t} inserted twice");
        let class = self.row_class[t];
        let h = group_hash(self.alpha, class, rem);
        let groups = &self.ix.groups;
        let found = self.table.find(h, |g| {
            groups
                .get(g as usize)
                .is_some_and(|g| g.head != NONE && g.class == class && g.rem_key == rem)
        });
        let (gid, fresh) = match found {
            Some(g) => (g, false),
            None => (self.new_group(class, rem, h), true),
        };
        let Group { head, tail, .. } = self.ix.groups[gid as usize];
        let (prev, next) = if head == NONE {
            self.ix.groups[gid as usize].tail = t as u32;
            (NONE, NONE)
        } else if seq >= self.members[tail as usize].seq {
            // Releases and rebuilds arrive seq-ascending: tail append.
            self.members[tail as usize].next = t as u32;
            self.ix.groups[gid as usize].tail = t as u32;
            (tail, NONE)
        } else {
            // Re-insertion of a pending pick (or a regrouped update):
            // walk to the first member arriving after us.
            let mut c = head as usize;
            while self.members[c].seq < seq {
                c = self.members[c].next as usize;
            }
            let p = self.members[c].prev;
            self.members[c].prev = t as u32;
            if p != NONE {
                self.members[p as usize].next = t as u32;
            }
            (p, c as u32)
        };
        self.members[t] = Member {
            group: gid,
            prev,
            next,
            seq,
        };
        if prev == NONE {
            self.set_head(gid, t as u32);
        }
        self.ix.live += 1;
        if fresh && self.ix.placed {
            self.place_group(gid, NONE, 0);
            self.debug_assert_antichain();
            self.debug_assert_mirrors();
        }
    }

    /// Removes queued candidate `t` from its group; a group left empty
    /// dies (and its witnessed children are re-homed).
    fn remove_member(&mut self, t: usize) {
        let Member {
            group: gid,
            prev: p,
            next: n,
            ..
        } = self.members[t];
        debug_assert!(gid != NONE && gid != PENDING, "task {t} not in a group");
        self.members[t].group = NONE;
        if p == NONE {
            self.set_head(gid, n);
        } else {
            self.members[p as usize].next = n;
        }
        if n == NONE {
            self.ix.groups[gid as usize].tail = p;
        } else {
            self.members[n as usize].prev = p;
        }
        self.ix.live -= 1;
        if self.ix.groups[gid as usize].head == NONE {
            self.remove_group(gid);
        }
    }

    fn attach_child(&mut self, w: u32, c: u32) {
        let old_head = self.ix.groups[w as usize].child_head;
        {
            let gc = &mut self.ix.groups[c as usize];
            gc.witness = w;
            gc.frontier_pos = NONE;
            gc.sib_prev = NONE;
            gc.sib_next = old_head;
        }
        if old_head != NONE {
            self.ix.groups[old_head as usize].sib_prev = c;
        }
        self.ix.groups[w as usize].child_head = c;
    }

    fn detach_child(&mut self, c: u32) {
        let (w, sp, sn) = {
            let gc = &self.ix.groups[c as usize];
            (gc.witness, gc.sib_prev, gc.sib_next)
        };
        if sp == NONE {
            self.ix.groups[w as usize].child_head = sn;
        } else {
            self.ix.groups[sp as usize].sib_next = sn;
        }
        if sn != NONE {
            self.ix.groups[sn as usize].sib_prev = sp;
        }
        let gc = &mut self.ix.groups[c as usize];
        gc.witness = NONE;
        gc.sib_prev = NONE;
        gc.sib_next = NONE;
    }

    fn frontier_push(&mut self, gid: u32) {
        let g = &mut self.ix.groups[gid as usize];
        g.frontier_pos = self.ix.frontier.len() as u32;
        self.ix.frontier.push(Front {
            d_total: g.d_total,
            rem_key: g.rem_key,
            gid,
            head: g.head,
            head_seq: self.members[g.head as usize].seq,
        });
        let r = gid as usize * self.k;
        self.ix
            .front_rows
            .extend_from_slice(&self.ix.rows[r..r + self.k]);
    }

    fn frontier_swap_remove(&mut self, pos: usize) {
        let k = self.k;
        let ix = &mut *self.ix;
        ix.frontier.swap_remove(pos);
        let last = ix.frontier.len();
        if pos < last {
            ix.groups[ix.frontier[pos].gid as usize].frontier_pos = pos as u32;
            ix.front_rows.copy_within(last * k..last * k + k, pos * k);
        }
        ix.front_rows.truncate(last * k);
    }

    /// Places a detached group: under `hint` (a live group, or `NONE`) if
    /// it dominates, else under the first frontier dominator found, else
    /// onto the frontier — demoting the frontier groups from position
    /// `sweep_from` on that the newcomer dominates (they keep their own
    /// children; a demoted group's witness chain stays valid because every
    /// witness stays live). Returns the new witness, `NONE` when the group
    /// joined the frontier. Both frontier scans stream `frontier` and
    /// `front_rows`; only the newcomer's key and row come from the slab.
    fn place_group(&mut self, gid: u32, hint: u32, sweep_from: usize) -> u32 {
        // Transitivity: dominated by a witness means `gid` cannot dominate
        // anything the witness doesn't already — no sweep needed.
        if hint != NONE && self.dominates(hint, gid) {
            self.attach_child(hint, gid);
            return hint;
        }
        let dominator = {
            let (key, row) = self.key_row(gid);
            let ix = &*self.ix;
            ix.frontier
                .iter()
                .zip(ix.front_rows.chunks_exact(self.k))
                .find(|(f, frow)| dominates((f.d_total, f.rem_key), frow, key, row))
                .map(|(f, _)| f.gid)
        };
        if let Some(f) = dominator {
            self.attach_child(f, gid);
            return f;
        }
        self.frontier_push(gid);
        let mut i = sweep_from;
        while i < self.ix.frontier.len() {
            let f = self.ix.frontier[i];
            let beaten = f.gid != gid && {
                let (key, row) = self.key_row(gid);
                let frow = &self.ix.front_rows[i * self.k..(i + 1) * self.k];
                dominates(key, row, (f.d_total, f.rem_key), frow)
            };
            if beaten {
                self.frontier_swap_remove(i);
                self.attach_child(gid, f.gid);
            } else {
                i += 1;
            }
        }
        NONE
    }

    /// Places every live group of a type whose rounds have not needed the
    /// index so far, in slab order, each with a full frontier scan and
    /// sweep. The frontier is the Pareto set of the placed groups whatever
    /// the placement order, so deferring placement changes no pick and no
    /// counter.
    fn place_deferred(&mut self) {
        self.ix.placed = true;
        for gid in 0..self.ix.groups.len() as u32 {
            if self.ix.groups[gid as usize].head != NONE {
                self.place_group(gid, NONE, 0);
            }
        }
        self.debug_assert_antichain();
        self.debug_assert_mirrors();
    }

    /// Retires an empty group. Frontier death re-places each witnessed
    /// child; interior death splices the children to the dead group's own
    /// witness (valid by transitivity through the dead group's frozen
    /// keys); an unplaced group has neither witness nor children.
    ///
    /// Re-placing the orphans of a frontier group `g` is cheaper than a
    /// fresh placement twice over. The frontier is an antichain, and an
    /// orphan dominating a surviving frontier group `f` would make `g`
    /// dominate `f` by transitivity — so an orphan's demotion sweep covers
    /// only the orphans promoted in the same batch, which sit at the
    /// frontier's tail. And siblings tend to dominate one another or share
    /// a dominator: each orphan first tries the previous orphan, then the
    /// witness the previous one found. A sibling witness also keeps the
    /// orphan off the dead-frontier path next time: when an interior
    /// witness dies, its children are spliced, not re-placed.
    fn remove_group(&mut self, gid: u32) {
        let Group {
            class,
            rem_key,
            frontier_pos: fpos,
            witness,
            child_head: mut c,
            ..
        } = self.ix.groups[gid as usize];
        self.table
            .remove(group_hash(self.alpha, class, rem_key), gid);
        if fpos != NONE {
            self.frontier_swap_remove(fpos as usize);
            let batch = self.ix.frontier.len();
            let (mut prev, mut hint) = (NONE, NONE);
            while c != NONE {
                let next = self.ix.groups[c as usize].sib_next;
                {
                    let gc = &mut self.ix.groups[c as usize];
                    gc.witness = NONE;
                    gc.sib_prev = NONE;
                    gc.sib_next = NONE;
                }
                let w = if prev != NONE && self.dominates(prev, c) {
                    self.attach_child(prev, c);
                    prev
                } else {
                    self.place_group(c, hint, batch)
                };
                if w != NONE {
                    hint = w;
                }
                prev = c;
                c = next;
            }
            self.debug_assert_antichain();
            self.debug_assert_mirrors();
        } else if witness != NONE {
            self.detach_child(gid);
            while c != NONE {
                let next = self.ix.groups[c as usize].sib_next;
                self.attach_child(witness, c);
                c = next;
            }
        } else {
            debug_assert!(
                !self.ix.placed && c == NONE,
                "placed group {gid} off the order"
            );
        }
        self.ix.groups[gid as usize].child_head = NONE;
        self.ix.free.push(gid);
    }

    /// Takes preemptive pick `t` out of its group to wait in the pending
    /// list, carrying its remaining work (the group's key): the pick stays
    /// queued, but until the next epoch only its remaining work can change
    /// (or it completes).
    fn hold_pending(&mut self, t: usize) {
        let rem = self.ix.groups[self.members[t].group as usize].rem_key;
        self.remove_member(t);
        let m = &mut self.members[t];
        m.group = PENDING;
        m.prev = self.ix.pending.len() as u32;
        self.ix.pending.push((t as u32, rem));
        self.ix.pending_live += 1;
    }

    /// Re-inserts each still-queued pending pick once, with its current
    /// remaining work.
    fn reinsert_pending(&mut self) {
        for i in 0..self.ix.pending.len() {
            let (t, rem) = self.ix.pending[i];
            let t = t as usize;
            let m = self.members[t];
            if m.group == PENDING {
                self.members[t].group = NONE;
                self.insert_member(t, m.seq, rem);
            }
        }
        self.ix.pending.clear();
        self.ix.pending_live = 0;
    }
}

impl JournalIndex for IndexCtx<'_> {
    fn contains(&self, t: usize) -> bool {
        // Non-preemptive picks on the indexed path remove their member
        // ahead of the journal's `Removed`; pending picks are held.
        self.members[t].group != NONE
    }

    fn insert(&mut self, rt: ReadyTask) {
        self.insert_member(rt.id.index(), seq32(rt.seq), rt.remaining);
    }

    fn remove(&mut self, t: usize) {
        if self.members[t].group == PENDING {
            self.members[t].group = NONE;
            self.ix.pending_live -= 1;
        } else {
            self.remove_member(t);
        }
    }

    fn update(&mut self, t: usize, remaining: u64) {
        let m = self.members[t];
        if m.group != PENDING {
            // Remaining work is part of the group key: regroup under the
            // new value.
            self.remove_member(t);
            self.insert_member(t, m.seq, remaining);
        } else {
            // A pending pick is regrouped once, when the sync re-inserts
            // it.
            self.ix.pending[m.prev as usize].1 = remaining;
        }
    }

    fn live(&self) -> usize {
        self.ix.live + self.ix.pending_live
    }
}

/// The descendant matrix MQB ranks by, row-major (`task × K`): the
/// bundle's own matrix under the default model (held for one run), or a
/// retained buffer for the perturbed and one-step models, which derive
/// their own values.
#[derive(Clone, Debug, Default)]
struct DescTable {
    shared: Option<Arc<DescendantValues>>,
    own: Vec<f64>,
}

impl Deref for DescTable {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.shared {
            Some(d) => d.values(),
            None => &self.own,
        }
    }
}

/// The Multi-Queue Balancing policy. See the module docs.
#[derive(Clone, Debug)]
pub struct Mqb {
    info: InfoModel,
    /// MQB-Approx's candidate cap; `None` is the exact algorithm.
    approx_cap: Option<usize>,
    k: usize,
    /// Per-type descendant values (perturbed under a noisy model). A
    /// task's tie-break total is summed from its row where it is read
    /// (`row_total`).
    d: DescTable,
    // Scratch buffers, reused across epochs and across runs (the runner
    // keeps policy values warm per worker); each is cleared where used.
    working: Vec<f64>,
    taken: Vec<bool>,
    snap: Vec<ReadyTask>,
    /// The candidates' descendant rows gathered contiguously
    /// (`candidate × K`) once per α-round: the per-pick evaluation streams
    /// these instead of striding through the full `d` matrix.
    erows: Vec<f64>,
    /// Projected x-utilization row of the candidate under evaluation.
    row: Vec<f64>,
    /// Projected row of the best candidate so far this pick.
    best_row: Vec<f64>,
    /// Ascending-sorted balance vector of the candidate (built only on
    /// min-ties; see `assign`).
    cand_sorted: Vec<f64>,
    /// Ascending-sorted balance vector of the current best (built lazily).
    best_sorted: Vec<f64>,
    /// Processor count per type as `f64` (an exact conversion), filled
    /// once per `assign` for the per-candidate divisions.
    procs_f: Vec<f64>,
    // --- Incremental dominance-pruned index (DESIGN.md §14). ---
    /// Row-class of each task: tasks with bitwise-identical descendant
    /// rows share a class.
    row_class: Vec<u32>,
    /// One representative task per class (for reading the class's row and
    /// its total — identical bits for every member by construction).
    class_rep: Vec<u32>,
    /// The groups' key table; its buffer is `label_row_classes`' scratch
    /// at `init`.
    groups: GroupTable,
    /// Per-type index over the queued candidates.
    idx: Vec<TypeIndex>,
    /// Member records, task-indexed: the exact index's groups, or
    /// MQB-Approx's rank buckets.
    members: Vec<Member>,
    /// Per-type journal cursor — how far into each queue's change-journal
    /// the index has replayed.
    cursor: Vec<Cursor>,
    /// Forces a cold index rebuild from the queues at the next `assign`
    /// (set on init/attach/reset; cleared by the rebuild).
    need_rebuild: bool,
    /// Selection-work counters, harvested via
    /// [`Policy::take_selection_stats`].
    sel: SelectionStats,
    // --- Bounded-candidate approximation (MQB-Approx). ---
    /// Per-type candidate order, journal-fed.
    approx_order: Vec<ApproxOrder>,
    /// Each queued candidate's remaining work, task-indexed: the rank
    /// buckets do not group by it. Empty for exact MQB.
    approx_rem: Vec<u64>,
    /// Each row class's `d_total` rank: 0 for the largest value
    /// (`total_cmp`), equal values sharing a rank. Built at the first
    /// contested round after `init`, from one sort over the classes.
    class_rank: Vec<u32>,
    /// Distinct `d_total` values, i.e. ranks; `None` until `class_rank`
    /// is built for the current descendant values.
    num_ranks: Option<usize>,
    /// Packed 16-byte sort keys, an index in their low 32 bits: the
    /// classes' `d_total` ranking, and each window segment's grouping (row
    /// class, rem key, window position).
    approx_keys: Vec<u128>,
    /// Window position where each bucket's segment of the window starts,
    /// then the window length.
    approx_segs: Vec<u32>,
    /// Window-local group id of each window position: positions with the
    /// same `(row class, dominance remaining-work key)` — bitwise-identical
    /// projected rows at every working state — share a group, mirroring
    /// the exact index's grouping (DESIGN.md §14) for one α-round.
    approx_group: Vec<u32>,
    /// Next window position in the same group (`NONE` at each group's
    /// tail); members chain in window order, i.e. seq-ascending.
    approx_next: Vec<u32>,
    /// Each group's live head: its earliest untaken window position
    /// (`NONE` once the group is exhausted). Only live heads duel.
    approx_live: Vec<u32>,
    /// Each window position's dominance key `(d_total, rem_key)`, mirrored
    /// beside `erows` so dominance tests read no per-task table.
    approx_dom: Vec<(f64, u64)>,
    /// The frontier's window positions (one member per group) — the only
    /// groups a new or orphaned group must be checked against.
    approx_front: Vec<u32>,
    /// Head of each group's dominated-children list (`NONE` when none):
    /// the groups holding this one as their dominance witness, re-homed
    /// in O(children) when the witness group exhausts.
    approx_kid_head: Vec<u32>,
    /// Sibling link of the children lists (each group has at most one
    /// dominance parent, so one link per group suffices).
    approx_kid_next: Vec<u32>,
    /// Scratch worklist for draining a dead witness's children.
    approx_orphans: Vec<u32>,
}

impl Default for Mqb {
    fn default() -> Self {
        Mqb::new(InfoModel::default())
    }
}

impl Mqb {
    /// Creates MQB, the paper's exact algorithm, with the given
    /// information model.
    pub fn new(info: InfoModel) -> Self {
        Mqb {
            info,
            approx_cap: None,
            k: 0,
            d: DescTable::default(),
            working: Vec::new(),
            taken: Vec::new(),
            snap: Vec::new(),
            erows: Vec::new(),
            row: Vec::new(),
            best_row: Vec::new(),
            cand_sorted: Vec::new(),
            best_sorted: Vec::new(),
            procs_f: Vec::new(),
            row_class: Vec::new(),
            class_rep: Vec::new(),
            groups: GroupTable::default(),
            idx: Vec::new(),
            members: Vec::new(),
            cursor: Vec::new(),
            need_rebuild: true,
            sel: SelectionStats::default(),
            approx_order: Vec::new(),
            approx_rem: Vec::new(),
            class_rank: Vec::new(),
            num_ranks: None,
            approx_keys: Vec::new(),
            approx_segs: Vec::new(),
            approx_group: Vec::new(),
            approx_next: Vec::new(),
            approx_live: Vec::new(),
            approx_dom: Vec::new(),
            approx_front: Vec::new(),
            approx_kid_head: Vec::new(),
            approx_kid_next: Vec::new(),
            approx_orphans: Vec::new(),
        }
    }

    /// Creates MQB-Approx with the given information model: each
    /// contested pick evaluates at most [`DEFAULT_APPROX_CAP`] candidates
    /// — the top ones untaken by the cheap priority (total descendant
    /// value descending, then arrival) — instead of the exact
    /// dominance-pruned selection.
    pub fn approx(info: InfoModel) -> Self {
        Mqb {
            approx_cap: Some(DEFAULT_APPROX_CAP),
            ..Mqb::new(info)
        }
    }

    /// The active information model.
    pub fn info(&self) -> InfoModel {
        self.info
    }

    /// The (possibly perturbed) per-type descendant row MQB is using for
    /// task `v`; populated by [`Policy::init`]. Exposed for inspection in
    /// tests and ablations.
    #[inline]
    pub fn d_row(&self, v: TaskId) -> &[f64] {
        &self.d[v.index() * self.k..(v.index() + 1) * self.k]
    }

    /// Projects `rt` being scheduled: its work leaves its queue, its
    /// descendant values are promised to every queue.
    fn apply_projection(&mut self, alpha: usize, rt: &ReadyTask) {
        self.working[alpha] -= rt.remaining as f64;
        let row_start = rt.id.index() * self.k;
        let row = &self.d[row_start..row_start + self.k];
        for (w, &x) in self.working.iter_mut().zip(row) {
            *w += x;
        }
    }

    /// Shared tail of every init path: applies the information-model
    /// perturbation to the (raw) descendant matrix and labels its row
    /// classes. The perturbation consumes the seeded RNG in
    /// exactly the same sequence regardless of where `d` came from, so
    /// artifact-backed and cold initializations are bit-identical.
    fn finish_init(&mut self, job: &KDag, seed: u64) {
        self.k = job.num_types();

        match self.info.accuracy {
            Accuracy::Precise => {}
            Accuracy::Exponential => {
                let mut rng = StdRng::seed_from_u64(seed);
                for v in &mut self.d.own {
                    if *v > 0.0 {
                        // Inverse-CDF exponential with mean *v.
                        let u: f64 = rng.gen_range(0.0..1.0);
                        *v = -*v * (1.0 - u).ln();
                    }
                }
            }
            Accuracy::Noisy => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mean_work = if job.num_tasks() == 0 {
                    0.0
                } else {
                    job.total_work() as f64 / job.num_tasks() as f64
                };
                for v in &mut self.d.own {
                    let mult: f64 = rng.gen_range(0.5..1.5);
                    let add: f64 = if mean_work > 0.0 {
                        rng.gen_range(0.0..mean_work)
                    } else {
                        0.0
                    };
                    *v = *v * mult + add;
                }
            }
        }

        // Class table for the incremental index: tasks with bitwise-
        // identical descendant rows share a class (and therefore identical
        // projected rows at every working state — the grouping the index's
        // dominance frontier is built over).
        label_row_classes(
            &self.d,
            (job.num_tasks(), self.k),
            &mut self.row_class,
            &mut self.class_rep,
            &mut self.groups.slots,
        );
        self.num_ranks = None;

        self.need_rebuild = true;
        self.sel = SelectionStats::default();
    }

    /// Brings the incremental index up to date with this epoch's queues:
    /// replays each queue's change-journal from the remembered cursor, or
    /// rebuilds cold from queue snapshots when the policy was (re)attached
    /// or the journal doesn't account for the queues (hand-built views).
    fn sync_index(&mut self, view: &EpochView<'_>) {
        let k = self.k;
        if !self.need_rebuild {
            let mut accounted = true;
            for alpha in 0..k {
                let mut cx = IndexCtx {
                    k,
                    alpha: alpha as u32,
                    d: &self.d,
                    row_class: &self.row_class,
                    class_rep: &self.class_rep,
                    ix: &mut self.idx[alpha],
                    table: &mut self.groups,
                    members: &mut self.members,
                };
                accounted &= self.cursor[alpha].replay(
                    &view.queues[alpha],
                    &mut cx,
                    &mut self.sel.diff_events,
                );
                cx.reinsert_pending();
            }
            // Defense-in-depth: a view whose queues the journal doesn't
            // explain (hand-built in tests) forces a cold rebuild.
            if !accounted {
                self.need_rebuild = true;
            }
        }
        if self.need_rebuild {
            self.rebuild_index(view);
            self.need_rebuild = false;
        }
    }

    /// Cold rebuild: resets the member arrays, the group table and every
    /// type's index, then reinserts all queued candidates from the view's
    /// queues.
    fn rebuild_index(&mut self, view: &EpochView<'_>) {
        self.sel.cold_snapshots += 1;
        let k = self.k;
        let n = view.job.num_tasks();
        self.members.clear();
        self.members.resize(n, Member::EMPTY);
        self.groups.reset();
        for ix in &mut self.idx {
            ix.clear();
        }
        // Never shrink `idx`/`cursor`: truncating would drop warm capacity
        // (the alloc-regression contract covers machine-shape hopping).
        if self.idx.len() < k {
            self.idx.resize_with(k, TypeIndex::default);
        }
        if self.cursor.len() < k {
            self.cursor.resize(k, Cursor::default());
        }
        for alpha in 0..k {
            let q = &view.queues[alpha];
            {
                let mut cx = IndexCtx {
                    k,
                    alpha: alpha as u32,
                    d: &self.d,
                    row_class: &self.row_class,
                    class_rep: &self.class_rep,
                    ix: &mut self.idx[alpha],
                    table: &mut self.groups,
                    members: &mut self.members,
                };
                for rt in q.iter() {
                    cx.insert_member(rt.id.index(), seq32(rt.seq), rt.remaining);
                }
            }
            self.cursor[alpha].seek_end(q);
        }
    }

    /// MQB-Approx's counterpart of `sync_index`: replays each active
    /// type's journal into its candidate order. After (re)attach, or when
    /// the journal does not explain a queue, every type drops back to
    /// inactive, and each type's next contested round builds its order
    /// cold.
    fn sync_orders(&mut self, view: &EpochView<'_>) {
        let k = self.k;
        if !self.need_rebuild {
            for (alpha, order) in self.approx_order[..k].iter_mut().enumerate() {
                if !order.active {
                    continue;
                }
                let mut cursor = order.cursor;
                let mut cx = OrderCtx {
                    order,
                    members: &mut self.members,
                    rem: &mut self.approx_rem,
                    row_class: &self.row_class,
                    class_rank: &self.class_rank,
                };
                self.need_rebuild |=
                    !cursor.replay(&view.queues[alpha], &mut cx, &mut self.sel.diff_events);
                order.cursor = cursor;
            }
        }
        if self.need_rebuild {
            self.need_rebuild = false;
            let n = view.job.num_tasks();
            self.members.clear();
            self.members.resize(n, Member::EMPTY);
            self.approx_rem.clear();
            self.approx_rem.resize(n, 0);
            // Never shrink: truncating would drop warm capacity.
            if self.approx_order.len() < k {
                self.approx_order.resize_with(k, ApproxOrder::default);
            }
            for order in &mut self.approx_order {
                order.active = false;
            }
        }
    }

    /// Builds type `alpha`'s candidate order cold from its queue (the
    /// type's first contested round since attach, or the journal lost
    /// track), ranking the row classes first if this init has not.
    fn activate_order(&mut self, view: &EpochView<'_>, alpha: usize) {
        let ranks = match self.num_ranks {
            Some(r) => r,
            None => self.rank_classes(),
        };
        let q = &view.queues[alpha];
        let mut cx = OrderCtx {
            order: &mut self.approx_order[alpha],
            members: &mut self.members,
            rem: &mut self.approx_rem,
            row_class: &self.row_class,
            class_rank: &self.class_rank,
        };
        cx.order.reset(ranks);
        for rt in q.iter() {
            cx.insert(*rt);
        }
        cx.order.cursor.seek_end(q);
        cx.order.active = true;
        self.sel.cold_snapshots += 1;
    }

    /// Ranks the row classes by their total, descending in `total_cmp`
    /// order, equal values sharing a rank: one sort over the classes,
    /// not the tasks, paid only by a policy with a contested round.
    /// Returns the number of ranks.
    fn rank_classes(&mut self) -> usize {
        let (d, k, keys) = (&self.d, self.k, &mut self.approx_keys);
        keys.clear();
        keys.extend(self.class_rep.iter().enumerate().map(|(c, &rep)| {
            let rep = rep as usize;
            (!key_image(row_total(&d[rep * k..rep * k + k])) as u128) << 64 | c as u128
        }));
        keys.sort_unstable();
        self.class_rank.clear();
        self.class_rank.resize(keys.len(), 0);
        let mut rank = 0;
        for (i, &key) in keys.iter().enumerate() {
            if i > 0 && key >> 64 != keys[i - 1] >> 64 {
                rank += 1;
            }
            self.class_rank[key as u32 as usize] = rank;
        }
        let ranks = if keys.is_empty() {
            0
        } else {
            rank as usize + 1
        };
        self.num_ranks = Some(ranks);
        ranks
    }
}

/// Lexicographic comparison of sorted balance vectors; `Greater` means
/// better balanced (paper §IV-A: `R_A > R_B` iff there is a position `j`
/// with `r_{πA(j)} > r_{πB(j)}` and equality before it).
pub fn cmp_balance(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Fills `dst` with `src` sorted ascending by `total_cmp`: an insertion
/// sort, the fastest for a K-entry row. `total_cmp` is a total order on
/// bit patterns, so every correct sort yields the same bits.
fn sorted_into(dst: &mut Vec<f64>, src: &[f64]) {
    dst.clear();
    dst.extend_from_slice(src);
    for i in 1..dst.len() {
        let x = dst[i];
        let mut j = i;
        while j > 0 && x.total_cmp(&dst[j - 1]).is_lt() {
            dst[j] = dst[j - 1];
            j -= 1;
        }
        dst[j] = x;
    }
}

/// Scratch for one pick's selection ladder: the incumbent's projected row,
/// the lazily built ascending sorts, and the incumbent's tie-break keys.
/// Shared by the flat scan, the indexed path, and the approximation so a
/// single comparison sequence decides every duel — the paths are
/// bit-identical by construction, not by parallel maintenance.
struct Duel<'a> {
    row: &'a mut Vec<f64>,
    best_row: &'a mut Vec<f64>,
    cand_sorted: &'a mut Vec<f64>,
    best_sorted: &'a mut Vec<f64>,
    best_sorted_valid: bool,
    best_min: f64,
    /// The type at which the incumbent's projected row takes `best_min`.
    best_type: usize,
    best_dt: f64,
    best_seq: u64,
    /// Winner so far (caller-defined identifier); `NONE` before the first
    /// challenger.
    best: u32,
}

impl<'a> Duel<'a> {
    fn new(
        row: &'a mut Vec<f64>,
        best_row: &'a mut Vec<f64>,
        cand_sorted: &'a mut Vec<f64>,
        best_sorted: &'a mut Vec<f64>,
    ) -> Duel<'a> {
        Duel {
            row,
            best_row,
            cand_sorted,
            best_sorted,
            best_sorted_valid: false,
            best_min: 0.0,
            best_type: 0,
            best_dt: 0.0,
            best_seq: 0,
            best: NONE,
        }
    }

    /// Reject-first projection of a challenger whose descendant row is
    /// `drow`: its projected x-utilization row (working value plus
    /// descendant promise, minus `own_work` at type `own_type`, over the
    /// processor count) lands in `self.row`, and its minimum is returned
    /// — or `None` once the challenger provably loses on the minimum.
    ///
    /// The value at the incumbent's `best_type` comes first: strictly
    /// below `best_min`, it bounds the challenger's minimum below the
    /// incumbent's, and one division settles the duel. Otherwise each
    /// remaining type is computed once, and a minimum strictly below
    /// `best_min` rejects. Both rejects are strict: a bitwise tie on the
    /// minimum goes on to the sorted-lex comparison in `challenge`. The
    /// per-type floating-point order is the naive algorithm's (add,
    /// optional subtract, divide), and `total_cmp`'s minimum is one bit
    /// pattern whatever the visiting order, so every value is bit-identical.
    #[inline]
    fn project(
        &mut self,
        working: &[f64],
        procs: &[f64],
        drow: &[f64],
        own_type: usize,
        own_work: f64,
    ) -> Option<f64> {
        let k = procs.len();
        let (working, drow, row) = (&working[..k], &drow[..k], &mut self.row[..k]);
        let load = |beta: usize| {
            let mut l = working[beta] + drow[beta];
            if beta == own_type {
                l -= own_work;
            }
            l / procs[beta]
        };
        let (first, at_first) = if self.best == NONE {
            (0, load(0))
        } else {
            let b = self.best_type;
            let x = load(b);
            if x.total_cmp(&self.best_min).is_lt() {
                return None;
            }
            (b, x)
        };
        let mut mn = at_first;
        for (beta, r) in row.iter_mut().enumerate() {
            let x = if beta == first { at_first } else { load(beta) };
            *r = x;
            if x.total_cmp(&mn).is_lt() {
                mn = x;
            }
        }
        (self.best == NONE || !mn.total_cmp(&self.best_min).is_lt()).then_some(mn)
    }

    /// Challenges the incumbent with the candidate whose projected row is
    /// currently in `self.row` (its minimum pre-computed as `mn`), with
    /// tie-break keys `dt` (total descendant value) and `seq`. On a win the
    /// candidate (identified by `who`) becomes the incumbent. The
    /// comparison sequence — min via `total_cmp`, sorted-lex on bitwise
    /// min-ties, then larger `d_total`, then earlier arrival — is exactly
    /// the naive algorithm's.
    fn challenge(&mut self, who: u32, mn: f64, dt: f64, seq: u64) {
        let mut cand_sorted_built = false;
        let better = if self.best == NONE {
            true
        } else {
            match mn.total_cmp(&self.best_min) {
                std::cmp::Ordering::Less => false,
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => {
                    // Sorted-lex vectors agree at position 0 (total_cmp
                    // equality is bitwise); compare the rest.
                    if !self.best_sorted_valid {
                        sorted_into(self.best_sorted, self.best_row);
                        self.best_sorted_valid = true;
                    }
                    sorted_into(self.cand_sorted, self.row);
                    cand_sorted_built = true;
                    match cmp_balance(self.cand_sorted, self.best_sorted) {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Less => false,
                        std::cmp::Ordering::Equal => {
                            // Tie-break: larger total descendant value,
                            // then earlier arrival.
                            match dt.total_cmp(&self.best_dt) {
                                std::cmp::Ordering::Greater => true,
                                std::cmp::Ordering::Less => false,
                                std::cmp::Ordering::Equal => seq < self.best_seq,
                            }
                        }
                    }
                }
            }
        };
        if better {
            self.best = who;
            self.best_min = mn;
            self.best_dt = dt;
            self.best_seq = seq;
            std::mem::swap(self.best_row, self.row);
            self.best_type = self
                .best_row
                .iter()
                .position(|x| x.total_cmp(&mn).is_eq())
                .unwrap_or(0);
            if cand_sorted_built {
                std::mem::swap(self.best_sorted, self.cand_sorted);
                self.best_sorted_valid = true;
            } else {
                self.best_sorted_valid = false;
            }
        }
    }
}

/// One-step descendant values: type-`α` work of immediate children only,
/// split across their parents. Fills `d` in place, so a warm re-init
/// reuses its allocation.
fn one_step_descendants(job: &KDag, d: &mut Vec<f64>) {
    let k = job.num_types();
    d.clear();
    d.resize(job.num_tasks() * k, 0.0);
    for v in job.tasks() {
        let row = v.index() * k;
        for &u in job.children(v) {
            let pr = job.num_parents(u) as f64;
            d[row + job.rtype(u)] += job.work(u) as f64 / pr;
        }
    }
}

impl Mqb {
    /// Contested round, flat path: evaluates every untaken candidate per
    /// pick. Exact, and fastest below [`INDEX_CROSSOVER`].
    ///
    /// Gather the candidates' descendant rows contiguously once (a pure
    /// copy, so every value is bit-identical to indexing `d` directly),
    /// then evaluate each pick by streaming over `erows` through the
    /// reject-first kernel the indexed path uses ([`Duel::project`]): a
    /// candidate's projected row is recomputed fresh from the current
    /// working vector — the exact computation the naive algorithm
    /// performs — and only candidates that can win or tie on the minimum
    /// reach the sorted-lex ladder in [`Duel::challenge`]. Every untaken
    /// candidate counts as evaluated, rejected or not.
    fn assign_flat(
        &mut self,
        view: &EpochView<'_>,
        alpha: usize,
        slots: usize,
        out: &mut Assignments,
    ) {
        let k = self.k;
        view.queues[alpha].collect_into(&mut self.snap);
        let m = self.snap.len();
        self.taken.clear();
        self.taken.resize(m, false);
        self.erows.clear();
        let d: &[f64] = &self.d;
        for rt in &self.snap {
            let row_start = rt.id.index() * k;
            self.erows.extend_from_slice(&d[row_start..row_start + k]);
        }
        self.row.clear();
        self.row.resize(k, 0.0);
        self.best_row.clear();
        self.best_row.resize(k, 0.0);

        for _ in 0..slots {
            let mut duel = Duel::new(
                &mut self.row,
                &mut self.best_row,
                &mut self.cand_sorted,
                &mut self.best_sorted,
            );
            let mut evaluated = 0u64;
            let cands = self.snap.iter().zip(self.erows.chunks_exact(k));
            for (qi, ((rt, erow), &taken)) in cands.zip(&self.taken).enumerate() {
                if taken {
                    continue;
                }
                evaluated += 1;
                let own = rt.remaining as f64;
                if let Some(mn) = duel.project(&self.working, &self.procs_f, erow, alpha, own) {
                    duel.challenge(qi as u32, mn, row_total(erow), rt.seq);
                }
            }
            assert_ne!(duel.best, NONE, "queue longer than slots");
            let bqi = duel.best as usize;
            self.taken[bqi] = true;
            let rt = self.snap[bqi];
            out.push(alpha, rt.id);
            self.sel.candidates_evaluated += evaluated;
            self.apply_projection(alpha, &rt);
        }
    }

    /// Contested round, indexed path: evaluates only the dominance-frontier
    /// group heads — provably the only candidates that can win the pick
    /// (DESIGN.md §14) — with the same ladder as the flat scan, so the
    /// chosen task is bit-identical. The first such round on a type places
    /// its deferred groups. Evaluation streams the frontier's mirrored
    /// keys, heads and rows. Picks update the index directly (the queue
    /// itself is untouched until the engine acts on the choices).
    fn assign_indexed(
        &mut self,
        view: &EpochView<'_>,
        alpha: usize,
        slots: usize,
        out: &mut Assignments,
    ) {
        let k = self.k;
        self.row.clear();
        self.row.resize(k, 0.0);
        self.best_row.clear();
        self.best_row.resize(k, 0.0);
        let mut cx = IndexCtx {
            k,
            alpha: alpha as u32,
            d: &self.d,
            row_class: &self.row_class,
            class_rep: &self.class_rep,
            ix: &mut self.idx[alpha],
            table: &mut self.groups,
            members: &mut self.members,
        };
        if !cx.ix.placed {
            cx.place_deferred();
        }

        for _ in 0..slots {
            cx.debug_assert_mirrors();
            let mut duel = Duel::new(
                &mut self.row,
                &mut self.best_row,
                &mut self.cand_sorted,
                &mut self.best_sorted,
            );
            let ix = &*cx.ix;
            for (fi, (f, frow)) in ix
                .frontier
                .iter()
                .zip(ix.front_rows.chunks_exact(k))
                .enumerate()
            {
                // `rem_key` is the head's remaining work.
                let own = f.rem_key as f64;
                if let Some(mn) = duel.project(&self.working, &self.procs_f, frow, alpha, own) {
                    duel.challenge(fi as u32, mn, f.d_total, u64::from(f.head_seq));
                }
            }
            assert_ne!(duel.best, NONE, "queue longer than slots");
            let pos = duel.best as usize;
            let t = ix.frontier[pos].head as usize;
            out.push(alpha, TaskId::from_index(t));
            let evaluated = ix.frontier.len() as u64;
            self.sel.candidates_evaluated += evaluated;
            self.sel.candidates_pruned += ix.live as u64 - evaluated;
            // The projection, inlined (`apply_projection` would re-borrow
            // all of `self` while `cx` holds the index); the winner's row
            // is its class's row and its remaining work its group's key,
            // bit for bit.
            self.working[alpha] -= ix.frontier[pos].rem_key as f64;
            for (w, &x) in self.working.iter_mut().zip(&ix.front_rows[pos * k..]) {
                *w += x;
            }
            // Preemptive picks stay queued (the engine progresses rather
            // than starts them): they wait outside the index until the
            // next sync re-inserts them.
            if view.preemptive {
                cx.hold_pending(t);
            } else {
                cx.remove_member(t);
            }
        }
    }

    /// A live window group dominating the group of window position `j`:
    /// `prev`, then `hint` (each a live group or `NONE`), then the first
    /// live front group that does; `NONE` if none does. Tried in that
    /// order because neighbouring groups tend to dominate one another or
    /// share a dominator, and a witness off the front is never orphaned
    /// (only front groups are picked from, so only they die).
    fn approx_witness(&self, j: usize, prev: u32, hint: u32) -> u32 {
        let k = self.k;
        let (dom_keys, erows) = (&self.approx_dom, &self.erows);
        let beats = |i: usize| {
            dominates(
                dom_keys[i],
                &erows[i * k..i * k + k],
                dom_keys[j],
                &erows[j * k..j * k + k],
            )
        };
        if let Some(h) = [prev, hint]
            .into_iter()
            .find(|&h| h != NONE && beats(self.approx_live[h as usize] as usize))
        {
            return h;
        }
        self.approx_front
            .iter()
            .find(|&&i| {
                let fg = self.approx_group[i as usize] as usize;
                self.approx_live[fg] != NONE && beats(i as usize)
            })
            .map_or(NONE, |&i| self.approx_group[i as usize])
    }

    /// Contested round, bounded-candidate approximation (`MQB-Approx`):
    /// ranks the round's candidates once by the cheap priority — total
    /// descendant value descending, then arrival — and evaluates at most
    /// `cap` untaken candidates per pick with the exact selection ladder.
    fn assign_approx(
        &mut self,
        view: &EpochView<'_>,
        alpha: usize,
        slots: usize,
        cap: usize,
        out: &mut Assignments,
    ) {
        let k = self.k;
        let cap = cap.max(1);
        let m = view.queues[alpha].len();
        if !self.approx_order[alpha].active {
            self.activate_order(view, alpha);
        }
        // Only the first `cap + slots - 1` candidates in priority order are
        // ever reachable: pick `i` stops after `cap` untaken evaluations,
        // and the `i` tasks taken before it all sit in that same prefix.
        // So reading just that prefix off the journal-fed order is pick-
        // and counter-identical to ranking the round's whole queue, and
        // the descendant rows need mirroring only for the prefix. At Huge
        // scale the queue dwarfs `cap + slots` by two orders of magnitude.
        let l = m.min(cap + slots - 1);
        self.snap.clear();
        self.erows.clear();
        self.approx_dom.clear();
        self.approx_segs.clear();
        let order = &self.approx_order[alpha];
        let mut bucket = order.occupied.next(0);
        while let Some(r) = bucket.filter(|_| self.snap.len() < l) {
            self.approx_segs.push(self.snap.len() as u32);
            let mut t = order.first[r];
            while t != NONE && self.snap.len() < l {
                let (ti, mb) = (t as usize, self.members[t as usize]);
                let (rem, row) = (self.approx_rem[ti], &self.d[ti * k..ti * k + k]);
                self.snap.push(ReadyTask {
                    id: TaskId::from_index(ti),
                    seq: u64::from(mb.seq),
                    remaining: rem,
                });
                self.erows.extend_from_slice(row);
                self.approx_dom.push((row_total(row), rem));
                t = mb.next;
            }
            bucket = order.occupied.next(r + 1);
        }
        debug_assert_eq!(self.snap.len(), l, "the order holds the whole queue");
        // Window-local reconstruction of the exact index's pruning
        // structure (DESIGN.md §14), built once per α-round from the
        // state-free relations and consulted by every pick of the round.
        //
        // Grouping: window positions with the same `(row class, dominance
        // remaining-work key)` project bitwise-identical rows at every
        // working state, and the duel's final seq tie-break always favors
        // the earliest untaken member — the group's *live head* — so only
        // live heads ever duel. A group's members share their row, hence
        // their `d_total`, so a group never spans two of the order's
        // buckets: groups are found exactly by sorting each bucket's
        // window segment (usually one position) on a packed key (same-group
        // members interleave with other rem-variants of their class).
        //
        // Group dominance: a group whose rep has a pointwise-`≥`
        // descendant row, no larger remaining work, and strictly larger
        // total descendant value projects a `≥` row at every working
        // state, with the strict `d_total` settling full ties before seq
        // — so its live head strictly beats every member of the dominated
        // group in every duel, for as long as the dominating group has an
        // untaken member in the window. Each rep tries the previous rep,
        // that one's witness, then the running frontier (the undominated
        // reps, which stay few on layered workloads; `approx_witness`).
        self.approx_group.clear();
        self.approx_group.resize(l, 0);
        self.approx_next.clear();
        self.approx_next.resize(l, NONE);
        self.approx_live.clear();
        self.approx_segs.push(l as u32);
        for seg in self.approx_segs.windows(2) {
            let (a, b) = (seg[0] as usize, seg[1] as usize);
            self.approx_keys.clear();
            self.approx_keys.extend((a..b).map(|j| {
                let t = self.snap[j].id.index();
                (self.row_class[t] as u128) << 96 | (self.approx_dom[j].1 as u128) << 32 | j as u128
            }));
            self.approx_keys.sort_unstable();
            let mut cur = NONE;
            for (i, &key) in self.approx_keys.iter().enumerate() {
                let pos = key as u32 as usize;
                if i > 0 && key >> 32 == self.approx_keys[i - 1] >> 32 {
                    // Members of a run sort pos-ascending, i.e. seq-ascending.
                    self.approx_next[self.approx_keys[i - 1] as u32 as usize] = pos as u32;
                } else {
                    cur = self.approx_live.len() as u32;
                    self.approx_live.push(pos as u32);
                }
                self.approx_group[pos] = cur;
            }
        }
        let num_groups = self.approx_live.len();
        self.approx_kid_head.clear();
        self.approx_kid_head.resize(num_groups, NONE);
        self.approx_kid_next.clear();
        self.approx_kid_next.resize(num_groups, NONE);
        self.approx_front.clear();
        let (mut prev, mut hint) = (NONE, NONE);
        for j in 0..l {
            let g = self.approx_group[j] as usize;
            if self.approx_live[g] as usize != j {
                continue; // not its group's rep
            }
            let dom = self.approx_witness(j, prev, hint);
            if dom == NONE {
                self.approx_front.push(j as u32);
            } else {
                hint = dom;
                self.approx_kid_next[g] = self.approx_kid_head[dom as usize];
                self.approx_kid_head[dom as usize] = g as u32;
            }
            prev = g as u32;
        }
        self.row.clear();
        self.row.resize(k, 0.0);
        self.best_row.clear();
        self.best_row.resize(k, 0.0);

        // Per pick, the bounded scan reaches exactly the first `cap`
        // untaken window positions, and each reachable candidate is
        // either a live undominated head or beaten by one at a strictly
        // earlier position (a dominating group's members all have
        // strictly larger `d_total`, so they all rank earlier; a group's
        // live head is its earliest untaken member; a dead witness
        // chain's replacement comes from the front, again earlier). The
        // duel winner is the max of a strict total order — `seq` is
        // unique, so there are no full ties — making challenge order
        // immaterial: dueling just the live front heads inside the scan
        // horizon is pick-identical to scanning the whole window, and
        // the evaluation counters collapse to closed form (the scan
        // always evaluates `min(cap, untaken positions in window)`).
        //
        // The horizon — the window position of the `cap`-th untaken
        // entry — is `cap - 1 + i` at pick `i`: every winner lies inside
        // its pick's horizon, so each pick moves the horizon exactly one
        // position right.
        let mut left = m as u64;
        for pick in 0..slots {
            let cutoff = (cap - 1 + pick).min(l - 1);
            let mut duel = Duel::new(
                &mut self.row,
                &mut self.best_row,
                &mut self.cand_sorted,
                &mut self.best_sorted,
            );
            // The front is compacted in place as it is walked: a group
            // with no live member left is dead for the rest of the
            // round, so its entry is dropped — the walk stays
            // proportional to the *live* undominated groups even as
            // orphans keep joining the front over the round.
            let mut w = 0usize;
            let mut fi = 0usize;
            while fi < self.approx_front.len() {
                let fpos = self.approx_front[fi];
                fi += 1;
                let fg = self.approx_group[fpos as usize] as usize;
                let lp = self.approx_live[fg];
                if lp == NONE {
                    continue;
                }
                self.approx_front[w] = fpos;
                w += 1;
                if lp as usize > cutoff {
                    continue;
                }
                let oi = lp as usize;
                let rt = self.snap[oi];
                let drow = &self.erows[oi * k..oi * k + k];
                let own = rt.remaining as f64;
                if let Some(mn) = duel.project(&self.working, &self.procs_f, drow, alpha, own) {
                    duel.challenge(oi as u32, mn, self.approx_dom[oi].0, rt.seq);
                }
            }
            self.approx_front.truncate(w);
            assert_ne!(duel.best, NONE, "queue longer than slots");
            let best_oi = duel.best as usize;
            let evaluated = cap.min(l - pick) as u64;
            // The winner was its group's live head; the next member (if
            // any) steps up, untaken by construction — only live heads
            // are ever picked.
            let bg = self.approx_group[best_oi] as usize;
            self.approx_live[bg] = self.approx_next[best_oi];
            if self.approx_live[bg] == NONE {
                // The group is exhausted: re-home its dominated children
                // now (the exact index re-parents orphans on group death
                // the same way). Each child hunts for a live replacement
                // witness (`approx_witness`) and joins the front itself
                // when no live group dominates it: from the next pick on
                // its live head duels like any other front head. Any live
                // witness will do — its members all rank earlier — so
                // which one a child gets never matters to a pick. A child
                // that exhausted while beaten passes its own children up
                // instead (defensive; it shouldn't occur).
                self.approx_orphans.clear();
                let (mut prev, mut hint) = (NONE, NONE);
                let mut kid = self.approx_kid_head[bg];
                self.approx_kid_head[bg] = NONE;
                while kid != NONE {
                    self.approx_orphans.push(kid);
                    kid = self.approx_kid_next[kid as usize];
                }
                while let Some(gi) = self.approx_orphans.pop() {
                    let g = gi as usize;
                    self.approx_kid_next[g] = NONE;
                    if self.approx_live[g] == NONE {
                        let mut kid = self.approx_kid_head[g];
                        self.approx_kid_head[g] = NONE;
                        while kid != NONE {
                            self.approx_orphans.push(kid);
                            kid = self.approx_kid_next[kid as usize];
                        }
                        continue;
                    }
                    let oj = self.approx_live[g] as usize;
                    let dom = self.approx_witness(oj, prev, hint);
                    if dom == NONE {
                        self.approx_front.push(oj as u32);
                    } else {
                        hint = dom;
                        self.approx_kid_next[g] = self.approx_kid_head[dom as usize];
                        self.approx_kid_head[dom as usize] = gi;
                    }
                    prev = gi;
                }
            }
            let rt = self.snap[best_oi];
            out.push(alpha, rt.id);
            self.sel.candidates_evaluated += evaluated;
            self.sel.candidates_pruned += left - evaluated;
            left -= 1;
            self.apply_projection(alpha, &rt);
        }
    }
}

impl Policy for Mqb {
    fn name(&self) -> &str {
        // The bounded-candidate variant is a first-class policy of its own
        // (`Algorithm::MqbApprox`); its name must match that label.
        if self.approx_cap.is_some() {
            return "MQB-Approx";
        }
        // The plain name for the default model; experiments use
        // `InfoModel::label` for the §V-G variants.
        match (self.info.lookahead, self.info.accuracy) {
            (Lookahead::All, Accuracy::Precise) => "MQB",
            _ => self.info.label(),
        }
    }

    fn init(&mut self, job: &KDag, _config: &MachineConfig, seed: u64, artifacts: &Artifacts) {
        match (self.info.lookahead, self.info.accuracy) {
            // The default model ranks by the bundle's own matrix.
            (Lookahead::All, Accuracy::Precise) => {
                self.d.shared = Some(Arc::clone(artifacts.descendants(job)));
            }
            // A perturbed model rewrites its copy in place, retaining the
            // allocation of a warm (worker-persistent) policy value.
            (Lookahead::All, _) => {
                self.d.own.clear();
                self.d
                    .own
                    .extend_from_slice(artifacts.descendants(job).values());
            }
            // One-step lookahead is not part of the bundle: it is a plain
            // O(|V|+|E|) pass with no topological sort.
            (Lookahead::OneStep, _) => one_step_descendants(job, &mut self.d.own),
        }
        self.finish_init(job, seed);
    }

    fn assign(&mut self, view: &EpochView<'_>, out: &mut Assignments) {
        let k = self.k;
        debug_assert_eq!(k, view.config.num_types());

        let approx_cap = self.approx_cap;
        if approx_cap.is_none() {
            // Exact mode keeps the incremental index current every epoch —
            // journal diffs are O(changes) even in epochs the flat path
            // serves, and the index must be ready when a round crosses the
            // size threshold.
            self.sync_index(view);
        } else {
            self.sync_orders(view);
        }

        // Working queue-work vector, updated as selections are made.
        self.working.clear();
        self.working
            .extend(view.queue_work.iter().map(|&w| w as f64));
        self.procs_f.clear();
        self.procs_f
            .extend(view.config.procs_per_type().iter().map(|&p| p as f64));

        for alpha in 0..k {
            let queue = &view.queues[alpha];
            let slots = view.slots[alpha];
            if slots == 0 || queue.is_empty() {
                continue;
            }
            if queue.len() <= slots {
                // Run them all; still project their effect for the types
                // not yet processed in this epoch.
                queue.collect_into(&mut self.snap);
                for qi in 0..self.snap.len() {
                    let rt = self.snap[qi];
                    out.push(alpha, rt.id);
                    self.apply_projection(alpha, &rt);
                }
                continue;
            }
            match approx_cap {
                Some(cap) => self.assign_approx(view, alpha, slots, cap, out),
                None if queue.len() > INDEX_CROSSOVER => {
                    self.assign_indexed(view, alpha, slots, out)
                }
                None => self.assign_flat(view, alpha, slots, out),
            }
        }
    }

    fn detach_job(&mut self) {
        // Job retirement (a run returned, or a session retired the job):
        // let the bundle's matrix go, and drop this job's perturbed
        // descendant tables and any candidate scratch eagerly (task ids
        // and values are meaningless for the next job; `init` rebuilds
        // them). Capacity is retained for the recycle pool.
        self.d.shared = None;
        self.d.own.clear();
        self.working.clear();
        self.taken.clear();
        self.snap.clear();
        self.erows.clear();
        self.row.clear();
        self.best_row.clear();
        self.cand_sorted.clear();
        self.best_sorted.clear();
        self.row_class.clear();
        self.class_rep.clear();
        self.members.clear();
        self.approx_rem.clear();
        for ix in &mut self.idx {
            ix.clear();
        }
        for order in &mut self.approx_order {
            order.active = false;
            order.reset(0);
        }
        self.class_rank.clear();
        self.num_ranks = None;
        self.approx_keys.clear();
        self.approx_segs.clear();
        self.approx_group.clear();
        self.approx_next.clear();
        self.approx_live.clear();
        self.approx_dom.clear();
        self.approx_front.clear();
        self.approx_kid_head.clear();
        self.approx_kid_next.clear();
        self.approx_orphans.clear();
        self.need_rebuild = true;
    }

    fn take_selection_stats(&mut self) -> Option<SelectionStats> {
        Some(std::mem::take(&mut self.sel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhs_sim::{engine, metrics, MachineConfig, Mode, RunOptions};
    use kdag::KDagBuilder;
    use std::collections::HashMap;

    /// Checks `t` against `model` (live group id → hash): every live group
    /// is found under its hash, `len` matches, and every occupied slot is
    /// reachable — no empty slot between its home and its position, the
    /// invariant backward-shift deletion keeps.
    fn assert_table_matches(t: &GroupTable, model: &HashMap<u32, u32>, gone: &[(u32, u32)]) {
        assert_eq!(t.len, model.len());
        assert!(2 * t.len <= t.slots.len(), "load above one half");
        let mask = t.slots.len() - 1;
        let mut occupied = 0;
        for (j, &s) in t.slots.iter().enumerate() {
            if s == EMPTY_SLOT {
                continue;
            }
            occupied += 1;
            let (h, g) = ((s >> 32) as u32, s as u32);
            assert_eq!(model.get(&g), Some(&h), "slot {j} holds a dead group {g}");
            let mut i = h as usize & mask;
            while i != j {
                assert_ne!(t.slots[i], EMPTY_SLOT, "group {g} is cut off from its home");
                i = (i + 1) & mask;
            }
        }
        assert_eq!(occupied, model.len());
        for (&g, &h) in model {
            assert_eq!(t.find(h, |x| x == g), Some(g));
        }
        for &(h, g) in gone {
            if !model.contains_key(&g) {
                assert_eq!(t.find(h, |x| x == g), None, "removed group {g} found");
            }
        }
    }

    #[test]
    fn group_table_matches_a_hash_map_model_through_grow_and_churn() {
        let mut rng = StdRng::seed_from_u64(39);
        let mut t = GroupTable::default();
        for cycle in 0..24u32 {
            t.reset();
            assert_eq!(t.slots.len(), (2 * t.peak).max(16).next_power_of_two());
            let mask_hint = t.slots.len() as u32 - 1;
            // Every hash shares its low bits with a few others, and the
            // table's last homes wrap around its end: each cycle's keys
            // crowd into one or two probe runs whatever the table length.
            let home = if cycle % 2 == 0 { 0 } else { mask_hint - 2 };
            let hash = |rng: &mut StdRng| {
                home.wrapping_add(rng.gen_range(0..4u32)) | rng.gen_range(0..4u32) << 20
            };
            // `live` holds the model's entries in a seeded order, so the
            // removal sequence does not depend on the map's iteration.
            let (mut model, mut live) = (HashMap::new(), Vec::new());
            let mut gone = Vec::new();
            let mut next_gid = 0u32;
            let target = 8 + (cycle as usize * 37) % 300;
            for step in 0..6 * target {
                let grow = step < target || rng.gen_range(0..2u32) == 0;
                if grow || live.is_empty() {
                    let h = hash(&mut rng);
                    t.insert(h, next_gid);
                    model.insert(next_gid, h);
                    live.push((h, next_gid));
                    next_gid += 1;
                } else {
                    let (h, g) = live.swap_remove(rng.gen_range(0..live.len()));
                    model.remove(&g);
                    t.remove(h, g);
                    gone.push((h, g));
                }
                if step % 7 == 0 {
                    assert_table_matches(&t, &model, &gone);
                }
            }
            assert_table_matches(&t, &model, &gone);
            while let Some((h, g)) = live.pop() {
                model.remove(&g);
                t.remove(h, g);
                gone.push((h, g));
                assert_table_matches(&t, &model, &gone);
            }
            assert!(t.slots.iter().all(|&s| s == EMPTY_SLOT));
        }
        assert!(t.peak >= 300, "the cycles never grew the table");
    }

    #[test]
    fn cmp_balance_is_lexicographic_on_sorted_vectors() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_balance(&[1.0, 5.0], &[0.5, 9.0]), Greater);
        assert_eq!(cmp_balance(&[1.0, 5.0], &[1.0, 6.0]), Less);
        assert_eq!(cmp_balance(&[1.0, 5.0], &[1.0, 5.0]), Equal);
    }

    #[test]
    fn picks_the_task_that_feeds_the_starved_queue() {
        // Two ready type-0 tasks on one type-0 processor:
        //  * `feeds1` unlocks heavy type-1 work,
        //  * `feeds0` unlocks more type-0 work.
        // The type-1 queue is empty (starved), so MQB must pick `feeds1`.
        let mut b = KDagBuilder::new(2);
        let feeds0 = b.add_task(0, 1);
        let c0 = b.add_task(0, 5);
        b.add_edge(feeds0, c0).unwrap();
        let feeds1 = b.add_task(0, 1);
        let c1 = b.add_task(1, 5);
        b.add_edge(feeds1, c1).unwrap();
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![1, 1]);
        let out = engine::run(
            &job,
            &cfg,
            &mut Mqb::default(),
            Mode::NonPreemptive,
            &RunOptions::seeded(0).with_trace(),
        );
        let tr = out.trace.unwrap();
        let first = tr.segments().iter().min_by_key(|s| s.start).unwrap();
        assert_eq!(first.task, feeds1, "MQB must feed the starved type-1 pool");
        // feeds1@0, c1 runs 1..6 while feeds0@1 and c0 2..7: makespan 7.
        assert_eq!(out.makespan, 7);
    }

    #[test]
    fn one_step_descendants_see_only_children() {
        // chain: v -> a(type1,w2) -> b(type1,w8)
        let mut b = KDagBuilder::new(2);
        let v = b.add_task(0, 1);
        let a = b.add_task(1, 2);
        let c = b.add_task(1, 8);
        b.add_edge(v, a).unwrap();
        b.add_edge(a, c).unwrap();
        let job = b.build().unwrap();
        let mut d1 = Vec::new();
        one_step_descendants(&job, &mut d1);
        assert_eq!(d1[v.index() * 2 + 1], 2.0); // only the child, not the grandchild
        let mut full = Mqb::default();
        full.init(&job, &MachineConfig::uniform(2, 1), 0, &Artifacts::new());
        assert_eq!(full.d_row(v)[1], 10.0); // full lookahead sees both
    }

    #[test]
    fn noisy_variants_are_seed_deterministic() {
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 1);
        for acc in [Accuracy::Exponential, Accuracy::Noisy] {
            let info = InfoModel {
                lookahead: Lookahead::All,
                accuracy: acc,
            };
            let mut a = Mqb::new(info);
            let mut b = Mqb::new(info);
            a.init(&job, &cfg, 42, &Artifacts::new());
            b.init(&job, &cfg, 42, &Artifacts::new());
            assert_eq!(*a.d, *b.d, "same seed must give same perturbation");
            let mut c = Mqb::new(info);
            c.init(&job, &cfg, 43, &Artifacts::new());
            assert_ne!(*a.d, *c.d, "different seeds must differ");
        }
    }

    #[test]
    fn all_variants_complete_and_beat_nothing_illegal() {
        let job = kdag::examples::figure1();
        let cfg = MachineConfig::uniform(3, 2);
        for info in InfoModel::ALL_VARIANTS {
            let mut p = Mqb::new(info);
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                let r = metrics::evaluate(&job, &cfg, &mut p, mode, 7);
                assert!(r.ratio >= 1.0, "{} ratio {}", info.label(), r.ratio);
            }
        }
    }

    #[test]
    fn labels_are_the_papers() {
        let labels: Vec<&str> = InfoModel::ALL_VARIANTS.iter().map(|i| i.label()).collect();
        assert_eq!(
            labels,
            vec![
                "MQB+All+Pre",
                "MQB+All+Exp",
                "MQB+All+Noise",
                "MQB+1Step+Pre",
                "MQB+1Step+Exp",
                "MQB+1Step+Noise"
            ]
        );
        use fhs_sim::Policy as _;
        assert_eq!(Mqb::default().name(), "MQB");
        assert_eq!(
            Mqb::new(InfoModel {
                lookahead: Lookahead::OneStep,
                accuracy: Accuracy::Noisy
            })
            .name(),
            "MQB+1Step+Noise"
        );
    }

    #[test]
    fn index_stays_unplaced_while_no_round_exceeds_the_crossover() {
        // Six layers of 40 tasks, alternating types, each task fed by two
        // tasks of the layer before: contested rounds, but no queue ever
        // longer than 64, like a Medium job's.
        let mut b = KDagBuilder::new(2);
        let mut prev: Vec<TaskId> = Vec::new();
        for layer in 0..6u64 {
            let cur: Vec<TaskId> = (0..40u64)
                .map(|i| b.add_task((i % 2) as usize, 1 + (i * 7 + layer) % 5))
                .collect();
            for (i, &t) in cur.iter().enumerate() {
                if !prev.is_empty() {
                    b.add_edge(prev[i], t).unwrap();
                    b.add_edge(prev[(i * 3 + 1) % 40], t).unwrap();
                }
            }
            prev = cur;
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![2, 2]);
        for mode in [Mode::NonPreemptive, Mode::Preemptive] {
            let mut p = Mqb::default();
            let out = engine::run(&job, &cfg, &mut p, mode, &RunOptions::seeded(1));
            let sel = out.stats.selection;
            assert!(
                sel.candidates_evaluated > 0 && sel.diff_events > 0,
                "{mode:?}"
            );
            assert_eq!(sel.candidates_pruned, 0, "{mode:?}: a round used the index");
            assert!(p.groups.peak > 0, "{mode:?}: no groups");
            assert!(
                p.idx.iter().all(|ix| !ix.placed && ix.frontier.is_empty()),
                "{mode:?}: the dominance order was maintained but never read"
            );
        }
    }

    /// Seventy dominated unit-work type-0 fillers, then roots `a` with
    /// descendant row (1, 1, 5) and `b` with row `b_row` (types 1 and 2
    /// only), on one processor per type: the type-0 queue of 72 takes the
    /// indexed path, whose frontier is `[a, b]` in that order. Projected
    /// at time 0, `a`'s row is (72, 1, 5): `a` is the incumbent when `b`
    /// is evaluated, with minimum 1 at type 1.
    fn tie_instance(b_row: [u64; 2]) -> (KDag, MachineConfig, TaskId) {
        let mut bld = KDagBuilder::new(3);
        for _ in 0..70 {
            bld.add_task(0, 1);
        }
        let a = bld.add_task(0, 1);
        for (ty, w) in [(0, 1), (1, 1), (2, 5)] {
            let c = bld.add_task(ty, w);
            bld.add_edge(a, c).unwrap();
        }
        let b = bld.add_task(0, 1);
        for (ty, w) in [(1, b_row[0]), (2, b_row[1])] {
            let c = bld.add_task(ty, w);
            bld.add_edge(b, c).unwrap();
        }
        (bld.build().unwrap(), MachineConfig::uniform(3, 1), b)
    }

    /// A later frontier head whose minimum ties the incumbent's bit for
    /// bit must reach the sorted-lex comparison, and win there: `b`'s
    /// projected row is (71, 1, 6) against `a`'s (72, 1, 5) — a tie at the
    /// incumbent's best type — and (71, 6, 1) in the second case, a tie on
    /// the minimum at another type. Sorted, `b` leads 6 to 5 in the second
    /// place, so `b` is the first pick. A `<=` in either reject drops `b`
    /// and picks `a`. The bounded variant walks the same two heads.
    #[test]
    fn bitwise_min_ties_reach_the_sorted_lex_comparison() {
        for (case, b_row) in [("tie at best type", [1, 6]), ("tie on the minimum", [6, 1])] {
            let (job, cfg, b) = tie_instance(b_row);
            for mut p in [Mqb::default(), Mqb::approx(InfoModel::default())] {
                let out = engine::run(
                    &job,
                    &cfg,
                    &mut p,
                    Mode::NonPreemptive,
                    &RunOptions::seeded(0).with_trace(),
                );
                let first = out
                    .trace
                    .unwrap()
                    .segments()
                    .iter()
                    .find(|s| s.start == 0 && s.rtype == 0)
                    .map(|s| s.task);
                let sel = out.stats.selection;
                assert!(
                    sel.candidates_pruned > 0,
                    "{case}: the fillers were not pruned"
                );
                assert_eq!(first, Some(b), "{case}, {}: the tied head lost", p.name());
            }
        }
    }

    /// The sort-based row-class labeling the hashed table replaced, kept
    /// as its oracle: sort task indices by row bits, then cut at changes.
    fn sorted_row_classes(d: &[f64], k: usize) -> Vec<u32> {
        let n = d.len() / k;
        let bits = |t: usize| d[t * k..t * k + k].iter().map(|x| x.to_bits());
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| bits(a).cmp(bits(b)));
        let mut class = vec![0u32; n];
        let mut c = 0;
        for (i, &t) in order.iter().enumerate() {
            if i > 0 && !bits(order[i - 1]).eq(bits(t)) {
                c += 1;
            }
            class[t] = c;
        }
        class
    }

    /// Whether two labelings induce the same partition: a class-to-class
    /// map consistent in both directions.
    fn same_partition(a: &[u32], b: &[u32]) -> bool {
        let (mut ab, mut ba) = (HashMap::new(), HashMap::new());
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(&x, &y)| *ab.entry(x).or_insert(y) == y && *ba.entry(y).or_insert(x) == x)
    }

    fn assert_classes_match_sort(size: fhs_workloads::resources::SystemSize) {
        use fhs_workloads::{Family, Typing, WorkloadSpec};
        let (job, cfg) = WorkloadSpec::new(Family::Ir, Typing::Layered, size, 4).sample(2);
        for info in InfoModel::ALL_VARIANTS {
            let mut p = Mqb::new(info);
            p.init(&job, &cfg, 2, &Artifacts::new());
            let oracle = sorted_row_classes(&p.d, p.k);
            assert!(
                same_partition(&p.row_class, &oracle),
                "{}: hashed row classes differ from the sort's",
                info.label()
            );
            let classes = *oracle.iter().max().unwrap() as usize + 1;
            assert_eq!(p.class_rep.len(), classes, "{}", info.label());
            for (c, &rep) in p.class_rep.iter().enumerate() {
                assert_eq!(p.row_class[rep as usize], c as u32, "{}", info.label());
            }
        }
    }

    #[test]
    fn hashed_row_classes_partition_like_the_sort_on_medium() {
        assert_classes_match_sort(fhs_workloads::resources::SystemSize::Medium);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "Huge instances run in --release")]
    fn hashed_row_classes_partition_like_the_sort_on_huge() {
        assert_classes_match_sort(fhs_workloads::resources::SystemSize::Huge);
    }

    #[test]
    fn respects_slot_limits_with_large_queues() {
        let mut b = KDagBuilder::new(2);
        for i in 0..20 {
            b.add_task(i % 2, 1 + (i as u64 % 3));
        }
        let job = b.build().unwrap();
        let cfg = MachineConfig::new(vec![2, 3]);
        let out = engine::run(
            &job,
            &cfg,
            &mut Mqb::default(),
            Mode::NonPreemptive,
            &RunOptions::seeded(0).with_trace(),
        );
        crate::trace_check::validate(&out.trace.unwrap(), &job, &cfg).unwrap();
    }

    /// Exact MQB's selection counters on one Medium and one Large layered
    /// EP instance, both modes: `(candidates_evaluated, candidates_pruned,
    /// diff_events, cold_snapshots)`. Medium rounds stay at or below
    /// [`INDEX_CROSSOVER`] (flat path only, nothing pruned); Large ones mix
    /// both paths. The flat path rejects most candidates before the
    /// sorted-lex ladder, yet every untaken candidate still counts as
    /// evaluated: these pins hold that definition.
    #[test]
    fn selection_counters_are_pinned_on_medium_and_large_ep() {
        use fhs_workloads::resources::SystemSize::{Large, Medium};
        use fhs_workloads::{Family, Typing, WorkloadSpec};
        let mut got = Vec::new();
        for size in [Medium, Large] {
            let (job, cfg) = WorkloadSpec::new(Family::Ep, Typing::Layered, size, 4).sample(7);
            for mode in [Mode::NonPreemptive, Mode::Preemptive] {
                let mut p = Mqb::default();
                let s = engine::run(&job, &cfg, &mut p, mode, &RunOptions::seeded(7))
                    .stats
                    .selection;
                let counts = (
                    s.candidates_evaluated,
                    s.candidates_pruned,
                    s.diff_events,
                    s.cold_snapshots,
                );
                got.push((size, mode, counts));
            }
        }
        let want = [
            (Medium, Mode::NonPreemptive, (2992, 0, 1040, 1)),
            (Medium, Mode::Preemptive, (6530, 0, 1835, 1)),
            (Large, Mode::NonPreemptive, (117387, 443882, 11265, 1)),
            (Large, Mode::Preemptive, (168835, 724058, 19891, 1)),
        ];
        assert_eq!(got, want);
    }
}
