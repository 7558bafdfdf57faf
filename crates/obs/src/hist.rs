//! Log-bucketed histograms (HDR-style): fixed-size bucket arrays, no
//! allocation after construction, lossless merge.
//!
//! Values are binned with 3 sub-bucket bits: values below 8 are exact;
//! above, each power-of-two range is split into 8 sub-buckets, so every
//! recorded value is attributed with ≤ 12.5% relative error across the
//! whole `u64` range. That yields [`BUCKETS`] = 496 buckets — a 4 KB
//! array — which is why a [`LogHist`] can sit inside the engine
//! [`Recorder`](crate::Recorder) and be bumped from the zero-allocation
//! epoch loop: recording is one index computation and one `+= 1`.
//!
//! Two forms exist:
//!
//! * [`LogHist`] — the dense recording form. Lives in a workspace,
//!   `reset()` per run (capacity retained).
//! * [`HistSnapshot`] — the sparse, owned form (non-zero buckets only),
//!   cheap to ship out of a run and to merge across pool workers and
//!   sweep instances. Merging is exact: bucket counts add, so the merged
//!   percentiles equal the percentiles of the concatenated samples (up to
//!   bucket resolution).

/// Sub-bucket bits: each power-of-two range splits into `2^3 = 8` buckets.
const SUB_BITS: u32 = 3;
/// Values below `2^(SUB_BITS)` are recorded exactly.
const EXACT: u64 = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`.
pub const BUCKETS: usize = 496;

/// Bucket index for a value (monotonic in `v`).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        // Highest set bit m ≥ 3; 8 sub-buckets per [2^m, 2^{m+1}) range.
        let m = 63 - v.leading_zeros() as u64;
        (8 * (m - 2) + ((v >> (m - 3)) & 7)) as usize
    }
}

/// Inclusive upper edge of a bucket: the largest value mapping into it.
/// Percentiles report this edge, so they never understate a quantile.
pub fn bucket_high(idx: usize) -> u64 {
    if idx < EXACT as usize {
        idx as u64
    } else {
        let m = (idx as u64) / 8 + 2;
        let sub = (idx as u64) % 8;
        // Low edge of the next sub-bucket, minus one. The top bucket's
        // "next low edge" is 2^64, so the wrapping arithmetic lands on
        // `u64::MAX` exactly.
        (1u64 << m)
            .wrapping_add((sub + 1) << (m - 3))
            .wrapping_sub(1)
    }
}

/// Dense log-bucketed histogram. `reset()` sizes the bucket array once;
/// after that, recording and re-resetting never allocate.
#[derive(Clone, Debug, Default)]
pub struct LogHist {
    counts: Vec<u64>,
    count: u64,
    max: u64,
    sum: u64,
}

impl LogHist {
    /// An empty, unsized histogram (no buckets allocated yet).
    pub fn new() -> Self {
        LogHist::default()
    }

    /// Clears all counts, allocating the bucket array on first use and
    /// retaining it afterwards.
    pub fn reset(&mut self) {
        self.counts.clear();
        self.counts.resize(BUCKETS, 0);
        self.count = 0;
        self.max = 0;
        self.sum = 0;
    }

    /// Records one value. Must be preceded by [`reset`](LogHist::reset)
    /// at least once; allocation-free afterwards.
    #[inline]
    pub fn record(&mut self, v: u64) {
        debug_assert_eq!(self.counts.len(), BUCKETS, "LogHist::reset not called");
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value (exact, not bucketed); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of recorded values (exact, wrapping on `u64` overflow —
    /// wrapping keeps merges order-independent).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Merges another histogram in (exact: per-bucket count sums). Handles
    /// unsized operands: merging an empty histogram is a no-op, and an
    /// unsized receiver is sized on first merge.
    pub fn merge(&mut self, other: &LogHist) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            self.reset();
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The sparse snapshot of the current counts.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            max: self.max,
            sum: self.sum,
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (i as u16, c))
                .collect(),
        }
    }
}

/// Sparse histogram: only the non-zero buckets, sorted by bucket index.
/// The mergeable/reportable form shipped across pool workers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total recorded values.
    pub count: u64,
    /// Largest recorded value (exact).
    pub max: u64,
    /// Sum of recorded values (wrapping on overflow; see
    /// [`LogHist::sum`]).
    pub sum: u64,
    /// `(bucket index, count)` pairs, ascending by index.
    buckets: Vec<(u16, u64)>,
}

impl HistSnapshot {
    /// Reassembles a snapshot from serialized parts (the inverse of
    /// reading `count`/`max`/`sum`/[`buckets`](HistSnapshot::buckets) —
    /// used by the shard-merge tool). Refuses a bucket list that is not
    /// strictly ascending by index, names an index at or past
    /// [`BUCKETS`], holds a zero count, or does not sum to `count`.
    pub fn from_parts(
        count: u64,
        max: u64,
        sum: u64,
        buckets: Vec<(u16, u64)>,
    ) -> Result<HistSnapshot, String> {
        let mut total = 0u64;
        for (i, &(idx, n)) in buckets.iter().enumerate() {
            if usize::from(idx) >= BUCKETS {
                return Err(format!(
                    "bucket index {idx} past the {BUCKETS}-bucket table"
                ));
            }
            if i > 0 && buckets[i - 1].0 >= idx {
                return Err(format!("bucket {idx} out of order"));
            }
            if n == 0 {
                return Err(format!("zero bucket count at bucket {idx}"));
            }
            total = total.checked_add(n).ok_or("bucket counts overflow")?;
        }
        if total != count {
            return Err(format!("bucket counts sum to {total}, not count {count}"));
        }
        Ok(HistSnapshot {
            count,
            max,
            sum,
            buckets,
        })
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The non-zero `(bucket index, count)` pairs, ascending.
    pub fn buckets(&self) -> &[(u16, u64)] {
        &self.buckets
    }

    /// Merges `other` into `self` (bucket counts add; max takes the max).
    /// Exact and order-independent — merging per-run snapshots in any
    /// grouping yields the histogram of all samples.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca + cb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper edge; the exact
    /// maximum for `q = 1.0` (or any rank landing in the last non-empty
    /// bucket). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank (ceil) definition on 1-based ranks.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &(idx, c)) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // The true max is known exactly; use it for the top bucket
                // so p100 is never inflated past an observed value.
                if i + 1 == self.buckets.len() {
                    return self.max;
                }
                return bucket_high(idx as usize);
            }
        }
        self.max
    }

    /// Convenience: `(p50, p90, p99, max)`.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_index_is_monotonic_and_bounded() {
        let mut prev = 0usize;
        let mut v = 0u64;
        while v < 1 << 40 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            assert!(idx < BUCKETS);
            prev = idx;
            v = (v * 2).max(v + 1);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn top_bucket_high_edge_is_u64_max() {
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn bucket_high_is_the_largest_member() {
        for idx in 0..BUCKETS - 1 {
            let hi = bucket_high(idx);
            assert_eq!(bucket_index(hi), idx, "high edge of {idx} maps elsewhere");
            assert_eq!(bucket_index(hi + 1), idx + 1, "edge {idx} not tight");
        }
    }

    #[test]
    fn relative_error_is_within_one_eighth() {
        for &v in &[9u64, 100, 1_000, 65_535, 1 << 30, (1 << 50) + 12345] {
            let hi = bucket_high(bucket_index(v));
            assert!(hi >= v);
            assert!(
                (hi - v) as f64 <= v as f64 / 8.0 + 1.0,
                "error too big at {v}"
            );
        }
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LogHist::new();
        h.reset();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        assert!((440..=560).contains(&p50), "p50 {p50} too far from 500");
        let p99 = s.quantile(0.99);
        assert!((980..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn reset_clears_but_keeps_capacity() {
        let mut h = LogHist::new();
        h.reset();
        h.record(42);
        let cap = h.counts.capacity();
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.counts.capacity(), cap);
        assert!(h.snapshot().is_empty());
    }

    #[test]
    fn snapshot_merge_equals_concatenated_recording() {
        let mut a = LogHist::new();
        let mut b = LogHist::new();
        let mut both = LogHist::new();
        a.reset();
        b.reset();
        both.reset();
        for v in [3u64, 9, 9, 17, 100, 1 << 20] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 9, 55, 1 << 33] {
            b.record(v);
            both.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, both.snapshot());
    }

    #[test]
    fn merge_is_order_independent() {
        let snaps: Vec<HistSnapshot> = (0..4)
            .map(|i| {
                let mut h = LogHist::new();
                h.reset();
                for v in 0..50u64 {
                    h.record(v * (i + 1));
                }
                h.snapshot()
            })
            .collect();
        let mut fwd = HistSnapshot::default();
        for s in &snaps {
            fwd.merge(s);
        }
        let mut rev = HistSnapshot::default();
        for s in snaps.iter().rev() {
            rev.merge(s);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = HistSnapshot::default();
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.percentiles(), (0, 0, 0, 0));
        assert_eq!(s.sum, 0);
    }

    #[test]
    fn sum_tracks_recorded_values_and_merges() {
        let mut a = LogHist::new();
        a.reset();
        for v in [5u64, 7, 100] {
            a.record(v);
        }
        assert_eq!(a.sum(), 112);
        let mut b = LogHist::new();
        b.reset();
        b.record(8);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.sum, 120);
        a.merge(&b);
        assert_eq!(a.sum(), 120);
        a.reset();
        assert_eq!(a.sum(), 0);
    }

    #[test]
    fn from_parts_refuses_every_invalid_bucket_list() {
        let top = (BUCKETS - 1) as u16;
        for (count, buckets, why) in [
            (1, vec![(BUCKETS as u16, 1)], "past the"),
            (1, vec![(u16::MAX, 1)], "past the"),
            (2, vec![(5, 1), (2, 1)], "out of order"),
            (2, vec![(3, 1), (3, 1)], "out of order"),
            (1, vec![(2, 0), (5, 1)], "zero bucket count"),
            (3, vec![(5, 1)], "sum to"),
            (1, vec![(2, 1), (5, 1)], "sum to"),
            (1, vec![(1, u64::MAX), (top, 2)], "overflow"),
        ] {
            let err = HistSnapshot::from_parts(count, 5, 5, buckets.clone()).unwrap_err();
            assert!(err.contains(why), "{buckets:?}: {err}");
        }
    }
}
