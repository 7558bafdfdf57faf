//! Per-type utilization timelines: piecewise-constant busy-processor
//! counts, run-length encoded, recorded live from the engine's epoch loop.
//!
//! The engine reports every change of a type's busy-processor count as
//! `(type, time, count)`; the timeline keeps one `(start_time, count)`
//! entry per *change* (consecutive equal counts coalesce, same-time
//! updates overwrite), so the storage is proportional to the number of
//! schedule transitions, not to the makespan. Re-running the same
//! instance on a warm timeline pushes the same entries into retained
//! capacity — zero allocations in steady state, which is what lets the
//! recorder sit inside the engine's metered epoch loop.
//!
//! [`UtilTimeline::report`] derives the per-type accounting the paper's
//! thesis is about: utilization, an idle-time decomposition (idle while
//! the type still had work in flight vs. idle after it drained), the
//! time-to-drain, and cross-type imbalance indices (max−min and
//! coefficient of variation). [`UtilTimeline::from_intervals`] builds the
//! same encoding from a finished schedule's busy intervals, for the
//! interleaving index and per-type sparklines, walked segment by segment
//! rather than over a dense `K × makespan` grid.

/// Run-length-encoded per-type busy-count timelines.
#[derive(Clone, Debug, Default)]
pub struct UtilTimeline {
    /// Per type: `(start_time, busy_count)`, strictly increasing in time.
    /// The count before the first entry is 0; the last entry extends to
    /// the makespan.
    segs: Vec<Vec<(u64, u32)>>,
}

impl UtilTimeline {
    /// An empty timeline (no per-type storage until `begin`).
    pub fn new() -> Self {
        UtilTimeline::default()
    }

    /// Clears for a run over `k` types, retaining per-type capacity.
    pub fn begin(&mut self, k: usize) {
        for s in &mut self.segs {
            s.clear();
        }
        self.segs.truncate(k);
        self.segs.resize_with(k, Vec::new);
    }

    /// Number of types the timeline is tracking.
    pub fn num_types(&self) -> usize {
        self.segs.len()
    }

    /// Records that type `alpha` has `busy` busy processors from time `t`
    /// on. Times must be non-decreasing per type; same-time updates
    /// overwrite (the last write at an instant wins) and no-op updates
    /// coalesce away.
    #[inline]
    pub fn set(&mut self, alpha: usize, t: u64, busy: u32) {
        let v = &mut self.segs[alpha];
        if let Some(&mut (last_t, ref mut last_c)) = v.last_mut() {
            debug_assert!(t >= last_t, "timeline time went backwards");
            if last_t == t {
                *last_c = busy;
                // Overwriting may have made the entry redundant with its
                // predecessor; drop it to keep the encoding canonical.
                if v.len() >= 2 && v[v.len() - 2].1 == busy {
                    v.pop();
                }
                return;
            }
            if *last_c == busy {
                return;
            }
        } else if busy == 0 {
            // Leading zero-count segments are implicit.
            return;
        }
        v.push((t, busy));
    }

    /// The RLE segments of one type: `(start_time, busy_count)` pairs.
    pub fn segments(&self, alpha: usize) -> &[(u64, u32)] {
        &self.segs[alpha]
    }

    /// Integral of the busy count of `alpha` over `[0, x)`; over
    /// `[0, makespan)` it is the type's busy processor-time.
    pub fn busy_integral(&self, alpha: usize, x: u64) -> u64 {
        let segs = &self.segs[alpha];
        segs.iter()
            .enumerate()
            .take_while(|&(_, &(t, _))| t < x)
            .map(|(i, &(t, c))| {
                let end = segs.get(i + 1).map_or(x, |&(t2, _)| t2.min(x));
                c as u64 * (end - t)
            })
            .sum()
    }

    /// The last instant at which type `alpha` still had a busy processor
    /// (its time-to-drain); 0 if it was never busy.
    pub fn drain_time(&self, alpha: usize, makespan: u64) -> u64 {
        let segs = &self.segs[alpha];
        for (i, &(t, c)) in segs.iter().enumerate().rev() {
            if c > 0 {
                return segs.get(i + 1).map_or(makespan, |&(t2, _)| t2);
            }
            let _ = t;
        }
        0
    }

    /// The timeline of a finished schedule given as `(type, start, end)`
    /// busy intervals — one per executed segment, so a preempted task
    /// contributes one interval per stretch it ran (a recorded trace).
    pub fn from_intervals(
        k: usize,
        intervals: impl IntoIterator<Item = (usize, u64, u64)>,
    ) -> Self {
        // +1 at each start, −1 at each end; at one instant the ends sort
        // first and `set` keeps only the instant's final count.
        let mut edges: Vec<(u64, usize, i64)> = intervals
            .into_iter()
            .filter(|&(_, start, end)| start < end)
            .flat_map(|(alpha, start, end)| [(start, alpha, 1), (end, alpha, -1)])
            .collect();
        edges.sort_unstable();
        let mut tl = UtilTimeline::new();
        tl.begin(k);
        let mut busy = vec![0i64; k];
        for (t, alpha, delta) in edges {
            busy[alpha] += delta;
            tl.set(alpha, t, busy[alpha] as u32);
        }
        tl
    }

    /// Busy type-`alpha` processors during `[t, t+1)`.
    fn busy_at(&self, alpha: usize, t: u64) -> u32 {
        let segs = &self.segs[alpha];
        match segs.partition_point(|&(start, _)| start <= t) {
            0 => 0,
            i => segs[i - 1].1,
        }
    }

    /// Fraction of `[0, makespan)` during which *every* type had at least
    /// one busy processor — a scalar measure of the interleaving the paper
    /// pursues (1.0 = perfectly interleaved, 0.0 = fully serialized by
    /// type). Returns 1.0 for a zero makespan.
    pub fn interleaving_index(&self, makespan: u64) -> f64 {
        if makespan == 0 {
            return 1.0;
        }
        // Between consecutive change points every count is constant.
        let mut cuts: Vec<u64> = self.segs.iter().flatten().map(|&(t, _)| t).collect();
        cuts.extend([0, makespan]);
        cuts.retain(|&t| t <= makespan);
        cuts.sort_unstable();
        cuts.dedup();
        let all_busy: u64 = cuts
            .windows(2)
            .filter(|w| (0..self.segs.len()).all(|alpha| self.busy_at(alpha, w[0]) > 0))
            .map(|w| w[1] - w[0])
            .sum();
        all_busy as f64 / makespan as f64
    }

    /// One text sparkline per type (`.`, `▁▂▃▄▅▆▇█` by mean utilization
    /// of `procs[alpha]` processors), `[0, makespan)` bucketed to at most
    /// `max_width` columns.
    pub fn sparklines(&self, procs: &[usize], makespan: u64, max_width: usize) -> String {
        const LEVELS: [char; 9] = ['.', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let mut out = String::new();
        let width = (makespan as usize).clamp(1, max_width.max(1));
        let scale = (makespan as usize).div_ceil(width).max(1) as u64;
        for (alpha, &p) in procs.iter().enumerate() {
            out.push_str(&format!("type{alpha} |"));
            for start in (0..makespan).step_by(scale as usize) {
                let end = (start + scale).min(makespan);
                let busy = self.busy_integral(alpha, end) - self.busy_integral(alpha, start);
                let u = busy as f64 / (end - start) as f64 / p as f64;
                out.push(LEVELS[((u * 8.0).round() as usize).min(8)]);
            }
            out.push_str("|\n");
        }
        out
    }

    /// Derives the full per-type report for a machine with `procs[alpha]`
    /// processors of each type and the given run `makespan`.
    pub fn report(&self, procs: &[u32], makespan: u64) -> UtilizationReport {
        assert_eq!(procs.len(), self.segs.len(), "type count mismatch");
        let per_type = procs
            .iter()
            .enumerate()
            .map(|(alpha, &p)| {
                let busy = self.busy_integral(alpha, makespan);
                let drain = self.drain_time(alpha, makespan);
                let capacity = p as u64 * makespan;
                let idle_tail = p as u64 * makespan.saturating_sub(drain);
                let idle_active = (p as u64 * drain).saturating_sub(busy);
                TypeUtilization {
                    procs: p,
                    busy,
                    idle_active,
                    idle_tail,
                    drain_time: drain,
                    utilization: if capacity == 0 {
                        1.0
                    } else {
                        busy as f64 / capacity as f64
                    },
                }
            })
            .collect();
        UtilizationReport { makespan, per_type }
    }
}

/// One type's utilization accounting over a run. The three time terms
/// decompose the type's whole capacity:
/// `busy + idle_active + idle_tail = procs × makespan`.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeUtilization {
    /// Processors of this type (`P_α`).
    pub procs: u32,
    /// Busy processor-time (`busy_α`).
    pub busy: u64,
    /// Idle processor-time before the type drained — capacity the
    /// schedule left unused while this type still had work in flight.
    pub idle_active: u64,
    /// Idle processor-time after the type drained — the tail this type
    /// spends waiting for the rest of the job to finish.
    pub idle_tail: u64,
    /// Time-to-drain: the last instant any processor of the type was
    /// busy.
    pub drain_time: u64,
    /// `busy_α / (P_α · makespan)`; 1.0 for a zero-makespan run (the
    /// convention of `SimOutcome::utilization`).
    pub utilization: f64,
}

/// Per-type utilization report of one run (or, aggregated, of a cell).
#[derive(Clone, Debug, PartialEq)]
pub struct UtilizationReport {
    /// The run's makespan.
    pub makespan: u64,
    /// One entry per type `α`.
    pub per_type: Vec<TypeUtilization>,
}

impl UtilizationReport {
    /// Utilization-imbalance index: `max_α u_α − min_α u_α` (0 for < 2
    /// types).
    pub fn imbalance(&self) -> f64 {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for t in &self.per_type {
            min = min.min(t.utilization);
            max = max.max(t.utilization);
        }
        if self.per_type.is_empty() {
            0.0
        } else {
            max - min
        }
    }

    /// Coefficient of variation of the per-type utilizations
    /// (population std / mean); 0 when the mean is 0.
    pub fn cov(&self) -> f64 {
        let n = self.per_type.len();
        if n == 0 {
            return 0.0;
        }
        let mean = self.per_type.iter().map(|t| t.utilization).sum::<f64>() / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .per_type
            .iter()
            .map(|t| (t.utilization - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Per type, the `(utilization, drain_time / makespan)` pair a
    /// [`UtilSummary`] sums (the drain fraction is 1.0 for a zero
    /// makespan).
    pub fn addends(&self) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        self.per_type.iter().map(|t| {
            let drain = if self.makespan == 0 {
                1.0
            } else {
                t.drain_time as f64 / self.makespan as f64
            };
            (t.utilization, drain)
        })
    }
}

/// Cross-instance aggregation of [`UtilizationReport`]s for one sweep
/// cell. Sums are accumulated in instance order (deterministic for a
/// fixed instance stream); merging across groups is supported for
/// cross-worker reduction where exact float reproducibility is not
/// asserted.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UtilSummary {
    /// Aggregated runs.
    pub runs: u64,
    /// Per-type sum of utilizations across runs.
    pub sum_util: Vec<f64>,
    /// Per-type sum of `drain_time / makespan` across runs (a type's
    /// normalized time-to-drain; 1.0 when it drains at the makespan).
    pub sum_drain_frac: Vec<f64>,
    /// Sum of per-run imbalance indices (max−min).
    pub sum_imbalance: f64,
    /// Sum of per-run coefficients of variation.
    pub sum_cov: f64,
}

impl UtilSummary {
    /// An empty summary over `k` types.
    pub fn new(k: usize) -> Self {
        UtilSummary {
            runs: 0,
            sum_util: vec![0.0; k],
            sum_drain_frac: vec![0.0; k],
            sum_imbalance: 0.0,
            sum_cov: 0.0,
        }
    }

    /// Folds one run's report in.
    pub fn add(&mut self, r: &UtilizationReport) {
        self.add_parts(r.addends(), r.imbalance(), r.cov());
    }

    /// Folds one run given as its addends: per type `(utilization,
    /// drain fraction)` (see [`UtilizationReport::addends`]), then the
    /// run's imbalance and CoV. The one fold behind [`add`](Self::add)
    /// and any replay of recorded addends, so both sum bit for bit alike.
    pub fn add_parts(
        &mut self,
        per_type: impl ExactSizeIterator<Item = (f64, f64)>,
        imbalance: f64,
        cov: f64,
    ) {
        if self.sum_util.len() != per_type.len() {
            assert_eq!(self.runs, 0, "type count changed mid-summary");
            *self = UtilSummary::new(per_type.len());
        }
        self.runs += 1;
        for (alpha, (u, d)) in per_type.enumerate() {
            self.sum_util[alpha] += u;
            self.sum_drain_frac[alpha] += d;
        }
        self.sum_imbalance += imbalance;
        self.sum_cov += cov;
    }

    /// Merges another summary (e.g. from another worker's share).
    pub fn merge(&mut self, other: &UtilSummary) {
        if other.runs == 0 {
            return;
        }
        if self.runs == 0 {
            *self = other.clone();
            return;
        }
        assert_eq!(self.sum_util.len(), other.sum_util.len());
        self.runs += other.runs;
        for (a, b) in self.sum_util.iter_mut().zip(&other.sum_util) {
            *a += b;
        }
        for (a, b) in self.sum_drain_frac.iter_mut().zip(&other.sum_drain_frac) {
            *a += b;
        }
        self.sum_imbalance += other.sum_imbalance;
        self.sum_cov += other.sum_cov;
    }

    /// Mean utilization of type `alpha` across runs.
    pub fn mean_util(&self, alpha: usize) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.sum_util[alpha] / self.runs as f64
        }
    }

    /// Mean normalized time-to-drain of type `alpha` across runs.
    pub fn mean_drain_frac(&self, alpha: usize) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.sum_drain_frac[alpha] / self.runs as f64
        }
    }

    /// Mean imbalance index across runs.
    pub fn mean_imbalance(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.sum_imbalance / self.runs as f64
        }
    }

    /// Mean coefficient of variation across runs.
    pub fn mean_cov(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.sum_cov / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_equal_counts_and_overwrites_same_time() {
        let mut tl = UtilTimeline::new();
        tl.begin(1);
        tl.set(0, 0, 0); // implicit leading zero: dropped
        tl.set(0, 2, 1);
        tl.set(0, 2, 2); // same-time overwrite
        tl.set(0, 5, 2); // no-op
        tl.set(0, 7, 0);
        assert_eq!(tl.segments(0), &[(2, 2), (7, 0)]);
    }

    #[test]
    fn same_time_overwrite_back_to_previous_count_pops() {
        let mut tl = UtilTimeline::new();
        tl.begin(1);
        tl.set(0, 0, 1);
        tl.set(0, 4, 2);
        tl.set(0, 4, 1); // transient blip at t=4 cancels out
        assert_eq!(tl.segments(0), &[(0, 1)]);
    }

    #[test]
    fn busy_integral_and_drain() {
        let mut tl = UtilTimeline::new();
        tl.begin(2);
        // type 0: 2 busy on [1,4), 1 busy on [4,6), idle after.
        tl.set(0, 1, 2);
        tl.set(0, 4, 1);
        tl.set(0, 6, 0);
        // type 1: never busy.
        let makespan = 10;
        assert_eq!(tl.busy_integral(0, makespan), 2 * 3 + 2);
        assert_eq!(tl.drain_time(0, makespan), 6);
        assert_eq!(tl.busy_integral(1, makespan), 0);
        assert_eq!(tl.drain_time(1, makespan), 0);
    }

    #[test]
    fn report_decomposition_sums_to_capacity() {
        let mut tl = UtilTimeline::new();
        tl.begin(2);
        tl.set(0, 0, 3);
        tl.set(0, 5, 1);
        tl.set(0, 8, 0);
        tl.set(1, 2, 1);
        tl.set(1, 12, 0);
        let r = tl.report(&[3, 2], 12);
        for (alpha, t) in r.per_type.iter().enumerate() {
            assert_eq!(
                t.busy + t.idle_active + t.idle_tail,
                t.procs as u64 * r.makespan,
                "type {alpha}"
            );
        }
        assert_eq!(r.per_type[0].busy, 15 + 3);
        assert_eq!(r.per_type[0].drain_time, 8);
        assert_eq!(r.per_type[0].idle_tail, 3 * 4);
        assert_eq!(r.per_type[1].drain_time, 12);
        assert_eq!(r.per_type[1].idle_tail, 0);
    }

    #[test]
    fn busy_still_open_at_makespan() {
        let mut tl = UtilTimeline::new();
        tl.begin(1);
        tl.set(0, 0, 1);
        assert_eq!(tl.busy_integral(0, 9), 9);
        assert_eq!(tl.drain_time(0, 9), 9);
    }

    #[test]
    fn zero_makespan_reports_full_utilization() {
        let tl = {
            let mut t = UtilTimeline::new();
            t.begin(2);
            t
        };
        let r = tl.report(&[2, 3], 0);
        assert!(r.per_type.iter().all(|t| t.utilization == 1.0));
        assert_eq!(r.imbalance(), 0.0);
    }

    #[test]
    fn imbalance_and_cov() {
        let r = UtilizationReport {
            makespan: 10,
            per_type: vec![
                TypeUtilization {
                    procs: 1,
                    busy: 10,
                    idle_active: 0,
                    idle_tail: 0,
                    drain_time: 10,
                    utilization: 1.0,
                },
                TypeUtilization {
                    procs: 1,
                    busy: 5,
                    idle_active: 5,
                    idle_tail: 0,
                    drain_time: 10,
                    utilization: 0.5,
                },
            ],
        };
        assert!((r.imbalance() - 0.5).abs() < 1e-12);
        // population std of {1.0, 0.5} is 0.25; CoV = 0.25/0.75
        assert!((r.cov() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_means_and_merge() {
        let report = |u0: f64, u1: f64| UtilizationReport {
            makespan: 10,
            per_type: vec![
                TypeUtilization {
                    procs: 1,
                    busy: (u0 * 10.0) as u64,
                    idle_active: 0,
                    idle_tail: 0,
                    drain_time: 10,
                    utilization: u0,
                },
                TypeUtilization {
                    procs: 1,
                    busy: (u1 * 10.0) as u64,
                    idle_active: 0,
                    idle_tail: 0,
                    drain_time: 5,
                    utilization: u1,
                },
            ],
        };
        let mut s = UtilSummary::new(2);
        s.add(&report(1.0, 0.5));
        s.add(&report(0.8, 0.7));
        assert_eq!(s.runs, 2);
        assert!((s.mean_util(0) - 0.9).abs() < 1e-12);
        assert!((s.mean_util(1) - 0.6).abs() < 1e-12);
        assert!((s.mean_drain_frac(1) - 0.5).abs() < 1e-12);
        let mut a = UtilSummary::new(2);
        a.add(&report(1.0, 0.5));
        let mut b = UtilSummary::new(2);
        b.add(&report(0.8, 0.7));
        a.merge(&b);
        assert_eq!(a, s);
    }

    /// Type 0 busy on `[0, 2)`, then type 1 on `[2, 5)`: a two-task chain.
    fn chain() -> UtilTimeline {
        UtilTimeline::from_intervals(2, [(0, 0, 2), (1, 2, 5)])
    }

    #[test]
    fn chain_has_zero_interleaving() {
        assert_eq!(chain().interleaving_index(5), 0.0);
    }

    #[test]
    fn parallel_types_have_full_interleaving() {
        let tl = UtilTimeline::from_intervals(2, [(0, 0, 4), (1, 0, 4)]);
        assert_eq!(tl.interleaving_index(4), 1.0);
    }

    #[test]
    fn sparklines_render_one_row_per_type() {
        let text = chain().sparklines(&[1, 1], 5, 40);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("type0 |"));
        assert!(text.contains('█'));
        assert!(text.contains('.'));
    }

    #[test]
    fn sparklines_respect_width_cap() {
        let text = chain().sparklines(&[1, 1], 5, 3);
        for line in text.lines() {
            let body: String = line.chars().skip_while(|&c| c != '|').collect();
            assert!(body.chars().count() <= 3 + 2, "row too wide: {line}");
        }
    }

    /// The dense `K × makespan` grid the run-length methods replace:
    /// its interleaving index and sparklines, computed step by step.
    fn dense(intervals: &[(usize, u64, u64)], procs: &[usize], ms: u64, w: usize) -> (f64, String) {
        let mut busy = vec![vec![0u32; ms as usize]; procs.len()];
        for &(alpha, start, end) in intervals {
            (start..end).for_each(|t| busy[alpha][t as usize] += 1);
        }
        let all = (0..ms as usize)
            .filter(|&t| busy.iter().all(|r| r[t] > 0))
            .count();
        let index = if ms == 0 { 1.0 } else { all as f64 / ms as f64 };
        let scale = (ms as usize)
            .div_ceil((ms as usize).clamp(1, w.max(1)))
            .max(1);
        let mut text = String::new();
        for (alpha, row) in busy.iter().enumerate() {
            text.push_str(&format!("type{alpha} |"));
            for b in row.chunks(scale) {
                let u = b.iter().sum::<u32>() as f64 / b.len() as f64 / procs[alpha] as f64;
                text.push(
                    ['.', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█']
                        [((u * 8.0).round() as usize).min(8)],
                );
            }
            text.push_str("|\n");
        }
        (index, text)
    }

    #[test]
    fn run_length_methods_match_the_dense_grid_on_preemptive_traces() {
        // SplitMix64: a fixed seed, so every case replays.
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..300 {
            // Each processor runs a sequence of segments separated by
            // gaps (0 = a task resumed or switched at the same instant),
            // as a preemptive schedule leaves them in its trace.
            let procs: Vec<usize> = (0..1 + next(4)).map(|_| 1 + next(3) as usize).collect();
            let mut intervals = Vec::new();
            for (alpha, &p) in procs.iter().enumerate() {
                for _ in 0..p {
                    let mut t = next(5);
                    for _ in 0..next(6) {
                        let len = 1 + next(7);
                        intervals.push((alpha, t, t + len));
                        t += len + next(3) * next(4);
                    }
                }
            }
            let end = intervals.iter().map(|&(_, _, e)| e).max().unwrap_or(0);
            let makespan = end + next(2) * next(5);
            let width = 1 + next(30) as usize;
            let tl = UtilTimeline::from_intervals(procs.len(), intervals.iter().copied());
            let (index, text) = dense(&intervals, &procs, makespan, width);
            assert_eq!(tl.interleaving_index(makespan).to_bits(), index.to_bits());
            assert_eq!(tl.sparklines(&procs, makespan, width), text);
        }
    }

    #[test]
    fn begin_retains_capacity() {
        let mut tl = UtilTimeline::new();
        tl.begin(2);
        for t in 0..100u64 {
            tl.set(0, t, (t % 3) as u32);
        }
        let cap = tl.segs[0].capacity();
        tl.begin(2);
        assert!(tl.segments(0).is_empty());
        assert_eq!(tl.segs[0].capacity(), cap);
    }
}
