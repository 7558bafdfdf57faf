//! Sharded sweep export and the bit-identical merge.
//!
//! A sweep over `0..instances` can be split across processes by instance
//! range: each shard evaluates a contiguous slice `lo..hi` with
//! [`run_sweep_rows`](crate::runner::run_sweep_rows) (absolute seeding
//! keeps instance `i` identical in any shard layout) and writes a
//! **fragment** — a small JSONL file carrying, per sweep column, the raw
//! per-instance completion-time ratios, the shard-folded engine counters,
//! and the per-instance utilization addends. [`merge_shards`] folds any
//! exact partition of the instance range back together and re-renders the
//! metrics-JSONL through [`obsout::metrics_line`], producing output
//! **byte-identical** to the unsharded `sweep --stable --metrics-out` run.
//!
//! Why the fragment carries per-instance `f64`s instead of shard-level
//! sums: integer counters and histograms merge exactly in any grouping,
//! but the utilization aggregates are `f64` sums, exact only for a fixed
//! fold order. Shards are contiguous sorted ranges, so replaying each
//! instance's addends in global instance order reproduces the unsharded
//! sequential fold bit for bit. Ratios are carried raw for the same
//! reason: the summary statistics are computed once, from the full
//! concatenated vector, by the same [`Summary::from_samples`](crate::stats::Summary::from_samples) the
//! unsharded path uses. All `f64`s travel as shortest-roundtrip decimal
//! strings (Rust's `{}` formatting), which parse back to the exact same
//! bit pattern.
//!
//! Fragments are stabilized at write time (see [`obsout::stabilize`]):
//! wall-clock nanos and per-process workspace counters are zeroed, so a
//! fragment is a pure function of `(workload, seed, lo..hi)`. Event
//! traces (the instance-0 Chrome-trace channel) are not carried through
//! fragments — they never appear in metrics-JSONL, and a shard run can
//! export them directly via `--trace-out` instead.

use fhs_obs::json::{json_f64, json_string, parse, Value};
use fhs_obs::HistSnapshot;
use fhs_sim::RunStats;

use crate::obsout::{self, parse_stats, stats_json};
use crate::runner::{CellObs, InstanceRuns, SweepCellResult};

/// Version tag stamped into every fragment's header line; merge refuses
/// fragments with a different version.
pub const SHARD_SCHEMA_VERSION: u64 = 1;

/// Identity of the sweep a fragment belongs to. Every field except
/// `lo`/`hi` must agree across the fragments of one merge.
#[derive(Clone, Debug)]
pub struct ShardMeta<'a> {
    /// Workload label (`WorkloadSpec::label()`).
    pub workload: &'a str,
    /// Mode label as rendered in metrics-JSONL (`"np"` / `"pre"`).
    pub mode: &'a str,
    /// **Total** sweep instances (not this shard's count).
    pub instances: usize,
    /// Base seed of the sweep.
    pub seed: u64,
    /// First absolute instance index of this shard (inclusive).
    pub lo: u64,
    /// One past the last absolute instance index of this shard.
    pub hi: u64,
    /// Column labels, in column order (algorithm labels).
    pub cells: &'a [String],
}

fn f64s_json(vals: &[f64]) -> String {
    let parts: Vec<String> = vals.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", parts.join(","))
}

fn hist_parts_json(h: &HistSnapshot) -> String {
    let buckets: Vec<String> = h
        .buckets()
        .iter()
        .map(|&(i, c)| format!("[{i},{c}]"))
        .collect();
    format!(
        "{{\"count\":{},\"max\":{},\"sum\":{},\"buckets\":[{}]}}",
        h.count,
        h.max,
        h.sum,
        buckets.join(",")
    )
}

/// Renders each column's per-instance utilization addends in `rows` into
/// `utils` (one list per column), in row = instance order — the only
/// order that merges exactly. Call it on every chunk of a shard's rows
/// before [`fold_rows`](crate::runner::fold_rows) consumes the chunk.
pub fn capture_util_addends(utils: &mut [Vec<String>], rows: &[InstanceRuns]) {
    for row in rows {
        assert_eq!(row.len(), utils.len(), "row width != cell count");
        for (cell_utils, (_, _, obs)) in utils.iter_mut().zip(row) {
            if let Some(u) = obs.as_ref().and_then(|o| o.util.as_ref()) {
                let (util, drain): (Vec<f64>, Vec<f64>) = u.addends().unzip();
                cell_utils.push(format!(
                    "{{\"u\":{},\"d\":{},\"imb\":{},\"cov\":{}}}",
                    f64s_json(&util),
                    f64s_json(&drain),
                    json_f64(u.imbalance()),
                    json_f64(u.cov()),
                ));
            }
        }
    }
}

/// Renders one shard's fragment from its columns, folded by
/// [`fold_rows`](crate::runner::fold_rows) from the rows
/// [`run_sweep_rows`](crate::runner::run_sweep_rows) produced over
/// `lo..hi`, and the utilization addends [`capture_util_addends`] took
/// from the same rows. The columns are stabilized first.
///
/// Line 1 is the header (schema version + sweep identity + range); then
/// one line per column carrying the per-instance ratios, the stabilized
/// shard-folded counters, and — when recording ran — the merged
/// queue-depth histogram plus the per-instance utilization addends.
pub fn shard_fragment(
    meta: &ShardMeta<'_>,
    cols: &mut [SweepCellResult],
    utils: &[Vec<String>],
) -> String {
    assert_eq!(cols.len(), meta.cells.len(), "column count != cell count");
    assert_eq!(utils.len(), meta.cells.len(), "addend lists != cell count");
    for col in cols.iter_mut() {
        assert_eq!(
            col.ratios.len() as u64,
            meta.hi - meta.lo,
            "row count != range"
        );
        obsout::stabilize(col);
    }

    let labels: Vec<String> = meta.cells.iter().map(|c| json_string(c)).collect();
    let mut out = format!(
        "{{\"version\":{SHARD_SCHEMA_VERSION},\"kind\":\"shard\",\"workload\":{},\"mode\":{},\"instances\":{},\"seed\":{},\"lo\":{},\"hi\":{},\"cells\":[{}]}}\n",
        json_string(meta.workload),
        json_string(meta.mode),
        meta.instances,
        meta.seed,
        meta.lo,
        meta.hi,
        labels.join(","),
    );
    for ((label, col), cell_utils) in meta.cells.iter().zip(cols.iter()).zip(utils) {
        out.push_str(&format!(
            "{{\"kind\":\"shard-cell\",\"cell\":{},\"ratios\":{},\"stats\":{}",
            json_string(label),
            f64s_json(&col.ratios),
            stats_json(&col.stats),
        ));
        if let Some(o) = &col.obs {
            out.push_str(&format!(
                ",\"obs\":{{\"runs\":{},\"queue_depth\":{},\"util\":[{}]}}",
                o.runs,
                hist_parts_json(&o.queue_depth),
                cell_utils.join(","),
            ));
        }
        out.push_str("}\n");
    }
    out
}

// ---------------------------------------------------------------------------
// Parsing fragments back.
// ---------------------------------------------------------------------------

fn want_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("missing/invalid u64 field {key:?}"))
}

fn want_str(v: &Value, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(|x| x.as_str())
        .ok_or_else(|| format!("missing/invalid string field {key:?}"))?
        .to_string())
}

fn want_arr<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    v.get(key)
        .and_then(|x| x.as_array())
        .ok_or_else(|| format!("missing/invalid array field {key:?}"))
}

/// Non-finite values travel as JSON `null`; any non-number parses back as
/// NaN, which poisons downstream sums exactly as the original non-finite
/// value would — both render as `null` again in the merged output.
fn lenient_f64(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// Reads a histogram back; [`HistSnapshot::from_parts`] checks the
/// bucket list.
fn parse_hist(v: &Value) -> Result<HistSnapshot, String> {
    let count = want_u64(v, "count")?;
    let max = want_u64(v, "max")?;
    let sum = want_u64(v, "sum")?;
    let mut buckets: Vec<(u16, u64)> = Vec::new();
    for pair in want_arr(v, "buckets")? {
        let p = pair.as_array().ok_or("bucket entry is not a pair")?;
        if p.len() != 2 {
            return Err("bucket entry is not a pair".into());
        }
        let idx = p[0]
            .as_u64()
            .and_then(|i| u16::try_from(i).ok())
            .ok_or("bad bucket index")?;
        let n = p[1].as_u64().ok_or("bad bucket count")?;
        buckets.push((idx, n));
    }
    HistSnapshot::from_parts(count, max, sum, buckets)
}

struct CellFrag {
    ratios: Vec<f64>,
    stats: RunStats,
    obs: Option<ObsFrag>,
}

struct ObsFrag {
    runs: u64,
    queue_depth: HistSnapshot,
    /// Per-instance utilization addends (`{"u","d","imb","cov"}`), folded
    /// at merge time in global instance order.
    util: Vec<Value>,
}

struct Frag {
    workload: String,
    mode: String,
    instances: u64,
    seed: u64,
    lo: u64,
    hi: u64,
    labels: Vec<String>,
    cells: Vec<CellFrag>,
}

fn parse_fragment(text: &str) -> Result<Frag, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty fragment")?;
    let header = parse(header_line).map_err(|e| format!("header: {e}"))?;
    let version = want_u64(&header, "version")?;
    if version != SHARD_SCHEMA_VERSION {
        return Err(format!(
            "fragment schema v{version}, expected v{SHARD_SCHEMA_VERSION}"
        ));
    }
    if want_str(&header, "kind")? != "shard" {
        return Err("not a shard fragment (kind != \"shard\")".into());
    }
    let mut frag = Frag {
        workload: want_str(&header, "workload")?,
        mode: want_str(&header, "mode")?,
        instances: want_u64(&header, "instances")?,
        seed: want_u64(&header, "seed")?,
        lo: want_u64(&header, "lo")?,
        hi: want_u64(&header, "hi")?,
        labels: want_arr(&header, "cells")?
            .iter()
            .map(|v| v.as_str().map(str::to_string).ok_or("bad cell label"))
            .collect::<Result<_, _>>()?,
        cells: Vec::new(),
    };
    if frag.lo >= frag.hi || frag.hi > frag.instances {
        return Err(format!(
            "bad range {}..{} over {} instances",
            frag.lo, frag.hi, frag.instances
        ));
    }
    for line in lines {
        let v = parse(line).map_err(|e| format!("cell line: {e}"))?;
        if want_str(&v, "kind")? != "shard-cell" {
            return Err("unexpected line kind in fragment".into());
        }
        let obs = match v.get("obs") {
            None => None,
            Some(o) => Some(ObsFrag {
                runs: want_u64(o, "runs")?,
                queue_depth: parse_hist(o.get("queue_depth").ok_or("missing queue_depth")?)?,
                util: want_arr(o, "util")?.to_vec(),
            }),
        };
        frag.cells.push(CellFrag {
            ratios: want_arr(&v, "ratios")?.iter().map(lenient_f64).collect(),
            stats: parse_stats(v.get("stats").ok_or("missing stats block")?)?,
            obs,
        });
    }
    if frag.cells.len() != frag.labels.len() {
        return Err(format!(
            "fragment has {} cell lines for {} declared cells",
            frag.cells.len(),
            frag.labels.len()
        ));
    }
    for (cell, label) in frag.cells.iter().zip(&frag.labels) {
        if cell.ratios.len() as u64 != frag.hi - frag.lo {
            return Err(format!(
                "cell {label:?} carries {} ratios for range {}..{}",
                cell.ratios.len(),
                frag.lo,
                frag.hi
            ));
        }
    }
    Ok(frag)
}

/// Merges shard fragments back into metrics-JSONL, byte-identical to the
/// unsharded `sweep --stable --metrics-out` over the full instance range.
///
/// The fragments may arrive in any order but must form an **exact
/// partition** of `0..instances` (contiguous, non-overlapping, covering)
/// and agree on the sweep identity (workload, mode, seed, total
/// instances, cell labels) and schema version — anything else is an
/// error, not a silent partial merge.
pub fn merge_shards(fragments: &[String]) -> Result<String, String> {
    if fragments.is_empty() {
        return Err("no fragments to merge".into());
    }
    let mut frags = Vec::with_capacity(fragments.len());
    for (i, text) in fragments.iter().enumerate() {
        frags.push(parse_fragment(text).map_err(|e| format!("fragment {i}: {e}"))?);
    }
    frags.sort_by_key(|f| f.lo);
    let first = &frags[0];
    for f in &frags[1..] {
        if f.workload != first.workload
            || f.mode != first.mode
            || f.instances != first.instances
            || f.seed != first.seed
            || f.labels != first.labels
        {
            return Err(
                "fragments disagree on sweep identity (workload/mode/instances/seed/cells)".into(),
            );
        }
    }
    let mut expect = 0u64;
    for f in &frags {
        if f.lo != expect {
            return Err(format!(
                "instance ranges do not partition 0..{}: expected a shard starting at {expect}, found {}..{}",
                first.instances, f.lo, f.hi
            ));
        }
        expect = f.hi;
    }
    if expect != first.instances {
        return Err(format!(
            "instance ranges stop at {expect}, expected {}",
            first.instances
        ));
    }

    let (workload, mode, instances, seed) = (
        first.workload.clone(),
        first.mode.clone(),
        first.instances as usize,
        first.seed,
    );
    let labels = first.labels.clone();
    let mut out = String::new();
    for (c, label) in labels.iter().enumerate() {
        let mut ratios: Vec<f64> = Vec::with_capacity(instances);
        let mut stats = RunStats::default();
        let mut obs: Option<CellObs> = None;
        for f in &frags {
            let cell = &f.cells[c];
            ratios.extend_from_slice(&cell.ratios);
            stats.merge(&cell.stats);
            if let Some(o) = &cell.obs {
                let acc = obs.get_or_insert_with(CellObs::default);
                acc.runs += o.runs;
                acc.queue_depth.merge(&o.queue_depth);
                for e in &o.util {
                    let (u, d) = (want_arr(e, "u")?, want_arr(e, "d")?);
                    let types = acc.util.sum_util.len();
                    if u.len() != d.len() || (acc.util.runs > 0 && u.len() != types) {
                        return Err(format!(
                            "cell {label:?}: utilization entry of the wrong width"
                        ));
                    }
                    let lenient = |key| e.get(key).map_or(f64::NAN, lenient_f64);
                    let addends = u
                        .iter()
                        .zip(d)
                        .map(|(u, d)| (lenient_f64(u), lenient_f64(d)));
                    acc.util.add_parts(addends, lenient("imb"), lenient("cov"));
                }
            }
        }
        let summary = crate::stats::Summary::from_samples(&ratios);
        out.push_str(&obsout::metrics_line(
            label,
            &workload,
            &mode,
            instances,
            seed,
            &summary,
            &stats,
            obs.as_ref(),
        ));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{
        fold_rows, new_sweep_columns, run_sweep_observed, run_sweep_rows, SweepCell,
    };
    use fhs_core::Algorithm;
    use fhs_obs::{ObsConfig, BUCKETS};
    use fhs_sim::Mode;
    use fhs_workloads::{resources::SystemSize, Family, Typing, WorkloadSpec};

    fn unsharded_stable(
        spec: &WorkloadSpec,
        cells: &[SweepCell],
        labels: &[String],
        instances: usize,
        seed: u64,
        observe: ObsConfig,
    ) -> String {
        let mut cols = run_sweep_observed(spec, cells, instances, seed, Some(2), observe);
        let mut out = String::new();
        for (label, col) in labels.iter().zip(cols.iter_mut()) {
            obsout::stabilize(col);
            out.push_str(&obsout::metrics_line(
                label,
                &spec.label(),
                "np",
                instances,
                seed,
                &col.summary(),
                &col.stats,
                col.obs.as_ref(),
            ));
            out.push('\n');
        }
        out
    }

    fn fragments_for(
        spec: &WorkloadSpec,
        cells: &[SweepCell],
        labels: &[String],
        instances: usize,
        seed: u64,
        observe: ObsConfig,
        bounds: &[u64],
    ) -> Vec<String> {
        bounds
            .windows(2)
            .map(|w| {
                chunked_fragment(
                    spec,
                    cells,
                    labels,
                    instances,
                    seed,
                    observe,
                    w[0]..w[1],
                    &[],
                )
            })
            .collect()
    }

    /// The fragment of shard `range`, its rows evaluated and folded chunk
    /// by chunk at the absolute instance indices in `cuts`, as the `sweep`
    /// binary does with `--snapshot-every`.
    #[allow(clippy::too_many_arguments)]
    fn chunked_fragment(
        spec: &WorkloadSpec,
        cells: &[SweepCell],
        labels: &[String],
        instances: usize,
        seed: u64,
        observe: ObsConfig,
        range: std::ops::Range<u64>,
        cuts: &[u64],
    ) -> String {
        let mut cols = new_sweep_columns(cells.len());
        let mut utils = vec![Vec::new(); cells.len()];
        let bounds: Vec<u64> = std::iter::once(range.start)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(range.end))
            .collect();
        for w in bounds.windows(2) {
            let rows = run_sweep_rows(spec, cells, w[0]..w[1], seed, Some(2), observe);
            capture_util_addends(&mut utils, &rows);
            fold_rows(&mut cols, rows);
        }
        let meta = ShardMeta {
            workload: &spec.label(),
            mode: "np",
            instances,
            seed,
            lo: range.start,
            hi: range.end,
            cells: labels,
        };
        shard_fragment(&meta, &mut cols, &utils)
    }

    fn setup() -> (WorkloadSpec, Vec<SweepCell>, Vec<String>) {
        let spec = WorkloadSpec::new(Family::Ir, Typing::Layered, SystemSize::Small, 3);
        let algos = [Algorithm::Mqb, Algorithm::KGreedy, Algorithm::LSpan];
        let cells: Vec<SweepCell> = algos
            .iter()
            .map(|&a| SweepCell::new(a, Mode::NonPreemptive))
            .collect();
        let labels: Vec<String> = algos.iter().map(|a| a.label().to_string()).collect();
        (spec, cells, labels)
    }

    #[test]
    fn two_uneven_shards_merge_byte_identical() {
        let (spec, cells, labels) = setup();
        let oc = ObsConfig::all();
        let want = unsharded_stable(&spec, &cells, &labels, 9, 77, oc);
        let frags = fragments_for(&spec, &cells, &labels, 9, 77, oc, &[0, 2, 9]);
        assert_eq!(merge_shards(&frags).unwrap(), want);
        // Merge must not depend on fragment order.
        let reversed: Vec<String> = frags.into_iter().rev().collect();
        assert_eq!(merge_shards(&reversed).unwrap(), want);
    }

    #[test]
    fn fragment_folded_in_three_chunks_equals_the_one_shot_fragment() {
        let (spec, cells, labels) = setup();
        let oc = ObsConfig::all();
        let one_shot = chunked_fragment(&spec, &cells, &labels, 12, 41, oc, 2..11, &[]);
        let chunked = chunked_fragment(&spec, &cells, &labels, 12, 41, oc, 2..11, &[3, 7]);
        assert_eq!(chunked, one_shot);
    }

    #[test]
    fn three_shards_without_observability_merge_byte_identical() {
        let (spec, cells, labels) = setup();
        let oc = ObsConfig::default();
        let want = unsharded_stable(&spec, &cells, &labels, 10, 5, oc);
        let frags = fragments_for(&spec, &cells, &labels, 10, 5, oc, &[0, 4, 5, 10]);
        assert_eq!(merge_shards(&frags).unwrap(), want);
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_identity_drift() {
        let (spec, cells, labels) = setup();
        let oc = ObsConfig::default();
        let frags = fragments_for(&spec, &cells, &labels, 8, 3, oc, &[0, 4, 8]);
        // Gap: second shard missing.
        assert!(merge_shards(&frags[..1]).is_err());
        // Identity drift: different seed in the second fragment.
        let other = fragments_for(&spec, &cells, &labels, 8, 4, oc, &[0, 4, 8]);
        let mixed = vec![frags[0].clone(), other[1].clone()];
        assert!(merge_shards(&mixed).unwrap_err().contains("identity"));
        // Overlap: same range twice.
        let doubled = vec![frags[0].clone(), frags[0].clone(), frags[1].clone()];
        assert!(merge_shards(&doubled).is_err());
        assert!(merge_shards(&[]).is_err());
    }

    #[test]
    fn merge_rejects_utilization_entries_of_the_wrong_width() {
        let (spec, cells, labels) = setup();
        let oc = ObsConfig::all();
        let frags = fragments_for(&spec, &cells, &labels, 6, 11, oc, &[0, 3, 6]);
        assert!(merge_shards(&frags).is_ok());
        // One entry's drain fractions one longer than its utilizations.
        let ragged = vec![
            frags[0].clone(),
            frags[1].replacen("\"d\":[", "\"d\":[0.5,", 1),
        ];
        assert!(merge_shards(&ragged).unwrap_err().contains("wrong width"));
        // A later entry with a fourth type in both lists.
        let wider =
            frags[1]
                .replacen("\"u\":[", "\"u\":[0.5,", 1)
                .replacen("\"d\":[", "\"d\":[0.5,", 1);
        let widened = vec![frags[0].clone(), wider];
        assert!(merge_shards(&widened).unwrap_err().contains("wrong width"));
    }

    /// One real two-shard fragment set with every channel recorded.
    fn observed_fragments() -> &'static [String] {
        static FRAGS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        FRAGS.get_or_init(|| {
            let (spec, cells, labels) = setup();
            fragments_for(&spec, &cells, &labels, 4, 11, ObsConfig::all(), &[0, 2, 4])
        })
    }

    /// Merges two observed fragments, the second's first queue-depth
    /// histogram replaced by the JSON object `hist`.
    fn merge_with_queue_depth(hist: &str) -> Result<String, String> {
        let frags = observed_fragments();
        let key = "\"queue_depth\":";
        let start = frags[1].find(key).expect("recording ran") + key.len();
        let end = start + frags[1][start..].find('}').expect("a closed object") + 1;
        let bad = format!("{}{hist}{}", &frags[1][..start], &frags[1][end..]);
        merge_shards(&[frags[0].clone(), bad])
    }

    #[test]
    fn merge_takes_a_well_formed_histogram() {
        let hist = r#"{"count":3,"max":40,"sum":47,"buckets":[[1,1],[40,2]]}"#;
        assert!(merge_with_queue_depth(hist).is_ok());
    }

    #[test]
    fn merge_rejects_a_bucket_index_past_the_table() {
        for idx in [BUCKETS, 600, 65_536 + 1] {
            let hist = format!(r#"{{"count":1,"max":5,"sum":5,"buckets":[[{idx},1]]}}"#);
            let err = merge_with_queue_depth(&hist).unwrap_err();
            assert!(err.contains("bucket index"), "{idx}: {err}");
        }
    }

    #[test]
    fn merge_rejects_buckets_out_of_order() {
        for buckets in ["[[5,1],[2,1]]", "[[3,1],[3,1]]"] {
            let hist = format!(r#"{{"count":2,"max":5,"sum":7,"buckets":{buckets}}}"#);
            let err = merge_with_queue_depth(&hist).unwrap_err();
            assert!(err.contains("out of order"), "{buckets}: {err}");
        }
    }

    #[test]
    fn merge_rejects_a_zero_bucket_count() {
        let hist = r#"{"count":1,"max":5,"sum":5,"buckets":[[2,0],[5,1]]}"#;
        let err = merge_with_queue_depth(hist).unwrap_err();
        assert!(err.contains("bucket count"), "{err}");
    }

    #[test]
    fn merge_rejects_bucket_counts_that_miss_the_total() {
        for (count, buckets) in [(3, "[[5,1]]"), (1, "[[2,1],[5,1]]")] {
            let hist = format!(r#"{{"count":{count},"max":5,"sum":5,"buckets":{buckets}}}"#);
            let err = merge_with_queue_depth(&hist).unwrap_err();
            assert!(err.contains("sum to"), "{buckets}: {err}");
        }
        let hist = format!(
            r#"{{"count":1,"max":5,"sum":5,"buckets":[[1,{}],[2,2]]}}"#,
            u64::MAX
        );
        assert!(merge_with_queue_depth(&hist)
            .unwrap_err()
            .contains("overflow"));
    }

    proptest::proptest! {
        // 4096 cases, about a second in debug: only about one case in a
        // thousand mangles a histogram bucket into a parseable but
        // invalid one.
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Truncated, spliced and byte-flipped fragments are merged or
        /// refused, never a panic.
        #[test]
        fn merge_survives_mangled_fragments(
            edits in proptest::collection::vec(
                (0u8..3, 0usize..2, proptest::prelude::any::<u32>(), proptest::prelude::any::<u32>(), 1u8..=255),
                1..4,
            ),
        ) {
            let mut frags: Vec<Vec<u8>> =
                observed_fragments().iter().map(|f| f.clone().into_bytes()).collect();
            for (op, which, at, len, mask) in edits {
                let other = frags[1 - which].clone();
                let f = &mut frags[which];
                let at = at as usize % (f.len() + 1);
                match op {
                    // Truncate at `at`.
                    0 => f.truncate(at),
                    // Splice in up to 64 bytes of the other fragment.
                    1 => {
                        let from = len as usize % (other.len() + 1);
                        let to = (from + 1 + len as usize % 64).min(other.len());
                        f.splice(at..at, other[from..to].iter().copied());
                    }
                    // Flip the bits of `mask` in one byte.
                    _ => {
                        if let Some(b) = f.get_mut(at) {
                            *b ^= mask;
                        }
                    }
                }
            }
            let frags: Vec<String> = frags
                .iter()
                .map(|f| String::from_utf8_lossy(f).into_owned())
                .collect();
            let _ = merge_shards(&frags);
        }
    }

    #[test]
    fn fragment_roundtrips_through_the_parser() {
        let (spec, cells, labels) = setup();
        let oc = ObsConfig::all();
        let frags = fragments_for(&spec, &cells, &labels, 6, 11, oc, &[0, 6]);
        let f = parse_fragment(&frags[0]).unwrap();
        assert_eq!(f.lo, 0);
        assert_eq!(f.hi, 6);
        assert_eq!(f.labels, labels);
        assert_eq!(f.cells.len(), 3);
        let cell = &f.cells[0];
        assert_eq!(cell.ratios.len(), 6);
        assert!(cell.stats.epochs > 0);
        let obs = cell.obs.as_ref().expect("recording ran");
        assert_eq!(obs.runs, 6);
        assert_eq!(obs.util.len(), 6);
        assert!(obs.queue_depth.count > 0);
    }
}
