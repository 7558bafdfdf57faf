//! Prometheus text-format exposition: builder and validator.

use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::hist::{bucket_high, HistSnapshot};

/// Metric sample types a family can declare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FamilyType {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyType {
    fn label(self) -> &'static str {
        match self {
            FamilyType::Counter => "counter",
            FamilyType::Gauge => "gauge",
            FamilyType::Histogram => "histogram",
        }
    }
}

/// Builder for Prometheus text exposition (format 0.0.4).
///
/// The format requires each family's lines to be contiguous ([`validate`]
/// checks that), so the builder groups them itself: samples may arrive in
/// any order, each family keeps its `# HELP`/`# TYPE` header (emitted
/// once) and its samples together, and [`finish`](Exposition::finish)
/// writes the families in the order of their first samples. So callers
/// may render series by series.
#[derive(Debug, Default)]
pub struct Exposition {
    /// (family name, its header and sample lines) in first-sample order.
    families: Vec<(String, String)>,
}

/// `true` iff `name` is a legal metric/label name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels additionally may not contain `:`,
/// which no caller here uses anyway).
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Renders a sample value: Prometheus accepts `NaN`, `+Inf`, `-Inf`
/// spellings for the non-finite cases; finite values use Rust's shortest
/// round-trip `Display`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Appends the sample line `name{labels} value` to `out`.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            debug_assert!(valid_name(k), "bad label name {k:?}");
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Escapes a label value: backslash, double-quote, and newline get
/// backslash escapes per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// The text of family `name`, opened with its header on first use.
    fn family(&mut self, name: &str, help: &str, ty: FamilyType) -> &mut String {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        let i = match self.families.iter().position(|(n, _)| n == name) {
            Some(i) => i,
            None => {
                // HELP text escapes backslash and newline (not quotes).
                let help = help.replace('\\', "\\\\").replace('\n', "\\n");
                let ty = ty.label();
                let header = format!("# HELP {name} {help}\n# TYPE {name} {ty}\n");
                self.families.push((name.to_string(), header));
                self.families.len() - 1
            }
        };
        &mut self.families[i].1
    }

    /// Emits one counter sample (integer counters render exactly).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let out = self.family(name, help, FamilyType::Counter);
        sample(out, name, labels, &value.to_string());
    }

    /// Emits one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let out = self.family(name, help, FamilyType::Gauge);
        sample(out, name, labels, &fmt_value(value));
    }

    /// Emits one histogram family member from a log-bucketed snapshot:
    /// cumulative `_bucket` lines at each non-empty bucket's inclusive
    /// upper edge, the mandatory `le="+Inf"` bucket, `_sum`, and
    /// `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, labels: &[(&str, &str)], h: &HistSnapshot) {
        let out = self.family(name, help, FamilyType::Histogram);
        let bucket = format!("{name}_bucket");
        let mut cum = 0u64;
        for &(idx, c) in h.buckets() {
            cum += c;
            let le = bucket_high(idx as usize).to_string();
            let mut with_le: Vec<(&str, &str)> = Vec::with_capacity(labels.len() + 1);
            with_le.extend_from_slice(labels);
            with_le.push(("le", &le));
            sample(out, &bucket, &with_le, &cum.to_string());
        }
        let mut with_le: Vec<(&str, &str)> = Vec::with_capacity(labels.len() + 1);
        with_le.extend_from_slice(labels);
        with_le.push(("le", "+Inf"));
        sample(out, &bucket, &with_le, &h.count.to_string());
        sample(out, &format!("{name}_sum"), labels, &h.sum.to_string());
        sample(out, &format!("{name}_count"), labels, &h.count.to_string());
    }

    /// The exposition text: every family's lines, families in
    /// first-sample order.
    pub fn finish(self) -> String {
        self.families.into_iter().map(|(_, text)| text).collect()
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parses `name{k="v",...} value` (labels optional). Errors carry the
/// 1-based line number supplied by the caller.
fn parse_sample(line: &str, lineno: usize) -> Result<Sample, String> {
    let err = |m: &str| format!("line {lineno}: {m}: {line:?}");
    let (head, rest) = match line.find(['{', ' ']) {
        Some(i) => line.split_at(i),
        None => return Err(err("missing value")),
    };
    if !valid_name(head) {
        return Err(err("bad metric name"));
    }
    let mut labels = Vec::new();
    let value_text = if let Some(body) = rest.strip_prefix('{') {
        // Scan `k="v",k="v",...}` with quote/escape awareness (a `}` or
        // `,` inside a quoted value must not terminate the list).
        let mut rest = body;
        loop {
            if let Some(after) = rest.strip_prefix('}') {
                break after.trim_start();
            }
            let eq = rest.find('=').ok_or_else(|| err("label missing ="))?;
            let (k, v) = rest.split_at(eq);
            if !valid_name(k) {
                return Err(err("bad label name"));
            }
            let v = v
                .strip_prefix("=\"")
                .ok_or_else(|| err("label value not quoted"))?;
            // Scan to the closing unescaped quote.
            let mut val = String::new();
            let mut chars = v.char_indices();
            let mut end = None;
            while let Some((i, c)) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some((_, 'n')) => val.push('\n'),
                        Some((_, c2)) => val.push(c2),
                        None => return Err(err("dangling escape")),
                    },
                    '"' => {
                        end = Some(i);
                        break;
                    }
                    c => val.push(c),
                }
            }
            let end = end.ok_or_else(|| err("unterminated label value"))?;
            labels.push((k.to_string(), val));
            rest = &v[end + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
        }
    } else {
        rest.trim_start()
    };
    let value = match value_text {
        "NaN" => f64::NAN,
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        t => t
            .parse::<f64>()
            .map_err(|_| err("unparseable sample value"))?,
    };
    Ok(Sample {
        name: head.to_string(),
        labels,
        value,
    })
}

/// The family a sample belongs to, given declared histogram families:
/// `x_bucket`/`x_sum`/`x_count` fold into family `x` iff `x` was
/// declared as a histogram.
fn family_of<'a>(name: &'a str, histograms: &BTreeSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if histograms.contains(base) {
                return base;
            }
        }
    }
    name
}

/// Structurally validates Prometheus text exposition.
///
/// Checks, per the 0.0.4 format:
/// * every non-comment line parses as `name{labels} value`;
/// * every sample's family has a preceding `# TYPE` header, and all of a
///   family's lines are contiguous (no interleaving);
/// * for each histogram label set: cumulative `_bucket` counts are
///   monotone non-decreasing in `le`, an `le="+Inf"` bucket exists, and
///   it equals the `_count` sample;
/// * counter values are finite and non-negative.
///
/// Returns `Err` with a line-anchored message on the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, FamilyType> = HashMap::new();
    let mut histograms: BTreeSet<String> = BTreeSet::new();
    let mut family_done: BTreeSet<String> = BTreeSet::new();
    let mut current_family: Option<String> = None;
    // (family, sorted non-le labels) -> (bucket (le, cum) list, sum?, count?)
    type HistState = (Vec<(f64, f64)>, Option<f64>, Option<f64>);
    let mut hists: HashMap<(String, String), HistState> = HashMap::new();

    let enter = |fam: &str,
                 current: &mut Option<String>,
                 done: &mut BTreeSet<String>,
                 lineno: usize|
     -> Result<(), String> {
        if current.as_deref() != Some(fam) {
            if let Some(prev) = current.take() {
                done.insert(prev);
            }
            if done.contains(fam) {
                return Err(format!("line {lineno}: family {fam} lines not contiguous"));
            }
            *current = Some(fam.to_string());
        }
        Ok(())
    };

    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let ty = match parts.next() {
                Some("counter") => FamilyType::Counter,
                Some("gauge") => FamilyType::Gauge,
                Some("histogram") => FamilyType::Histogram,
                other => return Err(format!("line {lineno}: unknown TYPE {other:?}")),
            };
            if !valid_name(name) {
                return Err(format!("line {lineno}: bad family name {name:?}"));
            }
            if types.insert(name.to_string(), ty).is_some() {
                return Err(format!("line {lineno}: duplicate TYPE for {name}"));
            }
            if ty == FamilyType::Histogram {
                histograms.insert(name.to_string());
            }
            enter(name, &mut current_family, &mut family_done, lineno)?;
            continue;
        }
        if line.starts_with('#') {
            // HELP or a free comment; HELP grammar is `# HELP name text`.
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad HELP name {name:?}"));
                }
                enter(name, &mut current_family, &mut family_done, lineno)?;
            }
            continue;
        }
        let s = parse_sample(line, lineno)?;
        let fam = family_of(&s.name, &histograms).to_string();
        let ty = *types
            .get(&fam)
            .ok_or_else(|| format!("line {lineno}: sample {} has no TYPE header", s.name))?;
        enter(&fam, &mut current_family, &mut family_done, lineno)?;
        match ty {
            FamilyType::Counter => {
                if !(s.value.is_finite() && s.value >= 0.0) {
                    return Err(format!("line {lineno}: counter value {} invalid", s.value));
                }
            }
            FamilyType::Gauge => {}
            FamilyType::Histogram => {
                let mut le: Option<f64> = None;
                let mut rest: Vec<String> = Vec::new();
                for (k, v) in &s.labels {
                    if k == "le" {
                        le = Some(match v.as_str() {
                            "+Inf" => f64::INFINITY,
                            t => t
                                .parse::<f64>()
                                .map_err(|_| format!("line {lineno}: unparseable le {t:?}"))?,
                        });
                    } else {
                        rest.push(format!("{k}={v}"));
                    }
                }
                rest.sort();
                let key = (fam.clone(), rest.join(","));
                let entry = hists.entry(key).or_default();
                if s.name.ends_with("_bucket") {
                    let le = le.ok_or_else(|| {
                        format!("line {lineno}: histogram bucket without le label")
                    })?;
                    entry.0.push((le, s.value));
                } else if s.name.ends_with("_sum") {
                    entry.1 = Some(s.value);
                } else if s.name.ends_with("_count") {
                    entry.2 = Some(s.value);
                } else {
                    return Err(format!("line {lineno}: stray histogram sample {}", s.name));
                }
            }
        }
    }

    for ((fam, labels), (mut buckets, sum, count)) in hists {
        let at = |m: String| format!("histogram {fam}{{{labels}}}: {m}");
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        if buckets.is_empty() {
            return Err(at("no buckets".to_string()));
        }
        let mut prev = -1.0f64;
        for &(le, cum) in &buckets {
            if cum < prev {
                return Err(at(format!("bucket le={le} count {cum} < previous {prev}")));
            }
            prev = cum;
        }
        let (last_le, last_cum) = *buckets.last().unwrap();
        if last_le != f64::INFINITY {
            return Err(at("missing +Inf bucket".to_string()));
        }
        let count = count.ok_or_else(|| at("missing _count".to_string()))?;
        if sum.is_none() {
            return Err(at("missing _sum".to_string()));
        }
        if last_cum != count {
            return Err(at(format!("+Inf bucket {last_cum} != _count {count}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHist;

    fn sample_hist() -> HistSnapshot {
        let mut h = LogHist::new();
        h.reset();
        for v in [1u64, 1, 5, 9, 130, 4000] {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn counters_and_gauges_render_with_headers_once() {
        let mut e = Exposition::new();
        e.counter(
            "fhs_epochs_total",
            "Decision epochs.",
            &[("algo", "mqb")],
            7,
        );
        e.counter(
            "fhs_epochs_total",
            "Decision epochs.",
            &[("algo", "kgreedy")],
            9,
        );
        e.gauge("fhs_util", "Mean utilization.", &[], 0.5);
        let text = e.finish();
        assert_eq!(text.matches("# TYPE fhs_epochs_total").count(), 1);
        assert!(text.contains("fhs_epochs_total{algo=\"mqb\"} 7\n"));
        assert!(text.contains("fhs_epochs_total{algo=\"kgreedy\"} 9\n"));
        assert!(text.contains("# TYPE fhs_util gauge\n"));
        assert!(text.contains("fhs_util 0.5\n"));
        validate(&text).unwrap();

        // Interleaved families (a, b, a) come out contiguous, in
        // first-sample order.
        let mut e = Exposition::new();
        e.counter("a", "A.", &[("s", "1")], 1);
        e.gauge("b", "B.", &[("s", "1")], 2.0);
        e.counter("a", "A.", &[("s", "2")], 3);
        let text = e.finish();
        assert_eq!(
            text,
            "# HELP a A.\n# TYPE a counter\na{s=\"1\"} 1\na{s=\"2\"} 3\n\
             # HELP b B.\n# TYPE b gauge\nb{s=\"1\"} 2\n"
        );
        validate(&text).unwrap();
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_inf_matches_count() {
        let h = sample_hist();
        let mut e = Exposition::new();
        e.histogram("fhs_assign_ns", "Assign latency.", &[("algo", "mqb")], &h);
        let text = e.finish();
        validate(&text).unwrap();
        // +Inf bucket and _count agree with the snapshot count.
        assert!(text.contains(&format!(
            "fhs_assign_ns_bucket{{algo=\"mqb\",le=\"+Inf\"}} {}\n",
            h.count
        )));
        assert!(text.contains(&format!(
            "fhs_assign_ns_count{{algo=\"mqb\"}} {}\n",
            h.count
        )));
        assert!(text.contains(&format!("fhs_assign_ns_sum{{algo=\"mqb\"}} {}\n", h.sum)));
        // One _bucket line per non-zero bucket plus +Inf.
        let buckets = text
            .lines()
            .filter(|l| l.starts_with("fhs_assign_ns_bucket"))
            .count();
        assert_eq!(buckets, h.buckets().len() + 1);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.gauge("g", "h", &[("k", "a\"b\\c\nd")], 1.0);
        let text = e.finish();
        assert!(text.contains(r#"g{k="a\"b\\c\nd"} 1"#));
        validate(&text).unwrap();
    }

    #[test]
    fn non_finite_gauges_use_prometheus_spellings() {
        let mut e = Exposition::new();
        e.gauge("g", "h", &[("k", "nan")], f64::NAN);
        e.gauge("g", "h", &[("k", "pinf")], f64::INFINITY);
        e.gauge("g", "h", &[("k", "ninf")], f64::NEG_INFINITY);
        let text = e.finish();
        assert!(text.contains("g{k=\"nan\"} NaN\n"));
        assert!(text.contains("g{k=\"pinf\"} +Inf\n"));
        assert!(text.contains("g{k=\"ninf\"} -Inf\n"));
        validate(&text).unwrap();
    }

    #[test]
    fn validate_rejects_structural_violations() {
        // Sample before TYPE header.
        assert!(validate("x 1\n").is_err());
        // Interleaved families.
        let t = "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n";
        assert!(validate(t).unwrap_err().contains("not contiguous"));
        // Negative counter.
        assert!(validate("# TYPE c counter\nc -1\n").is_err());
        // Histogram with regressing cumulative buckets.
        let t = "# TYPE h histogram\n\
                 h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n\
                 h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate(t).unwrap_err().contains("< previous"));
        // +Inf bucket disagreeing with _count.
        let t = "# TYPE h histogram\n\
                 h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        assert!(validate(t).unwrap_err().contains("!= _count"));
        // Missing +Inf bucket.
        let t = "# TYPE h histogram\nh_bucket{le=\"1\"} 4\nh_sum 9\nh_count 4\n";
        assert!(validate(t).unwrap_err().contains("+Inf"));
    }

    #[test]
    fn empty_histogram_still_exposes_inf_sum_count() {
        let mut e = Exposition::new();
        e.histogram("h", "empty", &[], &HistSnapshot::default());
        let text = e.finish();
        validate(&text).unwrap();
        assert!(text.contains("h_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("h_sum 0\n"));
        assert!(text.contains("h_count 0\n"));
    }
}
