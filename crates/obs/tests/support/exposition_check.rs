//! A structural checker for Prometheus text exposition (format 0.0.4),
//! so that "what we serve actually parses" does not rest on trusting the
//! `Exposition` builder. Test support, not part of fhs-obs's API: the
//! `expo` unit tests and fhs-experiments' `telemetry` unit tests include
//! this one file by `#[path]`.

use std::collections::{BTreeSet, HashMap};

/// Metric sample types a family can declare.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FamilyType {
    Counter,
    Gauge,
    Histogram,
}

/// `true` iff `name` is a legal metric/label name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
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
