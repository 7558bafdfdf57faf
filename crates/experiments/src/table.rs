//! Aligned text tables and CSV output for the experiment reports.

use std::fmt::Write as _;

/// A simple column-aligned table with a header row.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; its length must match the header.
    pub fn push_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Renders with padded columns, a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (c, h) in self.header.iter().enumerate() {
            width[c] = width[c].max(h.chars().count());
        }
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (c, cell) in row.iter().enumerate() {
                if c > 0 {
                    out.push_str("  ");
                }
                let pad = width[c] - cell.chars().count();
                // left-align first column, right-align the numbers
                if c == 0 {
                    out.push_str(cell);
                    out.extend(std::iter::repeat_n(' ', pad));
                } else {
                    out.extend(std::iter::repeat_n(' ', pad));
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish: quotes fields containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |row: &[String]| {
            let line: Vec<String> = row.iter().map(|c| esc(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["algo", "ratio"]);
        t.push_row(vec!["KGreedy", "3.120"]);
        t.push_row(vec!["MQB", "1.150"]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 rows
        assert!(lines[0].starts_with("algo"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // numbers right-aligned: both end at the same column
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_escapes_special_fields() {
        let mut t = Table::new(vec!["name", "v"]);
        t.push_row(vec!["a,b", "x\"y"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"x\"\"y\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["only-one"]);
    }

    #[test]
    fn csv_round_trips_simple_fields() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert_eq!(csv.lines().next().unwrap(), "algo,ratio");
    }
}
