//! Plain-text report emitters (markdown tables and CSV files).
//!
//! The benchmark harness regenerates each of the paper's tables and figures
//! as a markdown table on stdout plus a CSV file for plotting; this module
//! holds the shared formatting. No serialisation crates are involved — the
//! values are simple scalars and strings.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::Result;

/// A rectangular table with a header row.
///
/// # Examples
///
/// ```
/// use fnas::report::Table;
///
/// let mut t = Table::new(vec!["method", "latency (ms)"]);
/// t.push_row(vec!["NAS".to_string(), "19.70".to_string()]);
/// let md = t.to_markdown();
/// assert!(md.contains("| NAS | 19.70 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders CSV (RFC-4180 quoting for fields containing commas or
    /// quotes).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())?;
        Ok(())
    }
}

/// Formats a fraction as a percentage with two decimals, e.g. `99.42%`.
pub fn pct(x: f32) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats an improvement factor, e.g. `11.13x`.
pub fn factor(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_shape() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1".to_string(), "2".to_string()]);
        let md = t.to_markdown();
        assert_eq!(md.lines().count(), 3);
        assert!(md.starts_with("| a | b |"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["x"]);
        t.push_row(vec!["a,b".to_string()]);
        t.push_row(vec!["say \"hi\"".to_string()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_rows_panic() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1".to_string()]);
    }

    #[test]
    fn write_csv_round_trips() {
        let mut t = Table::new(vec!["h"]);
        t.push_row(vec!["v".to_string()]);
        let dir = std::env::temp_dir().join("fnas-report-test");
        let path = dir.join("nested").join("t.csv");
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "h\nv\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.9942), "99.42%");
        assert_eq!(factor(11.131), "11.13x");
    }
}
