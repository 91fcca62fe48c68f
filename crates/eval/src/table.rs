//! Minimal aligned-column table rendering for experiment reports.

use std::fmt;

/// A rendered experiment result: title, column headers, and rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table/figure title (e.g. "Table 2: Camera pipeline performance").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Convenience for building a row from display values.
    pub fn row(&mut self, cells: &[&dyn fmt::Display]) {
        self.push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Looks a cell up by row and column header (tests use this).
    pub fn cell(&self, row: usize, header: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.rows.get(row).map(|r| r[col].as_str())
    }

    /// Parses a cell as `f64`.
    pub fn cell_f64(&self, row: usize, header: &str) -> Option<f64> {
        self.cell(row, header)?.trim_end_matches('x').parse().ok()
    }
}

impl Table {
    /// Renders the table as CSV (header row first).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "\n=== {} ===", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut parts = Vec::new();
            for (w, c) in widths.iter().zip(cells) {
                parts.push(format!("{c:>w$}", w = *w));
            }
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        line(f, &sep)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push(vec!["a".into(), "1".into()]);
        t.push(vec!["long-name".into(), "12345".into()]);
        let s = t.to_string();
        assert!(s.contains("=== Demo ==="));
        assert!(s.contains("long-name"));
        // every data line has the same width
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn cell_lookup() {
        let mut t = Table::new("Demo", &["name", "ratio"]);
        t.push(vec!["a".into(), "0.78x".into()]);
        assert_eq!(t.cell(0, "name"), Some("a"));
        assert_eq!(t.cell_f64(0, "ratio"), Some(0.78));
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("Demo", &["name", "note"]);
        t.push(vec!["a".into(), "x, y".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("name,note\n"));
        assert!(csv.contains("\"x, y\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }
}
