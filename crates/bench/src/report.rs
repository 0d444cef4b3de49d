//! Plain-text tables and their CSV and JSON forms. Tables print to
//! stdout; the driver writes the CSV and JSON forms as artifacts
//! ([`crate::driver::Grid::table`]).

use std::fmt::Write as _;

/// A rendered table: header row + data rows, auto-aligned.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a caption and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The caption.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned plain-text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (c, w) in cells.iter().zip(widths) {
                let _ = write!(s, "| {:<width$} ", c, width = w);
            }
            s.push('|');
            s
        };
        let header = line(&self.header, &widths);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Render rows as CSV (header first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Structured JSON body of the table: `{title, header, rows}` with all
    /// cells as strings (exactly what was rendered).
    pub fn to_value(&self) -> serde::Value {
        let strs = |v: &[String]| {
            serde::Value::Array(v.iter().map(|s| serde::Value::Str(s.clone())).collect())
        };
        serde::Value::Object(vec![
            ("title".to_string(), serde::Value::Str(self.title.clone())),
            ("header".to_string(), strs(&self.header)),
            (
                "rows".to_string(),
                serde::Value::Array(self.rows.iter().map(|r| strs(r)).collect()),
            ),
        ])
    }
}

/// Format seconds like the paper's tables (4 significant decimals).
pub fn fmt_secs(s: f64) -> String {
    format!("{s:.4}s")
}

/// Format a percentage.
pub fn fmt_pct(p: f64) -> String {
    format!("{p:.2}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["long-name".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("| long-name "));
        assert!(r.contains("| a         "));
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let mut t = Table::new("demo", &["n", "secs"]);
        t.row(&["5120".into(), "1.5".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("n,secs\n"));
    }
}
