//! Plain-text and CSV table rendering.
//!
//! The experiment harness prints each result's rows as an aligned table
//! and writes the same rows as the CSV files of the artifact's `results/`
//! directory. This module is a minimal column-aligned table builder — no
//! dependency needed.

use std::fmt::Write as _;

/// A rows-and-columns table with a header.
///
/// # Examples
///
/// ```
/// use pronghorn_metrics::Table;
///
/// let mut t = Table::new(vec!["Benchmark", "Median (µs)"]);
/// t.row(vec!["BFS".into(), "10432".into()]);
/// let text = t.render();
/// assert!(text.contains("Benchmark"));
/// assert!(text.contains("BFS"));
/// ```
#[derive(Debug, Clone)]
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

    /// Appends a row. Short rows are padded with empty cells; long rows are
    /// truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }

    /// Renders the table as column-aligned text with a header separator.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = w.saturating_sub(cell.chars().count());
                let _ = write!(out, "{cell}{}", " ".repeat(pad));
            }
            out.push('\n');
        };
        emit(&mut out, &self.header);
        let total = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders the table as RFC-4180-style CSV (quoting cells that contain
    /// commas, quotes, or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let emit = |out: &mut String, cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        };
        emit(&mut out, &self.header);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["b".into(), "22".into()]);
        t
    }

    #[test]
    fn plain_render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "name   value");
        assert_eq!(lines[2], "alpha  1    ");
    }

    #[test]
    fn short_rows_are_padded_long_rows_truncated() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only".into()]);
        t.row(vec!["x".into(), "y".into(), "z".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().nth(1).unwrap(), "only,");
        assert_eq!(csv.lines().nth(2).unwrap(), "x,y");
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(vec!["c"]);
        t.row(vec!["has,comma".into()]);
        t.row(vec!["has\"quote".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn len_and_is_empty() {
        assert!(Table::new(vec!["x"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
