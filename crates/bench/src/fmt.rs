//! What an experiment returns: column-aligned plain-text tables and the
//! lines printed between them.

use std::fmt::{self, Display};

/// A titled table; columns are padded to their widest cell when printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Printed as `== title ==`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// One vector of cells per row, as wide as `headers`.
    pub rows: Vec<Vec<String>>,
}

impl Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        for cells in [&self.headers, &rule].into_iter().chain(&self.rows) {
            let line: Vec<String> =
                cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect();
            writeln!(f, "  {}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Everything one experiment prints: `text` is its stdout, byte for byte,
/// and `tables` the tables in it, for whoever wants the cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// The printed output.
    pub text: String,
    /// The tables printed, in order.
    pub tables: Vec<Table>,
}

impl Report {
    /// Appends a table.
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        for row in rows {
            assert_eq!(row.len(), headers.len(), "row width mismatch in table '{title}'");
        }
        let headers = headers.iter().map(|h| h.to_string()).collect();
        let table = Table { title: title.to_string(), headers, rows: rows.to_vec() };
        self.text.push_str(&table.to_string());
        self.tables.push(table);
    }

    /// Appends a line of text.
    pub fn line(&mut self, text: String) {
        self.text.push_str(&text);
        self.text.push('\n');
    }
}

/// One table row from cells of any printable type.
#[macro_export]
macro_rules! row {
    ($($cell:expr),+ $(,)?) => { vec![$($cell.to_string()),+] };
}

/// Formats an `f64` with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an `f64` with 1 decimal as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.456), "45.6");
    }

    #[test]
    fn a_report_prints_tables_and_lines_in_order() {
        let mut report = Report::default();
        report.line("before".into());
        report.table("demo", &["a", "δ"], &[row![1, 2], row!["33", 4]]);
        report.line("\n  after".into());
        // Widths are byte lengths, as the tables in `results/` have always been.
        let expected = "before\n\n== demo ==\n   a   δ\n  --  --\n   1   2\n  33   4\n\n  after\n";
        assert_eq!(report.text, expected);
        assert_eq!(report.tables[0].rows[1], ["33", "4"]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        Report::default().table("bad", &["a"], &[row![1, 2]]);
    }
}
