//! Report formatting: ASCII tables and figure series.
//!
//! The figure harness prints the same rows/series the paper reports and also
//! serialises them to JSON so `EXPERIMENTS.md` can be regenerated without
//! scraping stdout.

use serde::{Deserialize, Serialize};

/// One plotted line of a figure: an x-axis (usually the hop constraint `k`)
/// and the measured values for one method.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label, e.g. `"PEFP"` or `"JOIN"`.
    pub label: String,
    /// X values (e.g. `k = 5..=8`).
    pub x: Vec<f64>,
    /// Y values (milliseconds unless stated otherwise).
    pub y: Vec<f64>,
}

impl Series {
    /// Creates a series, checking that `x` and `y` have equal length.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "series x/y length mismatch");
        Series { label: label.into(), x, y }
    }

    /// Element-wise speedup of `baseline` over `self` (baseline time divided
    /// by this series' time) — the blue dotted line in the paper's figures.
    pub fn speedup_against(&self, baseline: &Series) -> Series {
        assert_eq!(self.x, baseline.x, "speedup requires matching x axes");
        let y = baseline
            .y
            .iter()
            .zip(&self.y)
            .map(|(b, a)| if *a > 0.0 { b / a } else { f64::INFINITY })
            .collect();
        Series {
            label: format!("speedup ({} / {})", baseline.label, self.label),
            x: self.x.clone(),
            y,
        }
    }
}

/// A simple ASCII table with a caption, used for Table II / Table III style
/// output and for per-figure numeric dumps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableReport {
    /// Caption printed above the table.
    pub caption: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row values (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    /// Creates an empty table with the given caption and headers.
    pub fn new(caption: impl Into<String>, headers: &[&str]) -> Self {
        TableReport {
            caption: caption.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; panics if the arity does not match the header.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity must match headers");
        self.rows.push(row);
    }

    /// Renders the table as aligned ASCII text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.caption);
        out.push('\n');
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a milliseconds value the way the paper's plots label ticks
/// (`0.42 ms`, `3.1 ms`, `120 ms`, `2.4 s`).
pub fn format_millis(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{ms:.3} ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_divides_baseline_by_self() {
        let pefp = Series::new("PEFP", vec![3.0, 4.0], vec![1.0, 2.0]);
        let join = Series::new("JOIN", vec![3.0, 4.0], vec![10.0, 40.0]);
        let s = pefp.speedup_against(&join);
        assert_eq!(s.y, vec![10.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_is_rejected() {
        Series::new("bad", vec![1.0], vec![1.0, 2.0]);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TableReport::new("Table II", &["Dataset", "|V|", "|E|"]);
        t.push_row(vec!["Amazon".into(), "334K".into(), "925K".into()]);
        t.push_row(vec!["RT".into(), "6.3K".into(), "147K".into()]);
        let text = t.render();
        assert!(text.contains("Table II"));
        assert!(text.contains("Dataset"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn wrong_arity_row_is_rejected() {
        let mut t = TableReport::new("t", &["a", "b"]);
        t.push_row(vec!["only one".into()]);
    }

    #[test]
    fn millis_formatting_covers_the_ranges() {
        assert_eq!(format_millis(0.1234), "0.123 ms");
        assert_eq!(format_millis(12.34), "12.3 ms");
        assert_eq!(format_millis(123.4), "123 ms");
        assert_eq!(format_millis(2400.0), "2.40 s");
    }
}
