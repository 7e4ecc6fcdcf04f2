//! Text-table and series formatting for the benchmark harness output.
//!
//! Every fig*/table* binary prints its results through these helpers so the
//! regenerated "figures" are consistent, diffable text.

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut s = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(cell);
                for _ in cell.chars().count()..widths[c] {
                    line.push(' ');
                }
            }
            line.trim_end().to_string()
        };
        s.push_str(&fmt_row(&self.headers, &widths));
        s.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        s.push_str(&"-".repeat(total));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&fmt_row(row, &widths));
            s.push('\n');
        }
        s
    }
}

/// Format a float with fixed decimals (bench output convention).
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Render an ASCII bar for quick visual comparison in terminal output.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "█".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = TextTable::new(vec!["Replicas", "MD (s)", "EX (s)"]);
        t.add_row(vec!["64", "139.6", "2.0"]);
        t.add_row(vec!["1728", "140.1", "33.6"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Replicas"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: "MD (s)" starts at same offset in all rows.
        let off = lines[0].find("MD (s)").unwrap();
        assert_eq!(&lines[2][off..off + 5], "139.6");
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["1"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(139.64), "139.6");
        assert_eq!(f2(0.256), "0.26");
    }

    #[test]
    fn bars() {
        assert_eq!(bar(5.0, 10.0, 10), "█████");
        assert_eq!(bar(20.0, 10.0, 10).chars().count(), 10, "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
