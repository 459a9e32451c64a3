//! Aligned plain-text tables.

use std::fmt;

/// A simple right-padded text table, rendered like the paper's tables.
///
/// # Examples
///
/// ```
/// use prefender_stats::Table;
///
/// let mut t = Table::new(vec!["Benchmark".into(), "Tagged".into()]);
/// t.row(vec!["401.bzip2".into(), "4.43%".into()]);
/// let s = t.render();
/// assert!(s.starts_with("Benchmark"));
/// assert!(s.contains("401.bzip2"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table { headers, rows: Vec::new() }
    }

    /// Appends a row. Shorter rows are padded with empty cells; longer
    /// rows extend the header row with empty headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders with space-aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let n_cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; n_cols];
        let all = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            let mut out = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let pad = width - cell.chars().count();
                out.push_str(cell);
                if i + 1 < n_cols {
                    out.extend(std::iter::repeat_n(' ', pad + 2));
                }
            }
            out.trim_end().to_string()
        };
        let mut s = fmt_row(&self.headers);
        s.push('\n');
        s.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols.saturating_sub(1))));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&fmt_row(row));
            s.push('\n');
        }
        s
    }

    /// Renders as comma-separated values (headers first).
    pub fn to_csv(&self) -> String {
        let esc = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut s = String::new();
        s.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        s.push('\n');
        for row in &self.rows {
            s.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment() {
        let mut t = Table::new(vec!["A".into(), "Long header".into()]);
        t.row(vec!["wide cell value".into(), "x".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        // The second column starts at the same offset in every line.
        let header_pos = lines[0].find("Long header").unwrap();
        let cell_pos = lines[2].find('x').unwrap();
        assert_eq!(header_pos, cell_pos);
    }

    #[test]
    fn ragged_rows_tolerated() {
        let mut t = Table::new(vec!["A".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        t.row(vec![]);
        assert!(t.render().contains('3'));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["name".into(), "note".into()]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new(vec!["H".into()]);
        assert_eq!(t.to_string(), t.render());
    }
}
