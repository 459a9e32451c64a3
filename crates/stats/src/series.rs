//! Named `(x, y)` sequences for figure regeneration.

use std::fmt;

/// A named data series — one curve of a paper figure.
///
/// # Examples
///
/// ```
/// use prefender_stats::Series;
///
/// let mut s = Series::new("Prefender-ST");
/// s.push(64.0, 4.0);
/// s.push(65.0, 4.0);
/// assert_eq!(s.len(), 2);
/// assert!(s.to_csv().contains("Prefender-ST"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty named series.
    pub fn new(name: &str) -> Self {
        Series { name: name.to_owned(), points: Vec::new() }
    }

    /// The series name (figure legend entry).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) -> &mut Self {
        self.points.push((x, y));
        self
    }

    /// The points in insertion order.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// CSV rows `name,x,y`.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        for (x, y) in &self.points {
            s.push_str(&format!("{},{x},{y}\n", self.name));
        }
        s
    }

    /// A crude fixed-width ASCII sparkline of the y values (harness
    /// output niceness; empty series render as an empty string).
    pub fn sparkline(&self, width: usize) -> String {
        if self.points.is_empty() || width == 0 {
            return String::new();
        }
        const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let ys: Vec<f64> = self.points.iter().map(|&(_, y)| y).collect();
        let (lo, hi) =
            ys.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &y| (l.min(y), h.max(y)));
        let span = if hi > lo { hi - lo } else { 1.0 };
        (0..width)
            .map(|i| {
                let idx = i * ys.len() / width;
                let level = ((ys[idx] - lo) / span * 7.0).round() as usize;
                LEVELS[level.min(7)]
            })
            .collect()
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} points)", self.name, self.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = Series::new("x");
        assert!(s.is_empty());
        s.push(1.0, 10.0).push(2.0, 20.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn csv_rows() {
        let mut s = Series::new("curve");
        s.push(1.0, 2.0);
        assert_eq!(s.to_csv(), "curve,1,2\n");
    }

    #[test]
    fn sparkline_shape() {
        let mut s = Series::new("ramp");
        for i in 0..16 {
            s.push(i as f64, i as f64);
        }
        let spark = s.sparkline(8);
        assert_eq!(spark.chars().count(), 8);
        let first = spark.chars().next().unwrap();
        let last = spark.chars().last().unwrap();
        assert!(first < last, "ramp should rise: {spark}");
    }

    #[test]
    fn sparkline_degenerate() {
        assert_eq!(Series::new("e").sparkline(5), "");
        let mut s = Series::new("flat");
        s.push(0.0, 3.0);
        assert_eq!(s.sparkline(0), "");
        assert_eq!(s.sparkline(3).chars().count(), 3);
    }

    #[test]
    fn display() {
        let s = Series::new("n");
        assert_eq!(s.to_string(), "n (0 points)");
    }
}
