//! Discrete-distribution primitives: symbol histograms and entropy.

use std::collections::BTreeMap;
use std::fmt;

/// Shannon entropy of a probability (or weight) sequence, in bits.
///
/// Non-positive entries are skipped, and the sequence is normalized by
/// its own sum — so raw counts work as well as probabilities. Zero for an
/// empty or all-zero sequence.
///
/// # Examples
///
/// ```
/// use prefender_stats::entropy_bits;
/// assert_eq!(entropy_bits([0.5, 0.5]), 1.0);
/// assert_eq!(entropy_bits([2.0, 2.0, 2.0, 2.0]), 2.0);
/// assert_eq!(entropy_bits([1.0, 0.0]), 0.0);
/// ```
pub fn entropy_bits(weights: impl IntoIterator<Item = f64>) -> f64 {
    let w: Vec<f64> = weights.into_iter().filter(|&p| p > 0.0).collect();
    let total: f64 = w.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let h: f64 = w
        .iter()
        .map(|&x| {
            let p = x / total;
            -p * p.log2()
        })
        .sum();
    h.max(0.0)
}

/// An exact count histogram over `u64` symbols, iterated in symbol order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: BTreeMap<u64, u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from `(symbol, count)` pairs (duplicate symbols accumulate).
    pub fn from_counts(pairs: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let mut h = Histogram::new();
        for (symbol, n) in pairs {
            h.record_n(symbol, n);
        }
        h
    }

    /// Counts one occurrence of `symbol`.
    pub fn record(&mut self, symbol: u64) {
        self.record_n(symbol, 1);
    }

    /// Counts `n` occurrences of `symbol`.
    pub fn record_n(&mut self, symbol: u64, n: u64) {
        if n > 0 {
            *self.counts.entry(symbol).or_insert(0) += n;
            self.total += n;
        }
    }

    /// Total recorded occurrences.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct symbols.
    pub fn n_symbols(&self) -> usize {
        self.counts.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The count of one symbol.
    pub fn count(&self, symbol: u64) -> u64 {
        self.counts.get(&symbol).copied().unwrap_or(0)
    }

    /// `(symbol, count)` pairs in ascending symbol order.
    pub fn counts(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&s, &c)| (s, c))
    }

    /// `(symbol, probability)` pairs in ascending symbol order.
    pub fn probabilities(&self) -> Vec<(u64, f64)> {
        self.counts.iter().map(|(&s, &c)| (s, c as f64 / self.total.max(1) as f64)).collect()
    }

    /// The most frequent symbol (smallest on ties), if any.
    pub fn mode(&self) -> Option<u64> {
        self.counts.iter().max_by_key(|&(&s, &c)| (c, std::cmp::Reverse(s))).map(|(&s, _)| s)
    }

    /// Shannon entropy of the empirical distribution, in bits.
    pub fn entropy_bits(&self) -> f64 {
        entropy_bits(self.counts.values().map(|&c| c as f64))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (s, c) in other.counts() {
            self.record_n(s, c);
        }
    }
}

impl FromIterator<u64> for Histogram {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for s in iter {
            h.record(s);
        }
        h
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} symbols / {} counts, H={:.3} bits",
            self.n_symbols(),
            self.total,
            self.entropy_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_known_values() {
        assert_eq!(entropy_bits([]), 0.0);
        assert_eq!(entropy_bits([0.0, 0.0]), 0.0);
        assert_eq!(entropy_bits([1.0]), 0.0);
        assert_eq!(entropy_bits([0.5, 0.5]), 1.0);
        assert!((entropy_bits([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) - 3.0).abs() < 1e-12);
        // Negative weights are ignored, counts are self-normalizing.
        assert_eq!(entropy_bits([-3.0, 4.0, 4.0]), 1.0);
    }

    #[test]
    fn histogram_counting_and_entropy() {
        let mut h = Histogram::new();
        h.record(4);
        h.record_n(200, 3);
        h.record(4);
        assert_eq!(h.total(), 5);
        assert_eq!(h.n_symbols(), 2);
        assert_eq!(h.count(4), 2);
        assert_eq!(h.count(9), 0);
        assert_eq!(h.mode(), Some(200));
        let probs = h.probabilities();
        assert_eq!(probs, vec![(4, 0.4), (200, 0.6)]);
        let expected = entropy_bits([2.0, 3.0]);
        assert_eq!(h.entropy_bits(), expected);
    }

    #[test]
    fn histogram_degenerate_cases() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.entropy_bits(), 0.0);
        assert_eq!(h.mode(), None);
        assert!(h.probabilities().is_empty());
        let mut h = Histogram::new();
        h.record_n(7, 0);
        assert!(h.is_empty(), "zero-count record must not create a symbol");
        h.record_n(7, 10);
        assert_eq!(h.entropy_bits(), 0.0, "single symbol carries no entropy");
    }

    #[test]
    fn histogram_merge_and_from() {
        let a: Histogram = [1u64, 1, 2].into_iter().collect();
        let mut b = Histogram::from_counts([(2, 1), (3, 4)]);
        b.merge(&a);
        assert_eq!(b.count(1), 2);
        assert_eq!(b.count(2), 2);
        assert_eq!(b.count(3), 4);
        assert_eq!(b.total(), 8);
        assert_eq!(Histogram::from_counts([(5, 2), (5, 3)]).count(5), 5);
    }

    #[test]
    fn mode_prefers_smallest_on_ties() {
        let h = Histogram::from_counts([(9, 2), (3, 2), (5, 1)]);
        assert_eq!(h.mode(), Some(3));
    }

    #[test]
    fn display_mentions_entropy() {
        let h = Histogram::from_counts([(1, 1), (2, 1)]);
        assert!(h.to_string().contains("H=1.000 bits"));
    }
}
