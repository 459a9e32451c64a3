//! The channel estimate: a (secret × observation) count matrix and the
//! information-theoretic metrics computed from it.
//!
//! Everything here is deterministic given the recorded counts: iteration
//! is always in (input index, symbol index) order and all floating-point
//! reductions happen in that fixed order, so campaign artifacts derived
//! from these numbers are byte-identical at any thread count.

use std::collections::BTreeMap;

use prefender_stats::{entropy_bits, multinomial, p_value_ge, quantile, shuffle, SplitMix64};

/// Default Blahut–Arimoto iteration cap for [`Channel::capacity_bits`].
pub const CAPACITY_MAX_ITERS: usize = 1000;

/// Default Blahut–Arimoto convergence tolerance, in bits.
pub const CAPACITY_TOL_BITS: f64 = 1e-6;

/// Floor the Blahut–Arimoto prior is clamped to each iteration, so a
/// collapsing prior can never underflow a `q(o)` to exactly zero and
/// divide the next iteration's KL terms by it.
pub const CAPACITY_PRIOR_FLOOR: f64 = 1e-12;

/// The label-permutation null of a channel's mutual information: what
/// the MI estimator reports on `n_perms` label-shuffled copies of the
/// same trial set, where the true leakage is zero by construction.
///
/// Small-sample plug-in MI is biased upward, so "MI > 0" alone never
/// distinguishes a residual channel from estimator noise; this null
/// calibrates it. `p_value < alpha` rejects "this channel is
/// indistinguishable from 0 bits".
#[derive(Debug, Clone, PartialEq)]
pub struct NullTest {
    /// Label permutations drawn.
    pub n_perms: u32,
    /// The observed (unshuffled) mutual information, in bits.
    pub observed_bits: f64,
    /// Mean null MI — the estimator's small-sample bias floor.
    pub null_mean_bits: f64,
    /// 95th percentile of the null MI distribution.
    pub null_q95_bits: f64,
    /// Add-one permutation p-value of the observed MI against the null.
    pub p_value: f64,
}

const LN_2: f64 = std::f64::consts::LN_2;

/// Plug-in mutual information of a raw count matrix, in bits, with the
/// fixed (input, symbol) reduction order every caller shares — the
/// permutation null re-estimates through exactly this path.
fn mi_of_counts(counts: &[Vec<u64>]) -> f64 {
    let total: u64 = counts.iter().flatten().sum();
    if total == 0 {
        return 0.0;
    }
    let joint: Vec<Vec<f64>> =
        counts.iter().map(|row| row.iter().map(|&c| c as f64 / total as f64).collect()).collect();
    let n_symbols = joint.first().map_or(0, Vec::len);
    let p_in: Vec<f64> = joint.iter().map(|row| row.iter().sum()).collect();
    let p_out: Vec<f64> = (0..n_symbols).map(|j| joint.iter().map(|row| row[j]).sum()).collect();
    let mut mi = 0.0;
    for (row, &ps) in joint.iter().zip(&p_in) {
        for (&pso, &po) in row.iter().zip(&p_out) {
            if pso > 0.0 {
                mi += pso * (pso / (ps * po)).log2();
            }
        }
    }
    // Rounding can leave a tiny negative residue on independent data.
    mi.max(0.0)
}

/// An estimated discrete memoryless channel from secret to attacker
/// observation, built by recording one observation symbol per trial.
///
/// Inputs are dense indices `0..n_inputs` (the position of a secret in
/// the campaign's secret list); observation symbols are arbitrary `u64`
/// codes and the alphabet is grown on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Channel {
    n_inputs: usize,
    /// Sorted observation alphabet; column `j` of `counts` is symbol
    /// `symbols[j]`.
    symbols: Vec<u64>,
    /// `counts[i][j]` = trials where input `i` produced symbol `j`.
    counts: Vec<Vec<u64>>,
}

impl Channel {
    /// An empty channel over `n_inputs` possible secrets.
    pub fn new(n_inputs: usize) -> Self {
        Channel { n_inputs, symbols: Vec::new(), counts: vec![Vec::new(); n_inputs] }
    }

    /// Builds a channel directly from `(input, symbol)` trial records.
    pub fn from_trials(n_inputs: usize, trials: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut c = Channel::new(n_inputs);
        for (input, symbol) in trials {
            c.record(input, symbol);
        }
        c
    }

    /// Records one trial: secret `input` produced observation `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= n_inputs`.
    pub fn record(&mut self, input: usize, symbol: u64) {
        assert!(input < self.n_inputs, "input {input} out of range (n_inputs={})", self.n_inputs);
        let j = match self.symbols.binary_search(&symbol) {
            Ok(j) => j,
            Err(j) => {
                self.symbols.insert(j, symbol);
                for row in &mut self.counts {
                    row.insert(j, 0);
                }
                j
            }
        };
        self.counts[input][j] += 1;
    }

    /// Merges another channel's counts into this one: the observation
    /// alphabets are unioned and every `(input, symbol)` cell summed.
    ///
    /// Counts are plain trial tallies, so merging is **exact**: a
    /// channel assembled from any partition of a campaign's trials (a
    /// resumed shard, a streamed trial batch) equals the channel the
    /// uninterrupted run records, bit for bit — and so does every
    /// metric computed from it. This additivity is what makes
    /// crash-resumed campaigns byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if the two channels disagree on `n_inputs`.
    pub fn merge(&mut self, other: &Channel) {
        assert_eq!(
            self.n_inputs, other.n_inputs,
            "cannot merge channels over different secret spaces"
        );
        for (j, &symbol) in other.symbols.iter().enumerate() {
            let col = match self.symbols.binary_search(&symbol) {
                Ok(col) => col,
                Err(col) => {
                    self.symbols.insert(col, symbol);
                    for row in &mut self.counts {
                        row.insert(col, 0);
                    }
                    col
                }
            };
            for (row, other_row) in self.counts.iter_mut().zip(&other.counts) {
                row[col] += other_row[j];
            }
        }
    }

    /// Number of possible inputs (secrets).
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The observation alphabet seen so far, ascending.
    pub fn symbols(&self) -> &[u64] {
        &self.symbols
    }

    /// Total recorded trials.
    pub fn total_trials(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Trials recorded for one input.
    pub fn input_trials(&self, input: usize) -> u64 {
        self.counts.get(input).map_or(0, |row| row.iter().sum())
    }

    /// The joint empirical distribution `p(s, o)`, row-major.
    fn joint(&self) -> Vec<Vec<f64>> {
        let total = self.total_trials();
        if total == 0 {
            return vec![Vec::new(); self.n_inputs];
        }
        self.counts
            .iter()
            .map(|row| row.iter().map(|&c| c as f64 / total as f64).collect())
            .collect()
    }

    /// Empirical entropy of the secret marginal, in bits.
    pub fn input_entropy_bits(&self) -> f64 {
        entropy_bits(self.joint().iter().map(|row| row.iter().sum::<f64>()))
    }

    /// Empirical entropy of the observation marginal, in bits.
    pub fn output_entropy_bits(&self) -> f64 {
        let joint = self.joint();
        entropy_bits((0..self.symbols.len()).map(|j| joint.iter().map(|row| row[j]).sum::<f64>()))
    }

    /// Empirical mutual information `I(S; O)` in bits, under the recorded
    /// trial counts (a uniform secret prior when every secret gets the
    /// same trial count).
    ///
    /// Zero for an empty channel. Always within `[0, min(H(S), H(O))]` up
    /// to floating-point rounding.
    pub fn mutual_information_bits(&self) -> f64 {
        mi_of_counts(&self.counts)
    }

    /// Miller–Madow bias-corrected mutual information, in bits.
    ///
    /// The plug-in estimate biases upward by roughly
    /// `(|S| − 1)(|O| − 1) / (2·N·ln 2)` bits over the nonzero support —
    /// at 8 secrets × 4 trials that is a sizeable fraction of a bit.
    /// This subtracts the first-order term and clamps at zero, so it is
    /// always ≤ [`Channel::mutual_information_bits`].
    pub fn mi_bits_corrected(&self) -> f64 {
        let n = self.total_trials();
        if n == 0 {
            return 0.0;
        }
        let k_in = self.counts.iter().filter(|row| row.iter().any(|&c| c > 0)).count();
        let k_out =
            (0..self.symbols.len()).filter(|&j| self.counts.iter().any(|row| row[j] > 0)).count();
        let bias =
            (k_in.saturating_sub(1) * k_out.saturating_sub(1)) as f64 / (2.0 * n as f64 * LN_2);
        (self.mutual_information_bits() - bias).max(0.0)
    }

    /// Tests the observed mutual information against its label-shuffled
    /// null: the recorded trials are expanded, their secret labels
    /// permuted `n_perms` times (deterministic SplitMix-seeded
    /// Fisher–Yates), and the MI re-estimated on each shuffle.
    ///
    /// The same `(n_perms, seed)` always yields the same [`NullTest`],
    /// bit for bit, wherever it runs.
    pub fn permutation_test(&self, n_perms: u32, seed: u64) -> NullTest {
        let observed = self.mutual_information_bits();
        // Expand the count matrix into one (label, symbol-index) record
        // per trial, in fixed (input, symbol) order.
        let mut labels: Vec<usize> = Vec::new();
        let mut sym_idx: Vec<usize> = Vec::new();
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                for _ in 0..c {
                    labels.push(i);
                    sym_idx.push(j);
                }
            }
        }
        let mut rng = SplitMix64::new(seed);
        let m = self.symbols.len();
        let mut null = Vec::with_capacity(n_perms as usize);
        for _ in 0..n_perms {
            shuffle(&mut rng, &mut labels);
            let mut counts = vec![vec![0u64; m]; self.n_inputs];
            for (&i, &j) in labels.iter().zip(&sym_idx) {
                counts[i][j] += 1;
            }
            null.push(mi_of_counts(&counts));
        }
        let p_value = p_value_ge(&null, observed);
        let null_mean_bits =
            if null.is_empty() { 0.0 } else { null.iter().sum::<f64>() / null.len() as f64 };
        let mut sorted = null;
        sorted.sort_by(f64::total_cmp);
        NullTest {
            n_perms,
            observed_bits: observed,
            null_mean_bits,
            null_q95_bits: quantile(&sorted, 0.95),
            p_value,
        }
    }

    /// One multinomial bootstrap resample of the channel: the same total
    /// trial count redrawn over the cells of the empirical joint.
    fn bootstrap_sample(&self, rng: &mut SplitMix64) -> Channel {
        let m = self.symbols.len();
        let flat: Vec<u64> = self.counts.iter().flatten().copied().collect();
        let drawn = multinomial(rng, &flat, self.total_trials());
        let counts: Vec<Vec<u64>> =
            (0..self.n_inputs).map(|i| drawn[i * m..(i + 1) * m].to_vec()).collect();
        Channel { n_inputs: self.n_inputs, symbols: self.symbols.clone(), counts }
    }

    /// A `1 − alpha` bootstrap confidence interval for any channel
    /// metric: `n_boot` multinomial resamples of the count matrix, the
    /// metric re-computed on each, and the `alpha/2` / `1 − alpha/2`
    /// percentile interval — widened, if necessary, to contain the point
    /// estimate, so the interval always brackets what it annotates.
    ///
    /// Deterministic for a given `(n_boot, alpha, seed)`.
    pub fn bootstrap_ci(
        &self,
        n_boot: u32,
        alpha: f64,
        seed: u64,
        metric: impl Fn(&Channel) -> f64,
    ) -> (f64, f64) {
        let point = metric(self);
        if n_boot == 0 || self.total_trials() == 0 {
            return (point, point);
        }
        let mut rng = SplitMix64::new(seed);
        let mut samples: Vec<f64> =
            (0..n_boot).map(|_| metric(&self.bootstrap_sample(&mut rng))).collect();
        samples.sort_by(f64::total_cmp);
        let a = alpha.clamp(1e-9, 1.0 - 1e-9);
        let lo = quantile(&samples, a / 2.0);
        let hi = quantile(&samples, 1.0 - a / 2.0);
        (lo.min(point), hi.max(point))
    }

    /// Channel capacity in bits via Blahut–Arimoto over the empirical
    /// conditionals `p(o|s)` (inputs with zero trials are excluded).
    ///
    /// An upper bound on the leakage any secret prior can extract from
    /// this channel; always ≥ [`Channel::mutual_information_bits`] up to
    /// the convergence tolerance.
    pub fn capacity_bits(&self) -> f64 {
        // Rows of p(o|s), for inputs that have trials.
        let rows: Vec<Vec<f64>> = self
            .counts
            .iter()
            .filter(|row| row.iter().any(|&c| c > 0))
            .map(|row| {
                let n: u64 = row.iter().sum();
                row.iter().map(|&c| c as f64 / n as f64).collect()
            })
            .collect();
        if rows.is_empty() || self.symbols.is_empty() {
            return 0.0;
        }
        let n = rows.len();
        let m = self.symbols.len();
        let mut prior = vec![1.0 / n as f64; n];
        let mut capacity = 0.0;
        for _ in 0..CAPACITY_MAX_ITERS {
            // q(o) under the current prior.
            let q: Vec<f64> =
                (0..m).map(|j| rows.iter().zip(&prior).map(|(row, &p)| p * row[j]).sum()).collect();
            // D(p(o|s) || q) per input, in bits. The prior floor below
            // keeps every q(o) with support strictly positive, so no
            // term here divides by zero.
            let d: Vec<f64> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .zip(&q)
                        .filter(|&(&p, _)| p > 0.0)
                        .map(|(&p, &qo)| p * (p / qo).log2())
                        .sum()
                })
                .collect();
            // Blahut–Arimoto bounds: max_s D is an upper bound, the
            // prior-weighted mean a lower bound; stop when they meet.
            let upper = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let lower: f64 = d.iter().zip(&prior).map(|(&di, &p)| p * di).sum();
            capacity = lower;
            if upper - lower < CAPACITY_TOL_BITS {
                break;
            }
            // Reweight the prior toward informative inputs, clamped away
            // from zero (then renormalized): on near-deterministic
            // channels the dominated inputs' mass otherwise decays until
            // it underflows to exactly 0.0, their q(o) columns collapse,
            // and the KL terms above blow up to inf/NaN.
            let weights: Vec<f64> = prior.iter().zip(&d).map(|(&p, &di)| p * di.exp2()).collect();
            let z: f64 = weights.iter().sum();
            let clamped: Vec<f64> =
                weights.iter().map(|&w| (w / z).max(CAPACITY_PRIOR_FLOOR)).collect();
            let z2: f64 = clamped.iter().sum();
            prior = clamped.iter().map(|&w| w / z2).collect();
        }
        // The estimate is a prior-weighted KL mean, so it can only land
        // outside [0, log2 n] through floating-point pathology; pin it.
        let cap_max = (n as f64).log2();
        if capacity.is_finite() {
            capacity.clamp(0.0, cap_max)
        } else {
            cap_max
        }
    }

    /// Max-likelihood attacker accuracy: the attacker guesses the secret
    /// with the highest empirical likelihood of its observation (ties
    /// split uniformly), scored against the recorded trials.
    ///
    /// `1/n_inputs` for a useless channel under uniform trials; `1.0` for
    /// a noiseless one. Zero when no trials were recorded.
    pub fn ml_accuracy(&self) -> f64 {
        let total = self.total_trials();
        if total == 0 {
            return 0.0;
        }
        // p(s|o) ∝ p(o|s)·p(s) = count/total: argmax_s count[s][o].
        let mut correct = 0.0;
        for j in 0..self.symbols.len() {
            let col_max = self.counts.iter().map(|row| row[j]).max().unwrap_or(0);
            if col_max == 0 {
                continue;
            }
            // The attacker picks uniformly among the tied argmax secrets;
            // summed over the tied block the expected correct mass is one
            // full column maximum.
            correct += col_max as f64;
        }
        correct / total as f64
    }

    /// Guessing entropy: the expected rank (1-based) of the true secret
    /// when the attacker orders secrets by posterior probability given the
    /// observation, ties averaged.
    ///
    /// `1.0` for a noiseless channel; `(n + 1) / 2` for a useless one.
    /// Zero when no trials were recorded.
    pub fn guessing_entropy(&self) -> f64 {
        let total = self.total_trials();
        if total == 0 {
            return 0.0;
        }
        let mut rank_sum = 0.0;
        let mut sorted: Vec<u64> = Vec::with_capacity(self.n_inputs);
        for j in 0..self.symbols.len() {
            // Sort the column once; ranks then come from two binary
            // searches per nonzero cell instead of a rescan of all n
            // rows (O(n log n + nnz·log n) per symbol, not O(n²)).
            sorted.clear();
            sorted.extend(self.counts.iter().map(|row| row[j]));
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            for row in &self.counts {
                let c = row[j];
                if c == 0 {
                    continue;
                }
                let better = sorted.partition_point(|&x| x > c);
                let tied = sorted.partition_point(|&x| x >= c) - better - 1;
                // Average position among the tied block.
                let rank = 1.0 + better as f64 + tied as f64 / 2.0;
                rank_sum += c as f64 * rank;
            }
        }
        rank_sum / total as f64
    }

    /// The raw count for `(input, symbol)`.
    pub fn count(&self, input: usize, symbol: u64) -> u64 {
        match self.symbols.binary_search(&symbol) {
            Ok(j) => self.counts.get(input).map_or(0, |row| row[j]),
            Err(_) => 0,
        }
    }

    /// The count matrix as `(input, symbol, count)` triples in fixed
    /// (input, symbol) order, for serialization.
    pub fn triples(&self) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        for (i, row) in self.counts.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c > 0 {
                    out.push((i, self.symbols[j], c));
                }
            }
        }
        out
    }
}

/// Convenience: builds a channel from per-trial maps, used by tests.
pub fn channel_from_map(n_inputs: usize, map: &BTreeMap<(usize, u64), u64>) -> Channel {
    let mut c = Channel::new(n_inputs);
    for (&(input, symbol), &count) in map {
        for _ in 0..count {
            c.record(input, symbol);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noiseless n-ary channel: input i always produces symbol i.
    fn identity(n: usize, trials: u64) -> Channel {
        let mut c = Channel::new(n);
        for i in 0..n {
            for _ in 0..trials {
                c.record(i, i as u64);
            }
        }
        c
    }

    /// A useless channel: every input produces the same symbol.
    fn constant(n: usize, trials: u64) -> Channel {
        let mut c = Channel::new(n);
        for i in 0..n {
            for _ in 0..trials {
                c.record(i, 7);
            }
        }
        c
    }

    #[test]
    fn identity_channel_leaks_everything() {
        let c = identity(8, 4);
        assert!((c.mutual_information_bits() - 3.0).abs() < 1e-12);
        assert!((c.capacity_bits() - 3.0).abs() < 1e-3);
        assert!((c.ml_accuracy() - 1.0).abs() < 1e-12);
        assert!((c.guessing_entropy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_channel_leaks_nothing() {
        let c = constant(8, 4);
        assert_eq!(c.mutual_information_bits(), 0.0);
        assert!(c.capacity_bits() < 1e-9);
        assert!((c.ml_accuracy() - 1.0 / 8.0).abs() < 1e-12);
        assert!((c.guessing_entropy() - 4.5).abs() < 1e-12, "(n+1)/2 for useless");
    }

    #[test]
    fn empty_channel_is_all_zero() {
        let c = Channel::new(4);
        assert_eq!(c.total_trials(), 0);
        assert_eq!(c.mutual_information_bits(), 0.0);
        assert_eq!(c.capacity_bits(), 0.0);
        assert_eq!(c.ml_accuracy(), 0.0);
        assert_eq!(c.guessing_entropy(), 0.0);
        assert_eq!(c.input_entropy_bits(), 0.0);
    }

    #[test]
    fn binary_symmetric_channel_matches_closed_form() {
        // BSC with crossover 0.25 out of 4 trials per input:
        // I = 1 - H2(0.25) = 1 - 0.8112781... ≈ 0.1887218.
        let mut c = Channel::new(2);
        for i in 0..2u64 {
            for _ in 0..3 {
                c.record(i as usize, i);
            }
            c.record(i as usize, 1 - i);
        }
        let expected = 1.0 - (-(0.25f64.log2() * 0.25 + 0.75f64.log2() * 0.75));
        assert!((c.mutual_information_bits() - expected).abs() < 1e-9);
        // Symmetric channel: capacity equals MI at the uniform prior.
        assert!((c.capacity_bits() - expected).abs() < 1e-4);
        assert!((c.ml_accuracy() - 0.75).abs() < 1e-12);
        assert!((c.guessing_entropy() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn capacity_dominates_uniform_mi() {
        // An asymmetric channel (Z-channel): capacity > MI(uniform).
        let mut c = Channel::new(2);
        for _ in 0..8 {
            c.record(0, 0);
        }
        for _ in 0..4 {
            c.record(1, 1);
        }
        for _ in 0..4 {
            c.record(1, 0);
        }
        let mi = c.mutual_information_bits();
        let cap = c.capacity_bits();
        assert!(cap >= mi - 1e-9, "capacity {cap} must dominate MI {mi}");
        assert!(cap > 0.0 && cap < 1.0);
    }

    #[test]
    fn mi_bounded_by_marginal_entropies() {
        let mut c = Channel::new(3);
        let pattern = [(0, 0), (0, 1), (1, 1), (1, 1), (2, 2), (2, 0), (2, 2)];
        for &(i, s) in &pattern {
            c.record(i, s);
        }
        let mi = c.mutual_information_bits();
        assert!(mi >= 0.0);
        assert!(mi <= c.input_entropy_bits() + 1e-12);
        assert!(mi <= c.output_entropy_bits() + 1e-12);
    }

    #[test]
    fn record_grows_alphabet_and_counts() {
        let mut c = Channel::new(2);
        c.record(0, 100);
        c.record(1, 5);
        c.record(0, 100);
        assert_eq!(c.symbols(), &[5, 100]);
        assert_eq!(c.count(0, 100), 2);
        assert_eq!(c.count(1, 5), 1);
        assert_eq!(c.count(1, 100), 0);
        assert_eq!(c.count(0, 42), 0);
        assert_eq!(c.input_trials(0), 2);
        assert_eq!(c.triples(), vec![(0, 100, 2), (1, 5, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_input_panics() {
        Channel::new(2).record(2, 0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_channel() {
        // Any partition of the trial stream must reassemble to the same
        // channel — the invariant resumed campaigns stand on.
        let trials = [(0usize, 9u64), (1, 5), (2, 9), (0, 5), (1, 1), (2, 2), (0, 9), (1, 9)];
        let whole = Channel::from_trials(3, trials);
        for split in 0..=trials.len() {
            let mut merged = Channel::from_trials(3, trials[..split].iter().copied());
            merged.merge(&Channel::from_trials(3, trials[split..].iter().copied()));
            assert_eq!(merged, whole, "split at {split}");
        }
        // Merging into an empty channel and merging an empty one are
        // both identities.
        let mut empty = Channel::new(3);
        empty.merge(&whole);
        assert_eq!(empty, whole);
        let mut copy = whole.clone();
        copy.merge(&Channel::new(3));
        assert_eq!(copy, whole);
    }

    #[test]
    fn merge_unions_disjoint_alphabets() {
        let mut a = Channel::from_trials(2, [(0, 10), (1, 30)]);
        a.merge(&Channel::from_trials(2, [(0, 20), (1, 10)]));
        assert_eq!(a.symbols(), &[10, 20, 30]);
        assert_eq!(a.count(0, 10), 1);
        assert_eq!(a.count(1, 10), 1);
        assert_eq!(a.count(0, 20), 1);
        assert_eq!(a.total_trials(), 4);
    }

    #[test]
    #[should_panic(expected = "different secret spaces")]
    fn merge_rejects_mismatched_inputs() {
        Channel::new(2).merge(&Channel::new(3));
    }

    #[test]
    fn permutation_test_rejects_identity_and_accepts_constant() {
        // A noiseless channel: label shuffles destroy the dependence, so
        // the observed 3 bits sit far above every null re-estimate.
        let open = identity(8, 4).permutation_test(199, 7);
        assert_eq!(open.n_perms, 199);
        assert!((open.observed_bits - 3.0).abs() < 1e-12);
        assert!(open.null_mean_bits < open.observed_bits, "null must sit below a real channel");
        assert!(open.null_q95_bits < open.observed_bits);
        assert!((open.p_value - 1.0 / 200.0).abs() < 1e-12, "p = 1/(n+1), got {}", open.p_value);
        // A useless channel: every shuffle is just as informative (MI 0),
        // so the null is accepted outright.
        let sealed = constant(8, 4).permutation_test(199, 7);
        assert_eq!(sealed.observed_bits, 0.0);
        assert_eq!(sealed.p_value, 1.0);
        assert_eq!(sealed.null_mean_bits, 0.0);
        // Determinism: same channel, same seed, same null.
        assert_eq!(identity(8, 4).permutation_test(50, 3), identity(8, 4).permutation_test(50, 3));
        assert_ne!(
            identity(8, 4).permutation_test(50, 3).null_mean_bits,
            identity(8, 4).permutation_test(50, 4).null_mean_bits,
            "different seeds draw different permutations"
        );
    }

    #[test]
    fn permutation_test_degenerate_channels() {
        let empty = Channel::new(4).permutation_test(20, 1);
        assert_eq!(empty.p_value, 1.0);
        assert_eq!(empty.null_q95_bits, 0.0);
        let zero = identity(3, 2).permutation_test(0, 1);
        assert_eq!(zero.p_value, 1.0, "no permutations: the null cannot reject");
    }

    #[test]
    fn miller_madow_correction_shrinks_mi() {
        let c = identity(8, 4);
        let mi = c.mutual_information_bits();
        let corrected = c.mi_bits_corrected();
        assert!(corrected <= mi, "corrected {corrected} must not exceed plug-in {mi}");
        // 8 inputs × 8 symbols over 32 trials: bias = 49/(64·ln 2).
        let expected = mi - 49.0 / (64.0 * std::f64::consts::LN_2);
        assert!((corrected - expected).abs() < 1e-12);
        assert_eq!(constant(8, 4).mi_bits_corrected(), 0.0, "clamped at zero");
        assert_eq!(Channel::new(3).mi_bits_corrected(), 0.0);
    }

    #[test]
    fn bootstrap_ci_brackets_the_point_estimate() {
        let c = identity(4, 8);
        let (lo, hi) = c.bootstrap_ci(60, 0.05, 9, Channel::mutual_information_bits);
        let mi = c.mutual_information_bits();
        assert!(lo <= mi && mi <= hi, "CI [{lo}, {hi}] must contain MI {mi}");
        assert!(lo <= hi);
        // Resampling a noiseless channel can only lose information.
        assert!(hi <= mi + 1e-9, "identity resamples cannot exceed log2 n");
        let (alo, ahi) = c.bootstrap_ci(60, 0.05, 9, Channel::ml_accuracy);
        let acc = c.ml_accuracy();
        assert!(alo <= acc && acc <= ahi);
        // Zero resamples or an empty channel degenerate to the point.
        assert_eq!(c.bootstrap_ci(0, 0.05, 9, Channel::ml_accuracy), (acc, acc));
        let e = Channel::new(2);
        assert_eq!(e.bootstrap_ci(10, 0.05, 9, Channel::mutual_information_bits), (0.0, 0.0));
        // Determinism across calls.
        assert_eq!(
            c.bootstrap_ci(30, 0.1, 5, Channel::mutual_information_bits),
            c.bootstrap_ci(30, 0.1, 5, Channel::mutual_information_bits)
        );
    }

    #[test]
    fn capacity_survives_pathological_channels() {
        // Near-deterministic channels with strictly dominated inputs and
        // extreme count asymmetry drive the Blahut–Arimoto prior toward
        // zero; the clamped prior must keep capacity finite and inside
        // [MI, log2 n].
        let mut dominated = Channel::new(6);
        for i in 0..4 {
            for _ in 0..50 {
                dominated.record(i, i as u64);
            }
        }
        // Two dominated inputs: mixtures of the informative symbols.
        for j in 0..4 {
            dominated.record(4, j);
            dominated.record(5, 3 - j);
        }
        let mut extreme = Channel::new(3);
        extreme.record(0, 0);
        for _ in 0..1_000_000 {
            extreme.record(0, 1);
        }
        for _ in 0..7 {
            extreme.record(1, 0);
            extreme.record(2, 2);
        }
        for c in [dominated, extreme, identity(32, 1)] {
            let cap = c.capacity_bits();
            let mi = c.mutual_information_bits();
            let max = (c.n_inputs() as f64).log2();
            assert!(cap.is_finite(), "capacity must stay finite");
            assert!(cap >= mi - 1e-3, "capacity {cap} must dominate MI {mi}");
            assert!(cap <= max + 1e-9, "capacity {cap} above log2 n = {max}");
        }
    }

    #[test]
    fn guessing_entropy_matches_naive_rescan() {
        // The sorted-column ranking must reproduce the O(n²·m) rescan
        // bit for bit (same rank values, same accumulation order).
        let naive = |c: &Channel| -> f64 {
            let total = c.total_trials();
            if total == 0 {
                return 0.0;
            }
            let mut rank_sum = 0.0;
            for s in 0..c.symbols().len() {
                let sym = c.symbols()[s];
                let col: Vec<u64> = (0..c.n_inputs()).map(|i| c.count(i, sym)).collect();
                for (i, &cnt) in col.iter().enumerate() {
                    if cnt == 0 {
                        continue;
                    }
                    let better = col.iter().filter(|&&x| x > cnt).count() as f64;
                    let tied =
                        col.iter().enumerate().filter(|&(k, &x)| k != i && x == cnt).count() as f64;
                    rank_sum += cnt as f64 * (1.0 + better + tied / 2.0);
                }
            }
            rank_sum / total as f64
        };
        let pattern = [(0, 0), (0, 1), (1, 1), (1, 1), (2, 2), (2, 0), (2, 2), (3, 1), (3, 1)];
        let c = Channel::from_trials(4, pattern);
        assert_eq!(c.guessing_entropy(), naive(&c));
        assert_eq!(identity(8, 4).guessing_entropy(), naive(&identity(8, 4)));
        assert_eq!(constant(8, 4).guessing_entropy(), naive(&constant(8, 4)));
    }
}
