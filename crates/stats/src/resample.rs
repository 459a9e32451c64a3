//! Deterministic randomness: the SplitMix64 and xoshiro256\*\*
//! generators, seed derivation chains, Fisher–Yates shuffles,
//! multinomial bootstrap draws and the p-value/quantile helpers built on
//! them.
//!
//! Everything here is a pure function of its seed: resampling a channel
//! estimate on one thread or sixteen, today or in CI, produces identical
//! bits. That determinism is what lets sweep artifacts carry permutation
//! p-values and bootstrap confidence intervals while staying
//! byte-identical at any thread count.

/// The SplitMix64 increment (the 64-bit golden ratio).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output mix: adds the golden-ratio increment and runs
/// the two xorshift-multiply finalizer rounds. A bijection on `u64`.
///
/// This is the single finalizer every seed-derivation chain in the
/// workspace composes; see [`derive_seed`].
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from `root` and a sequence of axis coordinates
/// by chaining the SplitMix64 finalizer **per axis**: each part is
/// XOR-folded into the running state and immediately re-mixed.
///
/// Because [`mix64`] is a bijection, two derivations sharing a prefix
/// but differing in any later part cannot collide by construction —
/// unlike XOR-ing multiplied contributions into one pre-mix accumulator,
/// where distinct coordinate pairs can cancel to the same input of a
/// single finalize.
pub fn derive_seed(root: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix64(root), |z, &p| mix64(z ^ p))
}

/// A SplitMix64 pseudo-random generator — tiny, seedable, and with a
/// fully specified output sequence, so resampled statistics reproduce
/// exactly everywhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        out
    }

    /// An unbiased uniform draw in `[0, n)`, by rejection.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        // Skip the first `2^64 mod n` values: the remaining consecutive
        // run has length divisible by n, so `% n` over it is exact.
        let skip = (u64::MAX % n + 1) % n;
        loop {
            let v = self.next_u64();
            if v >= skip {
                return v % n;
            }
        }
    }
}

/// The xoshiro256\*\* generator (Blackman–Vigna), its state seeded with
/// the first four [`SplitMix64`] draws as its authors recommend. It
/// drives attack probe orders, workload data and property-test cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 { s: std::array::from_fn(|_| sm.next_u64()) }
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// An unbiased uniform draw in `[0, n)`, by rejection.
    ///
    /// Unlike [`SplitMix64::below`], this rejects the draws *above* the
    /// largest multiple of `n`; the two rules keep their own streams.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is an empty range");
        let zone = u64::MAX - (u64::MAX % n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % n;
            }
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        fisher_yates(xs, |n| self.below(n));
    }
}

/// In-place Fisher–Yates shuffle driven by a [`SplitMix64`].
pub fn shuffle<T>(rng: &mut SplitMix64, xs: &mut [T]) {
    fisher_yates(xs, |n| rng.below(n));
}

/// Swaps each position `i`, last to second, with a `below(i + 1)` draw.
fn fisher_yates<T>(xs: &mut [T], mut below: impl FnMut(u64) -> u64) {
    for i in (1..xs.len()).rev() {
        let j = below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// One multinomial bootstrap draw: `draws` samples distributed over the
/// cells of `weights` with probability proportional to each weight.
///
/// Returns the per-cell sample counts (summing to `draws`); all zeros
/// when the weights are empty or sum to zero.
pub fn multinomial(rng: &mut SplitMix64, weights: &[u64], draws: u64) -> Vec<u64> {
    let total: u64 = weights.iter().sum();
    let mut out = vec![0u64; weights.len()];
    if total == 0 {
        return out;
    }
    // Inclusive running sums; cell i covers [cum[i-1], cum[i]).
    let cum: Vec<u64> = weights
        .iter()
        .scan(0u64, |acc, &w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    for _ in 0..draws {
        let v = rng.below(total);
        let idx = cum.partition_point(|&c| c <= v);
        out[idx] += 1;
    }
    out
}

/// The `q`-quantile of an **ascending-sorted** sample, by linear
/// interpolation between order statistics. Zero for an empty sample;
/// `q` is clamped to `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The one-sided permutation p-value of `observed` against `null`
/// samples: `(1 + #{null >= observed}) / (1 + |null|)`, the standard
/// add-one estimate that never reports exactly zero.
///
/// Null samples within `1e-9` of `observed` count as ≥, so a degenerate
/// statistic (observed 0, all nulls 0) reports `p = 1` rather than
/// whatever floating-point noise dictates. `1.0` for an empty null.
pub fn p_value_ge(null: &[f64], observed: f64) -> f64 {
    if null.is_empty() {
        return 1.0;
    }
    let ge = null.iter().filter(|&&x| x >= observed - 1e-9).count();
    (1 + ge) as f64 / (1 + null.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        // Single-bit inputs land far apart (sanity, not avalanche proof).
        let outs: Vec<u64> = (0..64).map(|b| mix64(1u64 << b)).collect();
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64);
    }

    #[test]
    fn derive_seed_chains_per_axis() {
        assert_eq!(derive_seed(7, &[1, 2]), derive_seed(7, &[1, 2]));
        assert_ne!(derive_seed(7, &[1, 2]), derive_seed(7, &[2, 1]), "axis order matters");
        assert_ne!(derive_seed(7, &[1, 2]), derive_seed(8, &[1, 2]), "root matters");
        assert_ne!(derive_seed(7, &[]), derive_seed(8, &[]));
        // Fixed prefix: the last axis is injective (mix64 is a bijection).
        let mut seen: Vec<u64> = (0..4096).map(|t| derive_seed(7, &[3, t])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4096);
    }

    #[test]
    fn splitmix_sequence_is_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs[0], xs[1]);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 7];
        for _ in 0..200 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 draws must cover 0..7");
        assert_eq!(SplitMix64::new(3).below(1), 0);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }

    #[test]
    fn shuffle_permutes_in_place() {
        let mut xs: Vec<u32> = (0..20).collect();
        shuffle(&mut SplitMix64::new(5), &mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>(), "shuffle must be a permutation");
        assert_ne!(xs, (0..20).collect::<Vec<_>>(), "seed 5 must actually move something");
        let mut again: Vec<u32> = (0..20).collect();
        shuffle(&mut SplitMix64::new(5), &mut again);
        assert_eq!(xs, again, "same seed, same permutation");
    }

    #[test]
    fn splitmix_stream_is_pinned() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        let xs: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            xs,
            [0xca8216fa9058d0fa, 0xece45babce870479, 0x87be93a4a16a73cb, 0x5a71c08957a50d44]
        );
    }

    #[test]
    fn xoshiro_streams_are_pinned() {
        // Probe orders, workload data and property cases all flow from
        // these streams: any change here moves artifact bytes.
        let mut rng = Xoshiro256::new(0xC0FFEE);
        let xs: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            xs,
            [0x120e99a6dde4a550, 0x8f989ef97733d4b4, 0xf0a28eb2e4fd367b, 0x50c29bfe8734f5d2]
        );
        let mut order: Vec<u32> = (0..16).collect();
        Xoshiro256::new(0xC0FFEE).shuffle(&mut order);
        assert_eq!(order, [9, 7, 6, 12, 2, 8, 3, 5, 14, 10, 15, 11, 1, 13, 4, 0]);
        let mut rng = Xoshiro256::new(7);
        let draws: Vec<u64> = (0..8).map(|_| rng.below(51)).collect();
        assert_eq!(draws, [24, 14, 30, 34, 32, 47, 1, 37]);
    }

    #[test]
    fn xoshiro_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::new(1);
        for n in [1, 3, 17, 1 << 63, u64::MAX] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
        let mut seen = [false; 8];
        for _ in 0..512 {
            seen[rng.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "512 draws must cover 0..8");
        assert_ne!(Xoshiro256::new(42).next_u64(), Xoshiro256::new(43).next_u64());
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn xoshiro_below_zero_panics() {
        Xoshiro256::new(0).below(0);
    }

    #[test]
    fn xoshiro_shuffle_permutes_in_place() {
        let mut xs: Vec<u32> = (0..64).collect();
        Xoshiro256::new(4).shuffle(&mut xs);
        assert_ne!(xs, (0..64).collect::<Vec<_>>(), "a 64-element shuffle is not identity");
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>(), "shuffle must be a permutation");
    }

    #[test]
    fn multinomial_conserves_mass_and_respects_zeros() {
        let mut rng = SplitMix64::new(11);
        let draws = multinomial(&mut rng, &[3, 0, 5, 2], 1000);
        assert_eq!(draws.len(), 4);
        assert_eq!(draws.iter().sum::<u64>(), 1000);
        assert_eq!(draws[1], 0, "zero-weight cells draw nothing");
        assert!(draws[2] > draws[3], "heavier cells draw more at n=1000");
        assert_eq!(multinomial(&mut rng, &[0, 0], 10), vec![0, 0]);
        assert_eq!(multinomial(&mut rng, &[], 10), Vec::<u64>::new());
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 2.0), 4.0, "q clamps to [0,1]");
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn p_value_counts_with_add_one() {
        assert_eq!(p_value_ge(&[], 1.0), 1.0);
        assert_eq!(p_value_ge(&[0.0; 99], 0.0), 1.0, "ties count as >=");
        assert_eq!(p_value_ge(&[0.0; 99], 1.0), 0.01);
        let null = [0.1, 0.2, 0.3];
        assert_eq!(p_value_ge(&null, 0.25), 0.5);
        assert!(p_value_ge(&null, -1.0) == 1.0);
    }
}
