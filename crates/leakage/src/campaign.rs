//! Secret-sweep campaigns: run every secret × trial, estimate the channel.

use prefender_attacks::{AttackError, AttackSpec, RunMetrics, Runner};
use prefender_stats::{derive_seed, Histogram};

use crate::channel::{Channel, NullTest};
use crate::observe::Decoder;

/// Seed-stream tag for the label-permutation null (kept distinct from
/// every (slot, trial) pair's stream).
const PERM_STREAM: u64 = 0x7065_726d; // "perm"

/// Seed-stream tag for the bootstrap resamples.
const BOOT_STREAM: u64 = 0x626f_6f74; // "boot"

/// Resampling configuration for a campaign's channel estimate: how many
/// label permutations feed the MI null test, how many multinomial
/// bootstrap resamples feed the confidence intervals, and the
/// significance/CI level. Zero counts disable the respective analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResampleOptions {
    /// Label permutations for [`Channel::permutation_test`] (0 = off).
    pub permutations: u32,
    /// Multinomial bootstrap resamples for the MI / ML-accuracy
    /// confidence intervals (0 = off).
    pub bootstrap: u32,
    /// Bootstrap confidence-interval level: CIs cover `1 − alpha`. Must
    /// lie strictly inside (0, 1). It does not move the permutation
    /// test's fixed outputs — the reported null quantile is always q95
    /// and the leakage map stars cells at p < 0.01; compare `mi_p_value`
    /// against your own threshold for other levels.
    pub alpha: f64,
}

impl Default for ResampleOptions {
    fn default() -> Self {
        ResampleOptions { permutations: 0, bootstrap: 0, alpha: 0.05 }
    }
}

impl ResampleOptions {
    /// `true` when any resampling analysis is requested.
    pub fn is_enabled(&self) -> bool {
        self.permutations > 0 || self.bootstrap > 0
    }

    /// Validates the configuration (alpha strictly inside (0, 1)).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when alpha is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(format!("alpha must lie strictly inside (0, 1), got {}", self.alpha));
        }
        Ok(())
    }
}

/// A secret-sweep campaign over one (attack, defense, prefetcher,
/// hierarchy, noise) point: every secret in `secrets` is injected into
/// the victim and attacked `trials` times with per-trial derived seeds,
/// and the resulting (secret, observation) pairs estimate the channel.
#[derive(Debug, Clone)]
pub struct LeakageCampaign {
    /// The scenario under test. Its `seed` is ignored — every trial runs
    /// with a seed derived from the campaign seed — and its layout secret
    /// is overridden per trial via [`AttackSpec::with_secret`].
    pub base: AttackSpec,
    /// The secret values swept (victim array indices, all inside the
    /// probe window).
    pub secrets: Vec<usize>,
    /// Trials per secret (each with its own derived probe seed).
    pub trials: u32,
    /// How the attacker decodes an observation from the latency profile.
    pub decoder: Decoder,
}

/// Evenly spaced secret values across `spec`'s probe window.
///
/// # Panics
///
/// Panics if `n` is zero or exceeds the window width (no distinct
/// placement exists).
pub fn evenly_spaced_secrets(spec: &AttackSpec, n: usize) -> Vec<usize> {
    let l = &spec.layout;
    assert!(n >= 1 && n <= l.n_indices, "need 1..={} secrets, got {n}", l.n_indices);
    (0..n).map(|k| l.first_index + k * l.n_indices / n).collect()
}

impl LeakageCampaign {
    /// A campaign over `n_secrets` evenly spaced secrets at `trials`
    /// repetitions, with the paper-rule decoder.
    pub fn new(base: AttackSpec, n_secrets: usize, trials: u32) -> Self {
        let secrets = evenly_spaced_secrets(&base, n_secrets);
        LeakageCampaign { base, secrets, trials, decoder: Decoder::PaperRule }
    }

    /// Total simulations the campaign runs.
    pub fn sims(&self) -> u64 {
        self.secrets.len() as u64 * u64::from(self.trials.max(1))
    }

    /// The per-trial probe seed: the campaign seed with the secret slot
    /// and trial slot folded in through a **chained** SplitMix64
    /// finalize per axis (`prefender_stats::derive_seed`). Depends only
    /// on campaign shape, never on execution order.
    ///
    /// The earlier scheme XORed both axes' multiplied contributions into
    /// one accumulator before a single finalize, so distinct (slot,
    /// trial) pairs could cancel to the same pre-mix value and collide;
    /// chaining the finalizer (a bijection) per axis removes that
    /// structural cancellation.
    pub fn trial_seed(&self, campaign_seed: u64, secret_slot: usize, trial: u32) -> u64 {
        derive_seed(campaign_seed, &[secret_slot as u64, u64::from(trial)])
    }

    /// Runs the full sweep and estimates the channel, without any
    /// resampling analysis. Equivalent to
    /// [`run_with`](LeakageCampaign::run_with) at default (disabled)
    /// [`ResampleOptions`].
    ///
    /// # Errors
    ///
    /// Returns the first [`AttackError`] any trial hits (invalid
    /// hierarchy override or an instruction-cap truncation).
    pub fn run(&self, campaign_seed: u64) -> Result<LeakageResult, AttackError> {
        self.run_with(campaign_seed, &ResampleOptions::default())
    }

    /// Runs the full sweep, estimates the channel, and — when `resample`
    /// asks for it — attaches the permutation null test and bootstrap
    /// confidence intervals.
    ///
    /// Trials execute in (secret, trial) order and all metric reductions
    /// are fixed-order; the resampling seeds are derived from
    /// `campaign_seed` on dedicated streams. The result — including
    /// every floating-point field — is therefore identical wherever the
    /// campaign runs.
    ///
    /// # Errors
    ///
    /// Returns the first [`AttackError`] any trial hits (invalid
    /// hierarchy override or an instruction-cap truncation).
    pub fn run_with(
        &self,
        campaign_seed: u64,
        resample: &ResampleOptions,
    ) -> Result<LeakageResult, AttackError> {
        // One reusable runner (machine + prefetcher stack) serves every
        // trial: only the injected secret and the probe seed vary, so
        // each trial is an in-place machine reset, not a reconstruction.
        let mut runner = Runner::new(&self.base)?;
        self.run_with_runner(campaign_seed, resample, &mut runner)
    }

    /// Like [`run_with`](LeakageCampaign::run_with), but running every
    /// trial through a caller-owned [`Runner`] instead of building a
    /// private one. Campaign schedulers that batch many cells sharing one
    /// machine configuration (the sweep engine's config-major dispatch)
    /// hand each worker's long-lived runner in here, so consecutive
    /// campaigns pay an in-place machine reset instead of a hierarchy
    /// construction per cell. Runner reuse is bit-exact, so the result is
    /// identical to [`run_with`](LeakageCampaign::run_with) whatever state
    /// `runner` arrives in (it is reshaped on configuration mismatch).
    ///
    /// # Errors
    ///
    /// Returns the first [`AttackError`] any trial hits (invalid
    /// hierarchy override or an instruction-cap truncation).
    pub fn run_with_runner(
        &self,
        campaign_seed: u64,
        resample: &ResampleOptions,
        runner: &mut Runner,
    ) -> Result<LeakageResult, AttackError> {
        let trials = self.trials.max(1);
        let (channel, totals, hist) =
            self.run_counts_with_runner(campaign_seed, runner, 0..trials)?;
        let mut result = LeakageResult::from_parts(channel, totals, hist);
        result.apply_resampling(resample, campaign_seed);
        Ok(result)
    }

    /// Runs only the trials in `trials` (for every secret) and returns
    /// the raw mergeable state — the count matrix, the summed machine
    /// metrics, and the latency histogram — without computing any
    /// derived metric.
    ///
    /// This is the streaming/resume primitive: each trial's seed depends
    /// only on `(campaign_seed, slot, trial)`, never on what ran before,
    /// and all three pieces of state are additive. Running disjoint
    /// trial batches in any order, on any process, and combining them
    /// ([`Channel::merge`], metric sums, [`Histogram::merge`]) yields
    /// exactly the state of one uninterrupted pass, so
    /// [`LeakageResult::from_parts`] on the merged state reproduces the
    /// uninterrupted result bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first [`AttackError`] any trial hits.
    pub fn run_counts_with_runner(
        &self,
        campaign_seed: u64,
        runner: &mut Runner,
        trials: std::ops::Range<u32>,
    ) -> Result<(Channel, RunMetrics, Histogram), AttackError> {
        debug_assert!(trials.end <= self.trials.max(1), "trial range beyond the campaign");
        let mut channel = Channel::new(self.secrets.len());
        let mut totals = RunMetrics::default();
        let mut hist = Histogram::new();
        let mut spec = self.base.clone();
        for (slot, &secret) in self.secrets.iter().enumerate() {
            for trial in trials.clone() {
                spec.layout.secret = secret;
                spec.seed = self.trial_seed(campaign_seed, slot, trial);
                let (outcome, metrics) = runner.run_full(&spec)?;
                channel.record(slot, self.decoder.observe(&outcome));
                totals.cycles += metrics.cycles;
                totals.instructions += metrics.instructions;
                totals.l1d += metrics.l1d;
                totals.prefetch_issued += metrics.prefetch_issued;
                totals.prefender += metrics.prefender;
                for s in &outcome.samples {
                    hist.record(s.latency);
                }
            }
        }
        Ok((channel, totals, hist))
    }
}

/// The estimated channel of one campaign plus its headline metrics.
#[derive(Debug, Clone)]
pub struct LeakageResult {
    /// The estimated (secret × observation) channel.
    pub channel: Channel,
    /// Empirical mutual information `I(secret; observation)`, bits.
    pub mi_bits: f64,
    /// Miller–Madow bias-corrected mutual information, bits (always ≤
    /// [`LeakageResult::mi_bits`]).
    pub mi_corrected: f64,
    /// Blahut–Arimoto channel capacity, bits.
    pub capacity_bits: f64,
    /// Max-likelihood attacker accuracy over the recorded trials.
    pub ml_accuracy: f64,
    /// Expected posterior rank of the true secret (1 = always first).
    pub guessing_entropy: f64,
    /// Entropy of the secret marginal (log2 |secrets| under equal trials).
    pub secret_entropy_bits: f64,
    /// Simulations executed (secrets × trials).
    pub sims: u64,
    /// Machine metrics summed over every simulation (cycles,
    /// instructions, L1D stats, prefetch counts, per-unit breakdown).
    pub metrics: RunMetrics,
    /// Probe-latency histogram aggregated over every simulation.
    pub latency_hist: Histogram,
    /// The label-permutation null of the MI estimate, when the campaign
    /// ran with `permutations > 0`.
    pub mi_null: Option<NullTest>,
    /// Bootstrap `(lo, hi)` confidence interval on the MI estimate,
    /// when the campaign ran with `bootstrap > 0`.
    pub mi_ci: Option<(f64, f64)>,
    /// Bootstrap `(lo, hi)` confidence interval on the ML-attacker
    /// accuracy, when the campaign ran with `bootstrap > 0`.
    pub ml_ci: Option<(f64, f64)>,
}

impl LeakageResult {
    /// Computes every derived metric from raw campaign state — the
    /// counterpart of [`LeakageCampaign::run_counts_with_runner`] for
    /// callers that assembled the state from merged batches. All metrics
    /// are pure functions of the count matrix, so merged-then-derived
    /// equals derived-on-the-uninterrupted-run exactly.
    pub fn from_parts(channel: Channel, metrics: RunMetrics, latency_hist: Histogram) -> Self {
        LeakageResult {
            mi_bits: channel.mutual_information_bits(),
            mi_corrected: channel.mi_bits_corrected(),
            capacity_bits: channel.capacity_bits(),
            ml_accuracy: channel.ml_accuracy(),
            guessing_entropy: channel.guessing_entropy(),
            secret_entropy_bits: channel.input_entropy_bits(),
            sims: channel.total_trials(),
            metrics,
            latency_hist,
            channel,
            mi_null: None,
            mi_ci: None,
            ml_ci: None,
        }
    }

    /// Attaches the requested resampling analyses (permutation null,
    /// bootstrap CIs) to this result, with seeds derived from
    /// `campaign_seed` on dedicated streams — deterministic for a given
    /// `(campaign_seed, options)` regardless of where it runs.
    pub fn apply_resampling(&mut self, resample: &ResampleOptions, campaign_seed: u64) {
        if resample.permutations > 0 {
            self.mi_null = Some(self.channel.permutation_test(
                resample.permutations,
                derive_seed(campaign_seed, &[PERM_STREAM]),
            ));
        }
        if resample.bootstrap > 0 {
            let seed = derive_seed(campaign_seed, &[BOOT_STREAM]);
            self.mi_ci = Some(self.channel.bootstrap_ci(
                resample.bootstrap,
                resample.alpha,
                derive_seed(seed, &[0]),
                Channel::mutual_information_bits,
            ));
            self.ml_ci = Some(self.channel.bootstrap_ci(
                resample.bootstrap,
                resample.alpha,
                derive_seed(seed, &[1]),
                Channel::ml_accuracy,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_attacks::{AttackKind, DefenseConfig};

    #[test]
    fn evenly_spaced_secrets_are_distinct_and_in_window() {
        let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
        for n in [1, 2, 8, 61] {
            let s = evenly_spaced_secrets(&spec, n);
            assert_eq!(s.len(), n);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), n, "secrets must be distinct at n={n}");
            assert!(s.iter().all(|&x| spec.layout.indices().any(|i| i == x)));
        }
    }

    #[test]
    #[should_panic(expected = "secrets")]
    fn too_many_secrets_panics() {
        let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
        evenly_spaced_secrets(&spec, 62);
    }

    #[test]
    fn trial_seeds_differ_per_axis() {
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None),
            4,
            2,
        );
        assert_eq!(c.sims(), 8);
        assert_ne!(c.trial_seed(1, 0, 0), c.trial_seed(2, 0, 0));
        assert_ne!(c.trial_seed(1, 0, 0), c.trial_seed(1, 1, 0));
        assert_ne!(c.trial_seed(1, 0, 0), c.trial_seed(1, 0, 1));
        assert_eq!(c.trial_seed(1, 3, 1), c.trial_seed(1, 3, 1));
    }

    #[test]
    fn trial_seeds_never_collide_across_slot_trial_grids() {
        // Regression: the old derivation XORed multiplied axis
        // contributions before one finalize, so distinct (slot, trial)
        // pairs could cancel to the same seed. The chained derivation
        // must stay collision-free over a large grid.
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None),
            2,
            1,
        );
        for campaign_seed in [0u64, 0xC0FFEE, u64::MAX] {
            let mut seen = std::collections::HashSet::with_capacity(512 * 512); // lint: ordered — membership only
            for slot in 0..512usize {
                for trial in 0..512u32 {
                    assert!(
                        seen.insert(c.trial_seed(campaign_seed, slot, trial)),
                        "seed collision at campaign {campaign_seed:#x}, slot {slot}, trial {trial}"
                    );
                }
            }
        }
    }

    #[test]
    fn resampling_attaches_null_and_cis() {
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None),
            4,
            2,
        );
        let plain = c.run(0xC0FFEE).unwrap();
        assert!(plain.mi_null.is_none() && plain.mi_ci.is_none() && plain.ml_ci.is_none());
        assert!(plain.mi_corrected <= plain.mi_bits);
        let opts = ResampleOptions { permutations: 100, bootstrap: 50, alpha: 0.05 };
        let r = c.run_with(0xC0FFEE, &opts).unwrap();
        // The undefended channel is noiseless: the null rejects hard.
        let null = r.mi_null.as_ref().expect("permutation null");
        assert!(null.p_value < 0.05, "undefended FR must reject the null, p={}", null.p_value);
        assert!(null.null_mean_bits < r.mi_bits);
        let (lo, hi) = r.mi_ci.expect("MI CI");
        assert!(lo <= r.mi_bits && r.mi_bits <= hi);
        let (alo, ahi) = r.ml_ci.expect("accuracy CI");
        assert!(alo <= r.ml_accuracy && r.ml_accuracy <= ahi);
        // Channel metrics are unchanged by the analysis layer.
        assert_eq!(r.mi_bits, plain.mi_bits);
        assert_eq!(r.channel, plain.channel);
        // And the whole analysis is deterministic.
        let again = c.run_with(0xC0FFEE, &opts).unwrap();
        assert_eq!(r.mi_null, again.mi_null);
        assert_eq!(r.mi_ci, again.mi_ci);
    }

    #[test]
    fn resample_options_validate() {
        assert!(ResampleOptions::default().validate().is_ok());
        assert!(!ResampleOptions::default().is_enabled());
        assert!(ResampleOptions { permutations: 1, ..Default::default() }.is_enabled());
        assert!(ResampleOptions { bootstrap: 1, ..Default::default() }.is_enabled());
        for alpha in [0.0, 1.0, -0.1, 1.5, f64::NAN] {
            let o = ResampleOptions { alpha, ..Default::default() };
            assert!(o.validate().is_err(), "alpha {alpha} must be rejected");
        }
        assert!(ResampleOptions { alpha: 0.01, ..Default::default() }.validate().is_ok());
    }

    #[test]
    fn shared_runner_matches_private_runner() {
        use prefender_attacks::Runner;
        // A campaign run through a caller-owned runner — even one shaped
        // for a *different* configuration, as the sweep engine's
        // config-major batching may hand over at a group boundary — must
        // reproduce `run_with`'s result exactly.
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full),
            4,
            2,
        );
        let private = c.run(0xC0FFEE).unwrap();
        let foreign = AttackSpec::new(AttackKind::PrimeProbe, DefenseConfig::None).cross_core(true);
        let mut runner = Runner::new(&foreign).unwrap();
        let shared = c.run_with_runner(0xC0FFEE, &ResampleOptions::default(), &mut runner).unwrap();
        assert_eq!(shared.mi_bits, private.mi_bits);
        assert_eq!(shared.channel, private.channel);
        assert_eq!(shared.metrics, private.metrics);
        assert_eq!(
            shared.latency_hist.counts().collect::<Vec<_>>(),
            private.latency_hist.counts().collect::<Vec<_>>()
        );
        // The runner is now shaped for the campaign's configuration and
        // serves a second campaign identically.
        let again = c.run_with_runner(0xC0FFEE, &ResampleOptions::default(), &mut runner).unwrap();
        assert_eq!(again.mi_bits, private.mi_bits);
    }

    #[test]
    fn merged_trial_batches_reproduce_the_uninterrupted_run_exactly() {
        use prefender_attacks::Runner;
        // Stream the campaign as trial batches (0..1, 1..3, 3..4), merge
        // the mergeable state, derive metrics — every float must equal
        // the uninterrupted run bit for bit, resampling included. This
        // is the exactness claim crash-resume and `sweep serve` rest on.
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::PrimeProbe, DefenseConfig::Full),
            4,
            4,
        );
        let opts = ResampleOptions { permutations: 40, bootstrap: 20, alpha: 0.05 };
        let whole = c.run_with(0xC0FFEE, &opts).unwrap();
        let mut runner = Runner::new(&c.base).unwrap();
        let mut channel = Channel::new(c.secrets.len());
        let mut totals = prefender_attacks::RunMetrics::default();
        let mut hist = prefender_stats::Histogram::new();
        // Deliberately out of order: batch independence means order
        // cannot matter.
        for range in [1..3u32, 3..4, 0..1] {
            let (ch, m, h) = c.run_counts_with_runner(0xC0FFEE, &mut runner, range).unwrap();
            channel.merge(&ch);
            totals.cycles += m.cycles;
            totals.instructions += m.instructions;
            totals.l1d += m.l1d;
            totals.prefetch_issued += m.prefetch_issued;
            totals.prefender += m.prefender;
            hist.merge(&h);
        }
        let mut merged = LeakageResult::from_parts(channel, totals, hist);
        merged.apply_resampling(&opts, 0xC0FFEE);
        assert_eq!(merged.channel, whole.channel);
        assert_eq!(merged.metrics, whole.metrics);
        assert_eq!(
            merged.latency_hist.counts().collect::<Vec<_>>(),
            whole.latency_hist.counts().collect::<Vec<_>>()
        );
        assert_eq!(merged.mi_bits.to_bits(), whole.mi_bits.to_bits());
        assert_eq!(merged.mi_corrected.to_bits(), whole.mi_corrected.to_bits());
        assert_eq!(merged.capacity_bits.to_bits(), whole.capacity_bits.to_bits());
        assert_eq!(merged.ml_accuracy.to_bits(), whole.ml_accuracy.to_bits());
        assert_eq!(merged.guessing_entropy.to_bits(), whole.guessing_entropy.to_bits());
        assert_eq!(merged.mi_null, whole.mi_null);
        assert_eq!(merged.mi_ci, whole.mi_ci);
        assert_eq!(merged.ml_ci, whole.ml_ci);
        assert_eq!(merged.sims, whole.sims);
    }

    #[test]
    fn undefended_flush_reload_leaks_full_entropy() {
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None),
            4,
            2,
        );
        let r = c.run(0xC0FFEE).unwrap();
        assert_eq!(r.sims, 8);
        assert!((r.mi_bits - 2.0).abs() < 0.1, "expected ~2 bits, got {}", r.mi_bits);
        assert!((r.ml_accuracy - 1.0).abs() < 1e-9);
        assert!(r.metrics.cycles > 0 && r.metrics.instructions > 0);
        assert!(!r.latency_hist.is_empty());
    }

    #[test]
    fn full_prefender_seals_the_channel() {
        let c = LeakageCampaign::new(
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full),
            4,
            2,
        );
        let r = c.run(0xC0FFEE).unwrap();
        assert!(r.mi_bits <= 0.2, "expected ≤0.2 bits, got {}", r.mi_bits);
        assert!(r.ml_accuracy < 0.6, "ML accuracy {} should be near chance", r.ml_accuracy);
    }
}
