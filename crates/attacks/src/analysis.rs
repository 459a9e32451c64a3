//! Attack outcome analysis: latency classification and secret inference.

use std::fmt;

/// One measured probe: the array index probed and the observed latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// Probed array index.
    pub index: usize,
    /// Measured load-to-use latency in cycles.
    pub latency: u64,
}

/// The attacker's view after phase 3, and whether the secret leaked.
///
/// Reload-style attacks leak through the single *hit* (low latency);
/// Prime+Probe leaks through the single *miss* (high latency). The attack
/// *leaks* when exactly one index is anomalous and it is the secret; any
/// other anomaly set means the attacker cannot identify the secret — the
/// paper's "misleading the attacker".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Per-index latencies, ascending by index (the Figure 8 series).
    pub samples: Vec<ProbeSample>,
    /// Indices the attacker classifies as anomalous.
    pub anomalies: Vec<usize>,
    /// `true` when the attacker recovers exactly the secret.
    pub leaked: bool,
    /// Ground-truth secret.
    pub secret: usize,
    /// The latency threshold used for classification.
    pub threshold: u64,
    /// `true` when an anomaly is a *hit* (reload-style); `false` when it
    /// is a *miss* (Prime+Probe).
    pub anomaly_is_hit: bool,
}

impl AttackOutcome {
    /// `true` when the attack was defeated (the inverse of `leaked`).
    pub fn defended(&self) -> bool {
        !self.leaked
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} anomalies {:?} (secret {}): {}",
            if self.anomaly_is_hit { "hit" } else { "miss" },
            self.anomalies,
            self.secret,
            if self.leaked { "LEAKED" } else { "defended" }
        )
    }
}

/// Classifies per-index latencies into an [`AttackOutcome`].
///
/// `anomaly_is_hit` selects the attacker's inference rule: `true` counts
/// latencies *below* `threshold` as anomalies (Flush+Reload /
/// Evict+Reload), `false` counts latencies *above* it (Prime+Probe).
pub fn classify(
    mut samples: Vec<ProbeSample>,
    threshold: u64,
    anomaly_is_hit: bool,
    secret: usize,
) -> AttackOutcome {
    samples.sort_by_key(|s| s.index);
    let anomalies: Vec<usize> = samples
        .iter()
        .filter(|s| if anomaly_is_hit { s.latency < threshold } else { s.latency >= threshold })
        .map(|s| s.index)
        .collect();
    let leaked = anomalies.len() == 1 && anomalies[0] == secret;
    AttackOutcome { samples, anomalies, leaked, secret, threshold, anomaly_is_hit }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pairs: &[(usize, u64)]) -> Vec<ProbeSample> {
        pairs.iter().map(|&(index, latency)| ProbeSample { index, latency }).collect()
    }

    #[test]
    fn single_hit_leaks() {
        let o = classify(series(&[(50, 200), (51, 4), (52, 200)]), 100, true, 51);
        assert!(o.leaked);
        assert_eq!(o.anomalies, vec![51]);
        assert!(!o.defended());
    }

    #[test]
    fn multiple_hits_defend() {
        let o = classify(series(&[(50, 4), (51, 4), (52, 200)]), 100, true, 51);
        assert!(!o.leaked);
        assert_eq!(o.anomalies, vec![50, 51]);
    }

    #[test]
    fn zero_anomalies_defend() {
        // Prime+Probe with AT: every probe hits — the attacker sees nothing.
        let o = classify(series(&[(50, 4), (51, 4)]), 10, false, 51);
        assert!(!o.leaked);
        assert!(o.anomalies.is_empty());
    }

    #[test]
    fn single_miss_leaks_prime_probe() {
        let o = classify(series(&[(50, 4), (51, 20), (52, 4)]), 10, false, 51);
        assert!(o.leaked);
    }

    #[test]
    fn wrong_single_anomaly_is_not_a_leak() {
        // One anomaly at a non-secret index: the attacker infers the wrong
        // secret — still a defense success.
        let o = classify(series(&[(50, 4), (51, 200)]), 100, true, 51);
        assert_eq!(o.anomalies, vec![50]);
        assert!(!o.leaked);
    }

    #[test]
    fn samples_sorted_and_queryable() {
        let o = classify(series(&[(52, 1), (50, 2), (51, 3)]), 100, true, 50);
        let idx: Vec<usize> = o.samples.iter().map(|s| s.index).collect();
        assert_eq!(idx, vec![50, 51, 52]);
    }

    #[test]
    fn display_mentions_result() {
        let o = classify(series(&[(50, 4)]), 100, true, 50);
        assert!(o.to_string().contains("LEAKED"));
    }
}
