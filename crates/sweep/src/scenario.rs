//! Scenarios: one grid point and its execution.

use std::collections::BTreeMap;
use std::fmt;

use prefender_attacks::{machine_obs, AttackSpec, Basic, RunMetrics, Runner};
use prefender_cpu::Machine;
use prefender_leakage::{LeakageCampaign, ResampleOptions};
use prefender_obs::{take_thread_trace, ObsCounters, TraceBuf};
use prefender_stats::derive_seed;
use prefender_workloads::Workload;

use crate::grid::{AttackCase, DefensePoint, Hierarchy};
use crate::record::ScenarioResult;

/// What a scenario runs: an attack experiment, a performance workload, or
/// a leakage campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A security scenario (leak verdict + probe-latency histogram).
    Attack(AttackCase),
    /// A performance scenario over a named catalog workload.
    Workload(String),
    /// A leakage campaign: the attack case run for every secret × trial,
    /// its channel estimated in bits (`prefender-leakage`).
    Leakage {
        /// The attack family under measurement.
        case: AttackCase,
        /// Secrets swept (evenly spaced across the probe window).
        n_secrets: u32,
        /// Trials per secret, each with its own derived seed.
        trials: u32,
        /// Attacker timer-noise amplitude, in cycles, applied per trial
        /// (see `AttackSpec::latency_jitter`); 0 = clean timer.
        jitter: u64,
    },
}

impl Payload {
    /// Stable id fragment.
    pub fn tag(&self) -> String {
        match self {
            Payload::Attack(a) => format!("atk:{}", a.tag()),
            Payload::Workload(w) => format!("wl:{w}"),
            Payload::Leakage { case, n_secrets, trials, jitter } => {
                let jitter = if *jitter > 0 { format!("j{jitter}") } else { String::new() };
                format!("leak:{}:{}x{}{}", case.tag(), n_secrets, trials, jitter)
            }
        }
    }

    /// Simulations this payload executes when run (leakage campaigns fan
    /// out into secrets × trials machine runs).
    pub fn sims(&self) -> u64 {
        match self {
            Payload::Attack(_) | Payload::Workload(_) => 1,
            Payload::Leakage { n_secrets, trials, .. } => {
                u64::from((*n_secrets).max(1)) * u64::from((*trials).max(1))
            }
        }
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Attack(a) => a.fmt(f),
            Payload::Workload(w) => w.fmt(f),
            Payload::Leakage { case, n_secrets, trials, jitter } => {
                write!(f, "{case} leakage ({n_secrets} secrets x {trials} trials")?;
                if *jitter > 0 {
                    write!(f, ", ±{jitter} jitter")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// One fully-resolved grid point of the work-list.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Position in the campaign work-list (stable for a given grid).
    pub index: usize,
    /// What to run.
    pub payload: Payload,
    /// Defense configuration.
    pub defense: DefensePoint,
    /// Basic prefetcher.
    pub basic: Basic,
    /// Cache hierarchy variant.
    pub hierarchy: Hierarchy,
    /// Seed repetition slot within the grid point (0-based).
    pub seed_slot: u32,
}

impl Scenario {
    /// `true` when the scenario's payload splits attacker and victim
    /// across two cores (workload payloads are always single-core).
    pub fn cross_core(&self) -> bool {
        match &self.payload {
            Payload::Attack(case) | Payload::Leakage { case, .. } => case.cross_core,
            Payload::Workload(_) => false,
        }
    }

    /// The machine-shaping axes of this scenario: two scenarios with
    /// equal keys run on identically constructed machines (same core
    /// count, defense stack, basic prefetcher and hierarchy), so a
    /// reusable `prefender_attacks::Runner` serves both through an
    /// in-place reset. `run_sweep` stably sorts its work-list by this key
    /// (config-major dispatch) before sharding; the key mirrors the
    /// runner's own `prefender_attacks::MachineKey`.
    pub fn machine_key(&self) -> (bool, DefensePoint, Basic, Hierarchy) {
        (self.cross_core(), self.defense, self.basic, self.hierarchy)
    }

    /// The stable scenario id, unique within a grid.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/s{}",
            self.payload.tag(),
            self.defense.tag(),
            basic_tag(self.basic),
            self.hierarchy.tag(),
            self.seed_slot
        )
    }

    /// The per-scenario probe seed: the campaign seed with the scenario
    /// index and seed slot folded in through a chained SplitMix64
    /// finalize per axis (`prefender_stats::derive_seed`). Depends only
    /// on grid shape — never on thread count or execution order.
    ///
    /// The earlier scheme XORed both axes' multiplied contributions into
    /// one accumulator before a single finalize, so distinct (index,
    /// slot) pairs could cancel to the same pre-mix value and collide;
    /// chaining the finalizer (a bijection) per axis removes that
    /// structural cancellation.
    pub fn derived_seed(&self, campaign_seed: u64) -> u64 {
        derive_seed(campaign_seed, &[self.index as u64, self.seed_slot as u64])
    }
}

/// The stable scenario-id fragment of a basic prefetcher.
pub fn basic_tag(b: Basic) -> &'static str {
    match b {
        Basic::None => "none",
        Basic::Tagged => "tagged",
        Basic::Stride => "stride",
    }
}

/// Parses a tag produced by [`basic_tag`].
pub fn basic_from_tag(tag: &str) -> Option<Basic> {
    Basic::ALL.into_iter().find(|&b| basic_tag(b) == tag)
}

/// Runs one scenario to completion on a private runner, built for it and
/// dropped after — safe to call from any thread. Leakage scenarios run
/// `resample`'s permutation-null and bootstrap analyses with seeds
/// derived from the scenario seed, so the statistical columns are as
/// thread-count-independent as the raw metrics. Campaigns go through the
/// engine instead, where each worker owns one runner and lends it to
/// every scenario it runs.
///
/// # Panics
///
/// Panics if a workload payload names a workload missing from the
/// catalog, or if an attack run fails outright (invalid hierarchy); grid
/// builders validate both up front.
pub fn run_scenario_with(
    s: &Scenario,
    campaign_seed: u64,
    resample: &ResampleOptions,
) -> ScenarioResult {
    run_on(&mut None, s, campaign_seed, resample).0
}

/// One scenario's output: its result, observability counters,
/// `(resets, rebuilds)` runner-reuse tallies and flight-recorder trace.
pub(crate) type Ran = (ScenarioResult, ObsCounters, (u64, u64), TraceBuf);

/// Runs one scenario on the runner in `slot` (built there on first use;
/// attack and leakage payloads reuse it through an in-place reset when
/// the machine shape matches). Reuse is bit-exact, so the result,
/// counters and trace are pure functions of the scenario and identical
/// at every thread count. The reuse tallies are *not*: they depend on
/// what the runner ran before, so obs reports keep them in the
/// scheduling-dependent `timing` section.
///
/// # Panics
///
/// See [`run_scenario_with`].
pub(crate) fn run_on(
    slot: &mut Option<Runner>,
    s: &Scenario,
    campaign_seed: u64,
    resample: &ResampleOptions,
) -> Ran {
    let seed = s.derived_seed(campaign_seed);
    // Discard whatever an earlier caller left in the thread's trace
    // buffer, so the drains below hold exactly this scenario's events.
    let _ = take_thread_trace();
    let result = match &s.payload {
        Payload::Attack(case) => run_attack_scenario(s, case, seed, slot),
        Payload::Workload(name) => {
            // A workload runs on a private machine, not the runner.
            let (result, obs) = run_workload_scenario(s, name, seed);
            return (result, obs, (0, 1), take_thread_trace());
        }
        Payload::Leakage { case, n_secrets, trials, jitter } => {
            let base = attack_spec(s, case, seed).with_latency_jitter(*jitter);
            let campaign =
                LeakageCampaign::new(base, (*n_secrets).max(1) as usize, (*trials).max(1));
            run_leakage_scenario(s, &campaign, seed, resample, slot)
        }
    };
    let runner = slot.as_mut().expect("attack payloads run on the runner");
    let mut trace = runner.take_trace();
    // Events emitted outside the runner's per-run drains (machine
    // construction, spec setup) belong to this scenario too.
    trace.merge(take_thread_trace());
    (result, runner.take_obs(), runner.take_reuse_counts(), trace)
}

/// The runner in `slot`, built for `spec`'s machine shape if the slot is
/// empty (a runner rebuilds itself when a later spec's shape differs).
fn lend<'a>(slot: &'a mut Option<Runner>, s: &Scenario, spec: &AttackSpec) -> &'a mut Runner {
    if slot.is_none() {
        *slot = Some(Runner::new(spec).unwrap_or_else(|e| panic!("scenario {}: {e}", s.id())));
    }
    slot.as_mut().expect("populated above")
}

/// The base attack spec of a scenario (seed applied by the caller).
fn attack_spec(s: &Scenario, case: &AttackCase, seed: u64) -> AttackSpec {
    let n_cores = if case.cross_core { 2 } else { 1 };
    let spec = AttackSpec::new(case.kind, s.defense.config)
        .with_noise(case.noise)
        .cross_core(case.cross_core)
        .with_seed(seed)
        .with_basic(s.basic)
        .with_hierarchy(s.hierarchy.config(n_cores));
    AttackSpec { buffers: s.defense.buffers, ..spec }
}

fn run_leakage_scenario(
    s: &Scenario,
    campaign: &LeakageCampaign,
    seed: u64,
    resample: &ResampleOptions,
    slot: &mut Option<Runner>,
) -> ScenarioResult {
    // The resampling seed streams inside `run_with_runner` derive from
    // the scenario seed, so the null test and CIs — like every other
    // column — depend only on the campaign seed and grid shape, never
    // the thread count. The campaign batches its secrets × trials over
    // the worker's runner: under config-major dispatch, consecutive
    // leakage cells share one machine via in-place resets.
    let r = campaign
        .run_with_runner(seed, resample, lend(slot, s, &campaign.base))
        .unwrap_or_else(|e| panic!("scenario {}: {e}", s.id()));
    ScenarioResult {
        latency_hist: r.latency_hist.counts().collect(),
        mi_bits: Some(r.mi_bits),
        mi_corrected: Some(r.mi_corrected),
        capacity_bits: Some(r.capacity_bits),
        ml_accuracy: Some(r.ml_accuracy),
        guessing_entropy: Some(r.guessing_entropy),
        secrets: Some(campaign.secrets.len() as u64),
        trials: Some(u64::from(campaign.trials)),
        mi_p_value: r.mi_null.as_ref().map(|n| n.p_value),
        mi_null_q95: r.mi_null.as_ref().map(|n| n.null_q95_bits),
        mi_ci_lo: r.mi_ci.map(|(lo, _)| lo),
        mi_ci_hi: r.mi_ci.map(|(_, hi)| hi),
        ..ScenarioResult::from_metrics(s, seed, &r.metrics)
    }
}

fn run_attack_scenario(
    s: &Scenario,
    case: &AttackCase,
    seed: u64,
    slot: &mut Option<Runner>,
) -> ScenarioResult {
    let spec = attack_spec(s, case, seed);
    let (outcome, metrics) =
        lend(slot, s, &spec).run_full(&spec).unwrap_or_else(|e| panic!("scenario {}: {e}", s.id()));
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    for p in &outcome.samples {
        *hist.entry(p.latency).or_insert(0) += 1;
    }
    ScenarioResult {
        leaked: Some(outcome.leaked),
        anomalies: Some(outcome.anomalies.len() as u64),
        latency_hist: hist.into_iter().collect(),
        ..ScenarioResult::from_metrics(s, seed, &metrics)
    }
}

/// Looks up a catalog workload by name.
pub(crate) fn catalog_workload(name: &str) -> Option<Workload> {
    prefender_workloads::all().into_iter().find(|w| w.name() == name)
}

/// The one-core machine `w` runs on under `defense` over `basic`, on
/// `hierarchy`: the prefetcher attached and the workload installed, not
/// yet run. Every workload cell, the `sweep` grids' and the paper
/// tables' alike, is built here.
pub fn workload_machine(
    w: &Workload,
    defense: DefensePoint,
    basic: Basic,
    hierarchy: Hierarchy,
) -> Machine {
    let mut m = Machine::new(hierarchy.config(1));
    if let Some(p) = defense.config.build_prefetcher(64, 4096, defense.buffers, basic) {
        m.set_prefetcher(0, p);
    }
    w.install(&mut m);
    m
}

fn run_workload_scenario(s: &Scenario, name: &str, seed: u64) -> (ScenarioResult, ObsCounters) {
    let w = catalog_workload(name)
        .unwrap_or_else(|| panic!("scenario {}: unknown workload `{name}`", s.id()));
    let mut m = workload_machine(&w, s.defense, s.basic, s.hierarchy);
    let truncated = m.run().truncated;
    let result =
        ScenarioResult { truncated, ..ScenarioResult::from_metrics(s, seed, &RunMetrics::of(&m)) };
    (result, machine_obs(&m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_attacks::{AttackKind, DefenseConfig, NoiseSpec};

    fn run_scenario(s: &Scenario, campaign_seed: u64) -> ScenarioResult {
        run_scenario_with(s, campaign_seed, &ResampleOptions::default())
    }

    fn attack_scenario(defense: DefenseConfig) -> Scenario {
        Scenario {
            index: 0,
            payload: Payload::Attack(AttackCase {
                kind: AttackKind::FlushReload,
                noise: NoiseSpec::NONE,
                cross_core: false,
            }),
            defense: DefensePoint::new(defense),
            basic: Basic::None,
            hierarchy: Hierarchy::Paper,
            seed_slot: 0,
        }
    }

    #[test]
    fn derived_seed_depends_on_campaign_index_and_slot() {
        let a = attack_scenario(DefenseConfig::None);
        let mut b = a.clone();
        b.index = 1;
        let mut c = a.clone();
        c.seed_slot = 1;
        assert_ne!(a.derived_seed(1), a.derived_seed(2));
        assert_ne!(a.derived_seed(1), b.derived_seed(1));
        assert_ne!(a.derived_seed(1), c.derived_seed(1));
        assert_eq!(a.derived_seed(1), a.clone().derived_seed(1));
    }

    #[test]
    fn derived_seeds_never_collide_across_index_slot_grids() {
        // Regression: the old derivation XORed multiplied (index, slot)
        // contributions before one finalize, so distinct grid points
        // could cancel to the same seed. The chained derivation must
        // stay collision-free over a grid far larger than any campaign.
        let mut s = attack_scenario(DefenseConfig::None);
        let mut seen = std::collections::HashSet::with_capacity(4096 * 64); // lint: ordered — membership only
        for index in 0..4096usize {
            for slot in 0..64u32 {
                s.index = index;
                s.seed_slot = slot;
                assert!(
                    seen.insert(s.derived_seed(0xC0FFEE)),
                    "seed collision at index {index}, slot {slot}"
                );
            }
        }
    }

    #[test]
    fn attack_scenario_measures_leak_and_histogram() {
        let r = run_scenario(&attack_scenario(DefenseConfig::None), 0xC0FFEE);
        assert_eq!(r.leaked, Some(true));
        assert_eq!(r.anomalies, Some(1));
        let probes: u64 = r.latency_hist.iter().map(|&(_, n)| n).sum();
        assert_eq!(probes, 61, "one histogram count per probed index (Figure 8: 50..=110)");
        assert!(r.cycles > 0 && r.instructions > 0 && r.ipc > 0.0);
        let r = run_scenario(&attack_scenario(DefenseConfig::Full), 0xC0FFEE);
        assert_eq!(r.leaked, Some(false));
        assert!(r.st_prefetches + r.at_prefetches + r.rp_prefetches > 0);
        // A basic prefetcher alone (the grid's `atk:pp/base/stride` cell).
        let mut s = attack_scenario(DefenseConfig::None);
        s.payload = Payload::Attack(AttackCase {
            kind: AttackKind::PrimeProbe,
            noise: NoiseSpec::NONE,
            cross_core: false,
        });
        s.basic = Basic::Stride;
        let r = run_scenario(&s, 0xC0FFEE);
        assert_eq!((r.leaked, r.anomalies), (Some(false), Some(2)));
        assert_eq!((r.cycles, r.prefetch_issued), (19_351, 117));
    }

    #[test]
    fn workload_scenario_measures_performance() {
        let s = Scenario {
            index: 3,
            payload: Payload::Workload("462.libquantum".into()),
            defense: DefensePoint::new(DefenseConfig::None),
            basic: Basic::Tagged,
            hierarchy: Hierarchy::Paper,
            seed_slot: 0,
        };
        let r = run_scenario(&s, 1);
        assert!(r.leaked.is_none());
        assert!(!r.truncated);
        assert!(r.prefetch_issued > 0, "tagged must prefetch the stream");
        assert!(r.prefetch_accuracy.unwrap() > 0.5);
        // Each basic prefetcher alone on 429.mcf: the spec grid's values.
        for (basic, pinned) in [
            (Basic::Tagged, (1_751_545, 7_686, 7_800, 7_799)),
            (Basic::Stride, (728_228, 2_676, 6_813, 6_813)),
        ] {
            let s = Scenario { payload: Payload::Workload("429.mcf".into()), basic, ..s.clone() };
            let r = run_scenario(&s, 1);
            assert_eq!((r.cycles, r.demand_misses, r.prefetch_issued, r.prefetch_fills), pinned);
        }
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let s = attack_scenario(DefenseConfig::Full);
        assert_eq!(s.id(), "atk:fr/full32/none/paper/s0");
        let mut s = attack_scenario(DefenseConfig::Full);
        s.payload = Payload::Leakage {
            case: AttackCase {
                kind: AttackKind::FlushReload,
                noise: NoiseSpec::NONE,
                cross_core: false,
            },
            n_secrets: 8,
            trials: 4,
            jitter: 0,
        };
        assert_eq!(s.id(), "leak:fr:8x4/full32/none/paper/s0");
        assert_eq!(s.payload.sims(), 32);
        if let Payload::Leakage { jitter, .. } = &mut s.payload {
            *jitter = 50;
        }
        assert_eq!(s.id(), "leak:fr:8x4j50/full32/none/paper/s0", "jitter must mark the id");
    }

    #[test]
    fn leakage_scenario_measures_the_channel() {
        let case =
            AttackCase { kind: AttackKind::FlushReload, noise: NoiseSpec::NONE, cross_core: false };
        let mut s = attack_scenario(DefenseConfig::None);
        s.payload = Payload::Leakage { case, n_secrets: 4, trials: 2, jitter: 0 };
        let r = run_scenario(&s, 0xC0FFEE);
        assert!(r.is_leakage());
        assert_eq!(r.leaked, None);
        assert_eq!((r.secrets, r.trials), (Some(4), Some(2)));
        assert!((r.mi_bits.unwrap() - 2.0).abs() < 0.1, "undefended: ~2 bits, got {:?}", r.mi_bits);
        assert!((r.ml_accuracy.unwrap() - 1.0).abs() < 1e-9);
        assert!(r.capacity_bits.unwrap() >= r.mi_bits.unwrap() - 1e-6);
        assert!(r.cycles > 0 && !r.latency_hist.is_empty());
        let mut s = attack_scenario(DefenseConfig::Full);
        s.payload = Payload::Leakage { case, n_secrets: 4, trials: 2, jitter: 0 };
        let r = run_scenario(&s, 0xC0FFEE);
        assert!(r.mi_bits.unwrap() <= 0.2, "defended: ≈0 bits, got {:?}", r.mi_bits);
        assert!(r.guessing_entropy.unwrap() > 1.5, "defended secret must rank deep");
    }

    #[test]
    fn leakage_jitter_degrades_the_channel_deterministically() {
        let case =
            AttackCase { kind: AttackKind::FlushReload, noise: NoiseSpec::NONE, cross_core: false };
        let mut s = attack_scenario(DefenseConfig::None);
        // Jitter far above the hit threshold drowns most hits in timer
        // noise: the undefended channel must lose bits.
        s.payload = Payload::Leakage { case, n_secrets: 4, trials: 2, jitter: 400 };
        let noisy = run_scenario(&s, 0xC0FFEE);
        assert!(
            noisy.mi_bits.unwrap() < 2.0 - 0.5,
            "±400-cycle jitter must degrade the 2-bit channel, got {:?}",
            noisy.mi_bits
        );
        assert_eq!(noisy, run_scenario(&s, 0xC0FFEE), "jitter is seeded, runs are identical");
    }
}
