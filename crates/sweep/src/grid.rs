//! Declarative scenario grids and their enumeration.

use std::fmt;

use prefender_attacks::{AttackKind, Basic, DefenseConfig, NoiseSpec};
use prefender_leakage::ResampleOptions;
use prefender_sim::{CacheConfig, HierarchyConfig, ReplacementPolicy};

use crate::scenario::{Payload, Scenario};

/// One attack family point: kind + challenge noise + core scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackCase {
    /// Which attack.
    pub kind: AttackKind,
    /// Which challenge noise is active.
    pub noise: NoiseSpec,
    /// Attacker and victim on different cores.
    pub cross_core: bool,
}

/// Attack kinds by scenario-id tag, in the paper's order.
const KINDS: [(AttackKind, &str); 3] = [
    (AttackKind::FlushReload, "fr"),
    (AttackKind::EvictReload, "er"),
    (AttackKind::PrimeProbe, "pp"),
];

/// Challenge-noise mixes by the tag suffix after `+`, in Figure 8's
/// order; the clean mix has no suffix.
const NOISES: [(NoiseSpec, &str); 4] = [
    (NoiseSpec::NONE, ""),
    (NoiseSpec::C3, "c3"),
    (NoiseSpec::C4, "c4"),
    (NoiseSpec::C3C4, "c3c4"),
];

/// Defense configurations by scenario-id tag and by manifest name (the
/// two differ only for the baseline), in the legend order.
const DEFENSES: [(DefenseConfig, &str, &str); 6] = [
    (DefenseConfig::None, "base", "none"),
    (DefenseConfig::St, "st", "st"),
    (DefenseConfig::At, "at", "at"),
    (DefenseConfig::StAt, "stat", "stat"),
    (DefenseConfig::AtRp, "atrp", "atrp"),
    (DefenseConfig::Full, "full", "full"),
];

fn tag_of<T: PartialEq>(table: &[(T, &'static str)], value: &T) -> &'static str {
    table.iter().find(|(v, _)| v == value).map(|&(_, tag)| tag).expect("every axis value has a tag")
}

fn value_of<T: Copy>(table: &[(T, &str)], tag: &str) -> Option<T> {
    table.iter().find(|&&(_, t)| t == tag).map(|&(v, _)| v)
}

impl AttackCase {
    /// Stable short tag used in scenario ids (e.g. `fr+c3x`).
    pub fn tag(&self) -> String {
        let noise = tag_of(&NOISES, &self.noise);
        format!(
            "{}{}{noise}{}",
            tag_of(&KINDS, &self.kind),
            if noise.is_empty() { "" } else { "+" },
            if self.cross_core { "x" } else { "" }
        )
    }

    /// Parses a tag produced by [`AttackCase::tag`] (`fr`, `er+c3`,
    /// `pp+c3c4x`, …). Total inverse: returns `None` on anything
    /// `tag` cannot emit.
    pub fn from_tag(tag: &str) -> Option<AttackCase> {
        let (body, cross_core) = match tag.strip_suffix('x') {
            Some(body) => (body, true),
            None => (tag, false),
        };
        let (kind, noise) = match body.split_once('+') {
            // A `+` always names a mix: the clean one has no suffix.
            Some((_, "")) => return None,
            Some((kind, noise)) => (kind, noise),
            None => (body, ""),
        };
        Some(AttackCase {
            kind: value_of(&KINDS, kind)?,
            noise: value_of(&NOISES, noise)?,
            cross_core,
        })
    }

    /// The paper's twelve Figure 8 panels (single-core).
    pub fn figure8_panels() -> Vec<AttackCase> {
        NOISES
            .iter()
            .flat_map(|&(noise, _)| {
                KINDS.iter().map(move |&(kind, _)| AttackCase { kind, noise, cross_core: false })
            })
            .collect()
    }

    /// Every attack case: the Figure 8 panels plus the cross-core
    /// variants of each attack (paper Figure 4).
    pub fn all() -> Vec<AttackCase> {
        let mut v = Self::figure8_panels();
        for (kind, _) in KINDS {
            for (noise, _) in NOISES {
                v.push(AttackCase { kind, noise, cross_core: true });
            }
        }
        v
    }
}

impl fmt::Display for AttackCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.kind,
            match (self.noise.c3, self.noise.c4) {
                (false, false) => "",
                (true, false) => " (C3)",
                (false, true) => " (C4)",
                (true, true) => " (C3+C4)",
            },
            if self.cross_core { " cross-core" } else { "" }
        )
    }
}

/// One defense point: configuration plus access-buffer count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DefensePoint {
    /// Which PREFENDER units defend.
    pub config: DefenseConfig,
    /// Access-buffer count (ignored by [`DefenseConfig::None`] /
    /// [`DefenseConfig::St`]).
    pub buffers: usize,
}

impl DefensePoint {
    /// The paper's default: 32 access buffers.
    pub const fn new(config: DefenseConfig) -> Self {
        DefensePoint { config, buffers: 32 }
    }

    /// All six defense configurations at 32 buffers (Figure 8's legend).
    pub fn figure8_legend() -> Vec<DefensePoint> {
        DefenseConfig::ALL.iter().map(|&config| DefensePoint::new(config)).collect()
    }

    /// Stable short tag used in scenario ids (e.g. `full32`).
    pub fn tag(&self) -> String {
        let (_, tag, _) = self.row();
        match self.config {
            DefenseConfig::None | DefenseConfig::St => tag.to_string(),
            _ => format!("{tag}{}", self.buffers),
        }
    }

    /// Lossless `config:buffers` form for campaign manifests. Unlike
    /// [`DefensePoint::tag`] (which drops the buffer count for
    /// buffer-less configs), this round-trips every point exactly.
    pub fn spec(&self) -> String {
        let (_, _, name) = self.row();
        format!("{name}:{}", self.buffers)
    }

    /// Parses the [`DefensePoint::spec`] form.
    pub fn from_spec(spec: &str) -> Option<DefensePoint> {
        let (name, buffers) = spec.split_once(':')?;
        let &(config, ..) = DEFENSES.iter().find(|d| d.2 == name)?;
        Some(DefensePoint { config, buffers: buffers.parse().ok()? })
    }

    fn row(&self) -> (DefenseConfig, &'static str, &'static str) {
        *DEFENSES.iter().find(|d| d.0 == self.config).expect("every configuration has a row")
    }
}

/// A cache-hierarchy variant of the grid.
///
/// All variants keep the paper's 64-byte lines and 4 KB pages so attack
/// layouts stay meaningful; they move the sizes, latencies and policies
/// the paper holds fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Hierarchy {
    /// The paper's gem5 baseline (Section V-A).
    Paper,
    /// Double-size (4 MB) shared L2.
    BigL2,
    /// Half-size (32 KB) L1D.
    SmallL1d,
    /// Paper geometry under FIFO replacement at both levels.
    Fifo,
}

impl Hierarchy {
    /// Every variant, baseline first.
    pub const ALL: [Hierarchy; 4] =
        [Hierarchy::Paper, Hierarchy::BigL2, Hierarchy::SmallL1d, Hierarchy::Fifo];

    /// Stable short tag used in scenario ids.
    pub fn tag(&self) -> &'static str {
        match self {
            Hierarchy::Paper => "paper",
            Hierarchy::BigL2 => "bigl2",
            Hierarchy::SmallL1d => "sml1d",
            Hierarchy::Fifo => "fifo",
        }
    }

    /// Parses a tag produced by [`Hierarchy::tag`].
    pub fn from_tag(tag: &str) -> Option<Hierarchy> {
        Hierarchy::ALL.into_iter().find(|h| h.tag() == tag)
    }

    /// Builds the concrete configuration for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero (grid enumeration never does this).
    pub fn config(&self, n_cores: usize) -> HierarchyConfig {
        let mut h = HierarchyConfig::paper_baseline(n_cores).expect("nonzero core count");
        match self {
            Hierarchy::Paper => {}
            Hierarchy::BigL2 => {
                h.l2 = CacheConfig::new("L2", 4 * 1024 * 1024, 16, 64, 20).expect("valid L2");
            }
            Hierarchy::SmallL1d => {
                h.l1d = CacheConfig::new("L1D", 32 * 1024, 2, 64, 4).expect("valid L1D");
            }
            Hierarchy::Fifo => {
                h.l1d = CacheConfig::new("L1D", 64 * 1024, 2, 64, 4)
                    .expect("valid L1D")
                    .with_replacement(ReplacementPolicy::Fifo);
                h.l2 = CacheConfig::new("L2", 2 * 1024 * 1024, 16, 64, 20)
                    .expect("valid L2")
                    .with_replacement(ReplacementPolicy::Fifo);
            }
        }
        h
    }
}

impl fmt::Display for Hierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Hierarchy::Paper => "paper baseline",
            Hierarchy::BigL2 => "4MB L2",
            Hierarchy::SmallL1d => "32KB L1D",
            Hierarchy::Fifo => "FIFO replacement",
        })
    }
}

/// A declarative scenario grid.
///
/// The work-list is the union of three cartesian products sharing the
/// defense / basic / hierarchy / seed axes:
///
/// * `attacks × defenses × basics × hierarchies × seeds` — security
///   scenarios (leak verdicts, probe-latency histograms);
/// * `workloads × defenses × basics × hierarchies × seeds` — performance
///   scenarios (cycles, IPC, prefetch accuracy);
/// * `leakages × defenses × basics × hierarchies × seeds` — leakage
///   campaigns, each fanning out into `leakage_secrets ×
///   leakage_trials` attack simulations and estimating the
///   secret → observation channel in bits.
///
/// Enumeration order is fixed (payloads outermost, seeds innermost), so a
/// scenario's index — and therefore its derived seed — depends only on
/// the grid shape, never on thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Attack payloads.
    pub attacks: Vec<AttackCase>,
    /// Workload payloads (names from the `prefender-workloads` catalog).
    pub workloads: Vec<String>,
    /// Leakage-campaign payloads (attack cases measured as channels).
    pub leakages: Vec<AttackCase>,
    /// Secrets swept per leakage campaign (evenly spaced across the probe
    /// window; the secret alphabet carries `log2` of this many bits).
    pub leakage_secrets: u32,
    /// Trials per secret in a leakage campaign.
    pub leakage_trials: u32,
    /// Attacker timer-noise amplitude for leakage campaigns, in cycles
    /// per probe (0 = the paper's clean timer; at most `u32::MAX`).
    pub leakage_jitter: u64,
    /// Label permutations per leakage campaign for the MI null test
    /// (0 = no permutation test; see `prefender_leakage::NullTest`).
    pub leakage_permutations: u32,
    /// Multinomial bootstrap resamples per leakage campaign for the
    /// MI / accuracy confidence intervals (0 = no CIs).
    pub leakage_bootstrap: u32,
    /// Bootstrap CI level for the leakage resampling analyses (the
    /// intervals cover `1 − alpha`).
    pub leakage_alpha: f64,
    /// Defense axis.
    pub defenses: Vec<DefensePoint>,
    /// Basic-prefetcher axis.
    pub basics: Vec<Basic>,
    /// Hierarchy axis.
    pub hierarchies: Vec<Hierarchy>,
    /// Seed repetitions per scenario point (≥ 1).
    pub seeds: u32,
}

impl SweepGrid {
    /// An empty grid (no payloads) with paper-default shared axes and
    /// leakage shape (8 secrets × 4 trials = 3 bits of secret entropy).
    pub fn empty() -> Self {
        SweepGrid {
            attacks: Vec::new(),
            workloads: Vec::new(),
            leakages: Vec::new(),
            leakage_secrets: 8,
            leakage_trials: 4,
            leakage_jitter: 0,
            leakage_permutations: 0,
            leakage_bootstrap: 0,
            leakage_alpha: 0.05,
            defenses: vec![DefensePoint::new(DefenseConfig::Full)],
            basics: vec![Basic::None],
            hierarchies: vec![Hierarchy::Paper],
            seeds: 1,
        }
    }

    /// The full Figure 8 security grid: twelve panels × six defenses.
    pub fn security_full() -> Self {
        SweepGrid {
            attacks: AttackCase::figure8_panels(),
            defenses: DefensePoint::figure8_legend(),
            ..Self::empty()
        }
    }

    /// A two-scenario smoke grid: undefended vs. fully-defended
    /// Flush+Reload.
    pub fn security_quick() -> Self {
        SweepGrid {
            attacks: vec![AttackCase {
                kind: AttackKind::FlushReload,
                noise: NoiseSpec::NONE,
                cross_core: false,
            }],
            defenses: vec![
                DefensePoint::new(DefenseConfig::None),
                DefensePoint::new(DefenseConfig::Full),
            ],
            ..Self::empty()
        }
    }

    /// The full Figure 8 security grid measured as channels instead of
    /// booleans: twelve leakage campaigns × six defenses.
    pub fn leakage_full() -> Self {
        SweepGrid {
            leakages: AttackCase::figure8_panels(),
            defenses: DefensePoint::figure8_legend(),
            ..Self::empty()
        }
    }

    /// A two-campaign leakage smoke grid: undefended vs. fully-defended
    /// Flush+Reload.
    pub fn leakage_quick() -> Self {
        let mut g = Self::security_quick();
        g.leakages = std::mem::take(&mut g.attacks);
        g
    }

    /// The audit cross-validation grid: the three noise-free single-core
    /// attack kinds as leakage campaigns, undefended vs. fully defended,
    /// with a permutation null per cell. `repro audit` joins these
    /// measured cells against the static analyzer's verdicts (the
    /// zero-false-negative gate), so the grid stays compact and fully
    /// deterministic.
    pub fn audit_quick() -> Self {
        SweepGrid {
            leakages: KINDS
                .iter()
                .map(|&(kind, _)| AttackCase { kind, noise: NoiseSpec::NONE, cross_core: false })
                .collect(),
            defenses: vec![
                DefensePoint::new(DefenseConfig::None),
                DefensePoint::new(DefenseConfig::Full),
            ],
            leakage_trials: 2,
            leakage_permutations: 199,
            ..Self::empty()
        }
    }

    /// Number of scenarios the grid enumerates to.
    pub fn len(&self) -> usize {
        (self.attacks.len() + self.workloads.len() + self.leakages.len())
            * self.defenses.len()
            * self.basics.len()
            * self.hierarchies.len()
            * self.seeds.max(1) as usize
    }

    /// Total machine simulations the grid executes — each leakage
    /// scenario fans out into `leakage_secrets × leakage_trials` runs.
    pub fn sims(&self) -> u64 {
        self.enumerate().iter().map(|s| s.payload.sims()).sum()
    }

    /// `true` when the grid has no payloads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The leakage-campaign resampling configuration this grid runs
    /// with (permutation null + bootstrap CIs).
    pub fn resample(&self) -> ResampleOptions {
        ResampleOptions {
            permutations: self.leakage_permutations,
            bootstrap: self.leakage_bootstrap,
            alpha: self.leakage_alpha,
        }
    }

    /// Serializes the complete grid shape as one canonical line for the
    /// campaign manifest: `;`-separated `key=value` sections, list axes
    /// `,`-joined, `alpha` as the exact bits of the `f64` (hex) so the
    /// round trip is bit-exact. [`SweepGrid::from_spec`] inverts it.
    pub fn to_spec(&self) -> String {
        let join = |tags: Vec<String>| tags.join(",");
        format!(
            "attacks={};workloads={};leakages={};secrets={};trials={};jitter={};\
             permutations={};bootstrap={};alpha={:016x};defenses={};basics={};\
             hierarchies={};seeds={}",
            join(self.attacks.iter().map(AttackCase::tag).collect()),
            self.workloads.join(","),
            join(self.leakages.iter().map(AttackCase::tag).collect()),
            self.leakage_secrets,
            self.leakage_trials,
            self.leakage_jitter,
            self.leakage_permutations,
            self.leakage_bootstrap,
            self.leakage_alpha.to_bits(),
            join(self.defenses.iter().map(DefensePoint::spec).collect()),
            join(self.basics.iter().map(|&b| crate::scenario::basic_tag(b).to_string()).collect()),
            join(self.hierarchies.iter().map(|h| h.tag().to_string()).collect()),
            self.seeds,
        )
    }

    /// Parses a [`SweepGrid::to_spec`] line back into the identical grid
    /// (workload names are validated against the catalog, so a manifest
    /// from a foreign or newer repo fails here rather than panicking
    /// mid-campaign).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending section.
    pub fn from_spec(spec: &str) -> Result<SweepGrid, String> {
        let mut sections: Vec<(&str, &str)> = Vec::new();
        for part in spec.split(';') {
            let (key, value) =
                part.split_once('=').ok_or_else(|| format!("bad grid section `{part}`"))?;
            if sections.iter().any(|&(k, _)| k == key) {
                return Err(format!("duplicate grid section `{key}`"));
            }
            sections.push((key, value));
        }
        let get = |key: &str| -> Result<&str, String> {
            sections
                .iter()
                .find(|&&(k, _)| k == key)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("grid spec missing section `{key}`"))
        };
        let list = |key: &str| -> Result<Vec<&str>, String> {
            Ok(get(key)?.split(',').filter(|t| !t.is_empty()).collect())
        };
        let cases = |key: &str| -> Result<Vec<AttackCase>, String> {
            list(key)?
                .into_iter()
                .map(|t| AttackCase::from_tag(t).ok_or_else(|| format!("unknown {key} tag `{t}`")))
                .collect()
        };
        let num = |key: &str| -> Result<u64, String> {
            get(key)?.parse::<u64>().map_err(|_| format!("bad {key} value `{}`", get(key).unwrap()))
        };
        let workloads: Vec<String> = list("workloads")?.into_iter().map(String::from).collect();
        for w in &workloads {
            if crate::scenario::catalog_workload(w).is_none() {
                return Err(format!("unknown workload `{w}`"));
            }
        }
        let jitter = num("jitter")?;
        if jitter > u32::MAX.into() {
            return Err(format!("jitter {jitter} is above {} cycles per probe", u32::MAX));
        }
        let alpha_bits = u64::from_str_radix(get("alpha")?, 16)
            .map_err(|_| format!("bad alpha bits `{}`", get("alpha").unwrap()))?;
        let grid = SweepGrid {
            attacks: cases("attacks")?,
            workloads,
            leakages: cases("leakages")?,
            leakage_secrets: num("secrets")? as u32,
            leakage_trials: num("trials")? as u32,
            leakage_jitter: jitter,
            leakage_permutations: num("permutations")? as u32,
            leakage_bootstrap: num("bootstrap")? as u32,
            leakage_alpha: f64::from_bits(alpha_bits),
            defenses: list("defenses")?
                .into_iter()
                .map(|t| DefensePoint::from_spec(t).ok_or_else(|| format!("unknown defense `{t}`")))
                .collect::<Result<_, _>>()?,
            basics: list("basics")?
                .into_iter()
                .map(|t| {
                    crate::scenario::basic_from_tag(t)
                        .ok_or_else(|| format!("unknown basic prefetcher `{t}`"))
                })
                .collect::<Result<_, _>>()?,
            hierarchies: list("hierarchies")?
                .into_iter()
                .map(|t| Hierarchy::from_tag(t).ok_or_else(|| format!("unknown hierarchy `{t}`")))
                .collect::<Result<_, _>>()?,
            seeds: num("seeds")? as u32,
        };
        Ok(grid)
    }

    /// Enumerates the flat, stably-ordered work-list.
    pub fn enumerate(&self) -> Vec<Scenario> {
        let payloads: Vec<Payload> = self
            .attacks
            .iter()
            .map(|&a| Payload::Attack(a))
            .chain(self.workloads.iter().map(|w| Payload::Workload(w.clone())))
            .chain(self.leakages.iter().map(|&case| Payload::Leakage {
                case,
                n_secrets: self.leakage_secrets.max(1),
                trials: self.leakage_trials.max(1),
                jitter: self.leakage_jitter,
            }))
            .collect();
        let mut out = Vec::with_capacity(self.len());
        for payload in &payloads {
            for &defense in &self.defenses {
                for &basic in &self.basics {
                    for &hierarchy in &self.hierarchies {
                        for seed_slot in 0..self.seeds.max(1) {
                            out.push(Scenario {
                                index: out.len(),
                                payload: payload.clone(),
                                defense,
                                basic,
                                hierarchy,
                                seed_slot,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_panel_count() {
        assert_eq!(AttackCase::figure8_panels().len(), 12);
        assert_eq!(AttackCase::all().len(), 24);
    }

    #[test]
    fn tags_are_stable() {
        let c =
            AttackCase { kind: AttackKind::FlushReload, noise: NoiseSpec::C3, cross_core: true };
        assert_eq!(c.tag(), "fr+c3x");
        assert_eq!(DefensePoint::new(DefenseConfig::Full).tag(), "full32");
        assert_eq!(DefensePoint::new(DefenseConfig::None).tag(), "base");
        assert_eq!(Hierarchy::BigL2.tag(), "bigl2");
    }

    #[test]
    fn hierarchy_variants_validate() {
        for h in Hierarchy::ALL {
            for cores in [1, 2] {
                let cfg = h.config(cores);
                assert!(cfg.validate().is_ok(), "{h} invalid at {cores} cores");
                assert_eq!(cfg.line_size(), 64, "{h} must keep 64-byte lines");
                assert_eq!(cfg.page_size, 4096, "{h} must keep 4 KB pages");
            }
        }
    }

    #[test]
    fn enumeration_matches_len_and_indexes_sequentially() {
        let mut g = SweepGrid::security_full();
        g.seeds = 3;
        g.hierarchies = vec![Hierarchy::Paper, Hierarchy::Fifo];
        let scenarios = g.enumerate();
        assert_eq!(scenarios.len(), g.len());
        assert_eq!(scenarios.len(), 12 * 6 * 2 * 3);
        for (k, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, k);
        }
    }

    #[test]
    fn leakage_axis_enumerates_and_counts_sims() {
        let mut g = SweepGrid::leakage_quick();
        assert_eq!(g.len(), 2);
        g.leakage_secrets = 8;
        g.leakage_trials = 4;
        assert_eq!(g.sims(), 2 * 8 * 4);
        let scenarios = g.enumerate();
        assert!(scenarios
            .iter()
            .all(|s| matches!(s.payload, Payload::Leakage { n_secrets: 8, trials: 4, .. })));
        // Mixed grids put leakage payloads after attacks and workloads.
        let mut g = SweepGrid::security_quick();
        g.leakages = vec![AttackCase {
            kind: AttackKind::PrimeProbe,
            noise: NoiseSpec::NONE,
            cross_core: false,
        }];
        let ids: Vec<String> = g.enumerate().iter().map(|s| s.id()).collect();
        // Two defenses × (one attack sim + one 8×4 campaign).
        assert_eq!(g.sims(), 2 * (1 + 8 * 4));
        assert!(ids[0].starts_with("atk:") && ids[2].starts_with("leak:pp:8x4/"), "{ids:?}");
    }

    #[test]
    fn attack_tags_round_trip() {
        for case in AttackCase::all() {
            assert_eq!(AttackCase::from_tag(&case.tag()), Some(case), "tag {}", case.tag());
        }
        for bad in ["", "xx", "fr+c5", "frpp", "x", "fr+"] {
            assert_eq!(AttackCase::from_tag(bad), None, "`{bad}` must not parse");
        }
    }

    #[test]
    fn defense_specs_round_trip_and_keep_buffers() {
        for config in DefenseConfig::ALL {
            for buffers in [1, 8, 32, 64] {
                let p = DefensePoint { config, buffers };
                assert_eq!(DefensePoint::from_spec(&p.spec()), Some(p));
            }
        }
        // The display tag is lossy for buffer-less configs; the spec
        // form must not be.
        let a = DefensePoint { config: DefenseConfig::None, buffers: 8 };
        let b = DefensePoint { config: DefenseConfig::None, buffers: 32 };
        assert_eq!(a.tag(), b.tag());
        assert_ne!(a.spec(), b.spec());
        assert_eq!(DefensePoint::from_spec("full"), None);
        assert_eq!(DefensePoint::from_spec("mega:32"), None);
        assert_eq!(DefensePoint::from_spec("full:x"), None);
    }

    #[test]
    fn grid_spec_round_trips_exactly() {
        let mut g = SweepGrid::security_full();
        g.workloads = vec!["429.mcf".into(), "401.bzip2".into()];
        g.leakages = AttackCase::all();
        g.leakage_secrets = 16;
        g.leakage_trials = 3;
        g.leakage_jitter = 2;
        g.leakage_permutations = 99;
        g.leakage_bootstrap = 50;
        g.leakage_alpha = 0.01;
        g.basics = Basic::ALL.to_vec();
        g.hierarchies = Hierarchy::ALL.to_vec();
        g.seeds = 5;
        let round = SweepGrid::from_spec(&g.to_spec()).expect("spec parses");
        assert_eq!(round, g);
        assert_eq!(round.to_spec(), g.to_spec());
        // Empty axes survive too.
        let empty = SweepGrid::empty();
        assert_eq!(SweepGrid::from_spec(&empty.to_spec()).unwrap(), empty);
    }

    #[test]
    fn grid_spec_rejects_corruption() {
        let spec = SweepGrid::security_quick().to_spec();
        for bad in [
            spec.replace("attacks=fr", "attacks=zz"),
            spec.replace("defenses=", "defenses=mega:1,"),
            spec.replace("seeds=", "seeds=x"),
            spec.replace("alpha=", "alpha=zz"),
            spec.replace("hierarchies=paper", "hierarchies=tower"),
            spec.replace("attacks=", "attacks=fr;attacks="),
            spec.replace("workloads=", "workloads=not-a-workload,"),
            spec.replace("basics=", ""),
            "garbage".to_string(),
        ] {
            assert!(SweepGrid::from_spec(&bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn grid_spec_caps_jitter_at_u32_max() {
        let mut g = SweepGrid::leakage_full();
        g.leakage_jitter = u32::MAX.into();
        assert_eq!(SweepGrid::from_spec(&g.to_spec()).expect("u32::MAX parses"), g);
        g.leakage_jitter += 1;
        let err = SweepGrid::from_spec(&g.to_spec()).unwrap_err();
        assert!(err.contains("jitter 4294967296"), "{err}");
    }

    #[test]
    fn leakage_full_covers_all_panels() {
        let g = SweepGrid::leakage_full();
        assert_eq!(g.len(), 12 * 6);
        assert_eq!(g.sims(), 12 * 6 * 8 * 4);
    }
}
