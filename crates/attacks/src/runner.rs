//! The attack runner: builds the machine, runs the phases, analyses.

use std::error::Error;
use std::fmt;

use prefender_core::{BasicPrefetcher, Prefender, PrefenderStats};
use prefender_cpu::Machine;
use prefender_isa::ProgramBuilder;
use prefender_obs::{take_thread_trace, trace_armed, ObsCounters, TraceBuf};
use prefender_prefetch::{StridePrefetcher, TaggedPrefetcher};
use prefender_sim::{Addr, CacheStats, ConfigError, HierarchyConfig};
use prefender_stats::Xoshiro256;

use crate::analysis::{classify, AttackOutcome, ProbeSample};
use crate::layout::AttackLayout;
use crate::programs::{
    emit_evict, emit_flush, emit_pp_loop, emit_reload_probe, emit_victim, pp_geometry,
    prime_probe_probe_program, prime_probe_program, reload_probe_program, victim_program,
};

/// Which attack to run (paper Section II-A / Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackKind {
    /// Flush the eviction set with `clflush`, reload and time.
    FlushReload,
    /// Evict the set via L2 conflicts, reload and time.
    EvictReload,
    /// Prime the sets with attacker lines, probe for the miss.
    PrimeProbe,
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackKind::FlushReload => "Flush+Reload",
            AttackKind::EvictReload => "Evict+Reload",
            AttackKind::PrimeProbe => "Prime+Probe",
        };
        f.write_str(s)
    }
}

/// The conventional (basic) prefetcher of a configuration — either alone
/// or under PREFENDER (paper Tables IV–VI columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Basic {
    /// No basic prefetcher.
    #[default]
    None,
    /// Tagged next-line prefetcher (paper reference \[15\]).
    Tagged,
    /// Baer–Chen stride prefetcher (paper reference \[16\]).
    Stride,
}

impl Basic {
    /// All variants, in table-column order.
    pub const ALL: [Basic; 3] = [Basic::None, Basic::Tagged, Basic::Stride];

    /// Builds the basic prefetcher instance, or `None`.
    pub fn build(self) -> Option<BasicPrefetcher> {
        match self {
            Basic::None => None,
            Basic::Tagged => Some(BasicPrefetcher::Tagged(TaggedPrefetcher::new(64, 1))),
            Basic::Stride => Some(BasicPrefetcher::Stride(StridePrefetcher::default_config())),
        }
    }
}

impl fmt::Display for Basic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Basic::None => f.write_str("-"),
            Basic::Tagged => f.write_str("Tagged"),
            Basic::Stride => f.write_str("Stride"),
        }
    }
}

/// Which noise challenges are active (paper challenges C3 / C4; C1 and
/// C2 are inherent to every run — single victim access, random probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoiseSpec {
    /// C3: noisy instructions (distinct-PC loads thrash the access buffers).
    pub c3: bool,
    /// C4: noisy accesses (the probe load touches non-eviction lines).
    pub c4: bool,
}

impl NoiseSpec {
    /// No noise: challenges C1+C2 only.
    pub const NONE: NoiseSpec = NoiseSpec { c3: false, c4: false };
    /// C3 only.
    pub const C3: NoiseSpec = NoiseSpec { c3: true, c4: false };
    /// C4 only.
    pub const C4: NoiseSpec = NoiseSpec { c3: false, c4: true };
    /// C3 + C4.
    pub const C3C4: NoiseSpec = NoiseSpec { c3: true, c4: true };
}

/// Which PREFENDER units defend (the paper's Figure 8 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefenseConfig {
    /// No prefetcher at all (the "Base" curves).
    None,
    /// Scale Tracker only.
    St,
    /// Access Tracker only.
    At,
    /// Scale Tracker + Access Tracker (Table IV's configuration).
    StAt,
    /// Access Tracker + Record Protector.
    AtRp,
    /// All three units (the full PREFENDER, Table V's configuration).
    Full,
}

impl DefenseConfig {
    /// All configurations, in the paper's legend order.
    pub const ALL: [DefenseConfig; 6] = [
        DefenseConfig::None,
        DefenseConfig::St,
        DefenseConfig::At,
        DefenseConfig::StAt,
        DefenseConfig::AtRp,
        DefenseConfig::Full,
    ];

    /// The complete per-core prefetcher for a (defense, basic) point:
    /// PREFENDER's units over `basic` (the paper's "PREFENDER over
    /// Tagged/Stride" columns), `basic` alone — every unit off — for
    /// [`DefenseConfig::None`], or nothing at all when both are off. This
    /// is the one factory the attack runner, the sweep engine and the
    /// performance tables all build cores from.
    pub fn build_prefetcher(
        self,
        line_size: u64,
        page_size: u64,
        buffers: usize,
        basic: Basic,
    ) -> Option<Prefender> {
        let mut b = Prefender::builder(line_size, page_size);
        if let Some(p) = basic.build() {
            b = b.basic(p);
        }
        let b = match self {
            DefenseConfig::None if basic == Basic::None => return None,
            DefenseConfig::None => {
                b.scale_tracker(false).access_tracker(false).record_protector(false)
            }
            DefenseConfig::St => b.access_tracker(false).record_protector(false),
            DefenseConfig::At => {
                b.scale_tracker(false).record_protector(false).access_buffers(buffers)
            }
            DefenseConfig::StAt => b.record_protector(false).access_buffers(buffers),
            // The paper's "AT+RP": the Record Protector is *defined* as
            // linking ST and AT, so the Scale Tracker keeps tracking and
            // feeding the scale buffer but issues no prefetches itself.
            DefenseConfig::AtRp => b.scale_tracker_prefetching(false).access_buffers(buffers),
            DefenseConfig::Full => b.access_buffers(buffers),
        };
        Some(b.build())
    }
}

impl fmt::Display for DefenseConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DefenseConfig::None => "Base",
            DefenseConfig::St => "Prefender-ST",
            DefenseConfig::At => "Prefender-AT",
            DefenseConfig::StAt => "Prefender-ST+AT",
            DefenseConfig::AtRp => "Prefender-AT+RP",
            DefenseConfig::Full => "Prefender",
        };
        f.write_str(s)
    }
}

/// Errors from attack runs.
#[derive(Debug)]
#[non_exhaustive]
pub enum AttackError {
    /// The hierarchy configuration was invalid.
    Config(ConfigError),
    /// A run hit the machine's instruction cap before completing.
    Truncated,
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::Config(e) => write!(f, "hierarchy configuration: {e}"),
            AttackError::Truncated => write!(f, "attack run hit the instruction cap"),
        }
    }
}

impl Error for AttackError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AttackError::Config(e) => Some(e),
            AttackError::Truncated => None,
        }
    }
}

impl From<ConfigError> for AttackError {
    fn from(e: ConfigError) -> Self {
        AttackError::Config(e)
    }
}

/// A full attack experiment specification.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// Which attack.
    pub kind: AttackKind,
    /// Which PREFENDER units defend.
    pub defense: DefenseConfig,
    /// Active noise challenges.
    pub noise: NoiseSpec,
    /// Attacker and victim on different cores (paper Figure 4).
    pub cross_core: bool,
    /// Memory layout and probe window.
    pub layout: AttackLayout,
    /// Access-buffer count for the defense.
    pub buffers: usize,
    /// Probe order shuffle seed (reload-style attacks).
    pub seed: u64,
    /// Basic prefetcher on every core (alone, or under the defense).
    pub basic: Basic,
    /// Cache-hierarchy override; `None` uses the paper baseline. The
    /// core count is always forced to match `cross_core`.
    pub hierarchy: Option<HierarchyConfig>,
    /// Measurement-noise amplitude: every probe latency the attacker
    /// records is perturbed by a deterministic per-trial jitter drawn
    /// uniformly from `0..=latency_jitter` cycles (seeded from `seed`).
    /// `0` models a perfectly clean timer, the paper's setting. Must be
    /// below `u64::MAX`; `sweep` caps it at `u32::MAX`.
    pub latency_jitter: u64,
}

impl AttackSpec {
    /// A single-core, noise-free (C1+C2) spec at paper defaults.
    pub fn new(kind: AttackKind, defense: DefenseConfig) -> Self {
        AttackSpec {
            kind,
            defense,
            noise: NoiseSpec::NONE,
            cross_core: false,
            layout: AttackLayout::paper(),
            buffers: 32,
            seed: 0xC0FFEE,
            basic: Basic::None,
            hierarchy: None,
            latency_jitter: 0,
        }
    }

    /// Sets the noise challenges.
    #[must_use]
    pub fn with_noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = noise;
        self
    }

    /// Moves the victim to a second core.
    #[must_use]
    pub fn cross_core(mut self, yes: bool) -> Self {
        self.cross_core = yes;
        self
    }

    /// Changes the probe-order seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a basic prefetcher to every core.
    #[must_use]
    pub fn with_basic(mut self, basic: Basic) -> Self {
        self.basic = basic;
        self
    }

    /// Overrides the cache hierarchy (core count is still derived from
    /// `cross_core`).
    #[must_use]
    pub fn with_hierarchy(mut self, hierarchy: HierarchyConfig) -> Self {
        self.hierarchy = Some(hierarchy);
        self
    }

    /// Injects a different secret into the victim (a probe-window array
    /// index; the paper's Figure 8 uses 65). The leakage lab sweeps this
    /// to treat the scenario as a secret → observation channel.
    #[must_use]
    pub fn with_secret(mut self, secret: usize) -> Self {
        self.layout.secret = secret;
        self
    }

    /// Sets the attacker's measurement-noise amplitude (see
    /// [`AttackSpec::latency_jitter`]).
    #[must_use]
    pub fn with_latency_jitter(mut self, jitter: u64) -> Self {
        self.latency_jitter = jitter;
        self
    }
}

/// Machine-level metrics of one attack run, for sweep aggregation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Wall-clock cycles over all phases.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// L1D statistics summed over all cores.
    pub l1d: CacheStats,
    /// Prefetches issued by every per-core prefetcher, summed.
    pub prefetch_issued: u64,
    /// PREFENDER per-unit counts summed over all cores (zero for
    /// non-PREFENDER configurations).
    pub prefender: PrefenderStats,
}

impl RunMetrics {
    /// The metrics of everything `m` has run since it was built or reset.
    pub fn of(m: &Machine) -> Self {
        let mut l1d = CacheStats::new();
        let mut issued = 0u64;
        let mut prefender = PrefenderStats::new();
        for c in 0..m.n_cores() {
            l1d += *m.mem().l1d(c).stats();
            if let Some(p) = m.prefetcher(c) {
                issued += p.issued();
                prefender += p.stats();
            }
        }
        RunMetrics {
            cycles: m.now().raw(),
            instructions: (0..m.n_cores()).map(|c| m.core(c).retired()).sum(),
            l1d,
            prefetch_issued: issued,
            prefender,
        }
    }

    /// Instructions per cycle across the whole machine.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// One point of the Figure 9 timeline: cumulative prefetch counts by unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Simulated time of the sample (cycles).
    pub at: u64,
    /// Cumulative Scale Tracker prefetches.
    pub st: u64,
    /// Cumulative Access Tracker (DiffMin) prefetches.
    pub at_count: u64,
    /// Cumulative RP-guided prefetches.
    pub rp: u64,
    /// Currently protected access buffers (Figure 12's quantity).
    pub protected: u64,
}

/// PREFENDER's per-unit stats of a machine core, when it has a prefetcher
/// (zeros for a basic prefetcher alone).
pub fn prefender_stats(m: &Machine, core: usize) -> Option<PrefenderStats> {
    m.prefetcher(core).map(Prefender::stats)
}

/// Harvests a machine's observability counters into one [`ObsCounters`]
/// block: demand/eviction and prefetch-outcome stats summed over the L1Ds
/// and the L2, per-core prefetcher issue counts, hierarchy prefetch drops,
/// the MSHR high-water mark, the retire fast-path tallies, and — for
/// cores with an Access Tracker — the Access Tracker / Record Protector
/// lifecycle counters. Everything read here is a pure function of the
/// executed scenario, so the harvest is deterministic and thread-invariant.
pub fn machine_obs(m: &Machine) -> ObsCounters {
    let mem = m.mem();
    let mut stats = mem.total_l1d_stats();
    stats += *mem.l2().stats();
    let mut c = ObsCounters::new();
    c.cache_demand_hits = stats.demand_hits;
    c.cache_demand_misses = stats.demand_misses;
    c.cache_evictions = stats.evictions;
    c.prefetch_late = stats.prefetch_late;
    // "Expired": prefetched lines evicted or invalidated without use.
    c.prefetch_expired = stats.prefetch_unused;
    c.prefetch_dropped = mem.prefetches_dropped();
    c.mshr_high_water = mem.mshrs().high_water() as u64;
    let (dispatches, nops) = m.retire_fast_path();
    c.retire_fast_dispatches = dispatches;
    c.retire_fast_nops = nops;
    for core in 0..m.n_cores() {
        let Some(p) = m.prefetcher(core) else { continue };
        c.prefetch_issued += p.issued();
        let Some(at) = p.access_tracker() else { continue };
        let (allocs, evictions) = at.alloc_counts();
        let (incremental, rescans) = at.diffmin_update_counts();
        let (granted, expired) = at.protection_event_counts();
        c.at_buffer_allocs += allocs;
        c.at_buffer_evictions += evictions;
        c.diffmin_incremental += incremental;
        c.diffmin_rescans += rescans;
        c.rp_protections_granted += granted;
        c.rp_protections_expired += expired;
    }
    c
}

fn total_stats(m: &Machine) -> (PrefenderStats, u64) {
    let mut s = PrefenderStats::new();
    let mut protected = 0u64;
    for p in (0..m.n_cores()).filter_map(|c| m.prefetcher(c)) {
        s += p.stats();
        protected += p.protected_count() as u64;
    }
    (s, protected)
}

/// Runs one attack experiment.
///
/// One-shot convenience over [`Runner`]: builds a machine, runs, drops
/// it. Campaign-style callers running many trials against one
/// configuration should hold a [`Runner`] instead and reuse the machine.
///
/// # Errors
///
/// Returns [`AttackError::Config`] if the paper baseline hierarchy fails
/// to validate (it cannot for in-range core counts) and
/// [`AttackError::Truncated`] if a phase hits the instruction cap.
pub fn run_attack(spec: &AttackSpec) -> Result<AttackOutcome, AttackError> {
    Runner::new(spec)?.run(spec)
}

/// Runs one attack experiment and also returns machine-level metrics
/// (cycles, IPC, L1D stats, prefetch counts) — the sweep engine's entry
/// point. One-shot wrapper over [`Runner`]; see [`run_attack`].
///
/// # Errors
///
/// See [`run_attack`].
pub fn run_attack_full(spec: &AttackSpec) -> Result<(AttackOutcome, RunMetrics), AttackError> {
    Runner::new(spec)?.run_full(spec)
}

/// Runs one attack experiment, sampling prefetch counters every
/// `bucket_cycles` (the Figure 9 harness).
///
/// # Errors
///
/// See [`run_attack`].
pub fn run_attack_with_timeline(
    spec: &AttackSpec,
    bucket_cycles: u64,
) -> Result<(AttackOutcome, Vec<TimelinePoint>), AttackError> {
    let mut runner = Runner::new(spec)?;
    let (outcome, timeline, _) = runner.run_inner(spec, Some(bucket_cycles))?;
    Ok((outcome, timeline))
}

/// The machine-shaping axes of an [`AttackSpec`]: two specs with equal
/// keys run on identically constructed machines, so a [`Runner`] can
/// serve both with an in-place reset instead of a rebuild.
///
/// Campaign schedulers group work by this key so consecutive items on a
/// worker hit the runner's cheap reset path — the sweep engine's
/// config-major dispatch sorts its work-list by exactly these axes.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineKey {
    /// Attacker and victim on different cores (fixes the core count).
    pub cross_core: bool,
    /// Which PREFENDER units defend.
    pub defense: DefenseConfig,
    /// Basic prefetcher on every core.
    pub basic: Basic,
    /// Access-buffer count for the defense.
    pub buffers: usize,
    /// Cache-hierarchy override, when the spec carries one.
    pub hierarchy: Option<HierarchyConfig>,
}

impl MachineKey {
    /// The machine-shaping axes of `spec`.
    pub fn of(spec: &AttackSpec) -> Self {
        MachineKey {
            cross_core: spec.cross_core,
            defense: spec.defense,
            basic: spec.basic,
            buffers: spec.buffers,
            hierarchy: spec.hierarchy.clone(),
        }
    }
}

/// A reusable attack executor: owns one [`Machine`] (and its prefetcher
/// stack) per machine-shaping configuration and runs specs against it
/// through an in-place [`Machine::reset`] instead of reconstructing the
/// whole hierarchy — every cache's set arrays, the MSHR file, the trace
/// — for each trial.
///
/// Reuse is bit-exact: a reset machine replays any spec identically to a
/// freshly built one (pinned by `tests/runner_reuse.rs`), so campaign
/// artifacts do not change — trials just stop paying the construction
/// and teardown cost. Specs whose machine-shaping axes (`cross_core`,
/// `defense`, `basic`, `buffers`, `hierarchy`) differ from the current
/// machine's transparently trigger a rebuild, so a single `Runner` can
/// be long-lived and fed arbitrary specs.
///
/// # Examples
///
/// ```no_run
/// use prefender_attacks::{AttackKind, AttackSpec, DefenseConfig, Runner};
///
/// let base = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full);
/// let mut runner = Runner::new(&base).unwrap();
/// for trial in 0..100u64 {
///     let outcome = runner.run(&base.clone().with_seed(trial)).unwrap();
///     assert!(!outcome.leaked);
/// }
/// ```
#[derive(Debug)]
pub struct Runner {
    machine: Machine,
    key: MachineKey,
    /// Counters harvested from the machine at the end of every run,
    /// accumulated until [`Runner::take_obs`] drains them.
    obs: ObsCounters,
    /// Flight-recorder events drained from the thread buffer at the end
    /// of each run (empty unless tracing is armed), accumulated until
    /// [`Runner::take_trace`] drains them.
    trace: TraceBuf,
    /// Probe-instruction PCs of the most recent run — the uniform way to
    /// identify the attacker's measurement accesses in a trace.
    last_probe_pcs: Vec<u64>,
    /// Runs served by the cheap in-place reset path.
    resets: u64,
    /// Machine constructions (the initial build counts as one).
    rebuilds: u64,
}

impl Runner {
    /// Builds the machine for `spec`'s configuration (the spec's secret
    /// and seed do not matter — only its machine-shaping axes do).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Config`] when the hierarchy override fails
    /// to validate.
    pub fn new(spec: &AttackSpec) -> Result<Self, AttackError> {
        let key = MachineKey::of(spec);
        let machine = build_machine(&key)?;
        Ok(Runner {
            machine,
            key,
            obs: ObsCounters::new(),
            trace: TraceBuf::default(),
            last_probe_pcs: Vec::new(),
            resets: 0,
            rebuilds: 1,
        })
    }

    /// The machine-shaping key the owned machine was built for. Specs
    /// matching this key run through an in-place reset; any other spec
    /// transparently rebuilds the machine (and updates the key).
    pub fn key(&self) -> &MachineKey {
        &self.key
    }

    /// Runs one attack experiment on the owned machine.
    ///
    /// # Errors
    ///
    /// See [`run_attack`].
    pub fn run(&mut self, spec: &AttackSpec) -> Result<AttackOutcome, AttackError> {
        let (outcome, _, _) = self.run_inner(spec, None)?;
        Ok(outcome)
    }

    /// Runs one attack experiment and also returns machine-level metrics.
    ///
    /// # Errors
    ///
    /// See [`run_attack`].
    pub fn run_full(
        &mut self,
        spec: &AttackSpec,
    ) -> Result<(AttackOutcome, RunMetrics), AttackError> {
        let (outcome, _, metrics) = self.run_inner(spec, None)?;
        Ok((outcome, metrics))
    }

    /// Resets (or, on a configuration change, rebuilds) the machine so it
    /// is cold and shaped for `spec`.
    fn prepare(&mut self, spec: &AttackSpec) -> Result<(), AttackError> {
        let key = MachineKey::of(spec);
        if key == self.key {
            self.resets += 1;
            self.machine.reset();
        } else {
            self.rebuilds += 1;
            self.machine = build_machine(&key)?;
            self.key = key;
        }
        Ok(())
    }

    /// Drains (returns and zeroes) the counters accumulated over every
    /// run since construction or the previous drain. The machine's own
    /// counters are folded in at the end of each run — and zeroed by the
    /// next run's reset — so nothing is double-counted.
    pub fn take_obs(&mut self) -> ObsCounters {
        self.obs.take()
    }

    /// Drains the `(resets, rebuilds)` reuse tallies: how many runs were
    /// served by the in-place reset path vs. a full machine construction
    /// (the initial build counts as the first rebuild). Scheduling-
    /// dependent under work stealing, so obs reports place these in the
    /// `timing` section, not the deterministic `counters` section.
    pub fn take_reuse_counts(&mut self) -> (u64, u64) {
        (std::mem::take(&mut self.resets), std::mem::take(&mut self.rebuilds))
    }

    /// Drains the flight-recorder events captured across every run since
    /// construction or the previous drain. Empty unless tracing was armed
    /// (see [`prefender_obs::arm_trace`]) while runs executed.
    pub fn take_trace(&mut self) -> TraceBuf {
        std::mem::take(&mut self.trace)
    }

    /// Probe-instruction PCs of the most recent run: the PCs of the
    /// attacker's timed measurement loads, matching the trace's
    /// `access` events by their `pc` field.
    pub fn probe_pcs(&self) -> &[u64] {
        &self.last_probe_pcs
    }

    fn run_inner(
        &mut self,
        spec: &AttackSpec,
        bucket: Option<u64>,
    ) -> Result<(AttackOutcome, Vec<TimelinePoint>, RunMetrics), AttackError> {
        self.prepare(spec)?;
        let m = &mut self.machine;
        let l = &spec.layout;
        m.write_data(l.secret_addr, l.secret as u64);

        // Reload-style attacks probe through a shuffled pointer table.
        let reload_targets = build_reload_targets(spec);
        for (k, t) in reload_targets.iter().enumerate() {
            m.write_data(l.order_table + 8 * k as u64, t.raw());
        }

        let mut timeline = Vec::new();
        let probe_pcs = if spec.cross_core {
            run_cross_core(spec, m, reload_targets.len(), bucket, &mut timeline)?
        } else {
            run_single_core(spec, m, reload_targets.len(), bucket, &mut timeline)?
        };

        if trace_armed() {
            // The whole run executed on this thread: drain its flight
            // recorder so the events accumulate per-runner (and per-run
            // for callers draining between runs), never bleeding across
            // worker threads.
            self.trace.merge(take_thread_trace());
        }
        self.last_probe_pcs = probe_pcs.clone();

        let mut samples = collect_samples(spec, m, &probe_pcs);
        apply_latency_jitter(spec, &mut samples);
        // Reload-style attacks leak through the single hit (L2-or-better
        // vs. memory). Prime+Probe leaks through the single miss: at
        // L1-vs-L2 granularity single-core, at L2-vs-memory granularity
        // cross-core.
        let (threshold, anomaly_is_hit) = match spec.kind {
            AttackKind::FlushReload | AttackKind::EvictReload => (l.hit_threshold, true),
            AttackKind::PrimeProbe if spec.cross_core => (l.hit_threshold, false),
            AttackKind::PrimeProbe => (l.l1_hit_threshold, false),
        };
        let metrics = RunMetrics::of(m);
        self.obs.merge(&machine_obs(m));
        Ok((classify(samples, threshold, anomaly_is_hit, l.secret), timeline, metrics))
    }
}

/// Builds the machine a [`RunnerKey`] describes: resolved hierarchy, CPU
/// config, trace enabled, one prefetcher per core.
fn build_machine(key: &MachineKey) -> Result<Machine, AttackError> {
    let n_cores = if key.cross_core { 2 } else { 1 };
    let hierarchy = match &key.hierarchy {
        Some(h) => {
            let mut h = h.clone();
            h.n_cores = n_cores;
            h.validate()?;
            h
        }
        None => HierarchyConfig::paper_baseline(n_cores)?,
    };
    let line = hierarchy.line_size();
    let page = hierarchy.page_size;
    // Instruction fetch is not modelled for attack runs: a code line
    // whose first touch happens mid-probe would perturb primed sets in a
    // way the paper's warmed-up gem5 checkpoints never see.
    let cpu = prefender_cpu::CpuConfig { model_fetch: false, ..Default::default() };
    let mut m = Machine::with_cpu_config(hierarchy, cpu);
    m.trace_mut().set_enabled(true);
    for core in 0..n_cores {
        if let Some(p) = key.defense.build_prefetcher(line, page, key.buffers, key.basic) {
            m.set_prefetcher(core, p);
        }
    }
    Ok(m)
}

/// The probe-order pointer table: all eviction lines shuffled
/// deterministically (challenge C2). With C4, the attacker front-loads
/// its noise lines (corrupting DiffMin before the Access Tracker can make
/// a single on-pattern prediction) and re-touches them every few probes
/// so the corrupting entries stay most-recently-used.
fn build_reload_targets(spec: &AttackSpec) -> Vec<Addr> {
    let l = &spec.layout;
    let mut evictions: Vec<Addr> = l.indices().map(|i| l.index_addr(i)).collect();
    Xoshiro256::new(spec.seed).shuffle(&mut evictions);
    if !spec.noise.c4 {
        return evictions;
    }
    let mut targets: Vec<Addr> = (0..l.n_c4_lines).map(|k| l.c4_noise_addr(k)).collect();
    let mut cursor = l.n_c4_lines;
    for (j, e) in evictions.into_iter().enumerate() {
        targets.push(e);
        if j % 2 == 1 {
            targets.push(l.c4_noise_addr(cursor));
            cursor += 1;
        }
    }
    targets
}

fn run_phase(
    m: &mut Machine,
    bucket: Option<u64>,
    timeline: &mut Vec<TimelinePoint>,
) -> Result<(), AttackError> {
    match bucket {
        None => {
            if m.run().truncated {
                return Err(AttackError::Truncated);
            }
        }
        Some(bucket) => {
            let mut next = m.now().raw() + bucket;
            while m.step() {
                if m.now().raw() >= next {
                    let (s, protected) = total_stats(m);
                    timeline.push(TimelinePoint {
                        at: m.now().raw(),
                        st: s.st_prefetches,
                        at_count: s.at_prefetches,
                        rp: s.rp_prefetches,
                        protected,
                    });
                    next += bucket;
                }
            }
            let (s, protected) = total_stats(m);
            timeline.push(TimelinePoint {
                at: m.now().raw(),
                st: s.st_prefetches,
                at_count: s.at_prefetches,
                rp: s.rp_prefetches,
                protected,
            });
        }
    }
    Ok(())
}

/// The single-core program the runner composes for `spec`: the attacker's
/// prepare phase, the victim gadget (Spectre-gadget style, same core) and
/// the measurement phase, concatenated. Returns the program and its probe
/// instruction indices. Exposed so static analyses can audit exactly what
/// the runner executes; cross-core runs instead use the standalone
/// programs ([`flush_program`](crate::flush_program) and friends) per
/// core.
pub fn composed_attack_program(spec: &AttackSpec) -> (prefender_isa::Program, Vec<usize>) {
    compose_single_core(spec, build_reload_targets(spec).len())
}

fn compose_single_core(
    spec: &AttackSpec,
    n_reload_probes: usize,
) -> (prefender_isa::Program, Vec<usize>) {
    let l = &spec.layout;
    let mut b = ProgramBuilder::new();
    b.name("attack");
    // Phase 1.
    match spec.kind {
        AttackKind::FlushReload => emit_flush(&mut b, l),
        AttackKind::EvictReload => emit_evict(&mut b, l),
        AttackKind::PrimeProbe => {
            let (ways, stride, mask) = pp_geometry(false);
            emit_pp_loop(&mut b, l, ways, stride, mask, false, false);
        }
    }
    // Phase 2: the victim runs on the same core (Spectre-gadget style).
    emit_victim(&mut b, l);
    // Phase 3.
    let probe_idxs = match spec.kind {
        AttackKind::FlushReload | AttackKind::EvictReload => {
            vec![emit_reload_probe(&mut b, l, n_reload_probes, spec.noise.c3)]
        }
        AttackKind::PrimeProbe => {
            let (ways, stride, mask) = pp_geometry(false);
            emit_pp_loop(&mut b, l, ways, stride, mask, spec.noise.c3, spec.noise.c4)
        }
    };
    b.halt();
    let program = b.build().expect("attack programs are statically correct");
    (program, probe_idxs)
}

fn run_single_core(
    spec: &AttackSpec,
    m: &mut Machine,
    n_reload_probes: usize,
    bucket: Option<u64>,
    timeline: &mut Vec<TimelinePoint>,
) -> Result<Vec<u64>, AttackError> {
    let (program, probe_idxs) = compose_single_core(spec, n_reload_probes);
    let probe_pcs: Vec<u64> = probe_idxs.iter().map(|&i| program.pc_of(i)).collect();
    m.load_program(0, program);
    run_phase(m, bucket, timeline)?;
    Ok(probe_pcs)
}

fn run_cross_core(
    spec: &AttackSpec,
    m: &mut Machine,
    n_reload_probes: usize,
    bucket: Option<u64>,
    timeline: &mut Vec<TimelinePoint>,
) -> Result<Vec<u64>, AttackError> {
    let l = &spec.layout;
    // Phase 1: attacker prepares on core 0.
    let phase1 = match spec.kind {
        AttackKind::FlushReload => crate::programs::flush_program(l),
        AttackKind::EvictReload => crate::programs::evict_program(l),
        AttackKind::PrimeProbe => prime_probe_program(l, true),
    };
    m.load_program(0, phase1);
    run_phase(m, bucket, timeline)?;

    // Phase 2: the victim runs on core 1.
    m.load_program_at(1, victim_program(l), m.now());
    run_phase(m, bucket, timeline)?;

    // Phase 3: attacker measures from core 0.
    let probe = match spec.kind {
        AttackKind::FlushReload | AttackKind::EvictReload => {
            reload_probe_program(l, n_reload_probes, spec.noise.c3)
        }
        AttackKind::PrimeProbe => prime_probe_probe_program(l, true, spec.noise.c3, spec.noise.c4),
    };
    m.load_program_at(0, probe.program.clone(), m.now());
    run_phase(m, bucket, timeline)?;
    Ok(probe.probe_pcs)
}

/// Perturbs the measured latencies with the spec's per-trial timer noise:
/// each sample gains a uniform draw from `0..=latency_jitter` cycles,
/// seeded from the probe seed so a trial's noise is reproducible.
fn apply_latency_jitter(spec: &AttackSpec, samples: &mut [ProbeSample]) {
    if spec.latency_jitter == 0 {
        return;
    }
    let mut rng = Xoshiro256::new(spec.seed ^ 0x6A77_6974_7465_7221);
    for s in samples {
        s.latency += rng.below(spec.latency_jitter + 1);
    }
}

fn collect_samples(spec: &AttackSpec, m: &Machine, probe_pcs: &[u64]) -> Vec<ProbeSample> {
    let l = &spec.layout;
    match spec.kind {
        AttackKind::FlushReload | AttackKind::EvictReload => {
            // One probe per eviction line; C4 noise probes are filtered out
            // by `addr_index` (they are off-pattern).
            m.trace()
                .by_pc(probe_pcs[0])
                .filter_map(|e| {
                    l.addr_index(e.addr).map(|index| ProbeSample { index, latency: e.latency })
                })
                .collect()
        }
        AttackKind::PrimeProbe => {
            // Map each probed prime line back to its index; per index keep
            // the worst (max) way latency. C4's +0x100 probes are filtered
            // out by the on-set check.
            let (_, way_stride, mask) = pp_geometry(spec.cross_core);
            let mut per_index: std::collections::BTreeMap<usize, u64> = Default::default();
            for pc in probe_pcs {
                for e in m.trace().by_pc(*pc) {
                    let off = e.addr.raw().wrapping_sub(l.prime_region);
                    let set_off = off % way_stride;
                    if set_off % l.probe_stride != 0 {
                        continue; // C4 off-set access
                    }
                    let slot = set_off / l.probe_stride;
                    let index = l
                        .indices()
                        .find(|i| (*i as u64 * l.probe_stride) & mask == slot * l.probe_stride);
                    if let Some(index) = index {
                        let worst = per_index.entry(index).or_insert(0);
                        *worst = (*worst).max(e.latency);
                    }
                }
            }
            per_index.into_iter().map(|(index, latency)| ProbeSample { index, latency }).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Full-system security tests (the paper's Figure 8) live in
    // `tests/figure8.rs`; here we test the spec plumbing.

    #[test]
    fn defense_configs_build_expected_units() {
        let build = |d: DefenseConfig, buffers, basic| d.build_prefetcher(64, 4096, buffers, basic);
        let p = build(DefenseConfig::Full, 32, Basic::None).unwrap();
        assert!(p.scale_tracker().is_some() && p.access_tracker().is_some());
        assert!(p.record_protector().is_some() && p.basic().is_none());
        let p = build(DefenseConfig::St, 32, Basic::None).unwrap();
        assert!(p.scale_tracker().is_some() && p.access_tracker().is_none());
        // AT+RP keeps the ST for scale recording (RP links ST and AT),
        // only its prefetching is off.
        let p = build(DefenseConfig::AtRp, 16, Basic::None).unwrap();
        assert!(p.scale_tracker().is_some());
        assert!(p.record_protector().is_some());
        assert_eq!(p.access_tracker().unwrap().config().n_buffers, 16);
        assert!(build(DefenseConfig::None, 32, Basic::None).is_none());
        // A basic prefetcher alone: every PREFENDER unit off.
        let p = build(DefenseConfig::None, 32, Basic::Stride).unwrap();
        assert!(p.scale_tracker().is_none() && p.access_tracker().is_none());
        assert!(p.record_protector().is_none());
        assert!(matches!(p.basic(), Some(BasicPrefetcher::Stride(_))));
    }

    #[test]
    fn reload_targets_cover_window_and_shuffle_deterministically() {
        let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
        let a = build_reload_targets(&spec);
        let b = build_reload_targets(&spec);
        assert_eq!(a, b, "same seed, same order");
        assert_eq!(a.len(), spec.layout.n_indices);
        let c = build_reload_targets(&spec.clone().with_seed(7));
        assert_ne!(a, c, "different seed shuffles differently");
        let mut sorted = a.clone();
        sorted.sort();
        let expected: Vec<Addr> =
            spec.layout.indices().map(|i| spec.layout.index_addr(i)).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn c4_adds_front_loaded_noise() {
        let spec =
            AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None).with_noise(NoiseSpec::C4);
        let l = &spec.layout;
        let t = build_reload_targets(&spec);
        assert_eq!(t.len(), l.n_c4_lines + l.n_indices + l.n_indices / 2);
        // The first accesses are all noise (DiffMin corrupts immediately).
        for (k, addr) in t.iter().take(l.n_c4_lines).enumerate() {
            assert_eq!(*addr, l.c4_noise_addr(k));
        }
        // Every eviction line still appears exactly once.
        let mut ev: Vec<u64> =
            t.iter().filter(|a| l.addr_index(**a).is_some()).map(|a| a.raw()).collect();
        ev.sort_unstable();
        let expected: Vec<u64> = l.indices().map(|i| l.index_addr(i).raw()).collect();
        assert_eq!(ev, expected);
    }

    #[test]
    fn secret_injection_moves_the_leak() {
        for secret in [50, 80, 110] {
            let spec =
                AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None).with_secret(secret);
            let o = run_attack(&spec).unwrap();
            assert!(o.leaked, "undefended FR must leak secret {secret}");
            assert_eq!(o.anomalies, vec![secret]);
        }
    }

    #[test]
    fn latency_jitter_is_deterministic_and_bounded() {
        let base = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
        let clean = run_attack(&base).unwrap();
        let noisy = run_attack(&base.clone().with_latency_jitter(5)).unwrap();
        assert_eq!(noisy, run_attack(&base.clone().with_latency_jitter(5)).unwrap());
        assert_ne!(clean.samples, noisy.samples, "jitter must perturb some latency");
        for (c, n) in clean.samples.iter().zip(&noisy.samples) {
            assert_eq!(c.index, n.index);
            assert!((c.latency..=c.latency + 5).contains(&n.latency));
        }
    }

    #[test]
    fn runner_accumulates_obs_and_reuse_counts() {
        let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full);
        let mut runner = Runner::new(&spec).unwrap();
        runner.run(&spec).unwrap();
        runner.run(&spec.clone().with_seed(7)).unwrap();
        let (resets, rebuilds) = runner.take_reuse_counts();
        assert_eq!((resets, rebuilds), (2, 1), "two same-key runs, one construction");
        assert_eq!(runner.take_reuse_counts(), (0, 0), "drain zeroes the tallies");

        let two = runner.take_obs();
        assert!(two.cache_demand_hits > 0 && two.cache_demand_misses > 0);
        assert!(two.at_buffer_allocs > 0, "the Full defense tracks loads");
        assert_eq!(runner.take_obs(), ObsCounters::new(), "drain zeroes the counters");

        // The accumulated two-run total equals the sum of per-run drains.
        runner.run(&spec).unwrap();
        let mut sum = runner.take_obs();
        runner.run(&spec.clone().with_seed(7)).unwrap();
        sum.merge(&runner.take_obs());
        assert_eq!(sum, two, "per-run harvests sum to the accumulated total");

        // A key change takes the rebuild path.
        runner.run(&spec.clone().cross_core(true)).unwrap();
        assert_eq!(runner.take_reuse_counts(), (2, 1));
    }

    #[test]
    fn display_names() {
        assert_eq!(AttackKind::FlushReload.to_string(), "Flush+Reload");
        assert_eq!(DefenseConfig::Full.to_string(), "Prefender");
        assert_eq!(DefenseConfig::StAt.to_string(), "Prefender-ST+AT");
    }
}
