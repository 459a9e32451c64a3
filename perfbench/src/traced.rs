//! The traced run: each workload rebuilt from the crates' public calls,
//! with every call into a layer timed from here. No span inside the
//! program is armed. The rebuilt campaigns must still produce the
//! reference artifacts byte for byte.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use prefender_attacks::{machine_obs, AttackOutcome, AttackSpec, MachineKey, RunMetrics, Runner};
use prefender_cpu::Machine;
use prefender_leakage::{LeakageCampaign, LeakageResult};
use prefender_obs::{write_atomic, ObsCounters};
use prefender_sweep::{
    claim_shard, decode_shard, encode_shard, init_campaign, perf::prefender_stats, shard_file_name,
    AttackCase, Claim, LeaseConfig, Payload, Scenario, ScenarioResult, ShardHeader, SweepReport,
    SHARD_DIR,
};

use crate::campaign::{artifact_files, Campaign, SHARD_SIZE};
use crate::stats::{quantile, ratio};

/// Per-call timings of one traced rebuild, grouped into phases.
pub struct Layers {
    rows: Vec<(&'static str, Vec<Duration>)>,
    phases: Vec<(&'static str, Duration, Duration)>,
    phase: &'static str,
    phase_start: Instant,
    phase_attributed: Duration,
    started: Instant,
}

impl Layers {
    pub fn new() -> Self {
        let now = Instant::now();
        Layers {
            rows: Vec::new(),
            phases: Vec::new(),
            phase: "setup",
            phase_start: now,
            phase_attributed: Duration::ZERO,
            started: now,
        }
    }

    /// Runs `f` as one call into layer `name`. Calls never nest, so the
    /// rows partition the attributed time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        match self.rows.iter_mut().find(|(n, _)| *n == name) {
            Some((_, samples)) => samples.push(took),
            None => self.rows.push((name, vec![took])),
        }
        self.phase_attributed += took;
        out
    }

    /// Closes the current phase and opens `name`.
    pub fn phase(&mut self, name: &'static str) {
        let now = Instant::now();
        self.phases.push((self.phase, now - self.phase_start, self.phase_attributed));
        self.phase = name;
        self.phase_start = now;
        self.phase_attributed = Duration::ZERO;
    }

    pub fn finish(mut self) -> Trace {
        self.phase("end");
        Trace { rows: self.rows, phases: self.phases, wall: self.started.elapsed() }
    }
}

/// A finished traced rebuild.
pub struct Trace {
    rows: Vec<(&'static str, Vec<Duration>)>,
    /// `(phase, wall, attributed)`.
    phases: Vec<(&'static str, Duration, Duration)>,
    pub wall: Duration,
}

impl Trace {
    fn samples(&self, name: &str) -> &[Duration] {
        self.rows.iter().find(|(n, _)| *n == name).map_or(&[], |(_, s)| s)
    }

    pub fn total(&self, name: &str) -> Duration {
        self.samples(name).iter().sum()
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.samples(name).len() as u64
    }

    pub fn mean_us(&self, name: &str) -> f64 {
        ratio(self.total(name).as_secs_f64() * 1e6, self.calls(name) as f64)
    }

    pub fn quantile_us(&self, name: &str, q: f64) -> f64 {
        let us: Vec<f64> = self.samples(name).iter().map(|d| d.as_secs_f64() * 1e6).collect();
        quantile(&us, q)
    }

    pub fn phase_wall(&self, name: &str) -> Duration {
        self.phases.iter().filter(|p| p.0 == name).map(|p| p.1).sum()
    }

    /// Layer self time over traced wall.
    pub fn attributed_frac(&self) -> f64 {
        let attributed: Duration = self.rows.iter().flat_map(|(_, s)| s).sum();
        ratio(attributed.as_secs_f64(), self.wall.as_secs_f64())
    }

    /// The phase with the most wall time outside any timed call, and
    /// that time.
    pub fn largest_gap(&self) -> (&'static str, Duration) {
        self.phases
            .iter()
            .map(|&(name, wall, attributed)| (name, wall.saturating_sub(attributed)))
            .max_by_key(|&(_, gap)| gap)
            .unwrap_or(("none", Duration::ZERO))
    }

    /// Every row as `(name, calls, total)`, largest first.
    pub fn rows(&self) -> Vec<(&'static str, u64, Duration)> {
        let mut rows: Vec<_> = self
            .rows
            .iter()
            .map(|(n, s)| (*n, s.len() as u64, s.iter().sum::<Duration>()))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.2));
        rows
    }
}

/// Deterministic tallies a traced rebuild counts on the way.
#[derive(Debug, Default)]
pub struct Tallies {
    pub scenarios: u64,
    pub instructions: u64,
    pub fast_nops: u64,
    pub runner_resets: u64,
    pub runner_rebuilds: u64,
    pub artifact_bytes: u64,
}

/// The attack spec of an attack or leakage scenario, as the sweep engine
/// builds it.
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

/// A result row with the scenario identity and machine metrics filled
/// and every payload-specific column empty.
fn base_result(s: &Scenario, seed: u64, m: &RunMetrics) -> ScenarioResult {
    ScenarioResult {
        index: s.index,
        id: s.id(),
        seed,
        leaked: None,
        anomalies: None,
        latency_hist: Vec::new(),
        truncated: false,
        cycles: m.cycles,
        instructions: m.instructions,
        ipc: m.ipc(),
        demand_accesses: m.l1d.demand_accesses,
        demand_misses: m.l1d.demand_misses,
        demand_miss_latency: m.l1d.demand_miss_latency,
        prefetch_issued: m.prefetch_issued,
        prefetch_fills: m.l1d.prefetch_fills,
        prefetch_useful: m.l1d.prefetch_useful + m.l1d.prefetch_late,
        prefetch_accuracy: m.l1d.prefetch_accuracy(),
        st_prefetches: m.prefender.st_prefetches,
        at_prefetches: m.prefender.at_prefetches,
        rp_prefetches: m.prefender.rp_prefetches,
        mi_bits: None,
        mi_corrected: None,
        capacity_bits: None,
        ml_accuracy: None,
        guessing_entropy: None,
        secrets: None,
        trials: None,
        mi_p_value: None,
        mi_null_q95: None,
        mi_ci_lo: None,
        mi_ci_hi: None,
    }
}

fn attack_result(
    s: &Scenario,
    seed: u64,
    outcome: &AttackOutcome,
    m: &RunMetrics,
) -> ScenarioResult {
    let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
    for p in &outcome.samples {
        *hist.entry(p.latency).or_insert(0) += 1;
    }
    ScenarioResult {
        leaked: Some(outcome.leaked),
        anomalies: Some(outcome.anomalies.len() as u64),
        latency_hist: hist.into_iter().collect(),
        ..base_result(s, seed, m)
    }
}

fn leakage_result(
    s: &Scenario,
    seed: u64,
    campaign: &LeakageCampaign,
    r: &LeakageResult,
) -> ScenarioResult {
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
        ..base_result(s, seed, &r.metrics)
    }
}

/// The explicit runner cache of a rebuild: builds a new [`Runner`] (a
/// timed `runner.build` call) whenever the machine-shaping key changes.
struct RunnerCache {
    runner: Option<Runner>,
}

impl RunnerCache {
    fn get(
        &mut self,
        t: &mut Layers,
        tallies: &mut Tallies,
        spec: &AttackSpec,
    ) -> Result<&mut Runner, String> {
        if self.runner.as_ref().is_none_or(|r| *r.key() != MachineKey::of(spec)) {
            self.drain(tallies);
            let built = t.time("runner.build", || Runner::new(spec)).map_err(|e| e.to_string())?;
            self.runner = Some(built);
        }
        Ok(self.runner.as_mut().expect("built above"))
    }

    fn drain(&mut self, tallies: &mut Tallies) {
        if let Some(r) = self.runner.as_mut() {
            let (resets, rebuilds) = r.take_reuse_counts();
            tallies.runner_resets += resets;
            tallies.runner_rebuilds += rebuilds;
        }
    }
}

/// Config-major dispatch order, as the sweep engine schedules.
fn config_major(scenarios: &[Scenario]) -> Vec<&Scenario> {
    let mut order: Vec<&Scenario> = scenarios.iter().collect();
    order.sort_by_key(|s| s.machine_key());
    order
}

/// Encodes and atomically writes the final artifacts.
fn write_artifacts(
    t: &mut Layers,
    tallies: &mut Tallies,
    dir: &Path,
    report: &SweepReport,
) -> Result<(), String> {
    t.phase("artifacts");
    let files = t.time("artifact.encode", || artifact_files(report));
    for (name, body) in &files {
        tallies.artifact_bytes += body.len() as u64;
        let path = dir.join(name);
        t.time("fsio.write_atomic", || write_atomic(&path, body))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// The leakage workload on one thread: per campaign, a runner from the
/// explicit cache, the trial sweep (`run_counts_with_runner`), the
/// channel estimate, the resampling analyses and the result row.
pub fn leakage(c: &Campaign, dir: &Path) -> Result<(Trace, Tallies), String> {
    let mut t = Layers::new();
    let mut tallies = Tallies::default();
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let grid = t.time("sweep.grid", || c.workload.grid(c.small));
    let scenarios = t.time("sweep.grid", || grid.enumerate());
    let resample = grid.resample();
    let order = t.time("engine.schedule", || config_major(&scenarios));
    t.phase("execute");
    let mut cache = RunnerCache { runner: None };
    let mut results = Vec::with_capacity(order.len());
    for s in order {
        let Payload::Leakage { case, n_secrets, trials, jitter } = &s.payload else {
            return Err(format!("{}: not a leakage campaign", s.id()));
        };
        let seed = s.derived_seed(c.seed);
        let campaign = t.time("leakage.plan", || {
            let base = attack_spec(s, case, seed).with_latency_jitter(*jitter);
            LeakageCampaign::new(base, (*n_secrets).max(1) as usize, (*trials).max(1))
        });
        let runner = cache.get(&mut t, &mut tallies, &campaign.base)?;
        let trials = campaign.trials.max(1);
        let (channel, totals, hist) = t
            .time("leakage.simulate", || campaign.run_counts_with_runner(seed, runner, 0..trials))
            .map_err(|e| format!("{}: {e}", s.id()))?;
        let mut r = t.time("leakage.derive", || LeakageResult::from_parts(channel, totals, hist));
        t.time("leakage.resample", || r.apply_resampling(&resample, seed));
        results.push(t.time("sweep.assemble", || leakage_result(s, seed, &campaign, &r)));
    }
    cache.drain(&mut tallies);
    t.phase("merge");
    t.time("sweep.merge", || results.sort_by_key(|r| r.index));
    tallies.scenarios = results.len() as u64;
    tallies.instructions = results.iter().map(|r| r.instructions).sum();
    let report = SweepReport { campaign_seed: c.seed, results };
    write_artifacts(&mut t, &mut tallies, dir, &report)?;
    Ok((t.finish(), tallies))
}

/// The SPEC-substitute workload: per scenario, the catalog lookup, the
/// machine build (`Machine::new` + `set_prefetcher` + data + program
/// load), program assembly, the execute loop and the result row.
pub fn spec_perf(c: &Campaign, dir: &Path) -> Result<(Trace, Tallies), String> {
    let mut t = Layers::new();
    let mut tallies = Tallies::default();
    fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let grid = t.time("sweep.grid", || c.workload.grid(c.small));
    let scenarios = t.time("sweep.grid", || grid.enumerate());
    let order = t.time("engine.schedule", || config_major(&scenarios));
    t.phase("execute");
    let mut results = Vec::with_capacity(order.len());
    for s in order {
        let Payload::Workload(name) = &s.payload else {
            return Err(format!("{}: not a workload run", s.id()));
        };
        let seed = s.derived_seed(c.seed);
        let w = t
            .time("workloads.catalog", || {
                prefender_workloads::all().into_iter().find(|w| w.name() == name)
            })
            .ok_or_else(|| format!("unknown workload `{name}`"))?;
        let mut m = t.time("cpu.build", || {
            let mut m = Machine::new(s.hierarchy.config(1));
            if let Some(p) = s.defense.config.build_prefetcher(64, 4096, s.defense.buffers, s.basic)
            {
                m.set_prefetcher(0, p);
            }
            for (a, v) in w.data() {
                m.write_data(a, v);
            }
            m
        });
        let program = t.time("workloads.program", || w.program());
        t.time("cpu.build", || m.load_program(0, program));
        let summary = t.time("cpu.run", || m.run());
        tallies.fast_nops += m.retire_fast_path().1;
        let result = t.time("sweep.assemble", || {
            let l1d = *m.mem().l1d(0).stats();
            let prefender = prefender_stats(&m, 0).unwrap_or_default();
            let metrics = RunMetrics {
                cycles: summary.cycles,
                instructions: summary.instructions,
                l1d,
                prefetch_issued: m.prefetcher(0).map_or(0, |p| p.issued()),
                prefender,
            };
            let mut r = base_result(s, seed, &metrics);
            r.truncated = summary.truncated;
            r.ipc = summary.ipc();
            // The engine harvests every run's counters too.
            black_box(machine_obs(&m));
            r
        });
        results.push(result);
    }
    t.phase("merge");
    t.time("sweep.merge", || results.sort_by_key(|r| r.index));
    tallies.scenarios = results.len() as u64;
    tallies.instructions = results.iter().map(|r| r.instructions).sum();
    let report = SweepReport { campaign_seed: c.seed, results };
    write_artifacts(&mut t, &mut tallies, dir, &report)?;
    Ok((t.finish(), tallies))
}

/// Timings only the sharded rebuild has.
#[derive(Debug, Default)]
pub struct ShardTimes {
    /// Claim to commit (the shard file renamed into place), per shard.
    pub shard: Vec<Duration>,
}

/// The sharded workload as one in-process worker: `init_campaign`, then
/// per shard claim → heartbeat → scenarios → `encode_shard` →
/// `write_atomic` → `Heartbeat::stop` → release, then the merge
/// (read + `decode_shard` of every shard) and the final artifacts.
pub fn serve_shards(c: &Campaign, dir: &Path) -> Result<(Trace, Tallies, ShardTimes), String> {
    let mut t = Layers::new();
    let mut tallies = Tallies::default();
    let mut times = ShardTimes::default();
    let grid = t.time("sweep.grid", || c.workload.grid(c.small));
    t.time("fsio.mkdir", || fs::create_dir_all(dir)).map_err(|e| e.to_string())?;
    let manifest = t
        .time("checkpoint.init", || init_campaign(dir, &grid, &c.options(0), SHARD_SIZE))
        .map_err(|e| e.to_string())?;
    let scenarios = t.time("sweep.grid", || grid.enumerate());
    let fingerprint = t.time("checkpoint.init", || manifest.fingerprint());
    let plan = manifest.plan();
    let lease_cfg = LeaseConfig::default();
    let shard_dir = dir.join(SHARD_DIR);
    let mut counters = ObsCounters::new();
    t.phase("shards");
    let mut cache = RunnerCache { runner: None };
    for shard in 0..plan.n_shards() {
        let range = plan.range(shard);
        let header = ShardHeader {
            shard,
            start: range.start,
            end: range.end,
            campaign_seed: c.seed,
            fingerprint,
        };
        let path = shard_dir.join(shard_file_name(shard));
        let began = Instant::now();
        // The worker loop looks for a committed shard before claiming
        // and again under the lease.
        t.time("checkpoint.probe", || fs::read_to_string(&path).is_ok());
        let claim = t
            .time("lease.claim", || {
                claim_shard(dir, shard, fingerprint, &lease_cfg, &mut counters, &mut |_| {})
            })
            .map_err(|e| e.to_string())?;
        let Claim::Claimed { lease, .. } = claim else {
            return Err(format!("shard {shard}: lease held by another process"));
        };
        t.time("checkpoint.probe", || fs::read_to_string(&path).is_ok());
        let hb = t.time("lease.hb_start", || lease.heartbeat(&lease_cfg));
        let order = t.time("engine.schedule", || config_major(&scenarios[range.clone()]));
        let mut out = Vec::with_capacity(order.len());
        for s in order {
            let Payload::Attack(case) = &s.payload else {
                return Err(format!("{}: not an attack scenario", s.id()));
            };
            let seed = s.derived_seed(c.seed);
            let spec = t.time("runner.spec", || attack_spec(s, case, seed));
            let runner = cache.get(&mut t, &mut tallies, &spec)?;
            let (outcome, metrics) =
                t.time("runner.run", || runner.run_full(&spec)).map_err(|e| e.to_string())?;
            out.push(t.time("sweep.assemble", || attack_result(s, seed, &outcome, &metrics)));
        }
        t.time("engine.schedule", || out.sort_by_key(|r| r.index));
        let text = t.time("shard.encode", || encode_shard(&header, &out));
        t.time("fsio.write_atomic", || write_atomic(&path, &text))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        times.shard.push(began.elapsed());
        t.time("lease.hb_stop", || hb.stop());
        t.time("lease.release", || lease.release());
    }
    cache.drain(&mut tallies);
    t.phase("merge");
    let mut results = Vec::with_capacity(scenarios.len());
    for shard in 0..plan.n_shards() {
        let range = plan.range(shard);
        let header = ShardHeader {
            shard,
            start: range.start,
            end: range.end,
            campaign_seed: c.seed,
            fingerprint,
        };
        let path = shard_dir.join(shard_file_name(shard));
        let text =
            t.time("checkpoint.read", || fs::read_to_string(&path)).map_err(|e| e.to_string())?;
        results.extend(t.time("shard.decode", || decode_shard(&text, &header))?);
    }
    tallies.scenarios = results.len() as u64;
    tallies.instructions = results.iter().map(|r| r.instructions).sum();
    let report = SweepReport { campaign_seed: c.seed, results };
    write_artifacts(&mut t, &mut tallies, dir, &report)?;
    Ok((t.finish(), tallies, times))
}
