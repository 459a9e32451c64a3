//! The three campaign workloads: their grids, set-up, the timed campaign
//! call, the 1-thread reference and the correctness checks.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use prefender_obs::write_atomic;
use prefender_stats::geo_mean;
use prefender_sweep::{
    init_campaign, parallel_map, run_scenario_with, run_sweep, serve_campaign, AttackCase,
    AttackKind, Basic, DefenseConfig, DefensePoint, NoiseSpec, ResampleOptions, ServeOptions,
    ServeSummary, SweepGrid, SweepOptions, SweepReport,
};

/// Scenarios per shard on the sharded workload (576 shards at full size).
pub const SHARD_SIZE: usize = 4;
/// `sweep work` processes the sharded workload runs.
pub const SERVE_WORKERS: usize = 2;

/// Logical CPUs of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 144 leakage campaigns in-process at `nproc` threads.
    Leakage,
    /// 378 SPEC-substitute performance runs in-process at 1 thread.
    SpecPerf,
    /// The 2,304-scenario attack grid through `serve_campaign` with two
    /// `sweep work` processes and 4-scenario shards.
    ServeShards,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Leakage, Workload::SpecPerf, Workload::ServeShards];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Leakage => "leakage",
            Workload::SpecPerf => "spec-perf",
            Workload::ServeShards => "serve-shards",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads of the in-process campaign call.
    pub fn threads(self) -> usize {
        match self {
            Workload::Leakage => nproc(),
            Workload::SpecPerf | Workload::ServeShards => 1,
        }
    }

    /// The campaign grid. `small` is the reduced size the benchmark's
    /// own tests run: same axes and checks, a fraction of the scenarios.
    pub fn grid(self, small: bool) -> SweepGrid {
        let noises: &[NoiseSpec] = if small {
            &[NoiseSpec::NONE]
        } else {
            &[NoiseSpec::NONE, NoiseSpec::C3, NoiseSpec::C4, NoiseSpec::C3C4]
        };
        let all_defenses = DefensePoint::figure8_legend();
        match self {
            Workload::Leakage => SweepGrid {
                leakages: attack_cases(noises),
                defenses: all_defenses,
                leakage_secrets: 8,
                leakage_trials: if small { 2 } else { 8 },
                leakage_permutations: if small { 20 } else { 200 },
                leakage_bootstrap: if small { 10 } else { 100 },
                ..SweepGrid::empty()
            },
            Workload::SpecPerf => {
                let mut workloads: Vec<String> =
                    prefender_workloads::all().iter().map(|w| w.name().to_string()).collect();
                if small {
                    workloads.truncate(3);
                }
                SweepGrid {
                    workloads,
                    defenses: all_defenses,
                    basics: if small {
                        vec![Basic::None, Basic::Tagged]
                    } else {
                        vec![Basic::None, Basic::Tagged, Basic::Stride]
                    },
                    ..SweepGrid::empty()
                }
            }
            Workload::ServeShards => SweepGrid {
                attacks: attack_cases(noises),
                defenses: all_defenses,
                seeds: if small { 2 } else { 16 },
                ..SweepGrid::empty()
            },
        }
    }

    /// The sub-campaigns one timed sample runs, which together make the
    /// whole grid: one per SPEC substitute on `spec-perf` (0.1–0.3 s
    /// each, short enough for a calibration to bracket), the whole grid
    /// on the others.
    pub fn units(self, small: bool) -> Vec<SweepGrid> {
        let grid = self.grid(small);
        match self {
            Workload::SpecPerf => grid
                .workloads
                .iter()
                .map(|w| SweepGrid { workloads: vec![w.clone()], ..grid.clone() })
                .collect(),
            Workload::Leakage | Workload::ServeShards => vec![grid],
        }
    }

    /// Whether the samples are read against the host's speed (see
    /// `calib`): only `spec-perf`, whose time is one thread's CPU time.
    /// The others spread over both CPUs, whose speeds drift apart, and
    /// `serve-shards` spends most of its time waiting on sleeps and
    /// fsync, which no CPU kernel tracks.
    pub fn host_normalized(self) -> bool {
        self == Workload::SpecPerf
    }
}

/// Flush+Reload, Evict+Reload and Prime+Probe under each noise, single-
/// and cross-core, in the order the `sweep` command line builds them.
fn attack_cases(noises: &[NoiseSpec]) -> Vec<AttackCase> {
    let mut cases = Vec::new();
    for kind in [AttackKind::FlushReload, AttackKind::EvictReload, AttackKind::PrimeProbe] {
        for &noise in noises {
            for cross_core in [false, true] {
                cases.push(AttackCase { kind, noise, cross_core });
            }
        }
    }
    cases
}

/// The artifact files a report produces, by name, in write order.
pub fn artifact_files(report: &SweepReport) -> Vec<(&'static str, String)> {
    let mut files = vec![("sweep.json", report.to_json()), ("sweep.csv", report.to_csv())];
    if report.has_leakage() {
        files.push(("leakage.json", report.leakage_json()));
        files.push(("leakage.csv", report.leakage_csv()));
    }
    files
}

/// Writes `files` into `dir` through the program's atomic-rename path.
pub fn write_files(dir: &Path, files: &[(&'static str, String)]) -> Result<(), String> {
    for (name, body) in files {
        let path = dir.join(name);
        write_atomic(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// A grid built by [`Campaign::setup`], ready for the campaign call.
pub struct Prepared {
    pub grid: SweepGrid,
}

/// One workload at one campaign seed.
pub struct Campaign {
    pub workload: Workload,
    pub small: bool,
    pub seed: u64,
    /// The `sweep` executable the sharded workload spawns workers from.
    pub sweep_bin: PathBuf,
}

impl Campaign {
    pub fn options(&self, threads: usize) -> SweepOptions {
        SweepOptions { threads, campaign_seed: self.seed }
    }

    /// Set-up, everything before the campaign call: grid construction,
    /// a fresh writable output directory and, for the sharded workload,
    /// `init_campaign`.
    pub fn setup(&self, dir: &Path) -> Result<Prepared, String> {
        self.setup_grid(self.workload.grid(self.small), dir)
    }

    /// [`Campaign::setup`] of `grid`, one of the workload's units.
    pub fn setup_grid(&self, grid: SweepGrid, dir: &Path) -> Result<Prepared, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let probe = dir.join(".writable");
        fs::write(&probe, b"probe")
            .map_err(|e| format!("{} is not writable: {e}", dir.display()))?;
        let _ = fs::remove_file(&probe);
        if self.workload == Workload::ServeShards {
            init_campaign(dir, &grid, &self.options(0), SHARD_SIZE).map_err(|e| e.to_string())?;
        }
        Ok(Prepared { grid })
    }

    /// The timed region: the campaign call until the last artifact is
    /// renamed into place. Returns the `serve` summary of the sharded
    /// workload.
    pub fn run(&self, prepared: &Prepared, dir: &Path) -> Result<Option<ServeSummary>, String> {
        let (report, serve) = match self.workload {
            Workload::Leakage | Workload::SpecPerf => {
                (run_sweep(&prepared.grid, &self.options(self.workload.threads())), None)
            }
            Workload::ServeShards => {
                let mut opts = ServeOptions::new(&self.sweep_bin, SERVE_WORKERS);
                opts.quiet = true;
                let (report, _, summary) =
                    serve_campaign(dir, &opts).map_err(|e| format!("serve: {e}"))?;
                (report, Some(summary))
            }
        };
        write_files(dir, &artifact_files(&report))?;
        Ok(serve)
    }

    /// The reference artifacts: the 1-thread in-process `run_sweep` of
    /// the same grid, written to `dir`. Also returns its wall time (the
    /// untraced baseline of the in-process traced rebuilds).
    pub fn reference(&self, dir: &Path) -> Result<(Reference, Duration), String> {
        self.reference_of(&self.workload.grid(self.small), dir)
    }

    /// [`Campaign::reference`] of `grid`, one of the workload's units.
    pub fn reference_of(
        &self,
        grid: &SweepGrid,
        dir: &Path,
    ) -> Result<(Reference, Duration), String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let report = run_sweep(grid, &self.options(1));
        let files = artifact_files(&report);
        write_files(dir, &files)?;
        let wall = t0.elapsed();
        Ok((Reference { report, files }, wall))
    }

    /// The modelled design's two headline numbers, `(ipc_gain,
    /// leak_bits_full)`. Each comes from `reference` when it is the
    /// workload that produces it; otherwise from the smallest run that
    /// reproduces it exactly: the base/full32 sub-grid of the workload
    /// runs (which do not depend on their seed), and the full-PREFENDER
    /// campaigns of the leakage grid at their own indices (so the same
    /// derived seeds).
    pub fn model(&self, reference: &SweepReport) -> Result<(f64, f64), String> {
        let ipc = match self.workload {
            Workload::SpecPerf => ipc_gain(reference),
            _ => {
                let mut grid = Workload::SpecPerf.grid(self.small);
                grid.defenses = vec![
                    DefensePoint::new(DefenseConfig::None),
                    DefensePoint::new(DefenseConfig::Full),
                ];
                grid.basics = vec![Basic::None];
                ipc_gain(&run_sweep(&grid, &self.options(1)))
            }
        }
        .ok_or("no base/full32 workload pairs to take an IPC gain over")?;
        let leak = match self.workload {
            Workload::Leakage => leak_bits_full(reference),
            _ => {
                let full: Vec<_> = Workload::Leakage
                    .grid(self.small)
                    .enumerate()
                    .into_iter()
                    .filter(|s| s.defense.config == DefenseConfig::Full)
                    .collect();
                // The resampling columns do not feed `mi_bits`.
                let none = ResampleOptions::default();
                let results = parallel_map(&full, 1, |s| run_scenario_with(s, self.seed, &none));
                Some(results.iter().filter_map(|r| r.mi_bits).sum())
            }
        }
        .ok_or("no full-PREFENDER leakage campaigns")?;
        Ok((ipc, leak))
    }
}

/// The reference a campaign's artifacts must equal byte for byte.
pub struct Reference {
    pub report: SweepReport,
    pub files: Vec<(&'static str, String)>,
}

impl Reference {
    /// Compares the artifacts in `dir` with the reference: 0 when every
    /// file is byte-identical, otherwise the most differing lines of any
    /// one file (at least 1, at most one per scenario) — each scenario is
    /// one line of every artifact.
    pub fn mismatches(&self, dir: &Path) -> u64 {
        let mut bad = 0;
        for (name, want) in &self.files {
            let got = fs::read_to_string(dir.join(name)).unwrap_or_default();
            if got != *want {
                let differing = want.lines().zip(got.lines()).filter(|(a, b)| a != b).count()
                    + want.lines().count().abs_diff(got.lines().count());
                bad = bad.max(differing.max(1));
            }
        }
        bad.min(self.report.results.len()) as u64
    }
}

/// Geometric mean over workloads of IPC(full32)/IPC(base), basic
/// prefetcher `none`.
pub fn ipc_gain(report: &SweepReport) -> Option<f64> {
    let ratios: Vec<f64> = report
        .with_prefix("wl:")
        .filter(|r| r.id.contains("/base/none/"))
        .filter_map(|base| {
            let full = report.by_id(&base.id.replace("/base/", "/full32/"))?;
            (base.ipc > 0.0).then(|| full.ipc / base.ipc)
        })
        .collect();
    geo_mean(&ratios)
}

/// Summed `mi_bits` of the full-PREFENDER leakage campaigns.
pub fn leak_bits_full(report: &SweepReport) -> Option<f64> {
    let full: Vec<f64> = report
        .with_prefix("leak:")
        .filter(|r| r.id.contains("/full32/"))
        .filter_map(|r| r.mi_bits)
        .collect();
    (!full.is_empty()).then(|| full.iter().sum())
}

/// The model invariants every run must hold; one message per violation.
/// Undefended Flush+Reload carries the whole secret (`log2 secrets`
/// bits) and full PREFENDER seals Flush+Reload and Evict+Reload, both as
/// channels (leakage campaigns) and as verdicts (attack scenarios); no
/// run hits the instruction cap.
pub fn invariants(report: &SweepReport, grid: &SweepGrid) -> Vec<String> {
    let mut bad = Vec::new();
    let secret_bits = f64::from(grid.leakage_secrets).log2();
    for r in &report.results {
        if r.truncated {
            bad.push(format!("{}: hit the instruction cap", r.id));
        }
        let (kind, defense) = match r.id.split('/').collect::<Vec<_>>().as_slice() {
            [payload, defense, ..] => (payload.split(':').nth(1).unwrap_or(""), *defense),
            _ => continue,
        };
        let sealed_kind = kind.starts_with("fr") || kind.starts_with("er");
        if let Some(bits) = r.mi_bits {
            if kind.starts_with("fr") && defense == "base" && (bits - secret_bits).abs() > 1e-9 {
                bad.push(format!("{}: undefended FR carries {bits} bits, not {secret_bits}", r.id));
            }
            if sealed_kind && defense == "full32" && bits != 0.0 {
                bad.push(format!("{}: full PREFENDER leaks {bits} bits", r.id));
            }
        }
        if let Some(leaked) = r.leaked {
            if sealed_kind && defense == "base" && !leaked {
                bad.push(format!("{}: undefended attack did not leak", r.id));
            }
            if sealed_kind && defense == "full32" && leaked {
                bad.push(format!("{}: full PREFENDER leaked", r.id));
            }
        }
    }
    bad
}

/// Retried or failed lease/worker operations of a `serve_campaign`:
/// stale-lease breaks, reclaimed shards, quarantined shards and worker
/// restarts. All are 0 on a healthy host.
pub fn serve_faults(summary: &ServeSummary) -> u64 {
    let c = &summary.counters;
    c.lease_breaks + c.lease_reclaims + c.shard_quarantines + summary.restarts as u64
}

/// Simulated instructions retired by every scenario of a report.
pub fn instructions(report: &SweepReport) -> u64 {
    report.results.iter().map(|r| r.instructions).sum()
}
