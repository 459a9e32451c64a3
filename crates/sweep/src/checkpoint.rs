//! Checkpointed campaigns: the crash-safe execution loop over a shard
//! plan, and the manifest that makes a campaign directory self-describing.
//!
//! ## Layout of a campaign directory
//!
//! ```text
//! <dir>/campaign.manifest      identity: grid spec, seed, shard size
//! <dir>/shards/shard-*.psd     one checksummed artifact per shard
//! <dir>/quarantine/            shards that failed validation on resume
//! <dir>/sweep.json, sweep.csv  final artifacts, plus leakage.json and
//!                              leakage.csv when present (written by the CLI)
//! ```
//!
//! [`run_sharded`] writes the manifest first (atomically), then runs
//! shards **in shard order**, committing each through the
//! write-tmp → fsync → rename protocol — so at any kill point the
//! directory holds the manifest plus a prefix-closed set of complete,
//! checksummed shards. [`resume_sharded`] reloads the manifest,
//! validates every shard file against it (complete → loaded and
//! skipped; truncated/corrupt/foreign → moved to `quarantine/` and
//! re-run), executes what is missing, and merges everything in scenario
//! index order.
//!
//! ## Why resume-equality is exact
//!
//! Three properties compose: (1) each scenario's seed derives from
//! `(campaign_seed, index, seed_slot)` alone, so a re-run of any range
//! reproduces the original results bit for bit; (2) a shard record is
//! the result's `sweep.csv` row with every float written as its exact
//! bits, so a *loaded* result equals the *computed* one; (3) the final
//! artifacts are pure functions of the results in index order, written
//! from the same column table as the shard records. An interrupted-and-resumed campaign
//! therefore emits byte-identical `sweep.json`/`sweep.csv`/leakage
//! artifacts to an uninterrupted single-process run — the invariant the
//! crash-resume tests and the CI smoke step enforce with `cmp`.

use std::fmt;
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use prefender_obs::{
    atomic_tmp_pid, failpoint, is_atomic_tmp, pid_alive, write_atomic, ObsCounters,
};

use prefender_attacks::Runner;
use prefender_leakage::ResampleOptions;

use crate::artifact::SweepReport;
use crate::engine::{run_config_major, runner_slots, SweepOptions};
use crate::grid::SweepGrid;
use crate::record::{ScenarioResult, REPORT_SCHEMA_VERSION};
use crate::scenario::{run_on, Scenario};
use crate::shard::{decode_shard, encode_shard, fnv1a64, shard_file_name, ShardHeader, ShardPlan};

/// Manifest file name inside a campaign directory.
pub const MANIFEST_NAME: &str = "campaign.manifest";

/// Subdirectory holding committed shard artifacts.
pub const SHARD_DIR: &str = "shards";

/// Subdirectory where invalid shards are moved on resume.
pub const QUARANTINE_DIR: &str = "quarantine";

const MANIFEST_MAGIC: &str = "PREFENDER-CAMPAIGN v1";

/// What went wrong starting or resuming a campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O operation failed (includes injected failpoint errors).
    Io {
        /// The path being read/written.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The directory has no readable campaign manifest.
    NotACampaign(PathBuf),
    /// A fresh campaign was started into a directory that already holds
    /// one (resume it, or pick a new directory).
    AlreadyStarted(PathBuf),
    /// The manifest exists but is corrupt or incompatible.
    Manifest(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CampaignError::NotACampaign(dir) => write!(
                f,
                "{} is not a campaign directory (no {MANIFEST_NAME}); \
                 point --resume at a directory a sharded sweep wrote",
                dir.display()
            ),
            CampaignError::AlreadyStarted(dir) => write!(
                f,
                "{} already holds a campaign ({MANIFEST_NAME} exists); \
                 use --resume {} to continue it, or choose a fresh --out",
                dir.display(),
                dir.display()
            ),
            CampaignError::Manifest(msg) => write!(f, "bad campaign manifest: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

pub(crate) fn io_err(path: &Path) -> impl FnOnce(io::Error) -> CampaignError + '_ {
    move |source| CampaignError::Io { path: path.to_path_buf(), source }
}

/// The identity of a sharded campaign, persisted as
/// `campaign.manifest` before any shard runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// The campaign seed every scenario seed derives from.
    pub campaign_seed: u64,
    /// Maximum scenarios per shard.
    pub shard_size: usize,
    /// The full grid (reconstructed from its canonical spec on resume).
    pub grid: SweepGrid,
}

impl Manifest {
    /// The manifest's serialized form: line-oriented `key=value` with a
    /// trailing self-checksum, so a torn or hand-edited manifest is
    /// detected rather than trusted.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{MANIFEST_MAGIC}\nschema={REPORT_SCHEMA_VERSION}\nseed={}\nscenarios={}\n\
             shard_size={}\ngrid={}\n",
            self.campaign_seed,
            self.grid.len(),
            self.shard_size,
            self.grid.to_spec(),
        );
        out.push_str(&format!("check={:016x}\n", fnv1a64(out.as_bytes())));
        out
    }

    /// Parses and validates [`Manifest::encode`]'s form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first thing wrong: bad checksum,
    /// wrong magic, an incompatible schema version, an unparsable grid
    /// spec, or a scenario count that no longer matches the grid.
    pub fn decode(text: &str) -> Result<Manifest, String> {
        let body_len =
            text.rfind("\ncheck=").map(|p| p + 1).ok_or("no checksum line (truncated?)")?;
        let (body, check_line) = text.split_at(body_len);
        let declared = check_line
            .strip_prefix("check=")
            .and_then(|s| u64::from_str_radix(s.trim_end(), 16).ok())
            .ok_or("bad checksum line")?;
        let actual = fnv1a64(body.as_bytes());
        if actual != declared {
            return Err(format!("checksum mismatch ({actual:016x} != {declared:016x})"));
        }
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err("bad magic".into());
        }
        let mut field = |key: &str| -> Result<String, String> {
            lines
                .next()
                .and_then(|l| l.strip_prefix(key))
                .and_then(|l| l.strip_prefix('='))
                .map(String::from)
                .ok_or_else(|| format!("missing `{key}` line"))
        };
        let schema: u32 = field("schema")?.parse().map_err(|_| "bad schema".to_string())?;
        if schema != REPORT_SCHEMA_VERSION {
            return Err(format!(
                "written at schema v{schema}, this build runs v{REPORT_SCHEMA_VERSION} — \
                 finish the campaign with the original binary"
            ));
        }
        let campaign_seed = field("seed")?.parse().map_err(|_| "bad seed".to_string())?;
        let scenarios: usize =
            field("scenarios")?.parse().map_err(|_| "bad scenarios".to_string())?;
        let shard_size: usize =
            field("shard_size")?.parse().map_err(|_| "bad shard_size".to_string())?;
        if shard_size == 0 {
            return Err("shard_size must be at least 1".into());
        }
        let grid = SweepGrid::from_spec(&field("grid")?)?;
        if grid.len() != scenarios {
            return Err(format!(
                "grid enumerates {} scenarios, manifest recorded {scenarios}",
                grid.len()
            ));
        }
        Ok(Manifest { campaign_seed, shard_size, grid })
    }

    /// The campaign fingerprint every shard header must carry: the
    /// checksum of the manifest body (grid spec + seed + schema), i.e.
    /// the same value as the manifest's own `check` line.
    pub fn fingerprint(&self) -> u64 {
        let encoded = self.encode();
        let body_len = encoded.rfind("\ncheck=").expect("encode always appends a check line") + 1;
        fnv1a64(&encoded.as_bytes()[..body_len])
    }

    /// The deterministic shard plan this manifest implies.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.grid.len(), self.shard_size)
    }
}

/// What a (possibly resumed) sharded campaign did per shard — the
/// resume telemetry the CLI prints and CI greps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Shards in the plan.
    pub shards: usize,
    /// Shards whose existing file validated — loaded, not re-run.
    pub skipped: usize,
    /// Shards whose existing file failed validation — moved to
    /// `quarantine/` and re-run. `(shard index, why)` per incident.
    pub quarantined: Vec<(usize, String)>,
    /// Shards executed this invocation.
    pub executed: usize,
    /// The campaign-layer event counters of this invocation
    /// (`shard_quarantines` here; the lease fields stay zero on the
    /// single-process paths — `work_campaign` is where they move).
    pub counters: ObsCounters,
}

impl ResumeStats {
    /// One telemetry line, e.g.
    /// `9 shards: 2 skipped (complete), 1 quarantined, 7 executed`.
    pub fn render(&self) -> String {
        format!(
            "{} shards: {} skipped (complete), {} quarantined, {} executed",
            self.shards,
            self.skipped,
            self.quarantined.len(),
            self.executed
        )
    }
}

/// Starts a sharded campaign in `dir`: writes `campaign.manifest`, runs
/// every shard (committing each atomically under `shards/`), and
/// returns the merged report. The directory must not already hold a
/// campaign — resuming an interrupted one is [`resume_sharded`]'s job.
///
/// # Errors
///
/// [`CampaignError::AlreadyStarted`] if a manifest exists, or any I/O
/// failure creating/writing the directory.
pub fn run_sharded(
    dir: &Path,
    grid: &SweepGrid,
    opts: &SweepOptions,
    shard_size: usize,
) -> Result<(SweepReport, ResumeStats), CampaignError> {
    let manifest = init_campaign(dir, grid, opts, shard_size)?;
    execute(dir, &manifest, opts.threads, false)
}

/// Creates a campaign directory without running anything: writes the
/// manifest (atomically) and the `shards/` subdirectory, so worker
/// processes ([`crate::work_campaign`], `sweep work`) can start
/// claiming shards. The directory must not already hold a campaign.
///
/// # Errors
///
/// [`CampaignError::AlreadyStarted`] if a manifest exists, or any I/O
/// failure creating/writing the directory.
pub fn init_campaign(
    dir: &Path,
    grid: &SweepGrid,
    opts: &SweepOptions,
    shard_size: usize,
) -> Result<Manifest, CampaignError> {
    if shard_size == 0 {
        return Err(CampaignError::Manifest("shard size must be at least 1".into()));
    }
    let manifest_path = dir.join(MANIFEST_NAME);
    if manifest_path.exists() {
        return Err(CampaignError::AlreadyStarted(dir.to_path_buf()));
    }
    fs::create_dir_all(dir.join(SHARD_DIR)).map_err(io_err(dir))?;
    let manifest = Manifest { campaign_seed: opts.campaign_seed, shard_size, grid: grid.clone() };
    write_atomic(&manifest_path, manifest.encode()).map_err(io_err(&manifest_path))?;
    Ok(manifest)
}

/// Loads and validates the manifest of the campaign recorded in `dir`.
///
/// # Errors
///
/// [`CampaignError::NotACampaign`] when `dir` has no manifest,
/// [`CampaignError::Manifest`] when it has a corrupt/incompatible one.
pub fn load_manifest(dir: &Path) -> Result<Manifest, CampaignError> {
    let manifest_path = dir.join(MANIFEST_NAME);
    let text = match fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Err(CampaignError::NotACampaign(dir.to_path_buf()))
        }
        Err(e) => return Err(io_err(&manifest_path)(e)),
    };
    Manifest::decode(&text)
        .map_err(|e| CampaignError::Manifest(format!("{}: {e}", manifest_path.display())))
}

/// Resumes the campaign recorded in `dir`: validates existing shards
/// (complete → loaded, invalid → quarantined), runs whatever is missing
/// and returns the merged report plus the reloaded manifest — exactly
/// the bytes-producing state a fresh uninterrupted run reaches.
/// Idempotent: resuming a complete campaign re-runs nothing.
///
/// # Errors
///
/// [`CampaignError::NotACampaign`] when `dir` has no manifest,
/// [`CampaignError::Manifest`] when it has a corrupt/incompatible one.
pub fn resume_sharded(
    dir: &Path,
    threads: usize,
) -> Result<(SweepReport, Manifest, ResumeStats), CampaignError> {
    let manifest = load_manifest(dir)?;
    fs::create_dir_all(dir.join(SHARD_DIR)).map_err(io_err(dir))?;
    let (report, stats) = execute(dir, &manifest, threads, true)?;
    Ok((report, manifest, stats))
}

/// The shared execution loop: walk the plan in shard order, reuse what
/// validates (resume mode), re-run the rest, merge in index order.
fn execute(
    dir: &Path,
    manifest: &Manifest,
    threads: usize,
    resume: bool,
) -> Result<(SweepReport, ResumeStats), CampaignError> {
    let shard_dir = dir.join(SHARD_DIR);
    sweep_stale_tmps(&shard_dir);
    let scenarios = manifest.grid.enumerate();
    let resample = manifest.grid.resample();
    let plan = manifest.plan();
    let fingerprint = manifest.fingerprint();
    let mut stats = ResumeStats { shards: plan.n_shards(), ..ResumeStats::default() };
    let mut results: Vec<ScenarioResult> = Vec::with_capacity(scenarios.len());
    let mut runners = runner_slots(threads, manifest.shard_size);

    for shard in 0..plan.n_shards() {
        let range = plan.range(shard);
        let header = ShardHeader {
            shard,
            start: range.start,
            end: range.end,
            campaign_seed: manifest.campaign_seed,
            fingerprint,
        };
        let path = shard_dir.join(shard_file_name(shard));
        if resume && path.exists() {
            match fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| decode_shard(&text, &header))
            {
                Ok(loaded) => {
                    results.extend(loaded);
                    stats.skipped += 1;
                    continue;
                }
                Err(why) => {
                    quarantine(dir, &path, shard).map_err(io_err(&path))?;
                    stats.counters.shard_quarantines += 1;
                    stats.quarantined.push((shard, why));
                }
            }
        }
        let shard_results =
            run_shard_range(&scenarios, range, manifest.campaign_seed, &resample, &mut runners);
        failpoint("shard.write").map_err(io_err(&path))?;
        write_atomic(&path, encode_shard(&header, &shard_results)).map_err(io_err(&path))?;
        failpoint("shard.commit").map_err(io_err(&path))?;
        results.extend(shard_results);
        stats.executed += 1;
    }
    debug_assert!(results.iter().enumerate().all(|(k, r)| r.index == k));
    Ok((SweepReport { campaign_seed: manifest.campaign_seed, results }, stats))
}

/// Runs one shard's scenario range and returns its results in index
/// order — the **single** execution path every campaign mode shares
/// (in-process `run_sharded`/`resume_sharded` and the multi-process
/// worker loop in [`crate::lease`]), which is what makes a shard's
/// bytes identical no matter which process computed them.
///
/// The shard runs config-major on one worker per slot of `runners`. The
/// caller creates the slots once per campaign and lends them to every
/// shard, so a worker's machine survives the shard boundary; results are
/// pure functions of each scenario, so neither choice shows in them.
pub(crate) fn run_shard_range(
    scenarios: &[Scenario],
    range: Range<usize>,
    campaign_seed: u64,
    resample: &ResampleOptions,
    runners: &mut [Option<Runner>],
) -> Vec<ScenarioResult> {
    run_config_major(&scenarios[range], runners, |runner, _, chunk| {
        chunk.iter().map(|s| run_on(runner, s, campaign_seed, resample).0).collect()
    })
}

/// The identity header every process derives for a shard of this
/// manifest — what binds a shard file to its campaign.
pub(crate) fn shard_header(manifest: &Manifest, fingerprint: u64, shard: usize) -> ShardHeader {
    let range = manifest.plan().range(shard);
    ShardHeader {
        shard,
        start: range.start,
        end: range.end,
        campaign_seed: manifest.campaign_seed,
        fingerprint,
    }
}

/// Moves an invalid shard file into `quarantine/`, never overwriting an
/// earlier incident (a numeric suffix disambiguates repeats).
pub(crate) fn quarantine(dir: &Path, path: &Path, shard: usize) -> io::Result<()> {
    let qdir = dir.join(QUARANTINE_DIR);
    fs::create_dir_all(&qdir)?;
    let base = shard_file_name(shard);
    let mut target = qdir.join(&base);
    let mut n = 1;
    while target.exists() {
        n += 1;
        target = qdir.join(format!("{base}.{n}"));
    }
    fs::rename(path, target)
}

/// Deletes leftover `write_atomic` temporaries of **dead** writers —
/// they hold no committed data by construction. Temporaries whose
/// embedded PID is still alive are left alone: in a multi-process
/// campaign they belong to a concurrent worker mid-write, and deleting
/// one would fail that worker's rename. (Dead workers — including
/// foreign PIDs from other killed processes — are exactly what this
/// sweeps.)
pub(crate) fn sweep_stale_tmps(shard_dir: &Path) {
    let Ok(entries) = fs::read_dir(shard_dir) else { return };
    for entry in entries.filter_map(|e| e.ok()) {
        let p = entry.path();
        if is_atomic_tmp(&p) && !atomic_tmp_pid(&p).is_some_and(pid_alive) {
            let _ = fs::remove_file(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_sweep;
    use crate::fixture::V1_SHARD;
    use crate::grid::DefensePoint;
    use prefender_attacks::DefenseConfig;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prefender-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_grid() -> SweepGrid {
        let mut g = SweepGrid::security_quick();
        g.seeds = 3;
        g
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let m = Manifest { campaign_seed: 0xC0FFEE, shard_size: 4, grid: small_grid() };
        let text = m.encode();
        assert_eq!(Manifest::decode(&text).unwrap(), m);
        // Fingerprint is stable and equals the encoded check value.
        assert!(text.contains(&format!("check={:016x}", m.fingerprint())));
        for bad in [
            text.replace("seed=12648430", "seed=12648431"),
            text[..text.len() - 8].to_string(),
            text.replace("schema=", "schema=9"),
            String::new(),
            "garbage\n".into(),
        ] {
            assert!(Manifest::decode(&bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn sharded_run_equals_in_memory_run_and_resume_is_idempotent() {
        let dir = scratch("equal");
        let grid = small_grid();
        let opts = SweepOptions { threads: 2, campaign_seed: 0xC0FFEE };
        let reference = run_sweep(&grid, &opts);
        let (report, stats) = run_sharded(&dir, &grid, &opts, 2).unwrap();
        assert_eq!(report, reference);
        assert_eq!(stats.shards, 3, "6 scenarios / shard size 2");
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.skipped, 0);
        // Starting again into the same directory is refused...
        let again = run_sharded(&dir, &grid, &opts, 2).unwrap_err();
        assert!(matches!(again, CampaignError::AlreadyStarted(_)), "{again}");
        // ...but resume loads everything without re-running.
        let (resumed, manifest, stats) = resume_sharded(&dir, 1).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(manifest.grid, grid);
        assert_eq!(stats.skipped, 3);
        assert_eq!(stats.executed, 0);
        assert!(stats.quarantined.is_empty());
        assert_eq!(stats.render(), "3 shards: 3 skipped (complete), 0 quarantined, 0 executed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rebuilds_missing_and_corrupt_shards() {
        let dir = scratch("rebuild");
        let grid = small_grid();
        let opts = SweepOptions { threads: 1, campaign_seed: 7 };
        let reference = run_sweep(&grid, &opts);
        run_sharded(&dir, &grid, &opts, 2).unwrap();
        // Delete one shard, truncate another's tail, and drop a stale
        // atomic tmp (from a dead foreign PID) into the directory.
        let shards = dir.join(SHARD_DIR);
        fs::remove_file(shards.join(shard_file_name(0))).unwrap();
        let victim = shards.join(shard_file_name(2));
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();
        fs::write(shards.join("shard-00001.psd.tmp.4000000000"), b"half-written").unwrap();
        let (resumed, _, stats) = resume_sharded(&dir, 8).unwrap();
        assert_eq!(resumed, reference, "resume must reproduce the uninterrupted bytes");
        assert_eq!(stats.skipped, 1);
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.quarantined.len(), 1);
        assert_eq!(stats.quarantined[0].0, 2);
        assert_eq!(stats.counters.shard_quarantines, 1);
        // The bad shard is preserved for forensics, the tmp swept.
        assert!(dir.join(QUARANTINE_DIR).join(shard_file_name(2)).exists());
        assert!(!shards.join("shard-00001.psd.tmp.4000000000").exists());
        // A second incident at the same shard gets a fresh name.
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..10]).unwrap();
        let (_, _, stats) = resume_sharded(&dir, 1).unwrap();
        assert_eq!(stats.quarantined.len(), 1);
        assert!(dir.join(QUARANTINE_DIR).join("shard-00002.psd.2").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_sweep_takes_dead_foreign_pids_and_spares_live_writers() {
        // Dead workers leave foreign-PID temporaries behind; the sweep
        // must take those regardless of whose PID they carry — but it
        // must never delete a temporary whose writer is still alive
        // (a concurrent worker mid-`write_atomic` would lose its
        // rename).
        let dir = scratch("tmps");
        let grid = small_grid();
        let opts = SweepOptions { threads: 1, campaign_seed: 9 };
        run_sharded(&dir, &grid, &opts, 2).unwrap();
        let shards = dir.join(SHARD_DIR);
        let dead_foreign = shards.join("shard-00000.psd.tmp.4000000000");
        let dead_other = shards.join("shard-00002.psd.tmp.3999999999");
        let live = shards.join(format!("shard-00001.psd.tmp.{}", std::process::id()));
        for p in [&dead_foreign, &dead_other, &live] {
            fs::write(p, b"in flight").unwrap();
        }
        let (resumed, _, _) = resume_sharded(&dir, 1).unwrap();
        assert_eq!(resumed, run_sweep(&grid, &opts));
        assert!(!dead_foreign.exists(), "dead foreign-pid tmp must be swept");
        assert!(!dead_other.exists(), "every dead pid is swept, not just one pattern");
        if prefender_obs::pid_alive(std::process::id()) {
            assert!(live.exists(), "a live writer's tmp must survive the sweep");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_missing_and_foreign_directories() {
        let dir = scratch("foreign");
        let err = resume_sharded(&dir, 1).unwrap_err();
        assert!(matches!(err, CampaignError::NotACampaign(_)), "{err}");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(MANIFEST_NAME), "not a manifest\n").unwrap();
        let err = resume_sharded(&dir, 1).unwrap_err();
        assert!(matches!(err, CampaignError::Manifest(_)), "{err}");
        assert!(err.to_string().contains("bad campaign manifest"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_campaign_shards_are_quarantined_not_merged() {
        // Two campaigns differing only in seed: shard files are the same
        // shape, but the fingerprint must keep them apart.
        let dir_a = scratch("fpa");
        let dir_b = scratch("fpb");
        let grid = small_grid();
        run_sharded(&dir_a, &grid, &SweepOptions { threads: 1, campaign_seed: 1 }, 3).unwrap();
        run_sharded(&dir_b, &grid, &SweepOptions { threads: 1, campaign_seed: 2 }, 3).unwrap();
        let stolen = fs::read(dir_b.join(SHARD_DIR).join(shard_file_name(0))).unwrap();
        fs::write(dir_a.join(SHARD_DIR).join(shard_file_name(0)), stolen).unwrap();
        let reference = run_sweep(&grid, &SweepOptions { threads: 1, campaign_seed: 1 });
        let (resumed, _, stats) = resume_sharded(&dir_a, 1).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(stats.quarantined.len(), 1);
        assert!(stats.quarantined[0].1.contains("does not match"), "{}", stats.quarantined[0].1);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn v1_shards_are_quarantined_and_rerun() {
        // The fixture's v1 shard was written for exactly this campaign:
        // it checksums and its header matches, but its records are in the
        // old layout, so decode must refuse it by magic, never parse it.
        let dir = scratch("v1");
        let grid = small_grid();
        let opts = SweepOptions { threads: 1, campaign_seed: 7 };
        run_sharded(&dir, &grid, &opts, 2).unwrap();
        let manifest = load_manifest(&dir).unwrap();
        let header = shard_header(&manifest, manifest.fingerprint(), 0);
        assert_eq!(decode_shard(V1_SHARD, &header).unwrap_err(), "bad magic");
        fs::write(dir.join(SHARD_DIR).join(shard_file_name(0)), V1_SHARD).unwrap();
        let (resumed, _, stats) = resume_sharded(&dir, 1).unwrap();
        assert_eq!(stats.quarantined, vec![(0, "bad magic".to_string())]);
        assert_eq!((stats.skipped, stats.executed), (2, 1));
        assert_eq!(resumed.artifacts(), run_sweep(&grid, &opts).artifacts());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runners_outlive_shards() {
        // Two 4-scenario shards of one machine configuration on the same
        // two runner slots: each slot builds its machine once, in the
        // first shard, and every run after that is an in-place reset.
        let mut grid = SweepGrid::security_quick();
        grid.defenses = vec![DefensePoint::new(DefenseConfig::Full)];
        grid.seeds = 8;
        let scenarios = grid.enumerate();
        let resample = ResampleOptions::default();
        let mut runners = runner_slots(2, 4);
        let (mut resets, mut rebuilds) = (0, 0);
        for shard in [0..4, 4..8] {
            let reuse = run_config_major(&scenarios[shard], &mut runners, |runner, _, chunk| {
                chunk.iter().map(|s| run_on(runner, s, 0xC0FFEE, &resample).2).collect()
            });
            for (rs, rb) in reuse {
                resets += rs;
                rebuilds += rb;
            }
        }
        assert_eq!((resets, rebuilds), (8, 2), "one build per slot, across both shards");
    }

    #[test]
    fn zero_shard_size_is_rejected() {
        let dir = scratch("zero");
        let err = run_sharded(&dir, &small_grid(), &SweepOptions::default(), 0).unwrap_err();
        assert!(matches!(err, CampaignError::Manifest(_)), "{err}");
    }
}
