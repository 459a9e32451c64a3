//! Checkpointed campaigns: the crash-safe shard loop every campaign mode
//! runs, and the manifest that makes a campaign directory self-describing.
//!
//! ## Layout of a campaign directory
//!
//! ```text
//! <dir>/campaign.manifest      identity: grid spec, seed, shard size
//! <dir>/shards/shard-*.psd     one checksummed artifact per shard
//! <dir>/quarantine/            shards that failed validation
//! <dir>/leases/                shard leases, multi-process modes only
//! <dir>/sweep.json, sweep.csv  final artifacts, plus leakage.json and
//!                              leakage.csv when present (written by the CLI)
//! ```
//!
//! [`run_sharded`] writes the manifest first (atomically), then runs
//! shards **in shard order**, committing each through the
//! write-tmp → fsync → rename protocol — so at any kill point the
//! directory holds the manifest plus a prefix-closed set of complete,
//! checksummed shards. [`resume_sharded`] reloads the manifest and runs
//! the same loop: a shard file that validates against the manifest is
//! loaded and skipped, a truncated/corrupt/foreign one is moved to
//! `quarantine/` and re-run, a missing one is run, and the merge
//! re-validates every shard in scenario index order. `sweep work` runs
//! that loop too, under a lease per shard ([`crate::lease`]).
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
use std::path::{Path, PathBuf};
use std::thread;
use std::time::Duration;

use prefender_obs::{atomic_tmp_pid, failpoint, is_atomic_tmp, pid_alive, write_atomic};

use crate::artifact::SweepReport;
use crate::engine::{run_config_major, runner_slots, SweepOptions};
use crate::grid::SweepGrid;
use crate::lease::{claim_shard, Claim, LeaseConfig, WorkEvent, WorkSummary};
use crate::record::{ScenarioResult, REPORT_SCHEMA_VERSION};
use crate::scenario::run_on;
use crate::shard::{
    decode_shard, encode_shard, seal, shard_file_name, unseal, ShardHeader, ShardPlan,
};

/// Manifest file name inside a campaign directory.
pub const MANIFEST_NAME: &str = "campaign.manifest";

/// Subdirectory holding committed shard artifacts.
pub const SHARD_DIR: &str = "shards";

/// Subdirectory where the shard loop moves invalid shard files.
pub const QUARANTINE_DIR: &str = "quarantine";

const MANIFEST_MAGIC: &str = "PREFENDER-CAMPAIGN v1";

const MANIFEST_KEYS: [&str; 5] = ["schema", "seed", "scenarios", "shard_size", "grid"];

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
    /// The manifest's [`seal`]ed text and its check.
    fn sealed(&self) -> (String, u64) {
        let (scenarios, spec) = (self.grid.len(), self.grid.to_spec());
        let values: [&dyn fmt::Display; 5] =
            [&REPORT_SCHEMA_VERSION, &self.campaign_seed, &scenarios, &self.shard_size, &spec];
        seal(MANIFEST_MAGIC, MANIFEST_KEYS, values)
    }

    /// The manifest's serialized form: line-oriented `key=value` with a
    /// trailing self-checksum, so a torn or hand-edited manifest is
    /// detected rather than trusted.
    pub fn encode(&self) -> String {
        self.sealed().0
    }

    /// Parses and validates [`Manifest::encode`]'s form.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first thing wrong: bad checksum,
    /// wrong magic, an incompatible schema version, an unparsable grid
    /// spec, or a scenario count that no longer matches the grid.
    pub fn decode(text: &str) -> Result<Manifest, String> {
        let [schema, seed, scenarios, shard_size, grid] =
            unseal(text, MANIFEST_MAGIC, MANIFEST_KEYS)?;
        let schema: u32 = schema.parse().map_err(|_| "bad schema".to_string())?;
        if schema != REPORT_SCHEMA_VERSION {
            return Err(format!(
                "written at schema v{schema}, this build runs v{REPORT_SCHEMA_VERSION} — \
                 finish the campaign with the original binary"
            ));
        }
        let campaign_seed = seed.parse().map_err(|_| "bad seed".to_string())?;
        let scenarios: usize = scenarios.parse().map_err(|_| "bad scenarios".to_string())?;
        let shard_size: usize = shard_size.parse().map_err(|_| "bad shard_size".to_string())?;
        if shard_size == 0 {
            return Err("shard_size must be at least 1".into());
        }
        let grid = SweepGrid::from_spec(grid)?;
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
        self.sealed().1
    }

    /// The deterministic shard plan this manifest implies.
    pub fn plan(&self) -> ShardPlan {
        ShardPlan::new(self.grid.len(), self.shard_size)
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
) -> Result<(SweepReport, WorkSummary), CampaignError> {
    let manifest = init_campaign(dir, grid, opts, shard_size)?;
    run_campaign(dir, &manifest, opts.threads, None, &mut |_| {})
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
) -> Result<(SweepReport, Manifest, WorkSummary), CampaignError> {
    let manifest = load_manifest(dir)?;
    let (report, summary) = run_campaign(dir, &manifest, threads, None, &mut |_| {})?;
    Ok((report, manifest, summary))
}

fn load_shard(path: &Path, header: &ShardHeader) -> Result<Vec<ScenarioResult>, String> {
    fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|t| decode_shard(&t, header))
}

/// The shard loop: the **single** execution path every campaign mode
/// shares, which is what makes a shard's bytes identical no matter which
/// process computed them. `--shard-size` and `--resume` run it without a
/// lease, `sweep work`, `serve`'s workers and its heal pass under `lease`.
///
/// It runs until **every** shard of the manifest validates. A shard whose
/// file validates is loaded. Any other is claimed first when there is a
/// lease (a live peer's claim means: retry later), has an invalid file
/// quarantined, and is run config-major on the campaign's runner slots
/// and committed atomically. The merge re-reads every shard in index
/// order, and one that no longer validates re-enters the loop. The slots
/// live for the whole campaign, so a worker's machine survives the shard
/// boundary; results are pure functions of each scenario, so that does
/// not show in them.
pub(crate) fn run_campaign(
    dir: &Path,
    manifest: &Manifest,
    threads: usize,
    lease: Option<&LeaseConfig>,
    on_event: &mut dyn FnMut(&WorkEvent),
) -> Result<(SweepReport, WorkSummary), CampaignError> {
    let shard_dir = dir.join(SHARD_DIR);
    fs::create_dir_all(&shard_dir).map_err(io_err(dir))?;
    sweep_stale_tmps(&shard_dir);
    let scenarios = manifest.grid.enumerate();
    let resample = manifest.grid.resample();
    let fingerprint = manifest.fingerprint();
    let n = manifest.plan().n_shards();
    let mut summary = WorkSummary { shards: n, ..WorkSummary::default() };
    let mut runners = runner_slots(threads, manifest.shard_size);
    let mut done = vec![false; n];
    let mut done_count = 0usize;
    // A peer's short shard commits within milliseconds, so waiting for
    // one starts at 1 ms; doubling up to the cap bounds the polling
    // while a long one runs.
    let max_wait = Duration::from_millis(lease.map_or(0, |l| l.renew_ms).clamp(10, 250));
    let mut wait = Duration::from_millis(1);

    'campaign: loop {
        loop {
            let mut progressed = false;
            let mut remaining = 0usize;
            for (shard, done_flag) in done.iter_mut().enumerate() {
                if *done_flag {
                    continue;
                }
                let header = shard_header(manifest, fingerprint, shard);
                let path = shard_dir.join(shard_file_name(shard));
                let mut check = load_shard(&path, &header);
                let mut held = None;
                let mut reclaimed = false;
                if let (Err(_), Some(cfg)) = (&check, lease) {
                    let claim = claim_shard(
                        dir,
                        shard,
                        fingerprint,
                        cfg,
                        &mut summary.counters,
                        &mut |e| on_event(&e),
                    )
                    .map_err(io_err(&path))?;
                    let Claim::Claimed { lease: claimed, broke } = claim else {
                        remaining += 1;
                        continue;
                    };
                    on_event(&WorkEvent::Claimed { shard });
                    // Revalidate under the lease: the shard may have been
                    // committed between our check and the claim, and a
                    // claimed-but-dead holder may have left torn bytes —
                    // quarantined and re-executed, never trusted.
                    check = load_shard(&path, &header);
                    held = Some(claimed);
                    reclaimed = broke;
                }
                match check {
                    Ok(_) => {
                        if let Some(held) = held {
                            held.release();
                        }
                        *done_flag = true;
                        done_count += 1;
                        summary.loaded += 1;
                        progressed = true;
                        continue;
                    }
                    Err(why) if path.exists() => {
                        quarantine(dir, &path, shard).map_err(io_err(&path))?;
                        summary.counters.shard_quarantines += 1;
                        reclaimed = true;
                        on_event(&WorkEvent::Quarantined { shard, why });
                    }
                    Err(_) => {}
                }
                let hb = held.as_ref().zip(lease).map(|(held, cfg)| held.heartbeat(cfg));
                let range = &scenarios[header.start..header.end];
                let results = run_config_major(range, &mut runners, |runner, _, chunk| {
                    chunk
                        .iter()
                        .map(|s| run_on(runner, s, manifest.campaign_seed, &resample).0)
                        .collect()
                });
                let committed = failpoint("shard.write")
                    .and_then(|()| write_atomic(&path, encode_shard(&header, &results)))
                    .and_then(|()| failpoint("shard.commit"));
                if let Some((held, hb)) = held.zip(hb) {
                    summary.counters.lease_renewals += hb.stop().0;
                    held.release();
                }
                committed.map_err(io_err(&path))?;
                if reclaimed {
                    summary.counters.lease_reclaims += 1;
                }
                *done_flag = true;
                done_count += 1;
                summary.committed += 1;
                progressed = true;
                on_event(&WorkEvent::Committed { shard, done: done_count, total: n });
            }
            if remaining == 0 {
                break;
            }
            if progressed {
                wait = Duration::from_millis(1);
            } else {
                on_event(&WorkEvent::Waiting { remaining });
                thread::sleep(wait);
                wait = (wait * 2).min(max_wait);
            }
        }
        // Merge every shard in order. A shard that stopped validating
        // after we marked it done (corrupted behind our back) re-enters
        // the loop rather than poisoning the report.
        let mut results: Vec<ScenarioResult> = Vec::with_capacity(scenarios.len());
        for (shard, done_flag) in done.iter_mut().enumerate() {
            let header = shard_header(manifest, fingerprint, shard);
            match load_shard(&shard_dir.join(shard_file_name(shard)), &header) {
                Ok(loaded) => results.extend(loaded),
                Err(_) => {
                    *done_flag = false;
                    done_count -= 1;
                    continue 'campaign;
                }
            }
        }
        debug_assert!(results.iter().enumerate().all(|(k, r)| r.index == k));
        let report = SweepReport { campaign_seed: manifest.campaign_seed, results };
        return Ok((report, summary));
    }
}

/// The identity header every process derives for a shard of this
/// manifest — what binds a shard file to its campaign.
fn shard_header(manifest: &Manifest, fingerprint: u64, shard: usize) -> ShardHeader {
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
fn quarantine(dir: &Path, path: &Path, shard: usize) -> io::Result<()> {
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
fn sweep_stale_tmps(shard_dir: &Path) {
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
    use crate::lease::LEASE_DIR;
    use prefender_attacks::DefenseConfig;
    use prefender_leakage::ResampleOptions;

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

    /// Resumes `dir` as [`resume_sharded`] does, and also returns the
    /// `(shard, why)` of every quarantine the loop reported.
    fn resume_quarantines(
        dir: &Path,
        threads: usize,
    ) -> (SweepReport, WorkSummary, Vec<(usize, String)>) {
        let manifest = load_manifest(dir).unwrap();
        let mut quarantined = Vec::new();
        let (report, summary) = run_campaign(dir, &manifest, threads, None, &mut |e| {
            if let WorkEvent::Quarantined { shard, why } = e {
                quarantined.push((*shard, why.clone()));
            }
        })
        .unwrap();
        (report, summary, quarantined)
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
    fn manifest_bytes_are_pinned() {
        // A directory written by an earlier build must still resume, so
        // the manifest's text, and the fingerprint every shard header
        // carries, may not move.
        let m =
            Manifest { campaign_seed: 0xC0FFEE, shard_size: 4, grid: SweepGrid::security_quick() };
        assert_eq!(
            m.encode(),
            "PREFENDER-CAMPAIGN v1\nschema=3\nseed=12648430\nscenarios=2\nshard_size=4\n\
             grid=attacks=fr;workloads=;leakages=;secrets=8;trials=4;jitter=0;permutations=0;\
             bootstrap=0;alpha=3fa999999999999a;defenses=none:32,full:32;basics=none;\
             hierarchies=paper;seeds=1\ncheck=0de6cec73c1b85df\n"
        );
        assert_eq!(m.fingerprint(), 0x0de6_cec7_3c1b_85df);
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
        assert_eq!(stats.committed, 3);
        assert_eq!(stats.loaded, 0);
        // Starting again into the same directory is refused...
        let again = run_sharded(&dir, &grid, &opts, 2).unwrap_err();
        assert!(matches!(again, CampaignError::AlreadyStarted(_)), "{again}");
        // ...but resume loads everything without re-running.
        let (resumed, manifest, stats) = resume_sharded(&dir, 1).unwrap();
        assert_eq!(resumed, reference);
        assert_eq!(manifest.grid, grid);
        assert_eq!(stats.loaded, 3);
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.counters.shard_quarantines, 0);
        let (_, _, quarantined) = resume_quarantines(&dir, 1);
        assert!(quarantined.is_empty());
        // Neither mode takes a lease.
        assert!(!dir.join(LEASE_DIR).exists());
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
        let (resumed, stats, quarantined) = resume_quarantines(&dir, 8);
        assert_eq!(resumed, reference, "resume must reproduce the uninterrupted bytes");
        assert_eq!(stats.loaded, 1);
        assert_eq!(stats.committed, 2);
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0, 2);
        assert_eq!(stats.counters.shard_quarantines, 1);
        // The bad shard is preserved for forensics, the tmp swept.
        assert!(dir.join(QUARANTINE_DIR).join(shard_file_name(2)).exists());
        assert!(!shards.join("shard-00001.psd.tmp.4000000000").exists());
        // A second incident at the same shard gets a fresh name.
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..10]).unwrap();
        let (_, _, quarantined) = resume_quarantines(&dir, 1);
        assert_eq!(quarantined.len(), 1);
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
        let (resumed, _, quarantined) = resume_quarantines(&dir_a, 1);
        assert_eq!(resumed, reference);
        assert_eq!(quarantined.len(), 1);
        assert!(quarantined[0].1.contains("does not match"), "{}", quarantined[0].1);
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
        let (resumed, stats, quarantined) = resume_quarantines(&dir, 1);
        assert_eq!(quarantined, vec![(0, "bad magic".to_string())]);
        assert_eq!((stats.loaded, stats.committed), (2, 1));
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
