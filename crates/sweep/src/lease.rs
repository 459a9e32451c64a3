//! Multi-process shard coordination: the claim/lease protocol under
//! which `sweep work` / `sweep serve` run the shard loop of
//! [`crate::checkpoint`]. The in-process modes run the same loop without
//! a lease.
//!
//! ## The protocol
//!
//! N crash-prone worker processes share one campaign directory. Each
//! shard's work is guarded by a lease file under `<dir>/leases/`:
//!
//! ```text
//! <dir>/leases/shard-00007.lease            held: pid 4242 executing
//! <dir>/leases/shard-00007.lease.broken.1   forensics: a broken lease
//! ```
//!
//! * **Claim** — `O_EXCL` creation ([`claim_shard`]): exactly one
//!   process wins the `create_new`. The file carries the claimer's pid,
//!   a per-claim token, the campaign's manifest fingerprint, the shard
//!   index and a heartbeat timestamp, sealed with an FNV-1a checksum.
//! * **Renew** — while executing, a heartbeat thread ([`Lease::heartbeat`])
//!   rewrites the lease (atomically, token-checked) every
//!   [`LeaseConfig::renew_ms`] to keep the heartbeat fresh.
//! * **Break** — any worker may break a lease whose heartbeat is older
//!   than [`LeaseConfig::ttl_ms`]: the holder is presumed dead. The
//!   break is a rename to a unique `.broken.N` tombstone — rename is
//!   atomic, so racing breakers elect exactly one winner, and the
//!   tombstone preserves the dead holder's identity for forensics. An
//!   *undecodable* lease (a claimer killed between `O_EXCL` create and
//!   write) is breakable only once its mtime is older than the TTL,
//!   which closes the read-a-partial-write race.
//! * **Release** — on commit the holder deletes its lease (token-checked).
//!
//! ## Why exclusivity is never load-bearing
//!
//! A shard's bytes are a pure function of `(manifest, shard index)` —
//! see [`crate::checkpoint`]. If two processes ever execute the same
//! shard (a broken lease whose holder was merely slow, clock skew, any
//! race at all), both compute **identical bytes** and commit through
//! `write_atomic` with pid-distinct temporaries: last rename wins and
//! the file content is the same either way. Leases exist purely so N
//! workers don't waste CPU duplicating work; campaign *correctness*
//! rests on determinism + atomic commit + footer validation, each of
//! which holds with zero coordination. That is the convergence
//! argument: any interleaving of claims, kills, breaks and re-runs
//! terminates with every shard valid, and the merged artifacts are
//! byte-identical to a 1-process uninterrupted run.
//!
//! The lease path carries its own failpoints (`lease.claim`,
//! `lease.renew`, `lease.break`) with the same one-`Relaxed`-load-when-
//! disarmed discipline as every other site, so the out-of-process crash
//! tests can fault any step of the protocol.

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use prefender_obs::{failpoint, write_atomic, ObsCounters};

use crate::artifact::SweepReport;
use crate::checkpoint::{load_manifest, run_campaign, CampaignError, Manifest};
use crate::shard::{fnv1a64, seal, unseal};

/// Subdirectory holding shard lease files and break tombstones.
pub const LEASE_DIR: &str = "leases";

const LEASE_MAGIC: &str = "PREFENDER-LEASE v1";

const LEASE_KEYS: [&str; 5] = ["pid", "token", "fingerprint", "shard", "heartbeat_ms"];

/// Heartbeat/staleness policy for shard leases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// A lease whose heartbeat is older than this is stale: the holder
    /// is presumed dead and any worker may break it.
    pub ttl_ms: u64,
    /// How often a holder refreshes its heartbeat. Must be well under
    /// `ttl_ms` so a healthy holder is never mistaken for dead.
    pub renew_ms: u64,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { ttl_ms: 5000, renew_ms: 1000 }
    }
}

impl LeaseConfig {
    /// A config with the given TTL and a renew period of TTL/4 — the
    /// 4× margin keeps scheduler hiccups from turning a live worker
    /// into a presumed-dead one.
    pub fn with_ttl_ms(ttl_ms: u64) -> Self {
        let ttl_ms = ttl_ms.max(20);
        LeaseConfig { ttl_ms, renew_ms: (ttl_ms / 4).max(5) }
    }
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_millis() as u64
}

/// The lease file name for a shard: `shard-00007.lease`.
pub fn lease_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.lease")
}

/// The decoded contents of a lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// The claiming process.
    pub pid: u32,
    /// Per-claim ownership token: renew/release refuse to touch a lease
    /// whose token is not theirs (a breaker may have reassigned the
    /// shard while we slept).
    pub token: u64,
    /// The campaign fingerprint ([`Manifest::fingerprint`]) this claim
    /// belongs to; a mismatch marks a lease from a stale reused
    /// directory, breakable immediately.
    pub fingerprint: u64,
    /// The claimed shard index.
    pub shard: usize,
    /// Unix-epoch milliseconds of the last renewal.
    pub heartbeat_ms: u64,
}

impl LeaseInfo {
    /// Line-oriented `key=value` form with a trailing FNV-1a checksum,
    /// same shape as the campaign manifest — a torn lease is detected,
    /// not trusted.
    pub fn encode(&self) -> String {
        let (token, fingerprint) =
            (format!("{:016x}", self.token), format!("{:016x}", self.fingerprint));
        let values: [&dyn fmt::Display; 5] =
            [&self.pid, &token, &fingerprint, &self.shard, &self.heartbeat_ms];
        seal(LEASE_MAGIC, LEASE_KEYS, values).0
    }

    /// Parses and validates [`LeaseInfo::encode`]'s form.
    ///
    /// # Errors
    ///
    /// A message naming the first defect: missing/bad checksum, wrong
    /// magic, or an unparsable field.
    pub fn decode(text: &str) -> Result<LeaseInfo, String> {
        let [pid, token, fingerprint, shard, heartbeat_ms] = unseal(text, LEASE_MAGIC, LEASE_KEYS)?;
        Ok(LeaseInfo {
            pid: pid.parse().map_err(|_| "bad pid")?,
            token: u64::from_str_radix(token, 16).map_err(|_| "bad token")?,
            fingerprint: u64::from_str_radix(fingerprint, 16).map_err(|_| "bad fingerprint")?,
            shard: shard.parse().map_err(|_| "bad shard")?,
            heartbeat_ms: heartbeat_ms.parse().map_err(|_| "bad heartbeat_ms")?,
        })
    }
}

static TOKEN_SALT: AtomicU64 = AtomicU64::new(0);

/// A token unique across every claim a host makes: pid × monotonic
/// salt × clock nanos, mixed through FNV-1a. Never zero.
fn fresh_token(shard: usize) -> u64 {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_nanos();
    let salt = TOKEN_SALT.fetch_add(1, Ordering::Relaxed);
    fnv1a64(format!("{}:{shard}:{salt}:{nanos}", std::process::id()).as_bytes()) | 1
}

/// A held shard lease: the right (not the obligation — see the module
/// docs on exclusivity) to execute one shard without duplicating work.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    token: u64,
    shard: usize,
}

/// The outcome of [`claim_shard`].
#[derive(Debug)]
pub enum Claim {
    /// We hold the lease. `broke` reports whether a stale holder's
    /// lease was broken on the way in — the shard is a reclaim.
    Claimed {
        /// The held lease.
        lease: Lease,
        /// Whether a stale lease was broken to obtain this one.
        broke: bool,
    },
    /// Someone else holds a fresh lease; come back later.
    Held {
        /// The holder's pid (0 when the lease was unreadable).
        pid: u32,
        /// Milliseconds since the holder's last heartbeat.
        age_ms: u64,
    },
}

/// What [`inspect`] concluded about an existing lease file.
enum Inspect {
    Fresh { pid: u32, age_ms: u64 },
    Stale { pid: u32, age_ms: u64 },
    Vanished,
}

/// Reads an existing lease and ages it. A lease carrying a foreign
/// campaign fingerprint (stale reused directory) is immediately stale.
/// An undecodable lease (torn or mid-write) is aged by file mtime
/// instead of its heartbeat, so a claimer killed between create and
/// write is eventually collected but a claimer *currently* writing is
/// not broken out from under its pen.
fn inspect(path: &Path, fingerprint: u64, cfg: &LeaseConfig) -> Inspect {
    let decoded = match fs::read_to_string(path) {
        Ok(text) => LeaseInfo::decode(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Inspect::Vanished,
        Err(e) => Err(e.to_string()),
    };
    match decoded {
        Ok(info) => {
            let age_ms = now_ms().saturating_sub(info.heartbeat_ms);
            if age_ms > cfg.ttl_ms || info.fingerprint != fingerprint {
                Inspect::Stale { pid: info.pid, age_ms }
            } else {
                Inspect::Fresh { pid: info.pid, age_ms }
            }
        }
        Err(_) => {
            let age_ms = fs::metadata(path)
                .and_then(|m| m.modified())
                .ok()
                .and_then(|t| SystemTime::now().duration_since(t).ok())
                .map_or(0, |d| d.as_millis() as u64);
            if age_ms > cfg.ttl_ms {
                Inspect::Stale { pid: 0, age_ms }
            } else {
                Inspect::Fresh { pid: 0, age_ms }
            }
        }
    }
}

/// Breaks a lease by renaming it to a unique `.broken.N` tombstone.
/// Rename is atomic, so of any number of racing breakers exactly one
/// returns `Ok(true)`; the losers see the source vanish and return
/// `Ok(false)`. Carries the `lease.break` failpoint.
fn break_lease(lease_dir: &Path, path: &Path, shard: usize) -> io::Result<bool> {
    failpoint("lease.break")?;
    let base = lease_file_name(shard);
    let mut n = 0;
    loop {
        n += 1;
        let target = lease_dir.join(format!("{base}.broken.{n}"));
        if target.exists() {
            continue;
        }
        return match fs::rename(path, &target) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        };
    }
}

/// Tries to claim `shard`'s lease for this process: `O_EXCL` create,
/// breaking a stale (or foreign-fingerprint) holder first if there is
/// one. Returns [`Claim::Held`] when a live holder has it. Bumps
/// `lease_claims`/`lease_breaks` on `counters` and reports breaks
/// through `events`. Carries the `lease.claim` failpoint (and
/// `lease.break` via `break_lease`).
///
/// # Errors
///
/// Any I/O failure other than the expected `AlreadyExists`/`NotFound`
/// races, including injected failpoint errors.
pub fn claim_shard(
    dir: &Path,
    shard: usize,
    fingerprint: u64,
    cfg: &LeaseConfig,
    counters: &mut ObsCounters,
    events: &mut dyn FnMut(WorkEvent),
) -> io::Result<Claim> {
    let lease_dir = dir.join(LEASE_DIR);
    fs::create_dir_all(&lease_dir)?;
    let path = lease_dir.join(lease_file_name(shard));
    let mut broke = false;
    loop {
        failpoint("lease.claim")?;
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                let info = LeaseInfo {
                    pid: std::process::id(),
                    token: fresh_token(shard),
                    fingerprint,
                    shard,
                    heartbeat_ms: now_ms(),
                };
                file.write_all(info.encode().as_bytes())?;
                let _ = file.sync_all();
                counters.lease_claims += 1;
                return Ok(Claim::Claimed {
                    lease: Lease { path, token: info.token, shard },
                    broke,
                });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                match inspect(&path, fingerprint, cfg) {
                    Inspect::Fresh { pid, age_ms } => return Ok(Claim::Held { pid, age_ms }),
                    Inspect::Stale { pid, age_ms } => {
                        if break_lease(&lease_dir, &path, shard)? {
                            counters.lease_breaks += 1;
                            broke = true;
                            events(WorkEvent::Broke { shard, holder_pid: pid, age_ms });
                        }
                        // Either way the path may be free now — retry the
                        // O_EXCL create; a racing claimer may still win.
                    }
                    Inspect::Vanished => {
                        // Holder released between our create and read.
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
}

impl Lease {
    /// The shard this lease covers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Refreshes the heartbeat: `Ok(true)` renewed, `Ok(false)` the
    /// lease is no longer ours (broken and reassigned while we ran —
    /// keep executing; commit stays safe, see the module docs).
    /// Token-checked, written through `write_atomic`. Carries the
    /// `lease.renew` failpoint.
    ///
    /// # Errors
    ///
    /// I/O failure reading or rewriting the lease file (including
    /// injected failpoint errors). The holder should stop renewing and
    /// let the lease age out; its commit is unaffected.
    pub fn renew(&self) -> io::Result<bool> {
        failpoint("lease.renew")?;
        let text = match fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        match LeaseInfo::decode(&text) {
            Ok(info) if info.token == self.token => {
                let fresh = LeaseInfo { heartbeat_ms: now_ms(), ..info };
                write_atomic(&self.path, fresh.encode())?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Deletes the lease if it is still ours (token-checked,
    /// best-effort — a leftover lease merely ages out).
    pub fn release(self) {
        if let Ok(text) = fs::read_to_string(&self.path) {
            if LeaseInfo::decode(&text).is_ok_and(|i| i.token == self.token) {
                let _ = fs::remove_file(&self.path);
            }
        }
    }

    /// Spawns the heartbeat thread: renews every `cfg.renew_ms` until
    /// stopped, renewal fails, or ownership is lost.
    pub fn heartbeat(&self, cfg: &LeaseConfig) -> Heartbeat {
        let renewer = Lease { path: self.path.clone(), token: self.token, shard: self.shard };
        let renew = Duration::from_millis(cfg.renew_ms.max(1));
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = thread::spawn(move || {
            let mut renewals = 0;
            // Nothing is ever sent: the wait ends early only when the
            // handle drops its sender, which wakes this thread at once.
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(renew) {
                match renewer.renew() {
                    Ok(true) => renewals += 1,
                    Ok(false) => return (renewals, true),
                    // Stop renewing; the lease ages out and the shard
                    // may be reclaimed — commit stays safe.
                    Err(_) => break,
                }
            }
            (renewals, false)
        });
        Heartbeat { stop, handle }
    }
}

/// Handle on a running heartbeat thread. Dropping it stops the thread
/// without joining; prefer [`Heartbeat::stop`], which joins, so no
/// renewal is in flight when the caller releases the lease.
#[derive(Debug)]
pub struct Heartbeat {
    stop: mpsc::Sender<()>,
    handle: JoinHandle<(u64, bool)>,
}

impl Heartbeat {
    /// Stops and joins the thread; returns `(renewals, ownership_lost)`.
    pub fn stop(self) -> (u64, bool) {
        drop(self.stop);
        self.handle.join().expect("the heartbeat thread does not panic")
    }
}

/// Options for one worker's [`work_campaign`] loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkOptions {
    /// Threads used to execute a claimed shard.
    pub threads: usize,
    /// Lease heartbeat/staleness policy.
    pub lease: LeaseConfig,
}

impl Default for WorkOptions {
    fn default() -> Self {
        WorkOptions { threads: 1, lease: LeaseConfig::default() }
    }
}

/// A progress event from the shard loop. `sweep work` prints each as
/// one `sweep: work: {event}` line on stderr, which `sweep serve` reads
/// back from its workers' pipes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkEvent {
    /// Claimed a shard's lease.
    Claimed {
        /// The claimed shard.
        shard: usize,
    },
    /// Committed a shard this process executed.
    Committed {
        /// The committed shard.
        shard: usize,
        /// Shards complete (from any process) as seen by this worker.
        done: usize,
        /// Shards in the plan.
        total: usize,
    },
    /// Broke a stale lease (holder presumed dead).
    Broke {
        /// The shard whose lease was broken.
        shard: usize,
        /// The dead holder's pid (0 when the lease was unreadable).
        holder_pid: u32,
        /// Heartbeat age at break time, milliseconds.
        age_ms: u64,
    },
    /// Quarantined an invalid committed shard before re-executing it.
    Quarantined {
        /// The quarantined shard.
        shard: usize,
        /// What validation rejected.
        why: String,
    },
    /// Every unfinished shard is held by a live peer; polling.
    Waiting {
        /// Shards not yet complete.
        remaining: usize,
    },
}

impl WorkEvent {
    /// Whether this is a lease break or a quarantine, which print even
    /// under `--quiet`.
    pub fn is_fault(&self) -> bool {
        matches!(self, WorkEvent::Broke { .. } | WorkEvent::Quarantined { .. })
    }
}

impl fmt::Display for WorkEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkEvent::Claimed { shard } => write!(f, "claimed shard {shard}"),
            WorkEvent::Committed { shard, done, total } => {
                write!(f, "committed shard {shard} ({done}/{total})")
            }
            WorkEvent::Broke { shard, holder_pid, age_ms } => write!(
                f,
                "broke stale lease on shard {shard} (holder pid {holder_pid}, heartbeat \
                 {age_ms}ms old)"
            ),
            WorkEvent::Quarantined { shard, why } => {
                write!(f, "quarantined invalid shard {shard}: {why}")
            }
            WorkEvent::Waiting { remaining } => write!(f, "waiting ({remaining} shards held)"),
        }
    }
}

/// The five lease counters as `claims=… renewals=… breaks=… reclaims=…
/// quarantines=…`, the tail of every worker and `serve` summary line.
pub(crate) fn lease_counters(c: &ObsCounters) -> String {
    format!(
        "claims={} renewals={} breaks={} reclaims={} quarantines={}",
        c.lease_claims, c.lease_renewals, c.lease_breaks, c.lease_reclaims, c.shard_quarantines
    )
}

/// What one run of the shard loop did: a `sweep work` worker, `serve`'s
/// heal pass, or an in-process `--shard-size`/`--resume` run. The last
/// two print it as their `sweep: shards:`/`sweep: resume:` line; they
/// take no lease, so their claims, renewals and breaks stay zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkSummary {
    /// Shards in the plan.
    pub shards: usize,
    /// Shards this process executed and committed.
    pub committed: usize,
    /// Shards found already complete (its own earlier run or a peer's).
    pub loaded: usize,
    /// Lease/quarantine event counters of this invocation.
    pub counters: ObsCounters,
}

impl WorkSummary {
    /// One telemetry line, e.g. `16 shards: 9 committed here, 7 loaded;
    /// leases: claims=9 renewals=3 breaks=1 reclaims=1 quarantines=0`.
    pub fn render(&self) -> String {
        format!(
            "{} shards: {} committed here, {} loaded; leases: {}",
            self.shards,
            self.committed,
            self.loaded,
            lease_counters(&self.counters)
        )
    }
}

/// One worker process's share of a campaign: the shard loop of
/// `checkpoint` under `opts.lease`, which claims free shards,
/// breaks stale leases and polls while live peers hold the rest. Returns
/// the same `(report, manifest, summary)` a single-process
/// [`crate::resume_sharded`] would. Every cooperating worker returns the
/// identical report; artifacts written from it are byte-identical across
/// any worker count and kill schedule.
///
/// # Errors
///
/// [`CampaignError::NotACampaign`]/[`CampaignError::Manifest`] when
/// `dir` holds no valid manifest (create one with
/// [`crate::init_campaign`]), or any I/O failure (including injected
/// faults) claiming, executing or committing.
pub fn work_campaign(
    dir: &Path,
    opts: &WorkOptions,
    on_event: &mut dyn FnMut(&WorkEvent),
) -> Result<(SweepReport, Manifest, WorkSummary), CampaignError> {
    let manifest = load_manifest(dir)?;
    let (report, summary) =
        run_campaign(dir, &manifest, opts.threads, Some(&opts.lease), on_event)?;
    Ok((report, manifest, summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{init_campaign, SHARD_DIR};
    use crate::engine::{run_sweep, SweepOptions};
    use crate::grid::SweepGrid;
    use crate::shard::shard_file_name;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prefender-lease-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_grid() -> SweepGrid {
        let mut g = SweepGrid::security_quick();
        g.seeds = 3;
        g
    }

    fn sample_info(heartbeat_ms: u64) -> LeaseInfo {
        LeaseInfo { pid: 4242, token: 0xDEAD_BEEF, fingerprint: 0xF00D, shard: 7, heartbeat_ms }
    }

    #[test]
    fn lease_info_round_trips_and_rejects_corruption() {
        let info = sample_info(123_456);
        let text = info.encode();
        assert_eq!(LeaseInfo::decode(&text).unwrap(), info);
        for bad in [
            text.replace("pid=4242", "pid=4243"),
            text[..text.len() - 5].to_string(),
            String::new(),
            "garbage\n".into(),
        ] {
            assert!(LeaseInfo::decode(&bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn lease_info_bytes_are_pinned() {
        // Workers of different builds may share a campaign directory, so
        // the lease text may not move.
        let info = LeaseInfo {
            pid: 4242,
            token: 0x1234,
            fingerprint: 0xF00D,
            shard: 7,
            heartbeat_ms: 1_700_000_000_000,
        };
        assert_eq!(
            info.encode(),
            "PREFENDER-LEASE v1\npid=4242\ntoken=0000000000001234\nfingerprint=000000000000f00d\n\
             shard=7\nheartbeat_ms=1700000000000\ncheck=84aa6b1cd1899f73\n"
        );
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let dir = scratch("exclusive");
        fs::create_dir_all(&dir).unwrap();
        let cfg = LeaseConfig::default();
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let claim = claim_shard(&dir, 3, 0xF00D, &cfg, &mut counters, &mut sink).unwrap();
        let Claim::Claimed { lease, broke } = claim else { panic!("first claim must win") };
        assert!(!broke);
        assert_eq!(lease.shard(), 3);
        assert_eq!(counters.lease_claims, 1);
        // Second claimer sees a fresh holder.
        match claim_shard(&dir, 3, 0xF00D, &cfg, &mut counters, &mut sink).unwrap() {
            Claim::Held { pid, .. } => assert_eq!(pid, std::process::id()),
            other => panic!("fresh lease must not be claimable: {other:?}"),
        }
        // A different shard is free.
        assert!(matches!(
            claim_shard(&dir, 4, 0xF00D, &cfg, &mut counters, &mut sink).unwrap(),
            Claim::Claimed { .. }
        ));
        // Release frees the shard for the next claimer.
        lease.release();
        assert!(matches!(
            claim_shard(&dir, 3, 0xF00D, &cfg, &mut counters, &mut sink).unwrap(),
            Claim::Claimed { broke: false, .. }
        ));
        assert_eq!(counters.lease_breaks, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_heartbeats_are_broken_and_tombstoned() {
        let dir = scratch("stale");
        let lease_dir = dir.join(LEASE_DIR);
        fs::create_dir_all(&lease_dir).unwrap();
        let cfg = LeaseConfig::with_ttl_ms(100);
        // A holder that last renewed far beyond the TTL: presumed dead.
        let dead = LeaseInfo {
            pid: 4_000_000_000,
            token: 0x1,
            fingerprint: 0xF00D,
            shard: 0,
            heartbeat_ms: now_ms().saturating_sub(10_000),
        };
        fs::write(lease_dir.join(lease_file_name(0)), dead.encode()).unwrap();
        let mut counters = ObsCounters::new();
        let mut events = Vec::new();
        let claim =
            claim_shard(&dir, 0, 0xF00D, &cfg, &mut counters, &mut |e| events.push(e)).unwrap();
        assert!(matches!(claim, Claim::Claimed { broke: true, .. }), "{claim:?}");
        assert_eq!(counters.lease_breaks, 1);
        assert!(
            matches!(events[..], [WorkEvent::Broke { shard: 0, holder_pid: 4_000_000_000, .. }]),
            "{events:?}"
        );
        // The dead holder's lease survives as a forensics tombstone.
        let tombstone = lease_dir.join("shard-00000.lease.broken.1");
        assert_eq!(LeaseInfo::decode(&fs::read_to_string(tombstone).unwrap()).unwrap(), dead);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_leases_break_only_after_the_ttl() {
        let dir = scratch("torn");
        let lease_dir = dir.join(LEASE_DIR);
        fs::create_dir_all(&lease_dir).unwrap();
        let path = lease_dir.join(lease_file_name(2));
        // An undecodable lease with a *fresh* mtime models a claimer
        // caught between O_EXCL create and write — not breakable yet.
        fs::write(&path, "PREFENDER-LEASE v1\npid=").unwrap();
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let young = LeaseConfig::with_ttl_ms(60_000);
        assert!(matches!(
            claim_shard(&dir, 2, 0xF00D, &young, &mut counters, &mut sink).unwrap(),
            Claim::Held { pid: 0, .. }
        ));
        assert!(path.exists(), "young torn lease must not be broken");
        // Once the mtime is older than the TTL the torn lease is litter.
        let old = LeaseConfig::with_ttl_ms(20);
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(
            claim_shard(&dir, 2, 0xF00D, &old, &mut counters, &mut sink).unwrap(),
            Claim::Claimed { broke: true, .. }
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn renew_refreshes_heartbeats_and_detects_ownership_loss() {
        let dir = scratch("renew");
        fs::create_dir_all(&dir).unwrap();
        let cfg = LeaseConfig::default();
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let Claim::Claimed { lease, .. } =
            claim_shard(&dir, 1, 0xF00D, &cfg, &mut counters, &mut sink).unwrap()
        else {
            panic!("claim must win")
        };
        let path = dir.join(LEASE_DIR).join(lease_file_name(1));
        let before = LeaseInfo::decode(&fs::read_to_string(&path).unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        assert!(lease.renew().unwrap(), "own lease renews");
        let after = LeaseInfo::decode(&fs::read_to_string(&path).unwrap()).unwrap();
        assert!(after.heartbeat_ms > before.heartbeat_ms, "{after:?} vs {before:?}");
        assert_eq!(after.token, before.token);
        // A breaker reassigns the shard: our renew must refuse.
        let usurper = LeaseInfo { token: before.token ^ 1, ..before };
        fs::write(&path, usurper.encode()).unwrap();
        assert!(!lease.renew().unwrap(), "foreign token must not renew");
        let unchanged = LeaseInfo::decode(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(unchanged, usurper, "a refused renew must not touch the file");
        // Release is token-checked too: the usurper's lease survives.
        lease.release();
        assert!(path.exists(), "release must not delete a foreign lease");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_thread_renews_until_stopped() {
        let dir = scratch("heartbeat");
        fs::create_dir_all(&dir).unwrap();
        let cfg = LeaseConfig { ttl_ms: 1000, renew_ms: 10 };
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let Claim::Claimed { lease, .. } =
            claim_shard(&dir, 0, 0xF00D, &cfg, &mut counters, &mut sink).unwrap()
        else {
            panic!("claim must win")
        };
        let hb = lease.heartbeat(&cfg);
        std::thread::sleep(Duration::from_millis(120));
        let (renewals, lost) = hb.stop();
        assert!(renewals >= 2, "expected several renewals, got {renewals}");
        assert!(!lost);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heartbeat_stop_wakes_the_thread_at_once() {
        let dir = scratch("prompt-stop");
        fs::create_dir_all(&dir).unwrap();
        let cfg = LeaseConfig::default();
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let Claim::Claimed { lease, .. } =
            claim_shard(&dir, 0, 0xF00D, &cfg, &mut counters, &mut sink).unwrap()
        else {
            panic!("claim must win")
        };
        // A stop that waited for the thread's next timed wake-up would
        // cost milliseconds per shard; 20 stops must take well under
        // one such wait each.
        let mut stopping = Duration::ZERO;
        for _ in 0..20 {
            let hb = lease.heartbeat(&cfg);
            std::thread::sleep(Duration::from_millis(1));
            let began = std::time::Instant::now();
            assert_eq!(hb.stop(), (0, false));
            stopping += began.elapsed();
        }
        assert!(stopping < Duration::from_millis(100), "20 stops took {stopping:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_a_heartbeat_ends_its_renewals() {
        let dir = scratch("hb-drop");
        fs::create_dir_all(&dir).unwrap();
        let cfg = LeaseConfig { ttl_ms: 1000, renew_ms: 5 };
        let mut counters = ObsCounters::new();
        let mut sink = |_: WorkEvent| {};
        let Claim::Claimed { lease, .. } =
            claim_shard(&dir, 0, 0xF00D, &cfg, &mut counters, &mut sink).unwrap()
        else {
            panic!("claim must win")
        };
        let path = dir.join(LEASE_DIR).join(lease_file_name(0));
        let beat = || LeaseInfo::decode(&fs::read_to_string(&path).unwrap()).unwrap().heartbeat_ms;
        let claimed = beat();
        let hb = lease.heartbeat(&cfg);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while beat() == claimed {
            assert!(std::time::Instant::now() < deadline, "the heartbeat never renewed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(hb);
        // A renewal already in flight may still land; after it, two
        // reads 50 ms apart (ten renew periods) must agree.
        loop {
            let last = beat();
            std::thread::sleep(Duration::from_millis(50));
            if beat() == last {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "a dropped heartbeat kept renewing");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn work_campaign_converges_and_matches_the_reference() {
        let dir = scratch("work");
        let grid = small_grid();
        let opts = SweepOptions { threads: 1, campaign_seed: 0xC0FFEE };
        init_campaign(&dir, &grid, &opts, 2).unwrap();
        let reference = run_sweep(&grid, &opts);
        let work = WorkOptions { threads: 1, lease: LeaseConfig::with_ttl_ms(2000) };
        let (report, manifest, summary) = work_campaign(&dir, &work, &mut |_| {}).unwrap();
        assert_eq!(report, reference);
        assert_eq!(manifest.grid, grid);
        assert_eq!(summary.shards, 3);
        assert_eq!(summary.committed, 3);
        assert_eq!(summary.loaded, 0);
        assert_eq!(summary.counters.lease_claims, 3);
        assert_eq!(summary.counters.lease_breaks, 0);
        // Leases are released on commit; the lease dir holds no holders.
        let live: Vec<_> = fs::read_dir(dir.join(LEASE_DIR))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "lease"))
            .collect();
        assert!(live.is_empty(), "{live:?}");
        // A second worker over the complete campaign loads everything.
        let (again, _, summary) = work_campaign(&dir, &work, &mut |_| {}).unwrap();
        assert_eq!(again, reference);
        assert_eq!(summary.committed, 0);
        assert_eq!(summary.loaded, 3);
        assert_eq!(summary.counters.lease_claims, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_workers_partition_the_shards_and_agree() {
        let dir = scratch("concurrent");
        let grid = small_grid();
        let opts = SweepOptions { threads: 1, campaign_seed: 0xFACE };
        init_campaign(&dir, &grid, &opts, 1).unwrap(); // 6 shards
        let reference = run_sweep(&grid, &opts);
        let work = WorkOptions { threads: 1, lease: LeaseConfig::with_ttl_ms(5000) };
        let reports: Vec<(SweepReport, WorkSummary)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let (report, _, summary) = work_campaign(&dir, &work, &mut |_| {}).unwrap();
                        (report, summary)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: usize = reports.iter().map(|(_, s)| s.committed).sum();
        assert_eq!(total, 6, "every shard committed exactly once across workers");
        for (report, summary) in &reports {
            assert_eq!(report, &reference, "every worker returns the converged report");
            assert_eq!(summary.committed + summary.loaded, 6);
            assert_eq!(summary.counters.lease_breaks, 0, "live peers are never broken");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn work_campaign_quarantines_corrupt_shards_and_reclaims_stale_claims() {
        let dir = scratch("reclaim");
        let grid = small_grid();
        let opts = SweepOptions { threads: 1, campaign_seed: 0xBEEF };
        init_campaign(&dir, &grid, &opts, 2).unwrap();
        let reference = run_sweep(&grid, &opts);
        let work = WorkOptions { threads: 1, lease: LeaseConfig::with_ttl_ms(100) };
        let (first, _, _) = work_campaign(&dir, &work, &mut |_| {}).unwrap();
        assert_eq!(first, reference);
        // Corrupt a committed shard and park a dead worker's stale
        // lease on another: the next worker must quarantine the first
        // and reclaim the second.
        let victim = dir.join(SHARD_DIR).join(shard_file_name(1));
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() - 9]).unwrap();
        let stale = LeaseInfo {
            pid: 4_000_000_000,
            token: 0x3,
            fingerprint: load_manifest(&dir).unwrap().fingerprint(),
            shard: 1,
            heartbeat_ms: now_ms().saturating_sub(60_000),
        };
        fs::write(dir.join(LEASE_DIR).join(lease_file_name(1)), stale.encode()).unwrap();
        let mut events = Vec::new();
        let (report, _, summary) =
            work_campaign(&dir, &work, &mut |e| events.push(e.clone())).unwrap();
        assert_eq!(report, reference, "reclaimed campaign reproduces the reference bytes");
        assert_eq!(summary.committed, 1);
        assert_eq!(summary.loaded, 2);
        assert_eq!(summary.counters.lease_breaks, 1);
        assert_eq!(summary.counters.lease_reclaims, 1);
        assert_eq!(summary.counters.shard_quarantines, 1);
        assert!(
            events.iter().any(|e| matches!(e, WorkEvent::Broke { shard: 1, .. })),
            "{events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, WorkEvent::Quarantined { shard: 1, .. })),
            "{events:?}"
        );
        assert!(dir.join(crate::QUARANTINE_DIR).join(shard_file_name(1)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn work_campaign_rejects_foreign_directories() {
        let dir = scratch("foreign");
        let err = work_campaign(&dir, &WorkOptions::default(), &mut |_| {}).unwrap_err();
        assert!(matches!(err, CampaignError::NotACampaign(_)), "{err}");
    }
}
