//! `sweep serve`: spawn and supervise N `sweep work` child processes
//! over a Unix domain socket.
//!
//! The supervisor owns no shard state — coordination lives entirely in
//! the lease files ([`crate::lease`]), so the socket is *telemetry
//! only*: workers report claims, commits, breaks and quarantines as
//! line-oriented text (and print them only once the socket is gone, so
//! each line shows once); the supervisor renders progress, keeps
//! per-worker shard counts, restarts children that die (up to a
//! restart budget, after which it degrades to fewer workers), and
//! kills the fleet when no *progress* event arrives for a stall
//! timeout (a worker parked on a hung syscall heartbeats forever —
//! only the supervisor can tell that nothing is moving).
//!
//! Losing the socket, the supervisor, or every worker never loses
//! work: after the fleet drains, the supervisor runs one in-process
//! [`work_campaign`] *heal pass* as the final worker. That pass breaks
//! any leases the dead children left behind, re-executes their shards,
//! and returns the merged report — so `serve_campaign` converges even
//! if every child is killed instantly, and the artifacts it writes are
//! byte-identical to a 1-process run (the convergence argument in
//! [`crate::lease`]).

use std::fs;
use std::io::{BufRead, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use prefender_obs::{ObsCounters, FAILPOINTS_ENV};

use crate::artifact::SweepReport;
use crate::checkpoint::{io_err, load_manifest, CampaignError, Manifest};
use crate::lease::{work_campaign, LeaseConfig, WorkEvent, WorkOptions, WorkSummary};

/// The supervisor's telemetry socket, inside the campaign directory.
/// (Unix socket paths are length-limited; keep campaign dirs short.)
pub const SERVE_SOCK: &str = "serve.sock";

/// Options for [`serve_campaign`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The `sweep` binary to spawn workers from (usually
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Worker processes to run.
    pub workers: usize,
    /// `--threads` passed to each worker.
    pub worker_threads: usize,
    /// Dead-worker restarts allowed before degrading to fewer workers.
    pub restart_budget: usize,
    /// Lease policy passed to workers and used by the heal pass.
    pub lease: LeaseConfig,
    /// Kill the fleet when no progress event (claim/commit/break/
    /// quarantine/exit) arrives for this long — hung workers heartbeat
    /// forever; stalls are visible only here.
    pub stall_timeout: Duration,
    /// Failpoint spec injected into workers (children otherwise run
    /// with the supervisor's failpoint env *removed*, so faults aimed
    /// at workers are explicit and never hit the supervisor).
    pub worker_failpoints: Option<String>,
    /// Suppress per-event progress lines (lifecycle and break/
    /// quarantine lines always print).
    pub quiet: bool,
}

impl ServeOptions {
    /// Defaults: 1 thread per worker, restart budget `2 × workers`,
    /// default lease policy, 60 s stall timeout.
    pub fn new(exe: impl Into<PathBuf>, workers: usize) -> Self {
        ServeOptions {
            exe: exe.into(),
            workers,
            worker_threads: 1,
            restart_budget: workers.saturating_mul(2),
            lease: LeaseConfig::default(),
            stall_timeout: Duration::from_secs(60),
            worker_failpoints: None,
            quiet: false,
        }
    }
}

/// One worker slot's history across restarts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Slot index (0-based).
    pub worker: usize,
    /// Every pid that occupied this slot (restarts append).
    pub pids: Vec<u32>,
    /// Shards committed by this slot across all its incarnations.
    pub committed: u64,
}

/// What a [`serve_campaign`] run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Worker slots requested.
    pub workers: usize,
    /// Processes spawned, including restarts.
    pub spawned: usize,
    /// Dead workers restarted.
    pub restarts: usize,
    /// Whether the restart budget ran out (finished with fewer workers).
    pub degraded: bool,
    /// Live workers killed by stall detection.
    pub stall_kills: usize,
    /// Per-slot pid/commit history.
    pub per_worker: Vec<WorkerReport>,
    /// Shards the supervisor's own heal pass had to execute.
    pub healed: u64,
    /// Lease/quarantine counters summed over worker `done` reports and
    /// the heal pass.
    pub counters: ObsCounters,
}

impl ServeSummary {
    /// One telemetry line, e.g. `4 workers (6 spawned, 2 restarts),
    /// 0 healed; leases: claims=16 renewals=3 breaks=2 reclaims=2
    /// quarantines=1`.
    pub fn render(&self) -> String {
        let c = &self.counters;
        format!(
            "{} workers ({} spawned, {} restarts{}), {} healed; leases: claims={} \
             renewals={} breaks={} reclaims={} quarantines={}",
            self.workers,
            self.spawned,
            self.restarts,
            if self.degraded { ", degraded" } else { "" },
            self.healed,
            c.lease_claims,
            c.lease_renewals,
            c.lease_breaks,
            c.lease_reclaims,
            c.shard_quarantines
        )
    }
}

/// The worker→supervisor hello: `hello <worker> <pid>`.
pub fn hello_line(worker: usize, pid: u32) -> String {
    format!("hello {worker} {pid}")
}

/// A [`WorkEvent`] as one telemetry protocol line.
pub fn event_line(event: &WorkEvent) -> String {
    match event {
        WorkEvent::Claimed { shard } => format!("claim {shard}"),
        WorkEvent::Committed { shard, done, total } => format!("commit {shard} {done} {total}"),
        WorkEvent::Broke { shard, holder_pid, age_ms } => {
            format!("break {shard} {holder_pid} {age_ms}")
        }
        WorkEvent::Quarantined { shard, .. } => format!("quarantine {shard}"),
        WorkEvent::Waiting { remaining } => format!("waiting {remaining}"),
    }
}

/// The worker's final report: `done <shards> <committed> <loaded>
/// <claims> <renewals> <breaks> <reclaims> <quarantines>`.
pub fn done_line(summary: &WorkSummary) -> String {
    let c = &summary.counters;
    format!(
        "done {} {} {} {} {} {} {} {}",
        summary.shards,
        summary.committed,
        summary.loaded,
        c.lease_claims,
        c.lease_renewals,
        c.lease_breaks,
        c.lease_reclaims,
        c.shard_quarantines
    )
}

/// A parsed worker telemetry line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Msg {
    Hello { worker: usize, pid: u32 },
    Claim { shard: usize },
    Commit { shard: usize, done: usize, total: usize },
    Broke { shard: usize, holder_pid: u32, age_ms: u64 },
    Quarantine { shard: usize },
    Waiting { remaining: usize },
    Done { summary: Box<WorkSummary> },
}

impl Msg {
    fn parse(line: &str) -> Option<Msg> {
        let mut parts = line.split_whitespace();
        let kind = parts.next()?;
        let mut next = || parts.next().and_then(|p| p.parse::<u64>().ok());
        let msg = match kind {
            "hello" => Msg::Hello { worker: next()? as usize, pid: next()? as u32 },
            "claim" => Msg::Claim { shard: next()? as usize },
            "commit" => Msg::Commit {
                shard: next()? as usize,
                done: next()? as usize,
                total: next()? as usize,
            },
            "break" => {
                Msg::Broke { shard: next()? as usize, holder_pid: next()? as u32, age_ms: next()? }
            }
            "quarantine" => Msg::Quarantine { shard: next()? as usize },
            "waiting" => Msg::Waiting { remaining: next()? as usize },
            "done" => Msg::Done {
                summary: Box::new(WorkSummary {
                    shards: next()? as usize,
                    committed: next()? as usize,
                    loaded: next()? as usize,
                    counters: ObsCounters {
                        lease_claims: next()?,
                        lease_renewals: next()?,
                        lease_breaks: next()?,
                        lease_reclaims: next()?,
                        shard_quarantines: next()?,
                        ..ObsCounters::default()
                    },
                }),
            },
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(msg)
    }
}

/// State shared between the supervise loop and per-connection readers.
struct Shared {
    /// Bumped on every *progress* event (not `waiting`) — the stall
    /// detector's signal.
    progress: AtomicU64,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// `(important, text)` lines for the supervisor to print.
    lines: Vec<(bool, String)>,
    /// Commits per worker slot.
    committed: Vec<u64>,
    /// Counters accumulated from worker `done` reports.
    counters: ObsCounters,
}

/// One socket connection: attribute lines to the slot named by its
/// hello, render them, and fold `done` reports into the shared state.
fn read_connection(stream: UnixStream, shared: Arc<Shared>) {
    let _ = stream.set_nonblocking(false);
    let reader = BufReader::new(stream);
    let mut slot: Option<usize> = None;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let Some(msg) = Msg::parse(&line) else { continue };
        if !matches!(msg, Msg::Waiting { .. }) {
            shared.progress.fetch_add(1, Ordering::Relaxed);
        }
        let mut inner = shared.inner.lock().unwrap();
        let who = slot.map_or_else(|| "worker ?".into(), |s| format!("worker {s}"));
        match msg {
            Msg::Hello { worker, pid } => {
                slot = Some(worker);
                inner.lines.push((false, format!("worker {worker}: online (pid {pid})")));
            }
            Msg::Claim { shard } => {
                inner.lines.push((false, format!("{who}: claimed shard {shard}")));
            }
            Msg::Commit { shard, done, total } => {
                if let Some(s) = slot {
                    if s < inner.committed.len() {
                        inner.committed[s] += 1;
                    }
                }
                inner
                    .lines
                    .push((false, format!("{who}: committed shard {shard} ({done}/{total})")));
            }
            Msg::Broke { shard, holder_pid, age_ms } => {
                inner.lines.push((
                    true,
                    format!(
                        "{who}: broke stale lease on shard {shard} \
                         (holder pid {holder_pid}, heartbeat {age_ms}ms old)"
                    ),
                ));
            }
            Msg::Quarantine { shard } => {
                inner.lines.push((true, format!("{who}: quarantined invalid shard {shard}")));
            }
            Msg::Waiting { remaining } => {
                inner.lines.push((false, format!("{who}: waiting ({remaining} shards held)")));
            }
            Msg::Done { summary } => {
                inner.counters.merge(&summary.counters);
                inner.lines.push((false, format!("{who}: done ({})", summary.render())));
            }
        }
    }
}

struct Slot {
    child: Option<Child>,
    pids: Vec<u32>,
}

/// Runs a campaign with `opts.workers` supervised child processes and
/// returns the merged report — the same bytes as a 1-process run. The
/// campaign manifest must already exist ([`crate::init_campaign`]).
/// Progress renders to stderr.
///
/// # Errors
///
/// Manifest/socket/spawn failures, or the heal pass failing — but a
/// child dying is *not* an error: it is restarted (within the budget)
/// or its work reclaimed by the survivors and the heal pass.
pub fn serve_campaign(
    dir: &Path,
    opts: &ServeOptions,
) -> Result<(SweepReport, Manifest, ServeSummary), CampaignError> {
    if opts.workers == 0 {
        return Err(CampaignError::Manifest("serve needs at least one worker".into()));
    }
    load_manifest(dir)?; // fail early with the good error; workers reload it
    let sock_path = dir.join(SERVE_SOCK);
    let _ = fs::remove_file(&sock_path);
    let listener = UnixListener::bind(&sock_path).map_err(io_err(&sock_path))?;
    listener.set_nonblocking(true).map_err(io_err(&sock_path))?;
    let shared = Arc::new(Shared {
        progress: AtomicU64::new(0),
        inner: Mutex::new(Inner { committed: vec![0; opts.workers], ..Inner::default() }),
    });
    let mut summary = ServeSummary { workers: opts.workers, ..ServeSummary::default() };
    let log = |important: bool, line: &str| {
        if important || !opts.quiet {
            eprintln!("sweep: serve: {line}");
        }
    };

    let spawn_worker = |slot: usize| -> std::io::Result<Child> {
        let mut cmd = Command::new(&opts.exe);
        cmd.arg("work")
            .arg(dir)
            .args(["--threads", &opts.worker_threads.to_string()])
            .args(["--lease-ttl-ms", &opts.lease.ttl_ms.to_string()])
            .args(["--sock".as_ref(), sock_path.as_os_str()])
            .args(["--worker-id", &slot.to_string()])
            .stdout(Stdio::null());
        cmd.env_remove(FAILPOINTS_ENV);
        if let Some(spec) = &opts.worker_failpoints {
            cmd.env(FAILPOINTS_ENV, spec);
        }
        cmd.spawn()
    };

    let mut slots: Vec<Slot> = Vec::with_capacity(opts.workers);
    for k in 0..opts.workers {
        let child = spawn_worker(k).map_err(io_err(&opts.exe))?;
        summary.spawned += 1;
        let mut slot = Slot { child: Some(child), pids: Vec::new() };
        if let Some(c) = &slot.child {
            slot.pids.push(c.id());
            log(false, &format!("worker {k}: spawned (pid {})", c.id()));
        }
        slots.push(slot);
    }

    let mut readers = Vec::new();
    let mut accept = || {
        while let Ok((stream, _)) = listener.accept() {
            let shared = shared.clone();
            readers.push(thread::spawn(move || read_connection(stream, shared)));
        }
    };
    let mut last_progress = Instant::now();
    let mut seen_progress = 0u64;
    loop {
        accept();
        for (important, line) in shared.inner.lock().unwrap().lines.drain(..) {
            log(important, &line);
        }
        let mut live = 0usize;
        for (k, slot) in slots.iter_mut().enumerate() {
            let Some(child) = slot.child.as_mut() else { continue };
            match child.try_wait() {
                Ok(None) => live += 1,
                Ok(Some(status)) => {
                    let pid = child.id();
                    slot.child = None;
                    last_progress = Instant::now();
                    if status.success() {
                        log(false, &format!("worker {k}: finished (pid {pid})"));
                    } else if summary.restarts < opts.restart_budget {
                        summary.restarts += 1;
                        log(
                            true,
                            &format!(
                                "worker {k}: died (pid {pid}, {status}); restarting \
                                 ({}/{} restarts)",
                                summary.restarts, opts.restart_budget
                            ),
                        );
                        match spawn_worker(k) {
                            Ok(c) => {
                                summary.spawned += 1;
                                slot.pids.push(c.id());
                                slot.child = Some(c);
                                live += 1;
                            }
                            Err(e) => {
                                summary.degraded = true;
                                log(true, &format!("worker {k}: respawn failed ({e}); degrading"));
                            }
                        }
                    } else {
                        summary.degraded = true;
                        log(
                            true,
                            &format!(
                                "worker {k}: died (pid {pid}, {status}); restart budget \
                                 exhausted — degrading to fewer workers"
                            ),
                        );
                    }
                }
                Err(_) => {
                    slot.child = None;
                }
            }
        }
        if live == 0 {
            break;
        }
        let progress = shared.progress.load(Ordering::Relaxed);
        if progress != seen_progress {
            seen_progress = progress;
            last_progress = Instant::now();
        } else if last_progress.elapsed() > opts.stall_timeout {
            log(
                true,
                &format!(
                    "no progress for {:.1}s; killing {live} stalled worker(s)",
                    last_progress.elapsed().as_secs_f64()
                ),
            );
            for slot in &mut slots {
                if let Some(child) = slot.child.as_mut() {
                    let _ = child.kill();
                    summary.stall_kills += 1;
                }
            }
            last_progress = Instant::now();
        }
        thread::sleep(Duration::from_millis(25));
    }
    // Every worker has exited, so every connection it made is queued
    // and every reader runs to end of file: once they are joined, the
    // lines and `done` counters are complete.
    accept();
    for reader in readers {
        reader.join().expect("telemetry readers do not panic");
    }
    for (important, line) in shared.inner.lock().unwrap().lines.drain(..) {
        log(important, &line);
    }

    // Heal pass: the supervisor is the last worker. With a healthy
    // fleet this only validates and merges; with dead children it
    // breaks their leases and re-executes whatever is missing.
    let heal_opts = WorkOptions { threads: opts.worker_threads.max(1), lease: opts.lease };
    let mut heal_events = |event: &WorkEvent| match event {
        WorkEvent::Broke { shard, holder_pid, age_ms } => log(
            true,
            &format!(
                "heal: broke stale lease on shard {shard} \
                 (holder pid {holder_pid}, heartbeat {age_ms}ms old)"
            ),
        ),
        WorkEvent::Quarantined { shard, why } => {
            log(true, &format!("heal: quarantined invalid shard {shard}: {why}"));
        }
        WorkEvent::Committed { shard, done, total } => {
            log(false, &format!("heal: committed shard {shard} ({done}/{total})"));
        }
        _ => {}
    };
    let (report, manifest, healed) = work_campaign(dir, &heal_opts, &mut heal_events)?;
    summary.healed = healed.committed as u64;
    {
        let inner = shared.inner.lock().unwrap();
        summary.counters = inner.counters;
        summary.per_worker = (0..opts.workers)
            .map(|k| WorkerReport {
                worker: k,
                pids: slots[k].pids.clone(),
                committed: *inner.committed.get(k).unwrap_or(&0),
            })
            .collect();
    }
    summary.counters.merge(&healed.counters);
    drop(listener);
    let _ = fs::remove_file(&sock_path);
    Ok((report, manifest, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_lines_round_trip() {
        assert_eq!(Msg::parse(&hello_line(3, 999)), Some(Msg::Hello { worker: 3, pid: 999 }));
        let events = [
            (WorkEvent::Claimed { shard: 7 }, Msg::Claim { shard: 7 }),
            (
                WorkEvent::Committed { shard: 7, done: 8, total: 16 },
                Msg::Commit { shard: 7, done: 8, total: 16 },
            ),
            (
                WorkEvent::Broke { shard: 2, holder_pid: 41, age_ms: 777 },
                Msg::Broke { shard: 2, holder_pid: 41, age_ms: 777 },
            ),
            (
                WorkEvent::Quarantined { shard: 5, why: "torn footer".into() },
                Msg::Quarantine { shard: 5 },
            ),
            (WorkEvent::Waiting { remaining: 4 }, Msg::Waiting { remaining: 4 }),
        ];
        for (event, expected) in events {
            assert_eq!(Msg::parse(&event_line(&event)), Some(expected), "{event:?}");
        }
    }

    #[test]
    fn done_lines_carry_the_counters() {
        let summary = WorkSummary {
            shards: 16,
            committed: 9,
            loaded: 7,
            counters: ObsCounters {
                lease_claims: 10,
                lease_renewals: 3,
                lease_breaks: 2,
                lease_reclaims: 1,
                shard_quarantines: 1,
                ..ObsCounters::default()
            },
        };
        let Some(Msg::Done { summary: parsed }) = Msg::parse(&done_line(&summary)) else {
            panic!("done line must parse: {}", done_line(&summary));
        };
        assert_eq!(parsed.committed, 9);
        assert_eq!(parsed.loaded, 7);
        assert_eq!(parsed.counters.lease_claims, 10);
        assert_eq!(parsed.counters.lease_breaks, 2);
        assert_eq!(parsed.counters.shard_quarantines, 1);
        assert_eq!(parsed.shards, 16);
    }

    #[test]
    fn junk_lines_are_ignored_not_fatal() {
        for junk in ["", "bogus 1 2", "commit", "commit x y z", "hello 1 2 3 extra"] {
            assert_eq!(Msg::parse(junk), None, "{junk:?}");
        }
    }

    #[test]
    fn zero_workers_is_rejected() {
        let opts = ServeOptions::new("/bin/false", 0);
        let err = serve_campaign(Path::new("/nonexistent"), &opts).unwrap_err();
        assert!(matches!(err, CampaignError::Manifest(_)), "{err}");
    }
}
