//! `sweep serve`: spawn and supervise N `sweep work` child processes,
//! reading their stderr.
//!
//! The supervisor owns no shard state — coordination lives entirely in
//! the lease files ([`crate::lease`]). Each worker prints its claims,
//! commits, lease breaks, quarantines and closing summary as
//! `sweep: work: …` lines on stderr. One reader thread per child pipe
//! hands them to the supervise loop, which forwards each line as
//! `worker K: …` (the pipe names the worker), counts per-worker commits,
//! sums the lease counters of the summary lines, restarts children that
//! die (up to a restart budget, after which it degrades to fewer
//! workers), and kills the fleet when no *progress* line arrives for a
//! stall timeout (a worker parked on a hung syscall heartbeats forever —
//! only the supervisor can tell that nothing is moving).
//!
//! Losing the supervisor or every worker never loses work: a worker
//! whose stderr closes keeps going, and after the fleet drains the
//! supervisor runs one in-process [`work_campaign`] *heal pass* as the
//! final worker. That pass breaks any leases the dead children left
//! behind, re-executes their shards, and returns the merged report — so
//! `serve_campaign` converges even if every child is killed instantly,
//! and the artifacts it writes are byte-identical to a 1-process run
//! (the convergence argument in [`crate::lease`]).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use prefender_obs::{ObsCounters, FAILPOINTS_ENV};

use crate::artifact::SweepReport;
use crate::checkpoint::{io_err, load_manifest, CampaignError, Manifest};
use crate::lease::{lease_counters, work_campaign, LeaseConfig, WorkEvent, WorkOptions};

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
    /// Kill the fleet when no progress line (any worker line but
    /// `waiting`, or a worker's exit) arrives for this long — hung
    /// workers heartbeat forever; stalls are visible only here.
    pub stall_timeout: Duration,
    /// Failpoint spec injected into workers (children otherwise run
    /// with the supervisor's failpoint env *removed*, so faults aimed
    /// at workers are explicit and never hit the supervisor).
    pub worker_failpoints: Option<String>,
    /// Suppress per-event progress lines (lifecycle faults, breaks,
    /// quarantines and unrecognised worker lines always print).
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
    /// Lease/quarantine counters summed over the workers' summary lines
    /// and the heal pass.
    pub counters: ObsCounters,
}

impl ServeSummary {
    /// One telemetry line, e.g. `4 workers (6 spawned, 2 restarts),
    /// 0 healed; leases: claims=16 renewals=3 breaks=2 reclaims=2
    /// quarantines=1`.
    pub fn render(&self) -> String {
        format!(
            "{} workers ({} spawned, {} restarts{}), {} healed; leases: {}",
            self.workers,
            self.spawned,
            self.restarts,
            if self.degraded { ", degraded" } else { "" },
            self.healed,
            lease_counters(&self.counters)
        )
    }
}

/// What the supervisor reads in one line of a worker's stderr.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heard {
    Claimed(usize),
    Committed(usize),
    Broke(usize),
    Quarantined(usize),
    Waiting,
    /// The worker's closing [`crate::WorkSummary::render`] line.
    Summary(ObsCounters),
    /// Anything else: a panic, a failpoint notice, an error.
    Other,
}

impl Heard {
    /// Reads a `sweep: work: …` line: a [`WorkEvent`] or the summary.
    fn of(line: &str) -> Heard {
        let Some(text) = line.strip_prefix("sweep: work: ") else { return Heard::Other };
        let shard = text
            .split_once("shard ")
            .and_then(|(_, rest)| rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok());
        match (text.split(' ').next(), shard) {
            (Some("claimed"), Some(k)) => Heard::Claimed(k),
            (Some("committed"), Some(k)) => Heard::Committed(k),
            (Some("broke"), Some(k)) => Heard::Broke(k),
            (Some("quarantined"), Some(k)) => Heard::Quarantined(k),
            (Some("waiting"), _) => Heard::Waiting,
            _ => text
                .split_once("; leases: ")
                .and_then(|(_, leases)| read_counters(leases))
                .map_or(Heard::Other, Heard::Summary),
        }
    }

    /// Whether `--quiet` still prints the line.
    fn important(self) -> bool {
        matches!(self, Heard::Broke(_) | Heard::Quarantined(_) | Heard::Other)
    }
}

/// Parses [`lease_counters`]' `claims=… quarantines=…` back.
fn read_counters(text: &str) -> Option<ObsCounters> {
    let mut c = ObsCounters::default();
    for pair in text.split(' ') {
        let (key, value) = pair.split_once('=')?;
        let counter = match key {
            "claims" => &mut c.lease_claims,
            "renewals" => &mut c.lease_renewals,
            "breaks" => &mut c.lease_breaks,
            "reclaims" => &mut c.lease_reclaims,
            "quarantines" => &mut c.shard_quarantines,
            _ => return None,
        };
        *counter = value.parse().ok()?;
    }
    Some(c)
}

struct Slot {
    child: Option<Child>,
    reader: Option<JoinHandle<()>>,
    pids: Vec<u32>,
    committed: u64,
}

/// Runs a campaign with `opts.workers` supervised child processes and
/// returns the merged report — the same bytes as a 1-process run. The
/// campaign manifest must already exist ([`crate::init_campaign`]).
/// Progress renders to stderr.
///
/// # Errors
///
/// Manifest/spawn failures, or the heal pass failing — but a child
/// dying is *not* an error: it is restarted (within the budget) or its
/// work reclaimed by the survivors and the heal pass.
pub fn serve_campaign(
    dir: &Path,
    opts: &ServeOptions,
) -> Result<(SweepReport, Manifest, ServeSummary), CampaignError> {
    if opts.workers == 0 {
        return Err(CampaignError::Manifest("serve needs at least one worker".into()));
    }
    load_manifest(dir)?; // fail early with the good error; workers reload it
    let mut summary = ServeSummary { workers: opts.workers, ..ServeSummary::default() };
    let log = |important: bool, line: &str| {
        if important || !opts.quiet {
            eprintln!("sweep: serve: {line}");
        }
    };

    // Each child's reader thread sends `(slot, Some(line))` for every
    // stderr line, then `(slot, None)` at end of file.
    let (sender, lines) = mpsc::channel::<(usize, Option<String>)>();
    let spawn_worker = |slot: usize| -> std::io::Result<(Child, JoinHandle<()>)> {
        let mut cmd = Command::new(&opts.exe);
        cmd.arg("work")
            .arg(dir)
            .args(["--threads", &opts.worker_threads.to_string()])
            .args(["--lease-ttl-ms", &opts.lease.ttl_ms.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        cmd.env_remove(FAILPOINTS_ENV);
        if let Some(spec) = &opts.worker_failpoints {
            cmd.env(FAILPOINTS_ENV, spec);
        }
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("the worker's stderr is piped");
        let sender = sender.clone();
        let reader = thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = sender.send((slot, Some(line)));
            }
            let _ = sender.send((slot, None));
        });
        Ok((child, reader))
    };

    let mut slots: Vec<Slot> = Vec::with_capacity(opts.workers);
    for k in 0..opts.workers {
        let (child, reader) = spawn_worker(k).map_err(io_err(&opts.exe))?;
        summary.spawned += 1;
        log(false, &format!("worker {k}: spawned (pid {})", child.id()));
        let pids = vec![child.id()];
        slots.push(Slot { child: Some(child), reader: Some(reader), pids, committed: 0 });
    }

    let mut live = opts.workers;
    let mut last_progress = Instant::now();
    while live > 0 {
        let wait = opts.stall_timeout.saturating_sub(last_progress.elapsed());
        // The loop holds a sender, so the only error is the timeout.
        let Ok((k, line)) = lines.recv_timeout(wait) else {
            log(
                true,
                &format!(
                    "no progress for {:.1}s; killing {live} stalled worker(s)",
                    last_progress.elapsed().as_secs_f64()
                ),
            );
            for child in slots.iter_mut().filter_map(|s| s.child.as_mut()) {
                let _ = child.kill();
                summary.stall_kills += 1;
            }
            last_progress = Instant::now();
            continue;
        };
        let slot = &mut slots[k];
        if let Some(line) = line {
            let heard = Heard::of(&line);
            match heard {
                Heard::Committed(_) => slot.committed += 1,
                Heard::Summary(counters) => summary.counters.merge(&counters),
                _ => {}
            }
            if heard != Heard::Waiting {
                last_progress = Instant::now();
            }
            let text = line.strip_prefix("sweep: work: ").unwrap_or(&line);
            log(heard.important(), &format!("worker {k}: {text}"));
            continue;
        }
        // End of file: the worker has exited or is exiting; reap it.
        live -= 1;
        last_progress = Instant::now();
        if let Some(reader) = slot.reader.take() {
            reader.join().expect("a stderr reader does not panic");
        }
        let Some(mut child) = slot.child.take() else { continue };
        let pid = child.id();
        let Ok(status) = child.wait() else { continue };
        if status.success() {
            log(false, &format!("worker {k}: finished (pid {pid})"));
        } else if summary.restarts < opts.restart_budget {
            summary.restarts += 1;
            log(
                true,
                &format!(
                    "worker {k}: died (pid {pid}, {status}); restarting ({}/{} restarts)",
                    summary.restarts, opts.restart_budget
                ),
            );
            match spawn_worker(k) {
                Ok((c, reader)) => {
                    summary.spawned += 1;
                    slot.pids.push(c.id());
                    slot.child = Some(c);
                    slot.reader = Some(reader);
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
                    "worker {k}: died (pid {pid}, {status}); restart budget exhausted — \
                     degrading to fewer workers"
                ),
            );
        }
    }

    // Heal pass: the supervisor is the last worker. With a healthy
    // fleet this only validates and merges; with dead children it
    // breaks their leases and re-executes whatever is missing.
    let heal_opts = WorkOptions { threads: opts.worker_threads.max(1), lease: opts.lease };
    let mut heal_events = |event: &WorkEvent| log(event.is_fault(), &format!("heal: {event}"));
    let (report, manifest, healed) = work_campaign(dir, &heal_opts, &mut heal_events)?;
    summary.healed = healed.committed as u64;
    summary.counters.merge(&healed.counters);
    summary.per_worker = slots
        .into_iter()
        .enumerate()
        .map(|(worker, s)| WorkerReport { worker, pids: s.pids, committed: s.committed })
        .collect();
    Ok((report, manifest, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_lines_round_trip() {
        let events = [
            (WorkEvent::Claimed { shard: 7 }, Heard::Claimed(7)),
            (WorkEvent::Committed { shard: 7, done: 8, total: 16 }, Heard::Committed(7)),
            (WorkEvent::Broke { shard: 2, holder_pid: 41, age_ms: 777 }, Heard::Broke(2)),
            (
                WorkEvent::Quarantined { shard: 5, why: "torn footer at shard 9".into() },
                Heard::Quarantined(5),
            ),
            (WorkEvent::Waiting { remaining: 4 }, Heard::Waiting),
        ];
        for (event, expected) in events {
            let line = format!("sweep: work: {event}");
            assert_eq!(Heard::of(&line), expected, "{line}");
            assert_eq!(expected.important(), event.is_fault(), "{line}");
        }
    }

    #[test]
    fn done_lines_carry_the_counters() {
        let counters = ObsCounters {
            lease_claims: 10,
            lease_renewals: 3,
            lease_breaks: 2,
            lease_reclaims: 1,
            shard_quarantines: 4,
            ..ObsCounters::default()
        };
        let done = crate::WorkSummary { shards: 16, committed: 9, loaded: 7, counters };
        let line = format!("sweep: work: {}", done.render());
        assert_eq!(Heard::of(&line), Heard::Summary(counters), "{line}");
        assert!(!Heard::Summary(counters).important());
    }

    /// Junk is not counted and not fatal: a panic, an error or a torn
    /// summary comes back as `Other`, which is printed, never dropped.
    #[test]
    fn junk_lines_are_ignored_not_fatal() {
        for junk in [
            "",
            "bogus 1 2",
            "thread 'main' panicked at crates/sweep/src/lease.rs:1:1:",
            "sweep: work: campaign directory has no manifest",
            "sweep: work: 16 shards: 9 committed here, 7 loaded; leases: claims=10 renewals=",
            "sweep: work: committed shard x (1/2)",
        ] {
            assert_eq!(Heard::of(junk), Heard::Other, "{junk:?}");
            assert!(Heard::Other.important());
        }
    }

    #[test]
    fn zero_workers_is_rejected() {
        let opts = ServeOptions::new("/bin/false", 0);
        let err = serve_campaign(Path::new("/nonexistent"), &opts).unwrap_err();
        assert!(matches!(err, CampaignError::Manifest(_)), "{err}");
    }
}
