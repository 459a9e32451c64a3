//! Out-of-process multi-worker campaigns: real `sweep serve` / `sweep
//! work` processes racing on one manifest, with genuine `kill -9`s and
//! on-disk corruption injected mid-run. The acceptance bar is the one
//! the lease protocol is designed around: whatever the kill schedule,
//! the campaign converges to artifacts byte-identical to an
//! uninterrupted single-process run — at 1 thread and at 8.
//!
//! Worker processes are parked mid-shard via the `shard.write=hang@N`
//! failpoint (claimed lease held, heartbeat alive) so the test can
//! deliver SIGKILLs at a deterministic phase; the supervisor's stall
//! detector, restart budget, and heal pass then have to finish the job.
#![cfg(unix)]

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prefender_sweep::{
    init_campaign, lease_file_name, run_sweep, serve_campaign, AttackCase, DefenseConfig,
    DefensePoint, LeaseConfig, ServeOptions, SweepGrid, SweepOptions, LEASE_DIR, SHARD_DIR,
};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

/// The grid every run in this file uses: 16 scenarios (1 attack kind ×
/// 4 noise mixes × 2 defenses × 2 seeds), small enough for debug builds.
const GRID: &[&str] = &["--attacks", "fr", "--defenses", "base,full", "--seeds", "2"];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("prefender-multiproc-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs an uninterrupted, unsharded reference sweep and returns its
/// artifact bytes.
fn reference(dir: &Path, threads: &str) -> (Vec<u8>, Vec<u8>) {
    let status = Command::new(SWEEP)
        .args(GRID)
        .args(["--threads", threads, "--out", dir.to_str().unwrap(), "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn reference sweep");
    assert!(status.success(), "reference sweep failed: {status}");
    (
        fs::read(dir.join("sweep.json")).expect("reference json"),
        fs::read(dir.join("sweep.csv")).expect("reference csv"),
    )
}

fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join(SHARD_DIR))
        .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    files.sort();
    files
}

/// Pids currently named in decodable lease files — the workers holding
/// (or parked on) a shard right now.
fn lease_pids(dir: &Path) -> Vec<u32> {
    let mut pids = Vec::new();
    let Ok(rd) = fs::read_dir(dir.join(LEASE_DIR)) else { return pids };
    for entry in rd.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "lease") {
            continue;
        }
        let Ok(text) = fs::read_to_string(&path) else { continue };
        if let Some(pid) =
            text.lines().find_map(|l| l.strip_prefix("pid=")).and_then(|v| v.parse::<u32>().ok())
        {
            pids.push(pid);
        }
    }
    pids.sort_unstable();
    pids.dedup();
    pids
}

/// Delivers a real SIGKILL to `pid` via the shell builtin.
fn kill_dash_9(pid: u32) -> bool {
    Command::new("sh")
        .args(["-c", &format!("kill -9 {pid}")])
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Spawns a thread that drains a child's stderr into a shared buffer so
/// the pipe never fills while the test is busy killing workers.
fn drain_stderr(child: &mut Child) -> Arc<Mutex<String>> {
    let stderr = child.stderr.take().expect("piped stderr");
    let buf = Arc::new(Mutex::new(String::new()));
    let sink = Arc::clone(&buf);
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let mut out = sink.lock().unwrap();
            out.push_str(&line);
            out.push('\n');
        }
    });
    buf
}

fn wait_with_deadline(child: &mut Child, secs: u64, what: &str) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} did not finish within {secs}s");
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn corrupt_tail(path: &Path) {
    let bytes = fs::read(path).expect("read shard");
    assert!(bytes.len() > 9, "shard too small to corrupt");
    fs::write(path, &bytes[..bytes.len() - 9]).expect("truncate shard");
}

fn assert_artifacts_equal(dir: &Path, json: &[u8], csv: &[u8], what: &str) {
    assert_eq!(
        fs::read(dir.join("sweep.json")).expect("campaign json"),
        json,
        "{what}: sweep.json differs from the uninterrupted run"
    );
    assert_eq!(
        fs::read(dir.join("sweep.csv")).expect("campaign csv"),
        csv,
        "{what}: sweep.csv differs from the uninterrupted run"
    );
}

/// The headline acceptance test: `sweep serve` with 4 workers, two of
/// them SIGKILLed while parked mid-shard holding live leases, plus one
/// committed shard corrupted on disk mid-run. The supervisor must
/// converge (restarts + stale-lease breaks + quarantine + heal pass)
/// and the final artifacts must be byte-identical to uninterrupted
/// 1-thread and 8-thread runs.
#[test]
fn serve_survives_sigkilled_workers_and_a_corrupted_shard() {
    let clean1 = scratch("serve-clean1");
    let clean8 = scratch("serve-clean8");
    let camp = scratch("serve-camp");
    let (json, csv) = reference(&clean1, "1");
    let (json8, csv8) = reference(&clean8, "8");
    assert_eq!(json, json8, "references must agree across thread counts");
    assert_eq!(csv, csv8, "references must agree across thread counts");

    // Every worker hangs at its own 3rd shard write: lease claimed,
    // heartbeat alive, shard file not yet committed — the exact state a
    // SIGKILL mid-shard leaves behind. Shard size 1 → 16 shards, so the
    // first generation commits 8 shards before all four workers park.
    let mut serve = Command::new(SWEEP)
        .args(["serve", camp.to_str().unwrap(), "--workers", "4"])
        .args(["--restart-budget", "4", "--lease-ttl-ms", "400"])
        .args(["--stall-timeout-ms", "3000"])
        .args(["--worker-failpoints", "shard.write=hang@3"])
        .args(["--shard-size", "1"])
        .args(GRID)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sweep serve");
    let stderr = drain_stderr(&mut serve);

    // Wait for the parked-mid-shard state: enough shards committed that
    // workers are into their 3rd claim, with at least two leases held.
    let supervisor_pid = serve.id();
    let deadline = Instant::now() + Duration::from_secs(120);
    let victims = loop {
        assert!(Instant::now() < deadline, "workers never parked: {}", stderr.lock().unwrap());
        assert!(
            serve.try_wait().expect("poll serve").is_none(),
            "serve exited before the kill: {}",
            stderr.lock().unwrap()
        );
        let pids: Vec<u32> =
            lease_pids(&camp).into_iter().filter(|&p| p != supervisor_pid).collect();
        if shard_files(&camp).len() >= 6 && pids.len() >= 2 {
            break pids;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let killed: Vec<u32> = victims.into_iter().take(2).filter(|&pid| kill_dash_9(pid)).collect();
    assert_eq!(killed.len(), 2, "two workers must take a real SIGKILL");

    // A torn committed shard on top: quarantined and re-executed, never
    // trusted half-written.
    corrupt_tail(&shard_files(&camp)[0]);

    let status = wait_with_deadline(&mut serve, 240, "sweep serve");
    let log = stderr.lock().unwrap().clone();
    assert!(status.success(), "serve must converge: {status}\n{log}");
    assert!(log.contains("broke stale lease"), "no stale-lease break telemetry:\n{log}");
    assert!(log.contains("quarantined"), "no quarantine telemetry:\n{log}");
    assert!(log.contains("restarting"), "no worker-restart telemetry:\n{log}");

    assert_artifacts_equal(&camp, &json, &csv, "serve after 2×SIGKILL + corruption");

    fs::remove_dir_all(&clean1).unwrap();
    fs::remove_dir_all(&clean8).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}

/// A fault-free `serve_campaign` with 2 workers and 4-scenario shards:
/// the report matches the 1-thread in-process run, and the summary
/// accounts for every shard — each was committed by exactly one worker
/// or by the heal pass — with no lease faults and no restarts.
#[test]
fn fault_free_serve_accounts_for_every_shard() {
    let camp = scratch("serve-count");
    let grid = SweepGrid {
        attacks: AttackCase::figure8_panels()[..3].to_vec(),
        defenses: vec![
            DefensePoint::new(DefenseConfig::None),
            DefensePoint::new(DefenseConfig::Full),
        ],
        seeds: 4,
        ..SweepGrid::empty()
    };
    let opts = SweepOptions { threads: 1, campaign_seed: 0x5EED };
    let shards = init_campaign(&camp, &grid, &opts, 4).expect("init campaign").plan().n_shards();
    assert_eq!(shards, 6);
    let mut serve = ServeOptions::new(SWEEP, 2);
    serve.quiet = true;
    let (report, _, summary) = serve_campaign(&camp, &serve).expect("serve converges");
    assert_eq!(report, run_sweep(&grid, &opts), "serve must match the in-process run");
    let committed: u64 = summary.per_worker.iter().map(|w| w.committed).sum();
    assert_eq!(committed + summary.healed, shards as u64, "{summary:?}");
    let c = &summary.counters;
    assert!(c.lease_claims >= shards as u64, "{summary:?}");
    assert_eq!(
        (summary.restarts, c.lease_breaks, c.lease_reclaims, c.shard_quarantines),
        (0, 0, 0, 0),
        "{summary:?}"
    );
    fs::remove_dir_all(&camp).unwrap();
}

/// A supervised worker prints its events on its own stderr, which only
/// `serve` reads: every commit shows exactly once, as a `worker K:`
/// line — and not at all under `serve --quiet`.
#[test]
fn serve_prints_each_commit_once() {
    for quiet in [false, true] {
        let camp = scratch(if quiet { "serve-quiet" } else { "serve-loud" });
        let mut serve = Command::new(SWEEP);
        serve.args(["serve", camp.to_str().unwrap(), "--workers", "2", "--shard-size", "2"]);
        serve.args(GRID).args(quiet.then_some("--quiet"));
        let out = serve.stdout(Stdio::null()).output().expect("run sweep serve");
        let log = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "serve failed: {}\n{log}", out.status);
        let commits: Vec<&str> = log.lines().filter(|l| l.contains("committed shard")).collect();
        let expected = if quiet { 0 } else { 8 };
        assert_eq!(commits.len(), expected, "quiet={quiet}:\n{log}");
        for k in 0..expected {
            let shard = format!("committed shard {k} (");
            assert_eq!(commits.iter().filter(|l| l.contains(&shard)).count(), 1, "{log}");
        }
        for line in &commits {
            assert!(
                ["sweep: serve: worker 0: ", "sweep: serve: worker 1: "]
                    .iter()
                    .any(|w| line.starts_with(w)),
                "a commit line not forwarded from a worker: {line}\n{log}"
            );
        }
        fs::remove_dir_all(&camp).unwrap();
    }
}

/// Aborts a sharded run after its first commit, so the campaign exists
/// in `camp` with 1 of 8 shards done — built by the same CLI grid
/// parsing the reference uses.
fn aborted_campaign(camp: &Path) {
    let status = Command::new(SWEEP)
        .args(GRID)
        .args(["--threads", "1", "--shard-size", "2", "--out", camp.to_str().unwrap(), "--quiet"])
        .env("PREFENDER_FAILPOINTS", "shard.commit=kill@1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn sharded sweep");
    assert!(!status.success(), "the kill failpoint must take the process down");
    assert_eq!(shard_files(camp).len(), 1, "one shard committed before the abort");
}

/// `--resume` runs the shard loop without a lease. A `sweep work` killed
/// right after a commit leaves its fresh lease behind; the resume must
/// neither wait out that lease's TTL nor break it, and must not touch it.
#[test]
fn resume_ignores_a_dead_workers_lease() {
    let clean = scratch("lease-free-clean");
    let camp = scratch("lease-free-camp");
    let (json, csv) = reference(&clean, "1");
    aborted_campaign(&camp);
    assert!(!camp.join(LEASE_DIR).exists(), "a --shard-size run takes no lease");

    // The worker loads shard 0, then dies right after committing shard 1,
    // still holding that shard's lease.
    let status = Command::new(SWEEP)
        .args(["work", camp.to_str().unwrap()])
        .env("PREFENDER_FAILPOINTS", "shard.commit=kill@1")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn sweep work");
    assert!(!status.success(), "the kill failpoint must take the worker down");
    let lease = camp.join(LEASE_DIR).join(lease_file_name(1));
    let held = fs::read(&lease).expect("the dead worker's lease is left behind");

    let began = Instant::now();
    let out = Command::new(SWEEP)
        .args(["--resume", camp.to_str().unwrap(), "--threads", "1", "--quiet"])
        .stdout(Stdio::null())
        .output()
        .expect("spawn resume");
    let took = began.elapsed();
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "resume failed: {}\n{log}", out.status);
    assert!(
        log.lines().any(
            |l| l == "sweep: resume: 8 shards: 2 skipped (complete), 0 quarantined, 6 executed"
        ),
        "{log}"
    );
    assert!(took < Duration::from_millis(LeaseConfig::default().ttl_ms), "resume took {took:?}");
    assert_eq!(fs::read(&lease).expect("the lease survives"), held, "the lease must not change");
    let left: Vec<_> = fs::read_dir(camp.join(LEASE_DIR))
        .expect("lease dir")
        .map(|e| e.expect("lease dir entry").file_name())
        .collect();
    assert_eq!(left, [lease_file_name(1).as_str()], "no lease was broken or added");
    assert_artifacts_equal(&camp, &json, &csv, "a resume past a dead worker's lease");

    fs::remove_dir_all(&clean).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}

/// Two fault-free `sweep work` processes racing on one half-finished
/// campaign: both must exit cleanly and write identical artifacts.
#[test]
fn concurrent_work_processes_finish_an_aborted_campaign() {
    let clean = scratch("work-clean");
    let camp = scratch("work-camp");
    let (json, csv) = reference(&clean, "2");
    aborted_campaign(&camp);

    let spawn_worker = || {
        Command::new(SWEEP)
            .args(["work", camp.to_str().unwrap(), "--threads", "2"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn sweep work")
    };
    let mut a = spawn_worker();
    let mut b = spawn_worker();
    let (log_a, log_b) = (drain_stderr(&mut a), drain_stderr(&mut b));
    let status_a = wait_with_deadline(&mut a, 240, "worker a");
    let status_b = wait_with_deadline(&mut b, 240, "worker b");
    let (log_a, log_b) = (log_a.lock().unwrap().clone(), log_b.lock().unwrap().clone());
    assert!(status_a.success(), "worker a failed: {status_a}\n{log_a}");
    assert!(status_b.success(), "worker b failed: {status_b}\n{log_b}");
    assert!(log_a.contains("sweep: work: 8 shards:"), "{log_a}");
    assert!(log_b.contains("sweep: work: 8 shards:"), "{log_b}");

    assert_artifacts_equal(&camp, &json, &csv, "two concurrent workers");

    fs::remove_dir_all(&clean).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}

/// A worker whose stderr reader is gone — a supervisor that died —
/// still finishes the campaign: a failed stderr write is not fatal.
#[test]
fn a_worker_outlives_its_closed_stderr() {
    let clean = scratch("closed-clean");
    let camp = scratch("closed-camp");
    let (json, csv) = reference(&clean, "1");
    aborted_campaign(&camp);

    let mut worker = Command::new(SWEEP)
        .args(["work", camp.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sweep work");
    drop(worker.stderr.take());
    let status = wait_with_deadline(&mut worker, 240, "sweep work");
    assert!(status.success(), "a closed stderr must not stop the worker: {status}");
    assert_artifacts_equal(&camp, &json, &csv, "a worker with a closed stderr");

    fs::remove_dir_all(&clean).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}
