//! Out-of-process crash-resume: a real `sweep` child process is killed
//! mid-campaign (via the failpoint harness), one committed shard is
//! corrupted on top, and `sweep --resume` must still produce artifacts
//! that `cmp`-equal an uninterrupted single-process run — at 1 thread
//! and at 8.
//!
//! Two kill mechanisms are exercised:
//! * `shard.commit=kill@N` aborts the process from inside (SIGABRT at a
//!   deterministic point);
//! * `shard.commit=hang@N` parks the process so the test can deliver a
//!   genuine `kill -9` (SIGKILL) from outside — nothing in the child
//!   gets to clean up.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use prefender_sweep::{MANIFEST_NAME, SHARD_DIR};

const SWEEP: &str = env!("CARGO_BIN_EXE_sweep");

/// The grid every run in this file uses: 16 scenarios (1 attack kind ×
/// 4 noise mixes × 2 defenses × 2 seeds), small enough for debug builds.
const GRID: &[&str] = &["--attacks", "fr", "--defenses", "base,full", "--seeds", "2"];

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prefender-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sweep_cmd(extra: &[&str]) -> Command {
    let mut cmd = Command::new(SWEEP);
    cmd.args(GRID).args(extra).arg("--quiet");
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    cmd
}

/// Runs an uninterrupted, unsharded reference sweep and returns its
/// artifact bytes.
fn reference(dir: &Path, threads: &str) -> (Vec<u8>, Vec<u8>) {
    let status = sweep_cmd(&["--threads", threads, "--out", dir.to_str().unwrap()])
        .status()
        .expect("spawn reference sweep");
    assert!(status.success(), "reference sweep failed: {status}");
    (
        fs::read(dir.join("sweep.json")).expect("reference json"),
        fs::read(dir.join("sweep.csv")).expect("reference csv"),
    )
}

/// The committed shard files. A `write_atomic` temporary of a shard still
/// being written is not one: counting it would let a test kill the child
/// before that shard commits and then corrupt the temporary instead.
fn shard_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join(SHARD_DIR))
        .map(|rd| rd.filter_map(|e| e.ok()).map(|e| e.path()).collect())
        .unwrap_or_default();
    files.retain(|p| p.extension().is_some_and(|e| e == "psd"));
    files.sort();
    files
}

/// Truncates the tail of a committed shard — the torn-write shape a
/// power cut leaves behind.
fn corrupt_tail(path: &Path) {
    let bytes = fs::read(path).expect("read shard");
    assert!(bytes.len() > 9, "shard too small to corrupt");
    fs::write(path, &bytes[..bytes.len() - 9]).expect("truncate shard");
}

/// The one line of `stderr` that starts with `prefix`, whole.
fn line_of(stderr: &str, prefix: &str) -> String {
    let mut lines = stderr.lines().filter(|l| l.starts_with(prefix));
    let line = lines.next().unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stderr}"));
    assert!(lines.next().is_none(), "more than one `{prefix}` line in:\n{stderr}");
    line.to_string()
}

/// Resumes the campaign and returns the whole `sweep: resume: …` line.
fn resume(dir: &Path, threads: &str) -> String {
    let out = Command::new(SWEEP)
        .args(["--resume", dir.to_str().unwrap(), "--threads", threads, "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn resume");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "resume failed: {}\n{stderr}", out.status);
    line_of(&stderr, "sweep: resume: ")
}

fn assert_artifacts_equal(dir: &Path, json: &[u8], csv: &[u8], what: &str) {
    assert_eq!(
        fs::read(dir.join("sweep.json")).expect("resumed json"),
        json,
        "{what}: sweep.json differs from the uninterrupted run"
    );
    assert_eq!(
        fs::read(dir.join("sweep.csv")).expect("resumed csv"),
        csv,
        "{what}: sweep.csv differs from the uninterrupted run"
    );
}

#[test]
fn double_resume_of_a_complete_campaign_is_a_byte_identical_noop() {
    // Resuming a campaign whose every shard is already committed must
    // be a no-op that still regenerates ALL artifacts byte-identically
    // — including the leakage pair — at 1 and at 8 threads. This is
    // the idempotence contract multi-process workers lean on: any
    // number of late resumes/workers converge on the same bytes.
    let clean = scratch("noop-clean");
    let camp = scratch("noop-camp");
    const LEAK_GRID: &[&str] = &[
        "--attacks",
        "fr",
        "--defenses",
        "base,full",
        "--leakage",
        "fr",
        "--secrets",
        "4",
        "--trials",
        "2",
        "--seeds",
        "1",
    ];
    const ARTIFACTS: [&str; 4] = ["sweep.json", "sweep.csv", "leakage.json", "leakage.csv"];
    let run = |extra: &[&str]| -> String {
        let out = Command::new(SWEEP)
            .args(LEAK_GRID)
            .args(extra)
            .arg("--quiet")
            .stdout(Stdio::null())
            .output()
            .expect("spawn sweep");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(out.status.success(), "sweep failed: {}\n{stderr}", out.status);
        stderr
    };
    let read_artifacts = |dir: &Path| -> Vec<Vec<u8>> {
        ARTIFACTS
            .iter()
            .map(|n| fs::read(dir.join(n)).unwrap_or_else(|e| panic!("missing {n}: {e}")))
            .collect()
    };
    run(&["--threads", "1", "--out", clean.to_str().unwrap()]);
    let want = read_artifacts(&clean);
    // A complete sharded campaign (16 scenarios / shard size 3 = 6
    // shards), with the final artifacts deleted so each resume must
    // regenerate them from the shards rather than inherit stale files.
    let sharded = run(&["--threads", "2", "--shard-size", "3", "--out", camp.to_str().unwrap()]);
    assert_eq!(
        line_of(&sharded, "sweep: shards: "),
        "sweep: shards: 6 shards: 0 skipped (complete), 0 quarantined, 6 executed"
    );
    for (threads, tag) in [("1", "first resume, 1 thread"), ("8", "second resume, 8 threads")] {
        for name in ARTIFACTS {
            fs::remove_file(camp.join(name)).expect(name);
        }
        assert_eq!(
            resume(&camp, threads),
            "sweep: resume: 6 shards: 6 skipped (complete), 0 quarantined, 0 executed",
            "{tag}"
        );
        for (name, (got, want)) in ARTIFACTS.iter().zip(read_artifacts(&camp).iter().zip(&want)) {
            assert_eq!(got, want, "{tag}: {name} differs from the uninterrupted run");
        }
    }
    fs::remove_dir_all(&clean).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}

#[test]
fn aborted_campaign_resumes_to_identical_artifacts_single_threaded() {
    let clean = scratch("abort-clean");
    let camp = scratch("abort-camp");
    let (json, csv) = reference(&clean, "1");

    // Kill the child from inside right after its second shard commits.
    let status = sweep_cmd(&["--threads", "1", "--shard-size", "3"])
        .args(["--out", camp.to_str().unwrap()])
        .env("PREFENDER_FAILPOINTS", "shard.commit=kill@2")
        .status()
        .expect("spawn sharded sweep");
    assert!(!status.success(), "the kill failpoint must take the process down");
    let committed = shard_files(&camp);
    assert_eq!(committed.len(), 2, "exactly two shards committed before the abort");
    assert!(camp.join(MANIFEST_NAME).exists(), "manifest committed before any shard");

    // A torn shard on top of the crash: quarantined, not trusted.
    corrupt_tail(&committed[0]);

    assert_eq!(
        resume(&camp, "1"),
        "sweep: resume: 6 shards: 1 skipped (complete), 1 quarantined, 5 executed"
    );
    assert_artifacts_equal(&camp, &json, &csv, "abort + corrupt, 1 thread");

    // Resuming a finished campaign is a cheap no-op with full telemetry.
    assert_eq!(
        resume(&camp, "1"),
        "sweep: resume: 6 shards: 6 skipped (complete), 0 quarantined, 0 executed"
    );

    fs::remove_dir_all(&clean).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}

#[test]
fn sigkilled_campaign_resumes_to_identical_artifacts_at_8_threads() {
    let clean = scratch("kill9-clean");
    let camp = scratch("kill9-camp");
    let (json, csv) = reference(&clean, "8");

    // Park the child after its third shard commit, then deliver a real
    // SIGKILL — the exact "node died mid-campaign" failure mode.
    let mut child = sweep_cmd(&["--threads", "8", "--shard-size", "2"])
        .args(["--out", camp.to_str().unwrap()])
        .env("PREFENDER_FAILPOINTS", "shard.commit=hang@3")
        .spawn()
        .expect("spawn sharded sweep");
    let deadline = Instant::now() + Duration::from_secs(120);
    while shard_files(&camp).len() < 3 {
        assert!(Instant::now() < deadline, "child never reached the hang failpoint");
        assert!(
            child.try_wait().expect("poll child").is_none(),
            "child exited before the hang failpoint"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    child.kill().expect("kill -9 the child");
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "SIGKILL cannot look like success");
    assert_eq!(shard_files(&camp).len(), 3, "three shards committed before the kill");

    corrupt_tail(&shard_files(&camp)[2]);

    assert_eq!(
        resume(&camp, "8"),
        "sweep: resume: 8 shards: 2 skipped (complete), 1 quarantined, 6 executed"
    );
    assert_artifacts_equal(&camp, &json, &csv, "kill -9 + corrupt, 8 threads");

    fs::remove_dir_all(&clean).unwrap();
    fs::remove_dir_all(&camp).unwrap();
}
