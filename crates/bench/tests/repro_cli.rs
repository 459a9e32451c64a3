//! The `repro` command line, driven as a child process.

use std::fs;
use std::process::Command;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// `audit` is an experiment like any other: it runs wherever it stands
/// on the line, not only first, and writes `AUDIT.json` into the working
/// directory.
#[test]
fn audit_runs_after_another_experiment() {
    let dir = std::env::temp_dir().join(format!("prefender-repro-audit-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(REPRO)
        .args(["hwcost", "audit"])
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    let audit = fs::read_to_string(dir.join("AUDIT.json"));
    let _ = fs::remove_dir_all(&dir);
    assert!(out.status.success(), "repro hwcost audit failed: {stderr}");
    assert!(audit.expect("AUDIT.json written").contains("\"false_negatives\": 0"));
}
