//! In-process fault injection: the tests that arm the failpoint registry
//! inside the test process itself.
//!
//! The registry is process-global, so a rule one test arms fires in any
//! other test of the same process that passes the same site. Each test
//! binary is its own process: keeping these tests here, away from the
//! library's unit tests, means only the tests below can see their rules,
//! and they take turns through [`gate`].

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use prefender_obs::ObsCounters;
use prefender_sweep::{
    claim_shard, lease_file_name, resume_sharded, run_sharded, run_sweep, CampaignError, Claim,
    LeaseConfig, LeaseInfo, SweepGrid, SweepOptions, WorkEvent, LEASE_DIR,
};

/// Serializes the tests in this file; a failed test must not wedge the
/// others, hence the poison recovery.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("prefender-failpoints-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_grid() -> SweepGrid {
    let mut g = SweepGrid::security_quick();
    g.seeds = 3;
    g
}

fn now_ms() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_millis() as u64
}

#[test]
fn injected_io_failure_surfaces_and_leaves_a_resumable_directory() {
    let _g = gate();
    let dir = scratch("inject");
    let grid = small_grid();
    let opts = SweepOptions { threads: 1, campaign_seed: 5 };
    prefender_obs::arm_failpoints("shard.write=err@2").unwrap();
    let err = run_sharded(&dir, &grid, &opts, 2).unwrap_err();
    prefender_obs::disarm_failpoints();
    assert!(matches!(err, CampaignError::Io { .. }), "{err}");
    assert!(err.to_string().contains("injected"), "{err}");
    // Shard 0 committed before the fault; resume finishes the rest
    // and the merged artifacts equal the uninterrupted run.
    let reference = run_sweep(&grid, &opts);
    let (resumed, _, stats) = resume_sharded(&dir, 1).unwrap();
    assert_eq!(resumed, reference);
    assert_eq!(stats.loaded, 1);
    assert_eq!(stats.committed, 2);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn lease_failpoints_inject_errors() {
    let _g = gate();
    let dir = scratch("lease");
    fs::create_dir_all(&dir).unwrap();
    let cfg = LeaseConfig::with_ttl_ms(20);
    let mut counters = ObsCounters::new();
    let mut sink = |_: WorkEvent| {};
    prefender_obs::arm_failpoints("lease.claim=err").unwrap();
    let err = claim_shard(&dir, 0, 0xF00D, &cfg, &mut counters, &mut sink).unwrap_err();
    assert!(err.to_string().contains("lease.claim"), "{err}");
    prefender_obs::arm_failpoints("lease.renew=err").unwrap();
    let Claim::Claimed { lease, .. } =
        claim_shard(&dir, 0, 0xF00D, &cfg, &mut counters, &mut sink).unwrap()
    else {
        panic!("claim must win")
    };
    let err = lease.renew().unwrap_err();
    assert!(err.to_string().contains("lease.renew"), "{err}");
    // A stale lease whose break faults surfaces the break error.
    let stale = LeaseInfo {
        pid: 1,
        token: 0x2,
        fingerprint: 0xF00D,
        shard: 5,
        heartbeat_ms: now_ms().saturating_sub(10_000),
    };
    fs::write(dir.join(LEASE_DIR).join(lease_file_name(5)), stale.encode()).unwrap();
    prefender_obs::arm_failpoints("lease.break=err").unwrap();
    let err = claim_shard(&dir, 5, 0xF00D, &cfg, &mut counters, &mut sink).unwrap_err();
    assert!(err.to_string().contains("lease.break"), "{err}");
    prefender_obs::disarm_failpoints();
    fs::remove_dir_all(&dir).unwrap();
}
