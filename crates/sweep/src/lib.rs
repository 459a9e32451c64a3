//! # prefender-sweep — the parallel scenario-sweep engine
//!
//! The paper's evaluation (Tables IV–VI, Figure 8) is a *grid* of
//! scenarios: attack kind × defense configuration × basic prefetcher ×
//! cache hierarchy × workload × seed. This crate turns that grid into a
//! first-class object:
//!
//! * [`SweepGrid`] — a declarative description of the scenario space,
//!   enumerated into a flat, stably-ordered work-list of [`Scenario`]s;
//! * [`run_sweep`] — shards the work-list across a worker-thread pool
//!   (each worker owns one reusable runner — a `Machine` +
//!   `MemorySystem` — and lends it to every scenario it runs, across
//!   every shard of a sharded campaign; no shared mutable state) and
//!   aggregates per-scenario [`ScenarioResult`]s.
//!   Results are **bit-identical regardless of thread count**: every
//!   scenario's probe seed is derived from the campaign seed and the
//!   scenario index, and the output is ordered by scenario index;
//! * [`SweepReport`] — machine-readable artifacts ([`SweepReport::to_json`],
//!   [`SweepReport::to_csv`]) plus a human table
//!   ([`SweepReport::render_table`]) via `prefender-stats`;
//! * [`parallel_map`] — the underlying deterministic sharded executor,
//!   reusable for any per-item campaign (the bench ablations run on it).
//!
//! The `sweep` binary exposes grid selection, `--threads`, `--seed` and
//! `--out` on the command line; see EXPERIMENTS.md.
//!
//! ```
//! use prefender_sweep::{run_sweep, SweepGrid, SweepOptions};
//!
//! let mut grid = SweepGrid::security_quick();
//! grid.seeds = 1;
//! let report = run_sweep(&grid, &SweepOptions { threads: 2, campaign_seed: 7 });
//! assert_eq!(report.results.len(), grid.len());
//! // The undefended Flush+Reload scenario leaks; the defended one does not.
//! assert!(report.results.iter().any(|r| r.leaked == Some(true)));
//! assert!(report.results.iter().any(|r| r.leaked == Some(false)));
//! ```

mod artifact;
mod checkpoint;
mod engine;
mod grid;
mod lease;
mod record;
mod scenario;
mod serve;
mod shard;

pub use artifact::SweepReport;
pub use checkpoint::{
    init_campaign, load_manifest, resume_sharded, run_sharded, CampaignError, Manifest,
    MANIFEST_NAME, QUARANTINE_DIR, SHARD_DIR,
};
pub use engine::{
    parallel_map, parallel_map_2d, run_sweep, run_sweep_observed, ChunkEvent, SweepObs,
    SweepOptions, SweepTelemetry, WorkerStats,
};
pub use grid::{AttackCase, DefensePoint, Hierarchy, SweepGrid};
pub use lease::{
    claim_shard, lease_file_name, work_campaign, Claim, Heartbeat, Lease, LeaseConfig, LeaseInfo,
    WorkEvent, WorkOptions, WorkSummary, LEASE_DIR,
};
pub use record::{ScenarioResult, REPORT_SCHEMA_VERSION};
pub use scenario::{
    basic_from_tag, basic_tag, run_scenario_with, workload_machine, Payload, Scenario,
};
pub use serve::{serve_campaign, ServeOptions, ServeSummary, WorkerReport};
pub use shard::{
    decode_shard, encode_shard, fnv1a64, shard_file_name, ShardHeader, ShardPlan, SHARD_MAGIC,
};

/// `prefender_attacks::prefender_stats`, under the path the benchmark
/// harness imports it from.
pub mod perf {
    pub use prefender_attacks::prefender_stats;
}

// The axes a grid is built from, re-exported so callers need only this
// crate.
pub use prefender_attacks::{AttackKind, Basic, DefenseConfig, NoiseSpec};
pub use prefender_leakage::{NullTest, ResampleOptions};

#[cfg(test)]
#[path = "../tests/fixture/mod.rs"]
mod fixture;
