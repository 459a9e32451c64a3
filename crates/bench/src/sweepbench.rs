//! Sweep-engine thread-scaling bench behind `repro bench-sweep`.
//!
//! Runs one fixed campaign grid — the CI 576-scenario attack grid
//! (attacks × noise × cross-core × defenses × 4 seeds) — once per thread
//! count and emits `BENCH_sweep.json` (schema v2): one row per thread
//! count with throughput and `parallel_efficiency` (speedup over the
//! 1-thread row divided by the thread count), so the scaling trajectory
//! is tracked across PRs as a single artifact instead of ad-hoc
//! single-run records.
//!
//! Every run's artifacts are asserted byte-identical to the 1-thread
//! run's before any number is reported — scaling can never be bought
//! with drift.

use std::fmt::Write as _;
use std::time::Instant;

use prefender_obs::{HostInfo, Value};
use prefender_sweep::{run_sweep, AttackCase, AttackKind, NoiseSpec, SweepGrid, SweepOptions};

/// `BENCH_sweep.json` schema version written by [`run`].
pub const SWEEP_BENCH_SCHEMA_VERSION: u32 = 2;

/// One thread count's measurement.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Worker threads the run used.
    pub threads: usize,
    /// Scenarios in the grid.
    pub scenarios: usize,
    /// Machine simulations the grid fans out into.
    pub sims: u64,
    /// Wall-clock seconds for the whole campaign.
    pub elapsed_secs: f64,
    /// Scenarios per second.
    pub scenarios_per_sec: f64,
    /// Simulations per second.
    pub sims_per_sec: f64,
    /// Throughput relative to the 1-thread row (1.0 for that row).
    pub speedup_vs_1t: f64,
    /// `speedup_vs_1t / threads`: 1.0 is perfect scaling.
    pub parallel_efficiency: f64,
}

/// The full `repro bench-sweep` record.
#[derive(Debug, Clone)]
pub struct SweepBenchReport {
    /// One row per measured thread count, ascending.
    pub rows: Vec<ScalingRow>,
}

impl SweepBenchReport {
    /// The `BENCH_sweep.json` body (one JSON object, trailing newline).
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|r| {
            Value::Obj(vec![
                ("threads".into(), Value::U64(r.threads as u64)),
                ("scenarios".into(), Value::U64(r.scenarios as u64)),
                ("sims".into(), Value::U64(r.sims)),
                ("elapsed_secs".into(), Value::F64(r.elapsed_secs)),
                ("scenarios_per_sec".into(), Value::F64(r.scenarios_per_sec)),
                ("sims_per_sec".into(), Value::F64(r.sims_per_sec)),
                ("speedup_vs_1t".into(), Value::F64(r.speedup_vs_1t)),
                ("parallel_efficiency".into(), Value::F64(r.parallel_efficiency)),
            ])
        });
        let record = Value::Obj(vec![
            ("bench".into(), Value::Str("sweep".into())),
            ("schema_version".into(), Value::U64(SWEEP_BENCH_SCHEMA_VERSION.into())),
            ("rows".into(), Value::Arr(rows.collect())),
            ("host".into(), HostInfo::capture().to_value()),
        ]);
        record.to_json_inline() + "\n"
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::from("threads   scenarios/s     sims/s   speedup   efficiency\n");
        for r in &self.rows {
            let _ = writeln!(
                s,
                "{:>7} {:>13.1} {:>10.1} {:>8.2}x {:>11.2}",
                r.threads,
                r.scenarios_per_sec,
                r.sims_per_sec,
                r.speedup_vs_1t,
                r.parallel_efficiency
            );
        }
        s
    }

    /// The row measured at `threads`, if present.
    pub fn row(&self, threads: usize) -> Option<&ScalingRow> {
        self.rows.iter().find(|r| r.threads == threads)
    }

    /// Speedup of the highest thread count over 1 thread (the CI gate's
    /// quantity).
    pub fn top_speedup(&self) -> f64 {
        self.rows.last().map_or(0.0, |r| r.speedup_vs_1t)
    }
}

/// The CI scaling grid: the 576-scenario attack campaign
/// (3 attacks × 4 noise × both scopes × 6 defenses × 4 seeds).
pub fn scaling_grid() -> SweepGrid {
    let mut attacks = Vec::new();
    for kind in [AttackKind::FlushReload, AttackKind::EvictReload, AttackKind::PrimeProbe] {
        for noise in [NoiseSpec::NONE, NoiseSpec::C3, NoiseSpec::C4, NoiseSpec::C3C4] {
            for cross_core in [false, true] {
                attacks.push(AttackCase { kind, noise, cross_core });
            }
        }
    }
    let mut grid = SweepGrid::security_full();
    grid.attacks = attacks;
    grid.seeds = 4;
    grid
}

/// Runs the scaling grid once per entry of `threads` (the first entry
/// must be 1 — it is the efficiency baseline) and asserts every run's
/// artifacts byte-identical to the 1-thread run's.
///
/// # Panics
///
/// Panics if `threads` is empty or does not start at 1, or if any run's
/// artifacts differ from the 1-thread run's (a determinism regression).
pub fn run(threads: &[usize]) -> SweepBenchReport {
    assert!(
        threads.first() == Some(&1),
        "the threads list must start at 1 (the efficiency baseline)"
    );
    let grid = scaling_grid();
    let scenarios = grid.len();
    let sims = grid.sims();
    let mut rows: Vec<ScalingRow> = Vec::with_capacity(threads.len());
    let mut baseline: Option<(f64, String)> = None;
    for &t in threads {
        let start = Instant::now();
        let report = run_sweep(&grid, &SweepOptions { threads: t, campaign_seed: 0xC0FFEE });
        let elapsed = start.elapsed().as_secs_f64();
        let json = report.to_json();
        let base_sps = match &baseline {
            None => {
                baseline = Some((scenarios as f64 / elapsed.max(1e-9), json));
                baseline.as_ref().expect("just set").0
            }
            Some((sps, base_json)) => {
                assert_eq!(
                    *base_json, json,
                    "artifacts at {t} threads differ from the 1-thread run"
                );
                *sps
            }
        };
        let scenarios_per_sec = scenarios as f64 / elapsed.max(1e-9);
        let speedup = scenarios_per_sec / base_sps.max(1e-9);
        rows.push(ScalingRow {
            threads: t,
            scenarios,
            sims,
            elapsed_secs: elapsed,
            scenarios_per_sec,
            sims_per_sec: sims as f64 / elapsed.max(1e-9),
            speedup_vs_1t: speedup,
            parallel_efficiency: speedup / t as f64,
        });
    }
    SweepBenchReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_grid_is_the_ci_576() {
        let g = scaling_grid();
        assert_eq!(g.len(), 576);
        assert_eq!(g.sims(), 576);
    }

    #[test]
    fn report_json_shape() {
        let r = SweepBenchReport {
            rows: vec![
                ScalingRow {
                    threads: 1,
                    scenarios: 576,
                    sims: 576,
                    elapsed_secs: 0.5,
                    scenarios_per_sec: 1152.0,
                    sims_per_sec: 1152.0,
                    speedup_vs_1t: 1.0,
                    parallel_efficiency: 1.0,
                },
                ScalingRow {
                    threads: 8,
                    scenarios: 576,
                    sims: 576,
                    elapsed_secs: 0.125,
                    scenarios_per_sec: 4608.0,
                    sims_per_sec: 4608.0,
                    speedup_vs_1t: 4.0,
                    parallel_efficiency: 0.5,
                },
            ],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"bench\": \"sweep\", \"schema_version\": 2, \"rows\": ["));
        assert!(j.contains("\"elapsed_secs\": 0.125,"));
        assert!(j.contains("\"parallel_efficiency\": 0.5}"));
        // The host block closes the record (after the rows array).
        assert!(j.contains("], \"host\": {\"nproc\": "));
        assert!(j.ends_with("}\n"));
        assert_eq!(r.top_speedup(), 4.0);
        assert_eq!(r.row(8).map(|x| x.threads), Some(8));
        assert!(r.render().contains("efficiency"));
    }

    #[test]
    #[should_panic(expected = "must start at 1")]
    fn threads_must_start_at_one() {
        let _ = run(&[2, 4]);
    }
}
