//! Simulator-throughput microbenches behind `repro bench-sim`.
//!
//! Three probes of the simulation hot path, emitted as `BENCH_sim.json`
//! so CI can track the throughput trajectory release over release:
//!
//! * **access-hit loop** — the settled fast path: demand hits against an
//!   idle completion queue (accesses/sec), measured with the flight
//!   recorder disarmed (the default) and armed, so the trace gate can
//!   price the recorder on the hottest path (counters are always-on plain
//!   `u64` adds; the trace-armed run pays full event construction and the
//!   ring push);
//! * **prefetch storm** — in-flight-heavy behaviour: interleaved
//!   prefetches and demand accesses keeping the completion queues busy
//!   (operations/sec);
//! * **leakage cells** — end-to-end trial throughput of representative
//!   leakage-campaign cells, fresh-machine-per-trial (the pre-runner
//!   baseline, what `run_attack_full` does) versus one reused
//!   [`Runner`] (sims/sec each, plus the speedup). Outcome equality
//!   between the two paths is asserted on every trial.

use std::fmt::Write as _;
use std::time::Instant;

use prefender_attacks::{run_attack_full, AttackKind, AttackSpec, DefenseConfig, Runner};
use prefender_obs::{arm_trace, disarm_trace, take_thread_trace, HostInfo, Value};
use prefender_sim::{AccessKind, Addr, Cycle, HierarchyConfig, MemorySystem, PrefetchSource};

/// Fresh-vs-runner measurement of one leakage-campaign cell.
#[derive(Debug, Clone)]
pub struct CellBench {
    /// Stable cell label (`attack/defense/scope`).
    pub label: &'static str,
    /// Trials each path ran.
    pub trials: u32,
    /// Trials per second with a fresh machine per trial.
    pub fresh_sims_per_sec: f64,
    /// Trials per second through one reused [`Runner`].
    pub runner_sims_per_sec: f64,
    /// `runner_sims_per_sec / fresh_sims_per_sec`.
    pub speedup: f64,
}

/// The full `repro bench-sim` record.
#[derive(Debug, Clone)]
pub struct SimBenchReport {
    /// Settled-fast-path demand hits per second, flight recorder
    /// disarmed.
    pub access_hit_per_sec: f64,
    /// The same loop with the flight recorder armed (ring sized so no
    /// event drops): the trace-overhead gate compares this against
    /// `access_hit_per_sec`. The *disarmed* recorder costs one Relaxed
    /// load per site and is already priced into the baseline.
    pub access_hit_trace_per_sec: f64,
    /// Prefetch-storm operations (prefetch + access pairs count as two)
    /// per second.
    pub storm_ops_per_sec: f64,
    /// Per-cell fresh-vs-runner results.
    pub cells: Vec<CellBench>,
}

impl SimBenchReport {
    /// The `BENCH_sim.json` body (one JSON object, trailing newline).
    pub fn to_json(&self) -> String {
        let cells = self.cells.iter().map(|c| {
            Value::Obj(vec![
                ("cell".into(), Value::Str(c.label.into())),
                ("trials".into(), Value::U64(c.trials.into())),
                ("fresh_sims_per_sec".into(), Value::F64(c.fresh_sims_per_sec)),
                ("runner_sims_per_sec".into(), Value::F64(c.runner_sims_per_sec)),
                ("speedup".into(), Value::F64(c.speedup)),
            ])
        });
        let record = Value::Obj(vec![
            ("bench".into(), Value::Str("sim".into())),
            ("access_hit_per_sec".into(), Value::F64(self.access_hit_per_sec)),
            ("access_hit_trace_per_sec".into(), Value::F64(self.access_hit_trace_per_sec)),
            ("storm_ops_per_sec".into(), Value::F64(self.storm_ops_per_sec)),
            ("leakage_cells".into(), Value::Arr(cells.collect())),
            ("host".into(), HostInfo::capture().to_value()),
        ]);
        record.to_json_inline() + "\n"
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "access-hit fast path   {:>12.0} accesses/s", self.access_hit_per_sec);
        let _ = writeln!(
            s,
            "access-hit, trace on   {:>12.0} accesses/s",
            self.access_hit_trace_per_sec
        );
        let _ = writeln!(s, "prefetch storm         {:>12.0} ops/s", self.storm_ops_per_sec);
        for c in &self.cells {
            let _ = writeln!(
                s,
                "leakage cell {:<22} {:>8.0} sims/s fresh  {:>8.0} sims/s runner  ({:.2}x)",
                c.label, c.fresh_sims_per_sec, c.runner_sims_per_sec, c.speedup
            );
        }
        s
    }

    /// The headline cell speedup (first cell), for quick gating.
    pub fn headline_speedup(&self) -> f64 {
        self.cells.first().map_or(0.0, |c| c.speedup)
    }
}

/// Demand hits against a settled hierarchy, with a far-future in-flight
/// prefetch parked in every queue so the measurement includes the
/// completion-queue peek (the realistic idle state, not the empty one).
fn bench_access_hit(iters: u64) -> f64 {
    let mut m = MemorySystem::new(HierarchyConfig::paper_baseline(1).expect("valid baseline"));
    let a = Addr::new(0x4000);
    m.access(0, a, AccessKind::Read, Cycle::ZERO);
    // Issue the parked prefetch far enough in the future that it never
    // completes inside the measured loop: every access pays exactly one
    // completion-queue peek against a pending (not-yet-due) entry.
    m.prefetch(0, Addr::new(0x10_0000), PrefetchSource::Other, Cycle::new(1 << 40));
    let start = Instant::now();
    for i in 0..iters {
        std::hint::black_box(m.access(0, a, AccessKind::Read, Cycle::new(10 + i)));
    }
    iters as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// Interleaved prefetches and demand accesses: queues stay hot, entries
/// expire continuously, MSHRs merge and stall.
fn bench_storm(pairs: u64) -> f64 {
    let mut m = MemorySystem::new(HierarchyConfig::paper_baseline(1).expect("valid baseline"));
    let mut now = 0u64;
    let start = Instant::now();
    for k in 0..pairs {
        let addr = Addr::new(0x100_0000 + (k % 4096) * 64);
        m.prefetch(0, addr, PrefetchSource::Basic, Cycle::new(now));
        std::hint::black_box(m.access(
            0,
            Addr::new(0x4000 + (k % 16) * 64),
            AccessKind::Read,
            Cycle::new(now + 2),
        ));
        now += 7;
    }
    (2 * pairs) as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

/// One leakage-cell spec per trial: the cell's base with the trial's
/// secret and seed injected (the shape `LeakageCampaign` sweeps).
fn trial_spec(base: &AttackSpec, trial: u32) -> AttackSpec {
    let l = &base.layout;
    let secret = l.first_index + (trial as usize % l.n_indices);
    base.clone().with_secret(secret).with_seed(0xC0FFEE ^ u64::from(trial))
}

fn bench_cell(label: &'static str, base: &AttackSpec, trials: u32) -> CellBench {
    // Fresh-machine baseline: what every trial paid before the runner
    // existed (and what one-shot `run_attack_full` still does).
    let start = Instant::now();
    let mut fresh_outcomes = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        let spec = trial_spec(base, t);
        fresh_outcomes.push(run_attack_full(&spec).expect("cell trial"));
    }
    let fresh = start.elapsed();

    let mut runner = Runner::new(base).expect("cell runner");
    let start = Instant::now();
    let mut runner_outcomes = Vec::with_capacity(trials as usize);
    for t in 0..trials {
        let spec = trial_spec(base, t);
        runner_outcomes.push(runner.run_full(&spec).expect("cell trial"));
    }
    let reused = start.elapsed();

    assert_eq!(fresh_outcomes, runner_outcomes, "runner reuse must be bit-exact ({label})");
    let fresh_sims_per_sec = f64::from(trials) / fresh.as_secs_f64().max(1e-9);
    let runner_sims_per_sec = f64::from(trials) / reused.as_secs_f64().max(1e-9);
    CellBench {
        label,
        trials,
        fresh_sims_per_sec,
        runner_sims_per_sec,
        speedup: runner_sims_per_sec / fresh_sims_per_sec.max(1e-9),
    }
}

/// Best-of-3 access-hit measurement: both sides of the trace gate use
/// the fastest of three runs, so one scheduler hiccup can't fake a
/// regression (or hide one behind noise).
fn best_access_hit(iters: u64) -> f64 {
    (0..3).map(|_| bench_access_hit(iters)).fold(0.0, f64::max)
}

/// Best-of-3 with the flight recorder armed. Each hit records two events
/// (`demand_hit` + `access`), so the ring is sized to hold every event of
/// a run without wrapping — drop-newest at capacity is *cheaper* than a
/// push and would flatter the number. The ring is drained between runs
/// and the recorder disarmed before returning.
fn best_access_hit_traced(iters: u64) -> f64 {
    arm_trace((2 * iters as usize + 1024).next_power_of_two());
    let best = (0..3)
        .map(|_| {
            let per_sec = bench_access_hit(iters);
            let trace = take_thread_trace();
            assert_eq!(trace.dropped, 0, "traced bench ring must not wrap");
            per_sec
        })
        .fold(0.0, f64::max);
    disarm_trace();
    best
}

/// Runs the whole suite. `trials` sizes the leakage cells (the CI smoke
/// uses 200; anything ≥ 50 gives stable ratios).
pub fn run(trials: u32) -> SimBenchReport {
    let access_hit_per_sec = best_access_hit(1_000_000);
    let access_hit_trace_per_sec = best_access_hit_traced(1_000_000);
    let storm_ops_per_sec = bench_storm(200_000);
    // Headline cell: the cross-core Flush+Reload channel — the paper's
    // flagship attack in the scope every open ROADMAP campaign sweeps.
    let cells = vec![
        bench_cell(
            "fr/base/cross-core",
            &AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None).cross_core(true),
            trials,
        ),
        bench_cell(
            "fr/full/single-core",
            &AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full),
            trials,
        ),
    ];
    SimBenchReport { access_hit_per_sec, access_hit_trace_per_sec, storm_ops_per_sec, cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let r = SimBenchReport {
            access_hit_per_sec: 1000.0,
            access_hit_trace_per_sec: 800.0,
            storm_ops_per_sec: 2000.5,
            cells: vec![CellBench {
                label: "fr/base/cross-core",
                trials: 10,
                fresh_sims_per_sec: 100.0,
                runner_sims_per_sec: 400.0,
                speedup: 4.0,
            }],
        };
        let j = r.to_json();
        assert!(j.starts_with("{\"bench\": \"sim\""));
        assert!(j.contains("\"access_hit_per_sec\": 1000,"));
        assert!(j.contains("\"access_hit_trace_per_sec\": 800,"));
        assert!(j.contains("\"storm_ops_per_sec\": 2000.5,"));
        assert!(j.contains("\"speedup\": 4}"));
        // The host block closes the record (after the cells array).
        assert!(j.contains("], \"host\": {\"nproc\": "));
        assert!(j.ends_with("}\n"));
        assert_eq!(r.headline_speedup(), 4.0);
        assert!(r.render().contains("fr/base/cross-core"));
        assert!(r.render().contains("trace on"));
    }

    #[test]
    fn cell_bench_asserts_fresh_runner_equality() {
        // A tiny cell run end to end: the internal assertion compares
        // every fresh trial against its runner twin bit-for-bit.
        let base = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
        let c = bench_cell("fr/base/single-core", &base, 3);
        assert_eq!(c.trials, 3);
        assert!(c.fresh_sims_per_sec > 0.0 && c.runner_sims_per_sec > 0.0);
    }
}
