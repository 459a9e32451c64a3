//! Engine-level guarantees: deterministic sharding and sound grid
//! enumeration.

use prefender_sweep::{
    run_sweep, run_sweep_observed, AttackCase, AttackKind, Basic, DefenseConfig, DefensePoint,
    Hierarchy, NoiseSpec, SweepGrid, SweepOptions,
};

/// A small mixed grid touching every axis: two attack cases, a workload
/// and a leakage campaign, two defenses, two basics, two hierarchies,
/// two seeds.
fn mixed_grid() -> SweepGrid {
    SweepGrid {
        attacks: vec![
            AttackCase { kind: AttackKind::FlushReload, noise: NoiseSpec::NONE, cross_core: false },
            AttackCase { kind: AttackKind::PrimeProbe, noise: NoiseSpec::C3, cross_core: true },
        ],
        workloads: vec!["999.specrand".into(), "462.libquantum".into()],
        leakages: vec![AttackCase {
            kind: AttackKind::FlushReload,
            noise: NoiseSpec::NONE,
            cross_core: false,
        }],
        leakage_secrets: 4,
        leakage_trials: 2,
        leakage_jitter: 0,
        leakage_permutations: 0,
        leakage_bootstrap: 0,
        leakage_alpha: 0.05,
        defenses: vec![
            DefensePoint::new(DefenseConfig::None),
            DefensePoint { config: DefenseConfig::Full, buffers: 16 },
        ],
        basics: vec![Basic::None, Basic::Tagged],
        hierarchies: vec![Hierarchy::Paper, Hierarchy::BigL2],
        seeds: 2,
    }
}

/// The acceptance-criterion determinism claim: the same campaign seed
/// produces byte-identical `sweep.json` / `sweep.csv` / `leakage.json` /
/// `leakage.csv` at `--threads 1` and `--threads 8`.
#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let grid = mixed_grid();
    let one = run_sweep(&grid, &SweepOptions { threads: 1, campaign_seed: 0xC0FFEE });
    let eight = run_sweep(&grid, &SweepOptions { threads: 8, campaign_seed: 0xC0FFEE });
    assert_eq!(one.to_json(), eight.to_json());
    assert_eq!(one.to_csv(), eight.to_csv());
    assert!(one.has_leakage());
    assert_eq!(one.leakage_json(), eight.leakage_json());
    assert_eq!(one.leakage_csv(), eight.leakage_csv());
    // And a different campaign seed reseeds the attack scenarios.
    let other = run_sweep(&grid, &SweepOptions { threads: 8, campaign_seed: 1 });
    assert_ne!(
        one.results[0].seed, other.results[0].seed,
        "campaign seed must flow into per-scenario seeds"
    );
}

/// The schema-v3 statistical columns obey the same determinism contract:
/// with the permutation null and bootstrap CIs enabled, `leakage.json` /
/// `leakage.csv` stay byte-identical at `--threads 1` and `--threads 8`
/// (per-scenario resampling seeds derive from the campaign seed, never
/// from execution order).
#[test]
fn resampled_artifacts_are_byte_identical_across_thread_counts() {
    let mut grid = SweepGrid::leakage_quick();
    grid.leakage_secrets = 4;
    grid.leakage_trials = 2;
    grid.leakage_permutations = 50;
    grid.leakage_bootstrap = 30;
    let one = run_sweep(&grid, &SweepOptions { threads: 1, campaign_seed: 0xC0FFEE });
    let eight = run_sweep(&grid, &SweepOptions { threads: 8, campaign_seed: 0xC0FFEE });
    assert_eq!(one.leakage_json(), eight.leakage_json());
    assert_eq!(one.leakage_csv(), eight.leakage_csv());
    assert_eq!(one.to_json(), eight.to_json());
    for r in &one.results {
        let mi = r.mi_bits.unwrap();
        assert!(r.mi_p_value.is_some() && r.mi_null_q95.is_some(), "{}", r.id);
        assert!(r.mi_corrected.unwrap() <= mi + 1e-12, "{}", r.id);
        let (lo, hi) = (r.mi_ci_lo.unwrap(), r.mi_ci_hi.unwrap());
        assert!(lo <= mi && mi <= hi, "{}: CI [{lo}, {hi}] must bracket MI {mi}", r.id);
    }
    // The undefended campaign rejects the zero-leakage null; the sealed
    // one accepts it.
    let open = one.by_id("leak:fr:4x2/base/none/paper/s0").unwrap();
    assert!(open.mi_p_value.unwrap() < 0.05, "open p = {:?}", open.mi_p_value);
    let sealed = one.by_id("leak:fr:4x2/full32/none/paper/s0").unwrap();
    assert!(sealed.mi_p_value.unwrap() >= 0.05, "sealed p = {:?}", sealed.mi_p_value);
}

/// A sweep's workers own their runners for that call only: a second
/// one-thread sweep on the same thread builds its machine again rather
/// than inheriting the first call's runner, so both report the same
/// reuse tallies (one build, then an in-place reset per scenario).
#[test]
fn runner_state_does_not_leak_between_calls() {
    let mut grid = SweepGrid::security_quick();
    grid.defenses = vec![DefensePoint::new(DefenseConfig::Full)];
    grid.seeds = 3;
    let opts = SweepOptions { threads: 1, campaign_seed: 0xC0FFEE };
    let reuse = || {
        let (_, obs) = run_sweep_observed(&grid, &opts, None);
        (obs.telemetry.resets, obs.telemetry.rebuilds)
    };
    let first = reuse();
    assert_eq!(first, (3, 1), "one machine configuration: one build, three resets");
    assert_eq!(reuse(), first, "the second call must not reuse the first call's runner");
}

/// Grid enumeration: the count matches the axis product and every
/// scenario id is unique.
#[test]
fn enumeration_counts_and_ids() {
    let grid = mixed_grid();
    let scenarios = grid.enumerate();
    assert_eq!(grid.len(), (2 + 2 + 1) * 2 * 2 * 2 * 2);
    assert_eq!(grid.sims(), (2 + 2 + 4 * 2) as u64 * 16, "campaigns fan out 4 secrets x 2 trials");
    assert_eq!(scenarios.len(), grid.len());
    let mut ids: Vec<String> = scenarios.iter().map(|s| s.id()).collect();
    for (k, s) in scenarios.iter().enumerate() {
        assert_eq!(s.index, k, "indices must be sequential");
    }
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), scenarios.len(), "duplicate scenario ids");
}

/// Every payload family fills its side of the result record.
#[test]
fn results_carry_security_and_perf_fields() {
    let grid = mixed_grid();
    let report = run_sweep(&grid, &SweepOptions { threads: 4, campaign_seed: 0xC0FFEE });
    assert_eq!(report.results.len(), grid.len());
    let attacks: Vec<_> = report.with_prefix("atk:").collect();
    let perfs: Vec<_> = report.with_prefix("wl:").collect();
    let leakages: Vec<_> = report.with_prefix("leak:").collect();
    assert_eq!(attacks.len(), 2 * 2 * 2 * 2 * 2);
    assert_eq!(perfs.len(), 2 * 2 * 2 * 2 * 2);
    assert_eq!(leakages.len(), 2 * 2 * 2 * 2);
    for r in &attacks {
        assert!(r.leaked.is_some() && r.anomalies.is_some(), "{}", r.id);
        assert!(!r.is_leakage(), "{}", r.id);
        assert!(!r.latency_hist.is_empty(), "{}", r.id);
        assert!(r.cycles > 0 && r.instructions > 0, "{}", r.id);
    }
    for r in &perfs {
        assert!(r.leaked.is_none() && r.latency_hist.is_empty(), "{}", r.id);
        assert!(!r.is_leakage(), "{}", r.id);
        assert!(!r.truncated && r.cycles > 0, "{}", r.id);
    }
    for r in &leakages {
        assert!(r.is_leakage() && r.leaked.is_none(), "{}", r.id);
        assert_eq!((r.secrets, r.trials), (Some(4), Some(2)), "{}", r.id);
        let mi = r.mi_bits.unwrap();
        assert!((0.0..=2.0 + 1e-9).contains(&mi), "{}: MI {mi} out of range", r.id);
        assert!(r.capacity_bits.unwrap() >= mi - 1e-6, "{}", r.id);
        assert!(r.cycles > 0 && !r.latency_hist.is_empty(), "{}", r.id);
    }
    // The channel verdicts sharpen the booleans: an undefended paper-
    // hierarchy Flush+Reload campaign carries the full 2 bits, the fully
    // defended one nothing.
    let open = report.by_id("leak:fr:4x2/base/none/paper/s0").unwrap();
    assert!((open.mi_bits.unwrap() - 2.0).abs() < 0.1, "base MI {:?}", open.mi_bits);
    let sealed = report.by_id("leak:fr:4x2/full16/none/paper/s0").unwrap();
    assert!(sealed.mi_bits.unwrap() <= 0.2, "full MI {:?}", sealed.mi_bits);
    // The undefended single-core Flush+Reload on the paper hierarchy
    // leaks; the fully-defended one does not — for both derived seeds.
    for slot in 0..2 {
        let leak = report.by_id(&format!("atk:fr/base/none/paper/s{slot}")).unwrap();
        assert_eq!(leak.leaked, Some(true));
        let safe = report.by_id(&format!("atk:fr/full16/none/paper/s{slot}")).unwrap();
        assert_eq!(safe.leaked, Some(false));
    }
}

/// Workload scenarios respond to the prefetcher axis: Tagged beats the
/// no-prefetcher baseline on streaming, on every hierarchy variant.
#[test]
fn perf_scenarios_reflect_prefetcher_quality() {
    let report = run_sweep(&mixed_grid(), &SweepOptions { threads: 4, campaign_seed: 0xC0FFEE });
    for hier in ["paper", "bigl2"] {
        let base = report.by_id(&format!("wl:462.libquantum/base/none/{hier}/s0")).unwrap().cycles;
        let tagged =
            report.by_id(&format!("wl:462.libquantum/base/tagged/{hier}/s0")).unwrap().cycles;
        assert!(tagged < base, "{hier}: tagged {tagged} must beat baseline {base}");
    }
}
