//! The shared test fixture: one sample result row, its leakage variant,
//! the report the golden artifact test pins, and a shard the v1 record
//! encoder wrote. The crate's unit tests and its integration tests both
//! include this file, so every test builds rows the same way.

#![allow(dead_code)]

use super::{ScenarioResult, SweepReport};

/// An attack row with every machine column set; it leaks when `index`
/// is even.
pub fn sample_result(index: usize) -> ScenarioResult {
    ScenarioResult {
        index,
        id: format!("atk:fr/full32/none/paper/s{index}"),
        seed: 0xDEAD_BEEF ^ index as u64,
        leaked: Some(index.is_multiple_of(2)),
        anomalies: Some(3),
        latency_hist: vec![(4, 60), (200, 4)],
        truncated: false,
        cycles: 123_456,
        instructions: 98_765,
        ipc: 0.1234567890123,
        demand_accesses: 400,
        demand_misses: 31,
        demand_miss_latency: 6200,
        prefetch_issued: 17,
        prefetch_fills: 15,
        prefetch_useful: 9,
        prefetch_accuracy: Some(0.6),
        st_prefetches: 5,
        at_prefetches: 7,
        rp_prefetches: 5,
        mi_bits: None,
        mi_corrected: None,
        capacity_bits: None,
        ml_accuracy: None,
        guessing_entropy: None,
        secrets: None,
        trials: None,
        mi_p_value: None,
        mi_null_q95: None,
        mi_ci_lo: None,
        mi_ci_hi: None,
    }
}

/// The leakage variant of [`sample_result`]: the channel columns hold
/// the float corners an exact format must keep (the float just below 3,
/// NaN, +inf, 1e-300 and -0.0).
pub fn leakage_result(index: usize) -> ScenarioResult {
    ScenarioResult {
        id: format!("leak:fr:8x4/base/none/paper/s{index}"),
        leaked: None,
        anomalies: None,
        mi_bits: Some(2.9999999999999996),
        mi_corrected: Some(0.0),
        capacity_bits: Some(f64::NAN),
        ml_accuracy: Some(1.0),
        guessing_entropy: Some(f64::INFINITY),
        secrets: Some(8),
        trials: Some(4),
        mi_p_value: Some(0.004999999999999),
        mi_null_q95: Some(1e-300),
        mi_ci_lo: Some(-0.0),
        mi_ci_hi: Some(3.0),
        ..sample_result(index)
    }
}

/// The report whose four artifacts `tests/golden/` holds byte for byte:
/// an attack row that leaks, one that does not (with `"` and `\` in its
/// id), a truncated workload row with the attack columns empty, and two
/// leakage rows, with and without the resampling columns.
pub fn golden_report() -> SweepReport {
    SweepReport {
        campaign_seed: 42,
        results: vec![
            sample_result(0),
            ScenarioResult { id: "atk:fr/\"quoted\"\\slash/s1".into(), ..sample_result(1) },
            ScenarioResult {
                id: "wl:429.mcf/full32/none/paper/s0".into(),
                leaked: None,
                anomalies: None,
                latency_hist: Vec::new(),
                truncated: true,
                prefetch_accuracy: None,
                ..sample_result(2)
            },
            leakage_result(3),
            ScenarioResult {
                mi_p_value: None,
                mi_null_q95: None,
                mi_ci_lo: None,
                mi_ci_hi: None,
                ..leakage_result(4)
            },
        ],
    }
}

/// Shard 0 of the campaign `SweepGrid::security_quick()` at 3 seeds,
/// campaign seed 7 and shard size 2, as the v1 record encoder wrote it:
/// fields in struct declaration order, flags as `0`/`1`, histogram pairs
/// joined by `;`. It checksums and names this campaign, so only its magic
/// tells it apart from a shard the current encoder writes.
pub const V1_SHARD: &str = r"PSHARD v1
shard=0 start=0 end=2 seed=7 fingerprint=5f7fbb8a8f3a802e schema=3
0,atk:fr/base/none/paper/s0,11241344834629033336,1,1,4:1;200:60,0,17887,3550,124,70,14000,0,0,0,0,0,0,3fc967679ae647fd,,,,,,,,,,,,
1,atk:fr/base/none/paper/s1,14574897457539200646,1,1,4:1;200:60,0,17887,3550,124,70,14000,0,0,0,0,0,0,3fc967679ae647fd,,,,,,,,,,,,
FOOTER records=2 body=339 fnv1a=0d82a4d339025917
";
