//! Golden bytes of the four campaign artifacts. `tests/golden/` holds
//! what the writers emit for the fixture's golden report, so a change to
//! any byte of the format fails here; a deliberate schema change bumps
//! `REPORT_SCHEMA_VERSION` and regenerates the files.

mod fixture;

use prefender_sweep::{decode_shard, encode_shard, ScenarioResult, ShardHeader, SweepReport};

const GOLDEN: [(&str, &str); 4] = [
    ("sweep.json", include_str!("golden/sweep.json")),
    ("sweep.csv", include_str!("golden/sweep.csv")),
    ("leakage.json", include_str!("golden/leakage.json")),
    ("leakage.csv", include_str!("golden/leakage.csv")),
];

fn assert_golden(report: &SweepReport) {
    let files = report.artifacts();
    let names: Vec<&str> = files.iter().map(|&(name, _)| name).collect();
    assert_eq!(names, GOLDEN.map(|(name, _)| name));
    for ((name, got), (_, want)) in files.iter().zip(GOLDEN) {
        assert_eq!(got, want, "{name} differs from tests/golden/{name}");
    }
}

#[test]
fn artifacts_match_the_golden_bytes() {
    assert_golden(&fixture::golden_report());
}

#[test]
fn a_shard_round_trip_keeps_every_artifact_byte() {
    let report = fixture::golden_report();
    let header = ShardHeader {
        shard: 0,
        start: 0,
        end: report.results.len(),
        campaign_seed: report.campaign_seed,
        fingerprint: 0xF1F0,
    };
    let text = encode_shard(&header, &report.results);
    let results: Vec<ScenarioResult> = decode_shard(&text, &header).expect("a fresh shard decodes");
    assert_golden(&SweepReport { campaign_seed: report.campaign_seed, results });
}
