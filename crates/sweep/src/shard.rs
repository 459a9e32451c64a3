//! Campaign shards: deterministic scenario-range partitions and their
//! checksummed on-disk artifact records.
//!
//! A sharded campaign splits the grid's scenario index space `0..n`
//! into consecutive ranges of at most `shard_size` scenarios
//! ([`ShardPlan`]) and commits each completed range to its own file.
//! Because every scenario's seed derives from `(campaign_seed, index,
//! seed_slot)` alone, any range is independently computable — a crashed
//! campaign resumes by re-running exactly the ranges whose files are
//! missing or fail validation, and the merged results equal an
//! uninterrupted run bit for bit.
//!
//! ## Shard file format
//!
//! Text, newline-terminated lines:
//!
//! ```text
//! PSHARD v2
//! shard=3 start=96 end=128 seed=12648430 fingerprint=0123456789abcdef schema=3
//! <one record per scenario, in index order>
//! FOOTER records=32 body=8841 fnv1a=89abcdef01234567
//! ```
//!
//! The footer seals the file: `body` is the byte length of everything
//! before the footer line and `fnv1a` its FNV-1a 64 checksum, so
//! truncation, tail corruption and appended garbage are all detected.
//! The header binds the shard to its campaign: `fingerprint` is the
//! manifest checksum (grid shape + campaign seed + schema), so a shard
//! from a different campaign — or the right campaign at a different
//! grid — never validates.
//!
//! A record is the scenario's `sweep.csv` row — the record's column table
//! ([`crate::record::COLUMNS`]) in order, comma-separated — with every
//! float written as the 16-hex-digit bit pattern of the `f64` instead of
//! its decimal. The round trip is bit-exact, which is what lets a resumed
//! campaign re-emit `sweep.json` byte-identically. The magic's version
//! bumps whenever the record layout changes, so a shard in another layout
//! fails decoding and its range is re-run.

use std::fmt;
use std::ops::Range;

use crate::record::{ScenarioResult, COLUMNS, REPORT_SCHEMA_VERSION};

/// Magic first line of every shard file; the version bumps if the
/// record layout changes.
pub const SHARD_MAGIC: &str = "PSHARD v2";

/// FNV-1a 64-bit: the workspace-standard integrity checksum (tiny,
/// dependency-free, good avalanche for corruption detection — not a
/// cryptographic MAC).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The framing of the campaign manifest and of lease files: a magic line,
/// one `key=value` line per field in order, and a `check=` line holding
/// the FNV-1a 64 of every line above it, so a torn or hand-edited file is
/// detected rather than trusted. Returns the text and that check.
pub(crate) fn seal<const N: usize>(
    magic: &str,
    keys: [&str; N],
    values: [&dyn fmt::Display; N],
) -> (String, u64) {
    let mut text = format!("{magic}\n");
    for (key, value) in keys.iter().zip(values) {
        text.push_str(&format!("{key}={value}\n"));
    }
    let check = fnv1a64(text.as_bytes());
    text.push_str(&format!("check={check:016x}\n"));
    (text, check)
}

/// Opens a [`seal`]ed text: verifies its checksum and magic, and returns
/// the values of `keys` or a message naming the first defect.
pub(crate) fn unseal<'t, const N: usize>(
    text: &'t str,
    magic: &str,
    keys: [&str; N],
) -> Result<[&'t str; N], String> {
    let body_len = text.rfind("\ncheck=").map(|p| p + 1).ok_or("no checksum line (truncated?)")?;
    let (body, check_line) = text.split_at(body_len);
    let declared = check_line
        .strip_prefix("check=")
        .and_then(|s| u64::from_str_radix(s.trim_end(), 16).ok())
        .ok_or("bad checksum line")?;
    let actual = fnv1a64(body.as_bytes());
    if actual != declared {
        return Err(format!("checksum mismatch ({actual:016x} != {declared:016x})"));
    }
    let mut lines = body.lines();
    if lines.next() != Some(magic) {
        return Err("bad magic".into());
    }
    let mut values = [""; N];
    for (value, key) in values.iter_mut().zip(keys) {
        *value = lines
            .next()
            .and_then(|l| l.strip_prefix(key))
            .and_then(|l| l.strip_prefix('='))
            .ok_or_else(|| format!("missing `{key}` line"))?;
    }
    Ok(values)
}

/// The deterministic shard → scenario-range mapping of one campaign:
/// consecutive ranges of `shard_size` scenarios, the last possibly
/// short. Pure arithmetic on `(n_scenarios, shard_size)`, so every
/// process of a multi-process campaign derives the identical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Scenarios in the campaign (the grid's `len()`).
    pub n_scenarios: usize,
    /// Maximum scenarios per shard (≥ 1).
    pub shard_size: usize,
}

impl ShardPlan {
    /// A plan over `n_scenarios` in shards of at most `shard_size`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_size` is zero (callers validate at the CLI).
    pub fn new(n_scenarios: usize, shard_size: usize) -> Self {
        assert!(shard_size >= 1, "shard size must be at least 1");
        ShardPlan { n_scenarios, shard_size }
    }

    /// Number of shards (`⌈n/size⌉`; zero for an empty campaign).
    pub fn n_shards(&self) -> usize {
        self.n_scenarios.div_ceil(self.shard_size)
    }

    /// The scenario-index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= n_shards()`.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.n_shards(), "shard {shard} out of range");
        let start = shard * self.shard_size;
        start..(start + self.shard_size).min(self.n_scenarios)
    }

    /// All shard ranges in shard order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.n_shards()).map(|s| self.range(s))
    }
}

/// The canonical shard file name (`shard-00042.psd`).
pub fn shard_file_name(shard: usize) -> String {
    format!("shard-{shard:05}.psd")
}

/// The identity a shard file must prove: its position in the plan and
/// the campaign it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Shard index within the plan.
    pub shard: usize,
    /// First scenario index (inclusive).
    pub start: usize,
    /// One past the last scenario index.
    pub end: usize,
    /// The campaign seed.
    pub campaign_seed: u64,
    /// The campaign manifest's checksum (binds grid shape + schema).
    pub fingerprint: u64,
}

/// Serializes one completed shard (results must be the header's range
/// in scenario-index order).
///
/// # Panics
///
/// Panics if the results don't match the header's range — the caller
/// (the checkpoint executor) constructs both, so a mismatch is a bug,
/// not an input error.
pub fn encode_shard(header: &ShardHeader, results: &[ScenarioResult]) -> String {
    assert_eq!(results.len(), header.end - header.start, "results must fill the shard range");
    let mut out = String::with_capacity(256 + results.len() * 256);
    out.push_str(SHARD_MAGIC);
    out.push('\n');
    out.push_str(&format!(
        "shard={} start={} end={} seed={} fingerprint={:016x} schema={}\n",
        header.shard,
        header.start,
        header.end,
        header.campaign_seed,
        header.fingerprint,
        REPORT_SCHEMA_VERSION,
    ));
    for (k, r) in results.iter().enumerate() {
        assert_eq!(r.index, header.start + k, "results must be in scenario-index order");
        encode_record(r, &mut out);
        out.push('\n');
    }
    out.push_str(&format!(
        "FOOTER records={} body={} fnv1a={:016x}\n",
        results.len(),
        out.len(),
        fnv1a64(out.as_bytes())
    ));
    out
}

/// Validates and parses a shard file against the identity the campaign
/// expects. Any discrepancy — truncation, flipped bytes, appended
/// garbage, a foreign campaign's shard, a record out of range — returns
/// a description of what failed; the checkpoint layer quarantines the
/// file and re-runs the range.
pub fn decode_shard(text: &str, expect: &ShardHeader) -> Result<Vec<ScenarioResult>, String> {
    // Locate the footer: the last line, starting exactly with "FOOTER ".
    let body_len = text.rfind("\nFOOTER ").map(|p| p + 1).ok_or("no footer (truncated?)")?;
    let (body, footer) = text.split_at(body_len);
    let footer = footer.strip_suffix('\n').ok_or("footer line not newline-terminated")?;
    if footer.contains('\n') {
        return Err("garbage after the footer line".into());
    }
    let footer_kv = parse_kv(footer.strip_prefix("FOOTER ").expect("rfind matched"))?;
    let records: usize = lookup(&footer_kv, "records")?;
    let declared_len: usize = lookup(&footer_kv, "body")?;
    if declared_len != body.len() {
        return Err(format!("body length {} != declared {declared_len}", body.len()));
    }
    let declared_sum = u64::from_str_radix(lookup_str(&footer_kv, "fnv1a")?, 16)
        .map_err(|_| "bad footer checksum field".to_string())?;
    let actual = fnv1a64(body.as_bytes());
    if actual != declared_sum {
        return Err(format!("checksum mismatch ({actual:016x} != {declared_sum:016x})"));
    }

    // The body is now integrity-checked; parse and verify identity.
    let mut lines = body.lines();
    if lines.next() != Some(SHARD_MAGIC) {
        return Err("bad magic".into());
    }
    let header_kv = parse_kv(lines.next().ok_or("missing header line")?)?;
    let schema: u32 = lookup(&header_kv, "schema")?;
    if schema != REPORT_SCHEMA_VERSION {
        return Err(format!("schema v{schema} != v{} this build writes", REPORT_SCHEMA_VERSION));
    }
    let got = ShardHeader {
        shard: lookup(&header_kv, "shard")?,
        start: lookup(&header_kv, "start")?,
        end: lookup(&header_kv, "end")?,
        campaign_seed: lookup(&header_kv, "seed")?,
        fingerprint: u64::from_str_radix(lookup_str(&header_kv, "fingerprint")?, 16)
            .map_err(|_| "bad fingerprint field".to_string())?,
    };
    if got != *expect {
        return Err(format!("header {got:?} does not match the campaign's {expect:?}"));
    }
    if records != expect.end - expect.start {
        return Err(format!(
            "footer declares {records} records, the range holds {}",
            expect.end - expect.start
        ));
    }
    let mut out = Vec::with_capacity(records);
    for (k, line) in lines.enumerate() {
        let r = decode_record(line).map_err(|e| format!("record {k}: {e}"))?;
        if r.index != expect.start + k {
            return Err(format!("record {k} has index {}, expected {}", r.index, expect.start + k));
        }
        out.push(r);
    }
    if out.len() != records {
        return Err(format!("{} records present, footer declares {records}", out.len()));
    }
    Ok(out)
}

fn parse_kv(line: &str) -> Result<Vec<(&str, &str)>, String> {
    line.split_ascii_whitespace()
        .map(|tok| tok.split_once('=').ok_or_else(|| format!("bad token `{tok}`")))
        .collect()
}

fn lookup_str<'a>(kv: &[(&'a str, &'a str)], key: &str) -> Result<&'a str, String> {
    kv.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v).ok_or_else(|| format!("missing `{key}`"))
}

fn lookup<T: std::str::FromStr>(kv: &[(&str, &str)], key: &str) -> Result<T, String> {
    lookup_str(kv, key)?.parse().map_err(|_| format!("bad `{key}` field"))
}

// --- Record codec -------------------------------------------------------
//
// A record is the result's `sweep.csv` row: every column of
// `record::COLUMNS`, comma-separated, except that each float is its exact
// `to_bits()` hex (16 digits). `sweep.json`'s shortest-round-trip
// formatting then reproduces the fresh run's bytes, because the loaded
// values are bit-equal to the computed ones.

fn encode_record(r: &ScenarioResult, out: &mut String) {
    assert!(!r.id.contains([',', '\n']), "scenario id `{}` would corrupt the record framing", r.id);
    for (i, c) in COLUMNS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        c.cell(r).shard(out);
    }
}

fn decode_record(line: &str) -> Result<ScenarioResult, String> {
    let cells: Vec<&str> = line.split(',').collect();
    if cells.len() != COLUMNS.len() {
        return Err(format!("{} fields, expected {}", cells.len(), COLUMNS.len()));
    }
    let mut r = ScenarioResult::default();
    for (c, cell) in COLUMNS.iter().zip(cells) {
        c.parse(&mut r, cell)?;
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{golden_report, leakage_result, sample_result};

    fn record(r: &ScenarioResult) -> String {
        let mut line = String::new();
        encode_record(r, &mut line);
        line
    }

    #[test]
    fn plan_partitions_exactly() {
        let plan = ShardPlan::new(13, 4);
        assert_eq!(plan.n_shards(), 4);
        let ranges: Vec<_> = plan.ranges().collect();
        assert_eq!(ranges, vec![0..4, 4..8, 8..12, 12..13]);
        assert_eq!(ShardPlan::new(0, 4).n_shards(), 0);
        assert_eq!(ShardPlan::new(4, 4).n_shards(), 1);
        assert_eq!(ShardPlan::new(4, 100).range(0), 0..4);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shard_size_panics() {
        ShardPlan::new(10, 0);
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for r in golden_report().results {
            let line = record(&r);
            let back = decode_record(&line).expect("decodes");
            // PartialEq fails on NaN fields; compare through the exact
            // bit patterns instead.
            assert_eq!(record(&back), line);
            assert_eq!(back.index, r.index);
            assert_eq!(back.id, r.id);
            assert_eq!(
                back.capacity_bits.map(f64::to_bits),
                r.capacity_bits.map(f64::to_bits),
                "NaN/inf survive exactly"
            );
        }
        assert_eq!(decode_record("1,2").unwrap_err(), "2 fields, expected 31");
    }

    #[test]
    fn shards_round_trip() {
        let header =
            ShardHeader { shard: 2, start: 8, end: 11, campaign_seed: 42, fingerprint: 0xABCD };
        let results: Vec<_> = (8..11).map(sample_result).collect();
        let text = encode_shard(&header, &results);
        let back = decode_shard(&text, &header).expect("valid shard");
        assert_eq!(back, results);
    }

    #[test]
    fn corruption_is_always_detected() {
        let header =
            ShardHeader { shard: 0, start: 0, end: 3, campaign_seed: 7, fingerprint: 0x1234 };
        let results: Vec<_> = (0..3).map(leakage_result).collect();
        let good = encode_shard(&header, &results);
        assert!(decode_shard(&good, &header).is_ok());

        // Truncation at every byte boundary must fail.
        for cut in 0..good.len() {
            assert!(
                decode_shard(&good[..cut], &header).is_err(),
                "truncation at {cut} must not validate"
            );
        }
        // A flipped byte anywhere must fail (checksum or framing).
        let mut bytes = good.clone().into_bytes();
        for pos in [0, 10, good.len() / 2, good.len() - 2] {
            let orig = bytes[pos];
            bytes[pos] = orig.wrapping_add(1);
            let corrupt = String::from_utf8_lossy(&bytes).into_owned();
            assert!(decode_shard(&corrupt, &header).is_err(), "flip at {pos} must not validate");
            bytes[pos] = orig;
        }
        // Appended garbage must fail.
        assert!(decode_shard(&format!("{good}junk\n"), &header).is_err());
        assert!(decode_shard(&format!("{good}\n"), &header).is_err());
        assert!(decode_shard("", &header).is_err());
    }

    #[test]
    fn foreign_shards_are_rejected() {
        let header =
            ShardHeader { shard: 1, start: 4, end: 6, campaign_seed: 9, fingerprint: 0xFEED };
        let text = encode_shard(&header, &(4..6).map(sample_result).collect::<Vec<_>>());
        for wrong in [
            ShardHeader { shard: 2, ..header },
            ShardHeader { start: 0, end: 2, ..header },
            ShardHeader { campaign_seed: 10, ..header },
            ShardHeader { fingerprint: 0xBEEF, ..header },
        ] {
            let err = decode_shard(&text, &wrong).unwrap_err();
            assert!(err.contains("does not match"), "{err}");
        }
    }

    #[test]
    fn file_names_are_stable() {
        assert_eq!(shard_file_name(0), "shard-00000.psd");
        assert_eq!(shard_file_name(42), "shard-00042.psd");
        assert_eq!(shard_file_name(123_456), "shard-123456.psd");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
