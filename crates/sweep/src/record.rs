//! The result record: [`ScenarioResult`] and the column table that is the
//! single source of its schema.
//!
//! [`COLUMNS`] names every field once, in artifact order, and the field's
//! type decides how its cell is written ([`Cell`]). `sweep.json` and
//! `sweep.csv` write every column, `leakage.json` and `leakage.csv` a
//! named subset, and a shard record is the `sweep.csv` row with each float
//! written as its exact bit pattern. One column order serves every format,
//! so a new field is one struct line plus one table line.

use std::fmt::Write as _;

use prefender_attacks::RunMetrics;
use prefender_obs::Value;

use crate::scenario::Scenario;

/// Bumped whenever the JSON/CSV field set changes. v3 added the
/// statistical-rigor columns: `mi_corrected`, `mi_p_value`,
/// `mi_null_q95`, `mi_ci_lo`, `mi_ci_hi`.
pub const REPORT_SCHEMA_VERSION: u32 = 3;

/// The measurements of one executed scenario.
///
/// Attack scenarios fill the security fields (`leaked`, `anomalies`,
/// `latency_hist`); performance scenarios leave them `None`/empty;
/// leakage scenarios fill the channel fields (`mi_bits` …
/// `guessing_entropy`, `secrets`, `trials`) with machine-level fields
/// summed over the whole campaign. All fill the machine-level fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioResult {
    /// Scenario index in the campaign work-list.
    pub index: usize,
    /// Stable scenario id.
    pub id: String,
    /// The probe seed the scenario actually ran with.
    pub seed: u64,
    /// Leak verdict (attack scenarios only).
    pub leaked: Option<bool>,
    /// Number of anomalous probe indices (attack scenarios only).
    pub anomalies: Option<u64>,
    /// Exact probe-latency histogram: `latency → count` (attack only).
    pub latency_hist: Vec<(u64, u64)>,
    /// `true` when the run hit the instruction cap before completing.
    pub truncated: bool,
    /// Wall-clock cycles.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1D demand accesses, summed over cores.
    pub demand_accesses: u64,
    /// L1D demand misses, summed over cores.
    pub demand_misses: u64,
    /// Total L1D demand-miss latency in cycles (the Figure 10 quantity).
    pub demand_miss_latency: u64,
    /// Prefetches issued by every attached prefetcher.
    pub prefetch_issued: u64,
    /// Prefetched lines actually installed in the L1D.
    pub prefetch_fills: u64,
    /// Prefetched lines that served a later demand access.
    pub prefetch_useful: u64,
    /// Useful/installed prefetch ratio, when any fills happened.
    pub prefetch_accuracy: Option<f64>,
    /// Scale Tracker prefetches (PREFENDER configurations).
    pub st_prefetches: u64,
    /// Access Tracker prefetches.
    pub at_prefetches: u64,
    /// Record-Protector-guided prefetches.
    pub rp_prefetches: u64,
    /// Mutual information `I(secret; observation)` in bits (leakage only).
    pub mi_bits: Option<f64>,
    /// Miller–Madow bias-corrected MI in bits (leakage only).
    pub mi_corrected: Option<f64>,
    /// Blahut–Arimoto channel capacity in bits (leakage only).
    pub capacity_bits: Option<f64>,
    /// Max-likelihood attacker accuracy (leakage only).
    pub ml_accuracy: Option<f64>,
    /// Expected posterior rank of the true secret (leakage only).
    pub guessing_entropy: Option<f64>,
    /// Secrets swept (leakage only).
    pub secrets: Option<u64>,
    /// Trials per secret (leakage only).
    pub trials: Option<u64>,
    /// Permutation p-value of the MI against its label-shuffled null
    /// (leakage campaigns run with `--permutations`, else `None`).
    pub mi_p_value: Option<f64>,
    /// 95th percentile of the null MI distribution — the estimator's
    /// noise floor (leakage with `--permutations` only).
    pub mi_null_q95: Option<f64>,
    /// Bootstrap CI lower bound on the MI (leakage with `--bootstrap`).
    pub mi_ci_lo: Option<f64>,
    /// Bootstrap CI upper bound on the MI (leakage with `--bootstrap`).
    pub mi_ci_hi: Option<f64>,
}

impl ScenarioResult {
    /// A row holding the scenario's identity and its machine metrics, with
    /// every payload column empty; the attack, workload and leakage paths
    /// fill theirs in by struct update.
    pub(crate) fn from_metrics(s: &Scenario, seed: u64, m: &RunMetrics) -> Self {
        ScenarioResult {
            index: s.index,
            id: s.id(),
            seed,
            cycles: m.cycles,
            instructions: m.instructions,
            ipc: m.ipc(),
            demand_accesses: m.l1d.demand_accesses,
            demand_misses: m.l1d.demand_misses,
            demand_miss_latency: m.l1d.demand_miss_latency,
            prefetch_issued: m.prefetch_issued,
            prefetch_fills: m.l1d.prefetch_fills,
            prefetch_useful: m.l1d.prefetch_useful + m.l1d.prefetch_late,
            prefetch_accuracy: m.l1d.prefetch_accuracy(),
            st_prefetches: m.prefender.st_prefetches,
            at_prefetches: m.prefender.at_prefetches,
            rp_prefetches: m.prefender.rp_prefetches,
            ..ScenarioResult::default()
        }
    }

    /// `true` when this row is a leakage-campaign result.
    pub fn is_leakage(&self) -> bool {
        self.mi_bits.is_some()
    }
}

/// How a field's type writes its cell in each format and reads a shard
/// cell back. JSON scalars go through [`Value`] (floats shortest
/// round-trip, non-finite `null`). A CSV cell is the same text, except
/// that a string is raw and `None` is empty. A shard cell is the CSV cell,
/// except that a float is its 16-hex-digit bit pattern, so every float
/// survives a shard exactly.
pub(crate) trait Cell {
    /// Appends the JSON value.
    fn json(&self, out: &mut String);

    /// Appends the CSV cell.
    fn csv(&self, out: &mut String) {
        self.json(out);
    }

    /// Appends the shard cell.
    fn shard(&self, out: &mut String) {
        self.csv(out);
    }

    /// Sets the value a shard cell holds; `None` when it does not parse.
    fn parse(&mut self, cell: &str) -> Option<()>;
}

impl Cell for usize {
    fn json(&self, out: &mut String) {
        Value::U64(*self as u64).write_inline(out);
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        *self = cell.parse().ok()?;
        Some(())
    }
}

impl Cell for u64 {
    fn json(&self, out: &mut String) {
        Value::U64(*self).write_inline(out);
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        *self = cell.parse().ok()?;
        Some(())
    }
}

impl Cell for bool {
    fn json(&self, out: &mut String) {
        Value::Bool(*self).write_inline(out);
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        *self = cell.parse().ok()?;
        Some(())
    }
}

impl Cell for f64 {
    fn json(&self, out: &mut String) {
        Value::F64(*self).write_inline(out);
    }

    fn shard(&self, out: &mut String) {
        let _ = write!(out, "{:016x}", self.to_bits());
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        *self = f64::from_bits(u64::from_str_radix(cell, 16).ok()?);
        Some(())
    }
}

impl Cell for String {
    fn json(&self, out: &mut String) {
        Value::Str(self.clone()).write_inline(out);
    }

    fn csv(&self, out: &mut String) {
        out.push_str(self);
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        cell.clone_into(self);
        Some(())
    }
}

impl<T: Cell + Default> Cell for Option<T> {
    fn json(&self, out: &mut String) {
        match self {
            Some(v) => v.json(out),
            None => Value::Null.write_inline(out),
        }
    }

    fn csv(&self, out: &mut String) {
        if let Some(v) = self {
            v.csv(out);
        }
    }

    fn shard(&self, out: &mut String) {
        if let Some(v) = self {
            v.shard(out);
        }
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        *self = None;
        if !cell.is_empty() {
            self.insert(T::default()).parse(cell)?;
        }
        Some(())
    }
}

/// The latency histogram: `[[latency,count],...]` in JSON,
/// `latency:count|...` in CSV and shards.
impl Cell for Vec<(u64, u64)> {
    fn json(&self, out: &mut String) {
        let pairs: Vec<String> = self.iter().map(|(lat, n)| format!("[{lat},{n}]")).collect();
        let _ = write!(out, "[{}]", pairs.join(","));
    }

    fn csv(&self, out: &mut String) {
        let pairs: Vec<String> = self.iter().map(|(lat, n)| format!("{lat}:{n}")).collect();
        out.push_str(&pairs.join("|"));
    }

    fn parse(&mut self, cell: &str) -> Option<()> {
        self.clear();
        if cell.is_empty() {
            return Some(());
        }
        for pair in cell.split('|') {
            let (lat, n) = pair.split_once(':')?;
            self.push((lat.parse().ok()?, n.parse().ok()?));
        }
        Some(())
    }
}

/// One column of the record: its name and its field.
pub(crate) struct Column {
    /// The JSON key and CSV header.
    pub(crate) name: &'static str,
    field: fn(&ScenarioResult) -> &dyn Cell,
    field_mut: fn(&mut ScenarioResult) -> &mut dyn Cell,
}

impl Column {
    /// This column's cell of `r`.
    pub(crate) fn cell<'r>(&self, r: &'r ScenarioResult) -> &'r dyn Cell {
        (self.field)(r)
    }

    /// Sets this column's field of `r` from a shard cell.
    pub(crate) fn parse(&self, r: &mut ScenarioResult, cell: &str) -> Result<(), String> {
        (self.field_mut)(r).parse(cell).ok_or_else(|| format!("bad {} `{cell}`", self.name))
    }
}

/// The [`Column`] of the [`ScenarioResult`] field of the same name.
macro_rules! column {
    ($field:ident) => {
        Column { name: stringify!($field), field: |r| &r.$field, field_mut: |r| &mut r.$field }
    };
}

/// Every column of the record, in artifact order: the `sweep.json` key
/// order, the `sweep.csv` header and the shard record's cell order.
pub(crate) static COLUMNS: [Column; 31] = [
    column!(index),
    column!(id),
    column!(seed),
    column!(leaked),
    column!(anomalies),
    column!(truncated),
    column!(cycles),
    column!(instructions),
    column!(ipc),
    column!(demand_accesses),
    column!(demand_misses),
    column!(demand_miss_latency),
    column!(prefetch_issued),
    column!(prefetch_fills),
    column!(prefetch_useful),
    column!(prefetch_accuracy),
    column!(st_prefetches),
    column!(at_prefetches),
    column!(rp_prefetches),
    column!(mi_bits),
    column!(mi_corrected),
    column!(capacity_bits),
    column!(ml_accuracy),
    column!(guessing_entropy),
    column!(secrets),
    column!(trials),
    column!(mi_p_value),
    column!(mi_null_q95),
    column!(mi_ci_lo),
    column!(mi_ci_hi),
    column!(latency_hist),
];
