//! Machine-readable campaign artifacts: `sweep.json` and `sweep.csv`,
//! plus `leakage.json` and `leakage.csv` when the campaign has leakage
//! scenarios.
//!
//! Every file frames rows of the record's column table
//! ([`crate::record::COLUMNS`]) in a fixed order with deterministic number
//! formatting, so byte-identity across runs reduces to value-identity of
//! the results.

use std::fmt::Write as _;

use prefender_stats::Table;

use crate::record::{Column, ScenarioResult, COLUMNS, REPORT_SCHEMA_VERSION};

/// The columns of `leakage.json` and `leakage.csv`, in file order.
const LEAKAGE_COLUMNS: [&str; 15] = [
    "index",
    "id",
    "seed",
    "secrets",
    "trials",
    "mi_bits",
    "mi_corrected",
    "capacity_bits",
    "ml_accuracy",
    "guessing_entropy",
    "mi_p_value",
    "mi_null_q95",
    "mi_ci_lo",
    "mi_ci_hi",
    "cycles",
];

/// An executed campaign: the seed it ran under plus every scenario's
/// result, in scenario-index order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The campaign seed all per-scenario seeds were derived from.
    pub campaign_seed: u64,
    /// Per-scenario results, ordered by scenario index.
    pub results: Vec<ScenarioResult>,
}

impl SweepReport {
    /// The result with the given scenario id.
    pub fn by_id(&self, id: &str) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| r.id == id)
    }

    /// Results whose scenario id starts with `prefix` (e.g. `"atk:fr/"`).
    pub fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a ScenarioResult> {
        self.results.iter().filter(move |r| r.id.starts_with(prefix))
    }

    /// Serializes the whole campaign as JSON.
    ///
    /// Fields are emitted in a fixed order and floats through Rust's
    /// shortest-round-trip formatter, so equal campaigns serialize to
    /// identical bytes.
    pub fn to_json(&self) -> String {
        let rows: Vec<&ScenarioResult> = self.results.iter().collect();
        let counts = [("n_scenarios", rows.len() as u64)];
        self.json_doc(&counts, "scenarios", &rows, &COLUMNS.iter().collect::<Vec<_>>())
    }

    /// Serializes the campaign as CSV (histogram packed as
    /// `latency:count|latency:count`).
    pub fn to_csv(&self) -> String {
        csv_doc(&self.results.iter().collect::<Vec<_>>(), &COLUMNS.iter().collect::<Vec<_>>())
    }

    /// `true` when the campaign contains leakage scenarios (and so writes
    /// the dedicated leakage artifacts).
    pub fn has_leakage(&self) -> bool {
        self.results.iter().any(|r| r.is_leakage())
    }

    /// Serializes the leakage scenarios as `leakage.json` — the channel
    /// metrics of every campaign, in scenario-index order, with the same
    /// byte-identity guarantees as [`SweepReport::to_json`].
    pub fn leakage_json(&self) -> String {
        let rows = self.leakage_rows();
        let sims = rows.iter().map(|r| r.secrets.unwrap_or(0) * r.trials.unwrap_or(0)).sum();
        let counts = [("n_campaigns", rows.len() as u64), ("n_sims", sims)];
        self.json_doc(&counts, "campaigns", &rows, &leakage_columns())
    }

    /// Serializes the leakage scenarios as `leakage.csv`.
    pub fn leakage_csv(&self) -> String {
        csv_doc(&self.leakage_rows(), &leakage_columns())
    }

    /// The campaign's artifact files as `(file name, bytes)`, in write
    /// order: `sweep.json` and `sweep.csv`, then `leakage.json` and
    /// `leakage.csv` when the campaign has leakage scenarios.
    pub fn artifacts(&self) -> Vec<(&'static str, String)> {
        let mut files = vec![("sweep.json", self.to_json()), ("sweep.csv", self.to_csv())];
        if self.has_leakage() {
            files.push(("leakage.json", self.leakage_json()));
            files.push(("leakage.csv", self.leakage_csv()));
        }
        files
    }

    fn leakage_rows(&self) -> Vec<&ScenarioResult> {
        self.results.iter().filter(|r| r.is_leakage()).collect()
    }

    /// A JSON document: the schema version, the campaign seed and
    /// `counts`, then the array `list` holding one object of `cols` per
    /// row, one row per line.
    fn json_doc(
        &self,
        counts: &[(&str, u64)],
        list: &str,
        rows: &[&ScenarioResult],
        cols: &[&Column],
    ) -> String {
        let mut out = String::with_capacity(256 + rows.len() * cols.len() * 24);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {REPORT_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"campaign_seed\": {},", self.campaign_seed);
        for (key, n) in counts {
            let _ = writeln!(out, "  \"{key}\": {n},");
        }
        let _ = writeln!(out, "  \"{list}\": [");
        for (k, r) in rows.iter().enumerate() {
            out.push_str("    {");
            for (i, c) in cols.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": ", c.name);
                c.cell(r).json(&mut out);
            }
            out.push_str(if k + 1 < rows.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders a human summary table via `prefender-stats`.
    pub fn render_table(&self) -> String {
        let mut t = Table::new(vec![
            "Scenario".into(),
            "Verdict".into(),
            "Anom".into(),
            "MI(b)".into(),
            "Cycles".into(),
            "IPC".into(),
            "Issued".into(),
            "Accuracy".into(),
        ]);
        for r in &self.results {
            t.row(vec![
                r.id.clone(),
                match r.leaked {
                    Some(true) => "LEAKED".into(),
                    Some(false) => "defended".into(),
                    None if r.is_leakage() => "channel".into(),
                    None => {
                        if r.truncated {
                            "truncated".into()
                        } else {
                            "ok".into()
                        }
                    }
                },
                r.anomalies.map_or(String::new(), |a| a.to_string()),
                // A starred MI rejects the zero-leakage null at p < 0.01.
                r.mi_bits.map_or_else(
                    || "-".into(),
                    |m| match r.mi_p_value {
                        Some(p) if p < 0.01 => format!("{m:.3}*"),
                        _ => format!("{m:.3}"),
                    },
                ),
                r.cycles.to_string(),
                format!("{:.3}", r.ipc),
                r.prefetch_issued.to_string(),
                r.prefetch_accuracy.map_or_else(|| "-".into(), |a| format!("{:.2}", a)),
            ]);
        }
        t.render()
    }
}

/// The columns [`LEAKAGE_COLUMNS`] names.
fn leakage_columns() -> Vec<&'static Column> {
    LEAKAGE_COLUMNS
        .iter()
        .map(|name| COLUMNS.iter().find(|c| c.name == *name).expect("a record column"))
        .collect()
}

/// A CSV document: the names of `cols`, then one line of cells per row.
fn csv_doc(rows: &[&ScenarioResult], cols: &[&Column]) -> String {
    let names: Vec<&str> = cols.iter().map(|c| c.name).collect();
    let mut out = String::with_capacity(128 + rows.len() * cols.len() * 12);
    out.push_str(&names.join(","));
    out.push('\n');
    for r in rows {
        for (i, c) in cols.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            c.cell(r).csv(&mut out);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{golden_report, sample_result};

    fn names(report: &SweepReport) -> Vec<&'static str> {
        report.artifacts().into_iter().map(|(name, _)| name).collect()
    }

    #[test]
    fn the_file_set_follows_the_rows() {
        let r = golden_report();
        assert!(r.has_leakage());
        assert_eq!(names(&r), ["sweep.json", "sweep.csv", "leakage.json", "leakage.csv"]);
        let none = SweepReport { campaign_seed: 1, results: vec![sample_result(0)] };
        assert!(!none.has_leakage());
        assert_eq!(names(&none), ["sweep.json", "sweep.csv"]);
        assert_eq!(none.leakage_csv().lines().count(), 1, "header only");
    }

    #[test]
    fn leakage_artifacts_select_leakage_rows_only() {
        let r = golden_report();
        let j = r.leakage_json();
        assert!(j.contains("\"n_campaigns\": 2"));
        assert!(j.contains("\"n_sims\": 64"));
        assert!(!j.contains("atk:") && !j.contains("wl:"), "only leakage rows");
        let c = r.leakage_csv();
        assert_eq!(c.lines().count(), 3);
        assert!(c.lines().skip(1).all(|l| l.contains(",leak:")));
    }

    #[test]
    fn lookup_helpers() {
        let r = golden_report();
        assert!(r.by_id("atk:fr/full32/none/paper/s0").is_some());
        assert!(r.by_id("nope").is_none());
        assert_eq!(r.with_prefix("wl:").count(), 1);
    }

    #[test]
    fn table_renders_verdicts() {
        let t = golden_report().render_table();
        assert!(t.contains("LEAKED") && t.contains("defended") && t.contains("truncated"));
        assert!(t.contains("channel") && t.contains("3.000*"), "{t}");
    }
}
