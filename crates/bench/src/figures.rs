//! Figures 10, 11 and 12: miss latency, prefetch counts, protected buffers.

use prefender_stats::{Series, Table};
use prefender_sweep::{Basic, DefenseConfig, DefensePoint};
use prefender_workloads::{spec2006, Workload};

use crate::perf::{columns, protected_series, workload_results, AT32_DEFENSES, BASE};

/// Figure 10 data: per-benchmark total L1D demand-miss latency, normalized
/// to the no-prefetcher baseline, for each configuration.
#[derive(Debug, Clone)]
pub struct Figure10 {
    /// Configuration labels, in column order.
    pub configs: Vec<String>,
    /// `(benchmark, normalized latency per config)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Figure10 {
    /// The normalized miss latency of `benchmark` under `config`.
    pub fn value(&self, benchmark: &str, config: &str) -> Option<f64> {
        let c = self.configs.iter().position(|x| x == config)?;
        self.rows.iter().find(|(b, _)| b == benchmark)?.1.get(c).copied()
    }

    /// Column averages.
    pub fn averages(&self) -> Vec<f64> {
        let n = self.rows.len().max(1) as f64;
        (0..self.configs.len())
            .map(|c| self.rows.iter().map(|(_, v)| v[c]).sum::<f64>() / n)
            .collect()
    }

    /// Renders as a table (the paper plots these as bars).
    pub fn render(&self) -> String {
        let mut headers = vec!["Benchmark".to_string()];
        headers.extend(self.configs.clone());
        let mut t = Table::new(headers);
        for (name, vals) in &self.rows {
            let mut cells = vec![name.clone()];
            cells.extend(vals.iter().map(|v| format!("{v:.3}")));
            t.row(cells);
        }
        let mut avg = vec!["Avg.".to_string()];
        avg.extend(self.averages().iter().map(|v| format!("{v:.3}")));
        t.row(avg);
        t.render()
    }
}

/// Figure 10's configuration names, in the order of the Table VI
/// columns it plots.
const FIG10_CONFIGS: [&str; 8] = [
    "Prefender-ST+AT",
    "Prefender",
    "Tagged",
    "P-ST+AT(Tagged)",
    "Prefender(Tagged)",
    "Stride",
    "P-ST+AT(Stride)",
    "Prefender(Stride)",
];

/// The SPEC 2006 workloads named in `only` (all 12 for `None`).
fn spec2006_only(only: Option<&[&str]>) -> Vec<Workload> {
    spec2006().into_iter().filter(|w| only.is_none_or(|names| names.contains(&w.name()))).collect()
}

/// Regenerates Figure 10 over the given benchmark names (default: all 12).
pub fn figure10(only: Option<&[&str]>) -> Figure10 {
    let workloads = spec2006_only(only);
    let cols = columns(&AT32_DEFENSES);
    let results = workload_results(&workloads, &AT32_DEFENSES, &Basic::ALL);
    let rows = workloads
        .iter()
        .zip(&results)
        .map(|(w, row)| {
            let base = row[0].demand_miss_latency.max(1) as f64;
            let vals = cols.iter().map(|&(cell, _)| row[cell].demand_miss_latency as f64 / base);
            (w.name().to_string(), vals.collect())
        })
        .collect();
    Figure10 { configs: FIG10_CONFIGS.map(String::from).to_vec(), rows }
}

/// Figure 11 data: prefetch counts by unit (ST/AT/RP) per benchmark, for
/// PREFENDER alone and over each basic prefetcher.
#[derive(Debug, Clone)]
pub struct Figure11 {
    /// `(benchmark, basic-prefetcher label, st, at, rp)` rows.
    pub rows: Vec<(String, String, u64, u64, u64)>,
}

impl Figure11 {
    /// The `(st, at, rp)` counts for a benchmark under a basic config.
    pub fn counts(&self, benchmark: &str, basic: &str) -> Option<(u64, u64, u64)> {
        self.rows
            .iter()
            .find(|(b, k, ..)| b == benchmark && k == basic)
            .map(|&(_, _, st, at, rp)| (st, at, rp))
    }

    /// Renders as a table (the paper plots log10 bars).
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Benchmark".into(),
            "Basic".into(),
            "ST".into(),
            "AT".into(),
            "RP".into(),
        ]);
        for (b, k, st, at, rp) in &self.rows {
            t.row(vec![b.clone(), k.clone(), st.to_string(), at.to_string(), rp.to_string()]);
        }
        t.render()
    }
}

/// Regenerates Figure 11 (full PREFENDER, 32 buffers, per basic config).
pub fn figure11(only: Option<&[&str]>) -> Figure11 {
    let workloads = spec2006_only(only);
    let full = DefensePoint::new(DefenseConfig::Full);
    let mut rows = Vec::new();
    for (w, row) in workloads.iter().zip(workload_results(&workloads, &[full], &Basic::ALL)) {
        for (basic, r) in Basic::ALL.into_iter().zip(row) {
            let name = w.name().to_string();
            rows.push((name, basic.to_string(), r.st_prefetches, r.at_prefetches, r.rp_prefetches));
        }
    }
    Figure11 { rows }
}

/// Regenerates Figure 12: the protected-access-buffer count sampled over
/// each benchmark's execution (full PREFENDER, 32 buffers, no basic —
/// the paper's Table V column 2 configuration).
pub fn figure12(only: Option<&[&str]>, buckets: usize) -> Vec<Series> {
    let workloads = spec2006_only(only);
    // Each workload's baseline cycles set its sample interval, so every
    // workload yields roughly `buckets` points.
    let baseline = workload_results(&workloads, &[BASE], &[Basic::None]);
    let mut out = Vec::new();
    for (w, base) in workloads.iter().zip(&baseline) {
        let every = (base[0].cycles / buckets.max(1) as u64).max(1_000);
        let points = protected_series(w, every);
        let mut s = Series::new(w.name());
        // The last sample is taken at the end of the run.
        let total = points.last().map_or(0, |p| p.0).max(1) as f64;
        for (at, protected) in points {
            s.push(at as f64 / total * 100.0, protected as f64);
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_column_count_matches_paper() {
        assert_eq!(columns(&AT32_DEFENSES).len(), FIG10_CONFIGS.len());
    }

    #[test]
    fn fig10_slice_normalizes_to_baseline() {
        let f = figure10(Some(&["462.libquantum"]));
        assert_eq!(f.rows.len(), 1);
        let v = f.value("462.libquantum", "Tagged").unwrap();
        assert!(v < 1.0, "tagged must reduce streaming miss latency: {v}");
        assert!(f.render().contains("Avg."));
    }

    #[test]
    fn fig11_slice_counts_units() {
        let f = figure11(Some(&["483.xalancbmk"]));
        assert_eq!(f.rows.len(), 3, "one row per basic config");
        let (st, _at, _rp) = f.counts("483.xalancbmk", "-").unwrap();
        assert!(st > 0, "the gather phase must trigger the ST");
    }

    #[test]
    fn fig12_slice_produces_percent_axis() {
        let series = figure12(Some(&["999.specrand"]), 10);
        assert_eq!(series.len(), 1);
        let pts = series[0].points();
        assert!(!pts.is_empty());
        assert!(pts.iter().all(|&(x, _)| (0.0..=100.0).contains(&x)));
        // specrand performs no loads: never any protected buffer.
        assert!(pts.iter().all(|&(_, y)| y == 0.0));
    }
}
