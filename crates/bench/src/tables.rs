//! Tables IV, V and VI: SPEC speedup tables.

use prefender_stats::{speedup_pct, Table};
use prefender_sweep::{Basic, DefenseConfig, DefensePoint};
use prefender_workloads::{spec2006, spec2017, Workload};

use crate::perf::{columns, workload_results, AT32_DEFENSES, BASE};

/// One regenerated speedup table: headers, per-benchmark speedup rows and
/// the average row, in percent versus the no-prefetcher baseline.
#[derive(Debug, Clone)]
pub struct SpeedupTable {
    /// Column labels (first cell is "Benchmark").
    pub headers: Vec<String>,
    /// `(benchmark, speedups-per-column)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Arithmetic mean per column (the paper's "Avg." row).
    pub avg: Vec<f64>,
}

impl SpeedupTable {
    /// The speedup of `benchmark` in the column labelled `label`.
    pub fn speedup(&self, benchmark: &str, label: &str) -> Option<f64> {
        let col = self.headers.iter().position(|h| h == label)? - 1;
        let row = self.rows.iter().find(|(b, _)| b == benchmark)?;
        row.1.get(col).copied()
    }

    /// Renders in the paper's layout.
    pub fn render(&self) -> String {
        let mut t = Table::new(self.headers.clone());
        for (name, vals) in &self.rows {
            let mut cells = vec![name.clone()];
            cells.extend(vals.iter().map(|v| format!("{v:+.3}%")));
            t.row(cells);
        }
        let mut avg = vec!["Avg.".to_string()];
        avg.extend(self.avg.iter().map(|v| format!("{v:+.3}%")));
        t.row(avg);
        t.render()
    }
}

fn build(workloads: &[Workload], defenses: &[DefensePoint]) -> SpeedupTable {
    let columns = columns(defenses);
    let mut headers = vec!["Benchmark".to_string()];
    headers.extend(columns.iter().map(|(_, label)| label.clone()));
    let results = workload_results(workloads, defenses, &Basic::ALL);
    let mut rows = Vec::with_capacity(workloads.len());
    let mut sums = vec![0.0f64; columns.len()];
    for (workload, row) in workloads.iter().zip(&results) {
        let base = row[0].cycles as f64;
        let mut vals = Vec::with_capacity(columns.len());
        for (sum, &(cell, _)) in sums.iter_mut().zip(&columns) {
            let s = speedup_pct(base, row[cell].cycles as f64);
            *sum += s;
            vals.push(s);
        }
        rows.push((workload.name().to_string(), vals));
    }
    let n = workloads.len().max(1) as f64;
    let avg = sums.into_iter().map(|s| s / n).collect();
    SpeedupTable { headers, rows, avg }
}

/// The baseline and PREFENDER at 16/32/64 buffers, the defenses of
/// Tables IV/V: their eleven columns are PREFENDER alone at each count,
/// Tagged, PREFENDER over Tagged at each count, Stride, PREFENDER over
/// Stride at each count.
fn table45_defenses(rp: bool) -> Vec<DefensePoint> {
    let config = if rp { DefenseConfig::Full } else { DefenseConfig::StAt };
    let mut defenses = vec![BASE];
    defenses.extend([16, 32, 64].map(|buffers| DefensePoint { config, buffers }));
    defenses
}

/// Table IV: SPEC 2006 speedups *without* the Record Protector.
pub fn table4() -> SpeedupTable {
    build(&spec2006(), &table45_defenses(false))
}

/// Table V: SPEC 2006 speedups *with* the Record Protector.
pub fn table5() -> SpeedupTable {
    build(&spec2006(), &table45_defenses(true))
}

/// Table VI: SPEC 2017 speedups, ST+AT and full PREFENDER at 32 buffers
/// over each basic prefetcher.
pub fn table6() -> SpeedupTable {
    build(&spec2017(), &AT32_DEFENSES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::label;

    #[test]
    fn table45_column_shape() {
        let cols = columns(&table45_defenses(false));
        assert_eq!(cols.len(), 11, "the paper's Tables IV/V have 11 data columns");
        assert_eq!(cols[0].1, "P-ST+AT/16");
        assert_eq!(cols[3].1, "Tagged");
        assert_eq!(cols[10].1, "P-ST+AT/64(Stride)");
        let cols = columns(&table45_defenses(true));
        assert_eq!(cols[0].1, "Prefender/16");
        let labels: Vec<String> = columns(&AT32_DEFENSES).into_iter().map(|c| c.1).collect();
        assert_eq!(labels.len(), 8, "Table VI has 8 data columns");
        assert_eq!(labels[5..], ["Stride", "P-ST+AT/32(Stride)", "Prefender/32(Stride)"]);
        assert_eq!(label(BASE, Basic::None), "Baseline");
    }

    // The full tables run in CI's `repro all` step (they take seconds);
    // here we spot-check a two-benchmark slice.
    #[test]
    fn slice_of_table4_has_positive_streaming_speedups() {
        let workloads: Vec<_> = spec2006()
            .into_iter()
            .filter(|w| w.name() == "462.libquantum" || w.name() == "999.specrand")
            .collect();
        let t = build(&workloads, &table45_defenses(false));
        let lib = t.speedup("462.libquantum", "P-ST+AT/32").unwrap();
        assert!(lib > 0.0, "libquantum should gain: {lib}");
        let tagged = t.speedup("462.libquantum", "Tagged").unwrap();
        assert!(tagged > 0.0, "tagged must speed up streaming: {tagged}");
        let rand = t.speedup("999.specrand", "P-ST+AT/32").unwrap();
        assert!(rand.abs() < 0.5, "specrand should be flat: {rand}");
        assert!(t.render().contains("Avg."));
    }

    #[test]
    fn slice_of_table6_gains_from_the_scale_tracker() {
        let parest: Vec<_> =
            spec2017().into_iter().filter(|w| w.name() == "510.parest_r").collect();
        let t = build(&parest, &AT32_DEFENSES);
        let gain = t.speedup("510.parest_r", "P-ST+AT/32").unwrap();
        assert!(gain > 0.0, "PREFENDER must speed up scaled gathers: {gain}");
        let (cell, _) = columns(&AT32_DEFENSES).into_iter().find(|c| c.1 == "P-ST+AT/32").unwrap();
        let results = workload_results(&parest, &AT32_DEFENSES, &Basic::ALL);
        assert!(results[0][cell].st_prefetches > 0, "the ST must have fired");
    }
}
