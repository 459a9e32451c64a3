//! Tables IV, V and VI: SPEC speedup tables.

use prefender_stats::{speedup_pct, Table};
use prefender_sweep::parallel_map_2d;
use prefender_workloads::{spec2006, spec2017, Workload};

use prefender_sweep::perf::{run_perf, Basic, PerfColumn, PrefenderKind};

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

fn build(workloads: &[Workload], columns: &[PerfColumn]) -> SpeedupTable {
    let mut headers = vec!["Benchmark".to_string()];
    headers.extend(columns.iter().map(PerfColumn::label));
    // One work cell per (workload, column) — column 0 is the per-workload
    // baseline — sharded over the sweep engine's worker pool. Cells are
    // pure and the map is order-preserving, so the table is identical to
    // the old serial nested loop at any thread count.
    let cycles = parallel_map_2d(workloads.len(), columns.len() + 1, 0, |w, c| {
        let column = if c == 0 { PerfColumn::BASELINE } else { columns[c - 1] };
        run_perf(&workloads[w], column, None).cycles as f64
    });
    let mut rows = Vec::with_capacity(workloads.len());
    let mut sums = vec![0.0f64; columns.len()];
    for (workload, row) in workloads.iter().zip(&cycles) {
        let base = row[0];
        let mut vals = Vec::with_capacity(columns.len());
        for (sum, cell) in sums.iter_mut().zip(&row[1..]) {
            let s = speedup_pct(base, *cell);
            *sum += s;
            vals.push(s);
        }
        rows.push((workload.name().to_string(), vals));
    }
    let n = workloads.len().max(1) as f64;
    let avg = sums.into_iter().map(|s| s / n).collect();
    SpeedupTable { headers, rows, avg }
}

/// The eleven columns of Tables IV/V: PREFENDER alone at 16/32/64
/// buffers, Tagged, PREFENDER-over-Tagged at 16/32/64, Stride,
/// PREFENDER-over-Stride at 16/32/64.
fn table45_columns(rp: bool) -> Vec<PerfColumn> {
    let kind = |buffers| {
        if rp {
            PrefenderKind::Full { buffers }
        } else {
            PrefenderKind::StAt { buffers }
        }
    };
    let mut cols = Vec::new();
    for basic in [Basic::None, Basic::Tagged, Basic::Stride] {
        if basic != Basic::None {
            cols.push(PerfColumn { prefender: None, basic });
        }
        for buffers in [16, 32, 64] {
            cols.push(PerfColumn { prefender: Some(kind(buffers)), basic });
        }
    }
    cols
}

/// Table IV: SPEC 2006 speedups *without* the Record Protector.
pub fn table4() -> SpeedupTable {
    build(&spec2006(), &table45_columns(false))
}

/// Table V: SPEC 2006 speedups *with* the Record Protector.
pub fn table5() -> SpeedupTable {
    build(&spec2006(), &table45_columns(true))
}

/// Table VI: SPEC 2017 speedups, ST+AT and full PREFENDER at 32 buffers
/// over each basic prefetcher.
pub fn table6() -> SpeedupTable {
    let mut cols = Vec::new();
    for basic in [Basic::None, Basic::Tagged, Basic::Stride] {
        if basic != Basic::None {
            cols.push(PerfColumn { prefender: None, basic });
        }
        cols.push(PerfColumn { prefender: Some(PrefenderKind::StAt { buffers: 32 }), basic });
        cols.push(PerfColumn { prefender: Some(PrefenderKind::Full { buffers: 32 }), basic });
    }
    build(&spec2017(), &cols)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table45_column_shape() {
        let cols = table45_columns(false);
        assert_eq!(cols.len(), 11, "the paper's Tables IV/V have 11 data columns");
        assert_eq!(cols[0].label(), "P-ST+AT/16");
        assert_eq!(cols[3].label(), "Tagged");
        assert_eq!(cols[10].label(), "P-ST+AT/64(Stride)");
        let cols = table45_columns(true);
        assert_eq!(cols[0].label(), "Prefender/16");
    }

    // The full tables run in CI's `repro all` step (they take seconds);
    // here we spot-check a two-benchmark slice.
    #[test]
    fn slice_of_table4_has_positive_streaming_speedups() {
        let workloads: Vec<_> = spec2006()
            .into_iter()
            .filter(|w| w.name() == "462.libquantum" || w.name() == "999.specrand")
            .collect();
        let t = build(&workloads, &table45_columns(false));
        let lib = t.speedup("462.libquantum", "P-ST+AT/32").unwrap();
        assert!(lib > 0.0, "libquantum should gain: {lib}");
        let rand = t.speedup("999.specrand", "P-ST+AT/32").unwrap();
        assert!(rand.abs() < 0.5, "specrand should be flat: {rand}");
        assert!(t.render().contains("Avg."));
    }
}
