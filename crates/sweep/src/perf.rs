//! Performance-run machinery for Tables IV–VI and Figures 10–12.
//!
//! Lived in `prefender-bench` before the sweep engine existed; it now
//! sits beside the engine so both the bench harness and the `sweep`
//! binary drive workload runs through one implementation
//! (`prefender-bench` re-exports everything here).

use std::fmt;

use prefender_attacks::DefenseConfig;
use prefender_core::{Prefender, PrefenderStats};
use prefender_cpu::Machine;
use prefender_sim::{CacheStats, HierarchyConfig};
use prefender_workloads::Workload;

pub use prefender_attacks::{prefender_stats, Basic};

/// Which PREFENDER flavour a column uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefenderKind {
    /// Scale Tracker + Access Tracker (Table IV's rows).
    StAt {
        /// Access-buffer count (the 16/32/64 sweep).
        buffers: usize,
    },
    /// ST + AT + Record Protector (Table V's rows).
    Full {
        /// Access-buffer count.
        buffers: usize,
    },
}

/// One column of a performance table: an optional PREFENDER stacked on an
/// optional basic prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PerfColumn {
    /// The PREFENDER flavour, or `None` for baseline/basic-only columns.
    pub prefender: Option<PrefenderKind>,
    /// The basic prefetcher.
    pub basic: Basic,
}

impl PerfColumn {
    /// The no-prefetcher baseline all speedups are measured against.
    pub const BASELINE: PerfColumn = PerfColumn { prefender: None, basic: Basic::None };

    /// Builds the per-core prefetcher for this column, `None` for baseline.
    pub fn build(&self) -> Option<Prefender> {
        let (buffers, config) = match self.prefender {
            None => (32, DefenseConfig::None),
            Some(PrefenderKind::StAt { buffers }) => (buffers, DefenseConfig::StAt),
            Some(PrefenderKind::Full { buffers }) => (buffers, DefenseConfig::Full),
        };
        config.build_prefetcher(64, 4096, buffers, self.basic)
    }

    /// Column label in the paper's style.
    pub fn label(&self) -> String {
        match (self.prefender, self.basic) {
            (None, Basic::None) => "Baseline".to_string(),
            (None, b) => b.to_string(),
            (Some(PrefenderKind::StAt { buffers }), Basic::None) => {
                format!("P-ST+AT/{buffers}")
            }
            (Some(PrefenderKind::Full { buffers }), Basic::None) => format!("Prefender/{buffers}"),
            (Some(PrefenderKind::StAt { buffers }), b) => format!("P-ST+AT/{buffers}({b})"),
            (Some(PrefenderKind::Full { buffers }), b) => format!("Prefender/{buffers}({b})"),
        }
    }
}

/// The measurements of one workload under one column.
#[derive(Debug, Clone)]
pub struct PerfResult {
    /// Total cycles to completion.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// L1D statistics (Figure 10 reads `demand_miss_latency`).
    pub l1d: CacheStats,
    /// PREFENDER per-unit prefetch counts (zeros without PREFENDER units).
    pub prefender: PrefenderStats,
    /// Sampled `(cycle, protected-buffer-count)` series, when requested
    /// (Figure 12).
    pub protected_series: Vec<(u64, u64)>,
}

/// Runs `workload` under `column` on the paper-baseline single-core
/// machine. `sample_every` turns on the Figure 12 protected-buffer
/// sampling at the given cycle granularity.
pub fn run_perf(workload: &Workload, column: PerfColumn, sample_every: Option<u64>) -> PerfResult {
    let mut m = Machine::new(HierarchyConfig::paper_baseline(1).expect("valid baseline"));
    if let Some(p) = column.build() {
        m.set_prefetcher(0, p);
    }
    workload.install(&mut m);

    let mut protected_series = Vec::new();
    match sample_every {
        None => {
            let s = m.run();
            assert!(!s.truncated, "workload {} truncated", workload.name());
        }
        Some(bucket) => {
            let mut next = bucket;
            let protected = |m: &Machine| m.prefetcher(0).map_or(0, Prefender::protected_count);
            while m.step() {
                if m.now().raw() >= next {
                    protected_series.push((m.now().raw(), protected(&m) as u64));
                    next += bucket;
                }
            }
            protected_series.push((m.now().raw(), protected(&m) as u64));
        }
    }

    PerfResult {
        cycles: m.now().raw(),
        instructions: m.core(0).retired(),
        l1d: *m.mem().l1d(0).stats(),
        prefender: prefender_stats(&m, 0).unwrap_or_default(),
        protected_series,
    }
}

impl fmt::Display for PerfColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_workloads::spec2006;

    #[test]
    fn column_labels() {
        assert_eq!(PerfColumn::BASELINE.label(), "Baseline");
        let c = PerfColumn { prefender: None, basic: Basic::Tagged };
        assert_eq!(c.label(), "Tagged");
        let c = PerfColumn {
            prefender: Some(PrefenderKind::StAt { buffers: 32 }),
            basic: Basic::Stride,
        };
        assert_eq!(c.label(), "P-ST+AT/32(Stride)");
        let c =
            PerfColumn { prefender: Some(PrefenderKind::Full { buffers: 16 }), basic: Basic::None };
        assert_eq!(c.label(), "Prefender/16");
    }

    #[test]
    fn baseline_builds_no_prefetcher() {
        assert!(PerfColumn::BASELINE.build().is_none());
    }

    #[test]
    fn streaming_workload_gains_from_tagged() {
        let w = spec2006().into_iter().find(|w| w.name() == "462.libquantum").unwrap();
        let base = run_perf(&w, PerfColumn::BASELINE, None);
        let tagged = run_perf(&w, PerfColumn { prefender: None, basic: Basic::Tagged }, None);
        assert!(
            tagged.cycles < base.cycles,
            "tagged must speed up streaming: {} vs {}",
            tagged.cycles,
            base.cycles
        );
    }

    #[test]
    fn gather_workload_gains_from_prefender() {
        let w = prefender_workloads::spec2017()
            .into_iter()
            .find(|w| w.name() == "510.parest_r")
            .unwrap();
        let base = run_perf(&w, PerfColumn::BASELINE, None);
        let p = run_perf(
            &w,
            PerfColumn { prefender: Some(PrefenderKind::StAt { buffers: 32 }), basic: Basic::None },
            None,
        );
        assert!(
            p.cycles < base.cycles,
            "PREFENDER must speed up scaled gathers: {} vs {}",
            p.cycles,
            base.cycles
        );
        assert!(p.prefender.st_prefetches > 0, "the ST must have fired");
    }

    #[test]
    fn sampling_produces_series() {
        let w = spec2006().into_iter().find(|w| w.name() == "999.specrand").unwrap();
        let col =
            PerfColumn { prefender: Some(PrefenderKind::Full { buffers: 32 }), basic: Basic::None };
        let r = run_perf(&w, col, Some(5_000));
        assert!(!r.protected_series.is_empty());
        // specrand performs no loads: never any protected buffer.
        assert!(r.protected_series.iter().all(|&(_, p)| p == 0));
    }
}
