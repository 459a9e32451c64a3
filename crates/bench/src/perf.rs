//! The SPEC-substitute performance cells that Tables IV–VI, Figures
//! 10–12 and the buffer ablation read: each experiment's workload grid,
//! run on the sweep engine, and the paper's column labels.

use prefender_core::Prefender;
use prefender_sweep::{
    run_sweep, workload_machine, Basic, DefenseConfig, DefensePoint, Hierarchy, ScenarioResult,
    SweepGrid, SweepOptions,
};
use prefender_workloads::Workload;

/// Runs every workload of `workloads` under `defenses × basics` on the
/// paper hierarchy, as one workload grid on the sweep engine, and returns
/// each workload's results in grid order: defense-major, then basic.
///
/// # Panics
///
/// Panics if a run stops at the instruction cap.
pub(crate) fn workload_results(
    workloads: &[Workload],
    defenses: &[DefensePoint],
    basics: &[Basic],
) -> Vec<Vec<ScenarioResult>> {
    let grid = SweepGrid {
        workloads: workloads.iter().map(|w| w.name().to_string()).collect(),
        defenses: defenses.to_vec(),
        basics: basics.to_vec(),
        ..SweepGrid::empty()
    };
    let results = run_sweep(&grid, &SweepOptions::default()).results;
    for r in &results {
        assert!(!r.truncated, "scenario {} truncated", r.id);
    }
    results.chunks(defenses.len() * basics.len()).map(<[_]>::to_vec).collect()
}

/// The no-prefetcher baseline every speedup is measured against.
pub(crate) const BASE: DefensePoint = DefensePoint::new(DefenseConfig::None);

/// A column label in the paper's style: `P-ST+AT/16`, `Tagged`,
/// `Prefender/32(Stride)`.
pub(crate) fn label(defense: DefensePoint, basic: Basic) -> String {
    let unit = match defense.config {
        DefenseConfig::None if basic == Basic::None => return "Baseline".into(),
        DefenseConfig::None => return basic.to_string(),
        DefenseConfig::StAt => "P-ST+AT".to_string(),
        config => config.to_string(),
    };
    match basic {
        Basic::None => format!("{unit}/{}", defense.buffers),
        basic => format!("{unit}/{}({basic})", defense.buffers),
    }
}

/// The columns over `defenses` (the baseline first) × every basic
/// prefetcher, as each one's index into a workload's
/// [`workload_results`] and its label: per basic prefetcher, the basic
/// prefetcher alone (skipped for none, which is the baseline) and then
/// each PREFENDER point over it.
pub(crate) fn columns(defenses: &[DefensePoint]) -> Vec<(usize, String)> {
    let mut cols = Vec::new();
    for (b, basic) in Basic::ALL.into_iter().enumerate() {
        for (d, &defense) in defenses.iter().enumerate().skip(usize::from(basic == Basic::None)) {
            cols.push((d * Basic::ALL.len() + b, label(defense, basic)));
        }
    }
    cols
}

/// The baseline, ST+AT and full PREFENDER at 32 buffers: the defenses of
/// Table VI and Figure 10.
pub(crate) const AT32_DEFENSES: [DefensePoint; 3] =
    [BASE, DefensePoint::new(DefenseConfig::StAt), DefensePoint::new(DefenseConfig::Full)];

/// Runs `w` under full PREFENDER at 32 buffers with no basic prefetcher
/// (Figure 12's configuration) and samples its protected-access-buffer
/// count through `Machine::run_sampled`: `(cycle, count)` every `every`
/// cycles, the last one at the end of the run.
pub(crate) fn protected_series(w: &Workload, every: u64) -> Vec<(u64, usize)> {
    let full = DefensePoint::new(DefenseConfig::Full);
    let mut m = workload_machine(w, full, Basic::None, Hierarchy::Paper);
    let mut points = Vec::new();
    m.run_sampled(every, |m| {
        points.push((m.now().raw(), m.prefetcher(0).map_or(0, Prefender::protected_count)));
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_workloads::spec2006;

    fn spec2006_named(name: &str) -> Workload {
        spec2006().into_iter().find(|w| w.name() == name).unwrap()
    }

    #[test]
    fn column_labels() {
        assert_eq!(label(BASE, Basic::None), "Baseline");
        assert_eq!(label(BASE, Basic::Tagged), "Tagged");
        let stat32 = DefensePoint::new(DefenseConfig::StAt);
        assert_eq!(label(stat32, Basic::Stride), "P-ST+AT/32(Stride)");
        let full16 = DefensePoint { config: DefenseConfig::Full, buffers: 16 };
        assert_eq!(label(full16, Basic::None), "Prefender/16");
    }

    #[test]
    fn baseline_builds_no_prefetcher() {
        let w = spec2006_named("999.specrand");
        assert!(workload_machine(&w, BASE, Basic::None, Hierarchy::Paper).prefetcher(0).is_none());
    }

    #[test]
    fn streaming_workload_gains_from_tagged() {
        let w = spec2006_named("462.libquantum");
        let row = &workload_results(&[w], &[BASE], &[Basic::None, Basic::Tagged])[0];
        let (base, tagged) = (row[0].cycles, row[1].cycles);
        assert!(tagged < base, "tagged must speed up streaming: {tagged} vs {base}");
    }

    #[test]
    fn sampling_produces_series() {
        let series = protected_series(&spec2006_named("999.specrand"), 5_000);
        assert!(!series.is_empty());
        // specrand performs no loads: never any protected buffer.
        assert!(series.iter().all(|&(_, p)| p == 0));
    }
}
