//! Config-major scheduling is a pure scheduling choice: `run_sweep`'s
//! output is pinned bit-for-bit against plain index-order sequential
//! execution, across random grids and thread counts.

use proptest::prelude::*;

use prefender_stats::SplitMix64;
use prefender_sweep::{
    run_sweep, AttackCase, AttackKind, Basic, DefenseConfig, DefensePoint, Hierarchy, NoiseSpec,
    Payload, Scenario, SweepGrid, SweepOptions, SweepReport,
};

/// A deterministic picker over a seed (SplitMix64 stream) so a single
/// `u64` strategy drives every grid-shaping choice.
struct Picker(SplitMix64);

impl Picker {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }
}

/// A small random grid touching every axis kind: 1–2 attack cases, an
/// optional workload, an optional leakage campaign, 1–2 defenses, 1–2
/// basics, 1–2 hierarchies, 1–2 seed slots. Kept small so the proptest
/// runs the grid five times per case (reference + four thread counts)
/// in reasonable time.
fn random_grid(seed: u64) -> SweepGrid {
    let mut p = Picker(SplitMix64::new(seed));
    let kinds = [AttackKind::FlushReload, AttackKind::EvictReload, AttackKind::PrimeProbe];
    let noises = [NoiseSpec::NONE, NoiseSpec::C3, NoiseSpec::C4, NoiseSpec::C3C4];
    let mut g = SweepGrid::empty();
    g.attacks = (0..1 + p.below(2))
        .map(|_| AttackCase {
            kind: p.pick(&kinds),
            noise: p.pick(&noises),
            cross_core: p.below(2) == 0,
        })
        .collect();
    if p.below(2) == 0 {
        g.workloads = vec!["999.specrand".to_string()];
    }
    if p.below(2) == 0 {
        g.leakages = vec![AttackCase {
            kind: p.pick(&kinds),
            noise: NoiseSpec::NONE,
            cross_core: p.below(2) == 0,
        }];
        g.leakage_secrets = 2;
        g.leakage_trials = 1;
    }
    let configs = [
        DefenseConfig::None,
        DefenseConfig::St,
        DefenseConfig::At,
        DefenseConfig::StAt,
        DefenseConfig::AtRp,
        DefenseConfig::Full,
    ];
    g.defenses = (0..1 + p.below(2))
        .map(|_| DefensePoint { config: p.pick(&configs), buffers: p.pick(&[16usize, 32]) })
        .collect();
    g.basics = match p.below(3) {
        0 => vec![Basic::None],
        1 => vec![Basic::Tagged],
        _ => vec![Basic::None, Basic::Stride],
    };
    g.hierarchies = match p.below(3) {
        0 => vec![Hierarchy::Paper],
        1 => vec![Hierarchy::Fifo],
        _ => vec![Hierarchy::Paper, Hierarchy::BigL2],
    };
    g.seeds = 1 + p.below(2) as u32;
    g
}

/// Plain index-order sequential execution — the reference the scheduled
/// engine must reproduce bit-for-bit.
fn reference_report(grid: &SweepGrid, campaign_seed: u64) -> SweepReport {
    let resample = grid.resample();
    let results = grid
        .enumerate()
        .iter()
        .map(|s| prefender_sweep::run_scenario_with(s, campaign_seed, &resample))
        .collect();
    SweepReport { campaign_seed, results }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole determinism claim: config-major-scheduled `run_sweep`
    /// equals index-order execution, byte for byte, at every thread count.
    #[test]
    fn config_major_schedule_matches_index_order(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        prop_assert!(!grid.is_empty());
        let reference = reference_report(&grid, 0xC0FFEE ^ seed);
        let ref_json = reference.to_json();
        let ref_csv = reference.to_csv();
        for threads in [1usize, 2, 3, 8] {
            let opts = SweepOptions { threads, campaign_seed: 0xC0FFEE ^ seed };
            let scheduled = run_sweep(&grid, &opts);
            prop_assert_eq!(&scheduled.to_json(), &ref_json, "threads={}", threads);
            prop_assert_eq!(&scheduled.to_csv(), &ref_csv, "threads={}", threads);
            if reference.has_leakage() {
                prop_assert_eq!(
                    &scheduled.leakage_json(),
                    &reference.leakage_json(),
                    "threads={}",
                    threads
                );
            }
        }
    }
}

/// The grouped dispatch order is a permutation of the work-list, grouped
/// by machine key, stable (index order) within groups — and every result
/// still lands at its own index.
#[test]
fn machine_key_grouping_is_stable_and_index_preserving() {
    let grid = random_grid(0x5EED);
    let scenarios = grid.enumerate();
    let mut order: Vec<&Scenario> = scenarios.iter().collect();
    order.sort_by_key(|s| s.machine_key());
    // A stable sort keeps index order inside every equal-key run.
    for w in order.windows(2) {
        if w[0].machine_key() == w[1].machine_key() {
            assert!(w[0].index < w[1].index, "stable within group");
        }
    }
    // And it is a permutation: every index appears exactly once.
    let mut seen: Vec<usize> = order.iter().map(|s| s.index).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..scenarios.len()).collect::<Vec<_>>());
    // The machine key reflects the payload's core scope.
    for s in &scenarios {
        match &s.payload {
            Payload::Attack(c) | Payload::Leakage { case: c, .. } => {
                assert_eq!(s.machine_key().0, c.cross_core, "{}", s.id());
            }
            Payload::Workload(_) => assert!(!s.machine_key().0, "{}", s.id()),
        }
    }
}
