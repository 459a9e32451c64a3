//! The observability contract, pinned from outside the engine:
//!
//! * harvesting obs never changes an artifact byte — `run_sweep_observed`
//!   returns the same report as `run_sweep`;
//! * the merged counter block is a pure function of the grid and
//!   campaign seed — identical at every thread count;
//! * the flight-recorder trace serializes to the same bytes at 1, 2 and
//!   8 threads, and arming the recorder never changes an artifact byte.

use proptest::prelude::*;

use prefender_obs::{arm_trace, disarm_trace, DEFAULT_TRACE_CAPACITY};
use prefender_stats::SplitMix64;
use prefender_sweep::{
    run_sweep, run_sweep_observed, AttackCase, AttackKind, Basic, DefenseConfig, DefensePoint,
    Hierarchy, NoiseSpec, SweepGrid, SweepOptions,
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

/// A small random grid touching every payload kind (attacks, an optional
/// workload, an optional leakage campaign) and every machine-shaping
/// axis, kept small enough to run at three thread counts per case.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Counter totals are a pure function of the grid: 1, 2 and 8
    /// worker threads merge to the same block, and the artifacts the
    /// observed run returns match plain `run_sweep` byte for byte.
    #[test]
    fn counter_totals_are_thread_count_invariant(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        prop_assert!(!grid.is_empty());
        let opts1 = SweepOptions { threads: 1, campaign_seed: 0xC0FFEE ^ seed };
        let plain = run_sweep(&grid, &opts1);
        let (report1, obs1) = run_sweep_observed(&grid, &opts1, None);
        prop_assert_eq!(&report1.to_json(), &plain.to_json());
        prop_assert_eq!(&report1.to_csv(), &plain.to_csv());
        for threads in [2usize, 8] {
            let opts = SweepOptions { threads, campaign_seed: 0xC0FFEE ^ seed };
            let (report, obs) = run_sweep_observed(&grid, &opts, None);
            prop_assert_eq!(&report.to_json(), &plain.to_json(), "threads={}", threads);
            prop_assert_eq!(obs.counters, obs1.counters, "threads={}", threads);
            // The deterministic section of the obs report serializes to
            // the same bytes too (the timing section is the only part
            // allowed to differ).
            prop_assert_eq!(
                obs.counters.to_value().to_json(0),
                obs1.counters.to_value().to_json(0),
                "threads={}",
                threads
            );
            // Every machine run is accounted for exactly once, however
            // chunks landed: attack and leakage runs go through a
            // runner `prepare` (one reset or rebuild each), workload
            // scenarios are one private build each, and on top of that
            // every worker that touched the runner paid one
            // construction rebuild — at most `threads` of those.
            let total = obs.telemetry.resets + obs.telemetry.rebuilds;
            prop_assert!(
                (grid.sims()..=grid.sims() + threads as u64).contains(&total),
                "threads={threads}: resets+rebuilds {total} outside [{}, {}]",
                grid.sims(),
                grid.sims() + threads as u64
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The flight recorder obeys the same determinism contract as the
    /// counters: trace bytes are a pure function of the grid and
    /// campaign seed — identical at 1, 2 and 8 worker threads. Arming
    /// the recorder changes no artifact byte.
    #[test]
    fn trace_bytes_are_thread_count_invariant(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        let opts1 = SweepOptions { threads: 1, campaign_seed: 0xC0FFEE ^ seed };
        let plain = run_sweep(&grid, &opts1);
        let traced = |threads: usize| {
            let opts = SweepOptions { threads, campaign_seed: 0xC0FFEE ^ seed };
            arm_trace(DEFAULT_TRACE_CAPACITY);
            let out = run_sweep_observed(&grid, &opts, None);
            disarm_trace();
            out
        };
        let (report1, obs1) = traced(1);
        let base = obs1.trace_jsonl();
        prop_assert!(obs1.trace_events() > 0, "an attack grid must trace events");
        prop_assert_eq!(obs1.trace_dropped(), 0, "CI-sized grids fit the ring");
        prop_assert_eq!(&report1.to_json(), &plain.to_json());
        prop_assert_eq!(&report1.to_csv(), &plain.to_csv());
        for threads in [2usize, 8] {
            let (report, obs) = traced(threads);
            prop_assert_eq!(&obs.trace_jsonl(), &base, "threads={}", threads);
            prop_assert_eq!(&report.to_json(), &plain.to_json(), "threads={}", threads);
        }
    }
}
