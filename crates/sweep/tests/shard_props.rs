//! Crash-safety properties of sharded campaigns.
//!
//! 1. The shard plan is an exact partition of the scenario index space —
//!    no scenario is dropped or run twice, whatever the grid size and
//!    shard size.
//! 2. Resume is exact: after deleting a random subset of committed
//!    shards (and truncating one survivor), `resume_sharded` reproduces
//!    the plain sequential single-process artifacts **bit for bit**, at
//!    1, 2 and 8 threads.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use prefender_stats::SplitMix64;
use prefender_sweep::{
    resume_sharded, run_sharded, shard_file_name, AttackCase, AttackKind, Basic, DefenseConfig,
    DefensePoint, Hierarchy, NoiseSpec, ShardPlan, SweepGrid, SweepOptions, SHARD_DIR,
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

/// A small random grid touching every payload kind, kept compact so
/// each proptest case runs the grid a handful of times (reference plus
/// resumes at three thread counts).
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
        g.leakages =
            vec![AttackCase { kind: p.pick(&kinds), noise: NoiseSpec::NONE, cross_core: false }];
        g.leakage_secrets = 2;
        g.leakage_trials = 1;
    }
    g.defenses = vec![DefensePoint {
        config: p.pick(&[DefenseConfig::None, DefenseConfig::StAt, DefenseConfig::Full]),
        buffers: p.pick(&[16usize, 32]),
    }];
    g.basics = vec![p.pick(&[Basic::None, Basic::Tagged, Basic::Stride])];
    g.hierarchies = vec![p.pick(&[Hierarchy::Paper, Hierarchy::Fifo])];
    g.seeds = 1 + p.below(2) as u32;
    g
}

fn scratch(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("prefender-shardprops-{tag}-{}-{seed:x}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard ranges partition `0..n` exactly: contiguous, in order,
    /// nonempty, each at most `shard_size` long, with nothing missing
    /// and nothing repeated.
    #[test]
    fn shard_plan_partitions_the_index_space(n in 0usize..5000, shard_size in 1usize..64) {
        let plan = ShardPlan::new(n, shard_size);
        prop_assert_eq!(plan.n_shards(), n.div_ceil(shard_size));
        let mut covered = 0usize;
        for shard in 0..plan.n_shards() {
            let range = plan.range(shard);
            prop_assert_eq!(range.start, covered, "shard {} is contiguous", shard);
            prop_assert!(!range.is_empty(), "shard {} is nonempty", shard);
            prop_assert!(range.len() <= shard_size, "shard {} respects the size cap", shard);
            covered = range.end;
        }
        prop_assert_eq!(covered, n, "the plan covers every scenario exactly once");
        prop_assert_eq!(plan.ranges().count(), plan.n_shards());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The resume-exactness claim: drop a random subset of committed
    /// shards, truncate one survivor, resume — the merged report's
    /// artifacts are byte-identical to an uninterrupted in-memory run,
    /// at every thread count. Each round re-damages the (now complete)
    /// campaign so 1, 2 and 8 threads all actually execute shards.
    #[test]
    fn resume_after_dropping_random_shards_is_bit_exact(seed in 0u64..1 << 48) {
        let grid = random_grid(seed);
        let campaign_seed = 0xC0FFEE ^ seed;
        let shard_size = 1 + (seed % 3) as usize;
        let reference = {
            let opts = SweepOptions { threads: 1, campaign_seed };
            prefender_sweep::run_sweep(&grid, &opts)
        };
        let (ref_json, ref_csv) = (reference.to_json(), reference.to_csv());

        let dir = scratch("resume", seed);
        let opts = SweepOptions { threads: 2, campaign_seed };
        let (first, _) = run_sharded(&dir, &grid, &opts, shard_size).expect("fresh run");
        prop_assert_eq!(&first.to_json(), &ref_json);

        let plan = ShardPlan::new(grid.len(), shard_size);
        let mut p = Picker(SplitMix64::new(seed ^ 0xD1CE));
        for threads in [1usize, 2, 8] {
            // Damage: delete each shard with probability 1/2, and
            // truncate the tail of one random survivor.
            let shards = dir.join(SHARD_DIR);
            let mut survivors = Vec::new();
            for shard in 0..plan.n_shards() {
                if p.below(2) == 0 {
                    fs::remove_file(shards.join(shard_file_name(shard))).expect("drop shard");
                } else {
                    survivors.push(shard);
                }
            }
            if !survivors.is_empty() {
                let victim = shards.join(shard_file_name(p.pick(&survivors)));
                let bytes = fs::read(&victim).expect("read victim");
                let keep = bytes.len() - 1 - p.below(24.min(bytes.len() as u64 - 1)) as usize;
                fs::write(&victim, &bytes[..keep]).expect("truncate victim");
            }
            let (resumed, _, stats) = resume_sharded(&dir, threads).expect("resume");
            prop_assert_eq!(resumed.to_json(), ref_json.clone(), "threads={}", threads);
            prop_assert_eq!(resumed.to_csv(), ref_csv.clone(), "threads={}", threads);
            if reference.has_leakage() {
                prop_assert_eq!(
                    resumed.leakage_json(),
                    reference.leakage_json(),
                    "threads={}", threads
                );
            }
            prop_assert_eq!(
                stats.loaded + stats.committed,
                plan.n_shards(),
                "every shard is either loaded or re-run"
            );
            if !survivors.is_empty() {
                prop_assert_eq!(
                    stats.counters.shard_quarantines,
                    1,
                    "the truncated survivor quarantines"
                );
            }
        }
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
