//! # prefender — a reproduction of the PREFENDER secure prefetcher
//!
//! This crate is the facade over a workspace reproducing
//! *"PREFENDER: A Prefetching Defender against Cache Side Channel Attacks
//! as A Pretender"* (Li, Huang, Feng, Wang — DATE 2022; extended version
//! arXiv:2307.06756): a prefetcher that defeats access-based cache timing
//! side-channel attacks *by prefetching the attacker's eviction set*, so
//! the defense doubles as a performance feature.
//!
//! ## The three units (re-exported from [`core`])
//!
//! * [`ScaleTracker`] — learns each register's address *scale* from ALU
//!   dataflow (the paper's Table III) and prefetches the neighbouring
//!   eviction cachelines of every secret-dependent load.
//! * [`AccessTracker`] — per-PC access buffers estimate the attacker's
//!   probe stride (`DiffMin`) and prefetch probes before they are timed.
//! * [`RecordProtector`] — a scale buffer links the two, protecting the
//!   attacker-associated buffers from noisy-instruction thrash and
//!   guiding prefetches past noisy-access corruption.
//!
//! ## Quick start
//!
//! ```
//! use prefender::{AttackKind, AttackSpec, DefenseConfig, run_attack};
//!
//! # fn main() -> Result<(), prefender::AttackError> {
//! // An undefended Spectre-style Flush+Reload leaks the secret...
//! let leak = run_attack(&AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None))?;
//! assert!(leak.leaked);
//!
//! // ...and PREFENDER defeats it.
//! let safe = run_attack(&AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full))?;
//! assert!(!safe.leaked);
//! # Ok(())
//! # }
//! ```
//!
//! The workspace layers, bottom-up: [`sim`] (cache hierarchy), [`isa`]
//! (instruction set), [`cpu`] (timing interpreter), [`prefetch`]
//! (prefetcher trait + Tagged/Stride baselines), [`core`] (PREFENDER
//! itself), [`attacks`] (attack generators/analysis), [`workloads`]
//! (synthetic SPEC-like kernels), [`stats`] (reporting helpers),
//! [`leakage`] (information-theoretic channel measurement) and
//! [`sweep`] (the parallel scenario-sweep engine). The `repro` binary in
//! `prefender-bench` regenerates every table and figure of the paper;
//! see EXPERIMENTS.md.
//!
//! ## The leakage lab
//!
//! Beyond the paper's boolean leak verdicts, the [`leakage`] crate
//! measures each scenario as a *channel*: sweep every secret value × N
//! trials, decode the attacker's observations, and report mutual
//! information, Blahut–Arimoto capacity, max-likelihood accuracy and
//! guessing entropy. An undefended Flush+Reload carries the full
//! `log2(secrets)` bits; the full PREFENDER drives it to ~0.
//!
//! ```
//! use prefender::{AttackKind, AttackSpec, DefenseConfig};
//! use prefender::leakage::LeakageCampaign;
//!
//! let base = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
//! let open = LeakageCampaign::new(base, 4, 1).run(7).unwrap();
//! assert!((open.mi_bits - 2.0).abs() < 0.1, "4 secrets, fully leaked");
//! ```
//!
//! ## Sweep engine
//!
//! Evaluating at scale means running thousands of
//! (attack, defense, prefetcher, hierarchy, workload, seed) combinations
//! — the [`sweep`] crate turns that grid into a declarative object,
//! shards it across a worker-thread pool (each worker owns its own
//! [`Machine`] and memory system) and streams per-scenario results into
//! `sweep.json` / `sweep.csv` artifacts. Runs are **bit-identical at any
//! thread count**: every scenario's probe seed derives from the campaign
//! seed plus the scenario's index in the stably-ordered work-list.
//!
//! ```
//! use prefender::sweep::{run_sweep, SweepGrid, SweepOptions};
//!
//! let grid = SweepGrid::security_quick();
//! let a = run_sweep(&grid, &SweepOptions { threads: 1, campaign_seed: 1 });
//! let b = run_sweep(&grid, &SweepOptions { threads: 4, campaign_seed: 1 });
//! assert_eq!(a.to_json(), b.to_json());
//! ```
//!
//! The same engine is available on the command line:
//!
//! ```sh
//! cargo run --release --bin sweep -- --threads 8 --seed 0xC0FFEE --out out/
//! ```

/// The cache hierarchy simulator (`prefender-sim`).
pub use prefender_sim as sim;

/// The RISC-like ISA (`prefender-isa`).
pub use prefender_isa as isa;

/// The timing interpreter and machine model (`prefender-cpu`).
pub use prefender_cpu as cpu;

/// The prefetcher interface and baselines (`prefender-prefetch`).
pub use prefender_prefetch as prefetch;

/// PREFENDER itself (`prefender-core`).
pub use prefender_core as core;

/// Attack generators and analysis (`prefender-attacks`).
pub use prefender_attacks as attacks;

/// Synthetic SPEC-like workloads (`prefender-workloads`).
pub use prefender_workloads as workloads;

/// Statistics and table rendering (`prefender-stats`).
pub use prefender_stats as stats;

/// Information-theoretic side-channel quantification (`prefender-leakage`).
pub use prefender_leakage as leakage;

/// Zero-cost-when-off counters, spans and telemetry (`prefender-obs`).
pub use prefender_obs as obs;

/// The parallel scenario-sweep engine (`prefender-sweep`).
pub use prefender_sweep as sweep;

/// Static secret-dependence taint analysis (`prefender-taint`).
pub use prefender_taint as taint;

// The most common types, flattened for convenience.
pub use prefender_attacks::{
    run_attack, run_attack_with_timeline, AttackError, AttackKind, AttackLayout, AttackOutcome,
    AttackSpec, DefenseConfig, NoiseSpec,
};
pub use prefender_core::{
    AccessTracker, AtConfig, Prefender, PrefenderBuilder, PrefenderConfig, PrefenderStats,
    Prefetcher, RecordProtector, RpConfig, ScaleTracker, StConfig,
};
pub use prefender_cpu::{CpuConfig, Machine, RunSummary};
pub use prefender_isa::{Instr, Program, ProgramBuilder, Reg};
pub use prefender_prefetch::{BasicPrefetcher, StridePrefetcher, TaggedPrefetcher};
pub use prefender_sim::{Addr, Cycle, HierarchyConfig, MemorySystem};
pub use prefender_workloads::{spec2006, spec2017, Workload};
