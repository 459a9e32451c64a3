//! # prefender-attacks — cache side-channel attacks and analysis
//!
//! Generates the attack programs the PREFENDER paper evaluates against
//! (Section V-B / Figure 8) and analyses their outcomes:
//!
//! * **Flush+Reload** — flush the eviction set, let the victim run, reload
//!   and time every line; the single *hit* leaks the secret.
//! * **Evict+Reload** — like Flush+Reload but phase 1 evicts by loading
//!   L2-set-conflicting attacker data instead of flushing.
//! * **Prime+Probe** — fill the victim's cache sets with attacker data;
//!   the victim's access evicts one line; the single probe *miss* leaks.
//!
//! Each attack supports the paper's four challenge combinations:
//! C1+C2 (baseline: single victim access + random probe order), +C3
//! (noisy instructions thrash the Access Tracker's buffers) and +C4
//! (noisy accesses by the probe load corrupt DiffMin), plus single-core
//! and cross-core variants (paper Figure 4).
//!
//! The victim performs the paper's Figure-5 address computation
//! (`array[secret × 0x200]`), so the Scale Tracker can learn the scale
//! from real dataflow.
//!
//! ```no_run
//! use prefender_attacks::{AttackSpec, AttackKind, DefenseConfig, run_attack};
//!
//! let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
//! let outcome = run_attack(&spec).unwrap();
//! assert!(outcome.leaked, "an undefended Flush+Reload leaks the secret");
//!
//! let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::Full);
//! let outcome = run_attack(&spec).unwrap();
//! assert!(!outcome.leaked, "PREFENDER defeats it");
//! ```

mod analysis;
mod layout;
mod programs;
mod runner;

pub use analysis::{classify, AttackOutcome, ProbeSample};
pub use layout::AttackLayout;
pub use programs::{
    evict_program, flush_program, prime_probe_probe_program, prime_probe_program,
    reload_probe_program, victim_program, ProbeProgram,
};
pub use runner::{
    composed_attack_program, machine_obs, prefender_stats, run_attack, run_attack_full,
    run_attack_with_timeline, AttackError, AttackKind, AttackSpec, Basic, DefenseConfig,
    MachineKey, NoiseSpec, RunMetrics, Runner, TimelinePoint,
};
