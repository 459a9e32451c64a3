//! # prefender-bench — the experiment harness
//!
//! One runner per table and figure of the PREFENDER paper's evaluation
//! (Section V), all reachable through the `repro` binary:
//!
//! | Paper artifact | Runner | `repro` subcommand |
//! |---|---|---|
//! | Figure 8 (a)–(l) | [`security::figure8`] | `fig8` |
//! | Figure 9 (a)–(f) | [`security::figure9`] | `fig9` |
//! | Table IV | [`tables::table4`] | `table4` |
//! | Table V | [`tables::table5`] | `table5` |
//! | Table VI | [`tables::table6`] | `table6` |
//! | Figure 10 | [`figures::figure10`] | `fig10` |
//! | Figure 11 | [`figures::figure11`] | `fig11` |
//! | Figure 12 | [`figures::figure12`] | `fig12` |
//! | Section V-E | [`hwcost::report`] | `hwcost` |
//! | (extensions) | [`ablation`] | `ablate-*` |
//! | (extension: Figure 8 in bits) | [`leakage::leakage_map`] | `leakage` |
//! | (extension: static audit) | [`audit::run`] | `audit` |
//! | (extension: hot-path throughput) | [`simbench::run`] | `bench-sim` |
//!
//! Every runner is a pure function returning printable text plus
//! structured data, so the integration tests can assert the paper's
//! qualitative claims (who wins, where, by roughly what factor) while the
//! binary prints the same rows/series the paper reports.

pub mod ablation;
pub mod audit;
pub mod figures;
pub mod forensics;
pub mod hwcost;
pub mod leakage;
mod perf;
pub mod security;
pub mod simbench;
pub mod tables;
