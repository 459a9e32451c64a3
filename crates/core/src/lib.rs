//! # prefender-core — the PREFENDER secure prefetcher
//!
//! This crate is the paper's contribution: a prefetcher that defends
//! against access-based cache timing side-channel attacks *by prefetching*,
//! turning the defense itself into a performance feature.
//!
//! Three cooperating units (paper Section IV):
//!
//! * [`ScaleTracker`] — tracks, per architectural register, a pair
//!   `(fva, sc)` — *fixed value* and *scale* — through ALU dataflow using
//!   the rules of the paper's Table III. When a load executes through a
//!   base register whose scale is larger than a cacheline and smaller than
//!   a page, the addresses `addr ± sc` are other *eviction cachelines* the
//!   victim could have touched; prefetching them hides which one the
//!   secret selected (defeats attack phase 2; challenge C1).
//! * [`AccessTracker`] — a file of per-PC *access buffers* recording the
//!   block addresses each load touches. Once a buffer holds enough
//!   entries, the probe stride is estimated as `DiffMin` — the minimum
//!   pairwise difference — and `blk ± DiffMin` is prefetched *before* the
//!   attacker times it (defeats phase 3 even under random probe order;
//!   challenge C2).
//! * [`RecordProtector`] — a *scale buffer* of `(sc, BlkAddr)` patterns
//!   recorded when the Scale Tracker prefetches. Accesses matching a
//!   pattern mark their access buffer *protected*: exempt from LRU
//!   replacement (noisy instructions, challenge C3) and prefetched using
//!   the *hit scale* instead of a possibly-corrupted DiffMin (noisy
//!   accesses, challenge C4).
//!
//! The composed [`Prefender`] implements [`Prefetcher`] over an optional
//! conventional [`BasicPrefetcher`] at lower priority. It is the one
//! per-core prefetcher type of the machine model: a core with a basic
//! prefetcher alone runs a `Prefender` with every unit off.
//!
//! ```
//! use prefender_core::Prefender;
//!
//! let p = Prefender::builder(64, 4096)
//!     .scale_tracker(true)
//!     .access_buffers(32)
//!     .record_protector(true)
//!     .build();
//! assert!(p.scale_tracker().is_some() && p.basic().is_none());
//! ```

mod access_tracker;
mod calc;
mod config;
mod hw_cost;
mod prefender;
mod record_protector;
mod scale_tracker;
mod stats;

pub use access_tracker::{AccessBuffer, AccessTracker, AtDecision};
pub use calc::{CalculationBuffer, RegTrack};
pub use config::{AtConfig, PrefenderConfig, RpConfig, StConfig};
pub use hw_cost::{hw_cost, HwCost};
pub use prefender::{Prefender, PrefenderBuilder};
pub use record_protector::{RecordProtector, ScaleEntry};
pub use scale_tracker::ScaleTracker;
pub use stats::PrefenderStats;

// Re-exported so downstream crates name these without an extra dep.
pub use prefender_prefetch::{BasicPrefetcher, Prefetcher};
