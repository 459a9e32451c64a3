//! # prefender-sim — cache hierarchy simulator
//!
//! A set-associative, inclusive, multi-core cache/memory hierarchy simulator.
//! This crate is the *substrate* on which the PREFENDER secure prefetcher
//! (DATE 2022) is evaluated: it models the gem5-like configuration used by
//! the paper — per-core L1I/L1D caches, a shared L2 (last-level) cache,
//! an MSHR file (4 entries, up to 20 merged requests per line), `clflush`
//! semantics, and non-blocking prefetch fills with completion times.
//!
//! The simulator is *timing-approximate*: every demand access returns the
//! number of cycles it took, so attack programs can discriminate cache hits
//! from misses exactly the way real side-channel attacks do.
//!
//! ## Quick example
//!
//! ```
//! use prefender_sim::{HierarchyConfig, MemorySystem, AccessKind, Addr, Cycle};
//!
//! # fn main() -> Result<(), prefender_sim::ConfigError> {
//! let cfg = HierarchyConfig::paper_baseline(1)?; // one core, paper's sizes
//! let mut mem = MemorySystem::new(cfg);
//! let a = Addr::new(0x4000);
//!
//! let miss = mem.access(0, a, AccessKind::Read, Cycle::ZERO);
//! let hit = mem.access(0, a, AccessKind::Read, Cycle::new(1000));
//! assert!(miss.latency > hit.latency);
//! # Ok(())
//! # }
//! ```

mod addr;
mod cache;
mod config;
mod hash;
mod hierarchy;
mod line;
mod mshr;
mod replacement;
mod stats;
mod time;

pub use addr::Addr;
pub use cache::{Cache, EvictedLine, LookupResult};
pub use config::{CacheConfig, ConfigError, HierarchyConfig};
pub use hash::{Mix64Hasher, Mix64Map};
pub use hierarchy::{AccessKind, AccessOutcome, FetchRun, Level, MemorySystem};
pub use line::CacheLine;
pub use mshr::{MshrFile, MshrOutcome};
pub use replacement::ReplacementPolicy;
pub use stats::{CacheStats, PrefetchSource};
pub use time::Cycle;
