//! # prefender-prefetch — prefetcher interface and classic baselines
//!
//! Defines the [`Prefetcher`] trait, through which a prefetcher at a core's
//! L1D observes two event streams:
//!
//! * **retire events** — retired instructions that write a register
//!   (PREFENDER's Scale Tracker consumes these to track register dataflow);
//! * **access events** — every demand L1D access with its observed latency
//!   and hit level (all prefetchers consume these).
//!
//! Two classic baselines used by the paper's Tables IV–VI are provided:
//! the [`TaggedPrefetcher`] (Smith, 1978) and the Baer–Chen
//! [`StridePrefetcher`] (1991). [`BasicPrefetcher`] is the closed set of
//! the two that PREFENDER sits over (`prefender-core`).
//!
//! ```
//! use prefender_prefetch::{Prefetcher, TaggedPrefetcher, AccessEvent};
//! use prefender_sim::{Addr, AccessOutcome, AccessKind, Cycle, Level};
//!
//! let mut t = TaggedPrefetcher::new(64, 1);
//! let miss = AccessEvent {
//!     core: 0,
//!     pc: 0x8000,
//!     vaddr: Addr::new(0x1000),
//!     base: None,
//!     kind: AccessKind::Read,
//!     outcome: AccessOutcome {
//!         latency: 200,
//!         served_by: Level::Memory,
//!         first_prefetch_use: false,
//!         prefetch_source: None,
//!     },
//!     now: Cycle::ZERO,
//! };
//! let reqs = t.on_access(&miss, &|_| false);
//! assert_eq!(reqs[0].addr, Addr::new(0x1040)); // next-line prefetch
//! ```

mod event;
mod stride;
mod tagged;

pub use event::{AccessEvent, PrefetchRequest, RetireEvent};
pub use stride::{StrideEntry, StridePrefetcher, StrideState};
pub use tagged::TaggedPrefetcher;

use prefender_sim::Addr;

/// The event interface of a prefetcher at one core's L1D: the composed
/// PREFENDER and the basic prefetchers alike.
///
/// Implementations receive retire and access events and propose
/// [`PrefetchRequest`]s; the machine model issues them into the hierarchy
/// (deduplicated against lines already present or in flight).
pub trait Prefetcher {
    /// Observes one retired instruction. The machine model reports only
    /// instructions that write a register (`Instr::writes_reg`): no other
    /// instruction changes a prefetcher's state. Default: ignore.
    fn on_retire(&mut self, _ev: &RetireEvent<'_>) {}

    /// Observes one demand L1D access and appends proposed prefetches to
    /// `out` — the allocation-free form the machine model drives with a
    /// reusable scratch buffer (one per machine, cleared between
    /// accesses, so the per-access hot path never allocates).
    ///
    /// `resident` reports whether the line holding an address is already in
    /// (or in flight to) this core's L1D — the "not currently in the L1D
    /// cache" test of the paper.
    ///
    /// Implementations must only *append* to `out`: PREFENDER passes one
    /// shared buffer to its units and then to its basic prefetcher, to
    /// concatenate their requests in priority order.
    fn on_access_into(
        &mut self,
        ev: &AccessEvent,
        resident: &dyn Fn(Addr) -> bool,
        out: &mut Vec<PrefetchRequest>,
    );

    /// Observes one demand L1D access and returns the proposed prefetches
    /// as an owned `Vec` — a convenience wrapper over
    /// [`Prefetcher::on_access_into`] for tests and one-shot callers.
    fn on_access(
        &mut self,
        ev: &AccessEvent,
        resident: &dyn Fn(Addr) -> bool,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        self.on_access_into(ev, resident, &mut out);
        out
    }
}

/// A basic (conventional) prefetcher: the closed set PREFENDER sits over
/// in the paper's Tables IV–VI, dispatched by `match`.
#[derive(Debug, Clone)]
pub enum BasicPrefetcher {
    /// The Tagged next-line prefetcher (paper reference [15]).
    Tagged(TaggedPrefetcher),
    /// The Baer–Chen stride prefetcher (paper reference [16]).
    Stride(StridePrefetcher),
}

impl BasicPrefetcher {
    /// Total prefetch requests this prefetcher has proposed.
    pub fn issued(&self) -> u64 {
        match self {
            BasicPrefetcher::Tagged(p) => p.issued(),
            BasicPrefetcher::Stride(p) => p.issued(),
        }
    }

    /// Clears internal learning state (tables) and counters.
    pub fn reset(&mut self) {
        match self {
            BasicPrefetcher::Tagged(p) => p.reset(),
            BasicPrefetcher::Stride(p) => p.reset(),
        }
    }
}

impl Prefetcher for BasicPrefetcher {
    fn on_access_into(
        &mut self,
        ev: &AccessEvent,
        resident: &dyn Fn(Addr) -> bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        match self {
            BasicPrefetcher::Tagged(p) => p.on_access_into(ev, resident, out),
            BasicPrefetcher::Stride(p) => p.on_access_into(ev, resident, out),
        }
    }
}
