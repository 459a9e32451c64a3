//! # prefender-prefetch — prefetcher interface and classic baselines
//!
//! Defines the [`Prefetcher`] trait through which the CPU model feeds two
//! event streams to any prefetcher sitting at a core's L1D:
//!
//! * **retire events** — every executed instruction (PREFENDER's Scale
//!   Tracker consumes these to track register dataflow);
//! * **access events** — every demand L1D access with its observed latency
//!   and hit level (all prefetchers consume these).
//!
//! Two classic baselines used by the paper's Tables IV–VI are provided:
//! the [`TaggedPrefetcher`] (Smith, 1978) and the Baer–Chen
//! [`StridePrefetcher`] (1991), plus a [`NullPrefetcher`] and a
//! priority-ordered [`Chain`].
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

mod chain;
mod event;
mod null;
mod stride;
mod tagged;

pub use chain::Chain;
pub use event::{AccessEvent, PrefetchRequest, RetireEvent};
pub use null::NullPrefetcher;
pub use stride::{StrideEntry, StridePrefetcher, StrideState};
pub use tagged::TaggedPrefetcher;

use prefender_sim::Addr;

/// Which retired instructions a prefetcher wants to observe through
/// [`Prefetcher::on_retire`].
///
/// The machine model asks once per attached prefetcher and skips the
/// retire notification (the `RetireEvent` construction and virtual call,
/// paid on **every** instruction) for instructions the prefetcher
/// declares it ignores. Declaring an interest is a contract: `on_retire`
/// must be a no-op for every instruction outside the declared class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum RetireInterest {
    /// `on_retire` is a no-op (the trait default): never notify.
    None,
    /// Only instructions that write an architectural register matter
    /// (`Instr::writes_reg`) — a register-dataflow tracker's class.
    RegWriters,
    /// Every retired instruction matters.
    #[default]
    All,
}

/// A hardware prefetcher attached to one core's L1D cache.
///
/// Implementations receive retire and access events and return
/// [`PrefetchRequest`]s; the machine model issues them into the hierarchy
/// (deduplicated against lines already present or in flight).
///
/// The trait is object-safe: the machine stores `Box<dyn Prefetcher>`.
/// It is `Send`, so a machine and the runner owning it can be lent to a
/// worker thread.
pub trait Prefetcher: Send {
    /// Short name for stats output (e.g. `"stride"`).
    fn name(&self) -> &str;

    /// Observes one retired instruction. Default: ignore.
    fn on_retire(&mut self, _ev: &RetireEvent<'_>) {}

    /// Which retired instructions [`Prefetcher::on_retire`] cares about.
    /// The conservative default is [`RetireInterest::All`]; prefetchers
    /// whose `on_retire` ignores some (or every) instruction class
    /// should narrow this so the machine can skip the call entirely.
    fn retire_interest(&self) -> RetireInterest {
        RetireInterest::All
    }

    /// Observes one demand L1D access and appends proposed prefetches to
    /// `out` — the allocation-free form the machine model drives with a
    /// reusable scratch buffer (one per machine, cleared between
    /// accesses, so the per-access hot path never allocates).
    ///
    /// `resident` reports whether the line holding an address is already in
    /// (or in flight to) this core's L1D — the "not currently in the L1D
    /// cache" test of the paper.
    ///
    /// Implementations must only *append* to `out`: composed prefetchers
    /// ([`Chain`], PREFENDER over a basic prefetcher) pass one shared
    /// buffer down their member stack to concatenate requests in
    /// priority order.
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

    /// Total prefetch requests this prefetcher has proposed.
    fn issued(&self) -> u64;

    /// Clears internal learning state (buffers, tables) and counters.
    fn reset(&mut self);

    /// Downcast hook: implementations with richer statistics (PREFENDER's
    /// per-unit counters) return `Some(self)` so harnesses can recover the
    /// concrete type from a `Box<dyn Prefetcher>`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn Prefetcher> = Box::new(NullPrefetcher::new());
        assert_eq!(b.name(), "null");
    }
}
