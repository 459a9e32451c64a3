//! The multi-core, inclusive memory hierarchy.

use std::fmt;

use prefender_obs::{trace_event, TraceEvent};

use crate::addr::Addr;
use crate::cache::{Cache, EvictedLine, LookupResult};
use crate::config::HierarchyConfig;
use crate::mshr::MshrFile;
use crate::stats::{CacheStats, PrefetchSource};
use crate::time::Cycle;

/// Whether a demand access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (write-allocate, write-back).
    Write,
}

/// Which level ultimately served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// Private L1 data cache.
    L1,
    /// Shared last-level cache.
    L2,
    /// DRAM.
    Memory,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Level::L1 => "L1",
            Level::L2 => "L2",
            Level::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// The result of one demand access, as seen by the issuing core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total load-to-use latency in cycles. This is the quantity a
    /// side-channel attacker measures.
    pub latency: u64,
    /// The level that provided the line.
    pub served_by: Level,
    /// `true` when this was the first demand use of a line a prefetcher
    /// installed in the L1D (the Tagged prefetcher's chaining event).
    pub first_prefetch_use: bool,
    /// The prefetch source when `first_prefetch_use`, or when the access
    /// was served by an in-flight prefetch.
    pub prefetch_source: Option<PrefetchSource>,
}

impl AccessOutcome {
    /// `true` when the access hit in the private L1D.
    pub fn l1_hit(&self) -> bool {
        self.served_by == Level::L1
    }
}

/// Instruction fetches of one line that [`MemorySystem::fetch`] would each
/// do in place (repeat hits in the L1I's last-hit slot), counted by the
/// fetching core instead: see [`MemorySystem::fetch_in_run`]. Nothing but
/// fetches of that line may reach the core's L1I while a run is open.
#[derive(Debug, Clone)]
pub struct FetchRun {
    /// The run's line address, or [`FetchRun::CLOSED`].
    line: u64,
    /// Fetches counted and not yet handed to the L1I.
    fetches: u64,
    /// When the last of them happened.
    last: Cycle,
}

impl FetchRun {
    /// No line: a line address is aligned, so this never matches one.
    const CLOSED: u64 = u64::MAX;

    /// Counts `n` more fetches of the run's line, the last at `last`:
    /// what `n` more [`MemorySystem::fetch_in_run`] calls on that line
    /// do. Only valid on an open run ([`MemorySystem::in_fetch_run`]).
    #[inline]
    pub fn repeat(&mut self, n: u64, last: Cycle) {
        debug_assert!(self.line != Self::CLOSED, "a closed run counts no fetch");
        self.fetches += n;
        self.last = last;
    }
}

impl Default for FetchRun {
    /// A closed run.
    fn default() -> Self {
        FetchRun { line: Self::CLOSED, fetches: 0, last: Cycle::ZERO }
    }
}

/// An inclusive two-level cache hierarchy shared by `n_cores` cores.
///
/// * per-core L1I and L1D;
/// * one shared L2 (the LLC), inclusive of all L1s — an L2 eviction
///   *back-invalidates* every L1 copy, which is what makes cross-core
///   Evict+Reload and Prime+Probe work exactly as in the paper's Figure 4;
/// * an MSHR file at the L2/memory boundary shared by demand misses and
///   prefetches (so aggressive prefetching can stall demand misses);
/// * `clflush`-style [`flush`](MemorySystem::flush) that removes a line
///   from every cache.
///
/// The hierarchy is passive: callers pass the current [`Cycle`] and get
/// latencies back; the CPU model owns time.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: HierarchyConfig,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Cache,
    mshrs: MshrFile,
    /// Reusable eviction scratch for [`MemorySystem::settle`]: the settled
    /// fast path (idle completion queues) must not allocate per access.
    scratch: Vec<EvictedLine>,
    /// Prefetch requests declined because the line was already present or
    /// in flight in the target L1D (an always-on observability counter).
    prefetches_dropped: u64,
}

impl MemorySystem {
    /// Builds an empty hierarchy from a validated configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        // Flight-recorder identities: `level << 4 | core`, level 1 = L1I,
        // 2 = L1D, 3 = the shared L2.
        let tag = |level: u8, core: usize| (level << 4) | core as u8;
        let l1i = (0..cfg.n_cores)
            .map(|core| {
                let mut c = Cache::new(cfg.l1i.clone());
                c.set_trace_id(tag(1, core));
                c
            })
            .collect();
        let l1d = (0..cfg.n_cores)
            .map(|core| {
                let mut c = Cache::new(cfg.l1d.clone());
                c.set_trace_id(tag(2, core));
                c
            })
            .collect();
        let mut l2 = Cache::new(cfg.l2.clone());
        l2.set_trace_id(tag(3, 0));
        let mshrs = MshrFile::new(cfg.n_mshrs, cfg.mshr_merge_limit);
        MemorySystem { cfg, l1i, l1d, l2, mshrs, scratch: Vec::new(), prefetches_dropped: 0 }
    }

    /// Returns the hierarchy to its cold (just-constructed) state without
    /// releasing any allocation: every cache is emptied in place (see
    /// [`Cache::reset`]) and the MSHR file is drained. Behaviour after
    /// `reset` is bit-identical to a fresh [`MemorySystem::new`] with the
    /// same configuration.
    pub fn reset(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.reset();
        }
        self.l2.reset();
        self.mshrs.reset();
        self.scratch.clear();
        self.prefetches_dropped = 0;
    }

    /// The hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cfg.n_cores
    }

    /// Immutable view of a core's L1D.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1d(&self, core: usize) -> &Cache {
        &self.l1d[core]
    }

    /// Immutable view of a core's L1I.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1i(&self, core: usize) -> &Cache {
        &self.l1i[core]
    }

    /// Immutable view of the shared L2.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// The MSHR file at the memory boundary.
    pub fn mshrs(&self) -> &MshrFile {
        &self.mshrs
    }

    /// Prefetch requests declined because the target L1D already held (or
    /// was receiving) the line — the gap between what the prefetch units
    /// *proposed* and what the memory system actually *issued*.
    pub fn prefetches_dropped(&self) -> u64 {
        self.prefetches_dropped
    }

    /// Sum of all L1D statistics across cores.
    pub fn total_l1d_stats(&self) -> CacheStats {
        self.l1d.iter().fold(CacheStats::new(), |acc, c| acc + *c.stats())
    }

    /// Zeroes every cache's statistics (the MSHR counters are kept).
    pub fn reset_stats(&mut self) {
        for c in self.l1i.iter_mut().chain(self.l1d.iter_mut()) {
            c.stats_mut().reset();
        }
        self.l2.stats_mut().reset();
    }

    /// `true` when the line holding `addr` is in `core`'s L1D, installed
    /// or in flight. This is the probe PREFENDER uses before prefetching.
    pub fn probe_l1d(&self, core: usize, addr: Addr) -> bool {
        self.l1d[core].contains_or_inflight(addr)
    }

    /// `true` when the line holding `addr` is installed in the L2.
    pub fn probe_l2(&self, addr: Addr) -> bool {
        self.l2.contains(addr)
    }

    fn settle(&mut self, now: Cycle) {
        // Materialize in-flight prefetches everywhere, honouring
        // inclusion. Each expiry is an O(1) completion-queue peek when
        // nothing is due, and evictions land in the reused scratch buffer
        // — the settled fast path performs no heap allocation.
        let mut evicted = std::mem::take(&mut self.scratch);
        evicted.clear();
        self.l2.expire_inflight_into(now, &mut evicted);
        for e in evicted.drain(..) {
            self.back_invalidate(e);
        }
        for core in 0..self.l1d.len() {
            self.l1d[core].expire_inflight_into(now, &mut evicted);
            for e in evicted.drain(..) {
                self.writeback_from_l1(e);
            }
        }
        self.scratch = evicted;
    }

    fn writeback_from_l1(&mut self, e: EvictedLine) {
        if e.dirty {
            // Inclusive hierarchy: the L2 still holds the line; mark it.
            self.l2.mark_dirty(e.addr);
        }
    }

    fn back_invalidate(&mut self, e: EvictedLine) {
        let mut dirty = e.dirty;
        for l1 in self.l1d.iter_mut().chain(self.l1i.iter_mut()) {
            if let Some(inv) = l1.invalidate(e.addr) {
                dirty |= inv.dirty;
            }
        }
        if dirty {
            self.l2.stats_mut().writebacks += 1;
        }
    }

    /// Performs one demand data access by `core` at time `now`, returning
    /// the load-to-use latency and how it was served.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: usize,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
    ) -> AccessOutcome {
        self.settle(now);
        let is_write = kind == AccessKind::Write;
        self.l1d[core].stats_mut().demand_accesses += 1;

        match self.l1d[core].demand_lookup(addr, now) {
            LookupResult::Hit { first_prefetch_use, source } => {
                self.l1d[core].stats_mut().demand_hits += 1;
                if is_write {
                    self.l1d[core].mark_dirty(addr);
                    self.invalidate_other_l1ds(core, addr);
                }
                AccessOutcome {
                    latency: self.cfg.l1d.hit_latency(),
                    served_by: Level::L1,
                    first_prefetch_use,
                    prefetch_source: first_prefetch_use.then_some(source),
                }
            }
            LookupResult::InFlight { ready_at, source } => {
                let latency = self.cfg.l1d.hit_latency() + ready_at.since(now);
                let st = self.l1d[core].stats_mut();
                st.demand_misses += 1;
                st.demand_miss_latency += latency;
                if is_write {
                    self.l1d[core].mark_dirty(addr);
                    self.invalidate_other_l1ds(core, addr);
                }
                AccessOutcome {
                    latency,
                    served_by: Level::L1,
                    first_prefetch_use: false,
                    prefetch_source: Some(source),
                }
            }
            LookupResult::Miss => {
                let (latency, served_by, source) = self.access_l2(addr, now);
                let st = self.l1d[core].stats_mut();
                st.demand_misses += 1;
                st.demand_miss_latency += latency;
                // The line is usable only once the miss completes; stamping
                // the fill with the completion time keeps LRU ordering
                // consistent with overlapping prefetch completions.
                if let (_, Some(e)) = self.l1d[core].install(addr, now + latency, None, is_write) {
                    self.writeback_from_l1(e);
                }
                if is_write {
                    self.invalidate_other_l1ds(core, addr);
                }
                AccessOutcome {
                    latency,
                    served_by,
                    first_prefetch_use: false,
                    prefetch_source: source,
                }
            }
        }
    }

    fn access_l2(&mut self, addr: Addr, now: Cycle) -> (u64, Level, Option<PrefetchSource>) {
        self.l2.stats_mut().demand_accesses += 1;
        match self.l2.demand_lookup(addr, now) {
            LookupResult::Hit { first_prefetch_use, source } => {
                self.l2.stats_mut().demand_hits += 1;
                (self.cfg.l2.hit_latency(), Level::L2, first_prefetch_use.then_some(source))
            }
            LookupResult::InFlight { ready_at, source } => {
                let latency = self.cfg.l2.hit_latency() + ready_at.since(now);
                let st = self.l2.stats_mut();
                st.demand_misses += 1;
                st.demand_miss_latency += latency;
                (latency, Level::L2, Some(source))
            }
            LookupResult::Miss => {
                let line = addr.line(self.cfg.line_size()).raw();
                let outcome = self.mshrs.request(line, now, self.cfg.memory_latency);
                let latency = outcome.ready_at().since(now).max(self.cfg.memory_latency);
                let st = self.l2.stats_mut();
                st.demand_misses += 1;
                st.demand_miss_latency += latency;
                if let (_, Some(e)) = self.l2.install(addr, now + latency, None, false) {
                    self.back_invalidate(e);
                }
                (latency, Level::Memory, None)
            }
        }
    }

    fn invalidate_other_l1ds(&mut self, writer: usize, addr: Addr) {
        for (i, l1) in self.l1d.iter_mut().enumerate() {
            if i != writer {
                if let Some(inv) = l1.invalidate(addr) {
                    if inv.dirty {
                        self.l2.mark_dirty(addr);
                    }
                }
            }
        }
    }

    /// Performs one instruction fetch by `core` at `now`.
    ///
    /// Returns the *stall* latency: an L1I hit is fully pipelined and costs
    /// zero extra cycles; misses pay the lower levels' latency.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn fetch(&mut self, core: usize, addr: Addr, now: Cycle) -> u64 {
        // Straight-line code fetches the same line many times in a row:
        // such a hit is done in place, with the counters the full lookup
        // would add.
        let l1i = &mut self.l1i[core];
        if l1i.repeat_ready(addr) {
            l1i.repeat_hits(1, now);
            return 0;
        }
        self.fetch_lookup(core, addr, now)
    }

    /// [`MemorySystem::fetch`] within a [`FetchRun`]: a fetch of the line
    /// the run holds is only counted in `run`; any other fetch first
    /// hands the run over ([`MemorySystem::end_fetch_run`]), then fetches
    /// and opens a run on its line when further fetches of it would be
    /// done in place.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn fetch_in_run(&mut self, core: usize, addr: Addr, now: Cycle, run: &mut FetchRun) -> u64 {
        let line = self.cfg.l1i.line_addr_of(addr);
        if line == run.line {
            run.fetches += 1;
            run.last = now;
            return 0;
        }
        self.end_fetch_run(core, run);
        let stall = self.fetch(core, addr, now);
        if self.l1i[core].repeat_ready(addr) {
            run.line = line;
        }
        stall
    }

    /// `true` when `run` is open on the L1I line of `addr`: a fetch of
    /// `addr` by the core that holds `run` is then only counted in it.
    #[inline]
    pub fn in_fetch_run(&self, run: &FetchRun, addr: Addr) -> bool {
        self.cfg.l1i.line_addr_of(addr) == run.line
    }

    /// Hands `run`'s fetches to `core`'s L1I, with the counters and the
    /// recency that one [`MemorySystem::fetch`] per fetch would leave, and
    /// closes the run. Call it before anything else reaches the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline]
    pub fn end_fetch_run(&mut self, core: usize, run: &mut FetchRun) {
        if run.fetches > 0 {
            self.l1i[core].repeat_hits(run.fetches, run.last);
            run.fetches = 0;
        }
        run.line = FetchRun::CLOSED;
    }

    /// [`MemorySystem::fetch`] through a full L1I lookup.
    fn fetch_lookup(&mut self, core: usize, addr: Addr, now: Cycle) -> u64 {
        self.l1i[core].stats_mut().demand_accesses += 1;
        match self.l1i[core].demand_lookup(addr, now) {
            LookupResult::Hit { .. } => {
                self.l1i[core].stats_mut().demand_hits += 1;
                0
            }
            LookupResult::InFlight { ready_at, .. } => {
                let latency = ready_at.since(now);
                let st = self.l1i[core].stats_mut();
                st.demand_misses += 1;
                st.demand_miss_latency += latency;
                latency
            }
            LookupResult::Miss => {
                let (latency, _, _) = self.access_l2(addr, now);
                let st = self.l1i[core].stats_mut();
                st.demand_misses += 1;
                st.demand_miss_latency += latency;
                let _ = self.l1i[core].install(addr, now + latency, None, false);
                latency
            }
        }
    }

    /// Issues a non-blocking prefetch of the line holding `addr` into
    /// `core`'s L1D (and the L2 when it came from memory), attributed to
    /// `source`.
    ///
    /// No-op when the line is already in (or on its way to) that L1D.
    /// Returns `true` when a prefetch was actually issued.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn prefetch(
        &mut self,
        core: usize,
        addr: Addr,
        source: PrefetchSource,
        now: Cycle,
    ) -> bool {
        self.settle(now);
        let line = addr.line(self.cfg.line_size()).raw();
        if self.l1d[core].contains_or_inflight(addr) {
            self.prefetches_dropped += 1;
            trace_event(|| TraceEvent::PrefetchDrop {
                at: u64::from(now),
                core: core as u32,
                line,
                source: source as u8,
            });
            return false;
        }
        trace_event(|| TraceEvent::PrefetchIssue {
            at: u64::from(now),
            core: core as u32,
            line,
            source: source as u8,
        });
        // The prefetch reads an installed L2 line (refreshing its recency)
        // or rides the line's in-flight L2 fill.
        let ready_at = if self.l2.touch(addr, now) || self.l2.in_flight(addr) {
            now + self.cfg.l2.hit_latency()
        } else {
            let outcome = self.mshrs.request(line, now, self.cfg.memory_latency);
            let ready = outcome.ready_at();
            self.l2.insert_inflight(addr, ready, source);
            ready
        };
        self.l1d[core].insert_inflight(addr, ready_at, source);
        true
    }

    /// `clflush`: removes the line holding `addr` from every cache in the
    /// hierarchy, writing back dirty copies. Returns the flush latency.
    ///
    /// A flush that finds an *installed* copy anywhere pays roughly an L2
    /// round trip; a flush of an absent line retires at the cheap L1
    /// latency. A flush that only cancels an **in-flight** prefetch also
    /// pays the cheap latency — deliberately: no installed copy exists
    /// yet, so there is nothing to write back or invalidate at the
    /// coherence point; the cancellation itself is free bookkeeping.
    /// (This is the timing contract the attack latency thresholds and
    /// every recorded artifact are calibrated against — pinned by
    /// `flush_of_inflight_only_is_cheap_and_cancels` below.)
    pub fn flush(&mut self, addr: Addr, now: Cycle) -> u64 {
        self.settle(now);
        let mut dirty = false;
        let mut found = false;
        for c in self.l1d.iter_mut().chain(self.l1i.iter_mut()) {
            if let Some(inv) = c.invalidate(addr) {
                found = true;
                dirty |= inv.dirty;
                c.stats_mut().flushes += 1;
            }
        }
        if let Some(inv) = self.l2.invalidate(addr) {
            found = true;
            dirty |= inv.dirty;
            self.l2.stats_mut().flushes += 1;
        }
        if dirty {
            self.l2.stats_mut().writebacks += 1;
        }
        // A flush of a present line costs roughly an L2 round trip; an
        // absent line retires quickly.
        let latency = if found { self.cfg.l2.hit_latency() } else { self.cfg.l1d.hit_latency() };
        trace_event(|| TraceEvent::Flush {
            at: u64::from(now),
            line: addr.line(self.cfg.line_size()).raw(),
            latency,
        });
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(HierarchyConfig::paper_baseline(cores).unwrap())
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        let miss = m.access(0, a, AccessKind::Read, Cycle::ZERO);
        assert_eq!(miss.served_by, Level::Memory);
        assert_eq!(miss.latency, 200);
        let hit = m.access(0, a, AccessKind::Read, Cycle::new(300));
        assert_eq!(hit.served_by, Level::L1);
        assert_eq!(hit.latency, 4);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = sys(1);
        let a = Addr::new(0x0);
        m.access(0, a, AccessKind::Read, Cycle::ZERO);
        // Evict `a` from the 2-way L1D set 0 by touching two conflicting lines.
        let l1_way_stride = 64 * 1024 / 2; // sets * line = 32 KB
        m.access(0, Addr::new(l1_way_stride), AccessKind::Read, Cycle::new(300));
        m.access(0, Addr::new(2 * l1_way_stride), AccessKind::Read, Cycle::new(600));
        let out = m.access(0, a, AccessKind::Read, Cycle::new(900));
        assert_eq!(out.served_by, Level::L2, "line must still be in the inclusive L2");
        assert_eq!(out.latency, 20);
    }

    #[test]
    fn flush_removes_from_all_levels() {
        let mut m = sys(2);
        let a = Addr::new(0x4000);
        m.access(0, a, AccessKind::Read, Cycle::ZERO);
        m.access(1, a, AccessKind::Read, Cycle::new(300));
        assert!(m.probe_l1d(0, a) && m.probe_l1d(1, a) && m.probe_l2(a));
        m.flush(a, Cycle::new(600));
        assert!(!m.probe_l1d(0, a) && !m.probe_l1d(1, a) && !m.probe_l2(a));
        let out = m.access(0, a, AccessKind::Read, Cycle::new(900));
        assert_eq!(out.served_by, Level::Memory);
    }

    #[test]
    fn cross_core_llc_hit_latency_is_distinguishable() {
        // The Flush+Reload cross-core signal: victim on core 1 loads a line,
        // attacker on core 0 then sees an L2 (not memory) latency.
        let mut m = sys(2);
        let a = Addr::new(0x8000);
        m.access(1, a, AccessKind::Read, Cycle::ZERO); // victim
        let probe = m.access(0, a, AccessKind::Read, Cycle::new(300)); // attacker
        assert_eq!(probe.served_by, Level::L2);
        assert!(probe.latency < 200 / 2, "LLC hit must sit well below memory latency");
    }

    #[test]
    fn prefetch_into_l1_serves_after_completion() {
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        assert!(m.prefetch(0, a, PrefetchSource::ScaleTracker, Cycle::ZERO));
        // Long after completion the access behaves like an L1 hit.
        let out = m.access(0, a, AccessKind::Read, Cycle::new(1000));
        assert_eq!(out.served_by, Level::L1);
        assert_eq!(out.latency, 4);
        assert!(out.first_prefetch_use);
        assert_eq!(out.prefetch_source, Some(PrefetchSource::ScaleTracker));
    }

    #[test]
    fn late_prefetch_pays_partial_latency() {
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        m.prefetch(0, a, PrefetchSource::Basic, Cycle::ZERO); // ready at 200
        let out = m.access(0, a, AccessKind::Read, Cycle::new(150));
        assert_eq!(out.served_by, Level::L1);
        assert_eq!(out.latency, 4 + 50, "pays only the remaining 50 cycles plus L1 hit");
        assert_eq!(out.prefetch_source, Some(PrefetchSource::Basic));
    }

    #[test]
    fn duplicate_prefetch_not_issued() {
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        assert!(m.prefetch(0, a, PrefetchSource::Basic, Cycle::ZERO));
        assert_eq!(m.prefetches_dropped(), 0);
        assert!(!m.prefetch(0, a, PrefetchSource::Basic, Cycle::new(1)));
        m.access(0, a, AccessKind::Read, Cycle::new(500));
        assert!(!m.prefetch(0, a, PrefetchSource::Basic, Cycle::new(600)));
        assert_eq!(m.prefetches_dropped(), 2, "in-flight and installed drops both count");
        m.reset();
        assert_eq!(m.prefetches_dropped(), 0);
    }

    #[test]
    fn prefetch_l2_hit_is_fast() {
        let mut m = sys(2);
        let a = Addr::new(0x4000);
        m.access(1, a, AccessKind::Read, Cycle::ZERO); // line now in L2
        m.prefetch(0, a, PrefetchSource::AccessTracker, Cycle::new(300));
        // Ready after only an L2 latency (20), so at 330 it's an L1 hit.
        let out = m.access(0, a, AccessKind::Read, Cycle::new(330));
        assert_eq!(out.served_by, Level::L1);
        assert_eq!(out.latency, 4);
    }

    #[test]
    fn prefetch_rides_an_inflight_l2_fill() {
        // Core 0's prefetch puts the line in flight to the L2; core 1's
        // prefetch of it rides that fill at the L2 hit latency instead of
        // asking memory again.
        let mut m = sys(2);
        let a = Addr::new(0x4000);
        assert!(m.prefetch(0, a, PrefetchSource::Basic, Cycle::ZERO)); // L2 ready at 200
        assert!(m.prefetch(1, a, PrefetchSource::Basic, Cycle::new(50))); // ready at 70
        let out = m.access(1, a, AccessKind::Read, Cycle::new(100));
        assert_eq!((out.served_by, out.latency), (Level::L1, 4));
        assert_eq!(m.mshrs().merge_count(), 0, "one memory request, never merged");
    }

    #[test]
    fn prefetch_served_by_the_l2_refreshes_its_recency() {
        // Four lines fill one 4-way set of the tiny L2; the two oldest
        // leave the 2-way L1D set. A prefetch of the oldest reads it from
        // the L2, so the next conflict evicts the second oldest instead.
        let mut m = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
        let line = |i: u64| Addr::new(i * 2048);
        for i in 0..4 {
            m.access(0, line(i), AccessKind::Read, Cycle::new(300 * i));
        }
        assert!(!m.probe_l1d(0, line(0)) && m.probe_l2(line(0)));
        assert!(m.prefetch(0, line(0), PrefetchSource::Basic, Cycle::new(1000)));
        m.access(0, line(4), AccessKind::Read, Cycle::new(1100));
        assert!(m.probe_l2(line(0)), "the prefetch refreshed the oldest line");
        assert!(!m.probe_l2(line(1)));
    }

    #[test]
    fn write_invalidates_other_cores() {
        let mut m = sys(2);
        let a = Addr::new(0x4000);
        m.access(0, a, AccessKind::Read, Cycle::ZERO);
        m.access(1, a, AccessKind::Read, Cycle::new(300));
        assert!(m.probe_l1d(0, a) && m.probe_l1d(1, a));
        m.access(0, a, AccessKind::Write, Cycle::new(600));
        assert!(m.probe_l1d(0, a));
        assert!(!m.probe_l1d(1, a), "writer must invalidate the other L1 copy");
    }

    #[test]
    fn stats_accumulate() {
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        m.access(0, a, AccessKind::Read, Cycle::ZERO);
        m.access(0, a, AccessKind::Read, Cycle::new(300));
        let s = m.l1d(0).stats();
        assert_eq!(s.demand_accesses, 2);
        assert_eq!(s.demand_hits, 1);
        assert_eq!(s.demand_misses, 1);
        assert_eq!(s.demand_miss_latency, 200);
    }

    #[test]
    fn instruction_fetch_hits_are_free() {
        let mut m = sys(1);
        let pc = Addr::new(0x1000);
        let first = m.fetch(0, pc, Cycle::ZERO);
        assert!(first > 0);
        let second = m.fetch(0, pc, Cycle::new(300));
        assert_eq!(second, 0);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        // Build a tiny hierarchy so we can overflow the L2 quickly.
        let mut m = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
        let a = Addr::new(0);
        m.access(0, a, AccessKind::Read, Cycle::ZERO);
        assert!(m.probe_l1d(0, a));
        // The tiny L2 is 8 KB, 4-way, 32 sets. Fill set 0 of L2 with 4 more
        // conflicting lines to force `a` out.
        let l2_set_stride = 64 * 32;
        for i in 1..=4u64 {
            m.access(0, Addr::new(i * l2_set_stride), AccessKind::Read, Cycle::new(300 * i));
        }
        assert!(!m.probe_l2(a));
        assert!(!m.probe_l1d(0, a), "L2 eviction must back-invalidate the L1 copy");
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = sys(1);
        m.access(0, Addr::new(0x40), AccessKind::Read, Cycle::ZERO);
        m.reset_stats();
        assert_eq!(m.l1d(0).stats().demand_accesses, 0);
        assert_eq!(m.l2().stats().demand_accesses, 0);
    }

    #[test]
    fn flush_of_inflight_only_is_cheap_and_cancels() {
        // The pinned timing contract: a flush that only cancels an
        // in-flight prefetch retires at the cheap absent-line latency —
        // no installed copy exists yet, so nothing reaches the coherence
        // point (see the `flush` docs).
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        assert!(m.prefetch(0, a, PrefetchSource::Basic, Cycle::ZERO)); // ready at 200
        assert!(m.probe_l1d(0, a), "in flight counts as present for the prefetch probe");
        let lat = m.flush(a, Cycle::new(50));
        assert_eq!(lat, m.config().l1d.hit_latency(), "in-flight-only flush is cheap");
        assert!(!m.probe_l1d(0, a) && !m.probe_l2(a), "the prefetch is cancelled");
        assert_eq!(m.l1d(0).stats().flushes, 0, "no installed copy was flushed");
        // The cancelled line never materializes, even past its old
        // completion time.
        let out = m.access(0, a, AccessKind::Read, Cycle::new(1000));
        assert_eq!(out.served_by, Level::Memory);
    }

    #[test]
    fn flush_of_installed_line_pays_l2_round_trip() {
        let mut m = sys(1);
        let a = Addr::new(0x4000);
        m.access(0, a, AccessKind::Read, Cycle::ZERO);
        assert_eq!(m.flush(a, Cycle::new(300)), m.config().l2.hit_latency());
        assert_eq!(m.flush(a, Cycle::new(600)), m.config().l1d.hit_latency(), "absent is cheap");
    }

    #[test]
    fn fetch_stalls_and_l1i_stats_are_pinned() {
        // Repeat hits, conflict misses in one 2-way L1I set, flushes and
        // L2 back-invalidations, in a fixed order; every stall and the
        // final L1I counters are pinned, fetched one by one and in runs.
        for runs in [false, true] {
            let mut m = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
            let mut run = FetchRun::default();
            let mut now = 0u64;
            let mut stalls = Vec::new();
            for k in 0..120u64 {
                let t = Cycle::new(now);
                let pc = match k % 10 {
                    0..=3 => 0x1000 + 4 * (k % 4),
                    4 => 0x1200,
                    5 => 0x1400,
                    6 => 0x1000,
                    7 => {
                        m.end_fetch_run(0, &mut run);
                        m.flush(Addr::new(0x1000), t);
                        0x1000
                    }
                    8 => {
                        // Four L2 set conflicts evict the code line from the
                        // L2, which back-invalidates it from the L1I.
                        m.end_fetch_run(0, &mut run);
                        for j in 1..=4u64 {
                            m.access(0, Addr::new(0x1000 + j * 2048), AccessKind::Read, t);
                        }
                        0x1000
                    }
                    _ => 0x1040,
                };
                let pc = Addr::new(pc);
                stalls.push(if runs {
                    m.fetch_in_run(0, pc, t, &mut run)
                } else {
                    m.fetch(0, pc, t)
                });
                now += 7 + 60 * (k % 5);
            }
            m.end_fetch_run(0, &mut run);
            #[rustfmt::skip]
            let expected: [u64; 120] = [
                200, 0, 0, 0, 200, 200, 20, 200, 400, 213,
                0, 0, 0, 0, 20, 20, 20, 200, 400, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 400, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
                0, 0, 0, 0, 20, 20, 20, 200, 0, 0,
            ];
            assert_eq!(stalls, expected, "runs {runs}");
            let s = m.l1i(0).stats();
            assert_eq!(
                (s.demand_accesses, s.demand_hits, s.demand_misses, s.demand_miss_latency),
                (120, 67, 53, 5093),
                "runs {runs}"
            );
            assert_eq!((s.evictions, s.invalidations, s.flushes), (35, 15, 12), "runs {runs}");
            assert_eq!(
                m.l1i(0).resident_lines(),
                vec![Addr::new(0x1000), Addr::new(0x1040), Addr::new(0x1400)],
                "runs {runs}"
            );
        }
    }

    #[test]
    fn fetch_runs_open_only_on_the_last_hit_slot() {
        // W, X and Y share one 2-way set of the tiny L1I. After X's miss
        // the last-hit slot still holds W, so X's next fetch must take the
        // full lookup: a run opened at the miss would hand X's recency to
        // W's slot, and Y's miss would then evict X instead of W.
        let (w, x, y) = (0x1000, 0x1200, 0x1400);
        for runs in [false, true] {
            let mut m = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
            let mut run = FetchRun::default();
            let mut stalls = Vec::new();
            for (pc, at) in [(w, 0), (w + 4, 300), (x, 400), (x + 4, 700), (x + 8, 800), (y, 900)] {
                let (pc, at) = (Addr::new(pc), Cycle::new(at));
                stalls.push(if runs {
                    m.fetch_in_run(0, pc, at, &mut run)
                } else {
                    m.fetch(0, pc, at)
                });
            }
            m.end_fetch_run(0, &mut run);
            assert_eq!(stalls, [200, 0, 200, 0, 0, 200], "runs {runs}");
            assert_eq!(m.l1i(0).resident_lines(), [Addr::new(x), Addr::new(y)], "runs {runs}");
            let s = m.l1i(0).stats();
            assert_eq!((s.demand_accesses, s.demand_hits), (6, 3), "runs {runs}");
        }
    }

    #[test]
    fn a_run_counts_repeated_fetches_at_once() {
        // `FetchRun::repeat(n, last)` leaves the L1I as `n` more fetches
        // of the run's line, the last at `last`, leave it.
        let line = 0x1000;
        let mut ends = Vec::new();
        for at_once in [false, true] {
            let mut m = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
            let mut run = FetchRun::default();
            m.fetch_in_run(0, Addr::new(line), Cycle::ZERO, &mut run);
            m.fetch_in_run(0, Addr::new(line + 4), Cycle::new(300), &mut run);
            assert!(m.in_fetch_run(&run, Addr::new(line + 60)));
            assert!(!m.in_fetch_run(&run, Addr::new(line + 64)));
            if at_once {
                run.repeat(5, Cycle::new(340));
            } else {
                for i in 1..=5 {
                    let pc = Addr::new(line + 4 * (i % 3));
                    m.fetch_in_run(0, pc, Cycle::new(300 + 8 * i), &mut run);
                }
            }
            m.end_fetch_run(0, &mut run);
            assert!(!m.in_fetch_run(&run, Addr::new(line)), "a closed run holds no line");
            ends.push((*m.l1i(0).stats(), m.l1i(0).recency()));
        }
        assert_eq!(ends[0], ends[1]);
        assert_eq!(ends[1].1, [(Addr::new(line), Cycle::new(340))]);
        assert_eq!((ends[1].0.demand_accesses, ends[1].0.demand_hits), (7, 6));
    }

    // Drives one deterministic mixed schedule (accesses, prefetches,
    // flushes) against a hierarchy and collects every observable.
    fn drive_schedule(m: &mut MemorySystem) -> Vec<(u64, Level)> {
        let mut out = Vec::new();
        let mut now = 0u64;
        for k in 0..200u64 {
            let a = Addr::new((k % 23) * 0x940 + (k % 5) * 64);
            match k % 7 {
                0 | 3 => {
                    let o = m.access(0, a, AccessKind::Read, Cycle::new(now));
                    out.push((o.latency, o.served_by));
                }
                1 => {
                    let o = m.access(0, a, AccessKind::Write, Cycle::new(now));
                    out.push((o.latency, o.served_by));
                }
                2 | 5 => {
                    m.prefetch(0, a, PrefetchSource::Basic, Cycle::new(now));
                }
                4 => {
                    out.push((m.flush(a, Cycle::new(now)), Level::L1));
                }
                _ => {
                    let o = m.access(0, a, AccessKind::Read, Cycle::new(now));
                    out.push((o.latency, o.served_by));
                }
            }
            now += 11 + (k % 13) * 17;
        }
        out
    }

    #[test]
    fn drive_schedule_is_pinned() {
        // Every latency and serving level of the mixed schedule, the
        // final L1D and L2 counters and both caches' resident lines, as
        // golden values: the replay test above only compares two runs.
        let mut m = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
        let out = drive_schedule(&mut m);
        #[rustfmt::skip]
        let latencies: [u64; 143] = [
            200, 200, 200, 4, 200, 200, 200, 200, 4, 200, 200, 200, 254, 4, 200,
            200, 200, 200, 4, 200, 200, 200, 200, 4, 200, 200, 200, 200, 4, 200,
            200, 200, 200, 4, 200, 200, 200, 200, 4, 200, 200, 200, 200, 4, 200,
            200, 200, 200, 4, 200, 200, 200, 200, 4, 200, 200, 200, 200, 4, 200,
            200, 200, 200, 4, 200, 200, 200, 200, 4, 200, 200, 200, 200, 4, 200,
            200, 200, 254, 4, 200, 200, 200, 20, 20, 20, 200, 20, 20, 20, 20,
            200, 20, 20, 20, 20, 200, 20, 20, 20, 20, 200, 20, 20, 20, 20,
            200, 20, 20, 20, 20, 200, 20, 20, 20, 20, 200, 20, 20, 20, 20,
            200, 20, 20, 20, 20, 200, 20, 20, 20, 20, 200, 20, 20, 20, 20,
            200, 20, 20, 20, 20, 200, 20, 20,
        ];
        // One letter per access: `1` L1, `2` L2, `m` memory.
        let levels = [
            "mmm1mmmm1mmmm1mmmm1mmmm1mmmm1mmmm1mmmm1mmmm1mmmm",
            "1mmmm1mmmm1mmmm1mmmm1mmmm1mmmm1mmm212m2212m2212m",
            "2212m2212m2212m2212m2212m2212m2212m2212m2212m22",
        ]
        .concat();
        assert_eq!(out.iter().map(|o| o.0).collect::<Vec<_>>(), latencies);
        let served: String = out
            .iter()
            .map(|o| match o.1 {
                Level::L1 => '1',
                Level::L2 => '2',
                Level::Memory => 'm',
            })
            .collect();
        assert_eq!(served, levels);
        let stats = |s: &CacheStats| {
            [
                s.demand_accesses,
                s.demand_hits,
                s.demand_misses,
                s.demand_miss_latency,
                s.evictions,
                s.invalidations,
                s.flushes,
                s.writebacks,
                s.prefetch_fills,
                s.prefetch_useful,
                s.prefetch_late,
                s.prefetch_unused,
            ]
        };
        assert_eq!(stats(m.l1d(0).stats()), [115, 0, 115, 16448, 156, 0, 0, 0, 57, 0, 0, 51]);
        assert_eq!(stats(m.l2().stats()), [115, 37, 78, 15708, 0, 12, 12, 12, 33, 12, 0, 0]);
        let raw = |c: &Cache| c.resident_lines().iter().map(|a| a.raw()).collect::<Vec<_>>();
        #[rustfmt::skip]
        let l1d: [u64; 16] = [
            0x100, 0x1c40, 0x2f40, 0x3780, 0x3800, 0x4100, 0x4a80, 0x5d80,
            0x65c0, 0x6f40, 0x78c0, 0x8240, 0x8bc0, 0x9480, 0x9e00, 0xc2c0,
        ];
        #[rustfmt::skip]
        let l2: [u64; 99] = [
            0x0, 0x40, 0x80, 0xc0, 0x100, 0x940, 0x9c0, 0xa00, 0xa40, 0x1280,
            0x1300, 0x1340, 0x1380, 0x1c00, 0x1c40, 0x1c80, 0x1cc0, 0x2540, 0x2580, 0x25c0,
            0x2600, 0x2e40, 0x2e80, 0x2ec0, 0x2f00, 0x2f40, 0x3780, 0x37c0, 0x3800, 0x3840,
            0x40c0, 0x4100, 0x4140, 0x4180, 0x41c0, 0x4a00, 0x4a40, 0x4a80, 0x4b00, 0x5340,
            0x5380, 0x53c0, 0x5440, 0x5c80, 0x5cc0, 0x5d40, 0x5d80, 0x65c0, 0x6600, 0x6680,
            0x66c0, 0x6f00, 0x6f40, 0x6f80, 0x6fc0, 0x7000, 0x7840, 0x78c0, 0x7900, 0x7940,
            0x8180, 0x81c0, 0x8200, 0x8240, 0x8280, 0x8b00, 0x8b40, 0x8b80, 0x8bc0, 0x9400,
            0x9440, 0x9480, 0x94c0, 0x9500, 0x9d40, 0x9d80, 0x9dc0, 0x9e00, 0xa680, 0xa6c0,
            0xa700, 0xa740, 0xafc0, 0xb000, 0xb040, 0xb0c0, 0xb900, 0xb940, 0xb980, 0xba00,
            0xc240, 0xc280, 0xc2c0, 0xc300, 0xc340, 0xcb80, 0xcbc0, 0xcc40, 0xcc80,
        ];
        assert_eq!(raw(m.l1d(0)), l1d);
        assert_eq!(raw(m.l2()), l2);
        assert_eq!(m.prefetches_dropped(), 0);
    }

    #[test]
    fn reset_replays_bit_identically_to_fresh() {
        let mut fresh = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
        let expected = drive_schedule(&mut fresh);
        let fresh_stats = *fresh.l1d(0).stats();

        let mut reused = MemorySystem::new(HierarchyConfig::tiny(1).unwrap());
        drive_schedule(&mut reused); // dirty it
        reused.reset();
        assert_eq!(reused.l1d(0).occupancy(), 0);
        assert_eq!(reused.l2().occupancy(), 0);
        assert_eq!(reused.l1d(0).stats(), &CacheStats::new());
        let replay = drive_schedule(&mut reused);
        assert_eq!(replay, expected, "a reset hierarchy must replay bit-identically");
        assert_eq!(reused.l1d(0).stats(), &fresh_stats);
        assert_eq!(reused.l2().resident_lines(), fresh.l2().resident_lines());
        assert_eq!(reused.l1d(0).resident_lines(), fresh.l1d(0).resident_lines());
    }
}
