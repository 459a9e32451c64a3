//! A single set-associative cache array with in-flight prefetch tracking.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;

use prefender_obs::{trace_event, CacheTag, TraceEvent};

use crate::addr::Addr;
use crate::config::CacheConfig;
use crate::line::CacheLine;
use crate::replacement::ReplacementPolicy;
use crate::stats::{CacheStats, PrefetchSource};
use crate::time::Cycle;

/// Result of a demand lookup in one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was present.
    Hit {
        /// `true` when this was the first demand use of a prefetched line
        /// (the Tagged prefetcher's tag-bit event).
        first_prefetch_use: bool,
        /// Who installed the line (meaningful when `first_prefetch_use`).
        source: PrefetchSource,
    },
    /// The line is being prefetched but has not arrived yet; the demand
    /// access pays the remaining latency until `ready_at`.
    InFlight {
        /// When the prefetch completes.
        ready_at: Cycle,
        /// Who issued the prefetch.
        source: PrefetchSource,
    },
    /// The line is absent.
    Miss,
}

/// A line displaced by a fill, reported upward for write-back and for the
/// inclusive hierarchy's back-invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned address of the displaced line.
    pub addr: Addr,
    /// The line was dirty and must be written back.
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    ready_at: Cycle,
    source: PrefetchSource,
}

/// One set-associative cache array.
///
/// `Cache` models presence, recency and dirtiness — never data. It is
/// composed into a [`MemorySystem`](crate::MemorySystem) which drives the
/// multi-level (inclusive) behaviour; `Cache` itself only answers lookups,
/// picks victims and tracks in-flight prefetches.
///
/// # Examples
///
/// ```
/// use prefender_sim::{Cache, CacheConfig, Addr, Cycle, LookupResult};
///
/// # fn main() -> Result<(), prefender_sim::ConfigError> {
/// let mut c = Cache::new(CacheConfig::new("L1D", 1024, 2, 64, 4)?);
/// let a = Addr::new(0x80);
/// assert_eq!(c.demand_lookup(a, Cycle::ZERO), LookupResult::Miss);
/// c.fill(a, Cycle::ZERO, None, false);
/// assert!(matches!(c.demand_lookup(a, Cycle::new(1)), LookupResult::Hit { .. }));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines, flattened set-major: set `s` occupies
    /// `sets[s * assoc .. (s + 1) * assoc]`. One contiguous allocation —
    /// a set lookup is one slice index, not a pointer chase through a
    /// nested `Vec`, and neighbouring ways share cache lines of the
    /// *host* machine.
    sets: Vec<CacheLine>,
    assoc: usize,
    /// Index into `sets` of the last demand hit: a hint for
    /// [`Cache::repeat_hit`], matched by valid bit and tag (a tag sits in
    /// at most one way), so no eviction, invalidation or reset clears it.
    last_hit: usize,
    inflight: crate::hash::Mix64Map<InFlight>,
    /// Completion events mirroring `inflight`, min-ordered by
    /// `(ready_at, line_addr)` so [`Cache::expire_inflight_into`] pops in
    /// the exact deterministic order the old sort-scan produced — and
    /// early-exits in O(1) when nothing is due. Entries may be stale
    /// (cancelled or already materialized); they are skipped on pop by
    /// checking the map.
    completions: BinaryHeap<Reverse<(Cycle, u64)>>,
    /// Sets that have held at least one installed line since the last
    /// reset; [`Cache::reset`] clears only these instead of sweeping the
    /// whole array. Capped at `n_sets` recordings — beyond that
    /// `touched_overflow` triggers a full sweep.
    touched_sets: Vec<u32>,
    touched_overflow: bool,
    stats: CacheStats,
    fill_seq: u64,
    rng_state: u64,
    /// Flight-recorder identity (`level << 4 | core`), assigned by the
    /// hierarchy. Not part of simulated state: it survives [`Cache::reset`]
    /// and standalone caches keep the 0 default.
    trace_id: CacheTag,
}

/// The replacement RNG's cold-start state (xorshift64* seed).
const COLD_RNG_STATE: u64 = 0x9E37_79B9_7F4A_7C15;

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let n_sets = cfg.n_sets() as usize;
        let assoc = cfg.associativity() as usize;
        Cache {
            cfg,
            sets: vec![CacheLine::empty(); n_sets * assoc],
            assoc,
            last_hit: 0,
            inflight: crate::hash::Mix64Map::default(),
            completions: BinaryHeap::new(),
            touched_sets: Vec::new(),
            touched_overflow: false,
            stats: CacheStats::new(),
            fill_seq: 0,
            rng_state: COLD_RNG_STATE,
            trace_id: 0,
        }
    }

    /// Sets this array's flight-recorder identity (see
    /// [`prefender_obs::CacheTag`]).
    pub fn set_trace_id(&mut self, id: CacheTag) {
        self.trace_id = id;
    }

    /// Returns the cache to its cold (just-constructed) state without
    /// releasing any allocation: installed lines are emptied (only the
    /// sets actually touched since the last reset are visited), in-flight
    /// prefetches are cancelled, statistics and the replacement state are
    /// zeroed. Behaviour after `reset` is bit-identical to a fresh
    /// [`Cache::new`] with the same config.
    pub fn reset(&mut self) {
        if self.touched_overflow {
            for line in &mut self.sets {
                if line.valid {
                    *line = CacheLine::empty();
                }
            }
        } else {
            let assoc = self.assoc;
            for i in 0..self.touched_sets.len() {
                let set = self.touched_sets[i] as usize;
                for line in &mut self.sets[set * assoc..(set + 1) * assoc] {
                    if line.valid {
                        *line = CacheLine::empty();
                    }
                }
            }
        }
        self.touched_sets.clear();
        self.touched_overflow = false;
        self.inflight.clear();
        self.completions.clear();
        self.stats.reset();
        self.fill_seq = 0;
        self.rng_state = COLD_RNG_STATE;
    }

    /// The cache's geometry and timing configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Read access to the event counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the event counters (the hierarchy adds latencies).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    #[inline]
    fn line_addr(&self, addr: Addr) -> u64 {
        self.cfg.line_addr_of(addr)
    }

    #[inline]
    fn set_of(&self, addr: Addr) -> usize {
        self.cfg.set_index(addr) as usize
    }

    /// The ways of one set, as a contiguous slice (way order preserved —
    /// victim choice and fill order are identical to the nested layout).
    #[inline]
    fn ways(&self, set: usize) -> &[CacheLine] {
        &self.sets[set * self.assoc..(set + 1) * self.assoc]
    }

    #[inline]
    fn ways_mut(&mut self, set: usize) -> &mut [CacheLine] {
        &mut self.sets[set * self.assoc..(set + 1) * self.assoc]
    }

    /// Presence check for an already line-aligned address (the internal
    /// form: computes the set once and reuses the caller's alignment).
    #[inline]
    fn contains_line(&self, la: u64) -> bool {
        let set = self.cfg.set_index_of_line(la) as usize;
        self.ways(set).iter().any(|l| l.valid && l.tag == la)
    }

    /// Non-mutating presence check (installed lines only).
    pub fn contains(&self, addr: Addr) -> bool {
        self.contains_line(self.line_addr(addr))
    }

    /// Presence check that also counts lines still in flight from a
    /// prefetch. PREFENDER's "not currently in the L1D cache" test uses
    /// this, so a line is never prefetched twice.
    pub fn contains_or_inflight(&self, addr: Addr) -> bool {
        let la = self.line_addr(addr);
        self.contains_line(la) || self.inflight.contains_key(&la)
    }

    /// Number of valid lines currently installed (test/debug helper).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|l| l.valid).count()
    }

    /// Materializes every in-flight prefetch whose completion time has
    /// passed. Called by the hierarchy before each lookup so that lazy
    /// completion is invisible to callers.
    ///
    /// Returns evicted lines (write-back / back-invalidation work for the
    /// hierarchy). Convenience wrapper over
    /// [`Cache::expire_inflight_into`] that allocates the result vector.
    pub fn expire_inflight(&mut self, now: Cycle) -> Vec<EvictedLine> {
        let mut evicted = Vec::new();
        self.expire_inflight_into(now, &mut evicted);
        evicted
    }

    /// Allocation-free form of [`Cache::expire_inflight`]: evicted lines
    /// are appended to the caller-provided `evicted` buffer.
    ///
    /// Completions pop off a min-heap ordered by `(ready_at, line_addr)`,
    /// which is exactly the fill order the earlier scan-and-sort
    /// implementation produced (when two expiring fills target the same
    /// set the fill order picks the eviction victim, so this ordering is
    /// load-bearing for whole-machine bit-determinism). When nothing is
    /// due — the common case — the method returns after one heap peek
    /// without touching the in-flight map.
    pub fn expire_inflight_into(&mut self, now: Cycle, evicted: &mut Vec<EvictedLine>) {
        while let Some(&Reverse((ready_at, la))) = self.completions.peek() {
            if ready_at > now {
                break;
            }
            self.completions.pop();
            // Heap entries outlive cancellations (flush, late-prefetch
            // materialization, reinsertion after invalidate): an entry is
            // live only while the map still holds this line at this exact
            // completion time.
            let Entry::Occupied(live) = self.inflight.entry(la) else { continue };
            if live.get().ready_at != ready_at {
                continue;
            }
            let f = live.remove();
            if let (_, Some(e)) = self.install(Addr::new(la), f.ready_at, Some(f.source), false) {
                evicted.push(e);
            }
        }
    }

    /// Performs a demand lookup, updating recency and prefetch-use
    /// bookkeeping. Does *not* update hit/miss counters — the hierarchy
    /// does, because only it knows the final latency.
    pub fn demand_lookup(&mut self, addr: Addr, now: Cycle) -> LookupResult {
        let la = self.line_addr(addr);
        let set = self.set_of(addr);
        let tid = self.trace_id;
        for (way, line) in self.ways_mut(set).iter_mut().enumerate() {
            if line.valid && line.tag == la {
                line.last_touch = now;
                let first_use = line.prefetched;
                let source = line.source;
                if first_use {
                    line.prefetched = false;
                    self.stats.prefetch_useful += 1;
                }
                self.last_hit = set * self.assoc + way;
                trace_event(|| TraceEvent::DemandHit {
                    at: u64::from(now),
                    cache: tid,
                    set: set as u32,
                    way: way as u32,
                    line: la,
                });
                return LookupResult::Hit { first_prefetch_use: first_use, source };
            }
        }
        if let Some(f) = self.inflight.remove(&la) {
            // Late prefetch: materialize at its completion time (the
            // moment the demand access can actually use it); the caller
            // charges the remaining latency.
            self.stats.prefetch_late += 1;
            trace_event(|| TraceEvent::PrefetchLate {
                at: u64::from(now),
                cache: tid,
                line: la,
                source: f.source as u8,
            });
            let (slot, evicted) = self.install(addr, f.ready_at.max(now), Some(f.source), false);
            debug_assert!(evicted.is_none() || evicted.unwrap().addr.raw() != la);
            // The demand access is about to use it: clear the tag bit
            // (the install resolved the slot, so no second set scan).
            self.sets[slot].prefetched = false;
            return LookupResult::InFlight { ready_at: f.ready_at, source: f.source };
        }
        trace_event(|| TraceEvent::DemandMiss {
            at: u64::from(now),
            cache: tid,
            set: set as u32,
            line: la,
        });
        LookupResult::Miss
    }

    /// `true` when a [`Cache::demand_lookup`] hit on `addr` can be done in
    /// place by [`Cache::repeat_hits`]: its line sits in the slot of the
    /// last demand hit, is not tagged as prefetched and the flight
    /// recorder is disarmed. Otherwise the caller takes the full lookup
    /// (so an armed recorder still sees every `DemandHit` event).
    #[inline]
    pub(crate) fn repeat_ready(&self, addr: Addr) -> bool {
        let line = &self.sets[self.last_hit];
        line.valid
            && line.tag == self.line_addr(addr)
            && !line.prefetched
            && !prefender_obs::trace_armed()
    }

    /// The state change of `n` demand hits on the line in the last-hit
    /// slot, the last at `last`: the recency of the last one and the
    /// counters of all of them. Only valid while [`Cache::repeat_ready`]
    /// holds for that line.
    #[inline]
    pub(crate) fn repeat_hits(&mut self, n: u64, last: Cycle) {
        self.sets[self.last_hit].last_touch = last;
        self.stats.demand_accesses += n;
        self.stats.demand_hits += n;
    }

    fn line_mut(&mut self, addr: Addr) -> Option<&mut CacheLine> {
        let la = self.line_addr(addr);
        let set = self.set_of(addr);
        self.ways_mut(set).iter_mut().find(|l| l.valid && l.tag == la)
    }

    /// Marks an installed line dirty (store hit).
    pub fn mark_dirty(&mut self, addr: Addr) {
        if let Some(line) = self.line_mut(addr) {
            line.dirty = true;
        }
    }

    /// Refreshes a line's recency without demand-access bookkeeping, and
    /// returns whether the line is installed.
    ///
    /// Used when a prefetch is served from this cache: the fill *reads*
    /// the line, so its replacement state is updated exactly as a demand
    /// hit would, but no hit/miss or tag-bit accounting applies.
    pub fn touch(&mut self, addr: Addr, now: Cycle) -> bool {
        match self.line_mut(addr) {
            Some(line) => {
                line.last_touch = now;
                true
            }
            None => false,
        }
    }

    /// Installs a line, evicting a victim if the set is full.
    ///
    /// `prefetch` attributes the fill to a prefetch source and sets the
    /// tag bit; `write` installs the line dirty (write-allocate).
    /// Filling an already-present line only refreshes recency; filling a
    /// line in flight cancels the prefetch.
    pub fn fill(
        &mut self,
        addr: Addr,
        now: Cycle,
        prefetch: Option<PrefetchSource>,
        write: bool,
    ) -> Option<EvictedLine> {
        if let Some(line) = self.line_mut(addr) {
            line.last_touch = now;
            line.dirty |= write;
            return None;
        }
        self.inflight.remove(&self.line_addr(addr));
        self.install(addr, now, prefetch, write).1
    }

    /// [`Cache::fill`] of a line that is neither installed nor in flight
    /// (after a [`Cache::demand_lookup`] miss, or once its in-flight entry
    /// is taken off the map): no presence scan, no map probe. Returns the
    /// index into `sets` where the line now lives and the evicted line.
    pub(crate) fn install(
        &mut self,
        addr: Addr,
        now: Cycle,
        prefetch: Option<PrefetchSource>,
        write: bool,
    ) -> (usize, Option<EvictedLine>) {
        let la = self.line_addr(addr);
        debug_assert!(!self.contains_line(la), "line {la:#x} installed twice");
        debug_assert!(!self.inflight.contains_key(&la), "line {la:#x} installed while in flight");
        let set = self.set_of(addr);
        self.record_touched(set);
        let seq = self.fill_seq;
        self.fill_seq += 1;
        let victim_way = self.pick_victim(set);
        let slot = set * self.assoc + victim_way;
        let tid = self.trace_id;
        let victim = &mut self.sets[slot];
        let evicted = if victim.valid {
            self.stats.evictions += 1;
            let victim_tag = victim.tag;
            trace_event(|| TraceEvent::Eviction {
                at: u64::from(now),
                cache: tid,
                set: set as u32,
                way: victim_way as u32,
                victim: victim_tag,
            });
            if victim.prefetched {
                self.stats.prefetch_unused += 1;
                trace_event(|| TraceEvent::PrefetchExpire {
                    at: u64::from(now),
                    cache: tid,
                    line: victim_tag,
                });
            }
            Some(EvictedLine { addr: Addr::new(victim.tag), dirty: victim.dirty })
        } else {
            None
        };
        *victim = CacheLine {
            tag: la,
            valid: true,
            dirty: write,
            prefetched: prefetch.is_some(),
            source: prefetch.unwrap_or(PrefetchSource::Other),
            last_touch: now,
            fill_seq: seq,
        };
        if prefetch.is_some() {
            self.stats.prefetch_fills += 1;
            trace_event(|| TraceEvent::PrefetchFill {
                at: u64::from(now),
                cache: tid,
                set: set as u32,
                way: victim_way as u32,
                line: la,
            });
        }
        (slot, evicted)
    }

    /// Remembers that `set` may now hold installed lines, so
    /// [`Cache::reset`] can clear only the touched portion of the array.
    #[inline]
    fn record_touched(&mut self, set: usize) {
        if self.touched_overflow {
            return;
        }
        if self.touched_sets.len() * self.assoc >= self.sets.len() {
            // More recordings than sets: a full sweep is cheaper than
            // deduplicating, and the list stays bounded.
            self.touched_overflow = true;
            return;
        }
        self.touched_sets.push(set as u32);
    }

    /// Registers an in-flight prefetch completing at `ready_at`.
    ///
    /// No-op when the line is already installed or already in flight.
    pub fn fill_inflight(&mut self, addr: Addr, ready_at: Cycle, source: PrefetchSource) {
        if !self.contains_or_inflight(addr) {
            self.insert_inflight(addr, ready_at, source);
        }
    }

    /// [`Cache::fill_inflight`] of a line the caller has found neither
    /// installed nor in flight.
    pub(crate) fn insert_inflight(&mut self, addr: Addr, ready_at: Cycle, source: PrefetchSource) {
        let la = self.line_addr(addr);
        debug_assert!(!self.contains_line(la), "line {la:#x} in flight while installed");
        let prev = self.inflight.insert(la, InFlight { ready_at, source });
        debug_assert!(prev.is_none(), "line {la:#x} in flight twice");
        self.completions.push(Reverse((ready_at, la)));
    }

    /// `true` when a prefetch of `addr`'s line is in flight.
    pub(crate) fn in_flight(&self, addr: Addr) -> bool {
        self.inflight.contains_key(&self.line_addr(addr))
    }

    /// Removes a line (flush or back-invalidation). Also cancels any
    /// in-flight prefetch of the line.
    ///
    /// Returns the line's state if it was present (so the hierarchy can
    /// write back dirty data), `None` otherwise.
    pub fn invalidate(&mut self, addr: Addr) -> Option<EvictedLine> {
        // A cache that has never been filled since its last reset (e.g.
        // the L1I when instruction fetch is not modelled) holds nothing
        // to invalidate — skip the map probe and set scan entirely.
        if self.touched_sets.is_empty() && !self.touched_overflow && self.inflight.is_empty() {
            return None;
        }
        let la = self.line_addr(addr);
        self.inflight.remove(&la);
        let set = self.set_of(addr);
        let assoc = self.assoc;
        for line in &mut self.sets[set * assoc..(set + 1) * assoc] {
            if line.valid && line.tag == la {
                self.stats.invalidations += 1;
                if line.prefetched {
                    self.stats.prefetch_unused += 1;
                }
                let out = EvictedLine { addr: Addr::new(la), dirty: line.dirty };
                *line = CacheLine::empty();
                return Some(out);
            }
        }
        None
    }

    /// All line-aligned addresses currently installed (test/debug helper).
    pub fn resident_lines(&self) -> Vec<Addr> {
        let mut v: Vec<Addr> =
            self.sets.iter().filter(|l| l.valid).map(|l| Addr::new(l.tag)).collect();
        v.sort_unstable();
        v
    }

    fn pick_victim(&mut self, set: usize) -> usize {
        let ways = &self.sets[set * self.assoc..(set + 1) * self.assoc];
        if let Some(i) = ways.iter().position(|l| !l.valid) {
            return i;
        }
        match self.cfg.replacement() {
            ReplacementPolicy::Lru => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_touch)
                .map(|(i, _)| i)
                .expect("associativity >= 1"),
            ReplacementPolicy::Fifo => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.fill_seq)
                .map(|(i, _)| i)
                .expect("associativity >= 1"),
            ReplacementPolicy::Random => {
                // xorshift64*: deterministic, cheap, good enough to ablate.
                let n = ways.len() as u64;
                let mut x = self.rng_state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.rng_state = x;
                (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(assoc: u32, policy: ReplacementPolicy) -> Cache {
        // 512 B, `assoc`-way, 64 B lines => 8/assoc sets.
        let cfg = CacheConfig::new("T", 512, assoc, 64, 4).unwrap().with_replacement(policy);
        Cache::new(cfg)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        assert_eq!(c.demand_lookup(a, Cycle::ZERO), LookupResult::Miss);
        assert!(c.fill(a, Cycle::ZERO, None, false).is_none());
        assert!(c.contains(a));
        match c.demand_lookup(a, Cycle::new(1)) {
            LookupResult::Hit { first_prefetch_use, .. } => assert!(!first_prefetch_use),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn hit_anywhere_in_line() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill(Addr::new(0x100), Cycle::ZERO, None, false);
        assert!(c.contains(Addr::new(0x13F)));
        assert!(!c.contains(Addr::new(0x140)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        // Set count = 4; 0x000 and 0x400 and 0x800 share set 0 (line/64 % 4).
        let a = Addr::new(0x000);
        let b = Addr::new(0x400);
        let d = Addr::new(0x800);
        c.fill(a, Cycle::new(0), None, false);
        c.fill(b, Cycle::new(1), None, false);
        // touch a so b becomes LRU
        c.demand_lookup(a, Cycle::new(2));
        let evicted = c.fill(d, Cycle::new(3), None, false).expect("set was full");
        assert_eq!(evicted.addr, b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn fifo_evicts_oldest_fill() {
        let mut c = tiny(2, ReplacementPolicy::Fifo);
        let a = Addr::new(0x000);
        let b = Addr::new(0x400);
        let d = Addr::new(0x800);
        c.fill(a, Cycle::new(0), None, false);
        c.fill(b, Cycle::new(1), None, false);
        c.demand_lookup(a, Cycle::new(2)); // recency must NOT matter
        let evicted = c.fill(d, Cycle::new(3), None, false).expect("set was full");
        assert_eq!(evicted.addr, a);
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let run = || {
            let mut c = tiny(2, ReplacementPolicy::Random);
            let mut evictions = Vec::new();
            for i in 0..16u64 {
                if let Some(e) = c.fill(Addr::new(i * 0x400), Cycle::new(i), None, false) {
                    evictions.push(e.addr.raw());
                }
            }
            evictions
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn prefetch_fill_sets_tag_bit_and_first_use_clears_it() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        c.fill(a, Cycle::ZERO, Some(PrefetchSource::ScaleTracker), false);
        assert_eq!(c.stats().prefetch_fills, 1);
        match c.demand_lookup(a, Cycle::new(1)) {
            LookupResult::Hit { first_prefetch_use, source } => {
                assert!(first_prefetch_use);
                assert_eq!(source, PrefetchSource::ScaleTracker);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second use is an ordinary hit.
        match c.demand_lookup(a, Cycle::new(2)) {
            LookupResult::Hit { first_prefetch_use, .. } => assert!(!first_prefetch_use),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn inflight_prefetch_arrives_on_time() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        c.fill_inflight(a, Cycle::new(100), PrefetchSource::AccessTracker);
        assert!(c.contains_or_inflight(a));
        assert!(!c.contains(a));
        let evicted = c.expire_inflight(Cycle::new(100));
        assert!(evicted.is_empty());
        assert!(c.contains(a));
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn demand_on_late_prefetch_reports_inflight() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        c.fill_inflight(a, Cycle::new(100), PrefetchSource::Basic);
        match c.demand_lookup(a, Cycle::new(40)) {
            LookupResult::InFlight { ready_at, source } => {
                assert_eq!(ready_at, Cycle::new(100));
                assert_eq!(source, PrefetchSource::Basic);
            }
            other => panic!("expected in-flight, got {other:?}"),
        }
        assert_eq!(c.stats().prefetch_late, 1);
        // The line materialized and is present afterwards, not counted useful
        // again.
        assert!(c.contains(a));
        assert_eq!(c.stats().prefetch_useful, 0);
    }

    #[test]
    fn invalidate_removes_line_and_inflight() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        let b = Addr::new(0x200);
        c.fill(a, Cycle::ZERO, None, false);
        c.fill_inflight(b, Cycle::new(50), PrefetchSource::Basic);
        assert!(c.invalidate(a).is_some());
        assert!(c.invalidate(b).is_none(), "inflight line was never installed");
        assert!(!c.contains(a));
        assert!(!c.contains_or_inflight(b));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn dirty_eviction_reports_writeback_needed() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x000);
        c.fill(a, Cycle::new(0), None, true); // write-allocate
        c.fill(Addr::new(0x400), Cycle::new(1), None, false);
        let e = c.fill(Addr::new(0x800), Cycle::new(2), None, false).unwrap();
        assert_eq!(e.addr, a);
        assert!(e.dirty);
    }

    #[test]
    fn mark_dirty_on_store_hit() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        c.fill(a, Cycle::ZERO, None, false);
        c.mark_dirty(a);
        let e = c.invalidate(a).unwrap();
        assert!(e.dirty);
    }

    #[test]
    fn unused_prefetch_eviction_counted() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill(Addr::new(0x000), Cycle::new(0), Some(PrefetchSource::Basic), false);
        c.fill(Addr::new(0x400), Cycle::new(1), None, false);
        c.fill(Addr::new(0x800), Cycle::new(2), None, false); // evicts the prefetch
        assert_eq!(c.stats().prefetch_unused, 1);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        c.fill(a, Cycle::new(0), None, false);
        assert!(c.fill(a, Cycle::new(5), None, false).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn resident_lines_sorted() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill(Addr::new(0x400), Cycle::ZERO, None, false);
        c.fill(Addr::new(0x100), Cycle::ZERO, None, false);
        assert_eq!(c.resident_lines(), vec![Addr::new(0x100), Addr::new(0x400)]);
    }

    #[test]
    fn expire_pops_in_ready_then_address_order() {
        // Two same-set lines expiring together: fills must land in
        // (ready_at, addr) order so the eviction victim is deterministic.
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill_inflight(Addr::new(0x800), Cycle::new(50), PrefetchSource::Basic);
        c.fill_inflight(Addr::new(0x400), Cycle::new(50), PrefetchSource::Basic);
        c.fill_inflight(Addr::new(0x000), Cycle::new(40), PrefetchSource::Basic);
        // Set 0 holds two ways; three fills => one eviction. 0x000 fills
        // first (earlier ready), then 0x400 (address tie-break), then
        // 0x800 evicts the LRU line 0x000.
        let evicted = c.expire_inflight(Cycle::new(60));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].addr, Addr::new(0x000));
        assert!(c.contains(Addr::new(0x400)) && c.contains(Addr::new(0x800)));
    }

    #[test]
    fn cancelled_inflight_never_materializes() {
        // A stale completion-queue entry (invalidated, then re-prefetched
        // at a different time) must not fill early or twice.
        let mut c = tiny(2, ReplacementPolicy::Lru);
        let a = Addr::new(0x100);
        c.fill_inflight(a, Cycle::new(100), PrefetchSource::Basic);
        c.invalidate(a);
        assert!(!c.contains_or_inflight(a));
        assert!(c.expire_inflight(Cycle::new(200)).is_empty());
        assert!(!c.contains(a), "cancelled prefetch must not materialize");

        c.fill_inflight(a, Cycle::new(300), PrefetchSource::ScaleTracker);
        c.invalidate(a);
        c.fill_inflight(a, Cycle::new(250), PrefetchSource::AccessTracker);
        c.expire_inflight(Cycle::new(400));
        assert!(c.contains(a));
        assert_eq!(c.stats().prefetch_fills, 1, "exactly one fill despite stale queue entries");
        match c.demand_lookup(a, Cycle::new(500)) {
            LookupResult::Hit { first_prefetch_use, source } => {
                assert!(first_prefetch_use);
                assert_eq!(source, PrefetchSource::AccessTracker, "the live (second) prefetch won");
            }
            other => panic!("expected hit, got {other:?}"),
        }

        // A stale entry due before the live one must not materialize it
        // early.
        let b = Addr::new(0x200);
        c.fill_inflight(b, Cycle::new(600), PrefetchSource::Basic);
        c.invalidate(b);
        c.fill_inflight(b, Cycle::new(800), PrefetchSource::Basic);
        c.expire_inflight(Cycle::new(700));
        assert!(!c.contains(b) && c.contains_or_inflight(b));
        c.expire_inflight(Cycle::new(800));
        assert!(c.contains(b));
    }

    #[test]
    fn expire_into_appends_without_clearing() {
        let mut c = tiny(2, ReplacementPolicy::Lru);
        c.fill(Addr::new(0x000), Cycle::new(0), None, false);
        c.fill(Addr::new(0x400), Cycle::new(1), None, false);
        c.fill_inflight(Addr::new(0x800), Cycle::new(10), PrefetchSource::Basic);
        let mut sink = vec![EvictedLine { addr: Addr::new(0xDEAD), dirty: false }];
        c.expire_inflight_into(Cycle::new(10), &mut sink);
        assert_eq!(sink.len(), 2, "appends after existing content");
        assert_eq!(sink[1].addr, Addr::new(0x000));
    }

    #[test]
    fn reset_restores_cold_state_including_replacement_rng() {
        let run = |c: &mut Cache| {
            let mut evictions = Vec::new();
            for i in 0..16u64 {
                if let Some(e) = c.fill(Addr::new(i * 0x400), Cycle::new(i), None, false) {
                    evictions.push(e.addr.raw());
                }
            }
            evictions
        };
        let mut c = tiny(2, ReplacementPolicy::Random);
        let first = run(&mut c);
        c.fill_inflight(Addr::new(0x7000), Cycle::new(999), PrefetchSource::Basic);
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.contains_or_inflight(Addr::new(0x7000)));
        assert_eq!(c.stats(), &CacheStats::new());
        let second = run(&mut c);
        assert_eq!(first, second, "reset must restore the cold replacement RNG stream");
        assert!(c.expire_inflight(Cycle::new(10_000)).is_empty(), "completion queue drained");
    }

    #[test]
    fn reset_survives_touched_set_overflow() {
        // More installs than sets: the touched list overflows and reset
        // falls back to a full sweep — still leaving a cold cache.
        let mut c = tiny(2, ReplacementPolicy::Lru);
        for i in 0..64u64 {
            c.fill(Addr::new(i * 0x40), Cycle::new(i), None, false);
        }
        c.reset();
        assert_eq!(c.occupancy(), 0);
        for i in 0..64u64 {
            assert!(!c.contains(Addr::new(i * 0x40)), "line {i} must be gone");
        }
    }
}
