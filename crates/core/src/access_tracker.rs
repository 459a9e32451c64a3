//! The Access Tracker (AT): phase-3 defense — paper Section IV-C.

use prefender_obs::{trace_event, TraceEvent};
use prefender_sim::{Addr, Cycle, PrefetchSource};

use crate::config::{AtConfig, RpConfig};

/// The PC → buffer index map: keyed by 64-bit instruction addresses and
/// never iterated, so the shared SplitMix64-finalizer hasher applies
/// (see [`prefender_sim::Mix64Map`]) — stage 1's associative match
/// becomes one cheap hash probe.
type PcMap = prefender_sim::Mix64Map<usize>;

/// One access buffer: the recorded behaviour of a single load instruction.
#[derive(Debug, Clone)]
pub struct AccessBuffer {
    valid: bool,
    inst_addr: u64,
    /// `(block address, entry-LRU sequence)`.
    entries: Vec<(u64, u64)>,
    diffmin: Option<u64>,
    /// Number of unordered entry pairs achieving `diffmin` — the
    /// incremental-maintenance bookkeeping: an eviction only forces the
    /// O(n²) rescan when it removes the *last* minimum pair.
    diffmin_pairs: u32,
    protected: bool,
    protected_scale: Option<(u64, u64)>,
    guided_prefetches: u32,
    last_active: Cycle,
    touch_seq: u64,
}

impl AccessBuffer {
    fn empty(capacity: usize) -> Self {
        AccessBuffer {
            valid: false,
            inst_addr: 0,
            entries: Vec::with_capacity(capacity),
            diffmin: None,
            diffmin_pairs: 0,
            protected: false,
            protected_scale: None,
            guided_prefetches: 0,
            last_active: Cycle::ZERO,
            touch_seq: 0,
        }
    }

    fn reset_for(&mut self, pc: u64) {
        self.valid = true;
        self.inst_addr = pc;
        self.entries.clear();
        self.diffmin = None;
        self.diffmin_pairs = 0;
        self.protected = false;
        self.protected_scale = None;
        self.guided_prefetches = 0;
    }

    /// The associated load's instruction address.
    pub fn inst_addr(&self) -> u64 {
        self.inst_addr
    }

    /// Recorded block addresses, in data-structure order (not LRU order)
    /// — a borrowed view over the entry slice, no allocation.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.entries.iter().map(|&(b, _)| b)
    }

    /// The current minimum pairwise difference, if computed.
    pub fn diffmin(&self) -> Option<u64> {
        self.diffmin
    }

    /// `true` when the Record Protector has protected this buffer.
    pub fn is_protected(&self) -> bool {
        self.protected
    }

    /// The protected scale registers `(sc, BlkAddr)`, when protected.
    pub fn protected_scale(&self) -> Option<(u64, u64)> {
        self.protected_scale
    }

    fn contains(&self, blk: u64) -> bool {
        self.entries.iter().any(|&(b, _)| b == blk)
    }

    /// DiffMin update for an entry about to be inserted: one O(n) pass
    /// against the existing (distinct) blocks. Call **before** pushing
    /// `blk` so the pass never pairs the block with itself.
    fn diffmin_on_insert(&mut self, blk: u64) {
        let mut min: Option<u64> = None;
        let mut pairs = 0u32;
        for &(b, _) in &self.entries {
            let d = b.abs_diff(blk);
            debug_assert!(d != 0, "entries hold distinct blocks");
            match min {
                Some(m) if d > m => {}
                Some(m) if d == m => pairs += 1,
                _ => {
                    min = Some(d);
                    pairs = 1;
                }
            }
        }
        match (self.diffmin, min) {
            (Some(cur), Some(new)) if new < cur => {
                self.diffmin = Some(new);
                self.diffmin_pairs = pairs;
            }
            (Some(cur), Some(new)) if new == cur => self.diffmin_pairs += pairs,
            (None, Some(new)) => {
                self.diffmin = Some(new);
                self.diffmin_pairs = pairs;
            }
            _ => {}
        }
    }

    /// DiffMin update for an entry just evicted: drop the minimum pairs
    /// the victim participated in; only when it carried the *last* ones
    /// does the full O(n²) rescan run. Returns `true` when the rescan
    /// fired (the tracker counts incremental-vs-rescan updates).
    fn diffmin_on_evict(&mut self, victim_blk: u64) -> bool {
        let Some(cur) = self.diffmin else { return false };
        let lost =
            self.entries.iter().filter(|&&(b, _)| b.abs_diff(victim_blk) == cur).count() as u32;
        if lost < self.diffmin_pairs {
            self.diffmin_pairs -= lost;
            false
        } else {
            self.recompute_diffmin();
            true
        }
    }

    /// The full O(n²) rescan: sets both `diffmin` and the pair count.
    /// The incremental insert/evict hooks above must agree with this
    /// exactly (pinned by `diffmin_incremental_matches_rescan` and the
    /// root-level `diffmin_is_brute_force_minimum` proptest).
    fn recompute_diffmin(&mut self) {
        let mut min: Option<u64> = None;
        let mut pairs = 0u32;
        for i in 0..self.entries.len() {
            for j in (i + 1)..self.entries.len() {
                let d = self.entries[i].0.abs_diff(self.entries[j].0);
                if d == 0 {
                    continue;
                }
                match min {
                    Some(m) if d > m => {}
                    Some(m) if d == m => pairs += 1,
                    _ => {
                        min = Some(d);
                        pairs = 1;
                    }
                }
            }
        }
        self.diffmin = min;
        self.diffmin_pairs = pairs;
    }
}

/// What one Access Tracker activation decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtDecision {
    /// At most one prefetch (the paper prefetches one line per load
    /// execution to bound pollution and hardware cost).
    pub prefetch: Option<(Addr, PrefetchSource)>,
    /// The activated buffer's index, when one was available.
    pub buffer: Option<usize>,
}

impl AtDecision {
    const NONE: AtDecision = AtDecision { prefetch: None, buffer: None };
}

/// The file of access buffers (paper Figure 6) plus the Record Protector's
/// per-buffer protection state (paper Figure 7).
///
/// Flow per load access (paper's four stages):
/// 1. **Buffer allocation** — associative match on the load's PC; else an
///    empty buffer; else LRU *over unprotected buffers only*.
/// 2. **Entry updating** — record the block address (entry-level LRU).
/// 3. **DiffMin updating** — minimum pairwise difference of recorded
///    blocks, used once the buffer holds `prefetch_threshold` entries.
/// 4. **Data prefetching** — `blk ± DiffMin`, first candidate that is in
///    neither the buffer nor the L1D. When the access hits the scale
///    buffer or the buffer's protected scale, the *hit scale* guides the
///    prefetch instead (Record Protector stage 3).
#[derive(Debug, Clone)]
pub struct AccessTracker {
    buffers: Vec<AccessBuffer>,
    /// PC → buffer index for every valid buffer (stage 1's associative
    /// match as one hash probe instead of a scan over all buffers).
    pc_index: PcMap,
    /// Buffers associated so far. Buffers only become valid (never
    /// invalid, short of [`AccessTracker::reset`]) and are handed out in
    /// slot order, so this doubles as the next free slot.
    n_valid: usize,
    /// Currently protected buffers, maintained on every protect /
    /// unprotect transition so the per-load expiry walk can skip when
    /// nothing is protected (the common case without an active RP).
    n_protected: usize,
    cfg: AtConfig,
    unprotect_prefetch_threshold: u32,
    unprotect_idle_cycles: u64,
    seq: u64,
    /// Observability (always-on plain counters): buffer (re)associations
    /// and how many of them stole a live buffer.
    allocs: u64,
    buffer_evictions: u64,
    /// DiffMin updates split by path: the incremental O(n) pass vs. the
    /// full O(n²) rescan an eviction can force.
    diffmin_incremental: u64,
    diffmin_rescans: u64,
    /// Record Protector protection lifecycle events.
    protections_granted: u64,
    protections_expired: u64,
}

impl AccessTracker {
    /// Creates an empty tracker.
    pub fn new(cfg: AtConfig) -> Self {
        AccessTracker {
            buffers: (0..cfg.n_buffers)
                .map(|_| AccessBuffer::empty(cfg.entries_per_buffer))
                .collect(),
            pc_index: PcMap::default(),
            n_valid: 0,
            n_protected: 0,
            cfg,
            unprotect_prefetch_threshold: u32::MAX,
            unprotect_idle_cycles: u64::MAX,
            seq: 0,
            allocs: 0,
            buffer_evictions: 0,
            diffmin_incremental: 0,
            diffmin_rescans: 0,
            protections_granted: 0,
            protections_expired: 0,
        }
    }

    /// Adopts the Record Protector's unprotect thresholds.
    pub fn set_protection_params(&mut self, rp: &RpConfig) {
        self.unprotect_prefetch_threshold = rp.unprotect_prefetch_threshold;
        self.unprotect_idle_cycles = rp.unprotect_idle_cycles;
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &AtConfig {
        &self.cfg
    }

    /// A buffer, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= n_buffers`.
    pub fn buffer(&self, idx: usize) -> &AccessBuffer {
        &self.buffers[idx]
    }

    /// Number of currently protected buffers (paper Figure 12's quantity).
    pub fn protected_count(&self) -> usize {
        debug_assert_eq!(
            self.n_protected,
            self.buffers.iter().filter(|b| b.valid && b.protected).count()
        );
        self.n_protected
    }

    /// Number of valid (associated) buffers.
    pub fn valid_count(&self) -> usize {
        debug_assert_eq!(self.n_valid, self.buffers.iter().filter(|b| b.valid).count());
        self.n_valid
    }

    /// Observability: `(allocations, evictions)` — buffer associations
    /// since construction or [`reset`](AccessTracker::reset), and how many
    /// of those stole a live (valid) buffer.
    pub fn alloc_counts(&self) -> (u64, u64) {
        (self.allocs, self.buffer_evictions)
    }

    /// Observability: `(incremental, rescans)` — DiffMin updates that took
    /// the incremental O(n) path vs. the full O(n²) rescan.
    pub fn diffmin_update_counts(&self) -> (u64, u64) {
        (self.diffmin_incremental, self.diffmin_rescans)
    }

    /// Observability: `(granted, expired)` — Record Protector protection
    /// transitions (expiry counts both guided-prefetch and idle unprotects).
    pub fn protection_event_counts(&self) -> (u64, u64) {
        (self.protections_granted, self.protections_expired)
    }

    /// Clears all buffers.
    pub fn reset(&mut self) {
        let cap = self.cfg.entries_per_buffer;
        for b in &mut self.buffers {
            *b = AccessBuffer::empty(cap);
        }
        self.pc_index.clear();
        self.n_valid = 0;
        self.n_protected = 0;
        self.seq = 0;
        self.allocs = 0;
        self.buffer_evictions = 0;
        self.diffmin_incremental = 0;
        self.diffmin_rescans = 0;
        self.protections_granted = 0;
        self.protections_expired = 0;
    }

    /// Processes one load access.
    ///
    /// * `pc` — the load instruction's address;
    /// * `blk` — the accessed *block* (line-aligned) address;
    /// * `rp_hit` — `(sc, BlkAddr)` when the Record Protector's scale
    ///   buffer matched this access (stage 2), else `None`;
    /// * `resident` — the "already in the L1D" probe.
    pub fn on_load(
        &mut self,
        pc: u64,
        blk: Addr,
        now: Cycle,
        rp_hit: Option<(u64, u64)>,
        resident: &dyn Fn(Addr) -> bool,
    ) -> AtDecision {
        self.expire_protection(now);

        // Stage 1: buffer allocation — one hash probe on the PC map; on
        // a miss, the next never-associated slot (buffers fill in slot
        // order and only a full reset invalidates them), else LRU.
        let idx = match self.pc_index.get(&pc).copied() {
            Some(i) => i,
            None => {
                let slot = if self.n_valid < self.buffers.len() {
                    self.n_valid += 1;
                    Some(self.n_valid - 1)
                } else {
                    // LRU over unprotected buffers only (RP stage 2's rule;
                    // without RP every buffer is unprotected).
                    self.buffers
                        .iter()
                        .enumerate()
                        .filter(|(_, b)| !b.protected)
                        .min_by_key(|(_, b)| b.touch_seq)
                        .map(|(i, _)| i)
                };
                match slot {
                    Some(i) => {
                        self.associate(i, pc, now);
                        i
                    }
                    None => return AtDecision::NONE,
                }
            }
        };

        self.seq += 1;
        let seq = self.seq;
        let threshold = self.cfg.prefetch_threshold;
        let blk_raw = blk.raw();
        let unprotect_after = self.unprotect_prefetch_threshold;
        let b = &mut self.buffers[idx];
        b.touch_seq = seq;
        b.last_active = now;

        // Record Protector stage 2: protection status updating.
        if let Some((sc, pat_blk)) = rp_hit {
            if !b.protected {
                b.guided_prefetches = 0;
                self.n_protected += 1;
                self.protections_granted += 1;
                trace_event(|| TraceEvent::RpGrant { at: u64::from(now), pc });
            }
            b.protected = true;
            b.protected_scale = Some((sc, pat_blk));
        }

        // Stage 2: entry updating, with Stage 3 (DiffMin) maintained
        // incrementally — O(n) against the existing entries on insert,
        // the full pairwise rescan only when an eviction removes the
        // last minimum pair.
        if let Some(e) = b.entries.iter_mut().find(|(addr, _)| *addr == blk_raw) {
            e.1 = seq;
        } else {
            if b.entries.len() >= self.cfg.entries_per_buffer {
                let victim = b
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, touch))| *touch)
                    .map(|(i, _)| i)
                    .expect("buffer is full, hence nonempty");
                let (victim_blk, _) = b.entries.swap_remove(victim);
                if b.diffmin_on_evict(victim_blk) {
                    self.diffmin_rescans += 1;
                } else {
                    self.diffmin_incremental += 1;
                }
            }
            b.diffmin_on_insert(blk_raw);
            self.diffmin_incremental += 1;
            b.entries.push((blk_raw, seq));
        }

        // Record Protector stage 3 / AT stage 4: prefetching.
        let guided_scale = if let Some((sc, _)) = rp_hit {
            Some(sc)
        } else if b.protected {
            b.protected_scale.and_then(|(sc, pat_blk)| {
                blk_raw.abs_diff(pat_blk).is_multiple_of(sc).then_some(sc)
            })
        } else {
            None
        };

        let stride = if let Some(sc) = guided_scale {
            Some((sc, PrefetchSource::RecordProtector))
        } else if b.entries.len() >= threshold {
            b.diffmin.map(|d| (d, PrefetchSource::AccessTracker))
        } else {
            None
        };

        let mut prefetch = None;
        if let Some((stride, source)) = stride {
            for delta in [stride as i64, -(stride as i64)] {
                if let Some(cand) = blk.offset(delta) {
                    if !b.contains(cand.raw()) && !resident(cand) {
                        prefetch = Some((cand, source));
                        break;
                    }
                }
            }
            if prefetch.is_some() && source == PrefetchSource::RecordProtector {
                b.guided_prefetches += 1;
                if b.guided_prefetches > unprotect_after {
                    b.protected = false;
                    b.protected_scale = None;
                    b.guided_prefetches = 0;
                    self.n_protected -= 1;
                    self.protections_expired += 1;
                    trace_event(|| TraceEvent::RpExpire { at: u64::from(now), pc });
                }
            }
        }

        AtDecision { prefetch, buffer: Some(idx) }
    }

    /// Associates buffer `i` with `pc`: drops the old PC mapping (LRU
    /// victims stay indexed until they are stolen), clears the buffer and
    /// indexes the new PC. Only unprotected buffers are ever handed in
    /// (fresh slots and LRU victims alike), so the protected count is
    /// untouched.
    fn associate(&mut self, i: usize, pc: u64, now: Cycle) {
        self.allocs += 1;
        let b = &mut self.buffers[i];
        debug_assert!(!b.protected, "protected buffers are exempt from replacement");
        if b.valid {
            self.buffer_evictions += 1;
            let old_pc = b.inst_addr;
            trace_event(|| TraceEvent::AtEvict {
                at: u64::from(now),
                pc: old_pc,
                buffer: i as u32,
            });
            let removed = self.pc_index.remove(&old_pc);
            debug_assert_eq!(removed, Some(i));
        }
        trace_event(|| TraceEvent::AtAlloc { at: u64::from(now), pc, buffer: i as u32 });
        b.reset_for(pc);
        self.pc_index.insert(pc, i);
    }

    fn expire_protection(&mut self, now: Cycle) {
        if self.n_protected == 0 {
            return;
        }
        // Stop as soon as every protected buffer has been visited — with
        // one or two protections live (the common attack shape) the walk
        // ends after a handful of slots instead of the whole file.
        let idle = self.unprotect_idle_cycles;
        let mut remaining = self.n_protected;
        for b in &mut self.buffers {
            if b.protected {
                if now.since(b.last_active) > idle {
                    b.protected = false;
                    b.protected_scale = None;
                    b.guided_prefetches = 0;
                    self.n_protected -= 1;
                    self.protections_expired += 1;
                    let pc = b.inst_addr;
                    trace_event(|| TraceEvent::RpExpire { at: u64::from(now), pc });
                }
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(n_buffers: usize) -> AccessTracker {
        AccessTracker::new(AtConfig { n_buffers, ..AtConfig::paper() })
    }

    const NOT_RESIDENT: fn(Addr) -> bool = |_| false;

    fn probe(t: &mut AccessTracker, pc: u64, blk: u64, at_cycle: u64) -> AtDecision {
        t.on_load(pc, Addr::new(blk), Cycle::new(at_cycle), None, &NOT_RESIDENT)
    }

    #[test]
    fn buffer_associates_by_pc() {
        let mut t = at(4);
        let d1 = probe(&mut t, 0x8008, 0x1000, 0);
        let d2 = probe(&mut t, 0x8008, 0x1600, 1);
        assert_eq!(d1.buffer, d2.buffer);
        let d3 = probe(&mut t, 0x8018, 0x2000, 2);
        assert_ne!(d1.buffer, d3.buffer);
        assert_eq!(t.valid_count(), 2);
    }

    #[test]
    fn figure_6_example() {
        // Buffer[0] is associated with load 0x8008 and holds 0x1000,
        // 0x1F00, 0x1600, 0x2800 (256-byte lines in the figure; we use the
        // raw blocks directly). Access to 0x1C00 updates DiffMin to 0x300
        // = |0x1F00 - 0x1C00| and prefetches 0x1C00 - 0x300 because
        // 0x1C00 + 0x300 = 0x1F00 is already in the buffer.
        let mut t = at(4);
        for (i, blk) in [0x1000u64, 0x1F00, 0x1600, 0x2800].into_iter().enumerate() {
            probe(&mut t, 0x8008, blk, i as u64);
        }
        let d = probe(&mut t, 0x8008, 0x1C00, 4);
        let buf = t.buffer(d.buffer.unwrap());
        assert_eq!(buf.diffmin(), Some(0x300));
        assert_eq!(d.prefetch, Some((Addr::new(0x1900), PrefetchSource::AccessTracker)));
    }

    #[test]
    fn no_prefetch_below_threshold() {
        let mut t = at(4);
        assert_eq!(probe(&mut t, 0x8008, 0x1000, 0).prefetch, None);
        assert_eq!(probe(&mut t, 0x8008, 0x1200, 1).prefetch, None);
        assert_eq!(probe(&mut t, 0x8008, 0x1400, 2).prefetch, None);
        // 4th distinct entry reaches the threshold.
        let d = probe(&mut t, 0x8008, 0x1600, 3);
        assert_eq!(d.prefetch, Some((Addr::new(0x1800), PrefetchSource::AccessTracker)));
    }

    #[test]
    fn random_probe_order_still_learns_stride() {
        // Challenge C2: eviction lines at 0x200 steps probed in random
        // order; DiffMin converges to 0x200.
        let mut t = at(4);
        let order = [7u64, 2, 11, 5, 3, 9, 1, 8];
        let mut decisions = Vec::new();
        for (i, k) in order.into_iter().enumerate() {
            decisions.push(probe(&mut t, 0x8008, 0x10_0000 + k * 0x200, i as u64));
        }
        let buf = t.buffer(decisions.last().unwrap().buffer.unwrap());
        assert_eq!(buf.diffmin(), Some(0x200));
        // Some probes have both neighbours already recorded (no prefetch),
        // but the randomized walk as a whole must prefetch eviction lines.
        let prefetched: Vec<_> = decisions.iter().filter_map(|d| d.prefetch).collect();
        assert!(!prefetched.is_empty());
        for (addr, _) in prefetched {
            assert_eq!((addr.raw() - 0x10_0000) % 0x200, 0, "on-pattern prefetch");
        }
    }

    #[test]
    fn repeated_block_touches_do_not_duplicate() {
        let mut t = at(4);
        probe(&mut t, 0x8008, 0x1000, 0);
        probe(&mut t, 0x8008, 0x1000, 1);
        let d = probe(&mut t, 0x8008, 0x1000, 2);
        assert!(t.buffer(d.buffer.unwrap()).blocks().eq([0x1000]));
    }

    #[test]
    fn entry_lru_eviction_when_full() {
        let mut t = at(1);
        // 8 entries fill; the 9th evicts the LRU (0x1000).
        for (i, k) in (0..9u64).enumerate() {
            probe(&mut t, 0x8008, 0x1000 + k * 0x100, i as u64);
        }
        let blocks = t.buffer(0).blocks();
        assert_eq!(blocks.len(), 8);
        assert!(!t.buffer(0).blocks().any(|b| b == 0x1000));
        assert!(t.buffer(0).blocks().any(|b| b == 0x1800));
    }

    #[test]
    fn buffer_lru_replacement_when_all_valid() {
        let mut t = at(2);
        probe(&mut t, 0x8000, 0x1000, 0);
        probe(&mut t, 0x8010, 0x2000, 1);
        probe(&mut t, 0x8000, 0x1100, 2); // touch 0x8000's buffer
                                          // A third PC steals the LRU buffer (0x8010's).
        probe(&mut t, 0x8020, 0x3000, 3);
        let pcs: Vec<u64> = (0..2).map(|i| t.buffer(i).inst_addr()).collect();
        assert!(pcs.contains(&0x8000) && pcs.contains(&0x8020));
    }

    #[test]
    fn protected_buffers_survive_lru_thrash() {
        // Challenge C3: noise PCs must not evict a protected buffer.
        let mut t = at(2);
        t.set_protection_params(&RpConfig::paper());
        // Attacker's load, protected via an rp hit.
        t.on_load(0x8008, Addr::new(0x1000), Cycle::new(0), Some((0x200, 0x1000)), &NOT_RESIDENT);
        assert_eq!(t.protected_count(), 1);
        // Noise: many distinct PCs.
        for (i, pc) in (0..8u64).map(|k| 0x9000 + k * 8).enumerate() {
            probe(&mut t, pc, 0x5000 + i as u64 * 0x40, 10 + i as u64);
        }
        // The protected buffer still belongs to 0x8008.
        assert!((0..2).any(|i| t.buffer(i).inst_addr() == 0x8008 && t.buffer(i).is_protected()));
    }

    #[test]
    fn all_buffers_protected_yields_no_decision() {
        let mut t = at(1);
        t.set_protection_params(&RpConfig::paper());
        t.on_load(0x8008, Addr::new(0x1000), Cycle::new(0), Some((0x200, 0x1000)), &NOT_RESIDENT);
        let d = probe(&mut t, 0x9000, 0x2000, 1);
        assert_eq!(d, AtDecision::NONE);
    }

    #[test]
    fn rp_hit_guides_prefetch_over_diffmin() {
        // Challenge C4: DiffMin corrupted to 0x100 by a noisy access, but
        // the hit scale 0x200 guides the prefetch.
        let mut t = at(4);
        t.set_protection_params(&RpConfig::paper());
        for (i, blk) in [0x8000u64, 0x8200, 0x8400, 0x8600].into_iter().enumerate() {
            t.on_load(
                0x8008,
                Addr::new(blk),
                Cycle::new(i as u64),
                Some((0x200, 0x8000)),
                &NOT_RESIDENT,
            );
        }
        // Noisy access to a non-eviction line corrupts DiffMin (no rp hit).
        let d = probe(&mut t, 0x8008, 0x8100, 4);
        let buf = t.buffer(d.buffer.unwrap());
        assert_eq!(buf.diffmin(), Some(0x100), "DiffMin was corrupted by the noise");
        // Next eviction-line access hits the protected scale and is guided
        // by 0x200, not 0x100.
        let d = t.on_load(
            0x8008,
            Addr::new(0x8800),
            Cycle::new(5),
            Some((0x200, 0x8000)),
            &NOT_RESIDENT,
        );
        assert_eq!(d.prefetch, Some((Addr::new(0x8A00), PrefetchSource::RecordProtector)));
    }

    #[test]
    fn protected_scale_applies_after_scale_buffer_eviction() {
        // Figure 7(b): the scale-buffer entry is gone (rp_hit = None) but
        // the buffer's own protected-scale registers still match.
        let mut t = at(4);
        t.set_protection_params(&RpConfig::paper());
        t.on_load(0x8008, Addr::new(0x2400), Cycle::new(0), Some((0x400, 0x1000)), &NOT_RESIDENT);
        let d = probe(&mut t, 0x8008, 0x2C00, 1); // (0x2C00-0x1000) % 0x400 == 0
        assert_eq!(d.prefetch, Some((Addr::new(0x3000), PrefetchSource::RecordProtector)));
    }

    #[test]
    fn guided_prefetch_count_unprotects() {
        let mut t = at(4);
        t.set_protection_params(&RpConfig { unprotect_prefetch_threshold: 2, ..RpConfig::paper() });
        t.on_load(0x8008, Addr::new(0x1000), Cycle::new(0), Some((0x200, 0x1000)), &NOT_RESIDENT);
        // Each access prefetches via the protected scale; after exceeding
        // the threshold the buffer unprotects.
        for k in 1..=3u64 {
            probe(&mut t, 0x8008, 0x1000 + k * 0x200, k);
        }
        assert_eq!(t.protected_count(), 0);
    }

    #[test]
    fn idle_timeout_unprotects() {
        let mut t = at(4);
        t.set_protection_params(&RpConfig { unprotect_idle_cycles: 100, ..RpConfig::paper() });
        t.on_load(0x8008, Addr::new(0x1000), Cycle::new(0), Some((0x200, 0x1000)), &NOT_RESIDENT);
        assert_eq!(t.protected_count(), 1);
        probe(&mut t, 0x9000, 0x2000, 500); // any access after the idle window
        assert_eq!(t.protected_count(), 0);
    }

    #[test]
    fn resident_candidate_skipped() {
        let mut t = at(4);
        for (i, blk) in [0x1000u64, 0x1200, 0x1400, 0x1600].into_iter().enumerate() {
            t.on_load(0x8008, Addr::new(blk), Cycle::new(i as u64), None, &NOT_RESIDENT);
        }
        // +diffmin (0x1A00) is resident; -diffmin (0x1600) is in the
        // buffer: no prefetch at all.
        let d = t.on_load(0x8008, Addr::new(0x1800), Cycle::new(4), None, &|a| a.raw() == 0x1A00);
        assert_eq!(d.prefetch, None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = at(2);
        probe(&mut t, 0x8008, 0x1000, 0);
        t.reset();
        assert_eq!(t.valid_count(), 0);
        assert_eq!(t.protected_count(), 0);
        // A buffer re-associates cleanly after the reset (the PC index
        // and free-slot counter restart together).
        let d = probe(&mut t, 0x8008, 0x2000, 1);
        assert_eq!(d.buffer, Some(0));
        assert!(t.buffer(0).blocks().eq([0x2000]));
    }

    #[test]
    fn obs_counters_track_lifecycle_events() {
        let mut t = at(2);
        t.set_protection_params(&RpConfig { unprotect_idle_cycles: 100, ..RpConfig::paper() });
        assert_eq!(t.alloc_counts(), (0, 0));

        // Two fresh associations, then a third PC steals the LRU buffer.
        probe(&mut t, 0x8000, 0x1000, 0);
        probe(&mut t, 0x8010, 0x2000, 1);
        assert_eq!(t.alloc_counts(), (2, 0));
        probe(&mut t, 0x8020, 0x3000, 2);
        assert_eq!(t.alloc_counts(), (3, 1));

        // Each distinct-block insert is one incremental DiffMin pass; no
        // buffer overflowed, so no rescans yet.
        let (incr, rescans) = t.diffmin_update_counts();
        assert_eq!((incr, rescans), (3, 0));

        // Protection grant via an rp hit, then idle expiry.
        t.on_load(0x8020, Addr::new(0x3200), Cycle::new(3), Some((0x200, 0x3000)), &NOT_RESIDENT);
        assert_eq!(t.protection_event_counts(), (1, 0));
        probe(&mut t, 0x8000, 0x1100, 500);
        assert_eq!(t.protection_event_counts(), (1, 1));

        t.reset();
        assert_eq!(t.alloc_counts(), (0, 0));
        assert_eq!(t.diffmin_update_counts(), (0, 0));
        assert_eq!(t.protection_event_counts(), (0, 0));
    }

    #[test]
    fn obs_counts_rescans_when_min_pair_evicted() {
        // One 8-entry buffer; 9 distinct blocks with the unique minimum
        // pair at the LRU end, so the 9th insert's eviction removes the
        // last minimum pair and forces the rescan.
        let mut t = at(1);
        let blocks = [0x1000u64, 0x1040, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000, 0x7000, 0x8000];
        for (i, blk) in blocks.into_iter().enumerate() {
            probe(&mut t, 0x8008, blk, i as u64);
        }
        let (_, rescans) = t.diffmin_update_counts();
        assert!(rescans >= 1, "evicting the sole min-pair member must rescan");
    }

    /// Brute-force DiffMin over a slice of blocks (the pre-incremental
    /// O(n²) rescan, reimplemented independently).
    fn rescan_diffmin(blocks: &[u64]) -> Option<u64> {
        let mut min = None;
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                let d = blocks[i].abs_diff(blocks[j]);
                if d != 0 {
                    min = Some(min.map_or(d, |m: u64| m.min(d)));
                }
            }
        }
        min
    }

    #[test]
    fn diffmin_incremental_matches_rescan() {
        // Random insert/evict sequences through a single 8-entry buffer:
        // after every load the incrementally maintained DiffMin must
        // equal the full pairwise rescan over the recorded blocks. Block
        // values repeat often (duplicate touches) and cluster (ties for
        // the minimum), and sequences run far past capacity so LRU
        // evictions — including evictions of min-pair participants —
        // happen continuously.
        let mut rng = prefender_stats::SplitMix64::new(0x1234_5678_9ABC_DEF0);
        for round in 0..64 {
            let mut t = at(1);
            // Narrow alphabets force duplicates and ties; wide ones
            // exercise the generic path.
            let span = [5, 9, 17, 64][round % 4];
            for k in 0..200u64 {
                let blk = 0x10_0000 + (rng.next_u64() % span) * 0x40;
                let d = probe(&mut t, 0x8008, blk, k);
                let buf = t.buffer(d.buffer.unwrap());
                assert_eq!(
                    buf.diffmin(),
                    rescan_diffmin(&buf.blocks().collect::<Vec<u64>>()),
                    "round {round}, step {k}: incremental DiffMin diverged from the rescan"
                );
            }
        }
    }
}
