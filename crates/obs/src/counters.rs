//! The cross-layer counter block harvested from a machine after a run.

use crate::snapshot::Value;

/// Event counters accumulated by one simulation (or merged over many).
///
/// Every field is a plain `u64` kept always-on by its owning layer — the
/// cache hierarchy, the CPU retire loop, the PREFENDER defense units and
/// the attack runner all bump ordinary struct fields; this type only
/// *collects* them after a run. A scenario's counter block is a pure
/// function of the scenario (machine resets are bit-identical to fresh
/// builds), so merging per-scenario blocks in any order yields the same
/// campaign totals: every field merges by summation except
/// [`mshr_high_water`](ObsCounters::mshr_high_water), which merges by
/// `max` — both order-independent, which is what lets tests assert
/// 1-vs-8-thread equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsCounters {
    /// Demand accesses that hit, summed over the L1Ds and the L2 (the
    /// L1I's instruction fetches are not counted).
    pub cache_demand_hits: u64,
    /// Demand accesses that missed, summed over the L1Ds and the L2.
    pub cache_demand_misses: u64,
    /// Lines evicted by fills, summed over the L1Ds and the L2.
    pub cache_evictions: u64,
    /// Prefetch requests proposed, summed over every core's prefetcher
    /// (all units + basic) — including the ones the memory system then
    /// declined, which [`prefetch_dropped`](ObsCounters::prefetch_dropped)
    /// counts.
    pub prefetch_issued: u64,
    /// Proposed prefetch requests the memory system declined because the
    /// line was already present or in flight.
    pub prefetch_dropped: u64,
    /// Demand accesses that hit an in-flight prefetch (late but useful).
    pub prefetch_late: u64,
    /// Prefetched lines evicted or invalidated without ever being used.
    pub prefetch_expired: u64,
    /// Peak simultaneous MSHR occupancy (merges by `max`, not `+`).
    pub mshr_high_water: u64,
    /// Record Protector protections granted (unprotected buffer hit a
    /// recorded pattern).
    pub rp_protections_granted: u64,
    /// Protections dropped again — guided-prefetch budget exhausted or
    /// idle expiry.
    pub rp_protections_expired: u64,
    /// Access Tracker buffer allocations (every PC (re)association).
    pub at_buffer_allocs: u64,
    /// Allocations that evicted a live buffer to make room.
    pub at_buffer_evictions: u64,
    /// DiffMin updates served by the incremental O(n) pass.
    pub diffmin_incremental: u64,
    /// DiffMin updates that fell back to the full O(n²) rescan.
    pub diffmin_rescans: u64,
    /// Retire fast-path dispatches (consecutive-`nop` runs retired as one
    /// batch).
    pub retire_fast_dispatches: u64,
    /// Instructions retired through the fast path.
    pub retire_fast_nops: u64,
    /// Shard leases claimed (multi-process campaigns; O_EXCL creates
    /// that succeeded).
    pub lease_claims: u64,
    /// Lease heartbeats renewed while executing a claimed shard.
    pub lease_renewals: u64,
    /// Stale leases broken (heartbeat older than the TTL — the holder is
    /// presumed dead).
    pub lease_breaks: u64,
    /// Shards re-executed after their lease was broken or their partial
    /// state discarded — work reclaimed from a dead worker.
    pub lease_reclaims: u64,
    /// Committed-but-invalid shard files moved to `quarantine/` before
    /// re-execution (torn writes, corruption, foreign campaigns).
    pub shard_quarantines: u64,
}

impl ObsCounters {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another block into this one: field-wise sum, except the
    /// high-water mark which merges by `max`.
    pub fn merge(&mut self, rhs: &ObsCounters) {
        self.cache_demand_hits += rhs.cache_demand_hits;
        self.cache_demand_misses += rhs.cache_demand_misses;
        self.cache_evictions += rhs.cache_evictions;
        self.prefetch_issued += rhs.prefetch_issued;
        self.prefetch_dropped += rhs.prefetch_dropped;
        self.prefetch_late += rhs.prefetch_late;
        self.prefetch_expired += rhs.prefetch_expired;
        self.mshr_high_water = self.mshr_high_water.max(rhs.mshr_high_water);
        self.rp_protections_granted += rhs.rp_protections_granted;
        self.rp_protections_expired += rhs.rp_protections_expired;
        self.at_buffer_allocs += rhs.at_buffer_allocs;
        self.at_buffer_evictions += rhs.at_buffer_evictions;
        self.diffmin_incremental += rhs.diffmin_incremental;
        self.diffmin_rescans += rhs.diffmin_rescans;
        self.retire_fast_dispatches += rhs.retire_fast_dispatches;
        self.retire_fast_nops += rhs.retire_fast_nops;
        self.lease_claims += rhs.lease_claims;
        self.lease_renewals += rhs.lease_renewals;
        self.lease_breaks += rhs.lease_breaks;
        self.lease_reclaims += rhs.lease_reclaims;
        self.shard_quarantines += rhs.shard_quarantines;
    }

    /// Returns the block and leaves `self` zeroed.
    pub fn take(&mut self) -> ObsCounters {
        std::mem::take(self)
    }

    /// The block as an ordered JSON object (field declaration order).
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("cache_demand_hits".into(), Value::U64(self.cache_demand_hits)),
            ("cache_demand_misses".into(), Value::U64(self.cache_demand_misses)),
            ("cache_evictions".into(), Value::U64(self.cache_evictions)),
            ("prefetch_issued".into(), Value::U64(self.prefetch_issued)),
            ("prefetch_dropped".into(), Value::U64(self.prefetch_dropped)),
            ("prefetch_late".into(), Value::U64(self.prefetch_late)),
            ("prefetch_expired".into(), Value::U64(self.prefetch_expired)),
            ("mshr_high_water".into(), Value::U64(self.mshr_high_water)),
            ("rp_protections_granted".into(), Value::U64(self.rp_protections_granted)),
            ("rp_protections_expired".into(), Value::U64(self.rp_protections_expired)),
            ("at_buffer_allocs".into(), Value::U64(self.at_buffer_allocs)),
            ("at_buffer_evictions".into(), Value::U64(self.at_buffer_evictions)),
            ("diffmin_incremental".into(), Value::U64(self.diffmin_incremental)),
            ("diffmin_rescans".into(), Value::U64(self.diffmin_rescans)),
            ("retire_fast_dispatches".into(), Value::U64(self.retire_fast_dispatches)),
            ("retire_fast_nops".into(), Value::U64(self.retire_fast_nops)),
            ("lease_claims".into(), Value::U64(self.lease_claims)),
            ("lease_renewals".into(), Value::U64(self.lease_renewals)),
            ("lease_breaks".into(), Value::U64(self.lease_breaks)),
            ("lease_reclaims".into(), Value::U64(self.lease_reclaims)),
            ("shard_quarantines".into(), Value::U64(self.shard_quarantines)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> ObsCounters {
        ObsCounters {
            cache_demand_hits: k,
            cache_demand_misses: 2 * k,
            cache_evictions: 3 * k,
            prefetch_issued: 4 * k,
            prefetch_dropped: 5 * k,
            prefetch_late: 6 * k,
            prefetch_expired: 7 * k,
            mshr_high_water: 8 * k,
            rp_protections_granted: 9 * k,
            rp_protections_expired: 10 * k,
            at_buffer_allocs: 11 * k,
            at_buffer_evictions: 12 * k,
            diffmin_incremental: 13 * k,
            diffmin_rescans: 14 * k,
            retire_fast_dispatches: 15 * k,
            retire_fast_nops: 16 * k,
            lease_claims: 17 * k,
            lease_renewals: 18 * k,
            lease_breaks: 19 * k,
            lease_reclaims: 20 * k,
            shard_quarantines: 21 * k,
        }
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = sample(1);
        a.merge(&sample(2));
        assert_eq!(a.cache_demand_hits, 3);
        assert_eq!(a.retire_fast_nops, 48);
        assert_eq!(a.lease_breaks, 57);
        assert_eq!(a.shard_quarantines, 63);
        // High water merges by max, not sum.
        assert_eq!(a.mshr_high_water, 16);
    }

    #[test]
    fn merge_is_order_independent() {
        let blocks = [sample(3), sample(1), sample(7), sample(2)];
        let mut fwd = ObsCounters::new();
        for b in &blocks {
            fwd.merge(b);
        }
        let mut rev = ObsCounters::new();
        for b in blocks.iter().rev() {
            rev.merge(b);
        }
        assert_eq!(fwd, rev);
    }

    #[test]
    fn take_leaves_zero() {
        let mut a = sample(5);
        let t = a.take();
        assert_eq!(t, sample(5));
        assert_eq!(a, ObsCounters::new());
    }

    #[test]
    fn to_value_has_every_field() {
        let v = sample(1).to_value();
        let json = v.to_json(0);
        for key in [
            "cache_demand_hits",
            "mshr_high_water",
            "diffmin_rescans",
            "retire_fast_nops",
            "rp_protections_granted",
            "lease_claims",
            "lease_renewals",
            "lease_breaks",
            "lease_reclaims",
            "shard_quarantines",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
