//! Per-cache statistics and prefetch attribution.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Which mechanism issued a prefetch.
///
/// Used to attribute fills and to regenerate the paper's Figures 9 and 11,
/// which break prefetch counts down by Scale Tracker, Access Tracker and
/// Record Protector (AT prefetches *guided by* RP count as `RecordProtector`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PrefetchSource {
    /// PREFENDER's Scale Tracker (phase-2 defense).
    ScaleTracker,
    /// PREFENDER's Access Tracker using its own DiffMin estimate.
    AccessTracker,
    /// Access Tracker prefetch guided by the Record Protector's hit scale.
    RecordProtector,
    /// A conventional basic prefetcher (Tagged, Stride, ...).
    Basic,
    /// Anything else (tests, manual warm-up fills).
    Other,
}

impl fmt::Display for PrefetchSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrefetchSource::ScaleTracker => "ST",
            PrefetchSource::AccessTracker => "AT",
            PrefetchSource::RecordProtector => "RP",
            PrefetchSource::Basic => "basic",
            PrefetchSource::Other => "other",
        };
        f.write_str(s)
    }
}

/// Event counters kept by every [`Cache`](crate::Cache).
///
/// All counters are cumulative since construction (or the last
/// [`CacheStats::reset`]). `demand_miss_latency` accumulates the full
/// latency of every demand miss and regenerates the paper's Figure 10
/// (normalized total L1D miss latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Demand (CPU-issued) accesses, loads and stores.
    pub demand_accesses: u64,
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Total cycles spent by demand misses (Figure 10's quantity).
    pub demand_miss_latency: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
    /// Lines invalidated (flush or back-invalidation).
    pub invalidations: u64,
    /// Explicit `clflush`-style flushes that found the line present.
    pub flushes: u64,
    /// Dirty lines written back on eviction/flush.
    pub writebacks: u64,
    /// Lines installed by prefetches.
    pub prefetch_fills: u64,
    /// Demand accesses that hit a line installed by a prefetch (first use).
    pub prefetch_useful: u64,
    /// Demand accesses that hit an in-flight prefetch (late but still useful).
    pub prefetch_late: u64,
    /// Prefetched lines evicted or invalidated without ever being used.
    pub prefetch_unused: u64,
}

impl CacheStats {
    /// A zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Demand hit rate in `[0, 1]`; `None` when no accesses happened.
    pub fn hit_rate(&self) -> Option<f64> {
        if self.demand_accesses == 0 {
            None
        } else {
            Some(self.demand_hits as f64 / self.demand_accesses as f64)
        }
    }

    /// Prefetch accuracy: useful fills / total fills; `None` without fills.
    pub fn prefetch_accuracy(&self) -> Option<f64> {
        if self.prefetch_fills == 0 {
            None
        } else {
            Some((self.prefetch_useful + self.prefetch_late) as f64 / self.prefetch_fills as f64)
        }
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

impl Add for CacheStats {
    type Output = CacheStats;

    fn add(self, rhs: CacheStats) -> CacheStats {
        CacheStats {
            demand_accesses: self.demand_accesses + rhs.demand_accesses,
            demand_hits: self.demand_hits + rhs.demand_hits,
            demand_misses: self.demand_misses + rhs.demand_misses,
            demand_miss_latency: self.demand_miss_latency + rhs.demand_miss_latency,
            evictions: self.evictions + rhs.evictions,
            invalidations: self.invalidations + rhs.invalidations,
            flushes: self.flushes + rhs.flushes,
            writebacks: self.writebacks + rhs.writebacks,
            prefetch_fills: self.prefetch_fills + rhs.prefetch_fills,
            prefetch_useful: self.prefetch_useful + rhs.prefetch_useful,
            prefetch_late: self.prefetch_late + rhs.prefetch_late,
            prefetch_unused: self.prefetch_unused + rhs.prefetch_unused,
        }
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        *self = *self + rhs;
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "accesses={} hits={} misses={} miss_lat={} pf_fills={} pf_useful={}",
            self.demand_accesses,
            self.demand_hits,
            self.demand_misses,
            self.demand_miss_latency,
            self.prefetch_fills,
            self.prefetch_useful
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_empty() {
        let s = CacheStats::new();
        assert_eq!(s.hit_rate(), None);
        assert_eq!(s.prefetch_accuracy(), None);
    }

    #[test]
    fn rates_computed() {
        let s = CacheStats {
            demand_accesses: 10,
            demand_hits: 7,
            demand_misses: 3,
            prefetch_fills: 4,
            prefetch_useful: 1,
            prefetch_late: 1,
            ..CacheStats::default()
        };
        assert!((s.hit_rate().unwrap() - 0.7).abs() < 1e-12);
        assert!((s.prefetch_accuracy().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn add_is_fieldwise() {
        let a = CacheStats { demand_accesses: 1, demand_hits: 1, ..CacheStats::default() };
        let b = CacheStats { demand_accesses: 2, demand_misses: 2, ..CacheStats::default() };
        let c = a + b;
        assert_eq!(c.demand_accesses, 3);
        assert_eq!(c.demand_hits, 1);
        assert_eq!(c.demand_misses, 2);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = CacheStats { demand_accesses: 5, ..CacheStats::default() };
        s.reset();
        assert_eq!(s, CacheStats::default());
    }

    #[test]
    fn source_display() {
        assert_eq!(PrefetchSource::ScaleTracker.to_string(), "ST");
        assert_eq!(PrefetchSource::AccessTracker.to_string(), "AT");
        assert_eq!(PrefetchSource::RecordProtector.to_string(), "RP");
        assert_eq!(PrefetchSource::Basic.to_string(), "basic");
    }

    #[test]
    fn display_nonempty() {
        assert!(!CacheStats::new().to_string().is_empty());
    }
}
