//! Miss-status handling registers (MSHRs).
//!
//! The paper's baseline has "4 miss-status handling registers, each of which
//! can merge at most 20 requests to the same line". The MSHR file sits at
//! the L2/memory boundary: every memory-bound request (demand miss or
//! prefetch) allocates or merges into an entry; when the file is full the
//! request stalls until the earliest outstanding entry completes.

use prefender_obs::{trace_event, TraceEvent};

use crate::time::Cycle;

/// How a memory-bound request interacted with the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A fresh entry was allocated; data arrives at `ready_at`.
    Allocated {
        /// Completion time of the memory access.
        ready_at: Cycle,
    },
    /// The request merged into an outstanding entry for the same line and
    /// completes when that entry does.
    Merged {
        /// Completion time of the outstanding access.
        ready_at: Cycle,
    },
    /// The file was full (or the merge limit was reached); the request
    /// waited until `stalled_until` for a slot, then issued.
    Stalled {
        /// When a slot became free.
        stalled_until: Cycle,
        /// Completion time of the (delayed) memory access.
        ready_at: Cycle,
    },
}

impl MshrOutcome {
    /// Completion time regardless of how the request was handled.
    pub fn ready_at(self) -> Cycle {
        match self {
            MshrOutcome::Allocated { ready_at }
            | MshrOutcome::Merged { ready_at }
            | MshrOutcome::Stalled { ready_at, .. } => ready_at,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    ready_at: Cycle,
    merged: u32,
}

/// A bounded file of outstanding memory requests.
///
/// # Examples
///
/// ```
/// use prefender_sim::{MshrFile, MshrOutcome, Cycle};
///
/// let mut m = MshrFile::new(4, 20);
/// let a = m.request(0x1000, Cycle::ZERO, 200);
/// assert!(matches!(a, MshrOutcome::Allocated { .. }));
/// // A second request to the same line merges.
/// let b = m.request(0x1000, Cycle::new(10), 200);
/// assert!(matches!(b, MshrOutcome::Merged { .. }));
/// assert_eq!(a.ready_at(), b.ready_at());
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<Entry>,
    capacity: usize,
    merge_limit: u32,
    stalls: u64,
    merges: u64,
    high_water: usize,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries each merging at most
    /// `merge_limit` requests (the paper: 4 and 20).
    pub fn new(capacity: usize, merge_limit: u32) -> Self {
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            merge_limit,
            stalls: 0,
            merges: 0,
            high_water: 0,
        }
    }

    /// Drops every outstanding entry and zeroes the counters, returning
    /// the file to its just-constructed state (capacity is kept).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.stalls = 0;
        self.merges = 0;
        self.high_water = 0;
    }

    /// Number of entries still outstanding at `now`.
    pub fn occupancy(&self, now: Cycle) -> usize {
        self.entries.iter().filter(|e| e.ready_at > now).count()
    }

    /// Total requests that had to stall for a free entry.
    pub fn stall_count(&self) -> u64 {
        self.stalls
    }

    /// Total requests merged into outstanding entries.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Peak simultaneous entry count since construction or
    /// [`MshrFile::reset`]. Retired entries are pruned lazily on the next
    /// [`request`](MshrFile::request), so this is the high-water mark of
    /// *allocated slots*, the quantity capacity planning cares about.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Issues a memory request for `line` at time `now` taking
    /// `service_latency` cycles, modelling allocation, merging and
    /// full-file stalls.
    pub fn request(&mut self, line: u64, now: Cycle, service_latency: u64) -> MshrOutcome {
        self.entries.retain(|e| {
            let live = e.ready_at > now;
            if !live {
                trace_event(|| TraceEvent::MshrRelease { at: u64::from(now), line: e.line });
            }
            live
        });
        if let Some(e) = self.entries.iter_mut().find(|e| e.line == line) {
            if e.merged < self.merge_limit {
                e.merged += 1;
                self.merges += 1;
                return MshrOutcome::Merged { ready_at: e.ready_at };
            }
            // Merge limit reached: fall through and behave like a fresh
            // request needing its own slot.
        }
        if self.entries.len() < self.capacity {
            let ready_at = now + service_latency;
            self.entries.push(Entry { line, ready_at, merged: 1 });
            self.high_water = self.high_water.max(self.entries.len());
            trace_event(|| TraceEvent::MshrAlloc { at: u64::from(now), line });
            return MshrOutcome::Allocated { ready_at };
        }
        // Full: wait for the earliest entry to retire.
        let (idx, stalled_until) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.ready_at)
            .map(|(i, e)| (i, e.ready_at))
            .expect("file is full, so nonempty");
        trace_event(|| TraceEvent::MshrRelease {
            at: u64::from(stalled_until),
            line: self.entries[idx].line,
        });
        self.entries.swap_remove(idx);
        self.stalls += 1;
        let ready_at = stalled_until + service_latency;
        self.entries.push(Entry { line, ready_at, merged: 1 });
        self.high_water = self.high_water.max(self.entries.len());
        trace_event(|| TraceEvent::MshrAlloc { at: u64::from(stalled_until), line });
        MshrOutcome::Stalled { stalled_until, ready_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_and_completion_time() {
        let mut m = MshrFile::new(4, 20);
        match m.request(0x40, Cycle::new(10), 200) {
            MshrOutcome::Allocated { ready_at } => assert_eq!(ready_at, Cycle::new(210)),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.occupancy(Cycle::new(10)), 1);
        assert_eq!(m.occupancy(Cycle::new(210)), 0);
    }

    #[test]
    fn same_line_merges_up_to_limit() {
        let mut m = MshrFile::new(4, 3);
        let first = m.request(0x40, Cycle::ZERO, 100);
        // merged counter starts at 1 (the allocating request), so 2 merges fit.
        assert!(matches!(m.request(0x40, Cycle::new(1), 100), MshrOutcome::Merged { .. }));
        assert!(matches!(m.request(0x40, Cycle::new(2), 100), MshrOutcome::Merged { .. }));
        // Limit reached: next one allocates a second entry.
        assert!(matches!(m.request(0x40, Cycle::new(3), 100), MshrOutcome::Allocated { .. }));
        assert_eq!(m.merge_count(), 2);
        assert_eq!(first.ready_at(), Cycle::new(100));
    }

    #[test]
    fn full_file_stalls() {
        let mut m = MshrFile::new(2, 20);
        m.request(0x40, Cycle::ZERO, 100);
        m.request(0x80, Cycle::new(5), 100);
        match m.request(0xC0, Cycle::new(10), 100) {
            MshrOutcome::Stalled { stalled_until, ready_at } => {
                assert_eq!(stalled_until, Cycle::new(100), "earliest entry frees at 100");
                assert_eq!(ready_at, Cycle::new(200));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stall_count(), 1);
    }

    #[test]
    fn high_water_tracks_peak_and_resets() {
        let mut m = MshrFile::new(4, 20);
        assert_eq!(m.high_water(), 0);
        m.request(0x40, Cycle::ZERO, 100);
        m.request(0x80, Cycle::new(1), 100);
        m.request(0xC0, Cycle::new(2), 100);
        assert_eq!(m.high_water(), 3);
        // Everything retires; a single fresh request does not lower the peak.
        m.request(0x100, Cycle::new(500), 100);
        assert_eq!(m.high_water(), 3);
        m.reset();
        assert_eq!(m.high_water(), 0);
    }

    #[test]
    fn retired_entries_free_slots() {
        let mut m = MshrFile::new(1, 20);
        m.request(0x40, Cycle::ZERO, 100);
        // At t=150 the entry has retired; no stall.
        assert!(matches!(m.request(0x80, Cycle::new(150), 100), MshrOutcome::Allocated { .. }));
        assert_eq!(m.stall_count(), 0);
    }

    #[test]
    fn merge_after_retirement_allocates_fresh() {
        let mut m = MshrFile::new(2, 20);
        m.request(0x40, Cycle::ZERO, 100);
        match m.request(0x40, Cycle::new(200), 100) {
            MshrOutcome::Allocated { ready_at } => assert_eq!(ready_at, Cycle::new(300)),
            other => panic!("{other:?}"),
        }
    }
}
