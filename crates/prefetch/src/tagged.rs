//! The Tagged sequential prefetcher (Smith, 1978) — paper reference [15].

use prefender_sim::{Addr, PrefetchSource};

use crate::event::{AccessEvent, PrefetchRequest};
use crate::Prefetcher;

/// Tagged next-line prefetcher.
///
/// On a demand miss, or on the *first use* of a line that was brought in by
/// a prefetch (the "tag bit" event, reported by the hierarchy through
/// [`AccessOutcome::first_prefetch_use`]), prefetch the next `degree`
/// sequential lines.
///
/// [`AccessOutcome::first_prefetch_use`]: prefender_sim::AccessOutcome
#[derive(Debug, Clone)]
pub struct TaggedPrefetcher {
    line_size: u64,
    degree: u32,
    issued: u64,
}

impl TaggedPrefetcher {
    /// Creates a tagged prefetcher for caches with `line_size`-byte lines,
    /// prefetching `degree` sequential lines per trigger.
    ///
    /// # Panics
    ///
    /// Panics if `line_size` is not a power of two or `degree` is zero.
    pub fn new(line_size: u64, degree: u32) -> Self {
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        assert!(degree > 0, "degree must be positive");
        TaggedPrefetcher { line_size, degree, issued: 0 }
    }

    /// The configured prefetch degree.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Total prefetch requests this prefetcher has proposed.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Clears the issue counter (the prefetcher keeps no other state).
    pub fn reset(&mut self) {
        self.issued = 0;
    }
}

impl Prefetcher for TaggedPrefetcher {
    fn on_access_into(
        &mut self,
        ev: &AccessEvent,
        resident: &dyn Fn(Addr) -> bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let trigger = ev.l1_miss() || ev.outcome.first_prefetch_use;
        if !trigger {
            return;
        }
        let before = out.len();
        let line = ev.vaddr.line(self.line_size);
        for k in 1..=self.degree as i64 {
            if let Some(next) = line.offset(k * self.line_size as i64) {
                if !resident(next) {
                    out.push(PrefetchRequest::new(next, PrefetchSource::Basic));
                    prefender_obs::trace_event(|| prefender_obs::TraceEvent::PrefetchPropose {
                        at: u64::from(ev.now),
                        core: ev.core as u32,
                        pc: ev.pc,
                        line: next.raw(),
                    });
                }
            }
        }
        self.issued += (out.len() - before) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::test_access;
    use prefender_sim::Level;

    #[test]
    fn miss_triggers_next_line() {
        let mut t = TaggedPrefetcher::new(64, 1);
        let reqs = t.on_access(&test_access(0x8000, 0x1010, false), &|_| false);
        assert_eq!(reqs, vec![PrefetchRequest::new(Addr::new(0x1040), PrefetchSource::Basic)]);
        assert_eq!(t.issued(), 1);
    }

    #[test]
    fn plain_hit_does_not_trigger() {
        let mut t = TaggedPrefetcher::new(64, 1);
        assert!(t.on_access(&test_access(0x8000, 0x1000, true), &|_| false).is_empty());
    }

    #[test]
    fn first_prefetch_use_chains() {
        let mut t = TaggedPrefetcher::new(64, 1);
        let mut ev = test_access(0x8000, 0x1040, true);
        ev.outcome.first_prefetch_use = true;
        ev.outcome.served_by = Level::L1;
        let reqs = t.on_access(&ev, &|_| false);
        assert_eq!(reqs[0].addr, Addr::new(0x1080));
    }

    #[test]
    fn resident_lines_skipped() {
        let mut t = TaggedPrefetcher::new(64, 2);
        let reqs = t.on_access(&test_access(0x8000, 0x1000, false), &|a| a.raw() == 0x1040);
        assert_eq!(reqs, vec![PrefetchRequest::new(Addr::new(0x1080), PrefetchSource::Basic)]);
    }

    #[test]
    fn degree_controls_count() {
        let mut t = TaggedPrefetcher::new(64, 4);
        let reqs = t.on_access(&test_access(0x8000, 0x1000, false), &|_| false);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[3].addr, Addr::new(0x1100));
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_rejected() {
        let _ = TaggedPrefetcher::new(64, 0);
    }

    #[test]
    fn reset_clears_counter() {
        let mut t = TaggedPrefetcher::new(64, 1);
        t.on_access(&test_access(0x8000, 0x1000, false), &|_| false);
        t.reset();
        assert_eq!(t.issued(), 0);
    }
}
