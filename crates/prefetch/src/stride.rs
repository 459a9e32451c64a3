//! The Baer–Chen reference-prediction-table stride prefetcher —
//! paper references [16]/[40].

use prefender_sim::{Addr, PrefetchSource};

use crate::event::{AccessEvent, PrefetchRequest};
use crate::Prefetcher;

/// State of one reference-prediction-table entry (Baer–Chen, 1991).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrideState {
    /// Just allocated; stride unconfirmed.
    #[default]
    Initial,
    /// One misprediction from `Steady`.
    Transient,
    /// Stride confirmed; predictions issued in this state.
    Steady,
    /// Pattern looks irregular; no predictions.
    NoPrediction,
}

/// One entry of the reference prediction table.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrideEntry {
    /// PC tag of the owning load.
    pub pc: u64,
    /// Last address this load accessed.
    pub last_addr: u64,
    /// Current stride estimate (bytes, signed).
    pub stride: i64,
    /// Confidence state.
    pub state: StrideState,
    /// Entry holds data.
    pub valid: bool,
}

/// PC-indexed stride prefetcher.
///
/// A direct-mapped table of [`StrideEntry`]s keyed by load PC. The classic
/// state machine promotes an entry to `Steady` after the same stride is
/// observed twice, then prefetches `addr + stride`.
///
/// The attack relevance (paper challenge C2): an attacker probing its
/// eviction set *in random order* never trains a steady stride, so the
/// stride prefetcher is bypassed — which is why PREFENDER's Access Tracker
/// estimates `DiffMin` over a *set* of recorded block addresses instead.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    line_size: u64,
    degree: u32,
    issued: u64,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with `entries` table slots for caches
    /// with `line_size`-byte lines, prefetching `degree` strides ahead.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or not a power of two, if `line_size`
    /// is not a power of two, or if `degree` is zero.
    pub fn new(entries: usize, line_size: u64, degree: u32) -> Self {
        assert!(entries > 0 && entries.is_power_of_two(), "entries must be a power of two");
        assert!(line_size.is_power_of_two(), "line size must be a power of two");
        assert!(degree > 0, "degree must be positive");
        StridePrefetcher {
            table: vec![StrideEntry::default(); entries],
            line_size,
            degree,
            issued: 0,
        }
    }

    /// Paper-typical default: 256 entries, 64-byte lines, degree 1.
    pub fn default_config() -> Self {
        Self::new(256, 64, 1)
    }

    fn slot(&self, pc: u64) -> usize {
        ((pc / 4) % self.table.len() as u64) as usize
    }

    /// The table entry a PC maps to (test/debug helper).
    pub fn entry(&self, pc: u64) -> &StrideEntry {
        &self.table[self.slot(pc)]
    }

    /// Total prefetch requests this prefetcher has proposed.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Clears the reference prediction table and the issue counter.
    pub fn reset(&mut self) {
        self.table.fill(StrideEntry::default());
        self.issued = 0;
    }
}

impl Prefetcher for StridePrefetcher {
    fn on_access_into(
        &mut self,
        ev: &AccessEvent,
        resident: &dyn Fn(Addr) -> bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let slot = self.slot(ev.pc);
        let line_size = self.line_size;
        let degree = self.degree;
        let e = &mut self.table[slot];
        let addr = ev.vaddr.raw();

        if !e.valid || e.pc != ev.pc {
            *e = StrideEntry {
                pc: ev.pc,
                last_addr: addr,
                stride: 0,
                state: StrideState::Initial,
                valid: true,
            };
            return;
        }

        let observed = addr as i64 - e.last_addr as i64;
        let correct = observed == e.stride;
        e.state = match (e.state, correct) {
            (StrideState::Initial, true) => StrideState::Steady,
            (StrideState::Initial, false) => {
                e.stride = observed;
                StrideState::Transient
            }
            (StrideState::Transient, true) => StrideState::Steady,
            (StrideState::Transient, false) => {
                e.stride = observed;
                StrideState::NoPrediction
            }
            (StrideState::Steady, true) => StrideState::Steady,
            (StrideState::Steady, false) => StrideState::Initial,
            (StrideState::NoPrediction, true) => StrideState::Transient,
            (StrideState::NoPrediction, false) => {
                e.stride = observed;
                StrideState::NoPrediction
            }
        };
        e.last_addr = addr;

        let before = out.len();
        if e.state == StrideState::Steady && e.stride != 0 {
            let stride = e.stride;
            for k in 1..=degree as i64 {
                if let Some(target) = ev.vaddr.offset(k * stride) {
                    if !target.same_line(ev.vaddr, line_size) && !resident(target) {
                        out.push(PrefetchRequest::new(target, PrefetchSource::Basic));
                        prefender_obs::trace_event(|| prefender_obs::TraceEvent::PrefetchPropose {
                            at: u64::from(ev.now),
                            core: ev.core as u32,
                            pc: ev.pc,
                            line: target.line(line_size).raw(),
                        });
                    }
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

    fn drive(p: &mut StridePrefetcher, pc: u64, addrs: &[u64]) -> Vec<Vec<PrefetchRequest>> {
        addrs.iter().map(|&a| p.on_access(&test_access(pc, a, false), &|_| false)).collect()
    }

    #[test]
    fn steady_stride_trains_in_three_accesses() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        let out = drive(&mut p, 0x8000, &[0x1000, 0x1200, 0x1400]);
        assert!(out[0].is_empty(), "allocation");
        assert!(out[1].is_empty(), "stride learned, still transient");
        assert_eq!(out[2], vec![PrefetchRequest::new(Addr::new(0x1600), PrefetchSource::Basic)]);
        assert_eq!(p.entry(0x8000).state, StrideState::Steady);
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        let out = drive(&mut p, 0x8000, &[0x2000, 0x1E00, 0x1C00]);
        assert_eq!(out[2][0].addr, Addr::new(0x1A00));
    }

    #[test]
    fn random_order_never_trains() {
        // Challenge C2: random probe order bypasses the stride prefetcher.
        let mut p = StridePrefetcher::new(64, 64, 1);
        let out = drive(&mut p, 0x8000, &[0x1000, 0x5200, 0x2400, 0x9600, 0x3800, 0x1200]);
        assert!(out.iter().all(|r| r.is_empty()), "no steady state ever reached");
    }

    #[test]
    fn zero_stride_suppressed() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        let out = drive(&mut p, 0x8000, &[0x1000, 0x1000, 0x1000, 0x1000]);
        assert!(out.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn sub_line_stride_suppressed() {
        // A stride of 8 bytes stays within the same line; prefetching it
        // would be a duplicate of the demand line.
        let mut p = StridePrefetcher::new(64, 64, 1);
        let out = drive(&mut p, 0x8000, &[0x1000, 0x1008, 0x1010, 0x1018]);
        assert!(out.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn conflicting_pc_reallocates() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        drive(&mut p, 0x8000, &[0x1000, 0x1200, 0x1400]);
        // Same slot, different PC (slot = pc/4 % 64): pc + 64*4 collides.
        let other_pc = 0x8000 + 64 * 4;
        let out = drive(&mut p, other_pc, &[0x9000]);
        assert!(out[0].is_empty());
        assert_eq!(p.entry(other_pc).pc, other_pc);
        assert_eq!(p.entry(other_pc).state, StrideState::Initial);
    }

    #[test]
    fn steady_recovers_after_one_blip() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        let out = drive(
            &mut p,
            0x8000,
            &[0x1000, 0x1200, 0x1400, 0x9999, 0x1800, 0x1A00, 0x1C00, 0x1E00],
        );
        // The blip at 0x9999 demotes the entry; the re-established 0x200
        // stride walks back up through Transient to Steady.
        assert!(out[4].is_empty() && out[5].is_empty() && out[6].is_empty());
        assert_eq!(out[7][0].addr, Addr::new(0x2000));
    }

    #[test]
    fn resident_suppresses() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        drive(&mut p, 0x8000, &[0x1000, 0x1200]);
        let reqs = p.on_access(&test_access(0x8000, 0x1400, false), &|a| a.raw() == 0x1600);
        assert!(reqs.is_empty());
    }

    #[test]
    fn reset_clears_table() {
        let mut p = StridePrefetcher::new(64, 64, 1);
        drive(&mut p, 0x8000, &[0x1000, 0x1200, 0x1400]);
        p.reset();
        assert_eq!(p.issued(), 0);
        assert!(!p.entry(0x8000).valid);
    }
}
