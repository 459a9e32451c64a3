//! The composed PREFENDER prefetcher.

use prefender_isa::Instr;
use prefender_prefetch::{AccessEvent, BasicPrefetcher, PrefetchRequest, Prefetcher, RetireEvent};
use prefender_sim::{AccessKind, Addr, PrefetchSource};

use crate::access_tracker::AccessTracker;
use crate::config::{AtConfig, PrefenderConfig, RpConfig, StConfig};
use crate::record_protector::RecordProtector;
use crate::scale_tracker::ScaleTracker;
use crate::stats::PrefenderStats;

/// The PREFENDER secure prefetcher: Scale Tracker + Access Tracker +
/// Record Protector, each optional, over an optional lower-priority basic
/// prefetcher. With every unit off it proposes exactly what its basic
/// prefetcher proposes: that is how a core runs a basic prefetcher alone.
///
/// Attach one instance per core (per L1D) via
/// [`Machine::set_prefetcher`](https://docs.rs/prefender-cpu); the machine
/// feeds it retire and access events and issues its requests.
///
/// # Examples
///
/// ```
/// use prefender_core::{BasicPrefetcher, Prefender};
/// use prefender_prefetch::StridePrefetcher;
///
/// // The paper's Table V column 10 configuration:
/// // full PREFENDER with a Stride basic prefetcher, 32 access buffers.
/// let p = Prefender::builder(64, 4096)
///     .access_buffers(32)
///     .basic(BasicPrefetcher::Stride(StridePrefetcher::default_config()))
///     .build();
/// assert!(p.scale_tracker().is_some() && p.record_protector().is_some());
/// assert_eq!(p.issued(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Prefender {
    st: Option<ScaleTracker>,
    at: Option<AccessTracker>,
    rp: Option<RecordProtector>,
    basic: Option<BasicPrefetcher>,
    stats: PrefenderStats,
    line_size: u64,
    /// When false, the Scale Tracker still tracks dataflow and feeds the
    /// Record Protector's scale buffer, but issues no prefetches of its
    /// own — the paper's "PREFENDER-AT+RP" configuration.
    st_prefetching: bool,
}

impl Prefender {
    /// Starts a builder with everything enabled at paper defaults for the
    /// given cacheline and page sizes.
    pub fn builder(line_size: u64, page_size: u64) -> PrefenderBuilder {
        PrefenderBuilder::new(line_size, page_size)
    }

    /// Builds directly from a [`PrefenderConfig`].
    pub fn from_config(cfg: PrefenderConfig) -> Self {
        let line_size = cfg.st.map(|s| s.line_size).or(cfg.at.map(|a| a.line_size)).unwrap_or(64);
        let mut at = cfg.at.map(AccessTracker::new);
        if let (Some(at), Some(rp)) = (at.as_mut(), cfg.rp.as_ref()) {
            at.set_protection_params(rp);
        }
        Prefender {
            st: cfg.st.map(ScaleTracker::new),
            at,
            rp: cfg.rp.map(RecordProtector::new),
            basic: None,
            stats: PrefenderStats::new(),
            line_size,
            st_prefetching: true,
        }
    }

    /// Per-unit prefetch counters.
    pub fn stats(&self) -> PrefenderStats {
        self.stats
    }

    /// The Scale Tracker, when enabled.
    pub fn scale_tracker(&self) -> Option<&ScaleTracker> {
        self.st.as_ref()
    }

    /// The Access Tracker, when enabled.
    pub fn access_tracker(&self) -> Option<&AccessTracker> {
        self.at.as_ref()
    }

    /// The Record Protector, when enabled.
    pub fn record_protector(&self) -> Option<&RecordProtector> {
        self.rp.as_ref()
    }

    /// The basic prefetcher, when attached.
    pub fn basic(&self) -> Option<&BasicPrefetcher> {
        self.basic.as_ref()
    }

    /// Number of currently protected access buffers (Figure 12's series).
    pub fn protected_count(&self) -> usize {
        self.at.as_ref().map_or(0, |at| at.protected_count())
    }

    /// Total prefetch requests proposed: every unit's and the basic
    /// prefetcher's.
    pub fn issued(&self) -> u64 {
        self.stats.total() + self.basic.as_ref().map_or(0, BasicPrefetcher::issued)
    }

    /// Observes `k` back-to-back retires of `body`, a counted loop's
    /// `nop`s and `add`/`sub rX, rX, imm` self-updates: the state `k`
    /// rounds of [`Prefetcher::on_retire`] over it leave, computed in one
    /// pass. Only the Scale Tracker observes retires
    /// ([`ScaleTracker::on_retire_repeated`]).
    ///
    /// # Panics
    ///
    /// Panics if `body` holds any other instruction and the Scale Tracker
    /// is on.
    pub fn on_retire_repeated(&mut self, body: &[Instr], k: u64) {
        if let Some(st) = self.st.as_mut() {
            st.on_retire_repeated(body, k);
        }
    }

    /// Clears every unit's learned state, the basic prefetcher's and the
    /// counters; the configuration is kept.
    pub fn reset(&mut self) {
        if let Some(st) = self.st.as_mut() {
            st.reset();
        }
        if let Some(at) = self.at.as_mut() {
            at.reset();
        }
        if let Some(rp) = self.rp.as_mut() {
            rp.reset();
        }
        if let Some(b) = self.basic.as_mut() {
            b.reset();
        }
        self.stats.reset();
    }
}

impl Prefetcher for Prefender {
    /// Only the Scale Tracker observes retires (its Table III rules fire
    /// for register writers only); neither basic prefetcher does.
    #[inline(always)]
    fn on_retire(&mut self, ev: &RetireEvent<'_>) {
        if let Some(st) = self.st.as_mut() {
            st.on_retire(ev.instr);
        }
    }

    fn on_access_into(
        &mut self,
        ev: &AccessEvent,
        resident: &dyn Fn(Addr) -> bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        // ST, AT and RP watch loads only (the paper applies them to "all
        // the load instructions"); the basic prefetcher sees everything.
        if ev.kind == AccessKind::Read {
            let blk = ev.vaddr.line(self.line_size);

            // --- Scale Tracker: phase-2 defense (higher priority) ---
            // The scale is looked up once; prefetch candidates derive
            // from it directly (no second register lookup, no Vec).
            let mut st_scale = None;
            if let (Some(st), Some(base)) = (self.st.as_ref(), ev.base) {
                if let Some(sc) = st.usable_scale(base) {
                    st_scale = Some(sc);
                    if self.st_prefetching {
                        for cand in st.candidates_at(sc, ev.vaddr) {
                            if !resident(cand) {
                                out.push(PrefetchRequest::new(cand, PrefetchSource::ScaleTracker));
                                self.stats.st_prefetches += 1;
                            }
                        }
                    }
                }
            }

            // --- Record Protector stage 1: scale recording ---
            if let (Some(rp), Some(sc)) = (self.rp.as_mut(), st_scale) {
                rp.record(sc, blk.raw(), ev.now);
            }

            // --- Record Protector stage 2: does this access hit a pattern? ---
            let rp_hit = self.rp.as_mut().and_then(|rp| rp.hit(blk.raw()));

            // --- Access Tracker (+ RP stage 3): phase-3 defense ---
            if let Some(at) = self.at.as_mut() {
                let decision = at.on_load(ev.pc, blk, ev.now, rp_hit, resident);
                if let Some((addr, source)) = decision.prefetch {
                    out.push(PrefetchRequest::new(addr, source));
                    match source {
                        PrefetchSource::AccessTracker => self.stats.at_prefetches += 1,
                        PrefetchSource::RecordProtector => self.stats.rp_prefetches += 1,
                        _ => {}
                    }
                }
            }
        }

        // --- Basic prefetcher: lower priority, appended last ---
        if let Some(b) = self.basic.as_mut() {
            b.on_access_into(ev, resident, out);
        }
    }
}

/// Builder for [`Prefender`] — pick units, sizes and a basic prefetcher.
#[derive(Debug, Clone)]
pub struct PrefenderBuilder {
    st: Option<StConfig>,
    at: Option<AtConfig>,
    rp: Option<RpConfig>,
    basic: Option<BasicPrefetcher>,
    st_prefetching: bool,
}

impl PrefenderBuilder {
    /// All units enabled at paper defaults for the given geometry.
    pub fn new(line_size: u64, page_size: u64) -> Self {
        PrefenderBuilder {
            st: Some(StConfig { line_size, page_size }),
            at: Some(AtConfig { line_size, ..AtConfig::paper() }),
            rp: Some(RpConfig::paper()),
            basic: None,
            st_prefetching: true,
        }
    }

    /// Enables or disables the Scale Tracker.
    #[must_use]
    pub fn scale_tracker(mut self, enabled: bool) -> Self {
        if !enabled {
            self.st = None;
        }
        self
    }

    /// Enables or disables the Access Tracker.
    #[must_use]
    pub fn access_tracker(mut self, enabled: bool) -> Self {
        if !enabled {
            self.at = None;
        }
        self
    }

    /// Sets the access-buffer count (Tables IV/V sweep 16/32/64).
    ///
    /// # Panics
    ///
    /// Panics if the Access Tracker was disabled.
    #[must_use]
    pub fn access_buffers(mut self, n: usize) -> Self {
        let at = self.at.as_mut().expect("access tracker is disabled");
        at.n_buffers = n;
        self
    }

    /// Replaces the whole Access Tracker configuration.
    #[must_use]
    pub fn at_config(mut self, cfg: AtConfig) -> Self {
        self.at = Some(cfg);
        self
    }

    /// Enables or disables the Record Protector.
    #[must_use]
    pub fn record_protector(mut self, enabled: bool) -> Self {
        if !enabled {
            self.rp = None;
        }
        self
    }

    /// Replaces the Record Protector configuration.
    #[must_use]
    pub fn rp_config(mut self, cfg: RpConfig) -> Self {
        self.rp = Some(cfg);
        self
    }

    /// Keeps the Scale Tracker's dataflow tracking and Record Protector
    /// feed but suppresses its prefetches — the paper's "AT+RP"
    /// configuration (RP is *defined* as linking ST and AT, so its scale
    /// buffer still needs the ST's recordings).
    #[must_use]
    pub fn scale_tracker_prefetching(mut self, enabled: bool) -> Self {
        self.st_prefetching = enabled;
        self
    }

    /// Attaches a basic prefetcher at lower priority.
    #[must_use]
    pub fn basic(mut self, p: BasicPrefetcher) -> Self {
        self.basic = Some(p);
        self
    }

    /// Builds the prefetcher.
    pub fn build(self) -> Prefender {
        let mut p =
            Prefender::from_config(PrefenderConfig { st: self.st, at: self.at, rp: self.rp });
        p.basic = self.basic;
        p.st_prefetching = self.st_prefetching;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_isa::{Instr, Program, Reg};
    use prefender_sim::{AccessOutcome, Cycle, Level};

    fn load_event(pc: u64, addr: u64, base: Reg) -> AccessEvent {
        AccessEvent {
            core: 0,
            pc,
            vaddr: Addr::new(addr),
            base: Some(base),
            kind: AccessKind::Read,
            outcome: AccessOutcome {
                latency: 200,
                served_by: Level::Memory,
                first_prefetch_use: false,
                prefetch_source: None,
            },
            now: Cycle::ZERO,
        }
    }

    fn retire_all(p: &mut Prefender, src: &str) {
        for i in Program::parse(src).unwrap().instrs() {
            p.on_retire(&RetireEvent { core: 0, pc: 0, instr: i, now: Cycle::ZERO });
        }
    }

    #[test]
    fn st_prefetches_both_neighbours() {
        let mut p =
            Prefender::builder(64, 4096).access_tracker(false).record_protector(false).build();
        retire_all(&mut p, "ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        let reqs = p.on_access(&load_event(0x8000, 0x10_0800, Reg::R5), &|_| false);
        assert_eq!(
            reqs,
            vec![
                PrefetchRequest::new(Addr::new(0x10_0A00), PrefetchSource::ScaleTracker),
                PrefetchRequest::new(Addr::new(0x10_0600), PrefetchSource::ScaleTracker),
            ]
        );
        assert_eq!(p.stats().st_prefetches, 2);
    }

    #[test]
    fn st_silent_without_scale() {
        let mut p =
            Prefender::builder(64, 4096).access_tracker(false).record_protector(false).build();
        retire_all(&mut p, "li r5, 0x10000\n");
        let reqs = p.on_access(&load_event(0x8000, 0x10000, Reg::R5), &|_| false);
        assert!(reqs.is_empty());
    }

    #[test]
    fn at_learns_probe_stride() {
        let mut p =
            Prefender::builder(64, 4096).scale_tracker(false).record_protector(false).build();
        let mut all = Vec::new();
        for k in [0u64, 3, 1, 5, 2] {
            all.extend(
                p.on_access(&load_event(0x9000, 0x20_0000 + k * 0x200, Reg::R1), &|_| false),
            );
        }
        assert!(!all.is_empty());
        assert!(all.iter().all(|r| r.source == PrefetchSource::AccessTracker));
        assert!(p.stats().at_prefetches > 0);
    }

    #[test]
    fn stores_bypass_prefender_units() {
        let mut p = Prefender::builder(64, 4096).build();
        let mut ev = load_event(0x9000, 0x20_0000, Reg::R1);
        ev.kind = AccessKind::Write;
        for k in 0..6u64 {
            ev.vaddr = Addr::new(0x20_0000 + k * 0x200);
            assert!(p.on_access(&ev, &|_| false).is_empty());
        }
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn rp_links_st_pattern_to_at() {
        // Victim load with scale 0x200 records the pattern; a different
        // load probing the same pattern is guided by RP even though its
        // buffer is far below the DiffMin threshold.
        let mut p = Prefender::builder(64, 4096).build();
        retire_all(&mut p, "ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        let _ = p.on_access(&load_event(0x8000, 0x10_0800, Reg::R5), &|_| false);
        assert!(p.record_protector().unwrap().record_count() > 0);

        // Attacker probe, different PC, on-pattern address.
        let reqs = p.on_access(&load_event(0xA000, 0x10_0C00, Reg::R2), &|_| false);
        let rp_reqs: Vec<_> =
            reqs.iter().filter(|r| r.source == PrefetchSource::RecordProtector).collect();
        assert_eq!(rp_reqs.len(), 1);
        assert!(p.protected_count() >= 1);
        assert!(p.stats().rp_prefetches > 0);
    }

    #[test]
    fn basic_prefetcher_runs_at_lower_priority() {
        use prefender_prefetch::TaggedPrefetcher;
        let mut p = Prefender::builder(64, 4096)
            .basic(BasicPrefetcher::Tagged(TaggedPrefetcher::new(64, 1)))
            .build();
        retire_all(&mut p, "ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        let reqs = p.on_access(&load_event(0x8000, 0x10_0800, Reg::R5), &|_| false);
        // ST's two requests come first, then RP's guided prefetch (the
        // victim's own load hits the just-recorded pattern), then the
        // basic prefetcher's next-line request last.
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].source, PrefetchSource::ScaleTracker);
        assert_eq!(reqs[1].source, PrefetchSource::ScaleTracker);
        assert_eq!(reqs[2].source, PrefetchSource::RecordProtector);
        assert_eq!(reqs[3].source, PrefetchSource::Basic);
        assert_eq!(reqs[3].addr, Addr::new(0x10_0840));
    }

    #[test]
    fn issued_counts_all_units() {
        use prefender_prefetch::TaggedPrefetcher;
        let mut p = Prefender::builder(64, 4096)
            .basic(BasicPrefetcher::Tagged(TaggedPrefetcher::new(64, 1)))
            .build();
        retire_all(&mut p, "ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        let _ = p.on_access(&load_event(0x8000, 0x10_0800, Reg::R5), &|_| false);
        assert_eq!(p.issued(), p.stats().total() + p.basic().unwrap().issued());
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut p = Prefender::builder(64, 4096).build();
        retire_all(&mut p, "ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        let _ = p.on_access(&load_event(0x8000, 0x10_0800, Reg::R5), &|_| false);
        p.reset();
        assert_eq!(p.stats().total(), 0);
        assert_eq!(p.protected_count(), 0);
        assert!(p.on_access(&load_event(0x8000, 0x10_0800, Reg::R5), &|_| false).is_empty());
    }

    #[test]
    fn builder_unit_toggles() {
        let p = Prefender::builder(64, 4096).scale_tracker(false).record_protector(false).build();
        assert!(p.scale_tracker().is_none());
        assert!(p.access_tracker().is_some());
        assert!(p.record_protector().is_none());
    }

    #[test]
    fn retire_events_update_st_through_trait() {
        let mut p = Prefender::builder(64, 4096).build();
        let i = Instr::LoadImm { rd: Reg::R3, imm: 0x200 };
        p.on_retire(&RetireEvent { core: 0, pc: 0, instr: &i, now: Cycle::ZERO });
        assert_eq!(p.scale_tracker().unwrap().calc().get(Reg::R3).fva, Some(0x200));
    }
}
