//! The Scale Tracker (ST): phase-2 defense — paper Section IV-B.

use prefender_isa::{Instr, Reg};
use prefender_sim::Addr;

use crate::calc::CalculationBuffer;
use crate::config::StConfig;

/// Predicts the other eviction cachelines a victim load could touch, from
/// the load's address-calculation history.
///
/// When a load `ld rd, off(rs)` executes with target address `addr` and
/// the tracked scale of `rs` satisfies `line_size < sc < page_size`, the
/// addresses `addr ± sc` (on the same page) are candidate prefetches:
/// they are the lines the same load would touch for a neighbouring secret
/// value, so prefetching them hides which one the real secret selected.
///
/// # Examples
///
/// ```
/// use prefender_core::{ScaleTracker, StConfig};
/// use prefender_isa::{Program, Reg};
/// use prefender_sim::Addr;
///
/// let mut st = ScaleTracker::new(StConfig::paper());
/// for i in Program::parse("ld r1, 0(r0)\nmul r5, r1, 0x200\n").unwrap().instrs() {
///     st.on_retire(i);
/// }
/// let c = st.candidates(Reg::R5, Addr::new(0x10_1800));
/// assert_eq!(c, vec![Addr::new(0x10_1A00), Addr::new(0x10_1600)]);
/// ```
#[derive(Debug, Clone)]
pub struct ScaleTracker {
    buf: CalculationBuffer,
    cfg: StConfig,
}

impl ScaleTracker {
    /// Creates a tracker with every register at the initial state.
    pub fn new(cfg: StConfig) -> Self {
        ScaleTracker { buf: CalculationBuffer::new(), cfg }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &StConfig {
        &self.cfg
    }

    /// Read access to the calculation buffer (tests, debugging).
    pub fn calc(&self) -> &CalculationBuffer {
        &self.buf
    }

    /// Observes one retired instruction (Table III update).
    #[inline(always)]
    pub fn on_retire(&mut self, instr: &Instr) {
        self.buf.apply(instr);
    }

    /// Observes `k` back-to-back retires of a counted loop's `body` at
    /// once (see [`CalculationBuffer::apply_repeated`]).
    pub fn on_retire_repeated(&mut self, body: &[Instr], k: u64) {
        self.buf.apply_repeated(body, k);
    }

    /// The *usable* scale of `base` — `Some(sc)` only when
    /// `line_size < sc < page_size`, the paper's prefetch condition.
    pub fn usable_scale(&self, base: Reg) -> Option<u64> {
        let sc = self.buf.get(base).sc?;
        let sc = sc as u64;
        (sc > self.cfg.line_size && sc < self.cfg.page_size).then_some(sc)
    }

    /// The candidate prefetch addresses for a load through `base` hitting
    /// `addr`: `addr + sc` then `addr - sc`, each only if it stays on
    /// `addr`'s page. Empty when the scale is not usable.
    pub fn candidates(&self, base: Reg, addr: Addr) -> Vec<Addr> {
        match self.usable_scale(base) {
            Some(sc) => self.candidates_at(sc, addr).collect(),
            None => Vec::new(),
        }
    }

    /// The candidate prefetch addresses for an already-resolved usable
    /// scale `sc`: `addr + sc` then `addr - sc`, each only if it stays on
    /// `addr`'s page. The allocation-free inner loop of
    /// [`ScaleTracker::candidates`] — hot-path callers that looked the
    /// scale up once (`Prefender::on_access`) iterate this directly
    /// instead of paying a second register lookup and a `Vec`.
    pub fn candidates_at(&self, sc: u64, addr: Addr) -> impl Iterator<Item = Addr> + '_ {
        let page_size = self.cfg.page_size;
        [sc as i64, -(sc as i64)]
            .into_iter()
            .filter_map(move |delta| addr.offset(delta))
            .filter(move |cand| cand.same_page(addr, page_size))
    }

    /// Resets the calculation buffer (e.g. on context switch).
    pub fn reset(&mut self) {
        self.buf.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_isa::Program;

    fn tracker(src: &str) -> ScaleTracker {
        let mut st = ScaleTracker::new(StConfig::paper());
        for i in Program::parse(src).unwrap().instrs() {
            st.on_retire(i);
        }
        st
    }

    #[test]
    fn scale_within_bounds_is_usable() {
        let st = tracker("ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        assert_eq!(st.usable_scale(Reg::R5), Some(0x200));
    }

    #[test]
    fn sub_line_scale_rejected() {
        // sc = 32 <= line size 64: both candidates land in the same line.
        let st = tracker("ld r1, 0(r0)\nmul r5, r1, 32\n");
        assert_eq!(st.usable_scale(Reg::R5), None);
        assert!(st.candidates(Reg::R5, Addr::new(0x1000)).is_empty());
    }

    #[test]
    fn line_sized_scale_rejected() {
        // The paper requires *larger than* the cacheline size.
        let st = tracker("ld r1, 0(r0)\nmul r5, r1, 64\n");
        assert_eq!(st.usable_scale(Reg::R5), None);
    }

    #[test]
    fn page_sized_scale_rejected() {
        let st = tracker("ld r1, 0(r0)\nmul r5, r1, 4096\n");
        assert_eq!(st.usable_scale(Reg::R5), None);
    }

    #[test]
    fn constant_register_not_usable() {
        let st = tracker("li r5, 0x200\n");
        assert_eq!(st.usable_scale(Reg::R5), None, "pure constant has sc = 1");
    }

    #[test]
    fn candidates_respect_page_boundary() {
        let st = tracker("ld r1, 0(r0)\nmul r5, r1, 0x800\n");
        // addr near page start: addr - sc crosses the boundary.
        let c = st.candidates(Reg::R5, Addr::new(0x10_0400));
        assert_eq!(c, vec![Addr::new(0x10_0C00)]);
        // addr near page end: addr + sc crosses.
        let c = st.candidates(Reg::R5, Addr::new(0x10_0C00));
        assert_eq!(c, vec![Addr::new(0x10_0400)]);
    }

    #[test]
    fn both_candidates_mid_page() {
        let st = tracker("ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        let c = st.candidates(Reg::R5, Addr::new(0x10_0800));
        assert_eq!(c, vec![Addr::new(0x10_0A00), Addr::new(0x10_0600)]);
    }

    #[test]
    fn reset_clears_learning() {
        let mut st = tracker("ld r1, 0(r0)\nmul r5, r1, 0x200\n");
        st.reset();
        assert_eq!(st.usable_scale(Reg::R5), None);
    }
}
