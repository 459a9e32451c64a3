//! The calculation buffer: per-register `(fva, sc)` tracking — Table III.
//!
//! For every architectural register `r` the Scale Tracker keeps
//!
//! * `fva_r` — the register's *fixed value*: `Some(v)` when every
//!   calculation feeding `r` involved only constants, otherwise `None`
//!   (the paper's *NA*);
//! * `sc_r` — the register's *scale*: the stride by which the value steps
//!   when a contributing variable increments. `None` (*NA*) when the value
//!   is a pure constant — a constant address never selects among eviction
//!   cachelines.
//!
//! At program start the state is `fva = NA, sc = 1`. Addition/subtraction
//! and multiplication/shifts propagate the pair per Table III; any other
//! writer reinitializes the destination.

use prefender_isa::{Instr, Operand, Reg, NUM_REGS};

/// One register's tracked state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegTrack {
    /// The fixed value, `None` = the paper's *NA*.
    pub fva: Option<i64>,
    /// The scale, `None` = *NA* (pure constant). Stored non-negative.
    pub sc: Option<i64>,
}

impl RegTrack {
    /// The initial state: `fva = NA, sc = 1`.
    pub const INIT: RegTrack = RegTrack { fva: None, sc: Some(1) };

    fn constant(v: i64) -> Self {
        RegTrack { fva: Some(v), sc: Some(1) }
    }

    /// Control-flow join of two tracked states: a component survives only
    /// when both paths agree. A disagreeing `fva` is not a fixed value and
    /// a disagreeing `sc` has no single stride, so both degrade to *NA* —
    /// the conservative direction for a *predicted* prefetch (the runtime
    /// tracker follows one concrete path and never joins; static mirrors
    /// of Table III running over a CFG do).
    pub fn join(self, other: RegTrack) -> RegTrack {
        RegTrack {
            fva: if self.fva == other.fva { self.fva } else { None },
            sc: if self.sc == other.sc { self.sc } else { None },
        }
    }
}

impl Default for RegTrack {
    fn default() -> Self {
        Self::INIT
    }
}

/// Normalizes a scale: magnitudes only (a negative stride selects the same
/// set of cachelines), `0` collapses to *NA* (no stepping at all).
fn norm(sc: i64) -> Option<i64> {
    match sc.checked_abs() {
        Some(0) | None => None,
        Some(v) => Some(v),
    }
}

/// Saturating-checked product of two scales; overflow → `None` (a scale
/// beyond `i64` is far past any page size, so *NA* is the conservative
/// answer and what little hardware width the paper budgets would do).
fn mul_sc(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => x.checked_mul(y).and_then(norm),
        _ => None,
    }
}

/// `min` of two scales; an *NA* side yields the other (the paper's NA/NA
/// rows assume both defined — when one degenerated to NA we keep the
/// usable one).
fn min_sc(a: Option<i64>, b: Option<i64>) -> Option<i64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) => Some(x),
        (None, Some(y)) => Some(y),
        (None, None) => None,
    }
}

/// The per-register calculation buffer (paper Figure 2, "Calculation
/// Buffer"; update rules in Table III).
///
/// # Examples
///
/// The paper's Figure 5 — `array[secret × 0x200]`:
///
/// ```
/// use prefender_core::CalculationBuffer;
/// use prefender_isa::{Program, Reg};
///
/// let p = Program::parse(
///     "
///     ld   r1, 0(r0)      ; r1 = secret (variable)
///     li   r3, 0x200
///     mul  r4, r1, r3     ; r4 = secret * 0x200
///     li   r2, 0x100000
///     add  r5, r2, r4     ; r5 = arr_addr + r4
///     ",
/// ).unwrap();
/// let mut buf = CalculationBuffer::new();
/// for i in p.instrs() {
///     buf.apply(i);
/// }
/// assert_eq!(buf.get(Reg::R5).sc, Some(0x200)); // the tracked scale
/// assert_eq!(buf.get(Reg::R5).fva, None);       // value depends on a variable
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalculationBuffer {
    regs: [RegTrack; NUM_REGS],
}

impl CalculationBuffer {
    /// All registers at `fva = NA, sc = 1`.
    pub fn new() -> Self {
        CalculationBuffer { regs: [RegTrack::INIT; NUM_REGS] }
    }

    /// The tracked state of `r`.
    pub fn get(&self, r: Reg) -> RegTrack {
        self.regs[r.index()]
    }

    /// Overrides a register's state (test setup).
    pub fn set(&mut self, r: Reg, t: RegTrack) {
        self.regs[r.index()] = t;
    }

    /// Resets every register to the initial state.
    pub fn reset(&mut self) {
        self.regs = [RegTrack::INIT; NUM_REGS];
    }

    #[inline]
    fn reinit(&mut self, rd: Reg) {
        self.regs[rd.index()] = RegTrack::INIT;
    }

    /// Applies one retired instruction's Table III rule.
    #[inline]
    pub fn apply(&mut self, instr: &Instr) {
        match *instr {
            // Data movement.
            Instr::LoadImm { rd, imm } => self.regs[rd.index()] = RegTrack::constant(imm),
            Instr::Load { rd, .. } => self.reinit(rd), // loaded value = unknown variable
            Instr::Mov { rd, rs } => self.regs[rd.index()] = self.regs[rs.index()],

            // Addition / subtraction.
            Instr::Add { rd, a, b } => self.additive(rd, a, b, false),
            Instr::Sub { rd, a, b } => self.additive(rd, a, b, true),

            // Multiplication / shifts.
            Instr::Mul { rd, a, b } => self.multiplicative(rd, a, b, MulKind::Mul),
            Instr::Shl { rd, a, b } => self.multiplicative(rd, a, b, MulKind::Shl),
            Instr::Shr { rd, a, b } => self.multiplicative(rd, a, b, MulKind::Shr),

            // "Otherwise": conservative reinitialization.
            Instr::And { rd, .. } | Instr::Or { rd, .. } | Instr::Xor { rd, .. } => self.reinit(rd),
            Instr::Rdtsc { rd } => self.reinit(rd),

            // No destination register: nothing to track.
            Instr::Store { .. }
            | Instr::Flush { .. }
            | Instr::Nop
            | Instr::Jmp { .. }
            | Instr::Bnz { .. }
            | Instr::Beq { .. }
            | Instr::Blt { .. }
            | Instr::Halt => {}
        }
    }

    #[inline]
    fn additive(&mut self, rd: Reg, a: Reg, b: Operand, subtract: bool) {
        let s0 = self.regs[a.index()];
        let out = match b {
            Operand::Imm(imm) => match s0.fva {
                // Row: add rd, rs0, imm — fva NA ⇒ (NA, sc_s0).
                None => RegTrack { fva: None, sc: s0.sc },
                // Row: fva valid ⇒ (fva ± imm, 1).
                Some(f0) => RegTrack::constant(if subtract {
                    f0.wrapping_sub(imm)
                } else {
                    f0.wrapping_add(imm)
                }),
            },
            Operand::Reg(rs1) => {
                let s1 = self.regs[rs1.index()];
                match (s0.fva, s1.fva) {
                    // Valid + Valid ⇒ (fva0 ± fva1, NA): pure constant.
                    (Some(f0), Some(f1)) => RegTrack {
                        fva: Some(if subtract { f0.wrapping_sub(f1) } else { f0.wrapping_add(f1) }),
                        sc: None,
                    },
                    // NA + Valid ⇒ (NA, sc_s0): the constant side only offsets.
                    (None, Some(_)) => RegTrack { fva: None, sc: s0.sc },
                    // Valid + NA ⇒ (NA, sc_s1).
                    (Some(_), None) => RegTrack { fva: None, sc: s1.sc },
                    // NA + NA ⇒ (NA, min(sc_s0, sc_s1)): either scale steps
                    // the sum; the smaller one is less likely to leave the page.
                    (None, None) => RegTrack { fva: None, sc: min_sc(s0.sc, s1.sc) },
                }
            }
        };
        self.regs[rd.index()] = out;
    }

    fn multiplicative(&mut self, rd: Reg, a: Reg, b: Operand, kind: MulKind) {
        let s0 = self.regs[a.index()];
        let out = match b {
            Operand::Imm(imm) => {
                let factor = kind.factor(imm);
                match s0.fva {
                    // Row: mul rd, rs0, imm — fva NA ⇒ (NA, sc_s0 × imm).
                    None => RegTrack { fva: None, sc: mul_sc(s0.sc, factor) },
                    // Row: fva valid ⇒ (fva × imm, 1).
                    Some(f0) => match kind.apply(f0, imm) {
                        Some(v) => RegTrack::constant(v),
                        None => RegTrack::INIT,
                    },
                }
            }
            Operand::Reg(rs1) => {
                let s1 = self.regs[rs1.index()];
                match (s0.fva, s1.fva) {
                    // Valid × Valid ⇒ (fva0 × fva1, NA).
                    (Some(f0), Some(f1)) => match kind.apply(f0, f1) {
                        Some(v) => RegTrack { fva: Some(v), sc: None },
                        None => RegTrack::INIT,
                    },
                    // NA × Valid ⇒ (NA, sc_s0 × fva_s1).
                    (None, Some(f1)) => RegTrack { fva: None, sc: mul_sc(s0.sc, kind.factor(f1)) },
                    // Valid × NA ⇒ (NA, fva_s0 × sc_s1).
                    (Some(f0), None) => match kind {
                        MulKind::Mul => RegTrack { fva: None, sc: mul_sc(Some(f0), s1.sc) },
                        // `const << variable` / `const >> variable`:
                        // no linear scale exists — reinitialize.
                        MulKind::Shl | MulKind::Shr => RegTrack::INIT,
                    },
                    // NA × NA ⇒ (NA, sc_s0 × sc_s1).
                    (None, None) => match kind {
                        MulKind::Mul => RegTrack { fva: None, sc: mul_sc(s0.sc, s1.sc) },
                        MulKind::Shl | MulKind::Shr => RegTrack::INIT,
                    },
                }
            }
        };
        self.regs[rd.index()] = out;
    }
}

impl Default for CalculationBuffer {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug, Clone, Copy)]
enum MulKind {
    Mul,
    Shl,
    Shr,
}

impl MulKind {
    /// The multiplicative factor a shift amount corresponds to, or the
    /// immediate itself for `mul`. `None` when no linear factor exists.
    fn factor(self, amount: i64) -> Option<i64> {
        match self {
            MulKind::Mul => Some(amount),
            MulKind::Shl => {
                if (0..63).contains(&amount) {
                    Some(1i64 << amount)
                } else {
                    None
                }
            }
            // A right shift *divides* the stride. Division is modelled as
            // the reciprocal factor only when exact later; conservatively
            // no linear factor unless the shift is zero.
            MulKind::Shr => {
                if amount == 0 {
                    Some(1)
                } else {
                    None
                }
            }
        }
    }

    /// Applies the operation to two constants.
    fn apply(self, a: i64, b: i64) -> Option<i64> {
        match self {
            MulKind::Mul => Some(a.wrapping_mul(b)),
            MulKind::Shl => {
                if (0..64).contains(&b) {
                    Some(((a as u64) << b) as i64)
                } else {
                    None
                }
            }
            MulKind::Shr => {
                if (0..64).contains(&b) {
                    Some(((a as u64) >> b) as i64)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_isa::Program;

    fn run(src: &str) -> CalculationBuffer {
        let p = Program::parse(src).unwrap();
        let mut buf = CalculationBuffer::new();
        for i in p.instrs() {
            buf.apply(i);
        }
        buf
    }

    #[test]
    fn initial_state() {
        let buf = CalculationBuffer::new();
        for r in Reg::all() {
            assert_eq!(buf.get(r), RegTrack { fva: None, sc: Some(1) });
        }
    }

    #[test]
    fn load_imm_sets_constant() {
        let buf = run("li r1, 0x200\n");
        assert_eq!(buf.get(Reg::R1), RegTrack { fva: Some(0x200), sc: Some(1) });
    }

    #[test]
    fn memory_load_reinitializes() {
        let buf = run("li r1, 7\nld r1, 0(r2)\n");
        assert_eq!(buf.get(Reg::R1), RegTrack::INIT);
    }

    #[test]
    fn mov_copies_track() {
        let buf = run("li r1, 5\nmov r2, r1\n");
        assert_eq!(buf.get(Reg::R2), RegTrack { fva: Some(5), sc: Some(1) });
    }

    // ---- Table III: addition rows ----

    #[test]
    fn add_imm_to_variable_keeps_scale() {
        // r1 is a variable with scale 0x200 (via mul); adding an immediate
        // offset must not change the scale.
        let buf = run("ld r1, 0(r0)\nli r2, 0x200\nmul r3, r1, r2\nadd r4, r3, 0x40\n");
        assert_eq!(buf.get(Reg::R4), RegTrack { fva: None, sc: Some(0x200) });
    }

    #[test]
    fn add_imm_to_constant_is_constant() {
        let buf = run("li r1, 0x100\nadd r2, r1, 0x20\n");
        assert_eq!(buf.get(Reg::R2), RegTrack { fva: Some(0x120), sc: Some(1) });
    }

    #[test]
    fn sub_imm_from_constant() {
        let buf = run("li r1, 0x100\nsub r2, r1, 0x20\n");
        assert_eq!(buf.get(Reg::R2).fva, Some(0xE0));
    }

    #[test]
    fn add_two_constants_scale_na() {
        // Valid + Valid ⇒ scale NA (pure constant can't select cachelines).
        let buf = run("li r1, 0x100\nli r2, 0x30\nadd r3, r1, r2\n");
        assert_eq!(buf.get(Reg::R3), RegTrack { fva: Some(0x130), sc: None });
    }

    #[test]
    fn add_variable_and_constant_takes_variable_scale() {
        let buf =
            run("ld r1, 0(r0)\nli r2, 0x400\nmul r3, r1, r2\nli r4, 0x100000\nadd r5, r4, r3\n");
        // r4 valid + r3 NA ⇒ scale of r3.
        assert_eq!(buf.get(Reg::R5), RegTrack { fva: None, sc: Some(0x400) });
    }

    #[test]
    fn add_two_variables_takes_min_scale() {
        // 128*i + 32*j: either index stepping moves the sum; min = 32.
        let buf = run("
            ld r1, 0(r0)
            ld r2, 8(r0)
            li r3, 128
            li r4, 32
            mul r5, r1, r3
            mul r6, r2, r4
            add r7, r5, r6
            ");
        assert_eq!(buf.get(Reg::R7), RegTrack { fva: None, sc: Some(32) });
    }

    // ---- Table III: multiplication rows ----

    #[test]
    fn mul_variable_by_imm_scales() {
        let buf = run("ld r1, 0(r0)\nmul r2, r1, 0x200\n");
        assert_eq!(buf.get(Reg::R2), RegTrack { fva: None, sc: Some(0x200) });
    }

    #[test]
    fn mul_constant_by_imm_is_constant() {
        let buf = run("li r1, 6\nmul r2, r1, 7\n");
        assert_eq!(buf.get(Reg::R2), RegTrack { fva: Some(42), sc: Some(1) });
    }

    #[test]
    fn mul_two_constants_scale_na() {
        let buf = run("li r1, 6\nli r2, 7\nmul r3, r1, r2\n");
        assert_eq!(buf.get(Reg::R3), RegTrack { fva: Some(42), sc: None });
    }

    #[test]
    fn mul_variable_by_constant_reg() {
        // The Figure 5 pattern: r1 variable (sc 1), r3 constant 0x200
        // ⇒ sc = 1 × 0x200.
        let buf = run("ld r1, 0(r0)\nli r3, 0x200\nmul r4, r1, r3\n");
        assert_eq!(buf.get(Reg::R4), RegTrack { fva: None, sc: Some(0x200) });
    }

    #[test]
    fn mul_constant_reg_by_variable() {
        let buf = run("li r3, 0x80\nld r1, 0(r0)\nmul r4, r3, r1\n");
        assert_eq!(buf.get(Reg::R4), RegTrack { fva: None, sc: Some(0x80) });
    }

    #[test]
    fn mul_two_variables_multiplies_scales() {
        let buf = run("
            ld r1, 0(r0)
            ld r2, 8(r0)
            mul r3, r1, 16    ; sc 16
            mul r4, r2, 8     ; sc 8
            mul r5, r3, r4    ; sc 128
            ");
        assert_eq!(buf.get(Reg::R5), RegTrack { fva: None, sc: Some(128) });
    }

    // ---- Shifts ----

    #[test]
    fn shl_by_imm_scales_power_of_two() {
        let buf = run("ld r1, 0(r0)\nshl r2, r1, 9\n");
        assert_eq!(buf.get(Reg::R2), RegTrack { fva: None, sc: Some(512) });
    }

    #[test]
    fn shl_constant_by_imm() {
        let buf = run("li r1, 3\nshl r2, r1, 4\n");
        assert_eq!(buf.get(Reg::R2), RegTrack { fva: Some(48), sc: Some(1) });
    }

    #[test]
    fn shr_by_imm_conservative() {
        // Right shift destroys the linear-scale model; expect NA scale.
        let buf = run("ld r1, 0(r0)\nmul r2, r1, 0x200\nshr r3, r2, 3\n");
        assert_eq!(buf.get(Reg::R3).sc, None);
    }

    #[test]
    fn shl_by_variable_reinitializes() {
        let buf = run("li r1, 4\nld r2, 0(r0)\nshl r3, r1, r2\n");
        assert_eq!(buf.get(Reg::R3), RegTrack::INIT);
    }

    // ---- "Otherwise" ----

    #[test]
    fn logic_ops_reinitialize() {
        let buf = run(
            "ld r1, 0(r0)\nmul r2, r1, 0x200\nand r3, r2, 0xff\nor r4, r2, 1\nxor r5, r2, r2\n",
        );
        assert_eq!(buf.get(Reg::R3), RegTrack::INIT);
        assert_eq!(buf.get(Reg::R4), RegTrack::INIT);
        assert_eq!(buf.get(Reg::R5), RegTrack::INIT);
    }

    #[test]
    fn rdtsc_reinitializes() {
        let buf = run("li r1, 5\nrdtsc r1\n");
        assert_eq!(buf.get(Reg::R1), RegTrack::INIT);
    }

    // ---- The full Figure 5 walkthrough ----

    #[test]
    fn figure_5_example() {
        // load r0, 4(sp); load r1, 0(r0); load r2, arr_addr; load r3, 0x200;
        // mul r4, r1, r3; add r5, r2, r4; load r6, 0(r5)
        let buf = run("
            ld  r0, 4(r14)      ; r0 = secret's address (variable)
            ld  r1, 0(r0)       ; r1 = secret (variable)
            li  r2, 0x100000    ; r2 = arr_addr (immediate)
            li  r3, 0x200       ; r3 = 0x200 (immediate)
            mul r4, r1, r3      ; r4 = secret*0x200   -> sc 0x200, fva NA
            add r5, r2, r4      ; r5 = arr_addr + r4  -> sc 0x200, fva NA
            ");
        assert_eq!(buf.get(Reg::R0), RegTrack { fva: None, sc: Some(1) });
        assert_eq!(buf.get(Reg::R1), RegTrack { fva: None, sc: Some(1) });
        assert_eq!(buf.get(Reg::R2).fva, Some(0x100000));
        assert_eq!(buf.get(Reg::R3).fva, Some(0x200));
        assert_eq!(buf.get(Reg::R4), RegTrack { fva: None, sc: Some(0x200) });
        assert_eq!(buf.get(Reg::R5), RegTrack { fva: None, sc: Some(0x200) });
    }

    #[test]
    fn complicated_pattern_from_section_iv_b() {
        // 128*i + 32*j + imm: scales min(128, 32) = 32 survives the offset.
        let buf = run("
            ld r1, 0(r0)
            ld r2, 8(r0)
            mul r3, r1, 128
            mul r4, r2, 32
            add r5, r3, r4
            add r6, r5, 652
            ");
        assert_eq!(buf.get(Reg::R6), RegTrack { fva: None, sc: Some(32) });
    }

    #[test]
    fn negative_scale_normalized() {
        let buf = run("ld r1, 0(r0)\nmul r2, r1, -0x200\n");
        assert_eq!(buf.get(Reg::R2).sc, Some(0x200));
    }

    #[test]
    fn zero_scale_collapses_to_na() {
        let buf = run("ld r1, 0(r0)\nmul r2, r1, 0\n");
        assert_eq!(buf.get(Reg::R2).sc, None);
    }

    #[test]
    fn overflowing_scale_collapses_to_na() {
        let buf =
            run("ld r1, 0(r0)\nmul r2, r1, 0x4000000000000000\nmul r3, r2, 0x4000000000000000\n");
        assert_eq!(buf.get(Reg::R3).sc, None);
    }

    #[test]
    fn join_keeps_agreement_drops_disagreement() {
        let a = RegTrack { fva: Some(0x100), sc: Some(0x200) };
        assert_eq!(a.join(a), a);
        let b = RegTrack { fva: Some(0x100), sc: Some(0x40) };
        assert_eq!(a.join(b), RegTrack { fva: Some(0x100), sc: None });
        let c = RegTrack { fva: None, sc: Some(0x200) };
        assert_eq!(a.join(c), RegTrack { fva: None, sc: Some(0x200) });
        assert_eq!(a.join(RegTrack::INIT), RegTrack { fva: None, sc: None });
    }

    #[test]
    fn reset_restores_initial() {
        let mut buf = run("li r1, 7\n");
        buf.reset();
        assert_eq!(buf.get(Reg::R1), RegTrack::INIT);
    }
}
