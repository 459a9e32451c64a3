//! Instructions and operands.

use std::fmt;

use crate::reg::Reg;

/// The second source of a three-operand ALU instruction: a register or an
/// immediate. The Scale Tracker's Table III rules distinguish exactly these
/// two cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register source.
    Reg(Reg),
    /// An immediate (constant) source.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::Imm(i)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// One instruction of the simulated ISA.
///
/// Branch targets are *resolved* instruction indices; use
/// [`ProgramBuilder`](crate::ProgramBuilder) or [`Program::parse`](crate::Program::parse)
/// to write label-based control flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd <- imm` — immediate load (Table III: sets `fva = imm, sc = 1`).
    LoadImm {
        /// Destination register.
        rd: Reg,
        /// The constant.
        imm: i64,
    },
    /// `rd <- mem[base + offset]` — 8-byte data load
    /// (Table III: reinitializes `fva = NA, sc = 1`).
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `mem[base + offset] <- src` — 8-byte data store.
    Store {
        /// Value register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `rd <- a + b`.
    Add {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Second source (register or immediate).
        b: Operand,
    },
    /// `rd <- a - b` (Table III: addition rules with `+` replaced by `-`).
    Sub {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Operand,
    },
    /// `rd <- a * b`.
    Mul {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Operand,
    },
    /// `rd <- a << b` (Table III: multiplication rules).
    Shl {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Shift amount.
        b: Operand,
    },
    /// `rd <- a >> b` (logical; Table III: multiplication rules).
    Shr {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Shift amount.
        b: Operand,
    },
    /// `rd <- a & b` (an "otherwise" op for the Scale Tracker).
    And {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Operand,
    },
    /// `rd <- a | b` (an "otherwise" op for the Scale Tracker).
    Or {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Operand,
    },
    /// `rd <- a ^ b` (an "otherwise" op for the Scale Tracker).
    Xor {
        /// Destination register.
        rd: Reg,
        /// First source.
        a: Reg,
        /// Second source.
        b: Operand,
    },
    /// `rd <- rs` — register move (propagates `(fva, sc)` unchanged).
    Mov {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs: Reg,
    },
    /// `clflush [base + offset]` — removes the line from every cache level.
    Flush {
        /// Base address register.
        base: Reg,
        /// Signed byte offset.
        offset: i64,
    },
    /// `rd <- current cycle` — the attacker's timer (x86 `rdtscp`).
    Rdtsc {
        /// Destination register.
        rd: Reg,
    },
    /// No operation (1 cycle).
    Nop,
    /// Unconditional jump to instruction index `target`.
    Jmp {
        /// Resolved instruction index.
        target: usize,
    },
    /// Branch to `target` when `cond != 0`.
    Bnz {
        /// Condition register.
        cond: Reg,
        /// Resolved instruction index.
        target: usize,
    },
    /// Branch to `target` when `a == b`.
    Beq {
        /// First comparand.
        a: Reg,
        /// Second comparand.
        b: Reg,
        /// Resolved instruction index.
        target: usize,
    },
    /// Branch to `target` when `a < b` (unsigned).
    Blt {
        /// First comparand.
        a: Reg,
        /// Second comparand.
        b: Reg,
        /// Resolved instruction index.
        target: usize,
    },
    /// Stop the core.
    Halt,
}

impl Instr {
    /// `true` when executing this instruction writes an architectural
    /// register — the instructions a register-dataflow tracker (the
    /// Scale Tracker's calculation buffer) can observe an effect from.
    /// Branches, stores, flushes, `nop` and `halt` return `false`.
    #[inline]
    pub fn writes_reg(&self) -> bool {
        self.dest().is_some()
    }

    /// The destination register this instruction writes, if any.
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::LoadImm { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::Add { rd, .. }
            | Instr::Sub { rd, .. }
            | Instr::Mul { rd, .. }
            | Instr::Shl { rd, .. }
            | Instr::Shr { rd, .. }
            | Instr::And { rd, .. }
            | Instr::Or { rd, .. }
            | Instr::Xor { rd, .. }
            | Instr::Mov { rd, .. }
            | Instr::Rdtsc { rd } => Some(rd),
            _ => None,
        }
    }

    /// `true` for control-flow instructions.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Instr::Jmp { .. } | Instr::Bnz { .. } | Instr::Beq { .. } | Instr::Blt { .. }
        )
    }

    /// The branch target when this is a control-flow instruction.
    pub fn branch_target(&self) -> Option<usize> {
        match *self {
            Instr::Jmp { target }
            | Instr::Bnz { target, .. }
            | Instr::Beq { target, .. }
            | Instr::Blt { target, .. } => Some(target),
            _ => None,
        }
    }
}

impl fmt::Display for Instr {
    /// Renders the instruction in the assembler's syntax. Branch targets
    /// print as raw indices (`@12`); [`Program`](crate::Program)'s
    /// `Display` re-labels them.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::LoadImm { rd, imm } => {
                if imm < 0 {
                    write!(f, "li {rd}, -{:#x}", imm.unsigned_abs())
                } else {
                    write!(f, "li {rd}, {imm:#x}")
                }
            }
            Instr::Load { rd, base, offset } => write!(f, "ld {rd}, {offset}({base})"),
            Instr::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Instr::Add { rd, a, b } => write!(f, "add {rd}, {a}, {b}"),
            Instr::Sub { rd, a, b } => write!(f, "sub {rd}, {a}, {b}"),
            Instr::Mul { rd, a, b } => write!(f, "mul {rd}, {a}, {b}"),
            Instr::Shl { rd, a, b } => write!(f, "shl {rd}, {a}, {b}"),
            Instr::Shr { rd, a, b } => write!(f, "shr {rd}, {a}, {b}"),
            Instr::And { rd, a, b } => write!(f, "and {rd}, {a}, {b}"),
            Instr::Or { rd, a, b } => write!(f, "or {rd}, {a}, {b}"),
            Instr::Xor { rd, a, b } => write!(f, "xor {rd}, {a}, {b}"),
            Instr::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Instr::Flush { base, offset } => write!(f, "flush {offset}({base})"),
            Instr::Rdtsc { rd } => write!(f, "rdtsc {rd}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Jmp { target } => write!(f, "jmp @{target}"),
            Instr::Bnz { cond, target } => write!(f, "bnz {cond}, @{target}"),
            Instr::Beq { a, b, target } => write!(f, "beq {a}, {b}, @{target}"),
            Instr::Blt { a, b, target } => write!(f, "blt {a}, {b}, @{target}"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_registers() {
        assert_eq!(Instr::LoadImm { rd: Reg::R3, imm: 1 }.dest(), Some(Reg::R3));
        assert_eq!(Instr::Mov { rd: Reg::R1, rs: Reg::R2 }.dest(), Some(Reg::R1));
        assert_eq!(Instr::Store { src: Reg::R1, base: Reg::R2, offset: 0 }.dest(), None);
        assert_eq!(Instr::Halt.dest(), None);
        assert_eq!(Instr::Rdtsc { rd: Reg::R9 }.dest(), Some(Reg::R9));
    }

    #[test]
    fn classification() {
        assert!(Instr::Jmp { target: 0 }.is_branch());
        assert_eq!(Instr::Bnz { cond: Reg::R1, target: 7 }.branch_target(), Some(7));
        assert_eq!(Instr::Nop.branch_target(), None);
    }

    #[test]
    fn display_syntax() {
        assert_eq!(Instr::LoadImm { rd: Reg::R1, imm: 0x200 }.to_string(), "li r1, 0x200");
        assert_eq!(
            Instr::Load { rd: Reg::R2, base: Reg::R1, offset: -8 }.to_string(),
            "ld r2, -8(r1)"
        );
        assert_eq!(
            Instr::Add { rd: Reg::R3, a: Reg::R1, b: Operand::Imm(4) }.to_string(),
            "add r3, r1, 4"
        );
        assert_eq!(
            Instr::Mul { rd: Reg::R3, a: Reg::R1, b: Operand::Reg(Reg::R2) }.to_string(),
            "mul r3, r1, r2"
        );
        assert_eq!(Instr::Flush { base: Reg::R4, offset: 64 }.to_string(), "flush 64(r4)");
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg::R7), Operand::Reg(Reg::R7));
        assert_eq!(Operand::from(42i64), Operand::Imm(42));
    }
}
