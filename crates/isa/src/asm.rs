//! A small two-pass text assembler.
//!
//! Syntax (one instruction per line, `;` starts a comment):
//!
//! ```text
//! loop:                     ; labels end with ':'
//!     li    r1, 0x200       ; immediates are decimal or 0x-hex, signs allowed
//!     ld    r2, 0(r1)       ; memory operands are offset(base)
//!     st    r2, -8(r1)
//!     add   r3, r1, r2      ; third operand: register or immediate
//!     mul   r4, r3, 64
//!     flush 0(r1)
//!     rdtsc r5
//!     bnz   r3, loop        ; branch targets are labels or @<index>
//!     halt
//! ```

use std::collections::HashMap; // lint: ordered — labels are inserted and looked up only
use std::error::Error;
use std::fmt;

use crate::instr::{Instr, Operand};
use crate::program::Program;
use crate::reg::Reg;

/// An assembler diagnostic, pointing at a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the source text.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The category of assembler error.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// The mnemonic is not part of the ISA.
    UnknownMnemonic(String),
    /// A register operand did not parse (`r0`–`r31`).
    BadRegister(String),
    /// A numeric operand did not parse.
    BadNumber(String),
    /// A memory operand was not of the form `offset(base)`.
    BadMemoryOperand(String),
    /// Wrong number of operands for the mnemonic.
    WrongArity {
        /// The mnemonic.
        mnemonic: String,
        /// Operands required.
        expected: usize,
        /// Operands given.
        got: usize,
    },
    /// A branch referenced a label that is never defined.
    UnknownLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            ParseErrorKind::BadRegister(t) => write!(f, "invalid register `{t}`"),
            ParseErrorKind::BadNumber(t) => write!(f, "invalid number `{t}`"),
            ParseErrorKind::BadMemoryOperand(t) => {
                write!(f, "invalid memory operand `{t}` (expected offset(base))")
            }
            ParseErrorKind::WrongArity { mnemonic, expected, got } => {
                write!(f, "`{mnemonic}` takes {expected} operands, got {got}")
            }
            ParseErrorKind::UnknownLabel(l) => write!(f, "undefined label `{l}`"),
            ParseErrorKind::DuplicateLabel(l) => write!(f, "label `{l}` defined twice"),
        }
    }
}

impl Error for ParseError {}

fn strip_comment(line: &str) -> &str {
    match line.find(';') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn is_label_def(tok: &str) -> bool {
    tok.ends_with(':')
        && tok.len() > 1
        && tok[..tok.len() - 1].chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// Assembles `src` into a [`Program`].
pub fn parse(src: &str) -> Result<Program, ParseError> {
    // Pass 1: label positions.
    let mut labels: HashMap<String, usize> = HashMap::new(); // lint: ordered
    let mut idx = 0usize;
    for (ln, raw) in src.lines().enumerate() {
        let mut rest = strip_comment(raw).trim();
        while let Some(tok) = rest.split_whitespace().next() {
            if is_label_def(tok) {
                let name = tok[..tok.len() - 1].to_owned();
                if labels.insert(name.clone(), idx).is_some() {
                    return Err(ParseError {
                        line: ln + 1,
                        kind: ParseErrorKind::DuplicateLabel(name),
                    });
                }
                rest = rest[tok.len()..].trim_start();
            } else {
                break;
            }
        }
        if !rest.is_empty() {
            idx += 1;
        }
    }

    // Pass 2: instructions.
    let mut instrs = Vec::with_capacity(idx);
    for (ln, raw) in src.lines().enumerate() {
        let mut rest = strip_comment(raw).trim();
        while let Some(tok) = rest.split_whitespace().next() {
            if is_label_def(tok) {
                rest = rest[tok.len()..].trim_start();
            } else {
                break;
            }
        }
        if rest.is_empty() {
            continue;
        }
        instrs.push(parse_instr(rest, ln + 1, &labels)?);
    }
    Program::from_instrs(instrs).map_err(|e| ParseError {
        line: 0,
        kind: ParseErrorKind::UnknownLabel(format!("internal: {e}")),
    })
}

fn parse_instr(
    text: &str,
    line: usize,
    labels: &HashMap<String, usize>, // lint: ordered
) -> Result<Instr, ParseError> {
    let (mnemonic, ops_text) = match text.find(char::is_whitespace) {
        Some(i) => (&text[..i], text[i..].trim()),
        None => (text, ""),
    };
    let ops: Vec<&str> =
        if ops_text.is_empty() { Vec::new() } else { ops_text.split(',').map(str::trim).collect() };
    let err = |kind| ParseError { line, kind };
    let arity = |expected: usize| -> Result<(), ParseError> {
        if ops.len() == expected {
            Ok(())
        } else {
            Err(err(ParseErrorKind::WrongArity {
                mnemonic: mnemonic.to_owned(),
                expected,
                got: ops.len(),
            }))
        }
    };
    let reg = |t: &str| -> Result<Reg, ParseError> {
        t.strip_prefix('r')
            .and_then(|n| n.parse::<u8>().ok())
            .and_then(Reg::new)
            .ok_or_else(|| err(ParseErrorKind::BadRegister(t.to_owned())))
    };
    let num = |t: &str| -> Result<i64, ParseError> {
        parse_num(t).ok_or_else(|| err(ParseErrorKind::BadNumber(t.to_owned())))
    };
    let operand = |t: &str| -> Result<Operand, ParseError> {
        if t.starts_with('r') && reg(t).is_ok() {
            Ok(Operand::Reg(reg(t)?))
        } else {
            Ok(Operand::Imm(num(t)?))
        }
    };
    let mem = |t: &str| -> Result<(i64, Reg), ParseError> {
        let open =
            t.find('(').ok_or_else(|| err(ParseErrorKind::BadMemoryOperand(t.to_owned())))?;
        if !t.ends_with(')') {
            return Err(err(ParseErrorKind::BadMemoryOperand(t.to_owned())));
        }
        let off_txt = t[..open].trim();
        let offset = if off_txt.is_empty() { 0 } else { num(off_txt)? };
        let base = reg(t[open + 1..t.len() - 1].trim())?;
        Ok((offset, base))
    };
    let target = |t: &str| -> Result<usize, ParseError> {
        if let Some(raw) = t.strip_prefix('@') {
            raw.parse::<usize>().map_err(|_| err(ParseErrorKind::BadNumber(t.to_owned())))
        } else {
            labels.get(t).copied().ok_or_else(|| err(ParseErrorKind::UnknownLabel(t.to_owned())))
        }
    };

    match mnemonic {
        "li" => {
            arity(2)?;
            Ok(Instr::LoadImm { rd: reg(ops[0])?, imm: num(ops[1])? })
        }
        "ld" => {
            arity(2)?;
            let (offset, base) = mem(ops[1])?;
            Ok(Instr::Load { rd: reg(ops[0])?, base, offset })
        }
        "st" => {
            arity(2)?;
            let (offset, base) = mem(ops[1])?;
            Ok(Instr::Store { src: reg(ops[0])?, base, offset })
        }
        "add" | "sub" | "mul" | "shl" | "shr" | "and" | "or" | "xor" => {
            arity(3)?;
            let rd = reg(ops[0])?;
            let a = reg(ops[1])?;
            let b = operand(ops[2])?;
            Ok(match mnemonic {
                "add" => Instr::Add { rd, a, b },
                "sub" => Instr::Sub { rd, a, b },
                "mul" => Instr::Mul { rd, a, b },
                "shl" => Instr::Shl { rd, a, b },
                "shr" => Instr::Shr { rd, a, b },
                "and" => Instr::And { rd, a, b },
                "or" => Instr::Or { rd, a, b },
                _ => Instr::Xor { rd, a, b },
            })
        }
        "mov" => {
            arity(2)?;
            Ok(Instr::Mov { rd: reg(ops[0])?, rs: reg(ops[1])? })
        }
        "flush" => {
            arity(1)?;
            let (offset, base) = mem(ops[0])?;
            Ok(Instr::Flush { base, offset })
        }
        "rdtsc" => {
            arity(1)?;
            Ok(Instr::Rdtsc { rd: reg(ops[0])? })
        }
        "nop" => {
            arity(0)?;
            Ok(Instr::Nop)
        }
        "jmp" => {
            arity(1)?;
            Ok(Instr::Jmp { target: target(ops[0])? })
        }
        "bnz" => {
            arity(2)?;
            Ok(Instr::Bnz { cond: reg(ops[0])?, target: target(ops[1])? })
        }
        "beq" => {
            arity(3)?;
            Ok(Instr::Beq { a: reg(ops[0])?, b: reg(ops[1])?, target: target(ops[2])? })
        }
        "blt" => {
            arity(3)?;
            Ok(Instr::Blt { a: reg(ops[0])?, b: reg(ops[1])?, target: target(ops[2])? })
        }
        "halt" => {
            arity(0)?;
            Ok(Instr::Halt)
        }
        other => Err(err(ParseErrorKind::UnknownMnemonic(other.to_owned()))),
    }
}

fn parse_num(t: &str) -> Option<i64> {
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    // Parse the magnitude wide, then range-check: `-0x8000000000000000`
    // (i64::MIN) is valid while its positive twin is not.
    let mag: i128 = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i128::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else {
        t.replace('_', "").parse::<i128>().ok()?
    };
    let v = if neg { -mag } else { mag };
    i64::try_from(v).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_mnemonic() {
        let p = Program::parse(
            "
            start:
                li r1, 0x200
                ld r2, 0(r1)
                st r2, 8(r1)
                add r3, r1, r2
                sub r3, r3, 1
                mul r4, r3, 64
                shl r5, r4, 2
                shr r5, r5, r1
                and r6, r5, 0xff
                or r6, r6, r1
                xor r6, r6, r6
                mov r7, r6
                flush 0(r1)
                rdtsc r8
                nop
                jmp fwd
                bnz r1, start
            fwd:
                beq r1, r2, start
                blt r1, r2, fwd
                halt
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 20);
        assert_eq!(p.instr(15), Some(&Instr::Jmp { target: 17 }));
        assert_eq!(p.instr(16), Some(&Instr::Bnz { cond: Reg::R1, target: 0 }));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let p = Program::parse("; a comment\n\n  nop ; trailing\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = Program::parse("top: nop\n jmp top\n").unwrap();
        assert_eq!(p.instr(1), Some(&Instr::Jmp { target: 0 }));
    }

    #[test]
    fn negative_and_hex_numbers() {
        let p = Program::parse("li r1, -42\nli r2, 0xFF\nld r3, -64(r1)\n").unwrap();
        assert_eq!(p.instr(0), Some(&Instr::LoadImm { rd: Reg::R1, imm: -42 }));
        assert_eq!(p.instr(1), Some(&Instr::LoadImm { rd: Reg::R2, imm: 255 }));
        assert_eq!(p.instr(2), Some(&Instr::Load { rd: Reg::R3, base: Reg::R1, offset: -64 }));
    }

    #[test]
    fn raw_index_targets() {
        let p = Program::parse("nop\njmp @0\n").unwrap();
        assert_eq!(p.instr(1), Some(&Instr::Jmp { target: 0 }));
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let e = Program::parse("nop\nfrobnicate r1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(matches!(e.kind, ParseErrorKind::UnknownMnemonic(ref m) if m == "frobnicate"));
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn bad_register_rejected() {
        let e = Program::parse("li r32, 0\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::BadRegister(_)));
    }

    #[test]
    fn wrong_arity_rejected() {
        let e = Program::parse("add r1, r2\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::WrongArity { expected: 3, got: 2, .. }));
    }

    #[test]
    fn undefined_label_rejected() {
        let e = Program::parse("jmp nowhere\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownLabel(ref l) if l == "nowhere"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = Program::parse("x:\nnop\nx:\nnop\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateLabel(ref l) if l == "x"));
    }

    #[test]
    fn bad_memory_operand_rejected() {
        let e = Program::parse("ld r1, r2\n").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::BadMemoryOperand(_)));
    }

    #[test]
    fn underscores_in_numbers() {
        let p = Program::parse("li r1, 1_000_000\nli r2, 0x10_00\n").unwrap();
        assert_eq!(p.instr(0), Some(&Instr::LoadImm { rd: Reg::R1, imm: 1_000_000 }));
        assert_eq!(p.instr(1), Some(&Instr::LoadImm { rd: Reg::R2, imm: 0x1000 }));
    }

    #[test]
    fn offsetless_memory_operand_defaults_to_zero() {
        let p = Program::parse("ld r1, (r2)\n").unwrap();
        assert_eq!(p.instr(0), Some(&Instr::Load { rd: Reg::R1, base: Reg::R2, offset: 0 }));
    }
}
