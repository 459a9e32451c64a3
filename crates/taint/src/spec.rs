//! Taint source declarations.

use prefender_attacks::AttackSpec;
use prefender_isa::Reg;

/// A half-open byte range `[start, end)` of secret memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRange {
    /// First secret byte.
    pub start: u64,
    /// One past the last secret byte.
    pub end: u64,
}

impl MemRange {
    /// The 8-byte memory cell at `addr` — one machine word, the unit the
    /// ISA's `ld`/`st` move.
    pub fn cell(addr: u64) -> MemRange {
        MemRange { start: addr, end: addr.saturating_add(8) }
    }

    /// `true` when `addr` lies in the range.
    pub fn contains(&self, addr: u64) -> bool {
        (self.start..self.end).contains(&addr)
    }
}

/// Where secret data enters a program: registers tainted at entry and/or
/// memory ranges whose loads yield tainted values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintSpec {
    /// Registers holding secret values at program entry.
    pub regs: Vec<Reg>,
    /// Memory ranges holding secret values at program entry.
    pub ranges: Vec<MemRange>,
}

impl TaintSpec {
    /// No sources: every report over this spec is empty.
    pub fn empty() -> TaintSpec {
        TaintSpec::default()
    }

    /// One secret machine word at `addr` — the usual single-secret layout.
    pub fn secret_cell(addr: u64) -> TaintSpec {
        TaintSpec { regs: Vec::new(), ranges: vec![MemRange::cell(addr)] }
    }

    /// The spec an attack scenario implies: the secret cell the runner
    /// writes before execution ([`AttackLayout::secret_addr`]
    /// — the value [`AttackSpec::with_secret`] selects).
    ///
    /// [`AttackLayout::secret_addr`]: prefender_attacks::AttackLayout
    pub fn for_attack(spec: &AttackSpec) -> TaintSpec {
        TaintSpec::secret_cell(spec.layout.secret_addr)
    }

    /// Adds a register source.
    pub fn with_reg(mut self, r: Reg) -> TaintSpec {
        self.regs.push(r);
        self
    }

    /// `true` when a load at `addr` reads declared secret memory.
    pub(crate) fn mem_source(&self, addr: u64) -> bool {
        self.ranges.iter().any(|r| r.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefender_attacks::{AttackKind, DefenseConfig};

    #[test]
    fn secret_cell_covers_one_word() {
        let s = TaintSpec::secret_cell(0x100);
        assert!(s.mem_source(0x100));
        assert!(s.mem_source(0x107));
        assert!(!s.mem_source(0x108));
        assert!(!s.mem_source(0xFF));
    }

    #[test]
    fn for_attack_uses_layout_secret() {
        let spec = AttackSpec::new(AttackKind::FlushReload, DefenseConfig::None);
        let t = TaintSpec::for_attack(&spec);
        assert!(t.mem_source(spec.layout.secret_addr));
        assert!(t.regs.is_empty());
    }
}
