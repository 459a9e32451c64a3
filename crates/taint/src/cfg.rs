//! Control-flow graph construction.
//!
//! Branch targets in the ISA are resolved instruction indices (validated
//! by [`Program::from_instrs`](prefender_isa::Program::from_instrs)), so
//! block discovery needs no symbol resolution: leaders are the entry,
//! every branch target, and every instruction following a branch or
//! `halt`. Successors fall out of each block's terminator.

use std::collections::BTreeSet;

use prefender_isa::{Instr, Program};

/// A maximal straight-line run of instructions `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Index of the block's first instruction.
    pub start: usize,
    /// One past the block's last instruction.
    pub end: usize,
    /// Successor block indices (taken target first for branches).
    pub succs: Vec<usize>,
}

/// The control-flow graph of one program. Blocks are ordered by `start`;
/// block 0 (when present) is the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Builds the CFG of `p`.
    pub fn build(p: &Program) -> Cfg {
        let instrs = p.instrs();
        let n = instrs.len();
        if n == 0 {
            return Cfg { blocks: Vec::new() };
        }

        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(0);
        for (i, instr) in instrs.iter().enumerate() {
            if let Some(t) = instr.branch_target() {
                leaders.insert(t);
            }
            let splits_after = instr.is_branch() || matches!(instr, Instr::Halt);
            if splits_after && i + 1 < n {
                leaders.insert(i + 1);
            }
        }

        let starts: Vec<usize> = leaders.into_iter().collect();
        let block_at = |idx: usize| -> usize { starts.partition_point(|&s| s <= idx) - 1 };

        let mut blocks = Vec::with_capacity(starts.len());
        for (b, &start) in starts.iter().enumerate() {
            let end = starts.get(b + 1).copied().unwrap_or(n);
            let mut succs = Vec::new();
            match &instrs[end - 1] {
                Instr::Jmp { target } => succs.push(block_at(*target)),
                Instr::Bnz { target, .. }
                | Instr::Beq { target, .. }
                | Instr::Blt { target, .. } => {
                    succs.push(block_at(*target));
                    if end < n {
                        let fall = block_at(end);
                        if !succs.contains(&fall) {
                            succs.push(fall);
                        }
                    }
                }
                Instr::Halt => {}
                _ => {
                    if end < n {
                        succs.push(block_at(end));
                    }
                }
            }
            blocks.push(BasicBlock { start, end, succs });
        }
        Cfg { blocks }
    }

    /// All blocks, ordered by start index.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_is_one_block() {
        let p = Program::parse("li r1, 1\nadd r2, r1, 1\nhalt\n").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0], BasicBlock { start: 0, end: 3, succs: vec![] });
    }

    #[test]
    fn loop_splits_blocks_and_back_edge() {
        // 0: li r1, 4        block 0
        // 1: sub r1, r1, 1   block 1 (branch target)
        // 2: bnz r1, @1
        // 3: halt            block 2
        let p = Program::parse("li r1, 4\nL0:\nsub r1, r1, 1\nbnz r1, L0\nhalt\n").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].succs, vec![1]);
        assert_eq!(cfg.blocks()[1].succs, vec![1, 2]);
        assert_eq!(cfg.blocks()[2].succs, Vec::<usize>::new());
    }

    #[test]
    fn jmp_has_single_successor() {
        let p = Program::parse("jmp L1\nL0:\nhalt\nL1:\nnop\njmp L0\n").unwrap();
        let cfg = Cfg::build(&p);
        // Blocks: [jmp], [halt], [nop; jmp].
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].succs, vec![2]);
        assert_eq!(cfg.blocks()[1].succs, Vec::<usize>::new());
        assert_eq!(cfg.blocks()[2].succs, vec![1]);
    }
}
