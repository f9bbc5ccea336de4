//! Basic-block discovery.
//!
//! The code compressor only considers candidate sequences that do not
//! straddle basic blocks (paper §3.2), and the relocation engine uses block
//! boundaries to verify that no branch targets the interior of a replaced
//! sequence. This module computes the standard leader-based basic-block
//! partition of a program's text.

use crate::inst::Inst;
use crate::op::OpClass;
use crate::program::{Program, TextItem};
use crate::{IsaError, Result};
use std::collections::BTreeSet;

/// A basic block: a maximal single-entry, single-exit straight-line run of
/// instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// PC of the first instruction.
    pub start: u64,
    /// The instructions with their PCs.
    pub insts: Vec<(u64, Inst)>,
}

impl BasicBlock {
    /// One-past-the-end PC.
    pub fn end(&self) -> u64 {
        self.insts
            .last()
            .map(|(pc, _)| pc + 4)
            .unwrap_or(self.start)
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// The basic-block partition of a program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks in address order; together they tile the text segment.
    pub blocks: Vec<BasicBlock>,
}

impl Cfg {
    /// Computes the basic blocks of `program`.
    ///
    /// Leaders are: the entry point, every PC-relative branch target, and
    /// every instruction following a control transfer (including the
    /// fall-through of calls, since `ret` returns there).
    ///
    /// # Errors
    ///
    /// Fails if the text contains 2-byte codewords (block analysis is
    /// performed on uncompressed images only) or undecodable bytes.
    pub fn build(program: &Program) -> Result<Cfg> {
        let mut insts = Vec::new();
        for entry in program.iter() {
            let (pc, item) = entry?;
            match item {
                TextItem::Inst(i) => insts.push((pc, i)),
                TextItem::Short(_) => {
                    return Err(IsaError::Reloc(
                        "cannot build a CFG over a compressed (short-codeword) image".into(),
                    ))
                }
            }
        }

        let mut leaders = BTreeSet::new();
        leaders.insert(program.entry());
        if let Some((first, _)) = insts.first() {
            leaders.insert(*first);
        }
        for (pc, inst) in &insts {
            if inst.is_app_ctrl() {
                leaders.insert(pc + 4);
                if inst.op.class() != OpClass::IndirectJump {
                    leaders.insert((pc + 4).wrapping_add_signed(inst.imm));
                }
            }
        }

        let mut blocks = Vec::new();
        let mut current: Option<BasicBlock> = None;
        for (pc, inst) in insts {
            if leaders.contains(&pc) {
                if let Some(b) = current.take() {
                    blocks.push(b);
                }
                current = Some(BasicBlock {
                    start: pc,
                    insts: Vec::new(),
                });
            }
            current
                .as_mut()
                .expect("first instruction is always a leader")
                .insts
                .push((pc, inst));
        }
        if let Some(b) = current.take() {
            blocks.push(b);
        }
        Ok(Cfg { blocks })
    }

    /// Total instruction count across all blocks.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(BasicBlock::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn blocks_of(listing: &str) -> Cfg {
        let p = Assembler::new(0x1000).assemble(listing).unwrap();
        Cfg::build(&p).unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = blocks_of("nop\nnop\nhalt");
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].len(), 3);
        assert_eq!(cfg.blocks[0].start, 0x1000);
        assert_eq!(cfg.blocks[0].end(), 0x100C);
    }

    #[test]
    fn loop_creates_blocks() {
        let cfg = blocks_of(
            "       lda r1, 3(r31)
             loop:  subq r1, #1, r1
                    bne r1, loop
                    halt",
        );
        // [lda], [subq; bne], [halt]
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[1].start, 0x1004);
        assert_eq!(cfg.blocks[1].len(), 2);
        // The branch target 0x1004 is a leader: it ends the first block.
        assert_eq!(cfg.blocks[0].end(), 0x1004);
    }

    #[test]
    fn call_fallthrough_is_a_leader() {
        let cfg = blocks_of(
            "       bsr f
                    halt
             f:     nop
                    ret",
        );
        // [bsr], [halt], [nop; ret]
        assert_eq!(cfg.blocks.len(), 3);
        assert_eq!(cfg.blocks[1].start, 0x1004);
        assert_eq!(cfg.blocks[2].start, 0x1008);
    }

    #[test]
    fn blocks_tile_the_text() {
        let cfg = blocks_of(
            "       lda r1, 10(r31)
             a:     subq r1, #1, r1
                    beq r1, b
                    br r31, a
             b:     addq r1, r1, r2
                    halt",
        );
        let mut pc = 0x1000;
        for b in &cfg.blocks {
            assert_eq!(b.start, pc);
            pc = b.end();
        }
        assert_eq!(cfg.num_insts(), 6);
    }

    #[test]
    fn compressed_image_rejected() {
        let p = Program::from_items(
            0,
            &[TextItem::Short(1), TextItem::Inst(Inst::halt())],
        )
        .unwrap();
        assert!(Cfg::build(&p).is_err());
    }
}
