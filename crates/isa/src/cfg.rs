//! Basic-block discovery.
//!
//! The code compressor only considers candidate sequences that do not
//! straddle basic blocks (paper §3.2), and the jump monitor approves every
//! block start. This module computes the standard leader-based basic-block
//! partition of a program's text, over one flat instruction list.

use crate::inst::Inst;
use crate::op::OpClass;
use crate::program::Program;
use crate::Result;

/// The basic-block partition of a program: its instructions in address
/// order, cut into maximal single-entry, single-exit straight-line runs.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Every instruction of the text with its PC, in address order.
    pub insts: Vec<(u64, Inst)>,
    /// Each block's first index in `insts` and its length, in address
    /// order; together they tile `insts`.
    pub blocks: Vec<(usize, usize)>,
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
        let insts = program.insts()?;
        // Uncompressed text holds one instruction every 4 bytes.
        let base = program.text_base();
        let mut leader = vec![false; insts.len()];
        let mut mark = |pc: u64| {
            let off = pc.wrapping_sub(base);
            if off.is_multiple_of(4) && off / 4 < insts.len() as u64 {
                leader[(off / 4) as usize] = true;
            }
        };
        mark(program.entry());
        mark(base);
        for (pc, inst) in &insts {
            if inst.is_app_ctrl() {
                mark(pc + 4);
                if inst.op.class() != OpClass::IndirectJump {
                    mark(inst.branch_target(*pc));
                }
            }
        }
        let mut blocks: Vec<(usize, usize)> =
            Vec::with_capacity(leader.iter().filter(|&&l| l).count());
        for (i, &lead) in leader.iter().enumerate() {
            match blocks.last_mut() {
                Some((_, len)) if !lead => *len += 1,
                _ => blocks.push((i, 1)),
            }
        }
        Ok(Cfg { insts, blocks })
    }

    /// The PC of each block's first instruction, in address order.
    pub fn block_starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.iter().map(|&(start, _)| self.insts[start].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::program::TextItem;

    fn blocks_of(listing: &str) -> Cfg {
        let p = Assembler::new(0x1000).assemble(listing).unwrap();
        Cfg::build(&p).unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = blocks_of("nop\nnop\nhalt");
        assert_eq!(cfg.blocks, [(0, 3)]);
        assert_eq!(cfg.block_starts().collect::<Vec<_>>(), [0x1000]);
    }

    #[test]
    fn loop_creates_blocks() {
        let cfg = blocks_of(
            "       lda r1, 3(r31)
             loop:  subq r1, #1, r1
                    bne r1, loop
                    halt",
        );
        // [lda], [subq; bne], [halt]: the branch target 0x1004 is a
        // leader, so it ends the first block.
        assert_eq!(cfg.blocks, [(0, 1), (1, 2), (3, 1)]);
        assert_eq!(cfg.block_starts().nth(1), Some(0x1004));
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
        assert_eq!(
            cfg.block_starts().collect::<Vec<_>>(),
            [0x1000, 0x1004, 0x1008]
        );
        assert_eq!(cfg.blocks[2], (2, 2));
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
        let mut next = 0;
        for &(start, len) in &cfg.blocks {
            assert_eq!(start, next);
            assert!(len > 0);
            next = start + len;
        }
        assert_eq!(next, 6);
        assert_eq!(cfg.insts.len(), 6);
        assert!(cfg.insts.iter().enumerate().all(|(i, (pc, _))| *pc == 0x1000 + 4 * i as u64));
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
