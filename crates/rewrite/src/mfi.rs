//! Binary-rewriting memory fault isolation (the software baseline of
//! Figure 6).
//!
//! Classic segment-matching software fault isolation: the rewriter
//! statically inserts a check sequence before every unsafe instruction
//! (load, store, indirect jump), retargets every branch around the
//! inserted code, and reserves *scavenged* registers for the checks —
//! the paper notes a software implementation needs as many as five
//! dedicated registers plus an extra copy instruction so that a malicious
//! jump into the middle of a check cannot use an unchecked address.
//!
//! Register convention (the synthetic workloads deliberately leave these
//! free; real rewriters must scavenge or spill): `r25` legal code-segment
//! id, `r27` address copy, `r28` scratch, `r29` legal data-segment id.
//!
//! The check sequence before each unsafe instruction is four instructions
//! — the same work as the DISE4 variant, but resident in the static image:
//!
//! ```text
//! bis   rs, rs, r27        ; defensive copy
//! srl   r27, #26, r28      ; extract segment bits
//! cmpeq r28, r29, r28      ; compare with the legal segment
//! beq   r28, mfi_error     ; divert on mismatch
//! <original instruction>
//! ```

use crate::Result;
use dise_isa::reloc::{NewItem, NewTarget, Relocator};
use dise_isa::{Inst, Op, OpClass, Program, Reg};

/// Scavenged register holding the legal code-segment identifier.
pub const CODE_SEGMENT_REG: Reg = Reg::r(25);
/// Scavenged register holding the defensive address copy.
pub const COPY_REG: Reg = Reg::r(27);
/// Scavenged scratch register.
pub const SCRATCH_REG: Reg = Reg::r(28);
/// Scavenged register holding the legal data-segment identifier.
pub const DATA_SEGMENT_REG: Reg = Reg::r(29);

/// Static statistics of a rewrite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Unsafe instructions that received checks.
    pub checked: u64,
    /// Original text size in bytes.
    pub original_text: u64,
    /// Rewritten text size in bytes.
    pub rewritten_text: u64,
}

impl RewriteStats {
    /// Static code growth factor.
    pub fn growth(&self) -> f64 {
        self.rewritten_text as f64 / self.original_text.max(1) as f64
    }
}

/// The rewritten program and its statistics.
#[derive(Debug, Clone)]
pub struct RewriteOutput {
    /// The rewritten program (prologue prepended, error block appended,
    /// branches retargeted).
    pub program: Program,
    /// Static statistics.
    pub stats: RewriteStats,
}

/// The binary-rewriting fault-isolation tool.
///
/// ```
/// use dise_rewrite::RewriteMfi;
/// use dise_isa::{Assembler, Program};
///
/// let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
///     .assemble("stq r1, 0(r2)\nhalt")
///     .unwrap();
/// let out = RewriteMfi::new().rewrite(&p).unwrap();
/// assert!(out.stats.rewritten_text > p.text_size());
/// assert_eq!(out.stats.checked, 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RewriteMfi {
    skip_ijumps: bool,
}

impl RewriteMfi {
    /// Creates the rewriter.
    pub fn new() -> RewriteMfi {
        RewriteMfi::default()
    }

    /// Disables indirect-jump checking (loads and stores only).
    pub fn without_ijump_checks(mut self) -> RewriteMfi {
        self.skip_ijumps = true;
        self
    }

    /// The four-instruction check sequence for an unsafe instruction whose
    /// address register is `rs`, against the segment id in `segment_reg`.
    ///
    /// `site` rotates the roles of the scavenged copy/scratch registers
    /// and the compare's operand order, approximating the per-site
    /// register-allocation diversity a real rewriter's scavenging
    /// produces. (Uniform check sequences would be unrealistically easy
    /// for an *unparameterized* dictionary compressor to fold.)
    fn check_seq(rs: Reg, segment_reg: Reg, site: u64) -> Vec<NewItem> {
        let (copy, scratch) = if site & 1 == 0 {
            (COPY_REG, SCRATCH_REG)
        } else {
            (SCRATCH_REG, COPY_REG)
        };
        let (cmp_a, cmp_b) = if site & 2 == 0 {
            (scratch, segment_reg)
        } else {
            (segment_reg, scratch)
        };
        vec![
            NewItem::inst(Inst::alu_rr(Op::Bis, rs, rs, copy)),
            NewItem::inst(Inst::alu_ri(
                Op::Srl,
                copy,
                Program::SEGMENT_SHIFT as u8,
                scratch,
            )),
            NewItem::inst(Inst::alu_rr(Op::Cmpeq, cmp_a, cmp_b, scratch)),
            NewItem::branch(
                Inst::branch(Op::Beq, scratch, 0),
                NewTarget::Label("mfi_error".into()),
            ),
        ]
    }

    /// Rewrites `program`: prepends the segment-register prologue, inserts
    /// a check before every unsafe instruction, appends the error block
    /// (symbol `mfi_error`), and retargets all branches.
    ///
    /// # Errors
    ///
    /// Fails on malformed input (undecodable or already-compressed text).
    pub fn rewrite(&self, program: &Program) -> Result<RewriteOutput> {
        let mut r = Relocator::new(program)?;
        let mut checked = 0u64;
        // Prologue: initialize the scavenged segment registers. Attached to
        // the span of the instruction at the program's *entry point* (the
        // entry still maps to the span start, so it runs first).
        let prologue = vec![
            NewItem::inst(Inst::li(
                Program::segment_of(program.data_base) as i16,
                DATA_SEGMENT_REG,
            )),
            NewItem::inst(Inst::li(
                Program::segment_of(program.text_base) as i16,
                CODE_SEGMENT_REG,
            )),
        ];
        for i in 0..r.insts().len() {
            let (pc, inst) = r.insts()[i];
            let unsafe_mem = inst.op.class().is_mem();
            let unsafe_jump =
                inst.op.class() == OpClass::IndirectJump && !self.skip_ijumps;
            let mut items = if pc == program.entry {
                prologue.clone()
            } else {
                Vec::new()
            };
            if unsafe_mem || unsafe_jump {
                checked += 1;
                let segment_reg = if unsafe_mem {
                    DATA_SEGMENT_REG
                } else {
                    CODE_SEGMENT_REG
                };
                items.extend(Self::check_seq(
                    inst.rs().expect("memory/jump ops have an address register"),
                    segment_reg,
                    checked,
                ));
            }
            if items.is_empty() {
                r.keep()?;
            } else {
                // Re-append the original instruction (branches keep their
                // retargeting).
                let original = if inst.op.format() == dise_isa::op::Format::Branch {
                    let old_target = (pc + 4).wrapping_add_signed(inst.imm);
                    NewItem::branch(inst, NewTarget::OldAddr(old_target))
                } else {
                    NewItem::inst(inst)
                };
                items.push(original);
                r.replace(1, items)?;
            }
        }
        // Error block: record the violation and halt.
        r.append_tail(vec![
            NewItem::inst(Inst::li(1, SCRATCH_REG)).with_label("mfi_error"),
            NewItem::inst(Inst::halt()),
        ]);
        let out = r.finish()?;
        let stats = RewriteStats {
            checked,
            original_text: program.text_size(),
            rewritten_text: out.program.text_size(),
        };
        Ok(RewriteOutput {
            program: out.program,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::Assembler;
    use dise_sim::Machine;

    fn asm(listing: &str) -> Program {
        Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(listing)
            .unwrap()
    }

    #[test]
    fn rewritten_program_is_functionally_identical() {
        let p = asm(
            "       lda r1, 10(r31)
                    lda r9, 0(r31)
             loop:  stq r1, 0(r2)
                    ldq r3, 0(r2)
                    addq r9, r3, r9
                    subq r1, #1, r1
                    bne r1, loop
                    bsr f
                    halt
             f:     lda r4, 7(r31)
                    ret",
        );
        let data = Program::segment_base(Program::DATA_SEGMENT);
        let run = |program: &Program| {
            let mut m = Machine::load(program);
            m.set_reg(Reg::R2, data);
            m.run(100_000).unwrap();
            (m.reg(Reg::r(9)), m.reg(Reg::r(4)))
        };
        let out = RewriteMfi::new().rewrite(&p).unwrap();
        assert_eq!(run(&p), run(&out.program));
        assert_eq!(out.stats.checked, 2 + 1, "stq, ldq, and the ret");
        // Growth: 3 checks × 4 insts + 2 prologue + 2 error block.
        assert_eq!(
            out.stats.rewritten_text,
            out.stats.original_text + 4 * (3 * 4 + 2 + 2)
        );
    }

    #[test]
    fn violations_reach_the_error_block() {
        let p = asm("stq r1, 0(r2)\nlda r7, 1(r31)\nhalt");
        let out = RewriteMfi::new().rewrite(&p).unwrap();
        let mut m = Machine::load(&out.program);
        m.set_reg(Reg::R2, 0xBAD0_0000_0000);
        m.run(10_000).unwrap();
        let err_block = out.program.symbol("mfi_error").unwrap();
        assert!(m.pc().0 >= err_block, "halted inside the error block");
        assert_eq!(m.reg(Reg::r(7)), 0, "code after the store skipped");
        // And the store never happened.
        assert_eq!(m.mem.load_u64(0xBAD0_0000_0000), 0);
    }

    #[test]
    fn legal_accesses_pass() {
        let p = asm("stq r1, 0(r2)\nldq r3, 0(r2)\nhalt");
        let out = RewriteMfi::new().rewrite(&p).unwrap();
        let mut m = Machine::load(&out.program);
        m.set_reg(Reg::R1, 42);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.run(10_000).unwrap();
        assert_eq!(m.reg(Reg::r(3)), 42);
        let err_block = out.program.symbol("mfi_error").unwrap();
        assert!(m.pc().0 < err_block, "halted before the error block");
    }

    #[test]
    fn ijump_checks_optional() {
        let p = asm("bsr f\nhalt\nf: ret");
        let with = RewriteMfi::new().rewrite(&p).unwrap();
        let without = RewriteMfi::new().without_ijump_checks().rewrite(&p).unwrap();
        assert_eq!(with.stats.checked, 1);
        assert_eq!(without.stats.checked, 0);
        assert!(with.stats.rewritten_text > without.stats.rewritten_text);
    }

    #[test]
    fn growth_factor_reported() {
        let p = asm("stq r1, 0(r2)\nhalt");
        let out = RewriteMfi::new().rewrite(&p).unwrap();
        assert!(out.stats.growth() > 2.0);
    }
}
