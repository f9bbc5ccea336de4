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
//! The check is not written here: it is instantiated from the DISE4
//! production set of [`dise_acf::Mfi`], so the rewriter inserts exactly
//! what DISE4 expands (§4.1: DISE4 "mirrors rewriting"). Which
//! instructions are checked is `ProductionSet::lookup`'s answer, and the
//! check's dedicated registers are mapped to scavenged ones (the synthetic
//! workloads deliberately leave these free; real rewriters must scavenge
//! or spill): `$dr0` address copy → `r27`, `$dr1` scratch → `r28`, `$dr2`
//! legal data-segment id → `r29`, `$dr3` legal code-segment id → `r25`.
//! The DISE4 branch to the error handler becomes a branch to the
//! appended `mfi_error` block.
//!
//! ```text
//! bis   rs, rs, r27        ; defensive copy
//! srl   r27, #26, r28      ; extract segment bits
//! cmpeq r28, r29, r28      ; compare with the legal segment
//! beq   r28, mfi_error     ; divert on mismatch
//! <original instruction>
//! ```
//!
//! **Per-site diversity.** A real rewriter's register scavenging gives
//! different sites different registers, and uniform check sequences would
//! be unrealistically easy for an *unparameterized* dictionary compressor
//! (Figure 8's rewrite+dedicated) to fold. So the `n`-th check (from 1)
//! swaps the copy and scratch registers when `n` is odd (a per-site
//! register map) and commutes `cmpeq`'s two sources when `n & 2` is set
//! (which no renaming can express).

use crate::Result;
use dise_acf::{mfi as dise_mfi, AcfError, Mfi, MfiVariant};
use dise_core::{ImmDirective, InstSpec, ReplacementSpec};
use dise_isa::reloc::{NewItem, NewTarget, Relocator};
use dise_isa::{Inst, Op, Program, Reg};

/// Scavenged register holding the legal code-segment identifier.
pub const CODE_SEGMENT_REG: Reg = Reg::r(25);
/// Scavenged register holding the defensive address copy.
pub const COPY_REG: Reg = Reg::r(27);
/// Scavenged scratch register.
pub const SCRATCH_REG: Reg = Reg::r(28);
/// Scavenged register holding the legal data-segment identifier.
pub const DATA_SEGMENT_REG: Reg = Reg::r(29);

/// The error block's label; every check branches to it.
const ERROR_LABEL: &str = "mfi_error";

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
pub struct RewriteMfi;

impl RewriteMfi {
    /// Creates the rewriter.
    pub fn new() -> RewriteMfi {
        RewriteMfi
    }

    /// The scavenged register standing for the check's dedicated register
    /// `dr` at check number `site`.
    fn scavenged(dr: Reg, site: u64) -> Reg {
        let (copy, scratch) = if site & 1 == 0 {
            (COPY_REG, SCRATCH_REG)
        } else {
            (SCRATCH_REG, COPY_REG)
        };
        match dr {
            dise_mfi::COPY_REG => copy,
            dise_mfi::SCRATCH_REG => scratch,
            dise_mfi::SEGMENT_REG => DATA_SEGMENT_REG,
            dise_mfi::CODE_SEGMENT_REG => CODE_SEGMENT_REG,
            _ => unreachable!("the DISE4 check names no other register: {dr}"),
        }
    }

    /// The check items DISE4's `spec` expands before `trigger` (at `pc`),
    /// as check number `site` of the rewrite. `spec` ends in the trigger
    /// itself, which the caller re-appends.
    fn check_seq(
        spec: &ReplacementSpec,
        trigger: &Inst,
        pc: u64,
        site: u64,
    ) -> Result<Vec<NewItem>> {
        let (last, checks) = spec.insts.split_last().expect("non-empty spec");
        debug_assert_eq!(*last, InstSpec::Trigger);
        checks
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.rename_dedicated(&mut |dr| Self::scavenged(dr, site));
                let mut inst = s.instantiate(trigger, pc).map_err(AcfError::from)?;
                if inst.op == Op::Cmpeq && site & 2 != 0 {
                    (inst.ra, inst.rb) = (inst.rb, inst.ra);
                }
                Ok(match s {
                    InstSpec::Templated {
                        imm: ImmDirective::AbsTarget(_),
                        ..
                    } => NewItem::branch(inst, NewTarget::Label(ERROR_LABEL.into())),
                    _ => NewItem::inst(inst),
                })
            })
            .collect()
    }

    /// Rewrites `program`: prepends the segment-register prologue, inserts
    /// a check before every instruction DISE4 would expand, appends the
    /// error block (symbol `mfi_error`), and retargets all branches.
    ///
    /// # Errors
    ///
    /// Fails on malformed input (undecodable or already-compressed text).
    pub fn rewrite(&self, program: &Program) -> Result<RewriteOutput> {
        let productions = Mfi::new(MfiVariant::Dise4).productions()?;
        let mut r = Relocator::new(program)?;
        let mut checked = 0u64;
        // Prologue: initialize the scavenged segment registers. Attached to
        // the span of the instruction at the program's *entry point* (the
        // entry still maps to the span start, so it runs first).
        let prologue = [
            NewItem::inst(Inst::li(
                Program::segment_of(program.data_base()) as i16,
                DATA_SEGMENT_REG,
            )),
            NewItem::inst(Inst::li(
                Program::segment_of(program.text_base()) as i16,
                CODE_SEGMENT_REG,
            )),
        ];
        for i in 0..r.insts().len() {
            let (pc, inst) = r.insts()[i];
            let at_entry = pc == program.entry();
            let check = match productions.lookup(&inst) {
                Some(id) => {
                    checked += 1;
                    let spec = productions.seq(id).expect("lookup returns an installed id");
                    Self::check_seq(spec, &inst, pc, checked)?
                }
                None => Vec::new(),
            };
            let prologue = prologue.iter().filter(|_| at_entry).cloned();
            r.keep_after(prologue.chain(check))?;
        }
        // Error block: record the violation and halt.
        r.append_tail([
            NewItem::inst(Inst::li(1, SCRATCH_REG)).with_label(ERROR_LABEL),
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
    fn growth_factor_reported() {
        let p = asm("stq r1, 0(r2)\nhalt");
        let out = RewriteMfi::new().rewrite(&p).unwrap();
        assert!(out.stats.growth() > 2.0);
    }
}
