//! Memory fault isolation (paper §3.1, Figure 1; evaluated in §4.1).
//!
//! Segment-matching software fault isolation as a transparent DISE ACF:
//! every load, store and indirect jump is macro-expanded into a sequence
//! that extracts the segment (high-order) bits of the address it is about
//! to use, compares them against the module's legal segment identifier
//! held in a dedicated register, and diverts control to an error handler
//! if they differ.
//!
//! Two variants, matching Figure 6:
//!
//! * [`MfiVariant::Dise3`] — three check instructions. The DISE control
//!   model disallows jumps into the middle of replacement sequences, so no
//!   defensive copy of the address register is needed.
//! * [`MfiVariant::Dise4`] — four check instructions, the same sequence
//!   binary rewriting must use: the address is first copied to a register
//!   the application cannot repoint, so a malicious jump *past* the check
//!   cannot use an unchecked address.
//!
//! Dedicated-register convention: `$dr0` address copy (DISE4 only), `$dr1`
//! scratch, `$dr2` legal data-segment identifier, `$dr3` legal code-segment
//! identifier (for indirect jumps).

use crate::Result;
use dise_core::{ImmDirective, InstSpec, OpDirective, Pattern, ProductionSet, RegDirective, ReplacementSpec};
use dise_isa::{Op, OpClass, Program, Reg};

/// Which fault-isolation formulation to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MfiVariant {
    /// Segment matching, three check instructions (`srl`, `cmpeq`, `beq`)
    /// before the original (Figure 6's `DISE3`).
    Dise3,
    /// Segment matching, four check instructions (a defensive address copy
    /// first), mirroring the binary-rewriting formulation (`DISE4`).
    Dise4,
    /// Sandboxing (§3.1's other SFI flavor): instead of checking, the
    /// address's segment bits are *forced* to the legal segment and the
    /// operation re-emitted against the sanitized address — two extra
    /// instructions and no branch. Violations are contained, not reported.
    ///
    /// As in Wahbe et al.'s original sandboxing, only the *base register*
    /// is masked; the instruction's 16-bit displacement is applied
    /// afterwards, so accesses can stray up to 32KB past a segment edge.
    /// Real deployments surround each segment with guard zones of at
    /// least that size; this reproduction's segments are 64MB apart, which
    /// more than satisfies the requirement.
    Sandbox,
}

impl MfiVariant {
    /// Number of extra instructions per checked memory operation.
    pub fn check_insts(self) -> usize {
        match self {
            MfiVariant::Sandbox => 2,
            MfiVariant::Dise3 => 3,
            MfiVariant::Dise4 => 4,
        }
    }
}

/// Memory fault isolation ACF builder.
///
/// ```
/// use dise_acf::{Mfi, MfiVariant};
/// let productions = Mfi::new(MfiVariant::Dise3)
///     .with_error_handler(0x7000)
///     .productions()
///     .unwrap();
/// // Loads, stores and indirect jumps are covered.
/// assert_eq!(productions.num_rules(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mfi {
    variant: MfiVariant,
    error_handler: u64,
    check_ijumps: bool,
}

/// Dedicated register holding the legal data-segment identifier.
pub const SEGMENT_REG: Reg = Reg::dr(2);
/// Dedicated register holding the legal code-segment identifier.
pub const CODE_SEGMENT_REG: Reg = Reg::dr(3);
/// Scratch dedicated register.
pub const SCRATCH_REG: Reg = Reg::dr(1);
/// Address-copy dedicated register (DISE4 only) / sanitized-address
/// register (sandboxing).
pub const COPY_REG: Reg = Reg::dr(0);
/// Sandboxing: dedicated register holding the segment-bit mask.
pub const MASK_REG: Reg = Reg::dr(10);
/// Sandboxing: dedicated register holding the legal data-segment base.
pub const DATA_BASE_REG: Reg = Reg::dr(11);
/// Sandboxing: dedicated register holding the legal code-segment base.
pub const CODE_BASE_REG: Reg = Reg::dr(12);

impl Mfi {
    /// Creates a builder for the given variant. The error handler defaults
    /// to address 0 — set it with [`Mfi::with_error_handler`].
    pub fn new(variant: MfiVariant) -> Mfi {
        Mfi {
            variant,
            error_handler: 0,
            check_ijumps: true,
        }
    }

    /// Sets the error-handler address the checks branch to on violation.
    pub fn with_error_handler(mut self, addr: u64) -> Mfi {
        self.error_handler = addr;
        self
    }

    /// Disables indirect-jump checking (loads and stores only).
    pub fn without_ijump_checks(mut self) -> Mfi {
        self.check_ijumps = false;
        self
    }

    /// The check sequence for triggers whose legal segment lives in
    /// `segment_reg`.
    fn check_spec(&self, segment_reg: Reg) -> ReplacementSpec {
        let lit = RegDirective::Literal;
        let mut insts = Vec::new();
        // DISE4: defensively copy the address register first and check the
        // copy (mirrors the rewriting sequence).
        let addr = if self.variant == MfiVariant::Dise4 {
            insts.push(InstSpec::Templated {
                op: OpDirective::Literal(Op::Bis),
                ra: RegDirective::TriggerRs,
                rb: RegDirective::TriggerRs,
                rc: lit(COPY_REG),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            });
            lit(COPY_REG)
        } else {
            RegDirective::TriggerRs
        };
        insts.push(InstSpec::Templated {
            op: OpDirective::Literal(Op::Srl),
            ra: addr,
            rb: RegDirective::Literal(Reg::ZERO),
            rc: lit(SCRATCH_REG),
            imm: ImmDirective::Literal(Program::SEGMENT_SHIFT as i64),
            uses_lit: true,
            dise_branch: false,
        });
        insts.push(InstSpec::Templated {
            op: OpDirective::Literal(Op::Cmpeq),
            ra: lit(SCRATCH_REG),
            rb: lit(segment_reg),
            rc: lit(SCRATCH_REG),
            imm: ImmDirective::Literal(0),
            uses_lit: false,
            dise_branch: false,
        });
        insts.push(InstSpec::Templated {
            op: OpDirective::Literal(Op::Beq),
            ra: lit(SCRATCH_REG),
            rb: RegDirective::Literal(Reg::ZERO),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::AbsTarget(self.error_handler),
            uses_lit: false,
            dise_branch: false,
        });
        insts.push(InstSpec::Trigger);
        ReplacementSpec::new(insts)
    }

    /// The sandboxing sequence: force the address's segment bits to the
    /// legal segment, then re-emit the trigger against the sanitized
    /// address in `$dr0`. `data_role` picks the trigger field that holds
    /// the datum (destination for loads, source for stores, link for
    /// jumps).
    fn sandbox_spec(base_reg: Reg, data_role: RegDirective, jump: bool) -> ReplacementSpec {
        let lit = RegDirective::Literal;
        let reemit = if jump {
            InstSpec::Templated {
                op: OpDirective::Trigger,
                ra: data_role,
                rb: lit(COPY_REG),
                rc: RegDirective::Literal(Reg::ZERO),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            }
        } else {
            InstSpec::Templated {
                op: OpDirective::Trigger,
                ra: data_role,
                rb: lit(COPY_REG),
                rc: RegDirective::Literal(Reg::ZERO),
                imm: ImmDirective::TriggerImm,
                uses_lit: false,
                dise_branch: false,
            }
        };
        ReplacementSpec::new(vec![
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Bic),
                ra: RegDirective::TriggerRs,
                rb: lit(MASK_REG),
                rc: lit(COPY_REG),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Bis),
                ra: lit(COPY_REG),
                rb: lit(base_reg),
                rc: lit(COPY_REG),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            },
            reemit,
        ])
    }

    /// Builds the production set: loads and stores checked (or sandboxed)
    /// against the data segment, indirect jumps (if enabled) against the
    /// code segment.
    ///
    /// # Errors
    ///
    /// Propagates production-validation errors.
    pub fn productions(&self) -> Result<ProductionSet> {
        let mut set = ProductionSet::new();
        if self.variant == MfiVariant::Sandbox {
            set.add_transparent(
                Pattern::opclass(OpClass::Load),
                Self::sandbox_spec(DATA_BASE_REG, RegDirective::TriggerRd, false),
            )?;
            set.add_transparent(
                Pattern::opclass(OpClass::Store),
                Self::sandbox_spec(DATA_BASE_REG, RegDirective::TriggerRt, false),
            )?;
            if self.check_ijumps {
                set.add_transparent(
                    Pattern::opclass(OpClass::IndirectJump),
                    Self::sandbox_spec(CODE_BASE_REG, RegDirective::TriggerRd, true),
                )?;
            }
            return Ok(set);
        }
        let data_check = self.check_spec(SEGMENT_REG);
        let id = set.add_transparent(Pattern::opclass(OpClass::Store), data_check)?;
        set.add_pattern(Pattern::opclass(OpClass::Load), id)?;
        if self.check_ijumps {
            set.add_transparent(
                Pattern::opclass(OpClass::IndirectJump),
                self.check_spec(CODE_SEGMENT_REG),
            )?;
        }
        Ok(set)
    }

    /// Initializes a machine's dedicated registers for these checks: the
    /// legal data segment is the program's data/stack area, the legal code
    /// segment its text segment. Sets up both the segment-matching
    /// identifiers and the sandboxing mask/base registers, so either
    /// variant (or a composition of both) works after one call.
    pub fn init_machine(machine: &mut dise_sim::Machine) {
        let data = Program::segment_of(machine.program().data_base);
        let code = Program::segment_of(machine.program().text_base);
        machine.set_reg(SEGMENT_REG, data);
        machine.set_reg(CODE_SEGMENT_REG, code);
        machine.set_reg(MASK_REG, !((1u64 << Program::SEGMENT_SHIFT) - 1));
        machine.set_reg(DATA_BASE_REG, Program::segment_base(data));
        machine.set_reg(CODE_BASE_REG, Program::segment_base(code));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::{DiseEngine, EngineConfig};
    use dise_isa::{Assembler, Inst};
    use dise_sim::Machine;

    fn asm(listing: &str) -> Program {
        Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(listing)
            .unwrap()
    }

    #[test]
    fn dise3_expansion_shape() {
        let set = Mfi::new(MfiVariant::Dise3)
            .with_error_handler(0x7000)
            .productions()
            .unwrap();
        let st: Inst = "stq r1, 0(r2)".parse().unwrap();
        let spec = set.seq(set.lookup(&st).unwrap()).unwrap();
        assert_eq!(spec.len(), 4);
        let insts = spec.instantiate_all(&st, 0x1000).unwrap();
        assert_eq!(insts[0].to_string(), "srl r2, #26, $dr1");
        assert_eq!(insts[1].to_string(), "cmpeq $dr1, $dr2, $dr1");
        assert_eq!(insts[3], st);
    }

    #[test]
    fn dise4_adds_the_copy() {
        let set = Mfi::new(MfiVariant::Dise4)
            .with_error_handler(0x7000)
            .productions()
            .unwrap();
        let ld: Inst = "ldq r1, 8(r9)".parse().unwrap();
        let spec = set.seq(set.lookup(&ld).unwrap()).unwrap();
        assert_eq!(spec.len(), 5);
        let insts = spec.instantiate_all(&ld, 0).unwrap();
        assert_eq!(insts[0].to_string(), "bis r9, r9, $dr0");
        assert_eq!(insts[1].to_string(), "srl $dr0, #26, $dr1");
    }

    #[test]
    fn ijumps_check_code_segment() {
        let set = Mfi::new(MfiVariant::Dise3).productions().unwrap();
        let ret: Inst = "ret".parse().unwrap();
        let spec = set.seq(set.lookup(&ret).unwrap()).unwrap();
        let insts = spec.instantiate_all(&ret, 0).unwrap();
        // The check compares against the code-segment register.
        assert_eq!(insts[1].rb, CODE_SEGMENT_REG);
    }

    #[test]
    fn sandbox_expansion_shape() {
        let set = Mfi::new(MfiVariant::Sandbox).productions().unwrap();
        let st: Inst = "stq r5, 8(r9)".parse().unwrap();
        let spec = set.seq(set.lookup(&st).unwrap()).unwrap();
        assert_eq!(spec.len(), 3);
        let insts = spec.instantiate_all(&st, 0).unwrap();
        assert_eq!(insts[0].to_string(), "bic r9, $dr10, $dr0");
        assert_eq!(insts[1].to_string(), "bis $dr0, $dr11, $dr0");
        // The re-emitted store uses the sanitized address register.
        assert_eq!(insts[2].to_string(), "stq r5, 8($dr0)");
        // Loads keep their destination.
        let ld: Inst = "ldq r5, 8(r9)".parse().unwrap();
        let spec = set.seq(set.lookup(&ld).unwrap()).unwrap();
        let insts = spec.instantiate_all(&ld, 0).unwrap();
        assert_eq!(insts[2].to_string(), "ldq r5, 8($dr0)");
    }

    #[test]
    fn sandboxing_contains_wild_stores() {
        let p = asm(
            "       stq r1, 16(r2)
                    ldq r3, 16(r2)
                    halt",
        );
        let mut m = Machine::load(&p);
        let set = Mfi::new(MfiVariant::Sandbox).productions().unwrap();
        m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        Mfi::init_machine(&mut m);
        m.set_reg(Reg::R1, 0xFEED);
        // A forged pointer into another module's segment: the sandbox
        // forces the access back into the legal data segment.
        let wild = 0x4F00_0000_0123u64;
        m.set_reg(Reg::R2, wild);
        let r = m.run(1_000).unwrap();
        assert!(r.halted());
        // Nothing was written outside the data segment...
        assert_eq!(m.mem.load_u64(wild + 16), 0);
        // ...the clamped location received the value, and the load (also
        // sandboxed to the same clamped address) sees it.
        let clamped = Program::segment_base(Program::DATA_SEGMENT)
            + (wild & ((1 << Program::SEGMENT_SHIFT) - 1));
        assert_eq!(m.mem.load_u64(clamped + 16), 0xFEED);
        assert_eq!(m.reg(Reg::r(3)), 0xFEED);
    }

    #[test]
    fn sandboxing_preserves_legal_semantics() {
        let p = asm(
            "       bsr f
                    stq r1, 0(r2)
                    ldq r3, 0(r2)
                    halt
             f:     lda r1, 77(r31)
                    ret",
        );
        let run = |sandbox: bool| {
            let mut m = Machine::load(&p);
            if sandbox {
                let set = Mfi::new(MfiVariant::Sandbox).productions().unwrap();
                m.attach_engine(
                    DiseEngine::with_productions(EngineConfig::default(), set).unwrap(),
                );
                Mfi::init_machine(&mut m);
            }
            m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
            m.run(1_000).unwrap();
            (m.reg(Reg::R1), m.reg(Reg::r(3)))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn end_to_end_pass_and_fail() {
        let p = asm(
            "       bsr f
                    stq r1, 0(r2)
                    halt
             f:     ret
             error: lda r9, 1(r31)
                    halt",
        );
        let run = |bad_address: bool| {
            let mut m = Machine::load(&p);
            let set = Mfi::new(MfiVariant::Dise3)
                .with_error_handler(p.symbol("error").unwrap())
                .productions()
                .unwrap();
            m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
            Mfi::init_machine(&mut m);
            m.set_reg(
                Reg::R2,
                if bad_address {
                    0xDEAD_0000_0000 // far outside the data segment
                } else {
                    Program::segment_base(Program::DATA_SEGMENT)
                },
            );
            m.run(10_000).unwrap();
            m.reg(Reg::r(9))
        };
        assert_eq!(run(false), 0, "legal addresses pass silently");
        assert_eq!(run(true), 1, "illegal addresses reach the handler");
    }

    #[test]
    fn stack_accesses_need_matching_segment() {
        // SP lives in the stack segment, which differs from the data
        // segment: a store through SP trips a data-segment-only check.
        // (Real deployments load $dr2 per-module; this documents the
        // behavior.)
        let p = asm(
            "       stq r1, -8(r30)
                    halt
             error: lda r9, 1(r31)
                    halt",
        );
        let mut m = Machine::load(&p);
        let set = Mfi::new(MfiVariant::Dise3)
            .with_error_handler(p.symbol("error").unwrap())
            .productions()
            .unwrap();
        m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        m.set_reg(SEGMENT_REG, Program::STACK_SEGMENT);
        m.run(10_000).unwrap();
        assert_eq!(m.reg(Reg::r(9)), 0, "stack store passes a stack-segment check");
    }
}
