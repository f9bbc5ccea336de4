//! The decoded instruction type.
//!
//! [`Inst`] is the form the functional machine, the timing pipeline, and the
//! DISE engine all operate on. Application instructions round-trip through
//! the 32-bit encoding ([`Inst::encode`]/[`Inst::decode`]); DISE
//! replacement-sequence instructions may additionally name dedicated
//! registers (`$dr0`–`$dr15`) and use DISE-internal branches, neither of
//! which is encodable — such instructions exist in decoded form only.

use crate::op::{Format, Op, OpClass};
use crate::reg::Reg;
use crate::{IsaError, Result};
use std::fmt;

/// Maximum codeword tag value (11 bits → 2048 replacement sequences per
/// reserved opcode, paper §2.1).
pub const MAX_TAG: u16 = 0x7FF;

/// A decoded instruction.
///
/// Field roles depend on [`Op::format`]:
///
/// | format  | `ra`            | `rb`          | `rc`   | `imm`            |
/// |---------|-----------------|---------------|--------|------------------|
/// | memory  | data (ld dest / st src) | address base | —      | 16-bit displacement |
/// | branch  | condition / link| —             | —      | 21-bit byte displacement (or DISEPC target for DISE branches) |
/// | jump    | link dest       | target        | —      | —                |
/// | operate | source 1        | source 2      | dest   | 8-bit literal if `uses_lit` |
/// | codeword| param 1         | param 2       | param 3| 11-bit tag       |
///
/// ```
/// use dise_isa::{Inst, Op, Reg};
/// let i = Inst::alu_ri(Op::Srl, Reg::R4, 26, Reg::dr(1));
/// assert_eq!(i.to_string(), "srl r4, #26, $dr1");
/// assert_eq!(i.dest(), Some(Reg::dr(1)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// The opcode.
    pub op: Op,
    /// First register field (role depends on format; see type docs).
    pub ra: Reg,
    /// Second register field.
    pub rb: Reg,
    /// Third register field (operate destination / codeword param 3).
    pub rc: Reg,
    /// Immediate: memory displacement, branch byte displacement, operate
    /// literal, or codeword tag.
    pub imm: i64,
    /// Operate format only: the second operand is the literal `imm`, not
    /// `rb`.
    pub uses_lit: bool,
    /// This is a DISE-internal branch: it transfers control within a
    /// replacement sequence by writing the DISEPC (paper §2.1). `imm` is
    /// then the *absolute target index* within the sequence, not a byte
    /// displacement. Never true for encodable application instructions.
    pub dise_branch: bool,
}

impl Inst {
    // ----- constructors ---------------------------------------------------

    /// Memory-format instruction: `op ra, disp(rb)`.
    pub fn mem(op: Op, ra: Reg, rb: Reg, disp: i16) -> Inst {
        debug_assert_eq!(op.format(), Format::Memory);
        Inst {
            op,
            ra,
            rb,
            rc: Reg::ZERO,
            imm: disp as i64,
            uses_lit: false,
            dise_branch: false,
        }
    }

    /// PC-relative branch: `op ra, disp` where `disp` is a byte offset from
    /// the *next* instruction's address.
    pub fn branch(op: Op, ra: Reg, disp: i32) -> Inst {
        debug_assert_eq!(op.format(), Format::Branch);
        Inst {
            op,
            ra,
            rb: Reg::ZERO,
            rc: Reg::ZERO,
            imm: disp as i64,
            uses_lit: false,
            dise_branch: false,
        }
    }

    /// DISE-internal branch: `op.d ra, target` where `target` is the
    /// absolute instruction index within the replacement sequence to jump
    /// to. Only valid inside DISE replacement sequences.
    pub fn dise_branch(op: Op, ra: Reg, target: u8) -> Inst {
        debug_assert_eq!(op.format(), Format::Branch);
        Inst {
            op,
            ra,
            rb: Reg::ZERO,
            rc: Reg::ZERO,
            imm: target as i64,
            uses_lit: false,
            dise_branch: true,
        }
    }

    /// Indirect jump: `op ra, (rb)` — jumps to the address in `rb`, writing
    /// the return address to `ra`.
    pub fn jump(op: Op, ra: Reg, rb: Reg) -> Inst {
        debug_assert_eq!(op.format(), Format::Jump);
        Inst {
            op,
            ra,
            rb,
            rc: Reg::ZERO,
            imm: 0,
            uses_lit: false,
            dise_branch: false,
        }
    }

    /// Register-register operate instruction: `op ra, rb, rc`.
    pub fn alu_rr(op: Op, ra: Reg, rb: Reg, rc: Reg) -> Inst {
        debug_assert_eq!(op.format(), Format::Operate);
        Inst {
            op,
            ra,
            rb,
            rc,
            imm: 0,
            uses_lit: false,
            dise_branch: false,
        }
    }

    /// Register-literal operate instruction: `op ra, #lit, rc`.
    pub fn alu_ri(op: Op, ra: Reg, lit: u8, rc: Reg) -> Inst {
        debug_assert_eq!(op.format(), Format::Operate);
        Inst {
            op,
            ra,
            rb: Reg::ZERO,
            rc,
            imm: lit as i64,
            uses_lit: true,
            dise_branch: false,
        }
    }

    /// Reserved DISE codeword: `op p1, p2, p3, tag`.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is ≥ 32 or `tag` exceeds [`MAX_TAG`].
    pub fn codeword(op: Op, p1: u8, p2: u8, p3: u8, tag: u16) -> Inst {
        assert_eq!(op.format(), Format::Codeword);
        assert!(p1 < 32 && p2 < 32 && p3 < 32, "codeword params are 5 bits");
        assert!(tag <= MAX_TAG, "codeword tag is 11 bits");
        Inst {
            op,
            ra: Reg::r(p1),
            rb: Reg::r(p2),
            rc: Reg::r(p3),
            imm: tag as i64,
            uses_lit: false,
            dise_branch: false,
        }
    }

    /// The parameters 2 and 3 of a codeword whose replacement sequence
    /// ends in a PC-relative branch `disp` bytes from the codeword's next
    /// PC: `disp / 4` as ten signed bits, the low five in parameter 2 and
    /// the high five in parameter 3. `None` unless `disp` is a multiple of
    /// 4 within ±2 KiB.
    pub fn codeword_disp_params(disp: i64) -> Option<[u8; 2]> {
        if disp % 4 != 0 || !(-(1 << 11)..(1 << 11)).contains(&disp) {
            return None;
        }
        let d10 = ((disp >> 2) & 0x3FF) as u16;
        Some([(d10 & 31) as u8, (d10 >> 5) as u8])
    }

    /// `nop`.
    pub fn nop() -> Inst {
        Inst {
            op: Op::Nop,
            ra: Reg::ZERO,
            rb: Reg::ZERO,
            rc: Reg::ZERO,
            imm: 0,
            uses_lit: false,
            dise_branch: false,
        }
    }

    /// `halt` — terminates the program.
    pub fn halt() -> Inst {
        Inst {
            op: Op::Halt,
            ..Inst::nop()
        }
    }

    /// Register move, expressed as `bis src, src, dst`.
    pub fn mov(src: Reg, dst: Reg) -> Inst {
        Inst::alu_rr(Op::Bis, src, src, dst)
    }

    /// Load a small signed constant: `lda dst, imm(r31)`.
    pub fn li(imm: i16, dst: Reg) -> Inst {
        Inst::mem(Op::Lda, dst, Reg::ZERO, imm)
    }

    // ----- field roles for DISE parameterization (paper §2.1) -------------

    /// The trigger's `T.RS` register: its primary source — the address base
    /// for memory operations, the condition register for branches, the jump
    /// target register, or the first ALU operand.
    pub fn rs(&self) -> Option<Reg> {
        match self.op.format() {
            Format::Memory => Some(self.rb),
            Format::Branch => Some(self.ra),
            Format::Jump => Some(self.rb),
            Format::Operate => Some(self.ra),
            Format::Codeword | Format::Misc => None,
        }
    }

    /// The trigger's `T.RT` register: its secondary source — the data
    /// register for stores or the second ALU operand.
    pub fn rt(&self) -> Option<Reg> {
        match self.op.format() {
            Format::Memory if self.op.class() == OpClass::Store => Some(self.ra),
            Format::Operate if !self.uses_lit => Some(self.rb),
            _ => None,
        }
    }

    /// The trigger's `T.RD` register: its destination, if any.
    pub fn rd(&self) -> Option<Reg> {
        self.dest()
    }

    /// The destination register, if the instruction writes one. Writes to
    /// the zero register are still reported (the machine discards them).
    pub fn dest(&self) -> Option<Reg> {
        match self.op.format() {
            Format::Memory => match self.op.class() {
                OpClass::Store => None,
                _ => Some(self.ra), // loads, lda, ldah
            },
            Format::Branch => match self.op.class() {
                // br/bsr write the link register.
                OpClass::UncondBranch => Some(self.ra),
                _ => None,
            },
            Format::Jump => Some(self.ra),
            Format::Operate => Some(self.rc),
            Format::Codeword | Format::Misc => None,
        }
    }

    /// The source registers read by this instruction (0–2 of them).
    pub fn sources(&self) -> [Option<Reg>; 2] {
        match self.op.format() {
            Format::Memory => match self.op.class() {
                OpClass::Store => [Some(self.rb), Some(self.ra)],
                _ => [Some(self.rb), None],
            },
            Format::Branch => {
                if self.op.class() == OpClass::CondBranch {
                    [Some(self.ra), None]
                } else {
                    [None, None]
                }
            }
            Format::Jump => [Some(self.rb), None],
            Format::Operate => {
                if self.uses_lit {
                    [Some(self.ra), None]
                } else {
                    [Some(self.ra), Some(self.rb)]
                }
            }
            Format::Codeword | Format::Misc => [None, None],
        }
    }

    // ----- predicates ------------------------------------------------------

    /// True if this instruction may transfer control at the *application*
    /// level (changes PC). DISE-internal branches transfer control at the
    /// replacement-sequence level instead and return false here.
    pub fn is_app_ctrl(&self) -> bool {
        self.op.class().is_ctrl() && !self.dise_branch
    }

    /// True if this instruction references any DISE dedicated register.
    pub fn uses_dedicated(&self) -> bool {
        self.ra.is_dedicated() || self.rb.is_dedicated() || self.rc.is_dedicated()
    }

    /// Codeword accessors: the three 5-bit parameters.
    ///
    /// # Panics
    ///
    /// Panics if this is not a codeword.
    pub fn codeword_params(&self) -> [u8; 3] {
        assert!(self.op.is_codeword());
        [
            self.ra.arch_num().unwrap(),
            self.rb.arch_num().unwrap(),
            self.rc.arch_num().unwrap(),
        ]
    }

    /// Codeword accessor: the 11-bit replacement-sequence tag.
    ///
    /// # Panics
    ///
    /// Panics if this is not a codeword.
    pub fn codeword_tag(&self) -> u16 {
        assert!(self.op.is_codeword());
        self.imm as u16
    }

    /// Validates that all fields are in range for this opcode's format.
    /// [`Inst::encode`] additionally requires architectural registers only.
    pub fn validate(&self) -> Result<()> {
        let bad = |why: &str| Err(IsaError::Unencodable(format!("{self}: {why}")));
        match self.op.format() {
            Format::Memory => {
                if i16::try_from(self.imm).is_err() {
                    return Err(IsaError::ImmOutOfRange {
                        op: self.op,
                        value: self.imm,
                    });
                }
            }
            Format::Branch => {
                if self.dise_branch {
                    if !(0..=255).contains(&self.imm) {
                        return bad("DISE branch target out of range");
                    }
                } else if !(-(1 << 20)..(1 << 20)).contains(&self.imm) {
                    return Err(IsaError::ImmOutOfRange {
                        op: self.op,
                        value: self.imm,
                    });
                }
            }
            Format::Operate => {
                if self.uses_lit && !(0..=255).contains(&self.imm) {
                    return Err(IsaError::ImmOutOfRange {
                        op: self.op,
                        value: self.imm,
                    });
                }
            }
            Format::Codeword => {
                if !(0..=MAX_TAG as i64).contains(&self.imm) {
                    return bad("codeword tag out of range");
                }
                if self.uses_dedicated() {
                    return bad("codeword params must be architectural");
                }
            }
            Format::Jump | Format::Misc => {}
        }
        Ok(())
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        match self.op.format() {
            Format::Memory => write!(f, "{m} {}, {}({})", self.ra, self.imm, self.rb),
            Format::Branch => {
                if self.dise_branch {
                    write!(f, "{m}.d {}, @{}", self.ra, self.imm)
                } else {
                    write!(f, "{m} {}, {}", self.ra, self.imm)
                }
            }
            Format::Jump => write!(f, "{m} {}, ({})", self.ra, self.rb),
            Format::Operate => {
                if self.uses_lit {
                    write!(f, "{m} {}, #{}, {}", self.ra, self.imm, self.rc)
                } else {
                    write!(f, "{m} {}, {}, {}", self.ra, self.rb, self.rc)
                }
            }
            Format::Codeword => {
                let [p1, p2, p3] = [self.ra, self.rb, self.rc];
                write!(f, "{m} {p1}, {p2}, {p3}, tag={}", self.imm)
            }
            Format::Misc => f.write_str(m),
        }
    }
}

impl fmt::Debug for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_field_roles() {
        let i = Inst::mem(Op::Ldq, Reg::R1, Reg::R2, 8);
        assert_eq!(i.dest(), Some(Reg::R1));
        assert_eq!(i.rs(), Some(Reg::R2));
        assert_eq!(i.rt(), None);
        assert_eq!(i.sources(), [Some(Reg::R2), None]);
    }

    #[test]
    fn store_field_roles() {
        let i = Inst::mem(Op::Stq, Reg::R1, Reg::R2, -16);
        assert_eq!(i.dest(), None);
        assert_eq!(i.rs(), Some(Reg::R2));
        assert_eq!(i.rt(), Some(Reg::R1));
        assert_eq!(i.sources(), [Some(Reg::R2), Some(Reg::R1)]);
    }

    #[test]
    fn operate_field_roles() {
        let rr = Inst::alu_rr(Op::Addq, Reg::R1, Reg::R2, Reg::R3);
        assert_eq!(rr.dest(), Some(Reg::R3));
        assert_eq!(rr.sources(), [Some(Reg::R1), Some(Reg::R2)]);
        let ri = Inst::alu_ri(Op::Addq, Reg::R1, 7, Reg::R3);
        assert_eq!(ri.sources(), [Some(Reg::R1), None]);
        assert_eq!(ri.rt(), None);
    }

    #[test]
    fn branch_and_jump_roles() {
        let b = Inst::branch(Op::Bne, Reg::R4, -8);
        assert!(b.is_app_ctrl());
        assert_eq!(b.sources(), [Some(Reg::R4), None]);
        assert_eq!(b.dest(), None);

        let bsr = Inst::branch(Op::Bsr, Reg::RA, 100);
        assert_eq!(bsr.dest(), Some(Reg::RA));

        let jsr = Inst::jump(Op::Jsr, Reg::RA, Reg::R5);
        assert_eq!(jsr.dest(), Some(Reg::RA));
        assert_eq!(jsr.rs(), Some(Reg::R5));
    }

    #[test]
    fn dise_branch_is_not_app_ctrl() {
        let d = Inst::dise_branch(Op::Beq, Reg::dr(1), 3);
        assert!(!d.is_app_ctrl());
        assert!(d.uses_dedicated());
        assert_eq!(d.to_string(), "beq.d $dr1, @3");
    }

    #[test]
    fn codeword_accessors() {
        let cw = Inst::codeword(Op::Cw0, 2, 8, 0, 1234);
        assert_eq!(cw.codeword_params(), [2, 8, 0]);
        assert_eq!(cw.codeword_tag(), 1234);
        assert_eq!(cw.dest(), None);
        assert_eq!(cw.sources(), [None, None]);
    }

    #[test]
    #[should_panic]
    fn codeword_tag_range_checked() {
        let _ = Inst::codeword(Op::Cw0, 0, 0, 0, 4096);
    }

    #[test]
    fn validate_catches_out_of_range() {
        let mut i = Inst::mem(Op::Ldq, Reg::R1, Reg::R2, 0);
        i.imm = 40000;
        assert!(matches!(
            i.validate(),
            Err(IsaError::ImmOutOfRange { op: Op::Ldq, .. })
        ));
        let mut b = Inst::branch(Op::Br, Reg::ZERO, 0);
        b.imm = 1 << 21;
        assert!(b.validate().is_err());
        let ok = Inst::alu_ri(Op::Sll, Reg::R1, 255, Reg::R1);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Inst::mem(Op::Ldq, Reg::R1, Reg::R2, 8).to_string(),
            "ldq r1, 8(r2)"
        );
        assert_eq!(
            Inst::alu_rr(Op::Addq, Reg::R1, Reg::R2, Reg::R3).to_string(),
            "addq r1, r2, r3"
        );
        assert_eq!(
            Inst::jump(Op::Ret, Reg::ZERO, Reg::RA).to_string(),
            "ret r31, (r26)"
        );
        assert_eq!(Inst::nop().to_string(), "nop");
        assert_eq!(
            Inst::codeword(Op::Cw1, 1, 2, 3, 7).to_string(),
            "cw1 r1, r2, r3, tag=7"
        );
    }
}
