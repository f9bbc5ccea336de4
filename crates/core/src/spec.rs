//! Replacement-sequence specifications and the instantiation logic (IL).
//!
//! Each replacement instruction field carries a *directive* saying how to
//! produce the actual field value from the replacement literal and the
//! trigger (paper §2.1). The instantiation logic is the combinational
//! circuit that executes these directives (§2.2); here it is the pure
//! function [`InstSpec::instantiate`].

use crate::{CoreError, Result};
use dise_isa::syntax::Fields;
use dise_isa::{Inst, Op, Reg};
use std::fmt;

/// Directive for a register field of a replacement instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegDirective {
    /// Use this register literally (covers both the paper's *literal* and
    /// *dedicated* directives — dedicated registers are just literal
    /// registers in the extended file).
    Literal(Reg),
    /// The trigger's `T.RS` (primary source / address register).
    TriggerRs,
    /// The trigger's `T.RT` (secondary source / store data register).
    TriggerRt,
    /// The trigger's `T.RD` (destination register).
    TriggerRd,
    /// Codeword parameter `slot` (0–2) interpreted as a register number
    /// (aware ACFs, paper §3.2 `T.P1`…`T.P3`).
    Param(u8),
}

impl RegDirective {
    pub(crate) fn resolve(&self, trigger: &Inst) -> Result<Reg> {
        let missing = |what: &str| {
            Err(CoreError::Instantiate(format!(
                "trigger `{trigger}` has no {what}"
            )))
        };
        match self {
            RegDirective::Literal(r) => Ok(*r),
            RegDirective::TriggerRs => trigger.rs().map_or_else(|| missing("T.RS"), Ok),
            RegDirective::TriggerRt => trigger.rt().map_or_else(|| missing("T.RT"), Ok),
            RegDirective::TriggerRd => trigger.rd().map_or_else(|| missing("T.RD"), Ok),
            RegDirective::Param(slot) => {
                if !trigger.op.is_codeword() {
                    return Err(CoreError::Instantiate(format!(
                        "T.P{} on non-codeword trigger `{trigger}`",
                        slot + 1
                    )));
                }
                Ok(Reg::r(trigger.codeword_params()[*slot as usize]))
            }
        }
    }

    /// True if this directive reads a field of the trigger.
    pub fn is_parameterized(&self) -> bool {
        !matches!(self, RegDirective::Literal(_))
    }
}

impl fmt::Display for RegDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegDirective::Literal(r) => write!(f, "{r}"),
            RegDirective::TriggerRs => f.write_str("T.RS"),
            RegDirective::TriggerRt => f.write_str("T.RT"),
            RegDirective::TriggerRd => f.write_str("T.RD"),
            RegDirective::Param(s) => write!(f, "T.P{}", s + 1),
        }
    }
}

/// Directive for the immediate field of a replacement instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImmDirective {
    /// Use this value literally.
    Literal(i64),
    /// The trigger's immediate field (`T.IMM`).
    TriggerImm,
    /// The trigger's PC (`T.PC`) — the paper notes encoding the trigger PC
    /// in a replacement immediate is useful for profiling ACFs.
    TriggerPc,
    /// For branches: displacement computed at expansion time so the branch
    /// reaches absolute address `target` from the trigger's PC. This is how
    /// transparent ACFs reach a fixed error handler with PC-relative
    /// branches.
    AbsTarget(u64),
    /// Codeword parameter `slot` (0–2): `value = ext(param) << shift`, sign-
    /// extending from 5 bits when `signed`.
    Param {
        /// Parameter slot (0–2).
        slot: u8,
        /// Left shift applied after extension.
        shift: u8,
        /// Sign-extend from 5 bits.
        signed: bool,
    },
    /// Two codeword parameters fused into a 10-bit field (`hi:lo`):
    /// `value = ext(hi·32 + lo) << shift`, sign-extending from 10 bits when
    /// `signed`. Used for parameterized PC-relative branch offsets in
    /// compression (paper §3.2).
    Param2 {
        /// Slot providing the low 5 bits.
        lo: u8,
        /// Slot providing the high 5 bits.
        hi: u8,
        /// Left shift applied after extension.
        shift: u8,
        /// Sign-extend from 10 bits.
        signed: bool,
    },
}

impl ImmDirective {
    pub(crate) fn resolve(&self, trigger: &Inst, trigger_pc: u64) -> Result<i64> {
        let param = |slot: u8| -> Result<u8> {
            if !trigger.op.is_codeword() {
                return Err(CoreError::Instantiate(format!(
                    "parameter directive on non-codeword trigger `{trigger}`"
                )));
            }
            Ok(trigger.codeword_params()[slot as usize])
        };
        Ok(match self {
            ImmDirective::Literal(v) => *v,
            ImmDirective::TriggerImm => trigger.imm,
            ImmDirective::TriggerPc => trigger_pc as i64,
            ImmDirective::AbsTarget(target) => *target as i64 - (trigger_pc as i64 + 4),
            ImmDirective::Param {
                slot,
                shift,
                signed,
            } => {
                let raw = param(*slot)? as i64;
                let v = if *signed { (raw << 59) >> 59 } else { raw };
                v << shift
            }
            ImmDirective::Param2 {
                lo,
                hi,
                shift,
                signed,
            } => {
                let raw = ((param(*hi)? as i64) << 5) | param(*lo)? as i64;
                let v = if *signed { (raw << 54) >> 54 } else { raw };
                v << shift
            }
        })
    }

    /// True if this directive reads a field of the trigger (or its PC).
    pub fn is_parameterized(&self) -> bool {
        !matches!(self, ImmDirective::Literal(_) | ImmDirective::AbsTarget(_))
    }
}

impl fmt::Display for ImmDirective {
    /// The DSL's immediate syntax; an operate literal's `#` is the
    /// format's, printed by [`dise_isa::syntax`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let param = |f: &mut fmt::Formatter<'_>, signed: bool, shift: u8| {
            if signed {
                f.write_str(".s")?;
            }
            if shift > 0 {
                write!(f, "<<{shift}")?;
            }
            Ok(())
        };
        match self {
            ImmDirective::Literal(v) => write!(f, "{v}"),
            ImmDirective::TriggerImm => f.write_str("T.IMM"),
            ImmDirective::TriggerPc => f.write_str("T.PC"),
            ImmDirective::AbsTarget(t) => write!(f, "={t:#x}"),
            ImmDirective::Param {
                slot,
                shift,
                signed,
            } => {
                write!(f, "T.P{}", slot + 1)?;
                param(f, *signed, *shift)
            }
            ImmDirective::Param2 {
                lo,
                hi,
                shift,
                signed,
            } => {
                write!(f, "T.P{}:{}", hi + 1, lo + 1)?;
                param(f, *signed, *shift)
            }
        }
    }
}

/// Directive for the opcode of a replacement instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpDirective {
    /// Use this opcode literally.
    Literal(Op),
    /// The trigger's opcode (`T.OP`) — e.g. to re-emit "the original kind of
    /// load" in a sequence shared by `ldl` and `ldq` patterns.
    Trigger,
}

impl fmt::Display for OpDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpDirective::Literal(op) => write!(f, "{op}"),
            OpDirective::Trigger => f.write_str("T.OP"),
        }
    }
}

/// One replacement-instruction specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InstSpec {
    /// `T.INSN` — the original trigger itself.
    Trigger,
    /// A templated instruction whose fields carry directives.
    Templated {
        /// Opcode directive.
        op: OpDirective,
        /// `ra` field directive.
        ra: RegDirective,
        /// `rb` field directive.
        rb: RegDirective,
        /// `rc` field directive.
        rc: RegDirective,
        /// Immediate directive.
        imm: ImmDirective,
        /// Operate format: second operand is the immediate literal.
        uses_lit: bool,
        /// This is a DISE-internal branch; `imm` must resolve to the
        /// absolute target index within the sequence.
        dise_branch: bool,
    },
}

impl InstSpec {
    /// A fully literal instruction spec (every field taken from `inst`).
    pub fn literal(inst: Inst) -> InstSpec {
        InstSpec::Templated {
            op: OpDirective::Literal(inst.op),
            ra: RegDirective::Literal(inst.ra),
            rb: RegDirective::Literal(inst.rb),
            rc: RegDirective::Literal(inst.rc),
            imm: ImmDirective::Literal(inst.imm),
            uses_lit: inst.uses_lit,
            dise_branch: inst.dise_branch,
        }
    }

    /// Executes the instantiation directives against a trigger, producing
    /// the replacement instruction (the IL function, paper §2.2).
    ///
    /// # Errors
    ///
    /// Fails if a directive requires a trigger field the trigger lacks
    /// (e.g. `T.RT` of a load) or a parameter of a non-codeword trigger.
    pub fn instantiate(&self, trigger: &Inst, trigger_pc: u64) -> Result<Inst> {
        match self {
            InstSpec::Trigger => Ok(*trigger),
            InstSpec::Templated {
                op,
                ra,
                rb,
                rc,
                imm,
                uses_lit,
                dise_branch,
            } => {
                let op = match op {
                    OpDirective::Literal(o) => *o,
                    OpDirective::Trigger => trigger.op,
                };
                Ok(Inst {
                    op,
                    ra: ra.resolve(trigger)?,
                    rb: rb.resolve(trigger)?,
                    rc: rc.resolve(trigger)?,
                    imm: imm.resolve(trigger, trigger_pc)?,
                    uses_lit: *uses_lit,
                    dise_branch: *dise_branch,
                })
            }
        }
    }

    /// True if any field reads the trigger (the entry costs 8 dictionary
    /// bytes instead of 4 in the compression accounting, paper §4.2).
    pub fn is_parameterized(&self) -> bool {
        match self {
            InstSpec::Trigger => true,
            InstSpec::Templated {
                op, ra, rb, rc, imm, ..
            } => {
                matches!(op, OpDirective::Trigger)
                    || ra.is_parameterized()
                    || rb.is_parameterized()
                    || rc.is_parameterized()
                    || imm.is_parameterized()
            }
        }
    }

    /// The dedicated registers this spec names, for composition renaming.
    pub fn dedicated_regs(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        if let InstSpec::Templated { ra, rb, rc, .. } = self {
            for d in [ra, rb, rc] {
                if let RegDirective::Literal(r) = d {
                    if r.is_dedicated() {
                        out.push(*r);
                    }
                }
            }
        }
        out
    }

    /// Rewrites dedicated-register literals through `f` (composition
    /// renaming support).
    pub fn rename_dedicated(&mut self, f: &mut impl FnMut(Reg) -> Reg) {
        if let InstSpec::Templated { ra, rb, rc, .. } = self {
            for d in [ra, rb, rc] {
                if let RegDirective::Literal(r) = d {
                    if r.is_dedicated() {
                        *d = RegDirective::Literal(f(*r));
                    }
                }
            }
        }
    }
}

impl fmt::Display for InstSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InstSpec::Trigger => f.write_str("T.INSN"),
            InstSpec::Templated {
                op: OpDirective::Literal(op),
                ra,
                rb,
                rc,
                imm,
                uses_lit,
                dise_branch,
            } => {
                let fields = Fields {
                    op,
                    ra,
                    rb,
                    rc,
                    imm,
                    uses_lit,
                    dise_branch,
                };
                fmt::Display::fmt(&fields, f)
            }
            // A templated opcode has no one operand layout.
            InstSpec::Templated {
                op,
                ra,
                rb,
                rc,
                imm,
                dise_branch,
                ..
            } => {
                let suffix = if dise_branch { ".d" } else { "" };
                write!(f, "{op}{suffix} ra={ra} rb={rb} rc={rc} imm={imm}")
            }
        }
    }
}

/// A complete replacement-sequence specification.
///
/// Invariants (checked by [`ReplacementSpec::validate`]): non-empty, and
/// every DISE-internal branch targets an index within the sequence (the
/// paper's control model: one dynamic replacement sequence cannot jump into
/// another).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplacementSpec {
    /// The instruction specs, in sequence order (DISEPC order).
    pub insts: Vec<InstSpec>,
}

impl ReplacementSpec {
    /// Creates a spec from instruction specs.
    pub fn new(insts: Vec<InstSpec>) -> ReplacementSpec {
        ReplacementSpec { insts }
    }

    /// The identity expansion `[T.INSN]`, used for negative patterns
    /// (paper §2.2).
    pub fn identity() -> ReplacementSpec {
        ReplacementSpec {
            insts: vec![InstSpec::Trigger],
        }
    }

    /// Sequence length in instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the sequence is empty (invalid; see `validate`).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Checks the structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadProduction`] if the sequence is empty or a
    /// DISE branch targets an index outside the sequence.
    pub fn validate(&self) -> Result<()> {
        if self.insts.is_empty() {
            return Err(CoreError::BadProduction(
                "empty replacement sequence".into(),
            ));
        }
        for (i, spec) in self.insts.iter().enumerate() {
            if let InstSpec::Templated {
                dise_branch: true,
                imm,
                ..
            } = spec
            {
                match imm {
                    ImmDirective::Literal(t) if (0..self.insts.len() as i64).contains(t) => {}
                    ImmDirective::Literal(t) => {
                        return Err(CoreError::BadProduction(format!(
                            "DISE branch at index {i} targets @{t}, outside the sequence"
                        )))
                    }
                    _ => {
                        return Err(CoreError::BadProduction(format!(
                            "DISE branch at index {i} must have a literal target"
                        )))
                    }
                }
            }
        }
        Ok(())
    }

    /// Instantiates the whole sequence against a trigger.
    ///
    /// # Errors
    ///
    /// See [`InstSpec::instantiate`].
    pub fn instantiate_all(&self, trigger: &Inst, trigger_pc: u64) -> Result<Vec<Inst>> {
        self.insts
            .iter()
            .map(|s| s.instantiate(trigger, trigger_pc))
            .collect()
    }

    /// All dedicated registers named anywhere in the sequence.
    pub fn dedicated_regs(&self) -> Vec<Reg> {
        let mut v: Vec<Reg> = self
            .insts
            .iter()
            .flat_map(InstSpec::dedicated_regs)
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Number of parameterized entries (8-byte dictionary entries in the
    /// compression accounting).
    pub fn num_parameterized(&self) -> usize {
        self.insts
            .iter()
            .filter(|s| s.is_parameterized())
            .count()
    }
}

impl fmt::Display for ReplacementSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.insts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(s: &str) -> Inst {
        s.parse().unwrap()
    }

    /// The paper's Figure 1 replacement sequence, built by hand.
    fn mfi_spec() -> ReplacementSpec {
        ReplacementSpec::new(vec![
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Srl),
                ra: RegDirective::TriggerRs,
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Literal(Reg::dr(1)),
                imm: ImmDirective::Literal(26),
                uses_lit: true,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Cmpeq),
                ra: RegDirective::Literal(Reg::dr(1)),
                rb: RegDirective::Literal(Reg::dr(2)),
                rc: RegDirective::Literal(Reg::dr(1)),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Beq),
                ra: RegDirective::Literal(Reg::dr(1)),
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Literal(Reg::ZERO),
                imm: ImmDirective::AbsTarget(0x7000),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Trigger,
        ])
    }

    #[test]
    fn figure_1_expansion() {
        let spec = mfi_spec();
        spec.validate().unwrap();
        let store = i("stq r0, 0(r2)");
        let out = spec.instantiate_all(&store, 0x1000).unwrap();
        assert_eq!(out[0].to_string(), "srl r2, #26, $dr1");
        assert_eq!(out[1].to_string(), "cmpeq $dr1, $dr2, $dr1");
        // Branch from trigger PC 0x1000 to 0x7000 → disp 0x5FFC.
        assert_eq!(out[2].imm, 0x7000 - 0x1004);
        assert_eq!(out[3], store);
        assert_eq!(spec.dedicated_regs(), vec![Reg::dr(1), Reg::dr(2)]);
    }

    #[test]
    fn trigger_field_directives() {
        let spec = InstSpec::Templated {
            op: OpDirective::Trigger,
            ra: RegDirective::TriggerRd,
            rb: RegDirective::TriggerRs,
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::TriggerImm,
            uses_lit: false,
            dise_branch: false,
        };
        let ld = i("ldq r5, 24(r7)");
        let out = spec.instantiate(&ld, 0).unwrap();
        assert_eq!(out, ld);
    }

    #[test]
    fn missing_trigger_field_is_an_error() {
        let spec = InstSpec::Templated {
            op: OpDirective::Literal(Op::Addq),
            ra: RegDirective::TriggerRt, // loads have no T.RT
            rb: RegDirective::Literal(Reg::ZERO),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::Literal(0),
            uses_lit: false,
            dise_branch: false,
        };
        assert!(matches!(
            spec.instantiate(&i("ldq r1, 0(r2)"), 0),
            Err(CoreError::Instantiate(_))
        ));
    }

    #[test]
    fn codeword_parameters() {
        // Figure 4 shape: `lda T.P1, T.P2(T.P1)`.
        let spec = InstSpec::Templated {
            op: OpDirective::Literal(Op::Lda),
            ra: RegDirective::Param(0),
            rb: RegDirective::Param(0),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::Param {
                slot: 1,
                shift: 0,
                signed: true,
            },
            uses_lit: false,
            dise_branch: false,
        };
        let cw = Inst::codeword(Op::Cw0, 2, 8, 0, 55);
        let out = spec.instantiate(&cw, 0).unwrap();
        assert_eq!(out.to_string(), "lda r2, 8(r2)");
        // Signed 5-bit parameter: 24 → −8.
        let cw_neg = Inst::codeword(Op::Cw0, 3, 24, 0, 55);
        let out = spec.instantiate(&cw_neg, 0).unwrap();
        assert_eq!(out.to_string(), "lda r3, -8(r3)");
    }

    #[test]
    fn fused_parameter_pairs() {
        let spec = InstSpec::Templated {
            op: OpDirective::Literal(Op::Br),
            ra: RegDirective::Literal(Reg::ZERO),
            rb: RegDirective::Literal(Reg::ZERO),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::Param2 {
                lo: 1,
                hi: 2,
                shift: 2,
                signed: true,
            },
            uses_lit: false,
            dise_branch: false,
        };
        // hi=31, lo=31 → raw 1023 → signed −1 → <<2 = −4.
        let cw = Inst::codeword(Op::Cw0, 0, 31, 31, 0);
        assert_eq!(spec.instantiate(&cw, 0).unwrap().imm, -4);
        // hi=1, lo=0 → raw 32 → <<2 = 128.
        let cw = Inst::codeword(Op::Cw0, 0, 0, 1, 0);
        assert_eq!(spec.instantiate(&cw, 0).unwrap().imm, 128);
    }

    #[test]
    fn parameter_on_non_codeword_fails() {
        let spec = InstSpec::Templated {
            op: OpDirective::Literal(Op::Addq),
            ra: RegDirective::Param(0),
            rb: RegDirective::Literal(Reg::ZERO),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::Literal(0),
            uses_lit: false,
            dise_branch: false,
        };
        assert!(spec.instantiate(&i("nop"), 0).is_err());
    }

    #[test]
    fn trigger_pc_directive() {
        let spec = InstSpec::Templated {
            op: OpDirective::Literal(Op::Lda),
            ra: RegDirective::Literal(Reg::dr(4)),
            rb: RegDirective::Literal(Reg::ZERO),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::TriggerPc,
            uses_lit: false,
            dise_branch: false,
        };
        assert_eq!(spec.instantiate(&i("nop"), 0x1234).unwrap().imm, 0x1234);
    }

    #[test]
    fn validation_rejects_bad_sequences() {
        assert!(ReplacementSpec::default().validate().is_err());
        let mut s = ReplacementSpec::identity();
        s.insts.push(InstSpec::Templated {
            op: OpDirective::Literal(Op::Bne),
            ra: RegDirective::Literal(Reg::dr(1)),
            rb: RegDirective::Literal(Reg::ZERO),
            rc: RegDirective::Literal(Reg::ZERO),
            imm: ImmDirective::Literal(7), // beyond the 2-entry sequence
            uses_lit: false,
            dise_branch: true,
        });
        assert!(matches!(s.validate(), Err(CoreError::BadProduction(_))));
    }

    #[test]
    fn parameterization_accounting() {
        let spec = mfi_spec();
        // srl (T.RS) and T.INSN are parameterized; cmpeq and beq are not.
        assert_eq!(spec.num_parameterized(), 2);
    }

    #[test]
    fn identity_expansion() {
        let id = ReplacementSpec::identity();
        let st = i("stq r1, 0(r2)");
        assert_eq!(id.instantiate_all(&st, 0).unwrap(), vec![st]);
    }

    #[test]
    fn rename_dedicated_registers() {
        let mut spec = mfi_spec();
        spec.insts
            .iter_mut()
            .for_each(|s| s.rename_dedicated(&mut |r| Reg::dr(r.dedicated_num().unwrap() + 8)));
        assert_eq!(spec.dedicated_regs(), vec![Reg::dr(9), Reg::dr(10)]);
    }
}
