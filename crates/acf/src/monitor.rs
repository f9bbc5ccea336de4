//! Reference monitoring (paper §3.1).
//!
//! Reference monitors "implement security policies by observing program
//! execution, terminating it if some policy is violated". The paper
//! argues DISE is an unusually good home for them: the PT/RT access model
//! keeps the policy tamper-proof, decoder placement plus the atomic
//! replacement-sequence control model makes checks unbypassable, and
//! productions are small declarative rules amenable to reasoning.
//!
//! This module implements the canonical control-flow policy: **indirect
//! control transfers may only land on approved targets**. An approval
//! table (one word per `2^granule_shift`-byte region of text, outside the
//! application's reach in a real deployment) is consulted on every
//! `jmp`/`jsr`/`ret`; unapproved targets divert to the violation handler
//! *before* the transfer executes. Combined with fault isolation this
//! closes the classic SFI loophole of jumping past checks.

use crate::Result;
use dise_core::{
    ImmDirective, InstSpec, OpDirective, Pattern, ProductionSet, RegDirective, ReplacementSpec,
};
use dise_isa::{Op, OpClass, Program, Reg};

/// Dedicated scratch register holding the table slot address.
pub const SLOT_REG: Reg = Reg::dr(4);
/// Dedicated register holding the approval-table base.
pub const TABLE_REG: Reg = Reg::dr(5);
/// Dedicated register holding the slot-index mask.
pub const MASK_REG: Reg = Reg::dr(6);
/// Dedicated scratch register holding the loaded approval word.
pub const FLAG_REG: Reg = Reg::dr(7);

/// The indirect-jump reference monitor.
///
/// ```
/// use dise_acf::monitor::JumpMonitor;
/// let set = JumpMonitor::new(4).with_handler(0x9000).productions().unwrap();
/// assert_eq!(set.num_rules(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JumpMonitor {
    granule_shift: u8,
    handler: u64,
}

impl JumpMonitor {
    /// Creates a monitor with approval granules of `2^granule_shift`
    /// bytes (4 → one flag per 16-byte region).
    pub fn new(granule_shift: u8) -> JumpMonitor {
        JumpMonitor {
            granule_shift,
            handler: 0,
        }
    }

    /// Sets the policy-violation handler address.
    pub fn with_handler(mut self, addr: u64) -> JumpMonitor {
        self.handler = addr;
        self
    }

    /// Builds the production set: every indirect jump looks its target up
    /// in the approval table and diverts on a zero flag.
    ///
    /// # Errors
    ///
    /// Propagates production-validation errors.
    pub fn productions(&self) -> Result<ProductionSet> {
        let lit = RegDirective::Literal;
        let zero = lit(Reg::ZERO);
        let seq = ReplacementSpec::new(vec![
            // Granule index of the jump target (T.RS = target register).
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Srl),
                ra: RegDirective::TriggerRs,
                rb: zero,
                rc: lit(SLOT_REG),
                imm: ImmDirective::Literal(self.granule_shift as i64),
                uses_lit: true,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::And),
                ra: lit(SLOT_REG),
                rb: lit(MASK_REG),
                rc: lit(SLOT_REG),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::S8addq),
                ra: lit(SLOT_REG),
                rb: lit(TABLE_REG),
                rc: lit(SLOT_REG),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Ldq),
                ra: lit(FLAG_REG),
                rb: lit(SLOT_REG),
                rc: zero,
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Beq),
                ra: lit(FLAG_REG),
                rb: zero,
                rc: zero,
                imm: ImmDirective::AbsTarget(self.handler),
                uses_lit: false,
                dise_branch: false,
            },
            InstSpec::Trigger,
        ]);
        let mut set = ProductionSet::new();
        set.add_transparent(Pattern::opclass(OpClass::IndirectJump), seq)?;
        Ok(set)
    }

    /// Initializes a machine: `table` holds one word per granule and
    /// `entries` (a power of two) bounds the index.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn init_machine(&self, machine: &mut dise_sim::Machine, table: u64, entries: u64) {
        assert!(entries.is_power_of_two());
        machine.set_reg(TABLE_REG, table);
        machine.set_reg(MASK_REG, entries - 1);
    }

    /// Approves (or revokes) indirect transfers into the granule containing
    /// `target`.
    pub fn set_approved(
        &self,
        machine: &mut dise_sim::Machine,
        table: u64,
        entries: u64,
        target: u64,
        approved: bool,
    ) {
        let slot = (target >> self.granule_shift) & (entries - 1);
        machine.mem.store_u64(table + slot * 8, approved as u64);
    }

    /// Convenience: approve every call-return point and function entry of
    /// a program (the policy a compiler-assisted deployment would emit):
    /// instructions following calls, plus every branch target.
    ///
    /// # Errors
    ///
    /// Propagates CFG-construction errors on malformed programs.
    pub fn approve_program_targets(
        &self,
        machine: &mut dise_sim::Machine,
        table: u64,
        entries: u64,
        program: &Program,
    ) -> Result<()> {
        let cfg = dise_isa::Cfg::build(program).map_err(crate::AcfError::Isa)?;
        for start in cfg.block_starts() {
            self.set_approved(machine, table, entries, start, true);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::{DiseEngine, EngineConfig};
    use dise_isa::Assembler;
    use dise_sim::Machine;

    const ENTRIES: u64 = 1 << 16;

    fn setup(listing: &str) -> (Program, Machine, JumpMonitor, u64) {
        let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(listing)
            .unwrap();
        let monitor = JumpMonitor::new(2).with_handler(p.symbol("violation").unwrap());
        let mut m = Machine::load(&p);
        m.attach_engine(
            DiseEngine::with_productions(EngineConfig::default(), monitor.productions().unwrap())
                .unwrap(),
        );
        let table = Program::segment_base(Program::DATA_SEGMENT) + 0x200000;
        monitor.init_machine(&mut m, table, ENTRIES);
        (p, m, monitor, table)
    }

    #[test]
    fn approved_returns_pass() {
        let (p, mut m, monitor, table) = setup(
            "       bsr f
                    lda r3, 1(r31)
                    halt
             f:     ret
             violation: halt",
        );
        monitor
            .approve_program_targets(&mut m, table, ENTRIES, &p)
            .unwrap();
        m.run(1_000).unwrap();
        assert_eq!(m.reg(Reg::r(3)), 1, "approved return completed");
    }

    #[test]
    fn unapproved_targets_divert_before_transfer() {
        let (p, mut m, _monitor, _table) = setup(
            "       bsr f
                    lda r3, 1(r31)
                    halt
             f:     ret
             violation: lda r9, 1(r31)
                    halt",
        );
        // Nothing approved: the ret must divert.
        m.run(1_000).unwrap();
        assert_eq!(m.reg(Reg::r(9)), 1, "violation handler ran");
        assert_eq!(m.reg(Reg::r(3)), 0, "the transfer never happened");
        assert!(m.pc().0 >= p.symbol("violation").unwrap());
    }

    #[test]
    fn forged_return_address_is_caught() {
        // The classic attack: overwrite the return address, jump to an
        // unapproved gadget.
        let (p, mut m, monitor, table) = setup(
            "       bsr f
                    halt
             f:     lda r26, 0(r4)      ; clobber the link register
                    ret
             gadget: lda r8, 1(r31)     ; \"attacker\" code
                    halt
             violation: lda r9, 1(r31)
                    halt",
        );
        monitor
            .approve_program_targets(&mut m, table, ENTRIES, &p)
            .unwrap();
        // Revoke the gadget (it is a block leader, so it was approved).
        let gadget = p.symbol("gadget").unwrap();
        monitor.set_approved(&mut m, table, ENTRIES, gadget, false);
        m.set_reg(Reg::r(4), gadget);
        m.run(1_000).unwrap();
        assert_eq!(m.reg(Reg::r(9)), 1, "forged return caught");
        assert_eq!(m.reg(Reg::r(8)), 0, "gadget never executed");
    }
}
