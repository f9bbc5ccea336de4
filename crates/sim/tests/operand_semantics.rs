//! The one operand description (`Op::operands`, read through
//! `Inst::sources`/`Inst::dest`) checked against the reference semantics:
//! the slow-path `Machine` executing a single instruction.
//!
//! For every opcode the machine executes (codewords aside), with `ra`,
//! `rb`, `rc` = r1, r2, r3:
//!
//! - perturbing a register the description says the opcode does not read
//!   leaves the step's outcome (registers, next PC, touched memory word)
//!   unchanged, for every value in a small fixed set;
//! - perturbing each register it does read changes the outcome for some
//!   value in that set (this is what catches a conditional move's read of
//!   its old `rc`);
//! - no register other than the described destination changes.

use dise_isa::op::Format;
use dise_isa::{Inst, Op, Program, Reg};
use dise_sim::{Machine, MachineConfig};

/// Registers the step may touch: r0–r30 (r31 reads as zero).
const REGS: usize = 31;

/// What one step did: every register after it, the next PC, and the
/// address and final value of the memory word it touched.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    regs: Vec<u64>,
    next_pc: u64,
    mem: Option<(u64, u64)>,
}

fn text_base() -> u64 {
    Program::segment_base(Program::TEXT_SEGMENT)
}

fn data_base() -> u64 {
    Program::segment_base(Program::DATA_SEGMENT)
}

/// `op` with `ra`, `rb`, `rc` = r1, r2, r3 in the fields its format has.
fn inst(op: Op, uses_lit: bool) -> Inst {
    let (a, b, c) = (Reg::r(1), Reg::r(2), Reg::r(3));
    match op.format() {
        Format::Memory => Inst::mem(op, a, b, 8),
        Format::Branch => Inst::branch(op, a, 8),
        Format::Jump => Inst::jump(op, a, b),
        Format::Operate if uses_lit => Inst::alu_ri(op, a, 5, c),
        Format::Operate => Inst::alu_rr(op, a, b, c),
        Format::Codeword | Format::Misc => Inst { op, ..Inst::nop() },
    }
}

/// Executes `inst` on a slow-path machine whose r0–r30 hold `regs`.
/// `None` if the step fails. A touched memory word is read back by a
/// probe load through r29 into r30 after the step's state is recorded.
fn step(inst: Inst, regs: &[u64; REGS]) -> Option<Outcome> {
    let (addr, dest) = (Reg::r(29), Reg::r(30));
    let probe = Inst::mem(Op::Ldq, dest, addr, 0);
    let text = [inst, Inst::halt(), probe, Inst::halt()];
    let program = Program::from_insts(text_base(), &text).unwrap();
    let mut m = Machine::with_config(&program, MachineConfig::default().slow_path());
    for (i, &v) in regs.iter().enumerate() {
        m.set_reg(Reg::r(i as u8), v);
    }
    let info = m.step().ok()??;
    let after = (0..REGS).map(|i| m.reg(Reg::r(i as u8))).collect();
    let next_pc = m.pc().0;
    let mem = info.mem_addr.map(|a| {
        m.set_reg(addr, a & !7);
        m.set_pc(text_base() + 8);
        m.step().unwrap();
        (a, m.reg(dest))
    });
    Some(Outcome {
        regs: after,
        next_pc,
        mem,
    })
}

/// `outcome` with register `r` blanked unless the step writes it: a
/// perturbed register the step does not write keeps its perturbed value.
fn masked(outcome: Option<Outcome>, r: Reg, dest: Option<Reg>) -> Option<Outcome> {
    outcome.map(|mut o| {
        if dest != Some(r) {
            o.regs[r.index()] = 0;
        }
        o
    })
}

#[test]
fn operand_description_matches_the_reference_semantics() {
    let addr = data_base() + 0x100;
    let perturbations = [0, 1, 5, 0x40, u64::MAX, addr, addr + 0x100];
    let baselines: Vec<[u64; REGS]> = [0, 1, u64::MAX]
        .into_iter()
        .map(|ra| {
            let mut regs: [u64; REGS] = std::array::from_fn(|i| 0x1000 * i as u64 + 0x11);
            (regs[1], regs[2], regs[3]) = (ra, addr, 0x77);
            regs
        })
        .collect();
    let mut checked = 0;
    for &op in Op::ALL.iter().filter(|op| !op.is_codeword()) {
        let lits: &[bool] = if op.format() == Format::Operate {
            &[false, true]
        } else {
            &[false]
        };
        for &uses_lit in lits {
            let inst = inst(op, uses_lit);
            let reads: Vec<Reg> = inst.sources().into_iter().flatten().collect();
            let dest = inst.dest();
            for base in &baselines {
                let o = step(inst, base).unwrap_or_else(|| panic!("`{inst}` fails"));
                for (i, (&before, &after)) in base.iter().zip(&o.regs).enumerate() {
                    if dest != Some(Reg::r(i as u8)) {
                        assert_eq!(before, after, "`{inst}` writes r{i}, not its destination");
                    }
                }
            }
            for r in (1..=4).map(Reg::r) {
                let changes = |base: &[u64; REGS], v: u64| {
                    let mut perturbed = *base;
                    perturbed[r.index()] = v;
                    masked(step(inst, base), r, dest) != masked(step(inst, &perturbed), r, dest)
                };
                let changed = baselines
                    .iter()
                    .any(|base| perturbations.iter().any(|&v| changes(base, v)));
                assert_eq!(
                    changed,
                    reads.contains(&r),
                    "`{inst}`: the description says it {} {r}",
                    if reads.contains(&r) {
                        "reads"
                    } else {
                        "does not read"
                    }
                );
            }
            checked += 1;
        }
    }
    let operate = Op::ALL.iter().filter(|op| op.format() == Format::Operate);
    assert_eq!(
        checked,
        Op::ALL.len() - Op::CODEWORDS.len() + operate.count()
    );
}
