//! Shared seeded-fuzz generators for the workspace's differential test
//! suites (test support — no production code path uses this module).
//!
//! Four suites used to carry copy-pasted generators: `tests/props.rs`
//! (encoding/pattern/compression properties), the predecode round-trip
//! fuzz in `dise-isa`, the fast-path differential fuzz in `dise-sim`,
//! and the compressor differential fuzz in `dise-acf`. They now draw from
//! this module, as does the snapshot/restore resume fuzz — one generator,
//! one documented seed corpus, no fifth copy.
//!
//! ## Seed corpus
//!
//! Every suite seeds [`rand::rngs::StdRng`] (the workspace's
//! deterministic offline stand-in) from a documented base so failures
//! replay exactly:
//!
//! | suite                              | seeds                                   |
//! |------------------------------------|-----------------------------------------|
//! | `tests/props.rs`                   | [`SEED_PROPS`] `^ 0..=7` per property   |
//! | `dise-isa` predecode fuzz          | [`SEED_PREDECODE`] `^ 0..=1`            |
//! | `dise-sim` fast-path fuzz          | `0..6`, `10..16`, `20..26`, `30..36` (one decade per RT organization) |
//! | `dise-acf` compressor differential | `0..k`, `10..10+k`, `20..20+k` per benchmark |
//! | `tests/snapshot_resume.rs`         | [`SEED_SNAPSHOT`] `+ case index`        |
//!
//! A failing case prints its seed (and case index); re-running the same
//! loop replays it byte-identically — the generators below are pure
//! functions of the RNG stream.

use dise_core::spec::{ImmDirective, InstSpec, OpDirective, RegDirective, ReplacementSpec};
use dise_isa::{Assembler, Inst, Op, Program, ProgramBuilder, Reg, TextItem};
use dise_sim::Machine;
use rand::rngs::StdRng;
use rand::Rng;

/// Base seed for the `tests/props.rs` property suite.
pub const SEED_PROPS: u64 = 0xD15E_0001;
/// Base seed for the `dise-isa` predecode round-trip fuzz.
pub const SEED_PREDECODE: u64 = 0xD15E_0004;
/// Base seed for the snapshot/restore resume fuzz.
pub const SEED_SNAPSHOT: u64 = 0xD15E_0009;

/// The first `n` registers (architectural then dedicated, by raw index)
/// as one vector — the differential suites' "all observable registers"
/// comparison key.
pub fn arch_state(m: &Machine, n: u8) -> Vec<u64> {
    (0..n).map(|i| m.reg(Reg::from_index(i))).collect()
}

/// Picks one element of a non-empty slice.
pub fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Any architectural register (`r0`–`r31`).
pub fn arch_reg(rng: &mut StdRng) -> Reg {
    Reg::r(rng.gen_range(0..32u8))
}

/// An arbitrary *encodable* instruction: every format the assembler can
/// emit (memory, branch, jump, operate register/literal, aware codeword,
/// nop, halt), over the union of the opcode vocabularies the consolidated
/// suites exercised.
pub fn encodable_inst(rng: &mut StdRng) -> Inst {
    const MEM_OPS: [Op; 6] = [Op::Lda, Op::Ldah, Op::Ldl, Op::Ldq, Op::Stl, Op::Stq];
    const BRANCH_OPS: [Op; 10] = [
        Op::Br,
        Op::Bsr,
        Op::Beq,
        Op::Bne,
        Op::Blt,
        Op::Ble,
        Op::Bgt,
        Op::Bge,
        Op::Blbc,
        Op::Blbs,
    ];
    const JUMP_OPS: [Op; 3] = [Op::Jmp, Op::Jsr, Op::Ret];
    const ALU_OPS: [Op; 22] = [
        Op::Addq,
        Op::Subq,
        Op::Addl,
        Op::Subl,
        Op::S4addq,
        Op::S8addq,
        Op::Mulq,
        Op::And,
        Op::Bis,
        Op::Xor,
        Op::Bic,
        Op::Ornot,
        Op::Sll,
        Op::Srl,
        Op::Sra,
        Op::Cmpeq,
        Op::Cmplt,
        Op::Cmple,
        Op::Cmpult,
        Op::Cmpule,
        Op::Cmoveq,
        Op::Cmovne,
    ];
    match rng.gen_range(0..8u32) {
        0 => Inst::mem(
            pick(rng, &MEM_OPS),
            arch_reg(rng),
            arch_reg(rng),
            rng.gen_range(i16::MIN..=i16::MAX),
        ),
        1 => Inst::branch(
            pick(rng, &BRANCH_OPS),
            arch_reg(rng),
            rng.gen_range(-(1i32 << 20)..(1i32 << 20)),
        ),
        2 => Inst::jump(pick(rng, &JUMP_OPS), arch_reg(rng), arch_reg(rng)),
        3 => Inst::alu_rr(
            pick(rng, &ALU_OPS),
            arch_reg(rng),
            arch_reg(rng),
            arch_reg(rng),
        ),
        4 => Inst::alu_ri(
            pick(rng, &ALU_OPS),
            arch_reg(rng),
            rng.gen_range(0..=255u8),
            arch_reg(rng),
        ),
        5 => Inst::codeword(
            Op::Cw0,
            rng.gen_range(0..32u8),
            rng.gen_range(0..32u8),
            rng.gen_range(0..32u8),
            rng.gen_range(0..2048u16),
        ),
        6 => Inst::nop(),
        _ => Inst::halt(),
    }
}

/// A random but *well-formed* straight-line-plus-loop program: all memory
/// traffic goes through `r2` (point it at the data segment before
/// running), every loop is counted, and the program halts.
pub fn arb_program(rng: &mut StdRng) -> Program {
    let steps = rng.gen_range(4..60usize);
    let mut b = ProgramBuilder::new(Program::segment_base(Program::TEXT_SEGMENT));
    b.push(Inst::li(3, Reg::r(20)));
    b.label("outer");
    for _ in 0..steps {
        let kind: u8 = rng.gen_range(0..6);
        let x = Reg::r(rng.gen_range(1..8u8));
        let y = Reg::r(rng.gen_range(1..8u8));
        let k: u8 = rng.gen_range(0..16);
        match kind {
            0 => {
                b.push(Inst::mem(Op::Ldq, x, Reg::R2, (k as i16) * 8));
            }
            1 => {
                b.push(Inst::mem(Op::Stq, x, Reg::R2, (k as i16) * 8));
            }
            2 => {
                b.push(Inst::alu_rr(Op::Addq, x, y, x));
            }
            3 => {
                b.push(Inst::alu_ri(Op::Sll, x, k % 8, y));
            }
            4 => {
                b.push(Inst::alu_rr(Op::Xor, x, y, y));
            }
            _ => {
                b.push(Inst::alu_ri(Op::Subq, x, 1, x));
            }
        }
    }
    b.push(Inst::alu_ri(Op::Subq, Reg::r(20), 1, Reg::r(20)));
    b.branch_to(Op::Bne, Reg::r(20), "outer");
    b.push(Inst::halt());
    let mut p = b.finish().unwrap();
    p.entry = p.text_base;
    p
}

/// A randomized text segment: full instructions interleaved with 2-byte
/// short codewords, so item starts land on both word and halfword
/// alignments (the predecode fuzz's image generator).
pub fn random_items(rng: &mut StdRng) -> Vec<TextItem> {
    let n = rng.gen_range(4..48usize);
    (0..n)
        .map(|_| {
            if rng.gen_range(0..4u32) == 0 {
                TextItem::Short(rng.gen_range(0..=0x7FFu16))
            } else {
                TextItem::Inst(encodable_inst(rng))
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Engine-attached fuzz fixtures (fast-path and snapshot suites)

/// The aware `(cw_op, tag)` pairs [`engine_program`] triggers.
pub const AWARE_PAIRS: [(Op, u16); 4] = [
    (Op::Cw0, 1),
    (Op::Cw0, 2),
    (Op::Cw1, 1),
    (Op::Cw2, 0),
];

/// A looping workload that mixes plain ALU work, memory traffic (expanded
/// transparently under an MFI-style store production), and codewords under
/// every [`AWARE_PAIRS`] entry — the fixed image the engine-attached fuzz
/// schedules run against.
pub fn engine_program() -> Program {
    Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
        .assemble(
            "       lda r1, 400(r31)
             loop:  addq r9, r1, r9
                    cw0 r9, r3, r4, tag=1
                    stq r9, 0(r10)
                    ldq r5, 0(r10)
                    cw0 r5, r6, r7, tag=2
                    sll r5, #3, r6
                    cw1 r3, r5, r6, tag=1
                    subq r1, #1, r1
                    stl r6, 8(r10)
                    cw2 r1, r9, r5, tag=0
                    bne r1, loop
                    halt",
        )
        .unwrap()
}

/// A random aware replacement sequence. Sources may read codeword
/// parameters; destinations come from a pool the loop control of
/// [`engine_program`] never reads, so a reinstalled production changes
/// observable dataflow without ever hanging the workload.
pub fn aware_spec(rng: &mut StdRng) -> ReplacementSpec {
    const OPS: [Op; 6] = [Op::Srl, Op::Addq, Op::Xor, Op::Subq, Op::Sll, Op::Cmpeq];
    let len = rng.gen_range(1..=4);
    let insts = (0..len)
        .map(|_| {
            let src = |rng: &mut StdRng| {
                if rng.gen_bool_fair() {
                    RegDirective::Param(rng.gen_range(0..3u8))
                } else {
                    RegDirective::Literal(Reg::r(rng.gen_range(16..28u8)))
                }
            };
            InstSpec::Templated {
                op: OpDirective::Literal(OPS[rng.gen_range(0..OPS.len())]),
                ra: src(rng),
                rb: src(rng),
                rc: RegDirective::Literal(Reg::r(rng.gen_range(16..28u8))),
                imm: ImmDirective::Literal(rng.gen_range(0..64)),
                uses_lit: rng.gen_bool_fair(),
                dise_branch: false,
            }
        })
        .collect();
    ReplacementSpec::new(insts)
}

/// Transparent store protection (an MFI-flavored production): one
/// templated instruction plus the trigger, so every store becomes a
/// 2-instruction replacement sequence.
pub fn store_spec() -> ReplacementSpec {
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
        InstSpec::Trigger,
    ])
}

/// One pre-generated fuzz event for engine-attached schedules, so paired
/// machines (fast/slow, or snapshotted/uninterrupted) see the identical
/// event stream.
#[derive(Debug, Clone)]
pub enum Action {
    /// Run the machine for the given fuel.
    Run(u64),
    /// Single-step the machine `n` times.
    Step(u8),
    /// Deliver an interrupt (squashes any in-flight expansion).
    Interrupt,
    /// Engine context switch (flushes PT/RT).
    ContextSwitch,
    /// (Re)install an aware production under `(cw_op, tag)`.
    InstallAware(Op, u16, ReplacementSpec),
}

/// A random engine-attached event schedule of `rounds` actions, weighted
/// toward execution with occasional invalidation events.
pub fn schedule(rng: &mut StdRng, rounds: usize) -> Vec<Action> {
    (0..rounds)
        .map(|_| match rng.gen_range(0..100u32) {
            0..=49 => Action::Run(rng.gen_range(1..40)),
            50..=64 => Action::Step(rng.gen_range(1..6)),
            65..=74 => Action::Interrupt,
            75..=84 => Action::ContextSwitch,
            _ => {
                let (cw, tag) = AWARE_PAIRS[rng.gen_range(0..AWARE_PAIRS.len())];
                Action::InstallAware(cw, tag, aware_spec(rng))
            }
        })
        .collect()
}
