//! Opcodes, opcode classes and operand descriptions.
//!
//! The instruction set is a 64-bit integer-only subset modeled on Alpha
//! (which is what SimpleScalar, the paper's substrate, simulates). Four
//! opcodes (`cw0`–`cw3`) are *reserved*: they never occur in compiled code
//! and exist so DISE-aware ACFs can plant codewords (paper §2.1, "explicit
//! tagging").

use std::fmt;

/// Instruction encoding format. Determines how the 26 non-opcode bits of the
/// 32-bit word are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `op ra, disp(rb)` — loads, stores, `lda`, `ldah`.
    Memory,
    /// `op ra, disp` — PC-relative branches (21-bit signed byte displacement).
    Branch,
    /// `op ra, (rb)` — indirect jumps through a register.
    Jump,
    /// `op ra, rb|#lit, rc` — register/register or register/literal ALU ops.
    Operate,
    /// `op p1, p2, p3, tag` — reserved DISE codeword: three 5-bit parameters
    /// and an 11-bit replacement-sequence tag.
    Codeword,
    /// `op` — no operands (`halt`, `nop`).
    Misc,
}

/// Opcode classes, the granularity at which DISE patterns may match
/// (`T.OPCLASS == store`, paper §2.1) and at which the timing model assigns
/// functional units and latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Memory loads (`ldl`, `ldq`).
    Load,
    /// Memory stores (`stl`, `stq`).
    Store,
    /// Conditional PC-relative branches.
    CondBranch,
    /// Unconditional PC-relative branches (`br`, `bsr`).
    UncondBranch,
    /// Indirect jumps through a register (`jmp`, `jsr`, `ret`).
    IndirectJump,
    /// Single-cycle integer ALU operations (including `lda`/`ldah`).
    IntAlu,
    /// Multi-cycle integer multiply.
    IntMult,
    /// Reserved DISE codewords.
    Codeword,
    /// `nop`, `halt`.
    Misc,
}

impl OpClass {
    /// True for [`OpClass::Load`].
    pub const fn is_load(self) -> bool {
        matches!(self, OpClass::Load)
    }

    /// True for [`OpClass::Store`].
    pub const fn is_store(self) -> bool {
        matches!(self, OpClass::Store)
    }

    /// True for any memory operation.
    pub const fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// True for any control transfer (conditional, unconditional or
    /// indirect).
    pub const fn is_ctrl(self) -> bool {
        matches!(
            self,
            OpClass::CondBranch | OpClass::UncondBranch | OpClass::IndirectJump
        )
    }

    /// All opcode classes, for exhaustive sweeps in tests.
    pub const ALL: [OpClass; 9] = [
        OpClass::Load,
        OpClass::Store,
        OpClass::CondBranch,
        OpClass::UncondBranch,
        OpClass::IndirectJump,
        OpClass::IntAlu,
        OpClass::IntMult,
        OpClass::Codeword,
        OpClass::Misc,
    ];
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::CondBranch => "cbranch",
            OpClass::UncondBranch => "ubranch",
            OpClass::IndirectJump => "ijump",
            OpClass::IntAlu => "ialu",
            OpClass::IntMult => "imult",
            OpClass::Codeword => "codeword",
            OpClass::Misc => "misc",
        };
        f.write_str(s)
    }
}

/// A register field of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// `ra`.
    Ra,
    /// `rb`.
    Rb,
    /// `rc`.
    Rc,
}

/// How an opcode uses its register fields ([`Op::operands`]): the one
/// description from which DISE's trigger roles (`T.RS`, `T.RT`, `T.RD`,
/// paper §2.1), the source and destination registers, composition's role
/// substitution and the timing model's dependences are all derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    /// The `T.RS` field: the address base, the branch condition or link
    /// register, the jump target, or the first ALU operand.
    pub rs: Option<Field>,
    /// The `T.RT` field: the store data register or the second ALU
    /// operand.
    pub rt: Option<Field>,
    /// The field written, which is also `T.RD`. Writes to the zero
    /// register count (the machine discards them).
    pub rd: Option<Field>,
    /// The fields whose old values the instruction reads.
    pub reads: &'static [Field],
    /// `rb` holds an 8-bit literal instead of a register when the
    /// instruction uses one (operate format): then no role and no read
    /// names `rb`.
    pub lit_rb: bool,
}

impl Operands {
    /// Field `f` of an instruction whose `[ra, rb, rc]` fields are `regs`:
    /// `None` if `f` is, or if it is `rb` holding a literal.
    pub fn get<T: Copy>(self, f: Option<Field>, regs: [T; 3], uses_lit: bool) -> Option<T> {
        let [ra, rb, rc] = regs;
        match f? {
            Field::Ra => Some(ra),
            Field::Rb if self.lit_rb && uses_lit => None,
            Field::Rb => Some(rb),
            Field::Rc => Some(rc),
        }
    }

    /// The `[T.RS, T.RT, T.RD]` roles of an instruction whose
    /// `[ra, rb, rc]` fields are `regs`.
    pub fn roles<T: Copy>(self, regs: [T; 3], uses_lit: bool) -> [Option<T>; 3] {
        [self.rs, self.rt, self.rd].map(|f| self.get(f, regs, uses_lit))
    }
}

const fn shape(
    rs: Option<Field>,
    rt: Option<Field>,
    rd: Option<Field>,
    reads: &'static [Field],
) -> Operands {
    Operands {
        rs,
        rt,
        rd,
        reads,
        lit_rb: false,
    }
}

use Field::{Ra, Rb, Rc};
/// Loads, and `lda`/`ldah`, which write the address they compute.
const LOAD: Operands = shape(Some(Rb), None, Some(Ra), &[Rb]);
const STORE: Operands = shape(Some(Rb), Some(Ra), None, &[Rb, Ra]);
const CBRANCH: Operands = shape(Some(Ra), None, None, &[Ra]);
/// `br`/`bsr`: `ra` is the link register.
const UBRANCH: Operands = shape(Some(Ra), None, Some(Ra), &[]);
const JUMP: Operands = shape(Some(Rb), None, Some(Ra), &[Rb]);
const ALU: Operands = Operands {
    lit_rb: true,
    ..shape(Some(Ra), Some(Rb), Some(Rc), &[Ra, Rb])
};
/// A conditional move leaves its destination unchanged when the condition
/// fails, so it also reads the old `rc`.
const CMOV: Operands = Operands {
    reads: &[Ra, Rb, Rc],
    ..ALU
};
const NONE: Operands = shape(None, None, None, &[]);

macro_rules! define_ops {
    ($( $variant:ident = ($num:expr, $mnem:expr, $fmt:ident, $class:ident, $operands:ident) ),+ $(,)?) => {
        /// An opcode. Each opcode owns a distinct 6-bit primary opcode number
        /// (there is no secondary function field in this simplified
        /// encoding). Its discriminant (`op as u8`) is its position in
        /// [`Op::ALL`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        pub enum Op {
            $(
                #[doc = concat!("`", $mnem, "`")]
                $variant,
            )+
        }

        impl Op {
            /// Every opcode, in declaration order: `Op::ALL[op as usize] == op`.
            pub const ALL: &'static [Op] = &[ $(Op::$variant),+ ];

            /// The 6-bit primary opcode number used in the encoding.
            pub const fn number(self) -> u8 {
                match self { $(Op::$variant => $num),+ }
            }

            /// The assembler mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self { $(Op::$variant => $mnem),+ }
            }

            /// The encoding format.
            pub const fn format(self) -> Format {
                match self { $(Op::$variant => Format::$fmt),+ }
            }

            /// The opcode class (used by DISE pattern matching and the
            /// timing model).
            pub const fn class(self) -> OpClass {
                match self { $(Op::$variant => OpClass::$class),+ }
            }

            /// How the opcode uses its register fields.
            pub const fn operands(self) -> Operands {
                match self { $(Op::$variant => $operands),+ }
            }

            /// Looks an opcode up by its 6-bit number.
            pub fn from_number(n: u8) -> Option<Op> {
                match n {
                    $( $num => Some(Op::$variant), )+
                    _ => None,
                }
            }

            /// The opcode whose discriminant (`op as u8`) is `d`. The
            /// arms map each discriminant to itself, so this compiles to
            /// one range check: the predecode table's unpack relies on it.
            #[inline(always)]
            #[allow(non_upper_case_globals)]
            pub(crate) const fn from_discriminant(d: u8) -> Option<Op> {
                $( const $variant: u8 = Op::$variant as u8; )+
                match d {
                    $( $variant => Some(Op::$variant), )+
                    _ => None,
                }
            }

            /// Looks an opcode up by mnemonic.
            pub fn from_mnemonic(m: &str) -> Option<Op> {
                match m {
                    $( $mnem => Some(Op::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

// Opcode numbers 0x3E and 0x3F are never assigned: their top five bits are
// `0b11111`, which is the escape prefix that marks a 2-byte dedicated
// decompressor codeword in a compressed text stream (see `encode`).
define_ops! {
    // Memory format.
    Lda   = (0x08, "lda",   Memory,   IntAlu,       LOAD),
    Ldah  = (0x09, "ldah",  Memory,   IntAlu,       LOAD),
    Ldl   = (0x28, "ldl",   Memory,   Load,         LOAD),
    Ldq   = (0x29, "ldq",   Memory,   Load,         LOAD),
    Stl   = (0x2C, "stl",   Memory,   Store,        STORE),
    Stq   = (0x2D, "stq",   Memory,   Store,        STORE),
    // Branch format.
    Br    = (0x30, "br",    Branch,   UncondBranch, UBRANCH),
    Bsr   = (0x34, "bsr",   Branch,   UncondBranch, UBRANCH),
    Beq   = (0x39, "beq",   Branch,   CondBranch,   CBRANCH),
    Bne   = (0x3D, "bne",   Branch,   CondBranch,   CBRANCH),
    Blt   = (0x3A, "blt",   Branch,   CondBranch,   CBRANCH),
    Ble   = (0x3B, "ble",   Branch,   CondBranch,   CBRANCH),
    Bgt   = (0x3C, "bgt",   Branch,   CondBranch,   CBRANCH),
    Bge   = (0x36, "bge",   Branch,   CondBranch,   CBRANCH),
    Blbc  = (0x38, "blbc",  Branch,   CondBranch,   CBRANCH),
    Blbs  = (0x37, "blbs",  Branch,   CondBranch,   CBRANCH),
    // Jump format.
    Jmp   = (0x1A, "jmp",   Jump,     IndirectJump, JUMP),
    Jsr   = (0x1B, "jsr",   Jump,     IndirectJump, JUMP),
    Ret   = (0x1C, "ret",   Jump,     IndirectJump, JUMP),
    // Operate format.
    Addq  = (0x10, "addq",  Operate,  IntAlu,       ALU),
    Subq  = (0x11, "subq",  Operate,  IntAlu,       ALU),
    Addl  = (0x12, "addl",  Operate,  IntAlu,       ALU),
    Subl  = (0x13, "subl",  Operate,  IntAlu,       ALU),
    S4addq= (0x14, "s4addq",Operate,  IntAlu,       ALU),
    S8addq= (0x15, "s8addq",Operate,  IntAlu,       ALU),
    Mulq  = (0x16, "mulq",  Operate,  IntMult,      ALU),
    And   = (0x17, "and",   Operate,  IntAlu,       ALU),
    Bis   = (0x18, "bis",   Operate,  IntAlu,       ALU),
    Xor   = (0x19, "xor",   Operate,  IntAlu,       ALU),
    Bic   = (0x1D, "bic",   Operate,  IntAlu,       ALU),
    Ornot = (0x1E, "ornot", Operate,  IntAlu,       ALU),
    Sll   = (0x20, "sll",   Operate,  IntAlu,       ALU),
    Srl   = (0x21, "srl",   Operate,  IntAlu,       ALU),
    Sra   = (0x22, "sra",   Operate,  IntAlu,       ALU),
    Cmpeq = (0x23, "cmpeq", Operate,  IntAlu,       ALU),
    Cmplt = (0x24, "cmplt", Operate,  IntAlu,       ALU),
    Cmple = (0x25, "cmple", Operate,  IntAlu,       ALU),
    Cmpult= (0x26, "cmpult",Operate,  IntAlu,       ALU),
    Cmpule= (0x27, "cmpule",Operate,  IntAlu,       ALU),
    Cmoveq= (0x2A, "cmoveq",Operate,  IntAlu,       CMOV),
    Cmovne= (0x2B, "cmovne",Operate,  IntAlu,       CMOV),
    // Reserved DISE codeword opcodes ("explicit tagging", paper §2.1).
    Cw0   = (0x04, "cw0",   Codeword, Codeword,     NONE),
    Cw1   = (0x05, "cw1",   Codeword, Codeword,     NONE),
    Cw2   = (0x06, "cw2",   Codeword, Codeword,     NONE),
    Cw3   = (0x07, "cw3",   Codeword, Codeword,     NONE),
    // Miscellaneous.
    Nop   = (0x00, "nop",   Misc,     Misc,         NONE),
    Halt  = (0x01, "halt",  Misc,     Misc,         NONE),
}

impl Op {
    /// True if this is one of the four reserved codeword opcodes.
    pub const fn is_codeword(self) -> bool {
        matches!(self, Op::Cw0 | Op::Cw1 | Op::Cw2 | Op::Cw3)
    }

    /// The reserved codeword opcodes, in order.
    pub const CODEWORDS: [Op; 4] = [Op::Cw0, Op::Cw1, Op::Cw2, Op::Cw3];

    /// True if the branch condition tests `ra` against zero (all conditional
    /// branches in this ISA do).
    pub const fn is_cond_branch(self) -> bool {
        matches!(self.class(), OpClass::CondBranch)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn opcode_numbers_unique_and_in_range() {
        let mut seen = HashSet::new();
        for &op in Op::ALL {
            assert!(op.number() < 62, "{op} uses a reserved escape number");
            assert!(seen.insert(op.number()), "duplicate number for {op}");
        }
    }

    #[test]
    fn discriminants_round_trip() {
        for (i, &op) in Op::ALL.iter().enumerate() {
            assert_eq!(op as usize, i, "{op} is not at its discriminant");
            assert_eq!(Op::from_discriminant(op as u8), Some(op));
        }
        assert_eq!(Op::from_discriminant(Op::ALL.len() as u8), None);
        assert_eq!(Op::from_discriminant(u8::MAX), None);
    }

    #[test]
    fn mnemonics_unique_and_round_trip() {
        let mut seen = HashSet::new();
        for &op in Op::ALL {
            assert!(seen.insert(op.mnemonic()));
            assert_eq!(Op::from_mnemonic(op.mnemonic()), Some(op));
            assert_eq!(Op::from_number(op.number()), Some(op));
        }
        assert_eq!(Op::from_mnemonic("frobnicate"), None);
        assert_eq!(Op::from_number(0x3F), None);
    }

    #[test]
    fn classes_consistent_with_formats() {
        for &op in Op::ALL {
            match op.class() {
                OpClass::Load | OpClass::Store => assert_eq!(op.format(), Format::Memory),
                OpClass::CondBranch | OpClass::UncondBranch => {
                    assert_eq!(op.format(), Format::Branch)
                }
                OpClass::IndirectJump => assert_eq!(op.format(), Format::Jump),
                OpClass::Codeword => assert_eq!(op.format(), Format::Codeword),
                OpClass::IntAlu | OpClass::IntMult => assert!(matches!(
                    op.format(),
                    Format::Operate | Format::Memory // lda/ldah compute, memory format
                )),
                OpClass::Misc => assert_eq!(op.format(), Format::Misc),
            }
        }
    }

    #[test]
    fn class_predicates() {
        assert!(Op::Ldq.class().is_load());
        assert!(Op::Stq.class().is_store());
        assert!(Op::Stq.class().is_mem());
        assert!(Op::Bne.class().is_ctrl());
        assert!(Op::Ret.class().is_ctrl());
        assert!(!Op::Addq.class().is_ctrl());
        assert!(Op::Cw0.is_codeword());
        assert!(!Op::Ldq.is_codeword());
    }
}
