#![warn(missing_docs)]

//! # dise-isa: the Alpha-like instruction set substrate
//!
//! The DISE paper (Corliss, Lewis, Roth — ISCA 2003) evaluates Dynamic
//! Instruction Stream Editing on the SimpleScalar Alpha instruction set. This
//! crate provides the equivalent substrate built from scratch: a 64-bit,
//! integer-only, Alpha-like RISC ISA with 32-bit fixed-width instruction
//! encodings, plus the program-image machinery the rest of the reproduction
//! needs — an assembler and disassembler, a [`Program`] model with
//! byte-granular PCs (so 2-byte dedicated-decompressor codewords coexist with
//! 4-byte instructions), basic-block discovery, and a relocation engine used
//! by both the code compressor and the binary-rewriting baseline.
//!
//! ## Quick tour
//!
//! ```
//! use dise_isa::{Inst, Reg, Op};
//!
//! // Build instructions directly...
//! let ld = Inst::mem(Op::Ldq, Reg::R1, Reg::R2, 8); // ldq r1, 8(r2)
//! assert!(ld.op.class().is_load());
//!
//! // ...or assemble them from text.
//! let st: Inst = "stq r3, -16(r30)".parse().unwrap();
//! assert_eq!(st.to_string(), "stq r3, -16(r30)");
//!
//! // Architectural instructions round-trip through the 32-bit encoding.
//! let word = ld.encode().unwrap();
//! assert_eq!(Inst::decode(word).unwrap(), ld);
//! ```
//!
//! Register indices 0–31 are architectural (r31 reads as zero); indices 32–47
//! are the DISE *dedicated registers* `$dr0`–`$dr15` (paper §2.1), which only
//! replacement-sequence instructions may name. Instructions that reference
//! dedicated registers exist in decoded form only and cannot be encoded.

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod encode;
pub mod inst;
pub mod op;
pub mod program;
pub mod reg;
pub mod reloc;

pub use asm::Assembler;
pub use builder::ProgramBuilder;
pub use cfg::{BasicBlock, Cfg};
pub use inst::Inst;
pub use op::{Op, OpClass};
pub use program::{Predecode, Program, TextItem};
pub use reg::Reg;
pub use reloc::Relocator;

/// Errors produced by ISA-level operations (encoding, decoding, assembly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// The instruction names a DISE dedicated register or uses a
    /// replacement-only feature (e.g. a DISE branch) and cannot be encoded.
    Unencodable(String),
    /// An immediate or displacement is out of range for its field.
    ImmOutOfRange {
        /// The instruction's opcode.
        op: Op,
        /// The offending value.
        value: i64,
    },
    /// The 32-bit word does not decode to a valid instruction.
    BadEncoding(u32),
    /// Text could not be assembled.
    Parse(String),
    /// A program address is outside the text segment or misaligned.
    BadAddress(u64),
    /// A label was referenced but never defined.
    UndefinedLabel(String),
    /// A program transformation could not be relocated consistently (e.g. a
    /// branch targets the interior of a replaced sequence).
    Reloc(String),
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::Unencodable(why) => write!(f, "instruction not encodable: {why}"),
            IsaError::ImmOutOfRange { op, value } => {
                write!(f, "immediate {value} out of range for {op}")
            }
            IsaError::BadEncoding(w) => write!(f, "invalid instruction encoding {w:#010x}"),
            IsaError::Parse(why) => write!(f, "parse error: {why}"),
            IsaError::BadAddress(a) => write!(f, "bad text address {a:#x}"),
            IsaError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            IsaError::Reloc(why) => write!(f, "relocation failed: {why}"),
        }
    }
}

impl std::error::Error for IsaError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, IsaError>;
