//! The operand syntax of each instruction format, written once for both
//! textual forms of an instruction: the assembler and disassembler
//! ([`Inst`](crate::Inst)), and the production DSL's replacement
//! instructions, whose operands may be directives.
//!
//! | format   | operands                                          |
//! |----------|---------------------------------------------------|
//! | memory   | `ra, imm(rb)`                                     |
//! | branch   | `ra, imm`, or `op.d ra, @imm` for a DISE branch   |
//! | jump     | `ra, (rb)`                                        |
//! | operate  | `ra, rb, rc`, or `ra, #imm, rc` with a literal    |
//! | codeword | `ra, rb, rc, tag=imm`                             |
//! | misc     | none                                              |
//!
//! [`mnemonic`] and [`split`] cut a line into its fields as text, and
//! [`Fields`]' `Display` prints them back. Each side reads and prints its
//! own operand types; forms only one side has (labels, `ret`, `T.INSN`)
//! stay in that side's module.

use crate::op::{Format, Op};
use crate::{IsaError, Result};
use std::fmt;

/// The fields of one instruction, with registers of type `R` and the
/// immediate of type `I`.
#[derive(Debug)]
pub struct Fields<R, I> {
    /// The opcode.
    pub op: Op,
    /// First register field.
    pub ra: R,
    /// Second register field.
    pub rb: R,
    /// Third register field.
    pub rc: R,
    /// The immediate.
    pub imm: I,
    /// Operate format: the second operand is the literal `imm`.
    pub uses_lit: bool,
    /// A DISE-internal branch: `imm` is a replacement-sequence index.
    pub dise_branch: bool,
}

/// The text of an instruction's fields; a field its format lacks is `None`.
pub type Split<'a> = Fields<Option<&'a str>, Option<&'a str>>;

fn err(msg: String) -> IsaError {
    IsaError::Parse(msg)
}

/// Strips a `;` or `//` comment and surrounding whitespace; `None` for a
/// blank line.
pub fn clean(line: &str) -> Option<&str> {
    let line = line.split(';').next().unwrap_or("");
    let line = line.split("//").next().unwrap_or("");
    let line = line.trim();
    (!line.is_empty()).then_some(line)
}

/// Splits an instruction line into its opcode, whether the mnemonic has
/// the `.d` suffix of a DISE-internal branch, and its operand text.
///
/// # Errors
///
/// Fails on an unknown mnemonic or a `.d` suffix on a non-branch.
pub fn mnemonic(line: &str) -> Result<(Op, bool, &str)> {
    let line = line.trim();
    let (mnem, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let (mnem, dise) = match mnem.strip_suffix(".d") {
        Some(m) => (m, true),
        None => (mnem, false),
    };
    let op = Op::from_mnemonic(mnem).ok_or_else(|| err(format!("unknown mnemonic `{mnem}`")))?;
    if dise && op.format() != Format::Branch {
        return Err(err(format!("`.d` suffix only valid on branches: `{line}`")));
    }
    Ok((op, dise, rest.trim()))
}

/// Splits the operand text of an `op` instruction into its fields.
///
/// # Errors
///
/// Fails on a wrong operand count or an operand not in its format's shape
/// (a `@` target on a plain branch, or none on a DISE branch).
pub fn split(op: Op, dise_branch: bool, operands: &str) -> Result<Split<'_>> {
    let ops: Vec<&str> = match operands.trim() {
        "" => Vec::new(),
        s => s.split(',').map(str::trim).collect(),
    };
    let mut f = Fields {
        op,
        ra: ops.first().copied(),
        rb: None,
        rc: None,
        imm: None,
        uses_lit: false,
        dise_branch,
    };
    match (op.format(), ops.as_slice()) {
        (Format::Memory, &[_, mem]) => {
            let (imm, rb) = mem
                .strip_suffix(')')
                .and_then(|s| s.split_once('('))
                .ok_or_else(|| err(format!("expected `disp(reg)`, got `{mem}`")))?;
            (f.imm, f.rb) = (Some(imm.trim()), Some(rb.trim()));
        }
        (Format::Branch, &[_, target]) => {
            f.imm = Some(match (dise_branch, target.strip_prefix('@')) {
                (true, Some(index)) => index,
                (false, None) => target,
                (true, None) => {
                    return Err(err(format!(
                        "DISE branch needs an `@index` target: `{target}`"
                    )))
                }
                (false, Some(_)) => {
                    return Err(err(format!(
                        "`@` target requires a `.d` branch: `{target}`"
                    )))
                }
            });
        }
        (Format::Jump, &[_, rb]) => {
            let reg = rb.strip_prefix('(').and_then(|s| s.strip_suffix(')'));
            f.rb = Some(
                reg.ok_or_else(|| err(format!("expected `(reg)`, got `{rb}`")))?
                    .trim(),
            );
        }
        (Format::Operate, &[_, b, rc]) => {
            match b.strip_prefix('#') {
                Some(lit) => (f.imm, f.uses_lit) = (Some(lit), true),
                None => f.rb = Some(b),
            }
            f.rc = Some(rc);
        }
        (Format::Codeword, &[_, rb, rc, tag]) => {
            let tag = tag
                .strip_prefix("tag=")
                .ok_or_else(|| err(format!("expected `tag=N`, got `{tag}`")))?;
            (f.rb, f.rc, f.imm) = (Some(rb), Some(rc), Some(tag));
        }
        (Format::Misc, []) => {}
        _ => {
            return Err(err(format!(
                "wrong operand count for `{op}{}` in `{operands}`",
                if dise_branch { ".d" } else { "" }
            )))
        }
    }
    Ok(f)
}

impl<R: fmt::Display, I: fmt::Display> fmt::Display for Fields<R, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.op.mnemonic();
        let Fields {
            ra, rb, rc, imm, ..
        } = self;
        match self.op.format() {
            Format::Memory => write!(f, "{m} {ra}, {imm}({rb})"),
            Format::Branch if self.dise_branch => write!(f, "{m}.d {ra}, @{imm}"),
            Format::Branch => write!(f, "{m} {ra}, {imm}"),
            Format::Jump => write!(f, "{m} {ra}, ({rb})"),
            Format::Operate if self.uses_lit => write!(f, "{m} {ra}, #{imm}, {rc}"),
            Format::Operate => write!(f, "{m} {ra}, {rb}, {rc}"),
            Format::Codeword => write!(f, "{m} {ra}, {rb}, {rc}, tag={imm}"),
            Format::Misc => f.write_str(m),
        }
    }
}
