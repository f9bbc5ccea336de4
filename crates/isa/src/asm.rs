//! Textual assembly.
//!
//! Two entry points: `str::parse::<Inst>()` assembles a single instruction
//! (numeric branch displacements only), and [`Assembler`] assembles a
//! multi-line listing with labels into a [`Program`].
//!
//! Operands follow each format's one layout in [`crate::syntax`], which
//! the disassembler prints, so `inst.to_string().parse()` always
//! round-trips:
//!
//! ```text
//! ldq r1, 8(r2)        ; memory
//! addq r1, #26, r3     ; operate with literal
//! bne r1, -8           ; branch, byte displacement
//! bne.d $dr1, @3       ; DISE-internal branch to sequence index 3
//! jsr r26, (r4)        ; indirect jump
//! cw0 r1, r2, r3, tag=7
//! ```
//!
//! Comments start with `;` or `//`. Only the assembler has the shorthands
//! `ret` (for `ret r31, (r26)`) and `br target` / `bsr target` (linking
//! through r31 / r26), and in [`Assembler`] listings a branch's
//! displacement operand may instead be a label.

use crate::builder::ProgramBuilder;
use crate::inst::Inst;
use crate::op::{Format, Op};
use crate::program::Program;
use crate::reg::Reg;
use crate::syntax;
use crate::{IsaError, Result};

fn err(msg: impl Into<String>) -> IsaError {
    IsaError::Parse(msg.into())
}

fn parse_int(s: &str) -> Result<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|_| err(format!("invalid integer `{s}`")))?;
    Ok(if neg { -v } else { v })
}

/// A parsed line: the instruction, plus the label a branch targets (its
/// displacement then 0).
#[derive(Debug, Clone)]
struct ParsedInst {
    inst: Inst,
    label: Option<String>,
}

fn parse_line(line: &str) -> Result<ParsedInst> {
    let (op, dise_branch, operands) = syntax::mnemonic(line)?;
    // Shorthands: `ret` is `ret r31, (r26)`, and `br t` / `bsr t` link
    // through r31 / r26.
    let long;
    let operands = match op {
        Op::Ret if operands.is_empty() => "r31, (r26)",
        Op::Br | Op::Bsr if !operands.is_empty() && !operands.contains(',') => {
            let link = if op == Op::Bsr { Reg::RA } else { Reg::ZERO };
            long = format!("{link}, {operands}");
            &long
        }
        _ => operands,
    };
    let f = syntax::split(op, dise_branch, operands)?;
    let reg = |t: Option<&str>| t.map_or(Ok(Reg::ZERO), str::parse);
    let is_label = |t: &str| !t.starts_with(|c: char| c.is_ascii_digit() || c == '-');
    let (imm, label) = match f.imm {
        Some(t) if op.format() == Format::Branch && !dise_branch && is_label(t) => {
            (0, Some(t.to_string()))
        }
        Some(t) => (parse_int(t)?, None),
        None => (0, None),
    };
    let inst = Inst {
        op,
        ra: reg(f.ra)?,
        rb: reg(f.rb)?,
        rc: reg(f.rc)?,
        imm,
        uses_lit: f.uses_lit,
        dise_branch,
    };
    inst.validate()?;
    Ok(ParsedInst { inst, label })
}

impl std::str::FromStr for Inst {
    type Err = IsaError;

    /// Assembles a single instruction. Branch targets must be numeric
    /// displacements (use [`Assembler`] for labels).
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Parse`] on malformed input.
    fn from_str(s: &str) -> Result<Inst> {
        let line = syntax::clean(s).ok_or_else(|| err("empty instruction"))?;
        let parsed = parse_line(line)?;
        match parsed.label {
            Some(l) => Err(err(format!(
                "label `{l}` not allowed outside an Assembler listing"
            ))),
            None => Ok(parsed.inst),
        }
    }
}

/// Assembles multi-line listings with labels into [`Program`]s.
///
/// ```
/// use dise_isa::Assembler;
/// # fn main() -> dise_isa::Result<()> {
/// let program = Assembler::new(0x0400_0000).assemble(
///     "        lda r1, 3(r31)
///      loop:  subq r1, #1, r1
///             bne r1, loop
///             halt",
/// )?;
/// assert_eq!(program.text_size(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Assembler {
    text_base: u64,
}

impl Assembler {
    /// Creates an assembler targeting `text_base`.
    pub fn new(text_base: u64) -> Assembler {
        Assembler { text_base }
    }

    /// Assembles a listing.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Parse`] on malformed lines and
    /// [`IsaError::UndefinedLabel`] for branches to missing labels.
    pub fn assemble(&self, listing: &str) -> Result<Program> {
        let mut b = ProgramBuilder::new(self.text_base);
        for raw in listing.lines() {
            let Some(mut line) = syntax::clean(raw) else {
                continue;
            };
            // Leading `name:` defines a label.
            while let Some((label, rest)) = line.split_once(':') {
                let label = label.trim();
                if label.is_empty()
                    || !label
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                {
                    return Err(err(format!("bad label in `{raw}`")));
                }
                b.label(label);
                line = rest.trim();
                if line.is_empty() {
                    break;
                }
            }
            if line.is_empty() {
                continue;
            }
            let parsed = parse_line(line)?;
            match parsed.label {
                Some(l) => {
                    b.branch_to(parsed.inst.op, parsed.inst.ra, &l);
                }
                None => {
                    b.push(parsed.inst);
                }
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_instruction_round_trip() {
        let cases = [
            "ldq r1, 8(r2)",
            "stl r9, -4(r30)",
            "lda r3, 100(r31)",
            "addq r1, r2, r3",
            "srl r4, #26, r5",
            "bne r1, -8",
            "br r31, 16",
            "jsr r26, (r4)",
            "ret r31, (r26)",
            "cw0 r1, r2, r3, tag=7",
            "nop",
            "halt",
        ];
        for c in cases {
            let i: Inst = c.parse().unwrap();
            assert_eq!(i.to_string(), c);
            // And the re-rendered text parses back to the same thing.
            assert_eq!(i.to_string().parse::<Inst>().unwrap(), i);
        }
    }

    #[test]
    fn dedicated_registers_and_dise_branches() {
        let i: Inst = "srl $dr1, #26, $dr2".parse().unwrap();
        assert!(i.uses_dedicated());
        let b: Inst = "bne.d $dr1, @3".parse().unwrap();
        assert!(b.dise_branch);
        assert_eq!(b.imm, 3);
        assert_eq!(b.to_string(), "bne.d $dr1, @3");
    }

    #[test]
    fn shorthand_forms() {
        let r: Inst = "ret".parse().unwrap();
        assert_eq!(r, Inst::jump(Op::Ret, Reg::ZERO, Reg::RA));
        let br: Inst = "br 8".parse().unwrap();
        assert_eq!(br.ra, Reg::ZERO);
        let bsr: Inst = "bsr 8".parse().unwrap();
        assert_eq!(bsr.ra, Reg::RA);
    }

    #[test]
    fn comments_and_hex() {
        let i: Inst = "ldq r1, 0x10(r2) ; comment".parse().unwrap();
        assert_eq!(i.imm, 16);
        let j: Inst = "lda r1, -0x8(r31) // c".parse().unwrap();
        assert_eq!(j.imm, -8);
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<Inst>().is_err());
        assert!("bogus r1, r2".parse::<Inst>().is_err());
        assert!("ldq r1".parse::<Inst>().is_err());
        assert!("addq r1, r2".parse::<Inst>().is_err());
        assert!("addq r1, #256, r3".parse::<Inst>().is_err());
        assert!("bne r1, somewhere".parse::<Inst>().is_err()); // label outside listing
        assert!("bne.d r1, 4".parse::<Inst>().is_err()); // DISE branch needs @
        assert!("addq.d r1, r2, r3".parse::<Inst>().is_err());
        assert!("cw0 r1, r2, r3, tag=9999".parse::<Inst>().is_err());
    }

    #[test]
    fn listing_with_labels() {
        let p = Assembler::new(0x1000)
            .assemble(
                "start: lda r1, 2(r31)
                 loop:  subq r1, #1, r1
                        bne r1, loop
                        br r31, done
                        nop
                 done:  halt",
            )
            .unwrap();
        assert_eq!(p.symbol("loop"), Some(0x1004));
        assert_eq!(p.symbol("done"), Some(0x1014));
        let d = p.disassemble();
        assert!(d.contains("bne r1, -8"));
        assert!(d.contains("br r31, 4"));
    }

    #[test]
    fn label_on_its_own_line() {
        let p = Assembler::new(0)
            .assemble("top:\n  nop\n  br r31, top\n  halt")
            .unwrap();
        assert_eq!(p.symbol("top"), Some(0));
    }

    #[test]
    fn undefined_label_reported() {
        let r = Assembler::new(0).assemble("bne r1, nowhere");
        assert!(matches!(r, Err(IsaError::UndefinedLabel(_))));
    }
}
