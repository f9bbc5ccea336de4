//! The textual production language.
//!
//! DISE exposes its programming interface through productions written in a
//! directive-annotated version of the native ISA (paper §2.3). This module
//! parses the notation the paper's figures use:
//!
//! ```text
//! ; Memory fault isolation (Figure 1).
//! P1: T.OPCLASS == store -> R1
//! P2: T.OPCLASS == load  -> R1
//! R1: srl T.RS, #26, $dr1
//!     cmpeq $dr1, $dr2, $dr1
//!     beq $dr1, =error
//!     T.INSN
//! ```
//!
//! Pattern conditions (conjoined with `&&`): `T.OP == <mnemonic>`,
//! `T.OPCLASS == <class>`, `T.RS == <reg>`, `T.RT == <reg>`,
//! `T.RD == <reg>`, `T.IMM == <n>`, `T.IMM < 0`, `T.IMM >= 0`.
//!
//! A pattern's target is a replacement sequence name (`-> R1`) or the
//! keyword `TAG` for aware productions (the trigger's explicit tag selects
//! the sequence; the pattern must then name a reserved codeword opcode).
//!
//! Replacement operands may be directives: registers accept `T.RS`, `T.RT`,
//! `T.RD` and `T.P1`–`T.P3`; immediates accept `#<n>`, `#T.IMM`, `#T.PC`,
//! `#T.P<k>[.s][<<n]`, `#T.P<hi>:<lo>[.s][<<n]` and `=<symbol>` (an
//! absolute target resolved against the caller's symbol table — typically
//! an error handler). A line consisting of `T.INSN` re-emits the trigger.
//!
//! Operands follow each format's one layout in [`dise_isa::syntax`],
//! exactly as in the disassembler: `ldq T.RD, T.P2.s(T.RS)`,
//! `addq T.RS, #T.P1, $dr1`, and DISE-internal branches with the `.d`
//! mnemonic suffix and an `@<index>` target. So every replacement
//! instruction prints ([`InstSpec`]'s `Display`) as a line this module
//! parses back, except an absolute target, which prints as its address
//! (`=0x…`) where the language takes a symbol.

use crate::pattern::{ImmPredicate, Pattern};
use crate::production::ProductionSet;
use crate::spec::{ImmDirective, InstSpec, OpDirective, RegDirective, ReplacementSpec};
use crate::{CoreError, Result};
use dise_isa::op::Format;
use dise_isa::syntax;
use dise_isa::{IsaError, Op, OpClass, Reg};
use std::collections::BTreeMap;

fn err(msg: impl Into<String>) -> CoreError {
    CoreError::Dsl(msg.into())
}

fn parse_opclass(s: &str) -> Result<OpClass> {
    OpClass::ALL
        .into_iter()
        .find(|c| c.to_string() == s)
        .ok_or_else(|| err(format!("unknown opcode class `{s}`")))
}

fn parse_reg(s: &str) -> Result<Reg> {
    s.parse().map_err(|e| err(format!("{e}")))
}

fn parse_pattern(text: &str) -> Result<Pattern> {
    let mut p = Pattern::default();
    for cond in text.split("&&").map(str::trim) {
        if let Some(rest) = cond.strip_prefix("T.OPCLASS") {
            let v = rest.trim().strip_prefix("==").ok_or_else(|| err(cond))?.trim();
            p.class = Some(parse_opclass(v)?);
        } else if let Some(rest) = cond.strip_prefix("T.OP") {
            let v = rest.trim().strip_prefix("==").ok_or_else(|| err(cond))?.trim();
            p.op = Some(Op::from_mnemonic(v).ok_or_else(|| err(format!("unknown op `{v}`")))?);
        } else if let Some(rest) = cond.strip_prefix("T.RS") {
            let v = rest.trim().strip_prefix("==").ok_or_else(|| err(cond))?.trim();
            p.rs = Some(parse_reg(v)?);
        } else if let Some(rest) = cond.strip_prefix("T.RT") {
            let v = rest.trim().strip_prefix("==").ok_or_else(|| err(cond))?.trim();
            p.rt = Some(parse_reg(v)?);
        } else if let Some(rest) = cond.strip_prefix("T.RD") {
            let v = rest.trim().strip_prefix("==").ok_or_else(|| err(cond))?.trim();
            p.rd = Some(parse_reg(v)?);
        } else if let Some(rest) = cond.strip_prefix("T.IMM") {
            let rest = rest.trim();
            p.imm = Some(if let Some(v) = rest.strip_prefix("==") {
                ImmPredicate::Eq(
                    v.trim()
                        .parse()
                        .map_err(|_| err(format!("bad immediate in `{cond}`")))?,
                )
            } else if rest.starts_with("<") && rest.trim_start_matches('<').trim() == "0" {
                ImmPredicate::Negative
            } else if rest.starts_with(">=") && rest.trim_start_matches(">=").trim() == "0" {
                ImmPredicate::NonNegative
            } else {
                return Err(err(format!("unsupported immediate condition `{cond}`")));
            });
        } else {
            return Err(err(format!("unknown pattern condition `{cond}`")));
        }
    }
    Ok(p)
}

/// Parses a `T.P…` parameter immediate: `T.P2`, `T.P2.s`, `T.P2<<3`,
/// `T.P3:2.s<<2`.
fn parse_param_imm(s: &str) -> Result<ImmDirective> {
    let body = s.strip_prefix("T.P").ok_or_else(|| err(s))?;
    let (body, shift) = match body.split_once("<<") {
        Some((b, sh)) => (
            b,
            sh.parse::<u8>()
                .map_err(|_| err(format!("bad shift in `{s}`")))?,
        ),
        None => (body, 0),
    };
    let (body, signed) = match body.strip_suffix(".s") {
        Some(b) => (b, true),
        None => (body, false),
    };
    let slot = |t: &str| -> Result<u8> {
        match t.parse::<u8>() {
            Ok(n @ 1..=3) => Ok(n - 1),
            _ => Err(err(format!("bad parameter slot in `{s}`"))),
        }
    };
    if let Some((hi, lo)) = body.split_once(':') {
        Ok(ImmDirective::Param2 {
            hi: slot(hi)?,
            lo: slot(lo)?,
            shift,
            signed,
        })
    } else {
        Ok(ImmDirective::Param {
            slot: slot(body)?,
            shift,
            signed,
        })
    }
}

fn parse_reg_directive(s: &str) -> Result<RegDirective> {
    Ok(match s {
        "T.RS" => RegDirective::TriggerRs,
        "T.RT" => RegDirective::TriggerRt,
        "T.RD" => RegDirective::TriggerRd,
        "T.P1" => RegDirective::Param(0),
        "T.P2" => RegDirective::Param(1),
        "T.P3" => RegDirective::Param(2),
        _ => RegDirective::Literal(parse_reg(s)?),
    })
}

fn parse_imm_directive(s: &str, symbols: &BTreeMap<String, u64>) -> Result<ImmDirective> {
    if let Some(sym) = s.strip_prefix('=') {
        let addr = symbols
            .get(sym)
            .ok_or_else(|| err(format!("unknown symbol `{sym}`")))?;
        return Ok(ImmDirective::AbsTarget(*addr));
    }
    let body = s.strip_prefix('#').unwrap_or(s);
    match body {
        "T.IMM" => Ok(ImmDirective::TriggerImm),
        "T.PC" => Ok(ImmDirective::TriggerPc),
        _ if body.starts_with("T.P") => parse_param_imm(body),
        _ => body
            .parse::<i64>()
            .map(ImmDirective::Literal)
            .map_err(|_| err(format!("bad immediate `{s}`"))),
    }
}

/// Parses one replacement-instruction line.
fn parse_spec_line(line: &str, symbols: &BTreeMap<String, u64>) -> Result<InstSpec> {
    if line == "T.INSN" {
        return Ok(InstSpec::Trigger);
    }
    let syntax_err = |e: IsaError| err(e.to_string());
    let (op, dise_branch, operands) = syntax::mnemonic(line).map_err(syntax_err)?;
    if op.format() == Format::Codeword {
        return Err(err(format!(
            "codewords cannot appear in replacement sequences (no recursive expansion): `{line}`"
        )));
    }
    let f = syntax::split(op, dise_branch, operands).map_err(syntax_err)?;
    let reg = |t: Option<&str>| t.map_or(Ok(RegDirective::Literal(Reg::ZERO)), parse_reg_directive);
    Ok(InstSpec::Templated {
        op: OpDirective::Literal(op),
        ra: reg(f.ra)?,
        rb: reg(f.rb)?,
        rc: reg(f.rc)?,
        imm: f
            .imm
            .map_or(Ok(ImmDirective::Literal(0)), |t| parse_imm_directive(t, symbols))?,
        uses_lit: f.uses_lit,
        dise_branch,
    })
}

/// Parses a bare replacement sequence (instruction lines only, no `P:`/`R:`
/// headers). Symbols default to empty.
///
/// # Errors
///
/// Returns [`CoreError::Dsl`] on malformed lines, or a validation error for
/// structurally invalid sequences.
pub fn parse_sequence(text: &str) -> Result<ReplacementSpec> {
    parse_sequence_with(text, &BTreeMap::new())
}

/// [`parse_sequence`] with a symbol table for `=symbol` absolute targets.
///
/// # Errors
///
/// See [`parse_sequence`].
pub fn parse_sequence_with(
    text: &str,
    symbols: &BTreeMap<String, u64>,
) -> Result<ReplacementSpec> {
    let mut insts = Vec::new();
    for raw in text.lines() {
        let Some(line) = syntax::clean(raw) else { continue };
        insts.push(parse_spec_line(line, symbols)?);
    }
    let spec = ReplacementSpec::new(insts);
    spec.validate()?;
    Ok(spec)
}

/// Parses a full production listing (see the module docs for the grammar)
/// into a [`ProductionSet`]. `symbols` resolves `=symbol` operands.
///
/// # Errors
///
/// Returns [`CoreError::Dsl`] on malformed input, including patterns whose
/// `TAG` target is not a reserved codeword opcode and references to
/// undefined sequence names.
pub fn parse(text: &str, symbols: &BTreeMap<String, u64>) -> Result<ProductionSet> {
    // Pass 1: split into P-rules and R-sections.
    struct RawRule {
        pattern: String,
        target: String,
    }
    let mut rules: Vec<RawRule> = Vec::new();
    let mut seqs: Vec<(String, Vec<String>)> = Vec::new();
    let mut current_seq: Option<usize> = None;
    for raw in text.lines() {
        let Some(line) = syntax::clean(raw) else { continue };
        // Header? `Pname: ...` or `Rname: ...`
        let header = line.split_once(':').and_then(|(h, rest)| {
            let h = h.trim();
            let valid = (h.starts_with('P') || h.starts_with('R'))
                && h.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                && h.len() >= 2;
            valid.then(|| (h.to_string(), rest.trim().to_string()))
        });
        match header {
            Some((name, rest)) if name.starts_with('P') => {
                current_seq = None;
                let (pattern, target) = rest
                    .split_once("->")
                    .ok_or_else(|| err(format!("pattern `{name}` missing `->`")))?;
                rules.push(RawRule {
                    pattern: pattern.trim().to_string(),
                    target: target.trim().to_string(),
                });
            }
            Some((name, rest)) => {
                seqs.push((name, Vec::new()));
                current_seq = Some(seqs.len() - 1);
                if !rest.is_empty() {
                    seqs.last_mut().unwrap().1.push(rest);
                }
            }
            None => match current_seq {
                Some(i) => seqs[i].1.push(line.to_string()),
                None => return Err(err(format!("instruction line outside a sequence: `{line}`"))),
            },
        }
    }

    // Pass 2: build the set.
    let mut set = ProductionSet::new();
    let mut installed: BTreeMap<String, crate::production::ReplacementId> = BTreeMap::new();
    let mut used: Vec<&str> = Vec::new();
    for rule in &rules {
        let pattern = parse_pattern(&rule.pattern)?;
        if rule.target == "TAG" {
            let op = pattern
                .op
                .filter(|o| o.is_codeword())
                .ok_or_else(|| err("TAG target requires a reserved codeword opcode pattern"))?;
            set.add_aware_rule(op);
            continue;
        }
        used.push(&rule.target);
        if let Some(id) = installed.get(&rule.target) {
            set.add_pattern(pattern, *id)?;
            continue;
        }
        let (_, lines) = seqs
            .iter()
            .find(|(n, _)| *n == rule.target)
            .ok_or_else(|| err(format!("undefined sequence `{}`", rule.target)))?;
        let spec = parse_sequence_with(&lines.join("\n"), symbols)?;
        let id = set.add_transparent(pattern, spec)?;
        installed.insert(rule.target.clone(), id);
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_isa::Inst;

    fn syms() -> BTreeMap<String, u64> {
        [("error".to_string(), 0x7000u64)].into_iter().collect()
    }

    #[test]
    fn figure_1_parses_and_expands() {
        let set = parse(
            "; Memory fault isolation
             P1: T.OPCLASS == store -> R1
             P2: T.OPCLASS == load  -> R1
             R1: srl T.RS, #26, $dr1
                 cmpeq $dr1, $dr2, $dr1
                 beq $dr1, =error
                 T.INSN",
            &syms(),
        )
        .unwrap();
        assert_eq!(set.num_rules(), 2);
        assert_eq!(set.num_seqs(), 1, "both patterns share R1");
        let st: Inst = "stq r0, 0(r2)".parse().unwrap();
        let ld: Inst = "ldq r0, 0(r2)".parse().unwrap();
        assert_eq!(set.lookup(&st), set.lookup(&ld));
        let spec = set.seq(set.lookup(&st).unwrap()).unwrap();
        let out = spec.instantiate_all(&st, 0x1000).unwrap();
        assert_eq!(out[0].to_string(), "srl r2, #26, $dr1");
        assert_eq!(out[2].imm, 0x7000 - 0x1004);
    }

    #[test]
    fn pattern_conditions() {
        let set = parse(
            "P1: T.OPCLASS == load && T.RS == r30 -> R1
             P2: T.OP == bne && T.IMM < 0 -> R1
             P3: T.IMM >= 0 && T.OPCLASS == cbranch -> R1
             P4: T.RT == r5 && T.OPCLASS == store -> R1
             P5: T.RD == r1 && T.OP == addq -> R1
             R1: T.INSN",
            &BTreeMap::new(),
        )
        .unwrap();
        let hit: Inst = "ldq r1, 8(r30)".parse().unwrap();
        assert!(set.lookup(&hit).is_some());
        let miss: Inst = "ldq r1, 8(r2)".parse().unwrap();
        assert!(set.lookup(&miss).is_none());
        assert!(set.lookup(&"bne r1, -4".parse().unwrap()).is_some());
        assert!(set.lookup(&"beq r1, 4".parse().unwrap()).is_some());
        assert!(set.lookup(&"stq r5, 0(r2)".parse().unwrap()).is_some());
        assert!(set.lookup(&"addq r2, r3, r1".parse().unwrap()).is_some());
        assert!(set.lookup(&"addq r2, r3, r4".parse().unwrap()).is_none());
    }

    #[test]
    fn aware_tag_rules() {
        let set = parse("P1: T.OP == cw0 -> TAG", &BTreeMap::new()).unwrap();
        assert_eq!(set.num_rules(), 1);
        // Non-codeword TAG target is rejected.
        assert!(parse("P1: T.OP == ldq -> TAG", &BTreeMap::new()).is_err());
    }

    #[test]
    fn directive_rich_sequences() {
        let spec = parse_sequence(
            "lda T.P1, #T.P2.s(T.P1)
             addq T.RS, #T.P1, $dr3
             bis T.RS, T.RT, $dr4
             stq T.RD, T.IMM($dr5)
             lda $dr6, #T.PC(r31)
             br r31, #T.P3:2.s<<2
             bne.d $dr1, @0",
        )
        .unwrap();
        assert_eq!(spec.len(), 7);
        assert!(spec.insts[0].is_parameterized());
        // The DISE branch parsed with a literal in-range target.
        spec.validate().unwrap();
    }

    #[test]
    fn parse_errors() {
        let e = |t: &str| parse(t, &BTreeMap::new());
        assert!(e("P1: T.BOGUS == 3 -> R1\nR1: nop").is_err());
        assert!(e("P1: T.OPCLASS == store -> R9").is_err()); // undefined seq
        assert!(e("nop").is_err()); // instruction outside a sequence
        assert!(e("P1: T.OPCLASS == store R1\nR1: nop").is_err()); // missing ->
        assert!(parse_sequence("cw0 r1, r2, r3, tag=5").is_err()); // no recursion
        assert!(parse_sequence("bne.d r1, 5").is_err()); // needs @
        assert!(parse_sequence("").is_err()); // empty sequence invalid
    }

    #[test]
    fn every_format_prints_as_a_line_that_parses_back() {
        // Every register directive in every register field and every
        // immediate directive in every immediate field, for each opcode
        // the language accepts. `ImmDirective::AbsTarget` is left out: it
        // prints the resolved address (`=0x7000`) where the language takes
        // a symbol name.
        use ImmDirective as I;
        use RegDirective as R;
        let regs = [
            R::Literal(Reg::r(5)),
            R::Literal(Reg::dr(3)),
            R::TriggerRs,
            R::TriggerRt,
            R::TriggerRd,
            R::Param(0),
            R::Param(1),
            R::Param(2),
        ];
        let imms = [
            I::Literal(-8),
            I::Literal(12),
            I::TriggerImm,
            I::TriggerPc,
            I::Param { slot: 1, shift: 0, signed: false },
            I::Param { slot: 2, shift: 3, signed: true },
            I::Param2 { hi: 2, lo: 1, shift: 2, signed: true },
            I::Param2 { hi: 0, lo: 1, shift: 0, signed: false },
        ];
        let (zero, no_imm) = (R::Literal(Reg::ZERO), I::Literal(0));
        let mut checked = 0;
        for &op in Op::ALL.iter().filter(|op| op.format() != Format::Codeword) {
            for (k, &ra) in regs.iter().enumerate() {
                let (rb, rc) = (regs[(k + 1) % regs.len()], regs[(k + 2) % regs.len()]);
                for &imm in &imms {
                    // (ra, rb, rc, imm, uses_lit, dise_branch) per layout.
                    let layouts = match op.format() {
                        Format::Memory => vec![(ra, rb, zero, imm, false, false)],
                        Format::Branch => vec![
                            (ra, zero, zero, imm, false, false),
                            // `@0`: the only index inside a one-line sequence.
                            (ra, zero, zero, no_imm, false, true),
                        ],
                        Format::Jump => vec![(ra, rb, zero, no_imm, false, false)],
                        Format::Operate => vec![
                            (ra, rb, rc, no_imm, false, false),
                            (ra, zero, rc, imm, true, false),
                        ],
                        _ => vec![(zero, zero, zero, no_imm, false, false)],
                    };
                    for (ra, rb, rc, imm, uses_lit, dise_branch) in layouts {
                        let spec = InstSpec::Templated {
                            op: OpDirective::Literal(op),
                            ra,
                            rb,
                            rc,
                            imm,
                            uses_lit,
                            dise_branch,
                        };
                        let text = spec.to_string();
                        let back = parse_sequence(&text)
                            .unwrap_or_else(|e| panic!("`{text}` does not parse: {e}"));
                        assert_eq!(back.insts, [spec], "`{text}`");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked} specs");
    }

    #[test]
    fn unknown_symbols_are_errors() {
        assert!(parse_sequence("beq $dr1, =nowhere").is_err());
    }

    #[test]
    fn round_trip_via_display() {
        // The ProductionSet Display output parses back (for the shapes the
        // DSL supports).
        let set = parse(
            "P1: T.OPCLASS == store -> R1
             R1: srl T.RS, #26, $dr1
                 T.INSN",
            &BTreeMap::new(),
        )
        .unwrap();
        let text = set.to_string();
        assert!(text.contains("srl T.RS, #26, $dr1"));
    }
}
