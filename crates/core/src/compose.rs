//! ACF composition (paper §3.3).
//!
//! DISE composes ACFs in software, by manipulating productions:
//!
//! * **Nested composition** `Y(X(application))` — [`compose_nested`] keeps
//!   Y's productions and adds X's productions with Y *inlined* into their
//!   replacement sequences: every entry of an X sequence that Y would match
//!   is replaced by Y's sequence for it, with Y's trigger-field directives
//!   substituted by the entry's own directives and Y's dedicated registers
//!   renamed if they collide with X's. Because X's rules must shadow Y's
//!   when both match a fetched instruction (X conceptually runs first),
//!   the inlined rules are installed at higher match priority.
//! * **Non-nested merging** — [`merge_specs`] concatenates two replacement
//!   sequences for overlapping patterns around a single shared trigger
//!   (Figure 5 right: trace *and* fault-isolate application stores, without
//!   fault-isolating the tracing stores).
//!
//! Matching during inlining is *static*: an outer pattern must be provably
//! matched or provably not matched by each inner entry (given the inner
//! rule's own pattern as a hint for `T.INSN` entries). A statically
//! undecidable match is a composition error — the same restriction the
//! paper imposes by construction.

use crate::pattern::Pattern;
use crate::production::{ProductionSet, SeqRef};
use crate::spec::{ImmDirective, InstSpec, OpDirective, RegDirective, ReplacementSpec};
use crate::{CoreError, Result};
use dise_isa::Reg;
use std::collections::BTreeMap;

/// Three-valued static match result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    Yes,
    No,
    Unknown,
}

/// Statically evaluates `pattern` against an inner spec entry. `hint` is
/// the inner production's own pattern, used to decide `T.INSN` entries.
fn match_entry(pattern: &Pattern, entry: &InstSpec, hint: Option<&Pattern>) -> Tri {
    match entry {
        InstSpec::Trigger => match hint {
            Some(h) if h.implies(pattern) => Tri::Yes,
            Some(h) if h.disjoint(pattern) => Tri::No,
            _ => Tri::Unknown,
        },
        InstSpec::Templated {
            op,
            ra,
            rb,
            rc,
            imm,
            uses_lit,
            ..
        } => {
            let OpDirective::Literal(op) = op else {
                // `T.OP` templated opcode: fall back to the hint.
                return match hint {
                    Some(h) if h.implies(pattern) => Tri::Yes,
                    Some(h) if h.disjoint(pattern) => Tri::No,
                    _ => Tri::Unknown,
                };
            };
            let mut saw_no = false;
            let mut saw_unknown = false;
            let mut check = |t: Tri| match t {
                Tri::No => saw_no = true,
                Tri::Unknown => saw_unknown = true,
                Tri::Yes => {}
            };
            if let Some(p_op) = pattern.op {
                check(if *op == p_op { Tri::Yes } else { Tri::No });
            }
            if let Some(p_class) = pattern.class {
                check(if op.class() == p_class { Tri::Yes } else { Tri::No });
            }
            let roles = op.operands().roles([*ra, *rb, *rc], *uses_lit);
            for (want, have) in [pattern.rs, pattern.rt, pattern.rd].iter().zip(roles) {
                if let Some(want) = want {
                    check(match have {
                        None => Tri::No, // role absent → constraint can't hold
                        Some(RegDirective::Literal(r)) => {
                            if r == *want {
                                Tri::Yes
                            } else {
                                Tri::No
                            }
                        }
                        Some(_) => Tri::Unknown,
                    });
                }
            }
            if let Some(p_imm) = pattern.imm {
                check(match imm {
                    ImmDirective::Literal(v) => {
                        if p_imm.matches(*v) {
                            Tri::Yes
                        } else {
                            Tri::No
                        }
                    }
                    _ => Tri::Unknown,
                });
            }
            if saw_no {
                Tri::No
            } else if saw_unknown {
                Tri::Unknown
            } else {
                Tri::Yes
            }
        }
    }
}

/// Substitutes the outer spec's trigger-referencing directives with the
/// inner entry's own directives, producing the splice for one expanded
/// entry. `base` is the splice's starting index in the composed sequence
/// (for shifting the outer spec's internal DISE-branch targets).
fn substitute(
    outer: &ReplacementSpec,
    inner_entry: &InstSpec,
    base: usize,
) -> Result<Vec<InstSpec>> {
    // Extract the inner entry's field directives by role.
    let inner_roles: [Option<RegDirective>; 3];
    let inner_imm: Option<ImmDirective>;
    match inner_entry {
        InstSpec::Trigger => {
            // Outer trigger directives pass through unchanged: the eventual
            // trigger of the composed sequence *is* the inner trigger.
            inner_roles = [
                Some(RegDirective::TriggerRs),
                Some(RegDirective::TriggerRt),
                Some(RegDirective::TriggerRd),
            ];
            inner_imm = Some(ImmDirective::TriggerImm);
        }
        InstSpec::Templated {
            op,
            ra,
            rb,
            rc,
            imm,
            uses_lit,
            ..
        } => {
            let OpDirective::Literal(op) = op else {
                return Err(CoreError::Compose(
                    "cannot inline into an entry with a templated opcode".into(),
                ));
            };
            inner_roles = op.operands().roles([*ra, *rb, *rc], *uses_lit);
            inner_imm = Some(*imm);
        }
    }
    let map_reg = |d: RegDirective| -> Result<RegDirective> {
        Ok(match d {
            RegDirective::TriggerRs => inner_roles[0].ok_or_else(|| {
                CoreError::Compose("outer T.RS but inner entry has no RS role".into())
            })?,
            RegDirective::TriggerRt => inner_roles[1].ok_or_else(|| {
                CoreError::Compose("outer T.RT but inner entry has no RT role".into())
            })?,
            RegDirective::TriggerRd => inner_roles[2].ok_or_else(|| {
                CoreError::Compose("outer T.RD but inner entry has no RD role".into())
            })?,
            other => other,
        })
    };
    let map_imm = |d: ImmDirective| -> Result<ImmDirective> {
        Ok(match d {
            ImmDirective::TriggerImm => inner_imm.ok_or_else(|| {
                CoreError::Compose("outer T.IMM but inner entry has no immediate".into())
            })?,
            other => other,
        })
    };
    let mut out = Vec::with_capacity(outer.len());
    for spec in &outer.insts {
        out.push(match spec {
            InstSpec::Trigger => inner_entry.clone(),
            InstSpec::Templated {
                op,
                ra,
                rb,
                rc,
                imm,
                uses_lit,
                dise_branch,
            } => {
                let imm = if *dise_branch {
                    // Shift the outer DISE branch target into the composed
                    // sequence's index space.
                    match imm {
                        ImmDirective::Literal(t) => ImmDirective::Literal(t + base as i64),
                        _ => {
                            return Err(CoreError::Compose(
                                "DISE branch with non-literal target".into(),
                            ))
                        }
                    }
                } else {
                    map_imm(*imm)?
                };
                InstSpec::Templated {
                    op: *op,
                    ra: map_reg(*ra)?,
                    rb: map_reg(*rb)?,
                    rc: map_reg(*rc)?,
                    imm,
                    uses_lit: *uses_lit,
                    dise_branch: *dise_branch,
                }
            }
        });
    }
    Ok(out)
}

/// Builds a consistent dedicated-register renaming for the outer ACF so its
/// registers never collide with the inner ACF's. Renaming is applied
/// uniformly across every splice, preserving the outer ACF's cross-expansion
/// register communication. Note the paper's convention (Figure 5) is for
/// composed ACFs to simply use disjoint dedicated registers; renaming only
/// kicks in when they do not.
fn rename_map(outer_regs: &[Reg], inner_regs: &[Reg]) -> Result<BTreeMap<Reg, Reg>> {
    let mut map = BTreeMap::new();
    let used: Vec<Reg> = outer_regs.iter().chain(inner_regs).copied().collect();
    let mut free = (0..dise_isa::reg::NUM_DEDICATED_REGS as u8)
        .map(Reg::dr)
        .filter(|r| !used.contains(r));
    for r in outer_regs {
        if inner_regs.contains(r) {
            let target = free.next().ok_or_else(|| {
                CoreError::Compose("no free dedicated registers for renaming".into())
            })?;
            map.insert(*r, target);
        }
    }
    Ok(map)
}

/// Inlines a transparent production set into one replacement sequence.
/// This is what the RT miss handler runs for compose-on-miss
/// configurations (§4.3); [`compose_nested`] uses it eagerly.
///
/// `hint`, when given, is the inner production's own pattern and is used to
/// decide whether outer rules apply to `T.INSN` entries.
///
/// # Errors
///
/// Fails if an outer pattern's applicability to some entry is statically
/// undecidable, if the matched outer rule is aware, or if dedicated-register
/// renaming runs out of registers.
pub fn inline_hinted(
    outer: &ProductionSet,
    spec: &ReplacementSpec,
    hint: Option<&Pattern>,
) -> Result<ReplacementSpec> {
    // Consistent renaming for this (outer, inner-sequence) pair.
    let outer_regs: Vec<Reg> = {
        let mut v: Vec<Reg> = outer
            .seqs()
            .flat_map(|(_, s)| s.dedicated_regs())
            .collect();
        v.sort();
        v.dedup();
        v
    };
    let inner_regs = spec.dedicated_regs();
    let renames = rename_map(&outer_regs, &inner_regs)?;

    // Pass 1: expand entries, recording the index map.
    let mut index_map = Vec::with_capacity(spec.len());
    let mut expanded: Vec<Vec<InstSpec>> = Vec::with_capacity(spec.len());
    let mut next_index = 0usize;
    for entry in &spec.insts {
        index_map.push(next_index);
        // Find the best provably-matching outer rule; reject if an
        // undecidable rule could outrank it.
        let mut best_yes: Option<(u8, u32, usize)> = None; // (prio, spec, idx)
        let mut best_unknown: Option<(u8, u32)> = None;
        for (i, rule) in outer.rules().iter().enumerate() {
            let key = (rule.priority, rule.pattern.specificity());
            match match_entry(&rule.pattern, entry, hint) {
                Tri::Yes => {
                    if best_yes.map(|(p, s, _)| (p, s) < key).unwrap_or(true) {
                        best_yes = Some((key.0, key.1, i));
                    }
                }
                Tri::Unknown => {
                    if best_unknown.map(|b| b < key).unwrap_or(true) {
                        best_unknown = Some(key);
                    }
                }
                Tri::No => {}
            }
        }
        if let Some(unk) = best_unknown {
            let beats_yes = best_yes.map(|(p, s, _)| unk >= (p, s)).unwrap_or(true);
            if beats_yes {
                return Err(CoreError::Compose(format!(
                    "outer pattern applicability to `{entry}` is statically undecidable"
                )));
            }
        }
        let splice = match best_yes {
            None => vec![entry.clone()],
            Some((_, _, rule_idx)) => {
                let rule = &outer.rules()[rule_idx];
                let id = match rule.seq {
                    SeqRef::Fixed(id) => id,
                    SeqRef::FromTag { .. } => {
                        return Err(CoreError::Compose(
                            "cannot inline an aware outer production".into(),
                        ))
                    }
                };
                let mut outer_spec = outer
                    .seq(id)
                    .ok_or(CoreError::UnknownSequence(id))?
                    .clone();
                if !renames.is_empty() {
                    // Rename the outer ACF's registers *before* splicing so
                    // the inner entry (inserted at T.INSN) keeps its own.
                    for s in &mut outer_spec.insts {
                        s.rename_dedicated(&mut |r| *renames.get(&r).unwrap_or(&r));
                    }
                }
                substitute(&outer_spec, entry, next_index)?
            }
        };
        next_index += splice.len();
        expanded.push(splice);
    }

    // Pass 2: rewrite the *inner* sequence's own DISE-branch targets
    // through the index map. (Entries spliced from the outer spec had their
    // targets shifted during substitution; kept inner entries are exactly
    // the 1:1 splices.)
    for (old_idx, splice) in expanded.iter_mut().enumerate() {
        if splice.len() == 1 && spec.insts[old_idx] == splice[0] {
            if let InstSpec::Templated {
                dise_branch: true,
                imm: ImmDirective::Literal(t),
                ..
            } = &mut splice[0]
            {
                let old_target = *t as usize;
                *t = *index_map.get(old_target).ok_or_else(|| {
                    CoreError::Compose("inner DISE branch target out of range".into())
                })? as i64;
            }
        }
    }

    let composed = ReplacementSpec::new(expanded.into_iter().flatten().collect());
    composed.validate()?;
    Ok(composed)
}

/// [`inline_hinted`] without a trigger-pattern hint (used when the inner
/// sequence is aware: its entries recreate original code and contain no
/// `T.INSN`).
pub fn inline(outer: &ProductionSet, spec: &ReplacementSpec) -> Result<ReplacementSpec> {
    inline_hinted(outer, spec, None)
}

/// Nested composition: productions implementing `outer(inner(application))`
/// (§3.3). The result holds the outer rules plus, at higher priority, the
/// inner rules with the outer ACF inlined into their replacement sequences.
///
/// # Errors
///
/// Propagates inlining failures; also fails on aware-tag collisions between
/// the two sets.
pub fn compose_nested(
    outer: &ProductionSet,
    inner: &ProductionSet,
) -> Result<ProductionSet> {
    let mut result = outer.clone();
    let prio = outer.max_priority().saturating_add(1);
    for rule in inner.rules() {
        match rule.seq {
            SeqRef::Fixed(id) => {
                let spec = inner.seq(id).ok_or(CoreError::UnknownSequence(id))?;
                let composed = inline_hinted(outer, spec, Some(&rule.pattern))?;
                result.add_transparent_prioritized(rule.pattern, composed, prio)?;
            }
            SeqRef::FromTag { base } => {
                let cw_op = rule.pattern.op.ok_or_else(|| {
                    CoreError::Compose("aware rule without an opcode pattern".into())
                })?;
                for (id, spec) in inner.seqs().filter(|(id, _)| {
                    *id >= base && *id <= base + dise_isa::inst::MAX_TAG as u32
                }) {
                    let tag = (id - base) as u16;
                    let composed = inline_hinted(outer, spec, Some(&rule.pattern))?;
                    if result.seq(id).is_some() {
                        return Err(CoreError::Compose(format!(
                            "aware tag collision on ({cw_op}, {tag})"
                        )));
                    }
                    result.add_aware(cw_op, tag, composed)?;
                }
                result.set_codeword_priority(cw_op, prio);
            }
        }
    }
    Ok(result)
}

/// Non-nested merge of two replacement sequences sharing a pattern: the
/// pre-trigger parts of both, one shared trigger, then the post-trigger
/// parts (Figure 5 right). Each input must contain exactly one `T.INSN`.
/// DISE-branch targets are re-indexed; `b`'s dedicated registers are
/// renamed if they collide with `a`'s.
///
/// # Errors
///
/// Fails if either sequence does not contain exactly one trigger or
/// renaming runs out of registers.
pub fn merge_specs(a: &ReplacementSpec, b: &ReplacementSpec) -> Result<ReplacementSpec> {
    let trig = |s: &ReplacementSpec| -> Result<usize> {
        let idxs: Vec<usize> = s
            .insts
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, InstSpec::Trigger))
            .map(|(i, _)| i)
            .collect();
        match idxs.as_slice() {
            [one] => Ok(*one),
            _ => Err(CoreError::Compose(
                "non-nested merge requires exactly one T.INSN per sequence".into(),
            )),
        }
    };
    let ta = trig(a)?;
    let tb = trig(b)?;
    let b_post = b.len() - tb - 1;

    // Rename b's colliding dedicated registers.
    let renames = rename_map(&b.dedicated_regs(), &a.dedicated_regs())?;
    let mut b = b.clone();
    if !renames.is_empty() {
        for s in &mut b.insts {
            s.rename_dedicated(&mut |r| *renames.get(&r).unwrap_or(&r));
        }
    }

    // Layout: A_pre | B_pre | T | B_post | A_post.
    let map_a = |i: usize| -> usize {
        use std::cmp::Ordering::*;
        match i.cmp(&ta) {
            Less => i,
            Equal => ta + tb,
            Greater => tb + b_post + i,
        }
    };
    let map_b = |i: usize| -> usize { ta + i };
    let fix = |entry: &InstSpec, map: &dyn Fn(usize) -> usize| -> Result<InstSpec> {
        let mut e = entry.clone();
        if let InstSpec::Templated {
            dise_branch: true,
            imm: ImmDirective::Literal(t),
            ..
        } = &mut e
        {
            *t = map(*t as usize) as i64;
        }
        Ok(e)
    };

    let mut out = Vec::with_capacity(a.len() + b.len() - 1);
    for e in &a.insts[..ta] {
        out.push(fix(e, &map_a)?);
    }
    for e in &b.insts[..tb] {
        out.push(fix(e, &map_b)?);
    }
    out.push(InstSpec::Trigger);
    for e in &b.insts[tb + 1..] {
        out.push(fix(e, &map_b)?);
    }
    for e in &a.insts[ta + 1..] {
        out.push(fix(e, &map_a)?);
    }
    let merged = ReplacementSpec::new(out);
    merged.validate()?;
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use dise_isa::{Inst, Op, OpClass};
    use std::collections::BTreeMap as Map;

    fn mfi() -> ProductionSet {
        dsl::parse(
            "P1: T.OPCLASS == store -> R1
             P2: T.OPCLASS == load  -> R1
             R1: srl T.RS, #26, $dr1
                 cmpeq $dr1, $dr2, $dr1
                 beq $dr1, =error
                 T.INSN",
            &[("error".to_string(), 0x7000)].into_iter().collect::<Map<_, _>>(),
        )
        .unwrap()
    }

    fn tracing() -> ProductionSet {
        // Figure 5: store-address tracing. Writes the store's effective
        // address (base+offset via lda) into a trace buffer pointed to by
        // $dr5.
        dsl::parse(
            "P3: T.OPCLASS == store -> R3
             R3: lda $dr4, T.IMM(T.RS)
                 stq $dr4, 0($dr5)
                 lda $dr5, 8($dr5)
                 T.INSN",
            &Map::new(),
        )
        .unwrap()
    }

    #[test]
    fn figure_5_nested_composition() {
        // Fault-isolate traced code: MFI(SAT(application)).
        let composed = compose_nested(&mfi(), &tracing()).unwrap();
        let store: Inst = "stq r9, 16(r2)".parse().unwrap();
        let id = composed.lookup(&store).unwrap();
        let spec = composed.seq(id).unwrap();
        // R3 has two stores (the tracing stq and T.INSN), each expanded by
        // MFI's 4-entry sequence: 1(lda) + 4 + 1(lda) + 4 = 10 entries.
        assert_eq!(spec.len(), 10);
        let insts = spec.instantiate_all(&store, 0x1000).unwrap();
        // First: the tracing lda computes the store address.
        assert_eq!(insts[0].to_string(), "lda $dr4, 16(r2)");
        // Then MFI checks the *tracing* store's address register ($dr5).
        assert_eq!(insts[1].to_string(), "srl $dr5, #26, $dr1");
        assert_eq!(insts[4].to_string(), "stq $dr4, 0($dr5)");
        // Finally MFI checks the original store's address register (r2).
        assert_eq!(insts[6].to_string(), "srl r2, #26, $dr1");
        assert_eq!(insts[9], store);
    }

    #[test]
    fn nested_composition_rule_precedence() {
        // Both ACFs match stores; the composed (inner) rule must win over
        // the plain outer rule.
        let composed = compose_nested(&mfi(), &tracing()).unwrap();
        let store: Inst = "stq r9, 16(r2)".parse().unwrap();
        let id = composed.lookup(&store).unwrap();
        assert_eq!(composed.seq(id).unwrap().len(), 10);
        // Loads only match MFI; they get the plain 4-entry sequence.
        let load: Inst = "ldq r9, 16(r2)".parse().unwrap();
        let lid = composed.lookup(&load).unwrap();
        assert_eq!(composed.seq(lid).unwrap().len(), 4);
    }

    #[test]
    fn figure_5_non_nested_merge() {
        // Trace and fault-isolate application stores, but do not
        // fault-isolate the tracing stores.
        let mfi = mfi();
        let sat = tracing();
        let r1 = mfi.seq(mfi.lookup(&"stq r1, 0(r2)".parse().unwrap()).unwrap()).unwrap();
        let r3 = sat.seq(sat.lookup(&"stq r1, 0(r2)".parse().unwrap()).unwrap()).unwrap();
        let r4 = merge_specs(r1, r3).unwrap();
        // pre(R1)=3 + pre(R3)=3 + T.INSN = 7.
        assert_eq!(r4.len(), 7);
        let store: Inst = "stq r9, 16(r2)".parse().unwrap();
        let insts = r4.instantiate_all(&store, 0x1000).unwrap();
        assert_eq!(insts[0].to_string(), "srl r2, #26, $dr1");
        assert_eq!(insts[3].to_string(), "lda $dr4, 16(r2)");
        assert_eq!(insts[4].to_string(), "stq $dr4, 0($dr5)");
        assert_eq!(insts[6], store);
    }

    #[test]
    fn inline_into_aware_sequence() {
        // Decompression-style aware sequence containing a load and an add.
        let mut aware = ProductionSet::new();
        let spec = dsl::parse_sequence(
            "ldq T.P1, 8(T.P2)
             addq T.P1, #1, T.P1",
        )
        .unwrap();
        aware.add_aware(Op::Cw0, 0, spec).unwrap();
        let composed = inline(&mfi(), aware.seq(aware.lookup(&Inst::codeword(Op::Cw0, 1, 2, 0, 0)).unwrap()).unwrap()).unwrap();
        // The load grows MFI's 3 check instructions; the add is untouched.
        assert_eq!(composed.len(), 5);
        let cw = Inst::codeword(Op::Cw0, 5, 6, 0, 0);
        let insts = composed.instantiate_all(&cw, 0x2000).unwrap();
        // The check operates on the load's (parameterized) address register.
        assert_eq!(insts[0].to_string(), "srl r6, #26, $dr1");
        assert_eq!(insts[3].to_string(), "ldq r5, 8(r6)");
        assert_eq!(insts[4].to_string(), "addq r5, #1, r5");
    }

    #[test]
    fn dedicated_register_conflicts_are_renamed() {
        // Inner uses $dr1, which MFI uses as scratch.
        let mut aware = ProductionSet::new();
        let spec = dsl::parse_sequence("stq $dr1, 0(T.P1)").unwrap();
        aware.add_aware(Op::Cw0, 0, spec.clone()).unwrap();
        let composed = inline(&mfi(), &spec).unwrap();
        let cw = Inst::codeword(Op::Cw0, 7, 0, 0, 0);
        let insts = composed.instantiate_all(&cw, 0).unwrap();
        // MFI's scratch register must have been renamed away from $dr1.
        assert_eq!(insts.len(), 4);
        let srl = insts[0];
        assert!(srl.rc.is_dedicated());
        assert_ne!(srl.rc, Reg::dr(1));
        // The store still stores $dr1.
        assert_eq!(insts[3].ra, Reg::dr(1));
    }

    #[test]
    fn undecidable_composition_is_an_error() {
        // Outer matches stores *through r2 specifically*; inner store's
        // address register is a codeword parameter — undecidable.
        let mut outer = ProductionSet::new();
        outer
            .add_transparent(
                Pattern::opclass(OpClass::Store).with_rs(Reg::R2),
                ReplacementSpec::identity(),
            )
            .unwrap();
        let spec = dsl::parse_sequence("stq r1, 0(T.P1)").unwrap();
        assert!(matches!(
            inline(&outer, &spec),
            Err(CoreError::Compose(_))
        ));
    }

    #[test]
    fn no_recursive_expansion() {
        // The spliced MFI check contains no stores, so inlining MFI into a
        // single-store sequence yields exactly one check, not an infinite
        // regress. (Guaranteed structurally: we never re-inspect splices.)
        let spec = dsl::parse_sequence("stq r1, 0(r2)").unwrap();
        let once = inline(&mfi(), &spec).unwrap();
        assert_eq!(once.len(), 4);
    }

    #[test]
    fn merge_requires_single_triggers() {
        let no_trigger = dsl::parse_sequence("nop").unwrap();
        let ok = ReplacementSpec::identity();
        assert!(merge_specs(&no_trigger, &ok).is_err());
        assert!(merge_specs(&ok, &no_trigger).is_err());
        assert_eq!(merge_specs(&ok, &ok).unwrap().len(), 1);
    }
}
