//! Productions and production sets.
//!
//! A production pairs a [`Pattern`] with a replacement sequence. For
//! *transparent* productions the replacement-sequence identifier is fixed
//! per pattern; for *aware* productions the identifier is carved out of the
//! trigger's bits — the 11-bit explicit tag of a reserved-opcode codeword
//! (paper §2.1). A [`ProductionSet`] is the architectural, virtual set of
//! active productions; the finite PT/RT in [`crate::engine`] cache it.

use crate::pattern::Pattern;
use crate::spec::ReplacementSpec;
use crate::{CoreError, Result};
use dise_isa::{Inst, Op};
use std::collections::BTreeMap;
use std::fmt;

/// Identifies a replacement sequence in the virtual namespace.
///
/// Aware sequences installed for codeword opcode `cw` with tag `t` get the
/// identifier `aware_base(cw) + t`, so tags from different reserved opcodes
/// never collide.
pub type ReplacementId = u32;

/// How a production names its replacement sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqRef {
    /// Transparent production: a fixed identifier.
    Fixed(ReplacementId),
    /// Aware production: the identifier is `base + T.TAG`, where `T.TAG` is
    /// the trigger's explicit 11-bit tag.
    FromTag {
        /// Identifier of tag 0 for this production's codeword opcode.
        base: ReplacementId,
    },
}

/// A production: pattern → replacement sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Production {
    /// The pattern specification.
    pub pattern: Pattern,
    /// How the replacement-sequence identifier is obtained.
    pub seq: SeqRef,
    /// Match priority. When several rules match, higher priority wins
    /// before specificity is considered. Plain ACFs use priority 0; nested
    /// composition gives inner (first-applied) rules higher priority so
    /// they take precedence over the outer ACF's own rules (§3.3).
    pub priority: u8,
}

/// Base of the aware identifier space for a codeword opcode.
fn aware_base(op: Op) -> ReplacementId {
    let slot = Op::CODEWORDS
        .iter()
        .position(|o| *o == op)
        .expect("aware productions use reserved codeword opcodes") as u32;
    // Leave [0, 2^16) for transparent sequences.
    (1 << 16) + slot * (dise_isa::inst::MAX_TAG as u32 + 1)
}

/// The architectural set of active productions: patterns plus the virtual
/// replacement-sequence store.
///
/// ```
/// use dise_core::{Pattern, ProductionSet, ReplacementSpec};
/// use dise_isa::{Inst, OpClass};
///
/// let mut set = ProductionSet::new();
/// let id = set
///     .add_transparent(Pattern::opclass(OpClass::Store), ReplacementSpec::identity())
///     .unwrap();
/// let store: Inst = "stq r1, 0(r2)".parse().unwrap();
/// assert_eq!(set.lookup(&store), Some(id));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProductionSet {
    rules: Vec<Production>,
    seqs: BTreeMap<ReplacementId, ReplacementSpec>,
    next_transparent: ReplacementId,
}

impl ProductionSet {
    /// Creates an empty set.
    pub fn new() -> ProductionSet {
        ProductionSet::default()
    }

    /// Adds a transparent production, allocating a fresh identifier.
    ///
    /// # Errors
    ///
    /// Fails if the replacement sequence is structurally invalid.
    pub fn add_transparent(
        &mut self,
        pattern: Pattern,
        spec: ReplacementSpec,
    ) -> Result<ReplacementId> {
        spec.validate()?;
        let id = self.next_transparent;
        if id >= 1 << 16 {
            return Err(CoreError::BadProduction(
                "transparent sequence namespace exhausted".into(),
            ));
        }
        self.next_transparent += 1;
        self.seqs.insert(id, spec);
        self.rules.push(Production {
            pattern,
            seq: SeqRef::Fixed(id),
            priority: 0,
        });
        Ok(id)
    }

    /// Adds a transparent production with an explicit match priority.
    /// Higher-priority rules beat lower-priority ones regardless of
    /// specificity; used by nested composition (§3.3).
    ///
    /// # Errors
    ///
    /// Fails if the replacement sequence is structurally invalid.
    pub fn add_transparent_prioritized(
        &mut self,
        pattern: Pattern,
        spec: ReplacementSpec,
        priority: u8,
    ) -> Result<ReplacementId> {
        let id = self.add_transparent(pattern, spec)?;
        self.rules
            .last_mut()
            .expect("just pushed")
            .priority = priority;
        Ok(id)
    }

    /// The highest priority of any rule in the set (0 if empty).
    pub fn max_priority(&self) -> u8 {
        self.rules.iter().map(|r| r.priority).max().unwrap_or(0)
    }

    /// Sets the match priority of the aware rule for `cw_op`, if present
    /// (used by nested composition so composed aware rules shadow outer
    /// transparent rules).
    pub fn set_codeword_priority(&mut self, cw_op: Op, priority: u8) {
        for rule in &mut self.rules {
            if rule.pattern == Pattern::opcode(cw_op)
                && matches!(rule.seq, SeqRef::FromTag { .. })
            {
                rule.priority = priority;
            }
        }
    }

    /// Adds a transparent production that maps `pattern` to an
    /// already-installed sequence (several patterns may share one sequence,
    /// as Figure 1's load and store patterns share R1).
    ///
    /// # Errors
    ///
    /// Fails if `id` is not installed.
    pub fn add_pattern(&mut self, pattern: Pattern, id: ReplacementId) -> Result<()> {
        if !self.seqs.contains_key(&id) {
            return Err(CoreError::UnknownSequence(id));
        }
        self.rules.push(Production {
            pattern,
            seq: SeqRef::Fixed(id),
            priority: 0,
        });
        Ok(())
    }

    /// Declares an aware production for reserved opcode `cw_op`: any fetched
    /// codeword with that opcode expands to the sequence named by its tag.
    /// Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `cw_op` is not a reserved codeword opcode.
    pub fn add_aware_rule(&mut self, cw_op: Op) {
        assert!(cw_op.is_codeword());
        let base = aware_base(cw_op);
        let rule = Production {
            pattern: Pattern::opcode(cw_op),
            seq: SeqRef::FromTag { base },
            priority: 0,
        };
        if !self.rules.contains(&rule) {
            self.rules.push(rule);
        }
    }

    /// Installs an aware replacement sequence (a "dictionary entry") under
    /// `(cw_op, tag)` and ensures the matching aware rule exists.
    ///
    /// # Errors
    ///
    /// Fails if the spec is invalid or the tag exceeds 11 bits.
    pub fn add_aware(
        &mut self,
        cw_op: Op,
        tag: u16,
        spec: ReplacementSpec,
    ) -> Result<ReplacementId> {
        spec.validate()?;
        if tag > dise_isa::inst::MAX_TAG {
            return Err(CoreError::BadProduction(format!(
                "tag {tag} exceeds 11 bits"
            )));
        }
        self.add_aware_rule(cw_op);
        let id = aware_base(cw_op) + tag as u32;
        self.seqs.insert(id, spec);
        Ok(id)
    }

    /// The rules, in installation order.
    pub fn rules(&self) -> &[Production] {
        &self.rules
    }

    /// Looks up a replacement sequence by identifier.
    pub fn seq(&self, id: ReplacementId) -> Option<&ReplacementSpec> {
        self.seqs.get(&id)
    }

    /// Iterates over all installed `(id, sequence)` pairs.
    pub fn seqs(&self) -> impl Iterator<Item = (ReplacementId, &ReplacementSpec)> {
        self.seqs.iter().map(|(id, s)| (*id, s))
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of installed sequences.
    pub fn num_seqs(&self) -> usize {
        self.seqs.len()
    }

    /// True if the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Architectural match: the most specific matching rule's replacement
    /// identifier for this instruction, if any. Ties go to the
    /// earliest-installed rule.
    ///
    /// This is the *functional* semantics; the engine selects through
    /// [`ProductionSet::select`] too, among the rules covering the opcode.
    pub fn lookup(&self, inst: &Inst) -> Option<ReplacementId> {
        self.select(inst, 0..self.rules.len())
    }

    /// [`ProductionSet::lookup`] among the rules numbered `candidates`:
    /// the matching candidate with the highest (priority, specificity)
    /// wins, ties going to the earliest installed rule. The winner is the
    /// same for any candidate list that holds every matching rule, which
    /// is how the engine selects among the rules covering an opcode.
    ///
    /// # Panics
    ///
    /// Panics if a candidate is not a rule index.
    pub fn select(
        &self,
        inst: &Inst,
        candidates: impl IntoIterator<Item = usize>,
    ) -> Option<ReplacementId> {
        candidates
            .into_iter()
            .map(|i| (i, &self.rules[i]))
            .filter(|(_, p)| p.pattern.matches(inst))
            .max_by_key(|(i, p)| (p.priority, p.pattern.specificity(), usize::MAX - *i))
            .map(|(_, p)| match p.seq {
                SeqRef::Fixed(id) => id,
                SeqRef::FromTag { base } => base + inst.codeword_tag() as u32,
            })
    }

    /// Merges another set's rules and sequences into this one, remapping the
    /// other set's transparent identifiers to avoid collisions. Aware
    /// sequences keep their `(opcode, tag)` identity; colliding tags are an
    /// error.
    ///
    /// # Errors
    ///
    /// Fails on aware tag collisions.
    pub fn absorb(&mut self, other: &ProductionSet) -> Result<()> {
        let mut remap: BTreeMap<ReplacementId, ReplacementId> = BTreeMap::new();
        for (id, spec) in &other.seqs {
            if *id < 1 << 16 {
                let new_id = self.next_transparent;
                if new_id >= 1 << 16 {
                    return Err(CoreError::BadProduction(
                        "transparent sequence namespace exhausted".into(),
                    ));
                }
                self.next_transparent += 1;
                self.seqs.insert(new_id, spec.clone());
                remap.insert(*id, new_id);
            } else {
                if self.seqs.contains_key(id) {
                    return Err(CoreError::Compose(format!(
                        "aware tag collision on identifier {id}"
                    )));
                }
                self.seqs.insert(*id, spec.clone());
            }
        }
        for rule in &other.rules {
            let seq = match rule.seq {
                SeqRef::Fixed(id) => SeqRef::Fixed(*remap.get(&id).unwrap_or(&id)),
                aware @ SeqRef::FromTag { .. } => aware,
            };
            let new_rule = Production {
                pattern: rule.pattern,
                seq,
                priority: rule.priority,
            };
            if !self.rules.contains(&new_rule) {
                self.rules.push(new_rule);
            }
        }
        Ok(())
    }
}

impl fmt::Display for ProductionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            let target = match rule.seq {
                SeqRef::Fixed(id) => format!("R{id}"),
                SeqRef::FromTag { base } => format!("TAG(base={base})"),
            };
            writeln!(f, "P{}: {} -> {}", i + 1, rule.pattern, target)?;
        }
        for (id, seq) in &self.seqs {
            writeln!(f, "R{id}:")?;
            for line in seq.to_string().lines() {
                writeln!(f, "    {line}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::InstSpec;
    use dise_isa::{OpClass, Reg};

    fn i(s: &str) -> Inst {
        s.parse().unwrap()
    }

    #[test]
    fn most_specific_wins() {
        let mut set = ProductionSet::new();
        // "All loads" does real work; "loads off the stack pointer" is the
        // negative pattern performing the identity expansion (paper §2.2).
        let work = set
            .add_transparent(
                Pattern::opclass(OpClass::Load),
                ReplacementSpec::new(vec![InstSpec::Trigger, InstSpec::Trigger]),
            )
            .unwrap();
        let ident = set
            .add_transparent(
                Pattern::opclass(OpClass::Load).with_rs(Reg::SP),
                ReplacementSpec::identity(),
            )
            .unwrap();
        assert_eq!(set.lookup(&i("ldq r1, 0(r7)")), Some(work));
        assert_eq!(set.lookup(&i("ldq r1, 0(r30)")), Some(ident));
        assert_eq!(set.lookup(&i("stq r1, 0(r30)")), None);
        // An exact duplicate never wins: ties go to the earliest rule.
        let sp_load = Pattern::opclass(OpClass::Load).with_rs(Reg::SP);
        set.add_transparent(sp_load, ReplacementSpec::identity())
            .unwrap();
        assert_eq!(set.lookup(&i("ldq r1, 0(r30)")), Some(ident));
        // Priority goes before specificity; `select` picks among the
        // candidates it is given.
        let urgent = set
            .add_transparent_prioritized(
                Pattern::opclass(OpClass::Load),
                ReplacementSpec::identity(),
                1,
            )
            .unwrap();
        assert_eq!(set.lookup(&i("ldq r1, 0(r30)")), Some(urgent));
        assert_eq!(set.select(&i("ldq r1, 0(r30)"), 0..3), Some(ident));
    }

    #[test]
    fn shared_sequences() {
        let mut set = ProductionSet::new();
        let id = set
            .add_transparent(
                Pattern::opclass(OpClass::Store),
                ReplacementSpec::identity(),
            )
            .unwrap();
        set.add_pattern(Pattern::opclass(OpClass::Load), id).unwrap();
        assert_eq!(set.lookup(&i("ldq r1, 0(r2)")), Some(id));
        assert_eq!(set.lookup(&i("stq r1, 0(r2)")), Some(id));
        assert_eq!(set.num_seqs(), 1);
        assert_eq!(set.num_rules(), 2);
    }

    #[test]
    fn aware_tags_select_sequences() {
        let mut set = ProductionSet::new();
        let a = set
            .add_aware(Op::Cw0, 0, ReplacementSpec::identity())
            .unwrap();
        let b = set
            .add_aware(
                Op::Cw0,
                7,
                ReplacementSpec::new(vec![InstSpec::Trigger, InstSpec::Trigger]),
            )
            .unwrap();
        assert_ne!(a, b);
        let cw0 = Inst::codeword(Op::Cw0, 0, 0, 0, 0);
        let cw7 = Inst::codeword(Op::Cw0, 0, 0, 0, 7);
        assert_eq!(set.lookup(&cw0), Some(a));
        assert_eq!(set.lookup(&cw7), Some(b));
        // Tag with no installed sequence resolves to an id with no spec.
        let cw9 = Inst::codeword(Op::Cw0, 0, 0, 0, 9);
        let id9 = set.lookup(&cw9).unwrap();
        assert!(set.seq(id9).is_none());
    }

    #[test]
    fn aware_opcodes_do_not_collide() {
        let mut set = ProductionSet::new();
        let a = set
            .add_aware(Op::Cw0, 5, ReplacementSpec::identity())
            .unwrap();
        let b = set
            .add_aware(Op::Cw1, 5, ReplacementSpec::identity())
            .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn absorb_remaps_transparent_ids() {
        let mut a = ProductionSet::new();
        let ida = a
            .add_transparent(
                Pattern::opclass(OpClass::Store),
                ReplacementSpec::identity(),
            )
            .unwrap();
        let mut b = ProductionSet::new();
        b.add_transparent(
            Pattern::opclass(OpClass::Load),
            ReplacementSpec::new(vec![InstSpec::Trigger, InstSpec::Trigger]),
        )
        .unwrap();
        a.absorb(&b).unwrap();
        assert_eq!(a.num_rules(), 2);
        assert_eq!(a.num_seqs(), 2);
        let load_id = a.lookup(&i("ldq r1, 0(r2)")).unwrap();
        assert_ne!(load_id, ida);
        assert_eq!(a.seq(load_id).unwrap().len(), 2);
    }

    #[test]
    fn absorb_detects_aware_collisions() {
        let mut a = ProductionSet::new();
        a.add_aware(Op::Cw0, 3, ReplacementSpec::identity()).unwrap();
        let mut b = ProductionSet::new();
        b.add_aware(Op::Cw0, 3, ReplacementSpec::identity()).unwrap();
        assert!(matches!(a.absorb(&b), Err(CoreError::Compose(_))));
    }

    #[test]
    fn display_renders_rules_and_sequences() {
        let mut set = ProductionSet::new();
        set.add_transparent(
            Pattern::opclass(OpClass::Store),
            ReplacementSpec::identity(),
        )
        .unwrap();
        let text = set.to_string();
        assert!(text.contains("P1: T.OPCLASS == store -> R0"));
        assert!(text.contains("T.INSN"));
    }
}
