//! Program relocation.
//!
//! Both static transformations the paper evaluates move code: the
//! binary-rewriting fault-isolation baseline *inserts* check sequences
//! before unsafe instructions (§3.1), and the code compressor *replaces*
//! multi-instruction sequences with codewords (§3.2). Either way every
//! PC-relative branch displacement in the program must be recomputed — the
//! exact problem the paper highlights for unparameterized compression of
//! PC-relative branches.
//!
//! [`Relocator`] implements this once for both clients. The caller walks the
//! original program describing, in order, *spans* of original instructions
//! and the new [`TextItem`]s that replace them (an untouched instruction is
//! a 1:1 span). New branch items — and codewords whose sequence ends in a
//! branch — may declare that they should be patched to reach the new
//! location of an old address, or a symbolic label defined on another new
//! item. `finish` lays out the new text, patches displacements, verifies
//! that no surviving branch targets the interior of a replaced span, and
//! seals the new program; it also returns the old→new address map.

use crate::inst::Inst;
use crate::op::Format;
use crate::program::{Image, Program, TextItem};
use crate::reg::Reg;
use crate::{IsaError, Result};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};

/// How a new branch item's displacement should be resolved after layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NewTarget {
    /// Patch the branch to reach the new address of this original address.
    OldAddr(u64),
    /// Patch the branch to reach the item labeled with this name.
    Label(Cow<'static, str>),
}

/// One item of replacement text, with optional label definition and branch
/// retargeting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewItem {
    /// The text item to emit.
    pub item: TextItem,
    /// Defines a label at this item's final address.
    pub label: Option<Cow<'static, str>>,
    /// For branches and branching codewords: how to compute the
    /// displacement.
    pub target: Option<NewTarget>,
}

impl NewItem {
    /// A plain item: no label, no retargeting.
    pub fn plain(item: TextItem) -> NewItem {
        NewItem {
            item,
            label: None,
            target: None,
        }
    }

    /// A plain instruction.
    pub fn inst(inst: Inst) -> NewItem {
        NewItem::plain(TextItem::Inst(inst))
    }

    /// A branch instruction that must be patched to reach `target`, or a
    /// codeword whose replacement sequence ends in a PC-relative branch
    /// to `target` (patched into its parameters 2 and 3, see
    /// [`Inst::codeword_disp_params`]).
    pub fn branch(inst: Inst, target: NewTarget) -> NewItem {
        debug_assert!(matches!(inst.op.format(), Format::Branch | Format::Codeword));
        NewItem {
            item: TextItem::Inst(inst),
            label: None,
            target: Some(target),
        }
    }

    /// Attaches a label definition to this item.
    pub fn with_label(mut self, label: impl Into<Cow<'static, str>>) -> NewItem {
        self.label = Some(label.into());
        self
    }
}

/// A [`NewItem`] as the relocator holds it: the item plus its target
/// packed in one word, 24 bytes. Few items carry a label or a label
/// target, so those live in side lists instead of in every item.
#[derive(Debug, Clone, Copy)]
struct Slot {
    item: TextItem,
    /// [`NO_TARGET`]; an old address below [`SIDE_TARGET`]; or
    /// `SIDE_TARGET | i` for entry `i` of [`Relocator::side_targets`].
    target: u64,
}

const NO_TARGET: u64 = u64::MAX;
const SIDE_TARGET: u64 = 1 << 63;

/// Relocating program transformer. See the module docs for the protocol.
pub struct Relocator<'a> {
    original: &'a Program,
    /// Original instructions, in order.
    insts: Vec<(u64, Inst)>,
    /// Index into `insts` of the next instruction not yet covered by a span.
    cursor: usize,
    /// Every span's new items, spans in program order.
    items: Vec<Slot>,
    /// Per span: its first original address and the end of its items in
    /// `items` (each span's items start where the previous one's end).
    spans: Vec<(u64, usize)>,
    tail: Vec<Slot>,
    /// Label definitions: the index in `items` (or, for `tail_labels`, in
    /// `tail`) of the labeled item, in emission order.
    labels: Vec<(usize, Cow<'static, str>)>,
    tail_labels: Vec<(usize, Cow<'static, str>)>,
    /// Targets that do not pack into a slot: each label once, and any old
    /// address at or above [`SIDE_TARGET`].
    side_targets: Vec<NewTarget>,
    /// Index in `side_targets` of each label target.
    label_ids: HashMap<Cow<'static, str>, u64>,
}

impl std::fmt::Debug for Relocator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relocator")
            .field("cursor", &self.cursor)
            .field("spans", &self.spans.len())
            .finish()
    }
}

/// The result of a relocation: the transformed program and the address map.
#[derive(Debug, Clone)]
pub struct RelocOutput {
    /// The transformed program (entry point and symbols remapped).
    pub program: Program,
    /// Each original span-start address with its new address, ascending
    /// (spans are declared in program order), ending with the original
    /// text end. Untouched instructions appear individually; addresses
    /// strictly inside a replaced span do not appear.
    old_to_new: Vec<(u64, u64)>,
}

impl RelocOutput {
    /// The new address of original address `old`, if a span starts there
    /// or it is the original text end.
    pub fn new_addr(&self, old: u64) -> Option<u64> {
        new_addr(&self.old_to_new, old)
    }
}

/// Binary search of a sorted old→new address list.
fn new_addr(old_to_new: &[(u64, u64)], old: u64) -> Option<u64> {
    let i = old_to_new.binary_search_by_key(&old, |&(o, _)| o).ok()?;
    Some(old_to_new[i].1)
}

impl<'a> Relocator<'a> {
    /// Starts a relocation of `original`, which must be an uncompressed
    /// (4-byte instructions only) image.
    ///
    /// # Errors
    ///
    /// Fails if the original contains short codewords or undecodable bytes.
    pub fn new(original: &'a Program) -> Result<Relocator<'a>> {
        let insts = original.insts()?;
        let n = insts.len();
        Ok(Relocator {
            original,
            insts,
            cursor: 0,
            items: Vec::with_capacity(n),
            spans: Vec::with_capacity(n),
            tail: Vec::new(),
            labels: Vec::new(),
            tail_labels: Vec::new(),
            side_targets: Vec::new(),
            label_ids: HashMap::new(),
        })
    }

    /// The original instructions, for the caller to inspect while planning
    /// spans.
    pub fn insts(&self) -> &[(u64, Inst)] {
        &self.insts
    }

    /// Original address of the next uncovered instruction.
    pub fn cursor_pc(&self) -> Option<u64> {
        self.insts.get(self.cursor).map(|(pc, _)| *pc)
    }

    /// Covers the next `old_len` original instructions with `items`.
    /// Spans must be declared strictly in program order.
    ///
    /// # Errors
    ///
    /// Fails if `old_len` is zero or runs past the end of the program.
    pub fn replace(
        &mut self,
        old_len: usize,
        items: impl IntoIterator<Item = NewItem>,
    ) -> Result<()> {
        if old_len == 0 {
            return Err(IsaError::Reloc("span must cover at least one instruction".into()));
        }
        if self.cursor + old_len > self.insts.len() {
            return Err(IsaError::Reloc("span runs past end of program".into()));
        }
        let old_start = self.insts[self.cursor].0;
        for ni in items {
            let slot = self.slot(ni, false);
            self.items.push(slot);
        }
        self.spans.push((old_start, self.items.len()));
        self.cursor += old_len;
        Ok(())
    }

    /// Packs `ni` into a slot, recording its label definition (at the next
    /// index of `tail` when `in_tail`, else of `items`) and any target that
    /// does not fit the slot's word.
    fn slot(&mut self, ni: NewItem, in_tail: bool) -> Slot {
        if let Some(label) = ni.label {
            let (at, defs) = if in_tail {
                (self.tail.len(), &mut self.tail_labels)
            } else {
                (self.items.len(), &mut self.labels)
            };
            defs.push((at, label));
        }
        let target = match ni.target {
            None => NO_TARGET,
            Some(NewTarget::OldAddr(a)) if a < SIDE_TARGET => a,
            Some(NewTarget::Label(l)) => match self.label_ids.get(&l) {
                Some(&id) => SIDE_TARGET | id,
                None => {
                    let id = self.side_targets.len() as u64;
                    self.label_ids.insert(l.clone(), id);
                    self.side_targets.push(NewTarget::Label(l));
                    SIDE_TARGET | id
                }
            },
            Some(far) => {
                self.side_targets.push(far);
                SIDE_TARGET | (self.side_targets.len() - 1) as u64
            }
        };
        Slot {
            item: ni.item,
            target,
        }
    }

    /// Keeps the next original instruction unchanged. PC-relative branches
    /// are automatically marked for retargeting.
    ///
    /// # Errors
    ///
    /// Fails at the end of the program.
    pub fn keep(&mut self) -> Result<()> {
        self.keep_after([])
    }

    /// [`Relocator::keep`], with `before` emitted ahead of the kept
    /// instruction in its span (so the original address maps to the first
    /// of them).
    ///
    /// # Errors
    ///
    /// Fails at the end of the program.
    pub fn keep_after(&mut self, before: impl IntoIterator<Item = NewItem>) -> Result<()> {
        let (pc, inst) = *self
            .insts
            .get(self.cursor)
            .ok_or_else(|| IsaError::Reloc("keep past end of program".into()))?;
        let item = if inst.op.format() == Format::Branch {
            NewItem::branch(inst, NewTarget::OldAddr(inst.branch_target(pc)))
        } else {
            NewItem::inst(inst)
        };
        self.replace(1, before.into_iter().chain([item]))
    }

    /// Keeps all remaining original instructions unchanged.
    pub fn keep_rest(&mut self) -> Result<()> {
        while self.cursor < self.insts.len() {
            self.keep()?;
        }
        Ok(())
    }

    /// Appends items after the last original instruction (e.g. an error
    /// handler block).
    pub fn append_tail(&mut self, items: impl IntoIterator<Item = NewItem>) {
        for ni in items {
            let slot = self.slot(ni, true);
            self.tail.push(slot);
        }
    }

    /// Lays out the new program, patches branches, and remaps symbols.
    ///
    /// # Errors
    ///
    /// Fails if original instructions remain uncovered, a branch targets the
    /// interior of a replaced span, a label is undefined or doubly defined,
    /// or a patched displacement overflows its field.
    pub fn finish(self) -> Result<RelocOutput> {
        if self.cursor != self.insts.len() {
            return Err(IsaError::Reloc(format!(
                "{} original instructions left uncovered",
                self.insts.len() - self.cursor
            )));
        }
        // Pass 1: lay out addresses, recording span starts and labels.
        let base = self.original.text_base();
        let tail_start = self.items.len();
        let mut defs = (self.labels.iter().map(|(at, l)| (*at, l)))
            .chain(self.tail_labels.iter().map(|(at, l)| (tail_start + at, l)))
            .peekable();
        let mut labels: BTreeMap<&str, u64> = BTreeMap::new();
        // Defines the labels on item `at` (numbered across `items` then
        // `tail`), laid out at `pc`.
        let mut define = |at: usize, pc: u64| -> Result<()> {
            while let Some((_, label)) = defs.next_if(|(d, _)| *d == at) {
                if labels.insert(label, pc).is_some() {
                    return Err(IsaError::Reloc(format!("label `{label}` defined twice")));
                }
            }
            Ok(())
        };
        let mut old_to_new = Vec::with_capacity(self.spans.len() + 1);
        let mut pc = base;
        let mut begin = 0;
        for &(old_start, end) in &self.spans {
            old_to_new.push((old_start, pc));
            for at in begin..end {
                define(at, pc)?;
                pc += self.items[at].item.size();
            }
            begin = end;
        }
        for (at, slot) in self.tail.iter().enumerate() {
            define(tail_start + at, pc)?;
            pc += slot.item.size();
        }
        // The one-past-the-end address maps too (a branch may target it).
        old_to_new.push((self.original.text_end(), pc));

        // Pass 2: patch branch displacements and serialize.
        let resolve_old = |a: u64| -> Result<u64> {
            new_addr(&old_to_new, a).ok_or_else(|| {
                IsaError::Reloc(format!(
                    "branch targets {a:#x}, which is inside a replaced sequence"
                ))
            })
        };
        let resolve = |word: u64| -> Result<u64> {
            if word < SIDE_TARGET {
                return resolve_old(word);
            }
            match &self.side_targets[(word & !SIDE_TARGET) as usize] {
                NewTarget::OldAddr(a) => resolve_old(*a),
                NewTarget::Label(l) => labels
                    .get(l.as_ref())
                    .copied()
                    .ok_or_else(|| IsaError::UndefinedLabel(l.to_string())),
            }
        };
        let mut text = Vec::with_capacity((pc - base) as usize);
        for slot in self.items.iter().chain(&self.tail) {
            let mut item = slot.item;
            if slot.target != NO_TARGET {
                let addr = base + text.len() as u64;
                let new_target = resolve(slot.target)?;
                let TextItem::Inst(inst) = &mut item else {
                    return Err(IsaError::Reloc("retarget on a non-instruction".into()));
                };
                let disp = new_target as i64 - (addr as i64 + 4);
                match inst.op.format() {
                    Format::Branch => inst.imm = disp,
                    Format::Codeword => {
                        let [p2, p3] = Inst::codeword_disp_params(disp).ok_or_else(|| {
                            IsaError::Reloc(format!(
                                "patched codeword at {addr:#x} cannot reach {new_target:#x}: \
                                 displacement {disp} exceeds the two-parameter range"
                            ))
                        })?;
                        (inst.rb, inst.rc) = (Reg::r(p2), Reg::r(p3));
                    }
                    _ => {
                        return Err(IsaError::Reloc(format!(
                            "retarget on non-branch `{inst}`"
                        )))
                    }
                }
                // Layout can stretch a displacement past the branch
                // format's encodable range; surface that as a relocation
                // failure (with the addresses involved) rather than the
                // bare immediate-range error — and never let it reach
                // the encoder, whose masking would silently truncate.
                if inst.validate().is_err() {
                    return Err(IsaError::Reloc(format!(
                        "patched branch at {addr:#x} cannot reach {new_target:#x}: \
                         displacement {disp} overflows the branch immediate field"
                    )));
                }
            }
            item.write_to(&mut text)?;
        }

        // Remap entry and symbols.
        let original = self.original;
        let entry = new_addr(&old_to_new, original.entry()).ok_or_else(|| {
            IsaError::Reloc("entry point is inside a replaced sequence".into())
        })?;
        let mut symbols = BTreeMap::new();
        for (name, addr) in original.symbols() {
            if let Some(new) = new_addr(&old_to_new, *addr) {
                symbols.insert(name.clone(), new);
            }
        }
        for (name, addr) in labels {
            symbols.insert(name.to_string(), addr);
        }
        let program = Image {
            entry,
            data_base: original.data_base(),
            data_size: original.data_size(),
            data_init: original.data_init().to_vec(),
            symbols,
            ..Image::new(base, text)
        }
        .into();
        Ok(RelocOutput {
            program,
            old_to_new,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::op::Op;
    use crate::reg::Reg;

    fn program(listing: &str) -> Program {
        Assembler::new(0x1000).assemble(listing).unwrap()
    }

    #[test]
    fn identity_relocation_preserves_program() {
        let p = program(
            "       lda r1, 3(r31)
             loop:  subq r1, #1, r1
                    bne r1, loop
                    halt",
        );
        let mut r = Relocator::new(&p).unwrap();
        r.keep_rest().unwrap();
        let out = r.finish().unwrap();
        assert_eq!(out.program.text(), p.text());
        assert_eq!(out.program.entry(), p.entry());
        assert_eq!(out.new_addr(0x1004), Some(0x1004));
    }

    #[test]
    fn insertion_shifts_and_retargets() {
        // Insert two nops before the subq; the backward bne must stretch.
        let p = program(
            "       lda r1, 3(r31)
             loop:  subq r1, #1, r1
                    bne r1, loop
                    halt",
        );
        let mut r = Relocator::new(&p).unwrap();
        r.keep().unwrap(); // lda
        let subq = r.insts()[1].1;
        r.replace(
            1,
            vec![
                NewItem::inst(Inst::nop()),
                NewItem::inst(Inst::nop()),
                NewItem::inst(subq),
            ],
        )
        .unwrap();
        r.keep_rest().unwrap();
        let out = r.finish().unwrap();
        // loop (0x1004) now maps to 0x1004 but holds the first nop; the bne
        // target must be the span start.
        assert_eq!(out.new_addr(0x1004), Some(0x1004));
        let TextItem::Inst(bne) = out.program.fetch(0x1010).unwrap() else {
            panic!()
        };
        assert_eq!(bne.op, Op::Bne);
        // Branch at 0x1010, next 0x1014, target 0x1004 → disp −16.
        assert_eq!(bne.imm, -16);
    }

    #[test]
    fn replacement_with_short_codeword_shrinks() {
        let p = program(
            "       addq r1, r2, r3
                    addq r3, r3, r4
                    bne r4, 4
                    nop
                    halt",
        );
        let mut r = Relocator::new(&p).unwrap();
        // Compress the two addqs into one short codeword.
        r.replace(2, vec![NewItem::plain(TextItem::Short(9))])
            .unwrap();
        r.keep_rest().unwrap();
        let out = r.finish().unwrap();
        assert_eq!(out.program.text_size(), p.text_size() - 6);
        // The branch still reaches the halt.
        let TextItem::Inst(bne) = out.program.fetch(0x1002).unwrap() else {
            panic!()
        };
        let target = (0x1002u64 + 4).wrapping_add_signed(bne.imm);
        assert_eq!(out.program.fetch(target).unwrap(), TextItem::Inst(Inst::halt()));
        // Span starts and the text end map; the replaced interior does not.
        assert_eq!(
            [0x1000, 0x1004, 0x1008, 0x100C, 0x1010, 0x1014].map(|old| out.new_addr(old)),
            [Some(0x1000), None, Some(0x1002), Some(0x1006), Some(0x100A), Some(0x100E)]
        );
    }

    #[test]
    fn branch_into_replaced_interior_is_an_error() {
        let p = program(
            "       br r31, inside
                    addq r1, r2, r3
             inside: addq r3, r3, r4
                    halt",
        );
        let mut r = Relocator::new(&p).unwrap();
        r.keep().unwrap(); // br
        r.replace(2, vec![NewItem::plain(TextItem::Short(0))])
            .unwrap(); // swallows `inside`
        r.keep_rest().unwrap();
        assert!(matches!(r.finish(), Err(IsaError::Reloc(_))));
    }

    #[test]
    fn tail_labels_resolve() {
        let p = program("stq r1, 0(r2)\nhalt");
        let mut r = Relocator::new(&p).unwrap();
        let stq = r.insts()[0].1;
        r.replace(
            1,
            vec![
                NewItem::branch(
                    Inst::branch(Op::Bne, Reg::r(28), 0),
                    NewTarget::Label("error".into()),
                ),
                NewItem::inst(stq),
            ],
        )
        .unwrap();
        r.keep_rest().unwrap();
        r.append_tail(vec![NewItem::inst(Inst::halt()).with_label("error")]);
        let out = r.finish().unwrap();
        assert_eq!(out.program.symbol("error"), Some(0x100C));
        let TextItem::Inst(bne) = out.program.fetch(0x1000).unwrap() else {
            panic!()
        };
        assert_eq!((0x1000u64 + 4).wrapping_add_signed(bne.imm), 0x100C);
    }

    #[test]
    fn overflowing_displacement_is_a_reloc_error() {
        // Stretch a kept branch past the ±1MB (21-bit byte) displacement
        // range: keep `br` targeting the final halt, then inflate the
        // span between them to > 2^20 bytes of nops.
        let p = program(
            "       br r31, end
                    nop
             end:   halt",
        );
        let mut r = Relocator::new(&p).unwrap();
        r.keep().unwrap(); // br — auto-retargeted to `end`'s new address
        let filler = vec![NewItem::inst(Inst::nop()); (1 << 18) + 16];
        r.replace(1, filler).unwrap(); // nop → 2^20 + 64 bytes of nops
        r.keep_rest().unwrap();
        match r.finish() {
            Err(IsaError::Reloc(why)) => {
                assert!(
                    why.contains("overflows"),
                    "error should name the overflow: {why}"
                );
            }
            other => panic!("expected IsaError::Reloc, got {other:?}"),
        }
    }

    /// `stq r1, 0(r2); halt` with the store guarded by a `bne` to `label`.
    fn guarded(label: NewTarget) -> (Program, Vec<NewItem>) {
        let p = program("stq r1, 0(r2)\nhalt");
        let stq = p.fetch(0x1000).unwrap();
        let items = vec![
            NewItem::branch(Inst::branch(Op::Bne, Reg::r(28), 0), label),
            NewItem::plain(stq),
        ];
        (p, items)
    }

    #[test]
    fn label_defined_twice_is_an_error() {
        let (p, items) = guarded(NewTarget::Label("error".into()));
        let mut r = Relocator::new(&p).unwrap();
        let mut items = items;
        items[1] = items[1].clone().with_label("error");
        r.replace(1, items).unwrap();
        r.keep_rest().unwrap();
        r.append_tail([NewItem::inst(Inst::halt()).with_label("error")]);
        match r.finish() {
            Err(IsaError::Reloc(why)) => assert_eq!(why, "label `error` defined twice"),
            other => panic!("expected a duplicate-label error, got {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let (p, items) = guarded(NewTarget::Label("nowhere".into()));
        let mut r = Relocator::new(&p).unwrap();
        r.replace(1, items).unwrap();
        r.keep_rest().unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            IsaError::UndefinedLabel("nowhere".into())
        );
    }

    #[test]
    fn labels_resolve_across_spans_and_tail() {
        // `error` is defined in the tail and referenced from a span and
        // from the tail; `retry` is defined in a span and referenced from
        // the tail. The owned `String` label resolves like a static one.
        let (p, items) = guarded(NewTarget::Label(String::from("error").into()));
        let mut r = Relocator::new(&p).unwrap();
        let mut items = items;
        items[0] = items[0].clone().with_label(String::from("retry"));
        r.replace(1, items).unwrap();
        r.keep_rest().unwrap();
        r.append_tail([
            NewItem::branch(
                Inst::branch(Op::Beq, Reg::R1, 0),
                NewTarget::Label("error".into()),
            ),
            NewItem::branch(
                Inst::branch(Op::Br, Reg::ZERO, 0),
                NewTarget::Label("retry".into()),
            ),
            NewItem::inst(Inst::halt()).with_label("error"),
        ]);
        let out = r.finish().unwrap();
        assert_eq!(out.program.symbol("retry"), Some(0x1000));
        assert_eq!(out.program.symbol("error"), Some(0x1014));
        let target = |at: u64| {
            let TextItem::Inst(b) = out.program.fetch(at).unwrap() else {
                panic!()
            };
            (at + 4).wrapping_add_signed(b.imm)
        };
        assert_eq!(target(0x1000), 0x1014);
        assert_eq!(target(0x100C), 0x1014);
        assert_eq!(target(0x1010), 0x1000);
    }

    #[test]
    fn unpackable_old_address_reports_like_any_other() {
        // An old address with its top bit set does not fit a slot's
        // target word; it takes the side list and fails the same way.
        let (p, items) = guarded(NewTarget::OldAddr(u64::MAX - 3));
        let mut r = Relocator::new(&p).unwrap();
        r.replace(1, items).unwrap();
        r.keep_rest().unwrap();
        match r.finish() {
            Err(IsaError::Reloc(why)) => assert_eq!(
                why,
                "branch targets 0xfffffffffffffffc, which is inside a replaced sequence"
            ),
            other => panic!("expected a relocation error, got {other:?}"),
        }
    }

    #[test]
    fn codeword_branch_targets_pack_into_parameters_two_and_three() {
        // A codeword replacing `addq; bne` must reach the halt after the
        // span shrinks it by 4 bytes; one whose target lies past ±2 KiB
        // cannot be parameterized.
        let relocate = |nops: usize| {
            let p = program(&format!("addq r1, r2, r3\nbne r3, 4\n{}halt", "nop\n".repeat(nops)));
            let target = p.text_end() - 4;
            let cw = Inst::codeword(Op::Cw0, 7, 0, 0, 5);
            let mut r = Relocator::new(&p).unwrap();
            r.replace(2, [NewItem::branch(cw, NewTarget::OldAddr(target))])
                .unwrap();
            r.keep_rest().unwrap();
            r.finish()
        };
        let out = relocate(3).unwrap();
        let TextItem::Inst(cw) = out.program.fetch(0x1000).unwrap() else {
            panic!()
        };
        let [p2, p3] = Inst::codeword_disp_params(0x1010 - 0x1004).unwrap();
        assert_eq!(cw.codeword_params(), [7, p2, p3]);
        assert_eq!(cw.codeword_tag(), 5);
        match relocate(600) {
            Err(IsaError::Reloc(why)) => assert!(why.contains("two-parameter range"), "{why}"),
            other => panic!("expected a relocation error, got {other:?}"),
        }
    }

    #[test]
    fn slot_is_at_most_twenty_four_bytes() {
        // A rewrite holds one slot per emitted item (about 50K for gcc).
        assert!(std::mem::size_of::<Slot>() <= 24);
    }

    #[test]
    fn uncovered_instructions_rejected() {
        let p = program("nop\nhalt");
        let r = Relocator::new(&p).unwrap();
        assert!(matches!(r.finish(), Err(IsaError::Reloc(_))));
    }
}
