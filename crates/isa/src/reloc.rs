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
//! a 1:1 span). New branch items may declare that they should be patched to
//! reach the new location of an old address, or a symbolic label defined on
//! another new item. `finish` lays out the new text, patches displacements,
//! verifies that no surviving branch targets the interior of a replaced
//! span, and returns the new program plus the old→new address map.

use crate::inst::Inst;
use crate::op::Format;
use crate::program::{Program, TextItem};
use crate::{IsaError, Result};
use std::collections::BTreeMap;

/// How a new branch item's displacement should be resolved after layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NewTarget {
    /// Patch the branch to reach the new address of this original address.
    OldAddr(u64),
    /// Patch the branch to reach the item labeled with this name.
    Label(String),
}

/// One item of replacement text, with optional label definition and branch
/// retargeting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewItem {
    /// The text item to emit.
    pub item: TextItem,
    /// Defines a label at this item's final address.
    pub label: Option<String>,
    /// For branch instructions: how to compute the displacement.
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

    /// A branch instruction that must be patched to reach `target`.
    pub fn branch(inst: Inst, target: NewTarget) -> NewItem {
        debug_assert_eq!(inst.op.format(), Format::Branch);
        NewItem {
            item: TextItem::Inst(inst),
            label: None,
            target: Some(target),
        }
    }

    /// Attaches a label definition to this item.
    pub fn with_label(mut self, label: impl Into<String>) -> NewItem {
        self.label = Some(label.into());
        self
    }
}

/// Relocating program transformer. See the module docs for the protocol.
pub struct Relocator<'a> {
    original: &'a Program,
    /// Original instructions, in order.
    insts: Vec<(u64, Inst)>,
    /// Index into `insts` of the next instruction not yet covered by a span.
    cursor: usize,
    /// Every span's new items, spans in program order.
    items: Vec<NewItem>,
    /// Per span: its first original address and the end of its items in
    /// `items` (each span's items start where the previous one's end).
    spans: Vec<(u64, usize)>,
    tail: Vec<NewItem>,
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
    /// Maps each original span-start address to its new address. Untouched
    /// instructions appear individually; addresses strictly inside a
    /// replaced span do not appear.
    pub old_to_new: BTreeMap<u64, u64>,
    /// New address of every emitted item, in emission order (spans in
    /// program order, then the tail).
    pub item_addrs: Vec<u64>,
}

impl<'a> Relocator<'a> {
    /// Starts a relocation of `original`, which must be an uncompressed
    /// (4-byte instructions only) image.
    ///
    /// # Errors
    ///
    /// Fails if the original contains short codewords or undecodable bytes.
    pub fn new(original: &'a Program) -> Result<Relocator<'a>> {
        let mut insts = Vec::new();
        for entry in original.iter() {
            let (pc, item) = entry?;
            match item {
                TextItem::Inst(i) => insts.push((pc, i)),
                TextItem::Short(_) => {
                    return Err(IsaError::Reloc(
                        "cannot relocate an already-compressed image".into(),
                    ))
                }
            }
        }
        Ok(Relocator {
            original,
            insts,
            cursor: 0,
            items: Vec::new(),
            spans: Vec::new(),
            tail: Vec::new(),
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
    pub fn replace(&mut self, old_len: usize, items: Vec<NewItem>) -> Result<()> {
        self.cover(old_len, items)
    }

    /// [`Relocator::replace`] for any sequence of items.
    fn cover(&mut self, old_len: usize, items: impl IntoIterator<Item = NewItem>) -> Result<()> {
        if old_len == 0 {
            return Err(IsaError::Reloc("span must cover at least one instruction".into()));
        }
        if self.cursor + old_len > self.insts.len() {
            return Err(IsaError::Reloc("span runs past end of program".into()));
        }
        let old_start = self.insts[self.cursor].0;
        self.items.extend(items);
        self.spans.push((old_start, self.items.len()));
        self.cursor += old_len;
        Ok(())
    }

    /// Keeps the next original instruction unchanged. PC-relative branches
    /// are automatically marked for retargeting.
    ///
    /// # Errors
    ///
    /// Fails at the end of the program.
    pub fn keep(&mut self) -> Result<()> {
        let (pc, inst) = *self
            .insts
            .get(self.cursor)
            .ok_or_else(|| IsaError::Reloc("keep past end of program".into()))?;
        let item = if inst.op.format() == Format::Branch {
            let old_target = (pc + 4).wrapping_add_signed(inst.imm);
            NewItem::branch(inst, NewTarget::OldAddr(old_target))
        } else {
            NewItem::inst(inst)
        };
        self.cover(1, [item])
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
    pub fn append_tail(&mut self, items: Vec<NewItem>) {
        self.tail.extend(items);
    }

    /// Lays out the new program, patches branches, and remaps symbols.
    ///
    /// # Errors
    ///
    /// Fails if original instructions remain uncovered, a branch targets the
    /// interior of a replaced span, a label is undefined or doubly defined,
    /// or a patched displacement overflows its field.
    pub fn finish(mut self) -> Result<RelocOutput> {
        if self.cursor != self.insts.len() {
            return Err(IsaError::Reloc(format!(
                "{} original instructions left uncovered",
                self.insts.len() - self.cursor
            )));
        }
        // Pass 1: lay out addresses.
        let base = self.original.text_base;
        let mut pc = base;
        let mut old_to_new = BTreeMap::new();
        let mut labels: BTreeMap<String, u64> = BTreeMap::new();
        let mut item_addrs = Vec::new();
        let mut define = |label: &Option<String>, at: u64| -> Result<()> {
            if let Some(l) = label {
                if labels.insert(l.clone(), at).is_some() {
                    return Err(IsaError::Reloc(format!("label `{l}` defined twice")));
                }
            }
            Ok(())
        };
        let mut begin = 0;
        for &(old_start, end) in &self.spans {
            old_to_new.insert(old_start, pc);
            for ni in &self.items[begin..end] {
                define(&ni.label, pc)?;
                item_addrs.push(pc);
                pc += ni.item.size();
            }
            begin = end;
        }
        for ni in &self.tail {
            define(&ni.label, pc)?;
            item_addrs.push(pc);
            pc += ni.item.size();
        }
        // The one-past-the-end address maps too (a branch may target it).
        old_to_new.insert(self.original.text_end(), pc);

        // Pass 2: patch branch displacements and serialize.
        let resolve = |t: &NewTarget| -> Result<u64> {
            match t {
                NewTarget::OldAddr(a) => old_to_new.get(a).copied().ok_or_else(|| {
                    IsaError::Reloc(format!(
                        "branch targets {a:#x}, which is inside a replaced sequence"
                    ))
                }),
                NewTarget::Label(l) => labels
                    .get(l)
                    .copied()
                    .ok_or_else(|| IsaError::UndefinedLabel(l.clone())),
            }
        };
        let mut text = Vec::with_capacity((pc - base) as usize);
        let all_items = self.items.iter_mut().chain(self.tail.iter_mut());
        for (idx, ni) in all_items.enumerate() {
            let addr = item_addrs[idx];
            if let Some(target) = &ni.target {
                let new_target = resolve(target)?;
                let TextItem::Inst(inst) = &mut ni.item else {
                    return Err(IsaError::Reloc("retarget on a non-instruction".into()));
                };
                if inst.op.format() != Format::Branch {
                    return Err(IsaError::Reloc(format!(
                        "retarget on non-branch `{inst}`"
                    )));
                }
                inst.imm = new_target as i64 - (addr as i64 + 4);
                // Layout can stretch a displacement past the branch
                // format's encodable range; surface that as a relocation
                // failure (with the addresses involved) rather than the
                // bare immediate-range error — and never let it reach
                // the encoder, whose masking would silently truncate.
                if inst.validate().is_err() {
                    return Err(IsaError::Reloc(format!(
                        "patched branch at {addr:#x} cannot reach {new_target:#x}: \
                         displacement {} overflows the branch immediate field",
                        inst.imm
                    )));
                }
            }
            ni.item.write_to(&mut text)?;
        }

        // Remap entry and symbols.
        let original = self.original;
        let entry = *old_to_new.get(&original.entry).ok_or_else(|| {
            IsaError::Reloc("entry point is inside a replaced sequence".into())
        })?;
        let mut symbols = BTreeMap::new();
        for (name, addr) in &original.symbols {
            if let Some(new) = old_to_new.get(addr) {
                symbols.insert(name.clone(), *new);
            }
        }
        for (name, addr) in &labels {
            symbols.insert(name.clone(), *addr);
        }
        let program = Program {
            text_base: original.text_base,
            text,
            entry,
            data_base: original.data_base,
            data_size: original.data_size,
            data_init: original.data_init.clone(),
            symbols,
        };
        Ok(RelocOutput {
            program,
            old_to_new,
            item_addrs,
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
        assert_eq!(out.program.text, p.text);
        assert_eq!(out.program.entry, p.entry);
        assert_eq!(out.old_to_new.get(&0x1004), Some(&0x1004));
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
        assert_eq!(out.old_to_new[&0x1004], 0x1004);
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

    #[test]
    fn uncovered_instructions_rejected() {
        let p = program("nop\nhalt");
        let r = Relocator::new(&p).unwrap();
        assert!(matches!(r.finish(), Err(IsaError::Reloc(_))));
    }
}
