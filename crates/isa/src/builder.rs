//! Incremental program construction with labels and branch fixups.

use crate::inst::Inst;
use crate::op::{Format, Op};
use crate::program::{encode_text, Image, Program, TextItem};
use crate::reg::Reg;
use crate::{IsaError, Result};
use std::collections::BTreeMap;

/// Builds a [`Program`] instruction by instruction, resolving named labels
/// into PC-relative branch displacements at [`ProgramBuilder::finish`] time.
///
/// ```
/// use dise_isa::{ProgramBuilder, Inst, Op, Reg};
/// # fn main() -> dise_isa::Result<()> {
/// let mut b = ProgramBuilder::new(0x0400_0000);
/// b.push(Inst::li(3, Reg::R1));
/// b.label("loop");
/// b.push(Inst::alu_ri(Op::Subq, Reg::R1, 1, Reg::R1));
/// b.branch_to(Op::Bne, Reg::R1, "loop");
/// b.push(Inst::halt());
/// let program = b.finish()?;
/// assert_eq!(program.text_size(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    text_base: u64,
    insts: Vec<Inst>,
    labels: BTreeMap<String, usize>,
    fixups: Vec<(usize, String)>,
    data_size: u64,
    data_init: Vec<u8>,
    entry_label: Option<String>,
}

impl ProgramBuilder {
    /// Creates a builder whose text segment starts at `text_base`.
    pub fn new(text_base: u64) -> ProgramBuilder {
        ProgramBuilder {
            text_base,
            insts: Vec::new(),
            labels: BTreeMap::new(),
            fixups: Vec::new(),
            data_size: 1 << 20,
            data_init: Vec::new(),
            entry_label: None,
        }
    }

    /// Appends an instruction, returning its index.
    pub fn push(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    /// Appends several instructions.
    pub fn extend<I: IntoIterator<Item = Inst>>(&mut self, insts: I) -> &mut Self {
        self.insts.extend(insts);
        self
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.insts.len());
        assert!(prev.is_none(), "label `{name}` defined twice");
        self
    }

    /// Appends a branch whose displacement will be fixed up to reach
    /// `label`.
    pub fn branch_to(&mut self, op: Op, ra: Reg, label: &str) -> &mut Self {
        debug_assert_eq!(op.format(), Format::Branch);
        let idx = self.push(Inst::branch(op, ra, 0));
        self.fixups.push((idx, label.to_string()));
        self
    }

    /// Appends `bsr ra, label` — a function call.
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.branch_to(Op::Bsr, Reg::RA, label)
    }

    /// Appends `ret r31, (ra)`.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Inst::jump(Op::Ret, Reg::ZERO, Reg::RA));
        self
    }

    /// Marks `label` as the entry point (defaults to the text base).
    pub fn entry(&mut self, label: &str) -> &mut Self {
        self.entry_label = Some(label.to_string());
        self
    }

    /// Sets the data segment size in bytes.
    pub fn data_size(&mut self, bytes: u64) -> &mut Self {
        self.data_size = bytes;
        self
    }

    /// Sets initial data-segment contents.
    pub fn data_init(&mut self, bytes: Vec<u8>) -> &mut Self {
        self.data_init = bytes;
        self
    }

    /// Number of instructions appended so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if no instructions have been appended.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The PC the next pushed instruction will occupy.
    pub fn next_pc(&self) -> u64 {
        self.text_base + 4 * self.insts.len() as u64
    }

    /// Resolves all fixups and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndefinedLabel`] for a branch to an undefined
    /// label, or an encoding error if a resolved displacement is out of
    /// range.
    pub fn finish(mut self) -> Result<Program> {
        for (idx, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .ok_or_else(|| IsaError::UndefinedLabel(label.clone()))?;
            // Displacement is relative to the *next* instruction.
            let disp = (target as i64 - (*idx as i64 + 1)) * 4;
            self.insts[*idx].imm = disp;
        }
        let text = encode_text(self.insts.iter().copied().map(TextItem::Inst))?;
        let mut image = Image::new(self.text_base, text);
        for (name, idx) in &self.labels {
            image
                .symbols
                .insert(name.clone(), self.text_base + 4 * *idx as u64);
        }
        if let Some(label) = &self.entry_label {
            image.entry = *image
                .symbols
                .get(label)
                .ok_or_else(|| IsaError::UndefinedLabel(label.clone()))?;
        }
        image.data_size = self.data_size;
        image.data_init = self.data_init;
        Ok(image.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_branch_resolution() {
        let mut b = ProgramBuilder::new(0x1000);
        b.push(Inst::li(3, Reg::R1));
        b.label("loop");
        b.push(Inst::alu_ri(Op::Subq, Reg::R1, 1, Reg::R1));
        b.branch_to(Op::Bne, Reg::R1, "loop");
        b.push(Inst::halt());
        let p = b.finish().unwrap();
        let TextItem::Inst(br) = p.fetch(0x1008).unwrap() else {
            panic!()
        };
        // Target 0x1004, next PC 0x100C → disp −8.
        assert_eq!(br.imm, -8);
    }

    #[test]
    fn forward_branch_and_call() {
        let mut b = ProgramBuilder::new(0);
        b.call("f");
        b.push(Inst::halt());
        b.label("f");
        b.push(Inst::nop());
        b.ret();
        let p = b.finish().unwrap();
        let TextItem::Inst(bsr) = p.fetch(0).unwrap() else {
            panic!()
        };
        assert_eq!(bsr.op, Op::Bsr);
        assert_eq!(bsr.imm, 4); // target 8, next PC 4
        assert_eq!(p.symbol("f"), Some(8));
    }

    #[test]
    fn entry_label() {
        let mut b = ProgramBuilder::new(0x2000);
        b.push(Inst::nop());
        b.label("main");
        b.push(Inst::halt());
        b.entry("main");
        let p = b.finish().unwrap();
        assert_eq!(p.entry(), 0x2004);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new(0);
        b.branch_to(Op::Br, Reg::ZERO, "nowhere");
        assert!(matches!(b.finish(), Err(IsaError::UndefinedLabel(_))));
    }

    #[test]
    #[should_panic]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new(0);
        b.label("x");
        b.label("x");
    }
}
