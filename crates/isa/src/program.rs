//! Program images.
//!
//! A [`Program`] is a text segment (a byte stream of big-endian-encoded
//! instructions, possibly containing 2-byte dedicated-decompressor
//! codewords), an entry point, a data-segment description, and a symbol
//! table. PCs are byte-granular.

use crate::encode::{decode_short_codeword, is_short_codeword_byte};
use crate::inst::Inst;
use crate::op::Op;
use crate::reg::Reg;
use crate::{IsaError, Result};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// One item of a text stream: a full instruction or a 2-byte dedicated
/// decompressor codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextItem {
    /// A 4-byte instruction.
    Inst(Inst),
    /// A 2-byte dedicated-decompressor codeword holding a dictionary index.
    Short(u16),
}

impl TextItem {
    /// Size of this item in the text stream, in bytes.
    pub fn size(&self) -> u64 {
        match self {
            TextItem::Inst(_) => 4,
            TextItem::Short(_) => 2,
        }
    }

    /// The instruction, if this is a full instruction.
    pub fn inst(&self) -> Option<Inst> {
        match self {
            TextItem::Inst(i) => Some(*i),
            TextItem::Short(_) => None,
        }
    }

    /// Serializes the item to bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut bytes = Vec::with_capacity(4);
        self.write_to(&mut bytes)?;
        Ok(bytes)
    }

    /// Appends the item's bytes to `text`.
    ///
    /// # Errors
    ///
    /// Returns an error if the instruction is unencodable.
    pub fn write_to(&self, text: &mut Vec<u8>) -> Result<()> {
        match self {
            TextItem::Inst(i) => text.extend_from_slice(&i.encode()?.to_be_bytes()),
            TextItem::Short(ix) => {
                text.extend_from_slice(&crate::encode::encode_short_codeword(*ix))
            }
        }
        Ok(())
    }
}

impl fmt::Display for TextItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextItem::Inst(i) => write!(f, "{i}"),
            TextItem::Short(ix) => write!(f, "short[{ix}]"),
        }
    }
}

/// A program image: text bytes, entry point, data segment, symbols.
///
/// Memory layout convention (matching the paper's fault-isolation framing,
/// where the high-order bits of an address identify its segment): the text
/// segment lives in the segment selected by [`Program::TEXT_SEGMENT`], the
/// data segment in [`Program::DATA_SEGMENT`]. Segment identifiers are a
/// 64-bit address's bits above [`Program::SEGMENT_SHIFT`].
///
/// An image is immutable once built ([`Program::from_insts`],
/// [`Program::from_items`], [`ProgramBuilder::finish`](crate::ProgramBuilder::finish)
/// or [`Relocator::finish`](crate::Relocator::finish)), so a clone is a
/// reference-count bump that shares the text, the symbols and the
/// predecode table ([`Program::predecode`]), built on first use and freed
/// with the last clone and machine holding it. There is no way to edit
/// the text in place:
///
/// ```compile_fail
/// let p = dise_isa::Program::from_insts(0x0400_0000, &[dise_isa::Inst::halt()]).unwrap();
/// p.text()[0] = 0; // `text()` is a shared borrow: this does not compile
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program(Arc<Image>);

/// The parts of a [`Program`], assembled by the crate's constructors and
/// sealed behind the `Arc` by `Program::from`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Image {
    pub(crate) text_base: u64,
    pub(crate) text: Vec<u8>,
    pub(crate) entry: u64,
    pub(crate) data_base: u64,
    pub(crate) data_size: u64,
    pub(crate) data_init: Vec<u8>,
    pub(crate) symbols: BTreeMap<String, u64>,
    pub(crate) predecode: PredecodeSlot,
}

impl Image {
    /// `text` laid out from `text_base` with the entry there, the default
    /// data segment and no symbols.
    pub(crate) fn new(text_base: u64, text: Vec<u8>) -> Image {
        Image {
            text_base,
            text,
            entry: text_base,
            data_base: Program::segment_base(Program::DATA_SEGMENT),
            data_size: 1 << 20,
            data_init: Vec::new(),
            symbols: BTreeMap::new(),
            predecode: PredecodeSlot::default(),
        }
    }
}

impl From<Image> for Program {
    fn from(image: Image) -> Program {
        Program(Arc::new(image))
    }
}

/// Encodes `items` back to back.
pub(crate) fn encode_text(items: impl ExactSizeIterator<Item = TextItem>) -> Result<Vec<u8>> {
    let mut text = Vec::with_capacity(items.len() * 4);
    for it in items {
        it.write_to(&mut text)?;
    }
    Ok(text)
}

/// The lazily built predecode table of one image. Derived state, not
/// part of the image's value: every slot compares equal and `Debug`
/// elides the table.
#[derive(Default)]
pub(crate) struct PredecodeSlot(OnceLock<Arc<Predecode>>);

impl PartialEq for PredecodeSlot {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for PredecodeSlot {}

impl fmt::Debug for PredecodeSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("..")
    }
}

impl Program {
    /// Address bits at and above this position form the segment identifier
    /// (the paper's MFI productions use `srl T.RS, 26`; we use a 64-bit
    /// machine with a 26-bit segment offset, giving the same check shape).
    pub const SEGMENT_SHIFT: u32 = 26;
    /// Segment identifier of the text segment.
    pub const TEXT_SEGMENT: u64 = 1;
    /// Segment identifier of the data segment.
    pub const DATA_SEGMENT: u64 = 2;
    /// Segment identifier of the stack (top of the data segment area in
    /// these experiments; kept distinct for fault-isolation tests).
    pub const STACK_SEGMENT: u64 = 3;

    /// The segment identifier of an address.
    pub fn segment_of(addr: u64) -> u64 {
        addr >> Self::SEGMENT_SHIFT
    }

    /// Base address of a segment identifier.
    pub fn segment_base(segment: u64) -> u64 {
        segment << Self::SEGMENT_SHIFT
    }

    /// Builds a program from a list of instructions laid out contiguously
    /// from `text_base`, with entry at `text_base`.
    ///
    /// # Errors
    ///
    /// Returns an error if any instruction is unencodable.
    pub fn from_insts(text_base: u64, insts: &[Inst]) -> Result<Program> {
        let text = encode_text(insts.iter().copied().map(TextItem::Inst))?;
        Ok(Image::new(text_base, text).into())
    }

    /// Builds a program from text items (instructions and/or short
    /// codewords).
    ///
    /// # Errors
    ///
    /// Returns an error if any instruction is unencodable.
    pub fn from_items(text_base: u64, items: &[TextItem]) -> Result<Program> {
        Ok(Image::new(text_base, encode_text(items.iter().copied())?).into())
    }

    /// Base address of the text segment.
    pub fn text_base(&self) -> u64 {
        self.0.text_base
    }

    /// The raw text bytes (big-endian instruction stream).
    pub fn text(&self) -> &[u8] {
        &self.0.text
    }

    /// Entry-point PC.
    pub fn entry(&self) -> u64 {
        self.0.entry
    }

    /// Base address of the data segment.
    pub fn data_base(&self) -> u64 {
        self.0.data_base
    }

    /// Size of the data segment in bytes.
    pub fn data_size(&self) -> u64 {
        self.0.data_size
    }

    /// Initial data-segment contents (zero-filled beyond this).
    pub fn data_init(&self) -> &[u8] {
        &self.0.data_init
    }

    /// Named addresses.
    pub fn symbols(&self) -> &BTreeMap<String, u64> {
        &self.0.symbols
    }

    /// One-past-the-end address of the text segment.
    pub fn text_end(&self) -> u64 {
        self.text_base() + self.text_size()
    }

    /// Static text size in bytes (the paper's compression metric).
    pub fn text_size(&self) -> u64 {
        self.0.text.len() as u64
    }

    /// True if `pc` lies within the text segment.
    pub fn contains(&self, pc: u64) -> bool {
        pc >= self.text_base() && pc < self.text_end()
    }

    /// Decodes the text item at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadAddress`] if `pc` is outside the text segment
    /// or the item would run off its end, or [`IsaError::BadEncoding`] for
    /// invalid bytes.
    pub fn fetch(&self, pc: u64) -> Result<TextItem> {
        // One range computation serves both the segment check and the item
        // length checks: slicing from `off` and asking for 2 or 4 bytes
        // covers out-of-segment PCs and items straddling the end of text.
        let tail = pc
            .checked_sub(self.text_base())
            .and_then(|off| self.text().get(off as usize..))
            .ok_or(IsaError::BadAddress(pc))?;
        match tail {
            [first, rest @ ..] if is_short_codeword_byte(*first) => match rest {
                [second, ..] => Ok(TextItem::Short(
                    decode_short_codeword([*first, *second]).expect("escape byte checked"),
                )),
                [] => Err(IsaError::BadAddress(pc)),
            },
            [b0, b1, b2, b3, ..] => {
                let word = u32::from_be_bytes([*b0, *b1, *b2, *b3]);
                Ok(TextItem::Inst(Inst::decode(word)?))
            }
            _ => Err(IsaError::BadAddress(pc)),
        }
    }

    /// This image's predecode table, built by the first call and shared by
    /// every later one on any clone, from any thread.
    pub fn predecode(&self) -> &Arc<Predecode> {
        self.0.predecode.0.get_or_init(|| Arc::new(Predecode::build(self)))
    }

    /// Iterates over `(pc, item)` pairs from the start of the text segment.
    /// Stops early (yielding an `Err`) on undecodable bytes.
    pub fn iter(&self) -> ProgramIter<'_> {
        ProgramIter {
            program: self,
            pc: self.text_base(),
        }
    }

    /// Decodes the entire text segment.
    ///
    /// # Errors
    ///
    /// Fails on any undecodable bytes.
    pub fn items(&self) -> Result<Vec<(u64, TextItem)>> {
        self.iter().collect()
    }

    /// Looks up a symbol's address.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols().get(name).copied()
    }

    /// A full disassembly listing, for debugging and golden tests.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for entry in self.iter() {
            match entry {
                Ok((pc, item)) => {
                    let _ = writeln!(out, "{pc:#010x}: {item}");
                }
                Err(e) => {
                    let _ = writeln!(out, "<error: {e}>");
                    break;
                }
            }
        }
        out
    }
}

/// A predecoded view of a program's text segment: for every *even* byte
/// offset, the [`TextItem`] that decodes starting there. Items are 2 or 4
/// bytes and the text base is aligned, so every PC real control flow can
/// produce is even — indexing by `offset / 2` halves the table (it is the
/// simulator's hottest data structure, so density is cache locality).
/// Every even offset is modelled, not just item starts: a branch may land
/// inside an item, and its bytes may decode there. Each slot is one
/// packed 8-byte word, half what an `Option<TextItem>` takes.
/// Built once per image ([`Program::predecode`]), which cannot change
/// after construction, so the table cannot go stale; the byte-accurate
/// [`Program::fetch`] stays the source of truth — odd PCs and offsets
/// whose bytes do not decode return `None`, and callers fall back to
/// `fetch` for the exact item or error.
#[derive(Debug, Clone)]
pub struct Predecode {
    text_base: u64,
    slots: Vec<u64>,
}

/// Slot tag of an even offset whose bytes do not decode. Instruction slots
/// are tagged with their opcode's discriminant, which is below
/// [`Op::ALL`]`.len()`.
const TAG_NONE: u8 = 0xFF;
/// Slot tag of a 2-byte dedicated-decompressor codeword; the immediate
/// field holds its dictionary index.
const TAG_SHORT: u8 = 0xFE;
const USES_LIT: u64 = 1 << 26;
const DISE_BRANCH: u64 = 1 << 27;

/// The item that decodes at byte offset `off` of `text`, if any.
fn decode_at(text: &[u8], off: usize) -> Option<TextItem> {
    let first = text[off];
    if is_short_codeword_byte(first) {
        let second = *text.get(off + 1)?;
        let ix = decode_short_codeword([first, second]).expect("escape byte checked");
        Some(TextItem::Short(ix))
    } else {
        let quad: [u8; 4] = text.get(off..off + 4)?.try_into().ok()?;
        Inst::decode(u32::from_be_bytes(quad))
            .ok()
            .map(TextItem::Inst)
    }
}

/// Packs a predecoded item into one slot word (high bits first):
///
/// ```text
/// [imm:32][0:4][dise_branch:1][uses_lit:1][rc:6][rb:6][ra:6][tag:8]
/// ```
///
/// `tag` is the opcode's discriminant, [`TAG_SHORT`] (with the codeword's
/// index as `imm`) or [`TAG_NONE`]. Decoded immediates are at most 21
/// bits, so 32 always hold them.
fn pack(item: Option<TextItem>) -> u64 {
    match item {
        None => u64::from(TAG_NONE),
        Some(TextItem::Short(ix)) => u64::from(TAG_SHORT) | u64::from(ix) << 32,
        Some(TextItem::Inst(i)) => {
            debug_assert!(
                i32::try_from(i.imm).is_ok(),
                "{i}: immediate does not fit a predecode slot"
            );
            let reg = |r: Reg, at: u32| (r.index() as u64) << at;
            u64::from(i.op as u8)
                | reg(i.ra, 8)
                | reg(i.rb, 14)
                | reg(i.rc, 20)
                | if i.uses_lit { USES_LIT } else { 0 }
                | if i.dise_branch { DISE_BRANCH } else { 0 }
                | u64::from(i.imm as i32 as u32) << 32
        }
    }
}

/// Inverse of [`pack`]. No table lookup and no bounds check: the opcode
/// comes back through a range check on its discriminant, the registers
/// through a mask.
#[inline(always)]
fn unpack(w: u64) -> Option<TextItem> {
    let tag = w as u8;
    let imm = (w >> 32) as i32 as i64;
    let Some(op) = Op::from_discriminant(tag) else {
        return (tag == TAG_SHORT).then_some(TextItem::Short(imm as u16));
    };
    let reg = |at: u32| Reg::from_index_unchecked((w >> at) as u8 & 0x3F);
    Some(TextItem::Inst(Inst {
        op,
        ra: reg(8),
        rb: reg(14),
        rc: reg(20),
        imm,
        uses_lit: w & USES_LIT != 0,
        dise_branch: w & DISE_BRANCH != 0,
    }))
}

impl Predecode {
    /// Decodes every even byte offset of `program`'s text segment.
    fn build(program: &Program) -> Predecode {
        let text = program.text();
        let slots = (0..text.len())
            .step_by(2)
            .map(|off| pack(decode_at(text, off)))
            .collect();
        Predecode {
            text_base: program.text_base(),
            slots,
        }
    }

    /// The predecoded item at `pc`, or `None` when `pc` is odd, out of
    /// range, or its bytes do not decode (fall back to [`Program::fetch`]
    /// to learn which).
    #[inline]
    pub fn get(&self, pc: u64) -> Option<TextItem> {
        let off = pc.checked_sub(self.text_base)? as usize;
        if off & 1 != 0 {
            return None;
        }
        unpack(*self.slots.get(off / 2)?)
    }

    /// Base address of the text segment this table decodes.
    pub fn text_base(&self) -> u64 {
        self.text_base
    }

    /// Number of slots: one per even byte offset of the text segment
    /// (slot `(pc - text_base) / 2` holds the item at `pc`).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of even byte offsets holding a decodable item.
    pub fn decodable_offsets(&self) -> usize {
        self.slots.iter().filter(|&&w| w as u8 != TAG_NONE).count()
    }
}

/// Iterator over the text items of a [`Program`]. Created by
/// [`Program::iter`].
#[derive(Debug)]
pub struct ProgramIter<'a> {
    program: &'a Program,
    pc: u64,
}

impl Iterator for ProgramIter<'_> {
    type Item = Result<(u64, TextItem)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pc >= self.program.text_end() {
            return None;
        }
        let pc = self.pc;
        match self.program.fetch(pc) {
            Ok(item) => {
                self.pc += item.size();
                Some(Ok((pc, item)))
            }
            Err(e) => {
                self.pc = self.program.text_end();
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_program() -> Program {
        Program::from_insts(
            Program::segment_base(Program::TEXT_SEGMENT),
            &[
                Inst::li(1, Reg::R1),
                Inst::alu_rr(Op::Addq, Reg::R1, Reg::R1, Reg::R2),
                Inst::halt(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fetch_and_iterate() {
        let p = small_program();
        assert_eq!(p.text_size(), 12);
        let items = p.items().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].0, p.text_base());
        assert_eq!(items[1].0, p.text_base() + 4);
        assert_eq!(
            items[1].1,
            TextItem::Inst(Inst::alu_rr(Op::Addq, Reg::R1, Reg::R1, Reg::R2))
        );
    }

    #[test]
    fn fetch_out_of_range() {
        let p = small_program();
        assert!(p.fetch(p.text_base() - 4).is_err());
        assert!(p.fetch(p.text_end()).is_err());
    }

    #[test]
    fn mixed_short_codewords() {
        let items = [
            TextItem::Inst(Inst::li(1, Reg::R1)),
            TextItem::Short(42),
            TextItem::Inst(Inst::halt()),
        ];
        let p = Program::from_items(0x1000_0000, &items).unwrap();
        assert_eq!(p.text_size(), 10);
        let decoded: Vec<_> = p.items().unwrap();
        assert_eq!(decoded[1], (0x1000_0004, TextItem::Short(42)));
        assert_eq!(decoded[2].0, 0x1000_0006);
    }

    #[test]
    fn segments() {
        assert_eq!(Program::segment_of(Program::segment_base(2) + 100), 2);
        let p = small_program();
        assert_eq!(Program::segment_of(p.text_base()), Program::TEXT_SEGMENT);
        assert_eq!(Program::segment_of(p.data_base()), Program::DATA_SEGMENT);
    }

    #[test]
    fn disassembly_lists_every_item() {
        let p = small_program();
        let d = p.disassemble();
        assert_eq!(d.lines().count(), 3);
        assert!(d.contains("addq r1, r1, r2"));
    }

    #[test]
    fn fetch_rejects_items_straddling_end_of_text() {
        // A truncated 4-byte instruction: only 3 of its bytes are present.
        let with_text = |edit: fn(&mut Vec<u8>)| -> Program {
            let p = small_program();
            let mut text = p.text().to_vec();
            edit(&mut text);
            Image::new(p.text_base(), text).into()
        };
        let p = with_text(|text| text.truncate(11));
        let last_pc = p.text_base() + 8;
        assert!(p.contains(last_pc), "PC itself is in range");
        assert!(
            matches!(p.fetch(last_pc), Err(IsaError::BadAddress(pc)) if pc == last_pc),
            "truncated instruction must fault, not read out of bounds"
        );
        // A short codeword cut to a single byte at the very end.
        let p = with_text(|text| text.push(crate::encode::SHORT_CODEWORD_ESCAPE));
        let cw_pc = p.text_base() + 12;
        assert!(
            matches!(p.fetch(cw_pc), Err(IsaError::BadAddress(pc)) if pc == cw_pc),
            "codeword straddling end of text must fault"
        );
        // A complete short codeword ending exactly at end of text is fine.
        let items = [
            TextItem::Inst(Inst::li(1, Reg::R1)),
            TextItem::Short(42),
        ];
        let p = Program::from_items(0x1000_0000, &items).unwrap();
        assert_eq!(p.fetch(0x1000_0004).unwrap(), TextItem::Short(42));
    }

    #[test]
    fn predecode_agrees_with_fetch_at_every_offset() {
        let items = [
            TextItem::Inst(Inst::li(1, Reg::R1)),
            TextItem::Short(42),
            TextItem::Inst(Inst::alu_rr(Op::Addq, Reg::R1, Reg::R1, Reg::R2)),
            TextItem::Inst(Inst::halt()),
        ];
        let p = Program::from_items(0x1000_0000, &items).unwrap();
        let pd = p.predecode();
        // Every even byte offset (not just item starts): the table and the
        // byte-accurate decoder must agree. Odd PCs are always a table miss
        // (they fall back to `fetch`), never a wrong answer.
        for pc in p.text_base()..p.text_end() + 4 {
            if pc & 1 != 0 {
                assert!(pd.get(pc).is_none(), "odd pc {pc:#x} must miss");
                continue;
            }
            match (pd.get(pc), p.fetch(pc)) {
                (Some(got), Ok(item)) => assert_eq!(got, item, "pc {pc:#x}"),
                (None, Err(_)) => {}
                (got, want) => panic!("pc {pc:#x}: predecode {got:?} vs fetch {want:?}"),
            }
        }
        assert!(pd.get(p.text_base() - 1).is_none());
        assert!(pd.decodable_offsets() > 0);
    }

    #[test]
    fn predecode_slot_is_eight_bytes() {
        // The table holds one slot per even text byte and is probed on
        // every fetch, so its density is the fetch path's cache footprint
        // and, for rewritten images, a large share of a process's memory.
        let p = small_program();
        let pd = p.predecode();
        assert_eq!(std::mem::size_of_val(&pd.slots[0]), 8);
    }

    #[test]
    fn predecode_holds_every_immediate_extreme() {
        // Each field at both ends of its encodable range, including the
        // sign bit of every signed immediate: the slot's 32-bit immediate
        // and 6-bit register fields must carry them all unchanged.
        let items = [
            TextItem::Inst(Inst::mem(Op::Ldq, Reg::R1, Reg::ZERO, -32768)),
            TextItem::Inst(Inst::mem(Op::Stq, Reg::ZERO, Reg::SP, 32767)),
            TextItem::Inst(Inst::branch(Op::Bsr, Reg::RA, -(1 << 20))),
            TextItem::Inst(Inst::branch(Op::Bne, Reg::ZERO, (1 << 20) - 1)),
            TextItem::Inst(Inst::alu_ri(Op::Sll, Reg::ZERO, 0, Reg::ZERO)),
            TextItem::Inst(Inst::alu_ri(Op::Srl, Reg::R7, 255, Reg::R8)),
            TextItem::Inst(Inst::codeword(Op::Cw3, 31, 31, 31, crate::inst::MAX_TAG)),
            TextItem::Inst(Inst::codeword(Op::Cw0, 0, 0, 0, 0)),
            TextItem::Short(crate::encode::MAX_SHORT_INDEX),
            TextItem::Short(0),
            TextItem::Inst(Inst::halt()),
        ];
        let p = Program::from_items(0x1000_0000, &items).unwrap();
        let pd = p.predecode();
        for entry in p.iter() {
            let (pc, item) = entry.unwrap();
            assert_eq!(pd.get(pc), Some(item), "pc {pc:#x}");
            assert_eq!(pd.get(pc), p.fetch(pc).ok(), "pc {pc:#x}");
        }
        assert_eq!(p.items().unwrap().len(), items.len());
    }

    #[test]
    fn predecode_is_built_once_and_shared_by_clones_and_threads() {
        let p = small_program();
        let first = p.predecode();
        assert!(Arc::ptr_eq(first, p.predecode()));
        let clone = p.clone();
        assert!(Arc::ptr_eq(first, clone.predecode()));
        assert_eq!(clone.text().as_ptr(), p.text().as_ptr());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|_| s.spawn(|| Arc::clone(p.clone().predecode())))
                .collect();
            for h in handles {
                assert!(Arc::ptr_eq(first, &h.join().unwrap()));
            }
        });
        for pc in (p.text_base()..p.text_end()).step_by(2) {
            assert_eq!(first.get(pc), p.fetch(pc).ok(), "pc {pc:#x}");
        }
    }

    #[test]
    fn the_table_is_not_part_of_the_image_value() {
        let (p, twin) = (small_program(), small_program());
        let debug = format!("{twin:?}");
        p.predecode();
        assert_eq!(p, twin);
        assert_eq!(format!("{p:?}"), debug);
    }
}
