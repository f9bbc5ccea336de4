//! Dynamic code (de)compression (paper §3.2, Figure 4; evaluated §4.2).
//!
//! A dictionary compressor in the style the paper adopts from
//! decoder-based decompression \[20\], extended with the two DISE-specific
//! features the paper highlights:
//!
//! * **Parameterized dictionary entries** — candidate sequences that differ
//!   only in (consistently renamed) register names or small immediates
//!   share one entry, instantiated per call site through the codeword's
//!   three 5-bit parameters.
//! * **PC-relative branch compression** — a sequence-terminating branch's
//!   displacement becomes a fused two-parameter field, so two static
//!   branches whose offsets diverge *after* compression still share an
//!   entry; each planted codeword carries its own offset, which the
//!   relocator patches at final layout.
//!
//! Candidate sequences never straddle basic blocks (so no branch can
//! target a replaced sequence's interior), and expansion is never
//! recursive. The same machinery drives the dedicated-decompressor
//! baseline (2-byte codewords, single-instruction compression,
//! unparameterized entries) and the intermediate configurations of
//! Figure 7's feature walk.
//!
//! Two codeword-selection algorithms are provided (see [`SelectAlgo`]):
//!
//! * **v1** — the paper's single-pass greedy: enumerate every in-block
//!   window, then lazily re-evaluated greedy entry selection with
//!   first-fit instance claiming.
//! * **v2** (default) — every shape with at least two occurrences as a
//!   candidate, a longest-prefix-match pass
//!   enumerating every candidate occurrence, and a per-block
//!   weighted-interval dynamic program that picks the best
//!   non-conflicting cover for the chosen entry set, refined by a
//!   prune/grow fixpoint over the dictionary itself.
//!
//! The named constructors select v2; [`CompressionConfig::with_select`]
//! pins either algorithm per configuration.
//!
//! Both algorithms consider only shapes that could pay for their
//! dictionary entry with every occurrence planted (`Compressor::may_pay`);
//! neither can ever select any other shape,
//! so the filter changes no output.
//!
//! Both algorithms start from one **window table**: the in-block windows
//! of `1..=max_seq_len` instructions are canonicalized once and interned
//! to a dense shape id. Windows grow one instruction per level, and
//! parameter slots are assigned left to right, so a grown window interns
//! as a trie child of its prefix in one small-key lookup; only a window
//! ending in a short branch (whose fused displacement reserves two slots
//! up front) is re-canonicalized whole. A window is grown only if its
//! shape occurred at least as often as a candidate must: the fewest
//! occurrences with which a shape of some candidate length could pay for
//! its entry, and at least two for v2 (`Compressor::min_count`). A
//! longer shape never occurs more often than its prefix, so pruning the
//! rest loses no candidate. Building the table is O(n · `max_seq_len`)
//! for `n` instructions, and it grows far fewer.
//!
//! Occurrences are held in flat arrays indexed by offset, each one a
//! start index into the flat instruction list and its codeword
//! parameters; the PC and a short branch's target are read back from the
//! instruction list where they are needed.
//!
//! Selection is a pure function of the program and the configuration:
//! text, dictionary, tags and statistics reproduce byte for byte
//! (`tests/select_golden.rs` pins digests of the whole output for every
//! Figure 7 configuration under both algorithms).

use crate::{AcfError, Result};
use dise_core::{
    FxHashMap, ImmDirective, InstSpec, OpDirective, ProductionSet, RegDirective, ReplacementSpec,
};
use dise_isa::reloc::{NewItem, NewTarget, Relocator};
use dise_isa::{Cfg, Inst, Op, OpClass, Program, TextItem};
use dise_sim::telemetry::StatsRegistry;
use dise_sim::DedicatedDict;
use std::collections::BinaryHeap;

/// Which codeword-selection algorithm [`Compressor::compress`] runs. See
/// the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectAlgo {
    /// Single-pass window enumeration + lazy-greedy first-fit claiming
    /// (the paper's \[20\]-style selection).
    V1,
    /// Frequency-filtered candidates + LPM occurrence index + per-block
    /// DP cover with dictionary prune/grow refinement.
    V2,
}

/// Compressor configuration. Use the named constructors for the paper's
/// Figure 7 configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressionConfig {
    /// Reserved opcode used for 4-byte DISE codewords.
    pub cw_op: Op,
    /// Plant 2-byte codewords (dedicated decompressor) instead of 4-byte
    /// DISE codewords.
    pub two_byte_codewords: bool,
    /// Minimum candidate length (1 enables single-instruction
    /// compression).
    pub min_seq_len: usize,
    /// Maximum candidate length.
    pub max_seq_len: usize,
    /// Abstract registers/immediates into codeword parameters.
    pub parameterize: bool,
    /// Compress sequence-terminating PC-relative branches via a
    /// two-parameter offset.
    pub compress_branches: bool,
    /// Allow jump-format instructions (`jmp`/`jsr`/`ret`) at sequence end
    /// (they are position-independent).
    pub allow_jumps: bool,
    /// Dictionary cost per replacement instruction (4 plain, 8 with
    /// instantiation directives — paper §4.2).
    pub entry_bytes_per_inst: u64,
    /// Maximum dictionary entries. Checked against
    /// [`CompressionConfig::entry_cap`] at compression time.
    pub max_entries: usize,
    /// Codeword-selection algorithm (the named constructors use
    /// [`SelectAlgo::V2`]).
    pub select: SelectAlgo,
}

impl CompressionConfig {
    /// The dedicated decoder-based decompressor \[20\]: 2-byte codewords,
    /// single-instruction compression, unparameterized 4-byte/instruction
    /// entries, no control flow.
    pub fn dedicated() -> CompressionConfig {
        CompressionConfig {
            cw_op: Op::Cw0,
            two_byte_codewords: true,
            min_seq_len: 1,
            max_seq_len: 8,
            parameterize: false,
            compress_branches: false,
            allow_jumps: false,
            entry_bytes_per_inst: 4,
            max_entries: 2048,
            select: SelectAlgo::V2,
        }
    }

    /// Figure 7's `−1insn`: the dedicated decompressor without
    /// single-instruction compression.
    pub fn dedicated_no_single() -> CompressionConfig {
        CompressionConfig {
            min_seq_len: 2,
            ..CompressionConfig::dedicated()
        }
    }

    /// Figure 7's `−2byteCW`: 4-byte codewords (the DISE baseline without
    /// any DISE feature).
    pub fn dise_unparameterized() -> CompressionConfig {
        CompressionConfig {
            two_byte_codewords: false,
            allow_jumps: true,
            ..CompressionConfig::dedicated_no_single()
        }
    }

    /// Figure 7's `+8byteDE`: 8-byte dictionary entries (the cost of
    /// instantiation directives without the benefit).
    pub fn dise_wide_entries() -> CompressionConfig {
        CompressionConfig {
            entry_bytes_per_inst: 8,
            ..CompressionConfig::dise_unparameterized()
        }
    }

    /// Figure 7's `+3param`: parameterized entries (up to three 5-bit
    /// parameters).
    pub fn dise_parameterized() -> CompressionConfig {
        CompressionConfig {
            parameterize: true,
            ..CompressionConfig::dise_wide_entries()
        }
    }

    /// Figure 7's `DISE`: the full system — parameterization plus
    /// PC-relative branch compression.
    pub fn dise_full() -> CompressionConfig {
        CompressionConfig {
            compress_branches: true,
            ..CompressionConfig::dise_parameterized()
        }
    }

    /// This configuration with an explicit selection algorithm (the named
    /// constructors use [`SelectAlgo::V2`]).
    pub fn with_select(self, select: SelectAlgo) -> CompressionConfig {
        CompressionConfig { select, ..self }
    }

    /// Hard cap on dictionary entries the codeword format can address.
    /// Both formats carry an 11-bit dictionary index — 2-byte short
    /// codewords pack it after the `0xF8` escape byte, 4-byte DISE
    /// codewords in the tag field — so both address 2048 entries; the cap
    /// is derived per format so an asymmetric encoding changes it in one
    /// place.
    pub fn entry_cap(&self) -> usize {
        if self.two_byte_codewords {
            dise_isa::encode::MAX_SHORT_INDEX as usize + 1
        } else {
            // 4-byte codeword tag field: 11 bits.
            1 << 11
        }
    }

    /// Codeword size in bytes.
    fn cw_bytes(&self) -> u64 {
        if self.two_byte_codewords {
            2
        } else {
            4
        }
    }
}

/// Static compression results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompressionStats {
    /// Original text size in bytes.
    pub original_text: u64,
    /// Compressed text size in bytes.
    pub compressed_text: u64,
    /// Dictionary size in bytes (production segment).
    pub dictionary_bytes: u64,
    /// Dictionary entries used.
    pub entries: usize,
    /// Codewords planted.
    pub instances: u64,
    /// Static instructions removed from the text.
    pub insts_removed: u64,
    /// Fixed slot stride (in µops) of the dense dictionary arena the
    /// entries expand from — the longest selected entry.
    pub arena_stride: usize,
    /// µops actually occupying arena slots (the sum of entry lengths).
    pub arena_uops: u64,
}

impl CompressionStats {
    /// Compressed text size as a fraction of the original (dictionary
    /// excluded) — the bottom portion of Figure 7's stacks.
    pub fn code_ratio(&self) -> f64 {
        self.compressed_text as f64 / self.original_text.max(1) as f64
    }

    /// Compressed text plus dictionary as a fraction of the original — the
    /// full Figure 7 stack.
    pub fn total_ratio(&self) -> f64 {
        (self.compressed_text + self.dictionary_bytes) as f64 / self.original_text.max(1) as f64
    }

    /// Fraction of the fixed-stride dictionary arena occupied by real
    /// µops (1.0 when every entry is exactly stride-long, 0.0 with no
    /// entries).
    pub fn arena_occupancy(&self) -> f64 {
        let slots = self.entries as u64 * self.arena_stride as u64;
        if slots == 0 {
            0.0
        } else {
            self.arena_uops as f64 / slots as f64
        }
    }

    /// The static counters as a telemetry registry (`acf.compress.*`),
    /// mergeable into a cell's simulation stats.
    pub fn registry(&self) -> StatsRegistry {
        let mut r = StatsRegistry::new();
        r.count("acf.compress.original_text_bytes", self.original_text);
        r.count("acf.compress.compressed_text_bytes", self.compressed_text);
        r.count("acf.compress.dictionary_bytes", self.dictionary_bytes);
        r.count("acf.compress.entries", self.entries as u64);
        r.count("acf.compress.instances", self.instances);
        r.count("acf.compress.insts_removed", self.insts_removed);
        r.count("acf.compress.arena_stride_uops", self.arena_stride as u64);
        r.count("acf.compress.arena_uops", self.arena_uops);
        r.value("acf.compress.arena_occupancy", self.arena_occupancy());
        r.value("acf.compress.code_ratio", self.code_ratio());
        r.value("acf.compress.total_ratio", self.total_ratio());
        r
    }
}

/// A compressed program plus whatever expands it again.
#[derive(Debug, Clone)]
pub struct CompressedProgram {
    /// The compressed image (branches retargeted, entry/symbols remapped).
    pub program: Program,
    /// Aware DISE productions (4-byte-codeword configurations).
    pub productions: Option<ProductionSet>,
    /// Dedicated-decompressor dictionary (2-byte-codeword configurations).
    pub dictionary: Option<DedicatedDict>,
    /// Static statistics.
    pub stats: CompressionStats,
}

impl CompressedProgram {
    /// Attaches the decompression machinery to a machine loaded with
    /// [`CompressedProgram::program`].
    ///
    /// # Errors
    ///
    /// Propagates engine-construction errors.
    pub fn attach(
        &self,
        machine: &mut dise_sim::Machine,
        engine_config: dise_core::EngineConfig,
    ) -> Result<()> {
        if let Some(set) = &self.productions {
            machine.attach_engine(dise_core::DiseEngine::with_productions(
                engine_config,
                set.clone(),
            )?);
        }
        if let Some(dict) = &self.dictionary {
            machine.attach_dedicated(dict.clone());
        }
        Ok(())
    }
}

/// One occurrence of a shape in the original program: its first
/// instruction, as an index into [`Cfg::insts`], and its codeword
/// parameters. The PC and a short branch's target are read from the
/// instruction list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Instance {
    start: u32,
    params: [u8; 3],
}

/// The candidate shapes in selection order (see
/// [`Compressor::sorted_shape_list`]): each one's canonical specs, and
/// its occurrences in start order, shape `sid`'s at
/// `instances[inst_off[sid]..inst_off[sid + 1]]`.
#[derive(Debug, Default, PartialEq, Eq)]
struct Shapes {
    specs: Vec<Vec<InstSpec>>,
    inst_off: Vec<u32>,
    instances: Vec<Instance>,
}

impl Shapes {
    fn count(&self) -> usize {
        self.specs.len()
    }

    fn len(&self, sid: usize) -> usize {
        self.specs[sid].len()
    }

    fn instances(&self, sid: usize) -> &[Instance] {
        &self.instances[self.inst_off[sid] as usize..self.inst_off[sid + 1] as usize]
    }
}

/// A chosen dictionary: each entry's canonical specs in tag order, and
/// every planted (non-overlapping) instance in start order with its
/// entry's tag.
struct Selection {
    entries: Vec<Vec<InstSpec>>,
    planted: Vec<(Instance, u16)>,
}

impl Selection {
    /// The selection of shapes `sids` (in tag order); the other
    /// candidates are freed.
    fn new(mut shapes: Shapes, sids: &[usize], planted: Vec<(Instance, u16)>) -> Selection {
        let entries = sids
            .iter()
            .map(|&sid| std::mem::take(&mut shapes.specs[sid]))
            .collect();
        Selection { entries, planted }
    }
}

/// A cover placement: (position, length, shape id).
type Placed = (u32, u32, u32);

/// Marks the empty shape prefix and an unassigned shape slot.
const NONE: u32 = u32::MAX;

/// A window spec packed into two words for interning: the immediate's
/// value, and everything else. Injective on the specs [`Canon::spec`]
/// builds (templated, literal opcode, literal or parameter registers, no
/// DISE branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpecKey(u64, u64);

impl SpecKey {
    fn of(spec: &InstSpec) -> SpecKey {
        let InstSpec::Templated {
            op: OpDirective::Literal(op),
            ra,
            rb,
            rc,
            imm,
            uses_lit,
            dise_branch: false,
        } = spec
        else {
            unreachable!("window specs are templated with a literal opcode: {spec}")
        };
        let reg = |r: &RegDirective| match *r {
            RegDirective::Literal(r) => r.index() as u64,
            RegDirective::Param(slot) => 0x80 | u64::from(slot),
            _ => unreachable!("window specs name registers or parameters"),
        };
        // The immediate's kind, and its value or directive fields.
        let (kind, value) = match *imm {
            ImmDirective::Literal(v) => (0, v as u64),
            ImmDirective::AbsTarget(t) => (1, t),
            ImmDirective::Param {
                slot,
                shift,
                signed,
            } => (
                2,
                u64::from(slot) | u64::from(shift) << 8 | u64::from(signed) << 16,
            ),
            ImmDirective::Param2 {
                lo,
                hi,
                shift,
                signed,
            } => (
                3,
                u64::from(lo)
                    | u64::from(hi) << 8
                    | u64::from(shift) << 16
                    | u64::from(signed) << 24,
            ),
            _ => unreachable!("window specs use literal, target or parameter immediates"),
        };
        let fields = kind
            | reg(ra) << 8
            | reg(rb) << 16
            | reg(rc) << 24
            | u64::from(*uses_lit) << 32
            | (*op as u64) << 40;
        SpecKey(value, fields)
    }
}

impl std::hash::Hash for SpecKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // `FxHasher` multiplies without a final mix, so its low bits (the
        // bucket index) only see the low bits of what it is fed. Feed it
        // one word in which every input bit already reaches the low bits.
        let h = (self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.1)
            .wrapping_mul(0xff51_afd7_ed55_8ccd);
        state.write_u64(h ^ h >> 32);
    }
}

/// The in-block windows of `1..=max_seq_len` instructions that can become
/// candidates (see [`Compressor::window_table`]), each canonicalized once
/// and interned to a dense shape id. Everything downstream — the
/// candidate filter and the occurrence index — works on ids.
///
/// Shapes form a trie: shape `id` is shape `parent[id]` ([`NONE`] for the
/// empty prefix) extended by one instruction spec, so interning a window
/// one instruction longer than an interned one is a single small-key
/// lookup, and only the shapes selection keeps are ever materialized as
/// spec vectors.
#[derive(Default)]
struct WindowTable {
    parent: Vec<u32>,
    /// Each shape's last instruction spec, as an index into `specs`.
    last: Vec<u32>,
    /// Distinct instruction specs.
    specs: Vec<InstSpec>,
    spec_ids: FxHashMap<SpecKey, u32>,
    children: FxHashMap<(u32, u32), u32>,
    /// Occurrences per shape id, and the occurrences of every shape seen
    /// at least `min_count` times with their shape id, shortest shapes
    /// first and in start order per length. Windows shorter than
    /// `min_seq_len` are interned (they are the trie prefixes of longer
    /// ones) but not recorded.
    counts: Vec<u32>,
    instances: Vec<(u32, Instance)>,
}

impl WindowTable {
    fn num_shapes(&self) -> usize {
        self.parent.len()
    }

    /// The shape `prefix` extended by `spec`, interned.
    fn child(&mut self, prefix: u32, spec: &InstSpec) -> u32 {
        let next_spec = self.specs.len() as u32;
        let spec_id = *self.spec_ids.entry(SpecKey::of(spec)).or_insert(next_spec);
        if spec_id == next_spec {
            self.specs.push(spec.clone());
        }
        let next = self.parent.len() as u32;
        let id = *self.children.entry((prefix, spec_id)).or_insert(next);
        if id == next {
            self.parent.push(prefix);
            self.last.push(spec_id);
            self.counts.push(0);
        }
        id
    }

    /// The canonical specs of shape `id`.
    fn specs_of(&self, mut id: u32) -> Vec<InstSpec> {
        let mut specs = Vec::new();
        while id != NONE {
            specs.push(self.specs[self.last[id as usize] as usize].clone());
            id = self.parent[id as usize];
        }
        specs.reverse();
        specs
    }
}

/// The LPM occurrence index, in compressed-sparse-row form, and a
/// per-block weighted-interval DP over it whose scratch is sized once to
/// the largest block and reused by every call.
struct CoverDp<'a> {
    /// Each basic block's first instruction and length, in flat order.
    blocks: &'a [(usize, usize)],
    /// The candidate matches starting at instruction `i` are
    /// `matches[match_off[i]..match_off[i + 1]]`, as (length, shape id),
    /// longest (lowest sid) first.
    match_off: Vec<u32>,
    matches: Vec<(u32, u32)>,
    /// Codeword size in bytes.
    cw: i64,
    /// Best saving from each block position on, and the match taken
    /// there (sid [`NONE`] for none).
    best: Vec<i64>,
    take: Vec<(u32, u32)>,
}

impl<'a> CoverDp<'a> {
    fn new(blocks: &'a [(usize, usize)], shapes: &Shapes, num_insts: usize, cw: i64) -> Self {
        let mut match_off = vec![0u32; num_insts + 1];
        for inst in &shapes.instances {
            match_off[inst.start as usize + 1] += 1;
        }
        for i in 0..num_insts {
            match_off[i + 1] += match_off[i];
        }
        // Filling in sid order keeps each position's matches longest first.
        let mut fill = match_off.clone();
        let mut matches = vec![(0, NONE); match_off[num_insts] as usize];
        for sid in 0..shapes.count() {
            let len = shapes.len(sid) as u32;
            for inst in shapes.instances(sid) {
                let at = &mut fill[inst.start as usize];
                matches[*at as usize] = (len, sid as u32);
                *at += 1;
            }
        }
        let longest = blocks.iter().map(|&(_, n)| n).max().unwrap_or(0);
        CoverDp {
            blocks,
            match_off,
            matches,
            cw,
            best: vec![0; longest + 1],
            take: vec![(0, NONE); longest],
        }
    }

    /// Code bytes saved by planting one codeword over `len` instructions.
    fn save(&self, len: u32) -> i64 {
        len as i64 * 4 - self.cw
    }

    /// Optimal non-conflicting cover of block `bi` by the active entries,
    /// maximizing code bytes saved. Ties prefer fewer codewords, then
    /// longer/more frequent shapes. Appends the placed instances to `out`
    /// as (position, length, shape id) and returns the saving.
    fn block(&mut self, bi: usize, active: &[bool], out: &mut Vec<Placed>) -> i64 {
        let (s, n) = self.blocks[bi];
        self.best[n] = 0;
        for i in (0..n).rev() {
            let mut best = self.best[i + 1];
            let mut take = (0, NONE);
            let at = self.match_off[s + i] as usize..self.match_off[s + i + 1] as usize;
            for &(len, sid) in &self.matches[at] {
                if !active[sid as usize] || i + len as usize > n {
                    continue;
                }
                let v = self.save(len) + self.best[i + len as usize];
                if v > best {
                    best = v;
                    take = (len, sid);
                }
            }
            self.best[i] = best;
            self.take[i] = take;
        }
        let mut i = 0usize;
        while i < n {
            let (len, sid) = self.take[i];
            if sid == NONE {
                i += 1;
            } else {
                out.push(((s + i) as u32, len, sid));
                i += len as usize;
            }
        }
        self.best[0]
    }

    /// The whole program's cover under the active entries, into `out`.
    fn cover(&mut self, active: &[bool], out: &mut Vec<Placed>) {
        out.clear();
        for bi in 0..self.blocks.len() {
            self.block(bi, active, out);
        }
    }
}

/// Each block's cover under the active entries: its saving, and its
/// placements at `placed[s..s + len[bi]]` from the block's first
/// instruction `s` (a block of `n` instructions holds at most `n`).
struct BlockCovers<'a> {
    blocks: &'a [(usize, usize)],
    value: Vec<i64>,
    len: Vec<u32>,
    placed: Vec<Placed>,
}

impl<'a> BlockCovers<'a> {
    /// Every block's optimal cover.
    fn new(dp: &mut CoverDp<'a>, active: &[bool]) -> Self {
        let blocks = dp.blocks;
        let mut value = Vec::with_capacity(blocks.len());
        let mut len = Vec::with_capacity(blocks.len());
        let mut placed = Vec::with_capacity(blocks.last().map_or(0, |&(s, n)| s + n));
        for (bi, &(s, n)) in blocks.iter().enumerate() {
            value.push(dp.block(bi, active, &mut placed));
            len.push((placed.len() - s) as u32);
            placed.resize(s + n, (0, 0, NONE));
        }
        BlockCovers {
            blocks,
            value,
            len,
            placed,
        }
    }

    fn get(&self, bi: usize) -> &[Placed] {
        &self.placed[self.blocks[bi].0..][..self.len[bi] as usize]
    }

    fn set(&mut self, bi: usize, value: i64, placed: &[Placed]) {
        self.placed[self.blocks[bi].0..][..placed.len()].copy_from_slice(placed);
        self.len[bi] = placed.len() as u32;
        self.value[bi] = value;
    }
}

/// The dictionary compressor. See the module docs.
#[derive(Debug, Clone)]
pub struct Compressor {
    config: CompressionConfig,
}

impl Compressor {
    /// Creates a compressor.
    pub fn new(config: CompressionConfig) -> Compressor {
        Compressor { config }
    }

    /// Compresses `program`.
    ///
    /// # Errors
    ///
    /// Fails if `max_entries` exceeds what the codeword format can
    /// address, on malformed input programs (undecodable text, already
    /// compressed) or if a patched branch parameter overflows (cannot
    /// happen for shrink-only transformations; reported defensively).
    pub fn compress(&self, program: &Program) -> Result<CompressedProgram> {
        let cfg = &self.config;
        if cfg.max_entries > cfg.entry_cap() {
            return Err(AcfError::Compress(format!(
                "CompressionConfig::max_entries is {} but {}-byte codewords index at most {} \
                 dictionary entries (11-bit tags); lower max_entries to {} or fewer",
                cfg.max_entries,
                cfg.cw_bytes(),
                cfg.entry_cap(),
                cfg.entry_cap()
            )));
        }
        let text = Cfg::build(program)?;
        let Selection { entries, planted } = match cfg.select {
            SelectAlgo::V1 => self.select_v1(&text),
            SelectAlgo::V2 => self.select_v2(&text),
        };

        // The relocator holds its own copy of the instruction list.
        drop(text);
        let mut relocator = Relocator::new(program)?;
        let mut i = 0usize;
        for &(inst, tag) in &planted {
            let start = inst.start as usize;
            for _ in i..start {
                relocator.keep()?;
            }
            let len = entries[tag as usize].len();
            let item = if cfg.two_byte_codewords {
                NewItem::plain(TextItem::Short(tag))
            } else {
                let [p1, p2, p3] = inst.params;
                let cw = Inst::codeword(cfg.cw_op, p1, p2, p3, tag);
                // The relocator re-points a parameterized branch
                // (parameters 2 and 3) at its target's new address.
                match Terminal::of(&relocator.insts()[start..start + len]) {
                    Terminal::Short { target, .. } => {
                        NewItem::branch(cw, NewTarget::OldAddr(target))
                    }
                    _ => NewItem::inst(cw),
                }
            };
            relocator.replace(len, [item])?;
            i = start + len;
        }
        relocator.keep_rest()?;
        let out = relocator.finish()?;
        let arena_uops: u64 = entries.iter().map(|e| e.len() as u64).sum();
        let stats = CompressionStats {
            original_text: program.text_size(),
            compressed_text: out.program.text_size(),
            dictionary_bytes: arena_uops * cfg.entry_bytes_per_inst,
            entries: entries.len(),
            instances: planted.len() as u64,
            insts_removed: planted
                .iter()
                .map(|&(_, tag)| entries[tag as usize].len() as u64)
                .sum(),
            arena_stride: entries.iter().map(Vec::len).max().unwrap_or(0),
            arena_uops,
        };

        // ---- build the dictionary ---------------------------------------
        let mut productions = None;
        let mut dictionary = None;
        if cfg.two_byte_codewords {
            let mut dict = Vec::with_capacity(entries.len());
            for specs in &entries {
                let nop = Inst::nop();
                let insts: Vec<Inst> = specs
                    .iter()
                    .map(|s| s.instantiate(&nop, 0).expect("literal specs"))
                    .collect();
                dict.push(insts);
            }
            dictionary = Some(DedicatedDict::new(dict));
        } else {
            let mut set = ProductionSet::new();
            for (tag, mut specs) in entries.into_iter().enumerate() {
                // Absolute-target branch entries were recorded against the
                // original layout; remap them to the compressed one.
                for s in &mut specs {
                    if let InstSpec::Templated {
                        imm: ImmDirective::AbsTarget(target),
                        ..
                    } = s
                    {
                        *target = out.new_addr(*target).ok_or_else(|| {
                            AcfError::Compress(format!(
                                "shared branch target {target:#x} no longer addressable"
                            ))
                        })?;
                    }
                }
                set.add_aware(cfg.cw_op, tag as u16, ReplacementSpec::new(specs))?;
            }
            productions = Some(set);
        }

        Ok(CompressedProgram {
            program: out.program,
            productions,
            dictionary,
            stats,
        })
    }

    /// Canonicalizes the in-block windows of `1..=max_seq_len`
    /// instructions that can become candidates, interning each one to a
    /// dense shape id.
    ///
    /// Windows grow one level (one instruction) at a time: every
    /// length-1 window is interned, and a length-`L` window is grown only
    /// from a length-`L−1` one whose shape occurred at least `min_count`
    /// times at the previous level. Parameter slots are assigned left to
    /// right, so a grown window's specs are its prefix's plus one and it
    /// interns as a trie child of its prefix. The one exception is a
    /// window ending in a short branch, whose fused displacement reserves
    /// two slots up front and reshuffles the prefix: it is canonicalized
    /// whole by [`Compressor::shape_of`] and interned along its full path
    /// (a branch ends its block, so it is never grown further).
    ///
    /// The pruning is exact: a shape never occurs more often than its
    /// windows' grown prefix, and windows ending in a short branch with
    /// equal whole shapes have equal grown prefixes (every value equal to
    /// the slot-0 value canonicalizes to `Param(0)` in both, and every
    /// other value is a literal of the whole shape). So every occurrence
    /// of a shape seen `min_count` times is enumerated. Occurrences are
    /// recorded only for those shapes, level by level and in start order
    /// within a level; with `min_count` 1 every window is kept.
    fn window_table(&self, text: &Cfg, min_count: u32) -> WindowTable {
        let cfg = &self.config;
        let mut table = WindowTable::default();
        // The level-1 frontier: every instruction starts a window.
        let mut frontier = Vec::with_capacity(text.insts.len());
        for &(base, n) in &text.blocks {
            let end = (base + n) as u32;
            frontier.extend((base as u32..end).map(|start| Growing {
                start,
                end,
                id: NONE,
                canon: Canon::default(),
            }));
        }
        let mut specs = Vec::with_capacity(cfg.max_seq_len);
        for len in 1..=cfg.max_seq_len {
            // Grow every live window by one instruction in place, dropping
            // those that leave their block. Growing a window never makes
            // it eligible again: drop it once the new instruction cannot
            // end a window or the old last one cannot sit inside one.
            let mut live = 0;
            for i in 0..frontier.len() {
                let mut w = frontier[i];
                let start = w.start as usize;
                if start + len > w.end as usize {
                    continue;
                }
                let window = &text.insts[start..start + len];
                if !self.eligible(&window[len - 1].1, true)
                    || (len > 1 && !self.eligible(&window[len - 2].1, false))
                {
                    continue;
                }
                let term = Terminal::of(window);
                w.id = if let Terminal::Short { .. } = term {
                    // A branch ends its block, so this window is never
                    // grown again and its parameters replace the grown
                    // prefix's.
                    let instance = self
                        .shape_of(window, start, &mut specs)
                        .expect("eligible window");
                    w.canon.params = instance.params;
                    specs.iter().fold(NONE, |id, spec| table.child(id, spec))
                } else {
                    let spec = w.canon.spec(cfg.parameterize, &window[len - 1].1, term.imm());
                    let id = table.child(w.id, &spec);
                    #[cfg(debug_assertions)]
                    {
                        let whole = self.shape_of(window, start, &mut specs);
                        assert_eq!(whole, Some(w.instance()), "grown window instance");
                        assert_eq!(specs, table.specs_of(id), "grown window specs");
                    }
                    id
                };
                table.counts[w.id as usize] += 1;
                frontier[live] = w;
                live += 1;
            }
            frontier.truncate(live);
            // The level's counts are final: keep the windows whose shape
            // can still become a candidate, and record them.
            frontier.retain(|w| table.counts[w.id as usize] >= min_count);
            frontier.shrink_to_fit();
            if len >= cfg.min_seq_len {
                table.instances.reserve_exact(frontier.len());
                table.instances.extend(frontier.iter().map(|w| (w.id, w.instance())));
            }
        }
        table
    }

    /// The reference model of [`Compressor::window_table`]: every
    /// in-block window of `1..=max_seq_len` instructions, grown from each
    /// start in turn and interned without pruning, every occurrence
    /// recorded in window order.
    #[cfg(test)]
    fn window_table_reference(&self, text: &Cfg) -> WindowTable {
        let cfg = &self.config;
        let max_len = cfg.max_seq_len;
        let mut table = WindowTable::default();
        let mut specs = Vec::with_capacity(max_len);
        for &(base, n) in &text.blocks {
            let block = &text.insts[base..base + n];
            for start in 0..n {
                let idx = base + start;
                let mut canon = Canon::default();
                let mut prefix = NONE;
                for len in 1..=max_len.min(n - start) {
                    let window = &block[start..start + len];
                    // Growing a window never makes it eligible again: stop
                    // once the new instruction cannot end a window or the
                    // old last one cannot sit inside one.
                    if !self.eligible(&window[len - 1].1, true)
                        || (len > 1 && !self.eligible(&window[len - 2].1, false))
                    {
                        break;
                    }
                    let term = Terminal::of(window);
                    let (id, instance) = if let Terminal::Short { .. } = term {
                        let instance = self
                            .shape_of(window, idx, &mut specs)
                            .expect("eligible window");
                        let id = specs.iter().fold(NONE, |id, spec| table.child(id, spec));
                        (id, instance)
                    } else {
                        let spec = canon.spec(cfg.parameterize, &window[len - 1].1, term.imm());
                        let id = table.child(prefix, &spec);
                        let instance = Instance {
                            start: idx as u32,
                            params: canon.params,
                        };
                        prefix = id;
                        (id, instance)
                    };
                    if len >= cfg.min_seq_len {
                        table.counts[id as usize] += 1;
                        table.instances.push((id, instance));
                    }
                }
            }
        }
        table
    }

    /// Whether a shape of `len` instructions occurring `count` times could
    /// pay for its dictionary entry: the code bytes it saves with every
    /// occurrence planted must exceed the entry's cost. A shape that
    /// fails this has no positive greedy profit (which only falls as text
    /// is claimed) and never pays in v2's local search, so no selection
    /// ever picks it.
    fn may_pay(&self, count: u32, len: usize) -> bool {
        let cfg = &self.config;
        let len = len as u64;
        u64::from(count) * (4 * len - cfg.cw_bytes()) > len * cfg.entry_bytes_per_inst
    }

    /// The fewest occurrences a shape needs to become a candidate: the
    /// least count with which a shape of some length in
    /// `min_seq_len..=max_seq_len` [`Compressor::may_pay`], and at least
    /// two for v2 ([`u32::MAX`] when no length can ever pay). It is the
    /// window table's pruning threshold: 2 for the first three Figure 7
    /// configurations, 3 for the other three.
    fn min_count(&self) -> u32 {
        let cfg = &self.config;
        // `may_pay(c, len)` holds exactly when `c > len·entry / saving`.
        let payable = (cfg.min_seq_len..=cfg.max_seq_len)
            .filter_map(|len| {
                let len = len as u64;
                let saving = (4 * len).checked_sub(cfg.cw_bytes()).filter(|&s| s > 0)?;
                Some(len * cfg.entry_bytes_per_inst / saving + 1)
            })
            .min()
            .map_or(u32::MAX, |c| u32::try_from(c).unwrap_or(u32::MAX));
        match cfg.select {
            SelectAlgo::V1 => payable,
            SelectAlgo::V2 => payable.max(2),
        }
    }

    /// The candidate shapes: the window table built at
    /// [`Compressor::min_count`], sorted.
    fn candidates(&self, text: &Cfg) -> Shapes {
        let min_count = self.min_count();
        self.sorted_shape_list(self.window_table(text, min_count), text, min_count)
    }

    /// The table's candidate shapes: those that occur at least
    /// `min_count` times and [`Compressor::may_pay`]. They are ordered
    /// deterministically (longest, then most frequent, then earliest — a
    /// unique key, as no two shapes share a first window) so
    /// dictionaries reproduce byte-for-byte. Selection indexes shapes by
    /// position in this list. Consumes the table and frees its maps
    /// first.
    fn sorted_shape_list(&self, mut table: WindowTable, text: &Cfg, min_count: u32) -> Shapes {
        table.spec_ids = FxHashMap::default();
        table.children = FxHashMap::default();
        // Trie depth is the shape length; a parent is interned before
        // its children.
        let mut len = vec![0u32; table.num_shapes()];
        for id in 0..len.len() {
            let parent = table.parent[id];
            len[id] = if parent == NONE { 1 } else { len[parent as usize] + 1 };
        }
        // Sort keys of the candidates, seen at their first occurrence.
        let mut slot = vec![NONE; table.num_shapes()];
        let mut keys: Vec<(u32, u32, u64, u32)> = Vec::new();
        for &(id, instance) in &table.instances {
            let (i, count) = (id as usize, table.counts[id as usize]);
            if slot[i] == NONE && count >= min_count && self.may_pay(count, len[i] as usize) {
                slot[i] = 0; // seen; the real slot is set after the sort
                let pc = text.insts[instance.start as usize].0;
                keys.push((u32::MAX - len[i], u32::MAX - count, pc, id));
            }
        }
        drop(len);
        keys.sort_unstable();
        let mut specs = Vec::with_capacity(keys.len());
        let mut inst_off = Vec::with_capacity(keys.len() + 1);
        let mut total = 0u32;
        inst_off.push(total);
        for &(_, rev_count, _, id) in &keys {
            slot[id as usize] = specs.len() as u32;
            specs.push(table.specs_of(id));
            total += u32::MAX - rev_count;
            inst_off.push(total);
        }
        drop(keys);
        // Each shape's occurrences sit at one level of the table, in
        // start order.
        let mut fill = inst_off.clone();
        let mut instances = vec![Instance { start: 0, params: [0; 3] }; total as usize];
        for &(id, instance) in &table.instances {
            if let Some(at) = fill.get_mut(slot[id as usize] as usize) {
                instances[*at as usize] = instance;
                *at += 1;
            }
        }
        debug_assert_eq!(fill[..specs.len()], inst_off[1..], "every occurrence recorded");
        Shapes {
            specs,
            inst_off,
            instances,
        }
    }

    /// Lazy-greedy dictionary-entry selection (the \[20\]-style pass):
    /// repeatedly pick the shape with the best profit against the already
    /// claimed text, first-fit claiming its non-overlapping unclaimed
    /// instances. Shapes with `skip[sid]` set are never picked. Returns
    /// at most `budget` entries' shape ids in selection order; with
    /// `planted`, appends each claimed instance to it with its entry's
    /// position in that order.
    fn greedy_entries(
        &self,
        shapes: &Shapes,
        claimed: &mut [bool],
        skip: &[bool],
        budget: usize,
        mut planted: Option<&mut Vec<(Instance, u16)>>,
    ) -> Vec<usize> {
        let cfg = &self.config;
        let cw_bytes = cfg.cw_bytes() as i64;
        let profit_of = |sid: usize, claimed: &[bool]| -> i64 {
            let len = shapes.len(sid);
            let mut k = 0i64;
            let mut next_free = 0usize;
            for inst in shapes.instances(sid) {
                let start = inst.start as usize;
                if start < next_free {
                    continue; // overlaps an instance already counted
                }
                if claimed[start..start + len].iter().any(|c| *c) {
                    continue;
                }
                k += 1;
                next_free = start + len;
            }
            let len = len as i64;
            k * (len * 4 - cw_bytes) - len * cfg.entry_bytes_per_inst as i64
        };

        let mut heap: BinaryHeap<(i64, usize)> = (0..shapes.count())
            .filter(|&sid| !skip[sid])
            .map(|sid| (profit_of(sid, claimed), sid))
            .filter(|(p, _)| *p > 0)
            .collect();
        let mut selected = Vec::new();
        while selected.len() < budget {
            let Some((stale_profit, sid)) = heap.pop() else {
                break;
            };
            let profit = profit_of(sid, claimed);
            if profit <= 0 {
                continue;
            }
            if profit < stale_profit {
                // Re-insert with the refreshed profit unless it still beats
                // the next-best candidate.
                if let Some((next_best, _)) = heap.peek() {
                    if profit < *next_best {
                        heap.push((profit, sid));
                        continue;
                    }
                }
            }
            // Claim this shape's non-overlapping unclaimed instances.
            let tag = selected.len() as u16;
            let len = shapes.len(sid);
            for &inst in shapes.instances(sid) {
                let span = &mut claimed[inst.start as usize..][..len];
                if span.iter().any(|c| *c) {
                    continue;
                }
                span.fill(true);
                if let Some(planted) = planted.as_deref_mut() {
                    planted.push((inst, tag));
                }
            }
            selected.push(sid);
        }
        selected
    }

    /// v1 selection: full window enumeration, then one greedy pass. Tags
    /// follow selection order.
    fn select_v1(&self, text: &Cfg) -> Selection {
        let shapes = self.candidates(text);
        let mut claimed = vec![false; text.insts.len()];
        let skip = vec![false; shapes.count()];
        let mut planted = Vec::new();
        let entries = self.greedy_entries(
            &shapes,
            &mut claimed,
            &skip,
            self.config.max_entries,
            Some(&mut planted),
        );
        planted.sort_unstable_by_key(|(inst, _)| inst.start);
        Selection::new(shapes, &entries, planted)
    }

    /// v2 selection. Candidates are the shapes with at least two
    /// occurrences that [`Compressor::may_pay`]; every candidate
    /// occurrence is indexed per position, longest first; entry
    /// choice starts from the greedy solution and is refined by a
    /// prune/grow fixpoint, with a per-block weighted-interval dynamic
    /// program choosing the best non-conflicting cover each round. Tags
    /// follow first planted position.
    fn select_v2(&self, text: &Cfg) -> Selection {
        let cfg = &self.config;
        let num_insts = text.insts.len();
        let shapes = self.candidates(text);
        let mut dp = CoverDp::new(&text.blocks, &shapes, num_insts, cfg.cw_bytes() as i64);
        let num_blocks = text.blocks.len();

        // Seed with the greedy solution, then refine: prune entries whose
        // DP-realized saving no longer pays their dictionary cost (the
        // cover re-routes their text to the survivors), and when stable,
        // spend leftover budget on shapes profitable against the residual.
        let budget = cfg.max_entries;
        let entry_cost = |sid: usize| shapes.len(sid) as i64 * cfg.entry_bytes_per_inst as i64;
        let mut active = vec![false; shapes.count()];
        {
            let mut claimed = vec![false; num_insts];
            let skip = vec![false; shapes.count()];
            for sid in self.greedy_entries(&shapes, &mut claimed, &skip, budget, None) {
                active[sid] = true;
            }
        }
        let mut retired = vec![false; shapes.count()];
        let mut cover = Vec::new();
        dp.cover(&active, &mut cover);
        let mut realized = vec![0i64; shapes.count()];
        for _round in 0..16 {
            realized.fill(0);
            for &(_, len, sid) in &cover {
                realized[sid as usize] += dp.save(len);
            }
            let mut changed = false;
            for (sid, a) in active.iter_mut().enumerate() {
                if *a && realized[sid] <= entry_cost(sid) {
                    *a = false;
                    retired[sid] = true; // never re-grown: guarantees progress
                    changed = true;
                }
            }
            if !changed {
                let mut claimed = vec![false; num_insts];
                for &(start, len, _) in &cover {
                    claimed[start as usize..][..len as usize].fill(true);
                }
                let mut skip = retired.clone();
                for (sid, s) in skip.iter_mut().enumerate() {
                    *s = *s || active[sid];
                }
                let room = budget - active.iter().filter(|a| **a).count();
                for sid in self.greedy_entries(&shapes, &mut claimed, &skip, room, None) {
                    active[sid] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            dp.cover(&active, &mut cover);
        }
        drop((cover, realized, retired));

        // Final refinement: single-entry add/drop local search on the
        // true byte objective (realized code savings minus the dictionary
        // cost of every entry the cover actually uses). Greedy growth
        // only admits entries profitable against the *residual* text;
        // flipping an entry and re-running the per-block DP also sees
        // re-routing gains — a new entry stealing positions from weaker
        // covers, or a dropped entry whose positions re-route to
        // survivors for less than its dictionary cost. Every committed
        // flip strictly raises the integer objective, so the search
        // cannot cycle (the pass cap is a safety net).
        //
        // The blocks each candidate occurs in, in order: shape `sid`'s
        // are `block_ids[block_off[sid]..block_off[sid + 1]]`.
        let mut block_off = Vec::with_capacity(shapes.count() + 1);
        let mut block_ids: Vec<u32> = Vec::new();
        block_off.push(0);
        for sid in 0..shapes.count() {
            let first = block_ids.len();
            for inst in shapes.instances(sid) {
                let start = inst.start as usize;
                let bi = text.blocks.partition_point(|&(s, n)| s + n <= start) as u32;
                if block_ids[first..].last() != Some(&bi) {
                    block_ids.push(bi);
                }
            }
            block_off.push(block_ids.len());
        }
        let mut covers = BlockCovers::new(&mut dp, &active);
        let mut uses: Vec<i64> = vec![0; shapes.count()];
        for bi in 0..num_blocks {
            for &(_, _, sid) in covers.get(bi) {
                uses[sid as usize] += 1;
            }
        }
        let mut used_now = uses.iter().filter(|u| **u > 0).count() as i64;
        // Per-trial change in each entry's use count (dense scratch,
        // zeroed again as each trial reads it back).
        let mut delta_uses: Vec<i64> = vec![0; shapes.count()];
        let mut touched: Vec<u32> = Vec::new();
        // One trial's re-covered blocks as (block, saving, end of its
        // placements in `trial_cover`), all placements in one buffer.
        let mut trial: Vec<(usize, i64, usize)> = Vec::new();
        let mut trial_cover: Vec<Placed> = Vec::new();
        for _pass in 0..8 {
            let mut improved = false;
            for sid in 0..shapes.count() {
                if active[sid] && uses[sid] == 0 {
                    // Unused entries cost nothing (selection follows the
                    // cover) — deactivate without an evaluation.
                    active[sid] = false;
                    continue;
                }
                // Every candidate may pay unopposed, so each inactive one
                // is worth a trial.
                active[sid] = !active[sid];
                trial.clear();
                trial_cover.clear();
                let mut delta = 0i64;
                for &bi in &block_ids[block_off[sid]..block_off[sid + 1]] {
                    let bi = bi as usize;
                    let from = trial_cover.len();
                    let v = dp.block(bi, &active, &mut trial_cover);
                    delta += v - covers.value[bi];
                    for &(_, _, s2) in covers.get(bi) {
                        delta_uses[s2 as usize] -= 1;
                        touched.push(s2);
                    }
                    for &(_, _, s2) in &trial_cover[from..] {
                        delta_uses[s2 as usize] += 1;
                        touched.push(s2);
                    }
                    trial.push((bi, v, trial_cover.len()));
                }
                let mut used_delta = 0i64;
                for s2 in touched.drain(..) {
                    // Repeats read back zero and change nothing.
                    let du = std::mem::take(&mut delta_uses[s2 as usize]);
                    let u0 = uses[s2 as usize];
                    if u0 == 0 && u0 + du > 0 {
                        delta -= entry_cost(s2 as usize);
                        used_delta += 1;
                    } else if u0 > 0 && u0 + du == 0 {
                        delta += entry_cost(s2 as usize);
                        used_delta -= 1;
                    }
                }
                if delta > 0 && used_now + used_delta <= budget as i64 {
                    let mut from = 0;
                    for &(bi, v, to) in &trial {
                        let new = &trial_cover[from..to];
                        from = to;
                        for &(_, _, s2) in covers.get(bi) {
                            uses[s2 as usize] -= 1;
                        }
                        for &(_, _, s2) in new {
                            uses[s2 as usize] += 1;
                        }
                        covers.set(bi, v, new);
                    }
                    used_now += used_delta;
                    improved = true;
                } else {
                    active[sid] = !active[sid];
                }
            }
            if !improved {
                break;
            }
        }

        // Map the final cover back to instances; tag entries by first
        // planted position.
        let mut tag_of = vec![NONE; shapes.count()];
        let mut entries = Vec::new();
        let mut planted = Vec::new();
        for bi in 0..num_blocks {
            for &(start, _, sid) in covers.get(bi) {
                let sid = sid as usize;
                if tag_of[sid] == NONE {
                    tag_of[sid] = entries.len() as u32;
                    entries.push(sid);
                }
                let instances = shapes.instances(sid);
                let at = instances
                    .binary_search_by_key(&start, |i| i.start)
                    .expect("covers place indexed instances");
                planted.push((instances[at], tag_of[sid] as u16));
            }
        }
        Selection::new(shapes, &entries, planted)
    }

    /// Whether `inst` may appear in a compressible window, as its last
    /// instruction or inside it.
    fn eligible(&self, inst: &Inst, last: bool) -> bool {
        match inst.op.class() {
            OpClass::Codeword | OpClass::Misc => false,
            OpClass::CondBranch | OpClass::UncondBranch => self.config.compress_branches && last,
            OpClass::IndirectJump => self.config.allow_jumps && last,
            _ => true,
        }
    }

    /// Canonicalizes one candidate window into `specs` and returns its
    /// instance, or `None` if the window is not compressible under this
    /// configuration.
    fn shape_of(
        &self,
        window: &[(u64, Inst)],
        start_idx: usize,
        specs: &mut Vec<InstSpec>,
    ) -> Option<Instance> {
        let cfg = &self.config;
        let last = window.len() - 1;
        if !window
            .iter()
            .enumerate()
            .all(|(i, (_, inst))| self.eligible(inst, i == last))
        {
            return None;
        }
        let term = Terminal::of(window);
        let mut canon = Canon::default();
        if let Terminal::Short { lo, hi, .. } = term {
            canon.used[1] = true;
            canon.used[2] = true;
            canon.params[1] = lo;
            canon.params[2] = hi;
        }
        specs.clear();
        for (i, (_, inst)) in window.iter().enumerate() {
            let term_imm = if i == last { term.imm() } else { None };
            specs.push(canon.spec(cfg.parameterize, inst, term_imm));
        }
        let params = canon.params;

        // Verify: instantiating the shape against the would-be codeword
        // recreates the original window exactly.
        #[cfg(debug_assertions)]
        {
            let branch_pc = term.imm().map(|_| window[last].0);
            let cw = Inst::codeword(cfg.cw_op, params[0], params[1], params[2], 0);
            let trigger = if cfg.parameterize || branch_pc.is_some() {
                cw
            } else {
                Inst::nop()
            };
            for (s, (pc0, orig)) in specs.iter().zip(window) {
                let inst = s
                    .instantiate(&trigger, window[0].0)
                    .expect("shape instantiation");
                let ok = if branch_pc == Some(*pc0) {
                    inst.branch_target(window[0].0) == orig.branch_target(*pc0)
                } else {
                    inst == *orig
                };
                if !ok {
                    panic!(
                        "SHAPEBUG: spec {s} gave {inst}, expected {orig} (window[0] pc {:#x})",
                        window[0].0
                    );
                }
            }
        }
        Some(Instance {
            start: start_idx as u32,
            params,
        })
    }
}

/// How a window's terminating PC-relative branch is parameterized. Short
/// offsets go into a fused two-parameter field (the displacement relative
/// to the planted codeword — the whole sequence collapses to one
/// instruction). Long offsets that all point at one shared absolute
/// target (error handlers, common call targets) instead use an
/// `AbsTarget` directive: the IL computes the displacement from the
/// trigger's PC at expansion time, so sites at different addresses still
/// share one dictionary entry.
#[derive(Debug, Clone, Copy)]
enum Terminal {
    /// The window does not end in a PC-relative branch.
    None,
    /// Fused displacement in parameters 1 (`lo`) and 2 (`hi`).
    Short { target: u64, lo: u8, hi: u8 },
    /// Shared absolute target (the original address; remapped to the
    /// post-layout one when the dictionary is built).
    Abs(u64),
}

impl Terminal {
    fn of(window: &[(u64, Inst)]) -> Terminal {
        let (pc, inst) = window[window.len() - 1];
        if !matches!(inst.op.class(), OpClass::CondBranch | OpClass::UncondBranch) {
            return Terminal::None;
        }
        let target = inst.branch_target(pc);
        let disp_from_cw = target as i64 - (window[0].0 as i64 + 4);
        match Inst::codeword_disp_params(disp_from_cw) {
            Some([lo, hi]) => Terminal::Short { target, lo, hi },
            None => Terminal::Abs(target),
        }
    }

    /// The branch's immediate directive, if the window ends in one.
    fn imm(self) -> Option<ImmDirective> {
        match self {
            Terminal::None => None,
            Terminal::Short { .. } => Some(ImmDirective::Param2 {
                lo: 1,
                hi: 2,
                shift: 2,
                signed: true,
            }),
            Terminal::Abs(target) => Some(ImmDirective::AbsTarget(target)),
        }
    }
}

/// A window being grown one instruction per level of
/// [`Compressor::window_table`]: its first instruction and the end of its
/// block (indices into [`Cfg::insts`]), its shape so far ([`NONE`]
/// before the first level) and the canonicalization state that extends
/// it.
#[derive(Debug, Clone, Copy)]
struct Growing {
    start: u32,
    end: u32,
    id: u32,
    canon: Canon,
}

impl Growing {
    fn instance(&self) -> Instance {
        Instance {
            start: self.start,
            params: self.canon.params,
        }
    }
}

/// Canonicalization state of a window built left to right: the codeword
/// parameters so far and the register or immediate each assigned slot
/// abstracts.
#[derive(Debug, Default, Clone, Copy)]
struct Canon {
    params: [u8; 3],
    used: [bool; 3],
    reg_slots: [Option<dise_isa::Reg>; 3],
    /// Parameterized immediates lie in `-16..=31`.
    imm_slots: [Option<i8>; 3],
}

impl Canon {
    fn alloc(&mut self) -> Option<u8> {
        let slot = self.used.iter().position(|u| !u)?;
        self.used[slot] = true;
        Some(slot as u8)
    }

    /// The spec of the window's next instruction; `term_imm` overrides
    /// the immediate of a terminating branch.
    fn spec(
        &mut self,
        parameterize: bool,
        inst: &Inst,
        term_imm: Option<ImmDirective>,
    ) -> InstSpec {
        // The immediate claims its slot before the registers do.
        let imm = match term_imm {
            Some(imm) => imm,
            None => self.imm(parameterize, inst),
        };
        InstSpec::Templated {
            op: OpDirective::Literal(inst.op),
            ra: self.reg(parameterize, inst.ra),
            rb: self.reg(parameterize, inst.rb),
            rc: self.reg(parameterize, inst.rc),
            imm,
            uses_lit: inst.uses_lit,
            dise_branch: false,
        }
    }

    fn reg(&mut self, parameterize: bool, r: dise_isa::Reg) -> RegDirective {
        if !parameterize || r.is_zero() {
            return RegDirective::Literal(r);
        }
        if let Some(slot) = self.reg_slots.iter().position(|s| *s == Some(r)) {
            return RegDirective::Param(slot as u8);
        }
        match self.alloc() {
            Some(slot) => {
                self.reg_slots[slot as usize] = Some(r);
                self.params[slot as usize] = r.index() as u8;
                RegDirective::Param(slot)
            }
            None => RegDirective::Literal(r),
        }
    }

    fn imm(&mut self, parameterize: bool, inst: &Inst) -> ImmDirective {
        if !parameterize
            || inst.imm == 0
            || !matches!(
                inst.op.format(),
                dise_isa::op::Format::Memory | dise_isa::op::Format::Operate
            )
        {
            return ImmDirective::Literal(inst.imm);
        }
        let (lo, hi, signed) = if inst.uses_lit {
            (1, 31, false) // operate literals are unsigned
        } else {
            (-16, 15, true)
        };
        if !(lo..=hi).contains(&inst.imm) {
            return ImmDirective::Literal(inst.imm);
        }
        let imm = inst.imm as i8;
        let slot = match self.imm_slots.iter().position(|s| *s == Some(imm)) {
            Some(slot) => slot as u8,
            None => match self.alloc() {
                Some(slot) => {
                    self.imm_slots[slot as usize] = Some(imm);
                    self.params[slot as usize] = (inst.imm & 31) as u8;
                    slot
                }
                None => return ImmDirective::Literal(inst.imm),
            },
        };
        ImmDirective::Param {
            slot,
            shift: 0,
            signed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::EngineConfig;
    use dise_isa::{Assembler, Reg};
    use dise_sim::Machine;
    use dise_workloads::{Benchmark, WorkloadConfig};

    /// A program with lots of redundancy: the same address-compute/load/
    /// compare idiom repeated with different registers (Figure 4's shape).
    fn redundant_program() -> Program {
        let mut listing = String::new();
        for (a, b) in [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12)] {
            listing.push_str(&format!(
                "lda r{a}, 8(r{a})
                 ldq r{b}, 0(r{a})
                 cmplt r{b}, r0, r{b}
                 addq r{b}, #1, r{b}\n"
            ));
        }
        listing.push_str("halt");
        Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(&listing)
            .unwrap()
    }

    #[test]
    fn single_instruction_compression_helps_the_dedicated_baseline() {
        // The same (large-immediate) instruction many times: only
        // single-instruction compression can touch it when instructions
        // alternate.
        let mut listing = String::new();
        for i in 0..12 {
            listing.push_str("lda r1, 999(r31)\n");
            listing.push_str(&format!("lda r{}, {}(r31)\n", 2 + (i % 8), 100 + i * 13));
        }
        listing.push_str("halt");
        let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(&listing)
            .unwrap();
        let with = Compressor::new(CompressionConfig::dedicated())
            .compress(&p)
            .unwrap();
        let without = Compressor::new(CompressionConfig::dedicated_no_single())
            .compress(&p)
            .unwrap();
        assert!(
            with.stats.compressed_text < without.stats.compressed_text,
            "{} !< {}",
            with.stats.compressed_text,
            without.stats.compressed_text
        );
        // Still runs.
        let mut m = Machine::load(&with.program);
        with.attach(&mut m, EngineConfig::default()).unwrap();
        m.run(10_000).unwrap();
        assert_eq!(m.reg(Reg::R1), 999);
    }

    #[test]
    fn parameterized_sharing_beats_unparameterized() {
        let p = redundant_program();
        let unparam = Compressor::new(CompressionConfig::dise_wide_entries())
            .compress(&p)
            .unwrap();
        let param = Compressor::new(CompressionConfig::dise_parameterized())
            .compress(&p)
            .unwrap();
        assert!(
            param.stats.total_ratio() < unparam.stats.total_ratio(),
            "parameterization must improve total ratio: {} vs {}",
            param.stats.total_ratio(),
            unparam.stats.total_ratio()
        );
        // All six idiom instances share entries under parameterization.
        assert!(param.stats.entries < unparam.stats.entries.max(2));
    }

    #[test]
    fn compressed_program_is_functionally_identical() {
        let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(
                "       lda r1, 10(r31)
                        lda r9, 0(r31)
                 loop:  lda r2, 8(r2)
                        ldq r3, 0(r2)
                        addq r9, r3, r9
                        lda r4, 8(r4)
                        ldq r5, 0(r4)
                        addq r9, r5, r9
                        subq r1, #1, r1
                        bne r1, loop
                        halt",
            )
            .unwrap();
        let data = Program::segment_base(Program::DATA_SEGMENT);
        let run_orig = {
            let mut m = Machine::load(&p);
            m.set_reg(Reg::R2, data);
            m.set_reg(Reg::r(4), data + 512);
            for i in 0..200 {
                m.mem.store_u64(data + i * 8, i);
            }
            m.run(100_000).unwrap();
            m.reg(Reg::r(9))
        };
        for select in [SelectAlgo::V1, SelectAlgo::V2] {
            for config in [
                CompressionConfig::dedicated(),
                CompressionConfig::dedicated_no_single(),
                CompressionConfig::dise_unparameterized(),
                CompressionConfig::dise_parameterized(),
                CompressionConfig::dise_full(),
            ] {
                let config = config.with_select(select);
                let c = Compressor::new(config).compress(&p).unwrap();
                let mut m = Machine::load(&c.program);
                c.attach(&mut m, EngineConfig::default().perfect_rt()).unwrap();
                m.set_reg(Reg::R2, data);
                m.set_reg(Reg::r(4), data + 512);
                for i in 0..200 {
                    m.mem.store_u64(data + i * 8, i);
                }
                let r = m.run(100_000).unwrap();
                assert!(r.halted(), "{config:?}");
                assert_eq!(m.reg(Reg::r(9)), run_orig, "{config:?}");
            }
        }
    }

    #[test]
    fn branch_compression_requires_full_config() {
        // Six identical counted loops, each body ending in a backward
        // branch: only the full configuration can fold the branches into
        // the dictionary entry (their displacements live in parameters).
        let mut listing = String::new();
        for i in 0..6 {
            listing.push_str(&format!(
                "       lda r1, 5(r31)
                 l{i}:  addq r2, #1, r2
                        subq r1, #1, r1
                        bne r1, l{i}\n"
            ));
        }
        listing.push_str("halt");
        let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(&listing)
            .unwrap();
        let no_br = Compressor::new(CompressionConfig::dise_parameterized())
            .compress(&p)
            .unwrap();
        let with_br = Compressor::new(CompressionConfig::dise_full())
            .compress(&p)
            .unwrap();
        assert!(
            with_br.stats.compressed_text < no_br.stats.compressed_text,
            "branch compression must shrink the text further: {} vs {}",
            with_br.stats.compressed_text,
            no_br.stats.compressed_text
        );
        // And both still run correctly.
        for c in [no_br, with_br] {
            let mut m = Machine::load(&c.program);
            c.attach(&mut m, EngineConfig::default().perfect_rt()).unwrap();
            m.run(10_000).unwrap();
            assert_eq!(m.reg(Reg::R2), 30, "6 loops x 5 increments");
        }
    }

    #[test]
    fn two_byte_codewords_compress_better_per_instance() {
        let p = redundant_program();
        let dedicated = Compressor::new(CompressionConfig::dedicated())
            .compress(&p)
            .unwrap();
        let four_byte = Compressor::new(CompressionConfig::dise_unparameterized())
            .compress(&p)
            .unwrap();
        assert!(dedicated.stats.compressed_text <= four_byte.stats.compressed_text);
        assert!(dedicated.dictionary.is_some());
        assert!(four_byte.productions.is_some());
    }

    #[test]
    fn dictionary_entry_budget_is_respected() {
        let p = redundant_program();
        let mut config = CompressionConfig::dise_parameterized();
        config.max_entries = 1;
        let c = Compressor::new(config).compress(&p).unwrap();
        assert!(c.stats.entries <= 1);
    }

    #[test]
    fn incompressible_programs_pass_through() {
        // Every instruction distinct and referencing large immediates: no
        // profitable sharing for parameterless dedicated compression of
        // length ≥ 2.
        let mut listing = String::new();
        for i in 0..20 {
            listing.push_str(&format!("lda r{}, {}(r31)\n", (i % 28) + 1, 1000 + 37 * i));
        }
        listing.push_str("halt");
        let p = Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(&listing)
            .unwrap();
        let c = Compressor::new(CompressionConfig::dedicated_no_single())
            .compress(&p)
            .unwrap();
        assert_eq!(c.stats.entries, 0);
        assert_eq!(c.stats.compressed_text, c.stats.original_text);
        assert_eq!(c.program.text(), p.text());
    }

    #[test]
    fn stats_are_self_consistent() {
        let p = redundant_program();
        let c = Compressor::new(CompressionConfig::dise_full())
            .compress(&p)
            .unwrap();
        let s = c.stats;
        assert_eq!(
            s.compressed_text,
            s.original_text - s.insts_removed * 4 + s.instances * 4,
            "every removed sequence is replaced by one 4-byte codeword"
        );
        assert!(s.code_ratio() < 1.0);
        assert!(s.total_ratio() <= 1.0 + f64::EPSILON + 1.0);
        // Arena accounting: stride bounds every entry, occupancy in (0,1].
        assert!(s.arena_stride <= CompressionConfig::dise_full().max_seq_len);
        assert!(s.arena_uops <= (s.entries * s.arena_stride) as u64);
        assert!(s.arena_occupancy() > 0.0 && s.arena_occupancy() <= 1.0);
    }

    fn assemble(listing: &str) -> Program {
        Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(listing)
            .unwrap()
    }

    #[test]
    fn v1_plants_a_unique_sequence_that_pays_for_its_entry() {
        // One eight-instruction sequence that occurs once. With 2-byte
        // entry instructions its entry (16 bytes) costs less than the 28
        // code bytes a codeword saves, so the candidate rule must keep
        // it even though it never repeats.
        let mut listing = String::new();
        for i in 1..=8 {
            listing.push_str(&format!("lda r{i}, {}(r31)\n", 100 + i));
        }
        listing.push_str("halt");
        let p = assemble(&listing);
        let config = CompressionConfig {
            entry_bytes_per_inst: 2,
            ..CompressionConfig::dise_unparameterized()
        };
        let v1 = Compressor::new(config.with_select(SelectAlgo::V1))
            .compress(&p)
            .unwrap();
        assert_eq!((v1.stats.entries, v1.stats.instances), (1, 1));
        assert_eq!(v1.stats.insts_removed, 8);
        // v2 keeps its two-occurrence rule on top of the bound.
        let v2 = Compressor::new(config.with_select(SelectAlgo::V2))
            .compress(&p)
            .unwrap();
        assert_eq!(v2.stats.entries, 0);
    }

    #[test]
    fn a_pair_seen_twice_cannot_pay_for_a_wide_entry() {
        // Two occurrences of a two-instruction shape save 2 × (8 − 4) = 8
        // code bytes; its 8-byte-per-instruction entry costs 16.
        let pair = "addq r1, r2, r3\nsubq r4, r5, r6\n";
        let p = assemble(&format!(
            "{pair}lda r9, 100(r31)\n{pair}lda r10, 200(r31)\nhalt"
        ));
        for select in [SelectAlgo::V1, SelectAlgo::V2] {
            let config = CompressionConfig::dise_wide_entries().with_select(select);
            let c = Compressor::new(config).compress(&p).unwrap();
            assert_eq!(c.stats.entries, 0, "{select:?}");
            assert_eq!(c.program.text(), p.text(), "{select:?}");
        }
        // Four occurrences only break even, which is not a candidate
        // (selection never plants a shape that saves nothing net).
        let wide = Compressor::new(CompressionConfig::dise_wide_entries());
        assert!(!wide.may_pay(4, 2));
        assert!(wide.may_pay(5, 2));
        // Five occurrences save 20 bytes and do pay.
        let p = assemble(&format!("{}halt", pair.repeat(5)));
        for select in [SelectAlgo::V1, SelectAlgo::V2] {
            let config = CompressionConfig::dise_wide_entries().with_select(select);
            let c = Compressor::new(config).compress(&p).unwrap();
            assert!(c.stats.entries > 0, "{select:?}");
        }
    }

    #[test]
    fn v2_selection_never_loses_to_v1_here() {
        let p = redundant_program();
        for config in [
            CompressionConfig::dedicated(),
            CompressionConfig::dise_parameterized(),
            CompressionConfig::dise_full(),
        ] {
            let v1 = Compressor::new(config.with_select(SelectAlgo::V1))
                .compress(&p)
                .unwrap();
            let v2 = Compressor::new(config.with_select(SelectAlgo::V2))
                .compress(&p)
                .unwrap();
            assert!(
                v2.stats.total_ratio() <= v1.stats.total_ratio() + 1e-12,
                "{config:?}: v2 {} vs v1 {}",
                v2.stats.total_ratio(),
                v1.stats.total_ratio()
            );
        }
    }


    #[test]
    fn compression_registry_carries_static_stats() {
        let p = redundant_program();
        let c = Compressor::new(CompressionConfig::dise_full())
            .compress(&p)
            .unwrap();
        let r = c.stats.registry();
        let get = |name: &str| r.get(name).expect(name).as_f64();
        assert_eq!(get("acf.compress.entries"), c.stats.entries as f64);
        assert_eq!(get("acf.compress.instances"), c.stats.instances as f64);
        assert_eq!(get("acf.compress.code_ratio"), c.stats.code_ratio());
        assert_eq!(
            get("acf.compress.arena_occupancy"),
            c.stats.arena_occupancy()
        );
        // Registry names sort so `acf.*` merges ahead of `sim.*` blocks.
        assert!(r.entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// The six Figure 7 configurations, walk order.
    fn figure7() -> [(&'static str, CompressionConfig); 6] {
        [
            ("dedicated", CompressionConfig::dedicated()),
            ("dedicated_no_single", CompressionConfig::dedicated_no_single()),
            ("dise_unparameterized", CompressionConfig::dise_unparameterized()),
            ("dise_wide_entries", CompressionConfig::dise_wide_entries()),
            ("dise_parameterized", CompressionConfig::dise_parameterized()),
            ("dise_full", CompressionConfig::dise_full()),
        ]
    }

    #[test]
    fn table_threshold_is_the_least_payable_count() {
        let unique_pays = CompressionConfig {
            entry_bytes_per_inst: 2,
            ..CompressionConfig::dise_unparameterized()
        };
        let mut cases = figure7().to_vec();
        cases.push(("2-byte entry instructions", unique_pays));
        let payable = [2, 2, 2, 3, 3, 3, 1];
        for ((name, config), expected) in cases.into_iter().zip(payable) {
            let v1 = Compressor::new(config.with_select(SelectAlgo::V1));
            let threshold = v1.min_count();
            assert_eq!(threshold, expected, "{name}");
            let mut lens = config.min_seq_len..=config.max_seq_len;
            for count in 0..threshold {
                for len in lens.clone() {
                    assert!(!v1.may_pay(count, len), "{name}: {count} × {len} pays");
                }
            }
            assert!(lens.any(|len| v1.may_pay(threshold, len)), "{name}");
            let v2 = Compressor::new(config.with_select(SelectAlgo::V2));
            assert_eq!(v2.min_count(), threshold.max(2), "{name} v2");
        }
    }

    #[test]
    fn selection_records_stay_small() {
        assert_eq!(std::mem::size_of::<Instance>(), 8);
        assert_eq!(std::mem::size_of::<Growing>(), 32);
    }

    /// Checks the level-pruned window table against the unpruned
    /// reference on `benches` (seeds 0–2, tiny workloads) under the six
    /// Figure 7 configurations. Each algorithm's table, built at its own
    /// [`Compressor::min_count`], gives the candidate list that the
    /// reference gives at the algorithm's old fixed threshold (1 for v1,
    /// 2 for v2): the same specs, lengths and instances in order. It
    /// interns strictly fewer shapes, so the comparison proves that
    /// pruning ran.
    fn check_pruned_table(benches: &[Benchmark]) {
        for &bench in benches {
            for seed in 0..3 {
                let program = bench.build(&WorkloadConfig {
                    seed,
                    ..WorkloadConfig::tiny()
                });
                let text = Cfg::build(&program).unwrap();
                for (name, config) in figure7() {
                    for (select, old_count) in [(SelectAlgo::V1, 1), (SelectAlgo::V2, 2)] {
                        let what = format!("{} seed {seed} {name} {select:?}", bench.name());
                        let c = Compressor::new(config.with_select(select));
                        let reference = c.window_table_reference(&text);
                        let pruned = c.window_table(&text, c.min_count());
                        assert!(
                            pruned.num_shapes() < reference.num_shapes(),
                            "table interned {} of {} shapes: {what}",
                            pruned.num_shapes(),
                            reference.num_shapes()
                        );
                        let expected = c.sorted_shape_list(reference, &text, old_count);
                        let list = c.sorted_shape_list(pruned, &text, c.min_count());
                        assert_eq!(list, expected, "shape list: {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_window_table_matches_reference_on_one_benchmark() {
        check_pruned_table(&[Benchmark::Mcf]);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow unoptimized; ci.sh runs it under --release"
    )]
    fn pruned_window_table_matches_reference_on_every_benchmark() {
        check_pruned_table(&Benchmark::ALL);
    }

    /// The shape ids of the short-branch windows `table` recorded, in
    /// start order: those whose last spec takes the fused displacement.
    fn short_branch_ids(table: &WindowTable) -> Vec<u32> {
        let mut ids: Vec<(u32, u32)> = table
            .instances
            .iter()
            .filter(|(id, _)| {
                let last = &table.specs[table.last[*id as usize] as usize];
                matches!(
                    last,
                    InstSpec::Templated {
                        imm: ImmDirective::Param2 { .. },
                        ..
                    }
                )
            })
            .map(|(id, inst)| (inst.start, *id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// Two one-block windows, each an `addq` and a short `beq`.
    fn short_branch_pair(listing: &str) -> (Compressor, Cfg) {
        let text = Cfg::build(&assemble(listing)).unwrap();
        assert_eq!(text.blocks[0].1, 2, "{listing}");
        assert_eq!(text.blocks[1].1, 2, "{listing}");
        (Compressor::new(CompressionConfig::dise_full()), text)
    }

    /// The canonical specs of the first `len` instructions of block `bi`.
    fn block_shape(c: &Compressor, text: &Cfg, bi: usize, len: usize) -> Vec<InstSpec> {
        let mut specs = Vec::new();
        let start = text.blocks[bi].0;
        c.shape_of(&text.insts[start..start + len], start, &mut specs)
            .expect("compressible window");
        specs
    }

    #[test]
    fn short_branch_windows_with_equal_shapes_share_their_grown_prefix() {
        // The branch's displacement reserves slots 1 and 2, so slot 0 is
        // the whole shape's only parameter: a register (r1 vs r5), then a
        // small immediate (#5 vs #7).
        for listing in [
            "addq r1, r2, r3\n beq r1, a\n a: addq r5, r2, r3\n beq r5, b\n b: halt",
            "addq r2, #5, r3\n beq r3, a\n a: addq r2, #7, r3\n beq r3, b\n b: halt",
        ] {
            let (c, text) = short_branch_pair(listing);
            let whole = |bi| block_shape(&c, &text, bi, 2);
            let prefix = |bi| block_shape(&c, &text, bi, 1);
            assert_eq!(whole(0), whole(1), "whole shapes: {listing}");
            assert_eq!(prefix(0), prefix(1), "grown prefixes: {listing}");
            // So v2's table grows both windows past their prefix and
            // records them under one shape.
            let ids = short_branch_ids(&c.window_table(&text, 2));
            assert_eq!(ids.len(), 2, "{listing}");
            assert_eq!(ids[0], ids[1], "{listing}");
        }
    }

    #[test]
    fn a_later_literal_equal_to_slot_zero_separates_short_branch_shapes() {
        // The whole shapes differ only where the second window reuses r1,
        // the slot-0 register, for values the first keeps literal (r3).
        let listing = "addq r1, r2, r3\n beq r3, a\n a: addq r1, r2, r1\n beq r1, b\n b: halt";
        let (c, text) = short_branch_pair(listing);
        assert_ne!(block_shape(&c, &text, 0, 2), block_shape(&c, &text, 1, 2));
        assert_ne!(block_shape(&c, &text, 0, 1), block_shape(&c, &text, 1, 1));
        let ids = short_branch_ids(&c.window_table(&text, 1));
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        // Seen once each, neither is recorded at v2's threshold.
        assert!(short_branch_ids(&c.window_table(&text, 2)).is_empty());
    }
}
