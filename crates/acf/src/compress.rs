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
//!   entry; each planted codeword carries its own offset, patched after
//!   final layout.
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
//! shape occurred at least as often as a candidate must (twice for v2,
//! once for v1): a longer shape never occurs more often than its prefix,
//! so pruning the rest loses no candidate. Building the table is
//! O(n · `max_seq_len`) for `n` instructions, and v2 grows far fewer.
//!
//! Selection is a pure function of the program and the configuration:
//! text, dictionary, tags and statistics reproduce byte for byte
//! (`tests/select_golden.rs` pins digests of the whole output for every
//! Figure 7 configuration under both algorithms).

use crate::{AcfError, Result};
use dise_core::{
    FxHashMap, ImmDirective, InstSpec, OpDirective, ProductionSet, RegDirective, ReplacementSpec,
};
use dise_isa::reloc::{NewItem, Relocator};
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

/// One occurrence of a shape in the original program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Instance {
    /// Index of the first instruction (into the flat instruction list).
    start: usize,
    /// PC of the first instruction.
    pc: u64,
    /// Codeword parameters.
    params: [u8; 3],
    /// For branch-compressed shapes: the branch's original absolute
    /// target.
    branch_target: Option<u64>,
}

#[derive(Debug, Default, PartialEq, Eq)]
struct ShapeData {
    len: usize,
    /// Every occurrence, in start order.
    instances: Vec<Instance>,
}

/// A chosen dictionary: the canonical shape table plus, per selected
/// entry, its tag and the claimed (non-overlapping) instances.
type Selection = (Vec<(Vec<InstSpec>, ShapeData)>, Vec<(u16, usize, Vec<Instance>)>);

/// One block's optimal cover under the active entry set: the realized
/// byte savings and the placed instances as (position, length, shape id).
type BlockCover = (i64, Vec<(usize, u32, u32)>);

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
struct CoverDp {
    /// Each basic block's first instruction and length, in flat order.
    blocks: Vec<(usize, usize)>,
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

impl CoverDp {
    fn new(
        graph: &Cfg,
        shape_list: &[(Vec<InstSpec>, ShapeData)],
        num_insts: usize,
        cw: i64,
    ) -> CoverDp {
        let mut match_off = vec![0u32; num_insts + 1];
        for (_, d) in shape_list {
            for inst in &d.instances {
                match_off[inst.start + 1] += 1;
            }
        }
        for i in 0..num_insts {
            match_off[i + 1] += match_off[i];
        }
        // Filling in sid order keeps each position's matches longest first.
        let mut fill = match_off.clone();
        let mut matches = vec![(0, NONE); match_off[num_insts] as usize];
        for (sid, (_, d)) in shape_list.iter().enumerate() {
            for inst in &d.instances {
                matches[fill[inst.start] as usize] = (d.len as u32, sid as u32);
                fill[inst.start] += 1;
            }
        }
        let mut blocks = Vec::with_capacity(graph.blocks.len());
        let mut base = 0usize;
        for b in &graph.blocks {
            blocks.push((base, b.insts.len()));
            base += b.insts.len();
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
    fn block(&mut self, bi: usize, active: &[bool], out: &mut Vec<(usize, u32, u32)>) -> i64 {
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
                out.push((s + i, len, sid));
                i += len as usize;
            }
        }
        self.best[0]
    }

    /// The whole program's cover under the active entries, into `out`.
    fn cover(&mut self, active: &[bool], out: &mut Vec<(usize, u32, u32)>) {
        out.clear();
        for bi in 0..self.blocks.len() {
            self.block(bi, active, out);
        }
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
        let graph = Cfg::build(program)?;
        let num_insts: usize = graph.blocks.iter().map(|b| b.insts.len()).sum();

        let (shape_list, selected) = match cfg.select {
            SelectAlgo::V1 => self.select_v1(&graph, num_insts),
            SelectAlgo::V2 => self.select_v2(&graph, num_insts),
        };

        // ---- emission ---------------------------------------------------
        let mut starts: Vec<Option<(u16, Instance, usize)>> = vec![None; num_insts];
        for (tag, sid, taken) in &selected {
            let len = shape_list[*sid].1.len;
            for inst in taken {
                starts[inst.start] = Some((*tag, *inst, len));
            }
        }
        let mut relocator = Relocator::new(program)?;
        let mut span_ordinal = 0usize;
        let mut codeword_spans: Vec<(usize, u16, Instance)> = Vec::new();
        let mut i = 0usize;
        while i < num_insts {
            if let Some((tag, inst, len)) = starts[i] {
                let item = if cfg.two_byte_codewords {
                    TextItem::Short(tag)
                } else {
                    TextItem::Inst(Inst::codeword(
                        cfg.cw_op,
                        inst.params[0],
                        inst.params[1],
                        inst.params[2],
                        tag,
                    ))
                };
                relocator.replace(len, vec![NewItem::plain(item)])?;
                if inst.branch_target.is_some() {
                    codeword_spans.push((span_ordinal, tag, inst));
                }
                i += len;
            } else {
                relocator.keep()?;
                i += 1;
            }
            span_ordinal += 1;
        }
        let out = relocator.finish()?;
        let mut compressed = out.program;

        // ---- patch parameterized branch offsets -------------------------
        for (ordinal, tag, inst) in &codeword_spans {
            let cw_addr = out.item_addrs[*ordinal];
            let old_target = inst.branch_target.expect("recorded with targets only");
            let new_target = *out.old_to_new.get(&old_target).ok_or_else(|| {
                AcfError::Compress(format!(
                    "compressed branch target {old_target:#x} no longer addressable"
                ))
            })?;
            let disp = new_target as i64 - (cw_addr as i64 + 4);
            if disp % 4 != 0 || !(-(1 << 11)..(1 << 11)).contains(&disp) {
                return Err(AcfError::Compress(format!(
                    "patched branch offset {disp} exceeds the two-parameter range"
                )));
            }
            let d10 = ((disp >> 2) & 0x3FF) as u32;
            let (p2, p3) = ((d10 & 31) as u8, ((d10 >> 5) & 31) as u8);
            let word = Inst::codeword(cfg.cw_op, inst.params[0], p2, p3, *tag)
                .encode()
                .expect("codewords always encode");
            let off = (cw_addr - compressed.text_base) as usize;
            compressed.text[off..off + 4].copy_from_slice(&word.to_be_bytes());
        }

        // ---- build the dictionary ---------------------------------------
        let mut productions = None;
        let mut dictionary = None;
        let mut dict_bytes = 0u64;
        if cfg.two_byte_codewords {
            let mut entries = Vec::with_capacity(selected.len());
            for (_, sid, _) in &selected {
                let specs = &shape_list[*sid].0;
                let nop = Inst::nop();
                let insts: Vec<Inst> = specs
                    .iter()
                    .map(|s| s.instantiate(&nop, 0).expect("literal specs"))
                    .collect();
                dict_bytes += insts.len() as u64 * cfg.entry_bytes_per_inst;
                entries.push(insts);
            }
            dictionary = Some(DedicatedDict::new(entries));
        } else {
            let mut set = ProductionSet::new();
            for (tag, sid, _) in &selected {
                let mut specs = shape_list[*sid].0.clone();
                // Absolute-target branch entries were recorded against the
                // original layout; remap them to the compressed one.
                for s in &mut specs {
                    if let InstSpec::Templated {
                        imm: ImmDirective::AbsTarget(target),
                        ..
                    } = s
                    {
                        *target = *out.old_to_new.get(target).ok_or_else(|| {
                            AcfError::Compress(format!(
                                "shared branch target {target:#x} no longer addressable"
                            ))
                        })?;
                    }
                }
                dict_bytes += specs.len() as u64 * cfg.entry_bytes_per_inst;
                set.add_aware(cfg.cw_op, *tag, ReplacementSpec::new(specs))?;
            }
            productions = Some(set);
        }

        let instances: u64 = selected.iter().map(|(_, _, t)| t.len() as u64).sum();
        let insts_removed: u64 = selected
            .iter()
            .map(|(_, sid, t)| (t.len() * shape_list[*sid].1.len) as u64)
            .sum();
        let arena_stride = selected
            .iter()
            .map(|(_, sid, _)| shape_list[*sid].1.len)
            .max()
            .unwrap_or(0);
        let arena_uops: u64 = selected
            .iter()
            .map(|(_, sid, _)| shape_list[*sid].1.len as u64)
            .sum();
        let stats = CompressionStats {
            original_text: program.text_size(),
            compressed_text: compressed.text_size(),
            dictionary_bytes: dict_bytes,
            entries: selected.len(),
            instances,
            insts_removed,
            arena_stride,
            arena_uops,
        };
        Ok(CompressedProgram {
            program: compressed,
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
    fn window_table(&self, graph: &Cfg, min_count: u32) -> WindowTable {
        let cfg = &self.config;
        let mut table = WindowTable::default();
        // The level-1 frontier: every instruction starts a window.
        let mut bases = Vec::with_capacity(graph.blocks.len());
        let mut frontier = Vec::new();
        let mut idx_base = 0usize;
        for (bi, block) in graph.blocks.iter().enumerate() {
            bases.push(idx_base);
            idx_base += block.insts.len();
            frontier.extend((0..block.insts.len() as u32).map(|start| Growing {
                block: bi as u32,
                start,
                id: NONE,
                canon: Canon::default(),
            }));
        }
        let mut specs = Vec::with_capacity(cfg.max_seq_len);
        let mut grown: Vec<(Growing, Instance)> = Vec::with_capacity(frontier.len());
        for len in 1..=cfg.max_seq_len {
            grown.clear();
            for mut w in frontier.drain(..) {
                let insts = &graph.blocks[w.block as usize].insts;
                let start = w.start as usize;
                let Some(window) = insts.get(start..start + len) else {
                    continue;
                };
                // Growing a window never makes it eligible again: drop it
                // once the new instruction cannot end a window or the old
                // last one cannot sit inside one.
                if !self.eligible(&window[len - 1].1, true)
                    || (len > 1 && !self.eligible(&window[len - 2].1, false))
                {
                    continue;
                }
                let idx = bases[w.block as usize] + start;
                let term = Terminal::of(window);
                let (id, instance) = if let Terminal::Short { .. } = term {
                    let instance = self
                        .shape_of(window, idx, &mut specs)
                        .expect("eligible window");
                    let id = specs.iter().fold(NONE, |id, spec| table.child(id, spec));
                    (id, instance)
                } else {
                    let spec = w.canon.spec(cfg.parameterize, &window[len - 1].1, term.imm());
                    let id = table.child(w.id, &spec);
                    let instance = Instance {
                        start: idx,
                        pc: window[0].0,
                        params: w.canon.params,
                        branch_target: None,
                    };
                    #[cfg(debug_assertions)]
                    {
                        let whole = self.shape_of(window, idx, &mut specs);
                        assert_eq!(whole, Some(instance), "grown window instance");
                        assert_eq!(specs, table.specs_of(id), "grown window specs");
                    }
                    (id, instance)
                };
                table.counts[id as usize] += 1;
                w.id = id;
                grown.push((w, instance));
            }
            // The level's counts are final: keep the windows whose shape
            // can still become a candidate.
            for &(w, instance) in &grown {
                if table.counts[w.id as usize] >= min_count {
                    if len >= cfg.min_seq_len {
                        table.instances.push((w.id, instance));
                    }
                    frontier.push(w);
                }
            }
        }
        table
    }

    /// The reference model of [`Compressor::window_table`]: every
    /// in-block window of `1..=max_seq_len` instructions, grown from each
    /// start in turn and interned without pruning, every occurrence
    /// recorded in window order.
    #[cfg(test)]
    fn window_table_reference(&self, graph: &Cfg) -> WindowTable {
        let cfg = &self.config;
        let max_len = cfg.max_seq_len;
        let mut table = WindowTable::default();
        let mut specs = Vec::with_capacity(max_len);
        let mut idx_base = 0usize;
        for block in &graph.blocks {
            let n = block.insts.len();
            for start in 0..n {
                let idx = idx_base + start;
                let mut canon = Canon::default();
                let mut prefix = NONE;
                for len in 1..=max_len.min(n - start) {
                    let window = &block.insts[start..start + len];
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
                            start: idx,
                            pc: window[0].0,
                            params: canon.params,
                            branch_target: None,
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
            idx_base += n;
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

    /// The table's candidate shapes: those that occur at least
    /// `min_count` times and [`Compressor::may_pay`]. They are ordered
    /// deterministically (longest, then most frequent, then earliest — a
    /// unique key, as no two shapes share a first window) so
    /// dictionaries reproduce byte-for-byte. Selection indexes shapes by
    /// position in this list. Consumes the table, so its maps are freed
    /// before selection runs.
    fn sorted_shape_list(
        &self,
        table: WindowTable,
        min_count: u32,
    ) -> Vec<(Vec<InstSpec>, ShapeData)> {
        // Trie depth is the shape length; a parent is interned before
        // its children.
        let mut len = vec![0usize; table.num_shapes()];
        for id in 0..len.len() {
            let parent = table.parent[id];
            len[id] = if parent == NONE { 1 } else { len[parent as usize] + 1 };
        }
        // Sort keys of the candidates, seen at their first occurrence.
        let mut slot = vec![NONE; table.num_shapes()];
        let mut keys: Vec<(usize, u32, u64, u32)> = Vec::new();
        for &(id, instance) in &table.instances {
            let (i, count) = (id as usize, table.counts[id as usize]);
            if slot[i] == NONE && count >= min_count && self.may_pay(count, len[i]) {
                slot[i] = 0; // seen; the real slot is set after the sort
                keys.push((usize::MAX - len[i], u32::MAX - count, instance.pc, id));
            }
        }
        keys.sort_unstable();
        let mut shape_list = Vec::with_capacity(keys.len());
        for &(_, _, _, id) in &keys {
            slot[id as usize] = shape_list.len() as u32;
            let data = ShapeData {
                len: len[id as usize],
                instances: Vec::with_capacity(table.counts[id as usize] as usize),
            };
            shape_list.push((table.specs_of(id), data));
        }
        for &(id, instance) in &table.instances {
            if let Some(data) = shape_list.get_mut(slot[id as usize] as usize) {
                data.1.instances.push(instance);
            }
        }
        shape_list
    }

    /// Lazy-greedy dictionary-entry selection (the \[20\]-style pass):
    /// repeatedly pick the shape with the best profit against the already
    /// claimed text, first-fit claiming its non-overlapping unclaimed
    /// instances. Shapes with `skip[sid]` set are never picked; at most
    /// `budget` entries are returned, in selection order.
    fn greedy_entries(
        &self,
        shape_list: &[(Vec<InstSpec>, ShapeData)],
        claimed: &mut [bool],
        skip: &[bool],
        budget: usize,
    ) -> Vec<(usize, Vec<Instance>)> {
        let cfg = &self.config;
        let cw_bytes = cfg.cw_bytes();
        let profit_of = |data: &ShapeData, claimed: &[bool]| -> (i64, u64) {
            let mut k = 0u64;
            let mut next_free = 0usize;
            for inst in &data.instances {
                if inst.start < next_free {
                    continue; // overlaps an instance already counted
                }
                if claimed[inst.start..inst.start + data.len].iter().any(|c| *c) {
                    continue;
                }
                k += 1;
                next_free = inst.start + data.len;
            }
            let saving = k as i64 * (data.len as i64 * 4 - cw_bytes as i64);
            let cost = data.len as i64 * cfg.entry_bytes_per_inst as i64;
            (saving - cost, k)
        };

        let mut heap: BinaryHeap<(i64, usize)> = shape_list
            .iter()
            .enumerate()
            .filter(|(i, _)| !skip[*i])
            .map(|(i, (_, d))| (profit_of(d, claimed).0, i))
            .filter(|(p, _)| *p > 0)
            .collect();
        let mut selected: Vec<(usize, Vec<Instance>)> = Vec::new();
        while selected.len() < budget {
            let Some((stale_profit, sid)) = heap.pop() else {
                break;
            };
            let (profit, _) = profit_of(&shape_list[sid].1, claimed);
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
            let data = &shape_list[sid].1;
            let mut taken = Vec::new();
            let mut next_free = 0usize;
            for inst in &data.instances {
                if inst.start < next_free
                    || claimed[inst.start..inst.start + data.len].iter().any(|c| *c)
                {
                    continue;
                }
                taken.push(*inst);
                next_free = inst.start + data.len;
            }
            for inst in &taken {
                for c in &mut claimed[inst.start..inst.start + data.len] {
                    *c = true;
                }
            }
            selected.push((sid, taken));
        }
        selected
    }

    /// v1 selection: full window enumeration, then one greedy pass. Tags
    /// follow selection order.
    fn select_v1(&self, graph: &Cfg, num_insts: usize) -> Selection {
        let shape_list = self.sorted_shape_list(self.window_table(graph, 1), 1);
        let mut claimed = vec![false; num_insts];
        let skip = vec![false; shape_list.len()];
        let selected = self
            .greedy_entries(&shape_list, &mut claimed, &skip, self.config.max_entries)
            .into_iter()
            .enumerate()
            .map(|(tag, (sid, taken))| (tag as u16, sid, taken))
            .collect();
        (shape_list, selected)
    }

    /// v2 selection. Candidates are the shapes with at least two
    /// occurrences that [`Compressor::may_pay`]; every candidate
    /// occurrence is indexed per position, longest first; entry
    /// choice starts from the greedy solution and is refined by a
    /// prune/grow fixpoint, with a per-block weighted-interval dynamic
    /// program choosing the best non-conflicting cover each round. Tags
    /// follow first planted position.
    fn select_v2(&self, graph: &Cfg, num_insts: usize) -> Selection {
        let cfg = &self.config;
        let shape_list = self.sorted_shape_list(self.window_table(graph, 2), 2);
        let mut dp = CoverDp::new(graph, &shape_list, num_insts, cfg.cw_bytes() as i64);
        let num_blocks = graph.blocks.len();

        // Seed with the greedy solution, then refine: prune entries whose
        // DP-realized saving no longer pays their dictionary cost (the
        // cover re-routes their text to the survivors), and when stable,
        // spend leftover budget on shapes profitable against the residual.
        let budget = cfg.max_entries;
        let entry_cost =
            |sid: usize| shape_list[sid].1.len as i64 * cfg.entry_bytes_per_inst as i64;
        let mut active = vec![false; shape_list.len()];
        {
            let mut claimed = vec![false; num_insts];
            let skip = vec![false; shape_list.len()];
            for (sid, _) in self.greedy_entries(&shape_list, &mut claimed, &skip, budget) {
                active[sid] = true;
            }
        }
        let mut retired = vec![false; shape_list.len()];
        let mut cover = Vec::new();
        dp.cover(&active, &mut cover);
        let mut realized = vec![0i64; shape_list.len()];
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
                    for c in &mut claimed[start..start + len as usize] {
                        *c = true;
                    }
                }
                let mut skip = retired.clone();
                for (sid, s) in skip.iter_mut().enumerate() {
                    *s = *s || active[sid];
                }
                let room = budget - active.iter().filter(|a| **a).count();
                for (sid, _) in self.greedy_entries(&shape_list, &mut claimed, &skip, room) {
                    active[sid] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            dp.cover(&active, &mut cover);
        }
        drop(cover);

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
        let mut blocks_of: Vec<Vec<usize>> = vec![Vec::new(); shape_list.len()];
        for (sid, (_, d)) in shape_list.iter().enumerate() {
            for inst in &d.instances {
                let bi = dp.blocks.partition_point(|&(s, n)| s + n <= inst.start);
                if blocks_of[sid].last() != Some(&bi) {
                    blocks_of[sid].push(bi);
                }
            }
        }
        let mut covers: Vec<BlockCover> = (0..num_blocks)
            .map(|bi| {
                let mut c = Vec::new();
                (dp.block(bi, &active, &mut c), c)
            })
            .collect();
        let mut uses: Vec<i64> = vec![0; shape_list.len()];
        for (_, c) in &covers {
            for &(_, _, sid) in c {
                uses[sid as usize] += 1;
            }
        }
        let mut used_now = uses.iter().filter(|u| **u > 0).count() as i64;
        // Per-trial change in each entry's use count (dense scratch,
        // zeroed again as each trial reads it back).
        let mut delta_uses: Vec<i64> = vec![0; shape_list.len()];
        let mut touched: Vec<u32> = Vec::new();
        // One trial's re-covered blocks as (block, saving, end of its
        // placements in `trial_cover`), all placements in one buffer.
        let mut trial: Vec<(usize, i64, usize)> = Vec::new();
        let mut trial_cover: Vec<(usize, u32, u32)> = Vec::new();
        for _pass in 0..8 {
            let mut improved = false;
            for sid in 0..shape_list.len() {
                if blocks_of[sid].is_empty() {
                    continue;
                }
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
                for &bi in &blocks_of[sid] {
                    let from = trial_cover.len();
                    let v = dp.block(bi, &active, &mut trial_cover);
                    delta += v - covers[bi].0;
                    for &(_, _, s2) in &covers[bi].1 {
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
                        let placed = &trial_cover[from..to];
                        from = to;
                        let (value, c) = &mut covers[bi];
                        for &(_, _, s2) in c.iter() {
                            uses[s2 as usize] -= 1;
                        }
                        for &(_, _, s2) in placed {
                            uses[s2 as usize] += 1;
                        }
                        *value = v;
                        c.clear();
                        c.extend_from_slice(placed);
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

        // Map the final cover back to per-entry instances; tag entries by
        // first planted position.
        let mut order: Vec<usize> = Vec::new();
        let mut taken: Vec<Vec<Instance>> = vec![Vec::new(); shape_list.len()];
        for &(start, _, sid) in covers.iter().flat_map(|(_, c)| c) {
            let instances = &shape_list[sid as usize].1.instances;
            let at = instances
                .binary_search_by_key(&start, |i| i.start)
                .expect("covers place indexed instances");
            let slot = &mut taken[sid as usize];
            if slot.is_empty() {
                order.push(sid as usize);
            }
            slot.push(instances[at]);
        }
        let selected = order
            .into_iter()
            .enumerate()
            .map(|(tag, sid)| (tag as u16, sid, std::mem::take(&mut taken[sid])))
            .collect();
        (shape_list, selected)
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
        let mut branch_target = None;
        if let Terminal::Short { target, lo, hi } = term {
            canon.used[1] = true;
            canon.used[2] = true;
            canon.params[1] = lo;
            canon.params[2] = hi;
            branch_target = Some(target);
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
                    (window[0].0 + 4).wrapping_add_signed(inst.imm)
                        == (pc0 + 4).wrapping_add_signed(orig.imm)
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
            start: start_idx,
            pc: window[0].0,
            params,
            branch_target,
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
        let target = (pc + 4).wrapping_add_signed(inst.imm);
        let disp_from_cw = target as i64 - (window[0].0 as i64 + 4);
        if (-(1 << 11)..(1 << 11)).contains(&disp_from_cw) && disp_from_cw % 4 == 0 {
            let d10 = ((disp_from_cw >> 2) & 0x3FF) as u32;
            Terminal::Short {
                target,
                lo: (d10 & 31) as u8,
                hi: ((d10 >> 5) & 31) as u8,
            }
        } else {
            Terminal::Abs(target)
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
/// [`Compressor::window_table`]: its block, its first instruction there,
/// its shape so far ([`NONE`] before the first level) and the
/// canonicalization state that extends it.
#[derive(Debug, Clone, Copy)]
struct Growing {
    block: u32,
    start: u32,
    id: u32,
    canon: Canon,
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
        assert_eq!(c.program.text, p.text);
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
            assert_eq!(c.program.text, p.text, "{select:?}");
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

    /// Checks the level-pruned window table against the unpruned
    /// reference on `benches` (seeds 0–2, tiny workloads) under three
    /// Figure 7 configurations: v2's candidate list is identical (specs,
    /// lengths, instances in order), v1's threshold interns every shape
    /// the reference does and yields the same list, and v2's interns
    /// strictly fewer, so the comparison proves that pruning ran.
    fn check_pruned_table(benches: &[Benchmark]) {
        let configs = [
            ("dedicated", CompressionConfig::dedicated()),
            ("dise_parameterized", CompressionConfig::dise_parameterized()),
            ("dise_full", CompressionConfig::dise_full()),
        ];
        for &bench in benches {
            for seed in 0..3 {
                let program = bench.build(&WorkloadConfig {
                    seed,
                    ..WorkloadConfig::tiny()
                });
                let graph = Cfg::build(&program).unwrap();
                for (name, config) in configs {
                    let what = format!("{} seed {seed} {name}", bench.name());
                    let c = Compressor::new(config);
                    let reference = c.window_table_reference(&graph);
                    let v1 = c.window_table(&graph, 1);
                    let v2 = c.window_table(&graph, 2);
                    assert_eq!(v1.num_shapes(), reference.num_shapes(), "v1 shapes: {what}");
                    assert!(
                        v2.num_shapes() < reference.num_shapes(),
                        "v2 table interned {} of {} shapes: {what}",
                        v2.num_shapes(),
                        reference.num_shapes()
                    );
                    let expected = c.sorted_shape_list(reference, 2);
                    assert_eq!(c.sorted_shape_list(v2, 2), expected, "v2 list: {what}");
                    let expected = c.sorted_shape_list(c.window_table_reference(&graph), 1);
                    assert_eq!(c.sorted_shape_list(v1, 1), expected, "v1 list: {what}");
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
    /// start order.
    fn short_branch_ids(table: &WindowTable) -> Vec<u32> {
        let mut ids: Vec<(usize, u32)> = table
            .instances
            .iter()
            .filter(|(_, inst)| inst.branch_target.is_some())
            .map(|(id, inst)| (inst.start, *id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    /// Two one-block windows, each an `addq` and a short `beq`.
    fn short_branch_pair(listing: &str) -> (Compressor, Cfg) {
        let graph = Cfg::build(&assemble(listing)).unwrap();
        assert_eq!(graph.blocks[0].insts.len(), 2, "{listing}");
        assert_eq!(graph.blocks[1].insts.len(), 2, "{listing}");
        (Compressor::new(CompressionConfig::dise_full()), graph)
    }

    /// The canonical specs of the first `len` instructions of block `bi`.
    fn block_shape(c: &Compressor, graph: &Cfg, bi: usize, len: usize) -> Vec<InstSpec> {
        let mut specs = Vec::new();
        c.shape_of(&graph.blocks[bi].insts[..len], 0, &mut specs)
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
            let (c, graph) = short_branch_pair(listing);
            let whole = |bi| block_shape(&c, &graph, bi, 2);
            let prefix = |bi| block_shape(&c, &graph, bi, 1);
            assert_eq!(whole(0), whole(1), "whole shapes: {listing}");
            assert_eq!(prefix(0), prefix(1), "grown prefixes: {listing}");
            // So v2's table grows both windows past their prefix and
            // records them under one shape.
            let ids = short_branch_ids(&c.window_table(&graph, 2));
            assert_eq!(ids.len(), 2, "{listing}");
            assert_eq!(ids[0], ids[1], "{listing}");
        }
    }

    #[test]
    fn a_later_literal_equal_to_slot_zero_separates_short_branch_shapes() {
        // The whole shapes differ only where the second window reuses r1,
        // the slot-0 register, for values the first keeps literal (r3).
        let listing = "addq r1, r2, r3\n beq r3, a\n a: addq r1, r2, r1\n beq r1, b\n b: halt";
        let (c, graph) = short_branch_pair(listing);
        assert_ne!(block_shape(&c, &graph, 0, 2), block_shape(&c, &graph, 1, 2));
        assert_ne!(block_shape(&c, &graph, 0, 1), block_shape(&c, &graph, 1, 1));
        let ids = short_branch_ids(&c.window_table(&graph, 1));
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        // Seen once each, neither is recorded at v2's threshold.
        assert!(short_branch_ids(&c.window_table(&graph, 2)).is_empty());
    }
}
