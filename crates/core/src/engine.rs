//! The DISE engine hardware model: pattern table (PT), replacement table
//! (RT), pattern-counter table, and instantiation logic (paper §2.2–2.3).
//!
//! The PT is a small fully-associative structure holding resident pattern
//! specifications; the most specific matching resident pattern wins. PT
//! misses are detected with the pattern-counter table: a per-opcode pair of
//! counters (active vs. resident patterns); a fetched opcode whose counters
//! differ indicates that patterns for it are missing, triggering a fill of
//! all patterns for that opcode (§2.3).
//!
//! The RT is a cache of replacement-sequence instructions, each entry tagged
//! by `(replacement id, DISEPC)` and carrying the sequence length. It may be
//! direct-mapped, set-associative, or modeled as perfect. RT misses fill the
//! whole missing sequence through the [`Controller`], which charges the
//! 30-cycle simple-miss penalty or the 150-cycle penalty when the fill must
//! compose productions on the fly (§4).

use crate::controller::Controller;
use crate::fxhash::FxHashMap;
use crate::production::{Production, ProductionSet, ReplacementId};
use crate::spec::InstSpec;
use crate::{CoreError, Result};
use dise_isa::{Inst, Op};

/// Replacement-table organization (Figure 7 bottom sweeps these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtOrganization {
    /// One entry per set.
    DirectMapped,
    /// `n`-way set-associative with LRU replacement.
    SetAssociative(u32),
    /// Infinite capacity (the paper's "perfect RT").
    Perfect,
}

/// DISE engine configuration. Defaults are the paper's: 32 PT entries, a
/// 2K-entry 2-way RT, 30-cycle misses, 150-cycle composing misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Pattern-table capacity in pattern entries.
    pub pt_entries: usize,
    /// Replacement-table capacity in replacement-instruction entries.
    pub rt_entries: usize,
    /// Replacement-table organization.
    pub rt_org: RtOrganization,
    /// Replacement-instruction specifications coalesced per RT entry
    /// (§2.2: blocks reduce RT read ports at the expense of internal
    /// fragmentation — a sequence of length `L` occupies
    /// `ceil(L / rt_block) * rt_block` instruction slots). 1 disables
    /// coalescing.
    pub rt_block: u32,
    /// Pipeline stall charged for a simple PT or RT miss.
    pub miss_penalty: u64,
    /// Pipeline stall charged for an RT miss whose handler must compose
    /// productions (transparent-into-aware inlining, §3.3/§4.3).
    pub compose_penalty: u64,
    /// Enables the host-side frontend fast path: the per-opcode PT match
    /// index and the PC-indexed expansion cache (see
    /// [`DiseEngine::inspect_at`]). Purely a simulation-speed knob —
    /// architectural results and every [`EngineStats`] counter are
    /// bit-identical either way: cache entries are architectural and
    /// cleared only by production installs, and every hit re-checks the
    /// pattern counters and replays the RT reference the slow path makes,
    /// falling through to the slow path when the sequence was evicted.
    /// Off reproduces the original linear-scan decode path; the
    /// `--shadow` oracle runs it.
    pub fast_path: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            pt_entries: 32,
            rt_entries: 2048,
            rt_org: RtOrganization::SetAssociative(2),
            rt_block: 1,
            miss_penalty: 30,
            compose_penalty: 150,
            fast_path: true,
        }
    }
}

impl EngineConfig {
    /// A perfect (infinite, zero-miss-cost after first touch) RT, used by
    /// Figure 7 middle / Figure 8 top.
    pub fn perfect_rt(mut self) -> EngineConfig {
        self.rt_org = RtOrganization::Perfect;
        self
    }

    /// Disables the frontend fast path (see [`EngineConfig::fast_path`]).
    pub fn slow_path(mut self) -> EngineConfig {
        self.fast_path = false;
        self
    }
}

/// Outcome of inspecting one fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expansion {
    /// No pattern matches: the instruction passes through unmodified.
    None,
    /// The instruction is a trigger; it expands to sequence `id` of length
    /// `len`.
    Expand {
        /// Replacement-sequence identifier.
        id: ReplacementId,
        /// Sequence length in instructions.
        len: u8,
    },
    /// A PT or RT miss occurred. The engine has already performed the fill
    /// (re-inspecting now hits); the processor must flush and stall for
    /// `penalty` cycles (§2.3: "the pipeline is flushed and the missing
    /// productions are loaded procedurally").
    Miss {
        /// Whether this was a PT or an RT miss.
        kind: crate::controller::MissKind,
        /// Stall cycles to charge.
        penalty: u64,
    },
    /// A codeword named a tag with no installed sequence; executing it is a
    /// program error.
    Fault {
        /// The unresolvable identifier.
        id: ReplacementId,
    },
}

/// Counters the engine accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions inspected.
    pub inspected: u64,
    /// Instructions that triggered an expansion.
    pub expansions: u64,
    /// Replacement instructions produced.
    pub replacement_insts: u64,
    /// PT misses.
    pub pt_misses: u64,
    /// RT misses.
    pub rt_misses: u64,
    /// RT fills that required on-the-fly composition.
    pub composed_fills: u64,
    /// Total stall cycles charged for misses.
    pub stall_cycles: u64,
}

impl EngineStats {
    /// The counters under their registry names (without the `engine.`
    /// prefix the simulator's stats registry adds). `pt_probes` is an
    /// alias of `inspected`: every inspected instruction probes the PT
    /// index exactly once, on the cached fast path and the plain path
    /// alike.
    pub fn named_counters(&self) -> [(&'static str, u64); 8] {
        [
            ("composed_fills", self.composed_fills),
            ("expansions", self.expansions),
            ("inspected", self.inspected),
            ("pt_misses", self.pt_misses),
            ("pt_probes", self.inspected),
            ("replacement_insts", self.replacement_insts),
            ("rt_misses", self.rt_misses),
            ("stall_cycles", self.stall_cycles),
        ]
    }
}

/// One RT entry's payload: a block of up to `rt_block` consecutive
/// replacement instruction specs (plus the sequence length the fetch
/// interface reports).
#[derive(Debug, Clone, Default)]
struct RtSeq {
    seq_len: u8,
    specs: Vec<InstSpec>,
}

/// RT storage: a set-indexed cache or a perfect map. Keys are
/// `(id, base DISEPC)` at block granularity.
///
/// The cache keeps keys and payloads in two flat parallel arrays
/// (`assoc` slots per set, MRU-first, compact) instead of a
/// vec-of-vecs: an RT reference happens for every replacement µop the
/// simulator executes, and the flat layout turns it into one
/// predictable cache-line load and a couple of ALU ops instead of two
/// dependent pointer chases through scattered per-set allocations.
#[derive(Debug)]
enum RtStore {
    Cache {
        /// Packed keys, `assoc` slots per set (a slot is empty iff it
        /// is 0 — live keys have a nonzero spec count in the low byte).
        /// Layout: `id << 16 | base << 8 | spec_count`; both the tag
        /// match and the `off < specs.len()` residency check are
        /// mask-and-compares on the one word.
        keys: Vec<u64>,
        /// Payloads, parallel to `keys`.
        seqs: Vec<RtSeq>,
        /// LRU stamps, parallel to `keys`: every reference that the
        /// move-to-MRU formulation would rotate instead records the
        /// tick it happened at, and the fill victim is the minimum
        /// stamp in the set. Relative stamp order within a set is
        /// exactly list order, so hit/miss behavior is bit-identical —
        /// but a touch is one store instead of a memmove, and entries
        /// never move between slots.
        stamps: Vec<u64>,
        /// Monotonic reference tick feeding `stamps`.
        clock: u64,
        num_sets: usize,
        assoc: usize,
        block: usize,
    },
    Perfect {
        /// Fx-hashed: `touch` probes it on every replacement µop of a
        /// perfect-RT run, and its keys are small and trusted.
        map: FxHashMap<(ReplacementId, u8), RtSeq>,
        block: usize,
    },
}

/// The key-word tag (everything above the spec-count byte).
#[inline]
fn rt_tag(id: ReplacementId, base: u8) -> u64 {
    (id as u64) << 16 | (base as u64) << 8
}

impl RtStore {
    fn new(config: &EngineConfig) -> RtStore {
        let block = config.rt_block.max(1) as usize;
        let cache = |num_sets: usize, assoc: usize| RtStore::Cache {
            keys: vec![0; num_sets * assoc],
            seqs: vec![RtSeq::default(); num_sets * assoc],
            stamps: vec![0; num_sets * assoc],
            clock: 0,
            num_sets,
            assoc,
            block,
        };
        match config.rt_org {
            RtOrganization::Perfect => RtStore::Perfect {
                map: FxHashMap::default(),
                block,
            },
            RtOrganization::DirectMapped => cache((config.rt_entries / block).max(1), 1),
            RtOrganization::SetAssociative(n) => {
                let n = n.max(1) as usize;
                cache((config.rt_entries / (n * block)).max(1), n)
            }
        }
    }

    fn block(&self) -> usize {
        match self {
            RtStore::Cache { block, .. } | RtStore::Perfect { block, .. } => *block,
        }
    }

    fn base_of(&self, disepc: u8) -> u8 {
        let block = self.block() as u8;
        // `block` is a runtime value, so the compiler cannot remove the
        // division — and the ubiquitous 1-spec-per-entry geometry would
        // pay it on every RT reference.
        if block == 1 {
            disepc
        } else {
            disepc - disepc % block
        }
    }

    fn set_index(num_sets: usize, id: ReplacementId, base: u8) -> usize {
        let h = (id as usize).wrapping_mul(37).wrapping_add(base as usize);
        // `num_sets` is a runtime value, so the compiler cannot strength-
        // reduce the modulo on its own — and every RT reference on the
        // simulator's hot path lands here. Power-of-two set counts (the
        // paper's geometries all are) take the mask; the remainder is
        // identical either way.
        if num_sets.is_power_of_two() {
            h & (num_sets - 1)
        } else {
            h % num_sets
        }
    }

    /// Re-references `(id, disepc)` with exactly the LRU effect of
    /// [`RtStore::get`], without touching the spec. Returns whether the
    /// entry is resident.
    #[inline]
    fn touch(&mut self, id: ReplacementId, disepc: u8) -> bool {
        let base = self.base_of(disepc);
        let off = (disepc - base) as u64;
        match self {
            RtStore::Perfect { map, .. } => map
                .get(&(id, base))
                .is_some_and(|e| (off as usize) < e.specs.len()),
            RtStore::Cache {
                keys,
                stamps,
                clock,
                num_sets,
                assoc,
                ..
            } => {
                let s = Self::set_index(*num_sets, id, base) * *assoc;
                let tag = rt_tag(id, base);
                for i in s..s + *assoc {
                    let k = keys[i];
                    if k & !0xFF == tag && k & 0xFF > off {
                        *clock += 1;
                        stamps[i] = *clock;
                        return true;
                    }
                }
                false
            }
        }
    }

    /// The spec at `disepc`, if its block is resident. Updates LRU state.
    fn get(&mut self, id: ReplacementId, disepc: u8) -> Option<(&InstSpec, u8)> {
        let base = self.base_of(disepc);
        let off = (disepc - base) as usize;
        match self {
            RtStore::Perfect { map, .. } => {
                let e = map.get(&(id, base))?;
                Some((e.specs.get(off)?, e.seq_len))
            }
            RtStore::Cache {
                keys,
                seqs,
                stamps,
                clock,
                num_sets,
                assoc,
                ..
            } => {
                let s = Self::set_index(*num_sets, id, base) * *assoc;
                let tag = rt_tag(id, base);
                // Tag match only — a resident block refreshes its LRU
                // stamp even when `off` overshoots its specs, exactly as
                // the move-to-MRU formulation behaved. The low-byte check
                // keeps `id 0, base 0` (tag 0) from matching empty
                // slots: live keys always carry a nonzero spec count.
                let i = (s..s + *assoc)
                    .find(|&i| keys[i] & !0xFF == tag && keys[i] & 0xFF != 0)?;
                *clock += 1;
                stamps[i] = *clock;
                let e = &seqs[i];
                Some((e.specs.get(off)?, e.seq_len))
            }
        }
    }

    fn contains(&self, id: ReplacementId, disepc: u8) -> bool {
        let base = self.base_of(disepc);
        let off = (disepc - base) as u64;
        match self {
            RtStore::Perfect { map, .. } => map
                .get(&(id, base))
                .is_some_and(|e| (off as usize) < e.specs.len()),
            RtStore::Cache {
                keys,
                num_sets,
                assoc,
                ..
            } => {
                let s = Self::set_index(*num_sets, id, base) * *assoc;
                let tag = rt_tag(id, base);
                keys[s..s + *assoc]
                    .iter()
                    .any(|&k| k & !0xFF == tag && k & 0xFF > off)
            }
        }
    }

    fn invalidate(&mut self, id: ReplacementId) {
        match self {
            RtStore::Perfect { map, .. } => map.retain(|(eid, _), _| *eid != id),
            RtStore::Cache {
                keys, seqs, stamps, ..
            } => {
                for i in 0..keys.len() {
                    if keys[i] != 0 && (keys[i] >> 16) as ReplacementId == id {
                        keys[i] = 0;
                        seqs[i] = RtSeq::default();
                        stamps[i] = 0;
                    }
                }
            }
        }
    }

    /// Inserts a whole sequence, one block entry per `block` specs. Each
    /// chunk is copied straight into its slot's payload, reusing the
    /// evicted entry's allocation.
    fn insert_sequence(&mut self, id: ReplacementId, seq_len: u8, specs: &[InstSpec]) {
        let block = self.block();
        for (chunk_ix, chunk) in specs.chunks(block).enumerate() {
            let base = (chunk_ix * block) as u8;
            let seq = match self {
                RtStore::Perfect { map, .. } => map.entry((id, base)).or_default(),
                RtStore::Cache {
                    keys,
                    seqs,
                    stamps,
                    clock,
                    num_sets,
                    assoc,
                    ..
                } => {
                    let s = Self::set_index(*num_sets, id, base) * *assoc;
                    let tag = rt_tag(id, base);
                    // Slot choice, in the order the list formulation
                    // implied: the same tag if present (replace), else
                    // any free slot, else the LRU victim (minimum
                    // stamp). The new entry lands at MRU via a fresh
                    // stamp.
                    let i = (s..s + *assoc)
                        .find(|&i| keys[i] & !0xFF == tag && keys[i] & 0xFF != 0)
                        .or_else(|| (s..s + *assoc).find(|&i| keys[i] == 0))
                        .unwrap_or_else(|| {
                            (s..s + *assoc)
                                .min_by_key(|&i| stamps[i])
                                .expect("assoc >= 1")
                        });
                    keys[i] = tag | chunk.len() as u64;
                    *clock += 1;
                    stamps[i] = *clock;
                    &mut seqs[i]
                }
            };
            seq.seq_len = seq_len;
            seq.specs.clear();
            seq.specs.extend_from_slice(chunk);
        }
    }
}

/// `ExpCache::slots` tag: nothing cached for this PC yet.
const SLOT_UNKNOWN: u32 = 0;
/// `ExpCache::slots` tag: the instruction at this PC passes through.
const SLOT_PASS: u32 = 1;
/// `ExpCache::slots` tags from here up name entry `tag - SLOT_ENTRY`.
const SLOT_ENTRY: u32 = 2;

/// The PC-indexed expansion cache: what the instruction at each text PC
/// expands to, and each replacement µop instantiated for it.
///
/// Dense over the text segment with one slot per predecode slot (even
/// byte offsets), bound by [`DiseEngine::bind_text`] and filled lazily
/// from the live path on first execution at a PC. Every entry is
/// architectural: the instruction at a text PC never changes, an
/// inspect outcome (`None`, or `Expand { id, len }`) is a pure function
/// of that instruction and the production set once every rule covering
/// its opcode is PT-resident, and an instantiation is a pure function of
/// the spec, the trigger and its PC. Residency is never cached: a hit
/// re-checks the pattern counters and replays the RT reference, so only
/// production installs clear the cache (see [`DiseEngine::inspect_at`]).
#[derive(Debug, Default)]
struct ExpCache {
    /// Text base the slots index from: slot `(pc - base) / 2`.
    base: u64,
    /// One tag per slot: [`SLOT_UNKNOWN`], [`SLOT_PASS`], or
    /// `SLOT_ENTRY + i` for `entries[i]`.
    slots: Vec<u32>,
    /// `(id, len, start)`: the sequence a trigger PC expands to, and
    /// where its `len` µops start in `uops`.
    entries: Vec<(ReplacementId, u8, u32)>,
    /// Instantiated µops, `len` per entry; `None` until first fetched.
    uops: Vec<Option<Inst>>,
    /// Inspections and fetches served from the cache (diagnostics only;
    /// not an [`EngineStats`] counter).
    hits: u64,
}

impl ExpCache {
    /// The slot for `pc`, if it is an even offset inside the bound text.
    #[inline]
    fn slot(&self, pc: u64) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        let ix = (off >> 1) as usize;
        (off & 1 == 0 && ix < self.slots.len()).then_some(ix)
    }

    /// The `uops` index of `(id, disepc)` for the trigger at `pc`, if the
    /// cache holds an expansion of `id` there.
    #[inline]
    fn uop(&self, pc: u64, id: ReplacementId, disepc: u8) -> Option<usize> {
        let tag = self.slots[self.slot(pc)?];
        let &(eid, len, start) = self.entries.get(tag.checked_sub(SLOT_ENTRY)? as usize)?;
        (eid == id && disepc < len).then_some(start as usize + disepc as usize)
    }

    /// Drops every entry, keeping the binding.
    fn clear(&mut self) {
        self.slots.fill(SLOT_UNKNOWN);
        self.entries.clear();
        self.uops.clear();
    }
}

/// The static per-opcode match index over `rules`: entry `n` holds the
/// indices (ascending) of the rules whose patterns cover opcode number `n`.
fn build_op_rules(rules: &[Production]) -> Vec<Vec<usize>> {
    let mut table = vec![Vec::new(); 64];
    for (i, rule) in rules.iter().enumerate() {
        for op in rule.pattern.opcodes() {
            table[op.number() as usize].push(i);
        }
    }
    table
}

/// The DISE engine: PT + RT + pattern-counter table + instantiation logic,
/// fed by a [`Controller`] that owns the architectural production set.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct DiseEngine {
    config: EngineConfig,
    controller: Controller,
    /// Indices (into the controller's rule list) of PT-resident rules,
    /// most recently filled first: fills insert at the front and evict
    /// from the back. Hits do not reorder the list.
    pt_resident: Vec<usize>,
    /// Pattern-counter table: per opcode number, (active, resident).
    counters: [(u16, u16); 64],
    /// Static fast-path match index: per opcode number, the indices of
    /// *all* rules whose patterns cover that opcode (not just resident
    /// ones), in rule order. Only consulted when the pattern counters show
    /// every covering rule resident (`active == resident`), which is the
    /// only state in which `inspect` matches; a residency-tracked index
    /// would filter nothing more. Depends only on the production set, so
    /// runtime installs rebuild it.
    op_rules: Vec<Vec<usize>>,
    /// The PC-indexed expansion cache (fast path only; empty until
    /// [`DiseEngine::bind_text`]).
    cache: ExpCache,
    rt: RtStore,
    stats: EngineStats,
}

impl DiseEngine {
    /// Creates an engine with an empty production set.
    pub fn new(config: EngineConfig) -> DiseEngine {
        DiseEngine::with_controller(config, Controller::new(ProductionSet::new()))
    }

    /// Creates an engine over `productions`.
    ///
    /// # Errors
    ///
    /// Fails if any installed sequence is structurally invalid.
    pub fn with_productions(
        config: EngineConfig,
        productions: ProductionSet,
    ) -> Result<DiseEngine> {
        for (_, spec) in productions.seqs() {
            spec.validate()?;
        }
        Ok(DiseEngine::with_controller(
            config,
            Controller::new(productions),
        ))
    }

    /// Creates an engine with an explicit controller (needed for
    /// compose-on-miss configurations, Figure 8).
    pub fn with_controller(config: EngineConfig, controller: Controller) -> DiseEngine {
        let mut counters = [(0u16, 0u16); 64];
        for rule in controller.productions().rules() {
            for op in rule.pattern.opcodes() {
                counters[op.number() as usize].0 += 1;
            }
        }
        let op_rules = build_op_rules(controller.productions().rules());
        DiseEngine {
            rt: RtStore::new(&config),
            config,
            controller,
            pt_resident: Vec::new(),
            counters,
            op_rules,
            cache: ExpCache::default(),
            stats: EngineStats::default(),
        }
    }

    /// Binds the PC-indexed expansion cache to a text segment of `slots`
    /// two-byte slots starting at `text_base` (a predecode table's
    /// geometry), dropping anything cached before. The PC-keyed entry
    /// points ([`DiseEngine::inspect_at`],
    /// [`DiseEngine::fetch_replacement_at`]) serve even PCs inside that
    /// range from the cache; every other PC, and every PC of a slow-path
    /// engine (which stays unbound), takes the live path.
    pub fn bind_text(&mut self, text_base: u64, slots: usize) {
        let slots = if self.config.fast_path { slots } else { 0 };
        self.cache = ExpCache {
            base: text_base,
            slots: vec![SLOT_UNKNOWN; slots],
            ..ExpCache::default()
        };
    }

    /// Inspections and replacement fetches served from the PC-indexed
    /// expansion cache so far. A diagnostic for tests and benchmarks that
    /// must prove the cache engaged; it is not an [`EngineStats`]
    /// counter, so exported statistics do not depend on it.
    pub fn expansion_cache_hits(&self) -> u64 {
        self.cache.hits
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Accumulated miss-stall cycles (hot-path accessor: avoids copying
    /// the whole [`EngineStats`] when only the stall delta is needed).
    #[inline]
    pub fn stall_cycles(&self) -> u64 {
        self.stats.stall_cycles
    }

    /// Resets statistics (not table contents).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// The controller (and through it the architectural production set).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Inspects one fetched instruction (every fetched instruction passes
    /// through here, §2). Performs PT/RT fills as needed and reports the
    /// outcome; on [`Expansion::Miss`] the caller should charge the stall
    /// and then re-inspect the same instruction, which will then hit.
    pub fn inspect(&mut self, inst: &Inst) -> Expansion {
        self.stats.inspected += 1;
        let opn = inst.op.number() as usize;
        let (active, resident) = self.counters[opn];
        if active != resident {
            // PT miss: fault in all patterns for this opcode (§2.3).
            let penalty = self.fill_pt(inst.op);
            self.stats.pt_misses += 1;
            self.stats.stall_cycles += penalty;
            return Expansion::Miss {
                kind: crate::controller::MissKind::Pt,
                penalty,
            };
        }
        if active == 0 {
            return Expansion::None;
        }
        // Fully-associative match over resident patterns, most specific
        // wins. The fast path consults the static per-opcode index
        // instead of scanning the whole PT: reaching this point requires
        // `active == resident` for the opcode, i.e. every rule covering
        // it is resident, so the index's rule set equals the resident
        // covering set; a pattern can only match instructions whose
        // opcode it covers, and the winning key is unique (it includes
        // the rule index), so both scans pick the same rule.
        let rules = self.controller.productions().rules();
        let candidates: &[usize] = if self.config.fast_path {
            &self.op_rules[opn]
        } else {
            &self.pt_resident
        };
        let best = candidates
            .iter()
            .map(|i| (*i, &rules[*i]))
            .filter(|(_, r)| r.pattern.matches(inst))
            .max_by_key(|(i, r)| (r.priority, r.pattern.specificity(), usize::MAX - *i));
        let Some((_, rule)) = best else {
            return Expansion::None;
        };
        let id = match rule.seq {
            crate::production::SeqRef::Fixed(id) => id,
            crate::production::SeqRef::FromTag { base } => {
                base + inst.codeword_tag() as u32
            }
        };
        // RT presence check for the first instruction of the sequence.
        if !self.rt.contains(id, 0) {
            match self.fill_rt(id) {
                Ok(penalty) => {
                    self.stats.rt_misses += 1;
                    self.stats.stall_cycles += penalty;
                    return Expansion::Miss {
                        kind: crate::controller::MissKind::Rt,
                        penalty,
                    };
                }
                Err(_) => return Expansion::Fault { id },
            }
        }
        let len = self
            .rt
            .get(id, 0)
            .map(|(_, seq_len)| seq_len)
            .expect("checked resident");
        self.stats.expansions += 1;
        self.stats.replacement_insts += len as u64;
        Expansion::Expand { id, len }
    }

    /// [`DiseEngine::inspect`] for the instruction at text address `pc`
    /// (`inst` must be the instruction the bound text holds there). Once
    /// the live path has inspected a PC, its `None` or `Expand` outcome
    /// is served from the expansion cache: the pattern match and RT
    /// length lookup are skipped, but the hit replays what the live path
    /// would do — it requires `active == resident` for the opcode, adds
    /// the same stats deltas, and repeats the RT's LRU reference — so
    /// [`EngineStats`] and future miss behavior are bit-identical to the
    /// slow path.
    ///
    /// The counter gate is what makes an outcome cacheable across PT
    /// fills, evictions and context switches: with every rule covering
    /// the opcode resident, the match is the architectural one. A hit
    /// whose sequence has left the RT falls through to the live path,
    /// which models the miss and the refill.
    pub fn inspect_at(&mut self, inst: &Inst, pc: u64) -> Expansion {
        let (active, resident) = self.counters[inst.op.number() as usize];
        // Opcodes no pattern covers (`resident <= active`, so both are 0)
        // resolve from the counters alone — literally the same early
        // exit `inspect` takes, and cheaper than a cache probe.
        if active == 0 {
            self.stats.inspected += 1;
            return Expansion::None;
        }
        let Some(slot) = self.cache.slot(pc) else {
            return self.inspect(inst);
        };
        if active == resident {
            match self.cache.slots[slot] {
                SLOT_UNKNOWN => {}
                SLOT_PASS => {
                    self.stats.inspected += 1;
                    self.cache.hits += 1;
                    return Expansion::None;
                }
                tag => {
                    let (id, len, _) = self.cache.entries[(tag - SLOT_ENTRY) as usize];
                    // The live path would call `rt.get(id, 0)` here.
                    if self.rt.touch(id, 0) {
                        self.stats.inspected += 1;
                        self.stats.expansions += 1;
                        self.stats.replacement_insts += len as u64;
                        self.cache.hits += 1;
                        return Expansion::Expand { id, len };
                    }
                }
            }
        }
        let outcome = self.inspect(inst);
        let cache = &mut self.cache;
        match outcome {
            Expansion::None => cache.slots[slot] = SLOT_PASS,
            Expansion::Expand { id, len } if cache.slots[slot] == SLOT_UNKNOWN => {
                cache.slots[slot] = SLOT_ENTRY + cache.entries.len() as u32;
                cache.entries.push((id, len, cache.uops.len() as u32));
                cache.uops.resize(cache.uops.len() + len as usize, None);
            }
            _ => {}
        }
        outcome
    }

    /// Architectural (miss-free) inspection: what would this instruction
    /// expand to, ignoring table state? Used by functional-only execution
    /// and by tests.
    pub fn inspect_architectural(&self, inst: &Inst) -> Option<ReplacementId> {
        self.controller.productions().lookup(inst)
    }

    /// Produces the replacement instruction at `disepc` of sequence `id`,
    /// instantiated against the trigger. If the entry was evicted between
    /// inspection and fetch (possible mid-sequence), it is transparently
    /// refetched through the controller and the miss is accounted.
    ///
    /// # Errors
    ///
    /// Fails if `id` has no installed sequence or `disepc` is out of range.
    pub fn fetch_replacement(
        &mut self,
        id: ReplacementId,
        disepc: u8,
        trigger: &Inst,
        trigger_pc: u64,
    ) -> Result<Inst> {
        if !self.rt.contains(id, disepc) {
            let penalty = self.fill_rt(id)?;
            self.stats.rt_misses += 1;
            self.stats.stall_cycles += penalty;
        }
        let (spec, _) = self
            .rt
            .get(id, disepc)
            .ok_or(CoreError::UnknownSequence(id))?;
        spec.instantiate(trigger, trigger_pc)
    }

    /// [`DiseEngine::fetch_replacement`] for a trigger at text address
    /// `trigger_pc`. Once the live path has instantiated `(id, disepc)`
    /// for a trigger PC the expansion cache holds, later fetches return
    /// the cached µop: the spec lookup and template evaluation are
    /// skipped, but the RT reference is replayed (`touch` stands for the
    /// live `contains` + `get` pair), and a µop whose sequence has left
    /// the RT takes the live path, which models the miss.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DiseEngine::fetch_replacement`].
    pub fn fetch_replacement_at(
        &mut self,
        id: ReplacementId,
        disepc: u8,
        trigger: &Inst,
        trigger_pc: u64,
    ) -> Result<Inst> {
        let Some(uop) = self.cache.uop(trigger_pc, id, disepc) else {
            return self.fetch_replacement(id, disepc, trigger, trigger_pc);
        };
        if let Some(inst) = self.cache.uops[uop] {
            if self.rt.touch(id, disepc) {
                self.cache.hits += 1;
                return Ok(inst);
            }
        }
        let inst = self.fetch_replacement(id, disepc, trigger, trigger_pc)?;
        self.cache.uops[uop] = Some(inst);
        Ok(inst)
    }

    /// Length of sequence `id`, if installed.
    pub fn seq_len(&self, id: ReplacementId) -> Option<u8> {
        self.controller
            .resolve_spec(id)
            .ok()
            .map(|(s, _)| s.len() as u8)
    }

    /// Installs a transparent production at run time — the user-level
    /// face of the controller API (§2.3). The pattern-counter table's
    /// active counts are updated, so the new pattern is faulted into the
    /// PT (with the usual miss penalty) the next time a covered opcode is
    /// fetched.
    ///
    /// # Errors
    ///
    /// Fails if the replacement sequence is structurally invalid.
    pub fn install_transparent(
        &mut self,
        pattern: crate::pattern::Pattern,
        spec: crate::spec::ReplacementSpec,
    ) -> Result<ReplacementId> {
        let id = self
            .controller
            .productions_mut()
            .add_transparent(pattern, spec)?;
        for op in pattern.opcodes() {
            self.counters[op.number() as usize].0 += 1;
        }
        // Cached `None` outcomes may now expand.
        self.op_rules = build_op_rules(self.controller.productions().rules());
        self.cache.clear();
        Ok(id)
    }

    /// Installs (or replaces) an aware replacement sequence under
    /// `(cw_op, tag)` at run time. Stale RT entries for the sequence are
    /// invalidated; if this is the first sequence for `cw_op`, the aware
    /// rule is activated in the pattern-counter table.
    ///
    /// # Errors
    ///
    /// Fails if the spec is invalid or the tag exceeds 11 bits.
    pub fn install_aware(
        &mut self,
        cw_op: Op,
        tag: u16,
        spec: crate::spec::ReplacementSpec,
    ) -> Result<ReplacementId> {
        let had_rule = self
            .controller
            .productions()
            .rules_for_opcode(cw_op)
            .iter()
            .any(|r| matches!(r.seq, crate::production::SeqRef::FromTag { .. }));
        let id = self.controller.productions_mut().add_aware(cw_op, tag, spec)?;
        if !had_rule {
            self.counters[cw_op.number() as usize].0 += 1;
        }
        self.rt.invalidate(id);
        // Cached expansions and instantiations of `id` are stale: the
        // sequence itself changed.
        self.op_rules = build_op_rules(self.controller.productions().rules());
        self.cache.clear();
        Ok(id)
    }

    /// Simulates a context switch (§2.3): the PT and RT contents are
    /// discarded — they are physical caches and will be faulted back in on
    /// demand — while the architectural production set (the virtualized
    /// state the OS saves and restores) is preserved. Purely a performance
    /// event; results never change.
    pub fn context_switch(&mut self) {
        // The expansion cache stays: the pattern counters gate every hit
        // and every hit re-checks the RT, so the cold tables fault in
        // through the live path exactly as on the slow path.
        self.pt_resident.clear();
        for c in &mut self.counters {
            c.1 = 0;
        }
        self.rt = RtStore::new(&self.config);
    }

    fn fill_pt(&mut self, op: Op) -> u64 {
        // `op_rules[op]` lists exactly the rules covering `op`, in rule
        // order — the same ascending order the old full-list scan
        // produced, which matters because insertion order decides PT LRU
        // state and therefore future evictions.
        let missing: Vec<usize> = self.op_rules[op.number() as usize]
            .iter()
            .copied()
            .filter(|i| !self.pt_resident.contains(i))
            .collect();
        let rules = self.controller.productions().rules();
        for idx in missing {
            // Evict LRU (back of the list) if full.
            while self.pt_resident.len() >= self.config.pt_entries {
                let evicted = self.pt_resident.pop().expect("non-empty");
                for o in rules[evicted].pattern.opcodes() {
                    self.counters[o.number() as usize].1 -= 1;
                }
            }
            self.pt_resident.insert(0, idx);
            for o in rules[idx].pattern.opcodes() {
                self.counters[o.number() as usize].1 += 1;
            }
        }
        self.config.miss_penalty
    }

    /// Fills the RT with every instruction of sequence `id`; returns the
    /// stall penalty (150 cycles if the fill required composition).
    fn fill_rt(&mut self, id: ReplacementId) -> Result<u64> {
        let (spec, composed) = self.controller.resolve_spec(id)?;
        self.rt.insert_sequence(id, spec.len() as u8, &spec.insts);
        // The insert may evict another sequence the expansion cache
        // holds; its hits re-verify residency through `rt.touch`.
        if composed {
            self.stats.composed_fills += 1;
            Ok(self.config.compose_penalty)
        } else {
            Ok(self.config.miss_penalty)
        }
    }

    /// Extracts the engine's *mutable* state for checkpointing: PT
    /// residency, RT keys/LRU state, and statistics. Replacement-sequence
    /// payloads are deliberately **not** exported — they are a pure
    /// function of the (immutable, fingerprint-identified) production
    /// set and are re-derived on [`DiseEngine::import_state`]. The
    /// expansion cache is likewise excluded: it holds only architectural
    /// facts, and every hit re-verifies residency.
    pub fn export_state(&self) -> EngineState {
        let rt = match &self.rt {
            RtStore::Cache { keys, stamps, .. } => {
                // Canonical LRU form. The victim choice is the minimum
                // stamp among a set's occupied slots, so only the
                // *relative order* of stamps is observable. Densely
                // re-ranking the stamps makes behaviorally identical
                // engines export identical state whatever their raw
                // tick values.
                let mut order: Vec<usize> =
                    (0..stamps.len()).filter(|&i| keys[i] != 0).collect();
                order.sort_unstable_by_key(|&i| stamps[i]);
                let mut ranked = vec![0u64; stamps.len()];
                for (rank, &i) in order.iter().enumerate() {
                    ranked[i] = rank as u64 + 1;
                }
                RtState::Cache {
                    keys: keys.clone(),
                    stamps: ranked,
                    clock: order.len() as u64,
                }
            }
            RtStore::Perfect { map, .. } => {
                let mut resident: Vec<(ReplacementId, u8)> = map.keys().copied().collect();
                resident.sort_unstable();
                RtState::Perfect { resident }
            }
        };
        EngineState {
            pt_resident: self.pt_resident.clone(),
            rt,
            stats: self.stats,
        }
    }

    /// Reinjects state captured by [`DiseEngine::export_state`] into an
    /// engine freshly constructed over the *same* configuration and
    /// production set (callers validate both via content fingerprints
    /// before getting here; the checks below catch corrupt snapshots with
    /// actionable errors rather than undefined replay).
    ///
    /// Restored RT payloads come from [`Controller::resolve_spec`] — the
    /// exact source RT fills use — chunked at the original block bases,
    /// with keys replayed verbatim and LRU stamps in the canonical rank
    /// form [`DiseEngine::export_state`] produces. Victim choice only
    /// compares stamps, so every future hit/miss/victim decision is
    /// bit-identical to the uninterrupted engine. The expansion cache is
    /// kept: its entries do not depend on PT/RT contents or statistics.
    ///
    /// # Errors
    ///
    /// [`CoreError::Restore`] when the state names a rule index, RT
    /// geometry, or sequence shape the current engine cannot hold.
    pub fn import_state(&mut self, state: &EngineState) -> Result<()> {
        let rules_len = self.controller.productions().rules().len();
        if state.pt_resident.len() > self.config.pt_entries {
            return Err(CoreError::Restore(format!(
                "snapshot holds {} PT-resident rules but the engine has {} PT entries",
                state.pt_resident.len(),
                self.config.pt_entries
            )));
        }
        for (n, &idx) in state.pt_resident.iter().enumerate() {
            if idx >= rules_len {
                return Err(CoreError::Restore(format!(
                    "PT-resident rule index {idx} out of range ({rules_len} rules installed)"
                )));
            }
            if state.pt_resident[..n].contains(&idx) {
                return Err(CoreError::Restore(format!(
                    "PT-resident rule index {idx} appears twice"
                )));
            }
        }

        let mut rt = RtStore::new(&self.config);
        let block = rt.block();
        // Payload re-derivation: decode each live key, resolve its
        // sequence through the controller, and slice the original block.
        let chunk = |id: ReplacementId, base: u8, count: usize| -> Result<RtSeq> {
            let (spec, _) = self.controller.resolve_spec(id).map_err(|e| {
                CoreError::Restore(format!(
                    "RT-resident sequence R{id} no longer resolves: {e}"
                ))
            })?;
            let b = base as usize;
            let specs = spec.insts.get(b..b + count).ok_or_else(|| {
                CoreError::Restore(format!(
                    "RT entry for R{id} base {base} count {count} exceeds the resolved \
                     sequence length {}",
                    spec.len()
                ))
            })?;
            Ok(RtSeq {
                seq_len: spec.len() as u8,
                specs: specs.to_vec(),
            })
        };
        match (&mut rt, &state.rt) {
            (
                RtStore::Cache {
                    keys,
                    seqs,
                    stamps,
                    clock,
                    ..
                },
                RtState::Cache {
                    keys: skeys,
                    stamps: sstamps,
                    clock: sclock,
                },
            ) => {
                if skeys.len() != keys.len() || sstamps.len() != skeys.len() {
                    return Err(CoreError::Restore(format!(
                        "RT geometry mismatch: snapshot has {} slots, engine config \
                         allocates {}",
                        skeys.len(),
                        keys.len()
                    )));
                }
                for (i, &k) in skeys.iter().enumerate() {
                    if k == 0 {
                        continue;
                    }
                    let id = (k >> 16) as ReplacementId;
                    let base = ((k >> 8) & 0xFF) as u8;
                    seqs[i] = chunk(id, base, (k & 0xFF) as usize)?;
                    keys[i] = k;
                }
                stamps.copy_from_slice(sstamps);
                *clock = *sclock;
            }
            (RtStore::Perfect { map, .. }, RtState::Perfect { resident }) => {
                for &(id, base) in resident {
                    let b = base as usize;
                    if !b.is_multiple_of(block) {
                        return Err(CoreError::Restore(format!(
                            "perfect-RT key R{id} base {base} is not aligned to the \
                             {block}-spec block size"
                        )));
                    }
                    let (spec, _) = self.controller.resolve_spec(id).map_err(|e| {
                        CoreError::Restore(format!(
                            "RT-resident sequence R{id} no longer resolves: {e}"
                        ))
                    })?;
                    let len = spec.len();
                    if b >= len {
                        return Err(CoreError::Restore(format!(
                            "perfect-RT key R{id} base {base} exceeds the resolved \
                             sequence length {len}"
                        )));
                    }
                    let end = (b + block).min(len);
                    map.insert(
                        (id, base),
                        RtSeq {
                            seq_len: len as u8,
                            specs: spec.insts[b..end].to_vec(),
                        },
                    );
                }
            }
            (_, _) => {
                return Err(CoreError::Restore(format!(
                    "snapshot RT organization does not match the engine's {:?}",
                    self.config.rt_org
                )));
            }
        }

        self.pt_resident = state.pt_resident.clone();
        let rules = self.controller.productions().rules();
        for c in &mut self.counters {
            c.1 = 0;
        }
        for &idx in &self.pt_resident {
            for o in rules[idx].pattern.opcodes() {
                self.counters[o.number() as usize].1 += 1;
            }
        }
        self.rt = rt;
        self.stats = state.stats;
        Ok(())
    }
}

/// Serializable mutable RT contents (see [`EngineState`]). Payloads are
/// never part of the state — only placement (which keys live in which
/// slots) and LRU history, which together determine all future RT
/// behavior once payloads are re-derived from the production set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtState {
    /// Finite organizations: the full packed-key and LRU-stamp arrays
    /// (dead slots included, so slot placement survives) plus the
    /// reference clock.
    Cache {
        /// Packed `(id, base, spec-count)` key words, `0` = empty slot.
        keys: Vec<u64>,
        /// LRU stamps, parallel to `keys`, in canonical form: occupied
        /// slots hold their dense recency rank (`1` = LRU-most across
        /// the whole table) and empty slots hold `0`. Only the relative
        /// order is ever observed (the fill victim is a set's minimum
        /// stamp), so ranks replay the exact live behavior.
        stamps: Vec<u64>,
        /// Reference tick feeding post-restore stamps: the number of
        /// ranked (occupied) slots in canonical form.
        clock: u64,
    },
    /// Perfect RT: the resident block keys, sorted (it has no LRU state).
    Perfect {
        /// Resident `(id, base DISEPC)` block keys.
        resident: Vec<(ReplacementId, u8)>,
    },
}

/// The engine's mutable state, as extracted by
/// [`DiseEngine::export_state`]: everything snapshot/restore must carry
/// beyond the (immutable, separately fingerprinted) production set and
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineState {
    /// Indices of PT-resident rules, MRU-first — exactly the engine's
    /// working list, so fill/evict order replays identically. Resident
    /// pattern counters are recomputed from this on import.
    pub pt_resident: Vec<usize>,
    /// RT placement and LRU state.
    pub rt: RtState,
    /// Accumulated statistics.
    pub stats: EngineStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MissKind;
    use crate::pattern::Pattern;
    use crate::spec::{ImmDirective, OpDirective, RegDirective, ReplacementSpec};
    use dise_isa::{OpClass, Reg};

    fn i(s: &str) -> Inst {
        s.parse().unwrap()
    }

    fn two_inst_spec() -> ReplacementSpec {
        ReplacementSpec::new(vec![
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Srl),
                ra: RegDirective::TriggerRs,
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Literal(Reg::dr(1)),
                imm: ImmDirective::Literal(26),
                uses_lit: true,
                dise_branch: false,
            },
            InstSpec::Trigger,
        ])
    }

    fn engine_with_store_rule(config: EngineConfig) -> DiseEngine {
        let mut set = ProductionSet::new();
        set.add_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        DiseEngine::with_productions(config, set).unwrap()
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        // Cold PT.
        assert!(matches!(
            e.inspect(&st),
            Expansion::Miss {
                kind: MissKind::Pt,
                penalty: 30
            }
        ));
        // PT now resident; RT cold.
        assert!(matches!(
            e.inspect(&st),
            Expansion::Miss {
                kind: MissKind::Rt,
                penalty: 30
            }
        ));
        // Hit.
        let Expansion::Expand { id, len } = e.inspect(&st) else {
            panic!()
        };
        assert_eq!(len, 2);
        let first = e.fetch_replacement(id, 0, &st, 0x1000).unwrap();
        assert_eq!(first.to_string(), "srl r2, #26, $dr1");
        let second = e.fetch_replacement(id, 1, &st, 0x1000).unwrap();
        assert_eq!(second, st);
        assert_eq!(e.stats().pt_misses, 1);
        assert_eq!(e.stats().rt_misses, 1);
        assert_eq!(e.stats().expansions, 1);
        assert_eq!(e.stats().stall_cycles, 60);
    }

    #[test]
    fn non_matching_instructions_pass_through() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        // Loads never match the store rule; no PT entries are active for
        // ldq, so there's no miss either.
        assert_eq!(e.inspect(&i("ldq r1, 0(r2)")), Expansion::None);
        assert_eq!(e.inspect(&i("nop")), Expansion::None);
        assert_eq!(e.stats().pt_misses, 0);
    }

    #[test]
    fn empty_engine_never_expands() {
        let mut e = DiseEngine::new(EngineConfig::default());
        for s in ["stq r1, 0(r2)", "ldq r1, 0(r2)", "nop", "bne r1, -4"] {
            assert_eq!(e.inspect(&i(s)), Expansion::None);
        }
        assert_eq!(e.stats().inspected, 4);
    }

    #[test]
    fn aware_codewords_resolve_by_tag() {
        let mut set = ProductionSet::new();
        set.add_aware(Op::Cw0, 3, two_inst_spec()).unwrap();
        let mut e = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
        let cw = Inst::codeword(Op::Cw0, 0, 4, 0, 3);
        assert!(matches!(e.inspect(&cw), Expansion::Miss { .. })); // PT
        assert!(matches!(e.inspect(&cw), Expansion::Miss { .. })); // RT
        let Expansion::Expand { id, len } = e.inspect(&cw) else {
            panic!()
        };
        assert_eq!(len, 2);
        // T.RS of a codeword doesn't exist; but our spec uses TriggerRs...
        // codewords have no RS, so fetching errors.
        assert!(e.fetch_replacement(id, 0, &cw, 0).is_err());
    }

    #[test]
    fn unknown_tag_faults() {
        let mut set = ProductionSet::new();
        set.add_aware(Op::Cw0, 3, two_inst_spec()).unwrap();
        let mut e = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
        let bad = Inst::codeword(Op::Cw0, 0, 0, 0, 9);
        assert!(matches!(e.inspect(&bad), Expansion::Miss { .. })); // PT fill
        assert!(matches!(e.inspect(&bad), Expansion::Fault { .. }));
    }

    #[test]
    fn rt_capacity_causes_repeat_misses() {
        // A 2-entry direct-mapped RT with two 2-instruction sequences
        // thrashes.
        let mut set = ProductionSet::new();
        set.add_aware(Op::Cw0, 0, two_inst_spec()).unwrap();
        set.add_aware(Op::Cw0, 1, two_inst_spec()).unwrap();
        let config = EngineConfig {
            rt_entries: 2,
            rt_org: RtOrganization::DirectMapped,
            ..EngineConfig::default()
        };
        let mut e = DiseEngine::with_productions(config, set).unwrap();
        let cw0 = Inst::codeword(Op::Cw0, 0, 0, 0, 0);
        let cw1 = Inst::codeword(Op::Cw0, 0, 0, 0, 1);
        let _ = e.inspect(&cw0); // PT miss
        let mut rt_misses = 0;
        for _ in 0..8 {
            for cw in [&cw0, &cw1] {
                loop {
                    match e.inspect(cw) {
                        Expansion::Miss {
                            kind: MissKind::Rt, ..
                        } => rt_misses += 1,
                        Expansion::Expand { .. } => break,
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        assert!(
            rt_misses > 2,
            "expected thrashing in a tiny RT, got {rt_misses} misses"
        );

        // A perfect RT misses each sequence at most once.
        let mut set = ProductionSet::new();
        set.add_aware(Op::Cw0, 0, two_inst_spec()).unwrap();
        set.add_aware(Op::Cw0, 1, two_inst_spec()).unwrap();
        let mut e =
            DiseEngine::with_productions(EngineConfig::default().perfect_rt(), set).unwrap();
        let _ = e.inspect(&cw0);
        for _ in 0..8 {
            for cw in [&cw0, &cw1] {
                let _ = e.inspect(cw);
            }
        }
        assert!(e.stats().rt_misses <= 2);
    }

    #[test]
    fn most_specific_resident_pattern_wins() {
        let mut set = ProductionSet::new();
        set.add_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        set.add_transparent(
            Pattern::opclass(OpClass::Store).with_rs(Reg::SP),
            ReplacementSpec::identity(),
        )
        .unwrap();
        let mut e = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
        let sp_store = i("stq r1, 0(r30)");
        let _ = e.inspect(&sp_store); // PT fill
        loop {
            match e.inspect(&sp_store) {
                Expansion::Expand { len, .. } => {
                    assert_eq!(len, 1, "identity expansion should win");
                    break;
                }
                Expansion::Miss { .. } => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn runtime_installation_activates_on_next_fetch() {
        let mut e = DiseEngine::new(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        assert_eq!(e.inspect(&st), Expansion::None);
        // Install a store production at run time.
        e.install_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        // The next fetch of a store faults the pattern in, then expands.
        assert!(matches!(e.inspect(&st), Expansion::Miss { .. }));
        assert!(matches!(e.inspect(&st), Expansion::Miss { .. }));
        assert!(matches!(e.inspect(&st), Expansion::Expand { len: 2, .. }));
        // Unrelated instructions remain untouched.
        assert_eq!(e.inspect(&i("addq r1, r2, r3")), Expansion::None);
    }

    #[test]
    fn aware_reinstallation_invalidates_stale_entries() {
        // Aware sequences address trigger fields via codeword parameters.
        let param_spec = |op: Op, shift: i64| {
            crate::spec::ReplacementSpec::new(vec![InstSpec::Templated {
                op: OpDirective::Literal(op),
                ra: RegDirective::Param(0),
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Literal(Reg::dr(1)),
                imm: ImmDirective::Literal(shift),
                uses_lit: true,
                dise_branch: false,
            }])
        };
        let mut e = DiseEngine::new(EngineConfig::default());
        e.install_aware(Op::Cw0, 4, param_spec(Op::Srl, 2)).unwrap();
        let cw = Inst::codeword(Op::Cw0, 0, 2, 0, 4);
        let id = loop {
            match e.inspect(&cw) {
                Expansion::Expand { id, .. } => break id,
                Expansion::Miss { .. } => continue,
                other => panic!("{other:?}"),
            }
        };
        let first = e.fetch_replacement(id, 0, &cw, 0).unwrap();
        assert_eq!(first.op, Op::Srl);
        // Replace the sequence (dynamic code generation, §3.2): the RT
        // entry must not serve the stale expansion.
        e.install_aware(Op::Cw0, 4, param_spec(Op::Sll, 3)).unwrap();
        let id = loop {
            match e.inspect(&cw) {
                Expansion::Expand { id, len } => {
                    assert_eq!(len, 1);
                    break id;
                }
                Expansion::Miss { .. } => continue,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(e.fetch_replacement(id, 0, &cw, 0).unwrap().op, Op::Sll);
    }

    #[test]
    fn context_switch_is_a_pure_performance_event() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        let _ = e.inspect(&st);
        let _ = e.inspect(&st);
        let Expansion::Expand { id, len } = e.inspect(&st) else {
            panic!()
        };
        let misses_before = e.stats().pt_misses + e.stats().rt_misses;
        e.context_switch();
        // Same architectural outcome after re-faulting the tables in.
        assert!(matches!(e.inspect(&st), Expansion::Miss { .. }));
        assert!(matches!(e.inspect(&st), Expansion::Miss { .. }));
        let Expansion::Expand { id: id2, len: len2 } = e.inspect(&st) else {
            panic!()
        };
        assert_eq!((id, len), (id2, len2));
        assert_eq!(
            e.stats().pt_misses + e.stats().rt_misses,
            misses_before + 2,
            "context switch costs exactly one refill of each table"
        );
    }

    /// A cached engine (driven through the PC-keyed entry points) and a
    /// slow-path engine (driven through the live ones), run in lockstep:
    /// every call must return the same outcome or µop, and leave the
    /// same statistics, on both.
    struct Lockstep {
        cached: DiseEngine,
        slow: DiseEngine,
    }

    const TEXT_BASE: u64 = 0x1000;

    impl Lockstep {
        fn new(config: EngineConfig, set: ProductionSet, text_slots: usize) -> Lockstep {
            let mut cached = DiseEngine::with_productions(config, set.clone()).unwrap();
            cached.bind_text(TEXT_BASE, text_slots);
            let slow = DiseEngine::with_productions(config.slow_path(), set).unwrap();
            Lockstep { cached, slow }
        }

        /// Fetches `inst` at `pc` as the machine does: inspect until the
        /// fills are done, then fetch every µop of an expansion in order.
        /// Returns the µops (just `inst` when it passes through).
        fn fetch(&mut self, pc: u64, inst: &Inst) -> Vec<Inst> {
            let (id, len) = loop {
                let outcome = self.cached.inspect_at(inst, pc);
                assert_eq!(outcome, self.slow.inspect(inst), "inspect {inst} at {pc:#x}");
                assert_eq!(self.cached.stats(), self.slow.stats(), "{inst} at {pc:#x}");
                match outcome {
                    Expansion::Miss { .. } => continue,
                    Expansion::None => return vec![*inst],
                    Expansion::Expand { id, len } => break (id, len),
                    Expansion::Fault { id } => panic!("R{id} faulted at {pc:#x}"),
                }
            };
            (0..len)
                .map(|d| {
                    let uop = self.cached.fetch_replacement_at(id, d, inst, pc).unwrap();
                    assert_eq!(uop, self.slow.fetch_replacement(id, d, inst, pc).unwrap());
                    assert_eq!(self.cached.stats(), self.slow.stats());
                    uop
                })
                .collect()
        }
    }

    #[test]
    fn expansion_cache_matches_slow_engine_across_evictions_switches_and_installs() {
        // A two-entry PT and a two-entry direct-mapped RT: the store,
        // load and aware rules evict each other from the PT, and the
        // sequences evict each other from the RT, on nearly every fetch.
        // (Neither table can be smaller: after the install below, stores
        // have two covering rules, and the store sequence is two µops
        // long, so a one-entry table could never hold what one fetch
        // needs.)
        let one_inst = |op: Op| {
            ReplacementSpec::new(vec![InstSpec::Templated {
                op: OpDirective::Literal(op),
                ra: RegDirective::Param(0),
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Literal(Reg::dr(1)),
                imm: ImmDirective::Literal(2),
                uses_lit: true,
                dise_branch: false,
            }])
        };
        let mut set = ProductionSet::new();
        set.add_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        set.add_transparent(Pattern::opclass(OpClass::Load), ReplacementSpec::identity())
            .unwrap();
        set.add_aware(Op::Cw0, 0, one_inst(Op::Srl)).unwrap();
        set.add_aware(Op::Cw0, 1, one_inst(Op::Sll)).unwrap();
        let config = EngineConfig {
            pt_entries: 2,
            rt_entries: 2,
            rt_org: RtOrganization::DirectMapped,
            ..EngineConfig::default()
        };
        // The SP store follows the plain one, so its cached expansion's
        // sequence is RT-resident when the install below makes it stale.
        let text = [
            i("stq r1, 0(r2)"),
            i("stq r1, 0(r30)"),
            Inst::codeword(Op::Cw0, 0, 4, 0, 0),
            i("ldq r1, 0(r2)"),
            Inst::codeword(Op::Cw0, 0, 4, 0, 1),
            i("stl r5, 8(r2)"),
            i("nop"),
        ];
        let mut e = Lockstep::new(config, set, text.len() * 2);
        let pc = |n: usize| TEXT_BASE + 4 * n as u64;
        for round in 0..8 {
            match round {
                3 => {
                    e.cached.context_switch();
                    e.slow.context_switch();
                }
                // A more specific rule for SP-based stores: a cached
                // expansion of `stq r1, 0(r30)` must not hide it.
                4 => {
                    for eng in [&mut e.cached, &mut e.slow] {
                        eng.install_transparent(
                            Pattern::opclass(OpClass::Store).with_rs(Reg::SP),
                            ReplacementSpec::identity(),
                        )
                        .unwrap();
                    }
                }
                // Tag 0 now expands to `sll`: a cached `srl` µop must not
                // survive.
                6 => {
                    for eng in [&mut e.cached, &mut e.slow] {
                        eng.install_aware(Op::Cw0, 0, one_inst(Op::Sll)).unwrap();
                    }
                }
                _ => {}
            }
            for (n, inst) in text.iter().enumerate() {
                let uops = e.fetch(pc(n), inst);
                if n == 1 {
                    assert_eq!(uops.len(), if round >= 4 { 1 } else { 2 }, "round {round}");
                }
                if n == 2 {
                    let op = if round >= 6 { Op::Sll } else { Op::Srl };
                    assert_eq!(uops[0].op, op, "round {round}");
                }
            }
        }
        // Engagement: the cache served hits, and the tiny tables really
        // evicted what it had cached.
        let stats = e.cached.stats();
        assert!(e.cached.expansion_cache_hits() > 0, "the cache never hit");
        assert!(stats.rt_misses >= 20, "only {} RT misses", stats.rt_misses);
        assert!(stats.pt_misses >= 10, "only {} PT misses", stats.pt_misses);
    }

    #[test]
    fn pcs_outside_the_bound_text_take_the_live_path() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        e.bind_text(TEXT_BASE, 4);
        let st = i("stq r1, 0(r2)");
        // Odd, below-base and past-the-end PCs never index the cache.
        for pc in [TEXT_BASE + 1, TEXT_BASE - 4, TEXT_BASE + 8] {
            while matches!(e.inspect_at(&st, pc), Expansion::Miss { .. }) {}
            assert!(matches!(e.inspect_at(&st, pc), Expansion::Expand { .. }));
        }
        assert_eq!(e.expansion_cache_hits(), 0);
        // An in-range PC hits from its second fetch on.
        let _ = e.inspect_at(&st, TEXT_BASE + 4);
        let _ = e.inspect_at(&st, TEXT_BASE + 4);
        assert_eq!(e.expansion_cache_hits(), 1);
        // A slow-path engine never binds.
        let mut slow = engine_with_store_rule(EngineConfig::default().slow_path());
        slow.bind_text(TEXT_BASE, 4);
        for _ in 0..4 {
            let _ = slow.inspect_at(&st, TEXT_BASE);
        }
        assert_eq!(slow.expansion_cache_hits(), 0);
    }

    #[test]
    fn block_coalescing_is_functionally_invisible_but_fragments() {
        // The same aware working set under block sizes 1 and 4: identical
        // expansions, but coalescing wastes slots (internal fragmentation)
        // and so misses more in a same-sized RT.
        let build_set = || {
            let mut set = ProductionSet::new();
            for tag in 0..8u16 {
                // 3-instruction sequences: one block entry of 4 wastes 1
                // slot each.
                let spec = ReplacementSpec::new(vec![
                    InstSpec::Templated {
                        op: OpDirective::Literal(Op::Addq),
                        ra: RegDirective::Param(0),
                        rb: RegDirective::Literal(Reg::ZERO),
                        rc: RegDirective::Param(1),
                        imm: ImmDirective::Literal(0),
                        uses_lit: false,
                        dise_branch: false,
                    };
                    3
                ]);
                set.add_aware(Op::Cw0, tag, spec).unwrap();
            }
            set
        };
        let run = |block: u32| {
            let config = EngineConfig {
                rt_entries: 16,
                rt_org: RtOrganization::DirectMapped,
                rt_block: block,
                ..EngineConfig::default()
            };
            let mut e = DiseEngine::with_productions(config, build_set()).unwrap();
            let mut seqs = Vec::new();
            for round in 0..4 {
                for tag in 0..8u16 {
                    let cw = Inst::codeword(Op::Cw0, 1, 2, 0, tag);
                    let id = loop {
                        match e.inspect(&cw) {
                            Expansion::Expand { id, len } => {
                                assert_eq!(len, 3, "round {round}");
                                break id;
                            }
                            Expansion::Miss { .. } => continue,
                            other => panic!("{other:?}"),
                        }
                    };
                    for d in 0..3 {
                        seqs.push(e.fetch_replacement(id, d, &cw, 0).unwrap());
                    }
                }
            }
            (seqs, e.stats().rt_misses)
        };
        let (seq1, misses1) = run(1);
        let (seq4, misses4) = run(4);
        assert_eq!(seq1, seq4, "coalescing never changes expansions");
        assert!(
            misses4 >= misses1,
            "fragmentation cannot reduce misses: {misses4} < {misses1}"
        );
    }

    #[test]
    fn stats_track_replacement_volume() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        let _ = e.inspect(&st);
        let _ = e.inspect(&st);
        for _ in 0..10 {
            assert!(matches!(e.inspect(&st), Expansion::Expand { .. }));
        }
        assert_eq!(e.stats().expansions, 10);
        assert_eq!(e.stats().replacement_insts, 20);
        e.reset_stats();
        assert_eq!(e.stats(), EngineStats::default());
    }

    /// Warm an engine (PT + RT resident, stats accumulated), export, and
    /// import into a freshly constructed twin: every observable —
    /// inspection outcomes, fetched replacements, statistics, and the
    /// re-exported state itself — must match the original.
    #[test]
    fn export_import_round_trips_bit_identically() {
        let configs = [
            EngineConfig::default(),
            EngineConfig {
                rt_entries: 4,
                rt_org: RtOrganization::DirectMapped,
                ..EngineConfig::default()
            },
            EngineConfig {
                rt_entries: 8,
                rt_org: RtOrganization::SetAssociative(2),
                rt_block: 2,
                ..EngineConfig::default()
            },
            EngineConfig::default().perfect_rt(),
        ];
        for config in configs {
            let mut warm = engine_with_store_rule(config);
            let st = i("stq r1, 0(r2)");
            let ld_st = i("stl r3, 8(r2)");
            for _ in 0..6 {
                let _ = warm.inspect(&st);
                let _ = warm.inspect(&ld_st);
            }
            let state = warm.export_state();

            let mut cold = engine_with_store_rule(config);
            cold.import_state(&state).unwrap();
            assert_eq!(cold.stats(), warm.stats(), "{config:?}: stats");
            assert_eq!(
                cold.export_state(),
                state,
                "{config:?}: re-export diverged"
            );
            // Both engines now behave identically, hit-for-hit.
            for round in 0..8 {
                let a = warm.inspect(&st);
                let b = cold.inspect(&st);
                assert_eq!(a, b, "{config:?} round {round}: outcome");
                if let Expansion::Expand { id, len } = a {
                    for d in 0..len {
                        assert_eq!(
                            warm.fetch_replacement(id, d, &st, 0x2000).unwrap(),
                            cold.fetch_replacement(id, d, &st, 0x2000).unwrap(),
                            "{config:?} round {round} disepc {d}"
                        );
                    }
                }
                assert_eq!(warm.stats(), cold.stats(), "{config:?} round {round}");
            }
        }
    }

    /// Import validation: geometry, organization, and rule-index
    /// mismatches fail with errors that name what diverged.
    #[test]
    fn import_rejects_mismatched_state() {
        let small = EngineConfig {
            rt_entries: 4,
            rt_org: RtOrganization::DirectMapped,
            ..EngineConfig::default()
        };
        let mut warm = engine_with_store_rule(small);
        let st = i("stq r1, 0(r2)");
        for _ in 0..4 {
            let _ = warm.inspect(&st);
        }
        let state = warm.export_state();

        // Wrong geometry (more slots than the target allocates).
        let mut bigger = engine_with_store_rule(EngineConfig {
            rt_entries: 16,
            ..small
        });
        let err = bigger.import_state(&state).unwrap_err().to_string();
        assert!(
            err.contains("RT geometry mismatch") && err.contains("slots"),
            "unhelpful geometry error: {err}"
        );

        // Wrong organization.
        let mut perfect = engine_with_store_rule(small.perfect_rt());
        let err = perfect.import_state(&state).unwrap_err().to_string();
        assert!(
            err.contains("organization") && err.contains("Perfect"),
            "unhelpful organization error: {err}"
        );

        // A PT-resident rule index past the installed rule count.
        let mut bad = state.clone();
        bad.pt_resident = vec![7];
        let mut target = engine_with_store_rule(small);
        let err = target.import_state(&bad).unwrap_err().to_string();
        assert!(
            err.contains("rule index 7") && err.contains("out of range"),
            "unhelpful rule-index error: {err}"
        );

        // An RT key naming a sequence the production set doesn't hold.
        if let RtState::Cache { keys, .. } = &mut bad.rt {
            if let Some(k) = keys.iter_mut().find(|k| **k != 0) {
                *k = (999u64 << 16) | (*k & 0xFFFF);
            }
        }
        bad.pt_resident = state.pt_resident.clone();
        let mut target = engine_with_store_rule(small);
        let err = target.import_state(&bad).unwrap_err().to_string();
        assert!(
            err.contains("R999") && err.contains("no longer resolves"),
            "unhelpful unknown-sequence error: {err}"
        );
    }
}
