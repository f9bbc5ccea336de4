//! The DISE engine's functional model: pattern matching, replacement-
//! sequence resolution and instantiation (paper §2.1–2.2).
//!
//! The engine is a pure function of the production set. Every fetched
//! instruction is matched against all rules covering its opcode (most
//! specific wins, §2.2); a trigger expands to its replacement sequence,
//! which the [`Controller`] resolves once per identifier — composing
//! productions into it first under compose-on-miss (§3.3) — and each
//! replacement instruction is instantiated against the trigger and its
//! PC.
//!
//! The paper's physical tables — the finite pattern table (PT), the
//! replacement table (RT, direct-mapped / set-associative / perfect,
//! optionally block-coalesced) and the pattern-counter table that
//! detects PT misses (§2.3) — cache this virtual production set. A PT or
//! RT miss costs a pipeline flush and a stall but never changes what
//! commits, so their residency is timing state: `dise_sim`'s
//! `DiseCacheModel` replays the engine's references against them.
//! [`EngineConfig`] carries their geometry and miss penalties, which
//! only the timing model reads. The engine records production installs
//! in a log ([`DiseEngine::installs`]) for the timing model to replay.

use crate::controller::Controller;
use crate::fxhash::FxHashMap;
use crate::production::{Production, ProductionSet, ReplacementId};
use crate::spec::ReplacementSpec;
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
///
/// Every field describes the physical PT/RT, which the timing simulator
/// models; the functional engine reads none of them. Whether the engine
/// serves fetches from its PC-indexed expansion cache is the machine's
/// choice (see [`DiseEngine::bind_text`]).
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
    /// A codeword named a tag with no installed sequence; executing it is a
    /// program error.
    Fault {
        /// The unresolvable identifier.
        id: ReplacementId,
    },
}

/// Engine counters. The functional engine counts `inspected`,
/// `expansions` and `replacement_insts`; the PT/RT miss counters stay 0
/// in [`DiseEngine::stats`] and are filled by the timing simulator's
/// table model, which also adds the re-inspection each miss costs to
/// `inspected`.
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
    /// alias of `inspected`: every inspection probes the PT exactly
    /// once, on the cached fast path and the plain path alike.
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

/// `ExpCache::slots` tag: nothing cached for this PC yet.
const SLOT_UNKNOWN: u32 = 0;
/// `ExpCache::slots` tag: the instruction at this PC passes through.
const SLOT_PASS: u32 = 1;
/// `ExpCache::slots` tags from here up name entry `tag - SLOT_ENTRY`.
const SLOT_ENTRY: u32 = 2;

/// A cached expansion's µops, as [`DiseEngine::inspect_at`] hands them
/// out: where the sequence starts in the expansion cache's µop buffer,
/// and its length. [`DiseEngine::fetch_uop`] serves DISEPC `d` as one
/// indexed read of `start + d` while `d < len`.
///
/// A handle is valid until the engine's next production install or
/// [`DiseEngine::bind_text`], which clear the buffer: the holder must
/// drop it (replace it with [`UopHandle::NONE`]) wherever the engine can
/// change. Debug builds stamp handles with the cache's generation and
/// panic on a stale one; release builds do not check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopHandle {
    start: u32,
    len: u8,
    #[cfg(debug_assertions)]
    generation: u32,
}

impl UopHandle {
    /// No handle: every µop takes the live path. What unbound engines,
    /// PCs outside the bound text and pass-through outcomes get.
    pub const NONE: UopHandle = UopHandle {
        start: 0,
        len: 0,
        #[cfg(debug_assertions)]
        generation: 0,
    };

    /// True if this handle serves no µop from the cache.
    pub fn is_none(&self) -> bool {
        self.len == 0
    }
}

/// The PC-indexed expansion cache: what the instruction at each text PC
/// expands to, and each replacement µop instantiated for it.
///
/// Dense over the text segment with one slot per predecode slot (even
/// byte offsets), bound by [`DiseEngine::bind_text`] and filled lazily
/// from the live path on first execution at a PC. Every entry is a pure
/// function of the production set: the instruction at a text PC never
/// changes, an inspect outcome (`None`, or `Expand { id, len }`) depends
/// only on that instruction and the rules, and an instantiation only on
/// the spec, the trigger and its PC. So a hit is always sound, and only
/// production installs clear the cache (see [`DiseEngine::inspect_at`]).
#[derive(Debug, Default)]
struct ExpCache {
    /// Text base the slots index from: slot `(pc - base) / 2`.
    base: u64,
    /// One tag per slot: [`SLOT_UNKNOWN`], [`SLOT_PASS`], or
    /// `SLOT_ENTRY + i` for `entries[i]`.
    slots: Vec<u32>,
    /// The sequence a trigger PC expands to, and its µops' handle.
    entries: Vec<(ReplacementId, UopHandle)>,
    /// Instantiated µops, `len` per entry; `None` until first fetched.
    uops: Vec<Option<Inst>>,
    /// Inspections served from the cache (diagnostics only; not an
    /// [`EngineStats`] counter).
    inspect_hits: u64,
    /// µops served through a handle (diagnostics only).
    uop_hits: u64,
    /// Bumped by every clear, so debug builds can refuse stale handles.
    #[cfg(debug_assertions)]
    generation: u32,
}

impl ExpCache {
    /// The slot for `pc`, if it is an even offset inside the bound text.
    #[inline]
    fn slot(&self, pc: u64) -> Option<usize> {
        let off = pc.wrapping_sub(self.base);
        let ix = (off >> 1) as usize;
        (off & 1 == 0 && ix < self.slots.len()).then_some(ix)
    }

    /// Drops every entry, keeping the binding.
    fn clear(&mut self) {
        self.slots.fill(SLOT_UNKNOWN);
        self.entries.clear();
        self.uops.clear();
        #[cfg(debug_assertions)]
        {
            self.generation += 1;
        }
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

/// A sequence as [`Controller::resolve_spec`] resolved it.
#[derive(Debug)]
struct Resolved {
    spec: ReplacementSpec,
    /// Whether resolving composed productions into the sequence.
    composed: bool,
}

/// The DISE engine: the production matcher and instantiation logic over
/// a [`Controller`] that owns the architectural production set.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct DiseEngine {
    config: EngineConfig,
    controller: Controller,
    /// Per opcode number, the indices of the rules whose patterns cover
    /// it, in rule order: the fast path's match candidates, and the
    /// pattern-counter table's active counts. Runtime installs rebuild
    /// it.
    op_rules: Vec<Vec<usize>>,
    /// Sequences resolved through the controller, by identifier; cleared
    /// by installs.
    resolved: FxHashMap<ReplacementId, Resolved>,
    /// One entry per runtime install, in order: the aware identifier the
    /// install (re)defined, or `None` for a transparent install.
    installs: Vec<Option<ReplacementId>>,
    /// The PC-indexed expansion cache (fast path only; empty until
    /// [`DiseEngine::bind_text`]).
    cache: ExpCache,
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
        let op_rules = build_op_rules(controller.productions().rules());
        DiseEngine {
            config,
            controller,
            op_rules,
            resolved: FxHashMap::default(),
            installs: Vec::new(),
            cache: ExpCache::default(),
            stats: EngineStats::default(),
        }
    }

    /// Binds the PC-indexed expansion cache to a text segment of `slots`
    /// two-byte slots starting at `text_base` (a predecode table's
    /// geometry), dropping anything cached before and invalidating every
    /// [`UopHandle`]. [`DiseEngine::inspect_at`] serves even PCs inside
    /// that range from the cache; every other PC takes the live path, so
    /// an engine bound to no slots (or never bound) runs the live path
    /// for every fetch. The machine decides: a fast-path `Machine` binds
    /// its predecode table's geometry, a slow-path one binds nothing.
    pub fn bind_text(&mut self, text_base: u64, slots: usize) {
        self.cache.clear();
        self.cache.base = text_base;
        self.cache.slots = vec![SLOT_UNKNOWN; slots];
    }

    /// Inspections and replacement µops served from the PC-indexed
    /// expansion cache so far. A diagnostic for tests and benchmarks that
    /// must prove the cache engaged; it is not an [`EngineStats`]
    /// counter, so exported statistics do not depend on it.
    pub fn expansion_cache_hits(&self) -> u64 {
        self.cache.inspect_hits + self.cache.uop_hits
    }

    /// The replacement µops among [`DiseEngine::expansion_cache_hits`]:
    /// those [`DiseEngine::fetch_uop`] served through a handle from an
    /// already instantiated entry.
    pub fn uop_cache_hits(&self) -> u64 {
        self.cache.uop_hits
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Accumulated statistics (the functional counters; see
    /// [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Replaces the accumulated statistics (snapshot restore).
    pub fn set_stats(&mut self, stats: EngineStats) {
        self.stats = stats;
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
    }

    /// The controller (and through it the architectural production set).
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Indices (ascending) of the rules whose patterns cover `op`: the
    /// rules a PT miss on `op` faults in, and the pattern counter's
    /// active count for `op` (§2.3).
    pub fn rules_covering(&self, op: Op) -> &[usize] {
        &self.op_rules[op.number() as usize]
    }

    /// The runtime install log, oldest first: for each
    /// [`DiseEngine::install_transparent`] `None`, for each
    /// [`DiseEngine::install_aware`] the identifier it (re)defined. The
    /// timing model replays it to drop stale RT entries and recount its
    /// pattern counters.
    pub fn installs(&self) -> &[Option<ReplacementId>] {
        &self.installs
    }

    /// The length of sequence `id` as resolved for execution, and
    /// whether resolving it composed productions (the 150-cycle fill of
    /// §4.3), if it resolves. Served from the engine's resolution memo,
    /// which holds every sequence the engine has expanded since the last
    /// install.
    pub fn resolved_len(&self, id: ReplacementId) -> Option<(u8, bool)> {
        match self.resolved.get(&id) {
            Some(r) => Some((r.spec.len() as u8, r.composed)),
            None => self
                .controller
                .resolve_spec(id)
                .ok()
                .map(|(spec, composed)| (spec.len() as u8, composed)),
        }
    }

    /// Sequence `id`, resolved through the controller once and memoized
    /// until the next install.
    fn resolve(&mut self, id: ReplacementId) -> Result<&Resolved> {
        let controller = &self.controller;
        match self.resolved.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let (spec, composed) = controller.resolve_spec(id)?;
                Ok(e.insert(Resolved {
                    spec: spec.into_owned(),
                    composed,
                }))
            }
        }
    }

    /// Inspects one fetched instruction (every fetched instruction passes
    /// through here, §2): the most specific matching rule (highest
    /// priority, then specificity, then earliest installed) names the
    /// sequence the instruction expands to.
    pub fn inspect(&mut self, inst: &Inst) -> Expansion {
        self.stats.inspected += 1;
        // Only the rules covering the opcode can match, and the winning
        // key includes the rule index, so this picks the same rule as
        // `ProductionSet::lookup`'s scan of every rule.
        let candidates = self.op_rules[inst.op.number() as usize].iter().copied();
        let Some(id) = self.controller.productions().select(inst, candidates) else {
            return Expansion::None;
        };
        let Ok(resolved) = self.resolve(id) else {
            return Expansion::Fault { id };
        };
        let len = resolved.spec.len() as u8;
        self.stats.expansions += 1;
        self.stats.replacement_insts += len as u64;
        Expansion::Expand { id, len }
    }

    /// [`DiseEngine::inspect`] for the instruction at text address `pc`
    /// (`inst` must be the instruction the bound text holds there). Once
    /// the live path has inspected a PC, its `None` or `Expand` outcome
    /// is served from the expansion cache with the same stats deltas:
    /// the outcome is a pure function of the instruction and the
    /// production set, and installs clear the cache.
    ///
    /// An expansion at a cached PC also returns the handle of its µops
    /// for [`DiseEngine::fetch_uop`]; every other outcome returns
    /// [`UopHandle::NONE`].
    #[inline(always)]
    pub fn inspect_at(&mut self, inst: &Inst, pc: u64) -> (Expansion, UopHandle) {
        // Opcodes no rule covers resolve from the index alone — the same
        // answer `inspect` gives, and cheaper than a cache probe.
        if self.op_rules[inst.op.number() as usize].is_empty() {
            self.stats.inspected += 1;
            return (Expansion::None, UopHandle::NONE);
        }
        let Some(slot) = self.cache.slot(pc) else {
            return self.inspect_uncached(inst);
        };
        match self.cache.slots[slot] {
            SLOT_UNKNOWN => self.inspect_and_cache(inst, slot),
            SLOT_PASS => {
                self.stats.inspected += 1;
                self.cache.inspect_hits += 1;
                (Expansion::None, UopHandle::NONE)
            }
            tag => {
                let (id, handle) = self.cache.entries[(tag - SLOT_ENTRY) as usize];
                self.stats.inspected += 1;
                self.stats.expansions += 1;
                self.stats.replacement_insts += handle.len as u64;
                self.cache.inspect_hits += 1;
                (
                    Expansion::Expand {
                        id,
                        len: handle.len,
                    },
                    handle,
                )
            }
        }
    }

    /// [`DiseEngine::inspect_at`] at a PC outside the cache (or on an
    /// unbound engine): the live path, with no handle.
    #[cold]
    fn inspect_uncached(&mut self, inst: &Inst) -> (Expansion, UopHandle) {
        (self.inspect(inst), UopHandle::NONE)
    }

    /// [`DiseEngine::inspect_at`]'s first inspection of a cached slot:
    /// the live path, whose outcome then fills the slot.
    #[cold]
    fn inspect_and_cache(&mut self, inst: &Inst, slot: usize) -> (Expansion, UopHandle) {
        let outcome = self.inspect(inst);
        let cache = &mut self.cache;
        let handle = match outcome {
            Expansion::None => {
                cache.slots[slot] = SLOT_PASS;
                UopHandle::NONE
            }
            Expansion::Expand { id, len } => {
                let handle = UopHandle {
                    start: cache.uops.len() as u32,
                    len,
                    #[cfg(debug_assertions)]
                    generation: cache.generation,
                };
                cache.slots[slot] = SLOT_ENTRY + cache.entries.len() as u32;
                cache.entries.push((id, handle));
                cache.uops.resize(cache.uops.len() + len as usize, None);
                handle
            }
            Expansion::Fault { .. } => UopHandle::NONE,
        };
        (outcome, handle)
    }

    /// Produces the replacement instruction at `disepc` of sequence `id`,
    /// instantiated against the trigger.
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
        self.resolve(id)?
            .spec
            .insts
            .get(disepc as usize)
            .ok_or(CoreError::UnknownSequence(id))?
            .instantiate(trigger, trigger_pc)
    }

    /// [`DiseEngine::fetch_replacement`] for an expansion that
    /// [`DiseEngine::inspect_at`] began and handed `handle` for. While
    /// `disepc` is inside the handle's sequence, the µop is one indexed
    /// read of the expansion cache, instantiated through the live path on
    /// its first fetch. Everything else — [`UopHandle::NONE`], or a DISE
    /// branch past the sequence's end — takes the live path, with its
    /// result or error.
    ///
    /// `handle` must have been returned since the last install or
    /// [`DiseEngine::bind_text`] (see [`UopHandle`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`DiseEngine::fetch_replacement`].
    #[inline(always)]
    pub fn fetch_uop(
        &mut self,
        handle: UopHandle,
        id: ReplacementId,
        disepc: u8,
        trigger: &Inst,
        trigger_pc: u64,
    ) -> Result<Inst> {
        if disepc < handle.len {
            #[cfg(debug_assertions)]
            assert_eq!(
                handle.generation, self.cache.generation,
                "a µop handle outlived an install or rebind"
            );
            if let Some(inst) = self.cache.uops[handle.start as usize + disepc as usize] {
                self.cache.uop_hits += 1;
                return Ok(inst);
            }
        }
        self.fetch_uop_live(handle, id, disepc, trigger, trigger_pc)
    }

    /// [`DiseEngine::fetch_uop`] through the live path, filling the
    /// handle's slot on a first fetch inside the sequence.
    #[cold]
    fn fetch_uop_live(
        &mut self,
        handle: UopHandle,
        id: ReplacementId,
        disepc: u8,
        trigger: &Inst,
        trigger_pc: u64,
    ) -> Result<Inst> {
        let inst = self.fetch_replacement(id, disepc, trigger, trigger_pc)?;
        if disepc < handle.len {
            self.cache.uops[handle.start as usize + disepc as usize] = Some(inst);
        }
        Ok(inst)
    }

    /// Installs a transparent production at run time — the user-level
    /// face of the controller API (§2.3). The timing model's pattern
    /// counters learn of it through [`DiseEngine::installs`], so the new
    /// pattern is faulted into the PT (with the usual miss penalty) the
    /// next time a covered opcode is fetched.
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
        self.installed(None);
        Ok(id)
    }

    /// Installs (or replaces) an aware replacement sequence under
    /// `(cw_op, tag)` at run time. The install log names the identifier,
    /// so the timing model drops its stale RT entries.
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
        let id = self
            .controller
            .productions_mut()
            .add_aware(cw_op, tag, spec)?;
        self.installed(Some(id));
        Ok(id)
    }

    /// Bookkeeping after an install: rebuilds the match index and drops
    /// everything derived from the old production set (cached outcomes
    /// may now expand differently, and an aware sequence may have
    /// changed). Outstanding [`UopHandle`]s go stale.
    fn installed(&mut self, aware: Option<ReplacementId>) {
        self.op_rules = build_op_rules(self.controller.productions().rules());
        self.resolved.clear();
        self.cache.clear();
        self.installs.push(aware);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::spec::{ImmDirective, InstSpec, OpDirective, RegDirective, ReplacementSpec};
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
    fn triggers_expand_on_first_inspection() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        let Expansion::Expand { id, len } = e.inspect(&st) else {
            panic!()
        };
        assert_eq!(len, 2);
        let first = e.fetch_replacement(id, 0, &st, 0x1000).unwrap();
        assert_eq!(first.to_string(), "srl r2, #26, $dr1");
        let second = e.fetch_replacement(id, 1, &st, 0x1000).unwrap();
        assert_eq!(second, st);
        assert!(e.fetch_replacement(id, 2, &st, 0x1000).is_err());
        let stats = e.stats();
        assert_eq!(
            (stats.inspected, stats.expansions, stats.replacement_insts),
            (1, 1, 2)
        );
        assert_eq!(
            (stats.pt_misses, stats.rt_misses, stats.stall_cycles),
            (0, 0, 0),
            "residency is the timing model's"
        );
    }

    #[test]
    fn non_matching_instructions_pass_through() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        assert_eq!(e.inspect(&i("ldq r1, 0(r2)")), Expansion::None);
        assert_eq!(e.inspect(&i("nop")), Expansion::None);
        assert_eq!(e.stats().expansions, 0);
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
        let Expansion::Expand { id, len } = e.inspect(&cw) else {
            panic!()
        };
        assert_eq!(len, 2);
        // The spec uses T.RS, which a codeword does not have.
        assert!(e.fetch_replacement(id, 0, &cw, 0).is_err());
    }

    #[test]
    fn unknown_tag_faults() {
        let mut set = ProductionSet::new();
        set.add_aware(Op::Cw0, 3, two_inst_spec()).unwrap();
        let mut e = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
        let bad = Inst::codeword(Op::Cw0, 0, 0, 0, 9);
        assert!(matches!(e.inspect(&bad), Expansion::Fault { .. }));
    }

    #[test]
    fn most_specific_pattern_wins() {
        let mut set = ProductionSet::new();
        set.add_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        set.add_transparent(
            Pattern::opclass(OpClass::Store).with_rs(Reg::SP),
            ReplacementSpec::identity(),
        )
        .unwrap();
        let mut e = DiseEngine::with_productions(EngineConfig::default(), set.clone()).unwrap();
        for (s, want) in [("stq r1, 0(r30)", 1), ("stq r1, 0(r2)", 2)] {
            let inst = i(s);
            let Expansion::Expand { id, len } = e.inspect(&inst) else {
                panic!("{s} expands")
            };
            assert_eq!(len, want, "{s}: the most specific rule wins");
            assert_eq!(
                Some(id),
                set.lookup(&inst),
                "{s}: the engine selects as lookup does"
            );
        }
    }

    #[test]
    fn rules_covering_indexes_classes_and_opcodes() {
        let mut set = ProductionSet::new();
        set.add_transparent(Pattern::opclass(OpClass::Load), ReplacementSpec::identity())
            .unwrap();
        set.add_transparent(Pattern::opcode(Op::Ldq), ReplacementSpec::identity())
            .unwrap();
        let e = DiseEngine::with_productions(EngineConfig::default(), set).unwrap();
        assert_eq!(e.rules_covering(Op::Ldq), &[0, 1]);
        assert_eq!(e.rules_covering(Op::Ldl), &[0]);
        assert!(e.rules_covering(Op::Stq).is_empty());
    }

    #[test]
    fn runtime_installation_activates_on_next_fetch() {
        let mut e = DiseEngine::new(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        assert_eq!(e.inspect(&st), Expansion::None);
        // Install a store production at run time.
        e.install_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        assert!(matches!(e.inspect(&st), Expansion::Expand { len: 2, .. }));
        // Unrelated instructions remain untouched.
        assert_eq!(e.inspect(&i("addq r1, r2, r3")), Expansion::None);
        assert_eq!(e.installs(), &[None]);
        assert_eq!(e.rules_covering(Op::Stq), &[0]);
        assert!(e.rules_covering(Op::Addq).is_empty());
    }

    #[test]
    fn aware_reinstallation_replaces_the_sequence() {
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
        let id = e.install_aware(Op::Cw0, 4, param_spec(Op::Srl, 2)).unwrap();
        let cw = Inst::codeword(Op::Cw0, 0, 2, 0, 4);
        assert_eq!(e.inspect(&cw), Expansion::Expand { id, len: 1 });
        assert_eq!(e.fetch_replacement(id, 0, &cw, 0).unwrap().op, Op::Srl);
        // Replace the sequence (dynamic code generation, §3.2): the
        // resolution memo must not serve the stale expansion, and the
        // install log names the identifier for the timing model's RT.
        e.install_aware(Op::Cw0, 4, param_spec(Op::Sll, 3)).unwrap();
        assert_eq!(e.fetch_replacement(id, 0, &cw, 0).unwrap().op, Op::Sll);
        assert_eq!(e.installs(), &[Some(id), Some(id)]);
    }

    #[test]
    fn compose_on_miss_resolves_each_sequence_once_per_install() {
        let mut aware = ProductionSet::new();
        let store = i("stq r1, 0(r2)");
        let id = aware
            .add_aware(
                Op::Cw0,
                0,
                ReplacementSpec::new(vec![InstSpec::literal(store)]),
            )
            .unwrap();
        let mut mfi = ProductionSet::new();
        mfi.add_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        let controller = Controller::new(aware).with_inline_on_fill(mfi);
        let mut e = DiseEngine::with_controller(EngineConfig::default(), controller);
        assert_eq!(e.resolved_len(id), Some((2, true)), "resolvable before use");
        let cw = Inst::codeword(Op::Cw0, 0, 0, 0, 0);
        assert_eq!(e.inspect(&cw), Expansion::Expand { id, len: 2 });
        assert_eq!(e.resolved.len(), 1);
        assert_eq!(e.resolved_len(id), Some((2, true)));
        e.install_aware(Op::Cw0, 1, ReplacementSpec::identity())
            .unwrap();
        assert!(e.resolved.is_empty(), "installs clear the memo");
        assert_eq!(e.resolved_len(999), None);
    }

    /// A cached engine (driven through `inspect_at` and µop handles) and
    /// an unbound engine (driven through the live entry points), run in
    /// lockstep:
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
            let slow = DiseEngine::with_productions(config, set).unwrap();
            Lockstep { cached, slow }
        }

        /// Fetches `inst` at `pc` as the machine does: inspect, then
        /// fetch every µop of an expansion in order. Returns the µops
        /// (just `inst` when it passes through).
        fn fetch(&mut self, pc: u64, inst: &Inst) -> Vec<Inst> {
            let (outcome, handle) = self.cached.inspect_at(inst, pc);
            assert_eq!(
                outcome,
                self.slow.inspect(inst),
                "inspect {inst} at {pc:#x}"
            );
            assert_eq!(self.cached.stats(), self.slow.stats(), "{inst} at {pc:#x}");
            let (id, len) = match outcome {
                Expansion::None => return vec![*inst],
                Expansion::Expand { id, len } => (id, len),
                Expansion::Fault { id } => panic!("R{id} faulted at {pc:#x}"),
            };
            (0..len)
                .map(|d| {
                    let uop = self.cached.fetch_uop(handle, id, d, inst, pc).unwrap();
                    assert_eq!(uop, self.slow.fetch_replacement(id, d, inst, pc).unwrap());
                    assert_eq!(self.cached.stats(), self.slow.stats());
                    uop
                })
                .collect()
        }
    }

    #[test]
    fn expansion_cache_matches_slow_engine_across_installs() {
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
        let text = [
            i("stq r1, 0(r2)"),
            i("stq r1, 0(r30)"),
            Inst::codeword(Op::Cw0, 0, 4, 0, 0),
            i("ldq r1, 0(r2)"),
            Inst::codeword(Op::Cw0, 0, 4, 0, 1),
            i("stl r5, 8(r2)"),
            i("nop"),
        ];
        let mut e = Lockstep::new(EngineConfig::default(), set, text.len() * 2);
        let pc = |n: usize| TEXT_BASE + 4 * n as u64;
        for round in 0..8 {
            match round {
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
        assert!(e.cached.expansion_cache_hits() > 0, "the cache never hit");
        assert!(e.cached.uop_cache_hits() > 0, "no µop was served by handle");
    }

    #[test]
    fn handles_serve_only_inside_the_sequence() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        e.bind_text(TEXT_BASE, 4);
        let st = i("stq r1, 0(r2)");
        let (Expansion::Expand { id, len: 2 }, handle) = e.inspect_at(&st, TEXT_BASE) else {
            panic!("the store expands")
        };
        assert!(!handle.is_none());
        for round in 0..2 {
            for d in 0..2 {
                assert_eq!(
                    e.fetch_uop(handle, id, d, &st, TEXT_BASE).unwrap(),
                    e.fetch_replacement(id, d, &st, TEXT_BASE).unwrap()
                );
            }
            assert_eq!(e.uop_cache_hits(), 2 * round, "filled on first fetch");
        }
        // A DISEPC past the end takes the live path and its error.
        assert!(e.fetch_uop(handle, id, 2, &st, TEXT_BASE).is_err());
        assert_eq!(e.uop_cache_hits(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outlived an install")]
    fn debug_builds_refuse_stale_handles() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        e.bind_text(TEXT_BASE, 4);
        let st = i("stq r1, 0(r2)");
        let (Expansion::Expand { id, .. }, handle) = e.inspect_at(&st, TEXT_BASE) else {
            panic!("the store expands")
        };
        e.install_transparent(Pattern::opclass(OpClass::Load), two_inst_spec())
            .unwrap();
        let _ = e.fetch_uop(handle, id, 0, &st, TEXT_BASE);
    }

    #[test]
    fn pcs_outside_the_bound_text_take_the_live_path() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        e.bind_text(TEXT_BASE, 4);
        let st = i("stq r1, 0(r2)");
        // Odd, below-base and past-the-end PCs never index the cache.
        for pc in [TEXT_BASE + 1, TEXT_BASE - 4, TEXT_BASE + 8] {
            for _ in 0..2 {
                let (outcome, handle) = e.inspect_at(&st, pc);
                assert!(matches!(outcome, Expansion::Expand { .. }));
                assert!(handle.is_none(), "no handle outside the cache");
            }
        }
        assert_eq!(e.expansion_cache_hits(), 0);
        // An in-range PC hits from its second fetch on.
        let _ = e.inspect_at(&st, TEXT_BASE + 4);
        let _ = e.inspect_at(&st, TEXT_BASE + 4);
        assert_eq!(e.expansion_cache_hits(), 1);
        // An engine bound to no slots serves every PC live.
        let mut unbound = engine_with_store_rule(EngineConfig::default());
        unbound.bind_text(TEXT_BASE, 0);
        for _ in 0..4 {
            let _ = unbound.inspect_at(&st, TEXT_BASE);
        }
        assert_eq!(unbound.expansion_cache_hits(), 0);
    }

    #[test]
    fn stats_track_replacement_volume() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        let st = i("stq r1, 0(r2)");
        for _ in 0..10 {
            assert!(matches!(e.inspect(&st), Expansion::Expand { .. }));
        }
        assert_eq!(e.stats().expansions, 10);
        assert_eq!(e.stats().replacement_insts, 20);
        let stats = e.stats();
        e.reset_stats();
        assert_eq!(e.stats(), EngineStats::default());
        e.set_stats(stats);
        assert_eq!(e.stats(), stats);
    }
}
