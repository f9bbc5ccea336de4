//! The DISE engine's physical tables as timing state (paper §2.3).
//!
//! The pattern table (PT) and replacement table (RT) cache the virtual
//! production set the functional [`DiseEngine`] matches against. A miss
//! in either costs a pipeline flush and a fill stall — 30 cycles, or 150
//! when the RT miss handler must compose productions (§4.3) — and never
//! changes what commits. [`DiseCacheModel`] replays each step's engine
//! reference ([`StepInfo::dise`]) against the tables the way the
//! hardware makes it, and returns the stall for the simulator to charge
//! at fetch. An inspect checks the opcode's pattern counters (active vs.
//! PT-resident rules); a mismatch is a PT miss, which faults every rule
//! covering the opcode in, evicting the least recently filled, and
//! re-inspects. An expanding inspect then checks the RT for the
//! sequence's first entry, filling the whole sequence (and re-inspecting)
//! on a miss. Every replacement µop references the RT at `(id, DISEPC)`
//! and refills the sequence if it was evicted mid-way.
//!
//! Geometry and penalties come from the engine's [`EngineConfig`].
//! Installs reach the model through the engine's install log
//! ([`DiseEngine::installs`]), replayed before the next reference: a
//! reinstalled aware sequence leaves the RT, and the pattern counters'
//! active halves are recounted. [`DiseCacheModel::context_switch`]
//! empties both tables.
//!
//! The simulator runs [`DiseCacheModel::observe`] once per retired step,
//! inlined into its loop, so a hit costs about what a plain
//! instruction's bookkeeping does. A set-indexed RT reference is one
//! tag compare and one stamp store on a direct-mapped table, with the
//! set mask computed at construction and no division at one
//! instruction per entry. The perfect RT keeps one filled length per
//! sequence (it is filled and dropped a whole sequence at a time) and a
//! memo of the last sequence referenced, so only an expansion's first
//! µop probes its map. Misses, PT fills and install replays stay out of
//! line. Snapshots record the perfect RT as `(id, base, count)` blocks,
//! as when it was keyed by block, and a restore rejects blocks that do
//! not cover a sequence contiguously from DISEPC 0.

use crate::machine::{DiseRef, StepInfo};
use crate::snapshot::{Reader, Writer};
use crate::{Result, SimError};
use dise_core::{DiseEngine, EngineConfig, EngineStats, FxHashMap, ReplacementId, RtOrganization};
use dise_isa::Op;

/// RT placement and LRU state: a set-indexed cache or a perfect map.
/// The model tracks which blocks are resident and how many instructions
/// each holds, not the instructions themselves (the engine resolves
/// those).
///
/// The cache keys blocks by `(id, base DISEPC)` in one flat array
/// (`assoc` slots per set) with a parallel array of LRU stamps: every
/// reference that the move-to-MRU list formulation would rotate instead
/// records the tick it happened at, and the fill victim is the minimum
/// stamp in the set. Relative stamp order within a set is exactly list
/// order, so hit/miss behavior is the list's — but a touch is one store
/// instead of a memmove.
///
/// The perfect RT never evicts, is filled a whole sequence at a time and
/// loses a whole sequence to an aware reinstall, so its resident blocks
/// of sequence `id` always cover `0..len` for the length `len` it was
/// filled at. It keys that length by `id`, and `(id, disepc)` is
/// resident iff `disepc < len`.
#[derive(Debug, Clone)]
enum RtStore {
    Cache {
        /// Packed keys, `assoc` slots per set (a slot is empty iff it
        /// is 0 — live keys have a nonzero instruction count in the low
        /// byte). Layout: `id << 16 | base << 8 | count`; both the tag
        /// match and the `off < count` residency check are
        /// mask-and-compares on the one word.
        keys: Vec<u64>,
        /// LRU stamps, parallel to `keys`.
        stamps: Vec<u64>,
        /// Monotonic reference tick feeding `stamps`.
        clock: u64,
        num_sets: usize,
        /// `num_sets - 1` when `num_sets` is a power of two (the
        /// paper's geometries all are): the set index is then a mask.
        set_mask: Option<usize>,
        assoc: usize,
        block: usize,
    },
    Perfect {
        /// Each resident sequence's filled length. Fx-hashed: keys are
        /// small and trusted.
        lens: FxHashMap<ReplacementId, u8>,
        /// The last sequence referenced or filled and its entry in
        /// `lens`, so the µops after an expansion's first skip the map.
        /// Cleared with the entry it mirrors.
        last: Option<(ReplacementId, u8)>,
        block: usize,
    },
}

/// The key-word tag (everything above the count byte).
#[inline]
fn rt_tag(id: ReplacementId, base: u8) -> u64 {
    (id as u64) << 16 | (base as u64) << 8
}

impl RtStore {
    fn new(config: &EngineConfig) -> RtStore {
        let block = config.rt_block.max(1) as usize;
        let cache = |num_sets: usize, assoc: usize| RtStore::Cache {
            keys: vec![0; num_sets * assoc],
            stamps: vec![0; num_sets * assoc],
            clock: 0,
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            assoc,
            block,
        };
        match config.rt_org {
            RtOrganization::Perfect => RtStore::Perfect {
                lens: FxHashMap::default(),
                last: None,
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

    /// Empties the table (a context switch), keeping its allocation.
    fn clear(&mut self) {
        match self {
            RtStore::Cache {
                keys,
                stamps,
                clock,
                ..
            } => {
                keys.fill(0);
                stamps.fill(0);
                *clock = 0;
            }
            RtStore::Perfect { lens, last, .. } => {
                lens.clear();
                *last = None;
            }
        }
    }

    /// The first slot of the set holding block `base` of sequence `id`.
    #[inline(always)]
    fn set_start(
        num_sets: usize,
        set_mask: Option<usize>,
        assoc: usize,
        id: ReplacementId,
        base: u8,
    ) -> usize {
        let h = (id as usize).wrapping_mul(37).wrapping_add(base as usize);
        // Every RT reference lands here; the remainder equals the mask
        // where there is one.
        let set = match set_mask {
            Some(mask) => h & mask,
            None => h % num_sets,
        };
        set * assoc
    }

    /// References `(id, disepc)`: if its block is resident and holds
    /// `disepc`, refreshes the block's LRU stamp and returns true;
    /// otherwise changes nothing and returns false.
    #[inline(always)]
    fn touch(&mut self, id: ReplacementId, disepc: u8) -> bool {
        match self {
            RtStore::Perfect { lens, last, .. } => match *last {
                Some((lid, len)) if lid == id => disepc < len,
                _ => match lens.get(&id) {
                    Some(&len) => {
                        *last = Some((id, len));
                        disepc < len
                    }
                    None => false,
                },
            },
            RtStore::Cache {
                keys,
                stamps,
                clock,
                num_sets,
                set_mask,
                assoc,
                block,
            } => {
                // With one instruction per entry the block is the
                // DISEPC itself; only larger blocks pay the division.
                let (base, off) = if *block == 1 {
                    (disepc, 0)
                } else {
                    let base = disepc - disepc % *block as u8;
                    (base, disepc - base)
                };
                let s = Self::set_start(*num_sets, *set_mask, *assoc, id, base);
                let tag = rt_tag(id, base);
                let hit = |k: u64| k & !0xFF == tag && k & 0xFF > off as u64;
                // Direct-mapped: one slot, no loop.
                let slot = if *assoc == 1 {
                    hit(keys[s]).then_some(s)
                } else {
                    (s..s + *assoc).find(|&i| hit(keys[i]))
                };
                match slot {
                    Some(i) => {
                        *clock += 1;
                        stamps[i] = *clock;
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// The read that follows a fill: refreshes the LRU stamp of the
    /// block tagged `(id, base of disepc)` if one is resident, whether or
    /// not it holds `disepc`.
    fn read_after_fill(&mut self, id: ReplacementId, disepc: u8) {
        if let RtStore::Cache {
            keys,
            stamps,
            clock,
            num_sets,
            set_mask,
            assoc,
            block,
        } = self
        {
            let base = disepc - disepc % *block as u8;
            let s = Self::set_start(*num_sets, *set_mask, *assoc, id, base);
            let tag = rt_tag(id, base);
            // The low-byte check keeps `id 0, base 0` (tag 0) from
            // matching empty slots: live keys always carry a nonzero
            // count.
            if let Some(i) =
                (s..s + *assoc).find(|&i| keys[i] & !0xFF == tag && keys[i] & 0xFF != 0)
            {
                *clock += 1;
                stamps[i] = *clock;
            }
        }
    }

    /// Drops every block of sequence `id`.
    fn invalidate(&mut self, id: ReplacementId) {
        match self {
            RtStore::Perfect { lens, last, .. } => {
                lens.remove(&id);
                if last.is_some_and(|(lid, _)| lid == id) {
                    *last = None;
                }
            }
            RtStore::Cache { keys, stamps, .. } => {
                for i in 0..keys.len() {
                    if keys[i] != 0 && (keys[i] >> 16) as ReplacementId == id {
                        keys[i] = 0;
                        stamps[i] = 0;
                    }
                }
            }
        }
    }

    /// Inserts a whole sequence of `len` instructions, one block entry
    /// per `block` instructions.
    fn insert_sequence(&mut self, id: ReplacementId, len: u8) {
        match self {
            RtStore::Perfect { lens, last, .. } => {
                if len > 0 {
                    lens.insert(id, len);
                    *last = Some((id, len));
                }
            }
            RtStore::Cache {
                keys,
                stamps,
                clock,
                num_sets,
                set_mask,
                assoc,
                block,
            } => {
                for base in (0..len as usize).step_by(*block) {
                    let count = (*block).min(len as usize - base) as u8;
                    let base = base as u8;
                    let s = Self::set_start(*num_sets, *set_mask, *assoc, id, base);
                    let tag = rt_tag(id, base);
                    // Slot choice, in the order the list formulation
                    // implies: the same tag if present (replace), else
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
                    keys[i] = tag | count as u64;
                    *clock += 1;
                    stamps[i] = *clock;
                }
            }
        }
    }

    /// The perfect RT's resident blocks as `(id, base, count)`, sorted:
    /// the form snapshots record.
    fn perfect_blocks(
        lens: &FxHashMap<ReplacementId, u8>,
        block: usize,
    ) -> Vec<(ReplacementId, u8, u8)> {
        let mut ids: Vec<_> = lens.iter().map(|(&id, &len)| (id, len)).collect();
        ids.sort_unstable();
        ids.into_iter()
            .flat_map(|(id, len)| {
                (0..len as usize)
                    .step_by(block)
                    .map(move |base| (id, base as u8, block.min(len as usize - base) as u8))
            })
            .collect()
    }
}

/// Miss accounting of a [`DiseCacheModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MissCounts {
    pt_misses: u64,
    rt_misses: u64,
    composed_fills: u64,
    stall_cycles: u64,
    /// Inspections the misses repeated: each PT miss, and each RT miss
    /// found at inspect time, re-inspects the trigger after the fill.
    reinspections: u64,
}

/// The DISE engine's PT, pattern-counter table and RT as timing state.
/// See the module docs.
#[derive(Debug, Clone)]
pub struct DiseCacheModel {
    config: EngineConfig,
    /// Indices (into the engine's rule list) of PT-resident rules, most
    /// recently filled first: fills insert at the front and evict from
    /// the back. Hits do not reorder the list.
    pt: Vec<usize>,
    /// Pattern-counter table: per opcode number, (active, resident).
    counters: [(u16, u16); 64],
    rt: RtStore,
    /// How much of the engine's install log has been replayed.
    installs_seen: usize,
    counts: MissCounts,
}

impl DiseCacheModel {
    /// Cold tables for `engine`, with its configuration's geometry and
    /// penalties.
    pub fn new(engine: &DiseEngine) -> DiseCacheModel {
        let config = *engine.config();
        let mut model = DiseCacheModel {
            pt: Vec::new(),
            counters: [(0, 0); 64],
            rt: RtStore::new(&config),
            installs_seen: engine.installs().len(),
            counts: MissCounts::default(),
            config,
        };
        model.recount_active(engine);
        model
    }

    /// Recomputes each opcode's active count from the engine's rules.
    fn recount_active(&mut self, engine: &DiseEngine) {
        for &op in Op::ALL {
            self.counters[op.number() as usize].0 = engine.rules_covering(op).len() as u16;
        }
    }

    /// Replays installs the engine logged since the last call.
    #[cold]
    fn sync(&mut self, engine: &DiseEngine) {
        for &aware in &engine.installs()[self.installs_seen..] {
            if let Some(id) = aware {
                self.rt.invalidate(id);
            }
        }
        self.installs_seen = engine.installs().len();
        self.recount_active(engine);
    }

    /// Replays the engine references of one retired step and returns the
    /// miss stall it costs (0 on hits). `engine` is the engine that made
    /// them. Inlined into the simulator's loop: every step with an
    /// engine reference runs it; misses and install replays stay out of
    /// line.
    #[inline(always)]
    pub fn observe(&mut self, info: &StepInfo, engine: &DiseEngine) -> u64 {
        if engine.installs().len() != self.installs_seen {
            self.sync(engine);
        }
        match info.dise {
            DiseRef::None => 0,
            DiseRef::Pass => self.check_pt(info.inst.op, engine),
            DiseRef::Uop { id, inspected } => {
                let mut stall = 0;
                if let Some(op) = inspected {
                    stall += self.check_pt(op, engine);
                    // The inspect reads the sequence's first entry for
                    // its length; a miss fills and re-inspects.
                    if !self.rt.touch(id, 0) {
                        stall += self.fill_rt(id, 0, engine);
                        self.counts.reinspections += 1;
                    }
                }
                if !self.rt.touch(id, info.disepc) {
                    stall += self.fill_rt(id, info.disepc, engine);
                }
                stall
            }
        }
    }

    /// An inspect's pattern-counter check for `op`: fills the PT until
    /// every rule covering `op` is resident, one miss (and
    /// re-inspection) per fill.
    #[inline(always)]
    fn check_pt(&mut self, op: Op, engine: &DiseEngine) -> u64 {
        let n = op.number() as usize;
        let mut stall = 0;
        while self.counters[n].0 != self.counters[n].1 {
            stall += self.fill_pt(op, engine);
        }
        stall
    }

    /// PT miss on `op`: faults in every rule covering it (§2.3).
    #[cold]
    fn fill_pt(&mut self, op: Op, engine: &DiseEngine) -> u64 {
        let rules = engine.controller().productions().rules();
        // Rule order decides PT LRU state and therefore future
        // evictions.
        let missing: Vec<usize> = engine
            .rules_covering(op)
            .iter()
            .copied()
            .filter(|i| !self.pt.contains(i))
            .collect();
        for idx in missing {
            // Evict the least recently filled (back of the list) if full.
            while self.pt.len() >= self.config.pt_entries {
                let evicted = self.pt.pop().expect("PT capacity is at least one entry");
                for o in rules[evicted].pattern.opcodes() {
                    self.counters[o.number() as usize].1 -= 1;
                }
            }
            self.pt.insert(0, idx);
            for o in rules[idx].pattern.opcodes() {
                self.counters[o.number() as usize].1 += 1;
            }
        }
        self.counts.pt_misses += 1;
        self.counts.reinspections += 1;
        self.counts.stall_cycles += self.config.miss_penalty;
        self.config.miss_penalty
    }

    /// RT miss on `(id, disepc)`: fills every instruction of sequence
    /// `id`, then reads the missed entry. Returns the stall (the
    /// composing penalty if resolving the sequence composed
    /// productions).
    #[cold]
    fn fill_rt(&mut self, id: ReplacementId, disepc: u8, engine: &DiseEngine) -> u64 {
        // The step that referenced `id` resolved it, so it resolves.
        let (len, composed) = engine.resolved_len(id).unwrap_or((0, false));
        self.rt.insert_sequence(id, len);
        self.rt.read_after_fill(id, disepc);
        let penalty = if composed {
            self.counts.composed_fills += 1;
            self.config.compose_penalty
        } else {
            self.config.miss_penalty
        };
        self.counts.rt_misses += 1;
        self.counts.stall_cycles += penalty;
        penalty
    }

    /// A context switch (§2.3): the PT and RT are physical caches and
    /// lose their contents; the architectural production set, which the
    /// OS saves and restores, is untouched. Purely a performance event.
    pub fn context_switch(&mut self) {
        self.pt.clear();
        for c in &mut self.counters {
            c.1 = 0;
        }
        self.rt.clear();
    }

    /// The full engine counters: `engine`'s functional counts, with the
    /// miss counters this model accumulated and the re-inspections its
    /// misses cost added to `inspected`.
    pub fn engine_stats(&self, engine: &DiseEngine) -> EngineStats {
        let functional = engine.stats();
        EngineStats {
            inspected: functional.inspected + self.counts.reinspections,
            pt_misses: self.counts.pt_misses,
            rt_misses: self.counts.rt_misses,
            composed_fills: self.counts.composed_fills,
            stall_cycles: self.counts.stall_cycles,
            ..functional
        }
    }

    /// Serializes the tables and counters (see [`crate::snapshot`]).
    /// Installs the engine logged but the model has not replayed yet are
    /// applied to the recorded state, so the restore target — whose
    /// engine already holds them — starts in step.
    pub(crate) fn save_state(&self, w: &mut Writer, engine: &DiseEngine) {
        if engine.installs().len() != self.installs_seen {
            let mut synced = self.clone();
            synced.sync(engine);
            return synced.save_state(w, engine);
        }
        w.u64(self.pt.len() as u64);
        for &ix in &self.pt {
            w.u64(ix as u64);
        }
        match &self.rt {
            RtStore::Cache { keys, stamps, .. } => {
                // Canonical LRU form. The victim choice is the minimum
                // stamp among a set's occupied slots, so only the
                // *relative order* of stamps is observable. Densely
                // re-ranking them makes behaviorally identical models
                // save identical bytes whatever their raw tick values.
                let mut order: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] != 0).collect();
                order.sort_unstable_by_key(|&i| stamps[i]);
                let mut ranked = vec![0u64; keys.len()];
                for (rank, &i) in order.iter().enumerate() {
                    ranked[i] = rank as u64 + 1;
                }
                w.u8(0);
                w.u64(keys.len() as u64);
                for &k in keys {
                    w.u64(k);
                }
                for &s in &ranked {
                    w.u64(s);
                }
                w.u64(order.len() as u64);
            }
            RtStore::Perfect { lens, block, .. } => {
                // Written as `(id, base, count)` blocks in key order,
                // the layout of a perfect RT keyed by block.
                let resident = RtStore::perfect_blocks(lens, *block);
                w.u8(1);
                w.u64(resident.len() as u64);
                for (id, base, count) in resident {
                    w.u32(id);
                    w.u8(base);
                    w.u8(count);
                }
            }
        }
        let c = &self.counts;
        for v in [
            c.pt_misses,
            c.rt_misses,
            c.composed_fills,
            c.stall_cycles,
            c.reinspections,
        ] {
            w.u64(v);
        }
    }

    /// Parses a [`DiseCacheModel::save_state`] section into a model for
    /// `engine` (the restore target's), rejecting state its geometry or
    /// rule set cannot hold. Mutates nothing.
    pub(crate) fn read_state(r: &mut Reader<'_>, engine: &DiseEngine) -> Result<DiseCacheModel> {
        let corrupt =
            |why: String| SimError::Snapshot(format!("DISE table section rejected: {why}"));
        let mut model = DiseCacheModel::new(engine);
        let rules = engine.controller().productions().rules();
        let n = r.len_prefix(8)?;
        if n > model.config.pt_entries {
            return Err(corrupt(format!(
                "snapshot holds {n} PT-resident rules but the engine has {} PT entries",
                model.config.pt_entries
            )));
        }
        for _ in 0..n {
            let idx = r.u64()? as usize;
            if idx >= rules.len() {
                return Err(corrupt(format!(
                    "PT-resident rule index {idx} out of range ({} rules installed)",
                    rules.len()
                )));
            }
            if model.pt.contains(&idx) {
                return Err(corrupt(format!(
                    "PT-resident rule index {idx} appears twice"
                )));
            }
            model.pt.push(idx);
            for o in rules[idx].pattern.opcodes() {
                model.counters[o.number() as usize].1 += 1;
            }
        }
        // A live RT key must be a whole block of a sequence the engine
        // still resolves: `count` in 1..=block, `base` block-aligned, and
        // the block within the resolved length.
        let block = model.rt.block();
        let check_key = |id: ReplacementId, base: u8, count: u8| -> Result<()> {
            let (len, _) = engine
                .resolved_len(id)
                .ok_or_else(|| corrupt(format!("RT-resident sequence R{id} no longer resolves")))?;
            let (b, n) = (base as usize, count as usize);
            if n == 0 || n > block || !b.is_multiple_of(block) || b + n > len as usize {
                return Err(corrupt(format!(
                    "RT entry for R{id} base {base} count {count} is not a block of the \
                     resolved sequence (length {len}, {block}-instruction blocks)"
                )));
            }
            Ok(())
        };
        match (&mut model.rt, r.u8()?) {
            (
                RtStore::Cache {
                    keys,
                    stamps,
                    clock,
                    ..
                },
                0,
            ) => {
                let n = r.len_prefix(16)?;
                if n != keys.len() {
                    return Err(corrupt(format!(
                        "RT geometry mismatch: snapshot has {n} slots, engine config allocates {}",
                        keys.len()
                    )));
                }
                for k in keys.iter_mut() {
                    *k = r.u64()?;
                    if *k != 0 {
                        check_key((*k >> 16) as ReplacementId, (*k >> 8) as u8, *k as u8)?;
                    }
                }
                for v in stamps.iter_mut() {
                    *v = r.u64()?;
                }
                *clock = r.u64()?;
            }
            (RtStore::Perfect { lens, .. }, 1) => {
                // A sequence's blocks must cover it contiguously from 0,
                // as a whole-sequence fill leaves them: every block but
                // the last full.
                let mut blocks = Vec::new();
                for _ in 0..r.len_prefix(6)? {
                    let (id, base, count) = (r.u32()?, r.u8()?, r.u8()?);
                    check_key(id, base, count)?;
                    blocks.push((id, base, count));
                }
                blocks.sort_unstable();
                for &(id, base, count) in &blocks {
                    let filled = lens.get(&id).copied().unwrap_or(0);
                    if base != filled || !(filled as usize).is_multiple_of(block) {
                        return Err(corrupt(format!(
                            "perfect-RT block of R{id} at base {base} (count {count}) does \
                             not continue its sequence's blocks, which cover 0..{filled}"
                        )));
                    }
                    lens.insert(id, filled + count);
                }
            }
            (_, tag @ (0 | 1)) => {
                return Err(corrupt(format!(
                    "snapshot RT organization (tag {tag}) does not match the engine's {:?}",
                    model.config.rt_org
                )))
            }
            (_, tag) => return Err(corrupt(format!("unknown RT organization tag {tag}"))),
        }
        let mut count = || r.u64();
        model.counts = MissCounts {
            pt_misses: count()?,
            rt_misses: count()?,
            composed_fills: count()?,
            stall_cycles: count()?,
            reinspections: count()?,
        };
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::{
        ImmDirective, InstSpec, OpDirective, Pattern, ProductionSet, RegDirective, ReplacementSpec,
    };
    use dise_isa::{Inst, OpClass, Reg};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// `len` parameterized ALU instructions (valid for codeword triggers).
    fn aware_spec(len: usize) -> ReplacementSpec {
        ReplacementSpec::new(vec![
            InstSpec::Templated {
                op: OpDirective::Literal(Op::Addq),
                ra: RegDirective::Param(0),
                rb: RegDirective::Literal(Reg::ZERO),
                rc: RegDirective::Param(1),
                imm: ImmDirective::Literal(0),
                uses_lit: false,
                dise_branch: false,
            };
            len
        ])
    }

    fn step(dise: DiseRef, disepc: u8) -> StepInfo {
        StepInfo {
            disepc,
            dise,
            ..StepInfo::default()
        }
    }

    /// A pass-through step: `op` was inspected and not expanded.
    fn pass(op: Op) -> StepInfo {
        StepInfo {
            inst: Inst { op, ..Inst::nop() },
            ..step(DiseRef::Pass, 0)
        }
    }

    /// Drives `engine` and `model` through one fetch of `inst` the way
    /// the machine and simulator do: inspect, then one step per µop.
    /// Returns the fetch's total stall.
    fn fetch(engine: &mut DiseEngine, model: &mut DiseCacheModel, inst: &Inst) -> u64 {
        match engine.inspect(inst) {
            dise_core::Expansion::None => model.observe(&pass(inst.op), engine),
            dise_core::Expansion::Expand { id, len } => (0..len)
                .map(|d| {
                    engine.fetch_replacement(id, d, inst, 0x1000).unwrap();
                    let inspected = (d == 0).then_some(inst.op);
                    model.observe(&step(DiseRef::Uop { id, inspected }, d), engine)
                })
                .sum(),
            other => panic!("unexpected {other:?}"),
        }
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
        let mut m = DiseCacheModel::new(&e);
        let st: Inst = "stq r1, 0(r2)".parse().unwrap();
        // Cold PT, then cold RT: two 30-cycle misses, two re-inspections.
        assert_eq!(fetch(&mut e, &mut m, &st), 60);
        let s = m.engine_stats(&e);
        assert_eq!((s.pt_misses, s.rt_misses, s.stall_cycles), (1, 1, 60));
        assert_eq!((s.inspected, s.expansions, s.replacement_insts), (3, 1, 2));
        // Warm: no stall, one inspection.
        assert_eq!(fetch(&mut e, &mut m, &st), 0);
        let s = m.engine_stats(&e);
        assert_eq!((s.pt_misses, s.rt_misses, s.inspected), (1, 1, 4));
        // Loads are covered by no rule: never a PT miss.
        assert_eq!(fetch(&mut e, &mut m, &"ldq r1, 0(r2)".parse().unwrap()), 0);
    }

    #[test]
    fn rt_capacity_causes_repeat_misses() {
        // A 2-entry direct-mapped RT with two 2-instruction sequences
        // thrashes; a perfect RT misses each sequence once.
        let misses = |config: EngineConfig| {
            let mut set = ProductionSet::new();
            set.add_aware(Op::Cw0, 0, aware_spec(2)).unwrap();
            set.add_aware(Op::Cw0, 1, aware_spec(2)).unwrap();
            let mut e = DiseEngine::with_productions(config, set).unwrap();
            let mut m = DiseCacheModel::new(&e);
            for _ in 0..8 {
                for tag in 0..2 {
                    fetch(&mut e, &mut m, &Inst::codeword(Op::Cw0, 1, 2, 0, tag));
                }
            }
            m.engine_stats(&e).rt_misses
        };
        let tiny = misses(EngineConfig {
            rt_entries: 2,
            rt_org: RtOrganization::DirectMapped,
            ..EngineConfig::default()
        });
        assert!(
            tiny > 2,
            "expected thrashing in a tiny RT, got {tiny} misses"
        );
        assert_eq!(misses(EngineConfig::default().perfect_rt()), 2);
    }

    #[test]
    fn tiny_pt_thrashes_but_expansions_stay_architectural() {
        // Four single-opcode rules through a two-entry PT.
        let mut set = ProductionSet::new();
        for op in [Op::Ldq, Op::Stq, Op::Addq, Op::Mulq] {
            set.add_transparent(
                Pattern::opcode(op),
                ReplacementSpec::new(vec![InstSpec::Trigger, InstSpec::Trigger]),
            )
            .unwrap();
        }
        let config = EngineConfig {
            pt_entries: 2,
            ..EngineConfig::default()
        };
        let mut e = DiseEngine::with_productions(config, set).unwrap();
        let mut m = DiseCacheModel::new(&e);
        let insts: Vec<Inst> = [
            "ldq r1, 0(r2)",
            "stq r1, 0(r2)",
            "addq r1, r2, r3",
            "mulq r1, r2, r3",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        for _ in 0..4 {
            for inst in &insts {
                fetch(&mut e, &mut m, inst);
            }
        }
        let s = m.engine_stats(&e);
        assert_eq!(s.expansions, 16);
        assert_eq!(s.pt_misses, 16, "every fetch faults its rule back in");
    }

    #[test]
    fn block_coalescing_fragments_the_rt() {
        // Four 3-instruction sequences cycling through a fully
        // associative 12-slot RT: they fit exactly one instruction per
        // entry, but in 4-instruction blocks each wastes a slot, only
        // three fit, and LRU thrashes.
        let run = |block: u32| {
            let mut set = ProductionSet::new();
            for tag in 0..4u16 {
                set.add_aware(Op::Cw0, tag, aware_spec(3)).unwrap();
            }
            let config = EngineConfig {
                rt_entries: 12,
                rt_org: RtOrganization::SetAssociative(12 / block),
                rt_block: block,
                ..EngineConfig::default()
            };
            let mut e = DiseEngine::with_productions(config, set).unwrap();
            let mut m = DiseCacheModel::new(&e);
            for _ in 0..4 {
                for tag in 0..4u16 {
                    fetch(&mut e, &mut m, &Inst::codeword(Op::Cw0, 1, 2, 0, tag));
                }
            }
            m.engine_stats(&e).rt_misses
        };
        assert_eq!(run(1), 4, "only compulsory misses");
        assert_eq!(run(4), 16, "every fetch misses");
    }

    #[test]
    fn context_switch_is_a_pure_performance_event() {
        let mut e = engine_with_store_rule(EngineConfig::default());
        let mut m = DiseCacheModel::new(&e);
        let st: Inst = "stq r1, 0(r2)".parse().unwrap();
        fetch(&mut e, &mut m, &st);
        let before = m.engine_stats(&e);
        m.context_switch();
        assert_eq!(fetch(&mut e, &mut m, &st), 60, "both tables refill");
        let after = m.engine_stats(&e);
        assert_eq!(
            after.pt_misses + after.rt_misses,
            before.pt_misses + before.rt_misses + 2,
            "context switch costs exactly one refill of each table"
        );
        assert_eq!(after.expansions, before.expansions + 1);
    }

    #[test]
    fn installs_invalidate_and_activate() {
        let mut e = DiseEngine::new(EngineConfig::default());
        let id = e.install_aware(Op::Cw0, 0, aware_spec(2)).unwrap();
        let mut m = DiseCacheModel::new(&e);
        let cw = Inst::codeword(Op::Cw0, 1, 2, 0, 0);
        assert_eq!(fetch(&mut e, &mut m, &cw), 60);
        assert_eq!(fetch(&mut e, &mut m, &cw), 0);
        // Reinstalling the sequence drops it from the RT only: the
        // shorter sequence refills rather than hitting the stale entries.
        e.install_aware(Op::Cw0, 0, aware_spec(1)).unwrap();
        assert_eq!(fetch(&mut e, &mut m, &cw), 30);
        assert!(!m.rt.touch(id, 1), "refilled at the new length");
        // A new transparent rule is faulted into the PT on next use.
        let st: Inst = "stq r1, 0(r2)".parse().unwrap();
        assert_eq!(fetch(&mut e, &mut m, &st), 0);
        e.install_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
            .unwrap();
        assert_eq!(fetch(&mut e, &mut m, &st), 60);
        let s = m.engine_stats(&e);
        assert_eq!((s.pt_misses, s.rt_misses), (2, 3));
    }

    fn round_trip(
        model: &DiseCacheModel,
        engine: &DiseEngine,
    ) -> (Vec<u8>, Result<DiseCacheModel>) {
        let mut w = Writer::new();
        model.save_state(&mut w, engine);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let restored = DiseCacheModel::read_state(&mut r, engine);
        if restored.is_ok() {
            r.finish().unwrap();
        }
        (bytes, restored)
    }

    /// Warm a model (PT + RT resident, misses accumulated), save it, and
    /// read it back for a freshly built engine: every observable —
    /// stalls, statistics, and the re-saved state itself — must match
    /// the original.
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
        let codewords: Vec<Inst> = (0..6)
            .map(|t| Inst::codeword(Op::Cw0, 1, 2, 0, t))
            .collect();
        let build = |config| {
            let mut set = ProductionSet::new();
            set.add_transparent(Pattern::opclass(OpClass::Store), two_inst_spec())
                .unwrap();
            for tag in 0..6 {
                set.add_aware(Op::Cw0, tag, aware_spec(1 + tag as usize % 3))
                    .unwrap();
            }
            DiseEngine::with_productions(config, set).unwrap()
        };
        let st: Inst = "stq r1, 0(r2)".parse().unwrap();
        for config in configs {
            let mut warm_engine = build(config);
            let mut warm = DiseCacheModel::new(&warm_engine);
            for cw in codewords.iter().chain([&st]) {
                fetch(&mut warm_engine, &mut warm, cw);
            }
            let mut cold_engine = build(config);
            let (bytes, cold) = round_trip(&warm, &cold_engine);
            let mut cold = cold.unwrap();
            assert_eq!(
                round_trip(&cold, &cold_engine).0,
                bytes,
                "{config:?}: re-save diverged"
            );
            for round in 0..4 {
                for cw in codewords.iter().rev().chain([&st]) {
                    assert_eq!(
                        fetch(&mut warm_engine, &mut warm, cw),
                        fetch(&mut cold_engine, &mut cold, cw),
                        "{config:?} round {round}: stall"
                    );
                }
            }
            assert_eq!(
                warm.engine_stats(&warm_engine).rt_misses,
                cold.engine_stats(&cold_engine).rt_misses,
                "{config:?}"
            );
            assert_eq!(
                round_trip(&warm, &warm_engine).0,
                round_trip(&cold, &cold_engine).0
            );
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
        let mut e = engine_with_store_rule(small);
        let mut m = DiseCacheModel::new(&e);
        fetch(&mut e, &mut m, &"stq r1, 0(r2)".parse().unwrap());
        let err = |target: &DiseEngine, model: &DiseCacheModel| {
            let mut w = Writer::new();
            model.save_state(&mut w, &e);
            let bytes = w.into_bytes();
            DiseCacheModel::read_state(&mut Reader::new(&bytes), target)
                .unwrap_err()
                .to_string()
        };
        let bigger = engine_with_store_rule(EngineConfig {
            rt_entries: 16,
            ..small
        });
        let msg = err(&bigger, &m);
        assert!(
            msg.contains("RT geometry mismatch") && msg.contains("slots"),
            "{msg}"
        );
        let perfect = engine_with_store_rule(small.perfect_rt());
        let msg = err(&perfect, &m);
        assert!(
            msg.contains("organization") && msg.contains("Perfect"),
            "{msg}"
        );
        let mut bad = m.clone();
        bad.pt = vec![7];
        let msg = err(&e, &bad);
        assert!(
            msg.contains("rule index 7") && msg.contains("out of range"),
            "{msg}"
        );
        bad.pt = vec![0, 0];
        let msg = err(&e, &bad);
        assert!(msg.contains("appears twice"), "{msg}");

        // RT keys naming a sequence the production set doesn't hold, or
        // a block past the resolved sequence's end.
        let mut bad = m.clone();
        let RtStore::Cache { keys, .. } = &mut bad.rt else {
            unreachable!("a direct-mapped RT is a cache")
        };
        let live = keys.iter().position(|&k| k != 0).unwrap();
        let key = keys[live];
        keys[live] = 999 << 16 | (key & 0xFFFF);
        let msg = err(&e, &bad);
        assert!(
            msg.contains("R999") && msg.contains("no longer resolves"),
            "{msg}"
        );
        let RtStore::Cache { keys, .. } = &mut bad.rt else {
            unreachable!()
        };
        keys[live] = key | 9 << 8;
        let msg = err(&e, &bad);
        assert!(
            msg.contains("base 9") && msg.contains("not a block"),
            "{msg}"
        );

        // Perfect-RT sections: a base off the block grid, and blocks
        // that do not cover a sequence contiguously from 0.
        for (rt_block, blocks, want) in [
            (2, &[(0, 1, 1)][..], "not a block"),
            (1, &[(0, 1, 1)], "does not continue"),
            (1, &[(0, 0, 1), (0, 2, 1)], "does not continue"),
            (1, &[(0, 0, 1), (0, 0, 1)], "does not continue"),
            (2, &[(0, 0, 1), (0, 2, 1)], "does not continue"),
        ] {
            let mut e = DiseEngine::new(EngineConfig {
                rt_block,
                ..small.perfect_rt()
            });
            let id = e.install_aware(Op::Cw0, 0, aware_spec(3)).unwrap();
            let blocks: Vec<_> = blocks.iter().map(|&(_, b, n)| (id, b, n)).collect();
            let msg = DiseCacheModel::read_state(&mut Reader::new(&perfect_section(&blocks)), &e)
                .unwrap_err()
                .to_string();
            assert!(msg.contains(want), "block {rt_block}, {blocks:?}: {msg}");
        }
        let mut e = DiseEngine::new(small.perfect_rt());
        let id = e.install_aware(Op::Cw0, 0, aware_spec(3)).unwrap();
        let whole = perfect_section(&[(id, 2, 1), (id, 0, 1), (id, 1, 1)]);
        let model = DiseCacheModel::read_state(&mut Reader::new(&whole), &e).unwrap();
        assert_eq!(
            model.rt.contents(),
            vec![vec![(id, 0, 1), (id, 1, 1), (id, 2, 1)]]
        );
    }

    /// A [`DiseCacheModel::save_state`] section with an empty PT, zero
    /// miss counts and a perfect RT of the given `(id, base, count)`
    /// blocks, in the given order.
    fn perfect_section(blocks: &[(ReplacementId, u8, u8)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(0);
        w.u8(1);
        w.u64(blocks.len() as u64);
        for &(id, base, count) in blocks {
            w.u32(id);
            w.u8(base);
            w.u8(count);
        }
        for _ in 0..5 {
            w.u64(0);
        }
        w.into_bytes()
    }

    /// The list formulation the stamped RT claims to equal: per set, the
    /// resident `(id, base, count)` blocks, most recently referenced
    /// first; a full set evicts its last entry.
    struct RefRt {
        sets: Vec<Vec<(ReplacementId, u8, u8)>>,
        assoc: usize,
        block: u8,
        perfect: bool,
        evictions: u64,
    }

    impl RefRt {
        fn new(config: &EngineConfig) -> RefRt {
            let block = config.rt_block.max(1) as usize;
            let (num_sets, assoc, perfect) = match config.rt_org {
                RtOrganization::Perfect => (1, usize::MAX, true),
                RtOrganization::DirectMapped => ((config.rt_entries / block).max(1), 1, false),
                RtOrganization::SetAssociative(n) => {
                    let n = n as usize;
                    ((config.rt_entries / (n * block)).max(1), n, false)
                }
            };
            RefRt {
                sets: vec![Vec::new(); num_sets],
                assoc,
                block: block as u8,
                perfect,
                evictions: 0,
            }
        }

        fn locate(&self, id: ReplacementId, disepc: u8) -> (usize, u8, u8) {
            let base = disepc / self.block * self.block;
            let set = (id as usize * 37 + base as usize) % self.sets.len();
            (set, base, disepc - base)
        }

        /// Moves the block at `pos` of `set` to the front.
        fn move_to_front(&mut self, set: usize, pos: usize) {
            if !self.perfect {
                let e = self.sets[set].remove(pos);
                self.sets[set].insert(0, e);
            }
        }

        fn touch(&mut self, id: ReplacementId, disepc: u8) -> bool {
            let (set, base, off) = self.locate(id, disepc);
            let found = self.sets[set]
                .iter()
                .position(|&(i, b, n)| (i, b) == (id, base) && off < n);
            found.map(|pos| self.move_to_front(set, pos)).is_some()
        }

        fn read_after_fill(&mut self, id: ReplacementId, disepc: u8) {
            let (set, base, _) = self.locate(id, disepc);
            if let Some(pos) = self.sets[set]
                .iter()
                .position(|&(i, b, _)| (i, b) == (id, base))
            {
                self.move_to_front(set, pos);
            }
        }

        fn insert_sequence(&mut self, id: ReplacementId, len: u8) {
            for base in (0..len).step_by(self.block as usize) {
                let (set, _, _) = self.locate(id, base);
                let count = self.block.min(len - base);
                let list = &mut self.sets[set];
                if let Some(pos) = list.iter().position(|&(i, b, _)| (i, b) == (id, base)) {
                    list.remove(pos);
                } else if list.len() == self.assoc {
                    list.pop();
                    self.evictions += 1;
                }
                list.insert(0, (id, base, count));
            }
        }

        fn invalidate(&mut self, id: ReplacementId) {
            for list in &mut self.sets {
                list.retain(|&(i, _, _)| i != id);
            }
        }

        /// Every resident block, set by set, MRU first (sorted for the
        /// perfect RT, which has no order).
        fn contents(&self) -> Vec<Vec<(ReplacementId, u8, u8)>> {
            let mut sets = self.sets.clone();
            if self.perfect {
                sets[0].sort_unstable();
            }
            sets
        }
    }

    impl RtStore {
        /// [`RefRt::contents`] for the stamped store.
        fn contents(&self) -> Vec<Vec<(ReplacementId, u8, u8)>> {
            match self {
                RtStore::Perfect { lens, block, .. } => vec![RtStore::perfect_blocks(lens, *block)],
                RtStore::Cache {
                    keys,
                    stamps,
                    assoc,
                    ..
                } => keys
                    .chunks(*assoc)
                    .zip(stamps.chunks(*assoc))
                    .map(|(k, s)| {
                        let mut live: Vec<(u64, u64)> = k
                            .iter()
                            .zip(s)
                            .filter(|(&k, _)| k != 0)
                            .map(|(&k, &s)| (s, k))
                            .collect();
                        live.sort_unstable_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
                        live.iter()
                            .map(|&(_, k)| ((k >> 16) as ReplacementId, (k >> 8) as u8, k as u8))
                            .collect()
                    })
                    .collect(),
            }
        }
    }

    /// The stamped RT against [`RefRt`] under random interleavings of
    /// references, fills, aware invalidations and context switches, for
    /// every organization and block size: same hit/miss answers and the
    /// same resident blocks in the same LRU order after every operation.
    #[test]
    fn rt_matches_move_to_mru_lists() {
        let orgs = [
            (16, RtOrganization::DirectMapped),
            (16, RtOrganization::SetAssociative(2)),
            (32, RtOrganization::SetAssociative(4)),
            (0, RtOrganization::Perfect),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_4715);
        let mut checked = 0u64;
        for (entries, rt_org) in orgs {
            for rt_block in [1u32, 2, 4] {
                let config = EngineConfig {
                    rt_entries: entries,
                    rt_org,
                    rt_block,
                    ..EngineConfig::default()
                };
                // Twelve sequences of 1–7 instructions over a small
                // table, so fills keep evicting.
                let lens: Vec<u8> = (0..12).map(|_| rng.gen_range(1..=7u8)).collect();
                let mut rt = RtStore::new(&config);
                let mut reference = RefRt::new(&config);
                let mut hits = 0u64;
                let mut evictions = 0u64;
                for op in 0..3000 {
                    let id = rng.gen_range(0..lens.len() as u32);
                    let ctx = format!("{rt_org:?} block {rt_block} op {op}");
                    match rng.gen_range(0..100) {
                        0..=59 => {
                            let disepc = rng.gen_range(0..lens[id as usize]);
                            let hit = rt.touch(id, disepc);
                            assert_eq!(hit, reference.touch(id, disepc), "{ctx}: touch");
                            hits += u64::from(hit);
                            if !hit {
                                rt.insert_sequence(id, lens[id as usize]);
                                rt.read_after_fill(id, disepc);
                                reference.insert_sequence(id, lens[id as usize]);
                                reference.read_after_fill(id, disepc);
                            }
                        }
                        60..=89 => {
                            // A fill that does not follow a miss (a
                            // reference to a block the fill replaces).
                            rt.insert_sequence(id, lens[id as usize]);
                            reference.insert_sequence(id, lens[id as usize]);
                        }
                        90..=97 => {
                            rt.invalidate(id);
                            reference.invalidate(id);
                        }
                        _ => {
                            evictions += reference.evictions;
                            rt.clear();
                            reference = RefRt::new(&config);
                        }
                    }
                    assert_eq!(rt.contents(), reference.contents(), "{ctx}: contents");
                    checked += 1;
                }
                evictions += reference.evictions;
                assert!(hits > 100, "{rt_org:?} block {rt_block}: only {hits} hits");
                if rt_org != RtOrganization::Perfect {
                    assert!(
                        evictions > 100,
                        "{rt_org:?} block {rt_block}: only {evictions} evictions"
                    );
                }
            }
        }
        assert_eq!(checked, 4 * 3 * 3000);
    }

    /// The perfect RT as it was keyed before it kept one length per
    /// sequence: one entry per resident `(id, base)` block, holding the
    /// block's instruction count.
    struct BlockMapRt {
        map: std::collections::HashMap<(ReplacementId, u8), u8>,
        block: u8,
    }

    impl BlockMapRt {
        fn touch(&self, id: ReplacementId, disepc: u8) -> bool {
            let base = disepc / self.block * self.block;
            self.map
                .get(&(id, base))
                .is_some_and(|&n| disepc - base < n)
        }

        fn insert_sequence(&mut self, id: ReplacementId, len: u8) {
            for base in (0..len).step_by(self.block as usize) {
                self.map.insert((id, base), self.block.min(len - base));
            }
        }

        fn blocks(&self) -> Vec<(ReplacementId, u8, u8)> {
            let mut all: Vec<_> = self.map.iter().map(|(&(i, b), &n)| (i, b, n)).collect();
            all.sort_unstable();
            all
        }
    }

    /// The sequence-keyed perfect RT and its last-sequence memo against
    /// [`BlockMapRt`], at one and two instructions per block, under
    /// random references, fills, aware invalidations, context switches
    /// and snapshot round trips: same hit/miss answers and the same
    /// resident blocks after every operation. Half the operations go to
    /// the sequence referenced last, so the memo is hit, and a memo that
    /// outlived its entry (an invalidation or a switch) answers wrong
    /// within a few operations. Each round trip must re-save the bytes
    /// it read.
    #[test]
    fn perfect_rt_matches_a_block_keyed_map() {
        let mut rng = StdRng::seed_from_u64(0x5eed_9e4f);
        for rt_block in [1u32, 2] {
            let mut engine = DiseEngine::new(EngineConfig {
                rt_block,
                ..EngineConfig::default().perfect_rt()
            });
            let seqs: Vec<(ReplacementId, u8)> = (0..6u16)
                .map(|tag| {
                    let len = rng.gen_range(1..=7usize);
                    let id = engine.install_aware(Op::Cw0, tag, aware_spec(len)).unwrap();
                    (id, len as u8)
                })
                .collect();
            let mut model = DiseCacheModel::new(&engine);
            let mut reference = BlockMapRt {
                map: Default::default(),
                block: rt_block as u8,
            };
            let (mut last, mut hits, mut misses, mut trips) = (0, 0u64, 0u64, 0u64);
            for op in 0..4000 {
                let k = if rng.gen_bool_fair() {
                    last
                } else {
                    rng.gen_range(0..seqs.len())
                };
                let (id, len) = seqs[k];
                let ctx = format!("block {rt_block} op {op} R{id}");
                match rng.gen_range(0..100) {
                    // References, one past the end included.
                    0..=59 => {
                        let disepc = rng.gen_range(0..=len);
                        let hit = model.rt.touch(id, disepc);
                        assert_eq!(hit, reference.touch(id, disepc), "{ctx}: touch {disepc}");
                        if hit {
                            hits += 1;
                        } else if disepc < len {
                            misses += 1;
                            model.rt.insert_sequence(id, len);
                            model.rt.read_after_fill(id, disepc);
                            reference.insert_sequence(id, len);
                        }
                        last = k;
                    }
                    60..=79 => {
                        model.rt.insert_sequence(id, len);
                        reference.insert_sequence(id, len);
                        last = k;
                    }
                    80..=91 => {
                        model.rt.invalidate(id);
                        reference.map.retain(|&(i, _), _| i != id);
                    }
                    92..=96 => {
                        model.context_switch();
                        reference.map.clear();
                    }
                    _ => {
                        let (bytes, restored) = round_trip(&model, &engine);
                        model = restored.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                        assert_eq!(round_trip(&model, &engine).0, bytes, "{ctx}: re-save");
                        trips += 1;
                    }
                }
                assert_eq!(
                    model.rt.contents(),
                    vec![reference.blocks()],
                    "{ctx}: contents"
                );
            }
            assert!(
                hits > 500 && misses > 200 && trips > 50,
                "block {rt_block}: {hits} hits, {misses} misses, {trips} round trips"
            );
        }
    }

    /// The PT and pattern counters against a linear MRU list of rule
    /// indices whose counters are recomputed from scratch after every
    /// operation, under random inspects, runtime installs and context
    /// switches.
    #[test]
    fn pt_matches_a_recounted_mru_list() {
        let patterns = [
            Pattern::opclass(OpClass::Store),
            Pattern::opclass(OpClass::Load),
            Pattern::opcode(Op::Addq),
            Pattern::opcode(Op::Stq),
            Pattern::opclass(OpClass::Store).with_rs(Reg::SP),
            Pattern::opcode(Op::Mulq),
            Pattern::opclass(OpClass::IntAlu),
        ];
        let ops = [
            Op::Stq,
            Op::Stl,
            Op::Ldq,
            Op::Ldl,
            Op::Addq,
            Op::Mulq,
            Op::Subq,
            Op::Cw0,
            Op::Beq,
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_0917);
        for pt_entries in [4usize, 6, 12] {
            let config = EngineConfig {
                pt_entries,
                ..EngineConfig::default()
            };
            let mut set = ProductionSet::new();
            for p in &patterns[..3] {
                set.add_transparent(*p, ReplacementSpec::identity())
                    .unwrap();
            }
            let mut engine = DiseEngine::with_productions(config, set).unwrap();
            let mut model = DiseCacheModel::new(&engine);
            let mut list: Vec<usize> = Vec::new();
            let covers = |engine: &DiseEngine, rule: usize, op: Op| {
                engine.controller().productions().rules()[rule]
                    .pattern
                    .opcodes()
                    .contains(&op)
            };
            let mut misses = 0u64;
            for step_no in 0..2000 {
                match rng.gen_range(0..100) {
                    0..=89 => {
                        let op = ops[rng.gen_range(0..ops.len())];
                        let n_rules = engine.controller().productions().rules().len();
                        let covering: Vec<usize> =
                            (0..n_rules).filter(|&r| covers(&engine, r, op)).collect();
                        let mut expect = 0;
                        while !covering.iter().all(|r| list.contains(r)) {
                            // One fill faults in the rules missing when
                            // it starts, in rule order.
                            let missing: Vec<usize> = covering
                                .iter()
                                .copied()
                                .filter(|r| !list.contains(r))
                                .collect();
                            for r in missing {
                                if list.len() == pt_entries {
                                    list.pop();
                                }
                                list.insert(0, r);
                            }
                            expect += config.miss_penalty;
                        }
                        let got = model.observe(&pass(op), &engine);
                        assert_eq!(got, expect, "step {step_no}: {op:?} stall");
                        misses += u64::from(got > 0);
                    }
                    90..=94 if engine.controller().productions().rules().len() < patterns.len() => {
                        let next = engine.controller().productions().rules().len();
                        engine
                            .install_transparent(patterns[next], ReplacementSpec::identity())
                            .unwrap();
                        model.observe(&step(DiseRef::None, 0), &engine);
                    }
                    90..=94 => {
                        engine.install_aware(Op::Cw0, 0, aware_spec(1)).unwrap();
                        model.observe(&step(DiseRef::None, 0), &engine);
                    }
                    _ => {
                        model.context_switch();
                        list.clear();
                    }
                }
                assert_eq!(model.pt, list, "step {step_no}: PT list");
                let n_rules = engine.controller().productions().rules().len();
                for &op in Op::ALL {
                    let active = (0..n_rules).filter(|&r| covers(&engine, r, op)).count() as u16;
                    let resident = list.iter().filter(|&&r| covers(&engine, r, op)).count() as u16;
                    assert_eq!(
                        model.counters[op.number() as usize],
                        (active, resident),
                        "step {step_no}: {op:?} counters"
                    );
                }
            }
            assert!(
                misses > 50,
                "PT of {pt_entries}: only {misses} missing inspects"
            );
        }
    }
}
