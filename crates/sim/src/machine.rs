//! The functional (architectural) machine.
//!
//! [`Machine`] executes programs exactly as a DISE-enabled processor would
//! at the architectural level: every fetched instruction is inspected by
//! the attached [`DiseEngine`]; triggers are macro-expanded and their
//! replacement sequences executed under the PC:DISEPC two-level control
//! model (paper §2.1):
//!
//! * every dynamic instruction carries a `(PC, DISEPC)` pair; precise state
//!   is defined at those boundaries, so execution can be interrupted
//!   mid-sequence and resumed at the same `(PC, DISEPC)`;
//! * DISE-internal branches move the DISEPC only;
//! * application branches inside replacement sequences leave the sequence
//!   when taken (effectively predicted not-taken);
//! * one dynamic sequence can never jump into the middle of another.
//!
//! The machine also expands 2-byte codewords through a [`DedicatedDict`],
//! modeling the dedicated decoder-based decompressor the paper compares
//! against (§4.2).

use crate::mem::Memory;
use crate::{Result, SimError};
use dise_core::{DiseEngine, Expansion, ReplacementId};
use dise_isa::{Inst, Op, OpClass, Predecode, Program, Reg, TextItem};

/// The dictionary of a dedicated hardware decompressor: entry `i` is the
/// instruction sequence that a 2-byte codeword with index `i` expands to.
///
/// Entries live in one dense arena with fixed-stride slots (the stride is
/// the longest entry), so expanding a codeword is a single bounds-checked
/// slice of contiguous memory — no per-entry allocation, no pointer
/// chase — mirroring the fixed-width-copy layout bounded-length
/// dictionary compressors use for fast decompression.
#[derive(Debug, Clone, Default)]
pub struct DedicatedDict {
    /// `lens.len() * stride` instructions; entry `i` occupies
    /// `ops[i*stride..i*stride + lens[i]]`, the slack is NOPs.
    ops: Vec<Inst>,
    /// Real length of each entry.
    lens: Vec<u8>,
    /// Slot stride in instructions (the longest entry; 0 when empty).
    stride: usize,
}

impl DedicatedDict {
    /// Creates a dictionary from entries, packing them into the arena.
    pub fn new(entries: Vec<Vec<Inst>>) -> DedicatedDict {
        let stride = entries.iter().map(Vec::len).max().unwrap_or(0);
        let mut ops = Vec::with_capacity(entries.len() * stride);
        let mut lens = Vec::with_capacity(entries.len());
        for entry in &entries {
            debug_assert!(u8::try_from(entry.len()).is_ok(), "entry too long");
            lens.push(entry.len() as u8);
            ops.extend_from_slice(entry);
            ops.resize(ops.len() + stride - entry.len(), Inst::nop());
        }
        DedicatedDict { ops, lens, stride }
    }

    /// The sequence for codeword index `ix`.
    pub fn get(&self, ix: u16) -> Option<&[Inst]> {
        let len = *self.lens.get(ix as usize)? as usize;
        let at = ix as usize * self.stride;
        Some(&self.ops[at..at + len])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Arena slot stride in instructions (the longest entry).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total dictionary size in bytes (4 bytes per instruction — entries
    /// are unparameterized; arena slack is not counted).
    pub fn size_bytes(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64 * 4).sum()
    }
}

/// Machine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// Stack size in bytes; SP starts at the top of the stack segment.
    pub stack_size: u64,
    /// Use the predecoded-text fast path (and, when an engine is attached,
    /// its PC-indexed expansion cache). Purely a
    /// simulation-speed knob: results, statistics, and error behavior are
    /// bit-identical with it off.
    pub fast_path: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            stack_size: 1 << 20,
            fast_path: true,
        }
    }
}

impl MachineConfig {
    /// Disables the fast path (predecode + expansion cache) — used by
    /// differential tests and honest baseline measurements.
    pub fn slow_path(mut self) -> MachineConfig {
        self.fast_path = false;
        self
    }
}

/// What kind of control transfer a retired instruction performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctrl {
    Next,
    AppJump(u64),
    DiseJump(u8),
    Halt,
    /// A reserved codeword reached execution unexpanded; the caller
    /// reports [`SimError::UnexpandedCodeword`] and retires nothing.
    Fault,
}

/// Everything the timing model needs to know about one retired dynamic
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// Application PC (the trigger's PC for replacement instructions).
    pub pc: u64,
    /// Offset within the replacement sequence (0 for the first instruction
    /// and for ordinary application instructions).
    pub disepc: u8,
    /// The executed instruction.
    pub inst: Inst,
    /// True for instructions produced by expansion (DISE RT or dedicated
    /// dictionary) — these consume pipeline slots but are not fetched from
    /// the I-cache.
    pub is_replacement: bool,
    /// True when this step begins a new application fetch (probe the
    /// I-cache for `fetch_size` bytes at `pc`).
    pub first_of_fetch: bool,
    /// Size in bytes of the fetched item (4, or 2 for short codewords).
    pub fetch_size: u64,
    /// Length of the expansion that began here (1 when not expanded); valid
    /// when `first_of_fetch`.
    pub expansion_len: u8,
    /// An expansion began at this step (for the stall-per-expansion cost
    /// model of Figure 6).
    pub expanded: bool,
    /// For application control transfers: whether it was taken.
    pub taken: Option<bool>,
    /// Taken-branch target.
    pub target: Option<u64>,
    /// This instruction is a taken DISE-internal branch (always a redirect:
    /// DISE branches are not predicted, §2.2).
    pub dise_taken: bool,
    /// This application control transfer is eligible for branch prediction
    /// (ordinary instructions and trigger branches; non-trigger replacement
    /// branches are suppressed from prediction, §2.2).
    pub predicted: bool,
    /// Effective address for memory operations.
    pub mem_addr: Option<u64>,
    /// The DISE engine reference this step made, which the timing
    /// model replays against the PT and RT (see
    /// [`crate::DiseCacheModel`]).
    pub dise: DiseRef,
}

/// The DISE engine reference one step made: what the physical PT and RT
/// see of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiseRef {
    /// No reference: no engine is attached, or the step retired a
    /// dedicated-dictionary instruction.
    None,
    /// The engine inspected the step's instruction, and it passed
    /// through unexpanded.
    Pass,
    /// The step retired the replacement instruction at the step's
    /// `disepc` of sequence `id`.
    Uop {
        /// The replacement sequence.
        id: ReplacementId,
        /// The trigger's opcode when this step began with the engine's
        /// inspect: a new expansion, or an interrupted one re-fetched to
        /// resume at DISEPC > 0. `None` for the sequence's later steps.
        inspected: Option<Op>,
    },
}

impl Default for StepInfo {
    /// A placeholder report (a retired `nop` at PC 0) for callers that
    /// preallocate the [`Machine::step_into`] output slot.
    fn default() -> StepInfo {
        StepInfo {
            pc: 0,
            disepc: 0,
            inst: Inst::nop(),
            is_replacement: false,
            first_of_fetch: false,
            fetch_size: 4,
            expansion_len: 1,
            expanded: false,
            taken: None,
            target: None,
            dise_taken: false,
            predicted: false,
            mem_addr: None,
            dise: DiseRef::None,
        }
    }
}

/// Result of a [`Machine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Total dynamic instructions executed (application + replacement).
    pub total_insts: u64,
    /// Application instructions (fetched items) executed.
    pub app_insts: u64,
    /// True if the program executed `halt`.
    pub halted: bool,
}

impl RunResult {
    /// True if the program executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }
}

/// An expansion in flight across step boundaries. Unexpanded
/// instructions never build one: they go fetch → execute → advance
/// inside a single step.
#[derive(Debug)]
enum ExpState {
    /// A DISE expansion in progress.
    Dise {
        id: dise_core::ReplacementId,
        len: u8,
        trigger: Inst,
    },
    /// A dedicated-decompressor expansion in progress (dictionary index).
    Dedicated { ix: u16 },
}

/// Parsed, fingerprint-validated mutable state of a machine (see
/// [`Machine::read_state`]); applied with [`Machine::apply_state`].
#[derive(Debug)]
pub(crate) struct MachineState {
    regs: [u64; 64],
    pc: u64,
    disepc: u8,
    halted: bool,
    total_insts: u64,
    app_insts: u64,
    exp: Option<ExpState>,
    mem: Memory,
    /// The engine's functional counters.
    engine: Option<dise_core::EngineStats>,
}

/// Register-file slot that absorbs writes to the zero register, so
/// [`Machine::set_reg`] needs no branch and slot 31 stays 0 for
/// [`Machine::reg`] to read unconditionally. Snapshots record it as 0.
const ZERO_SINK: usize = 63;

/// The functional machine. See the module docs.
#[derive(Debug)]
pub struct Machine {
    /// Register file, padded to a power of two so `Reg::index()` (< 48 by
    /// construction) can be masked instead of bounds-checked on the hot
    /// path. Invariant: `regs[31] == 0` (r31 writes land in
    /// [`ZERO_SINK`]). Slots 48–62 are never addressed.
    regs: [u64; 64],
    /// Data memory (text is fetched from the program image).
    pub mem: Memory,
    program: Program,
    /// Per-byte-offset decode of the text segment (`None` when the fast
    /// path is disabled). The program is immutable after load, so this
    /// never goes stale; it is `Arc`-shared with every other machine in
    /// the process simulating the same image (see [`crate::arena`]).
    predecode: Option<std::sync::Arc<Predecode>>,
    pc: u64,
    disepc: u8,
    exp: Option<ExpState>,
    engine: Option<DiseEngine>,
    dedicated: Option<DedicatedDict>,
    halted: bool,
    total_insts: u64,
    app_insts: u64,
}

impl Machine {
    /// Loads a program with the default configuration: data segment
    /// initialized, SP at the top of the stack segment.
    pub fn load(program: &Program) -> Machine {
        Machine::with_config(program, MachineConfig::default())
    }

    /// Loads a program with an explicit configuration.
    pub fn with_config(program: &Program, config: MachineConfig) -> Machine {
        let mut mem = Memory::new();
        mem.store_bytes(program.data_base, &program.data_init);
        let mut regs = [0u64; 64];
        regs[Reg::SP.index()] =
            Program::segment_base(Program::STACK_SEGMENT) + config.stack_size;
        Machine {
            regs,
            mem,
            pc: program.entry,
            disepc: 0,
            exp: None,
            engine: None,
            dedicated: None,
            halted: false,
            total_insts: 0,
            app_insts: 0,
            predecode: config.fast_path.then(|| crate::arena::predecode_for(program)),
            program: program.clone(),
        }
    }

    /// Attaches a DISE engine; every subsequently fetched instruction is
    /// inspected by it. With the fast path on, the engine's expansion
    /// cache is bound to this machine's text segment, one entry per
    /// predecode slot (see [`DiseEngine::bind_text`]).
    pub fn attach_engine(&mut self, mut engine: DiseEngine) {
        let (base, slots) = self
            .predecode
            .as_ref()
            .map_or((0, 0), |pd| (pd.text_base(), pd.slot_count()));
        engine.bind_text(base, slots);
        self.engine = Some(engine);
    }

    /// Attaches a dedicated-decompressor dictionary for 2-byte codewords.
    pub fn attach_dedicated(&mut self, dict: DedicatedDict) {
        self.dedicated = Some(dict);
    }

    /// The attached engine, if any.
    pub fn engine(&self) -> Option<&DiseEngine> {
        self.engine.as_ref()
    }

    /// Mutable access to the attached engine (e.g. to reset statistics).
    pub fn engine_mut(&mut self) -> Option<&mut DiseEngine> {
        self.engine.as_mut()
    }

    /// Serializes the machine's mutable state (see [`crate::snapshot`]).
    /// The program, production set and dedicated dictionary are recorded
    /// as fingerprints only; the predecode table is derived state and not
    /// recorded at all.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::Writer) {
        w.u64(crate::arena::program_fingerprint(&self.program));
        match &self.engine {
            Some(e) => {
                w.bool(true);
                w.u64(crate::arena::controller_fingerprint(e.controller()));
            }
            None => w.bool(false),
        }
        match &self.dedicated {
            Some(d) => {
                w.bool(true);
                w.u64(crate::arena::debug_fingerprint(d));
            }
            None => w.bool(false),
        }
        for (i, &v) in self.regs.iter().enumerate() {
            w.u64(if i == ZERO_SINK { 0 } else { v });
        }
        w.u64(self.pc);
        w.u8(self.disepc);
        w.bool(self.halted);
        w.u64(self.total_insts);
        w.u64(self.app_insts);
        // Tag 1 (an unexpanded instruction) is retired: no step leaves
        // one behind, so no snapshot records it.
        match &self.exp {
            None => w.u8(0),
            Some(ExpState::Dise { id, len, trigger }) => {
                w.u8(2);
                w.u32(*id);
                w.u8(*len);
                crate::snapshot::write_inst(w, trigger);
                // A retired optional field (the trigger's raw word): always
                // written absent and skipped when present, so the layout
                // and `SNAPSHOT_VERSION` are unchanged.
                w.bool(false);
            }
            Some(ExpState::Dedicated { ix }) => {
                w.u8(3);
                w.u32(*ix as u32);
            }
        }
        self.mem.save_state(w);
        if let Some(e) = &self.engine {
            let s = e.stats();
            for v in [s.inspected, s.expansions, s.replacement_insts] {
                w.u64(v);
            }
        }
    }

    /// Parses a [`Machine::save_state`] section, checking the recorded
    /// fingerprints against this machine's scenario. Mutates nothing —
    /// the caller applies the returned state only once the whole snapshot
    /// has validated.
    pub(crate) fn read_state(
        &self,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<MachineState> {
        crate::snapshot::check_fingerprint(
            "program image",
            r.u64()?,
            crate::arena::program_fingerprint(&self.program),
        )?;
        let snap_engine = r.bool()?;
        match (snap_engine, &self.engine) {
            (true, Some(e)) => crate::snapshot::check_fingerprint(
                "production set",
                r.u64()?,
                crate::arena::controller_fingerprint(e.controller()),
            )?,
            (false, None) => {}
            (true, None) => {
                return Err(SimError::Snapshot(
                    "the snapshot was taken with a DISE engine attached but the restore \
                     target has none; attach the identical engine before restoring"
                        .into(),
                ))
            }
            (false, Some(_)) => {
                return Err(SimError::Snapshot(
                    "the snapshot was taken without a DISE engine but the restore target \
                     has one attached; restore into an engine-less machine"
                        .into(),
                ))
            }
        }
        let snap_dedicated = r.bool()?;
        match (snap_dedicated, &self.dedicated) {
            (true, Some(d)) => crate::snapshot::check_fingerprint(
                "dedicated dictionary",
                r.u64()?,
                crate::arena::debug_fingerprint(d),
            )?,
            (false, None) => {}
            (true, None) => {
                return Err(SimError::Snapshot(
                    "the snapshot was taken with a dedicated dictionary attached but the \
                     restore target has none; attach the identical dictionary first"
                        .into(),
                ))
            }
            (false, Some(_)) => {
                return Err(SimError::Snapshot(
                    "the snapshot was taken without a dedicated dictionary but the restore \
                     target has one attached; restore into a machine without one"
                        .into(),
                ))
            }
        }
        let mut regs = [0u64; 64];
        for v in regs.iter_mut() {
            *v = r.u64()?;
        }
        // The hot path reads r31 from its slot and parks r31 writes in
        // the sink, so a nonzero value in either would change results.
        for (slot, what) in [(Reg::ZERO.index(), "value"), (ZERO_SINK, "write-sink slot")] {
            if regs[slot] != 0 {
                return Err(SimError::Snapshot(format!(
                    "snapshot corrupt: r31 {what} is {:#x}, must be 0",
                    regs[slot]
                )));
            }
        }
        let pc = r.u64()?;
        let disepc = r.u8()?;
        let halted = r.bool()?;
        let total_insts = r.u64()?;
        let app_insts = r.u64()?;
        let exp = match r.u8()? {
            0 => None,
            2 => {
                let id = r.u32()?;
                let len = r.u8()?;
                let trigger = crate::snapshot::read_inst(r)?;
                if r.bool()? {
                    r.u32()?;
                }
                Some(ExpState::Dise { id, len, trigger })
            }
            3 => {
                let ix = r.u32()?;
                let ix = u16::try_from(ix).map_err(|_| {
                    SimError::Snapshot(format!(
                        "snapshot corrupt: dedicated codeword index {ix} exceeds u16"
                    ))
                })?;
                Some(ExpState::Dedicated { ix })
            }
            other => {
                return Err(SimError::Snapshot(format!(
                    "snapshot corrupt: unknown expansion-state tag {other}"
                )))
            }
        };
        let mem = Memory::read_state(r)?;
        let engine = if snap_engine {
            Some(dise_core::EngineStats {
                inspected: r.u64()?,
                expansions: r.u64()?,
                replacement_insts: r.u64()?,
                ..dise_core::EngineStats::default()
            })
        } else {
            None
        };
        Ok(MachineState {
            regs,
            pc,
            disepc,
            halted,
            total_insts,
            app_insts,
            exp,
            mem,
            engine,
        })
    }

    /// Installs a parsed state.
    pub(crate) fn apply_state(&mut self, state: MachineState) {
        if let Some(stats) = state.engine {
            self.engine
                .as_mut()
                .expect("engine presence was validated in read_state")
                .set_stats(stats);
        }
        self.regs = state.regs;
        self.pc = state.pc;
        self.disepc = state.disepc;
        self.halted = state.halted;
        self.total_insts = state.total_insts;
        self.app_insts = state.app_insts;
        self.exp = state.exp;
        self.mem = state.mem;
    }

    /// Reads a register (the zero register reads 0: its slot is never
    /// written).
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() & 63]
    }

    /// Writes a register (writes to the zero register are discarded:
    /// they land in [`ZERO_SINK`], which nothing reads).
    #[inline]
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        let i = r.index();
        let slot = if i == Reg::ZERO.index() {
            ZERO_SINK
        } else {
            i & 63
        };
        self.regs[slot] = value;
    }

    /// The current `(PC, DISEPC)` pair.
    pub fn pc(&self) -> (u64, u8) {
        (self.pc, self.disepc)
    }

    /// Overrides the PC, resetting any in-flight expansion and clearing a
    /// halt — the hook an external "OS handler" uses to restart execution
    /// (e.g. a DSM protocol handler resuming a trapped access).
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
        self.disepc = 0;
        self.exp = None;
        self.halted = false;
    }

    /// True once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Counts of executed instructions `(total, application)`.
    pub fn inst_counts(&self) -> (u64, u64) {
        (self.total_insts, self.app_insts)
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Simulates an interrupt at the current `(PC, DISEPC)`: in-flight
    /// expansion state is discarded exactly as a pipeline flush would, and
    /// the next [`Machine::step`] re-fetches PC and re-expands starting at
    /// DISEPC (precise-state model, §2.1).
    pub fn interrupt(&mut self) {
        self.exp = None;
    }

    /// Executes one dynamic instruction. Returns `None` once halted.
    ///
    /// # Errors
    ///
    /// Fails on fetch errors, unexpandable codewords, or engine errors.
    pub fn step(&mut self) -> Result<Option<StepInfo>> {
        let mut out = StepInfo::default();
        Ok(self.step_inner::<true>(&mut out)?.then_some(out))
    }

    /// Executes one dynamic instruction, filling a caller-owned report in
    /// place. Returns `false` once halted (leaving `out` untouched).
    ///
    /// Timing-oriented variant of [`Machine::step`]: the ~90-byte
    /// [`StepInfo`] is written straight into the caller's slot instead of
    /// being moved through `Result<Option<StepInfo>>` on every retired
    /// instruction — the cycle-level simulator's oracle loop reuses one
    /// slot for an entire run.
    ///
    /// # Errors
    ///
    /// Fails on fetch errors, unexpandable codewords, or engine errors.
    #[inline(always)]
    pub fn step_into(&mut self, out: &mut StepInfo) -> Result<bool> {
        self.step_inner::<true>(out)
    }

    /// The step body, monomorphized on whether the caller wants a
    /// [`StepInfo`]. [`Machine::run`] only needs halt/continue, so its
    /// instantiation drops the report assembly (and everything feeding
    /// only it) at compile time; execution is otherwise identical.
    /// Returns `false` once halted; `out` is filled iff `INFO` and a step
    /// retired.
    ///
    /// An unexpanded instruction goes fetch → execute → advance within
    /// this call and never touches `exp`. Only an expansion is parked
    /// there, for the steps that retire the rest of its sequence.
    /// Inlined into each caller's loop (`run`, and through `step_into`
    /// the timing simulator's), so the report is filled in place.
    #[inline(always)]
    fn step_inner<const INFO: bool>(&mut self, out: &mut StepInfo) -> Result<bool> {
        if self.halted {
            return Ok(false);
        }
        if self.exp.is_some() {
            return self.step_expansion::<INFO>(out, false, false, None);
        }
        // A fetch: it begins a new application item unless it re-fetches
        // an interrupted sequence to resume at DISEPC > 0.
        let first_of_fetch = self.disepc == 0;
        // Fast path: the predecoded text table. Misses (no table, or an
        // undecodable/out-of-range PC) fall back to the byte-accurate
        // `fetch`, which either succeeds identically or produces the
        // exact architectural error.
        let item = match self.predecode.as_ref().and_then(|p| p.get(self.pc)) {
            Some(item) => item,
            None => self.program.fetch(self.pc)?,
        };
        let inst = match item {
            TextItem::Inst(inst) => inst,
            TextItem::Short(ix) => {
                if self.dedicated.as_ref().is_none_or(|d| d.get(ix).is_none()) {
                    return Err(SimError::BadShortCodeword {
                        pc: self.pc,
                        index: ix,
                    });
                }
                self.exp = Some(ExpState::Dedicated { ix });
                return self.step_expansion::<INFO>(out, first_of_fetch, false, None);
            }
        };
        let mut dise = DiseRef::None;
        if let Some(engine) = self.engine.as_mut() {
            // A fetch that fell back to `Program::fetch` is at an odd PC
            // (even ones either predecode or fail to fetch), or on a
            // machine without a predecode table, whose engine stays
            // unbound. The engine's PC-keyed entry points take the live
            // path for both.
            match engine.inspect_at(&inst, self.pc) {
                Expansion::Fault { .. } => {
                    return Err(SimError::UnexpandedCodeword { pc: self.pc })
                }
                Expansion::None => dise = DiseRef::Pass,
                Expansion::Expand { id, len } => {
                    let expanded = self.disepc == 0;
                    self.exp = Some(ExpState::Dise {
                        id,
                        len,
                        trigger: inst,
                    });
                    return self.step_expansion::<INFO>(
                        out,
                        first_of_fetch,
                        expanded,
                        Some(inst.op),
                    );
                }
            }
        }

        // Unexpanded: execute and advance in place.
        let (ctrl, mem_addr, taken) = self.exec(inst, 4);
        if ctrl == Ctrl::Fault {
            return Err(SimError::UnexpandedCodeword { pc: self.pc });
        }
        self.total_insts += 1;
        self.app_insts += u64::from(first_of_fetch);
        if INFO {
            *out = StepInfo {
                pc: self.pc,
                disepc: self.disepc,
                inst,
                is_replacement: false,
                first_of_fetch,
                fetch_size: 4,
                expansion_len: 1,
                expanded: false,
                taken,
                target: match ctrl {
                    Ctrl::AppJump(t) => Some(t),
                    _ => None,
                },
                dise_taken: matches!(ctrl, Ctrl::DiseJump(_)),
                predicted: true,
                mem_addr,
                dise,
            };
        }
        match ctrl {
            Ctrl::Next => {
                self.pc += 4;
                self.disepc = 0;
            }
            Ctrl::AppJump(t) => {
                self.pc = t;
                self.disepc = 0;
            }
            Ctrl::Halt => self.halted = true,
            // Fetched text holds no DISE branches (they have no encoding),
            // so this arm is for completeness only.
            Ctrl::DiseJump(ix) => self.disepc = ix,
            Ctrl::Fault => unreachable!("faults return above"),
        }
        Ok(true)
    }

    /// Retires the next instruction of the expansion in flight in `exp`
    /// (a DISE replacement sequence or a dedicated dictionary entry).
    /// `first_of_fetch`, `expanded` and `inspected` (the trigger's
    /// opcode) describe the fetch that began it when this is that
    /// fetch's step, and are `false`/`false`/`None` otherwise.
    fn step_expansion<const INFO: bool>(
        &mut self,
        out: &mut StepInfo,
        first_of_fetch: bool,
        expanded: bool,
        inspected: Option<Op>,
    ) -> Result<bool> {
        let exp = self.exp.as_ref().expect("an expansion is in flight");
        let (inst, len, fetch_size, trigger_inst, dise) = match *exp {
            ExpState::Dise { id, len, trigger } => {
                let engine = self.engine.as_mut().expect("Dise expansion needs engine");
                let inst = engine.fetch_replacement_at(id, self.disepc, &trigger, self.pc)?;
                (inst, len, 4u64, Some(trigger), DiseRef::Uop { id, inspected })
            }
            ExpState::Dedicated { ix } => {
                let insts = self
                    .dedicated
                    .as_ref()
                    .expect("dictionary checked at fetch")
                    .get(ix)
                    .expect("dictionary checked at fetch");
                let ix = self.disepc as usize;
                (insts[ix], insts.len() as u8, 2, None, DiseRef::None)
            }
        };

        let (ctrl, mem_addr, taken) = self.exec(inst, fetch_size);
        if ctrl == Ctrl::Fault {
            return Err(SimError::UnexpandedCodeword { pc: self.pc });
        }
        self.total_insts += 1;
        self.app_insts += u64::from(first_of_fetch);

        // Prediction eligibility: the trigger instance (T.INSN) and the
        // *final* instruction of a replacement sequence (it determines the
        // next fetch PC, so the front end predicts it at the trigger's
        // address — this is what makes compressed sequence-terminating
        // branches predictable). Sequence-internal branches are never
        // predicted (§2.2): taken ones redirect, untaken ones are free.
        if INFO {
            *out = StepInfo {
                pc: self.pc,
                disepc: self.disepc,
                inst,
                is_replacement: len > 1,
                first_of_fetch,
                fetch_size,
                expansion_len: len,
                expanded,
                taken,
                target: match ctrl {
                    Ctrl::AppJump(t) => Some(t),
                    _ => None,
                },
                dise_taken: matches!(ctrl, Ctrl::DiseJump(_)),
                predicted: trigger_inst == Some(inst) || self.disepc + 1 == len,
                mem_addr,
                dise,
            };
        }

        // Advance (PC, DISEPC).
        match ctrl {
            Ctrl::Halt => {
                self.halted = true;
                self.exp = None;
            }
            Ctrl::AppJump(t) => {
                self.pc = t;
                self.disepc = 0;
                self.exp = None;
            }
            Ctrl::DiseJump(ix) => {
                self.disepc = ix;
            }
            Ctrl::Next => {
                if self.disepc + 1 < len {
                    self.disepc += 1;
                } else {
                    self.pc += fetch_size;
                    self.disepc = 0;
                    self.exp = None;
                }
            }
            Ctrl::Fault => unreachable!("faults return above"),
        }
        Ok(true)
    }

    /// Runs until halt or `max_steps` dynamic instructions.
    ///
    /// # Errors
    ///
    /// Propagates step errors; returns [`SimError::OutOfFuel`] if the
    /// budget is exhausted first.
    pub fn run(&mut self, max_steps: u64) -> Result<RunResult> {
        let mut out = StepInfo::default();
        let mut fuel = max_steps;
        loop {
            if self.halted {
                return Ok(RunResult {
                    total_insts: self.total_insts,
                    app_insts: self.app_insts,
                    halted: true,
                });
            }
            if fuel == 0 {
                return Err(SimError::OutOfFuel);
            }
            if self.step_inner::<false>(&mut out)? {
                fuel -= 1;
            }
        }
    }

    /// Executes one instruction's semantics, returning control outcome,
    /// effective address, and taken-ness (for application control). A
    /// codeword returns [`Ctrl::Fault`] and changes nothing. Inlined into
    /// both step paths: it runs once per retired instruction.
    #[inline(always)]
    fn exec(&mut self, inst: Inst, item_size: u64) -> (Ctrl, Option<u64>, Option<bool>) {
        use Op::*;
        let mut mem_addr = None;
        let mut taken = None;
        let ra = self.reg(inst.ra);
        let rb = self.reg(inst.rb);
        let next_pc = self.pc + item_size;
        let imm = inst.imm;
        let op2 = if inst.uses_lit { imm as u64 } else { rb };

        let ctrl = match inst.op {
            Halt => Ctrl::Halt,
            Nop => Ctrl::Next,
            Lda => {
                self.set_reg(inst.ra, rb.wrapping_add_signed(imm));
                Ctrl::Next
            }
            Ldah => {
                self.set_reg(inst.ra, rb.wrapping_add_signed(imm << 16));
                Ctrl::Next
            }
            Ldl => {
                let addr = rb.wrapping_add_signed(imm);
                mem_addr = Some(addr);
                let v = self.mem.load_u32(addr) as i32 as i64 as u64;
                self.set_reg(inst.ra, v);
                Ctrl::Next
            }
            Ldq => {
                let addr = rb.wrapping_add_signed(imm);
                mem_addr = Some(addr);
                let v = self.mem.load_u64(addr);
                self.set_reg(inst.ra, v);
                Ctrl::Next
            }
            Stl => {
                let addr = rb.wrapping_add_signed(imm);
                mem_addr = Some(addr);
                self.mem.store_u32(addr, ra as u32);
                Ctrl::Next
            }
            Stq => {
                let addr = rb.wrapping_add_signed(imm);
                mem_addr = Some(addr);
                self.mem.store_u64(addr, ra);
                Ctrl::Next
            }
            Br | Bsr => {
                self.set_reg(inst.ra, next_pc);
                taken = Some(true);
                Ctrl::AppJump(next_pc.wrapping_add_signed(imm))
            }
            Beq | Bne | Blt | Ble | Bgt | Bge | Blbc | Blbs => {
                let cond = match inst.op {
                    Beq => ra == 0,
                    Bne => ra != 0,
                    Blt => (ra as i64) < 0,
                    Ble => (ra as i64) <= 0,
                    Bgt => (ra as i64) > 0,
                    Bge => (ra as i64) >= 0,
                    Blbc => ra & 1 == 0,
                    Blbs => ra & 1 == 1,
                    _ => unreachable!(),
                };
                if inst.dise_branch {
                    if cond {
                        Ctrl::DiseJump(imm as u8)
                    } else {
                        Ctrl::Next
                    }
                } else {
                    taken = Some(cond);
                    if cond {
                        Ctrl::AppJump(next_pc.wrapping_add_signed(imm))
                    } else {
                        Ctrl::Next
                    }
                }
            }
            Jmp | Jsr | Ret => {
                self.set_reg(inst.ra, next_pc);
                taken = Some(true);
                Ctrl::AppJump(rb)
            }
            Addq => {
                self.set_reg(inst.rc, ra.wrapping_add(op2));
                Ctrl::Next
            }
            Subq => {
                self.set_reg(inst.rc, ra.wrapping_sub(op2));
                Ctrl::Next
            }
            Addl => {
                self.set_reg(inst.rc, (ra as u32).wrapping_add(op2 as u32) as i32 as i64 as u64);
                Ctrl::Next
            }
            Subl => {
                self.set_reg(inst.rc, (ra as u32).wrapping_sub(op2 as u32) as i32 as i64 as u64);
                Ctrl::Next
            }
            S4addq => {
                self.set_reg(inst.rc, (ra << 2).wrapping_add(op2));
                Ctrl::Next
            }
            S8addq => {
                self.set_reg(inst.rc, (ra << 3).wrapping_add(op2));
                Ctrl::Next
            }
            Mulq => {
                self.set_reg(inst.rc, ra.wrapping_mul(op2));
                Ctrl::Next
            }
            And => {
                self.set_reg(inst.rc, ra & op2);
                Ctrl::Next
            }
            Bis => {
                self.set_reg(inst.rc, ra | op2);
                Ctrl::Next
            }
            Xor => {
                self.set_reg(inst.rc, ra ^ op2);
                Ctrl::Next
            }
            Bic => {
                self.set_reg(inst.rc, ra & !op2);
                Ctrl::Next
            }
            Ornot => {
                self.set_reg(inst.rc, ra | !op2);
                Ctrl::Next
            }
            Sll => {
                self.set_reg(inst.rc, ra << (op2 & 63));
                Ctrl::Next
            }
            Srl => {
                self.set_reg(inst.rc, ra >> (op2 & 63));
                Ctrl::Next
            }
            Sra => {
                self.set_reg(inst.rc, ((ra as i64) >> (op2 & 63)) as u64);
                Ctrl::Next
            }
            Cmpeq => {
                self.set_reg(inst.rc, (ra == op2) as u64);
                Ctrl::Next
            }
            Cmplt => {
                self.set_reg(inst.rc, ((ra as i64) < op2 as i64) as u64);
                Ctrl::Next
            }
            Cmple => {
                self.set_reg(inst.rc, ((ra as i64) <= op2 as i64) as u64);
                Ctrl::Next
            }
            Cmpult => {
                self.set_reg(inst.rc, (ra < op2) as u64);
                Ctrl::Next
            }
            Cmpule => {
                self.set_reg(inst.rc, (ra <= op2) as u64);
                Ctrl::Next
            }
            Cmoveq => {
                if ra == 0 {
                    self.set_reg(inst.rc, op2);
                }
                Ctrl::Next
            }
            Cmovne => {
                if ra != 0 {
                    self.set_reg(inst.rc, op2);
                }
                Ctrl::Next
            }
            Cw0 | Cw1 | Cw2 | Cw3 => Ctrl::Fault,
        };
        (ctrl, mem_addr, taken)
    }
}

/// Execution latency (cycles) by opcode class, excluding memory hierarchy
/// time for loads.
pub fn exec_latency(class: OpClass) -> u64 {
    match class {
        OpClass::IntMult => 7,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::{dsl, DiseEngine, EngineConfig};
    use dise_isa::Assembler;
    use std::collections::BTreeMap;

    fn asm(listing: &str) -> Program {
        Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(listing)
            .unwrap()
    }

    #[test]
    fn arithmetic_and_loop() {
        // Sum 1..=10 via a loop.
        let p = asm(
            "       lda r1, 10(r31)     ; i = 10
                    lda r2, 0(r31)      ; sum = 0
             loop:  addq r2, r1, r2
                    subq r1, #1, r1
                    bne r1, loop
                    halt",
        );
        let mut m = Machine::load(&p);
        let r = m.run(1000).unwrap();
        assert!(r.halted());
        assert_eq!(m.reg(Reg::R2), 55);
        assert_eq!(r.app_insts, 2 + 3 * 10 + 1);
    }

    #[test]
    fn memory_round_trip_and_widths() {
        let p = asm(
            "       lda r1, -1(r31)          ; r1 = 0xFFFF...FFFF
                    stq r1, 0(r2)
                    ldq r3, 0(r2)
                    stl r1, 8(r2)
                    ldl r4, 8(r2)
                    halt",
        );
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::r(3)), u64::MAX);
        assert_eq!(m.reg(Reg::r(4)), u64::MAX, "ldl sign-extends");
    }

    #[test]
    fn calls_and_returns() {
        let p = asm(
            "       bsr f
                    halt
             f:     lda r1, 42(r31)
                    ret",
        );
        let mut m = Machine::load(&p);
        let r = m.run(100).unwrap();
        assert!(r.halted());
        assert_eq!(m.reg(Reg::R1), 42);
    }

    #[test]
    fn zero_register_semantics() {
        let p = asm(
            "       lda r31, 7(r31)
                    addq r31, #3, r1
                    halt",
        );
        let mut m = Machine::load(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::ZERO), 0);
        assert_eq!(m.reg(Reg::R1), 3);
    }

    #[test]
    fn zero_register_writes_land_in_the_sink() {
        let p = asm("halt");
        let mut m = Machine::load(&p);
        let before = crate::snapshot::save_machine(&m);
        m.set_reg(Reg::ZERO, 0xdead);
        assert_eq!(m.reg(Reg::ZERO), 0);
        assert_eq!(m.regs[Reg::ZERO.index()], 0, "r31's slot is never written");
        assert_eq!(m.regs[ZERO_SINK], 0xdead);
        assert_eq!(
            crate::snapshot::save_machine(&m),
            before,
            "the sink is recorded as 0"
        );
    }

    #[test]
    fn shifts_compares_cmov() {
        let p = asm(
            "       lda r1, 1(r31)
                    sll r1, #8, r2       ; 256
                    sra r2, #4, r3       ; 16
                    cmplt r3, r2, r4     ; 1
                    cmoveq r4, r2, r5    ; not moved (r4 != 0)
                    cmovne r4, r3, r6    ; moved: r6 = 16
                    mulq r3, r3, r7      ; 256
                    halt",
        );
        let mut m = Machine::load(&p);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::R2), 256);
        assert_eq!(m.reg(Reg::r(3)), 16);
        assert_eq!(m.reg(Reg::r(4)), 1);
        assert_eq!(m.reg(Reg::r(5)), 0);
        assert_eq!(m.reg(Reg::r(6)), 16);
        assert_eq!(m.reg(Reg::r(7)), 256);
    }

    fn mfi_engine(error_handler: u64) -> DiseEngine {
        let set = dsl::parse(
            "P1: T.OPCLASS == store -> R1
             P2: T.OPCLASS == load  -> R1
             R1: srl T.RS, #26, $dr1
                 cmpeq $dr1, $dr2, $dr1
                 beq $dr1, =error
                 T.INSN",
            &[("error".to_string(), error_handler)]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        )
        .unwrap();
        DiseEngine::with_productions(EngineConfig::default(), set).unwrap()
    }

    #[test]
    fn dise_expansion_preserves_semantics() {
        let p = asm(
            "       stq r1, 0(r2)
                    ldq r3, 0(r2)
                    halt
             error: halt",
        );
        let data = Program::segment_base(Program::DATA_SEGMENT);
        // Plain run.
        let mut plain = Machine::load(&p);
        plain.set_reg(Reg::R1, 99);
        plain.set_reg(Reg::R2, data);
        plain.run(100).unwrap();
        // DISE MFI run.
        let mut dise = Machine::load(&p);
        dise.set_reg(Reg::R1, 99);
        dise.set_reg(Reg::R2, data);
        let mut e = mfi_engine(p.symbol("error").unwrap());
        e.reset_stats();
        dise.attach_engine(e);
        // $dr2 holds the legal segment id.
        dise.set_reg(Reg::dr(2), Program::DATA_SEGMENT);
        let r = dise.run(1000).unwrap();
        assert!(r.halted());
        assert_eq!(dise.reg(Reg::r(3)), 99, "loads still load");
        // The checks pass: we halt at the first halt, not the error one.
        assert_eq!(dise.pc().0, p.symbol("error").unwrap() - 4);
        // 3 app insts reached halt; each mem op became 4 dynamic insts.
        assert_eq!(r.app_insts, 3);
        assert_eq!(r.total_insts, 4 + 4 + 1);
        let stats = dise.engine().unwrap().stats();
        assert_eq!(stats.expansions, 2);
    }

    #[test]
    fn mfi_catches_out_of_segment_store() {
        let p = asm(
            "       stq r1, 0(r2)
                    lda r4, 1(r31)       ; should be skipped on fault
                    halt
             error: lda r5, 1(r31)
                    halt",
        );
        let mut m = Machine::load(&p);
        // Address in the *text* segment — illegal for data access.
        m.set_reg(Reg::R2, Program::segment_base(Program::TEXT_SEGMENT));
        m.attach_engine(mfi_engine(p.symbol("error").unwrap()));
        m.set_reg(Reg::dr(2), Program::DATA_SEGMENT);
        let r = m.run(1000).unwrap();
        assert!(r.halted());
        assert_eq!(m.reg(Reg::r(5)), 1, "error handler ran");
        assert_eq!(m.reg(Reg::r(4)), 0, "fall-through was skipped");
        // The store itself must have been suppressed (the taken branch
        // aborted the rest of the sequence).
        assert_eq!(m.mem.load_u64(Program::segment_base(Program::TEXT_SEGMENT)), 0);
    }

    #[test]
    fn dise_internal_branches_move_disepc_only() {
        // An engine whose sequence skips an instruction with a DISE branch:
        //   0: bne.d T-cond… we use $dr1 preset to 1 → branch to @2
        //   1: lda $dr4, 1(r31)   (skipped)
        //   2: T.INSN
        let set = dsl::parse(
            "P1: T.OPCLASS == store -> R1
             R1: bne.d $dr1, @2
                 lda $dr4, 1(r31)
                 T.INSN",
            &BTreeMap::new(),
        )
        .unwrap();
        let p = asm("stq r1, 0(r2)\nhalt");
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        m.set_reg(Reg::dr(1), 1);
        let r = m.run(100).unwrap();
        assert!(r.halted());
        assert_eq!(m.reg(Reg::dr(4)), 0, "lda was skipped by the DISE branch");
        // And with the condition false, the lda executes.
        let set = dsl::parse(
            "P1: T.OPCLASS == store -> R1
             R1: bne.d $dr1, @2
                 lda $dr4, 1(r31)
                 T.INSN",
            &BTreeMap::new(),
        )
        .unwrap();
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.attach_engine(DiseEngine::with_productions(EngineConfig::default(), set).unwrap());
        let r = m.run(100).unwrap();
        assert!(r.halted());
        assert_eq!(m.reg(Reg::dr(4)), 1);
    }

    #[test]
    fn interrupt_mid_sequence_resumes_precisely() {
        let p = asm("stq r1, 0(r2)\nhalt\nerror: halt");
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R1, 7);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.attach_engine(mfi_engine(p.symbol("error").unwrap()));
        m.set_reg(Reg::dr(2), Program::DATA_SEGMENT);
        // Execute two replacement instructions, then "interrupt".
        let s0 = m.step().unwrap().unwrap();
        assert_eq!(s0.disepc, 0);
        let s1 = m.step().unwrap().unwrap();
        assert_eq!(s1.disepc, 1);
        m.interrupt();
        // Post-handler: fetch restarts at PC with DISEPC 2 — the beq, then
        // the store, then halt.
        let s2 = m.step().unwrap().unwrap();
        assert_eq!((s2.pc, s2.disepc), (s0.pc, 2));
        let s3 = m.step().unwrap().unwrap();
        assert_eq!(s3.inst.op, Op::Stq);
        let r = m.run(10).unwrap();
        assert!(r.halted());
        assert_eq!(
            m.mem.load_u64(Program::segment_base(Program::DATA_SEGMENT)),
            7
        );
    }

    #[test]
    fn dedicated_dictionary_expansion() {
        // Compressed program: short codeword expands to [lda r1, 5(r31);
        // addq r1, r1, r2].
        let items = [
            TextItem::Short(0),
            TextItem::Inst(Inst::halt()),
        ];
        let p = Program::from_items(Program::segment_base(Program::TEXT_SEGMENT), &items)
            .unwrap();
        let dict = DedicatedDict::new(vec![vec![
            Inst::li(5, Reg::R1),
            Inst::alu_rr(Op::Addq, Reg::R1, Reg::R1, Reg::R2),
        ]]);
        let mut m = Machine::load(&p);
        m.attach_dedicated(dict);
        let r = m.run(100).unwrap();
        assert!(r.halted());
        assert_eq!(m.reg(Reg::R2), 10);
        assert_eq!(r.app_insts, 2);
        assert_eq!(r.total_insts, 3);
    }

    #[test]
    fn unexpanded_codewords_fault() {
        let p = Program::from_insts(
            0x0400_0000,
            &[Inst::codeword(Op::Cw0, 0, 0, 0, 5), Inst::halt()],
        )
        .unwrap();
        let mut m = Machine::load(&p);
        assert!(matches!(
            m.step(),
            Err(SimError::UnexpandedCodeword { .. })
        ));
        // Same with a short codeword and no dictionary.
        let p = Program::from_items(0x0400_0000, &[TextItem::Short(3)]).unwrap();
        let mut m = Machine::load(&p);
        assert!(matches!(m.step(), Err(SimError::BadShortCodeword { .. })));
    }

    #[test]
    fn out_of_fuel() {
        let p = asm("loop: br r31, loop");
        let mut m = Machine::load(&p);
        assert!(matches!(m.run(100), Err(SimError::OutOfFuel)));
    }

    #[test]
    fn step_info_flags() {
        let p = asm("stq r1, 0(r2)\nhalt\nerror: halt");
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.attach_engine(mfi_engine(p.symbol("error").unwrap()));
        m.set_reg(Reg::dr(2), Program::DATA_SEGMENT);
        let s0 = m.step().unwrap().unwrap();
        assert!(s0.first_of_fetch);
        assert!(s0.expanded);
        assert!(s0.is_replacement);
        assert_eq!(s0.expansion_len, 4);
        let DiseRef::Uop { id, inspected } = s0.dise else {
            panic!("{:?}", s0.dise)
        };
        assert_eq!(inspected, Some(Op::Stq), "the trigger's inspect");
        let s1 = m.step().unwrap().unwrap();
        assert!(!s1.first_of_fetch);
        assert_eq!(
            s1.dise,
            DiseRef::Uop {
                id,
                inspected: None
            }
        );
        let s2 = m.step().unwrap().unwrap(); // beq (not taken)
        assert_eq!(s2.taken, Some(false));
        assert!(!s2.predicted, "non-trigger replacement branch unpredicted");
        let s3 = m.step().unwrap().unwrap(); // the store (trigger instance)
        assert!(s3.predicted);
        assert!(s3.mem_addr.is_some());
        let s4 = m.step().unwrap().unwrap(); // halt: inspected, not expanded
        assert_eq!(s4.dise, DiseRef::Pass);
    }

    /// [`StepInfo`] is the per-instruction hand-off from the functional
    /// machine to the timing model, which a shared-stream design would
    /// buffer; its size is pinned so it cannot grow unnoticed.
    #[test]
    fn step_info_stays_within_eighty_bytes() {
        assert!(std::mem::size_of::<StepInfo>() <= 80);
        assert!(std::mem::size_of::<DiseRef>() <= 8);
    }
}
