//! The cycle-level out-of-order timing model.
//!
//! A timestamp-dataflow model of the paper's machine: a MIPS R10000-like
//! superscalar, default 4-wide with a 12-stage pipeline (10 cycles of
//! front-end depth between fetch and dispatch), a 128-entry reorder buffer
//! and 80 reservation stations, aggressive branch prediction
//! (gshare + BTB + RAS) and load speculation with store-to-load forwarding
//! (§4). The functional [`Machine`] is the oracle: it produces the
//! correct-path dynamic instruction stream (including DISE replacement
//! sequences), and this model computes when each instruction would fetch,
//! dispatch, issue, complete and commit. Wrong-path work appears as fetch
//! redirect bubbles charged with the full front-end depth — the standard
//! oracle-driven timing-shell approximation.
//!
//! DISE costs modeled (paper §4.1):
//!
//! * replacement instructions consume fetch/decode/dispatch slots, RS and
//!   ROB entries, and execution resources, but do not access the I-cache;
//! * PT/RT misses flush the pipeline and stall fetch (30/150 cycles);
//!   the tables are timing state, modeled by [`DiseCacheModel`] from the
//!   engine references each step reports;
//! * the engine's placement cost is selectable via [`ExpansionCost`]:
//!   `Free` (idealized), `StallPerExpansion` (PT/RT in parallel with the
//!   decoder, one bubble per actual expansion) or `ExtraStage` (PT/RT in
//!   series, one additional front-end stage, growing every branch
//!   misprediction penalty);
//! * taken DISE-internal branches and taken non-trigger replacement
//!   branches always redirect (they are never predicted, §2.2).

use crate::bpred::{BpredConfig, BpredStats, BranchPredictor};
use crate::cache::{CacheStats, MemoryHierarchy, MemoryHierarchyConfig};
use crate::dise_cache::DiseCacheModel;
use crate::machine::{exec_latency, DiseRef, Machine, StepInfo};
use crate::ring::Ring;
use crate::telemetry::{AnomalyReport, EventRing, StallCause, StatsRegistry, TraceEvent, TraceKind};
use crate::{Result, SimError};
use dise_core::EngineStats;
use dise_isa::op::Field;
use dise_isa::{Inst, Op, OpClass, Reg};
use std::collections::HashMap;

/// Where the DISE engine sits relative to the decoder (Figure 6 top).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpansionCost {
    /// Idealized: expansion is free.
    #[default]
    Free,
    /// PT/RT accessed in parallel with the decoder: a one-cycle fetch
    /// bubble per actual expansion (the paper's `+stall`).
    StallPerExpansion,
    /// PT/RT in series with the decoder: one extra front-end stage, paid on
    /// every pipeline fill — i.e. a one-cycle-deeper misprediction penalty
    /// on all code, ACF-free or not (the paper's `+pipe`).
    ExtraStage,
}

/// Timing-model configuration. Defaults are the paper's baseline machine.
///
/// The `Debug` form spells out exactly the result-affecting fields — the
/// figure harness uses it as a content-address cache key — so the
/// telemetry knobs (`trace_last`, `watchdog`), which can never change a
/// simulation result, are deliberately excluded from it.
#[derive(Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Superscalar width: instructions fetched and committed per cycle.
    /// Issue is not bounded by it (an instruction issues once its operands
    /// are ready), and there are no functional-unit or D-cache-port
    /// limits.
    pub width: u64,
    /// Front-end depth in cycles from fetch to dispatch (12-stage pipeline
    /// ≈ 10 cycles of front end before the out-of-order core).
    pub frontend_depth: u64,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Reservation stations.
    pub rs_size: usize,
    /// Memory hierarchy.
    pub mem: MemoryHierarchyConfig,
    /// Branch predictor.
    pub bpred: BpredConfig,
    /// DISE engine placement cost.
    pub expansion_cost: ExpansionCost,
    /// Telemetry: capacity of the pipeline event ring (the last-K events
    /// dumped on an anomaly). `0` disables tracing entirely — the only
    /// per-instruction cost left is one branch.
    pub trace_last: usize,
    /// Telemetry: watchdog threshold — a gap of more than this many
    /// cycles between consecutive commits with a non-empty ROB aborts the
    /// run with [`SimError::Anomaly`] and dumps an [`AnomalyReport`].
    /// `0` disables the watchdog.
    pub watchdog: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            width: 4,
            frontend_depth: 10,
            rob_size: 128,
            rs_size: 80,
            mem: MemoryHierarchyConfig::default(),
            bpred: BpredConfig::default(),
            expansion_cost: ExpansionCost::Free,
            trace_last: 0,
            watchdog: 0,
        }
    }
}

impl std::fmt::Debug for SimConfig {
    /// Identical to the derived form minus the telemetry knobs: this
    /// string keys the harness result cache, and tracing must never
    /// invalidate (or fork) cached results.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimConfig")
            .field("width", &self.width)
            .field("frontend_depth", &self.frontend_depth)
            .field("rob_size", &self.rob_size)
            .field("rs_size", &self.rs_size)
            .field("mem", &self.mem)
            .field("bpred", &self.bpred)
            .field("expansion_cost", &self.expansion_cost)
            .finish()
    }
}

impl SimConfig {
    /// Sets the superscalar width.
    pub fn with_width(mut self, width: u64) -> SimConfig {
        self.width = width;
        self
    }

    /// Sets the I-cache size (`None` = perfect I-cache).
    pub fn with_icache_size(mut self, size: Option<u64>) -> SimConfig {
        self.mem.icache = match size {
            Some(s) => crate::cache::CacheConfig::of_size(s),
            None => crate::cache::CacheConfig::perfect(),
        };
        self
    }

    /// Sets the DISE expansion cost model.
    pub fn with_expansion_cost(mut self, cost: ExpansionCost) -> SimConfig {
        self.expansion_cost = cost;
        self
    }

    /// Enables the pipeline event trace, keeping the last `n` events
    /// (`0` disables it).
    pub fn with_trace_last(mut self, n: usize) -> SimConfig {
        self.trace_last = n;
        self
    }

    /// Sets the commit-gap watchdog threshold in cycles (`0` disables
    /// it).
    pub fn with_watchdog(mut self, cycles: u64) -> SimConfig {
        self.watchdog = cycles;
        self
    }
}

/// Counters accumulated by a timing run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Total cycles (commit time of the last instruction).
    pub cycles: u64,
    /// Application (fetched) instructions committed.
    pub app_insts: u64,
    /// All dynamic instructions committed (application + replacement).
    pub total_insts: u64,
    /// I-cache statistics.
    pub icache: CacheStats,
    /// D-cache statistics.
    pub dcache: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// Branch predictor statistics.
    pub bpred: BpredStats,
    /// Fetch redirects (mispredictions + taken unpredicted replacement/DISE
    /// branches).
    pub redirects: u64,
    /// Cycles stalled for DISE PT/RT misses.
    pub dise_stall_cycles: u64,
    /// DISE expansions performed.
    pub expansions: u64,
    /// Full DISE engine statistics (all-zero when no engine is attached).
    pub engine: EngineStats,
}

impl SimStats {
    /// Committed application instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.app_insts as f64 / self.cycles as f64
        }
    }

    /// This snapshot as a [`StatsRegistry`] — the canonical named,
    /// stable-ordered export (`SimStats` itself is the source-compatible
    /// struct view of the same counters).
    pub fn registry(&self) -> StatsRegistry {
        let mut r = StatsRegistry::new();
        r.count("sim.cycles", self.cycles);
        r.count("sim.app_insts", self.app_insts);
        r.count("sim.total_insts", self.total_insts);
        r.count("sim.redirects", self.redirects);
        r.count("sim.dise_stall_cycles", self.dise_stall_cycles);
        r.value("sim.ipc", self.ipc());
        self.icache.register("l1i", &mut r);
        self.dcache.register("l1d", &mut r);
        self.l2.register("l2", &mut r);
        self.bpred.register("bpred", &mut r);
        for (name, v) in self.engine.named_counters() {
            r.count(format!("engine.{name}"), v);
        }
        r
    }
}

/// Result of a timing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Timing statistics.
    pub stats: SimStats,
    /// True if the program halted within the budget.
    pub halted: bool,
}

/// Register-file slot that absorbs the completion time of instructions
/// whose destination is r31 or that write no register (see
/// [`Simulator::account`]); no source ever names it.
const ZERO_SINK: usize = 63;

/// `a.max(b)` as a conditional move. The timing model's maxima compare
/// data-dependent times, so as branches they mispredict often, and
/// LLVM's x86 cmov-conversion pass turns the `cmov`s of an innermost
/// loop into branches when it estimates that shortens the loop's
/// critical path. [`Simulator::run`]'s loop is innermost, and the
/// conversion made an engine-less 1M-instruction run 30% slower (2-core
/// Xeon VM, against the same code with the pass disabled).
/// `select_unpredictable` does not help: a max is canonicalized to
/// `umax` first. So on x86-64 the `cmov` is written out.
#[inline(always)]
fn max(a: u64, b: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let mut r = a;
        // SAFETY: a register-only compare and conditional move.
        unsafe {
            std::arch::asm!("cmp {r}, {b}", "cmovb {r}, {b}", r = inout(reg) r, b = in(reg) b,
                options(pure, nomem, nostack));
        }
        r
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        a.max(b)
    }
}

/// Register fields an opcode reads and writes in the timing model, one
/// bit each (see [`OP_REGS`]).
const READS_RA: u8 = 1;
const READS_RB: u8 = 1 << 1;
/// `rb`, unless the operate-format operand is a literal.
const READS_RB_REG: u8 = 1 << 2;
const READS_RC: u8 = 1 << 3;
const WRITES_RA: u8 = 1 << 4;
const WRITES_RC: u8 = 1 << 5;

/// The field usage of `op`, from its operand description
/// ([`Op::operands`]).
const fn op_regs(op: Op) -> u8 {
    let o = op.operands();
    let mut m = match o.rd {
        Some(Field::Ra) => WRITES_RA,
        Some(Field::Rc) => WRITES_RC,
        Some(Field::Rb) => panic!("no opcode writes rb"),
        None => 0,
    };
    let mut i = 0;
    while i < o.reads.len() {
        m |= match o.reads[i] {
            Field::Ra => READS_RA,
            Field::Rb if o.lit_rb => READS_RB_REG,
            Field::Rb => READS_RB,
            Field::Rc => READS_RC,
        };
        i += 1;
    }
    m
}

/// [`op_regs`] for every opcode, indexed by discriminant.
static OP_REGS: [u8; Op::ALL.len()] = {
    let mut table = [0; Op::ALL.len()];
    let mut i = 0;
    while i < Op::ALL.len() {
        table[Op::ALL[i] as usize] = op_regs(Op::ALL[i]);
        i += 1;
    }
    table
};

/// The register-file slots one instruction's timing reads and writes:
/// always three sources, padded with r31 (whose ready time is always 0,
/// so the padding never delays issue), and one destination, r31 and
/// "none" both mapped to [`ZERO_SINK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimingRegs {
    sources: [usize; 3],
    dest: usize,
}

impl TimingRegs {
    #[inline]
    fn of(inst: &Inst) -> TimingRegs {
        let m = OP_REGS[inst.op as usize];
        let zero = Reg::ZERO.index();
        let pick = |reads: bool, r: Reg| if reads { r.index() & 63 } else { zero };
        let reads_rb = m & READS_RB != 0 || (m & READS_RB_REG != 0 && !inst.uses_lit);
        let dest = if m & WRITES_RA != 0 {
            inst.ra.index()
        } else if m & WRITES_RC != 0 {
            inst.rc.index()
        } else {
            zero
        };
        TimingRegs {
            sources: [
                pick(m & READS_RA != 0, inst.ra),
                pick(reads_rb, inst.rb),
                pick(m & READS_RC != 0, inst.rc),
            ],
            dest: if dest == zero { ZERO_SINK } else { dest & 63 },
        }
    }
}

/// Width-limited slot allocator: at most `width` events per cycle, never
/// moving backwards.
#[derive(Debug, Clone, Copy)]
struct SlotAlloc {
    width: u64,
    cycle: u64,
    used: u64,
}

impl SlotAlloc {
    fn new(width: u64) -> SlotAlloc {
        SlotAlloc {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Allocates a slot no earlier than `ready`; returns its cycle.
    ///
    /// Branch-free: a `ready` past the current cycle starts a fresh group
    /// there, and a full group spills into the next cycle.
    fn alloc(&mut self, ready: u64) -> u64 {
        let used = self.used * u64::from(ready <= self.cycle);
        let full = u64::from(used >= self.width);
        self.cycle = max(self.cycle, ready) + full;
        self.used = used * (1 - full) + 1;
        self.cycle
    }

    /// Ends the current group: the next slot starts a new cycle.
    fn break_group(&mut self) {
        self.used = self.width;
    }
}

/// Index bits of the direct-mapped store-granule table. 2^15 granules
/// cover a 256KB store working set collision-free; colliding granules
/// spill to an exact overflow map, so capacity is a speed knob only.
const STORE_BITS: u32 = 15;

/// Empty-slot sentinel. Granules are `addr >> 3`, so they never exceed
/// `2^61 - 1` and `u64::MAX` is unreachable as a tag.
const STORE_EMPTY: u64 = u64::MAX;

/// Completion times of the youngest store to each 8-byte granule
/// (store-to-load forwarding): a direct-mapped tag+time table
/// (Fibonacci-hashed like `mem.rs`) with an overflow map for colliding
/// granules. Every granule lives in exactly one of the two, so lookups
/// are exact — the table behaves as a plain `HashMap` (model-tested in
/// this module's tests).
#[derive(Debug)]
struct StoreTable {
    tags: Box<[u64]>,
    times: Box<[u64]>,
    overflow: HashMap<u64, u64>,
}

impl StoreTable {
    fn new() -> StoreTable {
        StoreTable {
            tags: vec![STORE_EMPTY; 1 << STORE_BITS].into_boxed_slice(),
            times: vec![0; 1 << STORE_BITS].into_boxed_slice(),
            overflow: HashMap::new(),
        }
    }

    #[inline]
    fn slot(granule: u64) -> usize {
        (granule.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - STORE_BITS)) as usize
    }

    #[inline]
    fn get(&self, granule: u64) -> Option<u64> {
        let ix = StoreTable::slot(granule);
        if self.tags[ix] == granule {
            Some(self.times[ix])
        } else {
            self.overflow.get(&granule).copied()
        }
    }

    #[inline]
    fn insert(&mut self, granule: u64, time: u64) {
        let ix = StoreTable::slot(granule);
        if self.tags[ix] == granule || self.tags[ix] == STORE_EMPTY {
            self.tags[ix] = granule;
            self.times[ix] = time;
        } else {
            // Slot claimed by another granule: exact spill. Never evict —
            // losing a forwarding time would change cycle counts.
            self.overflow.insert(granule, time);
        }
    }

    /// Serializes the table contents exactly as stored — occupied
    /// direct-mapped slots by index plus the overflow map — rather than
    /// as an insert-replay: which of the two homes a granule lives in
    /// depends on probe order, so replaying inserts into a fresh table
    /// could place entries differently and de-synchronize a re-save.
    /// The overflow section is sorted by granule for deterministic bytes.
    fn save_state(&self, w: &mut crate::snapshot::Writer) {
        let occupied = self.tags.iter().filter(|&&t| t != STORE_EMPTY).count();
        w.u64(occupied as u64);
        for (ix, &tag) in self.tags.iter().enumerate() {
            if tag == STORE_EMPTY {
                continue;
            }
            w.u32(ix as u32);
            w.u64(tag);
            w.u64(self.times[ix]);
        }
        let mut spills: Vec<(u64, u64)> = self.overflow.iter().map(|(&g, &t)| (g, t)).collect();
        spills.sort_unstable();
        w.u64(spills.len() as u64);
        for (g, t) in spills {
            w.u64(g);
            w.u64(t);
        }
    }

    /// Parses a [`StoreTable::save_state`] section, validating the slot
    /// indexes without mutating anything.
    fn read_state(r: &mut crate::snapshot::Reader<'_>) -> Result<StoreState> {
        let n = r.len_prefix(20)?;
        let mut slots = Vec::with_capacity(n);
        for _ in 0..n {
            let ix = r.u32()? as usize;
            if ix >= 1 << STORE_BITS {
                return Err(SimError::Snapshot(format!(
                    "snapshot corrupt: store-table slot {ix} out of range"
                )));
            }
            slots.push((ix, r.u64()?, r.u64()?));
        }
        let n = r.len_prefix(16)?;
        let mut spills = Vec::with_capacity(n);
        for _ in 0..n {
            spills.push((r.u64()?, r.u64()?));
        }
        Ok(StoreState { slots, spills })
    }

    /// Installs a parsed state (resetting to empty first).
    fn apply_state(&mut self, state: StoreState) {
        self.tags.fill(STORE_EMPTY);
        self.times.fill(0);
        self.overflow.clear();
        for (ix, tag, time) in state.slots {
            self.tags[ix] = tag;
            self.times[ix] = time;
        }
        self.overflow.extend(state.spills);
    }
}

/// Parsed, configuration-validated mutable state of a simulator (see
/// [`Simulator::read_state`]); applied with [`Simulator::apply_state`].
#[derive(Debug)]
pub(crate) struct SimulatorState {
    machine: crate::machine::MachineState,
    /// Fetch slot allocator `(cycle, used)`.
    fetch: (u64, u64),
    /// Commit slot allocator `(cycle, used)`.
    commit: (u64, u64),
    rob: Vec<u64>,
    rs: Vec<u64>,
    reg_ready: [u64; dise_isa::reg::NUM_REGS],
    store: StoreState,
    last_commit: u64,
    seq: u64,
    stats: SimStats,
    hierarchy: crate::cache::HierarchyState,
    bpred: crate::bpred::BpredState,
    dise: Option<DiseCacheModel>,
}

/// Serializes every [`SimStats`] counter in declaration order.
fn save_sim_stats(stats: &SimStats, w: &mut crate::snapshot::Writer) {
    w.u64(stats.cycles);
    w.u64(stats.app_insts);
    w.u64(stats.total_insts);
    for c in [stats.icache, stats.dcache, stats.l2] {
        w.u64(c.accesses);
        w.u64(c.misses);
    }
    w.u64(stats.bpred.cond_predictions);
    w.u64(stats.bpred.cond_mispredicts);
    w.u64(stats.bpred.target_mispredicts);
    w.u64(stats.redirects);
    w.u64(stats.dise_stall_cycles);
    w.u64(stats.expansions);
    let e = &stats.engine;
    for v in [
        e.inspected,
        e.expansions,
        e.replacement_insts,
        e.pt_misses,
        e.rt_misses,
        e.composed_fills,
        e.stall_cycles,
    ] {
        w.u64(v);
    }
}

/// Parses a [`save_sim_stats`] section.
fn read_sim_stats(r: &mut crate::snapshot::Reader<'_>) -> Result<SimStats> {
    let cache = |r: &mut crate::snapshot::Reader<'_>| -> Result<CacheStats> {
        Ok(CacheStats {
            accesses: r.u64()?,
            misses: r.u64()?,
        })
    };
    Ok(SimStats {
        cycles: r.u64()?,
        app_insts: r.u64()?,
        total_insts: r.u64()?,
        icache: cache(r)?,
        dcache: cache(r)?,
        l2: cache(r)?,
        bpred: BpredStats {
            cond_predictions: r.u64()?,
            cond_mispredicts: r.u64()?,
            target_mispredicts: r.u64()?,
        },
        redirects: r.u64()?,
        dise_stall_cycles: r.u64()?,
        expansions: r.u64()?,
        engine: EngineStats {
            inspected: r.u64()?,
            expansions: r.u64()?,
            replacement_insts: r.u64()?,
            pt_misses: r.u64()?,
            rt_misses: r.u64()?,
            composed_fills: r.u64()?,
            stall_cycles: r.u64()?,
        },
    })
}

/// Parsed mutable state of the store-to-load forwarding table.
#[derive(Debug)]
struct StoreState {
    /// `(slot, granule tag, completion time)` for occupied slots.
    slots: Vec<(usize, u64, u64)>,
    /// Granule-sorted overflow entries.
    spills: Vec<(u64, u64)>,
}

/// Serializes an in-flight window (ROB or RS) oldest-first.
fn save_window(ring: &Ring, w: &mut crate::snapshot::Writer) {
    w.u64(ring.len() as u64);
    for v in ring.iter() {
        w.u64(v);
    }
}

/// Parses a [`save_window`] section (occupancy must fit `cap`).
fn read_window(r: &mut crate::snapshot::Reader<'_>, cap: usize, what: &str) -> Result<Vec<u64>> {
    let n = r.len_prefix(8)?;
    if n > cap {
        return Err(SimError::Snapshot(format!(
            "snapshot corrupt: {what} occupancy {n} exceeds the configured capacity {cap}"
        )));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(r.u64()?);
    }
    Ok(values)
}

/// Replaces a window's contents with `values` (oldest first).
fn apply_window(ring: &mut Ring, values: &[u64]) {
    while ring.pop().is_some() {}
    for &v in values {
        ring.push(v);
    }
}

/// The timing simulator. Owns the functional oracle machine.
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    machine: Machine,
    mem: MemoryHierarchy,
    /// The DISE engine's PT and RT (present iff the machine had an engine
    /// when the simulator was built).
    dise: Option<DiseCacheModel>,
    bpred: BranchPredictor,
    fetch: SlotAlloc,
    commit: SlotAlloc,
    /// Commit times of in-flight instructions (ROB occupancy).
    rob: Ring,
    /// Issue times of in-flight instructions (RS occupancy).
    rs: Ring,
    /// Completion time of the last producer of each register, padded
    /// like the machine's register file. Invariant: slot 31 stays 0, so
    /// the zero register pads source triples for free; results of
    /// instructions without a real destination land in [`ZERO_SINK`].
    reg_ready: [u64; 64],
    /// Completion time of the last store to each 8-byte granule
    /// (store-to-load forwarding).
    store_ready: StoreTable,
    last_commit: u64,
    stats: SimStats,
    // Per-instruction configuration, hoisted out of `account` (the config
    // struct is cold-cache by the time the oracle step returns).
    frontend_depth: u64,
    rob_cap: usize,
    rs_cap: usize,
    l1_latency: u64,
    stall_on_expand: bool,
    // ---- telemetry ----------------------------------------------------
    /// Dynamic instruction sequence number (events and anomaly reports).
    seq: u64,
    /// Pipeline event ring; `None` when tracing is disabled.
    trace: Option<EventRing>,
    /// Commit-gap watchdog threshold (0 = disabled).
    watchdog: u64,
    /// Watchdog verdict raised inside `account`, consumed by `run`.
    pending_anomaly: Option<String>,
    /// The last anomaly report, kept for programmatic inspection.
    anomaly: Option<Box<AnomalyReport>>,
    /// Shadow functional oracle stepped in lockstep with the primary
    /// machine; any divergence of the per-step reports is an anomaly.
    shadow: Option<Box<Machine>>,
    /// Exact PC of the anomaly trigger, recorded where it is known (the
    /// divergent step, the wedged commit); [`Simulator::raise_anomaly`]
    /// falls back to the machine PC when unset.
    anomaly_pc: Option<u64>,
    /// Marks anomaly reports raised inside a time-travel replay window
    /// (see `dise_bench::checkpoint`).
    replay: bool,
}

impl Simulator {
    /// Creates a simulator over a loaded machine.
    pub fn new(config: SimConfig, machine: Machine) -> Simulator {
        let frontend_extra = match config.expansion_cost {
            ExpansionCost::ExtraStage => 1,
            _ => 0,
        };
        let mut config = config;
        config.frontend_depth += frontend_extra;
        Simulator {
            mem: MemoryHierarchy::new(config.mem),
            dise: machine.engine().map(DiseCacheModel::new),
            bpred: BranchPredictor::new(config.bpred),
            fetch: SlotAlloc::new(config.width),
            commit: SlotAlloc::new(config.width),
            rob: Ring::with_capacity(config.rob_size),
            rs: Ring::with_capacity(config.rs_size),
            reg_ready: [0; 64],
            store_ready: StoreTable::new(),
            last_commit: 0,
            stats: SimStats::default(),
            frontend_depth: config.frontend_depth,
            rob_cap: config.rob_size,
            rs_cap: config.rs_size,
            l1_latency: config.mem.l1_latency,
            stall_on_expand: config.expansion_cost == ExpansionCost::StallPerExpansion,
            seq: 0,
            trace: (config.trace_last > 0).then(|| EventRing::new(config.trace_last)),
            watchdog: config.watchdog,
            pending_anomaly: None,
            anomaly: None,
            shadow: None,
            anomaly_pc: None,
            replay: false,
            config,
            machine,
        }
    }

    /// The oracle machine (e.g. to read final register state).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Serializes the simulator's mutable state (see [`crate::snapshot`]).
    /// The timing configuration is recorded as a fingerprint of its
    /// `Debug` form — the same result-affecting-fields-only rendering the
    /// figure harness cache keys on, so telemetry knobs do not perturb
    /// it. Telemetry state (trace ring, watchdog, shadow oracle) is
    /// observability-only and not serialized.
    pub(crate) fn save_state(&self, w: &mut crate::snapshot::Writer) {
        w.u64(crate::arena::debug_fingerprint(&self.config));
        self.machine.save_state(w);
        for alloc in [&self.fetch, &self.commit] {
            w.u64(alloc.cycle);
            w.u64(alloc.used);
        }
        save_window(&self.rob, w);
        save_window(&self.rs, w);
        for &v in &self.reg_ready[..dise_isa::reg::NUM_REGS] {
            w.u64(v);
        }
        self.store_ready.save_state(w);
        w.u64(self.last_commit);
        w.u64(self.seq);
        save_sim_stats(&self.stats, w);
        self.mem.save_state(w);
        self.bpred.save_state(w);
        match (&self.dise, self.machine.engine()) {
            (Some(model), Some(engine)) => {
                w.bool(true);
                model.save_state(w, engine);
            }
            _ => w.bool(false),
        }
    }

    /// Parses a [`Simulator::save_state`] section, checking the recorded
    /// fingerprints against this simulator's configuration and scenario.
    /// Mutates nothing.
    pub(crate) fn read_state(
        &self,
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<SimulatorState> {
        crate::snapshot::check_fingerprint(
            "timing configuration",
            r.u64()?,
            crate::arena::debug_fingerprint(&self.config),
        )?;
        let machine = self.machine.read_state(r)?;
        let fetch = (r.u64()?, r.u64()?);
        let commit = (r.u64()?, r.u64()?);
        let rob = read_window(r, self.rob_cap, "ROB")?;
        let rs = read_window(r, self.rs_cap, "RS")?;
        let mut reg_ready = [0u64; dise_isa::reg::NUM_REGS];
        for v in reg_ready.iter_mut() {
            *v = r.u64()?;
        }
        // Source triples pad with r31 and read its ready time
        // unconditionally: a nonzero one would delay every instruction.
        if reg_ready[Reg::ZERO.index()] != 0 {
            return Err(SimError::Snapshot(format!(
                "snapshot corrupt: r31 ready time is {}, must be 0",
                reg_ready[Reg::ZERO.index()]
            )));
        }
        let store = StoreTable::read_state(r)?;
        let last_commit = r.u64()?;
        let seq = r.u64()?;
        let stats = read_sim_stats(r)?;
        let hierarchy = self.mem.read_state(r)?;
        let bpred = self.bpred.read_state(r)?;
        let dise = match (r.bool()?, self.machine.engine()) {
            (true, Some(engine)) => Some(DiseCacheModel::read_state(r, engine)?),
            (false, _) => None,
            (true, None) => {
                return Err(SimError::Snapshot(
                    "snapshot corrupt: a DISE table section without an attached engine".into(),
                ))
            }
        };
        Ok(SimulatorState {
            machine,
            fetch,
            commit,
            rob,
            rs,
            reg_ready,
            store,
            last_commit,
            seq,
            stats,
            hierarchy,
            bpred,
            dise,
        })
    }

    /// Installs a parsed state. The shadow oracle (if one was enabled)
    /// is dropped: it tracks the primary machine from load, and a
    /// restored primary has nothing for it to have shadowed.
    pub(crate) fn apply_state(&mut self, state: SimulatorState) {
        self.machine.apply_state(state.machine);
        self.dise = state.dise;
        self.fetch.cycle = state.fetch.0;
        self.fetch.used = state.fetch.1;
        self.commit.cycle = state.commit.0;
        self.commit.used = state.commit.1;
        apply_window(&mut self.rob, &state.rob);
        apply_window(&mut self.rs, &state.rs);
        self.reg_ready = [0; 64];
        self.reg_ready[..dise_isa::reg::NUM_REGS].copy_from_slice(&state.reg_ready);
        self.store_ready.apply_state(state.store);
        self.last_commit = state.last_commit;
        self.seq = state.seq;
        self.stats = state.stats;
        self.mem.apply_state(state.hierarchy);
        self.bpred.apply_state(state.bpred);
        self.pending_anomaly = None;
        self.shadow = None;
        self.anomaly_pc = None;
        self.replay = false;
    }

    /// Attaches a shadow functional oracle, stepped in lockstep with the
    /// primary machine through the same [`Machine::step_into`] path. Any
    /// divergence between the two per-step reports aborts the run with
    /// [`SimError::Anomaly`] and dumps an [`AnomalyReport`]. The shadow
    /// must be loaded and initialized exactly like the primary (same
    /// program, registers, attached engine); build it with the *other*
    /// functional fast-path setting to cross-check the two
    /// implementations.
    pub fn attach_shadow(&mut self, shadow: Machine) {
        self.shadow = Some(Box::new(shadow));
    }

    /// The attached shadow oracle, if any (checkpointing snapshots it at
    /// slice boundaries so a replay can re-arm it in the boundary state).
    pub fn shadow(&self) -> Option<&Machine> {
        self.shadow.as_deref()
    }

    /// Whether a shadow oracle is attached.
    pub fn has_shadow(&self) -> bool {
        self.shadow.is_some()
    }

    /// Detaches and returns the shadow oracle. A restore drops any
    /// attached shadow (see `Simulator::apply_state`); callers that
    /// want to keep it across a restore take it out first and re-attach
    /// after resetting its state.
    pub fn take_shadow(&mut self) -> Option<Machine> {
        self.shadow.take().map(|b| *b)
    }

    /// (Re)arms the pipeline event ring mid-run with capacity `cap`,
    /// discarding any previous ring contents. Time-travel replay uses
    /// this to trace the replayed window at full detail even when the
    /// original run traced nothing.
    pub fn arm_trace(&mut self, cap: usize) {
        self.trace = Some(EventRing::new(cap));
    }

    /// Marks (or unmarks) this simulator as replaying a checkpoint
    /// window: anomaly reports raised while set carry `replay: true`.
    pub fn set_replay(&mut self, replay: bool) {
        self.replay = replay;
    }

    /// The last anomaly report, if one fired this run.
    pub fn anomaly(&self) -> Option<&AnomalyReport> {
        self.anomaly.as_deref()
    }

    /// The pipeline events currently in the trace ring, oldest first
    /// (empty when tracing is disabled).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map(EventRing::events).unwrap_or_default()
    }

    /// A live snapshot of every registered statistic: pipeline (`sim.*`),
    /// caches (`l1i.*`, `l1d.*`, `l2.*`), branch predictor (`bpred.*`)
    /// and DISE engine (`engine.*`) counters, name-sorted. Callable
    /// mid-run (anomaly dumps use it) or after [`Simulator::run`].
    pub fn stats_registry(&self) -> StatsRegistry {
        self.assembled_stats().registry()
    }

    /// The run's statistics so far: the pipeline's own counters plus the
    /// instruction counts, cycles, caches, branch predictor and engine
    /// read from their owners.
    fn assembled_stats(&self) -> SimStats {
        let mut stats = self.stats;
        (stats.total_insts, stats.app_insts) = self.machine.inst_counts();
        stats.cycles = self.last_commit.max(1);
        stats.icache = self.mem.icache_stats();
        stats.dcache = self.mem.dcache_stats();
        stats.l2 = self.mem.l2_stats();
        stats.bpred = self.bpred.stats();
        if let Some(engine) = self.engine_stats() {
            stats.engine = engine;
            stats.expansions = engine.expansions;
        }
        stats
    }

    /// Builds, records and ships an anomaly report; returns the error
    /// the run aborts with. The report goes to the installed
    /// observability sink (tagged with the worker's cell context) when
    /// one exists; with no sink it prints to stderr as before.
    fn raise_anomaly(&mut self, reason: String) -> SimError {
        fn reg_file(m: &Machine) -> Vec<u64> {
            (0..dise_isa::reg::NUM_REGS as u8)
                .map(|i| m.reg(dise_isa::Reg::from_index(i)))
                .collect()
        }
        let report = AnomalyReport {
            reason: reason.clone(),
            seq: self.seq,
            rob_occupancy: self.rob.len(),
            rs_occupancy: self.rs.len(),
            registry: self.stats_registry(),
            events: self.trace_events(),
            pc: self.anomaly_pc.take().unwrap_or_else(|| self.machine.pc().0),
            regs: reg_file(&self.machine),
            shadow_regs: self.shadow.as_deref().map(reg_file),
            replay: self.replay,
        };
        if !dise_obs::ship_anomaly(&report.json_payload()) {
            eprintln!("{report}");
        }
        self.anomaly = Some(Box::new(report));
        SimError::Anomaly(reason)
    }

    /// Steps the shadow oracle and compares its report with the
    /// primary's. Returns the divergence description, if any.
    fn shadow_step(&mut self, info: &StepInfo, out: &mut StepInfo) -> Result<Option<String>> {
        let Some(shadow) = self.shadow.as_mut() else {
            return Ok(None);
        };
        if !shadow.step_into(out)? {
            self.anomaly_pc = Some(info.pc);
            return Ok(Some(format!(
                "oracle divergence at seq {}: shadow halted, primary retired {:?} at pc {:#x}",
                self.seq, info.inst.op, info.pc
            )));
        }
        if out != info {
            self.anomaly_pc = Some(info.pc);
            return Ok(Some(format!(
                "oracle divergence at seq {}: primary {info:?} vs shadow {out:?}",
                self.seq
            )));
        }
        Ok(None)
    }

    /// Runs until the program halts or `max_insts` dynamic instructions
    /// have committed.
    ///
    /// # Errors
    ///
    /// Propagates functional-machine errors; returns
    /// [`SimError::OutOfFuel`] if the budget is exhausted first, and
    /// [`SimError::Anomaly`] if the watchdog fires or an attached shadow
    /// oracle diverges (the report is dumped to stderr and kept in
    /// [`Simulator::anomaly`]).
    pub fn run(&mut self, max_insts: u64) -> Result<SimResult> {
        // In-place oracle stepping: one caller-owned StepInfo reused
        // across the whole run instead of a per-instruction
        // `Option<StepInfo>` moved through the return value.
        let mut info = StepInfo::default();
        if self.shadow.is_none() {
            // The hot loop — the shadow-oracle variant lives below so
            // lockstep checking costs nothing here.
            for _ in 0..max_insts {
                if !self.machine.step_into(&mut info)? {
                    return Ok(self.finish(true));
                }
                self.account(&info);
                if let Some(reason) = self.pending_anomaly.take() {
                    return Err(self.raise_anomaly(reason));
                }
            }
        } else {
            let mut shadow_info = StepInfo::default();
            for _ in 0..max_insts {
                if !self.machine.step_into(&mut info)? {
                    return Ok(self.finish(true));
                }
                if let Some(diverged) = self.shadow_step(&info, &mut shadow_info)? {
                    return Err(self.raise_anomaly(diverged));
                }
                self.account(&info);
                if let Some(reason) = self.pending_anomaly.take() {
                    return Err(self.raise_anomaly(reason));
                }
            }
        }
        if self.machine.halted() {
            Ok(self.finish(true))
        } else {
            if self.trace.is_some() || self.watchdog > 0 {
                // Fuel exhaustion with telemetry on: leave an evidence
                // trail instead of burning the budget silently.
                let report = self.raise_anomaly(format!(
                    "out of fuel after {max_insts} dynamic instructions without halting"
                ));
                // The run error stays OutOfFuel — the dump is advisory.
                let _ = report;
            }
            Err(SimError::OutOfFuel)
        }
    }

    fn finish(&mut self, halted: bool) -> SimResult {
        self.stats = self.assembled_stats();
        SimResult {
            stats: self.stats,
            halted,
        }
    }

    /// The engine counters: the engine's functional counts merged with
    /// the PT/RT model's misses.
    fn engine_stats(&self) -> Option<EngineStats> {
        let engine = self.machine.engine()?;
        Some(match &self.dise {
            Some(model) => model.engine_stats(engine),
            None => engine.stats(),
        })
    }

    /// Replays a step's engine references against the PT/RT model and
    /// returns the miss stall. Inlined into `account`, with the model's
    /// hit path.
    #[inline(always)]
    fn dise_stall(&mut self, info: &StepInfo) -> u64 {
        match (self.dise.as_mut(), self.machine.engine()) {
            (Some(model), Some(engine)) => model.observe(info, engine),
            _ => 0,
        }
    }

    /// Accounts one retired dynamic instruction. Inlined into
    /// [`Simulator::run`]'s per-instruction loop with the oracle step.
    #[inline(always)]
    fn account(&mut self, info: &StepInfo) {
        // ---- fetch ----------------------------------------------------
        let mut fetch_ready = 0u64;

        // DISE PT/RT miss: pipeline flush + fixed stall (§2.3).
        let dise_stall = match info.dise {
            DiseRef::None => 0,
            _ => self.dise_stall(info),
        };
        if dise_stall > 0 {
            self.stats.dise_stall_cycles += dise_stall;
            fetch_ready = self.fetch.cycle + dise_stall;
            self.fetch.break_group();
        }

        // Structural back-pressure: ROB and RS occupancy throttle fetch.
        // The `*_wait` slack values feed the event trace only.
        let mut rob_wait = 0u64;
        let mut rs_wait = 0u64;
        if self.rob.len() >= self.rob_cap {
            let freed = self.rob.pop().expect("non-empty");
            let until = freed.saturating_sub(self.frontend_depth);
            rob_wait = until.saturating_sub(max(fetch_ready, self.fetch.cycle));
            fetch_ready = max(fetch_ready, until);
        }
        if self.rs.len() >= self.rs_cap {
            let freed = self.rs.pop().expect("non-empty");
            let until = freed.saturating_sub(self.frontend_depth);
            rs_wait = until.saturating_sub(max(fetch_ready, self.fetch.cycle));
            fetch_ready = max(fetch_ready, until);
        }

        let mut fetch_time = self.fetch.alloc(fetch_ready);

        // Stall-per-expansion engine placement: the PT/RT read costs one
        // cycle per actual expansion, delaying everything behind the
        // trigger by a cycle.
        let expand_bubble = info.expanded && self.stall_on_expand;
        if expand_bubble {
            self.fetch.cycle = fetch_time + 1;
            self.fetch.used = 0;
        }

        // I-cache access for newly fetched application items (replacement
        // instructions stream from the RT and skip the I-cache).
        let mut icache_wait = 0u64;
        if info.first_of_fetch {
            let latency = self.mem.ifetch(info.pc, info.fetch_size);
            if latency > self.l1_latency {
                // Miss: fetch stalls until the fill returns.
                icache_wait = latency - self.l1_latency;
                fetch_time += icache_wait;
                self.fetch.cycle = fetch_time;
                self.fetch.used = 1;
            }
        }

        // ---- dispatch / issue / complete -------------------------------
        let dispatch = fetch_time + self.frontend_depth;
        let regs = TimingRegs::of(&info.inst);
        let mut ready = max(
            max(dispatch + 1, self.reg_ready[regs.sources[0]]),
            max(
                self.reg_ready[regs.sources[1]],
                self.reg_ready[regs.sources[2]],
            ),
        );
        let class = info.inst.op.class();
        // Loads wait for the youngest older store to the same granule
        // (perfect memory-dependence speculation with forwarding).
        if class == OpClass::Load {
            if let Some(addr) = info.mem_addr {
                if let Some(t) = self.store_ready.get(addr >> 3) {
                    ready = max(ready, t);
                }
            }
        }
        let issue = ready;
        let complete = match class {
            OpClass::Load => issue + self.mem.daccess(info.mem_addr.unwrap_or(0)),
            OpClass::Store => {
                // Stores retire from the store queue; touch the D-cache tags
                // for later loads but do not stall the pipeline.
                if let Some(addr) = info.mem_addr {
                    self.mem.daccess(addr);
                    self.store_ready.insert(addr >> 3, issue + 1);
                }
                issue + 1
            }
            _ => issue + exec_latency(class),
        };
        self.reg_ready[regs.dest] = complete;

        // ---- control flow ----------------------------------------------
        let mut redirect = false;
        if info.dise_taken {
            // Taken DISE-internal branch: interpreted as a misprediction
            // (§2.2).
            redirect = true;
        } else if let Some(taken) = info.taken {
            let target = info.target.unwrap_or(0);
            if info.predicted {
                let correct = match class {
                    OpClass::CondBranch => self.bpred.cond_branch(info.pc, taken, target),
                    OpClass::UncondBranch => {
                        let push = (info.inst.op == dise_isa::Op::Bsr)
                            .then(|| info.pc + info.fetch_size);
                        self.bpred.uncond_branch(info.pc, target, push)
                    }
                    OpClass::IndirectJump => {
                        if info.inst.op == dise_isa::Op::Ret {
                            self.bpred.ret(target)
                        } else {
                            let push = (info.inst.op == dise_isa::Op::Jsr)
                                .then(|| info.pc + info.fetch_size);
                            self.bpred.indirect(info.pc, target, push)
                        }
                    }
                    _ => true,
                };
                if !correct {
                    redirect = true;
                } else if taken {
                    // Correctly-predicted taken branch ends the fetch group.
                    self.fetch.break_group();
                }
            } else if taken {
                // Non-trigger replacement branches are effectively
                // predicted not-taken: taken ones redirect (§2.2).
                redirect = true;
            }
        }
        if redirect {
            self.stats.redirects += 1;
            // Fetch resumes after the branch resolves.
            self.fetch.cycle = max(self.fetch.cycle, complete);
            self.fetch.break_group();
        }

        // ---- commit -----------------------------------------------------
        let commit = self.commit.alloc(max(complete, self.last_commit));

        // Commit-gap watchdog: in this timestamp-dataflow model every
        // accounted instruction commits, so a wedged pipeline shows up as
        // a pathological gap between consecutive commit times while older
        // instructions are still in flight.
        if self.watchdog != 0
            && commit.saturating_sub(self.last_commit) > self.watchdog
            && !self.rob.is_empty()
            && self.pending_anomaly.is_none()
        {
            self.anomaly_pc = Some(info.pc);
            self.pending_anomaly = Some(format!(
                "watchdog: no commit for {} cycles (threshold {}) with {} ROB entries in flight",
                commit - self.last_commit,
                self.watchdog,
                self.rob.len(),
            ));
        }

        // ---- event trace ------------------------------------------------
        // One `is_some` branch per retired instruction when disabled.
        // `perfbench` runs every workload with tracing off, so its
        // `sim_mips` bound covers this disabled-path cost.
        if self.trace.is_some() {
            self.record_events(
                info,
                dise_stall,
                rob_wait,
                rs_wait,
                icache_wait,
                expand_bubble,
                [fetch_time, dispatch, issue, complete, commit],
                redirect,
            );
        }
        self.seq += 1;

        self.last_commit = max(commit, self.last_commit);
        self.rob.push(commit);
        self.rs.push(issue + 1);
    }

    /// Pushes the trace events for one accounted instruction. Out of
    /// line so the disabled-tracing path pays only the `is_some` check.
    #[allow(clippy::too_many_arguments)]
    fn record_events(
        &mut self,
        info: &StepInfo,
        dise_stall: u64,
        rob_wait: u64,
        rs_wait: u64,
        icache_wait: u64,
        expand_bubble: bool,
        times: [u64; 5],
        redirect: bool,
    ) {
        let [fetch_time, dispatch, issue, complete, commit] = times;
        let seq = self.seq;
        let Some(ring) = self.trace.as_mut() else {
            return;
        };
        let ev = |cycle: u64, kind: TraceKind| TraceEvent {
            cycle,
            seq,
            pc: info.pc,
            disepc: info.disepc,
            kind,
        };
        let stall = |cause: StallCause, cycles: u64| TraceKind::Stall { cause, cycles };
        if dise_stall > 0 {
            ring.push(ev(fetch_time, stall(StallCause::DiseMiss, dise_stall)));
        }
        if rob_wait > 0 {
            ring.push(ev(fetch_time, stall(StallCause::RobFull, rob_wait)));
        }
        if rs_wait > 0 {
            ring.push(ev(fetch_time, stall(StallCause::RsFull, rs_wait)));
        }
        if icache_wait > 0 {
            ring.push(ev(fetch_time, stall(StallCause::IcacheMiss, icache_wait)));
        }
        if expand_bubble {
            ring.push(ev(fetch_time, stall(StallCause::ExpandBubble, 1)));
        }
        if info.first_of_fetch {
            ring.push(ev(fetch_time, TraceKind::Fetch { size: info.fetch_size as u8 }));
        }
        if info.expanded {
            ring.push(ev(fetch_time, TraceKind::Expand { len: info.expansion_len }));
        }
        ring.push(ev(dispatch, TraceKind::Dispatch));
        ring.push(ev(issue, TraceKind::Issue));
        ring.push(ev(complete, TraceKind::Writeback));
        if redirect {
            ring.push(ev(complete, TraceKind::Redirect));
        }
        ring.push(ev(commit, TraceKind::Commit));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_core::{dsl, DiseEngine, EngineConfig};
    use dise_isa::{Assembler, Program, Reg};
    use std::collections::BTreeMap;

    /// The branchy formulation `SlotAlloc::alloc` replaced.
    fn reference_alloc(cycle: &mut u64, used: &mut u64, width: u64, ready: u64) -> u64 {
        if ready > *cycle {
            *cycle = ready;
            *used = 0;
        }
        if *used >= width {
            *cycle += 1;
            *used = 0;
        }
        *used += 1;
        *cycle
    }

    #[test]
    fn slot_alloc_matches_branchy_reference_exhaustively() {
        for width in 0..6 {
            for cycle in 0..8 {
                for used in 0..8 {
                    for ready in 0..10 {
                        let mut a = SlotAlloc { width, cycle, used };
                        let (mut c, mut u) = (cycle, used);
                        let expect = reference_alloc(&mut c, &mut u, width, ready);
                        assert_eq!(
                            (a.alloc(ready), a.cycle, a.used),
                            (expect, c, u),
                            "width {width}, cycle {cycle}, used {used}, ready {ready}"
                        );
                    }
                }
            }
        }
    }

    /// The iterator formulation [`TimingRegs::of`] replaced: an
    /// instruction's sources (a conditional move's include its old
    /// destination value), minus the zero register.
    fn timing_sources(inst: &Inst) -> impl Iterator<Item = Reg> {
        inst.sources().into_iter().flatten().filter(|r| !r.is_zero())
    }

    #[test]
    fn timing_regs_name_exactly_the_timing_sources_and_dest() {
        let regs = [0u8, 1, 7, 26, 30, 31, 32, 40, 47].map(Reg::from_index);
        let mut checked = 0;
        for &op in Op::ALL {
            for uses_lit in [false, true] {
                for dise_branch in [false, true] {
                    for &ra in &regs {
                        for &rb in &regs {
                            for &rc in &regs {
                                let inst = Inst {
                                    op,
                                    ra,
                                    rb,
                                    rc,
                                    imm: 0,
                                    uses_lit,
                                    dise_branch,
                                };
                                let t = TimingRegs::of(&inst);
                                let mut padded: Vec<usize> = t
                                    .sources
                                    .into_iter()
                                    .filter(|&r| r != Reg::ZERO.index())
                                    .collect();
                                let mut expect: Vec<usize> =
                                    timing_sources(&inst).map(Reg::index).collect();
                                padded.sort_unstable();
                                expect.sort_unstable();
                                assert_eq!(padded, expect, "sources of {inst:?}");
                                let dest = inst
                                    .dest()
                                    .filter(|r| !r.is_zero())
                                    .map_or(ZERO_SINK, Reg::index);
                                assert_eq!(t.dest, dest, "destination of {inst:?}");
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, Op::ALL.len() * 4 * regs.len().pow(3));
    }

    #[test]
    fn snapshot_rejects_a_nonzero_r31_ready_time() {
        let p = counted_loop(50);
        let mut sim = Simulator::new(SimConfig::default(), Machine::load(&p));
        assert!(matches!(sim.run(100), Err(SimError::OutOfFuel)));
        sim.reg_ready[Reg::ZERO.index()] = 9;
        let corrupt = crate::snapshot::save_simulator(&sim);
        let mut target = Simulator::new(SimConfig::default(), Machine::load(&p));
        let before = crate::snapshot::save_simulator(&target);
        let err = crate::snapshot::restore_simulator(&mut target, &corrupt)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("snapshot corrupt: r31 ready time is 9"),
            "{err}"
        );
        assert_eq!(crate::snapshot::save_simulator(&target), before);
    }

    #[test]
    fn slot_alloc_width_one_serializes() {
        let mut a = SlotAlloc::new(1);
        // Every allocation at width 1 lands in its own cycle.
        assert_eq!(a.alloc(0), 0);
        assert_eq!(a.alloc(0), 1);
        assert_eq!(a.alloc(0), 2);
        // A later ready time jumps forward and resets the group.
        assert_eq!(a.alloc(10), 10);
        assert_eq!(a.alloc(0), 11);
    }

    #[test]
    fn slot_alloc_ready_in_the_past_is_ignored() {
        let mut a = SlotAlloc::new(4);
        assert_eq!(a.alloc(5), 5);
        // `ready` below the current cycle must not move the clock back;
        // the group keeps filling at cycle 5.
        assert_eq!(a.alloc(0), 5);
        assert_eq!(a.alloc(3), 5);
        assert_eq!(a.alloc(0), 5);
        // Width exhausted: the fifth slot spills into cycle 6.
        assert_eq!(a.alloc(0), 6);
    }

    #[test]
    fn slot_alloc_break_group_at_boundary() {
        let mut a = SlotAlloc::new(4);
        // Exactly fill a group, break it, and break it again while empty:
        // a second break in the same cycle must not skip a cycle.
        for _ in 0..4 {
            assert_eq!(a.alloc(0), 0);
        }
        a.break_group();
        a.break_group();
        assert_eq!(a.alloc(0), 1, "double break still advances one cycle");
        a.break_group();
        assert_eq!(a.alloc(0), 2, "break after one slot starts a new cycle");
    }

    /// `count` granules that all hash to `g0`'s direct-mapped slot.
    fn colliding_granules(g0: u64, count: usize) -> Vec<u64> {
        let home = StoreTable::slot(g0);
        let mut out = vec![g0];
        let mut g = g0 + 1;
        while out.len() < count {
            if StoreTable::slot(g) == home {
                out.push(g);
            }
            g += 1;
        }
        out
    }

    /// Round-trips `table` through its snapshot section into a fresh
    /// table, which must re-save to the same bytes.
    fn store_table_round_trip(table: &StoreTable) -> StoreTable {
        let mut w = crate::snapshot::Writer::new();
        table.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = crate::snapshot::Reader::new(&bytes);
        let state = StoreTable::read_state(&mut r).unwrap();
        r.finish().unwrap();
        let mut restored = StoreTable::new();
        restored.insert(12_345, 1); // apply_state must reset first
        restored.apply_state(state);
        let mut w = crate::snapshot::Writer::new();
        restored.save_state(&mut w);
        assert_eq!(w.into_bytes(), bytes, "re-save diverged");
        restored
    }

    #[test]
    fn store_table_matches_hashmap_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Granule pool: two clusters engineered to collide in one slot
        // each (exercising the overflow map), small addresses, and
        // granules across the whole `addr >> 3` range.
        let mut rng = StdRng::seed_from_u64(0x5702E);
        let mut pool = colliding_granules(1, 6);
        pool.extend(colliding_granules(0x4000, 4));
        pool.extend(0..32u64);
        pool.extend((0..32).map(|_| rng.gen_range(0..1u64 << 61)));
        let mut spilled = 0;
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut table = StoreTable::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for step in 0..4_000u64 {
                let g = pool[rng.gen_range(0..pool.len())];
                match rng.gen_range(0..200u32) {
                    0..=99 => {
                        table.insert(g, step);
                        model.insert(g, step);
                    }
                    100..=198 => assert_eq!(table.get(g), model.get(&g).copied(), "granule {g}"),
                    _ => table = store_table_round_trip(&table),
                }
            }
            for &g in &pool {
                assert_eq!(table.get(g), model.get(&g).copied(), "granule {g}");
            }
            spilled += table.overflow.len();
        }
        assert!(spilled > 0, "no granule ever reached the overflow map");
    }

    fn asm(listing: &str) -> Program {
        Assembler::new(Program::segment_base(Program::TEXT_SEGMENT))
            .assemble(listing)
            .unwrap()
    }

    fn counted_loop(n: u32) -> Program {
        asm(&format!(
            "       lda r1, {n}(r31)
             loop:  subq r1, #1, r1
                    bne r1, loop
                    halt"
        ))
    }

    fn run(config: SimConfig, p: &Program) -> SimStats {
        let mut sim = Simulator::new(config, Machine::load(p));
        sim.run(10_000_000).unwrap().stats
    }

    #[test]
    fn ipc_bounded_by_width() {
        let p = counted_loop(2000);
        let s = run(SimConfig::default(), &p);
        assert!(s.ipc() <= 4.0);
        assert!(s.ipc() > 0.5, "IPC {} unexpectedly low", s.ipc());
    }

    #[test]
    fn wider_machines_are_not_slower() {
        // Independent chains to give wide machines something to do.
        let body: String = (1..=12)
            .map(|r| format!("addq r{r}, #1, r{r}\n"))
            .collect();
        let p = asm(&format!(
            "       lda r20, 300(r31)
             loop:  {body}
                    subq r20, #1, r20
                    bne r20, loop
                    halt"
        ));
        let narrow = run(SimConfig::default().with_width(2), &p);
        let wide = run(SimConfig::default().with_width(8), &p);
        assert!(
            wide.cycles < narrow.cycles,
            "8-wide {} !< 2-wide {}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn dependent_chain_limits_ilp() {
        // A serial dependence chain cannot exceed IPC 1.
        let chain: String = (0..16).map(|_| "addq r1, #1, r1\n".to_string()).collect();
        let p = asm(&format!(
            "       lda r20, 200(r31)
             loop:  {chain}
                    subq r20, #1, r20
                    bne r20, loop
                    halt"
        ));
        let s = run(SimConfig::default(), &p);
        assert!(s.ipc() <= 1.3, "serial chain IPC {} too high", s.ipc());
    }

    #[test]
    fn small_icache_hurts_large_loops() {
        // A loop body of ~24KB: fits in 32KB, thrashes 8KB.
        let body: String = (0..6000).map(|_| "addq r1, r2, r3\n".to_string()).collect();
        let p = asm(&format!(
            "       lda r20, 20(r31)
             loop:  {body}
                    subq r20, #1, r20
                    bne r20, loop
                    halt"
        ));
        let big = run(SimConfig::default().with_icache_size(Some(32 * 1024)), &p);
        let small = run(SimConfig::default().with_icache_size(Some(8 * 1024)), &p);
        assert!(small.icache.misses > big.icache.misses * 5);
        assert!(
            small.cycles as f64 > big.cycles as f64 * 1.3,
            "8KB {} vs 32KB {}",
            small.cycles,
            big.cycles
        );
        let perfect = run(SimConfig::default().with_icache_size(None), &p);
        assert!(perfect.cycles <= big.cycles);
        assert_eq!(perfect.icache.misses, 0);
    }

    #[test]
    fn mispredictions_cost_frontend_depth() {
        // A data-dependent, hard-to-predict branch: bit 13 of an LCG.
        let p = asm(
            "       lda r1, 12345(r31)
                    lda r20, 2000(r31)
             loop:  mulq r1, #163, r1
                    addq r1, #57, r1
                    srl r1, #13, r2
                    and r2, #1, r2
                    bne r2, skip
                    addq r4, #1, r4
             skip:  subq r20, #1, r20
                    bne r20, loop
                    halt",
        );
        let s = run(SimConfig::default(), &p);
        assert!(
            s.bpred.cond_mispredicts > 100,
            "expected plenty of mispredictions, got {}",
            s.bpred.cond_mispredicts
        );
        // Deeper front end (the +pipe model) costs more on mispredict-heavy
        // code.
        let deeper = run(
            SimConfig::default().with_expansion_cost(ExpansionCost::ExtraStage),
            &p,
        );
        assert!(deeper.cycles > s.cycles);
    }

    fn mfi_engine(p: &Program) -> DiseEngine {
        let set = dsl::parse(
            "P1: T.OPCLASS == store -> R1
             P2: T.OPCLASS == load  -> R1
             R1: srl T.RS, #26, $dr1
                 cmpeq $dr1, $dr2, $dr1
                 beq $dr1, =error
                 T.INSN",
            &[("error".to_string(), p.symbol("error").unwrap())]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        )
        .unwrap();
        DiseEngine::with_productions(EngineConfig::default(), set).unwrap()
    }

    fn store_loop() -> Program {
        asm(
            "       lda r20, 2000(r31)
             loop:  stq r20, 0(r2)
                    ldq r3, 0(r2)
                    addq r3, r3, r4
                    subq r20, #1, r20
                    bne r20, loop
                    halt
             error: halt",
        )
    }

    fn run_mfi(cost: ExpansionCost) -> SimStats {
        let p = store_loop();
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.attach_engine(mfi_engine(&p));
        m.set_reg(Reg::dr(2), Program::DATA_SEGMENT);
        let mut sim = Simulator::new(SimConfig::default().with_expansion_cost(cost), m);
        sim.run(10_000_000).unwrap().stats
    }

    #[test]
    fn dise_overhead_ordering() {
        let p = store_loop();
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        let base = {
            let mut sim = Simulator::new(SimConfig::default(), m);
            sim.run(10_000_000).unwrap().stats
        };
        let free = run_mfi(ExpansionCost::Free);
        let stall = run_mfi(ExpansionCost::StallPerExpansion);
        assert!(free.expansions > 3000, "loads+stores expanded");
        assert!(
            free.cycles >= base.cycles,
            "ACF code cannot speed things up"
        );
        assert!(
            stall.cycles > free.cycles,
            "stall-per-expansion must cost more than free ({} !> {})",
            stall.cycles,
            free.cycles
        );
        assert!(free.dise_stall_cycles > 0, "cold PT/RT misses counted");
        assert_eq!(free.app_insts, base.app_insts, "same application work");
        assert!(free.total_insts > base.total_insts);
    }

    #[test]
    fn registry_matches_the_struct_views() {
        let p = store_loop();
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        m.attach_engine(mfi_engine(&p));
        m.set_reg(Reg::dr(2), Program::DATA_SEGMENT);
        let mut sim = Simulator::new(SimConfig::default(), m);
        let stats = sim.run(10_000_000).unwrap().stats;
        let live = sim.stats_registry();
        // The registry is a view over the same counters the structs hold.
        assert_eq!(live, stats.registry());
        let count = |name: &str| match live.get(name) {
            Some(crate::telemetry::StatValue::Count(v)) => v,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(count("sim.cycles"), stats.cycles);
        assert_eq!(count("l1i.misses"), stats.icache.misses);
        assert_eq!(count("l1d.accesses"), stats.dcache.accesses);
        assert_eq!(
            count("bpred.mispredicts"),
            stats.bpred.cond_mispredicts + stats.bpred.target_mispredicts
        );
        assert_eq!(count("engine.expansions"), stats.expansions);
        assert_eq!(count("engine.pt_probes"), stats.engine.inspected);
        assert!(count("engine.pt_probes") > 0, "engine counters flow through");
        // Stable-ordered export: names sorted, so identical runs are
        // byte-identical.
        let names: Vec<&str> = live.entries().iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn trace_knobs_do_not_change_results_or_keys() {
        let p = counted_loop(500);
        let plain = run(SimConfig::default(), &p);
        let traced_config = SimConfig::default().with_trace_last(64).with_watchdog(1_000_000);
        let traced = run(traced_config, &p);
        assert_eq!(plain, traced, "telemetry is observability-only");
        // The Debug form is the harness cache key: telemetry knobs must
        // not appear in it.
        assert_eq!(
            format!("{:?}", SimConfig::default()),
            format!("{traced_config:?}")
        );
    }

    #[test]
    fn trace_ring_is_bounded_and_populated() {
        let p = counted_loop(500);
        let mut sim = Simulator::new(SimConfig::default().with_trace_last(32), Machine::load(&p));
        sim.run(10_000_000).unwrap();
        let events = sim.trace_events();
        assert!(!events.is_empty());
        assert!(events.len() <= 32);
        assert!(events
            .iter()
            .any(|e| e.kind == crate::telemetry::TraceKind::Commit));
        // Disabled tracing records nothing.
        let mut sim = Simulator::new(SimConfig::default(), Machine::load(&p));
        sim.run(10_000_000).unwrap();
        assert!(sim.trace_events().is_empty());
    }

    #[test]
    fn watchdog_is_quiet_on_healthy_runs() {
        let p = counted_loop(2000);
        let mut sim = Simulator::new(SimConfig::default().with_watchdog(10_000), Machine::load(&p));
        assert!(sim.run(10_000_000).is_ok());
        assert!(sim.anomaly().is_none());
    }

    #[test]
    fn watchdog_fires_and_dumps_on_pathological_commit_gaps() {
        // A redirect costs ~frontend_depth cycles of commit gap, so a
        // 2-cycle threshold treats ordinary mispredictions as anomalies —
        // a cheap way to exercise the whole dump path.
        let p = asm(
            "       lda r1, 12345(r31)
                    lda r20, 2000(r31)
             loop:  mulq r1, #163, r1
                    addq r1, #57, r1
                    srl r1, #13, r2
                    and r2, #1, r2
                    bne r2, skip
                    addq r4, #1, r4
             skip:  subq r20, #1, r20
                    bne r20, loop
                    halt",
        );
        let config = SimConfig::default().with_watchdog(2).with_trace_last(16);
        let mut sim = Simulator::new(config, Machine::load(&p));
        let err = sim.run(10_000_000).unwrap_err();
        assert!(matches!(err, SimError::Anomaly(_)), "got {err:?}");
        let report = sim.anomaly().expect("report retained");
        assert!(report.reason.contains("watchdog"));
        assert!(!report.events.is_empty(), "dump includes the event ring");
        assert!(report.registry.get("sim.cycles").is_some());
    }

    #[test]
    fn shadow_oracle_lockstep_is_clean_across_machine_paths() {
        // Shadow the fast-path functional machine with the byte-accurate
        // slow-path one: any divergence between the two implementations
        // would abort the run.
        let p = counted_loop(500);
        let slow = crate::machine::MachineConfig {
            fast_path: false,
            ..Default::default()
        };
        let mut sim = Simulator::new(SimConfig::default(), Machine::load(&p));
        sim.attach_shadow(Machine::with_config(&p, slow));
        let shadowed = sim.run(10_000_000).unwrap().stats;
        assert_eq!(shadowed, run(SimConfig::default(), &p));
        assert!(sim.anomaly().is_none());
    }

    #[test]
    fn shadow_divergence_is_detected_and_reported() {
        // A shadow with different architectural state diverges at the
        // first step whose report depends on it (here: the store address
        // in r2).
        let p = store_loop();
        let mut m = Machine::load(&p);
        m.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT));
        let mut sim = Simulator::new(SimConfig::default(), m);
        let mut shadow = Machine::load(&p);
        shadow.set_reg(Reg::R2, Program::segment_base(Program::DATA_SEGMENT) + 64);
        sim.attach_shadow(shadow);
        let err = sim.run(10_000_000).unwrap_err();
        assert!(matches!(err, SimError::Anomaly(_)), "got {err:?}");
        let report = sim.anomaly().expect("report retained");
        assert!(report.reason.contains("divergence"));
    }

    #[test]
    fn perfect_vs_finite_rt() {
        // Many distinct aware sequences blow a tiny RT.
        let mut set = dise_core::ProductionSet::new();
        let mut listing = String::from("lda r20, 50(r31)\n");
        for tag in 0..64u16 {
            let spec = dsl::parse_sequence("addq T.P1, #1, T.P2\naddq T.P2, #1, T.P3").unwrap();
            set.add_aware(dise_isa::Op::Cw0, tag, spec).unwrap();
        }
        listing.push_str("loop:\n");
        // The loop touches all 64 codewords.
        let mut insts: Vec<dise_isa::Inst> = Vec::new();
        let base = Program::segment_base(Program::TEXT_SEGMENT);
        let mut b = dise_isa::ProgramBuilder::new(base);
        b.push(dise_isa::Inst::li(50, Reg::r(20)));
        b.label("loop");
        for tag in 0..64u16 {
            b.push(dise_isa::Inst::codeword(dise_isa::Op::Cw0, 1, 2, 3, tag));
        }
        b.push(dise_isa::Inst::alu_ri(dise_isa::Op::Subq, Reg::r(20), 1, Reg::r(20)));
        b.branch_to(dise_isa::Op::Bne, Reg::r(20), "loop");
        b.push(dise_isa::Inst::halt());
        let p = b.finish().unwrap();
        insts.clear();

        let run_with = |org: dise_core::RtOrganization, set: dise_core::ProductionSet| {
            let mut m = Machine::load(&p);
            let config = EngineConfig {
                rt_entries: 16,
                rt_org: org,
                ..EngineConfig::default()
            };
            m.attach_engine(DiseEngine::with_productions(config, set).unwrap());
            let mut sim = Simulator::new(SimConfig::default(), m);
            sim.run(10_000_000).unwrap().stats
        };
        let tiny = run_with(dise_core::RtOrganization::DirectMapped, set.clone());
        let perfect = run_with(dise_core::RtOrganization::Perfect, set);
        assert!(
            tiny.dise_stall_cycles > perfect.dise_stall_cycles * 10,
            "tiny RT must thrash: {} vs {}",
            tiny.dise_stall_cycles,
            perfect.dise_stall_cycles
        );
        assert!(tiny.cycles > perfect.cycles * 2);
    }
}
